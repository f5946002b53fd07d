"""Equivariant Schubert calculus for finite Weyl groups.

A combinatorial model of the torus-equivariant cohomology of a
generalized flag variety: classes are lists of integer polynomials
indexed by the Weyl group and subject to the GKM divisibility conditions.
Structure constants of the Schubert basis are computed two independent
ways — a memoized descent-cycling recurrence, and elimination against the
fixed-point restrictions — and the test suite verifies that the two
engines agree on every triple at desk scale.

Quick start::

    from schubertcalc import named, perm_to_element, structure_constant, render

    W = named("A2")
    w = perm_to_element(W, (2, 3, 1))
    v = perm_to_element(W, (2, 1, 3))
    print(render(structure_constant(w, v, w), "y"))   # 'y2 - y1'
"""

from .errors import (
    DimensionMismatchError,
    EngineMismatchError,
    GroupTooLargeError,
    MixedRootSystemsError,
    NonFiniteTypeError,
    NonzeroResidualError,
    NotDivisibleError,
    SchubertError,
    UnknownTypeError,
)
from .rootsys import (
    RootSystem,
    WeylElement,
    all_reduced_words,
    bruhat_leq,
    build,
    coeff_pairing,
    covers,
    named,
    perm_to_element,
    word_to_element,
)
from .polyring import (
    Polynomial,
    act,
    divide_exact,
    is_divisible,
    poly_from_json,
    poly_to_json,
    render,
)
from .gkm import (
    GkmClass,
    SchubertExpansion,
    chern_class,
    chern_times_schubert,
    class_from_json,
    class_to_json,
    gkm_violation,
    is_gkm,
    left_dd,
    leibniz_check,
    right_act,
    right_dd,
)
from .billey import (
    base_constant,
    bottom_factors,
    bottom_restriction,
    restrict,
    restrict_all,
    schubert_class,
)
from .recurrence import (
    ConstantKey,
    TraceNode,
    format_trace,
    product_expansion,
    replay_trace,
    structure_constant,
    trace_constant,
    triple_constant,
)
from .oracle import (
    CoverSweepReport,
    SweepReport,
    expand_in_schubert,
    lemma_cover_sweep,
    oracle_constant,
    oracle_product,
    ordinary_recurrence_check,
    verify_sweep,
)

__version__ = "0.1.0"
