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

# each module's ``__all__`` is the one declaration of its public names
from .errors import *
from .rootsys import *
from .polyring import *
from .gkm import *
from .billey import *
from .recurrence import *
from .oracle import *

__version__ = "0.1.0"
