"""Independent verification engine: Schubert-basis expansion by elimination.

Any GKM class expands uniquely in the Schubert classes over the base
ring, because restriction is upper triangular with respect to Bruhat
order: ``S_w`` is supported on ``{v >= w}`` and its bottom value is the
product of the bottom factors.  Walking the group in increasing length,
the coefficient on ``S_w`` is the residual value at ``w`` divided exactly by
``S_w|_w`` with polyring's ``divide_exact``, which checks its quotient, and
subtracting ``coeff * S_w`` never touches earlier points (a check per
memoized class guards this triangularity and that ``S_w|_w`` is the product
of the bottom factors).  A residual that does not divide means the input is
not a class (``NotDivisibleError``); a memoized class that fails its check
is corrupt (``NonzeroResidualError``).

Values repeat: by the right action ``S_u . r_i = S_u`` for every ascent
``u r_i > u``, so ``S_u`` is constant on right cosets of the parabolic
subgroup of ``u``'s ascents, and ``S_w * S_v`` on those of their common
ascents.  Each Schubert class is one row across billey's restriction
columns, read from one per-group list of them in canonical order.  The
class product forms each distinct pair of nonzero values once, and every
point outside the common support gets the shared zero without its pair
being hashed.  Each step of the elimination forms ``coeff * s`` once per
distinct value ``s`` of ``S_w`` (the support grouped by value is memoized
beside the class), then subtracts it in place from the residual of every
point of that group, a term dict of its own from the point's first update.
For ``w``'s own group, whose value is the divisor, the product is the
residual at ``w`` itself, which the division has just proved, so that
group forms none.  Zero and equality tests in these loops, and in the
sweep's per-triple comparison, read the packed terms directly.

The expansion deliberately shares no code path with the recursive
structure-constant engine beyond the primitive modules, so the two can
check each other: :func:`verify_sweep` compares them on every triple of a
(small) group, :func:`ordinary_recurrence_check` tests the paper's
recurrence on triple integrals read off the expansions alone, and
:func:`lemma_cover_sweep` exhaustively checks the cover-ratio identity

    bottom(w') == S_w|_{w'} * (w . beta)        for covers w' = w r_beta

together with uniqueness of the removable letter in every reduced word.
"""

from __future__ import annotations

import time

from .billey import bottom_restriction, restrict, schubert_class
from .errors import DimensionMismatchError, GroupTooLargeError, NonzeroResidualError
from .gkm import GkmClass, SchubertExpansion
from .polyring import Polynomial, _add_terms, _make, divide_exact, render
from .recurrence import _integer, structure_constant
from .rootsys import (
    RootSystem, WeylElement, _chevalley_covers, _per_group, _same_group, all_reduced_words, covers,
    word_to_element,
)

__all__ = [
    "SweepReport",
    "CoverSweepReport",
    "expand_in_schubert",
    "oracle_product",
    "oracle_constant",
    "ordinary_recurrence_check",
    "verify_sweep",
    "lemma_cover_sweep",
]

ORACLE_SWEEP_CAP = 120  # largest |W| swept by default
# Largest |W| the oracle expands in.  Its Schubert classes read Billey's
# restriction column at every element of W: one A5 (720) constant takes
# about 4 s and 370 MB, while F4 (1152) runs out of a 3.5 GB address space.
ORACLE_MAX_GROUP = 720


def _check_sweep_cap(rs: RootSystem, force: bool) -> None:
    """Refuse a group past ``ORACLE_SWEEP_CAP`` unless ``force``; every sweep walks all of W."""
    if rs.order() > ORACLE_SWEEP_CAP and not force:
        raise GroupTooLargeError(
            f"|W| = {rs.order()} exceeds the oracle sweep cap {ORACLE_SWEEP_CAP}; "
            "pass force=True to override"
        )


def _group_name(rs: RootSystem) -> str:
    """The name a report gives its group: the type label, else ``rank<n>``."""
    return rs.type_label or f"rank{rs.rank}"


def expand_in_schubert(p: GkmClass) -> SchubertExpansion:
    """Expand a class in the Schubert basis by triangular elimination.

    At each point ``u`` of the support, in increasing length, the coefficient
    is the residual at ``u`` divided exactly by ``S_u|_u`` (``divide_exact``,
    which checks its quotient).  Then ``coeff * S_u|_u`` is that residual: it
    is cleared at ``u`` and subtracted as it stands at the other points of
    ``u``'s value group, and every other group gets ``coeff * s`` for its value.

    Raises :class:`NotDivisibleError` when the input is not a class (a
    residual is not a multiple of ``S_u|_u``) and :class:`NonzeroResidualError`
    when a memoized Schubert class is corrupt; these are never silently absorbed.
    """
    rs = p.rs
    shared = [val._t for val in p.values]
    residual = list(shared)  # packed terms, copied at a point's first update

    def subtract(terms: dict[int, int], points) -> None:
        for j in points:
            if residual[j] is shared[j]:
                residual[j] = dict(shared[j])
            _add_terms(residual[j], terms, -1)

    coeffs: dict[WeylElement, Polynomial] = {}
    for idx, w in enumerate(rs.elements()):
        terms = residual[idx]
        if not terms:
            continue
        (bottom, own), *others = _support_by_value(w)  # checks S_w before its bottom value divides
        coeff = coeffs[w] = divide_exact(_make(rs.rank, terms), bottom)
        residual[idx] = {}
        subtract(terms, own[1:])
        for sv, points in others:
            subtract((coeff * sv)._t, points)
    return SchubertExpansion(rs, coeffs)


@_per_group("schubert_by_value")
def _support_by_value(w: WeylElement) -> list[tuple[Polynomial, list[int]]]:
    """The support of ``S_w`` grouped by value, ``w``'s own group first with
    ``w`` its first point; memoized once ``S_w`` is checked to vanish below
    ``w``'s own index, the points elimination must not touch, and to be the
    product of the bottom factors at ``w``, the divisor there."""
    idx = w.rs.element_index(w)
    values = schubert_class(w).values
    if any(sv._t for sv in values[:idx]):
        raise NonzeroResidualError(f"S_{w!r} is nonzero below its own index {idx}")
    if values[idx]._t != bottom_restriction.__wrapped__(w)._t:  # computed afresh, not read from its table
        raise NonzeroResidualError(f"S_{w!r} at {w!r} is not the bottom restriction")
    groups: dict[Polynomial, list[int]] = {}
    for j in range(idx, len(values)):
        if values[j]._t:
            groups.setdefault(values[j], []).append(j)
    return list(groups.items())


def oracle_product(w: WeylElement, v: WeylElement) -> SchubertExpansion:
    """The Schubert expansion of ``S_w * S_v``, cached once per unordered pair.

    Refuses a group past ``ORACLE_MAX_GROUP`` before it builds any class.
    """
    rs = w.rs
    if rs.order() > ORACLE_MAX_GROUP:
        raise GroupTooLargeError(
            f"|W| = {rs.order()} exceeds the oracle's limit {ORACLE_MAX_GROUP}; "
            "its classes would not fit in memory"
        )
    cache = rs.cache("oracle_products")
    key = (w, v) if (w.length, w.x) <= (v.length, v.x) else (v, w)
    got = cache.get(key)
    if got is None:
        got = cache[key] = expand_in_schubert(schubert_class(key[0]) * schubert_class(key[1]))
    return got


def oracle_constant(w: WeylElement, v: WeylElement, u: WeylElement) -> Polynomial:
    """The coefficient of ``S_u`` in ``S_w * S_v``, by direct expansion.

    The product is commutative, so one expansion is cached per unordered pair.
    """
    _same_group(w, v, u)
    return oracle_product(w, v).coeff(u)


def ordinary_recurrence_check(w: WeylElement, v: WeylElement, u: WeylElement, r_index: int) -> bool:
    """Verify one instance of the cover recurrence for the triple integrals.

    Requires ``wr > w``, ``vr > v``, ``ur > u`` and
    ``l(w) + l(v) + l(u) + 2`` equal to the number of positive roots, so
    that every term is a well-defined integral.  Every term is read off an
    oracle expansion, so the check is independent of the recursive engine.
    """
    rs = w.rs
    if w.length + v.length + u.length + 2 != len(rs.positive_roots):
        raise DimensionMismatchError(
            "term lengths do not match the dimension of the flag variety"
        )
    for x in (w, v, u):
        if not x.right_ascent(r_index):
            raise ValueError(f"r_index={r_index} is not an ascent of {x!r}")
    r = rs.simple_reflection(r_index)
    alpha = rs.simple_root(r_index)
    w0 = rs.longest_element()

    def triple(a, b, c):
        return _integer(oracle_constant(a, b, w0 * c))

    wr = w * r
    lhs = triple(w, v * r, u * r)
    rhs = triple(wr, v * r, u) + triple(wr, v, u * r)
    rhs += sum(m * triple(wp, v, u * r) for wp, m in _chevalley_covers(w, alpha) if wp is not wr)
    return lhs == rhs


class SweepReport:
    """Outcome of a recurrence-vs-oracle sweep over structure constants."""

    __slots__ = (
        "group", "triples", "mismatches", "max_coeff", "elapsed_ms",
        "ordinary_violations", "coeff_violations",
    )

    def __init__(self, group: str):
        self.group = group
        self.triples = 0
        self.mismatches: list[dict] = []
        self.max_coeff = 0
        self.elapsed_ms = 0.0
        self.ordinary_violations: list[dict] = []
        self.coeff_violations: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "triples": self.triples,
            "mismatches": self.mismatches,
            "max_coeff": self.max_coeff,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "ordinary_violations": self.ordinary_violations,
            "coeff_violations": self.coeff_violations,
        }

    def text_lines(self) -> list[str]:
        lines = [
            f"sweep {self.group}: {self.triples} triples, "
            f"{len(self.mismatches)} mismatches, max |coeff| {self.max_coeff}, "
            f"{self.elapsed_ms:.0f} ms"
        ]
        for m in self.mismatches:
            lines.append(
                f"  MISMATCH at ({m['w']}, {m['v']}, {m['u']}): "
                f"recurrence={m['recurrence']} oracle={m['oracle']}"
            )
        if self.ordinary_violations:
            lines.append(f"  ordinary positivity violations: {len(self.ordinary_violations)}")
        if self.coeff_violations:
            lines.append(f"  coefficient positivity violations: {len(self.coeff_violations)}")
        return lines


def verify_sweep(rs: RootSystem, ws=None, vs=None, *, force: bool = False) -> SweepReport:
    """Compare the two engines on all (filtered) triples of a group.

    Also collects positivity statistics: in the ordinary case every
    constant must be a nonnegative integer, and every equivariant constant
    must have nonnegative coefficients on the simple-root monomials.
    """
    _check_sweep_cap(rs, force)
    elements = rs.elements()
    ws = list(ws) if ws is not None else elements
    vs = list(vs) if vs is not None else elements
    report = SweepReport(_group_name(rs))

    def where(w, v, u, **values):
        return {"w": w.describe(), "v": v.describe(), "u": u.describe(), **values}

    t0 = time.perf_counter()
    for w in ws:
        for v in vs:
            # both engines by their module names, bound once per row
            constant, coeff = structure_constant, oracle_product(w, v).coeff
            top = w.length + v.length
            report.triples += len(elements)
            for u in elements:
                rec = constant(w, v, u)
                orc = coeff(u)
                terms = rec._t  # one group, so equal packed terms are equal polynomials
                if terms != orc._t:
                    report.mismatches.append(where(w, v, u, recurrence=render(rec), oracle=render(orc)))
                if not terms:
                    continue
                report.max_coeff = max(report.max_coeff, rec.max_abs_coeff())
                # an ordinary constant is a nonnegative integer: its one monomial is 1
                if u.length == top and (terms.keys() != {0} or terms[0] < 0):
                    report.ordinary_violations.append(where(w, v, u, value=render(rec)))
                if min(terms.values()) < 0:
                    report.coeff_violations.append(where(w, v, u, value=render(rec)))
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


class CoverSweepReport:
    """Outcome of the cover-ratio and removable-letter sweep."""

    __slots__ = ("group", "covers_checked", "words_checked", "violations", "elapsed_ms")

    def __init__(self, group: str):
        self.group = group
        self.covers_checked = 0
        self.words_checked = 0
        self.violations: list[str] = []
        self.elapsed_ms = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "covers_checked": self.covers_checked,
            "words_checked": self.words_checked,
            "violations": self.violations,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def text_lines(self) -> list[str]:
        lines = [
            f"cover sweep {self.group}: {self.covers_checked} covers, "
            f"{self.words_checked} reduced words, "
            f"{len(self.violations)} violations, {self.elapsed_ms:.0f} ms"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return lines


def lemma_cover_sweep(rs: RootSystem) -> CoverSweepReport:
    """Check the cover-ratio identity and removable-letter uniqueness.

    For every cover ``w' = w r_beta``:
      * ``bottom(w') == S_w|_{w'} * (w . beta)``;
      * for every reduced word of ``w'``, exactly one letter can be
        removed to leave a reduced word for ``w``.
    """
    report = CoverSweepReport(_group_name(rs))
    t0 = time.perf_counter()
    for w in rs.elements():
        for wp, beta in covers(w):
            report.covers_checked += 1
            lhs = bottom_restriction(wp)
            rhs = restrict(w, wp).times_linear(w.act(beta))
            if lhs != rhs:
                report.violations.append(
                    f"cover ratio fails at {w.describe()} -> {wp.describe()}"
                )
            for word in all_reduced_words(wp):
                report.words_checked += 1
                removable = 0
                for b in range(len(word)):
                    sub = word[:b] + word[b + 1:]
                    x = word_to_element(rs, sub)
                    if x.length == len(sub) and x == w:
                        removable += 1
                if removable != 1:
                    report.violations.append(
                        f"removable letter count {removable} for word {word} "
                        f"of {wp.describe()} over {w.describe()}"
                    )
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report
