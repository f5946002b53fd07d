"""Independent verification engine: Schubert-basis expansion by elimination.

Any GKM class expands uniquely in the Schubert classes over the base
ring, because restriction is upper triangular with respect to Bruhat
order: ``S_w`` is supported on ``{v >= w}`` and its bottom value is the
product of the bottom factors.  Walking the group in increasing length,
the coefficient on ``S_w`` is the residual value at ``w`` divided by
``S_w|_w`` in one triangular solve over packed keys; subtracting
``coeff * S_w`` then clears the point, which checks the quotient, and never
touches earlier ones (a check per memoized class guards this triangularity
and that ``S_w|_w`` is the product of the bottom factors).  A residual that
survives means the input is not a class (``NotDivisibleError``); a memoized
class that fails its check is corrupt (``NonzeroResidualError``).

Values repeat: by the right action ``S_u . r_i = S_u`` for every ascent
``u r_i > u``, so ``S_u`` is constant on right cosets of the parabolic
subgroup of ``u``'s ascents, and ``S_w * S_v`` on those of their common
ascents.  The class product forms each distinct pair of values once, and
each step of the elimination forms ``coeff * s`` once per distinct value
``s`` of ``S_w`` (the support grouped by value is memoized beside the
class, with what the solve reads of ``S_w|_w``), then subtracts it in place
from the residual of every point of that group, a term dict of its own from
the point's first update.

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
from bisect import bisect_right, insort
from functools import reduce
from operator import or_

from .billey import bottom_restriction, restrict, schubert_class
from .errors import DimensionMismatchError, GroupTooLargeError, NonzeroResidualError, NotDivisibleError
from .gkm import GkmClass, SchubertExpansion
from .polyring import _FIELD, _W, Polynomial, _add_terms, _guard, _make, render
from .recurrence import _integer, structure_constant
from .rootsys import (
    RootSystem, WeylElement, _per_group, _same_group, all_reduced_words, coeff_pairing, covers,
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


def _check_sweep_cap(rs: RootSystem, force: bool) -> None:
    """Refuse a group past ``ORACLE_SWEEP_CAP`` unless ``force``; every sweep walks all of W."""
    if rs.order() > ORACLE_SWEEP_CAP and not force:
        raise GroupTooLargeError(
            f"|W| = {rs.order()} exceeds the oracle sweep cap {ORACLE_SWEEP_CAP}; "
            "pass force=True to override"
        )


def expand_in_schubert(p: GkmClass) -> SchubertExpansion:
    """Expand a class in the Schubert basis by triangular elimination.

    At each point ``u`` of the support, in increasing length, the coefficient
    is one quotient of the residual by ``S_u|_u`` (see :func:`_quotient`),
    left unchecked: the subtraction of ``coeff * S_u`` that follows must clear
    the residual at ``u``, and that is the check.

    Raises :class:`NotDivisibleError` when the input is not a class (a
    residual is not a multiple of ``S_u|_u``) and :class:`NonzeroResidualError`
    when a memoized Schubert class is corrupt; these are never silently absorbed.
    """
    rs = p.rs
    shared = [val._t for val in p.values]
    residual = list(shared)  # packed terms, copied at a point's first update
    coeffs: dict[WeylElement, Polynomial] = {}
    for idx, w in enumerate(rs.elements()):
        if not residual[idx]:
            continue
        divisor, support = _support_by_value(w)  # checks S_w before its bottom value divides
        coeff = coeffs[w] = _quotient(residual[idx], divisor)
        for sv, points in support:
            d = (coeff * sv)._t
            for j in points:
                if residual[j] is shared[j]:
                    residual[j] = dict(shared[j])
                _add_terms(residual[j], d, -1)
        if residual[idx]:
            raise NotDivisibleError(f"the residual at {w!r} is not a multiple of its bottom restriction")
    return SchubertExpansion(rs, coeffs)


def _divisor(bottom: Polynomial) -> tuple[int, dict[int, int], int, int]:
    """What :func:`_quotient` reads of ``bottom``: its rank, its packed terms,
    its largest key and, packed, each variable's largest exponent in it."""
    b = bottom._t
    most = sum(max(map((_FIELD << (_W * k)).__and__, b)) for k in range(bottom.rank))
    return bottom.rank, b, max(b), most


def _quotient(terms: dict[int, int], divisor: tuple[int, dict[int, int], int, int]) -> Polynomial:
    """The quotient of the packed ``terms`` by a :func:`_divisor`, unchecked.

    A triangular solve in packed-key order: with ``L`` the largest key of the
    divisor ``B`` and ``c`` its coefficient, the quotient's coefficient at ``m`` is

        (terms[m + L] - sum over found keys m' > m of q[m'] * B[m + L - m']) / c,

    because keys add like monomials and compare as ints.  The candidate keys
    are walked largest first from a sorted list: ``r - L`` for each key ``r``
    of the terms, and ``m - (L - e)`` for each key ``e`` of ``B`` once
    ``q[m]`` is found, the only keys whose sum can be nonzero.  Each must lie
    in the per-variable box from 0 to ``deg_{a_k}(terms) - deg_{a_k}(B)``
    (the terms' degrees bounded above by the or of their keys); a key that
    borrows has a guard bit set, so the box check also drops it.  A remainder
    in a coefficient, or a negative box, raises :class:`NotDivisibleError`;
    any other failure to divide gives a wrong quotient, which the caller's
    subtraction of ``quotient * B`` exposes.
    """
    rank, b, lead, most = divisor
    c = b[lead]
    top = reduce(or_, terms)
    hi = 0  # the box, packed
    for k in range(rank):
        f = _FIELD << (_W * k)
        x = (top & f) - (most & f)
        if x < 0:
            raise NotDivisibleError(f"a{k + 1} has a smaller degree than in the divisor")
        hi += x
    guard = _guard(rank)
    # the steps L - e that can join two keys of the box, sorted: from a key m
    # only those up to m can land in it, as m - (L - e) >= 0
    steps = sorted(lead - e for e in b if e != lead and not ((hi + lead - e) | (hi + e - lead)) & guard)
    cands = sorted(r - lead for r in terms if not ((hi + lead - r) | (r - lead)) & guard)
    pending = set(cands)
    q: dict[int, int] = {}
    while cands:
        m = cands.pop()  # the largest left
        if _solve_at(m, lead, c, terms, b, q):
            for d in steps[:bisect_right(steps, m)]:
                n = m - d
                if n not in pending and not ((hi - n) | n) & guard:
                    pending.add(n)
                    insort(cands, n)
    return _make(rank, q)


def _solve_at(m: int, lead: int, c: int, terms: dict, b: dict, q: dict) -> bool:
    """Solve for the quotient's coefficient at ``m`` from the larger keys in
    ``q``, looping over the smaller of ``q`` and ``b``; stores a nonzero one."""
    t = m + lead
    acc = terms.get(t, 0)
    if len(q) < len(b):
        get = b.get
        for n, x in q.items():
            y = get(t - n)
            if y:
                acc -= x * y
    else:
        get = q.get
        for e, y in b.items():  # e = lead reaches m itself, not yet in q
            x = get(t - e)
            if x:
                acc -= x * y
    if not acc:
        return False
    x, r = divmod(acc, c)
    if r:
        raise NotDivisibleError(f"coefficient {acc} is not a multiple of {c}")
    q[m] = x
    return True


@_per_group("schubert_by_value")
def _support_by_value(w: WeylElement) -> tuple[tuple, list[tuple[Polynomial, list[int]]]]:
    """The :func:`_divisor` of ``S_w|_w`` and the support of ``S_w`` grouped by
    value; memoized once ``S_w`` is checked to vanish below ``w``'s own index,
    the points elimination must not touch, and to be the product of the bottom
    factors at ``w``, the divisor there."""
    idx = w.rs.element_index(w)
    values = schubert_class(w).values
    if any(values[:idx]):
        raise NonzeroResidualError(f"S_{w!r} is nonzero below its own index {idx}")
    if values[idx] != bottom_restriction.__wrapped__(w):  # computed afresh, not read from its table
        raise NonzeroResidualError(f"S_{w!r} at {w!r} is not the bottom restriction")
    groups: dict[Polynomial, list[int]] = {}
    for j, sv in enumerate(values):
        if sv:
            groups.setdefault(sv, []).append(j)
    return _divisor(values[idx]), list(groups.items())


def oracle_product(w: WeylElement, v: WeylElement) -> SchubertExpansion:
    """The Schubert expansion of ``S_w * S_v``, cached once per unordered pair."""
    cache = w.rs.cache("oracle_products")
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

    lhs = triple(w, v * r, u * r)
    rhs = triple(w * r, v * r, u) + triple(w * r, v, u * r)
    for wp, beta in covers(w):
        if wp == w * r:
            continue
        m = coeff_pairing(rs, alpha, beta)
        if m:
            rhs += m * triple(wp, v, u * r)
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
    report = SweepReport(rs.type_label or f"rank{rs.rank}")

    def where(w, v, u, **values):
        return {"w": w.describe(), "v": v.describe(), "u": u.describe(), **values}

    t0 = time.perf_counter()
    for w in ws:
        for v in vs:
            expansion = oracle_product(w, v)
            for u in elements:
                report.triples += 1
                rec = structure_constant(w, v, u)
                orc = expansion.coeff(u)
                if rec != orc:
                    report.mismatches.append(where(w, v, u, recurrence=render(rec), oracle=render(orc)))
                if rec.is_zero():
                    continue
                report.max_coeff = max(report.max_coeff, rec.max_abs_coeff())
                if u.length == w.length + v.length:
                    if rec.homogeneous_degree() != 0 or rec.constant_term() < 0:
                        report.ordinary_violations.append(where(w, v, u, value=render(rec)))
                if any(c < 0 for c in rec.terms.values()):
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
    report = CoverSweepReport(rs.type_label or f"rank{rs.rank}")
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
