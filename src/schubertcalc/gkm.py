"""GKM classes: polynomial-valued functions on the Weyl group.

A *class* assigns to every group element ``v`` a polynomial ``p|_v`` such
that for every positive root ``beta`` the difference ``p|_v - p|_{r_beta v}``
is divisible by ``beta`` (the GKM divisibility conditions; checking
positive roots suffices since ``beta`` and ``-beta`` impose the same
condition).  These lists model equivariant cohomology classes restricted
to the torus fixed points, and all computations in this package happen in
this model.

The module provides the right group action on classes, the left and
right divided difference operators, the invariant Chern classes attached
to the simple roots, and the closed-form expansion of a Chern class times
a Schubert class over the covers in Bruhat order.

Values are stored densely, aligned with the canonical group enumeration.
A product of classes multiplies each distinct pair of nonzero values once:
Schubert classes repeat values (constant on the right cosets of the
parabolic subgroup of their ascents), and polynomials cache their hashes.
A point where either value is zero, as every point outside the common
support of two Schubert classes is, gets the shared zero of the rank,
tested on the packed terms without hashing the pair.
Classes are immutable; operator evaluations at distinct fixed points are
independent, so results never depend on evaluation order.
"""

from __future__ import annotations

from functools import cache

from .errors import MixedRootSystemsError
from .polyring import Polynomial, act, divide_exact, is_divisible
from .rootsys import Root, RootSystem, WeylElement, _canonical_key, _chevalley_covers

__all__ = [
    "GkmClass",
    "SchubertExpansion",
    "gkm_violation",
    "is_gkm",
    "right_act",
    "chern_class",
    "left_dd",
    "right_dd",
    "chern_times_schubert",
    "leibniz_check",
]

_zero = cache(Polynomial.zero)  # one shared zero per rank; polynomials are immutable


class GkmClass:
    """A total map from the Weyl group to polynomials, stored densely."""

    __slots__ = ("rs", "values")

    def __init__(self, rs: RootSystem, values):
        self.rs = rs
        vals = tuple(values)
        if len(vals) != rs.order():
            raise ValueError("value list does not cover the whole group")
        self.values = vals

    @classmethod
    def from_function(cls, rs: RootSystem, fn) -> "GkmClass":
        return cls(rs, [fn(w) for w in rs.elements()])

    def value(self, w: WeylElement) -> Polynomial:
        return self.values[self.rs.element_index(w)]

    def support(self) -> list[WeylElement]:
        return [w for w, p in zip(self.rs.elements(), self.values) if not p.is_zero()]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.values)

    def homogeneous_degree(self) -> int | None:
        """Common combinatorial degree of all nonzero values, else None."""
        degs = set()
        for p in self.values:
            degs |= p.monomial_degrees()
        if len(degs) != 1:
            return None
        return degs.pop()

    def _coerce_scalar(self, other) -> Polynomial | None:
        if isinstance(other, int):
            return Polynomial.integer(self.rs.rank, other)
        if isinstance(other, Polynomial):
            return other
        return None

    def __add__(self, other) -> "GkmClass":
        if not isinstance(other, GkmClass):
            return NotImplemented
        self._same(other)
        return GkmClass(self.rs, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other) -> "GkmClass":
        if not isinstance(other, GkmClass):
            return NotImplemented
        self._same(other)
        return GkmClass(self.rs, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other) -> "GkmClass":
        scalar = self._coerce_scalar(other)
        if scalar is not None:
            return GkmClass(self.rs, [p * scalar for p in self.values])
        if isinstance(other, GkmClass):
            self._same(other)
            zero = _zero(self.rs.rank)
            products: dict = {}  # one product per distinct pair of nonzero values
            values = []
            for pair in zip(self.values, other.values):
                if not (pair[0]._t and pair[1]._t):  # a zero factor: no hash, no product
                    values.append(zero)
                    continue
                got = products.get(pair)
                if got is None:
                    got = products[pair] = pair[0] * pair[1]
                values.append(got)
            return GkmClass(self.rs, values)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GkmClass)
            and self.rs is other.rs
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def _same(self, other: "GkmClass"):
        if self.rs is not other.rs:
            raise MixedRootSystemsError("classes live over different root systems")

    def __repr__(self) -> str:
        sup = len(self.support())
        return f"GkmClass(support={sup}/{self.rs.order()})"


class SchubertExpansion:
    """A finite combination  sum_u coeff[u] * S_u  with polynomial coefficients.

    Zero coefficients are never stored, so equality is canonical.
    """

    __slots__ = ("rs", "coeffs")

    def __init__(self, rs: RootSystem, coeffs: dict[WeylElement, Polynomial] | None = None):
        self.rs = rs
        self.coeffs = {u: c for u, c in (coeffs or {}).items() if not c.is_zero()}

    def coeff(self, u: WeylElement) -> Polynomial:
        return self.coeffs.get(u, _zero(self.rs.rank))

    def items(self) -> list[tuple[WeylElement, Polynomial]]:
        return sorted(self.coeffs.items(), key=lambda t: _canonical_key(t[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchubertExpansion)
            and self.rs is other.rs
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{u.describe()}: {c!r}" for u, c in self.items())
        return f"SchubertExpansion({{{inner}}})"


# -- constructors -------------------------------------------------------------


def chern_class(rs: RootSystem, alpha: Root) -> GkmClass:
    """The invariant class with value ``w . (-alpha)`` at the point ``w``."""
    _check_simple(rs, alpha)
    return GkmClass.from_function(rs, lambda w: -Polynomial.linear(w.act(alpha)))


def _check_simple(rs: RootSystem, alpha: Root):
    if alpha not in rs.simple_roots:
        raise ValueError(f"{alpha!r} is not a simple root of this system")


# -- GKM conditions -----------------------------------------------------------


def gkm_violation(p: GkmClass) -> tuple[WeylElement, Root] | None:
    """First violated edge ``(v, beta)`` of the divisibility conditions, or None."""
    rs = p.rs
    for v in rs.elements():
        pv = p.value(v)
        for beta in rs.positive_roots:
            diff = pv - p.value(rs.reflection(beta) * v)
            if not diff.is_zero() and not is_divisible(diff, beta):
                return (v, beta)
    return None


def is_gkm(p: GkmClass) -> bool:
    return gkm_violation(p) is None


# -- the right action ---------------------------------------------------------


def right_act(w: WeylElement, p: GkmClass) -> GkmClass:
    """Right action: pure reindexing ``(p . w)|_v = p|_{v w}``; a module map."""
    rs = p.rs
    return GkmClass.from_function(rs, lambda v: p.value(v * w))


# -- divided difference operators ---------------------------------------------


def left_dd(alpha: Root, p: GkmClass) -> GkmClass:
    """Left divided difference: ``(p - r_alpha . p) / alpha`` pointwise.

    Exact division is guaranteed by the GKM conditions; a division failure
    propagates as :class:`NotDivisibleError` and signals a corrupted input.
    """
    rs = p.rs
    _check_simple(rs, alpha)
    i = alpha.index(1) + 1
    r = rs.simple_reflection(i)

    def value(v):
        diff = p.value(v) - act(r, p.value(r * v))
        return divide_exact(diff, alpha) if diff else diff

    return GkmClass.from_function(rs, value)


def right_dd(alpha: Root, p: GkmClass) -> GkmClass:
    """Right divided difference: ``(p - p . r_alpha) / c_{-alpha}`` pointwise.

    At the point ``v`` the divisor is ``-(v . alpha)``.  This operator is
    linear over the base ring.
    """
    rs = p.rs
    _check_simple(rs, alpha)
    i = alpha.index(1) + 1
    r = rs.simple_reflection(i)

    def value(v):
        diff = p.value(v) - p.value(v * r)
        return divide_exact(diff, tuple(-c for c in v.act(alpha))) if diff else diff

    return GkmClass.from_function(rs, value)


# -- Chern multiplication ------------------------------------------------------


def chern_times_schubert(rs: RootSystem, alpha: Root, w: WeylElement) -> SchubertExpansion:
    """Closed-form Schubert expansion of ``c_{-alpha} * S_w``.

    The coefficient on ``S_w`` is ``-(w . alpha)``; each cover
    ``w' = w r_beta`` of ``w`` carries the integer pairing of ``alpha``
    against ``beta`` (``rootsys._chevalley_covers``, the terms the engine's
    recurrence sums).  Zero terms are omitted.
    """
    _check_simple(rs, alpha)
    coeffs: dict[WeylElement, Polynomial] = {w: -Polynomial.linear(w.act(alpha))}
    coeffs.update((wp, Polynomial.integer(rs.rank, m)) for wp, m in _chevalley_covers(w, alpha))
    return SchubertExpansion(rs, coeffs)


def leibniz_check(alpha: Root, p: GkmClass, q: GkmClass) -> bool:
    """Twisted Leibniz identity for the right divided difference.

    Evaluates both sides of
    ``dd(pq) == (p - c_{-alpha} dd(p)) dd(q) + dd(p) q``
    and reports equality; exposed as a verification utility.
    """
    rs = p.rs
    c = chern_class(rs, alpha)
    dp = right_dd(alpha, p)
    dq = right_dd(alpha, q)
    lhs = right_dd(alpha, p * q)
    rhs = (p - c * dp) * dq + dp * q
    return lhs == rhs
