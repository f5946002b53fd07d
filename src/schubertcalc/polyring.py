"""Exact sparse integer polynomials in the simple-root variables.

This is the model of the base ring of the theory: polynomials over the
integers in variables ``a1..aN`` (the simple roots).  Coefficients are
Python ints, so coefficient overflow is impossible by construction.

Storage is a dict from *packed monomials* to nonzero coefficients.  A
packed monomial is one int with a 17-bit field per variable: the exponent
of ``a_{k+1}`` sits in bits ``17k .. 17k+15`` (so exponents run 0..65535)
and bit ``17k+16`` is that field's guard bit, clear in every stored key.
Multiplying monomials is then one integer addition: two fields below
2**16 sum to less than 2**17, so no field ever carries into the next one.
Every operation that adds keys checks its result for a set guard bit and
raises ``OverflowError`` rather than store a wrapped monomial; packing
rejects a negative or too large exponent with ``ValueError``.  The engines
never come near the limit: a restriction or a structure constant has
degree at most |Delta_+| (120 in E8).  Packed keys compare like the
reversed exponent tuples, so the display order is (degree, key).

The one product loop is ``_mul_into(out, x, y)``, which adds the product
of the packed terms ``x`` and ``y`` into the dict ``out`` in place (Monagan
and Pearce, CASC 2007).  ``p.addmul(a, b) == p + a * b`` runs it on a copy
of ``p``'s terms, ``*`` and ``times_linear`` call ``addmul`` with a zero
``p``, and the Billey pass runs it on term dicts of its own.  The one
exact division is ``divide_exact(p, d)``, long division in packed-key
order by a polynomial or a linear form, checked by construction: it serves
both the divided differences (by a root) and the Schubert-basis
elimination (by a bottom restriction, a product of roots).

``Polynomial.terms`` is a read-only mapping from exponent tuples to
coefficients, unpacked on read, and ``Polynomial(rank, {tuple: int})``
packs; code in this package works on the packed keys.

Each variable carries cohomological degree 2; internally we work with the
ordinary total degree ("combinatorial degree").

For type A display there is a second coordinate system ``y1..y{N+1}``
related by ``a_i = y_{i+1} - y_i``; rendering supports both.  One linear
substitution, ``_substitute``, serves both the Weyl action (``act``) and
the y rewrite: it substitutes one variable at a time, merging the terms
after each.  Polynomials are immutable values and every operation is pure.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping
from functools import cache, reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import NotDivisibleError

__all__ = [
    "Polynomial",
    "act",
    "divide_exact",
    "is_divisible",
    "render",
    "poly_to_json",
    "poly_from_json",
]

# -- packed monomials ----------------------------------------------------------

_W = 17  # bits per variable: 16 exponent bits and one guard bit
_MAX_EXP = (1 << (_W - 1)) - 1
_FIELD = (1 << _W) - 1


@cache
def _guard(rank: int) -> int:
    """The guard bits of the first ``rank`` fields."""
    return sum(1 << (_W * k + _W - 1) for k in range(rank))


def _pack(exp, rank: int) -> int:
    if len(exp) != rank:
        raise ValueError(f"exponent vector {tuple(exp)} does not have length {rank}")
    key = 0
    for k, x in enumerate(exp):
        if not 0 <= x <= _MAX_EXP:
            raise ValueError(f"exponent {x} is outside the range 0..{_MAX_EXP}")
        key |= x << (_W * k)
    return key


def _unpack(key: int, rank: int) -> tuple[int, ...]:
    if key >> (_W * rank) or key & _guard(rank):
        raise OverflowError(f"packed monomial {key:#x} is out of range for rank {rank}")
    return tuple((key >> (_W * k)) & _FIELD for k in range(rank))


def _degree(key: int) -> int:
    d = 0
    while key:
        d += key & _FIELD
        key >>= _W
    return d


def _make(rank: int, terms: dict[int, int]) -> "Polynomial":
    """A polynomial over packed terms, which must have nonzero coefficients."""
    p = object.__new__(Polynomial)
    p.rank = rank
    p._t = terms
    p._hash = None
    return p


def _checked(rank: int, terms: dict[int, int]) -> "Polynomial":
    """``_make`` over ``terms`` less their zero coefficients, once no exponent left its field."""
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    if terms and reduce(or_, terms) & _guard(rank):
        raise OverflowError(f"an exponent exceeds {_MAX_EXP}")
    return _make(rank, terms)


def _add_terms(out: dict[int, int], terms: dict[int, int], sign: int = 1) -> dict[int, int]:
    """Add ``sign * terms`` into the packed terms ``out`` in place; returns ``out``."""
    get = out.get
    for e, c in terms.items():
        s = get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _mul_into(out: dict[int, int], x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """Add the product of the packed terms ``x`` and ``y`` into ``out`` in place; returns ``out``.

    A coefficient that cancels stays in ``out`` as a zero, and no key is
    checked for a set guard bit: ``_checked`` filters and checks once.
    """
    if len(x) < len(y):
        x, y = y, x
    get = out.get
    y = list(y.items())
    for e1, c1 in x.items():
        for e2, c2 in y:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, keyed by exponent tuples."""

    __slots__ = ("_t", "_rank")

    def __init__(self, terms: dict[int, int], rank: int):
        self._t = terms
        self._rank = rank

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        rank = self._rank
        return (_unpack(k, rank) for k in self._t)

    def __getitem__(self, exp) -> int:
        try:
            return self._t[_pack(exp, self._rank)]
        except (ValueError, TypeError):
            raise KeyError(exp) from None

    def values(self):
        return self._t.values()


class Polynomial:
    """An immutable sparse polynomial with integer coefficients."""

    __slots__ = ("rank", "_t", "_hash")

    def __init__(self, rank: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.rank = rank
        self._t = {_pack(e, rank): c for e, c in terms.items() if c} if terms else {}
        self._hash = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """The terms as a read-only mapping from exponent tuples to coefficients."""
        return _Terms(self._t, self.rank)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return _make(rank, {})

    @classmethod
    def one(cls, rank: int) -> "Polynomial":
        return _make(rank, {0: 1})

    @classmethod
    def integer(cls, rank: int, c: int) -> "Polynomial":
        c = int(c)
        return _make(rank, {0: c} if c else {})

    @classmethod
    def variable(cls, rank: int, i: int) -> "Polynomial":
        """The simple-root variable ``a_i`` (1-based)."""
        if not 1 <= i <= rank:
            raise IndexError(f"variable index {i} out of range 1..{rank}")
        return _make(rank, {1 << (_W * (i - 1)): 1})

    @classmethod
    def linear(cls, coords: Sequence[int]) -> "Polynomial":
        return _make(len(coords), {1 << (_W * k): int(f) for k, f in enumerate(coords) if f})

    # -- basic protocol --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        return (
            isinstance(other, Polynomial)
            and self.rank == other.rank
            and self._t == other._t
        )

    def __hash__(self) -> int:
        if self._hash is None:  # a constant hashes as the int it equals
            t = self._t
            self._hash = hash(t.get(0, 0)) if t.keys() <= {0} else hash((self.rank, frozenset(t.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({render(self)!r})"

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise ValueError("polynomial rank mismatch")
            return other
        if isinstance(other, int):
            return Polynomial.integer(self.rank, other)
        return NotImplemented

    def _merge(self, other, sign: int) -> "Polynomial":
        """``self + sign * other``, without building ``sign * other``."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.rank, _add_terms(dict(self._t), other._t, sign))

    def __add__(self, other) -> "Polynomial":
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.rank, {e: -c for e, c in self._t.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._merge(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def addmul(self, a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """``self + a * b``, accumulated in one pass into a copy of ``self``'s terms."""
        if a.rank != self.rank or b.rank != self.rank:
            raise ValueError("polynomial rank mismatch")
        return _checked(self.rank, _mul_into(dict(self._t), a._t, b._t))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.rank, {}).addmul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = Polynomial.one(self.rank)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: int) -> "Polynomial":
        return _make(self.rank, {e: c * v for e, v in self._t.items()} if c else {})

    def times_linear(self, coords: Sequence[int]) -> "Polynomial":
        """Multiply by a linear form."""
        return _make(self.rank, {}).addmul(self, Polynomial.linear(coords))

    # -- degrees ----------------------------------------------------------

    def monomial_degrees(self) -> set[int]:
        return set(map(_degree, self._t))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max(map(_degree, self._t), default=-1)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous/zero."""
        degs = self.monomial_degrees()
        if len(degs) != 1:
            return None
        return degs.pop()

    def constant_term(self) -> int:
        """The coefficient of the monomial 1."""
        return self._t.get(0, 0)

    def max_abs_coeff(self) -> int:
        return max(map(abs, self._t.values()), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms by descending degree, the highest variable deciding ties."""
        rank = self.rank
        rows = [(sum(exp := _unpack(e, rank)), e, exp, c) for e, c in self._t.items()]
        rows.sort(reverse=True)  # keys are distinct, so no tie reaches exp
        return [(exp, c) for _, _, exp, c in rows]


# -- Weyl action -------------------------------------------------------------


def act(w, p: Polynomial) -> Polynomial:
    """Apply a Weyl group element to a polynomial by linear substitution.

    ``w`` is anything with a ``mat`` attribute (a ``WeylElement``); this is
    a ring homomorphism.
    """
    mat = w.mat
    if len(mat) != p.rank:
        raise ValueError("rank mismatch between element and polynomial")
    return _substitute(p, list(zip(*mat)), p.rank)


# -- exact division ------------------------------------------------------------


def divide_exact(p: Polynomial, d: Polynomial | Sequence[int]) -> Polynomial:
    """Return q with ``q * d == p`` for a nonzero divisor ``d``.

    ``d`` is a polynomial of ``p``'s rank or the coordinates of a linear
    form.  Raises :class:`NotDivisibleError` when no such integer polynomial
    exists; in class arithmetic that signals a violated GKM condition
    upstream and must abort the computation.

    Long division in packed-key order (Monagan and Pearce, CASC 2007), which
    is a monomial order: the remainder starts as a copy of ``p``'s terms and
    its largest key ``t`` is popped off a sorted list, over and over.  With
    ``L`` the largest key of ``d``, ``t - L`` must not borrow (no guard bit
    set, not negative) and the coefficient must be a multiple of ``d``'s at
    ``L``; that gives a quotient term, and subtracting it times ``d`` touches
    only keys below ``t``.  ``p`` divides exactly when the remainder empties,
    so the quotient returned is checked by construction.
    """
    if not isinstance(d, Polynomial):
        d = Polynomial.linear(d)
    if d.rank != p.rank:
        raise ValueError("polynomial rank mismatch")
    if not d._t:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = max(d._t)
    c = d._t[lead]
    rest = [(e - lead, y) for e, y in d._t.items() if e != lead]  # key offsets from the lead
    guard = _guard(p.rank)
    remainder = dict(p._t)
    keys = sorted(remainder)  # every key of the remainder, once
    quotient: dict[int, int] = {}
    while keys:
        t = keys.pop()
        x = remainder.pop(t)
        if not x:
            continue
        m = t - lead
        if m < 0 or m & guard:  # t - L borrowed
            raise NotDivisibleError("a term is not a multiple of the divisor's leading monomial")
        x, r = divmod(x, c)
        if r:
            raise NotDivisibleError(f"a coefficient is not a multiple of {c}")
        quotient[m] = x
        for off, y in rest:
            e = t + off
            if e in remainder:
                remainder[e] -= x * y
            else:
                remainder[e] = -x * y
                insort(keys, e)
    return _make(p.rank, quotient)


def is_divisible(p: Polynomial, d: Polynomial | Sequence[int]) -> bool:
    """True iff :func:`divide_exact` would succeed; never raises."""
    try:
        divide_exact(p, d)
        return True
    except NotDivisibleError:
        return False


# -- rendering ---------------------------------------------------------------


def _substitute(p: Polynomial, images, rank: int) -> Polynomial:
    """``p`` with variable ``j`` replaced by the linear form ``images[j]``, in ``rank`` variables.

    One variable at a time: the terms are keyed by (the substituted part, in
    ``rank`` variables, and the rest of ``p``'s key), so the terms that
    agree on both merge after each variable and the next one expands them
    once.  The powers of each image are built once, each from the last by
    ``_mul_into``.  A field that fills its 16 bits sets its guard bit
    without carrying into the next field, so checking the guard bits after
    each variable keeps every later key exact.
    """
    guard = _guard(rank)
    terms = {(0, e): c for e, c in p._t.items()}
    for j, image in enumerate(images):
        shift = _W * j
        powers = [{0: 1}]  # powers[x] is the terms of images[j] ** x
        lin = Polynomial.linear(image)._t
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (s, e), c in terms.items():
            x = (e >> shift) & _FIELD
            if x:
                while len(powers) <= x:
                    powers.append(_mul_into({}, powers[-1], lin))
                e -= x << shift
                for f, d in powers[x].items():
                    key = (s + f, e)
                    out[key] = get(key, 0) + c * d
            else:
                out[s, e] = get((s, e), 0) + c
        if out and reduce(or_, [s for s, _ in out]) & guard:
            raise OverflowError(f"an exponent exceeds {_MAX_EXP}")
        terms = out
    return _checked(rank, {s: c for (s, _), c in terms.items()})


def _to_y(p: Polynomial) -> Polynomial:
    """Rewrite in the y-coordinates (n = rank + 1 variables), a_i = y_{i+1} - y_i."""
    n = p.rank + 1
    images = [tuple(int(k == i + 1) - int(k == i) for k in range(n)) for i in range(p.rank)]
    return _substitute(p, images, n)


def _render_terms(p: Polynomial, varname: str) -> str:
    if not p:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for j, x in enumerate(e):
            if x == 1:
                factors.append(f"{varname}{j + 1}")
            elif x > 1:
                factors.append(f"{varname}{j + 1}^{x}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    s = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        s += f" {sign} {body}"
    return s


def render(p: Polynomial, basis: str = "alpha") -> str:
    """Deterministic human-readable form.

    >>> a1 = Polynomial.variable(2, 1)
    >>> a2 = Polynomial.variable(2, 2)
    >>> render(a1 + a2, "y")
    'y3 - y1'
    >>> render(a1, "y")
    'y2 - y1'
    """
    if basis == "alpha":
        return _render_terms(p, "a")
    if basis == "y":
        return _render_terms(_to_y(p), "y")
    raise ValueError(f"unknown basis {basis!r}")


# -- JSON --------------------------------------------------------------------


def poly_to_json(p: Polynomial) -> list[dict]:
    """Canonical JSON form: a list of {"coeff", "exp"} in the alpha basis."""
    return [{"coeff": c, "exp": list(e)} for e, c in p.sorted_terms()]


def poly_from_json(data: Iterable[dict], rank: int) -> Polynomial:
    """Inverse of :func:`poly_to_json`.

    ``ValueError`` names a term that is not an int ``coeff`` with a list of int
    ``exp`` in range: a bool, float or string is refused, never truncated.
    """
    terms: dict[int, int] = {}
    for item in data:
        coeff, exp = (item.get("coeff"), item.get("exp")) if isinstance(item, dict) else (None, None)
        if type(coeff) is not int or not isinstance(exp, (list, tuple)) or any(type(x) is not int for x in exp):
            raise ValueError(f"polynomial term {item!r} needs an int 'coeff' and a list of int 'exp'")
        e = _pack(exp, rank)
        terms[e] = terms.get(e, 0) + coeff
    return _make(rank, {e: c for e, c in terms.items() if c})
