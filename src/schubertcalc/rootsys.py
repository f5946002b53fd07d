"""Finite crystallographic root systems and their Weyl groups.

Everything is generated from an integer Cartan matrix ``A`` with the
convention ``A[i][j] = <alpha_j, alpha_i_check>``, so that the simple
reflection ``r_i`` acts on a vector ``x`` written in simple-root
coordinates by

    r_i(x) = x - (sum_j A[i][j] * x[j]) * alpha_i.

A Weyl group element ``w`` is stored as the weight ``x = w^-1(rho)`` in
fundamental-weight coordinates (Casselman's representation), which gives
one uniform code path for every finite type: ``w * r_i`` is
``x - x_i * alpha_i`` with ``alpha_i`` written in weights (column ``i`` of
``A``), ``i`` is a right descent exactly when ``x_i < 0``, and lengths move
by one with each such step.  ``alpha_i`` has at most four nonzero weight
coordinates, and a step touches only those.  The hot walks (Bruhat
comparison, the recurrence, Billey passes) step on ``x`` this way rather
than multiplying by one-letter words.  Nothing here needs the whole group:
``w_0`` is the element with ``x = -rho`` and ``|W|`` comes from the root
heights, so only :meth:`RootSystem.elements` enumerates.  The matrix of
``w`` on the simple-root basis (column ``j`` is ``w(alpha_j)``) serves the
action on roots and the canonical enumeration order (length, then matrix
key).  The enumeration gives each element it finds its matrix from the
parent that found it; any other element gets its matrix on first use,
along a chain of steps.  Either way one step, from ``w`` to ``w * r_i``,
rebuilds only the entries it changes.  Type A additionally gets a
conversion layer to one-line permutation notation, with the conventions

    alpha_i = y_{i+1} - y_i,        w . y_i = y_{w(i)},

under which right multiplication by ``r_i`` swaps positions ``i`` and
``i+1`` of the one-line word and the length of ``w`` is its inversion
count.

A root is a plain tuple of its simple-root coordinates.  Elements are
interned per root system by ``x`` (with ``dict.setdefault``, so each stays
unique), so they compare and hash by identity: equal elements are the same
object, and elements of different root systems are never equal.

``RootSystem`` and ``WeylElement`` are immutable after construction and
all operations here are pure, so instances can be shared between threads;
internal caches and derived fields are filled idempotently (a race may
duplicate work but never yields a torn value).
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .errors import (
    GroupTooLargeError,
    MixedRootSystemsError,
    NonFiniteTypeError,
    UnknownTypeError,
)

__all__ = [
    "RootSystem",
    "WeylElement",
    "build",
    "named",
    "perm_to_element",
    "word_to_element",
    "covers",
    "bruhat_leq",
    "all_reduced_words",
    "coeff_pairing",
]

MAX_ROOTS = 10_000
MAX_GROUP = 50_000

Matrix = tuple[tuple[int, ...], ...]
Root = tuple[int, ...]  # simple-root coordinates


def _mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    rng = range(len(v))
    return tuple(sum(m[i][j] * v[j] for j in rng) for i in rng)


def _identity_mat(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class WeylElement:
    """A Weyl group element, stored as the weight ``x = w^-1(rho)``.

    ``x`` is written in fundamental-weight coordinates; it determines ``w``
    because ``rho`` is regular.  Right multiplication by ``r_i`` reflects
    ``x``, ``i`` is a right descent exactly when ``x[i-1] < 0``, and each
    such step moves the length by one.  The reduced word, the inverse and
    the matrix on the simple-root basis are derived on first use.

    Elements are interned per root system by ``x`` and compare by identity;
    construct them through ``RootSystem`` / group operations, never directly.
    """

    __slots__ = ("rs", "x", "length", "_next", "_word", "_inv", "_mat", "_oneline")

    def __init__(self, rs: "RootSystem", x: tuple[int, ...], length: int):
        self.rs = rs
        self.x = x
        self.length = length
        self._next: list[WeylElement | None] = [None] * rs.rank  # w * r_{k+1}
        self._word = None
        self._inv = None
        self._mat = None
        self._oneline = None

    def _step(self, k: int) -> "WeylElement":
        """``self * r_{k+1}``: ``x - x[k] * alpha_{k+1}``, with alpha in weight coordinates.

        Only the nonzero entries of ``alpha_{k+1}`` (at most four) are touched.
        """
        got = self._next[k]
        if got is None:
            c = self.x[k]
            y = list(self.x)
            for j, a in self.rs._alpha_support[k]:
                y[j] -= c * a
            got = self.rs._element(tuple(y), self.length + (1 if c > 0 else -1))
            self._next[k] = got
            got._next[k] = self
        return got

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise MixedRootSystemsError("cannot multiply elements of different root systems")
        w = self
        for i in other.reduced_word():
            w = w._step(i - 1)
        return w

    def inverse(self) -> "WeylElement":
        inv = self._inv
        if inv is None:
            inv = self.rs.identity
            for i in reversed(self.reduced_word()):
                inv = inv._step(i - 1)
            self._inv = inv
            inv._inv = self
        return inv

    @property
    def mat(self) -> Matrix:
        """Integer matrix on the simple-root basis; column ``j`` is ``w(alpha_j)``.

        :meth:`RootSystem.elements` fills it for every element it finds, from
        the parent that found it.  Otherwise it is built once, from a
        neighbour ``w * r_i`` that already has its matrix (else down the least
        right descents), by :meth:`RootSystem._mat_step`.
        """
        if self._mat is None:
            chain = []
            w = self
            while w._mat is None:
                k = next(
                    (k for k, u in enumerate(w._next) if u is not None and u._mat is not None),
                    None,
                )
                if k is None:
                    k = _first_negative(w.x)
                chain.append((w, k))
                w = w._step(k)
            m = w._mat
            for u, k in reversed(chain):
                m = u._mat = self.rs._mat_step(m, k)
        return self._mat

    def act(self, root: Root) -> Root:
        return _mat_vec(self.mat, root)

    def is_identity(self) -> bool:
        return self.length == 0

    def right_ascent(self, i: int) -> bool:
        """True iff l(w * r_i) > l(w), for a 1-based simple index."""
        self.rs._check_index(i)
        return self.x[i - 1] > 0

    def right_descents(self) -> list[int]:
        return [k + 1 for k, c in enumerate(self.x) if c < 0]

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: greedily strip the least right descent.

        >>> W = named("A2")
        >>> W.longest_element().reduced_word()
        (1, 2, 1)
        """
        if self._word is None:
            chain = []
            w = self
            while w._word is None:
                k = _first_negative(w.x)
                chain.append((w, k))
                w = w._step(k)
            word = w._word
            for u, k in reversed(chain):
                word = word + (k + 1,)
                u._word = word
        return self._word

    def one_line(self) -> tuple[int, ...]:
        """One-line permutation notation (type A only), values in 1..n."""
        if self._oneline is None:
            rs = self.rs
            if not rs.is_type_a:
                raise UnknownTypeError("one-line notation requires a type A root system")
            perm = list(range(1, rs.rank + 2))
            for i in self.reduced_word():
                perm[i - 1], perm[i] = perm[i], perm[i - 1]
            self._oneline = tuple(perm)
        return self._oneline

    def describe(self) -> str:
        """Compact human-readable form: one-line word up to A8, else a word in s_i."""
        if self.rs.one_line_labels:
            return "".join(str(d) for d in self.one_line())
        if self.length == 0:
            return "e"
        return "*".join(f"s{i}" for i in self.reduced_word())

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def _first_negative(x: tuple[int, ...]) -> int:
    """The 0-based least right descent of the element with weight ``x``."""
    for k, c in enumerate(x):
        if c < 0:
            return k
    raise ValueError("the identity has no right descent")


def _canonical_key(w: WeylElement) -> tuple[int, Matrix]:
    """The canonical enumeration order, length then matrix; it needs no enumeration."""
    return w.length, w.mat


def _same_group(w: WeylElement, *others: WeylElement) -> "RootSystem":
    """The root system of ``w``; :class:`MixedRootSystemsError` unless ``others`` share it."""
    rs = w.rs
    for x in others:
        if x.rs is not rs:
            raise MixedRootSystemsError("elements of different root systems")
    return rs


def _per_group(name: str):
    """Memoize a function of one element in its group's table ``name``; fills are idempotent."""
    def decorate(fn):
        @functools.wraps(fn)
        def memoized(w):
            table = w.rs.cache(name)
            if w not in table:
                table[w] = fn(w)
            return table[w]
        return memoized
    return decorate


class RootSystem:
    """A finite root system with its Weyl group machinery.

    Use :func:`build` or :func:`named` to construct one.
    """

    def __init__(self, cartan: Matrix, type_label: str | None = None):
        self.cartan = cartan
        self.rank = len(cartan)
        self.type_label = type_label
        self._validate_cartan()
        self.is_type_a = cartan == _cartan_a(self.rank)
        # elements display and parse as one-line strings of one digit per position
        self.one_line_labels = self.is_type_a and self.rank + 1 <= 9
        self.simple_roots = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        # alpha_k in fundamental-weight coordinates is column k of the Cartan matrix;
        # the nonzero entries (j, a) of that column and of row k serve the sparse steps
        self._alpha_support = [
            tuple((j, row[k]) for j, row in enumerate(cartan) if row[k]) for k in range(self.rank)
        ]
        self._row_support = [tuple((j, a) for j, a in enumerate(row) if a) for row in cartan]
        self._close_roots()
        self._root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self._order = _weyl_order(self.positive_roots)
        self._pool: dict[tuple[int, ...], WeylElement] = {}
        self.identity = self._element((1,) * self.rank, 0)
        self.identity._word = ()
        self.identity._mat = _identity_mat(self.rank)
        self._simple_refl = [self.identity._step(k) for k in range(self.rank)]
        self._refl_elements: dict[int, WeylElement] = {}
        self.caches: dict[str, dict] = {"bruhat": {}}

    # -- construction ------------------------------------------------------

    def _validate_cartan(self):
        A = self.cartan
        n = self.rank
        if n == 0 or any(len(row) != n for row in A):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if A[i][i] != 2:
                raise ValueError("Cartan matrix must have 2 on the diagonal")
            for j in range(n):
                if i != j:
                    if A[i][j] > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (A[i][j] == 0) != (A[j][i] == 0):
                        raise ValueError("Cartan zero pattern must be symmetric")

    def _close_roots(self):
        # r_k(x) = x - <x, alpha_k_check> alpha_k moves coordinate k alone; on coroot
        # coordinates the pairing uses column k of the Cartan matrix instead of row k,
        # and each sum runs over the nonzero entries alone
        info: dict[Root, tuple[tuple[int, ...], tuple[Root, int] | None]] = {
            c: (c, None) for c in self.simple_roots
        }
        frontier = list(self.simple_roots)
        while frontier:
            new_frontier = []
            for coords in frontier:
                height = sum(coords)
                for k, row in enumerate(self._row_support):
                    c = coords[k] - sum([a * coords[j] for j, a in row])
                    # the image is negative only for a multiple of alpha_k, and of
                    # mixed sign if any other coordinate is left
                    if c < 0:
                        if coords[k] != height:
                            raise NonFiniteTypeError("Cartan data does not generate a consistent root system")
                        continue
                    img = coords[:k] + (c,) + coords[k + 1:]
                    if img not in info:
                        co = info[coords][0]
                        d = co[k] - sum([a * co[j] for j, a in self._alpha_support[k]])
                        info[img] = (co[:k] + (d,) + co[k + 1:], (coords, k + 1))
                        new_frontier.append(img)
                        if len(info) > MAX_ROOTS:
                            raise NonFiniteTypeError(
                                f"root closure exceeded {MAX_ROOTS} roots; "
                                "the Cartan matrix is not of finite type"
                            )
            frontier = new_frontier
        self.positive_roots = sorted(info, key=lambda c: (sum(c), c))
        self._coroots = {c: info[c][0] for c in self.positive_roots}
        self._root_parent = {c: info[c][1] for c in self.positive_roots}

    # -- elements ----------------------------------------------------------

    def _element(self, x: tuple[int, ...], length: int) -> WeylElement:
        w = self._pool.get(x)
        if w is None:
            w = self._pool.setdefault(x, WeylElement(self, x, length))
        return w

    def _check_index(self, i: int):
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range 1..{self.rank}")

    def _mat_step(self, m: Matrix, k: int) -> Matrix:
        """The matrix of ``w * r_{k+1}`` from the matrix ``m`` of ``w``.

        Column ``j`` loses ``A[k][j]`` times column ``k``, so only the rows
        with a nonzero entry in column ``k`` change, and in them only the
        columns where row ``k`` of ``A`` is nonzero.
        """
        support = self._row_support[k]
        out = []
        for row in m:
            c = row[k]
            if c:
                row = list(row)
                for j, a in support:
                    row[j] -= c * a
                row = tuple(row)
            out.append(row)
        return tuple(out)

    def simple_reflection(self, i: int) -> WeylElement:
        self._check_index(i)
        return self._simple_refl[i - 1]

    def simple_root(self, i: int) -> Root:
        self._check_index(i)
        return self.simple_roots[i - 1]

    def reflection(self, beta: Root) -> WeylElement:
        """The reflection through a positive root, as a group element.

        Built by conjugation along the closure tree (if ``beta = r_i(beta')``
        then ``r_beta = r_i r_beta' r_i``), independently of the coroot
        pairing, so the two can cross-check each other.
        """
        idx = self._root_index[beta]
        w = self._refl_elements.get(idx)
        if w is None:
            parent = self._root_parent[beta]
            if parent is None:
                w = self._simple_refl[beta.index(1)]  # a simple root
            else:
                root, i = parent
                r = self._simple_refl[i - 1]
                w = r * self.reflection(root) * r
            self._refl_elements[idx] = w
        return w

    def elements(self) -> list[WeylElement]:
        """All group elements, by length then matrix key; identity first, w_0 last."""
        cached = self.caches.get("elements")
        if cached is None:
            if self._order > MAX_GROUP:
                raise GroupTooLargeError(
                    f"Weyl group has {self._order} > {MAX_GROUP} elements"
                )
            out = [self.identity]
            level = [self.identity]
            while level:
                # ascents of one length all land in the next; a dict keeps them
                # once, each with its matrix from the parent that found it
                nxt = {}
                for w in level:
                    for k, c in enumerate(w.x):
                        if c > 0:
                            u = w._step(k)
                            nxt[u] = None
                            if u._mat is None:
                                u._mat = self._mat_step(w._mat, k)
                level = sorted(nxt, key=_canonical_key)
                out.extend(level)
            # the index goes first: a reader that finds "elements" finds the index too
            self.caches["element_index"] = {w: k for k, w in enumerate(out)}
            self.caches["elements"] = out
            cached = out
        return cached

    def element_index(self, w: WeylElement) -> int:
        self.elements()
        return self.caches["element_index"][w]

    def order(self) -> int:
        """``|W|``, from the positive roots alone (see :func:`_weyl_order`)."""
        return self._order

    def longest_element(self) -> WeylElement:
        """``w_0``, found without enumerating: ``w_0^-1(rho) = -rho``."""
        return self._element((-1,) * self.rank, len(self.positive_roots))

    # -- caches and display ------------------------------------------------

    def cache(self, name: str) -> dict:
        return self.caches.setdefault(name, {})

    def __repr__(self) -> str:
        label = self.type_label or f"rank {self.rank}"
        return f"RootSystem({label}, positive_roots={len(self.positive_roots)})"


def _weyl_order(positive_roots: list[Root]) -> int:
    """``|W| = prod (m_i + 1)`` over the exponents ``m_i``.

    The exponents form the partition dual to the positive-root height
    counts: the number of exponents ``>= k`` is the number of positive
    roots of height ``k`` (Kostant).
    """
    per_height = Counter(map(sum, positive_roots))
    order = 1
    for k, n in per_height.items():
        order *= (k + 1) ** (n - per_height[k + 1])
    return order


# -- named Cartan matrices --------------------------------------------------


def _cartan_a(n: int) -> Matrix:
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def _cartan_b(n: int) -> Matrix:
    A = [list(row) for row in _cartan_a(n)]
    A[n - 1][n - 2] = -2  # alpha_n short
    return tuple(tuple(row) for row in A)


def _cartan_c(n: int) -> Matrix:
    A = [list(row) for row in _cartan_a(n)]
    A[n - 2][n - 1] = -2  # alpha_n long
    return tuple(tuple(row) for row in A)


def _cartan_d(n: int) -> Matrix:
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        A[i][i + 1] = A[i + 1][i] = -1
    A[n - 3][n - 1] = A[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in A)


_CARTAN_G2: Matrix = ((2, -1), (-3, 2))
_CARTAN_F4: Matrix = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -2, 2, -1),
    (0, 0, -1, 2),
)


def build(cartan, type_label: str | None = None) -> RootSystem:
    """Build a root system from integer Cartan data.

    Raises ``ValueError`` unless ``cartan`` is a list of rows of ints (a
    bool or a float is refused) and ``type_label`` is a string or None, and
    :class:`NonFiniteTypeError` when the root closure exceeds ``MAX_ROOTS``
    (affine or indefinite input).
    """
    if not isinstance(cartan, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in cartan
    ):
        raise ValueError("Cartan data must be a list of rows of integers")
    if type_label is not None and not isinstance(type_label, str):
        raise ValueError(f"group label {type_label!r} is not a string")
    return RootSystem(tuple(map(tuple, cartan)), type_label=type_label)


def named(label: str) -> RootSystem:
    """Standard root system for a label like ``"A3"``, ``"B2"``, ``"G2"``.

    >>> named("A2").order()
    6
    """
    m = re.fullmatch(r"([ABCDFG])[_ ]?(\d+)", label.strip().upper())
    if not m:
        raise UnknownTypeError(f"unrecognized root system label: {label!r}")
    family, n = m.group(1), int(m.group(2))
    if family == "A" and 1 <= n <= 8:
        cartan = _cartan_a(n)
    elif family == "B" and 2 <= n <= 8:
        cartan = _cartan_b(n)
    elif family == "C" and 2 <= n <= 8:
        cartan = _cartan_c(n)
    elif family == "D" and 3 <= n <= 8:
        cartan = _cartan_d(n)
    elif family == "G" and n == 2:
        cartan = _CARTAN_G2
    elif family == "F" and n == 4:
        cartan = _CARTAN_F4
    else:
        raise UnknownTypeError(f"unsupported root system label: {label!r}")
    return build(cartan, type_label=f"{family}{n}")


# -- elements from one-line notation and from words -------------------------


def perm_to_element(rs: RootSystem, oneline) -> WeylElement:
    """Element of a type A system from one-line notation (values 1..n).

    Read off the word: ``x_i = <rho, w(alpha_i)_check> = w(i+1) - w(i)``, the
    signed height of ``y_{w(i+1)} - y_{w(i)}``, and the length counts inversions.

    >>> W = named("A3")
    >>> perm_to_element(W, (2, 4, 1, 3)).length
    3
    """
    if not rs.is_type_a:
        raise UnknownTypeError("one-line notation requires a type A root system")
    n = rs.rank + 1
    perm = tuple(oneline)
    for x in perm:
        if type(x) is not int:
            raise ValueError(f"permutation entry {x!r} is not an int")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{oneline!r} is not a permutation of 1..{n}")
    x = tuple(b - a for a, b in zip(perm, perm[1:]))
    inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
    return rs._element(x, inversions)


def word_to_element(rs: RootSystem, word) -> WeylElement:
    """Product of simple reflections given by a (not necessarily reduced) word."""
    w = rs.identity
    for i in word:
        if type(i) is not int:
            raise ValueError(f"word letter {i!r} is not an int")
        rs._check_index(i)
        w = w._step(i - 1)
    return w


@_per_group("covers")
def covers(w: WeylElement) -> list[tuple[WeylElement, Root]]:
    """All pairs (w', beta) with w' = w * r_beta and l(w') = l(w) + 1.

    Ordered by the canonical positive-root order (height, then coords).
    """
    rs = w.rs
    got = []
    for beta in rs.positive_roots:
        # l(w r_beta) > l(w) iff w(beta) > 0 iff <w^-1(rho), beta_check> > 0
        if sum(d * c for d, c in zip(rs._coroots[beta], w.x)) <= 0:
            continue
        wp = w * rs.reflection(beta)
        if wp.length == w.length + 1:
            got.append((wp, beta))
    return got


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Strong Bruhat order, by the lifting property (Bjorner-Brenti, GTM 231, 2.2.7).

    For the least descent ``k`` of ``w`` (its first ``x[k] < 0``), ``v <= w``
    iff ``v' <= w r_k``, with ``v' = v r_k`` if ``k`` is a descent of ``v``, else ``v``.
    Pairs with ``l(v) >= l(w)`` or ``l(v) = 0`` skip the per-group table.

    >>> W = named("A2")
    >>> bruhat_leq(W.identity, W.longest_element())
    True
    """
    if v.rs is not w.rs:
        raise MixedRootSystemsError("cannot compare elements of different root systems")
    if v.length >= w.length:
        return v is w
    if v.length == 0:
        return True
    table = v.rs.caches["bruhat"]
    got = table.get((v, w))
    if got is None:
        chain = []
        while got is None:
            chain.append((v, w))
            k = _first_negative(w.x)
            if v.x[k] < 0:
                v = v._step(k)
            w = w._step(k)
            if v.length >= w.length:
                got = v is w
            elif v.length == 0:
                got = True
            else:
                got = table.get((v, w))
        for key in chain:
            table[key] = got
    return got


@_per_group("all_words")
def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of ``w``, in a deterministic order."""
    if w.length == 0:
        return [()]
    got = []
    for i in w.right_descents():
        got.extend(word + (i,) for word in all_reduced_words(w._step(i - 1)))
    return got


def coeff_pairing(rs: RootSystem, alpha: Root, beta: Root) -> int:
    """The integer c with ``alpha - r_beta(alpha) = c * beta``.

    ``alpha`` must be simple and ``beta`` positive.  Zero is a legal value.
    This is ``<alpha_k, beta_check> = sum_i beta_check_i * A[i][k]``, read
    off the stored coroot of ``beta``, so no reflection is built.  Memoized
    per group for valid pairs only, so bad input raises every time.

    >>> W = named("A2")
    >>> coeff_pairing(W, W.simple_root(1), W.simple_root(1))
    2
    >>> coeff_pairing(W, W.simple_root(1), W.simple_root(2))
    -1
    """
    cache = rs.cache("coeff_pairing")
    key = (alpha, beta)
    got = cache.get(key)
    if got is None:
        if sorted(alpha) != [0] * (rs.rank - 1) + [1]:
            raise ValueError(f"{alpha!r} is not a simple root")
        if beta not in rs._root_index:
            raise ValueError(f"{beta!r} is not a positive root of this system")
        k = alpha.index(1)
        got = cache[key] = sum(d * row[k] for d, row in zip(rs._coroots[beta], rs.cartan))
    return got


def _chevalley_covers(w: WeylElement, alpha: Root) -> list[tuple[WeylElement, int]]:
    """Chevalley's cover terms for ``c_{-alpha} * S_w`` (Kostant-Kumar): each cover
    ``w' = w r_beta`` of ``w`` with ``m = <alpha, beta_check>`` nonzero, as ``(w', m)``
    in :func:`covers` order; ``alpha`` must be simple."""
    rs = w.rs
    return [(wp, m) for wp, beta in covers(w) if (m := coeff_pairing(rs, alpha, beta))]
