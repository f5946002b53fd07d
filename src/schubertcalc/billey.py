"""Fixed-point restrictions of Schubert classes via the subword formula.

The restriction ``S_v|_w`` is computed from one fixed reduced word
``I = (i_1, ..., i_l)`` of ``w``: it is the sum, over reduced subwords of
``I`` multiplying to ``v``, of the products of *prefix-reflected* simple
roots; choosing the letter at position ``k`` contributes the factor

    (r_{i_1} ... r_{i_{k-1}}) . alpha_{i_k}

where the prefix product runs over all earlier letters of ``I`` whether or
not they were chosen.  The result does not depend on the choice of ``I``
(tested exhaustively, not assumed), each summand is a product of positive
roots, and ``S_v|_w`` vanishes unless ``v <= w``.

Rather than scanning all ``2^l`` subwords, the computation is a
left-to-right pass over ``I`` keeping one accumulated polynomial per
partial subword product: after a prefix ``w'`` this is the column
``{v: S_v|_{w'}}``, and one more letter gives (Billey, Duke Math. J. 96, 1999)

    S_v|_{w' r_i} = S_v|_{w'} + [v r_i < v] (w' . alpha_i) S_{v r_i}|_{w'}.

:func:`restrict_all`, :func:`schubert_class` and :func:`restrict` read a
shared per-group table: the canonical word of ``w`` extends that of its
prefix, so each column is one letter on the prefix's column, sharing its
unchanged polynomials.  A Schubert class is one row across all columns,
so :func:`schubert_class` reads them from one per-group list in canonical
order, filled from the table on the group's first class.  :func:`restrict`
with an explicit ``word`` (an independent check of the table), and without
one when the table lacks the column (as for :func:`base_constant`), runs a
Bruhat-pruned pass instead: it keeps only the states ``q <= v``, adds into
term dicts it owns in place, and carries the prefix's images of the simple
roots along the word, so it builds no matrix and returns ``S_v|_w`` alone.
A letter changes only the images that the Cartan matrix's row for it
touches, and the pass stops after the last letter in ``v``'s support, since
no later letter moves a state ``q <= v``.

Two special values get their own entry points: the bottom restriction
``S_w|_w`` (a product of positive roots, by the closed formula) and the
restriction at the longest element, the recursive engine's base case,
which that engine's value memo keeps, so :func:`base_constant` keeps none.

All functions are pure; per-group memo tables are filled idempotently.
"""

from __future__ import annotations

from .polyring import Polynomial, _checked, _mul_into
from .rootsys import (
    Root, RootSystem, WeylElement, _first_negative, _per_group, _same_group, bruhat_leq, word_to_element,
)
from .gkm import GkmClass

__all__ = [
    "restrict",
    "restrict_all",
    "bottom_factors",
    "bottom_restriction",
    "schubert_class",
    "base_constant",
]


def _extend(acc: dict, prefix: WeylElement, k: int) -> dict:
    """The column at ``prefix * r_{k+1} > prefix``, from the column ``acc`` at ``prefix``.

    A copy: the table keeps ``acc``, and the new column shares its
    unchanged polynomials, so nothing is added in place.
    """
    rs = prefix.rs
    factor = Polynomial.linear(prefix.act(rs.simple_roots[k]))
    zero = Polynomial.zero(rs.rank)
    nxt = dict(acc)
    for p, poly in acc.items():
        if p.x[k] > 0:  # p * r_{k+1} > p
            q = p._step(k)
            nxt[q] = nxt.get(q, zero).addmul(poly, factor)
    return nxt


def _billey_pass(w: WeylElement, v: WeylElement, word=None) -> Polynomial:
    """``S_v|_w`` from one pass over a reduced word of ``w``, by default its canonical one.

    Only the states ``q <= v`` are kept, each with a term dict of its own
    that the pass adds into in place: within one letter the sources
    (``x[k] > 0``) and the targets (``x[k] < 0``) are disjoint, so nothing is
    read after it is written.  ``cols[j]`` is ``prefix . alpha_{j+1}``, and
    ``prefix r_k . alpha_j = cols[j] - A[k][j] cols[k]`` carries it along
    the word, so no matrix is built; only the columns ``j`` with
    ``A[k][j] != 0`` change.  A letter outside ``v``'s support moves no
    state ``q <= v``, so the pass stops after the last letter inside it.
    """
    rs = w.rs
    cols = list(rs.simple_roots)
    acc = {rs.identity: Polynomial.one(rs.rank)._t}  # never a target: only read
    support = set(v.reduced_word())
    word = w.reduced_word() if word is None else word
    end = max((n + 1 for n, i in enumerate(word) if i in support), default=0)
    for i in word[:end]:
        k = i - 1
        ck = cols[k]
        if i in support:
            factor = Polynomial.linear(ck)._t
            for q, t in [(p._step(k), t) for p, t in acc.items() if p.x[k] > 0]:
                if bruhat_leq(q, v):
                    _mul_into(acc.setdefault(q, {}), t, factor)
        for j, a in rs._row_support[k]:
            cols[j] = [c - a * b for c, b in zip(cols[j], ck)]
    return _checked(rs.rank, acc.get(v, {}))


def restrict(v: WeylElement, w: WeylElement, word=None) -> Polynomial:
    """The restriction ``S_v|_w``; zero unless ``v <= w``.

    ``word`` optionally overrides the reduced word of ``w`` used for the
    computation (it must be reduced and multiply to ``w``); the result is
    the same for every choice.
    """
    rs = _same_group(v, w)
    if word is not None:
        word = tuple(word)
        target = word_to_element(rs, word)
        if len(word) != target.length:
            raise ValueError("word is not reduced")
        if target != w:
            raise ValueError("word does not multiply to the requested element")
        return _billey_pass(w, v, word)
    if not bruhat_leq(v, w):
        return Polynomial.zero(rs.rank)
    col = rs.cache("restrict_all").get(w)
    return _billey_pass(w, v) if col is None else col[v]


@_per_group("restrict_all")
def restrict_all(w: WeylElement) -> dict[WeylElement, Polynomial]:
    """The column ``{v: S_v|_w for v <= w}``, from the shared table.

    The canonical word of ``w`` ends in its least descent, so the column is
    one letter on its prefix's column, which fills first.
    """
    if w.length == 0:
        return {w: Polynomial.one(w.rs.rank)}
    k = _first_negative(w.x)
    prefix = w._step(k)
    return _extend(restrict_all(prefix), prefix, k)


def bottom_factors(w: WeylElement) -> list[Root]:
    """The positive roots beta with ``r_beta w < w``, in canonical order.

    Their product is the bottom restriction ``S_w|_w``.
    """
    rs = w.rs
    x = w.inverse().x  # w(rho); beta is a factor iff <w(rho), beta_check> < 0
    return [b for b in rs.positive_roots if sum(d * c for d, c in zip(rs._coroots[b], x)) < 0]


@_per_group("bottom")
def bottom_restriction(w: WeylElement) -> Polynomial:
    """``S_w|_w`` as a polynomial: the product of the bottom factors."""
    got = Polynomial.one(w.rs.rank)
    for beta in bottom_factors(w):
        got = got.times_linear(beta)
    return got


@_per_group("schubert")
def schubert_class(w: WeylElement) -> GkmClass:
    """The Schubert class of ``w`` as a GKM class; memoized per group.

    Supported on ``{v : v >= w}``, homogeneous of combinatorial degree
    ``l(w)``, with bottom value :func:`bottom_restriction`.
    """
    rs = w.rs
    zero = Polynomial.zero(rs.rank)
    return GkmClass(rs, [col.get(w, zero) for col in _columns(rs)])


def _columns(rs: RootSystem) -> list[dict[WeylElement, Polynomial]]:
    """Every column :func:`restrict_all` at every element, in canonical order.

    One list per group, filled once (and idempotently) from the table, so a
    Schubert class is one read of each column and no call per element.
    """
    cols = rs.caches.get("columns")
    if cols is None:
        cols = rs.caches["columns"] = [restrict_all(v) for v in rs.elements()]
    return cols


def base_constant(v: WeylElement) -> Polynomial:
    """The restriction of ``S_v`` at the longest element; kept in no table.

    This is ``c_{w0, v}^{w0}``, the engine's base case, which its value memo
    holds; a trace replay checks each base leaf against it.
    """
    return restrict(v, v.rs.longest_element())
