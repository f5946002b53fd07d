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

:func:`schubert_class` runs the same recurrence along a row: in canonical
order each element ``w`` after the identity is its canonical prefix
``p = w r_k`` (``k`` its least descent) and one letter, so the class of
``v`` at ``w`` comes from the classes of ``v`` and ``v r_k`` at ``p``.  A
class is built from the classes below it in right weak order alone.

:func:`restrict` reads ``v``'s class if the group has built it; otherwise,
and always for an explicit ``word`` (an independent check of the classes),
it runs the pass.  Pruned for one ``v``, the pass keeps only the states
``q <= v`` and stops after the last letter of ``v``'s support; unpruned, its
states are the column :func:`restrict_all` returns.  It adds into term
dicts it owns in place and steps a local matrix of the prefix along the
word by the one matrix step, :meth:`RootSystem._mat_step`, setting it on no
element.

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


def _billey_pass(w: WeylElement, v: WeylElement | None = None, word=None) -> dict[WeylElement, dict[int, int]]:
    """The states ``{q: packed terms of S_q|_w}`` after one pass over a reduced
    word of ``w``, by default its canonical one; with ``v``, only ``q <= v``.

    Each state's term dict is its own and is added into in place: within one
    letter the sources (``x[k] > 0``) and the targets (``x[k] < 0``) are
    disjoint.  A local matrix of the prefix steps along the word by
    :meth:`RootSystem._mat_step`, and its column ``k`` is ``prefix . alpha_{k+1}``;
    it is set on no element.  A letter outside ``v``'s support moves no state
    ``q <= v``, so a pruned pass skips it and stops after the last one inside.
    """
    rs = w.rs
    m = rs.identity.mat
    acc = {rs.identity: Polynomial.one(rs.rank)._t}  # never a target: only read
    word = w.reduced_word() if word is None else word
    support = set(word if v is None else v.reduced_word())
    end = max((n + 1 for n, i in enumerate(word) if i in support), default=0)
    for i in word[:end]:
        k = i - 1
        if i in support:
            factor = Polynomial.linear([row[k] for row in m])._t
            for q, t in [(p._step(k), t) for p, t in acc.items() if p.x[k] > 0]:
                if v is None or bruhat_leq(q, v):
                    _mul_into(acc.setdefault(q, {}), t, factor)
        m = rs._mat_step(m, k)
    return acc


def restrict(v: WeylElement, w: WeylElement, word=None) -> Polynomial:
    """The restriction ``S_v|_w``; zero unless ``v <= w``.

    ``word`` optionally overrides the reduced word of ``w`` used for the
    computation (it must be reduced and multiply to ``w``); the result is
    the same for every choice.  Without it, ``v``'s class is read if the
    group has built it.
    """
    rs = _same_group(v, w)
    if word is None:
        if not bruhat_leq(v, w):
            return Polynomial.zero(rs.rank)
        cls = rs.cache("schubert").get(v)
        if cls is not None:
            return cls.value(w)
    else:
        word = tuple(word)
        target = word_to_element(rs, word)
        if len(word) != target.length:
            raise ValueError("word is not reduced")
        if target != w:
            raise ValueError("word does not multiply to the requested element")
    return _checked(rs.rank, _billey_pass(w, v, word).get(v, {}))


def restrict_all(w: WeylElement) -> dict[WeylElement, Polynomial]:
    """The column ``{v: S_v|_w for v <= w}``: every state of one pass over the
    canonical word of ``w``; kept in no table."""
    rank = w.rs.rank
    return {v: _checked(rank, t) for v, t in _billey_pass(w).items()}


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
def schubert_class(v: WeylElement) -> GkmClass:
    """The Schubert class of ``v`` as a GKM class; memoized per group.

    Supported on ``{w : w >= v}``, homogeneous of combinatorial degree
    ``l(v)``, with bottom value :func:`bottom_restriction`.  Its value at
    ``w = p r_k`` is ``S_v|_p + [v r_k < v] (p . alpha_k) S_{v r_k}|_p``, so
    the classes of ``v r_k`` for the descents ``k`` of ``v`` are built first.
    """
    rs = v.rs
    lower = [schubert_class(v._step(k)).values if c < 0 else None for k, c in enumerate(v.x)]
    row = [Polynomial.zero(rs.rank) if v.length else Polynomial.one(rs.rank)]
    for p, k, factor in _prefixes(rs):
        val = row[p]
        below = lower[k]
        if below is not None and below[p]._t:
            val = _checked(rs.rank, _mul_into(dict(val._t), below[p]._t, factor))
        row.append(val)
    return GkmClass(rs, row)


def _prefixes(rs: RootSystem) -> list[tuple[int, int, dict[int, int]]]:
    """For each element ``w`` after the identity, in canonical order: the index
    of its canonical prefix ``p = w r_{k+1}``, ``k``, and ``p . alpha_{k+1}``
    as packed terms.  One list per group, filled once (and idempotently)."""
    got = rs.caches.get("prefixes")
    if got is None:
        got = []
        for w in rs.elements()[1:]:
            k = _first_negative(w.x)
            p = w._step(k)
            got.append((rs.element_index(p), k, Polynomial.linear([row[k] for row in p.mat])._t))
        rs.caches["prefixes"] = got
    return got


def base_constant(v: WeylElement) -> Polynomial:
    """The restriction of ``S_v`` at the longest element; kept in no table.

    This is ``c_{w0, v}^{w0}``, the engine's base case, which its value memo
    holds; a trace replay checks each base leaf against it.
    """
    return restrict(v, v.rs.longest_element())
