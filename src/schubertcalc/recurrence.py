"""The memoized recursive engine for equivariant Schubert structure constants.

``structure_constant(w, v, u)`` computes the coefficient of ``S_u`` in
``S_w * S_v`` by a three-branch recursion.  Write ``r`` for the simple
reflection through the least-index ascent of ``w`` (``wr > w``; such an
``r`` exists whenever ``w`` is not the longest element):

- ``vr > v`` and ``ur < u``:   the constant vanishes ("dc-triviality");
- ``vr < v`` and ``ur < u``:   equals the constant at ``(wr, vr, u)``;
- ``vr > v`` and ``ur > u``:   equals the constant at ``(wr, v, ur)``
  (the two descent-cycling moves);
- ``vr < v`` and ``ur > u``:   the cover recurrence

      c(w,v,u) = c(wr,v,ur) + c(wr,vr,u) - (w.alpha) c(w,vr,u)
                 + sum over covers w' = w r_beta of w, w' != wr,
                   of <alpha,beta> c(w',vr,u).

The cover sum is read from ``rootsys._chevalley_covers``: the terms that gkm's
``chern_times_schubert`` expands and ``verify --suite props`` checks against the oracle.

Every recursive call raises ``l(w)`` or keeps ``w`` and lowers ``l(v)``,
so the recursion terminates at the base case ``w = w0``, where the
constant is the fixed-point restriction ``S_v|_{w0}`` when ``u = w0`` and
zero otherwise.  Fast zero tests (Bruhat support and degree) prune the
tree; in the ordinary case ``l(u) = l(w) + l(v)`` the equivariant term is
dropped by degree (an optimization that a replay of an undropped trace
checks).

The rule is written once (``_rule``): at a triple it names the branch
and lists the weighted sub-constants it sums.  One evaluator, the memoized
fold behind ``structure_constant``, adds them up.  Traces read it:
``trace_constant`` records every rule application and takes each value
from the evaluator, and ``replay_trace`` checks each application once.

The evaluator takes no options: it always starts at the least ascent and
always drops by degree, so it keeps one memo table per root system.  The
pair ``(w, v)`` is stored in a canonical order, which is safe because the
constants are symmetric in ``w`` and ``v`` (independently verified by the
test suite).  Memo fills are idempotent, so concurrent readers are fine.
"""

from __future__ import annotations

from typing import NamedTuple

from .billey import base_constant
from .errors import DimensionMismatchError
from .gkm import SchubertExpansion, _zero
from .polyring import Polynomial, render
from .rootsys import WeylElement, _chevalley_covers, _same_group, bruhat_leq

__all__ = [
    "ConstantKey",
    "TraceNode",
    "structure_constant",
    "trace_constant",
    "replay_trace",
    "format_trace",
    "product_expansion",
    "triple_constant",
]


class ConstantKey(NamedTuple):
    w: WeylElement
    v: WeylElement
    u: WeylElement


class TraceNode(NamedTuple):
    """One rule application in a structure-constant derivation.

    ``children`` pairs each sub-constant with its weight; ``value`` is the
    value engine's, and at every inner node it is the weighted sum of the
    children's values (see :func:`replay_trace`).
    """

    key: ConstantKey
    rule: str  # base | dc-trivial | dc-cycle-A | dc-cycle-B | recurrence | degree-zero
    chosen_r: int | None
    children: list[tuple[Polynomial, "TraceNode"]]
    value: Polynomial


def _ascent(w: WeylElement, first_r: int | None) -> int:
    # 0-based: the checked first_r, else w's least ascent
    if first_r is None:
        for k, c in enumerate(w.x):
            if c > 0:
                return k
    return first_r - 1


def _fast_zero(w, v, u) -> bool:
    if u.length > w.length + v.length:
        return True
    return not (bruhat_leq(w, u) and bruhat_leq(v, u))


def structure_constant(w: WeylElement, v: WeylElement, u: WeylElement) -> Polynomial:
    """The structure constant ``c_{wv}^u`` as a polynomial in the simple roots.

    Every step uses the least ascent of ``w`` and drops the equivariant term
    by degree where it vanishes; neither choice changes the value, and
    :func:`trace_constant` can make either one differently.
    """
    rs = _same_group(w, v, u)
    return _compute(rs, w, v, u, rs.cache("constants[drop=True]"))


def _rule(rs, w, v, u, drop, first_r):
    """One application of the recurrence at a triple that is not a fast zero.

    Returns ``(rule, r, subs)``: the rule name, the 1-based reflection
    (None at the base) and the weighted sub-constants ``(weight, w', v', u')``,
    in a fixed order, whose sum is the constant; at the base, where there are
    none, the constant is :func:`base_constant`.  A weight is an int, or the
    polynomial ``-(w.alpha)`` of the equivariant term.
    """
    if w.length == len(rs.positive_roots):  # w = w0; support test already forced u = w0
        return "base", None, ()
    k = _ascent(w, first_r)
    if v.x[k] > 0:
        if u.x[k] > 0:
            return "dc-cycle-B", k + 1, ((1, w._step(k), v, u._step(k)),)
        return "dc-trivial", k + 1, ()
    wr, vr = w._step(k), v._step(k)
    if not u.x[k] > 0:
        return "dc-cycle-A", k + 1, ((1, wr, vr, u),)
    alpha = rs.simple_roots[k]
    subs = [(1, wr, v, u._step(k)), (1, wr, vr, u)]
    if not (drop and u.length == w.length + v.length):
        subs.append((-Polynomial.linear(w.act(alpha)), w, vr, u))
    subs += [(m, wp, vr, u) for wp, m in _chevalley_covers(w, alpha) if wp is not wr]
    return "recurrence", k + 1, subs


def _compute(rs, w, v, u, memo):
    zero = _zero(rs.rank)
    if _fast_zero(w, v, u):
        return zero
    # any fixed order of the memo pair will do; the weight needs no matrix
    key = (w, v, u) if (w.length, w.x) <= (v.length, v.x) else (v, w, u)
    got = memo.get(key)
    if got is not None:
        return got
    rule, _, subs = _rule(rs, w, v, u, True, None)
    got = base_constant(v) if rule == "base" else zero
    for weight, a, b, c in subs:
        term = _compute(rs, a, b, c, memo)
        if term is zero:  # the shared zero; a zero it misses is added harmlessly
            continue
        if type(weight) is not int:
            got = got.addmul(weight, term)
        elif weight == 1:
            got = term if got is zero else got + term
        else:
            got = got + term.scale(weight)
    memo[key] = got
    return got


# -- traced evaluation ---------------------------------------------------------


def trace_constant(
    w: WeylElement,
    v: WeylElement,
    u: WeylElement,
    *,
    drop_equivariant: bool = True,
    first_r: int | None = None,
) -> TraceNode:
    """The derivation tree of :func:`structure_constant`, valued by its memo.

    ``first_r`` overrides the reflection at the root step only (it must be
    an ascent of ``w`` in ``1..rank``, else ``ValueError`` is raised); the
    recursion below always uses the least ascent.  With
    ``drop_equivariant=False`` the equivariant term is written out even
    where it vanishes by degree.  Neither option changes a value.
    """
    rs = _same_group(w, v, u)
    if first_r is not None:
        _check_first_r(w, first_r)
    return _trace(rs, w, v, u, drop_equivariant, {}, first_r=first_r)


def _check_first_r(w: WeylElement, first_r: int) -> None:
    """Raise ``ValueError`` unless ``first_r`` is an ascent of ``w`` in ``1..rank``."""
    if not 1 <= first_r <= w.rs.rank:
        raise ValueError(f"first_r={first_r} is outside 1..{w.rs.rank}")
    if not w.right_ascent(first_r):
        raise ValueError(f"first_r={first_r} is not an ascent of {w!r}")


def _trace(rs, w, v, u, drop, nodes, first_r=None):
    key = ConstantKey(w, v, u)
    if first_r is None:
        node = nodes.get(key)
        if node is not None:
            return node
    if _fast_zero(w, v, u):
        rule, r, subs = "degree-zero", None, ()
    else:
        rule, r, subs = _rule(rs, w, v, u, drop, first_r)
    children = []
    for weight, a, b, c in subs:
        if type(weight) is int:
            weight = Polynomial.integer(rs.rank, weight)
        children.append((weight, _trace(rs, a, b, c, drop, nodes)))
    node = TraceNode(key, rule, r, children, structure_constant(w, v, u))
    if first_r is None:
        nodes[key] = node
    return node


def replay_trace(node: TraceNode) -> bool:
    """Check each rule application of a derivation tree once, by node identity.

    A degree-zero leaf must be a fast zero.  Every other node must be what
    :func:`_rule` gives at its key, with either choice of dropping the
    equivariant term: the same rule, its ``chosen_r`` an ascent of ``w`` in
    ``1..rank`` (None at a base, which needs ``w = w0``), and the same
    weighted sub-constants as its children.  A base leaf must have the value
    :func:`base_constant`, a dc-trivial leaf zero, and an inner node the
    weighted sum of its children's values.
    """
    rs = node.key.w.rs
    seen, todo = set(), [node]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        w, v, u = n.key
        val = Polynomial.zero(rs.rank)
        if n.rule == "degree-zero":
            if not _fast_zero(w, v, u):
                raise AssertionError(f"degree-zero leaf at {n.key} is not a fast zero")
        elif not _follows_rule(rs, n):
            raise AssertionError(f"the {n.rule} node at {n.key} is not the rule applied there")
        elif n.rule == "base":
            val = base_constant(v)
        elif n.rule != "dc-trivial":
            for weight, child in n.children:
                val = val + weight * child.value
                todo.append(child)
        if val != n.value:
            raise AssertionError(f"trace replay mismatch at {n.key}")
    return True


def _follows_rule(rs, n: TraceNode) -> bool:
    """Whether ``_rule`` at ``n``'s key, for its ``chosen_r``, names ``n``'s rule and
    children; ``_rule`` gives the base, with no reflection, only at ``w = w0``."""
    w, v, u = n.key
    r = n.chosen_r
    if _fast_zero(w, v, u) or r is not None and not (1 <= r <= rs.rank and w.right_ascent(r)):
        return False
    got = (n.rule, r, [(weight, child.key) for weight, child in n.children])
    for drop in (True, False):
        rule, chosen, subs = _rule(rs, w, v, u, drop, r)
        if got == (rule, chosen, [(wt, (a, b, c)) for wt, a, b, c in subs]):  # a Polynomial equals an int
            return True
    return False


def _key_str(key: ConstantKey, bar: int | None) -> str:
    def show(x: WeylElement) -> str:
        s = x.describe()
        return s if bar is None else s[:bar] + "|" + s[bar:]

    return f"c_{{{show(key.w)},{show(key.v)}}}^{{{show(key.u)}}}"


def format_trace(node: TraceNode, basis: str = "alpha", indent: str = "") -> list[str]:
    """Render a derivation tree, one rule application per line.

    In type A the chosen reflection is marked by a bar in the one-line
    words, e.g. ``c_{1|324,2|143}^{2|413} -> recurrence r=(12)``.
    """
    one_line = node.key.w.rs.one_line_labels
    head = _key_str(node.key, node.chosen_r if one_line else None)
    if node.chosen_r is not None:
        rtxt = (
            f"r=({node.chosen_r}{node.chosen_r + 1})" if one_line else f"r=s{node.chosen_r}"
        )
        line = f"{indent}{head} -> {node.rule} {rtxt} = {render(node.value, basis)}"
    else:
        line = f"{indent}{head} -> {node.rule} = {render(node.value, basis)}"
    lines = [line]
    for weight, child in node.children:
        wdeg = weight.homogeneous_degree()
        if wdeg == 0:
            c = weight.constant_term()
            wtxt = f"{'+' if c >= 0 else '-'}{abs(c)}"
        elif all(c < 0 for c in weight.terms.values()):
            wtxt = f"- ({render(-weight, basis)})"
        else:
            wtxt = f"+ ({render(weight, basis)})"
        sub = format_trace(child, basis, indent + "  ")
        sub[0] = f"{indent}  {wtxt} * " + sub[0].lstrip()
        lines.extend(sub)
    return lines


# -- aggregated products --------------------------------------------------------


def product_expansion(w: WeylElement, v: WeylElement) -> SchubertExpansion:
    """All nonzero coefficients of ``S_w * S_v`` in the Schubert basis.

    Each coefficient is a :func:`structure_constant`; the oracle's
    ``oracle_product`` expands the same product independently.
    """
    rs = w.rs
    coeffs = {}
    for u in rs.elements():
        if u.length <= w.length + v.length:
            c = structure_constant(w, v, u)
            if not c.is_zero():
                coeffs[u] = c
    return SchubertExpansion(rs, coeffs)


# -- the ordinary (non-equivariant) story ---------------------------------------


def triple_constant(w: WeylElement, v: WeylElement, u: WeylElement) -> int:
    """The symmetric integral of ``S_u S_v S_w`` over the full flag variety.

    Defined when the lengths sum to the number of positive roots; equals
    ``c_{wv}^{w0 u}`` and is invariant under all six permutations of the
    arguments.
    """
    rs = w.rs
    nroots = len(rs.positive_roots)
    if w.length + v.length + u.length != nroots:
        raise DimensionMismatchError(
            f"lengths {w.length}+{v.length}+{u.length} != {nroots}"
        )
    return _integer(structure_constant(w, v, rs.longest_element() * u))


def _integer(val: Polynomial) -> int:
    """An ordinary constant as an int; ``AssertionError`` unless it has degree zero."""
    if val.is_zero():
        return 0
    if val.homogeneous_degree() != 0:
        raise AssertionError("ordinary constant is not an integer")
    return val.constant_term()
