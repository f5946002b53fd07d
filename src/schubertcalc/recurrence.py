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

Every recursive call raises ``l(w)`` or keeps ``w`` and lowers ``l(v)``,
so the recursion terminates at the base case ``w = w0``, where the
constant is the fixed-point restriction ``S_v|_{w0}`` when ``u = w0`` and
zero otherwise.  Fast zero tests (Bruhat support and degree) prune the
tree; in the ordinary case ``l(u) = l(w) + l(v)`` the equivariant term is
dropped by degree (an optimization that is independently tested against
the undropped path).

A traced variant records every rule application for replay and display.

The value memo is keyed per root system and per optimization mode; the
pair ``(w, v)`` is stored in a canonical order, which is safe because the
constants are symmetric in ``w`` and ``v`` (independently verified by the
test suite).  Memo fills are idempotent, so concurrent readers are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .billey import base_constant
from .errors import DimensionMismatchError, EngineMismatchError
from .gkm import SchubertExpansion, _zero
from .polyring import Polynomial, render
from .rootsys import RootSystem, WeylElement, bruhat_leq, coeff_pairing, covers

__all__ = [
    "ConstantKey",
    "TraceNode",
    "structure_constant",
    "trace_constant",
    "replay_trace",
    "format_trace",
    "product_expansion",
    "triple_constant",
    "ordinary_recurrence_check",
]


class ConstantKey(NamedTuple):
    w: WeylElement
    v: WeylElement
    u: WeylElement


@dataclass
class TraceNode:
    """One rule application in a structure-constant derivation.

    ``children`` pairs each sub-constant with its weight; re-evaluating
    the weighted sum bottom-up reproduces ``value`` at every internal
    node (see :func:`replay_trace`).
    """

    key: ConstantKey
    rule: str  # base | dc-trivial | dc-cycle-A | dc-cycle-B | recurrence | degree-zero
    chosen_r: int | None
    children: list[tuple[Polynomial, "TraceNode"]]
    value: Polynomial


_MEMO_NAMES = {False: "constants[drop=False]", True: "constants[drop=True]"}


def _sort_key(w: WeylElement):
    # any fixed order of the memo pair will do; the weight needs no matrix
    return (w.length, w.x)


def _ascent(w: WeylElement, first_r: int | None) -> int:
    # 0-based: first_r once checked to be an ascent of w, else w's least ascent
    if first_r is None:
        return next(k for k, c in enumerate(w.x) if c > 0)
    if not w.right_ascent(first_r):
        raise ValueError(f"first_r={first_r} is not an ascent of {w!r}")
    return first_r - 1


def _fast_zero(w, v, u) -> bool:
    if u.length > w.length + v.length:
        return True
    return not (bruhat_leq(w, u) and bruhat_leq(v, u))


def structure_constant(
    w: WeylElement,
    v: WeylElement,
    u: WeylElement,
    *,
    drop_equivariant: bool = True,
    first_r: int | None = None,
) -> Polynomial:
    """The structure constant ``c_{wv}^u`` as a polynomial in the simple roots.

    ``first_r`` overrides the reflection choice at this call only (it must
    be an ascent of ``w``); recursion always uses the least ascent.  With
    ``drop_equivariant=False`` the degree-based dropping of the
    equivariant term is disabled; the result is identical.
    """
    rs = w.rs
    if v.rs is not rs or u.rs is not rs:
        raise ValueError("elements of different root systems")
    memo = rs.cache(_MEMO_NAMES[bool(drop_equivariant)])
    return _compute(rs, w, v, u, drop_equivariant, memo, first_r)


def _compute(rs, w, v, u, drop, memo, first_r=None):
    zero = _zero(rs.rank)
    if _fast_zero(w, v, u):
        return zero
    if first_r is None:
        key = (w, v, u) if _sort_key(w) <= _sort_key(v) else (v, w, u)
        got = memo.get(key)
        if got is not None:
            return got
    nroots = len(rs.positive_roots)
    if w.length == nroots:  # w = w0; support test already forced u = w0
        got = base_constant(v) if u.length == nroots else zero
    else:
        k = _ascent(w, first_r)
        va = v.x[k] > 0
        ua = u.x[k] > 0
        if va and not ua:
            got = zero
        elif not va and not ua:
            got = _compute(rs, w._step(k), v._step(k), u, drop, memo)
        elif va and ua:
            got = _compute(rs, w._step(k), v, u._step(k), drop, memo)
        else:
            alpha = rs.simple_roots[k]
            wr, vr, ur = w._step(k), v._step(k), u._step(k)
            got = _compute(rs, wr, v, ur, drop, memo)
            got = got + _compute(rs, wr, vr, u, drop, memo)
            ordinary = u.length == w.length + v.length
            if not (drop and ordinary):
                eq = _compute(rs, w, vr, u, drop, memo)
                if not eq.is_zero():
                    got = got - Polynomial.linear(w.act(alpha).coords) * eq
            for wp, beta in covers(w):
                if wp is wr:
                    continue
                m = coeff_pairing(rs, alpha, beta)
                if m:
                    term = _compute(rs, wp, vr, u, drop, memo)
                    if not term.is_zero():
                        got = got + term.scale(m)
    if first_r is None:
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
    """Like :func:`structure_constant` but returns the full derivation tree."""
    rs = w.rs
    if v.rs is not rs or u.rs is not rs:
        raise ValueError("elements of different root systems")
    nodes: dict[tuple, TraceNode] = {}
    return _trace(rs, w, v, u, drop_equivariant, nodes, first_r=first_r)


def _trace(rs, w, v, u, drop, nodes, first_r=None):
    key = ConstantKey(w, v, u)
    if first_r is None:
        got = nodes.get(key)
        if got is not None:
            return got
    zero = _zero(rs.rank)
    one = Polynomial.one(rs.rank)
    nroots = len(rs.positive_roots)
    if _fast_zero(w, v, u):
        node = TraceNode(key, "degree-zero", None, [], zero)
    elif w.length == nroots:
        val = base_constant(v) if u.length == nroots else zero
        node = TraceNode(key, "base", None, [], val)
    else:
        k = _ascent(w, first_r)
        r_idx = k + 1
        va = v.x[k] > 0
        ua = u.x[k] > 0
        if va and not ua:
            node = TraceNode(key, "dc-trivial", r_idx, [], zero)
        elif not va and not ua:
            child = _trace(rs, w._step(k), v._step(k), u, drop, nodes)
            node = TraceNode(key, "dc-cycle-A", r_idx, [(one, child)], child.value)
        elif va and ua:
            child = _trace(rs, w._step(k), v, u._step(k), drop, nodes)
            node = TraceNode(key, "dc-cycle-B", r_idx, [(one, child)], child.value)
        else:
            alpha = rs.simple_roots[k]
            wr, vr, ur = w._step(k), v._step(k), u._step(k)
            children = [
                (one, _trace(rs, wr, v, ur, drop, nodes)),
                (one, _trace(rs, wr, vr, u, drop, nodes)),
            ]
            ordinary = u.length == w.length + v.length
            if not (drop and ordinary):
                weight = -Polynomial.linear(w.act(alpha).coords)
                children.append((weight, _trace(rs, w, vr, u, drop, nodes)))
            for wp, beta in covers(w):
                if wp is wr:
                    continue
                m = coeff_pairing(rs, alpha, beta)
                if m:
                    children.append(
                        (Polynomial.integer(rs.rank, m), _trace(rs, wp, vr, u, drop, nodes))
                    )
            val = zero
            for weight, child in children:
                val = val + weight * child.value
            node = TraceNode(key, "recurrence", r_idx, children, val)
    if first_r is None:
        nodes[key] = node
    return node


def replay_trace(node: TraceNode) -> bool:
    """Re-evaluate a derivation tree bottom-up and confirm every stored value.

    Leaves are recomputed from first principles (base restrictions and the
    zero rules), internal nodes from their children's replayed values.
    """
    rs = node.key.w.rs
    nroots = len(rs.positive_roots)

    def walk(n: TraceNode) -> Polynomial:
        w, v, u = n.key
        if n.rule == "degree-zero":
            assert _fast_zero(w, v, u)
            val = Polynomial.zero(rs.rank)
        elif n.rule == "base":
            val = base_constant(v) if u.length == nroots else Polynomial.zero(rs.rank)
        elif n.rule == "dc-trivial":
            val = Polynomial.zero(rs.rank)
        else:
            val = Polynomial.zero(rs.rank)
            for weight, child in n.children:
                val = val + weight * walk(child)
        if val != n.value:
            raise AssertionError(f"trace replay mismatch at {n.key}")
        return val

    walk(node)
    return True


def _key_str(key: ConstantKey, bar: int | None) -> str:
    rs = key.w.rs

    def show(x: WeylElement) -> str:
        if rs.is_type_a and rs.rank + 1 <= 9:
            s = "".join(str(d) for d in x.one_line())
            if bar is not None:
                s = s[:bar] + "|" + s[bar:]
            return s
        return x.describe()

    return f"c_{{{show(key.w)},{show(key.v)}}}^{{{show(key.u)}}}"


def format_trace(node: TraceNode, basis: str = "alpha", indent: str = "") -> list[str]:
    """Render a derivation tree, one rule application per line.

    In type A the chosen reflection is marked by a bar in the one-line
    words, e.g. ``c_{1|324,2|143}^{2|413} -> recurrence r=(12)``.
    """
    rs = node.key.w.rs
    type_a = rs.is_type_a and rs.rank + 1 <= 9
    head = _key_str(node.key, node.chosen_r)
    if node.chosen_r is not None:
        rtxt = (
            f"r=({node.chosen_r}{node.chosen_r + 1})" if type_a else f"r=s{node.chosen_r}"
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


def product_expansion(w: WeylElement, v: WeylElement, engine: str = "recurrence") -> SchubertExpansion:
    """All nonzero coefficients of ``S_w * S_v`` in the Schubert basis.

    ``engine`` selects the recursive engine, the expansion oracle, or
    ``"both"``, in which case any disagreement raises
    :class:`EngineMismatchError` carrying the offending basis element.
    """
    rs = w.rs
    if engine == "oracle":
        from .oracle import expand_in_schubert  # local import; oracle imports us

        from .billey import schubert_class

        return expand_in_schubert(schubert_class(w) * schubert_class(v)).expansion
    if engine == "recurrence":
        coeffs = {}
        for u in rs.elements():
            if u.length <= w.length + v.length:
                c = structure_constant(w, v, u)
                if not c.is_zero():
                    coeffs[u] = c
        return SchubertExpansion(rs, coeffs)
    if engine == "both":
        rec = product_expansion(w, v, "recurrence")
        orc = product_expansion(w, v, "oracle")
        if rec != orc:
            for u in rs.elements():
                if rec.coeff(u) != orc.coeff(u):
                    raise EngineMismatchError(w, v, u, rec.coeff(u), orc.coeff(u))
        return rec
    raise ValueError(f"unknown engine {engine!r}")


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
    val = structure_constant(w, v, rs.longest_element() * u)
    deg = val.homogeneous_degree()
    if val.is_zero():
        return 0
    if deg != 0:
        raise AssertionError("ordinary constant is not an integer")
    return val.constant_term()


def ordinary_recurrence_check(
    w: WeylElement,
    v: WeylElement,
    u: WeylElement,
    r_index: int,
    engine: str = "recurrence",
) -> bool:
    """Verify one instance of the cover recurrence for the triple integrals.

    Requires ``wr > w``, ``vr > v``, ``ur > u`` and
    ``l(w) + l(v) + l(u) + 2`` equal to the number of positive roots, so
    that every term is a well-defined integral.  Both sides are evaluated
    with the selected engine.
    """
    rs = w.rs
    nroots = len(rs.positive_roots)
    if w.length + v.length + u.length + 2 != nroots:
        raise DimensionMismatchError(
            "term lengths do not match the dimension of the flag variety"
        )
    for x in (w, v, u):
        if not x.right_ascent(r_index):
            raise ValueError(f"r_index={r_index} is not an ascent of {x!r}")
    r = rs.simple_reflection(r_index)
    alpha = rs.simple_root(r_index)

    if engine == "recurrence":
        triple = triple_constant
    elif engine == "oracle":
        from .oracle import oracle_constant

        def triple(a, b, c):
            val = oracle_constant(a, b, rs.longest_element() * c)
            if val.is_zero():
                return 0
            assert val.homogeneous_degree() == 0
            return val.constant_term()

    else:
        raise ValueError(f"unknown engine {engine!r}")

    lhs = triple(w, v * r, u * r)
    rhs = triple(w * r, v * r, u) + triple(w * r, v, u * r)
    for wp, beta in covers(w):
        if wp == w * r:
            continue
        m = coeff_pairing(rs, alpha, beta)
        if m:
            rhs += m * triple(wp, v, u * r)
    return lhs == rhs
