"""Sparse integer polynomials: arithmetic, action, division, text forms.

sympy serves as the independent oracle for the ring operations, exact
division (by linear forms and by seeded non-linear divisors) and the Weyl
action (Hypothesis inputs in ranks 1-8); division is also checked on
multiples of every bottom restriction of A3, B3, C3 and G2; the action
is also checked against the group axioms on random inputs in A3 and B2,
and sympy reads the rendered text forms back in both bases.  The packed storage is checked for its tuple-keyed ``terms`` view and for
exponents that leave their field.  The substitution behind the action and
the y rewrite is also checked against a test-local expansion of each
monomial on exponent tuples, and the rendered text against a test-local
renderer.
"""

import json
import random
import re
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from schubertcalc import (
    NotDivisibleError,
    Polynomial,
    act,
    bottom_restriction,
    divide_exact,
    is_divisible,
    named,
    perm_to_element,
    word_to_element,
    poly_from_json,
    poly_to_json,
    render,
    restrict,
)
from schubertcalc.polyring import _degree, _mul_into, _substitute, _unpack


def sym(p: Polynomial):
    xs = sym_vars(p.rank)
    total = 0
    for e, c in p.terms.items():
        term = c
        for j, x in enumerate(e):
            term *= xs[j] ** x
        total += term
    return sympy.expand(total)


def random_poly(rng, rank, max_terms=5, max_exp=2, max_coeff=4):
    p = Polynomial.zero(rank)
    for _ in range(rng.randint(1, max_terms)):
        mono = Polynomial.integer(rank, rng.randint(-max_coeff, max_coeff))
        for j in range(rank):
            mono = mono * Polynomial.variable(rank, j + 1) ** rng.randint(0, max_exp)
        p = p + mono
    return p


def test_basic_identities():
    a1 = Polynomial.variable(2, 1)
    a2 = Polynomial.variable(2, 2)
    p = 3 * a1 * a2 - a2**2
    assert p + Polynomial.zero(2) == p
    assert (a1 + a2) - a2 == a1
    assert p - p == Polynomial.zero(2)
    assert p * Polynomial.one(2) == p


def test_constants_hash_like_the_ints_they_equal():
    """``Polynomial.integer(2, 3) == 3``, so it finds 3 in a set or a dict, and 3 finds it."""
    three = Polynomial.integer(2, 3)
    assert three == 3 and hash(three) == hash(3)
    assert 3 in {three}
    assert three in {3}
    assert {3: "x"}.get(three) == "x"
    assert 0 in {Polynomial.zero(2)}
    assert Polynomial.variable(2, 1) not in {1, 0}


def in_y(p: Polynomial):
    """``sym(p)`` rewritten by a_i = y_{i+1} - y_i."""
    y = sympy.symbols([f"y{i + 1}" for i in range(p.rank + 1)])
    return sympy.expand(sym(p).subs({f"a{i + 1}": y[i + 1] - y[i] for i in range(p.rank)}))


def test_y_coordinate_change():
    # a1 * a2 = (y2 - y1)(y3 - y2)
    a1a2 = Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
    y1, y2, y3 = sympy.symbols("y1 y2 y3")
    assert sympy.sympify(render(a1a2, "y")) == sympy.expand((y2 - y1) * (y3 - y2))


def test_ring_ops_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        assert sym(p + q) == sym(p) + sym(q)
        assert sym(p * q) == sympy.expand(sym(p) * sym(q))
        assert sym(-p) == -sym(p)
        assert sym(p.scale(3)) == 3 * sym(p)


def test_act_is_ring_homomorphism_and_group_action():
    rng = random.Random(11)
    for label in ("A3", "B2"):
        rs = named(label)
        elements = rs.elements()
        for _ in range(25):
            w = rng.choice(elements)
            v = rng.choice(elements)
            p = random_poly(rng, rs.rank)
            q = random_poly(rng, rs.rank)
            assert act(w, p + q) == act(w, p) + act(w, q)
            assert act(w, p * q) == act(w, p) * act(w, q)
            assert act(w, act(v, p)) == act(w * v, p)
        p = random_poly(rng, rs.rank)
        assert act(rs.identity, p) == p


def test_act_known_values():
    a2sys = named("A2")
    a1 = Polynomial.variable(2, 1)
    assert act(a2sys.simple_reflection(1), a1) == -a1
    s4 = named("A3")
    from schubertcalc import perm_to_element

    w = perm_to_element(s4, (1, 3, 2, 4))
    y2_minus_y1 = Polynomial.variable(3, 1)
    expect = Polynomial.variable(3, 1) + Polynomial.variable(3, 2)  # y3 - y1
    assert act(w, y2_minus_y1) == expect
    assert act(s4.identity, expect) == expect


def test_divide_exact_roundtrip_random():
    rng = random.Random(23)
    for _ in range(80):
        p = random_poly(rng, 3)
        coords = [0, 0, 0]
        while not any(coords):
            coords = [rng.randint(-2, 2) for _ in range(3)]
        f = tuple(coords)
        prod = p.times_linear(f)
        assert is_divisible(prod, f)
        assert divide_exact(prod, f) == p
        # sympy cross-check of the quotient
        xs = sym_vars(3)
        fsym = sum(c * x for c, x in zip(f, xs))
        q, r = sympy.div(sym(prod), fsym, *xs)
        assert r == 0 and sympy.expand(q) == sym(p)


def test_divide_exact_failures():
    a1 = Polynomial.variable(2, 1)
    a2 = Polynomial.variable(2, 2)
    assert divide_exact(Polynomial.zero(2), (1, 0)) == Polynomial.zero(2)
    assert divide_exact(a1 * (a1 + a2), (1, 0)) == a1 + a2
    with pytest.raises(NotDivisibleError):
        divide_exact(a1 + a2, (1, 0))
    assert not is_divisible(a1, (0, 1))
    assert is_divisible(a1 * a2, (0, 1))
    with pytest.raises(ZeroDivisionError):
        divide_exact(a1, (0, 0))
    with pytest.raises(ZeroDivisionError):
        divide_exact(a1, Polynomial.zero(2))
    with pytest.raises(ValueError):
        divide_exact(a1, Polynomial.variable(3, 1))
    with pytest.raises(ValueError):
        divide_exact(a1, (1, 0, 0))


def test_divide_exact_by_polynomials_matches_sympy():
    """Non-linear divisors: ``q * d`` divides back to ``q``, and any ``p`` raises
    exactly when sympy's division over the integers leaves a remainder."""
    rng = random.Random(31)
    raised = 0
    for _ in range(80):
        rank = rng.randint(1, 4)
        d = random_poly(rng, rank)
        if not d:
            continue
        q = random_poly(rng, rank)
        assert divide_exact(q * d, d) == q
        for p in (q * d, q * d + random_poly(rng, rank), random_poly(rng, rank) * d.scale(2)):
            for divisor in (d, d.scale(2)):
                _, r = sympy.div(sym(p), sym(divisor), *sym_vars(rank), domain="ZZ")
                try:
                    got = divide_exact(p, divisor)
                except NotDivisibleError:
                    raised += 1
                    assert r != 0, (p, divisor)
                else:
                    assert r == 0 and got * divisor == p, (p, divisor)
    assert raised


def random_homogeneous(rng, rank, degree, nterms):
    """A polynomial of ``nterms`` random monomials of ``degree``, coefficients in -5..5."""
    terms = {}
    for _ in range(nterms):
        exp = [0] * rank
        for _ in range(degree):
            exp[rng.randrange(rank)] += 1
        terms[tuple(exp)] = rng.choice([-5, -3, -2, -1, 1, 2, 4, 5])
    return Polynomial(rank, terms)


def test_quotient_recovers_every_multiple_of_a_bottom_restriction():
    """Homogeneous quotients of degree 0-3, then their inhomogeneous sum."""
    rng = random.Random(14)
    for label in ("A3", "B3", "C3", "G2"):
        rs = named(label)
        for u in rs.elements():
            bottom = bottom_restriction(u)
            total = Polynomial.zero(rs.rank)
            for degree in range(4):
                q = random_homogeneous(rng, rs.rank, degree, rng.randint(1, 6))
                assert divide_exact(q * bottom, bottom) == q, (label, u, degree)
                total = total + q
            assert divide_exact(total * bottom, bottom) == total, (label, u)


def test_quotient_finds_terms_that_cancel_in_the_product():
    """(a1^6 - a2^6) / (a1 - a2): every quotient term but the top one cancels in
    the product.  In (a1^3 + 1) / (a1 + 1) the constant comes from a1."""
    a1, a2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    expect = sum((a1 ** i * a2 ** (5 - i) for i in range(6)), Polynomial.zero(2))
    assert divide_exact(a1 ** 6 - a2 ** 6, a1 - a2) == expect
    x = Polynomial.variable(1, 1)
    assert divide_exact(x ** 3 + 1, x + 1) == x * x - x + 1


def test_quotient_raises_on_a_remainder_or_a_borrow():
    a1, a2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    bottom = a2 * (a1 + 2 * a2)  # leading term 2*a2^2
    with pytest.raises(NotDivisibleError, match="not a multiple of 2"):
        divide_exact(a1 * a2 * a2 + a2 * a2 * a2, bottom)  # 1/2 at the first key
    with pytest.raises(NotDivisibleError, match="leading monomial"):
        divide_exact(a1 * a1 * a1, bottom)
    # a2^2 over the lead a1*a2 borrows from the a1 field
    with pytest.raises(NotDivisibleError, match="leading monomial"):
        divide_exact(a1 * a1 + a2 * a2, a1 * a2)


def test_sparse_high_degree_quotient_stays_sparse():
    """Rank 8, degree 42, two terms: the per-variable degree box holds 1,339,044
    monomials of the quotient's degree, so the division must walk only what the
    terms reach."""
    rank = 8
    q = Polynomial(rank, {(12, 12, 12, 0, 6, 0, 0, 0): 3, (0, 0, 0, 0, 6, 12, 12, 12): -5})
    factors = [(1, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 2), (1,) * rank]
    bottom = Polynomial.one(rank)
    for f in factors:
        bottom = bottom.times_linear(f)
    product = q * bottom
    t0 = time.perf_counter()
    got = divide_exact(product, bottom)
    elapsed = time.perf_counter() - t0
    expect = product
    for f in factors:
        expect = divide_exact(expect, f)
    assert got == expect == q
    assert elapsed < 1.0, f"{elapsed:.2f} s for a two-term quotient"


PACKED_LAYOUT = {"_W", "_FIELD", "_MAX_EXP", "_guard", "_pack", "_unpack", "_degree"}


def test_only_polyring_knows_the_packed_key_layout():
    """The bit layout of packed monomials is polyring's alone: no other module
    of the package imports it or reads it off the module."""
    import ast
    from pathlib import Path

    import schubertcalc

    package = Path(schubertcalc.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "polyring.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & PACKED_LAYOUT, (path.name, sorted(names & PACKED_LAYOUT))


def test_render_known_values():
    a1 = Polynomial.variable(2, 1)
    a2 = Polynomial.variable(2, 2)
    assert render(a1, "y") == "y2 - y1"
    assert render(a1 + a2, "y") == "y3 - y1"
    assert render(Polynomial.zero(2)) == "0"
    assert render(Polynomial.zero(2), "y") == "0"
    assert render(Polynomial.integer(2, -3)) == "-3"
    with pytest.raises(ValueError, match="unknown basis 'z'"):
        render(a1, "z")


def test_render_roundtrip_through_sympy_random():
    rng = random.Random(31)
    for _ in range(60):
        p = random_poly(rng, 3)
        assert sympy.sympify(render(p)) == sym(p)
        assert sympy.sympify(render(p, "y")) == in_y(p)


def test_json_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        p = random_poly(rng, 4)
        data = json.loads(json.dumps(poly_to_json(p)))
        assert poly_from_json(data, 4) == p
    assert poly_to_json(Polynomial.zero(2)) == []


@pytest.mark.parametrize(
    "item",
    [
        {"coeff": 1.5, "exp": [0, 0]},
        {"coeff": 1, "exp": [1.7, 0]},
        {"coeff": True, "exp": [0, 0]},
        {"coeff": "3", "exp": [0, 0]},
        {"exp": [1, 0]},
        {"coeff": 1},
    ],
    ids=["float-coeff", "float-exp", "bool-coeff", "str-coeff", "no-coeff", "no-exp"],
)
def test_poly_from_json_refuses_what_it_would_misread(item):
    with pytest.raises(ValueError, match=re.escape(repr(item))):
        poly_from_json([{"coeff": 2, "exp": [0, 1]}, item], 2)


def test_degrees():
    a1 = Polynomial.variable(2, 1)
    a2 = Polynomial.variable(2, 2)
    assert (a1 * a2).homogeneous_degree() == 2
    assert (a1 * a2 + a1).homogeneous_degree() is None
    assert Polynomial.zero(2).homogeneous_degree() is None
    assert Polynomial.integer(2, 5).homogeneous_degree() == 0
    assert (a1 + a2**3).total_degree() == 3


def test_rank_mismatch_is_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
    with pytest.raises(ValueError, match="rank mismatch between element and polynomial"):
        act(named("A3").simple_reflection(1), Polynomial.variable(2, 1))
    with pytest.raises(IndexError, match="variable index 3 out of range 1..2"):
        Polynomial.variable(2, 3)


# -- Hypothesis: the packed ring against sympy, ranks 1-8 ----------------------


def monomial(variables, rank):
    return tuple(variables.count(j) for j in range(rank))


def polys(rank, max_degree=4):
    """Up to six terms of degree at most ``max_degree``, zeros included."""
    exps = st.lists(st.integers(0, rank - 1), max_size=max_degree).map(lambda vs: monomial(vs, rank))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=6).map(lambda t: Polynomial(rank, t))


def linear_forms(rank):
    return st.tuples(*[st.integers(-2, 2)] * rank).filter(any)


@st.composite
def two_polys(draw):
    rank = draw(st.integers(1, 8))
    return draw(polys(rank)), draw(polys(rank))


@st.composite
def poly_and_form(draw):
    rank = draw(st.integers(1, 8))
    return draw(polys(rank)), draw(linear_forms(rank))


def sym_vars(rank):
    """The simple-root variables, named as ``render`` writes them."""
    return sympy.symbols([f"a{i + 1}" for i in range(rank)])


def sym_form(f):
    return sum(c * x for c, x in zip(f, sym_vars(len(f))))


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(two_polys())
def test_ring_ops_match_sympy(pq):
    p, q = pq
    assert sym(p + q) == sympy.expand(sym(p) + sym(q))
    assert sym(p - q) == sympy.expand(sym(p) - sym(q))
    assert sym(p * q) == sympy.expand(sym(p) * sym(q))
    assert sym(-p) == -sym(p)


@SETTINGS
@given(poly_and_form())
def test_times_linear_and_divide_exact_match_sympy(pf):
    p, f = pf
    prod = p.times_linear(f)
    assert sym(prod) == sympy.expand(sym(p) * sym_form(f))
    assert divide_exact(prod, f) == p
    # an arbitrary p: divisible over the integers iff sympy leaves no
    # remainder and an integral quotient
    q, r = sympy.div(sym(p), sym_form(f), *sym_vars(p.rank), domain="QQ")
    integral = r == 0 and all(c.is_integer for c in sympy.Poly(q, *sym_vars(p.rank)).coeffs())
    assert is_divisible(p, f) == integral
    if integral:
        assert sym(divide_exact(p, f)) == sympy.expand(q)


@SETTINGS
@given(st.integers(1, 8).flatmap(
    lambda rank: st.tuples(polys(rank), st.lists(st.integers(1, rank), max_size=8))
))
def test_act_matches_sympy_substitution(pw):
    p, word = pw
    rank = p.rank
    w = word_to_element(named(f"A{rank}"), word)
    xs = sym_vars(rank)
    images = {xs[j]: sum(w.mat[r][j] * xs[r] for r in range(rank)) for j in range(rank)}
    assert sym(act(w, p)) == sympy.expand(sym(p).subs(images, simultaneous=True))


@SETTINGS
@given(st.integers(1, 8).flatmap(polys))
def test_terms_view_round_trip(p):
    assert Polynomial(p.rank, p.terms) == p
    assert len(p.terms) == len(list(p.terms.items()))
    for e, c in p.terms.items():
        assert isinstance(e, tuple) and len(e) == p.rank and c != 0
        assert p.terms[e] == c and e in p.terms
    assert dict(p.terms) == {tuple(x["exp"]): x["coeff"] for x in poly_to_json(p)}


def test_terms_view_is_read_only_and_keyed_by_tuples():
    p = Polynomial(2, {(1, 0): 3, (0, 2): -1, (4, 4): 0})
    assert dict(p.terms) == {(1, 0): 3, (0, 2): -1}
    assert p.terms.get((4, 4)) is None and p.terms.get((1,)) is None
    assert sorted(p.terms.values()) == [-1, 3]
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 5


MAX_EXP = 65535


def test_exponent_at_the_field_limit_is_exact():
    a1 = Polynomial.variable(2, 1)
    p = Polynomial(2, {(MAX_EXP - 1, 3): 2})
    assert dict((p * a1).terms) == {(MAX_EXP, 3): 2}
    assert dict(p.times_linear((1, 0)).terms) == {(MAX_EXP, 3): 2}


def test_product_past_the_field_limit_raises_and_never_wraps():
    a1, a2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    top = Polynomial(2, {(MAX_EXP, 3): 1})
    with pytest.raises(OverflowError):
        top * a1  # a carry would read as a1^0 a2^4
    with pytest.raises(OverflowError):
        top.times_linear((1, 1))
    with pytest.raises(OverflowError):
        (top + a2) * (a1 + a2)
    with pytest.raises(OverflowError):
        divide_exact(top.times_linear((0, 1)) * a2, (0, 1)) * a1
    with pytest.raises(NotDivisibleError):  # the remainder passes the limit in a1
        divide_exact(Polynomial(2, {(MAX_EXP, 2): 1}), a1 * a2 + a1 * a1)


@pytest.mark.parametrize("exp", [(-1, 0), (MAX_EXP + 1, 0), (70000, 0), (1, 2, 3)])
def test_out_of_range_exponents_are_bad_data(exp):
    with pytest.raises(ValueError):
        Polynomial(2, {exp: 1})
    with pytest.raises(ValueError):
        poly_from_json([{"coeff": 1, "exp": list(exp)}], 2)


# -- the fused multiply-add kernel ----------------------------------------------


@st.composite
def three_polys(draw):
    rank = draw(st.integers(1, 8))
    return draw(polys(rank)), draw(polys(rank)), draw(polys(rank))


@SETTINGS
@given(three_polys())
def test_addmul_matches_sympy(pab):
    p, a, b = pab
    got = p.addmul(a, b)
    assert got == p + a * b
    assert sym(got) == sympy.expand(sym(p) + sym(a) * sym(b))
    assert 0 not in got.terms.values()


@SETTINGS
@given(three_polys())
def test_addmul_cancels_exactly(pab):
    p, a, b = pab
    zero = (-(a * b)).addmul(a, b)
    assert zero == Polynomial.zero(p.rank) and zero.is_zero() and not zero.terms
    assert (p - a * b).addmul(a, b) == p


def test_addmul_rejects_rank_mismatch():
    p2, p3 = Polynomial.variable(2, 1), Polynomial.variable(3, 1)
    for s, a, b in ((p2, p2, p3), (p2, p3, p2), (p3, p2, p2)):
        with pytest.raises(ValueError):
            s.addmul(a, b)


def test_mul_into_accumulates_in_place_and_leaves_the_checks_to_addmul():
    a1, a2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    p, a = a1 * a2 + a2 * a2, a1 - a2
    out = dict(p._t)
    assert _mul_into(out, a._t, a2._t) is out  # adds a1*a2 - a2^2
    assert sorted(out.values()) == [0, 2]  # a2^2 cancelled and stays as a zero
    assert p == a1 * a2 + a2 * a2 and a == a1 - a2  # the factors are not touched
    got = p.addmul(a, a2)
    assert got == 2 * a1 * a2 and 0 not in got.terms.values()
    top = Polynomial(2, {(MAX_EXP, 3): 1})
    _mul_into({}, top._t, a1._t)  # unchecked: the set guard bit is the caller's to find
    with pytest.raises(OverflowError):
        Polynomial.zero(2).addmul(top, a1)


def test_addmul_past_the_field_limit_raises():
    a1, a2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    top = Polynomial(2, {(MAX_EXP, 3): 1})
    with pytest.raises(OverflowError):
        Polynomial.zero(2).addmul(top, a1)
    with pytest.raises(OverflowError):
        a2.addmul(a1 + a2, top)


# -- the substitution against a monomial-by-monomial reference -----------------


def ref_substitute(p: Polynomial, images, rank: int) -> Polynomial:
    """``p`` with ``a_{j+1}`` replaced by the linear form ``images[j]``, in ``rank``
    variables: each monomial expanded on its own, one factor at a time, on
    exponent tuples."""
    out = {}
    for exp, c in p.terms.items():
        image = {(0,) * rank: c}
        for j, x in enumerate(exp):
            for _ in range(x):
                nxt = {}
                for m, d in image.items():
                    for k, f in enumerate(images[j]):
                        if f:
                            key = m[:k] + (m[k] + 1,) + m[k + 1:]
                            nxt[key] = nxt.get(key, 0) + d * f
                image = nxt
        for m, d in image.items():
            out[m] = out.get(m, 0) + d
    return Polynomial(rank, out)


def y_images(rank):
    """a_i = y_{i+1} - y_i, in rank + 1 variables."""
    return [tuple(int(k == i + 1) - int(k == i) for k in range(rank + 1)) for i in range(rank)]


def ref_render(p: Polynomial, var: str) -> str:
    """``render``'s text, written out from the terms view: descending degree,
    then the reversed exponent tuple (the highest variable decides ties)."""
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0][::-1]), reverse=True)
    if not terms:
        return "0"
    parts = []
    for exp, c in terms:
        mono = "*".join(f"{var}{j + 1}" + (f"^{x}" if x > 1 else "") for j, x in enumerate(exp) if x)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_substitute_matches_the_reference_on_sparse_and_dense_images(rank):
    rng = random.Random(rank)
    for _ in range(25):
        p = random_poly(rng, rank, max_terms=8, max_exp=2)
        assert _substitute(p, y_images(rank), rank + 1) == ref_substitute(p, y_images(rank), rank + 1)
        for n in (rank, rank + 1):
            dense = [tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n)) for _ in range(rank)]
            assert _substitute(p, dense, n) == ref_substitute(p, dense, n)


def test_act_matches_the_reference_on_every_element_of_a3_and_b3():
    rng = random.Random(29)
    for label in ("A3", "B3"):
        rs = named(label)
        for w in rs.elements():
            images = [w.act(a) for a in rs.simple_roots]  # w(alpha_j)
            for _ in range(2):
                p = random_poly(rng, rs.rank, max_terms=6, max_exp=3)
                assert act(w, p) == ref_substitute(p, images, rs.rank), (label, w)


@pytest.mark.parametrize("v,terms", [("413265", 116), ("512463", 155), ("516243", 317)])
def test_y_render_of_a5_restrictions_matches_the_reference(v, terms):
    """The first elements of A5, in enumeration order, whose restriction at
    w0 has 116, 155 and 317 terms."""
    rs = named("A5")
    p = restrict(perm_to_element(rs, tuple(map(int, v))), rs.longest_element())
    assert len(p.terms) == terms
    assert render(p) == ref_render(p, "a")
    assert render(p, "y") == ref_render(ref_substitute(p, y_images(5), 6), "y")


@pytest.mark.parametrize("rank", [1, 2, 3, 5, 8])
def test_sorted_terms_is_the_sort_by_degree_then_key(rank):
    rng = random.Random(100 + rank)
    for _ in range(30):
        p = random_poly(rng, rank, max_terms=10, max_exp=4, max_coeff=9)
        keys = sorted(p._t, key=lambda e: (_degree(e), e), reverse=True)
        assert p.sorted_terms() == [(_unpack(e, rank), p._t[e]) for e in keys]


def test_substitute_at_the_field_limit_is_exact_and_past_it_raises():
    top = Polynomial(2, {(MAX_EXP, 0): 1})
    assert _substitute(top, [(0, 1), (1, 0)], 2) == Polynomial(2, {(0, MAX_EXP): 1})
    # three fields of 50,000 land in one: past 2**17, so a late check would see a carry
    p = Polynomial(3, {(50000, 50000, 50000): 1})
    with pytest.raises(OverflowError):
        _substitute(p, [(1, 0)] * 3, 2)
