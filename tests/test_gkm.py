"""GKM classes, group actions, divided differences, Chern multiplication."""

import random

import pytest

from schubertcalc import (
    GkmClass,
    NotDivisibleError,
    Polynomial,
    act,
    build,
    chern_class,
    chern_times_schubert,
    divide_exact,
    expand_in_schubert,
    gkm,
    gkm_violation,
    is_gkm,
    left_dd,
    leibniz_check,
    named,
    right_act,
    right_dd,
    schubert_class,
    word_to_element,
)

from conftest import perm


def random_class(rng, rs, poly_coeffs=False):
    """Random base-ring combination of Schubert classes (hence a class)."""
    total = None
    for w in rs.elements():
        c = rng.randint(-3, 3)
        if c == 0:
            continue
        coeff = Polynomial.integer(rs.rank, c)
        if poly_coeffs and rng.random() < 0.3:
            coeff = coeff * Polynomial.variable(rs.rank, rng.randint(1, rs.rank))
        term = schubert_class(w) * coeff
        total = term if total is None else total + term
    return total if total is not None else schubert_class(rs.identity) * 0


# -- GKM conditions -------------------------------------------------------------


def test_constant_class_is_gkm(s3):
    c = GkmClass(s3, [Polynomial.integer(2, 7)] * s3.order())
    assert is_gkm(c)


def test_every_schubert_class_is_gkm(s3, s4, b2, g2):
    for rs in (s3, s4, b2, g2):
        for w in rs.elements():
            assert is_gkm(schubert_class(w))


def test_gkm_violation_witness(a1):
    s1 = a1.simple_reflection(1)
    broken = GkmClass(a1, [Polynomial.zero(1), Polynomial.one(1)])
    witness = gkm_violation(broken)
    assert witness is not None
    v, beta = witness
    assert beta == a1.simple_root(1)
    assert not is_gkm(broken)


# -- actions ---------------------------------------------------------------------


def test_left_act_identity_and_invariance(s3):
    def left_act(w, p):
        """``(w . p)|_v = w . (p|_{w^-1 v})``, the left action on classes."""
        winv = w.inverse()
        return GkmClass.from_function(p.rs, lambda v: act(w, p.value(winv * v)))

    p = schubert_class(perm(s3, "213"))
    assert left_act(s3.identity, p) == p
    c = chern_class(s3, s3.simple_root(1))
    for w in s3.elements():
        assert left_act(w, c) == c


def test_right_act_fixes_schubert_on_ascent(s3, s4):
    for rs in (s3, s4):
        for w in rs.elements():
            for i in range(1, rs.rank + 1):
                if w.right_ascent(i):
                    S = schubert_class(w)
                    assert right_act(rs.simple_reflection(i), S) == S


def test_right_act_pointwise_small():
    # derived by hand at the two fixed points of the rank-1 group
    a1sys = named("A1")
    s1 = a1sys.simple_reflection(1)
    S = schubert_class(s1)
    moved = right_act(s1, S)
    assert moved.value(a1sys.identity) == Polynomial.variable(1, 1)
    assert moved.value(s1).is_zero()
    # and it matches the closed form S - c_{-a} dd(S)
    al = a1sys.simple_root(1)
    assert moved == S - chern_class(a1sys, al) * right_dd(al, S)


def test_right_act_is_module_automorphism(s3):
    rng = random.Random(6)
    for _ in range(10):
        p = random_class(rng, s3)
        q = random_class(rng, s3)
        w = rng.choice(s3.elements())
        assert right_act(w, p * q) == right_act(w, p) * right_act(w, q)
        assert is_gkm(right_act(w, p))


# -- Chern classes -----------------------------------------------------------------


def test_chern_class_values(s3):
    a1 = s3.simple_root(1)
    c = chern_class(s3, a1)
    assert c.value(s3.identity) == -Polynomial.variable(2, 1)
    # w0 flips the diagram: w0 . alpha_1 = -alpha_2
    assert c.value(s3.longest_element()) == Polynomial.variable(2, 2)
    assert is_gkm(c)
    with pytest.raises(ValueError, match=r"\(1, 1\) is not a simple root of this system"):
        chern_class(s3, (1, 1))  # alpha_1 + alpha_2


# -- divided differences ------------------------------------------------------------


def test_left_dd_on_constants(s3):
    c = GkmClass(s3, [Polynomial.integer(2, 5)] * s3.order())
    assert left_dd(s3.simple_root(1), c).is_zero()


def test_dd_on_schubert_classes(s3, s4, b2):
    for rs in (s3, s4, b2):
        for w in rs.elements():
            S = schubert_class(w)
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                r = rs.simple_reflection(i)
                ld = left_dd(alpha, S)
                if (r * w).length < w.length:
                    assert ld == schubert_class(r * w)
                else:
                    assert ld.is_zero()
                rd = right_dd(alpha, S)
                if (w * r).length < w.length:
                    assert rd == schubert_class(w * r)
                else:
                    assert rd.is_zero()


def test_dd_outputs_are_classes_and_lower_degree(s4, b2, g2):
    for rs in (s4, b2, g2):
        for w in rs.elements():
            if w.length == 0:
                continue
            S = schubert_class(w)
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                for out in (left_dd(alpha, S), right_dd(alpha, S)):
                    assert is_gkm(out)
                    if not out.is_zero():
                        assert out.homogeneous_degree() == w.length - 1


def test_dd_commutativity(s3, s4, b2):
    for rs in (s3, s4, b2):
        for w in rs.elements():
            S = schubert_class(w)
            for i in range(1, rs.rank + 1):
                for j in range(1, rs.rank + 1):
                    ai, aj = rs.simple_root(i), rs.simple_root(j)
                    assert left_dd(aj, right_dd(ai, S)) == right_dd(ai, left_dd(aj, S))


def test_right_dd_squares_to_zero(s3, b2):
    rng = random.Random(8)
    for rs in (s3, b2):
        for _ in range(6):
            p = random_class(rng, rs)
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                assert right_dd(alpha, right_dd(alpha, p)).is_zero()


def test_right_act_defining_relation(s3, b2):
    rng = random.Random(9)
    for rs in (s3, b2):
        for _ in range(6):
            p = random_class(rng, rs)
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                r = rs.simple_reflection(i)
                lhs = right_act(r, p)
                rhs = p - chern_class(rs, alpha) * right_dd(alpha, p)
                assert lhs == rhs


def test_dd_divide_no_zero_dividend(monkeypatch, s4, b2):
    """A zero pointwise difference is returned as it is, never divided."""
    dividends = []

    def spy(p, d):
        dividends.append(p)
        return divide_exact(p, d)

    monkeypatch.setattr(gkm, "divide_exact", spy)
    zeros = 0
    for rs in (s4, b2):
        for w in rs.elements():
            S = schubert_class(w)
            for alpha in rs.simple_roots:
                for dd in (left_dd, right_dd):
                    zeros += sum(v.is_zero() for v in dd(alpha, S).values)
    assert zeros and dividends and all(dividends)


def test_dd_rejects_non_class(a1):
    broken = GkmClass(a1, [Polynomial.zero(1), Polynomial.one(1)])
    with pytest.raises(NotDivisibleError):
        left_dd(a1.simple_root(1), broken)


# -- products and Chern multiplication ------------------------------------------------


def test_product_unit_and_support(s3):
    for w in s3.elements():
        S = schubert_class(w)
        assert S * schubert_class(s3.identity) == S
    w, v = perm(s3, "213"), perm(s3, "132")
    pq = schubert_class(w) * schubert_class(v)
    from schubertcalc import bruhat_leq

    for u in s3.elements():
        if not (bruhat_leq(w, u) and bruhat_leq(v, u)):
            assert pq.value(u).is_zero()


def test_square_of_simple_schubert_class(a1):
    s1 = a1.simple_reflection(1)
    sq = schubert_class(s1) * schubert_class(s1)
    assert sq.value(s1) == Polynomial.variable(1, 1) ** 2
    assert sq.value(a1.identity).is_zero()


def test_chern_times_schubert_identity_case(s3):
    exp = chern_times_schubert(s3, s3.simple_root(1), s3.identity)
    assert exp.coeff(s3.identity) == -Polynomial.variable(2, 1)
    assert exp.coeff(s3.simple_reflection(1)) == Polynomial.integer(2, 2)
    assert exp.coeff(s3.simple_reflection(2)) == Polynomial.integer(2, -1)


def test_chern_times_schubert_at_longest(s3):
    w0 = s3.longest_element()
    alpha = s3.simple_root(1)
    exp = chern_times_schubert(s3, alpha, w0)
    assert set(exp.coeffs) == {w0}
    assert exp.coeff(w0) == -Polynomial.linear(w0.act(alpha))


def test_chern_times_schubert_drops_zero_pairings(s4):
    w = perm(s4, "1324")
    exp = chern_times_schubert(s4, s4.simple_root(1), w)
    by_perm = {u.one_line(): c for u, c in exp.coeffs.items() if u != w}
    assert by_perm == {
        (3, 1, 2, 4): Polynomial.integer(3, 2),  # cover through alpha itself
        (2, 3, 1, 4): Polynomial.integer(3, 1),
        (1, 4, 2, 3): Polynomial.integer(3, -1),
    }
    assert (1, 3, 4, 2) not in by_perm  # pairing 0, omitted


def test_chern_times_schubert_vs_oracle(s4, b2, g2):
    for rs in (s4, b2, g2):
        for i in range(1, rs.rank + 1):
            alpha = rs.simple_root(i)
            c = chern_class(rs, alpha)
            for w in rs.elements():
                closed = chern_times_schubert(rs, alpha, w)
                direct = expand_in_schubert(c * schubert_class(w))
                assert closed == direct, (rs.type_label, i, w.describe())


def test_expansion_lists_its_terms_in_enumeration_order(s4, b2, g2):
    for rs in (s4, b2, g2, named("B3")):
        for i in range(1, rs.rank + 1):
            for w in rs.elements():
                exp = chern_times_schubert(rs, rs.simple_root(i), w)
                assert [u for u, _ in exp.items()] == sorted(exp.coeffs, key=rs.element_index)


def test_expansion_lists_its_terms_without_enumerating_the_group():
    from conftest import e8_cartan

    rs = build(e8_cartan(), type_label="E8")
    exp = chern_times_schubert(rs, rs.simple_root(4), word_to_element(rs, [1, 3, 4, 2]))
    assert [u.length for u, _ in exp.items()] == [4, 5, 5, 5]
    assert "elements" not in rs.caches


# -- Leibniz -----------------------------------------------------------------------


def test_leibniz_unit_case(s3):
    alpha = s3.simple_root(2)
    p = schubert_class(perm(s3, "231"))
    assert leibniz_check(alpha, p, schubert_class(s3.identity))


def test_leibniz_on_schubert_pairs(s3):
    for w in s3.elements():
        for v in s3.elements():
            for i in (1, 2):
                assert leibniz_check(s3.simple_root(i), schubert_class(w), schubert_class(v))


def test_leibniz_on_random_classes_b2(b2):
    rng = random.Random(12)
    for _ in range(20):
        p = random_class(rng, b2, poly_coeffs=True)
        q = random_class(rng, b2, poly_coeffs=True)
        for i in (1, 2):
            assert leibniz_check(b2.simple_root(i), p, q)


def test_homogeneity_tags(s3):
    for w in s3.elements():
        cls = schubert_class(w)
        if w.length:
            assert cls.homogeneous_degree() == w.length


def test_right_dd_kills_constant_classes(s3):
    const = GkmClass(s3, [Polynomial.integer(2, 4)] * s3.order())
    for i in (1, 2):
        assert right_dd(s3.simple_root(i), const).is_zero()


def test_class_with_a_value_per_element_too_few_or_too_many_is_refused(s3):
    one = Polynomial.one(2)
    for count in (s3.order() - 1, s3.order() + 1):
        with pytest.raises(ValueError, match="value list does not cover the whole group"):
            GkmClass(s3, [one] * count)
