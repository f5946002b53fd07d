"""The expansion oracle and the verification sweeps."""

import itertools
import random
import time

import pytest

from schubertcalc import (
    GkmClass,
    GroupTooLargeError,
    NonzeroResidualError,
    NotDivisibleError,
    Polynomial,
    SchubertExpansion,
    bottom_factors,
    bottom_restriction,
    chern_class,
    coeff_pairing,
    covers,
    divide_exact,
    expand_in_schubert,
    lemma_cover_sweep,
    named,
    oracle_constant,
    oracle_product,
    render,
    right_act,
    schubert_class,
    structure_constant,
    verify_sweep,
    word_to_element,
)
from schubertcalc import oracle as oracle_mod

from conftest import perm


def test_oracle_refuses_a_group_past_its_limit_before_building_a_class():
    rs = named("A6")
    assert rs.order() > oracle_mod.ORACLE_MAX_GROUP >= named("A5").order()
    w = rs.simple_reflection(1)
    for call in (lambda: oracle_product(w, w), lambda: oracle_constant(w, w, w)):
        with pytest.raises(GroupTooLargeError, match="exceeds the oracle's limit 720"):
            call()
    # refused before W was enumerated or any class or restriction column was built
    assert set(rs.caches) == {"bruhat"}



def test_a_short_product_builds_only_the_classes_below_its_factors_and_terms():
    """On a fresh A5 (|W| = 720), S_{s1 s2} * S_{s2 s3} builds the classes of its
    factors, of its terms and of what lies below them in right weak order, and
    no other, in a fraction of a second."""
    rs = named("A5")
    w, v = word_to_element(rs, (1, 2)), word_to_element(rs, (2, 3))
    start = time.perf_counter()
    expansion = oracle_product(w, v)
    assert time.perf_counter() - start < 1.0
    below, todo = set(), [w, v, *expansion.coeffs]
    while todo:
        x = todo.pop()
        if x not in below:
            below.add(x)
            todo += [x * rs.simple_reflection(i) for i in x.right_descents()]
    assert set(rs.cache("schubert")) == below and len(below) < 40

def test_expansion_of_basis_classes(s3, b2):
    for rs in (s3, b2):
        for w in rs.elements():
            exp = expand_in_schubert(schubert_class(w))
            assert exp.coeffs == {w: Polynomial.one(rs.rank)}


def test_expansion_rank1_square(a1):
    s1 = a1.simple_reflection(1)
    exp = expand_in_schubert(schubert_class(s1) * schubert_class(s1))
    assert exp.coeffs == {s1: Polynomial.variable(1, 1)}
    assert len(exp.coeffs) == 1


def test_expansion_chern_times_unit(s3):
    c = chern_class(s3, s3.simple_root(1))
    exp = expand_in_schubert(c * schubert_class(s3.identity))
    assert exp.coeff(s3.identity) == -Polynomial.variable(2, 1)
    assert exp.coeff(s3.simple_reflection(1)) == Polynomial.integer(2, 2)
    assert exp.coeff(s3.simple_reflection(2)) == Polynomial.integer(2, -1)
    assert len(exp.coeffs) == 3


def test_expansion_rebuild_roundtrip(s3, s4):
    rng = random.Random(3)
    for rs in (s3, s4):
        for _ in range(5):
            coeffs = {}
            for w in rs.elements():
                c = rng.randint(-3, 3)
                if c:
                    coeffs[w] = Polynomial.integer(rs.rank, c)
            cls = None
            for w, c in coeffs.items():
                term = schubert_class(w) * c
                cls = term if cls is None else cls + term
            if cls is None:
                continue
            got = expand_in_schubert(cls)
            assert got == SchubertExpansion(rs, coeffs)


def test_expansion_rejects_non_class(a1):
    broken = GkmClass(a1, [Polynomial.zero(1), Polynomial.one(1)])
    with pytest.raises((NotDivisibleError, NonzeroResidualError)):
        expand_in_schubert(broken)


def test_oracle_constant_examples(s3, s4):
    assert oracle_constant(s3.identity, perm(s3, "213"), perm(s3, "213")) == 1
    got = oracle_constant(perm(s3, "231"), perm(s3, "213"), perm(s3, "231"))
    assert render(got, "y") == "y2 - y1"
    assert oracle_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413")) == 1


def test_oracle_constant_symmetric(s3):
    for w in s3.elements():
        for v in s3.elements():
            for u in s3.elements():
                assert oracle_constant(w, v, u) == oracle_constant(v, w, u)


def test_sweep_expands_each_unordered_pair_once(monkeypatch):
    expand = oracle_mod.expand_in_schubert
    calls = []

    def counted(p):
        calls.append(p)
        return expand(p)

    def ordered_expansion(w, v):
        """The oracle with one expansion per ordered pair."""
        cache = w.rs.cache("ordered_products")
        got = cache.get((w, v))
        if got is None:
            got = cache[(w, v)] = expand(schubert_class(w) * schubert_class(v))
        return got

    monkeypatch.setattr(oracle_mod, "expand_in_schubert", counted)
    report = verify_sweep(named("A3")).to_json()
    assert len(calls) == 24 * 25 // 2
    monkeypatch.setattr(oracle_mod, "oracle_product", ordered_expansion)
    expect = verify_sweep(named("A3")).to_json()
    assert len(calls) == 24 * 25 // 2
    del report["elapsed_ms"], expect["elapsed_ms"]
    assert report == expect and report["triples"] == 13824


def corollary_right_act_expansion(rs, alpha, w):
    """Closed form for S_w . r_alpha as a Schubert expansion."""
    i = rs.simple_roots.index(alpha) + 1
    r = rs.simple_reflection(i)
    one = Polynomial.one(rs.rank)
    if (w * r).length > w.length:
        return SchubertExpansion(rs, {w: one})
    wr = w * r
    coeffs = {w: one, wr: -Polynomial.linear(w.act(alpha))}
    for wp, beta in covers(wr):
        m = coeff_pairing(rs, alpha, beta)
        if m:
            cur = coeffs.get(wp, Polynomial.zero(rs.rank))
            coeffs[wp] = cur - Polynomial.integer(rs.rank, m)
    return SchubertExpansion(rs, coeffs)


def test_right_action_matches_corollary(s4, b2, g2):
    for rs in (s4, b2, g2):
        for i in range(1, rs.rank + 1):
            alpha = rs.simple_root(i)
            r = rs.simple_reflection(i)
            for w in rs.elements():
                moved = right_act(r, schubert_class(w))
                got = expand_in_schubert(moved)
                assert got == corollary_right_act_expansion(rs, alpha, w), (
                    rs.type_label,
                    i,
                    w.describe(),
                )


def test_verify_sweep_s3(s3):
    report = verify_sweep(s3)
    assert report.triples == 216
    assert report.ok
    assert not report.ordinary_violations
    assert not report.coeff_violations
    data = report.to_json()
    assert data["triples"] == 216 and data["mismatches"] == []
    assert "elapsed_ms" in data and "max_coeff" in data


def test_verify_sweep_b2(b2):
    report = verify_sweep(b2)
    assert report.triples == 512 and report.ok


def test_verify_sweep_filters(s3):
    w = perm(s3, "213")
    report = verify_sweep(s3, ws=[w], vs=[w])
    assert report.triples == 6 and report.ok


def test_verify_sweep_cap(s6):
    with pytest.raises(GroupTooLargeError):
        verify_sweep(s6)
    # the override flag is honored (tiny filtered slice to keep it cheap)
    e = s6.identity
    report = verify_sweep(s6, ws=[e], vs=[e], force=True)
    assert report.triples == 720 and report.ok


def test_lemma_cover_sweep(s3, s4, b2):
    for rs in (s3, s4, b2):
        report = lemma_cover_sweep(rs)
        assert report.ok
        assert report.covers_checked > 0
        assert report.words_checked >= report.covers_checked
    # identity sits under every simple reflection; nothing below it to check
    assert not covers(s3.longest_element())


def test_sweep_agrees_with_direct_queries(s3):
    report = verify_sweep(s3)
    assert report.max_coeff >= 1
    w, v, u = perm(s3, "231"), perm(s3, "213"), perm(s3, "231")
    assert structure_constant(w, v, u) == oracle_constant(w, v, u)


# -- value sharing: each distinct product is formed once, every point updated --


def naive_expansion(p):
    """Reference elimination: one ``addmul`` per point of the support, no grouping."""
    rs = p.rs
    residual = list(p.values)
    coeffs = {}
    for idx, w in enumerate(rs.elements()):
        if residual[idx].is_zero():
            continue
        coeff = residual[idx]
        for beta in bottom_factors(w):
            coeff = divide_exact(coeff, beta)
        coeffs[w] = coeff
        for j, sv in enumerate(schubert_class(w).values):
            if sv:
                residual[j] = residual[j].addmul(-coeff, sv)
    assert not any(residual)
    return SchubertExpansion(rs, coeffs), len(coeffs)


def pointwise(p, q):
    return GkmClass(p.rs, [a * b for a, b in zip(p.values, q.values)])


def test_expansion_matches_naive_elimination():
    """The reference divides in canonical order and updates one point at a time,
    so it also guards the division order and the in-place residuals."""
    rng = random.Random(5)
    for label in ("A3", "B2", "G2", "C3", "B3", "A4"):
        rs = named(label)
        pairs = list(itertools.combinations_with_replacement(rs.elements(), 2))
        if label in ("B3", "A4"):
            pairs = rng.sample(pairs, 100)
        for w, v in pairs:
            exp = expand_in_schubert(schubert_class(w) * schubert_class(v))
            expect, steps = naive_expansion(pointwise(schubert_class(w), schubert_class(v)))
            assert (exp, len(exp.coeffs)) == (expect, steps), (label, w, v)


def test_an_indivisible_residual_raises_not_divisible():
    """A residual that is not a multiple of ``S_u|_u`` fails the exact division at ``u``."""
    for label in ("A3", "B3"):
        rs = named(label)
        for u in rs.elements():
            if u.length < 2:
                continue
            values = list(schubert_class(u).values)
            k = rs.element_index(u)
            values[k] = values[k] + Polynomial.variable(rs.rank, 1) ** u.length
            with pytest.raises(NotDivisibleError):
                expand_in_schubert(GkmClass(rs, values))


def test_expansion_divides_once_per_step_with_no_table(monkeypatch):
    """One checked division per coefficient, by the bottom restriction itself."""
    calls = []

    def spy(p, d):
        q = divide_exact(p, d)
        calls.append((d, q))
        return q

    monkeypatch.setattr(oracle_mod, "divide_exact", spy)
    rs = named("B2")
    for w, v in itertools.product(rs.elements(), repeat=2):
        calls.clear()
        expansion = expand_in_schubert(schubert_class(w) * schubert_class(v))
        assert len(calls) == len(expansion.coeffs), (w, v)
        for (d, q), (u, coeff) in zip(calls, expansion.items()):
            assert isinstance(d, Polynomial) and d == bottom_restriction(u) and q == coeff
    assert "division_order" not in rs.caches


def expand_against_planted(w_digits, corrupt):
    """Expand the true ``S_w`` of a fresh A2 after replacing the cached class of
    ``w`` by ``corrupt(values, index of w)``."""
    rs = named("A2")
    w = perm(rs, w_digits)
    genuine = schubert_class(w)
    values = list(genuine.values)
    rs.cache("schubert")[w] = GkmClass(rs, corrupt(values, rs.element_index(w)))
    return expand_in_schubert(genuine)


def test_class_nonzero_below_its_element_is_rejected():
    def below(values, k):
        values[k - 1] = values[k]
        return values

    with pytest.raises(NonzeroResidualError):
        expand_against_planted("231", below)


def test_class_with_wrong_bottom_value_is_rejected():
    def doubled(values, k):
        values[k] = values[k].scale(2)
        return values

    with pytest.raises(NonzeroResidualError):
        expand_against_planted("231", doubled)
    assert len(expand_against_planted("231", lambda values, k: values).coeffs) == 1


def test_class_product_multiplies_each_distinct_value_pair_once(s4, monkeypatch):
    addmul = Polynomial.addmul
    calls = []

    def counted(self, a, b):
        calls.append((a, b))
        return addmul(self, a, b)

    for w in s4.elements():
        for v in s4.elements():
            p, q = schubert_class(w), schubert_class(v)
            expect = pointwise(p, q)
            calls.clear()
            monkeypatch.setattr(Polynomial, "addmul", counted)
            got = p * q
            monkeypatch.setattr(Polynomial, "addmul", addmul)
            assert got == expect
            # one product per distinct pair of nonzero values, none with a zero factor
            nonzero = {(a, b) for a, b in zip(p.values, q.values) if a and b}
            assert len(calls) == len(nonzero) and set(calls) == nonzero


def test_corrupted_point_fails_despite_shared_values(s4):
    """Each point keeps its own residual: a corrupted point is never overwritten
    by the result of a point that shares its value, so the elimination fails
    there, dividing a constant by the bottom factors of ``x``."""
    checked = 0
    for w, v in [(perm(s4, "2134"), perm(s4, "1324")), (perm(s4, "1243"), perm(s4, "2143"))]:
        values = (schubert_class(w) * schubert_class(v)).values
        for x in s4.elements():
            k = s4.element_index(x)
            if x.length <= w.length + v.length or values.count(values[k]) < 2:
                continue
            corrupt = list(values)
            corrupt[k] = corrupt[k] + Polynomial.one(s4.rank)
            with pytest.raises(NotDivisibleError):
                expand_in_schubert(GkmClass(s4, corrupt))
            checked += 1
    assert checked >= 10
