"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 1-3 reproduce the worked structure-constant computations exactly
(values, intermediates, and the traced rule sequence) under their stated
time budgets; 4 pins down restriction word-independence; 5 is the master
engine-equivalence sweep; 6-8 are the operator, positivity, and ordinary
triple-recurrence property suites, exhaustive at desk scale.

Timing-sensitive criteria build fresh groups (cold caches); the rest
share warm session fixtures.
"""

import itertools
import random
import time

import pytest

from schubertcalc import (
    Polynomial,
    all_reduced_words,
    chern_class,
    chern_times_schubert,
    coeff_pairing,
    covers,
    expand_in_schubert,
    is_gkm,
    left_dd,
    leibniz_check,
    lemma_cover_sweep,
    named,
    ordinary_recurrence_check,
    perm_to_element,
    render,
    restrict,
    right_act,
    right_dd,
    schubert_class,
    structure_constant,
    trace_constant,
    triple_constant,
    verify_sweep,
)

from conftest import perm


def _report(number, description, body):
    try:
        detail = body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{suffix}")


@pytest.fixture(scope="module")
def sweeps(s3, s4, b2, g2):
    """Shared engine-equivalence sweeps, reused by criteria 5 and 7."""
    return {
        "A2": verify_sweep(s3),
        "A3": verify_sweep(s4),
        "B2": verify_sweep(b2),
        "G2": verify_sweep(g2),
    }


def test_acceptance_1_worked_example_s4():
    def body():
        rs = named("A3")  # fresh group: cold caches for the timing
        p = lambda s: perm_to_element(rs, tuple(int(c) for c in s))
        t0 = time.perf_counter()
        value = structure_constant(p("1234"), p("2413"), p("2413"))
        elapsed = time.perf_counter() - t0
        assert value == Polynomial.one(3)
        assert elapsed < 1.0

        node = trace_constant(p("1234"), p("2413"), p("2413"), first_r=2)
        assert (node.rule, node.chosen_r) == ("dc-cycle-A", 2)
        inner = node.children[0][1]
        assert (inner.rule, inner.chosen_r) == ("recurrence", 1)
        assert inner.key.w.one_line() == (1, 3, 2, 4)

        vanishing = [
            ("3124", "2143", "4213"),
            ("3124", "1243", "2413"),
            ("1423", "1243", "2413"),
        ]
        for w, v, u in vanishing:
            assert structure_constant(p(w), p(v), p(u)).is_zero()
        inner_keys = {
            (ch.key.w.one_line(), ch.key.v.one_line(), ch.key.u.one_line()): ch.value
            for _, ch in inner.children
        }
        for w, v, u in vanishing:
            key = tuple(tuple(int(c) for c in x) for x in (w, v, u))
            assert key in inner_keys and inner_keys[key].is_zero()
        return f"value 1 in {elapsed * 1000:.0f} ms; trace rules dc-cycle(23), recurrence(12)"

    _report(1, "worked ordinary constant in S_4 with traced derivation", body)


def test_acceptance_2_worked_example_s6():
    def body():
        rs = named("A5")  # fresh group: cold caches for the timing
        p = lambda s: perm_to_element(rs, tuple(int(c) for c in s))
        t0 = time.perf_counter()
        value = structure_constant(p("532164"), p("132546"), p("642153"))
        elapsed = time.perf_counter() - t0
        assert value == Polynomial.integer(5, 2)
        assert elapsed < 10.0

        # displayed intermediate, queried individually
        assert structure_constant(p("653241"), p("123546"), p("654231")) == Polynomial.one(5)

        # the final assembly is 2 = 1 + 1 at the root recurrence
        node = trace_constant(p("532164"), p("132546"), p("642153"))
        assert node.rule == "recurrence"
        nonzero = [ch.value for _, ch in node.children if not ch.value.is_zero()]
        assert sorted(render(x) for x in nonzero) == ["1", "1"]

        # the length-13 target printed alongside this example elsewhere is
        # unreachable in degree 10 and must give zero
        assert structure_constant(p("532164"), p("132546"), p("645231")).is_zero()
        return f"value 2 in {elapsed * 1000:.0f} ms; 2 = 1 + 1"

    _report(2, "worked ordinary constant in S_6 with intermediates", body)


def test_acceptance_3_worked_example_s3_equivariant(s3):
    def body():
        value = structure_constant(perm(s3, "231"), perm(s3, "213"), perm(s3, "231"))
        assert render(value, "y") == "y2 - y1"
        base1 = structure_constant(perm(s3, "321"), perm(s3, "213"), perm(s3, "321"))
        assert render(base1, "y") == "y3 - y1"
        base2 = structure_constant(perm(s3, "321"), perm(s3, "123"), perm(s3, "321"))
        assert base2 == Polynomial.one(2)
        return "c = y2 - y1 with base constants y3 - y1 and 1"

    _report(3, "worked equivariant constant in S_3 with base intermediates", body)


def test_acceptance_4_restriction_word_independence(s3, s4):
    def body():
        v, w0 = perm(s3, "213"), perm(s3, "321")
        words = all_reduced_words(w0)
        assert len(words) == 2
        values = [restrict(v, w0, word=word) for word in words]
        assert values[0] == values[1]
        assert render(values[0], "y") == "y3 - y1"

        checked = 0
        for w in s4.elements():
            wws = all_reduced_words(w)
            for u in s4.elements():
                expect = restrict(u, w)
                for word in wws:
                    assert restrict(u, w, word=word) == expect
                    checked += 1
        return f"two words of 321 agree; {checked} word/point pairs in S_4"

    _report(4, "restriction is reduced-word independent (S_3 example, full S_4 sweep)", body)


def test_acceptance_5_engine_equivalence(sweeps):
    def body():
        expected = {"A2": 216, "A3": 13824, "B2": 512, "G2": 1728}
        for label, count in expected.items():
            report = sweeps[label]
            assert report.triples == count, (label, report.triples)
            assert report.ok, (label, report.mismatches[:3])
        assert sweeps["A3"].elapsed_ms < 300_000
        timing = ", ".join(f"{k} {v.elapsed_ms:.0f}ms" for k, v in sweeps.items())
        return f"0 mismatches on 16280 triples ({timing})"

    _report(5, "recurrence equals oracle on every triple in S_3, S_4, B_2, G_2", body)


def test_acceptance_6_operator_property_suites(s3, s4, b2, g2):
    def body():
        groups = (s4, b2, g2)
        # GKM conditions for Schubert classes and all operator outputs
        for rs in groups:
            for w in rs.elements():
                S = schubert_class(w)
                assert is_gkm(S)
                for i in range(1, rs.rank + 1):
                    alpha = rs.simple_root(i)
                    assert is_gkm(left_dd(alpha, S))
                    assert is_gkm(right_dd(alpha, S))
                    assert is_gkm(right_act(rs.simple_reflection(i), S))
            for i in range(1, rs.rank + 1):
                assert is_gkm(chern_class(rs, rs.simple_root(i)))

        # divided differences act on the Schubert basis by shifting the index
        for rs in groups:
            for w in rs.elements():
                S = schubert_class(w)
                for i in range(1, rs.rank + 1):
                    alpha = rs.simple_root(i)
                    r = rs.simple_reflection(i)
                    expect_l = schubert_class(r * w) if (r * w).length < w.length else None
                    got_l = left_dd(alpha, S)
                    assert got_l == expect_l if expect_l else got_l.is_zero()
                    expect_r = schubert_class(w * r) if (w * r).length < w.length else None
                    got_r = right_dd(alpha, S)
                    assert got_r == expect_r if expect_r else got_r.is_zero()

        # left and right divided differences commute
        for rs in (s3, s4, b2):
            for w in rs.elements():
                S = schubert_class(w)
                for i in range(1, rs.rank + 1):
                    for j in range(1, rs.rank + 1):
                        ai, aj = rs.simple_root(i), rs.simple_root(j)
                        assert left_dd(aj, right_dd(ai, S)) == right_dd(ai, left_dd(aj, S))

        # Leibniz identity on 100 random class pairs (60 in S_3, 40 in B_2)
        rng = random.Random(2024)

        def random_class(rs):
            total = schubert_class(rs.identity) * 0
            for w in rs.elements():
                c = rng.randint(-3, 3)
                if c:
                    coeff = Polynomial.integer(rs.rank, c)
                    if rng.random() < 0.25:
                        coeff = coeff * Polynomial.variable(rs.rank, rng.randint(1, rs.rank))
                    total = total + schubert_class(w) * coeff
            return total

        pairs = 0
        for rs, n in ((s3, 60), (b2, 40)):
            for _ in range(n):
                p, q = random_class(rs), random_class(rs)
                i = rng.randint(1, rs.rank)
                assert leibniz_check(rs.simple_root(i), p, q)
                pairs += 1
        assert pairs == 100

        # Chern multiplication closed form against the oracle everywhere
        for rs in groups:
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                c = chern_class(rs, alpha)
                for w in rs.elements():
                    closed = chern_times_schubert(rs, alpha, w)
                    direct = expand_in_schubert(c * schubert_class(w))
                    assert closed == direct

        # right action by every simple reflection against its closed form
        from test_oracle import corollary_right_act_expansion

        for rs in groups:
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i)
                r = rs.simple_reflection(i)
                for w in rs.elements():
                    got = expand_in_schubert(right_act(r, schubert_class(w)))
                    assert got == corollary_right_act_expansion(rs, alpha, w)

        # cover-ratio identity and removable-letter uniqueness over S_4
        cover_report = lemma_cover_sweep(s4)
        assert cover_report.ok
        return (
            f"GKM/dd/Leibniz/Chern/right-action checks on S_4, B_2, G_2; "
            f"{cover_report.covers_checked} covers, {cover_report.words_checked} words"
        )

    _report(6, "operator property suites pass exhaustively at desk scale", body)


def test_acceptance_7_positivity(sweeps, s4, s5):
    def body():
        # ordinary constants in S_4 are nonnegative integers
        assert sweeps["A3"].ordinary_violations == []
        # equivariant constants in S_3, S_4, B_2 have nonnegative coefficients
        for label in ("A2", "A3", "B2"):
            assert sweeps[label].coeff_violations == []

        # anti-Grassmannian recurrence applications carry no negative weights
        checked = 0
        for rs in (s4, s5):
            for w in rs.elements():
                line = w.one_line()
                ascents = [i for i in range(1, rs.rank + 1) if line[i - 1] < line[i]]
                if len(ascents) != 1:
                    continue
                r_idx = ascents[0]
                alpha = rs.simple_root(r_idx)
                r = rs.simple_reflection(r_idx)
                for wp, beta in covers(w):
                    if wp == w * r:
                        continue
                    assert coeff_pairing(rs, alpha, beta) >= 0, (line, beta)
                    checked += 1
        return f"no negative values, coefficients, or weights ({checked} cover weights)"

    _report(7, "positivity: ordinary, coefficientwise, and anti-Grassmannian", body)


def test_acceptance_8_ordinary_triple_recurrence(s3, s4):
    def body():
        instances = 0
        for rs in (s3, s4):
            n = len(rs.positive_roots)
            for w, v, u in itertools.product(rs.elements(), repeat=3):
                if w.length + v.length + u.length + 2 != n:
                    continue
                for r_idx in range(1, rs.rank + 1):
                    if all(x.right_ascent(r_idx) for x in (w, v, u)):
                        assert ordinary_recurrence_check(w, v, u, r_idx)
                        instances += 1
        assert instances > 0

        symmetric = 0
        for rs in (s3, s4):
            n = len(rs.positive_roots)
            for w, v, u in itertools.product(rs.elements(), repeat=3):
                if w.length + v.length + u.length != n:
                    continue
                vals = {triple_constant(*t) for t in itertools.permutations((w, v, u))}
                assert len(vals) == 1, (w, v, u, vals)
                symmetric += 1
        return f"{instances} recurrence instances via oracle; {symmetric} symmetric triples"

    _report(8, "ordinary triple recurrence and full triple symmetry in S_3, S_4", body)
