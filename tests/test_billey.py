"""Fixed-point restrictions: the subword formula and its invariants.

The independent oracle here enumerates all 2^l subsets of a reduced word
directly from the operator-product semantics, with no dynamic programming
shared with the library path.
"""

import itertools
import random
import time

import pytest

from schubertcalc import (
    Polynomial,
    act,
    all_reduced_words,
    base_constant,
    bottom_factors,
    bottom_restriction,
    bruhat_leq,
    covers,
    named,
    render,
    restrict,
    restrict_all,
    schubert_class,
    word_to_element,
)

from schubertcalc.billey import _billey_pass

from conftest import perm


def brute_restrict(v, w, word=None):
    """Sum over all reduced subwords with product v, by full subset scan."""
    rs = v.rs
    word = word if word is not None else w.reduced_word()
    total = Polynomial.zero(rs.rank)
    prefixes = [rs.identity]
    for i in word:
        prefixes.append(prefixes[-1] * rs.simple_reflection(i))
    for k in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), k):
            x = rs.identity
            ok = True
            factor = Polynomial.one(rs.rank)
            for p in positions:
                y = x * rs.simple_reflection(word[p])
                if y.length != x.length + 1:
                    ok = False
                    break
                factor = factor.times_linear(
                    prefixes[p].act(rs.simple_root(word[p]))
                )
                x = y
            if ok and x == v:
                total = total + factor
    return total


def test_restriction_known_value(s3):
    v, w = perm(s3, "213"), perm(s3, "321")
    assert render(restrict(v, w), "y") == "y3 - y1"
    assert restrict(s3.identity, w) == Polynomial.one(2)
    assert restrict(w, v).is_zero()


def test_restriction_both_words_of_longest(s3):
    v, w0 = perm(s3, "213"), perm(s3, "321")
    words = all_reduced_words(w0)
    assert len(words) == 2
    values = {restrict(v, w0, word=word) for word in words}
    assert len(values) == 1
    assert render(values.pop(), "y") == "y3 - y1"


def test_reduced_word_independence_full_s4(s4):
    for w in s4.elements():
        words = all_reduced_words(w)
        for v in s4.elements():
            expect = restrict(v, w)
            for word in words:
                assert restrict(v, w, word=word) == expect


def test_restriction_against_brute_force(s3, b2):
    for rs in (s3, b2):
        for w in rs.elements():
            for v in rs.elements():
                assert restrict(v, w) == brute_restrict(v, w)


def test_support_and_homogeneity_s4(s4):
    for w in s4.elements():
        table = restrict_all(w)
        for v in s4.elements():
            val = restrict(v, w)
            if not val.is_zero():
                assert bruhat_leq(v, w)
                assert val.homogeneous_degree() == v.length
            assert table.get(v, Polynomial.zero(3)) == val


def test_graham_positivity_of_restrictions_s4(s4):
    for w in s4.elements():
        for v, val in restrict_all(w).items():
            assert all(c >= 0 for c in val.terms.values()), (v, w)


def test_restrict_all_fills_every_prefix_of_the_canonical_word_once():
    """One column per prefix, shortest first, each one letter on the last."""
    rs = named("B3")
    w0 = rs.longest_element()
    col = restrict_all(w0)
    word = w0.reduced_word()
    table = rs.cache("restrict_all")
    assert list(table) == [word_to_element(rs, word[:k]) for k in range(len(word) + 1)]
    assert table[w0] is col and table[rs.identity] == {rs.identity: 1}
    for v in rs.elements():
        assert col[v] == brute_restrict(v, w0)


def test_bottom_restriction(s3, s4, b2, g2):
    a1 = Polynomial.variable(2, 1)
    a2 = Polynomial.variable(2, 2)
    assert bottom_restriction(s3.identity) == Polynomial.one(2)
    assert bottom_restriction(perm(s3, "321")) == a1 * a2 * (a1 + a2)
    for rs in (s3, s4, b2, g2):
        for w in rs.elements():
            assert bottom_restriction(w) == restrict(w, w)
            assert len(bottom_factors(w)) == w.length


def test_cover_ratio(s4, b2):
    for rs in (s4, b2):
        for w in rs.elements():
            for wp, beta in covers(w):
                lhs = bottom_restriction(wp)
                rhs = restrict(w, wp).times_linear(w.act(beta))
                assert lhs == rhs


def test_schubert_class_values(s3, a1):
    cls = schubert_class(perm(s3, "213"))
    assert cls.value(s3.identity).is_zero()
    assert cls.value(perm(s3, "132")).is_zero()
    assert cls.value(perm(s3, "213")) == Polynomial.variable(2, 1)
    assert render(cls.value(perm(s3, "321")), "y") == "y3 - y1"

    assert all(p == Polynomial.one(2) for p in schubert_class(s3.identity).values)

    s1 = a1.simple_reflection(1)
    cls1 = schubert_class(s1)
    assert cls1.value(a1.identity).is_zero()
    assert cls1.value(s1) == Polynomial.variable(1, 1)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_schubert_class_is_the_row_of_every_restriction_column(label):
    """On a fresh group, each class reads the per-group column list in
    canonical order: its value at v is S_w|_v, read from the column at v, else zero."""
    rs = named(label)
    zero = Polynomial.zero(rs.rank)
    for w in rs.elements():
        expect = tuple(restrict_all(v).get(w, zero) for v in rs.elements())
        assert schubert_class(w).values == expect


def test_base_constants(s3):
    assert base_constant(s3.identity) == Polynomial.one(2)
    assert render(base_constant(perm(s3, "213")), "y") == "y3 - y1"
    w0 = perm(s3, "321")
    assert base_constant(w0) == bottom_restriction(w0)


def test_restrict_rejects_unreduced_word(s3):
    try:
        restrict(perm(s3, "213"), perm(s3, "321"), word=(1, 1, 2))
    except ValueError:
        pass
    else:
        raise AssertionError("unreduced word must be rejected")


def test_restrict_rejects_a_reduced_word_of_another_element(s3):
    v, w = perm(s3, "213"), perm(s3, "231")
    other = perm(s3, "312").reduced_word()
    assert len(other) == w.length
    with pytest.raises(ValueError, match="word does not multiply to the requested element"):
        restrict(v, w, word=other)



@pytest.mark.parametrize("word,letter", [([1.5], "1.5"), ([True], "True")])
def test_restrict_refuses_a_word_letter_that_is_not_an_int(s3, word, letter):
    """1.5 and True are not read as the letter 1 of the word of s1."""
    s1 = s3.simple_reflection(1)
    with pytest.raises(ValueError, match=f"^word letter {letter} is not an int$"):
        restrict(s1, s1, word=word)


def test_restriction_in_b2_is_word_independent(b2):
    for w in b2.elements():
        for v in b2.elements():
            vals = {restrict(v, w, word=word) for word in all_reduced_words(w)}
            assert len(vals) == 1


def test_bottom_factors_match_the_matrix_definition():
    for label in ("A3", "B3", "C3", "G2"):
        rs = named(label)
        for w in rs.elements():
            expect = [b for b in rs.positive_roots if min(w.inverse().act(b)) < 0]
            assert bottom_factors(w) == expect, (label, w)


def test_bottom_factors_multiply_to_the_bottom_restriction():
    for label in ("A3", "B3", "G2"):
        rs = named(label)
        for w in rs.elements():
            got = Polynomial.one(rs.rank)
            for f in bottom_factors(w):
                got = got.times_linear(f)
            assert got == bottom_restriction(w), (label, w)


def test_shared_table_columns_match_independent_passes():
    """Every column of the shared table, against passes that do not read it.

    ``restrict(..., word=...)`` runs its own pass; the word is a
    non-canonical reduced word whenever ``w`` has one.  In the groups of
    order at most 24 the subset scan checks the same values.  Filling the
    table from the longest element down makes the first calls walk down
    long prefix chains.
    """
    for label in ("A3", "B3", "C3", "G2"):
        rs = named(label)
        zero = Polynomial.zero(rs.rank)
        for w in reversed(rs.elements()):
            col = restrict_all(w)
            assert set(col) == {v for v in rs.elements() if bruhat_leq(v, w)}
            words = all_reduced_words(w)
            word = next((x for x in words if x != w.reduced_word()), words[0])
            for v in rs.elements():
                expect = restrict(v, w, word=word)
                assert col.get(v, zero) == expect, (label, v, w)
                if rs.order() <= 24:
                    assert expect == brute_restrict(v, w, word)


def test_pruned_pass_matches_the_table_on_fresh_groups():
    """``restrict(v, w)`` on a group whose table is empty runs the pruned pass;
    each value must equal the table column built on a separate fresh group.
    Every pair in the small groups, every ``v`` at ``w0`` in A4, B4 and D4."""
    t0 = time.perf_counter()
    for label in ("A3", "B3", "C3", "G2", "A4", "B4", "D4"):
        rs, ref = named(label), named(label)
        zero = Polynomial.zero(rs.rank)
        for w in [rs.longest_element()] if rs.rank == 4 else rs.elements():
            col = restrict_all(word_to_element(ref, w.reduced_word()))
            for v in rs.elements():
                expect = col.get(word_to_element(ref, v.reduced_word()), zero)
                assert restrict(v, w) == expect, (label, v, w)
        assert not rs.cache("restrict_all")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f} s for the pruned passes and their tables"


def test_base_constant_builds_no_matrix():
    """The pass carries its factor roots along the word: on a fresh group the
    identity keeps the only matrix."""
    for label in ("A4", "B4", "D4", "F4", "G2"):
        rs = named(label)
        word = rs.longest_element().reduced_word()
        for v in ((1,), (1, 2, 1), word[: len(word) // 2], word[len(word) // 2:]):
            base_constant(word_to_element(rs, v))
        assert [w for w in rs._pool.values() if w._mat is not None] == [rs.identity], label


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4"])
def test_restrict_at_w0_without_a_table_matches_the_column_of_the_same_group(label):
    """``restrict(v, w0)`` on a group without the column runs the pass; the column
    at w0, filled afterwards on the same group, must hold the same value for every v."""
    rs = named(label)
    w0 = rs.longest_element()
    got = {v: restrict(v, w0) for v in rs.elements()}
    assert not rs.cache("restrict_all")
    assert got == restrict_all(w0)


@pytest.mark.parametrize("word", [False, True])
def test_restrict_of_an_element_not_below_w_is_zero_without_a_pass(word):
    """``v`` not below ``w`` is zero at once, without visiting the elements below
    ``v``: here all 46,080 elements of W(B6)."""
    rs = named("B6")
    w0, s1 = rs.longest_element(), word_to_element(rs, (1,))
    assert restrict(w0, s1, word=(1,) if word else None) == Polynomial.zero(6)
    assert len(rs._pool) < 100


def _random_reduced_word(w, rng):
    """A reduced word of ``w``, stripping a seeded choice of right descent at each step."""
    word = []
    while w.length:
        i = rng.choice(w.right_descents())
        word.append(i)
        w = w * w.rs.simple_reflection(i)
    return tuple(reversed(word))


@pytest.mark.parametrize("label,sample", [("A3", None), ("B3", None), ("C3", None), ("G2", None), ("D4", None), ("F4", 40)])
def test_base_pass_matches_the_w0_column(label, sample):
    """``_billey_pass(w0, v)`` stops after the last letter of v's support and
    carries only the changed columns; it must still equal the table's column at
    w0, built on a separate fresh group.  Every v, or a seeded sample in F4,
    whose whole column takes minutes this way."""
    rs, ref = named(label), named(label)
    col = restrict_all(ref.longest_element())
    elements = rs.elements()
    if sample:
        elements = [rs.identity] + random.Random(17).sample(elements, sample)
    for v in elements:
        expect = col[word_to_element(ref, v.reduced_word())]
        assert _billey_pass(rs.longest_element(), v) == expect, (label, v)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "B4"])
def test_restrict_over_seeded_words_of_w0_matches_the_table(label):
    """Non-canonical reduced words of w0 put v's last support letter anywhere."""
    rs = named(label)
    w0 = rs.longest_element()
    col = restrict_all(w0)
    rng = random.Random(label)
    simple = [rs.simple_reflection(i) for i in range(1, rs.rank + 1)]
    some = [rs.identity, *simple, *rng.sample(rs.elements(), 6)]
    for _ in range(4):
        word = _random_reduced_word(w0, rng)
        assert word_to_element(rs, word) is w0 and len(word) == w0.length
        for v in some:
            assert restrict(v, w0, word=word) == col[v], (label, word, v)
