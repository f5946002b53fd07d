"""Root systems, Weyl groups, Bruhat order, pairings.

Independent oracles used here: a naive set-based root closure working
straight from the reflection formula, inversion counting for type A
lengths, and brute-force subword enumeration for Bruhat comparisons.
"""

import functools
import itertools
import random

import pytest

from schubertcalc import (
    GroupTooLargeError,
    NonFiniteTypeError,
    Polynomial,
    UnknownTypeError,
    WeylElement,
    all_reduced_words,
    bruhat_leq,
    build,
    coeff_pairing,
    covers,
    named,
    oracle_constant,
    perm_to_element,
    restrict,
    structure_constant,
    trace_constant,
    word_to_element,
)

from schubertcalc.rootsys import _chevalley_covers

from conftest import e8_cartan, perm


# -- independent oracles -------------------------------------------------------


def naive_positive_roots(cartan):
    """Fixpoint closure of the simple roots under all simple reflections."""
    n = len(cartan)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def reflect(i, v):
        pairing = sum(cartan[i][j] * v[j] for j in range(n))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    roots = set(simples) | {tuple(-c for c in s) for s in simples}
    while True:
        new = {reflect(i, v) for v in roots for i in range(n)} | roots
        if new == roots:
            break
        if len(new) > 1000:
            raise AssertionError("unexpectedly large closure in test oracle")
        roots = new
    return {v for v in roots if all(c >= 0 for c in v)}


def inversions(oneline):
    return sum(
        1
        for i, j in itertools.combinations(range(len(oneline)), 2)
        if oneline[i] > oneline[j]
    )


@functools.cache
def subword_products(w):
    """Every element that some reduced subword of one reduced word of ``w`` multiplies to."""
    word = w.reduced_word()
    rs = w.rs
    seen = set()
    for k in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), k):
            x = rs.identity
            ok = True
            for p in positions:
                y = x * rs.simple_reflection(word[p])
                if y.length != x.length + 1:
                    ok = False
                    break
                x = y
            if ok:
                seen.add(x)
    return frozenset(seen)


def brute_bruhat_leq(v, w):
    """v <= w iff some subword of one reduced word of w multiplies to v reducedly."""
    return v in subword_products(w)


# -- construction ---------------------------------------------------------------


def test_build_a1_a2():
    a1 = build([[2]])
    assert a1.positive_roots == [(1,)]
    a2 = build([[2, -1], [-1, 2]])
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "label,n_pos,order",
    [
        ("A2", 3, 6),
        ("A3", 6, 24),
        ("B2", 4, 8),
        ("C3", 9, 48),
        ("D4", 12, 192),
        ("G2", 6, 12),
    ],
)
def test_named_against_naive_closure(label, n_pos, order):
    rs = named(label)
    naive = naive_positive_roots(rs.cartan)
    assert set(rs.positive_roots) == naive
    assert len(rs.positive_roots) == n_pos
    assert rs.order() == order
    assert rs.longest_element().length == n_pos


def test_named_rejects_unknown():
    for bad in ("E6", "H3", "A0", "Q5", "B1"):
        with pytest.raises(UnknownTypeError):
            named(bad)


def test_affine_input_is_rejected():
    with pytest.raises(NonFiniteTypeError):
        build([[2, -2], [-2, 2]])


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],  # affine A1
        [[2, -4], [-1, 2]],  # affine A2 twisted
        [[2, -3], [-3, 2]],  # hyperbolic
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2
    ],
)
def test_non_finite_input_names_the_root_closure(cartan):
    with pytest.raises(NonFiniteTypeError, match="exceeded 10000 roots; the Cartan matrix is not of finite type"):
        build(cartan)


def test_group_bound_is_enforced():
    # F4 closure is fine, but a tiny cap must trip during enumeration
    rs = named("A3")
    import schubertcalc.rootsys as rootsys

    old = rootsys.MAX_GROUP
    rootsys.MAX_GROUP = 10
    try:
        with pytest.raises(GroupTooLargeError):
            build(rs.cartan).elements()
    finally:
        rootsys.MAX_GROUP = old


# -- lengths, products, permutations --------------------------------------------


def test_simple_reflection_basics(s3):
    r1 = s3.simple_reflection(1)
    assert r1.length == 1
    assert r1.act(s3.simple_root(1)) == (-1, 0)
    assert r1.act(s3.simple_root(2)) == (1, 1)
    assert (r1 * r1).is_identity()
    with pytest.raises(IndexError):
        s3.simple_reflection(3)


def test_lengths_match_inversions_s4(s4):
    for oneline in itertools.permutations(range(1, 5)):
        w = perm_to_element(s4, oneline)
        assert w.length == inversions(oneline)
        assert w.one_line() == oneline
        assert w.inverse().length == w.length


def bubble_sort_route(rs, oneline):
    """Bubble the word down to the identity, then multiply the letters back up."""
    work, letters = list(oneline), []
    while any(a > b for a, b in zip(work, work[1:])):
        i = next(k for k in range(len(work) - 1) if work[k] > work[k + 1])
        work[i], work[i + 1] = work[i + 1], work[i]
        letters.append(i + 1)
    return word_to_element(rs, reversed(letters))


def test_perm_to_element_matches_bubble_sort_route():
    for n in range(1, 6):  # every permutation of S_2 .. S_6
        rs = named(f"A{n}")
        for oneline in itertools.permutations(range(1, n + 2)):
            w = perm_to_element(rs, oneline)
            assert w is bubble_sort_route(rs, oneline), oneline
            assert w.length == inversions(oneline) and w.one_line() == oneline


def test_length_known_values(s3, s4):
    assert s3.identity.length == 0
    assert perm(s3, "321").length == 3
    assert perm(s4, "2413").length == 3


def test_action_convention(s4):
    # w = 1324 sends alpha_1 = y2 - y1 to y3 - y1
    w = perm(s4, "1324")
    assert w.act(s4.simple_root(1)) == (1, 1, 0)


def test_right_ascent(s4):
    assert all(s4.identity.right_ascent(i) for i in (1, 2, 3))
    assert perm(s4, "1324").right_ascent(1)
    assert not perm(s4, "2413").right_ascent(2)


def test_right_multiplication_swaps_positions(s4):
    for oneline in itertools.permutations(range(1, 5)):
        w = perm_to_element(s4, oneline)
        for i in (1, 2, 3):
            got = (w * s4.simple_reflection(i)).one_line()
            expect = list(oneline)
            expect[i - 1], expect[i] = expect[i], expect[i - 1]
            assert got == tuple(expect)


def test_length_changes_by_one(s4, b2):
    for rs in (s4, b2):
        for w in rs.elements():
            for i in range(1, rs.rank + 1):
                assert abs((w * rs.simple_reflection(i)).length - w.length) == 1


# -- covers ----------------------------------------------------------------------


def test_covers_of_longest_and_identity(s4):
    assert covers(s4.longest_element()) == []
    at_identity = covers(s4.identity)
    assert {w.one_line() for w, _ in at_identity} == {(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)}
    assert all(beta in s4.simple_roots for _, beta in at_identity)


def test_covers_1324(s4):
    w1324 = perm(s4, "1324")
    got = {(w.one_line(), beta) for w, beta in covers(w1324)}
    assert got == {
        ((3, 1, 2, 4), (1, 0, 0)),
        ((1, 3, 4, 2), (0, 0, 1)),
        ((2, 3, 1, 4), (1, 1, 0)),
        ((1, 4, 2, 3), (0, 1, 1)),
    }


def test_covers_exhaustive_s4(s4):
    # covers(w) lists exactly the length-(l+1) products w * r_beta
    for w in s4.elements():
        got = covers(w)
        for wp, beta in got:
            assert wp == w * s4.reflection(beta)
            assert wp.length == w.length + 1
        expect = {
            (w * s4.reflection(beta), beta)
            for beta in s4.positive_roots
            if (w * s4.reflection(beta)).length == w.length + 1
        }
        assert set(got) == expect


# -- Bruhat order ------------------------------------------------------------------


def test_bruhat_known_values(s3, s4):
    assert bruhat_leq(s4.identity, perm(s4, "2413"))
    assert bruhat_leq(perm(s4, "2143"), perm(s4, "2413"))
    assert not bruhat_leq(perm(s3, "321"), perm(s3, "213"))


def test_bruhat_against_subword_oracle(s4):
    elements = s4.elements()
    for v in elements:
        for w in elements:
            assert bruhat_leq(v, w) == brute_bruhat_leq(v, w)


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_bruhat_against_subword_oracle_beyond_simply_laced(label):
    # the recursion reads signs of x = w^-1(rho), whose entries grow with the
    # Cartan data off type A; every pair is checked on fresh groups
    elements = named(label).elements()
    for w in elements:
        for v in elements:
            assert bruhat_leq(v, w) == brute_bruhat_leq(v, w)


def test_trivial_bruhat_pairs_leave_the_table_alone():
    rs = named("B2")  # fresh, so the table starts empty
    table = rs.caches["bruhat"]
    elements = rs.elements()
    for v in elements:
        for w in elements:
            if v.length >= w.length or v.length == 0:
                assert bruhat_leq(v, w) == (v is w or v.length < w.length)
    assert table == {}
    assert bruhat_leq(rs.simple_reflection(1), rs.longest_element())
    assert table


def test_bruhat_rejects_mixed_systems_on_hit_and_miss():
    from schubertcalc import MixedRootSystemsError

    a2, a2_again = named("A2"), named("A2")
    v, w = a2.simple_reflection(1), a2_again.longest_element()
    with pytest.raises(MixedRootSystemsError):  # a miss
        bruhat_leq(v, w)
    a2.caches["bruhat"][v, w] = True  # a planted hit must not be served
    with pytest.raises(MixedRootSystemsError):
        bruhat_leq(v, w)


def test_bruhat_is_partial_order_refining_length(b2):
    elements = b2.elements()
    for v in elements:
        assert bruhat_leq(v, v)
        for w in elements:
            if bruhat_leq(v, w) and bruhat_leq(w, v):
                assert v == w
            if bruhat_leq(v, w) and v != w:
                assert v.length < w.length
            for u in elements:
                if bruhat_leq(v, w) and bruhat_leq(w, u):
                    assert bruhat_leq(v, u)


# -- reduced words -------------------------------------------------------------------


def test_reduced_word_examples(s3, s4):
    assert s3.identity.reduced_word() == ()
    w0 = perm(s3, "321")
    assert w0.reduced_word() in ((1, 2, 1), (2, 1, 2))
    word = perm(s4, "2413").reduced_word()
    assert len(word) == 3
    assert word_to_element(s4, word) == perm(s4, "2413")


def test_all_reduced_words_s4(s4):
    for w in s4.elements():
        words = all_reduced_words(w)
        assert len(set(words)) == len(words)
        for word in words:
            assert len(word) == w.length
            assert word_to_element(s4, word) == w
    assert len(all_reduced_words(s4.longest_element())) == 16


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_word_to_element_refuses_letters_outside_the_rank(label):
    rs = named(label)
    for letter in (0, rs.rank + 1):
        with pytest.raises(IndexError):
            word_to_element(rs, [1, letter])



@pytest.mark.parametrize("word,letter", [([1.9, True], "1.9"), (["1"], "'1'"), ([2, True], "True")])
def test_word_to_element_refuses_a_letter_that_is_not_an_int(s4, word, letter):
    """A float, bool or string letter is refused, not truncated (1.9 or True would read as s1)."""
    with pytest.raises(ValueError, match=f"^word letter {letter} is not an int$"):
        word_to_element(s4, word)


@pytest.mark.parametrize("oneline,entry", [((2.0, 4, 1, 3), "2.0"), ((True, 2, 3, 4), "True")])
def test_perm_to_element_refuses_an_entry_that_is_not_an_int(s4, oneline, entry):
    with pytest.raises(ValueError, match=f"^permutation entry {entry} is not an int$"):
        perm_to_element(s4, oneline)


def test_perm_to_element_refuses_a_non_permutation_and_a_group_outside_type_a(s4, b2):
    with pytest.raises(ValueError, match=r"^\(1, 1, 2, 3\) is not a permutation of 1..4$"):
        perm_to_element(s4, (1, 1, 2, 3))
    with pytest.raises(UnknownTypeError, match="one-line notation requires a type A root system"):
        perm_to_element(b2, (2, 1, 3))


def test_one_line_outside_type_a_is_refused(b2):
    with pytest.raises(UnknownTypeError, match="one-line notation requires a type A root system"):
        b2.simple_reflection(1).one_line()


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_word_to_element_of_a_non_reduced_word_is_its_reduction(label):
    rs = named(label)
    for w in rs.elements():
        word = w.reduced_word()
        for i in range(1, rs.rank + 1):
            assert word_to_element(rs, word + (i, i)) is w  # w s_i s_i = w
            assert word_to_element(rs, (i, i) + word) is w
    w0 = rs.longest_element()
    assert word_to_element(rs, w0.reduced_word() * 2) is rs.identity  # w0 is an involution


# -- pairings -----------------------------------------------------------------------


def test_pairing_known_values(s4):
    a1 = s4.simple_root(1)
    assert coeff_pairing(s4, a1, a1) == 2
    assert coeff_pairing(s4, a1, (0, 1, 1)) == -1  # transposition (2 4)
    assert coeff_pairing(s4, a1, (1, 1, 0)) == 1  # transposition (1 3)
    assert coeff_pairing(s4, a1, (0, 0, 1)) == 0


def test_pairing_straddle_rule_on_s4_covers(s4):
    # switched places straddling the i,i+1 divide give +1, same side -1,
    # disjoint support 0; beta = alpha itself gives 2
    for w in s4.elements():
        for i in (1, 2, 3):
            if not w.right_ascent(i):
                continue
            alpha = s4.simple_root(i)
            for wp, beta in covers(w):
                m = coeff_pairing(s4, alpha, beta)
                assert m in (-1, 0, 1, 2)
                a, b = [k + 1 for k in range(4) if w.one_line()[k] != wp.one_line()[k]]
                shared = {a, b} & {i, i + 1}
                if len(shared) == 2:
                    assert m == 2
                elif not shared:
                    assert m == 0
                elif (a <= i) != (b <= i):
                    assert m == 1
                else:
                    assert m == -1


def test_pairing_agrees_with_reflection_route():
    # alpha - r_beta(alpha) = c * beta, with r_beta built by conjugation along
    # the closure tree, independently of the coroot that coeff_pairing reads
    for label in ("A3", "B2", "C3", "G2", "F4"):
        rs = named(label)
        for _ in range(2):  # the second pass reads the memo
            for alpha in rs.simple_roots:
                for beta in rs.positive_roots:
                    c = coeff_pairing(rs, alpha, beta)
                    image = rs.reflection(beta).act(alpha)
                    assert tuple(a - b for a, b in zip(alpha, image)) == tuple(c * b for b in beta)
        assert len(rs.cache("coeff_pairing")) == rs.rank * len(rs.positive_roots)


def test_pairing_memo_keeps_rejecting_bad_input():
    for label in ("A3", "B3", "G2"):
        rs = named(label)
        for alpha in rs.simple_roots:
            coeff_pairing(rs, alpha, alpha)
        highest = rs.positive_roots[-1]
        for _ in range(2):
            with pytest.raises(ValueError):
                coeff_pairing(rs, highest, rs.simple_root(1))
            with pytest.raises(ValueError):
                coeff_pairing(rs, rs.simple_root(1), tuple(-c for c in highest))
        assert len(rs.cache("coeff_pairing")) == rs.rank


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_chevalley_covers_is_the_filtered_cover_list(label):
    rs = named(label)
    for w in rs.elements():
        for alpha in rs.simple_roots:
            brute = []
            for wp, beta in covers(w):
                m = coeff_pairing(rs, alpha, beta)
                if m != 0:
                    brute.append((wp, m))
            assert _chevalley_covers(w, alpha) == brute, (label, w, alpha)


# -- enumeration -----------------------------------------------------------------------


def test_enumeration_sizes():
    import math

    for n in range(2, 7):
        rs = named(f"A{n - 1}")
        assert len(rs.elements()) == math.factorial(n)


def test_enumeration_order(b2):
    elements = b2.elements()
    assert elements[0].is_identity()
    assert elements[-1] == b2.longest_element()
    lengths = [w.length for w in elements]
    assert lengths == sorted(lengths)
    assert len(elements) == 8


def test_mixed_root_systems_are_rejected(s3, b2):
    from schubertcalc import MixedRootSystemsError

    with pytest.raises(MixedRootSystemsError):
        s3.simple_reflection(1) * b2.simple_reflection(1)
    with pytest.raises(MixedRootSystemsError):
        bruhat_leq(s3.identity, b2.identity)


@pytest.mark.parametrize(
    "fn", [structure_constant, trace_constant, oracle_constant, restrict], ids=lambda fn: fn.__name__
)
def test_every_entry_point_refuses_mixed_groups(fn):
    from schubertcalc import MixedRootSystemsError

    a2, a2_again = named("A2"), named("A2")
    w, v = perm(a2, "231"), perm(a2, "213")
    assert oracle_constant(w, v, w) == Polynomial.variable(2, 1)
    args = (v, perm(a2_again, "321")) if fn is restrict else (w, v, perm(a2_again, "231"))
    with pytest.raises(MixedRootSystemsError, match="elements of different root systems"):
        fn(*args)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_equal_elements_are_the_same_object(label):
    # equality and hashing rest on interning: every route to an element returns it
    assert WeylElement.__hash__ is object.__hash__
    assert WeylElement.__eq__ is object.__eq__
    rs = named(label)
    elements = rs.elements()
    for w in elements:
        assert word_to_element(rs, w.reduced_word()) is w
        assert w.inverse().inverse() is w
        assert w * rs.identity is w
        if rs.is_type_a:
            assert perm_to_element(rs, w.one_line()) is w
    assert rs.longest_element() is elements[-1]


def _simple_reflection_matrix(cartan, i):
    """Matrix of r_i on the simple-root basis, straight from the reflection formula."""
    n = len(cartan)
    cols = []
    for j in range(n):
        col = [int(r == j) for r in range(n)]
        col[i - 1] -= cartan[i - 1][j]
        cols.append(col)
    return tuple(tuple(cols[j][r] for j in range(n)) for r in range(n))


def _matrix_of(rs, word):
    n = rs.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        s = _simple_reflection_matrix(rs.cartan, i)
        m = tuple(
            tuple(sum(m[r][k] * s[k][c] for k in range(n)) for c in range(n)) for r in range(n)
        )
    return m


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "C3", "D4", "F4"])
def test_canonical_enumeration_order(label):
    # the order (length, then matrix key) fixes product JSON and expansion listings
    rs = named(label)
    elements = rs.elements()
    key = {w: (w.length, _matrix_of(rs, w.reduced_word())) for w in elements}
    assert len(set(key.values())) == len(elements) == rs.order()
    assert elements == sorted(elements, key=key.__getitem__)


def _known_order(label):
    import math

    family, n = label[0], int(label[1:])
    return {
        "A": math.factorial(n + 1),
        "B": 2**n * math.factorial(n),
        "C": 2**n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
        "G": 12,
        "F": 1152,
    }[family]


NAMED_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["G2", "F4"]
)


@pytest.mark.parametrize("label", NAMED_LABELS)
def test_order_from_root_heights(label):
    import schubertcalc.rootsys as rootsys

    rs = named(label)
    want = _known_order(label)
    assert rs.order() == want
    if want <= rootsys.MAX_GROUP:
        assert len(rs.elements()) == want
    else:
        assert "elements" not in rs.caches
        with pytest.raises(GroupTooLargeError):
            rs.elements()


def test_order_of_e8_from_cartan_data():
    rs = build(e8_cartan())
    assert len(rs.positive_roots) == 120
    assert rs.order() == 696_729_600
    assert rs.longest_element().length == 120
    assert "elements" not in rs.caches


def _known_positive_roots(label):
    family, n = label[0], int(label[1:])
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "G": 6, "F": 24, "E": 120}[family]


@pytest.mark.parametrize("label", NAMED_LABELS + ["E8"])
def test_root_closure_pairs_each_coroot_and_reflection_with_its_root(label):
    """The closure finds the known number of positive roots, each stored coroot
    pairs to 2 with its root, and the reflection through each root, built by
    conjugation along the closure tree independently of the coroots, maps it to
    its negative."""
    rs = build(e8_cartan(), type_label="E8") if label == "E8" else named(label)
    assert len(rs.positive_roots) == _known_positive_roots(label)
    rng = range(rs.rank)
    for beta in rs.positive_roots:
        co = rs._coroots[beta]
        assert sum(co[i] * rs.cartan[i][j] * beta[j] for i in rng for j in rng) == 2, (label, beta)
        assert rs.reflection(beta).act(beta) == tuple(-c for c in beta), (label, beta)


def test_longest_element_without_enumeration():
    for label in ("A8", "B8", "D8", "F4"):
        rs = named(label)
        w0 = rs.longest_element()
        assert w0.length == len(rs.positive_roots)
        assert all(not w0.right_ascent(i) for i in range(1, rs.rank + 1))
        assert word_to_element(rs, w0.reduced_word()) is w0
        assert w0.inverse() is w0
        assert "elements" not in rs.caches


def test_elements_is_safe_under_concurrent_first_use():
    # readers ask for an index as soon as the enumeration shows up, with
    # thread switches forced often enough to land between the cache tables
    import sys
    import threading

    rs = named("D5")
    w = word_to_element(rs, [1, 2, 3])
    done = threading.Event()
    got = []

    def reader():
        while not done.is_set():
            if "elements" in rs.caches:
                try:
                    got.append(rs.element_index(w))
                except Exception as exc:
                    got.append(exc)
                return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        rs.elements()
    finally:
        done.set()
        sys.setswitchinterval(old)
    for t in readers:
        t.join(timeout=30)
        assert not t.is_alive()
    assert got == [rs.elements().index(w)] * len(got)


def test_products_inverses_and_matrices_agree(b2, g2):
    # the weight representation against matrices built along reduced words
    for rs in (b2, g2, named("B3")):
        elements = rs.elements()
        for w in elements:
            assert w.mat == _matrix_of(rs, w.reduced_word())
            assert (w * w.inverse()).is_identity()
            assert w.inverse().mat == _matrix_of(rs, w.reduced_word()[::-1])
            for v in elements[:: max(1, len(elements) // 12)]:
                assert (w * v).mat == _matrix_of(rs, w.reduced_word() + v.reduced_word())
    # on fresh groups, every matrix is the one the walk gave while the levels sorted
    for rs in (named("D4"), named("F4")):
        elements = rs.elements()
        assert all(w._mat == _matrix_of(rs, w.reduced_word()) for w in elements)


def _seeded_elements(rs, seed, count):
    """``count`` elements, each a climb from e by seeded ascents to a seeded length."""
    rng = random.Random(seed)
    got = []
    for _ in range(count):
        w = rs.identity
        for _ in range(rng.randint(0, len(rs.positive_roots))):
            w = w * rs.simple_reflection(rng.choice([i for i in range(1, rs.rank + 1) if w.right_ascent(i)]))
        got.append(w)
    return got


@pytest.mark.parametrize("label", ["B8", "D8", "E8"])
def test_fields_off_the_enumeration(label):
    """Matrices and words derived on groups that never enumerate agree with the
    dense matrix product along the word, and the word leads back to the element."""
    rs = build(e8_cartan(), "E8") if label == "E8" else named(label)
    for w in _seeded_elements(rs, 5, 12):
        assert w.mat == _matrix_of(rs, w.reduced_word()), (label, w)
        assert word_to_element(rs, w.reduced_word()) is w
    assert "elements" not in rs.caches


def test_walk_is_safe_under_concurrent_first_use():
    """Four threads derive the matrix, word and one-line form of the same seeded
    elements of a fresh A8 (never enumerated: |W| = 362,880), each in its own
    seeded order, with thread switches forced often; every value must equal the
    one a group of its own builds serially."""
    import sys
    import threading

    def fields(w):
        return w.mat, w.reduced_word(), w.one_line()

    serial = named("A8")
    expect = [fields(w) for w in _seeded_elements(serial, 9, 60)]
    rs = named("A8")
    elements = _seeded_elements(rs, 9, 60)
    errors = []

    def derive(seed):
        order = list(enumerate(elements))
        random.Random(seed).shuffle(order)
        try:
            for n, w in order:
                if fields(w) != expect[n]:
                    errors.append((n, w))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=derive, args=(seed,)) for seed in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
    finally:
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [fields(w) for w in elements] == expect
    assert "elements" not in rs.caches


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_sparse_step_matches_the_dense_formula(label):
    # w * r_{k+1} has weight x - x[k] * (column k of the Cartan matrix)
    rs = named(label)
    n = rs.rank
    for w in rs.elements():
        for k in range(n):
            dense = tuple(w.x[j] - w.x[k] * rs.cartan[j][k] for j in range(n))
            assert w._step(k).x == dense
