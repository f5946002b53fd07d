"""The recursive structure-constant engine: dispatch, traces, identities."""

import itertools

import pytest

from schubertcalc import (
    ConstantKey,
    DimensionMismatchError,
    Polynomial,
    TraceNode,
    bruhat_leq,
    chern_times_schubert,
    coeff_pairing,
    covers,
    format_trace,
    named,
    oracle_constant,
    oracle_product,
    ordinary_recurrence_check,
    perm_to_element,
    product_expansion,
    render,
    replay_trace,
    restrict,
    schubert_class,
    structure_constant,
    trace_constant,
    triple_constant,
    word_to_element,
)

from schubertcalc.recurrence import _fast_zero, _rule

from conftest import e8_cartan, perm


# -- worked values ---------------------------------------------------------------


def test_worked_example_s4(s4):
    assert structure_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413")) == 1


def test_worked_example_s6(s6):
    w, v = perm(s6, "532164"), perm(s6, "132546")
    assert structure_constant(w, v, perm(s6, "642153")) == Polynomial.integer(5, 2)
    # the displayed intermediate value
    assert structure_constant(perm(s6, "653241"), perm(s6, "123546"), perm(s6, "654231")) == 1
    # a target of length 13 cannot support a degree-10 product
    assert structure_constant(w, v, perm(s6, "645231")).is_zero()


def test_worked_example_s3_equivariant(s3):
    c = structure_constant(perm(s3, "231"), perm(s3, "213"), perm(s3, "231"))
    assert render(c, "y") == "y2 - y1"
    assert render(structure_constant(perm(s3, "321"), perm(s3, "213"), perm(s3, "321")), "y") == "y3 - y1"
    assert structure_constant(perm(s3, "321"), perm(s3, "123"), perm(s3, "321")) == 1


def test_identity_is_unit(s4):
    e = s4.identity
    for v in s4.elements():
        for u in s4.elements():
            expect = Polynomial.one(3) if u == v else Polynomial.zero(3)
            assert structure_constant(e, v, u) == expect


# -- branch-level regressions -------------------------------------------------------


def test_dc_triviality_branch(s4):
    node = trace_constant(perm(s4, "3124"), perm(s4, "2143"), perm(s4, "4213"))
    assert node.rule == "dc-trivial"
    assert node.chosen_r == 2
    assert node.value.is_zero()


def test_first_r_descent_cycle(s4):
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    assert node.rule == "dc-cycle-A"
    assert node.chosen_r == 2
    child = node.children[0][1]
    assert child.key.w.one_line() == (1, 3, 2, 4)
    assert child.key.v.one_line() == (2, 1, 4, 3)
    assert child.key.u.one_line() == (2, 4, 1, 3)


def test_first_r_must_be_an_ascent(s4):
    with pytest.raises(ValueError):
        trace_constant(perm(s4, "2134"), perm(s4, "1234"), perm(s4, "2134"), first_r=1)


@pytest.mark.parametrize("fn", [trace_constant])
@pytest.mark.parametrize(
    "w,v,u",
    [
        ("532164", "132546", "642153"),  # the worked S_6 example
        ("654321", "123456", "654321"),  # w = w0: the base case
        ("123456", "123456", "654321"),  # a fast zero
    ],
)
@pytest.mark.parametrize("first_r", [0, -1, 6, 9])
def test_first_r_outside_the_rank_is_refused(s6, fn, w, v, u, first_r):
    with pytest.raises(ValueError, match="outside 1..5"):
        fn(perm(s6, w), perm(s6, v), perm(s6, u), first_r=first_r)


@pytest.mark.parametrize("fn", [trace_constant])
@pytest.mark.parametrize(
    "w,v,u",
    [
        ("532164", "132546", "642153"),  # the worked S_6 example
        ("654321", "123456", "654321"),  # w = w0: the base case
        ("213456", "123456", "654321"),  # a fast zero
    ],
)
def test_first_r_at_a_descent_is_refused(s6, fn, w, v, u):
    with pytest.raises(ValueError, match=f"first_r=1 is not an ascent of <{w}>"):
        fn(perm(s6, w), perm(s6, v), perm(s6, u), first_r=1)


# -- global identities -----------------------------------------------------------------


def test_commutativity_s3(s3):
    # the engine memo normalizes (w, v), so recurrence-vs-recurrence with
    # swapped arguments would be vacuous; compare against the independent
    # oracle with the arguments swapped instead
    from schubertcalc import oracle_constant

    for w, v, u in itertools.product(s3.elements(), repeat=3):
        assert structure_constant(w, v, u) == oracle_constant(v, w, u)


def test_commutativity_s4(s4):
    from schubertcalc import oracle_constant

    for w, v, u in itertools.product(s4.elements(), repeat=3):
        assert structure_constant(w, v, u) == oracle_constant(v, w, u)


def test_degree_homogeneity(s3, b2):
    for rs in (s3, b2):
        for w, v, u in itertools.product(rs.elements(), repeat=3):
            c = structure_constant(w, v, u)
            d = w.length + v.length - u.length
            if d < 0:
                assert c.is_zero()
            elif not c.is_zero():
                assert c.homogeneous_degree() == d


def test_ordinary_constants_are_nonnegative_integers(s4):
    for w, v, u in itertools.product(s4.elements(), repeat=3):
        if u.length != w.length + v.length:
            continue
        c = structure_constant(w, v, u)
        if c.is_zero():
            continue
        assert c.homogeneous_degree() == 0
        assert next(iter(c.terms.values())) > 0


def test_graham_positivity_observed(s3, b2):
    for rs in (s3, b2):
        for w, v, u in itertools.product(rs.elements(), repeat=3):
            c = structure_constant(w, v, u)
            assert all(x > 0 for x in c.terms.values()), (w, v, u)


def test_equivariant_drop_is_pure_optimization(s3, s4):
    for w, v, u in itertools.product(s3.elements(), repeat=3):
        assert structure_constant(w, v, u) == trace_constant(
            w, v, u, drop_equivariant=False
        ).value
    sample = [perm(s4, p) for p in ("1234", "2413", "1324", "3412", "4321", "2143")]
    for w, v, u in itertools.product(sample, repeat=3):
        assert structure_constant(w, v, u) == trace_constant(
            w, v, u, drop_equivariant=False
        ).value


def test_cover_recurrence_identity_verbatim_s4(s4):
    # for ur > u, vr > v, wr > w:
    #   c(w, vr, u) = c(wr, vr, ur) + c(wr, v, u) - (w.alpha) c(w, v, u)
    #                 + sum over covers w' != wr of <alpha,beta> c(w', v, u)
    elements = s4.elements()
    checked = 0
    for r_idx in (1, 2, 3):
        r = s4.simple_reflection(r_idx)
        alpha = s4.simple_root(r_idx)
        for w in elements:
            if not w.right_ascent(r_idx):
                continue
            cover_terms = [
                (wp, coeff_pairing(s4, alpha, beta))
                for wp, beta in covers(w)
                if wp != w * r
            ]
            for v in elements:
                if not v.right_ascent(r_idx):
                    continue
                for u in elements:
                    if not u.right_ascent(r_idx):
                        continue
                    lhs = structure_constant(w, v * r, u)
                    rhs = structure_constant(w * r, v * r, u * r)
                    rhs = rhs + structure_constant(w * r, v, u)
                    rhs = rhs - Polynomial.linear(w.act(alpha)) * structure_constant(w, v, u)
                    for wp, m in cover_terms:
                        if m:
                            rhs = rhs + structure_constant(wp, v, u).scale(m)
                    assert lhs == rhs, (w, v, u, r_idx)
                    checked += 1
    assert checked > 1000


def anti_grassmannian(w):
    line = w.one_line()
    return sum(1 for i in range(len(line) - 1) if line[i] < line[i + 1]) <= 1


def test_anti_grassmannian_recurrence_is_subtraction_free(s4, s5):
    # with at most one ascent, every cover weight in the recurrence is >= 0,
    # so the ordinary case produces no negative terms
    for rs in (s4, s5):
        for w in rs.elements():
            if w.length == len(rs.positive_roots) or not anti_grassmannian(w):
                continue
            ascents = [i for i in range(1, rs.rank + 1) if w.right_ascent(i)]
            assert len(ascents) == 1
            r_idx = ascents[0]
            alpha = rs.simple_root(r_idx)
            r = rs.simple_reflection(r_idx)
            for wp, beta in covers(w):
                if wp == w * r:
                    continue
                assert coeff_pairing(rs, alpha, beta) >= 0, (w.one_line(), beta)


# -- traces -------------------------------------------------------------------------


def test_trace_replay_and_format(s3):
    node = trace_constant(perm(s3, "231"), perm(s3, "213"), perm(s3, "231"))
    assert replay_trace(node)
    lines = format_trace(node, "y")
    assert lines[0].startswith("c_{2|31,2|13}^{2|31} -> recurrence r=(12)")
    assert any("base" in line for line in lines)


def test_golden_trace_worked_example_s4(s4):
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    assert format_trace(node, "y") == [
        "c_{12|34,24|13}^{24|13} -> dc-cycle-A r=(23) = 1",
        "  +1 * c_{1|324,2|143}^{2|413} -> recurrence r=(12) = 1",
        "    +1 * c_{31|24,21|43}^{42|13} -> dc-trivial r=(23) = 0",
        "    +1 * c_{3124,1243}^{2413} -> degree-zero = 0",
        "    -1 * c_{1|423,1|243}^{2|413} -> dc-cycle-B r=(12) = 0",
        "      +1 * c_{41|23,12|43}^{42|13} -> dc-trivial r=(23) = 0",
        "    +1 * c_{2|314,1|243}^{2|413} -> dc-cycle-B r=(12) = 1",
        "      +1 * c_{321|4,124|3}^{421|3} -> recurrence r=(34) = 1",
        "        +1 * c_{32|41,12|43}^{42|31} -> dc-cycle-B r=(23) = 0",
        "          +1 * c_{3|421,1|243}^{4|321} -> dc-trivial r=(12) = 0",
        "        +1 * c_{3241,1234}^{4213} -> degree-zero = 0",
        "        +1 * c_{3412,1234}^{4213} -> degree-zero = 0",
        "        +1 * c_{421|3,123|4}^{421|3} -> dc-cycle-B r=(34) = 1",
        "          +1 * c_{42|31,12|34}^{42|31} -> dc-cycle-B r=(23) = 1",
        "            +1 * c_{4321,1234}^{4321} -> base = 1",
    ]


def test_golden_trace_equivariant_s3(s3):
    node = trace_constant(perm(s3, "231"), perm(s3, "213"), perm(s3, "231"), drop_equivariant=False)
    assert format_trace(node, "y") == [
        "c_{2|31,2|13}^{2|31} -> recurrence r=(12) = y2 - y1",
        "  +1 * c_{321,213}^{321} -> base = y3 - y1",
        "  +1 * c_{321,123}^{231} -> degree-zero = 0",
        "  - (y3 - y2) * c_{2|31,1|23}^{2|31} -> dc-cycle-B r=(12) = 1",
        "    +1 * c_{321,123}^{321} -> base = 1",
    ]


def test_trace_and_value_folds_agree(s4, b2, g2):
    for rs in (s4, b2, g2):
        for w, v, u in itertools.product(rs.elements(), repeat=3):
            for drop in (True, False):
                node = trace_constant(w, v, u, drop_equivariant=drop)
                assert node.value == structure_constant(w, v, u)
                assert replay_trace(node)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_recurrence_covers_are_the_chern_expansion(label):
    # every node of a sweep's traces is _rule at its key (replay_trace checks
    # that), so walking every triple reaches every recurrence node; its integer
    # weights are the closed-form expansion that the props suite checks against
    # the oracle, less the terms at w and w r_k
    rs = named(label)
    elements = rs.elements()
    nodes = 0
    for w, v, u in itertools.product(elements, repeat=3):
        if _fast_zero(w, v, u):
            continue
        rule, r, subs = _rule(rs, w, v, u, True, None)
        if rule != "recurrence":
            continue
        nodes += 1
        wr, vr = w._step(r - 1), v._step(r - 1)
        covered = [(m, a, b, c) for m, a, b, c in subs if type(m) is int and a is not wr]
        assert all((b, c) == (vr, u) for m, a, b, c in covered)
        exp = chern_times_schubert(rs, rs.simple_root(r), w).coeffs
        want = [(x, c.constant_term()) for x, c in exp.items() if x is not w and x is not wr]
        assert [(a, m) for m, a, b, c in covered] == want
    assert nodes


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_one_value_memo_per_group(label):
    rs = named(label)
    w0 = rs.longest_element()
    w, v = rs.simple_reflection(1), rs.simple_reflection(2)
    trace_constant(w, v, w0, drop_equivariant=False, first_r=2)
    structure_constant(w, v, w * v)
    product_expansion(v, w)
    trace_constant(w, v, w * v)
    assert [k for k in rs.caches if k.startswith("constants[")] == ["constants[drop=True]"]


def test_replay_rejects_a_forged_degree_zero_leaf(s4):
    # the triple is zero by dc-triviality, not by the fast zero tests, so
    # only the leaf's own check can catch the forgery
    key = ConstantKey(perm(s4, "3124"), perm(s4, "2143"), perm(s4, "4213"))
    assert trace_constant(*key).rule == "dc-trivial"
    forged = TraceNode(key, "degree-zero", None, [], Polynomial.zero(3))
    with pytest.raises(AssertionError, match="not a fast zero"):
        replay_trace(forged)


def test_replay_rejects_a_forged_inner_value(s4):
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    weight, inner = node.children[0]
    assert inner.rule == "recurrence" and inner.value == Polynomial.one(3)
    forged = node._replace(children=[(weight, inner._replace(value=Polynomial.zero(3)))])
    with pytest.raises(AssertionError, match="trace replay mismatch"):
        replay_trace(forged)


def test_replay_rejects_a_child_the_rule_does_not_name(s4):
    """A consistent value with a wrong derivation: the worked example's one
    child replaced by the base node c_{w0,e}^{w0}, which also has value 1."""
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    w0 = s4.longest_element()
    base = trace_constant(w0, s4.identity, w0)
    assert base.rule == "base" and base.value == node.value == Polynomial.one(3)
    forged = node._replace(children=[(Polynomial.one(3), base)])
    with pytest.raises(AssertionError, match="not the rule applied there"):
        replay_trace(forged)


def test_replay_rejects_a_forged_reflection_or_base(s4):
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    inner = node.children[0][1]
    dc_trivial = next(ch for _, ch in inner.children if ch.rule == "dc-trivial")
    forgeries = [
        node._replace(chosen_r=0),  # outside 1..rank
        node._replace(chosen_r=4),
        dc_trivial._replace(chosen_r=1),  # a descent of w, where the rule names nothing
        TraceNode(node.key, "base", None, [], node.value),  # a base away from w0
        TraceNode(inner.key, "recurrence", inner.chosen_r, inner.children[:-1], inner.value),
    ]
    assert not dc_trivial.key.w.right_ascent(1)
    for forged in forgeries:
        with pytest.raises(AssertionError, match="not the rule applied there"):
            replay_trace(forged)


def test_replay_checks_each_distinct_node_once(monkeypatch, s6):
    import schubertcalc.recurrence as rec

    node = trace_constant(perm(s6, "532164"), perm(s6, "132546"), perm(s6, "642153"))
    paths, distinct, todo = 0, {}, [node]
    while todo:
        n = todo.pop()
        paths += 1
        distinct[id(n)] = n
        todo.extend(child for _, child in n.children)
    bases = sum(n.rule == "base" for n in distinct.values())
    assert paths > len(distinct) and bases > 0  # the tree shares nodes
    calls, real = [], rec.base_constant
    monkeypatch.setattr(rec, "base_constant", lambda v: calls.append(v) or real(v))
    assert replay_trace(node)
    assert len(calls) == bases


def test_base_constants_keep_no_table():
    rs = named("A3")
    w0 = rs.longest_element()
    node = trace_constant(rs.simple_reflection(1), rs.simple_reflection(2), w0, drop_equivariant=False)
    assert replay_trace(node)
    assert structure_constant(w0, rs.identity, w0) == Polynomial.one(3)
    assert "base_constant" not in rs.caches


def test_trace_of_worked_example_rule_sequence(s4):
    node = trace_constant(perm(s4, "1234"), perm(s4, "2413"), perm(s4, "2413"), first_r=2)
    assert node.value == Polynomial.one(3)
    assert (node.rule, node.chosen_r) == ("dc-cycle-A", 2)
    inner = node.children[0][1]
    assert (inner.rule, inner.chosen_r) == ("recurrence", 1)
    by_key = {
        (wt.terms.get((0, 0, 0), 0), ch.key.w.one_line(), ch.key.v.one_line(), ch.key.u.one_line()): ch
        for wt, ch in inner.children
    }
    vanishing = [
        (1, (3, 1, 2, 4), (2, 1, 4, 3), (4, 2, 1, 3)),
        (1, (3, 1, 2, 4), (1, 2, 4, 3), (2, 4, 1, 3)),
        (-1, (1, 4, 2, 3), (1, 2, 4, 3), (2, 4, 1, 3)),
    ]
    for key in vanishing:
        assert key in by_key and by_key[key].value.is_zero()
    surviving = (1, (2, 3, 1, 4), (1, 2, 4, 3), (2, 4, 1, 3))
    assert by_key[surviving].value == Polynomial.one(3)
    assert replay_trace(node)


def test_trace_replay_s6_example(s6):
    node = trace_constant(perm(s6, "532164"), perm(s6, "132546"), perm(s6, "642153"))
    assert node.rule == "recurrence" and node.chosen_r == 4
    nonzero = [ch.value for _, ch in node.children if not ch.value.is_zero()]
    assert sorted(render(x) for x in nonzero) == ["1", "1"]
    assert replay_trace(node)


# -- expansions ----------------------------------------------------------------------


def test_product_expansion_identity(s3):
    for v in s3.elements():
        exp = product_expansion(s3.identity, v)
        assert exp.coeffs == {v: Polynomial.one(2)}


def test_product_expansion_rank1(a1):
    s1 = a1.simple_reflection(1)
    exp = product_expansion(s1, s1)
    assert exp.coeffs == {s1: Polynomial.variable(1, 1)}


def test_product_expansion_monk(s3):
    w = perm(s3, "213")
    exp = product_expansion(w, w)
    assert exp == oracle_product(w, w)
    assert exp.coeff(perm(s3, "312")) == Polynomial.one(2)
    assert exp.coeff(w) == Polynomial.variable(2, 1)
    assert len(exp.coeffs) == 2


def test_product_expansion_rebuilds_product(s3):
    for w in s3.elements():
        for v in s3.elements():
            exp = product_expansion(w, v)
            rebuilt = None
            for u, c in exp.items():
                term = schubert_class(u) * c
                rebuilt = term if rebuilt is None else rebuilt + term
            target = schubert_class(w) * schubert_class(v)
            if rebuilt is None:
                assert target.is_zero()
            else:
                assert rebuilt == target


# -- ordinary triples -----------------------------------------------------------------


def test_triple_constant_symmetry_s3(s3):
    for w, v, u in itertools.product(s3.elements(), repeat=3):
        if w.length + v.length + u.length != 3:
            continue
        vals = {triple_constant(*p) for p in itertools.permutations((w, v, u))}
        assert len(vals) == 1


def test_triple_constant_worked_instance(s4):
    # the S_4 worked product: c_{1234,2413}^{2413} = 1 in triple form
    w04 = s4.longest_element()
    assert triple_constant(perm(s4, "1234"), perm(s4, "2413"), w04 * perm(s4, "2413")) == 1


def test_triple_constant_duality(s3):
    # the only triple admitting w0 is (w0, e, e); with the identity in one
    # slot the other two must be Poincare complements through w0
    w0 = s3.longest_element()
    assert triple_constant(w0, s3.identity, s3.identity) == 1
    for v in s3.elements():
        for u in s3.elements():
            if v.length + u.length != 3:
                continue
            expect = 1 if u == w0 * v else 0
            assert triple_constant(s3.identity, v, u) == expect


def test_triple_constant_dimension_check(s3):
    with pytest.raises(DimensionMismatchError):
        triple_constant(s3.identity, s3.identity, s3.identity)


def test_ordinary_recurrence_check_rejects_a_non_integer_oracle_value(s3, monkeypatch):
    import schubertcalc.oracle

    monkeypatch.setattr(schubertcalc.oracle, "oracle_constant", lambda w, v, u: Polynomial.variable(2, 1))
    e = s3.identity
    with pytest.raises(AssertionError, match="not an integer"):
        ordinary_recurrence_check(e, e, perm(s3, "132"), 1)


def test_ordinary_recurrence_check_refuses_a_length_mismatch_and_a_non_ascent(s3):
    e, s1 = s3.identity, s3.simple_reflection(1)
    with pytest.raises(DimensionMismatchError, match="term lengths do not match"):
        ordinary_recurrence_check(e, e, e, 1)  # 0 + 0 + 0 + 2 != 3
    with pytest.raises(ValueError, match=r"^r_index=1 is not an ascent of <213>$"):
        ordinary_recurrence_check(s1, e, e, 1)


def test_ordinary_recurrence_check_exhaustive(s3, s4):
    """The ordinary cover recurrence holds for the engine's triple integrals too.

    ``ordinary_recurrence_check`` reads every term off the oracle; here the
    same identity is evaluated with ``triple_constant`` and must agree.
    """
    for rs in (s3, s4):
        n = len(rs.positive_roots)
        w0 = rs.longest_element()
        count = 0
        for w, v, u in itertools.product(rs.elements(), repeat=3):
            if w.length + v.length + u.length + 2 != n:
                continue
            for r_idx in range(1, rs.rank + 1):
                if not all(x.right_ascent(r_idx) for x in (w, v, u)):
                    continue
                r, alpha = rs.simple_reflection(r_idx), rs.simple_root(r_idx)
                lhs = triple_constant(w, v * r, u * r)
                rhs = triple_constant(w * r, v * r, u) + triple_constant(w * r, v, u * r)
                for wp, beta in covers(w):
                    if wp != w * r:
                        rhs += coeff_pairing(rs, alpha, beta) * triple_constant(wp, v, u * r)
                assert lhs == rhs, (w, v, u, r_idx)
                assert ordinary_recurrence_check(w, v, u, r_idx)
                assert lhs == oracle_constant(w, v * r, w0 * (u * r))
                count += 1
        assert count > 0


# -- single constants without enumerating the group ------------------------------


def test_constant_path_does_not_enumerate():
    b4 = named("B4")
    w, v = word_to_element(b4, [4, 3, 4, 2, 1]), word_to_element(b4, [3, 4])
    assert not structure_constant(w, v, w).is_zero()
    a4 = named("A4")
    w, v, u = perm(a4, "21354"), perm(a4, "13245"), perm(a4, "23154")
    assert triple_constant(w, v, a4.longest_element() * u) == 1
    assert "elements" not in b4.caches and "elements" not in a4.caches


def _greatest_descent_word(w):
    """A reduced word of ``w`` that strips the greatest right descent each time."""
    word = []
    while w.length:
        i = max(w.right_descents())
        word.append(i)
        w = w * w.rs.simple_reflection(i)
    return tuple(reversed(word))


@pytest.mark.parametrize(
    "label,w_word,v_word",
    [
        ("A8", [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3], [2, 5, 7]),
        ("B8", [8, 7, 8, 6, 7, 8, 5, 6, 7, 8, 4, 5, 6, 7, 8, 3, 2, 1], [8, 6, 4]),
        ("E8", [1, 3, 4, 2, 5, 4, 3, 1, 6, 5, 4, 2, 7, 6, 5, 4, 3, 8, 7, 6], [4, 5, 6]),
    ],
)
def test_constants_in_large_groups(label, w_word, v_word, tmp_path):
    import json
    import time

    from schubertcalc.cli import load_group

    t0 = time.perf_counter()
    if label == "E8":
        path = tmp_path / "e8.json"
        path.write_text(json.dumps({"cartan": e8_cartan(), "label": "E8"}))
        rs = load_group(str(path))
    else:
        rs = named(label)
    w, v = word_to_element(rs, w_word), word_to_element(rs, v_word)
    assert w.length == len(w_word) and v.length == len(v_word)
    c = structure_constant(w, v, w)
    assert time.perf_counter() - t0 < 10.0
    assert "elements" not in rs.caches
    # c_{w,v}^w = S_v|_w, here by a reduced word other than the canonical one
    word = _greatest_descent_word(w)
    assert word != w.reduced_word()
    assert not c.is_zero() and c == restrict(v, w, word=word)


def test_engine_is_thread_safe_on_one_cold_group():
    # four threads fill one fresh group's tables and memo at once, with thread
    # switches forced often; every value must match a serial run on its own group
    import random
    import sys
    import threading

    rng = random.Random(17)
    ref = named("B3")
    elements = ref.elements()
    triples = []
    for _ in range(200):
        w, v = rng.choice(elements), rng.choice(elements)
        lo, hi = max(w.length, v.length), w.length + v.length
        u = rng.choice([
            x for x in elements if lo <= x.length <= hi and bruhat_leq(w, x) and bruhat_leq(v, x)
        ])
        triples.append(tuple(x.reduced_word() for x in (w, v, u)))
    pair = triples[0][:2]

    def run(rs):
        got = {}
        for words in triples:
            w, v, u = (word_to_element(rs, word) for word in words)
            got[w.describe(), v.describe(), u.describe()] = structure_constant(w, v, u)
        w, v = (word_to_element(rs, word) for word in pair)
        got["product"] = {x.describe(): c for x, c in product_expansion(w, v).items()}
        return got

    serial = run(named("B3"))
    assert any(not c.is_zero() for k, c in serial.items() if k != "product")
    shared = named("B3")
    results = [None] * 4

    def worker(k):
        try:
            results[k] = run(shared)
        except Exception as exc:
            results[k] = exc

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert results == [serial] * 4


def test_recurrence_imports_nothing_from_the_oracle():
    """The engine must not reach the oracle it is checked against, at any depth."""
    import ast

    import schubertcalc.recurrence as rec

    with open(rec.__file__) as f:
        tree = ast.parse(f.read())
    names = []  # every imported module, and every name taken from one
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names and not [n for n in names if "oracle" in n.split(".")]
