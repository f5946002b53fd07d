"""Self-tests of the benchmark: input determinism and checkers that bite.

    python3 -m pytest -q perfbench/test_perfbench.py

A checker that passes everything would leave ``fail_rate`` at 0 whatever the
program answers, so each checker is fed a deliberately wrong value and a
nonzero exit (or a raised error), and both must count as failed ops.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from weyl import Group  # noqa: E402


@pytest.fixture
def out_dir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


def _inputs(name: str, seed: int, out: Path, n: int = 40) -> bytes:
    wl = workloads.WORKLOADS[name](seed, out)
    return json.dumps(wl.record(list(itertools.islice(wl.ops(), n)))).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_determined_by_the_seed(name, out_dir):
    assert _inputs(name, 7, out_dir) == _inputs(name, 7, out_dir)
    assert _inputs(name, 7, out_dir) != _inputs(name, 8, out_dir)


def test_oracle_checks_only_small_groups():
    for label in inputs.ORACLE_GROUPS + inputs.BIG_GROUPS:
        order = len(Group(label).elements())
        assert (order <= 120) == (label in inputs.ORACLE_GROUPS), label


def test_generated_triples_have_the_promised_shape():
    for op in itertools.islice(inputs.constant_cold(3), 200):
        g = Group(op["group"])
        if op["check"] == "triple":
            assert len(op["u"]) == len(op["w"]) + len(op["v"])
        if op["check"] == "restrict":
            assert op["u"] == op["w"]
            word = op["check_word"]
            assert g.vec(word) == g.vec(op["w"]) and len(word) == len(op["w"])


def test_localization_point_lies_above_both_factors():
    # x climbs from the Demazure product of w and v, so w <= x and v <= x
    from schubertcalc import rootsys

    groups = {label: rootsys.named(label) for label in ("A5", "B4")}
    for op in inputs.product_warm(5)[:12]:
        rs = groups[op["group"]]
        w, v, x = (rootsys.word_to_element(rs, op[k]) for k in "wvx")
        assert rootsys.bruhat_leq(w, x) and rootsys.bruhat_leq(v, x)


def _run_ops(wl, ops):
    return [workloads.attempt(wl, k, op)[1] for k, op in enumerate(ops)]


def test_constant_cold_reset_lets_a_pass_repeat_the_same_work(out_dir):
    # a pass after reset must meet the same disk cache as the first: misses
    # for fresh triples, a hit for the repeat, and the same files at the end
    wl = workloads.ConstantCold(11, out_dir)
    ops = list(itertools.islice(wl.ops(), inputs.COLD_ROUND))
    wl.setup()
    first = _run_ops(wl, ops)
    files = sorted(p.name for p in wl.cache.iterdir())
    wl.reset()
    assert not any(wl.cache.iterdir())
    assert _run_ops(wl, ops) == first
    assert sorted(p.name for p in wl.cache.iterdir()) == files
    assert len(files) == sum(op["repeat_of"] is None for op in ops)


def _tally(ops, failures):
    return run.tally([{"attempted": len(ops), "failures": failures}])


def test_constant_checker_counts_wrong_values_and_nonzero_exits(out_dir):
    wl = workloads.ConstantCold(11, out_dir)
    stream = wl.ops()
    wl.setup()
    ops = []
    for op in stream:  # one fresh op of each check kind
        if op["repeat_of"] is None and op["check"] not in {o["check"] for o in ops}:
            ops.append(op)
        if len(ops) == 3:
            break
    ops.append(dict(ops[0], id=len(ops) + 100, w=(99,)))  # s99: the CLI exits 2
    digests = _run_ops(wl, ops)
    assert "exit 2" in digests[3]["error"]
    assert wl.check(ops[:3], digests[:3]) == {}
    for d in digests[:3]:  # a wrong value for every kind of check
        d["value"] = d["value"] + [[[7] * 8, 1]]
    failures = wl.check(ops, digests)
    assert sorted(failures) == [0, 1, 2, 3]
    assert _tally(ops, failures) == (4, 4, 1.0)


def test_product_checker_counts_wrong_values_and_errors(out_dir):
    wl = workloads.ProductWarm(5, out_dir)
    pool = list(itertools.islice(wl.ops(), 2))
    wl.setup()
    digests = _run_ops(wl, pool)
    assert wl.check(pool, digests) == {}
    for _, coeff in digests[0]["terms"]:
        for term in coeff:
            term[1] *= 2
    # an op whose arguments come from two different groups raises
    wl.prepare = lambda op: (wl._elem("A5", (1,)), wl._elem("B4", (1,)))
    bad_op = dict(pool[1], slot=len(wl.pool))
    raised = workloads.attempt(wl, 2, bad_op)[1]
    assert "error" in raised
    ops, digests = pool + [bad_op], digests + [raised]
    failures = wl.check(ops, digests)
    assert sorted(failures) == [0, 2]
    assert _tally(ops, failures) == (3, 2, 2 / 3)


def test_sweep_checker_counts_mismatches_and_errors(out_dir):
    wl = workloads.OracleSweep(2, out_dir)
    stream = wl.ops()
    wl.setup()
    op = next(o for o in stream if o["group"] == "B3")
    rs, w, vs = wl.prepare(op)
    report = wl.sc.oracle.verify_sweep(rs, [w], vs, force=True)
    assert "error" not in wl.digest(0, op, report)
    report.mismatches.append({"w": "?", "v": "?", "u": "?", "recurrence": "1", "oracle": "2"})
    wrong = wl.digest(1, op, report)
    wl.prepare = lambda op: (rs, w, 5)  # vs that is not iterable: verify_sweep raises
    raised = workloads.attempt(wl, 2, op)[1]
    ops, digests = [op, op, op], [{"triples": report.triples}, wrong, raised]
    failures = wl.check(ops, digests)
    assert sorted(failures) == [1, 2]
    assert _tally(ops, failures) == (3, 2, 2 / 3)


def test_latency_tail_has_ten_samples_beyond_it():
    lat = [float(k) for k in range(1, 201)]
    got = run.latency_summary(lat)
    assert got["tail"] == 190.0 and sum(x > got["tail"] for x in lat) == 10
    assert got["tail_pct"] == 95.0 and got["p50"] == 100.5


def test_op_latencies_take_each_ops_median_timing_until_the_budget():
    replays = [{"keys": [0, 1, -1, -1], "latencies_s": [3.0, 2.0, 1.0, 0.5], "raw_latencies_s": [6, 4, 2, 1]},
               {"keys": [0, 1, -1], "latencies_s": [1.0, 4.0, 0.7], "raw_latencies_s": [2, 8, 1.4]}]
    keys = [0, 1, -1, -1, -1, 2]
    assert run.op_latencies(replays, iter(keys), 10.0) == ([2.0, 3.0, 0.7, 0.7, 0.7], [4, 6, 1.4, 1.4, 1.4])
    assert run.op_latencies(replays, iter(keys), 4.0) == ([2.0, 3.0], [4, 6])


def test_clock_scales_each_timing_by_the_probes_around_it(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(workloads, "reference", lambda: next(probes) * workloads.REFERENCE_S)
    clock = workloads.Clock()  # first probe: half speed
    clock.add(0, workloads.REFERENCE_WINDOW_S / 2)
    clock.add(1, workloads.REFERENCE_WINDOW_S)  # second probe: quarter speed
    clock.add(2, 0.001)
    clock.close()  # third probe: full speed
    clock.close()  # nothing left to scale: no probe
    w = workloads.REFERENCE_WINDOW_S
    assert clock.scaled == pytest.approx([w / 2 / 3, w / 3, 0.001 / 2.5])
    assert clock.raw == [w / 2, w, 0.001] and clock.keys == [0, 1, 2]


def test_refuses_to_run_without_the_program_sources():
    with tempfile.TemporaryDirectory() as d:
        shutil.copytree(HERE, Path(d) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", d)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "constant-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
