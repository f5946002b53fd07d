"""The three workloads: session set-up, one op, its digest, and its check.

A workload object is built from the seed (input generation, not timed),
then ``setup`` imports ``schubertcalc`` and builds the session groups (timed
as ``setup_s``).  The worker times ``run(op)`` alone; ``digest`` turns the
raw answer into plain data outside the timed region, and ``check`` verifies
the digests after the timed loop, on fresh groups of its own, so checking
never warms the caches that the timed ops use.

A digest is a dict; ``{"error": ...}`` marks an op that raised or exited
nonzero.  ``check`` returns ``{op index: reason}`` for every failed op.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import shutil
import time
from pathlib import Path

import inputs
from weyl import Group, show


def _terms(poly) -> list:
    """A polynomial as sorted ``[exponents, coeff]`` pairs."""
    return sorted([list(e), c] for e, c in poly.terms.items())


class _Checker:
    """Fresh groups for checking, separate from every timed group."""

    def __init__(self, sc):
        self.sc = sc
        self.groups = {}

    def group(self, label):
        if label not in self.groups:
            self.groups[label] = self.sc.rootsys.named(label)
        return self.groups[label]

    def elem(self, label, word):
        return self.sc.rootsys.word_to_element(self.group(label), word)


class Workload:
    name = ""
    session_groups: tuple = ()
    replays = 4  # nominal replays per untraced run: each gets --seconds / replays
    pool_size = None  # ops per replay when fixed; else as many as the budget allows
    repeatable = False  # ``reset`` lets a replay make passes over its ops
    round_size = 1  # the metrics take whole rounds of the stratified stream

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        """Import the package and build and enumerate the session groups."""
        self.load()
        self.build()

    def load(self):
        self.sc = importlib.import_module("schubertcalc")
        for mod in ("rootsys", "recurrence", "oracle", "billey", "cli"):
            importlib.import_module(f"schubertcalc.{mod}")

    def build(self):
        self.groups = {}
        for label in self.session_groups:
            rs = self.sc.rootsys.named(label)
            rs.elements()
            self.groups[label] = rs

    def ops(self):
        """The op stream, as plain data; cycles or never ends."""
        raise NotImplementedError

    def prepare(self, op):
        """Turn an op's words into the program's arguments (not timed)."""
        return op

    def record(self, ops):
        """What the run writes as its inputs, to compare runs across commits."""
        return ops

    def key(self, index, op):
        """Ops with equal keys do equal work, in every replay of the inputs."""
        return index

    def run(self, args):
        raise NotImplementedError

    def reset(self):
        """Restore the state that the first op found, so that the ops can run again."""
        raise NotImplementedError

    def digest(self, index, op, raw) -> dict:
        raise NotImplementedError

    def check(self, ops, digests) -> dict[int, str]:
        raise NotImplementedError


class ConstantCold(Workload):
    """``schubertcalc constant ... --output json`` in-process, one group per call."""

    name = "constant-cold"
    # Each call builds its own group, so the ops of a pass are repeatable
    # once the cache files the pass wrote are removed.  One process passes
    # over a fixed set of ops until --seconds is spent, so each op is timed
    # five to eight times, spread over the whole run.
    replays = 1
    pool_size = inputs.COLD_ROUNDS * inputs.COLD_ROUND
    repeatable = True
    round_size = inputs.COLD_ROUND

    def build(self):
        self.cache = self.out_dir / "cache"
        self.reset()
        os.environ["SCHUBERTCALC_CACHE_DIR"] = str(self.cache)
        super().build()

    def reset(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)

    def ops(self):
        return inputs.constant_cold(self.seed)

    def prepare(self, op):
        argv = ["constant", "--group", op["group"]]
        for k in "wvu":
            argv += [f"--{k}", show(op[k])]
        return argv + ["--output", "json"]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sc.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def digest(self, index, op, raw):
        code, out, err = raw
        if code != 0:
            return {"error": f"exit {code}: {err.strip()[:200]}"}
        return {"value": sorted([t["exp"], t["coeff"]] for t in json.loads(out)["value"])}

    def expected(self, chk: _Checker, op) -> list:
        sc, label = chk.sc, op["group"]
        w, v, u = (chk.elem(label, op[k]) for k in "wvu")
        if op["check"] == "oracle":
            return _terms(sc.oracle.oracle_constant(w, v, u))
        if op["check"] == "restrict":  # c_{w,v}^w = S_v|_w, by another reduced word
            return _terms(sc.billey.restrict(v, w, word=op["check_word"]))
        # ordinary: c_{w,v}^u = <S_w S_v S_{w0 u}> = c_{v,w0 u}^{w0 w} by S3 symmetry
        rs = chk.group(label)
        c = sc.recurrence.triple_constant(v, rs.longest_element() * u, w)
        return [[[0] * rs.rank, c]] if c else []

    def check(self, ops, digests):
        chk = _Checker(self.sc)
        want, bad = {}, {}
        for k, (op, d) in enumerate(zip(ops, digests)):
            if "error" in d:
                bad[k] = d["error"]
                continue
            key = op["id"] if op["repeat_of"] is None else op["repeat_of"]
            if key not in want:
                want[key] = self.expected(chk, op)
            if d["value"] != want[key]:
                bad[k] = f"value {d['value']} != {op['check']} check {want[key]}"
        return bad


_SAME = {"same_as_first": True}  # shared, so warm ops keep no per-op memory


class ProductWarm(Workload):
    """``product_expansion(w, v)`` on warm A5 and B4 session groups."""

    name = "product-warm"
    session_groups = ("A5", "B4")

    def ops(self):
        self.pool = inputs.product_warm(self.seed)
        for slot, op in enumerate(self.pool):
            op["slot"] = slot
        return itertools.cycle(self.pool)

    def record(self, ops):
        return {"pool": self.pool, "ops": len(ops)}

    def key(self, index, op):
        # after the first pass, every product of a pair reads the same warm tables
        return index if index < len(self.pool) else -1 - op["slot"]

    def build(self):
        super().build()
        self._elems = {}
        self._words = {}
        self.first = {}  # pool slot -> terms of its first answer

    def _elem(self, label, word):
        key = (label, word)
        if key not in self._elems:
            self._elems[key] = self.sc.rootsys.word_to_element(self.groups[label], word)
        return self._elems[key]

    def prepare(self, op):
        return self._elem(op["group"], tuple(op["w"])), self._elem(op["group"], tuple(op["v"]))

    def run(self, args):
        return self.sc.recurrence.product_expansion(*args)

    def _word(self, u):
        if u not in self._words:
            self._words[u] = list(u.reduced_word())
        return self._words[u]

    def digest(self, index, op, raw):
        terms = sorted([self._word(u), _terms(c)] for u, c in raw.items())
        slot = op["slot"]
        if slot not in self.first:
            self.first[slot] = terms
            return {"terms": terms}
        if terms != self.first[slot]:
            return {"error": "answer differs from the first answer for the same pair", "terms": terms}
        return _SAME

    def check(self, ops, digests):
        """Localization at the seeded fixed point x of each pair:
        ``S_w|_x * S_v|_x == sum_u c^u_{wv} S_u|_x``, by ``billey.restrict_all``."""
        chk = _Checker(self.sc)
        bad = {}
        for k, (op, d) in enumerate(zip(ops, digests)):
            if "error" in d:
                bad[k] = d["error"]
            elif "terms" in d:
                why = self._localize(chk, op, d["terms"])
                if why:
                    bad[k] = why
        return bad

    def _localize(self, chk: _Checker, op, terms):
        label = op["group"]
        poly = self.sc.polyring.Polynomial
        col = self.sc.billey.restrict_all(chk.elem(label, op["x"]))
        rank = chk.group(label).rank
        zero = poly.zero(rank)
        lhs = col.get(chk.elem(label, op["w"]), zero) * col.get(chk.elem(label, op["v"]), zero)
        rhs = zero
        for word, coeff in terms:
            c = poly(rank, {tuple(e): n for e, n in coeff})
            rhs = rhs + c * col.get(chk.elem(label, word), zero)
        return None if lhs == rhs else f"localization fails at x={show(op['x'])}"


class OracleSweep(Workload):
    """One ``verify_sweep(rs, [w], vs, force=True)`` row per op, on A4 and B3."""

    name = "oracle-sweep"
    session_groups = ("A4", "B3")
    # A row warms the caches, so only a fresh process can repeat it: replays
    # of a fixed set of 240 rows run until --seconds is spent, about five.
    pool_size = 40 * len(inputs.SWEEP_PATTERN)
    round_size = len(inputs.SWEEP_PATTERN)

    def ops(self):
        return inputs.oracle_sweep(self.seed)

    def prepare(self, op):
        rs = self.groups[op["group"]]
        word = self.sc.rootsys.word_to_element
        return rs, word(rs, op["w"]), [word(rs, v) for v in op["vs"]]

    def run(self, args):
        rs, w, vs = args
        return self.sc.oracle.verify_sweep(rs, [w], vs, force=True)

    def digest(self, index, op, raw):
        want = len(op["vs"]) * self.groups[op["group"]].order()
        problems = len(raw.mismatches) + len(raw.ordinary_violations) + len(raw.coeff_violations)
        if problems or raw.triples != want:
            return {"error": f"{problems} mismatches or violations, {raw.triples}/{want} triples"}
        return {"triples": raw.triples}

    def check(self, ops, digests):
        return {k: d["error"] for k, d in enumerate(digests) if "error" in d}


WORKLOADS = {w.name: w for w in (ConstantCold, ProductWarm, OracleSweep)}


CALIBRATION_LOOPS = 1_000_000
# The reference work: enumerating A4 with the benchmark's own Weyl code, the
# same kind of tuple and dict work as the program's, but code that no change
# to the program can touch.  REFERENCE_S is about its time at full speed on
# the 2-vCPU Xeon machine the benchmark was tuned on (its fastest runs there
# took 1.2 to 1.4 ms).
REFERENCE_GROUP = "A4"
REFERENCE_S = 0.0013
REFERENCE_WINDOW_S = 0.04  # op time between two probes of the reference work


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the machine's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i
    return time.perf_counter() - t0


def reference() -> float:
    """Seconds for the reference work, with the garbage collector off so that
    the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        Group(REFERENCE_GROUP).elements()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time taken between two probes of the reference work, scaled to the
    time it would take when the reference work runs in ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Clock:
    """The timings of a replay, each also scaled to the reference speed.

    Other load on a shared machine slows every process on it alike, in
    phases of seconds to minutes, and often for a whole run.  The reference
    work is timed after every ``REFERENCE_WINDOW_S`` of op time, and each
    timing is scaled by the probes on either side of it, so that a slowdown
    common to the op and the reference work cancels out.
    """

    def __init__(self):
        self.refs = [reference()]
        self.keys, self.raw, self.scaled = [], [], []
        self._open_s = 0.0  # op time since the last probe

    def add(self, key, seconds: float):
        self.keys.append(key)
        self.raw.append(seconds)
        self._open_s += seconds
        if self._open_s >= REFERENCE_WINDOW_S:
            self.close()

    def close(self):
        """Probe the reference work and scale the timings since the last probe."""
        if len(self.scaled) == len(self.raw):
            return
        self.refs.append(reference())
        self.scaled += [at_reference_speed(t, *self.refs[-2:]) for t in self.raw[len(self.scaled):]]
        self._open_s = 0.0


def timed_setup(workload: Workload) -> tuple[float, float]:
    """Set-up time in seconds: as measured, and at the reference speed."""
    before = reference()
    t0 = time.perf_counter()
    workload.setup()
    dt = time.perf_counter() - t0
    return dt, at_reference_speed(dt, before, reference())


def attempt(workload: Workload, index: int, op, tracer=None) -> tuple[float, dict]:
    """Run one op; return its latency in seconds and its digest.

    Only ``run`` is timed.  An op that raises is a failed op, not a crash.
    """
    args = workload.prepare(op)
    if tracer:
        tracer.begin_op(index)
    err = None
    t0 = time.perf_counter()
    try:
        raw = workload.run(args)
    except Exception as exc:
        err = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_op(repeat=op.get("repeat_of") is not None)
    return dt, {"error": err} if err else workload.digest(index, op, raw)
