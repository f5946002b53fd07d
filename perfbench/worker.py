"""One workload in one process: set-up, the timed closed loop, then checks.

Run by ``run.py``; not meant to be called by hand.  ``--mode setup`` only
times the set-up and exits.  A replay runs ``Workload.pool_size`` ops, or
as many whole rounds as ``--seconds`` of op time allows; a repeatable
workload then passes over the same ops again, from the starting state,
until ``--seconds`` is spent.  Every timing is kept, as measured and at
the reference speed (``workloads.Clock``).  ``--mode run`` writes
``inputs.json``, ``result.json`` and, when traced, ``spans.jsonl`` into
``--out``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Clock, attempt, timed_setup  # noqa: E402


def _import_check(sc):
    where = Path(sc.__file__).resolve()
    if ROOT not in where.parents:
        raise SystemExit(f"schubertcalc was imported from {where}, not from {ROOT / 'src'}")


def check(wl, ops, digests, known_path) -> dict[int, str]:
    """Failures by op index.  An answer equal to the answer that an earlier,
    checked replay gave for the same op needs no second check."""
    todo = list(range(len(ops)))
    if known_path is not None:
        known = json.loads(known_path.read_text())
        good = [json.dumps(d, sort_keys=True) for d in known["digests"]]
        for k in known["failures"]:
            good[k] = None
        todo = [k for k in todo if k >= len(good) or json.dumps(digests[k], sort_keys=True) != good[k]]
    failures = wl.check([ops[k] for k in todo], [digests[k] for k in todo])
    return {todo[k]: why for k, why in failures.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--known", type=Path, help="answers.json of an earlier replay of the same inputs")
    ap.add_argument("--one-pass", action="store_true", help="no further passes, as in a traced run")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, args.out)
    stream = wl.ops()  # input generation: not part of set-up
    tracer = None
    setup_raw_s = setup_s = None
    if args.trace:  # traced from the import on, so set-up's enumeration shows
        tracer = tracing.Tracer()
        wl.load()
        tracer.install(wl.sc)
        wl.build()
    else:
        setup_raw_s, setup_s = timed_setup(wl)
    _import_check(wl.sc)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    clock = Clock()
    ops, digests = [], []
    busy = 0.0
    for index, op in enumerate(stream):
        if index == wl.pool_size or (wl.pool_size is None and busy >= args.seconds
                                     and index % wl.round_size == 0):
            break
        dt, digest = attempt(wl, index, op, tracer)
        clock.add(wl.key(index, op), dt)
        busy += dt
        ops.append(op)
        digests.append(digest)
    passes = 1
    while wl.repeatable and not (tracer or args.one_pass) and busy < args.seconds:  # the same ops, from the same state
        wl.reset()
        passes += 1
        for index, op in enumerate(ops):
            dt, digest = attempt(wl, index, op)
            clock.add(wl.key(index, op), dt)
            busy += dt
            if digest != digests[index] and "error" not in digests[index]:
                digests[index] = {"error": f"answer changed between passes: {digest}"}
    clock.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = self_times = None
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics()
        self_times = dict(tracer.self_s)
        tracer.write_spans(args.out / "spans.jsonl")

    t0 = time.perf_counter()
    failures = check(wl, ops, digests, args.known)
    check_s = time.perf_counter() - t0
    (args.out / "answers.json").write_text(json.dumps({"digests": digests, "failures": sorted(failures)}))

    (args.out / "inputs.json").write_text(json.dumps(wl.record(ops)))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "busy_s": busy,
        "passes": passes,
        "keys": clock.keys,
        "latencies_s": clock.scaled,
        "raw_latencies_s": clock.raw,
        "reference_s": clock.refs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "check_s": check_s,
        "layer": layer,
        "self_s": self_times,
    }
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
