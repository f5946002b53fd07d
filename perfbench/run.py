"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload constant-cold --seed 1 --seconds 20 --trace 0

Each workload runs in child processes of its own (``worker.py``), one
client in a closed loop, so peak memory is per workload.  With
``--trace 0`` the run is replays of the same inputs in fresh processes, as
many as it takes for their op time to add up to ``--seconds``; a
repeatable workload makes passes over its ops inside one replay instead.
Every timing is scaled to the reference speed by probes of a fixed piece
of reference work taken next to it (``workloads.Clock``).  Each op's time is the median
of its scaled timings over the replays and passes, and the end-to-end
metrics are taken over the ops that a run of ``--seconds`` would complete
at those times (see ``op_latencies``).  ``setup_s`` is the median scaled
set-up time over the replays and fresh processes that only set up,
``SETUP_SAMPLES`` in all.  The same metrics from the times as measured are
printed beside them and kept in ``run.json``.  With ``--trace 1`` an
untraced child and a traced child each run the inputs for half of
``--seconds``, or the fixed ops once; the run reports the per-layer
metrics and the tracing overhead.  Every answer is checked after the timed
loop.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Files of the run go to ``perfbench/out/<workload>/seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import CALIBRATION_LOOPS, REFERENCE_GROUP, REFERENCE_S, WORKLOADS, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # set-ups timed per run: the replays', then fresh processes that only set up
DEADLINE_S = 170  # every run ends within the contract's 180 s

E2E_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_ops_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def git_rev() -> str:
    """The commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child(args, out: Path, deadline: float, mode="run", trace=0, seconds=None, known=None,
          one_pass=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds), "--trace", str(trace),
           "--out", str(out)]
    if known:
        cmd += ["--known", str(known)]
    if one_pass:
        cmd += ["--one-pass"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SCHUBERTCALC_CACHE_DIR", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if mode == "setup":
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads((out / "result.json").read_text())


def op_latencies(replays: list[dict], keys, budget: float) -> tuple[list[float], list[float]]:
    """Each op's time, at the reference speed and as measured: the median of
    its timings over the replays and passes.

    Replays and passes run the same inputs from the same state, so ops with
    equal keys do equal work.  ``keys`` is the op stream's key sequence; the
    result follows it until the scaled times add up to ``budget``, or up to
    the first op that no replay reached.
    """
    scaled: dict = {}
    raw: dict = {}
    for r in replays:
        for key, t, m in zip(r["keys"], r["latencies_s"], r["raw_latencies_s"]):
            scaled.setdefault(key, []).append(t)
            raw.setdefault(key, []).append(m)
    medians: dict = {}
    out, out_raw, total = [], [], 0.0
    for key in keys:
        if key not in scaled or total >= budget:
            break
        if key not in medians:
            medians[key] = statistics.median(scaled[key]), statistics.median(raw[key])
        out.append(medians[key][0])
        out_raw.append(medians[key][1])
        total += medians[key][0]
    return out, out_raw


def latency_summary(lat: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(lat)
    n = len(s)
    beyond = 10 if n > 10 else 0  # with too few samples, the maximum
    return {"p50": statistics.median(s), "tail": s[n - 1 - beyond],
            "tail_pct": 100.0 * (n - beyond) / n, "n": n, "beyond": beyond}


def tally(runs: list[dict]) -> tuple[int, int, float]:
    """Attempted ops, failed ops and fail_rate over the worker results of a run."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return attempted, failed, failed / attempted


def throughput(lat: list[float]) -> float:
    """Ops per second of op time."""
    return len(lat) / sum(lat)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    if name.endswith("_per_op"):
        return "count/op"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed op time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "schubertcalc" / "__init__.py").is_file():
        print(f"error: no schubertcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl_class = WORKLOADS[args.workload]
    out = HERE / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env_info = {"git_rev": git_rev(), "python": platform.python_version(), "nproc": os.cpu_count(),
                "calibration_s": calibrate()}
    try:
        if args.trace:
            plain = child(args, out / "untraced", deadline, seconds=args.seconds / 2, one_pass=True)
            res = child(args, out, deadline, trace=1, seconds=args.seconds / 2)
            runs = [plain, res]
        else:
            runs = []  # replays until their op time adds up to --seconds
            while not runs or sum(r["busy_s"] for r in runs) < args.seconds:
                known = out / "replay0" / "answers.json" if runs else None
                runs.append(child(args, out / f"replay{len(runs)}", deadline,
                                  seconds=args.seconds / wl_class.replays, known=known))
            setups = [(r["setup_s"], r["setup_raw_s"]) for r in runs] + [
                tuple(child(args, out / f"setup{k}", deadline, mode="setup")[f] for f in ("setup_s", "setup_raw_s"))
                for k in range(SETUP_SAMPLES - len(runs))
            ]
            wl = wl_class(args.seed, out)
            keys = (wl.key(k, op) for k, op in enumerate(wl.ops()))
            lat, lat_raw = op_latencies(runs, keys, args.seconds)
            if len(lat) >= wl.round_size:  # whole rounds keep the mix of ops fixed
                lat = lat[:len(lat) - len(lat) % wl.round_size]
                lat_raw = lat_raw[:len(lat)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, rate = tally(runs)
    refs = [x for r in runs for x in r["reference_s"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + ("" if args.trace else f"ops {len(lat)}, each timed {len(runs)} times (replays) "
             f"x {runs[0]['passes']} (passes)"))
    print(f"  git {env_info['git_rev']}  python {env_info['python']}  nproc {env_info['nproc']}")
    print(f"  calibration: {CALIBRATION_LOOPS} loops took {env_info['calibration_s']:.4f} s before the run")
    print(f"  reference: enumerating {REFERENCE_GROUP} took {1e3 * min(refs):.3f} ms at best, "
          f"{1e3 * statistics.median(refs):.3f} ms as a median, over {len(refs)} probes "
          f"(times below are scaled to {1e3 * REFERENCE_S:g} ms)")
    for r in runs:
        for k, why in list(r["failures"].items())[:5]:
            print(f"  FAILED op {k}: {why}")
    print(f"  fail_rate        {rate:.6g}  ({failed}/{attempted})  "
          f"checks {sum(r['check_s'] for r in runs):.2f} s")

    if args.trace:
        metrics = dict(res["layer"])
        metrics["trace.overhead"] = throughput(plain["latencies_s"]) / throughput(res["latencies_s"])
        busy = res["busy_s"]
        print(f"  traced throughput {throughput(res['latencies_s']):.4g} 1/s, "
              f"untraced {throughput(plain['latencies_s']):.4g} 1/s")
        print("  self time by span (share of traced op time):")
        for name, s in sorted(res["self_s"].items(), key=lambda kv: -kv[1])[:10]:
            print(f"    {name:32s} {s:9.3f} s  {100 * s / busy:5.1f}%")
        for name, value in metrics.items():
            print(f"  {name:38s} {value:14.6g} {layer_unit(name):8s} moves {tracing.LAYER_MAP[name]}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        summary = latency_summary(lat)
        summary_raw = latency_summary(lat_raw)
        peak = max(r["peak_rss_mb"] for r in runs)
        metrics = {
            "latency_p50_ms": summary["p50"] * 1e3,
            "latency_tail_ms": summary["tail"] * 1e3,
            "throughput_ops_s": throughput(lat),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": peak,
        }
        as_measured = {
            "latency_p50_ms": summary_raw["p50"] * 1e3,
            "latency_tail_ms": summary_raw["tail"] * 1e3,
            "throughput_ops_s": throughput(lat_raw),
            "setup_s": statistics.median(m for _, m in setups),
            "peak_rss_mb": peak,
        }
        units = E2E_UNITS
        notes = {
            "latency_tail_ms": f"p{summary['tail_pct']:.1f}, {summary['n']} samples, {summary['beyond']} beyond",
            "setup_s": f"median of {len(setups)}",
        }
        print(f"  {'metric':18s} {'scaled':>12s} {'as measured':>12s}")
        for name, value in metrics.items():
            print(f"  {name:18s} {value:12.6g} {as_measured[name]:12.6g} {units[name]:4s} {notes.get(name, '')}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, env=env_info, args=vars(args))
    if not args.trace:
        record["as_measured"] = as_measured
    (out / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
