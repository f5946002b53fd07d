"""Spans and counts at the layer boundaries of ``schubertcalc``, from outside.

``Tracer.install`` wraps each public function or method named in
``TARGETS``.  A module function is replaced wherever the package holds it
under a name (``bruhat_leq`` in ``recurrence`` and ``billey`` as well as in
``rootsys``), so calls through imported names are seen too.  Each wrapper
records a span (id, name, start, end, parent id, op index) in memory and
adds its time to the span name's totals; self time is a span's duration
minus the time its child spans cover.  Nothing under ``src/`` changes.

``LAYER_MAP`` states, for every per-layer metric, which end-to-end metric it
should move and on which workload.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, span name)
TARGETS = [
    ("rootsys", "WeylElement", "__mul__", "rootsys.mul"),
    ("rootsys", "RootSystem", "elements", "rootsys.elements"),
    ("rootsys", None, "bruhat_leq", "rootsys.bruhat"),
    ("rootsys", None, "covers", "rootsys.covers"),
    ("polyring", "Polynomial", "__mul__", "polyring.mul"),
    ("polyring", "Polynomial", "times_linear", "polyring.times_linear"),
    ("polyring", None, "divide_exact", "polyring.divide_exact"),
    ("billey", None, "restrict", "billey.restrict"),
    ("billey", None, "restrict_all", "billey.restrict_all"),
    ("billey", None, "schubert_class", "billey.schubert_class"),
    ("billey", None, "base_constant", "billey.base_constant"),
    ("gkm", "GkmClass", "__mul__", "gkm.class_mul"),
    ("recurrence", None, "structure_constant", "recurrence.structure_constant"),
    ("recurrence", None, "product_expansion", "recurrence.product_expansion"),
    ("oracle", None, "expand_in_schubert", "oracle.expand"),
    ("oracle", None, "oracle_constant", "oracle.oracle_constant"),
    ("oracle", None, "verify_sweep", "oracle.verify_sweep"),
    ("cli", None, "main", "cli.main"),
]

SPAN_CAP = 200_000  # spans kept for writing out; totals count every span

CC, PW, OS = "constant-cold", "product-warm", "oracle-sweep"
LAYER_MAP = {
    "rootsys.enumerate_s": f"latency_p50_ms, throughput_ops_s on {CC}; setup_s on {PW}, {OS}",
    "rootsys.groups_enumerated": f"latency_p50_ms, throughput_ops_s on {CC}; setup_s on {PW}, {OS}",
    "rootsys.mul_calls": f"throughput_ops_s on {PW}, then {CC}",
    "rootsys.mul_self_s": f"throughput_ops_s on {PW}, then {CC}",
    "rootsys.bruhat_calls": f"throughput_ops_s on {PW}, then {CC}",
    "rootsys.bruhat_self_s": f"throughput_ops_s on {PW}, then {CC}",
    "rootsys.covers_self_s": f"throughput_ops_s on {PW}, then {CC}",
    "rootsys.cache_entries": f"peak_rss_mb on {PW}",
    "polyring.mul_calls": f"throughput_ops_s on {OS}; no change on {PW}",
    "polyring.mul_term_pairs": f"throughput_ops_s on {OS}; no change on {PW}",
    "polyring.mul_self_s": f"throughput_ops_s on {OS}; no change on {PW}",
    "polyring.divide_exact_calls": f"throughput_ops_s on {OS}; no change on {PW}",
    "polyring.divide_exact_self_s": f"throughput_ops_s on {OS}; no change on {PW}",
    "polyring.times_linear_calls": f"latency_tail_ms on {OS}",
    "polyring.times_linear_self_s": f"latency_tail_ms on {OS}",
    "billey.restrict_all_calls": f"latency_tail_ms on {OS}",
    "billey.restrict_all_self_s": f"latency_tail_ms on {OS}",
    "billey.schubert_class_self_s": f"latency_tail_ms on {OS}",
    "billey.restrict_calls": f"latency_tail_ms on {CC}",
    "billey.restrict_self_s": f"latency_tail_ms on {CC}",
    "billey.base_constant_self_s": f"latency_tail_ms on {CC}",
    "gkm.class_mul_calls": f"throughput_ops_s on {OS}",
    "gkm.class_mul_self_s": f"throughput_ops_s on {OS}",
    "recurrence.structure_constant_calls": f"throughput_ops_s, peak_rss_mb on {PW}",
    "recurrence.structure_constant_self_s": f"throughput_ops_s, peak_rss_mb on {PW}",
    "recurrence.product_expansion_self_s": f"throughput_ops_s, peak_rss_mb on {PW}",
    "recurrence.memo_entries": f"throughput_ops_s, peak_rss_mb on {PW}",
    "recurrence.memo_new_per_op": f"throughput_ops_s, peak_rss_mb on {PW}",
    "oracle.expand_calls": f"throughput_ops_s on {OS}",
    "oracle.expand_self_s": f"throughput_ops_s on {OS}",
    "oracle.oracle_constant_self_s": f"throughput_ops_s on {OS}",
    "oracle.verify_sweep_self_s": f"throughput_ops_s on {OS}",
    "cli.main_self_s": f"latency_p50_ms, fail_rate on {CC}",
    "cli.cache_hits": f"latency_p50_ms, fail_rate on {CC}",
    "cli.cache_writes": f"latency_p50_ms, fail_rate on {CC}",
    "cli.cache_hit_ratio": f"latency_p50_ms, fail_rate on {CC}",
    "trace.overhead": "none: untraced throughput_ops_s over traced, on the same inputs",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.next_id = 0
        self.stack = []  # [span id, time covered by child spans]
        self.op = None
        self.groups = []  # root systems built while tracing
        self._op_groups = 0
        self._memo_before = 0
        self._cache_path = None
        self._restore = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, before=None):
        stack, spans, calls = self.stack, self.spans, self.calls
        self_s, incl_s = self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            span_name = (before(args) or name) if before else name
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[span_name] += 1
                self_s[span_name] += dur - frame[1]
                incl_s[span_name] += dur
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, span_name, start, end, parent, self.op))

        return wrapper

    def _before(self, name):
        """Extra counts taken at a span's start; may rename the span."""
        if name == "rootsys.elements":
            # a call that fills the elements table is an enumeration
            return lambda args: None if "elements" in args[0].caches else "rootsys.enumerate"
        if name == "polyring.mul":
            def count(args):
                a, b = args
                self.counts["polyring.mul_term_pairs"] += len(a.terms) * len(getattr(b, "terms", (1,)))
            return count
        return None

    def install(self, sc):
        """Wrap every target in the imported package ``sc``."""
        mods = [m for n, m in sys.modules.items() if n == sc.__name__ or n.startswith(sc.__name__ + ".")]
        for mod_name, cls_name, attr, name in TARGETS:
            mod = sys.modules[f"{sc.__name__}.{mod_name}"]
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self._wrap(name, orig, self._before(name))
                for a, v in list(vars(cls).items()):  # __rmul__ = __mul__ too
                    if v is orig:
                        setattr(cls, a, wrapped)
                        self._restore.append((cls, a, orig))
            else:
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, self._before(name))
                for m in mods:
                    for a, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, a, wrapped)
                            self._restore.append((m, a, orig))
        rootsys, cli = sys.modules[f"{sc.__name__}.rootsys"], sys.modules[f"{sc.__name__}.cli"]
        self._patch(rootsys.RootSystem, "__init__", self._track_group)
        self._patch(cli, "_result_cache_path", self._track_cache)

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._restore.append((owner, attr, orig))

    def _track_group(self, init):
        def wrapper(rs, *args, **kwargs):
            init(rs, *args, **kwargs)
            self.groups.append(rs)
        return wrapper

    def _track_cache(self, find):
        def wrapper(*args, **kwargs):
            path = find(*args, **kwargs)
            if path is not None and path.is_file():
                self.counts["cli.cache_hits"] += 1
            else:
                self._cache_path = path
            return path
        return wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- per-op bookkeeping -----------------------------------------------------

    def _memo(self) -> int:
        return sum(len(t) for rs in self.groups for k, t in rs.caches.items() if k.startswith("constants["))

    def begin_op(self, index: int):
        self.op = index
        self._op_groups = len(self.groups)
        self._memo_before = self._memo()
        self._cache_path = None

    def end_op(self, repeat: bool = False):
        if self._cache_path is not None and self._cache_path.is_file():
            self.counts["cli.cache_writes"] += 1
        if repeat:
            self.counts["repeats"] += 1
        memo = self._memo()
        self.counts["memo_new"] += memo - self._memo_before
        entries = sum(len(t) for rs in self.groups for t in rs.caches.values() if hasattr(t, "__len__"))
        self.counts["cache_entries"] = max(self.counts["cache_entries"], entries)
        self.counts["memo_entries"] = max(self.counts["memo_entries"], memo)
        self.counts["ops"] += 1
        del self.groups[self._op_groups:]  # a group built by one op dies with it
        self.op = None

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, s = self.counts, self.self_s
        ops = max(c["ops"], 1)
        return {
            "rootsys.enumerate_s": self.incl_s["rootsys.enumerate"],
            "rootsys.groups_enumerated": self.calls["rootsys.enumerate"],
            "rootsys.mul_calls": self.calls["rootsys.mul"],
            "rootsys.mul_self_s": s["rootsys.mul"],
            "rootsys.bruhat_calls": self.calls["rootsys.bruhat"],
            "rootsys.bruhat_self_s": s["rootsys.bruhat"],
            "rootsys.covers_self_s": s["rootsys.covers"],
            "rootsys.cache_entries": c["cache_entries"],
            "polyring.mul_calls": self.calls["polyring.mul"],
            "polyring.mul_term_pairs": c["polyring.mul_term_pairs"],
            "polyring.mul_self_s": s["polyring.mul"],
            "polyring.divide_exact_calls": self.calls["polyring.divide_exact"],
            "polyring.divide_exact_self_s": s["polyring.divide_exact"],
            "polyring.times_linear_calls": self.calls["polyring.times_linear"],
            "polyring.times_linear_self_s": s["polyring.times_linear"],
            "billey.restrict_all_calls": self.calls["billey.restrict_all"],
            "billey.restrict_all_self_s": s["billey.restrict_all"],
            "billey.schubert_class_self_s": s["billey.schubert_class"],
            "billey.restrict_calls": self.calls["billey.restrict"],
            "billey.restrict_self_s": s["billey.restrict"],
            "billey.base_constant_self_s": s["billey.base_constant"],
            "gkm.class_mul_calls": self.calls["gkm.class_mul"],
            "gkm.class_mul_self_s": s["gkm.class_mul"],
            "recurrence.structure_constant_calls": self.calls["recurrence.structure_constant"],
            "recurrence.structure_constant_self_s": s["recurrence.structure_constant"],
            "recurrence.product_expansion_self_s": s["recurrence.product_expansion"],
            "recurrence.memo_entries": c["memo_entries"],
            "recurrence.memo_new_per_op": c["memo_new"] / ops,
            "oracle.expand_calls": self.calls["oracle.expand"],
            "oracle.expand_self_s": s["oracle.expand"],
            "oracle.oracle_constant_self_s": s["oracle.oracle_constant"],
            "oracle.verify_sweep_self_s": s["oracle.verify_sweep"],
            "cli.main_self_s": s["cli.main"],
            "cli.cache_hits": c["cli.cache_hits"],
            "cli.cache_writes": c["cli.cache_writes"],
            "cli.cache_hit_ratio": c["cli.cache_hits"] / c["repeats"] if c["repeats"] else 0.0,
        }

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
            dropped = self.next_id - len(self.spans)
            f.write(json.dumps({"dropped_after_cap": dropped}) + "\n")
