"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed on module attributes of the ordspec package from the
benchmark's side, so nothing under `src/` is edited.  Because a module's
global names resolve through the module dictionary, intra-module calls such
as `enumerate_group` -> `close_group` are caught too.

Spans live in flat arrays (name index, parent span id, start, end) while the
workload runs: `spectra.contains` alone produces ~3e5 spans on the
closed-form workload, and tuples per span would cost several times the
memory.  They are written out once, after the timed body.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext

# Public functions wrapped in a traced run, per module.  Their names, with
# ".self_s" and ".calls" appended, are per-layer metrics.
LAYER_FUNCTIONS = {
    "oracle": (
        "field", "standard_generators", "central_scalars", "close_group",
        "centre_of", "element_orders", "sample_orders", "enumerate_group",
        "twisted_order_b_gamma",
    ),
    "arith": ("factorize", "cyclotomic_value", "mult_order", "divisors"),
    "zsigmondy": (
        "primitive_part", "primitive_prime_divisors",
        "has_primitive_prime_divisor",
    ),
    "spectra": ("spectrum", "spectrum_p_prime", "reduce_gens", "contains"),
    "primegraph": (
        "group_order", "graph_from_spectrum", "build_graph", "find_cocliques",
    ),
    "verify": (
        "run_suite", "check_diff", "check_adjacency",
        "check_coclique_witness", "check_go8_equality",
    ),
}

LAYER_NAMES = tuple(
    f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns
)

# Counts recorded at layer boundaries, and the per-phase seconds of the
# Sp4(3) enumeration that reproduce the baseline table in ROADMAP.md.
COUNTERS = (
    "oracle.closure.states", "oracle.centre.size", "oracle.sample.count",
    "oracle.cache.hits", "oracle.cache.misses", "oracle.cache.writes",
)
SP4_3_ROOT = "bench.enumerate.Sp4(3)"
SP4_3_PHASES = {
    "oracle.sp4_3.closure_s": "oracle.close_group",
    "oracle.sp4_3.centre_s": "oracle.centre_of",
    "oracle.sp4_3.orders_s": "oracle.element_orders",
}


class NullTracer:
    """Stands in for a Tracer in untraced runs: every hook is a no-op."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Records nested spans and counters in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _begin(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._begin(self._index(name))
        try:
            yield
        finally:
            self._finish(sid)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, module, attr: str, on_return=None) -> None:
        """Replace module.attr by a wrapper recording one span per call.
        `on_return(args, kwargs, result)` may record counts."""
        fn = getattr(module, attr)
        idx = self._index(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._begin(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self, package_modules: dict) -> None:
        """Wrap every function in LAYER_FUNCTIONS, with the counting hooks."""
        hooks = {
            "oracle.close_group": lambda a, k, r: self.count(
                "oracle.closure.states", len(r)),
            "oracle.centre_of": lambda a, k, r: self.count(
                "oracle.centre.size", len(r)),
            "oracle.sample_orders": lambda a, k, r: self.count(
                "oracle.sample.count", k["count"] if "count" in k else a[1]),
        }
        for mod, fns in LAYER_FUNCTIONS.items():
            for fn in fns:
                self.wrap(package_modules[mod], fn, hooks.get(f"{mod}.{fn}"))

    def summary(self) -> dict:
        """Per-layer self seconds and call counts, cache outcomes and the
        Sp4(3) phase seconds, all from the recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        close_idx = self._name_index.get("oracle.close_group", -1)
        had_closure = set()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                if self.name[i] == close_idx:
                    had_closure.add(p)
        self_s: Counter = Counter()
        calls: Counter = Counter()
        sp4_3: Counter = Counter()
        sp4_3_root = self._name_index.get(SP4_3_ROOT, -1)
        enum_idx = self._name_index.get("oracle.enumerate_group", -1)
        counts = Counter({c: 0 for c in COUNTERS})
        counts.update(self.counts)
        hit_s = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            own = dur[i] - child[i]
            self_s[name] += own
            calls[name] += 1
            if self.name[root[i]] == sp4_3_root:
                sp4_3[name] += own
            if self.name[i] == enum_idx:
                if i in had_closure:
                    counts["oracle.cache.misses"] += 1
                else:
                    counts["oracle.cache.hits"] += 1
                    hit_s += dur[i]
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out.update(counts)
        out["oracle.cache.hit_s"] = hit_s
        for metric, layer in SP4_3_PHASES.items():
            out[metric] = sp4_3[layer]
        out["trace.spans"] = n
        # time inside the benchmark's own spans but outside every wrapped
        # call: unwrapped library code plus the wrappers' own cost
        out["trace.unattributed_s"] = sum(
            v for k, v in self_s.items() if k.startswith("bench.")
        )
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "run": self.run_id,
                    "id": i,
                    "parent": self.parent[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                }, separators=(",", ":")))
                fh.write("\n")
