"""The traced run: spans at the public entries and a per-layer profile.

The benchmark records one span per call into a layer's public entry (the
experiment or sweep call, and every ``ResultCache.get`` / ``put``) from
its own code, and runs the same call under the stdlib profiler.  Profile
self time and call counts are folded by ``repro.<layer>``, where a layer
is a subpackage of ``repro``.  The profiler runs with ``builtins=False``,
so time spent in C functions is charged to the Python function that
called them, i.e. to the calling layer.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from pathlib import Path
from typing import Dict, List, Tuple

LAYERS = (
    "sim", "net", "nic", "pcie", "mem", "cpu", "core", "obs", "harness", "cache", "tenants",
)

#: ``(name, unit, better)`` of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    item
    for layer in LAYERS
    for item in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + (
    ("sim.events", "count", "lower"),
    ("nic.rx_packets", "count", "higher"),
    ("nic.rx_drops", "count", "lower"),
    ("nic.drop_ratio", "ratio", "lower"),
    ("pcie.dma_lines", "count", "lower"),
    ("mem.txn", "count", "lower"),
    ("mem.mlc_writebacks", "count", "lower"),
    ("mem.llc_writebacks", "count", "lower"),
    ("mem.dram_writes", "count", "lower"),
    ("mem.core_hit_ratio", "ratio", "higher"),
    ("mem.insert_calls", "count", "lower"),
    ("mem.host_us_per_txn", "us", "lower"),
    ("cpu.sim_queueing_us", "sim_us", "lower"),
    ("cpu.sim_service_ns", "sim_ns", "lower"),
    ("core.decisions", "count", "lower"),
    ("core.mlc_steer_ratio", "ratio", "higher"),
    ("obs.publishes", "count", "lower"),
    ("tenants.dma_writes", "count", "lower"),
    ("harness.pool_busy_ratio", "ratio", "higher"),
    ("harness.dispatch_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes", "B", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, method: str, name: str) -> None:
        """Record a span around every call of ``obj.method``."""
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, method, traced)

    def total(self, name: str) -> float:
        return sum((end - start for n, start, end, _ in self.records if n == name), 0.0)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (count, self seconds)}``: duration minus child spans."""
        child = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for (name, start, end, _), covered in zip(self.records, child):
            count, seconds = out.get(name, (0, 0.0))
            out[name] = (count + 1, seconds + (end - start) - covered)
        return out


# ----------------------------------------------------------------------
# profile fold
# ----------------------------------------------------------------------


def layer_of(filename: str, package_root: Path) -> str:
    """``repro`` subpackage of a source file; ``repro`` for top-level
    modules; ``external`` for the stdlib and the benchmark itself."""
    root = str(package_root) + os.sep
    path = os.path.abspath(filename)
    if not path.startswith(root):
        return "external"
    parts = path[len(root):].split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


def fold(stats: Dict, package_root: Path) -> Tuple[Dict[str, List[float]], Dict[str, int]]:
    """Fold ``pstats`` entries into ``{bucket: [self_s, calls]}``.

    Also returns the call counts of the two functions the per-layer map
    names: the cache-level ``insert`` of ``repro.mem`` and the bus
    ``publish`` of ``repro.obs``.
    """
    buckets: Dict[str, List[float]] = {}
    counts = {"mem.insert_calls": 0, "obs.publishes": 0}
    for (filename, _, function), (_, calls, self_s, _, _) in stats.items():
        layer = layer_of(filename, package_root)
        bucket = buckets.setdefault(layer, [0.0, 0])
        bucket[0] += self_s
        bucket[1] += calls
        if layer == "mem" and function == "insert":
            counts["mem.insert_calls"] += calls
        elif layer == "obs" and function == "publish" and filename.endswith("bus.py"):
            counts["obs.publishes"] += calls
    return buckets, counts


class Profiled:
    """Run one call under the stdlib profiler and keep its folded stats."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = package_root
        self.profile = cProfile.Profile(builtins=False)

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def folded(self):
        stats = pstats.Stats(self.profile).stats
        total = sum(entry[2] for entry in stats.values())
        buckets, counts = fold(stats, self.package_root)
        return total, buckets, counts


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def pool_metrics(iteration, workers: int) -> Dict[str, float]:
    """Pool busy ratio and dispatch time of one untraced iteration.

    Busy time is the simulation kernels' own host seconds; dispatch time
    is the rest of the sweep's wall once that work is spread evenly over
    the workers (server build, summary pickling, scheduling, stragglers).
    """
    busy = iteration.sim_seconds
    return {
        "harness.pool_busy_ratio": busy / (workers * iteration.wall_s),
        "harness.dispatch_s": max(0.0, iteration.wall_s - busy / workers),
    }


def per_layer(
    traced,
    total: float,
    buckets: Dict[str, List[float]],
    calls: Dict[str, int],
    spans: Spans,
    pool: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration."""
    values: Dict[str, float] = {}
    for layer in LAYERS:
        self_s, count = buckets.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / total if total else 0.0
        values[f"{layer}.calls"] = count
    values.update(traced.work)
    values.update(calls)
    txn = values["mem.txn"]
    values["mem.host_us_per_txn"] = values["mem.self_s"] * 1e6 / txn if txn else 0.0
    values.update(pool)
    cache = traced.cache or {"hits": 0, "misses": 0, "stores": 0}
    lookups = cache["hits"] + cache["misses"]
    values.update(
        {
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.stores": cache["stores"],
            "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "cache.bytes": traced.cache_bytes,
            "cache.get_s": spans.total("cache.get"),
            "cache.put_s": spans.total("cache.put"),
            "trace_overhead": trace_overhead,
        }
    )
    return values


def fold_problems(
    total: float, buckets: Dict[str, List[float]], traced_wall: float
) -> List[str]:
    """Self-checks of the fold: buckets sum to the profile total, and the
    profile total lies inside the traced wall time."""
    problems = []
    folded = sum(b[0] for b in buckets.values())
    if abs(folded - total) > 1e-6 * max(1.0, total):
        problems.append(f"folded self time {folded:.6f}s != profile total {total:.6f}s")
    if not 0.5 * traced_wall <= total <= 1.05 * traced_wall:
        problems.append(
            f"profile total {total:.3f}s outside the traced wall {traced_wall:.3f}s"
        )
    return problems


def profile_table(total: float, buckets: Dict[str, List[float]]) -> List[str]:
    rows = sorted(buckets.items(), key=lambda kv: -kv[1][0])
    return [
        f"  {name:<10} {self_s:9.3f} s  {self_s / total:6.1%}  {int(count):>10} calls"
        for name, (self_s, count) in rows
    ]


def span_table(spans: Spans) -> List[str]:
    return [
        f"  span {name:<12} x{count:<4} self {seconds:.4f} s"
        for name, (count, seconds) in sorted(spans.self_times().items())
    ]
