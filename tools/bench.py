#!/usr/bin/env python3
"""Benchmark harness for the simulator's hot path and the parallel runner.

Measures a fixed single-experiment reference plus a host-derived
multi-core matrix:

* ``burst_reference`` — one 100 Gbps burst experiment at paper scale
  (ring 1024, TouchDrop), the single-experiment speed reference;
* ``burst_faulted`` — the same burst under the standard fault plan
  (overhead of live injection on the hot path);
* ``fig10_quick_jobs<J>`` — the fig10 quick sweep through the warm
  process-pool runner for every ``J`` in ``sorted({1, 2, N})`` with
  ``J <= N``, where ``N`` is this host's scheduler-visible core count
  (oversubscribed rows — e.g. jobs=2 on a 1-core host — are strictly
  slower and only add noise, so they are skipped).  Each row records
  the worker count, the host core count, and the dispatch mode the
  runner chose, so sweep-scaling regressions are attributable from the
  JSON alone.  The pool is pre-warmed outside the timed region (steady-state
  sweep cost, not fork cost) and torn down between rows so no row
  inherits the previous row's workers;
* ``fig10_quick_cached`` — the same sweep cold then warm through the
  fingerprint-keyed result cache (``repro.cache``): the row's wall time
  is the *warm* re-run (every experiment a cache hit), with the cold
  time, speedup, hit/miss counts, and cache size recorded alongside.
  Warm wall times are milliseconds, so the row is ``advisory`` —
  reported but excluded from the ``--check`` gate;
* ``rack_quick`` — a 4-server rack sweep (``repro.rack``) sharded over
  the warm pool, measuring the ToR steering + fold overhead on top of
  the per-server experiments;
* ``tenants_quick`` — a 2-tenant noisy-neighbor isolation sweep
  (``repro.tenants``) under DDIO and IOCA, gating the per-tenant
  attribution hot path (address-range resolution + ``TenantDmaEvent``
  publication on every inbound DMA write) and the IOCA epoch
  controller.

Results (wall seconds, simulated events/sec, peak RSS) are written to
``BENCH_<date>.json`` next to the repository root.  ``--check`` reruns
the matrix and fails if any workload's wall time regressed more than
``--threshold`` (default 25%) against the most recent committed
``BENCH_*.json`` — wired up as ``make bench-check``.  Rows are matched
by name; multi-job rows additionally require the baseline host's core
count to match (a jobs=4 row measured on a 4-core host says nothing
about a 1-core host), and are reported informationally otherwise.
``--quick`` trims the matrix for CI smoke runs (``make bench-smoke``).

Usage::

    PYTHONPATH=src python tools/bench.py            # measure + write json
    PYTHONPATH=src python tools/bench.py --check    # regression gate
    PYTHONPATH=src python tools/bench.py --quick --check --threshold 150
"""

from __future__ import annotations

import argparse
import datetime as _dt
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness import figures, runner  # noqa: E402
from repro.harness.experiment import Experiment  # noqa: E402
from repro.harness.runner import run_experiment_summary  # noqa: E402


def _bench_burst_reference() -> dict:
    exp = Experiment(name="bench", burst_rate_gbps=100.0)
    start = time.perf_counter()
    summary = run_experiment_summary(exp)
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "events": summary.events_fired,
        "events_per_second": summary.events_fired / wall if wall > 0 else 0.0,
        "completed_packets": summary.completed,
    }


def _bench_burst_faulted() -> dict:
    # The reference burst under the all-layer standard fault plan at
    # half intensity: measures the overhead of live injection + fault
    # events on the hot path (informational until a baseline lands).
    from repro.faults import standard_plan  # noqa: E402
    from repro.harness.server import ServerConfig  # noqa: E402

    exp = Experiment(
        name="bench-faulted",
        server=ServerConfig(fault_plan=standard_plan("all", intensity=0.5)),
        burst_rate_gbps=100.0,
    )
    start = time.perf_counter()
    summary = run_experiment_summary(exp)
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "events": summary.events_fired,
        "events_per_second": summary.events_fired / wall if wall > 0 else 0.0,
        "completed_packets": summary.completed,
        "faults_injected": sum(summary.fault_counts.values()),
    }


def _bench_fig10_quick(jobs: int) -> dict:
    # Pre-warm outside the timed region: the row measures steady-state
    # sweep throughput, not one-time fork/import cost.  (get_pool returns
    # None for jobs<=1 or on pool-less hosts; the sweep then runs serial
    # and the row is still comparable via its recorded dispatch mode.)
    if jobs > 1:
        runner.get_pool(jobs)
    start = time.perf_counter()
    report = figures.fig10(
        ring_size=256, include_static=False, corun_rates=(25.0,), jobs=jobs
    )
    wall = time.perf_counter() - start
    events = sum(s.events_fired for s in report.results.values())
    dispatch = dict(runner.last_dispatch)
    row = {
        "wall_seconds": wall,
        "events": events,
        "events_per_second": events / wall if wall > 0 else 0.0,
        "experiments": len(report.results),
        "jobs": jobs,
        "cpus": runner.default_jobs(),
        "dispatch_mode": dispatch.get("mode"),
    }
    # Fresh workers for the next row: no row inherits this row's pool.
    runner.shutdown_pool()
    return row


def _bench_fig10_quick_cached() -> dict:
    # Cold-then-warm through the result cache: the cold run populates a
    # throwaway cache directory, the warm re-run must serve every
    # experiment from it.  The row's headline wall time is the *warm*
    # run; warm times are tiny and dominated by pickle I/O, so the row
    # is advisory (excluded from the --check gate) and the interesting
    # numbers are the speedup and the hit/miss counts.
    import tempfile

    from repro.cache import cache_session

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        with cache_session(root) as cache:
            start = time.perf_counter()
            figures.fig10(
                ring_size=256, include_static=False, corun_rates=(25.0,), jobs=1
            )
            cold_wall = time.perf_counter() - start
            cold_misses, cold_stores = cache.misses, cache.stores
            start = time.perf_counter()
            report = figures.fig10(
                ring_size=256, include_static=False, corun_rates=(25.0,), jobs=1
            )
            warm_wall = time.perf_counter() - start
            stats = cache.stats()
    events = sum(s.events_fired for s in report.results.values())
    return {
        "wall_seconds": warm_wall,
        "advisory": True,
        "cold_wall_seconds": cold_wall,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
        "events": events,
        "experiments": len(report.results),
        "cold_misses": cold_misses,
        "cold_stores": cold_stores,
        "warm_hits": cache.hits,
        "warm_misses": cache.misses - cold_misses,
        "cache_entries": stats["entries"],
        "cache_bytes": stats["bytes"],
    }


def _bench_rack_quick() -> dict:
    # A 4-server rack sweep sharded over the warm pool: measures the
    # rack tier's fold + steering overhead on top of the per-server
    # experiments.  Pre-warmed like the fig10 rows; serial fallback on
    # pool-less hosts stays comparable via the recorded dispatch mode.
    from repro.rack import RackConfig, run_rack  # noqa: E402

    jobs = min(4, runner.default_jobs())
    if jobs > 1:
        runner.get_pool(jobs)
    config = RackConfig(
        name="bench-rack",
        num_servers=4,
        total_flows=4096,
        offered_gbps=80.0,
        duration_us=100.0,
    )
    start = time.perf_counter()
    summary = run_rack(config, jobs=jobs)
    wall = time.perf_counter() - start
    dispatch = dict(runner.last_dispatch)
    row = {
        "wall_seconds": wall,
        "events": summary.events_fired,
        "events_per_second": summary.events_fired / wall if wall > 0 else 0.0,
        "completed_packets": summary.completed,
        "servers": config.num_servers,
        "jobs": jobs,
        "cpus": runner.default_jobs(),
        "dispatch_mode": dispatch.get("mode"),
        "fingerprint": summary.fingerprint,
    }
    runner.shutdown_pool()
    return row


def _bench_tenants_quick() -> dict:
    # The tenant tier's cost center is per-DMA attribution (address-range
    # resolution + TenantDmaEvent publication) plus the IOCA epoch
    # controller; a small matrix over the warm pool keeps the row fast
    # while exercising both the shared-partition and partitioned paths.
    from repro.core.policies import ddio, ioca  # noqa: E402
    from repro.tenants.sweep import run_tenants  # noqa: E402

    jobs = min(2, runner.default_jobs())
    if jobs > 1:
        runner.get_pool(jobs)
    start = time.perf_counter()
    summary = run_tenants(
        policies=[ddio(), ioca()],
        mix="noisy-neighbor",
        tenants=2,
        intensities=(0.25, 2.0),
        duration_us=150.0,
        jobs=jobs,
    )
    wall = time.perf_counter() - start
    dispatch = dict(runner.last_dispatch)
    completed = sum(
        cell.stat(tenant, "completed")
        for cell in summary.cells
        for tenant in cell.tenant_stats
    )
    dma_writes = sum(
        cell.stat(tenant, "dma_writes")
        for cell in summary.cells
        for tenant in cell.tenant_stats
    )
    row = {
        "wall_seconds": wall,
        "cells": len(summary.cells),
        "completed_packets": int(completed),
        "attributed_dma_writes": int(dma_writes),
        "jobs": jobs,
        "cpus": runner.default_jobs(),
        "dispatch_mode": dispatch.get("mode"),
        "fingerprint": summary.fingerprint,
    }
    runner.shutdown_pool()
    return row


def jobs_matrix() -> list[int]:
    """Worker counts measured per sweep workload: 1, 2, and all cores.

    Capped at the host's core count — an oversubscribed row (jobs=2 on a
    1-core host) is strictly slower than serial and only adds noise to
    the baseline, so it is not measured at all.
    """
    cpus = runner.default_jobs()
    return [j for j in sorted({1, 2, cpus}) if j <= cpus]


def workload_matrix(quick: bool = False) -> dict:
    """Name -> thunk for every workload of this run.

    ``quick`` keeps one serial sweep row and one all-cores row (the two
    ends of the scaling curve) and drops the faulted burst — the CI
    smoke configuration.
    """
    workloads = {"burst_reference": _bench_burst_reference}
    if not quick:
        workloads["burst_faulted"] = _bench_burst_faulted
    matrix = jobs_matrix()
    if quick:
        matrix = sorted({1, matrix[-1]})
    for j in matrix:

        def _thunk(jobs: int = j) -> dict:
            return _bench_fig10_quick(jobs)

        workloads[f"fig10_quick_jobs{j}"] = _thunk
    workloads["fig10_quick_cached"] = _bench_fig10_quick_cached
    workloads["rack_quick"] = _bench_rack_quick
    workloads["tenants_quick"] = _bench_tenants_quick
    return workloads


def run_matrix(quick: bool = False) -> dict:
    results = {}
    for name, fn in workload_matrix(quick).items():
        print(f"  {name} ...", end="", flush=True)
        results[name] = fn()
        print(f" {results[name]['wall_seconds']:.2f}s")
    return {
        "date": _dt.date.today().isoformat(),
        "python": sys.version.split()[0],
        "cpus": runner.default_jobs(),
        "quick": quick,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }


def latest_committed() -> Path | None:
    files = sorted(glob.glob(str(REPO_ROOT / "BENCH_*.json")))
    return Path(files[-1]) if files else None


def _row_cpus(row: dict, run: dict) -> int | None:
    """A row's host core count: per-row when recorded, else run-level."""
    cpus = row.get("cpus")
    return cpus if cpus is not None else run.get("cpus")


def _is_multijob(row: dict, name: str) -> bool:
    jobs = row.get("jobs")
    if jobs is not None:
        return jobs > 1
    # Old baselines without a jobs field: fall back to the row name.
    return "jobs" in name and not name.endswith("jobs1")


def compare(current: dict, baseline: dict, threshold_pct: float) -> list[str]:
    """Per-workload comparison; returns the list of failure descriptions.

    Rows are matched by name.  A failure is a wall-time regression beyond
    ``threshold_pct`` on a comparable row, or a comparable row present in
    the baseline but absent from the current run (a silently-dropped
    workload must not pass the gate).  Multi-job rows are only comparable
    when both hosts have the same core count — the jobs matrix is
    host-derived, so a jobs=4 baseline row from a 4-core host is
    informational on any other host, as is its absence.  Rows marked
    ``advisory`` (in either run) are always informational: their wall
    times are too small or too host-dependent to gate on.
    """
    failures: list[str] = []
    baseline_results = baseline.get("results", {})
    for name, cur in current["results"].items():
        base = baseline_results.get(name)
        if base is None:
            print(f"  {name}: new workload, no baseline entry")
            continue
        base_wall, cur_wall = base["wall_seconds"], cur["wall_seconds"]
        delta_pct = (cur_wall - base_wall) / base_wall * 100.0
        advisory = bool(cur.get("advisory") or base.get("advisory"))
        comparable = not _is_multijob(cur, name) or (
            _row_cpus(base, baseline) == _row_cpus(cur, current)
        )
        status = "ok"
        if advisory:
            status = "advisory (not gated)"
        elif not comparable:
            status = "informational (baseline measured on a different core count)"
        elif delta_pct > threshold_pct:
            status = f"REGRESSION (> {threshold_pct:g}%)"
            failures.append(
                f"{name} {delta_pct:+.1f}% ({base_wall:.2f}s -> {cur_wall:.2f}s)"
            )
        print(
            f"  {name}: {base_wall:.2f}s -> {cur_wall:.2f}s "
            f"({delta_pct:+.1f}%) {status}"
        )
    for name, base in baseline_results.items():
        if name in current["results"]:
            continue
        if base.get("advisory"):
            print(f"  {name}: baseline-only advisory row (not gated)")
            continue
        if _is_multijob(base, name):
            # Host-derived row (e.g. jobs=4 on a 4-core baseline host):
            # its absence from this host's matrix is expected.
            print(f"  {name}: baseline-only multi-job row (host matrix differs)")
            continue
        if current.get("quick"):
            print(f"  {name}: not part of the quick matrix")
            continue
        print(f"  {name}: in baseline but not measured -- workload dropped?")
        failures.append(f"{name} missing from current run")
    return failures


def check(current: dict, threshold_pct: float) -> int:
    baseline_path = latest_committed()
    if baseline_path is None:
        print("no committed BENCH_*.json to compare against; nothing to check")
        return 0
    baseline = json.loads(baseline_path.read_text())
    print(f"comparing against {baseline_path.name} ({baseline.get('date')})")
    failures = compare(current, baseline, threshold_pct)
    if failures:
        print("bench-check: FAIL -- " + "; ".join(failures))
        return 1
    print(f"bench-check: ok ({len(current['results'])} workloads within threshold)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if wall time regresses vs the last committed BENCH_*.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="allowed wall-time regression percentage for --check (default 25)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trimmed matrix for CI smoke runs (reference burst + the two "
        "ends of the sweep scaling curve)",
    )
    parser.add_argument(
        "--out",
        help="output path (default BENCH_<date>.json in the repo root; "
        "'-' skips writing)",
    )
    args = parser.parse_args(argv)

    print("running benchmark matrix:")
    current = run_matrix(quick=args.quick)

    if args.check:
        return check(current, args.threshold)

    out = args.out
    if out != "-":
        path = Path(out) if out else REPO_ROOT / f"BENCH_{current['date']}.json"
        path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {path}")
    print(json.dumps(current, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
