#!/usr/bin/env python3
"""Layer-resolved benchmark of the IDIO reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload burst_idio --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # each workload in a fresh process
    python3 perfbench/run.py --record-digests          # re-record perfbench/digests.json

``--trace 0`` times closed-loop iterations for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced
iteration and prints the per-layer metrics.  Either way the outputs are
checked against the recorded ``fingerprint_digest`` of every experiment,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark builds nothing: it imports ``repro`` from ``src/`` of the
working directory and exits non-zero, printing no result, when that
source tree is missing.  See ``perfbench/README.md`` for the workloads,
the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("burst_idio", "fig10_sweep", "cache_replay", "tenants_ioca")
#: Set-up repetitions whose median is reported as ``setup_s``.
SETUP_REPEATS = 5
IMPORTS = "import repro.api, repro.harness.figures, repro.tenants.sweep"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; picks the tenant population of tenants_ioca "
        "(0 = the shipped 1234)",
    )
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run every workload once and rewrite perfbench/digests.json",
    )
    return parser.parse_args(argv)


def source_root(root: Path) -> Path:
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}; run from the repo root")
    return src


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def import_seconds(src: Path) -> float:
    """Import time of the package in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload, src: Path, rss) -> float:
    """Set the workload up and return its set-up time.

    Set-up is imports, pool warm-up and the workload's own set-up: the
    cache fill of ``cache_replay`` (a full 13-experiment sweep) or the
    warm-up matrix of ``tenants_ioca``.  Imports and pool warm-up are
    repeated and their medians summed; the workload's own set-up runs once.
    """
    from repro.harness import runner

    seconds = statistics.median(import_seconds(src) for _ in range(SETUP_REPEATS))
    if workload.jobs > 1:
        warm = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                rss.sample_children()
                runner.shutdown_pool()
            start = time.perf_counter()
            runner.get_pool(workload.jobs)
            warm.append(time.perf_counter() - start)
        seconds += statistics.median(warm)
    start = time.perf_counter()
    workload.setup()
    seconds += time.perf_counter() - start
    if workload.jobs == 1:
        # The cache fill's workers: the replay itself dispatches nothing.
        rss.sample_children()
        runner.shutdown_pool()
    return seconds


def expected_digests(name: str, seed: int) -> dict:
    from workloads import tenant_seed

    table = json.loads(DIGESTS.read_text())
    if name == "cache_replay":
        return table["fig10_sweep"]
    if name == "tenants_ioca":
        return table[name][str(tenant_seed(seed))]
    return table[name]


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def timed_run(workload, seconds: float, rss):
    """Closed-loop iterations until ``seconds`` have passed (at least one)."""
    from repro.harness import runner

    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(workload.iterate(workload.jobs))
    rss.sample_children()
    runner.shutdown_pool()
    return iterations


def traced_run(workload, src: Path, rss):
    """One untraced iteration, then one traced in-process at jobs=1.

    Pool workers are invisible to the profiler, so the traced iteration
    runs serially; the pool metrics come from the untraced one.
    """
    import layers
    from repro.harness import runner

    untraced = workload.iterate(workload.jobs)
    rss.sample_children()
    runner.shutdown_pool()

    spans = layers.Spans()
    profiled = layers.Profiled(src / "repro")

    @contextlib.contextmanager
    def around():
        with spans.span(workload.entry), profiled:
            yield

    def hook(cache) -> None:
        spans.wrap(cache, "get", "cache.get")
        spans.wrap(cache, "put", "cache.put")

    traced = workload.iterate(1, around, hook)
    total, buckets, calls = profiled.folded()
    wall = spans.total(workload.entry)
    values = layers.per_layer(
        traced, total, buckets, calls, spans,
        pool=layers.pool_metrics(untraced, workload.jobs),
        trace_overhead=traced.wall_s / untraced.wall_s,
    )
    lines = [f"profile: {total:.3f} s self time folded by layer (traced wall {wall:.3f} s)"]
    lines += layers.profile_table(total, buckets) + layers.span_table(spans)
    return [untraced, traced], values, lines, layers.fold_problems(total, buckets, wall)


def run_workload(args, src: Path, scratch: Path) -> int:
    import layers
    import measure
    import workloads

    workloads.check_isolation()
    workload = workloads.WORKLOADS[args.workload](scratch, args.seed)
    rss = measure.RssTracker()
    setup_s = setup(workload, src, rss)
    if args.trace:
        iterations, values, lines, problems = traced_run(workload, src, rss)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: (values[name], units[name]) for name, _, _ in layers.PER_LAYER}
    else:
        iterations = timed_run(workload, args.seconds, rss)
        problems = []
        walls = [it.wall_s for it in iterations]
        p25, median, p75 = measure.quartiles(walls)
        lines = [f"wall_s: median {median:.4f} s, p25 {p25:.4f}, p75 {p75:.4f}, n={len(walls)}"]
        metrics = measure.end_to_end(iterations, setup_s, rss.peak_mb())
    attempted, failed, digest_problems = measure.check(
        iterations,
        expected_digests(args.workload, args.seed),
        workloads.EXPECTED_CACHE.get(args.workload),
    )
    problems += digest_problems
    if not args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    gated = [name for name, _ in measure.END_TO_END] + [name for name, _, _ in layers.PER_LAYER]
    shown, result = measure.result(metrics, gated, attempted, failed, problems)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"tenant_seed={workloads.tenant_seed(args.seed)}")
    for line in lines + [f"PROBLEM: {p}" for p in problems]:
        print(line)
    for name, (value, unit) in shown.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def record_digests(scratch: Path) -> int:
    """Run each workload once and store its per-experiment digests."""
    from repro.harness import runner
    from workloads import TENANT_SEEDS, WORKLOADS

    table = {}
    for name in ("burst_idio", "fig10_sweep"):
        workload = WORKLOADS[name](scratch, 0)
        table[name] = workload.iterate(workload.jobs).digests
    table["tenants_ioca"] = {}
    for index, seed in enumerate(TENANT_SEEDS):
        workload = WORKLOADS["tenants_ioca"](scratch, index)
        table["tenants_ioca"][str(seed)] = workload.iterate(workload.jobs).digests
    runner.shutdown_pool()
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    failed = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        failed += subprocess.run(command).returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = source_root(root)
    if args.workload == "all" and not args.record_digests:
        return run_all(args)
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    from repro.harness import runner

    # Isolation: the result cache and every temp file (the pool's spool
    # included) live in a scratch directory this run creates and removes.
    os.environ.pop("REPRO_CACHE_DIR", None)
    parent = root / ".bench_build" / "perfbench"
    parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        if args.record_digests:
            return record_digests(scratch)
        return run_workload(args, src, scratch)
    finally:
        runner.shutdown_pool()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
