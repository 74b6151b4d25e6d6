"""Self-tests of the benchmark's own bookkeeping.

Run from the repository root with ``python3 -m pytest perfbench -q``.
None of them runs a simulation.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import EXPECTED_CACHE, Iteration  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DIGESTS = json.loads(run.DIGESTS.read_text())


def _iteration(digests, cache=None) -> Iteration:
    return Iteration(
        wall_s=2.0, digests=dict(digests), txn=1000, packets=10,
        sim_seconds=1.5, work={}, cache=cache,
    )


def _gated():
    return [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]


def test_benchmark_json_shape_and_metric_names():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in BENCHMARK["workloads"]] + _gated()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_benchmark_json_matches_the_code():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOAD_NAMES
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        measure.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert BENCHMARK["paths"] == [HERE.name]
    assert BENCHMARK["command"] == ["python3", f"{HERE.name}/run.py"]


def test_recorded_digests_cover_every_workload_and_seed():
    assert len(DIGESTS["fig10_sweep"]) == workloads.FIG10_EXPERIMENTS
    for seed in range(2 * len(workloads.TENANT_SEEDS)):
        assert len(run.expected_digests("tenants_ioca", seed)) == 4
    assert run.expected_digests("cache_replay", 0) == DIGESTS["fig10_sweep"]
    assert workloads.tenant_seed(0) == 1234


def test_injected_digest_mismatch_raises_failed_ratio():
    expected = DIGESTS["tenants_ioca"]["1234"]
    good = _iteration(expected)
    bad = _iteration({**expected, "ioca-i2": "0" * 64})
    attempted, failed, problems = measure.check([good, bad], expected)
    assert (attempted, failed) == (8, 1)
    assert problems and "ioca-i2" in problems[0]

    metrics = measure.end_to_end([good, bad], setup_s=0.5, peak_rss_mb=100.0)
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    shown, line = measure.result(metrics, _gated(), attempted, failed, problems)
    assert line["correct"] is False and line["failed"] == 1
    assert shown["failed_ratio"][0] > 0
    for speed in measure.SPEEDS:
        assert speed not in shown and speed not in line["metrics"]


def test_clean_run_is_correct_and_reports_every_end_to_end_metric():
    expected = DIGESTS["burst_idio"]
    iterations = [_iteration(expected) for _ in range(3)]
    attempted, failed, problems = measure.check(iterations, expected)
    metrics = measure.end_to_end(iterations, setup_s=0.5, peak_rss_mb=100.0)
    _, line = measure.result(metrics, _gated(), attempted, failed, problems)
    assert line["correct"] is True and (line["attempted"], line["failed"]) == (3, 0)
    assert set(line["metrics"]) == {name for name, _ in measure.END_TO_END}


def test_mis_set_cache_is_detected():
    expected = DIGESTS["fig10_sweep"]
    # A sweep that silently replayed from a pre-filled cache: right
    # digests, wrong path.
    replayed = _iteration(expected, cache=dict(EXPECTED_CACHE["cache_replay"]))
    attempted, failed, problems = measure.check(
        [replayed], expected, EXPECTED_CACHE["fig10_sweep"]
    )
    assert failed == attempted == workloads.FIG10_EXPERIMENTS
    assert any("cache traffic" in p for p in problems)
    # And a replay that recomputed.
    recomputed = _iteration(expected, cache=dict(EXPECTED_CACHE["fig10_sweep"]))
    _, failed, _ = measure.check([recomputed], expected, EXPECTED_CACHE["cache_replay"])
    assert failed == workloads.FIG10_EXPERIMENTS


def test_fold_charges_self_time_to_the_calling_layer():
    package = ROOT / "src" / "repro"
    stats = {
        (str(package / "mem" / "cache.py"), 1, "insert"): (5, 5, 0.5, 0.7, {}),
        (str(package / "mem" / "hierarchy.py"), 1, "access"): (2, 2, 0.2, 0.9, {}),
        (str(package / "obs" / "bus.py"), 1, "publish"): (3, 3, 0.1, 0.1, {}),
        (str(package / "api.py"), 1, "build_server"): (1, 1, 0.05, 0.05, {}),
        ("/usr/lib/python3/json/decoder.py", 1, "decode"): (1, 1, 0.15, 0.15, {}),
    }
    buckets, counts = layers.fold(stats, package)
    assert buckets["mem"] == [pytest.approx(0.7), 7]
    assert set(buckets) == {"mem", "obs", "repro", "external"}
    assert counts == {"mem.insert_calls": 5, "obs.publishes": 3}
    assert layers.fold_problems(1.0, buckets, traced_wall=1.02) == []
    assert layers.fold_problems(1.0, buckets, traced_wall=0.5)


def test_span_self_time_excludes_children():
    spans = layers.Spans()
    spans.records = [["sweep", 0.0, 10.0, None], ["cache.get", 1.0, 3.0, 0]]
    assert spans.self_times() == {"sweep": (1, 8.0), "cache.get": (1, 2.0)}
    assert spans.total("cache.get") == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "burst_idio",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
