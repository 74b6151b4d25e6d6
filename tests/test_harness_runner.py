"""Tests for the parallel experiment runner and ExperimentSummary.

The determinism regression is the load-bearing check: a seeded experiment
must produce byte-identical summaries whether it runs serially in-process
or inside a process-pool worker.  Everything a summary carries that is
simulation-derived participates in the fingerprint; only the wall-clock
diagnostics (``wall_seconds``/``events_per_second``) are excluded, since
they measure the host, not the simulation.
"""

import gc
import pickle
import weakref
from array import array
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.core.policies import ddio, idio
from repro.faults import FaultPlan, FaultSpec
from repro.harness import metrics, runner
from repro.harness.experiment import (
    NONDETERMINISTIC_FIELDS,
    Experiment,
    ExperimentResult,
    ExperimentSummary,
    run_experiment,
    run_policy_comparison,
)
from repro.harness.runner import (
    InjectedCrash,
    run_experiment_summary,
    run_experiments,
    run_named_experiments,
    run_sweep,
    shutdown_pool,
)
from repro.harness.server import ServerConfig


def small_experiment(name="runner-test", policy=None, **kwargs) -> Experiment:
    kwargs.setdefault("traffic", "bursty")
    exp = Experiment(
        name=name,
        server=ServerConfig(app="touchdrop", ring_size=128),
        burst_rate_gbps=25.0,
        **kwargs,
    )
    return exp.with_policy(policy) if policy is not None else exp


class TestExperimentSummary:
    def test_summary_matches_result(self):
        result = run_experiment(small_experiment(policy=idio()))
        summary = result.summary()
        assert summary.policy_name == result.policy_name
        assert summary.window == result.window
        assert summary.completed == result.completed
        assert summary.latencies_ns == result.latencies_ns
        assert summary.p99_ns == result.p99_ns
        assert summary.decisions == result.decisions
        assert summary.events_fired > 0

    def test_summary_timeline_matches_result_timeline(self):
        result = run_experiment(small_experiment())
        summary = result.summary()
        start, end = result.window.start, result.window.end
        for stream in ("pcie_writes", "mlc_writebacks", "llc_writebacks"):
            assert summary.timeline(stream) == metrics.timeline_mtps(
                result.server.stats, stream, start, end
            )

    def test_summary_count_between_matches_event_log(self):
        result = run_experiment(small_experiment())
        summary = result.summary()
        start, end = result.window.start, result.window.end
        mid = (start + end) // 2
        assert summary.count_between("pcie_writes", start, mid) == (
            result.server.stats.events.count_between("pcie_writes", start, mid)
        )

    def test_unknown_stream_rejected(self):
        summary = run_experiment_summary(small_experiment())
        with pytest.raises(KeyError):
            summary.count_between("no_such_stream", 0, 1)

    def test_summary_is_picklable_and_round_trips(self):
        summary = run_experiment_summary(small_experiment(policy=idio()))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.fingerprint() == summary.fingerprint()

    def test_drop_server_releases_server_and_blocks_server_methods(self):
        result = run_experiment(small_experiment())
        assert result.server is not None
        timeline = result.timeline("pcie_writes")
        summary = result.summary()
        result.drop_server()
        assert result.server is None
        # Everything summary-level works from the stored fields.
        assert result.timeline("pcie_writes") == timeline
        assert result.summary().fingerprint() == summary.fingerprint()
        assert result.completed > 0

    def test_summary_run_frees_the_server_without_the_cycle_collector(
        self, monkeypatch
    ):
        """The server graph is cyclic (bus subscribers are bound methods
        of components holding the bus); run_experiment_summary must not
        leave it for a generation-2 pass that may never come."""
        parts = []

        def spy(experiment):
            result = run_experiment(experiment)
            server = result.server
            parts.extend(
                weakref.ref(obj) for obj in (server, server.hierarchy, server.sim)
            )
            return result

        monkeypatch.setattr(runner, "run_experiment", spy)
        gc.disable()
        try:
            run_experiment_summary(small_experiment(policy=idio()))
            assert [ref() for ref in parts] == [None, None, None]
        finally:
            gc.enable()

    def test_result_is_a_summary_plus_the_server(self):
        summary_fields = [f.name for f in fields(ExperimentSummary)]
        assert [f.name for f in fields(ExperimentResult)] == summary_fields + [
            "server"
        ]
        result = run_experiment(small_experiment(policy=idio()))
        summary = result.summary()
        assert type(summary) is ExperimentSummary
        assert result.fingerprint() == summary.fingerprint()


def _perturbed(value):
    """A value of the same shape as ``value`` that differs from it."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, array):
        return value + array(value.typecode, [0])
    if isinstance(value, dict):
        if not value:
            return {"perturbed": 1}
        first = next(iter(value))
        return {**value, first: _perturbed(value[first])}
    if is_dataclass(value):
        first = fields(value)[0].name
        return replace(value, **{first: _perturbed(getattr(value, first))})
    raise TypeError(f"no perturbation for {type(value).__name__}")


class TestFingerprintCoverage:
    """The fingerprint is derived from the summary's fields, so every
    field outside ``NONDETERMINISTIC_FIELDS`` must move it."""

    @pytest.fixture(scope="class")
    def summary(self):
        return run_experiment_summary(small_experiment(policy=idio()))

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in fields(ExperimentSummary)
            if f.name not in NONDETERMINISTIC_FIELDS
        ],
    )
    def test_perturbing_a_field_changes_the_fingerprint(self, summary, name):
        changed = replace(summary, **{name: _perturbed(getattr(summary, name))})
        assert changed.fingerprint() != summary.fingerprint()

    @pytest.mark.parametrize("name", sorted(NONDETERMINISTIC_FIELDS))
    def test_nondeterministic_fields_are_ignored(self, summary, name):
        changed = replace(summary, **{name: _perturbed(getattr(summary, name))})
        assert changed.fingerprint() == summary.fingerprint()


class TestRunExperiments:
    def test_serial_results_are_ordered(self):
        exps = [small_experiment(name=f"order-{i}") for i in range(3)]
        summaries = run_experiments(exps, jobs=1)
        assert [s.experiment.name for s in summaries] == [e.name for e in exps]

    def test_parallel_matches_serial_byte_for_byte(self):
        """The determinism regression: pool workers replay a seeded
        experiment identically to the serial path."""
        exps = [
            small_experiment(name="det-ddio", policy=ddio()),
            small_experiment(name="det-idio", policy=idio()),
            small_experiment(
                name="det-poisson",
                policy=idio(),
                traffic="poisson",
                traffic_seed=7,
            ),
        ]
        serial = run_experiments(exps, jobs=1)
        parallel = run_experiments(exps, jobs=2)
        assert [s.experiment.name for s in parallel] == [e.name for e in exps]
        for ser, par in zip(serial, parallel):
            assert ser.fingerprint() == par.fingerprint()
            assert pickle.dumps(ser.fingerprint()) == pickle.dumps(par.fingerprint())

    def test_jobs_none_uses_all_cores(self):
        exps = [small_experiment(name=f"auto-{i}") for i in range(2)]
        summaries = run_experiments(exps, jobs=None)
        assert len(summaries) == 2

    def test_named_experiments_keyed_and_ordered(self):
        named = [
            ("first", small_experiment(name="n1")),
            ("second", small_experiment(name="n2", policy=idio())),
        ]
        results = run_named_experiments(named, jobs=1)
        assert list(results) == ["first", "second"]
        assert results["second"].policy_name == "idio"

    def test_policy_comparison_returns_summaries(self):
        results = run_policy_comparison(
            small_experiment(), [ddio(), idio()], jobs=2
        )
        assert set(results) == {"ddio", "idio"}
        assert all(type(s) is ExperimentSummary for s in results.values())

    def test_single_experiment_runs_in_process(self):
        """No timeout to enforce and nothing to fan out: no pool."""
        shutdown_pool()
        run_experiments([small_experiment()], jobs=2)
        assert runner._session_pool is None
        assert runner.last_dispatch["mode"] == "serial"


@pytest.mark.parametrize("jobs", [1, 2])
class TestStrictFailures:
    """``run_experiments`` is ``run_sweep`` without retries that re-raises
    the first failure's original exception, serial and pooled alike."""

    def test_reraises_original_exception_type(self, jobs):
        exps = [
            small_experiment(name="fine"),
            small_experiment(name="bad-traffic", traffic="random"),
        ]
        with pytest.raises(ValueError, match="unknown traffic kind"):
            run_experiments(exps, jobs=jobs)

    def test_harness_crash_fails_strictly_but_is_retried_by_sweep(self, jobs):
        plan = FaultPlan(specs=(FaultSpec("harness.crash", magnitude=1.0),))
        exps = [
            small_experiment(name="fine"),
            Experiment(
                name="crashy",
                server=ServerConfig(
                    app="touchdrop", ring_size=128, fault_plan=plan
                ),
                burst_rate_gbps=25.0,
            ),
        ]
        with pytest.raises(InjectedCrash):
            run_experiments(exps, jobs=jobs)
        sweep = run_sweep(exps, jobs=jobs, retries=1)
        assert [r.status for r in sweep.records] == ["ok", "retried"]
