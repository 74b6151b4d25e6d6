"""Determinism: identical configurations produce identical simulations.

Reproducibility is a core property of the harness — every stochastic
element (random replacement, the antagonist's access pattern) is seeded,
and the event kernel breaks timestamp ties FIFO.  Two runs of the same
experiment must agree on every counter and every packet latency.
"""

import pytest

from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.sim import units


def run_once(policy, antagonist=False):
    exp = Experiment(
        name="determinism",
        server=ServerConfig(
            policy=policy, app="touchdrop", ring_size=128, antagonist=antagonist
        ),
        traffic="bursty",
        burst_rate_gbps=50.0,
    )
    return run_experiment(exp)


def fingerprint(result):
    return (
        result.server.stats.counters.snapshot(),
        tuple(result.latencies_ns),
        result.burst_processing_time,
        result.rx_packets,
        result.rx_drops,
    )


class TestDeterminism:
    def test_ddio_run_is_reproducible(self):
        assert fingerprint(run_once(ddio())) == fingerprint(run_once(ddio()))

    def test_idio_run_is_reproducible(self):
        assert fingerprint(run_once(idio())) == fingerprint(run_once(idio()))

    def test_corun_with_antagonist_is_reproducible(self):
        """The antagonist uses a seeded RNG: co-runs replay exactly."""
        a = run_once(ddio(), antagonist=True)
        b = run_once(ddio(), antagonist=True)
        assert fingerprint(a) == fingerprint(b)
        assert a.antagonist_access_ns == b.antagonist_access_ns

    def test_different_policies_differ(self):
        """Sanity: the fingerprint is sensitive enough to distinguish
        policies (guards against trivially-equal fingerprints)."""
        assert fingerprint(run_once(ddio())) != fingerprint(run_once(idio()))

    def test_serial_and_warm_pool_agree(self):
        """The serial path and the warm process pool must produce
        byte-identical summaries — the pool may not leak into simulation
        results."""
        import pickle

        from repro.harness.runner import run_experiments, shutdown_pool

        exp = Experiment(
            name="serial-vs-pool",
            server=ServerConfig(policy=idio(), app="touchdrop", ring_size=128),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        serial = run_experiments([exp, exp], jobs=1)
        pooled = run_experiments([exp, exp], jobs=2)
        shutdown_pool()
        prints = [pickle.dumps(s.fingerprint()) for s in (*serial, *pooled)]
        assert len(set(prints)) == 1
