"""Tests for the stable facade (``repro.api``) and the wrapper removal.

The contract under test: everything a downstream user needs lives behind
``import repro`` (round-trip an experiment without one deep import), the
top-level namespace re-exports exactly the facade, and the legacy
``MemoryHierarchy`` convenience wrappers — deprecated through the 0.4
line — are gone in 0.5.0 in favor of the one typed entry point,
``access(txn)`` (see ``tests/memtxn.py`` for the migration).
"""

import importlib.metadata

import pytest

import repro
import repro.api
from tests.memtxn import pcie_write


class TestFacadeSurface:
    def test_top_level_reexports_exactly_the_facade(self):
        assert list(repro.__all__) == list(repro.api.__all__)
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_version_is_pep440ish(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_installed_metadata_matches_version(self):
        # pyproject reads its version from repro.__version__; an installed
        # distribution must agree with what ``--version`` reports.
        try:
            installed = importlib.metadata.version("repro")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("repro is not installed (running from PYTHONPATH)")
        assert installed == repro.__version__

    def test_fault_types_are_the_canonical_ones(self):
        from repro.faults import FaultEvent, FaultPlan, FaultSpec

        assert repro.FaultPlan is FaultPlan
        assert repro.FaultSpec is FaultSpec
        assert repro.FaultEvent is FaultEvent

    def test_round_trip_without_deep_imports(self):
        """A full faulted experiment, driven only through ``repro``."""
        plan = repro.standard_plan("nic", intensity=0.5, seed=1)
        exp = repro.Experiment(
            name="facade",
            server=repro.ServerConfig(
                app="touchdrop", ring_size=128, fault_plan=plan
            ),
            burst_rate_gbps=25.0,
        ).with_policy(repro.idio())
        summary = repro.run_experiment(exp).summary()
        assert isinstance(summary, repro.ExperimentSummary)
        assert summary.completed > 0

    def test_build_server_returns_unstarted_server(self):
        server = repro.build_server(repro.ServerConfig(app="touchdrop"))
        assert isinstance(server, repro.SimulatedServer)
        assert server.sim.now == 0

    def test_run_sweep_reachable_from_facade(self):
        exp = repro.Experiment(
            name="facade-sweep",
            server=repro.ServerConfig(app="touchdrop", ring_size=128),
            burst_rate_gbps=25.0,
        )
        sweep = repro.run_sweep([exp], jobs=1)
        assert isinstance(sweep, repro.SweepResult)
        assert sweep.exit_code == 0


class TestLegacyWrapperRemoval:
    def _hierarchy(self):
        from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

        return MemoryHierarchy(HierarchyConfig())

    ADDR = 0x4000

    def test_wrappers_are_gone(self):
        """The 0.4-deprecated wrappers did not survive into 0.5.0."""
        h = self._hierarchy()
        for name in (
            "cpu_access",
            "pcie_write",
            "pcie_read",
            "prefetch_fill",
            "invalidate",
        ):
            assert not hasattr(h, name), f"legacy wrapper {name} still present"

    def test_typed_replacement_behaves_like_the_wrapper_did(self):
        """Removed != lost: the one-line migration keeps the semantics."""
        h = self._hierarchy()
        pcie_write(h, self.ADDR, 0)
        assert h.llc.peek(self.ADDR) >= 0
