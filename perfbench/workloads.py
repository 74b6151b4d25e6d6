"""The four benchmark workloads and the simulated-work counts read off them.

Every workload is a closed loop: one iteration starts when the previous
one returns.  Inside the simulator, traffic arrives open-loop at line rate
in simulated time.  The program is driven only through its public calls
(``run_experiment_summary``, ``figures.fig10``, ``run_tenants``,
``ResultCache`` / ``cache_session`` and ``runner.get_pool`` /
``shutdown_pool``); nothing here reaches into a ``repro`` internal.

``burst_idio``, ``fig10_sweep`` and ``cache_replay`` have no random input
by construction: their experiments carry fixed configs and no traffic
seed.  Only ``tenants_ioca`` takes the workload seed.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Optional, Sequence

from repro.analysis import fingerprint_digest
from repro.api import Experiment, ServerConfig, ddio, idio, ioca, run_tenants
from repro.cache import ResultCache, cache_session, get_default_cache
from repro.harness import figures, runner
from repro.sim import units

#: Worker count of the pool workloads: the 2-CPU host's ``nproc``.
POOL_JOBS = 2
#: ``figures.fig10()`` defaults: 3 rates x {ddio, static, idio} + 2 co-run pairs.
FIG10_EXPERIMENTS = 13
#: The cache traffic each iteration must show; anything else means the
#: cache was mis-set (a sweep silently replayed, or a replay recomputed).
EXPECTED_CACHE = {
    "fig10_sweep": {"hits": 0, "misses": FIG10_EXPERIMENTS, "stores": FIG10_EXPERIMENTS},
    "cache_replay": {"hits": FIG10_EXPERIMENTS, "misses": 0, "stores": 0},
}
#: The paper's headline cell, used for the ``sim_*`` metrics of the fig10 workloads.
FIG10_REFERENCE = "fig10-idio-100g"
#: Tenant populations with recorded digests.  The workload seed picks one;
#: ``--seed 0`` gives the shipped 1234.
TENANT_SEEDS = (1234, 1235)
TENANT_INTENSITIES = (0.25, 2.0)
#: The tenants reference cell: ``(policy, aggressor intensity)``.
TENANT_REFERENCE = ("ioca", 2.0)


def tenant_seed(seed: int) -> int:
    return TENANT_SEEDS[seed % len(TENANT_SEEDS)]


def burst_experiment() -> Experiment:
    """One 100 Gbps burst into a 1024-entry ring feeding 2 TouchDrop cores."""
    return Experiment(
        name="burst_idio",
        server=ServerConfig(
            policy=idio(), app="touchdrop", num_nf_cores=2,
            ring_size=1024, packet_bytes=1514,
        ),
        traffic="bursty",
        burst_rate_gbps=100.0,
        num_bursts=1,
    )


# ----------------------------------------------------------------------
# work counts of one summary
# ----------------------------------------------------------------------


def txn_count(summary) -> int:
    """Simulated memory transactions: CPU demand accesses, DMA line
    writes, MLC prefetch fills and self-invalidations."""
    counters = summary.counters
    return (
        sum(summary.core_mem_accesses)
        + counters.get("pcie_writes", 0)
        + counters.get("mlc_prefetch_fills", 0)
        + counters.get("self_invalidations", 0)
    )


def sim_metrics(summary) -> Dict[str, float]:
    """The simulated ``sim_*`` end-to-end metrics of a reference cell."""
    burst = summary.burst_processing_time
    return {
        "sim_p99_us": (summary.p99_ns or 0.0) / 1000.0,
        "sim_burst_us": units.to_microseconds(burst) if burst else 0.0,
        "sim_mlc_wb_per_rx": summary.rate_per_rx_line("mlc_writebacks"),
    }


def _weighted(summaries: Sequence, key: str) -> float:
    weight = sum(s.completed for s in summaries)
    if not weight:
        return 0.0
    return sum(s.latency_breakdown.get(key, 0.0) * s.completed for s in summaries) / weight


def work_counts(summaries: Sequence) -> Dict[str, float]:
    """Deterministic work of the summaries a layer actually simulated."""

    def total(key: str) -> int:
        return sum(s.counters.get(key, 0) for s in summaries)

    demand = sum(sum(s.core_mem_accesses) for s in summaries)
    offered = sum(s.offered_packets for s in summaries)
    drops = sum(s.rx_drops for s in summaries)
    decisions = sum(sum(s.decisions.values()) for s in summaries)
    return {
        "sim.events": sum(s.events_fired for s in summaries),
        "nic.rx_packets": sum(s.rx_packets for s in summaries),
        "nic.rx_drops": drops,
        "nic.drop_ratio": drops / offered if offered else 0.0,
        "pcie.dma_lines": total("pcie_writes"),
        "mem.txn": sum(txn_count(s) for s in summaries),
        "mem.mlc_writebacks": total("mlc_writebacks"),
        "mem.llc_writebacks": total("llc_writebacks"),
        "mem.dram_writes": total("dram_writes"),
        "mem.core_hit_ratio": (
            (total("l1_hits") + total("mlc_hits")) / demand if demand else 0.0
        ),
        "cpu.sim_queueing_us": _weighted(summaries, "mean_queueing_ns") / 1000.0,
        "cpu.sim_service_ns": _weighted(summaries, "mean_service_ns"),
        "core.decisions": decisions,
        "core.mlc_steer_ratio": (
            sum(s.decisions.get("mlc_prefetch", 0) for s in summaries) / decisions
            if decisions
            else 0.0
        ),
        "tenants.dma_writes": sum(
            stats.get("dma_writes", 0)
            for s in summaries
            for stats in s.tenant_stats.values()
        ),
    }


# ----------------------------------------------------------------------
# one iteration's outcome
# ----------------------------------------------------------------------


@dataclass
class Iteration:
    """What one closed-loop iteration produced.

    Summaries are reduced to counts here so a run holds no summary past
    its iteration (a replay iteration would otherwise pin ~60 MB).
    """

    wall_s: float
    #: Experiment key -> ``fingerprint_digest`` of its summary ("" = no summary).
    digests: Dict[str, str]
    #: Simulated memory transactions and completed packets of every
    #: summary, computed or replayed.
    txn: int
    packets: int
    #: Host seconds the simulation kernels ran (computed summaries only).
    sim_seconds: float
    #: :func:`work_counts` of the summaries simulated in this iteration.
    work: Dict[str, float]
    #: ``{"hits", "misses", "stores"}`` of the iteration's cache, if any.
    cache: Optional[Dict[str, int]] = None
    #: On-disk size of that cache after the iteration.
    cache_bytes: int = 0
    #: Simulated (deterministic) end-to-end metrics: ``sim_*`` of the
    #: reference cell and, for the fig10 workloads, ``paper_exe_ratio_err``.
    sim: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, wall_s, digests, computed, replayed=(), **fields) -> "Iteration":
        every = list(computed) + list(replayed)
        return cls(
            wall_s=wall_s,
            digests=digests,
            txn=sum(txn_count(s) for s in every),
            packets=sum(s.completed for s in every),
            sim_seconds=sum(s.wall_seconds for s in computed),
            work=work_counts(computed),
            **fields,
        )


def _cache_counts(cache: ResultCache) -> Dict[str, int]:
    return {"hits": cache.hits, "misses": cache.misses, "stores": cache.stores}


class _Collector:
    """A ``cache=`` argument that never hits and keeps what is stored.

    It gives the benchmark the tenant cells' summaries (``run_tenants``
    returns only per-tenant stats) without touching disk.
    """

    def __init__(self) -> None:
        self.summaries: Dict[str, Any] = {}

    def get(self, experiment):
        return None

    def put(self, experiment, summary):
        self.summaries[experiment.name] = summary
        return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


#: ``around()`` encloses exactly the public call an iteration times; the
#: traced run passes its profiler and entry span here.  ``cache_hook(cache)``
#: sees every ResultCache a workload creates; the traced run wraps its
#: ``get``/``put`` in spans.  Digests are taken outside both.
Around = Callable[[], ContextManager]
CacheHook = Callable[[ResultCache], None]


class Workload:
    """Set-up and closed-loop iterations of one benchmark workload."""

    name = ""
    #: Worker count of the untraced iterations (> 1: the warm pool).
    jobs = 1
    #: Name of the traced run's span around the public call.
    entry = "sweep"

    def __init__(self, scratch: Path, seed: int) -> None:
        self.scratch = scratch
        self.seed = seed

    def setup(self) -> None:
        """Work done once before timing (beyond imports and pool warm-up)."""

    def iterate(
        self,
        jobs: int,
        around: Around = contextlib.nullcontext,
        cache_hook: Optional[CacheHook] = None,
    ) -> Iteration:
        raise NotImplementedError

    def _temp_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))


class BurstIdio(Workload):
    name = "burst_idio"
    entry = "experiment"

    def iterate(self, jobs, around=contextlib.nullcontext, cache_hook=None):
        experiment = burst_experiment()
        with around():
            start = time.perf_counter()
            summary = runner.run_experiment_summary(experiment)
            wall = time.perf_counter() - start
        return Iteration.of(
            wall,
            {experiment.name: fingerprint_digest(summary)},
            [summary],
            sim=sim_metrics(summary),
        )


def _fig10_iteration(report, wall, cache, replay: bool) -> Iteration:
    # ``run_experiments`` returns hits as stored, so the workload says
    # which kind it expects; the cache counts check that it got it.
    summaries = list(report.results.values())
    # ``paper_exe`` is the paper's IDIO/DDIO burst-time ratio of the row:
    # 0.815 / 0.780 / 1.0 at 100 / 25 / 10 Gbps.
    errors = [
        abs(row["exe_time"] - row["paper_exe"])
        for row in report.rows
        if row["scenario"] == "solo" and row["policy"] == "idio"
    ]
    return Iteration.of(
        wall,
        {k: fingerprint_digest(s) for k, s in report.results.items()},
        [] if replay else summaries,
        summaries if replay else [],
        cache=_cache_counts(cache),
        cache_bytes=sum(path.stat().st_size for path in cache.entry_paths()),
        sim={
            **sim_metrics(report.results[FIG10_REFERENCE]),
            "paper_exe_ratio_err": sum(errors) / len(errors),
        },
    )


def _run_fig10(root: Path, jobs: int, around: Around, cache_hook: Optional[CacheHook]):
    """``figures.fig10()`` with a ResultCache at ``root`` installed."""
    with cache_session(root) as cache:
        if cache_hook is not None:
            cache_hook(cache)
        with around():
            start = time.perf_counter()
            report = figures.fig10(jobs=jobs)
            wall = time.perf_counter() - start
    return report, wall, cache


class Fig10Sweep(Workload):
    name = "fig10_sweep"
    jobs = POOL_JOBS

    def iterate(self, jobs, around=contextlib.nullcontext, cache_hook=None):
        root = self._temp_dir("fig10-cache-")
        try:
            report, wall, cache = _run_fig10(root, jobs, around, cache_hook)
            return _fig10_iteration(report, wall, cache, replay=False)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class CacheReplay(Workload):
    name = "cache_replay"

    def setup(self) -> None:
        self.root = self._temp_dir("replay-cache-")
        _run_fig10(self.root, POOL_JOBS, contextlib.nullcontext, None)

    def iterate(self, jobs, around=contextlib.nullcontext, cache_hook=None):
        report, wall, cache = _run_fig10(self.root, jobs, around, cache_hook)
        return _fig10_iteration(report, wall, cache, replay=True)


def _cell_key(policy: str, intensity: float) -> str:
    """A tenant cell's key; ``run_tenants`` names the cell's experiment
    ``tenants-<mix>-<key>``."""
    return f"{policy}-i{intensity:g}"


class TenantsIoca(Workload):
    name = "tenants_ioca"
    jobs = POOL_JOBS

    def setup(self) -> None:
        # Fresh workers run their first matrix ~20% slower than later
        # ones (heap growth); with ~3 timed iterations that one would
        # decide the median.
        self.iterate(self.jobs)

    def iterate(self, jobs, around=contextlib.nullcontext, cache_hook=None):
        collector = _Collector()
        with around():
            start = time.perf_counter()
            sweep = run_tenants(
                policies=[ddio(), ioca()],
                mix="noisy-neighbor",
                tenants=2,
                intensities=TENANT_INTENSITIES,
                seed=tenant_seed(self.seed),
                jobs=jobs,
                cache=collector,
            )
            wall = time.perf_counter() - start
        digests = {_cell_key(c.policy, c.intensity): c.digest for c in sweep.cells}
        sim = {}
        for name, summary in collector.summaries.items():
            if name.endswith("-" + _cell_key(*TENANT_REFERENCE)):
                sim = sim_metrics(summary)
        # The tenants reference latency is the victim's, not the cell's.
        sim["sim_p99_us"] = sweep.victim_p99(*TENANT_REFERENCE)
        return Iteration.of(wall, digests, list(collector.summaries.values()), sim=sim)


WORKLOADS = {cls.name: cls for cls in (BurstIdio, Fig10Sweep, CacheReplay, TenantsIoca)}


def check_isolation() -> None:
    """Refuse to run with a process-default result cache installed."""
    if get_default_cache() is not None:
        raise RuntimeError("a process-default result cache is installed")
