"""Experiment runner: one (policy, workload) run with derived metrics.

An :class:`Experiment` describes the workload; :func:`run_experiment`
builds a :class:`~repro.harness.server.SimulatedServer`, drives it, and
returns an :class:`ExperimentResult` with all the figure-level metrics
(window statistics, timelines, latency percentiles, burst processing
time).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.policies import PolicyConfig, ddio
from ..mem import stats as stats_mod
from ..mem.line import LINE_SIZE
from ..sim import units
from . import metrics
from .server import ServerConfig, SimulatedServer

#: Event streams whose raw timestamps an :class:`ExperimentSummary` keeps,
#: so summary timelines/window counts bin exactly like the live event log.
SUMMARY_STREAMS: Tuple[str, ...] = (
    "pcie_writes",
    "mlc_writebacks",
    "llc_writebacks",
    "mlc_invalidations",
    "dram_reads",
    "dram_writes",
)


@dataclass
class Experiment:
    """One workload description, independent of the placement policy."""

    name: str = "experiment"
    server: ServerConfig = field(default_factory=ServerConfig)
    #: "bursty", "steady", "poisson", "imix", "heavytail", or "diurnal".
    traffic: str = "bursty"
    #: Seed for the stochastic traffic kinds (poisson/imix/heavytail/diurnal).
    traffic_seed: int = 0
    burst_rate_gbps: float = 100.0
    packets_per_burst: Optional[int] = None
    num_bursts: int = 1
    burst_period: int = units.milliseconds(10)
    steady_rate_gbps_per_nf: float = 10.0
    steady_duration: int = units.milliseconds(1)
    #: Pareto shape for ``traffic="heavytail"`` (must exceed 1).
    heavy_tail_alpha: float = 1.5
    #: Peak rate for ``traffic="diurnal"``; the trough is
    #: ``steady_rate_gbps_per_nf`` (``None`` = 2x the trough).
    diurnal_peak_gbps_per_nf: Optional[float] = None
    #: One simulated "day" for ``traffic="diurnal"``.
    diurnal_period: int = units.milliseconds(1)
    #: Extra time after the traffic ends to let the CPUs drain the rings.
    drain_allowance: int = units.milliseconds(8)
    traffic_start: int = units.microseconds(20)

    def with_policy(self, policy: PolicyConfig) -> "Experiment":
        return replace(self, server=replace(self.server, policy=policy))


def _normalized_exe_time(
    value: Optional[int], baseline: Optional[int]
) -> Optional[float]:
    """``value / baseline`` with explicit degenerate-baseline semantics.

    A zero baseline (a baseline run that processed its burst in literally
    zero ticks — possible for empty/degenerate workloads) must not raise
    out of a figure sweep: the ratio is ``inf`` when the comparison run
    took any time at all and ``0.0`` when both took none.  ``None`` on
    either side means the metric is unavailable and is skipped.
    """
    if value is None or baseline is None:
        return None
    if baseline == 0:
        return float("inf") if value > 0 else 0.0
    return value / baseline


@dataclass
class ExperimentSummary:
    """The slim, picklable slice of a run the figure harness consumes.

    An :class:`ExperimentResult` is this summary plus the whole
    :class:`SimulatedServer` (caches, rings, per-packet objects) — cheap
    to hand around in-process, but unserializable in practice and a
    memory leak across a sweep.  The summary carries only derived data: window statistics, the raw
    timestamp lists of the :data:`SUMMARY_STREAMS`, latencies, counters,
    and a handful of scalars the figures and extensions read off the
    server.  Everything here pickles, so it is also the unit of transfer
    for the process-pool runner (``repro.harness.runner``).
    """

    experiment: Experiment
    policy_name: str
    window: metrics.WindowStats
    offered_packets: int
    rx_packets: int
    rx_drops: int
    completed: int
    tx_packets: int
    burst_processing_time: Optional[int]
    latencies_ns: List[float]
    antagonist_access_ns: Optional[float]
    antagonist_accesses: int
    decisions: Dict[str, int]
    #: Full counter snapshot (``direct_dram_writes``, ``back_invalidations`` ...).
    counters: Dict[str, int]
    #: Raw timestamps per stream in :data:`SUMMARY_STREAMS`.
    event_streams: Dict[str, List[int]]
    latency_breakdown: Dict[str, float]
    #: Per-core ``stats.mem_accesses`` (NF cores first, antagonist last).
    core_mem_accesses: List[int]
    #: Per-NF-driver mean completed-packet latency in microseconds.
    per_core_mean_latency_us: List[float]
    #: NIC classifier bursts (0 when no classifier is attached).
    bursts_detected: int
    #: CacheDirector slice steers (0 when not configured).
    headers_steered: int
    #: Wall-clock diagnostics of the producing simulation.
    events_fired: int
    wall_seconds: float
    events_per_second: float
    #: Outcome assigned by the sweep runner: "ok" for a clean first-try
    #: run, "retried" when a crash was retried successfully ("timeout"
    #: and "failed" runs never produce a summary — see
    #: :class:`repro.harness.runner.SweepRecord`).
    status: str = "ok"
    #: Worker attempts this summary took (1 unless the runner retried).
    attempts: int = 1
    #: Injected-fault counts by kind (empty for a fault-free run).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-tenant attribution (empty for an untenanted server): tenant id
    #: -> ``{"completed", "p50_us", "p95_us", "p99_us", "dma_writes",
    #: "io_lines", "io_ways"}``.  Percentiles use 0.0 as the "no
    #: completions" sentinel (never ``None`` — the dict stays
    #: homogeneous and fingerprintable).
    tenant_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def p50_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 50)

    @property
    def p99_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 99)

    def latency_breakdown_ns(self) -> Dict[str, float]:
        return dict(self.latency_breakdown)

    def _stream(self, stream: str) -> List[int]:
        try:
            return self.event_streams[stream]
        except KeyError:
            raise KeyError(
                f"stream {stream!r} not captured in summary; available: "
                f"{sorted(self.event_streams)}"
            ) from None

    def count_between(self, stream: str, start: int, end: int) -> int:
        """Events of a captured stream in ``[start, end)``."""
        return stats_mod.count_between(self._stream(stream), start, end)

    def timeline(self, stream: str, bin_us: float = 10.0) -> List[Tuple[float, float]]:
        """(time_us, MTPS) series for a captured stream over the run window."""
        return stats_mod.mtps_series(
            self._stream(stream),
            units.microseconds(bin_us),
            self.window.start,
            self.window.end,
        )

    def rate_per_rx_line(self, name: str) -> float:
        """Window count of a stat normalized to RX line rate (Fig. 4)."""
        rx = self.window.pcie_writes
        if rx == 0:
            return 0.0
        return getattr(self.window, name) / rx

    def dram_gbps(self, name: str) -> float:
        """Average bandwidth of ``dram_reads``/``dram_writes`` over the window."""
        if self.window.duration <= 0:
            return 0.0
        count = getattr(self.window, name)
        return units.bytes_to_gbps(count * LINE_SIZE, self.window.duration)

    def normalized_to(self, baseline: "ExperimentSummary") -> Dict[str, float]:
        """Fig. 10-style normalization against a baseline run."""
        values = self.window.normalized_to(baseline.window)
        exe_time = _normalized_exe_time(
            self.burst_processing_time, baseline.burst_processing_time
        )
        if exe_time is not None:
            values["exe_time"] = exe_time
        return values

    def fingerprint(self) -> Tuple:
        """A deterministic digest of everything simulation-derived.

        Every field except :data:`NONDETERMINISTIC_FIELDS`, in declaration
        order, normalised by :func:`_fingerprint_value`.  Two runs of the
        same seeded experiment produce equal fingerprints whether they
        ran serially, in a worker process, or came out of the cache.
        """
        return tuple(
            _fingerprint_value(getattr(self, name)) for name in _FINGERPRINT_FIELDS
        )


#: ``ExperimentSummary`` fields the fingerprint leaves out: the
#: experiment itself (it *keys* the comparison), the wall-clock
#: diagnostics, and the sweep runner's bookkeeping (mutated on retries
#: and cache hits).
NONDETERMINISTIC_FIELDS = frozenset(
    {"experiment", "wall_seconds", "events_per_second", "status", "attempts"}
)

_FINGERPRINT_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(ExperimentSummary) if f.name not in NONDETERMINISTIC_FIELDS
)


def _fingerprint_value(value):
    """Normalise one summary value into a ``repr``-stable, hashable form.

    A dict becomes its sorted ``(key, value)`` pairs, a list a tuple (one
    C-level copy: list elements are scalars), a nested dataclass the
    tuple of its fields; scalars pass through.
    """
    if isinstance(value, dict):
        return tuple((k, _fingerprint_value(v)) for k, v in sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    if is_dataclass(value):
        return tuple(_fingerprint_value(getattr(value, f.name)) for f in fields(value))
    return value


@dataclass
class ExperimentResult(ExperimentSummary):
    """A summary that still holds the live server.

    Holding the server keeps every cache/ring/packet object reachable —
    convenient for white-box tests, but heavy.  Sweeps should convert to
    :meth:`summary` (and :meth:`drop_server`) as soon as the run finishes;
    the parallel runner does this inside the worker process.
    """

    server: Optional[SimulatedServer] = None

    def summary(self) -> ExperimentSummary:
        """The plain, server-free :class:`ExperimentSummary` of this run."""
        return ExperimentSummary(
            **{f.name: getattr(self, f.name) for f in fields(ExperimentSummary)}
        )

    def drop_server(self) -> None:
        """Release the simulated server (and with it most of the run's memory).

        Every summary-level field and method stays usable afterwards.
        """
        self.server = None


def run_experiment(experiment: Experiment) -> ExperimentResult:
    """Build the server, inject traffic, run to drain, derive metrics."""
    server = SimulatedServer(experiment.server)
    server.start()

    if experiment.server.tenants is not None:
        # Tenanted servers ignore the experiment-level traffic kind: each
        # tenant's flows follow the tenant's own profile (the per-flow
        # seeds come from the tenant RNG streams, not ``traffic_seed``).
        offered = server.inject_tenants(
            experiment.steady_duration, start=experiment.traffic_start
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    elif experiment.traffic == "bursty":
        offered = server.inject_bursty(
            experiment.burst_rate_gbps,
            packets_per_burst=experiment.packets_per_burst,
            num_bursts=experiment.num_bursts,
            burst_period=experiment.burst_period,
            start=experiment.traffic_start,
        )
        traffic_end = (
            experiment.traffic_start
            + (experiment.num_bursts - 1) * experiment.burst_period
            + _burst_length(experiment)
        )
    elif experiment.traffic == "steady":
        offered = server.inject_steady(
            experiment.steady_rate_gbps_per_nf,
            experiment.steady_duration,
            start=experiment.traffic_start,
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    elif experiment.traffic == "poisson":
        offered = server.inject_poisson(
            experiment.steady_rate_gbps_per_nf,
            experiment.steady_duration,
            start=experiment.traffic_start,
            seed=experiment.traffic_seed,
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    elif experiment.traffic == "heavytail":
        offered = server.inject_heavy_tail(
            experiment.steady_rate_gbps_per_nf,
            experiment.steady_duration,
            alpha=experiment.heavy_tail_alpha,
            start=experiment.traffic_start,
            seed=experiment.traffic_seed,
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    elif experiment.traffic == "diurnal":
        peak = experiment.diurnal_peak_gbps_per_nf
        if peak is None:
            peak = 2.0 * experiment.steady_rate_gbps_per_nf
        offered = server.inject_diurnal(
            experiment.steady_rate_gbps_per_nf,
            peak,
            experiment.steady_duration,
            period=experiment.diurnal_period,
            start=experiment.traffic_start,
            seed=experiment.traffic_seed,
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    elif experiment.traffic == "imix":
        offered = server.inject_imix(
            experiment.steady_rate_gbps_per_nf,
            experiment.steady_duration,
            start=experiment.traffic_start,
            seed=experiment.traffic_seed,
        )
        traffic_end = experiment.traffic_start + experiment.steady_duration
    else:
        raise ValueError(f"unknown traffic kind {experiment.traffic!r}")

    deadline = traffic_end + experiment.drain_allowance
    end_time = server.run_until_drained(deadline)
    server.stop()

    window = metrics.window_stats(server.stats, 0, end_time)
    completions = [
        p.completion_time
        for p in server.completed_packets()
        if p.completion_time is not None
    ]
    bpt = metrics.burst_processing_time(server.stats, completions)

    antagonist_ns: Optional[float] = None
    antagonist_accesses = 0
    if server.config.antagonist:
        core_id = server.config.antagonist_core
        assert core_id is not None
        stats = server.cores[core_id].stats
        antagonist_accesses = stats.mem_accesses
        # Average access latency *during the contention window* (traffic
        # start to last packet completion) — the paper's CPI comparison is
        # over the co-run, not the post-burst idle tail.
        window_end = max(completions) if completions else end_time
        assert server.antagonist_driver is not None
        antagonist_ns = server.antagonist_driver.access_ns_between(
            experiment.traffic_start, window_end
        )
        if antagonist_ns is None:
            antagonist_ns = stats.average_access_ns()

    events = server.stats.events
    return ExperimentResult(
        experiment=experiment,
        policy_name=experiment.server.policy.name,
        window=window,
        offered_packets=offered,
        rx_packets=server.total_rx,
        rx_drops=server.total_drops,
        completed=len(completions),
        tx_packets=server.total_tx,
        burst_processing_time=bpt,
        latencies_ns=server.packet_latencies_ns(),
        antagonist_access_ns=antagonist_ns,
        antagonist_accesses=antagonist_accesses,
        decisions=dict(server.controller.decisions) if server.controller else {},
        counters=server.stats.counters.snapshot(),
        event_streams={s: events.timestamps(s) for s in SUMMARY_STREAMS},
        latency_breakdown=_latency_breakdown(server),
        core_mem_accesses=[c.stats.mem_accesses for c in server.cores],
        per_core_mean_latency_us=[
            _mean_latency_us(driver.completed_packets) for driver in server.drivers
        ],
        bursts_detected=sum(
            nic.classifier.bursts_detected
            for nic in server.nics
            if nic.classifier is not None
        ),
        headers_steered=(
            server.cachedirector.headers_steered
            if server.cachedirector is not None
            else 0
        ),
        events_fired=server.sim.events_fired,
        wall_seconds=server.sim.wall_seconds,
        events_per_second=server.sim.events_per_second,
        fault_counts=dict(server.fault_counts),
        tenant_stats=server.tenant_stats(),
        server=server,
    )


def _latency_breakdown(server: SimulatedServer) -> Dict[str, float]:
    """Mean queueing delay vs service time of completed packets.

    Queueing delay covers NIC pipeline + descriptor writeback + ring
    wait + batching; service time is the pure processing component.
    When the server ran with tracing enabled, the recorder's real
    per-component split (``mean_l1_ns``/``mean_mlc_ns``/...) is folded
    in on top.
    """
    from ..obs.trace import merge_latency_breakdowns

    packets = server.completed_packets()
    queueing = [p.queueing_delay for p in packets if p.queueing_delay is not None]
    service = [p.service_time for p in packets if p.service_time is not None]
    breakdown = {
        "mean_queueing_ns": (
            units.to_nanoseconds(sum(queueing)) / len(queueing) if queueing else 0.0
        ),
        "mean_service_ns": (
            units.to_nanoseconds(sum(service)) / len(service) if service else 0.0
        ),
    }
    return merge_latency_breakdowns(breakdown, server.trace_recorder)


def _mean_latency_us(packets) -> float:
    """Mean completed-packet latency of one NF driver (0.0 when idle)."""
    lats = [p.latency for p in packets if p.latency]
    return units.to_microseconds(sum(lats) // len(lats)) if lats else 0.0


def _burst_length(experiment: Experiment) -> int:
    from ..net.traffic import BurstProfile

    per_burst = experiment.packets_per_burst or experiment.server.ring_size
    profile = BurstProfile(
        burst_rate_gbps=experiment.burst_rate_gbps,
        packets_per_burst=per_burst,
        packet_bytes=experiment.server.packet_bytes,
    )
    return profile.burst_length


def run_policy_comparison(
    experiment: Experiment, policies: List[PolicyConfig], jobs: int = 1
) -> Dict[str, ExperimentSummary]:
    """Run the same workload under several policies (Fig. 9/10 pattern).

    Returns summaries (not full results) so the comparison can fan out
    over a process pool with ``jobs > 1``; use :func:`run_experiment`
    directly when the live server is needed.
    """
    from .runner import run_experiments

    summaries = run_experiments(
        [experiment.with_policy(p) for p in policies], jobs=jobs
    )
    return {p.name: s for p, s in zip(policies, summaries)}
