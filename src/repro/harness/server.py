"""Builds a complete simulated server for one experiment.

A :class:`SimulatedServer` wires together everything the paper's testbed
contains: NF cores with private caches, the shared non-inclusive LLC with
DDIO ways, DRAM, the PCIe root complex, a multi-queue NIC with Flow
Director, per-core DPDK PMD loops running a network function, optionally
an LLCAntagonist core, and — depending on the placement policy — the IDIO
classifier/controller/prefetchers.

The default geometry is the paper's scaled gem5 configuration (§III
Obs. 4 / Table I): 3 MB 12-way LLC with 2 DDIO ways, 1 MB 8-way MLC per NF
core, a 256 KB MLC for the antagonist core, 1024-entry rings, 1514 B
packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.sanitizer import InvariantSanitizer
from ..core.cachedirector import CacheDirectorController
from ..core.config import IDIOConfig
from ..core.controller import IDIOController
from ..core.iat import IATController
from ..core.ioca import IOCAController
from ..core.policies import (
    PREFETCH_OFF,
    PREFETCH_STATIC,
    PolicyConfig,
    ddio,
)
from ..core.prefetcher import RegulatedMLCPrefetcher
from ..cpu.apps import (
    CostModel,
    L2Fwd,
    L2FwdPayloadDrop,
    LLCAntagonist,
    NetworkFunction,
    TouchDrop,
)
from ..cpu.core import Core
from ..cpu.dpdk import AntagonistDriver, PollModeDriver
from ..cpu.maintenance import MaintenanceUnit
from ..cpu.mempool import BufferPool
from ..cpu.pagetable import PageTable
from ..faults import FaultEvent, FaultInjectors, FaultPlan
from ..mem.hierarchy import HierarchyConfig, MemoryHierarchy
from ..mem.line import num_lines
from ..mem.stats import StatsBundle
from ..net.flow import make_flow, make_tenant_flow
from ..net.packet import MTU_FRAME_BYTES, Packet
from ..net.traffic import (
    BurstProfile,
    DiurnalProfile,
    HeavyTailProfile,
    SteadyProfile,
    TrafficGenerator,
)
from ..nic.classifier import ClassifierConfig
from ..nic.descriptor import DESCRIPTOR_BYTES
from ..nic.dma import DMAEngine
from ..nic.nic import NIC, NicConfig
from ..obs.trace import TraceRecorder
from ..pcie.root_complex import RootComplex
from ..sim import Simulator, units
from ..tenants.config import TenantSet, tenant_rng

APP_FACTORIES: Dict[str, Callable[[Optional[CostModel]], NetworkFunction]] = {
    "touchdrop": lambda cost: TouchDrop(cost),
    "l2fwd": lambda cost: L2Fwd(cost),
    "l2fwd-payload-drop": lambda cost: L2FwdPayloadDrop(cost),
}


@dataclass
class ServerConfig:
    """Everything needed to instantiate one simulated server."""

    policy: PolicyConfig = field(default_factory=ddio)
    app: str = "touchdrop"
    #: Heterogeneous deployments: one app name per NF core (overrides
    #: ``app``; length must equal ``num_nf_cores``).  Lets class-0 and
    #: class-1 applications share the socket, which is the scenario
    #: selective direct DRAM access (M3) is designed for.
    apps: Optional[List[str]] = None
    num_nf_cores: int = 2
    ring_size: int = 1024
    packet_bytes: int = MTU_FRAME_BYTES
    #: Add an LLCAntagonist core (Fig. 10/12 co-run scenarios).
    antagonist: bool = False
    antagonist_buffer_bytes: int = 2 * 1024 * 1024
    antagonist_mlc_bytes: int = 256 * 1024
    #: LLC geometry (3 MB total, 12 ways, 2 DDIO ways by default).
    llc_bytes: int = 3 * 1024 * 1024
    llc_ways: int = 12
    ddio_ways: int = 2
    llc_inclusive: bool = False
    nf_mlc_bytes: int = 1024 * 1024
    l1_enabled: bool = True
    #: CAT-style restriction of each NF core's LLC fills ("_1way" configs
    #: in Fig. 4).  ``None`` = no restriction.
    nf_cat_ways: Optional[int] = None
    #: Buffer recycling mode (§II-B): "run_to_completion" (DPDK default),
    #: "copy" (Linux-stack-style), or "reallocate" (pool swap).
    recycle_mode: str = "run_to_completion"
    #: NUCA slice count for the LLC (0 = monolithic; policies with slice
    #: steering need > 0 — defaulted to 8 when they are selected).
    llc_slices: int = 0
    #: NIC ports, each with its own PCIe link (the paper's testbed runs
    #: two 100 GbE ports).  NF core i is served by port (i mod num_nics).
    num_nics: int = 1
    #: DRAM model: "fixed" (constant latency) or "banked" (channels,
    #: banks, open-row tracking).
    dram_model: str = "fixed"
    #: Cache replacement policy for every level (``None`` = per-level
    #: default, ``lru``).
    replacement: Optional[str] = None
    #: Extra pool buffers per ring slot in re-allocate mode.
    reallocate_pool_factor: int = 2
    cost_model: Optional[CostModel] = None
    nic: NicConfig = field(default_factory=NicConfig)
    freq_ghz: float = 3.0
    #: Reset statistics after warmup so Fig.-style windows start clean.
    reset_stats_after_warmup: bool = True
    #: Attach a :class:`~repro.obs.trace.TraceRecorder` to the hierarchy's
    #: event bus (enables per-hop recording — off by default; tracing
    #: costs both time and memory, so it is strictly opt-in).
    trace_enabled: bool = False
    #: Event cap for the recorder when tracing is enabled.
    trace_max_events: int = 2_000_000
    #: Attach the :class:`~repro.analysis.sanitizer.InvariantSanitizer`
    #: (ASan-style runtime invariant checks on every transaction plus
    #: periodic structural barriers).  Off by default: checked mode costs
    #: simulation throughput and exists for tests and ``repro check``.
    checked_mode: bool = False
    #: Transactions between two structural-barrier sweeps in checked mode.
    checked_barrier_interval: int = 4096
    #: Seeded fault schedule (``repro.faults``).  The default empty plan
    #: leaves every layer on its zero-cost fast path; ``harness.*`` kinds
    #: are interpreted by the sweep runner, not the server.
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    #: Co-located tenants (``repro.tenants``).  When set, NF cores are
    #: assigned to tenants in contiguous blocks (``num_nf_cores`` must
    #: equal the set's total), flows carry tenant tags, DMA writes are
    #: attributed per tenant, and ``tenant_partitioning`` policies can
    #: split the DDIO ways between tenants.  ``None`` keeps the classic
    #: single-tenant server with zero added hot-path cost.
    tenants: Optional[TenantSet] = None

    def app_for_core(self, core: int) -> str:
        if self.tenants is not None and core < self.num_nf_cores:
            return self.tenants.tenants[self.tenants.core_tenant(core)].app
        if self.apps is None:
            return self.app
        return self.apps[core]

    @property
    def num_cores(self) -> int:
        extra = self.tenants.num_antagonists if self.tenants is not None else 0
        return self.num_nf_cores + (1 if self.antagonist else 0) + extra

    @property
    def antagonist_core(self) -> Optional[int]:
        return self.num_nf_cores if self.antagonist else None


class _Allocator:
    """A bump allocator for the abstract physical address space."""

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base

    def take(self, num_bytes: int, align: int = 4096) -> int:
        addr = (self._next + align - 1) // align * align
        self._next = addr + num_bytes
        return addr


class SimulatedServer:
    """One fully wired server instance plus its load generators."""

    def __init__(self, config: ServerConfig) -> None:
        if config.apps is not None and len(config.apps) != config.num_nf_cores:
            raise ValueError(
                f"apps lists {len(config.apps)} entries for "
                f"{config.num_nf_cores} NF cores"
            )
        for core in range(config.num_nf_cores):
            name = config.app_for_core(core)
            if name not in APP_FACTORIES:
                raise ValueError(
                    f"unknown app {name!r}; choose from {sorted(APP_FACTORIES)}"
                )
        if config.tenants is not None:
            if config.tenants.total_nf_cores != config.num_nf_cores:
                raise ValueError(
                    f"tenant set needs {config.tenants.total_nf_cores} NF cores "
                    f"but the server config provides {config.num_nf_cores}"
                )
            if (
                config.policy.tenant_partitioning != "none"
                and config.tenants.total_way_quota > config.ddio_ways
            ):
                raise ValueError(
                    f"tenant way quotas sum to {config.tenants.total_way_quota} "
                    f"but the server has only {config.ddio_ways} DDIO ways"
                )
        self.config = config
        self.sim = Simulator()
        self.stats = StatsBundle()

        mlc_sizes = [config.nf_mlc_bytes] * config.num_nf_cores
        if config.antagonist:
            mlc_sizes.append(config.antagonist_mlc_bytes)
        if config.tenants is not None:
            # Per-tenant antagonist cores (LLC-sensitive, small MLC).
            mlc_sizes.extend(
                [config.antagonist_mlc_bytes] * config.tenants.num_antagonists
            )
        llc_slices = config.llc_slices
        if config.policy.slice_header_steering and llc_slices == 0:
            llc_slices = 8  # CacheDirector needs a NUCA topology
        hier_config = HierarchyConfig(
            num_cores=config.num_cores,
            freq_ghz=config.freq_ghz,
            l1_enabled=config.l1_enabled,
            mlc_sizes=mlc_sizes,
            llc=None,
            ddio_ways=config.ddio_ways,
            llc_inclusive=config.llc_inclusive,
            llc_slices=llc_slices,
            dram_model=config.dram_model,
            replacement=config.replacement,
        )
        # Custom LLC geometry.
        from ..mem.cache import CacheConfig

        hier_config.llc = CacheConfig(
            "llc",
            config.llc_bytes,
            config.llc_ways,
            units.cycles(24, config.freq_ghz),
            mshrs=32,
        )
        self.hierarchy = MemoryHierarchy(hier_config, self.stats)

        #: Optional per-hop transaction recorder (``trace_enabled``).
        self.trace_recorder: Optional[TraceRecorder] = None
        if config.trace_enabled:
            self.trace_recorder = TraceRecorder(
                max_events=config.trace_max_events
            ).attach(self.hierarchy)

        #: Optional runtime invariant checker (``checked_mode``).
        self.sanitizer: Optional[InvariantSanitizer] = None
        if config.checked_mode:
            self.sanitizer = InvariantSanitizer(
                self.hierarchy,
                barrier_interval=config.checked_barrier_interval,
            ).attach()

        #: Per-layer fault injectors (``fault_plan``) plus a per-kind
        #: injection counter; both stay empty for the default plan.
        self.fault_injectors: Optional[FaultInjectors] = None
        self.fault_counts: Dict[str, int] = {}
        if not config.fault_plan.is_empty:
            self.hierarchy.bus.subscribe(FaultEvent, self._count_fault)
            self.fault_injectors = FaultInjectors(
                config.fault_plan, self.hierarchy.bus
            )
            if self.sanitizer is not None:
                self.sanitizer.register_faults(config.fault_plan)

        if config.nf_cat_ways is not None:
            # Restrict NF-core fills to the first nf_cat_ways non-DDIO ways.
            allowed = list(
                range(config.ddio_ways, config.ddio_ways + config.nf_cat_ways)
            )
            for core in range(config.num_nf_cores):
                self.hierarchy.llc.set_core_way_mask(core, allowed)

        self.page_table = PageTable()
        self.root_complex = RootComplex(self.sim, self.hierarchy)

        nic_config = replace(
            config.nic,
            ring_size=config.ring_size,
            classifier_enabled=config.policy.needs_classifier,
            classifier=ClassifierConfig(
                rx_burst_threshold_gbps=config.policy.idio.rx_burst_threshold_gbps,
                num_cores=max(config.num_cores, 1),
            ),
        )
        # One NIC per port, each on its own PCIe link (the paper's testbed
        # has 2x100 GbE).  NF core i is served by NIC (i mod num_nics).
        self.nics: List[NIC] = []
        self.dmas: List[DMAEngine] = []
        for _ in range(max(1, config.num_nics)):
            dma = DMAEngine(self.sim, self.root_complex, pcie_gbps=config.nic.pcie_gbps)
            self.dmas.append(dma)
            self.nics.append(NIC(self.sim, dma, nic_config))
        self.nic = self.nics[0]  # primary port (back-compat accessor)
        self.dma = self.dmas[0]

        if self.fault_injectors is not None:
            fi = self.fault_injectors
            if fi.nic is not None:
                for nic in self.nics:
                    nic.faults = fi.nic
            if fi.pcie is not None:
                self.root_complex.faults = fi.pcie
                for dma in self.dmas:
                    dma.faults = fi.pcie
            if fi.mem is not None:
                self.hierarchy.dram.faults = fi.mem
            fi.schedule_window_tasks(self.sim, self.hierarchy.llc)

        self.controller: Optional[IDIOController] = None
        self.iat_controller: Optional[IATController] = None
        self.cachedirector: Optional[CacheDirectorController] = None
        self.ioca_controller: Optional[IOCAController] = None
        if config.policy.needs_controller:
            self.controller = IDIOController(
                self.sim,
                self.hierarchy,
                config=config.policy.idio,
                static_mlc=(config.policy.prefetch_mode == PREFETCH_STATIC),
                prefetch_enabled=(config.policy.prefetch_mode != PREFETCH_OFF),
                direct_dram_enabled=config.policy.direct_dram,
            )
            self.root_complex.attach_controller(self.controller.steer)
            if self.sanitizer is not None:
                self.sanitizer.register_controller(self.controller)
        elif config.policy.dynamic_ddio_ways:
            self.iat_controller = IATController(self.sim, self.hierarchy)
        elif config.policy.slice_header_steering:
            self.cachedirector = CacheDirectorController(self.sim, self.hierarchy)
            self.root_complex.attach_controller(self.cachedirector.steer)
        elif config.policy.tenant_partitioning == "dynamic" and config.tenants is not None:
            self.ioca_controller = IOCAController(
                self.sim, self.hierarchy, config.tenants
            )
        elif config.policy.tenant_partitioning == "static" and config.tenants is not None:
            # Static quota baseline: each tenant gets exactly its quota,
            # contiguous in tenant order, fixed for the whole run.
            start_way = 0
            for tenant in config.tenants:
                self.hierarchy.llc.set_tenant_io_ways(
                    tenant.tenant_id,
                    range(start_way, start_way + tenant.llc_way_quota),
                )
                start_way += tenant.llc_way_quota

        # -- per-NF-core plumbing ------------------------------------------
        alloc = _Allocator()
        self.cores: List[Core] = [
            Core(self.sim, i, self.hierarchy, config.freq_ghz)
            for i in range(config.num_cores)
        ]
        self.apps: List[NetworkFunction] = []
        self.drivers: List[PollModeDriver] = []
        self.generators: List[TrafficGenerator] = []
        #: Tenant id behind each generator (parallel to ``generators``;
        #: all zeros on an untenanted server).
        self._generator_tenants: List[int] = []
        #: ``(start, end, tenant)`` DMA attribution ranges (tenanted only).
        self.tenant_ranges: List[Tuple[int, int, int]] = []
        tenant_slots: Dict[int, int] = {}
        stride = config.nic.buffer_stride
        for i in range(config.num_nf_cores):
            port = self.nics[i % len(self.nics)]
            core_tenant = (
                config.tenants.core_tenant(i) if config.tenants is not None else 0
            )
            desc_base = alloc.take(config.ring_size * DESCRIPTOR_BYTES)
            self.page_table.map_range(desc_base, config.ring_size * DESCRIPTOR_BYTES)
            if config.tenants is not None:
                self.tenant_ranges.append(
                    (
                        desc_base,
                        desc_base + config.ring_size * DESCRIPTOR_BYTES,
                        core_tenant,
                    )
                )

            buffer_pool = None
            copy_pool = None
            if config.recycle_mode == "reallocate":
                # One contiguous DMA region covering the ring's initial
                # buffers plus the mempool's spares; the ring's initial
                # slots are reserved out of the pool.
                total = config.ring_size * max(2, config.reallocate_pool_factor)
                buf_base = alloc.take(total * stride)
                buf_bytes = total * stride
                buffer_pool = BufferPool(buf_base, stride, total)
                for slot in range(config.ring_size):
                    buffer_pool.reserve(buf_base + slot * stride)
                self.page_table.allocate_invalidatable(buf_base, total * stride)
            else:
                buf_base = alloc.take(config.ring_size * stride)
                buf_bytes = config.ring_size * stride
                self.page_table.allocate_invalidatable(
                    buf_base, config.ring_size * stride
                )
                if config.recycle_mode == "copy":
                    # Application-space destination buffers for the copy
                    # loop (reused round-robin, like a socket read buffer).
                    n_copies = 64
                    copy_base = alloc.take(n_copies * stride)
                    self.page_table.map_range(copy_base, n_copies * stride)
                    copy_pool = [copy_base + k * stride for k in range(n_copies)]

            if config.tenants is not None:
                self.tenant_ranges.append(
                    (buf_base, buf_base + buf_bytes, core_tenant)
                )
            queue = port.add_queue(i, i, desc_base, buf_base)
            app = APP_FACTORIES[config.app_for_core(i)](config.cost_model)
            if app.transmits:
                tx_desc_base = alloc.take(config.ring_size * DESCRIPTOR_BYTES)
                self.page_table.map_range(
                    tx_desc_base, config.ring_size * DESCRIPTOR_BYTES
                )
                port.add_tx_queue(i, tx_desc_base)
            if config.tenants is not None:
                tconf = config.tenants.tenants[core_tenant]
                base_slot = tenant_slots.get(core_tenant, 0)
                flows = [
                    make_tenant_flow(core_tenant, base_slot + k)
                    for k in range(tconf.flows_per_core)
                ]
                tenant_slots[core_tenant] = base_slot + tconf.flows_per_core
            else:
                flows = [make_flow(i)]
            for flow in flows:
                port.flow_director.install_rule(flow, i)
            maintenance = MaintenanceUnit(
                i, self.hierarchy, page_table=self.page_table, scope="all"
            )
            driver = PollModeDriver(
                self.sim,
                self.cores[i],
                port,
                queue,
                app,
                maintenance=maintenance,
                self_invalidate=config.policy.self_invalidate,
                recycle_mode=config.recycle_mode,
                buffer_pool=buffer_pool,
                copy_pool=copy_pool,
            )
            if self.controller is not None:
                prefetcher = self.controller.prefetchers[i]
                if isinstance(prefetcher, RegulatedMLCPrefetcher):
                    prefetcher.attach_ring(
                        queue.ring,
                        buf_base,
                        stride,
                        lines_per_buffer=num_lines(config.packet_bytes),
                    )
            if self.sanitizer is not None and buffer_pool is not None:
                self.sanitizer.register_pool(buffer_pool)
            if self.fault_injectors is not None:
                driver.faults = self.fault_injectors.cpu
            self.apps.append(app)
            self.drivers.append(driver)
            for flow in flows:
                self.generators.append(
                    TrafficGenerator(self.sim, flow, port.receive, app.app_class)
                )
                self._generator_tenants.append(core_tenant)

        if self.tenant_ranges:
            self.hierarchy.set_tenant_ranges(self.tenant_ranges)
        if self.sanitizer is not None and config.tenants is not None:
            self.sanitizer.register_tenants(config.tenants)

        # -- antagonist -----------------------------------------------------
        self.antagonist: Optional[LLCAntagonist] = None
        self.antagonist_driver: Optional[AntagonistDriver] = None
        if config.antagonist:
            buf = alloc.take(config.antagonist_buffer_bytes)
            self.page_table.map_range(buf, config.antagonist_buffer_bytes)
            core_id = config.antagonist_core
            assert core_id is not None
            self.antagonist = LLCAntagonist(buf, config.antagonist_buffer_bytes)
            self.antagonist_driver = AntagonistDriver(
                self.sim, self.cores[core_id], self.antagonist
            )

        # -- per-tenant antagonists ----------------------------------------
        #: ``(tenant_id, driver)`` pairs, one per ``antagonist=True`` tenant.
        self.tenant_antagonists: List[Tuple[int, AntagonistDriver]] = []
        if config.tenants is not None and config.tenants.num_antagonists:
            core_id = config.num_nf_cores + (1 if config.antagonist else 0)
            for tenant in config.tenants:
                if not tenant.antagonist:
                    continue
                buf = alloc.take(tenant.antagonist_footprint_bytes)
                self.page_table.map_range(buf, tenant.antagonist_footprint_bytes)
                # Seeded from the tenant's own RNG stream (SIM016): the
                # access pattern never depends on other tenants.
                seed = tenant_rng(config.tenants.seed, tenant.tenant_id).getrandbits(32)
                thrasher = LLCAntagonist(
                    buf, tenant.antagonist_footprint_bytes, seed=seed
                )
                self.tenant_antagonists.append(
                    (
                        tenant.tenant_id,
                        AntagonistDriver(self.sim, self.cores[core_id], thrasher),
                    )
                )
                core_id += 1

        self._started = False

    def _count_fault(self, event: FaultEvent) -> None:
        counts = self.fault_counts
        counts[event.kind] = counts.get(event.kind, 0) + 1

    # ------------------------------------------------------------------
    # experiment control
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Warm up, reset statistics, and start all software agents."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self.antagonist_driver is not None:
            self.antagonist_driver.warmup()
        for _tenant, t_driver in self.tenant_antagonists:
            t_driver.warmup()
        for driver in self.drivers:
            driver.init_ring()
        if self.config.reset_stats_after_warmup:
            self.stats.reset()
            for core in self.cores:
                core.stats.mem_accesses = 0
                core.stats.mem_ticks = 0
                core.stats.compute_ticks = 0
                core.stats.hits_by_level.clear()
        for driver in self.drivers:
            driver.start()
        if self.antagonist_driver is not None:
            self.antagonist_driver.start()
        for _tenant, t_driver in self.tenant_antagonists:
            t_driver.start()

    def inject_bursty(
        self,
        burst_rate_gbps: float,
        packets_per_burst: Optional[int] = None,
        num_bursts: int = 1,
        burst_period: int = units.milliseconds(10),
        start: int = 0,
    ) -> int:
        """Schedule §VI bursty traffic on every NF flow.

        ``packets_per_burst`` defaults to the ring size, matching the
        paper's choice of burst length (exactly one ring fill per burst).
        """
        per_burst = packets_per_burst or self.config.ring_size
        total = 0
        for gen in self.generators:
            profile = BurstProfile(
                burst_rate_gbps=burst_rate_gbps,
                packets_per_burst=per_burst,
                burst_period=burst_period,
                num_bursts=num_bursts,
                packet_bytes=self.config.packet_bytes,
                start=start,
            )
            total += gen.schedule_bursts(profile)
        return total

    def inject_steady(
        self,
        rate_gbps_per_nf: float,
        duration: int,
        start: int = 0,
    ) -> int:
        """Schedule §VI steady traffic on every NF flow."""
        total = 0
        for gen in self.generators:
            profile = SteadyProfile(
                rate_gbps=rate_gbps_per_nf,
                duration=duration,
                packet_bytes=self.config.packet_bytes,
                start=start,
            )
            total += gen.schedule_steady(profile)
        return total

    def inject_poisson(
        self,
        rate_gbps_per_nf: float,
        duration: int,
        start: int = 0,
        seed: int = 0,
    ) -> int:
        """Schedule Poisson-arrival traffic on every NF flow."""
        total = 0
        for i, gen in enumerate(self.generators):
            total += gen.schedule_poisson(
                rate_gbps_per_nf,
                duration,
                packet_bytes=self.config.packet_bytes,
                start=start,
                seed=seed + i,
            )
        return total

    def inject_heavy_tail(
        self,
        rate_gbps_per_nf: float,
        duration: int,
        alpha: float = 1.5,
        start: int = 0,
        seed: int = 0,
    ) -> int:
        """Schedule heavy-tailed (Pareto-gap) traffic on every NF flow."""
        total = 0
        for i, gen in enumerate(self.generators):
            profile = HeavyTailProfile(
                rate_gbps=rate_gbps_per_nf,
                duration=duration,
                alpha=alpha,
                packet_bytes=self.config.packet_bytes,
                start=start,
                seed=seed + i,
            )
            total += gen.schedule_heavy_tail(profile)
        return total

    def inject_diurnal(
        self,
        trough_rate_gbps_per_nf: float,
        peak_rate_gbps_per_nf: float,
        duration: int,
        period: int,
        start: int = 0,
        seed: int = 0,
    ) -> int:
        """Schedule diurnal-swing traffic on every NF flow."""
        total = 0
        for i, gen in enumerate(self.generators):
            profile = DiurnalProfile(
                trough_rate_gbps=trough_rate_gbps_per_nf,
                peak_rate_gbps=peak_rate_gbps_per_nf,
                duration=duration,
                period=period,
                packet_bytes=self.config.packet_bytes,
                start=start,
                seed=seed + i,
            )
            total += gen.schedule_diurnal(profile)
        return total

    def inject_imix(
        self,
        rate_gbps_per_nf: float,
        duration: int,
        start: int = 0,
        seed: int = 0,
    ) -> int:
        """Schedule IMIX-sized steady traffic on every NF flow."""
        total = 0
        for i, gen in enumerate(self.generators):
            total += gen.schedule_imix(
                rate_gbps_per_nf, duration, start=start, seed=seed + i
            )
        return total

    def inject_tenants(self, duration: int, start: int = 0) -> int:
        """Schedule each tenant's traffic on its tagged flows.

        Every flow follows its owner's traffic profile; stochastic
        profiles draw their seeds from the owner's :func:`tenant_rng`
        stream in flow order, so tenant ``k``'s arrivals are invariant
        to every other tenant's configuration (SIM016's contract).
        """
        tenants = self.config.tenants
        if tenants is None:
            raise RuntimeError("inject_tenants requires ServerConfig.tenants")
        rngs = {t.tenant_id: tenant_rng(tenants.seed, t.tenant_id) for t in tenants}
        packet_bytes = self.config.packet_bytes
        total = 0
        for tenant_id, gen in zip(self._generator_tenants, self.generators):
            tenant = tenants.tenants[tenant_id]
            rng = rngs[tenant_id]
            if tenant.traffic == "steady":
                total += gen.schedule_steady(
                    SteadyProfile(
                        rate_gbps=tenant.rate_gbps,
                        duration=duration,
                        packet_bytes=packet_bytes,
                        start=start,
                    )
                )
            elif tenant.traffic == "bursty":
                total += gen.schedule_bursts(
                    BurstProfile(
                        burst_rate_gbps=tenant.rate_gbps,
                        packets_per_burst=tenant.packets_per_burst,
                        burst_period=units.microseconds(tenant.burst_period_us),
                        num_bursts=tenant.num_bursts,
                        packet_bytes=packet_bytes,
                        start=start,
                    )
                )
            elif tenant.traffic == "heavy-tail":
                total += gen.schedule_heavy_tail(
                    HeavyTailProfile(
                        rate_gbps=tenant.rate_gbps,
                        duration=duration,
                        alpha=tenant.heavy_tail_alpha,
                        packet_bytes=packet_bytes,
                        start=start,
                        seed=rng.getrandbits(32),
                    )
                )
            else:  # poisson (TENANT_TRAFFIC_KINDS is validated)
                total += gen.schedule_poisson(
                    tenant.rate_gbps,
                    duration,
                    packet_bytes=packet_bytes,
                    start=start,
                    seed=rng.getrandbits(32),
                )
        return total

    def run(self, until: int) -> int:
        """Advance the simulation to ``until`` (absolute ticks)."""
        return self.sim.run(until=until)

    def all_queues(self):
        """Every RX queue across all NIC ports."""
        for nic in self.nics:
            yield from nic.queues.values()

    @property
    def total_rx(self) -> int:
        return sum(nic.total_rx for nic in self.nics)

    @property
    def total_drops(self) -> int:
        return sum(nic.total_drops for nic in self.nics)

    @property
    def total_tx(self) -> int:
        return sum(nic.total_tx for nic in self.nics)

    def all_packets_drained(self) -> bool:
        """True when every accepted packet has been fully consumed."""
        return all(q.ring.occupancy() == 0 for q in self.all_queues())

    def run_until_drained(
        self,
        deadline: int,
        check_interval: int = units.microseconds(50),
    ) -> int:
        """Run until all rings drain (or ``deadline``); returns stop time."""
        while self.sim.now < deadline:
            step = min(check_interval, deadline - self.sim.now)
            self.sim.run(until=self.sim.now + step)
            if self.all_packets_drained() and self.sim.pending_events == 0:
                break
            if self.all_packets_drained():
                # Stop early only once every *scheduled* arrival has been
                # seen by the NIC (multi-burst runs have future arrivals
                # pending long after the current burst drains).
                scheduled = sum(g.packets_scheduled for g in self.generators)
                accepted = self.total_rx + self.total_drops
                if accepted >= scheduled > 0:
                    break
        return self.sim.now

    def stop(self) -> None:
        """Stop all periodic agents (end of measurement)."""
        for driver in self.drivers:
            driver.stop()
        if self.antagonist_driver is not None:
            self.antagonist_driver.stop()
        if self.controller is not None:
            self.controller.stop()
        if self.iat_controller is not None:
            self.iat_controller.stop()
        if self.ioca_controller is not None:
            self.ioca_controller.stop()
        for _tenant, t_driver in self.tenant_antagonists:
            t_driver.stop()
        for nic in self.nics:
            nic.stop()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def completed_packets(self) -> List[Packet]:
        packets: List[Packet] = []
        for driver in self.drivers:
            packets.extend(driver.completed_packets)
        return packets

    def packet_latencies_ns(self) -> List[float]:
        return [
            units.to_nanoseconds(p.latency)
            for p in self.completed_packets()
            if p.latency is not None
        ]

    def tenant_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant attribution: completion, tail latency, LLC footprint.

        Keys per tenant: ``completed`` (packets), ``p50_us``/``p95_us``/
        ``p99_us`` (0.0 when the tenant completed nothing — the sentinel
        is documented in ``ExperimentSummary.tenant_stats``),
        ``dma_writes`` (attributed inbound DMA), ``io_lines`` (I/O-origin
        LLC lines resident in the tenant's ranges at end of run), and
        ``io_ways`` (ways in the tenant's partition; 0 when unpartitioned).
        """
        tenants = self.config.tenants
        if tenants is None:
            return {}
        from .metrics import percentile

        llc = self.hierarchy.llc
        counter_values = self.hierarchy._counter_values
        way_table = llc.tenant_way_table()
        io_lines: Dict[int, int] = {}
        for line in llc.data.lines():
            if line.origin == "io":
                owner = self.hierarchy.tenant_of_addr(line.addr)
                if owner >= 0:
                    io_lines[owner] = io_lines.get(owner, 0) + 1
        stats: Dict[int, Dict[str, float]] = {}
        for tenant in tenants:
            latencies_us = []
            completed = 0
            for core in tenants.tenant_cores(tenant.tenant_id):
                packets = self.drivers[core].completed_packets
                completed += len(packets)
                for p in packets:
                    if p.latency is not None:
                        latencies_us.append(units.to_nanoseconds(p.latency) / 1000.0)
            entry = {
                "completed": float(completed),
                "dma_writes": float(
                    counter_values.get(f"tenant_dma_writes_t{tenant.tenant_id}", 0)
                ),
                "io_lines": float(io_lines.get(tenant.tenant_id, 0)),
                "io_ways": float(len(way_table.get(tenant.tenant_id, []))),
            }
            for p in (50, 95, 99):
                entry[f"p{p}_us"] = (
                    percentile(latencies_us, p) if latencies_us else 0.0
                )
            stats[tenant.tenant_id] = entry
        return stats
