"""The non-inclusive memory hierarchy: data paths of Fig. 1 and Fig. 2.

This module wires per-core private caches (optional L1D + MLC), the shared
non-inclusive LLC with DDIO ways, and DRAM into one object exposing a
single typed entry point:

* :meth:`MemoryHierarchy.access` — execute one
  :class:`~repro.mem.transaction.MemoryTransaction` (demand load/store,
  inbound DMA write, outbound DMA read, IDIO MLC prefetch fill, or the
  paper's invalidate-without-writeback maintenance operation, §IV-A/§V-D)
  and fill in its outcome: total latency, serving level, and — when hop
  recording is enabled — a per-component hop list.

All traffic flows through that one path: callers construct the
:class:`MemoryTransaction` themselves (simlint's SIM005 flags any
reintroduction of per-kind wrapper methods outside ``repro.mem``; the
deprecated ``cpu_access``/``pcie_write``-style wrappers were removed in
v0.5.0 — tests use the free-function helpers in ``tests/memtxn.py``).

Observability is a typed pub/sub bus (:class:`repro.obs.bus.EventBus`):
the hierarchy publishes :class:`~repro.obs.events.MlcWritebackEvent` /
:class:`~repro.obs.events.LlcWritebackEvent` (the signals the IDIO
controller's control plane and the IAT baseline sample — ``mlcWB`` in
Alg. 1) and, when anyone listens, every completed transaction.  The
:class:`~repro.mem.stats.StatsBundle` counts writebacks as a bus
subscriber like everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.bus import EventBus
from ..obs.events import LlcWritebackEvent, MlcWritebackEvent, TenantDmaEvent
from ..sim import units
from .cache import CacheConfig
from .dram import DRAM
from .line import _LINE_MASK, CacheLine, line_address
from .llc import NonInclusiveLLC
from .mlc import PrivateCache
from .stats import HierarchyStatsSubscriber, StatsBundle
from .transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
)


def default_l1_config(freq_ghz: float = 3.0) -> CacheConfig:
    """Table I L1D: 64 KB, 2-way, 2 cycles."""
    return CacheConfig("l1d", 64 * 1024, 2, units.cycles(2, freq_ghz), mshrs=6)


def default_mlc_config(freq_ghz: float = 3.0, size_bytes: int = 1024 * 1024) -> CacheConfig:
    """Table I L2 (MLC): 1 MB, 8-way, 12 cycles."""
    return CacheConfig("mlc", size_bytes, 8, units.cycles(12, freq_ghz), mshrs=16)


def default_llc_config(
    freq_ghz: float = 3.0, size_bytes: int = 3 * 1024 * 1024
) -> CacheConfig:
    """Table I L3: 1.5 MB/core, 12-way, 24 cycles.

    The evaluation (§III Obs. 4) scales the LLC to 3 MB total for the
    two-NF-core experiments; that is the default here.
    """
    return CacheConfig("llc", size_bytes, 12, units.cycles(24, freq_ghz), mshrs=32)


@dataclass
class HierarchyConfig:
    """Full hierarchy geometry.  Defaults reproduce Table I (scaled LLC)."""

    num_cores: int = 2
    freq_ghz: float = 3.0
    l1_enabled: bool = True
    l1: Optional[CacheConfig] = None
    #: Per-core MLC configs; entries may be ``None`` to take the default.
    #: (The LLCAntagonist core uses a 256 KB MLC per §VI.)
    mlc_sizes: Optional[List[int]] = None
    mlc: Optional[CacheConfig] = None
    llc: Optional[CacheConfig] = None
    ddio_ways: int = 2
    llc_inclusive: bool = False
    directory_capacity: Optional[int] = None
    #: NUCA slice count (0 = monolithic LLC) and per-ring-hop latency.
    llc_slices: int = 0
    llc_hop_latency: int = units.cycles(2)
    dram_latency: int = units.nanoseconds(70)
    dram_peak_gbps: Optional[float] = None
    #: "fixed" = constant-latency DRAM; "banked" = channels/banks with
    #: open-row tracking (see mem.dram.BankedDRAM).
    dram_model: str = "fixed"
    #: Replacement policy applied to every level (``None`` = keep each
    #: CacheConfig's own setting, i.e. ``lru``).
    replacement: Optional[str] = None

    def _with_replacement(self, cfg: CacheConfig) -> CacheConfig:
        if self.replacement is None or cfg.replacement == self.replacement:
            return cfg
        return replace(cfg, replacement=self.replacement)

    def resolved_l1(self) -> CacheConfig:
        return self._with_replacement(self.l1 or default_l1_config(self.freq_ghz))

    def resolved_mlc(self, core: int) -> CacheConfig:
        if self.mlc is not None:
            return self._with_replacement(self.mlc)
        size = 1024 * 1024
        if self.mlc_sizes is not None and core < len(self.mlc_sizes):
            override = self.mlc_sizes[core]
            if override:
                size = override
        return self._with_replacement(default_mlc_config(self.freq_ghz, size))

    def resolved_llc(self) -> CacheConfig:
        return self._with_replacement(self.llc or default_llc_config(self.freq_ghz))


@dataclass
class AccessResult:
    """Outcome of one demand access: latency plus the serving level."""

    latency: int
    level: str  # "l1" | "mlc" | "llc" | "c2c" | "dram"


class MemoryHierarchy:
    """Cacheline-granular model of the non-inclusive hierarchy."""

    def __init__(
        self,
        config: HierarchyConfig,
        stats: Optional[StatsBundle] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config
        self.stats = stats or StatsBundle()
        #: The observability bus.  The stats bundle subscribes first so
        #: counters are current when later subscribers (controllers,
        #: recorders) observe the same event.
        self.bus = bus or EventBus()
        self._stats_subscriber = HierarchyStatsSubscriber(
            self.stats, config.num_cores
        )
        self._stats_subscriber.install(self.bus)
        # Hot-path counter/event-log access: the handlers below perform
        # one unlogged increment (or one increment + one timestamp
        # append) per state transition, so they hit the bundle's
        # underlying dicts directly (they survive reset(); see
        # StatsBundle.bump, whose semantics each inline site preserves).
        self._counter_values = self.stats._counter_values
        self._event_streams = self.stats._event_streams
        # Freelist of dead CacheLine objects.  Lines churn at a few per
        # access (fills allocate, evictions/drops free); recycling at the
        # provably-dead sites flattens the allocation profile.
        self._line_pool: List[CacheLine] = []
        # Hot-path caches of the live subscriber lists: publishing is a
        # truthiness check plus a loop, and the event object is only
        # constructed when somebody listens.
        self._mlc_wb_subs = self.bus.live(MlcWritebackEvent)
        self._llc_wb_subs = self.bus.live(LlcWritebackEvent)
        self._txn_subs = self.bus.live(MemoryTransaction)
        self._tenant_dma_subs = self.bus.live(TenantDmaEvent)
        #: Per-tenant DMA attribution ranges ``(start, end, tenant)``.
        #: Empty (the default) keeps the DMA-write hot path tenant-free:
        #: one falsy check and no per-write work.
        self._tenant_ranges: List[Tuple[int, int, int]] = []
        self._tenant_dma_names: Dict[int, str] = {}
        #: When True, :meth:`access` fills each transaction's ``hops``
        #: list.  Off by default — flipped by an attached TraceRecorder.
        self.record_hops = False
        self._active_hops: Optional[List[Hop]] = None

        self.l1: List[Optional[PrivateCache]] = []
        self.mlc: List[PrivateCache] = []
        for core in range(config.num_cores):
            if config.l1_enabled:
                self.l1.append(PrivateCache(config.resolved_l1(), core, self.stats))
            else:
                self.l1.append(None)
            self.mlc.append(PrivateCache(config.resolved_mlc(core), core, self.stats))
        self.llc = NonInclusiveLLC(
            config.resolved_llc(),
            self.stats,
            ddio_ways=config.ddio_ways,
            directory_capacity=config.directory_capacity,
            inclusive=config.llc_inclusive,
            slices=config.llc_slices,
            hop_latency=config.llc_hop_latency,
        )
        if config.dram_model == "banked":
            from .dram import BankedDRAM

            self.dram: DRAM = BankedDRAM(self.stats)
        elif config.dram_model == "fixed":
            self.dram = DRAM(
                self.stats,
                latency=config.dram_latency,
                peak_gbps=config.dram_peak_gbps,
            )
        else:
            raise ValueError(f"unknown dram_model {config.dram_model!r}")
        # Direct references into the cache containers for the demand and
        # DMA paths: each access otherwise pays two or three delegation
        # hops (PrivateCache -> SetAssociativeCache, NonInclusiveLLC ->
        # data array, SnoopFilterDirectory -> entry dict).  Nothing in
        # the package replaces these objects after construction, so one
        # attribute load per access replaces a method call per hop.
        self._l1_data = [c.data if c is not None else None for c in self.l1]
        self._mlc_data = [c.data for c in self.mlc]
        self._llc_data = self.llc.data
        self._l1_lat = [
            c.config.latency if c is not None else 0 for c in self.l1
        ]
        self._mlc_lat = [c.config.latency for c in self.mlc]
        self._llc_lat = self.llc.config.latency
        # Monolithic LLC: access latency is a constant; only the NUCA
        # model (slices > 0) needs the per-(core, addr) hop computation.
        self._flat_llc = self.llc.slices <= 0
        self._dir_entries = self.llc.directory._entries
        # Per-core counter names, pre-formatted once (these are bumped on
        # every invalidation; f-strings there are measurable).
        self._mlc_inval_names = [
            f"mlc_invalidations_c{core}" for core in range(config.num_cores)
        ]
        self._handlers = {
            CPU_LOAD: self._run_cpu,
            CPU_STORE: self._run_cpu,
            DMA_WRITE: self._run_dma_write,
            DMA_READ: self._run_dma_read,
            PREFETCH_FILL: self._run_prefetch_fill,
            INVALIDATE: self._run_invalidate,
        }

    # ------------------------------------------------------------------
    # the unified entry point
    # ------------------------------------------------------------------

    def access(self, txn: MemoryTransaction) -> MemoryTransaction:
        """Execute one transaction; fills ``latency``/``level``/``hops``.

        This is the single entry point every byte of traffic goes
        through — the legacy per-kind methods below are constructors
        delegating here.  Completed transactions are published on the
        bus when a subscriber (e.g. a TraceRecorder) is attached.
        """
        try:
            handler = self._handlers[txn.kind]
        except KeyError:
            raise ValueError(
                f"unknown transaction kind {txn.kind!r}; "
                f"expected one of {sorted(self._handlers)}"
            ) from None
        if self.record_hops:
            self._active_hops = txn.hops
            try:
                handler(txn)
            finally:
                self._active_hops = None
        else:
            handler(txn)
        subs = self._txn_subs
        if subs:
            for fn in subs:
                fn(txn)
        return txn

    # Hop recording is inlined at each site as
    #   ``if hops is not None: hops.append(Hop(...))``
    # with ``hops = self._active_hops`` loaded once per handler — a local
    # None-check instead of a method call keeps the tracing-off hot path
    # within the bench gate.

    # ------------------------------------------------------------------
    # bus publications
    # ------------------------------------------------------------------

    def _notify_mlc_wb(self, core: int, now: int) -> None:
        subs = self._mlc_wb_subs
        if subs:
            event = MlcWritebackEvent(core, now)
            for fn in subs:
                fn(event)

    def _notify_llc_wb(self, addr: int, now: int) -> None:
        subs = self._llc_wb_subs
        if subs:
            event = LlcWritebackEvent(addr, now)
            for fn in subs:
                fn(event)

    # ------------------------------------------------------------------
    # tenant attribution
    # ------------------------------------------------------------------

    def set_tenant_ranges(self, ranges: Sequence[Tuple[int, int, int]]) -> None:
        """Register per-tenant DMA attribution ranges.

        ``ranges`` is ``(start, end, tenant)`` triples (half-open byte
        ranges) covering each tenant's descriptor/buffer regions.  Every
        inbound DMA write landing in a range is attributed to its tenant:
        the ``tenant_dma_writes_t<id>`` counter is bumped, a
        :class:`~repro.obs.events.TenantDmaEvent` is published when
        anyone subscribes, and the write-allocate is confined to the
        tenant's I/O ways when a partition is installed.  Ranges must be
        non-empty, disjoint, and tenant ids non-negative.
        """
        cleaned: List[Tuple[int, int, int]] = []
        for start, end, tenant in ranges:
            if start < 0 or end <= start:
                raise ValueError(f"bad tenant range [{start:#x}, {end:#x})")
            if tenant < 0:
                raise ValueError(f"tenant must be non-negative, got {tenant}")
            cleaned.append((start, end, tenant))
        cleaned.sort()
        for (s0, e0, t0), (s1, e1, t1) in zip(cleaned, cleaned[1:]):
            if s1 < e0:
                raise ValueError(
                    f"tenant ranges overlap: [{s0:#x}, {e0:#x}) (tenant {t0}) "
                    f"and [{s1:#x}, {e1:#x}) (tenant {t1})"
                )
        self._tenant_ranges = cleaned
        self._tenant_dma_names = {
            t: f"tenant_dma_writes_t{t}" for _, _, t in cleaned
        }

    def tenant_of_addr(self, addr: int) -> int:
        """The tenant owning ``addr`` (-1 when unattributed)."""
        for start, end, tenant in self._tenant_ranges:
            if start <= addr < end:
                return tenant
        return -1

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _make_line(self, addr: int, dirty: bool, origin: str, owner: int) -> CacheLine:
        """A CacheLine from the freelist (or fresh when the pool is dry)."""
        pool = self._line_pool
        if pool:
            line = pool.pop()
            line.addr = addr
            line.dirty = dirty
            line.origin = origin
            line.owner = owner
            return line
        return CacheLine(addr, dirty, origin, owner)

    def _retire_line(self, line: CacheLine) -> None:
        """Recycle a line no cache, directory, or caller references."""
        pool = self._line_pool
        if len(pool) < 256:
            pool.append(line)

    def _drop_private(self, core: int, addr: int) -> Optional[CacheLine]:
        """Remove ``addr`` from core's L1+MLC; returns the line (dirtiest view)."""
        merged: Optional[CacheLine] = None
        l1_data = self._l1_data[core]
        if l1_data is not None:
            l1_line = l1_data.remove(addr)
            if l1_line is not None:
                merged = l1_line
        mlc_line = self._mlc_data[core].remove(addr)
        if mlc_line is not None:
            if merged is not None:
                mlc_line.dirty = mlc_line.dirty or merged.dirty
                self._retire_line(merged)  # superseded by the MLC copy
            merged = mlc_line
        return merged

    def _llc_victim_to_dram(self, victim: CacheLine, now: int) -> None:
        """Handle a line evicted from the LLC data array."""
        if self.llc.inclusive:
            # Inclusive LLC: eviction back-invalidates private copies.
            for core in sorted(self.llc.directory.owners(victim.addr)):
                private = self._drop_private(core, victim.addr)
                self._counter_values["back_invalidations"] += 1
                if private is not None:
                    if private.dirty:
                        victim.dirty = True
                    self._retire_line(private)
            self.llc.directory.remove(victim.addr)
        if victim.dirty:
            hops = self._active_hops
            if hops is not None:
                hops.append(Hop("llc", "evict", 0))
                hops.append(Hop("dram", "writeback", 0))
            self.dram.write(victim.addr, now)
            self._notify_llc_wb(victim.addr, now)
        else:
            hops = self._active_hops
            if hops is not None:
                hops.append(Hop("llc", "drop", 0))
            self._counter_values["llc_clean_drops"] += 1
        self._retire_line(victim)

    def _fill_mlc(self, core: int, line: CacheLine, now: int) -> None:
        """Fill ``line`` into core's MLC, handling the non-inclusive victim path."""
        hops = self._active_hops
        if hops is not None:
            hops.append(Hop("mlc", "fill", 0))
        # Inlined PrivateCache.fill: set the owner, insert, count the
        # eviction (the wrapper adds nothing else on this path).
        line.owner = core
        mlc = self.mlc[core]
        victim = mlc.data.insert(line)
        if victim is None:
            return
        self._counter_values[mlc._evict_counter] += 1
        # Keep L1 included in MLC: back-invalidate the victim's L1 copy.
        l1_data = self._l1_data[core]
        if l1_data is not None:
            l1_copy = l1_data.remove(victim.addr)
            if l1_copy is not None:
                if l1_copy.dirty:
                    victim.dirty = True
                self._retire_line(l1_copy)
        self.llc.directory.remove(victim.addr, core)
        if self.llc.inclusive:
            # The LLC already holds a copy; just propagate dirtiness.
            resident = self.llc.peek(victim.addr)
            if resident is not None:
                if victim.dirty:
                    resident.dirty = True
                    self._notify_mlc_wb(core, now)
                else:
                    self._counter_values["mlc_clean_drops"] += 1
                self._retire_line(victim)
                return
            # Fall through (copy may have been evicted already).
        # Non-inclusive victim-cache fill: the LLC is populated by MLC
        # evictions, clean or dirty, and the fill may land in ANY way,
        # including non-DDIO ways -> DMA bloating (§III Obs. 3).  This
        # MLC->LLC transaction is what the paper's "MLC writeback" counters
        # measure.
        if hops is not None:
            hops.append(Hop("mlc", "evict", 0))
            hops.append(Hop("llc", "writeback", 0))
        self._notify_mlc_wb(core, now)
        if victim.dirty:
            self._counter_values["mlc_writebacks_dirty"] += 1
        else:
            self._counter_values["mlc_writebacks_clean"] += 1
        llc_victim = self.llc.fill_cpu(victim, now, core=core)
        if llc_victim is not None:
            self._llc_victim_to_dram(llc_victim, now)

    def _fill_l1(self, core: int, addr: int, dirty: bool, now: int) -> None:
        l1_data = self._l1_data[core]
        if l1_data is None:
            return
        # Inlined PrivateCache.fill (owner is set by _make_line).
        victim = l1_data.insert(self._make_line(addr, dirty, "cpu", core))
        if victim is None:
            return
        self._counter_values[self.l1[core]._evict_counter] += 1
        if victim.dirty:
            # Dirty L1 victim merges into the MLC copy (L1 ⊆ MLC by design).
            mlc_line = self._mlc_data[core].peek(victim.addr)
            if mlc_line is not None:
                mlc_line.dirty = True
                self._retire_line(victim)
            else:
                # MLC copy already gone; push straight to LLC.
                hops = self._active_hops
                if hops is not None:
                    hops.append(Hop("llc", "writeback", 0))
                self._notify_mlc_wb(core, now)
                llc_victim = self.llc.fill_cpu(victim, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
        else:
            # Clean L1 victim: silently dropped (MLC still holds it).
            self._retire_line(victim)

    def _directory_back_invalidate(self, entry, now: int) -> None:
        """A directory eviction forces the MLC copies out (non-inclusive)."""
        for core in sorted(entry.owners):
            line = self._drop_private(core, entry.addr)
            self._counter_values["directory_back_invalidations"] += 1
            if line is None:
                continue
            if line.dirty:
                hops = self._active_hops
                if hops is not None:
                    hops.append(Hop("llc", "writeback", 0))
                self._notify_mlc_wb(core, now)
                llc_victim = self.llc.fill_cpu(line, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
            else:
                self._retire_line(line)

    # ------------------------------------------------------------------
    # demand path (Fig. 2)
    # ------------------------------------------------------------------

    def _run_cpu(self, txn: MemoryTransaction) -> None:
        """A demand load/store from ``txn.core``."""
        core = txn.core
        addr = txn.addr
        now = txn.now
        is_write = txn.kind == CPU_STORE
        hops = self._active_hops
        cv = self._counter_values
        latency = 0
        l1_data = self._l1_data[core]
        if l1_data is not None:
            latency += self._l1_lat[core]
            hit = l1_data.lookup(addr)
            if hit is not None:
                if is_write:
                    hit.dirty = True
                    mlc_copy = self._mlc_data[core].peek(addr)
                    if mlc_copy is not None:
                        mlc_copy.dirty = True
                cv["l1_hits"] += 1
                if hops is not None:
                    hops.append(Hop("l1", "hit", latency))
                txn.latency = latency
                txn.level = "l1"
                return
            if hops is not None:
                hops.append(Hop("l1", "miss", latency))

        mlc_lat = self._mlc_lat[core]
        latency += mlc_lat
        hit = self._mlc_data[core].lookup(addr)
        if hit is not None:
            if is_write:
                hit.dirty = True
            if hops is not None:
                hops.append(Hop("mlc", "hit", mlc_lat))
            self._fill_l1(core, addr, False, now)
            cv["mlc_hits"] += 1
            txn.latency = latency
            txn.level = "mlc"
            return
        if hops is not None:
            hops.append(Hop("mlc", "miss", mlc_lat))

        # Another core's private caches may own the line: the directory
        # filters the snoop and the data migrates cache-to-cache (our
        # workloads never share lines, but the model must stay coherent
        # for ones that do).  The entry is read in place (no set copy);
        # the sorted() below materializes the iteration order before the
        # removes mutate the owner set.
        dir_entry = self._dir_entries.get(addr & _LINE_MASK)
        if dir_entry is not None:
            remote_owners = [o for o in sorted(dir_entry.owners) if o != core]
        else:
            remote_owners = ()
        if remote_owners:
            migrated: Optional[CacheLine] = None
            for owner in remote_owners:
                line = self._drop_private(owner, addr)
                self.llc.directory.remove(addr, owner)
                if line is not None and (migrated is None or line.dirty):
                    migrated = line
            if migrated is not None:
                cv["c2c_transfers"] += 1
                latency += self._llc_lat  # snoop round trip
                if hops is not None:
                    hops.append(Hop("directory", "c2c", self._llc_lat))
                migrated.owner = core
                if is_write:
                    migrated.dirty = True
                self._fill_mlc(core, migrated, now)
                for evicted_entry in self.llc.directory.add(addr, core):
                    self._directory_back_invalidate(evicted_entry, now)
                self._fill_l1(core, addr, False, now)
                txn.latency = latency
                txn.level = "c2c"
                return

        llc_latency = (
            self._llc_lat if self._flat_llc else self.llc.access_latency(core, addr)
        )
        latency += llc_latency
        llc_line = self._llc_data.lookup(addr)
        if llc_line is not None:
            level = "llc"
            cv["llc_hits"] += 1
            if hops is not None:
                hops.append(Hop("llc", "hit", llc_latency))
            if self.llc.inclusive:
                new_line = self._make_line(addr, False, llc_line.origin, core)
            else:
                # Non-inclusive: data moves up, tag moves to the directory
                # (steps A-2.1/B-2.1 of Fig. 2).  The removed LLC line
                # object itself migrates — no copy is allocated.
                self._llc_data.remove(addr)
                new_line = llc_line
                new_line.owner = core
        else:
            level = "dram"
            dram_latency = self.dram.read(addr, now)
            latency += dram_latency
            if hops is not None:
                hops.append(Hop("llc", "miss", llc_latency))
                hops.append(Hop("dram", "read", dram_latency))
            cv["llc_misses"] += 1
            new_line = self._make_line(addr, False, "cpu", core)
            if self.llc.inclusive:
                llc_victim = self.llc.fill_cpu(
                    self._make_line(addr, False, "cpu", core), now, core=core
                )
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)

        if is_write:
            new_line.dirty = True
        self._fill_mlc(core, new_line, now)
        for evicted_entry in self.llc.directory.add(addr, core):
            self._directory_back_invalidate(evicted_entry, now)
        self._fill_l1(core, addr, False, now)
        txn.latency = latency
        txn.level = level

    # ------------------------------------------------------------------
    # PCIe ingress (Fig. 1, DDIO write path)
    # ------------------------------------------------------------------

    def _run_dma_write(self, txn: MemoryTransaction) -> None:
        """A full-cacheline inbound DMA write.

        ``txn.placement`` is ``"llc"`` for the normal DDIO path or
        ``"dram"`` for IDIO's selective direct DRAM access (M3).
        """
        addr = txn.addr
        now = txn.now
        placement = txn.placement
        hops = self._active_hops
        cv = self._counter_values
        cv["pcie_writes"] += 1
        self._event_streams["pcie_writes"].append(now)
        latency = self._llc_lat

        # Tenant attribution: one falsy check when tenancy is off; with
        # tenants the range list is tiny (one entry per tenant region).
        tenant = -1
        if self._tenant_ranges:
            for start, end, t in self._tenant_ranges:
                if start <= addr < end:
                    tenant = t
                    cv[self._tenant_dma_names[t]] += 1
                    subs = self._tenant_dma_subs
                    if subs:
                        event = TenantDmaEvent(t, now)
                        for fn in subs:
                            fn(event)
                    break

        # Invalidate any private (MLC/L1) copies — steps P1-1/P2-1 of Fig. 1.
        dir_entry = self._dir_entries.get(addr & _LINE_MASK)
        if dir_entry is not None:
            inval_stream = self._event_streams["mlc_invalidations"]
            for core in sorted(dir_entry.owners):
                dropped = self._drop_private(core, addr)
                if dropped is not None:
                    self._retire_line(dropped)
                if hops is not None:
                    hops.append(Hop("mlc", "inval", 0))
                cv["mlc_invalidations"] += 1
                inval_stream.append(now)
                cv[self._mlc_inval_names[core]] += 1
            self.llc.directory.remove(addr)

        if placement == "dram":
            # Selective direct DRAM access: drop any (stale) LLC copy and
            # write the line straight to memory.
            stale = self._llc_data.remove(addr)
            if stale is not None:
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                cv["llc_drop_on_direct_dram"] += 1
                self._retire_line(stale)
            latency = self.dram.write(addr, now)
            if hops is not None:
                hops.append(Hop("dram", "write", latency))
            cv["direct_dram_writes"] += 1
            self._event_streams["direct_dram_writes"].append(now)
            txn.latency = latency
            txn.level = "dram"
            return
        if placement != "llc":
            raise ValueError(f"unknown placement {placement!r}")

        resident = self._llc_data.lookup(addr)
        if resident is not None:
            # In-place update (P2-2 / P3-1): the line stays in whatever way
            # it occupies and becomes dirty I/O data.
            resident.dirty = True
            resident.origin = "io"
            if hops is not None:
                hops.append(Hop("llc", "update", latency))
            cv["ddio_updates"] += 1
        else:
            # Write-allocate into the DDIO ways (P1-2 / P5-1).
            if hops is not None:
                hops.append(Hop("llc", "fill", latency))
            victim = self.llc.fill_io(
                self._make_line(addr, True, "io", -1), now, tenant
            )
            cv["ddio_allocations"] += 1
            if victim is not None:
                self._llc_victim_to_dram(victim, now)
        txn.latency = latency
        txn.level = "llc"

    # ------------------------------------------------------------------
    # PCIe egress (Fig. 1, read path)
    # ------------------------------------------------------------------

    def _run_dma_read(self, txn: MemoryTransaction) -> None:
        """An outbound DMA read (NIC TX)."""
        addr = txn.addr
        now = txn.now
        hops = self._active_hops
        self._counter_values["pcie_reads"] += 1
        latency = self._llc_lat

        dir_entry = self._dir_entries.get(addr & _LINE_MASK)
        if dir_entry is not None:
            for core in sorted(dir_entry.owners):
                # MLC copies are invalidated and written back to LLC (Fig. 3
                # right): the egress read must observe the latest data.
                line = self._drop_private(core, addr)
                if line is None:
                    continue
                if hops is not None:
                    hops.append(Hop("mlc", "evict", 0))
                if line.dirty:
                    if hops is not None:
                        hops.append(Hop("llc", "writeback", 0))
                    self._notify_mlc_wb(core, now)
                line.owner = -1
                llc_victim = self.llc.fill_cpu(line, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
            self.llc.directory.remove(addr)

        # One recency-touching lookup doubles as the presence check.
        if self._llc_data.lookup(addr) is not None:
            if hops is not None:
                hops.append(Hop("llc", "hit", latency))
            txn.latency = latency
            txn.level = "llc"
            return
        dram_latency = self.dram.read(addr, now)
        if hops is not None:
            hops.append(Hop("llc", "miss", latency))
            hops.append(Hop("dram", "read", dram_latency))
        latency += dram_latency
        txn.latency = latency
        txn.level = "dram"

    # ------------------------------------------------------------------
    # IDIO mechanisms
    # ------------------------------------------------------------------

    def _run_prefetch_fill(self, txn: MemoryTransaction) -> None:
        """Bring ``txn.addr`` into ``txn.core``'s MLC without stalling it.

        Used by the queued MLC prefetcher (§V-C).  Sets ``txn.level`` to
        the level the line came from ("llc"/"dram"), or "dropped" when
        the line is already private (no fill happened).
        """
        core = txn.core
        addr = txn.addr
        now = txn.now
        laddr = addr & _LINE_MASK
        if laddr in self._mlc_data[core]._where:
            txn.level = "dropped"
            return
        l1_data = self._l1_data[core]
        if l1_data is not None and laddr in l1_data._where:
            txn.level = "dropped"
            return
        hops = self._active_hops
        llc_line = self._llc_data.lookup(addr)
        if llc_line is not None:
            txn.level = "llc"
            if hops is not None:
                hops.append(Hop("llc", "hit", self._llc_lat))
            if self.llc.inclusive:
                new_line = self._make_line(addr, False, llc_line.origin, core)
            else:
                # The removed LLC line migrates up as-is (no copy).
                self._llc_data.remove(addr)
                new_line = llc_line
                new_line.owner = core
        else:
            txn.level = "dram"
            dram_latency = self.dram.read(addr, now)
            if hops is not None:
                hops.append(Hop("dram", "read", dram_latency))
            new_line = self._make_line(addr, False, "cpu", core)
        self._fill_mlc(core, new_line, now)
        for evicted_entry in self.llc.directory.add(addr, core):
            self._directory_back_invalidate(evicted_entry, now)
        self._counter_values["mlc_prefetch_fills"] += 1
        self._event_streams["mlc_prefetch_fills"].append(now)

    def _run_invalidate(self, txn: MemoryTransaction) -> None:
        """The new invalidate-without-writeback maintenance operation.

        ``txn.scope="private"`` drops only the core's L1/MLC copy (the
        literal instruction semantics of §V-D); ``"all"`` additionally
        drops any LLC copy, which is the behavior the L2Fwd evaluation
        relies on ("invalidating consumed LLC-resident buffers", §VII).
        Neither scope ever writes data back — that is the entire point.
        """
        core = txn.core
        addr = txn.addr
        now = txn.now
        scope = txn.scope
        hops = self._active_hops
        dropped = self._drop_private(core, addr)
        if dropped is not None:
            if hops is not None:
                hops.append(Hop("mlc", "drop", 0))
            self.llc.directory.remove(addr, core)
            self._counter_values["self_invalidations"] += 1
            self._event_streams["self_invalidations"].append(now)
            self._retire_line(dropped)
        if scope == "all":
            removed = self._llc_data.remove(addr)
            if removed is not None:
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                self._counter_values["self_invalidations_llc"] += 1
                self._event_streams["self_invalidations_llc"].append(now)
                self._retire_line(removed)
        elif scope != "private":
            raise ValueError(f"unknown invalidate scope {scope!r}")
        txn.level = "invalidated" if dropped is not None else "absent"

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def where(self, addr: int) -> Dict[str, object]:
        """Locate a line for tests/diagnostics (levels holding a copy)."""
        addr = line_address(addr)
        holders: Dict[str, object] = {
            "mlc": [c for c in range(self.config.num_cores) if addr in self.mlc[c]],
            "l1": [
                c
                for c in range(self.config.num_cores)
                if self.l1[c] is not None and addr in self.l1[c]  # type: ignore[operator]
            ],
            "llc": addr in self.llc,
            "directory": addr in self.llc.directory,
        }
        return holders
