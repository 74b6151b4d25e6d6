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
from .line import DIRTY, IO, _LINE_MASK, line_address
from .llc import NonInclusiveLLC, mask_cores
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
        # data array, SnoopFilterDirectory -> mask dict).  Nothing in
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
        self._directory = self.llc.directory
        self._dir_masks = self.llc.directory.masks
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

    def _drop_private(self, core: int, addr: int) -> int:
        """Remove ``addr`` from core's L1+MLC; returns the word (dirtiest
        view, the MLC copy's origin) or ``-1``."""
        merged = -1
        l1_data = self._l1_data[core]
        if l1_data is not None and addr in l1_data.where:
            merged = l1_data.remove(addr)
        mlc_data = self._mlc_data[core]
        if addr in mlc_data.where:
            word = mlc_data.remove(addr)
            if merged >= 0:
                word |= merged & DIRTY
            merged = word
        return merged

    def _llc_victim_to_dram(self, victim: int, now: int) -> None:
        """Handle a line evicted from the LLC data array."""
        addr = victim & _LINE_MASK
        if self.llc.inclusive:
            # Inclusive LLC: eviction back-invalidates private copies.
            for core in mask_cores(self._dir_masks.get(addr, 0)):
                private = self._drop_private(core, addr)
                self._counter_values["back_invalidations"] += 1
                if private >= 0:
                    victim |= private & DIRTY
            self._directory.remove(addr)
        hops = self._active_hops
        if victim & DIRTY:
            if hops is not None:
                hops.append(Hop("llc", "evict", 0))
                hops.append(Hop("dram", "writeback", 0))
            self.dram.write(addr, now)
            self._notify_llc_wb(addr, now)
        else:
            if hops is not None:
                hops.append(Hop("llc", "drop", 0))
            self._counter_values["llc_clean_drops"] += 1

    def _fill_mlc(self, core: int, word: int, now: int) -> None:
        """Fill ``word`` into core's MLC (handling the non-inclusive victim
        path), then track the line in the snoop-filter directory."""
        hops = self._active_hops
        if hops is not None:
            hops.append(Hop("mlc", "fill", 0))
        victim = self._mlc_data[core].insert(word)
        if victim >= 0:
            self._mlc_victim(core, victim, now)
        addr = word & _LINE_MASK
        if self._directory.capacity is None:
            masks = self._dir_masks
            masks[addr] = masks.get(addr, 0) | (1 << core)
            return
        # A bounded directory may evict entries to make room: their MLC
        # copies are forced out (non-inclusive), dirty ones written back.
        for old_addr, owners in self._directory.add(addr, core):
            for owner in mask_cores(owners):
                old = self._drop_private(owner, old_addr)
                self._counter_values["directory_back_invalidations"] += 1
                if old >= 0 and old & DIRTY:
                    if hops is not None:
                        hops.append(Hop("llc", "writeback", 0))
                    self._notify_mlc_wb(owner, now)
                    self._fill_llc_cpu(old, owner, now)

    def _mlc_victim(self, core: int, victim: int, now: int) -> None:
        """Handle a line evicted from core's MLC."""
        cv = self._counter_values
        cv[self.mlc[core]._evict_counter] += 1
        addr = victim & _LINE_MASK
        # Keep L1 included in MLC: back-invalidate the victim's L1 copy.
        l1_data = self._l1_data[core]
        if l1_data is not None and addr in l1_data.where:
            victim |= l1_data.remove(addr) & DIRTY
        self._directory.remove(addr, core)
        if self.llc.inclusive:
            # The LLC already holds a copy; just propagate dirtiness.
            llc_data = self._llc_data
            slot = llc_data.where.get(addr)
            if slot is not None:
                if victim & DIRTY:
                    llc_data.words[slot] |= DIRTY
                    self._notify_mlc_wb(core, now)
                else:
                    cv["mlc_clean_drops"] += 1
                return
            # Fall through (copy may have been evicted already).
        # Non-inclusive victim-cache fill: the LLC is populated by MLC
        # evictions, clean or dirty, and the fill may land in ANY way,
        # including non-DDIO ways -> DMA bloating (§III Obs. 3).  This
        # MLC->LLC transaction is what the paper's "MLC writeback" counters
        # measure.
        hops = self._active_hops
        if hops is not None:
            hops.append(Hop("mlc", "evict", 0))
            hops.append(Hop("llc", "writeback", 0))
        self._notify_mlc_wb(core, now)
        if victim & DIRTY:
            cv["mlc_writebacks_dirty"] += 1
        else:
            cv["mlc_writebacks_clean"] += 1
        self._fill_llc_cpu(victim, core, now)

    def _fill_llc_cpu(self, word: int, core: int, now: int) -> None:
        """A CPU-side LLC fill of ``word``; its victim goes to DRAM."""
        victim = self.llc.fill_cpu(word, now, core)
        if victim >= 0:
            self._llc_victim_to_dram(victim, now)

    def _fill_l1(self, core: int, addr: int, now: int) -> None:
        """Fill a clean CPU copy of ``addr`` into core's L1 (when present)."""
        l1_data = self._l1_data[core]
        if l1_data is None:
            return
        victim = l1_data.insert(addr)
        if victim < 0:
            return
        self._counter_values[self.l1[core]._evict_counter] += 1
        if victim & DIRTY:
            # Dirty L1 victim merges into the MLC copy (L1 ⊆ MLC by design).
            mlc_data = self._mlc_data[core]
            slot = mlc_data.where.get(victim & _LINE_MASK)
            if slot is not None:
                mlc_data.words[slot] |= DIRTY
            else:
                # MLC copy already gone; push straight to LLC.
                hops = self._active_hops
                if hops is not None:
                    hops.append(Hop("llc", "writeback", 0))
                self._notify_mlc_wb(core, now)
                self._fill_llc_cpu(victim, core, now)
        # A clean L1 victim is silently dropped (MLC still holds it).

    # ------------------------------------------------------------------
    # demand path (Fig. 2)
    # ------------------------------------------------------------------

    # The handlers probe a level's ``where`` index directly and call
    # ``touch`` only on a hit: most probes miss, and a miss then costs a
    # dict lookup, not a method call.  ``txn.addr`` is line-aligned (the
    # transaction masks it).

    def _run_cpu(self, txn: MemoryTransaction) -> None:
        """A demand load/store from ``txn.core``."""
        core = txn.core
        addr = txn.addr
        now = txn.now
        is_write = txn.kind == CPU_STORE
        hops = self._active_hops
        cv = self._counter_values
        latency = 0
        mlc_data = self._mlc_data[core]
        l1_data = self._l1_data[core]
        if l1_data is not None:
            latency += self._l1_lat[core]
            slot = l1_data.where.get(addr)
            if slot is not None:
                l1_data.touch(slot)
                if is_write:
                    l1_data.words[slot] |= DIRTY
                    mlc_slot = mlc_data.where.get(addr)
                    if mlc_slot is not None:
                        mlc_data.words[mlc_slot] |= DIRTY
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
        slot = mlc_data.where.get(addr)
        if slot is not None:
            mlc_data.touch(slot)
            if is_write:
                mlc_data.words[slot] |= DIRTY
            if hops is not None:
                hops.append(Hop("mlc", "hit", mlc_lat))
            self._fill_l1(core, addr, now)
            cv["mlc_hits"] += 1
            txn.latency = latency
            txn.level = "mlc"
            return
        if hops is not None:
            hops.append(Hop("mlc", "miss", mlc_lat))

        # Another core's private caches may own the line: the directory
        # filters the snoop and the data migrates cache-to-cache (our
        # workloads never share lines, but the model must stay coherent
        # for ones that do).
        remote = self._dir_masks.get(addr, 0) & ~(1 << core)
        if remote:
            migrated = -1
            for owner in mask_cores(remote):
                word = self._drop_private(owner, addr)
                self._directory.remove(addr, owner)
                if word >= 0 and (migrated < 0 or word & DIRTY):
                    migrated = word
            if migrated >= 0:
                cv["c2c_transfers"] += 1
                latency += self._llc_lat  # snoop round trip
                if hops is not None:
                    hops.append(Hop("directory", "c2c", self._llc_lat))
                if is_write:
                    migrated |= DIRTY
                self._fill_mlc(core, migrated, now)
                self._fill_l1(core, addr, now)
                txn.latency = latency
                txn.level = "c2c"
                return

        llc_latency = (
            self._llc_lat if self._flat_llc else self.llc.access_latency(core, addr)
        )
        latency += llc_latency
        llc_data = self._llc_data
        slot = llc_data.where.get(addr)
        if slot is not None:
            llc_data.touch(slot)
            level = "llc"
            cv["llc_hits"] += 1
            if hops is not None:
                hops.append(Hop("llc", "hit", llc_latency))
            if self.llc.inclusive:
                # A clean private copy keeping the LLC line's origin.
                word = addr | (llc_data.words[slot] & IO)
            else:
                # Non-inclusive: data moves up, tag moves to the directory
                # (steps A-2.1/B-2.1 of Fig. 2).  The LLC's word (dirty
                # and origin bits included) migrates as-is.
                word = llc_data.remove(addr)
        else:
            level = "dram"
            dram_latency = self.dram.read(addr, now)
            latency += dram_latency
            if hops is not None:
                hops.append(Hop("llc", "miss", llc_latency))
                hops.append(Hop("dram", "read", dram_latency))
            cv["llc_misses"] += 1
            word = addr
            if self.llc.inclusive:
                self._fill_llc_cpu(addr, core, now)

        if is_write:
            word |= DIRTY
        self._fill_mlc(core, word, now)
        self._fill_l1(core, addr, now)
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
        owners = self._dir_masks.pop(addr, 0)
        if owners:
            inval_stream = self._event_streams["mlc_invalidations"]
            for core in mask_cores(owners):
                self._drop_private(core, addr)
                if hops is not None:
                    hops.append(Hop("mlc", "inval", 0))
                cv["mlc_invalidations"] += 1
                inval_stream.append(now)
                cv[self._mlc_inval_names[core]] += 1

        llc_data = self._llc_data
        if placement == "dram":
            # Selective direct DRAM access: drop any (stale) LLC copy and
            # write the line straight to memory.
            if addr in llc_data.where:
                llc_data.remove(addr)
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                cv["llc_drop_on_direct_dram"] += 1
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

        slot = llc_data.where.get(addr)
        if slot is not None:
            # In-place update (P2-2 / P3-1): the line stays in whatever way
            # it occupies and becomes dirty I/O data.
            llc_data.touch(slot)
            llc_data.words[slot] |= DIRTY | IO
            if hops is not None:
                hops.append(Hop("llc", "update", latency))
            cv["ddio_updates"] += 1
        else:
            # Write-allocate into the DDIO ways (P1-2 / P5-1).
            if hops is not None:
                hops.append(Hop("llc", "fill", latency))
            victim = self.llc.fill_io(addr | DIRTY, now, tenant)
            cv["ddio_allocations"] += 1
            if victim >= 0:
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

        for core in mask_cores(self._dir_masks.pop(addr, 0)):
            # MLC copies are invalidated and written back to LLC (Fig. 3
            # right): the egress read must observe the latest data.
            word = self._drop_private(core, addr)
            if word < 0:
                continue
            if hops is not None:
                hops.append(Hop("mlc", "evict", 0))
            if word & DIRTY:
                if hops is not None:
                    hops.append(Hop("llc", "writeback", 0))
                self._notify_mlc_wb(core, now)
            self._fill_llc_cpu(word, core, now)

        # One recency-touching probe doubles as the presence check.
        llc_data = self._llc_data
        slot = llc_data.where.get(addr)
        if slot is not None:
            llc_data.touch(slot)
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
        if addr in self._mlc_data[core].where:
            txn.level = "dropped"
            return
        l1_data = self._l1_data[core]
        if l1_data is not None and addr in l1_data.where:
            txn.level = "dropped"
            return
        hops = self._active_hops
        llc_data = self._llc_data
        slot = llc_data.where.get(addr)
        if slot is not None:
            llc_data.touch(slot)
            txn.level = "llc"
            if hops is not None:
                hops.append(Hop("llc", "hit", self._llc_lat))
            if self.llc.inclusive:
                word = addr | (llc_data.words[slot] & IO)
            else:
                # The LLC's word migrates up as-is.
                word = llc_data.remove(addr)
        else:
            txn.level = "dram"
            dram_latency = self.dram.read(addr, now)
            if hops is not None:
                hops.append(Hop("dram", "read", dram_latency))
            word = addr
        self._fill_mlc(core, word, now)
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
        dropped = self._drop_private(core, addr) >= 0
        if dropped:
            if hops is not None:
                hops.append(Hop("mlc", "drop", 0))
            self._directory.remove(addr, core)
            self._counter_values["self_invalidations"] += 1
            self._event_streams["self_invalidations"].append(now)
        if scope == "all":
            llc_data = self._llc_data
            if addr in llc_data.where:
                llc_data.remove(addr)
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                self._counter_values["self_invalidations_llc"] += 1
                self._event_streams["self_invalidations_llc"].append(now)
        elif scope != "private":
            raise ValueError(f"unknown invalidate scope {scope!r}")
        txn.level = "invalidated" if dropped else "absent"

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
