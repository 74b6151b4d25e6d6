"""A slow, plain reference model of the memory hierarchy (test oracle).

:class:`RefHierarchy` restates the data paths of
:class:`repro.mem.hierarchy.MemoryHierarchy` (Figs. 1-3 and the IDIO
mechanisms) in the most direct form: every cache set is a dict from way
to a line record dict, recency is a ``(set, way) -> tick`` dict with a
``min()`` victim choice, and the snoop-filter directory maps a line to a
Python set of owner cores.  It shares no code with the fast path — no
line words, slots, bitmasks or cached references — so a differential
test against it guards every rewrite of the hot path.

Only the default ``lru`` replacement, a monolithic LLC and fixed-latency
DRAM without a bandwidth cap are modelled.
"""

from collections import Counter, OrderedDict

LINE = 64


class RefCache:
    """One cache level: ``sets[set][way] = {"addr", "dirty", "io"}``."""

    def __init__(self, config):
        self.name = config.name
        self.latency = config.latency
        self.assoc = config.assoc
        self.num_sets = config.size_bytes // (config.assoc * LINE)
        self.sets = {s: {} for s in range(self.num_sets)}
        self.last = {}
        self.tick = 0

    def _locate(self, addr):
        s = (addr // LINE) % self.num_sets
        for way, line in self.sets[s].items():
            if line["addr"] == addr:
                return s, way
        return s, None

    def _touch(self, s, way):
        self.tick += 1
        self.last[(s, way)] = self.tick

    def __contains__(self, addr):
        return self._locate(addr)[1] is not None

    def get(self, addr, touch):
        s, way = self._locate(addr)
        if way is None:
            return None
        if touch:
            self._touch(s, way)
        return self.sets[s][way]

    def pop(self, addr):
        s, way = self._locate(addr)
        if way is None:
            return None
        self.last.pop((s, way), None)
        return self.sets[s].pop(way)

    def put(self, line, ways):
        """Fill ``line`` into the first free way of ``ways`` (else the
        least recently used one); returns the evicted line or None."""
        s, way = self._locate(line["addr"])
        if way is not None:
            old = self.sets[s][way]
            old["dirty"] = old["dirty"] or line["dirty"]
            old["io"] = line["io"]
            self._touch(s, way)
            return None
        free = [w for w in ways if w not in self.sets[s]]
        victim = None
        if free:
            way = free[0]
        else:
            way = min(ways, key=lambda w: self.last.get((s, w), 0))
            victim = self.sets[s].pop(way)
        self.sets[s][way] = line
        self._touch(s, way)
        return victim

    def resident(self):
        return {
            (line["addr"], line["dirty"], line["io"])
            for lines in self.sets.values()
            for line in lines.values()
        }


def _line(addr, dirty=False, io=False):
    return {"addr": addr, "dirty": dirty, "io": io}


class RefHierarchy:
    """The reference hierarchy, driven by :meth:`access`."""

    def __init__(self, config):
        self.num_cores = config.num_cores
        self.l1 = [
            RefCache(config.resolved_l1()) if config.l1_enabled else None
            for _ in range(config.num_cores)
        ]
        self.mlc = [RefCache(config.resolved_mlc(c)) for c in range(config.num_cores)]
        self.llc = RefCache(config.resolved_llc())
        self.inclusive = config.llc_inclusive
        self.dir_capacity = config.directory_capacity
        self.directory = OrderedDict()
        self.dram_latency = config.dram_latency
        self.counters = Counter()
        self.core_masks = {}
        self.tenant_masks = {}
        self.tenant_ranges = []
        self.set_ddio_ways(config.ddio_ways)

    # -- knobs ----------------------------------------------------------

    def set_ddio_ways(self, n):
        self.io_ways = list(range(n))
        self.cpu_ways = list(range(n, self.llc.assoc)) + list(range(n))

    def set_core_way_mask(self, core, ways):
        self.core_masks[core] = sorted(set(ways))

    def set_tenant_io_ways(self, tenant, ways):
        self.tenant_masks[tenant] = sorted(set(ways))

    def set_tenant_ranges(self, ranges):
        self.tenant_ranges = list(ranges)

    # -- helpers ----------------------------------------------------------

    def _drop_private(self, core, addr):
        l1 = self.l1[core].pop(addr) if self.l1[core] is not None else None
        mlc = self.mlc[core].pop(addr)
        if mlc is not None and l1 is not None:
            mlc["dirty"] = mlc["dirty"] or l1["dirty"]
        return mlc if mlc is not None else l1

    def _dir_remove(self, addr, core):
        owners = self.directory.get(addr)
        if owners is not None:
            owners.discard(core)
            if not owners:
                del self.directory[addr]

    def _mlc_writeback(self, core):
        self.counters["mlc_writebacks"] += 1
        self.counters[f"mlc_writebacks_c{core}"] += 1

    def _llc_evicted(self, victim):
        addr = victim["addr"]
        if self.inclusive:
            for core in sorted(self.directory.get(addr, ())):
                private = self._drop_private(core, addr)
                self.counters["back_invalidations"] += 1
                if private is not None and private["dirty"]:
                    victim["dirty"] = True
            self.directory.pop(addr, None)
        if victim["dirty"]:
            self.counters["dram_writes"] += 1
            self.counters["llc_writebacks"] += 1
        else:
            self.counters["llc_clean_drops"] += 1

    def _llc_fill(self, line, ways):
        victim = self.llc.put(line, ways)
        if victim is not None:
            self.counters["llc_evictions"] += 1
            self._llc_evicted(victim)

    def _llc_fill_cpu(self, line, core):
        self._llc_fill(line, self.core_masks.get(core, self.cpu_ways))

    def _fill_mlc(self, core, line):
        mlc = self.mlc[core]
        victim = mlc.put(line, range(mlc.assoc))
        if victim is None:
            return
        self.counters[f"{mlc.name}_evictions"] += 1
        addr = victim["addr"]
        if self.l1[core] is not None:
            l1_copy = self.l1[core].pop(addr)
            if l1_copy is not None and l1_copy["dirty"]:
                victim["dirty"] = True
        self._dir_remove(addr, core)
        if self.inclusive:
            llc_copy = self.llc.get(addr, touch=False)
            if llc_copy is not None:
                if victim["dirty"]:
                    llc_copy["dirty"] = True
                    self._mlc_writeback(core)
                else:
                    self.counters["mlc_clean_drops"] += 1
                return
        self._mlc_writeback(core)
        clean = "dirty" if victim["dirty"] else "clean"
        self.counters[f"mlc_writebacks_{clean}"] += 1
        self._llc_fill_cpu(victim, core)

    def _fill_l1(self, core, addr):
        l1 = self.l1[core]
        if l1 is None:
            return
        victim = l1.put(_line(addr), range(l1.assoc))
        if victim is None:
            return
        self.counters[f"{l1.name}_evictions"] += 1
        if victim["dirty"]:
            mlc_copy = self.mlc[core].get(victim["addr"], touch=False)
            if mlc_copy is not None:
                mlc_copy["dirty"] = True
            else:
                self._mlc_writeback(core)
                self._llc_fill_cpu(victim, core)

    def _dir_add(self, addr, core):
        if addr in self.directory:
            self.directory[addr].add(core)
            if self.dir_capacity is not None:
                self.directory.move_to_end(addr)
            return
        evicted = []
        while self.dir_capacity is not None and len(self.directory) >= self.dir_capacity:
            evicted.append(self.directory.popitem(last=False))
        self.directory[addr] = {core}
        for old_addr, owners in evicted:
            for owner in sorted(owners):
                line = self._drop_private(owner, old_addr)
                self.counters["directory_back_invalidations"] += 1
                if line is not None and line["dirty"]:
                    self._mlc_writeback(owner)
                    self._llc_fill_cpu(line, owner)

    def _from_llc_or_dram(self, addr, latency):
        """The line a private fill brings up, the level and the latency."""
        hit = self.llc.get(addr, touch=True)
        if hit is None:
            self.counters["dram_reads"] += 1
            return _line(addr), "dram", latency + self.dram_latency
        if self.inclusive:
            return _line(addr, io=hit["io"]), "llc", latency
        return self.llc.pop(addr), "llc", latency

    # -- transactions -------------------------------------------------------

    def access(self, kind, addr, core=0, placement="llc", scope="all"):
        """Run one transaction (``kind`` as in ``repro.mem.transaction``,
        e.g. ``"cpu-load"``); returns ``(level, latency)``."""
        return getattr(self, "_" + kind.replace("-", "_"))(addr, core, placement, scope)

    def _cpu(self, addr, core, write):
        c = self.counters
        latency = 0
        l1 = self.l1[core]
        if l1 is not None:
            latency += l1.latency
            hit = l1.get(addr, touch=True)
            if hit is not None:
                if write:
                    hit["dirty"] = True
                    mlc_copy = self.mlc[core].get(addr, touch=False)
                    if mlc_copy is not None:
                        mlc_copy["dirty"] = True
                c["l1_hits"] += 1
                return "l1", latency
        latency += self.mlc[core].latency
        hit = self.mlc[core].get(addr, touch=True)
        if hit is not None:
            if write:
                hit["dirty"] = True
            self._fill_l1(core, addr)
            c["mlc_hits"] += 1
            return "mlc", latency
        migrated = None
        for owner in sorted(self.directory.get(addr, ())):
            if owner == core:
                continue
            line = self._drop_private(owner, addr)
            self._dir_remove(addr, owner)
            if line is not None and (migrated is None or line["dirty"]):
                migrated = line
        if migrated is not None:
            c["c2c_transfers"] += 1
            line, level, latency = migrated, "c2c", latency + self.llc.latency
        else:
            line, level, latency = self._from_llc_or_dram(addr, latency + self.llc.latency)
            c["llc_hits" if level == "llc" else "llc_misses"] += 1
            if level == "dram" and self.inclusive:
                self._llc_fill_cpu(_line(addr), core)
        if write:
            line["dirty"] = True
        self._fill_mlc(core, line)
        self._dir_add(addr, core)
        self._fill_l1(core, addr)
        return level, latency

    def _cpu_load(self, addr, core, placement, scope):
        return self._cpu(addr, core, False)

    def _cpu_store(self, addr, core, placement, scope):
        return self._cpu(addr, core, True)

    def _dma_write(self, addr, core, placement, scope):
        c = self.counters
        c["pcie_writes"] += 1
        tenant = next((t for s, e, t in self.tenant_ranges if s <= addr < e), -1)
        if tenant >= 0:
            c[f"tenant_dma_writes_t{tenant}"] += 1
        for owner in sorted(self.directory.pop(addr, ())):
            self._drop_private(owner, addr)
            c["mlc_invalidations"] += 1
            c[f"mlc_invalidations_c{owner}"] += 1
        if placement == "dram":
            if self.llc.pop(addr) is not None:
                c["llc_drop_on_direct_dram"] += 1
            c["dram_writes"] += 1
            c["direct_dram_writes"] += 1
            return "dram", self.dram_latency
        hit = self.llc.get(addr, touch=True)
        if hit is not None:
            hit["dirty"] = hit["io"] = True
            c["ddio_updates"] += 1
        else:
            c["ddio_allocations"] += 1
            self._llc_fill(_line(addr, True, True), self.tenant_masks.get(tenant, self.io_ways))
        return "llc", self.llc.latency

    def _dma_read(self, addr, core, placement, scope):
        self.counters["pcie_reads"] += 1
        for owner in sorted(self.directory.pop(addr, ())):
            line = self._drop_private(owner, addr)
            if line is None:
                continue
            if line["dirty"]:
                self._mlc_writeback(owner)
            self._llc_fill_cpu(line, owner)
        if self.llc.get(addr, touch=True) is not None:
            return "llc", self.llc.latency
        self.counters["dram_reads"] += 1
        return "dram", self.llc.latency + self.dram_latency

    def _prefetch_fill(self, addr, core, placement, scope):
        l1 = self.l1[core]
        if addr in self.mlc[core] or (l1 is not None and addr in l1):
            return "dropped", 0
        line, level, _ = self._from_llc_or_dram(addr, 0)
        self._fill_mlc(core, line)
        self._dir_add(addr, core)
        self.counters["mlc_prefetch_fills"] += 1
        return level, 0

    def _invalidate(self, addr, core, placement, scope):
        dropped = self._drop_private(core, addr) is not None
        if dropped:
            self._dir_remove(addr, core)
            self.counters["self_invalidations"] += 1
        if scope == "all" and self.llc.pop(addr) is not None:
            self.counters["self_invalidations_llc"] += 1
        return ("invalidated" if dropped else "absent"), 0
