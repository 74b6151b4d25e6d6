"""Unit tests for the non-inclusive LLC and snoop-filter directory."""

import pytest

from repro.mem.cache import CacheConfig
from repro.mem.line import DIRTY, IO, LINE_SIZE, NO_LINE
from repro.mem.llc import NonInclusiveLLC, SnoopFilterDirectory
from repro.mem.stats import StatsBundle


def make_llc(assoc=4, sets=4, ddio_ways=2, **kwargs):
    cfg = CacheConfig("llc", sets * assoc * LINE_SIZE, assoc, latency=1)
    return NonInclusiveLLC(cfg, StatsBundle(), ddio_ways=ddio_ways, **kwargs)


def addr_in_set(llc, set_idx, tag):
    return (tag * llc.data.num_sets + set_idx) * LINE_SIZE


class TestDirectory:
    def test_add_and_owners(self):
        d = SnoopFilterDirectory()
        d.add(0, 1)
        d.add(0, 2)
        assert d.owners(0) == {1, 2}
        assert 0 in d

    def test_remove_single_owner(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.add(64, 1)
        d.remove(64, 0)
        assert d.owners(64) == {1}

    def test_remove_last_owner_drops_entry(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.remove(64, 0)
        assert 64 not in d
        assert len(d) == 0

    def test_remove_whole_entry(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.add(64, 1)
        d.remove(64)
        assert 64 not in d

    def test_remove_unknown_is_noop(self):
        d = SnoopFilterDirectory()
        d.remove(128)  # must not raise

    def test_capacity_eviction_is_lru(self):
        d = SnoopFilterDirectory(capacity=2)
        d.add(0, 0)
        d.add(64, 0)
        d.add(0, 0)  # refresh
        evicted = d.add(128, 0)
        assert evicted == [(64, 0b1)]  # (addr, owner bitmask)
        assert 0 in d and 128 in d

    def test_unbounded_never_evicts(self):
        d = SnoopFilterDirectory()
        for i in range(1000):
            assert d.add(i * 64, 0) == []
        assert len(d) == 1000


class TestDDIOWayPartition:
    def test_io_fills_limited_to_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        now = 0
        # Three IO fills into a set with 2 DDIO ways: third evicts the first.
        a0, a1, a2 = (addr_in_set(llc, 0, t) for t in range(3))
        assert llc.fill_io(a0 | DIRTY, now) == NO_LINE
        assert llc.fill_io(a1 | DIRTY, now) == NO_LINE
        victim = llc.fill_io(a2 | DIRTY, now)
        assert victim == a0 | DIRTY | IO

    def test_io_fill_never_evicts_cpu_lines_outside_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        cpu_addr = addr_in_set(llc, 0, 10)
        llc.fill_cpu(cpu_addr, 0)
        for t in range(6):
            llc.fill_io(addr_in_set(llc, 0, t) | DIRTY, 0)
        assert cpu_addr in llc

    def test_cpu_fill_prefers_non_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        llc.fill_cpu(addr_in_set(llc, 0, 0), 0)
        way = llc.data.where[addr_in_set(llc, 0, 0)] % llc.data.assoc
        assert way >= llc.ddio_ways

    def test_cpu_fill_can_spill_into_ddio_ways_when_set_full(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        for t in range(3):
            llc.fill_cpu(addr_in_set(llc, 0, t), 0)
        # Ways 2,3 full; third CPU line went into a DDIO way.
        ways = {llc.data.where[addr_in_set(llc, 0, t)] % llc.data.assoc for t in range(3)}
        assert ways & {0, 1}

    def test_invalid_ddio_ways_rejected(self):
        with pytest.raises(ValueError):
            make_llc(assoc=4, ddio_ways=0)
        with pytest.raises(ValueError):
            make_llc(assoc=4, ddio_ways=5)

    def test_io_occupancy_counts_io_lines(self):
        llc = make_llc()
        llc.fill_io(0 | DIRTY, 0)
        llc.fill_cpu(64, 0)
        assert llc.io_occupancy() == 1


class TestCATMasks:
    def test_core_mask_restricts_fills(self):
        llc = make_llc(assoc=4, sets=1)
        llc.set_core_way_mask(0, [3])
        a0, a1 = addr_in_set(llc, 0, 0), addr_in_set(llc, 0, 1)
        llc.fill_cpu(a0, 0, core=0)
        victim = llc.fill_cpu(a1, 0, core=0)
        assert victim == a0

    def test_unmasked_core_uses_full_order(self):
        llc = make_llc(assoc=4, sets=1)
        llc.set_core_way_mask(0, [3])
        # Core 1 has no mask: it can use the other ways freely.
        for t in range(3):
            assert llc.fill_cpu(addr_in_set(llc, 0, t), 0, core=1) == NO_LINE

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            make_llc().set_core_way_mask(0, [])

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ValueError):
            make_llc(assoc=4).set_core_way_mask(0, [4])


class TestUpdateInPlace:
    def test_existing_line_updated_not_reallocated(self):
        llc = make_llc(assoc=4, sets=1)
        addr = addr_in_set(llc, 0, 0)
        llc.fill_cpu(addr, 0)  # lands in a non-DDIO way
        slot_before = llc.data.where[addr]
        llc.fill_io(addr | DIRTY, 0)  # in-place update
        assert llc.data.where[addr] == slot_before
        assert llc.peek(addr) == addr | DIRTY | IO
