"""Unit tests for the root complex and its steering hook."""

from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.transaction import MemoryTransaction
from repro.pcie.root_complex import RootComplex
from repro.pcie.tlp import IdioTag, MemReadTLP, MemWriteTLP
from repro.sim import Simulator


def make_rc(hook=None):
    sim = Simulator()
    hierarchy = MemoryHierarchy(HierarchyConfig(num_cores=2, l1_enabled=False))
    return sim, hierarchy, RootComplex(sim, hierarchy, hook)


class TestBaseline:
    def test_write_lands_in_llc_by_default(self):
        sim, h, rc = make_rc()
        rc.memory_write(MemWriteTLP(address=0x1000, tag=IdioTag()))
        assert 0x1000 in h.llc

    def test_read_counts(self):
        sim, h, rc = make_rc()
        rc.memory_read(MemReadTLP(address=0x1000))
        assert h.stats.counters.get("pcie_reads") == 1


class TestSteeringHook:
    def test_hook_receives_decoded_tag(self):
        seen = []

        def hook(tag, addr, now):
            seen.append((tag, addr))
            return "llc"

        sim, h, rc = make_rc(hook)
        tag = IdioTag(dest_core=3, is_header=True)
        rc.memory_write(MemWriteTLP(address=0x2000, tag=tag))
        assert seen == [(tag, 0x2000)]

    def test_hook_tag_roundtrips_through_tlp_bits(self):
        """The hook must see the tag after a real encode/decode cycle."""
        seen = []

        def hook(tag, addr, now):
            seen.append(tag)
            return "llc"

        sim, h, rc = make_rc(hook)
        original = IdioTag(dest_core=42, is_header=False, is_burst=True)
        rc.memory_write(MemWriteTLP(address=0x3000, tag=original))
        assert seen[0] == original

    def test_hook_dram_placement_respected(self):
        sim, h, rc = make_rc(lambda tag, addr, now: "dram")
        rc.memory_write(MemWriteTLP(address=0x4000, tag=IdioTag()))
        assert 0x4000 not in h.llc
        assert h.dram.writes == 1

    def test_attach_controller_replaces_hook(self):
        sim, h, rc = make_rc()
        rc.attach_controller(lambda tag, addr, now: "dram")
        rc.memory_write(MemWriteTLP(address=0x5000, tag=IdioTag()))
        assert h.dram.writes == 1


class TestBatch:
    def test_shared_tag_objects_steer_like_distinct_ones(self):
        """A batch whose body lines share one tag object is steered
        exactly like one with a fresh (equal) tag per line, on both the
        scratch path and the transaction-retaining path."""
        header = IdioTag(dest_core=1, is_header=True, is_burst=True)
        body = IdioTag(dest_core=1, is_burst=True)
        addrs = [0x8000 + 64 * i for i in range(6)]
        shared = [header] + [body] * 5
        fresh = [IdioTag(1, 0, i == 0, True) for i in range(6)]
        for retained in (False, True):
            runs = []
            for tags in (shared, fresh):
                seen = []

                def hook(tag, addr, now):
                    seen.append((tag, addr))
                    return "dram" if tag.is_header else "llc"

                sim, h, rc = make_rc(hook)
                if retained:
                    h.bus.subscribe(MemoryTransaction, lambda txn: None)
                rc.memory_write_batch(addrs, tags)
                runs.append((seen, h.stats.counters.snapshot()))
            assert runs[0] == runs[1]
            seen, counters = runs[0]
            assert seen == list(zip(fresh, addrs))
            assert counters["direct_dram_writes"] == 1
            assert counters["ddio_allocations"] == 5
