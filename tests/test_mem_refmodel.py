"""Differential test: the memory hierarchy against the reference model.

``tests/refmodel.py`` restates the hierarchy's data paths with plain
dicts and sets.  Hypothesis drives both with the same mixed streams of
all six transaction kinds, DDIO way changes, per-core CAT masks and
per-tenant I/O masks, and after every step requires the same serving
level, latency and counters, the same resident ``(addr, dirty, io)``
lines in every cache level, and the same directory owners.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import DIRTY, IO, _LINE_MASK
from repro.mem.transaction import KINDS, MemoryTransaction
from tests.refmodel import LINE, RefHierarchy

CORES = 3
LLC_SETS, LLC_WAYS = 8, 6
#: Tenant 0 owns the low half of the address pool, tenant 1 the high half.
POOL_LINES = 64
TENANT_RANGES = [(0, 32 * LINE, 0), (32 * LINE, 64 * LINE, 1)]

transaction = st.tuples(
    st.just("txn"),
    st.sampled_from(KINDS),
    st.integers(0, POOL_LINES - 1),
    st.integers(0, CORES - 1),
    st.sampled_from(["llc", "llc", "dram"]),
    st.sampled_from(["all", "private"]),
)
knob = st.one_of(
    st.tuples(st.just("ddio"), st.integers(1, LLC_WAYS)),
    st.tuples(
        st.just("cat"),
        st.integers(0, CORES - 1),
        st.lists(st.integers(0, LLC_WAYS - 1), min_size=1, max_size=3),
    ),
    st.tuples(
        st.just("tenant"),
        st.integers(0, 1),
        st.lists(st.integers(0, LLC_WAYS - 1), min_size=1, max_size=2),
    ),
)
stream = st.lists(
    st.one_of(transaction, transaction, transaction, knob), min_size=40, max_size=160
)


def make_config(l1, inclusive, directory_capacity):
    return HierarchyConfig(
        num_cores=CORES,
        l1_enabled=l1,
        l1=CacheConfig("l1d", 1 * 2 * LINE, 2, 1),
        mlc=CacheConfig("mlc", 2 * 2 * LINE, 2, 5),
        llc=CacheConfig("llc", LLC_SETS * LLC_WAYS * LINE, LLC_WAYS, 11),
        ddio_ways=2,
        llc_inclusive=inclusive,
        directory_capacity=directory_capacity,
    )


def resident(cache):
    return {(w & _LINE_MASK, bool(w & DIRTY), bool(w & IO)) for w in cache.lines()}


def assert_same_state(h, ref):
    assert resident(h.llc.data) == ref.llc.resident()
    for core in range(CORES):
        assert resident(h.mlc[core].data) == ref.mlc[core].resident()
        if h.l1[core] is not None:
            assert resident(h.l1[core].data) == ref.l1[core].resident()
    fast_dir = {addr: h.llc.directory.owners(addr) for addr in h.llc.directory.masks}
    assert fast_dir == dict(ref.directory)
    assert list(h.llc.directory.masks) == list(ref.directory)  # same LRU order
    counters = {k: v for k, v in h.stats.counters.snapshot().items() if v}
    assert counters == dict(ref.counters)


def apply(h, ref, op):
    if op[0] == "ddio":
        h.llc.set_ddio_ways(op[1])
        ref.set_ddio_ways(op[1])
    elif op[0] == "cat":
        h.llc.set_core_way_mask(op[1], op[2])
        ref.set_core_way_mask(op[1], op[2])
    elif op[0] == "tenant":
        try:
            h.llc.set_tenant_io_ways(op[1], op[2])
        except ValueError:  # ways outside the current DDIO partition
            return
        ref.set_tenant_io_ways(op[1], op[2])
    else:
        _, kind, line, core, placement, scope = op
        addr = line * LINE
        txn = MemoryTransaction(kind, addr, 0, core=core, placement=placement, scope=scope)
        h.access(txn)
        assert (txn.level, txn.latency) == ref.access(kind, addr, core, placement, scope)


def run_differential(ops, l1, inclusive, directory_capacity):
    config = make_config(l1, inclusive, directory_capacity)
    h = MemoryHierarchy(config)
    ref = RefHierarchy(config)
    h.set_tenant_ranges(TENANT_RANGES)
    ref.set_tenant_ranges(TENANT_RANGES)
    for op in ops:
        apply(h, ref, op)
        assert_same_state(h, ref)


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(stream, st.booleans())
def test_non_inclusive_matches_reference(ops, l1):
    run_differential(ops, l1, inclusive=False, directory_capacity=None)


@SETTINGS
@given(stream, st.booleans())
def test_inclusive_matches_reference(ops, l1):
    run_differential(ops, l1, inclusive=True, directory_capacity=None)


@SETTINGS
@given(stream, st.booleans(), st.booleans())
def test_bounded_directory_matches_reference(ops, l1, inclusive):
    run_differential(ops, l1, inclusive=inclusive, directory_capacity=5)


def test_reference_model_sees_the_paper_paths():
    """The oracle is not vacuous: a DDIO write-allocate, its demand
    migration, a dirty MLC writeback and a self-invalidation all occur."""
    config = make_config(l1=True, inclusive=False, directory_capacity=None)
    ref = RefHierarchy(config)
    assert ref.access("dma-write", 0) == ("llc", 11)
    assert ref.llc.resident() == {(0, True, True)}
    assert ref.access("cpu-load", 0, core=1) == ("llc", 1 + 5 + 11)
    assert ref.mlc[1].resident() == {(0, True, True)} and not ref.llc.resident()
    for line in range(1, 5):  # conflict the 2-set, 2-way MLC out
        ref.access("cpu-store", 2 * line * LINE, core=1)
    assert ref.counters["mlc_writebacks_dirty"] >= 1
    assert ref.access("invalidate", 2 * 4 * LINE, core=1) == ("invalidated", 0)
