"""Property tests: the optimized LRU victim scan matches the reference.

``LRUPolicy`` replaced the original dict + ``min()`` formulation with a
flat-list comparison loop (the victim scan is the hottest call in every
cache fill).  ``ReferenceLRUPolicy`` preserves the original semantics —
including the tie-break toward the *first* eligible way among
never-touched ways — so hypothesis drives both with identical random
traces (accesses, evictions, and way-mask-restricted fills) and requires
identical victim choices throughout.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.line import LINE_SIZE, CacheLine
from repro.mem.replacement import LRUPolicy, ReferenceLRUPolicy


def geometry():
    return st.tuples(
        st.sampled_from([1, 2, 4, 8]),   # num_sets
        st.sampled_from([2, 4, 8, 12]),  # assoc
    )


@st.composite
def policy_traces(draw):
    """A (geometry, ops) pair; ops mix accesses, evictions, and fills."""
    num_sets, assoc = draw(geometry())
    ways = list(range(assoc))
    op = st.one_of(
        st.tuples(
            st.just("access"),
            st.integers(0, num_sets - 1),
            st.sampled_from(ways),
        ),
        st.tuples(
            st.just("evict"),
            st.integers(0, num_sets - 1),
            st.sampled_from(ways),
        ),
        st.tuples(
            st.just("fill"),
            st.integers(0, num_sets - 1),
            # Way-mask-restricted fill: victim among a non-empty subset,
            # mirroring DDIO-way and CAT-mask restricted inserts.
            st.lists(st.sampled_from(ways), min_size=1, max_size=assoc, unique=True),
        ),
    )
    return num_sets, assoc, draw(st.lists(op, min_size=1, max_size=200))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy_traces())
def test_lru_matches_reference_on_random_traces(trace):
    num_sets, assoc, ops = trace
    fast = LRUPolicy(num_sets, assoc)
    ref = ReferenceLRUPolicy(num_sets, assoc)
    for op in ops:
        if op[0] == "access":
            _, set_idx, way = op
            fast.on_access(set_idx, way)
            ref.on_access(set_idx, way)
        elif op[0] == "evict":
            _, set_idx, way = op
            fast.on_evict(set_idx, way)
            ref.on_evict(set_idx, way)
        else:
            _, set_idx, eligible = op
            chosen = fast.victim(set_idx, eligible)
            assert chosen == ref.victim(set_idx, eligible)
            # A fill evicts the victim and touches the new occupant.
            for policy in (fast, ref):
                policy.on_evict(set_idx, chosen)
                policy.on_access(set_idx, chosen)


@st.composite
def cache_traces(draw):
    """Random line-address insert/lookup traces, with optional way masks."""
    sets = draw(st.sampled_from([2, 4]))
    assoc = draw(st.sampled_from([4, 8]))
    # Addresses covering ~4x the cache capacity force evictions.
    addr = st.integers(0, 4 * sets * assoc - 1).map(lambda i: i * LINE_SIZE)
    mask = st.one_of(
        st.none(),
        st.lists(
            st.integers(0, assoc - 1), min_size=1, max_size=assoc, unique=True
        ),
    )
    op = st.one_of(
        st.tuples(st.just("insert"), addr, mask),
        st.tuples(st.just("lookup"), addr, st.none()),
    )
    return sets, assoc, draw(st.lists(op, min_size=1, max_size=150))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cache_traces())
def test_cache_evictions_identical_under_lru_and_reference(trace):
    sets, assoc, ops = trace

    def build(replacement):
        return SetAssociativeCache(
            CacheConfig(
                name=replacement,
                size_bytes=sets * assoc * LINE_SIZE,
                assoc=assoc,
                latency=1,
                replacement=replacement,
            )
        )

    fast, ref = build("lru"), build("lru-ref")
    for kind, addr, mask in ops:
        if kind == "insert":
            ev_fast = fast.insert(CacheLine(addr, dirty=True), way_mask=mask)
            ev_ref = ref.insert(CacheLine(addr, dirty=True), way_mask=mask)
            assert (ev_fast.addr if ev_fast else None) == (
                ev_ref.addr if ev_ref else None
            )
        else:
            hit_fast = fast.lookup(addr)
            hit_ref = ref.lookup(addr)
            assert (hit_fast is None) == (hit_ref is None)


def test_replacement_knob_reaches_every_level():
    from repro.harness.server import ServerConfig, SimulatedServer

    server = SimulatedServer(
        ServerConfig(app="touchdrop", ring_size=128, replacement="lru-ref")
    )
    hierarchy = server.hierarchy
    assert hierarchy.llc.config.replacement == "lru-ref"
    assert all(c.config.replacement == "lru-ref" for c in hierarchy.mlc)
    assert all(
        c.config.replacement == "lru-ref" for c in hierarchy.l1 if c is not None
    )
    # The cache's fused LRU fast path must disengage for non-default
    # policies (it is keyed to the exact LRUPolicy type).
    assert hierarchy.llc.data._lru_rows is None
