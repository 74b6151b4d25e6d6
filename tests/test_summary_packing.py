"""Packed summary streams and the streamed fingerprint digest.

``ExperimentSummary.event_streams`` holds ``array('q')`` values, and
``fingerprint_digest`` hashes ``fingerprint_text()`` chunk by chunk.  The
digest is only trustworthy if those chunks spell ``repr(fingerprint())``
exactly, so that is pinned here on real runs of every summary shape and on
synthetic summaries built around the renderer's edge cases (empty and
one-element tuples, chunk boundaries, ``None`` fields, non-finite floats).
"""

import hashlib
import os
import pickle
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import fingerprint_digest
from repro.cache import ResultCache, set_default_cache
from repro.core.policies import idio, ioca
from repro.faults import standard_plan
from repro.harness import runner
from repro.harness.experiment import (
    _TEXT_CHUNK,
    SUMMARY_STREAMS,
    Experiment,
    ExperimentSummary,
    _fingerprint_text,
)
from repro.harness.metrics import WindowStats
from repro.harness.runner import (
    get_pool,
    run_experiment_summary,
    run_experiments,
    shutdown_pool,
)
from repro.harness.server import ServerConfig
from repro.tenants.scenarios import tenant_experiment, tenant_mix


def _quick(name, **server):
    return Experiment(
        name=name,
        server=ServerConfig(app="touchdrop", ring_size=128, **server),
        traffic="bursty",
        burst_rate_gbps=50.0,
    )


QUICK_EXPERIMENTS = {
    "bursty": _quick("pack-bursty", policy=idio()),
    "tenanted": tenant_experiment(
        tenant_mix("noisy-neighbor", tenants=2), ioca(), "pack-tenanted",
        duration_us=50.0,
    ),
    "faulted": _quick("pack-faulted", fault_plan=standard_plan("all", seed=1)),
    "corun": _quick("pack-corun", antagonist=True),
}


@pytest.fixture(scope="module")
def quick_summaries():
    return {
        kind: run_experiment_summary(exp) for kind, exp in QUICK_EXPERIMENTS.items()
    }


def _assert_digest_hashes_repr(summary):
    """The chunks spell ``repr(fingerprint())`` and the digest hashes it.

    Reports the first divergence itself: pytest's diff of two multi-MB
    strings would take minutes.
    """
    text, expected = "".join(summary.fingerprint_text()), repr(summary.fingerprint())
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(
            f"fingerprint_text() diverges from repr at {at}: "
            f"{text[near]!r} != {expected[near]!r}"
        )
    expected_digest = hashlib.sha256(expected.encode("utf-8")).hexdigest()
    assert fingerprint_digest(summary) == expected_digest


def _assert_packed(summary):
    assert set(summary.event_streams) == set(SUMMARY_STREAMS)
    for stream in summary.event_streams.values():
        assert isinstance(stream, array) and stream.typecode == "q"


class TestQuickSummaries:
    @pytest.mark.parametrize("kind", sorted(QUICK_EXPERIMENTS))
    def test_text_is_repr_and_digest_is_its_hash(self, quick_summaries, kind):
        _assert_packed(quick_summaries[kind])
        _assert_digest_hashes_repr(quick_summaries[kind])

    def test_shapes_are_exercised(self, quick_summaries):
        """Each fixture covers the shape it is named for."""
        assert quick_summaries["tenanted"].tenant_stats
        assert quick_summaries["faulted"].fault_counts
        assert quick_summaries["corun"].antagonist_access_ns is not None
        assert len(quick_summaries["bursty"].event_streams["pcie_writes"]) > _TEXT_CHUNK

    def test_digest_memory_is_bounded(self, quick_summaries):
        """Digesting 500k timestamps never materialises them; hashing
        ``repr(fingerprint())`` whole allocates ~30 MB here."""
        per_stream = 500_000 // len(SUMMARY_STREAMS) + 1
        summary = replace(
            quick_summaries["bursty"],
            event_streams={
                stream: array("q", range(10**9, 10**9 + per_stream))
                for stream in SUMMARY_STREAMS
            },
        )
        tracemalloc.start()
        try:
            fingerprint_digest(summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_fingerprint_stays_hashable_and_picklable(self, quick_summaries):
        summary = quick_summaries["bursty"]
        fingerprint = summary.fingerprint()
        hash(fingerprint)
        assert pickle.loads(pickle.dumps(fingerprint)) == fingerprint
        clone = pickle.loads(pickle.dumps(summary))
        _assert_packed(clone)
        assert clone.fingerprint() == fingerprint


# -- synthetic summaries ------------------------------------------------

_EDGE_LENGTHS = (0, 1, 2, _TEXT_CHUNK - 1, _TEXT_CHUNK, _TEXT_CHUNK + 1, 2 * _TEXT_CHUNK)
_LENGTHS = st.sampled_from(_EDGE_LENGTHS) | st.integers(min_value=0, max_value=20)
_INT64 = st.integers(min_value=-(2**40), max_value=2**40)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SMALL_INTS = st.integers(min_value=0, max_value=10**9)


@st.composite
def _packed_stream(draw):
    """An int64 array of an edge-case length (a cheap arithmetic run)."""
    length, base, step = draw(_LENGTHS), draw(_INT64), draw(_INT64)
    return array("q", (base + i * step for i in range(length)))


@st.composite
def _float_list(draw):
    length, value = draw(_LENGTHS), draw(_FLOATS)
    return [value * i for i in range(length)]


@st.composite
def _summaries(draw):
    window = WindowStats(*draw(st.lists(_SMALL_INTS, min_size=8, max_size=8)))
    counter_names = st.sampled_from(["dram_writes", "mlc_writebacks", "x"])
    return ExperimentSummary(
        experiment=Experiment(),
        policy_name=draw(st.sampled_from(["ddio", "idio", ""])),
        window=window,
        offered_packets=draw(_SMALL_INTS),
        rx_packets=draw(_SMALL_INTS),
        rx_drops=draw(_SMALL_INTS),
        completed=draw(_SMALL_INTS),
        tx_packets=draw(_SMALL_INTS),
        burst_processing_time=draw(st.none() | _SMALL_INTS),
        latencies_ns=draw(_float_list()),
        antagonist_access_ns=draw(st.none() | _FLOATS),
        antagonist_accesses=draw(_SMALL_INTS),
        decisions=draw(st.dictionaries(counter_names, _SMALL_INTS)),
        counters=draw(st.dictionaries(counter_names, _SMALL_INTS)),
        event_streams={
            stream: draw(_packed_stream())
            for stream in draw(st.lists(st.sampled_from(SUMMARY_STREAMS), unique=True))
        },
        latency_breakdown=draw(st.dictionaries(counter_names, _FLOATS)),
        core_mem_accesses=draw(st.lists(_SMALL_INTS, max_size=3)),
        per_core_mean_latency_us=draw(st.lists(_FLOATS, max_size=3)),
        bursts_detected=draw(_SMALL_INTS),
        headers_steered=draw(_SMALL_INTS),
        events_fired=0,
        wall_seconds=0.0,
        events_per_second=0.0,
        fault_counts=draw(st.dictionaries(counter_names, _SMALL_INTS)),
        tenant_stats=draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=3),
                st.dictionaries(st.sampled_from(["p99_us", "completed"]), _FLOATS),
                max_size=2,
            )
        ),
    )


class TestSyntheticSummaries:
    @settings(max_examples=60, deadline=None)
    @given(_summaries())
    def test_text_is_repr_and_digest_is_its_hash(self, summary):
        _assert_digest_hashes_repr(summary)

    def test_one_element_tuples_keep_their_comma(self):
        assert "".join(_fingerprint_text(array("q", [5]))) == "(5,)"
        assert "".join(_fingerprint_text(array("q"))) == "()"
        assert "".join(_fingerprint_text({"k": [1.5]})) == "(('k', (1.5,)),)"


# -- every path hands out packed streams --------------------------------


class TestSummaryPaths:
    @pytest.fixture(autouse=True)
    def _no_ambient_cache(self):
        previous = set_default_cache(None)
        yield
        set_default_cache(previous)

    def test_pool_serial_and_cache_agree(self, tmp_path):
        shutdown_pool()
        if get_pool(2) is None:
            pytest.skip("host cannot create process pools")
        exps = [_quick(f"pack-path{i}", policy=idio()) for i in range(2)]
        try:
            pooled = run_experiments(exps, jobs=2)
            assert runner.last_dispatch["mode"] == "warm-pool"
        finally:
            shutdown_pool()
        serial = run_experiments(exps[:1], jobs=1)
        assert runner.last_dispatch["mode"] == "serial"
        ResultCache(tmp_path).put(exps[0], serial[0])
        cached = ResultCache(tmp_path).get(exps[0])
        assert cached is not None
        for summary in (pooled[0], serial[0], cached):
            _assert_packed(summary)
        assert pooled[0].fingerprint() == serial[0].fingerprint() == cached.fingerprint()
        assert len({fingerprint_digest(s) for s in (pooled[0], serial[0], cached)}) == 1
