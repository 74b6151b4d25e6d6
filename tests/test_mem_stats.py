"""Unit tests for counters and event logs."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.stats import Counter, EventLog, StatsBundle, count_between
from repro.sim import units


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 4)
        assert c.get("x") == 5

    def test_unknown_is_zero(self):
        assert Counter().get("nope") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_snapshot_is_copy(self):
        c = Counter()
        c.add("a")
        snap = c.snapshot()
        snap["a"] = 99
        assert c.get("a") == 1

    def test_reset(self):
        c = Counter()
        c.add("a", 3)
        c.reset()
        assert c.get("a") == 0


class TestEventLog:
    def test_record_and_count(self):
        log = EventLog()
        log.record("wb", 10)
        log.record("wb", 20)
        assert log.count("wb") == 2
        assert log.count("other") == 0

    def test_count_between_half_open(self):
        log = EventLog()
        for t in (0, 10, 20, 30):
            log.record("wb", t)
        assert log.count_between("wb", 10, 30) == 2  # [10, 30)

    def test_rate_series_bins(self):
        log = EventLog()
        for t in (0, 5, 10, 15, 25):
            log.record("wb", t)
        series = log.rate_series("wb", bin_ticks=10, start=0, end=30)
        assert series == [(0, 2), (10, 2), (20, 1)]

    def test_rate_series_includes_empty_bins(self):
        log = EventLog()
        log.record("wb", 25)
        series = log.rate_series("wb", bin_ticks=10, start=0, end=30)
        assert series == [(0, 0), (10, 0), (20, 1)]

    def test_rate_series_invalid_bin(self):
        with pytest.raises(ValueError):
            EventLog().rate_series("wb", 0)

    def test_mtps_series_units(self):
        log = EventLog()
        # 10 events within one 10 us bin = 1 MTPS.
        for i in range(10):
            log.record("wb", units.microseconds(1) * i)
        series = log.mtps_series(
            "wb", units.microseconds(10), 0, units.microseconds(10)
        )
        assert len(series) == 1
        t_us, mtps = series[0]
        assert t_us == 0.0
        assert mtps == pytest.approx(1.0)

    def test_timestamps_copy(self):
        log = EventLog()
        log.record("wb", 1)
        ts = log.timestamps("wb")
        ts.append(99)
        assert list(log.timestamps("wb")) == [1]

    def test_timestamps_are_packed(self):
        log = EventLog()
        log.record("wb", 7)
        assert log.timestamps("wb") == array("q", [7])
        assert log.timestamps("never") == array("q")

    def test_first(self):
        log = EventLog()
        assert log.first("wb") is None
        log.record("wb", 30)
        log.record("wb", 40)
        assert log.first("wb") == 30


_TIMES = st.lists(st.integers(min_value=0, max_value=50), max_size=60).map(sorted)
_WINDOW = st.lists(st.integers(min_value=-10, max_value=60), min_size=2, max_size=2).map(
    sorted
)


class TestCountBetween:
    """``count_between`` against a brute-force count, on lists and arrays.

    Small values force duplicates; window bounds range outside the data.
    """

    @given(_TIMES, _WINDOW)
    def test_matches_brute_force(self, times, window):
        start, end = window
        expected = sum(1 for t in times if start <= t < end)
        assert count_between(times, start, end) == expected
        assert count_between(array("q", times), start, end) == expected

    def test_empty(self):
        assert count_between([], 0, 10) == 0
        assert count_between(array("q"), 0, 10) == 0


class TestStatsBundle:
    def test_bump_updates_counter_and_log(self):
        s = StatsBundle()
        s.bump("mlc_writebacks", 100)
        assert s.counters.get("mlc_writebacks") == 1
        assert s.events.count("mlc_writebacks") == 1

    def test_bump_without_log(self):
        s = StatsBundle()
        s.bump("x", 5, log=False)
        assert s.counters.get("x") == 1
        assert s.events.count("x") == 0

    def test_bump_amount(self):
        s = StatsBundle()
        s.bump("x", 5, amount=3)
        assert s.counters.get("x") == 3
        assert s.events.count("x") == 3

    def test_reset(self):
        s = StatsBundle()
        s.bump("x", 5)
        s.reset()
        assert s.counters.get("x") == 0
        assert s.events.count("x") == 0
