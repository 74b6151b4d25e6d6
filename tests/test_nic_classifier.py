"""Unit tests for the IDIO classifier (§V-A)."""

import pytest

from repro.net.packet import Packet
from repro.nic.classifier import (
    ClassifierConfig,
    IdioClassifier,
    gbps_to_bytes_per_interval,
)
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator, units


def make_classifier(threshold_gbps=10.0, num_cores=4):
    sim = Simulator()
    clf = IdioClassifier(
        sim,
        ClassifierConfig(rx_burst_threshold_gbps=threshold_gbps, num_cores=num_cores),
    )
    return sim, clf


class TestThreshold:
    def test_10gbps_threshold_is_1250_bytes_per_us(self):
        assert gbps_to_bytes_per_interval(10.0, units.microseconds(1)) == 1250

    def test_threshold_stored(self):
        _, clf = make_classifier(threshold_gbps=10.0)
        assert clf.threshold_bytes_per_interval == 1250


class TestBurstDetection:
    def test_edge_fires_on_crossing(self):
        sim, clf = make_classifier()
        assert not clf.observe_packet(Packet(size_bytes=1000), 0)
        assert clf.observe_packet(Packet(size_bytes=1000), 0)  # crosses 1250
        assert clf.bursts_detected == 1

    def test_no_repeat_edge_within_window(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=2000), 0)  # edge
        assert not clf.observe_packet(Packet(size_bytes=2000), 0)
        assert clf.bursts_detected == 1

    def test_sustained_burst_produces_single_edge(self):
        """Crossing every window (a long burst) must not re-notify."""
        sim, clf = make_classifier()
        interval = units.microseconds(1)
        for window in range(5):
            for _ in range(3):
                clf.observe_packet(Packet(size_bytes=1514), 0)
            sim.run(until=(window + 1) * interval)
        assert clf.bursts_detected == 1

    def test_quiet_window_rearms_detection(self):
        sim, clf = make_classifier()
        interval = units.microseconds(1)
        for _ in range(3):
            clf.observe_packet(Packet(size_bytes=1514), 0)
        # Two quiet windows.
        sim.run(until=3 * interval)
        for _ in range(3):
            clf.observe_packet(Packet(size_bytes=1514), 0)
        assert clf.bursts_detected == 2

    def test_counters_are_per_core(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=1300), 0)
        assert clf.bursts_detected == 1
        # Core 1's counter is independent.
        assert not clf.observe_packet(Packet(size_bytes=1000), 1)

    def test_counter_resets_each_interval(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=1000), 0)
        sim.run(until=units.microseconds(1))
        # Counter reset: another 1000 bytes does not cross.
        assert not clf.observe_packet(Packet(size_bytes=1000), 0)


class TestTagging:
    def test_first_line_is_header(self):
        _, clf = make_classifier()
        p = Packet(size_bytes=1514)
        tag0, tag1 = clf.tags_for_packet(p, 2, False)[:2]
        assert tag0.is_header and not tag1.is_header
        assert tag0.dest_core == 2

    def test_class1_packet_tagged_class1(self):
        _, clf = make_classifier()
        p = Packet(size_bytes=1514, app_class=1)
        tag = clf.tags_for_packet(p, 2, False)[5]
        assert tag.app_class == 1

    def test_burst_flag_propagated(self):
        _, clf = make_classifier()
        p = Packet()
        assert clf.tags_for_packet(p, 0, True)[0].is_burst
        assert not clf.tags_for_packet(p, 0, False)[0].is_burst

    @pytest.mark.parametrize("size", [64, 65, 1514])
    @pytest.mark.parametrize("burst", [False, True])
    @pytest.mark.parametrize("app_class", [0, 1])
    def test_per_packet_tags_equal_per_line_tags(self, size, burst, app_class):
        _, clf = make_classifier()
        p = Packet(size_bytes=size, app_class=app_class)
        tags = clf.tags_for_packet(p, 3, burst)
        # The per-line definition: header flag on line 0 only, class-1
        # packets carry no destination core.
        assert tags == [
            IdioTag(
                dest_core=3 if app_class == 0 else 0,
                app_class=app_class,
                is_header=(i == 0),
                is_burst=burst,
            )
            for i in range(p.num_lines)
        ]
        # One header object plus one body object shared by every body line.
        assert all(tag is tags[-1] for tag in tags[1:])

    def test_stop_halts_reset_task(self):
        sim, clf = make_classifier()
        clf.stop()
        sim.run(until=units.microseconds(10))  # must not loop forever
