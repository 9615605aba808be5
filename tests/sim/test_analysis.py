"""Unit tests for schedule traffic analysis."""

import pytest

from repro.core import map_fft
from repro.networks import Hypercube, Hypermesh2D, Mesh2D
from repro.routing import Permutation
from repro.sim import (
    bisection_crossings,
    channel_utilization,
    route_permutation,
    traffic_summary,
)
from repro.sim.schedule import CommSchedule


class TestBisectionCrossings:
    def test_top_bit_exchange_crosses_fully(self):
        # The first DIF stage flips the MSB: every move crosses the cut.
        mapping = map_fft(Hypercube(4))
        crossings = bisection_crossings(mapping.stage_schedules[0])
        assert crossings == [16]

    def test_low_bit_exchange_never_crosses(self):
        mapping = map_fft(Hypercube(4))
        crossings = bisection_crossings(mapping.stage_schedules[-1])
        assert crossings == [0]

    def test_hypermesh_butterflies_same_pattern(self):
        mapping = map_fft(Hypermesh2D(4))
        first = bisection_crossings(mapping.stage_schedules[0])
        last = bisection_crossings(mapping.stage_schedules[-1])
        assert sum(first) == 16
        assert sum(last) == 0

    def test_empty_schedule(self):
        sched = CommSchedule(Hypercube(3), Permutation.identity(8), ())
        assert bisection_crossings(sched) == []


class TestChannelUtilization:
    def test_hypercube_exchange_uses_every_dim_link_once(self):
        mapping = map_fft(Hypercube(3))
        usage = channel_utilization(mapping.stage_schedules[0])
        assert len(usage) == 8  # every directed dim-2 link used once
        assert set(usage.values()) == {1}

    def test_mesh_shift_link_loads(self):
        mapping = map_fft(Mesh2D(4))
        # Distance-2 stage: interior vertical links carry two packets.
        sched = mapping.stage_schedules[0]
        usage = channel_utilization(sched)
        assert max(usage.values()) == 2

    def test_hypermesh_ports_tracked(self):
        mapping = map_fft(Hypermesh2D(4))
        usage = channel_utilization(mapping.stage_schedules[0])
        # Every node injects once into its column net.
        assert len(usage) == 16
        assert set(usage.values()) == {1}


class TestSummary:
    def test_crossing_fraction(self):
        mapping = map_fft(Hypercube(4))
        ts = traffic_summary(mapping.stage_schedules[0])
        assert ts.crossing_fraction == 1.0
        ts_last = traffic_summary(mapping.stage_schedules[-1])
        assert ts_last.crossing_fraction == 0.0

    def test_zero_move_schedule(self):
        sched = CommSchedule(Hypercube(2), Permutation.identity(4), ())
        ts = traffic_summary(sched)
        assert ts.total_moves == 0
        assert ts.crossing_fraction == 0.0
        assert ts.busiest_channel_load == 0

    def test_routed_bitrev_summary(self):
        from repro.routing import bit_reversal

        routed = route_permutation(Mesh2D(4), bit_reversal(16))
        ts = traffic_summary(routed.schedule)
        assert ts.steps == routed.stats.steps
        assert ts.total_moves == routed.stats.total_hops
        assert ts.bisection_crossings_total >= 8  # half the packets change halves

    def test_full_fft_crossing_totals_ordered(self):
        """Every network moves the same packet pattern across the bisector;
        the hypermesh just has more bandwidth there (Section V)."""
        totals = {}
        for topo in (Hypercube(4), Hypermesh2D(4)):
            mapping = map_fft(topo)
            total = sum(
                sum(bisection_crossings(s)) for s in mapping.stage_schedules
            )
            totals[type(topo).__name__] = total
        # Identical butterfly crossing demand on both networks.
        assert totals["Hypercube"] == totals["Hypermesh2D"]

    def test_64_point_fft_crossing_fractions(self):
        """'every Butterfly permutation causes transfers over a network
        bisector' for the top bit; the last stage never crosses."""
        for topo in (Hypercube(6), Hypermesh2D(8)):
            stages = map_fft(topo).stage_schedules
            fractions = [traffic_summary(s).crossing_fraction for s in stages]
            assert fractions[0] == 1.0
            assert fractions[-1] == 0.0

    def test_64_point_bit_reversal_crosses_with_many_packets(self):
        from repro.core import bit_reversal_schedule

        for topo in (Hypercube(6), Hypermesh2D(8), Mesh2D(8)):
            sched = bit_reversal_schedule(topo)
            assert sum(bisection_crossings(sched)) >= 24
