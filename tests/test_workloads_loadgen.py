"""Unit tests for load sweeps, knee detection, and load schedules."""

import math

import pytest

from repro.resources import default_server
from repro.workloads import (
    LoadSchedule,
    calibrate,
    capacity_qps,
    find_knee,
    isolated_shares,
    sweep_load,
)

from conftest import make_lc


class TestFindKnee:
    def test_sharp_elbow_found(self):
        x = list(range(11))
        y = [1.0] * 8 + [5.0, 20.0, 100.0]
        knee = find_knee(x, y)
        assert 7 <= knee <= 9

    def test_ignores_infinite_points(self):
        x = list(range(10))
        y = [1, 1, 1, 1, 2, 4, 10, 40, float("inf"), float("inf")]
        knee = find_knee(x, y)
        assert knee <= 7

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            find_knee([1, 2], [1, 2])

    def test_flat_curve_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            find_knee([1, 2, 3], [5.0, 5.0, 5.0])

    def test_linear_curve_knee_anywhere_valid(self):
        # A straight line has no distinguished knee; just require a
        # valid index rather than a particular one.
        knee = find_knee([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        assert 0 <= knee <= 3


class TestSweepLoad:
    def test_sweep_shape(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        sweep = sweep_load(lc, server, points=40)
        assert len(sweep.qps) == 40
        assert len(sweep.p95_ms) == 40
        assert all(math.isfinite(v) for v in sweep.p95_ms)

    def test_latencies_monotone(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        sweep = sweep_load(lc, server, points=40)
        assert list(sweep.p95_ms) == sorted(sweep.p95_ms)

    def test_knee_below_saturation(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        sweep = sweep_load(lc, server)
        cores = server.resource("cores").units
        saturation = capacity_qps(lc, cores, isolated_shares(server))
        assert 0.3 * saturation < sweep.knee_qps < saturation

    def test_latency_ceiling_respected(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        sweep = sweep_load(lc, server, latency_ceiling=8.0)
        assert sweep.p95_ms[-1] <= 8.0 * sweep.p95_ms[0] * 1.5

    def test_rows_pairs(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        sweep = sweep_load(lc, server, points=10)
        rows = sweep.rows()
        assert len(rows) == 10
        assert rows[0] == (sweep.qps[0], sweep.p95_ms[0])

    def test_invalid_arguments(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        with pytest.raises(ValueError):
            sweep_load(lc, server, points=2)
        with pytest.raises(ValueError):
            sweep_load(lc, server, latency_ceiling=1.0)


class TestCalibrate:
    def test_calibrate_fills_targets(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        done = calibrate(lc, server)
        assert done.is_calibrated()
        assert done.qos_latency_ms > 0
        assert done.max_qps > 0

    def test_qos_slack_scales_target(self, server):
        lc = make_lc(qos_latency_ms=None, max_qps=None)
        tight = calibrate(lc, server, qos_slack=1.0)
        loose = calibrate(lc, server, qos_slack=2.0)
        assert loose.qos_latency_ms == pytest.approx(2 * tight.qos_latency_ms)
        assert loose.max_qps == pytest.approx(tight.max_qps)


class TestLoadSchedule:
    def test_constant(self):
        schedule = LoadSchedule.constant(0.4)
        assert schedule.load_at(0) == 0.4
        assert schedule.load_at(1e6) == 0.4

    def test_steps(self):
        schedule = LoadSchedule.steps([(0, 0.1), (10, 0.2), (20, 0.3)])
        assert schedule.load_at(0) == 0.1
        assert schedule.load_at(9.99) == 0.1
        assert schedule.load_at(10) == 0.2
        assert schedule.load_at(25) == 0.3

    def test_boundary_is_inclusive(self):
        schedule = LoadSchedule.steps([(0, 0.1), (5, 0.9)])
        assert schedule.load_at(5.0) == 0.9

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at t=0"):
            LoadSchedule.steps([(1, 0.1)])

    def test_strictly_increasing_starts(self):
        with pytest.raises(ValueError):
            LoadSchedule.steps([(0, 0.1), (5, 0.2), (5, 0.3)])
        with pytest.raises(ValueError):
            LoadSchedule.steps([(0, 0.1), (5, 0.2), (3, 0.3)])

    @pytest.mark.parametrize("start", [math.nan, math.inf])
    def test_non_finite_phase_start_rejected(self, start):
        """A NaN start passed the ``< 0`` check and scrambled the
        ordering check: ``load_at(0)`` read the NaN phase's load."""
        with pytest.raises(ValueError, match="finite"):
            LoadSchedule.steps([(0, 0.3), (start, 0.9), (50, 0.6)])

    def test_negative_time_rejected(self):
        schedule = LoadSchedule.constant(0.5)
        with pytest.raises(ValueError):
            schedule.load_at(-1.0)

    def test_load_fraction_bounds(self):
        with pytest.raises(ValueError):
            LoadSchedule.steps([(0, 2.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadSchedule(())
