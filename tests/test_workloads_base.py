"""Unit and property tests for workload profiles and sensitivity curves."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import CORES, LLC_WAYS, MEMORY_BANDWIDTH
from repro.workloads import (
    BGWorkload,
    LCWorkload,
    ResourceProfile,
    SensitivityCurve,
)

from conftest import make_bg, make_lc


class TestSensitivityCurve:
    def test_full_share_gives_unity(self):
        curve = SensitivityCurve(weight=1.0, shape=3.0, floor=0.1)
        assert curve.utility(1.0) == pytest.approx(1.0)

    def test_zero_share_gives_floor(self):
        curve = SensitivityCurve(weight=1.0, shape=3.0, floor=0.1)
        assert curve.utility(0.0) == pytest.approx(0.1)

    def test_monotone_increasing(self):
        curve = SensitivityCurve(weight=1.0, shape=2.0, floor=0.05)
        values = [curve.utility(s / 10) for s in range(11)]
        assert values == sorted(values)

    def test_shares_clamped(self):
        curve = SensitivityCurve()
        assert curve.utility(-0.5) == curve.utility(0.0)
        assert curve.utility(1.5) == curve.utility(1.0)

    def test_higher_shape_saturates_faster(self):
        gentle = SensitivityCurve(shape=1.0, floor=0.0)
        steep = SensitivityCurve(shape=8.0, floor=0.0)
        assert steep.utility(0.3) > gentle.utility(0.3)

    def test_zero_weight_contribution_is_one(self):
        curve = SensitivityCurve(weight=0.0)
        assert curve.contribution(0.1) == pytest.approx(1.0)

    def test_contribution_raises_utility_to_weight(self):
        curve = SensitivityCurve(weight=2.0, shape=3.0, floor=0.2)
        assert curve.contribution(0.5) == pytest.approx(curve.utility(0.5) ** 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": -0.1},
            {"shape": 0.0},
            {"shape": -1.0},
            {"floor": 1.0},
            {"floor": -0.1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SensitivityCurve(**kwargs)


class TestResourceProfile:
    def test_empty_profile_multiplier_is_one(self):
        assert ResourceProfile().multiplier({LLC_WAYS: 0.1}) == 1.0

    def test_missing_share_treated_as_full(self):
        profile = ResourceProfile({LLC_WAYS: SensitivityCurve()})
        assert profile.multiplier({}) == pytest.approx(1.0)

    def test_multiplier_multiplies_contributions(self):
        profile = ResourceProfile(
            {
                LLC_WAYS: SensitivityCurve(weight=1.0, shape=3.0, floor=0.2),
                MEMORY_BANDWIDTH: SensitivityCurve(weight=1.0, shape=3.0, floor=0.2),
            }
        )
        shares = {LLC_WAYS: 0.4, MEMORY_BANDWIDTH: 0.6}
        expected = profile.curves[LLC_WAYS].contribution(0.4) * profile.curves[
            MEMORY_BANDWIDTH
        ].contribution(0.6)
        assert profile.multiplier(shares) == pytest.approx(expected)

    def test_sensitivity_lookup(self):
        profile = ResourceProfile({LLC_WAYS: SensitivityCurve(weight=1.3)})
        assert profile.sensitivity(LLC_WAYS) == 1.3
        assert profile.sensitivity(CORES) == 0.0

    def test_irrelevant_resources_ignored(self):
        profile = ResourceProfile({LLC_WAYS: SensitivityCurve()})
        with_extra = profile.multiplier({LLC_WAYS: 0.5, "disk": 0.01})
        without = profile.multiplier({LLC_WAYS: 0.5})
        assert with_extra == without


class TestLCWorkload:
    def test_calibrated_roundtrip(self):
        raw = make_lc(qos_latency_ms=None, max_qps=None)
        assert not raw.is_calibrated()
        done = raw.calibrated(qos_latency_ms=5.0, max_qps=100.0)
        assert done.is_calibrated()
        assert done.qos_latency_ms == 5.0
        assert done.max_qps == 100.0

    def test_calibrated_rejects_nonpositive(self):
        raw = make_lc()
        with pytest.raises(ValueError):
            raw.calibrated(qos_latency_ms=0.0, max_qps=10.0)
        with pytest.raises(ValueError):
            raw.calibrated(qos_latency_ms=1.0, max_qps=-1.0)

    def test_invalid_service_rate(self):
        with pytest.raises(ValueError):
            make_lc(base_service_rate=0.0)

    def test_invalid_serial_fraction(self):
        with pytest.raises(ValueError):
            make_lc(serial_fraction=1.0)
        with pytest.raises(ValueError):
            make_lc(serial_fraction=-0.1)

    def test_min_cores_diagnostic(self):
        lc = make_lc(serial_fraction=0.5)
        assert lc.min_cores_for(1.0) == pytest.approx(1.0)
        lc0 = make_lc(serial_fraction=0.0, qos_latency_ms=1.0, max_qps=1.0)
        assert lc0.min_cores_for(2.0) == 2.0

    def test_non_core_multiplier_excludes_cores(self):
        lc = make_lc()
        with_cores = lc.non_core_multiplier({CORES: 0.01, LLC_WAYS: 0.5})
        without = lc.non_core_multiplier({LLC_WAYS: 0.5})
        assert with_cores == without


class TestBGWorkload:
    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            BGWorkload(
                name="x",
                description="",
                profile=ResourceProfile(),
                base_throughput=0.0,
            )

    def test_make_bg_fixture_valid(self):
        bg = make_bg()
        assert bg.base_throughput > 0
        assert bg.core_curve.weight == 1.0


@given(
    weight=st.floats(0.0, 3.0, allow_nan=False),
    shape=st.floats(0.1, 10.0, allow_nan=False),
    floor=st.floats(0.0, 0.9, allow_nan=False),
    s1=st.floats(0.0, 1.0, allow_nan=False),
    s2=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_curve_contribution_monotone_and_bounded(weight, shape, floor, s1, s2):
    curve = SensitivityCurve(weight=weight, shape=shape, floor=floor)
    lo, hi = sorted((s1, s2))
    assert curve.contribution(lo) <= curve.contribution(hi) + 1e-12
    assert 0.0 <= curve.contribution(s1) <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# The cached curve denominator and the unfiltered core-free multiplier,
# each against the expression it replaced, bit for bit.
# ----------------------------------------------------------------------
def _reference_utility(curve, share):
    share = min(max(share, 0.0), 1.0)
    rise = (1.0 - math.exp(-curve.shape * share)) / (1.0 - math.exp(-curve.shape))
    return curve.floor + (1.0 - curve.floor) * rise


def _reference_non_core_multiplier(workload, shares):
    filtered = {k: v for k, v in shares.items() if k != CORES}
    result = 1.0
    for name, curve in workload.profile.curves.items():
        result *= _reference_utility(curve, filtered.get(name, 1.0)) ** curve.weight
    return result


def _catalog_workloads():
    from dataclasses import replace

    from repro.workloads.parsec import BG_NAMES, bg_workload
    from repro.workloads.tailbench import LC_NAMES, lc_workload

    with_cores = replace(
        make_lc("cores-curve"),
        profile=ResourceProfile(
            {
                LLC_WAYS: SensitivityCurve(weight=0.8, shape=2.5, floor=0.1),
                CORES: SensitivityCurve(weight=1.3, shape=0.7, floor=0.07),
                MEMORY_BANDWIDTH: SensitivityCurve(weight=0.4, shape=5.0),
            }
        ),
    )
    return (
        [lc_workload(name, calibrated=False) for name in LC_NAMES]
        + [bg_workload(name) for name in BG_NAMES]
        + [with_cores]
    )


class TestCachedCurveArithmetic:
    SHARES = (-0.3, 0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.9999999, 1.0, 1.7)

    @pytest.mark.parametrize("workload", _catalog_workloads(), ids=lambda w: w.name)
    def test_utility_matches_the_old_expression(self, workload):
        curves = list(workload.profile.curves.values()) + [workload.core_curve]
        for curve in curves:
            for share in self.SHARES:
                assert curve.utility(share) == _reference_utility(curve, share)

    @pytest.mark.parametrize("workload", _catalog_workloads(), ids=lambda w: w.name)
    def test_non_core_multiplier_matches_the_filtered_dict(self, workload):
        import numpy as np

        rng = np.random.default_rng(len(workload.name))
        names = [CORES, LLC_WAYS, MEMORY_BANDWIDTH, "memory_capacity", "disk"]
        for _ in range(200):
            shares = {
                name: float(rng.uniform(-0.1, 1.1))
                for name in names
                if rng.random() < 0.8
            }
            assert workload.non_core_multiplier(
                shares
            ) == _reference_non_core_multiplier(workload, shares)

    def test_profile_with_a_cores_curve_reads_a_full_core_share(self):
        workload = _catalog_workloads()[-1]
        assert CORES in workload.profile.curves
        shares = {CORES: 0.1, LLC_WAYS: 0.3}
        assert workload.non_core_multiplier(shares) == workload.profile.multiplier(
            {LLC_WAYS: 0.3}
        )

    def test_cached_denominator_is_not_a_field(self):
        from dataclasses import asdict, fields, replace

        curve = SensitivityCurve(weight=0.5, shape=4.0, floor=0.2)
        assert [f.name for f in fields(curve)] == ["weight", "shape", "floor"]
        assert asdict(curve) == {"weight": 0.5, "shape": 4.0, "floor": 0.2}
        assert curve == SensitivityCurve(weight=0.5, shape=4.0, floor=0.2)
        steeper = replace(curve, shape=6.0)
        assert steeper.utility(0.3) == _reference_utility(steeper, 0.3)
