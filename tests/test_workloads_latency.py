"""Unit and property tests for the tandem-queue latency model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import to_millis, to_seconds
from repro.resources import LLC_WAYS, MEMORY_BANDWIDTH
from repro.workloads import (
    SATURATED_LATENCY_MS,
    capacity_qps,
    effective_service_rate,
    erlang_c,
    mm1_mean_sojourn,
    mm1_sojourn_quantile,
    mmc_mean_sojourn,
    mmc_sojourn_quantile,
    p95_latency_ms,
    p95_meets_target,
    stage_rates,
)
from repro.workloads.latency import _mmc_brackets, _mmc_closed_form

from conftest import make_lc, make_node

FULL = {LLC_WAYS: 1.0, MEMORY_BANDWIDTH: 1.0}


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_single_server_equals_utilization(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)
        assert erlang_c(1, 0.9) == pytest.approx(0.9)

    def test_saturated_returns_one(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_known_value_two_servers(self):
        # C(2, 1) = (1/2)^... classic result: a=1, c=2 -> 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_monotone_in_load(self):
        values = [erlang_c(4, a) for a in (0.5, 1.0, 2.0, 3.0, 3.9)]
        assert values == sorted(values)

    def test_more_servers_less_waiting(self):
        assert erlang_c(8, 3.0) < erlang_c(4, 3.0)

    def test_probability_bounds(self):
        for c in (1, 3, 10):
            for a in (0.1, 0.5 * c, 0.95 * c):
                assert 0.0 <= erlang_c(c, a) <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -1.0)


class TestMM1:
    def test_quantile_is_exponential(self):
        # Sojourn of M/M/1 is Exp(mu - lambda).
        q = mm1_sojourn_quantile(50.0, 100.0, 0.95)
        assert q == pytest.approx(-math.log(0.05) / 50.0)

    def test_saturated(self):
        assert math.isinf(mm1_sojourn_quantile(100.0, 100.0))
        assert math.isinf(mm1_mean_sojourn(120.0, 100.0))

    def test_mean(self):
        assert mm1_mean_sojourn(60.0, 100.0) == pytest.approx(1 / 40.0)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            mm1_sojourn_quantile(1.0, 2.0, percentile=1.0)


class TestMMC:
    def test_zero_load_is_service_quantile(self):
        q = mmc_sojourn_quantile(0.0, 100.0, 4, 0.95)
        assert q == pytest.approx(-math.log(0.05) / 100.0)

    def test_saturation_returns_inf(self):
        assert math.isinf(mmc_sojourn_quantile(400.0, 100.0, 4))
        assert math.isinf(mmc_sojourn_quantile(500.0, 100.0, 4))

    def test_quantile_increases_with_load(self):
        qs = [mmc_sojourn_quantile(lam, 100.0, 4) for lam in (50, 200, 350, 390)]
        assert qs == sorted(qs)

    def test_quantile_decreases_with_servers(self):
        q4 = mmc_sojourn_quantile(300.0, 100.0, 4)
        q8 = mmc_sojourn_quantile(300.0, 100.0, 8)
        assert q8 < q4

    def test_quantile_matches_cdf_inversion(self):
        # Verify the bisection: CDF at the returned quantile ~ target.
        lam, mu, c = 250.0, 100.0, 4
        q95 = mmc_sojourn_quantile(lam, mu, c, 0.95)
        q50 = mmc_sojourn_quantile(lam, mu, c, 0.50)
        assert q50 < q95

    def test_mean_formula(self):
        lam, mu, c = 200.0, 100.0, 4
        pw = erlang_c(c, lam / mu)
        expected = 1 / mu + pw / (c * mu - lam)
        assert mmc_mean_sojourn(lam, mu, c) == pytest.approx(expected)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            mmc_sojourn_quantile(-1.0, 100.0, 4)


def _bisect_80_steps(lam, mu, c, percentile):
    """Reference M/M/c sojourn quantile: a fixed 80-step bisection.

    A frozen copy of the plain algorithm: the mixture CDF re-derives
    every constant per evaluation and all 80 bisection steps run.
    :func:`mmc_sojourn_quantile` must return the same float, bit for bit.
    """
    if lam >= c * mu:
        return float("inf")
    if lam == 0:
        return -math.log(1.0 - percentile) / mu
    p_wait = erlang_c(c, lam / mu)
    nu = c * mu - lam

    def cdf(t):
        f_service = 1.0 - math.exp(-mu * t)
        if abs(nu - mu) < 1e-12 * mu:
            f_sum = 1.0 - math.exp(-mu * t) * (1.0 + mu * t)
        else:
            f_sum = 1.0 - (
                nu * math.exp(-mu * t) - mu * math.exp(-nu * t)
            ) / (nu - mu)
        return (1.0 - p_wait) * f_service + p_wait * f_sum

    lo, hi = 0.0, 1.0 / mu
    while cdf(hi) < percentile:
        hi *= 2.0
        if hi > 1e9:
            return float("inf")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < percentile:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quantile_grid():
    """Seeded (lambda, mu, c, percentile) cases plus the edge regimes."""
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(400):
        c = int(rng.integers(1, 65))
        mu = float(10.0 ** rng.uniform(-1.0, 4.0))
        rho = float(rng.uniform(0.0, 1.0))
        cases.append((rho * c * mu, mu, c, float(rng.uniform(0.01, 0.999))))
    for c in (1, 2, 4, 10, 64, 256):
        for mu in (0.5, 37.0, 1000.0):
            for p in (0.5, 0.95, 0.99):
                cases.append((0.0, mu, c, p))  # idle: service quantile
                if c > 1:
                    # nu = c*mu - lambda = mu: the Erlang-2 branch.
                    cases.append(((c - 1) * mu, mu, c, p))
                for rho in (0.3, 0.9, 0.999, 1.0 - 1e-9):  # rho -> 1
                    cases.append((rho * c * mu, mu, c, p))
    return cases


class TestMMCBitwise:
    def test_equals_fixed_80_step_bisection(self):
        cases = _quantile_grid()
        mismatches = [
            (case, mmc_sojourn_quantile(*case), _bisect_80_steps(*case))
            for case in cases
            if mmc_sojourn_quantile(*case) != _bisect_80_steps(*case)
        ]
        assert mismatches == []

    def test_grid_reaches_every_branch(self):
        cases = _quantile_grid()
        assert any(lam == 0 for lam, _, _, _ in cases)
        assert any(c == 1 and lam > 0 for lam, _, c, _ in cases)
        assert any(c >= 256 for _, _, c, _ in cases)
        erlang2 = [
            (lam, mu, c, p)
            for lam, mu, c, p in cases
            if lam > 0 and abs((c * mu - lam) - mu) < 1e-12 * mu
        ]
        assert erlang2
        assert all(math.isfinite(_bisect_80_steps(*case)) for case in erlang2)
        near_saturation = [
            case for case in cases if case[0] >= (1.0 - 1e-6) * case[2] * case[1]
        ]
        assert near_saturation


class TestBisectionBrackets:
    """The bisection's brackets bound its answer, which early exits rely on."""

    def test_every_bracket_contains_the_final_quantile(self):
        bisected = 0
        for case in _quantile_grid():
            if _mmc_closed_form(*case) is not None:
                continue
            brackets = list(_mmc_brackets(*case))
            q = mmc_sojourn_quantile(*case)
            if not brackets:  # the doubling search gave up
                assert math.isinf(q)
                continue
            bisected += 1
            assert all(lo <= q <= hi for lo, hi in brackets), case
            # Nested: the bracket only ever shrinks.
            for (lo_a, hi_a), (lo_b, hi_b) in zip(brackets, brackets[1:]):
                assert lo_a <= lo_b <= hi_b <= hi_a
            lo, hi = brackets[-1]
            assert q == 0.5 * (lo + hi)
        assert bisected > 400

    def test_closed_form_cases_yield_no_bisection(self):
        assert _mmc_closed_form(0.0, 37.0, 4, 0.95) == mmc_sojourn_quantile(
            0.0, 37.0, 4, 0.95
        )
        assert math.isinf(_mmc_closed_form(400.0, 100.0, 4, 0.95))
        assert math.isinf(_mmc_closed_form(1.0, 0.0, 4, 0.95))
        assert _mmc_closed_form(250.0, 100.0, 4, 0.95) is None
        with pytest.raises(ValueError):
            _mmc_closed_form(-1.0, 100.0, 4, 0.95)
        with pytest.raises(ValueError):
            _mmc_closed_form(1.0, 100.0, 4, 1.0)


class TestStageModel:
    def test_stage_rates_split_by_serial_fraction(self):
        lc = make_lc(base_service_rate=1000.0, serial_fraction=0.25)
        mu_s, mu_p = stage_rates(lc, FULL)
        assert mu_s == pytest.approx(4000.0)
        assert mu_p == pytest.approx(1000.0 / 0.75)

    def test_zero_serial_fraction_removes_stage(self):
        lc = make_lc(serial_fraction=0.0)
        mu_s, mu_p = stage_rates(lc, FULL)
        assert math.isinf(mu_s)
        assert mu_p == pytest.approx(lc.base_service_rate)

    def test_capacity_serial_limited_with_many_cores(self):
        lc = make_lc(base_service_rate=1000.0, serial_fraction=0.4)
        # With enough cores the serial stage (mu/sigma = 2500) caps it.
        assert capacity_qps(lc, 10, FULL) == pytest.approx(2500.0)

    def test_capacity_core_limited_with_one_core(self):
        lc = make_lc(base_service_rate=1000.0, serial_fraction=0.4)
        assert capacity_qps(lc, 1, FULL) == pytest.approx(1000.0 / 0.6)

    def test_capacity_monotone_in_cores_until_serial_cap(self):
        lc = make_lc(serial_fraction=0.3)
        caps = [capacity_qps(lc, c, FULL) for c in range(1, 11)]
        assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))

    def test_effective_rate_degrades_with_contention(self):
        lc = make_lc()
        assert effective_service_rate(lc, FULL, contention=1.0) < (
            effective_service_rate(lc, FULL, contention=0.0)
        )

    def test_effective_rate_scales_with_shares(self):
        lc = make_lc()
        starved = {LLC_WAYS: 0.1, MEMORY_BANDWIDTH: 0.1}
        assert effective_service_rate(lc, starved) < effective_service_rate(lc, FULL)


class TestP95Latency:
    def test_saturated_returns_inf(self):
        lc = make_lc(base_service_rate=100.0, serial_fraction=0.3)
        cap = capacity_qps(lc, 4, FULL)
        assert p95_latency_ms(lc, cap * 1.01, 4, FULL) == SATURATED_LATENCY_MS

    def test_low_load_finite_and_positive(self):
        lc = make_lc()
        latency = p95_latency_ms(lc, 10.0, 4, FULL)
        assert 0 < latency < 100

    def test_monotone_in_load(self):
        lc = make_lc()
        cap = capacity_qps(lc, 4, FULL)
        latencies = [p95_latency_ms(lc, f * cap, 4, FULL) for f in (0.1, 0.5, 0.8, 0.95)]
        assert latencies == sorted(latencies)

    def test_more_resources_never_hurt_at_high_load(self):
        lc = make_lc()
        qps = 0.7 * capacity_qps(lc, 4, FULL)
        rich = p95_latency_ms(lc, qps, 4, FULL)
        poor = p95_latency_ms(lc, qps, 4, {LLC_WAYS: 0.3, MEMORY_BANDWIDTH: 0.3})
        assert rich < poor

    def test_knee_shape(self):
        """The curve is flat at low load and explodes near capacity."""
        lc = make_lc()
        cap = capacity_qps(lc, 8, FULL)
        low = p95_latency_ms(lc, 0.1 * cap, 8, FULL)
        mid = p95_latency_ms(lc, 0.6 * cap, 8, FULL)
        high = p95_latency_ms(lc, 0.97 * cap, 8, FULL)
        assert mid < 3 * low  # flat-ish region
        assert high > 5 * low  # divergence

    def test_invalid_inputs(self):
        lc = make_lc()
        with pytest.raises(ValueError):
            p95_latency_ms(lc, -1.0, 4, FULL)
        with pytest.raises(ValueError):
            p95_latency_ms(lc, 10.0, 0, FULL)
        with pytest.raises(ValueError):
            capacity_qps(lc, 0, FULL)


@given(
    sigma=st.floats(0.05, 0.8, allow_nan=False),
    cores=st.integers(1, 10),
    load=st.floats(0.01, 0.95, allow_nan=False),
    llc=st.floats(0.1, 1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_latency_finite_below_capacity(sigma, cores, load, llc):
    lc = make_lc(serial_fraction=sigma)
    shares = {LLC_WAYS: llc, MEMORY_BANDWIDTH: 1.0}
    cap = capacity_qps(lc, cores, shares)
    latency = p95_latency_ms(lc, load * cap, cores, shares)
    assert math.isfinite(latency)
    assert latency > 0


@given(
    cores_a=st.integers(1, 9),
    load=st.floats(0.1, 0.9, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_more_cores_never_increase_saturation(cores_a, load):
    lc = make_lc()
    assert capacity_qps(lc, cores_a + 1, FULL) >= capacity_qps(lc, cores_a, FULL) - 1e-9


def _meets_reference(lc, qps, cores, shares, target, contention):
    """What :func:`p95_meets_target` must return: the full p95's verdict."""
    p95 = p95_latency_ms(lc, qps, cores, shares, contention)
    return None if math.isinf(p95) else p95 <= target


class TestP95MeetsTarget:
    def _cases(self):
        """Seeded tandem queues from idle to past both stages' capacity."""
        rng = np.random.default_rng(16)
        for _ in range(300):
            lc = make_lc(
                base_service_rate=float(10.0 ** rng.uniform(1.0, 4.0)),
                serial_fraction=float(rng.choice([0.0, 0.02, 0.3, 0.7])),
            )
            cores = int(rng.integers(1, 17))
            shares = {
                LLC_WAYS: float(rng.uniform(0.05, 1.0)),
                MEMORY_BANDWIDTH: float(rng.uniform(0.05, 1.0)),
            }
            contention = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            cap = capacity_qps(lc, cores, shares, contention)
            qps = float(rng.choice([0.0, rng.uniform(0.0, 1.1) * cap]))
            yield lc, qps, cores, shares, contention

    def test_matches_full_bisection_at_every_target(self):
        outcomes = set()
        for lc, qps, cores, shares, contention in self._cases():
            p95 = p95_latency_ms(lc, qps, cores, shares, contention)
            finite = p95 if math.isfinite(p95) else 1.0
            targets = [
                finite,  # bitwise equal: met
                math.nextafter(finite, 0.0),  # one ulp under: missed
                math.nextafter(finite, math.inf),
                0.5 * finite,
                2.0 * finite,
                0.0,
                math.inf,
                math.nan,
            ]
            for target in targets:
                got = p95_meets_target(lc, qps, cores, shares, target, contention)
                want = _meets_reference(lc, qps, cores, shares, target, contention)
                assert got is want, (lc.serial_fraction, qps, cores, target)
                outcomes.add(want)
        assert outcomes == {True, False, None}

    def test_exact_boundary(self):
        lc = make_lc()
        p95 = p95_latency_ms(lc, 1500.0, 4, FULL)
        assert p95_meets_target(lc, 1500.0, 4, FULL, p95) is True
        below = math.nextafter(p95, 0.0)
        assert p95_meets_target(lc, 1500.0, 4, FULL, below) is False

    def test_saturated_is_none(self):
        lc = make_lc(base_service_rate=100.0, serial_fraction=0.3)
        qps = 1.01 * capacity_qps(lc, 4, FULL)
        assert p95_meets_target(lc, qps, 4, FULL, 1e12) is None

    def test_invalid_inputs(self):
        lc = make_lc()
        with pytest.raises(ValueError):
            p95_meets_target(lc, -1.0, 4, FULL, 10.0)
        with pytest.raises(ValueError):
            p95_meets_target(lc, 10.0, 0, FULL, 10.0)


# ----------------------------------------------------------------------
# Seconds <-> milliseconds regression pins
# ----------------------------------------------------------------------
class TestTimeConversionRegressions:
    @given(ms=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact_for_sane_latencies(self, ms):
        assert to_millis(to_seconds(ms)) == pytest.approx(ms, rel=1e-12, abs=1e-12)

    def test_p95_latency_is_exactly_thousand_times_the_seconds_model(self):
        # Single-stage case (serial_fraction = 0): the tandem model
        # degenerates to the M/M/c quantile, and p95_latency_ms must be
        # that quantity in *milliseconds* — the historical failure mode
        # is returning raw seconds (1000x too small).
        workload = make_lc(serial_fraction=0.0)
        shares = {"llc_ways": 1.0, "membw_units": 1.0}
        qps, cores = 800.0, 4
        mu_serial, mu_parallel = stage_rates(workload, shares, 0.0)
        assert math.isinf(mu_serial)
        expected_s = mmc_sojourn_quantile(qps, mu_parallel, cores, 0.95)
        got_ms = p95_latency_ms(workload, qps, cores, shares)
        assert got_ms == pytest.approx(1000.0 * expected_s)
        # Sanity: a sub-second tail reported in ms is > its seconds value.
        assert got_ms > expected_s

    def test_p95_latency_two_stage_composition_in_millis(self):
        workload = make_lc(serial_fraction=0.3)
        shares = {"llc_ways": 1.0, "membw_units": 1.0}
        qps, cores = 500.0, 4
        mu_serial, mu_parallel = stage_rates(workload, shares, 0.0)
        q_serial = mm1_sojourn_quantile(qps, mu_serial, 0.95)
        q_parallel = mmc_sojourn_quantile(qps, mu_parallel, cores, 0.95)
        m_serial = mm1_mean_sojourn(qps, mu_serial)
        m_parallel = mmc_mean_sojourn(qps, mu_parallel, cores)
        expected_s = max(q_serial + m_parallel, q_parallel + m_serial)
        assert p95_latency_ms(workload, qps, cores, shares) == pytest.approx(
            1000.0 * expected_s
        )

    def test_saturated_node_fallback_reports_milliseconds(self, mini_server):
        # When the queue saturates, the node substitutes a finite
        # window-scaled latency: 1000.0 * window_s * overload.  The
        # 1000.0 is the s->ms conversion, so the reported p95 must
        # scale linearly with the observation window and sit in the
        # millisecond range (>= 1000 * window_s), never the raw
        # seconds range.
        readings = {}
        for window_s in (2.0, 4.0):
            node = make_node(
                mini_server, lc_loads=(1.0,), n_bg=2, window_s=window_s
            )
            config = node.space.equal_partition()
            observation = node.true_performance(config)
            p95 = observation.job("lc0").p95_ms
            assert math.isfinite(p95)
            readings[window_s] = p95
        assert readings[4.0] == pytest.approx(2.0 * readings[2.0])
        assert readings[2.0] >= 1000.0 * 2.0
