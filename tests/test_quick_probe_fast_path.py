"""Each quick-probe fast path against a reference built the old way.

The quick admission probe reuses what does not change between probes:
one shared :class:`ConfigurationSpace` per (server, job count) with its
equal partition computed at construction, the node job a
:class:`JobRequest` builds once, one rounding call for every resource
column, a scalar projection of each boosted candidate on Python floats,
counters that seed their generator on the first noisy read, and LC
loads read once per time point.  Every test here compares one of
those paths, bit for bit, with the computation it replaced.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_bg, make_lc
from repro.cluster.state import ClusterNode, JobRequest
from repro.core import AcquisitionOptimizer
from repro.core.dropout import DropoutDecision
from repro.resources import (
    CORES,
    Configuration,
    ConfigurationSpace,
    Resource,
    ServerSpec,
    default_server,
    full_server,
    small_server,
)
from repro.resources.allocation import (
    _round_column,
    _round_columns_batch,
    _round_resources_batch,
    pairwise_sum,
)
from repro.resources.contracts import ContractViolation
from repro.resources.isolation import IsolationManager
from repro.server import Job, Node, PerformanceCounters
from repro.warehouse import WarehouseJob, WarehouseService
from repro.workloads import LoadSchedule
from repro.workloads.interference import exerted_pressure


# ----------------------------------------------------------------------
# Rounding: one call for every column == one call per column
# ----------------------------------------------------------------------
def _reference_round(weights, total):
    """Largest-remainder rounding with one total for the whole batch,
    written the way it was before totals could vary per row."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    n = w.shape[1]
    spare = total - n
    sums = w.sum(axis=1)
    degenerate = sums <= 0
    if degenerate.any():
        w[degenerate] = 1.0
        sums = np.where(degenerate, float(n), sums)
    shares = w / sums[:, None] * spare
    base = np.floor(shares).astype(int)
    remainder = spare - base.sum(axis=1)
    order = np.argsort(-(shares - base), axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(n), order.shape), axis=1
    )
    base += ranks < remainder[:, None]
    return base + 1


def _weight_rows(rng, count, n_jobs):
    """Random rows plus the awkward kinds: all-zero (degenerate), some
    zeros, all tied, and quarter-step values whose fractions tie."""
    rows = [rng.random(n_jobs) for _ in range(count)]
    rows.append(np.zeros(n_jobs))
    rows.append(np.where(rng.random(n_jobs) < 0.5, 0.0, rng.random(n_jobs)))
    rows.append(np.full(n_jobs, 0.37))
    rows.append(np.round(rng.random(n_jobs) * 4) / 4)
    rows.append(rng.random(n_jobs) * 2.0 - 0.5)  # clipped below zero
    return np.array(rows)


def _space(rng, n_jobs, rigid):
    """Three resources; the first holds exactly one unit per job when
    ``rigid``."""
    units = [int(rng.integers(n_jobs, n_jobs + 12)) for _ in range(3)]
    if rigid:
        units[0] = n_jobs
    return ConfigurationSpace(
        ServerSpec(
            resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
        ),
        n_jobs,
    )


class TestPerRowTotals:
    @pytest.mark.parametrize("n_jobs", range(1, 11))
    def test_per_row_totals_equal_one_call_per_row(self, n_jobs):
        rng = np.random.default_rng(100 + n_jobs)
        rows = _weight_rows(rng, 40, n_jobs)
        totals = rng.integers(n_jobs, n_jobs + 15, size=len(rows))
        totals[::3] = n_jobs  # rigid rows: one unit each
        got = _round_columns_batch(rows, totals)
        for i, row in enumerate(rows):
            want = _reference_round(row[None, :], int(totals[i]))[0]
            np.testing.assert_array_equal(got[i], want)
            np.testing.assert_array_equal(
                _round_column(row, int(totals[i])), want
            )

    @pytest.mark.parametrize("n_jobs", range(1, 11))
    @pytest.mark.parametrize("rigid", [False, True])
    def test_all_columns_at_once_equal_column_by_column(self, n_jobs, rigid):
        rng = np.random.default_rng(200 + n_jobs)
        space = _space(rng, n_jobs, rigid)
        units = [r.units for r in space.spec.resources]
        vec = np.stack(
            [_weight_rows(rng, 20, n_jobs) for _ in units], axis=2
        )
        want = np.empty(vec.shape, dtype=int)
        for r, total in enumerate(units):
            want[:, :, r] = _reference_round(vec[:, :, r], total)
        got = _round_resources_batch(vec, units)
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous
        cube = np.clip(vec, 0.0, 1.0)
        np.testing.assert_array_equal(
            space.from_unit_cube_batch(cube.reshape(len(cube), -1)),
            np.stack(
                [
                    _reference_round(cube[:, :, r], total)
                    for r, total in enumerate(units)
                ],
                axis=2,
            ),
        )

    def test_empty_batch(self):
        space = ConfigurationSpace(default_server(), 3)
        out = space.from_unit_cube_batch(np.empty((0, space.n_dims)))
        assert out.shape == (0, 3, 3)

    def test_short_total_is_rejected(self):
        with pytest.raises(ValueError, match="cannot give 3 jobs"):
            _round_columns_batch(np.ones((2, 3)), np.array([3, 2]))

    @pytest.mark.parametrize("n_jobs", range(2, 9))
    def test_pinned_round_batch_equals_column_by_column(self, n_jobs):
        rng = np.random.default_rng(300 + n_jobs)
        space = _space(rng, n_jobs, rigid=n_jobs % 2 == 0)
        optimizer = AcquisitionOptimizer(space, rng=rng)
        z = rng.random((12, space.n_dims))
        for pin in range(n_jobs):
            pinned = space.random(rng).job_allocation(pin)
            if pin % 2:
                # Greedy pins leave fewer spare units than jobs.
                pinned = tuple(r.units for r in space.spec.resources)
            dropout = DropoutDecision(job_index=pin, allocation=pinned)
            vec = np.clip(z.reshape(len(z), n_jobs, -1), 0.0, 1.0)
            free = [j for j in range(n_jobs) if j != pin]
            want = np.empty((len(z), n_jobs, space.n_resources), dtype=int)
            for r, resource in enumerate(space.spec.resources):
                units = int(pinned[r])
                remaining = resource.units - units
                if remaining < len(free):
                    units = resource.units - len(free)
                    remaining = len(free)
                want[:, pin, r] = units
                want[:, free, r] = _reference_round(vec[:, free, r], remaining)
            np.testing.assert_array_equal(
                optimizer._round_batch(z, dropout), want
            )


# ----------------------------------------------------------------------
# Scalar projection: from_unit_cube on Python floats == a batch row
# ----------------------------------------------------------------------
#: Entries whose fractional shares tie, or that sit on the clip edges.
_EDGE_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.0 / 3.0, -0.0)


@st.composite
def _projection_cases(draw):
    """A space of 1-10 jobs (one resource rigid, units == n_jobs, at
    random) and cube vectors mixing ties, zeros, and out-of-range
    entries."""
    n_jobs = draw(st.integers(1, 10))
    n_res = draw(st.integers(1, 4))
    units = [draw(st.integers(n_jobs, n_jobs + 12)) for _ in range(n_res)]
    if draw(st.booleans()):
        units[draw(st.integers(0, n_res - 1))] = n_jobs
    space = ConfigurationSpace(
        ServerSpec(
            resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
        ),
        n_jobs,
    )
    entry = st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.floats(0.0, 1.0),
        st.floats(-2.0, 3.0),
    )
    kind = draw(st.sampled_from(["mixed", "zeros", "tied", "coarse"]))
    n = space.n_dims
    if kind == "zeros":
        x = [0.0] * n
    elif kind == "tied":
        x = [draw(st.sampled_from(_EDGE_VALUES))] * n
    elif kind == "coarse":
        x = [draw(st.integers(-1, 5)) / 4 for _ in range(n)]
    else:
        x = draw(st.lists(entry, min_size=n, max_size=n))
    return space, x


class TestScalarProjection:
    @given(case=_projection_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_scalar_equals_one_row_and_four_row_batches(self, case, seed):
        space, x = case
        got = space.from_unit_cube(x)
        assert all(type(v) is int for row in got.units for v in row)
        one = space.from_unit_cube_batch(np.array([x]))[0]
        assert got == Configuration.from_matrix(one)
        # The quick probe used to project four rows in one call.
        rows = np.random.default_rng(seed).uniform(-0.2, 1.2, (4, space.n_dims))
        rows[seed % 4] = x
        four = space.from_unit_cube_batch(rows)[seed % 4]
        assert got == Configuration.from_matrix(four)
        assert space.from_unit_cube(np.array(x)) == got
        assert space.from_unit_cube(tuple(x)) == got

    @pytest.mark.parametrize("n_jobs", range(1, 11))
    def test_random_rows_across_the_eight_term_switch(self, n_jobs):
        rng = np.random.default_rng(500 + n_jobs)
        for rigid in (False, True):
            space = _space(rng, n_jobs, rigid)
            x = rng.random((300, space.n_dims)) * rng.choice(
                [1e-6, 1.0], size=(300, 1)
            )
            x[:60] = np.round(x[:60] * 4) / 4
            batch = space.from_unit_cube_batch(x)
            for row, want in zip(x.tolist(), batch):
                assert space.from_unit_cube(row) == Configuration.from_matrix(want)

    def test_wrong_length_and_nan_are_rejected(self):
        space = ConfigurationSpace.of(default_server(), 2)
        with pytest.raises(ValueError, match="6 entries"):
            space.from_unit_cube([0.5] * 5)
        with pytest.raises(ValueError, match="NaN"):
            space.from_unit_cube([0.5, 0.2, 0.1, math.nan, 0.3, 0.4])

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300])
    def test_pairwise_sum_is_numpy_row_sum(self, n):
        rng = np.random.default_rng(n)
        rows = rng.random((200, n)) * rng.choice([1e-9, 1.0, 1e9], size=(200, n))
        rows[0] = -0.0
        rows[1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        sums = rows.sum(axis=1)
        for row, want in zip(rows.tolist(), sums.tolist()):
            got = pairwise_sum(row)
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
        stacked = pairwise_sum([rows[:, j] for j in range(n)])
        np.testing.assert_array_equal(stacked, sums)


# ----------------------------------------------------------------------
# Shared configuration spaces
# ----------------------------------------------------------------------
class TestSharedSpace:
    def test_one_object_per_shape(self):
        space = ConfigurationSpace.of(default_server(), 3)
        assert ConfigurationSpace.of(default_server(), 3) is space
        assert ConfigurationSpace.of(default_server(), 4) is not space
        assert ConfigurationSpace.of(full_server(), 3) is not space
        assert ConfigurationSpace.of(small_server(units=6, n_resources=3), 3) \
            is not space

    def test_units_are_read_only(self):
        space = ConfigurationSpace.of(default_server(), 2)
        with pytest.raises(ValueError, match="read-only"):
            space._units[0] = 99

    def test_nodes_and_isolation_use_the_shared_space(self):
        spec = default_server()
        jobs = [Job.lc(make_lc("a"), 0.3), Job.bg(make_bg("b"))]
        node = Node(spec, jobs)
        assert node.space is ConfigurationSpace.of(spec, 2)
        assert Node(spec, jobs).space is node.space
        manager = IsolationManager(spec)
        assert manager.apply(node.space.equal_partition())
        with pytest.raises(ValueError, match="columns must sum"):
            manager.apply(Configuration(((1, 1, 1), (1, 1, 1))))

    @pytest.mark.parametrize(
        "spec", [default_server(), full_server(), small_server(units=7)]
    )
    def test_equal_partition_is_the_divmod_split(self, spec):
        for n_jobs in range(1, spec.max_jobs() + 1):
            space = ConfigurationSpace.of(spec, n_jobs)
            want = [
                [
                    units // n_jobs + (j < units % n_jobs)
                    for units in (r.units for r in spec.resources)
                ]
                for j in range(n_jobs)
            ]
            assert space.equal_partition() == Configuration.from_matrix(want)
            assert space.equal_partition() is space.equal_partition()

    def test_contract_still_checks_the_stored_partition(self):
        space = ConfigurationSpace(default_server(), 2)  # not the shared one
        space._equal = Configuration(((0, 5, 5), (10, 6, 5)))
        with pytest.raises(ContractViolation):
            space.equal_partition()


# ----------------------------------------------------------------------
# Lazily seeded counters
# ----------------------------------------------------------------------
def _eager_reads(rng, counters, values, window_s):
    sigma = counters.relative_std * math.sqrt(
        counters.reference_window_s / window_s
    )
    out = []
    for value in values:
        if math.isinf(value) or value == 0:
            out.append(value)
        else:
            out.append(value * float(np.exp(rng.normal(0.0, sigma))))
    return out


class TestLazyCounters:
    VALUES = (3.0, 0.0, 12.5, math.inf, 0.7, 1.0)

    @pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
    def test_stream_equals_an_eagerly_seeded_generator(self, seed):
        counters = PerformanceCounters(relative_std=0.03, seed=seed)
        assert counters._rng is None
        got = [counters.read(v, 1.5) for v in self.VALUES]
        want = _eager_reads(
            np.random.default_rng(seed), counters, self.VALUES, 1.5
        )
        assert got == want

    def test_reseed_restarts_the_stream(self):
        counters = PerformanceCounters(relative_std=0.05, seed=1)
        eager = np.random.default_rng(1)
        got = [counters.read(v) for v in self.VALUES[:3]]
        want = _eager_reads(eager, counters, self.VALUES[:3], 2.0)
        counters.reseed(9)
        assert counters._rng is None
        got += [counters.read(v) for v in self.VALUES]
        want += _eager_reads(
            np.random.default_rng(9), counters, self.VALUES, 2.0
        )
        assert got == want

    def test_reseed_before_any_read(self):
        counters = PerformanceCounters(relative_std=0.05, seed=1)
        counters.reseed(4)
        got = [counters.read(v) for v in self.VALUES]
        assert got == _eager_reads(
            np.random.default_rng(4), counters, self.VALUES, 2.0
        )

    def test_noise_free_reads_never_seed(self):
        counters = PerformanceCounters(relative_std=0.0, seed=3)
        assert counters.read(5.0) == 5.0
        assert counters._rng is None


# ----------------------------------------------------------------------
# LC loads read once per time point
# ----------------------------------------------------------------------
#: Fig. 16's load ramp, and a second LC job stepping the other way.
RAMP = LoadSchedule.steps([(0.0, 0.10), (200.0, 0.20), (400.0, 0.30)])
DROP = LoadSchedule.steps([(0.0, 0.60), (150.0, 0.25), (400.0, 0.45)])


def _phased_node():
    jobs = [
        Job(make_lc("ramp"), RAMP),
        Job.bg(make_bg("batch")),
        Job(make_lc("drop"), DROP),
    ]
    return Node(default_server(), jobs, window_s=50.0)


def _reference_pressures(node, config, t):
    out = []
    for i, job in enumerate(node.jobs):
        if job.is_lc:
            activity = job.load.load_at(t)
        else:
            activity = node._shares(config, i)[CORES]
        out.append(exerted_pressure(job.workload, activity))
    return out


class TestLoadMemo:
    def _check(self, node, config, t):
        direct = tuple(
            job.load.load_at(t) if job.is_lc else None for job in node.jobs
        )
        assert node._loads_at(t) == direct
        assert node._pressures(config, t) == _reference_pressures(
            node, config, t
        )
        truth = node.true_performance(config, at_time=t)
        assert [j.load_fraction for j in truth.lc_jobs] == [
            load for load in direct if load is not None
        ]
        assert node.qos_met(config, at_time=t) == truth.all_qos_met

    def test_clock_advancing_through_the_phases(self):
        node = _phased_node()
        configs = [node.space.equal_partition(), node.space.max_allocation(0)]
        for _ in range(12):
            t = node.clock_s
            for config in configs:
                self._check(node, config, t)
                key = node._cache_key(config)
                assert key[1] == (RAMP.load_at(t), DROP.load_at(t))
                assert node.true_performance(config) == (
                    node.true_performance(config, at_time=t)
                )
            node.observe(configs[0])

    @pytest.mark.parametrize(
        "times", [(0.0, 199.0, 200.0, 0.0, 400.0, 150.0, 1e4, 150.0)]
    )
    def test_explicit_times_interleaved_with_the_clock(self, times):
        node = _phased_node()
        node.advance(160.0)
        config = node.space.equal_partition()
        for t in times:
            self._check(node, config, t)
            # The clock's loads are not the memo of the explicit time.
            assert node._cache_key(config)[1] == (
                RAMP.load_at(160.0),
                DROP.load_at(160.0),
            )

    def test_rejects_bad_times_without_caching_them(self):
        node = _phased_node()
        config = node.space.equal_partition()
        node.qos_met(config, at_time=10.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="time must be"):
                node.qos_met(config, at_time=bad)
        self._check(node, config, 10.0)


# ----------------------------------------------------------------------
# Requests carry their node job
# ----------------------------------------------------------------------
def _fresh_job(request):
    """What ``JobRequest.to_job`` built before requests carried a job."""
    workload = replace(request.workload, name=request.request_name)
    if request.is_lc:
        return Job(workload, LoadSchedule.constant(request.load))
    return Job(workload)


class TestRequestJobs:
    def test_job_is_built_once_and_equals_a_fresh_one(self):
        for request in (
            JobRequest(make_lc("a"), 0.4, name="front"),
            JobRequest(make_lc("a"), 0.4),
            JobRequest(make_bg("b"), name="batch"),
        ):
            assert request.to_job() is request.to_job()
            assert request.to_job() == _fresh_job(request)
            assert replace(request).to_job() == request.to_job()

    def test_job_does_not_change_request_equality(self):
        a = JobRequest(make_lc("a"), 0.4, name="x")
        b = JobRequest(make_lc("a"), 0.4, name="x")
        assert a == b
        assert "_job" not in repr(a)

    def test_uncalibrated_lc_request_is_rejected_when_built(self):
        raw = replace(make_lc("raw"), qos_latency_ms=None)
        with pytest.raises(ValueError, match="calibrated"):
            JobRequest(raw, 0.5)

    def test_refresh_reuses_requests_whose_load_is_unchanged(self):
        service = WarehouseService(1, spec=default_server(), seed=0)
        phased = WarehouseJob.lc(
            make_lc("phased"), LoadSchedule.steps([(0.0, 0.2), (50.0, 0.35)]),
            "phased",
        )
        service.submit(phased, at=0.0)
        service.submit(WarehouseJob.lc(make_lc("steady"), 0.3, "steady"), at=1.0)
        service.submit(WarehouseJob.bg(make_bg("batch"), "batch"), at=2.0)
        service.run_until(3.0)
        node_state = service.cluster.nodes[0]
        assert node_state.job_names() == ["phased", "steady", "batch"]
        for t, changed in ((10.0, set()), (60.0, {"phased"})):
            refreshed = service._refreshed(node_state, t)
            assert refreshed == ClusterNode(
                0,
                node_state.spec,
                [
                    JobRequest(
                        service._jobs[r.request_name].job.workload,
                        service._jobs[r.request_name].job.load_at(t),
                        name=r.request_name,
                    )
                    if r.is_lc
                    else r
                    for r in node_state.requests
                ],
            )
            for old, new in zip(node_state.requests, refreshed.requests):
                assert (new is old) == (old.request_name not in changed)
                assert new.to_job() == _fresh_job(new)
