"""``Node.qos_met`` is ``true_performance(...).all_qos_met``, bit for bit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_bg, make_lc
from repro.resources import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    Configuration,
    Resource,
    ServerSpec,
    default_server,
    full_server,
    small_server,
)
from repro.server import Job, Node
from repro.workloads import LoadSchedule, stage_rates
from repro.workloads.interference import co_runner_pressure
from repro.workloads.parsec import BG_NAMES, bg_workload
from repro.workloads.tailbench import LC_NAMES, lc_workload

#: Times the Fig. 16-style schedules below are queried at (None: clock).
QUERY_TIMES = (None, 0.0, 15.0, 30.0, 45.0, 75.0)


def _spec(rng):
    """A heterogeneous server: random capacities, sometimes Table 1."""
    kind = int(rng.integers(4))
    if kind == 0:
        return default_server()
    if kind == 1:
        return full_server()
    if kind == 2:
        return small_server(units=int(rng.integers(3, 7)), n_resources=2)
    return ServerSpec(
        resources=(
            Resource(CORES, int(rng.integers(4, 17))),
            Resource(LLC_WAYS, int(rng.integers(4, 21))),
            Resource(MEMORY_BANDWIDTH, int(rng.integers(4, 13))),
        )
    )


def _schedule(rng):
    """Constant, or three Fig. 16-style load steps at 0/20/40 s."""
    if rng.random() < 0.4:
        return LoadSchedule.constant(round(float(rng.uniform(0.0, 1.2)), 3))
    loads = rng.uniform(0.05, 1.2, size=3)
    return LoadSchedule.steps(
        [(start, round(float(load), 3)) for start, load in zip((0.0, 20.0, 40.0), loads)]
    )


def _lc(rng, name):
    if rng.random() < 0.5:
        lc = lc_workload(LC_NAMES[int(rng.integers(len(LC_NAMES)))])
        return replace(lc, name=name)
    return make_lc(
        name,
        base_service_rate=float(10.0 ** rng.uniform(2.0, 4.0)),
        serial_fraction=float(rng.choice([0.0, 0.05, 0.3, 0.6])),
        qos_latency_ms=float(10.0 ** rng.uniform(-0.5, 2.0)),
        max_qps=float(10.0 ** rng.uniform(2.0, 4.5)),
    )


def _random_node(rng):
    spec = _spec(rng)
    jobs = []
    for slot in range(int(rng.integers(1, min(5, spec.max_jobs()) + 1))):
        name = f"j{slot}"
        if rng.random() < 0.65:
            jobs.append(Job(_lc(rng, name), _schedule(rng)))
        elif rng.random() < 0.5:
            jobs.append(Job.bg(make_bg(name)))
        else:
            bg = bg_workload(BG_NAMES[int(rng.integers(len(BG_NAMES)))])
            jobs.append(Job.bg(replace(bg, name=name)))
    return Node(spec, jobs)


def _configs(node, rng, n):
    space = node.space
    configs = [space.equal_partition()]
    configs += [space.max_allocation(j) for j in range(node.n_jobs)]
    configs += [space.random(rng) for _ in range(n)]
    return configs


def _with_target(node, index, target):
    """``node`` with LC job ``index``'s QoS target replaced."""
    jobs = list(node.jobs)
    job = jobs[index]
    lc = job.workload.calibrated(qos_latency_ms=target, max_qps=job.workload.max_qps)
    jobs[index] = Job(lc, job.load)
    return Node(node.spec, jobs, window_s=node.window_s)


def _agree(node, config, at_time=None):
    truth = node.true_performance(config, at_time).all_qos_met
    assert node.qos_met(config, at_time) is truth
    return truth


class TestRandomNodes:
    def test_matches_true_performance(self):
        rng = np.random.default_rng(16)
        verdicts = []
        for _ in range(120):
            node = _random_node(rng)
            for config in _configs(node, rng, 4):
                for at_time in QUERY_TIMES:
                    verdicts.append(_agree(node, config, at_time))
        # Both verdicts are common, so the early exits on both sides run.
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9

    def test_moved_clock_is_the_default_time(self, mini_server):
        node = Node(
            mini_server,
            [
                Job(
                    make_lc("a", max_qps=4000.0),
                    LoadSchedule.steps([(0.0, 0.2), (10.0, 1.0)]),
                ),
                Job.bg(make_bg("b")),
            ],
        )
        config = node.space.equal_partition()
        before = _agree(node, config)
        node.advance(12.0)
        after = _agree(node, config)
        assert (before, after) == (True, False)

    def test_validates_the_config(self, mini_server):
        node = Node(mini_server, [Job.lc(make_lc("a"), 0.3)])
        with pytest.raises(ValueError):
            node.qos_met(Configuration.from_matrix([[7, 6, 6]]))

    def test_pure(self, mini_server):
        node = Node(mini_server, [Job.lc(make_lc("a"), 0.3), Job.bg(make_bg())])
        node.qos_met(node.space.equal_partition())
        assert node.clock_s == 0.0
        assert node.samples_taken == 0
        assert node.cache_info() == (0, 0)
        assert node.physics_computations == 0


class TestQueueRegimes:
    def _node(self, mini_server, lc, load=0.5, bg=True):
        jobs = [Job.lc(lc, load)]
        if bg:
            jobs.append(Job.bg(make_bg()))
        return Node(mini_server, jobs)

    def test_saturated_serial_stage(self, mini_server):
        # qps = 5000 > mu / sigma = 2000: the serial queue cannot keep up.
        lc = make_lc(base_service_rate=1000.0, serial_fraction=0.5, max_qps=5000.0)
        node = self._node(mini_server, lc, load=1.0)
        config = node.space.max_allocation(0)
        assert not _agree(node, config)
        # A target above the saturated-window reading is met.
        generous = _with_target(node, 0, 1e7)
        assert _agree(generous, config)

    def test_saturated_parallel_stage(self, mini_server):
        lc = make_lc(base_service_rate=1000.0, serial_fraction=0.01, max_qps=3000.0)
        node = self._node(mini_server, lc, load=1.0)
        config = Configuration.from_matrix([[1, 3, 3], [5, 3, 3]])
        truth = node.true_performance(config).jobs[0]
        assert truth.p95_ms >= 1000.0 * node.window_s  # the window model
        assert not _agree(node, config)
        assert _agree(_with_target(node, 0, truth.p95_ms), config)

    def test_zero_load(self, mini_server):
        node = self._node(mini_server, make_lc(), load=0.0)
        for config in _configs(node, np.random.default_rng(0), 6):
            _agree(node, config)

    def test_no_serial_stage(self, mini_server):
        node = self._node(mini_server, make_lc(serial_fraction=0.0), load=0.9)
        for config in _configs(node, np.random.default_rng(1), 6):
            _agree(node, config)

    def test_erlang2_branch(self, mini_server):
        # Pick max_qps so that c * mu_parallel - lambda == mu_parallel.
        probe = self._node(mini_server, make_lc(), load=1.0)
        config = probe.space.equal_partition()
        cores = config.get(0, 0)
        shares = probe._shares(config, 0)
        contention = co_runner_pressure(probe._pressures(config, 0.0), 0)
        _, mu_parallel = stage_rates(probe.jobs[0].workload, shares, contention)
        lam = (cores - 1) * mu_parallel
        assert abs((cores * mu_parallel - lam) - mu_parallel) < 1e-12 * mu_parallel
        lc = make_lc(max_qps=lam)
        node = self._node(mini_server, lc, load=1.0)
        p95 = node.true_performance(config).jobs[0].p95_ms
        assert math.isfinite(p95)
        _agree(node, config)
        assert _agree(_with_target(node, 0, p95), config)
        assert not _agree(_with_target(node, 0, math.nextafter(p95, 0.0)), config)


class TestExactBoundary:
    """A target equal to the computed p95 bitwise is met; one ulp less is not."""

    @pytest.mark.parametrize("serial_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("load", [0.2, 0.7, 0.95])
    def test_target_at_p95(self, mini_server, serial_fraction, load):
        lc = make_lc("a", serial_fraction=serial_fraction)
        node = Node(mini_server, [Job.lc(lc, load), Job.bg(make_bg("b"))])
        rng = np.random.default_rng(int(load * 100))
        for config in _configs(node, rng, 4):
            p95 = node.true_performance(config).jobs[0].p95_ms
            assert _agree(_with_target(node, 0, p95), config)
            below = _with_target(node, 0, math.nextafter(p95, 0.0))
            assert not _agree(below, config)

    def test_each_lc_job_of_a_mix(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(12):
            node = _random_node(rng)
            config = node.space.equal_partition()
            truth = node.true_performance(config)
            # Every LC job gets a target exactly at its p95, then one ulp
            # under it: the verdict flips on that job alone.
            met = node
            for i in node.lc_indices:
                met = _with_target(met, i, truth.jobs[i].p95_ms)
            if not node.lc_indices:
                continue
            assert _agree(met, config)
            for i in node.lc_indices:
                p95 = truth.jobs[i].p95_ms
                assert not _agree(_with_target(met, i, math.nextafter(p95, 0.0)), config)
                checked += 1
        assert checked >= 12
