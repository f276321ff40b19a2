"""The lockstep SLSQP driver against per-start ``scipy.optimize.minimize``.

``_lockstep_slsqp`` steps scipy's reverse-communication SLSQP kernel for
every start at once and batches their objective evaluations.  Each
start's solution must be bitwise what its own ``minimize`` call returns
(falling back to the start unless the solver succeeds) — which is also
the guard on the private kernel's call signature.  The stacked
``GaussianProcess.predict`` it relies on must equal per-block predicts
bitwise.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.core import (
    AcquisitionOptimizer,
    DropoutDecision,
    ExpectedImprovement,
    GaussianProcess,
)
from repro.core.optimizer import (
    _FD_EPS,
    _descent_objective,
    _lockstep_slsqp,
)
from repro.resources import ConfigurationSpace, Resource, ServerSpec
from repro.telemetry import Tracer


def _space(units, n_jobs):
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    return ConfigurationSpace(server, n_jobs)


def _reference_bounds(opt, dropout, upper_caps):
    """Per-coordinate bounds as a list of pairs, built one at a time."""
    n_jobs, n_res = opt.space.n_jobs, opt.space.n_resources
    spans = opt._spans
    bounds = [(0.0, 1.0)] * (n_jobs * n_res)
    if upper_caps is not None:
        for j in range(n_jobs):
            for r in range(n_res):
                if spans[r] > 0:
                    ub = (upper_caps[j, r] - 1.0) / spans[r]
                    bounds[j * n_res + r] = (0.0, min(max(ub, 0.0), 1.0))
    for r in range(n_res):
        if spans[r] <= 0:
            for j in range(n_jobs):
                bounds[j * n_res + r] = (0.0, 0.0)
    if dropout is not None:
        pinned = opt._pinned_cube_row(dropout)
        for r in range(n_res):
            bounds[dropout.job_index * n_res + r] = (pinned[r], pinned[r])
    return bounds


def _reference_constraints(opt):
    """One equality dict per resource, with its exact normal."""
    n_jobs, n_res = opt.space.n_jobs, opt.space.n_resources
    targets = opt._column_targets()
    constraints = []
    for r in range(n_res):
        idx = [j * n_res + r for j in range(n_jobs)]
        normal = np.zeros(n_jobs * n_res)
        normal[idx] = 1.0
        constraints.append(
            {
                "type": "eq",
                "fun": (lambda z, idx=idx, t=targets[r]: np.sum(z[idx]) - t),
                "jac": (lambda z, normal=normal: normal),
            }
        )
    return constraints


def _per_start(fun_and_grad, starts, bounds, constraints):
    """Solve each start on its own, falling back to it on failure.

    Also returns how many points each start's ``minimize`` evaluated.
    """
    solutions, successes, evaluations = [], [], []
    for x0 in starts:
        calls = []

        def counted(z):
            calls.append(None)
            return fun_and_grad(z)

        result = minimize(
            counted,
            x0,
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 40, "ftol": 1e-8},
        )
        solutions.append(result.x if result.success else x0)
        successes.append(bool(result.success))
        evaluations.append(len(calls))
    return np.array(solutions), np.array(successes), evaluations


def _acquisition_fun(gp, acq, best):
    """The per-start objective: value and forward differences at one z."""

    def fun_and_grad(z):
        points = np.vstack([z, z + _FD_EPS * np.eye(len(z))])
        mean, std = gp.predict(points)
        values = -acq(mean, std, best)
        return float(values[0]), (values[1:] - values[0]) / _FD_EPS

    return fun_and_grad


def _random_gp(rng, d, n=12):
    x = rng.random((n, d))
    y = rng.random(n)
    return GaussianProcess().fit(x, y), float(y.max())


def _starts(opt, rng, dropout, n_random=6):
    starts = opt._start_points(opt.space.random(rng), dropout)
    cube = rng.random((n_random, opt.space.n_dims))
    return np.concatenate([starts, opt._project_feasible(cube, dropout)])


def _caps(space, rng):
    """Per-job caps that still let every column sum to its units."""
    caps = np.empty((space.n_jobs, space.n_resources))
    for r, resource in enumerate(space.spec.resources):
        high = resource.units - space.n_jobs + 2
        caps[:, r] = rng.integers(1, high, space.n_jobs)
        while caps[:, r].sum() < resource.units:
            caps[int(np.argmin(caps[:, r])), r] += 1
    return caps


def _check(opt, gp, best, starts, dropout=None, upper_caps=None, acq=None):
    acq = acq if acq is not None else ExpectedImprovement()
    want, success, evaluations = _per_start(
        _acquisition_fun(gp, acq, best),
        starts,
        _reference_bounds(opt, dropout, upper_caps),
        _reference_constraints(opt),
    )
    lower, upper = opt._bounds(dropout, upper_caps)
    assert np.array_equal(
        np.column_stack([lower, upper]),
        np.array(_reference_bounds(opt, dropout, upper_caps)),
    )
    got, rounds = _lockstep_slsqp(
        starts,
        lambda z: _descent_objective(gp, acq, best, z),
        lower,
        upper,
        opt._columns,
        opt._column_targets(),
    )
    assert np.array_equal(got, want)
    if not np.array_equal(lower, upper):
        # Each round gives a start at most one new point, so no driver
        # needs fewer rounds than the most points any start evaluates;
        # serving cached requests within the round reaches that floor.
        assert rounds == max(evaluations)
    return success, rounds


CASES = [
    # (units per resource, jobs, pin a job, cap the jobs)
    ((10, 11, 10), 3, False, False),
    ((10, 11, 10), 3, True, False),
    ((10, 11, 10), 3, False, True),
    ((10, 11, 10), 3, True, True),
    ((6, 7), 2, False, False),
    ((6, 7), 2, True, True),
    ((8, 4, 9), 4, False, False),  # r1 is rigid: span 0
    ((8, 4, 9), 4, True, True),
    ((12, 9), 8, False, False),  # column sums of 8 jobs
    ((12, 9), 8, True, True),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("units,n_jobs,pin,capped", CASES)
def test_matches_per_start_minimize(units, n_jobs, pin, capped, seed):
    rng = np.random.default_rng(seed)
    space = _space(units, n_jobs)
    opt = AcquisitionOptimizer(space, rng=rng)
    gp, best = _random_gp(rng, space.n_dims)
    dropout = None
    if pin:
        job = int(rng.integers(n_jobs))
        dropout = DropoutDecision(
            job_index=job, allocation=space.random(rng).job_allocation(job)
        )
    caps = _caps(space, rng) if capped else None
    _check(opt, gp, best, _starts(opt, rng, dropout), dropout, caps)


def test_single_start():
    rng = np.random.default_rng(7)
    space = _space((10, 11, 10), 3)
    opt = AcquisitionOptimizer(space, rng=rng)
    gp, best = _random_gp(rng, space.n_dims)
    success, rounds = _check(opt, gp, best, _starts(opt, rng, None)[:1])
    assert success.all() and rounds > 1


def test_dead_flat_starts():
    # EI is exactly zero everywhere when the incumbent is far above the
    # posterior: no start can move, and each stands as its own optimum.
    rng = np.random.default_rng(3)
    space = _space((10, 11, 10), 3)
    opt = AcquisitionOptimizer(space, rng=rng)
    gp, _ = _random_gp(rng, space.n_dims)
    starts = _starts(opt, rng, None)
    _check(opt, gp, 1e6, starts)


def test_no_starts():
    space = _space((6, 7), 2)
    opt = AcquisitionOptimizer(space, rng=0)
    empty = np.empty((0, space.n_dims))
    solutions, rounds = _lockstep_slsqp(
        empty, None, *opt._bounds(None, None), opt._columns, opt._column_targets()
    )
    assert solutions.shape == (0, space.n_dims) and rounds == 0


def test_failing_start_falls_back_to_its_start():
    # A gradient pointing uphill makes SLSQP's line search fail (exit
    # mode 8), so minimize reports no success and the start stands.
    space = _space((10, 11, 10), 3)
    opt = AcquisitionOptimizer(space, rng=0)
    rng = np.random.default_rng(11)
    starts = _starts(opt, rng, None)
    target = rng.random(space.n_dims)

    def fun_and_grad(z):
        return float(np.sum((z - target) ** 2)), -2.0 * (z - target)

    def batched(z):
        return np.sum((z - target) ** 2, axis=1), -2.0 * (z - target)

    want, success, _ = _per_start(
        fun_and_grad,
        starts,
        _reference_bounds(opt, None, None),
        _reference_constraints(opt),
    )
    got, _ = _lockstep_slsqp(
        starts, batched, *opt._bounds(None, None), opt._columns, opt._column_targets()
    )
    assert not success.any()
    assert np.array_equal(got, want) and np.array_equal(got, starts)


def test_all_variables_pinned():
    # Caps of one unit on the free job plus a pinned job leave nothing
    # to optimize: minimize returns the bounds if they satisfy Eq. 6.
    space = _space((6, 7), 2)
    opt = AcquisitionOptimizer(space, rng=0)
    rng = np.random.default_rng(0)
    gp, best = _random_gp(rng, space.n_dims)
    dropout = DropoutDecision(job_index=0, allocation=(5, 6))
    caps = np.array([[5.0, 6.0], [1.0, 1.0]])
    starts = _starts(opt, rng, dropout)
    lower, upper = opt._bounds(dropout, caps)
    assert np.array_equal(lower, upper)
    _check(opt, gp, best, starts, dropout, caps)
    # A pin whose row cannot meet the column sums is no solution.
    greedy = DropoutDecision(job_index=0, allocation=(4, 6))
    _check(opt, gp, best, _starts(opt, rng, greedy), greedy, caps)


@pytest.mark.parametrize("seed", range(20))
def test_stacked_predict_matches_per_block(seed):
    # Blocks of one row are excluded: a one-row predict takes LAPACK's
    # single right-hand-side solve, which sums in another order.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 16))
    k, b = int(rng.integers(1, 12)), int(rng.integers(2, d + 3))
    gp, _ = _random_gp(rng, d, n=int(rng.integers(3, 60)))
    stack = rng.random((k, b, d))
    mean, std = gp.predict(stack)
    assert mean.shape == std.shape == (k, b)
    for i in range(k):
        block_mean, block_std = gp.predict(stack[i])
        assert np.array_equal(mean[i], block_mean)
        assert np.array_equal(std[i], block_std)


def test_propose_span_reports_starts_and_rounds(quiet_node):
    rng = np.random.default_rng(0)
    space = quiet_node.space
    gp, best = _random_gp(rng, space.n_dims)
    tracer = Tracer()
    opt = AcquisitionOptimizer(space, rng=rng, tracer=tracer)
    opt.propose(gp, best, set(), incumbent=space.random(rng))
    opt.propose(gp, 1e6, set(), incumbent=space.random(rng))
    live, flat = [s.attributes for s in tracer.finished()]
    assert live["starts"] > live["flat_starts"] and live["rounds"] > 1
    assert flat["flat_starts"] == flat["starts"] and flat["rounds"] == 0
    assert live["ranked"] == live["candidates"] > 0
    # Every start's last kernel step asks for nothing, and every point
    # after the starts' own was asked for by a step.
    assert live["steps"] >= live["points"] >= live["rounds"]
    assert live["points"] >= live["starts"] - live["flat_starts"]
    assert flat["steps"] == flat["points"] == 0
