"""The bit-identical fast paths of ``propose`` and ``GaussianProcess.predict``.

Every fast path here must give bitwise what the slower code it replaced
gave: the pinned trajectory digests below were recorded before any of
them existed, and each unit test compares a fast path against a
reference built the old way.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from conftest import make_node
from repro.core import (
    AcquisitionOptimizer,
    CLITEEngine,
    DropoutDecision,
    ExpectedImprovement,
    GaussianProcess,
)
from repro.core.acquisition import (
    ProbabilityOfImprovement,
    UpperConfidenceBound,
)
from repro.core import optimizer as optimizer_module
from repro.core.kernels import RBF, Matern52
from repro.core.optimizer import _FD_EPS, _column_sums, _descent_objective
from repro.resources import ConfigurationSpace, Resource, ServerSpec, default_server
from repro.telemetry import Tracer
from test_core_termination_engine import small_engine_config


def _trajectory_digest(node, **overrides):
    result = CLITEEngine(node, small_engine_config(**overrides)).optimize()
    digest = hashlib.sha256()
    for sample in result.samples:
        ei = sample.expected_improvement
        digest.update(sample.config.as_array().tobytes())
        digest.update(struct.pack("<d", sample.score))
        digest.update(b"none" if ei is None else struct.pack("<d", ei))
    return digest.hexdigest()[:16]


class TestPinnedTrajectories:
    """Sampled (config bytes, score, EI) per run, pinned bitwise."""

    def test_pinned_and_capped_three_job_mix(self, monkeypatch):
        """2 LC + 1 BG on the paper's testbed: every BO round runs with
        a dropout pin and constrained-execution caps, and one comes back
        empty (every candidate already sampled)."""
        seen = []
        propose = AcquisitionOptimizer.propose

        def spy(self, gp, best_score, sampled, **kwargs):
            proposal = propose(self, gp, best_score, sampled, **kwargs)
            dropout = kwargs["dropout"]
            seen.append((
                dropout is not None and dropout.job_index is not None,
                kwargs["upper_caps"] is not None,
                not proposal.candidates,
            ))
            return proposal

        monkeypatch.setattr(AcquisitionOptimizer, "propose", spy)
        node = make_node(
            default_server(), lc_loads=(0.5, 0.4), n_bg=1, noise=0.01
        )
        assert _trajectory_digest(node, max_iterations=16) == "da76d6384ca76258"
        pinned, capped, empty = (sum(column) for column in zip(*seen))
        assert pinned == capped == len(seen) == 16 and empty == 1

    def test_exploit_rounds(self, monkeypatch):
        """Every other BO round is a greedy walk on the posterior mean."""
        walks = []
        propose_exploit = AcquisitionOptimizer.propose_exploit

        def spy(self, *args, **kwargs):
            proposal = propose_exploit(self, *args, **kwargs)
            walks.append(bool(proposal.candidates))
            return proposal

        monkeypatch.setattr(AcquisitionOptimizer, "propose_exploit", spy)
        node = make_node(
            default_server(), lc_loads=(0.5, 0.4), n_bg=1, noise=0.01
        )
        digest = _trajectory_digest(node, max_iterations=16, exploit_every=2)
        assert digest == "e5801e4b557ee887"
        assert len(walks) == 8 and sum(walks) == 2

    def test_pinned_and_capped_four_job_mix(self, monkeypatch):
        """3 LC + 1 BG on the paper's testbed (d = 12): every BO round
        runs with a dropout pin and caps, and two come back empty."""
        seen = []
        propose = AcquisitionOptimizer.propose

        def spy(self, gp, best_score, sampled, **kwargs):
            proposal = propose(self, gp, best_score, sampled, **kwargs)
            dropout = kwargs["dropout"]
            seen.append((
                dropout is not None and dropout.job_index is not None,
                kwargs["upper_caps"] is not None,
                not proposal.candidates,
            ))
            return proposal

        monkeypatch.setattr(AcquisitionOptimizer, "propose", spy)
        node = make_node(
            default_server(), lc_loads=(0.3, 0.5, 0.2), n_bg=1, noise=0.01
        )
        assert node.space.n_dims == 12
        assert _trajectory_digest(node, max_iterations=20) == "bbbb617fb7a11f7a"
        pinned, capped, empty = (sum(column) for column in zip(*seen))
        assert pinned == capped == len(seen) == 20 and empty == 2

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({"acquisition": ProbabilityOfImprovement()}, "bcb2af3ce596aeb9"),
            ({"acquisition": UpperConfidenceBound()}, "99951535d857aeb0"),
            ({"kernel": RBF()}, "823e2c2f3200d991"),
        ],
        ids=["pi", "ucb", "rbf"],
    )
    def test_acquisition_and_kernel_variants(self, mini_server, overrides, expected):
        node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01)
        assert _trajectory_digest(node, **overrides) == expected


def _space(units, n_jobs):
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    return ConfigurationSpace(server, n_jobs)


def _fitted_gp(space, rng, n=14):
    x = space.to_unit_cube_batch(space.random_batch(n, rng))
    y = rng.random(n)
    return GaussianProcess().fit(x, y), x, y


class TestTopK:
    @pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("seed", range(3))
    def test_top_k_is_head_of_full_ranking(self, pin, capped, seed):
        space = _space((10, 11, 10), 3)
        rng = np.random.default_rng(seed)
        gp, x, y = _fitted_gp(space, rng)
        sampled = {space.from_unit_cube(row).flat() for row in x}
        incumbent = space.from_unit_cube(x[int(np.argmax(y))])
        dropout = None
        if pin:
            dropout = DropoutDecision(
                job_index=1, allocation=incumbent.job_allocation(1)
            )
        caps = None
        if capped:
            caps = np.array([[4.0, 5.0, 4.0], [5.0, 5.0, 5.0], [8.0, 9.0, 8.0]])
        kwargs = dict(incumbent=incumbent, dropout=dropout, upper_caps=caps)

        def propose(k):
            tracer = Tracer()
            opt = AcquisitionOptimizer(space, rng=100 + seed, tracer=tracer)
            proposal = opt.propose(
                gp, float(y.max()), sampled, max_candidates=k, **kwargs
            )
            (span,) = tracer.finished()
            return proposal, span.attributes

        full, full_attrs = propose(None)
        assert full_attrs["ranked"] == full_attrs["candidates"] == len(full.candidates)
        assert len(full.candidates) > 3
        for k in (1, 3):
            head, attrs = propose(k)
            assert attrs["candidates"] == k
            assert attrs["ranked"] == len(full.candidates)
            assert head.max_acquisition == full.max_acquisition
            for got, want in zip(head.candidates, full.candidates[:k], strict=True):
                assert np.array_equal(got.config.as_array(), want.config.as_array())
                assert got.acquisition_value == want.acquisition_value

    def test_max_candidates_must_be_positive(self):
        space = _space((6, 7), 2)
        gp, _, y = _fitted_gp(space, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_candidates"):
            AcquisitionOptimizer(space, rng=0).propose(
                gp, float(y.max()), set(), max_candidates=0
            )


def _reference_covariance(kernel, x1, x2):
    """Each kernel as one expression, a new array per operation."""
    if isinstance(kernel, RBF):
        sq = cdist(x1, x2, "sqeuclidean") / kernel.lengthscale**2
        return kernel.variance * np.exp(-0.5 * sq)
    r = cdist(x1, x2) / kernel.lengthscale
    sqrt5_r = math.sqrt(5.0) * r
    return kernel.variance * (1.0 + sqrt5_r + 5.0 * r**2 / 3.0) * np.exp(-sqrt5_r)


def _reference_predict(gp, xq):
    """``predict`` with the triangular solve through ``solve_triangular``,
    the kernel as one expression and the prior variance from ``diag``."""
    xq = np.asarray(xq, dtype=float)
    stacked = xq.ndim == 3
    rows = xq.reshape(-1, xq.shape[-1]) if stacked else np.atleast_2d(xq)
    k_star = _reference_covariance(gp.kernel, rows, gp._x)
    if stacked:
        mean_z = (k_star.reshape(*xq.shape[:2], -1) @ gp._alpha).ravel()
    else:
        mean_z = k_star @ gp._alpha
    v = solve_triangular(gp._chol, k_star.T, lower=True, check_finite=False)
    var_z = np.maximum(gp.kernel.diag(rows) - np.einsum("ij,ij->j", v, v), 0.0)
    mean = mean_z * gp._y_std + gp._y_mean
    std = np.sqrt(var_z) * gp._y_std
    if stacked:
        return mean.reshape(xq.shape[:2]), std.reshape(xq.shape[:2])
    return mean, std


class TestPredictSolve:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("incremental", [False, True], ids=["fit", "add"])
    def test_trtrs_matches_solve_triangular(self, seed, incremental):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 13))
        n = int(rng.integers(1, 60))
        gp = GaussianProcess().fit(rng.random((n, d)), rng.random(n))
        if incremental:
            for _ in range(3):
                gp.add_sample(rng.random(d), float(rng.random()))
        queries = [
            rng.random((1, d)),
            rng.random(d),
            rng.random((int(rng.integers(2, 40)), d)),
            rng.random((int(rng.integers(1, 9)), d + 1, d)),
        ]
        for xq in queries:
            mean, std = gp.predict(xq)
            want_mean, want_std = _reference_predict(gp, xq)
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(std, want_std)

    def test_query_is_not_modified(self):
        rng = np.random.default_rng(0)
        gp = GaussianProcess().fit(rng.random((9, 3)), rng.random(9))
        xq = rng.random((5, 3))
        before = xq.copy()
        gp.predict(xq)
        assert np.array_equal(xq, before)


class TestExpectedImprovementFastPath:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_mask_path_matches_masked(self, seed):
        """All-positive ``std`` skips the mask; one zero forces it."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        mean = rng.normal(size=n)
        std = rng.random(n) * 10.0 ** rng.integers(-12, 1, n) + 1e-300
        best = float(rng.normal())
        ei = ExpectedImprovement(zeta=0.01)
        fast = ei(mean, std, best)
        masked = ei(np.append(mean, 0.5), np.append(std, 0.0), best)
        assert np.array_equal(fast, masked[:-1]) and masked[-1] == 0.0


def _reference_project_feasible(opt, z, dropout):
    """One column at a time: the loop the stacked projection replaced."""
    n_jobs, n_res = opt.space.n_jobs, opt.space.n_resources
    z = z.reshape(n_jobs, n_res).copy()
    pin = dropout.job_index if dropout is not None else None
    if pin is not None:
        z[pin] = opt._pinned_cube_row(dropout)
    targets = opt._column_targets()
    for r in range(n_res):
        if opt._spans[r] <= 0:
            z[:, r] = 0.0
            continue
        free = [j for j in range(n_jobs) if j != pin]
        budget = max(targets[r] - (z[pin, r] if pin is not None else 0.0), 0.0)
        total = z[free, r].sum()
        if total <= 0:
            z[free, r] = budget / len(free)
        else:
            z[free, r] *= budget / total
    return np.clip(z.reshape(-1), 0.0, 1.0)


@pytest.mark.parametrize(
    "units, n_jobs",
    [((10, 11, 10), 3), ((6, 7), 2), ((8, 4, 9), 4), ((12, 9), 8), ((40, 30), 12)],
)
@pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
def test_project_feasible_matches_column_loop(units, n_jobs, pin):
    space = _space(units, n_jobs)
    rng = np.random.default_rng(n_jobs)
    opt = AcquisitionOptimizer(space, rng=rng)
    dropout = None
    if pin:
        job = n_jobs - 1
        dropout = DropoutDecision(
            job_index=job, allocation=space.random(rng).job_allocation(job)
        )
    z = rng.random((30, space.n_dims)) * rng.integers(0, 2, (30, space.n_dims))
    z[0] = 0.0  # every column empty: the equal-split branch
    stacked = opt._project_feasible(z, dropout)
    for i, row in enumerate(z):
        want = _reference_project_feasible(opt, row, dropout)
        assert np.array_equal(stacked[i], want)
        assert np.array_equal(opt._project_feasible(row, dropout), want)


class TestKernelCovariance:
    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    @pytest.mark.parametrize("seed", range(6))
    def test_in_place_matches_expression(self, kernel_cls, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 13))
        kernel = kernel_cls(
            lengthscale=float(rng.uniform(0.05, 2.0)),
            variance=float(rng.uniform(0.2, 3.0)),
        )
        x1 = rng.random((int(rng.integers(1, 300)), d))
        x2 = rng.random((int(rng.integers(1, 80)), d))
        x1[0] = x2[0]  # a zero distance
        want = _reference_covariance(kernel, x1, x2)
        assert np.array_equal(kernel(x1, x2), want)
        assert np.array_equal(kernel.covariance(x1, x2), want)

    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_predict_matches_reference(self, kernel_cls):
        rng = np.random.default_rng(5)
        gp = GaussianProcess(kernel=kernel_cls()).fit(
            rng.random((30, 9)), rng.random(30)
        )
        for xq in (rng.random((1, 9)), rng.random((64, 9)), rng.random((7, 10, 9))):
            for got, want in zip(gp.predict(xq), _reference_predict(gp, xq)):
                assert np.array_equal(got, want)


def _reference_descent_objective(predict, acq_fn, best, z):
    """The FD objective as first written: negate, then difference."""
    n, d = z.shape
    points = np.empty((n, d + 1, d))
    points[:, 0] = z
    points[:, 1:] = z[:, None, :] + _FD_EPS * np.eye(d)
    mean, std = predict(points)
    acq = acq_fn(mean.ravel(), std.ravel(), best)
    values = -np.reshape(acq, mean.shape)
    return values[:, 0], (values[:, 1:] - values[:, :1]) / _FD_EPS


class _FixedPosterior:
    """A stand-in GP whose ``predict`` returns set ``(mean, std)`` blocks."""

    def __init__(self, mean, std):
        self.mean, self.std = mean, std

    def predict(self, points):
        assert points.shape[:2] == self.mean.shape
        return self.mean.copy(), self.std.copy()


ACQUISITIONS = [
    ExpectedImprovement(),
    ProbabilityOfImprovement(),
    UpperConfidenceBound(),
]


class TestDescentObjective:
    @pytest.mark.parametrize("acq", ACQUISITIONS, ids=["ei", "pi", "ucb"])
    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, acq, kernel_cls, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 13))
        n = int(rng.integers(3, 50))
        gp = GaussianProcess(kernel=kernel_cls()).fit(
            rng.random((n, d)), rng.random(n)
        )
        z = rng.random((int(rng.integers(1, 12)), d))
        best = float(rng.uniform(0.2, 1.0))
        got = _descent_objective(gp, acq, best, z)
        want = _reference_descent_objective(
            lambda points: _reference_predict(gp, points), acq, best, z
        )
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("acq", ACQUISITIONS, ids=["ei", "pi", "ucb"])
    def test_rows_with_zero_std(self, acq):
        """Points where the posterior is certain take the masked paths."""
        rng = np.random.default_rng(1)
        n, d = 6, 9
        mean = rng.normal(0.5, 0.3, (n, d + 1))
        std = rng.random((n, d + 1))
        std[0] = 0.0  # a whole block certain
        std[1, 0] = std[2, 3] = std[3, ::2] = 0.0
        mean[3, 1] = 0.9  # certain, above best + zeta
        gp = _FixedPosterior(mean, std)
        z = rng.random((n, d))
        got = _descent_objective(gp, acq, 0.55, z)
        want = _reference_descent_objective(gp.predict, acq, 0.55, z)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


class TestLockstepBookkeeping:
    @pytest.mark.parametrize("n_jobs", [*range(1, 11), 12, 16, 17])
    @pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
    def test_column_sums_match_per_point_sum(self, n_jobs, pin):
        """numpy sums a point's short rows pairwise (a running sum below
        8 terms); the stacked sums must match that at every job count."""
        space = _space((40, 30, 36), n_jobs)
        rng = np.random.default_rng(n_jobs)
        opt = AcquisitionOptimizer(space, rng=rng)
        dropout = None
        if pin:
            job = n_jobs // 2
            dropout = DropoutDecision(
                job_index=job, allocation=space.random(rng).job_allocation(job)
            )
        x = opt._project_feasible(rng.random((40, space.n_dims)), dropout)
        x[:5] *= 10.0 ** rng.integers(-9, 4, (5, space.n_dims))
        sums = _column_sums(x, opt._columns)
        # The SLSQP kernel reads each row as a contiguous buffer.
        assert sums.flags.c_contiguous
        for i, point in enumerate(x):
            assert np.array_equal(sums[i], point[opt._columns].sum(axis=1))

    def test_column_sums_past_one_block(self):
        """Beyond 128 terms numpy splits the sum in halves."""
        rng = np.random.default_rng(0)
        columns = np.arange(2 * 300).reshape(300, 2).T.copy()
        x = rng.random((3, 600)) * 10.0 ** rng.integers(-9, 4, (3, 600))
        sums = _column_sums(x, columns)
        for i, point in enumerate(x):
            assert np.array_equal(sums[i], point[columns].sum(axis=1))

    def test_cached_point_test_matches_numpy(self):
        """Lists of Python floats compare as ``(x == seen).all()`` does."""
        rng = np.random.default_rng(0)
        x = rng.random(12)
        cases = [x.copy(), np.nextafter(x, 2.0), x * (1 + 1e-16)]
        zeros = x.copy()
        zeros[[2, 5]] = 0.0
        negative = zeros.copy()
        negative[[2, 5]] = -0.0
        nan = x.copy()
        nan[4] = np.nan
        for a, b in [(x, c) for c in cases] + [(zeros, negative), (nan, nan.copy())]:
            assert (a.tolist() == b.tolist()) is bool((a == b).all())

    def test_span_counts_kernel_steps_and_points(self, monkeypatch, quiet_node):
        steps, points = [], []
        kernel = optimizer_module._slsqp_kernel
        objective = optimizer_module._descent_objective

        def counted_kernel(*args):
            steps.append(None)
            return kernel(*args)

        def counted_objective(gp, acq_fn, best, z):
            points.append(len(z))
            return objective(gp, acq_fn, best, z)

        monkeypatch.setattr(optimizer_module, "_slsqp_kernel", counted_kernel)
        monkeypatch.setattr(optimizer_module, "_descent_objective", counted_objective)
        rng = np.random.default_rng(0)
        space = quiet_node.space
        gp = GaussianProcess().fit(
            space.to_unit_cube_batch(space.random_batch(12, rng)), rng.random(12)
        )
        tracer = Tracer()
        AcquisitionOptimizer(space, rng=rng, tracer=tracer).propose(
            gp, 0.5, set(), incumbent=space.random(rng)
        )
        (span,) = tracer.finished()
        assert span.attributes["steps"] == len(steps) > 0
        assert span.attributes["points"] == sum(points) > 0
        assert span.attributes["rounds"] == len(points)


def _reference_repair_caps_batch(opt, mats, upper_caps, dropout):
    """The cap waterfall one unit per step, every matrix at once."""
    caps = np.asarray(upper_caps).astype(int)
    pin = dropout.job_index if dropout is not None else None
    mats = mats.copy()
    for r in range(opt.space.n_resources):
        col = mats[:, :, r]
        capr = caps[:, r]
        for j in range(opt.space.n_jobs):
            if j == pin:
                continue
            excess = col[:, j] - capr[j]
            active = excess > 0
            while active.any():
                headroom = capr[None, :] - col
                eligible = headroom > 0
                eligible[:, j] = False
                if pin is not None:
                    eligible[:, pin] = False
                movable = active & eligible.any(axis=1)
                if not movable.any():
                    break
                target = np.argmax(np.where(eligible, headroom, -(10**9)), axis=1)
                rows = np.nonzero(movable)[0]
                col[rows, j] -= 1
                col[rows, target[rows]] += 1
                excess[rows] -= 1
                active = movable & (excess > 0)
    return mats


@pytest.mark.parametrize("n_jobs", range(1, 9))
@pytest.mark.parametrize("pin", [False, True], ids=["free", "pinned"])
def test_closed_form_cap_repair_matches_unit_waterfall(n_jobs, pin):
    """Any caps, also ones no partition meets (some below one unit)."""
    rng = np.random.default_rng(n_jobs)
    space = _space((n_jobs + 9, n_jobs + 3, 2 * n_jobs + 5), n_jobs)
    opt = AcquisitionOptimizer(space, rng=rng)
    for _ in range(20):
        dropout = None
        if pin:
            job = int(rng.integers(n_jobs))
            dropout = DropoutDecision(
                job_index=job, allocation=space.random(rng).job_allocation(job)
            )
        mats = space.random_batch(int(rng.integers(1, 60)), rng)
        caps = rng.integers(0, 2 * n_jobs + 7, (n_jobs, space.n_resources))
        got = opt._repair_caps_batch(mats, caps.astype(float), dropout)
        want = _reference_repair_caps_batch(opt, mats, caps, dropout)
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "units, n_jobs",
    [((10, 11, 10), 1), ((10, 11, 10), 3), ((6, 7), 2), ((8, 4, 9), 4), ((12, 9), 8)],
)
def test_cached_blends_match_fresh_extremes(units, n_jobs):
    space = _space(units, n_jobs)
    rng = np.random.default_rng(n_jobs)
    opt = AcquisitionOptimizer(space, rng=rng)
    for _ in range(5):
        z_inc = space.to_unit_cube(space.random(rng))
        want = np.array(
            [
                (1 - t) * z_inc + t * space.to_unit_cube(space.max_allocation(j))
                for j in range(n_jobs)
                for t in (0.25, 0.5, 0.75)
            ]
        )
        assert np.array_equal(opt._blends(z_inc), want)
