"""The bit-identical fast paths of ``propose`` and ``GaussianProcess.predict``.

Every fast path here must give bitwise what the slower code it replaced
gave: the pinned trajectory digests below were recorded before any of
them existed, and each unit test compares a fast path against a
reference built the old way.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from scipy.linalg import solve_triangular

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
from repro.core.kernels import RBF
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


def _reference_predict(gp, xq):
    """``predict`` with the triangular solve through ``solve_triangular``."""
    xq = np.asarray(xq, dtype=float)
    stacked = xq.ndim == 3
    rows = xq.reshape(-1, xq.shape[-1]) if stacked else np.atleast_2d(xq)
    k_star = gp.kernel(rows, gp._x)
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
