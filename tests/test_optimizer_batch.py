"""Vectorized optimizer internals vs their scalar references, and the
acquisition-floor fix.

``_round_batch`` / ``_repair_caps_batch`` are speed rewrites of
``_round`` and of the one-configuration cap waterfall kept below as
``_reference_repair_caps``; every batch row must match the scalar
result exactly (same rounding, same waterfall, same tie-breaks).  And
``propose`` must report a faithful ``max_acquisition`` even when the
acquisition function goes negative — the old 0.0 seed silently floored
the termination signal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AcquisitionOptimizer,
    DropoutDecision,
    GaussianProcess,
    Proposal,
    UpperConfidenceBound,
)
from repro.resources import Configuration, ConfigurationSpace, Resource, ServerSpec


@st.composite
def space_opt_rng(draw):
    n_res = draw(st.integers(2, 3))
    n_jobs = draw(st.integers(2, 4))
    units = [draw(st.integers(n_jobs + 1, n_jobs + 7)) for _ in range(n_res)]
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    space = ConfigurationSpace(server, n_jobs)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return space, AcquisitionOptimizer(space, rng=rng), rng


def _satisfiable_caps(space, rng, extra):
    caps = np.empty((space.n_jobs, space.n_resources))
    for r, resource in enumerate(space.spec.resources):
        fair = resource.units // space.n_jobs
        caps[:, r] = max(fair, 1) + extra
        while caps[:, r].sum() < resource.units:
            caps[np.argmin(caps[:, r]), r] += 1
    return caps


def _reference_repair_caps(space, config, upper_caps, dropout):
    """Push units over a job's cap to jobs with headroom, one at a time.

    The dropout-pinned job is exempt on both sides: its row is neither
    trimmed nor grown.
    """
    matrix = config.as_array()
    pin = dropout.job_index if dropout and dropout.job_index is not None else None
    n_jobs = space.n_jobs
    for r in range(space.n_resources):
        for j in range(n_jobs):
            if j == pin:
                continue
            excess = matrix[j, r] - int(upper_caps[j, r])
            while excess > 0:
                headroom = [
                    k
                    for k in range(n_jobs)
                    if k != j and k != pin and matrix[k, r] < int(upper_caps[k, r])
                ]
                if not headroom:
                    break
                target = max(
                    headroom, key=lambda k: int(upper_caps[k, r]) - matrix[k, r]
                )
                matrix[j, r] -= 1
                matrix[target, r] += 1
                excess -= 1
    return Configuration.from_matrix(matrix)


@given(data=space_opt_rng(), with_pin=st.booleans())
@settings(max_examples=60, deadline=None)
def test_round_batch_matches_scalar(data, with_pin):
    space, opt, rng = data
    dropout = None
    if with_pin:
        pinned = space.random(rng)
        pin_job = int(rng.integers(space.n_jobs))
        dropout = DropoutDecision(
            job_index=pin_job, allocation=pinned.job_allocation(pin_job)
        )
    z = rng.random((8, space.n_dims))
    batch = opt._round_batch(z, dropout)
    for i in range(len(z)):
        scalar = opt._round(z[i], dropout)
        np.testing.assert_array_equal(batch[i], scalar.as_array())


@given(
    data=space_opt_rng(),
    cap_extra=st.integers(0, 3),
    with_pin=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_repair_caps_batch_matches_scalar(data, cap_extra, with_pin):
    space, opt, rng = data
    dropout = None
    if with_pin:
        pinned = space.random(rng)
        pin_job = int(rng.integers(space.n_jobs))
        dropout = DropoutDecision(
            job_index=pin_job, allocation=pinned.job_allocation(pin_job)
        )
    caps = _satisfiable_caps(space, rng, cap_extra)
    configs = [space.random(rng) for _ in range(10)]
    mats = np.array([c.as_array() for c in configs])
    batch = opt._repair_caps_batch(mats, caps, dropout)
    for i, config in enumerate(configs):
        scalar = _reference_repair_caps(space, config, caps, dropout)
        np.testing.assert_array_equal(batch[i], scalar.as_array())


def test_repair_caps_batch_none_caps_is_identity():
    server = ServerSpec(resources=(Resource("r0", 8), Resource("r1", 6)))
    space = ConfigurationSpace(server, 3)
    opt = AcquisitionOptimizer(space, rng=np.random.default_rng(0))
    mats = space.random_batch(5, np.random.default_rng(1))
    assert opt._repair_caps_batch(mats, None, None) is mats


def _fitted_gp(space, rng, y_offset=0.0):
    mats = space.random_batch(12, rng)
    x = space.to_unit_cube_batch(mats)
    y = rng.normal(size=len(x)) + y_offset
    return GaussianProcess().fit(x, y), x, y


def test_max_acquisition_can_go_negative():
    """With a negative-valued acquisition (UCB on a GP whose posterior
    mean is everywhere negative), ``propose`` must report the true
    negative maximum instead of the historical 0.0 floor."""
    server = ServerSpec(resources=(Resource("r0", 8), Resource("r1", 6)))
    space = ConfigurationSpace(server, 2)
    rng = np.random.default_rng(0)
    opt = AcquisitionOptimizer(
        space, acquisition=UpperConfidenceBound(kappa=0.0), rng=rng
    )
    gp, _, y = _fitted_gp(space, rng, y_offset=-50.0)
    proposal = opt.propose(gp, best_score=float(y.max()), sampled=set())
    assert proposal.max_acquisition < 0.0
    assert np.isfinite(proposal.max_acquisition)
    assert proposal.candidates  # negative utility still ranks candidates


def test_empty_max_seed_is_minus_inf():
    assert Proposal.EMPTY_MAX == float("-inf")


def test_propose_candidates_valid_and_ranked():
    server = ServerSpec(
        resources=(Resource("r0", 9), Resource("r1", 7), Resource("r2", 6))
    )
    space = ConfigurationSpace(server, 3)
    rng = np.random.default_rng(3)
    opt = AcquisitionOptimizer(space, rng=rng)
    gp, x, y = _fitted_gp(space, rng)
    sampled = {space.from_unit_cube(row).flat() for row in x}
    proposal = opt.propose(gp, best_score=float(y.max()), sampled=sampled)
    values = [c.acquisition_value for c in proposal.candidates]
    assert values == sorted(values, reverse=True)
    for candidate in proposal.candidates:
        space.validate(candidate.config)
        assert candidate.config.flat() not in sampled
