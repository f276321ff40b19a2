"""Property-based tests for the acquisition optimizer's geometry helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AcquisitionOptimizer, DropoutDecision
from repro.resources import Configuration, ConfigurationSpace, Resource, ServerSpec


@st.composite
def space_and_config(draw):
    n_res = draw(st.integers(2, 3))
    n_jobs = draw(st.integers(2, 4))
    units = [draw(st.integers(n_jobs + 1, n_jobs + 7)) for _ in range(n_res)]
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    space = ConfigurationSpace(server, n_jobs)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return space, space.random(rng), rng


@given(data=space_and_config(), cap_extra=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_repair_caps_yields_valid_capped_configs(data, cap_extra):
    """Whatever the caps, the repaired config is valid; and when the
    caps leave enough headroom, they are respected exactly."""
    space, config, rng = data
    opt = AcquisitionOptimizer(space, rng=rng)
    n_jobs, n_res = space.n_jobs, space.n_resources
    caps = np.empty((n_jobs, n_res))
    for r, resource in enumerate(space.spec.resources):
        # Base cap ~ fair share + slack; always jointly satisfiable.
        fair = resource.units // n_jobs
        caps[:, r] = max(fair, 1) + cap_extra
        while caps[:, r].sum() < resource.units:
            caps[np.argmin(caps[:, r]), r] += 1
    repaired = Configuration.from_matrix(
        opt._repair_caps_batch(config.as_array()[None], caps, None)[0]
    )
    space.validate(repaired)
    assert (repaired.as_array() <= caps + 1e-9).all()


@given(data=space_and_config())
@settings(max_examples=60, deadline=None)
def test_round_with_pin_preserves_pinned_row(data):
    space, config, rng = data
    opt = AcquisitionOptimizer(space, rng=rng)
    pin_job = int(rng.integers(space.n_jobs))
    pin_row = config.job_allocation(pin_job)
    dropout = DropoutDecision(job_index=pin_job, allocation=pin_row)
    z = rng.random(space.n_dims)
    rounded = opt._round(z, dropout)
    space.validate(rounded)
    assert rounded.job_allocation(pin_job) == pin_row


@given(data=space_and_config())
@settings(max_examples=40, deadline=None)
def test_project_feasible_satisfies_column_sums(data):
    space, config, rng = data
    opt = AcquisitionOptimizer(space, rng=rng)
    z = rng.random(space.n_dims)
    projected = opt._project_feasible(z, None)
    cols = projected.reshape(space.n_jobs, space.n_resources)
    targets = opt._column_targets()
    assert np.allclose(cols.sum(axis=0), targets, atol=1e-9)
    assert (projected >= -1e-12).all() and (projected <= 1 + 1e-12).all()


@given(data=space_and_config())
@settings(max_examples=40, deadline=None)
def test_round_unpinned_matches_space_rounding(data):
    """Without a pin, the optimizer's rounding is exactly the space's."""
    space, config, rng = data
    opt = AcquisitionOptimizer(space, rng=rng)
    z = np.clip(rng.random(space.n_dims), 0.0, 1.0)
    assert opt._round(z, None) == space.from_unit_cube(z)
