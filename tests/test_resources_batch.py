"""The vectorized batch APIs must agree with their scalar counterparts.

``random_batch`` / ``to_unit_cube_batch`` / ``from_unit_cube_batch`` /
``neighbor_matrices`` exist purely for speed; every slice of a batch
result must be a configuration the scalar API could have produced, and
the batch sampler must draw from the same distribution as ``random``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import (
    Configuration,
    ConfigurationSpace,
    Resource,
    ServerSpec,
)
from repro.resources.allocation import _round_column, _round_columns_batch


@st.composite
def spaces(draw):
    n_res = draw(st.integers(1, 3))
    n_jobs = draw(st.integers(1, 4))
    units = [draw(st.integers(n_jobs, n_jobs + 8)) for _ in range(n_res)]
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    return ConfigurationSpace(server, n_jobs)


def _per_column_projection(space, x):
    """Reference lattice projection: one scalar rounding per resource."""
    vec = np.asarray(x, dtype=float).reshape(space.n_jobs, space.n_resources)
    matrix = np.empty((space.n_jobs, space.n_resources), dtype=int)
    for r, resource in enumerate(space.spec.resources):
        matrix[:, r] = _round_column(
            np.clip(vec[:, r], 0.0, 1.0), resource.units
        )
    return Configuration.from_matrix(matrix)


class TestRandomBatch:
    @given(space=spaces(), n=st.integers(0, 30), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_draw_is_a_valid_partition(self, space, n, seed):
        batch = space.random_batch(n, np.random.default_rng(seed))
        assert batch.shape == (n, space.n_jobs, space.n_resources)
        for matrix in batch:
            space.validate(Configuration.from_matrix(matrix))

    def test_distribution_matches_scalar_random(self):
        """Same stars-and-bars law as ``random``: compare per-cell mean
        allocations over many draws (documented equivalence — the two
        consume the generator stream differently, so draws are not
        bitwise equal)."""
        server = ServerSpec(
            resources=(Resource("cores", 10), Resource("ways", 7))
        )
        space = ConfigurationSpace(server, 3)
        n = 4000
        batch = space.random_batch(n, np.random.default_rng(0))
        scalar = np.array(
            [
                space.random(np.random.default_rng(1000 + i)).as_array()
                for i in range(n)
            ]
        )
        # Uniform compositions give each job units/n_jobs on average.
        expected = np.array([[10 / 3, 7 / 3]] * 3)
        np.testing.assert_allclose(batch.mean(axis=0), expected, atol=0.1)
        np.testing.assert_allclose(scalar.mean(axis=0), expected, atol=0.1)
        np.testing.assert_allclose(
            batch.mean(axis=0), scalar.mean(axis=0), atol=0.15
        )
        # Second moment too: spreads must match, not just centers.
        np.testing.assert_allclose(
            batch.std(axis=0), scalar.std(axis=0), atol=0.15
        )

    def test_single_job_gets_everything(self):
        server = ServerSpec(resources=(Resource("cores", 5),))
        space = ConfigurationSpace(server, 1)
        batch = space.random_batch(4, np.random.default_rng(0))
        assert (batch == 5).all()


class TestCubeBatch:
    @given(space=spaces(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_to_unit_cube_batch_matches_scalar(self, space, seed):
        batch = space.random_batch(8, np.random.default_rng(seed))
        cube = space.to_unit_cube_batch(batch)
        for i, matrix in enumerate(batch):
            expected = space.to_unit_cube(Configuration.from_matrix(matrix))
            np.testing.assert_array_equal(cube[i], expected)

    @given(space=spaces(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_from_unit_cube_batch_matches_scalar(self, space, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((10, space.n_dims))
        mats = space.from_unit_cube_batch(x)
        for i in range(len(x)):
            assert (
                Configuration.from_matrix(mats[i]) == space.from_unit_cube(x[i])
            )

    @pytest.mark.parametrize("n_jobs", range(2, 9))
    def test_one_projection_path_matches_per_column_loop(self, n_jobs):
        rng = np.random.default_rng(100 + n_jobs)
        server = ServerSpec(
            resources=tuple(
                Resource(f"r{i}", int(rng.integers(n_jobs, 3 * n_jobs + 12)))
                for i in range(int(rng.integers(1, 6)))
            )
        )
        space = ConfigurationSpace(server, n_jobs)
        x = rng.uniform(-0.2, 1.2, (300, space.n_dims))
        x[:100] = np.round(x[:100] * 4) / 4  # coarse weights: remainder ties
        x[0] = 0.0  # degenerate all-zero columns fall back to equal split
        batch = space.from_unit_cube_batch(x)
        for i, row in enumerate(x):
            single = space.from_unit_cube(row)
            assert single == Configuration.from_matrix(
                space.from_unit_cube_batch(row[None])[0]
            )
            assert single == Configuration.from_matrix(batch[i])
            assert single == _per_column_projection(space, row)

    def test_round_trip(self):
        server = ServerSpec(
            resources=(Resource("cores", 9), Resource("ways", 6))
        )
        space = ConfigurationSpace(server, 3)
        batch = space.random_batch(20, np.random.default_rng(2))
        round_trip = space.from_unit_cube_batch(space.to_unit_cube_batch(batch))
        np.testing.assert_array_equal(round_trip, batch)


class TestNeighborMatrices:
    @given(space=spaces(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_neighbors_order_and_content(self, space, seed):
        config = space.random(np.random.default_rng(seed))
        mats = space.neighbor_matrices(config)
        expected = list(space.neighbors(config))
        assert len(mats) == len(expected)
        for matrix, neighbor in zip(mats, expected):
            assert Configuration.from_matrix(matrix) == neighbor


class TestRoundColumnsBatch:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_jobs=st.integers(1, 5),
        spare=st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_round_column(self, seed, n_jobs, spare):
        rng = np.random.default_rng(seed)
        total = n_jobs + spare
        weights = rng.random((12, n_jobs))
        weights[0] = 0.0  # degenerate all-zero row falls back to equal split
        batch = _round_columns_batch(weights, total)
        for i in range(len(weights)):
            np.testing.assert_array_equal(
                batch[i], _round_column(weights[i], total)
            )
        assert (batch >= 1).all()
        assert (batch.sum(axis=1) == total).all()
