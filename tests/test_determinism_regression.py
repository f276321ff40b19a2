"""Seed-determinism regression: the RPL101 fixes must make identical
runs bit-identical, and components must refuse ambient entropy."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_node
from repro.core import CLITEEngine
from repro.core.dropout import DropoutCopy
from repro.core.optimizer import AcquisitionOptimizer
from repro.core.rng import resolve_rng
from repro.telemetry import Telemetry
from test_core_termination_engine import small_engine_config


class TestResolveRng:
    def test_none_is_refused_loudly(self):
        with pytest.raises(ValueError, match="CLITEConfig.seed"):
            resolve_rng(None, owner="TestComponent")

    def test_owner_named_in_error(self):
        with pytest.raises(ValueError, match="TestComponent"):
            resolve_rng(None, owner="TestComponent")

    def test_generator_passes_through_unwrapped(self):
        gen = np.random.default_rng(3)
        assert resolve_rng(gen, owner="t") is gen

    def test_int_seed_builds_equivalent_generator(self):
        for seed in (0, 7, 2**40 + 3, np.int64(7), np.uint32(123), np.int8(5)):
            ours = resolve_rng(seed, owner="t")
            reference = np.random.default_rng(seed)
            for draw in (
                lambda g: g.random(4),
                lambda g: g.integers(0, 1000, size=4),
                lambda g: g.normal(size=4),
                lambda g: g.permutation(6),
            ):
                np.testing.assert_array_equal(draw(ours), draw(reference))

    def test_numpy_integer_seed_accepted(self):
        resolve_rng(np.int64(7), owner="t")

    def test_wrong_type_rejected(self):
        # A bool is an int to isinstance, but True is no seed.
        for wrong in ("seed", True, False, np.bool_(True)):
            with pytest.raises(TypeError, match="Generator or int"):
                resolve_rng(wrong, owner="t")


class TestComponentsRequireRng:
    """The two unseeded-fallback bugs must stay fixed (RPL101)."""

    def test_dropout_copy_refuses_missing_rng(self):
        with pytest.raises(ValueError, match="DropoutCopy"):
            DropoutCopy()

    def test_dropout_copy_accepts_seed(self):
        DropoutCopy(rng=0)

    def test_acquisition_optimizer_refuses_missing_rng(self, quiet_node):
        with pytest.raises(ValueError, match="AcquisitionOptimizer"):
            AcquisitionOptimizer(quiet_node.space)

    def test_acquisition_optimizer_accepts_seed(self, quiet_node):
        AcquisitionOptimizer(quiet_node.space, rng=0)


def run_trajectory(mini_server, seed, telemetry=None):
    node = make_node(
        mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01, seed=seed
    )
    config = small_engine_config(seed=seed, telemetry=telemetry)
    result = CLITEEngine(node, config).optimize()
    return [
        (
            sample.config.as_array().tobytes(),
            sample.score,
            sample.expected_improvement,
        )
        for sample in result.samples
    ]


class TestBitIdenticalRuns:
    def test_same_seed_same_trajectory(self, mini_server):
        """Two runs with one seed agree on every sample, bit for bit."""
        first = run_trajectory(mini_server, seed=11)
        second = run_trajectory(mini_server, seed=11)
        assert first == second

    def test_different_seed_diverges(self, mini_server):
        """The seed actually steers the search (guards against a
        constant-trajectory false pass above)."""
        first = run_trajectory(mini_server, seed=11)
        second = run_trajectory(mini_server, seed=12)
        assert first != second

    def test_telemetry_does_not_perturb_the_trajectory(self, mini_server):
        """Tracing draws no RNG and reads no wall clock, so enabling it
        must leave the same-seed trajectory bit-identical."""
        plain = run_trajectory(mini_server, seed=11)
        traced = run_trajectory(
            mini_server, seed=11, telemetry=Telemetry.enabled()
        )
        assert plain == traced
