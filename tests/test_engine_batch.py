"""Batched acquisition (``batch_k``).

The contract under test: ``batch_k=1`` (the default) is the paper's
sequential Algorithm 1, bit for bit; ``batch_k > 1`` trades some
sample-efficiency fidelity for wall-clock but must stay seed-
deterministic, observing each batch serially in candidate-rank order.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from conftest import make_node
from repro.core import CLITEConfig, CLITEEngine
from repro.telemetry import Telemetry
from test_core_termination_engine import small_engine_config


def trajectory(mini_server, *, seed=0, telemetry=None, **overrides):
    node = make_node(
        mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01, seed=seed
    )
    config = small_engine_config(seed=seed, telemetry=telemetry, **overrides)
    result = CLITEEngine(node, config).optimize()
    return [
        (
            sample.config.as_array().tobytes(),
            sample.score,
            sample.expected_improvement,
        )
        for sample in result.samples
    ]


class TestBatchConfigValidation:
    def test_batch_k_must_be_positive(self, mini_server):
        node = make_node(mini_server)
        with pytest.raises(ValueError, match="batch_k"):
            CLITEEngine(node, small_engine_config(batch_k=0))


class TestSequentialFidelity:
    def test_explicit_batch_k_1_matches_default(self, mini_server):
        """An explicit batch_k=1 is the default engine, bit for bit."""
        assert trajectory(mini_server) == trajectory(mini_server, batch_k=1)

    @pytest.mark.parametrize(
        "k, expected", [(1, "cab3e5512287e9a3"), (4, "34a7f5ddc6597c0a")]
    )
    def test_pinned_trajectory_digest(self, mini_server, k, expected):
        """Every sampled (config bytes, score, EI), pinned bitwise.

        A change that moves what BO samples at these batch sizes moves
        the digest; refresh it only together with the change's reason.
        """
        digest = hashlib.sha256()
        for config_bytes, score, ei in trajectory(mini_server, batch_k=k):
            digest.update(config_bytes)
            digest.update(struct.pack("<d", score))
            digest.update(b"none" if ei is None else struct.pack("<d", ei))
        assert digest.hexdigest()[:16] == expected


class TestBatchDeterminism:
    def test_same_seed_same_trajectory(self, mini_server):
        assert trajectory(mini_server, batch_k=4) == trajectory(
            mini_server, batch_k=4
        )

    def test_different_seeds_differ(self, mini_server):
        assert trajectory(mini_server, seed=0, batch_k=4) != trajectory(
            mini_server, seed=1, batch_k=4
        )


class TestBatchBudget:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_max_samples_respected(self, mini_server, k):
        """A batch never overshoots the total observation budget, even
        when the budget is not a multiple of k."""
        node = make_node(
            mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
        )
        config = small_engine_config(
            max_samples=11,
            max_iterations=50,
            post_qos_iterations=10**6,
            batch_k=k,
        )
        result = CLITEEngine(node, config).optimize()
        assert len(result.samples) <= 11

    def test_equal_budget_same_observation_count(self, mini_server):
        """With EI termination disabled, every k exhausts the budget."""
        counts = set()
        for k in (1, 4):
            node = make_node(
                mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
            )
            config = small_engine_config(
                max_samples=16,
                max_iterations=10**6,
                post_qos_iterations=10**6,
                batch_k=k,
            )
            counts.add(len(CLITEEngine(node, config).optimize().samples))
        assert len(counts) == 1


class TestBatchTelemetry:
    def test_batch_counters(self, mini_server):
        """Batched rounds observe through Node.observe, one counted
        window per sample, like every other engine phase."""
        telemetry = Telemetry.enabled()
        node = make_node(
            mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
        )
        config = small_engine_config(telemetry=telemetry, batch_k=4)
        result = CLITEEngine(node, config).optimize()
        snapshot = telemetry.metrics.snapshot()
        windows = snapshot["node.observe.windows"]["value"]
        assert windows == result.samples_taken == node.samples_taken
