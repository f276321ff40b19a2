"""Runtime partition contracts: matrix checks, every decorator, the
REPRO_CONTRACTS toggle, and the real ConfigurationSpace constructors."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.resources import Resource, ServerSpec
from repro.resources.allocation import Configuration, ConfigurationSpace
from repro.resources.contracts import (
    ContractViolation,
    check_partition_matrix,
    contracts_enabled,
    partition_contract,
    placement_contract,
    policy_contract,
    proposal_contract,
    set_contracts_enabled,
)


def make_space(units=6, n_jobs=2):
    spec = ServerSpec(
        resources=(Resource("cores", units), Resource("llc_ways", units))
    )
    return ConfigurationSpace(spec, n_jobs=n_jobs)


# ----------------------------------------------------------------------
# The core matrix check
# ----------------------------------------------------------------------
class TestCheckPartitionMatrix:
    CAPS = (6, 6)

    def test_valid_matrix_passes(self):
        check_partition_matrix([[2, 3], [4, 3]], self.CAPS, "t")

    def test_valid_batch_passes(self):
        batch = np.array([[[2, 3], [4, 3]], [[1, 1], [5, 5]]])
        check_partition_matrix(batch, self.CAPS, "t")

    def test_fractional_units_rejected(self):
        with pytest.raises(ContractViolation, match="integer"):
            check_partition_matrix([[2.5, 3], [3.5, 3]], self.CAPS, "t")

    def test_whole_valued_floats_accepted(self):
        check_partition_matrix([[2.0, 3.0], [4.0, 3.0]], self.CAPS, "t")

    def test_zero_unit_rejected(self):
        with pytest.raises(ContractViolation, match="Eq. 5"):
            check_partition_matrix([[0, 3], [6, 3]], self.CAPS, "t")

    def test_bad_column_sum_rejected(self):
        with pytest.raises(ContractViolation, match="Eq. 6"):
            check_partition_matrix([[2, 3], [3, 3]], self.CAPS, "t")

    def test_bad_ndim_rejected(self):
        with pytest.raises(ContractViolation, match="2-D"):
            check_partition_matrix([1, 2, 3], self.CAPS, "t")

    def test_context_named_in_error(self):
        with pytest.raises(ContractViolation, match="Who.did_it"):
            check_partition_matrix([[0, 3], [6, 3]], self.CAPS, "Who.did_it")

    def test_batch_reports_the_first_failing_matrix(self):
        batch = np.array([[[2, 3], [4, 3]], [[2, 3], [3, 2]]])
        with pytest.raises(ContractViolation) as caught:
            check_partition_matrix(batch, self.CAPS, "t")
        message = str(caught.value)
        assert "got [5, 5]" in message and "(matrix 1 of the batch)" in message
        assert "[6, 6]) (Eq. 6); got [6, 6]" not in message


# ----------------------------------------------------------------------
# Decorators on synthetic hosts (isolates the wrapper logic)
# ----------------------------------------------------------------------
class FakeSpace:
    def __init__(self, caps):
        self.spec = SimpleNamespace(
            resources=[SimpleNamespace(units=c) for c in caps]
        )

    @partition_contract
    def make(self, matrix):
        return np.asarray(matrix)


class FakeOptimizer:
    def __init__(self, caps):
        self.space = FakeSpace(caps)

    @proposal_contract
    def propose(self, matrices):
        return SimpleNamespace(
            candidates=[
                SimpleNamespace(config=np.asarray(m)) for m in matrices
            ]
        )


class TestPartitionAndProposalContracts:
    def test_partition_contract_passes_valid(self):
        out = FakeSpace((6, 6)).make([[2, 3], [4, 3]])
        assert out.shape == (2, 2)

    def test_partition_contract_rejects_invalid(self):
        with pytest.raises(ContractViolation, match="FakeSpace.make"):
            FakeSpace((6, 6)).make([[2, 3], [3, 3]])

    def test_proposal_contract_checks_every_candidate(self):
        opt = FakeOptimizer((6, 6))
        opt.propose([[[2, 3], [4, 3]]])  # valid
        with pytest.raises(ContractViolation, match="FakeOptimizer.propose"):
            opt.propose([[[2, 3], [4, 3]], [[0, 3], [6, 3]]])

    def test_proposal_contract_allows_empty(self):
        assert FakeOptimizer((6, 6)).propose([]).candidates == []


class FakePolicy:
    @policy_contract
    def partition(self, node, budget):
        return self.result


class TestPolicyContract:
    def _call(self, result, max_samples=10):
        policy = FakePolicy()
        policy.result = result
        node = SimpleNamespace(space=FakeSpace((6, 6)))
        budget = SimpleNamespace(max_samples=max_samples)
        return policy.partition(node, budget)

    def _result(self, **overrides):
        base = dict(
            best_config=np.array([[2, 3], [4, 3]]),
            best_observation=SimpleNamespace(all_qos_met=True),
            qos_met=True,
            trace=[0] * 3,
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_consistent_result_passes(self):
        self._call(self._result())

    def test_invalid_best_config_rejected(self):
        with pytest.raises(ContractViolation, match="Eq. 6"):
            self._call(self._result(best_config=np.array([[2, 3], [3, 3]])))

    def test_qos_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="qos_met"):
            self._call(self._result(qos_met=False))

    def test_budget_overrun_rejected(self):
        with pytest.raises(ContractViolation, match="budget"):
            self._call(self._result(trace=[0] * 11))

    def test_none_best_config_allowed(self):
        self._call(
            self._result(best_config=None, best_observation=None, qos_met=False)
        )


@placement_contract
def fake_place(cluster, requests, outcome):
    return outcome


class TestPlacementContract:
    def _call(self, outcome, n_nodes=3, names=()):
        cluster = SimpleNamespace(nodes=[None] * n_nodes)
        requests = [SimpleNamespace(request_name=n) for n in names]
        return fake_place(cluster, requests, outcome)

    def _outcome(self, **overrides):
        base = dict(
            placements={"a": 0, "b": 1},
            rejected=("c",),
            machines_used=2,
        )
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_consistent_outcome_passes(self):
        self._call(self._outcome())

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ContractViolation, match="nonexistent node"):
            self._call(self._outcome(placements={"a": 5}, machines_used=1))

    def test_placed_and_rejected_overlap_rejected(self):
        with pytest.raises(ContractViolation, match="both placed"):
            self._call(self._outcome(rejected=("a",)))

    def test_repeated_name_may_be_placed_and_rejected(self):
        """A stream that repeats a name places one copy and rejects the
        next; more rejections than repeats is still an overlap."""
        outcome = self._outcome(rejected=("a", "c"))
        self._call(outcome, names=("a", "a", "b", "c"))
        with pytest.raises(ContractViolation, match="both placed"):
            self._call(
                self._outcome(rejected=("a", "a")), names=("a", "a", "b")
            )

    def test_machine_count_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="machines_used"):
            self._call(self._outcome(machines_used=9))


# ----------------------------------------------------------------------
# Configuration results: the tuple screen decides as the matrix check
# ----------------------------------------------------------------------
class FakeConfigSpace(FakeSpace):
    """Returns Configuration-likes: ``units`` rows plus ``as_array``."""

    @partition_contract
    def make_config(self, units):
        return SimpleNamespace(units=units, as_array=lambda: np.array(units))


def _outcome(call):
    """``None`` when ``call`` passes, else the error's type and text."""
    try:
        call()
    except Exception as exc:  # the comparison covers every error kind
        return type(exc), str(exc)
    return None


class TestConfigurationContract:
    CAPS = (6, 6)
    CONTEXT = "FakeConfigSpace.make_config"

    CASES = {
        "valid": ((2, 3), (4, 3)),
        "zero unit": ((0, 3), (6, 3)),
        "fractional": ((2.5, 3), (3.5, 3)),
        "whole-valued float": ((3.0, 3), (3, 3)),
        "numpy ints": ((np.int64(2), np.int64(3)), (np.int64(4), np.int64(3))),
        "bad column sum": ((2, 3), (3, 3)),
        "bool units": ((True, 3), (5, 3)),
        "short row": ((2, 3), (4,)),
        "long row": ((2, 3), (4, 3, 1)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_verdict_and_error_as_the_matrix_check(self, case):
        units = self.CASES[case]
        space = FakeConfigSpace(self.CAPS)
        want = _outcome(
            lambda: check_partition_matrix(
                np.array(units), self.CAPS, self.CONTEXT
            )
        )
        assert _outcome(lambda: space.make_config(units)) == want
        if case in ("valid", "whole-valued float", "numpy ints"):
            assert want is None
        elif case in ("zero unit", "fractional", "bad column sum"):
            assert want[0] is ContractViolation

    def test_real_space_rejects_a_bad_configuration(self):
        space = make_space()
        space._equal = Configuration(((1, 1), (1, 1)))
        with pytest.raises(ContractViolation, match="got \\[2, 2\\]"):
            space.equal_partition()

    def test_disabled_contracts_skip_the_screen(self, monkeypatch):
        from repro.resources import contracts

        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert not contracts._env_enabled()
        previous = set_contracts_enabled(contracts._env_enabled())
        try:
            out = FakeConfigSpace(self.CAPS).make_config(((9, 9), (9, 9)))
            assert out.units == ((9, 9), (9, 9))
        finally:
            set_contracts_enabled(previous)


# ----------------------------------------------------------------------
# Toggle
# ----------------------------------------------------------------------
class TestToggle:
    def test_disabled_contracts_skip_checks(self):
        previous = set_contracts_enabled(False)
        try:
            assert not contracts_enabled()
            FakeSpace((6, 6)).make([[9, 9], [9, 9]])  # invalid, unchecked
        finally:
            set_contracts_enabled(previous)
        assert contracts_enabled() == previous

    def test_toggle_returns_previous_value(self):
        previous = set_contracts_enabled(True)
        assert set_contracts_enabled(previous) is True


# ----------------------------------------------------------------------
# The real constructors carry live contracts
# ----------------------------------------------------------------------
class TestRealConstructors:
    def test_all_constructors_satisfy_contracts(self):
        space = make_space()
        rng = np.random.default_rng(0)
        space.equal_partition()
        space.max_allocation(0)
        space.random(rng)
        space.random_batch(4, rng)
        space.from_unit_cube([0.5] * space.n_dims)
        space.from_unit_cube_batch(rng.random((4, space.n_dims)))

    def test_contracts_are_wrapped(self):
        # functools.wraps preserves names; the wrapper is detectable.
        assert ConfigurationSpace.equal_partition.__name__ == "equal_partition"
        assert (
            ConfigurationSpace.equal_partition.__wrapped__.__name__
            == "equal_partition"
        )
