"""Fixture: the same shapes as ``cost_bad.py``, done right.

Every method below carries the same budgets as its bad twin, and
silence here is what the COST family's precision rests on: incremental
dirty-set drains instead of fleet scans, cross-family (n_jobs x
n_nodes) products left alone, bounded slices of sorted candidates,
values computed once and threaded down, and a registry whose every
entry resolves, parses, and budgets its hot entry points.
"""

from typing import Dict, List, Set, Tuple


class Fleet:
    """Cluster-shaped state; the test config sizes its collections."""

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.jobs: Dict[str, int] = {}


class GoodService:
    def __init__(self) -> None:
        self.fleet = Fleet()
        self.dirty: Set[int] = set()
        self.queue: List[int] = []
        self.max_probe = 4

    def handle(self, t: float) -> int:
        """Budgeted O(small): drains the commit-maintained dirty set."""
        total = 0
        for index in sorted(self.dirty):
            total += index
        self.dirty.clear()
        return total

    def deep(self, t: float) -> int:
        """Budgeted O(small): the callee chain stays constant-cost."""
        return self._helper(t)

    def _helper(self, t: float) -> int:
        return self._peek(t)

    def _peek(self, t: float) -> int:
        return len(self.fleet.nodes) + int(t)

    def placement_matrix(self) -> List[Tuple[str, int]]:
        """Cross-family n_jobs x n_nodes product: deliberate, silent."""
        pairs = []
        for name in self.fleet.jobs:
            for node in self.fleet.nodes:
                pairs.append((name, node))
        return pairs

    def probe(self, t: float) -> int:
        """Budgeted O(small): a bounded slice of the candidate list."""
        best = -1
        for index in self.queue[: self.max_probe]:
            if index > best:
                best = index
        return best

    def recheck(self, t: float) -> bool:
        """Budgeted O(n_nodes): computes the loads once, threads them
        down."""
        loads = self.loads_of(3, t)
        return self._verify(loads)

    def _verify(self, loads: Tuple[float, ...]) -> bool:
        return all(load >= 0 for load in loads)

    def loads_of(self, index: int, t: float) -> Tuple[float, ...]:
        """One pass over the fleet."""
        loads = []
        for node in self.fleet.nodes:
            loads.append(node + t + index)
        return tuple(loads)
