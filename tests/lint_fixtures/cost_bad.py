"""Fixture: every COST-family (RPL10xx) hazard, one per method.

A scheduler-shaped service whose event handlers carry declared budgets
(wired up by the test config) and then blow through them: a
fleet-sized scan under an O(small) budget — directly and through a
two-deep callee chain — a same-family quadratic, and an n_nodes-sized
materialization on a hot path.  The config also registers one stale
budget entry, one unparseable budget expression, and one unbudgeted hot
entry point, so the registry-health rule has something to report.
"""

from typing import Dict, List, Tuple


class Fleet:
    """Cluster-shaped state; the test config sizes its collections."""

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.jobs: Dict[str, int] = {}


class BadService:
    def __init__(self) -> None:
        self.fleet = Fleet()

    def handle(self, t: float) -> int:
        """Budgeted O(small), hot: scans the whole fleet per event."""
        total = 0
        for node in self.fleet.nodes:
            total += node
        return total

    def deep(self, t: float) -> int:
        """Budgeted O(small): the scan hides two calls down."""
        return self._helper(t)

    def _helper(self, t: float) -> int:
        return self._scan(t)

    def _scan(self, t: float) -> int:
        busy = 0
        for node in self.fleet.nodes:
            if node > t:
                busy += 1
        return busy

    def quad(self) -> List[Tuple[int, int]]:
        """Nested loops over the same n_nodes axis: provable O(N^2)."""
        pairs = []
        for a in self.fleet.nodes:
            for b in self.fleet.nodes:
                pairs.append((a, b))
        return pairs

    def hot_alloc(self, t: float) -> List[int]:
        """Budgeted O(n_nodes) but hot: the sorted() copy is the hit."""
        return sorted(self.fleet.nodes)

    def unbudgeted_hot(self, t: float) -> int:
        """Registered hot but missing from the budgets table."""
        return int(t)
