"""Runtime fixtures for repro-san: a deliberately racy accumulator and
hash-order probe targets.

Lives under ``lint_fixtures`` so the repo-wide lint sweep skips it —
the whole point of :class:`RacyAccumulator` is to violate the lock
discipline repro-san checks.
"""

import threading


class RacyAccumulator:
    """Half lock-disciplined, half deliberately broken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.unguarded = 0   # written with no lock: the seeded race
        self.guarded = 0     # every access under self._lock
        self.read_only = 7   # written once pre-sharing, then only read

    def bump_unguarded(self, n=100):
        for _ in range(n):
            self.unguarded += 1

    def bump_guarded(self, n=100):
        for _ in range(n):
            with self._lock:
                self.guarded += 1

    def peek_unguarded(self):
        total = 0
        for _ in range(100):
            total += self.unguarded
        return total

    def read_shared(self):
        return self.read_only


def ordered_trajectory():
    """Hash-order independent: iterates sorted, same in every universe."""
    keys = {f"job-{i}": i * i for i in range(50)}
    return [keys[name] for name in sorted(keys)]


def hash_dependent_trajectory():
    """Hash-order DEPENDENT: set iteration order leaks into the output."""
    names = {f"job-{i}" for i in range(50)}
    return [name for name in names]
