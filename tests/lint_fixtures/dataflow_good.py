"""Fixture: no DATAFLOW (RPL6xx) findings.

Every attribute write on the guarded cache holds its lock on all
paths — including the branchy method, which acquires on *both* arms.
"""

import threading


class GuardedCache:
    """Lock-disciplined shared object: every write holds ``_lock``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entries = {}
        self.hits = 0

    def put(self, key, value) -> None:
        with self._lock:
            self.entries[key] = value

    def bump(self) -> None:
        with self._lock:
            self.hits += 1

    def branchy(self, flag: bool) -> None:
        if flag:
            self._lock.acquire()
        else:
            self._lock.acquire()
        self.hits += 1  # lock held on all paths
        self._lock.release()
