"""Fixture: the DATAFLOW rule (RPL603) fires on both write shapes."""

import threading


class GuardedCache:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entries = {}
        self.hits = 0

    def put(self, key, value) -> None:
        self.entries[key] = value  # RPL603: no lock held

    def bump_one_branch(self, flag: bool) -> None:
        if flag:
            self._lock.acquire()
        self.hits += 1  # RPL603: lock held on only one path
