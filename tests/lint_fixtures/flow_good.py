"""Fixture: compliant concurrency & lifecycle idioms — zero FLOW findings.

Mirror of ``flow_bad.py``: the same shapes done right.  Locks are taken
in one global order everywhere; the RLock helper re-enters legally;
blocking work happens after the lock is released; thread arguments are
frozen or self-registering; resources use ``with`` / ``finally`` /
ownership transfer; and every growing container has an eviction path,
a ``len()`` bound guard, or a ``deque(maxlen=...)`` bound.
"""

import collections
import threading
import time
from dataclasses import dataclass

from repro.sanitizer import register_shared

RING = collections.deque(maxlen=64)  # bounded: append-only is fine

EVENTS = []  # grows in pump(), drained in drain()


class First:
    def __init__(self) -> None:
        self._lock = threading.Lock()


class Second:
    def __init__(self) -> None:
        self._lock = threading.Lock()


def locked_pair(first: First, second: Second) -> int:
    with first._lock:
        with second._lock:  # consistent order: First before Second
            return 1


def locked_pair_again(first: First, second: Second) -> int:
    with first._lock:
        with second._lock:  # same order: no cycle
            return 2


class Reentrant:
    """Self-guarding helpers re-take the RLock: legal, not a deadlock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.value = 0

    def bump(self) -> None:
        with self._lock:
            self._bump_inner()

    def _bump_inner(self) -> None:
        with self._lock:
            self.value += 1


class Quiet:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pending = []

    def broadcast(self) -> None:
        with self._lock:
            batch = list(self.pending)
            self.pending.clear()
        time.sleep(0.01)  # blocking *after* the lock is released
        del batch


@dataclass(frozen=True)
class Snapshot:
    """Frozen payloads may cross threads freely."""

    value: int


class SharedBuf:
    """Registers itself with the sanitizer hooks: a known shared object."""

    def __init__(self) -> None:
        self.slots = {}
        register_shared(self)


def consume(snap: Snapshot, buf: SharedBuf) -> None:
    buf.slots[snap.value] = True


def fan_out() -> None:
    snap = Snapshot(value=1)
    buf = SharedBuf()
    # frozen + registered: fine
    worker = threading.Thread(target=consume, args=(snap, buf))
    worker.start()
    worker.join()


def read_with(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def read_finally(path: str) -> str:
    fh = open(path)
    try:
        return fh.read()
    finally:
        fh.close()


def open_for_caller(path: str):
    fh = open(path)
    return fh  # ownership transferred to the caller


class HandleHolder:
    def __init__(self, path: str) -> None:
        self.fh = open(path)  # owned by the object, closed there

    def close(self) -> None:
        self.fh.close()


class SafeTally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        self._lock.acquire()
        try:
            self.count += 1
        finally:
            self._lock.release()


def pump_ring() -> None:
    RING.append(1)  # deque(maxlen=...): bounded by construction


def pump() -> None:
    EVENTS.append(1)


def drain() -> None:
    while EVENTS:
        EVENTS.pop()  # the eviction path RPL805 looks for


def spin() -> None:
    worker = threading.Thread(target=pump_ring)
    feeder = threading.Thread(target=pump)
    worker.start()
    feeder.start()


class BoundedLog:
    """Long-lived log whose growth is len()-guarded at the growth site."""

    def __init__(self) -> None:
        self.entries = []
        self._worker = threading.Thread(target=self.record)
        register_shared(self, container_attrs=("entries",))

    def record(self) -> None:
        if len(self.entries) < 100:
            self.entries.append(1)
