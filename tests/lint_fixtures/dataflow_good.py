"""Fixture: no DATAFLOW (RPL6xx) findings.

Every generator reaching a ``Generator``-typed parameter is
seed-derived (explicit seed, ``resolve_rng``, or ``spawn``); only clock
instances reach ``Clock``-typed parameters; and every attribute write
on the guarded cache holds its lock on all paths — including the
branchy method, which acquires on *both* arms.
"""

import threading

import numpy as np
from numpy.random import Generator


def consume(rng: Generator) -> float:
    return float(rng.random())


def seeded_local() -> float:
    rng = np.random.default_rng(7)  # explicit seed
    return consume(rng)


def seeded_generator_over_pcg() -> float:
    gen = np.random.Generator(np.random.PCG64(1234))
    return consume(gen)


def spawned_child(parent: Generator) -> float:
    child = parent.spawn(1)[0]
    return consume(child)


def int_seed_is_fine() -> float:
    seed = 7
    rng = np.random.default_rng(seed)
    payload = {"rng": rng}
    return consume(payload["rng"])


class Clock:
    def now_s(self) -> float:
        return 0.0


class TickClock(Clock):
    def __init__(self) -> None:
        self._now = 0.0

    def now_s(self) -> float:
        return self._now


def measure(clock: Clock) -> float:
    return clock.now_s()


def timed_run() -> float:
    clock = TickClock()  # a real Clock subclass
    return measure(clock)


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

