"""Fixture: every FLOW (RPL8xx) rule fires.

The two ``Order*`` classes take each other's locks in opposite orders —
the textbook ABBA deadlock RPL801 exists to catch.  ``Chatty`` blocks
under its lock both directly and through a callee (the interprocedural
``via`` form).  ``fan_out`` hands an unregistered mutable object to a
worker thread; the lifecycle functions leak an ``open`` handle on every
path or only on exception paths; and the growth cases append to a
module global and a long-lived object's list from thread targets with
no eviction anywhere.
"""

import threading
import time

EVENTS = []  # module-level, only ever appended to


class OrderA:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def tangle(self, other: "OrderB") -> None:
        with self._lock:
            with other._lock:  # RPL801: OrderA._lock -> OrderB._lock
                pass


class OrderB:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def tangle(self, other: "OrderA") -> None:
        with self._lock:
            with other._lock:  # RPL801: OrderB._lock -> OrderA._lock
                pass


class Chatty:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pending = []

    def broadcast(self) -> None:
        with self._lock:
            time.sleep(0.01)  # RPL802: blocking directly under the lock

    def flush_all(self) -> None:
        with self._lock:
            self._drain()  # RPL802: callee blocks (interprocedural)

    def _drain(self) -> None:
        time.sleep(0.01)  # not under a lock *here*


class RequestState:
    """Mutable, unfrozen, unregistered: must not cross threads bare."""

    def __init__(self) -> None:
        self.fields = {}


def process(state: RequestState) -> None:
    state.fields["seen"] = True


def fan_out() -> None:
    state = RequestState()
    worker = threading.Thread(
        target=process, args=(state,)  # RPL803: state escapes unregistered
    )
    worker.start()
    worker.join()


def leak(path: str) -> str:
    fh = open(path)  # RPL804: never released
    data = fh.read()
    return data


def close_without_finally(path: str) -> str:
    fh = open(path)  # RPL804: an exception in read() leaks the handle
    data = fh.read()
    fh.close()
    return data


class Tally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def grab(self) -> None:
        self._lock.acquire()  # RPL804: never released
        self.count += 1

    def bump(self) -> None:
        self._lock.acquire()  # RPL804: release not in a finally
        self.count += 1
        self._lock.release()


def pump() -> None:
    EVENTS.append(1)  # RPL805: grows forever, reachable from a thread


def spin() -> None:
    worker = threading.Thread(target=pump)
    worker.start()


class EventLog:
    """Long-lived object whose list only grows from its own worker."""

    def __init__(self) -> None:
        self.entries = []
        self._worker = threading.Thread(target=self.record)

    def record(self) -> None:
        self.entries.append(len(EVENTS))  # RPL805
