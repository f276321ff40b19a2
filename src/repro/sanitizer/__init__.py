"""repro-san: runtime race and determinism sanitizer.

The thread-safety checks of the correctness tooling all run here, on the
code as it executes.  Shadow-instruments shared objects to detect
lock-discipline violations at runtime: data races TSan-style, and
lock-order cycles, self-deadlocks and blocking calls under a lock
lockdep-style.  Also probes callables for hash-order-dependent output
across ``PYTHONHASHSEED`` universes.

Usage::

    from repro.sanitizer import instrument

    with instrument(registry, cache) as san:
        run_workload()
    assert san.races() == [] and san.lock_reports() == []

Production code registers its shared objects through
:func:`register_shared`, which is a no-op (a single ``None`` check)
unless a sanitizer is active.
"""

from .hashorder import (
    DEFAULT_HASH_SEEDS,
    ProbeError,
    ProbeResult,
    diff_outputs,
    hash_order_probe,
)
from .hooks import activate, active_sanitizer, deactivate, register_shared
from .shadow import (
    AccessRecord,
    LockReport,
    RaceReport,
    Sanitizer,
    SelfDeadlockError,
    instrument,
)

__all__ = [
    "AccessRecord",
    "DEFAULT_HASH_SEEDS",
    "LockReport",
    "ProbeError",
    "ProbeResult",
    "RaceReport",
    "Sanitizer",
    "SelfDeadlockError",
    "activate",
    "active_sanitizer",
    "deactivate",
    "diff_outputs",
    "hash_order_probe",
    "instrument",
    "register_shared",
]
