"""Host speed, measured by a fixed reference kernel between decisions.

On a shared virtual machine the same work can run 1.5 times slower from
one half-minute to the next, with no steal time to show for it: the
host's other tenants slow every instruction.  Ten runs of one workload
then spread by a quarter or more, whatever the program does.

:class:`HostSpeed` measures that drift and takes it out.  Between
decisions, never inside one, it times a fixed kernel (pure Python and
numpy calls on small arrays, the two kinds of work the program does) and
scales each decision's wall time by ``REFERENCE_S / kernel time``, the
kernel time being the mean of the measurements just before and just
after the decision.  A scaled time reads as wall time on a host that
runs the kernel in exactly :data:`REFERENCE_S`; the kernel never calls
the program, so a change to the program moves scaled and raw times
alike.
"""

from __future__ import annotations

import statistics
from typing import List

import numpy as np

from repro.telemetry import WallClock

CLOCK = WallClock()

#: Kernel seconds a scaled time is expressed at (about this kernel's
#: median on a 2.1 GHz virtual CPU).
REFERENCE_S = 0.010
#: Decision seconds between two kernel measurements.
EVERY_S = 0.25
#: Kernel runs per measurement, at least; the measurement is their
#: median.
REPEATS = 3
#: After a long decision the measurement runs longer, for this share of
#: the decision time: a measurement that spans more of the host's
#: current pace stands for a long decision better than three short runs.
SHARE = 0.05

_RNG = np.random.default_rng(0)
_A = _RNG.random((16, 16))
_SPD = _A @ _A.T + 16 * np.eye(16)
_X = _RNG.random((40, 6))
_Q = _RNG.random((12, 6))
_V = _RNG.random(200)


def kernel() -> float:
    """A fixed mix of interpreter work and numpy calls on small arrays,
    where call overhead, not arithmetic, sets the time — as in the
    program's GP predictions and allocation rounding."""
    table: dict = {}
    acc = 0.0
    for i in range(4000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(round(i * 0.37, 2) - i * 0.37)
    for _ in range(120):
        lower = np.linalg.cholesky(_SPD)
        acc += float(np.linalg.solve(lower, _X[:16, 0])[0])
        dist = ((_Q[:, None, :] - _X[None, :, :]) ** 2).sum(-1)
        acc += float(np.exp(-dist).sum()) + float(_V.argsort()[0])
    return acc


def measure(after_s: float = 0.0) -> float:
    """One kernel measurement after ``after_s`` seconds of decisions:
    the median of :data:`REPEATS` runs, or of enough runs to last
    :data:`SHARE` of ``after_s``."""
    times = []
    for _ in range(max(REPEATS, round(SHARE * after_s / REFERENCE_S))):
        t0 = CLOCK.now()
        kernel()
        times.append(CLOCK.now() - t0)
    return statistics.median(times)


class HostSpeed:
    """Raw decision times in, host-speed-scaled times out.

    :meth:`add` takes one decision's raw wall seconds and measures the
    kernel once at least :data:`EVERY_S` of decisions have gone by since
    the last measurement; :meth:`finish` measures once more and returns
    every added time scaled by the measurements around it.
    """

    def __init__(self) -> None:
        self._kernel_s: List[float] = [measure()]
        self._raw: List[float] = []
        self._segment: List[int] = []
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self._raw.append(seconds)
        self._segment.append(len(self._kernel_s) - 1)
        self._since += seconds
        if self._since >= EVERY_S:
            self._kernel_s.append(measure(self._since))
            self._since = 0.0

    def finish(self) -> List[float]:
        """Every added time, scaled to :data:`REFERENCE_S`, in order."""
        self._kernel_s.append(measure(self._since))
        k = self._kernel_s
        return [
            raw * REFERENCE_S * 2 / (k[seg] + k[seg + 1])
            for raw, seg in zip(self._raw, self._segment)
        ]

    @property
    def kernel_s(self) -> List[float]:
        """Every kernel measurement so far, in order."""
        return list(self._kernel_s)
