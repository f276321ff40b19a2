"""Simulated performance counters.

CLITE observes co-located jobs through hardware performance counters
over a (default two-second) observation window, so every measurement the
controller sees carries sampling noise.  This module injects that noise:
multiplicative log-normal perturbations on tail latency and throughput,
with a magnitude that shrinks for longer windows (more queries sampled,
as Sec. 4 of the paper discusses when motivating the window length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.units import Seconds

#: The paper's default observation period (Sec. 4).
DEFAULT_OBSERVATION_PERIOD_S: Seconds = 2.0


@dataclass
class PerformanceCounters:
    """Noisy reader of true performance values.

    Attributes:
        relative_std: Relative standard deviation of a reading taken over
            the reference window.  0 disables noise entirely.
        reference_window_s: Window length the ``relative_std`` is quoted
            at; noise scales with ``sqrt(reference / window)``.
        seed: Seed of the internal generator (``None`` for fresh entropy).
    """

    relative_std: float = 0.01
    reference_window_s: Seconds = DEFAULT_OBSERVATION_PERIOD_S
    seed: Optional[int] = None
    #: Built from ``seed`` on the first noisy read, so a reader that is
    #: never asked for noise (an admission probe's node) never seeds one.
    _rng: Optional[np.random.Generator] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.relative_std < 0:
            raise ValueError("relative_std must be >= 0")
        if self.reference_window_s <= 0:
            raise ValueError("reference window must be positive")

    def reseed(self, seed: Optional[int]) -> None:
        """Reset the noise stream (used by repeat-trial experiments)."""
        self.seed = seed
        self._rng = None

    def _sigma(self, window_s: Seconds) -> float:
        if window_s <= 0:
            raise ValueError("observation window must be positive")
        return self.relative_std * math.sqrt(self.reference_window_s / window_s)

    def read(
        self, true_value: float, window_s: Seconds = DEFAULT_OBSERVATION_PERIOD_S
    ) -> float:
        """One noisy counter reading of ``true_value`` over ``window_s``.

        Infinite values (saturated queues) pass through unchanged — a
        saturated queue looks saturated no matter the noise.
        """
        if math.isinf(true_value):
            return true_value
        if true_value < 0:
            raise ValueError(f"true value must be >= 0, got {true_value}")
        sigma = self._sigma(window_s)
        if sigma == 0 or true_value == 0:
            return true_value
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        # Log-normal with unit median keeps readings positive and unbiased
        # in the median, like percentile estimates from finite samples.
        return true_value * float(np.exp(self._rng.normal(0.0, sigma)))
