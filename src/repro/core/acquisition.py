"""Acquisition functions.

CLITE uses Expected Improvement augmented with the exploration factor
``zeta`` of Lizotte (Eq. 2 of the paper): cheap to evaluate, with a
practical exploration/exploitation balance; the paper rejects
probability-of-improvement (gets stuck in local optima) and entropy/UCB
methods (too expensive for an online, time-constrained controller).
PI and UCB are provided for the acquisition ablation bench.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import math

import numpy as np
from scipy.special import ndtr

from .units import Fraction

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _pdf(z: np.ndarray) -> np.ndarray:
    # |z| > 40 already underflows to 0; clipping avoids overflow warnings
    # from squaring extreme z when sigma is tiny.
    z = z.clip(-40.0, 40.0)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


@dataclass(frozen=True)
class AcquisitionFunction(ABC):
    """Maps posterior ``(mean, std)`` and the incumbent to a utility."""

    @abstractmethod
    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best: Fraction
    ) -> np.ndarray:
        """Acquisition value at each query point (higher = sample sooner)."""


@dataclass(frozen=True)
class ExpectedImprovement(AcquisitionFunction):
    """EI with the ζ exploration factor (Eq. 2).

    ``E(x) = (mu - best - zeta) * Phi(z) + sigma * phi(z)`` with
    ``z = (mu - best - zeta) / sigma``, and 0 wherever ``sigma == 0``.
    Small ζ (the paper suggests 0.01) nudges the search to explore.
    """

    zeta: float = 0.01

    def __post_init__(self) -> None:
        if self.zeta < 0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best: Fraction
    ) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        improvement = mean - best - self.zeta
        positive = std > 0
        if positive.all():  # the common case: no mask to gather through
            with np.errstate(over="ignore"):
                z = improvement / std
            return improvement * ndtr(z) + std * _pdf(z)
        result = np.zeros_like(mean)
        with np.errstate(over="ignore"):  # z saturates ndtr/pdf anyway
            z = improvement[positive] / std[positive]
        result[positive] = improvement[positive] * ndtr(z) + std[positive] * _pdf(z)
        return result


@dataclass(frozen=True)
class ProbabilityOfImprovement(AcquisitionFunction):
    """PI — cheap but exploitation-heavy (ablation baseline)."""

    zeta: float = 0.01

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best: Fraction
    ) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        result = np.zeros_like(mean)
        positive = std > 0
        with np.errstate(over="ignore"):  # z saturates ndtr anyway
            z = (mean[positive] - best - self.zeta) / std[positive]
        result[positive] = ndtr(z)
        result[(~positive) & (mean - best - self.zeta > 0)] = 1.0
        return result


@dataclass(frozen=True)
class UpperConfidenceBound(AcquisitionFunction):
    """UCB ``mu + kappa * sigma`` (ablation baseline)."""

    kappa: float = 2.0

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")

    def __call__(
        self, mean: np.ndarray, std: np.ndarray, best: Fraction
    ) -> np.ndarray:
        del best  # UCB does not use the incumbent
        return np.asarray(mean, dtype=float) + self.kappa * np.asarray(
            std, dtype=float
        )
