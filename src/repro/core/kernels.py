"""Covariance kernels for the Gaussian-process surrogate.

CLITE uses the Matérn-5/2 kernel (Sec. 4): it "does not require
restrictions on strong smoothness", which matters because the score
surface over resource partitions has ridges wherever a QoS constraint
starts binding.  A squared-exponential (RBF) kernel is provided for the
kernel ablation bench.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

_SQRT5 = math.sqrt(5.0)


def validate_points(x1: np.ndarray, x2: np.ndarray) -> None:
    """Raise ``ValueError`` unless both are 2-D with equal column counts."""
    if x1.ndim != 2 or x2.ndim != 2:
        raise ValueError("kernel inputs must be 2-D (n_points, n_dims)")
    if x1.shape[1] != x2.shape[1]:
        raise ValueError(
            f"dimension mismatch: {x1.shape[1]} vs {x2.shape[1]}"
        )


@dataclass(frozen=True)
class Kernel(ABC):
    """A stationary covariance function ``k(x, x')``.

    Attributes:
        lengthscale: Characteristic distance over which the function is
            correlated, > 0.
        variance: Signal variance ``k(x, x)``, > 0.
    """

    lengthscale: float = 0.3
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.lengthscale <= 0:
            raise ValueError(f"lengthscale must be > 0, got {self.lengthscale}")
        if self.variance <= 0:
            raise ValueError(f"variance must be > 0, got {self.variance}")

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Covariance matrix between two point sets, shape (n1, n2)."""
        x1 = np.atleast_2d(np.asarray(x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(x2, dtype=float))
        validate_points(x1, x2)
        return self.covariance(x1, x2)

    @abstractmethod
    def covariance(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """:meth:`__call__` without its checks.

        ``x1`` and ``x2`` must be 2-D float arrays with equal column
        counts; GP ``predict`` checks its query once and calls this.
        """

    def diag(self, x: np.ndarray) -> np.ndarray:
        """``k(x_i, x_i)`` for each row of ``x``, shape (n,).

        For a stationary kernel this is the constant ``variance``, so
        callers that only need the prior variance (e.g. GP ``predict``)
        never have to materialize the full (n, n) Gram matrix.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError("kernel inputs must be 2-D (n_points, n_dims)")
        return np.full(len(x), self.variance)

    def with_lengthscale(self, lengthscale: float) -> "Kernel":
        from dataclasses import replace

        return replace(self, lengthscale=lengthscale)


@dataclass(frozen=True)
class Matern52(Kernel):
    """Matérn kernel with smoothness parameter 5/2 (CLITE's choice)."""

    def covariance(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        # variance * (1 + sqrt5 r + 5 r^2 / 3) * exp(-sqrt5 r), evaluated
        # in that order, in place: the (n1, n2) temporaries are reused
        # instead of allocated once per operation.
        r = cdist(x1, x2)
        r /= self.lengthscale
        sqrt5_r = _SQRT5 * r
        r **= 2
        r *= 5.0
        r /= 3.0
        k = 1.0 + sqrt5_r
        k += r
        k *= self.variance
        np.negative(sqrt5_r, out=sqrt5_r)
        k *= np.exp(sqrt5_r, out=sqrt5_r)
        return k


@dataclass(frozen=True)
class RBF(Kernel):
    """Squared-exponential kernel (for the kernel-choice ablation)."""

    def covariance(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        # variance * exp(-0.5 * d^2 / l^2), in that order, in place.
        sq = cdist(x1, x2, "sqeuclidean")
        sq /= self.lengthscale**2
        sq *= -0.5
        k = np.exp(sq, out=sq)
        k *= self.variance
        return k


def median_lengthscale(
    x: np.ndarray, fallback: float = 0.3, scale: float = 0.5
) -> float:
    """Scaled median pairwise distance — a robust lengthscale heuristic.

    Keeps the GP sensibly scaled as samples accumulate without a costly
    marginal-likelihood optimization (CLITE's design point is cheap,
    just-accurate-enough models).  ``scale < 1`` keeps the surrogate
    from over-smoothing early on, when the few samples sit far apart
    and a full median lengthscale would wash out all uncertainty
    between them.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if len(x) < 2:
        return fallback
    distances = cdist(x, x)
    upper = distances[np.triu_indices(len(x), k=1)]
    positive = upper[upper > 0]
    if positive.size == 0:
        return fallback
    return float(np.median(positive)) * scale
