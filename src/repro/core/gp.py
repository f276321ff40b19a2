"""Exact Gaussian-process regression, from scratch on numpy/scipy.

The surrogate model of CLITE's Bayesian optimizer (Sec. 4).  The paper
deliberately keeps the GP small — it "mitigates [the O(n^3)] overhead by
carefully limiting the number of sampled data points" rather than using
sparse approximations that degrade uncertainty estimates — so a dense
Cholesky implementation is exactly the right tool.

Because the BO loop adds exactly one observation per iteration, the GP
also supports :meth:`GaussianProcess.add_sample`: an O(n^2) rank-1
extension of the stored Cholesky factor that avoids re-factorizing the
whole kernel matrix every window.  A full refit is triggered only when
the lengthscale heuristic shifts materially or the extended factor would
be numerically unsafe, so incremental and batch posteriors agree to
machine precision whenever the kernel and jitter coincide.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs

from .kernels import Kernel, Matern52, median_lengthscale, validate_points

#: Jitter used as the escalation seed when the configured noise is zero.
_MIN_JITTER = 1e-12


class GaussianProcess:
    """GP regression with a fixed-form kernel and heuristic lengthscale.

    Targets are standardized internally (zero mean, unit variance), so
    score magnitudes never interact with kernel hyperparameters.

    Args:
        kernel: Covariance function; default Matérn-5/2 (the paper's
            choice).  Its lengthscale is treated as a fallback — at fit
            time the median-distance heuristic replaces it unless
            ``adapt_lengthscale`` is False.
        noise: Observation-noise variance added to the kernel diagonal
            (in standardized-target units).  Counter noise on scores is
            real, so this should not be zero.
        adapt_lengthscale: Re-estimate the lengthscale from the data at
            every fit.
        lengthscale_rtol: Relative drift of the median-distance
            lengthscale that :meth:`add_sample` tolerates before falling
            back to a full refit.  0 forces a refit on every add (the
            pre-incremental behavior); larger values keep the O(n^2)
            fast path longer at the cost of a slightly stale kernel.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-3,
        adapt_lengthscale: bool = True,
        lengthscale_rtol: float = 0.05,
    ) -> None:
        if noise < 0:
            raise ValueError(f"noise variance must be >= 0, got {noise}")
        if lengthscale_rtol < 0:
            raise ValueError(
                f"lengthscale_rtol must be >= 0, got {lengthscale_rtol}"
            )
        self.kernel = kernel if kernel is not None else Matern52()
        self.noise = noise
        self.adapt_lengthscale = adapt_lengthscale
        self.lengthscale_rtol = lengthscale_rtol
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None  # lower-triangular factor
        self._jitter: float = noise
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    @property
    def n_samples(self) -> int:
        return 0 if self._x is None else len(self._x)

    @property
    def jitter(self) -> float:
        """Diagonal jitter of the current factorization (>= ``noise``)."""
        return self._jitter

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``(x, y)``.

        Args:
            x: Sample locations, shape (n, d), in the unit cube.
            y: Observed objective scores, shape (n,).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError(f"got {len(x)} points but {len(y)} targets")
        if len(x) == 0:
            raise ValueError("cannot fit a GP on zero samples")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise ValueError("GP inputs must be finite")

        if self.adapt_lengthscale:
            self.kernel = self.kernel.with_lengthscale(median_lengthscale(x))

        self._x = x
        self._y = y
        self._refactor()
        return self

    def _refactor(self) -> None:
        """Full Cholesky factorization of the current training set."""
        x, y = self._x, self._y
        gram = self.kernel(x, x)
        jitter = self.noise
        for _ in range(8):
            try:
                factor, _ = cho_factor(
                    gram + jitter * np.eye(len(x)), lower=True
                )
                break
            except np.linalg.LinAlgError:
                jitter = jitter * 10.0 if jitter > 0 else _MIN_JITTER
        else:  # pragma: no cover - requires a pathological kernel matrix
            raise np.linalg.LinAlgError("kernel matrix is not positive definite")
        # cho_factor leaves garbage in the unused triangle; keep a clean
        # lower-triangular matrix so add_sample can extend it in place.
        self._chol = np.tril(factor)
        self._jitter = jitter
        self._restandardize()

    def _restandardize(self) -> None:
        """Recompute target standardization and the alpha weights (O(n^2))."""
        y = self._y
        self._y_mean = float(y.mean())
        self._y_std = float(y.std())
        if self._y_std < 1e-12:
            self._y_std = 1.0
        z = (y - self._y_mean) / self._y_std
        self._alpha = cho_solve((self._chol, True), z, check_finite=False)

    def add_sample(self, x_new: np.ndarray, y_new: float) -> "GaussianProcess":
        """Condition on one more observation via a rank-1 Cholesky update.

        Extends the stored lower-triangular factor with one new row in
        O(n^2) instead of re-factorizing the whole (n, n) kernel matrix
        in O(n^3).  Falls back to a full :meth:`fit` when (a) the GP is
        not fitted yet, (b) the median-lengthscale heuristic has drifted
        by more than ``lengthscale_rtol`` relative, or (c) the extended
        factor's new pivot would be numerically unsafe (the jitter needs
        re-escalation).  In every case the resulting posterior is the
        exact posterior of the full data set under the current kernel
        and jitter — matching a from-scratch ``fit`` whenever that fit
        would pick the same lengthscale and jitter.
        """
        x_new = np.asarray(x_new, dtype=float).ravel()
        if not np.isfinite(x_new).all() or not np.isfinite(y_new):
            raise ValueError("GP inputs must be finite")
        if not self.is_fitted:
            return self.fit(x_new[None, :], np.array([float(y_new)]))
        if x_new.shape[0] != self._x.shape[1]:
            raise ValueError(
                f"expected a {self._x.shape[1]}-dim point, got {x_new.shape[0]}"
            )

        x = np.vstack([self._x, x_new[None, :]])
        y = np.append(self._y, float(y_new))

        if self.adapt_lengthscale:
            fresh = median_lengthscale(x)
            current = self.kernel.lengthscale
            if abs(fresh - current) > self.lengthscale_rtol * current:
                return self.fit(x, y)

        k_vec = self.kernel(self._x, x_new[None, :]).ravel()
        ell = solve_triangular(
            self._chol, k_vec, lower=True, check_finite=False
        )
        k_self = float(self.kernel.diag(x_new[None, :])[0]) + self._jitter
        pivot_sq = k_self - float(ell @ ell)
        if pivot_sq <= max(_MIN_JITTER, 1e-10 * k_self):
            # The extension is (numerically) rank-deficient at the current
            # jitter; rebuild from scratch so escalation can kick in.
            self._x, self._y = x, y
            self._refactor()
            return self

        n = len(x)
        chol = np.zeros((n, n))
        chol[: n - 1, : n - 1] = self._chol
        chol[n - 1, : n - 1] = ell
        chol[n - 1, n - 1] = np.sqrt(pivot_sq)
        self._chol = chol
        self._x, self._y = x, y
        self._restandardize()
        return self

    def predict(self, xq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points.

        Args:
            xq: Query locations, shape (m, d), or a stack of ``k``
                blocks of ``b`` points each, shape (k, b, d).

        Returns:
            ``(mean, std)`` arrays of shape (m,) — (k, b) for a stack —
            in original target units.  Each block of two or more rows
            gets bitwise the values a separate ``predict`` of that block
            would return.  (A one-row ``predict`` solves for a single
            right-hand side, which LAPACK sums in another order.)
        """
        if self._x is None:
            raise RuntimeError("predict() before fit()")
        xq = np.asarray(xq, dtype=float)
        stacked = xq.ndim == 3
        rows = xq.reshape(-1, xq.shape[-1]) if stacked else np.atleast_2d(xq)
        # The query is checked once here, not again by the kernel.
        validate_points(rows, self._x)
        k_star = self.kernel.covariance(rows, self._x)
        if stacked:
            # One gemv per block, as a stacked matmul: a single gemv
            # over all k*b rows may sum in a different order and change
            # the mean's last bits.  The kernel, the multi-column
            # triangular solve and the variance below are
            # row-independent already.
            mean_z = (k_star.reshape(*xq.shape[:2], -1) @ self._alpha).ravel()
        else:
            mean_z = k_star @ self._alpha
        # var = k(x,x) - ||L^-1 k*||^2: one triangular solve, and the
        # prior variance k(x,x) is the stationary kernel's constant
        # ``variance`` (what :meth:`Kernel.diag` fills a vector with;
        # subtracting from the scalar gives the same bits).
        # The solve calls the LAPACK routine solve_triangular reaches
        # for a C-ordered factor (L^T upper, transposed) without its
        # wrapper's checks; k_star is not read again, so it is reused.
        v, info = dtrtrs(self._chol.T, k_star.T, lower=0, trans=1, overwrite_b=1)
        if info:
            raise LinAlgError(f"triangular solve failed: info={info}")
        var = np.subtract(self.kernel.variance, np.einsum("ij,ij->j", v, v))
        np.maximum(var, 0.0, out=var)
        # mean_z * y_std + y_mean and sqrt(var) * y_std, in place.
        mean = mean_z
        mean *= self._y_std
        mean += self._y_mean
        std = np.sqrt(var, out=var)
        std *= self._y_std
        if stacked:
            return mean.reshape(xq.shape[:2]), std.reshape(xq.shape[:2])
        return mean, std
