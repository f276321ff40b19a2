"""Constrained acquisition maximization (Eqs. 4-6).

Each BO iteration must find the partition maximizing the acquisition
function subject to the allocation constraints: at least one unit of
every resource per job (Eq. 5) and column sums equal to each resource's
capacity (Eq. 6).  Following the paper, the continuous relaxation is
solved with Sequential Least Squares Programming (SLSQP) from multiple
starts, then projected back onto the integer lattice.  The starts run in
lockstep: one driver steps scipy's reverse-communication SLSQP kernel
for every start, and each round evaluates the acquisition value and
forward-difference gradient of every start that asked for one in a
single stacked GP predict; a request for the point a start last
evaluated is served from its cache within the same round.  Each start's
iterates are bitwise those of its own
``scipy.optimize.minimize(method="SLSQP")`` call.  When a dropout-copy
decision pins one job's allocation, those coordinates are frozen via
degenerate bounds and the projection preserves the pinned row exactly.
:meth:`AcquisitionOptimizer.propose` returns the top-k of its ranking
and builds configurations for those k only; the ranking, and so every
returned candidate, is bitwise the head of the full one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional, Set, Tuple

import numpy as np
from scipy.optimize._slsqplib import slsqp as _slsqp_kernel

from ..resources.allocation import (
    Configuration,
    ConfigurationSpace,
    _round_resources_batch,
    pairwise_sum,
)
from ..resources.contracts import proposal_contract
from ..telemetry.tracer import NULL_TRACER, Span, Tracer
from .acquisition import AcquisitionFunction, ExpectedImprovement
from .dropout import DropoutDecision
from .gp import GaussianProcess
from .rng import RNGLike, resolve_rng
from .units import Fraction

#: Infinity-norm of the finite-difference gradient below which a start is
#: considered dead-flat: SLSQP cannot move from it, so the (expensive)
#: solver call is skipped and the start itself stands as the solution.
_FLAT_GRAD_TOL = 1e-12

#: Forward-difference step for the acquisition gradient.
_FD_EPS = 1e-6


@functools.lru_cache(maxsize=None)
def _fd_steps(d: int) -> np.ndarray:
    """The ``(d, d)`` forward-difference step matrix, built once per ``d``."""
    steps = _FD_EPS * np.eye(d)
    steps.flags.writeable = False
    return steps


#: Where the incumbent's line-search blends sit between it (0) and
#: each job's maximum-allocation extreme (1).
_BLEND_STEPS = (0.25, 0.5, 0.75)

#: SLSQP iteration cap and ``ftol`` for every start.
_SLSQP_MAXITER = 40
_SLSQP_FTOL = 1e-8


@dataclass(frozen=True)
class Candidate:
    """A proposed next sample with its acquisition value."""

    config: Configuration
    acquisition_value: float


@dataclass(frozen=True)
class Proposal:
    """Result of one acquisition-optimization round.

    Attributes:
        candidates: Unseen configurations ranked by acquisition value,
            best first.  May be empty if every optimum rounds onto an
            already-sampled point.
        max_acquisition: Largest acquisition value over the continuous
            SLSQP optima and the screening pool — the "expected
            improvement" signal the termination condition watches.
            Using the relaxation rather than the rounded optima keeps
            the signal from collapsing just because the optima round
            onto already-sampled configurations.
    """

    candidates: Tuple[Candidate, ...]
    max_acquisition: float

    #: Seed for the running maximum: ``-inf`` rather than 0 so custom
    #: acquisition functions whose values can go negative still produce
    #: a faithful termination signal instead of a silent 0 floor.
    EMPTY_MAX: ClassVar[float] = float("-inf")


class AcquisitionOptimizer:
    """SLSQP-based maximizer of the acquisition over valid partitions.

    Each proposal screens a pool of lattice points, then runs SLSQP from
    every start in lockstep (see :func:`_lockstep_slsqp`), so one round
    of the solvers costs one stacked GP predict.

    Args:
        space: The configuration space being searched.
        acquisition: Acquisition function (default: EI with ζ = 0.01).
        n_restarts: Number of random multi-start points in addition to
            the incumbent, the equal partition, and the best points of
            the screening pool.
        pool_size: Size of the random screening pool.  The pool is a
            cheap vectorized EI evaluation over valid lattice points;
            its best entries both seed SLSQP restarts and stand as
            candidates themselves, which makes the search robust in the
            high-dimensional spaces where gradient steps stall.
        rng: Random generator shared with the engine, or an explicit
            integer seed.  Required: an unseeded fallback would make
            the multi-start screening non-reproducible (RPL101).
        tracer: Optional :class:`repro.telemetry.Tracer`; each
            :meth:`propose` call is wrapped in an ``optimizer.propose``
            span carrying ``starts``, ``flat_starts`` (starts skipped
            as dead-flat), ``rounds`` (lockstep solver rounds; each is
            one batched GP predict, so cache hits served within a round
            add none), ``steps`` (SLSQP kernel steps over all starts),
            ``points`` (points the forward-difference objective
            evaluated, each one ``(d+1)``-row predict block), ``ranked``
            (unseen lattice points ranked) and ``candidates`` (how many
            of those were returned).  Defaults to the shared no-op
            tracer.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        acquisition: Optional[AcquisitionFunction] = None,
        n_restarts: int = 8,
        pool_size: int = 256,
        rng: Optional[RNGLike] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n_restarts < 1:
            raise ValueError("need at least one restart")
        if pool_size < 0:
            raise ValueError("pool size must be >= 0")
        self.space = space
        self.acquisition = (
            acquisition if acquisition is not None else ExpectedImprovement()
        )
        self.n_restarts = n_restarts
        self.pool_size = pool_size
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = resolve_rng(rng, owner="AcquisitionOptimizer")
        self._units = np.array([r.units for r in space.spec.resources])
        self._spans = (self._units - space.n_jobs).astype(float)
        #: ``_columns[r]`` are the cube coordinates of resource ``r``.
        self._columns = np.arange(space.n_dims).reshape(
            space.n_jobs, space.n_resources
        ).T.copy()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    # Per-space constants every propose reuses, built on first use so
    # that building an optimizer (one per engine run, whether it
    # proposes or not) costs what it did before.
    @functools.cached_property
    def _equal_cube(self) -> np.ndarray:
        """The equal partition's cube, one of every solve's starts."""
        return self.space.to_unit_cube(self.space.equal_partition())

    @functools.cached_property
    def _blend_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both factors of :meth:`_blends`: ``1 - t`` per row, and ``t``
        times each job's maximum-allocation cube."""
        space = self.space
        extremes = [
            space.to_unit_cube(space.max_allocation(j))
            for j in range(space.n_jobs)
        ]
        near = np.array([[1 - t] for _ in extremes for t in _BLEND_STEPS])
        far = np.array([t * extreme for extreme in extremes for t in _BLEND_STEPS])
        return near, far

    def _column_targets(self) -> np.ndarray:
        """Per-resource sum each cube column must hit (1, or 0 if rigid)."""
        return (self._spans > 0).astype(float)

    def _bounds(
        self,
        dropout: Optional[DropoutDecision],
        upper_caps: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-coordinate ``(lower, upper)`` cube bounds for SLSQP."""
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        lower = np.zeros((n_jobs, n_res))
        upper = np.ones((n_jobs, n_res))
        live = self._spans > 0
        if upper_caps is not None:
            caps = np.asarray(upper_caps, dtype=float)[:, live]
            upper[:, live] = np.clip((caps - 1.0) / self._spans[live], 0.0, 1.0)
        upper[:, ~live] = 0.0  # resource fully pinned by the floor
        if dropout is not None and dropout.job_index is not None:
            lower[dropout.job_index] = upper[dropout.job_index] = (
                self._pinned_cube_row(dropout)
            )
        return lower.ravel(), upper.ravel()

    def _pinned_cube_row(self, dropout: DropoutDecision) -> np.ndarray:
        row = np.asarray(dropout.allocation, dtype=float)
        cube = np.zeros(self.space.n_resources)
        positive = self._spans > 0
        cube[positive] = (row[positive] - 1.0) / self._spans[positive]
        return cube

    def _project_feasible(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> np.ndarray:
        """Rescale each cube column of each point so it satisfies Eq. 6.

        ``z`` is one point ``(n_dims,)`` or a stack ``(n, n_dims)``; the
        result has its shape.  Column sums gather each column into a
        contiguous row, so they add in the order a 1-D sum does.
        """
        n_jobs = self.space.n_jobs
        cols = np.array(z, dtype=float).reshape(-1, n_jobs, self.space.n_resources)
        pin = dropout.job_index if dropout and dropout.job_index is not None else None
        if pin is not None:
            cols[:, pin] = self._pinned_cube_row(dropout)
        free = [j for j in range(n_jobs) if j != pin]
        budget = self._column_targets() - (cols[:, pin] if pin is not None else 0.0)
        budget = np.maximum(budget, 0.0)[..., None, :]
        total = np.ascontiguousarray(cols[:, free].transpose(0, 2, 1)).sum(axis=2)
        total = total[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cols[:, free] = np.where(
                total > 0, cols[:, free] * (budget / total), budget / len(free)
            )
        cols[:, :, self._spans <= 0] = 0.0
        return np.clip(cols, 0.0, 1.0).reshape(np.shape(z))

    def _round(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> Configuration:
        """Project a cube vector onto the lattice, honoring a pinned row."""
        vec = np.asarray(z, dtype=float).reshape(1, -1)
        return Configuration.from_matrix(self._round_batch(vec, dropout)[0])

    def _round_batch(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> np.ndarray:
        """Vectorized :meth:`_round`: (n, n_dims) cube -> (n, j, r) ints."""
        z = np.asarray(z, dtype=float)
        if dropout is None or dropout.job_index is None:
            return self.space.from_unit_cube_batch(z)
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        vec = np.clip(z.reshape(len(z), n_jobs, n_res), 0.0, 1.0)
        pin = dropout.job_index
        free = [j for j in range(n_jobs) if j != pin]
        # A pinned row too greedy for a column shrinks to leave every
        # free job its one unit there.
        pinned = np.minimum(
            np.asarray(dropout.allocation, dtype=int), self._units - len(free)
        )
        out = np.empty((len(z), n_jobs, n_res), dtype=int)
        out[:, pin] = pinned
        if free:
            out[:, free, :] = _round_resources_batch(
                vec[:, free, :], self._units - pinned
            )
        return out

    def _repair_caps_batch(
        self,
        mats: np.ndarray,
        upper_caps: Optional[np.ndarray],
        dropout: Optional[DropoutDecision],
    ) -> np.ndarray:
        """Push units over a job's cap to jobs with headroom, per matrix.

        A per-unit waterfall over a (n, j, r) stack: each excess unit
        moves to the not-pinned job with the most headroom, first index
        on ties; the pinned job's row is neither trimmed nor grown.
        Column by column, job by job, every matrix's transfers are
        computed at once in closed form (see :func:`_waterfall`).
        """
        if upper_caps is None or len(mats) == 0:
            return mats
        caps = np.asarray(upper_caps).astype(int)
        pin = (
            dropout.job_index
            if dropout is not None and dropout.job_index is not None
            else None
        )
        mats = mats.copy()
        # Units only move to jobs under their cap, so the (job,
        # resource) cells over cap in some matrix are known up front.
        over = (mats > caps).any(axis=0)
        if pin is not None:
            over[pin] = False
        for r, j in zip(*np.nonzero(over.T)):
            col = mats[:, :, r]
            rows = np.nonzero(col[:, j] > caps[j, r])[0]
            part = col[rows]
            headroom = caps[:, r] - part
            headroom[:, j] = 0
            if pin is not None:
                headroom[:, pin] = 0
            np.maximum(headroom, 0, out=headroom)
            moved = np.minimum(part[:, j] - caps[j, r], headroom.sum(axis=1))
            part[:, j] -= moved
            col[rows] = part + _waterfall(headroom, moved)
        return mats

    # ------------------------------------------------------------------
    # Pure exploitation: greedy walk on the posterior mean
    # ------------------------------------------------------------------
    @proposal_contract
    def propose_exploit(
        self,
        gp: GaussianProcess,
        incumbent: Configuration,
        sampled: Set[Tuple[int, ...]],
        upper_caps: Optional[np.ndarray] = None,
        max_steps: int = 25,
    ) -> Proposal:
        """Hill-climb the GP mean from the incumbent via unit transfers.

        One observation of the walk's endpoint can advance the
        partition by many units at once, which is how the post-QoS
        "reshuffle resources toward the BG jobs" phase converges in a
        handful of samples instead of one unit per window.
        """
        current = incumbent
        (current_mean,), _ = gp.predict(
            self.space.to_unit_cube(current)[None, :]
        )
        best_unseen: Optional[Tuple[Configuration, float]] = None
        for _ in range(max_steps):
            mats = self._repair_caps_batch(
                self.space.neighbor_matrices(current), upper_caps, None
            )
            mats = mats[(mats != current.as_array()).any(axis=(1, 2))]
            if not len(mats):
                break
            means, _ = gp.predict(self.space.to_unit_cube_batch(mats))
            step = int(np.argmax(means))
            if means[step] <= current_mean + 1e-12:
                break
            current = Configuration.from_matrix(mats[step])
            current_mean = float(means[step])
            if current.flat() not in sampled and (
                best_unseen is None or current_mean > best_unseen[1]
            ):
                best_unseen = (current, current_mean)
        if best_unseen is None:
            return Proposal(candidates=(), max_acquisition=0.0)
        config, mean = best_unseen
        return Proposal(
            candidates=(Candidate(config=config, acquisition_value=mean),),
            max_acquisition=mean,
        )

    # ------------------------------------------------------------------
    # The optimization itself
    # ------------------------------------------------------------------
    def _blends(self, z_inc: np.ndarray) -> np.ndarray:
        """Row ``(j, t)``, job-major, is ``(1 - t) * z_inc + t *
        to_unit_cube(max_allocation(j))`` for each ``t`` in
        ``_BLEND_STEPS``."""
        near, far = self._blend_terms
        return near * z_inc + far

    def _start_points(
        self,
        incumbent: Optional[Configuration],
        dropout: Optional[DropoutDecision],
    ) -> np.ndarray:
        """Feasible SLSQP starts: equal partition, incumbent, random draws."""
        space = self.space
        fixed = [self._equal_cube]
        if incumbent is not None:
            fixed.append(space.to_unit_cube(incumbent))
        draws = space.random_batch(self.n_restarts, self._rng)
        starts = np.concatenate([fixed, space.to_unit_cube_batch(draws)])
        return self._project_feasible(starts, dropout)

    @proposal_contract
    def propose(
        self,
        gp: GaussianProcess,
        best_score: Fraction,
        sampled: Set[Tuple[int, ...]],
        incumbent: Optional[Configuration] = None,
        dropout: Optional[DropoutDecision] = None,
        upper_caps: Optional[np.ndarray] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        max_candidates: Optional[int] = None,
    ) -> Proposal:
        """Maximize the acquisition and return ranked unseen candidates.

        Args:
            gp: The fitted surrogate.
            best_score: Incumbent objective score (Eq. 2's ``x̂``).
            sampled: Flattened unit tuples of already-sampled configs.
            incumbent: Best configuration so far (used as a start).
            dropout: Optional dropout-copy pin for this round.
            upper_caps: Optional ``(n_jobs, n_resources)`` per-job unit
                caps — the paper's "constrained execution" pruning of
                likely-to-be-sub-optimal partitions (Eqs. 4-6 with
                individual per-job, per-resource constraints).
            acquisition: One-off acquisition override for this round
                (the engine uses it for pure-exploitation rounds).
            max_candidates: Return only the top-k of the ranked unseen
                candidates (the engine passes its ``batch_k``); only
                those k become :class:`Configuration` objects, and they
                are bitwise the first k of the full ranking.  ``None``
                returns the full ranking; ``max_acquisition`` is
                unaffected either way.
        """
        if max_candidates is not None and max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        with self._tracer.span("optimizer.propose") as span:
            proposal = self._propose_impl(
                gp,
                best_score,
                sampled,
                span,
                incumbent=incumbent,
                dropout=dropout,
                upper_caps=upper_caps,
                acquisition=acquisition,
                max_candidates=max_candidates,
            )
            span.set("candidates", len(proposal.candidates))
            span.set("max_acquisition", proposal.max_acquisition)
        return proposal

    def _propose_impl(
        self,
        gp: GaussianProcess,
        best_score: Fraction,
        sampled: Set[Tuple[int, ...]],
        span: Span,
        incumbent: Optional[Configuration] = None,
        dropout: Optional[DropoutDecision] = None,
        upper_caps: Optional[np.ndarray] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        max_candidates: Optional[int] = None,
    ) -> Proposal:
        acq_fn = acquisition if acquisition is not None else self.acquisition
        space = self.space
        pinned = dropout is not None and dropout.job_index is not None
        d = space.n_dims

        def batch_acq(cube: np.ndarray) -> np.ndarray:
            mean, std = gp.predict(cube)
            return np.asarray(acq_fn(mean, std, best_score), dtype=float)

        # Stage 1: screen a pool of valid lattice points — random samples
        # for coverage plus the incumbent's single-unit-transfer
        # neighborhood, which is where the post-QoS "reshuffle resources
        # toward the BG jobs" refinement happens.  The whole pool is
        # generated, (with dropout) re-projected so the pinned row
        # holds, cap-repaired, and scored as batched numpy arrays — no
        # per-configuration Python round trips.
        int_blocks: List[np.ndarray] = []
        cube_blocks: List[np.ndarray] = []
        if self.pool_size:
            int_blocks.append(space.random_batch(self.pool_size, self._rng))
        if incumbent is not None:
            neighbors = space.neighbor_matrices(incumbent)
            if len(neighbors):
                int_blocks.append(neighbors)
            # Line-search candidates: blends between the incumbent and
            # each job's maximum-allocation extremum.  These cut across
            # the resource-equivalence ridges (e.g. "shift everything
            # spare toward the BG job") that single-unit moves cross
            # only one step per sample.
            cube_blocks.append(self._blends(space.to_unit_cube(incumbent)))
        if int_blocks or cube_blocks:
            if pinned:
                cube_all = np.concatenate(
                    [space.to_unit_cube_batch(m) for m in int_blocks]
                    + cube_blocks
                )
                pool_mats = self._round_batch(cube_all, dropout)
            else:
                pool_mats = np.concatenate(
                    int_blocks
                    + [
                        self._round_batch(c, None)
                        for c in cube_blocks
                    ]
                )
            pool_mats = self._repair_caps_batch(pool_mats, upper_caps, dropout)
            pool_cube = space.to_unit_cube_batch(pool_mats)
            pool_acq = batch_acq(pool_cube)
            top = np.argsort(-pool_acq)[: max(self.n_restarts // 2, 2)]
        else:
            pool_mats = np.empty((0, space.n_jobs, space.n_resources), dtype=int)
            pool_cube = np.empty((0, space.n_dims))
            pool_acq = np.empty(0)
            top = np.empty(0, dtype=int)

        # Stage 2: SLSQP from informed starts plus the pool's best.
        starts = np.concatenate(
            [self._start_points(incumbent, dropout), pool_cube[top]]
        )
        unique: dict = {}
        for key, z in zip(np.round(starts, 9), starts):
            unique.setdefault(key.tobytes(), z)
        start_cube = np.array(list(unique.values()))

        # Probe every start's finite-difference gradient in one batched
        # predict; dead-flat starts (zero gradient, typical once EI has
        # collapsed everywhere) cannot move under SLSQP, so the solver
        # skips them and the start stands as its own optimum.
        probe = np.concatenate(
            [start_cube[:, None, :], start_cube[:, None, :] + _fd_steps(d)],
            axis=1,
        )
        probe_acq = batch_acq(probe.reshape(-1, d)).reshape(-1, d + 1)
        grads = (probe_acq[:, 1:] - probe_acq[:, :1]) / _FD_EPS
        grad_flat = np.max(np.abs(grads), axis=1) < _FLAT_GRAD_TOL

        lower, upper = self._bounds(dropout, upper_caps)
        solutions = start_cube.copy()
        solutions[~grad_flat], _ = _lockstep_slsqp(
            start_cube[~grad_flat],
            lambda z: _descent_objective(gp, acq_fn, best_score, z),
            lower,
            upper,
            self._columns,
            self._column_targets(),
            span,
        )
        span.set("starts", len(start_cube))
        span.set("flat_starts", int(grad_flat.sum()))

        # Evaluate the continuous optima (the termination signal) and
        # their lattice projections in two batched predicts.
        sol_cube = np.clip(solutions, 0.0, 1.0)
        sol_acq = batch_acq(sol_cube)
        sol_mats = self._repair_caps_batch(
            self._round_batch(sol_cube, dropout), upper_caps, dropout
        )
        sol_values = batch_acq(space.to_unit_cube_batch(sol_mats))

        max_acq = Proposal.EMPTY_MAX
        if len(sol_acq):
            max_acq = max(max_acq, float(sol_acq.max()))
        if len(pool_acq):
            max_acq = max(max_acq, float(pool_acq.max()))

        # Best value per unseen lattice point (its flat unit tuple),
        # solver optima first; the stable sort keeps that order among
        # ties, so the top-k slice is bitwise the head of the full
        # ranking.
        best_by_config: dict = {}
        flat = np.concatenate([sol_mats, pool_mats]).reshape(-1, d)
        values = sol_values.tolist() + pool_acq.tolist()
        for key, value in zip(map(tuple, flat.tolist()), values):
            if key in sampled:
                continue
            kept = best_by_config.get(key)
            if kept is None or value > kept:
                best_by_config[key] = value
        ranked = sorted(
            best_by_config.items(), key=lambda pair: pair[1], reverse=True
        )
        span.set("ranked", len(ranked))
        n_res = space.n_resources
        candidates = tuple(
            Candidate(
                config=Configuration(
                    tuple(key[i : i + n_res] for i in range(0, d, n_res))
                ),
                acquisition_value=value,
            )
            for key, value in ranked[:max_candidates]
        )
        return Proposal(candidates=candidates, max_acquisition=max_acq)


def _waterfall(headroom: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Units each job receives when ``moved[b]`` units go, one at a time,
    to row ``b``'s job with the most ``headroom`` (first index on ties).

    Job ``i``'s headroom is a stack of slots valued ``headroom[b, i]``
    down to 1; the one-at-a-time rule takes slots by value, highest
    first, lower job index first among equal values.  So every slot
    above the lowest value taken, ``level``, is taken, and the rest of
    the units go one each to the first jobs that have a slot at
    ``level``.
    """
    # at_least[b, v - 1]: row b's slots valued v or more.
    below = np.arange(headroom.max())
    at_least = np.maximum(headroom[:, :, None] - below, 0).sum(axis=1)
    level = (at_least >= moved[:, None]).sum(axis=1)[:, None]
    above = np.maximum(headroom - level, 0)
    rest = moved - above.sum(axis=1)
    at_level = headroom >= level
    return above + (at_level & (np.cumsum(at_level, axis=1) <= rest[:, None]))


def _descent_objective(
    gp: GaussianProcess,
    acq_fn: AcquisitionFunction,
    best_score: Fraction,
    z: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Negated acquisition at each row of ``z`` and its gradient.

    Each point and its forward-difference neighbours form one
    ``(d+1)``-point block, and all blocks go through one stacked GP
    predict, so every point gets bitwise the values a predict of its
    block alone would give.  With ``a`` the acquisition, the gradient
    ``(a0 - ai) / eps`` has the bits of ``(-ai - -a0) / eps``.
    """
    n, d = z.shape
    points = np.empty((n, d + 1, d))
    points[:, 0] = z
    np.add(z[:, None, :], _fd_steps(d), out=points[:, 1:])
    mean, std = gp.predict(points)
    acq = acq_fn(mean.ravel(), std.ravel(), best_score).reshape(mean.shape)
    return -acq[:, 0], (acq[:, :1] - acq[:, 1:]) / _FD_EPS


def _column_sums(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``x[i][columns].sum(axis=1)`` for every row ``i`` of ``x``, bitwise.

    numpy sums each short row of one point's ``x[columns]`` pairwise,
    but the rows of a large stack in another order, so the per-point
    order (:func:`~repro.resources.allocation.pairwise_sum`) is spelled
    out here over whole ``(n, n_resources)`` slices, one per job.
    """
    n_jobs, n_res = columns.shape[1], len(columns)
    # One gather, job-major; the sums come out C-ordered, which the SLSQP
    # kernel needs (it reads each row as a contiguous buffer).
    cells = x.take(columns.T.ravel(), axis=1)
    return pairwise_sum(
        [cells[:, j * n_res : (j + 1) * n_res] for j in range(n_jobs)]
    )


def _lockstep_slsqp(
    starts: np.ndarray,
    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    lower: np.ndarray,
    upper: np.ndarray,
    columns: np.ndarray,
    targets: np.ndarray,
    span: Optional[Span] = None,
) -> Tuple[np.ndarray, int]:
    """Minimize from every start at once with SLSQP.

    Returns each start's solution, bitwise what
    ``scipy.optimize.minimize(fun, x0, jac=True, method="SLSQP",
    bounds=..., constraints=..., options={"maxiter": 40, "ftol": 1e-8})``
    gives from that start (falling back to the start itself unless the
    solver succeeds), and the number of rounds.  The constraints are
    one equality per resource, ``x[columns[r]].sum() == targets[r]``.

    Scipy's reverse-communication kernel is stepped for every start in
    turn; each round collects the starts that asked for a value or
    gradient at a point they have not evaluated yet and hands them to
    ``value_and_grad`` together — an ``(m, n)`` batch of points to
    ``(m,)`` objective values and ``(m, n)`` gradients.  Each start
    keeps minimize's own caching: a value and its gradient are
    computed together and reused until the start's ``x`` changes.  A
    request for the cached point is answered at once and the kernel
    stepped again, so every round is one ``value_and_grad`` call and
    the round count is one more than the most new points any start
    asks for.  ``span`` gets ``rounds``, ``steps`` (kernel calls over
    all starts) and ``points`` (rows handed to ``value_and_grad``).
    """
    solutions = starts.copy()
    rounds = steps = points = 0

    def residuals(x: np.ndarray) -> np.ndarray:
        # Each row's constraint values, bitwise np.sum(row[idx]) - t.
        return _column_sums(x, columns) - targets

    if len(starts) and np.all(lower == upper):
        # minimize() never runs SLSQP when the bounds pin every
        # variable: the bounds are the answer iff they meet the
        # constraints exactly.
        if np.all(residuals(lower[None]) == 0):
            solutions[:] = lower
    elif len(starts):
        rounds, steps, points = _drive(
            starts, value_and_grad, lower, upper, columns, residuals, solutions
        )
    if span is not None:
        span.set("rounds", rounds)
        span.set("steps", steps)
        span.set("points", points)
    return solutions, rounds


def _drive(
    starts: np.ndarray,
    value_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    lower: np.ndarray,
    upper: np.ndarray,
    columns: np.ndarray,
    residuals: Callable[[np.ndarray], np.ndarray],
    solutions: np.ndarray,
) -> Tuple[int, int, int]:
    """:func:`_lockstep_slsqp`'s loop; fills ``solutions`` in place.

    Returns the rounds, kernel steps and evaluated points.  The cached-
    point test compares ``x`` as lists of Python floats: ``==`` per
    element, as numpy's, without two numpy calls per kernel step.  The
    residuals of a round's points are computed together, and each start
    keeps those of its cached point: points equal under ``==`` have
    bitwise equal column sums, so a value request for the cached point
    reuses them.
    """
    n, m = starts.shape[1], len(columns)
    # The constraints are linear, so their normals are built once.
    normals = np.zeros((m, n), order="F")
    normals[np.arange(m)[:, None], columns] = 1.0
    # minimize()'s worst-case workspace with m equality constraints and
    # no inequalities.
    buffer_size = (
        n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * m + 9 * m
        + 8 * n * n + 35 * n + m * m + 28 + 2 * n * (n + 1)
    )

    x = np.clip(starts, lower, upper)
    values, grads = value_and_grad(x)
    rounds, steps, points = 1, 0, len(x)
    runs = [
        _SLSQPRun(i, x[i].copy(), float(values[i]), grads[i], d, buffer_size)
        for i, d in enumerate(residuals(x))
    ]

    while runs:
        stepping = []
        for run in runs:
            while True:
                _slsqp_kernel(
                    run.state, run.fx, run.g, normals, run.d, run.x,
                    run.mult, lower, upper, run.buffer, run.indices,
                )
                steps += 1
                mode = run.state["mode"]
                if mode != 1 and mode != -1:
                    if mode == 0:
                        solutions[run.index] = run.x
                    break
                point = run.x.tolist()
                if point != run.seen:
                    run.seen = point
                    stepping.append(run)
                    break
                run.hand_over()
        if stepping:
            batch = np.array([run.x for run in stepping])
            values, grads = value_and_grad(batch)
            rounds += 1
            points += len(batch)
            for run, value, grad, d in zip(
                stepping, values, grads, residuals(batch)
            ):
                run.value, run.grad, run.residuals = float(value), grad, d
                run.hand_over()
        runs = stepping
    return rounds, steps, points


class _SLSQPRun:
    """One start's SLSQP kernel state inside :func:`_lockstep_slsqp`."""

    __slots__ = (
        "index", "x", "seen", "value", "grad", "residuals", "fx", "g", "d",
        "state", "mult", "buffer", "indices",
    )

    def __init__(
        self,
        index: int,
        x: np.ndarray,
        value: float,
        grad: np.ndarray,
        d: np.ndarray,
        buffer_size: int,
    ) -> None:
        n, m = len(x), len(d)
        self.index = index
        self.x = x
        # The point last evaluated (as Python floats), with its value,
        # gradient and constraint residuals.
        self.seen, self.value, self.grad = x.tolist(), value, grad
        self.residuals = d
        # What the kernel is handed: objective, gradient, residuals.
        self.fx, self.g, self.d = value, grad, d
        # The kernel's C struct, initialized as minimize() does.
        self.state = {
            "acc": _SLSQP_FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0,
            "h1": 0.0, "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
            "tol": 10.0 * _SLSQP_FTOL, "exact": 0, "inconsistent": 0,
            "reset": 0, "iter": 0, "itermax": _SLSQP_MAXITER, "line": 0,
            "m": m, "meq": m, "mode": 0, "n": n,
        }
        self.mult = np.zeros(m + 2 * n + 2)
        self.buffer = np.zeros(buffer_size)
        # The kernel's C signature takes a 32-bit index workspace.
        # repro-lint: disable-next-line=RPL402
        self.indices = np.zeros(m + 2 * n + 2, dtype=np.int32)

    def hand_over(self) -> None:
        """Give the kernel what its mode asks for at the cached point."""
        if self.state["mode"] == 1:
            self.fx, self.d = self.value, self.residuals
        else:
            self.g = self.grad
