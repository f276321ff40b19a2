"""The CLITE engine — Algorithm 1, put together (Fig. 5).

Seeds the surrogate with the informed bootstrap set, then iterates:
fit the Gaussian process on every (configuration, score) pair, pick a
dropout-copy pin, maximize the constrained acquisition, run the chosen
partition for one observation window, score it with Eq. 3, and repeat
until the expected-improvement signal dies down.  The best-scoring
partition is then enacted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Set, Tuple

import numpy as np

from ..resources.allocation import Configuration
from ..resources.spec import CORES
from ..server.node import Node, Observation
from ..telemetry import NULL_TELEMETRY, Telemetry, TelemetrySnapshot
from .acquisition import AcquisitionFunction, ExpectedImprovement
from .bootstrap import bootstrap_configurations, run_bootstrap
from .dropout import DropoutCopy
from .gp import GaussianProcess
from .kernels import Kernel, Matern52
from .optimizer import AcquisitionOptimizer
from .score import ScoreFunction
from .termination import EITermination


@dataclass(frozen=True)
class CLITEConfig:
    """Tunables of the CLITE engine.

    The paper's point (Sec. 5.2) is that none of these need per-job-mix
    tuning; the defaults below are the paper's choices.

    Attributes:
        zeta: EI exploration factor (Eq. 2); ignored when a custom
            ``acquisition`` is given.
        acquisition: Override the acquisition function (ablations).
        kernel: Override the GP kernel (ablations); default Matérn-5/2.
        gp_noise: Observation-noise variance for the GP.
        max_iterations: Hard cap on BO iterations after the bootstrap.
        max_samples: Optional cap on *total* observations, bootstrap
            included (used for fair policy comparisons).
        n_restarts: Multi-start count for the SLSQP acquisition search.
        dropout_enabled: Use dropout-copy dimensionality reduction.
        dropout_random_prob: Chance of pinning a random job instead of
            the best performer.
        informed_bootstrap: Seed with equal partition + per-job extrema
            (True, the paper) or uniformly random samples (ablation).
        ei_threshold: Base EI termination threshold (1 job).
        ei_jobs_scale: Termination-threshold growth per extra job.
        ei_patience: Consecutive below-threshold iterations to stop.
        ei_min_iterations: Iterations before termination may fire.
        post_qos_iterations: Iterations that must elapse *after the
            first QoS-meeting sample* before EI termination is honored.
            On hard mixes the feasible region is tiny and the score
            surface nearly flat, so raw EI dies down long before the
            post-QoS reshuffling phase has had a chance to run; and if
            QoS has never been met, CLITE should keep searching to the
            iteration cap rather than give up early.
        confirm_top: Number of top-scoring configurations to re-observe
            after the search, picking the winner by the *worse* of the
            two readings.  One lucky noisy window can make a
            QoS-violating partition look safe; confirmation windows are
            how a real controller guards against enacting it.
        constrained_execution: Prune likely-to-be-sub-optimal partitions
            by capping each LC job at (one unit above) the cheapest
            allocation it has been observed meeting QoS with, funneling
            the remainder toward BG jobs (Sec. 4).
        refine_budget: Maximum observation windows spent on the greedy
            post-BO refinement phase (LC-to-BG single-unit donations
            kept only when the measured score improves).
        refine_patience: Consecutive rejected refinement moves before
            the phase gives up.
        exploit_every: Run a pure-exploitation round every this-many
            iterations (0, the default, disables): a greedy walk on the
            GP posterior mean through single-unit transfers from the
            incumbent, whose endpoint is then observed.  Kept as an
            ablation knob — on this benchmark suite the per-unit score
            deltas sit below the surrogate's resolution, so the walk
            follows model bias and measurably *hurts* final quality
            compared to spending the same windows on EI sampling.
        stop_on_infeasible: Abort early when some LC job misses QoS even
            at maximum allocation ("schedule it elsewhere").
        batch_k: Top-ranked acquisition candidates observed per BO
            round.  1 (the default) is the paper's sequential Algorithm
            1 and keeps trajectories bit-identical to it.  k > 1
            amortizes the acquisition maximization — the engine's
            dominant CPU cost — over k observation windows, trading
            some sample-efficiency fidelity (candidates 2..k are chosen
            without seeing candidate 1's outcome) for wall-clock.  A
            batch is observed serially in candidate-rank order, one
            window each, as a real node enacts one partition at a time.
        seed: Seed for all engine randomness.
        telemetry: Optional :class:`repro.telemetry.Telemetry` context.
            When given, the engine wraps each Algorithm 1 phase in a
            span, counts cache traffic and iterations in the metric
            registry, installs the context on its node, and attaches a
            :class:`repro.telemetry.TelemetrySnapshot` to the result.
            ``None`` (the default) routes every hook through the shared
            no-op context, keeping the hot path effectively free.
    """

    zeta: float = 0.01
    acquisition: Optional[AcquisitionFunction] = None
    kernel: Optional[Kernel] = None
    gp_noise: float = 1e-4
    max_iterations: int = 50
    max_samples: Optional[int] = None
    n_restarts: int = 8
    dropout_enabled: bool = True
    dropout_random_prob: float = 0.1
    informed_bootstrap: bool = True
    ei_threshold: float = 0.005
    ei_jobs_scale: float = 1.25
    ei_patience: int = 4
    ei_min_iterations: int = 8
    confirm_top: int = 3
    constrained_execution: bool = True
    exploit_every: int = 0
    post_qos_iterations: int = 20
    refine_budget: int = 20
    refine_patience: int = 5
    stop_on_infeasible: bool = True
    batch_k: int = 1
    seed: Optional[int] = None
    telemetry: Optional[Telemetry] = None

    def build_acquisition(self) -> AcquisitionFunction:
        if self.acquisition is not None:
            return self.acquisition
        return ExpectedImprovement(zeta=self.zeta)

    def build_kernel(self) -> Kernel:
        return self.kernel if self.kernel is not None else Matern52()


@dataclass(frozen=True)
class SampleRecord:
    """One sampled configuration with everything observed about it."""

    index: int
    phase: str  # "bootstrap", "search", "refine", or "confirm"
    config: Configuration
    observation: Observation
    score: float
    expected_improvement: Optional[float] = None


@dataclass(frozen=True)
class CLITEResult:
    """Outcome of one CLITE optimization run.

    ``cache_hits``/``cache_misses`` count the node's observation-cache
    traffic during this run: a hit means the deterministic simulator had
    already answered that (partition, load) point, so the window cost no
    re-simulation (counter noise, when enabled, is still re-drawn per
    window — see :class:`repro.server.node.Node`).

    ``telemetry`` is the run-scoped snapshot (per-phase span breakdown,
    cumulative counters) when the engine ran with a telemetry context,
    else ``None``.
    """

    best_config: Optional[Configuration]
    best_score: float
    best_observation: Optional[Observation]
    samples: Tuple[SampleRecord, ...]
    infeasible_jobs: Tuple[str, ...]
    converged: bool
    cache_hits: int = 0
    cache_misses: int = 0
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def samples_taken(self) -> int:
        return len(self.samples)

    @property
    def qos_met(self) -> bool:
        """Whether the best configuration met every LC job's QoS."""
        return self.best_observation is not None and self.best_observation.all_qos_met


@dataclass
class CLITEEngine:
    """Drives Algorithm 1 on one node.

    Usage::

        engine = CLITEEngine(node)
        result = engine.optimize()
        if result.qos_met:
            node.isolation.apply(result.best_config)
    """

    node: Node
    config: CLITEConfig = field(default_factory=CLITEConfig)

    def __post_init__(self) -> None:
        if self.config.batch_k < 1:
            raise ValueError("batch_k must be >= 1")
        self._rng = np.random.default_rng(self.config.seed)
        self._telemetry = (
            self.config.telemetry
            if self.config.telemetry is not None
            else NULL_TELEMETRY
        )
        self._tracer = self._telemetry.tracer
        self.score_fn = ScoreFunction()
        self._dropout = DropoutCopy(
            random_job_prob=self.config.dropout_random_prob,
            enabled=self.config.dropout_enabled,
            rng=self._rng,
        )
        self._optimizer = AcquisitionOptimizer(
            self.node.space,
            acquisition=self.config.build_acquisition(),
            n_restarts=self.config.n_restarts,
            rng=self._rng,
            tracer=self._tracer,
        )
        self._termination = EITermination(
            base_threshold=self.config.ei_threshold,
            jobs_scale=self.config.ei_jobs_scale,
            patience=self.config.ei_patience,
            min_iterations=self.config.ei_min_iterations,
        )

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def _bootstrap_samples(self) -> Tuple[List[SampleRecord], Tuple[str, ...]]:
        records: List[SampleRecord] = []
        if self.config.informed_bootstrap:
            result = run_bootstrap(self.node, self.score_fn)
            for i, (config, obs, score) in enumerate(
                zip(result.configs, result.observations, result.scores)
            ):
                records.append(
                    SampleRecord(i, "bootstrap", config, obs, score)
                )
            infeasible = result.infeasible_jobs
        else:
            # Random-bootstrap ablation: same sample count, no structure.
            n_init = len(bootstrap_configurations(self.node.space))
            seen: Set[Tuple[int, ...]] = set()
            for i in range(n_init):
                config = self._random_unseen(seen)
                seen.add(config.flat())
                obs = self.node.observe(config)
                records.append(
                    SampleRecord(i, "bootstrap", config, obs, self.score_fn(obs))
                )
            infeasible = ()
        return records, infeasible

    def _batch_room(self, records: List["SampleRecord"]) -> int:
        """How many of this round's candidates the sample budget can take."""
        k = self.config.batch_k
        if self.config.max_samples is None:
            return k
        room = (
            self.config.max_samples - self.config.confirm_top - len(records)
        )
        return max(1, min(k, room))

    def _random_unseen(
        self, sampled: Set[Tuple[int, ...]], tries: int = 200
    ) -> Configuration:
        for _ in range(tries):
            config = self.node.space.random(self._rng)
            if config.flat() not in sampled:
                return config
        return self.node.space.random(self._rng)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def optimize(self) -> CLITEResult:
        """Run the full bootstrap-then-BO loop and return the best found.

        With telemetry enabled, the run is wrapped in an
        ``engine.optimize`` root span (phases nest under it), the
        context is installed on the node so observation windows and
        cache traffic are recorded too, and the returned result carries
        a snapshot scoped to exactly this run's spans.
        """
        telemetry = self._telemetry
        if telemetry.active and not self.node.telemetry.active:
            self.node.telemetry = telemetry
        spans_before = telemetry.tracer.finished_count
        with telemetry.tracer.span(
            "engine.optimize", jobs=self.node.n_jobs
        ) as span:
            result = self._optimize()
            span.set("samples", result.samples_taken)
            span.set("qos_met", result.qos_met)
            span.set("converged", result.converged)
        if not telemetry.active:
            return result
        telemetry.metrics.counter("engine.runs").add()
        telemetry.metrics.counter("engine.samples").add(result.samples_taken)
        return replace(
            result, telemetry=telemetry.snapshot(spans_since=spans_before)
        )

    def _optimize(self) -> CLITEResult:
        cache_hits0, cache_misses0 = self.node.cache_info()
        with self._tracer.span("engine.bootstrap"):
            records, infeasible = self._bootstrap_samples()
        if infeasible and self.config.stop_on_infeasible:
            best = max(records, key=lambda r: r.score)
            hits, misses = self.node.cache_info()
            return CLITEResult(
                best_config=best.config,
                best_score=best.score,
                best_observation=best.observation,
                samples=tuple(records),
                infeasible_jobs=infeasible,
                converged=False,
                cache_hits=hits - cache_hits0,
                cache_misses=misses - cache_misses0,
            )

        for record in records:
            self._dropout.update(record.config, record.observation, self.node)

        sampled: Set[Tuple[int, ...]] = {r.config.flat() for r in records}
        gp = GaussianProcess(
            kernel=self.config.build_kernel(), noise=self.config.gp_noise
        )
        self._termination.reset()
        converged = False
        first_qos_iteration: Optional[int] = None
        n_conditioned = 0  # records already folded into the GP

        for iteration in range(self.config.max_iterations):
            if (
                self.config.max_samples is not None
                and len(records)
                >= self.config.max_samples - self.config.confirm_top
            ):
                # Leave room in the budget for the confirmation windows.
                break
            self._telemetry.metrics.counter("engine.iterations").add()
            # Condition the surrogate on the new observations only: the
            # first round is a batch fit, every later round a rank-1
            # Cholesky update per new sample (the GP refits itself in
            # full only when its lengthscale heuristic shifts).
            if not gp.is_fitted:
                x = np.array(
                    [self.node.space.to_unit_cube(r.config) for r in records]
                )
                y = np.array([r.score for r in records])
                gp.fit(x, y)
            else:
                for record in records[n_conditioned:]:
                    gp.add_sample(
                        self.node.space.to_unit_cube(record.config),
                        record.score,
                    )
            n_conditioned = len(records)

            best_record = max(records, key=lambda r: r.score)

            # While QoS is unmet, alternate BO rounds with directed
            # repair moves: transfer the resource the most violating
            # job is most sensitive to, from the most comfortable
            # donor.  Repair exploits near-feasible cases in a handful
            # of windows; the interleaved BO rounds handle the mixes
            # where such coordinate moves cycle (Fig. 9b's regime).
            if not best_record.observation.all_qos_met and iteration % 2 == 0:
                repair = self._repair_candidate(best_record, sampled)
                if repair is not None:
                    with self._tracer.span("engine.observe", phase="repair"):
                        observation = self.node.observe(repair)
                    score = self.score_fn(observation)
                    self._dropout.update(repair, observation, self.node)
                    sampled.add(repair.flat())
                    records.append(
                        SampleRecord(
                            index=len(records),
                            phase="repair",
                            config=repair,
                            observation=observation,
                            score=score,
                        )
                    )
                    continue

            dropout = self._dropout.choose(self.node)
            exploit_round = (
                self.config.exploit_every > 0
                and iteration % self.config.exploit_every
                == self.config.exploit_every - 1
            )
            with self._tracer.span("engine.propose", iteration=iteration):
                if exploit_round:
                    proposal = self._optimizer.propose_exploit(
                        gp,
                        incumbent=best_record.config,
                        sampled=sampled,
                        upper_caps=self._upper_caps(records),
                    )
                else:
                    proposal = self._optimizer.propose(
                        gp,
                        best_score=best_record.score,
                        sampled=sampled,
                        incumbent=best_record.config,
                        dropout=dropout,
                        upper_caps=self._upper_caps(records),
                        max_candidates=self.config.batch_k,
                    )
            if first_qos_iteration is None and any(
                r.observation.all_qos_met for r in records
            ):
                first_qos_iteration = iteration
            stop_allowed = (
                first_qos_iteration is not None
                and iteration - first_qos_iteration
                >= self.config.post_qos_iterations
            )
            should_stop = not exploit_round and self._termination.update(
                proposal.max_acquisition, self.node.n_jobs
            )
            if should_stop and stop_allowed:
                converged = True
                break

            picks: List[Tuple[Configuration, Optional[float]]]
            if proposal.candidates:
                picks = [
                    (c.config, c.acquisition_value)
                    for c in proposal.candidates[: self._batch_room(records)]
                ]
            else:
                picks = [(self._random_unseen(sampled), None)]

            with self._tracer.span("engine.observe", phase="search"):
                observations = [
                    self.node.observe(config) for config, _ in picks
                ]
            for (config, ei), observation in zip(picks, observations):
                score = self.score_fn(observation)
                self._dropout.update(config, observation, self.node)
                sampled.add(config.flat())
                records.append(
                    SampleRecord(
                        index=len(records),
                        phase="search",
                        config=config,
                        observation=observation,
                        score=score,
                        expected_improvement=ei,
                    )
                )

        with self._tracer.span("engine.refine"):
            self._refine(records, sampled)
        with self._tracer.span("engine.confirm"):
            best = self._confirm_best(records)
        hits, misses = self.node.cache_info()
        return CLITEResult(
            best_config=best.config,
            best_score=best.score,
            best_observation=best.observation,
            samples=tuple(records),
            infeasible_jobs=infeasible,
            converged=converged,
            cache_hits=hits - cache_hits0,
            cache_misses=misses - cache_misses0,
        )

    def _repair_candidate(
        self,
        incumbent: SampleRecord,
        sampled: Set[Tuple[int, ...]],
    ) -> Optional[Configuration]:
        """A directed single-unit move toward feasibility.

        Finds the LC job furthest from its QoS in the incumbent and
        proposes the unsampled transfer with the best (violator
        sensitivity to the resource) x (donor comfort) product.  BG
        donors are always comfortable; LC donors are weighted by their
        squared QoS ratio so a transfer never knowingly creates a new
        violator.  Returns ``None`` when every such move was tried.
        """
        obs = incumbent.observation
        violators = [
            j
            for j in self.node.lc_indices
            if not obs.job(self.node.jobs[j].name).qos_met
        ]
        if not violators:
            return None
        victim = min(
            violators,
            key=lambda j: obs.job(self.node.jobs[j].name).qos_ratio,
        )
        victim_workload = self.node.jobs[victim].workload
        config = incumbent.config
        candidates = []
        for r, resource in enumerate(self.node.spec.resources):
            if resource.name == CORES:
                sensitivity = 0.8  # cores always relieve a saturated queue
            else:
                sensitivity = victim_workload.profile.sensitivity(resource.name)
            for donor in range(self.node.n_jobs):
                if donor == victim or config.get(donor, r) <= 1:
                    continue
                if donor in self.node.bg_indices:
                    comfort = 0.8
                else:
                    comfort = obs.job(self.node.jobs[donor].name).qos_ratio ** 2
                move = config.with_transfer(r, donor, victim)
                if move.flat() in sampled:
                    continue
                candidates.append((sensitivity * comfort + 1e-6, move))
        if not candidates:
            return None
        return max(candidates, key=lambda pair: pair[0])[1]

    def _refine(
        self,
        records: List[SampleRecord],
        sampled: Set[Tuple[int, ...]],
    ) -> None:
        """Greedy post-BO reshuffling of leftovers toward the BG jobs.

        The paper's CLITE "does not stop after meeting QoS targets, it
        reshuffles resources to improve every job's performance".  The
        BO phase maps the feasible region; this phase walks it with real
        observations: starting from the incumbent, repeatedly donate one
        unit from the LC job with the most latency slack to a BG job,
        keep the move iff the measured Eq. 3 score improved, and stop
        after ``refine_patience`` consecutive rejected moves or when the
        move budget runs out.  Mutates ``records``/``sampled`` in place.
        """
        budget = self.config.refine_budget
        if budget <= 0 or not self.node.bg_indices:
            return
        current = max(records, key=lambda r: r.score)
        if not current.observation.all_qos_met:
            return
        failures = 0
        rejected: Set[Tuple[int, ...]] = set()
        for _ in range(budget):
            if (
                self.config.max_samples is not None
                and len(records)
                >= self.config.max_samples - self.config.confirm_top
            ):
                break
            move = self._pick_refine_move(current, rejected)
            if move is None:
                break
            observation = self.node.observe(move)
            score = self.score_fn(observation)
            self._dropout.update(move, observation, self.node)
            sampled.add(move.flat())
            record = SampleRecord(
                index=len(records),
                phase="refine",
                config=move,
                observation=observation,
                score=score,
            )
            records.append(record)
            if score > current.score and observation.all_qos_met:
                current = record
                failures = 0
                rejected.clear()
            else:
                rejected.add(move.flat())
                failures += 1
                if failures >= self.config.refine_patience:
                    break

    def _pick_refine_move(
        self,
        current: SampleRecord,
        rejected: Set[Tuple[int, ...]],
    ) -> Optional[Configuration]:
        """The most promising untried LC-to-BG single-unit donation.

        Donations are ranked by donor latency slack times the receiving
        BG job's sensitivity to the donated resource, so bandwidth goes
        to bandwidth-hungry jobs first.
        """
        candidates = []
        config = current.config
        for donor in self.node.lc_indices:
            reading = current.observation.job(self.node.jobs[donor].name)
            slack = (
                reading.qos_target_ms - reading.p95_ms
            ) / reading.qos_target_ms
            if slack <= 0:
                continue
            for r, resource in enumerate(self.node.spec.resources):
                if config.get(donor, r) <= 1:
                    continue
                for receiver in self.node.bg_indices:
                    workload = self.node.jobs[receiver].workload
                    if resource.name == CORES:
                        sensitivity = workload.core_curve.weight
                    else:
                        sensitivity = workload.profile.sensitivity(resource.name)
                    move = config.with_transfer(r, donor, receiver)
                    if move.flat() in rejected:
                        continue
                    candidates.append((slack * (sensitivity + 0.05), move))
        if not candidates:
            return None
        return max(candidates, key=lambda pair: pair[0])[1]

    def _upper_caps(self, records: List[SampleRecord]) -> Optional[np.ndarray]:
        """Per-job unit caps for constrained execution (Sec. 4).

        LC jobs are capped at one unit above their allocation in the
        best *QoS-meeting* sample so far; BG jobs are never capped.
        Using the incumbent's rows — rather than, say, each job's
        individually cheapest feasible row across different samples —
        matters: rows taken from different samples are not jointly
        feasible, and a single noisy "feasible" reading could then trap
        the whole search inside a box where every partition violates
        QoS.  The incumbent's rows are jointly feasible by construction.
        Returns ``None`` until some sample has met every QoS, or when
        the pruning is disabled.
        """
        if not self.config.constrained_execution:
            return None
        feasible = [r for r in records if r.observation.all_qos_met]
        if not feasible:
            return None
        incumbent = max(feasible, key=lambda r: r.score)
        space = self.node.space
        n_jobs = space.n_jobs
        caps = np.array(
            [
                [res.units - n_jobs + 1 for res in space.spec.resources]
                for _ in range(n_jobs)
            ],
            dtype=float,
        )
        for j, job in enumerate(self.node.jobs):
            if not job.is_lc:
                continue
            row = np.asarray(incumbent.config.job_allocation(j), dtype=float)
            caps[j] = np.minimum(caps[j], row + 1.0)
        return caps

    def _confirm_best(self, records: List[SampleRecord]) -> SampleRecord:
        """Re-observe the top configurations and pick by the worse reading.

        Appends the confirmation windows to ``records`` so they count
        toward the sampling overhead, like any other observation.
        """
        k = min(self.config.confirm_top, len(records))
        if self.config.max_samples is not None:
            k = min(k, self.config.max_samples - len(records))
        if k < 1:
            return max(records, key=lambda r: r.score)
        top = sorted(records, key=lambda r: r.score, reverse=True)[:k]
        confirmed: List[SampleRecord] = []
        for record in top:
            observation = self.node.observe(record.config)
            score = self.score_fn(observation)
            confirm = SampleRecord(
                index=len(records),
                phase="confirm",
                config=record.config,
                observation=observation,
                score=min(score, record.score),
            )
            records.append(
                SampleRecord(
                    index=confirm.index,
                    phase="confirm",
                    config=record.config,
                    observation=observation,
                    score=score,
                )
            )
            confirmed.append(confirm)
        return max(confirmed, key=lambda r: r.score)
