"""Tail-latency model for latency-critical jobs.

An LC job is modelled as a two-stage tandem queue:

* a **serial stage** — an M/M/1 queue representing the job's own
  software bottleneck (a global lock, the network stack, a GC thread).
  A request spends ``serial_fraction`` of its work here regardless of
  how many cores the job holds.  This stage is what saturates first in
  real Tailbench services and is why their maximum load sits far below
  ``cores x per-core-rate`` — and, crucially, it is *per job*, so two
  jobs at 100% of their own maximum load can still share one machine.
* a **parallel stage** — an M/M/c queue over the job's ``c`` allocated
  cores, handling the remaining ``1 - serial_fraction`` of the work.

Both stages' service rates scale with the job's share of every non-core
resource (LLC ways, memory bandwidth, ...) through its sensitivity
profile, so cache and bandwidth trade off against cores: that is the
"resource equivalence class" property of Sec. 2 / Fig. 1 of the paper.
The 95th-percentile sojourn time diverges as either stage approaches
saturation, giving the QPS-vs-latency knees of Fig. 6.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, Mapping, Optional, Tuple

from ..core.units import Fraction, Millis, Rate, Seconds

from .base import LCWorkload

#: Latency reported when a queue is saturated (arrival rate >= capacity).
SATURATED_LATENCY_MS: Millis = float("inf")


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arriving query waits, for an M/M/c queue.

    Args:
        servers: Number of servers ``c`` (cores), >= 1.
        offered_load: ``a = arrival_rate / service_rate`` in Erlangs;
            values at or above ``servers`` return 1.0 (saturated).

    Uses the numerically stable Erlang-B recurrence
    ``B(k) = a*B(k-1) / (k + a*B(k-1))`` and the identity
    ``C = B / (1 - rho * (1 - B))``.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered load must be >= 0, got {offered_load}")
    if offered_load == 0:
        return 0.0
    rho = offered_load / servers
    if rho >= 1.0:
        return 1.0
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking / (1.0 - rho * (1.0 - blocking))


def mm1_sojourn_quantile(
    arrival_rate: Rate, service_rate: Rate, percentile: Fraction = 0.95
) -> Seconds:
    """Quantile of M/M/1 response time (exactly Exp(mu - lambda)), seconds."""
    if not 0 < percentile < 1:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if service_rate <= 0 or arrival_rate >= service_rate:
        return float("inf")
    return -math.log(1.0 - percentile) / (service_rate - arrival_rate)


def mm1_mean_sojourn(arrival_rate: Rate, service_rate: Rate) -> Seconds:
    """Mean M/M/1 response time ``1 / (mu - lambda)``, seconds."""
    if service_rate <= 0 or arrival_rate >= service_rate:
        return float("inf")
    return 1.0 / (service_rate - arrival_rate)


def _mmc_closed_form(
    arrival_rate: Rate,
    service_rate: Rate,
    servers: int,
    percentile: Fraction,
) -> Optional[Seconds]:
    """The M/M/c quantile when it needs no bisection, else None.

    Validates the inputs; a saturated queue (``lambda >= c*mu``) gives
    ``inf`` and an idle one (``lambda == 0``) the service quantile.
    """
    if not 0 < percentile < 1:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if service_rate <= 0:
        return float("inf")
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate}")
    if arrival_rate >= servers * service_rate:
        return float("inf")
    if arrival_rate == 0:
        return -math.log(1.0 - percentile) / service_rate
    return None


def _mmc_brackets(
    arrival_rate: Rate,
    service_rate: Rate,
    servers: int,
    percentile: Fraction,
) -> Iterator[Tuple[Seconds, Seconds]]:
    """Every bracket ``(lo, hi)`` of the M/M/c quantile's bisection.

    The one bisection loop of this module: the quantile is
    ``0.5 * (lo + hi)`` of the last bracket (``inf`` when none is
    yielded, i.e. the doubling search gave up).  The bracket only
    shrinks and each step's midpoint lies inside it, so every yielded
    bracket contains the final quantile -- which is what lets
    :func:`p95_meets_target` stop as soon as a bracket decides.
    Callers go through :func:`_mmc_closed_form` first.
    """
    mu = service_rate
    lam = arrival_rate
    c = servers
    p_wait = erlang_c(c, lam / mu)
    p_direct = 1.0 - p_wait
    nu = c * mu - lam  # conditional wait is Exp(nu)
    gap = nu - mu
    erlang2 = abs(gap) < 1e-12 * mu  # Exp(mu) + Exp(mu) is Erlang-2

    def cdf(t: float) -> float:
        decay = math.exp(-mu * t)
        if erlang2:
            f_sum = 1.0 - decay * (1.0 + mu * t)
        else:
            f_sum = 1.0 - (nu * decay - mu * math.exp(-nu * t)) / gap
        return p_direct * (1.0 - decay) + p_wait * f_sum

    lo, hi = 0.0, 1.0 / mu
    while cdf(hi) < percentile:
        hi *= 2.0
        if hi > 1e9:  # pathological; treat as saturated
            return
    yield lo, hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # Fixed point: every later step leaves 0.5 * (lo + hi) at
            # mid bit-for-bit, so the remaining steps are no-ops.
            return
        if cdf(mid) < percentile:
            lo = mid
        else:
            hi = mid
        yield lo, hi


def mmc_sojourn_quantile(
    arrival_rate: Rate,
    service_rate: Rate,
    servers: int,
    percentile: Fraction = 0.95,
) -> Seconds:
    """The ``percentile`` quantile of M/M/c response (sojourn) time, seconds.

    The sojourn time is ``S + W`` where ``S ~ Exp(mu)`` is service and the
    wait ``W`` is zero with probability ``1 - Pw`` and ``Exp(c*mu - lambda)``
    with probability ``Pw`` (the Erlang-C waiting probability).  The CDF
    of that mixture has a closed form, which we invert by bisection.

    Returns ``inf`` if the queue is saturated (``lambda >= c*mu``).
    """
    quantile = _mmc_closed_form(arrival_rate, service_rate, servers, percentile)
    if quantile is not None:
        return quantile
    last = deque(
        _mmc_brackets(arrival_rate, service_rate, servers, percentile), maxlen=1
    )
    if not last:
        return float("inf")
    lo, hi = last[0]
    return 0.5 * (lo + hi)


def mmc_mean_sojourn(
    arrival_rate: Rate, service_rate: Rate, servers: int
) -> Seconds:
    """Mean M/M/c response time ``1/mu + Pw / (c*mu - lambda)``, seconds."""
    if service_rate <= 0 or arrival_rate >= servers * service_rate:
        return float("inf")
    p_wait = erlang_c(servers, arrival_rate / service_rate)
    return 1.0 / service_rate + p_wait / (servers * service_rate - arrival_rate)


def effective_service_rate(
    workload: LCWorkload,
    shares: Mapping[str, float],
    contention: float = 0.0,
) -> Rate:
    """Unit-work completion rate under the given non-core shares.

    This is the rate at which one request's *total* work would complete
    on ideal hardware: ``base_service_rate`` scaled by the workload's
    non-core sensitivity profile and degraded by co-runner ``contention``
    on unpartitioned hardware (:mod:`repro.workloads.interference`).
    The tandem stages split this rate via ``serial_fraction``.
    """
    degradation = 1.0 / (1.0 + workload.contention_sensitivity * max(contention, 0.0))
    return workload.base_service_rate * workload.non_core_multiplier(shares) * degradation


def stage_rates(
    workload: LCWorkload,
    shares: Mapping[str, float],
    contention: float = 0.0,
) -> Tuple[Rate, Rate]:
    """Service rates ``(mu_serial, mu_parallel)`` of the tandem stages.

    A request whose total work completes at rate ``mu`` spends
    ``serial_fraction`` of it in the single-threaded stage (rate
    ``mu / sigma``) and the rest in the parallel stage (per-core rate
    ``mu / (1 - sigma)``).  A zero ``serial_fraction`` yields an
    infinite serial rate, i.e. no serial stage.
    """
    mu = effective_service_rate(workload, shares, contention)
    sigma = workload.serial_fraction
    mu_serial = math.inf if sigma == 0 else mu / sigma
    mu_parallel = mu / (1.0 - sigma)
    return mu_serial, mu_parallel


def capacity_qps(
    workload: LCWorkload,
    cores: int,
    shares: Mapping[str, float],
    contention: float = 0.0,
) -> Rate:
    """Saturation throughput: the slower of the two stages' capacities.

    ``min(mu/sigma, c * mu/(1-sigma))`` — for enough cores the job's own
    serial bottleneck caps throughput, which is why maximum load barely
    grows past a handful of cores (and why co-locating several LC jobs
    at high load is possible at all).
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    mu_serial, mu_parallel = stage_rates(workload, shares, contention)
    return min(mu_serial, cores * mu_parallel)


#: The serial stage's ``(quantile, mean)`` and the parallel stage's mean,
#: in seconds; None when the job has no serial stage.
_SerialTerms = Optional[Tuple[Seconds, Seconds, Seconds]]


def _tandem_inputs(
    workload: LCWorkload,
    qps: Rate,
    cores: int,
    shares: Mapping[str, float],
    contention: float,
    percentile: Fraction,
) -> Tuple[Rate, _SerialTerms]:
    """Validated tandem-queue inputs: the parallel stage's per-core rate
    and the closed-form terms the tail adds to its quantile."""
    if qps < 0:
        raise ValueError(f"qps must be >= 0, got {qps}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    mu_serial, mu_parallel = stage_rates(workload, shares, contention)
    if math.isinf(mu_serial):
        return mu_parallel, None
    return mu_parallel, (
        mm1_sojourn_quantile(qps, mu_serial, percentile),
        mm1_mean_sojourn(qps, mu_serial),
        mmc_mean_sojourn(qps, mu_parallel, cores),
    )


def _tandem_ms(q_parallel: Seconds, serial: _SerialTerms) -> Millis:
    """The tandem tail (ms) for a parallel-stage quantile ``q_parallel``.

    Monotone non-decreasing in ``q_parallel``: IEEE ``+``, ``max`` and
    ``* 1000`` all are, and a saturated total maps to the top (inf).
    """
    if serial is None:
        total_s = q_parallel
    else:
        q_serial, m_serial, m_parallel = serial
        total_s = max(q_serial + m_parallel, q_parallel + m_serial)
    if math.isinf(total_s):
        return SATURATED_LATENCY_MS
    return total_s * 1000.0


def p95_latency_ms(
    workload: LCWorkload,
    qps: Rate,
    cores: int,
    shares: Mapping[str, float],
    contention: float = 0.0,
    percentile: Fraction = 0.95,
) -> Millis:
    """95th-percentile latency (ms) of ``workload`` at ``qps`` load.

    The tandem-queue tail is approximated as the larger stage's quantile
    plus the other stage's mean — exact for a single dominant stage,
    slightly conservative in between, and monotone in both utilizations.

    Args:
        workload: The LC job.
        qps: Absolute arrival rate in queries/second.
        cores: Cores allocated to the job (M/M/c servers).
        shares: Fractional shares of non-core resources.
        contention: Co-runner pressure on unpartitioned resources.
        percentile: Tail percentile (default 0.95, as in the paper).
    """
    mu_parallel, serial = _tandem_inputs(
        workload, qps, cores, shares, contention, percentile
    )
    q_parallel = mmc_sojourn_quantile(qps, mu_parallel, cores, percentile)
    return _tandem_ms(q_parallel, serial)


def p95_meets_target(
    workload: LCWorkload,
    qps: Rate,
    cores: int,
    shares: Mapping[str, float],
    target_ms: Millis,
    contention: float = 0.0,
    percentile: Fraction = 0.95,
) -> Optional[bool]:
    """``p95_latency_ms(...) <= target_ms``, bisecting only until decided.

    Returns None when that p95 is saturated (:data:`SATURATED_LATENCY_MS`),
    so the caller's saturated-queue model can decide.  Every bracket
    ``[lo, hi]`` of the parallel stage's bisection contains its final
    quantile ``q`` and :func:`_tandem_ms` is monotone, so
    ``_tandem_ms(lo) <= p95 <= _tandem_ms(hi)``: the search stops with
    True once the upper bound meets a finite target, and with False
    once the lower bound exceeds it while the upper bound is finite.
    A tail already saturated at ``q = 0`` (a saturated serial stage)
    skips the bisection.  The answer is the one the full bisection
    gives, bit for bit.
    """
    mu_parallel, serial = _tandem_inputs(
        workload, qps, cores, shares, contention, percentile
    )
    q_parallel = _mmc_closed_form(qps, mu_parallel, cores, percentile)
    if q_parallel is None:
        if math.isinf(_tandem_ms(0.0, serial)):
            return None  # every quantile is >= 0: saturated whatever q is
        # An early True must imply a finite p95, so an infinite (or NaN)
        # target runs the bisection to the end.
        decidable = target_ms < math.inf
        lo = hi = math.inf
        for lo, hi in _mmc_brackets(qps, mu_parallel, cores, percentile):
            if not decidable:
                continue
            upper = _tandem_ms(hi, serial)
            if upper <= target_ms:
                return True
            if upper < math.inf and _tandem_ms(lo, serial) > target_ms:
                return False
        q_parallel = 0.5 * (lo + hi)
    latency = _tandem_ms(q_parallel, serial)
    if math.isinf(latency):
        return None
    return latency <= target_ms
