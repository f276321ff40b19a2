"""Workload models: LC latency, BG throughput, catalogs, load generation."""

from .base import (
    BGWorkload,
    LCWorkload,
    ResourceProfile,
    SensitivityCurve,
    Workload,
)
from .des import SimulationResult, simulate_mmc, simulate_tandem
from .interference import co_runner_pressure, exerted_pressure
from .latency import (
    SATURATED_LATENCY_MS,
    capacity_qps,
    effective_service_rate,
    erlang_c,
    mm1_mean_sojourn,
    mm1_sojourn_quantile,
    mmc_mean_sojourn,
    mmc_sojourn_quantile,
    p95_latency_ms,
    p95_meets_target,
    stage_rates,
)
from .loadgen import (
    LoadPhase,
    LoadSchedule,
    LoadSweep,
    calibrate,
    find_knee,
    isolated_shares,
    sweep_load,
)
from .parsec import BG_ACRONYMS, BG_NAMES, bg_workload, parsec_catalog
from .tailbench import LC_NAMES, lc_workload, tailbench_catalog
from .throughput import isolated_throughput, normalized_throughput, throughput

__all__ = [
    "BGWorkload",
    "BG_ACRONYMS",
    "BG_NAMES",
    "LCWorkload",
    "LC_NAMES",
    "LoadPhase",
    "LoadSchedule",
    "LoadSweep",
    "ResourceProfile",
    "SATURATED_LATENCY_MS",
    "SensitivityCurve",
    "SimulationResult",
    "Workload",
    "bg_workload",
    "calibrate",
    "capacity_qps",
    "co_runner_pressure",
    "effective_service_rate",
    "erlang_c",
    "exerted_pressure",
    "find_knee",
    "isolated_shares",
    "isolated_throughput",
    "lc_workload",
    "mm1_mean_sojourn",
    "mm1_sojourn_quantile",
    "mmc_mean_sojourn",
    "mmc_sojourn_quantile",
    "normalized_throughput",
    "stage_rates",
    "p95_latency_ms",
    "p95_meets_target",
    "parsec_catalog",
    "simulate_mmc",
    "simulate_tandem",
    "sweep_load",
    "tailbench_catalog",
    "throughput",
]
