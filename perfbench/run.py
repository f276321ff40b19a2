"""The repo benchmark: end-to-end metrics, or a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload partition --seed 1 --seconds 30 --trace 0

``--trace 0`` plays whole rounds of the workload until ``--seconds`` have
passed and reports every end-to-end metric named in ``BENCHMARK.json``,
its times scaled to a reference host speed (``hostspeed.py``; the raw
times are on the line before the result).
``--trace 1`` plays one round untraced and then the same round traced,
and reports every per-layer metric: calls and self time per wrapped
public method, exact counts, and the unattributed remainder.  The traced
round's spans are written as telemetry JSONL under ``.perfbench-out/``,
so ``repro-trace summary`` renders a ledger and ``repro-trace diff``
compares two.  The last stdout line is always the result object.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pool width.  One thread (never more than the cores the
#: machine has) keeps CPU time equal to wall time and the numpy kernels'
#: timings independent of what else the machine runs.
THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-ups timed before each round and after the last; ``setup_s`` is
#: the median of their host-speed-scaled times.  Spreading them over the
#: run, instead of timing them back to back, keeps one slow moment of
#: the host from setting it.
SETUPS_PER_BREAK = 16
#: The least share of the traced round's wall time the ledger must name.
MIN_ATTRIBUTED_SHARE = 0.95
#: Tail percentiles, highest first.  A workload's tail metric is the
#: highest that leaves at least :data:`TAIL_BEYOND` samples beyond it in
#: one round, so it means the same in every run however many rounds fit.
TAIL_PERCENTILES = (99, 90, 75, 50)
TAIL_BEYOND = 10


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _percentile(values: List[float], p: float) -> float:
    """Linearly interpolated percentile; p=50 is the usual median."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _tail_percentile(per_round: int) -> int:
    for p in TAIL_PERCENTILES:
        if per_round * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _time_setups(workload: Any, raw: List[float], scaled: List[float]) -> None:
    from hostspeed import HostSpeed
    from workloads import CLOCK

    speed = HostSpeed()
    for _ in range(SETUPS_PER_BREAK):
        t0 = CLOCK.now()
        state = workload.setup()
        dt = CLOCK.now() - t0
        workload.teardown(state)
        raw.append(dt)
        speed.add(dt)
    scaled.extend(speed.finish())


def _round(workload: Any, ledger: Any, rec: Any) -> None:
    state = workload.setup()
    rec.open_round()
    try:
        workload.run_round(state, ledger, rec)
    finally:
        rec.close_round()
        workload.teardown(state)


def end_to_end(workload: Any, seconds: float) -> Dict[str, Any]:
    """Whole rounds for ``seconds``; every end-to-end metric.

    The ledger is never entered, so nothing in the program is wrapped.
    """
    from hostspeed import REFERENCE_S
    from ledger import Ledger
    from workloads import CLOCK, Record

    setups: List[float] = []
    raw_setups: List[float] = []
    rec = Record()
    ledger = Ledger()
    start = CLOCK.now()
    round_walls: List[float] = []
    round_elapsed = 0.0
    per_round = 0
    # Whole rounds only, and no round that would end past --seconds
    # (the first always runs): every round replays the same inputs, so
    # the rates do not depend on how many rounds fit.
    while not round_walls or (CLOCK.now() - start + round_elapsed <= seconds):
        t0 = CLOCK.now()
        _time_setups(workload, raw_setups, setups)
        wall0 = rec.wall_s
        _round(workload, ledger, rec)
        round_walls.append(rec.wall_s - wall0)
        round_elapsed = CLOCK.now() - t0
        per_round = per_round or len(rec.latencies_ms)
    _time_setups(workload, raw_setups, setups)
    lat, raw_lat = rec.latencies_ms, rec.raw_latencies_ms
    tail = _tail_percentile(per_round)
    metrics = {
        "setup_s": statistics.median(setups),
        "decisions_per_s": _ratio(rec.decisions, rec.scaled_s),
        "decision_ms_p50": _percentile(lat, 50) if lat else 0.0,
        "decision_ms_tail": _percentile(lat, tail) if lat else 0.0,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(rec.quality)
    info = {
        "rounds": len(round_walls),
        "round_timed_wall_s": round_walls,
        "latency_samples": len(lat),
        "latency_samples_per_round": per_round,
        "tail_percentile": tail,
        "decisions": rec.decisions,
        "timed_wall_s": rec.wall_s,
        "timed_scaled_s": rec.scaled_s,
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "decisions_per_s": _ratio(rec.decisions, rec.wall_s),
            "decision_ms_p50": _percentile(raw_lat, 50) if raw_lat else 0.0,
            "decision_ms_tail": _percentile(raw_lat, tail) if raw_lat else 0.0,
        },
        "kernel_ms": {
            "reference": REFERENCE_S * 1e3,
            "median": statistics.median(rec.kernel_s) * 1e3,
            "min": min(rec.kernel_s) * 1e3,
            "max": max(rec.kernel_s) * 1e3,
            "samples": len(rec.kernel_s),
        },
        "setup_samples": len(setups),
        "bg_perf_mean": rec.quality.get("bg_perf_mean"),
        "failed_fraction": _ratio(rec.failed, rec.decisions),
        "counts": rec.counts,
    }
    return {"metrics": metrics, "info": info, "rec": rec, "problems": []}


def _repeat_share(counts: Dict[str, int]) -> float:
    return _ratio(counts.get("probes_repeated", 0), counts.get("probes", 0))


def traced(workload: Any, seed: int) -> Dict[str, Any]:
    """One round untraced, the same round traced; every per-layer metric."""
    from ledger import ROOT_SPANS, Ledger
    from workloads import Record

    plain = Record()
    _round(workload, Ledger(), plain)
    rec = Record()
    with Ledger() as ledger:
        _round(workload, ledger, rec)
    totals = ledger.layer_totals()
    # Self time of the named layers below the decision spans; a decision
    # span's own self time is not a layer's, so it is not attributed.
    attributed = sum(
        self_s for name, (_, self_s) in totals.items() if name not in ROOT_SPANS
    )
    c = ledger.counts
    p = rec.counts
    metrics: Dict[str, float] = {}
    # Self time as a share of the round's wall time: a layer a workload
    # never calls then reads 0 as a share, not as a constant time.
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_share"] = _ratio(self_s, rec.wall_s)
    checks = p.get("checks", 0)
    store_hits, store_misses = p.get("store_hits", 0), p.get("store_misses", 0)
    cache_hits, cache_misses = p.get("node_cache_hits", 0), p.get("node_cache_misses", 0)
    metrics.update({
        "warehouse.admission.checks": checks,
        "warehouse.admission.admit_ratio": _ratio(c.get("checks_admitted", 0), checks),
        "warehouse.admission.checks_per_arrival": _ratio(checks, p.get("arrivals", 0)),
        "warehouse.admission.truths_per_check": _ratio(
            totals["server.node.true_performance"][0], checks
        ),
        "core.optimizer.empty": c.get("proposals_empty", 0),
        "core.optimizer.empty_ratio": _ratio(c.get("proposals_empty", 0), c.get("proposals", 0)),
        "core.gp.predict.rows": c.get("predict_rows", 0),
        "core.engine.windows": p.get("windows", 0),
        "core.engine.windows_per_run": _ratio(p.get("windows", 0), p.get("engine_runs", 0)),
        "server.obstore.hits": store_hits,
        "server.obstore.misses": store_misses,
        "server.obstore.hit_ratio": _ratio(store_hits, store_hits + store_misses),
        "server.node.cache_hits": cache_hits,
        "server.node.cache_misses": cache_misses,
        "server.node.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "probe.repeat_share.first_pass": _repeat_share(rec.passes[0]),
        "probe.repeat_share.restart_pass": (
            _repeat_share(rec.passes[1]) if len(rec.passes) > 1 else 0.0
        ),
        "timed_wall_s": rec.wall_s,
        "unattributed_s": rec.wall_s - attributed,
        "attributed_share": _ratio(attributed, rec.wall_s),
        "trace.overhead_s": rec.wall_s - plain.wall_s,
        "trace.spans": ledger.tracer.finished_count,
        "trace.dropped": ledger.tracer.dropped,
    })
    path = OUT / f"{workload.name}-seed{seed}.jsonl"
    ledger.write(path, rec.metrics)
    problems = list(plain.problems)
    if plain.digests != rec.digests:
        problems.append(
            f"traced digest {rec.digests} != untraced {plain.digests}"
        )
    if ledger.tracer.dropped:
        problems.append(f"tracer dropped {ledger.tracer.dropped} records")
    if metrics["attributed_share"] < MIN_ATTRIBUTED_SHARE:
        problems.append(
            f"ledger names only {metrics['attributed_share']:.1%} of wall time"
        )
    for name in sorted(totals, key=lambda n: -totals[n][1]):
        calls, self_s = totals[name]
        if calls:
            root = " (decision span: unattributed)" if name in ROOT_SPANS else ""
            print(f"  {name:40s} {calls:9d} calls {self_s:10.4f} s self "
                  f"{_ratio(self_s, rec.wall_s):7.1%}{root}")
    print(f"  {'unattributed':40s} {'':15s} {metrics['unattributed_s']:10.4f} s")
    info = {
        "ledger_jsonl": str(path.relative_to(ROOT)),
        "digest_untraced": plain.digests,
        "digest_traced": rec.digests,
        "untraced_wall_s": plain.wall_s,
        "counts": rec.counts,
        "ledger_counts": rec.passes,
    }
    return {"metrics": metrics, "info": info, "rec": rec, "problems": problems}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise _fail("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        raise _fail(f"no program to measure: {SRC / 'repro'} is missing")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise _fail(f"{spec_path} is missing")
    sys.path.insert(0, str(SRC))
    import numpy
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise _fail(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise _fail(f"unknown workload {args.workload!r}")
    print(json.dumps({"env": {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }}))

    workload = workloads.make(args.workload, args.seed, OUT / "tmp")
    try:
        workload.warmup()
        if args.trace:
            out = traced(workload, args.seed)
            wanted = spec["per_layer"]
        else:
            out = end_to_end(workload, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    rec = out["rec"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        raise _fail(f"no value for {missing}")
    digests_agree = len(set(rec.digests)) == 1
    problems = rec.problems + out["problems"]
    if not digests_agree:
        problems.append(f"rounds disagree: {rec.digests}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "digest": rec.digests[0] if rec.digests else None,
        "quality": rec.quality,
        "problems": problems,
        **out["info"],
    }))
    print(json.dumps({
        "correct": not problems and rec.failed == 0,
        "attempted": max(rec.decisions, 1),
        "failed": rec.failed,
        "metrics": {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
