"""Command-line interface: run co-locations from a shell.

Installed as ``repro-clite``.  Subcommands:

* ``workloads`` — list the Tailbench/PARSEC catalogs with calibrated
  QoS targets;
* ``run`` — partition one mix with one policy and report the outcome;
* ``compare`` — run the full Sec. 5 policy lineup on one mix;
* ``sweep`` — print a workload's isolated QPS-vs-p95 curve and knee
  (the Fig. 6 methodology);
* ``region`` — print a workload's QoS-safe frontier over two resources
  (the Fig. 1 view).

Mixes are given as repeated ``--lc NAME:LOAD`` and ``--bg NAME`` flags::

    repro-clite run --lc memcached:0.5 --lc img-dnn:0.3 --bg streamcluster
    repro-clite compare --lc img-dnn:0.5 --lc masstree:0.4 --bg canneal
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .experiments import (
    MixSpec,
    STANDARD_POLICIES,
    format_table,
    qos_region,
    run_trial,
)
from .core import CLITEConfig
from .resources import default_server
from .schedulers import CLITEPolicy
from .server import NodeBudget, ObservationStore
from .telemetry import Telemetry, WallClock, write_jsonl
from .workloads import (
    BG_NAMES,
    LC_NAMES,
    lc_workload,
    parsec_catalog,
    sweep_load,
    tailbench_catalog,
)


def _parse_lc(value: str) -> Tuple[str, float]:
    try:
        name, load_text = value.rsplit(":", 1)
        load = float(load_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME:LOAD (e.g. memcached:0.5), got {value!r}"
        )
    if name not in LC_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown LC workload {name!r}; choose from {', '.join(LC_NAMES)}"
        )
    if not 0 < load <= 1:
        raise argparse.ArgumentTypeError(f"load must be in (0, 1], got {load}")
    return name, load


def _parse_bg(value: str) -> str:
    if value not in BG_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown BG workload {value!r}; choose from {', '.join(BG_NAMES)}"
        )
    return value


def _add_mix_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lc",
        type=_parse_lc,
        action="append",
        default=None,
        metavar="NAME:LOAD",
        help="latency-critical job at a load fraction (repeatable)",
    )
    parser.add_argument(
        "--bg",
        type=_parse_bg,
        action="append",
        default=None,
        metavar="NAME",
        help="background job (repeatable)",
    )
    parser.add_argument("--budget", type=int, default=90, help="observation windows")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _build_mix(args: argparse.Namespace) -> MixSpec:
    lc = args.lc or []
    bg = args.bg or []
    if not lc and not bg:
        raise SystemExit("error: give at least one --lc or --bg job")
    return MixSpec.of(lc=lc, bg=bg)


def _trial_rows(trial) -> List[List[object]]:
    rows: List[List[object]] = []
    for name, perf in trial.lc_performance.items():
        rows.append([name, "LC", f"{perf:.1%} of isolated latency"])
    for name, perf in trial.bg_performance.items():
        rows.append([name, "BG", f"{perf:.1%} of isolated throughput"])
    return rows


def cmd_workloads(args: argparse.Namespace) -> int:
    del args
    server = default_server()
    lc_rows = [
        [name, f"{w.qos_latency_ms:.2f} ms", f"{w.max_qps:,.0f} qps", w.description]
        for name, w in tailbench_catalog(server).items()
    ]
    bg_rows = [[name, w.description] for name, w in parsec_catalog().items()]
    print("Latency-critical workloads:")
    print(format_table(["name", "QoS target", "max load", "description"], lc_rows))
    print("\nBackground workloads:")
    print(format_table(["name", "description"], bg_rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    mix = _build_mix(args)
    if args.policy not in STANDARD_POLICIES:
        raise SystemExit(
            f"error: unknown policy {args.policy!r}; choose from "
            f"{', '.join(STANDARD_POLICIES)}"
        )
    if args.batch_k < 1:
        raise SystemExit("error: --batch-k must be >= 1")
    if args.batch_k > 1 and args.policy != "CLITE":
        raise SystemExit("error: --batch-k applies only to --policy CLITE")
    if args.policy == "CLITE":
        policy = CLITEPolicy(CLITEConfig(batch_k=args.batch_k), seed=args.seed)
    else:
        policy = STANDARD_POLICIES[args.policy](args.seed)
    print(f"Partitioning {mix.label()} with {args.policy} ...")
    telemetry = Telemetry.enabled(clock=WallClock()) if args.trace else None
    store = ObservationStore(args.obstore) if args.obstore else None
    try:
        trial = run_trial(
            mix,
            policy,
            seed=args.seed,
            budget=NodeBudget(args.budget),
            telemetry=telemetry,
            store=store,
        )
    finally:
        if store is not None:
            stats = store.stats()
            store.close()
    if store is not None:
        print(
            f"observation store {args.obstore}: {stats.hits} hits, "
            f"{stats.misses} misses, {len(store)} entries on disk"
        )
    if telemetry is not None:
        lines = write_jsonl(telemetry, args.trace)
        print(
            f"wrote {lines} telemetry records to {args.trace} "
            f"(render with: repro-trace summary {args.trace})"
        )
    print(f"\nsamples: {trial.samples}   QoS met: {trial.qos_met}")
    if trial.result.infeasible_jobs:
        print(
            "infeasible even in isolation (schedule elsewhere): "
            + ", ".join(trial.result.infeasible_jobs)
        )
    if trial.result.best_config is not None:
        print("\npartition (units per job):")
        names = [n for n, _ in mix.lc] + list(mix.bg)
        for j, name in enumerate(names):
            print(f"  {name:14s} {trial.result.best_config.job_allocation(j)}")
        print("\nground-truth outcome:")
        print(format_table(["job", "role", "performance"], _trial_rows(trial)))
    return 0 if trial.qos_met else 1


def cmd_compare(args: argparse.Namespace) -> int:
    mix = _build_mix(args)
    print(f"Comparing policies on {mix.label()} ...")
    rows = []
    for name, factory in STANDARD_POLICIES.items():
        trial = run_trial(
            mix, factory(args.seed), seed=args.seed, budget=NodeBudget(args.budget)
        )
        bg = trial.mean_bg_performance if trial.qos_met and mix.bg else None
        rows.append(
            [
                name,
                "yes" if trial.qos_met else "NO",
                bg,
                trial.samples,
                trial.evaluations,
            ]
        )
    print(
        format_table(
            ["policy", "QoS met", "BG perf", "samples", "total evals"], rows
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    server = default_server()
    sweep = sweep_load(lc_workload(args.workload, calibrated=False), server)
    rows = [
        [f"{qps:,.0f}", f"{p95:.3f}"] for qps, p95 in sweep.rows()[:: args.stride]
    ]
    print(f"{args.workload}: isolated QPS vs p95 latency")
    print(format_table(["QPS", "p95 (ms)"], rows))
    print(
        f"\nknee: {sweep.knee_qps:,.0f} qps at {sweep.knee_latency_ms:.3f} ms "
        "(= 100% load / QoS target basis)"
    )
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    region = qos_region(
        args.workload,
        args.load,
        resource_a=args.resource_a,
        resource_b=args.resource_b,
    )
    rows = [[a, b] for a, b in region.frontier()]
    print(
        f"{args.workload} @ {args.load:.0%} load: minimum {args.resource_b} "
        f"needed per {args.resource_a} allocation (others at maximum)"
    )
    print(format_table([args.resource_a, f"min {args.resource_b}"], rows))
    if not rows:
        print("(no allocation meets QoS at this load)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-clite",
        description="CLITE: QoS-aware co-location of latency-critical jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload catalogs").set_defaults(
        func=cmd_workloads
    )

    run_parser = sub.add_parser("run", help="partition one mix with one policy")
    _add_mix_arguments(run_parser)
    run_parser.add_argument(
        "--policy",
        default="CLITE",
        help=f"one of: {', '.join(STANDARD_POLICIES)}",
    )
    run_parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable telemetry and write a JSONL trace to FILE "
        "(render it with repro-trace)",
    )
    run_parser.add_argument(
        "--batch-k",
        type=int,
        default=1,
        metavar="K",
        help="CLITE only: observe K acquisition candidates per BO round "
        "(K>1 trades paper-exact sample efficiency for wall-clock)",
    )
    run_parser.add_argument(
        "--obstore",
        metavar="FILE",
        default=None,
        help="persist noise-free observations to FILE (JSONL); repeated "
        "runs of the same mix replay truths instead of re-simulating",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="run the full policy lineup")
    _add_mix_arguments(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    sweep_parser = sub.add_parser("sweep", help="isolated QPS-vs-p95 curve (Fig. 6)")
    sweep_parser.add_argument("--workload", required=True, choices=LC_NAMES)
    sweep_parser.add_argument("--stride", type=int, default=5)
    sweep_parser.set_defaults(func=cmd_sweep)

    region_parser = sub.add_parser("region", help="QoS-safe frontier (Fig. 1)")
    region_parser.add_argument("--workload", required=True, choices=LC_NAMES)
    region_parser.add_argument("--load", type=float, default=0.5)
    region_parser.add_argument("--resource-a", default="cores")
    region_parser.add_argument("--resource-b", default="llc_ways")
    region_parser.set_defaults(func=cmd_region)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
