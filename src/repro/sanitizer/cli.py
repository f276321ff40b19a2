"""``repro-san`` — runtime race and determinism sanitizer CLI.

Two subcommands:

``repro-san stress``
    Plays a small warehouse scenario while concurrent HTTP clients
    ``POST /submit``, ``GET /status`` and ``GET /metrics`` against a
    live control plane, under the sanitizer with a live telemetry stack,
    and reports any lockset-empty conflicting access pairs, lock-order
    cycles, self-deadlocks and blocking calls made under a lock.  The
    HTTP control plane is the one place where threads meet the
    scheduler, so this run is the gate on its lock discipline.  The
    sanitized timeline must also equal a direct, uninstrumented replay.

``repro-san probe pkg.module:function``
    Runs the target once per ``PYTHONHASHSEED`` universe in fresh
    subprocesses and diffs the trajectories, catching hash-order-
    dependent iteration that same-process tests cannot observe.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from .hashorder import DEFAULT_HASH_SEEDS, ProbeError, diff_outputs, hash_order_probe
from .shadow import instrument

#: Simulated horizon of the synthesized scenario; client jobs arrive after it.
STRESS_HORIZON_S = 300.0


def control_plane_stress(
    clients: int, n_requests: int, seed: int, via_http: bool = True
) -> Tuple[tuple, int]:
    """Play a scenario plus the clients' submissions; (timeline, submits).

    With ``via_http`` every client thread sends ``n_requests`` rounds of
    ``POST /submit``, ``GET /status`` and ``GET /metrics`` to a live
    :class:`~repro.warehouse.api.WarehouseAPIServer` while this thread
    runs the event loop, drains the gateway and publishes status;
    without it the submissions are scheduled directly (the reference).
    Either way they are scheduled in name order once every client is
    done, so the timeline is a function of the seed alone.
    """
    # Imported lazily so `repro-san probe` works without pulling in the
    # full engine stack (numpy/scipy).
    from repro.telemetry import SimulatedClock, Telemetry
    from repro.warehouse import (
        ScenarioConfig, ServiceGateway, WarehouseService, job_from_spec,
        load_into, make_api_server, synthesize,
    )

    def specs(client: int) -> List[Dict[str, object]]:
        return [
            {"workload": "memcached" if i % 2 else "canneal",
             "name": f"client{client}-{i:03d}", "at": STRESS_HORIZON_S + i}
            for i in range(n_requests)
        ]

    clock = SimulatedClock()
    telemetry = Telemetry.enabled(clock=clock)
    service = WarehouseService(
        8, seed=seed, recheck_period_s=30.0, clock=clock, telemetry=telemetry
    )
    load_into(service, synthesize(ScenarioConfig(
        n_jobs=20, duration_s=STRESS_HORIZON_S, seed=seed
    )))
    commands = [] if via_http else [
        job_from_spec(spec) for c in range(clients) for spec in specs(c)
    ]
    if via_http:
        gateway = ServiceGateway()
        server = make_api_server(gateway, telemetry.metrics)

        def client_loop(client: int) -> None:
            for spec in specs(client):
                for path, body in (
                    ("submit", json.dumps(spec).encode("utf-8")),
                    ("status", None),
                    ("metrics", None),
                ):
                    url = f"{server.url}/{path}"
                    request = urllib.request.Request(url, body)
                    with urllib.request.urlopen(request, timeout=30) as reply:
                        reply.read()

        threading.Thread(target=server.serve_forever, daemon=True).start()
        threads = [
            threading.Thread(target=client_loop, args=(c,))
            for c in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            t = 0.0
            while any(thread.is_alive() for thread in threads):
                commands.extend(gateway.drain())
                t = min(t + 10.0, STRESS_HORIZON_S)
                service.run_until(t)
                gateway.publish(service.status())
                time.sleep(0.001)
        finally:
            server.shutdown()
            server.server_close()
        commands.extend(gateway.drain())
    service.run_until(STRESS_HORIZON_S)
    for command in sorted(commands, key=lambda c: c.name):
        service.submit(command.job, at=command.at_s)  # type: ignore[arg-type]
    service.run_to_completion()
    return service.timeline, len(commands)


def _stress(args: argparse.Namespace) -> int:
    reference, _ = control_plane_stress(
        args.clients, args.requests, args.seed, via_http=False
    )
    with instrument() as sanitizer:
        timeline, submits = control_plane_stress(
            args.clients, args.requests, args.seed
        )
        races = sanitizer.races()
        lock_reports = sanitizer.lock_reports()
        n_access = len(sanitizer.accesses())
    print(
        f"repro-san stress: {submits} submission(s) from {args.clients} "
        f"HTTP client(s); {n_access} access pattern(s) recorded"
    )
    for race in races:
        print(f"  RACE {race.describe()}")
    for report in lock_reports:
        print(f"  LOCK {report.describe()}")
    failures = [f"{len(races)} race(s) detected"] if races else []
    if lock_reports:
        failures.append(f"{len(lock_reports)} lock report(s)")
    lost = args.clients * args.requests - submits
    if lost:
        failures.append(f"{lost} submission(s) lost")
    if timeline != reference:
        failures.append("sanitized timeline differs from the direct replay")
    print(f"repro-san: {'; '.join(failures)}" if failures else (
        f"repro-san: no races detected, no lock reports; {len(timeline)} "
        "decisions match the direct replay"
    ))
    return 1 if failures else 0


def _probe(args: argparse.Namespace) -> int:
    try:
        result = hash_order_probe(args.target, hash_seeds=args.hash_seeds)
    except (ProbeError, ValueError) as exc:
        print(f"repro-san: error: {exc}", file=sys.stderr)
        return 2
    print(result.describe())
    if not result.deterministic:
        for line in diff_outputs(result):
            print(f"  {line}")
        return 1
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: a count of at least one (zero exercises nothing)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _hash_seeds(text: str) -> Tuple[int, ...]:
    """An argparse type: two or more distinct ``PYTHONHASHSEED`` values
    (one universe compares nothing)."""
    try:
        seeds = tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        )
    if len(set(seeds)) < 2:
        raise argparse.ArgumentTypeError(
            f"need at least two distinct seeds, got {text!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-san",
        description="Runtime race and hash-order determinism sanitizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stress = sub.add_parser(
        "stress",
        help="hammer the HTTP control plane under the sanitizer",
    )
    stress.add_argument("--clients", type=_positive_int, default=4,
                        help="concurrent HTTP client threads")
    stress.add_argument("--requests", type=_positive_int, default=20,
                        help="submit/status/metrics rounds per client")
    stress.add_argument("--seed", type=int, default=0)
    stress.set_defaults(func=_stress)

    probe = sub.add_parser(
        "probe",
        help="diff a callable's output across PYTHONHASHSEED universes",
    )
    probe.add_argument(
        "target", help="import target, e.g. repro.experiments.demo:trajectory"
    )
    probe.add_argument(
        "--hash-seeds",
        type=_hash_seeds,
        default=DEFAULT_HASH_SEEDS,
        help=(
            "comma-separated PYTHONHASHSEED values, at least two distinct "
            "(default: 0,1)"
        ),
    )
    probe.set_defaults(func=_probe)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
