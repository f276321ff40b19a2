#!/usr/bin/env python3
"""Warehouse-scale placement: co-location as a cluster-efficiency tool.

The paper's pitch is that safely co-locating multiple LC jobs with
batch work is how datacenters reclaim idle machines.  This example
plays a stream of nine service/batch placement requests against three
generations of placement and prints the operator's view: machines used,
QoS safety, and batch throughput.  All three are one placement engine,
``repro.warehouse.place``, with a different admission probe and
co-location cap:

* dedicated  — QoS-blind probe, cap 1: one job per machine (no
  co-location, the conservative baseline the paper's introduction
  starts from);
* first-fit  — QoS-blind probe, cap 4: dense structural packing;
* clite      — CLITE probe, cap 4: pack only where a CLITE run proves a
  QoS-safe partition exists, opening a fresh machine otherwise.
"""

from repro.cluster import Cluster, JobRequest
from repro.experiments import format_table
from repro.resources import default_server
from repro.warehouse import CLITEProbe, QoSBlindProbe, place, utilization_summary
from repro.workloads import parsec_catalog, tailbench_catalog

N_NODES = 10


def request_stream(server):
    lc = tailbench_catalog(server)
    bg = parsec_catalog()
    return [
        JobRequest(lc["memcached"], 0.9, name="mc-frontend"),
        JobRequest(lc["img-dnn"], 0.8, name="vision-api"),
        JobRequest(lc["xapian"], 0.7, name="search"),
        JobRequest(lc["masstree"], 0.8, name="kv-store"),
        JobRequest(lc["specjbb"], 0.7, name="middleware"),
        JobRequest(lc["memcached"], 0.4, name="mc-sessions"),
        JobRequest(bg["streamcluster"], name="analytics"),
        JobRequest(bg["blackscholes"], name="pricing-batch"),
        JobRequest(bg["canneal"], name="place-route"),
    ]


def main() -> None:
    server = default_server()
    generations = (
        ("dedicated", QoSBlindProbe(), 1),
        ("first-fit", QoSBlindProbe(), 4),
        ("clite", CLITEProbe(), 4),
    )

    rows = []
    placements = {}
    for name, probe, cap in generations:
        cluster = Cluster(n_nodes=N_NODES, spec=server)
        outcome = place(cluster, request_stream(server), probe, cap, seed=0)
        summary = utilization_summary(outcome, N_NODES)
        rows.append(
            [
                name,
                summary["machines_used"],
                "yes" if summary["all_qos_met"] else "NO",
                summary["mean_bg_performance"],
                summary["rejected"],
            ]
        )
        placements[name] = outcome.placements

    print(f"Placing 9 requests on a {N_NODES}-node cluster:\n")
    print(
        format_table(
            ["policy", "machines", "all QoS met", "mean BG perf", "rejected"],
            rows,
        )
    )

    print("\nCLITE placement map (request -> node):")
    by_node = {}
    for name, node in sorted(placements["clite"].items(), key=lambda kv: kv[1]):
        by_node.setdefault(node, []).append(name)
    for node, names in sorted(by_node.items()):
        print(f"  node {node}: {', '.join(names)}")

    print(
        "\nReading: dedicated wastes the cluster to stay safe; first-fit"
        "\npacks densely but may break QoS; CLITE packs as densely as a"
        "\nproven-safe partition allows."
    )


if __name__ == "__main__":
    main()
