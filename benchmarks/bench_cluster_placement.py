"""Cluster-scope extension: machines saved by QoS-aware co-location.

Not a figure from the paper, but its headline motivation quantified:
a stream of heavy service + batch placement requests under three
placement generations — dedicated machines, QoS-blind first fit, and
CLITE-verified packing.
"""

from common import save_report
from repro.cluster import Cluster, ClusterNode, JobRequest
from repro.experiments import format_table
from repro.resources import default_server
from repro.warehouse import (
    CLITEProbe,
    QoSBlindProbe,
    place,
    utilization_summary,
    verify_node,
)
from repro.workloads import parsec_catalog, tailbench_catalog

N_NODES = 12

#: The three placement generations: (name, admission probe, co-location cap).
GENERATIONS = (
    ("dedicated", QoSBlindProbe(), 1),
    ("first-fit", QoSBlindProbe(), 4),
    ("clite", CLITEProbe(), 4),
)


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


def compute():
    server = default_server()
    outcomes = {}
    for name, probe, cap in GENERATIONS:
        cluster = Cluster(n_nodes=N_NODES, spec=server)
        outcomes[name] = place(cluster, request_stream(server), probe, cap, seed=0)
    return outcomes


def test_cluster_placement(benchmark):
    outcomes = compute()
    rows = []
    for name, outcome in outcomes.items():
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
    report = format_table(
        ["policy", "machines", "all QoS met", "mean BG perf", "rejected"], rows
    )
    for name, outcome in outcomes.items():
        report += f"\n\n{name} placement map (request -> node):"
        for request, node in outcome.placements.items():
            report += f"\n  {request} -> {node}"
    save_report("cluster_placement", report)

    server = default_server()
    lc = tailbench_catalog(server)
    state = ClusterNode(0, server).with_request(
        JobRequest(lc["memcached"], 0.4, name="mc")
    )
    benchmark.pedantic(verify_node, args=(state,), rounds=1, iterations=1)

    dedicated = outcomes["dedicated"]
    first_fit = outcomes["first-fit"]
    clite = outcomes["clite"]

    # Shape 1: dedicated is safe but wasteful (one machine per request).
    assert dedicated.all_qos_met
    assert dedicated.machines_used == 9

    # Shape 2: blind packing is dense but violates QoS somewhere.
    assert first_fit.machines_used <= 4
    assert not first_fit.all_qos_met

    # Shape 3: CLITE packs far below dedicated while staying safe.
    assert clite.all_qos_met
    assert clite.machines_used <= first_fit.machines_used + 1
    assert clite.machines_used <= dedicated.machines_used // 2
    assert clite.rejected == ()
