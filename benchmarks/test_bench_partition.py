"""Bench: partition tolerance of the federated control plane.

Runs the community-split scenario pair (never-partitioned oracle vs
partitioned run, bit-identical deployments) plus one partitions-on chaos
campaign at two shards, and emits ``BENCH_partition.json`` at the repo
root — the degraded-mode trajectory of the allocation tier:

* how much of the request stream each side of the split still accepts;
* how many resolves the stale federated view served (``degraded=True``);
* how many writes parked in the hinted-handoff log and replayed;
* how long the chaos campaign took to re-converge after each heal.

Gates: the scenario pair must pass every partition-tolerance gate of
:func:`repro.sim.scenarios.community_split_gates` (the same gates ``repro
partition`` enforces: among them, the majority side stays at least
``MIN_MAJORITY_ACCEPTANCE`` servable through the split and every parked
write replays), and the chaos campaign must fire episodes and re-converge
with zero post-heal divergence.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.sim.chaos import ChaosConfig, run_chaos_campaign
from repro.sim.scenarios import community_split_gates, compare_community_split
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus, Publication
from repro.ids import AuthorId, PublicationId

OUT = Path(__file__).resolve().parent.parent / "BENCH_partition.json"

SPLIT_SEED = 7
CHAOS_SEED = 7

CHAOS = ChaosConfig(
    horizon_s=1800.0,
    members=5,
    datasets=2,
    segments_per_dataset=1,
    dataset_size_bytes=100_000,
    n_replicas=2,
    crash_rate_per_node_s=0.0,
    outage_rate_per_node_s=1e-3,
    outage_mean_duration_s=60.0,
    slowlink_rate_per_node_s=0.0,
    audit_interval_s=120.0,
    partition_rate_s=2e-3,
    partition_mean_duration_s=120.0,
)


def _chaos_graph():
    pubs = [
        Publication(PublicationId(p), y, frozenset(AuthorId(a) for a in aa))
        for p, y, aa in [
            ("p1", 2009, ("alice", "bob", "carol")),
            ("p2", 2010, ("carol", "dave", "erin")),
            ("p3", 2010, ("alice", "bob")),
            ("p4", 2010, ("dave", "erin")),
            ("p5", 2011, ("bob", "dave")),
        ]
    ]
    return build_coauthorship_graph(Corpus(pubs))


def _run_all():
    off, on = compare_community_split(seed=SPLIT_SEED)
    net = SCDN(
        _chaos_graph(),
        config=SCDNConfig(shards=2),
        seed=1,
        registry=Registry(),
    )
    chaos = run_chaos_campaign(net, CHAOS, seed=CHAOS_SEED)
    return off, on, chaos


def _phases(result):
    return {
        name: {
            "accesses": phase.accesses,
            "served": phase.ok,
            "availability": phase.availability,
        }
        for name, phase in (
            ("pre", result.pre),
            ("minority", result.minority),
            ("majority", result.majority),
            ("post", result.post),
        )
    }


def test_partition_tolerance(benchmark):
    off, on, chaos = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    payload = {
        "community_split": {
            "seed": SPLIT_SEED,
            "oracle": {
                "phases": _phases(off),
                "degraded_serves": off.degraded_serves,
                "divergence_after_heal": off.divergence_after_heal,
                "datasets_converged": off.datasets_converged,
            },
            "partitioned": {
                "phases": _phases(on),
                "degraded_serves": on.degraded_serves,
                "handoff_queued": on.handoff_queued,
                "handoff_replayed": on.handoff_replayed,
                "divergence_after_heal": on.divergence_after_heal,
                "late_dataset_served": on.late_dataset_served,
                "datasets_converged": on.datasets_converged,
                "final_lost": on.final_lost,
            },
        },
        "chaos_campaign": {
            "seed": CHAOS_SEED,
            "shards": 2,
            "partitions": chaos.partitions,
            "degraded_serves": chaos.degraded_serves,
            "degraded_serve_ratio": chaos.degraded_serve_ratio,
            "minority_acceptance": chaos.minority_acceptance,
            "majority_acceptance": chaos.majority_acceptance,
            "time_to_reconverge_s": chaos.time_to_reconverge_s,
            "divergence_after_heal": chaos.divergence_after_heal,
            "availability": chaos.availability,
            "unhandled_exceptions": chaos.unhandled_exceptions,
        },
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(
        f"community split: majority {on.majority.availability:.3f} / "
        f"minority {on.minority.availability:.3f} available, "
        f"{on.degraded_serves} degraded serves, "
        f"{on.handoff_replayed}/{on.handoff_queued} writes replayed, "
        f"divergence {on.divergence_after_heal}"
    )
    print(
        f"chaos: {chaos.partitions} episodes, "
        f"degraded ratio {chaos.degraded_serve_ratio:.4f}, "
        f"reconverge {chaos.time_to_reconverge_s:.0f}s, "
        f"divergence {chaos.divergence_after_heal}"
    )
    print(f"-> {OUT.name}")

    assert [g for g in community_split_gates(off, on) if not g.passed] == []
    # the random campaign agrees: episodes fire, everything re-converges
    assert chaos.partitions > 0
    assert chaos.unhandled_exceptions == 0
    assert chaos.divergence_after_heal == 0
