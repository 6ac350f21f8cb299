"""Bench: sharded allocation over the community partition.

Runs :func:`repro.perf.shard_throughput` at 1, 2, and 4 shards on a 10x
scenario graph and emits ``BENCH_shards.json`` at the repo root — the
perf trajectory of the federated allocation tier:

* ``unsharded_rps`` — one :class:`~repro.cdn.allocation.AllocationServer`
  serving the whole workload (the baseline);
* ``routed_rps`` — one thread driving the
  :class:`~repro.cdn.sharding.ShardedAllocationRouter` (routing overhead);
* ``federated_rps`` — each site's shard serving its own partition, wall
  clock of the slowest site (the "one allocation server per site" model
  the paper's Section V-B allows). Its ratio to ``unsharded_rps`` is
  ``modelled_federated_speedup``: the sites run one after another on one
  host, so it is a model, not measured parallelism.

Gates: every shard count must rank candidates bit-identically to the
unsharded server (the equivalence contract), routing overhead must stay
small, and the 4-shard federation must beat the single server.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf import shard_throughput

from conftest import RESOLVE_SEED

OUT = Path(__file__).resolve().parent.parent / "BENCH_shards.json"

#: 10x the classic resolve bench: enough far clusters that every site
#: gets a real slice of the workload.
FAR_CLUSTERS = 400
DATASETS = 12
REQUESTS = 4000
SHARD_COUNTS = (1, 2, 4)

#: The 4-shard partition-parallel federation must beat one server by
#: this factor (slowest-site wall clock; ideal is ~4x minus imbalance).
#: With holder-keyed hop rows every site's working set fits the hop
#: cache, so the modelled figure tracks the partition alone: measured
#: 2.8-3.9x against the 3.0x bound set by the largest site's 1333 of
#: 4000 requests (the old 5.6x was cache fit, not parallelism).
MIN_FEDERATED_SPEEDUP = 1.5

#: Routing a request to its shard must not cost more than this fraction
#: of the unsharded path. With holder-keyed hop rows a resolve costs
#: ~8 us, so the router's ~0.3 us dispatch shows: measured 0.85-1.03x
#: over twelve runs at 1, 2 and 4 shards on a shared 2-vCPU host. The
#: floor still catches a regression that adds ~2 us per request, e.g. a
#: return of the per-request syscat double-probe the owner-site memo
#: removed.
MAX_ROUTING_SLOWDOWN = 0.75

#: Single-shard routed dispatch against the direct server: with one shard
#: the router adds *only* dispatch overhead, so this isolates the
#: memoized route lookup (measured 0.91-1.01x on the same runs).
MAX_SINGLE_SHARD_SLOWDOWN = 0.80


def _run_all():
    return [
        shard_throughput(
            far_clusters=FAR_CLUSTERS,
            datasets=DATASETS,
            requests=REQUESTS,
            seed=RESOLVE_SEED,
            n_shards=n,
        )
        for n in SHARD_COUNTS
    ]


def test_sharded_allocation_throughput(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    payload = {
        "shards": [
            {
                "far_clusters": r.far_clusters,
                "graph_nodes": r.graph_nodes,
                "n_shards": r.n_shards,
                "requests": r.requests,
                "unsharded_rps": r.unsharded_rps,
                "routed_rps": r.routed_rps,
                "federated_rps": r.federated_rps,
                "modelled_federated_speedup": r.modelled_federated_speedup,
                "site_requests": r.site_requests,
                "identical": r.identical,
            }
            for r in results
        ],
        "seeds": {"resolve_seed": RESOLVE_SEED},
    }

    print()
    for r in results:
        for line in r.lines():
            print(line)
        print()

    # correctness gate: every shard count bit-identical to the unsharded
    # server (single-shard equivalence plus the federated guarantee)
    assert all(r.identical for r in results)
    # routing overhead gate
    for r in results:
        assert r.routed_rps >= r.unsharded_rps * MAX_ROUTING_SLOWDOWN, (
            f"routing overhead regressed at {r.n_shards} shard(s): "
            f"{r.routed_rps:,.0f} rps vs {r.unsharded_rps:,.0f} unsharded"
        )
    # single-shard dispatch isolates the route lookup: within 20%
    single = results[0]
    assert single.routed_rps >= single.unsharded_rps * MAX_SINGLE_SHARD_SLOWDOWN, (
        f"single-shard dispatch overhead regressed: "
        f"{single.routed_rps:,.0f} rps vs {single.unsharded_rps:,.0f} direct"
    )
    # scaling gate: the 4-shard federation must actually win
    four = results[-1]
    assert four.modelled_federated_speedup >= MIN_FEDERATED_SPEEDUP, (
        f"federated scaling regressed: {four.modelled_federated_speedup:.2f}x < "
        f"{MIN_FEDERATED_SPEEDUP}x at {four.n_shards} shards "
        f"(site spread {four.site_requests})"
    )
    # every site must see real traffic or the scaling number is fiction
    assert all(n > 0 for n in four.site_requests)

    # written only once every gate has passed, so a failing run leaves
    # the committed file alone
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT.name}")
