"""Bench: the resolve plan cache on the 10x scenario graph.

Runs :func:`repro.perf.plan_cache_throughput` on the 400-cluster graph
(the same deployment the shard bench uses) and emits
``BENCH_plancache.json`` at the repo root — the perf trajectory of the
allocation tier's memoized structural rankings:

* ``indexed_rps`` — the steady-state uncached path, every holder's hop
  row resident (the baseline the cache must beat);
* ``plan_cold_rps`` — every plan built on first touch (miss cost);
* ``plan_warm_rps`` — epoch checks + load tie-break only (the number
  that matters: every repeated ``(segment, requester)`` pair).

Gates: the planned path must rank candidates bit-identically to the
indexed path AND the pre-index reference for every distinct pair, and
the warm cache must clear ``MIN_WARM_SPEEDUP`` over the indexed path.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf import plan_cache_throughput

from conftest import RESOLVE_SEED

OUT = Path(__file__).resolve().parent.parent / "BENCH_plancache.json"

#: Same 10x deployment as the shard bench: 400 far clusters (1203
#: nodes), 12 spread-owner datasets, 4000 round-robin requests.
FAR_CLUSTERS = 400
DATASETS = 12
REQUESTS = 4000
MAX_PLANS = 4096

#: Warm-cache resolves must run at least this much faster than the
#: indexed path at full scale. Holder-keyed hop rows made the uncached
#: path a few list lookups per replica, so the cache's edge is now small:
#: measured 1.7-2.3x on a shared 2-vCPU host (interleaved steady-state
#: passes); 1.2x leaves ~30% below the lowest measurement for CI noise.
MIN_WARM_SPEEDUP = 1.2


def _run():
    return plan_cache_throughput(
        far_clusters=FAR_CLUSTERS,
        datasets=DATASETS,
        requests=REQUESTS,
        seed=RESOLVE_SEED,
        max_plans=MAX_PLANS,
    )


def test_plan_cache_throughput(benchmark):
    r = benchmark.pedantic(_run, rounds=1, iterations=1)

    payload = {
        "plan_cache": {
            "far_clusters": r.far_clusters,
            "graph_nodes": r.graph_nodes,
            "requests": r.requests,
            "max_plans": r.max_plans,
            "indexed_rps": r.indexed_rps,
            "plan_cold_rps": r.plan_cold_rps,
            "plan_warm_rps": r.plan_warm_rps,
            "speedup": r.speedup,
            "hits": r.hits,
            "misses": r.misses,
            "invalidations": r.invalidations,
            "plans_resident": r.plans_resident,
            "identical": r.identical,
        },
        "seeds": {"resolve_seed": RESOLVE_SEED},
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    for line in r.lines():
        print(line)
    print(f"-> {OUT.name}")

    # correctness gate: planned rankings bit-identical to the indexed
    # path and the pre-index reference for every distinct pair
    assert r.identical
    # the plans actually took the traffic (warm pass = all hits)
    assert r.hits >= r.requests
    assert r.plans_resident <= MAX_PLANS
    # perf gate: the tentpole acceptance floor
    assert r.speedup >= MIN_WARM_SPEEDUP, (
        f"plan cache regressed: warm {r.plan_warm_rps:,.0f} rps is only "
        f"{r.speedup:.2f}x the indexed path ({r.indexed_rps:,.0f} rps); "
        f"need >= {MIN_WARM_SPEEDUP}x"
    )
