"""Bench: resolve fast path and parallel campaign runner.

Runs the two measurements of :mod:`repro.perf` and emits
``BENCH_resolve.json`` at the repo root — the perf trajectory of the
hop-index and campaign-executor work:

* resolves-per-second for the retained pre-index reference (per-call
  BFS) and the :class:`~repro.cdn.hopindex.HopIndex` fast path, with the
  >= 5x speedup floor asserted;
* campaign wall clock, serial vs. a prewarmed
  :class:`~repro.sim.campaign.CampaignExecutor`, with the
  bit-identical-reports contract asserted always and the wall-clock
  speedup floor asserted whenever the host actually has the cores to
  win (``available_cores() >= CAMPAIGN_WORKERS``). On a single-core
  runner the pool physically cannot beat serial, so the speedup is
  recorded and loudly skipped rather than flaked on.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf import bench_to_dict, campaign_speedup, resolve_throughput
from repro.sim.campaign import CampaignConfig
from repro.sim.chaos import ChaosConfig

from conftest import CAMPAIGN_ROOT_SEED, RESOLVE_SEED

OUT = Path(__file__).resolve().parent.parent / "BENCH_resolve.json"

#: Workload shape (scenario scale x request count) where the index's
#: advantage is stable; see resolve_throughput's docstring.
FAR_CLUSTERS = 40
REQUESTS = 5000

#: Enough seeds that per-seed work dominates scheduling overhead: with 24
#: sub-second seeds over 4 workers the executor ships 8 chunks of 3 and
#: each worker runs ~6 seeds back to back.
CAMPAIGN_SEEDS = 24
CAMPAIGN_WORKERS = 4
CAMPAIGN_HORIZON_S = 900.0

#: Parallel must beat serial by this factor when the host has
#: >= CAMPAIGN_WORKERS usable cores (ISSUE 6 acceptance floor).
CAMPAIGN_MIN_SPEEDUP = 2.0


def _run_both():
    resolve = resolve_throughput(
        far_clusters=FAR_CLUSTERS, requests=REQUESTS, seed=RESOLVE_SEED
    )
    campaign = campaign_speedup(
        CampaignConfig(chaos=ChaosConfig(horizon_s=CAMPAIGN_HORIZON_S)),
        n_seeds=CAMPAIGN_SEEDS,
        root_seed=CAMPAIGN_ROOT_SEED,
        workers=CAMPAIGN_WORKERS,
    )
    return resolve, campaign


def test_resolve_fast_path_and_parallel_campaign(benchmark):
    resolve, campaign = benchmark.pedantic(_run_both, rounds=1, iterations=1)

    payload = bench_to_dict(resolve, campaign)
    payload["seeds"] = {
        "resolve_seed": RESOLVE_SEED,
        "campaign_root_seed": CAMPAIGN_ROOT_SEED,
    }

    print()
    for line in resolve.lines():
        print(line)
    for line in campaign.lines():
        print(line)

    # correctness gates: identical resolutions, identical reports, and no
    # worker ever rebuilding the trusted graph after its initializer ran
    assert resolve.identical
    assert campaign.identical
    assert campaign.worker_rebuilds == 0
    # perf gate: the hop index must beat the per-call BFS by >= 5x
    assert resolve.indexed_speedup >= 5.0
    # campaign speedup gate — armed only where the machine can win
    assert campaign.parallel_s > 0.0
    if campaign.cores >= CAMPAIGN_WORKERS:
        assert campaign.speedup >= CAMPAIGN_MIN_SPEEDUP, (
            f"parallel campaign regressed: {campaign.speedup:.2f}x < "
            f"{CAMPAIGN_MIN_SPEEDUP}x on {campaign.cores} cores "
            f"({campaign.workers} workers, {campaign.seeds} seeds)"
        )
    else:
        print(
            f"campaign speedup gate SKIPPED: {campaign.cores} usable "
            f"core(s) < {CAMPAIGN_WORKERS} workers "
            f"(measured {campaign.speedup:.2f}x, recorded only)"
        )

    # written only once every gate has passed, so a failing run leaves
    # the committed file alone
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT.name}")
