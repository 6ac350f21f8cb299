"""Bench: parallel campaign runner vs. the serial one.

Runs :func:`repro.perf.campaign_speedup` and emits ``BENCH_campaign.json``
at the repo root, stamped with the commit, CPU and Python it ran on
(:func:`repro.perf.env_stamp`): campaign wall clock, serial vs. a
prewarmed :class:`~repro.sim.campaign.CampaignExecutor`, with the
bit-identical-reports contract asserted always and the wall-clock
speedup floor asserted whenever the host actually has the cores to win
(``available_cores() >= CAMPAIGN_WORKERS``). On a host with fewer cores
the pool physically cannot beat serial, so the speedup is recorded and
loudly skipped rather than flaked on.

Resolve and shard speed are measured end to end by ``bench/`` (its
``resolve-scale`` and ``campaign-churn`` workloads).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf import bench_to_dict, campaign_speedup
from repro.sim.campaign import CampaignConfig
from repro.sim.chaos import ChaosConfig

from conftest import CAMPAIGN_ROOT_SEED

OUT = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

#: Enough seeds that per-seed work dominates scheduling overhead: with 24
#: sub-second seeds over 4 workers the executor ships 8 chunks of 3 and
#: each worker runs ~6 seeds back to back.
CAMPAIGN_SEEDS = 24
CAMPAIGN_WORKERS = 4
CAMPAIGN_HORIZON_S = 900.0

#: Parallel must beat serial by this factor when the host has
#: >= CAMPAIGN_WORKERS usable cores (the executor's acceptance floor).
CAMPAIGN_MIN_SPEEDUP = 2.0


def _run():
    return campaign_speedup(
        CampaignConfig(chaos=ChaosConfig(horizon_s=CAMPAIGN_HORIZON_S)),
        n_seeds=CAMPAIGN_SEEDS,
        root_seed=CAMPAIGN_ROOT_SEED,
        workers=CAMPAIGN_WORKERS,
    )


def test_parallel_campaign(benchmark):
    campaign = benchmark.pedantic(_run, rounds=1, iterations=1)

    payload = bench_to_dict(campaign)
    payload["seeds"] = {"campaign_root_seed": CAMPAIGN_ROOT_SEED}

    print()
    for line in campaign.lines():
        print(line)

    # correctness gates: identical reports, and no worker ever rebuilding
    # the trusted graph after its initializer ran
    assert campaign.identical
    assert campaign.worker_rebuilds == 0
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
