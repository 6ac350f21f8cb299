"""Bench: peer-assisted delivery under a flash crowd.

Runs the conference-deadline scenario pair (peer tier off vs on,
identical workloads) plus one peer-churn chaos campaign over the same
topology, and emits ``BENCH_peers.json`` at the repo root — what the
peer tier buys when one dataset goes hot:

* the repository offload ratio over the spike window (how much of the
  read storm the origin never saw);
* the client-side peer hit rate and the p50/p99 spike fetch times;
* lease admission/expiry traffic and churn survival from the campaign.

Gates: the scenario pair must pass every peer-tier gate of
:func:`repro.sim.scenarios.flash_crowd_gates`, the same gates ``repro
flashcrowd`` enforces: on the 10x spike the tier improves p99 fetch time
by at least ``MIN_P99_SPEEDUP`` and offloads at least ``MIN_PEER_OFFLOAD``
of repository reads, with full availability in both runs, identical
workloads (same remote-fetch count), and an inert peers-off run. The chaos
campaign must keep serving through lease churn with zero integrity debt.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.chaos import ChaosConfig, run_chaos_campaign
from repro.sim.scenarios import (
    FLASH_CHAOS_OVERRIDES,
    compare_flash_crowd,
    flash_chaos_network,
    flash_crowd_gates,
    p99_speedup,
)

OUT = Path(__file__).resolve().parent.parent / "BENCH_peers.json"

FLASH_SEED = 7
CHAOS_SEED = 7

CHAOS = ChaosConfig(
    horizon_s=1800.0,
    peer_tier=True,
    peer_leave_rate_s=0.002,
    **FLASH_CHAOS_OVERRIDES,
)


def _run_all():
    off, on = compare_flash_crowd(seed=FLASH_SEED)
    chaos = run_chaos_campaign(flash_chaos_network(), CHAOS, seed=CHAOS_SEED)
    return off, on, chaos


def _result(r):
    return {
        "spike_accesses": r.spike.accesses,
        "spike_availability": r.spike.availability,
        "spike_remote_fetches": r.spike_remote_fetches,
        "spike_peer_fetches": r.spike_peer_fetches,
        "spike_fetch_p50_s": r.spike_fetch_p50_s,
        "spike_fetch_p99_s": r.spike_fetch_p99_s,
        "offload_ratio": r.offload_ratio,
        "peer_hit_rate": r.peer_hit_rate,
        "peers_admitted": r.peers_admitted,
        "peer_leases_expired": r.peer_leases_expired,
    }


def test_peer_assisted_delivery(benchmark):
    off, on, chaos = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    speedup = p99_speedup(off, on)
    payload = {
        "flash_crowd": {
            "seed": FLASH_SEED,
            "peers_off": _result(off),
            "peers_on": _result(on),
            "p99_speedup": speedup,
        },
        "chaos_campaign": {
            "seed": CHAOS_SEED,
            "peers_admitted": chaos.peers_admitted,
            "peer_serves": chaos.peer_serves,
            "peer_offload_ratio": chaos.peer_offload_ratio,
            "peer_leases_expired": chaos.peer_leases_expired,
            "peer_leaves": chaos.peer_leaves,
            "availability": chaos.availability,
            "corrupt_servable_after_repair": chaos.corrupt_servable_after_repair,
            "unhandled_exceptions": chaos.unhandled_exceptions,
        },
    }

    print()
    print(
        f"flash crowd: p99 {off.spike_fetch_p99_s:.4f}s -> "
        f"{on.spike_fetch_p99_s:.4f}s ({speedup:.1f}x), "
        f"offload {on.offload_ratio:.3f}, "
        f"peer hit rate {on.peer_hit_rate:.3f}, "
        f"{on.peers_admitted} leases admitted"
    )
    print(
        f"chaos: {chaos.peers_admitted} admitted, {chaos.peer_serves} peer "
        f"serves (offload {chaos.peer_offload_ratio:.4f}), "
        f"{chaos.peer_leaves} churn leaves, "
        f"availability {chaos.availability:.4f}"
    )

    assert [g for g in flash_crowd_gates(off, on) if not g.passed] == []
    # churn campaign: leases rise and fall, integrity debt stays zero
    assert chaos.peers_admitted > 0
    assert chaos.peer_serves > 0
    assert chaos.peer_leaves > 0
    assert chaos.corrupt_servable_after_repair == 0
    assert chaos.unhandled_exceptions == 0

    # written only once every gate has passed, so a failing run leaves
    # the committed file alone
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT.name}")
