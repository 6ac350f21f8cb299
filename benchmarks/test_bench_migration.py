"""Bench: replica migration off vs. on under a shifted workload.

Runs the demand-shift scenario (:mod:`repro.sim.scenarios`) both ways and
emits ``BENCH_migration.json`` at the repo root — the seed point of the
migration perf trajectory: post-shift mean fetch time without migration,
with migration, and the relative improvement, plus the safety numbers
(mid-move redundancy, failed moves, replicas stranded on untrusted
hosts) so a regression in either speed or safety shows up as a diff.
The run must pass every migration gate of
:func:`repro.sim.scenarios.demand_shift_gates`, the same gates ``repro
migrate`` enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.scenarios import compare_demand_shift, demand_shift_gates

SEED = 7
OUT = Path(__file__).resolve().parent.parent / "BENCH_migration.json"


def test_migration_halves_post_shift_fetch_time(benchmark):
    off, on = benchmark.pedantic(
        compare_demand_shift, kwargs={"seed": SEED}, rounds=1, iterations=1
    )
    improvement = 1.0 - (
        on.post_shift.mean_duration_s / off.post_shift.mean_duration_s
    )
    payload = {
        "seed": SEED,
        "post_shift_accesses": off.post_shift.accesses,
        "mean_fetch_time_s": {
            "migration_off": off.post_shift.mean_duration_s,
            "migration_on": on.post_shift.mean_duration_s,
        },
        "local_hits": {
            "migration_off": off.post_shift.local_hits,
            "migration_on": on.post_shift.local_hits,
        },
        "improvement_pct": 100.0 * improvement,
        "moves_completed": on.moves_completed,
        "moves_failed": on.moves_failed,
        "min_mid_move_redundancy": on.min_mid_move_redundancy,
        "untrusted_leftover": {
            "migration_off": off.untrusted_leftover,
            "migration_on": on.untrusted_leftover,
        },
    }

    print("\npost-shift mean fetch time (demand-shift scenario, seed 7)")
    print(f"{'setting':<16} {'mean ms':>10} {'local hits':>12}")
    for r in (off, on):
        label = "migration on" if r.migration_enabled else "migration off"
        print(
            f"{label:<16} {r.post_shift.mean_duration_s * 1e3:>10.1f} "
            f"{r.post_shift.local_hits:>7}/{r.post_shift.accesses}"
        )
    print(f"improvement: {100.0 * improvement:.1f}%")

    assert [g for g in demand_shift_gates(off, on) if not g.passed] == []

    # written only once every gate has passed, so a failing run leaves
    # the committed file alone
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT.name}")
