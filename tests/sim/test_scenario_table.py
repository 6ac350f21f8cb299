"""Tests for the scenario table (``repro scrub|migrate|partition|flashcrowd``).

Every row of :data:`repro.cli.SCENARIO_COMMANDS` pairs a scenario run with
its gate function in :mod:`repro.sim.scenarios`. These tests check that
the table is well formed, that each scenario passes every gate at the
invocation CI runs, and that each gate fails on exactly the condition it
names.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import SCENARIO_COMMANDS, build_parser, main
from repro.sim import scenarios
from repro.sim.scenarios import PhaseStats

COMMANDS = {c.name: c for c in SCENARIO_COMMANDS}

#: The argv of each scenario's CI smoke step.
CI_ARGV = {
    "scrub": ["scrub", "--seed", "42", "--corrupt", "3"],
    "migrate": ["migrate", "--migrate-seed", "7"],
    "partition": ["partition", "--partition-seed", "7"],
    "flashcrowd": ["flashcrowd", "--quick"],
}


@pytest.fixture(scope="module")
def ci_runs():
    """Each row run once at its CI invocation (about 2 s in all)."""
    parser = build_parser()
    return {
        name: COMMANDS[name].run(parser.parse_args(argv))
        for name, argv in CI_ARGV.items()
    }


def _gates(name, results):
    return COMMANDS[name].gates(*results)


class TestTableData:
    """The table's rows are well formed."""

    def test_rows_have_unique_names_and_help(self):
        names = [c.name for c in SCENARIO_COMMANDS]
        assert len(names) == len(set(names))
        assert set(names) == set(CI_ARGV)
        for command in SCENARIO_COMMANDS:
            assert command.help
            assert callable(command.run) and callable(command.gates)

    def test_gate_names_unique_per_scenario(self, ci_runs):
        for name, run in ci_runs.items():
            gate_names = [g.name for g in _gates(name, run.results)]
            assert gate_names, name
            assert len(gate_names) == len(set(gate_names)), name

    def test_json_rows_return_a_payload(self, ci_runs):
        for name, run in ci_runs.items():
            assert (run.payload is not None) == bool(COMMANDS[name].json_label)


class TestCIInvocations:
    """The first tier-1 run of every scenario's gates at its CI flags."""

    @pytest.mark.parametrize("name", sorted(CI_ARGV))
    def test_passes_every_gate(self, ci_runs, name):
        failed = [g for g in _gates(name, ci_runs[name].results) if not g.passed]
        assert failed == []


def _on(**changes):
    """Alter the second run of an ``(off, on)`` pair."""
    return lambda off, on: (off, replace(on, **changes))


def _off(**changes):
    """Alter the first run of an ``(off, on)`` pair."""
    return lambda off, on: (replace(off, **changes), on)


#: (scenario, gate, a change to the CI results that breaks only that gate)
BREAKS = [
    ("migrate", "post_shift_mean_falls",
     lambda off, on: (off, replace(on, post_shift=off.post_shift))),
    ("migrate", "moves_complete", _on(moves_failed=1)),
    ("migrate", "mid_move_redundancy", _on(min_mid_move_redundancy=None)),
    ("migrate", "no_untrusted_leftover", _on(untrusted_leftover=1)),
    ("migrate", "swap_strands_without_migration", _off(untrusted_leftover=0)),
    ("partition", "minority_cut_off", _on(minority=PhaseStats(accesses=30, ok=30))),
    ("partition", "majority_acceptance", _on(majority=PhaseStats(accesses=10, ok=8))),
    ("partition", "degraded_serves", _on(degraded_serves=0)),
    ("partition", "handoff_replayed", _on(handoff_replayed=0)),
    ("partition", "late_dataset_served", _on(late_dataset_served=False)),
    ("partition", "zero_divergence", _off(divergence_after_heal=1)),
    ("partition", "nothing_lost", _on(final_lost=1)),
    ("partition", "datasets_converged", _on(datasets_converged=2)),
    ("flashcrowd", "peer_offload", _on(offload_ratio=0.4)),
    ("flashcrowd", "p99_speedup",
     lambda off, on: (off, replace(on, spike_fetch_p99_s=off.spike_fetch_p99_s))),
    ("flashcrowd", "peers_admitted", _on(peers_admitted=0)),
    ("flashcrowd", "full_availability", _off(spike=PhaseStats(accesses=10, ok=9))),
    ("flashcrowd", "same_remote_fetches", _on(spike_remote_fetches=0)),
    ("flashcrowd", "peers_off_inert", _off(spike_peer_fetches=1)),
    ("scrub", "rot_quarantined",
     lambda r: (replace(r, scrub=replace(r.scrub, quarantined=0)),)),
    ("scrub", "repair_audit_ran", lambda r: (replace(r, audit=None),)),
    ("scrub", "budget_restored",
     lambda r: (replace(r, audit=replace(r.audit, under_replicated=1)),)),
    ("scrub", "no_corrupt_servable", lambda r: (replace(r, corrupt_servable=1),)),
]


class TestGatesCatchFailures:
    def test_every_gate_has_a_break(self, ci_runs):
        for name, run in ci_runs.items():
            broken = {gate for scenario, gate, _ in BREAKS if scenario == name}
            assert broken == {g.name for g in _gates(name, run.results)}, name

    @pytest.mark.parametrize(
        "name, gate, breaker", BREAKS, ids=[f"{n}-{g}" for n, g, _ in BREAKS]
    )
    def test_fails_exactly_the_broken_gate(self, ci_runs, name, gate, breaker):
        broken = breaker(*ci_runs[name].results)
        assert [g.name for g in _gates(name, broken) if not g.passed] == [gate]


class TestRunner:
    def test_uncut_minority_fails_the_partition_command(
        self, ci_runs, monkeypatch, capsys
    ):
        """A split that never cut the minority off tested nothing: the
        command must exit 1 and name the gate."""
        off, on = ci_runs["partition"].results
        n = on.minority.accesses
        uncut = replace(on, minority=PhaseStats(accesses=n, ok=n))
        monkeypatch.setattr(
            scenarios, "compare_community_split", lambda *, seed: (off, uncut)
        )
        assert main(["partition"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL: minority_cut_off (1.0000)"
        ]

    def test_passing_run_prints_report_and_writes_json(
        self, ci_runs, monkeypatch, tmp_path, capsys
    ):
        run = ci_runs["partition"]
        monkeypatch.setattr(
            scenarios, "compare_community_split", lambda *, seed: run.results
        )
        path = tmp_path / "partition.json"
        assert main(["partition", "--json", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == run.lines + [
            f"wrote partition comparison to {path}"
        ]
        assert json.loads(path.read_text()) == run.payload
