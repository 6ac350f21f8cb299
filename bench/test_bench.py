"""Tests of the benchmark itself: span arithmetic, layer attribution,
trace coverage and compare verdicts.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import run
from probe import EVENT_LAYERS, SETUP_LAYERS, TIMED_LAYERS, Tracer, layer_of_label

ROOT = Path(__file__).resolve().parent.parent
TINY_SEED = 3


class FakeClock:
    """A clock that returns the next scripted time on each call."""

    def __init__(self, *times: float) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tracer = Tracer(clock=FakeClock(0, 1, 4, 5, 6, 7, 9, 10))
    tracer.phase = "timed"
    tracer.enter("outer", "run")
    tracer.enter("a", "x")
    tracer.exit()
    tracer.enter("b", "y")
    tracer.enter("c", "z")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.layer_totals("timed") == {
        "outer": (1, 10 - 3 - 4),
        "a": (1, 3),
        "b": (1, 4 - 1),
        "c": (1, 1),
    }
    assert tracer.layer_totals("setup") == {}


def test_same_layer_nesting_counts_both_calls_once_each():
    tracer = Tracer(clock=FakeClock(0, 2, 3, 10))
    tracer.enter("cdn.allocation.resolve", "resolve")
    tracer.enter("cdn.allocation.resolve", "resolve_candidates")
    tracer.exit()
    tracer.exit()
    calls, self_s = tracer.layer_totals("setup")["cdn.allocation.resolve"]
    assert (calls, self_s) == (2, 10)


def test_request_tree_links_parents_and_keeps_slowest():
    tracer = Tracer(keep=1, clock=FakeClock(0, 1, 2, 5, 10, 11, 12, 13))
    tracer.phase = "timed"
    tracer.enter("sim.engine", "run")  # outside any request: no tree node
    tracer.begin_request()
    tracer.enter("cdn.client", "access_segment")
    tracer.enter("cdn.transfer", "execute")
    tracer.exit()
    tracer.exit()
    tracer.end_request(wall_s=4.0, sim_s=0.5)
    tracer.begin_request()
    tracer.enter("cdn.client", "access_segment")
    tracer.exit()
    tracer.end_request(wall_s=1.0, sim_s=0.0)
    tracer.exit()
    (slowest,) = tracer.slowest_requests()
    assert slowest["request"] == "req-1"
    assert slowest["sim_s"] == 0.5
    assert [(s["id"], s["parent"], s["layer"]) for s in slowest["spans"]] == [
        (0, None, "cdn.client"),
        (1, 0, "cdn.transfer"),
    ]
    assert slowest["spans"][0]["self_s"] == (10 - 1) - (5 - 2)


def test_unknown_labels_are_unattributed():
    assert layer_of_label("crash:node-1") == "sim.failures"
    assert layer_of_label("peer-lease-expiry:a:b") == "cdn.peers"
    assert layer_of_label("no-such-event") == "unattributed"
    assert set(EVENT_LAYERS.values()) <= set(TIMED_LAYERS)


@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced and one traced tiny repetition of every workload, at a
    seed without a frozen digest (digests are frozen at full size)."""
    return {
        name: (
            run.run_rep(name, TINY_SEED, traced=False, scale=0.05),
            run.run_rep(name, TINY_SEED, traced=True, scale=0.05),
        )
        for name in run.WORKLOADS
    }


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_scheduled_label_maps_to_a_named_layer(tiny_runs, workload):
    untraced, traced = tiny_runs[workload]
    assert run.check(workload, TINY_SEED, [untraced, traced]) == []
    labels = traced.labels
    assert all(layer_of_label(label) != "unattributed" for label in labels)
    if workload != "resolve-scale":
        assert labels, "a simulated workload scheduled no events"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_trace_coverage_of_timed_phase(tiny_runs, workload):
    untraced, traced = tiny_runs[workload]
    metrics = run.per_layer_metrics([untraced], [traced])
    assert metrics["trace.coverage"] >= 0.90
    assert set(metrics) == {m["name"] for m in run.SPEC["per_layer"]}


def test_end_to_end_metrics_match_the_spec(tiny_runs):
    untraced, _ = tiny_runs["campaign-read"]
    metrics = run.end_to_end_metrics([untraced])
    assert set(metrics) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_spec_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    for layer in SETUP_LAYERS:
        assert f"{layer}.setup_pct" in names


def test_verdicts_on_synthetic_run_sets():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [p * 1.2 for p in parent]
    slower = [p * 0.8 for p in parent]
    same = list(parent)
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, same, "higher", 0.1)[0] == "unchanged"
    noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert compare.verdict(parent, noisy, "higher", 0.1)[0] == "unresolved"
    # a wide spread never hides a median worse by more than the bound,
    # even when some change runs beat some parent runs
    noisy_drop = [v * 0.6 for v in noisy]
    assert compare.verdict(noisy, noisy_drop, "higher", 0.2)[0] == "worse"
    assert compare.verdict(noisy, [v / 0.6 for v in noisy], "lower", 0.2)[0] == "worse"
    # slightly worse but inside the bound is not a regression
    assert compare.verdict(parent, [p * 0.95 for p in parent], "higher", 0.1)[0] == "unchanged"


def test_compare_flags_a_rise_in_failure_share():
    def result_set(failed):
        return {
            "runs": [
                {
                    "w": {
                        "attempted": 100,
                        "failed": failed,
                        "end_to_end": {m["name"]: 1.0 for m in compare.SPEC["end_to_end"]},
                    }
                }
            ]
        }

    lines, worse = compare.compare(result_set(0), result_set(0))
    assert not worse
    lines, worse = compare.compare(result_set(0), result_set(1))
    assert worse and lines[-1].rstrip().endswith("worse")
