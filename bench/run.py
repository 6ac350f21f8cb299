"""Run the S-CDN benchmark and check that its outputs are correct.

One workload, one pass::

    python3 bench/run.py --workload campaign-read --seed 3 --seconds 10 --trace 0

repeats fresh repetitions of the workload (set-up, then timed phase) until
``--seconds`` have passed, prints every metric with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (traced and untraced repetitions alternate, so the tracing
overhead and the traced-equals-untraced digest check come from one run).

Every workload, untraced then traced, each in its own subprocess::

    python3 bench/run.py [--seed 7] [--runs 5] [--out bench/out/set.json]

writes one result set that ``bench/compare.py`` reads. The metric names,
units, directions and bounds live in the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import repro
except ImportError as exc:
    print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"error: imported {repro.__file__}, not this checkout's src/", file=sys.stderr)
    sys.exit(2)

from probe import (
    SETUP_LAYERS,
    TIMED_LAYERS,
    UNATTRIBUTED,
    Probe,
    Tracer,
    install,
    layer_of_label,
)
from workloads import WORKLOADS, RepResult

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
EXPECTED_PATH = BENCH / "expected.json"
FROZEN_SEEDS = (7, 11)
OUT = BENCH / "out"

#: Stop starting repetitions after this long, so that a pass ends within
#: three minutes even on a slow host.
_HARD_STOP_S = 120.0


@dataclass
class Rep:
    """What one repetition measured, reduced as soon as it ends so that no
    deployment outlives its repetition (peak RSS is per repetition)."""

    traced: bool
    setup_s: float
    timed_s: float
    #: wall latency of each sampled operation
    latency_s: np.ndarray
    #: timed-phase clock at the start of each sampled operation
    marks: np.ndarray
    ok: int
    failed: int
    digest: str
    errors: List[str]
    failed_ops: int
    #: per-layer counts and ratios read from the registry and the probe
    counts: Dict[str, float]
    #: traced only: ``{phase: {layer: (calls, self_s)}}``
    layers: Dict[str, Dict[str, Tuple[int, float]]] = field(default_factory=dict)
    labels: Dict[str, int] = field(default_factory=dict)
    resolve_wall_s: List[float] = field(default_factory=list)
    slowest: List[dict] = field(default_factory=list)


def run_rep(workload: str, seed: int, *, traced: bool, scale: float = 1.0) -> Rep:
    """Build and run one repetition from a cold deployment."""
    gc.collect()
    tracer = Tracer() if traced else None
    probe = Probe(tracer)
    with install(probe):
        probe.restart()
        result = WORKLOADS[workload](seed, probe, scale)
    rep = Rep(
        traced=traced,
        setup_s=probe.setup_s,
        timed_s=probe.timed_s,
        latency_s=np.asarray(probe.latency_s),
        marks=np.asarray(probe.marks),
        ok=probe.ok,
        failed=probe.failed,
        digest=result.digest,
        errors=result.errors,
        failed_ops=result.failed_ops,
        counts=_counts(probe, result),
    )
    if tracer is not None:
        rep.layers = {p: tracer.layer_totals(p) for p in ("setup", "timed")}
        rep.labels = tracer.labels
        rep.resolve_wall_s = tracer.resolve_wall_s
        rep.slowest = tracer.slowest_requests()
    return rep


def _median(values) -> float:
    return float(statistics.median(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def window_rates(marks: np.ndarray) -> np.ndarray:
    """Operations per second over ~40 consecutive windows of equal op count.

    A window's wall is the timed-phase clock between the starts of its
    first operation and of the next window's, so it covers all the work
    the timed phase did in between.
    """
    size = max(10, len(marks) // 40)
    return size / np.diff(marks[::size])


def end_to_end_metrics(reps: List[Rep]) -> Dict[str, float]:
    """Medians pooled over untraced repetitions; availability pooled.

    Throughput is the median over windows of operations and latency the
    median over operations, so a stall on the shared host moves a few
    samples, not the result.
    """
    ok = sum(r.ok for r in reps)
    return {
        "setup_s": _median([r.setup_s for r in reps]),
        "ops_per_s": _median(np.concatenate([window_rates(r.marks) for r in reps])),
        "op_p50_us": _pct(np.concatenate([r.latency_s for r in reps]), 50) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "availability": _ratio(ok, ok + sum(r.failed for r in reps)),
    }


def _counts(probe: Probe, result: RepResult) -> Dict[str, float]:
    snap = result.registry.snapshot()

    def count(name: str) -> float:
        return snap["counters"].get(name, {}).get("value", 0)

    attempts = snap["histograms"].get("transfer.attempts", {}).get("sum", 0)
    peer_serves = count("peer.serves")
    fetches = probe.fetch_sim_s
    return {
        "cdn.hopindex.hit_ratio": _ratio(
            count("alloc.hop_cache.hits"),
            count("alloc.hop_cache.hits") + count("alloc.hop_cache.misses"),
        ),
        "cdn.hopindex.evictions": count("alloc.hop_index.evictions"),
        "cdn.catalog.servable_hit_ratio": _ratio(
            count("catalog.servable_cache.hits"),
            count("catalog.servable_cache.hits") + count("catalog.servable_cache.misses"),
        ),
        "cdn.transfer.ok_ratio": _ratio(
            count("transfer.total") - count("transfer.failed"), attempts
        ),
        "cdn.transfer.checksum_failures": count("transfer.checksum.failures"),
        "cdn.transfer.unreachable": count("transfer.unreachable"),
        "cdn.transfer.sim_fetch_p50_s": _pct(fetches, 50),
        "cdn.transfer.sim_fetch_p99_s": _pct(fetches, 99),
        "cdn.client.remote_share": _ratio(probe.remote, probe.ok + probe.failed),
        "cdn.client.failovers": count("alloc.resolve.failover"),
        "cdn.sharding.degraded_resolves": count("alloc.resolve.degraded"),
        "cdn.sharding.handoff_replayed": count("alloc.handoff.replayed"),
        "cdn.peers.leases_admitted": count("peer.admitted"),
        "cdn.peers.leases_expired": count("peer.lease.expired"),
        "cdn.peers.offload_ratio": _ratio(
            peer_serves, peer_serves + count("alloc.serves.repository")
        ),
        "cdn.migration.moves": count("migration.moves.completed"),
        "cdn.replication.post_repair_redundancy": result.redundancy,
        "sim.engine.events": count("sim.events"),
    }


def merge_layers(reps: List[Rep], phase: str) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self_s)}`` summed over traced repetitions."""
    totals: Dict[str, Tuple[int, float]] = {}
    for rep in reps:
        for layer, (calls, self_s) in rep.layers[phase].items():
            c, s = totals.get(layer, (0, 0.0))
            totals[layer] = (c + calls, s + self_s)
    return totals


def per_layer_metrics(untraced: List[Rep], traced: List[Rep]) -> Dict[str, float]:
    """Self-time shares and counts from traced repetitions; latencies
    and rates from the untraced ones between them."""
    timed = sum(r.timed_s for r in traced)
    setup = sum(r.setup_s for r in traced)
    in_timed = merge_layers(traced, "timed")
    in_setup = merge_layers(traced, "setup")
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        calls, self_s = in_timed.get(layer, (0, 0.0))
        metrics[f"{layer}.self_pct"] = 100.0 * self_s / timed
        metrics[f"{layer}.calls"] = calls / len(traced)
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.setup_pct"] = 100.0 * in_setup.get(layer, (0, 0.0))[1] / setup
    metrics["setup.coverage"] = sum(in_setup.get(l, (0, 0.0))[1] for l in SETUP_LAYERS) / setup
    metrics["trace.coverage"] = sum(in_timed.get(l, (0, 0.0))[1] for l in TIMED_LAYERS) / timed
    untraced_timed = _median([r.timed_s for r in untraced])
    metrics["trace.overhead_pct"] = 100.0 * (
        _median([r.timed_s for r in traced]) / untraced_timed - 1.0
    )
    latencies = np.concatenate([r.latency_s for r in untraced])
    metrics["op_p99_us"] = _pct(latencies, 99) * 1e6
    metrics["op_samples"] = float(len(latencies))
    resolves = [w for r in traced for w in r.resolve_wall_s]
    metrics["cdn.allocation.resolve_p99_us"] = _pct(resolves, 99) * 1e6
    metrics.update(traced[0].counts)
    metrics["sim.engine.events_per_s"] = metrics["sim.engine.events"] / untraced_timed
    return metrics


def load_expected() -> Dict[str, Dict[str, str]]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def check(workload: str, seed: int, reps: List[Rep]) -> List[str]:
    """Every correctness violation in a run; empty means correct."""
    errors: List[str] = []
    for i, rep in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in rep.errors]
        stray = sorted(l for l in rep.labels if layer_of_label(l) == UNATTRIBUTED)
        if stray:
            errors.append(f"rep {i}: events no layer owns: {stray}")
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        errors.append(
            "repetitions disagree (traced vs untraced or run to run): "
            f"{sorted(digests)}"
        )
    expected = load_expected().get(workload, {}).get(str(seed))
    if expected is not None and expected not in digests:
        errors.append(f"digest {sorted(digests)} != expected {expected}")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions for ``seconds`` and reduce them to one result."""
    reps: List[Rep] = []
    start = perf_counter()
    min_reps = 4 if trace else 3
    while len(reps) < min_reps or perf_counter() - start < seconds:
        if perf_counter() - start > _HARD_STOP_S and len(reps) >= 2:
            break
        reps.append(run_rep(workload, seed, traced=trace and len(reps) % 2 == 1))
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    errors = check(workload, seed, reps)
    if trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "correct": not errors,
        "errors": errors,
        "digest": reps[0].digest,
        "attempted": sum(len(r.latency_s) for r in reps),
        "failed": sum(r.failed_ops for r in reps),
        "metrics": metrics,
        "layers": {
            phase: {
                layer: {"calls": calls, "self_s": self_s}
                for layer, (calls, self_s) in sorted(merge_layers(traced, phase).items())
            }
            for phase in ("setup", "timed")
        }
        if traced
        else {},
        "events_per_rep": traced[0].labels if traced else {},
        "slowest_requests": sorted(
            (t for r in traced for t in r.slowest), key=lambda t: -t["wall_s"]
        )[:10],
    }


def env_stamp(seed: int, traced: Optional[bool]) -> dict:
    """Host, toolchain and commit this result was measured on."""
    import multiprocessing

    import networkx
    import scipy

    from repro.perf import available_cores

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()

        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "available_cores": available_cores(),
        "cpu": cpu,
        "start_method": multiprocessing.get_context().get_start_method(),
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "traced": traced,
    }


def _format(metrics: Dict[str, float]) -> List[str]:
    return [f"  {name:<44} {value:>14.6g} {UNITS[name]}" for name, value in metrics.items()]


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} reps={result['reps']} "
        f"correct={result['correct']}"
    )
    for line in _format(result["metrics"]):
        print(line)
    for error in result["errors"]:
        print(f"  error: {error}")
    if args.details:
        result["env"] = env_stamp(args.seed, bool(args.trace))
        Path(args.details).parent.mkdir(parents=True, exist_ok=True)
        Path(args.details).write_text(json.dumps(result, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int, details: Path) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--details", str(details),
    ]
    details.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    if proc.returncode not in (0, 1) or not details.exists():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} trace={trace} exited {proc.returncode}")
    return json.loads(details.read_text())


def run_all(args) -> int:
    from compare import spread

    runs = []
    correct = True
    for i in range(args.runs):
        run = {}
        for workload in WORKLOADS:
            passes = {}
            for trace in (0, 1):
                kind = "trace" if trace else "untraced"
                details = OUT / f"{kind}-{workload}-seed{args.seed}.json"
                passes[trace] = _child(workload, args.seed, args.seconds, trace, details)
            correct &= passes[0]["correct"] and passes[1]["correct"]
            run[workload] = {
                "correct": passes[0]["correct"] and passes[1]["correct"],
                "digest": passes[0]["digest"],
                "attempted": passes[0]["attempted"],
                "failed": passes[0]["failed"],
                "end_to_end": passes[0]["metrics"],
                "per_layer": passes[1]["metrics"],
            }
        runs.append(run)
        print(f"run {i + 1}/{args.runs} done")
    result = {
        "env": env_stamp(args.seed, None),
        "seconds": args.seconds,
        "runs": runs,
        "spread": spread(runs),
    }
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out} (correct={correct})")
    return 0 if correct else 1


def freeze() -> int:
    """Record each workload's digest at the frozen seeds in expected.json."""
    expected = {
        workload: {str(s): run_rep(workload, s, traced=False).digest for s in FROZEN_SEEDS}
        for workload in WORKLOADS
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="with --workload: write the full result here")
    parser.add_argument("--runs", type=int, default=1, help="without --workload: repeat")
    parser.add_argument("--out", help="without --workload: result set path")
    parser.add_argument(
        "--freeze-digests",
        action="store_true",
        help=f"rewrite expected.json from seeds {FROZEN_SEEDS}",
    )
    args = parser.parse_args(argv)
    if args.freeze_digests:
        return freeze()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
