"""Campaign-speedup harness: serial vs. parallel chaos campaigns.

:func:`campaign_speedup` times one chaos seed grid run serially and over
a prewarmed :class:`repro.sim.campaign.CampaignExecutor`, and checks the
bit-identical-reports contract on the same run. Pool spin-up (worker
start + trusted-graph warm) is timed separately as ``spinup_s``,
matching how the executor is meant to be used: pay once, run many
grids. The ``repro perf`` CLI and ``benchmarks/test_bench_campaign.py``
(which persists the numbers to ``BENCH_campaign.json``) share it, and
stamp each result with :func:`env_stamp`.

Resolve and shard speed are measured end to end by the repository
benchmark in ``bench/`` (its ``resolve-scale`` and ``campaign-churn``
workloads), not here.

Everything is seeded; the only nondeterminism in the emitted numbers is
the host's actual speed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from .sim.campaign import (
    CampaignConfig,
    CampaignExecutor,
    _trusted_graph,
    run_campaign_serial,
    seed_grid,
)

#: Checkout root when the package runs from a source tree (``src/repro``).
_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class CampaignBenchResult:
    """Serial-vs-parallel campaign wall clock over one seed grid.

    ``identical`` asserts the determinism contract held on this very run:
    the parallel runner's reports equal the serial runner's bit for bit.
    ``spinup_s`` is the one-time executor cost (pool start + per-worker
    graph warm) kept out of ``parallel_s``, because a persistent executor
    amortizes it across every grid it runs. ``cores`` records how many
    CPUs this process could actually schedule on — a speedup below 1 on a
    1-core box is the machine's fault, not the executor's, which is why
    gates key off it.
    """

    seeds: int
    workers: int
    serial_s: float
    parallel_s: float
    spinup_s: float
    identical: bool
    start_method: str
    chunk_size: int
    cores: int
    worker_rebuilds: int

    @property
    def speedup(self) -> float:
        """Serial wall clock over parallel wall clock (spin-up excluded)."""
        return self.serial_s / self.parallel_s if self.parallel_s else 0.0

    def lines(self) -> List[str]:
        """Human-readable summary, one finding per line."""
        return [
            f"campaign grid: {self.seeds} seeds, {self.workers} workers "
            f"({self.start_method}, chunks of {self.chunk_size}, "
            f"{self.cores} usable core(s))",
            f"executor spin-up: {self.spinup_s:.2f}s (one-time, amortized "
            f"across grids)",
            f"serial:   {self.serial_s:.2f}s wall clock",
            f"parallel: {self.parallel_s:.2f}s wall clock "
            f"({self.speedup:.2f}x)",
            f"reports bit-identical: {self.identical}",
            f"post-warm worker graph rebuilds: {self.worker_rebuilds}",
        ]


def available_cores() -> int:
    """CPUs this process may actually schedule on.

    ``sched_getaffinity`` respects container/cgroup CPU masks where
    ``cpu_count`` reports the host's; speedup gates must key off the
    former (a 1-core runner cannot make 2 workers beat 1).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def env_stamp() -> Dict[str, object]:
    """The commit, host CPU and Python version a measurement ran on.

    ``commit`` is the checked-out commit and ``dirty`` whether the tree
    had uncommitted changes; outside a git checkout (an installed wheel)
    ``commit`` is ``"unknown"`` and ``dirty`` is None. ``cpu`` is the
    model name from ``/proc/cpuinfo`` (``"unknown"`` where there is
    none). Usable cores are not repeated here:
    :class:`CampaignBenchResult` records them.
    """
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
    if (_ROOT / ".git").exists():
        def git(*args: str) -> str:
            try:
                return subprocess.run(
                    ["git", *args], cwd=_ROOT, capture_output=True, text=True,
                    timeout=30,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                return ""

        commit = git("rev-parse", "HEAD") or "unknown"
        if commit != "unknown":
            dirty = bool(git("status", "--porcelain"))
    return {
        "commit": commit,
        "dirty": dirty,
        "cpu": cpu,
        "python": sys.version.split()[0],
    }


def campaign_speedup(
    config: Optional[CampaignConfig] = None,
    *,
    n_seeds: int = 4,
    root_seed: int = 11,
    workers: int = 2,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> CampaignBenchResult:
    """Time one seed grid serially and on a prewarmed executor; check bit-identity.

    Both runs use the exact same :func:`repro.sim.campaign.seed_grid`
    seeds, so ``identical`` is the determinism contract evaluated on real
    campaigns, not a toy fixture. The executor is warmed *before* the
    timed region — pool start and per-worker graph builds land in
    ``spinup_s`` — because that is the executor's contract: spin up once,
    run many grids. The serial run gets the same courtesy (the parent's
    graph memo is prewarmed), so both sides time pure campaign work.
    """
    cfg = config if config is not None else CampaignConfig()
    seeds = seed_grid(root_seed, n_seeds)
    # warm the per-process graph memo so the serial run isn't charged the
    # one-time corpus/prune build that pool workers get warmed with
    _trusted_graph(cfg.corpus_seed, cfg.ego_hops)
    serial = run_campaign_serial(cfg, seeds)
    with CampaignExecutor(
        cfg, workers=workers, start_method=start_method, chunk_size=chunk_size
    ) as ex:
        t0 = perf_counter()
        ex.warm()
        spinup_s = perf_counter() - t0
        parallel = ex.run(seeds)
        return CampaignBenchResult(
            seeds=len(seeds),
            workers=parallel.workers,
            serial_s=serial.wall_clock_s,
            parallel_s=parallel.wall_clock_s,
            spinup_s=spinup_s,
            identical=(
                serial.reports == parallel.reports
                and serial.aggregate == parallel.aggregate
            ),
            start_method=ex.start_method,
            chunk_size=ex.chunk_size_for(len(seeds)),
            cores=available_cores(),
            worker_rebuilds=ex.worker_rebuilds,
        )


def bench_to_dict(campaign: CampaignBenchResult) -> Dict[str, object]:
    """JSON-ready ``{"campaign": ..., "env": ...}`` for one measurement:
    the result's fields plus its ``speedup``, and :func:`env_stamp`."""
    return {
        "campaign": {**asdict(campaign), "speedup": campaign.speedup},
        "env": env_stamp(),
    }
