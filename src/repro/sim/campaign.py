"""Seed-grid chaos campaigns: serial runner and a persistent parallel executor.

One chaos campaign (:func:`repro.sim.chaos.run_chaos_campaign`) answers
"what happened under *this* seed"; a ROADMAP-grade claim ("repair restores
full redundancy under churn") needs a grid of seeds. This module runs such
grids — serially, or fanned out over a persistent :mod:`multiprocessing`
pool (:class:`CampaignExecutor`) — and merges the per-seed
:class:`~repro.sim.chaos.ChaosReport` objects into one
:class:`CampaignAggregate`.

**Determinism contract.** Both runners execute the *identical* per-seed
function (:func:`_run_one_seed`): a fresh observability registry, a fresh
deployment built from ``(corpus_seed, ego_hops, deployment_seed)``, and a
campaign driven solely by the per-seed RNG. Nothing about a seed's
simulation depends on process identity, scheduling, chunking, or which
other seeds run beside it — so for the same :class:`CampaignConfig` and
seed list, :class:`CampaignExecutor` (and its one-shot wrapper
:func:`run_campaign_parallel`) returns reports **bit-for-bit equal** to
:func:`run_campaign_serial` (``ChaosReport`` is a frozen dataclass; the
test suite asserts ``==`` across runners and start methods). Only
``wall_clock_s`` may differ. Seed grids come from :func:`seed_grid`, which
fans a root seed out through :class:`numpy.random.SeedSequence` spawns;
grid runners reject duplicate seeds loudly (concatenating grids derived
from related roots silently collides — see :func:`_check_seeds`).

**Why a persistent executor.** The first parallel runner spun a fresh pool
up per grid and let each worker rebuild the trusted deployment graph
lazily inside its first task, so per-run setup dominated the small work
units and parallel *lost* to serial (0.68x in the first recorded
campaign-speedup bench). :class:`CampaignExecutor` fixes all three
overheads: the pool is created **once** and reused across grids; every
worker is warmed with the prebuilt trusted graph in the pool
*initializer* (under ``fork`` the parent's memo is inherited copy-on-write
and the warm-up is a cache hit; under ``spawn`` the initializer prebuilds
it so no task ever pays a worker-side rebuild — :attr:`worker_rebuilds`
counts violations and stays 0); and seeds are scheduled in **chunks**
sized to amortize IPC (``ceil(n / (workers * 2))`` by default).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from ..errors import ConfigurationError
from .chaos import ChaosConfig, ChaosReport

#: map() chunks handed to each worker per grid. Two per worker amortizes
#: IPC (one pickle round-trip per chunk, not per seed) while keeping
#: enough chunks in flight to balance unevenly long seeds.
_CHUNKS_PER_WORKER = 2

#: set True in a pool worker once its initializer finished warming the
#: trusted-graph memo; any build counted after that is a regression
#: (the lazy per-task rebuild the executor exists to eliminate)
_warmed = False

#: number of trusted-graph builds in this process *after* warm-up
_post_warm_builds = 0


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters shared by every seed of a campaign grid.

    The deployment is the CLI's standard one: a generated corpus
    (``corpus_seed``), the seed author's ``ego_hops``-hop ego network,
    double-coauthorship trust pruning, and an SCDN built with
    ``deployment_seed``. Per-seed variation comes only from the campaign
    seed handed to :func:`repro.sim.chaos.run_chaos_campaign`.
    """

    chaos: ChaosConfig = field(default_factory=ChaosConfig)
    corpus_seed: int = 42
    deployment_seed: int = 42
    ego_hops: int = 2
    #: allocation shards per deployment; reports are bit-identical at any
    #: count (the sharded tier's equivalence contract, tested in
    #: tests/cdn/test_sharding.py)
    shards: int = 1

    def __post_init__(self) -> None:
        if self.ego_hops < 1:
            raise ConfigurationError("ego_hops must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")


@dataclass(frozen=True)
class CampaignAggregate:
    """Merged view of a grid's per-seed reports (see :func:`merge_reports`).

    Counts are sums across seeds; ``availability`` is pooled (total served
    over total served + failed), not a mean of per-seed ratios, so short
    and long seeds weigh by their actual traffic.
    """

    seeds: int
    requests: int
    served: int
    failed: int
    denied: int
    availability: float
    crashes: int
    outages: int
    slowlinks: int
    failovers: int
    repairs_created: int
    unrepaired_disruptions: int
    unhandled_exceptions: int
    mean_post_repair_redundancy: float
    min_post_repair_redundancy: float

    def lines(self) -> List[str]:
        """Human-readable aggregate, one finding per line."""
        return [
            f"campaign grid: {self.seeds} seeds",
            f"requests: {self.requests} ({self.served} served, "
            f"{self.failed} failed, {self.denied} denied)",
            f"pooled availability={self.availability:.4f} "
            f"failovers={self.failovers}",
            f"injected: {self.crashes} crashes, {self.outages} outages, "
            f"{self.slowlinks} slow links",
            f"repairs: {self.repairs_created} replicas created, "
            f"{self.unrepaired_disruptions} unrepaired at horizon",
            f"post_repair_redundancy: mean="
            f"{self.mean_post_repair_redundancy:.4f} "
            f"min={self.min_post_repair_redundancy:.4f}",
            f"unhandled_exceptions={self.unhandled_exceptions}",
        ]


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one grid run: per-seed reports plus the merged view.

    ``reports[i]`` corresponds to ``seeds[i]``. Everything except
    ``wall_clock_s`` and ``workers`` is bit-identical between the serial
    and parallel runners for the same config and seeds.
    """

    seeds: Tuple[int, ...]
    reports: Tuple[ChaosReport, ...]
    aggregate: CampaignAggregate
    wall_clock_s: float
    workers: int

    def lines(self) -> List[str]:
        """Aggregate lines prefixed with the runner's shape."""
        head = (
            f"ran {len(self.seeds)} campaigns on {self.workers} worker(s) "
            f"in {self.wall_clock_s:.2f}s wall clock"
        )
        return [head, *self.aggregate.lines()]


def seed_grid(root_seed: int, n: int) -> Tuple[int, ...]:
    """Derive ``n`` independent campaign seeds from one root seed.

    Fans out through :class:`numpy.random.SeedSequence` spawning — the
    same mechanism :func:`repro.rng.spawn` uses — so grids are
    reproducible, order-stable, and collision-resistant regardless of how
    the seeds are later distributed over workers.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one seed, got {n}")
    children = np.random.SeedSequence(root_seed).spawn(n)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def _check_seeds(seeds: Sequence[int]) -> None:
    """Reject empty grids and grids with duplicate seeds.

    One :func:`seed_grid` call never collides, but callers who concatenate
    grids from related roots can hand the same seed in twice — the spawn
    tree is prefix-stable, so ``seed_grid(r, 8)`` *contains*
    ``seed_grid(r, 4)``. Running a duplicated seed silently double-counts
    its report in the aggregate, so grid runners raise instead.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    dups = sorted(s for s, c in Counter(int(s) for s in seeds).items() if c > 1)
    if dups:
        shown = ", ".join(str(s) for s in dups[:5])
        more = f" (+{len(dups) - 5} more)" if len(dups) > 5 else ""
        raise ConfigurationError(
            f"duplicate campaign seeds in grid: {shown}{more} — "
            "seed_grid() is prefix-stable, so concatenating grids from "
            "related roots collides; derive one grid from one root instead"
        )


@lru_cache(maxsize=8)
def _trusted_graph(corpus_seed: int, ego_hops: int):
    """Build (once per process) the trusted deployment graph.

    The corpus, ego network, and pruned trust graph are all deterministic
    functions of the two keys and immutable afterwards, so one build
    serves every seed of a grid — and every grid sharing the keys. In a
    pool worker the initializer warms this cache before any task runs;
    builds that happen anyway (a cache miss inside a task) are counted on
    the module-level ``_post_warm_builds`` so the executor — and the test
    suite — can prove no worker ever paid a lazy rebuild.
    """
    global _post_warm_builds
    if _warmed:
        _post_warm_builds += 1
    from ..social import generate_corpus
    from ..social.ego import ego_corpus
    from ..social.trust import MinCoauthorshipTrust

    corpus, seed_author = generate_corpus(seed=corpus_seed)
    ego = ego_corpus(corpus, seed_author, hops=ego_hops)
    return MinCoauthorshipTrust(2).prune(ego, seed=seed_author).graph


def _worker_init(corpus_seed: int, ego_hops: int) -> None:
    """Pool initializer: prewarm the trusted-graph memo in this worker.

    Under ``fork`` the parent's memo is inherited copy-on-write and this
    is a cache hit; under ``spawn`` the worker starts from a blank
    interpreter and this build is the one-time cost that used to be
    charged (lazily) to the first task's wall clock.
    """
    global _warmed
    _trusted_graph(corpus_seed, ego_hops)
    _warmed = True


def _run_one_seed(config: CampaignConfig, seed: int) -> ChaosReport:
    """Run one campaign seed in full isolation.

    Fresh registry, fresh SCDN, fresh catalog — the only state shared with
    other seeds is the immutable trusted graph. This is the single code
    path both runners execute, which is what makes their reports
    comparable bit for bit.
    """
    from ..obs import Registry
    from ..scdn import SCDN, SCDNConfig
    from .chaos import run_chaos_campaign

    graph = _trusted_graph(config.corpus_seed, config.ego_hops)
    net = SCDN(
        graph,
        config=SCDNConfig(shards=config.shards),
        seed=config.deployment_seed,
        registry=Registry(),
    )
    return run_chaos_campaign(net, config.chaos, seed=seed)


def _run_seed_in_worker(
    config: CampaignConfig, seed: int
) -> Tuple[ChaosReport, int]:
    """Worker-side task: one seed's report plus this worker's post-warm
    build count (0 unless the initializer failed to prewarm the graph)."""
    return _run_one_seed(config, seed), _post_warm_builds


def merge_reports(reports: Sequence[ChaosReport]) -> CampaignAggregate:
    """Merge per-seed reports into one :class:`CampaignAggregate`."""
    if not reports:
        raise ConfigurationError("cannot merge an empty report list")
    served = sum(r.served for r in reports)
    failed = sum(r.failed for r in reports)
    denom = served + failed
    redundancy = [r.post_repair_redundancy for r in reports]
    return CampaignAggregate(
        seeds=len(reports),
        requests=sum(r.requests for r in reports),
        served=served,
        failed=failed,
        denied=sum(r.denied for r in reports),
        availability=(served / denom) if denom else 1.0,
        crashes=sum(r.crashes for r in reports),
        outages=sum(r.outages for r in reports),
        slowlinks=sum(r.slowlinks for r in reports),
        failovers=sum(r.failovers for r in reports),
        repairs_created=sum(r.repairs_created for r in reports),
        unrepaired_disruptions=sum(r.unrepaired_disruptions for r in reports),
        unhandled_exceptions=sum(r.unhandled_exceptions for r in reports),
        mean_post_repair_redundancy=float(np.mean(redundancy)),
        min_post_repair_redundancy=min(redundancy),
    )


def run_campaign_serial(
    config: CampaignConfig, seeds: Sequence[int]
) -> CampaignResult:
    """Run every seed in-process, in order. The determinism baseline."""
    _check_seeds(seeds)
    t0 = perf_counter()
    reports = tuple(_run_one_seed(config, s) for s in seeds)
    wall = perf_counter() - t0
    return CampaignResult(
        seeds=tuple(int(s) for s in seeds),
        reports=reports,
        aggregate=merge_reports(reports),
        wall_clock_s=wall,
        workers=1,
    )


class CampaignExecutor:
    """A persistent, reusable pool for parallel campaign grids.

    Spin workers up once, run many grids::

        with CampaignExecutor(config, workers=4) as ex:
            smoke = ex.run(seed_grid(11, 8))
            full = ex.run(seed_grid(23, 64))

    Parameters
    ----------
    config:
        The campaign configuration every grid run through this executor
        uses. Binding it at construction lets the pool initializer warm
        each worker with the right prebuilt trusted graph.
    workers:
        Pool size. With ``workers=1`` no pool is ever created; ``run``
        degrades to :func:`run_campaign_serial` (as it does for
        single-seed grids regardless of ``workers``).
    start_method:
        ``"fork"``, ``"spawn"``, or ``"forkserver"``; defaults to
        ``fork`` where the platform offers it (workers then inherit the
        parent's memoized graph copy-on-write) and ``spawn`` otherwise
        (the initializer prebuilds the graph before the first task).
    chunk_size:
        Seeds per ``map`` chunk. Defaults per grid to
        ``ceil(n_seeds / (workers * 2))`` — one pickle round-trip per
        chunk instead of per seed, with two chunks per worker for load
        balancing. Chunking never affects results, only scheduling.

    Attributes
    ----------
    grids_run:
        Number of grids completed through :meth:`run`.
    worker_rebuilds:
        Highest post-warm trusted-graph build count reported by any
        worker task so far. Stays 0 when warm-up works; nonzero means
        some task paid the lazy rebuild the initializer exists to
        prevent (asserted 0 in the test suite).
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        workers: int = 2,
        start_method: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        elif start_method not in available:
            raise ConfigurationError(
                f"start method {start_method!r} not available here "
                f"(have: {', '.join(available)})"
            )
        self.config = config
        self.workers = workers
        self.start_method = start_method
        self.chunk_size = chunk_size
        self.grids_run = 0
        self.worker_rebuilds = 0
        self._pool = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def pool_started(self) -> bool:
        """True once worker processes exist (never for ``workers=1``)."""
        return self._pool is not None

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; a closed executor refuses to run."""
        return self._closed

    def warm(self) -> "CampaignExecutor":
        """Create and warm the pool now instead of on the first run.

        Builds the trusted graph in the parent first — under ``fork``
        the workers inherit that memo copy-on-write and their
        initializers are cache hits; under ``spawn`` each initializer
        prebuilds it. Call this to keep one-time spin-up out of a timed
        region (``repro perf`` does). No-op for ``workers=1``.
        """
        if self._closed:
            raise ConfigurationError("executor is closed")
        if self.workers > 1 and self._pool is None:
            _trusted_graph(self.config.corpus_seed, self.config.ego_hops)
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_worker_init,
                initargs=(self.config.corpus_seed, self.config.ego_hops),
            )
        return self

    def close(self) -> None:
        """Shut the workers down. Idempotent; the executor is unusable after."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._closed = True

    # -- execution ------------------------------------------------------
    def chunk_size_for(self, n_seeds: int) -> int:
        """The ``map`` chunk size a grid of ``n_seeds`` would use."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-n_seeds // (self.workers * _CHUNKS_PER_WORKER)))

    def run(self, seeds: Sequence[int]) -> CampaignResult:
        """Run one grid; reports are bit-for-bit equal to the serial runner's.

        ``map`` preserves seed order regardless of chunking, so
        ``reports[i]`` matches ``seeds[i]``. Grids with one seed (or an
        executor with one worker) run serially in-process — no pool, no
        IPC, result returned directly.
        """
        if self._closed:
            raise ConfigurationError("executor is closed")
        _check_seeds(seeds)
        if min(self.workers, len(seeds)) == 1:
            result = run_campaign_serial(self.config, seeds)
            self.grids_run += 1
            return result
        self.warm()
        chunk = self.chunk_size_for(len(seeds))
        t0 = perf_counter()
        pairs = self._pool.map(
            partial(_run_seed_in_worker, self.config), seeds, chunksize=chunk
        )
        wall = perf_counter() - t0
        reports = tuple(r for r, _ in pairs)
        self.worker_rebuilds = max(
            self.worker_rebuilds, max(b for _, b in pairs)
        )
        self.grids_run += 1
        return CampaignResult(
            seeds=tuple(int(s) for s in seeds),
            reports=reports,
            aggregate=merge_reports(reports),
            wall_clock_s=wall,
            workers=min(self.workers, len(seeds)),
        )


def run_campaign_parallel(
    config: CampaignConfig,
    seeds: Sequence[int],
    *,
    workers: int = 2,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Fan one seed grid out over ``workers`` processes.

    One-shot wrapper around :class:`CampaignExecutor` — the pool is
    created for this grid and torn down after. Callers running several
    grids should hold an executor open instead and amortize the spin-up.
    With ``workers=1`` (or a single seed) the serial runner's result is
    returned directly; no pool is ever created.

    For identical ``config`` and ``seeds``, the returned ``reports`` and
    ``aggregate`` are bit-for-bit equal to :func:`run_campaign_serial`'s
    (asserted by the test suite and the ``repro perf`` harness).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    _check_seeds(seeds)
    if min(workers, len(seeds)) == 1:
        return run_campaign_serial(config, seeds)
    with CampaignExecutor(
        config,
        workers=workers,
        start_method=start_method,
        chunk_size=chunk_size,
    ) as ex:
        return ex.run(seeds)
