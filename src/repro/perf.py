"""Throughput harness for the fast-path work: resolve RPS and campaign speedup.

Two measurements back the performance claims of the hop-index /
parallel-campaign work, shared by the ``repro perf`` CLI and
``benchmarks/test_bench_resolve.py`` (which persists them to
``BENCH_resolve.json``):

* :func:`resolve_throughput` — resolves-per-second on a scaled
  demand-shift scenario graph (:func:`repro.sim.scenarios.scenario_graph`),
  comparing the retained pre-index reference implementation
  (:func:`repro.cdn.allocation.resolve_candidates_reference`, fresh BFS
  per call) against the :class:`~repro.cdn.hopindex.HopIndex`-backed
  ``resolve_candidates`` — and differentially checking that both rank
  candidates identically.
* :func:`campaign_speedup` — wall-clock of a chaos seed grid run serially
  vs. over a prewarmed :class:`repro.sim.campaign.CampaignExecutor`, with
  the bit-identical-reports contract checked on the same run. Pool
  spin-up (worker start + trusted-graph warm) is timed separately as
  ``spinup_s``, matching how the executor is meant to be used: pay once,
  run many grids.

Everything is seeded; the only nondeterminism in the emitted numbers is
the host's actual speed.
"""

from __future__ import annotations

import os

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ConfigurationError
from .ids import AuthorId, DatasetId, NodeId, SegmentId
from .obs import Registry
from .cdn.allocation import AllocationServer, resolve_candidates_reference
from .cdn.content import segment_dataset
from .cdn.placement import RandomPlacement
from .cdn.sharding import ShardedAllocationRouter
from .cdn.storage import StorageRepository
from .sim.campaign import (
    CampaignConfig,
    CampaignExecutor,
    _trusted_graph,
    run_campaign_serial,
    seed_grid,
)
from .sim.scenarios import scenario_graph


@dataclass(frozen=True)
class ResolveBenchResult:
    """Resolve-throughput numbers (requests per second, wall-clock based).

    ``identical`` is the differential guarantee: over every distinct
    ``(segment, requester)`` pair of the workload, the indexed fast path
    ranked candidates exactly like the pre-index reference (same replica
    ids, same hop annotations, same order).
    """

    far_clusters: int
    graph_nodes: int
    requests: int
    reference_rps: float
    indexed_rps: float
    identical: bool

    @property
    def indexed_speedup(self) -> float:
        """Indexed single-request throughput over the reference's."""
        return self.indexed_rps / self.reference_rps if self.reference_rps else 0.0

    def lines(self) -> List[str]:
        """Human-readable summary, one finding per line."""
        return [
            f"resolve throughput: {self.graph_nodes}-node scenario graph "
            f"(scale {self.far_clusters}), {self.requests} requests per mode",
            f"reference (per-call BFS): {self.reference_rps:,.0f} rps",
            f"indexed (HopIndex):       {self.indexed_rps:,.0f} rps "
            f"({self.indexed_speedup:.1f}x)",
            f"differential check: {'identical' if self.identical else 'DIVERGED'}",
        ]


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


@dataclass(frozen=True)
class ShardBenchResult:
    """Sharded-allocation throughput and the single-shard equivalence gate.

    ``identical`` is the differential guarantee of the sharded tier: over
    every distinct ``(segment, requester)`` pair of the workload, the
    router's candidate ranking equals both the unsharded
    :class:`~repro.cdn.allocation.AllocationServer`'s and the pre-index
    reference's — same replica ids (the shared id allocator reproduces
    the unsharded id sequence exactly), same hop annotations, same order.

    ``routed_rps`` is one thread driving the router (routing overhead on
    top of ``unsharded_rps``). ``federated_rps`` is the partition-
    parallel number: each site's shard serves only its own partition of
    the workload, and the federation's wall clock is the slowest site's —
    the throughput N single-site allocation servers would sustain side by
    side. ``site_requests`` shows how evenly the community partition
    spread the workload.
    """

    far_clusters: int
    graph_nodes: int
    n_shards: int
    requests: int
    unsharded_rps: float
    routed_rps: float
    federated_rps: float
    site_requests: List[int]
    identical: bool

    @property
    def modelled_federated_speedup(self) -> float:
        """Partition-parallel federation throughput over the unsharded server's.

        *Modelled*: the sites run one after another on one host and the
        slowest site's wall clock stands in for the federation's, so the
        figure also absorbs each site's smaller working set (hop rows,
        servable views) — it is not measured parallelism."""
        return (
            self.federated_rps / self.unsharded_rps if self.unsharded_rps else 0.0
        )

    def lines(self) -> List[str]:
        """Human-readable summary, one finding per line."""
        spread = ", ".join(str(n) for n in self.site_requests)
        return [
            f"sharded allocation: {self.graph_nodes}-node scenario graph "
            f"(scale {self.far_clusters}), {self.n_shards} shard(s), "
            f"{self.requests} requests per mode",
            f"unsharded server:   {self.unsharded_rps:,.0f} rps",
            f"routed (1 thread):  {self.routed_rps:,.0f} rps",
            f"federated (1/site): {self.federated_rps:,.0f} rps "
            f"({self.modelled_federated_speedup:.1f}x modelled, slowest-site wall clock)",
            f"workload per site:  [{spread}]",
            f"differential check: {'identical' if self.identical else 'DIVERGED'}",
        ]


def _bench_owners(
    graph, authors: List[AuthorId], datasets: int, spread_owners: bool
) -> List[AuthorId]:
    """Dataset owners for the bench deployments.

    The classic resolve bench publishes everything under the scenario
    seed author. The shard bench spreads owners at a fixed stride across
    the sorted author list instead, landing them in distinct far
    clusters — and therefore distinct communities and sites — so the
    partitioned workload actually exercises every shard.
    """
    if spread_owners:
        return [authors[(i * len(authors)) // datasets] for i in range(datasets)]
    owner = graph.seed if graph.seed is not None else authors[0]
    return [owner] * datasets


def build_resolve_deployment(
    *,
    far_clusters: int = 40,
    datasets: int = 6,
    n_replicas: int = 3,
    seed: int = 7,
    registry: Optional[Registry] = None,
    spread_owners: bool = False,
) -> Tuple[AllocationServer, List[SegmentId], List[AuthorId]]:
    """Build the throughput benchmark's allocation deployment.

    A scaled demand-shift scenario graph, one repository per author
    (``node-<author>``), and ``datasets`` single-segment datasets
    published at ``n_replicas`` copies by random placement. Returns the
    server, the published segment ids, and the author list (sorted — the
    request workload round-robins over it). ``spread_owners`` scatters
    dataset ownership across the graph (see :func:`_bench_owners`);
    the default keeps the classic single-owner deployment byte-stable.
    """
    if datasets < 1:
        raise ConfigurationError(f"datasets must be >= 1, got {datasets}")
    graph = scenario_graph(far_clusters=far_clusters)
    server = AllocationServer(
        graph,
        RandomPlacement(),
        seed=seed,
        registry=registry if registry is not None else Registry(),
    )
    authors = sorted(graph.nodes())
    for author in authors:
        server.register_repository(
            author, StorageRepository(NodeId(f"node-{author}"), 10_000_000)
        )
    owners = _bench_owners(graph, authors, datasets, spread_owners)
    segments: List[SegmentId] = []
    for i in range(datasets):
        ds = segment_dataset(DatasetId(f"bench-{i}"), owners[i], 1_000)
        server.publish_dataset(ds, n_replicas=n_replicas)
        segments.extend(s.segment_id for s in ds.segments)
    return server, segments, authors


def build_sharded_deployment(
    *,
    far_clusters: int = 40,
    datasets: int = 6,
    n_replicas: int = 3,
    seed: int = 7,
    n_shards: int = 1,
    registry: Optional[Registry] = None,
    spread_owners: bool = False,
) -> Tuple[ShardedAllocationRouter, List[SegmentId], List[AuthorId]]:
    """The sharded twin of :func:`build_resolve_deployment`.

    Identical graph, repositories, datasets, placement seed, and
    operation order — only the allocation tier differs: a
    :class:`~repro.cdn.sharding.ShardedAllocationRouter` over
    ``n_shards`` community-keyed catalog shards. Because the shards share
    one id allocator and one placement RNG, the resulting replica ids
    and placements are byte-identical to the unsharded deployment's,
    which is what makes the differential check in
    :func:`shard_throughput` meaningful at any shard count.
    """
    if datasets < 1:
        raise ConfigurationError(f"datasets must be >= 1, got {datasets}")
    graph = scenario_graph(far_clusters=far_clusters)
    router = ShardedAllocationRouter(
        graph,
        RandomPlacement(),
        n_shards=n_shards,
        seed=seed,
        registry=registry if registry is not None else Registry(),
    )
    authors = sorted(graph.nodes())
    for author in authors:
        router.register_repository(
            author, StorageRepository(NodeId(f"node-{author}"), 10_000_000)
        )
    owners = _bench_owners(graph, authors, datasets, spread_owners)
    segments: List[SegmentId] = []
    for i in range(datasets):
        ds = segment_dataset(DatasetId(f"bench-{i}"), owners[i], 1_000)
        router.publish_dataset(ds, n_replicas=n_replicas)
        segments.extend(s.segment_id for s in ds.segments)
    return router, segments, authors


def _request_workload(
    segments: List[SegmentId], authors: List[AuthorId], requests: int
) -> List[Tuple[SegmentId, AuthorId]]:
    """Deterministic round-robin workload over segments x authors."""
    return [
        (segments[i % len(segments)], authors[i % len(authors)])
        for i in range(requests)
    ]


_Workload = List[Tuple[SegmentId, AuthorId]]


def _steady_pass_s(
    runs: List[Tuple[Callable[[SegmentId, AuthorId], object], _Workload]],
    rounds: int = 15,
) -> List[float]:
    """Fastest timed pass of each ``(resolve, workload)`` run, in order.

    Every run first gets one untimed warm-up pass (hop rows and site
    memos resident). Each of ``rounds`` rounds then times one pass of
    every run back to back, so a slow spell on a shared host lands on
    all runs alike instead of on whichever happened to be timed then.
    """
    for resolve, workload in runs:
        for seg, req in workload:
            resolve(seg, req)
    best = [float("inf")] * len(runs)
    for _ in range(rounds):
        for i, (resolve, workload) in enumerate(runs):
            t0 = perf_counter()
            for seg, req in workload:
                resolve(seg, req)
            best[i] = min(best[i], perf_counter() - t0)
    return [max(b, 1e-9) for b in best]


def resolve_throughput(
    *,
    far_clusters: int = 40,
    datasets: int = 6,
    n_replicas: int = 3,
    requests: int = 5000,
    seed: int = 7,
) -> ResolveBenchResult:
    """Measure reference vs. indexed resolve throughput.

    Both modes replay the same request list against one deployment.
    Each mode is a pure query (nothing records reads), so neither
    perturbs the state the other measures; the indexed mode starts
    with a cold hop index and pays its misses inside the measurement,
    which is the honest amortized number. The differential check then
    replays every distinct ``(segment, requester)`` pair, comparing full
    candidate rankings between the reference and the fast path.
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be >= 1, got {requests}")

    server, segments, authors = build_resolve_deployment(
        far_clusters=far_clusters,
        datasets=datasets,
        n_replicas=n_replicas,
        seed=seed,
    )
    workload = _request_workload(segments, authors, requests)

    t0 = perf_counter()
    for seg, req in workload:
        resolve_candidates_reference(server, seg, req)
    ref_s = max(perf_counter() - t0, 1e-9)

    t0 = perf_counter()
    for seg, req in workload:
        server.resolve_candidates(seg, req)
    idx_s = max(perf_counter() - t0, 1e-9)

    identical = True
    for seg, req in sorted(set(workload), key=lambda t: (str(t[0]), str(t[1]))):
        fast = server.resolve_candidates(seg, req)
        ref = resolve_candidates_reference(server, seg, req)
        if [(c.replica.replica_id, c.social_hops) for c in fast] != [
            (c.replica.replica_id, c.social_hops) for c in ref
        ]:
            identical = False
            break

    return ResolveBenchResult(
        far_clusters=far_clusters,
        graph_nodes=server.graph.n_nodes,
        requests=requests,
        reference_rps=requests / ref_s,
        indexed_rps=requests / idx_s,
        identical=identical,
    )


def shard_throughput(
    *,
    far_clusters: int = 400,
    datasets: int = 12,
    n_replicas: int = 3,
    requests: int = 5000,
    seed: int = 7,
    n_shards: int = 1,
) -> ShardBenchResult:
    """Measure unsharded vs routed vs partition-parallel federated resolve.

    Three deployments are built from the same seed and operation order:
    an unsharded :class:`~repro.cdn.allocation.AllocationServer` (the
    baseline and differential oracle) and two sharded federations (one
    timed through the router, one timed site by site, so neither
    measurement inherits the other's warm hop index). Owners are spread
    across communities (``spread_owners=True``) so the community-keyed
    partition routes real work to every site. Every mode is timed at its
    steady state (:func:`_steady_pass_s`: warm-up, then the fastest of
    fifteen interleaved passes), so one-off hop-row builds and host noise
    do not swamp a resolve that costs microseconds.

    ``federated_rps`` models one allocation server per site: each site
    serves only its own partition of the workload, and the federation's
    wall clock is the slowest site's elapsed time — throughput scales
    with shard count as long as the partition keeps sites busy evenly.

    The differential check replays every distinct ``(segment,
    requester)`` pair against the router, the unsharded server, and the
    pre-index reference, comparing full ``(replica id, hops)`` rankings.
    At ``n_shards=1`` this is exactly the single-shard ≡ unsharded gate
    the sharded tier's contract requires; at higher counts it is the
    same guarantee federation-wide.
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be >= 1, got {requests}")
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")

    build = dict(
        far_clusters=far_clusters,
        datasets=datasets,
        n_replicas=n_replicas,
        seed=seed,
        spread_owners=True,
    )
    server, segments, authors = build_resolve_deployment(**build)
    router, r_segments, _ = build_sharded_deployment(**build, n_shards=n_shards)
    assert list(segments) == list(r_segments)
    workload = _request_workload(segments, authors, requests)

    # Partition-parallel measurement on a fresh federation: each site's
    # shard serves its own requests; the federation finishes when the
    # slowest site does.
    fed, _, _ = build_sharded_deployment(**build, n_shards=n_shards)
    by_site: Dict[int, List[Tuple[SegmentId, AuthorId]]] = {}
    for seg, req in workload:
        by_site.setdefault(fed._site_of_segment(seg), []).append((seg, req))
    site_requests = [len(by_site.get(s, ())) for s in range(n_shards)]
    unsharded_s, routed_s, *site_s = _steady_pass_s(
        [(server.resolve_candidates, workload), (router.resolve_candidates, workload)]
        + [
            (fed.shards[site].resolve_candidates, site_load)
            for site, site_load in by_site.items()
        ]
    )
    slowest = max(site_s)

    identical = True
    for seg, req in sorted(set(workload), key=lambda t: (str(t[0]), str(t[1]))):
        routed = router.resolve_candidates(seg, req)
        flat = server.resolve_candidates(seg, req)
        ref = resolve_candidates_reference(server, seg, req)
        keys = [
            [(c.replica.replica_id, c.social_hops) for c in cs]
            for cs in (routed, flat, ref)
        ]
        if keys[0] != keys[1] or keys[0] != keys[2]:
            identical = False
            break

    return ShardBenchResult(
        far_clusters=far_clusters,
        graph_nodes=server.graph.n_nodes,
        n_shards=n_shards,
        requests=requests,
        unsharded_rps=requests / unsharded_s,
        routed_rps=requests / routed_s,
        federated_rps=requests / slowest,
        site_requests=site_requests,
        identical=identical,
    )


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


def bench_to_dict(
    resolve: ResolveBenchResult,
    campaign: Optional[CampaignBenchResult] = None,
    shards: Optional[List[ShardBenchResult]] = None,
) -> Dict[str, object]:
    """JSON-ready dict combining the measurements (all but resolve optional)."""
    out: Dict[str, object] = {
        "resolve": {
            "far_clusters": resolve.far_clusters,
            "graph_nodes": resolve.graph_nodes,
            "requests": resolve.requests,
            "reference_rps": resolve.reference_rps,
            "indexed_rps": resolve.indexed_rps,
            "indexed_speedup": resolve.indexed_speedup,
            "identical": resolve.identical,
        }
    }
    if campaign is not None:
        out["campaign"] = {
            "seeds": campaign.seeds,
            "workers": campaign.workers,
            "serial_s": campaign.serial_s,
            "parallel_s": campaign.parallel_s,
            "spinup_s": campaign.spinup_s,
            "speedup": campaign.speedup,
            "identical": campaign.identical,
            "start_method": campaign.start_method,
            "chunk_size": campaign.chunk_size,
            "cores": campaign.cores,
            "worker_rebuilds": campaign.worker_rebuilds,
        }
    if shards:
        out["shards"] = [
            {
                "far_clusters": s.far_clusters,
                "graph_nodes": s.graph_nodes,
                "n_shards": s.n_shards,
                "requests": s.requests,
                "unsharded_rps": s.unsharded_rps,
                "routed_rps": s.routed_rps,
                "federated_rps": s.federated_rps,
                "modelled_federated_speedup": s.modelled_federated_speedup,
                "site_requests": s.site_requests,
                "identical": s.identical,
            }
            for s in shards
        ]
    return out
