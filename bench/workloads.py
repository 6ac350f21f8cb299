"""The benchmark's four workloads, each one repetition from a cold start.

Every workload builds its deployment from public APIs (set-up), runs its
timed phase, checks its own outputs, and returns a :class:`RepResult`.
Wall time is taken by the :class:`probe.Probe` the caller installed, never
here. The workload seed (``--seed``) drives only the generated traffic and
failure schedules; deployment seeds are fixed at :data:`DEPLOYMENT_SEED`.
The flash crowd draws no traffic at random, so it ignores the seed.

``scale`` shrinks the timed phase for the bench's own tests; the
benchmark always runs at 1.0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List

import networkx as nx
import numpy as np

from repro.cdn.allocation import AllocationServer
from repro.cdn.content import segment_dataset
from repro.cdn.placement import RandomPlacement
from repro.cdn.storage import StorageRepository
from repro.errors import CatalogError
from repro.ids import DatasetId, NodeId
from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.sim import scenarios
from repro.sim.chaos import ChaosConfig, run_chaos_campaign
from repro.social import ego, generators, trust

from probe import Probe

DEPLOYMENT_SEED = 42

#: Campaign traffic shared by both campaigns: 120 members reading once a
#: second with tight user caches, so most reads take the remote path.
_CAMPAIGN = dict(
    members=120,
    request_interval_s=1.0,
    member_capacity_bytes=20_000_000,
)
_READ_HORIZON_S = 30_000.0
_CHURN_HORIZON_S = 24_000.0
_FLASH_SPIKE_AT_S = 1_200.0
_FLASH_SPIKE_S = 1_200.0
_RESOLVE_OPS = 1_500
_RESOLVE_WRITE_EVERY = 100


@dataclass
class RepResult:
    """What one repetition produced, beyond the probe's wall samples."""

    digest: str
    registry: Registry
    #: correctness violations found by the workload's own checks
    errors: List[str] = field(default_factory=list)
    #: operations that raised or failed a check
    failed_ops: int = 0
    #: mean over segments of min(live servable replicas / budget, 1)
    redundancy: float = 1.0


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _redundancy(server) -> float:
    ratios = []
    catalog = server.catalog
    for ds in catalog.datasets():
        budget = server.replica_budget(ds.dataset_id)
        for seg in ds.segments:
            live = [
                r
                for r in catalog.replicas_of_segment(seg.segment_id, servable_only=True)
                if server.is_online(r.node_id)
            ]
            ratios.append(min(len(live) / budget, 1.0))
    return float(np.mean(ratios)) if ratios else 1.0


def _trusted_graph():
    """The CI deployment's trusted graph (190 authors), built from scratch.

    Called through the module attributes so the tracer's set-up spans
    see the corpus generator and the trust heuristic.
    """
    corpus, seed_author = generators.generate_corpus(seed=DEPLOYMENT_SEED)
    ego_net = ego.ego_corpus(corpus, seed_author, hops=2)
    return trust.MinCoauthorshipTrust(2).prune(ego_net, seed=seed_author).graph


def _campaign(seed: int, probe: Probe, *, shards: int, config: ChaosConfig) -> RepResult:
    registry = Registry()
    net = SCDN(
        _trusted_graph(),
        config=SCDNConfig(shards=shards),
        seed=DEPLOYMENT_SEED,
        registry=registry,
    )
    report = run_chaos_campaign(net, config, seed=seed)
    result = RepResult(
        digest=_sha256(report.to_dict()),
        registry=registry,
        failed_ops=report.unhandled_exceptions,
        redundancy=_redundancy(net.server),
    )
    checks = {
        "unhandled exceptions in workload ticks": report.unhandled_exceptions == 0,
        "probe saw every segment access the report counts": (
            len(probe.latency_s) == report.requests
            and probe.ok == report.served
            and probe.failed == report.failed
        ),
        "control plane diverged after heal": report.divergence_after_heal == 0,
        "corrupt replica servable after repair": report.corrupt_servable_after_repair == 0,
        "redundancy disagrees with the report": result.redundancy
        == report.post_repair_redundancy,
    }
    result.errors = [name for name, ok in checks.items() if not ok]
    return result


def campaign_read(seed: int, probe: Probe, scale: float = 1.0) -> RepResult:
    """Steady reads on one allocation shard, no injected failures."""
    config = ChaosConfig(
        horizon_s=_READ_HORIZON_S * scale,
        crash_rate_per_node_s=0.0,
        outage_rate_per_node_s=0.0,
        slowlink_rate_per_node_s=0.0,
        **_CAMPAIGN,
    )
    return _campaign(seed, probe, shards=1, config=config)


def campaign_churn(seed: int, probe: Probe, scale: float = 1.0) -> RepResult:
    """The same reads on four shards beside crashes, outages, slow links,
    bit rot, partitions, audits, scrubs and migration."""
    config = ChaosConfig(
        horizon_s=_CHURN_HORIZON_S * scale,
        crash_rate_per_node_s=2e-5,
        outage_rate_per_node_s=3e-4,
        slowlink_rate_per_node_s=3e-4,
        corruption_rate_per_node_s=2e-5,
        audit_interval_s=120.0,
        scrub_interval_s=300.0,
        migration_enabled=True,
        migration_interval_s=300.0,
        partition_rate_s=5e-4,
        partition_mean_duration_s=300.0,
        **_CAMPAIGN,
    )
    return _campaign(seed, probe, shards=4, config=config)


def flash_crowd(seed: int, probe: Probe, scale: float = 1.0) -> RepResult:
    """A 40-member deadline crowd on one dataset with the peer tier on.

    The scenario's traffic is a fixed schedule with no random draws, so
    the workload seed changes nothing here and every seed gives the same
    digest.
    """
    registry = Registry()
    spike_at = _FLASH_SPIKE_AT_S * scale
    config = scenarios.FlashCrowdConfig(
        crowd=40,
        n_segments=8,
        cache_segments=3,
        spike_at_s=spike_at,
        horizon_s=spike_at + _FLASH_SPIKE_S * scale,
    )
    outcome = scenarios.run_flash_crowd(
        peer_tier=True, seed=DEPLOYMENT_SEED, config=config, registry=registry
    )
    accesses = outcome.baseline.accesses + outcome.spike.accesses
    ok = outcome.baseline.ok + outcome.spike.ok
    checks = {
        "probe saw every access the scenario counts": len(probe.latency_s) == accesses
        and probe.ok == ok,
        "an access failed with transfer failures disabled": ok == accesses,
        "no spike traffic offloaded to peers": outcome.offload_ratio > 0.0,
    }
    return RepResult(
        digest=_sha256(asdict(outcome)),
        registry=registry,
        errors=[name for name, passed in checks.items() if not passed],
        failed_ops=accesses - ok,
    )


class _HopOracle:
    """Hop distances by networkx BFS from each replica holder.

    Independent of the allocation tier's hop index; the graph is
    undirected, so a row from the holder answers for every requester.
    """

    def __init__(self, graph) -> None:
        self._graph = graph.nx
        self._rows: Dict[object, Dict[object, int]] = {}

    def hops(self, holder, requester):
        row = self._rows.get(holder)
        if row is None:
            row = self._rows[holder] = nx.single_source_shortest_path_length(
                self._graph, holder
            )
        return row.get(requester)


def resolve_scale(seed: int, probe: Probe, scale: float = 1.0) -> RepResult:
    """The allocation tier alone on 3,003 authors: uniform seeded resolves,
    every 100th operation a write (publish, then flip a node off and on)."""
    graph = scenarios.scenario_graph(far_clusters=1000)
    registry = Registry()
    server = AllocationServer(
        graph, RandomPlacement(), seed=DEPLOYMENT_SEED, registry=registry
    )
    authors = sorted(graph.nodes())
    for author in authors:
        server.register_repository(
            author, StorageRepository(NodeId(f"node-{author}"), 10_000_000)
        )
    segments = []

    def publish(name: str, owner) -> None:
        dataset = segment_dataset(DatasetId(name), owner, 1_000)
        server.publish_dataset(dataset, n_replicas=3)
        segments.extend(s.segment_id for s in dataset.segments)

    for i in range(12):
        publish(f"scale-{i}", authors[i * len(authors) // 12])
    nodes = [server.node_of(a) for a in authors]
    oracle = _HopOracle(graph)
    rng = np.random.default_rng(seed)
    chosen: List[str] = []
    errors: List[str] = []
    failed = 0

    def flip(node) -> None:
        server.node_offline(node)
        server.node_online(node)

    for op in range(max(1, int(_RESOLVE_OPS * scale))):
        if op % _RESOLVE_WRITE_EVERY == _RESOLVE_WRITE_EVERY - 1:
            owner = authors[int(rng.integers(len(authors)))]
            probe.call(publish, f"write-{op}", owner, sample=False)
            probe.call(flip, nodes[int(rng.integers(len(nodes)))], sample=False)
            continue
        segment = segments[int(rng.integers(len(segments)))]
        requester = authors[int(rng.integers(len(authors)))]
        try:
            resolved = probe.call(server.resolve, segment, requester)
        except CatalogError as exc:
            failed += 1
            probe.failed += 1
            errors.append(f"resolve raised: {exc}")
            continue
        probe.ok += 1
        chosen.append(str(resolved.replica.replica_id))
        live = {
            r.replica_id: oracle.hops(server.author_of(r.node_id), requester)
            for r in server.catalog.replicas_of_segment(segment, servable_only=True)
            if server.is_online(r.node_id)
        }
        got = live.get(resolved.replica.replica_id, -1)
        if got == -1 or got != resolved.social_hops or got != min(live.values()):
            failed += 1
            errors.append(
                f"resolve({segment}, {requester}) chose {resolved.replica.replica_id} "
                f"at {resolved.social_hops} hops; live holders at {sorted(live.values())}"
            )
    return RepResult(
        digest=_sha256(chosen),
        registry=registry,
        errors=errors[:5],
        failed_ops=failed,
        redundancy=_redundancy(server),
    )


WORKLOADS: Dict[str, Callable[..., RepResult]] = {
    "campaign-read": campaign_read,
    "campaign-churn": campaign_churn,
    "flash-crowd": flash_crowd,
    "resolve-scale": resolve_scale,
}
