"""Differential tests for the sharded allocation tier.

The equivalence contract of :class:`~repro.cdn.sharding.ShardedAllocationRouter`:
with one shard, every operation is bit-identical to an unsharded
:class:`~repro.cdn.allocation.AllocationServer`; with N shards, resolves,
repairs, migrations, and whole chaos campaigns still produce the exact
same replica ids, rankings, and reports — the shared fabric, shared id
allocator, shared RNG, and globally ordered repair queue make the
federation indistinguishable from one server for the same operation
sequence.
"""

from __future__ import annotations

from dataclasses import replace

import networkx as nx
import pytest

from repro.errors import CatalogError, ConfigurationError
from repro.ids import AuthorId, DatasetId, NodeId, SegmentId
from repro.obs import Registry
from repro.sim.engine import SimulationEngine
from repro.sim.failures import FailureInjector
from repro.sim.network import GeoPoint, NetworkModel
from repro.social.graph import CoauthorshipGraph
from repro.cdn.allocation import AllocationServer
from repro.cdn.content import segment_dataset
from repro.cdn.placement import RandomPlacement
from repro.cdn.sharding import ShardedAllocationRouter, _creation_key
from repro.cdn.storage import StorageRepository

from ..conftest import pub
from .reference import build_deployment, request_workload, resolve_candidates_reference
from .test_allocation_bugfixes import assignment_to, graph_of, make_server


def ranking(candidates):
    """Comparable projection of a candidate list."""
    return [
        (c.replica.replica_id, c.replica.node_id, c.social_hops)
        for c in candidates
    ]


def twin(n_shards, **kwargs):
    """An unsharded deployment and its sharded twin (same seeds/ops)."""
    kwargs.setdefault("spread_owners", True)
    flat = build_deployment(registry=Registry(), **kwargs)
    sharded = build_deployment(
        registry=Registry(), n_shards=n_shards, **kwargs
    )
    return flat, sharded


def make_router(graph, authors, *, n_shards=2, capacity=10_000, seed=0):
    """A router over ``graph`` with one registered repo per author."""
    router = ShardedAllocationRouter(
        graph, RandomPlacement(), n_shards=n_shards, seed=seed, registry=Registry()
    )
    for a in authors:
        router.register_repository(
            AuthorId(a), StorageRepository(NodeId(f"node-{a}"), capacity)
        )
    return router


class TestConstruction:
    def test_bad_shard_count_rejected(self):
        g = graph_of(pub("p", 2009, "a", "b"))
        with pytest.raises(ConfigurationError):
            ShardedAllocationRouter(g, RandomPlacement(), n_shards=0)

    def test_counters_shared_across_shards(self):
        """All shards resolve instruments by name from one registry —
        the same objects an unsharded server would own."""
        _, (router, _, _) = twin(2, far_clusters=4)
        reg = router.obs
        for shard in router.catalog._shards:
            assert shard._m_servable_hits is reg.counter("catalog.servable_cache.hits")
        assert router._m_resolve_total is reg.counter("alloc.resolve.total")


class TestSingleShardEquivalence:
    """n_shards=1: the router must be bit-identical to today's server."""

    def test_replica_id_sequence_identical(self):
        (flat, _, _), (router, _, _) = twin(1, far_clusters=4)
        flat_ids = [r.replica_id for r in flat.catalog.iter_replicas()]
        routed_ids = [r.replica_id for r in router.catalog.iter_replicas()]
        assert flat_ids == routed_ids

    def test_resolution_identical_and_matches_reference(self):
        (flat, segments, authors), (router, _, _) = twin(1, far_clusters=4)
        for seg, req in request_workload(segments, authors, 150):
            routed = router.resolve_candidates(seg, req)
            assert ranking(routed) == ranking(flat.resolve_candidates(seg, req))
            # the pre-index reference runs unmodified against the router
            assert ranking(routed) == ranking(
                resolve_candidates_reference(router, seg, req)
            )


class TestMultiShardEquivalence:
    # the perf-quick cases replace the retired "Shard equivalence gate" CI
    # step (``repro perf --shards 1 4 --quick``) at its capped scale and
    # count; bench-scale-4 is the retired shard bench's 4-shard workload
    @pytest.mark.parametrize(
        "n_shards, far_clusters, datasets, requests",
        [
            pytest.param(2, 6, 8, 200, id="2"),
            pytest.param(4, 6, 8, 200, id="4"),
            pytest.param(1, 20, 12, 1000, id="perf-quick-1"),
            pytest.param(4, 20, 12, 1000, id="perf-quick-4"),
            pytest.param(4, 400, 12, 4000, id="bench-scale-4"),
        ],
    )
    def test_resolution_identical(self, n_shards, far_clusters, datasets, requests):
        (flat, segments, authors), (router, _, _) = twin(
            n_shards, far_clusters=far_clusters, datasets=datasets
        )
        assert [r.replica_id for r in flat.catalog.iter_replicas()] == [
            r.replica_id for r in router.catalog.iter_replicas()
        ]
        for seg, req in request_workload(segments, authors, requests):
            routed = ranking(router.resolve_candidates(seg, req))
            assert routed == ranking(flat.resolve_candidates(seg, req))
            assert routed == ranking(resolve_candidates_reference(flat, seg, req))

    def test_segments_actually_spread_across_shards(self):
        """The 4-shard twins above must exercise every site, or the
        multi-shard assertions test less than they claim."""
        for far_clusters, datasets in [(6, 8), (400, 12)]:
            _, (router, segments, _) = twin(
                4, far_clusters=far_clusters, datasets=datasets
            )
            sites = {router.catalog.site_of_segment(s) for s in segments}
            assert sites == set(range(4)), far_clusters


class TestNodeStateParity:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_offline_online_counts_match(self, n_shards):
        (flat, _, authors), (router, _, _) = twin(
            n_shards, far_clusters=4, datasets=6
        )
        nodes = [NodeId(f"node-{a}") for a in authors[:6]]
        for node in nodes:
            assert flat.node_offline(node, at=1.0) == router.node_offline(
                node, at=1.0
            )
        for node in nodes:
            assert flat.node_online(node, at=2.0) == router.node_online(
                node, at=2.0
            )
        for node in nodes:
            assert router.state_transitions(node) == flat.state_transitions(node)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_repair_identical(self, n_shards):
        (flat, _, authors), (router, _, _) = twin(
            n_shards, far_clusters=4, datasets=6
        )
        for a in authors[:4]:
            flat.node_offline(NodeId(f"node-{a}"), at=1.0)
            router.node_offline(NodeId(f"node-{a}"), at=1.0)
        assert router.under_replicated() == flat.under_replicated()
        flat_created = flat.repair(at=2.0)
        routed_created = router.repair(at=2.0)
        assert [(r.replica_id, r.node_id) for r in flat_created] == [
            (r.replica_id, r.node_id) for r in routed_created
        ]
        assert (
            router.obs.counter("alloc.repair.replicas").value
            == flat.obs.counter("alloc.repair.replicas").value
        )

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_migrate_node_identical(self, n_shards):
        (flat, _, authors), (router, _, _) = twin(
            n_shards, far_clusters=4, datasets=6
        )
        node = NodeId(f"node-{authors[0]}")
        flat_created = flat.migrate_node(node, at=3.0)
        routed_created = router.migrate_node(node, at=3.0)
        assert [(r.replica_id, r.node_id) for r in flat_created] == [
            (r.replica_id, r.node_id) for r in routed_created
        ]
        assert router.catalog.replicas_on_node(node) == []

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_partitioned_publish_repair_identical(self, n_shards):
        """The repair a partitioned publish runs covers every site, as on
        one server: it also backfills other datasets' segments."""
        (flat, _, authors), (router, _, _) = twin(
            n_shards, far_clusters=4, datasets=6
        )
        for a in authors[:4]:
            flat.node_offline(NodeId(f"node-{a}"), at=1.0)
            router.node_offline(NodeId(f"node-{a}"), at=1.0)
        ds = segment_dataset(DatasetId("part"), authors[-1], 1_000, n_segments=2)
        assignment = assignment_to(ds, authors[5])
        flat_created = flat.publish_dataset_partitioned(
            ds, assignment, extra_replicas=2, at=2.0
        )
        routed_created = router.publish_dataset_partitioned(
            ds, assignment, extra_replicas=2, at=2.0
        )
        assert [(r.replica_id, r.node_id) for r in routed_created] == [
            (r.replica_id, r.node_id) for r in flat_created
        ]
        assert router.under_replicated() == flat.under_replicated()

    def test_scale_hot_identical(self):
        (flat, segments, authors), (router, _, _) = twin(
            2, far_clusters=4, datasets=4
        )
        for seg, req in request_workload(segments, authors, 40):
            flat.resolve(seg, req)
            router.resolve(seg, req)
        flat_created = flat.scale_hot(5, extra=1, at=4.0)
        routed_created = router.scale_hot(5, extra=1, at=4.0)
        assert [(r.replica_id, r.node_id) for r in flat_created] == [
            (r.replica_id, r.node_id) for r in routed_created
        ]


class TestCampaignEquivalence:
    """Whole chaos campaigns — crash, outage, failover, repair, scrub —
    must report bit-identically with sharding on or off."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_reports_bit_identical(self, n_shards):
        from repro.sim.campaign import CampaignConfig, _run_one_seed
        from repro.sim.chaos import ChaosConfig

        chaos = ChaosConfig(horizon_s=600.0)
        base = _run_one_seed(CampaignConfig(chaos=chaos, shards=1), 7)
        sharded = _run_one_seed(
            CampaignConfig(chaos=chaos, shards=n_shards), 7
        )
        assert sharded == base


class TestFallbackAssignment:
    def test_edgeless_graph_routes_via_hash_ring(self):
        g = nx.Graph()
        g.add_nodes_from(["a", "b", "c", "d"])
        router = make_router(CoauthorshipGraph(g), ["a", "b", "c", "d"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        router.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        assert router.syscat.has_segment(seg)
        assert len(router.resolve_candidates(seg, AuthorId("b"))) == 2

    def test_late_joiner_owner_assigned_on_publish(self):
        """A dataset owner the community partition never saw lands on a
        sticky hash-ring site."""
        _, (router, _, _) = twin(2, far_clusters=3)
        ghost = AuthorId("late-joiner")
        assert router.syscat.site_of_author(ghost) is None
        ds = segment_dataset(DatasetId("late-ds"), ghost, 100)
        router.publish_dataset(ds, n_replicas=2)
        site = router.syscat.site_of_author(ghost)
        assert site is not None
        assert router.syscat.site_of_dataset(DatasetId("late-ds")) == site

    def test_failed_publish_leaves_no_metadata(self):
        """The dataset and its fragments register in the system catalog
        before placement; rolling back a failed publication drops them
        again, so no metadata survives."""
        g = graph_of(pub("p", 2009, "a", "b"))
        router = make_router(g, ["a", "b"], capacity=10)  # too small
        ds = segment_dataset(DatasetId("big"), AuthorId("a"), 1_000)
        with pytest.raises(Exception):
            router.publish_dataset(ds, n_replicas=2)
        assert not router.syscat.has_dataset(DatasetId("big"))
        assert not router.syscat.has_segment(ds.segments[0].segment_id)
        assert DatasetId("big") not in router.catalog


class TestDuplicateDatasetId:
    def test_duplicate_from_another_site_places_nothing(self):
        """A duplicate dataset id is rejected before anything is placed,
        even when its owner sits on another site than the original's."""
        _, (router, _, authors) = twin(3, far_clusters=5, datasets=6)
        ds_id = DatasetId("bench-0")
        home = router.syscat.site_of_dataset(ds_id)
        owner = next(a for a in authors if router.syscat.site_of_author(a) != home)
        shards = router.catalog._shards

        def footprint():
            return (
                router.catalog.total_replicas(),
                sum(
                    router.repository(router.node_of(a)).replica_used_bytes
                    for a in router.registered_authors()
                ),
                {i for i, shard in enumerate(shards) if ds_id in shard},
            )

        before = footprint()
        with pytest.raises(CatalogError):
            router.publish_dataset(segment_dataset(ds_id, owner, 1_000), n_replicas=2)
        assert footprint() == before


class TestFederatedCatalog:
    def test_iter_replicas_in_creation_order(self):
        _, (router, _, _) = twin(3, far_clusters=5, datasets=6)
        reps = list(router.catalog.iter_replicas())
        assert reps == sorted(reps, key=_creation_key)
        suffixes = [int(str(r.replica_id).rpartition("-")[2]) for r in reps]
        assert suffixes == sorted(suffixes)

    def test_datasets_in_registration_order(self):
        _, (router, _, _) = twin(3, far_clusters=5, datasets=6)
        assert [d.dataset_id for d in router.catalog.datasets()] == [
            DatasetId(f"bench-{i}") for i in range(6)
        ]

    def test_replica_routing_and_lookup(self):
        _, (router, segments, _) = twin(2, far_clusters=4)
        rep = router.catalog.replicas_of_segment(segments[0])[0]
        assert router.catalog.has_replica(rep.replica_id)
        assert router.catalog.replica(rep.replica_id) == rep
        assert not router.catalog.has_replica("r-99999")
        with pytest.raises(CatalogError):
            router.catalog.replica("r-99999")

    def test_quarantine_merges_in_creation_order(self):
        _, (router, segments, _) = twin(2, far_clusters=4, datasets=4)
        picked = []
        for seg in segments:
            picked.append(router.catalog.replicas_of_segment(seg)[0])
        for rep in reversed(picked):
            router.catalog.quarantine(rep.replica_id)
        quarantined = router.catalog.quarantined_replicas()
        assert quarantined == sorted(quarantined, key=_creation_key)
        assert {r.replica_id for r in quarantined} == {
            r.replica_id for r in picked
        }

    def test_unknown_routing_targets_rejected(self):
        _, (router, _, _) = twin(2, far_clusters=3)
        with pytest.raises(CatalogError):
            router.catalog.shard_of_segment(SegmentId("no:seg0"))
        with pytest.raises(CatalogError):
            router.catalog.shard_of_dataset(DatasetId("no"))
        with pytest.raises(CatalogError):
            router.catalog.shard_of_replica("r-404040")


class TestSiteMemo:
    """The router memoizes each segment's owning site after its first
    route and forgets it when the dataset is unregistered."""

    def test_site_memo_hits_after_first_route(self):
        router, segments, authors = build_deployment(
            registry=Registry(), n_shards=2, far_clusters=4, spread_owners=True
        )
        first = router.resolve_candidates(segments[0], authors[0])
        assert segments[0] in router.catalog._site_memo
        # the memoized route still resolves identically
        assert ranking(router.resolve_candidates(segments[0], authors[0])) == (
            ranking(first)
        )

    def test_site_memo_forgotten_on_unregister(self):
        router, segments, authors = build_deployment(
            registry=Registry(), n_shards=2, far_clusters=4, spread_owners=True
        )
        router.resolve_candidates(segments[0], authors[0])
        ds_id = next(
            ds.dataset_id
            for ds in router.catalog.datasets()
            if any(s.segment_id == segments[0] for s in ds.segments)
        )
        for rep in router.catalog.replicas_of_dataset(ds_id):
            router.catalog.retire(rep.replica_id)
        router.catalog.unregister_dataset(ds_id)
        assert segments[0] not in router.catalog._site_memo


# ----------------------------------------------------------------------
# partition tolerance: degraded resolve, hinted handoff, reconciliation
# ----------------------------------------------------------------------

def node(a):
    """Node id make_router-style registration gives author ``a``."""
    return NodeId(f"node-{a}")


def partition_rig(*, handoff_limit=256, capacities=None):
    """A two-site router plus a NetworkModel reachability oracle.

    Two tight 3-cliques ({a, b, c} and {x, y, z}) joined by one weak
    bridge land on distinct sites at ``n_shards=2``; every author has a
    ``node-<author>`` repository registered both with the router and the
    network. ``capacities`` overrides per-author repository capacity.
    """
    g = graph_of(
        pub("p1", 2009, "a", "b", "c"),
        pub("p2", 2010, "a", "b", "c"),
        pub("q1", 2009, "x", "y", "z"),
        pub("q2", 2010, "x", "y", "z"),
        pub("w", 2011, "c", "x"),
    )
    router = ShardedAllocationRouter(
        g,
        RandomPlacement(),
        n_shards=2,
        seed=0,
        registry=Registry(),
        handoff_limit=handoff_limit,
    )
    caps = capacities or {}
    net = NetworkModel()
    for a in "abcxyz":
        router.register_repository(
            AuthorId(a), StorageRepository(node(a), caps.get(a, 10_000))
        )
        net.add_node(node(a), GeoPoint(0.0, 0.0))
    router.set_reachability_oracle(net)
    # every test below depends on the cliques owning different sites
    assert router.syscat.site_of_author(AuthorId("a")) != router.syscat.site_of_author(
        AuthorId("x")
    )
    return router, net


class TestReachabilityOracle:
    def test_oracle_without_partitioned_rejected(self):
        """Discovery reads ``partitioned`` directly, so an oracle that
        only answers ``reachable`` is refused at install time."""

        class ReachableOnly:
            def reachable(self, a, b):
                return True

        g = graph_of(pub("p", 2009, "a", "b"))
        for tier in (make_server(g, ["a", "b"]), make_router(g, ["a", "b"])):
            with pytest.raises(ConfigurationError, match="partitioned"):
                tier.set_reachability_oracle(ReachableOnly())
            assert tier.fabric.reachability is None
            tier.set_reachability_oracle(NetworkModel())  # the real model passes


def split_cliques(net):
    """Partition the rig's network clique-vs-clique."""
    net.partition([[node(a) for a in "abc"], [node(a) for a in "xyz"]])


def degraded_count(router):
    return router.obs.snapshot()["counters"]["alloc.resolve.degraded"]["value"]


class TestDegradedResolve:
    """Resolution keeps serving across a partition, flagged degraded."""

    def _published(self):
        """A dataset owned by x with a replica on every node."""
        router, net = partition_rig()
        ds = segment_dataset(DatasetId("shared"), AuthorId("x"), 100)
        router.publish_dataset(ds, n_replicas=6)
        return router, net, ds.segments[0].segment_id

    def test_whole_network_is_never_degraded(self):
        router, _, seg = self._published()
        res = router.resolve(seg, AuthorId("a"))
        assert not res.degraded
        assert degraded_count(router) == 0

    def test_partitioned_resolve_serves_degraded_from_own_side(self):
        router, net, seg = self._published()
        split_cliques(net)
        res = router.resolve(seg, AuthorId("a"))
        assert res.degraded
        assert res.replica.node_id in {node(c) for c in "abc"}
        assert degraded_count(router) == 1

    def test_degraded_resolve_is_owning_shard_head(self):
        router, net, seg = self._published()
        split_cliques(net)
        requesters = [AuthorId(a) for a in "abcxyz"]
        for requester in requesters:
            full = router.resolve_candidates(seg, requester)
            for k in (1, 2):
                assert router.resolve_candidates(seg, requester, limit=k) == full[:k]
            head = replace(
                AllocationServer.resolve_candidates(router, seg, requester)[0],
                degraded=requester in requesters[:3],
            )
            assert full[0] == head
            assert router.resolve(seg, requester, record=False) == head
        assert degraded_count(router) == 3

    def test_same_side_as_owner_stays_authoritative(self):
        router, net, seg = self._published()
        split_cliques(net)
        res = router.resolve(seg, AuthorId("y"))
        assert not res.degraded
        assert degraded_count(router) == 0

    def test_candidates_flagged_and_filtered_to_reachable_side(self):
        router, net, seg = self._published()
        split_cliques(net)
        candidates = router.resolve_candidates(seg, AuthorId("b"))
        assert candidates
        assert all(c.degraded for c in candidates)
        assert {c.replica.node_id for c in candidates} <= {node(c) for c in "abc"}

    def test_no_reachable_replica_raises_and_heals(self):
        """With every replica across the cut the degraded resolve fails —
        and recovers the moment the network heals."""
        router, net = partition_rig(capacities={"a": 10, "b": 10, "c": 10})
        ds = segment_dataset(DatasetId("far"), AuthorId("x"), 100)
        router.publish_dataset(ds, n_replicas=3)  # only x/y/z have room
        seg = ds.segments[0].segment_id
        split_cliques(net)
        with pytest.raises(CatalogError):
            router.resolve(seg, AuthorId("a"))
        net.heal()
        assert not router.resolve(seg, AuthorId("a")).degraded


class TestHintedHandoff:
    """Writes bound for a partitioned-away site queue instead of failing."""

    def _cut_off_coordinator(self, net):
        """Sever node-x (the x-site coordinator) from everyone else, so
        y's own writes to its site degrade."""
        net.partition([[node("x")]])

    def test_publish_queues_under_degraded_owner(self):
        router, net = partition_rig()
        self._cut_off_coordinator(net)
        ds = segment_dataset(DatasetId("queued"), AuthorId("y"), 100)
        assert router.publish_dataset(ds, n_replicas=2) == []
        assert DatasetId("queued") not in router.catalog
        assert not router.syscat.has_dataset(DatasetId("queued"))
        assert [h[0] for h in router.pending_handoff()] == ["publish"]
        snap = router.obs.snapshot()["counters"]
        assert snap["alloc.handoff.queued"]["value"] == 1

    def test_handoff_log_is_bounded(self):
        router, net = partition_rig(handoff_limit=2)
        self._cut_off_coordinator(net)
        for i in range(2):
            ds = segment_dataset(DatasetId(f"q{i}"), AuthorId("y"), 100)
            router.publish_dataset(ds, n_replicas=2)
        overflow = segment_dataset(DatasetId("q2"), AuthorId("y"), 100)
        with pytest.raises(CatalogError, match="full"):
            router.publish_dataset(overflow, n_replicas=2)
        assert len(router.pending_handoff()) == 2
        snap = router.obs.snapshot()["counters"]
        assert snap["alloc.handoff.dropped"]["value"] == 1

    def test_reconcile_replays_queued_publish_after_heal(self):
        router, net = partition_rig()
        self._cut_off_coordinator(net)
        ds = segment_dataset(DatasetId("late"), AuthorId("y"), 100)
        router.publish_dataset(ds, n_replicas=2)
        net.heal()
        report = router.reconcile_after_heal(at=10.0)
        assert report.replayed_publishes == 1
        assert report.remaining == 0
        assert router.pending_handoff() == []
        assert DatasetId("late") in router.catalog
        seg = ds.segments[0].segment_id
        assert len(router.catalog.replicas_of_segment(seg, servable_only=True)) == 2
        snap = router.obs.snapshot()["counters"]
        assert snap["alloc.handoff.replayed"]["value"] == 1
        assert snap["alloc.reconcile.runs"]["value"] == 1

    def test_reconcile_mid_partition_requeues(self):
        """A sweep while the cut is still open must not lose hints."""
        router, net = partition_rig()
        self._cut_off_coordinator(net)
        ds = segment_dataset(DatasetId("stuck"), AuthorId("y"), 100)
        router.publish_dataset(ds, n_replicas=2)
        report = router.reconcile_after_heal(at=5.0)
        assert report.replayed_publishes == 0
        assert report.remaining == 1
        assert DatasetId("stuck") not in router.catalog
        net.heal()
        report = router.reconcile_after_heal(at=10.0)
        assert report.replayed_publishes == 1
        assert DatasetId("stuck") in router.catalog

    def test_partitioned_publish_queues_and_replays(self):
        router, net = partition_rig()
        self._cut_off_coordinator(net)
        ds = segment_dataset(DatasetId("part"), AuthorId("y"), 100, n_segments=2)
        queued = router.publish_dataset_partitioned(
            ds, assignment_to(ds, "z"), extra_replicas=1
        )
        assert queued == []
        assert DatasetId("part") not in router.catalog
        assert [h[0] for h in router.pending_handoff()] == ["publish_partitioned"]
        net.heal()
        report = router.reconcile_after_heal(at=10.0)
        assert report.replayed_publishes == 1
        assert router.pending_handoff() == []
        for seg in ds.segments:
            live = router.catalog.replicas_of_segment(
                seg.segment_id, servable_only=True
            )
            assert len(live) == 2
            assert node("z") in {r.node_id for r in live}

    def test_repair_hints_queue_and_dedupe_across_the_cut(self):
        """Repair never copies across a severed link: segments owned by an
        unreachable site queue one hint each, replayed by reconcile."""
        router, net = partition_rig()
        away = next(
            a for a in "ax" if router.syscat.site_of_author(AuthorId(a)) != 0
        )
        clique = "abc" if away == "a" else "xyz"
        ds = segment_dataset(DatasetId("hurt"), AuthorId(away), 100)
        router.publish_dataset(ds, n_replicas=3)
        seg = ds.segments[0].segment_id
        victim = sorted(
            router.catalog.nodes_hosting(seg), key=str
        )[0]
        router.node_offline(victim, at=1.0)
        assert router.under_replicated()
        net.partition(
            [
                [node(a) for a in "abc" if a not in clique]
                + [node(a) for a in "xyz" if a not in clique],
                [node(a) for a in clique],
            ]
        )
        assert router.repair(at=2.0) == []
        assert [h for h in router.pending_handoff()] == [("repair", seg)]
        router.repair(at=3.0)  # deduplicated: still one hint
        assert len(router.pending_handoff()) == 1
        net.heal()
        report = router.reconcile_after_heal(at=4.0)
        assert report.replayed_repairs == 1
        assert report.repaired >= 1
        assert router.under_replicated() == []
        assert router.pending_handoff() == []


class TestInjectorRouterWiring:
    """FailureInjector.attach_server drives a ShardedAllocationRouter
    exactly like a single server (regression for the widened surface)."""

    def _wired(self):
        router, net = partition_rig()
        engine = SimulationEngine(registry=router.obs)
        injector = FailureInjector(engine, [node(a) for a in "abcxyz"], seed=0)
        injector.attach_server(router)
        ds = segment_dataset(DatasetId("wired"), AuthorId("x"), 100)
        router.publish_dataset(ds, n_replicas=3)
        seg = ds.segments[0].segment_id
        return router, net, engine, injector, seg

    def test_crash_migrates_replicas_through_router(self):
        router, _, engine, injector, seg = self._wired()
        victim = sorted(router.catalog.nodes_hosting(seg), key=str)[0]
        injector.crash(victim, at=1.0)
        engine.run()
        assert not router.is_online(victim)
        live = {
            r.node_id
            for r in router.catalog.replicas_of_segment(seg, servable_only=True)
        }
        assert victim not in live
        assert len(live) == 3  # budget restored elsewhere

    def test_outage_toggles_offline_online_through_router(self):
        router, _, engine, injector, seg = self._wired()
        victim = sorted(router.catalog.nodes_hosting(seg), key=str)[0]
        injector.outage(victim, start=1.0, duration=5.0)
        engine.run(until=2.0)
        assert not router.is_online(victim)
        engine.run()
        assert router.is_online(victim)

    def test_heal_reconciles_queued_publish_through_injector(self):
        """An injector-scheduled partition drains the handoff log on heal
        without anyone calling reconcile_after_heal by hand."""
        router, net, engine, injector, _ = self._wired()
        injector.network_partition(
            net, [[node("x")], [node(a) for a in "abcyz"]], start=1.0, duration=5.0
        )

        def publish_mid_partition(e):
            ds = segment_dataset(DatasetId("mid"), AuthorId("y"), 100)
            assert router.publish_dataset(ds, n_replicas=2, at=e.now) == []

        engine.schedule(2.0, publish_mid_partition, label="mid-publish")
        engine.run()
        assert not net.partitioned
        assert DatasetId("mid") in router.catalog
        assert router.pending_handoff() == []
        snap = router.obs.snapshot()["counters"]
        assert snap["alloc.handoff.replayed"]["value"] == 1
