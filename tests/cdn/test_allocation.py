"""Unit tests for repro.cdn.allocation (the allocation server)."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ConfigurationError, PlacementError
from repro.ids import AuthorId, DatasetId, NodeId, SegmentId
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus
from repro.cdn.allocation import AllocationServer, ReconcileReport
from repro.cdn.content import ReplicaState, segment_dataset
from repro.cdn.placement import NodeDegreePlacement, RandomPlacement
from repro.cdn.storage import StorageRepository

from ..conftest import pub


@pytest.fixture
def line_graph():
    """a - b - c - d - e (b..d increasing connectivity in the middle)."""
    pubs = [
        pub("p1", 2009, "a", "b"),
        pub("p2", 2009, "b", "c"),
        pub("p3", 2009, "c", "d"),
        pub("p4", 2009, "d", "e"),
    ]
    return build_coauthorship_graph(Corpus(pubs))


def make_server(graph, authors=None, capacity=10_000, placement=None, seed=0):
    server = AllocationServer(graph, placement or RandomPlacement(), seed=seed)
    for a in authors or graph.nodes():
        server.register_repository(AuthorId(a), StorageRepository(NodeId(f"node-{a}"), capacity))
    return server


class TestRegistration:
    def test_register_and_lookup(self, line_graph):
        server = make_server(line_graph, authors=["a", "b"])
        assert server.n_nodes == 2
        assert server.node_of(AuthorId("a")) == "node-a"
        assert server.author_of(NodeId("node-a")) == "a"
        assert set(server.registered_authors()) == {"a", "b"}

    def test_non_member_rejected(self, line_graph):
        server = AllocationServer(line_graph, RandomPlacement())
        with pytest.raises(ConfigurationError, match="trusted"):
            server.register_repository(
                AuthorId("stranger"), StorageRepository(NodeId("n"), 100)
            )

    def test_double_contribution_rejected(self, line_graph):
        server = make_server(line_graph, authors=["a"])
        with pytest.raises(ConfigurationError):
            server.register_repository(
                AuthorId("a"), StorageRepository(NodeId("other"), 100)
            )

    def test_unknown_lookups_raise(self, line_graph):
        server = make_server(line_graph, authors=["a"])
        with pytest.raises(ConfigurationError):
            server.node_of(AuthorId("zzz"))
        with pytest.raises(ConfigurationError):
            server.repository(NodeId("zzz"))


class TestPublish:
    def test_places_requested_replicas(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 1000, n_segments=2)
        replicas = server.publish_dataset(ds, n_replicas=3)
        # 2 segments x 3 replicas
        assert len(replicas) == 6
        for seg in ds.segments:
            assert server.catalog.redundancy(seg.segment_id) == 3

    def test_replicas_are_active_and_stored(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        (replica, *rest) = server.publish_dataset(ds, n_replicas=1)
        assert replica.state is ReplicaState.ACTIVE
        assert server.repository(replica.node_id).hosts_segment(ds.segments[0].segment_id)

    def test_budget_capped_by_hosts(self, line_graph):
        server = make_server(line_graph, authors=["a", "b"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=10)
        assert len(replicas) == 2

    def test_capacity_skips_full_hosts(self, line_graph):
        server = AllocationServer(line_graph, NodeDegreePlacement(), seed=0)
        # two tiny repos, one big one
        server.register_repository(AuthorId("b"), StorageRepository(NodeId("n-b"), 10))
        server.register_repository(AuthorId("c"), StorageRepository(NodeId("n-c"), 10))
        server.register_repository(AuthorId("d"), StorageRepository(NodeId("n-d"), 10_000))
        ds = segment_dataset(DatasetId("d"), AuthorId("b"), 1000)
        replicas = server.publish_dataset(ds, n_replicas=1)
        assert replicas[0].node_id == "n-d"

    def test_no_capacity_anywhere_raises(self, line_graph):
        server = make_server(line_graph, capacity=10)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 1000)
        with pytest.raises(PlacementError, match="no registered host"):
            server.publish_dataset(ds, n_replicas=1)

    def test_no_online_hosts_raises(self, line_graph):
        server = make_server(line_graph, authors=["a"])
        server.node_offline(NodeId("node-a"))
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        with pytest.raises(PlacementError, match="no online"):
            server.publish_dataset(ds)


class TestResolve:
    def test_prefers_socially_closest(self, line_graph):
        server = make_server(line_graph, placement=RandomPlacement())
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.catalog.register_dataset(ds)
        server._dataset_budget[ds.dataset_id] = 2
        seg = ds.segments[0].segment_id
        # replicas at a and e; requester c is 2 hops from both -> tie;
        # requester b is 1 hop from a
        server.repository(NodeId("node-a")).store_replica(seg, 100)
        server.catalog.create_replica(seg, NodeId("node-a"), state=ReplicaState.ACTIVE)
        server.repository(NodeId("node-e")).store_replica(seg, 100)
        server.catalog.create_replica(seg, NodeId("node-e"), state=ReplicaState.ACTIVE)
        resolved = server.resolve(seg, AuthorId("b"))
        assert resolved.replica.node_id == "node-a"
        assert resolved.social_hops == 1

    def test_offline_replicas_skipped(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        first = server.resolve(seg, AuthorId("a")).replica
        server.node_offline(first.node_id)
        second = server.resolve(seg, AuthorId("a")).replica
        assert second.node_id != first.node_id

    def test_no_replica_raises(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.catalog.register_dataset(ds)
        with pytest.raises(CatalogError):
            server.resolve(ds.segments[0].segment_id, AuthorId("a"))

    def test_access_recorded(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        seg = ds.segments[0].segment_id
        resolved = server.resolve(seg, AuthorId("a"))
        assert resolved.replica.access_count == 1

    def test_requester_outside_graph_still_served(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        resolved = server.resolve(ds.segments[0].segment_id, AuthorId("stranger"))
        assert resolved.social_hops is None


class TestLiveness:
    def test_offline_marks_replicas_stale(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        (replica,) = server.publish_dataset(ds, n_replicas=1)
        n = server.node_offline(replica.node_id)
        assert n == 1
        assert replica.state is ReplicaState.STALE

    def test_online_reactivates(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        (replica,) = server.publish_dataset(ds, n_replicas=1)
        server.node_offline(replica.node_id)
        n = server.node_online(replica.node_id)
        assert n == 1
        assert replica.servable

    def test_is_online(self, line_graph):
        server = make_server(line_graph, authors=["a"])
        assert server.is_online(NodeId("node-a"))
        server.node_offline(NodeId("node-a"))
        assert not server.is_online(NodeId("node-a"))


class TestRepair:
    def test_under_replicated_detects_offline(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=2)
        server.node_offline(replicas[0].node_id)
        under = server.under_replicated()
        assert under == [(ds.segments[0].segment_id, 1)]

    def test_repair_restores_budget(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=2)
        server.node_offline(replicas[0].node_id)
        created = server.repair()
        assert len(created) == 1
        assert server.under_replicated() == []

    def test_repair_skips_lost_segments(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=1)
        server.node_offline(replicas[0].node_id)
        assert server.repair() == []  # no live source
        assert server.under_replicated() == [(ds.segments[0].segment_id, 0)]

    def test_migrate_node_moves_replicas(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        replicas = server.publish_dataset(ds, n_replicas=2)
        victim = replicas[0].node_id
        created = server.migrate_node(victim)
        assert len(created) == 1
        assert replicas[0].state is ReplicaState.RETIRED
        assert not server.repository(victim).hosts_segment(ds.segments[0].segment_id)
        assert server.under_replicated() == []


class TestDemand:
    def test_hot_segments_ranked(self, line_graph):
        server = make_server(line_graph)
        d1 = segment_dataset(DatasetId("d1"), AuthorId("a"), 100)
        d2 = segment_dataset(DatasetId("d2"), AuthorId("a"), 100)
        server.publish_dataset(d1, n_replicas=1)
        server.publish_dataset(d2, n_replicas=1)
        for _ in range(5):
            server.resolve(d1.segments[0].segment_id, AuthorId("a"))
        server.resolve(d2.segments[0].segment_id, AuthorId("a"))
        hot = server.hot_segments(threshold=2)
        assert hot == [(d1.segments[0].segment_id, 5)]

    def test_scale_hot_adds_replicas(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        seg = ds.segments[0].segment_id
        for _ in range(10):
            server.resolve(seg, AuthorId("a"))
        created = server.scale_hot(threshold=5, extra=2)
        assert len(created) == 2
        assert server.catalog.redundancy(seg) == 3

    def test_scale_hot_noop_below_threshold(self, line_graph):
        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        assert server.scale_hot(threshold=5) == []

    def test_scale_hot_invalid_extra(self, line_graph):
        server = make_server(line_graph)
        with pytest.raises(ConfigurationError):
            server.scale_hot(threshold=1, extra=0)


class TestPartitionedPublish:
    def _partitioned_setup(self, line_graph):
        from repro.cdn.partitioning import SocialPartitioner

        server = make_server(line_graph)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 400, n_segments=4)
        partitioner = SocialPartitioner(line_graph, seed=0)
        accesses = [
            (AuthorId("a"), ds.segments[0].segment_id),
            (AuthorId("b"), ds.segments[0].segment_id),
            (AuthorId("e"), ds.segments[1].segment_id),
        ]
        assignment = partitioner.partition(
            [s.segment_id for s in ds.segments], accesses
        )
        return server, ds, assignment

    def test_segments_land_on_community_hosts(self, line_graph):
        server, ds, assignment = self._partitioned_setup(line_graph)
        replicas = server.publish_dataset_partitioned(ds, assignment)
        by_segment = {}
        for r in replicas:
            by_segment.setdefault(r.segment_id, []).append(r.node_id)
        for seg in ds.segments:
            seg_id = seg.segment_id
            host = assignment.host_of_segment[seg_id]
            assert server.node_of(host) in by_segment[seg_id]

    def test_extra_replicas_added(self, line_graph):
        server, ds, assignment = self._partitioned_setup(line_graph)
        server.publish_dataset_partitioned(ds, assignment, extra_replicas=1)
        for seg in ds.segments:
            assert server.catalog.redundancy(seg.segment_id) == 2

    def test_offline_community_host_falls_back(self, line_graph):
        server, ds, assignment = self._partitioned_setup(line_graph)
        victim_author = assignment.host_of_segment[ds.segments[0].segment_id]
        server.node_offline(server.node_of(victim_author))
        replicas = server.publish_dataset_partitioned(ds, assignment)
        for r in replicas:
            assert server.is_online(r.node_id)

    def test_no_capacity_raises(self, line_graph):
        from repro.cdn.partitioning import SocialPartitioner

        server = make_server(line_graph, capacity=10)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 4000, n_segments=4)
        assignment = SocialPartitioner(line_graph, seed=0).partition(
            [s.segment_id for s in ds.segments]
        )
        with pytest.raises(PlacementError):
            server.publish_dataset_partitioned(ds, assignment)
        # rollback: the failed publication leaves no catalog or storage trace
        assert "d" not in server.catalog
        for a in line_graph.nodes():
            assert server.repository(NodeId(f"node-{a}")).replica_used_bytes == 0


class TestPublicationRollback:
    def test_failed_publish_leaves_no_trace(self, line_graph):
        server = make_server(line_graph, capacity=10)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 1000)
        with pytest.raises(PlacementError):
            server.publish_dataset(ds, n_replicas=1)
        # dataset fully rolled back: can be republished after fixing capacity
        assert "d" not in server.catalog
        for a in line_graph.nodes():
            assert server.repository(NodeId(f"node-{a}")).replica_used_bytes == 0

    def test_partial_multisegment_failure_rolls_back_all(self, line_graph):
        # replica quota per node = 600: segment 0 (500) fits anywhere, but
        # segment 1 (700) fits nowhere -> the whole publication rolls back
        server = make_server(line_graph, capacity=1200)
        from repro.cdn.content import DataSegment, Dataset

        ds = Dataset(
            dataset_id=DatasetId("mix"),
            owner=AuthorId("a"),
            size_bytes=1200,
            segments=(
                DataSegment(SegmentId("mix:seg0"), DatasetId("mix"), 0, 500),
                DataSegment(SegmentId("mix:seg1"), DatasetId("mix"), 1, 700),
            ),
        )
        with pytest.raises(PlacementError):
            server.publish_dataset(ds, n_replicas=1)
        assert "mix" not in server.catalog
        used = sum(
            server.repository(NodeId(f"node-{a}")).replica_used_bytes
            for a in line_graph.nodes()
        )
        assert used == 0  # segment 0's placement was rolled back too


class TestControlPlane:
    def test_flat_server_has_nothing_to_hand_off(self, line_graph):
        """The router's control-plane methods exist on one server too, so
        callers need no probe: an empty handoff log and a no-op post-heal
        sweep that reports all zeros and leaves the catalog alone."""
        server = make_server(line_graph)
        server.publish_dataset(
            segment_dataset(DatasetId("d"), AuthorId("a"), 1000), n_replicas=2
        )
        before = sorted(r.replica_id for r in server.catalog.iter_replicas())
        assert server.pending_handoff() == []
        assert server.reconcile_after_heal(at=5.0) == ReconcileReport(
            replayed_publishes=0, replayed_repairs=0, repaired=0, remaining=0
        )
        assert sorted(r.replica_id for r in server.catalog.iter_replicas()) == before
