"""Regression tests for the allocation-server bugfix round.

One test class per fixed bug:

* hop-cache invalidation (membership changes and graph swaps used to serve
  stale distances forever);
* offline/online ``at:`` timestamps (used to be silently dropped, making
  per-node downtime impossible to integrate into availability);
* explicit replica budgets (``under_replicated`` used to fall back to a
  silent budget of 1);
* ``resolve`` load hoisting (``repo.stats()`` used to run for every replica
  on every comparison) and stable hops -> load -> node-id tie-breaking;
* publication rollback residue and offline -> online replica reactivation.
"""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ConfigurationError, PlacementError
from repro.ids import AuthorId, DatasetId, NodeId
from repro.metrics import node_availability, server_availability
from repro.obs import Registry
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus
from repro.cdn.allocation import AllocationServer
from repro.cdn.content import ReplicaState, segment_dataset
from repro.cdn.placement import RandomPlacement
from repro.cdn.storage import StorageRepository

from ..conftest import pub


def graph_of(*pubs_):
    return build_coauthorship_graph(Corpus(list(pubs_)))


def make_server(graph, authors, capacity=10_000, seed=0, registry=None):
    server = AllocationServer(
        graph, RandomPlacement(), seed=seed, registry=registry or Registry()
    )
    for a in authors:
        server.register_repository(
            AuthorId(a), StorageRepository(NodeId(f"node-{a}"), capacity)
        )
    return server


class TestHopCacheInvalidation:
    def test_graph_swap_invalidates_outside_requester(self):
        """A requester outside the graph must not stay cached as unreachable
        after the trusted graph grows to include them."""
        small = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(small, ["a", "b"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id

        resolved = server.resolve(seg, AuthorId("c"))
        assert resolved.social_hops is None  # c unknown to the small graph

        server.graph = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        resolved = server.resolve(seg, AuthorId("c"))
        assert resolved.social_hops == 1  # c - b is now one hop

    def test_register_repository_invalidates(self):
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        reg = Registry()
        server = make_server(g, ["a", "b"], registry=reg)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        server.resolve(seg, AuthorId("c"))  # populate the holders' rows
        holders = [AuthorId("a"), AuthorId("b")]
        assert all(server.hop_index.is_cached(h) for h in holders)
        # rows are keyed by replica holder, never by requester
        assert not server.hop_index.is_cached(AuthorId("c"))
        before = reg.counter("alloc.hop_index.partial_invalidations").value
        server.register_repository(
            AuthorId("c"), StorageRepository(NodeId("node-c"), 10_000)
        )
        # c is connected to both cached holders, so both rows are dropped —
        # selectively, not via a full flush
        assert not any(server.hop_index.is_cached(h) for h in holders)
        assert reg.counter("alloc.hop_index.partial_invalidations").value == before + 2
        assert reg.counter("alloc.hop_cache.invalidations").value == 0

    def test_register_disconnected_keeps_cached_sources(self):
        """Registering a node with no social path to any cached holder must
        keep their rows (the over-invalidation regression)."""
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "x", "y"))
        reg = Registry()
        server = make_server(g, ["a", "b"], registry=reg)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        server.resolve(seg, AuthorId("a"))  # cache holder rows a and b
        holders = [AuthorId("a"), AuthorId("b")]
        assert all(server.hop_index.is_cached(h) for h in holders)
        server.register_repository(
            AuthorId("x"), StorageRepository(NodeId("node-x"), 10_000)
        )
        # x lives in the {x, y} island: the holders' rows are untouched
        assert all(server.hop_index.is_cached(h) for h in holders)
        assert reg.counter("alloc.hop_index.partial_invalidations").value == 0
        server.resolve(seg, AuthorId("a"))
        assert reg.counter("alloc.hop_cache.hits").value == 2  # both rows

    def test_hit_miss_counters(self):
        """The counters count holder-row lookups: the first resolve builds
        one row per holder, after which every requester hits."""
        g = graph_of(pub("p1", 2009, "a", "b"))
        reg = Registry()
        server = make_server(g, ["a", "b"], registry=reg)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        server.resolve(seg, AuthorId("a"))
        server.resolve(seg, AuthorId("a"))
        server.resolve(seg, AuthorId("b"))  # a new requester, warm rows
        assert reg.counter("alloc.hop_cache.misses").value == 2  # rows a and b
        assert reg.counter("alloc.hop_cache.hits").value == 4
        # a requester outside the graph looks up no rows
        server.resolve(seg, AuthorId("ghost"))
        assert reg.counter("alloc.hop_cache.hits").value == 4
        assert reg.counter("alloc.hop_cache.misses").value == 2


class TestStateTransitionTimestamps:
    def test_transitions_recorded_with_at(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        node = NodeId("node-a")
        server.node_offline(node, at=10.0)
        server.node_online(node, at=30.0)
        assert server.state_transitions(node) == [(10.0, "offline"), (30.0, "online")]

    def test_duplicate_transitions_are_noops(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        node = NodeId("node-a")
        assert server.node_online(node, at=1.0) == 0  # already online
        server.node_offline(node, at=10.0)
        assert server.node_offline(node, at=20.0) == 0  # already offline
        assert server.state_transitions(node) == [(10.0, "offline")]

    def test_downtime_integrates_into_availability(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        node = NodeId("node-a")
        server.node_offline(node, at=10.0)
        server.node_online(node, at=30.0)
        # down 20s of 40s -> 50% for node-a; node-b always up -> mean 75%
        assert node_availability(server.state_transitions(node), 40.0) == 0.5
        assert server_availability(server, 40.0) == pytest.approx(0.75)

    def test_migrate_records_departure_time(self):
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b", "c"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        victim = server.catalog.nodes_hosting(ds.segments[0].segment_id).pop()
        server.migrate_node(victim, at=55.0)
        assert server.state_transitions(victim) == [(55.0, "offline")]
        # departure is terminal downtime for the availability metric
        assert node_availability(server.state_transitions(victim), 110.0) == 0.5

    def test_availability_log_covers_all_nodes(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        server.node_offline(NodeId("node-a"), at=5.0)
        log = server.availability_log()
        assert set(log) == {NodeId("node-a"), NodeId("node-b")}
        assert log[NodeId("node-b")] == []

    def test_unknown_node_rejected(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a"])
        with pytest.raises(ConfigurationError):
            server.state_transitions(NodeId("nope"))


def assignment_to(ds, author):
    """A PartitionAssignment suggesting one host for every segment."""
    from repro.cdn.partitioning import PartitionAssignment

    return PartitionAssignment(
        community_of_segment={s.segment_id: 0 for s in ds.segments},
        host_of_segment={s.segment_id: AuthorId(author) for s in ds.segments},
        communities=[{AuthorId(author)}],
    )


class TestExplicitBudgets:
    def test_partitioned_publish_records_budget(self):
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b", "c"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100, n_segments=2)
        server.publish_dataset_partitioned(ds, assignment_to(ds, "a"), extra_replicas=1)
        assert server.replica_budget(ds.dataset_id) == 2
        assert server.under_replicated() == []

    def test_backdoor_dataset_backfilled_loudly(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        reg = Registry()
        server = make_server(g, ["a", "b"], registry=reg)
        ds = segment_dataset(DatasetId("ghost"), AuthorId("a"), 100)
        server.catalog.register_dataset(ds)  # behind the server's back
        assert reg.counter("alloc.budget.backfilled").value == 0
        under = server.under_replicated()
        assert (ds.segments[0].segment_id, 0) in under
        assert reg.counter("alloc.budget.backfilled").value == 1
        # backfill is sticky: no double counting
        server.under_replicated()
        assert reg.counter("alloc.budget.backfilled").value == 1

    def test_set_replica_budget(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        server.set_replica_budget(ds.dataset_id, 2)
        assert server.replica_budget(ds.dataset_id) == 2
        with pytest.raises(ConfigurationError):
            server.set_replica_budget(ds.dataset_id, 0)
        with pytest.raises(CatalogError):
            server.set_replica_budget(DatasetId("nope"), 1)

    def test_unknown_dataset_budget_raises(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        with pytest.raises(CatalogError):
            server.replica_budget(DatasetId("nope"))

    def test_starved_repair_is_counted(self):
        """extra_replicas beyond what hosts can hold must be visible."""
        g = graph_of(pub("p1", 2009, "a", "b"))
        reg = Registry()
        server = make_server(g, ["a", "b"], registry=reg)
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        # budget 3 but only 2 hosts exist: the deficit must surface
        server.publish_dataset_partitioned(ds, assignment_to(ds, "a"), extra_replicas=2)
        assert reg.counter("alloc.repair.starved").value >= 1
        assert server.under_replicated() == [(ds.segments[0].segment_id, 2)]
        deficits = reg.traces.events(kind="publish_deficit")
        assert len(deficits) == 1
        assert deficits[0].fields["live"] == 2


class TestResolveTieBreaking:
    def _two_host_server(self):
        # b and d are both exactly one hop from requester c
        g = graph_of(pub("p1", 2009, "c", "b"), pub("p2", 2009, "c", "d"))
        server = make_server(g, ["b", "d"])
        ds = segment_dataset(DatasetId("d"), AuthorId("b"), 100)
        server.publish_dataset(ds, n_replicas=2)
        return server, ds.segments[0].segment_id

    def test_stats_not_called_during_resolve(self, monkeypatch):
        """The load lookup must be hoisted: building a full RepositoryStats
        per comparison was the hot-path bug."""
        server, seg = self._two_host_server()
        calls = []
        monkeypatch.setattr(
            StorageRepository,
            "stats",
            lambda self: calls.append(1) or pytest.fail("stats() in resolve"),
        )
        server.resolve(seg, AuthorId("c"))
        assert calls == []

    def test_tie_break_hops_then_load_then_node_id(self):
        server, seg = self._two_host_server()
        picks = [server.resolve(seg, AuthorId("c")).replica.node_id for _ in range(4)]
        # equal hops, equal load -> lowest node id (node-b); its load rises,
        # so the next pick alternates to node-d, and so on deterministically
        assert picks == [
            NodeId("node-b"), NodeId("node-d"), NodeId("node-b"), NodeId("node-d"),
        ]

    def test_closer_replica_beats_lower_load(self):
        # a - b - c chain: replica on node-a (2 hops from c) and node-b (1 hop)
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        # heavily load node-b: proximity must still win over load
        for _ in range(5):
            server.repository(NodeId("node-b")).read_segment(seg)
        assert server.resolve(seg, AuthorId("c")).replica.node_id == NodeId("node-b")


class TestRollbackAndReactivation:
    def test_rollback_leaves_no_residue(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        reg = Registry()
        # one 1000B host: segment 0 (900B) fits, segment 1 (900B) cannot
        server = AllocationServer(g, RandomPlacement(), seed=0, registry=reg)
        server.register_repository(AuthorId("a"), StorageRepository(NodeId("node-a"), 1000))
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 1800, n_segments=2)

        with pytest.raises(PlacementError):
            server.publish_dataset(ds, n_replicas=1)

        # catalog: dataset gone
        with pytest.raises(CatalogError):
            server.catalog.dataset(ds.dataset_id)
        # budget: gone (lookup now raises, not silently 1)
        with pytest.raises(CatalogError):
            server.replica_budget(ds.dataset_id)
        # storage: every byte freed
        repo = server.repository(NodeId("node-a"))
        assert repo.replica_used_bytes == 0
        assert repo.hosted_segments() == set()
        # no stray replicas and the rollback was observed
        assert list(server.catalog.iter_replicas()) == []
        assert reg.counter("alloc.publish.rollbacks").value == 1
        assert server.under_replicated() == []

    def test_offline_online_reactivates_intact_replicas(self):
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b", "c"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=3)
        seg = ds.segments[0].segment_id
        node = NodeId("node-a")

        stale = server.node_offline(node, at=1.0)
        assert stale == 1
        states = {r.state for r in server.catalog.replicas_on_node(node)}
        assert states == {ReplicaState.STALE}

        reactivated = server.node_online(node, at=2.0)
        assert reactivated == 1
        states = {r.state for r in server.catalog.replicas_on_node(node)}
        assert states == {ReplicaState.ACTIVE}
        # the reactivated replica is servable again
        assert server.catalog.redundancy(seg) == 3

    def test_online_with_lost_data_does_not_reactivate(self):
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b", "c"])
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=3)
        seg = ds.segments[0].segment_id
        node = NodeId("node-a")
        server.node_offline(node, at=1.0)
        server.repository(node).evict_replica(seg)  # disk wiped while down
        assert server.node_online(node, at=2.0) == 0
        states = {r.state for r in server.catalog.replicas_on_node(node)}
        assert states == {ReplicaState.STALE}
        assert server.catalog.redundancy(seg) == 2
