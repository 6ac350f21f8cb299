"""End-to-end data integrity: digests, bit rot, quarantine, scrubbing.

Covers the content-digest data model, storage-level corruption and
verification, catalog quarantine semantics, the :class:`IntegrityScrubber`
audit/repair loop, byte-accounting conservation through the
corrupt → quarantine → repair cycle, and the property-based invariants of
the catalog under randomized corruption (unique replica ids, at most one
replica per segment per node, quarantined replicas never resolvable).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CatalogError, ConfigurationError, StorageError
from repro.ids import AuthorId, DatasetId, NodeId, SegmentId
from repro.obs import Registry
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus
from repro.cdn.allocation import AllocationServer
from repro.cdn.catalog import ReplicaCatalog
from repro.cdn.content import (
    DataSegment,
    ReplicaState,
    content_digest,
    segment_dataset,
)
from repro.cdn.integrity import IntegrityScrubber, ScrubReport
from repro.cdn.placement import RandomPlacement
from repro.cdn.replication import ReplicationPolicy
from repro.cdn.storage import StorageRepository
from repro.sim.engine import SimulationEngine

from ..conftest import pub

AUTHORS = ("alice", "bob", "carol", "dave", "erin")


def community_graph():
    pubs = [
        pub("p1", 2009, "alice", "bob", "carol"),
        pub("p2", 2010, "carol", "dave", "erin"),
        pub("p3", 2010, "alice", "bob"),
        pub("p4", 2010, "dave", "erin"),
        pub("p5", 2011, "bob", "dave"),
    ]
    return build_coauthorship_graph(Corpus(pubs))


@pytest.fixture
def rig():
    """Server + policy + scrubber over five repos and one 3-replica dataset.

    Returns ``(registry, server, policy, scrubber, segment_id)``.
    """
    registry = Registry()
    server = AllocationServer(
        community_graph(), RandomPlacement(), seed=0, registry=registry
    )
    for a in AUTHORS:
        server.register_repository(AuthorId(a), StorageRepository(NodeId(a), 10_000))
    ds = segment_dataset(DatasetId("d"), AuthorId("alice"), 1000)
    server.publish_dataset(ds, n_replicas=3)
    policy = ReplicationPolicy(server, registry=registry)
    scrubber = IntegrityScrubber(server, policy=policy, registry=registry)
    return registry, server, policy, scrubber, ds.segments[0].segment_id


def corrupt_one(server, seg):
    """Rot the first (sorted) hosting node's copy; returns the node id."""
    node = sorted(server.catalog.nodes_hosting(seg))[0]
    server.repository(node).corrupt_replica(seg, at=5.0)
    return node


class TestContentDigests:
    def test_digest_backfilled_and_deterministic(self):
        seg = DataSegment(SegmentId("d:s0"), DatasetId("d"), 0, 500)
        assert seg.digest == content_digest(SegmentId("d:s0"), 500)
        assert seg.digest != content_digest(SegmentId("d:s0"), 501)

    def test_explicit_digest_preserved(self):
        seg = DataSegment(SegmentId("d:s0"), DatasetId("d"), 0, 500, digest="abc")
        assert seg.digest == "abc"

    def test_replica_inherits_segment_digest(self, rig):
        _, server, _, _, seg = rig
        for rep in server.catalog.replicas_of_segment(seg):
            assert rep.digest == server.catalog.segment(seg).digest


class TestStorageCorruption:
    def test_store_records_digest(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100, digest="good")
        assert repo.stored_digest(SegmentId("s")) == "good"
        assert repo.verify_replica(SegmentId("s"), "good")
        assert not repo.verify_replica(SegmentId("s"), "other")

    def test_corrupt_flips_digest_and_timestamps(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100, digest="good")
        repo.corrupt_replica(SegmentId("s"), at=42.0)
        assert repo.is_corrupted(SegmentId("s"))
        assert repo.corrupted_at(SegmentId("s")) == 42.0
        assert repo.stored_digest(SegmentId("s")) != "good"
        assert not repo.verify_replica(SegmentId("s"), "good")

    def test_double_corruption_keeps_first_timestamp(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100, digest="good")
        repo.corrupt_replica(SegmentId("s"), at=10.0)
        repo.corrupt_replica(SegmentId("s"), at=20.0)
        assert repo.corrupted_at(SegmentId("s")) == 10.0

    def test_empty_digest_verifies_trivially(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100)  # undigested legacy caller
        assert repo.verify_replica(SegmentId("s"), "anything")
        assert repo.verify_replica(SegmentId("s"), "")

    def test_evict_clears_corruption_bookkeeping(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100, digest="good")
        repo.corrupt_replica(SegmentId("s"), at=1.0)
        repo.evict_replica(SegmentId("s"))
        repo.store_replica(SegmentId("s"), 100, digest="good")
        assert not repo.is_corrupted(SegmentId("s"))
        assert repo.verify_replica(SegmentId("s"), "good")

    def test_corrupt_unhosted_raises(self):
        repo = StorageRepository(NodeId("n"), 1000)
        with pytest.raises(StorageError):
            repo.corrupt_replica(SegmentId("s"))
        with pytest.raises(StorageError):
            repo.stored_digest(SegmentId("s"))

    def test_corrupt_reads_counted(self):
        repo = StorageRepository(NodeId("n"), 1000)
        repo.store_replica(SegmentId("s"), 100, digest="good")
        repo.read_segment(SegmentId("s"))
        repo.corrupt_replica(SegmentId("s"), at=1.0)
        repo.read_segment(SegmentId("s"))
        repo.read_segment(SegmentId("s"))
        stats = repo.stats()
        assert repo.corrupt_reads_served == 2
        assert stats.corrupt_reads_served == 2
        assert stats.corrupt_replicas == 1


class TestCatalogQuarantine:
    def _catalog_with_replica(self):
        catalog = ReplicaCatalog()
        ds = segment_dataset(DatasetId("d"), AuthorId("o"), 100)
        catalog.register_dataset(ds)
        rep = catalog.create_replica(ds.segments[0].segment_id, NodeId("n"))
        return catalog, rep

    def test_quarantined_not_servable(self):
        catalog, rep = self._catalog_with_replica()
        catalog.quarantine(rep.replica_id)
        assert rep.state is ReplicaState.QUARANTINED
        assert catalog.replicas_of_segment(rep.segment_id, servable_only=True) == []
        assert catalog.quarantined_replicas() == [rep]

    def test_quarantined_cannot_reactivate(self):
        catalog, rep = self._catalog_with_replica()
        catalog.quarantine(rep.replica_id)
        with pytest.raises(CatalogError):
            catalog.activate(rep.replica_id)

    def test_quarantine_outranks_stale(self):
        catalog, rep = self._catalog_with_replica()
        catalog.quarantine(rep.replica_id)
        catalog.mark_stale(rep.replica_id)
        assert rep.state is ReplicaState.QUARANTINED

    def test_quarantined_blocks_same_node_placement(self):
        catalog, rep = self._catalog_with_replica()
        catalog.quarantine(rep.replica_id)
        with pytest.raises(CatalogError):
            catalog.create_replica(rep.segment_id, NodeId("n"))

    def test_retire_is_the_only_exit(self):
        catalog, rep = self._catalog_with_replica()
        catalog.quarantine(rep.replica_id)
        catalog.retire(rep.replica_id)
        assert rep.state is ReplicaState.RETIRED
        with pytest.raises(CatalogError):
            catalog.quarantine(rep.replica_id)


class TestScrubber:
    def test_clean_pass_finds_nothing(self, rig):
        _, _, _, scrubber, _ = rig
        report = scrubber.scrub(at=10.0)
        assert isinstance(report, ScrubReport)
        assert report.corrupt_found == 0
        assert report.replicas_checked == 3
        assert not report.repair_triggered
        assert scrubber.quarantine_log == []

    def test_detects_quarantines_and_repairs(self, rig):
        registry, server, _, scrubber, seg = rig
        node = corrupt_one(server, seg)
        report = scrubber.scrub(at=60.0)
        assert report.corrupt_found == 1
        assert report.quarantined == 1
        assert report.repair_triggered
        assert scrubber.quarantine_log == [(60.0, node, seg)]
        # rotted bytes evicted, replica out of every servable lookup
        assert not server.repository(node).hosts_segment(seg)
        assert node not in server.catalog.nodes_hosting(seg)
        # the synchronous repair audit restored the budget on clean nodes
        assert server.catalog.redundancy(seg) == 3
        assert scrubber.corrupt_servable() == []
        snap = registry.snapshot()
        assert snap["counters"]["integrity.scrub.corrupt_found"]["value"] == 1
        assert snap["counters"]["alloc.quarantine.replicas"]["value"] == 1

    def test_detect_latency_histogram(self, rig):
        registry, server, _, scrubber, seg = rig
        corrupt_one(server, seg)  # rotted at t=5
        scrubber.scrub(at=65.0)
        hist = registry.snapshot()["histograms"]["integrity.scrub.detect_latency_s"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(60.0)

    def test_offline_nodes_skipped(self, rig):
        _, server, _, scrubber, seg = rig
        node = corrupt_one(server, seg)
        server.node_offline(node, at=10.0)
        report = scrubber.scrub(at=20.0)
        assert report.nodes_skipped_offline == 1
        assert report.corrupt_found == 0  # unreadable disk: not scanned

    def test_no_policy_means_no_repair(self, rig):
        _, server, _, _, seg = rig
        scrubber = IntegrityScrubber(server, registry=Registry())
        corrupt_one(server, seg)
        report = scrubber.scrub(at=30.0)
        assert report.corrupt_found == 1
        assert not report.repair_triggered
        assert server.catalog.redundancy(seg) == 2

    def test_attach_runs_periodically(self, rig):
        _, server, _, scrubber, seg = rig
        engine = SimulationEngine(registry=Registry())
        scrubber.scrub_interval_s = 100.0
        scrubber.attach(engine)
        corrupt_one(server, seg)
        engine.run(until=350.0)
        assert len(scrubber.reports) == 3
        assert sum(r.corrupt_found for r in scrubber.reports) == 1
        # the engine-attached path schedules the repair audit as an event
        assert server.catalog.redundancy(seg) == 3

    def test_invalid_config(self, rig):
        _, server, _, _, _ = rig
        with pytest.raises(ConfigurationError):
            IntegrityScrubber(server, scrub_interval_s=0.0, registry=Registry())
        with pytest.raises(ConfigurationError):
            IntegrityScrubber(server, repair_delay_s=-1.0, registry=Registry())


class TestByteAccounting:
    def test_corrupt_quarantine_repair_conserves_bytes(self, rig):
        """Satellite regression: the corrupt → quarantine → repair cycle
        must return total replica-partition usage to its baseline — no
        leaked bytes on the quarantining node, no double-count on the
        repair target."""
        _, server, _, scrubber, seg = rig

        def usage():
            return {
                a: server.repository(server.node_of(a)).replica_used_bytes
                for a in server.registered_authors()
            }

        baseline = usage()
        node = corrupt_one(server, seg)
        assert usage() == baseline  # rot flips a digest, not a byte count
        scrubber.scrub(at=60.0)
        after = usage()
        author_of_node = next(
            a for a in server.registered_authors() if server.node_of(a) == node
        )
        # the rotted copy's bytes are gone from the quarantined node...
        assert after[author_of_node] == baseline[author_of_node] - 1000
        # ...and exactly one new copy landed elsewhere: totals match
        assert sum(after.values()) == sum(baseline.values())
        assert server.catalog.redundancy(seg) == 3


class TestServerIntegrityPaths:
    def test_reactivation_verifies_digests(self, rig):
        """A node coming back online must not resurrect a copy that rotted
        while it was dark."""
        _, server, _, _, seg = rig
        node = corrupt_one(server, seg)
        server.node_offline(node, at=10.0)
        server.node_online(node, at=20.0)
        reps = [
            r
            for r in server.catalog.replicas_of_segment(seg)
            if r.node_id == node
        ]
        assert reps[0].state is ReplicaState.QUARANTINED
        assert not server.repository(node).hosts_segment(seg)

    def test_repair_skips_segment_with_no_verified_source(self, rig):
        registry, server, _, _, seg = rig
        for node in sorted(server.catalog.nodes_hosting(seg)):
            server.repository(node).corrupt_replica(seg, at=5.0)
        # all three copies rotted but still cataloged ACTIVE; force a
        # shortage so repair looks at the segment
        victim = sorted(server.catalog.nodes_hosting(seg))[0]
        rep = next(
            r
            for r in server.catalog.replicas_of_segment(seg)
            if r.node_id == victim
        )
        server.quarantine_replica(rep.replica_id, at=10.0)
        created = server.repair(at=20.0)
        assert created == []
        snap = registry.snapshot()
        assert snap["counters"]["alloc.repair.no_verified_source"]["value"] == 1

    def test_quarantine_replica_errors_on_unknown(self, rig):
        _, server, _, _, _ = rig
        with pytest.raises(CatalogError):
            server.quarantine_replica("r-999")


# ---------------------------------------------------------------------------
# property-based invariants (satellite: catalog + scrubber under randomness)
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(st.sampled_from(["corrupt", "scrub", "offline", "online", "repair"]),
              st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=25,
)


@settings(max_examples=25, deadline=None)
@given(ops=OPS, seed=st.integers(min_value=0, max_value=2**16))
def test_catalog_integrity_invariants(ops, seed):
    """Under any interleaving of corruption, scrubbing, churn, and repair:

    * replica ids stay unique;
    * at most one non-retired replica of a segment per node;
    * a quarantined replica never appears in resolve candidates;
    * no servable replica on a live node fails verification right after a
      scrub pass.
    """
    registry = Registry()
    server = AllocationServer(
        community_graph(), RandomPlacement(), seed=seed, registry=registry
    )
    for a in AUTHORS:
        server.register_repository(AuthorId(a), StorageRepository(NodeId(a), 10_000))
    ds = segment_dataset(DatasetId("d"), AuthorId("alice"), 1000, n_segments=2)
    server.publish_dataset(ds, n_replicas=3)
    policy = ReplicationPolicy(server, registry=registry)
    scrubber = IntegrityScrubber(server, policy=policy, registry=registry)
    segments = [s.segment_id for s in ds.segments]
    nodes = [NodeId(a) for a in AUTHORS]
    now = 0.0

    for op, pick in ops:
        now += 10.0
        node = nodes[pick % len(nodes)]
        seg = segments[pick % len(segments)]
        try:
            if op == "corrupt":
                repo = server.repository(node)
                if repo.hosts_segment(seg):
                    repo.corrupt_replica(seg, at=now)
            elif op == "scrub":
                scrubber.scrub(at=now)
            elif op == "offline":
                if server.is_online(node):
                    server.node_offline(node, at=now)
            elif op == "online":
                if not server.is_online(node):
                    server.node_online(node, at=now)
            elif op == "repair":
                server.repair(at=now)
        except CatalogError:
            pytest.fail(f"op {op!r} violated a catalog invariant")

        catalog = server.catalog
        ids = [r.replica_id for r in catalog.iter_replicas()]
        assert len(ids) == len(set(ids)), "duplicate replica ids"
        for s in segments:
            per_node = [r.node_id for r in catalog.replicas_of_segment(s)]
            assert len(per_node) == len(set(per_node)), (
                "multiple replicas of one segment on one node"
            )
        quarantined_ids = {r.replica_id for r in catalog.quarantined_replicas()}
        for s in segments:
            for a in AUTHORS:
                try:
                    candidates = server.resolve_candidates(s, AuthorId(a))
                except CatalogError:
                    continue
                for c in candidates:
                    assert c.replica.replica_id not in quarantined_ids, (
                        "quarantined replica offered to a reader"
                    )
        if op == "scrub":
            assert scrubber.corrupt_servable() == []
