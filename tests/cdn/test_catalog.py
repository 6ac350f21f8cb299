"""Unit tests for repro.cdn.catalog."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError
from repro.ids import AuthorId, DatasetId, NodeId, SegmentId
from repro.obs import Registry
from repro.cdn.catalog import ReplicaCatalog
from repro.cdn.content import ReplicaState, segment_dataset

from ..conftest import pub
from .test_allocation_bugfixes import graph_of, make_server


@pytest.fixture
def catalog():
    c = ReplicaCatalog()
    c.register_dataset(segment_dataset(DatasetId("d1"), AuthorId("o"), 100, n_segments=2))
    return c


SEG0, SEG1 = SegmentId("d1:seg0"), SegmentId("d1:seg1")


class TestDatasets:
    def test_register_and_lookup(self, catalog):
        assert catalog.dataset(DatasetId("d1")).n_segments == 2
        assert "d1" in catalog
        assert catalog.segment(SEG0).index == 0

    def test_duplicate_registration_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.register_dataset(
                segment_dataset(DatasetId("d1"), AuthorId("o"), 10)
            )

    def test_unknown_lookups_raise(self, catalog):
        with pytest.raises(CatalogError):
            catalog.dataset(DatasetId("nope"))
        with pytest.raises(CatalogError):
            catalog.segment(SegmentId("nope:seg0"))

    def test_datasets_listing(self, catalog):
        assert [d.dataset_id for d in catalog.datasets()] == ["d1"]


class TestReplicas:
    def test_create_and_lookup(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        assert catalog.replica(r.replica_id) is r
        assert catalog.replicas_of_segment(SEG0) == [r]
        assert catalog.replicas_on_node(NodeId("n1")) == [r]

    def test_unique_ids(self, catalog):
        r1 = catalog.create_replica(SEG0, NodeId("n1"))
        r2 = catalog.create_replica(SEG0, NodeId("n2"))
        assert r1.replica_id != r2.replica_id

    def test_duplicate_host_rejected(self, catalog):
        catalog.create_replica(SEG0, NodeId("n1"))
        with pytest.raises(CatalogError, match="already hosts"):
            catalog.create_replica(SEG0, NodeId("n1"))

    def test_retired_host_can_rehost(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.retire(r.replica_id)
        catalog.create_replica(SEG0, NodeId("n1"))  # allowed again

    def test_unknown_segment_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_replica(SegmentId("x:seg0"), NodeId("n1"))

    def test_servable_only_filter(self, catalog):
        r1 = catalog.create_replica(SEG0, NodeId("n1"))  # PENDING
        r2 = catalog.create_replica(SEG0, NodeId("n2"), state=ReplicaState.ACTIVE)
        assert catalog.replicas_of_segment(SEG0, servable_only=True) == [r2]
        assert len(catalog.replicas_of_segment(SEG0)) == 2

    def test_replicas_of_dataset(self, catalog):
        catalog.create_replica(SEG0, NodeId("n1"), state=ReplicaState.ACTIVE)
        catalog.create_replica(SEG1, NodeId("n1"), state=ReplicaState.ACTIVE)
        assert len(catalog.replicas_of_dataset(DatasetId("d1"))) == 2

    def test_nodes_hosting(self, catalog):
        catalog.create_replica(SEG0, NodeId("n1"), state=ReplicaState.ACTIVE)
        catalog.create_replica(SEG0, NodeId("n2"))  # pending, excluded
        assert catalog.nodes_hosting(SEG0) == {"n1"}


class TestStateTransitions:
    def test_activate(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.activate(r.replica_id)
        assert r.state is ReplicaState.ACTIVE

    def test_mark_stale_and_reactivate(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"), state=ReplicaState.ACTIVE)
        catalog.mark_stale(r.replica_id)
        assert not r.servable
        catalog.activate(r.replica_id)
        assert r.servable

    def test_retired_is_terminal(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.retire(r.replica_id)
        with pytest.raises(CatalogError):
            catalog.activate(r.replica_id)
        with pytest.raises(CatalogError):
            catalog.mark_stale(r.replica_id)

    def test_retired_excluded_from_lookups(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.retire(r.replica_id)
        assert catalog.replicas_of_segment(SEG0) == []
        assert catalog.replicas_on_node(NodeId("n1")) == []
        assert catalog.total_replicas() == 0


class TestAggregates:
    def test_redundancy(self, catalog):
        catalog.create_replica(SEG0, NodeId("n1"), state=ReplicaState.ACTIVE)
        catalog.create_replica(SEG0, NodeId("n2"), state=ReplicaState.ACTIVE)
        catalog.create_replica(SEG0, NodeId("n3"))  # pending
        assert catalog.redundancy(SEG0) == 2

    def test_under_replicated_sorted_most_degraded_first(self, catalog):
        catalog.create_replica(SEG1, NodeId("n1"), state=ReplicaState.ACTIVE)
        under = catalog.under_replicated(2)
        assert under == [(SEG0, 0), (SEG1, 1)]

    def test_under_replicated_empty_when_satisfied(self, catalog):
        for seg in (SEG0, SEG1):
            catalog.create_replica(seg, NodeId("n1"), state=ReplicaState.ACTIVE)
        assert catalog.under_replicated(1) == []

    def test_iter_replicas_excludes_retired(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.create_replica(SEG0, NodeId("n2"))
        catalog.retire(r.replica_id)
        assert len(list(catalog.iter_replicas())) == 1


class TestUnregister:
    def test_unregister_clean_dataset(self, catalog):
        catalog.unregister_dataset(DatasetId("d1"))
        assert "d1" not in catalog
        with pytest.raises(CatalogError):
            catalog.segment(SEG0)

    def test_unregister_with_live_replica_refused(self, catalog):
        catalog.create_replica(SEG0, NodeId("n1"))
        with pytest.raises(CatalogError, match="live replicas"):
            catalog.unregister_dataset(DatasetId("d1"))

    def test_unregister_after_retiring_all(self, catalog):
        r = catalog.create_replica(SEG0, NodeId("n1"))
        catalog.retire(r.replica_id)
        catalog.unregister_dataset(DatasetId("d1"))
        assert "d1" not in catalog

    def test_reregister_after_unregister(self, catalog):
        catalog.unregister_dataset(DatasetId("d1"))
        catalog.register_dataset(
            segment_dataset(DatasetId("d1"), AuthorId("o"), 50)
        )
        assert "d1" in catalog


class TestServableCacheCounters:
    """The memoized servable view counts its hits and misses, and every
    catalog mutation site drops it (counted on invalidations)."""

    def _deploy(self):
        reg = Registry()
        g = graph_of(
            pub("p1", 2009, "a", "b"),
            pub("p2", 2010, "b", "c"),
            pub("p3", 2010, "c", "d"),
        )
        server = make_server(
            g, ["a", "b", "c", "d"], capacity=100_000, registry=reg
        )
        ds = segment_dataset(DatasetId("d1"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=3)
        return server, ds.segments[0].segment_id, reg

    def _invalidations(self, reg):
        return reg.counter("catalog.servable_cache.invalidations").value

    def test_hits_and_misses_counted(self):
        server, seg, reg = self._deploy()
        server.catalog.replicas_of_segment(seg, servable_only=True)
        misses = reg.counter("catalog.servable_cache.misses").value
        assert misses >= 1
        server.catalog.replicas_of_segment(seg, servable_only=True)
        assert reg.counter("catalog.servable_cache.hits").value >= 1
        assert reg.counter("catalog.servable_cache.misses").value == misses

    def test_every_mutation_site_bumps_invalidations(self):
        server, seg, reg = self._deploy()
        cat = server.catalog
        reps = iter(cat.replicas_of_segment(seg))
        first = next(reps).replica_id
        second = next(reps).replica_id

        before = self._invalidations(reg)
        cat.retire(first)
        assert self._invalidations(reg) > before, "retire"

        before = self._invalidations(reg)
        cat.mark_stale(second)
        assert self._invalidations(reg) > before, "mark_stale"

        before = self._invalidations(reg)
        cat.activate(second)
        assert self._invalidations(reg) > before, "activate"

        before = self._invalidations(reg)
        cat.quarantine(second)
        assert self._invalidations(reg) > before, "quarantine (corrupt path)"

        before = self._invalidations(reg)
        server.repair(at=1.0)  # re-creates the quarantined copy elsewhere
        assert self._invalidations(reg) > before, "create_replica (add)"

        host = next(iter(cat.replicas_of_segment(seg))).node_id
        before = self._invalidations(reg)
        server.migrate_node(host, at=2.0)
        assert self._invalidations(reg) > before, "migrate"

        ds2 = segment_dataset(DatasetId("d2"), AuthorId("b"), 100)
        server.publish_dataset(ds2, n_replicas=2)
        for rep in cat.replicas_of_dataset(DatasetId("d2")):
            cat.retire(rep.replica_id)
        before = self._invalidations(reg)
        cat.unregister_dataset(DatasetId("d2"))
        assert self._invalidations(reg) > before, "unregister (rollback path)"
