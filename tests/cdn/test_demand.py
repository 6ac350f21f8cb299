"""EWMA demand tracking (repro.cdn.demand)."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ConfigurationError
from repro.ids import AuthorId, DatasetId, SegmentId
from repro.obs import Registry, set_registry
from repro.scdn import SCDN
from repro.cdn.content import segment_dataset
from repro.cdn.demand import DemandTracker
from repro.cdn.migration import MigrationEngine
from repro.cdn.transfer import TransferClient

from ..conftest import pub
from .test_allocation_bugfixes import graph_of, make_server
from .test_migration import AUTHORS, Rig, clique_graph
from .test_sharding import make_router, partition_rig, split_cliques

S1 = SegmentId("seg-1")
S2 = SegmentId("seg-2")
ALICE = AuthorId("alice")
BOB = AuthorId("bob")


def tracker(**kw):
    kw.setdefault("registry", Registry())
    return DemandTracker(**kw)


class TestValidation:
    def test_half_life_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            tracker(half_life_s=0.0)
        with pytest.raises(ConfigurationError):
            tracker(half_life_s=-1.0)

    def test_record_count_must_be_positive(self):
        t = tracker()
        with pytest.raises(ConfigurationError):
            t.record_access(S1, count=0)

    def test_hot_segments_min_rate_validated(self):
        with pytest.raises(ConfigurationError):
            tracker().hot_segments(-0.1)


class TestFolding:
    def test_first_fold_blends_toward_window_mean(self):
        # 10 accesses over a 100 s window with half_life 100: the EWMA
        # blends 0 (decayed by 0.5) with the window mean 0.1 at weight 0.5
        t = tracker(half_life_s=100.0)
        t.record_access(S1, count=10)
        assert t.fold(100.0) == 10
        assert t.rate(S1) == pytest.approx(0.05)

    def test_idle_segment_decays_by_half_life(self):
        t = tracker(half_life_s=100.0)
        t.record_access(S1, count=10)
        t.fold(100.0)
        before = t.rate(S1)
        t.fold(200.0)  # one idle half-life
        assert t.rate(S1) == pytest.approx(before * 0.5)

    def test_fold_with_zero_dt_keeps_pending(self):
        t = tracker()
        t.record_access(S1)
        assert t.fold(0.0) == 0
        assert t.rate(S1) == 0.0
        assert t.fold(10.0) == 1
        assert t.rate(S1) > 0.0

    def test_rate_floor_evicts_cold_segments(self):
        t = tracker(half_life_s=1.0)
        t.record_access(S1)
        t.fold(1.0)
        assert t.tracked_segments == 1
        # ~50 idle half-lives pushes the rate far below the floor
        t.fold(51.0)
        assert t.tracked_segments == 0
        assert t.rate(S1) == 0.0
        assert t.top_requesters(S1) == []

    def test_fold_is_deterministic(self):
        def run():
            t = tracker(half_life_s=60.0)
            for i in range(5):
                t.record_access(S1, ALICE, count=i + 1)
                t.record_access(S2, BOB)
                t.fold(30.0 * (i + 1))
            return t.rate(S1), t.rate(S2)

        assert run() == run()


class TestQueries:
    def test_hot_segments_sorted_hottest_first(self):
        t = tracker()
        t.record_access(S1, count=2)
        t.record_access(S2, count=8)
        t.fold(100.0)
        hot = t.hot_segments(0.0)
        assert [s for s, _ in hot] == [S2, S1]
        assert t.hot_segments(t.rate(S2)) == [(S2, t.rate(S2))]

    def test_top_requesters_attribution_and_cap(self):
        t = tracker()
        t.record_access(S1, ALICE, count=5)
        t.record_access(S1, BOB, count=1)
        t.record_access(S1)  # unattributed: rate only, no requester weight
        t.fold(100.0)
        top = t.top_requesters(S1)
        assert [a for a, _ in top] == [ALICE, BOB]
        assert top[0][1] > top[1][1]
        assert t.top_requesters(S1, n=1) == top[:1]


class TestResolveFeed:
    """Every successful ``AllocationServer.resolve`` records its access on
    the tracker the migration engine installed on the fabric; the trace
    ring is never read back."""

    def test_no_engine_leaves_the_slot_empty(self):
        g = graph_of(pub("p1", 2009, "a", "b"))
        server = make_server(g, ["a", "b"])
        assert server.fabric.demand is None
        assert make_router(g, ["a", "b"]).fabric.demand is None
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=1)
        assert server.resolve(ds.segments[0].segment_id, AuthorId("b")) is not None

    def test_record_false_counts(self):
        rig = Rig()
        assert rig.server.fabric.demand is rig.engine.demand
        requester = AuthorId(str(rig.non_holder()))
        rig.server.resolve(rig.seg, requester)
        rig.server.resolve(rig.seg, requester, record=False)
        assert rig.engine.demand.fold(10.0) == 2
        assert [a for a, _ in rig.engine.demand.top_requesters(rig.seg)] == [requester]

    def test_failed_resolve_does_not_count(self):
        rig = Rig()
        for node in rig.hosts:
            rig.server.node_offline(node, at=1.0)
        with pytest.raises(CatalogError):
            rig.server.resolve(rig.seg, AuthorId("alice"), record=False)
        assert rig.engine.demand.fold(10.0) == 0

    def test_degraded_router_resolve_does_not_count(self):
        router, net = partition_rig()
        ds = segment_dataset(DatasetId("shared"), AuthorId("x"), 100)
        router.publish_dataset(ds, n_replicas=6)
        seg = ds.segments[0].segment_id
        reg = router.obs
        engine = MigrationEngine(
            router, TransferClient(net, failure_prob=0.0, seed=1, registry=reg),
            registry=reg,
        )
        # one fabric: a single assignment reaches every shard
        assert all(shard.fabric.demand is engine.demand for shard in router.shards)
        split_cliques(net)
        assert router.resolve(seg, AuthorId("a"), record=False).degraded
        assert not router.resolve(seg, AuthorId("y"), record=False).degraded
        assert engine.demand.fold(10.0) == 1
        assert [a for a, _ in engine.demand.top_requesters(seg)] == [AuthorId("y")]

    def test_deployments_on_the_process_wide_registry_are_isolated(self):
        previous = set_registry(Registry())
        try:
            nets = [SCDN(clique_graph(), seed=1) for _ in range(2)]
            for net in nets:
                for a in AUTHORS:
                    net.join(AuthorId(a))
                net.publish(AuthorId("alice"), "ds", 1000, n_replicas=1)
            engines = [net.migration_engine() for net in nets]
            for a in AUTHORS:  # reads on the first deployment only
                assert all(o.ok for o in nets[0].access(AuthorId(a), "ds"))
            for engine in engines:
                engine.run_cycle(at=3.0)
        finally:
            set_registry(previous)
        assert engines[0].demand.rate(SegmentId("ds:seg0")) > 0.0
        assert engines[1].demand.tracked_segments == 0
