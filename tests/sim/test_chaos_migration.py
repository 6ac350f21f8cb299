"""Migration knobs of the chaos harness (repro.sim.chaos)."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.cdn.demand import DemandTracker
from repro.errors import ConfigurationError
from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.sim.chaos import ChaosConfig, run_chaos_campaign
from repro.sim.scenarios import scenario_graph
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub


def community_graph():
    pubs = [
        pub("p1", 2009, "alice", "bob", "carol"),
        pub("p2", 2010, "carol", "dave", "erin"),
        pub("p3", 2010, "alice", "bob"),
        pub("p4", 2010, "dave", "erin"),
        pub("p5", 2011, "bob", "dave"),
    ]
    return build_coauthorship_graph(Corpus(pubs))


SMALL = ChaosConfig(
    horizon_s=600.0,
    members=5,
    datasets=2,
    segments_per_dataset=1,
    dataset_size_bytes=100_000,
    n_replicas=2,
    crash_rate_per_node_s=0.0,
    outage_rate_per_node_s=1e-3,
    outage_mean_duration_s=60.0,
    slowlink_rate_per_node_s=0.0,
    audit_interval_s=120.0,
)


def fresh_net(seed=1):
    return SCDN(community_graph(), seed=seed, registry=Registry())


class TestKnobs:
    def test_migration_off_by_default(self):
        assert ChaosConfig().migration_enabled is False

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(migration_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(migration_hot_rate_per_s=-1.0)


class TestCampaign:
    def test_disabled_report_keeps_default_migration_fields(self):
        report = run_chaos_campaign(fresh_net(), SMALL, seed=7)
        assert report.migration_moves == 0
        assert report.migration_failed_moves == 0
        assert report.availability_during_migration == 1.0
        assert report.min_mid_move_redundancy == 1.0
        assert "migration: 0 moves" in "\n".join(report.lines())

    def test_enabled_campaign_reports_migration_outcomes(self):
        cfg = dataclasses.replace(
            SMALL,
            migration_enabled=True,
            migration_interval_s=120.0,
            migration_hot_rate_per_s=1e-4,
        )
        report = run_chaos_campaign(fresh_net(), cfg, seed=7)
        assert report.unhandled_exceptions == 0
        assert report.migration_failed_moves <= report.migration_moves
        assert 0.0 <= report.availability_during_migration <= 1.0

    def test_enabling_migration_leaves_disabled_runs_untouched(self):
        # bit-for-bit: the enabled code path draws its RNG last, so a
        # disabled campaign is unaffected by the feature existing
        a = run_chaos_campaign(fresh_net(), SMALL, seed=11)
        b = run_chaos_campaign(
            fresh_net(), dataclasses.replace(SMALL, migration_enabled=False), seed=11
        )
        assert a == b

    def test_enabled_campaign_is_deterministic(self):
        cfg = dataclasses.replace(
            SMALL, migration_enabled=True, migration_interval_s=120.0
        )
        a = run_chaos_campaign(fresh_net(), cfg, seed=13)
        b = run_chaos_campaign(fresh_net(), cfg, seed=13)
        assert a == b


MIGRATING = dataclasses.replace(
    SMALL,
    migration_enabled=True,
    migration_interval_s=120.0,
    migration_hot_rate_per_s=1e-4,
)

#: a busier campaign for the feed-parity check: 15 members whose small
#: caches keep resolving, and (at 4 shards) partitions that degrade some
#: resolves
FEED = ChaosConfig(
    horizon_s=1800.0,
    members=15,
    datasets=3,
    segments_per_dataset=2,
    dataset_size_bytes=100_000,
    n_replicas=2,
    member_capacity_bytes=150_000,
    outage_rate_per_node_s=3e-4,
    outage_mean_duration_s=120.0,
    audit_interval_s=120.0,
    migration_enabled=True,
    migration_interval_s=120.0,
    migration_hot_rate_per_s=1e-4,
)


class TestDemandFeed:
    """Migration demand comes from resolves directly, so the trace ring's
    capacity (a diagnostics setting) decides nothing."""

    def test_ring_capacity_changes_no_report(self):
        reports = [
            run_chaos_campaign(
                SCDN(community_graph(), seed=1, registry=Registry(trace_capacity=cap)),
                MIGRATING,
                seed=7,
            )
            for cap in (4, 10**6)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].migration_moves >= 1

    @pytest.mark.parametrize("shards, partition_rate", [(1, 0.0), (4, 1e-2)])
    def test_feed_counts_equal_ring_resolve_events(
        self, monkeypatch, shards, partition_rate
    ):
        """The direct feed carries exactly what replaying the ring's
        ``resolve`` events did: one access per successful authoritative
        resolve, none for ``resolve_degraded``."""
        fed = Counter()
        record_access = DemandTracker.record_access

        def counting(self, segment_id, requester=None, *, count=1):
            fed[(str(segment_id), str(requester))] += count
            record_access(self, segment_id, requester, count=count)

        monkeypatch.setattr(DemandTracker, "record_access", counting)
        registry = Registry(trace_capacity=10**6)
        net = SCDN(
            scenario_graph(far_clusters=6),
            config=SCDNConfig(shards=shards),
            seed=1,
            registry=registry,
        )
        config = dataclasses.replace(FEED, partition_rate_s=partition_rate)
        report = run_chaos_campaign(net, config, seed=7)
        ring = Counter(
            (ev.fields["segment"], ev.fields["requester"])
            for ev in registry.traces.events(kind="resolve")
        )
        assert fed == ring
        assert sum(fed.values()) > 100
        assert report.migration_moves >= 1
        degraded = registry.traces.events(kind="resolve_degraded")
        assert bool(degraded) == (partition_rate > 0)
