"""Chaos campaign tests (repro.sim.chaos)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId
from repro.obs import Registry
from repro.scdn import SCDN
from repro.sim.chaos import ChaosConfig, ChaosReport, run_chaos_campaign
from repro.sim.scenarios import FLASH_CHAOS_OVERRIDES, flash_chaos_network
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
    crash_rate_per_node_s=1e-4,
    outage_rate_per_node_s=1e-3,
    outage_mean_duration_s=60.0,
    slowlink_rate_per_node_s=1e-3,
    slowlink_mean_duration_s=60.0,
    audit_interval_s=120.0,
)


def fresh_net(seed=1):
    return SCDN(community_graph(), seed=seed, registry=Registry())


class TestConfig:
    def test_defaults_valid(self):
        ChaosConfig()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(members=1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(crash_rate_per_node_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(slowlink_factor=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(outage_mean_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(repair_delay_s=-1.0)

    def test_default_request_interval_derived(self):
        cfg = ChaosConfig(horizon_s=1000.0, members=10)
        assert cfg.effective_request_interval_s == pytest.approx(5.0)
        cfg = ChaosConfig(request_interval_s=7.0)
        assert cfg.effective_request_interval_s == 7.0


class TestCampaign:
    def test_completes_without_unhandled_exceptions(self):
        report = run_chaos_campaign(fresh_net(), SMALL, seed=7)
        assert isinstance(report, ChaosReport)
        assert report.unhandled_exceptions == 0
        assert report.members == 5 and report.datasets == 2
        assert report.requests == report.served + report.failed
        assert 0.0 <= report.availability <= 1.0
        assert 0.0 <= report.post_repair_redundancy <= 1.0

    def test_deterministic_under_fixed_seeds(self):
        a = run_chaos_campaign(fresh_net(seed=3), SMALL, seed=11)
        b = run_chaos_campaign(fresh_net(seed=3), SMALL, seed=11)
        assert a == b

    def test_different_seed_changes_schedule(self):
        # higher rates so schedules almost surely differ
        cfg = ChaosConfig(
            horizon_s=600.0,
            members=5,
            datasets=2,
            segments_per_dataset=1,
            dataset_size_bytes=100_000,
            n_replicas=2,
            outage_rate_per_node_s=5e-3,
            outage_mean_duration_s=30.0,
        )
        a = run_chaos_campaign(fresh_net(), cfg, seed=1)
        b = run_chaos_campaign(fresh_net(), cfg, seed=2)
        assert a != b

    def test_metrics_land_in_registry(self):
        net = fresh_net()
        run_chaos_campaign(net, SMALL, seed=7)
        snap = net.obs_snapshot()
        for counter in (
            "chaos.requests",
            "chaos.served",
            "chaos.failed",
            "chaos.denied",
            "alloc.resolve.failover",
        ):
            assert counter in snap["counters"]
        assert "chaos.repair.latency_s" in snap["histograms"]
        assert "transfer.retry.backoff_s" in snap["histograms"]
        assert "chaos.availability" in snap["gauges"]
        assert snap["counters"]["chaos.requests"]["value"] > 0

    def test_report_lines_render(self):
        report = run_chaos_campaign(fresh_net(), SMALL, seed=7)
        text = "\n".join(report.lines())
        assert "availability=" in text
        assert "post_repair_redundancy=" in text

    def test_rejects_populated_network(self):
        net = fresh_net()
        net.join(AuthorId("alice"))
        with pytest.raises(ConfigurationError, match="no members"):
            run_chaos_campaign(net, SMALL, seed=7)


CORRUPT = ChaosConfig(
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
    corruption_rate_per_node_s=4e-3,
    scrub_interval_s=120.0,
)


class TestCorruptionCampaigns:
    def test_scrubber_off_is_bitfor_bit_identical_without_corruption(self):
        """Regression gate: with corruption disabled, the scrubber (on or
        off) must not perturb the campaign at all — same seed, same
        ChaosReport, field for field."""
        import dataclasses

        on = run_chaos_campaign(
            fresh_net(), dataclasses.replace(SMALL, scrub_enabled=True), seed=7
        )
        off = run_chaos_campaign(
            fresh_net(), dataclasses.replace(SMALL, scrub_enabled=False), seed=7
        )
        assert on == off
        assert on.corruptions == 0 and on.quarantined == 0

    def test_scrubber_contains_bit_rot(self):
        """With corruption on, the scrubber must (a) leave zero corrupt
        servable replicas after the final repair audit and (b) serve
        strictly fewer corrupt reads than the same campaign without it."""
        import dataclasses

        on = run_chaos_campaign(fresh_net(), CORRUPT, seed=7)
        off = run_chaos_campaign(
            fresh_net(),
            dataclasses.replace(CORRUPT, scrub_enabled=False),
            seed=7,
        )
        assert on.corruptions > 0
        assert on.unhandled_exceptions == 0
        assert on.corrupt_servable_after_repair == 0
        assert off.corrupt_servable_after_repair > 0  # rot festers unscrubbed
        assert on.corrupt_reads_served < off.corrupt_reads_served
        assert on.quarantined > 0
        assert on.mean_time_to_detect_s > 0.0
        # without a scrubber nothing detects, nothing quarantines
        assert off.quarantined == 0 and off.undetected_at_horizon == off.corruptions

    def test_corruption_campaign_deterministic(self):
        a = run_chaos_campaign(fresh_net(), CORRUPT, seed=7)
        b = run_chaos_campaign(fresh_net(), CORRUPT, seed=7)
        assert a == b

    def test_integrity_metrics_land_in_registry(self):
        net = fresh_net()
        run_chaos_campaign(net, CORRUPT, seed=7)
        snap = net.obs_snapshot()
        assert snap["counters"]["integrity.scrub.runs"]["value"] > 0
        assert snap["counters"]["integrity.scrub.corrupt_found"]["value"] > 0
        assert snap["counters"]["alloc.quarantine.replicas"]["value"] > 0
        assert "integrity.scrub.detect_latency_s" in snap["histograms"]

    def test_report_lines_include_integrity(self):
        report = run_chaos_campaign(fresh_net(), CORRUPT, seed=7)
        text = "\n".join(report.lines())
        assert "corrupt reads served" in text
        assert "corrupt_servable_after_repair=" in text

    def test_corruption_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(corruption_rate_per_node_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(scrub_interval_s=0.0)


# ----------------------------------------------------------------------
# partition campaigns
# ----------------------------------------------------------------------

PARTITION = ChaosConfig(
    horizon_s=1800.0,
    members=5,
    datasets=2,
    segments_per_dataset=1,
    dataset_size_bytes=100_000,
    n_replicas=2,
    crash_rate_per_node_s=0.0,
    outage_rate_per_node_s=0.0,
    slowlink_rate_per_node_s=0.0,
    audit_interval_s=120.0,
    partition_rate_s=2e-3,
    partition_mean_duration_s=120.0,
)

#: new-in-this-layer report fields and their rate-0 values — a
#: partition-free campaign must not even show the feature existing
_PARTITION_DEFAULTS = {
    "partitions": 0,
    "degraded_serves": 0,
    "degraded_serve_ratio": 0.0,
    "minority_acceptance": 1.0,
    "majority_acceptance": 1.0,
    "time_to_reconverge_s": 0.0,
    "divergence_after_heal": 0,
}


class TestPartitionCampaigns:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_rate_zero_bit_identical_to_pre_partition_baseline(self, n_shards):
        """The frozen PR-7 gate: with partitions off, a campaign on the
        partition-aware stack reproduces the pre-partition report bit for
        bit, and every new field sits at its inert default."""
        import json
        from pathlib import Path

        from repro.scdn import SCDNConfig

        baseline = json.loads(
            (Path(__file__).parent.parent / "data" / "chaos_baseline_pr7.json")
            .read_text()
        )[str(n_shards)]
        net = SCDN(
            community_graph(),
            config=SCDNConfig(shards=n_shards),
            seed=1,
            registry=Registry(),
        )
        report = run_chaos_campaign(net, SMALL, seed=7).to_dict()
        assert {k: report[k] for k in baseline} == baseline
        assert {k: report[k] for k in _PARTITION_DEFAULTS} == _PARTITION_DEFAULTS

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_partitions_inject_and_reconverge(self, n_shards):
        from repro.scdn import SCDNConfig

        net = SCDN(
            community_graph(),
            config=SCDNConfig(shards=n_shards),
            seed=1,
            registry=Registry(),
        )
        report = run_chaos_campaign(net, PARTITION, seed=7)
        assert report.partitions > 0
        assert report.unhandled_exceptions == 0
        assert report.divergence_after_heal == 0
        assert not net.network.partitioned  # campaign always ends healed
        assert 0.0 <= report.minority_acceptance <= 1.0
        assert 0.0 <= report.majority_acceptance <= 1.0
        assert report.time_to_reconverge_s >= 0.0

    def test_partition_campaign_deterministic(self):
        a = run_chaos_campaign(fresh_net(), PARTITION, seed=7)
        b = run_chaos_campaign(fresh_net(), PARTITION, seed=7)
        assert a == b

    def test_report_lines_include_partitions(self):
        report = run_chaos_campaign(fresh_net(), PARTITION, seed=7)
        text = "\n".join(report.lines())
        assert "partitions:" in text
        assert "divergence_after_heal=" in text

    def test_partition_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(partition_rate_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(partition_mean_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(partition_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(partition_fraction=0.6)


#: peer-tier report fields and their tier-off values — a peer-off
#: campaign must not even show the feature existing
_PEER_DEFAULTS = {
    "peers_admitted": 0,
    "peer_serves": 0,
    "peer_offload_ratio": 0.0,
    "peer_leases_expired": 0,
    "peer_leaves": 0,
}


_FLASH_PEERS = ChaosConfig(
    horizon_s=1800.0,
    peer_tier=True,
    peer_leave_rate_s=0.002,
    **FLASH_CHAOS_OVERRIDES,
)


class TestPeerCampaigns:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_peer_off_bit_identical_to_pre_peer_baseline(self, n_shards):
        """The frozen PR-7 gate, re-run on the peer-aware stack: with the
        tier off, the registry is never built, resolve consults no peers,
        churn draws nothing, and the report reproduces the pre-peer
        baseline bit for bit with every new field at its inert default."""
        import json
        from pathlib import Path

        from repro.scdn import SCDNConfig

        baseline = json.loads(
            (Path(__file__).parent.parent / "data" / "chaos_baseline_pr7.json")
            .read_text()
        )[str(n_shards)]
        net = SCDN(
            community_graph(),
            config=SCDNConfig(shards=n_shards),
            seed=1,
            registry=Registry(),
        )
        report = run_chaos_campaign(net, SMALL, seed=7).to_dict()
        assert {k: report[k] for k in baseline} == baseline
        assert {k: report[k] for k in _PEER_DEFAULTS} == _PEER_DEFAULTS

    def test_peer_campaign_admits_serves_and_churns(self):
        """Over the flash-crowd deployment (replicas pinned on owners,
        tight member caches) the tier admits leases, serves reads, and
        loses peers to churn — while the campaign stays fully available
        and integrity-clean."""
        report = run_chaos_campaign(flash_chaos_network(), _FLASH_PEERS, seed=7)
        assert report.peers_admitted > 0
        assert report.peer_serves > 0
        assert report.peer_offload_ratio > 0.0
        assert report.peer_leaves > 0
        assert report.unhandled_exceptions == 0
        assert report.corrupt_servable_after_repair == 0

    def test_peer_campaign_deterministic(self):
        a = run_chaos_campaign(flash_chaos_network(), _FLASH_PEERS, seed=7)
        b = run_chaos_campaign(flash_chaos_network(), _FLASH_PEERS, seed=7)
        assert a == b

    def test_peer_churn_rate_zero_draws_nothing(self):
        """Enabling the tier without churn must not perturb the injector
        stream: rate 0 schedules nothing, and with node failures also
        silenced no leave is ever recorded (crash/outage leaves are the
        only other source)."""
        from dataclasses import replace

        quiet = replace(
            _FLASH_PEERS,
            crash_rate_per_node_s=0.0,
            outage_rate_per_node_s=0.0,
            peer_leave_rate_s=0.0,
        )
        a = run_chaos_campaign(flash_chaos_network(), quiet, seed=7)
        b = run_chaos_campaign(flash_chaos_network(), quiet, seed=7)
        assert a == b
        assert a.peer_leaves == 0

    def test_report_lines_include_peer_tier(self):
        report = run_chaos_campaign(flash_chaos_network(), _FLASH_PEERS, seed=7)
        text = "\n".join(report.lines())
        assert "peer tier:" in text
        assert "offload=" in text

    def test_publish_before_join_pins_replicas_to_owners(self):
        """The flash recipe's precondition: with publish_before_join only
        the owners hold repository replicas at campaign end (repair may
        move some after owner crashes, so assert on the quiet variant)."""
        from dataclasses import replace

        net = flash_chaos_network()
        calm = replace(
            _FLASH_PEERS,
            crash_rate_per_node_s=0.0,
            outage_rate_per_node_s=0.0,
            slowlink_rate_per_node_s=0.0,
            peer_leave_rate_s=0.0,
        )
        run_chaos_campaign(net, calm, seed=7)
        owners = {"crowd-1", "crowd-2", "crowd-3"}
        holders = {
            str(net.server.author_of(r.node_id))
            for r in net.server.catalog.iter_replicas()
        }
        assert holders <= owners

    def test_peer_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(peer_lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(peer_cache_segments=-1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(peer_max_concurrent_serves=0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(peer_leave_rate_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(member_capacity_bytes=0)
