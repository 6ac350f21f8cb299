"""Chaos campaigns: composed failure schedules with degradation reports.

The ROADMAP's production ambition needs evidence that the transfer and
allocation pipeline degrades gracefully, not just that it works when every
node is up. A *campaign* composes the three failure modes the injector
knows (permanent crashes, transient outages, slow links) with a read
workload over a live :class:`~repro.scdn.SCDN`, runs them through the
discrete-event engine, and reduces the run to a :class:`ChaosReport`:
data-plane availability, failover counts, repair latency, and post-repair
redundancy. Everything flows through the deployment's observability
registry, so ``repro obs``-style snapshots of a chaos run carry the same
counters (``alloc.resolve.failover``, ``transfer.retry.backoff_s``,
``chaos.*``) the report is computed from.

Determinism: one campaign seed fans out (via :func:`repro.rng.spawn`)
into independent streams for the failure schedule and the workload, so a
``(deployment seed, campaign seed)`` pair fully pins a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CatalogError, ConfigurationError, ReproError
from ..rng import SeedLike, make_rng, spawn

if TYPE_CHECKING:  # avoid a runtime sim -> scdn import cycle
    from ..scdn import SCDN


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one chaos campaign.

    The defaults are a gentle mixed campaign over a quickstart-sized
    deployment: roughly one or two crashes, a handful of outages, and a
    few slow-link episodes per simulated hour across 20 members — heavy
    enough to exercise failover/repair, light enough that the repair path
    should restore full redundancy (the CI smoke asserts it does).
    """

    horizon_s: float = 3600.0
    members: int = 20
    datasets: int = 4
    segments_per_dataset: int = 2
    dataset_size_bytes: int = 10_000_000
    n_replicas: int = 3
    #: per-member contributed storage (None -> the deployment default).
    #: Tight values make user caches thrash, keeping reads on the resolve
    #: path — the sustained fetch traffic the peer tier offloads.
    member_capacity_bytes: Optional[int] = None
    #: publish datasets after only the owners have joined, so replicas pin
    #: to owner nodes; the remaining members join afterwards (with
    #: ``member_capacity_bytes``, owners keep the deployment default).
    #: This mirrors a flash crowd arriving at pre-existing content and
    #: gives the peer tier social room: late joiners far from the owners
    #: can be strictly closer to each other than to any replica.  Off by
    #: default — the classic join-then-publish order is preserved bit for
    #: bit.
    publish_before_join: bool = False
    crash_rate_per_node_s: float = 2e-5
    outage_rate_per_node_s: float = 1e-4
    outage_mean_duration_s: float = 300.0
    slowlink_rate_per_node_s: float = 1e-4
    slowlink_mean_duration_s: float = 600.0
    slowlink_factor: float = 0.1
    audit_interval_s: float = 600.0
    repair_delay_s: float = 0.0
    request_interval_s: float = 0.0  # 0 → horizon / (20 * members)
    corruption_rate_per_node_s: float = 0.0
    scrub_interval_s: float = 600.0
    scrub_enabled: bool = True
    # Replica migration (off by default: zero-knob configs reproduce
    # pre-migration campaigns bit for bit — the engine neither runs nor
    # draws randomness unless enabled).
    migration_enabled: bool = False
    migration_interval_s: float = 900.0
    migration_hot_rate_per_s: float = 1e-3
    # Network partitions (off by default: a zero rate draws nothing from
    # the injector stream, so partition-free configs reproduce
    # pre-partition campaigns bit for bit).
    partition_rate_s: float = 0.0
    partition_mean_duration_s: float = 300.0
    partition_fraction: float = 0.3
    # Peer-assisted delivery (off by default: the registry is never
    # built, resolve consults no peers, and a zero churn rate draws
    # nothing from the injector stream — peer-off configs reproduce
    # pre-peer campaigns bit for bit).
    peer_tier: bool = False
    peer_lease_ttl_s: float = 600.0
    peer_cache_segments: int = 4
    peer_max_concurrent_serves: int = 4
    peer_leave_rate_s: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigurationError("horizon_s must be positive")
        if self.members < 2:
            raise ConfigurationError("need at least 2 members")
        if self.datasets < 1 or self.segments_per_dataset < 1:
            raise ConfigurationError("need at least one dataset with one segment")
        if self.dataset_size_bytes <= 0:
            raise ConfigurationError("dataset_size_bytes must be positive")
        if self.n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        if self.member_capacity_bytes is not None and self.member_capacity_bytes <= 0:
            raise ConfigurationError("member_capacity_bytes must be positive")
        for name in (
            "crash_rate_per_node_s",
            "outage_rate_per_node_s",
            "slowlink_rate_per_node_s",
            "corruption_rate_per_node_s",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.scrub_interval_s <= 0:
            raise ConfigurationError("scrub_interval_s must be positive")
        if self.outage_mean_duration_s <= 0 or self.slowlink_mean_duration_s <= 0:
            raise ConfigurationError("mean durations must be positive")
        if not 0.0 < self.slowlink_factor <= 1.0:
            raise ConfigurationError("slowlink_factor must be in (0, 1]")
        if self.audit_interval_s <= 0:
            raise ConfigurationError("audit_interval_s must be positive")
        if self.repair_delay_s < 0:
            raise ConfigurationError("repair_delay_s must be >= 0")
        if self.request_interval_s < 0:
            raise ConfigurationError("request_interval_s must be >= 0")
        if self.migration_interval_s <= 0:
            raise ConfigurationError("migration_interval_s must be positive")
        if self.migration_hot_rate_per_s < 0:
            raise ConfigurationError("migration_hot_rate_per_s must be >= 0")
        if self.partition_rate_s < 0:
            raise ConfigurationError("partition_rate_s must be >= 0")
        if self.partition_mean_duration_s <= 0:
            raise ConfigurationError("partition_mean_duration_s must be positive")
        if not 0.0 < self.partition_fraction <= 0.5:
            raise ConfigurationError(
                "partition_fraction must be in (0, 0.5] — it sizes the "
                "minority side of each split"
            )
        if self.peer_lease_ttl_s <= 0:
            raise ConfigurationError("peer_lease_ttl_s must be positive")
        if self.peer_cache_segments < 0:
            raise ConfigurationError("peer_cache_segments must be >= 0")
        if self.peer_max_concurrent_serves < 1:
            raise ConfigurationError("peer_max_concurrent_serves must be >= 1")
        if self.peer_leave_rate_s < 0:
            raise ConfigurationError("peer_leave_rate_s must be >= 0")

    @property
    def effective_request_interval_s(self) -> float:
        """The workload tick period (defaulted from horizon and members)."""
        if self.request_interval_s > 0:
            return self.request_interval_s
        return self.horizon_s / (20.0 * self.members)


@dataclass(frozen=True)
class ChaosReport:
    """Degradation summary of one campaign.

    ``availability`` is data-plane availability: served segment accesses
    over served + failed (policy denials are tracked separately — a
    correct authorization refusal is not an outage).
    ``post_repair_redundancy`` is the mean over segments of
    ``min(live replicas / budget, 1)`` after a final audit — 1.0 means
    every segment is back at its full budget.
    """

    horizon_s: float
    members: int
    datasets: int
    requests: int
    served: int
    failed: int
    denied: int
    availability: float
    failovers: int
    transfers_failed: int
    crashes: int
    outages: int
    slowlinks: int
    repairs_created: int
    repair_latency_s: Dict[str, float] = field(default_factory=dict)
    unrepaired_disruptions: int = 0
    post_repair_redundancy: float = 1.0
    unhandled_exceptions: int = 0
    # --- data integrity (all zero when corruption is disabled) ----------
    corruptions: int = 0
    corrupt_reads_served: int = 0
    quarantined: int = 0
    undetected_at_horizon: int = 0
    corrupt_servable_after_repair: int = 0
    mean_time_to_detect_s: float = 0.0
    mean_time_to_repair_s: float = 0.0
    # --- replica migration (all defaults when migration is disabled) ----
    migration_moves: int = 0
    migration_failed_moves: int = 0
    #: data-plane availability over accesses made while at least one
    #: migration copy was in flight (1.0 with no such accesses) — the
    #: "migration must not starve reads" number
    availability_during_migration: float = 1.0
    #: minimum servable-replicas/budget ratio at any move settle point
    #: (1.0 when no move ran; >= 1.0 means copy-first held everywhere)
    min_mid_move_redundancy: float = 1.0
    # --- network partitions (all defaults when partitions are disabled) -
    partitions: int = 0
    #: resolves answered from a stale federated view while the owning
    #: shard was unreachable (the ``alloc.resolve.degraded`` counter)
    degraded_serves: int = 0
    degraded_serve_ratio: float = 0.0
    #: served/(served+failed) over accesses made from each partition side
    #: while a split was active (1.0 with no such accesses)
    minority_acceptance: float = 1.0
    majority_acceptance: float = 1.0
    #: mean virtual time from each heal to the first all-clear audit
    time_to_reconverge_s: float = 0.0
    #: un-replayed handoff hints plus datasets missing from the catalog
    #: at the horizon — must be 0 after reconciliation
    divergence_after_heal: int = 0
    # --- peer-assisted delivery (all defaults when the tier is off) ------
    peers_admitted: int = 0
    peer_serves: int = 0
    #: peer serves / (peer serves + repository serves) — the fraction of
    #: read traffic the ephemeral edge absorbed (0.0 with the tier off)
    peer_offload_ratio: float = 0.0
    peer_leases_expired: int = 0
    #: node-level departures from the peer population (churn events plus
    #: crash/outage-driven evictions)
    peer_leaves: int = 0

    def lines(self) -> List[str]:
        """Human-readable report, one finding per line."""
        lat = self.repair_latency_s
        lat_txt = (
            f"p50={lat.get('p50', 0.0):.0f}s p95={lat.get('p95', 0.0):.0f}s "
            f"max={lat.get('max', 0.0):.0f}s"
            if lat
            else "n/a (no disruptions)"
        )
        return [
            f"chaos campaign: {self.horizon_s:.0f}s horizon, "
            f"{self.members} members, {self.datasets} datasets",
            f"injected: {self.crashes} crashes, {self.outages} outages, "
            f"{self.slowlinks} slow links",
            f"requests: {self.requests} ({self.served} served, "
            f"{self.failed} failed, {self.denied} denied)",
            f"availability={self.availability:.4f} failovers={self.failovers} "
            f"transfers_failed={self.transfers_failed}",
            f"repairs: {self.repairs_created} replicas created, "
            f"latency {lat_txt}, {self.unrepaired_disruptions} unrepaired at horizon",
            f"post_repair_redundancy={self.post_repair_redundancy:.4f}",
            f"corruption: {self.corruptions} events, "
            f"{self.corrupt_reads_served} corrupt reads served, "
            f"{self.quarantined} quarantined, "
            f"{self.undetected_at_horizon} undetected at horizon",
            f"integrity: corrupt_servable_after_repair="
            f"{self.corrupt_servable_after_repair} "
            f"mttd={self.mean_time_to_detect_s:.0f}s "
            f"mttr={self.mean_time_to_repair_s:.0f}s",
            f"migration: {self.migration_moves} moves "
            f"({self.migration_failed_moves} failed), "
            f"availability_during_migration="
            f"{self.availability_during_migration:.4f}, "
            f"min_mid_move_redundancy={self.min_mid_move_redundancy:.4f}",
            f"partitions: {self.partitions} episodes, "
            f"{self.degraded_serves} degraded serves "
            f"(ratio={self.degraded_serve_ratio:.4f})",
            f"partition acceptance: minority={self.minority_acceptance:.4f} "
            f"majority={self.majority_acceptance:.4f}, "
            f"time_to_reconverge={self.time_to_reconverge_s:.0f}s, "
            f"divergence_after_heal={self.divergence_after_heal}",
            f"peer tier: {self.peers_admitted} leases admitted, "
            f"{self.peer_serves} serves "
            f"(offload={self.peer_offload_ratio:.4f}), "
            f"{self.peer_leases_expired} expired, {self.peer_leaves} leaves",
            f"unhandled_exceptions={self.unhandled_exceptions}",
        ]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON emission (nested fields included).

        Uses :func:`dataclasses.asdict`, so the ``repair_latency_s``
        mapping is deep-copied — mutating the result never touches the
        (frozen) report.
        """
        return asdict(self)


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {}
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def run_chaos_campaign(
    net: "SCDN",
    config: ChaosConfig,
    *,
    seed: SeedLike = None,
) -> ChaosReport:
    """Run one chaos campaign against a freshly built deployment.

    ``net`` must be an :class:`~repro.scdn.SCDN` with **no members yet**:
    the campaign joins ``config.members`` members (alphabetical over the
    trusted graph), publishes ``config.datasets`` datasets, wires a fully
    attached failure injector (liveness oracle + migration + repair
    audits), schedules the crash/outage/slow-link schedules and a
    round-robin read workload, runs the engine to the horizon, performs a
    final repair audit, and reduces everything to a :class:`ChaosReport`.

    Library errors inside workload ticks are expected degradation and are
    counted (failed/denied); any *other* exception increments
    ``unhandled_exceptions`` — a campaign with a nonzero count is a bug.
    """
    from ..ids import AuthorId, DatasetId, NodeId

    if net.clients:
        raise ConfigurationError("run_chaos_campaign needs an SCDN with no members")
    rng = make_rng(seed)
    fail_rng, workload_rng = spawn(rng, 2)

    obs = net.obs
    m_requests = obs.counter("chaos.requests", help="segment accesses attempted")
    m_served = obs.counter("chaos.served", help="segment accesses served")
    m_failed = obs.counter("chaos.failed", help="segment accesses failed")
    m_denied = obs.counter("chaos.denied", help="dataset accesses denied by policy")
    m_unhandled = obs.counter(
        "chaos.unhandled_exceptions", help="non-library errors in workload ticks"
    )
    m_repair_latency = obs.histogram(
        "chaos.repair.latency_s",
        help="virtual time from a disruption to the audit confirming full budget",
    )
    g_availability = obs.gauge(
        "chaos.availability", help="served / (served + failed) at campaign end"
    )

    # --- peer tier (before membership: joining clients get wired) ---------
    peers = None
    if config.peer_tier:
        peers = net.enable_peer_tier(
            lease_ttl_s=config.peer_lease_ttl_s,
            cache_segments=config.peer_cache_segments,
            max_concurrent_serves=config.peer_max_concurrent_serves,
        )

    # --- membership and content ------------------------------------------
    authors = [AuthorId(a) for a in sorted(net.graph.nodes())[: config.members]]
    if len(authors) < 2:
        raise ConfigurationError("trusted graph too small for a campaign")
    owners = authors[: max(1, len(authors) // 4)]
    if config.publish_before_join:
        # Owners (the data hosts) join roomy first so every replica pins
        # to an owner node; the crowd joins after publication below.
        for author in owners:
            net.join(author)
    else:
        for author in authors:
            net.join(author, capacity_bytes=config.member_capacity_bytes)
    dataset_ids: List[str] = []
    for i in range(config.datasets):
        owner = owners[i % len(owners)]
        ds_id = f"chaos-data-{i}"
        net.publish(
            owner,
            ds_id,
            config.dataset_size_bytes,
            n_segments=config.segments_per_dataset,
            n_replicas=config.n_replicas,
        )
        dataset_ids.append(ds_id)
    if config.publish_before_join:
        for author in authors[len(owners):]:
            net.join(author, capacity_bytes=config.member_capacity_bytes)

    # --- failure schedule -------------------------------------------------
    injector = net.failure_injector(
        seed=fail_rng, repair_delay_s=config.repair_delay_s
    )
    net.replication.audit_interval_s = config.audit_interval_s
    net.replication.attach(net.engine)
    crashes = injector.random_crashes(config.crash_rate_per_node_s, config.horizon_s)
    outages = injector.random_outages(
        config.outage_rate_per_node_s,
        config.outage_mean_duration_s,
        config.horizon_s,
    )
    slowlinks = injector.random_slow_links(
        config.slowlink_rate_per_node_s,
        config.slowlink_mean_duration_s,
        config.horizon_s,
        net.network,
        factor=config.slowlink_factor,
    )
    # corruption, then partition, draws sit at the tail of the injector's
    # stream in that order: a zero rate draws nothing, so disabling the
    # newer knobs reproduces older campaigns bit for bit
    corruptions = injector.random_corruptions(
        config.corruption_rate_per_node_s, config.horizon_s
    )
    partitions = injector.random_partitions(
        config.partition_rate_s,
        config.partition_mean_duration_s,
        config.horizon_s,
        net.network,
        fraction=config.partition_fraction,
    )
    # peer-churn draws close the injector's stream: a disabled tier (or a
    # zero rate) draws nothing, so peer-off configs reproduce earlier
    # campaigns bit for bit
    peer_churn_events = 0
    if peers is not None:
        peer_churn_events = injector.random_peer_leaves(
            config.peer_leave_rate_s, config.horizon_s, peers
        )
    scrubber = None
    if config.scrub_enabled:
        scrubber = net.integrity_scrubber(
            scrub_interval_s=config.scrub_interval_s,
            repair_delay_s=config.repair_delay_s,
        )
        scrubber.attach(net.engine)
    # migration draws come after corruption, and only when enabled: a
    # disabled engine consumes nothing from the campaign stream
    migration = None
    if config.migration_enabled:
        from ..cdn.migration import MigrationConfig

        (migration_rng,) = spawn(rng, 1)
        migration = net.migration_engine(
            config=MigrationConfig(
                interval_s=config.migration_interval_s,
                hot_rate_per_s=config.migration_hot_rate_per_s,
            ),
            seed=migration_rng,
        )
        migration.attach(net.engine)

    # --- workload ---------------------------------------------------------
    counts = {"unhandled": 0}
    m_mig_served = obs.counter(
        "chaos.migration_window.served",
        help="accesses served while a migration copy was in flight",
    )
    m_mig_failed = obs.counter(
        "chaos.migration_window.failed",
        help="accesses failed while a migration copy was in flight",
    )
    m_side = {
        (side, ok): obs.counter(
            f"chaos.partition.{side}.{'served' if ok else 'failed'}",
            help=f"accesses {'served' if ok else 'failed'} from the "
            f"{side} side of an active partition",
        )
        for side in ("minority", "majority")
        for ok in (True, False)
    }

    def tick(engine) -> None:
        author = authors[int(workload_rng.integers(len(authors)))]
        ds_id = dataset_ids[int(workload_rng.integers(len(dataset_ids)))]
        in_window = migration is not None and migration.executor.in_flight > 0
        side = injector.partition_side(NodeId(str(author)))
        try:
            outcomes = net.access(author, ds_id)
        except ReproError as exc:
            # authorization/session refusals are policy working as designed
            m_denied.inc()
            if side is not None and isinstance(exc, CatalogError):
                # ...but a requester a partition cut off from every replica
                # is an availability loss its side's acceptance must see
                m_side[(side, False)].inc()
            return
        except Exception:
            counts["unhandled"] += 1
            m_unhandled.inc()
            return
        for outcome in outcomes:
            m_requests.inc()
            if outcome.ok:
                m_served.inc()
                if in_window:
                    m_mig_served.inc()
            else:
                m_failed.inc()
                if in_window:
                    m_mig_failed.inc()
            if side is not None:
                m_side[(side, outcome.ok)].inc()

    net.engine.every(config.effective_request_interval_s, tick, label="chaos-traffic")

    # --- run --------------------------------------------------------------
    net.engine.run(until=config.horizon_s)
    if net.network.partitioned:
        # a split spanning the horizon heals at the cut: rejoin the
        # network and reconcile so the final audit judges a converged
        # control plane, not a partition frozen mid-flight
        net.network.heal()
        reconcile = getattr(net.server, "reconcile_after_heal", None)
        if callable(reconcile):
            reconcile(at=config.horizon_s)
    if migration is not None:
        # settle copies the horizon cut mid-flight before the final audit
        # judges redundancy
        migration.quiesce(at=config.horizon_s)
    if scrubber is not None:
        # final sweep: quarantine any rot the periodic cadence missed,
        # then let the final audit below repair the shortage
        scrubber.scrub(at=config.horizon_s)
    final_report = net.replication.audit(at=config.horizon_s)
    net.sync_usage()

    # --- repair latency: first all-clear audit after each disruption ------
    # audits are appended in engine-time order, so the all-clear times are
    # sorted and one vectorized searchsorted replaces a linear scan per
    # disruption (the scans were O(events x audits) on long campaigns)
    clear_times = np.asarray(
        [r.time for r in net.replication.reports if r.under_replicated == 0],
        dtype=np.float64,
    )
    disruptions = np.asarray(
        [
            e.time
            for e in injector.history
            if e.kind in ("crash", "outage-start")
        ],
        dtype=np.float64,
    )
    cleared_idx = np.searchsorted(clear_times, disruptions, side="left")
    repaired_mask = cleared_idx < len(clear_times)
    unrepaired = int((~repaired_mask).sum())
    latencies: List[float] = [
        float(x)
        for x in clear_times[cleared_idx[repaired_mask]] - disruptions[repaired_mask]
    ]
    for latency in latencies:
        m_repair_latency.observe(latency)

    # --- data integrity ---------------------------------------------------
    # detection = the scrubber quarantining the rotted copy; repair = the
    # first all-clear audit at or after detection. Corrupt copies on
    # crashed/offline nodes at the horizon count as undetected (a scrubber
    # cannot read a disk that is down).
    # random_corruptions() returns *scheduled* events; an event only lands
    # (and emits) when its node is alive and hosts something at fire time,
    # so the report counts landed rot — the number the quarantine and
    # undetected tallies must reconcile against
    corruptions_landed = sum(1 for e in injector.history if e.kind == "corrupt")
    corrupt_reads_served = sum(c.stats.corrupt_reads for c in net.clients.values())
    detect_latencies: List[float] = []
    integrity_repair_latencies: List[float] = []
    undetected = 0
    # quarantine log entries are chronological too: index them per
    # (node, segment) so each corrupt event does one binary search
    # instead of rescanning the whole log
    qtimes: Dict[Tuple[object, object], np.ndarray] = {}
    if scrubber is not None:
        grouped: Dict[Tuple[object, object], List[float]] = {}
        for t, node, seg in scrubber.quarantine_log:
            grouped.setdefault((node, seg), []).append(t)
        qtimes = {k: np.asarray(v, dtype=np.float64) for k, v in grouped.items()}
    for event in injector.history:
        if event.kind != "corrupt":
            continue
        times = qtimes.get((event.node, event.segment))
        i = np.searchsorted(times, event.time, side="left") if times is not None else 0
        if times is None or i == len(times):
            undetected += 1
            continue
        detected_at = float(times[i])
        detect_latencies.append(detected_at - event.time)
        j = np.searchsorted(clear_times, detected_at, side="left")
        if j < len(clear_times):
            integrity_repair_latencies.append(float(clear_times[j]) - event.time)
    quarantined_total = (
        scrubber.total_quarantined() if scrubber is not None else 0
    )
    corrupt_servable = sum(
        1
        for rep in net.server.catalog.iter_replicas()
        if rep.servable
        and net.server.is_online(rep.node_id)
        and not net.server.replica_verified(rep)
    )

    # --- post-repair redundancy ------------------------------------------
    ratios: List[float] = []
    catalog = net.server.catalog
    for ds in catalog.datasets():
        budget = net.server.replica_budget(ds.dataset_id)
        for seg in ds.segments:
            live = [
                r
                for r in catalog.replicas_of_segment(seg.segment_id, servable_only=True)
                if net.server.is_online(r.node_id)
            ]
            ratios.append(min(len(live) / budget, 1.0))
    redundancy = float(np.mean(ratios)) if ratios else 1.0

    snapshot = obs.snapshot()
    served = snapshot["counters"]["chaos.served"]["value"]
    failed = snapshot["counters"]["chaos.failed"]["value"]
    denied = snapshot["counters"]["chaos.denied"]["value"]
    requests = snapshot["counters"]["chaos.requests"]["value"]
    failovers = snapshot["counters"]["alloc.resolve.failover"]["value"]
    transfers_failed = snapshot["counters"]["transfer.failed"]["value"]
    repairs = snapshot["counters"]["alloc.repair.replicas"]["value"]
    availability = served / (served + failed) if (served + failed) else 1.0
    g_availability.set(availability)
    mig_served = snapshot["counters"]["chaos.migration_window.served"]["value"]
    mig_failed = snapshot["counters"]["chaos.migration_window.failed"]["value"]
    mig_avail = (
        mig_served / (mig_served + mig_failed)
        if (mig_served + mig_failed)
        else 1.0
    )
    min_mid_move = 1.0
    if migration is not None and migration.min_mid_move_redundancy is not None:
        min_mid_move = migration.min_mid_move_redundancy

    # --- partition tolerance ----------------------------------------------
    degraded_serves = snapshot["counters"]["alloc.resolve.degraded"]["value"]
    degraded_ratio = degraded_serves / served if served else 0.0

    # --- peer tier --------------------------------------------------------
    # peer.* counters only exist when the tier was enabled; read defensively
    # so peer-off reports stay all-default
    def _peer_counter(name: str) -> int:
        entry = snapshot["counters"].get(name)
        return int(entry["value"]) if entry else 0

    peers_admitted = _peer_counter("peer.admitted")
    peer_serves = _peer_counter("peer.serves")
    repo_serves = _peer_counter("alloc.serves.repository")
    peer_offload = (
        peer_serves / (peer_serves + repo_serves)
        if (peer_serves + repo_serves)
        else 0.0
    )

    def _acceptance(side: str) -> float:
        s = snapshot["counters"][f"chaos.partition.{side}.served"]["value"]
        f = snapshot["counters"][f"chaos.partition.{side}.failed"]["value"]
        return s / (s + f) if (s + f) else 1.0

    # reconvergence: first all-clear audit at or after each heal; a heal
    # with no later all-clear counts its remaining horizon as a lower bound
    heal_times = np.unique(
        np.asarray(
            [e.time for e in injector.history if e.kind == "partition-end"],
            dtype=np.float64,
        )
    )
    heal_idx = np.searchsorted(clear_times, heal_times, side="left")
    reconverge: List[float] = []
    for t, i in zip(heal_times, heal_idx):
        cleared = float(clear_times[i]) if i < len(clear_times) else config.horizon_s
        reconverge.append(max(cleared - float(t), 0.0))
    pending = getattr(net.server, "pending_handoff", None)
    divergence = len(pending()) if callable(pending) else 0
    divergence += sum(
        1 for ds_id in dataset_ids if DatasetId(ds_id) not in net.server.catalog
    )

    obs.trace(
        "chaos_report",
        ts=config.horizon_s,
        availability=availability,
        failovers=failovers,
        redundancy=redundancy,
        unrepaired=unrepaired,
        final_under_replicated=final_report.under_replicated,
        corruptions=corruptions_landed,
        corruptions_scheduled=corruptions,
        corrupt_reads_served=corrupt_reads_served,
        corrupt_servable_after_repair=corrupt_servable,
        partitions=partitions,
        degraded_serves=degraded_serves,
        divergence_after_heal=divergence,
        peers_admitted=peers_admitted,
        peer_serves=peer_serves,
        peer_offload_ratio=peer_offload,
        peer_churn_scheduled=peer_churn_events,
    )

    return ChaosReport(
        horizon_s=config.horizon_s,
        members=len(authors),
        datasets=len(dataset_ids),
        requests=requests,
        served=served,
        failed=failed,
        denied=denied,
        availability=availability,
        failovers=failovers,
        transfers_failed=transfers_failed,
        crashes=crashes,
        outages=outages,
        slowlinks=slowlinks,
        repairs_created=repairs,
        repair_latency_s=_percentiles(latencies),
        unrepaired_disruptions=unrepaired,
        post_repair_redundancy=redundancy,
        unhandled_exceptions=counts["unhandled"],
        corruptions=corruptions_landed,
        corrupt_reads_served=corrupt_reads_served,
        quarantined=quarantined_total,
        undetected_at_horizon=undetected,
        corrupt_servable_after_repair=corrupt_servable,
        mean_time_to_detect_s=(
            float(np.mean(detect_latencies)) if detect_latencies else 0.0
        ),
        mean_time_to_repair_s=(
            float(np.mean(integrity_repair_latencies))
            if integrity_repair_latencies
            else 0.0
        ),
        migration_moves=migration.total_completed if migration else 0,
        migration_failed_moves=migration.total_failed if migration else 0,
        availability_during_migration=mig_avail,
        min_mid_move_redundancy=min_mid_move,
        partitions=partitions,
        degraded_serves=degraded_serves,
        degraded_serve_ratio=degraded_ratio,
        minority_acceptance=_acceptance("minority"),
        majority_acceptance=_acceptance("majority"),
        time_to_reconverge_s=float(np.mean(reconverge)) if reconverge else 0.0,
        divergence_after_heal=divergence,
        peers_admitted=peers_admitted,
        peer_serves=peer_serves,
        peer_offload_ratio=peer_offload,
        peer_leases_expired=_peer_counter("peer.lease.expired"),
        peer_leaves=_peer_counter("peer.leaves"),
    )
