"""Command-line interface: regenerate the paper's artifacts from a shell.

Subcommands::

    repro generate  --out corpus.json [--seed N]     synthesize a corpus
    repro table1    [--corpus F] [--seed-author A]   Table I rows
    repro fig2      [--corpus F]                     topology summaries
    repro fig3      [--corpus F] [--runs N]          hit-rate curves
    repro simulate  [--members N] [--days D]         live S-CDN metrics
    repro obs       [--members N] [--days D] [--json F]  observability report
    repro chaos     [--horizon S] [--seed N]         chaos campaign + report
    repro scrub     [--corrupt K] [--seed N]         bit-rot + scrubber check
    repro migrate   [--migrate-seed N]               demand-shift migration check
    repro partition [--partition-seed N]             community-split partition check
    repro flashcrowd [--flash-seed N] [--quick]      flash-crowd peer-tier check

All subcommands accept ``--corpus`` (a JSON file from ``repro generate``
or :func:`repro.social.io.save_corpus`); without it a synthetic corpus is
generated on the fly (``--seed`` controls it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .ids import AuthorId
from .social import generate_corpus
from .social.io import load_corpus, save_corpus
from .social.metrics import graph_summary
from .social.records import Corpus
from .social.trust import paper_trust_heuristics
from .social.ego import ego_corpus
from .casestudy import CaseStudyConfig, run_case_study


def _get_corpus(args) -> Tuple[Corpus, AuthorId]:
    if args.corpus:
        corpus = load_corpus(args.corpus)
        if not args.seed_author:
            raise SystemExit("--seed-author is required with --corpus")
        seed_author = AuthorId(args.seed_author)
        if seed_author not in corpus.author_ids:
            raise SystemExit(f"seed author {seed_author!r} not in corpus")
        return corpus, seed_author
    corpus, seed_author = generate_corpus(seed=args.seed)
    if args.seed_author:
        seed_author = AuthorId(args.seed_author)
    return corpus, seed_author


def cmd_generate(args) -> int:
    """`repro generate`: synthesize a corpus and save it as JSON."""
    corpus, seed_author = generate_corpus(seed=args.seed)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} publications / {len(corpus.author_ids)} authors "
          f"to {args.out} (ego seed: {seed_author})")
    return 0


def cmd_table1(args) -> int:
    """`repro table1`: print the Table I rows of the trust subgraphs."""
    corpus, seed_author = _get_corpus(args)
    ego = ego_corpus(corpus, seed_author, hops=args.hops)
    print(f"{'graph':<22} {'nodes':>7} {'pubs':>7} {'edges':>8}")
    for h in paper_trust_heuristics():
        name, nodes, pubs, edges = h.prune(ego, seed=seed_author).table_row()
        print(f"{name:<22} {nodes:>7} {pubs:>7} {edges:>8}")
    return 0


def cmd_fig2(args) -> int:
    """`repro fig2`: print topology summaries per trust subgraph."""
    corpus, seed_author = _get_corpus(args)
    ego = ego_corpus(corpus, seed_author, hops=args.hops)
    header = ("graph", "nodes", "edges", "islands", "span", "mean_deg")
    print(("{:<22}" + "{:>9}" * 5).format(*header))
    for h in paper_trust_heuristics():
        sub = h.prune(ego, seed=seed_author)
        s = graph_summary(sub.graph)
        print(f"{sub.name:<22}{s.n_nodes:>9}{s.n_edges:>9}{s.n_islands:>9}"
              f"{s.max_span:>9}{s.mean_degree:>9.2f}")
    return 0


def cmd_fig3(args) -> int:
    """`repro fig3`: run the placement sweep and print hit-rate curves."""
    from .casestudy.reporting import ascii_chart, curves_csv

    corpus, seed_author = _get_corpus(args)
    config = CaseStudyConfig(n_runs=args.runs, hops=args.hops)
    result = run_case_study(corpus, seed_author, config=config, seed=args.study_seed)
    for panel in result.subgraphs:
        if args.csv:
            print(curves_csv(panel))
            continue
        print(f"\n{panel.subgraph.name} (hit rate %, replicas "
              f"{config.replica_counts[0]}..{config.replica_counts[-1]})")
        for name, curve in panel.curves.items():
            series = " ".join(f"{v:5.1f}" for v in curve.mean_hit_rate_pct)
            print(f"  {name:<24} {series}")
        print(f"  winner: {panel.best_algorithm()}")
        if args.chart:
            print(ascii_chart(panel))
    return 0


def _run_live_scdn(args, registry=None):
    """Build and run the small live S-CDN shared by ``simulate`` and ``obs``.

    Returns ``(net, horizon_s)`` with the simulation already run and usage
    synced into the collector.
    """
    from .scdn import SCDN, SCDNConfig
    from .social.trust import MinCoauthorshipTrust

    corpus, seed_author = _get_corpus(args)
    ego = ego_corpus(corpus, seed_author, hops=2)
    trusted = MinCoauthorshipTrust(2).prune(ego, seed=seed_author)
    net = SCDN(trusted.graph, config=SCDNConfig(), seed=args.seed, registry=registry)
    members = [AuthorId(a) for a in sorted(trusted.graph.nodes())[: args.members]]
    for m in members:
        net.join(m)
    for i, owner in enumerate(members[: max(1, args.members // 5)]):
        net.publish(owner, f"data-{i}", 10_000_000, n_segments=2)
    horizon = args.days * 86_400.0
    # simple periodic traffic
    import itertools

    cycle = itertools.cycle(members)

    def traffic(e):
        a = next(cycle)
        try:
            net.access(a, "data-0")
        except Exception:
            pass

    net.engine.every(horizon / (10 * len(members)), traffic)
    net.engine.run(until=horizon)
    net.sync_usage()
    return net, horizon


def cmd_simulate(args) -> int:
    """`repro simulate`: run a live S-CDN and print both metric suites."""
    from .metrics import compute_cdn_metrics, compute_social_metrics

    net, horizon = _run_live_scdn(args)
    members = net.clients
    cdn = compute_cdn_metrics(net.collector, horizon_s=horizon)
    social = compute_social_metrics(net.collector)
    print(f"members={len(members)} requests={cdn.n_requests}")
    print(f"availability={cdn.availability:.3f} "
          f"success={cdn.request_success_ratio:.3f} "
          f"mean_rt={cdn.mean_response_time_s:.2f}s")
    print(f"exchanges={social.n_exchanges} "
          f"volume={social.transaction_volume_bytes / 1e6:.1f}MB "
          f"freeriders={social.freerider_ratio:.2f}")
    return 0


def cmd_obs(args) -> int:
    """`repro obs`: run a live S-CDN and print its observability report.

    The run uses a fresh (non-global) registry so the report reflects this
    run only. ``--json`` additionally exports the snapshot for later
    ingestion by :meth:`repro.metrics.MetricsCollector.ingest_obs_snapshot`
    or side-by-side storage with ``BENCH_*.json`` artifacts.
    """
    from .obs import Registry, render_report

    registry = Registry(trace_capacity=args.trace_capacity)
    net, horizon = _run_live_scdn(args, registry=registry)
    snapshot = net.obs_snapshot()
    hits = snapshot["counters"].get("alloc.hop_cache.hits", {"value": 0})["value"]
    misses = snapshot["counters"].get("alloc.hop_cache.misses", {"value": 0})["value"]
    total = hits + misses
    print(f"simulated {args.days} day(s), {len(net.clients)} members, "
          f"horizon {horizon:.0f}s")
    if total:
        print(f"hop-cache hit rate: {hits}/{total} ({100.0 * hits / total:.1f}%)")
    print()
    print(render_report(snapshot, trace_tail=args.trace, bars=args.bars))
    if args.json:
        try:
            registry.to_json(args.json)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote obs snapshot to {args.json}")
    return 0


def cmd_chaos(args) -> int:
    """`repro chaos`: run a fault-injection campaign and print the
    degradation report.

    Builds the same quickstart-sized deployment as ``simulate``/``obs``
    (fresh registry), injects Poisson-scheduled crashes, outages, and
    slow links alongside a read workload, and prints availability,
    failover counts, repair latency, and post-repair redundancy. Exit
    status is 0 only if the campaign ran without unhandled exceptions
    AND post-repair redundancy reached ``--min-redundancy`` — so the
    command doubles as a CI smoke test for the fault-tolerance path.

    With ``--grid N`` the single campaign becomes an N-seed grid
    (seeds derived from ``--chaos-seed`` via ``seed_grid``) fanned over
    ``--workers`` processes on a :class:`~repro.sim.campaign.
    CampaignExecutor`; the pooled aggregate is printed and gated
    instead.
    """
    import json as _json

    from .obs import Registry
    from .scdn import SCDN, SCDNConfig
    from .sim.chaos import ChaosConfig, run_chaos_campaign
    from .social.trust import MinCoauthorshipTrust

    config = ChaosConfig(
        horizon_s=args.horizon,
        members=args.members,
        crash_rate_per_node_s=args.crash_rate,
        outage_rate_per_node_s=args.outage_rate,
        slowlink_rate_per_node_s=args.slowlink_rate,
        repair_delay_s=args.repair_delay,
        corruption_rate_per_node_s=args.corruption_rate,
        scrub_interval_s=args.scrub_interval,
        scrub_enabled=not args.no_scrub,
        partition_rate_s=args.partition_rate,
        partition_mean_duration_s=args.partition_duration,
        partition_fraction=args.partition_fraction,
        peer_tier=args.peer_tier,
        peer_leave_rate_s=args.peer_leave_rate,
    )
    if args.flash_graph:
        # The flash-crowd topology (far origin clique bridged to a dense
        # crowd clique) with replicas pinned on the owners is the
        # deployment where the peer tier has social room to serve: late
        # joiners are strictly closer to each other than to any replica.
        from dataclasses import replace as _replace

        if args.grid:
            print(
                "error: --flash-graph runs a single fixed deployment; "
                "--grid is not supported",
                file=sys.stderr,
            )
            return 2
        config = _replace(
            config,
            members=13,
            datasets=2,
            segments_per_dataset=2,
            n_replicas=3,
            member_capacity_bytes=20_000_000,
            publish_before_join=True,
        )

    if args.grid:
        from dataclasses import asdict

        from .sim.campaign import (
            CampaignConfig,
            run_campaign_parallel,
            seed_grid,
        )

        if args.corpus:
            print(
                "error: --grid builds its deployment from --seed "
                "(generated corpus); --corpus is not supported",
                file=sys.stderr,
            )
            return 2
        cfg = CampaignConfig(
            chaos=config,
            corpus_seed=args.seed,
            deployment_seed=args.seed,
            ego_hops=2,
        )
        result = run_campaign_parallel(
            cfg,
            seed_grid(args.chaos_seed, args.grid),
            workers=args.workers,
            start_method=args.start_method,
        )
        for line in result.lines():
            print(line)
        agg = result.aggregate
        if args.json:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(
                        {
                            "seeds": list(result.seeds),
                            "workers": result.workers,
                            "wall_clock_s": result.wall_clock_s,
                            "aggregate": asdict(agg),
                        },
                        fh,
                        indent=2,
                        default=str,
                    )
            except OSError as exc:
                print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
                return 2
            print(f"wrote campaign aggregate to {args.json}")
        ok = (
            agg.unhandled_exceptions == 0
            and agg.mean_post_repair_redundancy >= args.min_redundancy
        )
        if not ok:
            print(
                f"FAIL: unhandled={agg.unhandled_exceptions} "
                f"mean_redundancy={agg.mean_post_repair_redundancy:.4f} "
                f"(need 0 and >= {args.min_redundancy})",
                file=sys.stderr,
            )
        return 0 if ok else 1

    registry = Registry()
    if args.flash_graph:
        from .sim.scenarios import _flash_network, flash_crowd_graph

        graph = flash_crowd_graph()
        net = SCDN(
            graph,
            config=SCDNConfig(proximity_hops=6),
            seed=args.seed,
            registry=registry,
            network=_flash_network(graph),
        )
    else:
        corpus, seed_author = _get_corpus(args)
        ego = ego_corpus(corpus, seed_author, hops=2)
        trusted = MinCoauthorshipTrust(2).prune(ego, seed=seed_author)
        net = SCDN(
            trusted.graph, config=SCDNConfig(), seed=args.seed, registry=registry
        )
    report = run_chaos_campaign(net, config, seed=args.chaos_seed)
    for line in report.lines():
        print(line)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(
                    {"report": report.to_dict(), "obs": net.obs_snapshot()},
                    fh,
                    indent=2,
                    default=str,
                )
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote chaos report to {args.json}")
    ok = (
        report.unhandled_exceptions == 0
        and report.post_repair_redundancy >= args.min_redundancy
        and report.corrupt_servable_after_repair == 0
        and report.divergence_after_heal == 0
        and (
            args.min_offload is None
            or report.peer_offload_ratio > args.min_offload
        )
    )
    if not ok:
        print(
            f"FAIL: unhandled={report.unhandled_exceptions} "
            f"redundancy={report.post_repair_redundancy:.4f} "
            f"corrupt_servable={report.corrupt_servable_after_repair} "
            f"divergence_after_heal={report.divergence_after_heal} "
            f"peer_offload={report.peer_offload_ratio:.4f} "
            f"(need 0, >= {args.min_redundancy}, 0, 0"
            + (
                f", and > {args.min_offload})"
                if args.min_offload is not None
                else ")"
            ),
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_scrub(args) -> int:
    """`repro scrub`: rot a few replicas, run the integrity scrubber, and
    verify detection + repair.

    Builds the quickstart deployment, publishes datasets, deterministically
    corrupts ``--corrupt`` on-disk copies (seeded pick over the sorted copy
    list), runs one scrub pass (which quarantines the rot and triggers a
    repair audit), and reports. Exit status is 0 only if every injected
    corruption was quarantined, redundancy is fully restored, and no
    servable replica fails verification — a CI smoke test for the
    end-to-end integrity path.
    """
    from .errors import ConfigurationError
    from .obs import Registry
    from .rng import make_rng
    from .scdn import SCDN, SCDNConfig
    from .social.trust import MinCoauthorshipTrust

    if args.corrupt < 0:
        raise ConfigurationError("--corrupt must be >= 0")
    registry = Registry()
    corpus, seed_author = _get_corpus(args)
    ego = ego_corpus(corpus, seed_author, hops=2)
    trusted = MinCoauthorshipTrust(2).prune(ego, seed=seed_author)
    net = SCDN(trusted.graph, config=SCDNConfig(), seed=args.seed, registry=registry)
    members = [AuthorId(a) for a in sorted(trusted.graph.nodes())[: args.members]]
    for m in members:
        net.join(m)
    for i, owner in enumerate(members[: max(1, args.members // 5)]):
        net.publish(owner, f"data-{i}", 10_000_000, n_segments=2)

    copies = []
    for author in sorted(net.clients):
        repo = net.clients[author].repository
        for seg in sorted(repo.hosted_segments()):
            copies.append((repo, seg))
    if not copies:
        print("error: no replicas on disk, nothing to scrub", file=sys.stderr)
        return 2
    rng = make_rng(args.scrub_seed)
    k = min(args.corrupt, len(copies))
    picks = sorted(int(i) for i in rng.choice(len(copies), size=k, replace=False))
    for i in picks:
        repo, seg = copies[i]
        repo.corrupt_replica(seg, at=0.0)
        print(f"corrupted {seg} on {repo.node_id}")

    scrubber = net.integrity_scrubber()
    pass_report = scrubber.scrub(at=0.0)  # quarantines + triggers repair audit
    audit = net.replication.reports[-1] if net.replication.reports else None
    leftover = scrubber.corrupt_servable()
    print(
        f"scrub: checked {pass_report.replicas_checked} replicas on "
        f"{pass_report.nodes_scanned} nodes, found {pass_report.corrupt_found}, "
        f"quarantined {pass_report.quarantined}"
    )
    if audit is not None:
        print(
            f"repair audit: {audit.repaired} replicas re-created, "
            f"{audit.under_replicated} segments still under budget"
        )
    print(f"corrupt servable after repair: {len(leftover)}")
    # with nothing injected, a clean pass (no quarantines, no rot, no
    # repair audit) is success, not a missing-audit failure
    ok = (
        pass_report.quarantined == k
        and (audit is not None or k == 0)
        and (audit is None or audit.under_replicated == 0)
        and not leftover
    )
    if not ok:
        print(
            f"FAIL: injected={k} quarantined={pass_report.quarantined} "
            f"under_replicated={audit.under_replicated if audit else 'n/a'} "
            f"corrupt_servable={len(leftover)}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_migrate(args) -> int:
    """`repro migrate`: run the demand-shift scenario with migration off
    and on, print the comparison, and verify the migration acceptance
    criteria.

    The scenario (:mod:`repro.sim.scenarios`) publishes datasets near
    their owner, shifts read demand to a far cluster, and swaps in a
    trust graph that drops one replica-holding host. Exit status is 0
    only if migration-on strictly reduces the post-shift mean access
    time, redundancy never dipped below budget mid-move, no move failed,
    and zero replicas remain on no-longer-trusted nodes — so the command
    doubles as a CI smoke test for the migration subsystem.
    """
    import json as _json

    from .sim.scenarios import compare_demand_shift

    off, on = compare_demand_shift(seed=args.migrate_seed)
    print(
        f"demand shift: {off.post_shift.accesses} post-shift accesses, "
        f"trust swap evicts {off.evicted_author}"
    )
    for r in (off, on):
        label = "migration on " if r.migration_enabled else "migration off"
        print(
            f"{label}: post-shift mean={r.post_shift.mean_duration_s * 1e3:.1f}ms "
            f"local={r.post_shift.local_hits}/{r.post_shift.accesses} "
            f"availability={r.post_shift.availability:.4f} "
            f"moves={r.moves_completed} failed={r.moves_failed} "
            f"untrusted_leftover={r.untrusted_leftover}"
        )
    if on.post_shift.accesses:
        delta = 1.0 - (
            on.post_shift.mean_duration_s / off.post_shift.mean_duration_s
            if off.post_shift.mean_duration_s
            else 1.0
        )
        print(f"post-shift mean access time reduced by {100.0 * delta:.1f}%")
    if args.json:
        payload = {
            "off": {
                "post_shift_mean_s": off.post_shift.mean_duration_s,
                "availability": off.post_shift.availability,
                "untrusted_leftover": off.untrusted_leftover,
            },
            "on": {
                "post_shift_mean_s": on.post_shift.mean_duration_s,
                "availability": on.post_shift.availability,
                "moves": on.moves_completed,
                "failed_moves": on.moves_failed,
                "min_mid_move_redundancy": on.min_mid_move_redundancy,
                "untrusted_leftover": on.untrusted_leftover,
            },
        }
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote migration comparison to {args.json}")
    ok = (
        on.post_shift.mean_duration_s < off.post_shift.mean_duration_s
        and on.moves_completed > 0
        and on.moves_failed == 0
        and on.min_mid_move_redundancy is not None
        and on.min_mid_move_redundancy >= 1.0
        and on.untrusted_leftover == 0
        and off.untrusted_leftover > 0
    )
    if not ok:
        print(
            f"FAIL: on_mean={on.post_shift.mean_duration_s:.6f} "
            f"off_mean={off.post_shift.mean_duration_s:.6f} "
            f"moves={on.moves_completed} failed={on.moves_failed} "
            f"min_redundancy={on.min_mid_move_redundancy} "
            f"leftover on={on.untrusted_leftover} off={off.untrusted_leftover}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_partition(args) -> int:
    """`repro partition`: run the community-split scenario with the split
    off and on, print the comparison, and verify the partition-tolerance
    acceptance criteria.

    The scenario (:mod:`repro.sim.scenarios`) publishes a dataset whose
    replicas spill from community B into community A, cuts B's core away
    from everyone else, keeps the majority reading through degraded
    resolves, parks a mid-partition publish in the handoff log, and
    reconciles at the heal. Exit status is 0 only if the majority side's
    acceptance stayed at or above ``--min-acceptance``, degraded serves
    actually happened, the parked publish replayed and resolved, and the
    healed run converged with zero divergence against the
    never-partitioned oracle — so the command doubles as a CI smoke test
    for the partition-tolerance path.
    """
    import json as _json

    from .sim.scenarios import compare_community_split

    off, on = compare_community_split(seed=args.partition_seed)
    print(
        f"community split: {on.minority.accesses} minority / "
        f"{on.majority.accesses} majority accesses while partitioned"
    )
    for r in (off, on):
        label = "split on " if r.partitions_enabled else "split off"
        print(
            f"{label}: minority_acceptance={r.minority.availability:.4f} "
            f"majority_acceptance={r.majority.availability:.4f} "
            f"degraded={r.degraded_serves} "
            f"handoff queued={r.handoff_queued} replayed={r.handoff_replayed} "
            f"divergence={r.divergence_after_heal} "
            f"late_served={r.late_dataset_served} lost={r.final_lost}"
        )
    if args.json:
        payload = {
            "off": {
                "divergence_after_heal": off.divergence_after_heal,
                "datasets_converged": off.datasets_converged,
                "final_lost": off.final_lost,
            },
            "on": {
                "minority_acceptance": on.minority.availability,
                "majority_acceptance": on.majority.availability,
                "degraded_serves": on.degraded_serves,
                "handoff_queued": on.handoff_queued,
                "handoff_replayed": on.handoff_replayed,
                "divergence_after_heal": on.divergence_after_heal,
                "late_dataset_served": on.late_dataset_served,
                "datasets_converged": on.datasets_converged,
                "final_lost": on.final_lost,
            },
        }
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote partition comparison to {args.json}")
    ok = (
        on.majority.availability >= args.min_acceptance
        and on.degraded_serves > 0
        and on.handoff_queued > 0
        and on.handoff_replayed == on.handoff_queued
        and on.divergence_after_heal == 0
        and on.late_dataset_served
        and on.final_lost == 0
        and on.datasets_converged == off.datasets_converged
        and off.divergence_after_heal == 0
    )
    if not ok:
        print(
            f"FAIL: majority_acceptance={on.majority.availability:.4f} "
            f"(need >= {args.min_acceptance}) degraded={on.degraded_serves} "
            f"queued={on.handoff_queued} replayed={on.handoff_replayed} "
            f"divergence={on.divergence_after_heal} "
            f"late_served={on.late_dataset_served} lost={on.final_lost}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_flashcrowd(args) -> int:
    """`repro flashcrowd`: run the flash-crowd scenario with the peer
    tier off and on, print the comparison, and verify the peer-tier
    acceptance criteria.

    The scenario (:mod:`repro.sim.scenarios`) spikes the request rate on
    one dataset by spike_factor x crowd (90x at the defaults) while every
    repository replica sits in a far, thin-linked origin clique. Exit
    status is 0 only if the peer tier offloaded at least
    ``--min-offload`` of the spike's serves from the origin, improved
    the spike p99 fetch time by at least ``--min-p99-speedup``, minted
    peers, and kept availability at 1.0 in both runs — so the command
    doubles as a CI smoke test for the peer-assisted delivery path.
    """
    import json as _json

    from .sim.scenarios import FlashCrowdConfig, compare_flash_crowd

    config = None
    if args.quick:
        # shorter phases, same shape: ~60 spike ticks instead of ~100
        config = FlashCrowdConfig(
            baseline_tick_interval_s=30.0,
            spike_at_s=300.0,
            horizon_s=480.0,
            spike_factor=args.spike_factor,
        )
    elif args.spike_factor != 10:
        config = FlashCrowdConfig(spike_factor=args.spike_factor)
    off, on = compare_flash_crowd(seed=args.flash_seed, config=config)
    print(
        f"flash crowd: {on.spike.accesses} spike accesses, "
        f"{on.spike_remote_fetches} remote fetches "
        f"(spike_factor={args.spike_factor})"
    )
    for r in (off, on):
        label = "peers on " if r.peer_tier_enabled else "peers off"
        print(
            f"{label}: spike p50={r.spike_fetch_p50_s * 1e3:.1f}ms "
            f"p99={r.spike_fetch_p99_s * 1e3:.1f}ms "
            f"offload={r.offload_ratio:.4f} "
            f"peer_hit_rate={r.peer_hit_rate:.4f} "
            f"admitted={r.peers_admitted} expired={r.peer_leases_expired} "
            f"availability={r.spike.availability:.4f}"
        )
    speedup = (
        off.spike_fetch_p99_s / on.spike_fetch_p99_s
        if on.spike_fetch_p99_s
        else float("inf")
    )
    print(f"spike p99 fetch time improved {speedup:.1f}x with the peer tier")
    if args.json:
        payload = {
            "off": {
                "spike_fetch_p99_s": off.spike_fetch_p99_s,
                "spike_remote_fetches": off.spike_remote_fetches,
                "availability": off.spike.availability,
            },
            "on": {
                "spike_fetch_p99_s": on.spike_fetch_p99_s,
                "spike_remote_fetches": on.spike_remote_fetches,
                "offload_ratio": on.offload_ratio,
                "peer_hit_rate": on.peer_hit_rate,
                "peers_admitted": on.peers_admitted,
                "peer_leases_expired": on.peer_leases_expired,
                "availability": on.spike.availability,
            },
            "p99_speedup": speedup,
        }
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote flash-crowd comparison to {args.json}")
    ok = (
        on.offload_ratio >= args.min_offload
        and speedup >= args.min_p99_speedup
        and on.peers_admitted > 0
        and off.spike.availability == 1.0
        and on.spike.availability == 1.0
        and off.spike_remote_fetches == on.spike_remote_fetches
    )
    if not ok:
        print(
            f"FAIL: offload={on.offload_ratio:.4f} "
            f"(need >= {args.min_offload}) speedup={speedup:.2f}x "
            f"(need >= {args.min_p99_speedup}) "
            f"admitted={on.peers_admitted} "
            f"avail off={off.spike.availability:.4f} "
            f"on={on.spike.availability:.4f} "
            f"fetches off={off.spike_remote_fetches} "
            f"on={on.spike_remote_fetches}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_perf(args) -> int:
    """`repro perf`: resolve-throughput and campaign-speedup harness.

    Measures resolves-per-second on a scaled demand-shift scenario graph
    (pre-index reference BFS vs. the HopIndex fast path vs. the
    ``resolve_many`` batch API) and, unless ``--quick``, the wall-clock
    speedup of a prewarmed :class:`~repro.sim.campaign.CampaignExecutor`
    over the serial runner. Exit status is 0 only if the fast path's
    candidate rankings are byte-identical to the reference's AND (when
    campaigns ran) the parallel reports match the serial ones bit for
    bit AND the measured speedup clears ``--min-speedup`` — the speed
    gate only arms when the machine actually has ``--workers`` usable
    cores, so single-core runners check correctness without flaking on
    physics (``--quick`` stays ungated for exactly that reason).

    ``--shards N [N ...]`` additionally runs the sharded-allocation
    bench at each given shard count (unsharded vs routed vs
    partition-parallel federated resolve) and extends the exit gate with
    its differential check: every shard count must rank candidates
    bit-identically to the unsharded server and the pre-index reference.
    The shard bench runs even under ``--quick`` (capped like the resolve
    bench), which is what the CI shard-equivalence gate uses; a
    ``--shards`` run is shard-focused and skips the campaign bench.

    ``--profile N`` runs the resolve loop (and, unless ``--quick`` or
    ``--shards``, a short campaign) under :mod:`cProfile` and prints
    the top-N entries by cumulative time; with ``--json`` the entries
    land in the report under ``"profile"``.
    """
    import json as _json

    from .perf import (
        bench_to_dict,
        campaign_speedup,
        profile_campaign,
        profile_resolve,
        resolve_throughput,
        shard_throughput,
    )
    from .sim.campaign import CampaignConfig
    from .sim.chaos import ChaosConfig

    if args.shards and any(n < 1 for n in args.shards):
        print("error: --shards counts must be >= 1", file=sys.stderr)
        return 2
    # The shard bench wants a graph big enough that the community
    # partition has real work per site; default 10x the resolve bench.
    scale = args.scale if args.scale is not None else (400 if args.shards else 40)
    if args.quick:
        requests = min(args.requests, 1000)
        scale = min(scale, 20)
    else:
        requests = args.requests
    resolve = resolve_throughput(far_clusters=scale, requests=requests)
    for line in resolve.lines():
        print(line)

    shard_results = []
    shards_ok = True
    for n in args.shards or ():
        sb = shard_throughput(far_clusters=scale, requests=requests, n_shards=n)
        print()
        for line in sb.lines():
            print(line)
        shard_results.append(sb)
        shards_ok = shards_ok and sb.identical

    profile = None
    if args.profile:
        profile = {
            "resolve": profile_resolve(
                far_clusters=scale,
                requests=requests,
                top_n=args.profile,
            )
        }
        if not args.quick and not args.shards:
            profile["campaign"] = profile_campaign(top_n=args.profile)
        for section, entries in profile.items():
            print(f"\nprofile: {section} (top {args.profile} by cumulative time)")
            for e in entries:
                print(
                    f"  {e['cumtime_s']:9.4f}s cum  {e['tottime_s']:9.4f}s tot  "
                    f"{e['ncalls']:>9} calls  {e['function']}"
                )

    campaign = None
    speedup_ok = True
    if not args.quick and not args.shards:
        campaign = campaign_speedup(
            CampaignConfig(chaos=ChaosConfig(horizon_s=args.horizon)),
            n_seeds=args.seeds,
            workers=args.workers,
            start_method=args.start_method,
            chunk_size=args.chunk_size,
        )
        for line in campaign.lines():
            print(line)
        if args.min_speedup > 0:
            if campaign.cores >= args.workers:
                speedup_ok = campaign.speedup >= args.min_speedup
                verdict = "ok" if speedup_ok else "FAIL"
                print(
                    f"speedup gate: {campaign.speedup:.2f}x >= "
                    f"{args.min_speedup:.2f}x required ... {verdict}"
                )
            else:
                print(
                    f"speedup gate: skipped ({campaign.cores} usable core(s) "
                    f"< {args.workers} workers — cannot win on this machine)"
                )

    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(
                    bench_to_dict(
                        resolve,
                        campaign,
                        shard_results or None,
                        profile=profile,
                    ),
                    fh,
                    indent=2,
                )
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote perf report to {args.json}")

    ok = (
        resolve.identical
        and shards_ok
        and (campaign is None or campaign.identical)
        and speedup_ok
    )
    if not ok:
        print(
            f"FAIL: resolve_identical={resolve.identical} "
            f"shards_identical={shards_ok if shard_results else 'n/a'} "
            f"campaign_identical={campaign.identical if campaign else 'n/a'} "
            f"speedup_ok={speedup_ok}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-CDN reproduction toolkit (Chard et al., SC 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_author=True):
        p.add_argument("--corpus", help="corpus JSON file (default: synthesize)")
        p.add_argument("--seed", type=int, default=42, help="corpus seed")
        if seed_author:
            p.add_argument("--seed-author", help="ego seed author id")
        p.add_argument("--hops", type=int, default=3, help="ego network hops")

    p = sub.add_parser("generate", help="synthesize a corpus to JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("table1", help="Table I rows")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig2", help="Fig. 2 topology summaries")
    common(p)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="Fig. 3 hit-rate curves")
    common(p)
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--study-seed", type=int, default=7)
    p.add_argument("--chart", action="store_true", help="ASCII chart per panel")
    p.add_argument("--csv", action="store_true", help="CSV output instead of tables")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("simulate", help="run a live S-CDN and print metrics")
    common(p)
    p.add_argument("--members", type=int, default=20)
    p.add_argument("--days", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("obs", help="run a live S-CDN and print the obs report")
    common(p)
    p.add_argument("--members", type=int, default=20)
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--json", help="also write the snapshot JSON to this path")
    p.add_argument("--trace", type=int, default=10,
                   help="trace events to show (0 = none)")
    p.add_argument("--trace-capacity", type=int, default=2048,
                   help="trace ring buffer capacity")
    p.add_argument("--bars", action="store_true",
                   help="ASCII bucket charts per histogram")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "chaos", help="run a fault-injection campaign and print the report"
    )
    common(p)
    p.add_argument("--members", type=int, default=20)
    p.add_argument("--horizon", type=float, default=3600.0,
                   help="campaign horizon in simulated seconds")
    p.add_argument("--chaos-seed", type=int, default=7,
                   help="seed of the failure schedule and workload")
    p.add_argument("--crash-rate", type=float, default=2e-5,
                   help="crash rate per node per second")
    p.add_argument("--outage-rate", type=float, default=1e-4,
                   help="outage rate per node per second")
    p.add_argument("--slowlink-rate", type=float, default=1e-4,
                   help="slow-link rate per node per second")
    p.add_argument("--repair-delay", type=float, default=0.0,
                   help="delay between a disruption and its repair audit")
    p.add_argument("--min-redundancy", type=float, default=0.99,
                   help="post-repair redundancy required for exit status 0")
    p.add_argument("--corruption-rate", type=float, default=0.0,
                   help="silent bit-rot rate per node per second")
    p.add_argument("--scrub-interval", type=float, default=600.0,
                   help="integrity scrub period in simulated seconds")
    p.add_argument("--no-scrub", action="store_true",
                   help="disable the integrity scrubber (rot goes undetected)")
    p.add_argument("--partition-rate", type=float, default=0.0,
                   help="network-partition rate per second (0 disables)")
    p.add_argument("--partition-duration", type=float, default=300.0,
                   help="mean partition duration in simulated seconds")
    p.add_argument("--partition-fraction", type=float, default=0.3,
                   help="fraction of nodes on the minority side of a split")
    p.add_argument("--peer-tier", action="store_true",
                   help="enable the peer-assisted delivery tier")
    p.add_argument("--peer-leave-rate", type=float, default=0.0,
                   help="abrupt peer-departure (churn) rate per second "
                        "(needs --peer-tier; 0 disables)")
    p.add_argument("--min-offload", type=float, default=None,
                   help="require a peer offload ratio strictly greater "
                        "than this for exit status 0 (use with --peer-tier)")
    p.add_argument("--flash-graph", action="store_true",
                   help="deploy over the flash-crowd topology with replicas "
                        "pinned on the owners (the deployment where the "
                        "peer tier has social room to serve)")
    p.add_argument("--grid", type=int, default=0,
                   help="run an N-seed campaign grid (seeds derived from "
                        "--chaos-seed) instead of a single campaign")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes for --grid")
    p.add_argument("--start-method", choices=["fork", "spawn", "forkserver"],
                   help="pool start method for --grid (default: fork "
                        "where available)")
    p.add_argument("--json", help="also write report + obs snapshot to this path")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "scrub", help="corrupt replicas and verify the integrity scrubber"
    )
    common(p)
    p.add_argument("--members", type=int, default=20)
    p.add_argument("--corrupt", type=int, default=3,
                   help="number of on-disk copies to rot")
    p.add_argument("--scrub-seed", type=int, default=7,
                   help="seed of the corruption pick")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser(
        "perf",
        help="measure resolve throughput and campaign parallel speedup",
    )
    p.add_argument("--quick", action="store_true",
                   help="resolve-only smoke: capped requests/scale, no campaigns")
    p.add_argument("--requests", type=int, default=5000,
                   help="resolve requests per measured mode")
    p.add_argument("--scale", type=int, default=None,
                   help="scenario-graph far clusters (3 authors each; "
                        "default 40, or 400 when --shards runs)")
    p.add_argument("--shards", type=int, nargs="+", metavar="N",
                   help="also run the sharded-allocation bench at these "
                        "shard counts (skips the campaign bench)")
    p.add_argument("--seeds", type=int, default=4,
                   help="campaign seed-grid size")
    p.add_argument("--workers", type=int, default=2,
                   help="campaign worker processes")
    p.add_argument("--horizon", type=float, default=900.0,
                   help="per-seed campaign horizon in simulated seconds")
    p.add_argument("--start-method", choices=["fork", "spawn", "forkserver"],
                   help="pool start method (default: fork where available)")
    p.add_argument("--chunk-size", type=int,
                   help="seeds per map chunk (default: ceil(n/(workers*2)))")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail if campaign speedup falls below this when the "
                        "machine has at least --workers usable cores "
                        "(0 disables the gate)")
    p.add_argument("--profile", type=int, metavar="N", default=None,
                   help="profile the resolve loop (and the campaign unless "
                        "--quick/--shards) under cProfile and print the "
                        "top-N cumulative entries")
    p.add_argument("--json", help="also write the perf report to this path")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser(
        "migrate",
        help="run the demand-shift scenario and verify replica migration",
    )
    p.add_argument("--migrate-seed", type=int, default=7,
                   help="seed of the scenario deployment pair")
    p.add_argument("--json", help="also write the off/on comparison to this path")
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser(
        "partition",
        help="run the community-split scenario and verify partition tolerance",
    )
    p.add_argument("--partition-seed", type=int, default=7,
                   help="seed of the scenario deployment pair")
    p.add_argument("--min-acceptance", type=float, default=0.9,
                   help="majority-side acceptance required for exit status 0")
    p.add_argument("--json", help="also write the off/on comparison to this path")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser(
        "flashcrowd",
        help="run the flash-crowd scenario and verify the peer tier",
    )
    p.add_argument("--flash-seed", type=int, default=7,
                   help="seed of the scenario deployment pair")
    p.add_argument("--quick", action="store_true",
                   help="shorter baseline and spike phases (CI smoke)")
    p.add_argument("--spike-factor", type=int, default=10,
                   help="spike tick-rate multiplier (the whole crowd also "
                        "reads every spike tick)")
    p.add_argument("--min-offload", type=float, default=0.5,
                   help="spike offload ratio required for exit status 0")
    p.add_argument("--min-p99-speedup", type=float, default=2.0,
                   help="spike p99 fetch-time improvement factor required "
                        "for exit status 0")
    p.add_argument("--json", help="also write the off/on comparison to this path")
    p.set_defaults(func=cmd_flashcrowd)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point. Library errors exit with a clean message (code 2)."""
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
