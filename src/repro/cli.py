"""Command-line interface: regenerate the paper's artifacts from a shell.

Subcommands::

    repro generate   --out corpus.json [--seed N]    synthesize a corpus
    repro table1     [--corpus F] [--hops H]         Table I rows
    repro fig2       [--corpus F] [--hops H]         topology summaries
    repro fig3       [--corpus F] [--runs N]         hit-rate curves
    repro simulate   [--members N] [--days D]        live S-CDN metrics
    repro obs        [--members N] [--days D] [--json F]  observability report
    repro chaos      [--horizon S] [--seed N]        chaos campaign + report
    repro perf       [--seeds N] [--workers W]       campaign parallel speedup
    repro scrub      [--corrupt K] [--seed N]        bit-rot + scrubber check
    repro migrate    [--migrate-seed N]              demand-shift migration check
    repro partition  [--partition-seed N]            community-split partition check
    repro flashcrowd [--flash-seed N] [--quick]      flash-crowd peer-tier check

The last four are the rows of one scenario table
(:data:`SCENARIO_COMMANDS`): each runs a scenario of
:mod:`repro.sim.scenarios`, prints its report, and exits 0 only when
every gate that scenario defines passes.

The commands that build a deployment from a corpus (``table1`` through
``chaos``, and ``scrub``) accept ``--corpus`` (a JSON file from ``repro
generate`` or :func:`repro.social.io.save_corpus`); without it a
synthetic corpus is generated on the fly (``--seed`` controls it).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .ids import AuthorId
from .sim import scenarios
from .sim.scenarios import Gate
from .social import generate_corpus
from .social.io import load_corpus, save_corpus
from .social.metrics import graph_summary
from .social.records import Corpus
from .social.trust import paper_trust_heuristics
from .social.ego import ego_corpus
from .casestudy import CaseStudyConfig, run_case_study


#: One ``add_argument`` call kept as data: ``(flag, keyword arguments)``.
Flag = Tuple[str, Dict[str, Any]]


def _flag(name: str, **kwargs: Any) -> Flag:
    return name, kwargs


def _add_flags(p: argparse.ArgumentParser, flags: Tuple[Flag, ...]) -> None:
    for name, kwargs in flags:
        p.add_argument(name, **kwargs)


#: corpus selection of every command that builds a deployment from one
_CORPUS_FLAGS: Tuple[Flag, ...] = (
    _flag("--corpus", help="corpus JSON file (default: synthesize)"),
    _flag("--seed", type=int, default=42, help="corpus seed"),
    _flag("--seed-author", help="ego seed author id"),
)
_MEMBERS_FLAG = _flag("--members", type=int, default=20)


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


def _trusted_net(args, registry=None):
    """An empty S-CDN over the corpus's 2-hop ego network, pruned to
    coauthors with at least two shared papers (the quickstart
    deployment of ``simulate``, ``obs``, ``chaos`` and ``scrub``)."""
    from .scdn import SCDN, SCDNConfig
    from .social.trust import MinCoauthorshipTrust

    corpus, seed_author = _get_corpus(args)
    ego = ego_corpus(corpus, seed_author, hops=2)
    trusted = MinCoauthorshipTrust(2).prune(ego, seed=seed_author)
    return SCDN(trusted.graph, config=SCDNConfig(), seed=args.seed, registry=registry)


def _populate(net, n_members: int) -> List[AuthorId]:
    """Join the first ``n_members`` authors (sorted) and have the first
    fifth of them publish a two-segment dataset each; returns the
    members."""
    members = [AuthorId(a) for a in sorted(net.graph.nodes())[:n_members]]
    for m in members:
        net.join(m)
    for i, owner in enumerate(members[: max(1, n_members // 5)]):
        net.publish(owner, f"data-{i}", 10_000_000, n_segments=2)
    return members


def _run_live_scdn(args, registry=None):
    """Build and run the small live S-CDN shared by ``simulate`` and ``obs``.

    Returns ``(net, horizon_s)`` with the simulation already run and usage
    synced into the collector.
    """
    net = _trusted_net(args, registry)
    members = _populate(net, args.members)
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


def _write_json(path: str, payload: object, label: str) -> bool:
    """Write ``payload`` to ``path`` as indented JSON and print ``wrote
    <label> to <path>``. On an unwritable path, print the error and
    return False (the caller exits 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {label} to {path}")
    return True


def _gate_status(gates: List[Gate]) -> int:
    """Exit status of a gated command: 0 when every gate passed, else 1
    after one ``FAIL:`` line on stderr naming each failed gate and the
    value it observed."""
    failed = "; ".join(f"{g.name} ({g.observed})" for g in gates if not g.passed)
    if failed:
        print(f"FAIL: {failed}", file=sys.stderr)
    return 1 if failed else 0


def _chaos_gates(args, unhandled: int, redundancy: float) -> List[Gate]:
    """The exit gates a single campaign and a grid aggregate share."""
    return [
        Gate("no_unhandled_exceptions", unhandled == 0, unhandled),
        Gate("post_repair_redundancy", redundancy >= args.min_redundancy,
             f"{redundancy:.4f}, need >= {args.min_redundancy}"),
    ]


def cmd_chaos(args) -> int:
    """`repro chaos`: run a fault-injection campaign and print the
    degradation report.

    Builds the same quickstart-sized deployment as ``simulate``/``obs``
    (fresh registry), injects Poisson-scheduled crashes, outages, and
    slow links alongside a read workload, and prints availability,
    failover counts, repair latency, and post-repair redundancy. Exit
    status is 0 only if the campaign ran without unhandled exceptions,
    post-repair redundancy reached ``--min-redundancy``, no corrupt
    replica stayed servable, nothing diverged after a heal, and (with
    ``--min-offload``) the peer tier offloaded more than that — so the
    command doubles as a CI smoke test for the fault-tolerance path.

    With ``--grid N`` the single campaign becomes an N-seed grid
    (seeds derived from ``--chaos-seed`` via ``seed_grid``) fanned over
    ``--workers`` processes on a :class:`~repro.sim.campaign.
    CampaignExecutor`; the pooled aggregate is printed and gated
    instead.
    """
    from dataclasses import asdict, replace

    from .errors import ConfigurationError
    from .obs import Registry
    from .sim.chaos import ChaosConfig, run_chaos_campaign

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
        if args.grid:
            raise ConfigurationError(
                "--flash-graph runs a single fixed deployment; "
                "--grid is not supported"
            )
        config = replace(config, **scenarios.FLASH_CHAOS_OVERRIDES)

    if args.grid:
        from .sim.campaign import (
            CampaignConfig,
            run_campaign_parallel,
            seed_grid,
        )

        if args.corpus:
            raise ConfigurationError(
                "--grid builds its deployment from --seed "
                "(generated corpus); --corpus is not supported"
            )
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
        if args.json and not _write_json(
            args.json,
            {
                "seeds": list(result.seeds),
                "workers": result.workers,
                "wall_clock_s": result.wall_clock_s,
                "aggregate": asdict(agg),
            },
            "campaign aggregate",
        ):
            return 2
        return _gate_status(
            _chaos_gates(
                args, agg.unhandled_exceptions, agg.mean_post_repair_redundancy
            )
        )

    if args.flash_graph:
        net = scenarios.flash_chaos_network(seed=args.seed)
    else:
        net = _trusted_net(args, Registry())
    report = run_chaos_campaign(net, config, seed=args.chaos_seed)
    for line in report.lines():
        print(line)
    if args.json and not _write_json(
        args.json,
        {"report": report.to_dict(), "obs": net.obs_snapshot()},
        "chaos report",
    ):
        return 2
    gates = _chaos_gates(
        args, report.unhandled_exceptions, report.post_repair_redundancy
    ) + [
        Gate("no_corrupt_servable", report.corrupt_servable_after_repair == 0,
             report.corrupt_servable_after_repair),
        Gate("zero_divergence", report.divergence_after_heal == 0,
             report.divergence_after_heal),
    ]
    if args.min_offload is not None:
        gates.append(
            Gate("peer_offload", report.peer_offload_ratio > args.min_offload,
                 f"{report.peer_offload_ratio:.4f}, need > {args.min_offload}")
        )
    return _gate_status(gates)


# ----------------------------------------------------------------------
# the scenario table: repro scrub | migrate | partition | flashcrowd
# ----------------------------------------------------------------------

_PAIR_SEED_HELP = "seed of the scenario deployment pair"


class ScenarioRun(NamedTuple):
    """What a scenario row's ``run`` returns."""

    #: positional arguments of the row's gate function
    results: Tuple[Any, ...]
    #: the report, printed line by line
    lines: List[str]
    #: the ``--json`` payload of rows that take ``--json``
    payload: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ScenarioCommand:
    """One row of the scenario table: the ``repro <name>`` subcommand.

    ``run`` runs the scenario from the parsed ``flags``; ``gates`` is the
    scenario's gate function in :mod:`repro.sim.scenarios`, applied to
    the run's results. A row with a ``json_label`` also takes ``--json``
    and announces the file as ``wrote <json_label> to <path>``.
    """

    name: str
    help: str
    flags: Tuple[Flag, ...]
    run: Callable[[argparse.Namespace], ScenarioRun]
    gates: Callable[..., List[Gate]]
    json_label: Optional[str] = None


def _run_scenario(command: ScenarioCommand, args) -> int:
    """Run one scenario row: print its report, write ``--json``, and exit
    0 only when every gate passes."""
    run = command.run(args)
    for line in run.lines:
        print(line)
    if command.json_label and args.json:
        if not _write_json(args.json, run.payload, command.json_label):
            return 2
    return _gate_status(command.gates(*run.results))


def _scrub(args) -> ScenarioRun:
    """Rot ``--corrupt`` copies of the quickstart deployment, scrub once."""
    from .errors import ConfigurationError
    from .obs import Registry

    if args.corrupt < 0:
        raise ConfigurationError("--corrupt must be >= 0")
    net = _trusted_net(args, Registry())
    _populate(net, args.members)
    result = scenarios.run_bit_rot(net, corrupt=args.corrupt, seed=args.scrub_seed)
    lines = [f"corrupted {seg} on {node}" for seg, node in result.rotted]
    scrub = result.scrub
    lines.append(
        f"scrub: checked {scrub.replicas_checked} replicas on "
        f"{scrub.nodes_scanned} nodes, found {scrub.corrupt_found}, "
        f"quarantined {scrub.quarantined}"
    )
    if result.audit is not None:
        lines.append(
            f"repair audit: {result.audit.repaired} replicas re-created, "
            f"{result.audit.under_replicated} segments still under budget"
        )
    lines.append(f"corrupt servable after repair: {result.corrupt_servable}")
    return ScenarioRun((result,), lines)


def _migrate(args) -> ScenarioRun:
    """The demand-shift pair, migration off then on."""
    off, on = scenarios.compare_demand_shift(seed=args.migrate_seed)
    lines = [
        f"demand shift: {off.post_shift.accesses} post-shift accesses, "
        f"trust swap evicts {off.evicted_author}"
    ]
    for r in (off, on):
        label = "migration on " if r.migration_enabled else "migration off"
        lines.append(
            f"{label}: post-shift mean={r.post_shift.mean_duration_s * 1e3:.1f}ms "
            f"local={r.post_shift.local_hits}/{r.post_shift.accesses} "
            f"availability={r.post_shift.availability:.4f} "
            f"moves={r.moves_completed} failed={r.moves_failed} "
            f"untrusted_leftover={r.untrusted_leftover}"
        )
    off_mean, on_mean = off.post_shift.mean_duration_s, on.post_shift.mean_duration_s
    if on.post_shift.accesses:
        delta = 1.0 - (on_mean / off_mean if off_mean else 1.0)
        lines.append(f"post-shift mean access time reduced by {100.0 * delta:.1f}%")
    payload = {
        "off": {
            "post_shift_mean_s": off_mean,
            "availability": off.post_shift.availability,
            "untrusted_leftover": off.untrusted_leftover,
        },
        "on": {
            "post_shift_mean_s": on_mean,
            "availability": on.post_shift.availability,
            "moves": on.moves_completed,
            "failed_moves": on.moves_failed,
            "min_mid_move_redundancy": on.min_mid_move_redundancy,
            "untrusted_leftover": on.untrusted_leftover,
        },
    }
    return ScenarioRun((off, on), lines, payload)


def _partition(args) -> ScenarioRun:
    """The community-split pair, split off (the oracle) then on."""
    off, on = scenarios.compare_community_split(seed=args.partition_seed)
    lines = [
        f"community split: {on.minority.accesses} minority / "
        f"{on.majority.accesses} majority accesses while partitioned"
    ]
    for r in (off, on):
        label = "split on " if r.partitions_enabled else "split off"
        lines.append(
            f"{label}: minority_acceptance={r.minority.availability:.4f} "
            f"majority_acceptance={r.majority.availability:.4f} "
            f"degraded={r.degraded_serves} "
            f"handoff queued={r.handoff_queued} replayed={r.handoff_replayed} "
            f"divergence={r.divergence_after_heal} "
            f"late_served={r.late_dataset_served} lost={r.final_lost}"
        )
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
    return ScenarioRun((off, on), lines, payload)


def _flashcrowd(args) -> ScenarioRun:
    """The flash-crowd pair, peer tier off then on."""
    if args.quick:
        # shorter phases, same shape: ~60 spike ticks instead of ~100
        config = scenarios.FlashCrowdConfig(
            baseline_tick_interval_s=30.0, spike_at_s=300.0, horizon_s=480.0
        )
    else:
        config = scenarios.FlashCrowdConfig()
    off, on = scenarios.compare_flash_crowd(seed=args.flash_seed, config=config)
    speedup = scenarios.p99_speedup(off, on)
    lines = [
        f"flash crowd: {on.spike.accesses} spike accesses, "
        f"{on.spike_remote_fetches} remote fetches "
        f"(spike_factor={config.spike_factor})"
    ]
    for r in (off, on):
        label = "peers on " if r.peer_tier_enabled else "peers off"
        lines.append(
            f"{label}: spike p50={r.spike_fetch_p50_s * 1e3:.1f}ms "
            f"p99={r.spike_fetch_p99_s * 1e3:.1f}ms "
            f"offload={r.offload_ratio:.4f} "
            f"peer_hit_rate={r.peer_hit_rate:.4f} "
            f"admitted={r.peers_admitted} expired={r.peer_leases_expired} "
            f"availability={r.spike.availability:.4f}"
        )
    lines.append(f"spike p99 fetch time improved {speedup:.1f}x with the peer tier")
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
    return ScenarioRun((off, on), lines, payload)


#: The acceptance scenarios as CLI commands; the gates live in
#: :mod:`repro.sim.scenarios`, shared with the tests and the benches.
SCENARIO_COMMANDS: Tuple[ScenarioCommand, ...] = (
    ScenarioCommand(
        "scrub",
        "corrupt replicas and verify the integrity scrubber",
        _CORPUS_FLAGS
        + (
            _MEMBERS_FLAG,
            _flag("--corrupt", type=int, default=3,
                  help="number of on-disk copies to rot"),
            _flag("--scrub-seed", type=int, default=7,
                  help="seed of the corruption pick"),
        ),
        _scrub,
        scenarios.bit_rot_gates,
    ),
    ScenarioCommand(
        "migrate",
        "run the demand-shift scenario and verify replica migration",
        (_flag("--migrate-seed", type=int, default=7, help=_PAIR_SEED_HELP),),
        _migrate,
        scenarios.demand_shift_gates,
        json_label="migration comparison",
    ),
    ScenarioCommand(
        "partition",
        "run the community-split scenario and verify partition tolerance",
        (_flag("--partition-seed", type=int, default=7, help=_PAIR_SEED_HELP),),
        _partition,
        scenarios.community_split_gates,
        json_label="partition comparison",
    ),
    ScenarioCommand(
        "flashcrowd",
        "run the flash-crowd scenario and verify the peer tier",
        (
            _flag("--flash-seed", type=int, default=7, help=_PAIR_SEED_HELP),
            _flag("--quick", action="store_true",
                  help="shorter baseline and spike phases (CI smoke)"),
        ),
        _flashcrowd,
        scenarios.flash_crowd_gates,
        json_label="flash-crowd comparison",
    ),
)


def cmd_perf(args) -> int:
    """`repro perf`: campaign-speedup harness.

    Times one chaos seed grid serially and over a prewarmed
    :class:`~repro.sim.campaign.CampaignExecutor`
    (:func:`repro.perf.campaign_speedup`). Exit status is 0 only if the
    parallel reports match the serial ones bit for bit AND the measured
    speedup clears ``--min-speedup`` — the speed gate only arms when the
    machine actually has ``--workers`` usable cores, so single-core
    runners check correctness without flaking on physics. A failing run
    exits 1 with one ``FAIL: <gate> (<observed>); ...`` line on stderr
    naming ``campaign_identical`` or ``speedup``. ``--json`` writes the
    measurement and the environment it ran on (commit, CPU, Python).

    Resolve and shard speed are measured by the repository benchmark in
    ``bench/``; their differential checks run in the test suite.
    """
    from .perf import bench_to_dict, campaign_speedup
    from .sim.campaign import CampaignConfig
    from .sim.chaos import ChaosConfig

    campaign = campaign_speedup(
        CampaignConfig(chaos=ChaosConfig(horizon_s=args.horizon)),
        n_seeds=args.seeds,
        workers=args.workers,
        start_method=args.start_method,
        chunk_size=args.chunk_size,
    )
    for line in campaign.lines():
        print(line)
    speedup_ok = True
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

    if args.json and not _write_json(
        args.json, bench_to_dict(campaign), "perf report"
    ):
        return 2

    return _gate_status(
        [
            Gate("campaign_identical", campaign.identical, campaign.identical),
            Gate("speedup", speedup_ok,
                 f"{campaign.speedup:.2f}x, need >= {args.min_speedup:.2f}x"),
        ]
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-CDN reproduction toolkit (Chard et al., SC 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ego_flags = _CORPUS_FLAGS + (
        _flag("--hops", type=int, default=3, help="ego network hops"),
    )
    live_flags = _CORPUS_FLAGS + (_MEMBERS_FLAG,)

    p = sub.add_parser("generate", help="synthesize a corpus to JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("table1", help="Table I rows")
    _add_flags(p, ego_flags)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig2", help="Fig. 2 topology summaries")
    _add_flags(p, ego_flags)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="Fig. 3 hit-rate curves")
    _add_flags(p, ego_flags)
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--study-seed", type=int, default=7)
    p.add_argument("--chart", action="store_true", help="ASCII chart per panel")
    p.add_argument("--csv", action="store_true", help="CSV output instead of tables")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("simulate", help="run a live S-CDN and print metrics")
    _add_flags(p, live_flags)
    p.add_argument("--days", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("obs", help="run a live S-CDN and print the obs report")
    _add_flags(p, live_flags)
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--json", help="also write the snapshot JSON to this path")
    p.add_argument("--trace", type=int, default=10,
                   help="trace events to show (0 = none)")
    p.add_argument("--trace-capacity", type=int, default=2048,
                   help="trace ring buffer capacity (diagnostics only: "
                        "no decision reads the ring)")
    p.add_argument("--bars", action="store_true",
                   help="ASCII bucket charts per histogram")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "chaos", help="run a fault-injection campaign and print the report"
    )
    _add_flags(p, live_flags)
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
        "perf", help="measure campaign parallel speedup over the serial runner"
    )
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
    p.add_argument("--json", help="also write the perf report to this path")
    p.set_defaults(func=cmd_perf)

    for command in SCENARIO_COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        _add_flags(p, command.flags)
        if command.json_label:
            p.add_argument(
                "--json", help="also write the off/on comparison to this path"
            )
        p.set_defaults(func=functools.partial(_run_scenario, command))

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
