"""Peer-assisted delivery tier tests (repro.cdn.peers).

Topology used throughout: a tiny flash-crowd shape —

    o-1 -- o-2        (origin clique: owns + hosts the replicas)
     |
    relay
     |
    c-1 -- c-2 -- c-3 (crowd clique: tight caches, mutual 1-hop peers)

Crowd members are 3 hops from every replica but 1 hop from each other,
so a crowd peer with a fresh lease outranks the repository tier for a
crowd requester; ties (and every failure) go back to the repository.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId, NodeId
from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub

SEG_BYTES = 100_000
#: tight member storage: user cache = half = one segment exactly
TIGHT = 2 * SEG_BYTES


def crowd_graph():
    pubs = [
        pub("p1", 2009, "o-1", "o-2"),
        pub("p2", 2010, "o-1", "relay"),
        pub("p3", 2010, "relay", "c-1"),
        pub("p4", 2010, "c-1", "c-2", "c-3"),
        pub("p5", 2011, "c-1", "c-2"),
        pub("p6", 2011, "c-2", "c-3"),
    ]
    return build_coauthorship_graph(Corpus(pubs))


def build_net(seed=3, **overrides):
    """Peer-tier deployment with replicas pinned on the origin clique."""
    defaults = dict(
        n_replicas=2,
        proximity_hops=6,
        transfer_failure_prob=0.0,
        peer_tier=True,
    )
    defaults.update(overrides)
    net = SCDN(
        crowd_graph(),
        config=SCDNConfig(**defaults),
        seed=seed,
        registry=Registry(),
    )
    # origin joins roomy, publishes, then the crowd joins tight: every
    # repository replica lives on o-1/o-2, three hops from the crowd
    for a in ("o-1", "o-2"):
        net.join(AuthorId(a))
    net.publish(AuthorId("o-1"), "ds", 2 * SEG_BYTES, n_segments=2)
    for a in ("relay", "c-1", "c-2", "c-3"):
        net.join(AuthorId(a), capacity_bytes=TIGHT)
    replica_nodes = {
        r.node_id for r in net.server.catalog.iter_replicas()
    }
    assert replica_nodes <= {NodeId("o-1"), NodeId("o-2")}
    return net


def seg_ids(net):
    ds = net.server.catalog.dataset(next(iter(net.server.catalog.datasets())).dataset_id)
    return [s.segment_id for s in ds.segments]


def counter(net, name) -> int:
    entry = net.obs.snapshot()["counters"].get(name)
    return int(entry["value"]) if entry else 0


class TestMintAndServe:
    def test_fetch_mints_lease_then_serves_closer_requester(self):
        net = build_net()
        seg = seg_ids(net)[0]
        out = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out.ok and out.source == "remote"
        assert net.peers.has_active_lease(NodeId("c-3"), seg)
        repo_before = counter(net, "alloc.serves.repository")
        out2 = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out2.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 1
        assert out2.social_hops == 1  # peer next door, replicas 3 hops out
        assert counter(net, "peer.serves") == 1
        # the peer read is never charged to the repository tier
        assert counter(net, "alloc.serves.repository") == repo_before

    def test_tie_goes_to_repository(self):
        net = build_net()
        seg = seg_ids(net)[0]
        # o-2 fetches (1 hop from o-1's replica)... a lease on o-2 is
        # never *strictly* closer for relay (o-2 and the o-1 replica are
        # both reachable; replica distance 1 via o-1) — relay reads from
        # the repository tier
        net.clients[AuthorId("c-3")].access_segment(seg)
        out = net.clients[AuthorId("relay")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("relay")].stats.peer_fetches == 0


class TestAdmissionGates:
    def test_zero_capacity_peers_never_admitted(self):
        net = build_net(peer_cache_segments=0)
        seg = seg_ids(net)[0]
        out = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out.ok
        assert net.peers.n_active_leases == 0
        assert counter(net, "peer.rejected.capacity") == 1
        out2 = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out2.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0

    def test_untrusted_requester_fetch_mints_no_peer(self):
        net = build_net()
        seg = seg_ids(net)[0]
        # c-3 falls out of the trusted graph after joining (e.g. a trust
        # re-derivation dropped the author); its fetch may still be
        # policy-permitted, but it never becomes a serving peer
        pruned = build_coauthorship_graph(
            Corpus(
                [
                    pub("p1", 2009, "o-1", "o-2"),
                    pub("p2", 2010, "o-1", "relay"),
                    pub("p3", 2010, "relay", "c-1"),
                    pub("p5", 2011, "c-1", "c-2"),
                ]
            )
        )
        net.server.graph = pruned
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.peers.has_active_lease(NodeId("c-2"), seg)
        out3 = net.clients[AuthorId("c-3")].access_segment(seg)
        assert out3.ok
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.rejected.untrusted") == 1

    def test_untrusted_peer_retired_from_discovery_mid_lease(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        assert net.peers.candidates(seg, requester_node=NodeId("c-2"))
        pruned = build_coauthorship_graph(
            Corpus(
                [
                    pub("p1", 2009, "o-1", "o-2"),
                    pub("p2", 2010, "o-1", "relay"),
                    pub("p3", 2010, "relay", "c-1"),
                    pub("p5", 2011, "c-1", "c-2"),
                ]
            )
        )
        net.server.graph = pruned
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == []
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0


class TestLeaseLifecycle:
    def test_lease_expiry_mid_transfer_drains(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        serve = net.peers.begin_serve(NodeId("c-3"), seg)
        assert serve is not None
        net.engine.run(until=11.0)  # TTL fires while the read is pinned
        lease = net.peers.lease_of(NodeId("c-3"), seg)
        assert lease is not None and not lease.active  # draining
        assert counter(net, "peer.lease.expired") == 0  # not charged yet
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == []
        net.peers.end_serve(serve, ok=True)
        assert counter(net, "peer.lease.expired") == 1
        assert counter(net, "peer.serves") == 1
        assert net.peers.lease_of(NodeId("c-3"), seg) is None

    def test_expiry_without_pin_closes_immediately(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        net.engine.run(until=11.0)
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.lease.expired") == 1

    def test_renewal_restarts_ttl(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        client = net.clients[AuthorId("c-3")]
        client.access_segment(seg)
        net.engine.run(until=6.0)
        # cache hit at t=6 re-offers and renews: the lease now runs to 16
        segment = net.server.catalog.segment(seg)
        net.peers.offer(NodeId("c-3"), segment)
        assert counter(net, "peer.renewed") == 1
        net.engine.run(until=11.0)
        assert net.peers.has_active_lease(NodeId("c-3"), seg)
        net.engine.run(until=17.0)
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        assert counter(net, "peer.lease.expired") == 1

    def test_finalizing_replaced_lease_keeps_replacement(self):
        net = build_net(peer_lease_ttl_s=10.0)
        seg = seg_ids(net)[0]
        c3 = NodeId("c-3")
        net.clients[AuthorId("c-3")].access_segment(seg)
        first = net.peers.lease_of(c3, seg)
        serve = net.peers.begin_serve(c3, seg)
        net.engine.run(until=11.0)  # the pinned lease drains
        second = net.peers.offer(c3, net.server.catalog.segment(seg))
        assert second is not None and second is not first
        net.peers.end_serve(serve, ok=True)  # finalizes the drained lease
        assert first.state == "closed" and second.active
        assert net.peers.lease_of(c3, seg) is second
        assert net.peers.has_active_lease(c3, seg)
        assert net.peers.candidates(seg, requester_node=NodeId("c-2")) == [second]
        assert net.peers.n_active_leases == 1
        assert net.obs.gauges()["peer.active_leases"].value == 1

    def test_cache_eviction_retracts_lease(self):
        net = build_net()
        segs = seg_ids(net)
        client = net.clients[AuthorId("c-3")]
        client.access_segment(segs[0])
        assert net.peers.has_active_lease(NodeId("c-3"), segs[0])
        # one-segment cache: fetching the second evicts the first
        client.access_segment(segs[1])
        assert not net.peers.has_active_lease(NodeId("c-3"), segs[0])
        assert net.peers.has_active_lease(NodeId("c-3"), segs[1])
        assert counter(net, "peer.lease.evicted") == 1


class TestFailover:
    def test_peer_crash_falls_back_to_repository_no_phantom_expiry(self):
        net = build_net(peer_lease_ttl_s=50.0)
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        injector = net.failure_injector(seed=0)
        injector.crash(NodeId("c-3"), at=1.0)
        net.engine.run(until=2.0)
        assert counter(net, "peer.leaves") == 1
        assert not net.peers.has_active_lease(NodeId("c-3"), seg)
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0
        assert out.social_hops == 3  # served by the origin replicas
        # the crash cancelled the pending expiry: running past the TTL
        # fires no phantom lease-end for c-3 (c-2's fresh lease from the
        # fallback fetch is dropped first so nothing else can expire)
        net.peers.leave(NodeId("c-2"), reason="test-teardown")
        net.engine.run(until=60.0)
        assert counter(net, "peer.lease.expired") == 0

    def test_corrupt_peer_copy_fails_over_to_repository(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        assert net.peers.corrupt_copy(NodeId("c-3"), seg)
        client = net.clients[AuthorId("c-2")]
        out = client.access_segment(seg)
        # the peer ranked first, failed digest verification, and the
        # read failed over into the repository tier — integrity never
        # weakens, availability never suffers
        assert out.ok
        assert client.stats.peer_fetches == 0
        assert client.stats.failovers >= 1
        assert client.stats.integrity_failovers >= 1
        assert counter(net, "peer.serve.failures") == 1
        assert counter(net, "peer.serves") == 0

    def test_lease_gone_between_ranking_and_fetch_is_clean_failover(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        resolved = net.server.resolve(seg, AuthorId("c-2"), record=False)
        assert resolved.peer
        net.peers.leave(NodeId("c-3"))  # tab closed before the read
        out = net.clients[AuthorId("c-2")].access_segment(seg)
        assert out.ok
        assert net.clients[AuthorId("c-2")].stats.peer_fetches == 0


class TestRegistryValidation:
    def test_knob_validation(self):
        net = build_net()
        from repro.cdn.peers import PeerRegistry

        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, cache_segments=-1)
        with pytest.raises(ConfigurationError):
            PeerRegistry(net.server.fabric, net.engine, max_concurrent_serves=0)

    def test_end_serve_twice_rejected(self):
        net = build_net()
        seg = seg_ids(net)[0]
        net.clients[AuthorId("c-3")].access_segment(seg)
        serve = net.peers.begin_serve(NodeId("c-3"), seg)
        net.peers.end_serve(serve, ok=True)
        with pytest.raises(ConfigurationError):
            net.peers.end_serve(serve, ok=True)

    def test_enable_peer_tier_idempotent(self):
        net = build_net()
        assert net.enable_peer_tier() is net.peers


#: every member node of :func:`build_net` (node ids equal author ids)
NODES = [NodeId(a) for a in ("o-1", "o-2", "relay", "c-1", "c-2", "c-3")]
STEP_KINDS = ("offer", "begin", "end", "advance", "evict", "leave", "crash")
STEP_WEIGHTS = (8, 5, 4, 4, 1, 1, 0.3)


def scan_candidates(net, seg, requester):
    """Discovery by brute force: every lease in ``_leases`` that passes
    the documented filter (no partition is ever active here)."""
    peers, fabric = net.peers, net.server.fabric
    out = set()
    for node, per_node in peers._leases.items():
        lease = per_node.get(seg)
        if (
            lease is None
            or not lease.active
            or node == requester
            or lease.in_flight >= peers.max_concurrent_serves
            or fabric.author_of_node.get(node) not in fabric.graph
            or node in fabric.offline
            or (fabric.liveness is not None and not fabric.liveness(node))
        ):
            continue
        out.add(lease)
    return out


def assert_bookkeeping_matches_scan(net, segs):
    peers = net.peers
    active = [
        lease
        for per_node in peers._leases.values()
        for lease in per_node.values()
        if lease.active
    ]
    nodes = [
        node
        for node, per_node in peers._leases.items()
        if any(lease.active for lease in per_node.values())
    ]
    gauges = net.obs.gauges()
    assert peers.n_active_leases == len(active)
    assert gauges["peer.active_leases"].value == len(active)
    assert peers.peer_nodes() == nodes
    assert gauges["peer.active_nodes"].value == len(nodes)
    for seg in segs:
        for requester in NODES:
            found = peers.candidates(seg, requester_node=requester)
            assert set(found) == scan_candidates(net, seg, requester)


def run_steps(net, injector, steps):
    """Apply registry operations one by one, checking after each that
    the registry's counts and index equal a full scan."""
    segs = seg_ids(net)
    serves = []
    for kind, node, seg_i, pick in steps:
        seg = segs[seg_i]
        if kind == "offer":
            net.peers.offer(node, net.server.catalog.segment(seg))
        elif kind == "begin":
            serve = net.peers.begin_serve(node, seg)
            if serve is not None:
                serves.append(serve)
        elif kind == "end" and serves:
            net.peers.end_serve(serves.pop(pick % len(serves)), ok=pick % 5 != 0)
        elif kind == "advance":
            net.engine.run(until=net.engine.now + (1.0, 4.0, 11.0)[pick % 3])
        elif kind == "evict":
            net.peers.evict(node, seg)
        elif kind == "leave":
            net.peers.leave(node)
        elif kind == "crash":
            injector.crash(node, at=net.engine.now + 0.5)
            net.engine.run(until=net.engine.now + 1.0)
        assert_bookkeeping_matches_scan(net, segs)


class TestBookkeepingEqualsScan:
    #: the drained-lease replacement sequence of
    #: test_finalizing_replaced_lease_keeps_replacement, as steps
    REPLACEMENT = [
        ("offer", NodeId("c-3"), 0, 0),
        ("begin", NodeId("c-3"), 0, 0),
        ("advance", None, 0, 2),
        ("offer", NodeId("c-3"), 0, 0),
        ("end", None, 0, 1),
        ("offer", NodeId("c-2"), 0, 0),
    ]

    @pytest.mark.parametrize("cache_segments", [1, 2])
    def test_random_interleavings(self, cache_segments):
        for seed in range(60):
            rng = random.Random(seed)
            net = build_net(
                peer_lease_ttl_s=10.0,
                peer_cache_segments=cache_segments,
                peer_max_concurrent_serves=2,
            )
            injector = net.failure_injector(seed=0)
            steps = list(self.REPLACEMENT) + [
                (
                    rng.choices(STEP_KINDS, weights=STEP_WEIGHTS)[0],
                    rng.choice(NODES[2:]) if rng.random() < 0.8 else rng.choice(NODES),
                    rng.randrange(2),
                    rng.randrange(60),
                )
                for _ in range(60)
            ]
            run_steps(net, injector, steps)


def oracle_ranking(net, seg, requester):
    """Both tiers sorted by brute force on ``(hops, tier, load, node id)``
    with hops from networkx (every author is connected, and no failure,
    partition or pinned serve is active)."""
    server = net.server
    hops = nx.single_source_shortest_path_length(server.graph.nx, requester)
    reps = server.catalog.replicas_of_segment(seg, servable_only=True)
    hosts = {r.node_id for r in reps} | {server.node_of(requester)}
    keyed = [
        (hops[server.author_of(r.node_id)], 0,
         server.repository(r.node_id).reads_served, str(r.node_id), r)
        for r in reps
    ] + [
        (hops[server.author_of(lease.node_id)], 1,
         lease.serves, str(lease.node_id), lease.replica)
        for per_node in net.peers._leases.values()
        for lease in per_node.values()
        if lease.active and lease.segment_id == seg and lease.node_id not in hosts
    ]
    keyed.sort(key=lambda entry: entry[:4])
    return [(r.replica_id, d, tier == 1) for d, tier, _load, _node, r in keyed]


class TestOneRanking:
    def test_every_limit_agrees_with_full_ranking_and_oracle(self):
        net = build_net(peer_cache_segments=2)
        segs = seg_ids(net)
        # fetches mint leases and move loads on both tiers; the direct
        # offers give one segment peers at equal hops and equal serves
        for author, s in (("c-1", 0), ("c-2", 0), ("c-3", 1), ("relay", 0)):
            assert net.clients[AuthorId(author)].access_segment(segs[s]).ok
        for node in ("c-1", "c-2"):
            net.peers.offer(NodeId(node), net.server.catalog.segment(segs[1]))
        server = net.server
        pairs = [(seg, AuthorId(str(n))) for seg in segs for n in NODES]
        heads = []
        for seg, requester in pairs:
            full = server.resolve_candidates(seg, requester)
            for k in (1, 2):
                assert server.resolve_candidates(seg, requester, limit=k) == full[:k]
            assert server.resolve(seg, requester, record=False) == full[0]
            assert [
                (c.replica.replica_id, c.social_hops, c.peer) for c in full
            ] == oracle_ranking(net, seg, requester)
            heads.append(full[0])
        # both tiers ranked, and a peer won at least one head
        assert any(h.peer for h in heads) and not all(h.peer for h in heads)
