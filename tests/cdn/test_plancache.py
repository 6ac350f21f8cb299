"""Differential resolve tests on warm memo layers.

This suite first checked the resolve plan cache. The cache is gone and
``AllocationServer.resolve_candidates`` is the one resolve path, but the
path still memoizes: the catalog's servable view, the hop index's
holder rows and the sharded router's owner-site memo. The checks here
hold a server whose memos are already warm to the fresh-BFS reference
(:func:`tests.cdn.reference.resolve_candidates_reference`) or to a cold
twin, through load skew, partitions, sharded routing and a random
interleaving of every event that can change a ranking.
"""

from __future__ import annotations

import random

import pytest

from repro.ids import AuthorId, NodeId
from repro.obs import Registry
from repro.scdn import SCDN, SCDNConfig
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub
from .reference import build_deployment, request_workload, resolve_candidates_reference


def ranking(candidates):
    """Comparable projection of a candidate list."""
    return [
        (c.replica.replica_id, c.replica.node_id, c.social_hops, c.peer)
        for c in candidates
    ]


def warm(server, workload):
    """Resolve every pair once so the memo layers hold its state."""
    for seg, req in workload:
        server.resolve_candidates(seg, req)


def warmed_deployment(requests=200, **kwargs):
    """A resolve deployment whose memos have seen its request workload."""
    server, segments, authors = build_deployment(
        registry=Registry(), **kwargs
    )
    warm(server, request_workload(segments, authors, requests))
    return server, segments, authors


class TestDifferentialPlanned:
    def test_matches_reference_on_scenario_deployment(self):
        server, segments, authors = warmed_deployment(far_clusters=4, datasets=3)
        for seg, req in request_workload(segments, authors, 200):
            assert ranking(server.resolve_candidates(seg, req)) == ranking(
                resolve_candidates_reference(server, seg, req)
            )

    def test_matches_reference_after_load_skew(self):
        """Warm memos must still track mutable load exactly: the load
        tie-break is read per lookup, never memoized."""
        server, segments, authors = warmed_deployment(far_clusters=2)
        for seg, req in request_workload(segments, authors, 50):
            server.resolve(seg, req)
        for seg in segments:
            for req in authors[:5]:
                assert ranking(server.resolve_candidates(seg, req)) == ranking(
                    resolve_candidates_reference(server, seg, req)
                )

    def test_matches_reference_for_outside_requester(self):
        server, segments, _ = warmed_deployment(far_clusters=2)
        ghost = AuthorId("nobody-knows-me")
        for seg in segments:
            fast = server.resolve_candidates(seg, ghost)
            assert ranking(fast) == ranking(
                resolve_candidates_reference(server, seg, ghost)
            )
            assert all(c.social_hops is None for c in fast)

    def test_limit_respected(self):
        server, segments, authors = warmed_deployment(far_clusters=2)
        full = server.resolve_candidates(segments[0], authors[0])
        head = server.resolve_candidates(segments[0], authors[0], limit=2)
        assert ranking(head) == ranking(full)[:2]

    def test_resolve_and_resolve_many_match_uncached_twin(self):
        build = dict(far_clusters=3)
        s1, segments, authors = build_deployment(
            registry=Registry(), **build
        )
        s2, _, _ = warmed_deployment(**build)
        workload = request_workload(segments, authors, 150)
        cold = [s1.resolve(seg, req) for seg, req in workload]
        warm = [s2.resolve(seg, req) for seg, req in workload]
        assert [(r.replica.replica_id, r.social_hops) for r in cold] == [
            (r.replica.replica_id, r.social_hops) for r in warm
        ]


# ----------------------------------------------------------------------
# partitions: reachability filtering over warm memos
# ----------------------------------------------------------------------
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


SEG_BYTES = 100_000
TIGHT = 2 * SEG_BYTES


def crowd_net():
    """The flash-crowd deployment from the peers suite, peer tier off."""
    net = SCDN(
        crowd_graph(),
        config=SCDNConfig(
            n_replicas=2, proximity_hops=6, transfer_failure_prob=0.0
        ),
        seed=3,
        registry=Registry(),
    )
    for a in ("o-1", "o-2"):
        net.join(AuthorId(a))
    net.publish(AuthorId("o-1"), "ds", 2 * SEG_BYTES, n_segments=2)
    for a in ("relay", "c-1", "c-2", "c-3"):
        net.join(AuthorId(a), capacity_bytes=TIGHT)
    return net


def crowd_seg(net):
    ds = next(iter(net.server.catalog.datasets()))
    return ds.segments[0].segment_id


class TestPartitionPlanned:
    def test_partition_filtering_matches_uncached_twin(self):
        hot, cold = crowd_net(), crowd_net()
        seg_hot, seg_cold = crowd_seg(hot), crowd_seg(cold)
        authors = [AuthorId(a) for a in
                   ("o-1", "o-2", "relay", "c-1", "c-2", "c-3")]
        warm(hot.server, [(seg_hot, req) for req in authors])
        minority = [NodeId(a) for a in ("c-1", "c-2", "c-3")]
        hot.network.partition([minority])
        cold.network.partition([minority])
        for req in authors:
            got = hot.server.resolve_candidates(seg_hot, req)
            assert ranking(got) == ranking(
                cold.server.resolve_candidates(seg_cold, req)
            ), req
            origin = hot.server.node_of(req)
            assert ranking(got) == [
                e for e in ranking(
                    resolve_candidates_reference(hot.server, seg_hot, req)
                )
                if hot.network.reachable(origin, e[1])
            ], req
        # crowd members are cut off from the origin-side replicas
        assert hot.server.resolve_candidates(seg_hot, AuthorId("c-2")) == []
        hot.network.heal()
        cold.network.heal()
        for req in authors:
            got = hot.server.resolve_candidates(seg_hot, req)
            assert ranking(got) == ranking(
                cold.server.resolve_candidates(seg_cold, req)
            ), req
            assert ranking(got) == ranking(
                resolve_candidates_reference(hot.server, seg_hot, req)
            ), req
            assert got, req


# ----------------------------------------------------------------------
# sharded routing: warm owner-site memo and per-shard hop rows
# ----------------------------------------------------------------------
class TestShardedPlanned:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_resolution_identical_to_uncached_flat(self, n_shards):
        build = dict(far_clusters=6, datasets=4, spread_owners=True)
        flat, segments, authors = build_deployment(
            registry=Registry(), **build
        )
        router, _, _ = build_deployment(
            registry=Registry(), n_shards=n_shards, **build
        )
        workload = request_workload(segments, authors, 200)
        warm(router, workload)
        for seg, req in workload:
            assert ranking(router.resolve_candidates(seg, req)) == ranking(
                flat.resolve_candidates(seg, req)
            )


# ----------------------------------------------------------------------
# property: random interleavings against the reference
# ----------------------------------------------------------------------
AUTHORS = ("a1", "a2", "a3", "a4", "b1", "b2", "b3")


def _prop_graph(extra_pub=False):
    pubs = [
        pub("p1", 2009, "a1", "a2", "a3"),
        pub("p2", 2010, "a3", "a4"),
        pub("p3", 2010, "a4", "b1"),
        pub("p4", 2010, "b1", "b2", "b3"),
        pub("p5", 2011, "b2", "b3"),
        pub("p6", 2011, "a1", "a4"),
    ]
    if extra_pub:
        pubs.append(pub("p7", 2012, "a2", "b3"))
    return build_coauthorship_graph(Corpus(pubs))


def _prop_net():
    net = SCDN(
        _prop_graph(),
        config=SCDNConfig(
            n_replicas=2,
            proximity_hops=6,
            transfer_failure_prob=0.0,
            peer_tier=True,
            peer_lease_ttl_s=40.0,
        ),
        seed=5,
        registry=Registry(),
    )
    for a in AUTHORS:
        net.join(AuthorId(a), capacity_bytes=40 * SEG_BYTES)
    for i, owner in enumerate(("a1", "b1", "a4")):
        net.publish(AuthorId(owner), f"ds-{i}", SEG_BYTES, n_segments=1)
    return net


def _far(hops):
    """Sort distance of a ranking entry; no path is infinitely far."""
    return float("inf") if hops is None else hops


class TestPropertyInvalidation:
    """Random interleavings of publishes, retires, quarantines, lease
    mints and expiries, node flips, partitions and heals, and graph swaps
    on one deployment. After every step, for every
    ``(segment, requester)`` pair:

    * on a whole network with no live lease, the ranking equals the
      fresh-BFS reference;
    * otherwise its repository entries equal the reference filtered to
      hosts the requester's node can reach, and a peer entry ranks ahead
      of a repository entry only when strictly closer.

    Every pair is resolved after every step, so each check runs on memos
    warmed by the step before: a stale one would show here.
    """

    STEPS = 120

    def _segments(self, net):
        return sorted(
            (s.segment_id for ds in net.server.catalog.datasets()
             for s in ds.segments),
            key=str,
        )

    def _check_all_pairs(self, net):
        """Assert the properties; return how many pairs the partition
        filter narrowed and how many ranked a peer."""
        server, network = net.server, net.network
        plain = not network.partitioned and net.peers.n_active_leases == 0
        narrowed = with_peers = 0
        for seg in self._segments(net):
            for a in AUTHORS:
                req = AuthorId(a)
                got = server.resolve_candidates(seg, req)
                ref = ranking(resolve_candidates_reference(server, seg, req))
                if plain:
                    assert ranking(got) == ref, (seg, req)
                    continue
                origin = server.node_of(req)
                reachable = [e for e in ref if network.reachable(origin, e[1])]
                narrowed += len(reachable) < len(ref)
                assert ranking([c for c in got if not c.peer]) == reachable, (seg, req)
                for i, c in enumerate(got):
                    if c.peer:
                        with_peers += 1
                        assert all(
                            _far(c.social_hops) < _far(r.social_hops)
                            for r in got[i + 1:]
                            if not r.peer
                        ), (seg, req)
        return narrowed, with_peers

    def test_random_interleaving(self):
        rng = random.Random(20260808)
        net = _prop_net()
        server = net.server
        swapped = False
        offline = set()
        narrowed = with_peers = 0

        for _step in range(self.STEPS):
            op = rng.choice(
                ["access", "publish", "retire", "quarantine", "flip",
                 "partition", "advance", "swap", "access", "access", "repair"]
            )
            segs = self._segments(net)
            now = net.engine.now
            if op == "access":
                a = rng.choice(AUTHORS)
                seg = rng.choice(segs)
                if a not in offline and server.resolve_candidates(seg, AuthorId(a)):
                    net.clients[AuthorId(a)].access_segment(seg)
            elif op == "publish":
                owner = rng.choice([a for a in AUTHORS if a not in offline])
                name = f"ds-{len(server.catalog.datasets())}"
                net.publish(AuthorId(owner), name, SEG_BYTES)
            elif op in ("retire", "quarantine"):
                seg = rng.choice(segs)
                active = sorted(
                    (r.replica_id for r in
                     server.catalog.replicas_of_segment(seg, servable_only=True)),
                    key=str,
                )
                if active:
                    rid = rng.choice(active)
                    if op == "retire":
                        server.catalog.retire(rid)
                    else:
                        server.catalog.quarantine(rid)
            elif op == "flip":
                a = rng.choice(AUTHORS)
                if a in offline:
                    server.node_online(NodeId(a), at=now)
                    offline.discard(a)
                else:
                    server.node_offline(NodeId(a), at=now)
                    offline.add(a)
            elif op == "partition":
                if net.network.partitioned:
                    net.network.heal()
                else:
                    net.network.partition(
                        [[NodeId(a) for a in AUTHORS if a.startswith("b")]]
                    )
            elif op == "advance":
                net.engine.run(until=now + rng.choice([5.0, 20.0, 60.0]))
            elif op == "repair":
                server.repair(at=now)
            elif op == "swap":
                swapped = not swapped
                server.graph = _prop_graph(extra_pub=swapped)
            n, p = self._check_all_pairs(net)
            narrowed += n
            with_peers += p

        # the run reached the states the weaker checks exist for
        assert narrowed > 0
        assert with_peers > 0
