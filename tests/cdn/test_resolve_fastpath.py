"""Differential tests for the hop-index resolve fast path.

The tentpole contract: swapping the per-call BFS for the CSR
:class:`~repro.cdn.hopindex.HopIndex` must not change a single resolution.
``resolve_candidates`` is checked byte-for-byte against the retained
pre-index reference implementation
(:func:`tests.cdn.reference.resolve_candidates_reference`), on the
scenario deployment at three scales, and builds one hop row per replica
holder where the reference runs one BFS per request. Mutation sequences
keep the ranking on the reference while catalog, membership, liveness
and graph state change under it.
"""

from __future__ import annotations

from repro.ids import AuthorId, DatasetId, NodeId
from repro.obs import Registry
from repro.cdn.content import segment_dataset
from repro.cdn.storage import StorageRepository

from .reference import build_deployment, request_workload, resolve_candidates_reference
from .test_allocation_bugfixes import graph_of, make_server
from ..conftest import pub


def ranking(candidates):
    """Comparable projection of a candidate list."""
    return [(c.replica.replica_id, c.replica.node_id, c.social_hops) for c in candidates]


#: ``(far_clusters, datasets, requests)`` of the scenario deployments
#: ranked against the reference. The second is the workload of the
#: retired "Perf smoke" CI step (``repro perf --quick``); the third is the
#: retired resolve bench's, whose >= 5x wall-clock floor over the
#: reference the hop-row count below stands in for.
SCENARIO_WORKLOADS = [(4, 3, 200), (20, 6, 1000), (40, 6, 5000)]


class TestDifferentialCandidates:
    def test_matches_reference_on_scenario_deployment(self):
        for far_clusters, datasets, requests in SCENARIO_WORKLOADS:
            reg = Registry()
            server, segments, authors = build_deployment(
                far_clusters=far_clusters, datasets=datasets, registry=reg
            )
            for seg, req in request_workload(segments, authors, requests):
                fast = server.resolve_candidates(seg, req)
                ref = resolve_candidates_reference(server, seg, req)
                assert ranking(fast) == ranking(ref), (far_clusters, seg, req)
            # one BFS row per servable holder, where the reference runs
            # one BFS per request
            holders = {
                r.node_id
                for seg in segments
                for r in server.catalog.replicas_of_segment(seg, servable_only=True)
            }
            misses = reg.counter("alloc.hop_cache.misses").value
            assert misses == len(holders), (far_clusters, misses, len(holders))

    def test_matches_reference_after_load_skew(self):
        """The ranking must track mutable load identically in both paths."""
        server, segments, authors = build_deployment(
            far_clusters=2, registry=Registry()
        )
        for seg, req in request_workload(segments, authors, 50):
            server.resolve(seg, req)  # records reads: loads diverge per node
        for seg in segments:
            for req in authors[:5]:
                assert ranking(server.resolve_candidates(seg, req)) == ranking(
                    resolve_candidates_reference(server, seg, req)
                )

    def test_matches_reference_for_outside_requester(self):
        server, segments, _ = build_deployment(
            far_clusters=2, registry=Registry()
        )
        ghost = AuthorId("nobody-knows-me")
        for seg in segments:
            fast = server.resolve_candidates(seg, ghost)
            ref = resolve_candidates_reference(server, seg, ghost)
            assert ranking(fast) == ranking(ref)
            assert all(c.social_hops is None for c in fast)

    def test_limit_respected(self):
        server, segments, authors = build_deployment(
            far_clusters=2, registry=Registry()
        )
        full = server.resolve_candidates(segments[0], authors[0])
        head = server.resolve_candidates(segments[0], authors[0], limit=2)
        assert ranking(head) == ranking(full)[:2]
        assert ranking(head) == ranking(
            resolve_candidates_reference(server, segments[0], authors[0], limit=2)
        )


class TestEvictionAccounting:
    def test_eviction_counter_mirrors_index(self):
        """Under a tiny hop-cache bound the server must surface evictions."""
        from repro.social.graph import build_coauthorship_graph
        from repro.social.records import Corpus
        from repro.cdn.allocation import AllocationServer
        from repro.cdn.placement import RandomPlacement
        from repro.cdn.storage import StorageRepository

        g = build_coauthorship_graph(
            Corpus(
                [
                    pub("p1", 2009, "a", "b"),
                    pub("p2", 2009, "b", "c"),
                    pub("p3", 2009, "c", "d"),
                ]
            )
        )
        reg = Registry()
        server = AllocationServer(
            g, RandomPlacement(), seed=0, registry=reg, hop_cache_sources=2
        )
        for a in ["a", "b", "c", "d"]:
            server.register_repository(
                AuthorId(a), StorageRepository(NodeId(f"node-{a}"), 10_000)
            )
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=4)  # four holders, two rows
        seg = ds.segments[0].segment_id
        server.resolve(seg, AuthorId("a"), record=False)
        assert server.hop_index.evictions == 2
        assert reg.counter("alloc.hop_index.evictions").value == 2
        assert reg.gauge("alloc.hop_index.size").value == 2
        # the two oldest rows were evicted, so every row is built again
        server.resolve(seg, AuthorId("d"), record=False)
        assert server.hop_index.evictions == 6
        assert reg.counter("alloc.hop_index.evictions").value == 6
        assert reg.counter("alloc.hop_cache.misses").value == 8
        assert reg.gauge("alloc.hop_index.size").value == 2

    def test_gauge_synced_on_index_rebuild(self):
        """A hop-index rebuild must refresh the size gauge immediately —
        it used to stay stale until the next cache miss."""
        reg = Registry()
        server, segments, authors = build_deployment(
            far_clusters=2, registry=reg
        )
        for seg, req in request_workload(segments, authors, 10):
            server.resolve_candidates(seg, req)
        assert reg.gauge("alloc.hop_index.size").value > 0
        server.graph = server.graph  # swap triggers a full rebuild
        assert reg.gauge("alloc.hop_index.size").value == 0
        assert server.hop_index.n_cached == 0

    def test_gauge_synced_on_membership_invalidation(self):
        """Registering a repository drops reachable cached rows; the
        gauge must reflect that without waiting for a miss."""
        g = graph_of(pub("p1", 2009, "a", "b"), pub("p2", 2009, "b", "c"))
        server = make_server(g, ["a", "b"])  # c in graph, not yet registered
        server_reg = server.obs
        ds = segment_dataset(DatasetId("d"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=2)
        seg = ds.segments[0].segment_id
        server.resolve(seg, AuthorId("a"), record=False)
        server.resolve(seg, AuthorId("b"), record=False)
        assert server_reg.gauge("alloc.hop_index.size").value == 2
        from repro.cdn.storage import StorageRepository

        server.register_repository(
            AuthorId("c"), StorageRepository(NodeId("node-c"), 10_000)
        )
        # holders a and b both reach c, so both cached rows were invalidated
        assert server.hop_index.n_cached == 0
        assert server_reg.gauge("alloc.hop_index.size").value == 0

    def test_gauge_stays_fresh_on_pure_hits(self):
        """After an invalidation, a workload of pure cache hits must not
        resurrect a stale gauge value."""
        reg = Registry()
        server, segments, authors = build_deployment(
            far_clusters=2, registry=reg
        )
        ranked = server.resolve_candidates(segments[0], authors[0])
        size = reg.gauge("alloc.hop_index.size").value
        assert size == len(ranked)  # one cached row per holder
        for req in authors[:5]:
            server.resolve_candidates(segments[0], req)  # hits only
        assert reg.counter("alloc.hop_cache.misses").value == size
        assert reg.gauge("alloc.hop_index.size").value == size


class TestHolderRowDifferential:
    """Holder-keyed rows under constant eviction rank exactly like a fresh
    per-call BFS from the requester, including through the two-tier peer
    merge."""

    def _deployment(self):
        from repro.cdn.allocation import AllocationServer
        from repro.cdn.placement import RandomPlacement
        from repro.cdn.storage import StorageRepository
        from repro.sim.scenarios import scenario_graph

        graph = scenario_graph(far_clusters=40)
        # two rows for ~18 holders: nearly every lookup evicts
        server = AllocationServer(
            graph, RandomPlacement(), seed=7, registry=Registry(), hop_cache_sources=2
        )
        authors = sorted(graph.nodes())
        for author in authors:
            server.register_repository(
                author, StorageRepository(NodeId(f"node-{author}"), 10_000_000)
            )
        segments = []
        for i in range(6):
            ds = segment_dataset(DatasetId(f"diff-{i}"), authors[i * 20], 1_000)
            server.publish_dataset(ds, n_replicas=3)
            segments.extend(s.segment_id for s in ds.segments)
        return server, segments, authors

    @staticmethod
    def _reference(server, segment, requester):
        """resolve_candidates_reference, merged with the peer tier under the
        ``(hops, tier, load, node id)`` rule when a registry is installed."""
        from repro.social.ego import hop_distances

        repo = resolve_candidates_reference(server, segment, requester)
        peers = server.fabric.peer_registry
        if peers is None:
            return [(*t, False) for t in ranking(repo)]
        leases = peers.candidates(
            segment,
            requester_node=server.fabric.node_of_author.get(requester),
            exclude_nodes=[c.replica.node_id for c in repo],
        )
        hops = (
            hop_distances(server.graph, {requester}) if requester in server.graph else {}
        )
        keyed = [
            (
                (c.social_hops if c.social_hops is not None else 10**9, 0,
                 server.repository(c.replica.node_id).reads_served,
                 str(c.replica.node_id)),
                (c.replica.replica_id, c.replica.node_id, c.social_hops, False),
            )
            for c in repo
        ]
        for lease in leases:
            d = hops.get(server.author_of(lease.node_id))
            keyed.append(
                (
                    (d if d is not None else 10**9, 1, lease.serves, str(lease.node_id)),
                    (lease.replica.replica_id, lease.node_id, d, True),
                )
            )
        keyed.sort(key=lambda t: t[0])
        return [entry for _key, entry in keyed]

    def _check_all(self, server, segments, requesters):
        def got(seg, req):
            return [
                (c.replica.replica_id, c.replica.node_id, c.social_hops, c.peer)
                for c in server.resolve_candidates(seg, req)
            ]

        for seg in segments:
            for req in requesters:
                assert got(seg, req) == self._reference(server, seg, req), (seg, req)

    def _holders(self, server, segment):
        return [
            server.author_of(r.node_id)
            for r in server.catalog.replicas_of_segment(segment, servable_only=True)
        ]

    def test_every_requester_matches_reference(self):
        server, segments, authors = self._deployment()
        ghost = AuthorId("nobody-knows-me")
        self._check_all(server, segments, authors + [ghost])
        assert server.hop_index.n_cached <= 2
        assert server.hop_index.evictions > 0
        assert all(c.social_hops is None for c in server.resolve_candidates(segments[0], ghost))

    def test_disconnected_component(self):
        from repro.social.graph import CoauthorshipGraph

        server, segments, authors = self._deployment()
        holder = next(
            h for h in self._holders(server, segments[0]) if not h.startswith("near")
        )
        g = server.graph.nx.copy()
        # cut the holder's clique off the hub: its bridge is the clique
        # member adjacent to near-1
        clique = {holder, *g.neighbors(holder)} - {AuthorId("near-1")}
        for member in clique:
            if g.has_edge(member, AuthorId("near-1")):
                g.remove_edge(member, AuthorId("near-1"))
        server.graph = CoauthorshipGraph(g, seed=server.graph.seed)
        assert server.hop_index.component_of(holder) != server.hop_index.component_of(
            AuthorId("near-1")
        )
        self._check_all(server, segments, authors)
        # the island's members still reach the island's holder
        ranked = server.resolve_candidates(segments[0], holder)
        assert ranked[0].social_hops == 0

    def test_peer_lease_holders(self):
        from repro.cdn.peers import PeerRegistry
        from repro.sim.engine import SimulationEngine

        server, segments, authors = self._deployment()
        peers = PeerRegistry(server.fabric, SimulationEngine(), registry=Registry())
        server.set_peer_registry(peers)
        minted = 0
        for i, seg in enumerate(segments):
            holders = set(self._holders(server, seg))
            offers = [a for a in authors[i :: 9] if a not in holders][:4]
            for author in offers:
                lease = peers.offer(
                    server.node_of(author), server.catalog.segment(seg), at=0.0
                )
                minted += lease is not None
        assert minted > 0
        self._check_all(server, segments, authors + [AuthorId("nobody-knows-me")])
        assert any(
            c.peer
            for seg in segments
            for req in authors
            for c in server.resolve_candidates(seg, req)[:1]
        )

    def test_graph_swap_drops_a_holder(self):
        from repro.social.graph import CoauthorshipGraph

        server, segments, authors = self._deployment()
        self._check_all(server, segments, authors[:30])  # warm some rows
        dropped = self._holders(server, segments[1])[0]
        g = server.graph.nx.copy()
        g.remove_node(dropped)
        server.graph = CoauthorshipGraph(g, seed=server.graph.seed)
        assert dropped not in server.hop_index
        self._check_all(server, segments, authors)
        # the dropped holder is still servable but unreachable from anyone
        for c in server.resolve_candidates(segments[1], authors[0]):
            if server.author_of(c.replica.node_id) == dropped:
                assert c.social_hops is None


class TestMutationSequences:
    """Every event that can change a ranking reaches the next resolve:
    after each step the ranking equals the fresh-BFS reference's."""

    def _deploy(self):
        g = graph_of(
            pub("p1", 2009, "a", "b"),
            pub("p2", 2010, "b", "c"),
            pub("p3", 2010, "c", "d"),
        )
        server = make_server(g, ["a", "b", "c", "d"], capacity=100_000)
        ds = segment_dataset(DatasetId("d1"), AuthorId("a"), 100)
        server.publish_dataset(ds, n_replicas=3)
        return server, ds.segments[0].segment_id

    def _check(self, server, seg, requesters=("a", "b", "c", "d")):
        for r in requesters:
            assert ranking(server.resolve_candidates(seg, AuthorId(r))) == (
                ranking(resolve_candidates_reference(server, seg, AuthorId(r)))
            ), r

    def test_retire_stale_activate(self):
        server, seg = self._deploy()
        self._check(server, seg)
        reps = iter(server.catalog.replicas_of_segment(seg))
        server.catalog.retire(next(reps).replica_id)
        self._check(server, seg)
        rid = next(reps).replica_id
        server.catalog.mark_stale(rid)
        self._check(server, seg)
        server.catalog.activate(rid)
        self._check(server, seg)

    def test_quarantine(self):
        server, seg = self._deploy()
        self._check(server, seg)
        rid = next(iter(server.catalog.replicas_of_segment(seg))).replica_id
        server.catalog.quarantine(rid)
        self._check(server, seg)

    def test_node_offline_online(self):
        server, seg = self._deploy()
        self._check(server, seg)
        host = next(iter(server.catalog.replicas_of_segment(seg))).node_id
        server.node_offline(host, at=1.0)
        self._check(server, seg)
        server.node_online(host, at=2.0)
        self._check(server, seg)

    def test_repair_after_loss(self):
        server, seg = self._deploy()
        self._check(server, seg)
        host = next(iter(server.catalog.replicas_of_segment(seg))).node_id
        server.node_offline(host, at=1.0)
        server.repair(at=2.0)
        self._check(server, seg)

    def test_graph_swap(self):
        server, seg = self._deploy()
        assert server.resolve_candidates(seg, AuthorId("zz"))[0].social_hops is None
        server.graph = graph_of(
            pub("p1", 2009, "a", "b"),
            pub("p2", 2010, "b", "c"),
            pub("p3", 2010, "c", "d"),
            pub("p4", 2011, "d", "zz"),
        )
        # the requester was unreachable before the swap and is not after
        assert server.resolve_candidates(seg, AuthorId("zz"))[0].social_hops is not None
        self._check(server, seg, requesters=("a", "zz"))

    def test_register_repository(self):
        server, seg = self._deploy()
        self._check(server, seg)
        server.graph = graph_of(
            pub("p1", 2009, "a", "b"),
            pub("p2", 2010, "b", "c"),
            pub("p3", 2010, "c", "d"),
            pub("p4", 2011, "a", "e"),
        )
        server.register_repository(
            AuthorId("e"), StorageRepository(NodeId("node-e"), 100_000)
        )
        self._check(server, seg, requesters=("a", "b", "e"))

    def test_migrate_node(self):
        server, seg = self._deploy()
        self._check(server, seg)
        host = next(iter(server.catalog.replicas_of_segment(seg))).node_id
        server.migrate_node(host, at=1.0)
        self._check(server, seg)

    def test_liveness_oracle_flip(self):
        server, seg = self._deploy()
        self._check(server, seg)
        dead = {next(iter(server.catalog.replicas_of_segment(seg))).node_id}
        server.set_liveness_oracle(lambda node: node not in dead)
        self._check(server, seg)
        # the installed oracle changes its answer: liveness is read at
        # every resolve, so the ranking follows at once
        dead.add(sorted(server.catalog.nodes_hosting(seg), key=str)[-1])
        self._check(server, seg)
