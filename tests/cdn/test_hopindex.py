"""Unit tests for the CSR-backed :class:`repro.cdn.hopindex.HopIndex`.

The index must be a drop-in for per-call BFS: every distance map and row
it serves is checked against :func:`repro.social.ego.hop_distances`
restricted to one source, across connected, disconnected, and trivial
graphs. The rest of the class — the bounded row cache, bounded-radius
queries, component labels and the selective-invalidation predicate — is
covered structurally.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId
from repro.social.ego import hop_distances
from repro.social.graph import build_coauthorship_graph
from repro.social.records import Corpus
from repro.cdn.hopindex import HopIndex

from ..conftest import pub


def graph_of(*pubs_):
    return build_coauthorship_graph(Corpus(list(pubs_)))


@pytest.fixture
def chain():
    """a - b - c - d chain."""
    return graph_of(
        pub("p1", 2009, "a", "b"),
        pub("p2", 2009, "b", "c"),
        pub("p3", 2009, "c", "d"),
    )


@pytest.fixture
def two_islands():
    """Two components: {a, b, c} triangle and {x, y} edge."""
    return graph_of(
        pub("p1", 2009, "a", "b"),
        pub("p2", 2009, "b", "c"),
        pub("p3", 2009, "a", "c"),
        pub("p4", 2009, "x", "y"),
    )


class TestBfsEquivalence:
    @pytest.mark.parametrize("fixture", ["chain", "two_islands"])
    def test_matches_hop_distances_from_every_source(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        index = HopIndex(graph)
        for source in graph.nodes():
            hops, hit = index.distances(source)
            assert not hit  # first lookup is a miss
            assert hops == hop_distances(graph, {source})

    def test_synthetic_graph(self, synthetic):
        from repro.social.ego import ego_corpus

        corpus, seed = synthetic
        graph = build_coauthorship_graph(ego_corpus(corpus, seed, hops=2))
        index = HopIndex(graph)
        for source in graph.nodes():
            assert index.distances(source)[0] == hop_distances(graph, {source})

    def test_source_maps_to_zero(self, chain):
        hops, _ = HopIndex(chain).distances(AuthorId("a"))
        assert hops[AuthorId("a")] == 0
        assert hops[AuthorId("d")] == 3

    def test_unreachable_absent(self, two_islands):
        hops, _ = HopIndex(two_islands).distances(AuthorId("a"))
        assert AuthorId("x") not in hops
        assert set(hops) == {AuthorId("a"), AuthorId("b"), AuthorId("c")}

    def test_unknown_source_yields_empty_and_is_cached(self, chain):
        index = HopIndex(chain)
        hops, hit = index.distances(AuthorId("ghost"))
        assert hops == {} and not hit
        hops, hit = index.distances(AuthorId("ghost"))
        assert hops == {} and hit  # the empty map is cached too

    def test_empty_graph(self):
        index = HopIndex(graph_of())
        assert index.n_nodes == 0
        assert index.distances(AuthorId("a"))[0] == {}


class TestRows:
    @pytest.mark.parametrize("fixture", ["chain", "two_islands"])
    def test_row_matches_hop_distances(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        index = HopIndex(graph)
        for source in graph.nodes():
            row, hit = index.row(source)
            assert not hit
            want = hop_distances(graph, {source})
            for author in graph.nodes():
                assert row[index.position(author)] == want.get(author, -1)

    def test_row_is_symmetric(self, two_islands):
        """The graph is undirected: a holder's row answers every requester."""
        index = HopIndex(two_islands)
        for s in two_islands.nodes():
            for t in two_islands.nodes():
                assert (
                    index.row(s)[0][index.position(t)]
                    == index.row(t)[0][index.position(s)]
                )

    def test_row_is_the_cache_entry(self, chain):
        index = HopIndex(chain)
        row, _ = index.row(AuthorId("b"))
        assert index.rows[AuthorId("b")] is row
        again, hit = index.row(AuthorId("b"))
        assert hit and again is row

    def test_outside_source_reaches_nobody(self, chain):
        index = HopIndex(chain)
        row, hit = index.row(AuthorId("ghost"))
        assert not hit and row == [-1] * index.n_nodes
        assert index.row(AuthorId("ghost"))[1]

    def test_position(self, chain):
        index = HopIndex(chain)
        assert sorted(index.position(a) for a in chain.nodes()) == [0, 1, 2, 3]
        assert index.position(AuthorId("ghost")) is None


class TestCacheBehavior:
    def test_second_lookup_hits(self, chain):
        index = HopIndex(chain)
        index.distances(AuthorId("a"))
        _, hit = index.distances(AuthorId("a"))
        assert hit
        assert index.n_cached == 1

    def test_is_cached_does_not_touch_lru(self, chain):
        index = HopIndex(chain, max_sources=2)
        index.distances(AuthorId("a"))
        index.distances(AuthorId("b"))
        # a is the oldest row; is_cached must not keep it
        assert index.is_cached(AuthorId("a"))
        index.distances(AuthorId("c"))  # evicts a, not b
        assert not index.is_cached(AuthorId("a"))
        assert index.is_cached(AuthorId("b"))

    def test_lru_bound_and_evictions_counter(self, chain):
        index = HopIndex(chain, max_sources=2)
        for name in ["a", "b", "c", "d"]:
            index.distances(AuthorId(name))
        assert index.n_cached == 2
        assert index.evictions == 2
        assert index.is_cached(AuthorId("c")) and index.is_cached(AuthorId("d"))

    def test_hit_does_not_reorder_eviction(self, chain):
        """Hits are a plain dict lookup: the oldest-built row goes first
        no matter how recently it was read."""
        index = HopIndex(chain, max_sources=2)
        index.row(AuthorId("a"))
        index.row(AuthorId("b"))
        assert index.row(AuthorId("a"))[1]  # a hit; a stays the oldest row
        index.row(AuthorId("c"))  # evicts a
        assert not index.is_cached(AuthorId("a"))
        assert index.is_cached(AuthorId("b"))

    def test_max_sources_must_be_positive(self, chain):
        with pytest.raises(ConfigurationError):
            HopIndex(chain, max_sources=0)


class TestWithin:
    def test_bounded_radius_cold(self, chain):
        index = HopIndex(chain)
        got = index.within(AuthorId("a"), 2)
        assert got == {AuthorId("a"): 0, AuthorId("b"): 1, AuthorId("c"): 2}
        # the bounded result must not be cached as a full map
        assert not index.is_cached(AuthorId("a"))

    def test_bounded_radius_served_from_cached_full_map(self, chain):
        index = HopIndex(chain)
        full, _ = index.distances(AuthorId("a"))
        got = index.within(AuthorId("a"), 1)
        assert got == {a: d for a, d in full.items() if d <= 1}

    def test_radius_zero(self, chain):
        assert HopIndex(chain).within(AuthorId("a"), 0) == {AuthorId("a"): 0}

    def test_negative_radius_rejected(self, chain):
        with pytest.raises(ConfigurationError):
            HopIndex(chain).within(AuthorId("a"), -1)

    def test_unknown_source(self, chain):
        assert HopIndex(chain).within(AuthorId("ghost"), 3) == {}


class TestComponents:
    def test_connected_share_label(self, two_islands):
        index = HopIndex(two_islands)
        assert index.component_of(AuthorId("a")) == index.component_of(AuthorId("c"))
        assert index.component_of(AuthorId("x")) == index.component_of(AuthorId("y"))
        assert index.component_of(AuthorId("a")) != index.component_of(AuthorId("x"))

    def test_unknown_author_has_no_label(self, two_islands):
        assert HopIndex(two_islands).component_of(AuthorId("ghost")) is None

    def test_contains(self, chain):
        index = HopIndex(chain)
        assert AuthorId("a") in index
        assert AuthorId("ghost") not in index


class TestInvalidation:
    def test_invalidate_reachable_drops_same_component_only(self, two_islands):
        index = HopIndex(two_islands)
        for name in ["a", "b", "x"]:
            index.distances(AuthorId(name))
        dropped = index.invalidate_reachable(AuthorId("c"))
        assert dropped == 2  # a and b share c's component; x survives
        assert not index.is_cached(AuthorId("a"))
        assert not index.is_cached(AuthorId("b"))
        assert index.is_cached(AuthorId("x"))

    def test_invalidate_reachable_unknown_author(self, two_islands):
        index = HopIndex(two_islands)
        index.distances(AuthorId("a"))
        assert index.invalidate_reachable(AuthorId("ghost")) == 0
        assert index.is_cached(AuthorId("a"))

    def test_invalidate_reachable_keeps_outside_sources(self, chain):
        """Cached maps of sources outside the graph (empty maps) survive:
        a membership event inside the graph cannot make them reachable."""
        index = HopIndex(chain)
        index.distances(AuthorId("ghost"))
        assert index.invalidate_reachable(AuthorId("a")) == 0
        assert index.is_cached(AuthorId("ghost"))

    def test_invalidate_source(self, chain):
        index = HopIndex(chain)
        index.distances(AuthorId("a"))
        assert index.invalidate_source(AuthorId("a"))
        assert not index.invalidate_source(AuthorId("a"))  # already gone

    def test_invalidate_all(self, chain):
        index = HopIndex(chain)
        index.distances(AuthorId("a"))
        index.distances(AuthorId("b"))
        assert index.invalidate_all() == 2
        assert index.n_cached == 0

    def test_recompute_after_invalidation_is_correct(self, chain):
        index = HopIndex(chain)
        before, _ = index.distances(AuthorId("a"))
        index.invalidate_all()
        after, hit = index.distances(AuthorId("a"))
        assert not hit
        assert after == before
