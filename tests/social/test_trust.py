"""Unit tests for repro.social.trust (Table I heuristics)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId
from repro.social.ego import ego_corpus
from repro.social.trust import (
    BaselineTrust,
    CompositeTrust,
    MaxAuthorsTrust,
    MinCoauthorshipTrust,
    paper_trust_heuristics,
)


class TestBaseline:
    def test_keeps_all_connected_nodes(self, tiny_corpus):
        sub = BaselineTrust().prune(tiny_corpus)
        assert sub.n_nodes == 6
        assert sub.n_edges == 6

    def test_surviving_publications_have_edges(self, tiny_corpus):
        sub = BaselineTrust().prune(tiny_corpus)
        # all 7 pubs are multi-author, all survive
        assert sub.n_publications == 7

    def test_single_author_pubs_do_not_survive(self):
        from ..conftest import pub
        from repro.social.records import Corpus

        corpus = Corpus([pub("s", 2009, "solo"), pub("d", 2009, "a", "b")])
        sub = BaselineTrust().prune(corpus)
        assert sub.n_publications == 1
        assert "solo" not in sub.graph.nx

    def test_table_row_format(self, tiny_corpus):
        name, nodes, pubs, edges = BaselineTrust().prune(tiny_corpus).table_row()
        assert name == "baseline"
        assert (nodes, pubs, edges) == (6, 7, 6)


class TestMinCoauthorship:
    def test_double_coauthorship_prunes_weak_edges(self, tiny_corpus):
        sub = MinCoauthorshipTrust(2).prune(tiny_corpus)
        # only alice-bob has weight 2
        assert sub.n_nodes == 2
        assert sub.n_edges == 1
        assert sub.n_publications == 2  # p1, p2

    def test_min_count_one_equals_baseline(self, tiny_corpus):
        base = BaselineTrust().prune(tiny_corpus)
        one = MinCoauthorshipTrust(1).prune(tiny_corpus)
        assert one.n_nodes == base.n_nodes
        assert one.n_edges == base.n_edges

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MinCoauthorshipTrust(0)

    def test_name(self):
        assert MinCoauthorshipTrust(2).name == "double-coauthorship"
        assert MinCoauthorshipTrust(3).name == "min-coauthorship-3"

    def test_seed_retained_even_if_isolated(self, tiny_corpus):
        sub = MinCoauthorshipTrust(2).prune(tiny_corpus, seed=AuthorId("carol"))
        assert "carol" in sub.graph.nx
        assert sub.graph.seed == "carol"


class TestMaxAuthors:
    def test_drops_large_publications(self, mega_corpus):
        sub = MaxAuthorsTrust(5).prune(mega_corpus)
        # the 10-author paper is gone; survivors: m0-x (s1,s2), x-y (s3), m1-y (s4)
        assert sub.n_publications == 4
        assert set(sub.graph.nodes()) == {"m0", "m1", "x", "y"}

    def test_mega_paper_authors_without_small_pubs_drop_out(self, mega_corpus):
        sub = MaxAuthorsTrust(5).prune(mega_corpus)
        for i in range(2, 10):
            assert f"m{i}" not in sub.graph.nx

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            MaxAuthorsTrust(0)

    def test_name(self):
        assert MaxAuthorsTrust(5).name == "number-of-authors"
        assert MaxAuthorsTrust(10).name == "max-authors-10"


class TestComposite:
    def test_composition_order(self, mega_corpus):
        comp = CompositeTrust([MaxAuthorsTrust(5), MinCoauthorshipTrust(2)])
        sub = comp.prune(mega_corpus)
        # after max-authors: edges m0-x(2), x-y(1), m1-y(1); then >=2 keeps m0-x
        assert set(sub.graph.nodes()) == {"m0", "x"}
        assert sub.n_publications == 2

    def test_empty_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            CompositeTrust([])

    def test_default_name_joins_stages(self):
        comp = CompositeTrust([BaselineTrust(), MaxAuthorsTrust(5)])
        assert comp.name == "baseline+number-of-authors"


class TestPaperHeuristics:
    def test_returns_three_in_table_order(self):
        names = [h.name for h in paper_trust_heuristics()]
        assert names == ["baseline", "double-coauthorship", "number-of-authors"]

    def test_table1_shape_on_synthetic_ego(self, synthetic):
        """Table I reproduction: rows strictly shrink across prunings."""
        corpus, seed = synthetic
        ego = ego_corpus(corpus, seed, hops=3)
        rows = [h.prune(ego, seed=seed).table_row() for h in paper_trust_heuristics()]
        nodes = [r[1] for r in rows]
        pubs = [r[2] for r in rows]
        edges = [r[3] for r in rows]
        assert nodes[0] > nodes[1] > 0
        assert nodes[0] > nodes[2] > 0
        assert edges[0] > edges[1] and edges[0] > edges[2]
        assert pubs[0] >= pubs[1] and pubs[0] > pubs[2]

    def test_double_coauthorship_has_islands_on_synthetic(self, synthetic):
        """Fig. 2(b): pruning by repeated coauthorship creates islands."""
        corpus, seed = synthetic
        ego = ego_corpus(corpus, seed, hops=3)
        sub = MinCoauthorshipTrust(2).prune(ego, seed=seed)
        assert sub.graph.n_components() > 1


class TestSharedGraphMemo:
    """One prebuilt base graph passed to every heuristic through ``graph=``.

    Pruning results are unchanged whether the graph is passed in or built
    by the heuristic, and the passed graph is never mutated: the
    heuristics prune into fresh copies.
    """

    def test_heuristics_do_not_mutate_shared_graph(self, tiny_corpus):
        from repro.social.graph import build_coauthorship_graph

        shared = build_coauthorship_graph(tiny_corpus)
        g = shared.nx

        def snapshot():
            return [(a, [(b, dict(d)) for b, d in g.adj[a].items()]) for a in g]

        before = snapshot()
        for heuristic in paper_trust_heuristics():
            # the result is an independent graph: clearing it leaves the
            # caller's graph alone
            heuristic.prune(tiny_corpus, graph=shared).graph.nx.clear()
        assert snapshot() == before

    def test_prebuilt_graph_gives_identical_pruning(self, synthetic):
        from repro.social.graph import build_coauthorship_graph

        corpus, seed = synthetic
        ego = ego_corpus(corpus, seed, hops=2)
        prebuilt = build_coauthorship_graph(ego)
        for heuristic in paper_trust_heuristics():
            with_graph = heuristic.prune(ego, seed=seed, graph=prebuilt)
            without = heuristic.prune(ego, seed=seed)
            assert with_graph.table_row() == without.table_row()
            assert set(with_graph.graph.nodes()) == set(without.graph.nodes())
            assert set(with_graph.graph.nx.edges()) == set(without.graph.nx.edges())

    def test_composed_pruning_unchanged_with_prebuilt_graph(self, synthetic):
        from repro.social.graph import build_coauthorship_graph

        corpus, seed = synthetic
        ego = ego_corpus(corpus, seed, hops=2)
        comp = CompositeTrust([MaxAuthorsTrust(5), MinCoauthorshipTrust(2)])
        with_graph = comp.prune(ego, seed=seed, graph=build_coauthorship_graph(ego))
        without = comp.prune(ego, seed=seed)
        assert with_graph.table_row() == without.table_row()
        assert set(with_graph.graph.nx.edges()) == set(without.graph.nx.edges())
