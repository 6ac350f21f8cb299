"""Unit tests for repro.social.communities."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.social.communities import community_of, detect_communities, modularity
from repro.social.graph import CoauthorshipGraph, build_coauthorship_graph

from ..conftest import pub
from repro.social.records import Corpus


@pytest.fixture
def two_cliques():
    """Two 4-cliques joined by a single bridge edge."""
    pubs = [pub("l", 2009, "a1", "a2", "a3", "a4"), pub("r", 2009, "b1", "b2", "b3", "b4")]
    pubs.append(pub("bridge", 2010, "a1", "b1"))
    return build_coauthorship_graph(Corpus(pubs))


class TestDetect:
    def test_greedy_modularity_finds_cliques(self, two_cliques):
        comms = detect_communities(two_cliques, method="greedy-modularity")
        assert len(comms) == 2
        sets = {frozenset(c) for c in comms}
        assert frozenset({"a1", "a2", "a3", "a4"}) in sets
        assert frozenset({"b1", "b2", "b3", "b4"}) in sets

    def test_label_propagation_partitions(self, two_cliques):
        comms = detect_communities(two_cliques, method="label-propagation", seed=3)
        all_nodes = set().union(*comms)
        assert all_nodes == set(two_cliques.nodes())
        assert sum(len(c) for c in comms) == two_cliques.n_nodes

    def test_deterministic_with_seed(self, two_cliques):
        a = detect_communities(two_cliques, method="label-propagation", seed=7)
        b = detect_communities(two_cliques, method="label-propagation", seed=7)
        assert a == b

    def test_unknown_method_rejected(self, two_cliques):
        with pytest.raises(ConfigurationError):
            detect_communities(two_cliques, method="magic")

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            detect_communities(CoauthorshipGraph(nx.Graph()))

    def test_equal_size_communities_ordered_by_members(self, two_cliques):
        """Same-size communities must sort by member list, not hash order."""
        comms = detect_communities(two_cliques)
        assert [sorted(c) for c in comms] == [
            ["a1", "a2", "a3", "a4"],
            ["b1", "b2", "b3", "b4"],
        ]

    def test_largest_first_ordering(self, synthetic):
        from repro.social.ego import ego_corpus

        corpus, seed = synthetic
        g = build_coauthorship_graph(ego_corpus(corpus, seed, hops=2))
        comms = detect_communities(g)
        sizes = [len(c) for c in comms]
        assert sizes == sorted(sizes, reverse=True)


# ----------------------------------------------------------------------
# the greedy kernel against networkx's greedy_modularity_communities
# ----------------------------------------------------------------------
def _tie_cycles(rng: random.Random, seed: int) -> nx.Graph:
    """Disjoint cycles: every merge gain ties with many others."""
    return nx.disjoint_union_all(
        [nx.cycle_graph(rng.randint(3, 9)) for _ in range(rng.randint(1, 4))]
    )


def _tie_cliques(rng: random.Random, seed: int) -> nx.Graph:
    """Equal cliques, some joined in a ring by single edges."""
    k = rng.randint(3, 5)
    g = nx.disjoint_union_all([nx.complete_graph(k) for _ in range(rng.randint(2, 5))])
    if rng.random() < 0.5:
        starts = list(range(0, g.number_of_nodes(), k))
        g.add_edges_from(zip(starts, starts[1:] + starts[:1]))
    return g


def _disconnected(rng: random.Random, seed: int) -> nx.Graph:
    """Two random components, isolated nodes and a self-loop."""
    g = nx.disjoint_union(
        nx.gnp_random_graph(rng.randint(4, 15), 0.3, seed=seed),
        nx.barabasi_albert_graph(rng.randint(4, 12), 1, seed=seed),
    )
    n = g.number_of_nodes()
    g.add_nodes_from(range(n, n + rng.randint(1, 3)))
    g.add_edge(0, 0)
    return g


#: family -> (rng, seed) -> graph with integer labels 0..n-1
REFERENCE_FAMILIES = {
    "gnp": lambda rng, s: nx.gnp_random_graph(
        rng.randint(5, 40), rng.uniform(0.05, 0.4), seed=s
    ),
    "barabasi-albert": lambda rng, s: nx.barabasi_albert_graph(
        rng.randint(5, 40), rng.randint(1, 3), seed=s
    ),
    "relaxed-caveman": lambda rng, s: nx.relaxed_caveman_graph(
        rng.randint(2, 6), rng.randint(3, 6), rng.uniform(0.0, 0.4), seed=s
    ),
    "watts-strogatz": lambda rng, s: nx.watts_strogatz_graph(
        rng.randint(6, 40), 4, rng.uniform(0.0, 0.4), seed=s
    ),
    "tie-cycles": _tie_cycles,
    "tie-cliques": _tie_cliques,
    "disconnected": _disconnected,
    "edgeless": lambda rng, s: nx.empty_graph(rng.randint(1, 6)),
}

#: weight mode -> (rng -> edge weight, None for no attribute; weighted=)
REFERENCE_WEIGHTS = {
    "int": (lambda rng: rng.randint(1, 4), True),
    "float": (lambda rng: rng.uniform(0.1, 3.0), True),
    "absent": (lambda rng: None, True),
    "mixed": (lambda rng: rng.choice([None, 1, 2, 0.5]), True),
    "unweighted": (lambda rng: rng.randint(1, 4), False),
}

GRAPHS_PER_CASE = 5


def _reference_graph(family: str, labels: str, weights: str, seed: int) -> nx.Graph:
    """A seeded graph of ``family``, its nodes inserted in shuffled order
    (so insertion order is not label order) under int or string labels."""
    rng = random.Random(f"{family}/{labels}/{weights}/{seed}")
    base = REFERENCE_FAMILIES[family](rng, seed)
    draw_weight = REFERENCE_WEIGHTS[weights][0]
    name = (lambda n: n) if labels == "int" else (lambda n: f"a{n}")
    nodes = list(base)
    rng.shuffle(nodes)
    edges = list(base.edges())
    rng.shuffle(edges)
    g = nx.Graph()
    g.add_nodes_from(name(n) for n in nodes)
    for u, v in edges:
        w = draw_weight(rng)
        g.add_edge(name(u), name(v), **({} if w is None else {"weight": w}))
    return g


def _canonical(comms):
    return sorted(tuple(sorted(c)) for c in comms)


class TestGreedyMatchesNetworkx:
    """The greedy-modularity kernel must return exactly networkx's
    partition: the shard key and the frozen digests depend on it. Eight
    families x two label kinds x five weight modes x five seeds = 400
    graphs."""

    @pytest.mark.parametrize("weights", sorted(REFERENCE_WEIGHTS))
    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
    def test_same_partition(self, family, labels, weights):
        weighted = REFERENCE_WEIGHTS[weights][1]
        for seed in range(GRAPHS_PER_CASE):
            g = _reference_graph(family, labels, weights, seed)
            want = nx.community.greedy_modularity_communities(
                g, weight="weight" if weighted else None
            )
            got = detect_communities(CoauthorshipGraph(g), weighted=weighted)
            assert _canonical(got) == _canonical(want), (family, labels, weights, seed)


class TestModularity:
    def test_good_partition_scores_high(self, two_cliques):
        comms = detect_communities(two_cliques)
        assert modularity(two_cliques, comms) > 0.3

    def test_trivial_partition_scores_zero(self, two_cliques):
        q = modularity(two_cliques, [set(two_cliques.nodes())])
        assert q == pytest.approx(0.0, abs=1e-9)

    def test_overlapping_partition_rejected(self, two_cliques):
        with pytest.raises(ConfigurationError):
            modularity(two_cliques, [{"a1", "a2"}, {"a2", "a3"}])

    def test_incomplete_partition_rejected(self, two_cliques):
        with pytest.raises(ConfigurationError):
            modularity(two_cliques, [{"a1", "a2"}])


class TestCommunityOf:
    def test_inversion(self):
        mapping = community_of([{"a", "b"}, {"c"}])
        assert mapping == {"a": 0, "b": 0, "c": 1}


# Computes the full community -> partition chain in a fresh interpreter and
# prints it canonically; run under different PYTHONHASHSEED values, every
# byte must match (the headline hash-order-nondeterminism regression).
_HASHSEED_SCRIPT = """
import json
from repro.ids import SegmentId
from repro.sim.scenarios import scenario_graph
from repro.social.communities import community_of, detect_communities
from repro.cdn.partitioning import SocialPartitioner

graph = scenario_graph(far_clusters=5)
comms = detect_communities(graph)
part = SocialPartitioner(graph, communities=comms)
segs = [SegmentId(f"d:seg{i}") for i in range(6)]
result = part.partition(segs)
print(json.dumps({
    "communities": [sorted(c) for c in comms],
    "community_of": sorted(community_of(comms).items()),
    "segments": sorted(
        (str(s), c) for s, c in result.community_of_segment.items()
    ),
    "hosts": sorted(
        (str(s), str(a)) for s, a in result.host_of_segment.items()
    ),
}))
"""


class TestHashSeedDeterminism:
    """detect_communities and everything keyed on it must not depend on
    the interpreter's hash seed — the bug that made community indices
    (and thus shard assignment) differ between fork and spawn workers."""

    def _run(self, hashseed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(out.stdout)

    def test_partition_identical_across_hash_seeds(self):
        runs = [self._run(seed) for seed in ("0", "1", "31337")]
        assert runs[0] == runs[1] == runs[2]

    def test_subprocess_matches_in_process(self):
        """A freshly spawned interpreter (any hash seed) must reproduce
        the current process's partition exactly."""
        from repro.ids import SegmentId
        from repro.sim.scenarios import scenario_graph
        from repro.cdn.partitioning import SocialPartitioner

        graph = scenario_graph(far_clusters=5)
        comms = detect_communities(graph)
        part = SocialPartitioner(graph, communities=comms)
        segs = [SegmentId(f"d:seg{i}") for i in range(6)]
        result = part.partition(segs)
        sub = self._run("random")
        assert sub["communities"] == [sorted(c) for c in comms]
        assert sub["segments"] == sorted(
            [str(s), c] for s, c in result.community_of_segment.items()
        )
