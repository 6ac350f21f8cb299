"""Frozen digests of the campaign set-up path, and the pruning references.

Every campaign starts the same way: generate the synthetic corpus, cut the
seed's ego corpus, and prune it with a trust heuristic. The random draws
of the generator, and the node order, adjacency order and edge attributes
of the pruned graph, feed every placement, bench digest and chaos report
downstream. ``test_deterministic_for_same_seed`` only compares two runs of
the same code, so these tests pin the set-up outputs to constants instead:
a changed draw or a reordered adjacency fails here, not as a shifted
figure three layers away.

The community partitions are pinned the same way: the greedy-modularity
partition of the bench/CI trusted graph and of three scenario graphs, and
the author -> site map it keys for a sharded deployment. A different
merge order changes which shard owns an author, so these digests define
the expected partition whatever the community kernel or the installed
networkx release.

The last part keeps the copy-and-remove pruning (copy the full graph,
drop the weak edges, finalize) as a reference that
:class:`MinCoauthorshipTrust` and a composed pruning must match exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cdn.syscat import build_system_catalog
from repro.sim.scenarios import scenario_graph
from repro.social import generate_corpus
from repro.social.communities import detect_communities
from repro.social.ego import ego_corpus
from repro.social.graph import build_coauthorship_graph
from repro.social.trust import (
    CompositeTrust,
    MaxAuthorsTrust,
    MinCoauthorshipTrust,
    TrustedSubgraph,
    _finalize,
    paper_trust_heuristics,
)

SEEDS = (7, 42)

CORPUS_DIGESTS = {
    7: "e44600e0f372bf611951fc232f30b0a26a12679f6756320ede1bac790e16af23",
    42: "981c3c411bb985a06375bc045ae3907ba25e29bac51315ffb01bae2e2ac8cc00",
}

TRUSTED_DIGESTS = {
    (7, 2): {
        "baseline": "5d98f3232e2600842f1ac40c1d1c79c87463456de075a270bc84721d4de6ec8f",
        "double-coauthorship": "17887213749b53de73c3fa261106c3232c7d4171cd9f1790cdb1f6edda67288d",
        "number-of-authors": "b2e3365c7c32dc077d777e9f15341deb816a4c230e6f4fca303a55385cd11a81",
    },
    (7, 3): {
        "baseline": "7d7463eea4cf6f0c694fba2997fef55ef770d271815f38b8302a72e66a5936a6",
        "double-coauthorship": "10d72b125840b282a3c5e36b26e6c4c4460bc699b25cc5692de409ce769da51b",
        "number-of-authors": "6713f813345c1f5224653e93be440259a40c7b2de04d45c7e181f70b7c0bec05",
    },
    (42, 2): {
        "baseline": "880949b5ae1a58bc3ff8152e105cf99e7a1b19ddb9851f965e02cb24f328ba3e",
        "double-coauthorship": "a3282890acd6b8869ff7b9b6125421b11419666d84978b1bb77a27b2fd6f8164",
        "number-of-authors": "77289e1b57dccb1ec66da26ed25e7e89e29f514c561bc9da97b7a7827f76596b",
    },
    (42, 3): {
        "baseline": "c09fa75c2f2d31606667592534648025c6930bafe4eb227457cb7ace0616e5fe",
        "double-coauthorship": "854ed80b39c5a176cb972a99317a78f27aa89b563b01c28e2e5c6b554d02622d",
        "number-of-authors": "439a78fc5f3251989ad04c13474a751844931e57f4b28ef52788a1fdfd8546fe",
    },
}


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def corpus_rows(corpus):
    """One row per publication: id, year, sorted authors with institutions,
    venue and title."""
    return [
        [
            p.pub_id,
            p.year,
            [[a, corpus.author(a).institution] for a in sorted(p.authors)],
            p.venue,
            p.title,
        ]
        for p in corpus
    ]


def trusted_rows(sub: TrustedSubgraph):
    """Seed, node order, each node's neighbours in order with their edge
    data, and the surviving publication ids."""
    g = sub.graph.nx
    return {
        "seed": sub.graph.seed,
        "nodes": list(g),
        "adjacency": [[[b, data] for b, data in g.adj[a].items()] for a in g],
        "pubs": [p.pub_id for p in sub.corpus],
    }


@pytest.fixture(scope="module")
def corpora():
    return {seed: generate_corpus(seed=seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_digest_frozen(corpora, seed):
    corpus, _ = corpora[seed]
    assert _digest(corpus_rows(corpus)) == CORPUS_DIGESTS[seed]


@pytest.mark.parametrize("seed,hops", sorted(TRUSTED_DIGESTS))
def test_trusted_digests_frozen(corpora, seed, hops):
    corpus, ego_seed = corpora[seed]
    ego = ego_corpus(corpus, ego_seed, hops=hops)
    got = {
        h.name: _digest(trusted_rows(h.prune(ego, seed=ego_seed)))
        for h in paper_trust_heuristics()
    }
    assert got == TRUSTED_DIGESTS[(seed, hops)]


# ----------------------------------------------------------------------
# community partitions and the shard key
# ----------------------------------------------------------------------
#: ``[sorted(c) for c in detect_communities(graph, weighted=...)]``
PARTITION_DIGESTS = {
    ("trusted", True): "ab10a132f7abec8ad3cfa47d1389e61b5d977a2f3a89a34c0107b01c476cce27",
    ("trusted", False): "16f5ce6f35081a8ba67a2e577e93c9eee9c3472bb54629c66b6cfec0e2e2d4a8",
    ("scenario-8", True): "7d2fd9deb4bfbc9a08bffa57be3f57040e4af22b8f14f1c14f15bba2429a8bcc",
    ("scenario-8", False): "7d2fd9deb4bfbc9a08bffa57be3f57040e4af22b8f14f1c14f15bba2429a8bcc",
    ("scenario-400", True): "3d1d073b7f8f05c587a1b0c9eeb41304e0a19ec0266e6e1fbd82bf0aaca50e3b",
    ("scenario-400", False): "1cc76f5c722d5db0721d81a5e7d8f735de5811c2750e85edc1e68b3e4df7e71d",
    ("scenario-1000", True): "69d73d1046e99e8adc60cde0d709e2209e36268da268431c5f75b8e09100d016",
    ("scenario-1000", False): "4f3eee94c7a5797198b8425342286157921a5630cb513a23ea07df49cd0d6e8f",
}

#: ``[[author, site], ...]`` in author order, from ``build_system_catalog``
SHARD_KEY_DIGESTS = {
    2: "2d4d451d82d5a351a197c674fe3162a6d23fa7cd42cc7a086e899091b8d96257",
    4: "646cf99bcc4c3df96d2b65f03918ae28b64b10e1d7071bc421d7ae17291e1d22",
}


@pytest.fixture(scope="module")
def ci_trusted(corpora):
    """The bench/CI deployment graph: the seed-42 corpus, 2-hop ego,
    double coauthorship (190 authors)."""
    corpus, ego_seed = corpora[42]
    ego = ego_corpus(corpus, ego_seed, hops=2)
    return MinCoauthorshipTrust(2).prune(ego, seed=ego_seed).graph


@pytest.mark.parametrize("name,weighted", sorted(PARTITION_DIGESTS))
def test_partition_digests_frozen(ci_trusted, name, weighted):
    if name == "trusted":
        graph = ci_trusted
    else:
        graph = scenario_graph(far_clusters=int(name.split("-")[1]))
    comms = detect_communities(graph, weighted=weighted)
    assert _digest([sorted(c) for c in comms]) == PARTITION_DIGESTS[(name, weighted)]


@pytest.mark.parametrize("n_sites", sorted(SHARD_KEY_DIGESTS))
def test_shard_key_digest_frozen(ci_trusted, n_sites):
    syscat = build_system_catalog(ci_trusted, n_sites)
    rows = [[a, syscat.site_of_author(a)] for a in sorted(ci_trusted.nodes())]
    assert _digest(rows) == SHARD_KEY_DIGESTS[n_sites]


# ----------------------------------------------------------------------
# copy-and-remove reference prunings
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def synthetic_egos(synthetic):
    """The ``synthetic`` fixture's ego corpus and its full graph, per hop count."""
    corpus, seed = synthetic
    egos = {hops: ego_corpus(corpus, seed, hops=hops) for hops in (2, 3)}
    return seed, {hops: (ego, build_coauthorship_graph(ego)) for hops, ego in egos.items()}


def reference_min_coauthorship(corpus, full, min_count, seed):
    """Copy the full graph, remove edges lighter than ``min_count``, finalize."""
    g = full.nx.copy()
    g.remove_edges_from(
        [(a, b) for a, b, w in g.edges(data="weight") if w < min_count]
    )
    return _finalize(MinCoauthorshipTrust(min_count).name, g, corpus, seed)


@pytest.mark.parametrize("hops", [2, 3])
@pytest.mark.parametrize("min_count", [1, 2, 3, 4])
def test_min_coauthorship_matches_copy_and_remove(synthetic_egos, min_count, hops):
    seed, egos = synthetic_egos
    ego, full = egos[hops]
    got = MinCoauthorshipTrust(min_count).prune(ego, seed=seed)
    want = reference_min_coauthorship(ego, full, min_count, seed)
    assert trusted_rows(got) == trusted_rows(want)


@pytest.mark.parametrize("hops", [2, 3])
def test_composite_matches_copy_and_remove(synthetic_egos, hops):
    seed, egos = synthetic_egos
    ego, _ = egos[hops]
    got = CompositeTrust([MaxAuthorsTrust(5), MinCoauthorshipTrust(2)]).prune(
        ego, seed=seed
    )
    # the max-authors stage, copy-and-remove style, then the min stage
    filtered = ego.filter_max_authors(5)
    full = build_coauthorship_graph(filtered)
    small = _finalize("number-of-authors", full.nx.copy(), filtered, seed)
    want = reference_min_coauthorship(
        small.corpus, build_coauthorship_graph(small.corpus), 2, seed
    )
    assert trusted_rows(got) == trusted_rows(want)
