"""Trust-pruning heuristics (paper Section VI-A).

The case study derives three "trust graphs" from the raw ego network:

1. **Baseline** — no trust threshold.
2. **Double coauthorship** — keep only coauthorship edges backed by more
   than one shared publication ("multiple authorship between authors can be
   indicative of a closer working relationship"). This pruning produces the
   isolated islands visible in the paper's Fig. 2(b).
3. **Number of authors** — keep only publications with fewer than six
   authors ("publications with many coauthors are less useful for
   predicting collaborative relationships").

Each heuristic turns a corpus into a :class:`TrustedSubgraph`, which pairs
the pruned coauthorship graph with the surviving publications, yielding the
node / publication / edge counts of the paper's Table I.

Counting convention: a publication "survives" a pruning iff it contributes
at least one edge of the pruned graph; a node survives iff it has at least
one surviving edge (except the seed, which is always retained so downstream
experiments keep their anchor). This is the only convention under which the
three Table I rows are directly comparable, and it reproduces the paper's
qualitative shape (strictly shrinking rows; edge counts shrinking faster
than node counts).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import networkx as nx

from ..errors import ConfigurationError
from ..ids import AuthorId
from .graph import CoauthorshipGraph, build_coauthorship_graph, ordered_induced_view
from .records import Corpus


@dataclass(frozen=True)
class TrustedSubgraph:
    """The result of applying a trust heuristic: pruned graph + surviving pubs.

    Attributes
    ----------
    name:
        Heuristic name (Table I row label).
    graph:
        The pruned coauthorship graph.
    corpus:
        The publications that contribute at least one surviving edge.
    """

    name: str
    graph: CoauthorshipGraph
    corpus: Corpus

    @property
    def n_nodes(self) -> int:
        """Table I "Nodes" column."""
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        """Table I "Edges" column."""
        return self.graph.n_edges

    @property
    def n_publications(self) -> int:
        """Table I "Publications" column."""
        return len(self.corpus)

    def table_row(self) -> Tuple[str, int, int, int]:
        """Return ``(name, nodes, publications, edges)`` — one Table I row."""
        return (self.name, self.n_nodes, self.n_publications, self.n_edges)


def _finalize(
    name: str,
    graph: nx.Graph,
    corpus: Corpus,
    seed: Optional[AuthorId],
) -> TrustedSubgraph:
    """Drop isolated nodes (keeping the seed), attach surviving publications."""
    keep = {n for n, d in graph.degree() if d > 0}
    if seed is not None and seed in graph:
        keep.add(seed)
    # ordered view, not nx subgraph(set): the pruned graph's node order
    # feeds every downstream placement decision and must not vary with
    # PYTHONHASHSEED (spawn-started pool workers get fresh hash seeds)
    pruned = ordered_induced_view(graph, keep).copy()
    cg = CoauthorshipGraph(pruned, seed=seed if seed in pruned else None)
    surviving_pub_ids = cg.publications_on_edges()
    surviving = Corpus(p for p in corpus if str(p.pub_id) in surviving_pub_ids)
    return TrustedSubgraph(name=name, graph=cg, corpus=surviving)


class TrustHeuristic(ABC):
    """A rule that prunes a corpus/graph down to a trusted subgraph."""

    #: Human-readable heuristic name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def prune(
        self,
        corpus: Corpus,
        *,
        seed: Optional[AuthorId] = None,
        graph: Optional[CoauthorshipGraph] = None,
    ) -> TrustedSubgraph:
        """Apply the heuristic to ``corpus`` and return the trusted subgraph.

        Parameters
        ----------
        corpus:
            Publications to build from (typically an ego corpus).
        seed:
            Ego seed; always retained in the pruned graph if present.
        graph:
            Optional prebuilt full (``min_weight=1``) coauthorship graph
            of ``corpus``. Only :class:`BaselineTrust` reuses it; the
            other heuristics build just the edges they keep, which costs
            less than filtering the full graph. The graph is never
            mutated: the result is an independent copy.
        """

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r})"


class BaselineTrust(TrustHeuristic):
    """No trust threshold: the full coauthorship graph (paper graph 1)."""

    name = "baseline"

    def prune(
        self,
        corpus: Corpus,
        *,
        seed: Optional[AuthorId] = None,
        graph: Optional[CoauthorshipGraph] = None,
    ) -> TrustedSubgraph:
        g = graph if graph is not None else build_coauthorship_graph(corpus)
        return _finalize(self.name, g.nx, corpus, seed)


class MinCoauthorshipTrust(TrustHeuristic):
    """Keep edges backed by at least ``min_count`` shared publications.

    ``min_count=2`` is the paper's "double coauthorship" graph. Nodes whose
    every edge is pruned drop out; the survivors may form disconnected
    islands — the paper notes these "serve to identify communities of
    trusted researchers".

    The pruning builds only the edges it keeps (``min_weight=min_count``)
    and ignores a prebuilt ``graph``: on a corpus with large
    collaborations most pairs are weak, and building, copying and
    removing them cost more than counting them. The result is the graph
    that removing the weak edges from the full one gives, adjacency order
    included: :func:`_finalize`'s copy lists each node's earlier
    neighbours in node order and its later ones in the order their edges
    were first built, and building only the strong edges keeps that
    order.
    """

    def __init__(self, min_count: int = 2) -> None:
        if min_count < 1:
            raise ConfigurationError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self.name = f"double-coauthorship" if min_count == 2 else f"min-coauthorship-{min_count}"

    def prune(
        self,
        corpus: Corpus,
        *,
        seed: Optional[AuthorId] = None,
        graph: Optional[CoauthorshipGraph] = None,
    ) -> TrustedSubgraph:
        g = build_coauthorship_graph(corpus, min_weight=self.min_count)
        return _finalize(self.name, g.nx, corpus, seed)


class MaxAuthorsTrust(TrustHeuristic):
    """Keep only publications with at most ``max_authors`` authors.

    ``max_authors=5`` is the paper's "number of authors" graph (it keeps
    publications with *fewer than 6* authors). Large-collaboration papers
    — like the 86-author publication the paper singles out — contribute no
    edges under this heuristic.
    """

    def __init__(self, max_authors: int = 5) -> None:
        if max_authors < 1:
            raise ConfigurationError(f"max_authors must be >= 1, got {max_authors}")
        self.max_authors = max_authors
        self.name = (
            "number-of-authors" if max_authors == 5 else f"max-authors-{max_authors}"
        )

    def prune(
        self,
        corpus: Corpus,
        *,
        seed: Optional[AuthorId] = None,
        graph: Optional[CoauthorshipGraph] = None,
    ) -> TrustedSubgraph:
        # This heuristic filters *publications* first, so a prebuilt graph
        # of the unfiltered corpus cannot be reused: edges must be recounted
        # over the surviving publications. ``graph`` is accepted for
        # interface uniformity but the build always runs on the filtered
        # corpus.
        filtered = corpus.filter_max_authors(self.max_authors)
        g = build_coauthorship_graph(filtered)
        return _finalize(self.name, g.nx, filtered, seed)


class CompositeTrust(TrustHeuristic):
    """Sequential composition of heuristics (publication filters first).

    Heuristics are applied in the given order; each stage prunes the
    publication set to the previous stage's survivors, so e.g. composing
    :class:`MaxAuthorsTrust` with :class:`MinCoauthorshipTrust` requires
    double coauthorship *among small-author-list publications*.
    """

    def __init__(self, stages: Sequence[TrustHeuristic], name: Optional[str] = None) -> None:
        if not stages:
            raise ConfigurationError("CompositeTrust requires at least one stage")
        self.stages = list(stages)
        self.name = name or "+".join(s.name for s in self.stages)

    def prune(
        self,
        corpus: Corpus,
        *,
        seed: Optional[AuthorId] = None,
        graph: Optional[CoauthorshipGraph] = None,
    ) -> TrustedSubgraph:
        current = corpus
        result: Optional[TrustedSubgraph] = None
        for i, stage in enumerate(self.stages):
            # only the first stage sees the caller's prebuilt graph: later
            # stages run on pruned corpora with different edge sets
            result = stage.prune(current, seed=seed, graph=graph if i == 0 else None)
            current = result.corpus
        assert result is not None
        return TrustedSubgraph(name=self.name, graph=result.graph, corpus=result.corpus)


def paper_trust_heuristics() -> List[TrustHeuristic]:
    """The three heuristics evaluated in the paper's Section VI, in Table I order."""
    return [BaselineTrust(), MinCoauthorshipTrust(2), MaxAuthorsTrust(5)]
