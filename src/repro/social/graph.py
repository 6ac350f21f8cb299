"""The coauthorship graph: the social fabric underlying the S-CDN.

Nodes are authors; an undirected edge links two authors who coauthored at
least one publication, weighted by how many publications they share (the
paper's "proven trust" signal). :class:`CoauthorshipGraph` wraps a
:class:`networkx.Graph` with the domain operations the rest of the library
needs, while exposing the raw graph for algorithms that want it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..ids import AuthorId
from .records import Corpus


class _OrderedNodeFilter:
    """Node-membership filter with a deterministic ``nodes`` container.

    Drop-in replacement for ``networkx.classes.filters.show_nodes``,
    which keeps its nodes in a ``set``. networkx's ``FilterAtlas``
    iterates ``filter.nodes`` directly whenever the filter is smaller
    than the graph, so a set-backed filter leaks hash-randomized
    iteration order into subgraph node/edge order. An insertion-ordered
    dict gives O(1) membership with a stable order instead.
    """

    __slots__ = ("nodes",)

    def __init__(self, ordered_nodes: Iterable[AuthorId]) -> None:
        self.nodes = dict.fromkeys(ordered_nodes)

    def __call__(self, node: AuthorId) -> bool:
        return node in self.nodes


def ordered_induced_view(g: nx.Graph, nodes: Iterable[AuthorId]) -> nx.Graph:
    """Induced-subgraph *view* of ``g`` with deterministic iteration order.

    ``networkx.Graph.subgraph`` keeps its node filter in a ``set`` and
    iterates that set directly whenever it is smaller than the graph, so
    node — and therefore edge and adjacency — order varies with
    ``PYTHONHASHSEED``. Every subgraph this package takes (trust pruning,
    ego networks, placement host subsets) must instead come through here:
    the filter iterates in *base-graph insertion order*, which is the same
    in every process. Call ``.copy()`` on the result for an independent
    graph; the copy inherits the deterministic order.
    """
    node_set = nodes if isinstance(nodes, (set, frozenset)) else set(nodes)
    ordered = [n for n in g if n in node_set]
    return nx.subgraph_view(g, filter_node=_OrderedNodeFilter(ordered))


class CoauthorshipGraph:
    """A weighted, undirected coauthorship graph.

    Parameters
    ----------
    graph:
        The underlying networkx graph. Edge attribute ``weight`` counts
        shared publications; edge attribute ``pubs`` is a tuple of the
        publication ids that created the edge.
    seed:
        Optional ego-network seed author (the case study's "Kyle Chard"
        node). Preserved through pruning so plots/benches can anchor on it.
    """

    def __init__(self, graph: nx.Graph, *, seed: Optional[AuthorId] = None) -> None:
        if graph.is_directed():
            raise GraphError("coauthorship graph must be undirected")
        self._g = graph
        if seed is not None and seed not in graph:
            raise GraphError(f"seed author {seed!r} is not a node of the graph")
        self._seed = seed

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def nx(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph` (shared, do not mutate)."""
        return self._g

    @property
    def seed(self) -> Optional[AuthorId]:
        """The ego-network seed author, if any."""
        return self._seed

    @property
    def n_nodes(self) -> int:
        """Number of authors."""
        return self._g.number_of_nodes()

    @property
    def n_edges(self) -> int:
        """Number of coauthorship edges."""
        return self._g.number_of_edges()

    def nodes(self) -> List[AuthorId]:
        """All author ids, in insertion order."""
        return list(self._g.nodes())

    def __contains__(self, author: object) -> bool:
        return author in self._g

    def __len__(self) -> int:
        return self.n_nodes

    def neighbors(self, author: AuthorId) -> List[AuthorId]:
        """Direct coauthors of ``author``."""
        if author not in self._g:
            raise GraphError(f"unknown author {author!r}")
        return list(self._g.neighbors(author))

    def degree(self, author: AuthorId) -> int:
        """Number of distinct coauthors of ``author``."""
        if author not in self._g:
            raise GraphError(f"unknown author {author!r}")
        return int(self._g.degree(author))

    def edge_weight(self, a: AuthorId, b: AuthorId) -> int:
        """Number of publications coauthored by ``a`` and ``b`` (0 if no edge)."""
        data = self._g.get_edge_data(a, b)
        return int(data["weight"]) if data else 0

    def edges(self) -> Iterator[Tuple[AuthorId, AuthorId, int]]:
        """Yield ``(a, b, weight)`` for every edge."""
        for a, b, w in self._g.edges(data="weight", default=1):
            yield a, b, int(w)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[AuthorId]]:
        """Connected components, largest first."""
        return sorted(nx.connected_components(self._g), key=len, reverse=True)

    def n_components(self) -> int:
        """Number of connected components ("islands" in the paper's Fig. 2b)."""
        return nx.number_connected_components(self._g)

    def max_span(self) -> int:
        """Maximum shortest-path length over all node pairs (graph diameter),
        taken across connected components (the paper reports "maximum span"
        of 6 hops even for the pruned graphs with islands).

        Exact for components up to 600 nodes; larger components use the
        repeated double-sweep heuristic (BFS to the farthest node, then BFS
        from it, restarted from several seeds), which returns a lower bound
        that is exact on trees and almost always tight in practice.
        Returns 0 for a graph with no edges.
        """
        if self.n_edges == 0:
            return 0
        best = 0
        for comp in nx.connected_components(self._g):
            if len(comp) < 2:
                continue
            sub = self._g.subgraph(comp)
            if len(comp) <= 600:
                ecc = nx.eccentricity(sub)
                best = max(best, max(ecc.values()))
            else:
                best = max(best, _double_sweep_diameter(sub))
        return best

    def _induced_view(self, nodes: Iterable[AuthorId]) -> nx.Graph:
        """A networkx induced-subgraph view with *deterministic* node order.

        ``networkx.Graph.subgraph`` stores the node filter as a plain
        ``set`` and, when that set is small relative to the graph,
        iterates the set itself instead of the graph — so node (and
        therefore edge) iteration order depends on ``PYTHONHASHSEED``.
        Any placement decision made over such a subgraph silently varies
        across interpreter processes: ``fork`` workers inherit the
        parent's hash seed and hide the bug, ``spawn`` workers do not.
        This helper installs a filter whose ``nodes`` container is an
        insertion-ordered dict in *base-graph order*, which both
        branches of networkx's filtered iteration preserve.
        """
        node_set = set(nodes)
        unknown = node_set - set(self._g)
        if unknown:
            raise GraphError(f"unknown authors in subgraph request: {sorted(unknown)[:5]}")
        return ordered_induced_view(self._g, node_set)

    def subgraph(self, nodes: Iterable[AuthorId]) -> "CoauthorshipGraph":
        """Induced subgraph on ``nodes`` (copied, safe to mutate the result).

        Node order in the copy is the base graph's insertion order
        restricted to ``nodes`` — never hash order — so downstream
        algorithms behave identically in every process (see
        :meth:`_induced_view`).
        """
        node_set = set(nodes)
        sub = self._induced_view(node_set).copy()
        seed = self._seed if self._seed in node_set else None
        return CoauthorshipGraph(sub, seed=seed)

    def subgraph_view(self, nodes: Iterable[AuthorId]) -> "CoauthorshipGraph":
        """Read-only induced subgraph on ``nodes`` — no copy.

        O(V) to build versus the O(V + E) copy of :meth:`subgraph`, which
        is what makes it the right choice for hot paths that build a
        throwaway host subgraph per placement/repair decision. Node
        iteration order is the base graph's insertion order filtered to
        ``nodes`` — exactly the order :meth:`subgraph` yields — so any
        deterministic algorithm over the view ranks identically.

        Do **not** mutate the result (it would write through to this
        graph), and do not hold it across mutations of the base graph
        (the view is live). Use :meth:`subgraph` when you need an
        independent copy.
        """
        node_set = set(nodes)
        seed = self._seed if self._seed in node_set else None
        return CoauthorshipGraph(self._induced_view(node_set), seed=seed)

    def publications_on_edges(self) -> FrozenSet[str]:
        """Ids of all publications contributing at least one edge."""
        pubs: Set[str] = set()
        for _, _, data in self._g.edges(data=True):
            pubs.update(data.get("pubs", ()))
        return frozenset(pubs)

    # ------------------------------------------------------------------
    # numpy bridge (used by vectorized metrics / evaluation)
    # ------------------------------------------------------------------
    def node_index(self) -> Dict[AuthorId, int]:
        """Stable mapping author id -> dense index ``0..n-1``."""
        return {a: i for i, a in enumerate(self._g.nodes())}

    def adjacency_matrix(self) -> "np.ndarray":
        """Dense boolean adjacency matrix in :meth:`node_index` order.

        Intended for the modest graph sizes of the case study (thousands of
        nodes); larger graphs should use the sparse representation via
        :meth:`csr_adjacency`.
        """
        n = self.n_nodes
        mat = np.zeros((n, n), dtype=bool)
        idx = self.node_index()
        for a, b in self._g.edges():
            i, j = idx[a], idx[b]
            mat[i, j] = True
            mat[j, i] = True
        return mat

    def csr_adjacency(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """Compressed-sparse-row adjacency ``(indptr, indices)`` in
        :meth:`node_index` order.

        The neighbors of node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
        sorted ascending for determinism. This is the sparse counterpart of
        :meth:`adjacency_matrix` — O(V + E) memory instead of O(V^2) — and
        the backing store of :class:`repro.cdn.hopindex.HopIndex`'s
        frontier-vectorized BFS.
        """
        n = self.n_nodes
        m = self.n_edges
        idx = self.node_index()
        rows = np.empty(2 * m, dtype=np.int64)
        cols = np.empty(2 * m, dtype=np.int64)
        k = 0
        for a, b in self._g.edges():
            i, j = idx[a], idx[b]
            rows[k] = i
            cols[k] = j
            rows[k + 1] = j
            cols[k + 1] = i
            k += 2
        order = np.lexsort((cols, rows))
        indices = cols[order]
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices


def _double_sweep_diameter(g: nx.Graph, restarts: int = 4) -> int:
    """Lower-bound diameter of a connected graph via repeated double sweeps."""
    nodes = list(g.nodes())
    best = 0
    start = nodes[0]
    for k in range(restarts):
        dist = nx.single_source_shortest_path_length(g, start)
        far_node, far_dist = max(dist.items(), key=lambda t: t[1])
        dist2 = nx.single_source_shortest_path_length(g, far_node)
        far2_node, far2_dist = max(dist2.items(), key=lambda t: t[1])
        best = max(best, far_dist, far2_dist)
        start = far2_node if far2_node != start else nodes[(k + 1) % len(nodes)]
    return best


def build_coauthorship_graph(
    corpus: Corpus,
    *,
    seed: Optional[AuthorId] = None,
    min_weight: int = 1,
) -> CoauthorshipGraph:
    """Build the weighted coauthorship graph of ``corpus``.

    Parameters
    ----------
    corpus:
        Source publications.
    seed:
        Optional ego seed to carry on the graph (must appear in the corpus).
    min_weight:
        Keep only edges whose weight (shared publication count) is at least
        this value. ``min_weight=2`` is the paper's "double coauthorship"
        pruning applied at graph level; prefer the heuristics in
        :mod:`repro.social.trust` which also handle node removal.

    Notes
    -----
    Every author of every publication becomes a node, including sole
    authors of single-author papers (isolated nodes). Pruning heuristics
    decide separately what to do with isolated nodes.
    """
    g = nx.Graph()
    # sorted: author_ids is a frozenset, and node insertion order is the
    # order every downstream iteration (placement, BFS, subgraphs) sees —
    # it must not vary with PYTHONHASHSEED across processes
    g.add_nodes_from(sorted(corpus.author_ids))
    edge_pubs: Dict[Tuple[AuthorId, AuthorId], List[str]] = {}
    for pub in corpus:
        for pair in pub.coauthor_pairs():
            edge_pubs.setdefault(pair, []).append(str(pub.pub_id))
    for (a, b), pubs in edge_pubs.items():
        if len(pubs) >= min_weight:
            g.add_edge(a, b, weight=len(pubs), pubs=tuple(pubs))
    if seed is not None and seed not in g:
        raise GraphError(f"seed author {seed!r} does not appear in the corpus")
    return CoauthorshipGraph(g, seed=seed)
