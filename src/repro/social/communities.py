"""Community detection over the coauthorship graph.

The paper suggests (Sections V-D and VI-C) grouping users with similar data
requirements via tightly-connected subgroups — e.g. clustering coefficient
"can provide a good basis for determining trust in subgroups". We expose
two standard detectors (greedy modularity and asynchronous label
propagation) plus a modularity score, used by the social data-partitioning
algorithms in :mod:`repro.cdn.partitioning`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Set

import networkx as nx

from ..errors import ConfigurationError, GraphError
from ..ids import AuthorId
from ..rng import SeedLike, make_rng
from .graph import CoauthorshipGraph


def detect_communities(
    graph: CoauthorshipGraph,
    *,
    method: str = "greedy-modularity",
    weighted: bool = True,
    seed: SeedLike = None,
) -> List[Set[AuthorId]]:
    """Partition the graph into communities, largest first.

    Parameters
    ----------
    method:
        ``"greedy-modularity"`` (Clauset-Newman-Moore) or
        ``"label-propagation"`` (asynchronous, randomized).
    weighted:
        Whether to use publication-count edge weights.
    seed:
        RNG seed (only label propagation is stochastic).

    Notes
    -----
    Isolated nodes form singleton communities. The result is a partition:
    every node appears in exactly one community.

    The greedy method runs this module's own Clauset-Newman-Moore kernel
    (:func:`_greedy_modularity`). Its partition equals networkx's
    ``greedy_modularity_communities``, which the tests keep as the
    reference, and it no longer depends on the installed networkx
    release. The kernel breaks ties by sorted label, so node labels must
    be mutually orderable; every caller in this package passes
    ``AuthorId`` strings.

    The returned order is deterministic: communities sort largest first,
    and equal-size communities sort by their sorted member tuple — never
    by set-iteration order, which depends on ``PYTHONHASHSEED``.
    Community *indices* feed
    :class:`repro.cdn.partitioning.SocialPartitioner`'s round-robin
    cold-start assignment and the sharded allocation tier's shard key, so
    a hash-order-dependent order here would leak into placement and
    routing across processes and start methods.
    """
    if graph.n_nodes == 0:
        raise GraphError("cannot detect communities in an empty graph")
    weight = "weight" if weighted else None
    if method == "greedy-modularity":
        comms = _greedy_modularity(graph.nx, weight)
    elif method == "label-propagation":
        rng = make_rng(seed)
        comms = nx.community.asyn_lpa_communities(
            graph.nx, weight=weight, seed=int(rng.integers(0, 2**31))
        )
    else:
        raise ConfigurationError(f"unknown community method {method!r}")
    result = [set(c) for c in comms]
    # Sort key is computed once per community; sorted member tuples give a
    # total order over disjoint sets, so equal-size communities land in a
    # hash-seed-independent position.
    result.sort(key=lambda c: (-len(c), sorted(c)))
    return result


def _greedy_modularity(g: nx.Graph, weight: Optional[str]) -> List[List[AuthorId]]:
    """Clauset-Newman-Moore greedy modularity, in no particular order.

    Every node starts alone; the pair of communities whose merge gains
    the most modularity merges, until the best gain is negative (a gain
    of exactly 0 still merges) or no linked pair is left. Nodes are
    indexed in sorted-label order and one heap holds ``(-gain, i, j)``
    with ``i < j`` for every linked pair, so ties pop the lowest label
    pair first; a popped ``(i, j)`` merges ``i`` into ``j``. Entries are
    deleted lazily: one is live only while ``dq[i][j]`` still equals its
    gain.

    That is the pair networkx's ``greedy_modularity_communities`` pops:
    its heap of row maxima holds every row's best ``(-gain, (u, v))``,
    ``(u, v)`` and ``(v, u)`` always carry equal gains, and ``(min, max)``
    sorts first. Each float below is computed expression for expression
    as networkx 3.6.1 computes it, so near-ties break the same way.
    """
    nodes = sorted(g)
    if not g.size():
        return [[n] for n in nodes]
    index = {n: i for i, n in enumerate(nodes)}
    q0 = 1 / g.size(weight)
    a = [0.0] * len(nodes)
    for n, deg in g.degree(weight=weight):
        a[index[n]] = deg * q0 * 0.5
    # dq[i][j]: the modularity gain of merging communities i and j, kept
    # for both orientations of every linked pair
    dq: List[Dict[int, float]] = [{} for _ in nodes]
    for u, v, wt in g.edges(data=weight, default=1):
        if u != v:
            i, j = index[u], index[v]
            dq[i][j] = dq[j][i] = dq[i].get(j, 0.0) + wt
    heap = []
    for i, row in enumerate(dq):
        a_i = a[i]
        for j, wt in row.items():
            row[j] = gain = q0 * wt - (a_i * a[j] + a_i * a[j])
            if i < j:
                heap.append((-gain, i, j))
    heapify(heap)
    members = [[n] for n in nodes]
    while heap:
        key, i, j = heappop(heap)
        row_i = dq[i]
        if row_i.get(j) != -key:
            continue  # stale: the gain changed, or one side merged away
        if key > 0:
            break
        row_j = dq[j]
        del row_i[j], row_j[i]
        a_i, a_j = a[i], a[j]
        for w, gain in row_j.items():
            if w in row_i:
                gain = gain + row_i[w]
            else:
                gain = gain - (a_i * a[w] + a[w] * a_i)
            row_j[w] = dq[w][j] = gain
            heappush(heap, (-gain, j, w) if j < w else (-gain, w, j))
        for w, gain in row_i.items():
            row_w = dq[w]
            del row_w[i]
            if w not in row_j:
                gain = gain - (a_j * a[w] + a[w] * a_j)
                row_j[w] = row_w[j] = gain
                heappush(heap, (-gain, j, w) if j < w else (-gain, w, j))
        dq[i] = {}
        a[j] = a_j + a_i
        members[j] += members[i]
        members[i] = []
    return [c for c in members if c]


def modularity(
    graph: CoauthorshipGraph,
    communities: List[Set[AuthorId]],
    *,
    weighted: bool = True,
) -> float:
    """Newman modularity of a partition (higher = stronger community structure)."""
    if graph.n_nodes == 0:
        raise GraphError("cannot score communities of an empty graph")
    covered: Set[AuthorId] = set()
    for c in communities:
        if covered & c:
            raise ConfigurationError("communities overlap; expected a partition")
        covered |= c
    if covered != set(graph.nx.nodes()):
        raise ConfigurationError("communities do not cover every node")
    weight = "weight" if weighted else None
    return float(nx.community.modularity(graph.nx, communities, weight=weight))


def community_of(
    communities: List[Set[AuthorId]],
) -> Dict[AuthorId, int]:
    """Invert a community list into a node -> community-index map."""
    out: Dict[AuthorId, int] = {}
    for i, comm in enumerate(communities):
        for a in comm:
            out[a] = i
    return out
