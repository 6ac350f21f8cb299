"""CSR-backed social hop index: the allocation servers' discovery fast path.

Every ``resolve`` ranks replicas by social hop distance from the requester.
Iamnitchi et al. ("Locating Data in (Small-World?) Peer-to-Peer Scientific
Collaborations") frame data location in scientific collaboration graphs as
exactly this hop-bounded small-world search, worth a real index — and
observe that the data *holders* are few and clustered while the
*requesters* are many. :class:`HopIndex` is built around that asymmetry:

* the graph's adjacency is compiled once into numpy CSR arrays
  (:meth:`~repro.social.graph.CoauthorshipGraph.csr_adjacency`), so a BFS
  expands whole frontiers with vectorized gathers instead of per-node
  Python loops;
* the cache holds **distance rows**: one plain list per source, indexed by
  CSR position (:meth:`position`), ``-1`` for unreached nodes. The graph
  is undirected, so ``hops(requester, holder)`` is
  ``row(holder)[position(requester)]`` — discovery keys rows by replica
  *holder*, and a handful of rows answers every requester. A cold
  requester costs one list index per replica, not a BFS;
* the cache is bounded by ``max_sources`` rows and evicts the oldest-built
  row first. A hit never reorders anything: it is one dict lookup and one
  list index, so the warm resolve path stays as cheap as a plain dict;
* bounded-radius queries (:meth:`within`) stop the BFS at a hop limit;
* invalidation is **selective**: a membership event touching one author
  drops only cached rows of sources in that author's connected component
  (:meth:`invalidate_reachable`) instead of clearing everything — sources
  in other components provably cannot have changed reachability.

The index is a pure data structure — no observability, no locking; the
:class:`~repro.cdn.allocation.AllocationServer` wires its counters
(``alloc.hop_cache.*`` row hit/miss plus the ``alloc.hop_index.*`` family)
around it.

Distance semantics are identical to :func:`repro.social.ego.hop_distances`
restricted to one source: the source is at 0, unreachable authors have
no distance, and a source outside the graph reaches nobody (its row is the
shared all-unreached row, cached like any other so repeat lookups stay
O(1)).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..ids import AuthorId
from ..social.graph import CoauthorshipGraph


class HopIndex:
    """Single-source hop-distance rows over a fixed graph, in a bounded cache.

    Parameters
    ----------
    graph:
        The social graph to index. The index snapshots its structure at
        construction; a graph swap means building a new :class:`HopIndex`.
    max_sources:
        Maximum number of cached distance rows. Beyond this bound the
        oldest-built row is evicted (each eviction increments
        :attr:`evictions`).

    Attributes
    ----------
    rows:
        The row cache, ``source -> row``. Read-only for callers: the
        allocation server's rank gather reads it directly so that a warm
        lookup is one ``dict.get``; :meth:`row` fills it.
    """

    def __init__(self, graph: CoauthorshipGraph, *, max_sources: int = 1024) -> None:
        if max_sources < 1:
            raise ConfigurationError(
                f"max_sources must be >= 1, got {max_sources}"
            )
        self.max_sources = max_sources
        self._nodes: List[AuthorId] = graph.nodes()
        self._index: Dict[AuthorId, int] = {a: i for i, a in enumerate(self._nodes)}
        self._indptr, self._indices = graph.csr_adjacency()
        self._component = self._label_components()
        # the row of every source outside the graph: it reaches nobody
        self._unreached: List[int] = [-1] * len(self._nodes)
        # insertion order is eviction order; hits never reorder
        self.rows: Dict[AuthorId, List[int]] = {}
        #: cumulative row evictions since construction
        self.evictions = 0

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of indexed authors."""
        return len(self._nodes)

    @property
    def n_cached(self) -> int:
        """Number of cached distance rows."""
        return len(self.rows)

    def __contains__(self, author: object) -> bool:
        return author in self._index

    def position(self, author: AuthorId) -> Optional[int]:
        """CSR position of ``author`` — its slot in every distance row —
        or None if the author is not indexed."""
        return self._index.get(author)

    def component_of(self, author: AuthorId) -> Optional[int]:
        """Connected-component label of ``author`` (None if not indexed).

        Labels are dense ints assigned in node-index order; two authors
        share a label iff they are connected — the predicate behind
        :meth:`invalidate_reachable`.
        """
        i = self._index.get(author)
        if i is None:
            return None
        return int(self._component[i])

    def is_cached(self, source: AuthorId) -> bool:
        """Whether a distance row for ``source`` is cached."""
        return source in self.rows

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def row(self, source: AuthorId) -> Tuple[List[int], bool]:
        """Distance row of ``source`` and whether it came from the cache.

        ``row[position(a)]`` is the hop distance from ``source`` to ``a``,
        ``-1`` when ``a`` is unreachable. A source outside the graph gets
        the all-unreached row. The row *is* the cache entry — treat it as
        read-only. A miss runs one BFS and may evict the oldest row.
        """
        cached = self.rows.get(source)
        if cached is not None:
            return cached, True
        i = self._index.get(source)
        row = self._unreached if i is None else self._bfs(i).tolist()
        rows = self.rows
        rows[source] = row
        if len(rows) > self.max_sources:
            del rows[next(iter(rows))]
            self.evictions += 1
        return row, False

    def distances(self, source: AuthorId) -> Tuple[Dict[AuthorId, int], bool]:
        """Hop distances from ``source`` to every reachable author.

        Returns ``(hops, hit)`` where ``hit`` says whether the underlying
        row came from the cache. The dict is built from the row on every
        call (O(V)); hot paths index :meth:`row` instead. A source outside
        the graph yields ``{}``.
        """
        row, hit = self.row(source)
        nodes = self._nodes
        return {nodes[j]: d for j, d in enumerate(row) if d >= 0}, hit

    def within(self, source: AuthorId, max_hops: int) -> Dict[AuthorId, int]:
        """Authors within ``max_hops`` of ``source`` with their distances.

        Served by slicing the cached row when one exists; otherwise a
        radius-bounded BFS that stops expanding at ``max_hops`` (the
        bounded result is *not* cached — it would poison full-row reuse).
        """
        if max_hops < 0:
            raise ConfigurationError(f"max_hops must be >= 0, got {max_hops}")
        nodes = self._nodes
        cached = self.rows.get(source)
        if cached is not None:
            return {nodes[j]: d for j, d in enumerate(cached) if 0 <= d <= max_hops}
        i = self._index.get(source)
        if i is None:
            return {}
        dist = self._bfs(i, max_hops)
        return {nodes[int(j)]: int(dist[j]) for j in np.flatnonzero(dist >= 0)}

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_source(self, source: AuthorId) -> bool:
        """Drop the cached row of one source. Returns whether it existed."""
        return self.rows.pop(source, None) is not None

    def invalidate_reachable(self, author: AuthorId) -> int:
        """Drop every cached row whose source is in ``author``'s component.

        This is the selective-invalidation rule for membership events: a
        change at ``author`` can only matter to sources that can reach it,
        i.e. sources in the same component. Cached rows of sources in other
        components — and of sources outside the graph entirely (which reach
        nobody, and registration adds no edges) — stay. Returns the number
        of rows dropped.
        """
        i = self._index.get(author)
        if i is None:
            return 0
        comp = int(self._component[i])
        doomed = [
            s
            for s in self.rows
            if (j := self._index.get(s)) is not None and int(self._component[j]) == comp
        ]
        for s in doomed:
            del self.rows[s]
        return len(doomed)

    def invalidate_all(self) -> int:
        """Drop every cached row. Returns the number of rows dropped."""
        n = len(self.rows)
        self.rows.clear()
        return n

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bfs(self, start: int, max_hops: Optional[int] = None) -> np.ndarray:
        """Frontier-vectorized BFS from node index ``start``.

        Returns an int64 distance array with -1 for unreached nodes. Each
        level expands the whole frontier at once: CSR slice bounds are
        gathered for every frontier node, flattened into one fancy-indexed
        neighbor fetch, and deduplicated with ``np.unique`` — no per-node
        Python loop.
        """
        n = len(self._nodes)
        dist = np.full(n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = np.array([start], dtype=np.int64)
        d = 0
        indptr, indices = self._indptr, self._indices
        while frontier.size and (max_hops is None or d < max_hops):
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # flatten the frontier's CSR slices: for slice k of length
            # counts[k], emit starts[k] + (0..counts[k]-1)
            ends = np.cumsum(counts)
            offsets = np.arange(total) - np.repeat(ends - counts, counts)
            neigh = indices[np.repeat(starts, counts) + offsets]
            neigh = np.unique(neigh[dist[neigh] < 0])
            if neigh.size == 0:
                break
            d += 1
            dist[neigh] = d
            frontier = neigh
        return dist

    def _label_components(self) -> np.ndarray:
        comp = np.full(len(self._nodes), -1, dtype=np.int64)
        label = 0
        for i in range(len(self._nodes)):
            if comp[i] >= 0:
                continue
            dist = self._bfs(i)
            comp[dist >= 0] = label
            label += 1
        return comp
