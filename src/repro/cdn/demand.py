"""Per-segment demand tracking: EWMA access rates for the migration planner.

The paper's allocation servers adjust replication "based on demand" (Section
V-B); arXiv:0909.2024 shows that a *rate* estimate — not a raw counter —
is what makes demand-reactive replication stable under churn. The
:class:`DemandTracker` turns accesses into exponentially weighted
moving-average request rates per segment, plus a per-requester weight
vector per segment so the planner can place new replicas *near* the
demand, not just scale it.

Accesses arrive through :meth:`DemandTracker.record_access`. A
:class:`~repro.cdn.migration.MigrationEngine` installs its tracker on the
allocation fabric, and every successful
:meth:`~repro.cdn.allocation.AllocationServer.resolve` then records one
access directly — a lossless feed, independent of the trace ring (which
keeps its ``resolve`` events for diagnostics only).

Determinism: the tracker itself draws no randomness — folds are pure
arithmetic on virtual time, so a seeded workload produces bit-identical
rates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..ids import AuthorId, SegmentId
from ..obs import Registry, get_registry

#: Rates below this are dropped at fold time to bound tracker memory.
_RATE_FLOOR = 1e-12


class DemandTracker:
    """EWMA per-segment demand rates with per-requester attribution.

    Parameters
    ----------
    half_life_s:
        Virtual time over which an idle segment's rate halves. Shorter
        half-lives react faster to demand shifts; longer ones resist
        noise.
    start_at:
        Virtual time of the tracker's first observation window.
    registry:
        Observability registry; defaults to the process-wide one.
    """

    def __init__(
        self,
        *,
        half_life_s: float = 600.0,
        start_at: float = 0.0,
        registry: Optional[Registry] = None,
    ) -> None:
        if half_life_s <= 0:
            raise ConfigurationError(f"half_life_s must be positive, got {half_life_s}")
        self.half_life_s = half_life_s
        self._last_fold = start_at
        #: folded EWMA rates, requests per virtual second
        self._rates: Dict[SegmentId, float] = {}
        #: folded EWMA per-requester rates (same units, same decay)
        self._requesters: Dict[SegmentId, Dict[AuthorId, float]] = {}
        #: accesses observed since the last fold
        self._pending: Dict[SegmentId, Dict[Optional[AuthorId], int]] = {}

        self.obs = registry if registry is not None else get_registry()
        self._m_accesses = self.obs.counter(
            "demand.accesses", help="segment accesses folded into demand rates"
        )
        self._m_folds = self.obs.counter(
            "demand.folds", help="EWMA fold passes executed"
        )
        self._g_tracked = self.obs.gauge(
            "demand.tracked_segments", help="segments with a nonzero demand rate"
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def record_access(
        self,
        segment_id: SegmentId,
        requester: Optional[AuthorId] = None,
        *,
        count: int = 1,
    ) -> None:
        """Register ``count`` accesses of a segment since the last fold."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        per_req = self._pending.setdefault(segment_id, {})
        per_req[requester] = per_req.get(requester, 0) + count

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self, at: float) -> int:
        """Fold pending accesses into the EWMA rates as of virtual time ``at``.

        Standard EWMA over window averages: with ``dt`` since the last
        fold, every existing rate decays by ``0.5 ** (dt / half_life)``
        and the window's mean rate (``count / dt``) contributes the
        complement. A fold with ``dt <= 0`` keeps pending counts for the
        next fold (no window to average over yet). Returns the number of
        accesses folded.
        """
        dt = at - self._last_fold
        if dt <= 0:
            return 0
        decay = 0.5 ** (dt / self.half_life_s)
        folded = 0

        touched = set(self._rates) | set(self._pending)
        for seg in touched:
            count = sum(self._pending.get(seg, {}).values())
            folded += count
            new = self._rates.get(seg, 0.0) * decay + (count / dt) * (1.0 - decay)
            if new < _RATE_FLOOR:
                self._rates.pop(seg, None)
                self._requesters.pop(seg, None)
                continue
            self._rates[seg] = new
            weights = self._requesters.setdefault(seg, {})
            pending_req = self._pending.get(seg, {})
            for author in set(weights) | set(pending_req.keys() - {None}):
                if author is None:
                    continue
                c = pending_req.get(author, 0)
                w = weights.get(author, 0.0) * decay + (c / dt) * (1.0 - decay)
                if w < _RATE_FLOOR:
                    weights.pop(author, None)
                else:
                    weights[author] = w
        self._pending.clear()
        self._last_fold = at
        self._m_folds.inc()
        self._m_accesses.inc(folded)
        self._g_tracked.set(len(self._rates))
        return folded

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rate(self, segment_id: SegmentId) -> float:
        """Folded demand rate of a segment (requests per virtual second)."""
        return self._rates.get(segment_id, 0.0)

    @property
    def tracked_segments(self) -> int:
        """Segments with a nonzero folded rate."""
        return len(self._rates)

    def hot_segments(self, min_rate: float) -> List[Tuple[SegmentId, float]]:
        """Segments at or above ``min_rate``, hottest first (ties by id)."""
        if min_rate < 0:
            raise ConfigurationError(f"min_rate must be >= 0, got {min_rate}")
        out = [(s, r) for s, r in self._rates.items() if r >= min_rate]
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def top_requesters(
        self, segment_id: SegmentId, n: int = 5
    ) -> List[Tuple[AuthorId, float]]:
        """The ``n`` heaviest requesters of a segment with their folded
        rates, heaviest first (ties by author id). Empty when the segment
        has no attributed demand."""
        weights = self._requesters.get(segment_id, {})
        out = sorted(weights.items(), key=lambda t: (-t[1], t[0]))
        return out[:n]
