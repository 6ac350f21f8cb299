"""Redundancy policies and failure repair (paper Sections V-B, V-E).

The allocation server exposes the repair primitives; this module packages
them into a *policy* driven by the simulation engine: periodic audits that
keep every segment at its redundancy target as nodes churn, plus a report
type summarizing the redundancy health the paper's metrics section asks
about ("whether the current level(s) of redundancy and replication are
necessary or insufficient").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import Registry, get_registry
from ..sim.engine import SimulationEngine
from .allocation import AllocationServer


@dataclass(frozen=True, slots=True)
class RedundancyReport:
    """Snapshot of catalog redundancy health.

    Attributes
    ----------
    time:
        Virtual time of the audit.
    n_segments:
        Segments tracked.
    mean_redundancy / min_redundancy:
        Live-replica statistics over segments.
    under_replicated:
        Segments below their dataset budget.
    lost:
        Segments with zero live replicas (unrecoverable until a host
        returns).
    repaired:
        Replicas created by the audit that produced this report.
    """

    time: float
    n_segments: int
    mean_redundancy: float
    min_redundancy: int
    under_replicated: int
    lost: int
    repaired: int


class ReplicationPolicy:
    """Periodic redundancy audits against an allocation server.

    Parameters
    ----------
    server:
        The allocation server to audit (the sharded router is one).
    audit_interval_s:
        Period of the audit when attached to an engine.
    hot_threshold:
        If set, each audit also scales datasets whose segments accumulated
        at least this many accesses since the start (demand-driven
        replication). ``None`` disables demand scaling.
    registry:
        Observability registry; defaults to the process-wide one.
    """

    def __init__(
        self,
        server: AllocationServer,
        *,
        audit_interval_s: float = 3600.0,
        hot_threshold: Optional[int] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        if audit_interval_s <= 0:
            raise ConfigurationError("audit_interval_s must be positive")
        if hot_threshold is not None and hot_threshold < 1:
            raise ConfigurationError("hot_threshold must be >= 1 (or None)")
        self.server = server
        self.audit_interval_s = audit_interval_s
        self.hot_threshold = hot_threshold
        self.reports: List[RedundancyReport] = []
        self.obs = registry if registry is not None else get_registry()
        self._m_audits = self.obs.counter(
            "replication.audits", help="redundancy audits executed"
        )
        self._m_repaired = self.obs.counter(
            "replication.repaired", help="replicas created by audits"
        )
        self._m_audit_latency = self.obs.histogram(
            "replication.audit.latency_s", help="wall-clock duration of audit()"
        )
        self._m_under = self.obs.gauge(
            "replication.under_replicated", help="segments below budget at last audit"
        )
        self._m_lost = self.obs.gauge(
            "replication.lost", help="segments with zero live replicas at last audit"
        )
        self._m_mean_redundancy = self.obs.gauge(
            "replication.mean_redundancy", help="mean live replicas per segment"
        )

    def audit(self, *, at: float = 0.0) -> RedundancyReport:
        """Run one audit: repair under-replication (and hot scaling), report."""
        with self._m_audit_latency.time():
            repaired = len(self.server.repair(at=at))
            if self.hot_threshold is not None:
                repaired += len(self.server.scale_hot(self.hot_threshold, at=at))
            report = self.snapshot(at=at, repaired=repaired)
        self.reports.append(report)
        self._m_audits.inc()
        self._m_repaired.inc(repaired)
        self._m_under.set(report.under_replicated)
        self._m_lost.set(report.lost)
        self._m_mean_redundancy.set(report.mean_redundancy)
        self.obs.trace(
            "audit",
            ts=at,
            repaired=repaired,
            under_replicated=report.under_replicated,
            lost=report.lost,
            mean_redundancy=report.mean_redundancy,
        )
        return report

    def snapshot(self, *, at: float = 0.0, repaired: int = 0) -> RedundancyReport:
        """Measure redundancy health without repairing anything."""
        catalog = self.server.catalog
        redundancies: List[int] = []
        under = self.server.under_replicated()
        for ds in catalog.datasets():
            for seg in ds.segments:
                live = [
                    r
                    for r in catalog.replicas_of_segment(seg.segment_id, servable_only=True)
                    if self.server.is_online(r.node_id)
                ]
                redundancies.append(len(live))
        arr = np.asarray(redundancies, dtype=np.int64) if redundancies else np.zeros(0, np.int64)
        return RedundancyReport(
            time=at,
            n_segments=len(redundancies),
            mean_redundancy=float(arr.mean()) if arr.size else 0.0,
            min_redundancy=int(arr.min()) if arr.size else 0,
            under_replicated=len(under),
            lost=int((arr == 0).sum()) if arr.size else 0,
            repaired=repaired,
        )

    def attach(self, engine: SimulationEngine) -> None:
        """Schedule periodic audits on ``engine`` (first after one interval)."""

        def tick(e: SimulationEngine) -> None:
            self.audit(at=e.now)

        engine.every(self.audit_interval_s, tick, label="replication-audit")

    def schedule_repair(self, engine: SimulationEngine, *, delay_s: float = 0.0) -> None:
        """Schedule a one-shot audit ``delay_s`` from the engine's now.

        The failure-triggered repair path: a failure injector (see
        :meth:`repro.sim.failures.FailureInjector.attach_server`) calls
        this on every crash/outage event so repair latency is bounded by
        ``delay_s`` instead of the periodic :attr:`audit_interval_s`.
        """
        if delay_s < 0:
            raise ConfigurationError(f"delay_s must be >= 0, got {delay_s}")
        engine.schedule_in(
            delay_s, lambda e: self.audit(at=e.now), label="repair-on-failure"
        )

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def redundancy_timeline(self) -> List[Tuple[float, float]]:
        """(time, mean_redundancy) over all recorded audits."""
        return [(r.time, r.mean_redundancy) for r in self.reports]

    def stability(self) -> float:
        """1 - coefficient-of-variation of mean redundancy across audits.

        The paper lists *stability* among CDN metrics; a CDN whose
        redundancy level stays flat under churn scores near 1.0.
        Returns 1.0 with fewer than two audits.
        """
        if len(self.reports) < 2:
            return 1.0
        means = np.asarray([r.mean_redundancy for r in self.reports])
        mu = means.mean()
        if mu == 0:
            return 0.0
        return float(max(0.0, 1.0 - means.std() / mu))
