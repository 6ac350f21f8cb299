"""Wall-clock probes installed around the program's public layer boundaries.

Everything here measures the program from outside: the bench replaces
class attributes of the layers' public methods with timing wrappers for
the duration of one repetition and puts the originals back afterwards.
No file of the program changes and no behaviour depends on the probes —
the correctness gate in ``run.py`` compares traced and untraced digests.

Two instruments:

* :class:`Probe` is always installed. It marks where set-up ends and
  the timed phase begins (the first ``SimulationEngine.run``, or the
  first operation the bench times itself), accumulates the timed-phase
  wall, and records the wall latency and outcome of every
  ``CDNClient.access_segment`` call.
* :class:`Tracer` is installed only on traced repetitions. It opens a
  span around every wrapped method and every engine event callback,
  attributes each span's self time (its wall minus the wall its child
  spans cover) to the layer that owns it, and keeps the span trees of
  the slowest requests.
"""

from __future__ import annotations

import functools
import heapq
import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose self time is reported for the timed phase, in report order.
TIMED_LAYERS = (
    "sim.engine",
    "sim.chaos",
    "sim.scenarios",
    "sim.failures",
    "scdn.access",
    "cdn.client",
    "cdn.allocation.resolve",
    "cdn.allocation.control",
    "cdn.sharding",
    "cdn.hopindex",
    "cdn.transfer",
    "cdn.replication",
    "cdn.integrity",
    "cdn.migration",
    "cdn.peers",
    "cdn.consistency",
)

#: Layers whose self time is reported for the set-up phase.
SETUP_LAYERS = (
    "social.generators",
    "social.trust",
    "sim.scenarios",
    "scdn",
    "sim.failures",
    "cdn.allocation.control",
    "cdn.sharding",
)

#: Where events that no layer claims are charged; the gate requires none.
UNATTRIBUTED = "unattributed"

_RESOLVE_GROUP = ("resolve", "resolve_candidates", "record_served", "record_failover")
_CONTROL_GROUP = (
    "__init__",
    "repair",
    "node_offline",
    "node_online",
    "migrate_node",
    "quarantine_replica",
    "register_repository",
    "publish_dataset",
)

#: (module, class or None for module functions, method names, layer).
METHOD_SPANS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.scdn", "SCDN", ("access",), "scdn.access"),
    ("repro.scdn", "SCDN", ("__init__", "join", "publish"), "scdn"),
    ("repro.cdn.allocation", "AllocationServer", _RESOLVE_GROUP, "cdn.allocation.resolve"),
    ("repro.cdn.allocation", "AllocationServer", _CONTROL_GROUP, "cdn.allocation.control"),
    (
        "repro.cdn.sharding",
        "ShardedAllocationRouter",
        _RESOLVE_GROUP + _CONTROL_GROUP + ("reconcile_after_heal",),
        "cdn.sharding",
    ),
    ("repro.cdn.hopindex", "HopIndex", ("distances", "within"), "cdn.hopindex"),
    ("repro.cdn.transfer", "TransferClient", ("execute",), "cdn.transfer"),
    ("repro.cdn.replication", "ReplicationPolicy", ("audit",), "cdn.replication"),
    ("repro.cdn.integrity", "IntegrityScrubber", ("scrub",), "cdn.integrity"),
    ("repro.cdn.migration", "MigrationEngine", ("run_cycle",), "cdn.migration"),
    (
        "repro.cdn.peers",
        "PeerRegistry",
        ("offer", "candidates", "begin_serve", "end_serve", "evict", "leave"),
        "cdn.peers",
    ),
    (
        "repro.sim.failures",
        "FailureInjector",
        (
            "random_crashes",
            "random_outages",
            "random_slow_links",
            "random_corruptions",
            "random_partitions",
            "random_peer_leaves",
        ),
        "sim.failures",
    ),
    ("repro.sim.scenarios", None, ("scenario_graph", "flash_crowd_graph"), "sim.scenarios"),
    ("repro.social.generators", None, ("generate_corpus",), "social.generators"),
    ("repro.social.ego", None, ("ego_corpus",), "social.trust"),
    ("repro.social.trust", "MinCoauthorshipTrust", ("prune",), "social.trust"),
)

#: Engine event label (the part before the first ``:``) -> owning layer.
EVENT_LAYERS: Dict[str, str] = {
    "chaos-traffic": "sim.chaos",
    "flash-crowd": "sim.scenarios",
    "spike-mark": "sim.scenarios",
    "crash": "sim.failures",
    "outage": "sim.failures",
    "outage-end": "sim.failures",
    "slowlink": "sim.failures",
    "slowlink-end": "sim.failures",
    "partition": "sim.failures",
    "partition-end": "sim.failures",
    "corrupt": "sim.failures",
    "replication-audit": "cdn.replication",
    "repair-on-failure": "cdn.replication",
    "integrity-scrub": "cdn.integrity",
    "migration": "cdn.migration",
    "migration-complete": "cdn.migration",
    "peer-lease-expiry": "cdn.peers",
    "peer-leave": "cdn.peers",
    "anti-entropy": "cdn.consistency",
    "propagate": "cdn.consistency",
}


def layer_of_label(label: str) -> str:
    """The layer an engine event with ``label`` is charged to."""
    return EVENT_LAYERS.get(label.split(":", 1)[0], UNATTRIBUTED)


class Tracer:
    """Span recorder: per-layer calls and self time, plus request trees.

    Spans nest on one stack (the program is single-threaded). Each frame
    is ``[layer, name, start, child_wall, tree_node]``. On exit a span's
    self time — its wall minus its children's wall — is added to its
    layer under the current :attr:`phase`, and its wall is added to the
    parent's child total.

    While a request is open (:meth:`begin_request`), every span also
    becomes a node ``[id, parent_id, layer, name, wall_s, self_s]`` of
    that request's tree; the :attr:`keep` slowest trees are retained.
    """

    def __init__(self, *, keep: int = 10, clock: Callable[[], float] = perf_counter):
        self.phase = "setup"
        self.keep = keep
        self.clock = clock
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        #: wall durations of outermost ``resolve`` spans in the timed phase
        self.resolve_wall_s: List[float] = []
        #: scheduled events per label kind
        self.labels: Dict[str, int] = {}
        self._stack: List[list] = []
        self._tree: Optional[List[list]] = None
        self._slowest: List[Tuple[float, int, dict]] = []
        self._requests = 0

    def enter(self, layer: str, name: str) -> None:
        """Open a span of ``layer`` around method or event ``name``."""
        node = None
        tree = self._tree
        if tree is not None:
            parent = self._stack[-1][4] if self._stack else None
            node = [len(tree), parent[0] if parent else None, layer, name, 0.0, 0.0]
            tree.append(node)
        self._stack.append([layer, name, self.clock(), 0.0, node])

    def exit(self) -> None:
        """Close the innermost span."""
        layer, name, start, child, node = self._stack.pop()
        wall = self.clock() - start
        key = (self.phase, layer)
        self.self_s[key] = self.self_s.get(key, 0.0) + wall - child
        self.calls[key] = self.calls.get(key, 0) + 1
        if node is not None:
            node[4] = wall
            node[5] = wall - child
        if self._stack:
            self._stack[-1][3] += wall
        if (
            name == "resolve"
            and self.phase == "timed"
            and not any(f[1] == "resolve" for f in self._stack)
        ):
            self.resolve_wall_s.append(wall)

    def event(self, label: str) -> Tuple[str, str]:
        """Count one scheduled event by label kind (the part before the
        first ``:``); return the kind and the layer that owns it."""
        kind = label.split(":", 1)[0]
        self.labels[kind] = self.labels.get(kind, 0) + 1
        return kind, layer_of_label(kind)

    def begin_request(self) -> None:
        """Start recording the span tree of one request (an operation)."""
        self._tree = []

    def end_request(self, *, wall_s: float, sim_s: Optional[float]) -> None:
        """Close the open request; keep its tree if among the slowest."""
        tree, self._tree = self._tree, None
        self._requests += 1
        if not tree:
            return
        entry = (wall_s, self._requests, {"sim_s": sim_s, "spans": tree})
        if len(self._slowest) < self.keep:
            heapq.heappush(self._slowest, entry)
        elif wall_s > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, entry)

    def layer_totals(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self_s)}`` for one phase."""
        return {
            layer: (self.calls[(p, layer)], s)
            for (p, layer), s in self.self_s.items()
            if p == phase
        }

    def slowest_requests(self) -> List[dict]:
        """The retained request trees, slowest first, as plain dicts."""
        out = []
        for wall, req, body in sorted(self._slowest, reverse=True):
            out.append(
                {
                    "request": f"req-{req}",
                    "wall_s": wall,
                    "sim_s": body["sim_s"],
                    "spans": [
                        {
                            "id": n[0],
                            "parent": n[1],
                            "layer": n[2],
                            "name": n[3],
                            "wall_s": n[4],
                            "self_s": n[5],
                        }
                        for n in body["spans"]
                    ],
                }
            )
        return out


class Probe:
    """Per-repetition wall clock: set-up end, timed phase, per-op samples.

    ``setup_s`` runs from :meth:`restart` to the first :meth:`begin_timed`.
    ``timed_s`` sums every begin/end pair. Each sampled operation records
    its wall latency and, in :attr:`marks`, the timed-phase clock at its
    start, so throughput can be taken over windows of operations.
    Simulated access outcomes are tallied for availability and the
    simulated fetch-time percentiles.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.setup_s: Optional[float] = None
        self.timed_s = 0.0
        self.latency_s: List[float] = []
        self.marks: List[float] = []
        self.ok = 0
        self.failed = 0
        self.remote = 0
        #: simulated duration of every successful remote fetch
        self.fetch_sim_s: List[float] = []
        self._start = perf_counter()
        self._began = 0.0

    def restart(self) -> None:
        """Start the set-up clock now (after the probe is installed)."""
        self._start = perf_counter()

    def begin_timed(self) -> None:
        now = perf_counter()
        if self.setup_s is None:
            self.setup_s = now - self._start
        self._began = now
        if self.tracer is not None:
            self.tracer.phase = "timed"

    def end_timed(self) -> None:
        self.timed_s += perf_counter() - self._began
        if self.tracer is not None:
            self.tracer.phase = "post"

    def call(self, fn: Callable, *args, sample: bool = True):
        """Run one operation the bench drives itself, inside the timed phase.

        ``sample`` operations record a wall latency and, when traced, a
        request tree; the others only add to ``timed_s``.
        """
        tracer = self.tracer if sample else None
        self.begin_timed()
        if sample:
            self.marks.append(self.timed_s)
        if tracer is not None:
            tracer.begin_request()
        t0 = perf_counter()
        try:
            return_value = fn(*args)
        finally:
            wall = perf_counter() - t0
            self.end_timed()
        if tracer is not None:
            tracer.end_request(wall_s=wall, sim_s=None)
        if sample:
            self.latency_s.append(wall)
        return return_value

    def record_access(self, start: float, wall_s: float, outcome) -> None:
        """Tally one ``AccessOutcome`` that began at ``start`` (perf_counter)."""
        self.marks.append(self.timed_s + start - self._began)
        self.latency_s.append(wall_s)
        if outcome.ok:
            self.ok += 1
        else:
            self.failed += 1
        if outcome.source == "remote":
            self.remote += 1
            if outcome.ok:
                self.fetch_sim_s.append(outcome.duration_s)


class Patches:
    """Replaced attributes, restored in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _span(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def install(probe: Probe) -> Patches:
    """Install the probe (and its tracer, when set) on the program's classes.

    Returns the :class:`Patches` to restore; use it as a context manager.
    """
    from repro.cdn.client import CDNClient
    from repro.sim.engine import SimulationEngine

    tracer = probe.tracer
    patches = Patches()

    def make_run(run):
        @functools.wraps(run)
        def timed_run(self, *args, **kwargs):
            probe.begin_timed()
            if tracer is not None:
                tracer.enter("sim.engine", "run")
            try:
                return run(self, *args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.exit()
                probe.end_timed()

        return timed_run

    def make_access(access):
        @functools.wraps(access)
        def timed_access(self, segment_id):
            if tracer is not None:
                tracer.begin_request()
                tracer.enter("cdn.client", "access_segment")
            t0 = perf_counter()
            try:
                outcome = access(self, segment_id)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.exit()
            if tracer is not None:
                tracer.end_request(wall_s=wall, sim_s=outcome.duration_s)
            probe.record_access(t0, wall, outcome)
            return outcome

        return timed_access

    patches.replace(SimulationEngine, "run", make_run)
    patches.replace(CDNClient, "access_segment", make_access)
    if tracer is None:
        return patches

    def make_schedule(schedule):
        @functools.wraps(schedule)
        def traced_schedule(self, time, callback, *, label=""):
            kind, layer = tracer.event(label)

            def traced_callback(engine):
                tracer.enter(layer, kind)
                try:
                    callback(engine)
                finally:
                    tracer.exit()

            return schedule(self, time, traced_callback, label=label)

        return traced_schedule

    patches.replace(SimulationEngine, "schedule", make_schedule)
    for module_name, class_name, names, layer in METHOD_SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for name in names:
            patches.replace(
                owner, name, functools.partial(_span, tracer, layer, name)
            )
    return patches
