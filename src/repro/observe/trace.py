"""Plan-DAG tracing: opt-in, per-node attribution of runtime work.

A :class:`Tracer` is attached to any engine via ``build_engines(...,
tracer=...)`` (or ``engine.set_tracer``).  Each runtime node — a tree
plan node, an NFA chain state, or a shared-DAG node — registers one
:class:`NodeStat`, a mutable bag of counters the engine's evaluation
loops update *only while a tracer is attached*: with no tracer the hot
path takes the exact same closure-kernel fast path with zero extra
per-candidate work (asserted by ``tests/test_observe.py``), and with a
tracer the match output is byte-identical — tracing only ever counts
and times, never filters.

Per node the tracer records events admitted, partial matches probed /
created / expired, matches completed, kernel wall time (sampled with
the cheap monotonic :func:`time.perf_counter`), and the index
bucket-hit / bisect-hit fractions of the node's probes.  Run-level
spans (replans, migrations, worker reseeds, shard degradations,
cost-model instantiations) land in :attr:`Tracer.spans`, correlated by
the tracer's ``run_id`` plus whatever epoch / worker ids the caller
passes as attributes.

Export to JSON or the Chrome ``trace_event`` format (loadable in
Perfetto) via :mod:`repro.observe.export`; render a text report with
``python -m repro.observe.report``.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Optional

#: The span/wall clock.  Module-level so tests can monkeypatch it to
#: prove the tracer-off hot path never reads it.
_clock = time.perf_counter

#: NodeStat counter fields, in export order.
NODE_COUNTERS = (
    "events",
    "created",
    "probed",
    "expired",
    "matches",
    "index_probes",
    "index_hits",
    "range_probes",
    "range_hits",
)


class NodeStat:
    """Mutable per-plan-node counters (one per registered node).

    Engines hold a direct reference and bump the fields inline — no
    dict lookups, no method calls on the per-event path.  ``wall`` is
    seconds of evaluation time attributed to the node (pairing /
    extension work for join nodes and states, admission for leaves).
    """

    __slots__ = (
        "node_id", "label", "kind", "engine", "worker",
        "events", "created", "probed", "expired", "matches", "wall",
        "index_probes", "index_hits", "range_probes", "range_hits",
    )

    def __init__(
        self,
        node_id: int,
        label: str,
        kind: str,
        engine: str = "",
        worker: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.label = label
        self.kind = kind
        self.engine = engine
        self.worker = worker
        self.events = 0       # events admitted at this node
        self.created = 0      # partial matches materialized here
        self.probed = 0       # candidates examined by this node's joins
        self.expired = 0      # partial matches window-expired here
        self.matches = 0      # complete matches rooted here
        self.wall = 0.0       # seconds of evaluation attributed here
        self.index_probes = 0
        self.index_hits = 0
        self.range_probes = 0
        self.range_hits = 0

    def timed(self, clock, metrics, fn, *args):
        """``fn(*args)``, with its wall time and the index / range probe
        counter deltas it caused attributed to this node."""
        index_probes, index_hits = metrics.index_probes, metrics.index_hits
        range_probes, range_hits = metrics.range_probes, metrics.range_hits
        started = clock()
        result = fn(*args)
        self.wall += clock() - started
        self.index_probes += metrics.index_probes - index_probes
        self.index_hits += metrics.index_hits - index_hits
        self.range_probes += metrics.range_probes - range_probes
        self.range_hits += metrics.range_hits - range_hits
        return result

    # -- derived fractions ---------------------------------------------------
    @property
    def bucket_hit_fraction(self) -> float:
        """Fraction of hash probes that found a non-empty bucket."""
        return self.index_hits / self.index_probes if self.index_probes else 0.0

    @property
    def bisect_hit_fraction(self) -> float:
        """Fraction of sorted-run bisects that yielded candidates."""
        return self.range_hits / self.range_probes if self.range_probes else 0.0

    @property
    def survivor_fraction(self) -> float:
        """Created per probed candidate: the node's observed join
        selectivity (1.0 for leaves, which probe nothing)."""
        return self.created / self.probed if self.probed else 0.0

    def to_dict(self) -> dict:
        out = {
            "node_id": self.node_id,
            "label": self.label,
            "kind": self.kind,
            "engine": self.engine,
            "worker": self.worker,
            "wall": self.wall,
        }
        for name in NODE_COUNTERS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NodeStat":
        stat = cls(
            data.get("node_id", 0),
            data.get("label", "?"),
            data.get("kind", "node"),
            data.get("engine", ""),
            data.get("worker"),
        )
        stat.wall = data.get("wall", 0.0)
        for name in NODE_COUNTERS:
            setattr(stat, name, data.get(name, 0))
        return stat

    def add(self, other: "NodeStat") -> None:
        """Fold another node's counters into this one (snapshot merge)."""
        self.wall += other.wall
        for name in NODE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        return (
            f"NodeStat({self.label!r}, kind={self.kind}, "
            f"events={self.events}, created={self.created}, "
            f"wall={self.wall:.6f}s)"
        )


class _SpanHandle:
    """Context manager recording one timed span on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_started")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self._started = _clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        ended = _clock()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer.add_span(
            self._name,
            self._started - self._tracer.origin,
            ended - self._started,
            **self._attrs,
        )


class Tracer:
    """Collects per-node stats and run-level spans for one run.

    ``run_id`` correlates every exported record; spans may carry
    ``epoch=`` / ``worker=`` attributes for finer correlation.  A
    tracer may be shared by several engines (an adaptive controller's
    generations, a worker's per-partition engines) — pass ``engine=``
    to :meth:`register_node` to keep their nodes apart.
    """

    def __init__(self, run_id: str = "run") -> None:
        self.run_id = run_id
        self.origin = _clock()
        self.nodes: List[NodeStat] = []
        self.spans: List[dict] = []
        self._ids = itertools.count()

    # -- node registration ---------------------------------------------------
    def register_node(
        self,
        label: str,
        kind: str,
        engine: str = "",
        worker: Optional[int] = None,
    ) -> NodeStat:
        """Create (and keep) one per-node counter bag."""
        stat = NodeStat(next(self._ids), label, kind, engine, worker)
        self.nodes.append(stat)
        return stat

    # -- spans ---------------------------------------------------------------
    def clock(self) -> float:
        """The raw monotonic clock.  Engines time node work through the
        tracer (``tracer.clock()``), never via a clock of their own —
        so with no tracer attached the hot path provably cannot read a
        clock, and tests monkeypatching :data:`_clock` see every read."""
        return _clock()

    def now(self) -> float:
        """Seconds since the tracer was created (span timestamps)."""
        return _clock() - self.origin

    def span(self, name: str, **attrs) -> _SpanHandle:
        """``with tracer.span("replan", epoch=3): ...`` — timed span."""
        return _SpanHandle(self, name, attrs)

    def add_span(self, name: str, ts: float, dur: float, **attrs) -> None:
        """Record a span with explicit relative timestamps."""
        self.spans.append(
            {"name": name, "ts": ts, "dur": dur, "attrs": attrs}
        )

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration marker at the current time."""
        self.add_span(name, self.now(), 0.0, **attrs)

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view: run id, node table, span list."""
        return {
            "run_id": self.run_id,
            "nodes": [node.to_dict() for node in self.nodes],
            "spans": [dict(span) for span in self.spans],
        }

    def node_dicts(self) -> List[dict]:
        return [node.to_dict() for node in self.nodes]

    def __repr__(self) -> str:
        return (
            f"Tracer({self.run_id!r}, {len(self.nodes)} nodes, "
            f"{len(self.spans)} spans)"
        )


def merge_node_stats(
    node_dicts: Iterable[dict], keep_worker: bool = False
) -> List[dict]:
    """Merge node snapshots by (engine, kind, label), summing counters.

    The per-worker snapshot merge: each parallel worker traces its own
    copy of the plan, so the same plan node appears once per worker —
    summing the copies restores whole-run attribution.  With
    ``keep_worker=True`` the worker id stays in the key instead (per-
    worker breakdowns for skew analysis).
    """
    merged: Dict[tuple, NodeStat] = {}
    order: List[tuple] = []
    for data in node_dicts:
        stat = NodeStat.from_dict(data)
        key = (stat.engine, stat.kind, stat.label)
        if keep_worker:
            key = key + (stat.worker,)
        existing = merged.get(key)
        if existing is None:
            if not keep_worker:
                stat.worker = None
            merged[key] = stat
            order.append(key)
        else:
            existing.add(stat)
    return [merged[key].to_dict() for key in order]
