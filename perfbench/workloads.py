"""The four benchmark workloads.

Each workload generates its inputs from a seed, sets the system up
(parse, catalog, plan, build), runs timed passes over the same inputs,
and checks every pass's net matches against an independent execution
that runs outside the timed region.

* ``stock-shared`` — the paper's Section 7.2 pattern set (one pattern
  per category) over the synthetic stock stream, planned jointly with
  DP-B and run as one shared plan in ``MultiQueryEngine``.  Theta-only
  predicates: the work sits in predicate kernels, range/linear stores,
  negation, Kleene and the shared DAG; hash indexing does nothing.
* ``keyed`` — one keyed ``SEQ(A,B,C,D)`` on a DP-B tree plan in one
  ``TreeEngine``.  Hash probes, store inserts, per-node expiry and peak
  bookkeeping dominate.  The single-threaded baseline of
  ``keyed-service`` (same generator and pattern).
* ``keyed-service`` — the same pattern and stream through ``Ingestor``
  → ``Session`` → a 2-worker ``processes`` pool with key partitioning:
  an open loop at a fixed rate for latency, then a closed loop with
  ``block`` backpressure for capacity.  Routing, pickling, pipe
  transport, ack drain and the safety frontier dominate.
* ``disorder-corrections`` — a keyed ``SEQ(A, NOT(N), B, C)`` delivered
  out of order within a bounded delay into a ``DeltaEngine``, with a
  fixed share of retractions and updates mixed in (some on the negated
  type).  The reorder buffer, replay and negation do the work.
"""

from __future__ import annotations

import asyncio
import hashlib
import re
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List

from repro import (
    DeltaEngine,
    Ingestor,
    ParallelConfig,
    ParallelExecutor,
    Stream,
    build_engines,
    estimate_pattern_catalog,
    net_fingerprints,
    parse_pattern,
    plan_pattern,
    plan_workload,
)
from repro.engines.matches import Match
from repro.events import Event
from repro.observe.registry import MetricsRegistry
from repro.observe.trace import merge_node_stats
from repro.patterns import format_pattern
from repro.workloads.patterns import (
    CATEGORIES,
    PatternWorkloadConfig,
    generate_pattern_set,
)
from repro.workloads.stocks import stock_symbols

import inputs
from measure import HostSpeed, Timeline, median

_clock = time.perf_counter
_DISJUNCT = re.compile(r"^(\('[^'#]*)#dnf\d+")

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Setup:
    """What one set-up produced, with the time of each step."""

    #: Planner output every pass builds its engines from.
    plan: object
    parse_s: float
    catalog_s: float
    plan_s: float
    build_s: float
    plan_cost: float
    #: Predicate kernels the built engine compiled.
    kernels: int = 0
    #: keyed-service: the executor whose pool the set-up started.
    executor: object = None
    extra: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.parse_s + self.catalog_s + self.plan_s + self.build_s


@dataclass
class PassResult:
    """One timed pass over the workload's inputs.

    Only a digest of the net match fingerprints is kept, so that the
    results of earlier passes do not grow the heap later passes run in.
    """

    #: Wall time scaled to the reference host speed (measure.Timeline).
    wall: float
    raw_wall: float
    events: int
    lost: int
    matches: int
    digest: str
    latencies: array
    metrics: object
    nodes: List[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def fingerprint_digest(fingerprints: List[str]) -> str:
    """Digest of a sorted fingerprint list."""
    h = hashlib.sha256()
    for fingerprint in fingerprints:
        h.update(fingerprint.encode())
        h.update(b"\n")
    return h.hexdigest()


def pass_result(
    wall, raw_wall, events, lost, outputs, latencies, metrics, **kw
):
    fingerprints = net_fingerprints(outputs)
    return PassResult(
        wall=wall,
        raw_wall=raw_wall,
        events=events,
        lost=lost,
        matches=len(fingerprints),
        digest=fingerprint_digest(fingerprints),
        latencies=latencies,
        metrics=metrics,
        **kw,
    )


def constituents(match) -> list:
    out = []
    for value in match.bindings.values():
        if isinstance(value, tuple):
            out.extend(value)
        else:
            out.append(value)
    return out


def closed_loop(engine, items) -> tuple:
    """Hand ``items`` to ``engine.process`` one by one, as fast as it
    returns, then ``finalize``.

    Returns ``(wall, raw_wall, outputs, latencies, calls)``.  The calls
    run on a :class:`Timeline`: ``wall`` and every latency are scaled to
    the reference host speed, ``raw_wall`` is the unscaled time of the
    calls, and no time includes a calibration slice.  A match's
    detection latency runs from the start of the call that handed in its
    last-arriving event to the return of the call that emitted it, minus
    the time of correction calls (items that are not events) in between:
    those stalls are measured on their own as correction time.  Only
    first emissions (plain matches) count.  ``calls`` holds each call's
    scaled time, in item order.
    """
    starts = array("d")
    ends = array("d")
    emitted: List[tuple] = []
    process = engine.process
    timeline = Timeline()
    for item in items:
        t0 = _clock()
        out = process(item)
        t1 = _clock()
        starts.append(t0 - timeline.cut)
        ends.append(t1 - timeline.cut)
        if out:
            emitted.append((len(ends) - 1, ends[-1], out))
        timeline.tick(t1)
    out = engine.finalize()
    t1 = _clock()
    if out:
        emitted.append((len(ends), t1 - timeline.cut, out))
    timeline.end(t1)

    arrived: Dict[float, int] = {}
    stalled = array("d", [0.0])  # correction time up to each call
    for index, item in enumerate(items):
        stall = 0.0
        if isinstance(item, Event):
            arrived[item.timestamp] = index
        else:
            stall = ends[index] - starts[index]
        stalled.append(stalled[-1] + stall)
    outputs: list = []
    latencies = array("d")
    for emit_index, emit, out in emitted:
        outputs.extend(out)
        factor = timeline.factor_at(emit)
        for match in out:
            if type(match) is Match:
                last = max(arrived[e.timestamp] for e in constituents(match))
                latencies.append(
                    (
                        emit
                        - starts[last]
                        - (stalled[emit_index] - stalled[last + 1])
                    )
                    * factor
                )
    calls = array(
        "d",
        (
            (t1 - t0) * timeline.factor_at(t1)
            for t0, t1 in zip(starts, ends)
        ),
    )
    return timeline.scaled, timeline.raw, outputs, latencies, calls


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class BenchWorkload:
    """Base: generate → set up → timed passes → reference check.

    The default pass hands the generated events, one ``process`` call
    each, to a fresh engine built from the set-up's plan.
    """

    name = ""

    def generate(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, data: dict, rec=None) -> Setup:
        raise NotImplementedError

    def run_pass(self, data: dict, setup: Setup, tracer=None) -> PassResult:
        engine = build_engines(setup.plan, tracer=tracer)
        events = data["events"]
        wall, raw_wall, outputs, latencies, _ = closed_loop(engine, events)
        return pass_result(
            wall,
            raw_wall,
            len(events),
            engine.metrics.events_late_dropped,
            outputs,
            latencies,
            engine.metrics,
            nodes=tracer.node_dicts() if tracer is not None else [],
        )

    def reference(self, data: dict, setup: Setup) -> List[str]:
        raise NotImplementedError

    def close(self, setup: Setup) -> None:
        """Release what a set-up holds (pools)."""


def _timed(rec, span: str, fn, *args, **kwargs):
    """Call ``fn``; return its value and wall time, recording a span
    named ``span`` when a recorder is given."""
    if rec is None:
        started = _clock()
        value = fn(*args, **kwargs)
        return value, _clock() - started
    with rec.span(span):
        started = _clock()
        value = fn(*args, **kwargs)
        return value, _clock() - started


def _built(rec, plan, parse_s, catalog_s, plan_s, plan_cost, **extra) -> Setup:
    """Finish a set-up by building the engine once (timed)."""
    engine, build_s = _timed(rec, "engines.build", build_engines, plan)
    return Setup(
        plan=plan,
        parse_s=parse_s,
        catalog_s=catalog_s,
        plan_s=plan_s,
        build_s=build_s,
        plan_cost=plan_cost,
        kernels=kernels(engine.metrics),
        extra=extra,
    )


class StockShared(BenchWorkload):
    name = "stock-shared"
    #: Fixed skewed per-symbol rates (events per stream second), 0.5–5.
    SYMBOLS = tuple(
        (name, round(0.5 * 10 ** (i / 9), 4))
        for i, name in enumerate(stock_symbols(10))
    )
    DURATION = 3000.0
    PATTERN_SEED = 0
    PATTERN_SIZE = 4
    WINDOW = 0.5

    def generate(self, seed: int) -> dict:
        events = inputs.stock_stream(seed, self.SYMBOLS, self.DURATION)
        events = [event.with_seq(i) for i, event in enumerate(events)]
        config = PatternWorkloadConfig(
            sizes=(self.PATTERN_SIZE,),
            patterns_per_size=1,
            window=self.WINDOW,
            seed=self.PATTERN_SEED,
        )
        names = [name for name, _ in self.SYMBOLS]
        # The query text a user would submit, so set-up includes parsing.
        queries = {}
        for category in CATEGORIES:
            pattern = generate_pattern_set(category, names, config)[0]
            queries[pattern.name] = format_pattern(pattern)
        return {
            "events": events,
            "queries": queries,
            "digest": inputs.digest(events + list(queries.values())),
        }

    def setup(self, data: dict, rec=None) -> Setup:
        def parse():
            return [
                parse_pattern(text, name=name)
                for name, text in data["queries"].items()
            ]

        def catalog():
            stream = Stream(data["events"])
            return {p.name: estimate_pattern_catalog(p, stream) for p in patterns}

        patterns, parse_s = _timed(rec, "patterns.parse", parse)
        catalogs, catalog_s = _timed(rec, "stats.catalog", catalog)
        plan, plan_s = _timed(
            rec, "optimizers.plan", plan_workload, patterns, catalogs,
            algorithm="DP-B",
        )
        return _built(
            rec, plan, parse_s, catalog_s, plan_s, plan.report.shared_cost,
            patterns=patterns, catalogs=catalogs,
        )

    def reference(self, data, setup) -> List[str]:
        # Independent per-pattern engines, interpreted and on linear
        # stores: no sharing, no kernels, no indexes.
        stream = Stream(data["events"])
        matches: list = []
        for pattern in setup.extra["patterns"]:
            planned = plan_pattern(
                pattern, setup.extra["catalogs"][pattern.name],
                algorithm="DP-B",
            )
            engine = build_engines(planned, indexed=False, compiled=False)
            matches.extend(engine.run(stream))
        # A disjunction engine names matches after their DNF disjunct
        # ("q#dnf1"); the shared plan reports them under the query.
        return sorted(
            _DISJUNCT.sub(r"\1", fingerprint)
            for fingerprint in net_fingerprints(matches)
        )


def kernels(metrics) -> int:
    """Predicate kernels the engine compiled, whether generated now or
    taken from the process-wide codegen cache of an earlier build."""
    return metrics.kernels_generated + metrics.codegen_cache_hits


KEYED_TYPES = (("A", 0.4), ("B", 0.3), ("C", 0.2), ("D", 0.1))
KEYED_QUERY = (
    "PATTERN SEQ(A a, B b, C c, D d) "
    "WHERE a.k = b.k AND b.k = c.k AND c.k = d.k AND a.v < c.v "
    "WITHIN 2"
)
KEYED_EVENTS = 40000
KEYED_KEYS = 48
KEYED_GAP = 0.005


def keyed_reference(planned, events) -> List[str]:
    """Net fingerprints of an interpreted, linear-store run.

    Every variable of the keyed patterns is tied to one key ``k`` by
    equalities, so no match spans two keys: the reference runs one
    engine per key over that key's events (still in stream order),
    which keeps linear stores affordable at benchmark scale.
    """
    by_key: Dict[object, list] = {}
    for event in events:
        by_key.setdefault(event["k"], []).append(event)
    matches: list = []
    for key_events in by_key.values():
        engine = build_engines(planned, indexed=False, compiled=False)
        matches.extend(engine.run(Stream(key_events)))
    return net_fingerprints(matches)


def _plan_single(text: str, events, algorithm: str, rec):
    pattern, parse_s = _timed(rec, "patterns.parse", parse_pattern, text, name="q")
    catalog, catalog_s = _timed(
        rec, "stats.catalog",
        lambda: estimate_pattern_catalog(pattern, Stream(list(events))),
    )
    planned, plan_s = _timed(
        rec, "optimizers.plan", plan_pattern, pattern, catalog,
        algorithm=algorithm,
    )
    return planned, parse_s, catalog_s, plan_s


class Keyed(BenchWorkload):
    name = "keyed"

    def generate(self, seed: int) -> dict:
        events = inputs.keyed_stream(
            seed, KEYED_EVENTS, KEYED_KEYS, KEYED_TYPES, KEYED_GAP
        )
        return {
            "events": events,
            "query": KEYED_QUERY,
            "digest": inputs.digest(events),
        }

    def setup(self, data: dict, rec=None) -> Setup:
        planned, *times = _plan_single(
            data["query"], data["events"], "DP-B", rec
        )
        return _built(rec, planned, *times, sum(p.cost for p in planned))

    def reference(self, data, setup) -> List[str]:
        return keyed_reference(setup.plan, data["events"])


class KeyedService(Keyed):
    """Phase A: open loop at :attr:`RATE` events/s (latency).  Phase B:
    closed loop with ``block`` backpressure (capacity)."""

    name = "keyed-service"
    #: Open-loop rate, about half of the 2-worker pool's capacity.
    RATE = 4000.0
    WORKERS = 2

    def setup(self, data: dict, rec=None) -> Setup:
        planned, parse_s, catalog_s, plan_s = _plan_single(
            data["query"], data["events"], "DP-B", rec
        )
        executor, build_s = _timed(
            rec, "service.start", self._started_executor, planned, False
        )
        return Setup(
            plan=planned,
            parse_s=parse_s,
            catalog_s=catalog_s,
            plan_s=plan_s,
            build_s=build_s,
            plan_cost=sum(p.cost for p in planned),
            executor=executor,
        )

    def config(self, trace: bool = False) -> ParallelConfig:
        return ParallelConfig(
            workers=self.WORKERS,
            partitioner="key",
            backend="processes",
            trace=trace,
        )

    def close(self, setup: Setup) -> None:
        setup.executor.close()

    def _started_executor(self, planned, trace: bool):
        executor = ParallelExecutor(planned, self.config(trace=trace))
        executor.session().pool.start()
        return executor

    def traced_executor(self, setup: Setup):
        """A second pool with worker-side plan-node tracing on."""
        return self._started_executor(setup.plan, True)

    def run_pass(self, data, setup, tracer=None) -> PassResult:
        """One closed-loop pass (phase B).  Worker-side tracing is a
        property of the pool; ``tracer`` only asks for a STATS poll."""
        return asyncio.run(
            _service_run(
                setup.executor, data["events"], None, tracer is not None
            )
        )

    def open_loop(self, data, setup, seconds: float) -> PassResult:
        """Phase A over the first ``RATE × seconds`` events."""
        count = min(len(data["events"]), max(1, int(self.RATE * seconds)))
        return asyncio.run(
            _service_run(
                setup.executor, data["events"][:count], self.RATE, False
            )
        )


#: Ingest framing: a frame is cut at this many events or this age.
FLUSH_EVENTS = 128
FLUSH_SECONDS = 0.01


async def _service_run(executor, events, rate, poll_stats) -> PassResult:
    """Feed ``events`` through an :class:`Ingestor`.

    With ``rate`` each event is due at ``start + i / rate`` and put as
    soon as it is due (open loop); a match's latency runs from the due
    time of its last event to its arrival at the consumer.  Without
    ``rate`` the producer puts as fast as ``put`` returns (closed loop).

    The producer runs on a :class:`Timeline`, so it runs a calibration
    slice after each segment of work; the workers go on with what they
    were sent meanwhile.  The schedule of the open loop is kept on the
    timeline, so it pauses during slices instead of falling behind.
    Wall time and latencies are scaled to the reference host speed.
    """
    registry = MetricsRegistry()
    emitted: List[tuple] = []
    lateness: List[float] = []
    stats = None
    timeline = None

    async def consume(stream):
        async for match in stream:
            emitted.append((timeline.now(), match))

    async with Ingestor(
        executor,
        registry=registry,
        flush_events=FLUSH_EVENTS,
        flush_seconds=FLUSH_SECONDS,
    ) as ingestor:
        timeline = Timeline()
        consumer = asyncio.ensure_future(consume(ingestor.matches()))
        put = ingestor.put
        started = timeline.now()
        if rate is None:
            for event in events:
                await put(event)
                timeline.tick(_clock())
        else:
            gap = 1.0 / rate
            i, n = 0, len(events)
            while i < n:
                timeline.tick(_clock())
                now = timeline.now()
                due_index = min(n, int((now - started) / gap) + 1)
                while i < due_index:
                    lateness.append(timeline.now() - (started + i * gap))
                    await put(events[i])
                    i += 1
                if i < n:
                    wait = started + i * gap - timeline.now()
                    await asyncio.sleep(wait if wait > 0 else 0)
        if poll_stats:
            stats = await ingestor.stats()
        await ingestor.close()
        await consumer
        timeline.end(_clock())
        metrics = ingestor.metrics
        lost = ingestor.shed + ingestor.disorder.events_late_dropped

    latencies = array("d")
    if rate is not None:
        for arrived, match in emitted:
            last = max(e.seq for e in constituents(match))
            latencies.append(
                (arrived - (started + last / rate))
                * timeline.factor_at(arrived)
            )
    depth = registry.series("ingest_queue_depth").points()
    frontier = registry.series("frontier_lag_events").points()
    return pass_result(
        timeline.scaled,
        timeline.raw,
        len(events),
        lost,
        [m for _, m in emitted],
        latencies,
        metrics,
        nodes=merge_node_stats(stats["nodes"] or []) if stats else [],
        extra={
            "lateness": lateness,
            "queue_depth": [value for _, value in depth],
            "frontier_lag": [value for _, value in frontier],
        },
    )


DISORDER_TYPES = (("A", 0.3), ("N", 0.2), ("B", 0.3), ("C", 0.2))
DISORDER_QUERY = (
    "PATTERN SEQ(A a, NOT(N n), B b, C c) "
    "WHERE a.k = n.k AND a.k = b.k AND b.k = c.k "
    "WITHIN 0.5"
)


class DisorderCorrections(BenchWorkload):
    name = "disorder-corrections"
    EVENTS = 8000
    KEYS = 16
    GAP = 0.01
    MAX_DELAY = 0.05
    #: One correction per this many arrivals.
    CORRECTION_EVERY = 400

    def generate(self, seed: int) -> dict:
        ordered = inputs.keyed_stream(
            seed, self.EVENTS, self.KEYS, DISORDER_TYPES, self.GAP
        )
        arrivals = inputs.shuffle_within(ordered, seed, self.MAX_DELAY)
        items = inputs.corrections(
            arrivals,
            seed,
            self.CORRECTION_EVERY,
            self.KEYS,
            "N",
            self.MAX_DELAY,
        )
        return {
            "ordered": ordered,
            "items": items,
            "query": DISORDER_QUERY,
            "digest": inputs.digest(items),
        }

    def setup(self, data: dict, rec=None) -> Setup:
        planned, *times = _plan_single(
            data["query"], data["ordered"], "GREEDY", rec
        )
        return _built(rec, planned, *times, sum(p.cost for p in planned))

    def run_pass(self, data, setup, tracer=None) -> PassResult:
        builds = [0]

        def build():
            builds[0] += 1
            return build_engines(setup.plan, tracer=tracer)

        engine = DeltaEngine(
            build, max_delay=self.MAX_DELAY, late_policy="strict"
        )
        items = data["items"]
        wall, raw_wall, outputs, latencies, calls = closed_loop(engine, items)
        events = sum(1 for item in items if isinstance(item, Event))
        metrics = engine.metrics
        # Correction cost by stream position: the call time of each
        # retraction/update, tagged with how far into the stream it came.
        corrections = []
        seen = 0
        for item, dt in zip(items, calls):
            if isinstance(item, Event):
                seen += 1
            else:
                corrections.append((seen / events, dt))
        return pass_result(
            wall,
            raw_wall,
            events,
            metrics.events_late_dropped,
            outputs,
            latencies,
            metrics,
            nodes=merge_node_stats(tracer.node_dicts()) if tracer else [],
            extra={
                "corrections": corrections,
                "replays": builds[0] - 1,
                "replayed_events": metrics.events_processed - events,
            },
        )

    def reference(self, data, setup) -> List[str]:
        # A clean, ordered, interpreted run over the corrected stream.
        corrected = [
            event.with_seq(i)
            for i, event in enumerate(inputs.corrected(data["items"]))
        ]
        return keyed_reference(setup.plan, corrected)


WORKLOADS = {
    workload.name: workload
    for workload in (StockShared(), Keyed(), KeyedService(), DisorderCorrections())
}


def setup_median(workload: BenchWorkload, data: dict, rec=None):
    """Set up :data:`SETUP_REPEATS` times, with a calibration slice
    before and after each; keep the last set-up, report medians of the
    times scaled to the reference host speed, and the raw median."""
    setups = []
    factors = []
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        if setups:
            workload.close(setups[-1])
        if rec is None:
            setups.append(workload.setup(data))
        else:
            with rec.span("setup", workload=workload.name):
                setups.append(workload.setup(data, rec))
        factors.append(speed.factor())
    keep = setups[-1]

    def scaled(step):
        return median([step(s) * f for s, f in zip(setups, factors)])

    return keep, {
        "setup_s": scaled(lambda s: s.total_s),
        "parse_s": scaled(lambda s: s.parse_s),
        "catalog_s": scaled(lambda s: s.catalog_s),
        "plan_s": scaled(lambda s: s.plan_s),
        "build_s": scaled(lambda s: s.build_s),
        "raw_setup_s": median([s.total_s for s in setups]),
    }
