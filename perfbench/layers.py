"""Layer tracing from outside the program.

:class:`Recorder` wraps the public methods of each layer's classes and
records two kinds of observation:

* **spans** — name, start, end, parent span and the shared run id —
  around coarse entry points the benchmark itself calls (parse,
  catalog, plan, build, each timed pass);
* **aggregates** — per-event calls (store inserts, buffer probes,
  negation offers, routing, pool submits) are far too many to keep one
  span each, so each wrapped method keeps a call count, busy time,
  self time (busy minus the time of wrapped callees it ran) and, where
  the method reports it, a count of calls that did useful work.

Wrappers are class-attribute replacements, installed before any engine
is built and removed afterwards.  Forked pool workers get the original
methods back (``os.register_at_fork``), so only the benchmark process is
measured here; worker-side engine time comes from the program's own
``ParallelConfig(trace=True)`` STATS.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Aggregate:
    __slots__ = ("calls", "busy", "self_time", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.useful = 0


def _removed_some(result) -> bool:
    return bool(result)


#: (module, class, method, aggregate name, useful-outcome test).  The
#: methods named by the layer table of the benchmark; private helpers
#: are never wrapped.
WRAPPED: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.multiquery.executor", "MultiQueryEngine", "process",
     "multiquery.process", None),
    ("repro.engines.tree", "TreeEngine", "process", "engines.process", None),
    ("repro.engines.nfa", "NFAEngine", "process", "engines.process", None),
    ("repro.engines.stores", "PartialMatchStore", "insert",
     "stores.insert", None),
    ("repro.engines.stores", "PartialMatchStore", "probe",
     "stores.probe", None),
    ("repro.engines.stores", "PartialMatchStore", "expire",
     "stores.expire", _removed_some),
    ("repro.engines.buffers", "VariableBuffer", "admit",
     "buffers.admit", None),
    ("repro.engines.buffers", "VariableBuffer", "probe",
     "buffers.probe", None),
    ("repro.engines.buffers", "VariableBuffer", "prune",
     "buffers.prune", None),
    ("repro.engines.negation", "NegationChecker", "offer",
     "negation.offer", None),
    ("repro.engines.negation", "NegationChecker", "violated",
     "negation.violated", _removed_some),
    ("repro.streams.disorder", "DisorderBuffer", "offer",
     "streams.offer", None),
    ("repro.streams.disorder", "DeltaEngine", "process",
     "streams.process", None),
    ("repro.service.ingest", "Ingestor", "put", "service.put", None),
    ("repro.service.session", "SessionStream", "feed", "service.feed", None),
    ("repro.parallel.partitioners", "KeyPartitioner", "route",
     "parallel.route", None),
    ("repro.service.session", "WorkerPool", "submit",
     "parallel.submit", None),
    ("repro.service.session", "WorkerPool", "drain_available",
     "parallel.drain", None),
)


class Recorder:
    """Spans and per-method aggregates for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = _clock()
        self.spans: List[dict] = []
        self._next_span = 0
        self._local = threading.local()
        self._per_thread: List[Dict[str, _Aggregate]] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, object]] = []

    # -- per-thread state ----------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.aggs
        except AttributeError:
            local.stack = []
            local.aggs = {}
            local.spans = []
            with self._lock:
                self._per_thread.append(local.aggs)
            return local.stack, local.aggs

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; spans opened inside it name it as parent."""
        self._state()
        open_spans = self._local.spans
        span_id = self._next_span
        self._next_span += 1
        parent = open_spans[-1] if open_spans else None
        open_spans.append(span_id)
        started = _clock()
        try:
            yield
        finally:
            ended = _clock()
            open_spans.pop()
            self.spans.append(
                {
                    "name": name,
                    "ts": started - self.origin,
                    "dur": ended - started,
                    "attrs": dict(
                        attrs,
                        span_id=span_id,
                        parent=parent,
                        run_id=self.run_id,
                    ),
                }
            )

    # -- wrappers ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every method of :data:`WRAPPED` (idempotent per run)."""
        if self._installed:
            return
        for module_name, class_name, method, name, useful in WRAPPED:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(original, name, useful))
            self._installed.append((cls, method, original))
        os.register_at_fork(after_in_child=self._restore_in_child)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._installed):
            setattr(cls, method, original)
        self._installed = []

    def _restore_in_child(self) -> None:
        # A forked pool worker must run the program's own methods.
        self.uninstall()

    def _wrap(self, original, name: str, useful):
        state = self._state

        def enter():
            stack, aggs = state()
            agg = aggs.get(name)
            if agg is None:
                agg = aggs[name] = _Aggregate()
            frame = [0.0]
            stack.append(frame)
            return stack, agg, frame

        def leave(stack, agg, frame, elapsed):
            stack.pop()
            agg.busy += elapsed
            agg.self_time += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

        if inspect.isgeneratorfunction(original):
            # Time the generator's own steps, not the consumer's work
            # between them; one call is one probe.
            def wrapper(*args, **kwargs):
                stack, agg, frame = enter()
                agg.calls += 1
                started = _clock()
                try:
                    generator = original(*args, **kwargs)
                finally:
                    leave(stack, agg, frame, _clock() - started)
                while True:
                    stack, agg, frame = enter()
                    started = _clock()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        leave(stack, agg, frame, _clock() - started)
                    yield item

        elif inspect.iscoroutinefunction(original):
            # Time the caller's whole ``await``: lock waits and
            # backpressure blocking happen there, not when the coroutine
            # is created.  Wrapped calls that other tasks of this thread
            # make meanwhile complete inside the await, so they leave
            # the stack as they found it and count as callees.
            async def wrapper(*args, **kwargs):
                stack, agg, frame = enter()
                started = _clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    leave(stack, agg, frame, _clock() - started)
                agg.calls += 1
                return result

        else:

            def wrapper(*args, **kwargs):
                stack, agg, frame = enter()
                started = _clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave(stack, agg, frame, _clock() - started)
                agg.calls += 1
                if useful is not None and useful(result):
                    agg.useful += 1
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    # -- results -------------------------------------------------------------
    def aggregates(self) -> Dict[str, _Aggregate]:
        """Per-method aggregates summed over threads."""
        out: Dict[str, _Aggregate] = {}
        with self._lock:
            for aggs in self._per_thread:
                for name, agg in list(aggs.items()):
                    total = out.setdefault(name, _Aggregate())
                    total.calls += agg.calls
                    total.busy += agg.busy
                    total.self_time += agg.self_time
                    total.useful += agg.useful
        return out

    def aggregate_spans(self) -> List[dict]:
        """The aggregates as one summary span each (for trace viewers)."""
        out = []
        for name, agg in sorted(self.aggregates().items()):
            out.append(
                {
                    "name": name,
                    "ts": 0.0,
                    "dur": agg.self_time,
                    "attrs": {
                        "run_id": self.run_id,
                        "aggregate": True,
                        "calls": agg.calls,
                        "busy_s": agg.busy,
                        "self_s": agg.self_time,
                        "useful": agg.useful,
                    },
                }
            )
        return out
