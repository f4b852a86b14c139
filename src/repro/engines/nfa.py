"""Order-based evaluation: the lazy chain NFA (Section 2.2, [28, 29]).

Given an :class:`~repro.plans.OrderPlan` ``O = (v_1, ..., v_n)``, the
engine maintains one list of partial matches per chain state: state ``s``
holds the instances that bound exactly ``v_1..v_s``.  Events arriving
out of plan order are buffered per variable; an instance that advances to
state ``s`` immediately scans the buffer of ``v_{s+1}`` for events that
arrived earlier — this is the *lazy* out-of-order evaluation that lets
any of the n! orders detect the exact same matches.

Kleene variables hold tuples of events; the engine grows subsets
incrementally (singleton creation + one-event absorptions), generating
each non-empty subset exactly once (Section 5.2).  Negation follows the
earliest-check strategy of the base engine (Section 5.3).

Under skip-till-any-match the instance *forks* on every extension; under
the restrictive strategies (Section 6.2) it *advances* — each instance
binds at most one event per position, and events of reported matches are
consumed.

Each chain transition is a two-sided join between a state's instance
store (a :class:`~repro.engines.stores.PartialMatchStore`) and the next
variable's :class:`~repro.engines.buffers.VariableBuffer` (the NFA alone
buffers events per variable; the tree's leaf stores are its buffers).
An arriving event probes the state and a new instance probes the
buffer, each through its side's
:class:`~repro.engines.stores.JoinPath` — the access path shared by all
runtimes and described in :mod:`repro.engines.stores`.
"""

from __future__ import annotations

from typing import Optional

from ..events import Event
from ..patterns.compile import compile_event_kernel, compile_extension_kernel
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from .base import INTERPRET, SELECTION_ANY, BaseEngine
from .matches import Match, PartialMatch
from .buffers import VariableBuffer
from .stores import JoinPath, PartialMatchStore, join_paths


class NFAEngine(BaseEngine):
    """Lazy chain NFA following an explicit evaluation order."""

    def __init__(
        self,
        decomposed: DecomposedPattern,
        plan: OrderPlan,
        selection: str = SELECTION_ANY,
        max_kleene_size: Optional[int] = None,
        pattern_name: Optional[str] = None,
        indexed: bool = True,
        compiled: bool = True,
    ) -> None:
        super().__init__(
            decomposed,
            selection=selection,
            max_kleene_size=max_kleene_size,
            pattern_name=pattern_name,
            indexed=indexed,
            compiled=compiled,
        )
        plan.validate_for(decomposed)
        self.plan = plan
        self._order = plan.variables
        self._n = len(self._order)
        self._position = {v: i for i, v in enumerate(self._order)}
        # _states[s] holds instances with the first s variables bound, for
        # s in 1..n-1.  State n is normally transient (instances are
        # emitted immediately), but when the *last* plan position is a
        # Kleene variable the accepting state keeps its instances so that
        # later events can still grow the tuple (each growth emits a
        # further match) — the self-loop of the Kleene NFA state.
        self._states: dict[int, PartialMatchStore] = {
            s: PartialMatchStore(self.metrics) for s in range(1, self._n + 1)
        }
        self._absorbing_accept = (
            self._order[-1] in self._kleene
        )
        # Per-variable windowed buffers with unary-filter admission.
        self._buffers: dict[str, VariableBuffer] = {}
        for variable, type_name in decomposed.positives:
            unary = tuple(self._conditions.filters_for(variable))
            unary_filter = None
            if unary:
                def unary_filter(event, _preds=unary, _var=variable,
                                 _engine=self):
                    for p in _preds:
                        passed = p.evaluate({_var: event})
                        if _engine._sel_tracker is not None:
                            _engine._observe_predicate(p, passed)
                        if not passed:
                            return False
                    return True
            self._buffers[variable] = VariableBuffer(
                variable, type_name, unary_filter, metrics=self.metrics
            )
        # Access paths (repro.engines.stores): the chain transition into
        # position p joins state p (instances binding order[:p]) with the
        # buffer of order[p] — new instances probe the buffer, arriving
        # events probe the state.  _residual_preds[p] is order[p]'s
        # predicate list minus the equalities the buckets guarantee.
        self._buffer_paths: dict[int, JoinPath] = {}
        self._state_paths: dict[int, JoinPath] = {}
        self._residual_preds: dict[int, list] = {}
        if indexed:
            for position in range(1, self._n):
                variable = self._order[position]
                paths = join_paths(
                    self._preds_by_var[variable],
                    self._order[:position],
                    (variable,),
                    self._kleene,
                    self._states[position],
                    self._buffers[variable],
                    right_events=True,
                )
                if paths is not None:
                    (
                        self._buffer_paths[position],
                        self._state_paths[position],
                        self._residual_preds[position],
                    ) = paths
        # Per-position trace counters (repro.observe); None = no tracer.
        self._tstats = None
        # Compiled per-position extension kernels (repro.patterns.compile):
        # _ext_full[p] checks binding order[p] onto an instance holding
        # order[:p] (also the absorption kernel of that position);
        # _ext_resid[p] is the same minus bucket-guaranteed equalities.
        self._ext_full: dict[int, object] = {}
        self._ext_resid: dict[int, object] = {}
        if compiled:
            self._recompile_kernels()

    def _recompile_kernels(self) -> None:
        """Fuse each chain transition's predicate list into one kernel.

        Kernel ``p`` covers binding ``order[p]`` onto an instance whose
        bound set is ``order[:p]`` — the static per-state equivalent of
        the interpreted ``vars ⊆ bound`` filter — and doubles as the
        absorption kernel for a Kleene variable at that position (the
        new element is checked as a scalar either way).
        """
        for variable, buffer in self._buffers.items():
            unary = tuple(self._conditions.filters_for(variable))
            if unary:
                buffer.set_filter(
                    compile_event_kernel(
                        unary,
                        variable,
                        self.metrics,
                        tracker=self._sel_tracker,
                        sel_key_by_pred=self._sel_key_by_pred,
                        count="none",
                    )
                )
        for position in range(self._n):
            variable = self._order[position]
            bound = set(self._order[: position + 1])
            applicable = [
                p
                for p in self._preds_by_var[variable]
                if set(p.variables) <= bound
            ]
            self._ext_full[position] = compile_extension_kernel(
                applicable,
                variable,
                self._kleene,
                self.metrics,
                tracker=self._sel_tracker,
                sel_key_by_pred=self._sel_key_by_pred,
            )
            residual = self._residual_preds.get(position)
            if residual is not None:
                self._ext_resid[position] = compile_extension_kernel(
                    [p for p in residual if set(p.variables) <= bound],
                    variable,
                    self._kleene,
                    self.metrics,
                    tracker=self._sel_tracker,
                    sel_key_by_pred=self._sel_key_by_pred,
                )

    def _kernel_for(self, position: int, residual: bool):
        """Kernel for a transition, or the INTERPRET sentinel."""
        if not self.compiled:
            return INTERPRET
        table = self._ext_resid if residual else self._ext_full
        return table.get(position)

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per chain position."""
        tracer = self._tracer
        if tracer is None:
            self._tstats = None
            return
        self._tstats = [
            tracer.register_node(
                f"{position}:{variable}", "state", engine="nfa"
            )
            for position, variable in enumerate(self._order)
        ]

    # -- event loop -----------------------------------------------------------
    def process(self, event: Event) -> list[Match]:
        matches = self._advance_time(event)
        self._expire_instances()
        self._offer_negations(event)
        admitted = self._admit(event)
        if not admitted:
            self._note_state()
            return matches

        created: list[tuple[PartialMatch, int]] = []
        tstats = self._tstats
        for variable in admitted:
            position = self._position[variable]
            if tstats is None:
                created.extend(
                    self._arrival_extensions(variable, position, event)
                )
            else:
                stat = tstats[position]
                stat.events += 1
                created.extend(
                    stat.timed(
                        self._tracer.clock,
                        self.metrics,
                        self._arrival_extensions,
                        variable,
                        position,
                        event,
                        stat,
                    )
                )

        matches.extend(self._cascade(created))
        self._note_state()
        return matches

    # -- arrival-driven extensions -------------------------------------------------
    def _arrival_extensions(
        self, variable: str, position: int, event: Event, stat=None
    ) -> list[tuple[PartialMatch, int]]:
        """Pair the arriving event with all existing eligible instances."""
        created: list[tuple[PartialMatch, int]] = []
        is_kleene = variable in self._kleene

        if position == 0:
            if self._check_first(variable, event):
                pm = (
                    PartialMatch.kleene_singleton(variable, event)
                    if is_kleene
                    else PartialMatch.singleton(variable, event)
                )
                created.append((pm, 1))
                if self._consuming:
                    # The run owns its first event outright.
                    self._buffers[variable].remove_seq(event.seq)
        else:
            state = self._states[position]
            path = self._state_paths.get(position)
            found = (
                None
                if path is None
                else path.candidates(
                    state, event, event.seq, self._theta_observer
                )
            )
            # Every stored trigger predates the arriving event, so the
            # scan fallback is the whole state.
            if found is None:
                candidates, exact = iter(state), False
            else:
                candidates, exact = found
            # Bucket-guaranteed candidates skip the extracted equalities.
            preds = self._residual_preds[position] if exact else None
            kernel = self._kernel_for(position, residual=exact)
            if stat is not None:
                candidates = list(candidates)
                stat.probed += len(candidates)
            if self._consuming:
                # Restrictive strategies: the event binds to at most one
                # instance, and that instance advances (no fork).
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel
                    ):
                        created.append(
                            (self._bind(pm, variable, event), position + 1)
                        )
                        state.discard(pm)
                        self._buffers[variable].remove_seq(event.seq)
                        break
            else:
                for pm in candidates:
                    if self._check_extension(
                        pm, variable, event, preds, kernel
                    ):
                        created.append(
                            (self._bind(pm, variable, event), position + 1)
                        )

        # Kleene absorption: instances whose *last* bound variable is this
        # Kleene variable may take one more event (fork, skip-till-any
        # only).  This includes the accepting state when the Kleene
        # variable sits last in the plan.
        if is_kleene and not self._consuming:
            state_index = position + 1
            kernel = self._kernel_for(position, residual=False)
            for pm in list(self._states[state_index]):
                if not self._kleene_room(pm, variable, self.max_kleene_size):
                    continue
                if self._check_extension(
                    pm, variable, event, kernel=kernel
                ):
                    created.append(
                        (pm.kleene_extended(variable, event), state_index)
                    )
        return created

    def _bind(
        self, pm: PartialMatch, variable: str, event: Event
    ) -> PartialMatch:
        if variable in self._kleene:
            bindings = dict(pm.bindings)
            bindings[variable] = (event,)
            return PartialMatch(
                bindings,
                event.seq,
                min(pm.min_ts, event.timestamp),
                max(pm.max_ts, event.timestamp),
            )
        return pm.extended(variable, event)

    def _admit(self, event: Event) -> list[str]:
        """Offer ``event`` to every variable buffer; return admitted vars."""
        return [
            variable
            for variable, buffer in self._buffers.items()
            if buffer.offer(event)
        ]

    def _check_first(self, variable: str, event: Event) -> bool:
        """Admission of the plan's first variable (unary filters only —
        already applied by the buffer — plus consumption)."""
        return event.seq not in self._consumed

    # -- cascade: buffer scans for newly created instances ----------------------------
    def _cascade(
        self, seed: list[tuple[PartialMatch, int]]
    ) -> list[Match]:
        matches: list[Match] = []
        queue = list(seed)
        tstats = self._tstats
        while queue:
            pm, state = queue.pop()
            self.metrics.partial_matches_created += 1
            if tstats is not None:
                tstats[state - 1].created += 1
            bound_var = self._order[state - 1]
            if not self._bounded_negation_ok(pm, bound_var):
                continue
            if state == self._n:
                match = self._complete(pm)
                if match is not None:
                    matches.append(match)
                    if tstats is not None:
                        tstats[state - 1].matches += 1
                if self._absorbing_accept and not self._consuming:
                    # Keep the instance absorbable and grow it with any
                    # already-buffered Kleene events.
                    self._states[state].insert(pm)
                    queue.extend(
                        self._buffer_absorptions(pm, bound_var, state)
                    )
                continue
            self._states[state].insert(pm)

            # Absorb already-buffered Kleene events (arrived before the
            # trigger, later than the current newest tuple element).
            if bound_var in self._kleene and not self._consuming:
                queue.extend(self._buffer_absorptions(pm, bound_var, state))

            if tstats is None:
                queue.extend(self._buffer_extensions(pm, state))
            else:
                stat = tstats[state]
                queue.extend(
                    stat.timed(
                        self._tracer.clock,
                        self.metrics,
                        self._buffer_extensions,
                        pm,
                        state,
                        stat,
                    )
                )
        return matches

    def _buffer_extensions(
        self, pm: PartialMatch, state: int, stat=None
    ) -> list[tuple[PartialMatch, int]]:
        """Scan the next variable's buffer for earlier-arrived events —
        one hash bucket, theta-bisected when the transition carries an
        extracted range predicate."""
        variable = self._order[state]
        buffer = self._buffers[variable]
        path = self._buffer_paths.get(state)
        found = (
            None
            if path is None
            else path.candidates(
                buffer, pm.bindings, pm.trigger_seq, self._theta_observer
            )
        )
        if found is None:
            candidates, exact = buffer.events_before(pm.trigger_seq), False
        else:
            candidates, exact = found
        preds = self._residual_preds[state] if exact else None
        kernel = self._kernel_for(state, residual=exact)
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: list[tuple[PartialMatch, int]] = []
        for event in candidates:
            if self._check_extension(pm, variable, event, preds, kernel):
                extended = self._bind_from_buffer(pm, variable, event)
                created.append((extended, state + 1))
                if self._consuming:
                    # Advance with the earliest eligible event only; the
                    # instance takes ownership of that event.
                    self._drop_instance(pm, state)
                    buffer.remove_seq(event.seq)
                    break
        return created

    def _buffer_absorptions(
        self, pm: PartialMatch, variable: str, state: int
    ) -> list[tuple[PartialMatch, int]]:
        created: list[tuple[PartialMatch, int]] = []
        tuple_events = pm.bindings[variable]
        newest = tuple_events[-1].seq
        if not self._kleene_room(pm, variable, self.max_kleene_size):
            return created
        kernel = self._kernel_for(state - 1, residual=False)
        for event in self._buffers[variable].events_before(pm.trigger_seq):
            if event.seq <= newest:
                continue
            if self._check_extension(pm, variable, event, kernel=kernel):
                absorbed = pm.kleene_extended(
                    variable, event, trigger_seq=pm.trigger_seq
                )
                created.append((absorbed, state))
        return created

    def _bind_from_buffer(
        self, pm: PartialMatch, variable: str, event: Event
    ) -> PartialMatch:
        """Bind a buffered (earlier) event — the trigger stays the newest
        constituent, i.e. the current instance's trigger."""
        if variable in self._kleene:
            bindings = dict(pm.bindings)
            bindings[variable] = (event,)
            return PartialMatch(
                bindings,
                pm.trigger_seq,
                min(pm.min_ts, event.timestamp),
                max(pm.max_ts, event.timestamp),
            )
        return pm.extended(variable, event, trigger_seq=pm.trigger_seq)

    def _drop_instance(self, pm: PartialMatch, state: int) -> None:
        self._states[state].discard(pm)

    # -- housekeeping ---------------------------------------------------------------
    def _expire_instances(self) -> None:
        """Prune the variable buffers; expire states (watermark-gated:
        O(1) per state until something can expire)."""
        cutoff = self._now - self.window
        for buffer in self._buffers.values():
            buffer.prune(cutoff)
        tstats = self._tstats
        if tstats is None:
            for store in self._states.values():
                store.expire(cutoff)
        else:
            for state, store in self._states.items():
                tstats[state - 1].expired += store.expire(cutoff)

    def _purge_consumed(self, seqs: frozenset) -> None:
        for buffer in self._buffers.values():
            for seq in seqs:
                buffer.remove_seq(seq)
        for store in self._states.values():
            store.purge_seqs(seqs)

    def _note_state(self) -> None:
        negation = self._negation
        live = sum(len(v) for v in self._states.values()) + len(
            negation.pending
        )
        buffered = sum(len(b) for b in self._buffers.values())
        self.metrics.note_state(live, buffered + negation.buffered_events())

    # -- introspection ----------------------------------------------------------------
    def live_partial_matches(self) -> int:
        return sum(len(v) for v in self._states.values())

    def iter_partial_matches(self):
        """Live instances across every chain state."""
        for store in self._states.values():
            yield from store

    def __repr__(self) -> str:
        return f"NFAEngine(plan={self.plan!r}, selection={self.selection!r})"
