"""The per-layer ledger of a traced run.

Everything here reads the engine from the outside: the batch span trees
it records under ``trace_batches=True`` (``last_trace``), the
``collect_metrics`` snapshot, ``view_costs()``, the view catalog's
``try_answer`` and the compiler's stage functions, each timed around a
direct call.  Nothing in the program is changed; the one wrapper
(:class:`InterpreterClock`) times ``Interpreter.run`` for the length of
the traced phase and restores it afterwards.
"""

from __future__ import annotations

from time import perf_counter

from repro.compiler.cypher_to_gra import compile_to_gra
from repro.compiler.gra_to_nra import lower_to_nra
from repro.compiler.nra_to_fra import flatten_to_fra
from repro.compiler.optimizer import optimize, prune_unused_path_aliases
from repro.cypher.parser import parse
from repro.eval.interpreter import Interpreter

#: node class label (span names drop the ``Node`` suffix) → ledger kind
NODE_KINDS = {
    "VertexInput": "input",
    "EdgeInput": "input",
    "Unit": "input",
    "Selection": "selection",
    "BindingIndexedSelection": "binding_selection",
    "SelectionPartition": "binding_selection",
    "Projection": "projection",
    "Unwind": "projection",
    "Join": "join",
    "AntiJoin": "antijoin",
    "LeftOuterJoin": "outer_join",
    "Aggregate": "aggregate",
    "Dedup": "dedup",
    "TransitiveClosure": "transitive",
    "Reachability": "transitive",
    "Union": "union",
    "Production": "production",
}
KINDS = tuple(dict.fromkeys(NODE_KINDS.values()))


class SpanFold:
    """Per-layer self time and rows folded from batch span trees.

    A node kind's self time is the self time of its ``apply`` spans plus
    that of its own ``emit`` spans (the subscriber loop).  Its rows are
    the rows it was applied — for input nodes, which the router feeds
    directly, the rows they emitted.
    """

    def __init__(self) -> None:
        self.batches = 0
        self.raw_events = 0
        self.net_records = 0
        self.productions = 0
        self.coalesce_s = 0.0
        self.dispatch_self_s = 0.0
        self.merge_self_s = 0.0
        self.kind_self_s = dict.fromkeys(KINDS, 0.0)
        self.kind_rows = dict.fromkeys(KINDS, 0)
        self.slowest = None

    def slowest_dict(self) -> dict | None:
        return self.slowest.as_dict() if self.slowest is not None else None

    def add(self, root) -> None:
        self.batches += 1
        if self.slowest is None or root.seconds > self.slowest.seconds:
            self.slowest = root
        for phase in root.children:
            if phase.name == "coalesce":
                self.raw_events += phase.rows
                self.coalesce_s += phase.seconds
            elif phase.name == "dispatch":
                self.net_records += phase.rows
                self.dispatch_self_s += phase.self_seconds
                for child in phase.children:
                    self._fold(child)
            elif phase.name == "merge":
                self.productions += int(phase.detail.partition("=")[2])
                self.merge_self_s += phase.self_seconds

    def _fold(self, span) -> None:
        action, _, label = span.name.partition(" ")
        kind = NODE_KINDS[label]
        self.kind_self_s[kind] += span.self_seconds
        if action == "apply" or kind == "input":
            self.kind_rows[kind] += span.rows
        for child in span.children:
            self._fold(child)


class InterpreterClock:
    """Accumulate wall time spent in ``Interpreter.run`` while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._original = None

    def __enter__(self) -> "InterpreterClock":
        original = self._original = Interpreter.run
        clock = self

        def timed_run(interpreter, plan):
            start = perf_counter()
            try:
                return original(interpreter, plan)
            finally:
                clock.seconds += perf_counter() - start

        Interpreter.run = timed_run
        return self

    def __exit__(self, *exc) -> None:
        Interpreter.run = self._original


STAGES = ("cypher.parse_ms", "compiler.gra_ms", "compiler.nra_ms",
          "compiler.fra_ms", "compiler.optimize_ms")


def time_stages(text: str) -> tuple[float, ...]:
    """Seconds spent in each compilation stage function for *text*."""
    t0 = perf_counter()
    syntax = parse(text)
    t1 = perf_counter()
    gra = prune_unused_path_aliases(compile_to_gra(syntax))
    t2 = perf_counter()
    nra = lower_to_nra(gra)
    t3 = perf_counter()
    fra = flatten_to_fra(nra)
    t4 = perf_counter()
    optimize(fra)
    t5 = perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LedgerRecorder:
    """Instrumented reads, registrations and write folding for one phase.

    Used as a context manager around the traced phase: on entry it
    snapshots the engine's counters, turns batch tracing on and installs
    the :class:`InterpreterClock`; on exit it undoes both.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.engine = engine = session.engine
        self.catalog = engine.catalog
        self.fold = SpanFold()
        self.interpreter = InterpreterClock()
        self.seen = set(session.texts)
        self.compile_calls = self.compile_hits = 0
        self.compile_s = self.build_s = self.try_answer_s = 0.0
        self.reads = self.registers = self.units = 0
        self._last = None

    def __enter__(self) -> "LedgerRecorder":
        engine = self.engine
        self.before = engine.metrics_snapshot()
        self.costs_before = engine.view_costs()["total"]
        self.answers_before = engine.answer_stats().as_dict()
        self.notified_before = self.session.notified
        self._last = engine.last_trace
        self.interpreter.__enter__()
        engine.set_tracing(True)
        return self

    def __exit__(self, *exc) -> None:
        self.engine.set_tracing(False)
        self.interpreter.__exit__(*exc)

    def _compile(self, query: str):
        self.compile_calls += 1
        self.compile_hits += query in self.seen
        self.seen.add(query)
        return self.engine.compile(query)

    def read(self, query: str, params):
        """``evaluate()`` split into catalog matching and interpretation."""
        self.reads += 1
        compiled = self._compile(query)
        inside = self.interpreter.seconds
        start = perf_counter()
        answer = self.catalog.try_answer(compiled, params)
        self.try_answer_s += perf_counter() - start - (self.interpreter.seconds - inside)
        if answer is None:
            answer = self.engine.evaluate(query, params, use_views=False)
        return answer

    def register(self, query: str, params):
        """``register()`` split into compilation and network build."""
        self.registers += 1
        start = perf_counter()
        compiled = self._compile(query)
        middle = perf_counter()
        view = self.session.register(compiled, params)
        self.compile_s += middle - start
        self.build_s += perf_counter() - middle
        return view

    def after_write(self) -> None:
        self.units += 1
        trace = self.engine.last_trace
        if trace is not self._last:
            self.fold.add(trace)
            self._last = trace

    def raw_per_unit(self) -> float:
        return ratio(self.fold.raw_events, self.units)

    def ledger(self, phase, factor: float) -> dict:
        """The per-layer entries; times are scaled to reference host speed
        by the phase's median speed *factor*."""
        engine, fold = self.engine, self.fold
        after = engine.metrics_snapshot()
        answers = engine.answer_stats().as_dict()

        def delta(name):
            return after[name]["value"] - self.before[name]["value"]

        ms = 1000.0 / factor
        events, units = phase.events, self.units
        detach_s = sum(seconds for _, seconds, _ in phase.detaches)
        busy_s = sum(
            seconds
            for samples in (phase.writes, phase.reads, phase.registers, phase.detaches)
            for _, seconds, _ in samples
        )
        entries = {
            "batch.coalesce_ms": ratio(fold.coalesce_s * ms, fold.batches),
            "batch.net_per_raw": ratio(fold.net_records, fold.raw_events),
            "router.candidates_per_event": ratio(
                delta("repro_router_candidates_visited"), events
            ),
            "router.dispatch_self_ms": ratio(fold.dispatch_self_s * ms, fold.batches),
            "merge.self_ms": ratio(fold.merge_self_s * ms, fold.batches),
            "merge.views_notified_ratio": ratio(
                self.session.notified - self.notified_before, fold.productions
            ),
            "rete.rows_applied_per_event": ratio(
                engine.view_costs()["total"] - self.costs_before, events
            ),
            "rete.build_ms": ratio(self.build_s * ms, self.registers),
            "rete.detach_ms": ratio(detach_s * ms, len(phase.detaches)),
            "rete.build_compile_share": ratio(
                self.build_s + self.compile_s + detach_s, busy_s
            ),
            "compiler.plan_cache_hit_ratio": ratio(self.compile_hits, self.compile_calls),
            "sharing.acquire_hit_ratio": ratio(
                delta("repro_sharing_subplan_hits"),
                delta("repro_sharing_subplan_requests"),
            ),
            "sharing.nodes_live": after["repro_nodes_live"]["value"],
            "sharing.binding_partitions": after["repro_sharing_binding_partitions"]["value"],
            "views.try_answer_ms": ratio(self.try_answer_s * ms, self.reads),
            "views.answered_ratio": ratio(
                answers["answered"] - self.answers_before["answered"],
                answers["queries"] - self.answers_before["queries"],
            ),
            "eval.recompute_ms": ratio(self.interpreter.seconds * ms, self.reads),
        }
        for kind in KINDS:
            entries[f"nodes.{kind}.self_ms"] = ratio(fold.kind_self_s[kind] * ms, units)
            entries[f"nodes.{kind}.rows"] = ratio(fold.kind_rows[kind], units)
        totals = [0.0] * len(STAGES)
        for text in sorted(self.seen):
            for index, seconds in enumerate(time_stages(text)):
                totals[index] += seconds
        for name, total in zip(STAGES, totals):
            entries[name] = total * ms / len(self.seen)
        return entries
