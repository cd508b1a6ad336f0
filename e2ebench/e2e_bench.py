"""End-to-end benchmark: one closed-loop client against the public API.

Three workloads (see NOTES.md for why each was chosen):

* ``snb-interactive`` — an SNB graph with 63 views; every write is its own
  transaction under ``batch_transactions=True`` and a one-shot read
  follows each write,
* ``snb-windowed`` — property and KNOWS churn in windows of 30 raw events
  (``engine.batch()``) over a 69-view parameter grid, constant selections
  and joins,
* ``view-churn`` — views registered and detached against a live SNB graph
  with a short write window after each swap; the live view count is
  constant.

Every workload also swaps probe views and reads, so each run reports the
full set of end-to-end metrics; the shares of every read and registration
class are fixed by decks so that each reported percentile falls well
inside one class.  Inputs are generated from ``--seed`` before any timing
(:mod:`e2e_inputs`), the amount of work is fixed by ``--seconds`` and the
workload's calibrated step rate, and every run is checked against full
recomputation outside the timed regions.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same steps untraced and then traced (with
``collect_metrics`` and ``trace_batches`` on) and reports the per-layer
ledger (:mod:`e2e_ledger`), which it also writes to ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import PropertyGraph, QueryEngine

import e2e_inputs as inp
import e2e_ledger as led
from e2e_clock import HostClock, block_factor_now

OUT_DIR = Path(__file__).resolve().parent / "out"

WRITE_TXN, WRITE_BATCH, READ, SWAP = range(4)

#: setups per run; ``setup_s`` is their median
SETUPS = 5
#: every n-th served read is compared against full recomputation
READ_CHECK_EVERY = 25
#: a p99 is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: live probe/churn views kept by the FIFO swaps
PROBE_LIVE = 4
#: one whole churn deck, so the live mix at the end of a run is fixed
CHURN_LIVE = 20


@dataclass
class Inputs:
    """Everything one run feeds the engine, generated before timing."""

    prefix: list
    base_views: list
    churn_views: list
    steps: list
    #: start-of-phase sizes, for the level check
    vertices: int = 0
    edges: int = 0
    #: edge-count tolerance of the level check (0 means exact)
    edge_slack: float = 0.0
    read_shares: dict = field(default_factory=dict)
    register_shares: dict = field(default_factory=dict)


def _shares(deck) -> dict:
    total = sum(weight for _, weight in deck)
    return {name: weight / total for name, weight in deck}


def _dealer(rng: random.Random, deck):
    """Endless draws from shuffled copies of a fixed-composition deck."""
    cards = [name for name, weight in deck for _ in range(weight)]
    while True:
        rng.shuffle(cards)
        yield from cards


# --- workloads ------------------------------------------------------------------

READ_DECK = (("lookup", 9), ("residual", 1))
CHURN_DECK = (("binding", 16), ("pattern", 3), ("transitive", 1))
IS1_BASE = 48
IC1_BASE = 8
#: steps per second of measurement on the reference host (see NOTES.md)
STEP_RATE = {"snb-interactive": 900, "snb-windowed": 240, "view-churn": 150}
#: steps between probe swaps on the two write workloads
SWAP_EVERY = {"snb-interactive": 10, "snb-windowed": 5}
#: step counts are multiples of these so the graph is level at the end
#: (whole SNB decks of 39 units) and view-churn ends on a whole churn deck
STEP_GRANULE = {"snb-interactive": 390, "snb-windowed": 5, "view-churn": 260}
#: per-class sample floor: each p99 needs TAIL_SAMPLES beyond it, so at
#: least 1000 writes, reads and registrations
MIN_STEPS = {"snb-interactive": 10140, "snb-windowed": 5000, "view-churn": 1040}


def interactive_inputs(seed: int, steps: int) -> Inputs:
    gen = inp.SnbGenerator(seed)
    rng = random.Random(seed * 7919 + 1)
    graph = gen.rec.graph
    base = [(inp.IS1_PROFILE, {"name": f"person-{i}"}) for i in range(IS1_BASE)]
    base += [
        (inp.IC1_FOF, {"name": f"person-{IS1_BASE + i}"}) for i in range(IC1_BASE)
    ]
    lookups = list(base)
    base += [(query, None) for query in inp.SNB_CORES]
    inputs = Inputs(
        gen.prefix, base, [], [], graph.vertex_count, graph.edge_count, 0.05,
        _shares(READ_DECK), {"binding": 1.0},
    )
    probes = _probe_cycle(
        inp.IS1_PROFILE,
        [{"name": f"person-{i}"} for i in range(IS1_BASE + IC1_BASE, gen.sizes.persons)],
    )
    inputs.churn_views = [next(probes) for _ in range(PROBE_LIVE)]
    reads = _dealer(rng, READ_DECK)
    units = gen.deck_units(steps)
    for index, unit in enumerate(units):
        inputs.steps.append((WRITE_TXN, unit))
        check = index % READ_CHECK_EVERY == 0
        if next(reads) == "lookup":
            query, params = lookups[rng.randrange(len(lookups))]
            inputs.steps.append((READ, query, params, "lookup", check))
        else:
            inputs.steps.append((READ, inp.FRIEND_COUNTS, None, "residual", check))
        if index % SWAP_EVERY["snb-interactive"] == 0:
            inputs.steps.append((SWAP, *next(probes)))
    return inputs


def windowed_inputs(seed: int, steps: int) -> Inputs:
    gen = inp.GridGenerator(seed)
    rng = random.Random(seed * 7919 + 2)
    graph = gen.rec.graph
    grid = [
        (inp.PARAM_QUERY, {"country": inp.COUNTRIES[c], "score": s})
        for c in range(inp.GRID_COUNTRIES)
        for s in range(inp.GRID_SCORES)
    ]
    base = grid + [(query, None) for query in inp.CONST_QUERIES]
    base += [(inp.JOIN_QUERY, None), (inp.LIKES_QUERY, None)]
    inputs = Inputs(
        gen.prefix, base, [], [], graph.vertex_count, graph.edge_count, 0.0,
        _shares(READ_DECK), {"binding": 1.0},
    )
    # probe bindings name countries no person has: empty new partitions
    probes = _probe_cycle(
        inp.PARAM_QUERY,
        [
            {"country": country, "score": score}
            for country in inp.COUNTRIES[inp.GRID_COUNTRIES:]
            for score in range(inp.GRID_SCORES)
        ],
    )
    inputs.churn_views = [next(probes) for _ in range(PROBE_LIVE)]
    reads = _dealer(rng, READ_DECK)
    for index in range(steps):
        inputs.steps.append((WRITE_BATCH, gen.window()))
        check = index % READ_CHECK_EVERY == 0
        if next(reads) == "lookup":
            query, params = grid[rng.randrange(len(grid))]
            inputs.steps.append((READ, query, params, "lookup", check))
        else:
            inputs.steps.append((READ, inp.LIKES_BY_COUNTRY, None, "residual", check))
        if index % SWAP_EVERY["snb-windowed"] == 0:
            inputs.steps.append((SWAP, *next(probes)))
    return inputs


def churn_inputs(seed: int, steps: int) -> Inputs:
    gen = inp.SnbGenerator(seed)
    rng = random.Random(seed * 7919 + 3)
    graph = gen.rec.graph
    persons = gen.sizes.persons
    base = [(query, None) for query in inp.SNB_CORES]
    inputs = Inputs(
        gen.prefix, base, [], [], graph.vertex_count, graph.edge_count, 0.05,
        _shares(READ_DECK), _shares(CHURN_DECK),
    )
    classes = _dealer(rng, CHURN_DECK)
    reads = _dealer(rng, READ_DECK)
    counters = {"binding": 0, "pattern": 0, "transitive": 0}

    def new_view():
        cls = next(classes)
        n = counters[cls]
        counters[cls] += 1
        if cls == "binding":
            return inp.IS1_PROFILE, {"name": f"person-{n % persons}"}, cls
        if cls == "transitive":
            return inp.IC1_FOF, {"name": f"person-{(n * 7) % persons}"}, cls
        city, lang = n % 5, inp.LANGS[(n // 5) % len(inp.LANGS)]
        return inp.pattern_query(n, city, lang), None, cls

    inputs.churn_views = [new_view() for _ in range(CHURN_LIVE)]
    units = gen.deck_units(3 * steps)
    for index in range(steps):
        query, params, cls = new_view()
        inputs.steps.append((SWAP, query, params, cls))
        check = index % READ_CHECK_EVERY == 0
        if next(reads) == "lookup":  # read back the view just registered
            inputs.steps.append((READ, query, params, "lookup", check))
        else:
            inputs.steps.append((READ, inp.FRIEND_COUNTS, None, "residual", check))
        window = units[3 * index: 3 * index + 3]
        inputs.steps.append(
            (
                WRITE_BATCH,
                inp.Unit(
                    "window",
                    [call for unit in window for call in unit.calls],
                    sum(unit.events for unit in window),
                ),
            )
        )
    return inputs


def _probe_cycle(query: str, bindings: list):
    while True:
        for params in bindings:
            yield query, params, "binding"


WORKLOADS = {
    "snb-interactive": interactive_inputs,
    "snb-windowed": windowed_inputs,
    "view-churn": churn_inputs,
}


def steps_for(workload: str, seconds: float) -> int:
    """Fixed work per run: the calibrated step rate times *seconds*."""
    granule = STEP_GRANULE[workload]
    steps = max(MIN_STEPS[workload], seconds * STEP_RATE[workload])
    return math.ceil(steps / granule) * granule


# --- one engine session ---------------------------------------------------------


class Session:
    """A built graph with its engine, base views and FIFO of swapped views."""

    def __init__(self, inputs: Inputs, traced: bool = False):
        self.graph = PropertyGraph()
        inp.replay(self.graph, inputs.prefix)
        self.engine = QueryEngine(
            self.graph, batch_transactions=True, collect_metrics=traced
        )
        self.notified = 0
        #: (view, query, params) of every live view, for the gate
        self.live: dict[int, tuple] = {}
        self.fifo: deque = deque()
        self.texts: set[str] = set()
        for query, params in inputs.base_views:
            self.register(query, params)
        for query, params, _ in inputs.churn_views:
            self.fifo.append(self.register(query, params))

    def _count(self, _delta) -> None:
        self.notified += 1

    def register(self, query, params):
        """Register *query* (text or compiled) with a counting on_change."""
        view = self.engine.register(query, params)
        view.on_change(self._count)
        text = query if isinstance(query, str) else query.text
        self.live[id(view)] = (view, text, params)
        self.texts.add(text)
        return view


def setup(inputs: Inputs, traced: bool = False) -> tuple[Session, float]:
    """Build a session; returns it with its set-up time at reference speed."""
    gc.collect()
    before = block_factor_now()
    start = perf_counter()
    session = Session(inputs, traced)
    seconds = perf_counter() - start
    return session, seconds / ((before + block_factor_now()) / 2)


@dataclass
class PhaseResult:
    events: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: raw samples as (start, seconds, class)
    writes: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    registers: list = field(default_factory=list)
    detaches: list = field(default_factory=list)
    read_mismatches: int = 0
    clock: HostClock | None = None


def run_phase(session: Session, steps: list, recorder=None) -> PhaseResult:
    """Replay *steps*, timing each operation.

    With a :class:`~e2e_ledger.LedgerRecorder` the reads and
    registrations go through its instrumented equivalents and every
    write's batch trace is folded into the ledger.  Kernel samples,
    recorder work and read checks all run outside the timed calls.
    """
    engine, graph, fifo = session.engine, session.graph, session.fifo
    evaluate = engine.evaluate if recorder is None else recorder.read
    register = session.register if recorder is None else recorder.register
    result = PhaseResult(clock=HostClock())
    clock = result.clock
    gc.collect()
    clock.sample_block()
    for step in steps:
        op = step[0]
        result.attempted += 1
        try:
            if op == READ:
                _, query, params, cls, check = step
                start = perf_counter()
                answer = evaluate(query, params)
                result.reads.append((start, perf_counter() - start, cls))
                # the traced replay is checked by the gate alone: an oracle
                # read here would land in the ledger's interpreter time
                if check and recorder is None and not _read_correct(
                    engine, query, params, answer
                ):
                    result.read_mismatches += 1
            elif op == SWAP:
                _, query, params, cls = step
                result.attempted += 1
                view = fifo.popleft()
                start = perf_counter()
                view.detach()
                result.detaches.append((start, perf_counter() - start, "detach"))
                del session.live[id(view)]
                start = perf_counter()
                fifo.append(register(query, params))
                result.registers.append((start, perf_counter() - start, cls))
            else:
                unit = step[1]
                start = perf_counter()
                if op == WRITE_TXN:
                    with graph.transaction():
                        inp.replay(graph, unit.calls)
                else:
                    with engine.batch():
                        inp.replay(graph, unit.calls)
                result.writes.append((start, perf_counter() - start, unit.kind))
                result.events += unit.events
                if recorder is not None:
                    recorder.after_write()
                clock.after_write()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(f"{type(exc).__name__}: {exc}")
    clock.sample_block()
    return result


@dataclass
class Timings:
    """A phase's per-operation times at reference host speed (seconds)."""

    writes: list
    reads: list
    registers: list
    detaches: list
    #: the block kernel's median speed factor over the phase
    factor: float

    @classmethod
    def of(cls, phase: PhaseResult) -> "Timings":
        small = phase.clock.small_factors()
        block = phase.clock.block_factors()

        def scale(samples, factors):
            return [(seconds / factors(start), kind) for start, seconds, kind in samples]

        return cls(
            scale(phase.writes, block),
            scale(phase.reads, small),
            scale(phase.registers, block),
            scale(phase.detaches, block),
            block.typical(),
        )

    @property
    def busy_seconds(self) -> float:
        """Time inside operations: the measured phase's length."""
        return sum(
            seconds
            for samples in (self.writes, self.reads, self.registers, self.detaches)
            for seconds, _ in samples
        )


def _read_correct(engine: QueryEngine, query, params, answer) -> bool:
    return answer.multiset() == engine.evaluate(query, params, use_views=False).multiset()


def gate(session: Session, inputs: Inputs) -> list[str]:
    """Every live view equals recomputation, and the graph stayed level."""
    problems = []
    engine = session.engine
    for view, query, params in session.live.values():
        if view.multiset() != engine.evaluate(query, params, use_views=False).multiset():
            problems.append(f"view differs from recomputation: {query[:60]}")
    graph = session.graph
    if graph.vertex_count != inputs.vertices:
        problems.append(f"vertex count {graph.vertex_count} != {inputs.vertices}")
    if abs(graph.edge_count - inputs.edges) > inputs.edge_slack * inputs.edges:
        problems.append(f"edge count {graph.edge_count} drifted from {inputs.edges}")
    expected = len(inputs.base_views) + len(inputs.churn_views)
    if len(engine.views) != expected:
        problems.append(f"{len(engine.views)} live views, expected {expected}")
    return problems


# --- statistics -------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_supported(count: int, q: float) -> bool:
    return count - math.ceil(q * count) >= TAIL_SAMPLES


def class_position(samples: list[tuple[float, str]], q: float) -> dict:
    """Which class the q-percentile sample belongs to, and where inside it."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    seconds, cls = ordered[rank]
    members = [s for s, c in ordered if c == cls]
    inside = sum(1 for s in members if s <= seconds) / len(members)
    return {"class": cls, "within_class": inside}


def graph_mutate_seconds(inputs: Inputs) -> float:
    """Replay the measured writes on an engine-less replica (reference speed)."""
    graph = PropertyGraph()
    inp.replay(graph, inputs.prefix)
    writes = [step[1].calls for step in inputs.steps if step[0] in (WRITE_TXN, WRITE_BATCH)]
    gc.collect()
    before = block_factor_now()
    start = perf_counter()
    for calls in writes:
        inp.replay(graph, calls)
    seconds = perf_counter() - start
    return seconds / ((before + block_factor_now()) / 2)


# --- a run -----------------------------------------------------------------------


def measure(
    workload: str,
    seed: int,
    steps: int,
    trace: bool,
    require_tails: bool = True,
    setups: int = SETUPS,
) -> dict:
    """One run: setups, the measured phase, the gate and the metrics."""
    inputs = WORKLOADS[workload](seed, steps)
    setup_times = []
    session = None
    for _ in range(setups):
        # drop the previous set-up first, so only one engine is alive
        session = None
        session, seconds = setup(inputs)
        setup_times.append(seconds)
    phase = run_phase(session, inputs.steps)
    problems = gate(session, inputs)
    if phase.read_mismatches:
        problems.append(f"{phase.read_mismatches} served reads differ from recomputation")
    memory_cells = session.engine.memory_cells()
    timings = Timings.of(phase)
    ms = 1000.0
    write_s = [s for s, _ in timings.writes]
    read_s = [s for s, _ in timings.reads]
    register_s = [s for s, _ in timings.registers]
    detach_s = [s for s, _ in timings.detaches]
    for name, values in (("write", write_s), ("read", read_s), ("register", register_s)):
        if require_tails and not tail_supported(len(values), 0.99):
            raise SystemExit(f"too few {name} samples for a p99: {len(values)}")
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "events_per_s": (phase.events / timings.busy_seconds, "1/s"),
        "write_p50_ms": (statistics.median(write_s) * ms, "ms"),
        "write_p99_ms": (percentile(write_s, 0.99) * ms, "ms"),
        "read_p50_ms": (statistics.median(read_s) * ms, "ms"),
        "read_p99_ms": (percentile(read_s, 0.99) * ms, "ms"),
        "register_p50_ms": (statistics.median(register_s) * ms, "ms"),
        "register_p99_ms": (percentile(register_s, 0.99) * ms, "ms"),
        "detach_p50_ms": (statistics.median(detach_s) * ms, "ms"),
        "memory_cells": (memory_cells, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "write_p50_ms": statistics.median(s for _, s, _ in phase.writes) * ms,
        "read_p50_ms": statistics.median(s for _, s, _ in phase.reads) * ms,
        "register_p50_ms": statistics.median(s for _, s, _ in phase.registers) * ms,
        "speed_factor": timings.factor,
    }
    info = {
        "workload": workload,
        "seed": seed,
        "steps": steps,
        "samples": {
            "write": len(write_s),
            "read": len(read_s),
            "register": len(register_s),
            "detach": len(detach_s),
        },
        "read_shares": inputs.read_shares,
        "register_shares": inputs.register_shares,
        "percentile_classes": {
            "read_p50": class_position(timings.reads, 0.5),
            "read_p99": class_position(timings.reads, 0.99),
            "register_p50": class_position(timings.registers, 0.5),
            "register_p99": class_position(timings.registers, 0.99),
            "write_p50": class_position(timings.writes, 0.5),
            "write_p99": class_position(timings.writes, 0.99),
        },
        "raw_unscaled": raw,
        "memory_cells": memory_cells,
        "setup_s_all": setup_times,
        "errors": phase.errors,
        "problems": problems,
    }
    attempted, failed = phase.attempted, phase.failed
    metrics = e2e
    if trace:
        session = None
        traced_session, _ = setup(inputs, traced=True)
        recorder = led.LedgerRecorder(traced_session)
        with recorder:
            traced = run_phase(traced_session, inputs.steps, recorder)
        traced_timings = Timings.of(traced)
        attempted += traced.attempted
        failed += traced.failed
        info["errors"] += traced.errors
        problems.extend(gate(traced_session, inputs))
        ledger = recorder.ledger(traced, traced_timings.factor)
        mutate_s = graph_mutate_seconds(inputs)
        ledger["graph.mutate_us"] = mutate_s * 1e6 / phase.events
        ledger["graph.maintained_over_mutate"] = sum(write_s) / mutate_s
        ledger["obs.trace_overhead"] = (
            (traced.events / traced_timings.busy_seconds) / e2e["events_per_s"][0]
        )
        metrics = {name: (ledger[name], unit) for name, unit in LEDGER_UNITS.items()}
        info["slowest_traced_batch"] = recorder.fold.slowest_dict()
        info["raw_per_unit"] = recorder.raw_per_unit()
        info["ledger_memory_cells"] = traced_session.engine.memory_cells()
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


LEDGER_UNITS = {
    "graph.mutate_us": "us",
    "graph.maintained_over_mutate": "ratio",
    "cypher.parse_ms": "ms",
    "compiler.gra_ms": "ms",
    "compiler.nra_ms": "ms",
    "compiler.fra_ms": "ms",
    "compiler.optimize_ms": "ms",
    "compiler.plan_cache_hit_ratio": "ratio",
    "rete.build_ms": "ms",
    "rete.detach_ms": "ms",
    "rete.build_compile_share": "ratio",
    "sharing.acquire_hit_ratio": "ratio",
    "sharing.nodes_live": "count",
    "sharing.binding_partitions": "count",
    "batch.coalesce_ms": "ms",
    "batch.net_per_raw": "ratio",
    "router.candidates_per_event": "count",
    "router.dispatch_self_ms": "ms",
    "merge.self_ms": "ms",
    "merge.views_notified_ratio": "ratio",
    "rete.rows_applied_per_event": "count",
    "views.try_answer_ms": "ms",
    "views.answered_ratio": "ratio",
    "eval.recompute_ms": "ms",
    "obs.trace_overhead": "ratio",
}
for _kind in led.KINDS:
    LEDGER_UNITS[f"nodes.{_kind}.self_ms"] = "ms"
    LEDGER_UNITS[f"nodes.{_kind}.rows"] = "count"
#: ratios of two timings; every other count/ratio entry is a pure count
TIMED_RATIOS = {
    "graph.maintained_over_mutate",
    "rete.build_compile_share",
    "obs.trace_overhead",
}
COUNT_METRICS = tuple(
    name
    for name, unit in LEDGER_UNITS.items()
    if unit in ("count", "ratio") and name not in TIMED_RATIOS
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    steps = steps_for(args.workload, args.seconds)
    run = measure(args.workload, args.seed, steps, bool(args.trace))
    info = run.pop("info")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"ledger-{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps({"run": run, "info": info}, indent=1, default=str) + "\n"
        )
    summary = {key: info[key] for key in info if key != "slowest_traced_batch"}
    print("# " + json.dumps(summary, default=str))
    run["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in run["metrics"].items()
    }
    print(json.dumps(run))
    return 0
