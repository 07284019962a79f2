"""Span tracing of the product's layers, from outside the product.

The tracer replaces each layer's public entry point (a module function
or a class method) with a wrapper that records a span -- name, layer,
start, end, parent span and thread -- plus any count the layer exposes
at that boundary (executor steps, assembler rejects, emitted
instructions).  Spans stay in memory and are written out once, when
the run ends.  :meth:`Tracer.restore` puts every original back, so the
untraced runs that follow measure the product unchanged.

A layer's self time is its spans' durations minus the part of each
interval that child spans cover.  Children opened on the scheduler's
worker threads keep the ``ProbeScheduler.map`` span that fanned them
out as their parent, so the two workers' overlapping time shows as
overlap instead of vanishing.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: Counts taken from an entry point's result: (metric name, function).
_STEPS = ("steps", lambda result: result.steps)
_HIT = ("hits", lambda result: result is not None)


def emitted(asm):
    """Instructions in generated assembly: its indented lines (labels
    and directives start in column 0)."""
    return sum(1 for line in asm.splitlines() if line[:1] in "\t " and line.strip())


_INSTRS = ("instrs", emitted)

_VERBS = ("compile_c", "assemble", "link", "execute")

#: (module, attribute, layer, count) for every wrapped entry point.
#: ``repro.machines.machine`` binds the executor's ``run`` and the
#: linker's ``link`` at import under its own names, and
#: ``repro.discovery.driver`` binds
#: ``enquire`` and ``realise_sample``; those bindings are wrapped too,
#: because they are the ones actually called.
ENTRY_POINTS = (
    [("repro.machines.machine", f"RemoteMachine.{v}", "machines.machine", None) for v in _VERBS]
    + [
        ("repro.machines.assembler", "Assembler.assemble", "machines.assembler", None),
        ("repro.machines.linker", "link", "machines.linker", None),
        ("repro.machines.machine", "link_objects", "machines.linker", None),
        ("repro.machines.executor", "run", "machines.executor", _STEPS),
        ("repro.machines.machine", "execute_program", "machines.executor", _STEPS),
        ("repro.cc.compiler", "CCompiler.compile", "cc", None),
    ]
    + [
        ("repro.discovery.resilience", f"ResilientMachine.{v}", "discovery.resilience", None)
        for v in _VERBS
    ]
    + [("repro.discovery.cache", f"CachingMachine.{v}", "discovery.cache", None) for v in _VERBS]
    + [
        ("repro.discovery.cache", "ProbeCache.get", "discovery.cache", _HIT),
        ("repro.discovery.cache", "ProbeCache.put", "discovery.cache", None),
        ("repro.discovery.scheduler", "ProbeScheduler.map", "discovery.scheduler", None),
        ("repro.discovery.scheduler", "ProbeScheduler.map_values", "discovery.scheduler", None),
        ("repro.discovery.generator", "SampleGenerator.build_corpus", "discovery.generator", None),
        ("repro.discovery.generator", "realise_sample", "discovery.generator", None),
        ("repro.discovery.driver", "realise_sample", "discovery.generator", None),
        ("repro.discovery.driver", "enquire", "discovery.probe", None),
        ("repro.discovery.probe", "discover_comment_char", "discovery.probe", None),
        ("repro.discovery.probe", "discover_literal_syntax", "discovery.probe", None),
        ("repro.discovery.probe", "discover_loadimm", "discovery.probe", None),
        ("repro.discovery.probe", "discover_registers", "discovery.probe", None),
        ("repro.discovery.mutation", "MutationEngine.functional_registers",
         "discovery.mutation", None),
        ("repro.discovery.mutation", "MutationEngine.clobber_safe_registers",
         "discovery.mutation", None),
        ("repro.discovery.preprocess", "Preprocessor.process", "discovery.preprocess", None),
        ("repro.discovery.extract_pool", "ExtractionEngine.extract",
         "discovery.extract_pool", None),
        ("repro.discovery.synthesize", "Synthesizer.synthesize", "discovery.synthesize", None),
        ("repro.analysis", "lint_spec", "analysis.speclint", None),
        ("repro.toyc.frontend", "parse", "toyc.frontend", None),
        ("repro.beg.codegen", "GeneratedBackend.compile_ir", "beg.codegen", _INSTRS),
    ]
)

#: Which discovery phase each phase-level entry point belongs to; the
#: union of their spans per phase is checked against the report's own
#: ``phase_timings``.
PHASE_OF = {
    "enquire": "enquire",
    "discover_comment_char": "assembler syntax",
    "discover_literal_syntax": "assembler syntax",
    "discover_loadimm": "assembler syntax",
    "SampleGenerator.build_corpus": "sample generation",
    "map:sample generation": "sample generation",
    "discover_registers": "register discovery",
    "MutationEngine.functional_registers": "mutation analysis",
    "MutationEngine.clobber_safe_registers": "mutation analysis",
    "map:mutation analysis": "mutation analysis",
    "ExtractionEngine.extract": "reverse interpretation",
    "Synthesizer.synthesize": "synthesis",
    "lint_spec": "spec lint",
}

#: layer of the benchmark's own spans, one around each operation it
#: times: their self time is the part no product layer accounts for.
BENCH = "unattributed"


class Span(NamedTuple):
    """One closed span."""

    id: int
    name: str
    layer: str
    stage: str
    op: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Records spans for wrapped entry points between :meth:`install`
    and :meth:`restore`.

    Closed spans are flat tuples of plain values: the garbage collector
    stops scanning them after its first pass, which keeps the tracing
    overhead from growing with the number of spans kept."""

    def __init__(self):
        self.records = []  # closed spans, in closing order
        self.counts = {}  # span id -> (count name, value)
        self.errors = {}  # span id -> exception type name
        self.stage = None
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer, parent=None):
        """Open a span on this thread; its parent is the innermost open
        span of this thread unless given.  Returns the span's id."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name, layer, parent, self.stage, self.op, time.perf_counter()))
        return sid

    def close(self):
        """Close this thread's innermost open span."""
        end = time.perf_counter()
        sid, name, layer, parent, stage, op, start = self._stack().pop()
        self.records.append(
            (sid, name, layer, stage, op, start, end, parent, threading.get_ident())
        )

    def region(self, name, stage=None, op=None):
        """A benchmark-owned span around one operation of *stage*; *op*
        groups the spans opened inside it."""
        return _Region(self, name, stage, op)

    # -- wrapping -------------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS):
        for module_name, attr, layer, count in entry_points:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            if attr == "ProbeScheduler.map":
                wrapper = self._wrap_map(original, layer)
            else:
                wrapper = self._wrap(original, attr, layer, count)
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original))

    def restore(self):
        """Put back every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, name, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[sid] = type(exc).__name__
                raise
            finally:
                tracer.close()
            if count is not None:
                tracer.counts[sid] = (count[0], count[1](result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_map(self, fn, layer):
        """``ProbeScheduler.map``: the map span is the parent of one task
        span per item, whichever thread runs the task."""
        tracer = self

        def traced(scheduler, task, items, phase=None):
            sid = tracer.open(f"map:{phase}", layer)

            def traced_task(item, conn):
                tracer.open("task", layer, parent=sid)
                try:
                    return task(item, conn)
                finally:
                    tracer.close()

            try:
                return fn(scheduler, traced_task, items, phase=phase)
            finally:
                tracer.close()

        traced.__wrapped__ = fn
        return traced

    # -- output ---------------------------------------------------------

    def spans(self):
        """Every closed span, in id order."""
        return sorted(Span._make(record) for record in self.records)

    def write(self, path):
        """All spans as gzip JSON lines: id, name, layer, stage, op,
        start, end, parent id, thread index."""
        threads = {}
        with gzip.open(path, "wt") as out:
            for span in self.spans():
                thread = threads.setdefault(span.thread, len(threads))
                out.write(json.dumps([*span[:5], round(span.start, 7), round(span.end, 7),
                                      span.parent, thread]) + "\n")


class _Region:
    def __init__(self, tracer, name, stage, op):
        self.tracer, self.name, self.stage, self.op = tracer, name, stage, op

    def __enter__(self):
        if self.stage is not None:
            self.tracer.stage = self.stage
        if self.op is not None:
            self.tracer.op = self.op
        return self.tracer.open(self.name, BENCH)

    def __exit__(self, *exc):
        self.tracer.close()
        if self.op is not None:
            self.tracer.op = None
        return False


# -- analysis ------------------------------------------------------------


def covered(intervals, lo=float("-inf"), hi=float("inf")):
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def max_overlap(intervals):
    """Most intervals open at one instant."""
    events = sorted([(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals])
    depth = peak = 0
    for _, step in events:
        depth += step
        peak = max(peak, depth)
    return peak


class Analysis:
    """Self times and per-stage summaries of a tracer's spans."""

    def __init__(self, tracer):
        self.spans = tracer.spans()
        self.counts = tracer.counts
        self.errors = tracer.errors
        self.by_id = {span.id: span for span in self.spans}
        kids = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[span.parent].append((span.start, span.end))
        self.self_s = {
            span.id: span.end - span.start - covered(kids.get(span.id, ()), span.start, span.end)
            for span in self.spans
        }

    def summarise(self, stages):
        """Per-layer calls, self time, wall-clock union (``s``), errors
        and counts over the spans of *stages*, with the scheduler's
        task figures and the cache's get/put time."""
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "intervals": [],
                                      "errors": 0, "counts": defaultdict(float)})
        tasks, gets, puts = [], 0.0, 0.0
        for span in self.spans:
            if span.stage not in stages:
                continue
            entry = layers[span.layer]
            entry["calls"] += 1
            entry["self_s"] += self.self_s[span.id]
            entry["intervals"].append((span.start, span.end))
            if span.id in self.errors:
                entry["errors"] += 1
            if span.id in self.counts:
                name, value = self.counts[span.id]
                entry["counts"][name] += value
            if span.name == "task":
                tasks.append(span)
            elif span.name == "ProbeCache.get":
                gets += span.end - span.start
            elif span.name == "ProbeCache.put":
                puts += span.end - span.start
        out = {
            layer: {"calls": entry["calls"], "self_s": entry["self_s"],
                    "s": covered(entry["intervals"]), "errors": entry["errors"],
                    **entry["counts"]}
            for layer, entry in layers.items()
        }
        # The discovery thread waits on a map whose tasks run on worker
        # threads; inline (one worker) it waits for nothing.
        fanned = {t.parent for t in tasks if self.by_id[t.parent].thread != t.thread}
        sched = out.setdefault("discovery.scheduler", {"calls": 0, "self_s": 0.0, "s": 0.0})
        sched["tasks"] = len(tasks)
        sched["busy_s"] = sum(t.end - t.start for t in tasks)
        sched["wait_s"] = sum(self.by_id[m].end - self.by_id[m].start for m in fanned)
        sched["max_in_flight"] = max_overlap([(t.start, t.end) for t in tasks]) if tasks else 0
        cache = out.setdefault("discovery.cache", {"calls": 0, "self_s": 0.0, "s": 0.0})
        cache["get_s"], cache["put_s"] = gets, puts
        return out

    def phase_totals(self, stage):
        """``{op: {phase: traced wall seconds}}``: per operation, the
        union of the phase-level entry points' spans in each phase."""
        intervals = defaultdict(lambda: defaultdict(list))
        for span in self.spans:
            phase = PHASE_OF.get(span.name)
            if phase is not None and span.stage == stage:
                intervals[span.op][phase].append((span.start, span.end))
        return {op: {phase: covered(iv) for phase, iv in phases.items()}
                for op, phases in intervals.items()}

    def stage_wall(self, stages):
        """Traced wall seconds of *stages* (their benchmark-owned root
        spans)."""
        return sum(s.end - s.start for s in self.spans
                   if s.stage in stages and s.layer == BENCH and s.parent is None)
