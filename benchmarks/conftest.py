"""Benchmark fixtures: cached discovery artifacts per target.

Full architecture discovery is itself one of the benchmarks (T1); the
per-phase benchmarks reuse cached reports so each measures only its own
phase.
"""

import pytest

from benchmarks import _emit

from repro.machines.machine import RemoteMachine
from repro.discovery import probe
from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.extract_pool import ExtractionEngine
from repro.discovery.generator import SampleGenerator
from repro.discovery.lexer import extract_region
from repro.discovery.mutation import MutationEngine
from repro.discovery.syntax import DiscoveredSyntax

TARGETS = ("x86", "mips", "sparc", "alpha", "vax", "m68k")


@pytest.fixture
def benchmark(benchmark, request):
    """The pytest-benchmark fixture, plus automatic machine-readable
    output: each timed test's timing and ``extra_info`` are merged into
    ``benchmarks/results/BENCH_<module>.json`` at teardown.  An untimed
    run (``--benchmark-disable``) measures nothing, so it writes
    nothing."""
    yield benchmark
    if benchmark.disabled:
        return
    module = request.module.__name__.rsplit(".", 1)[-1]
    if module.startswith("bench_"):
        module = module[len("bench_"):]
    payload = {
        key: _emit.jsonable(value)
        for key, value in dict(benchmark.extra_info).items()
    }
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        payload["seconds_mean"] = round(stats.stats.mean, 4)
    _emit.record(module, {request.node.name: payload})

_REPORTS = {}
_FRONTS = {}


def full_report(target):
    """Cached full-discovery report."""
    if target not in _REPORTS:
        _REPORTS[target] = ArchitectureDiscovery(RemoteMachine(target)).run()
    return _REPORTS[target]


def extract_again(report, budget, use_likelihood=True):
    """Reverse-interpret a finished report's corpus again, the way
    discovery does: prepare, graph roles, then extract, in one process.
    The engine discards the samples it cannot solve, so every sample's
    ``discarded`` is restored afterwards and the cached report is
    unharmed."""
    saved = {s.name: s.discarded for s in report.corpus.samples}
    engine = ExtractionEngine(procs=1)
    try:
        engine.prepare(
            report.corpus, report.addr_map, report.enquire.word_bits,
            use_likelihood=use_likelihood,
        )
        return engine.extract(engine.graph_roles(), budget)
    finally:
        for sample in report.corpus.samples:
            sample.discarded = saved[sample.name]


def front_pipeline(target, seed=11):
    """Cached (machine, syntax, corpus) with regions extracted but *no*
    preprocessing: raw material for the mutation/extraction benches."""
    if target not in _FRONTS:
        machine = RemoteMachine(target)
        syntax = DiscoveredSyntax()
        syntax.comment_char = probe.discover_comment_char(machine)
        probe.discover_literal_syntax(machine, syntax)
        probe.discover_loadimm(machine, syntax)
        generator = SampleGenerator(machine, syntax, seed=seed)
        corpus = generator.generate(word_bits=64 if target == "alpha" else 32)
        asms = [s.asm_text for s in corpus.samples if s.usable]
        probe.discover_registers(machine, syntax, asms)
        for sample in corpus.samples:
            if sample.usable:
                extract_region(sample, syntax)
        _FRONTS[target] = (machine, syntax, corpus)
    return _FRONTS[target]


def fresh_engine(corpus, target):
    return MutationEngine(corpus, word_bits=64 if target == "alpha" else 32, seed=5)


@pytest.fixture(params=TARGETS)
def target(request):
    return request.param
