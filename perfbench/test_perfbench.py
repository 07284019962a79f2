"""Tests of the benchmark itself: its program generator, its tracer and
its agreement with ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

import json
import pathlib
import threading

import pytest

from perfbench import programs, speed, trace, workloads
from repro.beg.codegen import GeneratedBackend
from repro.beg.ir import eval_program
from repro.discovery.scheduler import ProbeScheduler, TargetConnectionPool
from repro.machines.machine import RemoteMachine
from repro.toyc.frontend import parse

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
ALL_RUNGS = sorted({r for w in workloads.WORKLOADS.values() for r in w.rungs})


# -- program generator ---------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    rungs = workloads.BACKEND_RUNGS
    assert programs.generate(7, rungs) == programs.generate(7, rungs)
    assert [p.source for p in programs.generate(7, rungs)] != [
        p.source for p in programs.generate(8, rungs)
    ]


def test_program_set_covers_every_operator_and_family():
    sources = "".join(p.source for p in programs.generate(3, workloads.BACKEND_RUNGS))
    for op in (" + ", " - ", " * ", " / ", " % ", " & ", " | ", " ^ ", " << ", " >> ",
               ":= -", ":= ~"):
        assert op in sources, op
    families = {p.family for p in programs.generate(3, workloads.BACKEND_RUNGS)}
    assert families == set(programs.FAMILIES)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bits", [32, 64])
def test_ir_bound_holds(seed, bits):
    # eval_program raises when a program runs more IR statements than
    # its bound, which the step estimates below rest on
    for program in programs.generate(seed, ALL_RUNGS * 2):
        eval_program(parse(program.source), bits=bits, fuel=program.ir_bound)


@pytest.fixture(scope="module")
def vax_backend():
    from repro.discovery.driver import ArchitectureDiscovery

    report = ArchitectureDiscovery(RemoteMachine("vax"), seed=workloads.DEFAULT_SEED).run()
    return GeneratedBackend(report.spec)


def test_programs_finish_within_fuel(vax_backend):
    machine = RemoteMachine("vax")
    # the smallest and the largest rung of every family
    rungs = [ALL_RUNGS[0]] * 4 + [ALL_RUNGS[-1]] * 4
    for program in programs.generate(11, rungs):
        ir = parse(program.source)
        result = machine.execute(machine.link([machine.assemble(vax_backend.compile_ir(ir))]))
        assert result.ok, (program.name, result.error)
        assert result.output == eval_program(ir, bits=32)
        assert 10_000 <= result.steps <= 400_000 < machine.fuel, (program.name, result.steps)


# -- tracer ------------------------------------------------------------------------


def _span(sid, start, end, parent=None, thread=0, layer="L", name="n"):
    return trace.Span(sid, name, layer, "cold", "op", start, end, parent, thread)


def test_self_time_on_nested_spans():
    tracer = trace.Tracer()
    tracer.records = [
        _span(0, 0.0, 10.0, layer=trace.BENCH),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0, thread=1),  # overlaps span 1 on another thread
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 9.5, 11.0, parent=0),  # runs past its parent: clipped
    ]
    analysis = trace.Analysis(tracer)
    assert analysis.self_s == pytest.approx({0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})
    summary = analysis.summarise({"cold"})
    assert summary["L"]["calls"] == 4
    assert summary["L"]["self_s"] == pytest.approx(7.5)
    assert summary["L"]["s"] == pytest.approx(6.5)  # [1, 6] and [9.5, 11]
    assert analysis.stage_wall({"cold"}) == pytest.approx(10.0)


def test_worker_thread_spans_keep_the_map_as_parent():
    tracer = trace.Tracer()
    tracer.install()
    try:
        pool = TargetConnectionPool(RemoteMachine("vax"), size=3)
        scheduler = ProbeScheduler(pool, workers=2)
        with tracer.region("cold", stage="cold"):
            values = scheduler.map_values(
                lambda item, conn: (item, threading.get_ident()), range(6), phase="p"
            )
        scheduler.close()
    finally:
        tracer.restore()
    analysis = trace.Analysis(tracer)
    (fan_out,) = [s for s in analysis.spans if s.name == "map:p"]
    tasks = [s for s in analysis.spans if s.name == "task"]
    assert len(tasks) == 6 and [v for v, _ in values] == list(range(6))
    assert all(t.parent == fan_out.id for t in tasks)
    assert {t.thread for t in tasks} == {thread for _, thread in values}
    assert fan_out.thread not in {t.thread for t in tasks}
    summary = analysis.summarise({"cold"})["discovery.scheduler"]
    assert summary["tasks"] == 6 and summary["wait_s"] > 0


def test_restore_removes_every_wrapper():
    import importlib

    def current():
        out = []
        for module, attr, _, _ in trace.ENTRY_POINTS:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append(owner.__dict__[name])
        return out

    before = current()
    tracer = trace.Tracer()
    tracer.install()
    wrapped = current()
    tracer.restore()
    assert all(getattr(w, "__wrapped__", None) is b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(current(), before))


def test_machine_bindings_are_traced():
    """``repro.machines.machine`` calls the executor and linker through
    the names it bound at import; the tracer must see those calls."""
    tracer = trace.Tracer()
    machine = RemoteMachine("vax")
    tracer.install()
    try:
        with tracer.region("programs", stage="programs"):
            result = machine.run_c(['int main() { printf("%d\\n", 6 * 7); return 0; }'])
    finally:
        tracer.restore()
    layers = trace.Analysis(tracer).summarise({"programs"})
    assert result.output == "42\n"
    assert layers["machines.linker"]["calls"] == 1
    assert layers["machines.executor"]["calls"] == 1
    assert layers["machines.executor"]["steps"] == result.steps
    assert layers["cc"]["calls"] == 1 and layers["machines.assembler"]["calls"] == 1


# -- agreement with BENCHMARK.json --------------------------------------------------


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == workloads.per_layer_names()
    def clock(seconds, cpu=None):
        out = speed.Clock()
        out.start, out.wall, out.cpu = 0.0, seconds, seconds if cpu is None else cpu
        return out

    results = workloads.Results(cold=[clock(1.0)], warm=[[clock(2.0, cpu=1.0)]],
                                programs=[clock(0.1)] * 20, target_verbs=3, exec_steps=4,
                                code_size=5)
    # a host twice as slow as nominal: CPU seconds halve, waiting stays
    sampler = speed.Sampler()
    sampler.samples = [(-1.0, 2 * speed.NOMINAL_S)]
    reported = workloads.end_to_end([clock(0.5)], results, sampler.normalised)
    assert reported["warm_s"] == (1.5, "s")
    assert reported["programs_per_s"][0] == pytest.approx(20.0)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, (_, unit) in reported.items()
    ]


def test_samples_inside_an_operation_rescale_it():
    def clock(start, wall, cpu):
        out = speed.Clock()
        out.start, out.wall, out.cpu = start, wall, cpu
        return out

    n = speed.NOMINAL_S
    sampler = speed.Sampler()
    sampler.samples = [(0.5, n), (1.2, 2 * n), (1.5, 4 * n), (3.0, n)]
    # two samples inside: their time is the sampler's, not the operation's,
    # and the mean of their rates (1 and 1/2) rescales the CPU part
    op = clock(1.0, 1.0, 0.5)
    assert sampler.within(op) == sampler.samples[1:3]
    assert sampler.raw(op) == pytest.approx(1.0 - 6 * n)
    assert sampler.normalised(op) == pytest.approx(0.5 + (0.5 - 6 * n) * (1 / 2 + 1 / 4) / 2)
    # none inside: the nearest sample on each side gives the rate
    assert sampler.normalised(clock(2.0, 0.5, 0.5)) == pytest.approx(0.5 * (1 / 4 + 1) / 2)


def test_sampler_samples_cpu_work_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with speed.Sampler() as sampler, speed.Clock() as clock:
        speed.reference(2_000_000)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.within(clock)) >= 3
    assert 0 < sampler.raw(clock) < clock.wall


def test_tail_has_ten_samples_beyond_it():
    value, percentile, samples = workloads.tail(list(range(40)))
    assert (value, percentile, samples) == (29, 75, 40)
    assert sum(1 for v in range(40) if v > value) == 10
