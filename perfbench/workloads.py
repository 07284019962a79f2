"""The benchmark's workloads, their output checks and their metrics.

Every workload's timed part has three stages, and every end-to-end
metric is defined on each workload:

* ``cold`` -- the job done the first time.  ``discover`` and ``remote``
  discover their targets into an empty probe-cache directory; on
  ``backend`` each program's first run through its generated back end.
* ``warm`` -- the same job again, reusing only what the product keeps:
  ``discover`` and ``remote`` rediscover from the cache directory with a
  new ``ProbeCache``, new machines and a new ``ArchitectureDiscovery`` (``remote`` three
  times; ``warm_s`` is the median pass); ``backend`` reruns each program
  back to back for an equal share of ``--seconds`` (``warm_s`` is the
  program set at each program's median warm run).
* ``programs`` -- language-A programs from source text to target output.
  In ``discover`` and ``remote`` the back end generated from each cold
  spec compiles and runs the seeded program set right after that
  discovery; in ``backend`` every run is a program run.

``discover`` and ``remote`` go target by target: cold, then chunks of
the programs and the warm passes in turn.  So each stage's operations
spread over the whole run instead of sitting in one stretch of a noisy
host's time.

Reference outputs, spec verification and the trace's cross-check
against the discovery's own phase clock happen outside the timed stages.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import resource
import signal
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import repro
from perfbench import programs, speed, trace
from repro.analysis.verify import verify_spec
from repro.beg.codegen import GeneratedBackend
from repro.beg.ir import eval_program
from repro.discovery.cache import ProbeCache
from repro.discovery.driver import ArchitectureDiscovery
from repro.machines.machine import RemoteMachine, build_model
from repro.toyc import frontend

#: the seed ``repro discover`` uses by default.  Every discovery runs
#: with it and the workload seed varies only the program set: discovery
#: cost has a heavy tail over seeds (at seed 45 reverse interpretation on
#: x86 spends 58.9k of its 60k budget and takes 19 s instead of about
#: 2.5 s), which ten seeds per set would turn into spread, not signal.
DEFAULT_SEED = 1997

#: ``backend``'s program sizes as IR-statement budgets, a geometric
#: ladder.  The targets run 4 to 9.2 simulated instructions per budgeted
#: statement, so programs take about 1.3*10^4 to 1.1*10^5 steps, well
#: under the 500k-step fuel of ``RemoteMachine``; ``discover`` and
#: ``remote`` use the smallest rung.
BACKEND_RUNGS = (3000, 3657, 4458, 5434, 6624, 8075, 9843, 12000)

#: a traced phase may fall short of the discovery's own phase clock by
#: the glue between entry points: at most this share plus 10 ms
PHASE_SLACK = 0.05

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    targets: tuple
    latency: float = 0.0
    workers: int = 1
    discovers: bool = True
    rungs: tuple = ()
    warm_passes: int = 1

    def settings(self):
        return {
            "targets": list(self.targets),
            "latency_s": self.latency,
            "workers": self.workers,
            "probe_cache": "fresh directory, then warm" if self.discovers else "none",
            "programs_per_target": len(self.rungs),
            "warm_passes": self.warm_passes,
            "seed_use": f"program set only; discovery at seed {DEFAULT_SEED}",
        }


WORKLOADS = {
    w.name: w
    for w in (
        # Cold: the machine stack, mutation analysis and cache writes at
        # latency 0; warm: cache reads and reverse interpretation, with
        # no remote verb.  Five targets, because one target's cold time
        # swings far more from run to run than their sum does.
        Workload("discover", ("x86", "mips", "sparc", "alpha", "vax"), rungs=(3000,) * 16),
        # Round trips and the overlap of two workers' 2 ms waits
        # dominate: the one place a batched probe verb or a scheduler
        # change shows.  Back-to-back warm passes of one target with two
        # workers differ by up to 1.6 times in raw time, so warm_s is the
        # median of three.
        Workload("remote", ("x86",), latency=0.002, workers=2, rungs=(3000,) * 40,
                 warm_passes=3),
        # Long generated loops: the executor's per-step cost dominates,
        # where in discovery thousands of tiny probes make per-call cost
        # dominate instead.
        Workload("backend", ("x86", "sparc", "vax"), discovers=False, rungs=BACKEND_RUNGS),
    )
}


class Checks:
    """Operations attempted, and the reasons each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}  # op -> reasons

    def attempt(self, op):
        self.attempted += 1
        return op

    def fail(self, op, reason):
        self.failed.setdefault(op, []).append(reason)


def spec_hash(spec):
    return hashlib.sha256(spec.render_beg().encode()).hexdigest()


def _discover(machine, workload, cache_dir):
    cache = ProbeCache(cache_dir) if cache_dir else None
    return ArchitectureDiscovery(
        machine, seed=DEFAULT_SEED, workers=workload.workers, cache=cache,
        extract_procs=1, extract_memo=True, checkpoint_every=8,
    ).run()


def _discovery_failures(report):
    reasons = []
    if report.quarantined:
        reasons.append(f"{len(report.quarantined)} quarantined samples")
    errors = report.diagnostics.counts().get("error", 0)
    if errors:
        reasons.append(f"{errors} speclint errors")
    return reasons


def _region(tracer, name, stage, op=None):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.region(name, stage=stage, op=op)


# -- set-up -----------------------------------------------------------------


@dataclass
class Env:
    """What set-up leaves for the timed stages."""

    workdir: str
    cache_dir: str = ""
    machines: dict = field(default_factory=dict)  # (stage, target[, pass]) -> RemoteMachine
    programs: list = field(default_factory=list)
    references: dict = field(default_factory=dict)  # (word bits, program) -> output
    specs: dict = field(default_factory=dict)  # target -> spec (backend only)


def setup(workload, seed, workdir, checks, spec_dir):
    """Build every machine the stages use, the seeded program set and its
    reference outputs; ``backend`` also gets its specs (see
    :func:`backend_specs`)."""
    env = Env(workdir=tempfile.mkdtemp(prefix="run-", dir=workdir))
    env.cache_dir = os.path.join(env.workdir, "probe-cache")
    for target in workload.targets:
        env.machines["programs", target] = RemoteMachine(target, latency=workload.latency)
        if workload.discovers:
            env.machines["cold", target] = RemoteMachine(target, latency=workload.latency)
            for index in range(workload.warm_passes):
                env.machines["warm", target, index] = RemoteMachine(
                    target, latency=workload.latency
                )
    env.programs = programs.generate(seed, workload.rungs)
    for bits in sorted({build_model(t).isa.word_bits for t in workload.targets}):
        for program in env.programs:
            env.references[bits, program.name] = eval_program(
                frontend.parse(program.source), bits=bits, fuel=program.ir_bound
            )
    if not workload.discovers:
        env.specs = backend_specs(workload, checks, spec_dir)
    return env


def _source_key(workload):
    """Content hash of the product's source, the targets and the seed."""
    digest = hashlib.sha256(f"{workload.targets}:{DEFAULT_SEED}".encode())
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def backend_specs(workload, checks, spec_dir):
    """``backend``'s specs, discovered at :data:`DEFAULT_SEED`.

    They are a pure function of the product's source, so the first run in
    a checkout discovers them (about 18 s) and stores them under
    *spec_dir*, keyed by the source's hash, like a build; later runs load
    them.  The discovery runs in a child process, so that the first run's
    ``peak_rss_mb`` is not discovery's.  Specs whose discovery failed a
    check are not stored."""
    path = pathlib.Path(spec_dir) / f"specs-{_source_key(workload)}.pickle"
    if path.exists():
        with open(path, "rb") as handle:
            specs, _ = pickle.load(handle)  # written by this benchmark, below
        return specs
    partial = path.with_suffix(".partial")
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            specs, failures = {}, {}
            for target in workload.targets:
                report = _discover(RemoteMachine(target), workload, None)
                failures[target] = _discovery_failures(report)
                specs[target] = report.spec
            with open(partial, "wb") as handle:
                pickle.dump((specs, failures), handle)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)  # the parent's cleanup and buffers are the parent's
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status:
        raise RuntimeError(f"backend spec discovery exited with status {status:#x}")
    with open(partial, "rb") as handle:
        specs, failures = pickle.load(handle)  # written by the child, above
    for target in workload.targets:
        op = checks.attempt(f"setup:{target}")
        for reason in failures[target]:
            checks.fail(op, reason)
    if any(failures.values()):
        os.remove(partial)
    else:
        os.replace(partial, path)  # a killed run leaves no torn file behind
    return specs


# -- timed stages -------------------------------------------------------------


@dataclass
class Results:
    """Clocks of the timed stages, the discovery reports and the first
    pass's exact counts."""

    reports: dict = field(default_factory=dict)  # (stage, op label) -> DiscoveryReport
    cold: list = field(default_factory=list)  # Clock of each cold operation
    #: [Clock] of each warm pass, or with ``warm_by_program`` of each
    #: program's warm runs
    warm: list = field(default_factory=list)
    warm_by_program: bool = False
    programs: list = field(default_factory=list)  # Clock of every program run
    target_verbs: int = 0
    exec_steps: int = 0
    code_size: int = 0


def discovery(workload, env, stage, target, tracer, checks, results, index=None):
    """Discover one target (in warm pass *index*); returns the report and
    the clock.  The report is None if discovery raised."""
    if index is None:
        label, machine = target, env.machines[stage, target]
    else:
        label = f"{target}#{index}" if workload.warm_passes > 1 else target
        machine = env.machines[stage, target, index]
    op = checks.attempt(f"{stage}:{label}")
    report = None
    with _region(tracer, op, stage, op), speed.Clock() as clock:
        try:
            report = _discover(machine, workload, env.cache_dir)
        except Exception as exc:  # a failed operation, reported with the rest
            checks.fail(op, f"raised {type(exc).__name__}: {exc}")
    if report is None:
        return None, clock
    results.reports[stage, label] = report
    for reason in _discovery_failures(report):
        checks.fail(op, reason)
    if stage == "warm":
        cold = results.reports.get(("cold", target))
        if cold is not None and spec_hash(cold.spec) != spec_hash(report.spec):
            checks.fail(op, "warm spec differs from the cold spec")
        verbs, misses = report.machine_stats.total_verbs, report.cache_stats.misses
        if verbs or misses:
            checks.fail(op, f"warm pass sent {verbs} verbs, missed the cache {misses} times")
    return report, clock


def program_runs(env, target, backend, stage, tracer, checks, results, index=0, programs=None):
    """The program set (or *programs* of it) on one back end, each from
    source text to target output; returns the runs' clocks."""
    machine = env.machines["programs", target]
    bits = build_model(target).isa.word_bits
    clocks = []
    for program in env.programs if programs is None else programs:
        op = checks.attempt(f"{stage}:{target}:{program.name}:{index}")
        asm, result = "", None
        with _region(tracer, op, stage, f"{stage}:{target}"), speed.Clock() as clock:
            try:
                asm = backend.compile_ir(frontend.parse(program.source))
                result = machine.execute(machine.link([machine.assemble(asm)]))
            except Exception as exc:  # a failed operation, reported with the rest
                checks.fail(op, f"raised {type(exc).__name__}: {exc}")
        clocks.append(clock)
        if result is None:
            continue
        if not result.ok:
            checks.fail(op, f"execution failed: {result.error}")
        elif result.output != env.references[bits, program.name]:
            checks.fail(op, "output differs from eval_program")
        if index == 0:
            results.exec_steps += result.steps
            results.code_size += trace.emitted(asm)
    results.programs += clocks
    return clocks


def timed(workload, env, seconds, tracer, checks):
    """The timed stages; each operation is one benchmark-owned root span
    when traced."""
    results = Results()
    if workload.discovers:
        # Target by target: cold, then program chunks and warm passes in
        # turn, so that each stage's operations spread over the whole run.
        parts = workload.warm_passes + 1
        n = len(env.programs)
        chunks = [env.programs[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
        results.warm = [[] for _ in range(workload.warm_passes)]
        for target in workload.targets:
            report, clock = discovery(workload, env, "cold", target, tracer, checks, results)
            results.cold.append(clock)
            backend = None
            if report is None:
                for program in env.programs:
                    checks.fail(checks.attempt(f"programs:{target}:{program.name}:0"),
                                "no spec was discovered")
            else:
                with _region(tracer, f"backend:{target}", "programs"):
                    backend = GeneratedBackend(report.spec)
            for index, chunk in enumerate(chunks):
                if backend is not None:
                    program_runs(env, target, backend, "programs", tracer, checks, results,
                                 programs=chunk)
                if index < workload.warm_passes:
                    _, clock = discovery(workload, env, "warm", target, tracer, checks, results,
                                         index)
                    results.warm[index].append(clock)
        results.target_verbs = sum(
            r.machine_stats.total_verbs for (s, _), r in results.reports.items() if s == "cold"
        )
        return results
    # Program by program: the first run is cold, then warm runs back to
    # back for an equal share of --seconds, so cold and warm runs see the
    # same stretches of the host's time.
    backends = {t: GeneratedBackend(spec) for t, spec in env.specs.items()}
    share = seconds / (len(backends) * len(env.programs))
    results.warm_by_program = True
    for target, backend in backends.items():
        machine = env.machines["programs", target]
        for program in env.programs:
            verbs = machine.stats.total_verbs
            results.cold += program_runs(env, target, backend, "cold", tracer, checks, results,
                                         programs=[program])
            results.target_verbs += machine.stats.total_verbs - verbs
            start, runs = time.perf_counter(), []
            while len(runs) < 1 or time.perf_counter() - start < share:
                runs += program_runs(env, target, backend, "warm", tracer, checks, results,
                                     len(runs) + 1, [program])
            results.warm.append(runs)
    return results


def wall(clocks):
    return sum(clock.wall for clock in clocks)


def cold_only(workload, env):
    """The cold stage's timed operations alone, untraced: their wall
    seconds."""
    results = Results()
    if workload.discovers:
        return wall(
            discovery(workload, env, "cold", target, None, Checks(), results)[1]
            for target in workload.targets
        )
    return wall(
        clock
        for target, spec in env.specs.items()
        for clock in program_runs(env, target, GeneratedBackend(spec), "cold", None, Checks(),
                                  results)
    )


def verify(workload, env, results, checks):
    """Translation validation of every discovered spec against its
    target's machine model (untimed)."""
    if workload.discovers:
        specs = {t: r.spec for (s, t), r in results.reports.items() if s == "cold"}
        ops = {t: f"cold:{t}" for t in specs}
    else:
        specs = env.specs
        ops = {t: f"setup:{t}" for t in specs}
    for target, spec in specs.items():
        result = verify_spec(spec, build_model(target), seed=DEFAULT_SEED)
        refuted = result.stats.get("refuted", 0)
        if refuted:
            checks.fail(ops[target], f"verify_spec refuted {refuted} rules")


# -- metrics ----------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], int(100 * (index + 1) / n) if n else 0, n


def warm_seconds(results, total):
    """The median warm pass, or with ``warm_by_program`` the program set
    at each program's median warm run."""
    if results.warm_by_program:
        return sum(statistics.median(total([clock]) for clock in runs)
                   for runs in results.warm)
    return statistics.median(total(clocks) for clocks in results.warm)


def end_to_end(setup_clocks, results, seconds):
    """Every end-to-end metric: ``{name: (value, unit)}``, with each
    operation's time taken as ``seconds(clock)``."""

    def total(clocks):
        return sum(seconds(clock) for clock in clocks)

    lat_ms = [1000 * seconds(clock) for clock in results.programs]
    return {
        "setup_s": (statistics.median(seconds(clock) for clock in setup_clocks), "s"),
        "cold_s": (total(results.cold), "s"),
        "warm_s": (warm_seconds(results, total), "s"),
        "target_verbs": (results.target_verbs, "count"),
        "programs_per_s": (1000 * len(lat_ms) / sum(lat_ms), "programs/s"),
        "program_ms_p50": (statistics.median(lat_ms), "ms"),
        "program_ms_tail": (tail(lat_ms)[0], "ms"),
        "exec_steps": (results.exec_steps, "count"),
        "code_size": (results.code_size, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# -- per-layer metrics (traced run) --------------------------------------------

STAGES = ("cold", "warm", "programs")

#: (layer, metric, unit, better).  Machine and program layers are
#: reported for every stage; discovery layers for the two discovery
#: passes.  Each stage closes with its traced wall time, the part of it
#: no layer accounts for, and the time two workers' spans overlapped:
#: the layers' self times plus ``unattributed_s`` minus ``overlap_s``
#: add up to ``wall_s``.
MACHINE_LAYERS = (
    ("machines.machine", "verbs", "count", "lower"),
    ("machines.machine", "self_s", "s", "lower"),
    ("machines.assembler", "calls", "count", "lower"),
    ("machines.assembler", "self_s", "s", "lower"),
    ("machines.assembler", "rejects", "count", "lower"),
    ("machines.linker", "calls", "count", "lower"),
    ("machines.linker", "self_s", "s", "lower"),
    ("machines.executor", "calls", "count", "lower"),
    ("machines.executor", "self_s", "s", "lower"),
    ("machines.executor", "steps", "count", "lower"),
    ("toyc.frontend", "self_s", "s", "lower"),
    ("beg.codegen", "calls", "count", "lower"),
    ("beg.codegen", "self_s", "s", "lower"),
    ("beg.codegen", "instrs", "count", "lower"),
)
DISCOVERY_LAYERS = (
    ("cc", "calls", "count", "lower"),
    ("cc", "self_s", "s", "lower"),
    ("discovery.resilience", "self_s", "s", "lower"),
    ("discovery.resilience", "retries", "count", "lower"),
    ("discovery.cache", "lookups", "count", "lower"),
    ("discovery.cache", "hit_ratio", "ratio", "higher"),
    ("discovery.cache", "get_s", "s", "lower"),
    ("discovery.cache", "put_s", "s", "lower"),
    ("discovery.cache", "self_s", "s", "lower"),
    ("discovery.cache", "shard_bytes", "bytes", "lower"),
    ("discovery.scheduler", "tasks", "count", "lower"),
    ("discovery.scheduler", "busy_s", "s", "lower"),
    ("discovery.scheduler", "wait_s", "s", "lower"),
    ("discovery.scheduler", "max_in_flight", "count", "higher"),
    ("discovery.scheduler", "self_s", "s", "lower"),
    ("discovery.generator", "s", "s", "lower"),
    ("discovery.generator", "self_s", "s", "lower"),
    ("discovery.generator", "usable_ratio", "ratio", "higher"),
    ("discovery.probe", "s", "s", "lower"),
    ("discovery.probe", "self_s", "s", "lower"),
    ("discovery.preprocess", "s", "s", "lower"),
    ("discovery.preprocess", "self_s", "s", "lower"),
    ("discovery.mutation", "self_s", "s", "lower"),
    ("discovery.mutation", "attempted", "count", "lower"),
    ("discovery.mutation", "runs", "count", "lower"),
    ("discovery.mutation", "useful_ratio", "ratio", "higher"),
    ("discovery.extract_pool", "s", "s", "lower"),
    ("discovery.extract_pool", "self_s", "s", "lower"),
    ("discovery.extract_pool", "interpretations", "count", "lower"),
    ("discovery.extract_pool", "memo_hit_ratio", "ratio", "higher"),
    ("discovery.extract_pool", "budget_spent", "count", "lower"),
    ("discovery.synthesize", "s", "s", "lower"),
    ("discovery.synthesize", "self_s", "s", "lower"),
    ("analysis.speclint", "s", "s", "lower"),
    ("analysis.speclint", "self_s", "s", "lower"),
)
ACCOUNTING = (
    ("wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("overlap_s", "s", "higher"),
)


def per_layer_names():
    """``[(name, unit, better)]`` of every per-layer metric, in order."""
    names = []
    for stage in STAGES:
        layers = MACHINE_LAYERS + (DISCOVERY_LAYERS if stage != "programs" else ())
        names += [(f"{stage}.{layer}.{metric}", unit, better)
                  for layer, metric, unit, better in layers]
        names += [(f"{stage}.{metric}", unit, better) for metric, unit, better in ACCOUNTING]
    names.append(("cold.tracing_overhead_s", "s", "lower"))
    return names


def _ratio(num, den):
    return num / den if den else 0.0


def _report_counts(reports):
    """Counters ``ArchitectureDiscovery`` keeps at the layer boundaries, summed over a
    stage's discovery reports."""
    total = dict.fromkeys(("retries", "usable", "samples", "attempted", "succeeded", "runs",
                           "interpretations", "memo_hits", "memo_lookups", "budget_spent"), 0)
    for report in reports:
        total["retries"] += report.retry_stats.retries if report.retry_stats else 0
        if report.corpus is not None:
            total["usable"] += sum(1 for s in report.corpus.samples if s.usable)
            total["samples"] += len(report.corpus.samples)
        if report.engine is not None:
            total["attempted"] += report.engine.stats.attempted
            total["succeeded"] += report.engine.stats.succeeded
            total["runs"] += report.engine.stats.runs
        if report.extraction is not None:
            total["interpretations"] += report.extraction.interpretations_tried
        stats = report.extraction_stats
        if stats is not None:
            total["memo_hits"] += stats.memo_hits
            total["memo_lookups"] += stats.memo_hits + stats.memo_misses
            total["budget_spent"] += stats.budget_spent
    return total


def layer_metrics(analysis, workload, results, shard_bytes):
    """Every per-layer metric from the traced run's spans and reports."""
    values = {}
    for stage in STAGES:
        stages = {"cold", "warm"} if stage == "programs" and not workload.discovers else {stage}
        summary = analysis.summarise(stages)

        def layer(name, summary=summary):
            return summary.get(name, {})

        for name, metric, _, _ in MACHINE_LAYERS:
            key = {"verbs": "calls", "rejects": "errors"}.get(metric, metric)
            values[f"{stage}.{name}.{metric}"] = layer(name).get(key, 0)
        if stage != "programs":
            counts = _report_counts(r for (s, _), r in results.reports.items() if s == stage)
            cache = layer("discovery.cache")
            lookups = sum(1 for s in analysis.spans
                          if s.stage == stage and s.name == "ProbeCache.get")
            derived = {
                ("discovery.resilience", "retries"): counts["retries"],
                ("discovery.cache", "lookups"): lookups,
                ("discovery.cache", "hit_ratio"): _ratio(cache.get("hits", 0), lookups),
                ("discovery.cache", "shard_bytes"): shard_bytes.get(stage, 0),
                ("discovery.generator", "usable_ratio"): _ratio(counts["usable"],
                                                                counts["samples"]),
                ("discovery.mutation", "attempted"): counts["attempted"],
                ("discovery.mutation", "runs"): counts["runs"],
                ("discovery.mutation", "useful_ratio"): _ratio(counts["succeeded"],
                                                               counts["attempted"]),
                ("discovery.extract_pool", "interpretations"): counts["interpretations"],
                ("discovery.extract_pool", "memo_hit_ratio"): _ratio(counts["memo_hits"],
                                                                     counts["memo_lookups"]),
                ("discovery.extract_pool", "budget_spent"): counts["budget_spent"],
            }
            for name, metric, _, _ in DISCOVERY_LAYERS:
                value = derived.get((name, metric))
                values[f"{stage}.{name}.{metric}"] = (
                    value if value is not None else layer(name).get(metric, 0)
                )
        wall = analysis.stage_wall(stages)
        self_total = sum(entry["self_s"] for entry in summary.values())
        values[f"{stage}.wall_s"] = wall
        values[f"{stage}.unattributed_s"] = layer(trace.BENCH).get("self_s", 0.0)
        values[f"{stage}.overlap_s"] = self_total - wall
    return values


def phase_mismatches(analysis, results):
    """Discovery phases whose traced total disagrees with the report's own
    ``phase_timings``: ``[(op, phase, reported, traced)]``."""
    out = []
    for stage in ("cold", "warm"):
        traced = analysis.phase_totals(stage)
        for (s, target), report in results.reports.items():
            if s != stage:
                continue
            op = f"{stage}:{target}"
            for phase, seconds in traced.get(op, {}).items():
                reported = report.phase_timings[phase]["wall_s"]
                if not (-0.001 <= reported - seconds <= 0.01 + PHASE_SLACK * reported):
                    out.append((op, phase, reported, seconds))
    return out
