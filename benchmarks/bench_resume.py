"""Cost of crash-resume: what a kill -9 actually loses.

A full discovery run costs a few thousand target interactions; a
crash-durable run killed mid mutation analysis resumes from its newest
checkpoint generation and re-does only the unrealised suffix.  The
bench measures that resume cost in two regimes -- **cold cache** (the
resumed run re-probes the target for everything past the checkpoint)
and **warm cache** (a shared probe cache answers everything the crashed
run already asked) -- against the uninterrupted baseline, with the
determinism contract asserted on every leg: a resumed spec must be
bit-for-bit the uninterrupted one.

``BENCH_resume.json`` records wall seconds and remote-execution counts
for the baseline, the crashed prefix, and both resume regimes, plus the
checkpoint commit count and on-disk size of the run directory -- the
durability overhead a user pays for the privilege of being killable.
"""

import os
import time

import pytest

from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.durable import DurableRun, machine_from_config
from repro.machines.crashes import CrashPlan, SimulatedCrash
from repro.machines.machine import RemoteMachine

LATENCY = float(os.environ.get("REPRO_BENCH_LATENCY", "0.002"))

TARGET = "vax"

CRASH_AT = "sample:mutation_analysis:2"


def _machine():
    return RemoteMachine(TARGET, latency=LATENCY)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _crash(rundir, cache):
    driver = ArchitectureDiscovery(
        _machine(),
        workers=1,
        cache=cache,
        run_dir=str(rundir),
        crash_plan=CrashPlan.parse(CRASH_AT),
    )
    with pytest.raises(SimulatedCrash):
        driver.run()
    return driver


def _resume(rundir, cache):
    run = DurableRun.open(str(rundir))
    machine, resilience = machine_from_config(run.config)
    machine.latency = LATENCY
    checkpoint, warnings = run.load_checkpoint()
    assert not warnings, warnings
    driver = ArchitectureDiscovery(
        machine,
        resilience=resilience,
        workers=1,
        cache=cache,
        run_dir=run,
        checkpoint_every=run.config["checkpoint_every"],
    )
    return driver.run(resume=checkpoint), run


def test_resume_cost_cold_vs_warm_cache(benchmark, tmp_path):
    cache = str(tmp_path / "cache")

    def run():
        # Uninterrupted baseline (also warms the shared probe cache).
        baseline_s, baseline = _timed(
            lambda: ArchitectureDiscovery(_machine(), workers=1, cache=cache).run()
        )
        ref_spec = baseline.spec.render_beg()

        # Cold resume: crash without the cache, resume without it --
        # every post-checkpoint probe pays the full round-trip again.
        cold_dir = tmp_path / "cold-run"
        crash_cold_s, _ = _timed(lambda: _crash(cold_dir, None))
        cold_resume_s, (cold_report, _run) = _timed(lambda: _resume(cold_dir, None))

        # Warm resume: the cache already holds every answer the crashed
        # run extracted, so the resumed suffix is (almost) probe-free.
        warm_dir = tmp_path / "warm-run"
        crash_warm_s, _ = _timed(lambda: _crash(warm_dir, cache))
        warm_resume_s, (warm_report, warm_run) = _timed(lambda: _resume(warm_dir, cache))

        disk = sum(p.stat().st_size for p in warm_run.directory.iterdir())
        return {
            "baseline_s": round(baseline_s, 3),
            "crash_prefix_cold_s": round(crash_cold_s, 3),
            "resume_cold_s": round(cold_resume_s, 3),
            "crash_prefix_warm_s": round(crash_warm_s, 3),
            "resume_warm_s": round(warm_resume_s, 3),
            "cold_executions": cold_report.machine_stats.executions,
            "warm_executions": warm_report.machine_stats.executions,
            "checkpoint_commits": warm_run.commits,
            "run_dir_bytes": disk,
            "latency_s": LATENCY,
            "crash_at": CRASH_AT,
            "cold_spec_identical": cold_report.spec.render_beg() == ref_spec,
            "warm_spec_identical": warm_report.spec.render_beg() == ref_spec,
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(payload)

    # Identity is the contract; speed is the observation.
    assert payload["cold_spec_identical"]
    assert payload["warm_spec_identical"]
    # A warm resume answers probes locally: it must beat the cold one
    # on remote executions (the latency-proof metric, unlike seconds).
    assert payload["warm_executions"] <= payload["cold_executions"]
