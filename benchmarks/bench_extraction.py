"""Process-parallel extraction speedup over the five-architecture suite.

The scheduler benches (PR 2) measure round-trip overlap; this one
measures the CPU-bound phases the scheduler cannot help with: graph
matching and reverse interpretation, fanned over worker processes by
``--extract-procs``.  The probe cache is warmed first so remote latency
is excluded and the measured seconds are (almost) pure extraction CPU.

The determinism contract is asserted unconditionally: specs bit-for-bit
identical at every process count, and a nonzero hypothesis-memo hit
rate.  The >=1.8x wall-clock bar is asserted only when the host
actually has cores to parallelise over (``os.sched_getaffinity``) --
on a single-CPU host process fan-out of pure-CPU work is all overhead
and no overlap, so the bench records an explicit waiver instead of
failing on physics.  ``BENCH_extraction.json`` always reports the
measured wall/CPU seconds, the usable-core count, and the waiver state,
so the artifact never overstates what was demonstrated.
"""

import os

from benchmarks import _emit
from benchmarks.conftest import TARGETS

from repro.discovery.driver import ArchitectureDiscovery
from repro.machines.machine import RemoteMachine

#: the paper's five architectures (m68k is this repo's extra validation
#: target and stays out of the headline suite)
FIVE_TARGETS = tuple(t for t in TARGETS if t != "m68k")

#: the phases the extraction engine parallelises
CPU_PHASES = ("graph matching", "reverse interpretation")

SPEEDUP_BAR = 1.8

#: cores this process may actually run on; the speedup bar needs them
USABLE_CPUS = len(os.sched_getaffinity(0))


def _suite(cache, procs):
    """Run the five-target suite; returns (wall, cpu, reports) where
    wall/cpu sum only the two CPU-bound phases."""
    wall = cpu = 0.0
    reports = {}
    for target in FIVE_TARGETS:
        report = ArchitectureDiscovery(
            RemoteMachine(target), cache=str(cache), extract_procs=procs
        ).run()
        for timing in report.timings:
            if timing.name in CPU_PHASES:
                wall += timing.seconds
                cpu += timing.cpu_seconds
        reports[target] = report
    return wall, cpu, reports


def test_extraction_speedup_procs4_five_architectures(tmp_path_factory):
    cache = tmp_path_factory.mktemp("extract-probe-cache")
    for target in FIVE_TARGETS:  # warm the probe cache
        ArchitectureDiscovery(RemoteMachine(target), cache=str(cache)).run()

    wall_1, cpu_1, reports_1 = _suite(cache, procs=1)
    wall_4, cpu_4, reports_4 = _suite(cache, procs=4)

    specs_identical = all(
        reports_4[t].spec.render_beg() == reports_1[t].spec.render_beg()
        for t in FIVE_TARGETS
    )
    memo_hits = sum(r.extraction_stats.memo_hits for r in reports_4.values())
    memo_misses = sum(r.extraction_stats.memo_misses for r in reports_4.values())
    speedup = wall_1 / wall_4 if wall_4 else float("inf")
    bar_enforced = USABLE_CPUS >= 4

    payload = {
        "targets": list(FIVE_TARGETS),
        "phases": list(CPU_PHASES),
        "usable_cpus": USABLE_CPUS,
        "procs1_wall_s": round(wall_1, 4),
        "procs1_cpu_s": round(cpu_1, 4),
        "procs4_wall_s": round(wall_4, 4),
        "procs4_cpu_s": round(cpu_4, 4),
        "speedup": round(speedup, 3),
        "speedup_bar": SPEEDUP_BAR,
        "speedup_bar_waived": (
            False
            if bar_enforced
            else f"host exposes {USABLE_CPUS} usable CPU(s); "
            "process fan-out of CPU-bound work cannot beat serial here"
        ),
        "specs_identical": specs_identical,
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
        "memo_hit_rate": round(
            memo_hits / (memo_hits + memo_misses), 4
        ) if (memo_hits + memo_misses) else 0.0,
        "per_target_procs4": {
            t: reports_4[t].extraction_stats.as_dict() for t in FIVE_TARGETS
        },
    }
    _emit.record("extraction", {"five_architecture_suite": payload})

    # Determinism and memo effectiveness hold on any host.
    assert specs_identical, "spec changed under --extract-procs 4"
    assert memo_hits > 0, "hypothesis memo never hit"
    if bar_enforced:
        assert speedup >= SPEEDUP_BAR, (
            f"graphmatch+RI speedup {speedup:.2f}x < {SPEEDUP_BAR}x "
            f"on a {USABLE_CPUS}-CPU host"
        )


def test_extraction_shard_fanout_reported(tmp_path_factory):
    """The stats tell the sharding story: every target partitions into
    at least one shard, dispatch + inline covers them all, and the
    budget accounting balances."""
    cache = tmp_path_factory.mktemp("extract-shard-cache")
    rows = {}
    for target in FIVE_TARGETS:
        report = ArchitectureDiscovery(
            RemoteMachine(target), cache=str(cache), extract_procs=2
        ).run()
        stats = report.extraction_stats
        assert stats.shards >= 1
        assert stats.dispatched_shards + stats.inline_shards == stats.shards
        assert len(stats.shard_sizes) == stats.shards
        assert stats.budget_spent + stats.budget_unspent == stats.budget_total
        rows[target] = {
            "shards": stats.shards,
            "dispatched": stats.dispatched_shards,
            "budget_spent": stats.budget_spent,
        }
    _emit.record("extraction", {"shard_fanout_procs2": rows})
