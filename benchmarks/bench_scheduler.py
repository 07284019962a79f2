"""Scheduler speedup and probe-cache warm/cold benchmarks.

Discovery cost is dominated by target round-trips, so these benches run
the RemoteMachine with a simulated per-verb network latency
(``REPRO_BENCH_LATENCY``, default 2ms -- a LAN round-trip; the paper's
``rsh`` to kea.cs.auckland.ac.nz paid far more).  Worker-pool speedup
comes from overlapping those round-trips across connections; the cache
removes them entirely on a warm rerun.  Every test also re-asserts the
determinism contract: faster must never mean different.
"""

import os
import time


from benchmarks.conftest import TARGETS

from repro.discovery.driver import ArchitectureDiscovery
from repro.machines.machine import RemoteMachine

LATENCY = float(os.environ.get("REPRO_BENCH_LATENCY", "0.002"))

#: the paper's five architectures (m68k is this repo's extra validation
#: target and stays out of the headline suite)
FIVE_TARGETS = tuple(t for t in TARGETS if t != "m68k")

WORKER_COUNTS = (1, 2, 4, 8)


def _discover(target, workers, cache=None):
    machine = RemoteMachine(target, latency=LATENCY)
    return ArchitectureDiscovery(machine, workers=workers, cache=cache).run()


def test_speedup_workers4_five_architectures(benchmark):
    """The acceptance bar: >=2x wall-clock over the five-architecture
    suite at workers=4, with bit-for-bit identical specs."""

    def suite(workers):
        start = time.perf_counter()
        specs = [
            _discover(target, workers).spec.render_beg() for target in FIVE_TARGETS
        ]
        return time.perf_counter() - start, specs

    def run():
        return suite(1), suite(4)

    (serial_s, serial_specs), (fanned_s, fanned_specs) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = serial_s / fanned_s
    benchmark.extra_info.update(
        {
            "targets": list(FIVE_TARGETS),
            "latency_s": LATENCY,
            "workers1_seconds": round(serial_s, 2),
            "workers4_seconds": round(fanned_s, 2),
            "speedup": round(speedup, 2),
            "specs_identical": serial_specs == fanned_specs,
        }
    )
    assert serial_specs == fanned_specs
    assert speedup >= 2.0, f"workers=4 speedup only {speedup:.2f}x"


def test_worker_sweep_x86(benchmark):
    """Wall clock at workers in {1, 2, 4, 8} on one architecture."""

    def run():
        times = {}
        for workers in WORKER_COUNTS:
            start = time.perf_counter()
            report = _discover("x86", workers)
            times[workers] = round(time.perf_counter() - start, 2)
            assert report.scheduler_stats.workers == workers
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(
        {
            "latency_s": LATENCY,
            "seconds_by_workers": {str(w): s for w, s in times.items()},
        }
    )
    assert times[4] < times[1]


def test_cache_warm_vs_cold_x86(benchmark, tmp_path):
    """A warm rerun answers every probe locally: zero remote verbs, so
    its cost is independent of the network latency."""

    def run():
        start = time.perf_counter()
        cold = _discover("x86", 1, cache=str(tmp_path))
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = _discover("x86", 1, cache=str(tmp_path))
        warm_s = time.perf_counter() - start
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    stats = warm.machine_stats
    remote_verbs = stats.compilations + stats.assemblies + stats.links + stats.executions
    benchmark.extra_info.update(
        {
            "latency_s": LATENCY,
            "cold_seconds": round(cold_s, 2),
            "warm_seconds": round(warm_s, 2),
            "warm_speedup": round(cold_s / warm_s, 2),
            "warm_remote_verbs": remote_verbs,
            "warm_cache_hits": warm.cache_stats.hits,
        }
    )
    assert remote_verbs == 0, "warm rerun contacted the target"
    assert warm.cache_stats.misses == 0
    assert warm.spec.render_beg() == cold.spec.render_beg()
