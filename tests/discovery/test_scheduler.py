"""Parallel-scheduler determinism and mechanics.

The scheduler's contract is that worker count is a pure performance
knob: the discovered machine description is bit-for-bit identical for
any number of workers, healthy or flaky target alike.  The mechanics
tests pin the ordered-merge and error-capture behaviour the driver's
quarantine logic depends on.
"""

import pytest

from repro.discovery.driver import ArchitectureDiscovery, DiscoveryReport
from repro.discovery.resilience import ResilienceConfig
from repro.discovery.scheduler import ProbeScheduler, TargetConnectionPool
from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine


def test_spec_identical_for_any_worker_count():
    """workers=8 must reproduce the workers=1 description exactly."""
    serial = ArchitectureDiscovery(RemoteMachine("x86"), workers=1).run()
    fanned = ArchitectureDiscovery(RemoteMachine("x86"), workers=8).run()
    assert fanned.spec.render_beg() == serial.spec.render_beg()
    assert fanned.scheduler_stats.workers == 8
    assert fanned.scheduler_stats.max_in_flight > 1
    assert fanned.scheduler_stats.tasks == serial.scheduler_stats.tasks
    # Every verb of a fixed-width run is charged to exactly one phase.
    for run in (serial, fanned):
        phase_verbs = sum(t.verbs for t in run.timings)
        assert phase_verbs == run.machine_stats.total_verbs > 0
    # The summary surfaces the fan-out.
    assert fanned.summary()["scheduler"]["workers"] == 8


def test_spec_identical_under_faults():
    """Per-connection fault plans differ, but the resilience layer masks
    every injected fault, so the description still cannot depend on the
    worker count (the ISSUE's --flaky determinism requirement)."""

    def discover(workers):
        machine = FaultyMachine(RemoteMachine("mips"), rate=0.05, seed=7)
        config = ResilienceConfig(votes=3)
        return ArchitectureDiscovery(
            machine, resilience=config, workers=workers
        ).run()

    serial = discover(1)
    fanned = discover(4)
    assert serial.fault_stats.injected > 0
    assert fanned.fault_stats.injected > 0
    assert fanned.spec.render_beg() == serial.spec.render_beg()


def test_empty_report_summary_has_no_division_by_zero():
    """A report from a run interrupted before sample generation (no
    corpus, no enquire data) must still summarise."""
    report = DiscoveryReport(target="x86")
    summary = report.summary()
    assert summary["samples"] == "0/0 analysed"
    assert summary["usable_fraction"] == 0.0
    assert summary["word"] == "?"
    assert "machine" not in summary  # no counters held, none reported
    assert summary["phase_timings"] == {}
    assert report.render_summary()  # and render without crashing


# -- mechanics ---------------------------------------------------------


class _Conn:
    """A minimal cloneable 'connection' recording which tasks it ran."""

    def __init__(self, index=0):
        self.index = index
        self.ran = []

    def clone_connection(self, index=0):
        return _Conn(index)


def test_map_merges_in_submission_order_with_static_assignment():
    pool, note = TargetConnectionPool.open(_Conn(), size=4)
    assert note is None
    scheduler = ProbeScheduler(pool, workers=3)

    def work(item, conn):
        conn.ran.append(item)
        return (item * 10, conn.index)

    results = scheduler.map(work, range(9))
    scheduler.close()
    assert [r.value[0] for r in results] == [n * 10 for n in range(9)]
    # Task i runs on connection i mod workers, a pure function of the
    # task list -- counters and fault plans stay deterministic.
    assert [r.value[1] for r in results] == [1, 2, 3, 1, 2, 3, 1, 2, 3]
    for conn in pool.worker_connections():
        assert conn.ran == sorted(conn.ran)
    assert scheduler.stats.tasks == 9
    assert scheduler.stats.task_failures == 0


def test_map_captures_errors_per_task():
    pool, _ = TargetConnectionPool.open(_Conn(), size=3)
    scheduler = ProbeScheduler(pool, workers=2)

    def work(item, conn):
        if item == "bad":
            raise ValueError("boom")
        return item

    results = scheduler.map(work, ["ok1", "bad", "ok2"])
    assert [r.ok for r in results] == [True, False, True]
    assert isinstance(results[1].error, ValueError)
    assert scheduler.stats.task_failures == 1
    # map_values re-raises the first failure for all-or-nothing batches.
    with pytest.raises(ValueError):
        scheduler.map_values(work, ["ok1", "bad"])
    scheduler.close()


def test_pool_degrades_without_clone_support():
    class Opaque:
        pass

    pool, note = TargetConnectionPool.open(Opaque(), size=4)
    assert pool.size == 1
    assert "no clone_connection" in note
    scheduler = ProbeScheduler(pool, workers=4)
    assert scheduler.workers == 1  # clamped to the single connection
    results = scheduler.map(lambda item, conn: item + 1, [1, 2, 3])
    assert [r.value for r in results] == [2, 3, 4]
    scheduler.close()
