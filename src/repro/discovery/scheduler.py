"""Bounded worker-pool scheduler over concurrent target connections.

Discovery cost is dominated by target round-trips (the paper runs every
probe over ``rsh``, strictly one at a time).  The per-sample work of the
pipeline -- realise the sample, probe registers, run mutation analysis
-- is embarrassingly parallel *across samples*: each sample only ever
talks to the target about itself.  This module fans that work out over
``N`` concurrent connections while keeping results **bit-for-bit
deterministic** for any worker count:

* every task's result is merged back in *submission order*, never
  completion order;
* every task draws randomness from its own stream, seeded by the run
  seed and the task's stable name (see ``MutationEngine.fork``), not
  from a shared stream whose interleaving would depend on scheduling;
* tasks are assigned to connections **statically** (task *i* runs on
  connection *i mod workers*), so each connection's call sequence --
  and with it its seeded fault plan and the pool's counters -- is a
  pure function of the task list, not of thread timing.  Dynamic
  work-stealing would balance load marginally better at the price of
  making every counter and fault schedule racy; determinism wins.

:class:`TargetConnectionPool` clones a connection stack via the
``clone_connection`` protocol (RemoteMachine, FaultyMachine,
ResilientMachine and CachingMachine all implement it).  Every layer
shares its counters with its clones, and the probe cache is shared too,
so the primary connection's counters already cover the whole pool.
:class:`ProbeScheduler` runs ordered maps over the pool and records
observability counters (workers, tasks, failures, peak in-flight depth).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.counters import Counters


@dataclass
class SchedulerStats(Counters):
    """Counters the driver surfaces in the DiscoveryReport."""

    workers: int = 1
    connections: int = 1
    tasks: int = 0
    task_failures: int = 0
    batches: int = 0
    max_in_flight: int = 0


@dataclass
class TaskResult:
    """One task's outcome, tagged with its submission index so merges
    are ordered by input, independent of completion order."""

    index: int
    value: object = None
    error: BaseException | None = None

    @property
    def ok(self):
        return self.error is None


class TargetConnectionPool:
    """The primary connection plus ``size - 1`` clones of it.

    The primary stays reserved for the driver's sequential phases; the
    clones serve worker threads."""

    def __init__(self, primary, size=1):
        self.primary = primary
        self.connections = [primary]
        for index in range(1, size):
            self.connections.append(primary.clone_connection(index))

    @classmethod
    def open(cls, primary, size):
        """Build a pool, degrading to a single connection when the
        machine cannot be cloned (custom test doubles, foreign stacks).
        Returns ``(pool, note)``; ``note`` explains any degradation."""
        if size <= 1:
            return cls(primary, 1), None
        if not hasattr(primary, "clone_connection"):
            return (
                cls(primary, 1),
                f"machine {type(primary).__name__} has no clone_connection; "
                f"running single-connection",
            )
        return cls(primary, size), None

    @property
    def size(self):
        return len(self.connections)

    def worker_connections(self):
        """Connections handed to worker threads: the clones when there
        are any, else the primary (single-connection pool)."""
        if len(self.connections) == 1:
            return [self.primary]
        return self.connections[1:]


class ProbeScheduler:
    """Ordered parallel maps over a connection pool.

    ``map(fn, items)`` calls ``fn(item, connection)`` for every item and
    returns a list of :class:`TaskResult` in item order.  Exceptions are
    captured per task (the driver turns them into per-sample quarantine)
    rather than aborting the batch.  With one worker everything runs
    inline on the primary connection -- no threads, no overhead -- which
    is also the degenerate case the determinism tests compare against.
    """

    def __init__(self, pool, workers=1):
        self.pool = pool
        self.workers = max(1, min(workers, len(pool.worker_connections())))
        self.stats = SchedulerStats(
            workers=self.workers, connections=pool.size
        )
        self._executor = None
        self._in_flight = 0
        self._lock = threading.Lock()

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def map(self, fn, items, phase=None):
        """Run ``fn(item, connection)`` over *items*; ordered results.

        *phase* names the batch for tracing wrappers, which label their
        spans with it; the scheduler itself does not read it."""
        items = list(items)
        self.stats.batches += 1
        self.stats.tasks += len(items)
        if self.workers <= 1:
            results = [
                self._run_one(fn, index, item, self.pool.primary)
                for index, item in enumerate(items)
            ]
        else:
            self._ensure_executor()
            connections = self.pool.worker_connections()[: self.workers]
            buckets = [[] for _ in range(self.workers)]
            for index, item in enumerate(items):
                buckets[index % self.workers].append((index, item))
            futures = [
                self._executor.submit(self._run_bucket, fn, bucket, conn)
                for bucket, conn in zip(buckets, connections)
                if bucket
            ]
            results = [result for future in futures for result in future.result()]
            results.sort(key=lambda result: result.index)
        return results

    def map_values(self, fn, items, phase=None):
        """Like :meth:`map` but unwraps values, re-raising the first
        error (for batches whose tasks must all succeed)."""
        results = self.map(fn, items, phase=phase)
        for result in results:
            if not result.ok:
                raise result.error
        return [result.value for result in results]

    # -- internals -----------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="probe-worker"
            )

    def _run_bucket(self, fn, bucket, conn):
        """One worker's statically assigned share, run in order on its
        own connection."""
        out = []
        with self._lock:
            self._in_flight += 1
            self.stats.max_in_flight = max(self.stats.max_in_flight, self._in_flight)
        try:
            for index, item in bucket:
                out.append(self._run_one(fn, index, item, conn))
        finally:
            with self._lock:
                self._in_flight -= 1
        return out

    def _run_one(self, fn, index, item, conn):
        try:
            return TaskResult(index, value=fn(item, conn))
        except Exception as exc:  # captured; the driver decides policy
            self.stats.bump(task_failures=1)
            return TaskResult(index, error=exc)
