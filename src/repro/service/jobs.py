"""The service's persistent job queue.

A job is one submitted campaign: a set of targets plus the venue knobs
the client chose (seed, workers, attempts).  The queue is a directory
of JSON files -- one per job, written atomically -- so it needs no
database, survives service death byte-for-byte, and a restarted
service rebuilds its world by listing a directory.  Job ids are dense
(``job-000001``, ...) and allocated from what is on disk, so ids stay
stable across restarts too.

State machine::

    queued -> running -> done | failed
       |          \\-> cancelled   (client DELETE, or service cancel)
       \\------------> expired     (deadline_s elapsed; partial specs
                                    salvaged via the supervisor)

``done`` means every target's campaign finished with a spec;
``failed`` means at least one ended quarantined or incomplete (the
per-target detail travels in the job record); ``expired`` means the
job's own ``deadline_s`` elapsed first -- open campaigns are marked
incomplete with whatever partial spec their newest checkpoint holds.
Terminal states are forever: a restarted service re-adopts only
``queued`` and ``running`` jobs.

Jobs also carry a ``priority`` (higher runs first) and the submitting
``client``; :func:`schedule_order` is the one scheduling comparator --
strict priority, FIFO by dense job id within a priority level -- so
the queue order is deterministic and restart-stable.
"""

from __future__ import annotations

import json
import pathlib
import re
import threading
import time

from repro.discovery.durable import atomic_write
from repro.errors import DiscoveryError

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

#: states a restarted service picks back up
OPEN_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, CANCELLED, EXPIRED)

_JOB_ID = re.compile(r"^job-(\d{6})$")

#: venue knobs a client may set per job; everything else is refused so
#: typos fail loudly instead of silently configuring nothing
SUBMIT_KNOBS = (
    "seed",
    "workers",
    "max_attempts",
    "escalate_votes",
    "priority",
    "deadline_s",
)

#: priority bounds: wide enough for tiers, tight enough that a typo'd
#: epoch timestamp cannot silently monopolise the queue
PRIORITY_MIN, PRIORITY_MAX = -100, 100


class JobError(DiscoveryError):
    """A malformed submission or an unknown/ineligible job id."""


def _validate_workers(workers):
    if workers is None or workers == "auto":
        return workers
    try:
        return max(1, int(workers))
    except (TypeError, ValueError):
        raise JobError(
            f"workers must be an integer or 'auto', got {workers!r}"
        ) from None


def _validate_priority(priority):
    if priority is None:
        return 0
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise JobError(f"priority must be an integer, got {priority!r}")
    if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
        raise JobError(
            f"priority must be in [{PRIORITY_MIN}, {PRIORITY_MAX}], got {priority}"
        )
    return priority


def _validate_deadline(deadline_s):
    if deadline_s is None:
        return None
    try:
        deadline_s = float(deadline_s)
    except (TypeError, ValueError):
        raise JobError(f"deadline_s must be a number, got {deadline_s!r}") from None
    if deadline_s <= 0:
        raise JobError(f"deadline_s must be positive, got {deadline_s}")
    return deadline_s


def schedule_order(jobs):
    """The queue's one comparator: strict priority (higher first),
    FIFO by dense job id within a level.  Deterministic and
    restart-stable -- both the promotion order and the per-tick slot
    hand-out use exactly this."""
    return sorted(jobs, key=lambda job: (-job.get("priority", 0), job["id"]))


def deadline_expired(job, now=None):
    """True when the job's wall-clock budget has elapsed.  Deadlines
    are venue (they bound *when* work happens, never what it answers),
    so the wall clock is the correct reference -- it survives service
    restarts, which monotonic time cannot."""
    deadline_s = job.get("deadline_s")
    if deadline_s is None:
        return False
    submitted_at = job.get("submitted_at")
    if submitted_at is None:
        return False
    if now is None:
        now = time.time()  # detlint: ok[DET003] - venue-only deadline
    return now - submitted_at > deadline_s


class JobStore:
    """Atomic JSON-file-per-job persistence under ``<root>/jobs``."""

    def __init__(self, root):
        self.directory = pathlib.Path(root) / "jobs"
        self._lock = threading.Lock()

    # -- submission ----------------------------------------------------

    def submit(self, targets, known_targets=None, client=None, **knobs):
        """Validate and durably enqueue one campaign; returns the job
        record (state ``queued``)."""
        if not targets or not isinstance(targets, (list, tuple)):
            raise JobError("targets must be a non-empty list")
        targets = [str(t) for t in targets]
        if len(set(targets)) != len(targets):
            raise JobError(f"duplicate targets in {targets}")
        if known_targets is not None:
            unknown = [t for t in targets if t not in known_targets]
            if unknown:
                raise JobError(
                    f"unknown target(s): {', '.join(unknown)} "
                    f"(choose from {', '.join(known_targets)})"
                )
        bogus = sorted(set(knobs) - set(SUBMIT_KNOBS))
        if bogus:
            raise JobError(
                f"unknown option(s): {', '.join(bogus)} "
                f"(allowed: {', '.join(SUBMIT_KNOBS)})"
            )
        job = {
            "targets": targets,
            "state": QUEUED,
            "seed": int(knobs.get("seed") or 1997),
            "workers": _validate_workers(knobs.get("workers")),
            "max_attempts": int(knobs.get("max_attempts") or 5),
            "escalate_votes": knobs.get("escalate_votes"),
            "priority": _validate_priority(knobs.get("priority")),
            "deadline_s": _validate_deadline(knobs.get("deadline_s")),
            "submitted_at": time.time(),  # detlint: ok[DET003] - venue-only deadline anchor
            "client": client,
            "detail": None,
        }
        with self._lock:
            job["id"] = self._next_id()
            self._write(job)
        return job

    # -- reads ---------------------------------------------------------

    def get(self, job_id):
        path = self.directory / f"{job_id}.json"
        try:
            return json.loads(path.read_text())
        except OSError:
            raise JobError(f"no such job: {job_id}") from None
        except ValueError as exc:
            raise JobError(f"unreadable job record {path}: {exc}") from None

    def list(self):
        """Every job record, id order."""
        jobs = []
        for path in sorted(self.directory.glob("job-*.json")):
            if not _JOB_ID.match(path.stem):
                continue
            try:
                jobs.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # a torn record is invisible, not fatal
        return jobs

    def open_jobs(self):
        return [job for job in self.list() if job["state"] in OPEN_STATES]

    # -- writes --------------------------------------------------------

    def update(self, job_id, **fields):
        """Read-modify-write one record under the store lock."""
        with self._lock:
            job = self.get(job_id)
            job.update(fields)
            self._write(job)
        return job

    def _write(self, job):
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.directory / f"{job['id']}.json",
            json.dumps(job, indent=2, sort_keys=True) + "\n",
        )

    def _next_id(self):
        highest = 0
        if self.directory.exists():
            for path in self.directory.glob("job-*.json"):
                match = _JOB_ID.match(path.stem)
                if match:
                    highest = max(highest, int(match.group(1)))
        return f"job-{highest + 1:06d}"
