"""The discovery service core: jobs in, specs out, one shared cache.

:class:`DiscoveryService` is the HTTP-free heart of ``repro serve``.
It owns three things:

* the :class:`~repro.service.jobs.JobStore` (the durable queue),
* one :class:`~repro.discovery.supervisor.CampaignSupervisor` per
  *running* job, all driven off a single global worker budget by
  :meth:`step` (the fleet loop), and
* the shared :class:`~repro.discovery.cache.ProbeCache` every worker
  reads and writes through the ``/cache`` endpoints -- the service
  process is the only writer of the shard files, so N workers can
  share one cache without two-writer torn lines.

Crash story: the service holds **no state the disk does not**.  Jobs
are JSON files, campaign progress lives in the workers' run
directories (checkpoints + the ``progress.json`` sidecar), and the
cache is write-through JSONL.  :meth:`adopt` -- called at every start
-- lists the open jobs and rebuilds their supervisors; the supervisors
in turn re-adopt half-finished run directories over the ordinary
``--resume`` path (reaping any orphaned worker first), so a campaign
interrupted by service death completes with a spec bit-for-bit
identical to an uninterrupted one.

Multi-tenant hardening (all venue -- none of it can change a spec):

* **identity + quotas** -- requests map to a :class:`~repro.service.
  auth.Client` via the ``clients.json`` registry (open mode when the
  file is absent); per-client limits on queued jobs, concurrent
  targets and cache writes answer 429 with ``Retry-After``.
* **admission control** -- one watermark (``max_backlog``, default
  8x the fleet) bounds the open-target backlog; submissions beyond it
  are shed with a typed 503 rather than queued into an ever-growing
  pile.  Shedding counters ride in ``/stats``.
* **priority + deadlines** -- the queue drains in
  :func:`~repro.service.jobs.schedule_order` (strict priority, FIFO
  within a level); a job whose ``deadline_s`` elapses transitions to
  the terminal ``expired`` state, its open campaigns marked incomplete
  with partial-spec salvage via the supervisor's escalation path.
* **cache GC** -- the service-owned probe cache is size- and
  age-bounded: :meth:`gc_cache` drops whole shards LRU-by-fingerprint
  (running targets pinned) on a timer inside the fleet loop.
* **drain** -- :meth:`drain` stops admission, SIGINTs the workers so
  each persists a durable checkpoint, and leaves every open job
  adoptable: a drained-then-restarted service completes campaigns with
  bit-for-bit identical specs.

The split from :mod:`repro.service.httpd` is deliberate: everything
here is callable in-process (the tests drive it without sockets), and
everything HTTP is a thin translation layer that can never hold state
worth losing.
"""

from __future__ import annotations

import os
import pathlib
import signal
import threading
import time

from repro.discovery.cache import ProbeCache, cache_info
from repro.discovery.durable import PROGRESS_FILE
from repro.discovery.supervisor import DONE as CAMPAIGN_DONE
from repro.discovery.supervisor import CampaignPolicy, CampaignSupervisor
from repro.service import jobs as jobstates
from repro.service.auth import ANONYMOUS, ApiError, ClientRegistry
from repro.service.jobs import JobError, JobStore, schedule_order

#: environment variable carrying the fleet cache token to workers
FLEET_TOKEN_ENV = "REPRO_CACHE_TOKEN"


def _read_json(path):
    import json

    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError):
        return None


class DiscoveryService:
    """The control plane: a durable job queue fronting a worker fleet.

    ``fleet`` is the *global* concurrent-worker budget: jobs run
    side by side, each supervisor launching into whatever slots the
    higher-priority jobs left free this tick (strict priority, FIFO by
    job id within a level, so a big job cannot be starved by later
    arrivals at the same priority)."""

    def __init__(
        self,
        root,
        fleet=2,
        cache_dir=None,
        heartbeat_every=0.5,
        lease_timeout=10.0,
        poll_interval=0.2,
        clients_file=None,
        max_backlog=None,
        cache_max_bytes=None,
        cache_max_age_s=None,
        gc_interval=60.0,
        echo=print,
    ):
        self.root = pathlib.Path(root)
        self.fleet = max(1, fleet)
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else self.root / "cache"
        self.cache = ProbeCache(self.cache_dir)
        self.heartbeat_every = heartbeat_every
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.echo = echo
        self.jobs = JobStore(self.root)
        #: the advertised ``--cache-url``; the HTTP layer sets it once
        #: the listening socket is bound (workers need a real port)
        self.cache_url = None
        #: admission watermark: open targets beyond this are shed (503)
        self.max_backlog = max_backlog if max_backlog else self.fleet * 8
        #: cache retention bounds (None = unbounded) + GC cadence
        self.cache_max_bytes = cache_max_bytes
        self.cache_max_age_s = cache_max_age_s
        self.gc_interval = gc_interval
        #: tenant table; clients.json defaults to the service root and
        #: its absence means open mode (the PR-7 behaviour, unchanged)
        self.registry = ClientRegistry(
            clients_file if clients_file is not None else self.root / "clients.json"
        )
        #: process-local token the fleet's own workers use for /cache;
        #: handed to them via the environment, never argv
        self.fleet_token = self.registry.issue_fleet_token()
        self._supervisors = {}  # job id -> CampaignSupervisor
        self._priorities = {}  # job id -> priority, for slot hand-out
        self._fingerprint_memo = {}  # target -> fingerprint, for GC pins
        self._cache_writes = {}  # client name -> put count (quota)
        self.shed = {"overloaded": 0, "quota": 0, "unauthenticated": 0}
        self.draining = False
        self._adopted = False
        self._last_gc = time.monotonic()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread = None

    # -- identity & readiness ------------------------------------------

    def authenticate(self, authorization):
        """Header -> :class:`~repro.service.auth.Client`, counting the
        refusals for /stats."""
        try:
            return self.registry.authenticate(authorization)
        except ApiError:
            self.shed["unauthenticated"] += 1
            raise

    @property
    def ready(self):
        """Readiness: adopted its jobs and not draining.  Liveness is
        simply answering at all."""
        return self._adopted and not self.draining

    # -- job lifecycle -------------------------------------------------

    def submit(self, payload, client=ANONYMOUS):
        """Validate, admit, and enqueue one campaign submission (the
        body of ``POST /campaigns``); the fleet loop picks it up next
        tick.  Admission can refuse with a typed 429 (this client's
        quota) or 503 (service draining / backlog watermark) -- both
        carry a Retry-After hint."""
        from repro.machines.machine import target_names

        if not isinstance(payload, dict):
            raise JobError("submission body must be a JSON object")
        targets = payload.get("targets")
        knobs = {k: payload[k] for k in jobstates.SUBMIT_KNOBS if k in payload}
        bogus = sorted(set(payload) - set(jobstates.SUBMIT_KNOBS) - {"targets"})
        if bogus:
            raise JobError(
                f"unknown option(s): {', '.join(bogus)} "
                f"(allowed: targets, {', '.join(jobstates.SUBMIT_KNOBS)})"
            )
        with self._lock:
            self._admit(targets, client)
            job = self.jobs.submit(
                targets,
                known_targets=target_names(),
                client=None if client.token is None and client.admin else client.name,
                **knobs,
            )
        self.echo(
            f"[{job['id']}] queued (priority {job['priority']}): "
            f"{', '.join(job['targets'])}"
        )
        return job

    def _admit(self, targets, client):
        """The admission gate, under the service lock: drain check,
        backlog watermark, then this client's quotas.  Raises
        :class:`ApiError`; never mutates state."""
        if self.draining:
            raise ApiError(
                503, "draining", "service is draining; retry against the "
                "restarted instance", retry_after=10,
            )
        new = len(targets) if isinstance(targets, (list, tuple)) else 1
        open_jobs = self.jobs.open_jobs()
        backlog = sum(len(job["targets"]) for job in open_jobs)
        if backlog + new > self.max_backlog:
            self.shed["overloaded"] += 1
            # price the wait at roughly one backlog drain: the deeper
            # the queue, the longer the hint (bounded so clients poll)
            raise ApiError(
                503, "overloaded",
                f"backlog {backlog} + {new} would exceed the admission "
                f"watermark {self.max_backlog}",
                retry_after=max(5, min(300, backlog * 5)),
            )
        if client.max_queued_jobs is not None:
            mine = sum(1 for job in open_jobs if job.get("client") == client.name)
            if mine >= client.max_queued_jobs:
                self.shed["quota"] += 1
                raise ApiError(
                    429, "quota_exceeded",
                    f"client {client.name!r} already has {mine} open job(s) "
                    f"(max_queued_jobs={client.max_queued_jobs})",
                    retry_after=30,
                )
        if client.max_concurrent_targets is not None:
            mine = sum(
                len(job["targets"])
                for job in open_jobs
                if job.get("client") == client.name
            )
            if mine + new > client.max_concurrent_targets:
                self.shed["quota"] += 1
                raise ApiError(
                    429, "quota_exceeded",
                    f"client {client.name!r} would hold {mine + new} "
                    f"concurrent target(s) "
                    f"(max_concurrent_targets={client.max_concurrent_targets})",
                    retry_after=30,
                )

    def adopt(self):
        """Re-arm every non-terminal job after a restart.  Supervisors
        re-adopt half-finished run directories via ``--resume``; jobs
        that never launched simply queue again.  Jobs whose deadline
        lapsed while the service was down expire immediately instead of
        re-running."""
        adopted, expired = [], []
        with self._lock:
            for job in self.jobs.open_jobs():
                if jobstates.deadline_expired(job):
                    expired.append(self._expire(job))
                    continue
                self._ensure_supervisor(job)
                adopted.append(job["id"])
            self._adopted = True
        for job_id in adopted:
            self.echo(f"[{job_id}] adopted from a previous service run")
        return adopted

    def cancel(self, job_id, reason="client cancel", client=ANONYMOUS):
        """Tear a job down: SIGKILL its live workers, mark every open
        campaign cancelled, finalise the summary.  Run directories stay
        on disk (a cancelled campaign is adoptable by a future job only
        via operator surgery; the *job* is terminal)."""
        with self._lock:
            job = self.jobs.get(job_id)
            self._authorise(client, job)
            if job["state"] in jobstates.TERMINAL_STATES:
                raise JobError(f"{job_id} is already {job['state']}")
            supervisor = self._supervisors.pop(job_id, None)
            self._priorities.pop(job_id, None)
            detail = None
            if supervisor is not None:
                supervisor.cancel(reason=reason)
                detail = supervisor.finalise()
            job = self.jobs.update(
                job_id, state=jobstates.CANCELLED, detail=detail
            )
        self.echo(f"[{job_id}] cancelled ({reason})")
        return job

    @staticmethod
    def _authorise(client, job):
        if not client.may_act_on(job):
            raise ApiError(
                403, "forbidden",
                f"job {job['id']} belongs to client {job.get('client')!r}",
            )

    # -- the fleet loop ------------------------------------------------

    def step(self):
        """One control-plane tick: expire deadline-lapsed jobs, promote
        queued jobs, give every running job's supervisor a chance to
        reap/launch within the global budget (strict priority, FIFO
        within a level), retire finished jobs, and GC the cache on its
        timer.  Returns the number of worker processes running
        afterwards."""
        with self._lock:
            open_jobs = self.jobs.open_jobs()
            for job in open_jobs:
                if jobstates.deadline_expired(job):
                    self._expire(job)
            open_jobs = [
                job for job in open_jobs
                if not jobstates.deadline_expired(job)
            ]
            for job in schedule_order(open_jobs):
                if job["state"] == jobstates.QUEUED:
                    self._ensure_supervisor(job)
            running = 0
            for job_id in self._schedule_ids():
                supervisor = self._supervisors[job_id]
                before = len(supervisor._active())
                free = max(0, self.fleet - self._active_workers())
                after = supervisor.poll(slots=before + free)
                if not supervisor._open():
                    self._retire(job_id, supervisor)
                else:
                    running += after
            self._maybe_gc()
            return running

    def _schedule_ids(self):
        """Live supervisors in slot hand-out order: strict priority,
        FIFO by job id within a level (the jobs.schedule_order contract,
        applied to the in-memory table)."""
        return sorted(
            self._supervisors, key=lambda jid: (-self._priorities.get(jid, 0), jid)
        )

    def _expire(self, job):
        """Deadline lapsed: kill the job's workers, salvage partial
        specs via the supervisor's escalation path, move the job to the
        terminal ``expired`` state."""
        job_id = job["id"]
        supervisor = self._supervisors.pop(job_id, None)
        self._priorities.pop(job_id, None)
        detail = None
        if supervisor is not None:
            supervisor.expire(reason=f"deadline_s={job['deadline_s']} elapsed")
            detail = supervisor.finalise()
        updated = self.jobs.update(job_id, state=jobstates.EXPIRED, detail=detail)
        self.echo(f"[{job_id}] expired (deadline_s={job['deadline_s']})")
        return updated

    def run_loop(self):
        """The fleet loop, until :meth:`stop` (the thread target)."""
        while not self._stop.is_set():
            self.step()
            self._stop.wait(self.poll_interval)

    def start(self):
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run_loop, name="fleet-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, kill_workers=True):
        """Stop the fleet loop.  Active workers are SIGKILLed but their
        jobs' states are left *running* on disk: a restarted service
        adopts and completes them (this is the restart e2e contract)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if not kill_workers:
            return
        with self._lock:
            for supervisor in self._supervisors.values():
                for campaign in supervisor._active():
                    if campaign.process is None:
                        continue
                    try:
                        os.kill(campaign.process.pid, signal.SIGKILL)
                    except OSError:
                        pass
                    campaign.process.wait()
        self.cache.close()

    def drain(self, timeout=15.0):
        """Graceful shutdown: stop admitting (new submissions answer a
        typed 503), stop the fleet loop, SIGINT every worker so it
        persists a durable checkpoint, flush the cache.  Job states are
        deliberately left ``running``/``queued`` on disk -- a restarted
        service adopts them and finishes with bit-for-bit identical
        specs (the drain e2e contract)."""
        with self._lock:
            if self.draining:
                return 0
            self.draining = True
        self.echo("draining: admission closed")
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        interrupted = 0
        deadline = time.monotonic() + timeout
        with self._lock:
            for supervisor in self._supervisors.values():
                remaining = max(1.0, deadline - time.monotonic())
                interrupted += supervisor.interrupt_workers(timeout=remaining)
        self.cache.close()
        self.echo(
            f"drained: {interrupted} worker(s) checkpointed, "
            f"{len(self._supervisors)} job(s) left adoptable"
        )
        return interrupted

    # -- cache GC ------------------------------------------------------

    def _maybe_gc(self, force=False):
        """Run the cache's size/age GC when the timer says so and any
        bound is configured.  Shards belonging to currently-running
        targets are pinned: evicting a hot shard would only force the
        fleet to re-execute probes mid-campaign."""
        if self.cache_max_bytes is None and self.cache_max_age_s is None:
            return None
        now = time.monotonic()
        if not force and now - self._last_gc < self.gc_interval:
            return None
        self._last_gc = now
        report = self.cache.gc(
            max_bytes=self.cache_max_bytes,
            max_age_s=self.cache_max_age_s,
            pinned=self._pinned_fingerprints(),
        )
        if report["evicted_shards"]:
            self.echo(
                f"cache gc: evicted {len(report['evicted_shards'])} shard(s), "
                f"reclaimed {report['reclaimed_bytes']} byte(s)"
            )
        return report

    def _pinned_fingerprints(self):
        """Fingerprints of every running job's targets (never evict a
        shard a live worker is using)."""
        from repro.discovery.cache import target_fingerprint
        from repro.machines.machine import RemoteMachine

        pinned = set()
        for supervisor in self._supervisors.values():
            for campaign in supervisor.campaigns:
                target = campaign.target
                if target not in self._fingerprint_memo:
                    try:
                        self._fingerprint_memo[target] = target_fingerprint(
                            RemoteMachine(target)
                        )
                    except (ValueError, KeyError):
                        self._fingerprint_memo[target] = None
                if self._fingerprint_memo[target] is not None:
                    pinned.add(self._fingerprint_memo[target])
        return pinned

    # -- reads ---------------------------------------------------------

    def status(self, job_id, client=ANONYMOUS):
        """Typed job status: the job record plus one progress entry per
        campaign, derived from the live supervisor when this service is
        running the job and from the run directories' ``progress.json``
        sidecars either way -- so status works for adopted, finished
        and crashed jobs alike."""
        from repro.discovery.driver import ArchitectureDiscovery

        job = self.jobs.get(job_id)
        self._authorise(client, job)
        phases_total = len(ArchitectureDiscovery.PHASES)
        with self._lock:
            supervisor = self._supervisors.get(job_id)
            live = (
                {c.target: c for c in supervisor.campaigns} if supervisor else {}
            )
            campaigns = []
            for target in job["targets"]:
                home = self._job_root(job_id) / target
                progress = _read_json(home / "run" / PROGRESS_FILE) or {}
                campaign = live.get(target)
                if campaign is not None:
                    state = campaign.state
                    attempts = campaign.attempts
                else:
                    state, attempts = self._disk_state(job, home, target)
                spec = home / "out" / f"{target}.beg"
                campaigns.append(
                    {
                        "target": target,
                        "state": state,
                        "attempts": attempts,
                        "completed_phases": progress.get("completed", []),
                        "phases_total": phases_total,
                        "phase_records": progress.get("phase_records", {}),
                        "spec": str(spec) if spec.exists() else None,
                    }
                )
        out = dict(job)
        out["campaigns"] = campaigns
        return out

    def spec(self, job_id, client=ANONYMOUS):
        """The finished specs, ``{target: beg-text}``.  Only a ``done``
        job has them all; anything else is a client error the HTTP
        layer turns into a 409."""
        job = self.jobs.get(job_id)
        self._authorise(client, job)
        if job["state"] != jobstates.DONE:
            raise JobError(
                f"{job_id} is {job['state']}, not {jobstates.DONE}; "
                f"no specs to fetch"
            )
        specs = {}
        for target in job["targets"]:
            path = self._job_root(job_id) / target / "out" / f"{target}.beg"
            try:
                specs[target] = path.read_text()
            except OSError:
                raise JobError(f"{job_id}: spec artifact {path} is missing") from None
        return {"id": job_id, "specs": specs}

    def stats(self):
        """The ``/stats`` payload: queue composition, fleet load, and
        the shared cache seen both live (this process's entry count and
        counters) and from disk (the shard inventory ``repro
        cache-info`` prints)."""
        by_state = {}
        backlog = 0
        for job in self.jobs.list():
            by_state[job["state"]] = by_state.get(job["state"], 0) + 1
            if job["state"] in jobstates.OPEN_STATES:
                backlog += len(job["targets"])
        with self._lock:
            active = self._active_workers()
            supervised = self._schedule_ids()
            cache_writes = dict(sorted(self._cache_writes.items()))
        return {
            "jobs": by_state,
            "fleet": self.fleet,
            "active_workers": active,
            "running_jobs": supervised,
            "cache": self.cache.live_stats(),
            "cache_disk": cache_info(self.cache_dir),
            "admission": {
                "max_backlog": self.max_backlog,
                "backlog_targets": backlog,
                "draining": self.draining,
                "shed": dict(self.shed),
            },
            "clients": {
                "open_mode": self.registry.open_mode,
                "configured": [c.name for c in self.registry.clients()],
                "reload_errors": self.registry.reload_errors,
                "cache_writes": cache_writes,
            },
            "cache_gc": self.cache.gc_stats.as_dict(),
        }

    # -- the shared cache ----------------------------------------------

    def cache_get(self, fingerprint, key):
        verb, _, content_hash = key.partition(":")
        if not verb or not content_hash:
            raise JobError(f"cache key must be <verb>:<content-hash>, got {key!r}")
        return self.cache.get(fingerprint, verb, content_hash)

    def cache_put(self, fingerprint, key, payload, client=ANONYMOUS):
        verb, _, content_hash = key.partition(":")
        if not verb or not content_hash:
            raise JobError(f"cache key must be <verb>:<content-hash>, got {key!r}")
        if not isinstance(payload, dict):
            raise JobError("cache payload must be a JSON object")
        self._charge_cache_writes(client, 1)
        self.cache.put(fingerprint, verb, content_hash, payload)

    def cache_get_batch(self, fingerprint, keys=None):
        """Many entries in one round trip.  ``keys=None`` means the
        whole shard (a worker's warm-up prefetch); explicit keys are
        looked up one by one and *do* count hits/misses, while the
        whole-shard read deliberately does not -- a prefetch is not a
        probe answer, and the warm-campaign counters are pinned by
        tests."""
        if keys is None:
            return self.cache.shard_entries(fingerprint)
        if not isinstance(keys, (list, tuple)):
            raise JobError("cache batch keys must be a list or null")
        entries = {}
        for key in keys:
            verb, _, content_hash = str(key).partition(":")
            if not verb or not content_hash:
                raise JobError(
                    f"cache key must be <verb>:<content-hash>, got {key!r}"
                )
            payload = self.cache.get(fingerprint, verb, content_hash)
            if payload is not None:
                entries[str(key)] = payload
        return entries

    def cache_put_batch(self, fingerprint, entries, client=ANONYMOUS):
        """Store many entries in one round trip; returns the count."""
        if not isinstance(entries, dict):
            raise JobError("cache batch entries must be an object")
        parsed = []
        for key, payload in entries.items():
            verb, _, content_hash = str(key).partition(":")
            if not verb or not content_hash:
                raise JobError(
                    f"cache key must be <verb>:<content-hash>, got {key!r}"
                )
            if not isinstance(payload, dict):
                raise JobError(f"cache payload for {key!r} must be a JSON object")
            parsed.append((verb, content_hash, payload))
        self._charge_cache_writes(client, len(parsed))
        for verb, content_hash, payload in parsed:
            self.cache.put(fingerprint, verb, content_hash, payload)
        return len(parsed)

    def _charge_cache_writes(self, client, count):
        """Debit *count* writes against the client's quota (fleet and
        open-mode clients are unlimited)."""
        if client.max_cache_writes is None:
            return
        spent = self._cache_writes.get(client.name, 0)
        if spent + count > client.max_cache_writes:
            self.shed["quota"] += 1
            raise ApiError(
                429, "quota_exceeded",
                f"client {client.name!r} exhausted its cache-write quota "
                f"(max_cache_writes={client.max_cache_writes})",
                retry_after=60,
            )
        self._cache_writes[client.name] = spent + count

    # -- internals -----------------------------------------------------

    def _job_root(self, job_id):
        return self.root / "campaigns" / job_id

    def _active_workers(self):
        return sum(len(s._active()) for s in self._supervisors.values())

    def _ensure_supervisor(self, job):
        job_id = job["id"]
        if job_id in self._supervisors:
            return self._supervisors[job_id]
        policy = CampaignPolicy(
            max_attempts=job.get("max_attempts") or 5,
            escalate_votes=job.get("escalate_votes"),
            lease_timeout=self.lease_timeout,
            poll_interval=self.poll_interval,
        )
        supervisor = CampaignSupervisor(
            job["targets"],
            self._job_root(job_id),
            fleet=self.fleet,
            policy=policy,
            seed=job.get("seed", 1997),
            cache_url=self.cache_url,
            workers=job.get("workers"),
            heartbeat_every=self.heartbeat_every,
            worker_env={FLEET_TOKEN_ENV: self.fleet_token},
            echo=lambda msg, job_id=job_id: self.echo(f"[{job_id}] {msg}"),
        )
        self._supervisors[job_id] = supervisor
        self._priorities[job_id] = job.get("priority", 0)
        if job["state"] == jobstates.QUEUED:
            self.jobs.update(job_id, state=jobstates.RUNNING)
        return supervisor

    def _retire(self, job_id, supervisor):
        summary = supervisor.finalise()
        del self._supervisors[job_id]
        self._priorities.pop(job_id, None)
        state = jobstates.DONE if summary["ok"] else jobstates.FAILED
        self.jobs.update(job_id, state=state, detail=summary)
        self.echo(f"[{job_id}] {state}")

    def _disk_state(self, job, home, target):
        """A campaign's state when no live supervisor holds it: derived
        from the artifacts on disk, same precedence the supervisor's
        own terminal paths write them."""
        if (home / "out" / f"{target}.beg").exists():
            return CAMPAIGN_DONE, None
        failure = _read_json(home / "failure.json")
        if failure is not None:
            return failure.get("state", "quarantined"), failure.get("attempts")
        incomplete = _read_json(home / "incomplete.json")
        if incomplete is not None:
            return incomplete.get("state", "incomplete"), incomplete.get("attempts")
        if job["state"] in jobstates.TERMINAL_STATES:
            return job["state"], None
        return "pending", None
