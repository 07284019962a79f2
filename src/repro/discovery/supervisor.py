"""Campaign supervisor: fleets of discovery runs that survive their
workers.

The paper's promise is *automatic* retargeting; at production scale
that means running discovery against many targets unattended.  PR 5
made a single run crash-durable -- kill it anywhere, ``--resume`` lands
on a bit-for-bit identical spec.  This module adds the fleet layer on
top: a :class:`CampaignSupervisor` runs N campaigns concurrently as
child worker processes (one ``repro discover`` each) and keeps every
campaign alive end-to-end through three mechanisms:

* **Lease-based liveness.**  A worker heartbeats into its run
  directory: an fsynced ``worker.lease`` file whose monotonic
  generation counter proves forward progress (a lease is *runtime*
  state -- it lives outside the checkpoint glob and never touches
  spec-affecting bytes).  The supervisor watches generations, not
  process handles, so a worker that is alive-but-wedged (hung probe,
  deadlocked pool) is detected exactly like a dead one: miss the lease
  window, get confirmed via the process table, get SIGKILLed, and the
  campaign is re-adopted on a fresh worker.
* **Crash adoption.**  Re-adoption is nothing more than the existing
  ``--resume`` path -- the portable checkpoint codec
  (:mod:`repro.discovery.portable`) is what makes the dead worker's
  run directory readable by *any* fresh worker on *any* build.  An
  adopted campaign's spec is bit-for-bit identical to an uninterrupted
  one; the chaos sweep test pins this under repeated seeded SIGKILLs.
* **Retry-first with escalation.**  A transient failure earns a
  backoff retry of the same configuration.  Repeated failure earns
  *escalation*: the relaunch drops to one worker connection, bypasses
  the probe cache, and (optionally) raises resilience votes -- all
  venue knobs, chosen because the determinism contract guarantees they
  cannot change the discovered spec.  A terminal failure, or retry
  exhaustion, quarantines the campaign with a typed ``failure.json``.
  A blown deadline emits whatever partial spec the newest checkpoint
  holds plus a structured ``incomplete.json`` -- a campaign never ends
  with *nothing*.

Layout under the campaign root::

    ROOT/
      summary.json            # final per-campaign outcomes
      <target>/
        run/                  # the worker's durable run directory
          run.json, ckpt-*.bin, worker.lease
        out/                  # spec artifacts (<target>.beg is identity)
        logs/attempt-01.{out,err}
        failure.json          # only when quarantined
        incomplete.json       # only when the deadline expired
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

from repro.discovery.durable import DurableRun, atomic_write
from repro.discovery.resilience import backoff_delay
from repro.errors import DiscoveryError

LEASE_FILE = "worker.lease"

#: campaign terminal/running states
PENDING = "pending"
RUNNING = "running"
WAITING = "waiting"  # backoff before the next attempt
DONE = "done"
QUARANTINED = "quarantined"
INCOMPLETE = "incomplete"
CANCELLED = "cancelled"

#: states a campaign can still move out of
OPEN_STATES = (PENDING, WAITING, RUNNING)

#: failure classifications for the typed failure record
CRASH = "crash"  # unclean death (signal): adoptable
ERROR = "error"  # nonzero exit: retryable
TERMINAL = "terminal"  # usage/config error: retry cannot help
STALLED = "stalled"  # missed lease window; supervisor killed it

#: longest wait, in seconds, between a campaign's failed attempts
BACKOFF_CAP = 30.0


# -- leases -------------------------------------------------------------


class LeaseWriter:
    """The worker half of liveness: heartbeat a monotonic generation
    counter into the run directory.

    The lease is deliberately boring -- generation, pid, worker id --
    and deliberately *outside* the checkpoint: ``worker.lease`` does
    not match the ``ckpt-*.bin`` generation glob, is never read by the
    loader, and carries nothing spec-affecting, so heartbeats cannot
    perturb checkpoint checksums or the discovered spec (the lease-
    hygiene test runs with and without heartbeats and asserts identical
    bytes both places)."""

    def __init__(self, directory, interval, worker_id=None):
        self.directory = pathlib.Path(directory)
        self.interval = interval
        self.worker_id = worker_id or f"pid-{os.getpid()}"
        self.generation = 0
        self._stop = threading.Event()
        self._thread = None

    def beat(self):
        self.generation += 1
        payload = {
            "generation": self.generation,
            "pid": os.getpid(),
            "worker": self.worker_id,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write(self.directory / LEASE_FILE, json.dumps(payload, sort_keys=True) + "\n")

    def start(self):
        """First beat synchronously (the supervisor sees a lease as soon
        as the worker is up), then heartbeat from a daemon thread."""
        self.beat()
        self._thread = threading.Thread(
            target=self._loop, name="lease-writer", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self):
        while not self._stop.wait(self.interval):
            try:
                self.beat()
            except OSError:
                pass  # a missed beat is exactly what leases tolerate

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None


def read_lease(directory):
    """The current lease in a run directory, or None.  Torn or missing
    files read as no-lease (atomic writes make torn rare; the
    supervisor treats no-lease as a missed beat either way)."""
    try:
        return json.loads((pathlib.Path(directory) / LEASE_FILE).read_text())
    except (OSError, ValueError):
        return None


# -- policy and per-campaign bookkeeping --------------------------------


class CampaignPolicy:
    """The supervisor's knobs: how patient, and how suspicious."""

    def __init__(
        self,
        max_attempts=5,
        backoff_base=0.5,
        escalate_after=2,
        escalate_votes=None,
        lease_timeout=10.0,
        deadline=None,
        poll_interval=0.2,
    ):
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.escalate_after = escalate_after
        self.escalate_votes = escalate_votes
        self.lease_timeout = lease_timeout
        self.deadline = deadline
        self.poll_interval = poll_interval

    def backoff(self, failures):
        """Exponential, capped at :data:`BACKOFF_CAP`; failures start at 1."""
        return backoff_delay(failures - 1, self.backoff_base, BACKOFF_CAP)


class Campaign:
    """One target's discovery run, across however many workers it takes."""

    def __init__(self, target, home):
        self.target = target
        self.home = pathlib.Path(home)
        self.run_dir = self.home / "run"
        self.out_dir = self.home / "out"
        self.log_dir = self.home / "logs"
        self.state = PENDING
        self.attempts = 0
        self.failures = []  # typed records, one per failed attempt
        self.process = None
        self.not_before = 0.0  # monotonic: backoff gate for relaunch
        self.lease_generation = None
        self.lease_seen = 0.0  # monotonic: when the generation last moved
        self.spec_path = None

    @property
    def escalated(self):
        return len(self.failures)

    def spec_artifact(self):
        return self.out_dir / f"{self.target}.beg"

    def summary(self):
        return {
            "target": self.target,
            "state": self.state,
            "attempts": self.attempts,
            "failures": self.failures,
            "spec": str(self.spec_path) if self.spec_path else None,
        }


# -- the supervisor -----------------------------------------------------


class CampaignSupervisor:
    """Run N discovery campaigns as child workers; keep them alive.

    ``kill_plan`` (a :class:`~repro.machines.crashes.FleetKillPlan`) is
    the chaos harness's hook: it injects ``--crash-at SPEC
    --crash-kill`` into scheduled attempts so workers SIGKILL
    themselves at seeded phase/mid-phase points, which is how the sweep
    test proves adoption yields bit-for-bit identical specs."""

    def __init__(
        self,
        targets,
        root,
        fleet=2,
        policy=None,
        seed=1997,
        cache_dir=None,
        cache_url=None,
        workers=None,
        heartbeat_every=None,
        kill_plan=None,
        worker_args=(),
        worker_env=None,
        echo=print,
    ):
        if not targets:
            raise DiscoveryError("campaign needs at least one target")
        self.root = pathlib.Path(root)
        self.fleet = max(1, fleet)
        self.policy = policy or CampaignPolicy()
        self.seed = seed
        self.cache_dir = cache_dir
        self.cache_url = cache_url
        self.workers = workers
        self.heartbeat_every = heartbeat_every
        self.kill_plan = kill_plan
        #: extra argv appended to *fresh* worker launches only (resumed
        #: workers take their configuration from the run manifest)
        self.worker_args = list(worker_args)
        #: extra environment for every worker launch (the service uses
        #: this to hand its fleet cache token over -- env, never argv,
        #: so `ps` cannot leak it)
        self.worker_env = dict(worker_env or {})
        self.echo = echo
        self.campaigns = [Campaign(t, self.root / t) for t in targets]
        self.started = None  # monotonic, set by run()

    # -- worker command lines -------------------------------------------

    def _worker_argv(self, campaign):
        """The argv for this campaign's next attempt.  A run directory
        that already holds a manifest is *adopted* via --resume -- the
        same path whether we launched the dead worker or found the
        directory orphaned; a virgin directory gets a fresh run."""
        adopt = (campaign.run_dir / "run.json").exists()
        argv = [sys.executable, "-m", "repro", "discover"]
        if adopt:
            argv += ["--resume", str(campaign.run_dir)]
        else:
            argv += [
                campaign.target,
                "--run-dir", str(campaign.run_dir),
                "--seed", str(self.seed),
            ]
            if self.cache_dir:
                argv += ["--cache-dir", str(self.cache_dir)]
            if self.cache_url:
                argv += ["--cache-url", str(self.cache_url)]
            argv += self.worker_args
        argv += ["--out", str(campaign.out_dir)]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        if self.heartbeat_every:
            argv += ["--heartbeat-every", str(self.heartbeat_every)]
        if campaign.escalated >= self.policy.escalate_after:
            # Escalation touches venue knobs only: the determinism
            # contract (spec identical for any worker count, with or
            # without cache, at any vote count) is what makes this safe.
            argv += ["--workers", "1", "--no-cache"]
            if self.policy.escalate_votes is not None:
                argv += ["--votes", str(self.policy.escalate_votes)]
        if self.kill_plan is not None:
            spec = self.kill_plan.spec_for(campaign.target, campaign.attempts)
            if spec is not None:
                argv += ["--crash-at", spec, "--crash-kill"]
        return argv

    def _worker_env(self):
        env = dict(os.environ)
        package_parent = str(pathlib.Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_parent + os.pathsep + existing if existing else package_parent
        )
        env.update(self.worker_env)
        return env

    # -- lifecycle -------------------------------------------------------

    def _reap_orphan(self, campaign):
        """Kill a worker left over from a dead supervisor.

        A service restart adopts run directories whose previous
        supervisor died -- but that supervisor's *workers* are separate
        processes and may still be alive, heartbeating into the run
        directory.  Two writers on one run directory is the only thing
        the lease protocol cannot survive, so before adopting we kill
        the pid the lease names.  The kill is gated on the process
        table naming our run directory in the candidate's command line
        (where the platform exposes it), so a recycled pid is never
        shot by mistake."""
        lease = read_lease(campaign.run_dir)
        pid = lease.get("pid") if lease else None
        if not isinstance(pid, int) or pid == os.getpid():
            return
        try:
            os.kill(pid, 0)
        except OSError:
            return  # no such process: the lease is just stale
        try:
            cmdline = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
            if str(campaign.run_dir).encode() not in cmdline:
                return  # a recycled pid belonging to someone else
        except OSError:
            pass  # no /proc: fall through on the lease's word alone
        self.echo(
            f"[{campaign.target}] reaping orphan worker pid {pid} "
            f"before adoption"
        )
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass

    def _launch(self, campaign):
        if campaign.attempts == 0 and (campaign.run_dir / "run.json").exists():
            # First launch by *this* supervisor onto a pre-existing run
            # directory: an orphaned worker may still hold it.
            self._reap_orphan(campaign)
        campaign.attempts += 1
        for directory in (campaign.out_dir, campaign.log_dir):
            directory.mkdir(parents=True, exist_ok=True)
        argv = self._worker_argv(campaign)
        stdout = campaign.log_dir / f"attempt-{campaign.attempts:02d}.out"
        stderr = campaign.log_dir / f"attempt-{campaign.attempts:02d}.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            campaign.process = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self._worker_env()
            )
        campaign.state = RUNNING
        campaign.lease_generation = None
        campaign.lease_seen = time.monotonic()
        verb = "adopting" if "--resume" in argv else "starting"
        self.echo(
            f"[{campaign.target}] {verb} attempt {campaign.attempts} "
            f"(pid {campaign.process.pid})"
        )

    def _stderr_tail(self, campaign, lines=5):
        path = campaign.log_dir / f"attempt-{campaign.attempts:02d}.err"
        try:
            return path.read_text(errors="replace").splitlines()[-lines:]
        except OSError:
            return []

    def _classify(self, returncode):
        if returncode < 0:
            return CRASH
        if returncode == 2:
            return TERMINAL  # argparse/usage: no retry will fix it
        return ERROR

    def _record_failure(self, campaign, classification, returncode=None):
        campaign.failures.append(
            {
                "attempt": campaign.attempts,
                "classification": classification,
                "returncode": returncode,
                "stderr_tail": self._stderr_tail(campaign),
            }
        )

    def _handle_exit(self, campaign, returncode):
        campaign.process = None
        if returncode == 0:
            artifact = campaign.spec_artifact()
            if artifact.exists():
                campaign.state = DONE
                campaign.spec_path = artifact
                self.echo(f"[{campaign.target}] done: {artifact}")
                return
            # A zero exit with no spec artifact is a worker bug, not a
            # target problem; treat as an error so it retries visibly.
            self._record_failure(campaign, ERROR, returncode=0)
        else:
            classification = self._classify(returncode)
            self._record_failure(campaign, classification, returncode=returncode)
            if classification == TERMINAL:
                self._quarantine(campaign)
                return
        if len(campaign.failures) >= self.policy.max_attempts:
            self._quarantine(campaign)
            return
        delay = self.policy.backoff(len(campaign.failures))
        campaign.state = WAITING
        campaign.not_before = time.monotonic() + delay
        last = campaign.failures[-1]
        self.echo(
            f"[{campaign.target}] attempt {campaign.attempts} failed "
            f"({last['classification']}, rc={last['returncode']}); "
            f"retrying in {delay:.1f}s"
        )

    def _check_lease(self, campaign):
        """Missed-lease detection: the generation counter must advance
        within the lease window.  Stale + process still alive means
        wedged -- confirm via the process table, SIGKILL, re-adopt."""
        if not self.heartbeat_every:
            return
        lease = read_lease(campaign.run_dir)
        generation = lease.get("generation") if lease else None
        now = time.monotonic()
        if generation != campaign.lease_generation:
            campaign.lease_generation = generation
            campaign.lease_seen = now
            return
        if now - campaign.lease_seen <= self.policy.lease_timeout:
            return
        process = campaign.process
        if process.poll() is not None:
            return  # already exited; the poll loop will classify it
        self.echo(
            f"[{campaign.target}] lease stale "
            f"(generation {generation} for {now - campaign.lease_seen:.1f}s); "
            f"killing pid {process.pid}"
        )
        try:
            os.kill(process.pid, signal.SIGKILL)
        except OSError:
            pass
        process.wait()
        campaign.process = None
        self._record_failure(campaign, STALLED, returncode=process.returncode)
        if len(campaign.failures) >= self.policy.max_attempts:
            self._quarantine(campaign)
            return
        campaign.state = WAITING
        campaign.not_before = time.monotonic() + self.policy.backoff(
            len(campaign.failures)
        )

    # -- terminal outcomes ----------------------------------------------

    def _quarantine(self, campaign):
        campaign.state = QUARANTINED
        record = {
            "target": campaign.target,
            "state": QUARANTINED,
            "attempts": campaign.attempts,
            "failures": campaign.failures,
        }
        campaign.home.mkdir(parents=True, exist_ok=True)
        atomic_write(
            campaign.home / "failure.json",
            json.dumps(record, indent=2, sort_keys=True) + "\n",
        )
        self.echo(
            f"[{campaign.target}] quarantined after "
            f"{campaign.attempts} attempt(s); see {campaign.home / 'failure.json'}"
        )

    def _mark_incomplete(self, campaign, reason):
        """Deadline/budget exhaustion: never end with nothing.  Emit
        whatever partial spec the newest checkpoint holds, plus a
        structured record of how far the campaign got."""
        if campaign.process is not None:
            try:
                os.kill(campaign.process.pid, signal.SIGKILL)
            except OSError:
                pass
            campaign.process.wait()
            campaign.process = None
        campaign.state = INCOMPLETE
        completed, partial_spec = [], None
        try:
            run = DurableRun.open(str(campaign.run_dir))
            checkpoint, _ = run.load_checkpoint()
            if checkpoint is not None:
                completed = list(checkpoint.completed)
                if checkpoint.report.spec is not None:
                    partial_spec = campaign.out_dir / f"{campaign.target}.partial.beg"
                    campaign.out_dir.mkdir(parents=True, exist_ok=True)
                    atomic_write(partial_spec, checkpoint.report.spec.render_beg())
        except DiscoveryError:
            pass
        record = {
            "target": campaign.target,
            "state": INCOMPLETE,
            "reason": reason,
            "attempts": campaign.attempts,
            "completed_phases": completed,
            "partial_spec": str(partial_spec) if partial_spec else None,
            "resume": f"repro discover --resume {campaign.run_dir}",
            "failures": campaign.failures,
        }
        campaign.home.mkdir(parents=True, exist_ok=True)
        atomic_write(
            campaign.home / "incomplete.json",
            json.dumps(record, indent=2, sort_keys=True) + "\n",
        )
        self.echo(
            f"[{campaign.target}] incomplete ({reason}): "
            f"{len(completed)} phase(s) durable, resume with "
            f"`repro discover --resume {campaign.run_dir}`"
        )

    # -- the loop --------------------------------------------------------

    def _active(self):
        return [c for c in self.campaigns if c.state == RUNNING]

    def _runnable(self):
        now = time.monotonic()
        return [
            c
            for c in self.campaigns
            if c.state == PENDING
            or (c.state == WAITING and c.not_before <= now)
        ]

    def _open(self):
        return [c for c in self.campaigns if c.state in OPEN_STATES]

    def poll(self, slots=None):
        """One supervision step, safe to interleave with other
        supervisors (the service drives many of these off one fleet
        budget): reap exited workers, check leases on the live ones,
        then launch runnable campaigns while fewer than *slots* (default
        this supervisor's own fleet cap) are running.  Returns the
        number of campaigns running afterwards."""
        if self.started is None:
            self.started = time.monotonic()
            self.root.mkdir(parents=True, exist_ok=True)
        for campaign in self._active():
            returncode = campaign.process.poll()
            if returncode is not None:
                self._handle_exit(campaign, returncode)
            else:
                self._check_lease(campaign)
        capacity = self.fleet if slots is None else slots
        for campaign in self._runnable():
            if len(self._active()) >= capacity:
                break
            self._launch(campaign)
        return len(self._active())

    def expire(self, reason="deadline exhausted"):
        """Deadline/budget exhaustion: kill the active workers and mark
        every open campaign incomplete (with partial spec)."""
        for campaign in self._open():
            self._mark_incomplete(campaign, reason)

    def interrupt_workers(self, timeout=10.0):
        """Graceful worker stop, for service drain: SIGINT every active
        worker (the discover CLI persists a checkpoint and exits on
        KeyboardInterrupt), wait up to *timeout* for the fleet to land,
        SIGKILL stragglers.  Campaign and job states are deliberately
        left *running* -- the run directories are one ``--resume`` from
        continuing, which is exactly what restart adoption does."""
        interrupted = []
        for campaign in self._active():
            if campaign.process is None:
                continue
            try:
                os.kill(campaign.process.pid, signal.SIGINT)
            except OSError:
                continue
            interrupted.append(campaign)
        deadline = time.monotonic() + timeout
        for campaign in interrupted:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                campaign.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                try:
                    os.kill(campaign.process.pid, signal.SIGKILL)
                except OSError:
                    pass
                campaign.process.wait()
            campaign.process = None
        return len(interrupted)

    def cancel(self, reason="cancelled"):
        """Client-requested teardown: SIGKILL active workers, mark every
        open campaign cancelled.  Run directories stay adoptable -- a
        cancelled campaign is one ``--resume`` from continuing."""
        for campaign in self._open():
            if campaign.process is not None:
                try:
                    os.kill(campaign.process.pid, signal.SIGKILL)
                except OSError:
                    pass
                campaign.process.wait()
                campaign.process = None
            campaign.state = CANCELLED
            self.echo(f"[{campaign.target}] cancelled ({reason})")

    def finalise(self):
        """The per-campaign outcome summary, durably written to
        ROOT/summary.json."""
        summary = {
            "campaigns": [c.summary() for c in self.campaigns],
            "ok": all(c.state == DONE for c in self.campaigns),
        }
        atomic_write(
            self.root / "summary.json",
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
        )
        return summary

    def run(self):
        """Supervise until every campaign reaches a terminal state.
        Returns the summary dict (also written to ROOT/summary.json)."""
        self.started = time.monotonic()
        self.root.mkdir(parents=True, exist_ok=True)
        while self._open():
            if (
                self.policy.deadline is not None
                and time.monotonic() - self.started > self.policy.deadline
            ):
                self.expire()
                break
            self.poll()
            if self._open():
                time.sleep(self.policy.poll_interval)
        return self.finalise()
