"""Command-line interface.

    python -m repro discover <target> [--out DIR] [--seed N]
                             [--flaky RATE] [--fault-seed N] [--max-retries N]
                             [--workers N] [--extract-procs N]
                             [--cache-dir PATH] [--no-cache]
                             [--latency SECONDS]
                             [--run-dir DIR] [--checkpoint-every N]
    python -m repro discover --resume RUNDIR [--workers N] [--extract-procs N]
    python -m repro campaign <target>... --root DIR [--fleet N]
                             [--max-attempts N] [--deadline SECONDS]
                             [--heartbeat-every S] [--lease-timeout S]
                             [--chaos-kills N --chaos-seed N]
    python -m repro serve --root DIR [--host H --port P] [--fleet N]
                          [--clients FILE] [--max-backlog N]
                          [--cache-max-bytes B --cache-max-age S]
                          [--gc-interval S] [--drain-timeout S]
    python -m repro client --url URL [--token T] submit <target>...
                          [--priority N] [--deadline-s S] [--wait]
    python -m repro client --url URL status|wait|spec|cancel JOB_ID
    python -m repro client --url URL stats|jobs|readyz
    python -m repro cache-info DIR [--json]
    python -m repro retarget <target>... --program FILE.a
    python -m repro run <target> --program FILE.a
    python -m repro lint [<target>...] [--source PATH] [--format text|json|sarif]
                         [--fail-on error|warning|never] [--out FILE]
                         [--jobs N] [--model]
    python -m repro verify-spec [<target>...] [--format text|json|sarif]
                         [--fail-on error|warning|never] [--out FILE]
                         [--seed N] [--jobs N]
    python -m repro verify-spec --diff RUN_A RUN_B [--format ...] [--fail-on ...]
    python -m repro targets [--json]

Mirrors the paper's user story: the only inputs are the target machine
("its internet address") and the toolchain command lines -- here, the
name of one of the five simulated machines.  ``--flaky`` simulates an
unreliable network/toolchain (the deployment reality the resilience
layer exists for): a seeded fraction of remote interactions drop, crash,
time out, or return corrupted output.  ``--workers`` fans the
per-sample probes over that many concurrent target connections (the
result is identical for any worker count); ``--extract-procs`` fans the
CPU-bound graph-matching and reverse-interpretation phases over that
many worker *processes* (again bit-for-bit identical for any count);
``--cache-dir`` memoises every probe in a persistent content-addressed
cache so a repeat run touches the target zero times; ``--latency``
simulates the per-verb round-trip cost that makes all of those worth
having.

``--run-dir`` makes the run crash-durable: every completed phase (and,
inside the fan-out phases, every ``--checkpoint-every`` completed
samples) commits an atomic checkpoint generation to the directory, and
``--resume RUNDIR`` restarts a killed run from the newest valid one --
producing a spec bit-for-bit identical to an uninterrupted run.
``--crash-at``/``--crash-kill`` are the crash-injection harness the
durability tests drive (see :mod:`repro.machines.crashes`).

``campaign`` runs discovery against many targets at once under the
supervisor (see :mod:`repro.discovery.supervisor`): each target gets a
child worker, workers heartbeat leases into their run directories, and
a dead or wedged worker's campaign is adopted by a fresh one via the
portable checkpoints -- retry with backoff first, then escalate venue
knobs, then quarantine with a typed failure record.

``lint`` statically verifies discovered machine descriptions;
``verify-spec`` goes further and *proves* them: every emission rule,
data-movement template and branch rule is checked against the target's
own instruction semantics by translation validation (symbolic where the
domain allows, a deterministic concrete battery otherwise), and every
refutation carries a concrete counterexample.  ``verify-spec --diff``
compares two run directories' specs for semantic drift.  Both verbs
fan out across targets with ``--jobs`` (deterministic, target-ordered
output for any job count).

``serve`` runs discovery as a service: a stdlib HTTP/1.1 control plane
fronting a persistent job queue, a worker fleet (one supervisor per
job off one global budget) and a shared probe cache any worker --
local or a remote ``discover --cache-url`` -- reads and writes over
HTTP.  ``client`` is its CLI: submit campaigns, poll typed progress,
fetch finished specs, cancel.  ``--workers auto`` (discover, campaign,
client submit) sizes each worker's scheduler from measured per-verb
round-trip latency -- a venue knob, so the spec cannot change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from repro.machines.machine import RemoteMachine, target_names


def _cmd_targets(args):
    if getattr(args, "json", False):
        from repro.discovery.cache import target_fingerprint

        listing = []
        for name in target_names():
            machine = RemoteMachine(name)
            toolchain = machine.toolchain
            listing.append(
                {
                    "name": name,
                    "host": toolchain.host,
                    "cc": toolchain.cc,
                    "asm": toolchain.asm,
                    "ld": toolchain.ld,
                    "fuel": machine.fuel,
                    "fingerprint": target_fingerprint(machine),
                }
            )
        print(json.dumps({"targets": listing}, indent=2, sort_keys=True))
        return 0
    for name in target_names():
        machine = RemoteMachine(name)
        print(f"{name:8s} host={machine.toolchain.host} cc='{machine.toolchain.cc}'")
    return 0


def _build_machine(args):
    """The target machine, optionally behind a fault injector."""
    machine = RemoteMachine(args.target, latency=getattr(args, "latency", 0.0))
    if getattr(args, "flaky", 0.0):
        from repro.machines.faults import FaultyMachine

        machine = FaultyMachine(machine, rate=args.flaky, seed=args.fault_seed)
    return machine


def _resilience_config(args):
    from repro.discovery.resilience import ResilienceConfig

    flaky = getattr(args, "flaky", 0.0)
    if getattr(args, "votes", None):
        votes = args.votes
    else:
        # Voting costs executions; only pay for it when the target is
        # declared flaky (at votes=1 the fast path adds zero overhead).
        votes = 3 if flaky else 1
    return ResilienceConfig(max_retries=args.max_retries, votes=votes)


def _crash_plan(args):
    if not getattr(args, "crash_at", None):
        return None
    from repro.machines.crashes import CrashPlan

    return CrashPlan.parse(args.crash_at, kill=args.crash_kill)


def _discover_cache(args, manifest):
    """The probe cache for a discover run: a service URL beats a local
    directory (CLI flag beats manifest either way), --no-cache beats
    everything."""
    if args.no_cache:
        return None
    url = args.cache_url or manifest.get("cache_url")
    if url:
        from repro.service.app import FLEET_TOKEN_ENV
        from repro.service.cache_client import RemoteProbeCache

        # the service's own fleet hands its workers a token via the
        # environment (never argv); operators can set it the same way
        return RemoteProbeCache(url, token=os.environ.get(FLEET_TOKEN_ENV))
    return args.cache_dir or manifest.get("cache_dir")


def _cmd_discover(args):
    from repro.discovery.driver import (
        CHECKPOINT_EVERY,
        ArchitectureDiscovery,
        DiscoveryInterrupted,
    )

    resume_checkpoint, manifest = None, {}
    if args.resume:
        # Everything that shapes the discovered spec -- target, fault
        # plan, seed, resilience knobs, checkpoint cadence -- comes from
        # the run directory's manifest, so the resumed run is the same
        # run.  Only venue knobs (workers, extract procs) may differ.
        from repro.discovery.durable import DurableRun, machine_from_config

        run_dir = DurableRun.open(args.resume)
        manifest = run_dir.config
        machine, resilience = machine_from_config(manifest)
        if getattr(args, "votes", None):
            # The supervisor's escalation ladder raises votes on a
            # struggling campaign; votes are a venue knob (majority
            # voting changes cost, never the deterministic answer).
            resilience.votes = args.votes
        seed = manifest.get("seed", args.seed)
        checkpoint_every = manifest.get("checkpoint_every")
        workers = args.workers
        if workers is None and manifest.get("adaptive_workers"):
            # The original run sized itself; the resumed run re-derives
            # the same width from the manifest-recorded measurements.
            workers = "auto"
        resume_checkpoint, warnings = run_dir.load_checkpoint()
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if resume_checkpoint is None:
            print(
                f"no loadable checkpoint in {args.resume}; starting from scratch",
                file=sys.stderr,
            )
    elif args.target is None:
        print("discover: a target (or --resume RUNDIR) is required", file=sys.stderr)
        return 2
    else:
        machine, resilience = _build_machine(args), _resilience_config(args)
        run_dir, seed, workers = args.run_dir, args.seed, args.workers
        checkpoint_every = args.checkpoint_every
    discovery = ArchitectureDiscovery(
        machine,
        seed=seed,
        resilience=resilience,
        workers=workers,
        cache=_discover_cache(args, manifest),
        extract_procs=args.extract_procs,
        run_dir=run_dir,
        crash_plan=_crash_plan(args),
        checkpoint_every=CHECKPOINT_EVERY if checkpoint_every is None else checkpoint_every,
        verify=args.verify,
    )
    lease = None
    lease_dir = args.resume or args.run_dir
    if getattr(args, "heartbeat_every", None) and lease_dir:
        from repro.discovery.supervisor import LeaseWriter

        lease = LeaseWriter(lease_dir, args.heartbeat_every).start()
    try:
        report = discovery.run(resume=resume_checkpoint)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        if discovery.interrupt_run_dir is not None:
            print(
                f"checkpoint saved; resume with: "
                f"repro discover --resume {discovery.interrupt_run_dir}",
                file=sys.stderr,
            )
        return 130
    except DiscoveryInterrupted as exc:
        print(f"discovery interrupted during '{exc.phase}': {exc.cause}", file=sys.stderr)
        print(
            f"completed phases: {', '.join(exc.checkpoint.completed) or '(none)'}",
            file=sys.stderr,
        )
        if exc.checkpoint_path is not None:
            print(
                f"checkpoint saved; resume with: "
                f"repro discover --resume {exc.checkpoint_path}",
                file=sys.stderr,
            )
        if getattr(args, "max_retries", None) == 0:
            print("hint: retries are disabled (--max-retries 0)", file=sys.stderr)
        return 1
    finally:
        if lease is not None:
            lease.stop()
    print(report.render_summary())
    if args.out:
        from repro.reporting import write_report

        for path in write_report(report, args.out):
            print(f"wrote {path}")
    else:
        print()
        print(report.spec.render_beg())
    return 0


def _cmd_campaign(args):
    from repro.discovery.supervisor import CampaignPolicy, CampaignSupervisor

    policy = CampaignPolicy(
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        escalate_after=args.escalate_after,
        escalate_votes=args.escalate_votes,
        lease_timeout=args.lease_timeout,
        deadline=args.deadline,
    )
    kill_plan = None
    if args.chaos_kills:
        from repro.discovery.driver import ArchitectureDiscovery
        from repro.machines.crashes import FleetKillPlan

        phases = [name for name, _ in ArchitectureDiscovery.PHASES]
        kill_plan = FleetKillPlan.seeded(
            args.chaos_seed, args.targets, phases,
            sample_phases=ArchitectureDiscovery.FAN_OUT_PHASES,
            kills_per_campaign=args.chaos_kills,
        )
        print("chaos kill schedule:")
        print(kill_plan.describe())
    supervisor = CampaignSupervisor(
        args.targets,
        args.root,
        fleet=args.fleet,
        policy=policy,
        seed=args.seed,
        cache_dir=args.cache_dir,
        cache_url=args.cache_url,
        workers=args.workers,
        heartbeat_every=args.heartbeat_every,
        kill_plan=kill_plan,
    )
    summary = supervisor.run()
    print()
    for entry in summary["campaigns"]:
        spec = entry["spec"] or "-"
        print(
            f"{entry['target']:8s} {entry['state']:12s} "
            f"attempts={entry['attempts']} {spec}"
        )
    return 0 if summary["ok"] else 1


def _read_program(args):
    if args.program == "-":
        return sys.stdin.read()
    with open(args.program) as handle:
        return handle.read()


def _cmd_retarget(args):
    from repro.toyc import SelfRetargetingCompiler

    source = _read_program(args)
    ac = SelfRetargetingCompiler(seed=args.seed)
    status = 0
    for target in args.targets:
        print(f"=== ac -retarget -ARCH {target} ===")
        ac.retarget(RemoteMachine(target))
        ok, output, expected = ac.check(source, target)
        print(output, end="")
        if not ok:
            print(f"!! output mismatch; reference interpreter says {expected!r}")
            status = 1
    return status


def _cmd_run(args):
    from repro.toyc import SelfRetargetingCompiler

    source = _read_program(args)
    ac = SelfRetargetingCompiler(seed=args.seed)
    ac.retarget(RemoteMachine(args.target))
    if args.emit_asm:
        print(ac.compile(source, args.target))
        return 0
    result = ac.run(source, args.target)
    print(result.output, end="")
    return 0 if result.ok else 1


def _check_targets(targets):
    unknown = [t for t in targets if t not in target_names()]
    if unknown:
        print(
            f"unknown target(s): {', '.join(unknown)} "
            f"(choose from {', '.join(target_names())})",
            file=sys.stderr,
        )
        return False
    return True


def _discover_spec(target, seed):
    from repro.discovery.driver import ArchitectureDiscovery

    return ArchitectureDiscovery(RemoteMachine(target), seed=seed).run()


def _lint_worker(task):
    """Per-target lint job (module-level so a process pool can pickle it)."""
    target, seed, use_model = task
    report = _discover_spec(target, seed)
    if use_model:
        from repro.analysis import lint_spec
        from repro.machines.machine import build_model

        return lint_spec(report.spec, model=build_model(target))
    return report.diagnostics


def _verify_worker(task):
    """Per-target verify job: discover, then translation-validate."""
    target, seed = task
    from repro.analysis.verify import verify_spec
    from repro.machines.machine import build_model

    report = _discover_spec(target, seed)
    result = verify_spec(report.spec, build_model(target), seed=seed)
    return result.diagnostics, result.stats


def _fan_out(worker, tasks, jobs):
    """Run *worker* over *tasks*, optionally across a process pool.

    Results come back in task order regardless of completion order, so
    the merged report is identical for any --jobs value.  Mirrors the
    extraction pool's convention: prefer ``fork`` (workers inherit the
    warm interpreter), fall back to the platform default.
    """
    jobs = max(1, int(jobs or 1))
    if jobs == 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" in multiprocessing.get_all_start_methods():
        mp_ctx = multiprocessing.get_context("fork")
    else:
        mp_ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), mp_context=mp_ctx
    ) as pool:
        return list(pool.map(worker, tasks))


def _emit_findings(merged, args, tool):
    from repro.analysis.formats import render

    text = render(merged, args.format, tool=tool)
    if args.out:
        from repro.discovery.durable import atomic_write

        atomic_write(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 1 if merged.fails(args.fail_on) else 0


def _cmd_lint(args):
    """Static verification: speclint over each target's discovered
    description, detlint over source paths.  Exit 0 when no finding
    reaches the --fail-on threshold, 1 otherwise."""
    from repro.analysis import DiagnosticSet, lint_paths

    merged = DiagnosticSet()
    targets = list(args.targets)
    if not _check_targets(targets):
        return 2
    if not targets and not args.source:
        targets = list(target_names())
    if targets:
        tasks = [(target, args.seed, args.model) for target in targets]
        for diagnostics in _fan_out(_lint_worker, tasks, args.jobs):
            merged.extend(diagnostics)
    if args.source:
        merged.extend(lint_paths(args.source))
    return _emit_findings(merged, args, "repro-lint")


def _load_run_spec(path):
    """The (target, spec) of a run directory's newest checkpoint."""
    from repro.discovery.durable import DurableRun

    run = DurableRun.open(path)
    checkpoint, warnings = run.load_checkpoint()
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if checkpoint is None or checkpoint.report.spec is None:
        raise SystemExit(f"verify-spec: no synthesised spec in {path}")
    return checkpoint.target, checkpoint.report.spec


def _cmd_verify_spec(args):
    """Translation validation of discovered specs (see
    repro.analysis.verify).  Exit 0 when no finding reaches the
    --fail-on threshold, 1 otherwise."""
    from repro.analysis import DiagnosticSet

    if args.diff:
        from repro.analysis.verify import diff_specs
        from repro.machines.machine import build_model

        run_a, run_b = args.diff
        target_a, spec_a = _load_run_spec(run_a)
        target_b, spec_b = _load_run_spec(run_b)
        if target_a != target_b:
            print(
                f"verify-spec: runs target different machines "
                f"({target_a} vs {target_b})",
                file=sys.stderr,
            )
            return 2
        merged = diff_specs(
            spec_a,
            spec_b,
            build_model(target_a),
            seed=args.seed,
            label_a=run_a,
            label_b=run_b,
        )
        return _emit_findings(merged, args, "repro-verify-spec")

    targets = list(args.targets) or list(target_names())
    if not _check_targets(targets):
        return 2
    merged = DiagnosticSet()
    tasks = [(target, args.seed) for target in targets]
    for target, (diagnostics, stats) in zip(
        targets, _fan_out(_verify_worker, tasks, args.jobs)
    ):
        merged.extend(diagnostics)
        print(
            f"{target}: {stats['obligations']} obligations: "
            f"{stats['proven']} proven, {stats['sampled']} sampled, "
            f"{stats['refuted']} refuted, "
            f"{stats['unverifiable']} unverifiable",
            file=sys.stderr,
        )
    return _emit_findings(merged, args, "repro-verify-spec")


def _cmd_cache_info(args):
    from repro.discovery.cache import cache_info

    info = cache_info(args.directory)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"probe cache at {info['directory']}:")
    for shard in info["shards"]:
        verbs = ", ".join(
            f"{verb}={count}" for verb, count in sorted(shard["by_verb"].items())
        )
        print(
            f"  {shard['fingerprint']:16s} {shard['entries']:6d} entries "
            f"{shard['bytes']:9d} bytes "
            f"corrupt={shard['corrupt_lines']}  [{verbs}]"
        )
    print(
        f"  total: {info['total_entries']} entries, {info['total_bytes']} bytes, "
        f"{info['total_corrupt_lines']} corrupt line(s) "
        f"across {len(info['shards'])} shard(s)"
    )
    gc = info.get("gc")
    if gc:
        print(
            f"  gc: {gc.get('runs', 0)} run(s), "
            f"{gc.get('evicted_shards', 0)} shard(s) evicted, "
            f"{gc.get('reclaimed_bytes', 0)} byte(s) reclaimed, "
            f"{gc.get('compacted_shards', 0)} compaction(s)"
        )
    return 0


def _cmd_serve(args):
    import signal
    import threading

    from repro.service.app import DiscoveryService
    from repro.service.httpd import serve

    service = DiscoveryService(
        args.root,
        fleet=args.fleet,
        cache_dir=args.cache_dir,
        heartbeat_every=args.heartbeat_every,
        lease_timeout=args.lease_timeout,
        poll_interval=args.poll_interval,
        clients_file=args.clients,
        max_backlog=args.max_backlog,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_age_s=args.cache_max_age,
        gc_interval=args.gc_interval,
    )
    server = serve(service, host=args.host, port=args.port)
    adopted = service.adopt()
    if adopted:
        print(f"adopted {len(adopted)} open job(s): {', '.join(adopted)}")
    service.start()
    print(
        f"discovery service listening on {server.url} "
        f"(root {service.root}, fleet {service.fleet})",
        flush=True,
    )

    # SIGTERM/SIGINT start a graceful drain: admission closes (readyz
    # goes 503, new submissions are refused), every worker gets SIGINT
    # and persists a durable checkpoint, then the listener stops.  Job
    # states stay open on disk, so the next `repro serve --root` adopts
    # and finishes them with bit-for-bit identical specs.
    drain_state = {"requested": False}

    def _request_drain(signum, frame):
        if drain_state["requested"]:
            return  # a second signal while draining: stay the course
        drain_state["requested"] = True

        def _runner():
            service.drain(timeout=args.drain_timeout)
            server.shutdown()

        threading.Thread(target=_runner, name="drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _request_drain)
    signal.signal(signal.SIGINT, _request_drain)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        if not drain_state["requested"]:
            service.stop()
        server.server_close()
    if drain_state["requested"]:
        print("drain complete; exiting", flush=True)
    return 0


def _client_progress_printer():
    """A change-only progress line for ``client wait``: one line per
    observed state transition, not one per poll."""
    last = {"line": None}

    def on_progress(status):
        parts = []
        for campaign in status.get("campaigns", []):
            done = len(campaign["completed_phases"])
            parts.append(
                f"{campaign['target']} {campaign['state']}"
                f"({done}/{campaign['phases_total']})"
            )
        line = f"{status['id']} {status['state']}: " + ", ".join(parts)
        if line != last["line"]:
            print(line, file=sys.stderr)
            last["line"] = line

    return on_progress


def _client_wait(client, job_id, timeout):
    from repro.service import jobs as jobstates

    status = client.wait(
        job_id, timeout=timeout, on_progress=_client_progress_printer()
    )
    return 0 if status["state"] == jobstates.DONE else 1


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _client_submit(client, args):
    job = client.submit(
        args.targets,
        seed=args.seed,
        workers=args.workers,
        max_attempts=args.max_attempts,
        escalate_votes=args.escalate_votes,
        priority=args.priority,
        deadline_s=args.deadline_s,
    )
    _print_json(job)
    if args.wait:
        return _client_wait(client, job["id"], args.timeout)
    return 0


def _client_spec(client, args):
    payload = client.spec(args.job)
    if args.out:
        import pathlib

        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for target, text in sorted(payload["specs"].items()):
            path = outdir / f"{target}.beg"
            path.write_text(text)
            print(f"wrote {path}")
    else:
        for target, text in sorted(payload["specs"].items()):
            print(text, end="")
    return 0


def _cmd_client(args):
    from repro.service.client import ServiceClient, ServiceError

    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN")
    client = ServiceClient(args.url, token=token)
    try:
        return CLIENT_ACTIONS[args.action].handler(client, args)
    except ServiceError as exc:
        print(f"client error: {exc}", file=sys.stderr)
        return 1


def _fault_rate(text):
    rate = float(text)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {text}")
    return rate


def _workers_arg(text):
    """``--workers N`` or ``--workers auto`` (measured sizing)."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {text!r}"
        ) from None


# -- the command line as tables ------------------------------------------
#
# An argument is its ``add_argument`` names and keywords.  One that means
# the same in several commands is defined once below and listed by each
# command that takes it; the others are defined inline in their row.


def _arg(*names, **spec):
    return names, spec


SEED = _arg("--seed", type=int, default=1997)
TARGETS = _arg("targets", nargs="+", choices=target_names())
# No choices= on the optional list: argparse (3.11) validates the empty
# default of a nargs="*" positional against choices and rejects it;
# _check_targets validates the names instead.
OPTIONAL_TARGETS = _arg(
    "targets", nargs="*", metavar="target",
    help="targets to discover and check (default: all; lint checks none "
    "when --source is given)",
)
PROGRAM = _arg("--program", required=True, help="language-A file, or -")
JSON = _arg("--json", action="store_true", help="machine-readable output")
WORKERS = _arg(
    "--workers", type=_workers_arg, default=None, metavar="N|auto",
    help="concurrent target connections per discovery run (a venue knob; "
    "default: $REPRO_WORKERS or 1); 'auto' sizes from measured verb latency",
)
CACHE_DIR = _arg(
    "--cache-dir", default=None, metavar="PATH",
    help="persist probe results here, shared by every worker; repeat runs "
    "skip remote verbs (serve default: ROOT/cache)",
)
CACHE_URL = _arg(
    "--cache-url", default=None, metavar="URL",
    help="share a discovery service's probe cache over HTTP "
    "(beats --cache-dir; see 'repro serve')",
)
FLEET = _arg(
    "--fleet", type=int, default=2, metavar="N",
    help="concurrent worker processes; serve shares them across all jobs (default: 2)",
)
HEARTBEAT_EVERY = _arg(
    "--heartbeat-every", type=float, default=0.5, metavar="SECONDS",
    help="worker lease heartbeat interval; 0 disables (default: 0.5)",
)
LEASE_TIMEOUT = _arg(
    "--lease-timeout", type=float, default=10.0, metavar="SECONDS",
    help="missed-lease window before a worker is declared wedged "
    "and killed (default: 10)",
)
ESCALATE_VOTES = _arg(
    "--escalate-votes", type=int, default=None, metavar="N",
    help="also raise resilience votes to N when escalating",
)
TIMEOUT = _arg(
    "--timeout", type=float, default=None, metavar="SECONDS",
    help="give up waiting after this long (the job keeps running)",
)
JOB = _arg("job", metavar="JOB_ID")
FORMAT = _arg(
    "--format", choices=("text", "json", "sarif"), default="text",
    help="output format (default: text)",
)
FAIL_ON = _arg(
    "--fail-on", choices=("error", "warning", "never"), default="error",
    help="exit 1 when a finding at this severity or worse exists",
)
REPORT_OUT = _arg("--out", help="write the report to this file (atomically)")
JOBS = _arg(
    "--jobs", type=int, default=1, metavar="N",
    help="check up to N targets in parallel worker processes "
    "(output is target-ordered and identical for any N)",
)


class Command(NamedTuple):
    help: str
    handler: Callable
    arguments: tuple


COMMANDS = {
    "targets": Command("list the simulated machines", _cmd_targets, (JSON,)),
    "discover": Command("run architecture discovery", _cmd_discover, (
        _arg("target", nargs="?", choices=target_names()),
        _arg("--out", help="write artifacts to this directory"),
        SEED,
        _arg("--flaky", type=_fault_rate, default=0.0, metavar="RATE",
             help="inject transient target faults at this rate (0..1)"),
        _arg("--fault-seed", type=int, default=0xFA17,
             help="seed for the deterministic fault plan"),
        _arg("--max-retries", type=int, default=4,
             help="retries per remote interaction before quarantine"),
        WORKERS,
        _arg("--extract-procs", type=int, default=None, metavar="N",
             help="worker processes for the CPU-bound extraction phases "
             "(default: $REPRO_EXTRACT_PROCS or 1)"),
        CACHE_DIR,
        CACHE_URL,
        _arg("--no-cache", action="store_true",
             help="bypass the probe cache entirely (no reads, no writes)"),
        _arg("--latency", type=float, default=0.0, metavar="SECONDS",
             help="simulated per-verb target round-trip time"),
        _arg("--run-dir", default=None, metavar="DIR",
             help="commit crash-durable checkpoints to this run directory"),
        _arg("--resume", default=None, metavar="RUNDIR",
             help="resume a killed run from its run directory "
             "(target and fault plan come from the manifest)"),
        _arg("--checkpoint-every", type=int, default=None, metavar="N",
             help="per-sample completion records per durable commit in the "
             "fan-out phases (default: 8)"),
        _arg("--crash-at", default=None, metavar="SPEC",
             help="crash injection: before:<phase>, after:<phase>, or "
             "sample:<phase>:<n> (underscores stand for spaces)"),
        _arg("--crash-kill", action="store_true",
             help="SIGKILL the process at the --crash-at point instead of "
             "raising (a real unclean death, for the e2e tests)"),
        _arg("--heartbeat-every", type=float, default=None, metavar="SECONDS",
             help="heartbeat a liveness lease into the run directory at this "
             "interval (used by the campaign supervisor; needs --run-dir or "
             "--resume)"),
        _arg("--verify", action="store_true",
             help="append a translation-validation phase: prove every "
             "synthesised rule against the machine model; findings land in "
             "the report diagnostics and the summary"),
        _arg("--votes", type=int, default=None, metavar="N",
             help="override the resilience vote count (a venue knob: changes "
             "cost, never the discovered spec)"),
    )),
    "campaign": Command(
        "supervise discovery campaigns against many targets", _cmd_campaign, (
            TARGETS,
            _arg("--root", required=True, metavar="DIR",
                 help="campaign root: per-target run/out/log directories live here"),
            FLEET,
            SEED,
            CACHE_DIR,
            CACHE_URL,
            WORKERS,
            _arg("--max-attempts", type=int, default=5, metavar="N",
                 help="worker attempts per campaign before quarantine (default: 5)"),
            _arg("--backoff", type=float, default=0.5, metavar="SECONDS",
                 help="base retry backoff, doubled per failure (default: 0.5)"),
            _arg("--escalate-after", type=int, default=2, metavar="N",
                 help="failures before relaunching with escalated venue knobs "
                 "(--workers 1 --no-cache) (default: 2)"),
            ESCALATE_VOTES,
            HEARTBEAT_EVERY,
            LEASE_TIMEOUT,
            _arg("--deadline", type=float, default=None, metavar="SECONDS",
                 help="wall-clock budget for the whole campaign fleet; unfinished "
                 "campaigns emit partial specs and incomplete.json"),
            _arg("--chaos-kills", type=int, default=0, metavar="N",
                 help="chaos harness: SIGKILL each campaign's worker N times at "
                 "seeded points before letting it finish"),
            _arg("--chaos-seed", type=int, default=0xC4A0, metavar="N",
                 help="seed for the chaos kill schedule"),
        ),
    ),
    "cache-info": Command(
        "inventory a probe-cache directory's shards", _cmd_cache_info,
        (_arg("directory", metavar="DIR"), JSON),
    ),
    "serve": Command("run the discovery service (HTTP/JSON control plane)", _cmd_serve, (
        _arg("--root", required=True, metavar="DIR",
             help="service state root: jobs/, campaigns/, cache/ live here"),
        _arg("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"),
        _arg("--port", type=int, default=0, metavar="P",
             help="listen port (default: 0 = ephemeral, printed at startup)"),
        FLEET,
        CACHE_DIR,
        HEARTBEAT_EVERY,
        LEASE_TIMEOUT,
        _arg("--poll-interval", type=float, default=0.2, metavar="SECONDS",
             help="fleet loop tick (default: 0.2)"),
        _arg("--clients", default=None, metavar="FILE",
             help="clients.json tenant table (default: ROOT/clients.json; "
             "absent file = open mode, no auth)"),
        _arg("--max-backlog", type=int, default=None, metavar="N",
             help="admission watermark: open targets beyond this are shed "
             "with a 503 (default: fleet * 8)"),
        _arg("--cache-max-bytes", type=int, default=None, metavar="BYTES",
             help="probe-cache size bound: GC evicts least-recently-touched "
             "shards above this (default: unbounded)"),
        _arg("--cache-max-age", type=float, default=None, metavar="SECONDS",
             help="probe-cache age bound: shards untouched this long are "
             "evicted (default: unbounded)"),
        _arg("--gc-interval", type=float, default=60.0, metavar="SECONDS",
             help="cache GC cadence inside the fleet loop (default: 60)"),
        _arg("--drain-timeout", type=float, default=15.0, metavar="SECONDS",
             help="on SIGTERM/SIGINT, wait this long for workers to "
             "checkpoint before SIGKILLing stragglers (default: 15)"),
    )),
    "client": Command("talk to a running discovery service", _cmd_client, (
        _arg("--url", required=True, metavar="URL", help="service base URL"),
        _arg("--token", default=None, metavar="TOKEN",
             help="bearer token for an auth-enabled service "
             "(default: $REPRO_SERVICE_TOKEN)"),
    )),
    "retarget": Command(
        "retarget ac and validate a program on each target", _cmd_retarget,
        (TARGETS, PROGRAM, SEED),
    ),
    "run": Command("compile and run a language-A program", _cmd_run, (
        _arg("target", choices=target_names()),
        PROGRAM,
        _arg("--emit-asm", action="store_true", help="print assembly only"),
        SEED,
    )),
    "lint": Command("statically verify discovered machine descriptions", _cmd_lint, (
        OPTIONAL_TARGETS,
        _arg("--source", action="append", default=[], metavar="PATH",
             help="also run the determinism lint over this file/directory "
             "(repeatable)"),
        FORMAT,
        FAIL_ON,
        REPORT_OUT,
        SEED,
        JOBS,
        _arg("--model", action="store_true",
             help="derive template def/use profiles from the target's own "
             "machine model (symbolic execution) instead of the probed "
             "semantics table alone"),
    )),
    "verify-spec": Command(
        "prove discovered emission rules correct by translation "
        "validation (counterexamples on refutation)", _cmd_verify_spec, (
            OPTIONAL_TARGETS,
            _arg("--diff", nargs=2, metavar=("RUN_A", "RUN_B"),
                 help="differential mode: compare the specs checkpointed in two "
                 "run directories instead of verifying against the model"),
            FORMAT,
            FAIL_ON,
            REPORT_OUT,
            SEED,
            JOBS,
        ),
    ),
}

#: the ``repro client`` actions; each handler takes (client, args)
CLIENT_ACTIONS = {
    "submit": Command("submit a campaign", _client_submit, (
        TARGETS,
        # unset, the service picks the seed and the attempt budget
        _arg("--seed", type=int, default=None),
        WORKERS,
        _arg("--max-attempts", type=int, default=None, metavar="N"),
        ESCALATE_VOTES,
        _arg("--priority", type=int, default=None, metavar="N",
             help="queue priority, -100..100 (higher runs first; default 0)"),
        _arg("--deadline-s", type=float, default=None, metavar="SECONDS",
             help="wall-clock budget; an unfinished job expires with partial "
             "specs salvaged"),
        _arg("--wait", action="store_true", help="poll until the job finishes"),
        TIMEOUT,
    )),
    "status": Command(
        "one job's typed status and per-target progress",
        lambda client, args: _print_json(client.status(args.job)), (JOB,),
    ),
    "wait": Command(
        "poll a job until it reaches a terminal state",
        lambda client, args: _client_wait(client, args.job, args.timeout), (JOB, TIMEOUT),
    ),
    "spec": Command("fetch a finished job's machine descriptions", _client_spec, (
        JOB,
        _arg("--out", default=None, metavar="DIR",
             help="write one <target>.beg per spec here instead of stdout"),
    )),
    "cancel": Command(
        "cancel a job", lambda client, args: _print_json(client.cancel(args.job)), (JOB,)
    ),
    "stats": Command(
        "service queue/fleet/cache counters", lambda client, args: _print_json(client.stats()), ()
    ),
    "jobs": Command("list every job record", lambda client, args: _print_json(client.jobs()), ()),
    "readyz": Command(
        "readiness probe (non-zero while draining/starting)",
        lambda client, args: _print_json(client.readyz()), (),
    ),
}


def _add_commands(parser, dest, table):
    """One subparser per table row; returns them by name."""
    sub = parser.add_subparsers(dest=dest, required=True)
    parsers = {}
    for name, command in table.items():
        parsers[name] = sub.add_parser(name, help=command.help)
        for names, spec in command.arguments:
            parsers[name].add_argument(*names, **spec)
    return parsers


def build_parser():
    """The ``repro`` argument parser, built from the tables; parsing
    with it runs no handler."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = _add_commands(parser, "command", COMMANDS)
    _add_commands(commands["client"], "action", CLIENT_ACTIONS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command].handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
