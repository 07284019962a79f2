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
import sys

from repro.machines.machine import RemoteMachine, target_names


def _cmd_targets(args):
    if getattr(args, "json", False):
        import json

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


def _discover_cache(args, config=None):
    """The probe cache for a discover run: a service URL beats a local
    directory (CLI flag beats manifest either way), --no-cache beats
    everything."""
    if args.no_cache:
        return None
    manifest = config or {}
    url = args.cache_url or manifest.get("cache_url")
    if url:
        import os

        from repro.service.app import FLEET_TOKEN_ENV
        from repro.service.cache_client import RemoteProbeCache

        # the service's own fleet hands its workers a token via the
        # environment (never argv); operators can set it the same way
        return RemoteProbeCache(url, token=os.environ.get(FLEET_TOKEN_ENV))
    return args.cache_dir or manifest.get("cache_dir")


def _cmd_discover(args):
    from repro.discovery.driver import ArchitectureDiscovery, DiscoveryInterrupted

    resume_checkpoint = None
    if args.resume:
        # Everything that shapes the discovered spec -- target, fault
        # plan, seed, resilience knobs, checkpoint cadence -- comes from
        # the run directory's manifest, so the resumed run is the same
        # run.  Only venue knobs (workers, extract procs) may differ.
        from repro.discovery.durable import DurableRun, machine_from_config

        run = DurableRun.open(args.resume)
        machine, resilience = machine_from_config(run.config)
        if getattr(args, "votes", None):
            # The supervisor's escalation ladder raises votes on a
            # struggling campaign; votes are a venue knob (majority
            # voting changes cost, never the deterministic answer).
            resilience.votes = args.votes
        resume_checkpoint, warnings = run.load_checkpoint()
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if resume_checkpoint is None:
            print(
                f"no loadable checkpoint in {args.resume}; starting from scratch",
                file=sys.stderr,
            )
        workers = args.workers
        if workers is None and run.config.get("adaptive_workers"):
            # The original run sized itself; the resumed run re-derives
            # the same width from the manifest-recorded measurements.
            workers = "auto"
        discovery = ArchitectureDiscovery(
            machine,
            seed=run.config.get("seed", args.seed),
            resilience=resilience,
            workers=workers,
            cache=_discover_cache(args, run.config),
            extract_procs=args.extract_procs,
            run_dir=run,
            crash_plan=_crash_plan(args),
            checkpoint_every=run.config.get("checkpoint_every"),
            verify=args.verify,
        )
    else:
        if args.target is None:
            print("discover: a target (or --resume RUNDIR) is required", file=sys.stderr)
            return 2
        machine = _build_machine(args)
        discovery = ArchitectureDiscovery(
            machine,
            seed=args.seed,
            resilience=_resilience_config(args),
            workers=args.workers,
            cache=_discover_cache(args),
            extract_procs=args.extract_procs,
            run_dir=args.run_dir,
            crash_plan=_crash_plan(args),
            checkpoint_every=args.checkpoint_every,
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


def _atomic_write_text(path, text):
    """Write-temp-then-rename: readers of *path* (CI artifact uploads,
    concurrent lint runs) never observe a half-written report."""
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
        _atomic_write_text(args.out, text + "\n")
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
    import json

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


def _cmd_client(args):
    import json

    from repro.service.client import ServiceClient, ServiceError

    import os

    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN")
    client = ServiceClient(args.url, token=token)
    try:
        if args.action == "submit":
            job = client.submit(
                args.targets,
                seed=args.seed,
                workers=args.workers,
                max_attempts=args.max_attempts,
                escalate_votes=args.escalate_votes,
                priority=args.priority,
                deadline_s=args.deadline_s,
            )
            print(json.dumps(job, indent=2, sort_keys=True))
            if args.wait:
                return _client_wait(client, job["id"], args.timeout)
            return 0
        if args.action == "status":
            print(json.dumps(client.status(args.job), indent=2, sort_keys=True))
            return 0
        if args.action == "wait":
            return _client_wait(client, args.job, args.timeout)
        if args.action == "spec":
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
        if args.action == "cancel":
            print(json.dumps(client.cancel(args.job), indent=2, sort_keys=True))
            return 0
        if args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.action == "jobs":
            print(json.dumps(client.jobs(), indent=2, sort_keys=True))
            return 0
        if args.action == "readyz":
            print(json.dumps(client.readyz(), indent=2, sort_keys=True))
            return 0
        raise AssertionError(f"unhandled client action {args.action!r}")
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_targets = sub.add_parser("targets", help="list the simulated machines")
    p_targets.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing: names, toolchain command lines "
        "and the cache fingerprint each one hashes to",
    )

    p_discover = sub.add_parser("discover", help="run architecture discovery")
    p_discover.add_argument("target", nargs="?", choices=target_names())
    p_discover.add_argument("--out", help="write artifacts to this directory")
    p_discover.add_argument("--seed", type=int, default=1997)
    p_discover.add_argument(
        "--flaky",
        type=_fault_rate,
        default=0.0,
        metavar="RATE",
        help="inject transient target faults at this rate (0..1)",
    )
    p_discover.add_argument(
        "--fault-seed",
        type=int,
        default=0xFA17,
        help="seed for the deterministic fault plan",
    )
    p_discover.add_argument(
        "--max-retries",
        type=int,
        default=4,
        help="retries per remote interaction before quarantine",
    )
    p_discover.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        metavar="N|auto",
        help="concurrent target connections (default: $REPRO_WORKERS or 1); "
        "'auto' sizes from measured verb latency after the enquire phase",
    )
    p_discover.add_argument(
        "--extract-procs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the CPU-bound extraction phases "
        "(default: $REPRO_EXTRACT_PROCS or 1)",
    )
    p_discover.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist probe results here; repeat runs skip remote verbs",
    )
    p_discover.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="share a discovery service's probe cache over HTTP "
        "(beats --cache-dir; see 'repro serve')",
    )
    p_discover.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the probe cache entirely (no reads, no writes)",
    )
    p_discover.add_argument(
        "--latency",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="simulated per-verb target round-trip time",
    )
    p_discover.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="commit crash-durable checkpoints to this run directory",
    )
    p_discover.add_argument(
        "--resume",
        default=None,
        metavar="RUNDIR",
        help="resume a killed run from its run directory "
        "(target and fault plan come from the manifest)",
    )
    p_discover.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="per-sample completion records per durable commit in the "
        "fan-out phases (default: $REPRO_CHECKPOINT_EVERY or 8)",
    )
    p_discover.add_argument(
        "--crash-at",
        default=None,
        metavar="SPEC",
        help="crash injection: before:<phase>, after:<phase>, or "
        "sample:<phase>:<n> (underscores stand for spaces)",
    )
    p_discover.add_argument(
        "--crash-kill",
        action="store_true",
        help="SIGKILL the process at the --crash-at point instead of "
        "raising (a real unclean death, for the e2e tests)",
    )
    p_discover.add_argument(
        "--heartbeat-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat a liveness lease into the run directory at this "
        "interval (used by the campaign supervisor; needs --run-dir or "
        "--resume)",
    )
    p_discover.add_argument(
        "--verify",
        action="store_true",
        help="append a translation-validation phase: prove every "
        "synthesised rule against the machine model; findings land in "
        "the report diagnostics and the summary",
    )
    p_discover.add_argument(
        "--votes",
        type=int,
        default=None,
        metavar="N",
        help="override the resilience vote count (a venue knob: changes "
        "cost, never the discovered spec)",
    )

    p_campaign = sub.add_parser(
        "campaign", help="supervise discovery campaigns against many targets"
    )
    p_campaign.add_argument("targets", nargs="+", choices=target_names())
    p_campaign.add_argument(
        "--root", required=True, metavar="DIR",
        help="campaign root: per-target run/out/log directories live here",
    )
    p_campaign.add_argument(
        "--fleet", type=int, default=2, metavar="N",
        help="concurrent worker processes (default: 2)",
    )
    p_campaign.add_argument("--seed", type=int, default=1997)
    p_campaign.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="shared probe cache for all workers",
    )
    p_campaign.add_argument(
        "--cache-url", default=None, metavar="URL",
        help="share a discovery service's probe cache over HTTP",
    )
    p_campaign.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N|auto",
        help="target connections per worker (venue knob); 'auto' sizes "
        "each worker from measured verb latency",
    )
    p_campaign.add_argument(
        "--max-attempts", type=int, default=5, metavar="N",
        help="worker attempts per campaign before quarantine (default: 5)",
    )
    p_campaign.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubled per failure (default: 0.5)",
    )
    p_campaign.add_argument(
        "--escalate-after", type=int, default=2, metavar="N",
        help="failures before relaunching with escalated venue knobs "
        "(--workers 1 --no-cache) (default: 2)",
    )
    p_campaign.add_argument(
        "--escalate-votes", type=int, default=None, metavar="N",
        help="also raise resilience votes to N when escalating",
    )
    p_campaign.add_argument(
        "--heartbeat-every", type=float, default=0.5, metavar="SECONDS",
        help="worker lease heartbeat interval; 0 disables (default: 0.5)",
    )
    p_campaign.add_argument(
        "--lease-timeout", type=float, default=10.0, metavar="SECONDS",
        help="missed-lease window before a worker is declared wedged "
        "and killed (default: 10)",
    )
    p_campaign.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole campaign fleet; unfinished "
        "campaigns emit partial specs and incomplete.json",
    )
    p_campaign.add_argument(
        "--chaos-kills", type=int, default=0, metavar="N",
        help="chaos harness: SIGKILL each campaign's worker N times at "
        "seeded points before letting it finish",
    )
    p_campaign.add_argument(
        "--chaos-seed", type=int, default=0xC4A0, metavar="N",
        help="seed for the chaos kill schedule",
    )

    p_cache_info = sub.add_parser(
        "cache-info", help="inventory a probe-cache directory's shards"
    )
    p_cache_info.add_argument("directory", metavar="DIR")
    p_cache_info.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_serve = sub.add_parser(
        "serve", help="run the discovery service (HTTP/JSON control plane)"
    )
    p_serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="service state root: jobs/, campaigns/, cache/ live here",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="listen port (default: 0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--fleet", type=int, default=2, metavar="N",
        help="global concurrent worker budget across all jobs (default: 2)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="shared probe cache directory (default: ROOT/cache)",
    )
    p_serve.add_argument(
        "--heartbeat-every", type=float, default=0.5, metavar="SECONDS",
        help="worker lease heartbeat interval; 0 disables (default: 0.5)",
    )
    p_serve.add_argument(
        "--lease-timeout", type=float, default=10.0, metavar="SECONDS",
        help="missed-lease window before a worker is declared wedged "
        "(default: 10)",
    )
    p_serve.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="fleet loop tick (default: 0.2)",
    )
    p_serve.add_argument(
        "--clients", default=None, metavar="FILE",
        help="clients.json tenant table (default: ROOT/clients.json; "
        "absent file = open mode, no auth)",
    )
    p_serve.add_argument(
        "--max-backlog", type=int, default=None, metavar="N",
        help="admission watermark: open targets beyond this are shed "
        "with a 503 (default: fleet * 8)",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="probe-cache size bound: GC evicts least-recently-touched "
        "shards above this (default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-max-age", type=float, default=None, metavar="SECONDS",
        help="probe-cache age bound: shards untouched this long are "
        "evicted (default: unbounded)",
    )
    p_serve.add_argument(
        "--gc-interval", type=float, default=60.0, metavar="SECONDS",
        help="cache GC cadence inside the fleet loop (default: 60)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=15.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait this long for workers to "
        "checkpoint before SIGKILLing stragglers (default: 15)",
    )

    p_client = sub.add_parser(
        "client", help="talk to a running discovery service"
    )
    p_client.add_argument(
        "--url", required=True, metavar="URL", help="service base URL"
    )
    p_client.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="bearer token for an auth-enabled service "
        "(default: $REPRO_SERVICE_TOKEN)",
    )
    client_sub = p_client.add_subparsers(dest="action", required=True)
    c_submit = client_sub.add_parser("submit", help="submit a campaign")
    c_submit.add_argument("targets", nargs="+", choices=target_names())
    c_submit.add_argument("--seed", type=int, default=None)
    c_submit.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N|auto"
    )
    c_submit.add_argument("--max-attempts", type=int, default=None, metavar="N")
    c_submit.add_argument("--escalate-votes", type=int, default=None, metavar="N")
    c_submit.add_argument(
        "--priority", type=int, default=None, metavar="N",
        help="queue priority, -100..100 (higher runs first; default 0)",
    )
    c_submit.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; an unfinished job expires with partial "
        "specs salvaged",
    )
    c_submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    c_submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (the job keeps running)",
    )
    for action, help_text in (
        ("status", "one job's typed status and per-target progress"),
        ("wait", "poll a job until it reaches a terminal state"),
        ("spec", "fetch a finished job's machine descriptions"),
        ("cancel", "cancel a job"),
    ):
        c_action = client_sub.add_parser(action, help=help_text)
        c_action.add_argument("job", metavar="JOB_ID")
        if action == "wait":
            c_action.add_argument(
                "--timeout", type=float, default=None, metavar="SECONDS"
            )
        if action == "spec":
            c_action.add_argument(
                "--out", default=None, metavar="DIR",
                help="write one <target>.beg per spec here instead of stdout",
            )
    client_sub.add_parser("stats", help="service queue/fleet/cache counters")
    client_sub.add_parser("jobs", help="list every job record")
    client_sub.add_parser(
        "readyz", help="readiness probe (non-zero while draining/starting)"
    )

    p_retarget = sub.add_parser(
        "retarget", help="retarget ac and validate a program on each target"
    )
    p_retarget.add_argument("targets", nargs="+", choices=target_names())
    p_retarget.add_argument("--program", required=True, help="language-A file, or -")
    p_retarget.add_argument("--seed", type=int, default=1997)

    p_run = sub.add_parser("run", help="compile and run a language-A program")
    p_run.add_argument("target", choices=target_names())
    p_run.add_argument("--program", required=True, help="language-A file, or -")
    p_run.add_argument("--emit-asm", action="store_true", help="print assembly only")
    p_run.add_argument("--seed", type=int, default=1997)

    p_lint = sub.add_parser(
        "lint", help="statically verify discovered machine descriptions"
    )
    # No choices= here: argparse (3.11) validates the empty default of a
    # nargs="*" positional against choices and rejects it; _cmd_lint
    # validates the names itself.
    p_lint.add_argument(
        "targets",
        nargs="*",
        metavar="target",
        help="targets to discover and speclint (default: all, "
        "unless --source is given)",
    )
    p_lint.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="PATH",
        help="also run the determinism lint over this file/directory "
        "(repeatable)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit 1 when a finding at this severity or worse exists",
    )
    p_lint.add_argument(
        "--out", help="write the report to this file (atomically)"
    )
    p_lint.add_argument("--seed", type=int, default=1997)
    p_lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint up to N targets in parallel worker processes "
        "(output is target-ordered and identical for any N)",
    )
    p_lint.add_argument(
        "--model",
        action="store_true",
        help="derive template def/use profiles from the target's own "
        "machine model (symbolic execution) instead of the probed "
        "semantics table alone",
    )

    p_verify = sub.add_parser(
        "verify-spec",
        help="prove discovered emission rules correct by translation "
        "validation (counterexamples on refutation)",
    )
    # Same rationale as lint for skipping choices= on the positional.
    p_verify.add_argument(
        "targets",
        nargs="*",
        metavar="target",
        help="targets to discover and verify (default: all)",
    )
    p_verify.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        help="differential mode: compare the specs checkpointed in two "
        "run directories instead of verifying against the model",
    )
    p_verify.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    p_verify.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit 1 when a finding at this severity or worse exists",
    )
    p_verify.add_argument(
        "--out", help="write the report to this file (atomically)"
    )
    p_verify.add_argument("--seed", type=int, default=1997)
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify up to N targets in parallel worker processes",
    )

    args = parser.parse_args(argv)
    handler = {
        "targets": _cmd_targets,
        "discover": _cmd_discover,
        "campaign": _cmd_campaign,
        "cache-info": _cmd_cache_info,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "retarget": _cmd_retarget,
        "run": _cmd_run,
        "lint": _cmd_lint,
        "verify-spec": _cmd_verify_spec,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
