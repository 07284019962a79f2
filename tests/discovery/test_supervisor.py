"""Campaign-supervisor acceptance: chaos adoption, lease liveness, the
escalation ladder, and lease hygiene.

The centrepiece is the chaos sweep: a three-target fleet whose workers
are SIGKILLed twice each at seeded phase and mid-phase boundaries; the
supervisor must adopt every campaign onto fresh workers and land every
spec bit-for-bit identical to an uninterrupted run.  All legs share one
probe cache, so each worker run is warm.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.durable import DurableRun, parse_envelope
from repro.discovery.supervisor import (
    DONE,
    INCOMPLETE,
    LEASE_FILE,
    QUARANTINED,
    STALLED,
    CampaignPolicy,
    CampaignSupervisor,
    LeaseWriter,
    read_lease,
)
from repro.machines.crashes import CrashPlan, FleetKillPlan
from repro.machines.machine import RemoteMachine

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TARGETS = ["vax", "mips", "sparc"]

#: two kills per campaign: first mid-run, second *later* in the adopted
#: run (a point the resumed run still visits), third attempt runs clean
KILL_SCHEDULE = {
    "vax": ["sample:register_discovery:2", "sample:mutation_analysis:3"],
    "mips": ["after:enquire", "sample:reverse_interpretation:1"],
    "sparc": ["before:mutation_analysis", "after:synthesis"],
}

_QUIET = lambda *args, **kwargs: None  # noqa: E731


@pytest.fixture(scope="module")
def cachedir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("probe-cache"))


@pytest.fixture(scope="module")
def ref_specs(cachedir):
    """Uninterrupted reference specs (and the cache warm-up), as the
    artifact bytes write_report produces."""
    specs = {}
    for target in TARGETS:
        report = ArchitectureDiscovery(
            RemoteMachine(target), workers=1, cache=cachedir
        ).run()
        specs[target] = report.spec.render_beg() + "\n"
    return specs


def _policy(**overrides):
    """Test-speed policy: tight polling, fast backoff."""
    defaults = dict(backoff_base=0.05, poll_interval=0.05, lease_timeout=30.0)
    defaults.update(overrides)
    return CampaignPolicy(**defaults)


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- the chaos sweep (acceptance) ----------------------------------------


def test_chaos_sweep_every_campaign_adopted_with_identical_spec(
    tmp_path, cachedir, ref_specs
):
    """Seeded SIGKILLs at phase and mid-phase boundaries, twice per
    campaign: every campaign must be adopted and complete with a spec
    bit-for-bit identical to its uninterrupted run."""
    supervisor = CampaignSupervisor(
        TARGETS,
        tmp_path / "root",
        fleet=3,
        policy=_policy(),
        cache_dir=cachedir,
        heartbeat_every=0.2,
        kill_plan=FleetKillPlan.explicit(KILL_SCHEDULE),
        echo=_QUIET,
    )
    summary = supervisor.run()
    assert summary["ok"], summary
    for campaign in supervisor.campaigns:
        assert campaign.state == DONE
        # both kills fired: two crashed attempts, one clean adoption
        assert campaign.attempts == 3, (campaign.target, campaign.failures)
        assert [f["classification"] for f in campaign.failures] == [
            "crash",
            "crash",
        ]
        assert all(f["returncode"] == -9 for f in campaign.failures)
        spec = campaign.spec_artifact().read_text()
        assert spec == ref_specs[campaign.target], campaign.target
    persisted = json.loads((tmp_path / "root" / "summary.json").read_text())
    assert persisted["ok"]
    assert {c["target"] for c in persisted["campaigns"]} == set(TARGETS)


def test_orphaned_run_directory_is_adopted(tmp_path, cachedir, ref_specs):
    """A run directory crashed by a worker the supervisor never
    launched is adopted like any other: portable checkpoints make the
    directory self-describing."""
    rundir = tmp_path / "root" / "vax" / "run"
    killed = _cli(
        [
            "discover", "vax",
            "--run-dir", str(rundir),
            "--cache-dir", cachedir,
            "--crash-at", "sample:mutation_analysis:2",
            "--crash-kill",
        ],
        cwd=tmp_path,
    )
    assert killed.returncode == -9, killed.stderr

    supervisor = CampaignSupervisor(
        ["vax"],
        tmp_path / "root",
        fleet=1,
        policy=_policy(),
        cache_dir=cachedir,
        echo=_QUIET,
    )
    summary = supervisor.run()
    assert summary["ok"], summary
    [campaign] = supervisor.campaigns
    assert campaign.attempts == 1  # adopted and finished, no failures
    assert campaign.failures == []
    assert campaign.spec_artifact().read_text() == ref_specs["vax"]


# -- lease-based liveness ------------------------------------------------


class _WedgedFirstAttempt(CampaignSupervisor):
    """Attempt 1 is a stub that holds the campaign without making
    progress (no heartbeats) -- the alive-but-wedged worker."""

    def _worker_argv(self, campaign):
        if campaign.attempts == 1:
            return [sys.executable, "-c", "import time; time.sleep(600)"]
        return super()._worker_argv(campaign)


def test_missed_lease_worker_is_killed_and_adopted(
    tmp_path, cachedir, ref_specs
):
    supervisor = _WedgedFirstAttempt(
        ["vax"],
        tmp_path / "root",
        fleet=1,
        policy=_policy(lease_timeout=0.6),
        cache_dir=cachedir,
        heartbeat_every=0.2,
        echo=_QUIET,
    )
    start = time.monotonic()
    summary = supervisor.run()
    assert summary["ok"], summary
    [campaign] = supervisor.campaigns
    assert campaign.attempts == 2
    assert campaign.failures[0]["classification"] == STALLED
    assert campaign.spec_artifact().read_text() == ref_specs["vax"]
    assert time.monotonic() - start < 200  # detected by lease, not luck


def test_lease_writer_generations_are_monotonic(tmp_path):
    writer = LeaseWriter(tmp_path, interval=60)
    writer.beat()
    first = read_lease(tmp_path)
    writer.beat()
    second = read_lease(tmp_path)
    assert second["generation"] == first["generation"] + 1
    assert second["pid"] == os.getpid()


def test_lease_heartbeats_in_background(tmp_path):
    writer = LeaseWriter(tmp_path, interval=0.05).start()
    try:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            lease = read_lease(tmp_path)
            if lease and lease["generation"] >= 3:
                break
            time.sleep(0.05)
        assert read_lease(tmp_path)["generation"] >= 3
    finally:
        writer.stop()


def test_lease_file_is_not_a_checkpoint_generation(tmp_path):
    """worker.lease must be invisible to the checkpoint loader: never
    globbed as a generation, never part of spec-affecting state."""
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    LeaseWriter(run.directory, interval=60).beat()
    assert run.generations() == []
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is None and warnings == []


def test_read_lease_tolerates_garbage(tmp_path):
    assert read_lease(tmp_path) is None
    (tmp_path / LEASE_FILE).write_bytes(b"\x00torn")
    assert read_lease(tmp_path) is None


# -- lease hygiene (satellite): heartbeats change no durable bytes -------


def test_lease_hygiene_identical_spec_and_checkpoint_bytes(
    tmp_path, cachedir
):
    """Run the same discovery with and without heartbeats: the spec and
    every retained checkpoint body hash must be identical -- leases are
    runtime-only state."""
    plain = _cli(
        ["discover", "vax", "--run-dir", str(tmp_path / "plain"),
         "--cache-dir", cachedir],
        cwd=tmp_path,
    )
    beating = _cli(
        ["discover", "vax", "--run-dir", str(tmp_path / "beating"),
         "--cache-dir", cachedir, "--heartbeat-every", "0.05"],
        cwd=tmp_path,
    )
    assert plain.returncode == 0, plain.stderr
    assert beating.returncode == 0, beating.stderr

    # identical spec (stdout after the first blank line is the render)
    assert plain.stdout.split("\n\n", 1)[1] == beating.stdout.split("\n\n", 1)[1]

    # the heartbeat run left a lease; the plain run did not
    assert (tmp_path / "beating" / LEASE_FILE).exists()
    assert not (tmp_path / "plain" / LEASE_FILE).exists()

    # same generations, identical body hashes
    gens_plain = sorted((tmp_path / "plain").glob("ckpt-*.bin"))
    gens_beating = sorted((tmp_path / "beating").glob("ckpt-*.bin"))
    assert [p.name for p in gens_plain] == [p.name for p in gens_beating]
    assert gens_plain, "no checkpoint generations committed"
    for path_plain, path_beating in zip(gens_plain, gens_beating):
        hash_plain = parse_envelope(path_plain.read_bytes())[0]["sha256"]
        hash_beating = parse_envelope(path_beating.read_bytes())[0]["sha256"]
        assert hash_plain == hash_beating, path_plain.name


# -- the escalation ladder -----------------------------------------------


class _RecordingSupervisor(CampaignSupervisor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.argvs = []

    def _worker_argv(self, campaign):
        argv = super()._worker_argv(campaign)
        self.argvs.append(list(argv))
        return argv


def test_repeated_failure_escalates_venue_knobs(tmp_path, cachedir, ref_specs):
    """Two early kills push the campaign over escalate_after: the third
    attempt must drop to one worker, bypass the cache, and raise votes
    -- and still land on the identical spec (they are venue knobs)."""
    supervisor = _RecordingSupervisor(
        ["vax"],
        tmp_path / "root",
        fleet=1,
        policy=_policy(escalate_after=2, escalate_votes=3),
        cache_dir=cachedir,
        kill_plan=FleetKillPlan.explicit(
            {"vax": ["before:enquire", "before:enquire"]}
        ),
        echo=_QUIET,
    )
    summary = supervisor.run()
    assert summary["ok"], summary
    [campaign] = supervisor.campaigns
    assert campaign.attempts == 3
    first, second, escalated = supervisor.argvs
    assert "--no-cache" not in first and "--no-cache" not in second
    assert "--no-cache" in escalated
    assert escalated[escalated.index("--workers") + 1] == "1"
    assert escalated[escalated.index("--votes") + 1] == "3"
    assert "--resume" in escalated  # still the adoption path
    assert campaign.spec_artifact().read_text() == ref_specs["vax"]


def test_attempt_exhaustion_quarantines_with_typed_record(tmp_path, cachedir):
    supervisor = CampaignSupervisor(
        ["vax"],
        tmp_path / "root",
        fleet=1,
        policy=_policy(max_attempts=2),
        cache_dir=cachedir,
        kill_plan=FleetKillPlan.explicit({"vax": ["before:enquire"] * 3}),
        echo=_QUIET,
    )
    summary = supervisor.run()
    assert not summary["ok"]
    [campaign] = supervisor.campaigns
    assert campaign.state == QUARANTINED
    record = json.loads(
        (tmp_path / "root" / "vax" / "failure.json").read_text()
    )
    assert record["state"] == QUARANTINED
    assert record["attempts"] == 2
    assert [f["classification"] for f in record["failures"]] == [
        "crash",
        "crash",
    ]


class _NeverFinishes(CampaignSupervisor):
    def _worker_argv(self, campaign):
        return [sys.executable, "-c", "import time; time.sleep(600)"]


def test_deadline_emits_partial_spec_and_incomplete_report(tmp_path, cachedir):
    """Budget exhaustion never ends with nothing: the newest checkpoint
    yields the partial spec, and incomplete.json records how far the
    campaign got and how to resume it."""
    home = tmp_path / "root" / "vax"
    killed = _cli(
        [
            "discover", "vax",
            "--run-dir", str(home / "run"),
            "--cache-dir", cachedir,
            "--crash-at", "after:synthesis",
            "--crash-kill",
        ],
        cwd=tmp_path,
    )
    assert killed.returncode == -9, killed.stderr

    supervisor = _NeverFinishes(
        ["vax"],
        tmp_path / "root",
        fleet=1,
        policy=_policy(deadline=0.8),
        cache_dir=cachedir,
        echo=_QUIET,
    )
    summary = supervisor.run()
    assert not summary["ok"]
    [campaign] = supervisor.campaigns
    assert campaign.state == INCOMPLETE
    record = json.loads((home / "incomplete.json").read_text())
    assert record["reason"] == "deadline exhausted"
    assert "synthesis" in record["completed_phases"]
    assert record["resume"].endswith(str(home / "run"))
    partial = pathlib.Path(record["partial_spec"])
    assert partial.exists()
    assert partial.read_text().startswith("TARGET ")  # a rendered spec


# -- the fleet kill plan harness -----------------------------------------


PHASES = [name for name, _ in ArchitectureDiscovery.PHASES]


def test_fleet_kill_plan_is_seeded_and_order_independent():
    plan_a = FleetKillPlan.seeded(
        7, ["vax", "mips"], PHASES,
        sample_phases=ArchitectureDiscovery.FAN_OUT_PHASES,
    )
    plan_b = FleetKillPlan.seeded(
        7, ["mips", "vax"], PHASES,
        sample_phases=ArchitectureDiscovery.FAN_OUT_PHASES,
    )
    for target in ("vax", "mips"):
        assert plan_a.spec_for(target, 1) == plan_b.spec_for(target, 1)
        assert plan_a.spec_for(target, 2) == plan_b.spec_for(target, 2)
    assert sum(len(plans) for plans in plan_a.schedule.values()) == 4


def test_fleet_kill_plan_sample_kills_aim_at_fan_out_phases():
    plan = FleetKillPlan.seeded(
        3, TARGETS, PHASES,
        sample_phases=ArchitectureDiscovery.FAN_OUT_PHASES,
        kills_per_campaign=8,
    )
    for plans in plan.schedule.values():
        for crash in plans:
            assert crash.kill
            if crash.kind == "sample":
                assert crash.phase in ArchitectureDiscovery.FAN_OUT_PHASES


def test_fleet_kill_plan_schedule_is_spent_in_order():
    plan = FleetKillPlan.explicit(
        {"vax": ["before:enquire", "sample:mutation_analysis:2"]}
    )
    assert plan.spec_for("vax", 1) == "before:enquire"
    assert plan.spec_for("vax", 2) == "sample:mutation_analysis:2"
    assert plan.spec_for("vax", 3) is None
    assert plan.spec_for("mips", 1) is None


def test_crash_plan_spec_round_trips():
    for spec in ("before:enquire", "after:spec_lint", "sample:mutation_analysis:3"):
        assert CrashPlan.parse(spec).spec() == spec


# -- Ctrl-C durability (satellite) ---------------------------------------


class _InterruptsAtFrames(ArchitectureDiscovery):
    def _phase_frames(self, report, state):
        raise KeyboardInterrupt


def test_keyboard_interrupt_persists_and_resumes(tmp_path, cachedir, ref_specs):
    rundir = tmp_path / "run"
    driver = _InterruptsAtFrames(
        RemoteMachine("vax"), workers=1, cache=cachedir, run_dir=str(rundir)
    )
    with pytest.raises(KeyboardInterrupt):
        driver.run()
    assert driver.interrupt_run_dir == str(rundir)

    run = DurableRun.open(driver.interrupt_run_dir)
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert "synthesis" not in checkpoint.completed
    from repro.discovery.durable import machine_from_config

    machine, resilience = machine_from_config(run.config)
    report = ArchitectureDiscovery(
        machine, resilience=resilience, workers=1, cache=cachedir, run_dir=run
    ).run(resume=checkpoint)
    assert report.spec.render_beg() + "\n" == ref_specs["vax"]


def test_keyboard_interrupt_without_run_dir_lands_in_fallback(
    tmp_path, cachedir, system_tempdir
):
    driver = _InterruptsAtFrames(RemoteMachine("vax"), workers=1, cache=cachedir)
    with pytest.raises(KeyboardInterrupt):
        driver.run()
    assert driver.interrupt_run_dir is not None
    # the fallback is a fresh repro-run-* directory in the temp directory,
    # which the session points into pytest's own
    fallback = pathlib.Path(driver.interrupt_run_dir)
    assert fallback.parent == pathlib.Path(system_tempdir)
    assert fallback.name.startswith("repro-run-vax-")
    checkpoint, warnings = DurableRun.open(
        driver.interrupt_run_dir
    ).load_checkpoint()
    assert warnings == []
    assert checkpoint is not None
    assert "mutation analysis" in checkpoint.completed
