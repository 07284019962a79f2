"""End-to-end discovery against an unreliable target.

The acceptance bar for the resilience layer: discovery completes under
injected transient faults, the synthesized spec still compiles real
programs correctly, quarantine is reported rather than raised -- and at
a 0% fault rate the whole apparatus is free (identical target-invocation
counters to an unwrapped run).
"""

import hashlib
import pathlib

import pytest

from repro.beg.codegen import GeneratedBackend
from repro.errors import TargetError, TransientTargetError
from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine
from repro.toyc.frontend import parse
from repro.discovery.driver import ArchitectureDiscovery, DiscoveryInterrupted
from repro.discovery.durable import freeze_body
from repro.discovery.resilience import ResilienceConfig
from tests.discovery.test_discovery_work import PINNED

GCD = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "programs" / "gcd.a"
).read_text()


def _faulty_discovery(target, rate, seed=7, votes=3):
    machine = FaultyMachine(RemoteMachine(target), rate=rate, seed=seed)
    driver = ArchitectureDiscovery(
        machine, resilience=ResilienceConfig(votes=votes if rate else 1)
    )
    return machine, driver.run()


def _gcd_output(report):
    backend = GeneratedBackend(report.spec)
    asm = backend.compile_ir(parse(GCD))
    # Judge the spec on a clean machine: the faulty one could corrupt
    # the verification run itself.
    return RemoteMachine(report.target).run_asm([asm]).output


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.2])
def test_discovery_survives_fault_rate(rate):
    machine, report = _faulty_discovery("x86", rate)
    assert _gcd_output(report) == "67\n"
    if rate:
        assert machine.fault_stats.injected > 0
        assert report.retry_stats.retries > 0
    else:
        assert machine.fault_stats.injected == 0
        assert report.retry_stats.retries == 0


def test_zero_fault_rate_adds_zero_executions():
    """The no-retry fast path: wrapping a healthy target in the full
    resilience stack moves no invocation counter."""
    baseline = ArchitectureDiscovery(RemoteMachine("x86"), resilience=False).run()
    _machine, wrapped = _faulty_discovery("x86", 0.0)
    for counter in ("compilations", "assemblies", "links", "executions"):
        assert getattr(wrapped.machine_stats, counter) == getattr(
            baseline.machine_stats, counter
        )


def test_faulty_report_carries_resilience_counters():
    machine, report = _faulty_discovery("mips", 0.2)
    summary = report.summary()
    assert summary["fault"]["injected"] == machine.fault_stats.injected > 0
    assert summary["retry"]["retries"] == report.retry_stats.retries > 0
    assert summary["quarantined"] == report.quarantined
    assert _gcd_output(report) == "67\n"


class _Breakable:
    """A machine whose compile verb can be switched into a permanent
    outage (every call raises a transient error until healed)."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def compile_c(self, source, headers=None):
        if self.down:
            raise TransientTargetError("target host unreachable")
        return self.inner.compile_c(source, headers)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _BreaksBeforeFrames(ArchitectureDiscovery):
    """Driver variant that takes the target down right before the
    frames phase, simulating an outage mid-run."""

    def _phase_frames(self, report, state):
        self.machine.inner.down = True
        super()._phase_frames(report, state)


def test_checkpoint_resume_after_outage():
    breakable = _Breakable(RemoteMachine("x86"))
    driver = _BreaksBeforeFrames(
        breakable, resilience=ResilienceConfig(max_retries=1)
    )
    with pytest.raises(DiscoveryInterrupted) as excinfo:
        driver.run()
    checkpoint = excinfo.value.checkpoint
    assert excinfo.value.phase == "frames and idioms"
    assert "synthesis" not in checkpoint.completed
    assert "reverse interpretation" in checkpoint.completed
    assert "frames" in checkpoint.describe() or checkpoint.completed

    # Target comes back; resume runs only the remaining phases.
    breakable.down = False
    compilations_before = breakable.stats.compilations
    report = ArchitectureDiscovery(breakable).run(resume=checkpoint)
    assert report.spec is not None
    assert _gcd_output(report) == "67\n"
    # The completed prefix was not redone: resuming costs only the
    # tail phases' handful of compilations, not a whole rediscovery.
    assert breakable.stats.compilations - compilations_before < 50


def test_checkpoint_target_mismatch_rejected():
    breakable = _Breakable(RemoteMachine("x86"))
    driver = _BreaksBeforeFrames(breakable, resilience=ResilienceConfig(max_retries=0))
    with pytest.raises(DiscoveryInterrupted) as excinfo:
        driver.run()
    breakable.down = False
    from repro.errors import DiscoveryError

    with pytest.raises(DiscoveryError):
        ArchitectureDiscovery(RemoteMachine("mips")).run(resume=excinfo.value.checkpoint)


class _ExecuteOutage:
    """A machine whose ``execute`` fails for *length* calls, starting at
    the *start*-th call after it is armed."""

    def __init__(self, inner, start, length):
        self.inner = inner
        self.start, self.length = start, length
        self.armed = False
        self.executions = 0

    def execute(self, executable):
        if self.armed:
            self.executions += 1
            if self.start <= self.executions < self.start + self.length:
                raise TransientTargetError("target host unreachable")
        return self.inner.execute(executable)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _OutageInSynthesis(ArchitectureDiscovery):
    """Driver variant that arms the outage as synthesis starts."""

    def _phase_synthesize(self, report, state):
        self.machine.inner.armed = True
        super()._phase_synthesize(report, state)


@pytest.fixture(scope="module")
def synthesis_outages():
    """Three equal vax runs, two at one worker and one at four, whose
    synthesis loses its 27th and 28th executions.  With one retry the
    outage outlasts the resilience layer; a Synthesizer that took the
    failure for a wrong rule dropped that rule and completed with
    another spec.  Synthesis has probed immediate ranges by then."""
    runs = []
    for workers in (1, 1, 4):
        machine = _ExecuteOutage(RemoteMachine("vax"), start=27, length=2)
        driver = _OutageInSynthesis(
            machine, workers=workers, resilience=ResilienceConfig(max_retries=1)
        )
        with pytest.raises(DiscoveryInterrupted) as excinfo:
            driver.run()
        interrupted = excinfo.value
        runs.append((machine, interrupted, freeze_body(interrupted.checkpoint)))
    return runs


def test_synthesis_outage_interrupts_and_resumes_to_the_pinned_spec(
    synthesis_outages, vax_report
):
    """The resumed run redoes synthesis whole and counts only its own
    probes: the interrupted attempt's range probes are not added again."""
    machine, interrupted, _body = synthesis_outages[0]
    assert interrupted.phase == "synthesis"
    assert isinstance(interrupted.cause, TargetError)
    assert "synthesis" not in interrupted.checkpoint.completed
    assert interrupted.checkpoint.report.probe_log is None
    machine.armed = False
    report = ArchitectureDiscovery(machine).run(resume=interrupted.checkpoint)
    spec_sha = hashlib.sha256(report.spec.render_beg().encode()).hexdigest()
    assert spec_sha == PINNED["vax"][0]
    assert report.probe_log.range_probes == vax_report.probe_log.range_probes > 0


def test_equal_interrupted_runs_freeze_to_equal_bytes(synthesis_outages):
    """An interrupted checkpoint carries no wall-clock time, and its
    bytes do not depend on the worker count."""
    (_, _, first), (_, _, second), (_, _, four_workers) = synthesis_outages
    assert first == second
    assert four_workers == first
