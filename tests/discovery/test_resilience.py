"""The resilience layer: retry/backoff, circuit breaker, majority voting,
and the resilient machine wrapper."""

import sys
import threading

import pytest

from repro.errors import (
    PermanentTargetError,
    TargetTimeoutError,
    TransientTargetError,
)
from repro.machines.executor import ExecResult
from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine
from repro.discovery.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    ResilientMachine,
    RetryPolicy,
    backoff_delay,
    majority_vote,
)


class Flaky:
    """A callable failing the first *n* times, then succeeding."""

    def __init__(self, failures, exc=TransientTargetError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_fast_path_no_overhead(self):
        policy = RetryPolicy(max_retries=4)
        fn = Flaky(0)
        assert policy.call(fn) == "ok"
        assert fn.calls == 1
        assert policy.stats.retries == 0
        assert policy.stats.total_backoff == 0.0

    def test_retries_until_success(self):
        policy = RetryPolicy(max_retries=4)
        fn = Flaky(3)
        assert policy.call(fn) == "ok"
        assert fn.calls == 4
        assert policy.stats.retries == 3

    def test_gives_up_after_max_retries(self):
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(TransientTargetError):
            policy.call(Flaky(10))
        assert policy.stats.gave_up == 1
        assert policy.stats.retries == 2

    def test_backoff_schedule_exponential_capped_and_jittered(self):
        def schedule(seed, jitter=0.5):
            slept = []
            policy = RetryPolicy(
                max_retries=6,
                base_delay=0.1,
                max_delay=1.0,
                jitter=jitter,
                jitter_seed=seed,
                sleep=slept.append,
            )
            with pytest.raises(TransientTargetError):
                policy.call(Flaky(10))
            return slept

        raw = [min(0.1 * 2**n, 1.0) for n in range(6)]
        assert schedule(1, jitter=0.0) == pytest.approx(raw)
        delays = schedule(1)
        assert len(delays) == 6
        for got, base in zip(delays, raw):
            assert 0.5 * base <= got <= 1.5 * base
        # Deterministic per seed; different seeds jitter differently.
        assert delays == schedule(1)
        assert delays != schedule(2)

    def test_backoff_delay_is_capped_exponential(self):
        assert [backoff_delay(n, 0.5, 30.0) for n in range(8)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0
        ]
        assert backoff_delay(2, 0.2, 2.0, factor=1.5) == pytest.approx(0.45)
        # a counter that runs for hours saturates instead of overflowing
        assert backoff_delay(5000, 0.2, 2.0, factor=1.5) == 2.0

    def test_backoff_accumulates_in_stats(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.0)
        policy.call(Flaky(2))
        assert policy.stats.total_backoff == pytest.approx(0.1 + 0.2)

    def test_sleep_hook_receives_delays(self):
        slept = []
        policy = RetryPolicy(max_retries=3, jitter=0.0, sleep=slept.append)
        policy.call(Flaky(2))
        assert len(slept) == 2
        assert slept[1] > slept[0]

    def test_timeouts_counted_separately(self):
        policy = RetryPolicy(max_retries=2)
        policy.call(Flaky(1, exc=TargetTimeoutError))
        assert policy.stats.timeouts == 1
        assert policy.stats.transient_errors == 1


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(3):
            assert breaker.allow("execute")
            breaker.record_failure("execute")
        assert breaker.state("execute") == CircuitBreaker.OPEN
        assert not breaker.allow("execute")

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure("x")
        breaker.record_failure("x")
        breaker.record_success("x")
        breaker.record_failure("x")
        breaker.record_failure("x")
        assert breaker.state("x") == CircuitBreaker.CLOSED

    def test_half_open_after_cooldown_then_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=3)
        breaker.record_failure("k")
        rejected = sum(1 for _ in range(3) if not breaker.allow("k"))
        assert rejected == 2  # third allow() flips to half-open
        assert breaker.state("k") == CircuitBreaker.HALF_OPEN
        breaker.record_success("k")
        assert breaker.state("k") == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        breaker.record_failure("k")
        assert breaker.allow("k")  # straight to half-open trial
        breaker.record_failure("k")
        assert breaker.state("k") == CircuitBreaker.OPEN

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("compile")
        assert breaker.state("compile") == CircuitBreaker.OPEN
        assert breaker.allow("execute")


def _result(output, ok=True):
    return ExecResult(output=output, error=None if ok else "crashed")


class TestMajorityVote:
    def test_unanimous(self):
        winner = majority_vote([_result("67\n"), _result("67\n")])
        assert winner.output == "67\n"

    def test_single_corrupted_run_outvoted(self):
        runs = [_result("67\n"), _result("6"), _result("67\n")]
        assert majority_vote(runs).output == "67\n"

    def test_adversarial_disagreement_has_no_majority(self):
        runs = [_result("1\n"), _result("2\n"), _result("3\n")]
        assert majority_vote(runs) is None

    def test_errors_vote_too(self):
        runs = [_result("", ok=False), _result("", ok=False), _result("67\n")]
        assert not majority_vote(runs).ok


class _ScriptedExecMachine:
    """Machine double whose execute() plays back a script of outputs."""

    target = "scripted"
    toolchain = None
    stats = None

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.executions = 0

    def execute(self, _executable):
        self.executions += 1
        item = self.outputs.pop(0)
        if isinstance(item, Exception):
            raise item
        return _result(item)


class TestResilientMachine:
    def test_votes_one_is_a_single_call(self):
        inner = _ScriptedExecMachine(["67\n"])
        machine = ResilientMachine(inner, ResilienceConfig(votes=1))
        assert machine.execute(object()).output == "67\n"
        assert inner.executions == 1
        assert machine.policy.stats.vote_runs == 0

    def test_voting_defeats_one_corrupted_run(self):
        inner = _ScriptedExecMachine(["6", "67\n", "67\n"])
        machine = ResilientMachine(inner, ResilienceConfig(votes=3))
        assert machine.execute(object()).output == "67\n"
        assert inner.executions == 3

    def test_voting_short_circuits_on_early_agreement(self):
        inner = _ScriptedExecMachine(["67\n", "67\n", "unused"])
        machine = ResilientMachine(inner, ResilienceConfig(votes=3))
        assert machine.execute(object()).output == "67\n"
        assert inner.executions == 2  # majority of 3 reached in 2 runs

    def test_voting_escalates_then_gives_up(self):
        inner = _ScriptedExecMachine(["1\n", "2\n", "3\n", "4\n", "5\n", "6\n"])
        machine = ResilientMachine(
            inner, ResilienceConfig(votes=3, max_vote_rounds=2)
        )
        with pytest.raises(TransientTargetError):
            machine.execute(object())
        assert machine.policy.stats.vote_conflicts >= 1

    def test_retry_inside_voting(self):
        inner = _ScriptedExecMachine(
            [TransientTargetError("drop"), "67\n", "67\n"]
        )
        machine = ResilientMachine(inner, ResilienceConfig(votes=3))
        assert machine.execute(object()).output == "67\n"
        assert machine.policy.stats.retries == 1

    def test_breaker_trips_to_permanent_error(self):
        failures = [TransientTargetError("down")] * 100
        inner = _ScriptedExecMachine(failures)
        config = ResilienceConfig(
            max_retries=0, failure_threshold=2, cooldown_calls=100
        )
        machine = ResilientMachine(inner, config)
        for _ in range(2):
            with pytest.raises(TransientTargetError):
                machine.execute(object())
        with pytest.raises(PermanentTargetError):
            machine.execute(object())
        assert machine.policy.stats.breaker_rejections == 1


def test_clones_count_into_the_primary_under_contention():
    """Eight threads, each on its own clone of one stack and switching
    as often as the interpreter allows: every layer's shared counters
    must see every verb, which a lost update would break."""
    threads, verbs = 8, 2000
    asm = RemoteMachine("vax").compile_c("int main() { return 0; }")
    primary = ResilientMachine(FaultyMachine(RemoteMachine("vax"), rate=0.0))
    clones = [primary.clone_connection(index + 1) for index in range(threads)]

    def issue(conn):
        for _ in range(verbs):
            conn.assemble(asm)

    workers = [threading.Thread(target=issue, args=(conn,)) for conn in clones]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    total = threads * verbs
    assert primary.stats.total_verbs == total
    assert primary.policy.stats.attempts == total
    assert primary.inner.fault_stats.clean_calls == total
