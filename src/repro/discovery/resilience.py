"""Resilience machinery for probing an unreliable remote target.

The paper assumes the target toolchain answers every ``rsh`` faithfully;
a deployed discovery unit cannot.  This module provides the three
defences the driver wires through the probe loop:

* :class:`RetryPolicy` -- exponential backoff with deterministic
  jitter, applied to every remote verb.  :func:`backoff_delay` is the
  one capped-exponential formula; the campaign supervisor, the cache
  client's cooldown and the service client's polling use it too.
* :class:`CircuitBreaker` -- a per-probe-class breaker that stops
  hammering a persistently failing interaction and later lets a trial
  call through (closed -> open -> half-open -> closed).
* **Majority voting** over repeated executions, so a single corrupted
  run cannot forge a mutation verdict (``ExecResult.same_result`` is the
  paper's success criterion; its trustworthiness is what the whole
  analysis rests on).

:class:`ResilientMachine` packages all three behind the same four-verb
surface as :class:`~repro.machines.machine.RemoteMachine`, so the rest
of the discovery unit stays oblivious.  The fast path is free: with no
faults and ``votes=1`` every verb is a single delegated call -- zero
extra target executions.  Every connection of a pool keeps its own
policy and breaker but counts into the primary's :class:`RetryStats`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.counters import Counters
from repro.errors import (
    PermanentTargetError,
    RETRYABLE_ERRORS,
    TargetTimeoutError,
    TransientTargetError,
)
from repro.machines import machine as facade


def backoff_delay(attempt, base, cap, factor=2.0):
    """The wait before retry number *attempt* (0-based): ``base``
    grown by ``factor`` per attempt, never more than ``cap``."""
    try:
        return min(cap, base * factor**attempt)
    except OverflowError:  # a count kept for hours: long since capped
        return cap


@dataclass
class RetryStats(Counters):
    """Counters the driver surfaces in the DiscoveryReport."""

    attempts: int = 0
    retries: int = 0
    transient_errors: int = 0
    timeouts: int = 0
    gave_up: int = 0
    vote_runs: int = 0
    vote_conflicts: int = 0
    breaker_rejections: int = 0
    total_backoff: float = 0.0


class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_retries`` is the number of *re*-attempts after the first try.
    Backoff delays are computed deterministically from ``jitter_seed``
    but not slept by default (``sleep=None``): the simulated target has
    no real latency, and tests assert on the delays passed to ``sleep``.
    """

    def __init__(
        self,
        max_retries=4,
        base_delay=0.05,
        max_delay=2.0,
        jitter=0.5,
        jitter_seed=0x7E57,
        sleep=None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.sleep = sleep
        self.stats = RetryStats()
        self._rng = random.Random(jitter_seed)

    def _delay(self, attempt):
        """``base * 2^attempt`` capped at ``max_delay``, scaled by a
        jitter factor in ``[1-j, 1+j]``."""
        raw = backoff_delay(attempt, self.base_delay, self.max_delay)
        factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return raw * factor

    def call(self, fn, *args, **kwargs):
        """Invoke *fn*, retrying transient target errors.

        The first attempt is made directly -- on success the policy has
        added nothing.  When retries are exhausted the last transient
        error propagates, which callers translate into quarantine.
        """
        attempt = 0
        while True:
            self.stats.bump(attempts=1)
            try:
                return fn(*args, **kwargs)
            except RETRYABLE_ERRORS as exc:
                self.stats.bump(
                    transient_errors=1,
                    timeouts=int(isinstance(exc, TargetTimeoutError)),
                )
                if attempt >= self.max_retries:
                    self.stats.bump(gave_up=1)
                    raise
                delay = self._delay(attempt)
                self.stats.bump(retries=1, total_backoff=delay)
                if self.sleep is not None:
                    self.sleep(delay)
                attempt += 1


class CircuitBreaker:
    """Per-key breaker over probe classes (one key per remote verb, or
    any finer-grained class a caller chooses).

    ``failure_threshold`` consecutive gave-up failures open the circuit;
    while open, calls are rejected instantly (no target time burned)
    until ``cooldown_calls`` rejections have accumulated, after which
    the breaker goes half-open and admits one trial call.  A successful
    trial closes the circuit; a failed one re-opens it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, failure_threshold=5, cooldown_calls=8):
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self._state = {}  # key -> (state, consecutive_failures, rejections)

    def state(self, key):
        return self._state.get(key, (self.CLOSED, 0, 0))[0]

    def allow(self, key):
        """May a call for *key* proceed?  Advances open -> half-open."""
        state, failures, rejections = self._state.get(key, (self.CLOSED, 0, 0))
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN:
            return True
        rejections += 1
        if rejections >= self.cooldown_calls:
            self._state[key] = (self.HALF_OPEN, failures, 0)
            return True
        self._state[key] = (state, failures, rejections)
        return False

    def record_success(self, key):
        self._state[key] = (self.CLOSED, 0, 0)

    def record_failure(self, key):
        state, failures, _rejections = self._state.get(key, (self.CLOSED, 0, 0))
        failures += 1
        if state == self.HALF_OPEN or failures >= self.failure_threshold:
            self._state[key] = (self.OPEN, failures, 0)
        else:
            self._state[key] = (self.CLOSED, failures, 0)


def majority_vote(results, minimum=2):
    """The first result whose verdict ``(ok, output, exit_code)`` appears
    at least *minimum* times, or None when no verdict has a majority."""
    tally = {}
    for result in results:
        key = (result.ok, result.output, result.exit_code)
        tally[key] = tally.get(key, 0) + 1
        if tally[key] >= minimum:
            return result
    return None


@dataclass
class ResilienceConfig:
    """The robustness knobs, in one place (CLI flags map onto these)."""

    max_retries: int = 4
    votes: int = 1  # executions per verdict; 1 == trust single runs
    max_vote_rounds: int = 2  # extra vote batches when no majority
    failure_threshold: int = 5
    cooldown_calls: int = 8

    def build_policy(self):
        return RetryPolicy(max_retries=self.max_retries)

    def build_breaker(self):
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            cooldown_calls=self.cooldown_calls,
        )


class ResilientMachine(facade.MachineLayer):
    """Retry + breaker + voting behind the standard machine surface.

    Wraps any four-verb machine (a :class:`RemoteMachine`, or a
    :class:`~repro.machines.faults.FaultyMachine` standing in for a
    flaky one).  Each verb is retried under the policy and guarded by a
    per-verb circuit breaker; ``execute`` additionally runs the program
    ``votes`` times and returns the majority verdict, because a
    corrupted-but-clean-looking run raises no exception for retry logic
    to see.
    """

    def __init__(self, machine, config=None, policy=None, breaker=None):
        super().__init__(machine)
        self.config = config or ResilienceConfig()
        self.policy = policy or self.config.build_policy()
        self.breaker = breaker or self.config.build_breaker()

    def clone_connection(self, index=0):
        """A parallel connection with its own retry policy and breaker.

        Retry state must be per-connection (a breaker tripped by one
        worker's probes should not blind another's), so the clone gets a
        fresh policy/breaker from the same config; its policy counts
        into this connection's :class:`RetryStats`.
        """
        clone = ResilientMachine(self.inner.clone_connection(index), config=self.config)
        clone.policy.stats = self.policy.stats
        return clone

    # -- guarded delegation -------------------------------------------

    def _guarded(self, verb, fn, *args, **kwargs):
        if not self.breaker.allow(verb):
            self.policy.stats.bump(breaker_rejections=1)
            raise PermanentTargetError(
                f"circuit open for remote {verb} (persistent target failures)"
            )
        try:
            result = self.policy.call(fn, *args, **kwargs)
        except TransientTargetError:
            self.breaker.record_failure(verb)
            raise
        self.breaker.record_success(verb)
        return result

    # -- the four remote verbs ----------------------------------------

    def compile_c(self, source, headers=None):
        return self._guarded("compile", self.inner.compile_c, source, headers)

    def assemble(self, asm_text):
        return self._guarded("assemble", self.inner.assemble, asm_text)

    def link(self, objects):
        return self._guarded("link", self.inner.link, objects)

    def execute(self, executable):
        votes = self.config.votes
        if votes <= 1:
            return self._guarded("execute", self.inner.execute, executable)
        stats = self.policy.stats
        minimum = votes // 2 + 1
        results = []
        for _round in range(1 + self.config.max_vote_rounds):
            for _ in range(votes if not results else 1):
                results.append(
                    self._guarded("execute", self.inner.execute, executable)
                )
                stats.bump(vote_runs=1)
                winner = majority_vote(results, minimum)
                if winner is not None:
                    return winner
            stats.bump(vote_conflicts=1)
        raise TransientTargetError(
            f"no majority among {len(results)} repeated executions"
        )


def make_resilient(machine, config=None):
    """Wrap *machine* unless it is already resilient."""
    if isinstance(machine, ResilientMachine):
        return machine
    return ResilientMachine(machine, config=config)
