"""Deterministic fault injection for the remote-target façade.

The paper's discovery unit talks to a real machine over ``rsh``; in
practice that link drops connections, the native toolchain crashes, and
executions hang or return garbage.  :class:`FaultyMachine` wraps any
machine exposing the four remote verbs (compile / assemble / link /
execute) and injects such failures according to a seeded
:class:`FaultPlan`, so the resilience layer (retry, voting, quarantine)
can be exercised reproducibly: the same seed and the same call sequence
produce the same faults, bit for bit.

Fault kinds:

``drop``
    The connection died before the request reached the target.  The
    wrapped verb is *not* invoked (no invocation counter moves) and a
    :class:`~repro.errors.TransientTargetError` is raised.

``crash``
    The remote tool started working and then crashed.  The wrapped verb
    *is* invoked (counters move, target time was spent) and its result is
    discarded with a :class:`~repro.errors.TransientTargetError`.

``timeout``
    The interaction exceeded its deadline.  Like ``crash`` the work is
    spent; a :class:`~repro.errors.TargetTimeoutError` is raised.

``corrupt``
    Only for ``execute``: the run "succeeds" but the captured output is
    truncated or mangled in transit.  No exception -- this is the fault
    majority voting exists to defeat, because a single corrupted run is
    indistinguishable from a real program result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.counters import Counters
from repro.errors import TargetTimeoutError, TransientTargetError
from repro.machines.machine import MachineLayer

#: the remote verbs faults can attach to
VERBS = ("compile", "assemble", "link", "execute")

_TRANSIENT_KINDS = ("drop", "crash", "timeout")


@dataclass
class FaultStats(Counters):
    """Counts of injected faults, by kind."""

    DERIVED = ("injected",)

    drops: int = 0
    crashes: int = 0
    timeouts: int = 0
    corruptions: int = 0
    clean_calls: int = 0

    @property
    def injected(self):
        return self.drops + self.crashes + self.timeouts + self.corruptions


@dataclass
class FaultPlan:
    """A seeded schedule of fault decisions.

    Each remote call draws one decision from a private ``random.Random``
    stream, so the fault sequence is a pure function of ``(seed, call
    sequence)``.  ``rate`` is the total probability that a call is
    faulted; the individual kind is drawn from ``weights``.

    ``max_consecutive`` bounds runs of bad luck: after that many
    consecutive faults on the same verb the next call is forced clean.
    A bounded adversary keeps discovery completable for any seed as long
    as the retry policy allows ``max_consecutive + 1`` attempts.
    """

    rate: float = 0.0
    seed: int = 0xFA17
    weights: dict = field(
        default_factory=lambda: {
            "drop": 0.3,
            "crash": 0.3,
            "timeout": 0.2,
            "corrupt": 0.2,
        }
    )
    max_consecutive: int = 3

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        self._rng = random.Random(self.seed)
        self._streak = {verb: 0 for verb in VERBS}

    def decide(self, verb):
        """The fault kind for the next call of *verb*, or None for a
        clean call."""
        if self.rate <= 0.0:
            return None
        if self._streak[verb] >= self.max_consecutive > 0:
            self._streak[verb] = 0
            return None
        if self._rng.random() >= self.rate:
            self._streak[verb] = 0
            return None
        kinds = [
            k
            for k in self.weights
            if self.weights[k] > 0 and (verb == "execute" or k != "corrupt")
        ]
        if not kinds:  # e.g. a corrupt-only plan faulting a compile
            self._streak[verb] = 0
            return None
        total = sum(self.weights[k] for k in kinds)
        draw = self._rng.random() * total
        kind = kinds[-1]
        for kind in kinds:
            draw -= self.weights[kind]
            if draw <= 0:
                break
        self._streak[verb] += 1
        return kind

    def corrupt_output(self, output):
        """Deterministically mangle an execution's captured output."""
        style = self._rng.randrange(3)
        if style == 0 and output:  # truncation mid-transfer
            return output[: self._rng.randrange(len(output))]
        if style == 1:  # line noise appended
            return output + f"<noise:{self._rng.randrange(1 << 16):04x}>\n"
        # a byte flipped in transit
        junk = chr(33 + self._rng.randrange(90))
        if not output:
            return junk
        pos = self._rng.randrange(len(output))
        return output[:pos] + junk + output[pos + 1 :]


class FaultyMachine(MachineLayer):
    """A machine wrapper that injects :class:`FaultPlan` faults.

    Exposes the same surface as :class:`~repro.machines.machine.
    RemoteMachine`, so it can be dropped anywhere a machine is expected,
    including underneath the resilience layer's own wrapper.  ``stats``
    are the real machine's invocation counters: faulted calls that
    never reached it do not count.
    """

    def __init__(self, machine, plan=None, rate=None, seed=0xFA17):
        if plan is None:
            plan = FaultPlan(rate=rate or 0.0, seed=seed)
        elif rate is not None:
            raise ValueError("pass either a FaultPlan or a rate, not both")
        super().__init__(machine)
        self.plan = plan
        self.fault_stats = FaultStats()

    def clone_connection(self, index=0):
        """A parallel connection over the same flaky network.

        Each connection draws faults from its own stream, seeded from
        the plan seed and the connection index, so a worker pool's fault
        sequence is deterministic per (seed, connection) regardless of
        how samples are interleaved across connections.  All connections
        count into this connection's :class:`FaultStats`.
        """
        plan = FaultPlan(
            rate=self.plan.rate,
            seed=self.plan.seed + 7919 * (index + 1),
            weights=dict(self.plan.weights),
            max_consecutive=self.plan.max_consecutive,
        )
        clone = FaultyMachine(self.inner.clone_connection(index), plan=plan)
        clone.fault_stats = self.fault_stats
        return clone

    # -- fault machinery ----------------------------------------------

    def _fault(self, verb):
        kind = self.plan.decide(verb)
        if kind is None:
            self.fault_stats.bump(clean_calls=1)
            return None
        if kind == "drop":
            self.fault_stats.bump(drops=1)
            raise TransientTargetError(f"connection to target dropped during {verb}")
        return kind

    def _after(self, verb, kind):
        if kind == "crash":
            self.fault_stats.bump(crashes=1)
            raise TransientTargetError(f"remote {verb} tool crashed")
        if kind == "timeout":
            self.fault_stats.bump(timeouts=1)
            raise TargetTimeoutError(f"remote {verb} timed out")

    # -- the four remote verbs ----------------------------------------

    def compile_c(self, source, headers=None):
        kind = self._fault("compile")
        result = self.inner.compile_c(source, headers)
        self._after("compile", kind)
        return result

    def assemble(self, asm_text):
        kind = self._fault("assemble")
        result = self.inner.assemble(asm_text)
        self._after("assemble", kind)
        return result

    def link(self, objects):
        kind = self._fault("link")
        result = self.inner.link(objects)
        self._after("link", kind)
        return result

    def execute(self, executable):
        kind = self._fault("execute")
        result = self.inner.execute(executable)
        self._after("execute", kind)
        if kind == "corrupt" and result.ok:
            self.fault_stats.bump(corruptions=1)
            return replace(result, output=self.plan.corrupt_output(result.output))
        return result
