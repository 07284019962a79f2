"""Seeded crash injection for the discovery driver.

The fault layer (:mod:`repro.machines.faults`) simulates the *target*
dying; this module simulates the *discovery process itself* dying --
the other half of the deployment reality a long-running probe campaign
faces.  A :class:`CrashPlan` names one point in the driver's phase
table (before a phase, after a phase's checkpoint committed, or after
the N-th per-sample completion record inside a fan-out phase) and, when
the driver reaches it, either raises :class:`SimulatedCrash` or -- in
``kill`` mode -- SIGKILLs the process outright, so nothing between the
last durable commit and the crash survives, exactly like a power cut.

The crash-durability tests sweep :meth:`CrashPlan.sweep` across the
whole phase table and assert that every killed-and-resumed run produces
a spec bit-for-bit identical to an uninterrupted one;
:meth:`CrashPlan.random` draws a seeded crash point for soak-style
harnesses.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass

#: crash-point kinds, in the order the driver visits them
KINDS = ("before", "after", "sample")


class SimulatedCrash(BaseException):
    """Process death, simulated in-process.

    Deliberately **not** an :class:`Exception`: the pipeline's
    quarantine/retry machinery must never absorb a crash the way it
    absorbs a flaky probe -- a crash unwinds everything, like SIGKILL
    minus the coroner."""

    def __init__(self, kind, phase, index=None):
        where = f"{kind} {phase!r}"
        if index is not None:
            where += f" (sample record {index})"
        super().__init__(f"simulated process crash {where}")
        self.kind = kind
        self.phase = phase
        self.index = index


@dataclass
class CrashPlan:
    """One scheduled process death.

    ``kind``
        ``"before"`` -- fire just before the named phase starts;
        ``"after"`` -- fire right after the phase's checkpoint committed;
        ``"sample"`` -- fire once the named fan-out phase has committed
        at least ``index`` per-sample completion records (mid-phase).
    ``kill``
        SIGKILL the current process instead of raising
        :class:`SimulatedCrash`: a *real* unclean death for subprocess
        end-to-end tests (no ``finally`` blocks, no interpreter exit).
    """

    kind: str
    phase: str
    index: int = 1
    kill: bool = False
    fired: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"crash kind must be one of {KINDS}, got {self.kind!r}")

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec, kill=False):
        """Parse ``"before:<phase>"``, ``"after:<phase>"`` or
        ``"sample:<phase>:<n>"``.  Underscores in the phase name stand
        for spaces, so specs survive shells unquoted."""
        parts = spec.split(":")
        if len(parts) == 2:
            kind, phase = parts
            index = 1
        elif len(parts) == 3:
            kind, phase, raw = parts
            try:
                index = int(raw)
            except ValueError as exc:
                raise ValueError(f"bad sample index in crash spec {spec!r}") from exc
        else:
            raise ValueError(
                f"bad crash spec {spec!r}; want kind:phase or sample:phase:n"
            )
        return cls(kind=kind, phase=phase.replace("_", " "), index=index, kill=kill)

    @classmethod
    def sweep(cls, phases, kill=False):
        """One plan per phase boundary, in driver order -- the full
        crash-at-every-phase table the durability tests iterate."""
        plans = []
        for phase in phases:
            plans.append(cls(kind="before", phase=phase, kill=kill))
            plans.append(cls(kind="after", phase=phase, kill=kill))
        return plans

    @classmethod
    def random(cls, seed, phases, max_sample_index=8, kill=False):
        """A seeded random crash point over the phase table (soak
        harnesses want coverage without enumerating the sweep)."""
        rng = random.Random(seed)
        kind = rng.choice(KINDS)
        phase = rng.choice(list(phases))
        index = rng.randint(1, max_sample_index) if kind == "sample" else 1
        return cls(kind=kind, phase=phase, index=index, kill=kill)

    # -- firing ---------------------------------------------------------

    def matches(self, kind, phase, index=None):
        if self.fired or kind != self.kind or phase != self.phase:
            return False
        if kind == "sample":
            return index is not None and index >= self.index
        return True

    def fire(self, kind, phase, index=None):
        """Crash now.  In ``kill`` mode the call never returns."""
        self.fired = True
        if self.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(kind, phase, index)

    def check(self, kind, phase, index=None):
        """The driver's hook: crash iff this is the scheduled point."""
        if self.matches(kind, phase, index):
            self.fire(kind, phase, index)

    def describe(self):
        mode = "SIGKILL" if self.kill else "raise"
        if self.kind == "sample":
            return f"crash[{mode}] in {self.phase!r} at sample record {self.index}"
        return f"crash[{mode}] {self.kind} {self.phase!r}"

    def spec(self):
        """The ``--crash-at`` spec string that parses back to this plan
        (inverse of :meth:`parse`; spaces become underscores)."""
        phase = self.phase.replace(" ", "_")
        if self.kind == "sample":
            return f"{self.kind}:{phase}:{self.index}"
        return f"{self.kind}:{phase}"


class FleetKillPlan:
    """A seeded schedule of whole-worker SIGKILLs across a campaign
    fleet -- the supervisor-level chaos harness.

    Where :class:`CrashPlan` kills one process at one point, a fleet
    kill plan assigns each campaign a *sequence* of crash points: the
    campaign's first worker dies at the first point, the adopted worker
    at the second, and so on until the schedule is spent and the final
    worker runs to completion.  The supervisor injects each point as
    ``--crash-at SPEC --crash-kill``, so the worker SIGKILLs itself at
    a phase or mid-phase boundary -- a real unclean death, observed by
    the supervisor as a vanished lease and exit code ``-SIGKILL``.

    Seeding is per-target (``f"{seed}:{target}"``), so a schedule is
    reproducible for any subset of targets in any order, and two
    supervisors given the same seed agree on every kill.
    """

    def __init__(self, schedule):
        self.schedule = dict(schedule)

    @classmethod
    def seeded(
        cls,
        seed,
        targets,
        phases,
        sample_phases=None,
        kills_per_campaign=2,
        max_sample_index=6,
    ):
        """Draw ``kills_per_campaign`` crash points for every target.
        ``sample`` (mid-phase) points are aimed at *sample_phases* --
        the driver's fan-out phases, where per-sample records give the
        boundary meaning -- so every drawn kill can actually fire."""
        sample_phases = list(sample_phases or phases)
        schedule = {}
        for target in targets:
            rng = random.Random(f"{seed}:{target}")
            plans = []
            for _ in range(kills_per_campaign):
                kind = rng.choice(KINDS)
                if kind == "sample":
                    phase = rng.choice(sample_phases)
                    index = rng.randint(1, max_sample_index)
                else:
                    phase = rng.choice(list(phases))
                    index = 1
                plans.append(
                    CrashPlan(kind=kind, phase=phase, index=index, kill=True)
                )
            schedule[target] = plans
        return cls(schedule)

    @classmethod
    def explicit(cls, schedule):
        """Build from ``{target: [spec, ...]}`` crash-spec strings (the
        sweep tests pin exact phase/mid-phase boundaries this way)."""
        return cls(
            {
                target: [CrashPlan.parse(spec, kill=True) for spec in specs]
                for target, specs in schedule.items()
            }
        )

    def spec_for(self, target, attempt):
        """The ``--crash-at`` spec for a campaign's *attempt* (1-based),
        or None once the target's schedule is spent (the attempt that
        runs clean to completion)."""
        plans = self.schedule.get(target, ())
        if 1 <= attempt <= len(plans):
            return plans[attempt - 1].spec()
        return None

    def describe(self):
        lines = []
        for target, plans in self.schedule.items():
            points = ", ".join(p.describe() for p in plans) or "(none)"
            lines.append(f"{target}: {points}")
        return "\n".join(lines)
