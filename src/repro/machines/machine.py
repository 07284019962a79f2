"""The remote-target façade the discovery unit talks to.

In the paper the user supplies "the internet address of the target
machine and the command-lines by which the C compiler, assembler, and
linker are invoked"; everything else happens over ``rsh``.
:class:`RemoteMachine` plays that role here.  Its surface is deliberately
narrow and opaque -- compile C to assembly text, assemble text to an
opaque object handle, link handles to an opaque executable handle,
execute -- so the discovery unit can only learn what the paper's system
could learn.

Invocation counters are kept per machine so benchmarks can report how
many target interactions (especially executions, the expensive mutation
currency) an analysis costs.

:class:`MachineLayer` is the base of every layer of a connection stack
(this façade at the bottom, then fault injection, resilience and the
probe cache above it): it owns the wrapped ``inner`` layer, the
passthrough of the bottom layer's ``target``, ``toolchain`` and
``stats``, and the conveniences built from the four verbs.
:func:`layer_attr` is the one walk down a stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.counters import Counters
from repro.errors import AssemblerError, LinkerError
from repro.machines import alpha, m68k, mips, sparc, vax, x86
from repro.machines.assembler import Assembler
from repro.machines.executor import run as execute_program
from repro.machines.linker import link as link_objects
from repro.machines.runtime import sparc_runtime, standard_runtime

_TARGETS = {
    "x86": (x86.build_isa, standard_runtime),
    "mips": (mips.build_isa, standard_runtime),
    "sparc": (sparc.build_isa, sparc_runtime),
    "alpha": (alpha.build_isa, standard_runtime),
    "vax": (vax.build_isa, standard_runtime),
    "m68k": (m68k.build_isa, standard_runtime),
}


def target_names():
    """Names of all simulated targets."""
    return sorted(_TARGETS)


@dataclass(frozen=True)
class MachineModel:
    """A target's architectural model, without the remote-verb surface.

    This is what the spec verifier consumes: the ISA (instruction forms,
    registers, ABI, ``symbolic_step``) and the runtime builtins -- but no
    probe/compile machinery, so discovery's black-box discipline is
    untouched.
    """

    target: str
    isa: object
    runtime: dict


def build_model(target):
    """Build the :class:`MachineModel` for *target*."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}; have {target_names()}")
    build_isa, build_runtime = _TARGETS[target]
    return MachineModel(target=target, isa=build_isa(), runtime=build_runtime())


@dataclass(frozen=True)
class Toolchain:
    """The command lines of paper section 2, kept for fidelity of the
    user-facing story (they select which simulated tool runs)."""

    host: str = "kea.cs.auckland.ac.nz"
    cc: str = "cc -S -O %o %i"
    asm: str = "as -o %o %i"
    ld: str = "ld -o %o %i"


class ObjectHandle:
    """Opaque handle for an assembled object file."""

    __slots__ = ("_obj",)

    def __init__(self, obj):
        self._obj = obj

    def __repr__(self):
        return f"<object {self._obj.isa_name} {len(self._obj.instrs)} instrs>"


class ExecutableHandle:
    """Opaque handle for a linked program."""

    __slots__ = ("_program",)

    def __init__(self, program):
        self._program = program

    def __repr__(self):
        return f"<a.out {self._program.isa.name} {len(self._program.instrs)} instrs>"


@dataclass
class MachineStats(Counters):
    """Counts of target interactions (the paper's dominant cost)."""

    DERIVED = ("total_verbs",)

    compilations: int = 0
    assemblies: int = 0
    assembly_errors: int = 0
    links: int = 0
    executions: int = 0

    @property
    def total_verbs(self):
        """Remote round-trips: the paper's dominant cost."""
        return self.compilations + self.assemblies + self.links + self.executions


class MachineLayer:
    """One layer of a connection stack over the four remote verbs.

    A wrapper passes *inner*, the layer below it, and reads the bottom
    layer's ``target``, ``toolchain`` and ``stats`` through it; the
    bottom layer (:class:`RemoteMachine`) has no ``inner`` and sets the
    three itself.  Subclasses define ``compile_c``, ``assemble``,
    ``link``, ``execute`` and ``clone_connection``; the conveniences
    below go through those verbs, so every layer's behaviour applies to
    them.

    A layer that counts creates its counters once and hands the same
    object to each clone, so the primary connection reports the whole
    pool (see :class:`~repro.counters.Counters`).
    """

    def __init__(self, inner):
        self.inner = inner
        self.target = inner.target
        self.toolchain = inner.toolchain
        self.stats = inner.stats

    def assembles_ok(self, asm_text):
        """Accept/reject probe: does the assembler take this program?"""
        try:
            self.assemble(asm_text)
        except AssemblerError:
            return False
        return True

    def run_c(self, sources, headers=None):
        """compile + assemble + link + execute a list of C sources."""
        objects = [self.assemble(self.compile_c(src, headers)) for src in sources]
        return self.execute(self.link(objects))

    def run_asm(self, asm_texts):
        """assemble + link + execute a list of assembly sources."""
        objects = [self.assemble(text) for text in asm_texts]
        return self.execute(self.link(objects))


def layer_attr(machine, name):
    """The attribute *name* of the outermost layer of *machine*'s stack
    that sets it (not None), or None when no layer does.

    Follows ``inner`` and reads every layer by duck typing, so test
    doubles and wrappers that do not derive from :class:`MachineLayer`
    are walked too."""
    while machine is not None:
        value = getattr(machine, name, None)
        if value is not None:
            return value
        machine = getattr(machine, "inner", None)
    return None


class RemoteMachine(MachineLayer):
    """A simulated target host reachable "over the network".

    The four verbs mirror the tools the paper requires of a target:
    an assembly-producing C compiler, an assembler that flags illegal
    input, a linker, and remote execution.
    """

    def __init__(self, target, toolchain=None, fuel=500_000, latency=0.0):
        if target not in _TARGETS:
            raise ValueError(f"unknown target {target!r}; have {target_names()}")
        build_isa, build_runtime = _TARGETS[target]
        self.target = target
        self.toolchain = toolchain or Toolchain()
        self.fuel = fuel
        #: simulated network round-trip per remote verb, in seconds; the
        #: wait happens outside the simulated tool, so concurrent
        #: connections overlap it exactly as real rsh sessions would
        self.latency = latency
        self._isa = build_isa()
        self._runtime = build_runtime()
        self._assembler = Assembler(self._isa)
        self._codegen = None
        self.stats = MachineStats()

    def clone_connection(self, index=0):
        """Open another connection to the same target host.

        The clone has its own toolchain session state (assembler, code
        generator), so concurrent use from one worker per connection is
        safe, and counts into this machine's :class:`MachineStats`.
        """
        clone = RemoteMachine(
            self.target, toolchain=self.toolchain, fuel=self.fuel, latency=self.latency
        )
        clone.stats = self.stats
        return clone

    def _round_trip(self):
        if self.latency:
            time.sleep(self.latency)

    # -- the four remote verbs ----------------------------------------

    def compile_c(self, source, headers=None):
        """Run the native C compiler: C source text -> assembly text.

        ``headers`` maps include names to their text (for ``#include
        "init.h"`` in the paper's Figure 3 samples).
        Raises :class:`~repro.errors.CompilerError` on bad programs.
        """
        self.stats.bump(compilations=1)
        self._round_trip()
        return self._get_codegen().compile(source, headers or {})

    def assemble(self, asm_text):
        """Run the native assembler; raises
        :class:`~repro.errors.AssemblerError` on illegal input."""
        self.stats.bump(assemblies=1)
        self._round_trip()
        try:
            return ObjectHandle(self._assembler.assemble(asm_text))
        except Exception:
            self.stats.bump(assembly_errors=1)
            raise

    def link(self, objects):
        """Run the native linker over object handles."""
        self.stats.bump(links=1)
        self._round_trip()
        objs = []
        for handle in objects:
            if not isinstance(handle, ObjectHandle):
                raise LinkerError(f"not an object handle: {handle!r}")
            objs.append(handle._obj)
        return ExecutableHandle(link_objects(objs, self._isa, self._runtime))

    def execute(self, executable):
        """Run the program "remotely"; returns
        :class:`~repro.machines.executor.ExecResult` (never raises)."""
        self.stats.bump(executions=1)
        self._round_trip()
        if not isinstance(executable, ExecutableHandle):
            raise LinkerError(f"not an executable handle: {executable!r}")
        return execute_program(executable._program, fuel=self.fuel)

    def _get_codegen(self):
        if self._codegen is None:
            from repro.cc import compiler_for

            self._codegen = compiler_for(self.target)
        return self._codegen
