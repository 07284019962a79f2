"""Simulated target machines (the paper's hardware substrate).

Each target (:mod:`repro.machines.sparc`, ``alpha``, ``mips``, ``vax``,
``x86``) supplies an :class:`~repro.machines.isa.Isa` describing its
register set, assembly syntax, and instruction semantics.  The generic
:mod:`~repro.machines.assembler`, :mod:`~repro.machines.linker` and
:mod:`~repro.machines.executor` are table-driven from the ISA.

The discovery unit never sees any of this directly: it talks to a
:class:`~repro.machines.machine.RemoteMachine`, which plays the role of
the remote host reached over ``rsh`` in the paper.
"""

from repro.machines.machine import RemoteMachine, Toolchain, target_names

__all__ = ["RemoteMachine", "Toolchain", "target_names"]
