"""ISA description model.

An :class:`Isa` bundles everything the generic assembler, linker and
executor need to know about one target: the register file, the assembly
syntax, the instruction table (each instruction a set of *forms* with an
operand signature and an executable semantics hook), and the ABI used to
call runtime builtins such as ``printf``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.machines.operands import Imm, Mem, Reg, coerce_to_signature


@dataclass(frozen=True)
class RegisterDef:
    """One architectural register.

    ``hardwired`` gives the constant value of a read-only register (the
    SPARC's ``%g0``); writes to it are discarded.  ``allocatable`` marks
    registers a code generator may use freely (so not the stack or frame
    pointer).
    """

    name: str
    aliases: tuple = ()
    hardwired: int | None = None
    allocatable: bool = True
    klass: str = "gpr"


@dataclass
class InstrForm:
    """One operand-shape of an instruction.

    ``signature`` is a tuple of kind-letter strings (see
    :func:`repro.machines.operands.matches_signature`).  ``execute`` is
    called as ``execute(state, operands)`` and performs the semantics.
    ``imm_ranges`` maps operand positions to the inclusive ``(lo, hi)``
    range the assembler accepts (the paper's SPARC ``[-4096, 4095]``).
    ``reg_constraints`` maps operand positions to the set of register
    names allowed there (the x86 shift count, SPARC software-multiply
    argument registers, ...).
    """

    signature: tuple
    execute: object
    imm_ranges: dict = field(default_factory=dict)
    reg_constraints: dict = field(default_factory=dict)


@dataclass
class InstrDef:
    """All forms sharing one mnemonic."""

    mnemonic: str
    forms: list


class SyntaxDef:
    """Per-target assembly syntax: operand parsing/rendering and lexical
    conventions.  Subclassed by each target module."""

    #: character starting a comment that extends to end of line
    comment_char = "#"
    #: integer literal prefixes the assembler accepts, mapping prefix -> base
    literal_bases = {"": 10, "0x": 16, "0": 8}
    #: whether hex digits may be upper case
    hex_upper_ok = True

    def parse_operand(self, text):
        """Parse one operand; raise ``ValueError`` on malformed input."""
        raise NotImplementedError

    def render_operand(self, op):
        """Render an operand back to assembly text."""
        raise NotImplementedError

    def parse_int(self, text):
        """Parse an integer literal per this assembler's accepted bases.

        Returns ``None`` if *text* is not a literal.
        """
        t = text.strip()
        neg = t.startswith("-")
        if neg:
            t = t[1:]
        if not t:
            return None
        for prefix, base in self._bases_longest_first:
            if prefix:
                if not t.startswith(prefix):
                    continue
                body = t[len(prefix):]
            else:
                body = t
            if not body:
                continue
            if base == 10 and not body.isdigit():
                continue
            if base == 16 and not self.hex_upper_ok and body != body.lower():
                continue
            try:
                value = int(body, base)
            except ValueError:
                continue
            return -value if neg else value
        return None

    @functools.cached_property
    def _bases_longest_first(self):
        # Longest prefix first so "0x" wins over "0".
        return sorted(self.literal_bases.items(), key=lambda item: len(item[0]), reverse=True)


class Abi:
    """How integer arguments/results flow at a call boundary.

    Used by the executor to run runtime builtins (``printf``, ``exit``,
    the SPARC ``.mul`` family) and to set up the initial call of ``main``.
    Subclassed per target.
    """

    def get_arg(self, state, index):
        raise NotImplementedError

    def set_retval(self, state, value):
        raise NotImplementedError

    def do_return(self, state):
        """Unwind one call frame and set ``state.pc`` to the return point."""
        raise NotImplementedError

    def setup_entry(self, state, entry_index, halt_index):
        """Arrange for execution to start at *entry_index* and for a
        return from it to land on *halt_index*."""
        raise NotImplementedError


@dataclass
class Isa:
    """A complete target description."""

    name: str
    word_bits: int
    endian: str  # "little" or "big"
    registers: list
    instructions: dict
    syntax: SyntaxDef
    abi: Abi
    int_size: int = 4
    char_size: int = 1
    pointer_size: int = 4
    stack_start: int = 0x8_0000
    data_start: int = 0x1_0000
    #: mnemonics that transfer control to a label operand as a call
    call_mnemonics: tuple = ()
    #: number of delay slots following calls/branches (SPARC: 1 for calls)
    call_delay_slots: int = 0

    def __post_init__(self):
        self._regmap = {}
        for reg in self.registers:
            self._regmap[reg.name] = reg
            for alias in reg.aliases:
                self._regmap[alias] = reg
        # Name or alias -> canonical name, built once for the executor's
        # register file: every register can be read, hardwired ones
        # cannot be written.
        self.reg_read_map = {name: reg.name for name, reg in self._regmap.items()}
        self.reg_write_map = {
            name: reg.name for name, reg in self._regmap.items() if reg.hardwired is None
        }

    @property
    def word_bytes(self):
        return self.word_bits // 8

    def lookup_reg(self, name):
        """Resolve a register name or alias; ``None`` if unknown."""
        return self._regmap.get(name)

    def canonical_reg(self, name):
        reg = self.lookup_reg(name)
        return reg.name if reg else None

    def register_names(self, allocatable_only=False):
        if allocatable_only:
            return [r.name for r in self.registers if r.allocatable and r.hardwired is None]
        return [r.name for r in self.registers]

    # -- machine-model hooks for the spec verifier --------------------

    def resolve_form(self, mnemonic, operands):
        """Select the instruction form *operands* would assemble to.

        Returns ``(form, coerced_operands)`` or ``None`` when nothing
        matches (see :meth:`select_form`).
        """
        form, coerced, _ = self.select_form(self.form_shape(mnemonic, operands), operands)
        return None if form is None else (form, coerced)

    def form_shape(self, mnemonic, operands):
        """The part of form selection that depends only on the operands'
        shape (their kinds, register names and whether they hold a
        ``Sym``), not on their integer values.

        For each form of *mnemonic*, in order: ``(form, coerce,
        refusal)``.  *coerce* is None when the operands do not fit the
        form's signature, else the function that coerces operands of
        this shape to it (``list`` when they fit as they are); *refusal*
        is what refuses the form whatever the values -- the mismatch, a
        register-constraint violation -- or None.
        """
        instr_def = self.instructions.get(mnemonic)
        shape = []
        for form in instr_def.forms if instr_def else ():
            coerced = coerce_to_signature(operands, form.signature)
            if coerced is None:
                shape.append((form, None, "operands do not match any form"))
                continue
            if all(new is old for new, old in zip(coerced, operands)):
                coerce = list
            else:
                coerce = functools.partial(coerce_to_signature, signature=form.signature)
            shape.append((form, coerce, self._constraint_violation(form, coerced)))
        return tuple(shape)

    def select_form(self, shape, operands):
        """The assembler's first-matching-form selection: pick the first
        form of *shape* (:meth:`form_shape`, taken for operands of this
        shape) that *operands* fit.

        A fitting form is checked for immediate ranges (skipped for
        non-integer values, so symbolic immediates pass), then for its
        register constraints.  Returns ``(form, coerced_operands,
        None)`` for the first form that passes, else ``(None, None,
        why)`` where *why* says what refused the last form (``None``
        when there are no forms).
        """
        why = None
        for form, coerce, refusal in shape:
            if coerce is None:
                why = refusal
                continue
            # Coercion only turns a Bare into a Sym-holding operand, which
            # no range reads, so the uncoerced operands give the verdict.
            why = self._range_violation(form, operands) or refusal
            if why is None:
                return form, coerce(operands), None
        return None, None, why

    def _range_violation(self, form, operands):
        for index, (lo, hi) in form.imm_ranges.items():
            op = operands[index]
            value = None
            if isinstance(op, Imm) and isinstance(op.value, int):
                value = op.value
            elif isinstance(op, Mem) and isinstance(op.disp, int):
                value = op.disp
            if value is not None and not lo <= value <= hi:
                return f"immediate {value} out of range [{lo},{hi}]"
        return None

    def _constraint_violation(self, form, operands):
        for index, allowed in form.reg_constraints.items():
            op = operands[index]
            if isinstance(op, Reg):
                allowed_canon = {self.canonical_reg(a) for a in allowed}
                if self.canonical_reg(op.name) not in allowed_canon:
                    return f"register {op.name} not allowed in position {index}"
        return None

    def symbolic_step(self, state, mnemonic, operands):
        """Execute one instruction's semantics against *state*.

        The contract for translation validation: *state* may hold
        symbolic register/memory values (:mod:`repro.analysis.symexec`);
        the semantics hooks run unchanged because all word arithmetic
        routes through :mod:`repro.wordops`.  Data-dependent control flow
        raises ``SymbolicEscape`` from inside the hook; form-resolution
        failure raises :class:`~repro.errors.ExecutionError`.
        """
        resolved = self.resolve_form(mnemonic, operands)
        if resolved is None:
            raise ExecutionError(
                f"{self.name}: no form of {mnemonic!r} matches {operands!r}"
            )
        form, coerced = resolved
        form.execute(state, coerced)
        return form
