"""The generated code generator: from a MachineSpec to target assembly.

A BEG-generated back end "will perform no optimization, not even local
common subexpression elimination" (paper section 7.1.1); ours follows
suit with a deliberately simple slot-machine model: every intermediate
value lives in a frame slot, registers are only live inside one rule
application, so discovered emission templates can never clash with live
values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.beg.ir import (
    Assign,
    BinOp,
    Branch,
    Const,
    Exit,
    Jump,
    Label,
    Local,
    Print,
    RELATIONS,
    UnOp,
)
from repro.discovery.asmmodel import DImm, DInstr, DReg, DSym, instantiate, template_slots
from repro.errors import ReproError


class BackendError(ReproError):
    """The generated back end cannot compile this program."""


class GeneratedBackend:
    """A code generator produced from a discovered machine description."""

    def __init__(self, spec):
        self.spec = spec
        self.syntax = spec.syntax
        if spec.frame is None or not spec.frame.slots:
            raise BackendError("machine description has no frame model")
        self.slots = spec.frame.slots
        # The last frame slot is reserved for the print idiom.
        self.print_slot = self.slots[-1]
        self.max_slots = len(self.slots) - 1
        self.registers = RegisterClasses.of_spec(spec)

    # ------------------------------------------------------------------

    def compile_ir(self, program):
        """Compile an IRProgram to target assembly text."""
        if program.locals_used > self.max_slots:
            raise BackendError(
                f"program needs {program.locals_used} locals; frame has {self.max_slots}"
            )
        self._lines = []
        self._label_map = {}
        for stmt in program.stmts:
            self._gen_stmt(stmt, program)
        out = []
        out.extend(self.spec.frame.data_lines)
        out.extend(self.spec.frame.prologue_lines)
        out.extend(self._lines)
        return "\n".join(out) + "\n"

    # -- emission helpers ------------------------------------------------

    def _emit(self, instrs):
        for instr in instrs:
            self._lines.append(self.syntax.render_instr(instr))

    def _emit_label(self, name):
        self._lines.append(f"{self._ir_label(name)}:")

    def _ir_label(self, name):
        if name not in self._label_map:
            self._label_map[name] = f"T{len(self._label_map)}_{name}"
        return self._label_map[name]

    # -- values --------------------------------------------------------------

    def _load(self, slot_index, reg):
        self._emit(
            instantiate(
                self.spec.load_template,
                {"slot": self.slots[slot_index], "dest": DReg(reg)},
            )
        )

    def _store(self, reg, slot_index):
        self._emit(
            instantiate(
                self.spec.store_template,
                {"src": DReg(reg), "slot": self.slots[slot_index]},
            )
        )

    def _store_to_mem(self, reg, mem):
        self._emit(
            instantiate(self.spec.store_template, {"src": DReg(reg), "slot": mem})
        )

    def _load_imm(self, value, reg):
        self._emit([self.syntax.load_imm_instr(value, reg)])

    # -- expressions -------------------------------------------------------------

    def _gen_expr(self, expr, temps):
        """Evaluate *expr* into a frame slot; returns the slot index."""
        if isinstance(expr, Local):
            return expr.index
        if isinstance(expr, Const):
            registers = self.registers
            reg = take_register(registers.pool(), registers.loadimm, registers.store_src)
            self._load_imm(expr.value, reg)
            slot = temps.take()
            self._store(reg, slot)
            return slot
        if isinstance(expr, UnOp):
            rule = self.spec.rules.get(expr.op)
            if rule is None:
                raise BackendError(f"no rule for {expr.op} on {self.spec.target}")
            operand_slot = self._gen_expr(expr.operand, temps)
            return self._apply_rule(rule, operand_slot, None, temps)
        if isinstance(expr, BinOp):
            rule = self.spec.rules.get(expr.op)
            imm_rule = self.spec.imm_rules.get(expr.op)
            if (
                imm_rule is not None
                and isinstance(expr.right, Const)
                and _imm_fits(imm_rule, expr.right.value)
            ):
                left_slot = self._gen_expr(expr.left, temps)
                return self._apply_rule(
                    imm_rule, left_slot, None, temps, imm=expr.right.value
                )
            if rule is None:
                raise BackendError(f"no rule for {expr.op} on {self.spec.target}")
            left_slot = self._gen_expr(expr.left, temps)
            right_slot = self._gen_expr(expr.right, temps)
            return self._apply_rule(rule, left_slot, right_slot, temps)
        raise BackendError(f"cannot generate IR expression {expr!r}")

    def _apply_rule(self, rule, left_slot, right_slot, temps, imm=None):
        binding = bind_rule(
            rule,
            self.registers,
            right=right_slot is not None,
            imm=None if imm is None else DImm(imm, self.syntax.imm_prefix),
        )
        inputs = binding.input_regs
        if "left" in inputs:
            self._load(left_slot, inputs["left"])
        if "right" in inputs:
            self._load(right_slot, inputs["right"])
        temps.release(left_slot, right_slot)
        self._emit(instantiate(rule.instrs, binding.mapping))
        out_slot = temps.take()
        if binding.out_reg is None:
            raise BackendError(f"rule {rule.ir_op} produces no result")
        self._store(binding.out_reg, out_slot)
        return out_slot

    # -- statements -----------------------------------------------------------------

    def _gen_stmt(self, stmt, program):
        temps = _TempSlots(program.locals_used, self.max_slots)
        if isinstance(stmt, Assign):
            slot = self._gen_expr(stmt.value, temps)
            if slot != stmt.target.index:
                reg = take_register(self.registers.pool(), self.registers.value)
                self._load(slot, reg)
                self._store(reg, stmt.target.index)
        elif isinstance(stmt, Branch):
            relation = RELATIONS[stmt.op]
            rule = self.spec.branch.rules.get(relation) if self.spec.branch else None
            if rule is None:
                raise BackendError(f"no branch rule for {stmt.op}")
            left_slot = self._gen_expr(stmt.left, temps)
            right_slot = self._gen_expr(stmt.right, temps)
            binding = bind_branch(
                rule, self.registers, DSym(self._ir_label(stmt.label))
            )
            self._load(left_slot, binding.input_regs["left"])
            self._load(right_slot, binding.input_regs["right"])
            self._emit(instantiate(rule.instrs, binding.mapping))
        elif isinstance(stmt, Jump):
            if not self.spec.branch or not self.spec.branch.uncond:
                raise BackendError("no unconditional jump discovered")
            self._emit([DInstr(self.spec.branch.uncond, [DSym(self._ir_label(stmt.label))])])
        elif isinstance(stmt, Label):
            self._emit_label(stmt.name)
        elif isinstance(stmt, Print):
            slot = self._gen_expr(stmt.value, temps)
            reg = take_register(self.registers.pool(), self.registers.value)
            self._load(slot, reg)
            self._store_to_mem(reg, self.print_slot)
            self._emit(
                instantiate(
                    self.spec.frame.print_template, {"print_slot": self.print_slot}
                )
            )
        elif isinstance(stmt, Exit):
            self._emit(instantiate(self.spec.frame.exit_template, {}))
        else:
            raise BackendError(f"cannot generate IR statement {stmt!r}")


# -- binding: the one place a template's slots get their operands ------


class RegisterClasses:
    """The registers a rule application may take: a pool in order and
    the probed move classes as sets (None: unconstrained)."""

    def __init__(self, pool, load_dest=None, store_src=None, loadimm=None):
        self.allocatable = tuple(pool)
        self.load_dest = _as_set(load_dest)
        self.store_src = _as_set(store_src)
        self.loadimm = _as_set(loadimm)
        #: class for a general value register (loadable and storable)
        self.value = _intersect(self.load_dest, self.store_src)

    @classmethod
    def of_spec(cls, spec):
        """A spec's allocatable registers and probed move classes."""
        return cls(
            spec.allocatable, spec.load_dest_class, spec.store_src_class, spec.loadimm_class
        )

    def pool(self):
        """A fresh pool: registers live only inside one application."""
        return list(self.allocatable)


@dataclass
class Binding:
    """One application of a template: the operand each slot gets, the
    registers the caller loads the inputs into, and the register that
    holds the application's value afterwards (None: no result)."""

    mapping: dict  # slot name -> operand
    input_regs: dict  # "left"/"right" -> register
    out_reg: str | None = None


def take_register(pool, *classes):
    """Take the first register of *pool* in every (non-None) class."""
    allowed = _intersect(*classes)
    for i, reg in enumerate(pool):
        if allowed is None or reg in allowed:
            return pool.pop(i)
    raise BackendError("out of allocatable registers in a rule")


def bind_rule(rule, registers, right=False, imm=None):
    """Bind an operator rule's slots for one application.

    ``right`` says the rule is applied to a right operand register;
    ``imm`` is the operand the caller supplies for ``<imm>``.  Raises
    :class:`BackendError` when a slot the template names stays unbound.
    """
    pool = registers.pool()
    slots = rule.slots_used()
    two_address = rule.two_address
    inputs = {}
    result_reg = None
    if "result" in slots or two_address:
        constraints = [_slot_class(rule, "result"), registers.store_src]
        if two_address:
            constraints += [_slot_class(rule, "left"), registers.load_dest]
        result_reg = take_register(pool, *constraints)
    if two_address:
        inputs["left"] = result_reg
    elif "left" in slots:
        inputs["left"] = take_register(pool, _slot_class(rule, "left"), registers.load_dest)
    if right and "right" in slots:
        inputs["right"] = take_register(pool, _slot_class(rule, "right"), registers.load_dest)
    mapping = {name: DReg(reg) for name, reg in inputs.items()}
    if imm is not None:
        mapping["imm"] = imm
    _bind_scratches(rule, slots, pool, mapping)
    if result_reg is not None:
        mapping["result"] = DReg(result_reg)
    _check_bound(slots, mapping)
    return Binding(mapping, inputs, rule.result_literal or result_reg)


def bind_branch(rule, registers, label):
    """Bind a branch rule's slots: the two operand registers the back
    end loads, the caller's *label* operand and any scratch registers."""
    pool = registers.pool()
    inputs = {
        name: take_register(pool, _slot_class(rule, name), registers.load_dest)
        for name in ("left", "right")
    }
    mapping = {name: DReg(reg) for name, reg in inputs.items()}
    mapping["label"] = label
    slots = template_slots(rule.instrs)
    _bind_scratches(rule, slots, pool, mapping)
    _check_bound(slots, mapping)
    return Binding(mapping, inputs)


def _slot_class(rule, name):
    return rule.slot_classes.get(name) or None


def _bind_scratches(rule, slots, pool, mapping):
    for name in sorted(slots):
        if name.startswith("scratch"):
            mapping[name] = DReg(take_register(pool, _slot_class(rule, name)))


def _check_bound(slots, mapping):
    if not mapping.keys() >= slots:
        unbound = min(slots - mapping.keys())
        raise BackendError(f"unbound template slot {unbound!r}")


def _as_set(values):
    return set(values) if values else None


def _intersect(*classes):
    live = [c for c in classes if c is not None]
    if not live:
        return None
    out = set(live[0])
    for c in live[1:]:
        out.intersection_update(c)
    return out


def _imm_fits(rule, value):
    if rule.imm_range is None:
        return True
    lo, hi = rule.imm_range
    return lo <= value <= hi


class _TempSlots:
    """Per-statement temporary slot allocator.  A temp is released once
    the rule consuming it has loaded it; a fresh slot goes out before a
    released one, so a statement that fits the fresh slots compiles as
    if nothing were released."""

    def __init__(self, base, limit):
        self.base = base
        self.next = base
        self.limit = limit
        self.released = []

    def take(self):
        if self.next < self.limit:
            self.next += 1
            return self.next - 1
        if self.released:
            return self.released.pop()
        raise BackendError("expression too deep for the frame's temp slots")

    def release(self, *slots):
        # slots below ``base`` are locals, and None is an absent operand
        self.released += [s for s in slots if s is not None and s >= self.base]
