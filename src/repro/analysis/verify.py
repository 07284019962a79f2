"""Translation validation of discovered machine descriptions.

The Synthesizer's output (:class:`~repro.beg.spec.MachineSpec`) claims,
for every IR operator, that a template instruction sequence computes that
operator.  This module *proves or refutes* each claim against the target
machine model -- the ISA's own instruction semantics via
``Isa.symbolic_step`` -- never against discovery internals, so a bug in
the probing pipeline cannot vouch for itself.

Per rule the obligation is: bind the template with the generated back
end's own binding (:func:`repro.beg.codegen.bind_rule` and
:func:`~repro.beg.codegen.bind_branch`), execute it over fresh symbolic
registers, and compare the result term against the IR reference
semantics.  Structural equality of normalised terms proves the
rule for *all* inputs; otherwise a deterministic, simplest-first concrete
battery hunts for a counterexample, reported as a SPEC10x diagnostic
carrying the minimal witness (input valuation, expected vs. got).
Cross-spec differential lint (SPEC11x) compares two discovered specs for
the same target the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import wordops
from repro.analysis.diagnostics import DiagnosticSet
from repro.analysis.symexec import (
    SymbolicEscape,
    SymMemory,
    SymVal,
    candidate_values,
    evaluate,
    fresh,
    ranked_product,
    term_vars,
)
from repro.beg.codegen import (
    BackendError,
    RegisterClasses,
    bind_branch,
    bind_rule,
    take_register,
)
from repro.beg.ir import UNARY_OPS, operator_named, relation_named
from repro.discovery.asmmodel import (
    DImm,
    DMem,
    DReg,
    DSym,
    Slot,
    instantiate,
    template_slots,
)
from repro.errors import ExecutionError
from repro.machines.executor import BUILTIN_BASE, ExecState, Memory
from repro.machines.operands import Imm, Lab, Mem, Reg

def build_model(target):
    """White-box machine model for *target*.

    Re-exported here so the (black-box) discovery tree can request
    translation validation without importing ``repro.machines`` itself;
    the white-box dependency stays inside the analysis layer.
    """
    from repro.machines.machine import build_model as _build_model

    return _build_model(target)


#: cap on concrete valuations tried per obligation
SAMPLE_LIMIT = 256

#: fuel for one template run (templates are a handful of instructions,
#: plus at most a builtin call)
TEMPLATE_FUEL = 512

DEFAULT_SEED = 1997

class _Unverifiable(Exception):
    """The obligation cannot even be posed: the template does not
    resolve against the machine model (-> SPEC104)."""


#: why an obligation cannot be posed (-> SPEC104): the back end cannot
#: bind the template, or the bound template does not lower
_UNPOSABLE = (BackendError, _Unverifiable)


@dataclass
class VerifyResult:
    """Outcome of verifying one spec: findings plus obligation counts."""

    diagnostics: DiagnosticSet = field(default_factory=DiagnosticSet)
    stats: dict = field(default_factory=dict)


# -- lowering template instructions onto the machine model --------------


def _builtin_ids(runtime):
    return {name: BUILTIN_BASE - i for i, name in enumerate(sorted(runtime))}


def _to_operand(dop, builtin_ids):
    """Lower one instantiated discovery operand to a machine operand."""
    if isinstance(dop, (Reg, Imm, Mem, Lab)):
        return dop  # already lowered by the binding (labels, symbolic imms)
    if isinstance(dop, DReg):
        return Reg(dop.name)
    if isinstance(dop, DImm):
        return Imm(dop.value)
    if isinstance(dop, DMem):
        if not isinstance(dop.disp, int):
            raise _Unverifiable(f"symbolic displacement {dop.disp!r}")
        return Mem(dop.disp, dop.base)
    if isinstance(dop, DSym):
        index = builtin_ids.get(dop.name)
        if index is None:
            raise _Unverifiable(f"unresolvable symbol {dop.name!r}")
        return Lab(index)
    if isinstance(dop, Slot):
        raise _Unverifiable(f"unbound template slot <{dop.name}>")
    raise _Unverifiable(f"cannot lower operand {dop!r}")


def _lower(instrs, mapping, builtin_ids):
    """Instantiate a template and lower it to (mnemonic, operands) pairs."""
    try:
        concrete = instantiate(instrs, mapping)
    except KeyError as exc:
        raise _Unverifiable(str(exc.args[0]) if exc.args else str(exc)) from None
    lowered = []
    for instr in concrete:
        ops = [_to_operand(op, builtin_ids) for op in instr.operands]
        lowered.append((instr.mnemonic, ops))
    return lowered


def _mem_slot(spec):
    """A frame slot DMem to exercise the load/store templates against,
    plus every base register the frame addresses through."""
    slots = spec.frame.slots if spec.frame is not None else []
    bases = {s.base for s in slots if isinstance(s, DMem) and s.base}
    usable = [s for s in slots if isinstance(s, DMem) and isinstance(s.disp, int)]
    if not usable:
        return None, bases
    return usable[0], bases


# -- machine states ----------------------------------------------------


def _make_state(isa, base_regs, symbolic):
    memory = SymMemory(isa.endian) if symbolic else Memory(isa.endian)
    state = ExecState(isa, memory)
    state.set_reg(isa.abi.stack_pointer, isa.stack_start)
    for reg in sorted(base_regs):
        state.set_reg(reg, isa.stack_start)
    return state


def _canon(isa, name):
    return isa.canonical_reg(name) or name


def _junk_fill(spec, isa, skip, fill):
    """Deterministic junk values for allocatable registers the template
    did not preload -- two different fills expose reads of uninitialised
    registers as run-to-run disagreement."""
    bits = isa.word_bits
    skip = {_canon(isa, name) for name in skip}
    values = {}
    for i, reg in enumerate(spec.allocatable):
        if _canon(isa, reg) in skip:
            continue
        values[reg] = wordops.mask(0x5A5A_5A5A_5A5A_5A5A * (fill + 1) + 0x9E37 * i, bits)
    return values


def _run_template(isa, runtime, lowered, state, stop_index, fuel=TEMPLATE_FUEL):
    """Concrete mini run-loop over a lowered template.

    Mirrors the executor's control conventions (delay slots, negative
    builtin indices).  Returns ``"done"`` when execution falls off the
    end, ``"stop"`` when it reaches *stop_index* (the branch sentinel).
    """
    builtin_ids = _builtin_ids(runtime)
    builtins = {builtin_ids[name]: runtime[name] for name in runtime}
    n = len(lowered)
    while True:
        fuel -= 1
        if fuel <= 0:
            raise ExecutionError("template execution ran away (out of fuel)")
        pc = state.pc
        if pc == n:
            return "done"
        if stop_index is not None and pc == stop_index:
            return "stop"
        if pc < 0:
            handler = builtins.get(pc)
            if handler is None:
                raise ExecutionError(f"jump to invalid builtin index {pc}")
            handler(state, isa.abi, isa)
            isa.abi.do_return(state)
            continue
        if pc > n:
            raise ExecutionError(f"template execution escaped (pc={pc})")
        if state.halted:
            raise ExecutionError("template halted the machine")
        mnemonic, operands = lowered[pc]
        state.pc = pc + 1
        isa.symbolic_step(state, mnemonic, operands)
        if state._pending_target is not None:
            state._pending_delay -= 1
            if state._pending_delay <= 0:
                state.pc = state._pending_target
                state._pending_target = None
        if state.halted:
            raise ExecutionError("template halted the machine")


def _sym_run(isa, lowered, state):
    """Straight-line symbolic execution; escapes on any control flow."""
    for i, (mnemonic, operands) in enumerate(lowered):
        state.pc = i + 1
        isa.symbolic_step(state, mnemonic, operands)
        if state.pc != i + 1 or state._pending_target is not None or state.halted:
            raise SymbolicEscape("control flow inside the template")


# -- the per-rule obligations ------------------------------------------


def _term_of(value, bits):
    masked = wordops.mask(value, bits)
    if isinstance(masked, SymVal):
        return masked.term
    return ("const", masked)


def _signed(value, bits):
    return wordops.to_signed(value, bits) if isinstance(value, int) else value


class _Verifier:
    def __init__(self, spec, model, seed=DEFAULT_SEED):
        self.spec = spec
        self.isa = model.isa
        self.runtime = model.runtime
        self.builtin_ids = _builtin_ids(model.runtime)
        self.seed = seed
        self.bits = self.isa.word_bits
        self.diagnostics = DiagnosticSet()
        self.stats = {
            "proven": 0,
            "sampled": 0,
            "refuted": 0,
            "unverifiable": 0,
            "obligations": 0,
        }
        self.registers = RegisterClasses.of_spec(spec)
        _, self.frame_bases = _mem_slot(spec)
        # Registers whose concrete value carries addressing state: never
        # replace them with junk or symbolic noise.
        self.preserve = {_canon(self.isa, self.isa.abi.stack_pointer)} | {
            _canon(self.isa, base) for base in self.frame_bases
        }

    # -- entry points --------------------------------------------------

    def run(self):
        spec = self.spec
        for ir_op in sorted(spec.rules):
            self._verify_op_rule(ir_op, spec.rules[ir_op], f"rules[{ir_op}]")
        for ir_op in sorted(spec.imm_rules):
            self._verify_imm_rule(ir_op, spec.imm_rules[ir_op], f"imm_rules[{ir_op}]")
        self._verify_moves()
        if spec.branch is not None:
            for relation in sorted(spec.branch.rules):
                self._verify_branch(relation, spec.branch.rules[relation])
        return VerifyResult(diagnostics=self.diagnostics, stats=dict(self.stats))

    # -- shared plumbing -----------------------------------------------

    def _add(self, code, message, where, data=None):
        self.diagnostics.add(
            code, message, where=where, target=self.spec.target, data=data
        )

    def _rng(self, where):
        return random.Random(f"{self.seed}:{self.spec.target}:{where}")

    def _candidates(self, where, name, bounds=None):
        rng = self._rng(f"{where}:{name}")
        extra = bounds if bounds else ()
        values = candidate_values(self.bits, rng, extra=extra)
        if bounds:
            lo, hi = bounds
            values = [v for v in values if lo <= v <= hi]
            if not values:
                values = [lo]
        return values

    def _witness(self, env, expected, got):
        data = {
            "inputs": {k: _signed(v, self.bits) for k, v in sorted(env.items())},
            "expected": _signed(expected, self.bits) if expected is not None else None,
            "got": got if isinstance(got, str) else _signed(got, self.bits),
        }
        inputs = ", ".join(f"{k}={v}" for k, v in data["inputs"].items())
        shown = got if isinstance(got, str) else _signed(got, self.bits)
        return data, f"{inputs} -> expected {data['expected']}, got {shown}"

    # -- operator rules -------------------------------------------------

    def _verify_op_rule(self, ir_op, rule, where, code="SPEC100"):
        self.stats["obligations"] += 1
        row = operator_named(ir_op)
        if row is None:
            self._add(code, f"{where}: unknown IR operator {ir_op!r}", where)
            self.stats["unverifiable"] += 1
            return
        unary = row.arity == 1
        try:
            binding = bind_rule(rule, self.registers, right=not unary)
            lowered = _lower(rule.instrs, binding.mapping, self.builtin_ids)
        except _UNPOSABLE as exc:
            self._add("SPEC104", f"{where}: {exc}", where)
            self.stats["unverifiable"] += 1
            return

        def reference(*vals):
            return row.word(*vals, self.bits)

        var_names = ["left"] if unary else ["left", "right"]
        bounds = {}
        # Shift counts outside [0, word_bits) are undefined in the source
        # language (the IR evaluator reduces them mod the word size, but
        # real hardware disagrees on them -- the VAX ``ashl`` treats its
        # count as signed and shifts the other way for negative counts),
        # so shift obligations quantify only over the defined domain, the
        # same way division obligations skip a zero divisor.
        if row.shift:
            bounds["right"] = (0, self.bits - 1)
        self._check_rule(where, code, binding, lowered, reference, var_names, bounds)

    def _verify_imm_rule(self, ir_op, rule, where):
        self.stats["obligations"] += 1
        row = operator_named(ir_op)
        if row is None or row.arity != 2:
            self._add("SPEC100", f"{where}: unknown IR operator {ir_op!r}", where)
            self.stats["unverifiable"] += 1
            return
        imm_range = rule.imm_range
        # The immediate stays an *unmasked* variable: codegen writes the
        # IR constant as-is (signed), and every reference operator is
        # well-defined on congruence classes, so both sides agree.
        imm_sym = fresh("imm")
        try:
            binding = bind_rule(rule, self.registers, imm=Imm(imm_sym))
            lowered = _lower(rule.instrs, binding.mapping, self.builtin_ids)
        except _UNPOSABLE as exc:
            self._add("SPEC104", f"{where}: {exc}", where)
            self.stats["unverifiable"] += 1
            return

        # Endpoint obligation: the assembler (mirrored by resolve_form)
        # must accept both ends of the advertised immediate range --
        # catches off-by-one CONDITIONs directly.
        if imm_range is not None:
            for endpoint in sorted(set(imm_range)):
                bad = self._endpoint_rejected(rule, binding, endpoint)
                if bad is not None:
                    data = {"inputs": {"imm": endpoint}, "expected": None, "got": bad}
                    self._add(
                        "SPEC100",
                        f"{where}: immediate {endpoint} is inside the advertised "
                        f"range {list(imm_range)} but the target rejects it ({bad})",
                        where,
                        data=data,
                    )
                    self.stats["refuted"] += 1
                    return

        def reference(left, imm):
            return row.word(left, imm, self.bits)

        imm_bounds = imm_range
        if row.shift:
            lo = 0 if imm_range is None else max(0, imm_range[0])
            hi = self.bits - 1 if imm_range is None else min(self.bits - 1, imm_range[1])
            imm_bounds = (lo, hi) if lo <= hi else (0, self.bits - 1)
        self._check_rule(
            where,
            "SPEC100",
            binding,
            lowered,
            reference,
            ["left", "imm"],
            {"imm": imm_bounds},
            imm_sym=imm_sym,
        )

    def _endpoint_rejected(self, rule, binding, value):
        """Does the machine reject this rule instantiated at imm=value?"""
        mapping = dict(binding.mapping)
        mapping["imm"] = Imm(value)
        try:
            lowered = _lower(rule.instrs, mapping, self.builtin_ids)
        except _Unverifiable as exc:
            return str(exc)
        for mnemonic, operands in lowered:
            if self.isa.resolve_form(mnemonic, operands) is None:
                return f"no form of {mnemonic!r} accepts the operands"
        return None

    def _check_rule(
        self, where, code, binding, lowered, reference, var_names, bounds, imm_sym=None
    ):
        """The core obligation: template result == reference, for all inputs."""
        bits = self.bits
        sym_inputs = {}
        for name in var_names:
            if name == "imm":
                sym_inputs[name] = imm_sym
            else:
                sym_inputs[name] = wordops.mask(fresh(name), bits)
        expected_sym = reference(*(sym_inputs[name] for name in var_names))
        expected_term = _term_of(expected_sym, bits)

        proven = False
        try:
            got_sym = self._sym_result(binding, lowered, sym_inputs)
            proven = _term_of(got_sym, bits) == expected_term
        except (SymbolicEscape, ExecutionError):
            pass
        if proven:
            self.stats["proven"] += 1
            return

        # Concrete battery, simplest valuations first: the first failure
        # is the minimal witness.
        candidate_lists = [
            self._candidates(where, name, bounds.get(name)) for name in var_names
        ]
        exercised = 0
        for values in ranked_product(candidate_lists, limit=SAMPLE_LIMIT):
            env = dict(zip(var_names, values))
            try:
                expected = evaluate(expected_term, env)
            except ZeroDivisionError:
                continue  # the reference is undefined here: vacuous
            exercised += 1
            results = []
            for fill in (0, 1):
                try:
                    results.append(self._concrete_result(binding, lowered, env, fill))
                except ExecutionError as exc:
                    results.append(f"error: {exc}")
            if isinstance(results[0], int) and isinstance(results[1], int):
                if results[0] != results[1]:
                    data, text = self._witness(env, expected, results[0])
                    data["got_other_fill"] = _signed(results[1], bits)
                    self._add(
                        code,
                        f"{where}: result depends on an uninitialised register "
                        f"({text} on one junk fill, "
                        f"{_signed(results[1], bits)} on another)",
                        where,
                        data=data,
                    )
                    self.stats["refuted"] += 1
                    return
            got = results[0]
            if isinstance(got, str) or got != expected:
                data, text = self._witness(env, expected, got)
                self._add(code, f"{where}: refuted: {text}", where, data=data)
                self.stats["refuted"] += 1
                return
        if exercised == 0:
            self._add("SPEC104", f"{where}: no admissible concrete valuation", where)
            self.stats["unverifiable"] += 1
            return
        self.stats["sampled"] += 1
        self._add(
            "SPEC105",
            f"{where}: no symbolic proof; verified by {exercised} concrete "
            "samples only",
            where,
        )

    def _sym_result(self, binding, lowered, sym_inputs):
        state = _make_state(self.isa, self.frame_bases, symbolic=True)
        for reg in self.spec.allocatable:
            if reg in binding.input_regs.values():
                continue
            if _canon(self.isa, reg) in self.preserve:
                continue
            state.set_reg(reg, fresh(f"junk:{reg}"))
        for name, reg in binding.input_regs.items():
            state.set_reg(reg, sym_inputs[name])
        _sym_run(self.isa, lowered, state)
        if binding.out_reg is None:
            raise SymbolicEscape("rule declares no result register")
        return state.get_reg(binding.out_reg)

    def _concrete_result(self, binding, lowered, env, fill):
        state = _make_state(self.isa, self.frame_bases, symbolic=False)
        skip = set(binding.input_regs.values()) | self.preserve
        for reg, value in _junk_fill(self.spec, self.isa, skip, fill).items():
            state.set_reg(reg, value)
        for name, reg in binding.input_regs.items():
            state.set_reg(reg, wordops.mask(env[name], self.bits))
        concrete = _substitute_imm(lowered, env)
        _run_template(self.isa, self.runtime, concrete, state, stop_index=None)
        if binding.out_reg is None:
            raise ExecutionError("rule declares no result register")
        return state.get_reg(binding.out_reg)

    # -- data-movement templates ---------------------------------------

    def _verify_moves(self):
        spec = self.spec
        slot_mem, _ = _mem_slot(spec)
        if spec.load_template and slot_mem is not None:
            self._verify_move(
                "load_template",
                spec.load_template,
                lambda reg: {"slot": slot_mem, "dest": DReg(reg)},
                reg_class=self.registers.load_dest,
                seed_memory=slot_mem,
                observe="register",
            )
        if spec.store_template and slot_mem is not None:
            self._verify_move(
                "store_template",
                spec.store_template,
                lambda reg: {"src": DReg(reg), "slot": slot_mem},
                reg_class=self.registers.store_src,
                seed_memory=None,
                observe=slot_mem,
            )
        if spec.reg_move:
            self._verify_reg_move(spec.reg_move)

    def _slot_addr(self, slot_mem):
        return self.isa.stack_start + slot_mem.disp

    def _verify_move(self, where, template, make_mapping, reg_class, seed_memory, observe):
        """Check a load or store template moves the value unchanged."""
        self.stats["obligations"] += 1
        try:
            reg = take_register(self.registers.pool(), reg_class)
            mapping = make_mapping(reg)
            lowered = _lower(template, mapping, self.builtin_ids)
        except _UNPOSABLE as exc:
            self._add("SPEC104", f"{where}: {exc}", where)
            self.stats["unverifiable"] += 1
            return
        bits = self.bits
        size = self.isa.word_bytes
        value_sym = wordops.mask(fresh("value"), bits)
        expected_term = _term_of(value_sym, bits)

        proven = False
        try:
            state = _make_state(self.isa, self.frame_bases, symbolic=True)
            for junk in self.spec.allocatable:
                if _canon(self.isa, junk) in self.preserve:
                    continue
                if junk != reg or seed_memory is not None:
                    state.set_reg(junk, fresh(f"junk:{junk}"))
            if seed_memory is not None:
                state.mem.store(self._slot_addr(seed_memory), value_sym, size)
            else:
                state.set_reg(reg, value_sym)
            _sym_run(self.isa, lowered, state)
            if observe == "register":
                got = state.get_reg(reg)
            else:
                got = state.mem.load(self._slot_addr(observe), size)
            proven = _term_of(got, bits) == expected_term
        except (SymbolicEscape, ExecutionError):
            pass
        if proven:
            self.stats["proven"] += 1
            return

        for value in self._candidates(where, "value"):
            env = {"value": value}
            expected = wordops.mask(value, bits)
            results = []
            for fill in (0, 1):
                state = _make_state(self.isa, self.frame_bases, symbolic=False)
                skip = (set() if seed_memory is not None else {reg}) | self.preserve
                for junk, jv in _junk_fill(self.spec, self.isa, skip, fill).items():
                    state.set_reg(junk, jv)
                if seed_memory is not None:
                    state.mem.store(self._slot_addr(seed_memory), expected, size)
                else:
                    state.set_reg(reg, expected)
                try:
                    _run_template(self.isa, self.runtime, lowered, state, None)
                    if observe == "register":
                        results.append(state.get_reg(reg))
                    else:
                        results.append(state.mem.load(self._slot_addr(observe), size))
                except ExecutionError as exc:
                    results.append(f"error: {exc}")
            got = results[0]
            if got != results[1] or isinstance(got, str) or got != expected:
                data, text = self._witness(env, expected, got)
                self._add("SPEC102", f"{where}: refuted: {text}", where, data=data)
                self.stats["refuted"] += 1
                return
        self.stats["sampled"] += 1
        self._add("SPEC105", f"{where}: verified by concrete sampling only", where)

    def _verify_reg_move(self, template):
        self.stats["obligations"] += 1
        where = "reg_move"
        try:
            pool = self.registers.pool()
            src = take_register(pool, self.registers.store_src)
            dest = take_register(pool, self.registers.load_dest)
            mapping = {"src": DReg(src), "dest": DReg(dest)}
            lowered = _lower(template, mapping, self.builtin_ids)
        except _UNPOSABLE as exc:
            self._add("SPEC104", f"{where}: {exc}", where)
            self.stats["unverifiable"] += 1
            return
        bits = self.bits
        value_sym = wordops.mask(fresh("value"), bits)
        expected_term = _term_of(value_sym, bits)
        proven = False
        try:
            state = _make_state(self.isa, self.frame_bases, symbolic=True)
            for junk in self.spec.allocatable:
                if junk != src and _canon(self.isa, junk) not in self.preserve:
                    state.set_reg(junk, fresh(f"junk:{junk}"))
            state.set_reg(src, value_sym)
            _sym_run(self.isa, lowered, state)
            proven = _term_of(state.get_reg(dest), bits) == expected_term
        except (SymbolicEscape, ExecutionError):
            pass
        if proven:
            self.stats["proven"] += 1
            return
        for value in self._candidates(where, "value"):
            expected = wordops.mask(value, bits)
            state = _make_state(self.isa, self.frame_bases, symbolic=False)
            skip = {src} | self.preserve
            for junk, jv in _junk_fill(self.spec, self.isa, skip, 0).items():
                state.set_reg(junk, jv)
            state.set_reg(src, expected)
            try:
                _run_template(self.isa, self.runtime, lowered, state, None)
                got = state.get_reg(dest)
            except ExecutionError as exc:
                got = f"error: {exc}"
            if isinstance(got, str) or got != expected:
                data, text = self._witness({"value": value}, expected, got)
                self._add("SPEC102", f"{where}: refuted: {text}", where, data=data)
                self.stats["refuted"] += 1
                return
        self.stats["sampled"] += 1
        self._add("SPEC105", f"{where}: verified by concrete sampling only", where)

    # -- branch rules ---------------------------------------------------

    def _verify_branch(self, relation, rule):
        """Concrete truth-table battery: taken iff relation(left, right).

        Branch templates are data-dependent control flow by definition,
        so there is no symbolic obligation; the battery *is* the proof
        standard here (and no SPEC105 is emitted).
        """
        self.stats["obligations"] += 1
        where = f"branch[{relation}]"
        row = relation_named(relation)
        if row is None or row.prim != relation:
            self._add("SPEC104", f"{where}: unknown relation {relation!r}", where)
            self.stats["unverifiable"] += 1
            return
        try:
            inputs, lowered, sentinel = self._branch_lowered(rule)
        except _UNPOSABLE as exc:
            self._add("SPEC104", f"{where}: {exc}", where)
            self.stats["unverifiable"] += 1
            return
        has_right = "right" in inputs
        left_values = self._candidates(where, "left")
        right_values = self._candidates(where, "right") if has_right else [0]
        for a, b in ranked_product([left_values, right_values], limit=SAMPLE_LIMIT):
            expected = row.holds(
                wordops.to_signed(a, self.bits), wordops.to_signed(b, self.bits)
            )
            outcomes = []
            for fill in (0, 1):
                state = _make_state(self.isa, self.frame_bases, symbolic=False)
                skip = set(inputs.values()) | self.preserve
                for junk, jv in _junk_fill(self.spec, self.isa, skip, fill).items():
                    state.set_reg(junk, jv)
                state.set_reg(inputs["left"], wordops.mask(a, self.bits))
                if has_right:
                    state.set_reg(inputs["right"], wordops.mask(b, self.bits))
                try:
                    end = _run_template(
                        self.isa, self.runtime, lowered, state, sentinel
                    )
                    outcomes.append(end == "stop")
                except ExecutionError as exc:
                    outcomes.append(f"error: {exc}")
            got = outcomes[0]
            if got != outcomes[1] or isinstance(got, str) or got != expected:
                env = {"left": a} if not has_right else {"left": a, "right": b}
                data = {
                    "inputs": {
                        k: _signed(v, self.bits) for k, v in sorted(env.items())
                    },
                    "expected": "taken" if expected else "not taken",
                    "got": got if isinstance(got, str)
                    else ("taken" if got else "not taken"),
                }
                inputs = ", ".join(f"{k}={v}" for k, v in data["inputs"].items())
                self._add(
                    "SPEC101",
                    f"{where}: refuted: {inputs} -> expected "
                    f"{data['expected']}, got {data['got']}",
                    where,
                    data=data,
                )
                self.stats["refuted"] += 1
                return
        self.stats["proven"] += 1

    def _branch_lowered(self, rule):
        """The back end's binding of a branch rule, lowered, with a
        sentinel label index.  Returns the input registers the battery
        sets: ``right`` only where the template names it."""
        sentinel = len(rule.instrs) + 64
        binding = bind_branch(rule, self.registers, Lab(sentinel))
        lowered = _lower(rule.instrs, binding.mapping, self.builtin_ids)
        inputs = dict(binding.input_regs)
        if "right" not in template_slots(rule.instrs):
            del inputs["right"]
        return inputs, lowered, sentinel


def _substitute_imm(lowered, env):
    """Replace symbolic immediates in a lowered template with this
    valuation's concrete values."""
    out = []
    for mnemonic, operands in lowered:
        ops = []
        for op in operands:
            if isinstance(op, Imm) and isinstance(op.value, SymVal):
                names = term_vars(op.value.term)
                value = evaluate(op.value.term, {n: env[n] for n in names})
                ops.append(Imm(value))
            else:
                ops.append(op)
        out.append((mnemonic, ops))
    return out


def verify_spec(spec, model, seed=DEFAULT_SEED):
    """Verify every emission rule, data-movement template, and branch
    rule of *spec* against *model*; returns a :class:`VerifyResult`."""
    return _Verifier(spec, model, seed=seed).run()


# -- cross-spec differential lint (SPEC110-113) -------------------------


def diff_specs(spec_a, spec_b, model, seed=DEFAULT_SEED, label_a="A", label_b="B"):
    """Compare two discovered specs for the same target.

    Same-seed discovery runs must produce semantically identical specs;
    a drifting or perturbed target shows up as rule-set differences
    (SPEC111), semantic divergence on shared rules (SPEC110), or
    differing immediate ranges / register sets (SPEC112/113).
    """
    diagnostics = DiagnosticSet()
    va = _Verifier(spec_a, model, seed=seed)
    vb = _Verifier(spec_b, model, seed=seed)
    target = spec_a.target

    def one_sided(kind, keys_a, keys_b):
        for key in sorted(set(keys_a) ^ set(keys_b)):
            holder = label_a if key in keys_a else label_b
            diagnostics.add(
                "SPEC111",
                f"{kind}[{key}] exists only in run {holder}",
                where=f"{kind}[{key}]",
                target=target,
            )

    one_sided("rules", spec_a.rules, spec_b.rules)
    one_sided("imm_rules", spec_a.imm_rules, spec_b.imm_rules)
    branches_a = spec_a.branch.rules if spec_a.branch else {}
    branches_b = spec_b.branch.rules if spec_b.branch else {}
    one_sided("branch", branches_a, branches_b)

    for ir_op in sorted(set(spec_a.rules) & set(spec_b.rules)):
        _diff_rule(
            diagnostics, va, vb, ir_op,
            spec_a.rules[ir_op], spec_b.rules[ir_op],
            f"rules[{ir_op}]", label_a, label_b, imm=False,
        )
    for ir_op in sorted(set(spec_a.imm_rules) & set(spec_b.imm_rules)):
        _diff_rule(
            diagnostics, va, vb, ir_op,
            spec_a.imm_rules[ir_op], spec_b.imm_rules[ir_op],
            f"imm_rules[{ir_op}]", label_a, label_b, imm=True,
        )
    for relation in sorted(set(branches_a) & set(branches_b)):
        _diff_branch(
            diagnostics, va, vb, relation,
            branches_a[relation], branches_b[relation], label_a, label_b,
        )

    ranges_a = spec_a.imm_ranges
    ranges_b = spec_b.imm_ranges
    for key in sorted(set(ranges_a) | set(ranges_b), key=repr):
        if ranges_a.get(key) != ranges_b.get(key):
            mnemonic, operand = key
            diagnostics.add(
                "SPEC112",
                f"immediate range of {mnemonic}[{operand}] differs: "
                f"{label_a}={ranges_a.get(key)} {label_b}={ranges_b.get(key)}",
                where=f"imm_ranges[{mnemonic}]",
                target=target,
            )
    if sorted(spec_a.allocatable) != sorted(spec_b.allocatable):
        only_a = sorted(set(spec_a.allocatable) - set(spec_b.allocatable))
        only_b = sorted(set(spec_b.allocatable) - set(spec_a.allocatable))
        diagnostics.add(
            "SPEC113",
            f"allocatable registers differ: only in {label_a}: {only_a}; "
            f"only in {label_b}: {only_b}",
            where="allocatable",
            target=target,
        )
    return diagnostics


def _diff_rule(diagnostics, va, vb, ir_op, rule_a, rule_b, where, label_a, label_b, imm):
    """Semantic A-vs-B comparison of one shared rule: symbolic result
    terms when both sides stay in the domain, a concrete battery else."""
    bits = va.bits
    unary = ir_op in UNARY_OPS and not imm
    var_names = ["left"] if unary else (["left", "imm"] if imm else ["left", "right"])

    def prepare(verifier, rule):
        imm_sym = fresh("imm") if imm else None
        binding = bind_rule(
            rule,
            verifier.registers,
            right=not (unary or imm),
            imm=Imm(imm_sym) if imm else None,
        )
        lowered = _lower(rule.instrs, binding.mapping, verifier.builtin_ids)
        return binding, lowered, imm_sym

    try:
        binding_a, lowered_a, imm_a = prepare(va, rule_a)
        binding_b, lowered_b, imm_b = prepare(vb, rule_b)
    except _UNPOSABLE as exc:
        diagnostics.add(
            "SPEC104",
            f"{where}: cannot pose the differential obligation: {exc}",
            where=where,
            target=va.spec.target,
        )
        return

    def sym_inputs_for(imm_sym):
        out = {}
        for name in var_names:
            out[name] = imm_sym if name == "imm" else wordops.mask(fresh(name), bits)
        return out

    try:
        got_a = va._sym_result(binding_a, lowered_a, sym_inputs_for(imm_a))
        got_b = vb._sym_result(binding_b, lowered_b, sym_inputs_for(imm_b))
        if _term_of(got_a, bits) == _term_of(got_b, bits):
            return
    except (SymbolicEscape, ExecutionError):
        pass

    bounds = {}
    if imm:
        range_a = rule_a.imm_range
        range_b = rule_b.imm_range
        if range_a and range_b:
            lo = max(range_a[0], range_b[0])
            hi = min(range_a[1], range_b[1])
            if lo <= hi:
                bounds["imm"] = (lo, hi)
    row = operator_named(ir_op)
    if row is not None and row.shift:
        count_var = "imm" if imm else "right"
        lo, hi = bounds.get(count_var, (0, bits - 1))
        lo, hi = max(lo, 0), min(hi, bits - 1)
        bounds[count_var] = (lo, hi) if lo <= hi else (0, bits - 1)
    candidate_lists = [
        va._candidates(where, name, bounds.get(name)) for name in var_names
    ]
    for values in ranked_product(candidate_lists, limit=SAMPLE_LIMIT):
        env = dict(zip(var_names, values))
        results = []
        for verifier, binding, lowered in (
            (va, binding_a, lowered_a),
            (vb, binding_b, lowered_b),
        ):
            try:
                results.append(verifier._concrete_result(binding, lowered, env, 0))
            except ExecutionError as exc:
                results.append(f"error: {exc}")
        if results[0] != results[1]:
            shown = {k: _signed(v, bits) for k, v in sorted(env.items())}
            inputs = ", ".join(f"{k}={v}" for k, v in shown.items())
            out_a = results[0] if isinstance(results[0], str) else _signed(results[0], bits)
            out_b = results[1] if isinstance(results[1], str) else _signed(results[1], bits)
            diagnostics.add(
                "SPEC110",
                f"{where}: runs diverge: {inputs} -> {label_a}={out_a}, "
                f"{label_b}={out_b}",
                where=where,
                target=va.spec.target,
                data={"inputs": shown, label_a: out_a, label_b: out_b},
            )
            return


def _diff_branch(diagnostics, va, vb, relation, rule_a, rule_b, label_a, label_b):
    where = f"branch[{relation}]"
    bits = va.bits
    try:
        inputs_a, lowered_a, sentinel_a = va._branch_lowered(rule_a)
        inputs_b, lowered_b, sentinel_b = vb._branch_lowered(rule_b)
    except _UNPOSABLE as exc:
        diagnostics.add(
            "SPEC104",
            f"{where}: cannot pose the differential obligation: {exc}",
            where=where,
            target=va.spec.target,
        )
        return
    left_values = va._candidates(where, "left")
    right_values = va._candidates(where, "right")
    for a, b in ranked_product([left_values, right_values], limit=SAMPLE_LIMIT):
        outcomes = []
        for verifier, inputs, lowered, sentinel in (
            (va, inputs_a, lowered_a, sentinel_a),
            (vb, inputs_b, lowered_b, sentinel_b),
        ):
            state = _make_state(verifier.isa, verifier.frame_bases, symbolic=False)
            skip = set(inputs.values()) | verifier.preserve
            for junk, jv in _junk_fill(verifier.spec, verifier.isa, skip, 0).items():
                state.set_reg(junk, jv)
            state.set_reg(inputs["left"], wordops.mask(a, bits))
            if "right" in inputs:
                state.set_reg(inputs["right"], wordops.mask(b, bits))
            try:
                end = _run_template(
                    verifier.isa, verifier.runtime, lowered, state, sentinel
                )
                outcomes.append(end == "stop")
            except ExecutionError as exc:
                outcomes.append(f"error: {exc}")
        if outcomes[0] != outcomes[1]:
            shown = {"left": _signed(a, bits), "right": _signed(b, bits)}
            inputs = ", ".join(f"{k}={v}" for k, v in shown.items())
            diagnostics.add(
                "SPEC110",
                f"{where}: runs diverge: {inputs} -> {label_a}={outcomes[0]}, "
                f"{label_b}={outcomes[1]}",
                where=where,
                target=va.spec.target,
                data={"inputs": shown, label_a: outcomes[0], label_b: outcomes[1]},
            )
            return


# -- symbolic def/use profiles for speclint ----------------------------


def template_def_use(model, instr):
    """Def/use profile of one template instruction, derived by symbolic
    execution against the machine model.

    Returns ``(uses, defs, ireg_reads, ireg_writes)`` in speclint's
    convention -- operand *positions* for uses/defs, implicit register
    *names* for the rest -- or ``None`` when the instruction escapes the
    symbolic domain (speclint then falls back to its semantics-table
    merge).
    """
    isa = model.isa
    state = ExecState(isa, SymMemory(isa.endian))
    state.set_reg(isa.abi.stack_pointer, isa.stack_start)
    pinned = {_canon(isa, isa.abi.stack_pointer)}

    # One distinct variable per operand position; implicit variables for
    # every other register.
    operands = []
    mem_cells = {}  # position -> (addr, size)
    reg_positions = {}  # canonical register name -> position
    next_addr = isa.stack_start + 0x400
    size = isa.word_bytes
    try:
        for k, dop in enumerate(instr.operands):
            var = fresh(f"op{k}")
            if isinstance(dop, (DReg, Slot)):
                if isinstance(dop, DReg):
                    name = isa.canonical_reg(dop.name)
                    if name is None:
                        return None
                    reg = isa.lookup_reg(dop.name)
                    if reg is not None and reg.hardwired is not None:
                        operands.append(Reg(dop.name))
                        continue
                else:
                    name = _pick_register(isa, set(reg_positions) | pinned)
                    if name is None:
                        return None
                reg_positions[name] = k
                state.set_reg(name, wordops.mask(var, isa.word_bits))
                operands.append(Reg(name))
            elif isinstance(dop, DImm):
                operands.append(Imm(wordops.mask(var, isa.word_bits)))
            elif isinstance(dop, DMem):
                if not isinstance(dop.disp, int):
                    return None
                base = dop.base
                if base:
                    canonical = isa.canonical_reg(base)
                    if canonical is None or canonical in reg_positions:
                        return None
                    state.set_reg(base, next_addr)
                    pinned.add(canonical)
                addr = (state.get_reg(base) if base else 0) + dop.disp
                if not isinstance(addr, int):
                    return None
                state.mem.store(addr, wordops.mask(var, isa.word_bits), size)
                mem_cells[k] = (addr, size)
                operands.append(Mem(dop.disp, base))
                next_addr += 0x100
            elif isinstance(dop, DSym):
                # Labels never resolve here; branch profiles escape.
                return None
            else:
                return None

        for reg in isa.registers:
            if reg.hardwired is not None:
                continue
            if reg.name in reg_positions or reg.name in pinned:
                continue
            state.set_reg(reg.name, fresh(f"reg:{reg.name}"))

        before_regs = dict(state.regs)
        before_cells = state.mem.symbolic_cells()
        before_cc = state.cc
        state.pc = 1
        isa.symbolic_step(state, instr.mnemonic, operands)
        if state.pc != 1 or state._pending_target is not None or state.halted:
            return None
    except (SymbolicEscape, ExecutionError):
        return None

    def vars_of(value):
        if isinstance(value, SymVal):
            return term_vars(value.term)
        return set()

    def same(a, b):
        if a is b:
            return True
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return False

    uses = set()
    defs = set()
    ireg_reads = set()
    ireg_writes = set()

    def note_read_vars(names):
        for name in names:
            if name.startswith("op"):
                uses.add(int(name[2:]))
            elif name.startswith("reg:"):
                ireg_reads.add(name[4:])

    # Register effects.
    for name, value in state.regs.items():
        if same(value, before_regs.get(name)):
            continue
        note_read_vars(vars_of(value))
        position = reg_positions.get(name)
        if position is not None:
            defs.add(position)
        else:
            ireg_writes.add(name)
    # Memory effects.
    after_cells = state.mem.symbolic_cells()
    changed_cells = {
        key
        for key in set(before_cells) | set(after_cells)
        if before_cells.get(key) is not after_cells.get(key)
    }
    cell_positions = {cell: pos for pos, cell in mem_cells.items()}
    for key in sorted(changed_cells):
        value = after_cells.get(key)
        if value is not None:
            note_read_vars(vars_of(value))
        position = cell_positions.get(key)
        if position is not None:
            defs.add(position)
    # Condition-code effects: a compare *uses* its operands.
    if state.cc is not before_cc:
        for flag in state.cc.values():
            names = getattr(flag, "vars", None)
            if names:
                note_read_vars(names)
    return uses, defs, ireg_reads, ireg_writes


def _pick_register(isa, taken):
    for name in isa.register_names(allocatable_only=True):
        if name not in taken:
            return name
    return None
