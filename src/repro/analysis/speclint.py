"""speclint: rule-based static verification of a MachineSpec.

The discovery unit can silently emit a *wrong* machine description --
the paper leans on spot-check execution.  This pass proves (or flags)
properties of every description before it reaches the back-end
generator:

- **coverage closure** (SPEC001-004): every IR operator the compiler
  can emit is derivable from the description -- an operator rule, an
  immediate-form rule, a branch rule per relation, and the load/store/
  reg-move/frame scaffolding every rule application leans on;
- **def/use soundness** (SPEC010-014): each rule's emission template,
  interpreted through the mutation-analysis semantics table, actually
  defines its result slot, never reads a scratch before writing it,
  and never clobbers a register the allocator may be holding live;
- **register-class consistency** (SPEC020-022): probed slot classes
  stay inside the allocatable set and hardwired registers stay out;
- **immediate-range validity** (SPEC030-033): CONDITION ranges are
  non-empty, never wider than the assembler-probed range, and rule
  overlaps have a cost tie-break;
- **dead/duplicate detection** (SPEC040-043): duplicate templates,
  rules for operators the IR never emits, unreachable addressing
  modes, chain rules over undeclared modes.

All checks are static: no target interaction, no randomness.
"""

from __future__ import annotations

import re

from repro.analysis.diagnostics import DiagnosticSet
from repro.beg.ir import BINARY_OPS, RELATIONS, UNARY_OPS
from repro.discovery.asmmodel import DReg, DSym, Slot, operand_part, template_slots
from repro.discovery.reverse_interp import parse_opkey
from repro.discovery.terms import term_leaves

#: slots a rule template may consume without defining them first
_INPUT_SLOTS = frozenset(("left", "right", "imm", "label", "slot", "src"))

_CHAIN_MODE_RE = re.compile(r"AddrMode\[([^\]]+)\]")


def lint_spec(spec, model=None):
    """Run every speclint check over one MachineSpec.

    Without *model* every check is purely static (discovery's black-box
    discipline: lint sees only what probing learned).  With a
    :class:`~repro.machines.machine.MachineModel`, def/use profiles are
    derived by symbolically executing each template instruction against
    the target's own semantics, falling back to the semantics-table
    merge per instruction whenever the symbolic domain escapes.
    """
    return _SpecLinter(spec, model=model).run()


class _SpecLinter:
    def __init__(self, spec, model=None):
        self.spec = spec
        self.model = model
        self.out = DiagnosticSet()
        self.allocatable = set(spec.allocatable or ())
        self._keys = [parse_opkey(key) for key in (spec.semantics or {})]

    def add(self, code, message, where=""):
        self.out.add(code, message, where=where, target=self.spec.target)

    def run(self):
        self._check_coverage()
        self._check_scaffolding()
        self._check_templates()
        self._check_register_classes()
        self._check_immediates()
        self._check_dead_rules()
        self._check_addressing_modes()
        return self.out

    # -- coverage closure (SPEC001-003) --------------------------------

    def _check_coverage(self):
        spec = self.spec
        for ir_op in BINARY_OPS:
            if ir_op in spec.rules:
                continue
            if ir_op in spec.imm_rules:
                self.add(
                    "SPEC002",
                    f"{ir_op} is derivable only when the right operand is a "
                    "fitting constant (immediate-form rule, no register form)",
                    where=f"imm_rules[{ir_op}]",
                )
            else:
                self.add(
                    "SPEC001",
                    f"no emission rule derives {ir_op}; the generated back end "
                    "will reject any program using it",
                    where=f"rules[{ir_op}]",
                )
        for ir_op in UNARY_OPS:
            if ir_op not in spec.rules:
                self.add(
                    "SPEC001",
                    f"no emission rule derives unary {ir_op}",
                    where=f"rules[{ir_op}]",
                )
        branch_rules = spec.branch.rules if spec.branch else {}
        for stmt_op, relation in sorted(RELATIONS.items()):
            if relation not in branch_rules:
                self.add(
                    "SPEC003",
                    f"no branch rule implements {relation} ({stmt_op})",
                    where=f"branch[{relation}]",
                )

    # -- scaffolding (SPEC004) -----------------------------------------

    def _check_scaffolding(self):
        spec = self.spec
        checks = (
            (spec.load_template, "load_template", "no frame-slot load template"),
            (spec.store_template, "store_template", "no frame-slot store template"),
            (spec.reg_move, "reg_move", "no register-to-register move template"),
        )
        for template, name, message in checks:
            if not template:
                self.add("SPEC004", message, where=name)
        if spec.branch is None or not spec.branch.uncond:
            self.add("SPEC004", "no unconditional jump discovered", where="branch")
        frame = spec.frame
        if frame is None or not getattr(frame, "slots", None):
            self.add("SPEC004", "no frame model discovered", where="frame")
        else:
            if len(frame.slots) < 2:
                self.add(
                    "SPEC004",
                    "frame model has fewer than two slots (one is reserved "
                    "for the print idiom)",
                    where="frame",
                )
            if not getattr(frame, "print_template", None):
                self.add("SPEC004", "frame model has no print idiom", where="frame")
            if not getattr(frame, "exit_template", None):
                self.add("SPEC004", "frame model has no exit idiom", where="frame")
        if not self.allocatable:
            self.add("SPEC004", "no allocatable registers", where="allocatable")
        if spec.branch:
            for relation, rule in sorted(spec.branch.rules.items()):
                if "label" not in template_slots(rule.instrs):
                    self.add(
                        "SPEC004",
                        f"branch rule {relation} has no label slot to jump to",
                        where=f"branch[{relation}]",
                    )

    # -- def/use soundness (SPEC010-014) -------------------------------

    def _check_templates(self):
        spec = self.spec
        for ir_op, rule in sorted(spec.rules.items()):
            self._check_rule_template(rule, f"rules[{ir_op}]")
        for ir_op, rule in sorted(spec.imm_rules.items()):
            self._check_rule_template(rule, f"imm_rules[{ir_op}]")
        if spec.load_template:
            self._check_move(spec.load_template, {"slot"}, "dest", "load_template")
        if spec.store_template:
            self._check_move(spec.store_template, {"src"}, "slot", "store_template")
        if spec.reg_move:
            self._check_move(spec.reg_move, {"src"}, "dest", "reg_move")

    def _check_rule_template(self, rule, where):
        slots = rule.slots_used()
        two_address = bool(getattr(rule, "two_address", False))
        result_literal = getattr(rule, "result_literal", None)
        if not rule.verified and not getattr(rule, "runtime_verified", False):
            self.add(
                "SPEC014",
                f"{where} passed neither the Combiner's semantic check nor "
                "the runtime probe",
                where=where,
            )
        defined = set(_INPUT_SLOTS & slots)
        if two_address:
            # The generated back end preloads the left operand into the
            # result register for two-address rules.
            defined.add("result")
        defined_regs = set()  # literal registers written inside the template
        result_written = two_address or bool(result_literal)
        all_known = True
        for instr in rule.instrs:
            profile = self._def_use_of(instr)
            if profile is None:
                self.add(
                    "SPEC013",
                    f"{instr.mnemonic} {instr.signature()} has no usable "
                    "entry in the discovered semantics table; def/use of "
                    "this template cannot be proven",
                    where=where,
                )
                all_known = False
                # Conservatively assume the instruction defines every slot
                # it mentions, so later reads are not misreported.
                defined |= template_slots([instr])
                continue
            uses, defs, ireg_reads, ireg_writes = profile
            for k in sorted(uses):
                if k >= len(instr.operands):
                    continue
                op = instr.operands[k]
                if (
                    isinstance(op, Slot)
                    and op.name not in defined
                    and op.name not in _INPUT_SLOTS
                ):
                    self.add(
                        "SPEC011",
                        f"{where} reads slot <{op.name}> in "
                        f"'{instr.mnemonic}' before any instruction defines it",
                        where=where,
                    )
            for name in sorted(ireg_reads):
                if name in self.allocatable and name not in defined_regs:
                    self.add(
                        "SPEC011",
                        f"{where}: '{instr.mnemonic}' implicitly reads "
                        f"register {name}, which the allocator owns and the "
                        "template never sets",
                        where=where,
                    )
            for k in sorted(defs):
                if k >= len(instr.operands):
                    continue
                op = instr.operands[k]
                if isinstance(op, Slot):
                    defined.add(op.name)
                    if op.name == "result":
                        result_written = True
                elif isinstance(op, DReg):
                    defined_regs.add(op.name)
                    if op.name in self.allocatable:
                        self.add(
                            "SPEC012",
                            f"{where}: '{instr.mnemonic}' writes literal "
                            f"register {op.name}, which is still in the "
                            "allocatable set -- a live value can be clobbered",
                            where=where,
                        )
            for name in sorted(ireg_writes):
                defined_regs.add(name)
                if name in self.allocatable:
                    self.add(
                        "SPEC012",
                        f"{where}: '{instr.mnemonic}' implicitly clobbers "
                        f"register {name}, which is still in the allocatable "
                        "set",
                        where=where,
                    )
        if result_literal and result_literal in self.allocatable:
            self.add(
                "SPEC012",
                f"{where} leaves its result in literal register "
                f"{result_literal}, which is still in the allocatable set",
                where=where,
            )
        if all_known and not result_written and not result_literal:
            self.add(
                "SPEC010",
                f"{where} never defines its result: no template instruction "
                "writes <result> and no implicit result register is declared",
                where=where,
            )

    def _check_move(self, template, inputs, required, where):
        defined = set(inputs)
        all_known = True
        for instr in template:
            profile = self._def_use_of(instr)
            if profile is None:
                self.add(
                    "SPEC013",
                    f"{instr.mnemonic} {instr.signature()} has no usable "
                    "entry in the discovered semantics table",
                    where=where,
                )
                all_known = False
                continue
            _uses, defs, _ireg_reads, _ireg_writes = profile
            for k in defs:
                if k < len(instr.operands) and isinstance(instr.operands[k], Slot):
                    defined.add(instr.operands[k].name)
        if all_known and required not in defined:
            self.add(
                "SPEC010",
                f"{where} never writes <{required}>",
                where=where,
            )

    def _def_use_of(self, instr):
        """The def/use profile of a template instruction, derived from the
        semantics table.

        Slot operands are wildcards in the signature match: a template
        distilled from a memory-operand sample is instantiated with
        registers by the back end, so the exact instantiated signature
        need not be in the table.  Several entries can match (``addl(i,r)``
        and ``addl(m,r)``; the VAX's general ``subl3`` next to the
        specialised zero-immediate form the move probe discovered); their
        profiles merge in the conservative direction for every check:
        uses and implicit-register effects union (read-before-def and
        clobber checks must see every possible read/write), defs
        intersect (a slot counts as defined only when every matching
        interpretation defines it).  No match at all returns None.

        When the linter was given a machine model, the symbolic profile
        (exact per-instruction def/use from the target's own semantics)
        is preferred; the table merge remains the fallback for
        instructions that escape the symbolic domain.
        """
        if self.model is not None:
            # Imported lazily: analysis.verify pulls in the machines
            # package, which plain black-box lint must not depend on.
            from repro.analysis.verify import template_def_use

            profile = template_def_use(self.model, instr)
            if profile is not None:
                return profile
        pattern = []
        for op in instr.operands:
            if isinstance(op, Slot):
                pattern.append(None)
            else:
                pattern.append(operand_part(op))
        targets = tuple(
            op.name for op in instr.operands if isinstance(op, DSym) and not op.prefix
        )
        profiles = []
        for key, (mnemonic, parts, key_targets) in zip(
            self.spec.semantics, self._keys
        ):
            if mnemonic != instr.mnemonic or len(parts) != len(pattern):
                continue
            if targets and key_targets != targets:
                continue
            if all(p is None or p == q for p, q in zip(pattern, parts)):
                profiles.append(_def_use(self.spec.semantics[key].effects))
        if not profiles:
            return None
        uses = set().union(*(p[0] for p in profiles))
        defs = set.intersection(*(set(p[1]) for p in profiles))
        ireg_reads = set().union(*(p[2] for p in profiles))
        ireg_writes = set().union(*(p[3] for p in profiles))
        return uses, defs, ireg_reads, ireg_writes

    # -- register classes (SPEC020-022) --------------------------------

    def _check_register_classes(self):
        spec = self.spec
        for where, rule in self._all_rules():
            classes = getattr(rule, "slot_classes", None) or {}
            for slot, allowed in sorted(classes.items()):
                if not allowed:
                    self.add(
                        "SPEC021",
                        f"{where} declares an empty register class for "
                        f"<{slot}>; the back end treats it as unconstrained",
                        where=where,
                    )
                    continue
                escaped = sorted(set(allowed) - self.allocatable)
                if escaped:
                    self.add(
                        "SPEC020",
                        f"{where} allows registers outside the allocatable "
                        f"set for <{slot}>: {', '.join(escaped)}",
                        where=where,
                    )
        for attr in ("load_dest_class", "store_src_class", "loadimm_class"):
            allowed = getattr(spec, attr, None)
            if allowed is None:
                continue
            if not allowed:
                self.add(
                    "SPEC021",
                    f"{attr} is an empty register class",
                    where=attr,
                )
                continue
            escaped = sorted(set(allowed) - self.allocatable)
            if escaped:
                self.add(
                    "SPEC020",
                    f"{attr} allows registers outside the allocatable set: "
                    f"{', '.join(escaped)}",
                    where=attr,
                )
        bad = sorted(set(spec.register_notes or ()) & self.allocatable)
        for reg in bad:
            self.add(
                "SPEC022",
                f"register {reg} is allocatable but noted "
                f"'{spec.register_notes[reg]}'",
                where="allocatable",
            )

    def _all_rules(self):
        spec = self.spec
        for ir_op, rule in sorted(spec.rules.items()):
            yield f"rules[{ir_op}]", rule
        for ir_op, rule in sorted(spec.imm_rules.items()):
            yield f"imm_rules[{ir_op}]", rule
        if spec.branch:
            for relation, rule in sorted(spec.branch.rules.items()):
                yield f"branch[{relation}]", rule

    # -- immediate ranges (SPEC030-033) --------------------------------

    def _check_immediates(self):
        spec = self.spec
        word_limit = 2 ** (spec.word_bits - 1)
        for ir_op, rule in sorted(spec.imm_rules.items()):
            where = f"imm_rules[{ir_op}]"
            imm_positions = [
                (instr, k)
                for instr in rule.instrs
                for k, op in enumerate(instr.operands)
                if isinstance(op, Slot) and op.name == "imm"
            ]
            if not rule.right_imm or not imm_positions:
                self.add(
                    "SPEC031",
                    f"{where} is registered as an immediate-form rule but its "
                    "template has no <imm> slot",
                    where=where,
                )
                continue
            if rule.imm_range is not None:
                lo, hi = rule.imm_range
                if lo > hi:
                    self.add(
                        "SPEC030",
                        f"{where} CONDITION [{lo}, {hi}] admits no immediate",
                        where=where,
                    )
                    continue
            for instr, k in imm_positions:
                probed = (spec.imm_ranges or {}).get((instr.mnemonic, k))
                if probed is None:
                    continue
                plo, phi = probed
                unrestricted = plo <= -word_limit and phi >= word_limit - 1
                if rule.imm_range is None:
                    if not unrestricted:
                        self.add(
                            "SPEC032",
                            f"{where} has no CONDITION but the assembler "
                            f"only accepts [{plo}, {phi}] at "
                            f"{instr.mnemonic} operand {k}",
                            where=where,
                        )
                    continue
                lo, hi = rule.imm_range
                if lo < plo or hi > phi:
                    self.add(
                        "SPEC032",
                        f"{where} CONDITION [{lo}, {hi}] exceeds the probed "
                        f"range [{plo}, {phi}] of {instr.mnemonic} "
                        f"operand {k}",
                        where=where,
                    )
        for ir_op in sorted(set(spec.rules) & set(spec.imm_rules)):
            reg_rule = spec.rules[ir_op]
            imm_rule = spec.imm_rules[ir_op]
            if imm_rule.imm_range is None and _cost(imm_rule) == _cost(reg_rule):
                self.add(
                    "SPEC033",
                    f"{ir_op} has a register rule and an unrestricted "
                    "immediate rule at equal cost; selection between them "
                    "is ambiguous",
                    where=f"imm_rules[{ir_op}]",
                )

    # -- dead and duplicate rules (SPEC040-041) ------------------------

    def _check_dead_rules(self):
        spec = self.spec
        known = set(BINARY_OPS) | set(UNARY_OPS)
        for ir_op in sorted(spec.rules):
            if ir_op not in known:
                self.add(
                    "SPEC041",
                    f"rules[{ir_op}] can never be selected: the IR has no "
                    f"{ir_op} operator",
                    where=f"rules[{ir_op}]",
                )
        for ir_op in sorted(spec.imm_rules):
            if ir_op not in BINARY_OPS:
                self.add(
                    "SPEC041",
                    f"imm_rules[{ir_op}] can never be selected: the IR has "
                    f"no binary {ir_op} operator",
                    where=f"imm_rules[{ir_op}]",
                )
        seen = {}
        for collection in ("rules", "imm_rules"):
            for ir_op in sorted(getattr(spec, collection)):
                rule = getattr(spec, collection)[ir_op]
                shape = _template_shape(rule)
                prior = seen.get(shape)
                if prior is not None and prior != (collection, ir_op):
                    self.add(
                        "SPEC040",
                        f"{collection}[{ir_op}] and {prior[0]}[{prior[1]}] "
                        "share an identical emission template; one of them "
                        "is wrong or dead",
                        where=f"{collection}[{ir_op}]",
                    )
                else:
                    seen[shape] = (collection, ir_op)

    # -- addressing modes (SPEC042-043) --------------------------------

    def _check_addressing_modes(self):
        spec = self.spec
        declared = set(spec.addressing_modes or ())
        chain_modes = [
            set(_CHAIN_MODE_RE.findall(chain)) for chain in spec.chain_rules or ()
        ]
        for modes, chain in zip(chain_modes, spec.chain_rules or ()):
            for mode in sorted(modes - declared):
                self.add(
                    "SPEC043",
                    f"chain rule references undeclared addressing mode "
                    f"{mode!r}: {chain.strip()}",
                    where="chain_rules",
                )
        reachable = self._used_modes()
        changed = True
        while changed:
            changed = False
            for modes in chain_modes:
                if modes & reachable and not modes <= reachable:
                    reachable |= modes
                    changed = True
        for mode in sorted(declared - reachable):
            self.add(
                "SPEC042",
                f"addressing mode {mode!r} is declared but no emission "
                "template or chain rule can reach it",
                where="addressing_modes",
            )

    def _used_modes(self):
        spec = self.spec
        used = set()
        templates = [rule.instrs for _w, rule in self._all_rules()]
        templates += [spec.load_template, spec.store_template, spec.reg_move]
        if spec.frame is not None:
            templates.append(getattr(spec.frame, "print_template", None) or [])
            templates.append(getattr(spec.frame, "exit_template", None) or [])
        for template in templates:
            for instr in template or ():
                for op in instr.operands:
                    mode = getattr(op, "mode_id", None)
                    if mode is not None:
                        used.add(op.mode_id())
        if spec.frame is not None:
            for mem in getattr(spec.frame, "slots", None) or ():
                used.add(mem.mode_id())
        return used


# -- helpers ------------------------------------------------------------


def _def_use(effects):
    """Operand indices written/read plus implicit registers touched."""
    uses, defs = set(), set()
    ireg_reads, ireg_writes = set(), set()
    for target, term in effects:
        if target[0] in ("op", "mem"):
            defs.add(target[1])
        elif target[0] == "ireg":
            ireg_writes.add(target[1])
        for leaf in term_leaves(term):
            if leaf[0] == "val":
                uses.add(leaf[1])
            elif leaf[0] == "ireg":
                ireg_reads.add(leaf[1])
    return uses, defs, ireg_reads, ireg_writes


def _cost(rule):
    base = getattr(rule, "cost_steps", None) or len(rule.instrs)
    return base + getattr(rule, "cost_bias", 0)


def _template_shape(rule):
    """Identity of an emission template: the instructions plus where the
    result lands (x86 Div and Mod share instructions and differ only in
    the implicit result register)."""
    return (
        tuple(
            (instr.mnemonic, tuple(op.key() for op in instr.operands))
            for instr in rule.instrs
        ),
        getattr(rule, "result_literal", None),
        bool(rule.right_imm),
        rule.imm_range,
    )
