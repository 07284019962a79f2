"""The machine-description format (our BEG input language).

A :class:`MachineSpec` is what the paper's Synthesizer produces and
what :mod:`repro.beg.codegen` turns into a working code generator:
register set, load/store/load-immediate templates, one emission rule
per intermediate-code operator (possibly multi-instruction -- the
Combiner's output), branch rules, the calling-convention idioms and the
frame model.  ``render_beg()`` prints it in a BEG-flavoured concrete
syntax comparable to paper Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.discovery.asmmodel import Slot, template_slots


@dataclass
class OpRule:
    """Emission rule for one IR operator.

    ``instrs`` are template DInstrs over Slots ``left``, ``right``,
    ``result``, ``scratch0``..; ``right_imm`` marks a rule whose right
    operand is an immediate (with the probed ``imm_range`` CONDITION,
    paper Figure 15(d)); ``verified`` records that the composed
    semantics of the sequence matched the IR operator (the Combiner's
    check), ``runtime_verified`` that the instantiated rule printed the
    operator's value on the target.

    Every field has a plain default, so a checkpoint frozen before a
    field was declared still thaws: the class attribute stands in.
    """

    ir_op: str
    instrs: list
    right_imm: bool = False
    imm_range: tuple | None = None
    scratches: int = 0
    verified: bool = False
    source_sample: str = ""
    #: slot name -> registers the assembler accepts there (register
    #: classes, probed; empty dict means unconstrained)
    slot_classes: dict = field(default_factory=dict)
    #: deterministic cost-tie-break penalty (see synthesize._break_cost_ties):
    #: added to the rendered COST so equal-cost register/immediate rules for
    #: the same operator order reproducibly instead of tying
    cost_bias: int = 0
    #: the result overwrites the left operand's register (x86 ``addl``)
    two_address: bool = False
    #: the implicit register the result lands in, kept literal in the
    #: template (x86 ``idivl`` leaves it in ``%eax`` or ``%edx``)
    result_literal: str | None = None
    runtime_verified: bool = False
    #: measured execution steps over an empty scaffold (paper 7.2.1's
    #: "crude instruction timings"); None until the runtime check
    cost_steps: int | None = None

    def slots_used(self):
        return template_slots(self.instrs)

    @property
    def cost(self):
        """The rendered COST: measured steps, else the instruction
        count, plus the tie-break bias."""
        return (self.cost_steps or len(self.instrs)) + self.cost_bias


@dataclass
class MachineSpec:
    target: str
    syntax: object  # DiscoveredSyntax
    word_bits: int = 32
    endian: str = "little"
    int_size: int = 4
    pointer_size: int = 4
    #: registers the generated code generator may allocate freely
    allocatable: list = field(default_factory=list)
    #: register -> hardwired flag and other register notes
    register_notes: dict = field(default_factory=dict)
    #: templates: load local slot -> reg, store reg -> slot, load imm
    load_template: list = field(default_factory=list)  # Slots: slot, dest
    store_template: list = field(default_factory=list)  # Slots: src, slot
    reg_move: list = field(default_factory=list)  # Slots: src, dest
    #: probed register classes for the move templates (None = any)
    load_dest_class: list = None
    store_src_class: list = None
    loadimm_class: list = None
    rules: dict = field(default_factory=dict)  # ir_op -> OpRule
    imm_rules: dict = field(default_factory=dict)  # ir_op -> OpRule (right imm)
    branch: object = None  # BranchModel
    call: object = None  # CallProtocol
    frame: object = None  # FrameModel
    #: discovered immediate ranges: (mnemonic, operand) -> (lo, hi)
    imm_ranges: dict = field(default_factory=dict)
    #: addressing-mode chain rules, as report strings
    chain_rules: list = field(default_factory=list)
    #: addressing-mode semantics (mode id -> loadAddr term, Figure 13)
    addressing_modes: dict = field(default_factory=dict)
    #: discovered instruction semantics (opkey -> OpSemantics)
    semantics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: speclint findings recorded against this description (dicts in
    #: Diagnostic.to_dict() form; filled by the driver's lint phase)
    diagnostics: list = field(default_factory=list)

    # ------------------------------------------------------------------

    def render_beg(self):
        """A BEG-flavoured rendering of the description (cf. Fig. 15)."""
        syntax = self.syntax
        out = [f"TARGET {self.target};  WORD {self.word_bits};  {self.endian}-ENDIAN"]
        out.append("")
        out.append("REGISTERS")
        out.append("  " + " ".join(self.allocatable) + ";")
        for reg, note in sorted(self.register_notes.items()):
            out.append(f"  (* {reg}: {note} *)")
        out.append("")
        out.append("NONTERMINALS Register, AddrMode;")
        for mode, semantics in sorted(self.addressing_modes.items()):
            out.append(f"ADDRMODE {mode}: {semantics}")
        for chain in self.chain_rules:
            out.append(f"RULE {chain}")
        out.append("")
        for ir_op in sorted(self.rules):
            rule = self.rules[ir_op]
            out.extend(self._render_rule(rule, syntax))
        for ir_op in sorted(self.imm_rules):
            rule = self.imm_rules[ir_op]
            out.extend(self._render_rule(rule, syntax, suffix="Imm"))
        if self.branch is not None:
            for rel in sorted(self.branch.rules):
                branch_rule = self.branch.rules[rel]
                out.append(f"RULE Branch{rel[2:]} Label.l Register.a Register.b;")
                out.append("  EMIT {")
                for instr in branch_rule.instrs:
                    out.append(f"    {self._render_template(instr, syntax)}")
                out.append("  }")
        if self.call is not None:
            out.append(f"(* calling convention: {self.call.describe()} *)")
        return "\n".join(out)

    def _render_rule(self, rule, syntax, suffix=""):
        lines = []
        right_nt = "IntConstant.b" if rule.right_imm else "Register.b"
        header = f"RULE {rule.ir_op}{suffix} Register.a {right_nt} -> Register.res;"
        lines.append(header)
        if rule.imm_range is not None:
            lo, hi = rule.imm_range
            lines.append(f"  CONDITION {{ (b.val >= {lo}) AND (b.val <= {hi}) }};")
        lines.append(f"  COST {rule.cost};")
        lines.append("  EMIT {")
        for instr in rule.instrs:
            lines.append(f"    {self._render_template(instr, syntax)}")
        lines.append("  }")
        return lines

    @staticmethod
    def _render_template(instr, syntax):
        parts = []
        for op in instr.operands:
            if isinstance(op, Slot):
                parts.append(f"<{op.name}>")
            else:
                parts.append(syntax.render_operand(op))
        if parts:
            return f"{instr.mnemonic} " + ", ".join(parts)
        return instr.mnemonic

    def summary(self):
        by_severity = {}
        for entry in self.diagnostics:
            severity = entry.get("severity", "warning")
            by_severity[severity] = by_severity.get(severity, 0) + 1
        return {
            "target": self.target,
            "word_bits": self.word_bits,
            "endian": self.endian,
            "allocatable_registers": len(self.allocatable),
            "op_rules": sorted(self.rules),
            "imm_rules": sorted(self.imm_rules),
            "branch_rules": sorted(self.branch.rules) if self.branch else [],
            "instructions_discovered": len(self.semantics),
            "chain_rules": len(self.chain_rules),
            "imm_ranges": {
                f"{mnemonic}[{operand}]": list(bounds)
                for (mnemonic, operand), bounds in sorted(self.imm_ranges.items())
            },
            "addressing_modes": dict(sorted(self.addressing_modes.items())),
            "diagnostics": {
                "counts": by_severity,
                "entries": list(self.diagnostics),
            },
        }
