"""The discovered assembler syntax, and tokenizing/rendering against it.

Built up incrementally by :mod:`repro.discovery.probe`; once complete it
can classify operand tokens into the :mod:`~repro.discovery.asmmodel`
operand types and render (possibly mutated) instructions back to
assembly text the target assembler accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.discovery.asmmodel import (
    DImm,
    DInstr,
    DMem,
    DReg,
    DSym,
    DUnknown,
    is_identifier,
)

_PAREN_RE = re.compile(r"^(-?\w*)\(([^()]+)\)$")
_BRACKET_RE = re.compile(r"^\[([^\[\]+-]+)(?:([+-])\s*(-?\w+))?\]$")


@dataclass
class LoadImmTemplate:
    """How to write "load immediate V into register R" on this target.

    Discovered from the assembly of ``main(){int a=-1234567;}`` (the
    paper scans for a known constant); used for the clobber mutations of
    Figure 6, which must be able to set any register to any value.
    """

    mnemonic: str
    imm_index: int
    reg_index: int

    def instr(self, value, reg, imm_prefix=""):
        """The instruction, its rendered text formatted straight from
        the template (``discover_loadimm`` accepts only two-operand
        lines); its operand objects are made only if read."""
        if self.imm_index < self.reg_index:
            text = f"\t{self.mnemonic} {imm_prefix}{value}, {reg}"
        else:
            text = f"\t{self.mnemonic} {reg}, {imm_prefix}{value}"
        return _LoadImmInstr(self, text, value, reg, imm_prefix)


class _LoadImmInstr(DInstr):
    """A load-immediate instruction made from its text.  Mutation
    analysis only renders its clobbers, so the ``DImm`` and ``DReg``
    are built the first time something reads ``operands``.  It never
    reaches a checkpoint, whose codec knows no such class: ``clone``
    and ``rename_register`` return a plain :class:`DInstr`."""

    def __init__(self, template, rendered, value, reg, imm_prefix):
        self.mnemonic = template.mnemonic
        self.labels = []
        self.rendered = rendered
        self._parts = (template, value, reg, imm_prefix)

    def __getattr__(self, name):
        # reached only while ``operands`` is not built yet
        if name != "operands":
            raise AttributeError(name)
        template, value, reg, imm_prefix = self._parts
        operands = [None, None]
        operands[template.imm_index] = DImm(value, imm_prefix)
        operands[template.reg_index] = DReg(reg)
        self.operands = operands
        return operands


@dataclass
class DiscoveredSyntax:
    """Everything the Lexer has learned about the target's assembler."""

    comment_char: str = "#"
    imm_prefix: str = ""
    emitted_base: int = 10
    accepted_bases: dict = field(default_factory=dict)
    registers: set = field(default_factory=set)
    loadimm: LoadImmTemplate | None = None
    #: integer literal parsing for operand tokens (prefix -> base)
    literal_parsers: dict = field(default_factory=lambda: {"": 10, "0x": 16, "0X": 16, "0": 8})

    # -- literals --------------------------------------------------------

    def parse_int(self, text):
        text = text.strip()
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if not text:
            return None
        if text.isdigit():
            base = 8 if text.startswith("0") and len(text) > 1 else 10
            value = int(text, base)
        elif text[:2] in ("0x", "0X"):
            try:
                value = int(text[2:], 16)
            except ValueError:
                return None
        else:
            return None
        return -value if negative else value

    # -- classification ----------------------------------------------------

    def classify(self, token):
        """Turn one operand token into a discovery-side operand object."""
        token = token.strip()
        if token in self.registers:
            return DReg(token)
        if self.imm_prefix and token.startswith(self.imm_prefix):
            body = token[len(self.imm_prefix):]
            value = self.parse_int(body)
            if value is not None:
                return DImm(value, self.imm_prefix)
            if is_identifier(body):
                return DSym(body, self.imm_prefix)
            return DUnknown(token)
        value = self.parse_int(token)
        if value is not None:
            if self.imm_prefix:
                # Bare integers are absolute addresses on $-immediate targets.
                return DMem("absolute", None, value)
            return DImm(value, "")
        match = _PAREN_RE.match(token)
        if match and match.group(2) in self.registers:
            disp_text = match.group(1)
            disp = 0 if disp_text == "" else self.parse_int(disp_text)
            if disp is None and is_identifier(disp_text):
                disp = disp_text
            if disp is not None:
                return DMem("paren", match.group(2), disp)
        match = _BRACKET_RE.match(token)
        if match and match.group(1).strip() in self.registers:
            base = match.group(1).strip()
            if match.group(3) is None:
                return DMem("bracket", base, 0)
            disp = self.parse_int(match.group(3))
            if disp is not None:
                if match.group(2) == "-":
                    disp = -disp
                return DMem("bracket", base, disp)
        if is_identifier(token):
            return DSym(token)
        return DUnknown(token)

    # -- rendering ----------------------------------------------------------

    def render_operand(self, op):
        if isinstance(op, DReg):
            return op.name
        if isinstance(op, DImm):
            return f"{op.prefix}{op.value}"
        if isinstance(op, DSym):
            return f"{op.prefix}{op.name}"
        if isinstance(op, DMem):
            if op.kind == "absolute":
                return str(op.disp)
            if op.kind == "paren":
                disp = op.disp
                return f"{disp}({op.base})"
            if op.kind == "bracket":
                if isinstance(op.disp, int) and op.disp == 0:
                    return f"[{op.base}]"
                return f"[{op.base}{op.disp:+d}]"
            raise ValueError(f"unknown memory kind {op.kind!r}")
        if isinstance(op, DUnknown):
            return op.text
        raise TypeError(f"not a discovery operand: {op!r}")

    def render_instr(self, instr):
        """The instruction's label lines, then its own line; rendered
        once per instruction and kept on it (mutants share every
        instruction they leave unchanged)."""
        if instr.rendered is None:
            lines = [f"{label}:" for label in instr.labels]
            if instr.operands:
                rendered = ", ".join(self.render_operand(op) for op in instr.operands)
                lines.append(f"\t{instr.mnemonic} {rendered}")
            else:
                lines.append(f"\t{instr.mnemonic}")
            instr.rendered = "\n".join(lines)
        return instr.rendered

    def render_instrs(self, instrs):
        return "\n".join(self.render_instr(instr) for instr in instrs)

    def load_imm_instr(self, value, reg):
        if self.loadimm is None:
            raise ValueError("load-immediate template not discovered yet")
        return self.loadimm.instr(value, reg, self.imm_prefix)

    # -- reporting ------------------------------------------------------------

    def describe(self):
        lines = [
            f"comment character : {self.comment_char!r}",
            f"immediate prefix  : {self.imm_prefix!r}",
            f"emitted base      : {self.emitted_base}",
            "accepted bases    : "
            + ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(self.accepted_bases.items())),
            f"registers ({len(self.registers)})    : " + " ".join(sorted(self.registers)),
        ]
        if self.loadimm:
            example = self.render_instr(self.load_imm_instr(1235, sorted(self.registers)[0]))
            lines.append(f"load-immediate    : {example.strip()}")
        return "\n".join(lines)
