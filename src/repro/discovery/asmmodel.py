"""Discovery-side model of target assembly code.

Deliberately separate from :mod:`repro.machines`: the discovery unit may
only know what it has learned by probing.  The model assumes the paper's
"standard notation" (section 3.1): one instruction per line, optional
label, an operator and comma-separated operands, comments to end of
line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

_LABEL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$")
# identifier-ish operand tokens; the leading % admits %-prefixed registers
_IDENT_RE = re.compile(r"^[%A-Za-z_.$][A-Za-z0-9_.$]*$")
# the characters that split an operand list or change its bracket depth
_OPERAND_PUNCT_RE = re.compile(r"[,()\[\]]")


# -- operands ----------------------------------------------------------


@dataclass(frozen=True)
class DReg:
    """A register operand."""

    name: str

    def key(self):
        return ("reg", self.name)


@dataclass(frozen=True)
class DImm:
    """An integer immediate (``value``), as written with ``prefix``."""

    value: int
    prefix: str = ""

    def key(self):
        return ("imm", self.value)


@dataclass(frozen=True)
class DMem:
    """A memory operand.

    ``kind`` is the discovered addressing-mode shape:
    ``"paren"``  -- ``disp(base)``     (x86, MIPS, Alpha, VAX)
    ``"bracket"``-- ``[base+disp]``    (SPARC)
    ``"absolute"`` -- a bare symbol or integer address.
    ``base`` is a register name or None; ``disp`` an int or symbol name.
    """

    kind: str
    base: str | None = None
    disp: object = 0

    def key(self):
        return ("mem", self.kind, self.base, self.disp)

    def mode_id(self):
        """Identity of the addressing mode as an extraction unknown."""
        if self.kind == "absolute":
            return "abs"
        has_disp = not (isinstance(self.disp, int) and self.disp == 0)
        return f"{self.kind}+disp" if has_disp else self.kind


@dataclass(frozen=True)
class DSym:
    """A bare symbol: code label reference or global-variable reference."""

    name: str
    prefix: str = ""  # "$" when written as an immediate symbol ($Lstr0)

    def key(self):
        return ("sym", self.name)


@dataclass(frozen=True)
class DUnknown:
    """An operand token the lexer could not classify."""

    text: str

    def key(self):
        return ("unknown", self.text)


@dataclass(frozen=True)
class Slot:
    """A placeholder operand in a synthesized emission template.

    Instantiated by the generated code generator: ``left``/``right``/
    ``result``/``scratchN`` become registers, ``label`` a branch target,
    ``imm`` an immediate, ``slot`` a frame memory operand, ``nargs`` /
    ``cleanup`` call-protocol immediates.
    """

    name: str

    def key(self):
        return ("slot", self.name)


def template_slots(template_instrs):
    """The names of the Slot operands in a template."""
    return {
        op.name
        for instr in template_instrs
        for op in instr.operands
        if isinstance(op, Slot)
    }


def instantiate(template_instrs, mapping):
    """Replace Slot operands using *mapping*; returns fresh DInstrs."""
    out = []
    for instr in template_instrs:
        operands = []
        for op in instr.operands:
            if isinstance(op, Slot):
                if op.name not in mapping:
                    raise KeyError(f"unbound template slot {op.name!r}")
                operands.append(mapping[op.name])
            else:
                operands.append(op)
        out.append(instr.clone(operands=operands))
    return out


# -- instructions ------------------------------------------------------


@dataclass
class DInstr:
    """One tokenized instruction with any labels defined just before it.

    ``glued`` marks an instruction that must stay immediately after its
    predecessor (a call's delay-slot filler): mutations never insert
    between a glued instruction and the one before it.
    """

    mnemonic: str
    operands: list
    labels: list = field(default_factory=list)
    raw: str = ""
    glued: bool = False

    #: the rendered text, cached by ``DiscoveredSyntax.render_instr``.
    #: Not a field: ``clone`` never copies it and checkpoints leave it
    #: out.  An instruction is therefore never edited in place once it
    #: may have been rendered; edit a fresh clone instead.
    rendered = None

    def clone(self, **changes):
        new = DInstr(
            mnemonic=changes.get("mnemonic", self.mnemonic),
            operands=list(changes.get("operands", self.operands)),
            labels=list(changes.get("labels", self.labels)),
            raw=changes.get("raw", self.raw),
            glued=changes.get("glued", self.glued),
        )
        return new

    def registers(self):
        """All register names appearing in this instruction."""
        regs = []
        for op in self.operands:
            if isinstance(op, DReg):
                regs.append(op.name)
            elif isinstance(op, DMem) and op.base is not None:
                regs.append(op.base)
        return regs

    def rename_register(self, old, new, positions=None):
        """A copy with register *old* renamed to *new*.  ``positions``
        optionally restricts which operand indices are renamed."""
        ops = []
        for i, op in enumerate(self.operands):
            if positions is not None and i not in positions:
                ops.append(op)
            elif isinstance(op, DReg) and op.name == old:
                ops.append(DReg(new))
            elif isinstance(op, DMem) and op.base == old:
                ops.append(replace(op, base=new))
            else:
                ops.append(op)
        return self.clone(operands=ops)

    def signature(self):
        """Operand-shape signature distinguishing same-mnemonic forms
        (the paper indexes instructions by signature, section 5.2)."""
        parts = ",".join(operand_part(op) for op in self.operands)
        return f"{self.mnemonic}({parts})"


def operand_part(op):
    """One concrete operand's part of :meth:`DInstr.signature`."""
    if isinstance(op, DReg):
        return "r"
    if isinstance(op, DImm):
        return "i"
    if isinstance(op, DMem):
        return "m:" + op.mode_id()
    if isinstance(op, DSym):
        return "s"
    return "?"


# -- raw line splitting (pre-syntax-discovery) --------------------------


@dataclass(slots=True)
class RawLine:
    """A minimally parsed assembly line.  Slotted: register discovery
    keeps every usable sample's lines until region extraction."""

    labels: list
    mnemonic: str | None
    operand_texts: list
    is_directive: bool
    text: str


def split_operand_texts(text):
    """Split an operand list on top-level commas, respecting brackets."""
    parts = []
    depth = 0
    start = 0
    for match in _OPERAND_PUNCT_RE.finditer(text):
        ch = match.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start : match.start()].strip())
            start = match.end()
    tail = text[start:].strip()
    if tail or parts:
        parts.append(tail)
    return parts


def split_lines(asm_text, comment_char):
    """Split assembly text into :class:`RawLine` records."""
    return [line for _index, line in number_lines(asm_text.splitlines(), comment_char)]


def number_lines(raw_lines, comment_char):
    """An (index into *raw_lines*, :class:`RawLine`) pair for each line
    that is not blank or comment-only."""
    lines = []
    for index, raw in enumerate(raw_lines):
        cut = raw.find(comment_char) if comment_char else -1
        line = (raw[:cut] if cut >= 0 else raw).strip()
        if not line:
            continue
        labels = []
        while True:
            match = _LABEL_RE.match(line)
            if not match:
                break
            labels.append(match.group(1))
            line = match.group(2).strip()
        if not line:
            lines.append((index, RawLine(labels, None, [], False, raw)))
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand_texts = split_operand_texts(parts[1]) if len(parts) > 1 else []
        lines.append((index, RawLine(labels, mnemonic, operand_texts, line.startswith("."), raw)))
    return lines


def is_identifier(text):
    return bool(_IDENT_RE.match(text))
