"""Generic two-section, table-driven assembler.

Parses target assembly text into an :class:`ObjectFile`.  Anything the
instruction table does not sanction -- unknown mnemonics, malformed
operands, unknown registers, out-of-range immediates, wrong operand
counts -- raises :class:`~repro.errors.AssemblerError`, which is exactly
the behaviour the paper's syntax-probing techniques rely on ("assemblers
which simply crash on the first error are quite acceptable").

Discovery reassembles near-identical texts thousands of times (a
mutation changes one or two lines of a sample), so each
:class:`Assembler` memoises the parse of every instruction line it has
seen -- or the message it rejected it with -- keyed by the line's text
once comments and labels are gone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.machines.operands import Imm, Lab, Mem, Reg, Sym

#: the line memo is emptied when it holds this many entries; on every
#: target its hit rate stays within half a point of an unbounded memo
LINE_MEMO_CAP = 4096

_LABEL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}


@dataclass
class TextInstr:
    """One assembled instruction (pre-link: operands may contain Syms).

    ``symbolic`` says whether any operand holds a :class:`Sym` the
    linker must resolve; one without is linked as is."""

    mnemonic: str
    form: object
    operands: list
    lineno: int
    text: str
    symbolic: bool


@dataclass
class DataEntry:
    """One datum in the data section."""

    labels: list
    kind: str  # "long" | "byte" | "asciz" | "space" | "align"
    value: object
    export: bool = False


@dataclass
class ObjectFile:
    """Result of assembling one compilation unit."""

    isa_name: str
    instrs: list = field(default_factory=list)
    text_labels: dict = field(default_factory=dict)
    data: list = field(default_factory=list)
    exports: set = field(default_factory=set)

    def local_label_names(self):
        names = set(self.text_labels)
        for entry in self.data:
            names.update(entry.labels)
        return names


def _unescape(body, lineno):
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body) or body[i] not in _ESCAPES:
                raise AssemblerError("bad string escape", lineno)
            out.append(_ESCAPES[body[i]])
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def split_operands(text):
    """Split an operand list on top-level commas (commas inside parens or
    brackets belong to a single operand)."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail or parts:
        parts.append(tail)
    return parts


class Assembler:
    """Assembles text for one :class:`~repro.machines.isa.Isa`."""

    def __init__(self, isa):
        self.isa = isa
        #: instruction text -> (mnemonic, form, operands, symbolic), or
        #: the rejection message
        self._memo = {}

    def assemble(self, source):
        obj = ObjectFile(isa_name=self.isa.name)
        section = "text"
        pending_labels = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw).strip()
            if not line:
                continue
            # Peel off any leading labels (there may be several).
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                pending_labels.append(match.group(1))
                line = match.group(2).strip()
            if not line:
                continue
            if line.startswith("."):
                section, consumed = self._directive(obj, section, line, pending_labels, lineno)
                if consumed:
                    pending_labels = []
                continue
            if section != "text":
                raise AssemblerError("instruction outside .text section", lineno)
            for label in pending_labels:
                self._def_text_label(obj, label, lineno)
            pending_labels = []
            parsed = self._memo.get(line)
            if parsed is None:
                parsed = self._parse_instruction(line)
                if len(self._memo) >= LINE_MEMO_CAP:
                    self._memo.clear()
                self._memo[line] = parsed
            if isinstance(parsed, str):
                raise AssemblerError(parsed, lineno)
            mnemonic, form, operands, symbolic = parsed
            obj.instrs.append(TextInstr(mnemonic, form, list(operands), lineno, line, symbolic))
        # Labels trailing the last instruction point one past the end.
        if section == "text":
            for label in pending_labels:
                self._def_text_label(obj, label, None)
        return obj

    # -- helpers -------------------------------------------------------

    def _strip_comment(self, line):
        cut = line.find(self.isa.syntax.comment_char)
        if cut >= 0:
            return line[:cut]
        return line

    def _def_text_label(self, obj, label, lineno):
        if label in obj.text_labels:
            raise AssemblerError(f"duplicate label {label!r}", lineno)
        obj.text_labels[label] = len(obj.instrs)

    def _directive(self, obj, section, line, pending_labels, lineno):
        """Handle one directive; returns ``(new_section, labels_consumed)``."""
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            return "text", False
        if name == ".data":
            return "data", False
        if name == ".globl" or name == ".global":
            for sym in split_operands(rest):
                obj.exports.add(sym)
            return section, False
        if name == ".align":
            if section == "data":
                obj.data.append(DataEntry(list(pending_labels), "align", self._int(rest, lineno)))
                return section, True
            return section, False  # alignment of code is a no-op for us
        if name in (".long", ".word", ".quad"):
            if section != "data":
                raise AssemblerError(f"{name} outside .data", lineno)
            size = 8 if name == ".quad" else 4
            values = [self._int_or_sym(v, lineno) for v in split_operands(rest)]
            obj.data.append(DataEntry(list(pending_labels), "long", (size, values)))
            return section, True
        if name == ".byte":
            if section != "data":
                raise AssemblerError(".byte outside .data", lineno)
            values = [self._int(v, lineno) for v in split_operands(rest)]
            obj.data.append(DataEntry(list(pending_labels), "byte", values))
            return section, True
        if name == ".asciz" or name == ".ascii":
            if section != "data":
                raise AssemblerError(f"{name} outside .data", lineno)
            body = rest.strip()
            if len(body) < 2 or body[0] != '"' or body[-1] != '"':
                raise AssemblerError("malformed string literal", lineno)
            text = _unescape(body[1:-1], lineno)
            if name == ".asciz":
                text += "\0"
            obj.data.append(DataEntry(list(pending_labels), "asciz", text))
            return section, True
        if name in (".skip", ".space"):
            if section != "data":
                raise AssemblerError(f"{name} outside .data", lineno)
            obj.data.append(DataEntry(list(pending_labels), "space", self._int(rest, lineno)))
            return section, True
        if name == ".comm":
            args = split_operands(rest)
            if len(args) != 2:
                raise AssemblerError(".comm needs name,size", lineno)
            obj.data.append(
                DataEntry([args[0]], "space", self._int(args[1], lineno), export=True)
            )
            obj.exports.add(args[0])
            return section, False
        raise AssemblerError(f"unknown directive {name!r}", lineno)

    def _int(self, text, lineno):
        value = self.isa.syntax.parse_int(text)
        if value is None:
            raise AssemblerError(f"bad integer literal {text!r}", lineno)
        return value

    def _int_or_sym(self, text, lineno):
        value = self.isa.syntax.parse_int(text)
        if value is not None:
            return value
        text = text.strip()
        if re.fullmatch(r"[A-Za-z_.$][A-Za-z0-9_.$]*", text):
            return Sym(text)
        raise AssemblerError(f"bad data value {text!r}", lineno)

    def _parse_instruction(self, line):
        """Parse one instruction line: ``(mnemonic, form, operands,
        symbolic)``, or the message it is rejected with."""
        parts = line.split(None, 1)
        mnemonic = parts[0]
        if mnemonic not in self.isa.instructions:
            return f"unknown instruction {mnemonic!r}"
        operand_text = parts[1].strip() if len(parts) > 1 else ""
        texts = split_operands(operand_text) if operand_text else []
        try:
            operands = [self.isa.syntax.parse_operand(t) for t in texts]
        except ValueError as exc:
            return f"malformed operand: {exc}"
        for op in operands:
            name = op.name if isinstance(op, Reg) else getattr(op, "base", None)
            if name is not None and self.isa.lookup_reg(name) is None:
                return f"unknown register {name!r}"
        form, coerced, why = self.isa.match_form(mnemonic, operands)
        if form is None:
            return f"{mnemonic}: {why or 'no matching form'}"
        symbolic = any(_holds_sym(op) for op in coerced)
        return mnemonic, form, tuple(coerced), symbolic


def _holds_sym(op):
    if isinstance(op, Lab):
        return isinstance(op.target, Sym)
    if isinstance(op, Imm):
        return isinstance(op.value, Sym)
    if isinstance(op, Mem):
        return isinstance(op.disp, Sym)
    return False
