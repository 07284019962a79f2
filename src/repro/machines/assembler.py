"""Generic two-section, table-driven assembler.

Parses target assembly text into an :class:`ObjectFile`.  Anything the
instruction table does not sanction -- unknown mnemonics, malformed
operands, unknown registers, out-of-range immediates, wrong operand
counts -- raises :class:`~repro.errors.AssemblerError`, which is exactly
the behaviour the paper's syntax-probing techniques rely on ("assemblers
which simply crash on the first error are quite acceptable").

Discovery reassembles near-identical texts thousands of times (a
mutation changes one or two lines of a sample), so each
:class:`Assembler` memoises what every raw line it has seen holds: its
labels, then a directive or an instruction's parse (or the message it
rejected it with).  Most lines it has not seen are load-immediates with
a fresh value, so below that memo it parses each operand text once
(literal immediates excepted) and selects forms per operand shape,
leaving only the range check to run per value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.machines.operands import Bare, Imm, Lab, Mem, Reg, Sym

#: each of an assembler's tables is emptied when it holds this many
#: entries; on every target the line memo's hit rate stays within half a
#: point of an unbounded memo
LINE_MEMO_CAP = 4096

_LABEL_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}

_BRACKETS = frozenset("()[]")

#: the shape code of a literal immediate (see :func:`_shape_code`)
_LITERAL = (Imm, False)


@dataclass
class TextInstr:
    """One assembled instruction (pre-link: operands may contain Syms)."""

    mnemonic: str
    form: object
    operands: list
    lineno: int
    text: str


@dataclass
class DataEntry:
    """One datum in the data section."""

    labels: list
    kind: str  # "long" | "byte" | "asciz" | "space" | "align"
    value: object
    export: bool = False


@dataclass
class ObjectFile:
    """Result of assembling one compilation unit.

    ``relocations`` lists, in order, the indices of the instructions
    with an operand holding a :class:`Sym` the linker must resolve; the
    linker takes every other instruction as it is.  The assembler fills
    it in as it appends those instructions."""

    isa_name: str
    instrs: list = field(default_factory=list)
    text_labels: dict = field(default_factory=dict)
    data: list = field(default_factory=list)
    exports: set = field(default_factory=set)
    relocations: list = field(default_factory=list, init=False)

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
    if _BRACKETS.isdisjoint(text):
        parts = [part.strip() for part in text.split(",")]
        return parts if len(parts) > 1 or parts[0] else []
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
        #: raw line -> ``(labels, statement, parsed)`` (see :meth:`_read_line`)
        self._memo = {}
        #: operand text -> ``(operand, shape code, unknown register or
        #: None)``, or the rejection message; literal immediates stay out
        self._operands = {}
        #: ``(mnemonic, shape codes)`` -> ``(Isa.form_shape, symbolic)``
        self._shapes = {}

    def assemble(self, source):
        obj = ObjectFile(isa_name=self.isa.name)
        section = "text"
        pending_labels = []
        instrs = obj.instrs
        memo = self._memo
        for lineno, raw in enumerate(source.splitlines(), start=1):
            read = memo.get(raw)
            if read is None:
                read = self._read_line(raw)
                _remember(memo, raw, read)
            labels, line, parsed = read
            if labels:
                pending_labels.extend(labels)
            if line is None:
                continue
            if parsed is None:
                section, consumed = self._directive(obj, section, line, pending_labels, lineno)
                if consumed:
                    pending_labels = []
                continue
            if section != "text":
                raise AssemblerError("instruction outside .text section", lineno)
            if pending_labels:
                for label in pending_labels:
                    self._def_text_label(obj, label, lineno)
                pending_labels = []
            if isinstance(parsed, str):
                raise AssemblerError(parsed, lineno)
            mnemonic, form, operands, symbolic = parsed
            if symbolic:
                obj.relocations.append(len(instrs))
            instrs.append(TextInstr(mnemonic, form, list(operands), lineno, line))
        # Labels trailing the last instruction point one past the end.
        if section == "text":
            for label in pending_labels:
                self._def_text_label(obj, label, None)
        return obj

    # -- helpers -------------------------------------------------------

    def _read_line(self, raw):
        """What one raw line holds: ``(labels, statement, parsed)``.

        *statement* is the text left once the comment and leading labels
        are gone, or None when nothing is left; *parsed* is None for a
        directive (handled on every assembly, as it depends on the
        section), else :meth:`_parse_instruction`'s answer."""
        cut = raw.find(self.isa.syntax.comment_char)
        line = (raw if cut < 0 else raw[:cut]).strip()
        labels = []
        # Peel off any leading labels (there may be several).
        while ":" in line:
            match = _LABEL_RE.match(line)
            if not match:
                break
            labels.append(match.group(1))
            line = match.group(2).strip()
        labels = tuple(labels)
        if not line:
            return labels, None, None
        if line.startswith("."):
            return labels, line, None
        return labels, line, self._parse_instruction(line)

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
        operands, codes, unknown = [], [], None
        for text in split_operands(operand_text) if operand_text else ():
            read = self._operands.get(text)
            if read is None:
                read = self._read_operand(text)
                if isinstance(read, str) or read[1] != _LITERAL:
                    _remember(self._operands, text, read)
            if isinstance(read, str):
                return read
            op, code, register = read
            if unknown is None:
                unknown = register
            operands.append(op)
            codes.append(code)
        if unknown is not None:
            return f"unknown register {unknown!r}"
        key = (mnemonic, tuple(codes))
        shape = self._shapes.get(key)
        if shape is None:
            symbolic = any(isinstance(op, Bare) or _holds_sym(op) for op in operands)
            shape = (self.isa.form_shape(mnemonic, operands), symbolic)
            _remember(self._shapes, key, shape)
        form_shape, symbolic = shape
        form, coerced, why = self.isa.select_form(form_shape, operands)
        if form is None:
            return f"{mnemonic}: {why or 'no matching form'}"
        return mnemonic, form, tuple(coerced), symbolic

    def _read_operand(self, text):
        """One operand text: ``(operand, shape code, unknown register or
        None)``, or the message a malformed one is rejected with."""
        try:
            op = self.isa.syntax.parse_operand(text)
        except ValueError as exc:
            return f"malformed operand: {exc}"
        name = op.name if isinstance(op, Reg) else getattr(op, "base", None)
        unknown = name if name is not None and self.isa.lookup_reg(name) is None else None
        return op, _shape_code(op), unknown


def _remember(table, key, value):
    if len(table) >= LINE_MEMO_CAP:
        table.clear()
    table[key] = value


def _shape_code(op):
    """What form selection reads of *op* besides its value: a register's
    name (for register constraints), else its kind and, for an
    immediate, memory or label operand, whether it holds a Sym."""
    kind = type(op)
    if kind is Reg:
        return op.name
    if kind is Bare:
        return Bare
    return kind, _holds_sym(op)


def _holds_sym(op):
    if isinstance(op, Lab):
        return isinstance(op.target, Sym)
    if isinstance(op, Imm):
        return isinstance(op.value, Sym)
    if isinstance(op, Mem):
        return isinstance(op.disp, Sym)
    return False
