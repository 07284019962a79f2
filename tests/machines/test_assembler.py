"""Assembler behaviour: parsing, rejection, probing hooks."""

import random
import re

import pytest

from repro.errors import AssemblerError
from repro.machines.assembler import (
    LINE_MEMO_CAP,
    Assembler,
    ObjectFile,
    TextInstr,
    split_operands,
)
from repro.machines.machine import RemoteMachine, build_model, target_names
from repro.machines.operands import Imm, Lab, Mem, Reg, Sym, coerce_to_signature
from tests.cc.test_battery import CASES


@pytest.fixture(scope="module")
def x86():
    return RemoteMachine("x86")


@pytest.fixture(scope="module")
def sparc():
    return RemoteMachine("sparc")


def test_split_operands_top_level_commas_only():
    assert split_operands("a, b, c") == ["a", "b", "c"]
    assert split_operands("-12(%ebp), %eax") == ["-12(%ebp)", "%eax"]
    assert split_operands("[%fp+-8], %o0") == ["[%fp+-8]", "%o0"]
    assert split_operands("") == []


@pytest.mark.parametrize(
    "text",
    ["a), b", "a], b", "(a, b", "a,,b", "", " ", ",", "a,", " a , b ", "x(y,z), w",
     "[a, b], c", "a)(, b", "$1, %eax"],
)
def test_split_operands_equals_the_char_loop(text):
    """Text without brackets takes a fast path; it and unbalanced text
    split as the plain character loop splits them."""
    assert split_operands(text) == ref_split_operands(text)


def test_unknown_mnemonic_rejected(x86):
    assert not x86.assembles_ok(".text\nfrobnicate %eax\n")


def test_unknown_register_rejected(x86):
    assert not x86.assembles_ok(".text\nmovl %foo, %eax\n")


def test_wrong_operand_count_rejected(x86):
    assert not x86.assembles_ok(".text\nmovl %eax\n")


def test_immediate_to_immediate_rejected(x86):
    assert not x86.assembles_ok(".text\nmovl $1, $2\n")


def test_comment_char_is_target_specific(x86, sparc):
    assert x86.assembles_ok(".text\nnop # junk ] here\n")
    assert not x86.assembles_ok(".text\nnop ! junk ] here\n")
    assert sparc.assembles_ok(".text\nnop ! junk ] here\n")
    assert not sparc.assembles_ok(".text\nnop # junk ] here\n")


def test_sparc_immediate_range_boundaries(sparc):
    assert sparc.assembles_ok(".text\nadd %o0, 4095, %o1\n")
    assert sparc.assembles_ok(".text\nadd %o0, -4096, %o1\n")
    assert not sparc.assembles_ok(".text\nadd %o0, 4096, %o1\n")
    assert not sparc.assembles_ok(".text\nadd %o0, -4097, %o1\n")


def test_hex_literals_accepted(x86):
    assert x86.assembles_ok(".text\nmovl $0x10, %eax\n")


def test_duplicate_label_rejected(x86):
    assert not x86.assembles_ok(".text\nfoo: nop\nfoo: nop\n")


def test_label_and_instruction_on_one_line(x86):
    handle = x86.assemble(".text\nfoo: nop\n")
    assert handle._obj.text_labels["foo"] == 0


def test_label_alone_points_at_next_instruction(x86):
    obj = x86.assemble(".text\nfoo:\nbar:\nnop\n")._obj
    assert obj.text_labels == {"foo": 0, "bar": 0}


def test_data_directives(x86):
    obj = x86.assemble('.data\nv: .long 5, 6\ns: .asciz "hi"\nb: .byte 1,2\n')._obj
    kinds = [entry.kind for entry in obj.data]
    assert kinds == ["long", "asciz", "byte"]


def test_instruction_in_data_section_rejected(x86):
    with pytest.raises(AssemblerError):
        x86.assemble(".data\nnop\n")


def test_operand_objects(x86):
    obj = x86.assemble(".text\nmovl $5, %eax\nmovl -12(%ebp), %eax\n")._obj
    first, second = obj.instrs
    assert first.operands == [Imm(5), Reg("%eax")]
    assert second.operands == [Mem(-12, "%ebp"), Reg("%eax")]


def test_assembly_error_counts_in_stats(x86):
    before = x86.stats.assembly_errors
    with pytest.raises(AssemblerError):
        x86.assemble(".text\nbogus\n")
    assert x86.stats.assembly_errors == before + 1


def test_register_constrained_operand():
    x86 = RemoteMachine("x86")
    assert x86.assembles_ok(".text\nsall %ecx, %eax\n")
    assert not x86.assembles_ok(".text\nsall %ebx, %eax\n")


# -- the per-connection line memo --------------------------------------


@pytest.fixture(scope="module")
def x86_isa():
    return build_model("x86").isa


def test_memoised_rejection_reports_each_calls_line(x86_isa):
    asm = Assembler(x86_isa)
    with pytest.raises(AssemblerError) as at_2:
        asm.assemble(".text\nmovl $1, $2\n")
    with pytest.raises(AssemblerError) as at_5:
        asm.assemble(".text\nnop\nnop\nnop\nmovl $1, $2\n")
    first, second = str(at_2.value), str(at_5.value)
    assert first.startswith("line 2: ") and second.startswith("line 5: ")
    assert first[len("line 2: "):] == second[len("line 5: "):]
    assert (at_2.value.lineno, at_5.value.lineno) == (2, 5)


def test_memoised_line_gives_fresh_instructions(x86_isa):
    asm = Assembler(x86_isa)
    first, _, again = asm.assemble(".text\nmovl $5, %eax\nnop\nmovl $5, %eax\n").instrs
    assert (first.lineno, again.lineno) == (2, 4)
    assert first.operands == again.operands == [Imm(5), Reg("%eax")]
    assert first.operands is not again.operands


def test_memo_cap_keeps_answers(x86_isa):
    asm = Assembler(x86_isa)
    lines = "".join(f"movl ${n}, %eax\n" for n in range(5000))
    asm.assemble(".text\n" + lines)
    assert len(asm._memo) <= LINE_MEMO_CAP
    text = ".text\nmovl $0, %eax\n"
    assert asm.assemble(text) == Assembler(x86_isa).assemble(text)


@pytest.mark.parametrize("target", target_names())
def test_warm_assembler_matches_fresh_one(target):
    """Every battery program assembles to the same object through an
    assembler that has seen them all as through a new one."""
    machine = RemoteMachine(target)
    isa = build_model(target).isa
    texts = [machine.compile_c(source) for _, source, _ in CASES if source is not None]
    warm = Assembler(isa)
    for text in texts:
        warm.assemble(text)
    for text in texts:
        assert warm.assemble(text) == Assembler(isa).assemble(text)


# -- the memoised parse equals the plain one ------------------------------
#
# The assembler memoises each raw line, each operand text and each
# operand shape's form selection.  The plain definitions it replaced are
# kept below as the reference: split on top-level commas one character
# at a time, parse every operand, check its registers, then try each
# form in turn (signature, immediate ranges, register constraints).


def ref_split_operands(text):
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


def ref_match_form(isa, mnemonic, operands):
    instr_def = isa.instructions.get(mnemonic)
    why = None
    for form in instr_def.forms if instr_def else ():
        coerced = coerce_to_signature(operands, form.signature)
        if coerced is None:
            why = "operands do not match any form"
            continue
        why = None
        for index, (lo, hi) in form.imm_ranges.items():
            op = coerced[index]
            value = None
            if isinstance(op, Imm) and isinstance(op.value, int):
                value = op.value
            elif isinstance(op, Mem) and isinstance(op.disp, int):
                value = op.disp
            if value is not None and not lo <= value <= hi:
                why = f"immediate {value} out of range [{lo},{hi}]"
                break
        if why is None:
            for index, allowed in form.reg_constraints.items():
                op = coerced[index]
                if isinstance(op, Reg):
                    allowed_canon = {isa.canonical_reg(a) for a in allowed}
                    if isa.canonical_reg(op.name) not in allowed_canon:
                        why = f"register {op.name} not allowed in position {index}"
                        break
        if why is None:
            return form, coerced, None
    return None, None, why


def ref_parse_line(isa, line):
    """``(mnemonic, form, coerced operands)`` for one instruction line
    (comment and labels gone), or the message it is rejected with."""
    parts = line.split(None, 1)
    mnemonic = parts[0]
    if mnemonic not in isa.instructions:
        return f"unknown instruction {mnemonic!r}"
    operand_text = parts[1].strip() if len(parts) > 1 else ""
    texts = ref_split_operands(operand_text) if operand_text else []
    try:
        operands = [isa.syntax.parse_operand(t) for t in texts]
    except ValueError as exc:
        return f"malformed operand: {exc}"
    for op in operands:
        name = op.name if isinstance(op, Reg) else getattr(op, "base", None)
        if name is not None and isa.lookup_reg(name) is None:
            return f"unknown register {name!r}"
    form, coerced, why = ref_match_form(isa, mnemonic, operands)
    if form is None:
        return f"{mnemonic}: {why or 'no matching form'}"
    return mnemonic, form, coerced


_REF_LABEL = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$")


def _holds_sym(op):
    held = {Lab: "target", Imm: "value", Mem: "disp"}.get(type(op))
    return held is not None and isinstance(getattr(op, held), Sym)


def ref_assemble(isa, source):
    """The whole text, one line at a time, through :func:`ref_parse_line`.
    Directives go to an :class:`Assembler`'s own handler, which no memo
    touches."""
    directives = Assembler(isa)
    obj = ObjectFile(isa_name=isa.name)
    section = "text"
    pending = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        cut = raw.find(isa.syntax.comment_char)
        line = (raw if cut < 0 else raw[:cut]).strip()
        while True:
            match = _REF_LABEL.match(line)
            if not match:
                break
            pending.append(match.group(1))
            line = match.group(2).strip()
        if not line:
            continue
        if line.startswith("."):
            section, consumed = directives._directive(obj, section, line, pending, lineno)
            if consumed:
                pending = []
            continue
        if section != "text":
            raise AssemblerError("instruction outside .text section", lineno)
        for label in pending:
            directives._def_text_label(obj, label, lineno)
        pending = []
        parsed = ref_parse_line(isa, line)
        if isinstance(parsed, str):
            raise AssemblerError(parsed, lineno)
        mnemonic, form, coerced = parsed
        if any(_holds_sym(op) for op in coerced):
            obj.relocations.append(len(obj.instrs))
        obj.instrs.append(TextInstr(mnemonic, form, coerced, lineno, line))
    if section == "text":
        for label in pending:
            directives._def_text_label(obj, label, None)
    return obj


def _outcome(assemble, text):
    """The object *text* assembles to, or the error with its line."""
    try:
        return assemble(text)
    except Exception as exc:  # its type is compared as well
        return type(exc).__name__, str(exc), getattr(exc, "lineno", None)


def _assert_as_reference(isa, texts):
    """One assembler, warm from every earlier text, answers each text as
    the reference does."""
    warm = Assembler(isa)
    for text in texts:
        assert _outcome(warm.assemble, text) == _outcome(
            lambda t: ref_assemble(isa, t), text
        ), text


#: the load-immediate line each target's syntax discovery finds, which
#: mutation analysis writes with a fresh value for every clobber
LOAD_IMMEDIATE = {
    "alpha": "ldiq $0, {}",
    "m68k": "move.l #{}, a0",
    "mips": "li $0, {}",
    "sparc": "set {}, %fp",
    "vax": "movl ${}, ap",
    "x86": "movl ${}, %eax",
}

#: operand texts each target must reject, or read in some other way
ODD_OPERANDS = (
    "", "(", ")", "[", "]", "()", "[]", "8(", "1)2", "$", "#", "%", "0x", "-",
    "0xZZ", "$$1", "#-", "%zz", "$99", "r99", "d9", "8(%zz)", "8($99)", "8(r99)",
    "[%zz+4]", "[%fp+zz]", "L9", "$L9", "#L9", "x y", "0x10(%eax)",
)


#: operand texts naming a register no target has, in each target's style
UNKNOWN_REGISTERS = ("%zz", "%yy", "$99", "$98", "r99", "d9", "8(%zz)", "8($99)", "8(r99)")


def _line(mnemonic, texts):
    return f"{mnemonic} {', '.join(texts)}" if texts else mnemonic


def _form_lines(isa):
    """Lines for every form of every instruction: each accepted kind per
    position, every register at a constrained position, immediates and
    displacements at each range's edges, one operand too few and one
    too many, odd operand texts in every position, and two unknown
    registers, or one and a malformed operand, in the first two."""
    syntax = isa.syntax
    reg = isa.register_names(allocatable_only=True)[0]
    rendered = {
        "r": syntax.render_operand(Reg(reg)),
        "i": syntax.render_operand(Imm(1)),
        "m": syntax.render_operand(Mem(8, reg)),
        "l": "L1",
    }
    lines = []
    for mnemonic, instr_def in isa.instructions.items():
        for form in instr_def.forms:
            base = [rendered[codes[0]] for codes in form.signature]
            lines.append(_line(mnemonic, base))
            lines.append(_line(mnemonic, base[:-1]))
            lines.append(_line(mnemonic, base + base[:1]))
            for pos, codes in enumerate(form.signature):
                for code in "rimlx":
                    texts = list(base)
                    texts[pos] = rendered.get(code, "L2")
                    lines.append(_line(mnemonic, texts))
                for odd in ODD_OPERANDS:
                    texts = list(base)
                    texts[pos] = odd
                    lines.append(_line(mnemonic, texts))
            if len(base) >= 2 and form is instr_def.forms[0]:
                for first in UNKNOWN_REGISTERS:
                    for second in UNKNOWN_REGISTERS + ("", "(", "0xZZ"):
                        lines.append(_line(mnemonic, [first, second] + base[2:]))
            for pos in form.reg_constraints:
                for name in isa.register_names():
                    texts = list(base)
                    texts[pos] = syntax.render_operand(Reg(name))
                    lines.append(_line(mnemonic, texts))
            for pos, (lo, hi) in form.imm_ranges.items():
                for value in (lo - 1, lo, hi, hi + 1):
                    for code, op in (("i", Imm(value)), ("m", Mem(value, reg))):
                        if code in form.signature[pos]:
                            texts = list(base)
                            texts[pos] = syntax.render_operand(op)
                            lines.append(_line(mnemonic, texts))
    return lines


@pytest.mark.parametrize("target", target_names())
def test_battery_programs_assemble_as_the_reference(target):
    machine = RemoteMachine(target)
    texts = [machine.compile_c(source) for _, source, _ in CASES if source is not None]
    _assert_as_reference(build_model(target).isa, texts + texts)


@pytest.mark.parametrize("target", target_names())
def test_load_immediates_assemble_as_the_reference(target):
    """The clobber line at 200 seeded word values and at the edges of
    every immediate range the target has."""
    isa = build_model(target).isa
    rng = random.Random(1997)
    bits = isa.word_bits
    values = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(100)]
    values += [rng.randint(-5000, 5000) for _ in range(100)]
    for instr_def in isa.instructions.values():
        for form in instr_def.forms:
            for lo, hi in form.imm_ranges.values():
                values += [lo - 1, lo, hi, hi + 1]
    template = LOAD_IMMEDIATE[target]
    texts = [f".text\n{template.format(value)}\n" for value in values]
    texts.append(".text\n" + "".join(f"{template.format(v)}\n" for v in values))
    _assert_as_reference(isa, texts)


@pytest.mark.parametrize("target", target_names())
def test_every_form_assembles_as_the_reference(target):
    """Accepted and rejected lines alike: malformed operands, unknown
    registers, wrong operand counts, constrained registers and range
    edges, each on a line of its own with line numbers that vary."""
    isa = build_model(target).isa
    lines = _form_lines(isa)
    texts = [".text\n" + "\n" * (i % 3) + line + "\n" for i, line in enumerate(lines)]
    _assert_as_reference(isa, texts + texts[::-1])


@pytest.mark.parametrize("target", target_names())
def test_labels_directives_and_comments_assemble_as_the_reference(target):
    """Labels, directives and comments mixed on one line, duplicate
    labels, instructions in the data section and stray directives."""
    isa = build_model(target).isa
    cc = isa.syntax.comment_char
    machine = RemoteMachine(target)
    program = machine.compile_c(CASES[0][1])
    instrs = [
        line.strip() for line in program.splitlines()
        if line.strip() and not line.strip().startswith(".") and ":" not in line
    ][:6]
    nop = instrs[0]
    texts = [program]
    for i, instr in enumerate(instrs):
        texts += [
            f".text\nL{i}: {instr} {cc} junk ], (x, y\n",
            f".text\nA: B{i}:   {instr}\nC{i}:\n",
            f".text\n  {instr}   {cc}\nD{i}:   {cc} only a comment\n{cc}\n\n",
            f".text\nE: {instr}\nE: {nop}\n",
            f".data\nv{i}: .long 5, 6 {cc} words\n.text\nF{i}: {instr}\n",
            f".data\n{instr}\n",
            f".data\nw: .long v, 7\nb: .byte 1, 2 {cc} c\ns: .asciz \"a,b\" \n"
            f".text\n.globl main {cc} g\nmain: .align 4\n{instr}\n",
            f".text\nG{i}: .long 5\n",
            f".text\nH{i}: .bogus 1\n",
            f".data\n.comm z{i},4 {cc} c\n.text\n{instr}\n",
            f"{cc} header\n.text\nL{i}:M{i}:N{i}: {instr}\nP{i}:\n",
        ]
    _assert_as_reference(isa, texts + texts)
