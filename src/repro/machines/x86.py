"""Simulated Intel x86 (i386, AT&T syntax) integer subset.

The quirks the paper exercises are all here: two-address use-def
arithmetic (``addl src, dst``), ``%eax`` serving many unrelated purposes,
the ``cltd``/``idivl`` pair with implicit ``%eax``/``%edx`` arguments
(paper Figures 8 and 10d), and the ``imull`` use-def destination of
Figure 9.
"""

from __future__ import annotations

import re

from repro import wordops
from repro.errors import ExecutionError
from repro.machines.executor import effaddr, read, write
from repro.machines.isa import Abi, InstrDef, InstrForm, Isa, RegisterDef, SyntaxDef
from repro.machines.operands import Bare, Imm, Mem, Reg

WORD = 32

_REG_RE = re.compile(r"^%[a-z]+$")
_MEM_RE = re.compile(r"^(-?\w*)\((%[a-z]+)\)$")
_ID_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")


class X86Syntax(SyntaxDef):
    comment_char = "#"
    literal_bases = {"": 10, "0x": 16}
    hex_upper_ok = True

    def parse_operand(self, text):
        text = text.strip()
        if not text:
            raise ValueError("empty operand")
        if text.startswith("%"):
            if not _REG_RE.match(text):
                raise ValueError(f"malformed register {text!r}")
            return Reg(text)
        if text.startswith("$"):
            body = text[1:]
            value = self.parse_int(body)
            if value is not None:
                return Imm(value)
            if _ID_RE.match(body):
                from repro.machines.operands import Sym

                return Imm(Sym(body))
            raise ValueError(f"malformed immediate {text!r}")
        match = _MEM_RE.match(text)
        if match:
            disp_text, base = match.group(1), match.group(2)
            if disp_text == "":
                disp = 0
            else:
                disp = self.parse_int(disp_text)
                if disp is None:
                    raise ValueError(f"malformed displacement in {text!r}")
            return Mem(disp, base)
        value = self.parse_int(text)
        if value is not None:
            return Mem(value, None)  # absolute memory reference
        if _ID_RE.match(text):
            return Bare(text)
        raise ValueError(f"malformed operand {text!r}")

    def render_operand(self, op):
        if isinstance(op, Reg):
            return op.name
        if isinstance(op, Imm):
            return f"${op.value}" if isinstance(op.value, int) else f"${op.value.name}"
        if isinstance(op, Mem):
            disp = op.disp if isinstance(op.disp, int) else op.disp.name
            if op.base is None:
                return str(disp)
            return f"{disp}({op.base})"
        return str(getattr(op, "target", getattr(op, "name", op)))


def _mov(state, ops):
    write(state, ops[1], read(state, ops[0]))


def _movzbl(state, ops):
    value = state.mem.load(effaddr(state, ops[0]), 1)
    write(state, ops[1], value)


def _leal(state, ops):
    write(state, ops[1], effaddr(state, ops[0]))


def _push(state, ops):
    sp = state.get_reg("%esp") - 4
    state.set_reg("%esp", sp)
    state.mem.store(sp, read(state, ops[0]), 4)


def _pop(state, ops):
    sp = state.get_reg("%esp")
    write(state, ops[0], state.mem.load(sp, 4))
    state.set_reg("%esp", sp + 4)


def _arith(fn):
    def execute(state, ops):
        src = read(state, ops[0])
        dst = read(state, ops[1])
        write(state, ops[1], fn(dst, src, WORD))

    return execute


def _shift(fn):
    def execute(state, ops):
        count = read(state, ops[0]) % 32
        dst = read(state, ops[1])
        write(state, ops[1], fn(dst, count, WORD))

    return execute


def _negl(state, ops):
    write(state, ops[0], wordops.neg(read(state, ops[0]), WORD))


def _notl(state, ops):
    write(state, ops[0], wordops.bit_not(read(state, ops[0]), WORD))


def _incl(state, ops):
    write(state, ops[0], wordops.add(read(state, ops[0]), 1, WORD))


def _decl(state, ops):
    write(state, ops[0], wordops.sub(read(state, ops[0]), 1, WORD))


def _cltd(state, ops):
    # Sign-extend %eax into %edx: branch-free so symbolic states pass
    # through (all-ones when the sign bit is set, zero otherwise).
    state.set_reg("%edx", wordops.shr_arith(state.get_reg("%eax"), 31, WORD))


def _idivl(state, ops):
    lo = state.get_reg("%eax")
    hi = state.get_reg("%edx")
    dividend = wordops.to_signed((hi << 32) | lo, 64)
    divisor = wordops.to_signed(read(state, ops[0]), WORD)
    if divisor == 0:
        raise ExecutionError("idivl: division by zero")
    state.set_reg("%eax", wordops.mask(wordops.c_div(dividend, divisor), WORD))
    state.set_reg("%edx", wordops.mask(wordops.c_mod(dividend, divisor), WORD))


def _cmpl(state, ops):
    # AT&T: cmpl src, dst sets flags from dst - src.
    state.compare_signed(read(state, ops[1]), read(state, ops[0]))


def _branch(cond):
    def execute(state, ops):
        if cond(state.cc):
            state.branch(read(state, ops[0]))

    return execute


def _jmp(state, ops):
    state.branch(read(state, ops[0]))


def _call(state, ops):
    sp = state.get_reg("%esp") - 4
    state.set_reg("%esp", sp)
    state.mem.store(sp, state.pc, 4)  # state.pc is already the return index
    state.branch(read(state, ops[0]))


def _ret(state, ops):
    sp = state.get_reg("%esp")
    target = state.mem.load(sp, 4)
    state.set_reg("%esp", sp + 4)
    state.branch(wordops.to_signed(target, WORD))


def _leave(state, ops):
    state.set_reg("%esp", state.get_reg("%ebp"))
    _pop(state, [Reg("%ebp")])


def _nop(state, ops):
    pass


class X86Abi(Abi):
    stack_pointer = "%esp"

    def get_arg(self, state, index):
        # Immediately after `call`: return address at (%esp), args above it.
        sp = state.get_reg("%esp")
        return state.mem.load(sp + 4 + 4 * index, 4)

    def set_retval(self, state, value):
        state.set_reg("%eax", value)

    def do_return(self, state):
        _ret(state, [])

    def setup_entry(self, state, entry_index, halt_index):
        sp = state.get_reg("%esp") - 4
        state.set_reg("%esp", sp)
        state.mem.store(sp, wordops.mask(halt_index, WORD), 4)
        state.pc = entry_index


def build_isa():
    registers = [
        RegisterDef("%eax"),
        RegisterDef("%ebx"),
        RegisterDef("%ecx"),
        RegisterDef("%edx"),
        RegisterDef("%esi"),
        RegisterDef("%edi"),
        RegisterDef("%ebp", allocatable=False),
        RegisterDef("%esp", allocatable=False),
    ]
    instructions = {}

    def define(mnemonic, *forms):
        instructions[mnemonic] = InstrDef(mnemonic, list(forms))

    define(
        "movl",
        InstrForm(("rim", "r"), _mov),
        InstrForm(("ri", "m"), _mov),
    )
    define("movzbl", InstrForm(("m", "r"), _movzbl))
    define("leal", InstrForm(("m", "r"), _leal))
    define("pushl", InstrForm(("rim",), _push))
    define("popl", InstrForm(("r",), _pop))
    for mnemonic, fn in [
        ("addl", wordops.add),
        ("subl", wordops.sub),
        ("imull", wordops.mul),
        ("andl", wordops.band),
        ("orl", wordops.bor),
        ("xorl", wordops.bxor),
    ]:
        define(
            mnemonic,
            InstrForm(("rim", "r"), _arith(fn)),
            InstrForm(("ri", "m"), _arith(fn)),
        )
    for mnemonic, fn in [
        ("sall", wordops.shl),
        ("sarl", wordops.shr_arith),
        ("shrl", wordops.shr_logical),
    ]:
        define(
            mnemonic,
            InstrForm(("i", "r"), _shift(fn)),
            InstrForm(("r", "r"), _shift(fn), reg_constraints={0: {"%ecx"}}),
        )
    define("negl", InstrForm(("r",), _negl))
    define("notl", InstrForm(("r",), _notl))
    define("incl", InstrForm(("rm",), _incl))
    define("decl", InstrForm(("rm",), _decl))
    define("cltd", InstrForm((), _cltd))
    define("idivl", InstrForm(("rm",), _idivl))
    define("cmpl", InstrForm(("rim", "rm"), _cmpl))
    define("jmp", InstrForm(("l",), _jmp))
    define("je", InstrForm(("l",), _branch(lambda cc: cc["eq"])))
    define("jne", InstrForm(("l",), _branch(lambda cc: not cc["eq"])))
    define("jl", InstrForm(("l",), _branch(lambda cc: cc["lt"])))
    define("jle", InstrForm(("l",), _branch(lambda cc: cc["lt"] or cc["eq"])))
    define("jg", InstrForm(("l",), _branch(lambda cc: cc["gt"])))
    define("jge", InstrForm(("l",), _branch(lambda cc: cc["gt"] or cc["eq"])))
    define("call", InstrForm(("l",), _call))
    define("ret", InstrForm((), _ret))
    define("leave", InstrForm((), _leave))
    define("nop", InstrForm((), _nop))

    syntax = X86Syntax()
    return Isa(
        name="x86",
        word_bits=WORD,
        endian="little",
        registers=registers,
        instructions=instructions,
        syntax=syntax,
        abi=X86Abi(),
        int_size=4,
        pointer_size=4,
        call_mnemonics=("call",),
    )
