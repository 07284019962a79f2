"""Executor behaviour: control flow, calls, builtins, failure modes."""

import pytest

from repro import wordops
from repro.analysis.symexec import SymVal, fresh
from repro.errors import ExecutionError
from repro.machines import executor
from repro.machines.executor import ExecState, Memory
from repro.machines.machine import RemoteMachine, build_model, target_names
from repro.machines.operands import Bare, Imm, Lab, Mem, Reg, Sym


@pytest.fixture(scope="module")
def x86():
    return RemoteMachine("x86")


@pytest.fixture(scope="module")
def sparc():
    return RemoteMachine("sparc")


def run(machine, body, data=""):
    text = ""
    if data:
        text += ".data\n" + data + "\n"
    text += ".text\n.globl main\nmain:\n" + body + "\n"
    return machine.run_asm([text])


def test_return_from_main_halts_cleanly(x86):
    result = run(x86, "movl $1, %eax\nret")
    assert result.ok


def test_fall_off_end_reported(x86):
    result = run(x86, "movl $1, %eax")
    assert not result.ok
    assert "fell off" in result.error


def test_exit_code(x86):
    result = run(x86, "pushl $3\ncall exit")
    assert result.ok
    assert result.exit_code == 3


def test_division_by_zero_is_an_error(x86):
    result = run(x86, "movl $0, %ebx\nmovl $1, %eax\ncltd\nidivl %ebx")
    assert not result.ok
    assert "zero" in result.error


def test_infinite_loop_runs_out_of_fuel():
    machine = RemoteMachine("x86", fuel=1000)
    result = run(machine, "spin: jmp spin")
    assert not result.ok
    assert "fuel" in result.error


def test_undefined_main_is_an_error(x86):
    result = x86.run_asm([".text\nnotmain: nop\n"])
    assert not result.ok


def test_hardwired_register_reads_zero(sparc):
    result = run(
        sparc,
        "set 5, %g1\nadd %g0, %g0, %g1\nmov %g1, %o1\n"
        "set fmt, %o0\ncall printf, 2\nnop\ncall exit, 1\nmov 0, %o0",
        data='fmt: .asciz "%i\\n"',
    )
    assert result.output == "0\n"


def test_hardwired_register_ignores_writes(sparc):
    result = run(
        sparc,
        "set 5, %g0\nmov %g0, %o1\n"
        "set fmt, %o0\ncall printf, 2\nnop\ncall exit, 1\nmov 0, %o0",
        data='fmt: .asciz "%i\\n"',
    )
    assert result.output == "0\n"


def test_sparc_call_delay_slot_executes_before_transfer(sparc):
    # The mov in the delay slot must set up %o1 before printf runs.
    result = run(
        sparc,
        "set fmt, %o0\ncall printf, 2\nmov 42, %o1\ncall exit, 1\nmov 0, %o0",
        data='fmt: .asciz "%i\\n"',
    )
    assert result.output == "42\n"


def test_printf_conversions(x86):
    result = run(
        x86,
        "pushl $-7\npushl $65\npushl $-7\npushl $fmt\ncall printf\n"
        "addl $16, %esp\npushl $0\ncall exit",
        data='fmt: .asciz "%i %c %u"',
    )
    assert result.ok
    assert result.output == "-7 A 4294967289"


def test_printf_string_conversion(x86):
    result = run(
        x86,
        "pushl $msg\npushl $fmt\ncall printf\naddl $8, %esp\npushl $0\ncall exit",
        data='fmt: .asciz "[%s]"\nmsg: .asciz "ok"',
    )
    assert result.output == "[ok]"


def test_execution_never_raises_on_bad_jump(x86):
    result = run(x86, "movl $99999, %eax\npushl %eax\nret")
    assert not result.ok


def test_stats_count_executions(x86):
    before = x86.stats.executions
    run(x86, "pushl $0\ncall exit")
    assert x86.stats.executions == before + 1


# -- register file, per target ----------------------------------------------

HARDWIRED = {"sparc": {"%g0"}, "mips": {"$0"}, "alpha": {"$31"}}


def _state(target):
    isa = build_model(target).isa
    return isa, ExecState(isa, Memory(isa.endian))


@pytest.mark.parametrize("target", target_names())
def test_register_file_names_and_aliases(target):
    isa, state = _state(target)
    word = (1 << isa.word_bits) - 1
    # The verifier's def/use diff reads state.regs by canonical name.
    assert list(state.regs) == [r.name for r in isa.registers]
    writable = [r for r in isa.registers if r.hardwired is None]
    for n, reg in enumerate(writable):
        for name in (reg.name, *reg.aliases):
            value = -(n + 1) * 0x1_0000_0001 - len(name)
            state.set_reg(name, value)
            assert state.get_reg(reg.name) == value & word, name
            assert state.get_reg(name) == value & word, name
    assert {r.name for r in isa.registers if r.hardwired is not None} == HARDWIRED.get(
        target, set()
    )


@pytest.mark.parametrize("target", sorted(HARDWIRED))
def test_hardwired_registers_read_zero_and_discard_writes(target):
    isa, state = _state(target)
    for name in HARDWIRED[target]:
        assert state.get_reg(name) == 0
        state.set_reg(name, 1234)
        assert state.get_reg(name) == 0
        assert state.regs[name] == 0


@pytest.mark.parametrize("target", target_names())
def test_unknown_register_is_an_execution_error(target):
    _, state = _state(target)
    with pytest.raises(ExecutionError) as read_error:
        state.get_reg("%zz")
    with pytest.raises(ExecutionError) as write_error:
        state.set_reg("%zz", 1)
    assert str(read_error.value) == str(write_error.value) == "unknown register '%zz'"


# -- operand dispatch errors ------------------------------------------------


@pytest.mark.parametrize(
    "access, op, message",
    [
        (executor.read, Imm(Sym("x")), "unresolved immediate Sym(x)"),
        (executor.read, Lab(Sym("L")), "unresolved label Sym(L)"),
        (executor.read, Bare("x"), "cannot read operand Bare(name='x')"),
        (lambda s, op: executor.write(s, op, 1), Imm(1), "cannot write operand Imm(1)"),
        (lambda s, op: executor.write(s, op, 1), Lab(3), "cannot write operand Lab(3)"),
        (executor.effaddr, Reg("%eax"), "not a memory operand: Reg(%eax)"),
        (executor.effaddr, Mem(Sym("x"), None), "unresolved displacement Sym(x)"),
    ],
)
def test_operand_dispatch_errors(access, op, message):
    _, state = _state("x86")
    with pytest.raises(ExecutionError) as error:
        access(state, op)
    assert str(error.value) == message


def test_symbolic_immediate_reads_as_a_masked_symbolic_word():
    isa, state = _state("x86")
    word = fresh("w")
    value = executor.read(state, Imm(word))
    assert isinstance(value, SymVal)
    assert value.term == wordops.mask(word, isa.word_bits).term
