"""Linker behaviour: symbol resolution, locality, data layout."""

import pytest

from repro.discovery.samples import INIT_HEADER, make_init_source, make_main_source
from repro.errors import LinkerError
from repro.machines.assembler import TextInstr
from repro.machines.machine import RemoteMachine, target_names
from repro.machines.operands import Imm, Lab, Mem, Sym


@pytest.fixture(scope="module")
def x86():
    return RemoteMachine("x86")


def test_separate_compilation_with_local_labels(x86):
    # Both objects define a local label L1; they must not collide.
    a = x86.assemble(
        ".text\n.globl main\nmain:\nL1: call helper\npushl %eax\npushl $0\ncall exit\n"
    )
    b = x86.assemble(".text\n.globl helper\nhelper:\nL1: movl $7, %eax\nret\n")
    result = x86.execute(x86.link([a, b]))
    assert result.ok
    assert result.exit_code == 0


def test_undefined_symbol_is_a_link_error(x86):
    obj = x86.assemble(".text\n.globl main\nmain: call nowhere\n")
    with pytest.raises(LinkerError):
        x86.link([obj])


def test_duplicate_exported_symbol_is_a_link_error(x86):
    a = x86.assemble(".text\n.globl main\nmain: nop\n")
    b = x86.assemble(".text\n.globl main\nmain: nop\n")
    with pytest.raises(LinkerError):
        x86.link([a, b])


def test_globals_shared_across_objects(x86):
    a = x86.assemble(
        ".data\n.globl z\n.align 4\nz: .long 5\n"
        ".text\n.globl main\nmain:\ncall bump\npushl z\ncall exit\n"
    )
    b = x86.assemble(".text\n.globl bump\nbump:\naddl $2, z\nret\n")
    result = x86.execute(x86.link([a, b]))
    assert result.exit_code == 7


def test_comm_reserves_zeroed_space(x86):
    a = x86.assemble(".data\n.comm shared,4\n.text\n.globl main\nmain:\npushl shared\ncall exit\n")
    result = x86.execute(x86.link([a]))
    assert result.exit_code == 0


def test_builtins_resolve(x86):
    obj = x86.assemble(".text\n.globl main\nmain:\npushl $0\ncall exit\n")
    result = x86.execute(x86.link([obj]))
    assert result.ok


def test_linking_does_not_mutate_objects(x86):
    init = x86.assemble(".text\n.globl helper\nhelper: movl $3, %eax\nret\n")
    main1 = x86.assemble(".text\n.globl main\nmain: call helper\npushl %eax\ncall exit\n")
    exe1 = x86.link([main1, init])
    exe2 = x86.link([main1, init])  # same handles reused
    assert x86.execute(exe1).exit_code == 3
    assert x86.execute(exe2).exit_code == 3


def test_cross_isa_link_rejected(x86):
    mips = RemoteMachine("mips")
    obj = mips.assemble(".text\n.globl main\nmain: nop\n")
    with pytest.raises(LinkerError):
        x86.link([obj])


def test_data_labels_resolve_to_addresses(x86):
    obj = x86.assemble(
        ".data\nv: .long 41\n.text\n.globl main\nmain:\n"
        "movl v, %eax\naddl $1, %eax\npushl %eax\ncall exit\n"
    )
    assert x86.execute(x86.link([obj])).exit_code == 42


def test_symbolic_data_word(x86):
    # A data word holding the address of another datum.
    obj = x86.assemble(
        ".data\nv: .long 9\np: .long v\n.text\n.globl main\nmain:\n"
        "movl p, %eax\nmovl (%eax), %ebx\npushl %ebx\ncall exit\n"
    )
    assert x86.execute(x86.link([obj])).exit_code == 9


# -- relocations: only the instructions holding a Sym are rebuilt ---------

#: statements giving mains of different lengths
STATEMENTS = (
    "a = b;",
    "a = b; b = c; c = a;",
    "a = b * c; b = a - c; c = b / 3; a = a + b + c;",
)


def ref_instrs(objects, program):
    """Every instruction of *objects* in link order, each operand that
    holds a Sym resolved: local labels by the object's own renaming,
    then code labels, data labels and builtins, in that order."""
    out = []
    for oid, obj in enumerate(objects):
        rename = {
            name: name if name in obj.exports else f"{name}@{oid}"
            for name in obj.local_label_names()
        }

        def value(sym, instr):
            name = rename.get(sym.name, sym.name)
            for table in (program.labels, program.data_labels, program.builtin_names):
                if name in table:
                    return table[name]
            raise LinkerError(
                f"undefined symbol {name!r} ({instr.mnemonic} at line {instr.lineno})"
            )

        for instr in obj.instrs:
            operands = []
            for op in instr.operands:
                if isinstance(op, Lab) and isinstance(op.target, Sym):
                    op = Lab(value(op.target, instr))
                elif isinstance(op, Imm) and isinstance(op.value, Sym):
                    op = Imm(value(op.value, instr))
                elif isinstance(op, Mem) and isinstance(op.disp, Sym):
                    op = Mem(value(op.disp, instr), op.base)
                operands.append(op)
            out.append(TextInstr(instr.mnemonic, instr.form, operands, instr.lineno, instr.text))
    return out


@pytest.mark.parametrize("target", target_names())
def test_init_links_after_and_before_mains_as_the_reference(target):
    machine = RemoteMachine(target)
    init = machine.assemble(machine.compile_c(make_init_source({"a": 3, "b": 5, "c": 7})))
    assert init._obj.relocations
    mains = [
        machine.assemble(
            machine.compile_c(make_main_source(statement), headers={"init.h": INIT_HEADER})
        )
        for statement in STATEMENTS
    ]
    assert len({len(main._obj.instrs) for main in mains}) == len(mains)
    for main in mains:
        for order in ([main, init], [init, main]):
            program = machine.link(order)._program
            assert program.instrs == ref_instrs([h._obj for h in order], program)


@pytest.mark.parametrize("position", [0, 1])
def test_undefined_symbol_names_its_relocated_instruction(x86, position):
    helper = x86.assemble(".text\n.globl helper\nhelper: movl $3, %eax\nL1: jmp L1\nret\n")
    main = x86.assemble(
        ".data\nv: .long 1\n.text\n.globl main\nmain: movl v, %eax\nnop\n"
        "call helper\npushl %eax\ncall nowhere\ncall exit\n"
    )
    order = [main, helper] if position == 0 else [helper, main]
    with pytest.raises(LinkerError, match=r"^undefined symbol 'nowhere' \(call at line 9\)$"):
        x86.link(order)
