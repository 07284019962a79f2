"""Assembler behaviour: parsing, rejection, probing hooks."""

import pytest

from repro.errors import AssemblerError
from repro.machines.assembler import LINE_MEMO_CAP, Assembler, split_operands
from repro.machines.machine import RemoteMachine, build_model, target_names
from repro.machines.operands import Imm, Mem, Reg
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
