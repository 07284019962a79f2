"""E5 (paper Figure 5): the six mutations and the variant discipline."""


from repro.discovery import mutation as mut
from repro.discovery.asmmodel import DImm, DInstr, DMem, DReg
from tests.discovery.conftest import discovery_report, sample_named


def _instrs():
    return [
        DInstr("op1", [DReg("r1"), DImm(1)]),
        DInstr("op2", [DReg("r2"), DReg("r1")], labels=["L9"]),
        DInstr("op3", [DMem("paren", "r3", -4), DReg("r2")]),
    ]


class TestStructuralMutations:
    def test_delete_preserves_labels(self):
        out = mut.delete(_instrs(), 1)
        assert [i.mnemonic for i in out] == ["op1", "op3"]
        assert out[1].labels == ["L9"]

    def test_delete_last_keeps_labels_on_holder(self):
        instrs = _instrs()
        instrs[-1].labels = ["End"]
        out = mut.delete(instrs, 2)
        assert out[-1].mnemonic == ""
        assert out[-1].labels == ["End"]

    def test_move_before(self):
        out = mut.move(_instrs(), 2, 0)
        assert [i.mnemonic for i in out] == ["op3", "op1", "op2"]

    def test_move_after(self):
        out = mut.move(_instrs(), 0, 3)
        assert [i.mnemonic for i in out] == ["op2", "op3", "op1"]

    def test_copy_strips_labels(self):
        out = mut.copy(_instrs(), 1, 2)
        assert [i.mnemonic for i in out] == ["op1", "op2", "op3", "op2"]
        assert out[3].labels == []

    def test_rename_specific_occurrences(self):
        out = mut.rename(_instrs(), "r1", "r7", [(1, 1)])
        assert out[0].operands[0] == DReg("r1")  # untouched occurrence
        assert out[1].operands[1] == DReg("r7")

    def test_rename_all_renames_memory_bases_too(self):
        out = mut.rename_all(_instrs(), "r3", "r8")
        assert out[2].operands[0].base == "r8"

    def test_insert(self):
        filler = DInstr("nop", [])
        out = mut.insert(_instrs(), 1, [filler])
        assert [i.mnemonic for i in out] == ["op1", "nop", "op2", "op3"]

    def test_mutations_do_not_alias_the_original(self):
        """Mutants share the instructions they leave unchanged, so no
        mutation may edit its input list or any instruction in it."""
        original = _instrs()
        original[2].glued = True
        members = list(original)
        fields = [
            (i.mnemonic, list(i.operands), list(i.labels), i.glued) for i in original
        ]
        mutants = [
            mut.delete(original, 0),
            mut.delete(original, 1),  # labelled: L9 moves onto op3
            mut.insert(original, 1, [DInstr("nop", [])]),
            mut.move(original, 2, 0),
            mut.copy(original, 1, 2),
            mut.rename(original, "r1", "r9", [(0, 0), (1, 1)]),
            mut.rename_all(original, "r1", "r9"),
        ]
        assert mutants[1][1].labels == ["L9"]
        assert all(mutant is not original for mutant in mutants)
        assert len(original) == 3
        assert all(now is then for now, then in zip(original, members))
        assert [
            (i.mnemonic, i.operands, i.labels, i.glued) for i in original
        ] == fields


class TestMutationEngine:
    def test_failed_assembly_counts_as_failed_mutation(self, x86_report):
        engine = x86_report.engine
        sample = sample_named(x86_report, "int_add_a_bOPc")
        bogus = [DInstr("frobnicate", [DReg("%eax")])]
        assert not engine.succeeds_static(sample, sample.region + bogus)

    def test_noop_mutation_succeeds(self, report):
        engine = report.engine
        sample = sample_named(report, "int_add_a_bOPc")
        assert engine.succeeds_static(sample, sample.region)

    def test_clobber_values_avoid_degenerate_zero_one(self, report):
        engine = report.engine
        for _ in range(50):
            value = engine.clobber_value()
            assert value % (1 << engine.word_bits) not in (0, 1)

    def test_clobber_safe_registers_exclude_frame_bases(self, report):
        sample = sample_named(report, "int_add_a_bOPc")
        safe = report.engine.clobber_safe_registers(sample)
        bases = {
            op.base
            for instr in sample.region
            for op in instr.operands
            if hasattr(op, "base") and getattr(op, "base", None)
        }
        assert bases, "expected frame-relative operands"
        assert not bases & set(safe)

    def test_conditional_samples_get_flow_flipping_value_sets(self, report):
        engine = report.engine
        sample = sample_named(report, "int_cond_lt")
        sets = engine.value_sets(sample)
        assert len(sets) >= 2
        outputs = {vs.expected for vs in sets}
        assert len(outputs) >= 2  # both branch outcomes observed

    def test_deleting_the_branch_is_not_redundant(self, report):
        """A branch deletion matches the original under branch-taken
        values; the extra value sets (the variant discipline) catch it."""
        from repro.discovery import mutation as mut_mod

        engine = report.engine
        sample = sample_named(report, "int_cond_lt")
        branch_idx = None
        for i, instr in enumerate(sample.region):
            for op in instr.operands:
                if op.key()[0] == "sym":
                    branch_idx = i
        assert branch_idx is not None
        mutated = mut_mod.delete(sample.region, branch_idx)
        assert not engine.succeeds_static(sample, mutated)


class TestFunctionalRegisters:
    def test_hardwired_registers_fail_the_probe(self):
        for target, hardwired in (("sparc", "%g0"), ("mips", "$0"), ("alpha", "$31")):
            report = discovery_report(target)
            functional = report.engine.functional_registers()
            assert hardwired not in functional, target
            assert hardwired in report.syntax.registers

    def test_x86_and_vax_have_no_hardwired_registers(self):
        for target in ("x86", "vax"):
            report = discovery_report(target)
            functional = set(report.engine.functional_registers())
            assert functional == set(report.syntax.registers)
