"""E4/E6/E7/E8/E9: the Preprocessor's mutation analyses.

Covers the four compiler/architecture irregularities of Figure 4, the
redundant-instruction elimination of Figure 6, the live-range splitting
of Figure 7, the implicit-argument detection of Figure 8, and the
def/use computation of Figure 9 -- each on the architecture the paper
used to illustrate it.
"""

from repro.discovery.asmmodel import DImm, DInstr, DReg, DSym
from repro.discovery.preprocess import Preprocessor
from repro.discovery.samples import Sample
from tests.discovery.conftest import sample_named


class TestFig4Irregularities:
    def test_a_sparc_implicit_call_arguments(self, sparc_report):
        """Fig 4(a): procedure actuals in %o0, %o1 are implicit inputs of
        the call instruction."""
        sample = sample_named(sparc_report, "int_call_P2_bc")
        info = sample.info
        call_idx = info.call_like[0]
        assert info.implicit_in.get(call_idx) == {"%o0", "%o1"}
        assert info.implicit_out.get(call_idx) == {"%o0"}

    def test_b_x86_eax_reused_for_three_tasks(self, x86_report):
        """Fig 4(b)/Fig 7: the %eax occurrences split into distinct live
        ranges: push-b, push-c, and the call result."""
        sample = sample_named(x86_report, "int_call_P2_bc")
        ranges = [r for r in sample.info.ranges if r.reg == "%eax"]
        assert len(ranges) == 3
        resolved = [r for r in ranges if r.resolved]
        assert len(resolved) == 2  # the two push set-ups
        unresolved = [r for r in ranges if not r.resolved]
        assert len(unresolved) == 1  # the call-result use
        assert unresolved[0].flavor == "use"

    def test_c_sparc_delay_slot_normalised(self, sparc_report):
        """Fig 4(c): the instruction the compiler moved into the call's
        delay slot is hoisted back above the call."""
        sample = sample_named(sparc_report, "int_mul_a_bOPc")
        assert sample.info.normalised_delay_slots >= 1
        call_idx = sample.info.call_like[0]
        # The glued filler sits right after the call.
        assert sample.region[call_idx + 1].glued
        # Both argument moves now precede the call.
        pre = [i.mnemonic for i in sample.region[:call_idx]]
        assert pre.count("mov") == 2

    def test_d_alpha_redundant_instruction_removed(self, alpha_report):
        """Fig 4(d)/Fig 6: the Alpha compiler's superfluous
        ``addl $n, 0, $n`` after shifts is eliminated."""
        sample = sample_named(alpha_report, "int_shl_a_bOPK")
        assert any("addl" in text and ", 0," in text for text in sample.info.removed)
        assert all(i.mnemonic != "addl" for i in sample.region)


class TestCallLike:
    def test_a_symbol_defined_outside_the_region_is_not_external(self, x86_report):
        """Only a symbol defined nowhere in the file is external code: a
        jump to the End label is not call-like, even though End is
        defined outside the region."""
        sample = Sample(
            name="synthetic", kind="call", op=None, shape="", statement="",
            values={}, pre_lines=["main:", "Begin:"], post_lines=["End:", "\tret"],
            region=[
                DInstr("jmp", [DSym("End")]),
                DInstr("call", [DSym("P")]),
                DInstr("movl", [DImm(1, "$"), DReg("%eax")]),
            ],
        )
        pre = Preprocessor(x86_report.engine)
        assert pre._find_call_like(sample, pre._outside_labels(sample)) == [1]


class TestFig6Redundant:
    def test_clean_regions_lose_nothing(self, mips_report):
        sample = sample_named(mips_report, "int_add_a_bOPc")
        assert sample.info.removed == []

    def test_x86_cltd_survives_thanks_to_clobbering(self, x86_report):
        """Deleting cltd preserves output when %edx happens to be 0; the
        clobber-all prefix (Fig 6 c/d) defeats that chance success."""
        sample = sample_named(x86_report, "int_div_a_bOPc")
        assert any(i.mnemonic == "cltd" for i in sample.region)

    def test_removed_instructions_recorded_verbatim(self, alpha_report):
        sample = sample_named(alpha_report, "int_shl_a_bOPc")
        for text in sample.info.removed:
            assert isinstance(text, str) and text


class TestFig7LiveRanges:
    def test_straightline_ranges_pair_defs_with_uses(self, mips_report):
        sample = sample_named(mips_report, "int_mul_a_bOPc")
        ranges = {r.reg: r for r in sample.info.ranges}
        assert all(r.resolved for r in ranges.values())
        # $9 and $10 carry b and c into the mul; $11 carries the result.
        assert len(ranges["$9"].occurrences) == 2
        assert len(ranges["$11"].occurrences) == 2

    def test_sparc_argument_registers_split_at_the_call(self, sparc_report):
        sample = sample_named(sparc_report, "int_mul_a_bOPc")
        o0_ranges = [r for r in sample.info.ranges if r.reg == "%o0"]
        assert len(o0_ranges) == 2
        flavors = sorted(r.flavor for r in o0_ranges if not r.resolved)
        assert flavors == ["def", "use"]  # arg in, result out


class TestFig8Implicit:
    def test_x86_division_implicit_eax(self, x86_report):
        """Fig 8/10(d): %eax is an implicit argument of the cltd/idivl
        pair; %ecx is independent of everything."""
        sample = sample_named(x86_report, "int_div_a_bOPc")
        info = sample.info
        assert "%eax" in info.dependent_regs
        cltd_idx = next(
            i for i, instr in enumerate(sample.region) if instr.mnemonic == "cltd"
        )
        idiv_idx = next(
            i for i, instr in enumerate(sample.region) if instr.mnemonic == "idivl"
        )
        involved = set()
        for index in (cltd_idx, idiv_idx):
            for implicit in (info.implicit_in, info.implicit_out, info.implicit_maybe):
                involved |= implicit.get(index, set())
        assert "%eax" in involved

    def test_x86_mod_implicates_edx(self, x86_report):
        sample = sample_named(x86_report, "int_mod_a_bOPc")
        info = sample.info
        assert "%edx" in info.dependent_regs

    def test_mips_call_arguments_detected(self, mips_report):
        sample = sample_named(mips_report, "int_call_P2_bc")
        info = sample.info
        call_idx = info.call_like[0]
        assert info.implicit_in.get(call_idx) == {"$4", "$5"}
        assert info.implicit_out.get(call_idx) == {"$2"}

    def test_vax_call_result_register(self, vax_report):
        sample = sample_named(vax_report, "int_call_P_b")
        info = sample.info
        call_idx = info.call_like[0]
        assert info.implicit_out.get(call_idx) == {"r0"}


class TestFig9DefUse:
    def test_x86_imull_destination_is_use_def(self, x86_report):
        """Fig 9's worked example: the multiplication destination is both
        read and written."""
        sample = sample_named(x86_report, "int_mul_a_bOPc")
        imull_idx = next(
            i for i, instr in enumerate(sample.region) if instr.mnemonic == "imull"
        )
        kinds = {
            k: v for (i, k), v in sample.info.visible_kinds.items() if i == imull_idx
        }
        assert "usedef" in kinds.values()

    def test_vax_two_operand_destination_is_use_def(self, vax_report):
        sample = sample_named(vax_report, "int_mod_a_bOPc")
        mull2_idx = next(
            i for i, instr in enumerate(sample.region) if instr.mnemonic == "mull2"
        )
        assert sample.info.visible_kinds[(mull2_idx, 1)] == "usedef"

    def test_risc_three_operand_kinds(self, alpha_report):
        sample = sample_named(alpha_report, "int_add_a_bOPc")
        add_idx = next(
            i for i, instr in enumerate(sample.region) if instr.mnemonic == "addl"
        )
        kinds = sample.info.visible_kinds
        assert kinds[(add_idx, 0)] == "use"
        assert kinds[(add_idx, 1)] == "use"
        assert kinds[(add_idx, 2)] == "def"
