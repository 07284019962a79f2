"""E12 (paper Figures 12/13): reverse interpretation.

The worked example: given the semantics of the loads, the store and the
addressing mode, the reverse interpreter fixes ``mul`` so the MIPS
sample evaluates to 34117 -- and the likelihood guidance finds most
interpretations "after just one or two tries".
"""

import pytest

from repro import wordops
from repro.discovery.reverse_interp import (
    check_sample,
    interpret_region,
    opkey,
)
from tests.discovery.conftest import discovery_report, sample_named


class TestDiscoveredSemantics:
    """The semantic ground truth per target (what the Extractor should
    find for the canonical instructions)."""

    def _effects(self, report, fragment):
        for key, op_sem in report.extraction.semantics.items():
            if key.startswith(fragment):
                return op_sem
        raise LookupError(fragment)

    @pytest.mark.parametrize(
        "target,fragment,rendered",
        [
            ("mips", "mul(r,r,r)", "arg0 <- mul(arg1, arg2)"),
            ("mips", "lw(", "arg0 <- arg1"),
            ("mips", "sw(", "M[arg1] <- arg0"),
            ("x86", "imull(", "arg1 <- mul(arg1, arg0)"),
            ("x86", "movl(i,r)", "arg1 <- arg0"),
            ("alpha", "mull(", "arg2 <- mul(arg0, arg1)"),
            ("vax", "mull3(m", "M[arg2] <- mul(arg0, arg1)"),
            ("sparc", "call(s,i)@.mul", "%o0 <- mul(%o0, %o1)"),
            ("sparc", "call(s,i)@.div", "%o0 <- div(%o0, %o1)"),
            ("sparc", "call(s,i)@.rem", "%o0 <- mod(%o0, %o1)"),
        ],
    )
    def test_key_semantics(self, target, fragment, rendered):
        report = discovery_report(target)
        op_sem = self._effects(report, fragment)
        assert rendered in op_sem.render()

    def test_x86_idivl_two_outputs(self, x86_report):
        op_sem = self._effects(x86_report, "idivl(")
        text = op_sem.render()
        assert "%eax <- div(%eax, arg0)" in text
        assert "%edx <- mod(%eax, arg0)" in text

    def test_vax_subl3_operand_reversal(self, vax_report):
        """subl3 sub, min, dif computes dif = min - sub: the operand
        roles are reversed relative to the syntax order."""
        op_sem = self._effects(vax_report, "subl3(m")
        assert "M[arg2] <- sub(arg1, arg0)" in op_sem.render()

    def test_most_interpretations_found_in_a_few_tries(self, report):
        """Paper 5.2.2: "often the reverse interpreter will come up with
        the correct semantic interpretation after just one or two
        tries"."""
        tries = [op.tries for op in report.extraction.semantics.values() if op.tries]
        assert tries
        within_two = sum(1 for t in tries if t <= 2)
        # RISC loads/stores/ALU land in 1-2 tries; CISC memory-to-memory
        # signatures take a few dozen.  EXPERIMENTS.md reports the full
        # distributions.
        assert within_two / len(tries) >= 0.2
        import statistics

        assert statistics.median(tries) <= 15
        assert max(tries) <= 3000

    def test_nearly_all_samples_explained(self, report):
        solved = set(report.extraction.solved)
        failed = set(report.extraction.failed)
        assert len(solved) >= 100
        assert len(failed) <= 4


class TestSupportLists:
    """An entry's ``samples`` are the solved samples that support it.  A
    revision keeps the samples the revised key was re-validated on."""

    def test_every_supporting_sample_passes_the_final_table(self, report):
        sem = report.extraction.effects_map()
        bits = report.enquire.word_bits
        solved = set(report.extraction.solved)
        passes = {}
        for key, op_sem in report.extraction.semantics.items():
            assert op_sem.samples, key
            for name in op_sem.samples:
                assert name in solved, (key, name)
                if name not in passes:
                    sample = sample_named(report, name)
                    passes[name] = check_sample(sample, sem, report.addr_map, bits)
                assert passes[name], (key, name)

    def test_x86_lists_survive_the_idivl_revisions(self, x86_report):
        semantics = x86_report.extraction.semantics
        # revising least-supported keys first never pops these moves
        assert len(semantics["movl(m:paren+disp,r)"].samples) == 94
        assert len(semantics["movl(i,r)"].samples) == 19
        # first solved from division samples, revised for remainders
        for key in ("idivl(m:paren+disp)", "idivl(r)"):
            ops = {sample_named(x86_report, name).op for name in semantics[key].samples}
            assert ops == {"/", "%"}, key


class TestInterpretationMachinery:
    def test_interpret_region_reproduces_sample_output(self, report):
        sem = report.extraction.effects_map()
        sample = sample_named(report, "int_mul_a_bOPc")
        bits = report.enquire.word_bits
        state = interpret_region(sample, sem, report.addr_map, bits)
        expected = wordops.mask(int(sample.expected_output.strip()), bits)
        assert state.mem[("var", "a")] == expected

    def test_check_sample_rejects_wrong_semantics(self, mips_report):
        sem = dict(mips_report.extraction.effects_map())
        sample = sample_named(mips_report, "int_mul_a_bOPc")
        mul_key = next(k for k in sem if k.startswith("mul("))
        sem[mul_key] = ((("op", 0), ("add", ("val", 1), ("val", 2))),)
        assert not check_sample(sample, sem, mips_report.addr_map, 32)

    def test_check_sample_accepts_the_committed_semantics(self, report):
        sem = report.extraction.effects_map()
        bits = report.enquire.word_bits
        checked = 0
        for sample in report.corpus.usable_samples():
            if sample.kind not in ("binary", "unary", "literal", "copy"):
                continue
            if not all(opkey(i) in sem for i in sample.region if i.mnemonic):
                continue
            assert check_sample(sample, sem, report.addr_map, bits), sample.name
            checked += 1
        assert checked >= 80

    def test_registers_start_symbolic(self, mips_report):
        from repro.discovery.reverse_interp import Addr, MachineState

        state = MachineState(mips_report.addr_map, {"a": 1, "b": 2, "c": 3}, 32)
        value = state.reg("$9")
        assert isinstance(value, Addr)
        assert value.base == "$90"

    def test_vax_ash_limitation_reproduced(self, vax_report):
        """Section 5.2.3: "we currently cannot analyze instructions like
        the VAX's arithmetic shift (ash)" -- the same signature needs
        both shift directions, so one right-shift-by-constant sample is
        discarded."""
        discarded = [
            s.name
            for s in vax_report.corpus.samples
            if s.discarded and "shr" in s.name and "OPK" in s.name
        ]
        assert discarded  # at least one ash casualty
