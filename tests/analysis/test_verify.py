"""Translation validation of discovered specs (SPEC1xx).

Two golden batteries:

* Pristine: every simulated target's discovered description verifies
  with zero SPEC1xx *errors* against its own machine model -- the only
  admissible findings are SPEC105 infos (obligations discharged by
  concrete sampling because the template escapes the symbolic domain:
  division guards, the VAX signed-count shifts).

* Corrupted: each mutator plants one specific semantic lie in a
  deepcopy of a real spec and the verifier must refute it with the
  expected code and a concrete counterexample witness.
"""

import copy

import pytest

from repro.analysis.formats import render
from repro.analysis.verify import (
    _mem_slot,
    build_model,
    diff_specs,
    verify_spec,
)
from repro.discovery.asmmodel import Slot
from tests.analysis.conftest import corrupt_spec
from tests.discovery.conftest import TARGETS


def _verify(spec):
    return verify_spec(spec, build_model(spec.target))


def _errors(result):
    return [d for d in result.diagnostics if d.severity == "error"]


# -- pristine specs -----------------------------------------------------


class TestPristineSpecs:
    def test_zero_errors(self, report):
        result = _verify(report.spec)
        assert not _errors(result), "\n".join(d.render() for d in _errors(result))

    def test_only_sampling_infos_remain(self, report):
        result = _verify(report.spec)
        assert {d.code for d in result.diagnostics} <= {"SPEC105"}

    def test_stats_accounting(self, report):
        result = _verify(report.spec)
        stats = result.stats
        assert stats["refuted"] == 0
        assert stats["unverifiable"] == 0
        assert stats["proven"] + stats["sampled"] == stats["obligations"]
        assert stats["proven"] > stats["sampled"]

    def test_deterministic_across_runs(self, report):
        a = _verify(report.spec)
        b = _verify(report.spec)
        assert [d.to_dict() for d in a.diagnostics] == [
            d.to_dict() for d in b.diagnostics
        ]
        assert a.stats == b.stats


# -- the corruption battery: name -> (mutate(spec) -> applied?, code) --


def _swap_slots(instrs, a, b):
    swapped = False
    for instr in instrs:
        ops = []
        for op in instr.operands:
            if isinstance(op, Slot) and op.name == a:
                ops.append(Slot(b))
                swapped = True
            elif isinstance(op, Slot) and op.name == b:
                ops.append(Slot(a))
                swapped = True
            else:
                ops.append(op)
        instr.operands = ops
    return swapped


def _copy_rule_body(dst, src):
    dst.instrs = copy.deepcopy(src.instrs)
    dst.scratches = src.scratches
    for attr in ("two_address", "result_literal"):
        if hasattr(src, attr) or hasattr(dst, attr):
            setattr(dst, attr, getattr(src, attr, None) or False)


def swap_minus_operands(spec):
    rule = spec.rules.get("Minus")
    if rule is None:
        return False
    slots = rule.slots_used()
    if "left" not in slots or "right" not in slots:
        return False  # two-address form has no separate left slot
    return _swap_slots(rule.instrs, "left", "right")


def plus_computes_minus(spec):
    if "Plus" not in spec.rules or "Minus" not in spec.rules:
        return False
    _copy_rule_body(spec.rules["Plus"], spec.rules["Minus"])
    return True


def xor_computes_or(spec):
    if "Xor" not in spec.rules or "Or" not in spec.rules:
        return False
    _copy_rule_body(spec.rules["Xor"], spec.rules["Or"])
    return True


#: arithmetic-shift-right mnemonic -> the logical (zero-extending) twin
_SIGN_SWAP = {"sarl": "shrl", "sra": "srl", "asr.l": "lsr.l"}


def shr_zero_extends(spec):
    rule = spec.rules.get("Shr")
    if rule is None:
        return False
    for instr in rule.instrs:
        if instr.mnemonic in _SIGN_SWAP:
            instr.mnemonic = _SIGN_SWAP[instr.mnemonic]
            return True
    return False  # VAX shifts via mnegl+ashl; no one-mnemonic twin


def neg_is_identity(spec):
    rule = spec.rules.get("Neg")
    if rule is None or not spec.reg_move:
        return False
    instrs = copy.deepcopy(spec.reg_move)
    _swap_slots(instrs, "src", "left")
    _swap_slots(instrs, "dest", "result")
    rule.instrs = instrs
    rule.scratches = 0
    rule.two_address = False
    return True


def result_read_from_unwritten_register(spec):
    if "Plus" not in spec.rules or len(spec.allocatable) < 4:
        return False
    spec.rules["Plus"].result_literal = spec.allocatable[-1]
    return True


def imm_range_widened_past_the_probe(spec):
    for ir_op in sorted(spec.imm_rules):
        rule = spec.imm_rules[ir_op]
        if rule.imm_range is not None:
            lo, hi = rule.imm_range
            rule.imm_range = (lo, hi + 1)
            return True
    return False


def plus_imm_computes_xor(spec):
    if "Plus" not in spec.imm_rules or "Xor" not in spec.imm_rules:
        return False
    plus = spec.imm_rules["Plus"]
    plus.instrs = copy.deepcopy(spec.imm_rules["Xor"].instrs)
    return True


def branch_lt_swaps_operands(spec):
    if not spec.branch:
        return False
    rule = spec.branch.rules.get("isLT")
    if rule is None:
        return False
    return _swap_slots(rule.instrs, "left", "right")


def branch_ne_tests_eq(spec):
    if not spec.branch:
        return False
    rules = spec.branch.rules
    if "isNE" not in rules or "isEQ" not in rules:
        return False
    rules["isNE"].instrs = copy.deepcopy(rules["isEQ"].instrs)
    return True


def _wrong_frame_slot(spec):
    chosen, _bases = _mem_slot(spec)
    if chosen is None:
        return None
    for slot in spec.frame.slots:
        if slot != chosen:
            return slot
    return None


def load_reads_the_wrong_slot(spec):
    wrong = _wrong_frame_slot(spec)
    if wrong is None or not spec.load_template:
        return False
    for instr in spec.load_template:
        instr.operands = [
            wrong if isinstance(op, Slot) and op.name == "slot" else op
            for op in instr.operands
        ]
    return True


def store_writes_the_wrong_slot(spec):
    wrong = _wrong_frame_slot(spec)
    if wrong is None or not spec.store_template:
        return False
    for instr in spec.store_template:
        instr.operands = [
            wrong if isinstance(op, Slot) and op.name == "slot" else op
            for op in instr.operands
        ]
    return True


def reg_move_reads_dest(spec):
    if not spec.reg_move:
        return False
    for instr in spec.reg_move:
        instr.operands = [
            Slot("dest") if isinstance(op, Slot) and op.name == "src" else op
            for op in instr.operands
        ]
    return True


def rule_with_unbound_slot(spec):
    if "Plus" not in spec.rules:
        return False
    rule = spec.rules["Plus"]
    rule.instrs = [rule.instrs[0].clone(operands=[Slot("ghost")])]
    return True


def unary_rule_reads_right(spec):
    """A unary rule whose template names <right>: the back end binds no
    right operand for a unary operator, so the slot stays unbound."""
    for ir_op in ("Neg", "Not"):
        rule = spec.rules.get(ir_op)
        if rule is None:
            continue
        first = next(op for instr in rule.instrs for op in instr.operands if isinstance(op, Slot))
        for instr in rule.instrs:
            instr.operands = [Slot("right") if op is first else op for op in instr.operands]
        return True
    return False


CORRUPTIONS = [
    (swap_minus_operands, "SPEC100"),
    (plus_computes_minus, "SPEC100"),
    (xor_computes_or, "SPEC100"),
    (shr_zero_extends, "SPEC100"),
    (neg_is_identity, "SPEC100"),
    (result_read_from_unwritten_register, "SPEC100"),
    (imm_range_widened_past_the_probe, "SPEC100"),
    (plus_imm_computes_xor, "SPEC100"),
    (branch_lt_swaps_operands, "SPEC101"),
    (branch_ne_tests_eq, "SPEC101"),
    (load_reads_the_wrong_slot, "SPEC102"),
    (store_writes_the_wrong_slot, "SPEC102"),
    (reg_move_reads_dest, "SPEC102"),
    (rule_with_unbound_slot, "SPEC104"),
    (unary_rule_reads_right, "SPEC104"),
]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "corrupt,code", CORRUPTIONS, ids=[fn.__name__ for fn, _ in CORRUPTIONS]
)
def test_corruption_is_refuted(target, corrupt, code):
    spec = corrupt_spec(target)
    if not corrupt(spec):
        pytest.skip(f"{corrupt.__name__} not expressible on {target}")
    result = _verify(spec)
    codes = {d.code for d in result.diagnostics}
    assert code in codes, "\n".join(d.render() for d in result.diagnostics)


@pytest.mark.parametrize("target", TARGETS)
def test_refutations_carry_concrete_witnesses(target):
    """Every refuting diagnostic names concrete inputs and both sides."""
    spec = corrupt_spec(target)
    assert plus_computes_minus(spec)
    result = _verify(spec)
    refuting = [d for d in result.diagnostics if d.code == "SPEC100"]
    assert refuting
    for diag in refuting:
        assert diag.data is not None
        assert "inputs" in diag.data
        assert "expected" in diag.data and "got" in diag.data
        assert "->" in diag.message and "expected" in diag.message


def test_witness_survives_every_render_format():
    spec = corrupt_spec("x86")
    assert plus_computes_minus(spec)
    result = _verify(spec)
    refuted = next(d for d in result.diagnostics if d.code == "SPEC100")
    inputs = ", ".join(
        f"{k}={v}" for k, v in sorted(refuted.data["inputs"].items())
    )
    text = render(result.diagnostics, "text", tool="repro-verify-spec")
    assert inputs.split(",")[0] in text
    json_out = render(result.diagnostics, "json", tool="repro-verify-spec")
    assert '"SPEC100"' in json_out and '"inputs"' in json_out
    sarif = render(result.diagnostics, "sarif", tool="repro-verify-spec")
    assert "SPEC100" in sarif and "inputs" in sarif


# -- cross-spec differential lint ---------------------------------------


class TestDiffSpecs:
    def _diff(self, spec_a, spec_b, target="x86"):
        return diff_specs(
            spec_a, spec_b, build_model(target), seed=1997, label_a="A", label_b="B"
        )

    def test_same_spec_diffs_clean(self, report):
        spec = report.spec
        diags = diff_specs(
            spec, copy.deepcopy(spec), build_model(spec.target), seed=1997
        )
        assert not list(diags), "\n".join(d.render() for d in diags)

    def test_semantic_divergence_is_spec110(self):
        spec_a = corrupt_spec("x86")
        spec_b = corrupt_spec("x86")
        assert plus_computes_minus(spec_b)
        diags = self._diff(spec_a, spec_b)
        assert "SPEC110" in {d.code for d in diags}

    def test_one_sided_rule_is_spec111(self):
        spec_a = corrupt_spec("x86")
        spec_b = corrupt_spec("x86")
        del spec_b.rules["Xor"]
        diags = self._diff(spec_a, spec_b)
        hits = [d for d in diags if d.code == "SPEC111"]
        assert hits and any("Xor" in d.message for d in hits)

    def test_imm_range_drift_is_spec112(self):
        spec_a = corrupt_spec("mips")
        spec_b = corrupt_spec("mips")
        key = sorted(spec_b.imm_ranges)[0]
        lo, hi = spec_b.imm_ranges[key]
        spec_b.imm_ranges[key] = (lo, hi - 1)
        diags = self._diff(spec_a, spec_b, target="mips")
        assert "SPEC112" in {d.code for d in diags}

    def test_allocatable_drift_is_spec113(self):
        spec_a = corrupt_spec("x86")
        spec_b = corrupt_spec("x86")
        spec_b.allocatable = spec_b.allocatable[:-1]
        diags = self._diff(spec_a, spec_b)
        assert "SPEC113" in {d.code for d in diags}


# -- driver wiring ------------------------------------------------------


class TestDriverVerifyPhase:
    def test_opt_in_phase_records_stats(self):
        from repro.discovery.driver import ArchitectureDiscovery
        from repro.machines.machine import RemoteMachine

        report = ArchitectureDiscovery(RemoteMachine("x86"), verify=True).run()
        assert report.verify_stats is not None
        assert report.verify_stats["refuted"] == 0
        summary = report.summary()
        assert summary["verify_proven"] == report.verify_stats["proven"]
        assert "spec verify" in report.phase_timings

    def test_phase_list_untouched_without_opt_in(self):
        from repro.discovery.driver import ArchitectureDiscovery
        from repro.machines.machine import RemoteMachine

        disc = ArchitectureDiscovery(RemoteMachine("x86"))
        assert list(disc.phases) == list(disc.PHASES)
