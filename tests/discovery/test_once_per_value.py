"""Work done once per value equals the work done every time.

Discovery keeps per-term facts in a table, scores hypotheses from them,
shares unchanged instructions between mutants, caches each
instruction's rendered text, builds clobbers from their text and parses
each sample once.  Each test here checks one of those paths against the
plain definition it replaced, kept below as the reference, on the
shapes and samples the real targets produce.
"""

import dataclasses

import pytest

from repro.beg.ir import operator_spelled
from repro.discovery import lexer, likelihood, portable, probe
from repro.discovery import mutation as mut
from repro.discovery.asmmodel import DImm, DInstr, DReg, is_identifier, split_lines
from repro.discovery.primitives import NAME_HINTS
from repro.discovery.dfg import build_dfg
from repro.discovery.graphmatch import match_binary
from repro.discovery.reverse_interp import ReverseInterpreter, hypotheses
from repro.discovery.terms import TermTable, enumerate_terms, term_size
from tests.discovery.conftest import TARGETS, discovery_report

# -- the reference definitions --------------------------------------------

_LEAF_KINDS = ("val", "ireg", "const")


def ref_prims_used(term, acc):
    if term[0] in _LEAF_KINDS:
        return
    acc.add(term[0])
    for arg in term[1:]:
        ref_prims_used(arg, acc)


def ref_prims_in_order(term):
    if term[0] in _LEAF_KINDS:
        return []
    out = [term[0]]
    for arg in term[1:]:
        out.extend(ref_prims_in_order(arg))
    return list(dict.fromkeys(out))


def ref_leaves(term):
    if term[0] in _LEAF_KINDS:
        yield term
        return
    for arg in term[1:]:
        yield from ref_leaves(arg)


_IDENTITY_CONSTS = {
    ("mul", 1), ("div", 1), ("add", 0), ("sub", 0), ("or", 0), ("xor", 0),
    ("shiftLeft", 0), ("shiftRight", 0), ("shiftRightU", 0),
}
_COMMUTATIVE = ("mul", "add", "or", "xor", "and")


def ref_disguised(term):
    if term[0] in _LEAF_KINDS:
        return False
    if len(term) == 3:
        prim, left, right = term
        if right[0] == "const" and (prim, right[1]) in _IDENTITY_CONSTS:
            return True
        if prim in _COMMUTATIVE and left[0] == "const" and (prim, left[1]) in _IDENTITY_CONSTS:
            return True
    return any(ref_disguised(arg) for arg in term[1:])


def ref_score(sample, instr, effects, role):
    prims = set()
    total_size = 0
    for _target, term in effects:
        ref_prims_used(term, prims)
        total_size += term_size(term)
    row = operator_spelled(sample.op, 1 if sample.kind == "unary" else 2)
    op_prim = row.prim if row is not None else None
    identity = [t[0] in ("val", "ireg") for _target, t in effects]
    expansion = set(likelihood.EXPANSIONS.get(op_prim, (op_prim,) if op_prim else ()))
    m = 0.0
    if role == "compute" and op_prim is not None:
        if prims and prims <= expansion:
            m += 1.0
        elif prims:
            m -= 0.5
    elif role == "forward":
        if all(identity):
            m += 1.0
        elif prims and prims <= expansion:
            m += 0.5
        elif prims:
            m -= 0.5
    elif role in ("load", "store"):
        if all(identity):
            m += 1.0
        elif prims:
            m -= 0.5
    alien = prims - expansion
    p = 0.5 if not alien else -0.3 * len(alien)
    g = 0.0
    if any(target[0] == "mem" for target, _t in effects) and all(identity):
        g += 0.5
    if not effects:
        g -= 0.2
    n = 0.0
    mnemonic = instr.mnemonic.lower()
    for prim in prims or {"move"}:
        if any(h in mnemonic for h in NAME_HINTS.get(prim, ())):
            n += 1.0
        else:
            n -= 0.2
    return (
        likelihood.C1 * m + likelihood.C2 * p + likelihood.C3 * g + likelihood.C4 * n
        - likelihood.SIZE_PENALTY * max(0, total_size - 1)
    )


def ref_render_instr(syntax, instr):
    lines = [f"{label}:" for label in instr.labels]
    if instr.operands:
        rendered = ", ".join(syntax.render_operand(op) for op in instr.operands)
        lines.append(f"\t{instr.mnemonic} {rendered}")
    else:
        lines.append(f"\t{instr.mnemonic}")
    return "\n".join(lines)


def ref_render_main(syntax, sample, instrs):
    body = "\n".join(ref_render_instr(syntax, instr) for instr in instrs)
    return "\n".join(sample.pre_lines + [body] + sample.post_lines) + "\n"


def ref_register_seeds(syntax, asm_texts):
    seeds = set(syntax.registers)
    cooccur = []
    for text in asm_texts:
        for line in split_lines(text, syntax.comment_char):
            if line.mnemonic is None or line.is_directive:
                continue
            idents = []
            for token in line.operand_texts:
                for pattern in (probe._PAREN_TOKEN, probe._BRACKET_TOKEN):
                    match = pattern.match(token)
                    if match and is_identifier(match.group(1)):
                        seeds.add(match.group(1))
                if token.startswith(syntax.imm_prefix) and syntax.imm_prefix:
                    continue
                if syntax.parse_int(token) is not None:
                    continue
                if is_identifier(token):
                    idents.append(token)
            if idents:
                cooccur.append(idents)
    changed = True
    while changed:
        changed = False
        for idents in cooccur:
            if any(tok in seeds for tok in idents):
                for tok in idents:
                    if tok not in seeds:
                        seeds.add(tok)
                        changed = True
    return seeds


# -- per-term facts -----------------------------------------------------------


def _preprocessed(report):
    return [s for s in report.corpus.usable_samples() if getattr(s, "info", None)]


def leaf_shapes(report):
    """Each distinct leaf list a region instruction of the report can
    offer: its operand positions plus its implicit-register candidates."""
    shapes = set()
    for sample in _preprocessed(report):
        for index, instr in enumerate(sample.region):
            implicit = sorted(sample.info.all_implicit_candidates(index))
            shapes.add(
                tuple(("val", k) for k in range(len(instr.operands)))
                + tuple(("ireg", reg) for reg in implicit)
            )
    return sorted(shapes)


@pytest.mark.parametrize("target", ["x86", "vax"])
def test_term_facts_equal_the_recursive_definitions(target):
    shapes = leaf_shapes(discovery_report(target))
    assert shapes
    for leaves in shapes:
        table = TermTable()
        for term in enumerate_terms(list(leaves), max_size=3):
            facts = table[term]
            assert facts.size == term_size(term), term
            assert list(facts.prims) == ref_prims_in_order(term), term
            assert facts.leaves == frozenset(ref_leaves(term)), term
            assert facts.disguised == ref_disguised(term), term


@pytest.mark.parametrize("target", ["x86", "vax"])
def test_hypothesis_scores_equal_the_reference_score(target):
    report = discovery_report(target)
    # one sample per operator, so every likelihood branch is reached
    samples = {}
    for sample in _preprocessed(report):
        if sample.kind in ReverseInterpreter.RI_KINDS:
            samples.setdefault((sample.kind, sample.op), sample)
    checked = 0
    for sample in samples.values():
        roles = match_binary(sample, build_dfg(sample, report.addr_map)).roles
        for index, instr in enumerate(sample.region):
            if not instr.mnemonic:
                continue
            role = roles.get(index)
            for value, effects in hypotheses(sample, index, role):
                # exact float equality: ties keep their insertion order
                assert value == ref_score(sample, instr, effects, role), effects
                checked += 1
    assert checked


# -- mutants ---------------------------------------------------------------------


@pytest.mark.parametrize("target", ["x86", "sparc", "vax"])
def test_mutants_render_like_the_reference_renderer(target):
    """Mutant text is the probe-cache key: byte-identical or every warm
    rediscovery misses."""
    report = discovery_report(target)
    syntax = report.corpus.syntax
    engine = report.engine.fork("reference-render")  # private rng
    outsider = sorted(syntax.registers)[0]
    checked = 0
    for sample in _preprocessed(report):
        region = sample.region
        if not region:
            continue
        last = len(region) - 1
        regs = [op.name for instr in region for op in instr.operands if isinstance(op, DReg)]
        mutants = [mut.delete(region, i) for i in range(len(region))]
        mutants += [
            mut.insert(region, 0, engine.clobber_all_prefix(sample)),
            mut.move(region, last, 0),
            mut.copy(region, 0, last),
        ]
        if regs:
            occurrences = [
                (i, k)
                for i, instr in enumerate(region)
                for k, op in enumerate(instr.operands)
                if op == DReg(regs[0])
            ]
            mutants += [
                mut.rename(region, regs[0], outsider, occurrences[:1]),
                mut.rename_all(region, regs[0], outsider),
            ]
        for mutant in mutants:
            text = report.corpus.render_main(sample, mutant)
            assert text == ref_render_main(syntax, sample, mutant), sample.name
            checked += 1
    assert checked


# -- clobbers built from text ---------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_load_immediates_from_text_equal_the_operand_form(target):
    """A load-immediate is made from its text; its operands, copies and
    checkpointed form are those of the instruction built from operand
    objects."""
    report = discovery_report(target)
    syntax = report.syntax
    template = syntax.loadimm
    reg, other = sorted(syntax.registers)[:2]
    edges = {0, 1, -1, -(1 << 31), (1 << 31) - 1}
    bits = report.enquire.word_bits
    edges |= {-(1 << (bits - 1)), (1 << (bits - 1)) - 1}
    for value in sorted(edges):
        instr = syntax.load_imm_instr(value, reg)
        expected = [None] * template.arity
        expected[template.imm_index] = DImm(value, syntax.imm_prefix)
        expected[template.reg_index] = DReg(reg)
        assert syntax.render_instr(instr) == ref_render_instr(syntax, instr)
        assert instr.operands == expected
        assert (instr.labels, instr.raw, instr.glued) == ([], "", False)
        filler = instr.clone(glued=True)
        assert type(filler) is DInstr and filler.glued
        assert filler.operands == expected
        assert portable.thaw(portable.freeze(filler)) == filler
        renamed = instr.rename_register(reg, other)
        assert type(renamed) is DInstr
        assert renamed.operands[template.reg_index] == DReg(other)


def test_each_clobber_draws_one_value():
    engine = discovery_report("x86").engine
    reg = sorted(engine.corpus.syntax.registers)[0]
    imm_index = engine.corpus.syntax.loadimm.imm_index
    built, drawn = engine.fork("draws"), engine.fork("draws")
    values = [built.clobber_instr(reg).operands[imm_index].value for _ in range(50)]
    assert values == [drawn.clobber_value() for _ in range(50)]


# -- one parse per sample -------------------------------------------------------


@pytest.mark.parametrize("target", TARGETS)
def test_register_seeds_from_the_shared_parse(target):
    report = discovery_report(target)
    texts = [s.asm_text for s in report.corpus.samples if s.asm_text]
    parsed = [lexer.parse(text, report.syntax.comment_char)[1] for text in texts]
    for registers in (set(), {sorted(report.syntax.registers)[0]}):
        syntax = dataclasses.replace(report.syntax, registers=registers)
        assert probe._register_seeds(syntax, parsed) == ref_register_seeds(syntax, texts)
