"""Branch semantics from behavioural truth tables.

The paper derives ``beq = brTrue(isEQ(compare(a1, a2)), L)`` on the MIPS
and the ``cmpeq``/``bne`` split on the Alpha (section 6).  We recover
these by *running* each conditional sample under initialisation values
that exercise all three comparison outcomes (b<c, b>c, b=c) and reading
off which relation makes the branch fire; condition-code architectures
get ``compare -> C`` on the preceding instruction, register-boolean
architectures (Alpha) are solved jointly across samples.

The unconditional jump mnemonic falls out of the Begin/End label maze:
the instructions in the sample preamble that target the ``Begin`` label
are exactly the compiler's unconditional jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wordops
from repro.beg.ir import RELATION_TABLE, relation_named
from repro.discovery.asmmodel import DImm, DMem, DReg, DSym, Slot, split_lines
from repro.discovery.lexer import find_delimiters
from repro.errors import DiscoveryError


@dataclass
class BranchRule:
    """Jump to LABEL iff relation(left, right) -- an emission template."""

    relation: str  # a relation's primitive name: "isLT" | ...
    instrs: list  # template DInstrs with Slot operands
    semantics: str = ""  # human-readable derivation for the report
    #: slot name -> registers the assembler accepts there (cf. OpRule)
    slot_classes: dict = field(default_factory=dict)


@dataclass
class BranchModel:
    rules: dict = field(default_factory=dict)  # relation -> BranchRule
    truth_rule: object = None  # jump iff value != 0 is NOT taken... see below
    uncond: str | None = None  # unconditional jump mnemonic
    notes: list = field(default_factory=list)

    def describe(self):
        lines = [f"unconditional jump: {self.uncond}"]
        for rel, rule in sorted(self.rules.items()):
            lines.append(f"  Branch{rel[2:]}: {rule.semantics}")
        return "\n".join(lines)


def _operand_var(sample, addr_map, instr_idx, op_idx):
    """Which sample variable (or constant) does this operand carry?"""
    instr = sample.region[instr_idx]
    op = instr.operands[op_idx]
    if isinstance(op, DImm):
        return ("const", op.value)
    if isinstance(op, DMem):
        var = addr_map.var_of(op)
        return ("var", var) if var else None
    if isinstance(op, DReg):
        for live in sample.info.ranges:
            if live.resolved and (instr_idx, op_idx) in live.occurrences[1:]:
                def_instr, _def_op = live.occurrences[0]
                source = sample.region[def_instr]
                for k, src_op in enumerate(source.operands):
                    if isinstance(src_op, DMem):
                        var = addr_map.var_of(src_op)
                        if var:
                            return ("var", var)
                    if isinstance(src_op, DImm):
                        return ("const", src_op.value)
    return None


def _taken_table(engine, sample):
    """For each value set: did the conditional branch fire (skipping the
    assignment), and what were the operand values?"""
    table = []
    for vs in engine.value_sets(sample):
        printed = int(vs.expected.strip())
        taken = printed == vs.values["a"]
        table.append((vs.values, taken))
    return table


def _value_of(source, values, bits):
    kind, payload = source
    raw = payload if kind == "const" else values[payload]
    return wordops.to_signed(wordops.mask(raw, bits), bits)


def _relation_matching(table, left_src, right_src, bits):
    """Which relation over (left, right) reproduces the taken column?"""
    matches = []
    for row in RELATION_TABLE:
        if all(
            row.holds(_value_of(left_src, values, bits), _value_of(right_src, values, bits))
            == taken
            for values, taken in table
        ):
            matches.append(row.prim)
    return matches


def _find_branch(sample):
    """The conditional branch: references a label defined in-region."""
    local_labels = set()
    for instr in sample.region:
        local_labels.update(instr.labels)
    for index, instr in enumerate(sample.region):
        for op in instr.operands:
            if isinstance(op, DSym) and op.name in local_labels:
                return index
    raise DiscoveryError(f"{sample.name}: no conditional branch found in region")


class BranchAnalysis:
    def __init__(self, engine, addr_map, word_bits):
        self.engine = engine
        self.corpus = engine.corpus
        self.addr_map = addr_map
        self.bits = word_bits

    def analyse(self):
        model = BranchModel()
        model.uncond = self._unconditional_jump()
        joint_constraints = []  # (cmp_mnemonic, br_mnemonic, sample facts)
        for sample in self.corpus.usable_samples(kind="cond"):
            try:
                self._analyse_sample(sample, model, joint_constraints)
            except DiscoveryError as exc:
                sample.discard(str(exc))
        self._solve_joint(joint_constraints, model)
        self._fill_by_swapping(model)
        return model

    @staticmethod
    def _fill_by_swapping(model):
        """``jump iff left >= right`` serves BranchLE with its operands
        exchanged -- compilers that always negate-and-swap (the Alpha's
        cmplt/beq idiom) never exhibit an LT-taken branch directly."""
        for row in RELATION_TABLE:
            relation, partner = row.prim, relation_named(row.swapped).prim
            if relation in model.rules or partner not in model.rules:
                continue
            source = model.rules[partner]
            flipped = []
            for instr in source.instrs:
                operands = []
                for op in instr.operands:
                    if isinstance(op, Slot) and op.name == "left":
                        operands.append(Slot("right"))
                    elif isinstance(op, Slot) and op.name == "right":
                        operands.append(Slot("left"))
                    else:
                        operands.append(op)
                flipped.append(instr.clone(operands=operands))
            model.rules[relation] = BranchRule(
                relation,
                flipped,
                semantics=f"{source.semantics} (operands swapped)",
            )

    # -- unconditional jump ------------------------------------------------

    def _unconditional_jump(self):
        sample = next(iter(self.corpus.usable_samples()), None)
        if sample is None:
            return None
        begin, _end = find_delimiters(sample.asm_text, self.corpus.syntax.comment_char)
        mnemonics = set()
        for line in split_lines("\n".join(sample.pre_lines), self.corpus.syntax.comment_char):
            if line.mnemonic and not line.is_directive and begin in line.operand_texts:
                mnemonics.add(line.mnemonic)
        if len(mnemonics) == 1:
            return mnemonics.pop()
        return None

    # -- one conditional sample ------------------------------------------------

    def _analyse_sample(self, sample, model, joint_constraints):
        table = _taken_table(self.engine, sample)
        if len(table) < 2:
            raise DiscoveryError("not enough behavioural variants")
        branch_idx = _find_branch(sample)
        branch = sample.region[branch_idx]
        value_ops = [
            (k, op)
            for k, op in enumerate(branch.operands)
            if isinstance(op, (DReg, DImm, DMem)) and not isinstance(op, DSym)
        ]

        if len(value_ops) >= 2:
            self._fused_branch(sample, model, table, branch_idx, value_ops)
        elif len(value_ops) == 1:
            self._register_boolean(sample, table, branch_idx, value_ops[0], joint_constraints)
        else:
            self._condition_code(sample, model, table, branch_idx)

    def _sources(self, sample, instr_idx, op_indices):
        sources = []
        for k in op_indices:
            source = _operand_var(sample, self.addr_map, instr_idx, k)
            if source is None:
                raise DiscoveryError(
                    f"{sample.name}: cannot trace operand {k} of instr {instr_idx}"
                )
            sources.append(source)
        return sources

    def _make_template(self, sample, instr_indices, branch_idx, source_slots):
        """Copy region instructions, replacing traced operands by Slots
        and the branch target by Slot('label')."""
        templates = []
        for i in instr_indices:
            instr = sample.region[i]
            operands = []
            for k, op in enumerate(instr.operands):
                if isinstance(op, DSym) and i == branch_idx:
                    operands.append(Slot("label"))
                elif (i, k) in source_slots:
                    operands.append(source_slots[(i, k)])
                else:
                    operands.append(op)
            templates.append(instr.clone(operands=operands, labels=[]))
        return templates

    def _fused_branch(self, sample, model, table, branch_idx, value_ops):
        (k1, _op1), (k2, _op2) = value_ops[:2]
        left_src, right_src = self._sources(sample, branch_idx, (k1, k2))
        matches = _relation_matching(table, left_src, right_src, self.bits)
        if len(matches) != 1:
            raise DiscoveryError(f"{sample.name}: ambiguous fused branch {matches}")
        relation = matches[0]
        # Gather the loads feeding the branch so the template is register
        # to register: replace the traced operands with left/right slots.
        slots = {(branch_idx, k1): Slot("left"), (branch_idx, k2): Slot("right")}
        template = self._make_template(sample, [branch_idx], branch_idx, slots)
        model.rules[relation] = BranchRule(
            relation,
            template,
            semantics=f"{sample.region[branch_idx].mnemonic} = "
            f"brTrue({relation}(compare(a1, a2)), L)",
        )

    def _condition_code(self, sample, model, table, branch_idx):
        setter_idx = branch_idx - 1
        while setter_idx >= 0 and not sample.region[setter_idx].mnemonic:
            setter_idx -= 1
        if setter_idx < 0:
            raise DiscoveryError(f"{sample.name}: no condition-code setter")
        setter = sample.region[setter_idx]
        value_ops = [
            k for k, op in enumerate(setter.operands) if isinstance(op, (DReg, DImm, DMem))
        ]
        if len(value_ops) == 1:
            left_src = self._sources(sample, setter_idx, value_ops)[0]
            right_src = ("const", 0)
            slots = {(setter_idx, value_ops[0]): Slot("left")}
        else:
            left_src, right_src = self._sources(sample, setter_idx, value_ops[:2])
            slots = {
                (setter_idx, value_ops[0]): Slot("left"),
                (setter_idx, value_ops[1]): Slot("right"),
            }
        matches = _relation_matching(table, left_src, right_src, self.bits)
        if len(matches) != 1:
            raise DiscoveryError(f"{sample.name}: ambiguous cc branch {matches}")
        relation = matches[0]
        template = self._make_template(sample, [setter_idx, branch_idx], branch_idx, slots)
        if right_src == ("const", 0) and len(value_ops) == 1:
            # tstl-style: usable for comparisons against zero only; keep
            # as the truth-test rule.
            model.truth_rule = BranchRule(relation, template, "value-vs-zero test")
            return
        model.rules[relation] = BranchRule(
            relation,
            template,
            semantics=f"{setter.mnemonic} = compare(a1, a2) -> CC; "
            f"{sample.region[branch_idx].mnemonic} = brTrue({relation}(CC), L)",
        )

    def _register_boolean(self, sample, table, branch_idx, value_op, joint_constraints):
        k, op = value_op
        if not isinstance(op, DReg):
            raise DiscoveryError(f"{sample.name}: odd single-operand branch")
        # Find the defining compare instruction through the live ranges.
        def_idx = None
        for live in sample.info.ranges:
            if live.resolved and (branch_idx, k) in live.occurrences[1:]:
                def_idx = live.occurrences[0][0]
        if def_idx is None:
            raise DiscoveryError(f"{sample.name}: branch register has no visible def")
        setter = sample.region[def_idx]
        value_ops = [
            j
            for j, o in enumerate(setter.operands)
            if isinstance(o, (DImm, DMem)) or (isinstance(o, DReg) and j != len(setter.operands) - 1)
        ]
        left_src, right_src = self._sources(sample, def_idx, value_ops[:2])
        matches = _relation_matching(table, left_src, right_src, self.bits)
        joint_constraints.append(
            {
                "sample": sample,
                "setter": setter.mnemonic,
                "branch": sample.region[branch_idx].mnemonic,
                "relations": matches,
                "table": table,
                "left": left_src,
                "right": right_src,
                "def_idx": def_idx,
                "branch_idx": branch_idx,
                "value_ops": value_ops,
                "bool_reg_op": (def_idx, len(setter.operands) - 1),
            }
        )

    def _solve_joint(self, constraints, model):
        """Alpha-style: cmpXX produces a boolean register, bXX branches on
        it.  Solve setter-relation x branch-polarity assignments jointly:
        ``taken == polarity(relation(l, r))`` must hold for every sample."""
        if not constraints:
            return
        setters = sorted({c["setter"] for c in constraints})
        branches = sorted({c["branch"] for c in constraints})
        solutions = []
        import itertools

        relations = sorted(row.prim for row in RELATION_TABLE)
        for rel_choice in itertools.product(relations, repeat=len(setters)):
            rel_of = dict(zip(setters, rel_choice))
            for pol_choice in itertools.product((True, False), repeat=len(branches)):
                pol_of = dict(zip(branches, pol_choice))
                if self._joint_consistent(constraints, rel_of, pol_of):
                    solutions.append((rel_of, pol_of))
        if not solutions:
            for c in constraints:
                c["sample"].discard("no consistent compare/branch semantics")
            return
        rel_of, pol_of = solutions[0]
        model.notes.append(
            f"register-boolean solution: {rel_of} with polarity {pol_of}"
            + (f" ({len(solutions)} consistent solutions)" if len(solutions) > 1 else "")
        )
        for c in constraints:
            relation = rel_of[c["setter"]]
            taken_rel = relation
            if not pol_of[c["branch"]]:
                taken_rel = relation_named(relation_named(relation).negation).prim
            sample = c["sample"]
            slots = {
                (c["def_idx"], c["value_ops"][0]): Slot("left"),
                (c["def_idx"], c["value_ops"][1]): Slot("right"),
                c["bool_reg_op"]: Slot("scratch0"),
            }
            # The branch reads the boolean register too.
            branch = sample.region[c["branch_idx"]]
            for j, op in enumerate(branch.operands):
                if isinstance(op, DReg):
                    slots[(c["branch_idx"], j)] = Slot("scratch0")
            template = self._make_template(
                sample, [c["def_idx"], c["branch_idx"]], c["branch_idx"], slots
            )
            polarity = "brTrue" if pol_of[c["branch"]] else "brFalse"
            model.rules[taken_rel] = BranchRule(
                taken_rel,
                template,
                semantics=f"{c['setter']} = {relation}(compare(a1, a2)); "
                f"{c['branch']} = {polarity}(r, L)",
            )

    def _joint_consistent(self, constraints, rel_of, pol_of):
        for c in constraints:
            fn = relation_named(rel_of[c["setter"]]).holds
            polarity = pol_of[c["branch"]]
            for values, taken in c["table"]:
                lv = _value_of(c["left"], values, self.bits)
                rv = _value_of(c["right"], values, self.bits)
                fired = fn(lv, rv) if polarity else not fn(lv, rv)
                if fired != taken:
                    return False
        return True
