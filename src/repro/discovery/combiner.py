"""The Combiner (paper section 6): exhaustive combination search.

"We consider any combination of instructions to see if combining their
semantics will result in the semantics of one of the instructions in
the compiler's intermediate code.  Any such combination results in a
separate BEG pattern matching rule."  The footnote contrasts it with
Massalin's superoptimizer: the Combiner looks for *any* combination with
the required behaviour, leaving cost-based selection to the back-end
generator.

The sample-driven rule distillation in :mod:`~repro.discovery.synthesize`
covers operators the compiler exercised; this module is the general
mechanism used as a fallback.  It enumerates sequences of up to
``max_length`` discovered instructions *and* the dataflow wiring between
them (which earlier value feeds which operand), checking each candidate
against the intermediate-code operator on random value vectors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro import wordops
from repro.beg.ir import operator_named
from repro.beg.spec import OpRule
from repro.discovery.asmmodel import DImm, DMem, DReg, Slot
from repro.discovery.reverse_interp import InterpFail, eval_term

def _vectors(row, rng, bits):
    """Value vectors per operator (nonzero divisors, small shift counts)."""
    out = []
    for _ in range(4):
        if row.shift:
            out.append((rng.randint(300, 9000), rng.randint(2, 8)))
        elif row.divisor:
            out.append((rng.randint(1000, 90000), rng.randint(3, 97)))
        else:
            out.append(
                (rng.randint(-9000, 9000) or 7, rng.randint(-9000, 9000) or 13)
            )
    return out


@dataclass
class _Shape:
    """A composable instruction: register inputs, one register output."""

    key: str
    op_sem: object
    input_positions: list  # operand indices read (deduplicated, in order)
    output_position: int  # operand index written
    usedef: bool  # output position also among the inputs

    @property
    def arity(self):
        return len(self.input_positions)


def _usable_shapes(semantics):
    """Instructions the wiring model can compose: one register result at
    a visible operand position, inputs at visible register positions,
    no implicit registers, no memory operands."""
    shapes = []
    for key, op_sem in sorted(semantics.items()):
        if len(op_sem.effects) != 1:
            continue
        (target, term), = op_sem.effects
        example = op_sem.example
        if target[0] != "op" or not isinstance(example.operands[target[1]], DReg):
            continue
        if any(isinstance(op, DMem) for op in example.operands):
            continue
        inputs = []
        implicit = False

        def walk(node):
            nonlocal implicit
            if node[0] == "val":
                operand = example.operands[node[1]]
                if isinstance(operand, DReg) and node[1] not in inputs:
                    inputs.append(node[1])
            elif node[0] == "ireg":
                implicit = True
            elif node[0] != "const":
                for arg in node[1:]:
                    walk(arg)

        walk(term)
        if implicit or not inputs:
            continue
        shapes.append(
            _Shape(
                key=key,
                op_sem=op_sem,
                input_positions=inputs,
                output_position=target[1],
                usedef=target[1] in inputs,
            )
        )
    return shapes


@dataclass
class CombinerResult:
    ir_op: str
    instrs: list = field(default_factory=list)  # template DInstrs over Slots
    keys: list = field(default_factory=list)
    two_address: bool = False
    checked_vectors: int = 0


class Combiner:
    """Search instruction sequences + wirings matching an IR operator."""

    def __init__(self, semantics, bits=32, seed=0xC0DE, max_length=2):
        self.shapes = _usable_shapes(semantics)
        self.bits = bits
        self.rng = random.Random(seed)
        self.max_length = max_length

    # ------------------------------------------------------------------

    def find(self, ir_op):
        row = operator_named(ir_op)
        if row is None:
            return None
        vectors = _vectors(row, self.rng, self.bits)
        unary = row.arity == 1
        for length in range(1, self.max_length + 1):
            for combo in itertools.product(self.shapes, repeat=length):
                for wiring in self._wirings(combo, unary):
                    if self._check(row, vectors, combo, wiring):
                        return self._as_result(ir_op, combo, wiring, vectors)
        return None

    def _wirings(self, combo, unary):
        """Every assignment of prior values (left/right/intermediate
        cells) to each instruction's input positions."""
        base_cells = ["left"] if unary else ["left", "right"]

        def extend(index, acc, cells):
            if index == len(combo):
                yield list(acc)
                return
            shape = combo[index]
            for choice in itertools.product(cells, repeat=shape.arity):
                out_cell = (
                    choice[shape.input_positions.index(shape.output_position)]
                    if shape.usedef
                    else f"t{index}"
                )
                yield from extend(
                    index + 1,
                    acc + [(choice, out_cell)],
                    cells + ([out_cell] if out_cell not in cells else []),
                )

        yield from extend(0, [], list(base_cells))

    def _check(self, row, vectors, combo, wiring):
        bits = self.bits
        for left, right in vectors:
            operands = [wordops.mask(left, bits), wordops.mask(right, bits)][: row.arity]
            env = dict(zip(("left", "right"), operands))
            try:
                out_cell = None
                for shape, (choice, out) in zip(combo, wiring):
                    value = self._step(shape, choice, env)
                    env[out] = value
                    out_cell = out
            except InterpFail:
                return False
            if env.get(out_cell) != row.word(*operands, bits):
                return False
        return True

    def _step(self, shape, choice, env):
        """Evaluate one instruction with its inputs wired to env cells."""
        ((_target, term),) = shape.op_sem.effects
        example = shape.op_sem.example
        cell_of_position = dict(zip(shape.input_positions, choice))

        def read(leaf):
            if leaf[0] == "val":
                operand = example.operands[leaf[1]]
                if isinstance(operand, DReg):
                    return env[cell_of_position[leaf[1]]]
                if isinstance(operand, DImm):
                    return wordops.mask(operand.value, self.bits)
            raise InterpFail(f"unusable leaf {leaf!r}")

        return eval_term(term, read, self.bits)

    # -- packaging -------------------------------------------------------

    def _as_result(self, ir_op, combo, wiring, vectors):
        final_cell = wiring[-1][1]
        slot_of_cell = {"left": "left", "right": "right"}
        scratch = 0
        for index, (_choice, out_cell) in enumerate(wiring):
            if out_cell in slot_of_cell:
                continue
            if out_cell == final_cell:
                slot_of_cell[out_cell] = "result"
            else:
                slot_of_cell[out_cell] = f"scratch{scratch}"
                scratch += 1
        result = CombinerResult(
            ir_op,
            keys=[shape.key for shape in combo],
            two_address=final_cell == "left",
            checked_vectors=len(vectors),
        )
        for shape, (choice, out_cell) in zip(combo, wiring):
            example = shape.op_sem.example
            cell_of_position = dict(zip(shape.input_positions, choice))
            operands = []
            for position, op in enumerate(example.operands):
                if position == shape.output_position and not shape.usedef:
                    operands.append(Slot(slot_of_cell[out_cell]))
                elif position in cell_of_position:
                    operands.append(Slot(slot_of_cell[cell_of_position[position]]))
                else:
                    operands.append(op)
            result.instrs.append(example.clone(labels=[], operands=operands))
        return result

    def as_rule(self, ir_op):
        """Package a found combination as an OpRule."""
        found = self.find(ir_op)
        if found is None:
            return None
        rule = OpRule(ir_op=ir_op, instrs=found.instrs, verified=True)
        rule.source_sample = f"combiner({'+'.join(found.keys)})"
        rule.two_address = found.two_address
        return rule
