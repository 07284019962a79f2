"""The intermediate code the self-retargeting compiler's front end emits,
and the one table of its operators.

Statement-level ops mirror the paper's examples (``BranchEQ(a, b, L) =
IF a = b GOTO L``); expressions are small trees over locals and
constants.

The paper names each operator in four vocabularies: the C operator a
sample exercises (section 3), the reverse interpreter's primitive
(Figure 14), the IR operator of the BEG rule the Synthesizer writes
(Figure 15) and the source spelling of language A (Figure 1).
:data:`OPERATOR_TABLE` and :data:`RELATION_TABLE` write each name, and
each operator's word semantics, down once; every layer reads them from
here.  Row order is iteration order: the Synthesizer tries operators in
it, the branch analysis keeps the first relation that matches, and
speclint reports missing operator rules in it.  The module imports only :mod:`repro.wordops`,
which imports nothing, so every layer can import it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq, ge, gt, le, lt, ne
from types import MappingProxyType

from repro import wordops


@dataclass(frozen=True)
class Operator:
    """One operator in every vocabulary that names it."""

    spelling: str  # C and language A; unary and binary "-" share it
    ir: str  # IR operator and BEG rule name: "Plus"
    prim: str  # reverse-interpretation primitive (Figure 14): "add"
    stem: str  # sample-name stem: "add" in int_add_a_bOPc
    arity: int
    #: ``word(*operands, bits)``, the unsigned result word: a wordops
    #: function, so the verifier's symbolic words take the same path
    word: object
    shift: bool = False  # the right operand is a shift count
    divisor: bool = False  # the right operand is a divisor


@dataclass(frozen=True)
class Relation:
    """One comparison in every vocabulary that names it."""

    spelling: str  # C and language A: "<"
    branch: str  # IR statement: "BranchLT"
    prim: str  # primitive (Figure 14) and spec relation name: "isLT"
    holds: object  # the predicate over signed words
    negation: str  # spelling of the complement
    swapped: str  # spelling of the relation with the operands exchanged

    @property
    def stem(self):
        """The sample-name stem: "lt" in int_cond_lt."""
        return self.prim[2:].lower()


OPERATOR_TABLE = (
    Operator("+", "Plus", "add", "add", 2, wordops.add),
    Operator("-", "Minus", "sub", "sub", 2, wordops.sub),
    Operator("*", "Mult", "mul", "mul", 2, wordops.mul),
    Operator("/", "Div", "div", "div", 2, wordops.sdiv, divisor=True),
    Operator("%", "Mod", "mod", "mod", 2, wordops.smod, divisor=True),
    Operator("&", "And", "and", "and", 2, wordops.band),
    Operator("|", "Or", "or", "or", 2, wordops.bor),
    Operator("^", "Xor", "xor", "xor", 2, wordops.bxor),
    Operator("<<", "Shl", "shiftLeft", "shl", 2, wordops.shl, shift=True),
    Operator(">>", "Shr", "shiftRight", "shr", 2, wordops.shr_arith, shift=True),
    Operator("-", "Neg", "neg", "neg", 1, wordops.neg),
    Operator("~", "Not", "not", "not", 1, wordops.bit_not),
)

RELATION_TABLE = (
    Relation("<", "BranchLT", "isLT", lt, ">=", ">"),
    Relation("<=", "BranchLE", "isLE", le, ">", ">="),
    Relation(">", "BranchGT", "isGT", gt, "<=", "<"),
    Relation(">=", "BranchGE", "isGE", ge, "<", "<="),
    Relation("==", "BranchEQ", "isEQ", eq, "!=", "=="),
    Relation("!=", "BranchNE", "isNE", ne, "==", "!="),
)

BINARY_OPS = tuple(row.ir for row in OPERATOR_TABLE if row.arity == 2)
UNARY_OPS = tuple(row.ir for row in OPERATOR_TABLE if row.arity == 1)
RELATIONS = MappingProxyType({row.branch: row.prim for row in RELATION_TABLE})

_OPERATOR_NAMED = MappingProxyType({row.ir: row for row in OPERATOR_TABLE})
_OPERATOR_SPELLED = MappingProxyType(
    {(row.spelling, row.arity): row for row in OPERATOR_TABLE}
)
_RELATION_NAMED = MappingProxyType(
    {name: row for row in RELATION_TABLE for name in (row.spelling, row.branch, row.prim)}
)


def operator_named(name):
    """The row of the IR operator *name* ("Plus"), or None."""
    return _OPERATOR_NAMED.get(name)


def operator_spelled(spelling, arity=2):
    """The row of the source operator *spelling*, or None; unary and
    binary "-" differ by *arity*."""
    return _OPERATOR_SPELLED.get((spelling, arity))


def relation_named(name):
    """The row of the relation spelled or named *name* ("<",
    "BranchLT" or "isLT"), or None."""
    return _RELATION_NAMED.get(name)


# -- expressions ---------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Local:
    """A local variable, identified by its frame slot index."""

    index: int


@dataclass(frozen=True)
class BinOp:
    op: str  # an IR name in BINARY_OPS
    left: object
    right: object


@dataclass(frozen=True)
class UnOp:
    op: str  # an IR name in UNARY_OPS
    operand: object


# -- statements ------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    target: Local
    value: object


@dataclass(frozen=True)
class Branch:
    """Conditional jump: ``IF left REL right GOTO label``."""

    op: str  # one of RELATIONS keys
    left: object
    right: object
    label: str


@dataclass(frozen=True)
class Jump:
    label: str


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Print:
    """Print an integer expression followed by a newline."""

    value: object


@dataclass(frozen=True)
class Exit:
    pass


@dataclass
class IRProgram:
    stmts: list = field(default_factory=list)
    #: number of local slots used
    locals_used: int = 0

    def render(self):
        out = []
        for stmt in self.stmts:
            out.append(f"  {stmt}")
        return "\n".join(out)


def eval_program(program, bits=32, fuel=1_000_000):
    """Reference interpreter for IR programs (word-exact at *bits*) --
    the oracle the generated back ends are validated against."""
    to_signed = wordops.to_signed
    env = {}
    labels = {
        stmt.name: i for i, stmt in enumerate(program.stmts) if isinstance(stmt, Label)
    }
    output = []
    pc = 0
    steps = 0

    def value(expr):
        if isinstance(expr, Const):
            return to_signed(expr.value, bits)
        if isinstance(expr, Local):
            return env.get(expr.index, 0)
        if isinstance(expr, BinOp):
            word = _OPERATOR_NAMED[expr.op].word
            return to_signed(word(value(expr.left), value(expr.right), bits), bits)
        if isinstance(expr, UnOp):
            return to_signed(_OPERATOR_NAMED[expr.op].word(value(expr.operand), bits), bits)
        raise TypeError(f"bad IR expression {expr!r}")

    while pc < len(program.stmts):
        steps += 1
        if steps > fuel:
            raise RuntimeError("IR evaluation ran out of fuel")
        stmt = program.stmts[pc]
        pc += 1
        if isinstance(stmt, Assign):
            env[stmt.target.index] = value(stmt.value)
        elif isinstance(stmt, Branch):
            if _RELATION_NAMED[stmt.op].holds(value(stmt.left), value(stmt.right)):
                pc = labels[stmt.label]
        elif isinstance(stmt, Jump):
            pc = labels[stmt.label]
        elif isinstance(stmt, Label):
            pass
        elif isinstance(stmt, Print):
            output.append(f"{value(stmt.value)}\n")
        elif isinstance(stmt, Exit):
            break
        else:
            raise TypeError(f"bad IR statement {stmt!r}")
    return "".join(output)
