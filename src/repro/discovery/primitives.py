"""The reverse interpreter's primitive instructions (paper Figure 14).

Types: Int (I), Bool (B), Address (A), Label (L), Condition code (C).
All integer arithmetic is performed at the discovered word width
(section 5.2.1: "we simulate arithmetic in the correct precision").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import wordops
from repro.beg.ir import OPERATOR_TABLE


@dataclass(frozen=True)
class Primitive:
    name: str
    signature: tuple  # argument types
    result: str
    comment: str = ""


#: the full Figure 14 table
PRIMITIVES = {
    p.name: p
    for p in [
        Primitive("add", ("I", "I"), "I", "add(a,b) = a + b"),
        Primitive("sub", ("I", "I"), "I", "sub(a,b) = a - b"),
        Primitive("mul", ("I", "I"), "I", "mul(a,b) = a * b"),
        Primitive("div", ("I", "I"), "I", "div(a,b) = a / b (truncating)"),
        Primitive("mod", ("I", "I"), "I", "mod(a,b) = a rem b"),
        Primitive("abs", ("I",), "I", "abs(a) = |a|"),
        Primitive("neg", ("I",), "I", "neg(a) = -a"),
        Primitive("not", ("I",), "I", "not(a) = ~a"),
        Primitive("move", ("I",), "I", "move(a) = a"),
        Primitive("and", ("I", "I"), "I", "and(a,b) = a & b"),
        Primitive("or", ("I", "I"), "I", "or(a,b) = a | b"),
        Primitive("xor", ("I", "I"), "I", "xor(a,b) = a ^ b"),
        Primitive("shiftLeft", ("I", "I"), "I", "shiftLeft(a,b) = a << b"),
        Primitive("shiftRight", ("I", "I"), "I", "shiftRight(a,b) = a >> b (arithmetic)"),
        Primitive("shiftRightU", ("I", "I"), "I", "logical right shift"),
        Primitive("ignore1", ("I", "I"), "I", "ignore1(a,b) = b"),
        Primitive("ignore2", ("I", "I"), "I", "ignore2(a,b) = a"),
        Primitive("compare", ("I", "I"), "C", "compare(a,b) = (a<b, a=b, a>b)"),
        Primitive("isEQ", ("C",), "B", "true for an equal condition"),
        Primitive("isNE", ("C",), "B", ""),
        Primitive("isLT", ("C",), "B", ""),
        Primitive("isLE", ("C",), "B", ""),
        Primitive("isGT", ("C",), "B", ""),
        Primitive("isGE", ("C",), "B", ""),
        Primitive("brTrue", ("B", "L"), "", "branch on true"),
        Primitive("brFalse", ("B", "L"), "", "branch on false"),
        Primitive("nop", (), "", "no operation"),
        Primitive("load", ("A",), "I", "load(a) = M[a]"),
        Primitive("store", ("A", "I"), "", "store(a,b): M[a] <- b"),
        Primitive("loadLit", ("Lit",), "I", "loadLit(a) = a"),
        Primitive("loadAddr", ("Addr",), "A", "loadAddr(a) = a"),
    ]
}


def _term_prim(row):
    """An operator row as a term primitive: ``(arity, fn(bits, *args))``
    over its word function."""
    word = row.word
    if row.arity == 1:
        return 1, lambda bits, a: word(a, bits)
    return 2, lambda bits, a, b: word(a, b, bits)


#: integer primitives usable inside reverse-interpretation terms,
#: mapping name -> (arity, evaluator(bits, *args)), in term-enumeration
#: (so search) order; each source operator's entry comes from its row of
#: the operator table, and only shiftRightU and abs, which no source
#: operator has, are written out here
TERM_PRIMS = {
    **{row.prim: _term_prim(row) for row in OPERATOR_TABLE if row.arity == 2},
    "shiftRightU": (2, lambda bits, a, b: wordops.shr_logical(a, b, bits)),
    **{row.prim: _term_prim(row) for row in OPERATOR_TABLE if row.arity == 1},
    "abs": (1, lambda bits, a: wordops.mask(abs(wordops.to_signed(a, bits)), bits)),
}

#: term primitives whose right operand is a divisor: a zero one fails
DIVISOR_PRIMS = frozenset(row.prim for row in OPERATOR_TABLE if row.divisor)

#: mnemonic substring hints for the N(I,R) likelihood component
NAME_HINTS = {
    "add": ("add", "plus", "inc"),
    "sub": ("sub", "min", "dec"),
    "mul": ("mul", "mlt", "mpy"),
    "div": ("div",),
    "mod": ("rem", "mod"),
    "and": ("and", "bic"),
    "or": ("or", "bis"),
    "xor": ("xor", "eor"),
    "shiftLeft": ("sll", "shl", "lsh", "sal", "ash"),
    "shiftRight": ("sra", "sar", "shr", "rsh", "ash"),
    "shiftRightU": ("srl", "shr", "lsr"),
    "neg": ("neg",),
    "not": ("not", "com"),
    "move": ("mov", "ld", "lw", "set", "li", "lda", "st", "sw", "push", "pop"),
}
