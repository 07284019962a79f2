"""The operator and relation tables of ``repro.beg.ir`` at edge values.

Every layer reads an operator's names and word semantics from these two
tables, so they are checked here against C's semantics written out
independently of :mod:`repro.wordops`: truncating division, a remainder
that takes the dividend's sign, and two's-complement wrap.
"""

import itertools

import pytest

from repro.beg import ir
from repro.toyc.frontend import parse

WIDTHS = (32, 64)


def edges(bits):
    """0, +-1, INT_MIN and INT_MAX of a *bits*-wide signed word."""
    return (0, 1, -1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)


def wrap(value, bits):
    """*value* reduced to a *bits*-wide two's-complement word."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def c_value(spelling, operands, bits):
    """C's result of the operator on signed words, shifts of negative
    values and by counts in [0, bits) taken as the targets do."""
    if len(operands) == 1:
        (a,) = operands
        return wrap(-a if spelling == "-" else ~a, bits)
    a, b = operands
    if spelling in ("/", "%"):
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        return wrap(quotient if spelling == "/" else a - quotient * b, bits)
    if spelling in ("<<", ">>"):
        return wrap(a << b if spelling == "<<" else a >> b, bits)
    plain = {"+": a + b, "-": a - b, "*": a * b, "&": a & b, "|": a | b, "^": a ^ b}
    return wrap(plain[spelling], bits)


def operand_pairs(row, bits):
    """Edge operands for a binary row: shift counts 0, 1 and bits-1;
    nonzero divisors, and no INT_MIN / -1 (or % -1), which C leaves
    undefined."""
    int_min = -(1 << (bits - 1))
    rights = (0, 1, bits - 1) if row.shift else edges(bits)
    for a, b in itertools.product(edges(bits), rights):
        if row.divisor and (b == 0 or (a, b) == (int_min, -1)):
            continue
        yield a, b


@pytest.mark.parametrize("bits", WIDTHS)
def test_word_functions_follow_c_at_the_edges(bits):
    for row in ir.OPERATOR_TABLE:
        cases = (
            [(a,) for a in edges(bits)] if row.arity == 1 else operand_pairs(row, bits)
        )
        for operands in cases:
            expected = c_value(row.spelling, operands, bits)
            # signed operands as the IR oracle passes them, unsigned
            # words as the machines and the verifier do
            unsigned = [value & ((1 << bits) - 1) for value in operands]
            for given in (operands, unsigned):
                got = row.word(*given, bits)
                assert 0 <= got < 1 << bits, (row.ir, given, got)
                assert wrap(got, bits) == expected, (row.ir, given, bits)


@pytest.mark.parametrize("bits", WIDTHS)
def test_relations_negate_and_swap(bits):
    for row in ir.RELATION_TABLE:
        negation = ir.relation_named(row.negation)
        swapped = ir.relation_named(row.swapped)
        for a, b in itertools.product(edges(bits), repeat=2):
            assert row.holds(a, b) == eval(f"a {row.spelling} b"), (row.spelling, a, b)
            assert negation.holds(a, b) == (not row.holds(a, b)), (row.spelling, a, b)
            assert swapped.holds(a, b) == row.holds(b, a), (row.spelling, a, b)


def test_every_name_names_one_row():
    rows_of = {}
    for row in ir.OPERATOR_TABLE:
        for name in {row.spelling, row.ir, row.prim, row.stem}:
            rows_of.setdefault(name, []).append(row)
    for row in ir.RELATION_TABLE:
        for name in {row.spelling, row.branch, row.prim, row.stem}:
            rows_of.setdefault(name, []).append(row)
    shared = {name: rows for name, rows in rows_of.items() if len(rows) > 1}
    assert list(shared) == ["-"]
    assert sorted(row.arity for row in shared["-"]) == [1, 2]
    assert ir.BINARY_OPS + ir.UNARY_OPS == tuple(row.ir for row in ir.OPERATOR_TABLE)
    assert ir.RELATIONS == {row.branch: row.prim for row in ir.RELATION_TABLE}


def test_parse_turns_each_spelling_into_its_row():
    x, y = ir.Local(0), ir.Local(1)
    for row in ir.OPERATOR_TABLE:
        expression = f"x {row.spelling} y" if row.arity == 2 else f"{row.spelling}y"
        program = parse(f"var x, y; x := {expression};")
        node = ir.BinOp(row.ir, x, y) if row.arity == 2 else ir.UnOp(row.ir, y)
        assert program.stmts[0] == ir.Assign(x, node), row.spelling
    for row in ir.RELATION_TABLE:
        program = parse(f"var x, y; if x {row.spelling} y then print x; end")
        # the body is skipped when the relation fails: a branch on its negation
        negation = ir.relation_named(row.negation).branch
        assert program.stmts[0] == ir.Branch(negation, x, y, "else1"), row.spelling
