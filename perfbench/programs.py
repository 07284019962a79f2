"""Seeded language-A kernel programs for the benchmark's program stages.

A program is one ``while`` loop (a "kernel") wrapped in initialisation
and a final ``print`` of every variable.  The seed picks the family's
operators, relations and constants; the size rung fixes how many IR
statements the loop may execute, so the step counts -- and with them
the timings -- have the same distribution for every seed.  The compiler
under test only ever sees the program text.

Every statement keeps its operation defined on every target: divisors
are forced into ``1..16`` or ``1..256`` (never 0, never -1, so no trap
and no ``INT_MIN / -1``), and shift counts into ``0..7`` (below every
word size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Why each kernel family is in the set.
FAMILIES = {
    "mix": "straight-line body over all twelve operators: every op and "
    "immediate rule, at a fixed per-iteration cost, so executor per-step "
    "cost dominates",
    "branch": "if/else chains over all six relations: branch rules, "
    "label layout, and taken/not-taken paths that depend on the data",
    "nested": "a counted inner loop inside the outer one: back-edge "
    "jumps and loop-carried locals across two loop levels",
    "digits": "a digit-sum loop of / and % that runs until its value is "
    "0: division rules, which some targets reach through runtime calls",
}

#: binary operators of language A with a statement shape that stays
#: defined on every target (``x`` is assigned, ``y`` is read).
BINARY = {
    "+": "{x} := {x} + {y} + {k};",
    "-": "{x} := {x} - ({y} & {m});",
    "*": "{x} := {x} * {k} + {y};",
    "/": "{x} := {x} / (({y} & 15) + 1);",
    "%": "{x} := {x} % (({y} & 255) + 1);",
    "&": "{x} := ({x} & {y}) + {k};",
    "|": "{x} := {x} | ({y} & {m});",
    "^": "{x} := {x} ^ {y};",
    "<<": "{x} := {x} << ({y} & 7);",
    ">>": "{x} := {x} >> ({y} & 7);",
}
UNARY = {
    "-": "{x} := -{x} + {y};",
    "~": "{x} := ~{x} ^ {y};",
}
RELATIONS = ("<", "<=", ">", ">=", "==", "!=")

_VALUES = ("a", "b", "c", "d")
_OPS = [("bin", op) for op in BINARY] + [("un", op) for op in UNARY]
#: the digit loop's base, and the digits every value in 32768..65535 has
_BASE, _DIGITS = 10, 5


@dataclass(frozen=True)
class Program:
    """One generated program: its text, family and an upper bound on
    the IR statements it executes."""

    name: str
    family: str
    source: str
    ir_bound: int


def _statement(rng, kind_op):
    kind, op = kind_op
    x, y = rng.sample(_VALUES, 2)
    table = BINARY if kind == "bin" else UNARY
    return table[op].format(x=x, y=y, k=rng.randrange(1, 200), m=1023)


def _operators(rng, exclude=()):
    """Every operator once, in a seeded order.  Each loop path runs each
    operator exactly once per iteration, so a program's step count
    depends on its size rung and family, hardly on the seed."""
    ops = [op for op in _OPS if op not in exclude]
    rng.shuffle(ops)
    return ops


def _condition(rng):
    x = rng.choice(_VALUES)
    return f"({x} & {rng.choice((7, 15, 31))}) {rng.choice(RELATIONS)} {rng.randrange(0, 8)}"


def _body(family, rng):
    """The loop body's lines and its IR statements per iteration (an
    upper bound: both arms of every ``if`` and every inner-loop trip)."""
    if family == "mix":
        return [_statement(rng, op) for op in _operators(rng)], len(_OPS)
    if family == "branch":
        # Both arms of an if run the same operators on other operands,
        # so the path taken barely changes the step count.
        ops, lines = _operators(rng), []
        for pair in (ops[0:2], ops[2:4], ops[4:6]):
            lines.append(f"if {_condition(rng)} then")
            lines.extend("    " + _statement(rng, op) for op in pair)
            lines.append("else")
            lines.extend("    " + _statement(rng, op) for op in pair)
            lines.append("end")
        lines.extend(_statement(rng, op) for op in ops[6:])
        # per if: branch + 2 + jump + label + 2 + label
        return lines, 3 * 8 + len(ops[6:])
    if family == "nested":
        ops, trips = _operators(rng), 6
        lines = ["j := 0;", f"while j < {trips} do"]
        lines.extend("    " + _statement(rng, op) for op in ops[:6])
        lines += ["    j := j + 1;", "end"]
        lines.extend(_statement(rng, op) for op in ops[6:])
        # j := 0; per trip: label + branch + 6 + j := j + 1 + jump;
        # exit: label + branch + label; tail statements
        return lines, 1 + trips * 10 + 3 + len(ops[6:])
    if family == "digits":
        ops = _operators(rng, exclude={("bin", "/"), ("bin", "%")})
        lines = [
            f"t := ({rng.choice(_VALUES)} & 32767) + 32768;",
            "while t != 0 do",
            f"    s := s + t % {_BASE};",
            f"    t := t / {_BASE};",
            "end",
        ]
        lines.extend(_statement(rng, op) for op in ops)
        # t := ...; per digit: label + branch + 2 + jump; exit: label +
        # branch + label; tail statements
        return lines, 1 + _DIGITS * 5 + 3 + len(ops)
    raise ValueError(f"unknown kernel family {family!r}")


def make_program(name, family, rung, rng):
    """One kernel program of *family* sized to *rung* IR statements."""
    body, per_iteration = _body(family, rng)
    # label + branch + body + i := i + 1 + jump
    per_iteration += 4
    iterations = max(1, rung // per_iteration)
    init = [f"{v} := {rng.randrange(1, 100_000)};" for v in _VALUES]
    lines = ["var i, j, t, s, a, b, c, d;", *init, "i := 0; j := 0; t := 0; s := 0;"]
    lines.append(f"while i < {iterations} do")
    lines.extend("    " + line for line in body)
    lines += ["    i := i + 1;", "end"]
    lines += [f"print {v};" for v in ("s", *_VALUES)]
    # initialisation, the loop and its exit (label + branch + label),
    # the prints and the final Exit
    ir_bound = len(init) + 4 + iterations * per_iteration + 3 + 5 + 1
    return Program(name, family, "\n".join(lines) + "\n", ir_bound)


def generate(seed, rungs):
    """One program per entry of *rungs* (IR-statement budgets), with the
    families in a fixed rotation, so every seed yields the same mix of
    families and sizes; the seed decides operators, relations and
    constants."""
    rng = random.Random(f"perfbench-programs:{seed}")
    families = sorted(FAMILIES)
    return [
        make_program(f"p{index:03d}-{families[index % len(families)]}",
                     families[index % len(families)], rung, rng)
        for index, rung in enumerate(rungs)
    ]
