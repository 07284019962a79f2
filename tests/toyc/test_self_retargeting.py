"""E1 (paper Figure 1): the self-retargeting compiler, end to end.

``ac`` is pointed at each of the five simulated machines; the discovered
machine description drives a generated back end; compiled language-A
programs must behave exactly like the IR reference interpreter.
"""

import pytest

from repro.beg.codegen import GeneratedBackend
from repro.toyc import SelfRetargetingCompiler, compile_to_ir
from repro.beg.ir import eval_program
from tests.discovery.conftest import TARGETS, discovery_report

PROGRAMS = [
    ("multiply", "var x, y; x := 313; y := x * 109; print y;"),
    (
        "all_binary_ops",
        "var a, b; a := 100; b := 7;"
        " print a + b; print a - b; print a * b; print a / b; print a % b;"
        " print a & b; print a | b; print a ^ b; print a << 3; print a >> 2;",
    ),
    ("unary_ops", "var a; a := 37; print -a; print ~a;"),
    (
        "comparisons",
        "var a; a := 3;"
        " if a < 4 then print 1; end"
        " if a <= 3 then print 2; end"
        " if a > 2 then print 3; end"
        " if a >= 3 then print 4; end"
        " if a == 3 then print 5; end"
        " if a != 4 then print 6; end"
        " if a > 3 then print 7; end",
    ),
    ("if_else", "var x; x := 9; if x < 5 then print 0; else print 1; end"),
    (
        "while_sum",
        "var i, s; i := 0; s := 0; while i < 10 do s := s + i; i := i + 1; end print s;",
    ),
    (
        "fibonacci",
        "var a, b, t, n; a := 0; b := 1; n := 0;"
        " while n < 20 do t := a + b; a := b; b := t; n := n + 1; end print a;",
    ),
    ("deep_expression", "var x; x := ((2 + 3) * (4 + 5)) / (1 + 1) - 6 % 4; print x;"),
    ("negative_values", "var a; a := 0 - 3904; print a >> 3; print a / 4; print a % 4;"),
    ("immediates", "var a; a := 100; print a + 7; print a * 3; print a << 2; print a & 12;"),
]


@pytest.fixture(scope="session")
def ac():
    compiler = SelfRetargetingCompiler()
    for target in TARGETS:
        report = discovery_report(target)
        compiler._targets[target] = type(
            "R", (), {}
        )  # placeholder replaced just below
        from repro.toyc.compiler import Retargeting

        compiler._targets[target] = Retargeting(
            report.corpus.machine, report, GeneratedBackend(report.spec)
        )
    return compiler


@pytest.fixture(params=TARGETS, scope="session")
def target(request):
    return request.param


@pytest.mark.parametrize("name,source", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_program_matches_reference_interpreter(ac, target, name, source):
    ok, output, expected = ac.check(source, target)
    assert ok, f"{target}/{name}: got {output!r}, want {expected!r}"


def test_generated_assembly_uses_only_discovered_registers(ac, target):
    report = discovery_report(target)
    asm = ac.compile("var x; x := 3 + 4; print x;", target)
    machine = report.corpus.machine
    result = machine.run_asm([asm])
    assert result.ok
    assert result.output == "7\n"


def test_word_width_behaviour_follows_the_target(ac):
    # 2**31 overflows a 32-bit word but not the Alpha's 64-bit word.
    source = "var a; a := 1; print (a << 30) * 2;"
    ok32, out32, _ = ac.check(source, "x86")
    ok64, out64, _ = ac.check(source, "alpha")
    assert ok32 and ok64
    assert out32 == f"{-(2**31)}\n"
    assert out64 == f"{2**31}\n"


def test_compile_is_deterministic(ac, target):
    source = "var x; x := 5; print x * x;"
    assert ac.compile(source, target) == ac.compile(source, target)


def test_unretargeted_machine_is_an_error():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        SelfRetargetingCompiler().compile("print 1;", "pdp11")


def test_frontend_and_backend_agree_on_locals_budget(ac, target):
    report = discovery_report(target)
    backend = GeneratedBackend(report.spec)
    names = ", ".join(f"v{i}" for i in range(8))
    source = f"var {names}; v0 := 1; print v0;"
    program = compile_to_ir(source)
    asm = backend.compile_ir(program)
    result = report.corpus.machine.run_asm([asm])
    assert result.output == "1\n"


def test_too_deep_expression_is_reported(ac):
    from repro.beg.codegen import BackendError

    report = discovery_report("x86")
    backend = GeneratedBackend(report.spec)
    # Each level holds its left constant's temp while the right operand
    # is evaluated, so 30 levels need 30 temps at once.
    expr = "1"
    for _ in range(30):
        expr = f"(1 + {expr})"
    program = compile_to_ir(f"print {expr};")
    with pytest.raises(BackendError):
        backend.compile_ir(program)


def test_consumed_temps_are_reused(target):
    """A temp is free again once the rule consuming it has loaded it:
    a sum of sixteen locals makes 15 partial sums, more than the temps
    the frame has left, but holds only one at a time."""
    report = discovery_report(target)
    names = [f"L{i}" for i in range(16)]
    assigns = " ".join(f"{name} := {7 * i + 3};" for i, name in enumerate(names))
    program = compile_to_ir(f"var {', '.join(names)}; {assigns} print {' + '.join(names)};")
    asm = GeneratedBackend(report.spec).compile_ir(program)
    result = report.corpus.machine.run_asm([asm])
    assert result.ok, result.error
    assert result.output == eval_program(program, bits=report.enquire.word_bits)


def test_reference_interpreter_agrees_with_itself(target):
    report = discovery_report(target)
    program = compile_to_ir("var x; x := 6; print x * 7;")
    assert eval_program(program, bits=report.enquire.word_bits) == "42\n"
