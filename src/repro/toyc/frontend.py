"""Front end for language A: a small imperative language.

::

    var x, y;
    x := 313;
    y := x * 109 + 1;
    if x < y then print y; else print x; end
    while x > 0 do x := x - 1; end
    print x;

Statements: ``var`` declarations, assignment (``:=``), ``print``,
``if .. then .. [else ..] end``, ``while .. do .. end``.  Expressions:
integer literals, variables, ``+ - * / % & | ^ << >>``, unary ``-``/``~``,
parentheses.  Conditions: ``< <= > >= == !=``.
"""

from __future__ import annotations

import re

from repro.beg import ir
from repro.errors import CompilerError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<<|>>|<=|>=|==|!=|[-+*/%&|^~<>();,])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"var", "print", "if", "then", "else", "end", "while", "do"}

_PRECEDENCE = [["|"], ["^"], ["&"], ["<<", ">>"], ["+", "-"], ["*", "/", "%"]]


def tokenize(source):
    tokens = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match:
            raise CompilerError(f"stray character {source[pos]!r}", line)
        line += match.group().count("\n")
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        value = match.group()
        if kind == "num":
            tokens.append(("num", int(value), line))
        elif kind == "id":
            tokens.append(("kw" if value in _KEYWORDS else "id", value, line))
        else:
            tokens.append(("op", value, line))
    tokens.append(("eof", None, line))
    return tokens


class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0
        self.vars = {}
        self.stmts = []
        self._labels = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def tok(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tok
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.tok
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        tok = self.accept(kind, value)
        if tok is None:
            want = value if value is not None else kind
            raise CompilerError(f"expected {want!r}, found {self.tok[1]!r}", self.tok[2])
        return tok

    def fresh_label(self, stem):
        self._labels += 1
        return f"{stem}{self._labels}"

    # -- program ------------------------------------------------------------

    def parse(self):
        while self.tok[0] != "eof":
            self.statement(self.stmts)
        program = ir.IRProgram(stmts=self.stmts + [ir.Exit()])
        program.locals_used = len(self.vars)
        return program

    def local(self, name, line):
        if name not in self.vars:
            raise CompilerError(f"undeclared variable {name!r}", line)
        return ir.Local(self.vars[name])

    # -- statements ------------------------------------------------------------

    def statement(self, out):
        tok = self.tok
        if tok[0] == "kw" and tok[1] == "var":
            self.advance()
            while True:
                name = self.expect("id")[1]
                if name in self.vars:
                    raise CompilerError(f"duplicate variable {name!r}", tok[2])
                self.vars[name] = len(self.vars)
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
            return
        if tok[0] == "kw" and tok[1] == "print":
            self.advance()
            value = self.expression()
            self.expect("op", ";")
            out.append(ir.Print(value))
            return
        if tok[0] == "kw" and tok[1] == "if":
            self.advance()
            negation, left, right = self.condition()
            self.expect("kw", "then")
            skip = self.fresh_label("else")
            endif = self.fresh_label("endif")
            out.append(ir.Branch(negation, left, right, skip))
            while not (self.tok[0] == "kw" and self.tok[1] in ("else", "end")):
                self.statement(out)
            if self.accept("kw", "else"):
                out.append(ir.Jump(endif))
                out.append(ir.Label(skip))
                while not (self.tok[0] == "kw" and self.tok[1] == "end"):
                    self.statement(out)
                out.append(ir.Label(endif))
            else:
                out.append(ir.Label(skip))
            self.expect("kw", "end")
            return
        if tok[0] == "kw" and tok[1] == "while":
            self.advance()
            top = self.fresh_label("loop")
            done = self.fresh_label("done")
            out.append(ir.Label(top))
            negation, left, right = self.condition()
            self.expect("kw", "do")
            out.append(ir.Branch(negation, left, right, done))
            while not (self.tok[0] == "kw" and self.tok[1] == "end"):
                self.statement(out)
            self.expect("kw", "end")
            out.append(ir.Jump(top))
            out.append(ir.Label(done))
            return
        if tok[0] == "id":
            name = self.advance()[1]
            self.expect("op", ":=")
            value = self.expression()
            self.expect("op", ";")
            out.append(ir.Assign(self.local(name, tok[2]), value))
            return
        raise CompilerError(f"unexpected token {tok[1]!r}", tok[2])

    def condition(self):
        """``left REL right`` as (the IR name of REL's negation, left,
        right): the statements branch around the body when it fails."""
        left = self.expression()
        tok = self.expect("op")
        relation = ir.relation_named(tok[1])
        if relation is None:
            raise CompilerError(f"expected a comparison, found {tok[1]!r}", tok[2])
        right = self.expression()
        return ir.relation_named(relation.negation).branch, left, right

    # -- expressions -------------------------------------------------------------

    def expression(self, level=0):
        if level >= len(_PRECEDENCE):
            return self.unary()
        left = self.expression(level + 1)
        while self.tok[0] == "op" and self.tok[1] in _PRECEDENCE[level]:
            op = self.advance()[1]
            right = self.expression(level + 1)
            left = ir.BinOp(ir.operator_spelled(op).ir, left, right)
        return left

    def unary(self):
        tok = self.tok
        row = ir.operator_spelled(tok[1], 1) if tok[0] == "op" else None
        if row is not None:
            self.advance()
            operand = self.unary()
            if tok[1] == "-" and isinstance(operand, ir.Const):
                return ir.Const(-operand.value)  # a negative literal
            return ir.UnOp(row.ir, operand)
        if tok[0] == "num":
            self.advance()
            return ir.Const(tok[1])
        if tok[0] == "id":
            self.advance()
            return self.local(tok[1], tok[2])
        if self.accept("op", "("):
            inner = self.expression()
            self.expect("op", ")")
            return inner
        raise CompilerError(f"unexpected token {tok[1]!r}", tok[2])


def parse(source):
    """Parse a language-A program into an IRProgram."""
    return Parser(source).parse()
