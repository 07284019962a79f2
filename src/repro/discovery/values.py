"""Monte-Carlo selection of sample initialisation values.

Paper section 5.2.1: a poor choice such as ``b=2, c=1`` lets the reverse
interpreter conclude ``mul(a,b) = a/b`` -- the sample admits conflicting
interpretations.  "A Monte Carlo algorithm can help us choose wise
initialization values: generate pairs of random numbers until a pair is
found for which none of the interpreter primitives (or simple
combinations of the primitives) yield the same result."
"""

from __future__ import annotations

from repro import wordops
from repro.beg.ir import operator_spelled

#: candidate binary interpretations that must be told apart (both operand
#: orders for the asymmetric ones)
def _candidate_results(b, c, bits):
    results = []

    def emit(name, fn):
        try:
            results.append((name, wordops.mask(fn(), bits)))
        except ZeroDivisionError:
            pass

    emit("add", lambda: wordops.add(b, c, bits))
    emit("sub", lambda: wordops.sub(b, c, bits))
    emit("rsub", lambda: wordops.sub(c, b, bits))
    emit("mul", lambda: wordops.mul(b, c, bits))
    if wordops.mask(c, bits):
        emit("div", lambda: wordops.sdiv(b, c, bits))
        emit("mod", lambda: wordops.smod(b, c, bits))
    if wordops.mask(b, bits):
        emit("rdiv", lambda: wordops.sdiv(c, b, bits))
        emit("rmod", lambda: wordops.smod(c, b, bits))
    emit("and", lambda: b & c)
    emit("or", lambda: b | c)
    emit("xor", lambda: b ^ c)
    emit("shl", lambda: wordops.shl(b, c % 16, bits))
    emit("shr", lambda: wordops.shr_arith(b, c % 16, bits))
    emit("first", lambda: b)
    emit("second", lambda: c)
    emit("neg", lambda: wordops.neg(b, bits))
    emit("not", lambda: wordops.bit_not(b, bits))
    return results


def values_distinct(b, c, bits=32, op=None):
    """Would (b, c) make the sample's operator unambiguous?

    Some candidate pairs collide *structurally* for any reasonable values
    (``c/b == 0 == b>>c`` whenever ``b > c``), so the requirement is per
    operator: the real operator's result must differ from every other
    candidate's result.  With no operator, demand only non-degeneracy.
    """
    if b in (0, 1) or c in (0, 1) or b == c:
        return False
    if op is None:
        return True
    results = dict(_candidate_results(b, c, bits))
    row = operator_spelled(op)
    name = row.stem if row is not None else op
    if name not in results:
        return False
    target = results[name]
    if target in (0, 1, wordops.mask(b, bits), wordops.mask(c, bits)):
        return False
    return all(value != target for other, value in results.items() if other != name)


def choose_pair(rng, bits=32, lo=2, hi=5000, constraint=None, op=None, attempts=5000):
    """Draw (b, c) until the sample's interpretation is unambiguous."""
    for _ in range(attempts):
        b = rng.randint(lo, hi)
        c = rng.randint(lo, hi)
        if constraint is not None and not constraint(b, c):
            continue
        if values_distinct(b, c, bits, op):
            return b, c
    raise RuntimeError("could not find distinguishing initialisation values")


def choose_shift_pair(rng, bits=32, op="<<", attempts=5000):
    """Shift counts must stay small; keep distinctness for the rest."""
    for _ in range(attempts):
        b = rng.randint(301, 5000)
        c = rng.randint(2, 8)
        if values_distinct(b, c, bits, op):
            return b, c
    raise RuntimeError("could not find distinguishing shift values")


def choose_single(rng, bits=32, lo=2, hi=5000):
    """One value, avoiding the degenerate 0/1 fixpoints."""
    while True:
        v = rng.randint(lo, hi)
        if v not in (0, 1):
            return v
