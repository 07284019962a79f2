"""The likelihood model L(S, I, R) (paper section 5.2.2).

``L(S,I,R) = c1*M(S,I,R) + c2*P(S,R) + c3*G(I,R) + c4*N(I,R)``

- M: evidence from graph matching (weighted highest);
- P: the sample's own semantics (a multiplication sample is unlikely to
  contain a division instruction);
- G: the instruction's signature (an address argument suggests a load or
  a store, no result suggests a store);
- N: the instruction's mnemonic (weighted lowest -- "this information
  can be highly inaccurate").

These are *static priorities*, not a fitness function: the paper argues
no fitness function can exist in this domain, so candidates are ranked
before the search starts and never re-scored.
"""

from __future__ import annotations

from repro.beg.ir import operator_spelled
from repro.discovery.primitives import NAME_HINTS
from repro.discovery.terms import TermTable

#: implementation-specific weights (paper: "the c's are implementation
#: specific weights"); M dominates, N barely matters.
C1, C2, C3, C4 = 4.0, 2.0, 1.0, 0.5

#: preference for the shortest interpretation
SIZE_PENALTY = 0.8

#: primitives plausibly appearing in a sample for each operator
EXPANSIONS = {
    "add": ("add",),
    "sub": ("sub", "neg", "add"),
    "mul": ("mul", "shiftLeft", "add"),
    "div": ("div", "shiftRight", "sub", "mul"),
    "mod": ("mod", "div", "mul", "sub"),
    "and": ("and", "not"),
    "or": ("or",),
    "xor": ("xor",),
    "shiftLeft": ("shiftLeft",),
    "shiftRight": ("shiftRight", "shiftRightU", "neg", "shiftLeft"),
    "neg": ("neg", "sub"),
    "not": ("not", "xor", "or"),
}


class Scorer:
    """L(S, I, R) for one instruction instance.  The parts that depend
    only on the sample, the instruction and its graph role are worked
    out once; each call then combines the per-term facts of one
    hypothesis."""

    def __init__(self, sample, instr, role):
        row = operator_spelled(sample.op, 1 if sample.kind == "unary" else 2)
        op_prim = row.prim if row is not None else None
        self.op_prim = op_prim
        self.role = role
        # Multi-instruction expansions (mod = div+mul+sub, shifts
        # through a negated count...) mean the compute/forward nodes may
        # carry any primitive from the operator's expansion set; the
        # sample prior admits the same set (the paper notes
        # multiplication by constants becomes shifts and adds).
        self.expansion = frozenset(EXPANSIONS.get(op_prim, (op_prim,) if op_prim else ()))
        mnemonic = instr.mnemonic.lower()
        #: prim -> does the mnemonic carry one of its name hints
        self.hinted = {
            prim: any(h in mnemonic for h in hints) for prim, hints in NAME_HINTS.items()
        }

    def __call__(self, effects, terms):
        """Score one hypothesis; *terms* is the :class:`TermTable` its
        terms come from."""
        prims = set()
        total_size = 0
        for _target, term in effects:
            facts = terms[term]
            # in first-use order, as a recursive walk would add them:
            # the N term below sums over this set in its iteration order
            prims.update(facts.prims)
            total_size += facts.size
        identity = all(term[0] in ("val", "ireg") for _target, term in effects)
        expansion = self.expansion
        role = self.role

        # -- M: graph matching evidence -------------------------------
        m = 0.0
        if role == "compute" and self.op_prim is not None:
            if prims and prims <= expansion:
                m += 1.0  # mnemonic hints (N) break ties inside the set
            elif prims:
                m -= 0.5
        elif role == "forward":
            if identity:
                m += 1.0
            elif prims and prims <= expansion:
                m += 0.5
            elif prims:
                m -= 0.5
        elif role in ("load", "store"):
            if identity:
                m += 1.0
            elif prims:
                m -= 0.5

        # -- P: sample prior --------------------------------------------
        alien = prims - expansion
        p = 0.5 if not alien else -0.3 * len(alien)

        # -- G: signature clues ------------------------------------------
        g = 0.0
        writes_mem = any(target[0] == "mem" for target, _term in effects)
        if writes_mem and identity:
            g += 0.5  # an instruction with no register result stores
        if not effects:
            g -= 0.2  # pure no-ops are rare in a minimal region

        # -- N: mnemonic hints ----------------------------------------------
        n = 0.0
        for prim in prims or {"move"}:
            if self.hinted.get(prim, False):
                n += 1.0
            else:
                n -= 0.2

        return C1 * m + C2 * p + C3 * g + C4 * n - SIZE_PENALTY * max(0, total_size - 1)


def score(sample, instr, effects, role):
    """Score one semantics hypothesis for one instruction."""
    return Scorer(sample, instr, role)(effects, TermTable())
