"""Semantic terms: the language instruction semantics are expressed in.

A term is a tuple tree:

- ``("val", k)``   -- the value of visible operand slot *k* (registers
  read their register, immediates their constant, memory operands the
  loaded word -- the addressing-mode semantics ``load(loadAddr(...))``
  of paper Figure 13 is implied);
- ``("ireg", name)`` -- the value of an implicit register argument;
- ``("const", v)`` -- a small literal constant;
- ``(prim, t1 [, t2])`` -- application of a Figure 14 primitive.

An instruction's semantics is a tuple of *effects* ``(target, term)``
where the target is ``("op", k)`` (a visible register operand written),
``("mem", k)`` (a memory operand stored through), or ``("ireg", name)``
(an implicit register result).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.discovery.primitives import TERM_PRIMS

#: extra constants terms may mention (the paper's shortest-interpretation
#: rule keeps this list tiny)
TERM_CONSTS = (0, 1)

#: ``prim(x, c)`` is just ``x`` for these (prim, c) pairs
_RIGHT_IDENTITY_CONSTS = {
    ("mul", 1),
    ("div", 1),
    ("add", 0),
    ("sub", 0),
    ("or", 0),
    ("xor", 0),
    ("shiftLeft", 0),
    ("shiftRight", 0),
    ("shiftRightU", 0),
}

_COMMUTATIVE = ("mul", "add", "or", "xor", "and")


def term_size(term):
    if term[0] in ("val", "ireg", "const"):
        return 1
    return 1 + sum(term_size(arg) for arg in term[1:])


class TermFacts(NamedTuple):
    """What the likelihood model and the hypothesis filters read off a
    term."""

    size: int
    #: the primitives applied, each once, in preorder
    prims: tuple
    leaves: frozenset
    #: contains ``mul(x, 1)``, ``add(0, x)``...: an identity in disguise,
    #: never the *simplest* interpretation of anything
    disguised: bool


def _disguises_identity(term):
    """Is this application itself ``prim(x, c)`` (or ``prim(c, x)`` for a
    commutative prim) with ``c`` the prim's identity constant?"""
    if len(term) != 3:
        return False
    prim, left, right = term
    if right[0] == "const" and (prim, right[1]) in _RIGHT_IDENTITY_CONSTS:
        return True
    return (
        prim in _COMMUTATIVE
        and left[0] == "const"
        and (prim, left[1]) in _RIGHT_IDENTITY_CONSTS
    )


class TermTable(dict):
    """term -> :class:`TermFacts`, each worked out once, on first
    lookup, from its children's facts."""

    def __missing__(self, term):
        if term[0] in ("val", "ireg", "const"):
            facts = TermFacts(1, (), frozenset((term,)), False)
        else:
            kids = [self[arg] for arg in term[1:]]
            prims = [term[0]]
            for kid in kids:
                prims.extend(kid.prims)
            facts = TermFacts(
                1 + sum(kid.size for kid in kids),
                tuple(dict.fromkeys(prims)),
                frozenset().union(*(kid.leaves for kid in kids)),
                _disguises_identity(term) or any(kid.disguised for kid in kids),
            )
        self[term] = facts
        return facts


def term_leaves(term):
    if term[0] in ("val", "ireg", "const"):
        yield term
        return
    for arg in term[1:]:
        yield from term_leaves(arg)


def render_term(term, operand_names=None):
    kind = term[0]
    if kind == "val":
        if operand_names:
            return operand_names[term[1]]
        return f"arg{term[1]}"
    if kind == "ireg":
        return term[1]
    if kind == "const":
        return str(term[1])
    args = ", ".join(render_term(arg, operand_names) for arg in term[1:])
    return f"{kind}({args})"


def render_effects(effects, operand_names=None):
    parts = []
    for target, term in effects:
        if target[0] == "op":
            name = operand_names[target[1]] if operand_names else f"arg{target[1]}"
        elif target[0] == "mem":
            name = (
                f"M[{operand_names[target[1]]}]"
                if operand_names
                else f"M[arg{target[1]}]"
            )
        else:
            name = target[1]
        parts.append(f"{name} <- {render_term(term, operand_names)}")
    return "; ".join(parts) or "nop"


def enumerate_terms(leaves, max_size=3, consts=TERM_CONSTS):
    """All terms over the given leaves up to *max_size*, smallest first.

    The shortest-first order implements the paper's preference for the
    simplest semantic interpretation.  Only sizes below *max_size* are
    kept as building blocks; the largest size streams, so a consumer
    that stops early never builds the rest of it.
    """
    atoms = list(leaves) + [("const", c) for c in consts]
    by_size = {1: list(leaves)}
    yield from by_size[1]
    # Constant results come last among size-1 terms (the x86 cltd writes
    # a sign-extension that looks like a constant 0 on positive samples).
    yield from (("const", c) for c in consts)
    for size in range(2, max_size + 1):
        if size < max_size:
            by_size[size] = list(_terms_of_size(size, atoms, by_size))
            yield from by_size[size]
        else:
            yield from _terms_of_size(size, atoms, by_size)


def _terms_of_size(size, atoms, by_size):
    for name, (arity, _fn) in TERM_PRIMS.items():
        if arity == 1:
            for sub in by_size.get(size - 1, ()):
                yield (name, sub)
        else:
            # split remaining size-1 between the two arguments
            for left_size in range(1, size - 1):
                right_size = size - 1 - left_size
                lefts = atoms if left_size == 1 else by_size.get(left_size, ())
                rights = atoms if right_size == 1 else by_size.get(right_size, ())
                for left in lefts:
                    for right in rights:
                        if left[0] == "const" and right[0] == "const":
                            continue
                        yield (name, left, right)
