"""E13 (paper Figure 14): the primitive set and the term language."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import wordops
from repro.discovery import primitives, terms
from repro.discovery.reverse_interp import InterpFail, eval_term


class TestFig14Primitives:
    def test_the_full_figure_14_table_is_present(self):
        expected = {
            "add", "sub", "mul", "div", "mod", "abs", "neg", "not", "move",
            "and", "or", "xor", "shiftLeft", "shiftRight", "ignore1",
            "compare", "isEQ", "isLE", "brTrue", "brFalse", "nop",
            "load", "store", "loadLit", "loadAddr",
        }
        assert expected <= set(primitives.PRIMITIVES)

    def test_types_match_the_figure(self):
        assert primitives.PRIMITIVES["compare"].result == "C"
        assert primitives.PRIMITIVES["isLE"].signature == ("C",)
        assert primitives.PRIMITIVES["brTrue"].signature == ("B", "L")
        assert primitives.PRIMITIVES["load"].signature == ("A",)
        assert primitives.PRIMITIVES["store"].signature == ("A", "I")

    def test_ignore1_discards_its_first_argument(self):
        _arity, fn = primitives.TERM_PRIMS.get("add")
        del fn
        assert primitives.PRIMITIVES["ignore1"].comment == "ignore1(a,b) = b"

    @given(
        a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        b=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_term_prims_respect_word_precision(self, a, b):
        for name, (arity, fn) in primitives.TERM_PRIMS.items():
            if arity != 2:
                continue
            if name in ("div", "mod") and wordops.mask(b, 32) == 0:
                continue
            value = fn(32, wordops.mask(a, 32), wordops.mask(b, 32))
            assert 0 <= wordops.mask(value, 32) < 2**32


class TestTermLanguage:
    def test_sizes(self):
        assert terms.term_size(("val", 0)) == 1
        assert terms.term_size(("add", ("val", 0), ("const", 1))) == 3
        assert terms.term_size(("neg", ("add", ("val", 0), ("val", 1)))) == 4

    def test_rendering(self):
        term = ("store" if False else "add", ("val", 0), ("ireg", "%eax"))
        assert terms.render_term(term) == "add(arg0, %eax)"
        effects = ((("mem", 1), ("val", 0)),)
        assert terms.render_effects(effects) == "M[arg1] <- arg0"

    def test_eval_term_is_word_exact(self):
        term = ("add", ("val", 0), ("val", 1))
        value = eval_term(term, lambda leaf: 2**31 - 1 if leaf == ("val", 0) else 1, 32)
        assert value == 2**31  # wrapped, not promoted

    def test_eval_term_raises_on_zero_division(self):
        term = ("div", ("val", 0), ("const", 0))
        with pytest.raises(InterpFail):
            eval_term(term, lambda leaf: 7, 32)

    def test_enumeration_is_shortest_first(self):
        leaves = [("val", 0), ("val", 1)]
        stream = list(terms.enumerate_terms(leaves, max_size=3))
        sizes = [terms.term_size(t) for t in stream]
        assert sizes == sorted(sizes)

    def test_enumeration_covers_the_vax_addl3_shape(self):
        # store(a, add(load(b), load(c))) reduces to add over two value
        # leaves in the effect model -- size 3, within reach.
        leaves = [("val", 0), ("val", 1)]
        stream = terms.enumerate_terms(leaves, max_size=3)
        assert ("add", ("val", 0), ("val", 1)) in set(stream)

    def test_constant_results_enumerated_after_leaves(self):
        leaves = [("val", 0)]
        stream = list(terms.enumerate_terms(leaves, max_size=1))
        assert stream[0] == ("val", 0)
        assert ("const", 0) in stream


class TestDisguisedIdentities:
    @pytest.mark.parametrize(
        "term",
        [
            ("mul", ("val", 0), ("const", 1)),
            ("mul", ("const", 1), ("val", 0)),
            ("add", ("val", 0), ("const", 0)),
            ("sub", ("val", 0), ("const", 0)),
            ("shiftLeft", ("val", 0), ("const", 0)),
            ("neg", ("mul", ("val", 0), ("const", 1))),
        ],
    )
    def test_rejected(self, term):
        assert terms.TermTable()[term].disguised

    @pytest.mark.parametrize(
        "term",
        [
            ("val", 0),
            ("sub", ("const", 0), ("val", 0)),  # a real negation
            ("div", ("const", 1), ("val", 0)),  # a real computation
            ("add", ("val", 0), ("const", 1)),
            ("mul", ("val", 0), ("val", 1)),
        ],
    )
    def test_accepted(self, term):
        assert not terms.TermTable()[term].disguised
