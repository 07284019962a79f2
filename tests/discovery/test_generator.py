"""T2 + E3 front half: the sample Generator and Monte-Carlo values."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.beg.ir import operator_spelled
from repro.discovery import values as mc
from repro.discovery.generator import BINARY_ROWS, BINARY_SHAPES
from repro.discovery.samples import make_init_source, make_main_source
from tests.discovery.conftest import sample_named


class TestSampleSet:
    def test_sample_count_around_150_per_type(self, report):
        # Paper section 3: "typically around 150 for each numeric type".
        count = len(report.corpus.samples)
        assert 100 <= count <= 200

    def test_the_nine_paper_shapes_per_operator(self):
        assert len(BINARY_SHAPES) == 9
        assert "a=b@c" in BINARY_SHAPES and "a=a@K" in BINARY_SHAPES

    def test_every_operator_has_every_shape(self, report):
        names = {s.name for s in report.corpus.samples}
        for op_name in ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr"):
            hits = [n for n in names if n.startswith(f"int_{op_name}_")]
            assert len(hits) >= 9, f"{op_name}: {hits}"

    def test_nearly_all_samples_survive_analysis(self, report):
        total = len(report.corpus.samples)
        usable = sum(1 for s in report.corpus.samples if s.usable)
        assert usable >= total - 4  # degenerate shapes may be discarded

    def test_samples_record_expected_output(self, report):
        sample = sample_named(report, "int_add_a_bOPc")
        b, c = sample.values["b"], sample.values["c"]
        assert int(sample.expected_output.strip()) == b + c


class TestHarness:
    def test_main_template_has_the_label_maze(self):
        source = make_main_source("a = b + c;")
        assert source.count("goto Begin") == 3
        assert source.count("goto End") == 3
        assert 'printf("%i\\n", a)' in source

    def test_init_hides_values_from_the_compiler(self):
        source = make_init_source({"a": 1, "b": 313, "c": 109})
        assert "*o = 313" in source
        assert "*p = 109" in source
        # Init also carries the hidden call targets P and P2.
        assert "int P(" in source and "int P2(" in source


class TestMonteCarloValues:
    def test_papers_bad_example_rejected(self):
        # Section 5.2.1: b=2, c=1 lets mul(a,b)=a/b masquerade.
        assert not mc.values_distinct(2, 1, 32, op="*")

    def test_papers_good_example_accepted(self):
        assert mc.values_distinct(34117, 109, 32, op="*") or mc.values_distinct(
            313, 109, 32, op="*"
        )

    def test_degenerate_values_rejected(self):
        assert not mc.values_distinct(0, 5, 32, op="+")
        assert not mc.values_distinct(5, 5, 32, op="+")
        assert not mc.values_distinct(5, 1, 32, op="+")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_chooser_always_finds_distinct_pairs(self, seed):
        rng = random.Random(seed)
        b, c = mc.choose_pair(rng, 32, op="*")
        assert mc.values_distinct(b, c, 32, op="*")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_shift_pairs_have_small_counts(self, seed):
        rng = random.Random(seed)
        b, c = mc.choose_shift_pair(rng, 32)
        assert 2 <= c <= 8
        assert b > 300

    @pytest.mark.parametrize("op", [row.spelling for row in BINARY_ROWS])
    def test_distinctness_separates_the_operator(self, op):
        rng = random.Random(1234)
        constraint = None
        if op in ("/", "%"):
            constraint = lambda x, y: x > y * 3 and x % y != 0
        if op in ("<<", ">>"):
            b, c = mc.choose_shift_pair(rng, 32, op)
        else:
            b, c = mc.choose_pair(rng, 32, constraint=constraint, op=op)
        results = dict(mc._candidate_results(b, c, 32))
        name = operator_spelled(op).stem
        target = results[name]
        clashes = [n for n, v in results.items() if v == target and n != name]
        assert not clashes
