"""T4 + E6/E7/E8/E9: mutation-analysis cost accounting.

The paper: "a complete analysis of a new architecture can take a long
time (several hours ...)" dominated by remote executions.  These
benchmarks measure each preprocessing pass and report the number of
target executions it consumes (the 1997 bottleneck currency).
"""

import pytest

from benchmarks.conftest import TARGETS, fresh_engine, front_pipeline

from repro.discovery.preprocess import Preprocessor


def _fresh_sample(corpus, name):
    """Return the sample with its region restored to the as-extracted
    state (benchmark rounds would otherwise see each other's edits)."""
    for sample in corpus.samples:
        if sample.name == name and sample.usable:
            if not hasattr(sample, "_pristine_region"):
                sample._pristine_region = [i.clone() for i in sample.region]
            sample.region = [i.clone() for i in sample._pristine_region]
            return sample
    raise LookupError(name)


@pytest.mark.parametrize("target", TARGETS)
def test_preprocess_one_arithmetic_sample(benchmark, target):
    machine, _syntax, corpus = front_pipeline(target)

    def setup():
        sample = _fresh_sample(corpus, "int_add_a_bOPc")
        sample.region = [i.clone() for i in sample.region]
        engine = fresh_engine(corpus, target)
        return (Preprocessor(engine), sample, engine, machine.stats.executions), {}

    def run(preprocessor, sample, engine, execs_before):
        preprocessor.process(sample)
        return machine.stats.executions - execs_before

    executions = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["target_executions"] = executions
    assert executions > 10


def test_e6_redundant_elimination_alpha_shift(benchmark):
    """Figure 6 on the Figure 4(d) sample: the Alpha's superfluous
    ``addl $n,0,$n`` must be deleted, under full register clobbering."""
    machine, _syntax, corpus = front_pipeline("alpha")
    del machine

    def setup():
        sample = _fresh_sample(corpus, "int_shl_a_bOPc")
        sample.region = [i.clone() for i in sample.region]
        engine = fresh_engine(corpus, "alpha")
        preprocessor = Preprocessor(engine)
        from repro.discovery.preprocess import RegionInfo

        info = RegionInfo()
        info.call_like = []
        sample.info = info
        sample.region_original = [i.clone() for i in sample.region]
        return (preprocessor, sample, info), {}

    def run(preprocessor, sample, info):
        preprocessor._eliminate_redundant(sample, info)
        return info.removed

    removed = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert any("addl" in text for text in removed)


def test_e8_implicit_argument_detection_x86_div(benchmark):
    """Figure 8: %eax is implicated in the cltd/idivl pair."""
    machine, _syntax, corpus = front_pipeline("x86")
    del machine

    def setup():
        sample = _fresh_sample(corpus, "int_div_a_bOPc")
        sample.region = [i.clone() for i in sample.region]
        engine = fresh_engine(corpus, "x86")
        preprocessor = Preprocessor(engine)
        from repro.discovery.preprocess import RegionInfo

        info = RegionInfo()
        info.call_like = preprocessor._find_call_like(
            sample, preprocessor._outside_labels(sample)
        )
        sample.info = info
        sample.region_original = [i.clone() for i in sample.region]
        preprocessor._split_live_ranges(sample, info)
        return (preprocessor, sample, info), {}

    def run(preprocessor, sample, info):
        preprocessor._implicit_arguments(sample, info)
        return info.dependent_regs

    dependent = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert "%eax" in dependent


def test_e9_defuse_x86_imull(benchmark):
    """Figure 9: classify the imull destination as use-def."""
    machine, _syntax, corpus = front_pipeline("x86")
    del machine

    def setup():
        sample = _fresh_sample(corpus, "int_mul_a_bOPc")
        sample.region = [i.clone() for i in sample.region]
        engine = fresh_engine(corpus, "x86")
        preprocessor = Preprocessor(engine)
        from repro.discovery.preprocess import RegionInfo

        info = RegionInfo()
        info.call_like = []
        sample.info = info
        sample.region_original = [i.clone() for i in sample.region]
        preprocessor._split_live_ranges(sample, info)
        return (preprocessor, sample, info), {}

    def run(preprocessor, sample, info):
        preprocessor._def_use(sample, info)
        return info.visible_kinds

    kinds = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert "usedef" in kinds.values()
