"""E12 (paper Figures 12/13): reverse interpretation throughput."""

import pytest

from benchmarks.conftest import TARGETS, extract_again, full_report

from repro.discovery.driver import RI_BUDGET
from repro.discovery.reverse_interp import check_sample, interpret_region


@pytest.mark.parametrize("target", TARGETS)
def test_extract_all_semantics(benchmark, target):
    """The whole extraction phase, from preprocessed samples, through the
    engine discovery runs (graph matching included)."""
    report = full_report(target)
    result = benchmark.pedantic(
        extract_again, args=(report, RI_BUDGET), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["interpretations"] = result.interpretations_tried
    benchmark.extra_info["instructions"] = len(result.semantics)
    assert len(result.semantics) >= 20


@pytest.mark.parametrize("target", TARGETS)
def test_interpret_one_region(benchmark, target):
    """Forward interpretation of one sample region (the inner loop of
    the search)."""
    report = full_report(target)
    sem = report.extraction.effects_map()
    sample = next(
        s for s in report.corpus.usable_samples() if s.name == "int_mul_a_bOPc"
    )
    bits = report.enquire.word_bits

    state = benchmark(interpret_region, sample, sem, report.addr_map, bits)
    assert ("var", "a") in state.mem


def test_check_sample_throughput(benchmark):
    report = full_report("mips")
    sem = report.extraction.effects_map()
    samples = [
        s
        for s in report.corpus.usable_samples()
        if s.kind in ("binary", "unary", "literal", "copy")
    ][:40]

    def run():
        return sum(
            1
            for s in samples
            if check_sample(s, sem, report.addr_map, report.enquire.word_bits)
        )

    passed = benchmark(run)
    assert passed >= len(samples) - 2
