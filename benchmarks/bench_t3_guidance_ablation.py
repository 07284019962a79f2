"""T3: the likelihood-guidance ablation (paper section 5.2.2).

"Any number of heuristic search methods can be used ... the current
implementation is based on a probabilistic best-first search" guided by
L(S,I,R).  The ablation runs the same extraction with the likelihood
model replaced by blind shortest-first enumeration and compares the
number of interpretations tried.
"""

import pytest

from benchmarks.conftest import extract_again, full_report

#: targets whose search-space shapes differ most
ABLATION_TARGETS = ("mips", "vax")

#: interpretations each arm may spend, across all shards
BUDGET = 120_000


def _extract(report, use_likelihood):
    return extract_again(report, BUDGET, use_likelihood=use_likelihood)


@pytest.mark.parametrize("target", ABLATION_TARGETS)
def test_guided_search(benchmark, target):
    report = full_report(target)
    result = benchmark.pedantic(
        _extract, args=(report, True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["interpretations"] = result.interpretations_tried
    benchmark.extra_info["failed_samples"] = len(result.failed)
    assert len(result.semantics) >= 15


@pytest.mark.parametrize("target", ABLATION_TARGETS)
def test_unguided_search(benchmark, target):
    report = full_report(target)
    result = benchmark.pedantic(
        _extract, args=(report, False), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["interpretations"] = result.interpretations_tried
    benchmark.extra_info["failed_samples"] = len(result.failed)
    # Blind search still terminates (budgeted) but may discard more.
    assert result.interpretations_tried > 0


def test_guidance_reduces_search_effort(benchmark):
    """Direct comparison on the MIPS: guided vs unguided interpretations."""
    report = full_report("mips")

    def run():
        guided = _extract(report, True)
        unguided = _extract(report, False)
        return guided.interpretations_tried, unguided.interpretations_tried

    guided_tried, unguided_tried = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["guided"] = guided_tried
    benchmark.extra_info["unguided"] = unguided_tried
    assert guided_tried <= unguided_tried
