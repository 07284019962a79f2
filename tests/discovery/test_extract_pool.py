"""The process-parallel extraction engine must be invisible in the
output: the discovered description is bit-for-bit identical for any
``--extract-procs`` x ``--workers`` combination, healthy or flaky, memo
on or off.  Only the counters may move.

The full-matrix tests share one probe-cache directory so only the first
run per target pays for remote probing; every later run replays the
cache and spends its time in the CPU phases under test.
"""

import pytest

from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.extract_pool import (
    ExtractionEngine,
    ExtractionStats,
    _split_even,
    partition_shards,
    split_budget,
)
from repro.machines.machine import RemoteMachine


# -- full-run determinism ----------------------------------------------------


_RUNS = {}


def _discover(tmp_cache, target, procs=1, workers=1, memo=True, flaky=0.0):
    key = (target, procs, workers, memo, flaky)
    if key not in _RUNS:
        machine = RemoteMachine(target)
        resilience = None
        if flaky:
            from repro.discovery.resilience import ResilienceConfig
            from repro.machines.faults import FaultyMachine

            machine = FaultyMachine(machine, rate=flaky, seed=0xFA17)
            resilience = ResilienceConfig(votes=3)
        report = ArchitectureDiscovery(
            machine,
            resilience=resilience,
            workers=workers,
            cache=str(tmp_cache),
            extract_procs=procs,
            extract_memo=memo,
        ).run()
        _RUNS[key] = report
    return _RUNS[key]


@pytest.fixture(scope="session")
def probe_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("probe-cache")


@pytest.mark.parametrize("target", ("x86", "sparc"))
@pytest.mark.parametrize("procs", (1, 2, 4))
@pytest.mark.parametrize("workers", (1, 4))
def test_spec_bit_identical_across_procs_and_workers(
    probe_cache, target, procs, workers
):
    baseline = _discover(probe_cache, target).spec.render_beg()
    run = _discover(probe_cache, target, procs=procs, workers=workers)
    assert run.spec.render_beg() == baseline


@pytest.mark.parametrize("target", ("x86", "sparc"))
def test_solved_and_budget_identical_across_procs(probe_cache, target):
    """Beyond the spec bytes: the solve set, interpretation count, and
    budget spend must not depend on the process count."""
    one = _discover(probe_cache, target)
    four = _discover(probe_cache, target, procs=4)
    assert sorted(four.extraction.solved) == sorted(one.extraction.solved)
    assert four.extraction.interpretations_tried == one.extraction.interpretations_tried
    assert four.extraction_stats.budget_spent == one.extraction_stats.budget_spent
    assert four.extraction_stats.budget_total == one.extraction_stats.budget_total


def test_spec_identical_under_faults(probe_cache):
    """One flaky leg: a lossy target with retries and execution voting
    still converges to the same bytes at procs=2, workers=4."""
    baseline = _discover(probe_cache, "sparc").spec.render_beg()
    flaky = _discover(probe_cache, "sparc", procs=2, workers=4, flaky=0.1)
    assert flaky.spec.render_beg() == baseline


def test_memo_toggle_changes_only_counters(probe_cache):
    on = _discover(probe_cache, "sparc", procs=2)
    off = _discover(probe_cache, "sparc", procs=2, memo=False)
    assert off.spec.render_beg() == on.spec.render_beg()
    assert on.extraction_stats.memo_enabled is True
    assert off.extraction_stats.memo_enabled is False
    assert off.extraction_stats.memo_hits == 0
    assert off.extraction_stats.memo_misses == 0
    assert (
        on.extraction_stats.memo_hits + on.extraction_stats.memo_misses
    ) > 0


def test_memo_hits_nonzero_on_vax(probe_cache):
    """vax's revisions ask again for shapes already enumerated; the memo
    must show it."""
    run = _discover(probe_cache, "vax", procs=2)
    assert run.extraction_stats.memo_hits > 0
    assert 0.0 < run.extraction_stats.memo_hit_rate <= 1.0


def test_stats_surface_in_summary_and_report(probe_cache):
    run = _discover(probe_cache, "x86", procs=2)
    extraction = run.summary()["extraction"]
    assert extraction == run.extraction_stats.as_dict()
    assert extraction["procs"] == 2
    assert extraction["shards"] == run.extraction_stats.shards
    assert extraction["shards"] == len(extraction["shard_sizes"])
    assert extraction["budget_spent"] == run.extraction_stats.budget_spent
    assert (
        extraction["budget_spent"] + extraction["budget_unspent"]
        == run.extraction_stats.budget_total
    )
    assert (
        extraction["dispatched_shards"] + extraction["inline_shards"]
        == extraction["shards"]
    )


def test_phase_timings_recorded(probe_cache):
    run = _discover(probe_cache, "x86")
    timings = run.phase_timings
    for phase in ("graph matching", "reverse interpretation"):
        assert phase in timings
        assert timings[phase]["wall_s"] >= 0.0
        assert timings[phase]["cpu_s"] >= 0.0
        assert timings[phase]["verbs"] == 0  # pure CPU: no target contact


# -- the shard-level budget --------------------------------------------------


#: too small for x86's giant shard, whose search spends 3,738 at 60,000
TIGHT_BUDGET = 1_000


def _extract_again(report, procs, budget):
    """Extract a finished report's corpus again, as discovery does.
    Returns the result, the counters and each failed sample's discard
    reason; every sample's ``discarded`` is restored afterwards."""
    saved = {s.name: s.discarded for s in report.corpus.samples}
    engine = ExtractionEngine(procs=procs)
    try:
        engine.prepare(report.corpus, report.addr_map, report.enquire.word_bits)
        result = engine.extract(engine.graph_roles(), budget=budget)
        reasons = {
            s.name: s.discarded for s in report.corpus.samples if s.name in result.failed
        }
    finally:
        engine.close()
        for sample in report.corpus.samples:
            sample.discarded = saved[sample.name]
    return result, engine.stats, reasons


def test_budget_binds_at_shard_level(x86_report):
    """An exhausted shard budget fails the samples it could not reach:
    the spend never passes the total, each failed sample is discarded
    for it, and the outcome does not depend on the process count."""
    runs = {}
    for procs in (1, 2):
        result, stats, reasons = _extract_again(x86_report, procs, TIGHT_BUDGET)
        assert stats.budget_total == TIGHT_BUDGET
        assert stats.budget_spent <= TIGHT_BUDGET
        # the largest shard ran dry: it spent its whole share
        assert stats.budget_spent >= max(split_budget(TIGHT_BUDGET, stats.shard_sizes))
        assert result.failed, "the budget never bound"
        assert set(reasons) == set(result.failed)
        assert set(reasons.values()) == {
            "reverse interpretation found no consistent semantics"
        }
        runs[procs] = (result.solved, result.failed, stats.budget_spent)
    assert runs[1] == runs[2]


# -- sharding unit tests -----------------------------------------------------


class _FakeInstr:
    def __init__(self, sig):
        self.mnemonic = sig
        self._sig = sig
        self.operands = []

    def signature(self):
        return self._sig


class _FakeSample:
    def __init__(self, name, sigs):
        self.name = name
        self.region = [_FakeInstr(sig) for sig in sigs]


class TestPartitionShards:
    def test_disjoint_samples_get_own_shards(self):
        samples = [
            _FakeSample("a", ["add"]),
            _FakeSample("b", ["sub"]),
            _FakeSample("c", ["mul"]),
        ]
        shards = partition_shards(samples)
        assert [[s.name for s in shard] for shard in shards] == [
            ["a"], ["b"], ["c"],
        ]

    def test_shared_key_joins_shards(self):
        samples = [
            _FakeSample("a", ["add", "mov"]),
            _FakeSample("b", ["sub"]),
            _FakeSample("c", ["mov", "mul"]),  # shares "mov" with a
        ]
        shards = partition_shards(samples)
        assert [[s.name for s in shard] for shard in shards] == [
            ["a", "c"], ["b"],
        ]

    def test_transitive_connectivity(self):
        samples = [
            _FakeSample("a", ["x"]),
            _FakeSample("b", ["x", "y"]),
            _FakeSample("c", ["y", "z"]),
            _FakeSample("d", ["q"]),
        ]
        shards = partition_shards(samples)
        assert [[s.name for s in shard] for shard in shards] == [
            ["a", "b", "c"], ["d"],
        ]

    def test_order_is_first_corpus_position(self):
        samples = [
            _FakeSample("late-key", ["zzz"]),
            _FakeSample("early-key", ["aaa"]),
        ]
        shards = partition_shards(samples)
        # Corpus position, not key value, orders the shards.
        assert [shard[0].name for shard in shards] == ["late-key", "early-key"]

    def test_empty(self):
        assert partition_shards([]) == []


class TestSplitBudget:
    def test_sums_to_total(self):
        shares = split_budget(1000, [3, 1, 1])
        assert sum(shares) == 1000

    def test_proportional(self):
        assert split_budget(100, [3, 1]) == [75, 25]

    def test_remainder_to_earliest(self):
        shares = split_budget(10, [1, 1, 1])
        assert shares == [4, 3, 3]
        assert sum(shares) == 10

    def test_empty_and_zero(self):
        assert split_budget(100, []) == []
        assert split_budget(100, [0, 0]) == []


class TestSplitEven:
    def test_contiguous_and_complete(self):
        items = list(range(10))
        batches = _split_even(items, 3)
        assert [len(b) for b in batches] == [4, 3, 3]
        assert [x for batch in batches for x in batch] == items

    def test_more_parts_than_items(self):
        assert _split_even([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert _split_even([], 4) == []


def test_stats_defaults_and_rates():
    stats = ExtractionStats()
    assert stats.memo_hit_rate == 0.0
    assert stats.budget_unspent == 0
    stats.memo_hits, stats.memo_misses = 3, 1
    stats.budget_total, stats.budget_spent = 100, 40
    assert stats.memo_hit_rate == 0.75
    assert stats.budget_unspent == 60
    rendered = stats.as_dict()
    assert rendered["memo_hit_rate"] == 0.75
    assert rendered["budget_unspent"] == 60
