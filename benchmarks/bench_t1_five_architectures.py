"""T1: full architecture discovery on all five targets (the paper's
section 7.2 claim: the system discovers the integer instruction sets of
the SPARC, Alpha, MIPS, VAX and x86 and emits (almost) correct machine
descriptions).

The benchmark value is the wall-clock cost of one complete discovery;
``extra_info`` carries the headline counts that EXPERIMENTS.md tabulates.
"""

from benchmarks.conftest import TARGETS, full_report

from repro.machines.machine import RemoteMachine
from repro.discovery.driver import ArchitectureDiscovery


def _discover(target):
    return ArchitectureDiscovery(RemoteMachine(target)).run()


def bench_factory(target):
    def bench(benchmark):
        report = benchmark.pedantic(
            _discover, args=(target,), rounds=1, iterations=1, warmup_rounds=0
        )
        summary = report.summary()
        benchmark.extra_info.update(summary)
        assert summary["instructions_discovered"] >= 20
        assert len(summary["branch_rules"]) == 6

    bench.__name__ = f"test_full_discovery_{target}"
    return bench


for _target in TARGETS:
    globals()[f"test_full_discovery_{_target}"] = bench_factory(_target)


def test_discovery_report_table(benchmark):
    """Render the cross-architecture summary table (EXPERIMENTS.md T1)."""

    def render():
        rows = []
        for target in TARGETS:
            summary = full_report(target).summary()
            rows.append(
                f"{target:6s} {summary['word']:22s} "
                f"instrs={summary['instructions_discovered']:3d} "
                f"samples={summary['samples']:16s} "
                f"execs={summary['machine']['executions']}"
            )
        return "\n".join(rows)

    table = benchmark(render)
    benchmark.extra_info["table"] = table
    assert table.count("\n") == len(TARGETS) - 1
