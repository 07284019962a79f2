#!/usr/bin/env python3
"""Discover all five architectures and print the cross-machine table.

    python examples/architecture_report.py [--dot DIR]

Reproduces the paper's section 7.2 evaluation scope: the integer
instruction sets of the Sun SPARC, Digital Alpha, MIPS, DEC VAX and
Intel x86, each yielding an (almost) correct machine description.  With
``--dot DIR`` the data-flow graphs of the Figure 10 samples are written
as Graphviz files ("all the graph drawings shown in this paper were
generated automatically", section 4.6).
"""

import sys

sys.path.insert(0, "src")

from repro.machines.machine import RemoteMachine, target_names
from repro.discovery.dfg import build_dfg
from repro.discovery.driver import ArchitectureDiscovery


def main():
    dot_dir = None
    if "--dot" in sys.argv:
        dot_dir = sys.argv[sys.argv.index("--dot") + 1]

    reports = {}
    for target in target_names():
        print(f"discovering {target}...", flush=True)
        reports[target] = ArchitectureDiscovery(RemoteMachine(target)).run()

    header = (
        f"{'target':7s} {'word':17s} {'regs':>5s} {'instrs':>7s} "
        f"{'samples':>9s} {'interp':>7s} {'execs':>6s} {'secs':>6s}"
    )
    print()
    print(header)
    print("-" * len(header))
    for target, report in reports.items():
        summary = report.summary()
        usable = summary["samples"].split("/")[0]
        print(
            f"{target:7s} {summary['word']:17s} "
            f"{summary['registers_discovered']:5d} "
            f"{summary['instructions_discovered']:7d} "
            f"{usable:>9s} "
            f"{summary['interpretations_tried']:7d} "
            f"{summary['machine']['executions']:6d} "
            f"{summary['total_seconds']:6.1f}"
        )

    print()
    print("per-target rule inventory:")
    for target, report in reports.items():
        spec = report.spec
        print(
            f"  {target:6s} rules={len(spec.rules):2d} imm-rules={len(spec.imm_rules):2d} "
            f"branch={len(spec.branch.rules)} chain={len(spec.chain_rules)} "
            f"allocatable={len(spec.allocatable):2d}  call: {spec.call.describe()}"
        )

    if dot_dir:
        import pathlib

        out = pathlib.Path(dot_dir)
        out.mkdir(parents=True, exist_ok=True)
        for target, sample_name in (("mips", "int_mul_a_bOPc"), ("x86", "int_div_a_bOPc")):
            report = reports[target]
            sample = next(
                s for s in report.corpus.samples if s.name == sample_name
            )
            graph = build_dfg(sample, report.addr_map)
            path = out / f"fig10_{target}_{sample_name}.dot"
            path.write_text(graph.to_dot(f"{target}_{sample_name}"))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
