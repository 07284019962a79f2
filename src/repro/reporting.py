"""Write discovery artifacts to disk.

The paper's system produced documentation as it went ("all the graph
drawings shown in this paper were generated automatically as part of the
documentation produced by the architecture discovery system").  This
module renders a report directory: the BEG-style machine description,
the instruction-semantics table, data-flow graphs in DOT, and a JSON
summary suitable for the EXPERIMENTS.md tables: the report's own
``summary()`` plus the description's ``spec`` summary.
"""

from __future__ import annotations

import json
import pathlib

from repro.discovery.dfg import build_dfg


def write_report(report, directory):
    """Write all artifacts for one DiscoveryReport; returns the paths."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    spec_path = out / f"{report.target}.beg"
    spec_path.write_text(report.spec.render_beg() + "\n")
    written.append(spec_path)

    sem_path = out / f"{report.target}.semantics.txt"
    lines = [f"# discovered instruction semantics: {report.target}"]
    for key, op_sem in sorted(report.extraction.semantics.items()):
        lines.append(f"{key:48s} {op_sem.render()}   (tries={op_sem.tries})")
    sem_path.write_text("\n".join(lines) + "\n")
    written.append(sem_path)

    summary_path = out / f"{report.target}.summary.json"
    summary = report.summary()
    summary["spec"] = report.spec.summary()
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    written.append(summary_path)

    if report.diagnostics is not None:
        from repro.analysis.formats import render

        lint_path = out / f"{report.target}.lint.txt"
        lint_path.write_text(render(report.diagnostics, "text") + "\n")
        written.append(lint_path)

    dot_dir = out / "dfg"
    dot_dir.mkdir(exist_ok=True)
    for sample in report.corpus.usable_samples():
        if sample.kind != "binary" or getattr(sample, "info", None) is None:
            continue
        if not sample.shape == "a=b@c":
            continue
        graph = build_dfg(sample, report.addr_map)
        path = dot_dir / f"{report.target}_{sample.name}.dot"
        path.write_text(graph.to_dot(sample.name) + "\n")
        written.append(path)

    syntax_path = out / f"{report.target}.syntax.txt"
    syntax_path.write_text(report.syntax.describe() + "\n")
    written.append(syntax_path)
    return written
