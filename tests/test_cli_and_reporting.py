"""The command-line interface and the artifact writer."""

import json

import pytest

from repro.__main__ import main
from repro.discovery.driver import ArchitectureDiscovery
from repro.reporting import write_report
from tests.discovery.conftest import discovery_report

#: flat copies of counters (and timing copies) summary.json used to hold
REMOVED_SUMMARY_KEYS = {
    "target_executions", "quarantined_samples", "retried_calls",
    "transient_errors", "vote_runs", "faults_injected", "workers",
    "parallel_tasks", "max_in_flight", "cache_hits", "cache_misses",
    "cache_hit_rate", "cache_evictions", "cache_corrupt_entries",
    "extract_procs", "extract_shards", "extract_dispatched_shards",
    "hypothesis_memo_hits", "hypothesis_memo_hit_rate", "ri_budget_spent",
    "ri_budget_unspent", "resilience", "phases",
}


class TestCli:
    def test_targets(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        for name in ("x86", "mips", "sparc", "alpha", "vax"):
            assert name in out
        assert "kea.cs.auckland.ac.nz" in out  # the paper's example host

    def test_run_program(self, tmp_path, capsys):
        program = tmp_path / "p.a"
        program.write_text("var x; x := 313 * 109; print x;")
        assert main(["run", "mips", "--program", str(program)]) == 0
        assert capsys.readouterr().out == "34117\n"

    def test_run_emit_asm(self, tmp_path, capsys):
        program = tmp_path / "p.a"
        program.write_text("print 7;")
        assert main(["run", "vax", "--program", str(program), "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert ".globl main" in out
        assert "calls" in out  # the discovered VAX call idiom

    def test_retarget_validates(self, tmp_path, capsys):
        program = tmp_path / "p.a"
        program.write_text("var i; i := 0; while i < 3 do print i; i := i + 1; end")
        assert main(["retarget", "alpha", "--program", str(program)]) == 0
        out = capsys.readouterr().out
        assert "0\n1\n2\n" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["discover", "pdp11"])


class TestLintCli:
    def test_lint_target_clean(self, capsys):
        assert main(["lint", "x86"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_lint_warning_clean_all_targets(self, capsys):
        # Every discovered description lints clean, even under the
        # strictest gate; the historical MIPS SPEC033 cost ties are
        # resolved by the synthesiser's deterministic tie-break.
        assert main(["lint", "mips", "--fail-on", "warning"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "mips", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0
        assert payload["findings"] == []

    def test_lint_source_sarif_to_file(self, tmp_path, capsys):
        bad = tmp_path / "probe.py"
        bad.write_text("import time\nstamp = time.time()\n")
        out_file = tmp_path / "lint.sarif"
        status = main(
            [
                "lint",
                "--source",
                str(bad),
                "--format",
                "sarif",
                "--out",
                str(out_file),
            ]
        )
        assert status == 1  # DET003 is an error
        sarif = json.loads(out_file.read_text())
        results = sarif["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["DET003"]
        region = results[0]["locations"][0]["physicalLocation"]
        assert region["region"]["startLine"] == 2

    def test_lint_fail_on_never(self, tmp_path):
        bad = tmp_path / "probe.py"
        bad.write_text("import random\nrandom.shuffle([])\n")
        assert main(["lint", "--source", str(bad), "--fail-on", "never"]) == 0

    def test_lint_rejects_bad_format(self):
        with pytest.raises(SystemExit):
            main(["lint", "x86", "--format", "xml"])


class TestReporting:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        report = discovery_report("mips")
        directory = tmp_path_factory.mktemp("report")
        return directory, write_report(report, directory)

    def test_beg_spec_written(self, artifacts):
        directory, written = artifacts
        spec = (directory / "mips.beg").read_text()
        assert "RULE Mult" in spec

    def test_semantics_table_written(self, artifacts):
        directory, _written = artifacts
        text = (directory / "mips.semantics.txt").read_text()
        assert "mul(r,r,r)" in text

    def test_summary_json(self, artifacts):
        directory, _written = artifacts
        summary = json.loads((directory / "mips.summary.json").read_text())
        assert summary["target"] == "mips"
        assert "mutation analysis" in summary["phase_timings"]

    def test_summary_json_holds_each_number_once(self, artifacts):
        directory, _written = artifacts
        summary = json.loads((directory / "mips.summary.json").read_text())
        report = discovery_report("mips")
        assert not REMOVED_SUMMARY_KEYS & set(summary)
        assert "phase_timings" not in summary["spec"]
        # one timing entry per completed phase, each carrying its verbs
        phases = [name for name, _ in ArchitectureDiscovery.PHASES]
        assert list(summary["phase_timings"]) == phases
        assert [t.name for t in report.timings] == phases
        assert all(
            set(entry) == {"wall_s", "cpu_s", "verbs"}
            for entry in summary["phase_timings"].values()
        )
        # each counter block is its stats object's as_dict(), nothing else
        assert summary["machine"] == report.machine_stats.as_dict()
        assert summary["retry"] == report.retry_stats.as_dict()
        assert summary["scheduler"] == report.scheduler_stats.as_dict()
        assert summary["extraction"] == report.extraction_stats.as_dict()
        assert summary["probe"] == report.probe_log.as_dict()
        assert "phase_seconds" not in summary["scheduler"]
        assert set(summary["mutation"]) == {"attempted", "succeeded", "runs"}
        assert "fault" not in summary and "cache" not in summary
        assert summary["quarantined"] == report.quarantined == []

    def test_dfg_dot_files(self, artifacts):
        directory, _written = artifacts
        dots = list((directory / "dfg").glob("*.dot"))
        assert len(dots) >= 8
        assert any("mul" in p.name for p in dots)

    def test_syntax_description(self, artifacts):
        directory, _written = artifacts
        text = (directory / "mips.syntax.txt").read_text()
        assert "comment character" in text
        assert "$sp" in text

    def test_lint_artifacts_written(self, artifacts):
        directory, written = artifacts
        lint_path = directory / "mips.lint.txt"
        assert lint_path in written
        assert "0 findings" in lint_path.read_text()
        summary = json.loads((directory / "mips.summary.json").read_text())
        assert summary["lint_errors"] == 0
        assert summary["lint_warnings"] == 0
        diagnostics = summary["spec"]["diagnostics"]
        assert diagnostics["entries"] == []
