"""CLI surface of the spec verifier: the ``verify-spec`` verb, the
``--diff`` differential mode over run directories, the ``--jobs``
fan-out (deterministic, target-ordered merge), atomic ``--out``
writing, and ``discover --verify`` report wiring."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.discovery.driver import DiscoveryCheckpoint, DiscoveryReport
from repro.discovery.durable import DurableRun
from tests.discovery.conftest import discovery_report


def _run_dir_with_spec(tmp_path, name, spec):
    """A synthesized durable run directory holding one committed
    checkpoint whose report carries *spec*."""
    run = DurableRun.attach(str(tmp_path / name), {"target": spec.target})
    report = DiscoveryReport(target=spec.target, spec=spec)
    run.commit(DiscoveryCheckpoint(spec.target, [], report, {}))
    return str(tmp_path / name)


class TestVerifySpecCli:
    def test_single_target_clean(self, capsys):
        assert main(["verify-spec", "x86"]) == 0
        captured = capsys.readouterr()
        assert "obligations" in captured.err
        assert "0 refuted" in captured.err

    def test_json_format(self, capsys):
        assert main(["verify-spec", "vax", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0

    def test_unknown_target_rejected(self, capsys):
        assert main(["verify-spec", "pdp11"]) == 2

    def test_fail_on_warning_tolerates_infos(self, capsys):
        # SPEC105 sampling notes are info-severity; they must not trip
        # even the strictest threshold below "never"
        assert main(["verify-spec", "vax", "--fail-on", "warning"]) == 0


class TestJobsFanOut:
    def test_parallel_output_matches_serial(self, capsys):
        assert main(["verify-spec", "vax", "m68k", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["verify-spec", "vax", "m68k", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_lint_jobs_matches_serial(self, capsys):
        assert main(["lint", "vax", "m68k", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["lint", "vax", "m68k", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestAtomicOut:
    def test_out_flag_writes_atomically(self, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        assert (
            main(["verify-spec", "vax", "--format", "sarif", "--out", str(out)])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert not list(tmp_path.glob("*.tmp"))


class TestDiffMode:
    @pytest.fixture(scope="class")
    def spec(self):
        return discovery_report("x86").spec

    def test_same_spec_passes(self, tmp_path, spec, capsys):
        run_a = _run_dir_with_spec(tmp_path, "a", copy.deepcopy(spec))
        run_b = _run_dir_with_spec(tmp_path, "b", copy.deepcopy(spec))
        assert main(["verify-spec", "--diff", run_a, run_b]) == 0

    def test_perturbed_pair_flagged(self, tmp_path, spec, capsys):
        spec_b = copy.deepcopy(spec)
        spec_b.rules["Plus"].instrs = copy.deepcopy(spec_b.rules["Minus"].instrs)
        run_a = _run_dir_with_spec(tmp_path, "a", copy.deepcopy(spec))
        run_b = _run_dir_with_spec(tmp_path, "b", spec_b)
        assert main(["verify-spec", "--diff", run_a, run_b]) == 1
        out = capsys.readouterr().out
        assert "SPEC110" in out

    def test_mismatched_targets_rejected(self, tmp_path, spec, capsys):
        other = copy.deepcopy(discovery_report("vax").spec)
        run_a = _run_dir_with_spec(tmp_path, "a", copy.deepcopy(spec))
        run_b = _run_dir_with_spec(tmp_path, "b", other)
        assert main(["verify-spec", "--diff", run_a, run_b]) == 2


class TestDiscoverVerify:
    def test_summary_carries_verify_counts(self, tmp_path, capsys):
        assert main(["discover", "vax", "--verify", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "vax.summary.json").read_text())
        assert summary["verify_refuted"] == 0
        assert summary["verify_proven"] > 0
