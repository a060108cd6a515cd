"""Tests for the ``repro lint`` driver: exit codes, reports, audit CSV.

The two acceptance paths: a clean tree lints with exit code 0 and
visible certification lines; the seeded mutants lint nonzero with
witness configurations in the report.
"""

import csv
import os
import subprocess
import sys

import pytest

from repro.statics.findings import Severity
from repro.statics.lint import (
    MUTANT_NAMES,
    all_target_names,
    default_target_names,
    main as lint_main,
    run_lint,
    write_audit_csv,
)


class TestTargetRegistry:
    def test_mutants_excluded_from_default(self):
        defaults = default_target_names()
        for name in MUTANT_NAMES:
            assert name not in defaults
            assert name in all_target_names()

    def test_paper_protocols_in_default(self):
        defaults = default_target_names()
        assert "SilentNStateSSR" in defaults
        assert "OptimalSilentSSR" in defaults


class TestCleanRun:
    def test_certifies_the_paper_protocols(self):
        result = run_lint(["SilentNStateSSR"])
        assert result.ok
        assert result.checked == ["SilentNStateSSR"]
        certified = [
            f
            for f in result.findings
            if f.severity is Severity.INFO and "certified" in f.message
        ]
        rules = {f.rule_id for f in certified}
        # n=2,3,4, each certifying all five rules.
        assert {"closure", "determinism", "silence", "stabilization"} <= rules
        for n in (2, 3, 4):
            assert any(f.message.startswith(f"n={n}:") for f in certified)

    def test_exit_code_zero(self, tmp_path, capsys):
        code = lint_main(
            ["SilentNStateSSR"],
            audit_states=True,
            audit_path=str(tmp_path / "audit.csv"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro lint report" in out
        assert "State-count audit" in out


class TestMutantRun:
    def test_broken_mutants_fail_with_witnesses(self):
        result = run_lint(list(MUTANT_NAMES))
        assert not result.ok
        errors = [f for f in result.findings if f.severity is Severity.ERROR]
        assert errors
        rules = {f.rule_id for f in errors}
        assert "closure" in rules  # domain escape caught by the model checker
        assert "state-aliasing" in rules  # shared scratch caught by the sanitizer
        assert "hidden-nondeterminism" in rules or "determinism" in rules
        # At least one error carries a witness configuration.
        assert any(f.witness for f in errors)

    def test_exit_code_nonzero(self, capsys):
        code = lint_main(list(MUTANT_NAMES))
        assert code == 1
        out = capsys.readouterr().out
        assert "error finding(s)" in out
        assert "Witnesses" in out

    def test_unknown_protocol_is_an_error(self):
        result = run_lint(["NoSuchProtocol"])
        assert not result.ok
        assert result.findings[0].rule_id == "unknown-protocol"


class TestSilentClassContract:
    """``silent_class`` must return ``None`` or an int in ``0..n``: the
    count engine indexes an array of ``n + 1`` class members by it."""

    @staticmethod
    def _silent_class_findings(protocol):
        from repro.statics.lint import LintTarget, _fault_model_findings
        from repro.statics.schema import schema_for

        target = LintTarget(name=type(protocol).__name__, factory=type(protocol))
        findings = _fault_model_findings(target, protocol, schema_for(protocol))
        return [f for f in findings if f.rule_id == "silent-class-soundness"]

    def test_shipped_classes_are_certified(self):
        from repro.protocols.cai_izumi_wada import SilentNStateSSR

        (finding,) = self._silent_class_findings(SilentNStateSSR(4))
        assert finding.severity is Severity.INFO and "certified" in finding.message

    def test_class_outside_the_range_is_an_error(self):
        from repro.protocols.cai_izumi_wada import SilentNStateSSR

        class ShiftedClasses(SilentNStateSSR):
            """Still a sound partition (distinct ranks, distinct classes),
            but the classes run past ``n``."""

            def silent_class(self, state):
                return state + self.n

        (finding,) = self._silent_class_findings(ShiftedClasses(4))
        assert finding.severity is Severity.ERROR
        assert "outside None and 0..4" in finding.message
        assert "-> 5" in finding.witness


class TestAudit:
    def test_audit_rows_match_everywhere(self):
        result = run_lint(
            ["SilentNStateSSR", "OptimalSilentSSR"], audit_states=True
        )
        assert result.ok
        assert len(result.audit_rows) == 6  # two protocols x n=2,3,4
        for row in result.audit_rows:
            assert row["matches"] is True
            assert (
                row["declared_states"]
                == row["protocol_state_count"]
                == row["reference_states"]
            )

    def test_audit_csv_roundtrip(self, tmp_path):
        result = run_lint(["SilentNStateSSR"], audit_states=True)
        path = write_audit_csv(result.audit_rows, str(tmp_path / "audit.csv"))
        assert os.path.exists(path)
        with open(path, encoding="utf8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["protocol"] == "SilentNStateSSR"
        assert rows[0]["matches"] == "True"


@pytest.mark.slow
class TestCliEndToEnd:
    """The real subprocess path: ``python -m repro lint``."""

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )

    def test_mutant_exits_nonzero(self):
        proc = self._run("BrokenRankingSSR")
        assert proc.returncode == 1
        assert "closure" in proc.stdout
        assert "Witnesses" in proc.stdout

    def test_single_clean_protocol_exits_zero(self):
        proc = self._run("SilentNStateSSR")
        assert proc.returncode == 0
