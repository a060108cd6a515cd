"""Tests for the experiment measurement machinery."""

import pytest

from repro.core.rng import make_rng
from repro.experiments.common import (
    ConvergenceOutcome,
    ExperimentReport,
    convergence_times,
    measure_convergence,
    repeat_convergence,
    summarize_outcomes,
)
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestMeasureConvergence:
    def test_silent_protocol_certified_by_silence(self):
        protocol = SilentNStateSSR(6)
        rng = make_rng(1, "mc")
        outcome = measure_convergence(
            protocol, protocol.worst_case_configuration(), rng=rng, max_time=10_000
        )
        assert outcome.converged
        assert outcome.silent_certified
        assert outcome.convergence_time > 0

    def test_already_correct_start(self):
        protocol = SilentNStateSSR(5)
        rng = make_rng(2, "mc")
        outcome = measure_convergence(
            protocol, [0, 1, 2, 3, 4], rng=rng, max_time=100
        )
        assert outcome.converged
        assert outcome.convergence_time == 0.0

    def test_budget_exhaustion_reports_failure(self):
        protocol = SilentNStateSSR(8)
        rng = make_rng(3, "mc")
        outcome = measure_convergence(
            protocol, protocol.worst_case_configuration(), rng=rng, max_time=0.5
        )
        assert not outcome.converged
        assert outcome.convergence_time != outcome.convergence_time  # NaN

    def test_engine_count_certifies_by_silence(self):
        protocol = SilentNStateSSR(6)
        rng = make_rng(5, "mc")
        outcome = measure_convergence(
            protocol,
            protocol.worst_case_configuration(),
            rng=rng,
            max_time=10_000,
            engine="count",
        )
        assert outcome.converged
        assert outcome.silent_certified
        assert outcome.convergence_time > 0

    def test_engine_count_already_correct_start(self):
        protocol = SilentNStateSSR(5)
        rng = make_rng(6, "mc")
        outcome = measure_convergence(
            protocol, [0, 1, 2, 3, 4], rng=rng, max_time=100, engine="count"
        )
        assert outcome.converged
        assert outcome.convergence_time == 0.0
        assert outcome.interactions == 0

    def test_engine_count_budget_exhaustion(self):
        protocol = SilentNStateSSR(8)
        rng = make_rng(7, "mc")
        outcome = measure_convergence(
            protocol,
            protocol.worst_case_configuration(),
            rng=rng,
            max_time=0.5,
            engine="count",
        )
        assert not outcome.converged
        assert outcome.convergence_time != outcome.convergence_time  # NaN

    def test_engine_auto_falls_back_for_lossy_schemas(self):
        # SublinearTimeSSR's history trees are out-of-key, so auto must
        # route to the generic engine rather than raising.
        from repro.protocols.sublinear.protocol import SublinearTimeSSR

        protocol = SublinearTimeSSR(4, h=0)
        rng = make_rng(8, "mc")
        outcome = measure_convergence(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            max_time=40_000.0,
        )
        assert outcome.converged

    def test_engine_matches_distribution_across_engines(self):
        # Same protocol and label family, distinct streams: the two
        # engines' mean stabilization times agree within sampling noise.
        import statistics

        def mean_time(engine, label):
            times = []
            for trial in range(40):
                protocol = SilentNStateSSR(6)
                rng = make_rng(9, label, trial)
                outcome = measure_convergence(
                    protocol,
                    protocol.worst_case_configuration(),
                    rng=rng,
                    max_time=10_000,
                    engine=engine,
                )
                assert outcome.converged
                times.append(outcome.convergence_time)
            return statistics.mean(times)

        generic = mean_time("generic", "eng-gen")
        count = mean_time("count", "eng-count")
        assert count == pytest.approx(generic, rel=0.25)

    def test_unknown_engine_rejected(self):
        protocol = SilentNStateSSR(4)
        with pytest.raises(ValueError):
            measure_convergence(
                protocol,
                [0, 1, 2, 3],
                rng=make_rng(10, "mc"),
                max_time=1.0,
                engine="quantum",
            )

    def test_count_engine_rejects_ineligible_protocol(self):
        """Sync-dictionary SSR keeps fields out of its canonical key, so
        the engine policy refuses to put it on the count engine."""
        protocol = SyncDictionarySSR(6)
        rng = make_rng(10, "mc")
        with pytest.raises(ValueError):
            measure_convergence(
                protocol,
                protocol.initial_configuration(rng),
                rng=rng,
                max_time=1.0,
                engine="count",
            )

    def test_confirmation_window_path(self):
        # A non-silent protocol cannot be certified by silence, so the
        # streak-confirm branch decides.
        protocol = SyncDictionarySSR(5)
        rng = make_rng(4, "mc")
        outcome = measure_convergence(
            protocol,
            protocol.initial_configuration(rng),
            rng=rng,
            max_time=50_000,
            confirm_time=5.0,
        )
        assert outcome.converged
        assert not outcome.silent_certified


class TestRepeatConvergence:
    def test_trials_independent_and_summarizable(self):
        outcomes = repeat_convergence(
            make_protocol=lambda: SilentNStateSSR(6),
            make_states=lambda p, rng: p.worst_case_configuration(),
            seed=5,
            label="t",
            trials=4,
            max_time=10_000,
        )
        assert len(outcomes) == 4
        summary = summarize_outcomes(outcomes)
        assert summary.count == 4
        assert summary.mean > 0

    def test_convergence_times_raises_on_failures(self):
        bad = [
            ConvergenceOutcome(
                n=4,
                converged=False,
                convergence_time=float("nan"),
                interactions=10,
                silent_certified=False,
                regressions=0,
            )
        ]
        with pytest.raises(RuntimeError):
            convergence_times(bad)


class TestExperimentReport:
    def test_checks_and_all_passed(self):
        report = ExperimentReport("x", "Title", columns=["a"])
        report.add_check("good", passed=True, measured=1, expected="1")
        assert report.all_passed
        report.add_check("bad", passed=False, measured=2, expected="1")
        assert not report.all_passed
        assert "FAIL" in str(report.checks["bad"])

    def test_render_markdown_contains_rows_and_checks(self):
        report = ExperimentReport("x", "My Title", columns=["n", "time"])
        report.add_row(n=8, time=1.5)
        report.add_check("shape", passed=True, measured=1.0, expected="~1")
        report.notes.append("a note")
        text = report.render_markdown()
        assert "## My Title" in text
        assert "| n | time |" in text
        assert "| 8 | 1.5 |" in text
        assert "shape" in text and "PASS" in text
        assert "a note" in text
