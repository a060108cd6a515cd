"""Tests for the experiment runners and the CLI.

Heavy measurement sweeps run in the benchmarks; here each runner is
exercised in quick mode (marked slow where that still takes seconds)
plus unit tests of their pure helpers.
"""

import pytest

from repro.core.rng import make_rng
from repro.experiments import figure2
from repro.experiments.cli import main
from repro.experiments.figure1 import (
    is_parent_closed,
    open_slots,
    ranking_phase_configuration,
    render_tree,
    settled_ranks,
)
from repro.experiments.figure2 import run as run_figure2
from repro.experiments.hsweep import collision_start
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.theorem21 import (
    UndersizedRuleCiw,
    control_stays_stable,
    time_to_leader_in_subpopulation,
    time_to_second_leader,
)
from repro.protocols.optimal_silent import OptimalSilentSSR, Role
from repro.protocols.sublinear.history_tree import HistoryTree
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.service.jobs import JobSpec, JobValidationError


class TestRegistry:
    def test_all_ids_resolve(self):
        for experiment_id in all_experiments():
            assert callable(get_experiment(experiment_id))

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_expected_ids_present(self):
        assert {
            "table1",
            "hsweep",
            "figure1",
            "figure2",
            "obs22",
            "thm21",
            "epidemics",
            "reset",
            "faults",
            "ablation",
            "whp",
            "loose",
        } <= set(all_experiments())

    @pytest.mark.parametrize("engine", ["generic", "auto"])
    @pytest.mark.parametrize("experiment_id", ["table1", "frontier"])
    def test_runner_rejects_undeclared_engine(self, experiment_id, engine):
        """A direct call refuses an engine outside the module's
        ``ENGINES`` before it runs anything, as ``repro run`` and the
        service do; it used to run the count engine under that name."""
        with pytest.raises(ValueError, match="runs on engine"):
            get_experiment(experiment_id)(seed=1, quick=True, engine=engine)


class TestFigure1Helpers:
    def test_ranking_phase_configuration(self):
        protocol = OptimalSilentSSR(12)
        states = ranking_phase_configuration(protocol)
        assert settled_ranks(states) == {1}
        assert sum(1 for s in states if s.role is Role.UNSETTLED) == 11

    def test_is_parent_closed(self):
        assert is_parent_closed({1, 2, 3})
        assert is_parent_closed({1, 3, 7})
        assert not is_parent_closed({1, 4})  # 4's parent 2 missing
        assert not is_parent_closed({2})  # root missing

    def test_open_slots_of_snapshot(self):
        protocol = OptimalSilentSSR(6)
        states = ranking_phase_configuration(protocol)
        assert open_slots(protocol, states) == {2, 3}

    def test_render_tree_marks_settled(self):
        text = render_tree(6, settled={1, 2})
        assert "[1]" in text and "[2]" in text and "(3)" in text


class TestFigure2:
    def test_full_figure_reproduces(self):
        report = run_figure2()
        assert report.all_passed
        assert len(report.rows) == 8  # 4 agents x 2 panels

    def test_missing_path_fails_the_consistency_check(self, monkeypatch):
        monkeypatch.setattr(HistoryTree, "paths_to_name", lambda self, target, clock: [])
        report = run_figure2()
        for panel in ("left", "right"):
            check = report.checks[f"{panel}-a-passes-consistency"]
            assert not check.passed
            assert check.measured == "no path"
            assert not report.checks[f"{panel}-d-has-one-path-to-a"].passed

    def test_impostor_check_records_the_verdict(self, monkeypatch):
        monkeypatch.setattr(figure2, "find_collision", lambda a, b: False)
        report = run_figure2()
        for panel in ("left", "right"):
            check = report.checks[f"{panel}-impostor-caught"]
            assert check.passed is False
            assert check.measured is False


class TestTheorem21Components:
    def test_undersized_rule_wraps_mod_modulus(self, rng):
        protocol = UndersizedRuleCiw(modulus=4, n=6)
        assert protocol.transition(3, 3, rng) == (3, 0)
        assert protocol.state_count() == 4

    def test_undersized_rule_validation(self):
        with pytest.raises(ValueError):
            UndersizedRuleCiw(modulus=8, n=4)

    def test_second_leader_appears(self):
        assert time_to_second_leader(6, 9, seed=1, trial=0) > 0

    def test_subpopulation_manufactures_leader(self):
        assert time_to_leader_in_subpopulation(6, 9, seed=1, trial=0) > 0

    def test_control_is_stable(self):
        assert control_stays_stable(8, seed=1, horizon_time=100.0)


class TestHsweepHelpers:
    def test_collision_start_has_exactly_one_duplicate(self):
        protocol = SublinearTimeSSR(8, h=1)
        states = collision_start(protocol, make_rng(1, "cs"))
        names = [s.name for s in states]
        assert len(set(names)) == 7
        assert names[0] == names[1]


@pytest.mark.slow
class TestRunnersQuickMode:
    @pytest.mark.parametrize(
        "experiment_id",
        ["obs22", "thm21", "epidemics", "reset", "faults", "ablation", "whp", "loose"],
    )
    def test_quick_runs_pass_checks(self, experiment_id):
        report = get_experiment(experiment_id)(seed=99, quick=True)
        failed = [name for name, c in report.checks.items() if not c.passed]
        assert not failed, failed

    def test_figure1_quick(self):
        report = get_experiment("figure1")(seed=99, quick=True)
        assert report.all_passed


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure2" in out

    def test_run_figure2(self, capsys):
        assert main(["run", "figure2", "--quick", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert (
            main(["run", "figure2", "--quick", "--no-ledger", "-o", str(target)]) == 0
        )
        assert "Figure 2" in target.read_text()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "definitely-not-real", "--no-ledger"])

    def test_run_appends_ledger_entry(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["run", "figure2", "--quick", "--ledger", str(ledger)]) == 0
        from repro.obs import read_ledger

        entries = read_ledger(str(ledger))
        assert len(entries) == 1
        assert entries[0]["kind"] == "run"
        assert entries[0]["experiment"] == "figure2"
        assert entries[0]["all_passed"] is True
        assert entries[0]["wall_seconds"] > 0

    @pytest.mark.parametrize(
        "bad, name",
        [
            (["--strikes", "-1"], "'strikes'"),
            (["--strikes", "0"], "'strikes'"),
            (["--fraction", "-0.5"], "'fraction'"),
            (["--period", "0"], "'period_factor'"),
            (["--agents", "0"], "'agents'"),
            (["--poisson-rate", "-2"], "'poisson_rate'"),
            (["--recovery-budget", "0"], "'recovery_budget_factor'"),
            (["--agents", "9"], "'agents'"),
        ],
    )
    def test_chaos_rejects_bad_parameters_before_any_trial(
        self, bad, name, capsys
    ):
        """A vacuous or unrunnable chaos sweep exits 2 with one line
        naming the parameter -- no empty report, no traceback."""
        argv = ["chaos", "--protocol", "ciw", "--n", "8", "--trials", "1"]
        assert main(argv + bad + ["--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("chaos: ")
        assert name in lines[0]


class TestCliCounts:
    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["run", "thm21", "--workers", "0"],
             {"kind": "run", "spec": {"experiment": "thm21", "workers": 0}}),
            (["bench", "--suite", "quant", "--repeats", "0"],
             {"kind": "bench", "spec": {"suite": "quant", "repeats": 0}}),
            (["chaos", "--workers", "0"], {"kind": "chaos", "spec": {"workers": 0}}),
            (["verify", "--trials", "0"], None),
            (["serve", "--jobs", "0"], None),
        ],
        ids=["run-workers", "bench-repeats", "chaos-workers", "verify-trials", "serve-jobs"],
    )
    def test_count_below_one_exits_2_with_the_service_message(
        self, argv, payload, capsys
    ):
        """A count below 1 is one line on stderr and exit 2 -- not a
        traceback (bench, verify) or a silently serial run (run) -- and
        the line carries the message a job spec with it gets back."""
        assert main(argv + ["--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        verb, message = captured.err.strip().split(": ", 1)
        assert verb == argv[0]
        assert message == f"'{argv[-2][2:]}' must be >= 1, got 0"
        if payload is not None:
            with pytest.raises(JobValidationError) as rejected:
                JobSpec.from_payload(payload)
            assert str(rejected.value) == f"{payload['kind']} job: {message}"

    def test_undeclared_engine_exits_2_with_the_service_message(self, capsys):
        """An engine the experiment does not declare is refused before
        any trial runs, with the line a job spec with it gets back."""
        assert main(["run", "table1", "--engine", "generic", "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        verb, message = lines[0].split(": ", 1)
        assert verb == "run"
        with pytest.raises(JobValidationError) as rejected:
            JobSpec.from_payload(
                {"kind": "run", "spec": {"experiment": "table1", "engine": "generic"}}
            )
        assert str(rejected.value) == f"run job: {message}"

    @pytest.mark.parametrize(
        "argv", [["verify", "--n", "1"], ["synth", "--n", "0"]], ids=["verify-n", "synth-n"]
    )
    def test_population_below_two_exits_2(self, argv, capsys):
        """A population size below 2 is one line on stderr and exit 2,
        not a ``ValueError`` traceback from the protocol constructor."""
        assert main(argv + ["--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{argv[0]}: 'n' must be >= 2, got {argv[-1]}\n"


class TestCliBench:
    def _bench_dir(self, tmp_path, scale="1"):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir(exist_ok=True)
        (bench_dir / "bench_toy.py").write_text(
            "def bench_suite():\n"
            "    from repro.obs.bench import BenchSuite\n"
            "    def cell(seed, repeat):\n"
            f"        return {scale} * (1.0 + 0.01 * repeat)\n"
            "    return BenchSuite('toy').cell('loop', cell, repeats=3)\n"
        )
        return str(bench_dir)

    def _argv(self, tmp_path, bench_dir, *extra):
        return [
            "bench",
            "--suite",
            "toy",
            "--bench-dir",
            bench_dir,
            "--baseline-dir",
            str(tmp_path / "baselines"),
            "--ledger",
            str(tmp_path / "ledger.jsonl"),
            *extra,
        ]

    def test_list_suites(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        assert main(["bench", "--list", "--bench-dir", bench_dir, "--no-ledger"]) == 0
        assert "toy" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        argv = self._argv(tmp_path, bench_dir)
        argv[argv.index("toy")] = "nope"
        assert main(argv) == 2

    def test_same_speed_rerun_not_flagged(self, tmp_path, capsys):
        """Acceptance: two runs at the same SHA show zero regressions."""
        bench_dir = self._bench_dir(tmp_path)
        assert main(self._argv(tmp_path, bench_dir, "--update-baseline")) == 0
        assert main(self._argv(tmp_path, bench_dir, "--compare-baseline")) == 0
        out = capsys.readouterr().out
        assert "0 regression(s) flagged" in out

    def test_injected_slowdown_flagged_nonzero_exit(self, tmp_path, capsys):
        """Acceptance: a 10x slowdown is flagged and exits nonzero."""
        fast = self._bench_dir(tmp_path)
        assert main(self._argv(tmp_path, fast, "--update-baseline")) == 0
        slow = self._bench_dir(tmp_path, scale="10")
        assert main(self._argv(tmp_path, slow, "--compare-baseline")) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        assert main(self._argv(tmp_path, bench_dir, "--compare-baseline")) == 2

    def test_bench_appends_ledger_entry(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        assert main(self._argv(tmp_path, bench_dir)) == 0
        from repro.obs import read_ledger

        entries = read_ledger(str(tmp_path / "ledger.jsonl"))
        assert len(entries) == 1
        assert entries[0]["kind"] == "bench"
        assert entries[0]["suite"] == "toy"
        assert "loop" in entries[0]["cells"]

    def test_json_output(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        target = tmp_path / "bench.json"
        assert main(self._argv(tmp_path, bench_dir, "--json", str(target))) == 0
        import json

        documents = json.loads(target.read_text())
        assert documents[0]["result"]["suite"] == "toy"


class TestCliReport:
    def test_report_renders_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["run", "figure2", "--quick", "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "Run ledger report" in out
        assert "figure2" in out

    def test_report_writes_output_file(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["run", "figure2", "--quick", "--ledger", str(ledger)]) == 0
        target = tmp_path / "report.md"
        assert main(["report", "--ledger", str(ledger), "-o", str(target)]) == 0
        assert "figure2" in target.read_text()

    def test_empty_ledger_report(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "absent.jsonl")]) == 0
        assert "no ledger entries" in capsys.readouterr().out.lower()
