"""Tests of the end-to-end benchmark harness.

Run from the repository root: ``python3 -m pytest e2ebench/tests``.
The last two tests run the benchmark itself (``--smoke``, ~15 s).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "count, level",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_level_is_highest_with_ten_samples_beyond(count, level):
    assert harness.tail_level(count) == level


def test_tail_value_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 1001)]
    value, label = harness.tail(values)
    assert label == "p99"
    assert sum(1 for v in values if v > value) >= harness.TAIL_MIN_BEYOND
    assert value == pytest.approx(harness.percentile(values, 99.0))


def test_tail_of_few_samples_is_the_slowest():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, "max")


# -- bound / verdict logic ------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def _paired(change):
    return list(zip(BASE, change))


def test_same_distribution_is_unchanged():
    change = [v + 0.05 for v in BASE]
    assert harness.verdict(BASE, change, "lower", 0.1, _paired(change)) == "unchanged"


def test_worse_beyond_the_bound_is_worse():
    change = [v * 1.2 for v in BASE]
    assert harness.verdict(BASE, change, "lower", 0.1, _paired(change)) == "worse"
    # ... and the direction follows "better".
    assert harness.verdict(BASE, change, "higher", 0.1, _paired(change)) == "improved"


def test_consistent_gain_is_improved():
    change = [v * 0.95 for v in BASE]
    assert harness.verdict(BASE, change, "lower", 0.1, _paired(change)) == "improved"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [v * 1.3 for v in noisy]
    pairs = list(zip(noisy, change))
    assert harness.verdict(noisy, change, "lower", 0.1, pairs) == "unresolved"
    # Unless every change run beats every base run.
    faster = [10.0] * 10
    assert harness.verdict(noisy, faster, "lower", 0.1, list(zip(noisy, faster))) == "improved"


def test_metric_without_bound_is_never_worse():
    change = [v * 2 for v in BASE]
    assert harness.verdict(BASE, change, "lower", None, _paired(change)) == "unchanged"


def test_compare_exits_nonzero_on_worse(tmp_path, capsys):
    spec = run.load_spec()

    def write(path, factor):
        with open(path, "w", encoding="utf8") as handle:
            for seed, value in enumerate(BASE):
                result = {"metrics": {"latency_ms": {"value": value * factor, "unit": "ms"}}}
                handle.write(json.dumps({"workload": "table1", "seed": seed, "result": result}))
                handle.write("\n")

    write(tmp_path / "base.jsonl", 1.0)
    write(tmp_path / "same.jsonl", 1.0)
    write(tmp_path / "slow.jsonl", 1.5)
    assert run.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "same.jsonl"), spec) == 0
    assert run.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "slow.jsonl"), spec) == 1
    assert "worse" in capsys.readouterr().out


# -- at-rest factors from probe samples ---------------------------------------------


def _probe_samples(seconds_at):
    """One probe sample every 0.1 s over [0, 10), taking ``seconds_at(stamp)``."""
    return [(k / 10.0, seconds_at(k / 10.0)) for k in range(100)]


def test_rest_factor_is_one_at_rest_and_half_at_half_speed():
    # Rest speed (1 ms) for t < 5, half speed (2 ms) after.
    samples = _probe_samples(lambda t: 0.001 if t < 5.0 else 0.002)
    factors = harness.rest_factors(samples, [(0.5, 2.5), (6.0, 9.0), (4.0, 6.0)], 0.0, 0.001)
    assert factors[0] == pytest.approx(1.0)
    assert factors[1] == pytest.approx(0.5)
    assert 0.5 < factors[2] < 1.0


def test_rest_factor_never_exceeds_one_and_widens_short_spans():
    samples = _probe_samples(lambda t: 0.0005 if t == 0.0 else 0.001)
    factors = harness.rest_factors(
        samples, [(0.0, 0.05), (3.02, 3.03), (20.0, 21.0)], 0.1, 0.001
    )
    # A sample faster than rest counts as rest.
    assert factors[0] == 1.0
    # The short span has no sample inside; the pad reaches its neighbours.
    assert factors[1] == pytest.approx(1.0)
    # A span with no sample in reach keeps its wall time.
    assert factors[2] == 1.0


def test_a_runs_rest_time_is_its_fastest_percentile_in_the_window():
    samples = [(0.0, 0.0005)] + _probe_samples(lambda t: 0.002 if t < 8.0 else 0.001)[10:]
    assert harness.rest_time(samples, 2.0, 7.9) == pytest.approx(0.002)
    assert harness.rest_time(samples, 2.0, 9.9) == pytest.approx(0.001)
    assert harness.rest_time(samples, 20.0, 30.0) is None


def test_at_rest_median_keeps_the_less_contended_half():
    # Two passes at rest (1 s), two slowed and over-corrected below 1 s.
    assert harness.at_rest_median([1.0, 1.0, 1.2, 1.2], [1.0, 1.0, 0.5, 0.5]) == 1.0
    e = harness.SLOWDOWN_EXPONENT
    assert harness.at_rest_median([1.0, 2.0, 3.0], [0.5, 1.0, 0.9]) == pytest.approx(
        (2.0 + 3.0 * 0.9**e) / 2
    )
    assert harness.at_rest_median([4.0], [0.5]) == pytest.approx(4.0 * 0.5**e)
    assert harness.at_rest(2.0, 1.0) == 2.0


def test_rest_time_is_calibrated_once_and_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(probe, "CALIBRATION_S", 0.3)
    path = str(tmp_path / "work" / "rest.json")
    rest = probe.RestTime(path)
    assert rest.observe(0.001) == 0.001  # not calibrated: the run's own
    with probe.SpeedProbe() as speed:
        started = time.monotonic()
        rest.calibrate(speed)
        assert time.monotonic() - started >= 0.3
        taken = [seconds for _, seconds in speed.samples()]
        assert min(taken) <= rest.seconds <= max(taken)
        # Read back, not measured again.
        again = probe.RestTime(path)
        started = time.monotonic()
        again.calibrate(speed)
        assert again.seconds == rest.seconds and time.monotonic() - started < 0.1
    # A damaged file is calibrated again.
    with open(path, "w", encoding="utf8") as handle:
        handle.write("{")
    assert probe.RestTime(path).seconds is None


def test_rest_time_is_replaced_only_by_a_much_faster_run(tmp_path):
    path = str(tmp_path / "rest.json")
    rest = probe.RestTime(path)
    rest._store(0.001)
    # Ordinary run-to-run variation, slower runs and runs without samples
    # leave it alone.
    assert rest.observe(0.0008) == 0.001
    assert rest.observe(0.0013) == 0.001
    assert rest.observe(None) == 0.001
    # A run faster by more than REPAIR shows the calibration was contended.
    assert rest.observe(0.0007) == 0.0007
    assert probe.RestTime(path).seconds == 0.0007


def test_speed_probe_samples_until_stopped():
    with probe.SpeedProbe() as speed:
        time.sleep(0.2)
    taken = speed.samples()
    time.sleep(0.1)
    assert len(speed.samples()) == len(taken) >= 3
    assert all(seconds > 0 for _, seconds in taken)
    assert [stamp for stamp, _ in taken] == sorted(stamp for stamp, _ in taken)


# -- run length ------------------------------------------------------------------------


def test_steps_make_the_minimum_then_stop_at_the_deadline():
    assert list(run.steps(0.0, 3, trace=False)) == [[False]] * 3
    # Traced steps pair an untraced and a traced pass, flipping the order.
    assert list(run.steps(0.0, 2, trace=True)) == [[False, True], [True, False]]
    started = time.monotonic()
    count = 0
    for _ in run.steps(0.2, 1, trace=False):
        time.sleep(0.03)
        count += 1
    assert 4 <= count <= 7 and time.monotonic() - started < 0.5


# -- self time from nested spans --------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "name": "experiments", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "countsim.run", "start": 1.0, "end": 4.0,
         "attrs": {"events": 7}},
        {"id": 2, "parent": 1, "name": "countsim.run", "start": 2.0, "end": 3.0,
         "attrs": {"events": 5}},
        {"id": 3, "parent": 0, "name": "quant.build", "start": 5.0, "end": 6.0},
    ]
    selves = {s["id"]: s["self"] for s in harness.self_times(spans)}
    assert selves == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = harness.layer_totals(spans)
    assert totals["countsim.run"] == {"self": 3.0, "calls": 2, "events": 12}
    assert sum(t["self"] for t in totals.values()) == 10.0


# -- checkers reject corrupted outputs ---------------------------------------------


def _ciw_rows(factor=1.0):
    return [
        {"n": n, "trials": 5, "expected_time": factor * (n - 1) ** 2 / 2.0}
        for n in (16, 32, 64)
    ]


def test_ciw_check_accepts_exact_and_rejects_twenty_percent_high():
    assert harness.ciw_row_problems(_ciw_rows()) == []
    assert harness.ciw_row_problems(_ciw_rows(1.2))


def test_table1_check_reads_the_csv(tmp_path):
    def write(factor):
        with open(tmp_path / "table1.csv", "w", encoding="utf8") as handle:
            handle.write("protocol,n,expected_time,trials\n")
            for row in _ciw_rows(factor):
                handle.write(f"Silent-n-state-SSR [CIW],{row['n']},{row['expected_time']},5\n")
            handle.write("Optimal-Silent-SSR,8,25.0,8\n")
            handle.write("Sublinear-Time-SSR (H=log2 n),4,17.0,3\n")
        with open(tmp_path / "table1.checks.csv", "w", encoding="utf8") as handle:
            handle.write("check,passed,measured,expected\nsublinear-exponent,False,0.9,x\n")

    write(1.0)
    problems, info = harness.check_table1(str(tmp_path))
    assert problems == [] and info == {"checks_failed": ["sublinear-exponent"]}
    write(1.2)
    assert harness.check_table1(str(tmp_path))[0]


def test_verify_check_rejects_a_band_miss(tmp_path):
    path = tmp_path / "verify.md"
    within = "| info | P | mc-band | n=4: engine 'count' mean 1 is within the exact band |\n"
    path.write_text(within * harness.VERIFY_ESTIMATES)
    assert harness.check_verify(0, str(path))[0] == []
    path.write_text(within * 5 + "| error | P | mc-band | mean 9 is OUTSIDE the exact band |\n")
    problems = harness.check_verify(1, str(path))[0]
    assert any("exit code 1" in p for p in problems)
    assert any("outside" in p for p in problems)


def test_cold_check_rejects_a_dedupe_or_a_failed_job():
    assert harness.check_cold_job(True, "done", True) == []
    assert harness.check_cold_job(False, "done", True)
    assert harness.check_cold_job(True, "failed", None)
    assert harness.check_cold_job(True, "done", False)


def test_hit_check_rejects_a_reexecution():
    body = b'{"ok": true}'
    assert harness.check_hit("job-a", False, "done", body, "job-a", body) == []
    assert harness.check_hit("job-a", True, "done", body, "job-a", body)
    assert harness.check_hit("job-b", False, "done", body, "job-a", body)
    assert harness.check_hit("job-a", False, "done", b'{"ok": false}', "job-a", body)


def test_frontier_check_rejects_a_failed_check(tmp_path):
    path = tmp_path / "frontier.json"
    report = {"rows": [{}], "checks": {"frontier-exponent": {"passed": True, "measured": "2"}}}
    path.write_text(json.dumps(report))
    assert harness.check_frontier(str(path))[0] == []
    report["checks"]["frontier-exponent"]["passed"] = False
    path.write_text(json.dumps(report))
    assert harness.check_frontier(str(path))[0]


# -- the benchmark itself --------------------------------------------------------------


def test_smoke_run_of_every_workload_is_correct_and_fast():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stderr
    results = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    names = [m["name"] for m in run.load_spec()["end_to_end"]]
    assert len(results) == len(run.workloads.NAMES)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(names)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert elapsed < 30.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
