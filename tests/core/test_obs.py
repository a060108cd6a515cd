"""Tests for the observability layer (:mod:`repro.obs`).

The contracts under test: the recorder taxonomy reconciles (every
event is counted exactly once in the aggregates), traces round-trip
through the JSONL schema, the ambient-recorder context wires both
engines and the fault machinery without being threaded through call
signatures -- and, most importantly, recording is *inert by default*:
with no recorder installed the engines register no hooks and produce
bit-identical runs.
"""

import json
import math
import random

import pytest

from repro.core.chaos import measure_recovery, periodic_events
from repro.core.countsim import CountSimulation
from repro.core.parallel import ParallelTrialRunner
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.obs import (
    MetricsRecorder,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    current_recorder,
    percentile,
    read_trace,
    recording,
    validate_trace,
)
from repro.obs.tail import render_trace
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR


def draw_uniform(rng: random.Random) -> float:
    return rng.random()


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_singleton(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 100.0) == 7.0

    def test_linear_interpolation_matches_numpy_method(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.5
        assert percentile(values, 25.0) == 1.75
        assert percentile(values, 100.0) == 4.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestMetricsRecorder:
    def test_invalid_sample_every(self):
        with pytest.raises(ValueError):
            MetricsRecorder(sample_every=0)

    def test_samples_carry_gauges(self):
        recorder = MetricsRecorder()
        recorder.sample(t=1.0, leaders=1)
        recorder.set_gauge("fault_backlog", 2.0)
        recorder.sample(t=2.0, leaders=1)
        assert "fault_backlog" not in recorder.samples[0]
        assert recorder.samples[1]["fault_backlog"] == 2.0

    def test_inc_gauge(self):
        recorder = MetricsRecorder()
        assert recorder.inc_gauge("fault_backlog") == 1.0
        assert recorder.inc_gauge("fault_backlog", -1.0) == 0.0

    def test_event_counts_reconcile_with_event_stream(self):
        recorder = MetricsRecorder()
        recorder.event("strike", agents=4)
        recorder.event("recovery", recovery_time=3.0)
        recorder.event("strike", agents=2)
        aggregates = recorder.aggregates()
        assert aggregates["events"] == len(recorder.events) == 3
        assert aggregates["event_counts"] == {"strike": 2, "recovery": 1}
        assert sum(aggregates["event_counts"].values()) == aggregates["events"]
        assert [e["agents"] for e in recorder.events_of("strike")] == [4, 2]

    def test_recovery_time_distribution(self):
        recorder = MetricsRecorder()
        for value in (1.0, 2.0, 3.0):
            recorder.event("recovery", recovery_time=value)
        distribution = recorder.aggregates()["recovery_time"]
        assert distribution["count"] == 3
        assert distribution["mean"] == 2.0
        assert distribution["p50"] == 2.0
        assert distribution["min"] == 1.0 and distribution["max"] == 3.0

    def test_throughput_aggregate(self):
        recorder = MetricsRecorder()
        recorder.count_interactions(1000, 0.5)
        recorder.count_interactions(1000, 0.5)
        throughput = recorder.aggregates()["throughput"]
        assert throughput["interactions"] == 2000
        assert throughput["interactions_per_second"] == pytest.approx(2000.0)

    def test_phase_timer_accumulates(self):
        recorder = MetricsRecorder()
        with recorder.phase("settle"):
            pass
        with recorder.phase("settle"):
            pass
        assert recorder.phase_seconds["settle"] >= 0.0
        assert "settle" in recorder.aggregates()["phase_seconds"]

    def test_to_json_is_json_serializable(self):
        recorder = MetricsRecorder()
        recorder.sample(t=0.5, leaders=1)
        recorder.event("convergence", t=0.5)
        recorder.add_stage_time("countsim.transition", 0.01)
        payload = json.dumps(recorder.to_json())
        assert "countsim.transition" in payload

    def test_write(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        recorder = MetricsRecorder()
        recorder.event("strike", agents=1)
        recorder.write(path)
        with open(path, encoding="utf8") as handle:
            loaded = json.load(handle)
        assert loaded["schema_version"] == 1
        assert loaded["aggregates"]["event_counts"] == {"strike": 1}


class TestTraceWriter:
    def test_round_trip_and_validation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as trace:
            trace.write("sample", {"t": 1.0, "leaders": 1})
            trace.write("event", {"kind": "strike", "agents": 2})
            trace.write("aggregate", {"events": 1})
        records = read_trace(path)
        assert [r["type"] for r in records] == [
            "header", "sample", "event", "aggregate",
        ]
        assert records[0]["schema_version"] == TRACE_SCHEMA_VERSION
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)
        assert validate_trace(path) == []

    def test_recorder_mirrors_into_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as trace:
            recorder = MetricsRecorder(trace=trace)
            recorder.sample(t=1.0, leaders=1)
            recorder.event("recovery", recovery_time=2.0)
        records = read_trace(path)
        assert sum(1 for r in records if r["type"] == "sample") == 1
        assert sum(1 for r in records if r["type"] == "event") == 1

    def test_unknown_record_type_rejected(self, tmp_path):
        with TraceWriter(str(tmp_path / "t.jsonl")) as trace:
            with pytest.raises(ValueError):
                trace.write("bogus", {})

    def test_write_after_close_rejected(self, tmp_path):
        trace = TraceWriter(str(tmp_path / "t.jsonl"))
        trace.close()
        trace.close()  # idempotent
        with pytest.raises(ValueError):
            trace.write("event", {"kind": "strike"})

    def test_truncated_tail_tolerated_by_reader(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as trace:
            trace.write("sample", {"t": 1.0})
        with open(path, "a", encoding="utf8") as handle:
            handle.write('{"v": 1, "type": "sam')  # killed mid-line
        records = read_trace(path)  # recovers the intact prefix
        assert [r["type"] for r in records] == ["header", "sample"]
        assert any("unparseable" in p for p in validate_trace(path))

    def test_validation_catches_schema_violations(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf8") as handle:
            handle.write('{"v": 1, "type": "sample"}\n')  # no header, no t
        problems = validate_trace(path)
        assert any("header" in p for p in problems)
        assert any("numeric 't'" in p for p in problems)

    def test_empty_trace_is_invalid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_trace(str(path)) == ["trace is empty (no records at all)"]


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_recorder() is None

    def test_recording_installs_and_restores(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            assert current_recorder() is recorder
        assert current_recorder() is None

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(MetricsRecorder()):
                raise RuntimeError("boom")
        assert current_recorder() is None

    def test_recording_is_thread_scoped(self):
        """Two threads inside recording scopes simultaneously each see
        their own recorder -- the ContextVar contract that lets the
        service run concurrent jobs without cross-wiring streams."""
        import threading

        barrier = threading.Barrier(2, timeout=10)
        isolated = {}

        def body(name):
            recorder = MetricsRecorder()
            with recording(recorder):
                barrier.wait()  # both scopes active at once
                isolated[name] = current_recorder() is recorder
                barrier.wait()

        threads = [threading.Thread(target=body, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert isolated == {0: True, 1: True}
        assert current_recorder() is None

    def test_recording_is_task_scoped(self):
        """Interleaved asyncio tasks each see their own recorder."""
        import asyncio

        async def main():
            seen = {}

            async def task(name):
                recorder = MetricsRecorder()
                with recording(recorder):
                    await asyncio.sleep(0.01)  # yield to the sibling
                    seen[name] = current_recorder() is recorder
                return recorder

            await asyncio.gather(task("a"), task("b"))
            return seen

        assert asyncio.run(main()) == {"a": True, "b": True}

    def test_new_thread_does_not_inherit_recorder(self):
        """A thread spawned inside a recording scope starts clean --
        explicit propagation (contextvars.copy_context) is the only
        way a recorder crosses a thread boundary."""
        import threading

        leaked = {}
        with recording(MetricsRecorder()):
            thread = threading.Thread(
                target=lambda: leaked.setdefault("r", current_recorder())
            )
            thread.start()
            thread.join(timeout=10)
        assert leaked["r"] is None

    def test_copy_context_propagates_recorder_into_thread(self):
        """The pattern the job manager uses around run_in_executor."""
        import contextvars
        import threading

        recorder = MetricsRecorder()
        seen = {}
        with recording(recorder):
            context = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: seen.setdefault(
                "r", context.run(current_recorder)
            )
        )
        thread.start()
        thread.join(timeout=10)
        assert seen["r"] is recorder
        assert current_recorder() is None


class TestEngineWiring:
    """Recording must be inert when off and invisible to RNG when on."""

    def test_engines_unhooked_without_recorder(self):
        protocol = SilentNStateSSR(8)
        generic = Simulation(protocol, list(range(8)), rng=make_rng(1, "g"))
        count = CountSimulation(protocol, list(range(8)), rng=make_rng(1, "c"))
        assert generic._obs is None
        assert count._obs is None and not count._profile

    def test_count_engine_run_is_bit_identical_under_recording(self):
        protocol = SilentNStateSSR(16)
        states = protocol.worst_case_configuration()

        def converge(recorder):
            sim = CountSimulation(
                protocol, states, rng=make_rng(2, "bits"), recorder=recorder
            )
            sim.run_until_silent()
            return sim.interactions, sim.events, sim.occupancy()

        recorder = MetricsRecorder(sample_every=64)
        assert converge(None) == converge(recorder)
        assert recorder.samples  # it really was recording

    def test_count_engine_samples_and_convergence_event(self):
        protocol = SilentNStateSSR(16)
        recorder = MetricsRecorder(sample_every=32)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(3, "count-obs"),
            recorder=recorder,
        )
        sim.run_until_silent()
        assert recorder.samples
        sample = recorder.samples[-1]
        assert sample["engine"] == "count"
        assert sample["leaders"] == 1
        # The last sample may precede the final transition; the O(1)
        # occupied counter must still agree with a fresh O(k) count.
        assert 1 <= sample["distinct_states"] <= 16
        assert sim._occupied == len(sim.occupancy()) == 16
        assert 0.0 <= sample["null_fraction"] <= 1.0
        convergences = recorder.events_of("convergence")
        assert convergences and convergences[-1]["engine"] == "count"
        # Throughput was credited by the run wrapper.
        assert recorder.interactions == sim.interactions

    def test_generic_engine_samples_and_convergence_event(self):
        """Under a recorder the generic engine tallies from the start:
        a sample every ``sample_every`` interactions with leaders, rank
        coverage and the tally's verdict, and a convergence event."""
        protocol = SilentNStateSSR(8)
        recorder = MetricsRecorder(sample_every=16)
        sim = Simulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(4, "gen-obs"),
            recorder=recorder,
        )
        sim.run(2_000)
        samples = recorder.samples
        assert [s["interactions"] for s in samples] == list(range(16, 2_001, 16))
        assert set(samples[0]) == {
            "t", "interactions", "leaders", "rank_coverage", "correct", "engine",
        }
        assert all(s["engine"] == "generic" for s in samples)
        assert samples[-1]["leaders"] == 1
        assert samples[-1]["rank_coverage"] == 8 and samples[-1]["correct"]
        (convergence,) = recorder.events_of("convergence")
        assert convergence["engine"] == "generic"
        assert convergence["t"] == sim.streak_start / 8
        assert recorder.interactions == sim.interactions

    def test_initial_correct_state_emits_no_event(self):
        """Starting the tally on an already-correct population is a
        resync, not a convergence -- faults resync after every strike."""
        protocol = SilentNStateSSR(8)
        recorder = MetricsRecorder()
        sim = Simulation(
            protocol, list(range(8)), rng=make_rng(5, "arm"), recorder=recorder
        )
        assert sim.run_until_stable(0, 0) and sim.streak_start == 0
        assert recorder.events == []

    def test_ambient_recorder_reaches_measure_recovery(self):
        protocol = OptimalSilentSSR(8)
        recorder = MetricsRecorder(sample_every=64)
        with recording(recorder):
            report = measure_recovery(
                protocol,
                periodic_events(50.0, 4, 2),
                rng=make_rng(6, "obs-recovery"),
                settle_time=50_000.0,
                max_recovery_time=50_000.0,
            )
        assert all(record.recovered for record in report.records)
        strikes = recorder.events_of("strike")
        recoveries = recorder.events_of("recovery")
        assert len(strikes) == 2
        assert len(recoveries) == 2
        assert all("adversary" in event for event in strikes)
        # Events reconcile with the aggregates, and the recovery
        # distribution is built from exactly the recovery events.
        aggregates = recorder.aggregates()
        assert aggregates["recovery_time"]["count"] == len(recoveries)
        assert set(aggregates["event_counts"]) >= {"strike", "recovery"}
        # The fault backlog gauge returned to zero.
        assert recorder.gauges["fault_backlog"] == 0.0
        # Phases cover the settle/dwell/recover lifecycle.
        assert {"settle", "dwell", "recover"} <= set(recorder.phase_seconds)


class TestProfiling:
    def test_count_engine_stage_timers(self):
        protocol = SilentNStateSSR(16)
        recorder = MetricsRecorder(sample_every=64, profile=True)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(7, "prof"),
            recorder=recorder,
        )
        sim.run_until_silent()
        assert {"countsim.pair_sampling", "countsim.transition"} <= set(
            recorder.stage_seconds
        )
        assert all(seconds >= 0.0 for seconds in recorder.stage_seconds.values())

    def test_stage_timers_off_without_profile(self):
        protocol = SilentNStateSSR(16)
        recorder = MetricsRecorder(sample_every=64)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(7, "prof"),
            recorder=recorder,
        )
        sim.run_until_silent()
        assert recorder.stage_seconds == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_emits_trial_timings(self, workers):
        recorder = MetricsRecorder(profile=True)
        with recording(recorder):
            results = ParallelTrialRunner(workers).map_trials(
                draw_uniform, seed=30, labels=("prof",), trials=4
            )
        assert results == [make_rng(30, "prof", i).random() for i in range(4)]
        trials = recorder.events_of("trial")
        assert sorted(event["index"] for event in trials) == [0, 1, 2, 3]
        assert all(event["pooled"] == (workers > 1) for event in trials)
        assert all(event["wall_seconds"] >= 0.0 for event in trials)
        distribution = recorder.aggregates()["trial_wall_seconds"]
        assert distribution["count"] == 4

    def test_runner_emits_checkpoint_write_events(self, tmp_path):
        recorder = MetricsRecorder()
        runner = ParallelTrialRunner(checkpoint=str(tmp_path / "journal.pkl"))
        with recording(recorder):
            runner.map_trials(draw_uniform, seed=31, labels=("ck",), trials=3)
        writes = recorder.events_of("checkpoint-write")
        assert sorted(event["index"] for event in writes) == [0, 1, 2]


class TestTail:
    def _write_trace(self, path):
        with TraceWriter(path) as trace:
            recorder = MetricsRecorder(sample_every=32, trace=trace)
            sim = CountSimulation(
                SilentNStateSSR(16),
                SilentNStateSSR(16).worst_case_configuration(),
                rng=make_rng(8, "tail"),
                recorder=recorder,
            )
            sim.run_until_silent()
            trace.write("aggregate", recorder.aggregates())

    def test_series_extraction(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_trace(path)
        samples = [r for r in read_trace(path) if r.get("type") == "sample"]
        assert all("leaders" in r and "distinct_states" in r for r in samples)
        points = [(r["t"], r["leaders"]) for r in samples]
        assert points and all(t >= 0.0 for t, _ in points)
        # Ranked protocols always have >= 1 agent claiming rank 1, and
        # t is monotone along the trace.
        assert all(value >= 1.0 for _, value in points)
        assert [t for t, _ in points] == sorted(t for t, _ in points)

    def test_render_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_trace(path)
        rendered = render_trace(path, width=40, height=6)
        assert "leaders vs parallel time" in rendered
        assert "events:" in rendered
        assert "aggregate:" in rendered

    def test_render_missing_series(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._write_trace(path)
        rendered = render_trace(path, series=["nonexistent"])
        assert "no sampled points" in rendered
