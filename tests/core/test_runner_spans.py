"""Trial spans on the parent recorder: the service-path contract.

An untraced recorded run (the job service's case) gets its trial spans
on the ambient recorder, not in shards.  The serial path and the pool
run the same trial body and finish each trial through the same step,
so at any worker count the span records -- ids, parents, order and
statuses -- are identical, on success and on a task failure alike.
"""

import random
import time
from functools import partial

import pytest

from repro.core.parallel import ParallelTrialRunner, TrialTaskError
from repro.core.rng import make_rng
from repro.obs import MetricsRecorder, validate_spans
from repro.obs.context import recording
from repro.obs.trace import span_id

SEED = 23
LABELS = ("svc",)
ATTEMPT = "job-0123456789abcdef/a1"


def draw(rng: random.Random) -> float:
    return rng.random()


def slow_first(first: float, rng: random.Random) -> float:
    """Trial 0 (the one whose draw is ``first``) takes a while; the rest
    finish at once, long before the harvest loop reaches them."""
    value = rng.random()
    if value == first:
        time.sleep(0.2)
    return value


def fail_on(target: float, rng: random.Random) -> float:
    value = rng.random()
    if value == target:
        raise ValueError("boom")
    return value


def record_spans(workers, task, trials=5):
    """Run ``task`` under an open attempt span; return (spans, error)."""
    recorder = MetricsRecorder()
    error = None
    with recording(recorder):
        recorder.begin_span("attempt", ATTEMPT)
        try:
            ParallelTrialRunner(workers).map_trials(
                task, seed=SEED, labels=LABELS, trials=trials
            )
        except TrialTaskError as exc:
            error = exc
        recorder.end_span(ATTEMPT, status="ok" if error is None else "failed")
    assert validate_spans(recorder.spans) == []
    return recorder.spans, error


def trial_spans(spans):
    return [record for record in spans if record["kind"] == "trial"]


class TestUntracedTrialSpans:
    def test_serial_and_pooled_spans_match(self):
        serial, _ = record_spans(1, draw)
        pooled, _ = record_spans(2, draw)
        assert serial == pooled
        trials = trial_spans(serial)
        ids = [span_id(SEED, LABELS, index) for index in range(5)]
        assert [r["id"] for r in trials] == [i for i in ids for _ in (0, 1)]
        assert [r["op"] for r in trials] == ["begin", "end"] * 5
        assert all(r["parent"] == ATTEMPT for r in trials if r["op"] == "begin")
        assert {r["status"] for r in trials if r["op"] == "end"} == {"ok"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_closes_its_span_failed(self, workers):
        task = partial(fail_on, make_rng(SEED, *LABELS, 2).random())
        spans, error = record_spans(workers, task)
        assert isinstance(error, TrialTaskError) and error.index == 2
        assert "ValueError: boom" in str(error)
        ends = [
            (r["id"], r["status"]) for r in trial_spans(spans) if r["op"] == "end"
        ]
        assert ends == [
            (span_id(SEED, LABELS, 0), "ok"),
            (span_id(SEED, LABELS, 1), "ok"),
            (span_id(SEED, LABELS, 2), "failed"),
        ]

    def test_failure_spans_match_across_paths(self):
        task = partial(fail_on, make_rng(SEED, *LABELS, 2).random())
        serial, _ = record_spans(1, task)
        pooled, _ = record_spans(2, task)
        assert serial == pooled


class TestProfiledTrialSpans:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_wall_is_the_trials_own(self, workers):
        """A profiled trial span times the trial, not the harvest wait:
        its ``wall_seconds`` equals the ``trial`` event's on either path."""
        recorder = MetricsRecorder(profile=True)
        task = partial(slow_first, make_rng(SEED, *LABELS, 0).random())
        with recording(recorder):
            ParallelTrialRunner(workers).map_trials(
                task, seed=SEED, labels=LABELS, trials=4
            )
        assert validate_spans(recorder.spans) == []
        events = {e["index"]: e["wall_seconds"] for e in recorder.events_of("trial")}
        ends = [r for r in trial_spans(recorder.spans) if r["op"] == "end"]
        assert [r["id"] for r in ends] == [span_id(SEED, LABELS, i) for i in range(4)]
        assert [r["wall_seconds"] for r in ends] == [events[i] for i in range(4)]
        assert events[0] >= 0.2 > max(events[i] for i in range(1, 4))
