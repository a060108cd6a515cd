"""The metrics recorder: sampled, event-based and aggregated metrics.

One :class:`MetricsRecorder` accompanies one run (an experiment, a
chaos sweep, a benchmark pass).  Engines push into it through three
write paths matching the collection taxonomy:

* :meth:`MetricsRecorder.sample` -- a sampled time-series point,
  captured every ``sample_every`` effective interactions from O(1)
  engine bookkeeping;
* :meth:`MetricsRecorder.event` -- a discrete event (``convergence``,
  ``regression``, ``strike``, ``recovery``, ``checkpoint-write``,
  ``worker-retry``, ``trial``);
* the aggregation accumulators -- :meth:`count_interactions` for
  throughput, :meth:`phase`/:meth:`add_stage_time` for per-phase and
  per-stage wall time (``time.perf_counter``; durations must never use
  ``time.time``, which can go backwards under clock adjustment);
* :meth:`MetricsRecorder.begin_span`/:meth:`MetricsRecorder.end_span`
  -- causal span boundaries tying a job to its attempts, trials and
  engine stages (taxonomy in :mod:`repro.obs.spans`); deterministic
  unless profiling adds wall-clock durations.

:meth:`MetricsRecorder.aggregates` distills everything into the
post-run summary: recovery-time percentiles, throughput, per-phase
wall time and event-count totals, which by construction reconcile with
the recorded event stream.

A recorder optionally mirrors samples and events into a
:class:`~repro.obs.trace.TraceWriter` as they happen, so a killed run
still leaves a readable trace.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs.spans import SPAN_KINDS, SPAN_SCHEMA_VERSION, SPAN_STATUSES
from repro.obs.trace import TraceWriter

__all__ = ["MetricsRecorder", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method without requiring
    numpy; NaN for an empty input.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


def _distribution(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/percentile summary of a non-empty value list."""
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "p99": percentile(values, 99.0),
        "min": min(values),
        "max": max(values),
    }


class MetricsRecorder:
    """Collects sampled, event and aggregate metrics for one run.

    Parameters
    ----------
    sample_every:
        Sampling period, in *effective interactions* (count engine) or
        interactions (generic engine).  The engines read this at
        construction time.
    trace:
        Optional :class:`~repro.obs.trace.TraceWriter`; samples and
        events are mirrored into it as they are recorded.
    profile:
        Enables the profiling hooks: per-stage timers inside
        :class:`~repro.core.countsim.CountSimulation` and per-trial
        wall/CPU timing in
        :class:`~repro.core.parallel.ParallelTrialRunner`.  Off by
        default -- profiling pays ``perf_counter`` calls on hot stages.
    keep_shards:
        Whether the parallel runner keeps worker trace shards on disk
        after merging them into the main trace.  Kept by default (the
        postmortem contract: a shard names exactly one trial's records);
        ``False`` unlinks each shard once merged.
    """

    def __init__(
        self,
        *,
        sample_every: int = 256,
        trace: Optional[TraceWriter] = None,
        profile: bool = False,
        keep_shards: bool = True,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.trace = trace
        self.profile = profile
        self.keep_shards = keep_shards
        #: Sampled time-series records, in arrival order.
        self.samples: List[Dict[str, Any]] = []
        #: Event records, in arrival order.
        self.events: List[Dict[str, Any]] = []
        #: Span boundary records (begin + end), in arrival order.
        self.spans: List[Dict[str, Any]] = []
        #: Currently open spans: id -> the begin record.
        self.open_spans: Dict[str, Dict[str, Any]] = {}
        self._span_starts: Dict[str, float] = {}
        #: Event-count totals by kind (reconciles with ``events``).
        self.event_counts: Dict[str, int] = {}
        #: Live gauges merged into every sample (e.g. ``fault_backlog``).
        self.gauges: Dict[str, float] = {}
        #: Per-phase wall-clock seconds (``perf_counter``).
        self.phase_seconds: Dict[str, float] = {}
        #: Per-stage wall-clock seconds from engine profiling hooks.
        self.stage_seconds: Dict[str, float] = {}
        self.interactions = 0
        self.engine_seconds = 0.0

    # -- sampled metrics ------------------------------------------------

    def sample(self, *, t: float, **fields: Any) -> None:
        """Record one time-series point at parallel time ``t``.

        Live gauges are merged in, so engine samples automatically carry
        run-level state such as the current fault backlog.
        """
        record: Dict[str, Any] = {"t": t, **fields}
        if self.gauges:
            record.update(self.gauges)
        self.samples.append(record)
        if self.trace is not None:
            self.trace.write("sample", record)

    # -- event metrics --------------------------------------------------

    def event(self, kind: str, **fields: Any) -> None:
        """Record one discrete event of ``kind``."""
        record: Dict[str, Any] = {"kind": kind, **fields}
        self.events.append(record)
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if self.trace is not None:
            self.trace.write("event", record)

    def events_of(self, kind: str) -> List[Dict[str, Any]]:
        """All recorded events of one kind, in arrival order."""
        return [event for event in self.events if event["kind"] == kind]

    # -- causal spans ---------------------------------------------------

    def begin_span(
        self,
        kind: str,
        span_id: str,
        *,
        parent: Optional[str] = None,
        name: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Open a causal span (see :mod:`repro.obs.spans`).

        Span records are deterministic: no wall-clock field is written
        unless profiling is on, so spans in a trace survive the worker
        shard merge byte-identically.
        """
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {kind!r}; known: {SPAN_KINDS}")
        record: Dict[str, Any] = {
            "span_schema": SPAN_SCHEMA_VERSION,
            "op": "begin",
            "id": span_id,
            "kind": kind,
            **fields,
        }
        if parent is not None:
            record["parent"] = parent
        if name is not None:
            record["name"] = name
        self.spans.append(record)
        self.open_spans[span_id] = record
        if self.profile:
            self._span_starts[span_id] = time.perf_counter()
        if self.trace is not None:
            self.trace.write("span", record)

    def end_span(self, span_id: str, status: str = "ok", **fields: Any) -> None:
        """Close an open span with a terminal ``status``.

        Idempotent: closing a span that is not open is a no-op, so
        unwind paths (cancellation, failure) may close defensively.
        """
        if span_id not in self.open_spans:
            return
        if status not in SPAN_STATUSES:
            raise ValueError(
                f"unknown span status {status!r}; known: {SPAN_STATUSES}"
            )
        begin = self.open_spans.pop(span_id)
        record: Dict[str, Any] = {
            "span_schema": SPAN_SCHEMA_VERSION,
            "op": "end",
            "id": span_id,
            "status": status,
            **fields,
        }
        # The end record repeats the kind so stream consumers (the SSE
        # fan-out, `repro top`) never need the matching begin in hand.
        if "kind" not in record and begin.get("kind") is not None:
            record["kind"] = begin["kind"]
        start = self._span_starts.pop(span_id, None)
        if start is not None and "wall_seconds" not in record:
            record["wall_seconds"] = time.perf_counter() - start
        self.spans.append(record)
        if self.trace is not None:
            self.trace.write("span", record)

    def close_open_spans(self, status: str = "cancelled") -> int:
        """Close every open span, innermost first; return how many.

        The unwind hook for jobs that stop early: a cancelled or failed
        run must leave a well-formed span tree (no dangling opens), so
        callers invoke this before the trace closes.
        """
        open_ids = list(self.open_spans)
        for span_id in reversed(open_ids):
            self.end_span(span_id, status=status)
        return len(open_ids)

    # -- gauges ---------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def inc_gauge(self, name: str, delta: float = 1.0) -> float:
        value = self.gauges.get(name, 0.0) + delta
        self.gauges[name] = value
        return value

    # -- aggregation accumulators --------------------------------------

    def count_interactions(self, interactions: int, seconds: float) -> None:
        """Credit engine work towards the throughput aggregate."""
        self.interactions += interactions
        self.engine_seconds += seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase with ``perf_counter``; re-entrant safe."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_time(name, time.perf_counter() - start)

    def add_phase_time(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def add_stage_time(self, stage: str, seconds: float) -> None:
        """Accumulate profiled engine-stage time (profiling hooks only)."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    # -- aggregated metrics --------------------------------------------

    def aggregates(self) -> Dict[str, Any]:
        """The post-run summary computed from everything recorded."""
        out: Dict[str, Any] = {
            "samples": len(self.samples),
            "events": len(self.events),
            "event_counts": dict(self.event_counts),
            **({"spans": len(self.spans)} if self.spans else {}),
            "throughput": {
                "interactions": self.interactions,
                "engine_seconds": self.engine_seconds,
                "interactions_per_second": (
                    self.interactions / self.engine_seconds
                    if self.engine_seconds > 0
                    else None
                ),
            },
        }
        recoveries = [
            float(event["recovery_time"])
            for event in self.events_of("recovery")
            if isinstance(event.get("recovery_time"), (int, float))
        ]
        if recoveries:
            out["recovery_time"] = _distribution(recoveries)
        trial_walls = [
            float(event["wall_seconds"])
            for event in self.events_of("trial")
            if isinstance(event.get("wall_seconds"), (int, float))
        ]
        if trial_walls:
            out["trial_wall_seconds"] = _distribution(trial_walls)
        if self.phase_seconds:
            out["phase_seconds"] = {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            }
        if self.stage_seconds:
            out["stage_seconds"] = {
                name: round(seconds, 6)
                for name, seconds in self.stage_seconds.items()
            }
        return out

    def to_json(self) -> Dict[str, Any]:
        """The full recorder contents as one JSON-ready dict."""
        return {
            "schema_version": 1,
            "sample_every": self.sample_every,
            "profile": self.profile,
            "samples": self.samples,
            "events": self.events,
            "spans": self.spans,
            "aggregates": self.aggregates(),
        }

    def write(self, path: str) -> None:
        """Write :meth:`to_json` to ``path`` as indented JSON."""
        import json

        with open(path, "w", encoding="utf8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")


#: Signature engines expect from ambient-recorder resolution.
RecorderResolver = Callable[[], Optional[MetricsRecorder]]
