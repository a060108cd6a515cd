"""Engine-neutral observability: metrics, tracing, logging, profiling.

Long simulation and chaos runs were a black box -- hours of work whose
only output was the final JSON.  This package adds the three standard
views into a running system, following the sampled / event-based /
aggregated taxonomy:

* **Sampled metrics** -- a time-series of O(1) engine gauges (leader
  count, rank coverage, distinct-state count, null-interaction
  fraction, fault backlog), captured every ``sample_every`` effective
  interactions off bookkeeping the engines already maintain.
* **Event metrics** -- discrete happenings: convergence, regression,
  strike, recovery, checkpoint write, worker retry, per-trial timing.
* **Aggregated metrics** -- computed after the run: recovery-time
  percentiles, throughput (interactions/second), per-phase and
  per-stage wall time from ``time.perf_counter``.

The subsystem is *pull-free and ambient*: a
:class:`~repro.obs.metrics.MetricsRecorder` installed via
:func:`~repro.obs.context.recording` is picked up by both simulation
engines, the parallel trial runner and the fault machinery at
construction time.  When no recorder is installed (the default), no
hooks are registered and the hot paths are unchanged -- enforced by
``tests/core/test_obs.py`` and the ``bench_engine.py`` smoke.

Structured traces are JSONL (:mod:`repro.obs.trace`) with a
schema-versioned record format; ``repro tail`` renders them as ascii
time-series.  Logging uses a ``repro``-rooted stdlib logger hierarchy
(:func:`~repro.obs.log.get_logger`).
"""

from repro.obs.context import current_recorder, recording
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA_VERSION,
    append_entry,
    iter_ledger,
    make_entry,
    read_ledger,
    record_invocation,
)
from repro.obs.log import configure_logging, get_logger, job_logger
from repro.obs.metrics import MetricsRecorder, percentile
from repro.obs.promexp import (
    TelemetryRegistry,
    get_registry,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.provenance import git_sha, run_stamp
from repro.obs.spans import (
    SPAN_KINDS,
    SPAN_SCHEMA_VERSION,
    SPAN_STATUSES,
    SpanNode,
    attempt_span_id,
    build_span_tree,
    stage_span_id,
    validate_spans,
)
from repro.obs.trace import (
    RECORD_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    iter_trace,
    merge_trace_shards,
    read_trace,
    shard_path,
    span_id,
    validate_trace,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA_VERSION",
    "MetricsRecorder",
    "RECORD_TYPES",
    "SPAN_KINDS",
    "SPAN_SCHEMA_VERSION",
    "SPAN_STATUSES",
    "SpanNode",
    "TRACE_SCHEMA_VERSION",
    "TelemetryRegistry",
    "TraceWriter",
    "append_entry",
    "attempt_span_id",
    "build_span_tree",
    "configure_logging",
    "current_recorder",
    "get_logger",
    "get_registry",
    "git_sha",
    "iter_ledger",
    "iter_trace",
    "job_logger",
    "make_entry",
    "merge_trace_shards",
    "parse_prometheus_text",
    "percentile",
    "read_ledger",
    "read_trace",
    "record_invocation",
    "recording",
    "render_prometheus",
    "run_stamp",
    "shard_path",
    "span_id",
    "stage_span_id",
    "validate_spans",
    "validate_trace",
]
