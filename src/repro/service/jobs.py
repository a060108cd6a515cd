"""Validated job specs and the crash-recovering job manager.

A *job* is one unit of simulation work -- an experiment run, a chaos
sweep or a benchmark suite -- submitted over the HTTP API (or ``repro
submit``) as a JSON payload, validated against the experiment registry,
and executed in worker processes through the exact same code path the
CLI uses (:func:`repro.experiments.registry.run_experiment`,
:func:`repro.experiments.chaos.run_chaos`,
:func:`repro.obs.bench.run_suite`), so a job's result is bit-identical
to the equivalent command line.

Identity is the PR-5 provenance triple: a job's ``cache_key`` hashes
``(spec, seed, git_sha)``, its id is derived from the key, and the
result cache is keyed by it -- submitting the same work twice returns
the same job, and a completed job's result is served from storage with
zero trial executions.

Robustness model (the paper's thesis applied to infrastructure):

* **Concurrency** -- the manager runs up to ``concurrency`` jobs at
  once (``repro serve --jobs N``): one worker loop per slot draining a
  FIFO queue.
  Isolation comes from the context-scoped ambient recorder
  (:mod:`repro.obs.context`): each job's execution runs in its own
  ``contextvars`` context, so concurrent jobs can never cross-wire
  their metrics streams.
* **Admission control** -- the queue is bounded in queued jobs.  A
  full queue rejects with :class:`AdmissionError` (HTTP 429 +
  ``Retry-After`` computed from the live jobs -- queued *and* running
  -- times the EMA of job wall time, divided by the worker count)
  instead of accepting work it cannot finish.
* **One retry layer** -- a broken worker pool is retried by the
  :class:`~repro.core.parallel.ParallelTrialRunner` underneath, which
  then finishes the missing trials serially.  Any exception that still
  reaches the manager fails the job on first occurrence: rerunning a
  pure function reproduces the bug, and masking it hides the
  experiment defect.
* **Cancellation** -- ``DELETE /jobs/{id}`` journals a terminal
  ``cancelled`` state.  A queued job is cancelled instantly; a running
  job unwinds cooperatively at its next recorder hook, with every
  completed trial already drained to the checkpoint, so resubmitting
  the same work resumes exactly where the cancel landed.
* **Crash recovery** -- every state transition is journaled through the
  durable :class:`~repro.service.store.JobStore`; on restart, live jobs
  re-enter the queue and resume mid-sweep from their per-job
  :class:`~repro.core.parallel.ParallelTrialRunner` checkpoint, so a
  ``kill -9`` costs at most the trials that were in flight.
* **Graceful degradation** -- journal/ledger/result-cache write
  failures degrade the service to compute-only (reported by
  ``GET /healthz``) rather than crashing it.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.core.countsim import CHAOS_PARAMS
from repro.core.parallel import check_counts
from repro.core.rng import DEFAULT_SEED
from repro.obs.metrics import MetricsRecorder
from repro.obs.promexp import TelemetryRegistry, get_registry
from repro.obs.provenance import git_sha, utc_timestamp
from repro.obs.log import get_logger, job_logger
from repro.obs.spans import attempt_span_id
from repro.service.store import JobStore

__all__ = [
    "AdmissionError",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobSpec",
    "JobKind",
    "JobValidationError",
    "JOB_KINDS",
]

logger = get_logger("service.jobs")

class JobValidationError(ValueError):
    """The submitted payload is not a valid job spec."""


class AdmissionError(RuntimeError):
    """The job queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"job queue is full; retry after ~{retry_after:.0f}s"
        )
        self.retry_after = retry_after


class JobCancelled(RuntimeError):
    """Raised inside the executing sweep to unwind a cancelled job."""


# ---------------------------------------------------------------------------
# Job kinds (executors run in the executor thread; workers do the trials)
# ---------------------------------------------------------------------------

#: A parameter schema: name -> (accepted JSON types, default).  ``None``
#: defaults mean "absent unless provided"; they are dropped from the
#: canonical form so adding an optional knob later does not invalidate
#: existing cache keys.  The chaos kind's schema is
#: :data:`~repro.core.countsim.CHAOS_PARAMS`, shared with ``repro chaos``.
Schema = Dict[str, Tuple[Tuple[type, ...], Any]]

_RUN_PARAMS: Schema = {
    "experiment": ((str,), None),
    "seed": ((int,), DEFAULT_SEED),
    "quick": ((bool,), True),
    "workers": ((int,), None),
    "engine": ((str,), None),
}

_BENCH_PARAMS: Schema = {
    "suite": ((str,), None),
    "seed": ((int,), DEFAULT_SEED),
    "repeats": ((int,), None),
    "cells": ((list, tuple), None),
}


def _check_run(params: Dict[str, Any]) -> None:
    experiment = params.get("experiment")
    if not experiment:
        raise ValueError("'experiment' is required")
    from repro.experiments.registry import all_experiments, check_engine

    if experiment not in all_experiments():
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"known: {', '.join(all_experiments())}"
        )
    check_engine(experiment, params.get("engine"))
    check_counts(workers=params.get("workers"))


def _execute_run(params: Dict[str, Any], checkpoint: Optional[str]) -> Dict[str, Any]:
    from repro.experiments.registry import run_experiment

    report = run_experiment(
        params["experiment"],
        seed=params["seed"],
        quick=params["quick"],
        workers=params.get("workers"),
        engine=params.get("engine"),
        checkpoint=checkpoint,
    )
    return {
        "ok": report.all_passed,
        "result": {
            "experiment": params["experiment"],
            "all_passed": report.all_passed,
            "rows": report.rows,
            "checks": {
                name: {
                    "passed": check.passed,
                    "measured": check.measured,
                    "expected": check.expected,
                }
                for name, check in report.checks.items()
            },
            "markdown": report.render_markdown(),
        },
    }


def _check_chaos(params: Dict[str, Any]) -> None:
    from repro.experiments.chaos import check_chaos_params

    check_chaos_params(params)


def _execute_chaos(params: Dict[str, Any], checkpoint: Optional[str]) -> Dict[str, Any]:
    from repro.experiments.chaos import run_chaos

    result = run_chaos(**params, checkpoint=checkpoint)
    return {"ok": result.all_recovered, "result": result.to_json()}


#: The bench scripts of the source tree, resolved relative to this file
#: (as :func:`~repro.obs.provenance.git_sha` resolves the tree), not the
#: server's working directory.
_BENCH_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "benchmarks")
)


def _bench_suite(params: Dict[str, Any]) -> Any:
    """The bench job's suite, its ``cells`` checked (or ValueError)."""
    from repro.obs import bench as bench_mod

    if not os.path.isdir(_BENCH_DIR):
        raise ValueError(f"no bench scripts: {_BENCH_DIR} is not a directory")
    (suite,) = bench_mod.select_suites(
        bench_mod.discover_suites(_BENCH_DIR),
        [params["suite"]],
        params.get("cells"),
    )
    return suite


def _check_bench(params: Dict[str, Any]) -> None:
    if not params.get("suite"):
        raise ValueError("'suite' is required")
    check_counts(repeats=params.get("repeats"))
    _bench_suite(params)


def _execute_bench(params: Dict[str, Any], checkpoint: Optional[str]) -> Dict[str, Any]:
    from repro.obs import bench as bench_mod

    result = bench_mod.run_suite(
        _bench_suite(params),
        seed=params["seed"],
        repeats=params.get("repeats"),
        cells=params.get("cells"),
    )
    return {"ok": True, "result": result}


class JobKind(NamedTuple):
    """One job kind: its parameter schema, semantic check and executor.

    ``check`` runs at submission on the defaulted parameters (after the
    type checks) and raises :class:`ValueError` naming the problem; it
    imports the live registries lazily.  ``execute`` runs the job from
    its parameters and trial checkpoint (see :func:`execute_spec`).
    ``trials`` counts the trials the parameters fix, for kinds where
    they do (see :attr:`JobSpec.trial_total`).
    """

    params: Schema
    check: Callable[[Dict[str, Any]], None]
    execute: Callable[[Dict[str, Any], Optional[str]], Dict[str, Any]]
    trials: Optional[Callable[[Dict[str, Any]], int]] = None


#: Job kinds the service accepts, mapped onto the CLI verbs.  A ``run``
#: job defaults to ``quick=True`` on purpose, where ``repro run``
#: defaults to the full sizes.
JOB_KINDS: Dict[str, JobKind] = {
    "run": JobKind(_RUN_PARAMS, _check_run, _execute_run),
    "chaos": JobKind(
        {param.name: (param.json_types, param.default) for param in CHAOS_PARAMS},
        _check_chaos,
        _execute_chaos,
        lambda params: len(params["protocols"]) * len(params["ns"]) * params["trials"],
    ),
    "bench": JobKind(_BENCH_PARAMS, _check_bench, _execute_bench),
}


# ---------------------------------------------------------------------------
# Spec validation and execution
# ---------------------------------------------------------------------------


def _check_type(kind: str, name: str, value: Any, accepted: Tuple[type, ...]) -> Any:
    # bool is an int subclass; reject it where int is expected so a
    # payload of {"seed": true} cannot slip through as seed=1.
    boolean = isinstance(value, bool) and bool not in accepted
    if boolean or not isinstance(value, accepted):
        raise JobValidationError(
            f"{kind} job: parameter {name!r} must be "
            f"{'/'.join(t.__name__ for t in accepted)}, "
            f"got {'a boolean' if boolean else type(value).__name__}"
        )
    return list(value) if isinstance(value, tuple) else value


class JobSpec:
    """One validated, canonicalized job specification.

    ``params`` holds the defaulted parameters; canonical serialization
    (sorted keys, ``None`` values dropped) is what the cache key hashes,
    so two payloads describing the same work -- different key order,
    explicit defaults -- share an identity.
    """

    def __init__(self, kind: str, params: Dict[str, Any]):
        self.kind = kind
        self.params = params

    @classmethod
    def from_payload(cls, payload: Any, *, journaled: bool = False) -> "JobSpec":
        """Validate a decoded JSON payload into a spec (or raise).

        ``journaled`` rebuilds a spec from the job journal, ignoring
        fields this release dropped: a journal outlives the release that
        wrote it, and spec fields an older release accepted and this one
        does not (scheduling metadata that never entered the cache key)
        must not drop the live job they belong to.
        """
        if not isinstance(payload, dict):
            raise JobValidationError("job payload must be a JSON object")
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind not in JOB_KINDS:
            raise JobValidationError(
                f"job kind must be one of {list(JOB_KINDS)}, got {kind!r}"
            )
        schema = JOB_KINDS[kind].params
        spec_fields = payload.get("spec", {})
        if not isinstance(spec_fields, dict):
            raise JobValidationError("'spec' must be a JSON object")
        unknown = sorted(set(spec_fields) - set(schema))
        if unknown and not journaled:
            raise JobValidationError(
                f"{kind} job: unknown parameter(s) {unknown}; "
                f"known: {sorted(schema)}"
            )
        params: Dict[str, Any] = {}
        for name, (accepted, default) in schema.items():
            if name in spec_fields and spec_fields[name] is not None:
                params[name] = _check_type(kind, name, spec_fields[name], accepted)
            elif default is not None:
                params[name] = default
        try:
            JOB_KINDS[kind].check(params)
        except ValueError as exc:
            raise JobValidationError(f"{kind} job: {exc}") from None
        return cls(kind, params)

    def canonical(self) -> str:
        """The canonical JSON form (what the cache key hashes)."""
        return json.dumps(
            {"kind": self.kind, "spec": self.params}, sort_keys=True
        )

    def cache_key(self, sha: Optional[str] = None) -> str:
        """Hash of the provenance triple ``(spec, seed, git_sha)``.

        The seed lives inside the spec; the source SHA comes in from
        the outside so that results computed by one tree are never
        served to another -- the same staleness rule the trial
        checkpoint applies.
        """
        sha = sha if sha is not None else (git_sha() or "no-git")
        digest = hashlib.sha256()
        digest.update(self.canonical().encode("utf8"))
        digest.update(b"\x00")
        digest.update(sha.encode("utf8"))
        return digest.hexdigest()

    @property
    def seed(self) -> int:
        return int(self.params.get("seed", DEFAULT_SEED))

    @property
    def trial_total(self) -> Optional[int]:
        """Expected trial count, where the spec determines it.

        Chaos sweeps run exactly ``protocols x ns x trials`` trials;
        run/bench totals depend on the experiment body, so ``None``.
        Feeds the ``repro top`` per-job progress bars.
        """
        trials = JOB_KINDS[self.kind].trials
        return None if trials is None else trials(self.params)


def execute_spec(
    spec: JobSpec,
    *,
    checkpoint: Optional[str] = None,
    recorder: Optional[MetricsRecorder] = None,
) -> Dict[str, Any]:
    """Run one job spec to completion; returns the result document body.

    Trial execution stays in worker processes via the same
    :class:`~repro.core.parallel.ParallelTrialRunner` paths the CLI
    uses; ``checkpoint`` is the job's durable trial journal, so calling
    this again after a crash recomputes only the missing trials and the
    result is bit-identical to an uninterrupted call.

    The ``recording`` scope is context-local (a ``contextvars``
    variable, not a process global), so concurrent ``execute_spec``
    calls in sibling executor threads each see only their own recorder.
    """
    from contextlib import nullcontext

    from repro.obs.context import recording

    scope = recording(recorder) if recorder is not None else nullcontext()
    with scope:
        return JOB_KINDS[spec.kind].execute(spec.params, checkpoint)


# ---------------------------------------------------------------------------
# Jobs and the manager
# ---------------------------------------------------------------------------

#: SSE replay buffer size per job (events beyond it age out oldest-first).
EVENT_BUFFER = 512

#: Job states with no further transitions.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The HELP text of every ``/metrics`` family the manager writes.
_HELP = {
    "repro_jobs": "Jobs known to the manager, by lifecycle state.",
    "repro_queue_depth": "Jobs waiting in the queue.",
    "repro_job_wall_seconds_ema": "Exponential moving average of job "
        "execution wall seconds (feeds Retry-After).",
    "repro_job_wall_seconds": "Job execution wall time, by kind.",
    "repro_jobs_submitted_total": "Jobs admitted to the queue, by kind.",
    "repro_jobs_deduplicated_total": "Submissions answered by an existing "
        "job (idempotent resubmission).",
    "repro_admission_rejected_total": "Submissions rejected because the "
        "queue was full (HTTP 429).",
    "repro_job_transitions_total": "Job state transitions, by target state.",
    "repro_jobs_completed_total": "Jobs that completed successfully, by kind.",
    "repro_jobs_failed_total": "Jobs that reached the failed state.",
    "repro_jobs_cancelled_total": "Jobs that reached the cancelled state.",
    "repro_job_cache_hits_total": "Jobs served from the result cache with "
        "zero trial executions.",
    "repro_recorder_events_total": "Recorder events streamed from running "
        "jobs, by event kind.",
    "repro_recorder_samples_total": "Recorder samples streamed from running "
        "jobs.",
    "repro_trials_completed_total": "Trial spans closed across all jobs, by "
        "terminal status (throughput feed).",
}


class Job:
    """One submitted job: spec, lifecycle state and its event stream."""

    def __init__(self, job_id: str, spec: JobSpec, cache_key: str):
        self.id = job_id
        self.spec = spec
        self.cache_key = cache_key
        self.state = "queued"
        self.attempt = 0
        self.error: Optional[str] = None
        self.cache_hit = False
        self.created_unix = utc_timestamp()
        self.updated_unix = self.created_unix
        self.wall_seconds: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        #: Live progress, folded from the job's records as they publish.
        self.event_counts: Dict[str, int] = {}
        #: Trials whose span closed ``ok``.
        self.trials_done = 0
        #: Cancellation: the flag is read on the event loop, the event
        #: is polled by the executing sweep's recorder hooks.
        self.cancel_requested = False
        self.cancel_event = threading.Event()
        #: Replay buffer for SSE: (sequence, record) pairs.
        self.events: Deque[Tuple[int, Dict[str, Any]]] = deque(maxlen=EVENT_BUFFER)
        self._event_seq = 0
        self._subscribers: List[asyncio.Queue] = []

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def request_cancel(self) -> None:
        """Flag the job for cancellation (idempotent, thread-visible)."""
        self.cancel_requested = True
        self.cancel_event.set()

    def publish(self, record: Dict[str, Any]) -> None:
        """Append to the replay buffer and fan out to live subscribers.

        Event-loop thread only: :meth:`JobManager._publish` folds each
        record into progress and telemetry, then hands it here.
        """
        self._event_seq += 1
        entry = (self._event_seq, record)
        self.events.append(entry)
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(entry)
            except asyncio.QueueFull:  # slow consumer: drop, SSE is lossy
                pass

    def subscribe(self) -> "asyncio.Queue[Tuple[int, Dict[str, Any]]]":
        queue: asyncio.Queue = asyncio.Queue(maxsize=EVENT_BUFFER)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def to_document(self) -> Dict[str, Any]:
        """The JSON document ``GET /jobs/{id}`` serves."""
        document: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "spec": self.spec.params,
            "cache_key": self.cache_key,
            "state": self.state,
            "attempt": self.attempt,
            "cache_hit": self.cache_hit,
            "created_unix": round(self.created_unix, 3),
            "updated_unix": round(self.updated_unix, 3),
        }
        if self.cancel_requested:
            document["cancel_requested"] = True
        if self.trials_done:
            document["trials_done"] = self.trials_done
        if self.spec.trial_total is not None:
            document["trials_total"] = self.spec.trial_total
        if self.error is not None:
            document["error"] = self.error
        if self.wall_seconds is not None:
            document["wall_seconds"] = round(self.wall_seconds, 6)
        if self.event_counts:
            document["event_counts"] = self.event_counts
        if self.result is not None:
            document["ok"] = self.result.get("ok")
        return document


class _ForwardingRecorder(MetricsRecorder):
    """A recorder that mirrors events/samples to a thread-safe callback.

    The callback receives plain dict records (already stamped with
    their type), which the manager hops onto the event loop to publish
    as SSE.  Recording stays bit-identical: forwarding never touches
    engine RNG, exactly like tracing.

    The recorder doubles as the job's cancellation channel: its hooks
    are the one code path that reaches into a running sweep from
    outside, firing between trials (checkpoint writes, trial span
    begins) and inside serial trials (samples).  When the job's cancel
    event is set, the
    next hook raises :class:`JobCancelled`, unwinding the sweep with
    every completed trial already drained to the checkpoint.
    """

    def __init__(
        self,
        forward: Callable[[Dict[str, Any]], None],
        *,
        cancel: Optional["threading.Event"] = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self._forward = forward
        self._cancel = cancel

    def _check_cancelled(self) -> None:
        if self._cancel is not None and self._cancel.is_set():
            raise JobCancelled("job cancelled")

    def event(self, kind: str, **fields: Any) -> None:
        self._check_cancelled()
        super().event(kind, **fields)
        self._forward({"type": "event", "kind": kind, **fields})

    def sample(self, *, t: float, **fields: Any) -> None:
        self._check_cancelled()
        super().sample(t=t, **fields)
        self._forward({"type": "sample", "t": t, **fields})

    def begin_span(self, kind: str, span_id: str, **kwargs: Any) -> None:
        self._check_cancelled()
        super().begin_span(kind, span_id, **kwargs)
        self._forward({"type": "span", **self.spans[-1]})

    def end_span(self, span_id: str, status: str = "ok", **fields: Any) -> None:
        # Deliberately no cancel check: span closure is unwind work --
        # raising here would leave the tree dangling mid-cancellation.
        was_open = span_id in self.open_spans
        super().end_span(span_id, status=status, **fields)
        if was_open:
            self._forward({"type": "span", **self.spans[-1]})


class JobManager:
    """Bounded-queue concurrent job execution with crash recovery.

    One manager owns one :class:`~repro.service.store.JobStore` and
    ``concurrency`` worker loops over a shared thread pool, so up to
    ``concurrency`` jobs execute at once (each job's *trials* further
    parallelize across worker processes).  Job isolation rests on the
    context-scoped ambient recorder: every execution runs inside its
    own ``contextvars`` context.  All public methods are
    event-loop-thread only.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        max_queue: int = 16,
        concurrency: int = 1,
        ledger_path: Optional[str] = None,
        default_workers: Optional[int] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        check_counts(max_queue=max_queue, concurrency=concurrency)
        self.store = store
        #: Process-wide operational metrics (served by ``GET /metrics``).
        #: Tests pass their own registry to isolate counts.
        self.telemetry = telemetry if telemetry is not None else get_registry()
        self.max_queue = max_queue
        self.concurrency = concurrency
        self.ledger_path = ledger_path
        self.default_workers = default_workers
        self.jobs: Dict[str, Job] = {}
        #: FIFO of jobs to run; entries whose job was cancelled while
        #: queued are skipped at dequeue.
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self._worker_tasks: List[asyncio.Task] = []
        self._executor: Any = None
        #: EMA of job wall seconds, seeding the 429 Retry-After estimate:
        #: a guess until the first job finishes, then that job's wall.
        self._mean_wall = 10.0
        self._wall_seen = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> int:
        """Recover journaled jobs and start the workers; returns the
        number of jobs re-admitted from the journal."""
        import concurrent.futures

        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-job"
        )
        recovered = 0
        for job_id, document in sorted(self.store.recover().items()):
            state = document.get("state")
            payload = document.get("payload")
            if job_id in self.jobs or not isinstance(payload, dict):
                continue
            try:
                spec = JobSpec.from_payload(payload, journaled=True)
            except JobValidationError as exc:
                logger.warning("recovery: job %s dropped (%s)", job_id, exc)
                continue
            job = Job(job_id, spec, document.get("cache_key", spec.cache_key()))
            job.attempt = int(document.get("attempt", 0))
            # ``retrying`` is a live state only older releases journal.
            if state in ("queued", "running", "retrying"):
                # Live when the process died: re-admit.  A previously
                # ``running`` job resumes mid-sweep from its trial
                # checkpoint -- completed trials are never recomputed.
                job.state = "queued"
                self.jobs[job_id] = job
                self.store.append(
                    {"job": job_id, "state": "queued", "recovered": True,
                     "ts": round(utc_timestamp(), 3)}
                )
                self._queue.put_nowait(job)
                recovered += 1
            elif state in TERMINAL_STATES:
                job.state = state
                job.error = document.get("error")
                job.cache_hit = bool(document.get("cache_hit", False))
                if state == "done":
                    job.result = self.store.load_result(job.cache_key)
                    if job.result is not None:
                        job.event_counts = dict(
                            job.result.get("event_counts", {})
                        )
                        job.trials_done = int(job.result.get("trials_done", 0))
                self.jobs[job_id] = job
        self._worker_tasks = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.concurrency)
        ]
        if recovered:
            logger.warning("recovery: re-admitted %d live job(s)", recovered)
        return recovered

    async def stop(self) -> None:
        """Stop the worker loops; queued jobs stay journaled for restart."""
        tasks, self._worker_tasks = self._worker_tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # -- submission -----------------------------------------------------

    def queue_depth(self) -> int:
        return self.backlog()

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def backlog(self, states: Tuple[str, ...] = ("queued",)) -> int:
        """Jobs in the given states (admission bounds the queued ones)."""
        return sum(1 for job in self.jobs.values() if job.state in states)

    def retry_after_estimate(self) -> float:
        """Seconds until the queue likely has room (for ``Retry-After``).

        The backlog counts queued and running jobs alike: a running job
        still holds a worker slot the queued ones wait for.
        """
        backlog = self.backlog(("queued", "running"))
        per_slot = self._mean_wall * max(1, backlog) / max(1, self.concurrency)
        return max(1.0, round(per_slot, 1))

    # -- telemetry ------------------------------------------------------

    def update_gauges(self) -> None:
        """Refresh the point-in-time gauges (called on every transition
        and defensively at scrape time from ``GET /metrics``)."""
        counts = self.counts()
        for state in ("queued", "running") + TERMINAL_STATES:
            self.telemetry.gauge(
                "repro_jobs", counts.get(state, 0), labels={"state": state},
                help_text=_HELP["repro_jobs"],
            )
        for name, value in (
            ("repro_queue_depth", self.queue_depth()),
            ("repro_job_wall_seconds_ema", round(self._mean_wall, 6)),
        ):
            self.telemetry.gauge(name, value, help_text=_HELP[name])

    def submit(self, payload: Any) -> Tuple[Job, bool]:
        """Admit one job payload; returns ``(job, created)``.

        Idempotent by construction: the job id derives from the cache
        key, so resubmitting identical work returns the existing job --
        live or completed -- rather than queueing a duplicate.  A full
        queue raises :class:`AdmissionError`; an invalid payload raises
        :class:`JobValidationError`.
        """
        spec = JobSpec.from_payload(payload)
        cache_key = spec.cache_key()
        job_id = f"job-{cache_key[:16]}"
        existing = self.jobs.get(job_id)
        if existing is not None and existing.state not in ("failed", "cancelled"):
            name = "repro_jobs_deduplicated_total"
            self.telemetry.counter(name, help_text=_HELP[name])
            return existing, False
        # A previously failed or cancelled job may be resubmitted:
        # same identity, same checkpoint (trials completed before the
        # failure/cancel still count).
        backlog = self.backlog()
        if backlog >= self.max_queue:
            retry_after = self.retry_after_estimate()
            name = "repro_admission_rejected_total"
            self.telemetry.counter(name, help_text=_HELP[name])
            job_logger(logger, job_id).warning(
                "admission rejected: kind=%s backlog=%d/%d retry_after=%.1fs",
                spec.kind, backlog, self.max_queue, retry_after,
            )
            raise AdmissionError(retry_after)
        name = "repro_jobs_submitted_total"
        self.telemetry.counter(
            name, labels={"kind": spec.kind}, help_text=_HELP[name]
        )
        job_logger(logger, job_id).info(
            "admitted: kind=%s backlog=%d/%d",
            spec.kind, backlog + 1, self.max_queue,
        )
        job = Job(job_id, spec, cache_key)
        self.jobs[job_id] = job
        self.store.append(
            {
                "job": job_id,
                "state": "queued",
                "payload": {"kind": spec.kind, "spec": spec.params},
                "cache_key": cache_key,
                "ts": round(job.created_unix, 3),
            }
        )
        self._queue.put_nowait(job)
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    # -- cancellation ---------------------------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; returns it, or ``None`` if unknown.

        A queued job is journaled ``cancelled`` immediately and its
        queue slot freed; a running job is flagged and unwinds at its
        next recorder hook, after which
        :meth:`_run_job` journals the terminal ``cancelled`` state.
        Completed trials stay in the checkpoint, so resubmitting the
        same work resumes where the cancel landed.  Cancelling a
        terminal job is a no-op (the caller decides how to report it).
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.terminal:
            return job
        job.request_cancel()
        job_logger(logger, job.id).info(
            "cancel requested while %s", job.state
        )
        if job.state == "queued":
            self._finish_cancelled(job)
        return job

    # -- execution ------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job.terminal:
                continue  # cancelled while queued: stale entry
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: the loop must survive
                logger.warning("job %s: unexpected manager error: %s", job.id, exc)
                self._transition(job, "failed", error=f"internal: {exc}")

    def _transition(self, job: Job, state: str, **fields: Any) -> None:
        job.state = state
        job.updated_unix = utc_timestamp()
        if "error" in fields:
            job.error = fields["error"]
        self.store.append(
            {"job": job.id, "state": state, "attempt": job.attempt,
             "ts": round(job.updated_unix, 3), **fields}
        )
        self.update_gauges()
        self._publish(job, {"type": "state", "state": state,
                            "attempt": job.attempt, **fields})

    def _publish(self, job: Job, record: Dict[str, Any]) -> None:
        """Fold one job record into live progress and ``/metrics``, then
        publish it to the job's SSE stream.

        The one place that knows what a record means for telemetry.
        Every record a job emits passes through here, on the event
        loop: the events, samples and spans its recorder forwards, and
        the ``state`` records of :meth:`_transition`.  A scrape taken
        after a job's terminal state record therefore sees all of that
        job's counts.
        """
        rtype = record.get("type")
        counts: List[Tuple[str, Optional[Dict[str, str]]]] = []
        if rtype == "event":
            kind = record["kind"]
            job.event_counts[kind] = job.event_counts.get(kind, 0) + 1
            counts.append(("repro_recorder_events_total", {"kind": str(kind)}))
        elif rtype == "sample":
            counts.append(("repro_recorder_samples_total", None))
        elif (
            rtype == "span"
            and record.get("op") == "end"
            and record.get("kind") == "trial"
        ):
            status = str(record.get("status"))
            if status == "ok":
                job.trials_done += 1
            counts.append(("repro_trials_completed_total", {"status": status}))
        elif rtype == "state":
            state = record["state"]
            counts.append(("repro_job_transitions_total", {"state": state}))
            if state == "done":
                counts.append(
                    ("repro_jobs_completed_total", {"kind": job.spec.kind})
                )
            elif state == "failed":
                counts.append(("repro_jobs_failed_total", None))
            elif state == "cancelled":
                counts.append(("repro_jobs_cancelled_total", None))
            if record.get("cache_hit"):
                counts.append(("repro_job_cache_hits_total", None))
        for name, labels in counts:
            self.telemetry.counter(name, labels=labels, help_text=_HELP[name])
        job.publish(record)

    def _finish_cancelled(self, job: Job) -> None:
        self._transition(job, "cancelled", reason="client request")
        self._ledger(job)

    async def _run_job(self, job: Job) -> None:
        """Run one attempt of ``job`` on this worker's slot."""
        log = job_logger(logger, job.id)
        # Result-cache short circuit: identical (spec, seed, sha) work
        # already completed -- serve it with zero trial executions.
        cached = self.store.load_result(job.cache_key)
        if cached is not None:
            job.result = cached
            job.cache_hit = True
            job.wall_seconds = 0.0
            job.event_counts = dict(cached.get("event_counts", {}))
            log.info("served from result cache (key %s)", job.cache_key[:16])
            self._transition(job, "done", cache_hit=True, wall_seconds=0.0)
            self._ledger(job)
            return
        loop = asyncio.get_running_loop()
        loop_thread = threading.get_ident()

        def forward(record: Dict[str, Any]) -> None:
            # The executing sweep hops onto the event loop.  Spans the
            # manager opens and closes itself are already on it and fold
            # at once, so an unwind's closed trial counts before the
            # terminal state does.
            if threading.get_ident() == loop_thread:
                self._publish(job, record)
            else:
                loop.call_soon_threadsafe(self._publish, job, record)

        job.attempt += 1
        self._transition(job, "running")
        recorder = _ForwardingRecorder(forward, cancel=job.cancel_event)
        spec = job.spec
        if self.default_workers and "workers" not in spec.params:
            spec = JobSpec(
                spec.kind, {**spec.params, "workers": self.default_workers}
            )
        attempt_span = attempt_span_id(job.id, job.attempt)
        started = time.perf_counter()
        try:
            # The causal root of everything this attempt does: trial
            # spans opened by the runner parent under the attempt.
            # Opened inside the try block because begin_span doubles as
            # a cancellation point.
            recorder.begin_span("job", job.id, name=job.spec.kind)
            recorder.begin_span(
                "attempt", attempt_span, parent=job.id, attempt=job.attempt
            )
            body = await self._execute(spec, job, recorder)
        except Exception as exc:
            if job.cancel_requested:
                # The sweep unwound via JobCancelled (possibly wrapped
                # by an intermediate layer): completed trials are in
                # the checkpoint, the slot frees now.  Open spans --
                # including any trial span the unwind interrupted --
                # close "cancelled", innermost first, so the SSE stream
                # carries a well-formed tree.
                recorder.close_open_spans("cancelled")
                log.info("cancelled mid-run")
                self._finish_cancelled(job)
                return
            recorder.close_open_spans("failed")
            log.warning("failed: %s: %s", type(exc).__name__, exc)
            self._transition(job, "failed", error=f"{type(exc).__name__}: {exc}")
            self._ledger(job)
            return
        recorder.end_span(attempt_span, status="ok")
        recorder.end_span(job.id, status="ok")
        wall = time.perf_counter() - started
        job.wall_seconds = wall
        if self._wall_seen:
            self._mean_wall = 0.7 * self._mean_wall + 0.3 * wall
        else:
            self._mean_wall = wall
            self._wall_seen = True
        self.telemetry.observe(
            "repro_job_wall_seconds", wall, labels={"kind": job.spec.kind},
            help_text=_HELP["repro_job_wall_seconds"],
        )
        log.info(
            "done: ok=%s wall=%.3fs attempt=%d",
            body.get("ok"), wall, job.attempt,
        )
        document = {
            "cache_key": job.cache_key,
            "kind": job.spec.kind,
            "spec": job.spec.params,
            "git_sha": git_sha(),
            "wall_seconds": round(wall, 6),
            "event_counts": job.event_counts,
            "trials_done": job.trials_done,
            **body,
        }
        job.result = document
        self.store.write_result(job.cache_key, document)
        self._transition(
            job, "done", wall_seconds=round(wall, 6), ok=body.get("ok")
        )
        self._ledger(job)

    async def _execute(
        self, spec: JobSpec, job: Job, recorder: MetricsRecorder
    ) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        # Each execution runs in a copy of the submitting context, so
        # the ambient-recorder ContextVar set inside execute_spec is
        # scoped to this job alone -- concurrent jobs in sibling
        # executor threads cannot cross-wire their metrics streams.
        context = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor,
            lambda: context.run(
                execute_spec,
                spec,
                checkpoint=self.store.checkpoint_path(job.id),
                recorder=recorder,
            ),
        )

    def _ledger(self, job: Job) -> None:
        """Stamp the finished job into the PR-5 run ledger (never raises)."""
        from repro.obs.ledger import record_invocation

        try:
            record_invocation(
                "job",
                path=self.ledger_path,
                job_id=job.id,
                job_kind=job.spec.kind,
                cache_key=job.cache_key,
                state=job.state,
                attempt=job.attempt,
                cache_hit=job.cache_hit or None,
                error=job.error,
                wall_seconds=(
                    round(job.wall_seconds, 6)
                    if job.wall_seconds is not None
                    else None
                ),
                ok=(job.result or {}).get("ok"),
            )
        except Exception as exc:  # pragma: no cover - ledger never kills jobs
            logger.warning("job %s: ledger stamp failed: %s", job.id, exc)
