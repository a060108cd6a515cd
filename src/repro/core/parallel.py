"""Process-pool fan-out for independent simulation trials.

Experiment runners repeat the same measurement across independent
seeded trials; the trials share nothing, so they parallelize perfectly.
:class:`ParallelTrialRunner` fans a task out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
package's reproducibility contract exactly: each trial's RNG is derived
*inside the worker* from the same ``(root_seed, *labels, index)`` path
:func:`repro.core.rng.make_rng` would use serially, so results are
bit-identical whether a run uses 1 worker or 32 -- or crashes halfway
and resumes from a checkpoint.

Fault tolerance
---------------
The runner distinguishes two failure classes:

* **Task errors** -- the trial itself raised.  These are *real*
  failures: they propagate immediately as :class:`TrialTaskError`
  carrying the trial index and the worker-side traceback, never
  triggering reruns (rerunning a deterministic trial reproduces the
  same error, and silently masking it hides the experiment bug).
* **Pool infrastructure errors** -- a worker crashed (OOM-kill,
  ``BrokenProcessPool``) or the platform cannot start processes.
  Trials are pure, so the runner retries *only the missing trials* on
  a fresh pool (:data:`POOL_RETRIES` rounds, exponential backoff with
  jitter between rounds), then finishes the stragglers serially.  This
  is the package's one retry layer: the job service above it fails a
  job on the first exception that reaches it.

With ``checkpoint=`` set, every finished trial is appended to an
on-disk journal keyed by ``(seed, labels, git_sha)``; a re-run with the
same arguments loads finished trials and computes only the rest, so a
killed long experiment loses nothing.  The git SHA is part of the key
on purpose: a checkpoint written by a *different source tree* must be
ignored, not silently reused -- the code that produced those trials is
not the code resuming them.  Checkpointed runs also install a
SIGTERM/SIGINT scope (main thread only) that, on delivery, drains
already-completed in-flight trials into the journal before re-raising,
so a polite kill wastes no finished work.  Journal appends that hit a
failing disk (ENOSPC, EIO) degrade to a one-time warning per path and
the run continues on its in-memory results -- checkpointing observes a
run, it never kills one.

Tasks must be picklable (module-level functions, optionally wrapped in
:func:`functools.partial`); if a task is not picklable the runner
degrades to the serial path.

Worker-level trace shards
-------------------------
When the ambient recorder carries a :class:`~repro.obs.trace.TraceWriter`
the runner instruments the trials themselves -- the layer pooled runs
used to leave dark.  Every trial (serial *and* pooled, so the two paths
stay byte-comparable) runs under its own fresh recorder writing a
*shard* trace keyed by the trial's ``(seed, *labels, index)`` span; the
parent merges the shards back into the main trace in trial order after
the run.  Because shard records are deterministic engine output (samples
and events; timing records only appear under ``profile``), the merged
record stream from a parallel run is byte-identical to a serial run of
the same seed.  Shard files stay on disk next to the parent trace for
postmortems unless the recorder sets ``keep_shards=False``, in which
case each shard is unlinked once merged.  Every traced trial also opens
and closes a ``trial`` span (see :mod:`repro.obs.spans`) inside its
shard; untraced recorded runs get harvest-time trial spans on the
parent recorder instead, which is how the service streams per-trial
progress.  With no trace attached, nothing changes: pooled workers
start with no recorder and the hot paths keep their single ``None``
check.
"""

from __future__ import annotations

import os
import pickle
import random
import time
import traceback
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.rng import Label, make_rng
from repro.obs import provenance
from repro.obs.context import current_recorder
from repro.obs.log import get_logger

_LOG = get_logger("parallel")

#: A trial task: called with the trial's derived RNG, returns any
#: picklable result.
TrialTask = Callable[[random.Random], Any]

__all__ = ["ParallelTrialRunner", "TrialTaskError"]

#: How many times a *pool-level* failure (broken worker, failed spawn)
#: is retried with a fresh pool before the missing trials run serially.
POOL_RETRIES = 2

#: Base of the exponential backoff between pool retry rounds, in
#: seconds; round ``k`` sleeps ``POOL_BACKOFF * 2**k`` scaled by a
#: uniform jitter in [0.5, 1.5).  ``0`` disables the sleep.
POOL_BACKOFF = 0.25


class TrialTaskError(RuntimeError):
    """A trial's task raised; carries the trial index and remote traceback."""

    def __init__(self, index: int, message: str, remote_traceback: str = ""):
        super().__init__(f"trial {index} failed: {message}")
        self.index = index
        self.remote_traceback = remote_traceback


class _SignalDrain(BaseException):
    """Internal: SIGTERM/SIGINT arrived inside a checkpointed run.

    A ``BaseException`` so it sails past the task-error handlers --
    draining is the runner's business, not the trial's.
    """

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


class _TrialFailure:
    """Picklable record of a worker-side exception (no exception objects
    cross the pipe: user exception classes may not unpickle cleanly)."""

    __slots__ = ("kind", "message", "remote_traceback")

    def __init__(self, kind: str, message: str, remote_traceback: str):
        self.kind = kind
        self.message = message
        self.remote_traceback = remote_traceback


def _run_trial(task: TrialTask, seed: int, labels: Tuple[Label, ...], index: int) -> Any:
    """Top-level worker body (must be importable for pickling)."""
    return task(make_rng(seed, *labels, index))


class _ShardSpec:
    """Picklable recipe for per-trial shard recorders.

    Carries everything a worker needs to reconstruct the parent's
    recording configuration: where shards live (next to the parent
    trace) and the recorder parameters, so a shard sample stream is
    what the parent recorder would have captured in-process.
    ``parent_span`` is the innermost span open on the parent recorder
    (the job attempt, under the service) so merged trial spans parent
    correctly; it is part of the spec, hence identical for serial and
    pooled runs of the same configuration.
    """

    __slots__ = ("trace_path", "sample_every", "profile", "parent_span")

    def __init__(
        self,
        trace_path: str,
        sample_every: int,
        profile: bool,
        parent_span: Optional[str] = None,
    ):
        self.trace_path = trace_path
        self.sample_every = sample_every
        self.profile = profile
        self.parent_span = parent_span


def _trial_shard_scope(
    spec: _ShardSpec, seed: int, labels: Tuple[Label, ...], index: int
) -> Any:
    """Context manager: a fresh shard recorder installed as ambient.

    Used identically by the serial loop and the pooled worker body --
    sharing one code path is what makes the two merge outputs
    byte-identical.
    """
    from contextlib import ExitStack

    from repro.obs.context import recording
    from repro.obs.metrics import MetricsRecorder
    from repro.obs.trace import TraceWriter, shard_path, span_id

    from repro.obs.spans import stage_span_id

    stack = ExitStack()
    trial_span = span_id(seed, labels, index)
    writer = stack.enter_context(TraceWriter(
        shard_path(spec.trace_path, index),
        header_extra={
            "span": trial_span,
            "seed": seed,
            "labels": list(labels),
            "trial": index,
        },
    ))
    recorder = MetricsRecorder(
        sample_every=spec.sample_every, trace=writer, profile=spec.profile
    )
    stack.enter_context(recording(recorder))
    recorder.begin_span(
        "trial", trial_span, parent=spec.parent_span, trial=index
    )
    if spec.profile:
        # Written at close, after the task ran: per-trial stage timings
        # (pair_sampling / transition / resync) land in the shard --
        # and hence the merged trace -- only under profiling, keeping
        # unprofiled traces free of run-to-run timing noise.
        stack.callback(
            lambda: writer.write("aggregate", {"trial": index, **recorder.aggregates()})
        )

    def _close_trial_span(exc_type: Any, exc: Any, tb: Any) -> bool:
        # Runs before the aggregate callback (LIFO), so the shard reads
        # spans-then-aggregate.  Stage spans reflect the engine's
        # profiled stage timers -- wall-clock, hence profiling-only,
        # like every other timing record in a shard.
        if spec.profile:
            for stage in sorted(recorder.stage_seconds):
                sid = stage_span_id(trial_span, stage)
                recorder.begin_span("stage", sid, parent=trial_span, name=stage)
                recorder.end_span(
                    sid, wall_seconds=round(recorder.stage_seconds[stage], 6)
                )
        recorder.end_span(
            trial_span, status="ok" if exc_type is None else "failed"
        )
        return False

    stack.push(_close_trial_span)
    return stack


def _run_trial_sharded(
    task: TrialTask,
    seed: int,
    labels: Tuple[Label, ...],
    index: int,
    spec: _ShardSpec,
) -> Any:
    """Worker body for traced pooled runs: guarded, under a shard recorder."""
    try:
        with _trial_shard_scope(spec, seed, labels, index):
            wall = time.perf_counter()
            cpu = time.process_time()
            value = task(make_rng(seed, *labels, index))
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
    except BaseException as exc:  # noqa: B036 - reported, not swallowed
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return _TrialFailure(type(exc).__name__, str(exc), traceback.format_exc())
    if spec.profile:
        return _TrialTiming(value, wall, cpu)
    return value


class _TrialTiming:
    """Picklable per-trial timing envelope (profiled pooled runs only)."""

    __slots__ = ("value", "wall_seconds", "cpu_seconds")

    def __init__(self, value: Any, wall_seconds: float, cpu_seconds: float):
        self.value = value
        self.wall_seconds = wall_seconds
        self.cpu_seconds = cpu_seconds


def _run_trial_timed(
    task: TrialTask, seed: int, labels: Tuple[Label, ...], index: int
) -> Any:
    """Worker body wrapping :func:`_run_trial_guarded` in wall/CPU timers.

    Workers never see the parent's recorder (the ambient context is
    process-local by design), so timing crosses the pipe as data and the
    parent emits the ``trial`` events at harvest time.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    value = _run_trial_guarded(task, seed, labels, index)
    if isinstance(value, _TrialFailure):
        return value
    return _TrialTiming(
        value, time.perf_counter() - wall, time.process_time() - cpu
    )


def _run_trial_guarded(
    task: TrialTask, seed: int, labels: Tuple[Label, ...], index: int
) -> Any:
    """Worker body that captures task exceptions as data.

    An exception raised *by the task* comes back as a
    :class:`_TrialFailure` value rather than through the future's
    exception channel, which keeps it cleanly distinguishable from pool
    infrastructure failures (a dead worker also surfaces as a future
    exception -- ``BrokenProcessPool``).
    """
    try:
        return task(make_rng(seed, *labels, index))
    except BaseException as exc:  # noqa: B036 - reported, not swallowed
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return _TrialFailure(type(exc).__name__, str(exc), traceback.format_exc())


class ParallelTrialRunner:
    """Runs independent trials, optionally across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` or ``1`` selects the
        serial path (no processes are spawned); values above 1 enable
        the pool.  The pool size never exceeds the trial count.
    checkpoint:
        Optional path to an on-disk trial journal.  Finished trials are
        appended as they complete; a later call with the same ``seed``
        and ``labels`` loads them and computes only the missing ones.

    The ambient recorder installed at :meth:`map_trials` time (see
    :mod:`repro.obs.context`) receives ``checkpoint-write`` and
    ``worker-retry`` events, and -- with ``recorder.profile`` --
    per-trial ``trial`` events carrying wall/CPU seconds.  Worker
    processes stay uninstrumented; timing crosses the pipe as data.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        checkpoint: Optional[str] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or 1
        self.checkpoint = checkpoint
        self._obs: Optional[Any] = None  # resolved per map_trials call
        self._shard_spec: Optional[_ShardSpec] = None  # ditto
        self._run_key: Optional[_RunKey] = None  # ditto
        self._parent_span: Optional[str] = None  # ditto

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map_trials(
        self,
        task: TrialTask,
        *,
        seed: int,
        labels: Union[Label, Sequence[Label]],
        trials: int,
    ) -> List[Any]:
        """Run ``task`` for ``trials`` independent derived RNG streams.

        Trial ``i`` receives ``make_rng(seed, *labels, i)`` -- the exact
        stream the serial experiment helpers use -- and results come
        back in trial order.  A task exception propagates as
        :class:`TrialTaskError` with the failing trial's index.
        """
        if isinstance(labels, (str, int)):
            labels = (labels,)
        label_path: Tuple[Label, ...] = tuple(labels)
        # The git SHA completes the provenance triple: trials journaled
        # by one source tree must not satisfy a resume from another.
        run_key: _RunKey = (seed, label_path, provenance.git_sha())
        self._run_key = run_key
        self._obs = current_recorder()
        trace = getattr(self._obs, "trace", None)
        # Trial spans parent under whatever span the caller has open --
        # the job attempt when the service runs us, nothing for a bare
        # CLI run.  Innermost open span wins (dict preserves open order).
        open_spans = getattr(self._obs, "open_spans", None)
        parent_span: Optional[str] = (
            next(reversed(open_spans)) if open_spans else None
        )
        self._parent_span = parent_span
        self._shard_spec = (
            _ShardSpec(
                trace.path,
                self._obs.sample_every,
                bool(getattr(self._obs, "profile", False)),
                parent_span,
            )
            if trace is not None
            else None
        )
        done: Dict[int, Any] = {}
        if self.checkpoint:
            done = {
                index: value
                for index, value in _load_checkpoint(self.checkpoint, run_key).items()
                if 0 <= index < trials
            }
        pending = [index for index in range(trials) if index not in done]
        if pending:
            pooled = (
                self.workers > 1 and len(pending) > 1 and _picklable(task)
            )
            with self._graceful_signal_scope():
                if pooled:
                    fresh = self._map_pooled(task, seed, label_path, pending)
                else:
                    fresh = self._map_serial(task, seed, label_path, pending)
            done.update(fresh)
            if self._shard_spec is not None:
                self._merge_shards(pending)
        return [done[index] for index in range(trials)]

    @contextmanager
    def _graceful_signal_scope(self) -> Iterator[None]:
        """Drain-then-re-raise handling for SIGTERM/SIGINT.

        Installed only for checkpointed runs on the main thread (signal
        handlers cannot be installed elsewhere, and without a journal
        there is nothing to save).  On delivery the handler raises
        :class:`_SignalDrain`, which unwinds through the pooled harvest
        loop -- whose ``except`` clause journals every future that had
        already completed -- and is converted here to the conventional
        exception for the signal: ``KeyboardInterrupt`` for SIGINT,
        ``SystemExit(128 + signum)`` for SIGTERM.  Serial trials need no
        drain: each one is journaled the moment it finishes.
        """
        if not self.checkpoint:
            yield
            return
        import signal
        import threading

        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous: Dict[int, Any] = {}

        def _handler(signum: int, frame: Any) -> None:
            raise _SignalDrain(signum)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - exotic platform
                continue
        try:
            yield
        except _SignalDrain as drain:
            _LOG.warning(
                "signal %d: drained in-flight trials to %s; re-raising",
                drain.signum,
                self.checkpoint,
            )
            if drain.signum == signal.SIGINT:
                raise KeyboardInterrupt() from None
            raise SystemExit(128 + drain.signum) from None
        finally:
            for sig, handler in previous.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def _merge_shards(self, indices: Sequence[int]) -> None:
        """Fold per-trial shards into the parent trace, in trial order.

        Trial order (not completion order) is what makes the merged
        stream deterministic; checkpoint-resumed trials wrote their
        shards in an earlier run and are not re-merged.  Shards stay on
        disk for postmortems unless the recorder opted out
        (``keep_shards=False``): then each shard is unlinked once its
        records are safely in the parent trace.
        """
        from repro.obs.trace import merge_trace_shards, shard_path

        assert self._shard_spec is not None and self._obs is not None
        paths = [
            shard_path(self._shard_spec.trace_path, index)
            for index in sorted(indices)
        ]
        merged = merge_trace_shards(self._obs.trace, paths)
        _LOG.debug(
            "merged %d shard record(s) from %d trial(s) into %s",
            merged,
            len(paths),
            self._shard_spec.trace_path,
        )
        if not getattr(self._obs, "keep_shards", True):
            # Flush first: a shard must never die before its records
            # are durably in the parent trace.
            self._obs.trace.flush()
            removed = 0
            for path in paths:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    continue
            _LOG.debug("removed %d merged shard file(s)", removed)

    # -- serial path ----------------------------------------------------

    def _map_serial(
        self,
        task: TrialTask,
        seed: int,
        labels: Tuple[Label, ...],
        pending: Sequence[int],
    ) -> Dict[int, Any]:
        results: Dict[int, Any] = {}
        run_key = self._run_key or (seed, labels, provenance.git_sha())
        obs = self._obs
        spec = self._shard_spec
        profiling = obs is not None and getattr(obs, "profile", False)
        # Untraced recorded runs get their trial spans on the parent
        # recorder (the service path: spans stream to SSE subscribers);
        # traced runs record them inside the shard scope instead.
        emit_spans = (
            obs is not None and spec is None and hasattr(obs, "begin_span")
        )
        if emit_spans:
            from repro.obs.trace import span_id as trial_span_id
        for index in pending:
            trial_span: Optional[str] = None
            if emit_spans:
                trial_span = trial_span_id(seed, labels, index)
                obs.begin_span(
                    "trial", trial_span, parent=self._parent_span, trial=index
                )
            wall = time.perf_counter() if profiling else 0.0
            cpu = time.process_time() if profiling else 0.0
            try:
                if spec is not None:
                    # Traced runs shard serially too: the trial records
                    # into its own span exactly as a pooled worker
                    # would, so serial and pooled merges are
                    # byte-comparable.
                    with _trial_shard_scope(spec, seed, labels, index):
                        value = _run_trial(task, seed, labels, index)
                else:
                    value = _run_trial(task, seed, labels, index)
            except Exception as exc:
                if trial_span is not None:
                    obs.end_span(trial_span, status="failed")
                raise TrialTaskError(
                    index, f"{type(exc).__name__}: {exc}", traceback.format_exc()
                ) from exc
            if profiling:
                obs.event(
                    "trial",
                    index=index,
                    wall_seconds=time.perf_counter() - wall,
                    cpu_seconds=time.process_time() - cpu,
                    pooled=False,
                )
            if trial_span is not None:
                obs.end_span(trial_span)
            results[index] = value
            if self.checkpoint:
                self._checkpoint_write(run_key, index, value)
        return results

    def _checkpoint_write(self, run_key: "_RunKey", index: int, value: Any) -> None:
        assert self.checkpoint is not None
        if _append_checkpoint(self.checkpoint, run_key, index, value):
            if self._obs is not None:
                self._obs.event("checkpoint-write", index=index)

    # -- pooled path ----------------------------------------------------

    def _map_pooled(
        self,
        task: TrialTask,
        seed: int,
        labels: Tuple[Label, ...],
        pending: Sequence[int],
    ) -> Dict[int, Any]:
        results: Dict[int, Any] = {}
        missing = list(pending)
        attempts = POOL_RETRIES + 1
        for round_index in range(attempts):
            if not missing:
                return results
            try:
                self._run_pool_round(task, seed, labels, missing, results)
            except _PoolBroken:
                # A worker died or the pool could not start: completed
                # trials are kept, only the stragglers go another round.
                missing = [index for index in missing if index not in results]
                backoff = _retry_backoff(round_index)
                _LOG.warning(
                    "worker pool broke (round %d/%d); retrying %d missing "
                    "trial(s) after %.2fs backoff",
                    round_index + 1,
                    attempts,
                    len(missing),
                    backoff,
                )
                if self._obs is not None:
                    self._obs.event(
                        "worker-retry",
                        missing=len(missing),
                        round=round_index + 1,
                        backoff_seconds=round(backoff, 3),
                    )
                if backoff > 0 and round_index + 1 < attempts:
                    time.sleep(backoff)
                continue
            return results
        # Pool keeps breaking (or never started): trials are pure, so
        # finish the missing ones serially.
        results.update(self._map_serial(task, seed, labels, missing))
        return results

    def _run_pool_round(
        self,
        task: TrialTask,
        seed: int,
        labels: Tuple[Label, ...],
        indices: Sequence[int],
        results: Dict[int, Any],
    ) -> None:
        """One pool lifetime: submit ``indices``, harvest into ``results``.

        Raises :class:`_PoolBroken` on pool infrastructure failures.
        Task failures (captured in-worker) raise
        :class:`TrialTaskError` immediately -- no rerun will fix a
        deterministic trial, and masking the error hides the bug.
        """
        import concurrent.futures as cf

        run_key = self._run_key or (seed, labels, provenance.git_sha())
        obs = self._obs
        spec = self._shard_spec
        profiling = obs is not None and getattr(obs, "profile", False)
        emit_spans = (
            obs is not None and spec is None and hasattr(obs, "begin_span")
        )
        if emit_spans:
            from repro.obs.trace import span_id as trial_span_id
        worker_body = _run_trial_timed if profiling else _run_trial_guarded
        try:
            pool = cf.ProcessPoolExecutor(
                max_workers=min(self.workers, len(indices))
            )
        except (OSError, ImportError) as exc:
            raise _PoolBroken() from exc
        try:
            try:
                if spec is not None:
                    futures = {
                        index: pool.submit(
                            _run_trial_sharded, task, seed, labels, index, spec
                        )
                        for index in indices
                    }
                else:
                    futures = {
                        index: pool.submit(worker_body, task, seed, labels, index)
                        for index in indices
                    }
            except cf.BrokenExecutor as exc:
                raise _PoolBroken() from exc
            try:
                for index, future in futures.items():
                    # Parent-side trial spans are harvest markers: they
                    # open as the harvest loop reaches the trial and
                    # close when its result lands, so SSE subscribers
                    # see per-trial progress without worker plumbing.
                    trial_span: Optional[str] = None
                    if emit_spans:
                        trial_span = trial_span_id(seed, labels, index)
                        obs.begin_span(
                            "trial",
                            trial_span,
                            parent=self._parent_span,
                            trial=index,
                        )
                    try:
                        value = future.result()
                    except (cf.BrokenExecutor, OSError) as exc:
                        # The trial itself is fine -- the pool broke --
                        # so the span closes "retried": the next round
                        # re-begins the same identity.
                        if trial_span is not None:
                            obs.end_span(trial_span, status="retried")
                        raise _PoolBroken() from exc
                    if isinstance(value, _TrialFailure):
                        if trial_span is not None:
                            obs.end_span(trial_span, status="failed")
                        raise TrialTaskError(
                            index,
                            f"{value.kind}: {value.message}",
                            value.remote_traceback,
                        )
                    if isinstance(value, _TrialTiming):
                        obs.event(
                            "trial",
                            index=index,
                            wall_seconds=value.wall_seconds,
                            cpu_seconds=value.cpu_seconds,
                            pooled=True,
                        )
                        value = value.value
                    if trial_span is not None:
                        obs.end_span(trial_span)
                    results[index] = value
                    if self.checkpoint:
                        self._checkpoint_write(run_key, index, value)
            except _SignalDrain:
                self._drain_completed(futures, results, run_key)
                raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _drain_completed(
        self,
        futures: Dict[int, Any],
        results: Dict[int, Any],
        run_key: "_RunKey",
    ) -> None:
        """Journal every already-finished future before the signal wins.

        The harvest loop walks futures in index order, so a completed
        trial with a higher index than the one being waited on has a
        result nobody journaled yet.  A polite kill (SIGTERM) must not
        waste that work: everything ``done()`` is harvested into
        ``results`` and the checkpoint journal; running and queued
        trials are left to the pool shutdown's ``cancel_futures``.
        """
        for index, future in futures.items():
            if index in results or not future.done() or future.cancelled():
                continue
            try:
                value = future.result(timeout=0)
            except Exception:
                continue  # broken/failed future: nothing worth saving
            if isinstance(value, _TrialFailure):
                continue
            if isinstance(value, _TrialTiming):
                value = value.value
            results[index] = value
            if self.checkpoint:
                self._checkpoint_write(run_key, index, value)


class _PoolBroken(Exception):
    """Internal: the pool (not a task) failed; retry the missing trials."""


def _retry_backoff(round_index: int) -> float:
    """Exponential backoff with jitter before pool retry ``round_index+1``.

    Jitter draws from the module RNG, never from any trial's derived
    stream -- backoff timing must not perturb reproducibility.
    """
    if POOL_BACKOFF <= 0:
        return 0.0
    return POOL_BACKOFF * (2.0 ** round_index) * (0.5 + random.random())


# ---------------------------------------------------------------------------
# Checkpoint journal: an append-only pickle stream
# ---------------------------------------------------------------------------

#: ``(seed, labels, git_sha)`` -- the provenance triple naming one run's
#: trials.  Tests may pass shorter tuples; keys are compared opaquely,
#: so a mismatched shape simply never matches (and is ignored), which is
#: exactly the stale-checkpoint semantics we want.
_RunKey = Tuple[Any, ...]

#: Paths whose append already warned once (ENOSPC/EIO degrade policy:
#: warn on the first failure, stay quiet after, never raise).
_append_warned: Set[str] = set()


def _load_checkpoint(path: str, run_key: _RunKey) -> Dict[int, Any]:
    """Load finished trials for ``run_key``; tolerate a damaged journal.

    Records for other run keys (other seeds or labels sharing the file)
    are ignored rather than treated as corruption, so one journal can
    serve a whole experiment sweep.

    Every record parsed before a failure is kept, whatever the failure:

    * a truncated or corrupt *tail* (the run was killed mid-write before
      the appends became atomic) stops the scan, and the journal is
      repaired by truncating the garbage -- otherwise later appends
      would land behind an unreadable tail and be lost to every future
      resume;
    * a mid-stream *read error* (``OSError`` from a flaky filesystem)
      stops the scan but leaves the file alone: the unread remainder may
      be perfectly good.
    """
    results: Dict[int, Any] = {}
    if not os.path.exists(path):
        return results
    recovered = 0
    skipped = 0
    good_offset = 0
    damaged = False
    try:
        with open(path, "rb") as handle:
            while True:
                try:
                    key, index, value = pickle.load(handle)
                except EOFError:
                    break
                except OSError:
                    # Mid-stream read failure: keep what was parsed, do
                    # not touch the (possibly fine) unread remainder.
                    raise
                except Exception:
                    # Truncated/corrupt tail (the run was killed
                    # mid-write): everything before it is still good.
                    damaged = True
                    break
                good_offset = handle.tell()
                if key == run_key:
                    results[index] = value
                    recovered += 1
                else:
                    skipped += 1
    except OSError as exc:
        _LOG.warning(
            "checkpoint %s: read failed after %d recovered / %d skipped "
            "record(s): %s",
            path,
            recovered,
            skipped,
            exc,
        )
        return results
    if damaged:
        _LOG.warning(
            "checkpoint %s: corrupt tail after %d recovered / %d skipped "
            "record(s); truncating journal to last intact record",
            path,
            recovered,
            skipped,
        )
        try:
            os.truncate(path, good_offset)
        except OSError as exc:  # pragma: no cover - repair is best-effort
            _LOG.warning("checkpoint %s: tail repair failed: %s", path, exc)
    return results


def _append_checkpoint(path: str, run_key: _RunKey, index: int, value: Any) -> bool:
    """Append one finished trial; checkpointing must never kill the run.

    The record is serialized *before* the file is opened and lands in a
    single ``os.write`` call, so a crash (or an unpicklable value) can
    never leave half a record behind -- a partial pickle at the tail
    would otherwise shadow every later append from
    :func:`_load_checkpoint`'s scan.

    A failing filesystem (ENOSPC, EIO) degrades to *one* warning per
    path -- a full disk would otherwise turn every trial into a log
    line -- and the run continues on its in-memory results.  A later
    successful append clears the flag: the journal self-stabilizes when
    the disk does.
    """
    try:
        # Not just PicklingError: unpicklable values raise TypeError or
        # AttributeError from __reduce__, and none of them may kill the run.
        payload = pickle.dumps((run_key, index, value))
    except Exception as exc:
        _LOG.warning(
            "checkpoint %s: trial %d not journaled (unpicklable: %s)",
            path,
            index,
            exc,
        )
        return False
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
    except OSError as exc:
        if path not in _append_warned:
            _append_warned.add(path)
            _LOG.warning(
                "checkpoint %s: trial %d not journaled (write failed: %s); "
                "continuing in memory, further failures on this path are silent",
                path,
                index,
                exc,
            )
        return False
    _append_warned.discard(path)
    return True


def checkpoint_degraded(path: str) -> bool:
    """Whether the last append to ``path`` failed (health reporting)."""
    return path in _append_warned


def _picklable(task: TrialTask) -> bool:
    try:
        pickle.dumps(task)
    except Exception:
        return False
    return True
