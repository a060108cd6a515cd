"""Tests for the process-pool trial runner.

The contract under test: results are bit-identical whether trials run
serially or across worker processes, because each trial's RNG is derived
inside the worker from the same ``(seed, *labels, index)`` path -- and
that contract survives task errors, worker crashes and
checkpoint/resume.
"""

import io
import multiprocessing
import os
import pickle
import random
import time
from functools import partial

import pytest

from repro.core import parallel
from repro.core.parallel import (
    ParallelTrialRunner,
    TrialTaskError,
    _append_checkpoint,
    _load_checkpoint,
)
from repro.core.rng import make_rng
from repro.experiments.common import repeat_convergence
from repro.protocols.cai_izumi_wada import SilentNStateSSR


def draw_uniform(rng: random.Random) -> float:
    """Top-level (picklable) trial task."""
    return rng.random()


def scaled_draw(scale: float, rng: random.Random) -> float:
    return scale * rng.random()


def make_ciw(n: int) -> SilentNStateSSR:
    return SilentNStateSSR(n)


def worst_case_states(protocol, rng):
    return protocol.worst_case_configuration()


def fail_if_matches(target: float, rng: random.Random) -> float:
    """Fails exactly on the trial whose first draw equals ``target``."""
    value = rng.random()
    if value == target:
        raise ValueError("boom")
    return value


def crash_worker_once(sentinel: str, rng: random.Random) -> float:
    """Kills its worker process the first time any trial reaches it.

    The sentinel file doubles as an atomic once-flag and as evidence
    (for the test) that a crash really happened.
    """
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return rng.random()
    os.close(fd)
    os._exit(1)


def crash_every_worker(rng: random.Random) -> float:
    """Kills any worker it runs in; computes normally in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return rng.random()


def logging_draw(path: str, rng: random.Random) -> float:
    """Draws and appends to ``path`` -- an invocation counter for tests."""
    value = rng.random()
    with open(path, "a", encoding="utf8") as handle:
        handle.write(f"{value}\n")
    return value


class TestParallelTrialRunner:
    def test_trial_rngs_match_serial_derivation(self):
        results = ParallelTrialRunner().map_trials(
            draw_uniform, seed=9, labels=("t",), trials=5
        )
        expected = [make_rng(9, "t", i).random() for i in range(5)]
        assert results == expected

    def test_parallel_results_equal_serial(self):
        serial = ParallelTrialRunner(1).map_trials(
            partial(scaled_draw, 10.0), seed=3, labels=("p", 7), trials=8
        )
        parallel = ParallelTrialRunner(2).map_trials(
            partial(scaled_draw, 10.0), seed=3, labels=("p", 7), trials=8
        )
        assert serial == parallel

    def test_scalar_label_is_equivalent_to_singleton_path(self):
        scalar = ParallelTrialRunner().map_trials(
            draw_uniform, seed=4, labels="lbl", trials=3
        )
        tupled = ParallelTrialRunner().map_trials(
            draw_uniform, seed=4, labels=("lbl",), trials=3
        )
        assert scalar == tupled

    def test_unpicklable_task_falls_back_to_serial(self):
        runner = ParallelTrialRunner(4)
        results = runner.map_trials(
            lambda rng: rng.random(), seed=5, labels=("fb",), trials=4
        )
        expected = [make_rng(5, "fb", i).random() for i in range(4)]
        assert results == expected

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelTrialRunner(0)

    def test_repeat_convergence_parallel_matches_serial(self):
        kwargs = dict(
            make_protocol=partial(make_ciw, 6),
            make_states=worst_case_states,
            seed=6,
            label="rc",
            trials=4,
            max_time=10_000.0,
        )
        serial = repeat_convergence(**kwargs)
        parallel = repeat_convergence(
            runner=ParallelTrialRunner(2), **kwargs
        )
        assert serial == parallel
        assert all(outcome.converged for outcome in serial)


class TestFaultTolerance:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_error_carries_trial_index(self, workers):
        target = make_rng(8, "err", 2).random()
        with pytest.raises(TrialTaskError) as info:
            ParallelTrialRunner(workers).map_trials(
                partial(fail_if_matches, target), seed=8, labels=("err",), trials=4
            )
        assert info.value.index == 2
        assert "ValueError: boom" in str(info.value)
        assert "ValueError" in info.value.remote_traceback

    def test_worker_crash_retries_only_missing_trials(self, tmp_path):
        """A mid-run worker crash loses no completed trials and the final
        results are bit-identical to a fault-free serial run."""
        sentinel = str(tmp_path / "crashed")
        results = ParallelTrialRunner(2).map_trials(
            partial(crash_worker_once, sentinel),
            seed=12,
            labels=("crash",),
            trials=6,
        )
        assert os.path.exists(sentinel)  # a worker really died
        expected = [make_rng(12, "crash", i).random() for i in range(6)]
        assert results == expected

    def test_pool_exhaustion_falls_back_to_serial(self, monkeypatch):
        """When every round breaks the pool, trials still finish serially."""
        monkeypatch.setattr(parallel, "POOL_RETRIES", 1)
        results = ParallelTrialRunner(2).map_trials(
            crash_every_worker, seed=13, labels=("hopeless",), trials=3
        )
        assert results == [make_rng(13, "hopeless", i).random() for i in range(3)]

    def test_checkpoint_resume_skips_finished_trials(self, tmp_path):
        checkpoint = str(tmp_path / "journal.pkl")
        log = str(tmp_path / "invocations.log")
        task = partial(logging_draw, log)
        first = ParallelTrialRunner(checkpoint=checkpoint).map_trials(
            task, seed=14, labels=("ckpt",), trials=3
        )
        resumed = ParallelTrialRunner(checkpoint=checkpoint).map_trials(
            task, seed=14, labels=("ckpt",), trials=5
        )
        assert resumed[:3] == first
        assert resumed == [make_rng(14, "ckpt", i).random() for i in range(5)]
        with open(log, encoding="utf8") as handle:
            invocations = handle.read().splitlines()
        assert len(invocations) == 5  # trials 0-2 were never recomputed

    def test_checkpoint_distinguishes_run_keys(self, tmp_path):
        checkpoint = str(tmp_path / "journal.pkl")
        runner = ParallelTrialRunner(checkpoint=checkpoint)
        a = runner.map_trials(draw_uniform, seed=1, labels=("a",), trials=2)
        b = runner.map_trials(draw_uniform, seed=2, labels=("b",), trials=2)
        assert a != b
        assert runner.map_trials(draw_uniform, seed=1, labels=("a",), trials=2) == a

    def test_checkpoint_tolerates_truncated_tail(self, tmp_path):
        checkpoint = str(tmp_path / "journal.pkl")
        runner = ParallelTrialRunner(checkpoint=checkpoint)
        expected = runner.map_trials(draw_uniform, seed=15, labels=("t",), trials=3)
        with open(checkpoint, "ab") as handle:
            handle.write(b"\x80garbage-from-a-kill-9")
        assert (
            runner.map_trials(draw_uniform, seed=15, labels=("t",), trials=3)
            == expected
        )

    def test_pooled_run_writes_checkpoint(self, tmp_path):
        checkpoint = str(tmp_path / "journal.pkl")
        pooled = ParallelTrialRunner(2, checkpoint=checkpoint).map_trials(
            draw_uniform, seed=16, labels=("pc",), trials=4
        )
        # A later serial runner resumes purely from the journal.
        log_free = ParallelTrialRunner(checkpoint=checkpoint).map_trials(
            draw_uniform, seed=16, labels=("pc",), trials=4
        )
        assert pooled == log_free == [
            make_rng(16, "pc", i).random() for i in range(4)
        ]


class Unpicklable:
    """Raises from __reduce__ -- what a live object with an open handle does."""

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class _FlakyHandle(io.BytesIO):
    """A file whose reads fail with OSError past a byte limit."""

    def __init__(self, payload: bytes, good_bytes: int):
        super().__init__(payload)
        self._good_bytes = good_bytes

    def read(self, size=-1):
        if self.tell() >= self._good_bytes:
            raise OSError("simulated I/O error")
        return super().read(size)

    def readline(self, size=-1):
        if self.tell() >= self._good_bytes:
            raise OSError("simulated I/O error")
        return super().readline(size)


class TestCheckpointDurability:
    """The satellite fixes: atomic appends and a loss-minimizing loader."""

    def test_truncated_final_record_resumes_losslessly(self, tmp_path):
        """A kill -9 mid-append costs at most the final record: resume
        recomputes only that trial and stays bit-identical to serial."""
        checkpoint = str(tmp_path / "journal.pkl")
        log = str(tmp_path / "invocations.log")
        expected = ParallelTrialRunner(checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=21, labels=("tr",), trials=6
        )
        size = os.path.getsize(checkpoint)
        with open(checkpoint, "r+b") as handle:
            handle.truncate(size - 7)  # chop the last record mid-pickle
        resumed = ParallelTrialRunner(2, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=21, labels=("tr",), trials=6
        )
        assert resumed == expected
        assert resumed == [make_rng(21, "tr", i).random() for i in range(6)]
        with open(log, encoding="utf8") as handle:
            invocations = handle.read().splitlines()
        assert len(invocations) == 7  # 6 original + only the chopped trial

    def test_tail_repair_unshadows_future_appends(self, tmp_path):
        """Loading past a corrupt tail truncates it, so later appends do
        not land behind unreadable garbage and vanish on the next scan."""
        checkpoint = str(tmp_path / "journal.pkl")
        run_key = (1, ("k",))
        assert _append_checkpoint(checkpoint, run_key, 0, "a")
        good_size = os.path.getsize(checkpoint)
        with open(checkpoint, "ab") as handle:
            handle.write(b"\x80\x04garbage-from-a-kill-9")
        assert _load_checkpoint(checkpoint, run_key) == {0: "a"}
        assert os.path.getsize(checkpoint) == good_size  # tail repaired
        assert _append_checkpoint(checkpoint, run_key, 1, "b")
        assert _load_checkpoint(checkpoint, run_key) == {0: "a", 1: "b"}

    def test_midstream_read_error_keeps_parsed_records(self, tmp_path, monkeypatch):
        """An OSError partway through the scan returns what was parsed --
        and never truncates: the unread remainder may be perfectly good."""
        checkpoint = str(tmp_path / "journal.pkl")
        run_key = (2, ("m",))
        for index in range(3):
            assert _append_checkpoint(checkpoint, run_key, index, index * 10)
        payload = open(checkpoint, "rb").read()
        first_len = len(pickle.dumps((run_key, 0, 0)))

        def flaky_open(file, mode="r", *args, **kwargs):
            assert file == checkpoint and mode == "rb"
            return _FlakyHandle(payload, first_len)

        monkeypatch.setattr(parallel, "open", flaky_open, raising=False)
        assert _load_checkpoint(checkpoint, run_key) == {0: 0}
        monkeypatch.undo()
        # The file was left alone: a healthy re-read recovers everything.
        assert os.path.getsize(checkpoint) == len(payload)
        assert _load_checkpoint(checkpoint, run_key) == {0: 0, 1: 10, 2: 20}

    def test_unpicklable_value_writes_no_partial_record(self, tmp_path):
        """Serialization failures leave the journal byte-identical: the
        old open-then-pickle order left partial records behind."""
        checkpoint = str(tmp_path / "journal.pkl")
        run_key = (3, ("u",))
        assert _append_checkpoint(checkpoint, run_key, 0, 1.5)
        size = os.path.getsize(checkpoint)
        assert not _append_checkpoint(checkpoint, run_key, 1, Unpicklable())
        assert os.path.getsize(checkpoint) == size  # not even one byte
        assert _append_checkpoint(checkpoint, run_key, 2, 2.5)
        assert _load_checkpoint(checkpoint, run_key) == {0: 1.5, 2: 2.5}


def stall_once(sentinel: str, rng: random.Random) -> float:
    """First trial to win the sentinel stalls; the rest finish fast.

    The stalled trial pins the in-order harvest loop, so faster trials
    with higher indices finish un-journaled -- exactly the window the
    graceful signal drain exists to close.  On a resume the sentinel
    already exists, so the task runs instantly (the draw happens first
    either way, keeping results bit-identical).
    """
    value = rng.random()
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        time.sleep(0.05)
        return value
    os.close(fd)
    time.sleep(6)
    return value


class TestRunKeyProvenance:
    """The checkpoint key is the (seed, labels, git_sha) triple: records
    written under any *other* triple must be ignored, never reused."""

    def _fixed_sha(self, monkeypatch, value):
        from repro.obs import provenance

        monkeypatch.setattr(provenance, "git_sha", lambda short=False: value)

    def _count(self, log):
        if not os.path.exists(log):
            return 0
        with open(log, encoding="utf8") as handle:
            return len(handle.read().splitlines())

    def test_same_sha_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        self._fixed_sha(monkeypatch, "sha-one")
        checkpoint = str(tmp_path / "journal.pkl")
        log = str(tmp_path / "invocations.log")
        first = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=4
        )
        assert self._count(log) == 4
        again = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=4
        )
        assert again == first
        assert self._count(log) == 4  # everything served from the journal

    def test_different_sha_ignores_stale_checkpoint(self, tmp_path, monkeypatch):
        """A journal written by one source tree must not satisfy a resume
        from another: the code that produced those trials is not the
        code resuming them."""
        self._fixed_sha(monkeypatch, "sha-one")
        checkpoint = str(tmp_path / "journal.pkl")
        log = str(tmp_path / "invocations.log")
        first = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=4
        )
        self._fixed_sha(monkeypatch, "sha-two")
        second = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=4
        )
        # Recomputed from scratch (stale records ignored) -- but still
        # bit-identical, because trial RNGs derive from (seed, labels, i).
        assert self._count(log) == 8
        assert second == first

    def test_different_seed_or_labels_ignores_checkpoint(self, tmp_path, monkeypatch):
        self._fixed_sha(monkeypatch, "sha-one")
        checkpoint = str(tmp_path / "journal.pkl")
        log = str(tmp_path / "invocations.log")
        ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=3
        )
        ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=6, labels=("prov",), trials=3
        )
        assert self._count(log) == 6  # other seed: all recomputed
        ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("other",), trials=3
        )
        assert self._count(log) == 9  # other labels: all recomputed
        # The original triple still resumes for free.
        ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            partial(logging_draw, log), seed=5, labels=("prov",), trials=3
        )
        assert self._count(log) == 9


class TestPoolExhaustion:
    def test_backoff_is_exponential_with_bounded_jitter(self, monkeypatch):
        monkeypatch.setattr(parallel, "POOL_BACKOFF", 0.25)
        for round_index in range(4):
            base = 0.25 * (2.0 ** round_index)
            for _ in range(16):
                value = parallel._retry_backoff(round_index)
                assert base * 0.5 <= value < base * 1.5

    def test_zero_backoff_disables_sleep(self, monkeypatch):
        monkeypatch.setattr(parallel, "POOL_BACKOFF", 0.0)
        assert parallel._retry_backoff(3) == 0.0

    def test_worker_retry_event_carries_backoff(self, tmp_path, monkeypatch):
        from repro.obs.context import recording
        from repro.obs.metrics import MetricsRecorder

        monkeypatch.setattr(parallel, "POOL_BACKOFF", 0.01)
        recorder = MetricsRecorder()
        sentinel = str(tmp_path / "crash-once")
        with recording(recorder):
            results = ParallelTrialRunner(2).map_trials(
                partial(crash_worker_once, sentinel),
                seed=13,
                labels=("ev",),
                trials=4,
            )
        assert results == [make_rng(13, "ev", i).random() for i in range(4)]
        retries = recorder.events_of("worker-retry")
        assert retries
        assert retries[0]["backoff_seconds"] >= 0.0
        assert retries[0]["round"] == 1


class TestGracefulSignalDrain:
    """SIGTERM/SIGINT inside a checkpointed run drains completed trials
    into the journal before re-raising -- a polite kill wastes nothing."""

    def test_sigterm_converts_to_systemexit_and_restores_handler(self, tmp_path):
        import signal

        checkpoint = str(tmp_path / "journal.pkl")
        runner = ParallelTrialRunner(1, checkpoint=checkpoint)
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as info:
            with runner._graceful_signal_scope():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # interrupted by delivery
        assert info.value.code == 128 + signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is before

    def test_scope_is_noop_without_checkpoint(self):
        import signal

        runner = ParallelTrialRunner(1)
        before = signal.getsignal(signal.SIGINT)
        with runner._graceful_signal_scope():
            assert signal.getsignal(signal.SIGINT) is before

    def test_sigint_drains_completed_trials_then_resume_is_identical(self, tmp_path):
        """Kill a pooled run while one straggler pins the harvest loop:
        the faster trials must land in the journal, and a resume must
        complete with results bit-identical to an uninterrupted run."""
        import signal
        import threading

        checkpoint = str(tmp_path / "journal.pkl")
        sentinel = str(tmp_path / "stall-once")
        task = partial(stall_once, sentinel)
        expected = [make_rng(17, "drain", i).random() for i in range(6)]

        timer = threading.Timer(
            1.5, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                ParallelTrialRunner(2, checkpoint=checkpoint).map_trials(
                    task, seed=17, labels=("drain",), trials=6
                )
        finally:
            timer.cancel()
        from repro.obs import provenance

        run_key = (17, ("drain",), provenance.git_sha())
        drained = _load_checkpoint(checkpoint, run_key)
        assert drained  # the fast trials were saved, not wasted
        for index, value in drained.items():
            assert value == expected[index]
        resumed = ParallelTrialRunner(2, checkpoint=checkpoint).map_trials(
            task, seed=17, labels=("drain",), trials=6
        )
        assert resumed == expected


class TestAppendDegradation:
    """ENOSPC/EIO on the checkpoint journal: one warning, in-memory
    continuation, self-clearing degraded flag (never an exception)."""

    def _fail_writes_to(self, monkeypatch, path):
        import errno

        real_write = os.write

        def failing_write(fd, data):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                target = ""
            if target == path:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)

    def test_full_disk_degrades_to_one_warning_and_recovers(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.core.parallel import checkpoint_degraded

        checkpoint = str(tmp_path / "journal.pkl")
        self._fail_writes_to(monkeypatch, checkpoint)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            results = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
                draw_uniform, seed=19, labels=("enospc",), trials=5
            )
        # The run itself is unharmed; only durability degraded.
        assert results == [make_rng(19, "enospc", i).random() for i in range(5)]
        assert checkpoint_degraded(checkpoint)
        warned = [
            record for record in caplog.records if "write failed" in record.message
        ]
        assert len(warned) == 1  # five failing appends, one warning
        monkeypatch.undo()
        # The disk "recovers": the next run journals again and the
        # degraded flag self-clears -- the journal is self-stabilizing.
        again = ParallelTrialRunner(1, checkpoint=checkpoint).map_trials(
            draw_uniform, seed=19, labels=("enospc",), trials=5
        )
        assert again == results
        assert not checkpoint_degraded(checkpoint)
        from repro.obs import provenance

        run_key = (19, ("enospc",), provenance.git_sha())
        assert _load_checkpoint(checkpoint, run_key) == dict(enumerate(results))
