"""Concurrent job execution (:mod:`repro.service.jobs` with N > 1).

Contracts under test, matching the PR-9 acceptance criteria:

* interleaved jobs record into disjoint metrics/event streams (the
  context-scoped ambient recorder never cross-wires);
* N concurrent real chaos jobs are bit-identical to direct serial
  ``run_chaos`` calls;
* cancellation -- a queued job cancels instantly and never executes, a
  running job unwinds at its next recorder hook with the checkpoint
  preserved, and resubmission resumes from that checkpoint;
* duplicate submission under concurrency still dedupes to one
  execution;
* the queue is FIFO;
* admission counts queued jobs, and the Retry-After estimate counts
  running ones too.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.service.jobs import AdmissionError, JobManager
from repro.service.store import JobStore


def run(coro):
    return asyncio.run(coro)


async def wait_until(predicate, timeout=30.0, interval=0.02):
    """Poll ``predicate`` on the event loop until true or timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def chaos_payload(**spec):
    return {"kind": "chaos",
            "spec": {"protocols": ["ciw"], "ns": [8], "trials": 1, **spec}}


class TestDisjointStreams:
    def test_interleaved_jobs_record_disjoint_event_streams(
        self, tmp_path, monkeypatch
    ):
        """Two jobs inside their recording scopes *at the same time*
        (barrier-enforced) each see only their own ambient recorder --
        the tentpole contract the module-global recorder violated."""
        from repro.service import jobs as jobs_mod

        barrier = threading.Barrier(2, timeout=15)

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            # Enter the same ambient scope the real execute_spec does,
            # then record through current_recorder() -- the exact path
            # a simulation engine takes.
            from repro.obs.context import current_recorder, recording

            seed = spec.params["seed"]
            with recording(recorder):
                barrier.wait()  # both jobs inside their scopes at once
                obs = current_recorder()
                assert obs is recorder, "ambient recorder leaked across jobs"
                for index in range(25):
                    obs.event(f"seed-{seed}", index=index)
                    time.sleep(0.001)  # force interleaving
            return {"ok": True, "result": {"seed": seed}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)), concurrency=2)
            await manager.start()
            try:
                job_a, _ = manager.submit(chaos_payload(seed=1))
                job_b, _ = manager.submit(chaos_payload(seed=2))
                assert await wait_until(
                    lambda: job_a.terminal and job_b.terminal
                )
                assert job_a.state == "done" and job_b.state == "done"
                # Byte-disjoint streams: each job holds exactly its own
                # 25 events and nothing from its sibling.
                assert job_a.event_counts == {"seed-1": 25}
                assert job_b.event_counts == {"seed-2": 25}
                kinds_a = {record["kind"] for _, record in job_a.events
                           if record.get("type") == "event"}
                kinds_b = {record["kind"] for _, record in job_b.events
                           if record.get("type") == "event"}
                assert kinds_a == {"seed-1"} and kinds_b == {"seed-2"}
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_four_concurrent_chaos_jobs_bit_identical_to_direct_runs(
        self, tmp_path
    ):
        """The acceptance criterion: ``--jobs 4`` runs four real sweeps
        concurrently, each bit-identical to a direct serial
        ``run_chaos`` call, with per-job event streams matching a
        serial run exactly (hence disjoint)."""
        from repro.experiments.chaos import run_chaos
        from repro.obs.context import recording
        from repro.obs.metrics import MetricsRecorder

        seeds = [11, 12, 13, 14]
        expected = {}
        for seed in seeds:
            recorder = MetricsRecorder()
            with recording(recorder):
                result = run_chaos(
                    protocols=["ciw"], ns=[8], trials=1, seed=seed,
                    checkpoint=str(tmp_path / f"direct-{seed}.pkl"),
                )
            expected[seed] = {
                "result": result.to_json(),
                "event_counts": dict(recorder.event_counts),
            }

        async def body():
            manager = JobManager(
                JobStore(str(tmp_path / "svc")), concurrency=4
            )
            await manager.start()
            try:
                jobs = [
                    manager.submit(chaos_payload(seed=seed))[0]
                    for seed in seeds
                ]
                assert await wait_until(
                    lambda: all(job.terminal for job in jobs), timeout=240
                )
                for seed, job in zip(seeds, jobs):
                    assert job.state == "done", job.error
                    assert job.result["result"] == expected[seed]["result"]
                    assert job.event_counts == expected[seed]["event_counts"]
            finally:
                await manager.stop()
            return True

        assert run(body())


class TestCancellation:
    def test_cancel_queued_job_never_executes(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_mod

        started = threading.Event()
        release = threading.Event()
        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            if spec.params["seed"] == 1:
                started.set()
                release.wait(timeout=30)
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            store = JobStore(str(tmp_path))
            manager = JobManager(store, concurrency=1)
            await manager.start()
            try:
                blocker, _ = manager.submit(chaos_payload(seed=1))
                assert await wait_until(started.is_set)
                queued, _ = manager.submit(chaos_payload(seed=2))
                assert queued.state == "queued"
                cancelled = manager.cancel(queued.id)
                # Instant: no waiting for the running job to finish.
                assert cancelled is queued
                assert queued.state == "cancelled"
                states = [record["state"]
                          for record in store.iter_journal()
                          if record.get("job") == queued.id]
                assert states == ["queued", "cancelled"]
                release.set()
                assert await wait_until(lambda: blocker.terminal)
                assert executed == [1]  # the cancelled job never ran
                # Its weight is freed and its identity resubmittable.
                fresh, created = manager.submit(chaos_payload(seed=2))
                assert created
                assert await wait_until(lambda: fresh.terminal)
                assert fresh.state == "done"
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_cancel_running_job_drains_checkpoint_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """Cancel lands mid-sweep via the recorder hook; completed
        trials stay in the checkpoint and a resubmission of the same
        work resumes exactly where the cancel landed."""
        from repro.service import jobs as jobs_mod

        progressed = threading.Event()
        finish_fast = threading.Event()
        TRIALS = 50

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            done = 0
            if os.path.exists(checkpoint):
                with open(checkpoint) as handle:
                    done = len(handle.read().splitlines())
            for index in range(done, TRIALS):
                # Journal the trial *before* the hook, like the real
                # runner: a cancel raised at the hook never loses it.
                with open(checkpoint, "a") as handle:
                    handle.write(f"trial-{index}\n")
                recorder.event("checkpoint-write", index=index)
                if index >= done + 2:
                    progressed.set()
                if not finish_fast.is_set():
                    time.sleep(0.01)
            return {"ok": True, "result": {"trials": TRIALS}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            store = JobStore(str(tmp_path))
            manager = JobManager(store, concurrency=1)
            await manager.start()
            try:
                job, _ = manager.submit(chaos_payload(seed=7))
                assert await wait_until(progressed.is_set)
                manager.cancel(job.id)
                assert await wait_until(lambda: job.terminal)
                assert job.state == "cancelled"
                states = [record["state"]
                          for record in store.iter_journal()
                          if record.get("job") == job.id]
                assert states[-1] == "cancelled"
                checkpoint = store.checkpoint_path(job.id)
                assert os.path.exists(checkpoint)
                with open(checkpoint) as handle:
                    before = handle.read().splitlines()
                assert 3 <= len(before) < TRIALS  # partial, preserved
                # Resubmission: same identity, resumes from the
                # checkpoint rather than starting over.
                finish_fast.set()
                resumed, created = manager.submit(chaos_payload(seed=7))
                assert created and resumed.id == job.id
                assert await wait_until(lambda: resumed.terminal)
                assert resumed.state == "done"
                with open(checkpoint) as handle:
                    after = handle.read().splitlines()
                assert len(after) == TRIALS
                assert after[: len(before)] == before  # never recomputed
                # The resumed attempt recorded only the missing trials.
                assert resumed.event_counts["checkpoint-write"] == (
                    TRIALS - len(before)
                )
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_cancel_unknown_and_terminal_jobs(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_mod

        monkeypatch.setattr(
            jobs_mod, "execute_spec",
            lambda spec, *, checkpoint=None, recorder=None: {
                "ok": True, "result": {}
            },
        )

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                assert manager.cancel("job-missing") is None
                job, _ = manager.submit(chaos_payload(seed=3))
                assert await wait_until(lambda: job.terminal)
                # Terminal: returned unchanged, no new journal state.
                assert manager.cancel(job.id) is job
                assert job.state == "done"
            finally:
                await manager.stop()
            return True

        assert run(body())


class TestScheduling:
    def test_duplicate_submission_under_concurrency_dedupes(
        self, tmp_path, monkeypatch
    ):
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            time.sleep(0.05)
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)), concurrency=4)
            await manager.start()
            try:
                jobs = [manager.submit(chaos_payload(seed=5))
                        for _ in range(4)]
                first = jobs[0][0]
                assert all(job is first for job, _ in jobs)
                assert [created for _, created in jobs] == [
                    True, False, False, False
                ]
                assert await wait_until(lambda: first.terminal)
                assert executed == [5]  # one execution, four submissions
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_dequeue_is_fifo(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_mod

        gate_running = threading.Event()
        gate = threading.Event()
        order = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            seed = spec.params["seed"]
            if seed == 0:
                gate_running.set()
                gate.wait(timeout=30)
            else:
                order.append(seed)
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)), concurrency=1)
            await manager.start()
            try:
                manager.submit(chaos_payload(seed=0))
                assert await wait_until(gate_running.is_set)
                jobs = [
                    manager.submit(chaos_payload(seed=seed))[0]
                    for seed in (3, 1, 4, 2)
                ]
                gate.set()
                assert await wait_until(
                    lambda: all(job.terminal for job in jobs)
                )
                assert order == [3, 1, 4, 2]
            finally:
                await manager.stop()
            return True

        assert run(body())


class TestAdmission:
    def test_admission_and_retry_after_count_jobs(self, tmp_path):
        async def body():
            # Not started: submissions stay queued.
            manager = JobManager(JobStore(str(tmp_path)), max_queue=2)
            # A bench suite takes one slot, like any other job.
            manager.submit({"kind": "bench", "spec": {"suite": "engine"}})
            small, _ = manager.submit(chaos_payload(seed=1))
            assert manager.backlog() == 2
            with pytest.raises(AdmissionError) as info:
                manager.submit(chaos_payload(seed=2))
            assert info.value.retry_after >= 1.0
            # A running job frees its queue slot but still holds a
            # worker, so Retry-After keeps counting it.
            small.state = "running"
            assert manager.backlog() == 1
            with_running = manager.retry_after_estimate()
            small.state = "done"
            assert manager.retry_after_estimate() < with_running
            # The freed slot admits the next job.
            manager.submit(chaos_payload(seed=2))
            return True

        assert run(body())

    def test_retry_after_learns_from_the_first_job(self, tmp_path, monkeypatch):
        """The wall-time EMA starts from the first finished job's wall
        time, so after two short jobs Retry-After is on their scale."""
        from repro.service import jobs as jobs_mod

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            time.sleep(0.2)
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)), max_queue=16)
            await manager.start()
            try:
                done = [manager.submit(chaos_payload(seed=seed))[0]
                        for seed in (1, 2)]
                assert await wait_until(lambda: all(job.terminal for job in done))
            finally:
                await manager.stop()
            # Stopped: these stay queued, eight jobs behind one worker.
            for seed in range(3, 11):
                manager.submit(chaos_payload(seed=seed))
            walls = [job.wall_seconds for job in done]
            estimate = manager.retry_after_estimate()
            assert 8 * min(walls) - 0.1 <= estimate <= 8 * max(walls) + 0.1
            return True

        assert run(body())
