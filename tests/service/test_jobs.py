"""Tests for job specs and the manager (:mod:`repro.service.jobs`).

Contracts: payload validation is strict and canonicalization is
order-insensitive, the cache key is the provenance triple, submission is
idempotent, admission control bounds the queue, a failing job fails on
first occurrence, and journaled jobs are re-admitted on restart.
"""

import asyncio
import inspect
import re

import pytest

from repro.core.countsim import CHAOS_PARAMS
from repro.experiments.chaos import run_chaos
from repro.experiments.cli import build_parser
from repro.experiments.registry import run_experiment
from repro.service import jobs
from repro.service.jobs import (
    JOB_KINDS,
    AdmissionError,
    JobManager,
    JobSpec,
    JobValidationError,
    execute_spec,
)
from repro.service.store import JobStore


def run(coro):
    return asyncio.run(coro)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JobValidationError, match="kind"):
            JobSpec.from_payload({"kind": "deploy", "spec": {}})

    def test_non_object_payload_rejected(self):
        with pytest.raises(JobValidationError, match="JSON object"):
            JobSpec.from_payload([1, 2, 3])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(JobValidationError, match="unknown parameter"):
            JobSpec.from_payload({"kind": "chaos", "spec": {"speed": 11}})

    def test_wrong_type_rejected(self):
        with pytest.raises(JobValidationError, match="must be"):
            JobSpec.from_payload({"kind": "chaos", "spec": {"trials": "three"}})

    def test_boolean_is_not_an_int(self):
        with pytest.raises(JobValidationError, match="boolean"):
            JobSpec.from_payload({"kind": "chaos", "spec": {"seed": True}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(JobValidationError, match="unknown experiment"):
            JobSpec.from_payload({"kind": "run", "spec": {"experiment": "table9"}})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(JobValidationError, match="unknown protocol"):
            JobSpec.from_payload({"kind": "chaos", "spec": {"protocols": ["nope"]}})

    def test_unknown_adversary_rejected(self):
        with pytest.raises(JobValidationError, match="unknown adversary"):
            JobSpec.from_payload({"kind": "chaos", "spec": {"adversary": "gremlin"}})

    def test_bench_suites_found_from_any_directory(self, tmp_path, monkeypatch):
        """The server's working directory does not matter: the bench
        scripts are found in the source tree."""
        monkeypatch.chdir(tmp_path)
        spec = JobSpec.from_payload({"kind": "bench", "spec": {"suite": "engine"}})
        assert spec.params["suite"] == "engine"

    def test_missing_bench_dir_is_named(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "benchmarks")
        monkeypatch.setattr(jobs, "_BENCH_DIR", missing)
        with pytest.raises(JobValidationError, match=re.escape(f"{missing} is not a directory")):
            JobSpec.from_payload({"kind": "bench", "spec": {"suite": "engine"}})

    def test_bench_requires_suite(self):
        with pytest.raises(JobValidationError, match="suite"):
            JobSpec.from_payload({"kind": "bench", "spec": {}})

    @pytest.mark.parametrize("kind, spec, name", [
        ("bench", {"suite": "quant", "repeats": 0}, "repeats"),
        ("run", {"experiment": "thm21", "workers": 0}, "workers"),
        ("chaos", {"workers": 0}, "workers"),
        ("chaos", {"trials": 0}, "trials"),
        ("chaos", {"strikes": -1}, "strikes"),
    ])
    def test_counts_below_one_rejected(self, kind, spec, name):
        """Every count is checked at submission, not left to fail (or be
        ignored) mid-job: a bench job with zero repeats used to pass
        and then divide by zero."""
        with pytest.raises(
            JobValidationError, match=f"^{kind} job: '{name}' must be >= 1, got "
        ):
            JobSpec.from_payload({"kind": kind, "spec": spec})

    def test_defaults_applied(self):
        spec = JobSpec.from_payload({"kind": "chaos", "spec": {}})
        assert spec.params["trials"] == 3
        assert spec.params["protocols"] == ["ciw", "optimal-silent"]
        assert spec.seed == spec.params["seed"]
        # One declaration behind both surfaces: run_chaos's keywords and
        # defaults are CHAOS_PARAMS, and `repro chaos` with no flags
        # parses to the parameters of a chaos job with an empty spec.
        defaults = {param.name: param.default for param in CHAOS_PARAMS}
        keywords = inspect.signature(run_chaos).parameters
        assert set(keywords) == set(defaults) | {"checkpoint"}
        assert {name: keywords[name].default for name in defaults} == defaults
        args = build_parser().parse_args(["chaos"])
        parsed = {param.name: getattr(args, param.name) for param in CHAOS_PARAMS}
        assert {k: v for k, v in parsed.items() if v is not None} == spec.params
        for kind in JOB_KINDS:  # every service kind is a `repro submit` choice
            assert build_parser().parse_args(["submit", kind]).kind == kind


class TestCacheKey:
    def test_key_order_insensitive(self):
        a = JobSpec.from_payload(
            {"kind": "chaos", "spec": {"ns": [16], "trials": 2}}
        )
        b = JobSpec.from_payload(
            {"kind": "chaos", "spec": {"trials": 2, "ns": [16]}}
        )
        assert a.cache_key("sha") == b.cache_key("sha")

    def test_explicit_defaults_share_identity(self):
        a = JobSpec.from_payload({"kind": "chaos", "spec": {}})
        b = JobSpec.from_payload({"kind": "chaos", "spec": {"trials": 3}})
        assert a.cache_key("sha") == b.cache_key("sha")

    def test_seed_and_sha_change_identity(self):
        a = JobSpec.from_payload({"kind": "chaos", "spec": {"seed": 1}})
        b = JobSpec.from_payload({"kind": "chaos", "spec": {"seed": 2}})
        assert a.cache_key("sha") != b.cache_key("sha")
        assert a.cache_key("sha-one") != a.cache_key("sha-two")

    @pytest.mark.parametrize("payload, key", [
        ({"kind": "chaos",
          "spec": {"protocols": ["ciw"], "ns": [16], "trials": 2, "seed": 7}},
         "3ba45c7180efa4ad7cf2ce43e96b903ea8e60f70b076e79cd8c0693097a7d16e"),
        ({"kind": "run", "spec": {"experiment": "table1"}},
         "70b9ee621b0f62063e8086accd4516cae54384880b64bf2aec099ac9a2004515"),
    ])
    def test_keys_pinned_across_releases(self, payload, key):
        """Cache keys minted by earlier releases stay valid: a change to
        the canonical form would orphan every cached result."""
        assert JobSpec.from_payload(payload).cache_key(sha="0" * 40) == key


class TestExecuteSpec:
    """``execute_spec`` runs the ``run`` and ``bench`` kinds through their
    real executors, with nothing faked."""

    def test_run_job_equals_run_experiment(self):
        spec = JobSpec.from_payload(
            {"kind": "run", "spec": {"experiment": "figure1", "seed": 24301}}
        )
        body = execute_spec(spec)
        report = run_experiment("figure1", quick=True, seed=24301)
        assert body["ok"] is report.all_passed is True
        assert body["result"]["experiment"] == "figure1"
        assert body["result"]["rows"] == report.rows
        assert body["result"]["checks"] == {
            name: {
                "passed": check.passed,
                "measured": check.measured,
                "expected": check.expected,
            }
            for name, check in report.checks.items()
        }

    def test_one_cell_bench_job_names_its_cell(self):
        spec = JobSpec.from_payload({
            "kind": "bench",
            "spec": {"suite": "engine", "cells": ["count-jump-n1024"], "repeats": 1},
        })
        body = execute_spec(spec)
        assert body["ok"] is True
        result = body["result"]
        assert result["suite"] == "engine"
        [cell] = result["cells"]
        assert cell["cell"] == "count-jump-n1024"
        assert cell["repeats"] == 1 and len(cell["values"]) == 1
        assert cell["values"][0] > 0


class TestManager:
    def _payload(self, **spec):
        return {"kind": "chaos",
                "spec": {"protocols": ["ciw"], "ns": [8], "trials": 1, **spec}}

    def test_submit_is_idempotent(self, tmp_path):
        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            job, created = manager.submit(self._payload())
            dup, dup_created = manager.submit(self._payload())
            assert created and not dup_created
            assert dup is job
            return True

        assert run(body())

    def test_admission_control_raises_with_retry_after(self, tmp_path):
        async def body():
            manager = JobManager(JobStore(str(tmp_path)), max_queue=2)
            manager.submit(self._payload(seed=1))
            manager.submit(self._payload(seed=2))
            with pytest.raises(AdmissionError) as info:
                manager.submit(self._payload(seed=3))
            assert info.value.retry_after >= 1.0
            return True

        assert run(body())

    def test_invalid_payload_never_queued(self, tmp_path):
        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            with pytest.raises(JobValidationError):
                manager.submit({"kind": "chaos", "spec": {"trials": 0}})
            assert manager.queue_depth() == 0
            return True

        assert run(body())

    def test_deterministic_error_fails_fast_no_retry(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_mod

        calls = []

        def always_boom(spec, *, checkpoint=None, recorder=None):
            calls.append(1)
            raise ValueError("task bug")

        monkeypatch.setattr(jobs_mod, "execute_spec", always_boom)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                job, _ = manager.submit(self._payload())
                for _ in range(200):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "failed"
                assert "ValueError" in job.error
                assert len(calls) == 1  # no retry for a deterministic bug
            finally:
                await manager.stop()
            return True

        assert run(body())


class TestRecovery:
    def _payload(self, **spec):
        return {"kind": "chaos",
                "spec": {"protocols": ["ciw"], "ns": [8], "trials": 1, **spec}}

    def test_live_jobs_readmitted_on_restart(self, tmp_path, monkeypatch):
        """A journal holding queued/running jobs re-enters them on
        start(); terminal jobs come back as history, not work."""
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            return {"ok": True, "result": {"seed": spec.params["seed"]}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def first_life():
            store = JobStore(str(tmp_path))
            manager = JobManager(store)
            # Journal two live jobs and one terminal one by hand, as a
            # crashed process would have left them.
            for seed, state in ((1, "queued"), (2, "running")):
                spec = JobSpec.from_payload(self._payload(seed=seed))
                key = spec.cache_key()
                store.append({"job": f"job-{key[:16]}", "state": "queued",
                              "payload": {"kind": spec.kind, "spec": spec.params},
                              "cache_key": key, "ts": 0.0})
                if state == "running":
                    store.append({"job": f"job-{key[:16]}", "state": "running",
                                  "attempt": 1, "ts": 1.0})
            spec = JobSpec.from_payload(self._payload(seed=3))
            key = spec.cache_key()
            store.append({"job": f"job-{key[:16]}", "state": "queued",
                          "payload": {"kind": spec.kind, "spec": spec.params},
                          "cache_key": key, "ts": 0.0})
            store.append({"job": f"job-{key[:16]}", "state": "failed",
                          "error": "old", "ts": 1.0})
            return manager

        async def second_life():
            store = JobStore(str(tmp_path))
            manager = JobManager(store)
            recovered = await manager.start()
            try:
                assert recovered == 2  # both live jobs, not the failed one
                live = [job for job in manager.jobs.values()
                        if not job.terminal]
                for _ in range(400):
                    if all(job.terminal for job in manager.jobs.values()):
                        break
                    await asyncio.sleep(0.02)
                assert sorted(executed) == [1, 2]
                assert all(job.state == "done" for job in live)
                # The failed job is visible as history.
                failed = [job for job in manager.jobs.values()
                          if job.state == "failed"]
                assert len(failed) == 1
            finally:
                await manager.stop()
            return True

        run(first_life())
        assert run(second_life())

    def test_journal_from_earlier_release_recovers(self, tmp_path, monkeypatch):
        """A queued record journaled by a release that still had
        ``priority`` and ``weight`` fields is re-admitted and completes;
        it is not dropped as an invalid payload."""
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)
        # Verbatim, as the earlier release wrote it.
        line = (
            '{"cache_key": "c82472306cb3a5c8e022a7357b03424b9f432d6d0e61502c'
            '7f648b277aeeffb0", "job": "job-c82472306cb3a5c8", '
            '"journal_version": 1, "payload": {"kind": "chaos", "spec": '
            '{"adversary": "random", "engine": "auto", "fraction": 0.125, '
            '"ns": [8], "period_factor": 2.0, "priority": 0, "protocols": '
            '["ciw"], "recovery_budget_factor": 50.0, "seed": 11, '
            '"strikes": 3, "trials": 1}}, "priority": 0, "state": "queued", '
            '"ts": 1792197341.468, "weight": 1}\n'
        )
        store = JobStore(str(tmp_path))
        with open(store.journal_path, "w", encoding="utf8") as handle:
            handle.write(line)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            recovered = await manager.start()
            try:
                assert recovered == 1
                job = manager.get("job-c82472306cb3a5c8")
                assert job is not None
                for _ in range(400):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "done"
                assert "priority" not in job.spec.params
                assert executed == [11]
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_retrying_journal_from_earlier_release_recovers(
        self, tmp_path, monkeypatch
    ):
        """Earlier releases retried jobs themselves and journaled a live
        ``retrying`` state.  A journal that ends a job there re-admits
        it as queued, and it runs to completion."""
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)
        # Verbatim, as the earlier release wrote it.
        lines = (
            '{"cache_key": "4294ba48478c4ce76787e021f8e74f77d9a7b3048ed66627'
            '4fcb9dd75da7f9f3", "job": "job-4294ba48478c4ce7", '
            '"journal_version": 1, "payload": {"kind": "chaos", "spec": '
            '{"adversary": "random", "engine": "auto", "fraction": 0.125, '
            '"ns": [8], "period_factor": 2.0, "protocols": ["ciw"], '
            '"recovery_budget_factor": 50.0, "seed": 12, "strikes": 3, '
            '"trials": 1}}, "state": "queued", "ts": 1792201604.719}\n'
            '{"attempt": 1, "job": "job-4294ba48478c4ce7", '
            '"journal_version": 1, "state": "running", "ts": 1792201604.72}\n'
            '{"attempt": 1, "backoff_seconds": 34.623, "error": "worker pool '
            'broke 3 time(s); 1 trial(s) never completed: [0]", "job": '
            '"job-4294ba48478c4ce7", "journal_version": 1, "state": '
            '"retrying", "ts": 1792201604.72}\n'
        )
        store = JobStore(str(tmp_path))
        with open(store.journal_path, "w", encoding="utf8") as handle:
            handle.write(lines)

        async def body():
            store = JobStore(str(tmp_path))
            manager = JobManager(store)
            recovered = await manager.start()
            try:
                assert recovered == 1
                job = manager.get("job-4294ba48478c4ce7")
                assert job is not None
                for _ in range(400):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "done"
                assert job.attempt == 2
                assert executed == [12]
            finally:
                await manager.stop()
            states = [record["state"] for record in store.iter_journal()
                      if record.get("job") == job.id]
            assert states[-3:] == ["queued", "running", "done"]
            return True

        assert run(body())

    def test_cancelled_job_recovers_as_history_not_work(
        self, tmp_path, monkeypatch
    ):
        """A journaled ``cancelled`` state is terminal: restart shows
        the job as history and never re-executes it, but the identity
        stays resubmittable."""
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(spec.params["seed"])
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        store = JobStore(str(tmp_path))
        spec = JobSpec.from_payload(self._payload(seed=4))
        key = spec.cache_key()
        job_id = f"job-{key[:16]}"
        store.append({"job": job_id, "state": "queued",
                      "payload": {"kind": spec.kind, "spec": spec.params},
                      "cache_key": key, "ts": 0.0})
        store.append({"job": job_id, "state": "cancelled",
                      "reason": "client request", "ts": 1.0})

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            recovered = await manager.start()
            try:
                assert recovered == 0  # cancelled is terminal
                job = manager.get(job_id)
                assert job is not None and job.state == "cancelled"
                assert executed == []
                # Resubmitting the same work starts a fresh attempt.
                fresh, created = manager.submit(self._payload(seed=4))
                assert created and fresh.id == job_id
                for _ in range(200):
                    if fresh.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert fresh.state == "done"
                assert executed == [4]
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_completed_job_served_from_cache_zero_executions(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion's dedupe half: a duplicate
        (spec, seed, sha) submission after restart is served from the
        result cache without executing anything."""
        from repro.service import jobs as jobs_mod

        executed = []

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            executed.append(1)
            if recorder is not None:
                recorder.event("trial-ran")
            return {"ok": True, "result": {"value": 42}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def first_life():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                job, _ = manager.submit(self._payload(seed=9))
                for _ in range(200):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "done"
                assert job.event_counts.get("trial-ran") == 1
            finally:
                await manager.stop()

        async def second_life():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                job, created = manager.submit(self._payload(seed=9))
                # Recovered as terminal history: not even re-queued.
                assert not created
                assert job.state == "done"
                assert job.result["result"] == {"value": 42}
            finally:
                await manager.stop()
            return True

        run(first_life())
        count_after_first = len(executed)
        assert run(second_life())
        assert len(executed) == count_after_first  # zero new executions


class TestSpanTelemetry:
    """Causal spans attached by the manager, and the counters they feed.

    Contracts: a completed job publishes a well-formed span stream
    (job -> attempt -> ... all closed ``ok``), a cancelled mid-run job
    closes every open span ``cancelled`` on the way out, and the
    manager's telemetry registry counts the lifecycle as monotone
    Prometheus counters.
    """

    def _payload(self, **spec):
        return {"kind": "chaos",
                "spec": {"protocols": ["ciw"], "ns": [8], "trials": 1, **spec}}

    @staticmethod
    def _span_records(job):
        return [record for _, record in job.events
                if record.get("type") == "span"]

    def test_completed_job_has_wellformed_span_stream(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import build_span_tree, validate_spans
        from repro.service import jobs as jobs_mod

        monkeypatch.setattr(
            jobs_mod, "execute_spec",
            lambda spec, *, checkpoint=None, recorder=None:
                {"ok": True, "result": {}},
        )

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                job, _ = manager.submit(self._payload(seed=11))
                for _ in range(200):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "done"
                spans = self._span_records(job)
                assert validate_spans(spans) == []
                roots, by_id = build_span_tree(spans)
                assert [node.span_id for node in roots] == [job.id]
                assert roots[0].kind == "job"
                assert roots[0].status == "ok"
                (attempt,) = roots[0].children
                assert attempt.kind == "attempt"
                assert attempt.span_id == f"{job.id}/a1"
                assert attempt.status == "ok"
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_cancelled_job_closes_open_spans(self, tmp_path, monkeypatch):
        import threading

        from repro.obs import validate_spans
        from repro.service import jobs as jobs_mod

        progressed = threading.Event()

        def slow_execute(spec, *, checkpoint=None, recorder=None):
            for index in range(1000):
                recorder.event("tick", index=index)  # cancellation point
                if index >= 2:
                    progressed.set()
                import time as time_mod
                time_mod.sleep(0.01)
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", slow_execute)

        async def body():
            manager = JobManager(JobStore(str(tmp_path)))
            await manager.start()
            try:
                job, _ = manager.submit(self._payload(seed=12))

                def ready():
                    return progressed.is_set()

                for _ in range(400):
                    if ready():
                        break
                    await asyncio.sleep(0.02)
                manager.cancel(job.id)
                for _ in range(400):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "cancelled"
                spans = self._span_records(job)
                assert validate_spans(spans) == []  # nothing dangling
                ends = [r for r in spans if r.get("op") == "end"]
                assert ends, "cancel must close the open spans"
                assert all(r["status"] == "cancelled" for r in ends)
                # Innermost-first unwind: attempt closes before job.
                assert [r["kind"] for r in ends] == ["attempt", "job"]
            finally:
                await manager.stop()
            return True

        assert run(body())

    def test_lifecycle_feeds_telemetry_counters(self, tmp_path, monkeypatch):
        from repro.obs import TelemetryRegistry
        from repro.service import jobs as jobs_mod

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            recorder.event("convergence")
            return {"ok": True, "result": {}}

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        async def body():
            registry = TelemetryRegistry()
            manager = JobManager(JobStore(str(tmp_path)), telemetry=registry)
            await manager.start()
            try:
                job, _ = manager.submit(self._payload(seed=14))
                manager.submit(self._payload(seed=14))  # dedupe
                for _ in range(200):
                    if job.terminal:
                        break
                    await asyncio.sleep(0.02)
                assert job.state == "done"
            finally:
                await manager.stop()
            assert registry.value(
                "repro_jobs_submitted_total", {"kind": "chaos"}) == 1
            assert registry.value("repro_jobs_deduplicated_total") == 1
            assert registry.value(
                "repro_jobs_completed_total", {"kind": "chaos"}) == 1
            assert registry.value(
                "repro_recorder_events_total", {"kind": "convergence"}) == 1
            assert registry.value("repro_jobs", {"state": "done"}) == 1
            assert registry.value("repro_queue_depth") == 0
            return True

        assert run(body())

    #: Every family the scenario below touches: (type, HELP text).
    FAMILIES = {
        "repro_admission_rejected_total": (
            "counter",
            "Submissions rejected because the queue was full (HTTP 429)."),
        "repro_job_cache_hits_total": (
            "counter",
            "Jobs served from the result cache with zero trial executions."),
        "repro_job_transitions_total": (
            "counter", "Job state transitions, by target state."),
        "repro_job_wall_seconds": (
            "histogram", "Job execution wall time, by kind."),
        "repro_job_wall_seconds_ema": (
            "gauge",
            "Exponential moving average of job execution wall seconds "
            "(feeds Retry-After)."),
        "repro_jobs": (
            "gauge", "Jobs known to the manager, by lifecycle state."),
        "repro_jobs_cancelled_total": (
            "counter", "Jobs that reached the cancelled state."),
        "repro_jobs_completed_total": (
            "counter", "Jobs that completed successfully, by kind."),
        "repro_jobs_deduplicated_total": (
            "counter",
            "Submissions answered by an existing job (idempotent "
            "resubmission)."),
        "repro_jobs_failed_total": (
            "counter", "Jobs that reached the failed state."),
        "repro_jobs_submitted_total": (
            "counter", "Jobs admitted to the queue, by kind."),
        "repro_queue_depth": ("gauge", "Jobs waiting in the queue."),
        "repro_recorder_events_total": (
            "counter",
            "Recorder events streamed from running jobs, by event kind."),
        "repro_recorder_samples_total": (
            "counter", "Recorder samples streamed from running jobs."),
        "repro_trials_completed_total": (
            "counter",
            "Trial spans closed across all jobs, by terminal status "
            "(throughput feed)."),
    }

    #: One entry per terminal state record, in publication order: the
    #: job, its state, and every series the scrape adds or changes
    #: (the first scrape lists every series).
    SCRAPES = [
        ("emitter", "done", {
            "repro_job_transitions_total{state=done}": 1.0,
            "repro_job_transitions_total{state=running}": 1.0,
            "repro_job_wall_seconds_bucket{kind=chaos,le=+Inf}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=0.05}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=0.1}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=0.25}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=0.5}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=10}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=1}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=2.5}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=300}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=30}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=5}": "masked",
            "repro_job_wall_seconds_bucket{kind=chaos,le=60}": "masked",
            "repro_job_wall_seconds_count{kind=chaos}": 1.0,
            "repro_job_wall_seconds_ema{}": "masked",
            "repro_job_wall_seconds_sum{kind=chaos}": "masked",
            "repro_jobs_completed_total{kind=chaos}": 1.0,
            "repro_jobs_deduplicated_total{}": 1.0,
            "repro_jobs_submitted_total{kind=chaos}": 1.0,
            "repro_jobs{state=cancelled}": 0.0,
            "repro_jobs{state=done}": 1.0,
            "repro_jobs{state=failed}": 0.0,
            "repro_jobs{state=queued}": 0.0,
            "repro_jobs{state=running}": 0.0,
            "repro_queue_depth{}": 0.0,
            "repro_recorder_events_total{kind=convergence}": 3.0,
            "repro_recorder_events_total{kind=fault}": 1.0,
            "repro_recorder_samples_total{}": 1.0,
            "repro_trials_completed_total{status=ok}": 2.0,
        }),
        ("failing", "failed", {
            "repro_job_transitions_total{state=failed}": 1.0,
            "repro_job_transitions_total{state=running}": 2.0,
            "repro_jobs_failed_total{}": 1.0,
            "repro_jobs_submitted_total{kind=chaos}": 2.0,
            "repro_jobs{state=failed}": 1.0,
            "repro_recorder_events_total{kind=fault}": 2.0,
            "repro_trials_completed_total{status=failed}": 1.0,
        }),
        # The mid-run job is still running: its first event and its
        # running transition are already counted.
        ("queued", "cancelled", {
            "repro_admission_rejected_total{}": 1.0,
            "repro_job_transitions_total{state=cancelled}": 1.0,
            "repro_job_transitions_total{state=running}": 3.0,
            "repro_jobs_cancelled_total{}": 1.0,
            "repro_jobs_submitted_total{kind=chaos}": 4.0,
            "repro_jobs{state=cancelled}": 1.0,
            "repro_jobs{state=running}": 1.0,
            "repro_recorder_events_total{kind=tick}": 1.0,
        }),
        # The trial span the cancel unwind closes is counted before the
        # terminal state is published.
        ("midrun", "cancelled", {
            "repro_job_transitions_total{state=cancelled}": 2.0,
            "repro_jobs_cancelled_total{}": 2.0,
            "repro_jobs{state=cancelled}": 2.0,
            "repro_jobs{state=running}": 0.0,
            "repro_trials_completed_total{status=cancelled}": 1.0,
        }),
        ("hit", "done", {
            "repro_job_cache_hits_total{}": 1.0,
            "repro_job_transitions_total{state=done}": 2.0,
            "repro_jobs_completed_total{kind=run}": 1.0,
            "repro_jobs_submitted_total{kind=run}": 1.0,
            "repro_jobs{state=done}": 2.0,
        }),
    ]

    #: Per job: the job document's event_counts and trials_done, and
    #: the result document's event_counts.
    DOCUMENTS = {
        "emitter": ({"convergence": 3, "fault": 1}, 2,
                    {"convergence": 3, "fault": 1}),
        "failing": ({"fault": 1}, None, None),
        "queued": (None, None, None),
        "midrun": ({"tick": 1}, None, None),
        "hit": ({"convergence": 5}, None, {"convergence": 5}),
    }

    def test_telemetry_golden(self, tmp_path, monkeypatch):
        """The whole ``/metrics`` exposition, pinned at every terminal
        state record of one lifecycle scenario.

        One manager with its own registry runs: a job that emits two
        event kinds, a sample and two ``ok`` trial spans, plus its
        deduplicated resubmission; a job that raises inside a trial; a
        job cancelled mid-run inside a trial; a queued job cancelled
        before it runs, and a 429 rejection while it waits; a cache hit
        served from a result written beforehand.  The registry is
        scraped synchronously as each terminal ``state`` record is
        published, so every count a job causes -- the trial spans the
        cancel and failure unwinds close included -- must be in place by
        then.  Only the wall-time histogram's sum and buckets and the
        wall EMA are masked (they measure time).
        """
        import threading

        from repro.obs import TelemetryRegistry, parse_prometheus_text
        from repro.service import jobs as jobs_mod

        release = threading.Event()

        def fake_execute(spec, *, checkpoint=None, recorder=None):
            seed = spec.params["seed"]
            if seed == 1:
                recorder.event("convergence", trial=0)
                recorder.sample(t=1.0, leaders=1)
                for trial in range(2):
                    recorder.begin_span("trial", f"t{trial}")
                    recorder.event("convergence", trial=trial)
                    recorder.end_span(f"t{trial}", status="ok")
                recorder.event("fault", trial=1)
                return {"ok": True, "result": {"seed": seed}}
            if seed == 2:
                recorder.begin_span("trial", "t0")
                recorder.event("fault", trial=0)
                raise RuntimeError("trial exploded")
            if seed == 3:
                recorder.begin_span("trial", "t0")
                recorder.event("tick", trial=0)
                release.wait(10.0)
                recorder.event("tick", trial=0)  # cancellation point
            raise AssertionError(f"seed {seed} must not execute")

        monkeypatch.setattr(jobs_mod, "execute_spec", fake_execute)

        scrapes = []
        publish = jobs_mod.Job.publish

        def scraping_publish(job, record):
            publish(job, record)
            if record.get("type") == "state" and record["state"] in (
                "done", "failed", "cancelled"
            ):
                scrapes.append((job.id, record["state"], registry.render()))

        monkeypatch.setattr(jobs_mod.Job, "publish", scraping_publish)
        registry = TelemetryRegistry()

        def chaos(seed):
            return {"kind": "chaos",
                    "spec": {"protocols": ["ciw"], "ns": [8], "trials": 1,
                             "seed": seed}}

        hit_payload = {"kind": "run", "spec": {"experiment": "thm21"}}

        async def settle(job):
            for _ in range(500):
                if job.terminal:
                    return
                await asyncio.sleep(0.01)
            raise AssertionError(f"{job.id} stuck in {job.state}")

        async def body():
            store = JobStore(str(tmp_path))
            store.write_result(
                JobSpec.from_payload(hit_payload).cache_key(),
                {"ok": True, "event_counts": {"convergence": 5},
                 "result": {"cached": True}},
            )
            manager = JobManager(store, max_queue=1, telemetry=registry)
            await manager.start()
            try:
                emitter, _ = manager.submit(chaos(1))
                assert manager.submit(chaos(1)) == (emitter, False)
                await settle(emitter)
                failing, _ = manager.submit(chaos(2))
                await settle(failing)
                midrun, _ = manager.submit(chaos(3))
                # Its first event published: the job is mid-trial.
                for _ in range(500):
                    if midrun.event_counts:
                        break
                    await asyncio.sleep(0.01)
                queued, _ = manager.submit(chaos(4))
                with pytest.raises(AdmissionError):
                    manager.submit(chaos(5))
                manager.cancel(queued.id)
                manager.cancel(midrun.id)
                release.set()
                await settle(midrun)
                hit, _ = manager.submit(hit_payload)
                await settle(hit)
            finally:
                release.set()
                await manager.stop()
            return [emitter, failing, queued, midrun, hit]

        jobs = run(body())
        names = ["emitter", "failing", "queued", "midrun", "hit"]
        label = dict(zip((job.id for job in jobs), names))

        def flat(text):
            """Parsed exposition as {series: value}, time masked."""
            out = {}
            for family, entry in parse_prometheus_text(text).items():
                for labels, value in entry["samples"].items():
                    suffix = dict(labels).get("__suffix__", "")
                    shown = ",".join(
                        f"{k}={v}" for k, v in labels if k != "__suffix__"
                    )
                    if family == "repro_job_wall_seconds_ema" or (
                        family == "repro_job_wall_seconds"
                        and suffix != "_count"
                    ):
                        value = "masked"
                    out[f"{family}{suffix}{{{shown}}}"] = value
            return out

        def families(text):
            """{family: (type, help)} from the exposition's comments."""
            helps = {}
            types = {}
            for line in text.splitlines():
                if line.startswith("# HELP "):
                    _, _, name, help_text = line.split(" ", 3)
                    helps[name] = help_text
                elif line.startswith("# TYPE "):
                    _, _, name, kind = line.split(" ", 3)
                    types[name] = kind
            assert set(helps) == set(types)
            return {name: (types[name], helps[name]) for name in types}

        observed = []
        previous = {}
        for job_id, state, text in scrapes:
            assert families(text).items() <= self.FAMILIES.items()
            current = flat(text)
            assert set(previous) <= set(current)  # no series disappears
            changed = {key: value for key, value in current.items()
                       if previous.get(key) != value}
            observed.append((label[job_id], state, changed))
            previous = current
        assert families(scrapes[-1][2]) == self.FAMILIES
        assert observed == self.SCRAPES

        documents = {
            label[job.id]: (
                job.to_document().get("event_counts"),
                job.to_document().get("trials_done"),
                (job.result or {}).get("event_counts"),
            )
            for job in jobs
        }
        assert documents == self.DOCUMENTS
