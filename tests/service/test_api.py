"""Tests for the HTTP API (:mod:`repro.service.api`).

A real server on an ephemeral port, driven through the blocking client
(:mod:`repro.service.client`) -- the same pairing ``repro submit`` and
the CI smoke use, so client and server are tested as one contract.
"""

import asyncio
import json
import os
import socket
import threading
import urllib.request

import pytest

from repro.service import client
from repro.service.api import serve


class ServerFixture:
    """One service instance on its own event-loop thread."""

    def __init__(self, root, **kwargs):
        self.root = str(root)
        self.kwargs = kwargs
        self.base_url = None
        self._thread = None
        self._loop = None
        self._task = None

    def start(self):
        ready = threading.Event()
        box = []

        def run_loop():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            aready = asyncio.Event()

            async def main():
                self._task = self._loop.create_task(
                    serve(host="127.0.0.1", port=0, store_root=self.root,
                          ledger_path=f"{self.root}/ledger.jsonl",
                          ready=aready, server_box=box, **self.kwargs)
                )
                await aready.wait()
                ready.set()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass

            self._loop.run_until_complete(main())
            self._loop.close()

        self._thread = threading.Thread(target=run_loop, daemon=True)
        self._thread.start()
        assert ready.wait(15), "server did not come up"
        server = box[0]
        self.base_url = f"http://{server.host}:{server.port}"
        return self

    def stop(self):
        if self._loop is not None and self._task is not None:
            self._loop.call_soon_threadsafe(self._task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=10)


@pytest.fixture
def server(tmp_path):
    fixture = ServerFixture(tmp_path / "service").start()
    yield fixture
    fixture.stop()


SMALL_CHAOS = {"protocols": ["ciw"], "ns": [8], "trials": 1, "seed": 5}


class TestRoutes:
    def test_healthz_reports_ok(self, server):
        health = client.get_health(server.base_url)
        assert health["status"] == "ok"
        assert health["degraded_reasons"] == []
        assert health["queue_depth"] == 0
        assert "version" in health

    def test_submit_accepted_then_done(self, server):
        document = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        assert document["state"] in ("queued", "running", "done")
        assert document["id"].startswith("job-")
        final = client.wait_for_job(server.base_url, document["id"], timeout=120)
        assert final["state"] == "done"
        assert final["ok"] is True
        result = client.get_result(server.base_url, document["id"])
        assert result["result"]["cells"][0]["protocol"] == "ciw"

    def test_duplicate_submission_returns_same_job(self, server):
        first = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        shuffled = {"seed": 5, "trials": 1, "ns": [8], "protocols": ["ciw"]}
        second = client.submit_job(server.base_url, "chaos", shuffled)
        assert second["id"] == first["id"]

    def test_validation_error_is_400(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client.submit_job(server.base_url, "chaos", {"protocols": ["nope"]})
        assert info.value.status == 400
        assert "unknown protocol" in str(info.value)

    def test_unknown_job_is_404(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client.get_job(server.base_url, "job-doesnotexist")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client._request(server.base_url, "/nope")
        assert info.value.status == 404

    def test_result_before_done_is_404(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client.get_result(server.base_url, "job-doesnotexist")
        assert info.value.status == 404

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, server, length):
        host, port = server.base_url[len("http://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"strikes": -1}, "'strikes'"),
            ({"strikes": 0}, "'strikes'"),
            ({"fraction": -0.5}, "'fraction'"),
            ({"period_factor": 0}, "'period_factor'"),
            ({"agents": 0}, "'agents'"),
            ({"poisson_rate": -2}, "'poisson_rate'"),
            ({"engine": "warp"}, "'engine'"),
            ({"protocols": []}, "'protocols'"),
            ({"agents": 9}, "'agents'"),
        ],
    )
    def test_invalid_chaos_parameters_are_400(self, server, bad, name):
        """Chaos ranges are checked at submission: a vacuous sweep is
        never cached and an unrunnable one never fails inside trial 0.
        Nothing is journaled for the rejected payload."""
        with pytest.raises(client.ServiceClientError) as info:
            client.submit_job(server.base_url, "chaos", dict(SMALL_CHAOS, **bad))
        assert info.value.status == 400
        assert name in str(info.value)
        journal = os.path.join(server.root, "jobs.jsonl")
        assert not os.path.exists(journal) or os.path.getsize(journal) == 0

    @pytest.mark.parametrize(
        "kind, spec, needle",
        [
            ("bench", {"suite": "nope"}, "unknown suite(s) nope"),
            ("bench", {"suite": "engine", "cells": ["nope"]}, "no cell(s) ['nope']"),
            ("run", {"experiment": "figure1", "engine": "count"},
             "does not support engine selection"),
            ("run", {"experiment": "table1", "engine": "generic"},
             "runs on engine 'count' or 'vector', got 'generic'"),
            ("run", {"experiment": "frontier", "engine": "auto"},
             "runs on engine 'count' or 'vector', got 'auto'"),
        ],
    )
    def test_unrunnable_specs_are_400(self, server, kind, spec, needle):
        """A spec that could only fail inside execution -- an unknown
        bench suite or cell, an engine the experiment does not declare -- is
        refused at submission, and nothing is journaled for it."""
        with pytest.raises(client.ServiceClientError) as info:
            client.submit_job(server.base_url, kind, spec)
        assert info.value.status == 400
        assert needle in str(info.value)
        journal = os.path.join(server.root, "jobs.jsonl")
        assert not os.path.exists(journal) or os.path.getsize(journal) == 0

    def test_removed_priority_field_is_400(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client.submit_job(
                server.base_url, "chaos", dict(SMALL_CHAOS, priority=5)
            )
        assert info.value.status == 400
        assert "'priority'" in str(info.value)

    def test_job_listing(self, server):
        client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        listing = client._request(server.base_url, "/jobs")
        assert len(listing["jobs"]) == 1
        assert "counts" in listing

    def test_done_job_keeps_progress_across_restart(self, tmp_path):
        """A finished job recovered by a restarted server on the same
        store reports the progress it finished with."""
        root = tmp_path / "service"
        spec = {**SMALL_CHAOS, "trials": 2}
        first = ServerFixture(root).start()
        try:
            document = client.submit_job(first.base_url, "chaos", spec)
            final = client.wait_for_job(first.base_url, document["id"], timeout=120)
        finally:
            first.stop()
        assert final["state"] == "done"
        assert (final["trials_done"], final["trials_total"]) == (2, 2)
        second = ServerFixture(root).start()
        try:
            recovered = client.get_job(second.base_url, document["id"])
        finally:
            second.stop()
        assert recovered["state"] == "done"
        for key in ("trials_done", "trials_total", "event_counts", "ok"):
            assert recovered[key] == final[key], key


class TestAdmissionControl:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path, monkeypatch):
        import repro.experiments.chaos as chaos_module

        # A one-job queue keeps this test fast: the point is the 429,
        # not the jobs.  A job takes about a millisecond, less than a
        # submission round trip, so the worker holds its first trial
        # until the test is done submitting: the queue then fills.
        submitted = threading.Event()
        trial = chaos_module._chaos_trial

        def held_trial(*args, **kwargs):
            submitted.wait(60)
            return trial(*args, **kwargs)

        monkeypatch.setattr(chaos_module, "_chaos_trial", held_trial)
        fixture = ServerFixture(tmp_path / "svc", max_queue=1).start()
        try:
            seeds = iter(range(100))
            saw_429 = None
            for _ in range(20):
                try:
                    client.submit_job(
                        fixture.base_url, "chaos",
                        {**SMALL_CHAOS, "seed": next(seeds)},
                    )
                except client.QueueFullError as exc:
                    saw_429 = exc
                    break
            assert saw_429 is not None, "queue never filled"
            assert saw_429.retry_after >= 1.0
        finally:
            submitted.set()
            fixture.stop()


class TestCancellationRoutes:
    def test_delete_unknown_job_is_404(self, server):
        with pytest.raises(client.ServiceClientError) as info:
            client.cancel_job(server.base_url, "job-doesnotexist")
        assert info.value.status == 404

    def test_delete_terminal_job_is_409(self, server):
        document = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        client.wait_for_job(server.base_url, document["id"], timeout=120)
        with pytest.raises(client.ServiceClientError) as info:
            client.cancel_job(server.base_url, document["id"])
        assert info.value.status == 409
        assert info.value.body["state"] == "done"

    def test_delete_mid_sweep_cancels_and_resubmission_resumes(
        self, tmp_path, monkeypatch
    ):
        """The acceptance path end to end over HTTP: DELETE a chaos job
        mid-sweep, observe the journaled ``cancelled`` state, then
        resubmit the identical spec and watch it resume from the
        preserved checkpoint to a result bit-identical to an
        uninterrupted direct run."""
        import repro.experiments.chaos as chaos_module

        # The whole sweep takes a few milliseconds, less than the SSE
        # round trip, so the second trial waits for the DELETE: the
        # cancel then lands mid-sweep however fast the trials are.
        delete_sent = threading.Event()
        trial = chaos_module._chaos_trial
        trials_started = []

        def held_trial(*args, **kwargs):
            if trials_started:
                delete_sent.wait(60)
            trials_started.append(True)
            return trial(*args, **kwargs)

        monkeypatch.setattr(chaos_module, "_chaos_trial", held_trial)
        fixture = ServerFixture(tmp_path / "svc").start()
        try:
            spec = {"protocols": ["ciw"], "ns": [16], "trials": 10,
                    "seed": 202}
            document = client.submit_job(fixture.base_url, "chaos", spec)
            job_id = document["id"]
            # The SSE stream tells us when the sweep has journaled its
            # first trial -- cancel lands mid-sweep, deterministically.
            for event in client.iter_events(
                fixture.base_url, job_id, timeout=120
            ):
                if event.get("kind") == "checkpoint-write":
                    break
            cancelled = client.cancel_job(fixture.base_url, job_id)
            delete_sent.set()
            assert cancelled["cancel_requested"] is True
            final = client.wait_for_job(fixture.base_url, job_id, timeout=120)
            assert final["state"] == "cancelled"
            # A second DELETE is a conflict: the job is already terminal.
            with pytest.raises(client.ServiceClientError) as info:
                client.cancel_job(fixture.base_url, job_id)
            assert info.value.status == 409
            assert info.value.body["state"] == "cancelled"
            checkpoint = tmp_path / "svc" / "checkpoints" / f"{job_id}.pkl"
            assert checkpoint.exists() and checkpoint.stat().st_size > 0
            # Same spec, same identity: the resubmission reuses the job
            # id and resumes from the checkpoint.
            resubmitted = client.submit_job(fixture.base_url, "chaos", spec)
            assert resubmitted["id"] == job_id
            final = client.wait_for_job(fixture.base_url, job_id, timeout=300)
            assert final["state"] == "done"
            # Fewer checkpoint writes than trials: the trials completed
            # before the cancel were never recomputed.
            assert 0 < final["event_counts"]["checkpoint-write"] < 10
            result = client.get_result(fixture.base_url, job_id)
            from repro.experiments.chaos import run_chaos

            direct = run_chaos(
                protocols=["ciw"], ns=[16], trials=10, seed=202
            )
            assert result["result"] == json.loads(
                json.dumps(direct.to_json(), default=str)
            )
        finally:
            fixture.stop()


class TestEventStream:
    def test_sse_replays_and_terminates(self, server):
        document = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        client.wait_for_job(server.base_url, document["id"], timeout=120)
        events = list(
            client.iter_events(server.base_url, document["id"], timeout=30)
        )
        kinds = [event.get("type") for event in events]
        assert "state" in kinds  # lifecycle transitions present
        states = [event["state"] for event in events
                  if event.get("type") == "state"]
        assert states[-1] == "done"
        # Recorder events from the simulation rode along.
        recorder_kinds = {event.get("kind") for event in events
                          if event.get("type") == "event"}
        assert "checkpoint-write" in recorder_kinds

    def test_sse_content_type(self, server):
        document = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        client.wait_for_job(server.base_url, document["id"], timeout=120)
        url = server.base_url + f"/jobs/{document['id']}/events"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.headers["Content-Type"] == "text/event-stream"


class TestHealthDegradation:
    def test_degraded_journal_flips_healthz(self, tmp_path, monkeypatch):
        """A failing job journal reports degraded (compute-only) health
        instead of killing the service."""
        import errno
        import os

        fixture = ServerFixture(tmp_path / "svc").start()
        try:
            journal = str(tmp_path / "svc" / "jobs.jsonl")
            real_write = os.write

            def failing_write(fd, data):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    target = ""
                if target == journal:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_write(fd, data)

            monkeypatch.setattr(os, "write", failing_write)
            document = client.submit_job(
                fixture.base_url, "chaos", SMALL_CHAOS
            )
            final = client.wait_for_job(
                fixture.base_url, document["id"], timeout=120
            )
            # The job still completed -- compute survives the bad disk.
            assert final["state"] == "done"
            health = client.get_health(fixture.base_url)
            assert health["status"] == "degraded"
            assert any("journal" in reason
                       for reason in health["degraded_reasons"])
            monkeypatch.undo()
            # The next successful append self-clears the degradation.
            second = client.submit_job(
                fixture.base_url, "chaos", {**SMALL_CHAOS, "seed": 6}
            )
            client.wait_for_job(fixture.base_url, second["id"], timeout=120)
            health = client.get_health(fixture.base_url)
            assert health["status"] == "ok"
        finally:
            fixture.stop()

    def test_unrelated_degraded_paths_do_not_flip_healthz(self, tmp_path):
        """Health reflects the service's own write paths: a degraded
        ledger elsewhere in the process (a CLI run, another test) is not
        this server's problem."""
        from repro.obs.ledger import atomic_append_line, degraded_paths

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        foreign = str(blocker / "ledger.jsonl")  # parent is a file
        assert atomic_append_line(foreign, "{}", label="ledger") is False
        assert foreign in degraded_paths()

        fixture = ServerFixture(tmp_path / "svc").start()
        try:
            health = client.get_health(fixture.base_url)
            assert health["status"] == "ok"
            assert health["degraded_reasons"] == []
        finally:
            fixture.stop()


class TestJsonResponses:
    def test_responses_are_json_with_length(self, server):
        with urllib.request.urlopen(server.base_url + "/healthz", timeout=10) as r:
            assert r.headers["Content-Type"] == "application/json"
            body = r.read()
            assert len(body) == int(r.headers["Content-Length"])
            json.loads(body)


class TestMetricsEndpoint:
    """``GET /metrics``: the Prometheus scrape surface.

    The process-wide registry is shared across server fixtures in one
    test process, so assertions are about *movement* (counters are
    monotone) and presence, never absolute values.
    """

    def test_metrics_is_valid_exposition_text(self, server):
        from repro.obs import parse_prometheus_text

        text = client.get_metrics(server.base_url)
        families = parse_prometheus_text(text)  # raises on malformed lines
        assert "repro_queue_depth" in families
        assert families["repro_queue_depth"]["type"] == "gauge"

    def test_metrics_content_type_is_prometheus_text(self, server):
        request = urllib.request.Request(server.base_url + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]

    def test_counters_move_across_a_job(self, server):
        from repro.obs import parse_prometheus_text

        def counter(families, name, **labels):
            family = families.get(name)
            if family is None:
                return 0.0
            return sum(
                value for key, value in family["samples"].items()
                if all(dict(key).get(k) == v for k, v in labels.items())
            )

        before = parse_prometheus_text(client.get_metrics(server.base_url))
        document = client.submit_job(server.base_url, "chaos", SMALL_CHAOS)
        client.wait_for_job(server.base_url, document["id"], timeout=120)
        after = parse_prometheus_text(client.get_metrics(server.base_url))
        submitted = "repro_jobs_submitted_total"
        completed = "repro_jobs_completed_total"
        assert counter(after, submitted, kind="chaos") == \
            counter(before, submitted, kind="chaos") + 1
        assert counter(after, completed, kind="chaos") == \
            counter(before, completed, kind="chaos") + 1
        assert counter(after, "repro_job_transitions_total") > \
            counter(before, "repro_job_transitions_total")

    def test_healthz_snapshots_telemetry(self, server):
        health = client.get_health(server.base_url)
        telemetry = health["telemetry"]
        assert "repro_queue_depth" in telemetry
        # Histograms stay on /metrics; the snapshot is counters/gauges.
        assert "repro_job_wall_seconds" not in telemetry
