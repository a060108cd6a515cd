"""Crash-recovery proof for the service (the PR's acceptance criterion).

A real ``repro serve`` subprocess is killed with SIGKILL mid-job; a
restarted server must re-admit the job from the journal, resume the
sweep from the trial checkpoint (recomputing only the missing trials),
and produce a result *bit-identical* to the direct CLI path.  A
duplicate ``(spec, seed, sha)`` submission afterwards must be served
from the result cache with zero trial executions.
"""

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.service import client

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Multi-trial sweep: about a second of serial trials (n=64), long
#: enough that SIGKILL lands mid-run, small enough to finish quickly on
#: resume.
JOB_SPEC = {"protocols": ["ciw"], "ns": [64], "trials": 8, "seed": 101}
TRIALS = JOB_SPEC["trials"]

#: Poll period while waiting for the kill window, in seconds.
POLL_SECONDS = 0.005


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(port, store_root, ledger_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--store", store_root,
            "--ledger", ledger_path,
            # Two worker loops: the kill -9 proof must hold with
            # concurrent execution, not just the single-worker case.
            "--jobs", "2",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    base_url = f"http://127.0.0.1:{port}"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server died on startup: rc={process.returncode}")
        try:
            client.get_health(base_url, timeout=2)
            return process, base_url
        except OSError:
            time.sleep(0.1)
    process.kill()
    raise RuntimeError("server did not come up within 30s")


@pytest.mark.slow
def test_kill9_resume_bit_identical_and_cached(tmp_path):
    store_root = str(tmp_path / "service")
    ledger_path = str(tmp_path / "ledger.jsonl")
    port = _free_port()

    journal = os.path.join(store_root, "jobs.jsonl")

    # -- first life: submit, wait until the job is running with at least
    # one checkpointed trial, kill -9
    process, base_url = _start_server(port, store_root, ledger_path)
    try:
        document = client.submit_job(base_url, "chaos", JOB_SPEC)
        job_id = document["id"]
        checkpoint = os.path.join(store_root, "checkpoints", f"{job_id}.pkl")
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if (
                _last_state(journal, job_id) == "running"
                and _checkpoint_records(checkpoint) >= 1
            ):
                break
            time.sleep(POLL_SECONDS)
        else:
            pytest.fail("the job never ran with a checkpointed trial in time")
    finally:
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)

    # The precondition, read from what the dead process left on disk:
    # the kill landed mid-sweep.  Appends are single os.write calls, so
    # the checkpoint holds whole records only.
    killed_state = _last_state(journal, job_id)
    killed_records = _checkpoint_records(checkpoint)
    assert killed_state == "running" and 1 <= killed_records < TRIALS, (
        f"SIGKILL did not land mid-sweep (journal state {killed_state!r}, "
        f"{killed_records}/{TRIALS} trials checkpointed); the test cannot "
        "show a resume"
    )

    # -- second life: the journal re-admits the job, the checkpoint
    # resumes the sweep, and the job completes.
    process, base_url = _start_server(port, store_root, ledger_path)
    try:
        recovered = client.get_job(base_url, job_id)
        assert recovered["state"] in ("queued", "running", "done")
        final = client.wait_for_job(base_url, job_id, timeout=300)
        assert final["state"] == "done"
        assert final["ok"] is True
        result = client.get_result(base_url, job_id)

        # Resume recomputed only the missing trials: the second life
        # journaled strictly fewer trials than the sweep holds.
        resumed_writes = final["event_counts"]["checkpoint-write"]
        assert 0 < resumed_writes < TRIALS

        # Bit-identical to the direct (uninterrupted) CLI path.
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        try:
            from repro.experiments.chaos import run_chaos
        finally:
            sys.path.pop(0)
        direct = run_chaos(
            protocols=JOB_SPEC["protocols"],
            ns=JOB_SPEC["ns"],
            trials=JOB_SPEC["trials"],
            seed=JOB_SPEC["seed"],
        )
        assert json.dumps(result["result"], sort_keys=True) == json.dumps(
            direct.to_json(), sort_keys=True
        )

        # -- dedupe half of the criterion: an identical submission is
        # served from the result cache with zero trial executions.
        running_before = _count_running(journal, job_id)
        checkpoint_size_before = os.path.getsize(checkpoint)
        duplicate = client.submit_job(base_url, "chaos", dict(JOB_SPEC))
        assert duplicate["id"] == job_id
        assert duplicate["state"] == "done"
        # No new execution: no new running transition, no new trial
        # journaled, and the served document still carries the resumed
        # run's event counts.
        assert _count_running(journal, job_id) == running_before
        assert os.path.getsize(checkpoint) == checkpoint_size_before
        served = client.get_result(base_url, job_id)
        assert served == result
    finally:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)


def _journal_records(journal_path, job_id):
    """The job's journal records; a torn final line is skipped."""
    if not os.path.exists(journal_path):
        return []
    records = []
    with open(journal_path, encoding="utf8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("job") == job_id:
                records.append(record)
    return records


def _last_state(journal_path, job_id):
    states = [r["state"] for r in _journal_records(journal_path, job_id)]
    return states[-1] if states else None


def _checkpoint_records(path):
    """Whole trial records in a checkpoint journal (0 if absent)."""
    if not os.path.exists(path):
        return 0
    count = 0
    with open(path, "rb") as handle:
        while True:
            try:
                pickle.load(handle)
            except (EOFError, pickle.UnpicklingError):
                return count
            count += 1


def _count_running(journal_path, job_id):
    return sum(
        1 for record in _journal_records(journal_path, job_id)
        if record.get("state") == "running"
    )


@pytest.mark.slow
def test_restart_after_clean_completion_serves_cache(tmp_path):
    """A restarted server serves a previously completed job from the
    result cache: recovery covers terminal history, not just live work."""
    store_root = str(tmp_path / "service")
    ledger_path = str(tmp_path / "ledger.jsonl")
    port = _free_port()
    spec = {"protocols": ["ciw"], "ns": [8], "trials": 2, "seed": 33}

    process, base_url = _start_server(port, store_root, ledger_path)
    try:
        document = client.submit_job(base_url, "chaos", spec)
        final = client.wait_for_job(base_url, document["id"], timeout=300)
        assert final["state"] == "done"
        result = client.get_result(base_url, document["id"])
    finally:
        process.terminate()
        process.wait(timeout=15)

    process, base_url = _start_server(port, store_root, ledger_path)
    try:
        recovered = client.get_job(base_url, document["id"])
        assert recovered["state"] == "done"
        assert client.get_result(base_url, document["id"]) == result
        # Resubmission is answered instantly from history.
        duplicate = client.submit_job(base_url, "chaos", dict(spec))
        assert duplicate["id"] == document["id"]
        assert duplicate["state"] == "done"
    finally:
        process.terminate()
        process.wait(timeout=15)
