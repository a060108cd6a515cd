"""Closed-loop load against ``repro serve``: one client, one connection.

``run.py`` starts the server as a fresh :mod:`child` process, waits
for ``/healthz`` and a warm-up, then sends one job at a time: submit,
wait for the terminal state on the job's SSE stream, fetch the result.
New jobs come first, then each of them is submitted again (a hit).
The next job is sent only after the previous result arrived, so at
most one connection is open (the server closes each one).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time
from typing import Any, Dict, List, Optional, Tuple

#: Jobs run before timing starts, counted in ``setup_s``.
WARMUP_JOBS = 20

TERMINAL = ("done", "failed", "cancelled")
_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")


class Client:
    """Blocking HTTP/1.1 calls to one server (``http.client``, no proxies)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = json.dumps(payload).encode("utf8") if payload is not None else None
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def wait_terminal(self, job_id: str) -> Optional[str]:
        """Follow ``/jobs/{id}/events`` until a terminal state event.

        A job already terminal gets its buffered events replayed and the
        stream closed; if the terminal event aged out of that buffer the
        job document says how it ended.
        """
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            for line in response:
                if not line.startswith(b"data: "):
                    continue
                record = json.loads(line[len(b"data: "):])
                if record.get("type") == "state" and record.get("state") in TERMINAL:
                    return record["state"]
        finally:
            connection.close()
        status, body = self.request("GET", f"/jobs/{job_id}")
        return json.loads(body).get("state") if status == 200 else None

    def metric_total(self, name: str) -> float:
        """Sum of one counter family over its labels, from ``/metrics``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        total = 0.0
        for line in body.decode("utf8").splitlines():
            if line.startswith(name + "{") or line.startswith(name + " "):
                total += float(line.rsplit(" ", 1)[1])
        return total


def chaos_spec(seed: int) -> Dict[str, Any]:
    """One service job: a two-trial chaos sweep of CIW at n=16.

    Its ~15 ms of simulation is about three quarters of a job's latency
    at rest.  At n=8 (~3 ms) the service's own request handling was
    most of it; that part slows under host contention in a way the
    speed probe does not follow (thread wake-ups rather than
    interpreter work), and run values spread 14% after the at-rest
    correction.
    """
    return {"kind": "chaos", "spec": {"protocols": ["ciw"], "ns": [16], "trials": 2, "seed": seed}}


def run_job(client: Client, seed: int) -> Dict[str, Any]:
    """Submit, await the terminal state, fetch the result; all timed."""
    started = time.monotonic()
    submit_status, body = client.request("POST", "/jobs", chaos_spec(seed))
    submitted = time.monotonic()
    if submit_status not in (200, 202):
        raise RuntimeError(f"POST /jobs answered {submit_status}: {body[:200]!r}")
    job_id = json.loads(body)["id"]
    state = client.wait_terminal(job_id)
    finished = time.monotonic()
    status, result = client.request("GET", f"/jobs/{job_id}/result")
    fetched = time.monotonic()
    return {
        "seed": seed,
        "start": started,
        "end": fetched,
        "id": job_id,
        # 202 admits a new job; 200 answers with an existing one.
        "created": submit_status == 202,
        "state": state,
        "result": result if status == 200 else b"",
        "ok": json.loads(result).get("ok") if status == 200 else None,
        "submit": submitted - started,
        "wait": finished - submitted,
        "fetch": fetched - finished,
        "latency": fetched - started,
    }


def wait_listening(stderr_path: str, proc: Any, timeout: float) -> Tuple[str, int]:
    """The address the server logged once it bound its ephemeral port."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} before listening")
        with open(stderr_path, "rb") as handle:
            match = _LISTENING.search(handle.read())
        if match:
            return match.group(1).decode(), int(match.group(2))
        time.sleep(0.002)
    raise RuntimeError("server did not start listening in time")


def journal_bytes(store: str) -> int:
    path = os.path.join(store, "jobs.jsonl")
    return os.path.getsize(path) if os.path.exists(path) else 0


def job_seeds(seed: int, count: int, offset: int = 0) -> List[int]:
    """Distinct job seeds derived from the benchmark seed."""
    return [seed * 1_000_000 + offset + index for index in range(count)]
