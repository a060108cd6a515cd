"""Minimal HTTP/1.1 API over asyncio streams (stdlib only).

No web framework and no ``http.server``: requests are parsed off an
:mod:`asyncio` ``StreamReader`` directly, which keeps the service free
of new dependencies and keeps the event loop in charge of every socket
(so graceful shutdown and SSE fan-out need no extra threads).

Routes
------

``POST /jobs``
    Submit a job payload (``{"kind": ..., "spec": {...}}``).  Replies
    ``202 Accepted`` with the job document, ``200`` if the identical
    ``(spec, seed, git_sha)`` job already exists (idempotent resubmit),
    ``400`` on validation errors, and ``429`` + ``Retry-After`` when the
    bounded queue is full (admission control: reject early, recover
    fast).

``GET /jobs`` / ``GET /jobs/{id}``
    Job listing / one job document (state, attempt, error, timings,
    cache provenance).

``GET /jobs/{id}/events``
    Server-sent events: the job's lifecycle transitions plus the
    metrics-recorder event stream (``worker-retry``, ``fault``,
    ``recovered``, ...), replayed from the buffer then live until the
    job reaches a terminal state.

``GET /jobs/{id}/result``
    The full result document (404 until the job is ``done``).

``DELETE /jobs/{id}``
    Cancel a job.  A queued job is journaled ``cancelled`` immediately;
    a running job unwinds at its next recorder hook with its completed
    trials preserved in the checkpoint.  ``409`` if already terminal.

``GET /healthz``
    Liveness plus *degraded-mode* reporting: a failing ledger or job
    journal flips ``status`` to ``degraded`` (computation continues,
    durability is reduced) rather than failing the probe outright.
    Includes a ``telemetry`` snapshot of the counter/gauge families.

``GET /metrics``
    The process-wide :class:`~repro.obs.promexp.TelemetryRegistry` in
    Prometheus text exposition format (``text/plain; version=0.0.4``):
    jobs by state/kind, queue depth, admission rejections,
    cancellations, EMA wall time, trial throughput, recorder streams.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro import __version__
from repro.obs.ledger import degraded_paths
from repro.obs.log import get_logger
from repro.obs.provenance import git_sha, utc_timestamp
from repro.service.jobs import AdmissionError, JobManager, JobValidationError

__all__ = ["ServiceServer", "serve"]

logger = get_logger("service.api")

#: Largest request body the server will read (1 MiB is generous for specs).
MAX_BODY = 1 << 20

#: Idle keep-alive before SSE heartbeats (seconds).
SSE_HEARTBEAT = 15.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _response(
    status: int,
    body: Dict[str, Any],
    *,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


def _text_response(status: int, text: str, *, content_type: str) -> bytes:
    """A plain-text response (the ``/metrics`` exposition body)."""
    payload = text.encode("utf8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


class ServiceServer:
    """The asyncio HTTP server wrapping one :class:`JobManager`."""

    def __init__(self, manager: JobManager, *, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.started_unix: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Recover jobs, bind the socket; returns the bound address."""
        recovered = await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        self.started_unix = utc_timestamp()
        logger.warning(
            "service listening on http://%s:%d (recovered %d job(s))",
            self.host, self.port, recovered,
        )
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- request handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to clean up beyond the socket
        except Exception as exc:  # defensive: one bad request != dead server
            logger.warning("request handler error: %s", exc)
            try:
                writer.write(_response(500, {"error": "internal error"}))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, target, _version = request_line.decode("ascii").split()
        except ValueError:
            writer.write(_response(400, {"error": "malformed request line"}))
            await writer.drain()
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            writer.write(_response(
                400, {"error": f"malformed Content-Length: {raw_length!r}"}
            ))
            await writer.drain()
            return
        length = int(raw_length)
        if length > MAX_BODY:
            writer.write(_response(413, {"error": f"body exceeds {MAX_BODY} bytes"}))
            await writer.drain()
            return
        if length:
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        handler = self._route(method, path)
        if handler is None:
            writer.write(_response(404, {"error": f"no route for {method} {path}"}))
            await writer.drain()
            return
        await handler(writer, body)
        await writer.drain()

    def _route(
        self, method: str, path: str
    ) -> Optional[Callable[[asyncio.StreamWriter, bytes], Awaitable[None]]]:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return self._get_healthz
        if method == "GET" and parts == ["metrics"]:
            return self._get_metrics
        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                return self._post_jobs
            if method == "GET" and len(parts) == 1:
                return self._get_jobs
            if method == "GET" and len(parts) == 2:
                return self._make_job_handler(parts[1], self._get_job)
            if method == "DELETE" and len(parts) == 2:
                return self._make_job_handler(parts[1], self._delete_job)
            if method == "GET" and len(parts) == 3 and parts[2] == "events":
                return self._make_job_handler(parts[1], self._get_job_events)
            if method == "GET" and len(parts) == 3 and parts[2] == "result":
                return self._make_job_handler(parts[1], self._get_job_result)
        return None

    def _make_job_handler(
        self, job_id: str, handler: Callable[..., Awaitable[None]]
    ) -> Callable[[asyncio.StreamWriter, bytes], Awaitable[None]]:
        async def bound(writer: asyncio.StreamWriter, body: bytes) -> None:
            job = self.manager.get(job_id)
            if job is None:
                writer.write(_response(404, {"error": f"no such job: {job_id}"}))
                return
            await handler(writer, job)

        return bound

    # -- routes ---------------------------------------------------------

    async def _post_jobs(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            writer.write(_response(400, {"error": f"invalid JSON body: {exc}"}))
            return
        try:
            job, created = self.manager.submit(payload)
        except JobValidationError as exc:
            writer.write(_response(400, {"error": str(exc)}))
            return
        except AdmissionError as exc:
            writer.write(
                _response(
                    429,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    extra_headers={"Retry-After": f"{exc.retry_after:.0f}"},
                )
            )
            return
        writer.write(_response(202 if created else 200, job.to_document()))

    async def _get_jobs(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        jobs = sorted(
            self.manager.jobs.values(), key=lambda job: job.created_unix
        )
        writer.write(
            _response(
                200,
                {
                    "jobs": [job.to_document() for job in jobs],
                    "queue_depth": self.manager.queue_depth(),
                    "counts": self.manager.counts(),
                },
            )
        )

    async def _get_job(self, writer: asyncio.StreamWriter, job: Any) -> None:
        writer.write(_response(200, job.to_document()))

    async def _delete_job(self, writer: asyncio.StreamWriter, job: Any) -> None:
        """Cancel a job: instant for queued work, cooperative for running."""
        if job.terminal:
            writer.write(
                _response(
                    409,
                    {"error": f"job {job.id} is already terminal "
                              f"(state: {job.state})",
                     "state": job.state},
                )
            )
            return
        self.manager.cancel(job.id)
        writer.write(_response(200, job.to_document()))

    async def _get_job_result(self, writer: asyncio.StreamWriter, job: Any) -> None:
        if job.state != "done" or job.result is None:
            writer.write(
                _response(
                    404,
                    {"error": f"job {job.id} has no result (state: {job.state})"},
                )
            )
            return
        writer.write(_response(200, job.result))

    async def _get_job_events(self, writer: asyncio.StreamWriter, job: Any) -> None:
        """Stream job events as SSE until the job is terminal.

        Replays the buffered history first (``id:`` carries the
        sequence number), then follows live events; a terminal state
        transition ends the stream.  Heartbeat comments keep idle
        connections alive through proxies.
        """
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(headers.encode("ascii"))
        await writer.drain()

        def frame(sequence: int, record: Dict[str, Any]) -> bytes:
            kind = record.get("type", "event")
            data = json.dumps(record, sort_keys=True)
            return f"id: {sequence}\nevent: {kind}\ndata: {data}\n\n".encode("utf8")

        queue = job.subscribe()
        try:
            last_seen = 0
            for sequence, record in list(job.events):
                writer.write(frame(sequence, record))
                last_seen = sequence
            await writer.drain()
            if job.terminal:
                return
            while True:
                try:
                    sequence, record = await asyncio.wait_for(
                        queue.get(), timeout=SSE_HEARTBEAT
                    )
                except asyncio.TimeoutError:
                    if job.terminal:
                        return
                    writer.write(b": heartbeat\n\n")
                    await writer.drain()
                    continue
                if sequence <= last_seen:
                    continue
                writer.write(frame(sequence, record))
                await writer.drain()
                if record.get("type") == "state" and record.get("state") in (
                    "done",
                    "failed",
                    "cancelled",
                ):
                    return
        finally:
            job.unsubscribe(queue)

    async def _get_metrics(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        """The telemetry registry in Prometheus text exposition format."""
        # Gauges are point-in-time: refresh them at scrape time so a
        # scrape between job transitions still sees the live queue.
        self.manager.update_gauges()
        writer.write(
            _text_response(
                200,
                self.manager.telemetry.render(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        )

    async def _get_healthz(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        reasons = list(self.manager.store.degraded_reasons())
        # Only paths this service writes belong in its health: the run
        # ledger and anything under the store root.  Other degraded
        # paths in the process (a CLI run's ledger, say) are not ours.
        store_root = os.path.abspath(self.manager.store.root) + os.sep
        for path in degraded_paths():
            if path == self.manager.store.journal_path:
                continue  # already reported by the store itself
            if path != self.manager.ledger_path and not os.path.abspath(path).startswith(
                store_root
            ):
                continue
            reasons.append(f"ledger appends failing: {path}")
        status = "degraded" if reasons else "ok"
        writer.write(
            _response(
                200,
                {
                    "status": status,
                    "degraded_reasons": reasons,
                    "version": __version__,
                    "git_sha": git_sha(),
                    "uptime_seconds": (
                        round(utc_timestamp() - self.started_unix, 3)
                        if self.started_unix is not None
                        else None
                    ),
                    "queue_depth": self.manager.queue_depth(),
                    "max_queue": self.manager.max_queue,
                    "concurrency": self.manager.concurrency,
                    "jobs": self.manager.counts(),
                    "telemetry": self._telemetry_snapshot(),
                },
            )
        )

    def _telemetry_snapshot(self) -> Dict[str, Any]:
        """Counters and gauges for ``/healthz`` (histograms omitted --
        the full families live at ``/metrics``)."""
        self.manager.update_gauges()
        return {
            name: family
            for name, family in self.manager.telemetry.snapshot().items()
            if family["type"] in ("counter", "gauge")
        }


async def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    store_root: str = "reports/service",
    max_queue: int = 16,
    concurrency: int = 1,
    ledger_path: Optional[str] = None,
    workers: Optional[int] = None,
    ready: Optional["asyncio.Event"] = None,
    server_box: Optional[list] = None,
) -> None:
    """Build the store + manager + server and serve until cancelled.

    ``ready``/``server_box`` let embedding callers (tests, the CLI)
    learn the bound port of an ephemeral-port server.
    """
    from repro.obs.ledger import record_invocation
    from repro.service.store import JobStore

    store = JobStore(store_root)
    manager = JobManager(
        store,
        max_queue=max_queue,
        concurrency=concurrency,
        ledger_path=ledger_path,
        default_workers=workers,
    )
    server = ServiceServer(manager, host=host, port=port)
    if server_box is not None:
        server_box.append(server)
    await server.start()
    record_invocation(
        "serve",
        path=ledger_path,
        host=server.host,
        port=server.port,
        store_root=store_root,
        max_queue=max_queue,
        concurrency=concurrency,
    )
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
