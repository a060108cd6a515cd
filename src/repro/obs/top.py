"""``repro top``: a live terminal dashboard over a running service.

Entirely client-side -- the dashboard polls ``GET /healthz``,
``GET /jobs`` and ``GET /metrics`` over plain HTTP and renders a
fleet view in the terminal, so pointing it at a production server
costs the server three cheap requests per refresh and nothing else.

The screen has three bands:

* **Header** -- service address, health status (degraded reasons
  surface here), uptime, queue depth / capacity / concurrency.
* **Counters** -- the lifetime counters that matter operationally
  (submitted / completed / retried / cancelled / 429s, trial
  completions) plus a trials-per-second rate derived from successive
  ``/metrics`` scrapes -- counters are monotone, so the difference
  over the poll interval *is* the throughput.
* **Jobs** -- one row per job, newest last: state, attempt, a progress
  bar fed by closed trial spans (``trials_done`` / ``trials_total``
  from the job document; sweeps with an unknown total show the live
  count instead), and wall time.

Rendering is a pure function (:func:`render_top`) over the three
fetched documents, so tests and the ``--once`` CI snapshot exercise
exactly what the live loop draws.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.obs.promexp import parse_prometheus_text

__all__ = ["render_top", "run_top"]

#: Job states in display order (live first).
_STATE_ORDER = ("running", "queued", "done", "failed", "cancelled")

#: Single-character state markers for the job rows.
_STATE_MARK = {
    "running": ">",
    "queued": ".",
    "done": "=",
    "failed": "!",
    "cancelled": "x",
}


def _counter_total(
    families: Dict[str, Dict[str, Any]], name: str
) -> Optional[float]:
    """Sum a counter family across its label sets (None if absent)."""
    family = families.get(name)
    if family is None:
        return None
    return sum(family["samples"].values())


def _gauge(
    families: Dict[str, Dict[str, Any]], name: str
) -> Optional[float]:
    family = families.get(name)
    if family is None or not family["samples"]:
        return None
    return next(iter(family["samples"].values()))


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"


def _bar(done: int, total: int, width: int = 22) -> str:
    filled = min(width, int(width * done / total)) if total > 0 else 0
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _job_row(job: Dict[str, Any], width: int) -> str:
    state = str(job.get("state", "?"))
    mark = _STATE_MARK.get(state, "?")
    jid = str(job.get("id", "?"))
    kind = str(job.get("kind", "?"))
    attempt = job.get("attempt", 0)
    done = int(job.get("trials_done", 0) or 0)
    total = job.get("trials_total")
    if isinstance(total, int) and total > 0:
        progress = f"{_bar(done, total)} {done}/{total}"
    elif done:
        progress = f"{done} trial(s)"
    elif state == "queued":
        progress = "waiting"
    else:
        progress = ""
    wall = job.get("wall_seconds")
    tail = f"{wall:.2f}s" if isinstance(wall, (int, float)) else ""
    if state == "failed" and job.get("error"):
        tail = str(job["error"])
    row = (
        f" {mark} {jid:<22.22} {kind:<6.6} {state:<10.10} "
        f"a{attempt} {progress:<32.32} {tail}"
    )
    return row[:width].rstrip()


def render_top(
    health: Dict[str, Any],
    jobs_document: Dict[str, Any],
    metrics_text: str,
    *,
    previous: Optional[Tuple[float, float]] = None,
    now: Optional[float] = None,
    width: int = 100,
) -> Tuple[str, Optional[Tuple[float, float]]]:
    """Render one dashboard frame; returns ``(frame, rate_sample)``.

    ``previous`` is the ``(timestamp, trials_completed_total)`` pair
    returned by the last call; passing it back computes trials/s from
    the counter delta.  ``now`` is injectable for tests.
    """
    families = parse_prometheus_text(metrics_text)
    now = time.time() if now is None else now
    lines: List[str] = []

    status = str(health.get("status", "?"))
    uptime = health.get("uptime_seconds")
    uptime_str = f"{uptime:.0f}s" if isinstance(uptime, (int, float)) else "-"
    lines.append(
        f"repro top | status {status} | up {uptime_str} "
        f"| queue {health.get('queue_depth', '-')}/"
        f"{health.get('max_queue', '-')} "
        f"| jobs x{health.get('concurrency', '-')}"
    )
    for reason in health.get("degraded_reasons") or []:
        lines.append(f" DEGRADED: {reason}")

    trials_total = _counter_total(families, "repro_trials_completed_total")
    rate = ""
    sample: Optional[Tuple[float, float]] = None
    if trials_total is not None:
        sample = (now, trials_total)
        if previous is not None and now > previous[0]:
            per_second = (trials_total - previous[1]) / (now - previous[0])
            rate = f" ({per_second:.1f}/s)"
    lines.append(
        " submitted {} | completed {} | cancelled {} "
        "| 429s {} | trials {}{}".format(
            _fmt(_counter_total(families, "repro_jobs_submitted_total")),
            _fmt(_counter_total(families, "repro_jobs_completed_total")),
            _fmt(_counter_total(families, "repro_jobs_cancelled_total")),
            _fmt(_counter_total(families, "repro_admission_rejected_total")),
            _fmt(trials_total),
            rate,
        )
    )
    ema = _gauge(families, "repro_job_wall_seconds_ema")
    if ema is not None:
        lines.append(f" job wall EMA {ema:.2f}s")

    jobs = list(jobs_document.get("jobs") or [])
    jobs.sort(
        key=lambda job: (
            _STATE_ORDER.index(job.get("state"))
            if job.get("state") in _STATE_ORDER
            else len(_STATE_ORDER),
            job.get("created_unix", 0),
        )
    )
    lines.append("-" * min(width, 72))
    if not jobs:
        lines.append(" (no jobs)")
    for job in jobs:
        lines.append(_job_row(job, width))
    return "\n".join(lines) + "\n", sample


def run_top(
    base_url: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    out: Optional[TextIO] = None,
    clear: Optional[bool] = None,
) -> int:
    """The ``repro top`` loop: poll, render, repeat until interrupted.

    ``once`` renders a single frame without clearing the screen (the
    headless CI path).  Connection errors draw an error frame and keep
    polling -- a dashboard must survive the server it watches
    restarting.  Returns a process exit code.
    """
    import sys

    from repro.service import client

    out = out if out is not None else sys.stdout
    clear = (not once) if clear is None else clear
    previous: Optional[Tuple[float, float]] = None
    while True:
        try:
            health = client.get_health(base_url)
            jobs_document = client.list_jobs(base_url)
            metrics_text = client.get_metrics(base_url)
        except Exception as exc:
            frame = f"repro top | {base_url} unreachable: {exc}\n"
            if once:
                out.write(frame)
                return 1
            out.write("\x1b[2J\x1b[H" + frame if clear else frame)
            out.flush()
            time.sleep(interval)
            continue
        try:
            frame, previous = render_top(
                health, jobs_document, metrics_text, previous=previous
            )
        except ValueError as exc:
            # Malformed exposition text is a server bug worth surfacing
            # loudly, not something to render around.
            out.write(f"repro top: /metrics did not parse: {exc}\n")
            return 1
        if clear:
            out.write("\x1b[2J\x1b[H")
        out.write(frame)
        out.flush()
        if once:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
