"""Tests for the ``repro top`` dashboard (:mod:`repro.obs.top`).

The renderer is a pure function over the three fetched documents
(health, job listing, metrics text), so these tests draw frames from
literal fixtures; the polling loop is exercised with a stubbed client
-- the same separation that lets CI snapshot a frame with ``--once``.
"""

import io

import pytest

from repro.obs.top import render_top, run_top

HEALTH = {
    "status": "ok",
    "uptime_seconds": 42.0,
    "queue_depth": 1,
    "max_queue": 16,
    "concurrency": 2,
    "degraded_reasons": [],
}

METRICS = (
    "# TYPE repro_jobs_submitted_total counter\n"
    'repro_jobs_submitted_total{kind="chaos"} 3\n'
    "# TYPE repro_trials_completed_total counter\n"
    'repro_trials_completed_total{status="ok"} 40\n'
    "# TYPE repro_job_wall_seconds_ema gauge\n"
    "repro_job_wall_seconds_ema 2.5\n"
)


def jobs_doc(*jobs):
    return {"jobs": list(jobs)}


class TestRenderTop:
    def test_header_carries_health(self):
        frame, _ = render_top(HEALTH, jobs_doc(), METRICS, now=1.0)
        header = frame.splitlines()[0]
        assert "status ok" in header
        assert "up 42s" in header
        assert "queue 1/16" in header
        assert "jobs x2" in header

    def test_degraded_reasons_surface(self):
        health = dict(HEALTH, status="degraded",
                      degraded_reasons=["ledger: disk full"])
        frame, _ = render_top(health, jobs_doc(), METRICS, now=1.0)
        assert "DEGRADED: ledger: disk full" in frame

    def test_progress_bar_from_trial_spans(self):
        job = {"id": "job-abc", "kind": "chaos", "state": "running",
               "attempt": 1, "trials_done": 6, "trials_total": 12,
               "created_unix": 10}
        frame, _ = render_top(HEALTH, jobs_doc(job), METRICS, now=1.0)
        row = next(line for line in frame.splitlines() if "job-abc" in line)
        assert "6/12" in row
        bar = row[row.index("["): row.index("]") + 1]
        assert bar.count("#") == bar.count(".")  # half done

    def test_unknown_total_shows_live_count(self):
        job = {"id": "job-run", "kind": "run", "state": "running",
               "attempt": 1, "trials_done": 7, "created_unix": 10}
        frame, _ = render_top(HEALTH, jobs_doc(job), METRICS, now=1.0)
        assert "7 trial(s)" in frame

    def test_rate_from_successive_scrapes(self):
        _, sample = render_top(HEALTH, jobs_doc(), METRICS, now=100.0)
        assert sample == (100.0, 40.0)
        frame, _ = render_top(
            HEALTH, jobs_doc(), METRICS.replace(" 40", " 60"),
            previous=sample, now=110.0,
        )
        assert "(2.0/s)" in frame

    def test_live_jobs_sort_before_terminal(self):
        done = {"id": "job-done", "kind": "run", "state": "done",
                "attempt": 1, "created_unix": 1}
        running = {"id": "job-live", "kind": "chaos", "state": "running",
                   "attempt": 1, "created_unix": 2}
        frame, _ = render_top(HEALTH, jobs_doc(done, running), METRICS, now=1.0)
        lines = frame.splitlines()
        assert lines.index(next(l for l in lines if "job-live" in l)) < \
            lines.index(next(l for l in lines if "job-done" in l))

    def test_missing_families_render_as_dash(self):
        frame, sample = render_top(HEALTH, jobs_doc(), "", now=1.0)
        assert "submitted -" in frame
        assert sample is None

    def test_malformed_metrics_raise(self):
        with pytest.raises(ValueError):
            render_top(HEALTH, jobs_doc(), "torn{ 1\n", now=1.0)


class TestRunTop:
    def _stub_client(self, monkeypatch, *, fail=False):
        from repro.service import client

        if fail:
            def boom(url, **kwargs):
                raise OSError("connection refused")
            monkeypatch.setattr(client, "get_health", boom)
        else:
            monkeypatch.setattr(client, "get_health", lambda url, **k: HEALTH)
        monkeypatch.setattr(client, "list_jobs", lambda url, **k: jobs_doc())
        monkeypatch.setattr(client, "get_metrics", lambda url, **k: METRICS)

    def test_once_renders_single_frame(self, monkeypatch):
        self._stub_client(monkeypatch)
        out = io.StringIO()
        code = run_top("http://x", once=True, out=out)
        assert code == 0
        frame = out.getvalue()
        assert frame.startswith("repro top | status ok")
        assert "\x1b[" not in frame  # --once never clears the screen

    def test_once_unreachable_is_nonzero(self, monkeypatch):
        self._stub_client(monkeypatch, fail=True)
        out = io.StringIO()
        code = run_top("http://x", once=True, out=out)
        assert code == 1
        assert "unreachable" in out.getvalue()
