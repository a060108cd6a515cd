"""Durable job state: journal, result cache and per-job checkpoints.

The store is what makes the service *self-stabilizing* in the paper's
sense: a server killed at any instant -- between accepting a job and
journaling it, mid-sweep, mid-result-write -- restarts into a correct
configuration from whatever the disk holds, without clean
initialization.  Three artifacts under one root directory:

``jobs.jsonl``
    An append-only journal of job state transitions, one JSON line per
    transition, using the PR-4/5 durable-append pattern
    (:func:`repro.obs.ledger.atomic_append_line`: serialize first, one
    ``os.write``, torn-tail newline repair, never raise).  Replaying
    the journal oldest-first rebuilds every job's latest state; jobs
    that were ``queued`` or ``running`` when the process died are
    re-admitted on restart.

``results/<cache_key>.json``
    The result cache, keyed by the PR-5 provenance triple
    ``(spec, seed, git_sha)`` hashed into ``cache_key``.  Written via
    temp-file + ``os.replace`` so a crash never leaves a half result; a
    later identical submission is served from here with zero trial
    executions.

``checkpoints/<job_id>.pkl``
    The job's :class:`~repro.core.parallel.ParallelTrialRunner` trial
    journal.  A job interrupted mid-sweep resumes from it: only the
    missing trials run, and because per-trial RNGs derive from
    ``(seed, *labels, index)`` the resumed result is bit-identical to
    an uninterrupted run.

Every write path degrades instead of raising: a full disk flips the
store (and hence ``GET /healthz``) to *degraded* -- jobs still compute
and their results stay readable in memory -- and the flag clears when
writes succeed again.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.ledger import atomic_append_line, degraded_paths
from repro.obs.log import get_logger

__all__ = ["JobStore", "JOURNAL_SCHEMA_VERSION"]

#: Version of the job-journal record format; bump on incompatible changes.
JOURNAL_SCHEMA_VERSION = 1

#: Job lifecycle states.  ``queued`` and ``running`` are live (recovered
#: on restart); ``done``, ``failed`` and ``cancelled`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

logger = get_logger("service.store")


class JobStore:
    """Filesystem-backed job state under one root directory."""

    def __init__(self, root: str):
        self.root = root
        self.journal_path = os.path.join(root, "jobs.jsonl")
        self.results_dir = os.path.join(root, "results")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        self._result_write_failed = False
        try:
            os.makedirs(self.results_dir, exist_ok=True)
            os.makedirs(self.checkpoints_dir, exist_ok=True)
        except OSError as exc:  # degraded from birth; journal appends warn
            logger.warning("store %s: could not create layout: %s", root, exc)

    # -- health ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether any durable write path is currently failing."""
        return bool(self.degraded_reasons())

    def degraded_reasons(self) -> List[str]:
        """Human-readable reasons the store is degraded (empty = healthy)."""
        reasons = []
        if self.journal_path in degraded_paths():
            reasons.append(f"journal appends failing: {self.journal_path}")
        if self._result_write_failed:
            reasons.append(f"result-cache writes failing: {self.results_dir}")
        return reasons

    # -- journal --------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> bool:
        """Journal one state transition; never raises.

        The record is stamped with the journal schema version; a failing
        disk degrades to the one-time warning of
        :func:`~repro.obs.ledger.atomic_append_line` and the in-memory
        job state stays authoritative for this process's lifetime.
        """
        stamped = {"journal_version": JOURNAL_SCHEMA_VERSION, **record}
        try:
            payload = json.dumps(stamped, sort_keys=True, default=str)
        except (TypeError, ValueError) as exc:
            logger.warning(
                "store %s: transition not journaled (unserializable: %s)",
                self.journal_path,
                exc,
            )
            return False
        return atomic_append_line(self.journal_path, payload, label="job journal")

    def iter_journal(self) -> Iterator[Dict[str, Any]]:
        """Stream journal records oldest-first, skipping damaged lines."""
        if not os.path.exists(self.journal_path):
            return
        skipped = 0
        with open(self.journal_path, encoding="utf8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if isinstance(record, dict):
                    yield record
        if skipped:
            logger.warning(
                "store %s: skipped %d unparseable journal line(s) "
                "(torn tail from a killed writer)",
                self.journal_path,
                skipped,
            )

    def recover(self) -> Dict[str, Dict[str, Any]]:
        """Fold the journal into per-job documents, oldest-first.

        Each job's document is the merge of its transition records in
        journal order, so the last recorded state wins.  The caller
        (the :class:`~repro.service.jobs.JobManager`) re-admits jobs
        whose recovered state is live (``queued``/``running``) -- that
        is the crash-recovery contract.
        """
        jobs: Dict[str, Dict[str, Any]] = {}
        for record in self.iter_journal():
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            document = jobs.setdefault(job_id, {})
            document.update(
                (key, value)
                for key, value in record.items()
                if key != "journal_version"
            )
        return jobs

    # -- per-job checkpoints -------------------------------------------

    def checkpoint_path(self, job_id: str) -> str:
        """Where ``job_id``'s trial-runner checkpoint journal lives."""
        return os.path.join(self.checkpoints_dir, f"{job_id}.pkl")

    # -- result cache ---------------------------------------------------

    def result_path(self, cache_key: str) -> str:
        return os.path.join(self.results_dir, f"{cache_key}.json")

    def write_result(self, cache_key: str, document: Dict[str, Any]) -> bool:
        """Atomically publish a result document; never raises.

        Temp file + ``os.replace``: a reader (or a crash) can never see
        half a result, so an existing cache file is always servable.
        """
        path = self.result_path(cache_key)
        try:
            payload = json.dumps(document, indent=2, sort_keys=True, default=str)
        except (TypeError, ValueError) as exc:
            logger.warning("store: result %s not cached (unserializable: %s)",
                           cache_key, exc)
            self._result_write_failed = True
            return False
        try:
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{cache_key[:16]}.", suffix=".tmp", dir=self.results_dir
            )
            try:
                with os.fdopen(fd, "w", encoding="utf8") as handle:
                    handle.write(payload + "\n")
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            if not self._result_write_failed:
                logger.warning(
                    "store: result %s not cached (write failed: %s); "
                    "serving from memory only",
                    cache_key,
                    exc,
                )
            self._result_write_failed = True
            return False
        self._result_write_failed = False
        return True

    def load_result(self, cache_key: str) -> Optional[Dict[str, Any]]:
        """The cached result document for ``cache_key``, if any."""
        path = self.result_path(cache_key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("store: result cache %s unreadable: %s", path, exc)
            return None
        return document if isinstance(document, dict) else None
