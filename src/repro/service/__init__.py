"""The self-stabilizing simulation service (PR 8).

An async job-execution layer over the experiment registry: validated
job specs, a bounded queue with admission control, durable journaling
with crash recovery (a killed server resumes mid-sweep from trial
checkpoints), a provenance-keyed result cache, and an asyncio-streams
HTTP API with SSE event streaming and degraded-mode health reporting.

Fault handling has one retry layer: the trial runner retries a broken
worker pool, then runs the missing trials serially; a job that still
raises fails on first occurrence, and ``DELETE /jobs/{id}`` stops a
hung one.

Layout mirrors the api/runtime split of async service exemplars:

- :mod:`repro.service.jobs` -- specs, validation, :class:`JobManager`
- :mod:`repro.service.store` -- journal, result cache, checkpoints
- :mod:`repro.service.api` -- the HTTP server and routes
- :mod:`repro.service.client` -- blocking client (``repro submit``, CI)

Heavy modules import lazily so ``import repro.service`` stays cheap.
"""

from repro.service.jobs import (
    AdmissionError,
    Job,
    JobManager,
    JobSpec,
    JobValidationError,
)
from repro.service.store import JobStore

__all__ = [
    "AdmissionError",
    "Job",
    "JobManager",
    "JobSpec",
    "JobStore",
    "JobValidationError",
]
