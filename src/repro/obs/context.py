"""The ambient recorder: how instrumentation reaches running engines.

Experiments construct engines many layers below the CLI, so threading a
recorder argument through every call chain would touch every runner for
a purely cross-cutting concern.  Instead the recorder is *ambient*:
:func:`recording` installs it for the duration of a ``with`` block, and
every engine (:class:`~repro.core.simulation.Simulation`,
:class:`~repro.core.countsim.CountSimulation`,
:class:`~repro.core.parallel.ParallelTrialRunner`,
:func:`~repro.core.chaos.measure_recovery`) consults
:func:`current_recorder` once at construction time.

The default is ``None`` -- no recorder, no hooks, unchanged hot paths.
An engine's explicit ``recorder=`` argument always beats the ambient one.

The context is a :class:`contextvars.ContextVar`, not a module global,
so the ambient recorder is scoped to the current execution context:
each asyncio task and each thread that installs a recorder sees its
own, and two jobs interleaving on a shared event loop (or running in
sibling executor threads) can never cross-wire their metrics streams.
Callers that hop an execution onto another thread and want the ambient
recorder to travel with it should wrap the call in
``contextvars.copy_context().run(...)`` -- the pattern
:meth:`repro.service.jobs.JobManager._execute` uses around
``run_in_executor``.

The context stays process-local: worker processes spawned by the
parallel runner start with no recorder, so pooled trials run
uninstrumented while the parent still records runner-level events
(checkpoint writes, retries, per-trial timing).

Causal spans ride the same channel: the runner asks the ambient
recorder for its innermost open span (the service's job/attempt span)
to parent each trial span under, so the span tree assembles without
any explicit plumbing -- and stays absent entirely when no recorder
is installed.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.metrics import MetricsRecorder

_current: "contextvars.ContextVar[Optional[MetricsRecorder]]" = (
    contextvars.ContextVar("repro_ambient_recorder", default=None)
)


def current_recorder() -> Optional["MetricsRecorder"]:
    """The ambient recorder of this execution context, or ``None``."""
    return _current.get()


@contextmanager
def recording(recorder: "MetricsRecorder") -> Iterator["MetricsRecorder"]:
    """Install ``recorder`` as the ambient recorder for the block.

    Installation is scoped to the current context (task/thread): a
    concurrent task entering ``recording`` with a different recorder
    sees only its own, and exiting the block restores whatever this
    context had before.
    """
    token = _current.set(recorder)
    try:
        yield recorder
    finally:
        _current.reset(token)
