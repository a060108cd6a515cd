"""In-memory spans around the public calls of each layer (child side).

:func:`install` replaces a layer's public callables with timing
wrappers *at the attribute callers resolve*: class methods on the
class, module functions on their defining module plus every already
imported ``repro`` module that bound the same object with
``from ... import``.  Nothing under ``src/`` changes; an untraced pass
never imports this module.

Spans are ``{"id", "parent", "name", "start", "end", "thread",
"attrs"}`` with ``time.monotonic`` stamps, nested per thread (service
jobs run on executor threads), kept in memory and dumped by the caller
at exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_spans: List[Dict[str, Any]] = []
_local = threading.local()
_lock = threading.Lock()


def spans() -> List[Dict[str, Any]]:
    return list(_spans)


def call(name: str, fn: Callable[..., Any], *args: Any,
         count: Optional[str] = None, **kwargs: Any) -> Any:
    """Run ``fn`` inside a span named ``name``.

    ``count`` names a counter of the engine instance the method runs on
    (``events``, ``interactions``); its increase is the span's work.
    """
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    with _lock:
        span: Dict[str, Any] = {
            "id": len(_spans),
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.get_ident(),
            "start": time.monotonic(),
        }
        _spans.append(span)
    stack.append(span["id"])
    before = getattr(args[0], count) if count else 0
    try:
        result = fn(*args, **kwargs)
    finally:
        span["end"] = time.monotonic()
        stack.pop()
    if count:
        span["attrs"] = {count: getattr(args[0], count) - before}
    elif name == "quant.build":
        span["attrs"] = {"chain_states": result.size}
    return result


class _TracedTask:
    """A trial task whose body runs inside a ``parallel.trial`` span."""

    def __init__(self, task: Callable[[Any], Any]):
        self.task = task

    def __call__(self, rng: Any) -> Any:
        return call("parallel.trial", self.task, rng)


def _wrap(name: str, count: Optional[str] = None) -> Callable[..., Any]:
    def wrapper(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, count=count, **kwargs)

        return traced

    return wrapper


def _map_trials(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(self: Any, task: Any, **kwargs: Any) -> Any:
        return call("parallel.map", fn, self, _TracedTask(task), **kwargs)

    return traced


def _patch_method(module: str, cls: str, method: str, wrapper: Callable[..., Any]) -> None:
    owner = getattr(importlib.import_module(module), cls)
    setattr(owner, method, wrapper(getattr(owner, method)))


def _patch_function(module: str, name: str, wrapper: Callable[..., Any]) -> None:
    original = getattr(importlib.import_module(module), name)
    traced = wrapper(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, traced)


def install(service: bool = False) -> None:
    """Wrap every traced layer (``service`` adds the job execution root)."""
    countsim = "repro.core.countsim"
    _patch_method(countsim, "CountSimulation", "__init__", _wrap("countsim.construct"))
    _patch_method(countsim, "CountSimulation", "run", _wrap("countsim.run", "events"))
    # run_until_silent loops over run(); its own span only adds the
    # silence checks between calls.
    _patch_method(countsim, "CountSimulation", "run_until_silent", _wrap("countsim.run"))
    _patch_method("repro.core.simulation", "Simulation", "run",
                  _wrap("simulation.run", "interactions"))
    _patch_method("repro.core.fastpath_optimal_silent", "OptimalSilentFastSim",
                  "run_to_convergence", _wrap("fastpath_optimal_silent.run", "interactions"))
    _patch_method("repro.core.parallel", "ParallelTrialRunner", "map_trials", _map_trials)
    _patch_function("repro.statics.quant", "build_chain", _wrap("quant.build"))
    _patch_function("repro.statics.quant", "hitting_moments", _wrap("quant.solve"))
    if service:
        _patch_function("repro.service.jobs", "execute_spec", _wrap("service.exec"))
