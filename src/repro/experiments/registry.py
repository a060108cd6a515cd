"""Registry mapping experiment ids to runner callables.

Runners are imported lazily so that importing :mod:`repro.experiments`
stays cheap and cycle-free.
"""

from __future__ import annotations

from importlib import import_module
from inspect import signature
from typing import Callable, Dict, List, Optional

#: experiment id -> module path (each module exposes ``run`` and ``TITLE``)
_EXPERIMENT_MODULES: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "hsweep": "repro.experiments.hsweep",
    "figure1": "repro.experiments.figure1",
    "figure2": "repro.experiments.figure2",
    "obs22": "repro.experiments.observation22",
    "thm21": "repro.experiments.theorem21",
    "epidemics": "repro.experiments.epidemics",
    "reset": "repro.experiments.reset_timing",
    "whp": "repro.experiments.whp",
    "faults": "repro.experiments.faults",
    "ablation": "repro.experiments.ablation",
    "loose": "repro.experiments.loose",
    "frontier": "repro.experiments.frontier",
}


def all_experiments() -> List[str]:
    """All registered experiment ids, in display order."""
    return list(_EXPERIMENT_MODULES)


def get_experiment(experiment_id: str) -> Callable:
    """The ``run(seed=..., quick=...)`` callable for an experiment id."""
    try:
        module_path = _EXPERIMENT_MODULES[experiment_id]
    except KeyError:
        known = ", ".join(all_experiments())
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return import_module(module_path).run


def check_engine(experiment_id: str, engine: Optional[str]) -> None:
    """Reject an ``engine`` the experiment cannot honor (``ValueError``).

    ``None`` keeps the experiment's default.  Otherwise the name must be
    a known engine and the experiment's runner must accept an ``engine``
    keyword: an explicit engine is an error, never a silent default.
    """
    if engine is None:
        return
    from repro.experiments.common import ENGINES

    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {list(ENGINES)}, got {engine!r}")
    if "engine" not in signature(get_experiment(experiment_id)).parameters:
        raise ValueError(
            f"experiment {experiment_id!r} does not support engine "
            "selection; drop --engine"
        )


def run_experiment(
    experiment_id: str,
    *,
    seed: int,
    quick: bool = False,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    checkpoint: Optional[str] = None,
):
    """Run one experiment, forwarding ``workers``/``engine`` where supported.

    Experiment runners opt into trial-level parallelism by accepting a
    ``workers`` keyword (e.g. Table 1), and into engine selection by
    accepting an ``engine`` keyword (e.g. Table 1, frontier); runners
    without them are called with ``(seed, quick)`` only, so the global
    ``--workers`` / ``--engine`` flags stay safe across the registry.
    An explicit ``engine`` for an experiment that cannot honor it is an
    error (:func:`check_engine`) rather than a silent default.
    ``checkpoint`` (a durable trial-journal path, used by service jobs
    for crash recovery) is forwarded to runners that accept it and
    silently dropped otherwise -- an unsupported checkpoint degrades to
    recomputation, never to an error.
    """
    check_engine(experiment_id, engine)
    run = get_experiment(experiment_id)
    params = signature(run).parameters
    kwargs = {}
    if workers and workers > 1:
        if "workers" in params:
            kwargs["workers"] = workers
    if checkpoint is not None and "checkpoint" in params:
        kwargs["checkpoint"] = checkpoint
    if engine is not None:
        kwargs["engine"] = engine
    return run(seed=seed, quick=quick, **kwargs)
