"""The population-protocol simulation engine.

Public surface:

* :class:`repro.core.protocol.PopulationProtocol` -- protocol interface
* :class:`repro.core.simulation.Simulation` -- sequential engine
* :mod:`repro.core.scheduler` -- uniform / scripted / adversarial schedulers
* :mod:`repro.core.fastpath` -- exact-jump fast simulators
* :mod:`repro.core.countsim` -- protocol-generic count-based engine
* :mod:`repro.core.parallel` -- process-pool trial fan-out
* :mod:`repro.core.adversary` -- adversarial initial configurations
"""

from repro.core.configuration import is_silent, ranks_are_permutation
from repro.core.errors import (
    ConfigurationError,
    NotSilentError,
    ProtocolDefinitionError,
    ReproError,
)
from repro.core.countsim import CountSimulation, count_engine_eligible
from repro.core.parallel import ParallelTrialRunner
from repro.core.protocol import PopulationProtocol
from repro.core.rng import DEFAULT_SEED, derive_seed, make_rng, trial_rngs
from repro.core.scheduler import (
    CallbackScheduler,
    Scheduler,
    ScriptedScheduler,
    UniformRandomScheduler,
)
from repro.core.simulation import Simulation

__all__ = [
    "PopulationProtocol",
    "Simulation",
    "CountSimulation",
    "count_engine_eligible",
    "ParallelTrialRunner",
    "Scheduler",
    "UniformRandomScheduler",
    "ScriptedScheduler",
    "CallbackScheduler",
    "is_silent",
    "ranks_are_permutation",
    "ReproError",
    "ConfigurationError",
    "ProtocolDefinitionError",
    "NotSilentError",
    "DEFAULT_SEED",
    "derive_seed",
    "make_rng",
    "trial_rngs",
]
