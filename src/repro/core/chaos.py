"""Transient faults: composable adversaries and recovery measurement.

Self-stabilization promises recovery from *arbitrary* transient faults,
so a single fault model (uniform victims overwritten with random states)
under-tests the claim.  This module decomposes the adversary into three
orthogonal, composable pieces:

* **When** faults strike -- a :class:`FaultProcess` yielding timed
  :class:`FaultEvent` instances: scripted bursts (:class:`BurstProcess`,
  e.g. :meth:`BurstProcess.periodic`) or memoryless continuous
  corruption (:class:`PoissonProcess`).
* **Who** gets hit -- a :class:`VictimSelector`: uniform random agents,
  the current leader(s) (lowest ranks first), or the max-rank agents.
* **What** gets written -- a :class:`CorruptionModel`: fresh
  ``random_state`` draws, or *cloning* (overwrite victims with a copy of
  a live agent's state -- the classic trap for leader election, since a
  cloned leader is indistinguishable from the real one).

An :class:`Adversary` bundles a selector with a corruption model;
:data:`ADVERSARIES` registers the named combinations the CLI and the
experiments expose.  Adversaries act on an :data:`Engine` directly:
the generic per-agent :class:`~repro.core.simulation.Simulation` and
the count engine's multiset
(:class:`~repro.core.countsim.CountSimulation`, what makes large-n
chaos runs affordable) keep one contract -- victims, a live state,
``corrupt``, the ``ticks`` clock, ``advance``, ``correct`` and
``stabilized`` (see docs/robustness.md, "The engine contract").
Victim references are opaque to selectors and corruption models:
agent indices on the generic engine, slot ids with multiplicity on
the count engine, one reference per victim agent either way.

:func:`measure_recovery` runs a fault process against a protocol on
either engine and reports per-strike recovery times plus availability;
the ``faults`` experiment, the ``repro chaos`` CLI subcommand and the
job service all measure recovery through it.

Everything draws from caller-provided RNGs only, preserving the seeded
reproducibility contract.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.countsim import CountSimulation, select_engine
from repro.core.simulation import Simulation
from repro.obs.context import current_recorder
from repro.obs.log import get_logger
from repro.obs.metrics import SampledMetricsMonitor
from repro.protocols.base import RankingProtocol

_LOG = get_logger("chaos")

S = TypeVar("S")

#: The engines adversaries strike and :func:`measure_recovery` steps.
Engine = Union[Simulation[Any], CountSimulation]

__all__ = [
    "ADVERSARIES",
    "Adversary",
    "BurstProcess",
    "CloneCorruption",
    "CorruptionModel",
    "Engine",
    "FaultEvent",
    "FaultProcess",
    "LeaderVictims",
    "MaxRankVictims",
    "PoissonProcess",
    "RandomStateCorruption",
    "RecoveryRecord",
    "RecoveryReport",
    "UniformVictims",
    "VictimSelector",
    "adversary_names",
    "make_adversary",
    "measure_recovery",
]


# ---------------------------------------------------------------------------
# When: fault processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One strike: hit ``agents`` agents at parallel time ``at``."""

    at: float
    agents: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.agents < 1:
            raise ValueError(f"event must hit >= 1 agent, got {self.agents}")


class FaultProcess(ABC):
    """A (possibly random) stream of fault events, ordered by time."""

    @abstractmethod
    def events(self, rng: random.Random) -> Iterator[FaultEvent]:
        """Yield events in non-decreasing time order.

        Randomized processes draw all randomness from ``rng`` lazily,
        interleaved with the consumer's own use of the same stream --
        part of the single-seed reproducibility contract.
        """


class BurstProcess(FaultProcess):
    """A fixed script of bursts (:meth:`periodic` is the common case)."""

    def __init__(self, events: Sequence[FaultEvent]):
        times = [event.at for event in events]
        if times != sorted(times):
            raise ValueError("events must be ordered by time")
        self._events: Tuple[FaultEvent, ...] = tuple(events)

    @property
    def bursts(self) -> Tuple[FaultEvent, ...]:
        return self._events

    @classmethod
    def periodic(cls, period: float, agents: int, count: int) -> "BurstProcess":
        """``count`` strikes of ``agents`` corruptions, every ``period`` time."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        return cls(
            [FaultEvent(at=period * (i + 1), agents=agents) for i in range(count)]
        )

    def events(self, rng: random.Random) -> Iterator[FaultEvent]:
        return iter(self._events)


class PoissonProcess(FaultProcess):
    """Memoryless continuous corruption at ``rate`` events per time unit.

    Each event corrupts ``agents`` agents; the stream ends at parallel
    time ``horizon`` (it must be finite: an unbounded Poisson stream
    never lets ``measure_recovery`` finish).
    """

    def __init__(self, rate: float, *, agents: int = 1, horizon: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if agents < 1:
            raise ValueError(f"agents must be >= 1, got {agents}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.rate = rate
        self.agents = agents
        self.horizon = horizon

    def events(self, rng: random.Random) -> Iterator[FaultEvent]:
        at = 0.0
        while True:
            at += rng.expovariate(self.rate)
            if at >= self.horizon:
                return
            yield FaultEvent(at=at, agents=self.agents)


# ---------------------------------------------------------------------------
# Who: victim selectors
# ---------------------------------------------------------------------------


class VictimSelector(ABC):
    """Chooses which agents a strike hits."""

    @abstractmethod
    def select(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        """Victim references for one strike (possibly fewer than ``count``)."""


class UniformVictims(VictimSelector):
    """The standard transient-fault model: any agent is fair game."""

    def select(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        return engine.sample_victims(count, rng)


class LeaderVictims(VictimSelector):
    """Targets the leadership: rank-1 agents first, then rank 2, ..."""

    def select(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        return engine.ranked_victims(count, highest=False)


class MaxRankVictims(VictimSelector):
    """Targets the max-rank agents (the leaves of the ranking tree)."""

    def select(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        return engine.ranked_victims(count, highest=True)


# ---------------------------------------------------------------------------
# What: corruption models
# ---------------------------------------------------------------------------


class CorruptionModel(ABC):
    """Produces the states the adversary writes into its victims."""

    @abstractmethod
    def corrupt_states(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        """``count`` replacement states (drawn before any overwrite)."""


class RandomStateCorruption(CorruptionModel):
    """Fresh independent ``random_state`` draws -- anything representable."""

    def corrupt_states(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        return [engine.protocol.random_state(rng) for _ in range(count)]


class CloneCorruption(CorruptionModel):
    """Overwrite every victim with a copy of one live agent's state.

    The classic SSLE trap: cloning the leader manufactures rank
    collisions that only the protocol's own error detection can expose.
    ``source="leader"`` clones a rank-1 agent when one exists;
    ``source="uniform"`` clones a uniformly random agent.
    """

    def __init__(self, source: str = "uniform"):
        if source not in ("uniform", "leader"):
            raise ValueError(
                f'source must be "uniform" or "leader", got {source!r}'
            )
        self.source = source

    def corrupt_states(
        self, engine: Engine, count: int, rng: random.Random
    ) -> List[Any]:
        template = engine.sample_live_state(rng, leader=self.source == "leader")
        clone = engine.protocol.clone_state
        return [clone(template) for _ in range(count)]


# ---------------------------------------------------------------------------
# Adversaries: selector x corruption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Adversary:
    """A named (victim selector, corruption model) pair."""

    name: str
    selector: VictimSelector
    corruption: CorruptionModel

    def strike(self, engine: Engine, count: int, rng: random.Random) -> int:
        """Corrupt up to ``count`` agents; return how many were hit.

        Victims are selected first, then replacement states are drawn,
        then the overwrite happens -- a fixed RNG consumption order so
        identical seeds produce identical strikes on either engine.
        """
        victims = self.selector.select(engine, count, rng)
        if not victims:
            _LOG.debug("adversary %s found no victims (asked for %d)", self.name, count)
            return 0
        states = self.corruption.corrupt_states(engine, len(victims), rng)
        engine.corrupt(victims, states)
        _LOG.debug(
            "adversary %s overwrote %d agent(s)", self.name, len(victims)
        )
        return len(victims)


#: Named adversary factories exposed by the CLI and experiments.
ADVERSARIES: Dict[str, Callable[[], Adversary]] = {
    "random": lambda: Adversary(
        "random", UniformVictims(), RandomStateCorruption()
    ),
    "leader": lambda: Adversary(
        "leader", LeaderVictims(), RandomStateCorruption()
    ),
    "max-rank": lambda: Adversary(
        "max-rank", MaxRankVictims(), RandomStateCorruption()
    ),
    "clone": lambda: Adversary(
        "clone", UniformVictims(), CloneCorruption("uniform")
    ),
    "clone-leader": lambda: Adversary(
        "clone-leader", UniformVictims(), CloneCorruption("leader")
    ),
}


def adversary_names() -> List[str]:
    return sorted(ADVERSARIES)


def make_adversary(name: str) -> Adversary:
    try:
        factory = ADVERSARIES[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; known: {', '.join(adversary_names())}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# Recovery measurement
# ---------------------------------------------------------------------------


@dataclass
class RecoveryRecord:
    """Outcome of one strike: when it hit, whether/when the system recovered."""

    event: FaultEvent
    broke_correctness: bool
    recovered: bool
    recovery_time: float  # parallel time from strike to re-stabilization
    injected: int = 0  # agents actually corrupted (targeted strikes may hit fewer)


@dataclass
class RecoveryReport:
    """All strikes of one run plus aggregate availability accounting."""

    records: List[RecoveryRecord] = field(default_factory=list)
    total_time: float = 0.0
    correct_time: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of parallel time spent in a correct configuration."""
        if self.total_time <= 0:
            return 0.0
        return self.correct_time / self.total_time

    @property
    def worst_recovery(self) -> float:
        recoveries = [r.recovery_time for r in self.records if r.recovered]
        return max(recoveries) if recoveries else float("nan")


def measure_recovery(
    protocol: RankingProtocol[S],
    process: FaultProcess,
    *,
    rng: random.Random,
    settle_time: float,
    max_recovery_time: float,
    initial_states: Optional[Sequence[S]] = None,
    engine: str = "auto",
    adversary: Union[None, str, Adversary] = None,
    recorder: Optional[Any] = None,
) -> RecoveryReport:
    """Run a fault process and measure per-strike recovery times.

    The protocol first stabilizes from ``initial_states`` (default: a
    clean start); each event of ``process`` then strikes the
    *stabilized* population and the time back to a correct (and, for
    silent protocols, silent) configuration is recorded.
    ``settle_time`` bounds the initial stabilization,
    ``max_recovery_time`` each recovery.  Correctness is probed once per
    unit of parallel time, and availability is credited per probe
    interval, so the accounting error per strike is at most one unit.

    engine:
        A name in :data:`~repro.core.countsim.ENGINES`, resolved by
        :func:`~repro.core.countsim.select_engine` (``"auto"``, the
        default, runs silent protocols on the count engine).  The count
        engine also fast-forwards silent dwell between strikes, so long
        quiet periods cost O(1).  Its batched sampling (``"vector"``)
        runs only in interaction mode; silent protocols with a
        ``silent_class`` run in active mode and never batch.
    adversary:
        ``None`` (the uniform random-state adversary), a registered
        name (see :func:`adversary_names`), or an :class:`Adversary`.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricsRecorder`; defaults
        to the ambient recorder.  When present, strikes and recoveries
        are recorded as events, the live ``fault_backlog`` gauge tracks
        unrecovered strikes, the settle / recover / dwell phases are
        timed, and the engine underneath samples its time-series.

    Raises ``RuntimeError`` if the protocol fails to settle initially.
    """
    batched = select_engine(protocol, engine)
    if adversary is None:
        adversary = make_adversary("random")
    elif isinstance(adversary, str):
        adversary = make_adversary(adversary)
    obs = recorder if recorder is not None else current_recorder()
    n = protocol.n

    def phase(name: str) -> ContextManager[None]:
        return obs.phase(name) if obs is not None else nullcontext()

    sim: Engine
    if batched is not None:
        mode = (
            "active"
            if protocol.silent and getattr(protocol, "silent_class", None)
            else "auto"
        )
        sim = CountSimulation(
            protocol,
            list(initial_states) if initial_states is not None else None,
            rng=rng,
            mode=mode,
            batched=batched,
            recorder=obs,
        )
    else:
        monitors: List[Any] = []
        if obs is not None:
            monitor = protocol.convergence_monitor()
            monitor.recorder = obs
            monitors = [monitor, SampledMetricsMonitor(obs, monitor, n)]
        sim = Simulation(
            protocol, initial_states, rng=rng, monitors=monitors, recorder=obs
        )

    report = RecoveryReport()

    def advance_chunk(limit_ticks: int) -> None:
        """One probe chunk (never past ``limit_ticks``), crediting availability."""
        before = sim.ticks
        sim.advance(min(n, limit_ticks - before))
        advanced = (sim.ticks - before) / n
        report.total_time += advanced
        if sim.correct:
            report.correct_time += advanced

    def advance_until_stable(budget_time: float) -> float:
        """Advance to stabilization; return the parallel time it took."""
        start = sim.ticks
        deadline = start + max(1, int(round(budget_time * n)))
        while not sim.stabilized:
            if sim.ticks >= deadline:
                return float("nan")
            advance_chunk(deadline)
        return (sim.ticks - start) / n

    with phase("settle"):
        first = advance_until_stable(settle_time)
    if first != first:  # NaN: never settled
        raise RuntimeError(
            f"protocol failed to stabilize within settle_time={settle_time}"
        )

    # Strikes fire on a timeline anchored at the initial stabilization, so
    # the population dwells (accruing availability) between strikes.
    origin = sim.ticks
    for event in process.events(rng):
        target = origin + int(round(event.at * n))
        with phase("dwell"):
            while sim.ticks < target:
                advance_chunk(target)
        struck = adversary.strike(sim, event.agents, rng)
        broke = not sim.correct
        if obs is not None:
            obs.inc_gauge("fault_backlog")
            obs.event(
                "strike",
                t=sim.ticks / n,
                agents=event.agents,
                injected=struck,
                broke_correctness=broke,
                adversary=adversary.name,
            )
        with phase("recover"):
            elapsed = advance_until_stable(max_recovery_time)
        recovered = elapsed == elapsed  # not NaN
        if obs is not None and recovered:
            obs.inc_gauge("fault_backlog", -1.0)
            obs.event("recovery", t=sim.ticks / n, recovery_time=elapsed)
        report.records.append(
            RecoveryRecord(
                event=event,
                broke_correctness=broke,
                recovered=recovered,
                recovery_time=elapsed,
                injected=struck,
            )
        )
        if not recovered:
            break
    return report
