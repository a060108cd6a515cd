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
experiments expose.  Adversaries act through a :class:`FaultSurface`, an
engine-neutral view of a running population that both strikes and
steps it, with implementations for the generic per-agent
:class:`~repro.core.simulation.Simulation` (:class:`SimulationSurface`)
and the count engine's multiset (:class:`CountSurface`) -- the latter is
what makes large-n chaos runs affordable.

:func:`measure_recovery` runs a fault process against a protocol on
either engine and reports per-strike recovery times plus availability;
the ``faults`` experiment, the ``repro chaos`` CLI subcommand and the
job service all measure recovery through it.

Interaction-level faults (the scheduler misbehaving rather than memory
being corrupted) are modeled separately by
:class:`FaultySchedulerAdapter`: omitted interactions, stuck agents
whose meetings never fire, and non-uniform pair skew towards "hot"
agents.

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

from repro.core.configuration import is_silent
from repro.core.countsim import ENGINES, CountSimulation, count_engine_eligible
from repro.core.protocol import PopulationProtocol
from repro.core.scheduler import Pair, Scheduler
from repro.core.simulation import Simulation
from repro.obs.context import current_recorder
from repro.obs.log import get_logger
from repro.obs.metrics import SampledMetricsMonitor
from repro.protocols.base import RankingProtocol

_LOG = get_logger("chaos")

S = TypeVar("S")

__all__ = [
    "ADVERSARIES",
    "Adversary",
    "BurstProcess",
    "CloneCorruption",
    "CorruptionModel",
    "CountSurface",
    "ENGINES",
    "FaultEvent",
    "FaultProcess",
    "FaultSurface",
    "FaultySchedulerAdapter",
    "LeaderVictims",
    "MaxRankVictims",
    "PoissonProcess",
    "RandomStateCorruption",
    "RecoveryRecord",
    "RecoveryReport",
    "SimulationSurface",
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
# The surface adversaries act on
# ---------------------------------------------------------------------------


class FaultSurface(ABC):
    """Engine-neutral view of a running population for fault injection.

    A surface both strikes and steps its engine.  Victim references are
    opaque to selectors and corruption models: agent indices on the
    generic engine, slot ids (with multiplicity) on the count engine.
    The number of references equals the number of victim *agents*
    either way.
    """

    def __init__(self, protocol: PopulationProtocol[Any]):
        self.protocol = protocol
        #: Total agent-corruptions applied through this surface.
        self.injected = 0

    @abstractmethod
    def sample_victims(self, count: int, rng: random.Random) -> List[Any]:
        """``min(count, n)`` distinct uniformly random victim agents."""

    @abstractmethod
    def ranked_victims(self, count: int, *, highest: bool) -> List[Any]:
        """Up to ``count`` victims by rank order.

        ``highest=False`` targets the leadership (rank 1 first);
        ``highest=True`` the max-rank agents.  Unranked agents are never
        selected, so fewer than ``count`` references may come back.
        """

    @abstractmethod
    def sample_live_state(self, rng: random.Random, *, leader: bool = False) -> Any:
        """A copy of a live agent's state (the clone adversary's source).

        With ``leader=True`` prefers a rank-1 agent, falling back to a
        uniform agent when no leader exists.
        """

    @abstractmethod
    def overwrite(self, victims: Sequence[Any], new_states: Sequence[Any]) -> None:
        """Overwrite the victims' states and resync all bookkeeping."""

    @abstractmethod
    def ticks(self) -> int:
        """Interactions elapsed so far, silent dwell included."""

    @abstractmethod
    def advance(self, interactions: int) -> None:
        """Let ``interactions`` more interactions happen."""

    @abstractmethod
    def correct(self) -> bool:
        """Whether the configuration is currently correct."""

    @abstractmethod
    def stabilized(self) -> bool:
        """Correct and, for silent protocols, provably silent."""


class SimulationSurface(FaultSurface):
    """Fault surface over the generic per-agent :class:`Simulation`.

    ``overwrite`` restarts the simulation's monitors via ``on_start`` --
    a fault is not an interaction, so incremental monitors must be
    re-synchronized; the world changed behind the protocol's back.
    """

    def __init__(self, sim: Simulation[Any]):
        super().__init__(sim.protocol)
        self.sim = sim

    def sample_victims(self, count: int, rng: random.Random) -> List[int]:
        n = self.protocol.n
        return rng.sample(range(n), min(count, n))

    def _ranked_agents(self) -> List[Tuple[int, int]]:
        rank_of = getattr(self.protocol, "rank_of", None)
        if rank_of is None:
            return []
        ranked: List[Tuple[int, int]] = []
        for index, state in enumerate(self.sim.states):
            rank = rank_of(state)
            if isinstance(rank, int):
                ranked.append((rank, index))
        return ranked

    def ranked_victims(self, count: int, *, highest: bool) -> List[int]:
        ranked = sorted(self._ranked_agents(), reverse=highest)
        return [index for _, index in ranked[:count]]

    def sample_live_state(self, rng: random.Random, *, leader: bool = False) -> Any:
        source: Optional[int] = None
        if leader:
            leaders = [index for rank, index in self._ranked_agents() if rank == 1]
            if leaders:
                source = leaders[rng.randrange(len(leaders))]
        if source is None:
            source = rng.randrange(self.protocol.n)
        return self.protocol.clone_state(self.sim.states[source])

    def overwrite(self, victims: Sequence[int], new_states: Sequence[Any]) -> None:
        clone = self.protocol.clone_state
        for index, state in zip(victims, new_states):
            self.sim.states[index] = clone(state)
        self.injected += len(victims)
        for monitor in self.sim.monitors:
            monitor.on_start(self.sim.states)

    def ticks(self) -> int:
        return self.sim.interactions

    def advance(self, interactions: int) -> None:
        self.sim.run(interactions)

    def correct(self) -> bool:
        return self.protocol.is_correct(self.sim.states)

    def stabilized(self) -> bool:
        return self.correct() and (
            not self.protocol.silent or is_silent(self.protocol, self.sim.states)
        )


class CountSurface(FaultSurface):
    """Fault surface over the count engine's ``{state: count}`` multiset.

    Victim references are slot ids with multiplicity; the heavy lifting
    (Fenwick/monitor/partition resync) is
    :meth:`repro.core.countsim.CountSimulation.corrupt`.

    Once the configuration is provably silent, ``CountSimulation.run``
    returns without consuming its budget (nothing can change until the
    next fault); :meth:`advance` credits the unconsumed interactions to
    a virtual clock, so fault timelines and availability accounting see
    the same parallel time the generic engine would.
    """

    def __init__(self, sim: CountSimulation):
        super().__init__(sim.protocol)
        self.sim = sim
        self._skipped = 0

    def sample_victims(self, count: int, rng: random.Random) -> List[int]:
        return self.sim.sample_victim_slots(min(count, self.sim.n), rng)

    def ranked_victims(self, count: int, *, highest: bool) -> List[int]:
        ranked = sorted(
            (
                (self.sim.slot_rank(slot), slot, slot_count)
                for slot, slot_count in self.sim.occupied_slots()
                if self.sim.slot_rank(slot) > 0
            ),
            reverse=highest,
        )
        victims: List[int] = []
        for _, slot, slot_count in ranked:
            take = min(slot_count, count - len(victims))
            victims.extend([slot] * take)
            if len(victims) >= count:
                break
        return victims

    def sample_live_state(self, rng: random.Random, *, leader: bool = False) -> Any:
        if leader:
            leaders = [
                slot
                for slot, _ in self.sim.occupied_slots()
                if self.sim.slot_rank(slot) == 1
            ]
            if leaders:
                # All rank-1 agents share a slot state per slot; pick one
                # slot uniformly (they are interchangeable sources).
                return self.sim.slot_state(leaders[rng.randrange(len(leaders))])
        return self.sim.slot_state(self.sim.sample_agent_slot(rng))

    def overwrite(self, victims: Sequence[int], new_states: Sequence[Any]) -> None:
        self.sim.corrupt(victims, new_states)
        self.injected += len(victims)

    def ticks(self) -> int:
        return self.sim.interactions + self._skipped

    def advance(self, interactions: int) -> None:
        before = self.sim.interactions
        self.sim.run(interactions)
        consumed = self.sim.interactions - before
        if consumed < interactions and self.sim.silent:
            # Provably silent: the rest of the budget is null
            # interactions, skipped on the virtual clock.
            self._skipped += interactions - consumed

    def correct(self) -> bool:
        return self.sim.correct

    def stabilized(self) -> bool:
        return self.sim.correct and (not self.protocol.silent or self.sim.silent)


# ---------------------------------------------------------------------------
# Who: victim selectors
# ---------------------------------------------------------------------------


class VictimSelector(ABC):
    """Chooses which agents a strike hits."""

    @abstractmethod
    def select(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        """Victim references for one strike (possibly fewer than ``count``)."""


class UniformVictims(VictimSelector):
    """The standard transient-fault model: any agent is fair game."""

    def select(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        return surface.sample_victims(count, rng)


class LeaderVictims(VictimSelector):
    """Targets the leadership: rank-1 agents first, then rank 2, ..."""

    def select(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        return surface.ranked_victims(count, highest=False)


class MaxRankVictims(VictimSelector):
    """Targets the max-rank agents (the leaves of the ranking tree)."""

    def select(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        return surface.ranked_victims(count, highest=True)


# ---------------------------------------------------------------------------
# What: corruption models
# ---------------------------------------------------------------------------


class CorruptionModel(ABC):
    """Produces the states the adversary writes into its victims."""

    @abstractmethod
    def corrupt_states(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        """``count`` replacement states (drawn before any overwrite)."""


class RandomStateCorruption(CorruptionModel):
    """Fresh independent ``random_state`` draws -- anything representable."""

    def corrupt_states(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        return [surface.protocol.random_state(rng) for _ in range(count)]


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
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> List[Any]:
        template = surface.sample_live_state(rng, leader=self.source == "leader")
        clone = surface.protocol.clone_state
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

    def strike(
        self, surface: FaultSurface, count: int, rng: random.Random
    ) -> int:
        """Corrupt up to ``count`` agents; return how many were hit.

        Victims are selected first, then replacement states are drawn,
        then the overwrite happens -- a fixed RNG consumption order so
        identical seeds produce identical strikes on either engine.
        """
        victims = self.selector.select(surface, count, rng)
        if not victims:
            _LOG.debug("adversary %s found no victims (asked for %d)", self.name, count)
            return 0
        states = self.corruption.corrupt_states(surface, len(victims), rng)
        surface.overwrite(victims, states)
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
# Interaction-level faults: the scheduler misbehaves
# ---------------------------------------------------------------------------


class FaultySchedulerAdapter(Scheduler):
    """Wraps a scheduler with omission, stuck-agent and skew faults.

    Fault layers, applied in order per step:

    1. **Skew**: with probability ``hot_rate`` the drawn pair is
       replaced by (uniform hot agent, uniform other agent) -- a
       non-uniform scheduler favoring ``hot_agents`` as initiators.
    2. **Omission**: with probability ``omission_rate`` the interaction
       silently does not happen (``next_pair`` returns ``None``; the
       simulation clock still ticks).
    3. **Stuck agents**: any interaction involving an agent in
       ``stuck`` is dropped -- a crashed agent keeps its memory but
       never updates, the fairness violation self-stabilizing proofs
       must exclude.

    The adapter only reshapes or drops pairs; all randomness comes from
    the per-step ``rng``, so runs stay seed-reproducible.
    """

    def __init__(
        self,
        inner: Scheduler,
        *,
        n: Optional[int] = None,
        omission_rate: float = 0.0,
        stuck: Sequence[int] = (),
        hot_agents: Sequence[int] = (),
        hot_rate: float = 0.0,
    ):
        if not 0.0 <= omission_rate < 1.0:
            raise ValueError(
                f"omission_rate must be in [0, 1), got {omission_rate}"
            )
        if not 0.0 <= hot_rate <= 1.0:
            raise ValueError(f"hot_rate must be in [0, 1], got {hot_rate}")
        if hot_rate > 0 and not hot_agents:
            raise ValueError("hot_rate > 0 needs a non-empty hot_agents")
        self.inner = inner
        self.n = n if n is not None else getattr(inner, "n", None)
        if hot_agents and self.n is None:
            raise ValueError(
                "skew faults need the population size; pass n= explicitly"
            )
        self.omission_rate = omission_rate
        self.stuck = frozenset(stuck)
        self.hot_agents = tuple(hot_agents)
        self.hot_rate = hot_rate
        #: Interactions dropped (omission + stuck) so far.
        self.dropped = 0
        #: Interactions redirected to a hot agent so far.
        self.skewed = 0

    def next_pair(self, rng: random.Random) -> Optional[Pair]:
        pair = self.inner.next_pair(rng)
        if pair is None:
            self.dropped += 1
            return None
        if self.hot_agents and rng.random() < self.hot_rate:
            assert self.n is not None
            initiator = self.hot_agents[rng.randrange(len(self.hot_agents))]
            responder = rng.randrange(self.n - 1)
            if responder >= initiator:
                responder += 1
            pair = (initiator, responder)
            self.skewed += 1
        if self.omission_rate and rng.random() < self.omission_rate:
            self.dropped += 1
            return None
        if self.stuck and (pair[0] in self.stuck or pair[1] in self.stuck):
            self.dropped += 1
            return None
        return pair


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
        ``"generic"``, ``"count"``, ``"vector"``, or ``"auto"``
        (default): pick the count engine when the protocol is silent
        and schema-eligible.  The count engine also fast-forwards
        silent dwell between strikes, so long quiet periods cost O(1).
        ``"vector"`` is the count engine with batched sampling, which
        only its interaction mode uses; silent protocols with a
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
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if adversary is None:
        adversary = make_adversary("random")
    elif isinstance(adversary, str):
        adversary = make_adversary(adversary)
    if engine in ("count", "vector") and not count_engine_eligible(protocol):
        raise ValueError(
            f"{type(protocol).__name__} is not count-engine eligible "
            "(needs a registered lossless state schema)"
        )
    use_count = engine in ("count", "vector") or (
        engine == "auto" and protocol.silent and count_engine_eligible(protocol)
    )
    obs = recorder if recorder is not None else current_recorder()
    n = protocol.n

    def phase(name: str) -> ContextManager[None]:
        return obs.phase(name) if obs is not None else nullcontext()

    surface: FaultSurface
    if use_count:
        mode = (
            "active"
            if protocol.silent and getattr(protocol, "silent_class", None)
            else "auto"
        )
        surface = CountSurface(
            CountSimulation(
                protocol,
                list(initial_states) if initial_states is not None else None,
                rng=rng,
                mode=mode,
                batched=engine == "vector",
                recorder=obs,
            )
        )
    else:
        monitors: List[Any] = []
        if obs is not None:
            monitor = protocol.convergence_monitor()
            monitor.recorder = obs
            monitors = [monitor, SampledMetricsMonitor(obs, monitor, n)]
        surface = SimulationSurface(
            Simulation(
                protocol, initial_states, rng=rng, monitors=monitors, recorder=obs
            )
        )

    report = RecoveryReport()

    def advance_chunk(limit_ticks: int) -> None:
        """One probe chunk (never past ``limit_ticks``), crediting availability."""
        before = surface.ticks()
        surface.advance(min(n, limit_ticks - before))
        advanced = (surface.ticks() - before) / n
        report.total_time += advanced
        if surface.correct():
            report.correct_time += advanced

    def advance_until_stable(budget_time: float) -> float:
        """Advance to stabilization; return the parallel time it took."""
        start = surface.ticks()
        deadline = start + max(1, int(round(budget_time * n)))
        while not surface.stabilized():
            if surface.ticks() >= deadline:
                return float("nan")
            advance_chunk(deadline)
        return (surface.ticks() - start) / n

    with phase("settle"):
        first = advance_until_stable(settle_time)
    if first != first:  # NaN: never settled
        raise RuntimeError(
            f"protocol failed to stabilize within settle_time={settle_time}"
        )

    # Strikes fire on a timeline anchored at the initial stabilization, so
    # the population dwells (accruing availability) between strikes.
    origin = surface.ticks()
    for event in process.events(rng):
        target = origin + int(round(event.at * n))
        with phase("dwell"):
            while surface.ticks() < target:
                advance_chunk(target)
        struck = adversary.strike(surface, event.agents, rng)
        broke = not surface.correct()
        if obs is not None:
            obs.inc_gauge("fault_backlog")
            obs.event(
                "strike",
                t=surface.ticks() / n,
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
            obs.event("recovery", t=surface.ticks() / n, recovery_time=elapsed)
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
