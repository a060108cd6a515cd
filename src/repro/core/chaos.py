"""Transient faults: named adversaries and recovery measurement.

Self-stabilization promises recovery from *arbitrary* transient faults,
so a single fault model (uniform victims overwritten with random states)
under-tests the claim.  A fault has three orthogonal parts:

* **When** faults strike -- a time-ordered stream of
  :class:`FaultEvent` instances: evenly spaced bursts
  (:func:`periodic_events`) or memoryless continuous corruption
  (:func:`poisson_events`).
* **Who** gets hit -- a victim function: uniform random agents, the
  current leader(s) (lowest ranks first), or the max-rank agents.
* **What** gets written -- a replacement-state function: fresh
  ``random_state`` draws, or *clones* of one live agent's state (the
  classic trap for leader election, since a cloned leader is
  indistinguishable from the real one).

:data:`ADVERSARIES` names each (victim, replacement-state) pair the CLI
and the experiments expose, and :func:`strike` runs one by name.
Adversaries act on an :data:`~repro.core.countsim.Engine` directly: the
generic per-agent :class:`~repro.core.simulation.Simulation` and the
count engine's multiset (:class:`~repro.core.countsim.CountSimulation`,
what makes large-n chaos runs affordable) keep one contract -- victims,
a live state, ``corrupt``, the ``ticks`` clock, ``advance``,
``correct`` and ``stabilized`` (see docs/robustness.md, "The engine
contract").  Victim references are opaque to the adversary functions:
agent indices on the generic engine, slot ids with multiplicity on the
count engine, one reference per victim agent either way.

:func:`measure_recovery` runs a fault stream against a protocol on
either engine and reports per-strike recovery times plus availability;
the ``faults`` experiment, the ``repro chaos`` CLI subcommand and the
job service all measure recovery through it.

Everything draws from caller-provided RNGs only, preserving the seeded
reproducibility contract.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.countsim import Engine, build_engine
from repro.obs.context import current_recorder
from repro.obs.log import get_logger
from repro.protocols.base import RankingProtocol

_LOG = get_logger("chaos")

S = TypeVar("S")

__all__ = [
    "ADVERSARIES",
    "FaultEvent",
    "RecoveryRecord",
    "RecoveryReport",
    "adversary_names",
    "measure_recovery",
    "periodic_events",
    "poisson_events",
    "strike",
]


# ---------------------------------------------------------------------------
# When: fault streams
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


def periodic_events(period: float, agents: int, count: int) -> List[FaultEvent]:
    """``count`` strikes of ``agents`` corruptions, every ``period`` time."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    return [FaultEvent(at=period * (i + 1), agents=agents) for i in range(count)]


def poisson_events(
    rate: float, *, agents: int = 1, horizon: float, rng: random.Random
) -> Iterator[FaultEvent]:
    """Memoryless continuous corruption at ``rate`` events per time unit.

    Each event corrupts ``agents`` agents; the stream ends at parallel
    time ``horizon`` (it must be finite: an unbounded Poisson stream
    never lets :func:`measure_recovery` finish).  The gaps are drawn
    from ``rng`` lazily, one per event as it is consumed: handed the
    RNG :func:`measure_recovery` strikes with, they interleave with the
    strikes' own draws -- part of the single-seed reproducibility
    contract.  The arguments are checked at once.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if agents < 1:
        raise ValueError(f"agents must be >= 1, got {agents}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")

    def stream() -> Iterator[FaultEvent]:
        at = 0.0
        while True:
            at += rng.expovariate(rate)
            if at >= horizon:
                return
            yield FaultEvent(at=at, agents=agents)

    return stream()


# ---------------------------------------------------------------------------
# Who and what: named adversaries
# ---------------------------------------------------------------------------

#: ``(engine, count, rng)`` -> victim references, or replacement states.
StrikeFn = Callable[[Engine, int, random.Random], List[Any]]


def _uniform_victims(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """The standard transient-fault model: any agent is fair game."""
    return engine.sample_victims(count, rng)


def _leader_victims(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """The leadership: rank-1 agents first, then rank 2, ..."""
    return engine.ranked_victims(count, highest=False)


def _max_rank_victims(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """The max-rank agents (the leaves of the ranking tree)."""
    return engine.ranked_victims(count, highest=True)


def _random_states(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """Fresh independent ``random_state`` draws -- anything representable."""
    return [engine.protocol.random_state(rng) for _ in range(count)]


def _clones(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """One uniformly random live agent's state, for every victim."""
    return [engine.sample_live_state(rng)] * count


def _leader_clones(engine: Engine, count: int, rng: random.Random) -> List[Any]:
    """A rank-1 agent's state (when one exists), for every victim: the
    rank collisions only the protocol's own error detection can expose."""
    return [engine.sample_live_state(rng, leader=True)] * count


#: Named adversaries the CLI and the experiments expose: each is a
#: victim function and a replacement-state function.  ``corrupt``
#: copies every state it writes, so a clone list may repeat one state.
ADVERSARIES: Dict[str, Tuple[StrikeFn, StrikeFn]] = {
    "random": (_uniform_victims, _random_states),
    "leader": (_leader_victims, _random_states),
    "max-rank": (_max_rank_victims, _random_states),
    "clone": (_uniform_victims, _clones),
    "clone-leader": (_uniform_victims, _leader_clones),
}


def adversary_names() -> List[str]:
    return sorted(ADVERSARIES)


def _adversary(name: str) -> Tuple[StrikeFn, StrikeFn]:
    try:
        return ADVERSARIES[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; known: {', '.join(adversary_names())}"
        ) from None


def strike(engine: Engine, adversary: str, count: int, rng: random.Random) -> int:
    """Corrupt up to ``count`` agents with the named adversary; return
    how many were hit.

    Victims are selected first, then replacement states are drawn,
    then the overwrite happens -- a fixed RNG consumption order so
    identical seeds produce identical strikes on either engine.
    """
    victims_of, states_of = _adversary(adversary)
    victims = victims_of(engine, count, rng)
    if victims:
        engine.corrupt(victims, states_of(engine, len(victims), rng))
    _LOG.debug("adversary %s overwrote %d agent(s)", adversary, len(victims))
    return len(victims)


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
    events: Iterable[FaultEvent],
    *,
    rng: random.Random,
    settle_time: float,
    max_recovery_time: float,
    initial_states: Optional[Sequence[S]] = None,
    engine: str = "auto",
    adversary: str = "random",
) -> RecoveryReport:
    """Strike a protocol with ``events`` and measure per-strike recovery times.

    The protocol first stabilizes from ``initial_states`` (default: a
    clean start); each event (in time order: :func:`periodic_events`,
    :func:`poisson_events` or a script) then strikes the *stabilized*
    population and the time back to a correct (and, for silent
    protocols, silent) configuration is recorded.
    ``settle_time`` bounds the initial stabilization,
    ``max_recovery_time`` each recovery.  Correctness is probed once per
    unit of parallel time, and availability is credited per probe
    interval, so the accounting error per strike is at most one unit.

    engine:
        A name in :data:`~repro.core.countsim.ENGINES`, built by
        :func:`~repro.core.countsim.build_engine` (``"auto"``, the
        default, runs silent protocols on the count engine).  The count
        engine also fast-forwards silent dwell between strikes, so long
        quiet periods cost O(1).  Its batched sampling (``"vector"``)
        runs only in interaction mode; silent protocols with a
        ``silent_class`` run in active mode and never batch.
    adversary:
        A name in :data:`ADVERSARIES` (default ``"random"``: uniform
        victims overwritten with ``random_state`` draws).

    When a recorder is ambient (:mod:`repro.obs.context`), strikes and
    recoveries are recorded as events, the live ``fault_backlog``
    gauge tracks unrecovered strikes, the settle / recover / dwell
    phases are timed, and the engine underneath samples its
    time-series.

    Raises ``RuntimeError`` if the protocol fails to settle initially,
    and ``ValueError`` for an unknown adversary or an event earlier
    than the one before it.
    """
    _adversary(adversary)
    obs = current_recorder()
    n = protocol.n

    def phase(name: str) -> ContextManager[None]:
        return obs.phase(name) if obs is not None else nullcontext()

    sim = build_engine(
        protocol,
        initial_states,
        rng=rng,
        engine=engine,
        mode="active" if getattr(protocol, "silent_class", None) else "auto",
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
    last = 0.0
    for event in events:
        if event.at < last:
            raise ValueError("events must be ordered by time")
        last = event.at
        target = origin + int(round(event.at * n))
        with phase("dwell"):
            while sim.ticks < target:
                advance_chunk(target)
        struck = strike(sim, adversary, event.agents, rng)
        broke = not sim.correct
        if obs is not None:
            obs.inc_gauge("fault_backlog")
            obs.event(
                "strike",
                t=sim.ticks / n,
                agents=event.agents,
                injected=struck,
                broke_correctness=broke,
                adversary=adversary,
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
