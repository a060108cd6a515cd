"""Small-n exhaustive model checking of protocol correctness claims.

The paper's headline properties are *structural*: silence (Table 1's
"silent" column), closure of the declared state space, and
self-stabilization from **every** configuration.  Simulation can only
sample trajectories; for small populations the claims are decidable
outright, because the configuration space is finite and the scheduler is
memoryless.  This module decides them.

The abstraction: agents are anonymous and the interaction graph is
complete, so a configuration is a **multiset** of states and the
uniform-random scheduler induces a finite Markov chain on multisets.
For a deterministic transition function (all protocols certified here
use the RNG argument for nothing) the chain's support graph is computed
exactly from the pair-transition table:

* **closure** -- no ordered pair of declared states transitions outside
  the declared space (checked over all |S|^2 pairs);
* **determinism** -- replaying a transition from deep-copied inputs with
  an identically seeded RNG reproduces it, and a *differently* seeded
  RNG does too (a protocol failing the second is randomized and needs
  branch enumeration, which this checker refuses rather than fakes);
* **null-pair consistency** -- ``is_pair_null`` agrees exactly with
  "the transition changes neither state", in both directions (the
  engine's silence detection relies on the equivalence);
* **silence** -- from every *correct* configuration, no enabled
  transition changes any state;
* **stabilization** -- every sink (configuration with no state-changing
  transition) is correct, and every configuration reaches a correct
  sink.  For a finite chain whose sinks are absorbing, reachability of
  the sink set from everywhere is exactly probability-1 stabilization
  under the uniform scheduler.

Everything is driven by the protocol's declared
:class:`~repro.statics.schema.StateSchema`; protocols whose schema is
not enumerable (names, rosters, trees) are out of scope and are covered
by the dynamic battery plus :mod:`repro.statics.sanitize` instead.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.statics.schema import StateSchema, schema_for

#: Rule identifiers (catalogued in docs/static_analysis.md).
RULE_CLOSURE = "closure"
RULE_DETERMINISM = "determinism"
RULE_NULL_PAIRS = "null-pair-consistency"
RULE_SILENCE = "silence"
RULE_STABILIZATION = "stabilization"

GRAPH_RULES = (RULE_SILENCE, RULE_STABILIZATION)
PAIR_RULES = (RULE_CLOSURE, RULE_DETERMINISM, RULE_NULL_PAIRS)
ALL_RULES = PAIR_RULES + GRAPH_RULES


class ModelCheckError(Exception):
    """The protocol cannot be model checked (not enumerable / too big)."""


@dataclass
class RuleOutcome:
    """Result of one rule: pass/fail, a summary, and witnesses on failure."""

    rule_id: str
    passed: bool
    detail: str
    witnesses: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class PairOutcome:
    """Deterministic transition of one ordered state pair, by index."""

    out_initiator: int
    out_responder: int
    changed: bool


MAX_WITNESSES = 3


class _LazySeededRandom(random.Random):
    """``random.Random(seed)``, seeded on its first draw.

    Seeding a Mersenne Twister costs ~8 us, and the pair table probes
    every ordered pair three times, while most protocols never touch
    the RNG.  Every method of :class:`random.Random` bottoms out in
    ``random()`` or ``getrandbits()``, so forwarding those two to a
    ``random.Random(seed)`` built on first use draws exactly what it
    would have drawn.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._inner: Optional[random.Random] = None
        super().__init__()

    def _rng(self) -> random.Random:
        if self._inner is None:
            self._inner = random.Random(self._seed)
        return self._inner

    def random(self) -> float:  # type: ignore[override]
        return self._rng().random()

    def getrandbits(self, k: int) -> int:  # type: ignore[override]
        return self._rng().getrandbits(k)

    def seed(self, *args: Any, **kwargs: Any) -> None:
        pass  # called by Random.__init__; the seed is applied on first use

    def getstate(self) -> Any:  # pragma: no cover
        raise NotImplementedError("a probe RNG has no state of its own")

    def setstate(self, state: Any) -> None:  # pragma: no cover
        raise NotImplementedError("a probe RNG has no state of its own")


class StateSpace:
    """The enumerated state space plus the exact pair-transition table.

    Building the table performs the closure and determinism checks as a
    side effect (they are properties of individual pairs); the results
    are kept on the instance for :func:`model_check` to report.
    """

    def __init__(
        self,
        protocol: Any,
        schema: Optional[StateSchema] = None,
        *,
        max_states: int = 4096,
        rng_seeds: Tuple[int, int] = (0xA11CE, 0xB0B),
    ):
        self.protocol = protocol
        self.schema = schema or schema_for(protocol)
        if not self.schema.enumerable:
            raise ModelCheckError(
                f"{type(protocol).__name__} schema is not enumerable; "
                "model checking needs a finite declared state space"
            )
        self.states: List[Any] = self.schema.enumerate_states()
        if len(self.states) > max_states:
            raise ModelCheckError(
                f"{len(self.states)} declared states exceed the cap "
                f"{max_states}; use smaller parameters for model checking"
            )
        self.index: Dict[Hashable, int] = {}
        for position, state in enumerate(self.states):
            key = self.schema.key(state)
            if key in self.index:
                raise ModelCheckError(
                    f"schema enumerated duplicate state {protocol.describe(state)}"
                )
            self.index[key] = position
        self.rng_seeds = rng_seeds
        #: (i, j) -> outcome; pairs with closure/determinism violations
        #: are absent.
        self.pairs: Dict[Tuple[int, int], PairOutcome] = {}
        #: partners[i]: the responders j whose pair (i, j) changes state
        #: or is absent from ``pairs``; every other pair is null.
        self.partners: List[FrozenSet[int]] = []
        self.closure_witnesses: List[str] = []
        self.determinism_witnesses: List[str] = []
        self.null_witnesses: List[str] = []
        self._explore_pairs()

    # -- pair table -----------------------------------------------------

    def _describe_pair(self, i: int, j: int) -> str:
        describe = self.protocol.describe
        return (
            f"initiator: {describe(self.states[i])}, "
            f"responder: {describe(self.states[j])}"
        )

    def _apply(self, i: int, j: int, seed: int) -> Tuple[Any, Any]:
        initiator = copy.deepcopy(self.states[i])
        responder = copy.deepcopy(self.states[j])
        return self.protocol.transition(
            initiator, responder, _LazySeededRandom(seed)
        )

    def _explore_pairs(self) -> None:
        protocol, schema = self.protocol, self.schema
        check_null = bool(getattr(protocol, "silent", False))
        size = len(self.states)
        for i in range(size):
            for j in range(size):
                out_a, out_b = self._apply(i, j, self.rng_seeds[0])
                problems = schema.validate(out_a) + schema.validate(out_b)
                if problems:
                    if len(self.closure_witnesses) < MAX_WITNESSES:
                        self.closure_witnesses.append(
                            f"{self._describe_pair(i, j)} -> "
                            f"{'; '.join(problems)}"
                        )
                    continue
                key_a, key_b = schema.key(out_a), schema.key(out_b)
                replays = [
                    self._apply(i, j, self.rng_seeds[0]),
                    self._apply(i, j, self.rng_seeds[1]),
                ]
                stable = all(
                    schema.is_valid(ra)
                    and schema.is_valid(rb)
                    and schema.key(ra) == key_a
                    and schema.key(rb) == key_b
                    for ra, rb in replays
                )
                if not stable:
                    if len(self.determinism_witnesses) < MAX_WITNESSES:
                        self.determinism_witnesses.append(
                            f"{self._describe_pair(i, j)} -> differs on replay"
                        )
                    continue
                if key_a not in self.index or key_b not in self.index:
                    raise ModelCheckError(
                        "transition produced a valid state missing from the "
                        f"enumeration ({self._describe_pair(i, j)}); schema "
                        "constraints and validation disagree"
                    )
                out_i, out_j = self.index[key_a], self.index[key_b]
                changed = (out_i, out_j) != (i, j)
                self.pairs[(i, j)] = PairOutcome(out_i, out_j, changed)
                if check_null:
                    claimed_null = protocol.is_pair_null(
                        self.states[i], self.states[j]
                    )
                    if claimed_null and changed:
                        if len(self.null_witnesses) < MAX_WITNESSES:
                            self.null_witnesses.append(
                                f"{self._describe_pair(i, j)}: claimed null "
                                "but the transition changes state"
                            )
                    elif not claimed_null and not changed:
                        if len(self.null_witnesses) < MAX_WITNESSES:
                            self.null_witnesses.append(
                                f"{self._describe_pair(i, j)}: claimed "
                                "non-null but the transition changes nothing"
                            )
            self.partners.append(
                frozenset(
                    j
                    for j in range(size)
                    if (i, j) not in self.pairs or self.pairs[(i, j)].changed
                )
            )

    @property
    def pair_table_complete(self) -> bool:
        return not self.closure_witnesses and not self.determinism_witnesses

    # -- configurations -------------------------------------------------

    def configurations(self, max_configs: int = 250_000) -> List[Tuple[int, ...]]:
        """All size-``n`` multisets of state indices (sorted tuples)."""
        n, size = self.protocol.n, len(self.states)
        total = comb(size + n - 1, n)
        if total > max_configs:
            raise ModelCheckError(
                f"{total} configurations exceed the cap {max_configs} "
                f"(|S|={size}, n={n}); refusing to truncate -- raise "
                "max_configs or shrink the protocol parameters"
            )
        return list(combinations_with_replacement(range(size), n))

    def states_of(self, config: Tuple[int, ...]) -> List[Any]:
        return [self.states[i] for i in config]

    def describe_configuration(self, config: Tuple[int, ...]) -> str:
        describe = self.protocol.describe
        return " | ".join(
            f"agent {pos}: {describe(self.states[i])}"
            for pos, i in enumerate(config)
        )

    def ordered_pairs(self, config: Tuple[int, ...]) -> Set[Tuple[int, int]]:
        """Distinct ordered state-index pairs schedulable in ``config``."""
        counts: Dict[int, int] = {}
        for i in config:
            counts[i] = counts.get(i, 0) + 1
        pairs: Set[Tuple[int, int]] = set()
        for a in counts:
            for b in counts:
                if a != b or counts[a] >= 2:
                    pairs.add((a, b))
        return pairs

    def active_pairs(
        self, config: Tuple[int, ...]
    ) -> Iterator[Tuple[Tuple[int, int], int]]:
        """Schedulable pairs of ``config`` that change it, or are missing.

        Yields ``((i, j), c_i (c_j - delta_ij))`` in ascending ``(i, j)``
        order for every pair with positive weight whose responder is in
        ``partners[i]``; the pairs not yielded are null.  Per initiator it
        scans the partner set or the present states, whichever is
        shorter, so the cost follows the state-changing pairs rather than
        all ``k^2`` ordered pairs of the ``k`` present states.
        """
        counts: Dict[int, int] = {}
        for i in config:
            counts[i] = counts.get(i, 0) + 1
        for i, count_i in counts.items():
            partners = self.partners[i]
            if len(partners) < len(counts):
                responders = sorted(j for j in partners if j in counts)
            else:
                responders = [j for j in counts if j in partners]
            for j in responders:
                weight = count_i * (counts[j] - (1 if i == j else 0))
                if weight:
                    yield (i, j), weight

    def successor(
        self, config: Tuple[int, ...], pair: Tuple[int, int]
    ) -> Tuple[int, ...]:
        outcome = self.pairs[pair]
        remaining = list(config)
        remaining.remove(pair[0])
        remaining.remove(pair[1])
        remaining.extend((outcome.out_initiator, outcome.out_responder))
        return tuple(sorted(remaining))

    def is_sink(self, config: Tuple[int, ...]) -> bool:
        """No schedulable ordered pair changes any state."""
        return all(not self.pairs[pair].changed for pair, _ in self.active_pairs(config))

    def is_correct(self, config: Tuple[int, ...]) -> bool:
        return bool(self.protocol.is_correct(self.states_of(config)))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_closure(space: StateSpace) -> RuleOutcome:
    size = len(space.states)
    if space.closure_witnesses:
        return RuleOutcome(
            RULE_CLOSURE,
            False,
            f"transition escapes the declared state space ({size} states)",
            list(space.closure_witnesses),
        )
    return RuleOutcome(
        RULE_CLOSURE,
        True,
        f"all {size * size} ordered pairs stay inside the {size} declared states",
    )


def check_determinism(space: StateSpace) -> RuleOutcome:
    if space.determinism_witnesses:
        return RuleOutcome(
            RULE_DETERMINISM,
            False,
            "transition is not a deterministic function of the pair",
            list(space.determinism_witnesses),
        )
    return RuleOutcome(
        RULE_DETERMINISM, True, "transitions replay identically under fixed RNGs"
    )


def check_null_pairs(space: StateSpace) -> RuleOutcome:
    if not getattr(space.protocol, "silent", False):
        return RuleOutcome(
            RULE_NULL_PAIRS, True, "skipped: protocol does not declare silence"
        )
    if space.null_witnesses:
        return RuleOutcome(
            RULE_NULL_PAIRS,
            False,
            "is_pair_null disagrees with the transition function",
            list(space.null_witnesses),
        )
    return RuleOutcome(
        RULE_NULL_PAIRS,
        True,
        "is_pair_null matches the transition on every ordered pair",
    )


def check_silence(
    space: StateSpace, configs: Optional[Sequence[Tuple[int, ...]]] = None
) -> RuleOutcome:
    """No enabled state-changing transition from any correct configuration."""
    configs = configs if configs is not None else space.configurations()
    witnesses: List[str] = []
    correct_count = 0
    for config in configs:
        if not space.is_correct(config):
            continue
        correct_count += 1
        if space.is_sink(config) or len(witnesses) >= MAX_WITNESSES:
            continue
        pair = next(
            pair for pair in space.ordered_pairs(config) if space.pairs[pair].changed
        )
        witnesses.append(
            f"{space.describe_configuration(config)} "
            f"[enabled change: {space._describe_pair(*pair)}]"
        )
    if witnesses:
        return RuleOutcome(
            RULE_SILENCE,
            False,
            "a correct configuration admits a state-changing transition",
            witnesses,
        )
    return RuleOutcome(
        RULE_SILENCE,
        True,
        f"all {correct_count} correct configurations "
        f"(of {len(configs)}) are silent",
    )


def check_stabilization(
    space: StateSpace, configs: Optional[Sequence[Tuple[int, ...]]] = None
) -> RuleOutcome:
    """Every sink is correct, and every configuration reaches a correct sink."""
    configs = configs if configs is not None else space.configurations()
    witnesses: List[str] = []
    sinks: List[Tuple[int, ...]] = []
    predecessors: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {
        config: [] for config in configs
    }
    for config in configs:
        sink = True
        for pair, _ in space.active_pairs(config):
            sink = False
            predecessors[space.successor(config, pair)].append(config)
        if sink:
            if space.is_correct(config):
                sinks.append(config)
            elif len(witnesses) < MAX_WITNESSES:
                witnesses.append(
                    f"incorrect sink: {space.describe_configuration(config)}"
                )
    if witnesses:
        return RuleOutcome(
            RULE_STABILIZATION,
            False,
            "the protocol can go silent in an incorrect configuration",
            witnesses,
        )
    if not sinks:
        return RuleOutcome(
            RULE_STABILIZATION,
            False,
            "no correct sink configuration exists",
            [f"total configurations: {len(configs)}"],
        )
    reached: Set[Tuple[int, ...]] = set(sinks)
    frontier: List[Tuple[int, ...]] = list(sinks)
    while frontier:
        config = frontier.pop()
        for predecessor in predecessors[config]:
            if predecessor not in reached:
                reached.add(predecessor)
                frontier.append(predecessor)
    stranded = [config for config in configs if config not in reached]
    if stranded:
        return RuleOutcome(
            RULE_STABILIZATION,
            False,
            f"{len(stranded)} of {len(configs)} configurations cannot reach "
            "a correct sink",
            [
                space.describe_configuration(config)
                for config in stranded[:MAX_WITNESSES]
            ],
        )
    return RuleOutcome(
        RULE_STABILIZATION,
        True,
        f"all {len(configs)} configurations reach one of {len(sinks)} "
        "correct sinks (probability-1 stabilization)",
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def model_check(
    protocol: Any,
    schema: Optional[StateSchema] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    max_states: int = 4096,
    max_configs: int = 250_000,
) -> List[RuleOutcome]:
    """Run the requested rules against ``protocol``'s full small-n space.

    Defaults to the pair rules plus, for silent protocols, silence and
    stabilization.  Graph rules are skipped (reported as failures with a
    pointer) when the pair table itself is broken, since the chain they
    would analyze is then not well defined.
    """
    space = StateSpace(protocol, schema, max_states=max_states)
    if rules is None:
        rules = list(PAIR_RULES)
        if getattr(protocol, "silent", False):
            rules += list(GRAPH_RULES)
    outcomes: List[RuleOutcome] = []
    configs: Optional[List[Tuple[int, ...]]] = None
    for rule_id in rules:
        if rule_id == RULE_CLOSURE:
            outcomes.append(check_closure(space))
        elif rule_id == RULE_DETERMINISM:
            outcomes.append(check_determinism(space))
        elif rule_id == RULE_NULL_PAIRS:
            outcomes.append(check_null_pairs(space))
        elif rule_id in GRAPH_RULES:
            if not space.pair_table_complete:
                outcomes.append(
                    RuleOutcome(
                        rule_id,
                        False,
                        "skipped: pair table incomplete "
                        "(fix closure/determinism first)",
                    )
                )
                continue
            if configs is None:
                configs = space.configurations(max_configs)
            if rule_id == RULE_SILENCE:
                outcomes.append(check_silence(space, configs))
            else:
                outcomes.append(check_stabilization(space, configs))
        else:
            raise ValueError(f"unknown model-check rule {rule_id!r}")
    return outcomes
