"""The O(sqrt(n))-time "sync dictionary" warm-up protocol (Section 5.2).

Before generalizing to depth-``H`` history trees, the paper presents a
simpler sublinear collision detector: every agent keeps a dictionary,
keyed by the names of agents it has encountered, of the last shared
``sync`` value generated with that name.  When two agents meet they
first compare records -- a disagreement (or a one-sided record) proves
that one of them previously met a *different* agent carrying the same
name -- then overwrite both records with a fresh shared random value.

From a configuration with two agents sharing a name, some third agent
meets both within O(sqrt(n)) time (a birthday argument), and the second
meeting exposes the collision with probability ``1 - 1/S_max``.  This
protocol is exactly Sublinear-Time-SSR's behaviour at tree depth
``H = 1`` (each agent knows one hop of history), packaged with the same
roster/reset machinery; we implement it independently with plain
dictionaries both as a faithful rendition of the paper's warm-up and as
a cross-check of the tree implementation at ``H = 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.protocols.base import RankingProtocol
from repro.protocols.parameters import SublinearParameters, calibrated_sublinear
from repro.protocols.propagate_reset import ResetHooks, propagate_reset_interaction
from repro.protocols.sublinear.names import (
    EMPTY_NAME,
    append_random_bit,
    fresh_unique_names,
    is_valid_name,
    random_name,
    rank_in_roster,
)
from repro.statics.schema import (
    Anything,
    Constraint,
    FieldSpec,
    IntRange,
    Predicate,
    RoleSchema,
    StateSchema,
    register_schema,
)


class DictRole(Enum):
    COLLECTING = "collecting"
    RESETTING = "resetting"


@dataclass
class DictAgent:
    """One agent of the sync-dictionary protocol."""

    role: DictRole
    name: str
    rank: int = 1
    roster: frozenset = frozenset()
    syncs: Dict[str, int] = field(default_factory=dict)
    resetcount: int = 0
    delaytimer: int = 0


class SyncDictionarySSR(RankingProtocol[DictAgent]):
    """Self-stabilizing ranking via per-name sync dictionaries."""

    silent = False  # sync values are refreshed forever

    def __init__(self, n: int, params: Optional[SublinearParameters] = None):
        super().__init__(n)
        self.params = params or calibrated_sublinear(n, h=1)
        self.hooks: ResetHooks[DictAgent] = ResetHooks(
            is_resetting=lambda s: s.role is DictRole.RESETTING,
            enter_resetting=self._enter_resetting,
            do_reset=self._do_reset,
        )

    # ------------------------------------------------------------------
    # Role switches
    # ------------------------------------------------------------------

    @staticmethod
    def _clear_collecting_fields(agent: DictAgent) -> None:
        agent.rank = 1
        agent.roster = frozenset()
        agent.syncs = {}

    def _enter_resetting(self, agent: DictAgent, rng: random.Random) -> None:
        self._clear_collecting_fields(agent)
        agent.role = DictRole.RESETTING

    def _trigger(self, agent: DictAgent) -> None:
        self._clear_collecting_fields(agent)
        agent.role = DictRole.RESETTING
        agent.resetcount = self.params.reset.r_max
        agent.delaytimer = 0

    def _do_reset(self, agent: DictAgent, rng: random.Random) -> None:
        agent.role = DictRole.COLLECTING
        agent.resetcount = 0
        agent.delaytimer = 0
        agent.rank = 1
        agent.roster = frozenset((agent.name,))
        agent.syncs = {}

    # ------------------------------------------------------------------
    # Collision detection
    # ------------------------------------------------------------------

    @staticmethod
    def records_collide(a: DictAgent, b: DictAgent) -> bool:
        """Whether the two agents' mutual records expose a collision.

        Honest executions keep records perfectly paired: entries are
        created and refreshed for both parties in the same interaction
        and never removed.  A one-sided record, a disagreeing pair, or a
        shared name all certify that a same-named impostor exists.
        """
        if a.name == b.name:
            return True
        a_has = b.name in a.syncs
        b_has = a.name in b.syncs
        if a_has != b_has:
            return True
        return a_has and a.syncs[b.name] != b.syncs[a.name]

    # ------------------------------------------------------------------
    # Transition
    # ------------------------------------------------------------------

    def transition(
        self, initiator: DictAgent, responder: DictAgent, rng: random.Random
    ) -> Tuple[DictAgent, DictAgent]:
        a, b = initiator, responder
        if a.role is DictRole.COLLECTING and b.role is DictRole.COLLECTING:
            # Includes the participants' own names: see the matching
            # comment in sublinear/protocol.py (repairs adversarial
            # rosters that violate the ``name in roster`` invariant).
            union = a.roster | b.roster | {a.name, b.name}
            if self.records_collide(a, b) or len(union) > self.n:
                self._trigger(a)
                self._trigger(b)
            else:
                sync = rng.randint(1, self.params.s_max)
                a.syncs[b.name] = sync
                b.syncs[a.name] = sync
                a.roster = union
                b.roster = union
                if len(union) == self.n:
                    for agent in (a, b):
                        rank = rank_in_roster(agent.name, union)
                        if rank is not None:
                            agent.rank = rank
        else:
            propagate_reset_interaction(a, b, self.params.reset, self.hooks, rng)
            for agent in (a, b):
                if agent.role is not DictRole.RESETTING:
                    continue
                if agent.resetcount > 0:
                    agent.name = EMPTY_NAME
                elif len(agent.name) < self.params.name_bits:
                    agent.name = append_random_bit(agent.name, rng)
        return a, b

    # ------------------------------------------------------------------
    # States
    # ------------------------------------------------------------------

    def initial_state(self, rng: random.Random) -> DictAgent:
        name = random_name(self.params.name_bits, rng)
        return DictAgent(
            role=DictRole.COLLECTING, name=name, roster=frozenset((name,))
        )

    def unique_names_configuration(self, rng: random.Random) -> List[DictAgent]:
        return [
            DictAgent(role=DictRole.COLLECTING, name=name, roster=frozenset((name,)))
            for name in fresh_unique_names(self.n, self.params.name_bits, rng)
        ]

    def random_state(self, rng: random.Random) -> DictAgent:
        length = rng.choice((0, self.params.name_bits, self.params.name_bits))
        name = random_name(length, rng) if length else EMPTY_NAME
        if rng.random() < 0.5:
            pool = [random_name(self.params.name_bits, rng) for _ in range(4)]
            roster = frozenset(
                rng.choice(pool) for _ in range(rng.randrange(self.n + 1))
            )
            syncs = {
                rng.choice(pool): rng.randint(1, self.params.s_max)
                for _ in range(rng.randrange(4))
            }
            return DictAgent(
                role=DictRole.COLLECTING,
                name=name,
                rank=rng.randint(1, self.n),
                roster=frozenset(list(roster)[: self.n]),
                syncs=syncs,
            )
        resetcount = rng.randrange(self.params.reset.r_max + 1)
        delaytimer = (
            rng.randrange(self.params.reset.d_max + 1) if resetcount == 0 else 0
        )
        return DictAgent(
            role=DictRole.RESETTING,
            name=name,
            resetcount=resetcount,
            delaytimer=delaytimer,
        )

    def rank_of(self, state: DictAgent) -> Optional[int]:
        if state.role is DictRole.COLLECTING:
            return state.rank
        return None

    def summarize(self, state: DictAgent):
        if state.role is DictRole.COLLECTING:
            return ("C", state.name, state.rank, state.roster)
        return ("R", state.name, state.resetcount, state.delaytimer)

    def describe(self, state: DictAgent) -> str:
        if state.role is DictRole.COLLECTING:
            return (
                f"collecting(name={state.name or 'eps'}, rank={state.rank}, "
                f"|roster|={len(state.roster)}, |syncs|={len(state.syncs)})"
            )
        kind = "propagating" if state.resetcount > 0 else "dormant"
        return (
            f"resetting[{kind}](name={state.name or 'eps'}, "
            f"rc={state.resetcount}, delay={state.delaytimer})"
        )


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


def _check_syncs(protocol: SyncDictionarySSR, state: DictAgent):
    params = protocol.params
    problems = []
    if len(state.roster) > protocol.n:
        problems.append(f"roster size {len(state.roster)} exceeds n={protocol.n}")
    for name, sync in state.syncs.items():
        if not 1 <= sync <= params.s_max:
            problems.append(f"sync {sync} for {name!r} outside 1..{params.s_max}")
            break
    return problems


@register_schema(SyncDictionarySSR)
def _sync_dictionary_schema(protocol: SyncDictionarySSR) -> StateSchema:
    """Per-name sync dictionaries: validated, not enumerable."""
    params = protocol.params
    name_field = FieldSpec(
        "name",
        Predicate(
            lambda value: is_valid_name(value, params.name_bits),
            f"{{0,1}}^<={params.name_bits}",
        ),
    )
    collecting = RoleSchema(
        role=DictRole.COLLECTING,
        fields=(
            name_field,
            FieldSpec("rank", IntRange(1, protocol.n)),
            FieldSpec("roster", Anything()),
            FieldSpec("syncs", Anything(), in_key=False),
        ),
        constraints=(Constraint("sync-records", lambda s: _check_syncs(protocol, s)),),
    )
    resetting = RoleSchema(
        role=DictRole.RESETTING,
        fields=(
            name_field,
            FieldSpec("resetcount", IntRange(0, params.reset.r_max)),
            FieldSpec("delaytimer", IntRange(0, params.reset.d_max)),
        ),
    )
    return StateSchema("SyncDictionarySSR", [collecting, resetting])
