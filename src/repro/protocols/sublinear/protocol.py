"""Protocols 5-6: Sublinear-Time-SSR.

The paper's sublinear-time self-stabilizing ranking protocol family,
parameterized by the history depth ``H``:

* ``H = 0`` -- collision detection only on direct contact: a *silent*
  Theta(n)-time protocol (the variant discussed in Section 5.1);
* constant ``H >= 1`` -- expected time ``Theta(H * n^(1/(H+1)))``
  (``H = 1`` is the O(sqrt(n)) "sync dictionary" idea generalized);
* ``H = Theta(log n)`` -- the time-optimal O(log n) protocol.

Operation: every agent carries a ``name`` (a random bitstring of
``3 log2 n`` bits), a ``roster`` accumulating by union the set of all
names it has heard of, a depth-``H`` history ``tree`` for indirect
collision detection, and a write-only output ``rank``, set to the
lexicographic position of its own name in the roster once the roster
holds all ``n`` names.  Two error conditions trigger Propagate-Reset
(Protocol 2, with ``D_max = Theta(log n)``): a detected name collision,
and a roster union exceeding ``n`` (which, by pigeonhole, proves a
"ghost" name was planted by the adversary).  While a reset propagates
agents clear their names; while dormant they regenerate a fresh random
name one bit per interaction; on awakening (Protocol 6) they restart
collection from ``roster = {name}``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.protocols.base import RankingProtocol
from repro.protocols.parameters import SublinearParameters, calibrated_sublinear
from repro.protocols.propagate_reset import ResetHooks, propagate_reset_interaction
from repro.protocols.sublinear.detect_collision import detect_name_collision
from repro.protocols.sublinear.history_tree import HistoryTree
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


class SubRole(Enum):
    COLLECTING = "collecting"
    RESETTING = "resetting"


@dataclass
class SublinearAgent:
    """One agent of Sublinear-Time-SSR.

    ``name`` belongs to both roles (it survives role switches; it is
    cleared explicitly while a reset propagates and regrown while
    dormant).  The remaining fields belong to one role each.
    """

    role: SubRole
    name: str
    rank: int = 1  # Collecting: write-only output in 1..n
    roster: frozenset = frozenset()  # Collecting
    tree: HistoryTree = field(default_factory=lambda: HistoryTree.singleton(""))
    #: Owner's interaction clock for the lazy timer representation
    #: (see history_tree module docstring); only timer *remainders*
    #: ``expires - clock`` are observable state.
    clock: int = 0
    #: Synthetic-coin bit (used only with ``deterministic_names=True``;
    #: see repro.protocols.synthetic_coin).
    coin: int = 0
    resetcount: int = 0  # Resetting
    delaytimer: int = 0  # Resetting, while resetcount == 0


class SublinearTimeSSR(RankingProtocol[SublinearAgent]):
    """Sublinear-Time-SSR (Protocol 5) with its Reset (Protocol 6)."""

    def __init__(
        self,
        n: int,
        h: Optional[int] = None,
        params: Optional[SublinearParameters] = None,
        *,
        deterministic_names: bool = False,
    ):
        super().__init__(n)
        if params is None:
            if h is None:
                h = max(1, (n - 1).bit_length())  # H = Theta(log n): time-optimal
            params = calibrated_sublinear(n, h)
        elif h is not None and params.h != h:
            raise ValueError(f"params.h={params.h} contradicts h={h}")
        self.params = params
        #: Derandomize the renaming step (Protocol 5 line 15's "can be
        #: derandomized"): dormant agents regrow their names from their
        #: partners' synthetic-coin bits instead of the RNG.  Coins flip
        #: on every interaction, so this variant is never silent.
        self.deterministic_names = deterministic_names
        self.silent = params.h == 0 and not deterministic_names
        self.hooks: ResetHooks[SublinearAgent] = ResetHooks(
            is_resetting=lambda s: s.role is SubRole.RESETTING,
            enter_resetting=self._enter_resetting,
            do_reset=self._do_reset,
        )

    @property
    def h(self) -> int:
        return self.params.h

    # ------------------------------------------------------------------
    # Role switches
    # ------------------------------------------------------------------

    @staticmethod
    def _clear_collecting_fields(agent: SublinearAgent) -> None:
        agent.rank = 1
        agent.roster = frozenset()
        agent.tree = HistoryTree.singleton(agent.name)
        agent.clock = 0

    def _enter_resetting(self, agent: SublinearAgent, rng: random.Random) -> None:
        self._clear_collecting_fields(agent)
        agent.role = SubRole.RESETTING

    def _trigger(self, agent: SublinearAgent) -> None:
        """Protocol 5 lines 3-4: an error was detected."""
        self._clear_collecting_fields(agent)
        agent.role = SubRole.RESETTING
        agent.resetcount = self.params.reset.r_max
        agent.delaytimer = 0

    def _do_reset(self, agent: SublinearAgent, rng: random.Random) -> None:
        """Protocol 6: resume collecting from a singleton roster."""
        agent.role = SubRole.COLLECTING
        agent.resetcount = 0
        agent.delaytimer = 0
        agent.rank = 1
        agent.roster = frozenset((agent.name,))
        agent.tree = HistoryTree.singleton(agent.name)
        agent.clock = 0

    # ------------------------------------------------------------------
    # Transition (Protocol 5)
    # ------------------------------------------------------------------

    def transition(
        self,
        initiator: SublinearAgent,
        responder: SublinearAgent,
        rng: random.Random,
    ) -> Tuple[SublinearAgent, SublinearAgent]:
        a, b = initiator, responder
        if a.role is SubRole.COLLECTING and b.role is SubRole.COLLECTING:
            # The union includes the participants' own names.  Protocol 5
            # line 6 writes only ``a.roster | b.roster`` because Reset
            # establishes (and honest unions preserve) the invariant
            # ``name in roster``; an adversarial start can violate it,
            # and without this repair a ghost name squatting on a missing
            # agent's roster slot would never overflow |roster| > n and
            # the configuration could stay incorrect forever.  In honest
            # configurations adding the names is a no-op.
            union = a.roster | b.roster | {a.name, b.name}
            collided = detect_name_collision(a, b, self.params, rng)
            if collided or len(union) > self.n:
                self._trigger(a)
                self._trigger(b)
            else:
                a.roster = union
                b.roster = union
                if len(union) == self.n:
                    # Do not set rank until all names are collected.
                    for agent in (a, b):
                        rank = rank_in_roster(agent.name, union)
                        if rank is not None:
                            agent.rank = rank
        else:
            # Partner coins are read before this interaction's flips.
            coin_for = {id(a): b.coin & 1, id(b): a.coin & 1}
            propagate_reset_interaction(a, b, self.params.reset, self.hooks, rng)
            for agent in (a, b):
                if agent.role is not SubRole.RESETTING:
                    continue
                if agent.resetcount > 0:
                    # Clear names while propagating the reset signal.
                    agent.name = EMPTY_NAME
                elif len(agent.name) < self.params.name_bits:
                    # Dormant: regenerate a name, one bit per interaction --
                    # from the partner's synthetic coin when derandomized.
                    if self.deterministic_names:
                        agent.name = agent.name + str(coin_for[id(agent)])
                    else:
                        agent.name = append_random_bit(agent.name, rng)
        if self.deterministic_names:
            a.coin ^= 1
            b.coin ^= 1
        return a, b

    # ------------------------------------------------------------------
    # States
    # ------------------------------------------------------------------

    def initial_state(self, rng: random.Random) -> SublinearAgent:
        """Clean start: a fresh random name, knowing only itself."""
        name = random_name(self.params.name_bits, rng)
        return SublinearAgent(
            role=SubRole.COLLECTING,
            name=name,
            roster=frozenset((name,)),
            tree=HistoryTree.singleton(name),
        )

    def unique_names_configuration(self, rng: random.Random) -> List[SublinearAgent]:
        """Clean start guaranteed collision-free (for convergence timing)."""
        return [
            SublinearAgent(
                role=SubRole.COLLECTING,
                name=name,
                roster=frozenset((name,)),
                tree=HistoryTree.singleton(name),
            )
            for name in fresh_unique_names(self.n, self.params.name_bits, rng)
        ]

    def _random_tree(self, own_name: str, rng: random.Random) -> HistoryTree:
        """An adversarial history tree: arbitrary names, syncs and timers."""
        names = [random_name(self.params.name_bits, rng) for _ in range(4)] + [
            own_name
        ]

        def build(name: str, depth: int) -> HistoryTree:
            node = HistoryTree(name=name)
            if depth > 0 and rng.random() < 0.6:
                for _ in range(rng.randrange(1, 3)):
                    child = build(rng.choice(names), depth - 1)
                    node.graft(
                        child,
                        sync=rng.randint(1, self.params.s_max),
                        # Remaining timer in 0..T_H (clock starts at 0).
                        expires=rng.randrange(self.params.t_h + 1),
                    )
            return node

        tree = build(own_name, self.params.h)
        return tree

    def random_state(self, rng: random.Random) -> SublinearAgent:
        length = rng.choice((0, self.params.name_bits, self.params.name_bits))
        name = random_name(length, rng) if length else EMPTY_NAME
        if rng.random() < 0.5:
            # Adversarial roster: ghosts allowed, own name not guaranteed.
            roster_size = rng.randrange(self.n + 1)
            roster = frozenset(
                random_name(self.params.name_bits, rng) for _ in range(roster_size)
            )
            if rng.random() < 0.5 and name:
                roster = roster | {name}
            return SublinearAgent(
                role=SubRole.COLLECTING,
                name=name,
                rank=rng.randint(1, self.n),
                roster=frozenset(list(roster)[: self.n]),
                tree=self._random_tree(name, rng),
            )
        resetcount = rng.randrange(self.params.reset.r_max + 1)
        delaytimer = (
            rng.randrange(self.params.reset.d_max + 1) if resetcount == 0 else 0
        )
        return SublinearAgent(
            role=SubRole.RESETTING,
            name=name,
            resetcount=resetcount,
            delaytimer=delaytimer,
            coin=rng.getrandbits(1) if self.deterministic_names else 0,
        )

    def rank_of(self, state: SublinearAgent) -> Optional[int]:
        if state.role is SubRole.COLLECTING:
            return state.rank
        return None

    def summarize(self, state: SublinearAgent):
        """Cheap summary: everything except the history tree.

        For ``H = 0`` trees are trivially empty, so this summary is the
        complete state and exact silence checks are sound; for
        ``H >= 1`` the protocol is non-silent and never queried for
        silence, so omitting the tree only coarsens change counting.
        """
        if state.role is SubRole.COLLECTING:
            return ("C", state.name, state.rank, state.roster)
        return ("R", state.name, state.resetcount, state.delaytimer)

    def describe(self, state: SublinearAgent) -> str:
        if state.role is SubRole.COLLECTING:
            return (
                f"collecting(name={state.name or 'eps'}, rank={state.rank}, "
                f"|roster|={len(state.roster)})"
            )
        kind = "propagating" if state.resetcount > 0 else "dormant"
        return (
            f"resetting[{kind}](name={state.name or 'eps'}, "
            f"rc={state.resetcount}, delay={state.delaytimer})"
        )

    def is_pair_null(self, a: SublinearAgent, b: SublinearAgent) -> bool:
        if self.params.h != 0 or self.deterministic_names:
            return super().is_pair_null(a, b)  # raises NotSilentError
        if a.role is not SubRole.COLLECTING or b.role is not SubRole.COLLECTING:
            return False  # resets and dormancy always move a counter
        if a.name == b.name:
            return False  # direct collision triggers a reset
        if a.roster != b.roster:
            return False  # the union changes at least one roster
        if a.name not in a.roster or b.name not in b.roster:
            return False  # the union absorbs the missing own name
        if len(a.roster) != self.n:
            return True  # below n names: no rank writes yet
        for agent in (a, b):
            rank = rank_in_roster(agent.name, agent.roster)
            if rank is not None and rank != agent.rank:
                return False
        return True


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


def _check_roster(protocol: SublinearTimeSSR, state: SublinearAgent):
    params = protocol.params
    problems = []
    if len(state.roster) > protocol.n:
        problems.append(
            f"roster size {len(state.roster)} exceeds n={protocol.n}"
        )
    for name in state.roster:
        if not is_valid_name(name, params.name_bits):
            problems.append(f"roster holds invalid name {name!r}")
            break
    return problems


def _check_tree(protocol: SublinearTimeSSR, state: SublinearAgent):
    params = protocol.params
    problems = []
    if state.tree.name != state.name:
        problems.append(
            f"tree root {state.tree.name!r} differs from name {state.name!r}"
        )
    if state.tree.depth() > params.h:
        problems.append(f"tree depth {state.tree.depth()} exceeds H={params.h}")
    for edge in state.tree.iter_edges():
        if not 1 <= edge.sync <= params.s_max:
            problems.append(f"sync {edge.sync} outside 1..{params.s_max}")
            break
        if edge.remaining(state.clock) > params.t_h:
            problems.append(
                f"timer remainder {edge.remaining(state.clock)} exceeds "
                f"T_H={params.t_h}"
            )
            break
    return problems


@register_schema(SublinearTimeSSR)
def _sublinear_schema(protocol: SublinearTimeSSR) -> StateSchema:
    """Names, rosters, trees and timers in domain.

    Rosters and depth-``H`` history trees make this state space
    astronomically large (Table 1's ``exp(O(n^H) log n)``), so the
    schema is *not* enumerable: it serves runtime validation and the
    transition sanitizer, while the small-n model checker covers the
    enumerable protocols.
    """
    params = protocol.params
    name_field = FieldSpec(
        "name",
        Predicate(
            lambda value: is_valid_name(value, params.name_bits),
            f"{{0,1}}^<={params.name_bits}",
        ),
    )
    collecting = RoleSchema(
        role=SubRole.COLLECTING,
        fields=(
            name_field,
            FieldSpec("rank", IntRange(1, protocol.n)),
            FieldSpec("roster", Anything()),
            FieldSpec("tree", Anything(), in_key=False),
        ),
        constraints=(
            Constraint("roster", lambda s: _check_roster(protocol, s)),
            Constraint("history-tree", lambda s: _check_tree(protocol, s)),
        ),
    )
    resetting = RoleSchema(
        role=SubRole.RESETTING,
        fields=(
            name_field,
            FieldSpec("resetcount", IntRange(0, params.reset.r_max)),
            FieldSpec("delaytimer", IntRange(0, params.reset.d_max)),
        ),
    )
    return StateSchema("SublinearTimeSSR", [collecting, resetting])
