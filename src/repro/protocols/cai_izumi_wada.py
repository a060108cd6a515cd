"""Protocol 1: Silent-n-state-SSR (Cai, Izumi, Wada).

The previously known self-stabilizing ranking protocol, displayed as
Protocol 1 in the paper.  Each agent's entire state is a rank in
``{0, ..., n-1}`` and the single (asymmetric) transition is

    if a.rank = b.rank then b.rank <- (b.rank + 1) mod n

for initiator ``a`` and responder ``b``.  It uses exactly ``n`` states
(optimal, by Theorem 2.1) and stabilizes in Theta(n^2) expected parallel
time -- the baseline the paper's two protocols improve on.

The paper's Omega(n^2) lower-bound witness (two agents at rank 0, none
at rank ``n - 1``) is available as
:func:`repro.core.fastpath.worst_case_ciw_counts`; the matching
exact-jump fast simulator lives in :mod:`repro.core.fastpath`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.protocols.base import RankingProtocol
from repro.statics.schema import (
    FieldSpec,
    IntRange,
    StateSchema,
    register_schema,
    scalar_schema,
)


class SilentNStateSSR(RankingProtocol[int]):
    """Silent-n-state-SSR with states ``0..n-1`` (paper's Protocol 1).

    We keep the protocol's internal rank convention ``{0..n-1}`` (which
    simplifies the modular arithmetic, as the paper notes) and expose the
    package-wide output convention ``{1..n}`` through :meth:`rank_of`.
    """

    silent = True

    def transition(
        self, initiator: int, responder: int, rng: random.Random
    ) -> Tuple[int, int]:
        if initiator == responder:
            return initiator, (responder + 1) % self.n
        return initiator, responder

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def random_state(self, rng: random.Random) -> int:
        return rng.randrange(self.n)

    def rank_of(self, state: int) -> Optional[int]:
        return state + 1

    def summarize(self, state: int) -> int:
        return state

    def describe(self, state: int) -> str:
        return f"rank={state}"

    def is_pair_null(self, a: int, b: int) -> bool:
        return a != b

    def clone_state(self, state: int) -> int:
        return state  # ints are immutable

    def silent_class(self, state: int) -> int:
        # Two agents at *distinct* ranks are null in both orders, so the
        # rank itself partitions states into mutually-null classes (see
        # CountSimulation's "active" mode for the contract).
        return state

    def state_count(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Convenience constructors for notable configurations
    # ------------------------------------------------------------------

    def worst_case_configuration(self) -> List[int]:
        """The Omega(n^2) witness: ranks ``[0, 0, 1, 2, ..., n-2]``."""
        return [0] + list(range(self.n - 1))

    def counts_to_configuration(self, counts: Sequence[int]) -> List[int]:
        """Expand a rank-count vector into an explicit configuration."""
        if len(counts) != self.n or sum(counts) != self.n:
            raise ValueError(
                f"counts must be a length-{self.n} vector summing to {self.n}"
            )
        states: List[int] = []
        for rank, count in enumerate(counts):
            states.extend([rank] * count)
        return states


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


@register_schema(SilentNStateSSR)
def _silent_n_state_schema(protocol: SilentNStateSSR) -> StateSchema:
    """The whole state is the rank: exactly ``n`` states (Table 1)."""
    return scalar_schema(
        "SilentNStateSSR",
        FieldSpec("rank", IntRange(0, protocol.n - 1)),
        build=lambda rank: rank,
    )
