"""Base class for self-stabilizing ranking protocols.

All protocols in the paper (and therefore in this package) solve the
*ranking* problem: assign the agents the ranks ``1..n`` (each exactly
once), from any initial configuration.  Ranking strictly implies leader
election -- the agent with rank 1 is the leader -- which is how the
paper, and :mod:`repro.protocols.leader`, derive SSLE.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional, Sequence, TypeVar

from repro.core.configuration import ranks_are_permutation
from repro.core.protocol import PopulationProtocol

S = TypeVar("S")


class RankingProtocol(PopulationProtocol[S]):
    """A population protocol whose output is a rank in ``{1..n}``.

    Subclasses implement :meth:`rank_of`, mapping an agent state to its
    current output rank, or ``None`` when the agent has no rank (for
    example while resetting).  Correctness of a configuration is then
    fully determined: the ranks must be exactly ``{1, ..., n}``.
    """

    @abstractmethod
    def rank_of(self, state: S) -> Optional[int]:
        """Current output rank of ``state`` (1-based), or ``None``."""

    def is_correct(self, states: Sequence[S]) -> bool:
        return ranks_are_permutation([self.rank_of(s) for s in states], self.n)

    def is_leader(self, state: S) -> bool:
        """Leader bit derived from ranking: rank 1 is the leader."""
        return self.rank_of(state) == 1
