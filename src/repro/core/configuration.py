"""Configuration utilities.

A *configuration* is the global system state: the local state of each of
the ``n`` agents.  The simulation engine stores configurations as plain
lists (agent index -> state object); this module provides the read-only
analysis helpers layered on top: exact silence checks and ranking
correctness.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, TypeVar

from repro.core.protocol import PopulationProtocol

S = TypeVar("S")


def is_silent(protocol: PopulationProtocol[S], states: Sequence[S]) -> bool:
    """Exact check that a configuration is silent.

    A configuration is silent if no transition is applicable to it: every
    ordered pair of (distinct) agents present has only a null transition.
    For silent protocols this is decidable through the analytic
    :meth:`PopulationProtocol.is_pair_null` predicate.  The check runs
    over *distinct states* rather than agent pairs, so it costs
    ``O(k^2)`` null-pair queries for ``k`` distinct states.

    Raises :class:`repro.core.errors.NotSilentError` when the protocol
    does not support null-pair queries.
    """
    distinct: List[S] = []
    seen = set()
    multiplicity = Counter()
    for state in states:
        key = protocol.summarize(state)
        multiplicity[key] += 1
        if key not in seen:
            seen.add(key)
            distinct.append(state)

    for a in distinct:
        for b in distinct:
            if a is b and multiplicity[protocol.summarize(a)] < 2:
                # The pair (a, a) requires two agents in this state.
                continue
            if not protocol.is_pair_null(a, b):
                return False
    return True


def ranks_are_permutation(ranks: Sequence[object], n: int) -> bool:
    """Whether ``ranks`` is exactly the set ``{1, ..., n}``.

    ``None`` entries (agents with no rank, e.g. mid-reset) make the
    configuration incorrect.
    """
    seen = set()
    for rank in ranks:
        if not isinstance(rank, int) or not 1 <= rank <= n:
            return False
        if rank in seen:
            return False
        seen.add(rank)
    return len(seen) == n
