"""Exact Markov-chain analysis of Silent-n-state-SSR (tiny n).

Because agents are anonymous, the baseline protocol's execution is a
Markov chain on *rank-count vectors* ``(c_0, ..., c_{n-1})`` with
``sum c_r = n``.  From a state ``C`` the chain moves, when the scheduler
picks an ordered pair of same-rank agents (probability
``w_r = c_r (c_r - 1) / (n (n - 1))`` for rank ``r``), to the state with
one agent shifted ``r -> r+1 mod n``; otherwise it stays put.  Absorbing
states are exactly the correct rankings (all counts equal 1).

For small ``n`` the reachable state space is tiny (compositions of n
into n parts: 35 for n=4, 462 for n=6), so the expected absorption time
solves a linear system exactly:

    E[C] = (skip cost) n (n-1) / W(C)  +  sum_r (w_r / W) E[C_r']

where ``W = sum_r c_r (c_r - 1)``.  The count-vector combinatorics above
are kept here as the worked example (and for the closed-form worst-case
assertion); the linear system itself is solved by the *generic* exact
subsystem, :mod:`repro.statics.quant`, which builds the same chain from
the protocol's declared schema -- so this module and ``repro verify``
share one solver.  The result is ground-truth
expected stabilization times (in interactions) that the test suite uses
to validate both the sequential engine and the exact-jump fast path to
within Monte-Carlo error -- and exact Table 1 row 1 constants at toy
sizes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

State = Tuple[int, ...]


def is_absorbing(state: State) -> bool:
    """All ranks held by exactly one agent."""
    return all(count == 1 for count in state)


def colliding_weight(state: State) -> int:
    """``sum_r c_r (c_r - 1)``: ordered same-rank pairs available."""
    return sum(count * (count - 1) for count in state)


def successors(state: State) -> List[Tuple[State, int]]:
    """Effective transitions: (next state, weight c_r (c_r - 1))."""
    n = len(state)
    moves: List[Tuple[State, int]] = []
    for rank, count in enumerate(state):
        weight = count * (count - 1)
        if weight == 0:
            continue
        bumped = list(state)
        bumped[rank] -= 1
        bumped[(rank + 1) % n] += 1
        moves.append((tuple(bumped), weight))
    return moves


@lru_cache(maxsize=None)
def expected_absorption_interactions(start: State) -> float:
    """Exact expected interactions to absorption from ``start``.

    Delegates to the generic chain solver (:mod:`repro.statics.quant`)
    over the set reachable from ``start``: the count-vector chain above
    and the schema-built multiset chain are the same object, so the
    value is bit-for-bit what ``repro verify`` reports.  Practical for
    ``n`` up to ~8 (the state count is ``C(2n - 1, n - 1)`` in the worst
    case).
    """
    from repro.protocols.cai_izumi_wada import SilentNStateSSR
    from repro.statics.quant import build_chain, hitting_moments

    n = sum(start)
    if len(start) != n:
        raise ValueError(f"state must have n={n} ranks, got {len(start)}")
    if is_absorbing(start):
        return 0.0

    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(start)
    chain = build_chain(protocol, starts=[states])
    return hitting_moments(chain).expected_from_states(states)


@lru_cache(maxsize=None)
def worst_case_expected_interactions(n: int) -> float:
    """Exact E[interactions] from the paper's Omega(n^2) witness.

    The witness ([2, 1, ..., 1, 0]) is special: every reachable state
    has exactly one colliding rank, so the chain is a *sequence* of
    geometric waits and the expectation telescopes to

        E = sum over the n - 1 bottleneck events of n (n - 1) / 2
          = n (n - 1)^2 / 2

    -- but only until a bump lands on the empty rank; we compute it
    through the general solver, then assert the closed form when it
    applies (it always does for this witness: the duplicate chases the
    hole around the cycle without ever splitting).
    """
    from repro.core.fastpath import worst_case_ciw_counts

    start = tuple(worst_case_ciw_counts(n))
    exact = expected_absorption_interactions(start)
    closed_form = n * (n - 1) * (n - 1) / 2.0
    if abs(exact - closed_form) > 1e-6 * closed_form:
        raise AssertionError(
            f"worst-case chain deviated from closed form: {exact} vs {closed_form}"
        )
    return exact

