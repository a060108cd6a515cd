"""Protocol 7: Detect-Name-Collision.

The heart of Sublinear-Time-SSR: detect that two agents share a name
*without* waiting for them to meet directly.  Each agent maintains a
depth-``H`` history tree (:mod:`repro.protocols.sublinear.history_tree`);
when two agents meet they

1. check every live path in their tree ending at the partner's name
   against the partner (Check-Path-Consistency) and report a collision
   on any inconsistency;
2. otherwise generate a fresh shared ``sync`` value, replace their
   depth-1 record of the partner with the partner's current tree
   (truncated to depth ``H - 1``) under a fresh edge, prune their own
   name, and age every edge timer by one (a clock increment in the lazy
   representation).

With ``H = 0`` the trees are trivial and only the *direct* check
remains: two agents carrying the same name recognize the collision when
they meet -- the Theta(n)-time silent variant discussed in Section 5.1.
For ``H >= 1``, information about an agent travels through chains of up
to ``H + 1`` interactions, which is what brings detection time down to
``O(H * n^(1/(H+1)))`` and, at ``H = Theta(log n)``, to ``O(log n)``.
"""

from __future__ import annotations

import random
from typing import Protocol as TypingProtocol

from repro.protocols.parameters import SublinearParameters
from repro.protocols.sublinear.consistency import INCONSISTENT, check_path_consistency
from repro.protocols.sublinear.history_tree import HistoryTree, _walk_live_paths


class HasNameTreeClock(TypingProtocol):
    """Structural type for Detect-Name-Collision participants."""

    name: str
    tree: HistoryTree
    clock: int


def find_collision(a: HasNameTreeClock, b: HasNameTreeClock) -> bool:
    """The read-only detection half of Protocol 7 (lines 1-4).

    Returns ``True`` iff a name collision is detected.  Includes the
    direct check ``a.name == b.name`` -- the base mechanism that the
    pseudocode leaves implicit (with ``H = 0`` it is the *only*
    mechanism, and for ``H >= 1`` the two same-named agents must still
    recognize each other on direct contact, since neither tree can hold
    a path ending in the agent's own name).

    Each direction is one walk over the accuser's live paths that checks
    every path ending at the partner's name as it reaches it and stops
    at the first inconsistent one.
    """
    if a.name == b.name:
        return True
    for i, j in ((a, b), (b, a)):
        j_tree, i_name = j.tree, i.tree.name
        if _walk_live_paths(
            i.tree,
            j.name,
            i.clock,
            [],
            lambda path: check_path_consistency(j_tree, path, i_name) is INCONSISTENT,
        ):
            return True
    return False


def merge_histories(
    a: HasNameTreeClock,
    b: HasNameTreeClock,
    params: SublinearParameters,
    rng: random.Random,
    *,
    sync: "int | None" = None,
) -> int:
    """The update half of Protocol 7 (lines 5-14); returns the sync value.

    Both agents replace their depth-1 record of the partner with the
    partner's *pre-interaction* tree truncated to depth ``H - 1``
    (translated to the recipient's clock and with the recipient's own
    name pruned), under a fresh edge carrying the shared sync value and
    a full ``T_H`` timer; then both clocks advance one tick, aging every
    timer.  With ``H = 0`` no history is kept and only the clock tick
    remains.
    """
    if sync is None:
        sync = rng.randint(1, params.s_max)
    if params.h >= 1:
        # Snapshot both trees first: each graft must use the partner's
        # pre-interaction tree.
        a_snapshot = a.tree.copy(
            params.h - 1, clock_shift=b.clock - a.clock, exclude_name=b.name
        )
        b_snapshot = b.tree.copy(
            params.h - 1, clock_shift=a.clock - b.clock, exclude_name=a.name
        )
        for agent, snapshot in ((a, b_snapshot), (b, a_snapshot)):
            agent.tree.remove_child(snapshot.name)
            agent.tree.graft(snapshot, sync=sync, expires=agent.clock + params.t_h)
    a.clock += 1
    b.clock += 1
    return sync


def detect_name_collision(
    a: HasNameTreeClock,
    b: HasNameTreeClock,
    params: SublinearParameters,
    rng: random.Random,
) -> bool:
    """Full Protocol 7: detection, then (only if clean) the history merge.

    Mirrors how Protocol 5 uses it: a detected collision short-circuits
    (the agents are about to be reset, so their trees are not updated)
    and returns ``True``; otherwise the merge runs and ``False`` is
    returned.
    """
    if find_collision(a, b):
        return True
    merge_histories(a, b, params, rng)
    return False
