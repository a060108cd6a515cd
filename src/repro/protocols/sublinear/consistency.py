"""Protocol 8: Check-Path-Consistency.

Agent ``j`` is shown a live path ``P = (e_1, ..., e_p)`` from agent
``i``'s tree whose final node carries ``j``'s name, with node labels
``n_0 = i.name, n_1, ..., n_p = j.name``.  ``j`` verifies it against its
own tree by walking the path *in reverse* from its root: child labelled
``n_{p-1}``, then ``n_{p-2}``, and so on, as deep as its own tree allows
(the paper's "longest reversed suffix", ``q = min{q' | (j.e_p, ...,
j.e_{q'}) exists in j.tree}``).  If **any** traversed edge carries the
same sync value as the corresponding edge of ``P``, the histories are
logically consistent and the check passes.

Two ways to fail, both returning ``Inconsistent``:

* the reversed walk exists but *no* compared sync matches -- a genuine
  agent always retains at least one matching sync along the chain
  (Figure 2, right), whereas a same-named impostor agrees with any given
  edge only with probability ``1/S_max``;
* ``j``'s tree cannot take even the first reversed step (no child
  labelled ``n_{p-1}``) -- a genuine ``j`` keeps a depth-1 record of
  every agent it ever merged with, so a missing first edge is itself
  evidence of an impostor.

The worst adversarial initial configurations can make honest agents fail
this check once; that only triggers one global reset, after which the
invariants above hold.
"""

from __future__ import annotations

from typing import Sequence

from repro.protocols.sublinear.history_tree import HistoryTree, TreeEdge

CONSISTENT = True
INCONSISTENT = False


def check_path_consistency(
    j_tree: HistoryTree, path: Sequence[TreeEdge], i_name: str
) -> bool:
    """Return ``CONSISTENT``/``INCONSISTENT`` for ``j`` verifying ``P``.

    ``path`` is the edge sequence from ``i``'s root; ``i_name`` is the
    label of ``i``'s root (needed to reconstruct the node-label sequence).
    ``j_tree`` is the verifying agent's own tree, whose root label must
    equal the final node label of the path.
    """
    if not path:
        raise ValueError("consistency checks need a path with at least one edge")
    end_name = path[-1].child.name
    if j_tree.name != end_name:
        raise ValueError(f"path ends at {end_name!r} but verifier is {j_tree.name!r}")
    if _reversed_walk_matches(j_tree, path, len(path), i_name):
        return CONSISTENT
    return INCONSISTENT


def _reversed_walk_matches(
    node: HistoryTree, path: Sequence[TreeEdge], position: int, i_name: str
) -> bool:
    """Whether a walk below ``node`` along the reversed path finds a sync match.

    ``position`` indexes the path edge compared next, from ``p`` down to
    ``1`` (1-based like the paper): ``node``'s child labelled
    ``n_{position-1}`` must carry that edge's sync, or the walk goes on
    below it.  Trees built by the protocol have at most one child per
    name under any node, but adversarial initial trees may not;
    exploring every matching branch keeps the check sound either way
    (any branch with a matching sync certifies consistency).  Labels are
    read off the path's edges, and the recursion is a plain function: a
    self-recursive closure would leave a reference cycle behind on
    every call.
    """
    wanted = path[position - 2].child.name if position > 1 else i_name
    sync = path[position - 1].sync
    for edge in node.edges:
        child = edge.child
        if child.name != wanted:
            continue
        if edge.sync == sync:
            return True
        if (
            position > 1
            and child.edges
            and _reversed_walk_matches(child, path, position - 1, i_name)
        ):
            return True
    return False
