"""Figure 2: worked executions of the history-tree construction.

The figure shows two four-agent executions (agents a, b, c, d) starting
from singleton trees, with the sync values fixed by the narrative:

* **left panel**: a-b (sync 1), b-c (sync 2), c-d (sync 3).  When a and
  d afterwards compare histories, d's only path ending at ``a`` is
  ``d -3-> c -2-> b -1-> a``; a's reversed suffix is ``a -1-> b``, whose
  single edge matches the final sync of the path, so
  Check-Path-Consistency returns True at the first edge.

* **right panel**: a-b (1), b-c (2), a-b again (7), c-d (3).  The
  repeated a-b interaction *overwrites* the sync value 1 with 7, so the
  first compared edge mismatches -- but in that same interaction ``a``
  learned ``b``'s record of the b-c interaction (sync 2), which matches
  the second compared edge, so the check still returns True.

This experiment replays both scripts through the real Protocol 7
implementation (:func:`repro.protocols.sublinear.detect_collision
.merge_histories` with the figure's sync values injected), asserts the
resulting trees node-for-node against the figure, renders them, and
verifies both consistency checks pass -- plus the contrast case the
figure is really about: an *impostor* ``a'`` (same name as ``a``, but
without a's history) fails the same check, which is exactly how
Detect-Name-Collision catches duplicate names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.rng import DEFAULT_SEED, make_rng
from repro.experiments.common import ExperimentReport
from repro.protocols.parameters import calibrated_sublinear
from repro.protocols.sublinear.consistency import check_path_consistency
from repro.protocols.sublinear.detect_collision import find_collision, merge_histories
from repro.protocols.sublinear.history_tree import HistoryTree

EXPERIMENT_ID = "figure2"
TITLE = "Figure 2 -- building interaction-history trees"


@dataclass
class FigureAgent:
    """Minimal Detect-Name-Collision participant for the worked example."""

    name: str
    tree: HistoryTree = field(default_factory=lambda: HistoryTree.singleton(""))
    clock: int = 0

    def __post_init__(self) -> None:
        if not self.tree.name:
            self.tree = HistoryTree.singleton(self.name)


def expected_tree(spec) -> HistoryTree:
    """Build a tree from a nested ``(name, [(sync, subspec), ...])`` spec."""
    name, children = spec
    node = HistoryTree.singleton(name)
    for sync, subspec in children:
        node.graft(expected_tree(subspec), sync=sync, expires=1)
    return node


def same_shape(actual: HistoryTree, expected: HistoryTree) -> bool:
    """Compare trees on names and syncs only (timers are not drawn)."""

    def strip(node: HistoryTree) -> Tuple:
        return (
            node.name,
            tuple(sorted((e.sync, strip(e.child)) for e in node.edges)),
        )

    return strip(actual) == strip(expected)


def replay(
    script: Sequence[Tuple[str, str, int]], params
) -> Tuple[List[FigureAgent], List[str]]:
    """Run a (initiator, responder, sync) script through Protocol 7."""
    agents = {name: FigureAgent(name) for name in "abcd"}
    rng = make_rng(DEFAULT_SEED, "figure2-replay")
    log: List[str] = []
    for x, y, sync in script:
        a, b = agents[x], agents[y]
        if find_collision(a, b):
            raise AssertionError(f"unexpected collision between {x} and {y}")
        merge_histories(a, b, params, rng, sync=sync)
        log.append(f"{x}-{y} interact; generate sync value {sync}:")
        for agent in agents.values():
            log.append(agent.tree.render())
            log.append("")
    return list(agents.values()), log


LEFT_SCRIPT = [("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]
RIGHT_SCRIPT = [("a", "b", 1), ("b", "c", 2), ("a", "b", 7), ("c", "d", 3)]

# The trees the figure draws after the final interaction of each panel.
LEFT_EXPECTED = {
    "a": ("a", [(1, ("b", []))]),
    "b": ("b", [(1, ("a", [])), (2, ("c", []))]),
    "c": ("c", [(2, ("b", [(1, ("a", []))])), (3, ("d", []))]),
    "d": ("d", [(3, ("c", [(2, ("b", [(1, ("a", []))]))]))]),
}
RIGHT_EXPECTED = {
    "a": ("a", [(7, ("b", [(2, ("c", []))]))]),
    "b": ("b", [(7, ("a", [])), (2, ("c", []))]),
    "c": ("c", [(2, ("b", [(1, ("a", []))])), (3, ("d", []))]),
    "d": ("d", [(3, ("c", [(2, ("b", [(1, ("a", []))]))]))]),
}


def _check_panel(
    report: ExperimentReport,
    panel: str,
    script: Sequence[Tuple[str, str, int]],
    expected: dict,
    matching_edge_index: int,
) -> None:
    # Depth H = 4 and a large T_H so nothing truncates or expires within
    # the worked example; n = 4 agents.
    params = calibrated_sublinear(4, h=4)
    agents, log = replay(script, params)
    by_name = {agent.name: agent for agent in agents}

    for name, spec in expected.items():
        actual = by_name[name].tree
        report.add_check(
            f"{panel}-tree-{name}",
            passed=same_shape(actual, expected_tree(spec)),
            measured=actual.render().replace("\n", " / "),
            expected="tree as drawn in the figure",
        )
        report.add_row(panel=panel, agent=name, tree=actual.render().replace("\n", " / "))

    # The a-d consistency check described in the caption.
    d, a = by_name["d"], by_name["a"]
    paths = list(d.tree.paths_to_name("a", d.clock))
    report.add_check(
        f"{panel}-d-has-one-path-to-a",
        passed=len(paths) == 1 and [e.sync for e in paths[0]] == [3, 2, 1],
        measured=[[e.sync for e in p] for p in paths],
        expected="exactly the path d -3-> c -2-> b -1-> a",
    )
    # Without a path there is nothing to check, and the check fails.
    verdict = check_path_consistency(a.tree, paths[0], d.tree.name) if paths else None
    report.add_check(
        f"{panel}-a-passes-consistency",
        passed=verdict is True,
        measured="no path" if verdict is None else str(verdict),
        expected=f"True (match at compared edge {matching_edge_index})",
    )
    # No collision is (correctly) declared between any honest pair.
    honest = all(
        not find_collision(by_name[x], by_name[y])
        for x in "abcd"
        for y in "abcd"
        if x < y
    )
    report.add_check(
        f"{panel}-no-false-positives",
        passed=honest,
        measured=honest,
        expected="no honest pair is accused",
    )
    # The contrast case: an impostor named "a" with no history fails.
    impostor = FigureAgent("a")
    caught = find_collision(d, impostor)
    report.add_check(
        f"{panel}-impostor-caught",
        passed=caught,
        measured=caught,
        expected="d's path to 'a' is inconsistent with the impostor",
    )
    report.notes.append(f"--- {panel} panel replay ---")
    report.notes.extend(log)


def run(seed: int = DEFAULT_SEED, quick: bool = False) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["panel", "agent", "tree"],
    )
    _check_panel(report, "left", LEFT_SCRIPT, LEFT_EXPECTED, matching_edge_index=1)
    _check_panel(report, "right", RIGHT_SCRIPT, RIGHT_EXPECTED, matching_edge_index=2)
    return report
