"""Tests for Protocol 8 (Check-Path-Consistency)."""

import pytest

from repro.core.rng import make_rng
from repro.protocols.sublinear.consistency import (
    CONSISTENT,
    INCONSISTENT,
    check_path_consistency,
)
from repro.protocols.sublinear.history_tree import HistoryTree
from repro.protocols.sublinear.protocol import SublinearTimeSSR


def leaf(name):
    return HistoryTree.singleton(name)


def chain(*names_and_syncs) -> HistoryTree:
    names = names_and_syncs[::2]
    syncs = names_and_syncs[1::2]
    node = leaf(names[-1])
    for name, sync in zip(reversed(names[:-1]), reversed(syncs)):
        parent = leaf(name)
        parent.graft(node, sync=sync, expires=100)
        node = parent
    return node


def path_of(tree: HistoryTree, target: str):
    (path,) = tree.paths_to_name(target, clock=0)
    return path


class TestValidation:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            check_path_consistency(leaf("a"), [], "i")

    def test_wrong_verifier_rejected(self):
        d_tree = chain("d", 3, "a")
        with pytest.raises(ValueError):
            check_path_consistency(leaf("z"), path_of(d_tree, "a"), "d")


class TestFigure2Scenarios:
    def test_left_panel_match_at_first_compared_edge(self):
        # d: d -3-> c -2-> b -1-> a; a: a -1-> b.
        d_tree = chain("d", 3, "c", 2, "b", 1, "a")
        a_tree = chain("a", 1, "b")
        verdict = check_path_consistency(a_tree, path_of(d_tree, "a"), "d")
        assert verdict is CONSISTENT

    def test_right_panel_match_at_second_compared_edge(self):
        # a overwrote the a-b sync (7), but learned b's b-c record (2).
        d_tree = chain("d", 3, "c", 2, "b", 1, "a")
        a_tree = chain("a", 7, "b", 2, "c")
        verdict = check_path_consistency(a_tree, path_of(d_tree, "a"), "d")
        assert verdict is CONSISTENT

    def test_impostor_with_empty_tree_is_inconsistent(self):
        d_tree = chain("d", 3, "c", 2, "b", 1, "a")
        verdict = check_path_consistency(leaf("a"), path_of(d_tree, "a"), "d")
        assert verdict is INCONSISTENT

    def test_impostor_with_wrong_syncs_is_inconsistent(self):
        d_tree = chain("d", 3, "c", 2, "b", 1, "a")
        impostor = chain("a", 9, "b", 8, "c")  # no sync matches
        verdict = check_path_consistency(impostor, path_of(d_tree, "a"), "d")
        assert verdict is INCONSISTENT


class TestWalkSemantics:
    def test_walk_stops_at_longest_existing_suffix(self):
        # Verifier only knows one reversed step; it matches -> consistent.
        i_tree = chain("i", 5, "b", 4, "j")
        j_tree = chain("j", 4, "b")
        assert check_path_consistency(j_tree, path_of(i_tree, "j"), "i") is CONSISTENT

    def test_deep_match_beyond_mismatches(self):
        i_tree = chain("i", 1, "x", 2, "y", 3, "j")
        # Verifier's syncs differ at every level except the deepest.
        j_tree = chain("j", 9, "y", 8, "x", 1, "i")
        assert check_path_consistency(j_tree, path_of(i_tree, "j"), "i") is CONSISTENT

    def test_match_must_be_at_corresponding_position(self):
        # The sync value 3 appears in the verifier's tree but at the wrong
        # position of the reversed walk, so it must NOT count.
        i_tree = chain("i", 9, "b", 3, "j")
        j_tree = chain("j", 9, "b")  # j-b sync is 9, not 3
        assert (
            check_path_consistency(j_tree, path_of(i_tree, "j"), "i") is INCONSISTENT
        )

    def test_branchy_verifier_any_matching_branch_counts(self):
        # Adversarial verifier tree with two children named b: one branch
        # matches, so the check passes.
        i_tree = chain("i", 5, "b", 4, "j")
        j_tree = leaf("j")
        j_tree.graft(leaf("b"), sync=1, expires=100)
        j_tree.graft(leaf("b"), sync=4, expires=100)
        assert check_path_consistency(j_tree, path_of(i_tree, "j"), "i") is CONSISTENT

    def test_verifier_edges_may_be_expired(self):
        # Only the accuser's path needs live timers; the verifier's own
        # record still certifies consistency even when stale.
        i_tree = chain("i", 4, "j")
        j_tree = leaf("j")
        j_tree.graft(leaf("i"), sync=4, expires=0)  # long expired
        assert check_path_consistency(j_tree, path_of(i_tree, "j"), "i") is CONSISTENT


def reference_check(j_tree, path, i_name):
    """The recursive walk ``check_path_consistency`` replaced, kept verbatim
    as the verdict reference."""
    labels = [i_name] + [edge.child.name for edge in path]

    def walk(node, position):
        if position < 1:
            return False
        wanted = labels[position - 1]
        found = False
        for edge in node.edges:
            if edge.child.name != wanted:
                continue
            if edge.sync == path[position - 1].sync:
                return True
            found = walk(edge.child, position - 1) or found
        return found

    return CONSISTENT if walk(j_tree, len(path)) else INCONSISTENT


class TestReferenceVerdicts:
    """``check_path_consistency`` agrees with the reference on every pair."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_protocol_grown_trees(self, n):
        protocol = SublinearTimeSSR(n)
        rng = make_rng(n, "grown-verdicts")
        agents = protocol.unique_names_configuration(rng)
        # Two agents share a name so impostor verdicts occur too.
        agents[-1] = protocol.unique_names_configuration(rng)[0]
        agents[-1].name = agents[-1].tree.name = agents[0].name
        for _ in range(40 * n):
            i, j = rng.sample(range(n - 1), 2)
            protocol.transition(agents[i], agents[j], rng)
        verdicts = set()
        for i in agents:
            for j in agents:
                if i is j or i.name == j.name:
                    continue
                for path in i.tree.paths_to_name(j.name, i.clock):
                    expected = reference_check(j.tree, path, i.name)
                    assert check_path_consistency(j.tree, path, i.name) is expected
                    verdicts.add(expected)
        assert verdicts == {CONSISTENT, INCONSISTENT}

    def test_adversarial_random_trees(self):
        # Accusers are the protocol's adversarial trees; each verifier is
        # drawn from the path's own labels and syncs, so repeated child
        # names, partial matches and mismatches all occur.
        protocol = SublinearTimeSSR(16)
        rng = make_rng(0, "adversarial-verdicts")
        verdicts = []
        for _ in range(300):
            i_tree = protocol._random_tree("i", rng)
            targets = {edge.child.name for edge in i_tree.iter_edges()} - {"i"}
            for target in sorted(targets):
                for path in i_tree.paths_to_name(target, 0):
                    labels = ["i"] + [edge.child.name for edge in path]
                    syncs = [edge.sync for edge in path] + [0]
                    for _ in range(3):
                        j_tree = random_verifier(target, labels, syncs, len(path), rng)
                        expected = reference_check(j_tree, path, "i")
                        got = check_path_consistency(j_tree, path, "i")
                        assert got is expected
                        verdicts.append(expected)
        assert CONSISTENT in verdicts and INCONSISTENT in verdicts


def random_verifier(name, labels, syncs, depth, rng):
    """A verifier tree over ``labels`` and ``syncs``, up to three children each."""
    node = leaf(name)
    if depth > 0:
        for _ in range(rng.randrange(4)):
            node.graft(
                random_verifier(rng.choice(labels), labels, syncs, depth - 1, rng),
                sync=rng.choice(syncs),
                expires=100,
            )
    return node
