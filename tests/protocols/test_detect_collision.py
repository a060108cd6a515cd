"""Tests for Protocol 7 (Detect-Name-Collision)."""

import gc
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.rng import make_rng
from repro.protocols.parameters import calibrated_sublinear
from repro.protocols.sublinear.consistency import INCONSISTENT, check_path_consistency
from repro.protocols.sublinear.detect_collision import (
    detect_name_collision,
    find_collision,
    merge_histories,
)
from repro.protocols.sublinear.history_tree import HistoryTree
from repro.protocols.sublinear.protocol import SublinearTimeSSR


@dataclass
class Agent:
    name: str
    tree: HistoryTree = field(default_factory=lambda: HistoryTree.singleton(""))
    clock: int = 0

    def __post_init__(self):
        if not self.tree.name:
            self.tree = HistoryTree.singleton(self.name)


PARAMS = calibrated_sublinear(8, h=3)


def meet(a: Agent, b: Agent, sync=None):
    assert not find_collision(a, b)
    merge_histories(a, b, PARAMS, make_rng(0, "meet"), sync=sync)


class TestDirectDetection:
    def test_equal_names_collide(self):
        assert find_collision(Agent("x"), Agent("x"))

    def test_fresh_distinct_names_do_not(self):
        assert not find_collision(Agent("x"), Agent("y"))


class TestMergeMechanics:
    def test_both_sides_record_the_same_sync(self):
        a, b = Agent("a"), Agent("b")
        meet(a, b, sync=42)
        assert a.tree.find_child("b").sync == 42
        assert b.tree.find_child("a").sync == 42

    def test_remeeting_replaces_the_record(self):
        a, b = Agent("a"), Agent("b")
        meet(a, b, sync=1)
        meet(a, b, sync=7)
        assert a.tree.find_child("b").sync == 7
        assert len(a.tree.edges) == 1  # replaced, not duplicated

    def test_clocks_advance(self):
        a, b = Agent("a"), Agent("b")
        meet(a, b)
        assert a.clock == 1 and b.clock == 1

    def test_graft_uses_pre_interaction_trees(self):
        # After a-b, both have depth-1 info; when they re-meet, neither
        # tree may contain the fresh sync below depth 1 (that would mean
        # post-interaction state leaked into the snapshot).
        a, b = Agent("a"), Agent("b")
        meet(a, b, sync=1)
        c = Agent("c")
        meet(b, c, sync=2)
        meet(a, b, sync=7)
        # a's view of b is b's tree *before* sync 7 existed: b -> {a?, c}.
        b_record = a.tree.find_child("b").child
        assert b_record.find_child("c").sync == 2
        # a's own name was pruned from the grafted subtree.
        assert b_record.find_child("a") is None

    def test_own_name_never_below_root(self):
        agents = [Agent(name) for name in "abcd"]
        rng = make_rng(1, "soup")
        for _ in range(60):
            i, j = rng.sample(range(4), 2)
            if not find_collision(agents[i], agents[j]):
                merge_histories(agents[i], agents[j], PARAMS, rng)
        for agent in agents:
            assert not agent.tree.contains_name(agent.name)

    def test_trees_stay_simply_labelled_and_bounded(self):
        agents = [Agent(name) for name in "abcdef"]
        rng = make_rng(2, "soup")
        for _ in range(150):
            i, j = rng.sample(range(6), 2)
            if not find_collision(agents[i], agents[j]):
                merge_histories(agents[i], agents[j], PARAMS, rng)
        for agent in agents:
            assert agent.tree.is_simply_labelled()
            assert agent.tree.depth() <= PARAMS.h

    def test_h_zero_keeps_trees_trivial(self):
        params0 = calibrated_sublinear(8, h=0)
        a, b = Agent("a"), Agent("b")
        merge_histories(a, b, params0, make_rng(0, "h0"))
        assert a.tree.size() == 1
        assert b.tree.size() == 1


class TestIndirectDetection:
    def test_witness_catches_duplicate(self):
        """b meets a, then a' (same name as a): collision via the path."""
        a, dup = Agent("x"), Agent("x")
        b = Agent("b")
        meet(b, a, sync=5)
        # b now holds b -> x(sync 5); dup has no record of b.
        assert find_collision(b, dup)

    def test_witness_does_not_accuse_the_original(self):
        a = Agent("x")
        b = Agent("b")
        meet(b, a, sync=5)
        assert not find_collision(b, a)

    def test_two_hop_witness_chain(self):
        """H >= 2: c hears about x through b, then meets the duplicate."""
        a, dup = Agent("x"), Agent("x")
        b, c = Agent("b"), Agent("c")
        meet(a, b, sync=5)
        meet(b, c, sync=6)  # c: c -> b -> x
        assert c.tree.paths_to_name("x", c.clock)
        assert find_collision(c, dup)
        assert not find_collision(c, a)

    def test_honest_population_never_accuses(self):
        agents = [Agent(name) for name in "abcdefgh"]
        rng = make_rng(3, "honest")
        for _ in range(400):
            i, j = rng.sample(range(8), 2)
            assert not find_collision(agents[i], agents[j]), (i, j)
            merge_histories(agents[i], agents[j], PARAMS, rng)

    def test_expired_paths_do_not_accuse(self):
        """Stale accusations are gated by the edge timers."""
        a, dup = Agent("x"), Agent("x")
        b = Agent("b")
        meet(b, a, sync=5)
        b.clock += PARAMS.t_h  # age b far beyond T_H
        assert not find_collision(b, dup)


class TestDetectNameCollision:
    def test_collision_skips_merge(self):
        a, dup, b = Agent("x"), Agent("x"), Agent("b")
        meet(b, a, sync=5)
        clock_before = b.clock
        assert detect_name_collision(b, dup, PARAMS, make_rng(0, "d"))
        assert b.clock == clock_before  # no merge side effects
        assert dup.tree.size() == 1

    def test_clean_pair_merges(self):
        a, b = Agent("a"), Agent("b")
        assert not detect_name_collision(a, b, PARAMS, make_rng(0, "d"))
        assert a.tree.find_child("b") is not None


class TestNoCyclicGarbage:
    def test_detect_and_merge_leave_no_reference_cycles(self):
        """Detection and merging free everything by reference counting.

        A reference cycle per call (e.g. a self-recursive closure) pins
        tree edges until a full collection and makes the cyclic
        collector a large share of the Sublinear row's wall time.
        """
        agents = [Agent(name) for name in "abcdefgh"]
        rng = make_rng(4, "no-garbage")
        for _ in range(400):
            i, j = rng.sample(range(8), 2)
            assert not find_collision(agents[i], agents[j])
            merge_histories(agents[i], agents[j], PARAMS, rng)
        pairs = [rng.sample(range(8), 2) for _ in range(100)]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for i, j in pairs[:50]:
                find_collision(agents[i], agents[j])
            for i, j in pairs[50:]:
                merge_histories(agents[i], agents[j], PARAMS, rng)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def reference_find_collision(a, b):
    """The collect-then-check search ``find_collision`` replaced, kept
    verbatim as the verdict reference."""
    if a.name == b.name:
        return True
    for i, j in ((a, b), (b, a)):
        for path in i.tree.paths_to_name(j.name, i.clock):
            if check_path_consistency(j.tree, path, i.tree.name) is INCONSISTENT:
                return True
    return False


def random_partner_tree(name, labels, syncs, depth, rng):
    """A tree over ``labels`` and ``syncs``, up to three children per node."""
    node = HistoryTree.singleton(name)
    if depth > 0:
        for _ in range(rng.randrange(4)):
            node.graft(
                random_partner_tree(rng.choice(labels), labels, syncs, depth - 1, rng),
                sync=rng.choice(syncs),
                expires=rng.randrange(8),
            )
    return node


@st.composite
def named_trees(draw, name, depth=3):
    node = HistoryTree.singleton(name)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            child = draw(named_trees(draw(st.sampled_from("abcdef")), depth=depth - 1))
            node.graft(
                child,
                sync=draw(st.integers(1, 4)),
                expires=draw(st.integers(0, 6)),
            )
    return node


class TestFindCollisionReference:
    """``find_collision`` gives the collect-then-check search's verdict."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_protocol_grown_trees(self, n):
        protocol = SublinearTimeSSR(n)
        rng = make_rng(n, "grown-collisions")
        agents = protocol.unique_names_configuration(rng)
        # Two agents share a name, so impostors are caught (or missed).
        agents[-1] = protocol.unique_names_configuration(rng)[0]
        agents[-1].name = agents[-1].tree.name = agents[0].name
        for _ in range(40 * n):
            i, j = rng.sample(range(n - 1), 2)
            protocol.transition(agents[i], agents[j], rng)
        verdicts = set()
        for a in agents:
            for b in agents:
                if a is b or a.name == b.name:
                    continue
                for clock_shift in (0, 5):
                    a.clock += clock_shift
                    expected = reference_find_collision(a, b)
                    assert find_collision(a, b) is expected
                    a.clock -= clock_shift
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_adversarial_random_trees(self):
        # Accusers carry the protocol's adversarial trees (dead edges,
        # repeated child names); each partner's tree is drawn from the
        # labels and syncs of the accuser's tree, so the partner also
        # holds paths back to the accuser and both directions run.
        protocol = SublinearTimeSSR(16)
        rng = make_rng(0, "adversarial-collisions")
        verdicts = []
        for _ in range(200):
            a = Agent("i", protocol._random_tree("i", rng), clock=rng.randrange(4))
            edges = list(a.tree.iter_edges())
            labels = ["i"] + [edge.child.name for edge in edges]
            syncs = [edge.sync for edge in edges] + [0]
            for target in sorted(set(labels) - {"i"}):
                for _ in range(3):
                    tree = random_partner_tree(target, labels, syncs, protocol.params.h, rng)
                    b = Agent(target, tree, clock=rng.randrange(4))
                    for x, y in ((a, b), (b, a)):
                        expected = reference_find_collision(x, y)
                        assert find_collision(x, y) is expected
                        verdicts.append(expected)
        assert True in verdicts and False in verdicts

    @given(data=st.data(), clocks=st.tuples(st.integers(0, 6), st.integers(0, 6)))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_trees(self, data, clocks):
        a_name, b_name = data.draw(st.sampled_from("abcdef")), data.draw(st.sampled_from("abcdef"))
        assume(a_name != b_name)
        a = Agent(a_name, data.draw(named_trees(a_name)), clock=clocks[0])
        b = Agent(b_name, data.draw(named_trees(b_name)), clock=clocks[1])
        assert find_collision(a, b) is reference_find_collision(a, b)

    def test_verifier_root_other_than_its_name_raises(self):
        # b's tree root disagrees with b's name: checking a's path to
        # "x" against it violates Protocol 8's precondition.
        a, b = Agent("a"), Agent("x", HistoryTree.singleton("y"))
        a.tree.graft(HistoryTree.singleton("x"), sync=1, expires=10)
        for search in (find_collision, reference_find_collision):
            with pytest.raises(ValueError):
                search(a, b)
