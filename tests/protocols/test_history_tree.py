"""Tests for the history-tree data structure (Section 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import make_rng
from repro.protocols.sublinear.history_tree import HistoryTree, TreeEdge
from repro.protocols.sublinear.protocol import SublinearTimeSSR


def leaf(name: str) -> HistoryTree:
    return HistoryTree.singleton(name)


def edge(sync: int, child: HistoryTree, expires: int = 100) -> TreeEdge:
    return TreeEdge(sync=sync, expires=expires, child=child)


def chain(*names_and_syncs) -> HistoryTree:
    """chain("a", 1, "b", 2, "c") -> a -1-> b -2-> c."""
    names = names_and_syncs[::2]
    syncs = names_and_syncs[1::2]
    node = leaf(names[-1])
    for name, sync in zip(reversed(names[:-1]), reversed(syncs)):
        parent = leaf(name)
        parent.graft(node, sync=sync, expires=100)
        node = parent
    return node


class TestBasics:
    def test_singleton(self):
        tree = leaf("a")
        assert tree.depth() == 0
        assert tree.size() == 1
        assert tree.edges == []

    def test_depth_and_size(self):
        tree = chain("a", 1, "b", 2, "c")
        tree.graft(leaf("d"), sync=3, expires=100)
        assert tree.depth() == 2
        assert tree.size() == 4

    def test_find_child(self):
        tree = chain("a", 1, "b")
        assert tree.find_child("b").sync == 1
        assert tree.find_child("z") is None

    def test_iter_edges_counts(self):
        tree = chain("a", 1, "b", 2, "c")
        assert len(list(tree.iter_edges())) == 2


class TestCopy:
    def test_truncation_to_depth(self):
        tree = chain("a", 1, "b", 2, "c", 3, "d")
        copy = tree.copy(2)
        assert copy.depth() == 2
        # The truncated node is the copy's shared leaf, which holds no list.
        assert copy.find_child("b").child.find_child("c").child.edges == ()

    def test_depth_zero_copy_is_root_only(self):
        tree = chain("a", 1, "b")
        assert tree.copy(0).size() == 1

    def test_copy_is_deep(self):
        tree = chain("a", 1, "b")
        copy = tree.copy(5)
        copy.find_child("b").sync = 999
        assert tree.find_child("b").sync == 1

    def test_clock_shift_translates_expiries(self):
        tree = chain("a", 1, "b")
        tree.find_child("b").expires = 30
        copy = tree.copy(1, clock_shift=-10)
        assert copy.find_child("b").expires == 20
        # Remaining lifetime is preserved across owners' clocks:
        # source owner at clock 25 -> remaining 5; recipient at 15 -> 5.
        assert tree.find_child("b").remaining(25) == copy.find_child("b").remaining(15)

    def test_exclude_name_prunes_subtrees(self):
        tree = leaf("a")
        tree.graft(chain("b", 2, "x"), sync=1, expires=100)
        tree.graft(leaf("x"), sync=3, expires=100)
        copy = tree.copy(3, exclude_name="x")
        assert copy.find_child("x") is None
        assert copy.find_child("b").child.edges == ()  # b's x-child gone


class TestMutation:
    def test_remove_child(self):
        tree = leaf("a")
        tree.graft(leaf("b"), sync=1, expires=100)
        tree.graft(leaf("c"), sync=2, expires=100)
        tree.remove_child("b")
        assert tree.find_child("b") is None
        assert tree.find_child("c") is not None

    def test_graft_appends(self):
        tree = leaf("a")
        tree.graft(leaf("b"), sync=7, expires=42)
        assert tree.edges[0].sync == 7
        assert tree.edges[0].expires == 42


class TestPathsToName:
    def test_finds_all_paths(self):
        tree = leaf("a")
        tree.graft(chain("b", 5, "x"), sync=1, expires=100)
        tree.graft(chain("c", 6, "x"), sync=2, expires=100)
        paths = list(tree.paths_to_name("x", clock=0))
        assert sorted([e.sync for e in p] for p in paths) == [[1, 5], [2, 6]]

    def test_intermediate_nodes_match_too(self):
        tree = chain("a", 1, "b", 2, "c")
        paths = list(tree.paths_to_name("b", clock=0))
        assert [[e.sync for e in p] for p in paths] == [[1]]

    def test_root_never_matches(self):
        tree = chain("a", 1, "b")
        assert list(tree.paths_to_name("a", clock=0)) == []

    def test_dead_edge_kills_descendant_paths(self):
        tree = leaf("a")
        tree.graft(chain("b", 5, "x"), sync=1, expires=10)
        assert list(tree.paths_to_name("x", clock=5))  # alive at clock 5
        assert not list(tree.paths_to_name("x", clock=10))  # top edge expired

    def test_dead_deep_edge_also_kills(self):
        tree = leaf("a")
        sub = leaf("b")
        sub.graft(leaf("x"), sync=5, expires=3)
        tree.graft(sub, sync=1, expires=100)
        assert not list(tree.paths_to_name("x", clock=3))
        assert list(tree.paths_to_name("b", clock=3))  # shorter path alive


class TestInvariants:
    def test_simply_labelled_true(self):
        tree = leaf("a")
        tree.graft(chain("b", 1, "c"), sync=1, expires=100)
        tree.graft(chain("c", 1, "b"), sync=2, expires=100)  # incomparable dup ok
        assert tree.is_simply_labelled()

    def test_simply_labelled_false_on_path_repeat(self):
        tree = chain("a", 1, "b", 2, "a")
        assert not tree.is_simply_labelled()

    def test_contains_name(self):
        tree = chain("a", 1, "b", 2, "c")
        assert tree.contains_name("c")
        assert not tree.contains_name("a")  # below root only by default
        assert tree.contains_name("a", below_root=False)

    def test_canonical_order_insensitive(self):
        t1 = leaf("a")
        t1.graft(leaf("b"), sync=1, expires=100)
        t1.graft(leaf("c"), sync=2, expires=100)
        t2 = leaf("a")
        t2.graft(leaf("c"), sync=2, expires=100)
        t2.graft(leaf("b"), sync=1, expires=100)
        assert t1.canonical(0) == t2.canonical(0)

    def test_canonical_uses_remaining_not_absolute(self):
        t1 = leaf("a")
        t1.graft(leaf("b"), sync=1, expires=30)
        t2 = leaf("a")
        t2.graft(leaf("b"), sync=1, expires=20)
        assert t1.canonical(clock=20) == t2.canonical(clock=10)
        assert t1.canonical(clock=0) != t2.canonical(clock=0)


class TestRender:
    def test_render_mentions_all_nodes_and_syncs(self):
        tree = chain("a", 7, "b", 2, "c")
        rendered = tree.render()
        for token in ("a", "b", "c", "sync=7", "sync=2"):
            assert token in rendered


@st.composite
def random_trees(draw, depth=3):
    name = draw(st.sampled_from("abcdefgh"))
    node = HistoryTree.singleton(name)
    if depth > 0:
        for _ in range(draw(st.integers(0, 2))):
            child = draw(random_trees(depth=depth - 1))
            node.graft(
                child,
                sync=draw(st.integers(1, 50)),
                expires=draw(st.integers(0, 20)),
            )
    return node


class TestProperties:
    @given(tree=random_trees())
    @settings(max_examples=60, deadline=None)
    def test_copy_preserves_canonical(self, tree):
        assert tree.copy(10).canonical(0) == tree.canonical(0)

    @given(tree=random_trees())
    @settings(max_examples=60, deadline=None)
    def test_size_consistent_with_edge_count(self, tree):
        assert tree.size() == 1 + len(list(tree.iter_edges()))

    @given(tree=random_trees(), clock=st.integers(0, 25))
    @settings(max_examples=60, deadline=None)
    def test_paths_all_live_and_end_at_target(self, tree, clock):
        for target in "abcdefgh":
            for path in tree.paths_to_name(target, clock):
                assert path[-1].child.name == target
                assert all(e.expires > clock for e in path)


def reference_paths_to_name(tree, target, clock):
    """The explicit-stack search ``paths_to_name`` replaced, kept verbatim
    as the equivalence reference (same paths, same pre-order)."""
    path = []
    frames = [(tree, 0)]
    while frames:
        node, index = frames[-1]
        if index >= len(node.edges):
            frames.pop()
            if path:
                path.pop()
            continue
        frames[-1] = (node, index + 1)
        edge = node.edges[index]
        if edge.expires <= clock:
            continue
        path.append(edge)
        if edge.child.name == target:
            yield tuple(path)
        frames.append((edge.child, 0))


def edge_ids(paths):
    return [tuple(id(edge) for edge in path) for path in paths]


def tree_names(tree):
    return {tree.name} | {edge.child.name for edge in tree.iter_edges()}


def grown_population(n):
    """Collecting agents after 40 n protocol interactions from unique names."""
    protocol = SublinearTimeSSR(n)
    rng = make_rng(n, "grown-trees")
    agents = protocol.unique_names_configuration(rng)
    for _ in range(40 * n):
        i, j = rng.sample(range(n), 2)
        protocol.transition(agents[i], agents[j], rng)
    return agents


def adversarial_trees(count):
    """``SublinearTimeSSR._random_tree`` trees: dead edges, repeated names."""
    protocol = SublinearTimeSSR(8)
    rng = make_rng(0, "adversarial-trees")
    own_names = ["a", "b", "c"]
    return [protocol._random_tree(own_names[k % 3], rng) for k in range(count)]


class TestPathsToNameReference:
    """``paths_to_name`` yields the reference search's paths, in order."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_protocol_grown_trees(self, n):
        agents = grown_population(n)
        names = set().union(*(tree_names(agent.tree) for agent in agents))
        checked = 0
        for agent in agents:
            for clock in (agent.clock, agent.clock + 5):
                for target in sorted(names):
                    expected = list(reference_paths_to_name(agent.tree, target, clock))
                    got = agent.tree.paths_to_name(target, clock)
                    assert edge_ids(got) == edge_ids(expected)
                    checked += len(expected)
        assert checked > 0

    def test_adversarial_random_trees(self):
        checked = 0
        for tree in adversarial_trees(200):
            for clock in (0, 3, 10):
                for target in sorted(tree_names(tree)):
                    expected = list(reference_paths_to_name(tree, target, clock))
                    got = tree.paths_to_name(target, clock)
                    assert edge_ids(got) == edge_ids(expected)
                    checked += len(expected)
        assert checked > 0

    @given(tree=random_trees(), clock=st.integers(0, 25))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_trees(self, tree, clock):
        for target in "abcdefgh":
            expected = list(reference_paths_to_name(tree, target, clock))
            assert edge_ids(tree.paths_to_name(target, clock)) == edge_ids(expected)


def reference_copy(tree, depth, clock_shift=0, exclude_name=None, root=True):
    """A node-by-node deep copy: what ``copy`` returns, up to sharing.

    Below the root, a node left without edges is a leaf of the shared
    kind (empty tuple).
    """
    edges = [
        TreeEdge(
            e.sync,
            e.expires + clock_shift,
            reference_copy(e.child, depth - 1, clock_shift, exclude_name, root=False),
        )
        for e in (tree.edges if depth > 0 else ())
        if e.child.name != exclude_name
    ]
    return HistoryTree(tree.name, edges if edges or root else ())


def nodes(tree):
    return [tree] + [edge.child for edge in tree.iter_edges()]


def assert_owns_its_inner_nodes(copy, source):
    """``copy`` is not ``source``, and shares with it only shared leaves.

    Every node of the copy is either its own (the root, and each node
    with edges; a list) or a shared leaf (below the root, no edges).
    """
    assert copy is not source
    source_ids = {id(node) for node in nodes(source)}
    assert id(copy) not in source_ids
    assert not copy.shareable()
    for node in nodes(copy)[1:]:
        assert node.shareable() == (not node.edges)
        if id(node) in source_ids:
            assert node.shareable()


class TestSharedLeaves:
    """Copies share leaves only, and a shared leaf is never mutated."""

    def test_interactions_change_only_the_participants_trees(self):
        protocol = SublinearTimeSSR(8, h=3)
        rng = make_rng(8, "shared-leaves")
        agents = protocol.unique_names_configuration(rng)
        for _ in range(40 * 8):
            before = [agent.tree.canonical(agent.clock) for agent in agents]
            i, j = rng.sample(range(8), 2)
            protocol.transition(agents[i], agents[j], rng)
            for k, agent in enumerate(agents):
                if k not in (i, j):
                    assert agent.tree.canonical(agent.clock) == before[k]
        assert max(agent.tree.depth() for agent in agents) == 3

    def test_copies_of_grown_trees(self):
        agents = grown_population(8)
        names = sorted(set().union(*(tree_names(agent.tree) for agent in agents)))
        for agent in agents:
            for depth in range(5):
                for exclude in [None] + names[:3]:
                    copy = agent.tree.copy(depth, clock_shift=-3, exclude_name=exclude)
                    assert_owns_its_inner_nodes(copy, agent.tree)
                    expected = reference_copy(agent.tree, depth, -3, exclude)
                    assert copy.canonical(0) == expected.canonical(0)

    @given(
        tree=random_trees(),
        depth=st.integers(0, 4),
        shift=st.integers(-5, 5),
        exclude=st.sampled_from([None, *"abcdefgh"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_copies_of_hypothesis_trees(self, tree, depth, shift, exclude):
        source = tree.canonical(0)
        copy = tree.copy(depth, clock_shift=shift, exclude_name=exclude)
        assert_owns_its_inner_nodes(copy, tree)
        assert copy == reference_copy(tree, depth, shift, exclude)
        # Mutating the copy's root, or pruning below it, leaves the source alone.
        copy.graft(leaf("z"), sync=1, expires=5)
        for name in "abcdefgh":
            copy.remove_child(name)
            for below in copy.edges:
                if below.child.edges:
                    below.child.remove_child(name)
        assert tree.canonical(0) == source

    def test_leaf_copy_is_a_fresh_node(self):
        tree = leaf("a")
        assert tree.copy(3) is not tree
        assert tree.copy(3) == tree
        assert not tree.copy(3).shareable()

    def test_value_equality_and_repr(self):
        assert chain("a", 1, "b") == chain("a", 1, "b")
        assert chain("a", 1, "b") != chain("a", 2, "b")
        assert edge(1, leaf("b")) == TreeEdge(sync=1, expires=100, child=leaf("b"))
        assert repr(edge(1, leaf("b"), expires=7)) == (
            "TreeEdge(sync=1, expires=7, child=HistoryTree(name='b', edges=[]))"
        )
        with pytest.raises(TypeError):
            hash(leaf("a"))

    def test_nothing_grafts_onto_a_shared_leaf(self):
        shared = chain("a", 1, "b").copy(1).find_child("b").child
        assert shared.shareable()
        with pytest.raises(AssertionError, match="never mutated"):
            shared.graft(leaf("c"), sync=2, expires=5)
        assert shared.edges == ()
