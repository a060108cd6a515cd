"""Tests for the transition sanitizer.

Clean protocols sweep clean; the seeded mutants trip exactly the rules
their bugs were planted for (aliasing, hidden nondeterminism, schema
escape), with witness configurations attached.
"""

import random

from repro.core.adversary import adversarial_battery
from repro.core.rng import make_rng
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters
from repro.protocols.sublinear.history_tree import HistoryTree
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.statics.findings import Severity
from repro.statics.mutants import BrokenRankingSSR, NondeterministicRankingSSR
from repro.statics.sanitize import (
    RULE_ALIASING,
    RULE_NONDETERMINISM,
    RULE_SCHEMA_ESCAPE,
    mutable_ids,
    sanitize_configuration,
    sanitize_protocol,
)
from repro.statics.schema import schema_for


def tiny_optimal(n: int) -> OptimalSilentSSR:
    params = OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    return OptimalSilentSSR(n, params)


def grown_sublinear(protocol, n: int):
    """Agents after 2 n interactions, while trees still grow.

    Shallow trees are when agents share leaves: a depth-(H-1) snapshot
    reuses the source's shared leaves above its cut, and once every tree
    is full depth its shared leaves all sit below the cut.
    """
    rng = make_rng(n, "sanitize-grown")
    agents = protocol.unique_names_configuration(rng)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        protocol.transition(agents[i], agents[j], rng)
    return agents


def tree_nodes(tree: HistoryTree):
    return [tree] + [edge.child for edge in tree.iter_edges()]


class GraftsTheSourceTree(SublinearTimeSSR):
    """Mutant: the initiator also grafts the responder's own tree, uncopied."""

    def transition(self, a, b, rng):
        a, b = super().transition(a, b, rng)
        a.tree.graft(b.tree, sync=1, expires=a.clock + 1)
        return a, b


class Slotted:
    __slots__ = ("scratch",)

    def __init__(self, scratch):
        self.scratch = scratch


class TestMutableIds:
    def test_primitives_and_enums_are_skipped(self):
        from repro.protocols.optimal_silent import Role

        assert mutable_ids(3) == {}
        assert mutable_ids("name") == {}
        assert mutable_ids(Role.SETTLED) == {}

    def test_lists_and_nested_structures_are_recorded(self):
        inner = [1, 2]
        outer = {"k": inner}
        ids = mutable_ids(outer)
        assert id(outer) in ids and id(inner) in ids

    def test_tuples_traverse_without_being_recorded(self):
        inner = [1]
        wrapper = (inner,)
        ids = mutable_ids(wrapper)
        assert id(inner) in ids
        assert id(wrapper) not in ids

    def test_dataclass_fields_visited(self):
        from repro.statics.mutants import BrokenAgent

        agent = BrokenAgent(rank=0, scratch=[1])
        ids = mutable_ids(agent)
        assert id(agent.scratch) in ids

    def test_slots_attributes_visited(self):
        agent = Slotted([1])
        ids = mutable_ids(agent)
        assert id(agent) in ids and id(agent.scratch) in ids
        assert ids[id(agent.scratch)] == "state.scratch"

    def test_shared_tree_leaves_traverse_without_being_recorded(self):
        tree = HistoryTree("a")
        tree.graft(HistoryTree("b"), sync=1, expires=5)
        copy = tree.copy(1)
        shared = copy.edges[0].child
        assert shared.shareable()
        ids = mutable_ids(copy)
        assert id(shared) not in ids
        assert id(copy) in ids and id(copy.edges) in ids


class TestCleanProtocols:
    def test_silent_n_state_is_clean(self):
        protocol = SilentNStateSSR(4)
        findings = sanitize_protocol(protocol, rng=random.Random(0))
        assert findings == []

    def test_optimal_silent_battery_is_clean(self):
        protocol = tiny_optimal(4)
        battery = adversarial_battery(protocol, random.Random(0))
        findings = sanitize_protocol(
            protocol, configurations=list(battery.items())
        )
        assert findings == []

    def test_sublinear_is_clean(self):
        protocol = SublinearTimeSSR(4)
        findings = sanitize_protocol(protocol, rng=random.Random(0))
        assert findings == []

    def test_sublinear_grown_trees_share_only_leaves(self):
        protocol = SublinearTimeSSR(5, h=3)
        agents = grown_sublinear(protocol, 5)
        seen = {}
        shared = []
        for agent in agents:
            for node in tree_nodes(agent.tree):
                if seen.setdefault(id(node), agent) is not agent:
                    shared.append(node)
        assert shared, "no leaf is shared: the sweep below would prove nothing"
        assert all(node.shareable() and not node.edges for node in shared)
        assert sanitize_configuration(protocol, agents, label="grown") == []


class TestMutantsAreFlagged:
    def test_broken_ranking_aliasing_and_escape(self):
        from repro.statics.mutants import BrokenAgent

        protocol = BrokenRankingSSR(3)
        # A top-rank collision forces the missing-mod escape; a generous
        # findings cap keeps the (ubiquitous) aliasing findings from
        # crowding it out.
        forced = [BrokenAgent(rank=2), BrokenAgent(rank=2), BrokenAgent(rank=0)]
        findings = sanitize_protocol(
            protocol,
            configurations=[("top-rank collision", forced)],
            max_findings=64,
        )
        rules = {finding.rule_id for finding in findings}
        assert RULE_ALIASING in rules
        assert RULE_SCHEMA_ESCAPE in rules
        aliasing = [f for f in findings if f.rule_id == RULE_ALIASING]
        assert all(f.severity is Severity.ERROR for f in aliasing)
        # The witness names the shared structure by attribute path.
        assert any("scratch" in f.message for f in aliasing)
        assert any(f.witness for f in aliasing), "aliasing needs a witness"

    def test_shared_tree_node_with_edges_flagged(self):
        protocol = GraftsTheSourceTree(5, h=3)
        agents = grown_sublinear(protocol, 5)
        findings = sanitize_configuration(protocol, agents, label="grown")
        aliasing = [f for f in findings if f.rule_id == RULE_ALIASING]
        assert aliasing
        assert any("responder-output.tree" in f.message for f in aliasing)

    def test_nondeterministic_ranking_flagged(self):
        protocol = NondeterministicRankingSSR(3)
        findings = sanitize_protocol(protocol, rng=random.Random(0))
        rules = {finding.rule_id for finding in findings}
        assert RULE_NONDETERMINISM in rules
        assert any(
            "does not replay" in f.message
            for f in findings
            if f.rule_id == RULE_NONDETERMINISM
        )

    def test_max_findings_caps_output(self):
        protocol = BrokenRankingSSR(4)
        findings = sanitize_protocol(
            protocol, rng=random.Random(0), max_findings=2
        )
        assert len(findings) <= 2

    def test_schema_escape_names_the_domain(self):
        from repro.statics.mutants import BrokenAgent

        protocol = BrokenRankingSSR(3)
        schema = schema_for(protocol)
        forced = [BrokenAgent(rank=2), BrokenAgent(rank=2), BrokenAgent(rank=1)]
        findings = sanitize_protocol(
            protocol,
            schema,
            configurations=[("top-rank collision", forced)],
            max_findings=64,
        )
        escapes = [f for f in findings if f.rule_id == RULE_SCHEMA_ESCAPE]
        assert any("outside 0..2" in f.message for f in escapes)
