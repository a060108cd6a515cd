"""Tests for the small-n exhaustive model checker.

The positive direction: the paper's protocols are certified at n = 2..4
(the acceptance criterion for ``repro lint``).  The negative direction:
the seeded mutants are caught with witnesses, and graph rules refuse to
run over a broken pair table.
"""

import copy
import random

import pytest

from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.loose_stabilization import LooselyStabilizingLE
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.statics.modelcheck import (
    ALL_RULES,
    GRAPH_RULES,
    RULE_CLOSURE,
    RULE_DETERMINISM,
    RULE_SILENCE,
    RULE_STABILIZATION,
    ModelCheckError,
    StateSpace,
    _LazySeededRandom,
    model_check,
)
from repro.statics.lint import _TARGETS, all_target_names
from repro.statics.mutants import BrokenRankingSSR, NondeterministicRankingSSR


def tiny_optimal(n: int) -> OptimalSilentSSR:
    params = OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    return OptimalSilentSSR(n, params)


def by_rule(outcomes):
    return {outcome.rule_id: outcome for outcome in outcomes}


class TestStateSpace:
    def test_enumeration_matches_state_count(self):
        space = StateSpace(SilentNStateSSR(3))
        assert len(space.states) == 3
        assert space.pair_table_complete
        assert len(space.pairs) == 9

    def test_configurations_are_multisets(self):
        space = StateSpace(SilentNStateSSR(2))
        configs = space.configurations()
        # multisets of size 2 over 2 states: (0,0), (0,1), (1,1)
        assert configs == [(0, 0), (0, 1), (1, 1)]

    def test_ordered_pairs_need_multiplicity(self):
        space = StateSpace(SilentNStateSSR(2))
        # Two agents in the same state: only that self-pair is schedulable.
        assert space.ordered_pairs((0, 0)) == {(0, 0)}
        assert space.ordered_pairs((0, 1)) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "protocol",
        [SilentNStateSSR(4), NondeterministicRankingSSR(4), LooselyStabilizingLE(3, t_max=2)],
        ids=["ciw", "nondeterministic", "loose"],
    )
    def test_active_pairs_are_the_changing_or_missing_ones(self, protocol):
        # The partner index must select exactly the schedulable pairs a
        # k^2 scan would find changing (or absent from the table), with
        # their pair weights, in ascending pair order.
        space = StateSpace(protocol)
        for config in space.configurations():
            expected = []
            for pair in sorted(space.ordered_pairs(config)):
                outcome = space.pairs.get(pair)
                if outcome is None or outcome.changed:
                    i, j = pair
                    weight = config.count(i) * (config.count(j) - (i == j))
                    expected.append((pair, weight))
            assert list(space.active_pairs(config)) == expected

    def test_non_enumerable_schema_refused(self):
        with pytest.raises(ModelCheckError):
            StateSpace(SublinearTimeSSR(3))

    def test_state_cap_enforced(self):
        with pytest.raises(ModelCheckError):
            StateSpace(SilentNStateSSR(4), max_states=3)


class TestCertification:
    """The acceptance criterion: both paper protocols certify at n=2..4."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_silent_n_state_fully_certified(self, n):
        outcomes = by_rule(model_check(SilentNStateSSR(n)))
        assert set(outcomes) == set(ALL_RULES)
        failed = [o.rule_id for o in outcomes.values() if not o.passed]
        assert not failed, failed
        assert "probability-1 stabilization" in outcomes[RULE_STABILIZATION].detail

    @pytest.mark.parametrize("n", [2, 3])
    def test_optimal_silent_fully_certified(self, n):
        outcomes = by_rule(model_check(tiny_optimal(n)))
        assert set(outcomes) == set(ALL_RULES)
        failed = [o.rule_id for o in outcomes.values() if not o.passed]
        assert not failed, failed

    def test_loose_stabilization_pair_rules(self):
        # Not silent: graph rules are not selected by default.
        outcomes = by_rule(model_check(LooselyStabilizingLE(3, t_max=3)))
        assert RULE_SILENCE not in outcomes
        assert outcomes[RULE_CLOSURE].passed
        assert outcomes[RULE_DETERMINISM].passed


class TestMutantsAreCaught:
    def test_broken_ranking_fails_closure_with_witness(self):
        outcomes = by_rule(model_check(BrokenRankingSSR(3)))
        closure = outcomes[RULE_CLOSURE]
        assert not closure.passed
        assert closure.witnesses, "closure failure must carry a witness pair"
        assert any("outside 0..2" in w for w in closure.witnesses)

    def test_broken_ranking_graph_rules_skipped(self):
        outcomes = by_rule(model_check(BrokenRankingSSR(3)))
        for rule_id in GRAPH_RULES:
            assert not outcomes[rule_id].passed
            assert "pair table incomplete" in outcomes[rule_id].detail

    def test_nondeterministic_ranking_fails_determinism(self):
        outcomes = by_rule(model_check(NondeterministicRankingSSR(3)))
        determinism = outcomes[RULE_DETERMINISM]
        assert not determinism.passed
        assert determinism.witnesses
        assert any("differs on replay" in w for w in determinism.witnesses)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            model_check(SilentNStateSSR(2), rules=["no-such-rule"])


class _EagerSeededSpace(StateSpace):
    """The pair table with every probe's RNG seeded before the transition."""

    def _apply(self, i, j, seed):
        initiator = copy.deepcopy(self.states[i])
        responder = copy.deepcopy(self.states[j])
        return self.protocol.transition(initiator, responder, random.Random(seed))


class TestLazyProbeSeeding:
    """Probe RNGs are seeded on first use; the pair table must not notice."""

    @pytest.mark.parametrize(
        "name", [name for name in all_target_names() if _TARGETS[name].model_check_ns]
    )
    def test_pair_table_equals_eagerly_seeded_one(self, name):
        target = _TARGETS[name]
        for n in target.model_check_ns:
            lazy = StateSpace(target.factory(n))
            eager = _EagerSeededSpace(target.factory(n))
            assert lazy.pairs == eager.pairs
            assert lazy.partners == eager.partners
            assert lazy.closure_witnesses == eager.closure_witnesses
            assert lazy.determinism_witnesses == eager.determinism_witnesses
            assert lazy.null_witnesses == eager.null_witnesses

    def test_lazy_rng_draws_the_seeded_stream(self):
        lazy, eager = _LazySeededRandom(0xB0B), random.Random(0xB0B)
        for rng in (lazy, eager):
            rng.trace = [
                rng.random(),
                rng.getrandbits(70),
                rng.randrange(1000),
                rng.choice("abcdef"),
                rng.gauss(0.0, 1.0),
                rng.gauss(0.0, 1.0),
                rng.sample(range(50), 5),
            ]
        assert lazy.trace == eager.trace
