"""Equivalence and unit tests for the count-based engine.

The load-bearing guarantees:

* exact per-seed agreement with :class:`CiwJumpSimulator` (same RNG
  consumption, same Fenwick layout) -- which is what justified swapping
  Table 1's CIW row onto the generic count engine;
* distributional agreement with the reference :class:`Simulation` on
  SilentNStateSSR and OptimalSilentSSR (seeded KS-style checks);
* transition memoization is sound (spy-RNG detection) and actually
  engages (call-count bound).
"""

import hashlib
import random
import re
import statistics
from copy import deepcopy
from dataclasses import replace

import pytest

import repro.core.countsim as countsim_module
import repro.statics.schema as schema_module
from repro.core.countsim import (
    CountSimulation,
    ProbeTable,
    count_engine_eligible,
    select_engine,
)
from repro.core.configuration import is_silent
from repro.core.errors import ConfigurationError, NotSilentError
from repro.core.fastpath import (
    CiwJumpSimulator,
    uniform_random_ciw_counts,
    worst_case_ciw_counts,
)
from repro.core.fenwick import FenwickTree, GrowableFenwick
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.propagate_reset import ResetParameters, ResetTimingProtocol
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR
from repro.statics.oracle import _initial_start, _tiny_optimal
from repro.statics.schema import (
    FieldSpec,
    IntRange,
    NonNegativeInt,
    register_schema,
    scalar_schema,
    schema_for,
)
from tests.core.test_fastpath_optimal_silent import _LoggingRandom


def _atomic_engine():
    """The jump-mode engine the rejected-``corrupt`` tests start from."""
    return CountSimulation(
        SilentNStateSSR(6), [0, 0, 1, 2, 3, 4], rng=make_rng(8, "atomic"), mode="jump"
    )


def _assert_twins(sim, twin):
    """``sim`` and ``twin`` agree now and after 1,000 more interactions."""

    def observed(engine):
        return (
            engine.occupancy(),
            engine.mode,
            engine.interactions,
            engine.events,
            engine.changes,
            engine.correct,
            engine.streak_start,
            engine.regressions,
        )

    assert observed(sim) == observed(twin)
    sim.run(1000)
    twin.run(1000)
    assert observed(sim) == observed(twin)
    assert sim.rng.getstate() == twin.rng.getstate()


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    import bisect

    a, b = sorted(a), sorted(b)
    gap = 0.0
    for x in sorted(set(a) | set(b)):
        gap = max(
            gap,
            abs(
                bisect.bisect_right(a, x) / len(a)
                - bisect.bisect_right(b, x) / len(b)
            ),
        )
    return gap


# ---------------------------------------------------------------------------
# A tiny randomized protocol for spy-RNG / memoization behaviour
# ---------------------------------------------------------------------------


class CoinFlipToy(RankingProtocol[int]):
    """States {0, 1}: a (1,1) meeting flips the responder with prob 1/2.

    Not silent, deliberately randomized on exactly one ordered pair, so
    it exercises the engine's per-pair randomness detection.
    """

    silent = False

    def __init__(self, n: int):
        super().__init__(n)

    def transition(self, a: int, b: int, rng: random.Random):
        if a == 1 and b == 1 and rng.random() < 0.5:
            return 1, 0
        if a == 0 and b == 0:
            return 0, 1
        return a, b

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def random_state(self, rng: random.Random) -> int:
        return rng.randrange(2)

    def summarize(self, state: int) -> int:
        return state

    def rank_of(self, state: int):
        return None

    def state_count(self) -> int:
        return 2


@register_schema(CoinFlipToy)
def _coinflip_schema(protocol: CoinFlipToy):
    return scalar_schema(
        "CoinFlipToy", FieldSpec("value", IntRange(0, 1)), build=lambda value: value
    )


class GaussToy(RankingProtocol[int]):
    """States {0, 1, 2}: a same-state meeting advances the responder when
    a standard normal draw is positive; every other pair is null.

    ``Random.gauss`` caches its second draw, so this protocol catches a
    spy RNG that is shared across probes without clearing that cache.
    """

    silent = False

    def __init__(self, n: int):
        super().__init__(n)

    def transition(self, a: int, b: int, rng: random.Random):
        if a == b and rng.gauss(0.0, 1.0) > 0:
            return a, (b + 1) % 3
        return a, b

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def random_state(self, rng: random.Random) -> int:
        return rng.randrange(3)

    def summarize(self, state: int) -> int:
        return state

    def rank_of(self, state: int):
        return None

    def state_count(self) -> int:
        return 3


@register_schema(GaussToy)
def _gauss_schema(protocol: GaussToy):
    return scalar_schema(
        "GaussToy", FieldSpec("value", IntRange(0, 2)), build=lambda value: value
    )


class EpidemicToy(RankingProtocol[int]):
    """States {0, 1}: an initiator in state 0 turns its responder to 0.

    Deterministic, and from a start whose first slot holds state 0 the
    pairs (0, 0) and (0, 1) both map to (slot 0, slot 0) -- a memo
    value that packs to the int 0.
    """

    silent = False

    def __init__(self, n: int):
        super().__init__(n)

    def transition(self, a: int, b: int, rng: random.Random):
        return a, min(a, b)

    def initial_state(self, rng: random.Random) -> int:
        return 1

    def random_state(self, rng: random.Random) -> int:
        return rng.randrange(2)

    def summarize(self, state: int) -> int:
        return state

    def rank_of(self, state: int):
        return None

    def state_count(self) -> int:
        return 2


@register_schema(EpidemicToy)
def _epidemic_schema(protocol: EpidemicToy):
    return scalar_schema(
        "EpidemicToy", FieldSpec("value", IntRange(0, 1)), build=lambda value: value
    )


class UnboundedToy(EpidemicToy):
    """EpidemicToy over unbounded values: a key with no dense index."""


@register_schema(UnboundedToy)
def _unbounded_schema(protocol: UnboundedToy):
    return scalar_schema("UnboundedToy", FieldSpec("value", NonNegativeInt()), build=int)


class CountingCiw(SilentNStateSSR):
    """SilentNStateSSR that counts transition-function invocations."""

    def __init__(self, n: int):
        super().__init__(n)
        self.transition_calls = 0

    def transition(self, a, b, rng):
        self.transition_calls += 1
        return super().transition(a, b, rng)


def VectorSimulation(protocol, states=None, **kwargs):
    """The batched count engine, under the name its golden rows carry."""
    return CountSimulation(protocol, states, batched=True, **kwargs)


def _engine_classes():
    vector = pytest.param(
        VectorSimulation,
        id="VectorSimulation",
        marks=pytest.mark.skipif(
            countsim_module._np is None, reason="batched sampling requires numpy"
        ),
    )
    return [pytest.param(CountSimulation, id="CountSimulation"), vector]


# ---------------------------------------------------------------------------
# GrowableFenwick
# ---------------------------------------------------------------------------


class TestGrowableFenwick:
    def test_append_set_total_across_growth(self):
        tree = GrowableFenwick()
        weights = [(i * 7) % 13 for i in range(100)]  # forces several growths
        for w in weights:
            tree.append(w)
        assert len(tree) == 100
        assert tree.total() == sum(weights)
        for i, w in enumerate(weights):
            assert tree.weight(i) == w
        tree.set(50, 1000)
        tree.add(51, 5)
        weights[50] = 1000
        weights[51] += 5
        assert tree.total() == sum(weights)

    def test_sample_matches_fixed_size_fenwick(self):
        """Equal weights => identical RNG consumption and selections."""
        weights = [0, 3, 0, 7, 2, 0, 11, 1]
        fixed = FenwickTree(len(weights))
        growable = GrowableFenwick()
        for i, w in enumerate(weights):
            fixed.set(i, w)
            growable.append(w)
        rng_a, rng_b = make_rng(1, "fen"), make_rng(1, "fen")
        for _ in range(500):
            assert fixed.sample(rng_a) == growable.sample(rng_b)

    def test_sample_proportionality(self):
        tree = GrowableFenwick()
        for w in [1, 0, 3]:
            tree.append(w)
        rng = make_rng(2, "fen")
        hits = [0, 0, 0]
        for _ in range(4000):
            hits[tree.sample(rng)] += 1
        assert hits[1] == 0
        assert hits[2] / hits[0] == pytest.approx(3.0, rel=0.2)

    def test_errors(self):
        tree = GrowableFenwick()
        tree.append(0)
        with pytest.raises(ValueError):
            tree.set(0, -1)
        with pytest.raises(ValueError):
            tree.sample(make_rng(3, "fen"))
        with pytest.raises(ValueError):
            tree.rebuild([1, -1])

    def test_rebuild_matches_incremental_sets(self):
        """Same nodes, total and draws as per-index sets, at every length
        and whether the tree is empty, shorter or already grown."""

        def incremental(weights):
            tree = GrowableFenwick()
            for _ in weights:
                tree.append(0)
            for index, weight in enumerate(weights):
                tree.set(index, weight)
            return tree

        for length in range(71):
            weights = [(i * 5 + 3) % 7 for i in range(length)]
            reference = incremental(weights)
            fresh = GrowableFenwick()
            fresh.rebuild(weights)
            shorter = incremental([1] * (length // 2))
            shorter.rebuild(weights)
            grown = incremental([2] * length)  # same capacity, other weights
            grown.rebuild(weights)
            for tree in (fresh, shorter, grown):
                assert tree._capacity == reference._capacity
                assert tree._tree == reference._tree
                assert tree.total() == reference.total() == sum(weights)
                assert len(tree) == length
                if reference.total():
                    rng_a, rng_b = make_rng(length, "rebuild"), make_rng(length, "rebuild")
                    assert [tree.sample(rng_a) for _ in range(50)] == [
                        reference.sample(rng_b) for _ in range(50)
                    ]


class _RandomOnly(random.Random):
    """Overrides only ``random()``, so ``randrange`` never calls getrandbits."""

    def random(self):
        return super().random()


def _inline_rng(kind, seed):
    """A plain RNG, or a spy over a logging one, seeded with ``seed``."""
    if kind == "random":
        return random.Random(seed)
    return countsim_module._SpyRandom(_LoggingRandom(seed))


def _draw_cases():
    """Weight lists with zeros, weight-1 slots and an occupied last slot."""
    rng = make_rng(5, "draw-cases")
    cases = [[1, 1], [0, 1, 0, 2], [3, 0, 0, 1], [2, 5, 1, 0, 0, 0, 0, 9]]
    for length in (1, 7, 16, 17, 40):
        cases.append([rng.randrange(6) for _ in range(length - 1)] + [1 + rng.randrange(9)])
    return [weights for weights in cases if sum(weights) >= 2]


class TestInlineDraws:
    """The count engine's inline draws take exactly the bits ``randrange``
    takes and select the same slots, so no seed's trajectory moves."""

    @staticmethod
    def _tree(weights):
        tree = GrowableFenwick()
        for weight in weights:
            tree.append(weight)
        return tree

    @staticmethod
    def _assert_same_stream(kind, ours, reference):
        inner = ours if kind == "random" else ours._inner
        assert inner.getstate() == reference.getstate()
        if kind == "spy":
            assert inner.log == reference.log

    @pytest.mark.parametrize("kind", ["random", "spy"])
    def test_draw_is_sample_draw_for_draw(self, kind):
        for case, weights in enumerate(_draw_cases()):
            tree = self._tree(weights)
            ours, reference = _inline_rng(kind, case), _LoggingRandom(case)
            for _ in range(300):
                assert tree.draw(ours.getrandbits) == tree.sample(reference)
            self._assert_same_stream(kind, ours, reference)

    @pytest.mark.parametrize("kind", ["random", "spy"])
    def test_draw_excluding_is_the_add_sample_add_draw(self, kind):
        for case, weights in enumerate(_draw_cases()):
            tree = self._tree(weights)
            nodes = list(tree._tree)
            ours, reference = _inline_rng(kind, case), _LoggingRandom(case)
            occupied = [index for index, weight in enumerate(weights) if weight]
            # Every occupied slot, weight-1 ones and the last slot included.
            assert len(weights) - 1 in occupied
            for _ in range(20):
                for index in occupied:
                    drawn = tree.draw_excluding(ours.getrandbits, index)
                    tree.add(index, -1)
                    expected = tree.sample(reference)
                    tree.add(index, +1)
                    assert drawn == expected
            assert tree._tree == nodes  # the inline draw writes nothing
            self._assert_same_stream(kind, ours, reference)

    def test_draw_errors(self):
        tree = self._tree([0, 1])
        with pytest.raises(ValueError):
            tree.draw_excluding(random.Random(0).getrandbits, 1)
        tree.set(1, 0)
        with pytest.raises(ValueError):
            tree.draw(random.Random(0).getrandbits)

    def test_engine_rng_must_draw_randrange_with_getrandbits(self):
        with pytest.raises(ConfigurationError, match="getrandbits"):
            CountSimulation(SilentNStateSSR(4), [0, 1, 2, 3], rng=_RandomOnly(1))
        # Loggers and spies that override getrandbits keep randrange's stream.
        CountSimulation(SilentNStateSSR(4), [0, 1, 2, 3], rng=_LoggingRandom(1))
        CountSimulation(
            SilentNStateSSR(4),
            [0, 1, 2, 3],
            rng=countsim_module._SpyRandom(random.Random(1)),
        )


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------


class TestEligibility:
    def test_lossless_schemas_are_eligible(self):
        assert count_engine_eligible(SilentNStateSSR(8))
        assert count_engine_eligible(OptimalSilentSSR(8))

    def test_out_of_key_fields_are_ineligible(self):
        assert not count_engine_eligible(SublinearTimeSSR(6, h=1))
        assert not count_engine_eligible(SyncDictionarySSR(6))

    def test_constructor_rejects_ineligible_protocol(self):
        protocol = SublinearTimeSSR(6, h=1)
        rng = make_rng(4, "elig")
        with pytest.raises(ValueError):
            CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)

    def test_jump_mode_requires_silence(self):
        protocol = CoinFlipToy(6)
        rng = make_rng(5, "elig")
        with pytest.raises(NotSilentError):
            CountSimulation(
                protocol, protocol.random_configuration(rng), rng=rng, mode="jump"
            )

    def test_invalid_mode_rejected(self):
        protocol = SilentNStateSSR(4)
        with pytest.raises(ValueError):
            CountSimulation(
                protocol, [0, 1, 2, 3], rng=make_rng(6, "elig"), mode="warp"
            )

    def test_undeclared_state_fields_are_ineligible(self):
        """``ResetTimingProtocol``'s agents carry ``generation``, which no
        role of its schema declares: equal keys could hide different
        states, so neither the policy nor the constructor takes it."""
        protocol = ResetTimingProtocol(6, ResetParameters(r_max=3, d_max=4))
        assert not count_engine_eligible(protocol)
        with pytest.raises(ValueError, match=r"declares no field \['generation'\]"):
            CountSimulation(protocol, rng=make_rng(7, "elig"), mode="interaction")

    def test_non_enumerable_key_fields_are_ineligible(self):
        """A key field without an enumerable domain has no dense index."""
        protocol = UnboundedToy(4)
        assert not count_engine_eligible(protocol)
        with pytest.raises(ValueError, match="not enumerable"):
            CountSimulation(protocol, [0, 1, 2, 3], rng=make_rng(8, "elig"))

    def test_schema_is_built_once_per_protocol_instance(self, monkeypatch):
        """Engine selection and two constructions share one schema build."""
        builder = schema_module._SCHEMA_BUILDERS[SilentNStateSSR]
        builds = []

        def counting_builder(protocol):
            builds.append(protocol)
            return builder(protocol)

        monkeypatch.setitem(
            schema_module._SCHEMA_BUILDERS, SilentNStateSSR, counting_builder
        )
        protocol = SilentNStateSSR(6)
        for batched in (select_engine(protocol, "count"), select_engine(protocol, "vector")):
            CountSimulation(protocol, rng=make_rng(int(batched), "once"), batched=batched)
        assert builds == [protocol]


# ---------------------------------------------------------------------------
# Building from counts
# ---------------------------------------------------------------------------


def _first_seen_counts(schema, states):
    """``states`` as ordered ``(state, count)`` pairs, in first-seen order."""
    pairs = {}
    for state in states:
        key = schema.key(state)
        if key in pairs:
            pairs[key][1] += 1
        else:
            pairs[key] = [state, 1]
    return [tuple(pair) for pair in pairs.values()]


class TestFromCounts:
    @staticmethod
    def _observed(sim):
        return (
            [sim._schema.key(rep) for rep in sim._reps],  # slot order
            sim.occupancy(),
            sim.interactions,
            sim.events,
            sim.changes,
            sim.mode,
            sim.rng.getstate(),
        )

    @pytest.mark.parametrize("engine", _engine_classes())
    @pytest.mark.parametrize("start", ["ciw-witness-64", "optimal-silent-random-8"])
    def test_counts_and_list_build_the_same_engine(self, start, engine):
        """Same slots in the same order, and the same run after them."""
        if start == "ciw-witness-64":
            protocol = SilentNStateSSR(64)
            counts = worst_case_ciw_counts(64)
            states = protocol.counts_to_configuration(counts)
            pairs = {rank: count for rank, count in enumerate(counts) if count}
            mode = "jump"
        else:
            protocol = OptimalSilentSSR(8)
            states = protocol.random_configuration(make_rng(2, "from-counts"))
            pairs = _first_seen_counts(schema_for(protocol), states)
            mode = "auto"
        batched = engine is VectorSimulation
        runs = []
        for sim in (
            CountSimulation(
                protocol, deepcopy(states), rng=make_rng(3, "from-counts"), mode=mode,
                batched=batched,
            ),
            CountSimulation.from_counts(
                protocol, deepcopy(pairs), rng=make_rng(3, "from-counts"), mode=mode,
                batched=batched,
            ),
        ):
            before = self._observed(sim)
            assert sim.run_until_silent(max_interactions=10**9)
            runs.append((before, self._observed(sim)))
        assert runs[0] == runs[1]

    def test_a_generator_is_read_once(self):
        protocol = SilentNStateSSR(8)
        pairs = ((rank, count) for rank, count in enumerate(worst_case_ciw_counts(8)) if count)
        sim = CountSimulation.from_counts(protocol, pairs, rng=make_rng(4, "from-counts"))
        assert sorted(sim.occupancy().values()) == [1] * 6 + [2]

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({0: 2, 1: 0, 2: 2}, "state 1 has count 0"),
            ({0: 5, 1: -1}, "state 1 has count -1"),
            ({0: 3, 1: True}, "state 1 has count True"),
            ({0: 3, 1: 1.0}, "state 1 has count 1.0"),
            ({0: 2, 1: 1}, "counts sum to 3, protocol expects 4"),
            ({0: 2, 1: 3}, "counts sum to 5, protocol expects 4"),
        ],
        ids=["zero", "negative", "bool", "float", "short", "long"],
    )
    def test_counts_must_be_positive_ints_summing_to_n(self, counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CountSimulation.from_counts(
                SilentNStateSSR(4), counts, rng=make_rng(5, "from-counts")
            )

    def test_out_of_schema_state_is_rejected(self):
        with pytest.raises(ConfigurationError, match="state 7 is not"):
            CountSimulation.from_counts(
                SilentNStateSSR(4), {0: 2, 7: 2}, rng=make_rng(6, "from-counts")
            )


# ---------------------------------------------------------------------------
# Out-of-schema transition outputs and classes
# ---------------------------------------------------------------------------


class UnmoddedCiw(SilentNStateSSR):
    """Silent-n-state-SSR whose bump drops the ``mod n``: a collision at
    the top rank sends the responder to rank ``n``, outside the schema."""

    def transition(self, a, b, rng):
        return (a, b + 1) if a == b else (a, b)


class ShiftedClassCiw(SilentNStateSSR):
    """Silent-n-state-SSR whose (sound) classes run past ``n``."""

    def silent_class(self, state):
        return state + self.n


class TestSchemaEscape:
    @pytest.mark.parametrize("mode", ["interaction", "jump", "active"])
    def test_escaping_output_raises_naming_the_state(self, mode):
        """The escaped rank has no schema index: the engine raises a
        typed error naming it instead of opening a slot for it (or
        aliasing another)."""
        sim = CountSimulation(
            UnmoddedCiw(4), [3, 3, 1, 2], rng=make_rng(9, "escape"), mode=mode
        )
        with pytest.raises(ConfigurationError, match=r"state 4 is not .*outside 0\.\.3"):
            sim.run_until_silent(max_interactions=10**6)
        assert [sim.slot_state(slot) for slot in range(len(sim._reps))] == [3, 1, 2]

    @pytest.mark.parametrize("mode", ["jump", "active"])
    def test_class_outside_the_range_raises(self, mode):
        """``silent_class`` indexes an array of ``n + 1`` class members,
        so a class past ``n`` raises instead of reading out of bounds."""
        contract = r"returned 5; the contract is None or an int in 0\.\.4"
        with pytest.raises(ConfigurationError, match=contract):
            sim = CountSimulation(
                ShiftedClassCiw(4), [0, 0, 1, 2], rng=make_rng(10, "class"), mode=mode
            )
            sim.run_until_silent(max_interactions=10**6)


# ---------------------------------------------------------------------------
# Exact agreement with CiwJumpSimulator
# ---------------------------------------------------------------------------


class TestExactCiwAgreement:
    def drive_pair(self, n, counts, seed_labels):
        protocol = SilentNStateSSR(n)
        sim = CountSimulation(
            protocol,
            protocol.counts_to_configuration(counts),
            rng=make_rng(*seed_labels),
            mode="jump",
        )
        ciw = CiwJumpSimulator(list(counts), make_rng(*seed_labels))
        return sim, ciw

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_by_event_trajectory(self, seed):
        n = 48
        sim, ciw = self.drive_pair(n, worst_case_ciw_counts(n), (seed, "exact"))
        while not ciw.converged:
            ciw.step_event()
            sim.run(ciw.interactions - sim.interactions)
            assert sim.interactions == ciw.interactions
            occupancy = sim.occupancy()
            for rank in range(n):
                assert occupancy.get((0, rank), 0) == ciw.counts[rank]
        assert sim.silent
        assert sim.changes == ciw.events

    def test_random_counts_agree_in_distribution(self):
        """From random starts slot order differs from rank order, so
        per-seed trajectories legitimately diverge (the Fenwick layouts
        map sampling targets differently); the interaction-count *laws*
        must still coincide."""
        n, trials = 16, 120
        ciw_totals, count_totals = [], []
        for trial in range(trials):
            counts = uniform_random_ciw_counts(n, make_rng(trial, "rand-counts"))
            sim, ciw = self.drive_pair(n, counts, (trial, "rand-exact"))
            ciw.run_to_convergence()
            assert sim.run_until_silent()
            assert sim.correct
            occupancy = sim.occupancy()
            assert all(occupancy.get((0, rank), 0) == 1 for rank in range(n))
            ciw_totals.append(ciw.interactions)
            count_totals.append(sim.interactions)
        assert ks_statistic(count_totals, ciw_totals) < 0.17
        assert statistics.mean(count_totals) == pytest.approx(
            statistics.mean(ciw_totals), rel=0.15
        )


# ---------------------------------------------------------------------------
# Distributional equivalence with the generic engine
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestDistributionalEquivalence:
    """Seeded KS checks: countsim vs Simulation produce the same laws.

    With 150-vs-150 samples the 5%-level KS critical value is ~0.157;
    the thresholds below sit at that order, and the seeds are fixed so
    the tests are deterministic.
    """

    TRIALS = 150

    def test_ciw_convergence_interactions(self):
        n = 6

        def count_engine_trials():
            times = []
            for trial in range(self.TRIALS):
                protocol = SilentNStateSSR(n)
                rng = make_rng(21, "ks-count", trial)
                sim = CountSimulation(
                    protocol, protocol.random_configuration(rng), rng=rng
                )
                assert sim.run_until_silent(max_interactions=10**7)
                times.append(sim.streak_start or 0)
            return times

        def generic_trials():
            times = []
            for trial in range(self.TRIALS):
                protocol = SilentNStateSSR(n)
                rng = make_rng(22, "ks-generic", trial)
                monitor = protocol.convergence_monitor()
                sim = Simulation(
                    protocol,
                    protocol.random_configuration(rng),
                    rng=rng,
                    monitors=[monitor],
                )
                while not (monitor.correct and is_silent(protocol, sim.states)):
                    sim.run(n)
                times.append(monitor.streak_start or 0)
            return times

        count_times = count_engine_trials()
        generic_times = generic_trials()
        assert ks_statistic(count_times, generic_times) < 0.16
        assert statistics.mean(count_times) == pytest.approx(
            statistics.mean(generic_times), rel=0.15
        )

    def test_optimal_silent_convergence_interactions(self):
        n = 6

        def trials(mode, seed_label):
            times = []
            for trial in range(self.TRIALS):
                protocol = OptimalSilentSSR(n)
                rng = make_rng(23, seed_label, trial)
                states = protocol.duplicate_rank_configuration(rank=1)
                if mode == "count":
                    sim = CountSimulation(protocol, states, rng=rng)
                    assert sim.run_until_silent(max_interactions=10**8)
                    times.append(sim.streak_start or 0)
                else:
                    monitor = protocol.convergence_monitor()
                    sim = Simulation(protocol, states, rng=rng, monitors=[monitor])
                    while not (
                        monitor.correct and is_silent(protocol, sim.states)
                    ):
                        sim.run(n)
                    times.append(monitor.streak_start or 0)
            return times

        count_times = trials("count", "ks-os-count")
        generic_times = trials("generic", "ks-os-generic")
        assert ks_statistic(count_times, generic_times) < 0.16
        assert statistics.mean(count_times) == pytest.approx(
            statistics.mean(generic_times), rel=0.15
        )

    def test_randomized_protocol_occupancy_distribution(self):
        """A protocol with a genuinely randomized pair matches too."""
        n, horizon = 6, 60

        def ones_after(engine, seed_label):
            ones = []
            for trial in range(self.TRIALS):
                protocol = CoinFlipToy(n)
                rng = make_rng(24, seed_label, trial)
                states = protocol.random_configuration(rng)
                if engine == "count":
                    sim = CountSimulation(protocol, states, rng=rng)
                    sim.run(horizon)
                    ones.append(sim.occupancy().get((0, 1), 0))
                else:
                    sim = Simulation(protocol, states, rng=rng)
                    sim.run(horizon)
                    ones.append(sum(sim.states))
            return ones

        count_ones = ones_after("count", "ks-coin-count")
        generic_ones = ones_after("generic", "ks-coin-generic")
        assert ks_statistic(count_ones, generic_ones) < 0.16


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


class TestMemoization:
    def test_deterministic_transitions_run_once_per_ordered_pair(self):
        n = 16
        protocol = CountingCiw(n)
        rng = make_rng(31, "memo")
        sim = CountSimulation(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            mode="interaction",
        )
        sim.run(5000)
        # Without memoization this would be 5000; with it, at most one
        # probe per ordered pair of distinct states ever present.
        assert protocol.transition_calls <= n * n

    def test_shared_spy_is_rearmed_for_every_probe(self):
        """Each same-state pair is randomized and each other pair is not,
        whichever pair the engine's one spy RNG probed before."""
        protocol = GaussToy(6)
        rng = make_rng(33, "memo")
        sim = CountSimulation(protocol, [0, 0, 1, 1, 2, 2], rng=rng, mode="interaction")
        sim.run(2000)
        schema = sim._schema
        keys = {
            sim._slot_of_index[schema.index(state)]: schema.key(state)
            for state in (0, 1, 2)
        }
        probed = {
            (keys[pair >> 32], keys[pair & 0xFFFFFFFF]): entry
            for pair, entry in sim._memo.items()
        }
        assert len(probed) == 9  # every ordered pair of the three states
        for (a, b), entry in probed.items():
            assert (entry is None) == (a == b), (a, b)

    def test_zero_memo_value_is_replayed_not_reprobed(self):
        """A deterministic pair whose packed memo value is 0 (both
        outputs in slot 0) is a hit like any other: the spy RNG is armed
        once per ordered pair and never again."""
        protocol = EpidemicToy(4)
        sim = CountSimulation(
            protocol, [0, 1, 1, 1], rng=make_rng(34, "memo"), mode="interaction"
        )
        rearms = []
        rearm = sim._spy.rearm
        sim._spy.rearm = lambda inner: (rearms.append(inner), rearm(inner))
        sim.run(500)
        assert sim.occupancy() == {sim._schema.key(0): 4}
        assert sim._memo[0 << 32 | 0] == 0  # (0, 0) -> (0, 0)
        assert sim._memo[0 << 32 | 1] == 0  # (0, 1) -> (0, 0)
        assert len(rearms) == len(sim._memo) <= 4

    def test_randomized_pairs_are_not_memoized(self):
        protocol = CoinFlipToy(4)
        rng = make_rng(32, "memo")
        sim = CountSimulation(protocol, [1, 1, 1, 1], rng=rng, mode="interaction")
        sim.run(400)
        # If the engine had frozen the first observed (1,1) outcome the
        # population would either never change or collapse to all-zero
        # immediately; under the true 1/2 law both states stay occupied
        # across 400 interactions with overwhelming probability.
        occupancy = sim.occupancy()
        assert occupancy.get((0, 1), 0) >= 1
        assert occupancy.get((0, 0), 0) >= 1


def _probe_table_start(name):
    """``repro verify``'s n=4 targets: tiny Optimal-Silent from its
    initial start, and CIW from its worst case."""
    if name == "optimal-silent":
        protocol = _tiny_optimal(4)
        return protocol, _initial_start(protocol)
    protocol = SilentNStateSSR(4)
    return protocol, protocol.worst_case_configuration()


class TestProbeTable:
    """A probe table shared across a series of engines replaces probes
    and nothing else: every trial with it is the trial without it."""

    @staticmethod
    def _observed(sim):
        return (
            (sim.interactions, sim.events, sim.changes),
            sim.occupancy(),
            sim.rng.getstate(),
        )

    @pytest.mark.parametrize("name", ["optimal-silent", "ciw"])
    def test_series_equals_fresh_engines(self, name):
        protocol, start = _probe_table_start(name)
        table = ProbeTable(protocol)
        for batched in (False, True):  # verify's count, then vector trials
            for trial in range(20):
                runs = []
                for shared in (table, None):
                    sim = CountSimulation(
                        protocol,
                        deepcopy(start),
                        rng=make_rng(trial, "probe-table", name, batched),
                        batched=batched,
                        probe_table=shared,
                    )
                    assert sim.run_until_silent()
                    runs.append(self._observed(sim))
                assert runs[0] == runs[1], (batched, trial)
        assert table.hits > 0
        assert 0 < len(table) <= protocol.state_count() ** 2

    def test_randomized_pairs_are_probed_every_time(self):
        from tests.core.test_kernel import KernelCoinFlip

        protocol = KernelCoinFlip(4)
        schema = schema_for(protocol)
        key = schema.key
        table = ProbeTable(protocol)
        for trial in range(10):
            runs = []
            for shared in (table, None):
                sim = CountSimulation(
                    protocol,
                    [1, 1, 0, 0],
                    rng=make_rng(trial, "probe-table", "coin"),
                    mode="interaction",
                    probe_table=shared,
                )
                sim.run(200)
                runs.append(self._observed(sim))
                ones = sim._slot_of_index[schema.index(1)]
                assert sim._memo[ones << 32 | ones] is None
            assert runs[0] == runs[1], trial
        assert table.outputs[key(1), key(1)] is None
        assert table.hits > 0  # the deterministic pairs were served

    def test_measure_convergence_passes_the_table_down(self):
        from repro.experiments.common import measure_convergence

        protocol, start = _probe_table_start("optimal-silent")
        table = ProbeTable(protocol)
        for engine in ("count", "generic"):
            for trial in range(5):
                outcomes = [
                    measure_convergence(
                        protocol,
                        deepcopy(start),
                        rng=make_rng(trial, "probe-table", "measure", engine),
                        max_time=1e4,
                        engine=engine,
                        probe_table=shared,
                    )
                    for shared in (table, None)
                ]
                assert outcomes[0] == outcomes[1], (engine, trial)
                assert outcomes[0].converged
            if engine == "count":
                assert table.hits > 0
                served = (table.hits, len(table))
        assert (table.hits, len(table)) == served  # the generic engine never probes

    def test_refuses_another_protocol_instance(self):
        protocol, start = _probe_table_start("optimal-silent")
        table = ProbeTable(protocol)
        for other in (OptimalSilentSSR(4), _tiny_optimal(4)):
            with pytest.raises(ValueError, match="another OptimalSilentSSR"):
                CountSimulation(
                    other, deepcopy(start), rng=make_rng(0, "probe-table"),
                    probe_table=table,
                )

    def test_engine_states_do_not_alias_the_table(self):
        protocol, start = _probe_table_start("optimal-silent")
        key = schema_for(protocol).key
        table = ProbeTable(protocol)
        sims = []
        for trial in range(2):
            sim = CountSimulation(
                protocol, deepcopy(start), rng=make_rng(trial, "probe-table", "alias"),
                probe_table=table,
            )
            assert sim.run_until_silent()
            sims.append(sim)
        assert table.hits > 0
        stored = deepcopy(table.outputs)
        second = [deepcopy(rep) for rep in sims[1]._reps]
        for rep in sims[0]._reps:
            rep.rank += 1000
        assert table.outputs == stored
        assert sims[1]._reps == second
        for rep in sims[1]._reps:
            rep.rank += 1000
        assert table.outputs == stored
        for outputs in table.outputs.values():
            if outputs is not None:
                key_a, state_a, key_b, state_b = outputs
                assert (key(state_a), key(state_b)) == (key_a, key_b)


# ---------------------------------------------------------------------------
# Budget, bookkeeping and state hygiene
# ---------------------------------------------------------------------------


class TestBookkeeping:
    def test_interaction_mode_advances_exactly(self):
        protocol = SilentNStateSSR(8)
        rng = make_rng(41, "budget")
        sim = CountSimulation(
            protocol, protocol.worst_case_configuration(), rng=rng, mode="interaction"
        )
        sim.run(123)
        assert sim.interactions == 123
        assert sim.events == 123

    def test_jump_mode_budget_truncation_is_exact(self):
        n = 64
        protocol = SilentNStateSSR(n)
        rng = make_rng(42, "budget")
        sim = CountSimulation(
            protocol,
            protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=rng,
            mode="jump",
        )
        assert not sim.run_until_silent(max_interactions=1000)
        assert sim.interactions == 1000

    def test_streak_and_regression_bookkeeping(self):
        n = 16
        protocol = SilentNStateSSR(n)
        rng = make_rng(43, "streak")
        sim = CountSimulation(
            protocol, protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=rng,
        )
        assert not sim.correct
        assert sim.run_until_silent()
        assert sim.correct
        assert sim.regressions == 0
        # CIW reaches correctness exactly at its last effective event.
        assert sim.streak_start == sim.interactions

    def test_initially_correct_configuration(self):
        protocol = SilentNStateSSR(5)
        sim = CountSimulation(protocol, [0, 1, 2, 3, 4], rng=make_rng(44, "streak"))
        assert sim.correct
        assert sim.streak_start == 0

    def test_input_states_never_mutated(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(45, "hygiene")
        states = protocol.random_configuration(rng)
        snapshot = deepcopy(states)
        sim = CountSimulation(protocol, states, rng=rng)
        sim.run_until_silent(max_interactions=10**7)
        assert states == snapshot

    def test_occupancy_and_expansion_conserve_agents(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(46, "conserve")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        sim.run(500)
        assert sum(sim.occupancy().values()) == 8
        expanded = sim.expand_states()
        assert len(expanded) == 8
        schema_keys = sorted(map(repr, (sim._schema.key(s) for s in expanded)))
        occupancy_keys = sorted(
            key_repr
            for key, count in sim.occupancy().items()
            for key_repr in [repr(key)] * count
        )
        assert schema_keys == occupancy_keys

    @pytest.mark.parametrize("engine", _engine_classes())
    def test_stale_count_tree_matches_an_engine_that_never_jumped(self, engine):
        """Jump mode lets the count tree go stale; every reader rebuilds it
        to exactly the tree an interaction-mode engine keeps current."""
        n = 64
        protocol = SilentNStateSSR(n)
        jumped = engine(
            protocol,
            protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=make_rng(3, "stale"),
            mode="jump",
        )
        jumped.run(n * n)  # ~30 effective events, all in jump mode
        assert jumped.mode == "jump" and jumped.changes > 0

        def never_jumped():
            return engine(
                protocol, jumped.expand_states(), rng=make_rng(4, "stale"), mode="interaction"
            )

        def states(sim, slots):
            return [sim.slot_state(slot) for slot in slots]

        # Readers in jump mode: victims without replacement, one agent.
        reference = never_jumped()
        victims = jumped.sample_victim_slots(5, make_rng(5, "victims"))
        assert states(jumped, victims) == states(
            reference, reference.sample_victim_slots(5, make_rng(5, "victims"))
        )
        agent = jumped.sample_agent_slot(make_rng(6, "agent"))
        assert jumped.slot_state(agent) == reference.slot_state(
            reference.sample_agent_slot(make_rng(6, "agent"))
        )

        # More jump-mode events leave the tree stale again; a fault then
        # takes the engine out of jump mode without any reader first.
        changes = jumped.changes
        jumped.run(n * n)
        assert jumped.mode == "jump" and jumped.changes > changes
        victims = [slot for slot, _ in jumped.occupied_slots()[:3]]
        jumped.corrupt(victims, [0, 1, n - 1])
        assert jumped.mode == "interaction"
        assert jumped._count_tree._weights == jumped._counts  # current again
        reference = never_jumped()
        for _ in range(20):  # interaction-mode steps sample the count tree
            state = jumped.rng.getstate()
            reference.rng.setstate(state)
            jumped.run(1)
            reference.run(1)
            assert jumped.occupancy() == reference.occupancy()
            assert jumped.rng.getstate() == reference.rng.getstate()
        assert states(jumped, [jumped.sample_agent_slot(make_rng(7, "agent"))]) == states(
            reference, [reference.sample_agent_slot(make_rng(7, "agent"))]
        )

    def test_rejected_corrupt_leaves_the_engine_untouched(self):
        """Two victims in a one-agent slot are rejected before anything
        moves: occupancy, mode, counters and the next 1,000 interactions
        equal those of a twin that never saw the call."""

        sim, twin = _atomic_engine(), _atomic_engine()
        slot = next(s for s, _ in sim.occupied_slots() if sim.slot_state(s) == 1)
        with pytest.raises(ValueError, match="cannot corrupt 2"):
            sim.corrupt([slot, slot], [5, 5])
        with pytest.raises(ValueError, match="cannot corrupt 1"):
            sim.corrupt([len(sim._counts)], [5])
        _assert_twins(sim, twin)

    @pytest.mark.parametrize(
        "victims, new_states, bad",
        [([0, 1], [5, 99], "99"), ([0], ["x"], "'x'")],
        ids=["out-of-range", "wrong-type"],
    )
    def test_rejected_new_state_leaves_the_engine_untouched(
        self, victims, new_states, bad
    ):
        """A new state outside the protocol's schema is rejected with a
        typed error naming it, before any victim moves or a slot for it
        exists; the engine then runs exactly like an untouched twin."""

        sim, twin = _atomic_engine(), _atomic_engine()
        with pytest.raises(ConfigurationError, match=f"state {bad} is not"):
            sim.corrupt(victims, new_states)
        assert len(sim._reps) == len(twin._reps)
        _assert_twins(sim, twin)

    @pytest.mark.parametrize(
        "order", ["leaked-first", "leaked-second", "out-of-range", "wrong-type"]
    )
    @pytest.mark.parametrize("mode", ["interaction", "jump", "active"])
    def test_rejected_initial_state_raises_before_any_count(
        self, order, mode, monkeypatch
    ):
        """An initial state outside the protocol's schema is rejected with
        a typed error naming it, before any slot count is set.  That
        holds when it shares its canonical key with an in-schema state
        (an Unsettled Optimal-Silent agent leaking a rank): first, it
        would stand in for every agent with that key; second, the key
        would silently merge it into the clean one."""

        optimal = OptimalSilentSSR(6)
        ranked = optimal.ranked_configuration()[:4]
        clean = optimal.initial_configuration(make_rng(1, "unsettled"))[0]
        leaked = replace(clean, rank=3)
        schema = schema_for(optimal)
        assert schema.is_valid(clean) and schema.key(leaked) == schema.key(clean)
        protocol, states, bad = {
            "leaked-first": (optimal, ranked + [leaked, clean], leaked),
            "leaked-second": (optimal, ranked + [clean, leaked], leaked),
            "out-of-range": (SilentNStateSSR(6), [0, 0, 1, 2, 3, 99], 99),
            "wrong-type": (SilentNStateSSR(6), [0, 1, 2, 3, 4, "x"], "x"),
        }[order]

        def no_count(*_args):
            raise AssertionError("a slot count was set before the check")

        monkeypatch.setattr(CountSimulation, "_set_count", no_count)
        with pytest.raises(ConfigurationError, match=re.escape(f"state {bad!r} is not")):
            CountSimulation(protocol, states, rng=make_rng(8, "initial"), mode=mode)
        assert states.count(bad) == 1  # the input list is left as given

    def test_occupancy_returns_canonical_key_tuples(self):
        """Slots are found by dense index, but occupancy still reports
        the schema's canonical key tuples, as the oracle builds them."""
        from collections import Counter

        protocol = OptimalSilentSSR(8)
        schema = schema_for(protocol)
        states = protocol.random_configuration(make_rng(11, "occupancy"))
        sim = CountSimulation(protocol, deepcopy(states), rng=make_rng(12, "occupancy"))
        assert sim.occupancy() == Counter(schema.key(state) for state in states)
        assert sim.run_until_silent(max_interactions=10**8)
        occupancy = sim.occupancy()
        assert all(type(key) is tuple for key in occupancy)
        assert occupancy == Counter(schema.key(state) for state in sim.expand_states())
        assert sorted(key[:2] for key in occupancy) == [(0, rank) for rank in range(1, 9)]

        ciw = CountSimulation(SilentNStateSSR(4), [3, 0, 2, 1], rng=make_rng(13, "occupancy"))
        assert ciw.occupancy() == {(0, 3): 1, (0, 0): 1, (0, 2): 1, (0, 1): 1}

    def test_in_schema_duplicates_keep_their_counts(self):
        """Equal in-schema states under one key still share a slot: the
        check costs no slot and no change to the tally."""

        protocol = OptimalSilentSSR(6)
        states = protocol.initial_configuration(make_rng(1, "unsettled"))
        sim = CountSimulation(protocol, states, rng=make_rng(8, "initial"))
        assert sorted(sim.occupancy().values()) == [len(states)]
        assert sim.expand_states() == states

    def test_auto_mode_switches_to_jump_near_silence(self):
        n = 16
        protocol = SilentNStateSSR(n)
        rng = make_rng(47, "switch")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        assert sim.mode == "interaction"
        assert sim.run_until_silent(max_interactions=10**7)
        assert sim.mode == "jump"
        assert sim.silent


# ---------------------------------------------------------------------------
# Per-seed goldens
# ---------------------------------------------------------------------------


class TestJumpModeGolden:
    """Pinned per-seed trajectories of both count engines.

    Speedups of the count engine must leave every seed's trajectory
    unchanged; these values were recorded before the jump-mode hot path
    was rewritten and must never be regenerated by a change that claims
    bit-identity.
    """

    #: ``(interactions, events, changes)`` from the CIW witness in jump
    #: mode, seeded with ``make_rng(seed, "jump-golden")``.  Jump mode is
    #: scalar on both engines, so one table serves both.
    CIW_WITNESS = {
        (64, 0): (126547, 63, 63),
        (64, 1): (123758, 63, 63),
        (64, 2): (114896, 63, 63),
        (1000, 0): (457273245, 999, 999),
        (1000, 1): (486948839, 999, 999),
        (1000, 2): (478315875, 999, 999),
        (4096, 0): (33709046032, 4095, 4095),
        (4096, 1): (34617667023, 4095, 4095),
        (4096, 2): (33927162902, 4095, 4095),
        (10_000, 0): (494269149544, 9999, 9999),
        (10_000, 1): (498301862455, 9999, 9999),
        (10_000, 2): (501081989682, 9999, 9999),
    }

    #: Optimal-Silent from ``random_configuration(make_rng(n, "auto-golden"))``
    #: in ``auto`` mode: the occupancy after ``run(10 * n)`` (still in
    #: interaction mode), then ``(interactions, events, changes)`` once
    #: silent.  The vector engine's batched draws come from its own numpy
    #: stream, so its rows differ from the count engine's.
    OPTIMAL_SILENT = {
        ("CountSimulation", 8): (
            [((2, "F", 0, 32), 2), ((2, "F", 1, 0), 4), ((2, "F", 3, 0), 1),
             ((2, "L", 3, 0), 1)],
            (292, 292, 210),
        ),
        ("CountSimulation", 16): (
            [((2, "F", 2, 0), 2), ((2, "F", 3, 0), 5), ((2, "F", 4, 0), 5),
             ((2, "F", 5, 0), 2), ((2, "L", 3, 0), 1), ((2, "L", 4, 0), 1)],
            (1036, 1036, 735),
        ),
        ("VectorSimulation", 8): (
            [((2, "F", 0, 17), 1), ((2, "F", 0, 19), 2), ((2, "F", 0, 21), 1),
             ((2, "F", 0, 22), 1), ((2, "F", 0, 23), 2), ((2, "L", 0, 16), 1)],
            (245, 245, 144),
        ),
        ("VectorSimulation", 16): (
            [((2, "F", 2, 0), 2), ((2, "F", 3, 0), 5), ((2, "F", 4, 0), 5),
             ((2, "F", 5, 0), 2), ((2, "L", 5, 0), 2)],
            (1025, 1025, 758),
        ),
    }

    @pytest.mark.parametrize("engine", _engine_classes())
    @pytest.mark.parametrize("n", [64, 1000, 4096, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ciw_witness_jump_mode(self, engine, n, seed):
        protocol = SilentNStateSSR(n)
        sim = engine(
            protocol,
            protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=make_rng(seed, "jump-golden"),
            mode="jump",
        )
        assert sim.run_until_silent()
        assert (sim.interactions, sim.events, sim.changes) == self.CIW_WITNESS[(n, seed)]

    @pytest.mark.parametrize("engine", _engine_classes())
    @pytest.mark.parametrize("n", [8, 16])
    def test_optimal_silent_auto_mode(self, engine, n):
        protocol = OptimalSilentSSR(n)
        rng = make_rng(n, "auto-golden")
        sim = engine(protocol, protocol.random_configuration(rng), rng=rng)
        occupancy, counters = self.OPTIMAL_SILENT[(engine.__name__, n)]
        sim.run(10 * n)
        assert sim.mode == "interaction"
        assert sorted(sim.occupancy().items()) == occupancy
        assert sim.run_until_silent()
        assert sim.mode == "jump"
        assert (sim.interactions, sim.events, sim.changes) == counters


class TestActiveModeGolden:
    """Pinned per-seed trajectories of active mode, the mode chaos runs
    of the silent protocols use.

    Random starts from ``make_rng(seed, "active-golden")``: after
    ``run(10 * n)`` the counters and a digest of the sorted occupancy,
    then the counters once silent.  Recorded before the active-mode hot
    path was rewritten; a change that claims bit-identity must leave
    them as they are.
    """

    #: ``(protocol, n, seed)`` -> ``((interactions, events, changes),
    #: distinct states, occupancy digest, (interactions, events, changes)
    #: once silent)``.
    PINNED = {
        ("ciw", 16, 0): ((160, 111, 9), 13, "b17814bb4c6b26a1", (2076, 745, 32)),
        ("ciw", 16, 1): ((160, 139, 9), 11, "8fd332b897dac5bd", (1112, 594, 34)),
        ("ciw", 16, 2): ((160, 130, 5), 13, "7506f2027d3fa012", (1158, 435, 19)),
        ("ciw", 64, 0): ((640, 548, 7), 41, "471bb47d33bd67d0", (127264, 20732, 226)),
        ("ciw", 64, 1): ((640, 559, 6), 42, "a81fc30a6c58acb6", (138880, 31670, 293)),
        ("ciw", 64, 2): ((640, 603, 13), 39, "d7f09461d60c2185", (114158, 27472, 302)),
        ("optimal-silent", 16, 0): ((160, 160, 159), 7, "2f41140a3143a77c", (1026, 807, 806)),
        ("optimal-silent", 16, 1): ((160, 160, 160), 6, "db4892a7919ae04c", (809, 711, 711)),
        ("optimal-silent", 16, 2): ((160, 158, 157), 11, "1a76badb4208003e", (602, 565, 564)),
        ("optimal-silent", 64, 0): ((640, 638, 638), 6, "2820b06f5f9ffc38", (12357, 9220, 9220)),
        ("optimal-silent", 64, 1): ((640, 635, 633), 9, "a016e4b933562a5c", (11989, 9293, 9291)),
        ("optimal-silent", 64, 2): ((640, 637, 632), 7, "52c6883dc99488c9", (21410, 18348, 18258)),
    }

    PROTOCOLS = {"ciw": SilentNStateSSR, "optimal-silent": OptimalSilentSSR}

    @pytest.mark.parametrize("name", ["ciw", "optimal-silent"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_start_active_mode(self, name, n, seed):
        protocol = self.PROTOCOLS[name](n)
        rng = make_rng(seed, "active-golden")
        sim = CountSimulation(
            protocol, protocol.random_configuration(rng), rng=rng, mode="active"
        )
        sim.run(10 * n)
        occupancy = sorted(sim.occupancy().items())
        digest = hashlib.sha256(repr(occupancy).encode()).hexdigest()[:16]
        early = (sim.interactions, sim.events, sim.changes)
        assert sim.run_until_silent()
        assert sim.mode == "active"
        late = (sim.interactions, sim.events, sim.changes)
        assert (early, len(occupancy), digest, late) == self.PINNED[(name, n, seed)]
