"""Tests for the array-based Optimal-Silent-SSR simulator.

Three contracts hold it to the protocol: per-seed golden trajectories
(the run loop may get faster, never different), the exact Markov-chain
expectation of the tiny-parameter protocol, and distributional parity
with the generic engine -- same protocol, same start, statistically
indistinguishable stabilization times.
"""

import math
import random
import statistics

import pytest

from repro.core.fastpath_optimal_silent import (
    RESETTING,
    SETTLED,
    UNSETTLED,
    OptimalSilentFastSim,
)
from repro.core.rng import make_rng
from repro.experiments.common import measure_convergence
from repro.protocols.optimal_silent import (
    FOLLOWER,
    OptimalSilentAgent,
    OptimalSilentSSR,
    Role,
)
from repro.statics import oracle


class TestConstruction:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            OptimalSilentFastSim(1, make_rng(0, "x"))

    def test_duplicate_rank_start_tracks_counts(self):
        sim = OptimalSilentFastSim(6, make_rng(0, "x"))
        sim.duplicate_rank_start()
        assert not sim.correct
        assert sorted(sim.rank) == [1, 1, 2, 3, 4, 5]

    def test_from_states_round_trip(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(1, "enc")
        states = protocol.random_configuration(rng)
        sim = OptimalSilentFastSim.from_states(states, rng, protocol.params)
        for index, agent in enumerate(states):
            if agent.role is Role.SETTLED:
                assert sim.role[index] == SETTLED
                assert sim.rank[index] == agent.rank
            elif agent.role is Role.UNSETTLED:
                assert sim.role[index] == UNSETTLED
                assert sim.errorcount[index] == agent.errorcount
            else:
                assert sim.role[index] == RESETTING
                assert sim.resetcount[index] == agent.resetcount

    def test_correct_flag_matches_protocol_predicate(self):
        protocol = OptimalSilentSSR(6)
        rng = make_rng(2, "enc")
        states = protocol.ranked_configuration()
        sim = OptimalSilentFastSim.from_states(states, rng, protocol.params)
        assert sim.correct


class TestConvergence:
    @pytest.mark.parametrize("start", ["duplicate", "random", "triggered"])
    def test_converges(self, start):
        sim = OptimalSilentFastSim(16, make_rng(3, "conv", start))
        if start == "duplicate":
            sim.duplicate_rank_start()
        elif start == "random":
            sim.random_start()
        else:
            sim.all_triggered_start()
        sim.run_to_convergence(max_interactions=20_000_000)
        assert sim.correct
        assert sorted(sim.rank) == list(range(1, 17))

    def test_budget_guard(self):
        sim = OptimalSilentFastSim(16, make_rng(4, "budget"))
        sim.duplicate_rank_start()
        with pytest.raises(RuntimeError):
            sim.run_to_convergence(max_interactions=3)

    def test_correct_start_is_instant(self):
        protocol = OptimalSilentSSR(8)
        sim = OptimalSilentFastSim.from_states(
            protocol.ranked_configuration(), make_rng(5, "inst"), protocol.params
        )
        assert sim.run_to_convergence(max_interactions=10) == 0


#: ``(interactions to a correct ranking, sum of (index + 1) * rank)`` for
#: seeds 0, 1, 2 on the streams ``make_rng(seed, "golden", start, n)``,
#: recorded with ``rng.randrange`` pair draws.  A speedup keeps these;
#: a change that alters them changes every seed's trajectory.
GOLDEN = {
    ("random_start", 2): [(41, 5), (52, 5), (22, 5)],
    ("random_start", 8): [(198, 178), (217, 145), (221, 155)],
    ("random_start", 32): [(2727, 8964), (3655, 7881), (3475, 8715)],
    ("random_start", 64): [(11409, 66207), (12009, 67836), (12615, 66793)],
    ("random_start", 128): [(46466, 531806), (44099, 513280), (53128, 543249)],
    ("duplicate_rank_start", 2): [(25, 4), (25, 4), (25, 4)],
    ("duplicate_rank_start", 8): [(277, 172), (341, 183), (237, 181)],
    ("duplicate_rank_start", 32): [(6803, 9029), (3825, 8022), (4789, 8921)],
    ("duplicate_rank_start", 64): [(17178, 73490), (13603, 67980), (15782, 67596)],
    ("all_triggered_start", 2): [(24, 4), (24, 5), (24, 5)],
    ("all_triggered_start", 8): [(247, 142), (230, 162), (288, 160)],
    ("all_triggered_start", 32): [(3110, 9340), (3457, 9229), (3902, 9734)],
    ("all_triggered_start", 64): [(11432, 69072), (10806, 68246), (14666, 68566)],
    ("all_triggered_start", 128): [(43194, 520547), (46604, 533066), (50264, 516237)],
}

STARTS = ("random_start", "duplicate_rank_start", "all_triggered_start")
ARRAYS = ("role", "rank", "children", "errorcount", "leader", "resetcount", "delaytimer")


def _started(start, n, seed):
    sim = OptimalSilentFastSim(n, make_rng(seed, "golden", start, n))
    getattr(sim, start)()
    return sim


def _arrays(sim):
    return {name: list(getattr(sim, name)) for name in ARRAYS}


class _LoggingRandom(random.Random):
    """Records every ``getrandbits`` call: ``(bits, value)``."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.log.append((k, value))
        return value


class TestPerSeedGolden:
    @pytest.mark.parametrize("start, n", sorted(GOLDEN))
    def test_trajectories_are_pinned(self, start, n):
        measured = []
        for seed in range(3):
            sim = _started(start, n, seed)
            count = sim.run_to_convergence(50_000 * n * n)
            assert count == sim.interactions
            measured.append((count, sum((i + 1) * r for i, r in enumerate(sim.rank))))
        assert measured == GOLDEN[(start, n)]

    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_steps_replay_run_to_convergence(self, start, n):
        ran = _started(start, n, 5)
        ran.run_to_convergence(50_000 * n * n)
        stepped = _started(start, n, 5)
        while not stepped.correct:
            stepped.step()
        assert stepped.interactions == ran.interactions
        assert _arrays(stepped) == _arrays(ran)
        # A correct configuration is silent: a further step only counts.
        stepped.step()
        assert stepped.interactions == ran.interactions + 1
        assert _arrays(stepped) == _arrays(ran)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 100])
    def test_inline_draw_is_randrange_draw_for_draw(self, n):
        sim = OptimalSilentFastSim(n, _LoggingRandom(11))
        sim.all_triggered_start()
        reference = _LoggingRandom(11)
        for _ in range(300):
            sim.step()
            reference.randrange(n)
            reference.randrange(n - 1)
        assert sim.rng.log == reference.log
        assert sim.rng.getstate() == reference.getstate()

    def test_budget_edges(self):
        # Correct exactly at the budget returns; one short raises after
        # spending the whole budget.
        count = _started("duplicate_rank_start", 8, 0).run_to_convergence(10**6)
        assert _started("duplicate_rank_start", 8, 0).run_to_convergence(count) == count
        short = _started("duplicate_rank_start", 8, 0)
        with pytest.raises(RuntimeError, match="no convergence within"):
            short.run_to_convergence(count - 1)
        assert short.interactions == count - 1


def _whp_started(n, trial=0):
    """Trial ``trial`` of ``repro run whp`` at seed 24301."""
    sim = OptimalSilentFastSim(n, make_rng(24301, "whp", n, trial))
    sim.random_start()
    return sim


def _step_to_deep_dormancy(sim):
    """Step until every agent is dormant (resetting with resetcount 0)
    with every delay timer at least 2n + 64, and return the count."""
    n = sim.n
    while True:
        sim.step()
        assert not sim.correct, "converged before a deep dormant stretch"
        if (
            sim.role.count(RESETTING) == n
            and not any(sim.resetcount)
            and min(sim.delaytimer) >= 2 * n + 64
        ):
            return sim.interactions


class TestWhpStreams:
    """Stepping and running agree on the ``whp`` experiment's own streams,
    through the epochs' long all-dormant stretches.  ``step`` never runs
    the dormant block (its budget is one interaction); a run does."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_steps_replay_run_to_convergence(self, n):
        ran = _whp_started(n)
        ran.run_to_convergence(50_000 * n * n)
        stepped = _whp_started(n)
        while not stepped.correct:
            stepped.step()
        assert stepped.interactions == ran.interactions
        assert _arrays(stepped) == _arrays(ran)
        assert stepped.rng.getstate() == ran.rng.getstate()
        assert stepped.dormant_interactions == 0
        assert ran.dormant_interactions > ran.interactions // 4

    @pytest.mark.parametrize("n", [64, 128])
    def test_budget_ending_while_all_dormant(self, n):
        # Every timer is at least 2n + 64 at ``deep``, so the whole
        # population stays dormant past ``deep + n + 32``.
        stepped = _whp_started(n)
        deep = _step_to_deep_dormancy(stepped)
        budget = deep + n + 32
        short = _whp_started(n)
        with pytest.raises(RuntimeError, match="no convergence within"):
            short.run_to_convergence(budget)
        assert short.interactions == budget
        while stepped.interactions < budget:
            stepped.step()
        assert _arrays(short) == _arrays(stepped)
        assert short.rng.getstate() == stepped.rng.getstate()
        # The budget cut a dormant block: one interaction less, one
        # block interaction less.
        one_less = _whp_started(n)
        with pytest.raises(RuntimeError):
            one_less.run_to_convergence(budget - 1)
        assert short.dormant_interactions == one_less.dormant_interactions + 1


class TestExactChainPin:
    """The fast simulator against the exact chain of the tiny-parameter
    protocol (``r_max = d_max = e_max = 2``) at n = 4.

    For this silent protocol the first correct ranking is the correct
    sink the chain's hitting time targets, so the Monte-Carlo mean must
    land in the exact ``E +/- 4 sqrt(Var / N)`` band, as in
    ``repro verify``.
    """

    N = 4
    TRIALS = 2000

    def starts(self, protocol):
        yield "initial", oracle._initial_start(protocol)
        # A triggered agent, a dormant follower, a settled root and an
        # unsettled agent: the first interactions run Propagate-Reset.
        yield "resetting", [
            OptimalSilentAgent(role=Role.RESETTING, resetcount=2),
            OptimalSilentAgent(role=Role.RESETTING, leader=FOLLOWER, delaytimer=1),
            OptimalSilentAgent(role=Role.SETTLED, rank=1, children=1),
            OptimalSilentAgent(role=Role.UNSETTLED, errorcount=2),
        ]

    def test_mean_within_exact_band(self):
        protocol = oracle._tiny_optimal(self.N)
        for name, start in self.starts(protocol):
            expected, variance, _ = oracle.exact_start_moments(protocol, start)
            total = 0
            for trial in range(self.TRIALS):
                sim = OptimalSilentFastSim.from_states(
                    start, make_rng(9, "exact-pin", name, trial), protocol.params
                )
                total += sim.run_to_convergence(1_000_000)
            band = oracle.DEFAULT_Z * math.sqrt(variance / self.TRIALS)
            assert abs(total / self.TRIALS - expected) <= band, name


@pytest.mark.slow
class TestParityWithGenericEngine:
    """Stabilization-time distributions must match the reference engine."""

    N = 8
    TRIALS = 250

    def fast_times(self):
        times = []
        for trial in range(self.TRIALS):
            sim = OptimalSilentFastSim(self.N, make_rng(7, "fastpar", trial))
            sim.duplicate_rank_start()
            times.append(
                sim.run_to_convergence(max_interactions=50_000_000) / self.N
            )
        return times

    def generic_times(self):
        times = []
        for trial in range(self.TRIALS):
            protocol = OptimalSilentSSR(self.N)
            rng = make_rng(8, "genpar", trial)
            # Pin the generic engine: this test cross-validates the fast
            # array simulator against the reference agent-array engine
            # (countsim has its own equivalence suite in test_countsim).
            outcome = measure_convergence(
                protocol,
                protocol.duplicate_rank_configuration(rank=1),
                rng=rng,
                max_time=500_000.0,
                engine="generic",
            )
            assert outcome.converged
            times.append(outcome.convergence_time)
        return times

    def test_means_and_spread_match(self):
        fast = self.fast_times()
        generic = self.generic_times()
        mean_fast = statistics.mean(fast)
        mean_generic = statistics.mean(generic)
        assert mean_fast == pytest.approx(mean_generic, rel=0.12)
        # Same order of dispersion, not just the same mean.
        assert statistics.median(fast) == pytest.approx(
            statistics.median(generic), rel=0.2
        )
