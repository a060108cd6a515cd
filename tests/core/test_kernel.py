"""Tests for the count engine's batched sampler (``batched=True``).

The load-bearing guarantees, mirroring the count engine's own suite:

* without numpy, ``batched=True`` is the scalar path: bit-exact per seed
  against the unbatched engine (same RNG consumption, same
  trajectories);
* class-pruned pair classification registers exactly the pairs of a
  full scan, in the same order, so jump-mode trajectories do not depend
  on the ``silent_class`` hook -- also after a fault and re-entry into
  jump mode;
* batched interaction-mode runs agree in distribution (KS) with
  unbatched ones on both Table 1 protocols and on a genuinely
  randomized protocol, and are pinned per seed (``TestBatchedGolden``);
* ``repro verify``'s exact-chain oracle accepts the batched engine's own
  Monte-Carlo band at small n;
* ``corrupt()`` resynchronizes the batched bookkeeping;
* numpy is imported on the first batched draw, never by ``import repro``
  or by runs that do not batch (``TestColdStart``).
"""

import os
import random
import statistics
import subprocess
import sys

import pytest

import repro.core.countsim as countsim_module
from repro.core.countsim import CountSimulation, count_engine_eligible, select_engine
from repro.core.rng import make_rng
from repro.experiments import frontier, table1
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.loose_stabilization import LooselyStabilizingLE
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.propagate_reset import ResetParameters, ResetTimingProtocol
from repro.statics.schema import FieldSpec, IntRange, register_schema, scalar_schema
from tests.core.test_countsim import ks_statistic

requires_numpy = pytest.mark.skipif(
    countsim_module._np is None, reason="batched sampling requires numpy"
)


class KernelCoinFlip(RankingProtocol[int]):
    """States {0, 1}: (1,1) flips the responder with prob 1/2.

    A randomized pair forces the batched path to block and replay
    through the scalar engine on every (1,1) draw.
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


@register_schema(KernelCoinFlip)
def _kernel_coinflip_schema(protocol: KernelCoinFlip):
    return scalar_schema(
        "KernelCoinFlip", FieldSpec("value", IntRange(0, 1)), build=lambda value: value
    )


class KernelLazyNullCiw(SilentNStateSSR):
    """Silent-n-state-SSR whose null predicate misses the adjacent ranks.

    ``is_pair_null`` calls ``(r, r + 1)`` and ``(r + 1, r)`` effective,
    so jump mode samples, probes and memoizes those null pairs: after a
    fault the batched sampler meets null memo entries it never scanned.
    """

    silent_class = None  # no class pruning: every pair is classified

    def is_pair_null(self, a: int, b: int) -> bool:
        return a != b and abs(a - b) != 1


# ---------------------------------------------------------------------------
# Engine selection and the numpy-optional fallback
# ---------------------------------------------------------------------------


class TestSelection:
    def test_unknown_engine_rejected(self):
        """The experiments that resolve their engine with
        ``select_engine`` reject an unknown name before any trial runs."""
        with pytest.raises(ValueError):
            frontier.run(quick=True, engine="warp")
        with pytest.raises(ValueError):
            table1.run(quick=True, engine="warp")

    @pytest.mark.parametrize("engine", ["count", "vector"])
    @pytest.mark.parametrize(
        "make_protocol", [lambda: LooselyStabilizingLE(8, t_max=40)], ids=["loose"]
    )
    def test_count_engines_refuse_non_silent_protocols(self, make_protocol, engine):
        """The protocol is count-engine eligible but not silent, and
        the count engine certifies stabilization by silence only: the
        policy names the protocol and refuses it; ``auto`` runs it on
        the generic engine."""
        protocol = make_protocol()
        assert count_engine_eligible(protocol) and not protocol.silent
        name = type(protocol).__name__
        with pytest.raises(ValueError, match=f"{name} is not silent"):
            select_engine(protocol, engine)
        assert select_engine(protocol, "auto") is None

    @pytest.mark.parametrize("engine", ["count", "vector"])
    def test_count_engines_refuse_reset_timing(self, engine):
        """``ResetTimingProtocol``'s schema never declares the agents'
        ``generation`` field, so equal keys could hide different states:
        the protocol is not count-engine eligible (it is not silent
        either), the policy names it and refuses it, the engine's
        constructor refuses it too, and ``auto`` runs it generic."""
        protocol = ResetTimingProtocol(8, ResetParameters(r_max=3, d_max=4))
        assert not count_engine_eligible(protocol) and not protocol.silent
        with pytest.raises(ValueError, match="ResetTimingProtocol is not count-engine eligible"):
            select_engine(protocol, engine)
        assert select_engine(protocol, "auto") is None
        with pytest.raises(ValueError, match=r"declares no field \['generation'\]"):
            CountSimulation(protocol, rng=make_rng(0, "reset"), mode="interaction")

    def test_fallback_without_numpy(self, monkeypatch):
        """Without numpy ``batched=True`` is accepted and takes the scalar
        path: batching is off and no numpy Generator is ever seeded."""
        monkeypatch.setattr(countsim_module, "_np", None)
        sim = CountSimulation(
            SilentNStateSSR(4), [0, 1, 2, 3], rng=make_rng(1, "fallback"), batched=True
        )
        assert sim._batch_disabled
        sim.run(1000)
        assert sim._npg is None


_COLD_START = """
import sys
import repro, repro.experiments.cli, repro.service.api
from repro.core.countsim import CountSimulation
from repro.core.fastpath import worst_case_ciw_counts
from repro.core.rng import make_rng
from repro.protocols.cai_izumi_wada import SilentNStateSSR

def loaded(step):
    print(step, "numpy" in sys.modules)

loaded("import")
protocol = SilentNStateSSR(64)
witness = protocol.counts_to_configuration(worst_case_ciw_counts(64))
CountSimulation(
    protocol, witness, rng=make_rng(1, "cold"), mode="jump", batched=True
).run_until_silent()
loaded("jump")
start = protocol.random_configuration(make_rng(2, "cold"))
CountSimulation(protocol, start, rng=make_rng(3, "cold"), mode="interaction").run(5000)
loaded("unbatched")
CountSimulation(
    protocol, start, rng=make_rng(4, "cold"), mode="interaction", batched=True
).run(5000)
loaded("batched")
"""


@requires_numpy
class TestColdStart:
    def test_numpy_loads_on_the_first_batched_draw(self):
        """In a fresh interpreter, importing the CLI and the service, a
        batched jump-mode witness run and an unbatched interaction-mode
        run leave numpy unloaded; a batched interaction-mode run loads it."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            check=True,
        )
        assert proc.stdout.split("\n")[:4] == [
            "import False",
            "jump False",
            "unbatched False",
            "batched True",
        ]


# ---------------------------------------------------------------------------
# Bit-exact parity of the scalar paths
# ---------------------------------------------------------------------------


class FullScanCiw(SilentNStateSSR):
    """SilentNStateSSR without the class partition: full-scan classification."""

    silent_class = None


class FullScanOptimalSilent(OptimalSilentSSR):
    """OptimalSilentSSR without the class partition: full-scan classification."""

    silent_class = None


def _run_in_lockstep(a, b, budget):
    """Advance both engines in equal chunks until silent; compare as we go."""
    for _ in range(budget):
        a.run(200)
        b.run(200)
        assert (a.interactions, a.events, a.changes) == (b.interactions, b.events, b.changes)
        assert a.mode == b.mode
        assert a.occupancy() == b.occupancy()
        if a.mode == "jump":
            assert (a._pair_a, a._pair_b) == (b._pair_a, b._pair_b)
        if a.silent:
            break
    assert a.silent and b.silent
    assert a.streak_start == b.streak_start


class TestScalarParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_mode_trajectory_is_bit_exact(self, seed, monkeypatch):
        """Without numpy, batched and unbatched auto-mode runs coincide."""
        monkeypatch.setattr(countsim_module, "_np", None)
        n = 48
        protocol_a, protocol_b = SilentNStateSSR(n), SilentNStateSSR(n)
        rng_a = make_rng(seed, "kernel-exact")
        states = protocol_a.random_configuration(rng_a)
        count = CountSimulation(protocol_a, states, rng=rng_a)
        batched = CountSimulation(
            protocol_b, states, rng=make_rng(seed, "kernel-exact"), batched=True
        )
        # Re-consume the configuration draw on the second rng so both
        # engines see identical scheduling streams from here on.
        protocol_b.random_configuration(batched.rng)
        for _ in range(200):
            count.run(500)
            batched.run(500)
            assert batched.interactions == count.interactions
            assert batched.events == count.events
            assert batched.changes == count.changes
            assert batched.mode == count.mode
            assert batched.occupancy() == count.occupancy()
            if count.silent:
                break
        assert count.silent and batched.silent
        assert batched.streak_start == count.streak_start

    def test_randomized_protocol_batch1_parity(self, monkeypatch):
        """The scalar path of ``batched=True`` (one interaction at a time)
        is the unbatched engine seed for seed -- here on a randomized
        protocol, so RNG consumption must match exactly for the streams
        to stay aligned."""
        monkeypatch.setattr(countsim_module, "_np", None)
        n, horizon = 8, 3000
        states = [1] * n
        count = CountSimulation(
            KernelCoinFlip(n), states, rng=make_rng(9, "kernel-coin"), mode="interaction"
        )
        batched = CountSimulation(
            KernelCoinFlip(n),
            states,
            rng=make_rng(9, "kernel-coin"),
            mode="interaction",
            batched=True,
        )
        count.run(horizon)
        batched.run(horizon)
        assert batched.occupancy() == count.occupancy()
        assert batched.changes == count.changes
        # Identical RNG consumption: the streams stay aligned after.
        assert batched.rng.random() == count.rng.random()

    @pytest.mark.parametrize(
        "pruned_cls, full_cls",
        [(SilentNStateSSR, FullScanCiw), (OptimalSilentSSR, FullScanOptimalSilent)],
        ids=["ciw", "optimal-silent"],
    )
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_pruned_classification_matches_full_scan(self, pruned_cls, full_cls, n):
        """The ``silent_class`` pruning registers the full scan's pairs in
        the full scan's order, so the pair list and the whole auto-mode
        trajectory coincide -- also after a fault takes the engine out of
        jump mode and the null gap brings it back."""
        states = pruned_cls(n).random_configuration(make_rng(n, "prune-start"))
        pruned = CountSimulation(pruned_cls(n), states, rng=make_rng(n, "prune"))
        full = CountSimulation(full_cls(n), states, rng=make_rng(n, "prune"))
        assert pruned._class_of is not None and full._class_of is None
        _run_in_lockstep(pruned, full, 10**4)
        assert pruned.mode == "jump"
        assert (pruned._pair_a, pruned._pair_b) == (full._pair_a, full._pair_b)

        fault_rngs = [make_rng(n, "prune-fault"), make_rng(n, "prune-fault")]
        for sim, rng in zip((pruned, full), fault_rngs):
            victims = sim.sample_victim_slots(n // 4, rng)
            sim.corrupt(victims, [sim.protocol.random_state(rng) for _ in victims])
            assert sim.mode == "interaction"
        _run_in_lockstep(pruned, full, 10**4)
        assert pruned.mode == "jump"
        assert (pruned._pair_a, pruned._pair_b) == (full._pair_a, full._pair_b)


# ---------------------------------------------------------------------------
# Batched stepping semantics
# ---------------------------------------------------------------------------


@requires_numpy
class TestBatchedStepping:
    def test_interaction_budget_is_exact(self):
        protocol = SilentNStateSSR(8)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(11, "kernel-budget"),
            mode="interaction",
            batched=True,
        )
        sim.run(123)
        assert sim.interactions == 123
        assert sim.events == 123
        sim.run(4096 + 7)
        assert sim.interactions == 123 + 4096 + 7

    def test_auto_mode_switches_to_jump_and_converges(self):
        n = 64
        protocol = SilentNStateSSR(n)
        rng = make_rng(12, "kernel-switch")
        sim = CountSimulation(
            protocol, protocol.random_configuration(rng), rng=rng, batched=True
        )
        assert sim.mode == "interaction"
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim.mode == "jump"
        assert sim.silent
        assert sim.correct

    def test_randomized_pairs_replay_scalar(self):
        protocol = KernelCoinFlip(4)
        sim = CountSimulation(
            protocol,
            [1, 1, 1, 1],
            rng=make_rng(13, "kernel-memo"),
            mode="interaction",
            batched=True,
        )
        sim.run(400)
        # Treating the first (1,1) outcome as a known null and scanning
        # past it would either pin the population or collapse it; under
        # the true 1/2 law both states stay occupied with overwhelming
        # probability.
        occupancy = sim.occupancy()
        assert occupancy.get((0, 1), 0) >= 1
        assert occupancy.get((0, 0), 0) >= 1

    def test_table_overflow_disables_batching_not_correctness(self, monkeypatch):
        monkeypatch.setattr(countsim_module, "MAX_TABLE_DIM", 4)
        n = 16
        protocol = SilentNStateSSR(n)
        rng = make_rng(14, "kernel-cap")
        sim = CountSimulation(
            protocol, protocol.random_configuration(rng), rng=rng, batched=True
        )
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim._batch_disabled  # more than 4 slots were occupied
        assert sim.correct

    def test_corrupt_resyncs_batched_state(self):
        n = 32
        protocol = SilentNStateSSR(n)
        rng = make_rng(15, "kernel-corrupt")
        sim = CountSimulation(
            protocol, protocol.random_configuration(rng), rng=rng, batched=True
        )
        assert sim.run_until_silent(max_interactions=10**8)
        victims = sim.sample_victim_slots(4, rng)
        sim.corrupt(victims, [protocol.random_state(rng) for _ in victims])
        assert sum(sim.occupancy().values()) == n
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim.correct


# ---------------------------------------------------------------------------
# Distributional equivalence of the batched path
# ---------------------------------------------------------------------------


@requires_numpy
@pytest.mark.slow
class TestBatchedDistribution:
    """Seeded KS checks: batched and unbatched laws coincide.

    Same thresholds as the count engine's own equivalence suite: with
    120-vs-120 samples the 5%-level KS critical value is ~0.175.
    """

    TRIALS = 120

    def _stabilization_times(self, make_protocol, make_states, engine, label):
        times = []
        for trial in range(self.TRIALS):
            protocol = make_protocol()
            rng = make_rng(51, label, trial)
            states = make_states(protocol, rng)
            sim = CountSimulation(protocol, states, rng=rng, batched=engine == "vector")
            assert sim.run_until_silent(max_interactions=10**8)
            times.append(sim.streak_start or 0)
        return times

    def test_ciw_convergence_interactions(self):
        def protocol():
            return SilentNStateSSR(6)

        def states(p, rng):
            return p.random_configuration(rng)

        count_times = self._stabilization_times(protocol, states, "count", "ks-c")
        vector_times = self._stabilization_times(protocol, states, "vector", "ks-v")
        assert ks_statistic(count_times, vector_times) < 0.17
        assert statistics.mean(vector_times) == pytest.approx(
            statistics.mean(count_times), rel=0.15
        )

    def test_optimal_silent_convergence_interactions(self):
        def protocol():
            return OptimalSilentSSR(6)

        def states(p, rng):
            return p.duplicate_rank_configuration(rank=1)

        count_times = self._stabilization_times(protocol, states, "count", "ks-os-c")
        vector_times = self._stabilization_times(protocol, states, "vector", "ks-os-v")
        assert ks_statistic(count_times, vector_times) < 0.17
        assert statistics.mean(vector_times) == pytest.approx(
            statistics.mean(count_times), rel=0.15
        )

    def test_randomized_protocol_occupancy_distribution(self):
        n, horizon = 6, 60

        def ones_after(engine, label):
            ones = []
            for trial in range(self.TRIALS):
                protocol = KernelCoinFlip(n)
                rng = make_rng(52, label, trial)
                states = protocol.random_configuration(rng)
                sim = CountSimulation(
                    protocol, states, rng=rng, batched=engine == "vector"
                )
                sim.run(horizon)
                ones.append(sim.occupancy().get((0, 1), 0))
            return ones

        count_ones = ones_after("count", "ks-coin-c")
        vector_ones = ones_after("vector", "ks-coin-v")
        assert ks_statistic(count_ones, vector_ones) < 0.17


# ---------------------------------------------------------------------------
# Exact-chain oracle acceptance
# ---------------------------------------------------------------------------


@requires_numpy
@pytest.mark.slow
class TestVerifyOracle:
    def test_vector_estimate_within_exact_band(self):
        from repro.statics.oracle import verify_target

        report = verify_target("SilentNStateSSR", n=4, trials=300)
        assert report.ok, [f.message for f in report.findings]
        vector = [e for e in report.estimates if e.engine == "vector"]
        assert vector, "the oracle must exercise the vector engine"
        assert vector[0].within_band


# ---------------------------------------------------------------------------
# Per-seed goldens of the batched path
# ---------------------------------------------------------------------------


def _batched_golden_start(name, n, rng):
    """Protocol and start configuration of one :class:`TestBatchedGolden` case."""
    if name == "ciw":
        protocol = SilentNStateSSR(n)
        return protocol, protocol.random_configuration(rng)
    if name == "optimal-silent":
        protocol = OptimalSilentSSR(n)
        return protocol, protocol.duplicate_rank_configuration(rank=1)
    if name == "lazy-ciw":
        protocol = KernelLazyNullCiw(n)
        return protocol, protocol.random_configuration(rng)
    protocol = KernelCoinFlip(n)
    return protocol, protocol.random_configuration(rng)


@requires_numpy
class TestBatchedGolden:
    """Per-seed pins of the batched sampler with adaptive batch sizes.

    Each case seeds ``make_rng(seed, "batched-golden", name, n)``, runs
    ``run(HORIZON * n * n)`` in the given mode and pins
    ``(interactions, events, changes, sorted(occupancy().items()))``.
    The batched draws come from a numpy Generator seeded from the python
    RNG, so any change to batch sizing, the known-null scan or conflict
    truncation moves these values.  ``auto`` runs on the silent
    protocols also cover the switch to jump mode and stop at silence.
    """

    HORIZON = 20

    GOLDEN = {
        ("ciw", 48, "interaction", 0): (
            46080, 46080, 207,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1),
             ((0, 18), 1), ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1),
             ((0, 24), 1), ((0, 25), 1), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1),
             ((0, 30), 1), ((0, 31), 1), ((0, 32), 1), ((0, 33), 1), ((0, 34), 1), ((0, 35), 1),
             ((0, 36), 1), ((0, 37), 2), ((0, 38), 1), ((0, 39), 1), ((0, 41), 1), ((0, 42), 1),
             ((0, 43), 1), ((0, 44), 1), ((0, 45), 1), ((0, 46), 1), ((0, 47), 1)],
        ),
        ("ciw", 48, "interaction", 1): (
            46080, 46080, 149,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1),
             ((0, 18), 1), ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1),
             ((0, 24), 1), ((0, 25), 1), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1),
             ((0, 30), 1), ((0, 31), 1), ((0, 32), 1), ((0, 33), 1), ((0, 34), 1), ((0, 35), 1),
             ((0, 36), 1), ((0, 37), 1), ((0, 38), 1), ((0, 39), 1), ((0, 40), 1), ((0, 41), 1),
             ((0, 42), 1), ((0, 43), 1), ((0, 44), 1), ((0, 45), 1), ((0, 46), 1),
             ((0, 47), 1)],
        ),
        ("ciw", 48, "interaction", 2): (
            46080, 46080, 177,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1),
             ((0, 18), 1), ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1),
             ((0, 24), 1), ((0, 25), 1), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1),
             ((0, 30), 1), ((0, 31), 1), ((0, 32), 1), ((0, 33), 1), ((0, 34), 1), ((0, 35), 1),
             ((0, 36), 1), ((0, 37), 1), ((0, 38), 1), ((0, 39), 1), ((0, 40), 1), ((0, 41), 1),
             ((0, 42), 1), ((0, 43), 1), ((0, 44), 1), ((0, 45), 1), ((0, 46), 1),
             ((0, 47), 1)],
        ),
        ("ciw", 48, "auto", 0): (
            46080, 262, 198,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1),
             ((0, 18), 1), ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1),
             ((0, 24), 1), ((0, 25), 1), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1),
             ((0, 30), 1), ((0, 31), 1), ((0, 32), 2), ((0, 33), 1), ((0, 34), 2), ((0, 35), 1),
             ((0, 36), 1), ((0, 37), 1), ((0, 39), 1), ((0, 41), 1), ((0, 42), 1), ((0, 43), 1),
             ((0, 44), 1), ((0, 45), 1), ((0, 46), 1), ((0, 47), 1)],
        ),
        ("ciw", 48, "auto", 1): (
            46080, 212, 147,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 2), ((0, 9), 1), ((0, 11), 1), ((0, 12), 1),
             ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1), ((0, 18), 1),
             ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1), ((0, 24), 1),
             ((0, 25), 1), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1), ((0, 30), 1),
             ((0, 31), 1), ((0, 32), 1), ((0, 33), 1), ((0, 34), 1), ((0, 35), 1), ((0, 36), 1),
             ((0, 37), 1), ((0, 38), 1), ((0, 39), 1), ((0, 40), 1), ((0, 41), 1), ((0, 42), 1),
             ((0, 43), 1), ((0, 44), 1), ((0, 45), 1), ((0, 46), 1), ((0, 47), 1)],
        ),
        ("ciw", 48, "auto", 2): (
            46080, 291, 162,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1), ((0, 16), 1), ((0, 17), 1),
             ((0, 18), 1), ((0, 19), 1), ((0, 20), 1), ((0, 21), 1), ((0, 22), 1), ((0, 23), 1),
             ((0, 24), 1), ((0, 25), 2), ((0, 26), 1), ((0, 27), 1), ((0, 28), 1), ((0, 29), 1),
             ((0, 30), 1), ((0, 31), 1), ((0, 32), 1), ((0, 33), 1), ((0, 34), 1), ((0, 35), 1),
             ((0, 36), 1), ((0, 37), 1), ((0, 38), 1), ((0, 39), 1), ((0, 41), 1), ((0, 42), 1),
             ((0, 43), 1), ((0, 44), 1), ((0, 45), 1), ((0, 46), 1), ((0, 47), 1)],
        ),
        ("optimal-silent", 6, "interaction", 0): (
            720, 720, 111,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 6, "interaction", 1): (
            720, 720, 142,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 6, "interaction", 2): (
            720, 720, 119,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 6, "auto", 0): (
            225, 225, 111,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 6, "auto", 1): (
            252, 252, 142,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 6, "auto", 2): (
            208, 208, 119,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((0, 5, 0), 1),
             ((0, 6, 0), 1)],
        ),
        ("optimal-silent", 16, "interaction", 0): (
            5120, 5120, 755,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("optimal-silent", 16, "interaction", 1): (
            5120, 5120, 788,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("optimal-silent", 16, "interaction", 2): (
            5120, 5120, 694,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("optimal-silent", 16, "auto", 0): (
            938, 938, 755,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("optimal-silent", 16, "auto", 1): (
            1175, 1175, 788,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("optimal-silent", 16, "auto", 2): (
            1157, 825, 761,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
        ("coinflip", 8, "interaction", 0): (
            1280, 1280, 396,
            [((0, 0), 1), ((0, 1), 7)],
        ),
        ("coinflip", 8, "interaction", 1): (
            1280, 1280, 388,
            [((0, 0), 3), ((0, 1), 5)],
        ),
        ("coinflip", 8, "interaction", 2): (
            1280, 1280, 414,
            [((0, 0), 1), ((0, 1), 7)],
        ),
        ("coinflip", 8, "auto", 0): (
            1280, 1280, 396,
            [((0, 0), 1), ((0, 1), 7)],
        ),
        ("coinflip", 8, "auto", 1): (
            1280, 1280, 388,
            [((0, 0), 3), ((0, 1), 5)],
        ),
        ("coinflip", 8, "auto", 2): (
            1280, 1280, 414,
            [((0, 0), 1), ((0, 1), 7)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
    def test_trajectory(self, case):
        name, n, mode, seed = case
        rng = make_rng(seed, "batched-golden", name, n)
        protocol, states = _batched_golden_start(name, n, rng)
        sim = CountSimulation(protocol, states, rng=rng, mode=mode, batched=True)
        sim.run(self.HORIZON * n * n)
        interactions, events, changes, occupancy = self.GOLDEN[case]
        assert (sim.interactions, sim.events, sim.changes) == (interactions, events, changes)
        assert sorted(sim.occupancy().items()) == occupancy

    #: ``(name, n, seed)`` -> the same four values after ``auto`` runs
    #: into jump mode, a fault and a second run.
    FAULT_GOLDEN = {
        ("ciw", 16, 0): (
            4533, 278, 64,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1), ((0, 8), 1), ((0, 9), 1), ((0, 10), 1), ((0, 11), 1),
             ((0, 12), 1), ((0, 13), 1), ((0, 14), 1), ((0, 15), 1)],
        ),
        ("lazy-ciw", 8, 0): (
            2560, 830, 11,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1)],
        ),
        ("lazy-ciw", 8, 1): (
            2560, 1104, 21,
            [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((0, 5), 1),
             ((0, 6), 1), ((0, 7), 1)],
        ),
        ("optimal-silent", 16, 0): (
            1843, 1843, 1429,
            [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 4, 2), 1), ((0, 5, 2), 1),
             ((0, 6, 2), 1), ((0, 7, 2), 1), ((0, 8, 1), 1), ((0, 9, 0), 1), ((0, 10, 0), 1),
             ((0, 11, 0), 1), ((0, 12, 0), 1), ((0, 13, 0), 1), ((0, 14, 0), 1),
             ((0, 15, 0), 1), ((0, 16, 0), 1)],
        ),
    }

    @pytest.mark.parametrize(
        "case", sorted(FAULT_GOLDEN), ids=lambda case: "-".join(map(str, case))
    )
    def test_trajectory_through_a_fault(self, case):
        """``auto`` into jump mode, ``corrupt`` three agents, run again.

        The fault drops the engine back to batched interaction mode with
        a memo filled partly by jump mode.  On ``lazy-ciw`` some of those
        entries are null pairs the batched sampler never scanned; each
        must still end its batch once, as an unprobed pair does.
        """
        name, n, seed = case
        rng = make_rng(seed, "batched-golden-fault", name, n)
        protocol, states = _batched_golden_start(name, n, rng)
        sim = CountSimulation(protocol, states, rng=rng, batched=True)
        sim.run(self.HORIZON * n * n)
        assert sim.mode == "jump"
        victims = sim.sample_victim_slots(3, rng)
        sim.corrupt(victims, [protocol.random_state(rng) for _ in victims])
        assert sim.mode == "interaction"
        sim.run(self.HORIZON * n * n)
        interactions, events, changes, occupancy = self.FAULT_GOLDEN[case]
        assert (sim.interactions, sim.events, sim.changes) == (interactions, events, changes)
        assert sorted(sim.occupancy().items()) == occupancy
