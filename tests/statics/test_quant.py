"""Tests for the quantitative subsystem: exact chains, oracle, synthesis.

The regression anchor is deliberate redundancy: the generic chain solver
is checked against an *independent* reimplementation of the old
``analysis/exact.py`` algorithm (count-vector chain, dense numpy solve)
at n=4 and n=6, against the paper's closed-form worst case, and against
both simulation engines through the oracle's exact confidence bands.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from repro.analysis.exact import (
    colliding_weight,
    expected_absorption_interactions,
    is_absorbing,
    successors,
    worst_case_expected_interactions,
)
from repro.core.fastpath import worst_case_ciw_counts
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.loose_stabilization import LooselyStabilizingLE
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters
from repro.statics import quant
from repro.statics.modelcheck import ModelCheckError, StateSpace
from repro.statics.mutants import NondeterministicRankingSSR, SluggishRankingSSR
from repro.statics.quant import (
    QuantError,
    build_chain,
    config_of,
    hitting_distribution,
    hitting_moments,
    transition_distribution,
    worst_case,
)


def old_exact_solver(start):
    """The pre-refactor ``analysis/exact.py`` algorithm, verbatim in
    miniature: dense numpy solve of the count-vector jump chain."""
    import numpy as np

    n = sum(start)
    states = [start]
    seen = {start}
    while states:
        frontier = []
        for state in states:
            for nxt, _ in successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        states = frontier
    ordered = sorted(seen)
    transient = [s for s in ordered if not is_absorbing(s)]
    index = {s: i for i, s in enumerate(transient)}
    matrix = np.zeros((len(transient), len(transient)))
    constant = np.zeros(len(transient))
    for state, row in index.items():
        weight = colliding_weight(state)
        matrix[row, row] = 1.0
        constant[row] = n * (n - 1) / weight
        for nxt, move_weight in successors(state):
            if nxt in index:
                matrix[row, index[nxt]] -= move_weight / weight
    solution = np.linalg.solve(matrix, constant)
    return float(solution[index[start]])


def old_transition_distribution(space, config):
    """The k^2 pair scan ``transition_distribution`` replaced: one
    Fraction per schedulable ordered state pair, null pairs included."""
    n = space.protocol.n
    counts = {}
    for index in config:
        counts[index] = counts.get(index, 0) + 1
    distribution = {}
    for i, count_i in counts.items():
        for j, count_j in counts.items():
            weight = count_i * (count_j - (1 if i == j else 0))
            if weight == 0:
                continue
            outcome = space.pairs[(i, j)]
            successor = space.successor(config, (i, j)) if outcome.changed else config
            probability = Fraction(weight, n * (n - 1))
            distribution[successor] = distribution.get(successor, Fraction(0)) + probability
    return sorted(distribution.items())


def old_chain(space, starts=None, target="correct-sink"):
    """Reference ``(configs, rows, target)`` from the k^2 scan, exploring
    reachable chains with one pass and building rows with another."""
    if starts is None:
        configs = space.configurations()
    else:
        seen = {config_of(space, states) for states in starts}
        frontier = list(seen)
        while frontier:
            for successor, _ in old_transition_distribution(space, frontier.pop()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        configs = sorted(seen)
    index = {config: i for i, config in enumerate(configs)}
    rows = [
        [(index[successor], p) for successor, p in old_transition_distribution(space, c)]
        for c in configs
    ]

    def is_sink(config):
        return all(not space.pairs[pair].changed for pair in space.ordered_pairs(config))

    if target == "correct-sink":
        flags = [is_sink(c) and space.is_correct(c) for c in configs]
    else:
        flags = [space.is_correct(c) for c in configs]
    return configs, rows, flags


def tiny_optimal(n):
    return OptimalSilentSSR(
        n, OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    )


def ciw_witness(n):
    protocol = SilentNStateSSR(n)
    return protocol, protocol.counts_to_configuration(worst_case_ciw_counts(n))


class TestChainConstruction:
    def test_rows_are_exact_distributions(self):
        chain = build_chain(SilentNStateSSR(4))
        assert chain.size == comb(4 + 4 - 1, 4)
        for row in chain.rows:
            assert sum(probability for _, probability in row) == Fraction(1)

    def test_transition_probabilities_match_pair_counts(self):
        # All four agents at rank 0: every ordered pair collides, so the
        # successor (3 at rank 0, 1 at rank 1) has probability 1.
        space = StateSpace(SilentNStateSSR(4))
        distribution = transition_distribution(space, (0, 0, 0, 0))
        assert distribution == [((0, 0, 0, 1), Fraction(1))]

    def test_self_loop_probability(self):
        # (0, 0, 1, 2): 2 of 12 ordered pairs collide.
        space = StateSpace(SilentNStateSSR(4))
        distribution = dict(transition_distribution(space, (0, 0, 1, 2)))
        assert distribution[(0, 0, 1, 2)] == Fraction(10, 12)
        assert distribution[(0, 1, 1, 2)] == Fraction(2, 12)

    def test_config_of_sorts_and_validates(self):
        space = StateSpace(SilentNStateSSR(3))
        assert config_of(space, [2, 0, 1]) == (0, 1, 2)
        with pytest.raises(QuantError):
            config_of(space, [0, 1])  # wrong population
        with pytest.raises(QuantError):
            config_of(space, [0, 1, 99])  # unknown state

    def test_reachable_coverage_is_closed(self):
        protocol = SilentNStateSSR(4)
        chain = build_chain(
            protocol, starts=[protocol.worst_case_configuration()]
        )
        assert chain.coverage == "reachable"
        assert 0 < chain.size < comb(4 + 4 - 1, 4)
        for row in chain.rows:
            assert sum(probability for _, probability in row) == Fraction(1)

    def test_reachable_cap_raises_typed_error(self):
        protocol = SilentNStateSSR(4)
        with pytest.raises(QuantError, match="refusing to truncate"):
            build_chain(
                protocol,
                starts=[protocol.worst_case_configuration()],
                max_configs=2,
            )

    def test_missing_target_is_ill_posed(self):
        # Loose LE at t_max=1 cannot reach a one-leader configuration
        # from the cold start; the hitting time must refuse, not lie.
        protocol = LooselyStabilizingLE(4, t_max=1)
        rng = random.Random(0)
        start = [protocol.initial_state(rng) for _ in range(4)]
        with pytest.raises(QuantError, match="ill-posed"):
            build_chain(protocol, starts=[start], target="correct")


class TestChangingPairChain:
    """The chain built from state-changing pairs only is the k^2 scan's
    chain, Fraction for Fraction, and each row is computed once."""

    @pytest.mark.parametrize(
        "protocol",
        [SilentNStateSSR(n) for n in range(3, 7)] + [SluggishRankingSSR(4), tiny_optimal(3)],
        ids=["ciw-n3", "ciw-n4", "ciw-n5", "ciw-n6", "sluggish-n4", "optimal-n3"],
    )
    def test_full_chain_matches_reference(self, protocol):
        chain = build_chain(protocol)
        configs, rows, target = old_chain(chain.space)
        assert chain.configs == configs
        assert chain.rows == rows
        assert chain.target == target

    def test_loose_reachable_chain_matches_reference(self):
        chain, cold = TestUnreachable().make_chain()
        configs, rows, target = old_chain(
            chain.space, starts=[cold, chain.space.protocol.ideal_configuration()],
            target="correct",
        )
        assert chain.coverage == "reachable"
        assert chain.configs == configs
        assert chain.rows == rows
        assert chain.target == target

    @pytest.mark.parametrize("n", [16, 32])
    def test_witness_chain_matches_reference(self, n):
        protocol, states = ciw_witness(n)
        chain = build_chain(protocol, starts=[states])
        configs, rows, target = old_chain(chain.space, starts=[states])
        assert chain.configs == configs
        assert chain.rows == rows
        assert chain.target == target

    def test_incomplete_table_semantics(self):
        # Same-rank collisions replay differently, so every (i, i) pair
        # is missing from the table: a configuration that can schedule
        # one refuses, one that cannot is an exact self-loop.
        space = StateSpace(NondeterministicRankingSSR(4))
        with pytest.raises(QuantError, match="pair table is incomplete"):
            transition_distribution(space, (0, 0, 1, 2))
        assert transition_distribution(space, (0, 1, 2, 3)) == [
            ((0, 1, 2, 3), Fraction(1))
        ]

    def test_each_distribution_computed_once(self, monkeypatch):
        calls = []
        original = quant.transition_distribution

        def counted(space, config):
            calls.append(config)
            return original(space, config)

        monkeypatch.setattr(quant, "transition_distribution", counted)
        protocol, states = ciw_witness(8)
        chain = build_chain(protocol, starts=[states])
        assert len(calls) == chain.size


class TestConfigurationCap:
    """Satellite: the cap raises a typed error, never truncates."""

    def test_configurations_cap_raises_model_check_error(self):
        space = StateSpace(SilentNStateSSR(4))
        with pytest.raises(ModelCheckError, match="refusing to truncate"):
            space.configurations(max_configs=10)

    def test_full_chain_cap_propagates(self):
        with pytest.raises(ModelCheckError):
            build_chain(SilentNStateSSR(4), max_configs=10)


class TestExactValues:
    """Old-vs-new identity: the generic solver reproduces the dedicated
    count-vector solver it replaced (same chain, independent code)."""

    @pytest.mark.parametrize(
        "start", [(4, 0, 0, 0), (2, 0, 1, 1), (2, 1, 1, 0)]
    )
    def test_matches_old_solver_n4(self, start):
        assert expected_absorption_interactions(start) == pytest.approx(
            old_exact_solver(start), rel=1e-12
        )

    def test_matches_old_solver_n6(self):
        start = (6, 0, 0, 0, 0, 0)
        assert expected_absorption_interactions(start) == pytest.approx(
            old_exact_solver(start), rel=1e-12
        )

    @pytest.mark.parametrize("n", [4, 6])
    def test_worst_case_closed_form(self, n):
        # The line witness telescopes to n (n-1)^2 / 2 exactly.
        assert worst_case_expected_interactions(n) == pytest.approx(
            n * (n - 1) ** 2 / 2
        )

    def test_full_space_worst_case(self):
        value, witness, moments = worst_case(SilentNStateSSR(4))
        # The four all-same-rank configurations tie for the global worst
        # at n=4, strictly above the paper's line witness (18.0).
        assert len(set(witness)) == 1
        assert value == pytest.approx(22.0)
        assert moments.solver in ("scipy", "gauss-seidel")

    def test_variance_positive_on_transient_start(self):
        protocol = SilentNStateSSR(4)
        chain = build_chain(protocol)
        moments = hitting_moments(chain)
        assert moments.variance_from((0, 0, 0, 0)) > 0
        # Target configurations have zero time and zero variance.
        target = chain.configs[chain.target_indices[0]]
        assert moments.expected_from(target) == 0.0
        assert moments.variance_from(target) == 0.0


class TestSolvers:
    def test_fallback_agrees_with_auto(self):
        chain = build_chain(SilentNStateSSR(5))
        auto = hitting_moments(chain, solver="auto")
        fallback = hitting_moments(chain, solver="gauss-seidel")
        for a, b in zip(auto.expected, fallback.expected):
            assert a == pytest.approx(b, rel=1e-9)

    def test_scipy_agrees_with_fallback(self):
        pytest.importorskip("scipy")
        chain = build_chain(SilentNStateSSR(5))
        sparse = hitting_moments(chain, solver="scipy")
        fallback = hitting_moments(chain, solver="gauss-seidel")
        assert sparse.solver == "scipy"
        assert fallback.solver == "gauss-seidel"
        for a, b in zip(sparse.expected, fallback.expected):
            assert a == pytest.approx(b, rel=1e-9)
        for a, b in zip(sparse.second_moment, fallback.second_moment):
            assert a == pytest.approx(b, rel=1e-9)

    def test_unknown_solver_rejected(self):
        chain = build_chain(SilentNStateSSR(3))
        with pytest.raises(ValueError):
            hitting_moments(chain, solver="cholesky")

    @pytest.mark.parametrize("n", [64, 256])
    def test_auto_certifies_witness_chain_with_gauss_seidel(self, n):
        protocol = SilentNStateSSR(n)
        start = protocol.counts_to_configuration(tuple(worst_case_ciw_counts(n)))
        moments = hitting_moments(build_chain(protocol, starts=[start]))
        assert moments.solver == "gauss-seidel"
        assert moments.expected_from_states(start) == pytest.approx(
            n * (n - 1) ** 2 / 2, rel=1e-9
        )

    @staticmethod
    def verify_chain(n):
        """The chain ``repro verify`` builds for Optimal-Silent at ``n``."""
        from repro.statics.oracle import _TARGETS

        target = _TARGETS["OptimalSilentSSR"]
        protocol = target.make_protocol(n)
        return build_chain(protocol, starts=[list(target.make_start(protocol))])

    def test_auto_falls_back_to_scipy_past_the_budget(self):
        pytest.importorskip("scipy")
        chain = self.verify_chain(4)
        assert chain.size >= 1265
        assert hitting_moments(chain).solver == "scipy"

    def test_gauss_seidel_failure_names_the_lu_solver(self, monkeypatch):
        monkeypatch.setattr(quant, "MAX_SWEEPS", 1)
        chain = self.verify_chain(3)
        with pytest.raises(QuantError, match="sparse LU solver") as caught:
            hitting_moments(chain, solver="gauss-seidel")
        assert "tolerance" not in str(caught.value)

    @pytest.mark.slow
    def test_table1_quick_pass_does_not_import_scipy(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        script = (
            "import sys\n"
            "from repro.experiments.cli import main\n"
            "main(['run', 'table1', '--quick', '--workers', '1', '--no-ledger',\n"
            f"      '--csv', {str(tmp_path)!r}, '-o', {str(tmp_path / 't1.md')!r}])\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == "False"


class TestUnreachable:
    """Infinite expected hitting times are detected exactly."""

    def make_chain(self):
        # Loose LE at t_max=1: the cold start's reachable component
        # contains no one-leader configuration, so seeding the chain
        # with the ideal configuration too yields a chain whose target
        # exists but is unreachable from the cold start.
        protocol = LooselyStabilizingLE(4, t_max=1)
        rng = random.Random(0)
        cold = [protocol.initial_state(rng) for _ in range(4)]
        chain = build_chain(
            protocol,
            starts=[cold, protocol.ideal_configuration()],
            target="correct",
        )
        return chain, cold

    def test_raise_mode_names_witnesses(self):
        chain, _ = self.make_chain()
        with pytest.raises(QuantError, match="positive probability"):
            hitting_moments(chain, on_unreachable="raise")

    def test_inf_mode_reports_infinity(self):
        chain, cold = self.make_chain()
        moments = hitting_moments(chain, on_unreachable="inf")
        assert moments.expected_from_states(cold) == float("inf")
        assert moments.infinite  # witnesses retained
        assert moments.variance_from(chain.config_of(cold)) == float("inf")
        # The target itself still reports zero, not infinity.
        target = chain.configs[chain.target_indices[0]]
        assert moments.expected_from(target) == 0.0


class TestHittingDistribution:
    def test_pmf_sums_to_one(self):
        protocol = SilentNStateSSR(4)
        chain = build_chain(protocol)
        start = chain.config_of(protocol.counts_to_configuration((4, 0, 0, 0)))
        distribution = hitting_distribution(chain, start)
        assert sum(distribution.pmf) + distribution.tail == pytest.approx(1.0)
        assert distribution.tail <= 1e-9

    def test_mean_matches_expected_hitting_time(self):
        protocol = SilentNStateSSR(4)
        chain = build_chain(protocol)
        start = chain.config_of(protocol.counts_to_configuration((4, 0, 0, 0)))
        moments = hitting_moments(chain)
        distribution = hitting_distribution(chain, start, tail_tol=1e-12)
        assert distribution.mean_lower_bound() == pytest.approx(
            moments.expected_from(start), abs=1e-6
        )

    def test_two_agents_geometric(self):
        # n=2 from (0, 0): absorption is certain after one interaction.
        chain = build_chain(SilentNStateSSR(2))
        distribution = hitting_distribution(chain, (0, 0))
        assert distribution.pmf[0] == 0.0
        assert distribution.pmf[1] == pytest.approx(1.0)

    def test_start_on_target_is_immediate(self):
        chain = build_chain(SilentNStateSSR(3))
        target = chain.configs[chain.target_indices[0]]
        distribution = hitting_distribution(chain, target)
        assert distribution.pmf == [1.0]
        assert distribution.tail == 0.0


class TestOracle:
    """The sharp cross-validation: engines vs exact bands at n=4."""

    def test_all_engines_within_band(self):
        from repro.statics.oracle import verify_target

        report = verify_target("SilentNStateSSR", n=4, trials=300)
        assert report.ok, [f.message for f in report.findings]
        engines = {estimate.engine for estimate in report.estimates}
        # The vector kernel earns its own Monte-Carlo band (independent
        # scheduling draws); without numpy it falls back to the count
        # engine and still must land inside the band.
        assert engines == {"generic", "count", "vector"}
        for estimate in report.estimates:
            assert estimate.within_band
        # Acceptance: the verify exact value is bit-for-bit the
        # analysis.exact value (they now share one solver).
        assert report.exact_interactions == expected_absorption_interactions(
            (2, 1, 1, 0)
        )

    def test_quantitative_mutant_flagged(self):
        from repro.statics.oracle import RULE_QUANT_SPEC, verify_target

        report = verify_target("SluggishRankingSSR", n=4, trials=50)
        assert not report.ok
        spec_errors = [
            finding
            for finding in report.findings
            if finding.rule_id == RULE_QUANT_SPEC and finding.severity.value == "error"
        ]
        assert spec_errors, "the exact-chain comparison must flag the mutant"
        assert report.reference_interactions == pytest.approx(18.0)
        assert report.exact_interactions > report.reference_interactions

    def test_mutant_passes_qualitative_lint_rules(self):
        # The mutant's whole point: qualitatively indistinguishable.
        from repro.statics.modelcheck import model_check

        outcomes = model_check(SluggishRankingSSR(4))
        assert all(outcome.passed for outcome in outcomes)

    def test_cli_verify_exit_codes(self, tmp_path):
        from repro.experiments.cli import main

        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(
                [
                    "verify",
                    "SilentNStateSSR",
                    "--trials",
                    "100",
                    "--ledger",
                    str(ledger),
                    "-o",
                    str(tmp_path / "verify.md"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "verify",
                    "SluggishRankingSSR",
                    "--trials",
                    "20",
                    "--no-ledger",
                    "-o",
                    str(tmp_path / "mutant.md"),
                ]
            )
            == 1
        )
        import json

        entries = [
            json.loads(line)
            for line in ledger.read_text().splitlines()
            if line.strip()
        ]
        assert entries and entries[0]["kind"] == "verify"
        assert entries[0]["ok"] is True

    def test_unknown_target_is_error(self):
        from repro.statics.oracle import verify_target

        report = verify_target("NoSuchProtocol")
        assert not report.ok


class TestSynthesis:
    def test_loose_tmax_known_optimal(self):
        from repro.statics.synth import run_synth

        result = run_synth("loose-tmax")
        assert result.ok, [f.message for f in result.findings]
        assert result.best is not None
        # t_max=1 is provably infeasible; 2 is the smallest that works.
        assert result.best.param == 2
        infeasible = [p.param for p in result.points if not p.feasible]
        assert infeasible == [1]

    def test_holding_time_monotone(self):
        from repro.statics.synth import run_synth

        result = run_synth("loose-holding")
        assert result.ok
        objectives = [point.objective for point in result.points]
        assert objectives == sorted(objectives)
        assert result.best is not None and result.best.param == 4

    def test_grid_override_skips_known_optimal_check(self):
        from repro.statics.synth import run_synth

        result = run_synth("loose-tmax", grid=[2, 3])
        assert result.ok
        assert result.best is not None and result.best.param == 2

    def test_cli_synth_end_to_end(self, tmp_path):
        from repro.experiments.cli import main

        assert (
            main(
                [
                    "synth",
                    "loose-tmax",
                    "loose-holding",
                    "--no-ledger",
                    "-o",
                    str(tmp_path / "synth.md"),
                ]
            )
            == 0
        )
        text = (tmp_path / "synth.md").read_text()
        assert "t_max" in text and "**<- optimal**" in text

    def test_unknown_spec_rejected(self):
        from repro.statics.synth import run_synth

        with pytest.raises(KeyError):
            run_synth("no-such-spec")
