"""Tests for repro.core.rng: deterministic, independent seed streams."""

import pytest

from repro.core.rng import derive_seed, geometric, make_rng, trial_rngs


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_matter(self):
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_paths_do_not_collide_by_concatenation(self):
        # ("ab",) and ("a", "b") must be distinct streams.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_64_bit_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**64

    def test_int_and_str_labels_both_work(self):
        assert derive_seed(1, 5) == derive_seed(1, "5")


class TestMakeRng:
    def test_same_labels_same_stream(self):
        a = make_rng(7, "trial", 3)
        b = make_rng(7, "trial", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_stream(self):
        a = make_rng(7, "trial", 3)
        b = make_rng(7, "trial", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestTrialRngs:
    def test_yields_requested_count(self):
        assert len(list(trial_rngs(1, 7, "x"))) == 7

    def test_streams_are_independent_of_trial_count(self):
        # Adding trials must not perturb earlier streams.
        first_of_three = next(iter(trial_rngs(1, 3, "x"))).random()
        first_of_ten = next(iter(trial_rngs(1, 10, "x"))).random()
        assert first_of_three == first_of_ten


class TestGeometric:
    def test_p_one_is_zero(self, rng):
        assert geometric(rng, 1.0) == 0

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            geometric(rng, 0.0)
        with pytest.raises(ValueError):
            geometric(rng, 1.5)

    def test_mean_matches_theory(self, rng):
        p = 0.2
        samples = [geometric(rng, p) for _ in range(20_000)]
        # E[failures before success] = (1 - p) / p = 4.
        assert abs(sum(samples) / len(samples) - 4.0) < 0.15
