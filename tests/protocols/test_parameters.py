"""Tests for the protocol parameter sets."""

import math

import pytest

from repro.protocols.parameters import (
    OptimalSilentParameters,
    ResetParameters,
    SublinearParameters,
    calibrated_optimal_silent,
    calibrated_reset_linear_delay,
    calibrated_reset_log_delay,
    calibrated_sublinear,
    log2n_bits,
    paper_reset_log_delay,
    tau_timer,
)


class TestValidation:
    def test_reset_parameters_positive(self):
        with pytest.raises(ValueError):
            ResetParameters(r_max=0, d_max=10)
        with pytest.raises(ValueError):
            ResetParameters(r_max=5, d_max=0)

    def test_optimal_silent_e_max_positive(self):
        with pytest.raises(ValueError):
            OptimalSilentParameters(reset=ResetParameters(5, 10), e_max=0)

    def test_sublinear_fields_validated(self):
        reset = ResetParameters(5, 50)
        with pytest.raises(ValueError):
            SublinearParameters(reset=reset, name_bits=0, h=1, s_max=16, t_h=4)
        with pytest.raises(ValueError):
            SublinearParameters(reset=reset, name_bits=6, h=-1, s_max=16, t_h=4)
        with pytest.raises(ValueError):
            SublinearParameters(reset=reset, name_bits=6, h=1, s_max=1, t_h=4)
        with pytest.raises(ValueError):
            SublinearParameters(reset=reset, name_bits=6, h=1, s_max=16, t_h=0)


class TestNameBits:
    def test_three_log2_n(self):
        assert log2n_bits(16) == 12
        assert log2n_bits(17) == 15  # ceil(log2 17) = 5
        with pytest.raises(ValueError):
            log2n_bits(1)

    def test_name_space_cubic(self):
        # 2^(3 log2 n) >= n^3: enough for whp collision-free renaming.
        for n in (8, 16, 100):
            assert 2 ** log2n_bits(n) >= n**3


class TestTauTimer:
    def test_single_formula_covers_both_regimes(self):
        n = 1024
        # Constant H: ~ scale * (H+1) * n^(1/(H+1)).
        assert tau_timer(n, 1, scale=1.0) == math.ceil(2 * n**0.5)
        # H = log2 n: the power term is O(1), so Theta(log n) overall.
        h = 10
        assert tau_timer(n, h, scale=1.0) <= 4 * (h + 1)

    def test_floor(self):
        assert tau_timer(2, 0, scale=0.1) >= 4


class TestDerivedSets:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_paper_and_calibrated_share_asymptotic_form(self, n):
        params = calibrated_reset_linear_delay(n)
        assert params.d_max >= 2 * params.r_max  # D_max = Omega(R_max)
        assert params.d_max >= n  # Theta(n) dormancy
        for factory in (paper_reset_log_delay, calibrated_reset_log_delay):
            params = factory(n)
            assert params.d_max >= 2 * params.r_max
            assert params.d_max <= 200 * math.log(max(n, 2))  # Theta(log n)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_optimal_silent_e_max_linear(self, n):
        assert calibrated_optimal_silent(n).e_max >= 8 * n  # ranking fits with slack

    @pytest.mark.parametrize("n,h", [(8, 0), (8, 1), (16, 2), (16, 4)])
    def test_sublinear_dormancy_fits_renaming(self, n, h):
        params = calibrated_sublinear(n, h)
        # Dormant agents append one name bit per interaction: the
        # delay must leave room to regrow a full name.
        assert params.reset.d_max >= params.name_bits
        assert params.h == h
        assert params.s_max >= n * n  # Theta(n^2) sync values

    def test_paper_r_max_is_60_ln_n(self):
        n = 100
        assert paper_reset_log_delay(n).r_max == math.ceil(60 * math.log(n))

    def test_calibrated_r_max_exceeds_recruitment_epidemic(self):
        # The recruitment epidemic takes ~4 ln n own-interactions (whp);
        # the calibrated margin keeps waves from fragmenting.
        for n in (16, 64, 256):
            assert calibrated_reset_log_delay(n).r_max >= 5 * math.log(n)
