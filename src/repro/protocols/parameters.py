"""Concrete protocol parameters.

The paper states its constants asymptotically (``R_max = Omega(log n)``,
``D_max = Theta(n)`` or ``Theta(log n)``, ``E_max = Theta(n)``,
``S_max = Theta(n^2)``, ``T_H = Theta(tau_{H+1})``) and, where concrete,
very conservatively (``R_max = 60 ln n`` comes from stacking
high-probability union bounds).  For an empirical reproduction the
asymptotic *form* is what matters; running toy populations with the
proof-grade constants would bury the scaling behaviour under enormous
additive terms.

This module centralizes both choices:

* :func:`paper_reset_log_delay` -- the proof-grade reset constants,
  which the ``reset`` experiment runs beside the calibrated ones; and
* the ``calibrated_*`` factories -- smaller constants of the same
  asymptotic form, validated by the test battery (self-stabilization
  from adversarial configurations still succeeds), used as defaults by
  experiments and benchmarks.

Every experiment records which constants it ran with (EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def log2n_bits(n: int) -> int:
    """Name length used by Sublinear-Time-SSR: ``3 * ceil(log2 n)`` bits.

    With ``n^3`` possible names, a fresh uniformly random assignment is
    collision-free with probability ``>= 1 - 1/n`` (birthday bound).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 3 * max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class ResetParameters:
    """Constants of the Propagate-Reset subprotocol (Protocol 2).

    ``r_max`` is the value a *triggered* agent loads into ``resetcount``;
    positivity then spreads by epidemic while decreasing, so after the
    reset wave every agent has been dormant.  ``d_max`` is the dormant
    delay before an agent awakens spontaneously (awakening also spreads
    by epidemic from the first awake agent).  The paper requires
    ``r_max = Omega(log n)`` and ``d_max = Omega(r_max)``.
    """

    r_max: int
    d_max: int

    def __post_init__(self) -> None:
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")


@dataclass(frozen=True)
class OptimalSilentParameters:
    """Constants of Optimal-Silent-SSR (Protocol 3)."""

    reset: ResetParameters
    #: Unsettled agents count ``e_max`` of their own interactions down to 0
    #: before declaring "nobody is ranking me" and triggering a reset.
    #: Theta(n), and large enough that leader-driven ranking (Theta(n)
    #: time, so Theta(n) interactions per agent) finishes comfortably.
    e_max: int

    def __post_init__(self) -> None:
        if self.e_max < 1:
            raise ValueError(f"e_max must be >= 1, got {self.e_max}")


@dataclass(frozen=True)
class SublinearParameters:
    """Constants of Sublinear-Time-SSR (Protocols 5-8)."""

    reset: ResetParameters
    #: Name length in bits (``3 log2 n`` in the paper).
    name_bits: int
    #: Tree depth H (0 = direct collision detection only).
    h: int
    #: sync values are drawn from ``{1..s_max}``; Theta(n^2) makes a
    #: colliding pair agree with probability O(1/n^2).
    s_max: int
    #: Edge timers start at t_H = Theta(tau_{H+1}) interactions.
    t_h: int

    def __post_init__(self) -> None:
        if self.name_bits < 1:
            raise ValueError(f"name_bits must be >= 1, got {self.name_bits}")
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if self.s_max < 2:
            raise ValueError(f"s_max must be >= 2, got {self.s_max}")
        if self.t_h < 1:
            raise ValueError(f"t_h must be >= 1, got {self.t_h}")


def _ln(n: int) -> float:
    return math.log(max(n, 2))


def tau_timer(n: int, h: int, scale: float) -> int:
    """Timer budget ``T_H = scale * (H + 1) * n^(1/(H+1))`` interactions.

    This single formula covers both regimes in the paper's statement:
    for constant ``H`` it is ``Theta(H * n^(1/(H+1)))``, and once
    ``H = Theta(log n)`` the power term is O(1), leaving
    ``Theta(log n)``.
    """
    return max(4, math.ceil(scale * (h + 1) * n ** (1.0 / (h + 1))))


# ---------------------------------------------------------------------------
# Paper-grade constants
# ---------------------------------------------------------------------------


def paper_reset_log_delay(n: int) -> ResetParameters:
    """Proof-grade reset constants with the Theta(log n) dormant delay."""
    r_max = math.ceil(60 * _ln(n))
    return ResetParameters(r_max=r_max, d_max=max(2 * r_max, math.ceil(8 * _ln(n))))


# ---------------------------------------------------------------------------
# Calibrated constants (same asymptotic form, smaller multipliers)
# ---------------------------------------------------------------------------


def calibrated_reset_linear_delay(n: int) -> ResetParameters:
    # The recruitment epidemic takes ~4 ln n of each agent's own
    # interactions (whp); r_max must exceed it with margin, or agents go
    # dormant -- and can be awakened by not-yet-recruited computing
    # agents -- while the wave is still spreading.
    r_max = max(8, math.ceil(6 * _ln(n)))
    return ResetParameters(r_max=r_max, d_max=max(4 * n, 2 * r_max))


def calibrated_reset_log_delay(n: int) -> ResetParameters:
    r_max = max(8, math.ceil(6 * _ln(n)))
    return ResetParameters(r_max=r_max, d_max=max(2 * r_max, math.ceil(4 * _ln(n))))


def calibrated_optimal_silent(n: int) -> OptimalSilentParameters:
    return OptimalSilentParameters(
        reset=calibrated_reset_linear_delay(n), e_max=max(20 * n, 48)
    )


def calibrated_sublinear(n: int, h: int) -> SublinearParameters:
    reset = calibrated_reset_log_delay(n)
    name_bits = log2n_bits(n)
    reset = ResetParameters(
        r_max=reset.r_max, d_max=max(reset.d_max, 2 * name_bits + reset.r_max)
    )
    return SublinearParameters(
        reset=reset,
        name_bits=name_bits,
        h=h,
        s_max=max(4 * n * n, 16),
        t_h=tau_timer(n, h, scale=4.0),
    )
