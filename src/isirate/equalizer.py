"""Unbiased MMSE-DFE design and its residual-ISI summaries.

The infinite-length MMSE-DFE comes from the spectral factorisation

    1/rho + |H|^2 = gamma_0 |G|^2,   G(z) = 1 + g_1 z^-1 + ... + g_{L-1} z^-(L-1)

with G monic and minimum phase (Cioffi, Dudevoir, Eyuboglu and Forney,
"MMSE decision-feedback equalizers and coding", IEEE Trans. Commun. 1995).
Its roots are the L-1 roots inside the unit circle of the palindromic
polynomial with coefficients r_{L-1}..r_0 + 1/rho..r_{L-1}, r the channel
autocorrelation. The biased output SNR is snr_dfe = rho gamma_0. With past
symbols fed back perfectly, the error of the biased output is
(1/snr_dfe) sum_{k>=0} c_k x_{t+k} plus filtered noise, c the impulse
response of 1/G. Rescaling to unit gain on x_t gives the unbiased output

    z = x_0 + sum_{k>=1} alpha_k x_k + m,   alpha_k = -c_k/(snr_dfe - 1),
    E m^2 = P_x (snr_dfe - 1 - sum_{k>=1} c_k^2)/(snr_dfe - 1)^2,

whose SNR P_x/(sum alpha_k^2 P_x + E m^2) is snr_dfe - 1.

The factorisation is the one in isirate.channel that also gives every
spectral summary of the (channel, rho) point, so a design carries the
Gaussian rate log snr_dfe too. The residual summaries (beta_1^2, the
third and fourth power sums, S) are properties of the design, taken from
its taps and noise variance; the bounds read them from there and from
nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelResponse, _dfe_factor
from .errors import DomainError
from .scalar import InputDistribution

# Relative-amplitude cut; implies a tail energy far below 1e-10 of the total.
_TRUNCATION_REL_AMPLITUDE = 1e-10


@dataclass(frozen=True)
class DfeDesign:
    """Designed unbiased MMSE-DFE for one channel, input power and SNR.

    residual    : truncated residual-ISI taps alpha_1..alpha_N; alpha_0 = 1
        by construction and is not stored.
    residual_full : the untruncated taps alpha_1..alpha_{m-1}, with m the
        length at which the slowest pole of 1/G has decayed to 1e-20;
        the inverse FFT's padding beyond m is not kept.
    noise_var   : E m^2 of the Gaussian noise at the unbiased output.
    gaussian_rate : <log(1 + rho |H|^2)> = log snr_dfe in nats, from the
        same factorisation.

    The residual summaries are read-only properties: beta1_sq, gamma1_cu
    and delta1_4 the sums of alpha_k^2, alpha_k^3 (signed) and alpha_k^4
    over k >= 1; beta0_sq = 1 + beta1_sq, the index-0 sum with alpha_0 = 1;
    S = P_x / E m^2, eps0 = beta0_sq S and eps1 = beta1_sq S.
    """

    residual: np.ndarray
    residual_full: np.ndarray
    noise_var: float
    rho: float
    x_power: float
    gaussian_rate: float

    @property
    def ff_half_len(self) -> int:
        """Number of kept residual taps, residual_full.size (read-only)."""
        return int(self.residual_full.size)

    @cached_property
    def beta1_sq(self) -> float:
        return float(self.residual @ self.residual)

    @cached_property
    def gamma1_cu(self) -> float:
        return float((self.residual**3).sum())

    @cached_property
    def delta1_4(self) -> float:
        return float((self.residual**4).sum())

    @property
    def beta0_sq(self) -> float:
        return 1.0 + self.beta1_sq

    @property
    def S(self) -> float:
        return self.x_power / self.noise_var

    @property
    def eps0(self) -> float:
        return self.beta0_sq * self.S

    @property
    def eps1(self) -> float:
        return self.beta1_sq * self.S

    @property
    def snr_unbiased(self) -> float:
        """P_x / (beta_1^2 P_x + E m^2), the unbiased output SNR."""
        return self.x_power / (self.beta1_sq * self.x_power + self.noise_var)


def _truncate(alpha: np.ndarray) -> np.ndarray:
    """Shortest prefix alpha_1..alpha_N whose dropped tail is negligible.

    Cuts where the remaining absolute-tap sum falls below 1e-10 of the
    whole; the dropped tail energy is then far below 1e-10 of the total.
    """
    total = float(np.abs(alpha).sum())
    if total == 0.0:
        return alpha[:0]
    tail = np.cumsum(np.abs(alpha)[::-1])[::-1]  # tail[k] = sum_{i >= k} |alpha_i|
    keep = np.nonzero(tail >= _TRUNCATION_REL_AMPLITUDE * total)[0]
    return alpha[: keep[-1] + 1] if keep.size else alpha[:0]


def design_mmse_dfe(
    channel: ChannelResponse, x: InputDistribution, rho: float
) -> DfeDesign:
    """Design the infinite-length unbiased MMSE-DFE at input SNR rho = P_x/N_0.

    Raises RootFindingFailure when the spectral factor fails its check and
    BudgetExceeded when 1/G would need more than 2^22 taps.
    """
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    px = x.power
    gaussian_rate, c, m = _dfe_factor(channel, rho)
    snr_m1 = float(np.expm1(gaussian_rate))
    alpha = -c[1:] / snr_m1
    noise_var = px * (snr_m1 - float(c[1:] @ c[1:])) / snr_m1**2
    residual = _truncate(alpha)
    # keep the m - 1 taps the decay bound asks for; the padding to n (up to
    # as many taps again) lies below 1e-12 of the largest tap
    kept = alpha[: max(m - 1, residual.size)].copy()
    return DfeDesign(kept[: residual.size], kept, noise_var, rho, px, gaussian_rate)


def two_tap_residual(q: float, rho: float, n_taps: int) -> np.ndarray:
    """Closed-form residual taps for the channel [sqrt(1-q^2), q].

    alpha_i = (-1)^{i+1} r^i / (0.5 (1 + sqrt(1 - 1/a^2)) (1 + rho) - 1)
    with a = (1 + 1/rho) / (2 q sqrt(1-q^2)) and r = a - sqrt(a^2 - 1).
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q must be in (0, 1)")
    a = (1.0 + 1.0 / rho) / (2.0 * q * np.sqrt(1.0 - q * q))
    r = a - np.sqrt(a * a - 1.0)
    denom = 0.5 * (1.0 + np.sqrt(1.0 - 1.0 / (a * a))) * (1.0 + rho) - 1.0
    i = np.arange(1, n_taps + 1)
    return (-1.0) ** (i + 1) * r**i / denom
