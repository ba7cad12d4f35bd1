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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelResponse, SpectralSummary, spectral_summary
from .errors import BudgetExceeded, DomainError, RootFindingFailure
from .scalar import InputDistribution

# Relative-amplitude cut; implies a tail energy far below 1e-10 of the total.
_TRUNCATION_REL_AMPLITUDE = 1e-10
# Largest tap of 1/G dropped beyond the computed impulse response.
_INVERSE_TAIL = 1e-20
# Longest impulse response of 1/G computed; reached near 100 dB on a null.
_MAX_INVERSE_LEN = 2**22
# Largest mismatch between gamma_0 |G|^2 and 1/rho + |H|^2, relative to r_0.
_FACTOR_REL_TOL = 1e-10


@dataclass(frozen=True)
class DfeDesign:
    """Designed unbiased MMSE-DFE for one channel, input power and SNR.

    residual    : truncated residual-ISI taps alpha_1..alpha_N; alpha_0 = 1
        by construction and is not stored.
    residual_full : the untruncated taps alpha_1..alpha_{m-1}, with m the
        length at which the slowest pole of 1/G has decayed to 1e-20;
        the inverse FFT's padding beyond m is not kept.
    noise_var   : E m^2 of the Gaussian noise at the unbiased output.
    """

    residual: np.ndarray
    residual_full: np.ndarray
    noise_var: float
    rho: float
    x_power: float

    @property
    def ff_half_len(self) -> int:
        """Number of kept residual taps, residual_full.size (read-only)."""
        return int(self.residual_full.size)

    @property
    def snr_unbiased(self) -> float:
        """P_x / (beta_1^2 P_x + E m^2), the unbiased output SNR."""
        beta1_sq = float(self.residual @ self.residual)
        return self.x_power / (beta1_sq * self.x_power + self.noise_var)


@dataclass(frozen=True)
class DfeSummary:
    """Scalar summaries of the residual-ISI sequence (alpha_0 = 1 included
    in the index-0 sums: beta0_sq = 1 + beta1_sq)."""

    beta0_sq: float
    beta1_sq: float
    gamma1_cu: float | None  # sum alpha_k^3, signed; None when closed-form only
    delta1_4: float | None  # sum alpha_k^4; None when closed-form only
    eps0: float
    eps1: float
    S: float  # P_x / E m^2


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


def _min_phase_factor(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Monic minimum-phase g and the largest root modulus of G.

    r holds the autocorrelation r_0..r_{L-1} with 1/rho already added to
    r_0; raises RootFindingFailure unless gamma_0 (g * reversed g)
    reproduces r within 1e-10 r_0.
    """
    L = r.size
    coeffs = np.concatenate((r[:0:-1], r))
    try:
        roots = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc
    inside = roots[np.abs(roots) < 1.0]
    if roots.size != 2 * (L - 1) or inside.size != L - 1:
        raise RootFindingFailure(
            f"{inside.size} of {roots.size} roots inside the unit circle, need {L - 1}"
        )
    g = np.real(np.poly(inside))
    gamma0 = r[0] / float(g @ g)
    mismatch = float(np.max(np.abs(gamma0 * np.convolve(g, g[::-1]) - coeffs)))
    if not mismatch <= _FACTOR_REL_TOL * r[0]:
        raise RootFindingFailure(f"spectral factor off by {mismatch / r[0]:.3e} relative")
    return g, float(np.max(np.abs(inside)))


def design_mmse_dfe(
    channel: ChannelResponse, x: InputDistribution, rho: float
) -> DfeDesign:
    """Design the infinite-length unbiased MMSE-DFE at input SNR rho = P_x/N_0.

    Raises RootFindingFailure when the spectral factor fails its check and
    BudgetExceeded when 1/G would need more than 2^22 taps.
    """
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    taps = np.asarray(channel.taps, dtype=float)
    nz = np.nonzero(taps)[0]
    taps = taps[nz[0] : nz[-1] + 1]  # zero taps at either end leave |H| unchanged
    px = x.power
    L = taps.size
    if L == 1:
        empty = np.zeros(0)
        return DfeDesign(empty, empty, px / (rho * taps[0] ** 2), rho, px)
    r = np.correlate(taps, taps, mode="full")[L - 1 :]
    energy = float(r[0])
    r[0] += 1.0 / rho
    g, r_max = _min_phase_factor(r)
    # snr_dfe = rho gamma_0 = (1 + rho r_0)/sum g_i^2, free of cancellation
    snr_m1 = float(np.expm1(np.log1p(rho * energy) - np.log1p(g[1:] @ g[1:])))
    m = max(2 * L, int(np.ceil(np.log(_INVERSE_TAIL) / np.log(r_max))))
    n = 1 << (m - 1).bit_length()
    if n > _MAX_INVERSE_LEN:
        raise BudgetExceeded(f"1/G needs {n} taps at rho = {rho:.3g}, above {_MAX_INVERSE_LEN}")
    c = np.fft.irfft(1.0 / np.fft.rfft(g, n), n)
    alpha = -c[1:] / snr_m1
    noise_var = px * (snr_m1 - float(c[1:] @ c[1:])) / snr_m1**2
    residual = _truncate(alpha)
    # keep the m - 1 taps the decay bound asks for; the padding to n (up to
    # as many taps again) lies below 1e-12 of the largest tap
    kept = alpha[: max(m - 1, residual.size)].copy()
    return DfeDesign(kept[: residual.size], kept, noise_var, rho, px)


def summarize(design: DfeDesign, x: InputDistribution) -> DfeSummary:
    """Tap-domain residual summaries of a design."""
    r = design.residual
    beta1_sq = float(r @ r)
    s = x.power / design.noise_var
    return DfeSummary(
        beta0_sq=1.0 + beta1_sq,
        beta1_sq=beta1_sq,
        gamma1_cu=float((r**3).sum()),
        delta1_4=float((r**4).sum()),
        eps0=(1.0 + beta1_sq) * s,
        eps1=beta1_sq * s,
        S=s,
    )


def closed_form_summary(channel: ChannelResponse, rho: float) -> DfeSummary:
    """Residual summaries from the equalizer output SNRs alone."""
    return summary_from_spectral(spectral_summary(channel, rho))


def summary_from_spectral(ss: SpectralSummary) -> DfeSummary:
    """Residual summaries from the output SNRs of one spectral summary.

    No closed form exists for the third/fourth-power tap sums, so
    gamma1_cu and delta1_4 are left unset. Below snr_le - 1 = 1e-9 the
    quadrature cannot resolve snr_dfe - snr_le and the flat-channel
    limits (beta1_sq = 0, S = snr_dfe - 1) are returned. eps0 and eps1
    follow from the same identities as in summarize.
    """
    d, e = ss.snr_dfe, ss.snr_le
    if e - 1.0 <= 1e-9:
        beta1_sq, s = 0.0, d - 1.0
    else:
        # d/e - 1 cancels to a few ulps on a flat spectrum; beta1_sq >= 0
        beta1_sq = max(0.0, (d / e - 1.0) / (d - 1.0) ** 2)
        s = (d - 1.0) ** 2 * e / (d * (e - 1.0))
    return DfeSummary(
        beta0_sq=1.0 + beta1_sq,
        beta1_sq=beta1_sq,
        gamma1_cu=None,
        delta1_4=None,
        eps0=(1.0 + beta1_sq) * s,
        eps1=beta1_sq * s,
        S=s,
    )


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
