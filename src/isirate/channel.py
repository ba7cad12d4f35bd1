"""FIR channel model and its spectral summaries.

The channel is y_k = sum_i h_i x_{k-i} + n_k with real taps h_0..h_{L-1}.
Every average <.> over theta in [-pi, pi] that a summary needs has a
closed form in polynomial roots. <log |H|^2> follows from the channel
roots by Jensen's formula, so spectral nulls stay finite. The rest come
from impulse responses of minimum-phase inverses, by Parseval: with the
one factorisation 1/rho + |H|^2 = gamma_0 |G|^2, G monic and minimum
phase (Cioffi, Dudevoir, Eyuboglu and Forney, IEEE Trans. Commun. 1995),
<log(1 + rho |H|^2)> = log(rho gamma_0) and <1/(1 + rho |H|^2)> =
sum c_k^2 / (rho gamma_0), c the impulse response of 1/G; <1/|H|^2> is
sum d_k^2 / K^2 with |H| = K |H_min| and d that of 1/H_min.

Only the factorisation depends on rho. Everything else is SNR-free: the
leading coefficient and roots, the reflected roots and gain K, the
autocorrelation, <log |H|^2>, the ZF-LE gain and the minimum-phase and
unit-energy forms. Each is a cached property of the frozen
ChannelResponse, computed once per object on first access; the cached
arrays are read-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, DomainError, RootFindingFailure

# Largest inverse-filter tap dropped, and the longest impulse response
# computed (1/G reaches it near 100 dB on a channel with a spectral null).
_INVERSE_TAIL = 1e-20
_MAX_INVERSE_LEN = 2**22
# Largest mismatch between gamma_0 |G|^2 and 1/rho + |H|^2, relative to r_0.
_FACTOR_REL_TOL = 1e-10


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelResponse:
    """Real FIR channel taps h_0..h_{L-1}, with the SNR-free quantities of
    the channel as cached properties (module docstring)."""

    taps: tuple[float, ...]

    def __post_init__(self):
        if len(self.taps) < 1:
            raise DomainError("channel needs at least one tap")
        taps = tuple(float(t) for t in self.taps)
        if not all(np.isfinite(taps)):
            raise DomainError("channel taps must be finite")
        if not any(t != 0.0 for t in taps):
            raise DomainError("channel must have a nonzero tap")
        object.__setattr__(self, "taps", taps)

    @property
    def length(self) -> int:
        return len(self.taps)

    def energy(self) -> float:
        return float(np.dot(self.taps, self.taps))

    @cached_property
    def normalized(self) -> "ChannelResponse":
        """The channel rescaled to unit energy (sum h_k^2 = 1)."""
        return ChannelResponse(tuple(np.asarray(self.taps) / np.sqrt(self.energy())))

    @staticmethod
    def from_json(text: str) -> "ChannelResponse":
        return ChannelResponse(tuple(json.loads(text)))

    @cached_property
    def lead(self) -> float:
        """Leading coefficient of H as a polynomial in z^{-1}: the first
        nonzero tap, since leading zero taps are a pure delay."""
        return next(t for t in self.taps if t != 0.0)

    @cached_property
    def roots(self) -> np.ndarray:
        """Zeros of H as a polynomial in z^{-1}, read-only.

        Leading zero taps are a pure delay and are stripped; they do not
        change |H(theta)|.
        """
        taps = np.asarray(self.taps)
        taps = taps[np.nonzero(taps)[0][0] :]
        if taps.size == 1:
            return _read_only(np.zeros(0, dtype=complex))
        try:
            roots = np.roots(taps)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
            raise RootFindingFailure(str(exc)) from exc
        if not np.all(np.isfinite(roots)):
            raise RootFindingFailure("non-finite channel roots")
        return _read_only(roots)

    @cached_property
    def reflected_roots(self) -> np.ndarray:
        """Roots of the monic minimum-phase H_min with |H| = K |H_min|, read-only:
        roots u more than 1e-9 outside the unit circle go to 1/conj(u)."""
        roots = self.roots
        outside = np.abs(roots) > 1.0 + 1e-9
        reflected = roots.copy()
        reflected[outside] = 1.0 / np.conj(roots[outside])
        return _read_only(reflected)

    @cached_property
    def reflected_gain(self) -> float:
        """K = |lead| prod |u| over the reflected roots u."""
        mags = np.abs(self.roots)
        return abs(self.lead) * float(np.prod(mags[mags > 1.0 + 1e-9]))

    @cached_property
    def autocorrelation(self) -> np.ndarray:
        """r_0..r_{L-1} of the taps, |H(theta)|^2 = r_0 + 2 sum_k r_k cos(k theta),
        read-only; zero taps at either end leave |H| unchanged and are
        stripped, so the last lag is nonzero."""
        taps = np.asarray(self.taps)
        nz = np.nonzero(taps)[0]
        taps = taps[nz[0] : nz[-1] + 1]
        return _read_only(np.correlate(taps, taps, mode="full")[taps.size - 1 :])

    @cached_property
    def log_mean_spectrum(self) -> float:
        """<log |H(theta)|^2>, exact via Jensen's formula on the channel roots."""
        mags = np.abs(self.roots)
        return float(2.0 * np.log(abs(self.lead)) + 2.0 * np.log(mags[mags > 1.0]).sum())

    @cached_property
    def zf_le_gain(self) -> float:
        """[<1/|H|^2>]^-1 = K^2 / sum d_k^2, d the impulse response of 1/H_min.

        0 on a spectral null (a root within 1e-9 of the unit circle), and 0
        when 1/H_min would need more than 2^22 taps: that near-null gain is
        below the inverse's resolution, indistinguishable from the null."""
        roots = self.reflected_roots
        mags = np.abs(roots)
        if roots.size and np.min(np.abs(mags - 1.0)) <= 1e-9:
            return 0.0
        try:
            d, _ = _inverse(np.real(np.atleast_1d(np.poly(roots))), float(mags.max(initial=0.0)))
        except BudgetExceeded:
            return 0.0
        gain = self.reflected_gain
        return gain * gain / float(d @ d)

    @cached_property
    def min_phase(self) -> "ChannelResponse":
        """Equivalent-magnitude channel with all roots inside or on the unit circle.

        Roots within 1e-9 of the circle are left in place. The result is
        rescaled so its energy matches the channel's exactly (guards
        root-finding round-off); leading zero taps (pure delay) are dropped.
        """
        taps = np.real(np.atleast_1d(np.poly(self.reflected_roots))) * self.reflected_gain
        taps = taps * np.sqrt(self.energy() / np.dot(taps, taps))
        return ChannelResponse(tuple(taps))


@dataclass(frozen=True)
class SpectralSummary:
    """Equalizer output SNRs and gain factors of a channel at input SNR rho."""

    rho: float
    snr_le: float
    snr_dfe: float
    snr_zf_dfe: float
    g_zf_dfe: float
    g_zf_le: float
    gaussian_rate: float  # <log(1 + rho |H|^2)> in nats


def channel_b() -> ChannelResponse:
    """Three-tap moderate-ISI reference channel."""
    return ChannelResponse((0.408, 0.817, 0.408))


def jeong() -> ChannelResponse:
    """Seven-tap severe-ISI reference channel."""
    return ChannelResponse((0.19, 0.35, 0.46, 0.5, 0.46, 0.35, 0.19))


def jeong_spaced() -> ChannelResponse:
    """The severe-ISI channel with 3 and 5 zero taps around the main tap."""
    return ChannelResponse(
        (0.19, 0.35, 0.46, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.46, 0.35, 0.19)
    )


CHANNEL_PRESETS = {
    "channel_b": channel_b,
    "jeong": jeong,
    "jeong_spaced": jeong_spaced,
}


def transfer_power(channel: ChannelResponse, theta) -> np.ndarray | float:
    """|H(theta)|^2 with H(theta) = sum_k h_k e^{-jk theta}."""
    th = np.asarray(theta, dtype=float)
    k = np.arange(channel.length)
    h = np.asarray(channel.taps)
    phase = th[..., None] * k
    re = np.cos(phase) @ h
    im = np.sin(phase) @ h
    out = re * re + im * im
    return float(out) if np.isscalar(theta) or th.ndim == 0 else out


def _inverse(poly: np.ndarray, r_max: float) -> tuple[np.ndarray, int]:
    """(p_0..p_{n-1}, m): impulse response of 1/P, P monic with roots inside
    the unit circle up to modulus r_max, by an n-point FFT. m taps bring the
    slowest pole to 1e-20 and n >= m is a power of two, so aliasing stays
    below that; raises BudgetExceeded when n would pass 2^22."""
    m = 2 * poly.size
    if r_max > 0.0:
        m = max(m, int(np.ceil(np.log(_INVERSE_TAIL) / np.log(r_max))))
    n = 1 << (m - 1).bit_length()
    if n > _MAX_INVERSE_LEN:
        raise BudgetExceeded(f"inverse filter needs {n} taps, above {_MAX_INVERSE_LEN}")
    return np.fft.irfft(1.0 / np.fft.rfft(poly, n), n), m


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
    g = np.real(np.atleast_1d(np.poly(inside)))
    gamma0 = r[0] / float(g @ g)
    mismatch = float(np.max(np.abs(gamma0 * np.convolve(g, g[::-1]) - coeffs)))
    if not mismatch <= _FACTOR_REL_TOL * r[0]:
        raise RootFindingFailure(f"spectral factor off by {mismatch / r[0]:.3e} relative")
    return g, float(np.abs(inside).max(initial=0.0))


def _spectral_factor(channel: ChannelResponse, rho: float) -> tuple[float, np.ndarray, float]:
    """(gaussian_rate, g, r_max) of the one factorisation behind every
    summary at rho: log(rho gamma_0) = log1p(rho r_0) - log1p(sum_{i>=1} g_i^2),
    free of cancellation, with g and r_max as in _min_phase_factor."""
    r = channel.autocorrelation.copy()
    energy = float(r[0])
    r[0] += 1.0 / rho
    g, r_max = _min_phase_factor(r)
    return float(np.log1p(rho * energy) - np.log1p(g[1:] @ g[1:])), g, r_max


def _dfe_factor(channel: ChannelResponse, rho: float) -> tuple[float, np.ndarray, int]:
    """(gaussian_rate, c, m): _spectral_factor with (c, m) = _inverse of G."""
    gaussian_rate, g, r_max = _spectral_factor(channel, rho)
    c, m = _inverse(g, r_max)
    return gaussian_rate, c, m


def spectral_summary(channel: ChannelResponse, rho: float) -> SpectralSummary:
    """Equalizer SNRs and gain factors at input SNR rho = P_x/N_0.

    snr_dfe  = exp <log(1 + rho |H|^2)>                 (biased MMSE-DFE)
    snr_le   = [<1/(1 + rho |H|^2)>]^-1 = snr_dfe / sum c_k^2   (MMSE-LE)
    g_zf_dfe = exp <log |H|^2>                          (Jensen)
    g_zf_le  = [<1/|H|^2>]^-1, 0 on a null              (zf_le_gain)

    all in closed form (module docstring). Raises RootFindingFailure when
    G fails its check and BudgetExceeded when 1/G needs over 2^22 taps.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be finite and positive")
    gaussian_rate, c, _ = _dfe_factor(channel, rho)
    snr_dfe = float(np.exp(gaussian_rate))
    g_zf_dfe = float(np.exp(channel.log_mean_spectrum))
    return SpectralSummary(
        rho=rho,
        snr_le=snr_dfe / float(c @ c),
        snr_dfe=snr_dfe,
        snr_zf_dfe=rho * g_zf_dfe,
        g_zf_dfe=g_zf_dfe,
        g_zf_le=channel.zf_le_gain,
        gaussian_rate=gaussian_rate,
    )
