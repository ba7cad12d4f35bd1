"""Reference values the benchmark checks the library's outputs against.

Each value is computed here from its definition, by a route the library
does not use: spectral means on a plain FFT grid, Gaussian-mixture
mutual information by full enumeration and dense trapezoid quadrature,
minimum error-event distances by brute force, and the paper's two-tap
residual closed form. All rates are in nats.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.special import ndtr, stdtrit

_FFT_POINTS = 1 << 16
_MAX_COMPONENTS = 1 << 20
_GRID_STEP = 1.0 / 16.0  # trapezoid step, in noise standard deviations
_GRID_TAIL = 12.0  # grid reaches this many deviations past the outer means


@functools.cache
def _power_spectrum(taps: tuple[float, ...]) -> np.ndarray:
    """|H|^2 on an equispaced grid of the full circle."""
    h = np.fft.fft(np.asarray(taps, dtype=float), _FFT_POINTS)
    return (h * h.conj()).real


def gaussian_rate(taps: tuple[float, ...], rho: float) -> float:
    """<log(1 + rho |H|^2)>, the Gaussian-input rate."""
    return float(np.mean(np.log1p(rho * _power_spectrum(taps))))


def snr_le(taps: tuple[float, ...], rho: float) -> float:
    """[<1/(1 + rho |H|^2)>]^-1, the biased MMSE-LE output SNR."""
    return 1.0 / float(np.mean(1.0 / (1.0 + rho * _power_spectrum(taps))))


def eps0(taps: tuple[float, ...], rho: float) -> float:
    """(1 + beta_1^2) S from the two equalizer SNRs: e (d - 1)/(e - 1) - 1."""
    d = math.exp(gaussian_rate(taps, rho))
    e = snr_le(taps, rho)
    return e * (d - 1.0) / (e - 1.0) - 1.0


def _enumerate(taps, atoms, probs) -> tuple[np.ndarray, np.ndarray]:
    """Means and weights of every pattern sum_k t_k x_k, none dropped."""
    n = len(atoms) ** len(taps)
    if n > _MAX_COMPONENTS:
        raise ValueError(f"{n} mixture components is too many to enumerate")
    means = np.zeros(1)
    weights = np.ones(1)
    for t in taps:
        means = (means[:, None] + t * np.asarray(atoms)[None, :]).ravel()
        weights = (weights[:, None] * np.asarray(probs)[None, :]).ravel()
    return means, weights


def _mixture_entropy(means, weights, sigma: float) -> float:
    """-int p log p of sum_j w_j N(c_j, sigma^2) by the trapezoid rule.

    The integrand is smooth and decays like a Gaussian, so the rule is
    accurate far beyond the tolerances it is compared at.
    """
    step = _GRID_STEP * sigma
    y = np.arange(means.min() - _GRID_TAIL * sigma, means.max() + _GRID_TAIL * sigma, step)
    p = np.zeros_like(y)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    for start in range(0, means.size, 256):
        c = means[start : start + 256]
        p += norm * (np.exp(-0.5 * ((y[:, None] - c[None, :]) / sigma) ** 2) @ weights[start : start + 256])
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum() * step)


def residual_channel_mi(residual, noise_var: float, atoms, probs) -> float:
    """I(x_0; x_0 + sum_k alpha_k x_k + m) = h(x_0 + mu_1 + m) - h(mu_1 + m)."""
    sigma = math.sqrt(noise_var)
    residual = list(residual)
    h0 = _mixture_entropy(*_enumerate([1.0] + residual, atoms, probs), sigma)
    h1 = _mixture_entropy(*_enumerate(residual, atoms, probs), sigma)
    return h0 - h1


def min_event_distance_sq(taps, atoms, max_len: int = 8) -> float:
    """min ||e * h||^2 over error events of at most max_len symbols.

    h is scaled to unit energy and e runs over the differences of atom
    pairs divided by the minimum atom distance, with nonzero end symbols.
    The distance depends on h only through |H|, so no minimum-phase
    conversion is needed.
    """
    h = np.asarray(taps, dtype=float)
    h = h / math.sqrt(float(h @ h))
    a = np.asarray(atoms, dtype=float)
    diffs = (a[:, None] - a[None, :]).ravel()
    d_min = float(np.min(np.abs(diffs[diffs != 0.0])))
    alphabet = np.unique(np.round(diffs / d_min, 12))
    ends = alphabet[alphabet != 0.0]
    best = math.inf
    for n in range(1, max_len + 1):
        inner = [alphabet] * max(n - 2, 0)
        shapes = [ends] if n == 1 else [ends, *inner, ends]
        for event in itertools.product(*shapes):
            c = np.convolve(event, h)
            best = min(best, float(c @ c))
    return best


def two_tap_residual(q: float, rho: float, n_taps: int) -> np.ndarray:
    """Residual taps of the infinite-length unbiased MMSE-DFE on [sqrt(1-q^2), q].

    alpha_i = (-1)^{i+1} r^i / (0.5 (1 + sqrt(1 - 1/a^2)) (1 + rho) - 1)
    with a = (1 + 1/rho) / (2 q sqrt(1 - q^2)) and r = a - sqrt(a^2 - 1).
    """
    a = (1.0 + 1.0 / rho) / (2.0 * q * math.sqrt(1.0 - q * q))
    r = a - math.sqrt(a * a - 1.0)
    denom = 0.5 * (1.0 + math.sqrt(1.0 - 1.0 / (a * a))) * (1.0 + rho) - 1.0
    i = np.arange(1, n_taps + 1)
    return (-1.0) ** (i + 1) * r**i / denom


def four_sigma_multiplier(n_seeds: int) -> float:
    """Multiple of an across-seed standard error with the one-sided tail of 4 sigma.

    A standard error estimated from n seeds follows Student's t with n - 1
    degrees of freedom, whose tails are heavier than the normal's; with
    this multiplier a check on it fails a correct result as rarely as a
    4-sigma check on a known sigma does (3.2e-5).
    """
    return float(stdtrit(n_seeds - 1, ndtr(4.0)))
