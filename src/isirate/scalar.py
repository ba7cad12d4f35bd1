"""Finite-alphabet input distributions and scalar Gaussian-channel quantities.

I_x(gamma) is the mutual information of y = sqrt(gamma) x + n with x the
unit-power-normalized input and n standard Gaussian; mmse_x(gamma) is the
matching estimation error. Both are evaluated by Gauss-Legendre panel
quadrature over the Gaussian-mixture output density. Everything is in nats.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfc, erfcx

from .errors import DomainError
from .gaussmix import (
    consolidate_atoms,
    gl_integrate,
    mixture_conditional_second_moment,
    mixture_entropy,
)

_HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class InputDistribution:
    """Zero-mean finite-alphabet law for the i.i.d. channel inputs."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        probs = tuple(float(p) for p in self.probs)
        if len(atoms) != len(probs):
            raise DomainError("atoms and probs must have equal length")
        if len(atoms) < 2:
            raise DomainError("degenerate single-atom distributions are rejected")
        if any(p <= 0.0 for p in probs):
            raise DomainError("all probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        a = np.asarray(atoms)
        if np.min(np.diff(np.sort(a))) <= 0.0:
            raise DomainError("atoms must be distinct")
        mean = float(np.dot(atoms, probs))
        if abs(mean) > 1e-12:
            raise DomainError(f"distribution must be zero-mean (mean={mean:.3e})")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def power(self) -> float:
        """Second moment P_x."""
        return float(np.dot(np.square(self.atoms), self.probs))

    @cached_property
    def skewness(self) -> float:
        return float(np.dot(np.power(self.atoms, 3), self.probs)) / self.power**1.5

    @cached_property
    def excess_kurtosis(self) -> float:
        return float(np.dot(np.power(self.atoms, 4), self.probs)) / self.power**2 - 3.0

    @cached_property
    def entropy(self) -> float:
        """H(x_0) in nats."""
        p = np.asarray(self.probs)
        return float(-(p * np.log(p)).sum())

    @cached_property
    def d_min(self) -> float:
        """Minimal distance between distinct atoms."""
        return float(np.min(np.diff(np.sort(self.atoms))))

    @cached_property
    def normalized_atoms(self) -> np.ndarray:
        """Atoms scaled to unit power."""
        return np.asarray(self.atoms) / math.sqrt(self.power)

    @staticmethod
    def from_json(text: str) -> "InputDistribution":
        obj = json.loads(text)
        return InputDistribution(tuple(obj["atoms"]), tuple(obj["probs"]))


def bpsk() -> InputDistribution:
    return InputDistribution((-1.0, 1.0), (0.5, 0.5))


def make_skewed_binary(p: float) -> InputDistribution:
    """Zero-mean unit-power binary law whose rare (probability p) atom is the
    large-magnitude negative one.

    Skewness is -(1-2p)/sqrt(p(1-p)) and excess kurtosis 1/(p(1-p)) - 6.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("p must be in (0, 1)")
    heavy = -math.sqrt((1.0 - p) / p)
    light = math.sqrt(p / (1.0 - p))
    return InputDistribution((heavy, light), (p, 1.0 - p))


def make_trinary(p_edge: float) -> InputDistribution:
    """Symmetric {-a, 0, a} law with Pr(+-a) = p_edge each, unit power."""
    if not 0.0 < p_edge < 0.5:
        raise DomainError("p_edge must be in (0, 0.5)")
    a = 1.0 / math.sqrt(2.0 * p_edge)
    return InputDistribution((-a, 0.0, a), (p_edge, 1.0 - 2.0 * p_edge, p_edge))


_SPEC_RE = re.compile(r"^(skewed_binary|trinary)\(([^)]+)\)$")


def parse_input_spec(spec: str) -> InputDistribution:
    """Parse 'bpsk', 'skewed_binary(p)', 'trinary(p)' or JSON {atoms, probs}."""
    spec = spec.strip()
    if spec == "bpsk":
        return bpsk()
    m = _SPEC_RE.match(spec)
    if m:
        value = float(m.group(2))
        return make_skewed_binary(value) if m.group(1) == "skewed_binary" else make_trinary(value)
    if spec.startswith("{"):
        return InputDistribution.from_json(spec)
    raise DomainError(f"unrecognized input spec: {spec!r}")


def mutual_info(x: InputDistribution, gamma: float) -> float:
    """I_x(gamma) in nats: mutual information of the scalar Gaussian channel."""
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if gamma == 0.0:
        return 0.0
    means = math.sqrt(gamma) * x.normalized_atoms
    h, _ = mixture_entropy(means, np.asarray(x.probs), 1.0)
    # quadrature rounding can leave h - log(2 pi e)/2 just outside [0, H(x)]
    return min(max(h - _HALF_LOG_2PIE, 0.0), x.entropy)


def mmse(x: InputDistribution, gamma: float) -> float:
    """mmse_x(gamma) for the unit-power-normalized input, in [0, 1]."""
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if gamma == 0.0:
        return 1.0
    second = mixture_conditional_second_moment(
        x.normalized_atoms, np.asarray(x.probs), gamma
    )
    return 1.0 - second


def discrete_mmse(values, probs, gamma: float) -> float:
    """MMSE of an arbitrary discrete zero-mean law z from sqrt(gamma) z + n.

    Duplicate values are consolidated first. Not normalized: returns
    E z^2 - E[(E[z|y])^2].
    """
    vals, wts = consolidate_atoms(values, probs)
    ez2 = float(np.dot(vals * vals, wts))
    if gamma == 0.0:
        mean = float(np.dot(vals, wts))
        return ez2 - mean * mean
    return ez2 - mixture_conditional_second_moment(vals, wts, gamma)


def mmse_binary(gamma: float) -> float:
    """MMSE for equiprobable +-1 input, via the tanh-kernel integral."""
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if gamma == 0.0:
        return 1.0
    root = math.sqrt(gamma)

    def integrand(y):
        return (
            (1.0 - np.tanh(root * y))
            * np.exp(-0.5 * (y - root) ** 2)
            / math.sqrt(2.0 * math.pi)
        )

    lo = root - 46.0
    hi = root + 12.0
    n_panels = max(16, int(math.ceil(hi - lo)))
    return gl_integrate(integrand, lo, hi, rel_tol=1e-13, min_panels=n_panels)


def q_tail(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x)."""
    out = 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.ndim(x) == 0 else out


def q_integral(s) -> np.ndarray | float:
    """int_s^inf Q(sqrt(gamma)) dgamma, evaluated without cancellation.

    Closed form sqrt(s) e^{-s/2}/sqrt(2 pi) + (1-s) Q(sqrt(s)), rewritten
    through the scaled complementary error function.
    """
    sv = np.asarray(s, dtype=float)
    if np.any(sv < 0.0):
        raise DomainError("s must be nonnegative")
    bracket = np.sqrt(sv / (2.0 * math.pi)) + (1.0 - sv) * 0.5 * erfcx(
        np.sqrt(0.5 * sv)
    )
    out = np.exp(-0.5 * sv) * bracket
    return float(out) if np.ndim(s) == 0 else out


def log_q_integral(s: float) -> float:
    """log of q_integral(s); stays finite where q_integral underflows."""
    if s < 0.0:
        raise DomainError("s must be nonnegative")
    bracket = math.sqrt(s / (2.0 * math.pi)) + (1.0 - s) * 0.5 * erfcx(
        math.sqrt(0.5 * s)
    )
    return -0.5 * s + math.log(bracket)


def low_snr_series(skew: float, kurt: float, rho: float) -> float:
    """Fourth-order small-SNR expansion of the scalar mutual information."""
    if rho < 0.0:
        raise DomainError("rho must be nonnegative")
    return (
        rho / 2.0
        - rho**2 / 4.0
        + rho**3 / 6.0 * (1.0 - skew**2 / 2.0)
        - rho**4 / 48.0 * (kurt**2 - 12.0 * skew**2 + 6.0)
    )


def binary_entropy(p: float) -> float:
    """-p log p - (1-p) log(1-p) in nats, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must be in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)
