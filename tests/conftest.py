import math

import numpy as np
import pytest

from isirate.channel import ChannelResponse, transfer_power
from isirate.errors import NonConvergent


def random_unit_channel(rng: np.random.Generator, max_len: int = 6) -> ChannelResponse:
    """Random unit-energy FIR channel with 1..max_len taps."""
    length = int(rng.integers(1, max_len + 1))
    taps = rng.standard_normal(length)
    while not taps.any():
        taps = rng.standard_normal(length)
    return ChannelResponse(tuple(taps / np.sqrt(taps @ taps)))


def mean_over_theta(f, rel_tol: float = 1e-10) -> float:
    """Mean of f(theta) over [-pi, pi] by midpoint-rule grid doubling from
    512 to 2^21 points: the theta-quadrature oracle for the closed forms."""
    prev = None
    n = 512
    while n <= 2**21:
        theta = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
        vals = f(theta)
        if not np.all(np.isfinite(vals)):
            # a sample collided with a spectral null; shift the grid
            theta = theta + 0.5 * np.pi / n
            vals = f(theta)
        est = float(np.mean(vals))
        if prev is not None and abs(est - prev) <= rel_tol * max(abs(est), 1e-300):
            return est
        prev = est
        n *= 2
    raise NonConvergent("theta quadrature did not reach tolerance")


def quadrature_summary(ch: ChannelResponse, rho: float) -> tuple[float, float, float]:
    """(gaussian_rate, beta1_sq, S) by theta quadrature: an oracle for the
    spectral factorisation and the tap-domain summaries that shares no
    code with either.

    With d = exp<log(1 + rho |H|^2)> and e = 1/<1/(1 + rho |H|^2)>:
    beta1_sq = (d/e - 1)/(d - 1)^2 and S = (d - 1)^2 e/(d (e - 1)).
    d/e - 1 cancels at low SNR, to ~1e-8 relative near -40 dB.
    """
    power = lambda th: transfer_power(ch, th)
    rate = mean_over_theta(lambda th: np.log1p(rho * power(th)), rel_tol=1e-13)
    e = 1.0 / mean_over_theta(lambda th: 1.0 / (1.0 + rho * power(th)), rel_tol=1e-13)
    d = float(np.exp(rate))
    return rate, (d / e - 1.0) / (d - 1.0) ** 2, (d - 1.0) ** 2 * e / (d * (e - 1.0))


def forward_log_likelihood(y, trellis, n0: float, renorm_every: int = 1) -> float:
    """log p(y_1^n) by the sequential normalized forward recursion: one
    step per symbol, scattering every branch into its successor. The oracle
    of the batched trellis kernels; its result is invariant to the
    renormalization schedule."""
    n_states, n_atoms = trellis.outputs.shape
    # stationary i.i.d. law over states: digit i of s is the input index at
    # delay i + 1
    state_p = np.ones(n_states)
    s = np.arange(n_states)
    for _ in range(round(math.log(n_states, n_atoms)) if n_states > 1 else 0):
        state_p *= trellis.probs[s % n_atoms]
        s //= n_atoms
    coef = 1.0 / math.sqrt(2.0 * math.pi * n0)
    flat_next = trellis.next_state.ravel()
    weights = np.repeat(trellis.probs[None, :], n_states, axis=0).ravel()
    outputs = trellis.outputs.ravel()
    log_p = 0.0
    for k, yk in enumerate(y):
        like = coef * np.exp(-0.5 * (yk - outputs) ** 2 / n0)
        contrib = np.repeat(state_p, n_atoms) * weights * like
        state_p = np.zeros(n_states)
        np.add.at(state_p, flat_next, contrib)
        if (k + 1) % renorm_every == 0:
            scale = state_p.sum()
            log_p += math.log(scale)
            state_p /= scale
    total = state_p.sum()
    return log_p + (math.log(total) if total > 0.0 else -math.inf)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
