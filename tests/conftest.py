import numpy as np
import pytest

from isirate.channel import ChannelResponse, _mean_over_theta, transfer_power


def random_unit_channel(rng: np.random.Generator, max_len: int = 6) -> ChannelResponse:
    """Random unit-energy FIR channel with 1..max_len taps."""
    length = int(rng.integers(1, max_len + 1))
    taps = rng.standard_normal(length)
    while not taps.any():
        taps = rng.standard_normal(length)
    return ChannelResponse(tuple(taps / np.sqrt(taps @ taps)))


def quadrature_summary(ch: ChannelResponse, rho: float) -> tuple[float, float, float]:
    """(gaussian_rate, beta1_sq, S) by theta quadrature: an oracle for the
    spectral factorisation and the tap-domain summaries that shares no
    code with either.

    With d = exp<log(1 + rho |H|^2)> and e = 1/<1/(1 + rho |H|^2)>:
    beta1_sq = (d/e - 1)/(d - 1)^2 and S = (d - 1)^2 e/(d (e - 1)).
    d/e - 1 cancels at low SNR, to ~1e-8 relative near -40 dB.
    """
    power = lambda th: transfer_power(ch, th)
    rate = _mean_over_theta(lambda th: np.log1p(rho * power(th)), rel_tol=1e-13)
    e = 1.0 / _mean_over_theta(lambda th: 1.0 / (1.0 + rho * power(th)), rel_tol=1e-13)
    d = float(np.exp(rate))
    return rate, (d / e - 1.0) / (d - 1.0) ** 2, (d - 1.0) ** 2 * e / (d * (e - 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
