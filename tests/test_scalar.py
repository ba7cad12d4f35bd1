"""Input distributions and scalar Gaussian-channel quantities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from isirate.errors import DomainError
from isirate.scalar import (
    InputDistribution,
    binary_entropy,
    bpsk,
    low_snr_series,
    make_skewed_binary,
    make_trinary,
    mmse,
    mmse_binary,
    mutual_info,
    parse_input_spec,
    q_integral,
    q_tail,
)

PRESETS = {
    "bpsk": bpsk(),
    "trinary(0.01)": make_trinary(0.01),
    "skewed_binary(0.002)": make_skewed_binary(0.002),
}


class TestInputDistribution:
    def test_bpsk_moments(self):
        x = bpsk()
        assert x.power == pytest.approx(1.0, abs=1e-15)
        assert x.skewness == pytest.approx(0.0, abs=1e-15)
        assert x.excess_kurtosis == pytest.approx(-2.0, abs=1e-12)
        assert x.d_min == pytest.approx(2.0, abs=1e-15)
        assert x.entropy == pytest.approx(math.log(2.0), abs=1e-15)

    def test_skewed_binary_reference_moments(self):
        x = make_skewed_binary(0.002)
        p = 0.002
        assert x.power == pytest.approx(1.0, abs=1e-12)
        assert x.skewness == pytest.approx(-(1 - 2 * p) / math.sqrt(p * (1 - p)), rel=1e-12)
        assert x.excess_kurtosis == pytest.approx(1 / (p * (1 - p)) - 6, rel=1e-12)
        # reference values: s ~= -22.3, kappa ~= 495
        assert x.skewness == pytest.approx(-22.3, abs=0.01)
        assert x.excess_kurtosis == pytest.approx(495.0, abs=0.01)

    def test_trinary_moments(self):
        x = make_trinary(0.01)
        assert x.power == pytest.approx(1.0, abs=1e-12)
        assert x.skewness == pytest.approx(0.0, abs=1e-12)
        assert x.excess_kurtosis == pytest.approx(47.0, rel=1e-12)
        # kurtosis-matching point 1/(2p) - 3 = 0
        assert make_trinary(1 / 6).excess_kurtosis == pytest.approx(0.0, abs=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            InputDistribution((1.0,), (1.0,))  # single atom
        with pytest.raises(DomainError):
            InputDistribution((1.0, -1.0), (0.6, 0.6))  # probs don't sum to 1
        with pytest.raises(DomainError):
            InputDistribution((1.0, 2.0), (0.5, 0.5))  # nonzero mean
        with pytest.raises(DomainError):
            InputDistribution((1.0, 1.0), (0.5, 0.5))  # duplicate atoms
        with pytest.raises(DomainError):
            make_skewed_binary(0.0)
        with pytest.raises(DomainError):
            make_trinary(0.5)

    def test_parse_specs(self):
        assert parse_input_spec("bpsk").atoms == (-1.0, 1.0)
        assert parse_input_spec("trinary(0.01)").excess_kurtosis == pytest.approx(47.0)
        assert parse_input_spec('{"atoms": [-1, 1], "probs": [0.5, 0.5]}').power == 1.0
        with pytest.raises(DomainError):
            parse_input_spec("qam16")


class TestMutualInfo:
    def test_zero_snr(self):
        for x in PRESETS.values():
            assert mutual_info(x, 0.0) == 0.0

    def test_entropy_saturation(self):
        assert mutual_info(bpsk(), 1e4) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_i_mmse_consistency_bpsk(self):
        # independent oracle: I(gamma) = (1/2) int_0^gamma mmse_b via the
        # tanh-kernel integral route
        gamma = 0.25
        oracle, err = quad(lambda g: 0.5 * mmse_binary(g), 0.0, gamma, epsabs=1e-12)
        assert mutual_info(bpsk(), gamma) == pytest.approx(oracle, abs=1e-9)

    def test_monotone_and_capped(self):
        for x in PRESETS.values():
            prev = 0.0
            for gamma in (0.1, 0.5, 2.0, 10.0):
                val = mutual_info(x, gamma)
                assert val >= prev - 1e-12
                assert val <= min(x.entropy, 0.5 * math.log1p(gamma)) + 1e-9
                prev = val

    def test_never_above_entropy(self):
        # uncapped, quadrature rounding puts the BPSK I_x(1000) 3.7e-15
        # above log 2; the cap must hold exactly
        for x in PRESETS.values():
            for gamma in (1e3, 1e4, 1e5):
                assert mutual_info(x, gamma) <= x.entropy

    def test_concavity(self):
        gammas = np.linspace(0.1, 5.0, 9)
        vals = [mutual_info(bpsk(), g) for g in gammas]
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-8)


class TestMmse:
    def test_zero_snr(self):
        for x in PRESETS.values():
            assert mmse(x, 0.0) == 1.0

    def test_matches_binary_closed_form(self):
        for gamma in (0.1, 1.0, 4.0, 10.0, 25.0, 50.0):
            assert mmse(bpsk(), gamma) == pytest.approx(mmse_binary(gamma), abs=1e-8)

    def test_gaussian_upper_bound(self):
        for x in PRESETS.values():
            for gamma in (0.5, 2.0, 20.0):
                assert mmse(x, gamma) <= 1.0 / (1.0 + gamma) + 1e-10

    def test_derivative_relation(self):
        # dI/dgamma = mmse/2 at a few spot gammas per preset; below the
        # finite-difference noise floor (saturated mmse) compare absolutely
        for x in PRESETS.values():
            for gamma in (0.05, 0.8, 5.0):
                step = 1e-4 * (1.0 + gamma)
                deriv = (mutual_info(x, gamma + step) - mutual_info(x, gamma - step)) / (
                    2 * step
                )
                target = 0.5 * mmse(x, gamma)
                if target >= 1e-4:
                    assert deriv == pytest.approx(target, rel=1e-4)
                else:
                    assert deriv == pytest.approx(target, abs=1e-8)


class TestBinaryClosedForms:
    def test_mmse_binary_zero(self):
        assert mmse_binary(0.0) == 1.0

    def test_mmse_binary_tail_bound(self):
        for gamma in (0.5, 1.0, 4.0, 10.0, 30.0):
            assert mmse_binary(gamma) >= 2.0 * q_tail(math.sqrt(gamma))

    def test_q_integral_at_zero(self):
        assert q_integral(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_q_integral_against_quadrature(self):
        for s in (0.5, 2.0, 8.0):
            oracle, _ = quad(lambda g: q_tail(math.sqrt(g)), s, s + 400.0, epsabs=1e-13, limit=200)
            assert q_integral(s) == pytest.approx(oracle, rel=1e-9)

    def test_q_integral_derivative(self):
        # d/ds q_integral = -Q(sqrt(s))
        s = 1.7
        h = 1e-6
        deriv = (q_integral(s + h) - q_integral(s - h)) / (2 * h)
        assert deriv == pytest.approx(-q_tail(math.sqrt(s)), rel=1e-6)


class TestLowSnrSeries:
    def test_gaussian_case_matches_log(self):
        rho = 0.01
        series = low_snr_series(0.0, 0.0, rho)
        exact = 0.5 * math.log1p(rho)
        # the Gaussian series of (1/2)log(1+rho) has fifth-order coefficient
        # 1/10 per half: |diff| <= 5 rho^5 is generous
        assert abs(series - exact) <= 5 * rho**5

    def test_bpsk_against_quadrature(self):
        # residual is O(rho^5); the constant is treated empirically
        ratios = []
        for rho in (1e-2, 5e-3, 2.5e-3):
            diff = abs(
                low_snr_series(0.0, -2.0, rho) - mutual_info(bpsk(), rho)
            )
            ratios.append(diff / rho**5)
        assert max(ratios) <= 10.0
        # ratio stays bounded as rho halves
        assert ratios[-1] <= 2.0 * max(ratios[0], 1e-3)

    def test_skewed_value_finite_and_dominated(self):
        s, k = -22.3, 495.0
        rho = 1e-3
        val = low_snr_series(s, k, rho)
        assert math.isfinite(val)
        # quartic kurtosis term dominates the quartic bracket
        assert k**2 > abs(-12 * s**2 + 6)
        assert val < rho / 2


class TestBinaryEntropy:
    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_formula(self):
        p = 0.11
        assert binary_entropy(p) == pytest.approx(
            -p * math.log(p) - (1 - p) * math.log(1 - p), abs=1e-15
        )
