"""MMSE-DFE design against the closed-form identities and a dense oracle."""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from isirate.channel import (
    CHANNEL_PRESETS,
    ChannelResponse,
    _dfe_factor,
    channel_b,
    jeong,
    jeong_spaced,
    transfer_power,
)
import isirate.bounds
from isirate.bounds import bound_report
from isirate.equalizer import (
    _truncate,
    design_mmse_dfe,
    two_tap_residual,
)
from isirate.errors import BudgetExceeded, DomainError, RootFindingFailure
from isirate.scalar import bpsk, make_skewed_binary

from conftest import mean_over_theta, quadrature_summary, random_unit_channel

NULL = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))


def two_tap_channel(q: float) -> ChannelResponse:
    return ChannelResponse((math.sqrt(1.0 - q * q), q))


def _solve_ff(taps: np.ndarray, px: float, n0: float, m: int):
    """Finite-length pinned-gain DFE at feedforward half-length m.

    The feedforward taps a_{-m}..a_{m} minimize E (sum_{k>=1} alpha_k x_k
    + m)^2 with alpha_k = sum_l a_l h_{-l-k} and the lag-0 gain pinned to
    1, a strictly convex quadratic solved densely through its normal
    equations. Returns (alpha_1..alpha_m, E m^2).
    """
    L = taps.size
    n_ff = 2 * m + 1
    # U[k-1, j] = h_{-(j-m)-k} = h[m-j-k], rows k = 1..m
    j = np.arange(n_ff)
    k = np.arange(1, m + 1)
    idx = m - j[None, :] - k[:, None]
    valid = (idx >= 0) & (idx < L)
    U = np.zeros((m, n_ff))
    U[valid] = taps[idx[valid]]
    B = px * (U.T @ U)
    B[np.diag_indices_from(B)] += n0
    v = np.zeros(n_ff)
    v[m - np.arange(L)] = taps
    a_raw = scipy.linalg.solve(B, v, assume_a="pos")
    a = a_raw / float(v @ a_raw)
    return U @ a, n0 * float(a @ a)


def _oracle_channels() -> dict[str, ChannelResponse]:
    rng = np.random.default_rng(20240917)
    named = {"channel_b": channel_b(), "jeong": jeong(), "jeong_spaced": jeong_spaced(), "null": NULL}
    named.update((f"random{i}", random_unit_channel(rng)) for i in range(8))
    return named


ORACLE_CHANNELS = _oracle_channels()


class TestTrivialChannel:
    def test_no_isi(self):
        d = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), 2.5)
        assert d.residual.size == 0
        assert d.noise_var == pytest.approx(1.0 / 2.5, rel=1e-12)
        assert d.snr_unbiased == pytest.approx(2.5, rel=1e-12)

    def test_closed_form_flat(self):
        d = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), 2.5)
        assert d.beta1_sq == 0.0
        assert d.S == pytest.approx(2.5, rel=1e-12)
        assert d.eps0 == pytest.approx(2.5, rel=1e-12)


class TestTwoTapClosedForm:
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("rho", [0.1, 1.0])
    def test_residual_matches(self, q, rho):
        d = design_mmse_dfe(two_tap_channel(q), bpsk(), rho)
        ref = two_tap_residual(q, rho, 10)
        got = np.zeros(10)
        n = min(10, d.residual_full.size)
        got[:n] = d.residual_full[:n]
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_sign_alternation(self):
        d = design_mmse_dfe(two_tap_channel(0.6), bpsk(), 1.0)
        signs = np.sign(d.residual)
        assert np.all(signs == [(-1.0) ** (i + 2) for i in range(d.residual.size)])

    def test_gamma_low_snr_limit(self):
        # sum alpha^3 -> q^3 (1-q^2)^{3/2} as rho -> 0
        q = 0.6
        d = design_mmse_dfe(two_tap_channel(q), bpsk(), 1e-4)
        assert d.gamma1_cu == pytest.approx(q**3 * (1 - q * q) ** 1.5, rel=1e-3)


class TestTruncationRule:
    def test_reference_lengths(self):
        # N = 36 at 10 dB; the -26 dB endpoint sits one tap short of the
        # reference report (the disputed tap has relative amplitude ~1e-10)
        d = design_mmse_dfe(channel_b(), bpsk(), 10.0)
        assert d.residual.size == 36
        d = design_mmse_dfe(channel_b(), bpsk(), 10 ** (-2.6))
        assert d.residual.size in (7, 8)

    def test_tail_energy_contract(self):
        d = design_mmse_dfe(channel_b(), bpsk(), 1.0)
        full = d.residual_full
        n = d.residual.size
        tail = float(full[n:] @ full[n:])
        assert tail < 1e-10 * float(full @ full)

    def test_design_keeps_no_fft_padding(self):
        # jeong_spaced at 20 dB inverts G on 4096 points but needs ~2700 taps;
        # the design keeps only the truncated taps, in an array of their own
        d = design_mmse_dfe(jeong_spaced(), bpsk(), 100.0)
        arrays = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is d.residual
        assert d.residual.base is None
        gaussian_rate, c, m = _dfe_factor(jeong_spaced(), 100.0)
        alpha = -c[1:] / float(np.expm1(gaussian_rate))
        full = d.residual_full
        assert np.array_equal(full, alpha[: max(m - 1, d.residual.size)])
        assert np.array_equal(d.residual, full[: d.residual.size])
        assert d.residual.size <= full.size < 4095
        assert d.ff_half_len == full.size


class TestAppendixIdentities:
    """Tap-domain summaries against the equalizer-SNR identities, with the
    SNRs taken by theta quadrature (conftest.quadrature_summary)."""

    def test_channel_b(self):
        x = bpsk()
        tap = design_mmse_dfe(channel_b(), x, 1.0)
        _, beta1_sq, s = quadrature_summary(channel_b(), 1.0)
        assert tap.beta1_sq == pytest.approx(beta1_sq, rel=1e-9)
        assert tap.S == pytest.approx(s, rel=1e-9)
        assert tap.eps0 == pytest.approx((1.0 + beta1_sq) * s, rel=1e-9)
        assert tap.eps1 == pytest.approx(beta1_sq * s, rel=1e-9)

    def test_unbiased_snr_identity(self):
        d = design_mmse_dfe(channel_b(), bpsk(), 1.0)
        rate, _, _ = quadrature_summary(channel_b(), 1.0)
        assert d.snr_unbiased == pytest.approx(math.expm1(rate), rel=1e-12)
        assert d.gaussian_rate == pytest.approx(rate, rel=1e-12)

    def test_gaussian_equality_chain(self, rng):
        # (1/2)log(1+b0 S) - (1/2)log(1+b1 S) equals half the Gaussian rate
        for _ in range(5):
            ch = random_unit_channel(rng)
            tap = design_mmse_dfe(ch, bpsk(), 1.7)
            rate, _, _ = quadrature_summary(ch, 1.7)
            lhs = 0.5 * math.log1p(tap.beta0_sq * tap.S) - 0.5 * math.log1p(
                tap.beta1_sq * tap.S
            )
            assert lhs == pytest.approx(0.5 * rate, abs=1e-12)

    def test_random_channels(self, rng):
        x = bpsk()
        for _ in range(8):
            ch = random_unit_channel(rng)
            for rho in (0.1, 10.0):
                tap = design_mmse_dfe(ch, x, rho)
                _, beta1_sq, s = quadrature_summary(ch, rho)
                assert abs(tap.beta1_sq - beta1_sq) <= 1e-9 * max(beta1_sq, 1e-6), ch.taps
                assert tap.S == pytest.approx(s, rel=1e-9), ch.taps

    def test_low_snr_slopes(self):
        # S -> <|H|^2> rho, while eps0 -> <|H|^2> rho (1 + beta1_sq(0)) with
        # beta1_sq(0) = var(|H|^2)/(2 <|H|^2>^2): the second-order parts of
        # the two SNRs survive in the (snr_dfe-1)/(snr_le-1) ratio
        rho = 1e-5
        theta = -np.pi + (np.arange(1 << 16) + 0.5) * (2 * np.pi / (1 << 16))
        power = transfer_power(channel_b(), theta)
        m1 = float(np.mean(power))
        var = float(np.mean(power**2)) - m1 * m1
        beta1_0 = var / (2 * m1 * m1)
        tap = design_mmse_dfe(channel_b(), bpsk(), rho)
        assert tap.S == pytest.approx(m1 * rho, rel=1e-3)
        assert tap.beta1_sq == pytest.approx(beta1_0, rel=1e-3)
        assert tap.eps0 == pytest.approx(m1 * rho * (1.0 + beta1_0), rel=1e-3)


class TestDesignValidation:
    def test_rejects_nonpositive_rho(self):
        with pytest.raises(DomainError):
            design_mmse_dfe(channel_b(), bpsk(), 0.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(DomainError):
            design_mmse_dfe(channel_b(), bpsk(), rho)

    def test_two_tap_closed_form_validation(self):
        with pytest.raises(DomainError):
            two_tap_residual(1.5, 1.0, 5)


class TestDenseOracle:
    @pytest.mark.parametrize("ch", ORACLE_CHANNELS.values(), ids=ORACLE_CHANNELS.keys())
    def test_matches_dense_solve(self, ch):
        # the oracle window is twice the truncated length under test, so a
        # design cut too early or too late would differ in length
        for db in (-26.0, 0.0, 10.0):
            rho = 10 ** (db / 10)
            d = design_mmse_dfe(ch, bpsk(), rho)
            m = 2 * d.residual.size + 64
            alpha, em2 = _solve_ff(np.asarray(ch.taps), 1.0, 1.0 / rho, m)
            got = np.zeros(20)
            got[: min(20, d.residual_full.size)] = d.residual_full[:20]
            assert np.max(np.abs(got - alpha[:20])) <= 1e-9, db
            assert d.noise_var == pytest.approx(em2, rel=1e-9), db
            assert d.residual.size == _truncate(alpha).size, db

    @pytest.mark.parametrize("ch", [channel_b(), jeong(), jeong_spaced()], ids=["channel_b", "jeong", "jeong_spaced"])
    def test_bound_report_beta1_sq_at_minus_40_db(self, ch, monkeypatch):
        # the design every IE bound of bound_report reads, once per report;
        # a route through snr_dfe/snr_le - 1 loses ~1e-8 of beta1_sq to
        # cancellation here
        seen = []
        opt = isirate.bounds.ie_opt
        monkeypatch.setattr(isirate.bounds, "ie_opt", lambda d, x: seen.append(d) or opt(d, x))
        x = make_skewed_binary(0.002)
        rho = 1e-4
        bound_report(ch, x, rho, i_mmse_method="none")
        assert len(seen) == 1
        d = design_mmse_dfe(ch, x, rho)
        alpha, em2 = _solve_ff(np.asarray(ch.taps), x.power, x.power / rho, 2 * d.residual.size + 64)
        assert seen[0].beta1_sq == pytest.approx(float(alpha @ alpha), rel=1e-10)
        assert seen[0].S == pytest.approx(x.power / em2, rel=1e-10)


class TestHighSnr:
    @pytest.mark.parametrize("ch", [jeong(), jeong_spaced(), NULL], ids=["jeong", "jeong_spaced", "null"])
    def test_45_db(self, ch):
        rho = 10**4.5
        start = time.perf_counter()
        d = design_mmse_dfe(ch, bpsk(), rho)
        assert time.perf_counter() - start < 0.1
        rate = mean_over_theta(lambda th: np.log1p(rho * transfer_power(ch, th)), rel_tol=1e-13)
        assert abs(d.snr_unbiased - math.expm1(rate)) <= 1e-9 * math.expm1(rate)

    def test_null_channel_two_tap(self):
        rho = 10**4.5
        d = design_mmse_dfe(NULL, bpsk(), rho)
        ref = two_tap_residual(math.sqrt(0.5), rho, 10)
        assert np.max(np.abs(d.residual_full[:10] - ref)) <= 1e-12

    def test_impulse_response_budget(self):
        # the 1/G tail decays ever slower as the spectral null deepens
        with pytest.raises(BudgetExceeded):
            design_mmse_dfe(NULL, bpsk(), 1e11)


class TestFactorGuard:
    def test_perturbed_roots(self, monkeypatch):
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: roots(p) * (1.0 + 1e-6))
        with pytest.raises(RootFindingFailure, match="spectral factor"):
            design_mmse_dfe(jeong(), bpsk(), 1.0)

    def test_roots_outside(self, monkeypatch):
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: np.abs(roots(p)) + 1.0)
        with pytest.raises(RootFindingFailure, match="inside the unit circle"):
            design_mmse_dfe(jeong(), bpsk(), 1.0)


class TestClosedFormFlatChannel:
    def test_beta1_sq_nonnegative(self, rng):
        # the truncated taps and the untruncated noise variance still meet
        # the Gaussian equality log(1 + S/(1 + b1 S)) = <log(1 + rho|H|^2)>
        channels = [f() for f in CHANNEL_PRESETS.values()]
        channels += [ChannelResponse((1.0,)), NULL]
        channels += [random_unit_channel(rng) for _ in range(8)]
        for ch in channels:
            for db in np.arange(-40.0, 46.0, 5.0):
                d = design_mmse_dfe(ch, bpsk(), 10 ** (db / 10))
                assert d.beta1_sq >= 0.0, (ch.taps, db)
                assert d.eps0 == (1.0 + d.beta1_sq) * d.S
                assert d.eps1 == d.beta1_sq * d.S
                rate = math.log1p(d.S / (1.0 + d.beta1_sq * d.S))
                assert rate == pytest.approx(d.gaussian_rate, rel=1e-9), (ch.taps, db)

    @pytest.mark.parametrize("db", [-40.0, 30.0, 45.0])
    def test_flat_summary(self, db):
        rho = 10 ** (db / 10)
        tap = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), rho)
        assert tap.beta1_sq == 0.0
        assert tap.S == pytest.approx(rho, rel=1e-12)
