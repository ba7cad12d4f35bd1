"""Minimum-distance search and high-SNR exponent bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isirate.channel import (
    ChannelResponse,
    channel_b,
    jeong,
    jeong_spaced,
    spectral_summary,
    transfer_power,
)
from isirate import highsnr
from isirate.errors import DomainError, InconclusiveSearch
from isirate.highsnr import (
    _low_spectrum_fraction,
    crossover_probe,
    delta_min_sq,
    error_alphabet,
    exponent_gap,
    log_fano_forney_upper,
    log_sl_gap_lower,
    snr_dfe_upper_bound,
)
from isirate.scalar import bpsk, log_q_integral, make_skewed_binary, make_trinary, mutual_info

from conftest import event_distance_sq, mean_over_theta, random_unit_channel


def two_tap_channel(q):
    return ChannelResponse((math.sqrt(1 - q * q), q))


def brute_force_delta_min(channel, x, max_len=6):
    alphabet = error_alphabet(x)
    best = math.inf
    for length in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            if combo[0] == 0.0 or combo[-1] == 0.0:
                continue
            best = min(best, event_distance_sq(channel, combo))
    return best


class TestDeltaMinSearch:
    def test_single_tap(self):
        res = delta_min_sq(ChannelResponse((1.0,)), bpsk())
        assert res.delta_min_sq == 1.0
        assert res.certified

    def test_requires_unit_energy(self):
        with pytest.raises(DomainError):
            delta_min_sq(channel_b(), bpsk())

    def test_channel_b_matches_brute_force(self):
        ch = channel_b().normalized.min_phase
        res = delta_min_sq(ch, bpsk())
        assert res.certified
        assert res.delta_min_sq == pytest.approx(
            brute_force_delta_min(ch, bpsk()), abs=1e-12
        )

    def test_random_channels_match_brute_force(self, rng):
        for _ in range(20):
            ch = random_unit_channel(rng, max_len=4).min_phase
            res = delta_min_sq(ch, bpsk())
            brute = brute_force_delta_min(ch, bpsk())
            assert res.certified
            assert res.delta_min_sq <= brute + 1e-12
            # brute force is exhaustive only to length 6; the search may
            # legitimately find a longer, cheaper event
            if len(res.witness) <= 6:
                assert res.delta_min_sq == pytest.approx(brute, abs=1e-12)

    def test_witness_reproduces_distance(self, rng):
        for _ in range(10):
            ch = random_unit_channel(rng, max_len=4).min_phase
            res = delta_min_sq(ch, make_trinary(0.2))
            assert res.witness[0] != 0.0 and res.witness[-1] != 0.0
            assert event_distance_sq(ch, res.witness) == pytest.approx(
                res.delta_min_sq, abs=1e-12
            )

    def test_first_last_tap_floor(self, rng):
        for _ in range(10):
            ch = random_unit_channel(rng, max_len=5).min_phase
            if ch.length < 2:
                continue
            res = delta_min_sq(ch, bpsk())
            floor = ch.taps[0] ** 2 + ch.taps[-1] ** 2
            assert res.delta_min_sq >= floor - 1e-12


class TestExponentGap:
    def test_flat_equality(self):
        gap = exponent_gap(ChannelResponse((1.0,)), bpsk())
        assert gap.delta_min_sq == gap.g_zf_dfe == 1.0
        assert not gap.strict

    def test_strict_cases(self):
        for ch in (channel_b(), jeong(), two_tap_channel(0.6), two_tap_channel(0.9)):
            gap = exponent_gap(ch, bpsk())
            assert gap.strict
            assert gap.delta_min_sq > gap.g_zf_dfe + 1e-9


class TestFanoForneyUpper:
    def test_decays_to_zero(self):
        gap = exponent_gap(channel_b(), bpsk())
        vals = [math.exp(log_fano_forney_upper(gap, bpsk(), rho, 1.0)) for rho in (10, 100, 400)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-10

    def test_low_snr_cap(self):
        # with K' > 1 the error probability caps at 1/2, bounding the value
        # by h2(1/2) + log|X|/2
        gap = exponent_gap(channel_b(), bpsk())
        val = math.exp(log_fano_forney_upper(gap, bpsk(), 1e-9, 2.0))
        assert val == pytest.approx(math.log(2.0) + 0.5 * math.log(2.0), rel=1e-12)
        val1 = math.exp(log_fano_forney_upper(gap, bpsk(), 1e-9, 1.0))
        assert val1 <= math.log(2.0) + 0.5 * math.log(2.0) + 1e-12

    def test_slope_matches_exponent(self):
        gap = exponent_gap(channel_b(), bpsk())
        rhos = np.linspace(50, 200, 8)
        logs = [log_fano_forney_upper(gap, bpsk(), r, 1.0) for r in rhos]
        slope = np.polyfit(rhos, logs, 1)[0]
        # (d_min/2)^2 = 1 for unit-power binary
        assert slope == pytest.approx(-gap.delta_min_sq / 2.0, rel=0.1)


class TestSlGapLower:
    def test_flat_channel_sound(self):
        # the bound must sit below the true entropy gap; at rho=100 the gap
        # is far below the quadrature floor, so allow that much slack
        x = bpsk()
        for rho in (10.0, 100.0):
            lower = math.exp(log_sl_gap_lower(ChannelResponse((1.0,)), x, rho))
            actual = x.entropy - mutual_info(x, rho)
            assert lower <= actual + 1e-12

    def test_pair_probability(self):
        assert math.exp(log_sl_gap_lower(ChannelResponse((1.0,)), bpsk(), 10.0)) == pytest.approx(
            2 * 0.5 * _q_int_at(10.0), rel=1e-12
        )
        x = make_skewed_binary(0.002)
        lower = math.exp(log_sl_gap_lower(ChannelResponse((1.0,)), x, 10.0))
        # p(v1) = 0.002 scales the bound
        assert lower == pytest.approx(
            2 * 0.002 * _q_int_at(10.0 * (x.d_min / 2.0) ** 2), rel=1e-12
        )

    def test_spectral_null_branch(self):
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        val = math.exp(log_sl_gap_lower(ch, bpsk(), 100.0))
        assert 0.0 < val < 1.0
        # null branch engaged: upper bound exceeds the positive-branch form
        up = snr_dfe_upper_bound(ch, 100.0)
        assert up > 100.0 * 0.5

    def test_snr_too_low(self):
        with pytest.raises(DomainError):
            log_sl_gap_lower(channel_b(), bpsk(), 3.0)

    def test_slope_matches_exponent(self):
        gap = exponent_gap(two_tap_channel(0.5), bpsk())
        rhos = np.linspace(50, 200, 8)
        logs = [log_sl_gap_lower(two_tap_channel(0.5), bpsk(), r) for r in rhos]
        slope = np.polyfit(rhos, logs, 1)[0]
        assert slope == pytest.approx(-gap.g_zf_dfe / 2.0, rel=0.1)


class TestLogSqMeanSpectrum:
    def test_null_channel(self):
        # <log^2(1 + cos theta)> = pi^2/3 + log^2 2
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        want = math.pi**2 / 3.0 + math.log(2.0) ** 2
        assert ch.log_sq_mean_spectrum == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("ch", [channel_b(), jeong_spaced()], ids=["channel_b", "jeong_spaced"])
    def test_matches_quadrature(self, ch):
        # no root on the unit circle, so the midpoint rule converges
        quad = mean_over_theta(lambda th: np.log(transfer_power(ch, th)) ** 2, rel_tol=1e-13)
        assert ch.log_sq_mean_spectrum == pytest.approx(quad, rel=1e-9)

    def test_flat(self):
        assert ChannelResponse((2.0,)).log_sq_mean_spectrum == pytest.approx(math.log(4.0) ** 2, rel=1e-15)


# conv([1, 1], taps) puts a null at theta = pi; taps are multiples of 1e-3
null_channels = (
    st.lists(st.floats(-1.0, 1.0).map(lambda v: round(v, 3)), min_size=1, max_size=3)
    .filter(lambda t: sum(v * v for v in t) > 1e-2)
    .map(lambda t: ChannelResponse(tuple(np.convolve([1.0, 1.0], t))).normalized)
)
null_snr_db = st.floats(7.0, 60.0)


class TestLowSpectrumFraction:
    GRID = 2**22

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(ch=null_channels, snr_db=null_snr_db)
    def test_matches_midpoint_grid(self, ch, snr_db):
        t = 10 ** (-snr_db / 20)
        n = self.GRID
        # |H|^2 at theta_k = -pi + (k + 1/2) 2 pi/n, by one FFT
        m = np.arange(ch.length)
        power = np.abs(np.fft.fft(np.asarray(ch.taps) * np.exp(1j * np.pi * (1 - 1 / n) * m), n)) ** 2
        grid = np.count_nonzero(power < t) / n
        # each crossing of t misplaces at most one grid cell; every crossing
        # is a root of z^{L-1}(|H(z)|^2 - t) on the unit circle
        r = np.correlate(ch.taps, ch.taps, mode="full")
        r[ch.length - 1] -= t
        crossings = np.count_nonzero(np.abs(np.abs(np.roots(r)) - 1.0) < 1e-6)
        assert abs(_low_spectrum_fraction(ch, t) - grid) <= crossings / n

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ch=null_channels, snr_db=null_snr_db)
    def test_snr_bound_holds(self, ch, snr_db):
        rho = 10 ** (snr_db / 10)
        assert snr_dfe_upper_bound(ch, rho) >= spectral_summary(ch, rho).snr_dfe

    def test_two_tap_null_closed_form(self):
        # |H|^2 = 1 + cos(theta) < t on |theta| > arccos(t - 1)
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        for t in (0.01, 0.3, 1.0):
            want = 1.0 - math.acos(t - 1.0) / math.pi
            assert _low_spectrum_fraction(ch, t) == pytest.approx(want, rel=1e-12)


def _q_int_at(s):
    return math.exp(log_q_integral(s))


class TestCrossoverProbe:
    GRID = np.geomspace(5.0, 50_000.0, 50)

    def test_flat_never_certifies(self):
        table = crossover_probe(ChannelResponse((1.0,)), bpsk(), self.GRID)
        assert table.crossing_rho is None

    def test_channel_b_certifies(self):
        table = crossover_probe(channel_b(), bpsk(), self.GRID, k_prime=1.0)
        assert table.crossing_rho is not None

    def test_two_tap_monotonicity(self):
        t5 = crossover_probe(two_tap_channel(0.5), bpsk(), self.GRID)
        t9 = crossover_probe(two_tap_channel(0.9), bpsk(), self.GRID)
        assert t5.crossing_rho is not None and t9.crossing_rho is not None
        assert t9.crossing_rho > t5.crossing_rho

    def test_low_rho_rows_marked_invalid(self):
        table = crossover_probe(channel_b(), bpsk(), [2.0, 10.0])
        assert table.rows[0].log_upper is None
        assert table.rows[1].log_upper is not None

    def test_one_search_per_probe(self, monkeypatch):
        # one search, on the channel's cached unit-energy minimum-phase form
        searched = []
        real = highsnr.delta_min_sq
        monkeypatch.setattr(
            highsnr, "delta_min_sq", lambda ch, *a, **k: searched.append(ch) or real(ch, *a, **k)
        )
        ch = channel_b()
        crossover_probe(ch, bpsk(), [2.0, 10.0, 100.0, 1000.0])
        assert len(searched) == 1
        assert searched[0] is ch.normalized.min_phase

    @pytest.mark.parametrize("n_snrs", [1, 4, 40])
    def test_channel_roots_found_once(self, n_snrs, monkeypatch):
        # the SNR-free quantities come from one np.roots of the channel; the
        # null-bearing channel adds one crossing polynomial per SNR above 4
        calls = []
        real = np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or real(p))
        grid = np.geomspace(2.0, 1e5, n_snrs)
        crossover_probe(channel_b(), bpsk(), grid)
        assert len(calls) == 1
        calls.clear()
        crossover_probe(two_tap_channel(math.sqrt(0.5)), bpsk(), grid)
        assert len(calls) == 1 + np.count_nonzero(grid > 4.0)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_nonpositive_rho(self, rho):
        with pytest.raises(DomainError):
            crossover_probe(channel_b(), bpsk(), [10.0, rho])

    def test_uncertified_search_raises_before_rows(self, monkeypatch):
        # a node guard this small leaves channel_b's search uncertified
        monkeypatch.setattr(highsnr, "_NODE_GUARD", 5)
        with pytest.raises(InconclusiveSearch):
            crossover_probe(channel_b(), bpsk(), [2.0])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        taps=st.lists(st.floats(-1.0, 1.0).map(lambda v: round(v, 3)), min_size=1, max_size=4).filter(
            lambda t: abs(t[0]) >= 1e-2 and abs(t[-1]) >= 1e-2
        ),
        x=st.sampled_from([bpsk(), make_trinary(0.01), make_skewed_binary(0.002)]),
        grid=st.lists(st.one_of(st.floats(0.5, 3.9), st.floats(4.1, 1e5)), min_size=1, max_size=6),
        k_prime=st.floats(0.1, 10.0),
    )
    def test_rows_are_the_two_log_bounds(self, taps, x, grid, k_prime):
        ch = ChannelResponse(tuple(taps))
        table = crossover_probe(ch, x, grid, k_prime=k_prime)
        gap = exponent_gap(ch, x)
        for rho, row in zip(grid, table.rows, strict=True):
            if rho > 4.0:
                want = (log_fano_forney_upper(gap, x, rho, k_prime), log_sl_gap_lower(ch, x, rho))
                assert (row.log_upper, row.log_lower) == want
            else:
                assert row.log_upper is None and row.log_lower is None
