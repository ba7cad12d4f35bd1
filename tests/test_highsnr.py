"""Minimum-distance search and high-SNR exponent bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isirate.bounds import bound_report
from isirate.channel import ChannelResponse, channel_b, jeong, jeong_spaced, spectral_summary
from isirate import highsnr
from isirate.errors import DomainError, InconclusiveSearch, RootFindingFailure
from isirate.highsnr import (
    crossover_probe,
    delta_min_sq,
    error_alphabet,
    exponent_gap,
    log_fano_forney_upper,
    log_sl_gap_lower,
)
from isirate.scalar import bpsk, log_q_integral, make_skewed_binary, make_trinary, mutual_info

from conftest import event_distance_sq, random_unit_channel

NULL_CHANNEL = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
INPUTS = (bpsk(), make_trinary(0.01), make_trinary(0.2), make_skewed_binary(0.002))

# conv([1, 1], taps) puts a null at theta = pi; taps are multiples of 1e-3
null_channels = (
    st.lists(st.floats(-1.0, 1.0).map(lambda v: round(v, 3)), min_size=1, max_size=3)
    .filter(lambda t: sum(v * v for v in t) > 1e-2)
    .map(lambda t: ChannelResponse(tuple(np.convolve([1.0, 1.0], t))).normalized)
)


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
        # the first push is already the zero state: no state is expanded
        res = delta_min_sq(ChannelResponse((1.0,)), bpsk())
        assert res.delta_min_sq == 1.0
        assert res.witness == (-1.0,)
        assert res.nodes_explored == 0

    def test_requires_unit_energy(self):
        with pytest.raises(DomainError):
            delta_min_sq(channel_b(), bpsk())

    def test_channel_b_matches_brute_force(self):
        ch = channel_b().normalized.min_phase
        res = delta_min_sq(ch, bpsk())
        assert res.delta_min_sq == pytest.approx(
            brute_force_delta_min(ch, bpsk()), abs=1e-12
        )

    def test_random_channels_match_brute_force(self, rng):
        for _ in range(20):
            ch = random_unit_channel(rng, max_len=4).min_phase
            res = delta_min_sq(ch, bpsk())
            # enumeration covers the witness, so no cheaper event is missed
            brute = brute_force_delta_min(ch, bpsk(), max(6, len(res.witness)))
            assert res.delta_min_sq == pytest.approx(brute, abs=1e-12)

    def test_node_guard(self, monkeypatch):
        # channel_b with bpsk settles its goal after expanding 6 states
        ch = channel_b().normalized.min_phase
        monkeypatch.setattr(highsnr, "_NODE_GUARD", 6)
        assert delta_min_sq(ch, bpsk()).nodes_explored == 6
        monkeypatch.setattr(highsnr, "_NODE_GUARD", 5)
        with pytest.raises(InconclusiveSearch):
            delta_min_sq(ch, bpsk())

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
        # a null leaves the exact SNR, and with it the bound, finite
        val = math.exp(log_sl_gap_lower(NULL_CHANNEL, bpsk(), 100.0))
        snr = math.expm1(spectral_summary(NULL_CHANNEL, 100.0).gaussian_rate)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(_q_int_at(snr), rel=1e-12)

    def test_snr_too_low(self):
        # every positive rho has a bound; non-positive or non-finite has none
        for rho in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                log_sl_gap_lower(channel_b(), bpsk(), rho)

    @pytest.mark.parametrize("ch", [channel_b(), NULL_CHANNEL, ChannelResponse((0.3, -1.0, 0.5))])
    @pytest.mark.parametrize("rho", [0.7, 10.0, 3000.0])
    def test_snr_is_i_sl_bit_for_bit(self, ch, rho, monkeypatch):
        # bpsk has (d/2)^2 = 1, so the tail integral runs from I_SL's SNR
        seen = []
        monkeypatch.setattr(highsnr, "log_q_integral", lambda s: seen.append(s) or log_q_integral(s))
        log_sl_gap_lower(ch, bpsk(), rho)
        rep = bound_report(ch.normalized, bpsk(), rho, "none")
        assert seen == [math.expm1(rep.gaussian_rate)]
        assert mutual_info(bpsk(), seen[0]) == rep.i_sl

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        ch=st.one_of(
            st.lists(st.floats(-1.0, 1.0).map(lambda v: round(v, 3)), min_size=1, max_size=4)
            .filter(lambda t: sum(v * v for v in t) > 1e-2)
            .map(lambda t: ChannelResponse(tuple(t))),
            null_channels,
        ),
        x=st.sampled_from(INPUTS),
        rho=st.floats(0.5, 1e4),
    )
    def test_below_the_sl_gap(self, ch, x, rho):
        # H(x) - I_SL at the I_SL of bound_report; below 1e-10 the
        # quadrature of I_x, not the bound, sets the comparison
        gap = x.entropy - bound_report(ch.normalized, x, rho, "none").i_sl
        if gap > 1e-10:
            assert log_sl_gap_lower(ch, x, rho) <= math.log(gap)

    def test_slope_matches_exponent(self):
        gap = exponent_gap(two_tap_channel(0.5), bpsk())
        rhos = np.linspace(50, 200, 8)
        logs = [log_sl_gap_lower(two_tap_channel(0.5), bpsk(), r) for r in rhos]
        slope = np.polyfit(rhos, logs, 1)[0]
        assert slope == pytest.approx(-gap.g_zf_dfe / 2.0, rel=0.1)


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

    def test_low_rho_rows_carry_both_logs(self):
        table = crossover_probe(channel_b(), bpsk(), [0.01, 2.0, 10.0])
        for row in table.rows:
            assert math.isfinite(row.log_upper) and math.isfinite(row.log_lower)

    # first certified row on a 0.5-dB grid from 7 to 90 dB, bpsk, K' = 1
    @pytest.mark.parametrize(
        "ch, first_db",
        [(channel_b(), 11.5), (jeong(), 17.0), (jeong_spaced(), 8.0), (NULL_CHANNEL, 9.5)],
        ids=["channel_b", "jeong", "jeong_spaced", "null"],
    )
    def test_first_certified_row(self, ch, first_db):
        grid_db = 7.0 + 0.5 * np.arange(167)
        table = crossover_probe(ch, bpsk(), 10.0 ** (grid_db / 10.0))
        certifies = [row.certifies for row in table.rows]
        first = certifies.index(True)
        assert grid_db[first] == first_db
        assert all(certifies[first:])
        assert table.crossing_rho == table.rows[first].rho

    @pytest.mark.parametrize(
        "ch", [channel_b(), jeong(), jeong_spaced(), NULL_CHANNEL], ids=["channel_b", "jeong", "jeong_spaced", "null"]
    )
    def test_reaches_120_db(self, ch):
        table = crossover_probe(ch, bpsk(), [1e11, 1e12])
        assert all(row.certifies for row in table.rows)

    def test_past_the_factorisation_raises(self):
        # jeong's spectral factor misses its 1e-10 check from about 125 dB
        with pytest.raises(RootFindingFailure):
            crossover_probe(jeong(), bpsk(), [1e13])

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
        # the SNR-free quantities come from one np.roots of the channel, and
        # each SNR adds the one spectral factorisation behind I_SL
        calls = []
        real = np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or real(p))
        grid = np.geomspace(2.0, 1e5, n_snrs)
        for ch in (channel_b(), two_tap_channel(math.sqrt(0.5))):
            calls.clear()
            crossover_probe(ch, bpsk(), grid)
            assert len(calls) == 1 + n_snrs

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_nonpositive_rho(self, rho):
        with pytest.raises(DomainError):
            crossover_probe(channel_b(), bpsk(), [10.0, rho])

    def test_uncertified_search_raises_before_rows(self, monkeypatch):
        # channel_b's search needs 6 states, more than this guard allows
        monkeypatch.setattr(highsnr, "_NODE_GUARD", 5)
        with pytest.raises(InconclusiveSearch):
            crossover_probe(channel_b(), bpsk(), [2.0])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        taps=st.lists(st.floats(-1.0, 1.0).map(lambda v: round(v, 3)), min_size=1, max_size=4).filter(
            lambda t: abs(t[0]) >= 1e-2 and abs(t[-1]) >= 1e-2
        ),
        x=st.sampled_from([bpsk(), make_trinary(0.01), make_skewed_binary(0.002)]),
        grid=st.lists(st.floats(0.5, 1e5), min_size=1, max_size=6),
        k_prime=st.floats(0.1, 10.0),
    )
    def test_rows_are_the_two_log_bounds(self, taps, x, grid, k_prime):
        ch = ChannelResponse(tuple(taps))
        table = crossover_probe(ch, x, grid, k_prime=k_prime)
        gap = exponent_gap(ch, x)
        for rho, row in zip(grid, table.rows, strict=True):
            want = (log_fano_forney_upper(gap, x, rho, k_prime), log_sl_gap_lower(ch, x, rho))
            assert (row.log_upper, row.log_lower) == want
