"""Channel model and spectral summaries."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from isirate.channel import (
    ChannelResponse,
    _dfe_factor,
    channel_b,
    jeong,
    jeong_spaced,
    spectral_summary,
    transfer_power,
)
from isirate.errors import DomainError

from conftest import mean_over_theta, random_unit_channel

ORACLE_DB = (-40.0, -25.0, -10.0, 0.0, 15.0, 30.0, 45.0)
NULL = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))


def _oracle_channels() -> dict[str, ChannelResponse]:
    rng = np.random.default_rng(5)
    named = {"channel_b": channel_b(), "jeong": jeong(), "jeong_spaced": jeong_spaced()}
    named.update(flat=ChannelResponse((1.0,)), null=NULL)
    named.update((f"random{i}", random_unit_channel(rng)) for i in range(4))
    return named


ORACLE_CHANNELS = _oracle_channels()


def quadrature_log_mean(ch: ChannelResponse, n: int = 1 << 20) -> float:
    """Independent midpoint-rule oracle for <log |H|^2>."""
    theta = -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)
    return float(np.mean(np.log(transfer_power(ch, theta))))


class TestTransferPower:
    def test_identity_channel(self):
        ch = ChannelResponse((1.0,))
        for theta in (-3.0, 0.0, 0.5, np.pi):
            assert transfer_power(ch, theta) == pytest.approx(1.0, abs=0)

    def test_channel_b_dc(self):
        # sum of taps squared at theta = 0
        assert transfer_power(channel_b(), 0.0) == pytest.approx(1.633**2, abs=1e-12)

    def test_nyquist_null(self):
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        assert transfer_power(ch, np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_vectorized(self):
        theta = np.linspace(-np.pi, np.pi, 64)
        vals = transfer_power(channel_b(), theta)
        assert vals.shape == (64,)
        assert np.all(vals >= 0)


class TestSpectralSummary:
    def test_flat_channel(self):
        ss = spectral_summary(ChannelResponse((1.0,)), 3.0)
        assert ss.snr_le == pytest.approx(4.0, rel=1e-12)
        assert ss.snr_dfe == pytest.approx(4.0, rel=1e-12)
        assert ss.gaussian_rate == pytest.approx(math.log(4.0), rel=1e-12)
        assert ss.g_zf_dfe == pytest.approx(1.0, rel=1e-12)
        assert ss.g_zf_le == pytest.approx(1.0, rel=1e-12)

    def test_two_tap_null_gains(self):
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        ss = spectral_summary(ch, 1.7)
        # minimum phase with both roots relevant: g = h_0^2
        assert ss.g_zf_dfe == pytest.approx(0.5, rel=1e-12)
        assert ss.g_zf_le == 0.0

    def test_null_channel_g_matches_quadrature(self):
        # the log singularity converges slowly; compare at its own accuracy
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        est = quadrature_log_mean(ch)
        assert math.exp(est) == pytest.approx(0.5, rel=2e-4)

    def test_g_zf_dfe_against_quadrature_regular_channels(self, rng):
        for _ in range(10):
            ch = random_unit_channel(rng, max_len=5)
            ss = spectral_summary(ch, 1.0)
            if ss.g_zf_le == 0.0:
                continue
            assert ss.g_zf_dfe == pytest.approx(
                math.exp(quadrature_log_mean(ch)), rel=1e-8
            )

    def test_jensen_ordering_random(self, rng):
        for _ in range(50):
            ch = random_unit_channel(rng)
            for rho in (0.01, 1.0, 100.0):
                ss = spectral_summary(ch, rho)
                assert ss.snr_dfe >= ss.snr_le - 1e-12 * ss.snr_dfe
                assert ss.snr_le >= 1.0 - 1e-12
                assert math.log(ss.snr_dfe) == pytest.approx(
                    ss.gaussian_rate, abs=1e-10
                )
                # Jensen: exp<log|H|^2> <= <|H|^2> = 1 for unit energy
                assert ss.g_zf_dfe <= 1.0 + 1e-9

    def test_low_snr_limit(self):
        # snr_dfe - 1 and snr_le - 1 both approach rho <|H|^2>
        ch = channel_b()
        energy = ch.energy()
        rho = 1e-6
        ss = spectral_summary(ch, rho)
        assert (ss.snr_dfe - 1.0) / (rho * energy) == pytest.approx(1.0, rel=1e-3)
        assert (ss.snr_le - 1.0) / (rho * energy) == pytest.approx(1.0, rel=1e-3)
        assert (ss.snr_dfe - 1.0) / (ss.snr_le - 1.0) == pytest.approx(1.0, rel=1e-3)

    def test_rejects_bad_rho(self):
        with pytest.raises(DomainError):
            spectral_summary(channel_b(), 0.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(DomainError):
            spectral_summary(channel_b(), rho)


class TestClosedFormsAgainstQuadrature:
    """The spectral factorisation against theta quadrature, an independent route."""

    @pytest.mark.parametrize("ch", ORACLE_CHANNELS.values(), ids=ORACLE_CHANNELS.keys())
    def test_snr_summaries(self, ch):
        power = lambda th: transfer_power(ch, th)
        for db in ORACLE_DB:
            rho = 10 ** (db / 10)
            ss = spectral_summary(ch, rho)
            rate = mean_over_theta(lambda th: np.log1p(rho * power(th)))
            le = 1.0 / mean_over_theta(lambda th: 1.0 / (1.0 + rho * power(th)))
            assert ss.gaussian_rate == pytest.approx(rate, rel=1e-10), db
            assert ss.snr_dfe == pytest.approx(math.exp(rate), rel=1e-10), db
            assert ss.snr_le == pytest.approx(le, rel=1e-10), db

    @pytest.mark.parametrize("ch", ORACLE_CHANNELS.values(), ids=ORACLE_CHANNELS.keys())
    def test_zf_le_gain(self, ch):
        ss = spectral_summary(ch, 1.0)
        roots = np.roots(ch.taps) if ch.length > 1 else np.zeros(0)
        if roots.size and np.min(np.abs(np.abs(roots) - 1.0)) <= 1e-9:
            assert ss.g_zf_le == 0.0  # <1/|H|^2> diverges on a null
        else:
            oracle = 1.0 / mean_over_theta(lambda th: 1.0 / transfer_power(ch, th))
            assert ss.g_zf_le == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("root", [1.0 - 1e-7, 1.0 + 1e-7])
    def test_near_null_gain_is_zero(self, root):
        # 1/H_min would need ~5e8 taps, past the 2^22 budget: the gain is
        # reported as 0, like a null, and the SNRs are unaffected
        ch = ChannelResponse((1.0, -root)).normalized
        ss = spectral_summary(ch, 10.0)
        assert ss.g_zf_le == 0.0
        assert ss.snr_le > 1.0


class TestChannelResponse:
    def test_requires_nonzero(self):
        with pytest.raises(DomainError):
            ChannelResponse((0.0, 0.0))
        with pytest.raises(DomainError):
            ChannelResponse(())

    def test_normalized(self):
        ch = ChannelResponse((3.0, 4.0)).normalized
        assert ch.energy() == pytest.approx(1.0, abs=1e-15)

    def test_presets_energy(self):
        assert channel_b().energy() == pytest.approx(1.000417, abs=1e-12)
        assert jeong().energy() == pytest.approx(0.9904, abs=1e-12)
        assert jeong_spaced().energy() == pytest.approx(jeong().energy(), abs=1e-15)

    def test_from_json(self):
        ch = ChannelResponse.from_json("[3, 4]")
        assert ch.taps == (3.0, 4.0)
        assert ch.normalized.energy() == pytest.approx(1.0, abs=1e-15)


class TestChannelContext:
    """SNR-free quantities are cached on the channel and never shared mutably."""

    def test_cached_once(self):
        ch = jeong()
        for name in ("roots", "reflected_roots", "autocorrelation", "min_phase", "normalized"):
            assert getattr(ch, name) is getattr(ch, name), name
        assert ch.normalized.min_phase is ch.normalized.min_phase

    @pytest.mark.parametrize("name", ["roots", "reflected_roots", "autocorrelation"])
    def test_cached_arrays_are_read_only(self, name):
        arr = getattr(jeong_spaced(), name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0

    def test_dfe_factor_leaves_the_autocorrelation_alone(self):
        # _dfe_factor adds 1/rho to a copy of r_0: alternating SNRs on one
        # channel give the results of a fresh channel at each SNR
        ch = channel_b()
        r = ch.autocorrelation.copy()
        first = _dfe_factor(ch, 2.0)
        _dfe_factor(ch, 300.0)
        again = _dfe_factor(ch, 2.0)
        fresh = _dfe_factor(channel_b(), 2.0)
        for got in (again, fresh):
            assert got[0] == first[0] and got[2] == first[2]
            assert np.array_equal(got[1], first[1])
        assert np.array_equal(ch.autocorrelation, r)

    def test_threads_racing_on_first_access_agree(self):
        # eight threads, more than the cores, read one fresh channel's
        # cache with a short switch interval: every reader sees the values
        # a lone reader computes
        def read(ch):
            return (
                ch.roots.tobytes(),
                ch.normalized.min_phase.taps,
                ch.zf_le_gain,
                ch.log_mean_spectrum,
                spectral_summary(ch, 100.0),
            )

        want = read(jeong_spaced())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ch = jeong_spaced()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(read, ch) for _ in range(8)]
                    got = [f.result(timeout=60) for f in futures]
                assert all(g == want for g in got)
        finally:
            sys.setswitchinterval(interval)

    def test_equal_channels_stay_equal(self):
        # the cache is not part of the value: equality and hashing see taps only
        ch = channel_b()
        _ = ch.min_phase, ch.zf_le_gain
        assert ch == channel_b() and hash(ch) == hash(channel_b())


class TestMinimumPhase:
    def test_identity(self):
        assert ChannelResponse((1.0,)).min_phase.taps == (1.0,)

    def test_flips_max_phase_two_tap(self):
        mp = ChannelResponse((0.6, 0.8)).min_phase
        assert mp.taps[0] == pytest.approx(0.8, abs=1e-12)
        assert mp.taps[1] == pytest.approx(0.6, abs=1e-12)

    def test_preserves_transfer_power(self, rng):
        theta = np.linspace(-np.pi, np.pi, 4096)
        for _ in range(20):
            ch = random_unit_channel(rng)
            mp = ch.min_phase
            orig = transfer_power(ch, theta)
            new = transfer_power(mp, theta)
            assert np.max(np.abs(new - orig)) <= 1e-8 * max(1.0, orig.max())

    def test_first_tap_carries_zf_dfe_gain(self, rng):
        for _ in range(20):
            ch = random_unit_channel(rng)
            mp = ch.min_phase
            g = math.exp(ch.log_mean_spectrum)
            assert mp.taps[0] ** 2 == pytest.approx(g, rel=1e-8)

    def test_channel_b(self):
        mp = channel_b().min_phase
        g = spectral_summary(channel_b(), 1.0).g_zf_dfe
        assert mp.taps[0] ** 2 == pytest.approx(g, rel=1e-10)

    def test_preserves_energy(self, rng):
        for _ in range(10):
            ch = random_unit_channel(rng)
            assert ch.min_phase.energy() == pytest.approx(
                ch.energy(), rel=1e-12
            )

    def test_trailing_zero_tap(self):
        # the zero tap puts a root at z = 0, which stays inside and must not
        # be reflected to 1/conj(0); the root at z = -1 is a spectral null
        ch = ChannelResponse((0.7071, 0.7071, 0.0))
        theta = np.linspace(-np.pi, np.pi, 257)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mp = ch.min_phase
            ss = spectral_summary(ch, 2.0)
        assert np.allclose(transfer_power(mp, theta), transfer_power(ch, theta), atol=1e-12)
        assert ss.g_zf_le == 0.0
        assert ss.g_zf_dfe == pytest.approx(0.7071**2, rel=1e-12)
        assert ss.snr_le < ss.snr_dfe
