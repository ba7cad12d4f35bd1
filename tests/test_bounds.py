"""Bound family: exact/MC I_MMSE, gap expansion, genie and IE bounds."""

import math

import numpy as np
import pytest

from isirate.bounds import (
    _char_fn,
    _density_tables,
    _enumerate_mixture,
    _fft_grid,
    _frequencies,
    _LogDensityTable,
    _sample_indices,
    bound_report,
    genie_equal_sigma,
    genie_mmse_lower,
    genie_one_cluster,
    genie_singletons,
    i_mmse_exact,
    i_mmse_mc,
    i_sl,
    i_sow,
    ie_bound,
    ie_conj,
    ie_opt,
    ie_simple,
    slc_gap_series,
    two_tap_gap_leading,
)
import isirate.bounds
import isirate.channel
from isirate.channel import ChannelResponse, channel_b, jeong, spectral_summary
from isirate.equalizer import design_mmse_dfe
from isirate.errors import BudgetExceeded, DomainError, NormalizationViolated, PartitionInvalid
from isirate.scalar import (
    bpsk,
    discrete_mmse,
    make_skewed_binary,
    make_trinary,
    mmse,
    mutual_info,
)

from conftest import quadrature_summary


def two_tap_channel(q):
    return ChannelResponse((math.sqrt(1 - q * q), q))


class TestSingleLetterProxies:
    def test_flat_channel_collapse(self):
        ch = ChannelResponse((1.0,))
        ref = mutual_info(bpsk(), 2.0)
        assert i_sow(ch, bpsk(), 2.0) == pytest.approx(ref, abs=1e-10)
        assert i_sl(design_mmse_dfe(ch, bpsk(), 2.0), bpsk()) == pytest.approx(ref, abs=1e-10)

    def test_sow_below_sl(self):
        # SNR_ZF-DFE < SNR_DFE-U on a real ISI channel
        ss = spectral_summary(channel_b(), 10.0)
        assert ss.snr_zf_dfe < ss.snr_dfe - 1.0
        d = design_mmse_dfe(channel_b(), bpsk(), 10.0)
        assert i_sow(channel_b(), bpsk(), 10.0) < i_sl(d, bpsk())

    def test_sow_finite_with_spectral_null(self):
        ch = ChannelResponse((math.sqrt(0.5), math.sqrt(0.5)))
        val = i_sow(ch, bpsk(), 4.0)
        assert 0.0 < val < math.log(2.0)


class TestImmseExact:
    def test_empty_residual(self):
        d = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), 2.0)
        res = i_mmse_exact(d, bpsk())
        assert res.value == pytest.approx(mutual_info(bpsk(), 2.0), abs=1e-9)

    def test_matches_mc(self):
        d = design_mmse_dfe(two_tap_channel(0.6), bpsk(), 0.5)
        ex = i_mmse_exact(d, bpsk())
        mc = i_mmse_mc(d, bpsk(), 100_000, seed=5)
        assert abs(ex.value - mc.value) <= 3.0 * mc.std_error

    def test_budget_exceeded_uniform_weights(self, monkeypatch):
        monkeypatch.setattr(isirate.bounds, "_BUDGET", 2**12)
        d = design_mmse_dfe(jeong(), bpsk(), 10 ** (0.5))
        with pytest.raises(BudgetExceeded):
            i_mmse_exact(d, bpsk())

    def test_reference_sign_skewed_low_snr(self):
        # in the low-SNR regime I_MMSE falls below I_SL for skewed input
        x = make_skewed_binary(0.002)
        rho = 10 ** (-2.0)
        d = design_mmse_dfe(channel_b(), x, rho)
        gap = i_mmse_exact(d, x).value - i_sl(d, x)
        assert gap < 0.0

    def test_pruning_accounting(self):
        x = make_trinary(0.01)
        taps = np.array([1.0, 0.5, 0.25, 0.1, 0.05, 0.02])
        means, w, dropped = _enumerate_mixture(
            taps, np.array(x.atoms), np.array(x.probs), budget=2**7, mass_budget=1e-2
        )
        assert means.size <= 2**7
        assert 0.0 < dropped <= 1e-2
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # an infeasible mass budget must refuse rather than overreach
        with pytest.raises(BudgetExceeded):
            _enumerate_mixture(
                taps, np.array(x.atoms), np.array(x.probs), budget=2**7, mass_budget=1e-6
            )


class TestImmseMc:
    def test_empty_residual(self):
        d = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), 1.0)
        est = i_mmse_mc(d, bpsk(), 50_000, seed=3)
        assert abs(est.value - mutual_info(bpsk(), 1.0)) <= 3.0 * est.std_error

    def test_stderr_sqrt_law(self):
        d = design_mmse_dfe(jeong(), bpsk(), 1.0)
        e1 = i_mmse_mc(d, bpsk(), 50_000, seed=9)
        e4 = i_mmse_mc(d, bpsk(), 200_000, seed=10)
        assert e1.std_error / e4.std_error == pytest.approx(2.0, rel=0.2)

    def test_deterministic_given_seed(self):
        d = design_mmse_dfe(two_tap_channel(0.5), bpsk(), 1.0)
        a = i_mmse_mc(d, bpsk(), 20_000, seed=1)
        b = i_mmse_mc(d, bpsk(), 20_000, seed=1)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_rejects_small_n(self):
        d = design_mmse_dfe(two_tap_channel(0.5), bpsk(), 1.0)
        with pytest.raises(DomainError):
            i_mmse_mc(d, bpsk(), 100, seed=1)


def _direct_log(ys, taps, atoms, probs, sigma, dy, n):
    """Oracle: log p(y) by direct inversion of the characteristic function.

    Phi is formed on all n frequencies of the grid, one complex exponential
    per tap, and summed at arbitrary points with a dense kernel.
    """
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dy)
    phi = np.exp(-0.5 * (sigma * omega) ** 2).astype(complex)
    for t in taps:
        phi *= np.exp(1j * np.outer(omega, t * atoms)) @ probs
    p = (np.exp(-1j * np.outer(ys, omega)) @ phi).real / (dy * n)
    return np.log(np.maximum(p, 1e-300))


_TABLE_CASES = [
    (jeong(), bpsk(), -12.0),
    (jeong(), bpsk(), 15.0),
    (channel_b(), make_skewed_binary(0.002), 2.5),
]


def _table_inputs(ch, x, snr_db):
    d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
    return d.residual, np.asarray(x.atoms), np.asarray(x.probs), math.sqrt(d.noise_var)


class TestDensityTable:
    @pytest.mark.parametrize("ch,x,snr_db", _TABLE_CASES)
    def test_audit_matches_direct_inversion(self, ch, x, snr_db):
        taps1, atoms, probs, sigma = _table_inputs(ch, x, snr_db)
        taps0 = np.concatenate(([1.0], taps1))
        _, dy, n = _fft_grid(taps0, atoms, sigma)
        for table, taps in zip(_density_tables(taps1, atoms, probs, sigma), (taps0, taps1)):
            ref = _direct_log(table.audit_y, taps, atoms, probs, sigma, dy, n)
            mask = ref >= ref.max() - 23.0
            # both sides are at round-off ~1e-15 of the peak density
            peak = math.exp(ref.max())
            diff = np.abs(np.exp(table.audit_logp[mask]) - np.exp(ref[mask]))
            assert diff.max() <= 1e-12 * peak
            assert table.audit_err < 1e-4

    @pytest.mark.parametrize("ch,x,snr_db", _TABLE_CASES)
    def test_shared_grid_matches_own_grid(self, ch, x, snr_db):
        taps1, atoms, probs, sigma = _table_inputs(ch, x, snr_db)
        _, table1 = _density_tables(taps1, atoms, probs, sigma)
        lo, dy, n = _fft_grid(taps1, atoms, sigma)
        own = _LogDensityTable(lo, dy, n, _char_fn(taps1, atoms, probs, sigma, _frequencies(n, dy)))
        ys = lo + dy * np.arange(n)
        ref = own(ys)
        shared = table1(ys)
        # where p > e^-10 of its peak the tables differ by spline error only;
        # deeper in the tails both are FFT round-off, ~1e-15 of the peak
        core = ref >= ref.max() - 10.0
        assert np.max(np.abs(shared[core] - ref[core])) <= 1e-8
        mask = ref >= ref.max() - 23.0
        peak = math.exp(ref.max())
        assert np.max(np.abs(np.exp(shared[mask]) - np.exp(ref[mask]))) <= 1e-9 * peak


class TestSampleIndices:
    @pytest.mark.parametrize("x", [bpsk(), make_skewed_binary(0.002), make_trinary(0.01)])
    def test_matches_searchsorted(self, x, rng):
        cum = np.cumsum(x.probs)
        u = rng.random((1000, 100))
        idx = _sample_indices(u, cum)
        assert idx.dtype == np.uint8
        assert np.array_equal(idx, np.searchsorted(cum, u))

    @pytest.mark.parametrize("last", [1.0 - 2.0**-52, 1.0 - 2.0**-53])
    def test_index_stays_in_alphabet(self, last):
        cum = np.array([0.25, 0.5, last])
        u = np.array([np.nextafter(last, 2.0), 0.3])
        assert np.searchsorted(cum, u)[0] == cum.size  # one past the last atom
        assert _sample_indices(u, cum).tolist() == [cum.size - 1, 1]


class TestGapSeries:
    def test_gaussian_moments_vanish(self):
        d = design_mmse_dfe(channel_b(), bpsk(), 0.01)

        class GaussianMoments:
            skewness = 0.0
            excess_kurtosis = 0.0

        assert slc_gap_series(d, GaussianMoments) == 0.0

    def test_zero_skew_reduces_to_quartic(self):
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 0.01)
        expected = -(d.delta1_4 * x.excess_kurtosis**2 / (24.0 * d.beta0_sq**4)) * d.eps0**4
        assert slc_gap_series(d, x) == pytest.approx(expected, rel=1e-12)

    def test_full_moment_expansion_oracle(self):
        # independent oracle: assemble the gap from the two channel-pair
        # expansions with the mixed-moment identities, not the collapsed form
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(channel_b(), x, 0.005)
        s_x, k_x = x.skewness, x.excess_kurtosis
        b0, b1 = d.beta0_sq, d.beta1_sq
        g0 = 1.0 + d.gamma1_cu
        g1 = d.gamma1_cu
        d0 = 1.0 + d.delta1_4
        d1 = d.delta1_4
        e0, e1 = d.eps0, d.eps1

        def expansion_diff(eps, s_true, k_true, s_gauss, k_gauss):
            cubic = -(eps**3 / 12.0 - eps**4 / 4.0) * (s_true**2 - s_gauss**2)
            quartic = -(eps**4 / 48.0) * (k_true**2 - k_gauss**2)
            return cubic + quartic

        delta0 = expansion_diff(
            e0,
            g0 * s_x / b0**1.5,
            d0 * k_x / b0**2,
            s_x / b0**1.5,
            k_x / b0**2,
        )
        delta1 = expansion_diff(e1, g1 * s_x / b1**1.5, d1 * k_x / b1**2, 0.0, 0.0)
        oracle = delta0 - delta1
        got = slc_gap_series(d, x)
        # the collapsed form drops the eps^5+ cross terms of the assembly
        assert got == pytest.approx(oracle, rel=2e-2)

    def test_matches_exact_gap(self):
        x = make_trinary(0.01)
        rho = 10 ** (-2.3)
        d = design_mmse_dfe(channel_b(), x, rho)
        gap = i_mmse_exact(d, x).value - i_sl(d, x)
        series = slc_gap_series(d, x)
        assert gap < 0.0
        assert abs(series - gap) <= 0.2 * abs(gap)


class TestTwoTapLeading:
    def test_zero_skew(self):
        assert two_tap_gap_leading(0.6, bpsk()) == 0.0

    def test_reference_formula(self):
        x = make_skewed_binary(0.002)
        got = two_tap_gap_leading(0.6, x)
        assert got == pytest.approx(-(0.216 * 0.512) * x.skewness**2 / 6.0, rel=1e-12)

    def test_richardson_extraction(self):
        x = make_skewed_binary(0.002)
        q = 0.6
        ch = two_tap_channel(q)

        def gap(rho):
            d = design_mmse_dfe(ch, x, rho)
            return i_mmse_exact(d, x).value - i_sl(d, x)

        rho = 2e-3
        f1 = gap(rho) / rho**3
        f2 = gap(rho / 2) / (rho / 2) ** 3
        coeff = 2 * f2 - f1
        assert coeff == pytest.approx(two_tap_gap_leading(q, x), rel=0.1)


def brute_force_mmse(x, coeffs, gamma):
    """MMSE of sum a_k xbar_k by full pattern enumeration."""
    xbar = np.asarray(x.atoms) / math.sqrt(x.power)
    probs = np.asarray(x.probs)
    vals = np.zeros(1)
    wts = np.ones(1)
    for a in coeffs:
        vals = (vals[:, None] + a * xbar[None, :]).ravel()
        wts = (wts[:, None] * probs[None, :]).ravel()
    return discrete_mmse(vals, wts, gamma)


class TestGenieBound:
    def test_single_tap_exact(self):
        val = genie_mmse_lower(bpsk(), [1.0], 1.3, [[0]], [1.0])
        assert val == pytest.approx(mmse(bpsk(), 1.3), abs=1e-10)

    def test_singletons_preset(self):
        coeffs = np.array([0.6, 0.64, 0.48])
        x = make_trinary(0.1)
        assert genie_singletons(x, coeffs, 2.0) == pytest.approx(
            mmse(x, 2.0), abs=1e-10
        )

    def test_never_exceeds_brute_force(self, rng):
        inputs = [bpsk(), make_trinary(0.1), make_trinary(0.25)]
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal(n)
            a /= np.sqrt(a @ a)
            x = inputs[int(rng.integers(0, len(inputs)))]
            gamma = float(rng.uniform(0.05, 20.0))
            # random partition
            labels = rng.integers(0, n, n)
            blocks = [np.nonzero(labels == m)[0].tolist() for m in range(n)]
            blocks = [b for b in blocks if b]
            b_sq = np.array([float(a[b] @ a[b]) for b in blocks])
            raw = rng.uniform(0.1, 2.0, len(blocks)) ** 2
            sig2 = raw / float(b_sq @ raw)
            bound = genie_mmse_lower(x, a, gamma, blocks, np.sqrt(sig2))
            brute = brute_force_mmse(x, a, gamma)
            assert bound <= brute + 1e-8

    def test_one_cluster_forms(self):
        x = make_trinary(0.2)
        a = np.array([0.8, 0.36, 0.48])
        gamma = 3.0
        full = genie_one_cluster(x, a, gamma, [0, 1])
        simple = genie_one_cluster(x, a, gamma, [0, 1], simplified=True)
        brute = brute_force_mmse(x, a, gamma)
        assert simple <= full + 1e-10
        assert full <= brute + 1e-10

    def test_equal_sigma_preset(self):
        x = bpsk()
        a = np.array([0.6, 0.8])
        val = genie_equal_sigma(x, a, 1.0, [[0], [1]])
        assert val == pytest.approx(mmse(x, 1.0), abs=1e-10)

    def test_validation(self):
        with pytest.raises(NormalizationViolated):
            genie_mmse_lower(bpsk(), [1.0, 1.0], 1.0, [[0], [1]], [1.0, 1.0])
        with pytest.raises(PartitionInvalid):
            genie_mmse_lower(bpsk(), [0.6, 0.8], 1.0, [[0]], [1.0])
        with pytest.raises(NormalizationViolated):
            genie_mmse_lower(bpsk(), [0.6, 0.8], 1.0, [[0], [1]], [2.0, 2.0])


class TestIeBounds:
    def test_simple_is_corner_point(self):
        d = design_mmse_dfe(jeong(), bpsk(), 1.0)
        val = ie_bound(d, bpsk(), d.S, d.S)
        assert val == pytest.approx(ie_simple(d, bpsk()), abs=1e-12)

    def test_gaussian_equality(self):
        # with Gaussian inputs the simple bound meets the Gaussian rate
        d = design_mmse_dfe(jeong(), bpsk(), 1.0)
        rate, _, _ = quadrature_summary(jeong(), 1.0)
        lhs = 0.5 * math.log1p(d.eps0) - 0.5 * math.log1p(d.eps1)
        assert lhs == pytest.approx(0.5 * rate, abs=1e-12)

    def test_opt_dominates_feasible_points(self, rng):
        rho = 10 ** (0.9)
        d = design_mmse_dfe(jeong(), bpsk(), rho)
        opt, g1, g2 = ie_opt(d, bpsk())
        assert 0.0 <= g1 <= g2 <= d.S * (1 + 1e-12)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, d.S, 2))
            assert opt >= ie_bound(d, bpsk(), float(a), float(b)) - 1e-9

    @pytest.mark.parametrize("ch,snr_db", [(jeong(), 0.0), (channel_b(), 6.0)])
    def test_opt_gamma1_best_below_gamma2(self, ch, snr_db):
        # skewed inputs: b0^2 mmse(b0^2 g) - mmse(g) changes sign many times
        # above its first root, so gamma1* is sought below gamma2* only
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
        opt, g1, g2 = ie_opt(d, x)
        assert 0.0 < g1 < g2
        for g in np.geomspace(1e-6 * g2, g2, 60):
            assert opt >= ie_bound(d, x, float(g), g2) - 1e-12

    def test_opt_bracket_failure_falls_back_to_grid(self):
        # beta1_sq > 1: mmse(g) - b1/(1 + b1 g) has no sign change
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(jeong(), x, 0.1)
        with pytest.warns(UserWarning, match="grid search"):
            opt, g1, g2 = ie_opt(d, x)
        assert opt >= ie_simple(d, x)
        assert 0.0 <= g1 <= g2
        # the simple point is negative here, and the joint grid optimum on
        # the diagonal beats the trivial point's 0
        assert all(type(v) is float for v in (opt, g1, g2))
        assert opt == pytest.approx(0.002908, abs=1e-6)
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)

    def test_opt_grid_fallback_is_joint_over_g1_below_g2(self):
        # with b1 > 1 the separate argmaxes of T1 and T2 clip off the
        # diagonal, where ie_bound(g, g) reaches 0.02064 at g = 0.0714
        x = make_trinary(0.01)
        d = design_mmse_dfe(jeong(), x, 0.1)
        with pytest.warns(UserWarning, match="grid search"):
            opt, g1, g2 = ie_opt(d, x)
        assert 0.0 <= g1 <= g2
        assert opt >= ie_bound(d, x, 0.0714, 0.0714) > 0.0206
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)

    def test_opt_not_below_trivial_point(self):
        # ie_bound(0, 0) = 0, and an interior point does better still; the
        # simple point (S, S) is -0.0689 nats here
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(channel_b(), x, 1.0)
        opt, g1, g2 = ie_opt(d, x)
        assert ie_simple(d, x) < 0.0
        assert opt >= ie_bound(d, x, 0.0216, 0.0437) > 0.0
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)

    @pytest.mark.parametrize("ch,g1,g2", [(channel_b(), 0.17, 0.73), (jeong(), 0.168, 0.438)], ids=["channel_b", "jeong"])
    def test_opt_not_stopped_by_mmse_round_off(self, ch, g1, g2):
        # at 15 dB mmse(S) and b0 mmse(b0 S) of trinary(0.01) are ~1e-15, so
        # comparing the two alone cannot show (S, S) to be the optimum
        x = make_trinary(0.01)
        d = design_mmse_dfe(ch, x, 10**1.5)
        opt, _, _ = ie_opt(d, x)
        assert opt >= ie_bound(d, x, g1, g2) > 0.08


    def test_opt_at_least_simple(self):
        for snr_db in (-6.0, 0.0, 6.0, 12.0):
            d = design_mmse_dfe(jeong(), bpsk(), 10 ** (snr_db / 10))
            opt, _, _ = ie_opt(d, bpsk())
            assert opt >= ie_simple(d, bpsk()) - 1e-12
        # and at least the trivial point's 0, for skewed inputs too
        for ch in (channel_b(), jeong(), two_tap_channel(0.6)):
            for x in (bpsk(), make_skewed_binary(0.002), make_trinary(0.01)):
                for snr_db in (0.0, 15.0, 30.0):
                    d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
                    opt, g1, g2 = ie_opt(d, x)
                    assert opt >= max(ie_simple(d, x), 0.0), (ch.taps, snr_db)
                    assert 0.0 <= g1 <= g2, (ch.taps, snr_db)

    def test_conj_at_least_simple(self):
        # I_x <= Gaussian rate pointwise makes the conjectured form tighter
        d = design_mmse_dfe(jeong(), bpsk(), 2.0)
        val_c = ie_conj(d, bpsk())
        val_s = ie_simple(d, bpsk())
        assert val_c >= val_s - 1e-12

    def test_feasibility_validation(self):
        d = design_mmse_dfe(jeong(), bpsk(), 1.0)
        with pytest.raises(DomainError):
            ie_bound(d, bpsk(), d.S, d.S / 2)

    def test_low_snr_gaussian_tightness(self):
        # (ie_simple - Gaussian-input value)/rho -> 0
        rel = []
        for rho in (1e-2, 1e-3):
            d = design_mmse_dfe(jeong(), bpsk(), rho)
            gauss = 0.5 * math.log1p(d.eps0) - 0.5 * math.log1p(d.eps1)
            rel.append((gauss - ie_simple(d, bpsk())) / rho)
        assert abs(rel[1]) < abs(rel[0])
        assert abs(rel[1]) < 1e-3


class TestBoundReport:
    def test_ordering_and_caps(self):
        x = bpsk()
        rep = bound_report(jeong(), x, 1.0, i_mmse_method="mc", n_samples=50_000, seed=2)
        sig3 = 3.0 * rep.i_mmse_std_error
        assert rep.i_sow <= rep.i_mmse + sig3
        assert rep.ie_simple <= rep.ie_opt + 1e-12
        assert rep.ie_opt <= rep.i_mmse + sig3
        cap = min(x.entropy, rep.gaussian_rate) + 1e-6
        for val in (rep.i_sow, rep.i_sl, rep.ie_simple, rep.ie_opt, rep.ie_conj):
            assert 0.0 <= val <= cap

    def test_exact_over_budget_raises(self):
        # this mixture outgrows 2^24 components: the route asked for is the
        # route taken, so there is no Monte-Carlo value to fall back on
        x = make_skewed_binary(0.002)
        with pytest.raises(BudgetExceeded):
            bound_report(jeong(), x, 10**-0.4, i_mmse_method="exact")

    @pytest.mark.parametrize("method", ["auto", "MC", "", None])
    def test_unknown_method_raises(self, method):
        with pytest.raises(DomainError):
            bound_report(channel_b(), bpsk(), 1.0, i_mmse_method=method)

    def test_gap_series_included(self):
        rep = bound_report(
            channel_b(),
            make_trinary(0.01),
            0.005,
            i_mmse_method="exact",
            include_gap_series=True,
        )
        assert rep.gap_series is not None
        assert rep.i_mmse - rep.i_sl == pytest.approx(rep.gap_series, rel=0.2)

    @pytest.mark.parametrize("db", [-40.0, 30.0, 45.0])
    def test_flat_channel(self, db):
        # snr_dfe/snr_le - 1 cancels to a tiny negative value on a flat channel
        x = bpsk()
        rho = 10 ** (db / 10)
        rep = bound_report(ChannelResponse((1.0,)), x, rho, i_mmse_method="none")
        ref = mutual_info(x, rho)
        for val in (rep.i_sl, rep.ie_simple, rep.ie_opt, rep.ie_conj):
            assert val == pytest.approx(ref, rel=1e-9)
            assert val <= x.entropy


class TestOneFactorisation:
    """bound_report reads every spectral quantity from one factorisation."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []
        factor = isirate.channel._min_phase_factor
        monkeypatch.setattr(
            isirate.channel, "_min_phase_factor", lambda r: calls.append(r) or factor(r)
        )
        return calls

    @pytest.mark.parametrize("method", ["none", "exact", "mc"])
    def test_one_per_point(self, method, factor_calls):
        rep = bound_report(channel_b(), bpsk(), 0.1, i_mmse_method=method, n_samples=10_000)
        assert rep.i_mmse_method == (None if method == "none" else method)
        assert len(factor_calls) == 1

    def test_none_with_a_design(self, factor_calls):
        d = design_mmse_dfe(channel_b(), bpsk(), 0.1)
        factor_calls.clear()
        bound_report(channel_b(), bpsk(), 0.1, i_mmse_method="exact", design=d)
        assert factor_calls == []


class TestAsymmetricDensityRegression:
    def test_mc_matches_exact_skewed_input(self):
        # asymmetric mixtures exercise the sign conventions of the density
        # table; symmetric inputs cannot catch a mirrored grid
        x = make_skewed_binary(0.002)
        for snr_db in (-15.0, 2.5):
            rho = 10 ** (snr_db / 10.0)
            d = design_mmse_dfe(channel_b(), x, rho)
            ex = i_mmse_exact(d, x)
            mc = i_mmse_mc(d, x, 100_000, seed=4)
            assert abs(mc.value - ex.value) <= 3.0 * mc.std_error, snr_db
            assert mc.notes["density_audit_err"] < 1e-3

    def test_mc_matches_exact_trinary_input(self):
        x = make_trinary(0.01)
        for snr_db in (-20.0, -15.0):
            d = design_mmse_dfe(channel_b(), x, 10 ** (snr_db / 10.0))
            ex = i_mmse_exact(d, x)
            mc = i_mmse_mc(d, x, 100_000, seed=4)
            assert abs(mc.value - ex.value) <= 3.0 * mc.std_error, snr_db
            assert mc.notes["density_audit_err"] < 1e-3
