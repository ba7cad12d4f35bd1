"""Bound family: exact/MC I_MMSE, gap expansion, genie and IE bounds."""

import math

import numpy as np
import pytest

from isirate.bounds import (
    _enumerate_mixture,
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
from isirate.channel import ChannelResponse, channel_b, jeong, spectral_summary
from isirate.equalizer import closed_form_summary, design_mmse_dfe, summarize
from isirate.errors import BudgetExceeded, DomainError, MissingMoments, NormalizationViolated, PartitionInvalid
from isirate.scalar import (
    bpsk,
    discrete_mmse,
    make_skewed_binary,
    make_trinary,
    mmse,
    mutual_info,
)


def two_tap_channel(q):
    return ChannelResponse((math.sqrt(1 - q * q), q))


class TestSingleLetterProxies:
    def test_flat_channel_collapse(self):
        ch = ChannelResponse((1.0,))
        ref = mutual_info(bpsk(), 2.0)
        assert i_sow(ch, bpsk(), 2.0) == pytest.approx(ref, abs=1e-10)
        assert i_sl(ch, bpsk(), 2.0) == pytest.approx(ref, abs=1e-10)

    def test_sow_below_sl(self):
        # SNR_ZF-DFE < SNR_DFE-U on a real ISI channel
        ss = spectral_summary(channel_b(), 10.0)
        assert ss.snr_zf_dfe < ss.snr_dfe - 1.0
        assert i_sow(channel_b(), bpsk(), 10.0) < i_sl(channel_b(), bpsk(), 10.0)

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

    def test_budget_exceeded_uniform_weights(self):
        d = design_mmse_dfe(jeong(), bpsk(), 10 ** (0.5))
        with pytest.raises(BudgetExceeded):
            i_mmse_exact(d, bpsk(), budget=2**12)

    def test_reference_sign_skewed_low_snr(self):
        # in the low-SNR regime I_MMSE falls below I_SL for skewed input
        x = make_skewed_binary(0.002)
        rho = 10 ** (-2.0)
        d = design_mmse_dfe(channel_b(), x, rho)
        gap = i_mmse_exact(d, x).value - i_sl(channel_b(), x, rho)
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


class TestGapSeries:
    def test_gaussian_moments_vanish(self):
        d = design_mmse_dfe(channel_b(), bpsk(), 0.01)
        summ = summarize(d, bpsk())

        class GaussianMoments:
            skewness = 0.0
            excess_kurtosis = 0.0

        assert slc_gap_series(summ, GaussianMoments) == 0.0

    def test_zero_skew_reduces_to_quartic(self):
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 0.01)
        summ = summarize(d, x)
        expected = -(
            summ.delta1_4 * x.excess_kurtosis**2 / (24.0 * summ.beta0_sq**4)
        ) * summ.eps0**4
        assert slc_gap_series(summ, x) == pytest.approx(expected, rel=1e-12)

    def test_full_moment_expansion_oracle(self):
        # independent oracle: assemble the gap from the two channel-pair
        # expansions with the mixed-moment identities, not the collapsed form
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(channel_b(), x, 0.005)
        summ = summarize(d, x)
        s_x, k_x = x.skewness, x.excess_kurtosis
        b0, b1 = summ.beta0_sq, summ.beta1_sq
        g0 = 1.0 + summ.gamma1_cu
        g1 = summ.gamma1_cu
        d0 = 1.0 + summ.delta1_4
        d1 = summ.delta1_4
        e0, e1 = summ.eps0, summ.eps1

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
        got = slc_gap_series(summ, x)
        # the collapsed form drops the eps^5+ cross terms of the assembly
        assert got == pytest.approx(oracle, rel=2e-2)

    def test_matches_exact_gap(self):
        x = make_trinary(0.01)
        rho = 10 ** (-2.3)
        d = design_mmse_dfe(channel_b(), x, rho)
        gap = i_mmse_exact(d, x).value - i_sl(channel_b(), x, rho)
        series = slc_gap_series(summarize(d, x), x)
        assert gap < 0.0
        assert abs(series - gap) <= 0.2 * abs(gap)

    def test_missing_moments(self):
        cf = closed_form_summary(channel_b(), 1.0)
        with pytest.raises(MissingMoments):
            slc_gap_series(cf, bpsk())


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
            return i_mmse_exact(d, x).value - i_sl(ch, x, rho)

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
        cf = closed_form_summary(jeong(), 1.0)
        val = ie_bound(jeong(), bpsk(), 1.0, cf.S, cf.S)
        assert val == pytest.approx(ie_simple(jeong(), bpsk(), 1.0), abs=1e-12)

    def test_gaussian_equality(self):
        # with Gaussian inputs the simple bound meets the Gaussian rate
        cf = closed_form_summary(jeong(), 1.0)
        ss = spectral_summary(jeong(), 1.0)
        lhs = 0.5 * math.log1p(cf.beta0_sq * cf.S) - 0.5 * math.log1p(cf.beta1_sq * cf.S)
        assert lhs == pytest.approx(0.5 * ss.gaussian_rate, abs=1e-10)

    def test_opt_dominates_feasible_points(self, rng):
        rho = 10 ** (0.9)
        cf = closed_form_summary(jeong(), rho)
        opt, g1, g2 = ie_opt(jeong(), bpsk(), rho)
        assert 0.0 <= g1 <= g2 <= cf.S * (1 + 1e-12)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, cf.S, 2))
            assert opt >= ie_bound(jeong(), bpsk(), rho, float(a), float(b)) - 1e-9

    def test_opt_at_least_simple(self):
        for snr_db in (-6.0, 0.0, 6.0, 12.0):
            rho = 10 ** (snr_db / 10)
            opt, _, _ = ie_opt(jeong(), bpsk(), rho)
            assert opt >= ie_simple(jeong(), bpsk(), rho) - 1e-12

    def test_conj_at_least_simple(self):
        # I_x <= Gaussian rate pointwise makes the conjectured form tighter
        val_c = ie_conj(jeong(), bpsk(), 2.0)
        val_s = ie_simple(jeong(), bpsk(), 2.0)
        assert val_c >= val_s - 1e-12

    def test_feasibility_validation(self):
        cf = closed_form_summary(jeong(), 1.0)
        with pytest.raises(DomainError):
            ie_bound(jeong(), bpsk(), 1.0, cf.S, cf.S / 2)

    def test_low_snr_gaussian_tightness(self):
        # (ie_simple - Gaussian-input value)/rho -> 0
        rel = []
        for rho in (1e-2, 1e-3):
            cf = closed_form_summary(jeong(), rho)
            gauss = 0.5 * math.log1p(cf.beta0_sq * cf.S) - 0.5 * math.log1p(
                cf.beta1_sq * cf.S
            )
            rel.append((gauss - ie_simple(jeong(), bpsk(), rho)) / rho)
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

    def test_auto_dispatch(self):
        rep = bound_report(two_tap_channel(0.6), bpsk(), 0.5, i_mmse_method="auto")
        assert rep.i_mmse_method == "exact"
        rep = bound_report(jeong(), bpsk(), 2.0, i_mmse_method="auto", n_samples=20_000)
        assert rep.i_mmse_method == "mc"

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
