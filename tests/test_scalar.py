"""Input distributions and scalar Gaussian-channel quantities."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from isirate.channel import channel_b
from isirate.equalizer import design_mmse_dfe
from isirate.errors import DomainError, NonConvergent
import isirate.gaussmix
from isirate.gaussmix import (
    _ENTROPY_ABS_TOL,
    _MOMENT_ABS_TOL,
    _mixture_evaluator,
    _refine,
    mixture_conditional_second_moment,
    mixture_entropy,
)
from isirate.scalar import (
    InputDistribution,
    binary_entropy,
    bpsk,
    log_q_integral,
    low_snr_series,
    make_skewed_binary,
    make_trinary,
    mmse,
    mutual_info,
    parse_input_spec,
)

import conftest
from conftest import (
    ENUM_BUDGET,
    PRUNE_MASS,
    enumerate_mixture,
    entropy_truncation,
    hermite_evaluator,
    hermite_truncation,
    kernel_route,
    mixture_eval_dense,
    mmse_binary,
    q_tail,
    routed_integral,
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
        # NaN fails no comparison, so each check above would let it through
        for atoms, probs in (((math.nan, 1.0), (0.5, 0.5)), ((-1.0, 1.0), (math.nan, 0.5)), ((-1.0, math.inf), (0.5, 0.5))):
            with pytest.raises(DomainError, match="finite"):
                InputDistribution(atoms, probs)
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
        # above log 2; the cap must hold exactly. Far past saturation the
        # mixture spans up to 7e4 sigma and must still converge
        for x in PRESETS.values():
            for gamma in (1e3, 1e4, 1e5, 1e6, 1e7):
                val = mutual_info(x, gamma)
                assert x.entropy - 1e-12 <= val <= x.entropy, gamma

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

    @pytest.mark.parametrize("name", PRESETS)
    def test_within_unit_interval(self, name):
        # 1 - E[(E[x|y])^2] cancels to round-off once mmse is ~1e-15, which
        # every preset reaches below gamma = 1e5
        x = PRESETS[name]
        for gamma in [*np.geomspace(1e-3, 1e5, 81), 1e6, 1e7]:
            assert 0.0 <= mmse(x, float(gamma)) <= 1.0, gamma

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
        assert math.exp(log_q_integral(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_q_integral_against_quadrature(self):
        for s in (0.5, 2.0, 8.0):
            oracle, _ = quad(lambda g: q_tail(math.sqrt(g)), s, s + 400.0, epsabs=1e-13, limit=200)
            assert math.exp(log_q_integral(s)) == pytest.approx(oracle, rel=1e-9)

    def test_q_integral_derivative(self):
        # d/ds int_s^inf Q(sqrt(gamma)) dgamma = -Q(sqrt(s))
        s = 1.7
        h = 1e-6
        deriv = (math.exp(log_q_integral(s + h)) - math.exp(log_q_integral(s - h))) / (2 * h)
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


class TestRefine:
    def test_returns_first_agreeing_pair(self):
        est, err = _refine(lambda level: 1.0 + 2.0**-level, 10, 0.0, 0.25)
        assert (est, err) == (1.25, 0.25)

    def test_raises_with_last_estimate_when_never_settled(self):
        with pytest.raises(NonConvergent, match="last estimate 4.0"):
            _refine(lambda level: float(level), 5, 1e-12, 1e-14)


def _quad_over_mixture(f, means: np.ndarray, sigma: float) -> float:
    """Adaptive quadrature of f over the mixture support, split at the means."""
    pts = np.unique(means)
    val, _ = quad(
        f, pts[0] - 12.0 * sigma, pts[-1] + 12.0 * sigma, points=pts,
        limit=50 * pts.size + 100, epsabs=0.0, epsrel=1e-13,
    )
    return val


def _residual_mixture():
    """The 729 interference means and weights of channel_b with
    trinary(0.01) at -28 dB (six residual taps), and the noise sigma."""
    x = make_trinary(0.01)
    d = design_mmse_dfe(channel_b(), x, 10**-2.8)
    means, weights = np.zeros(1), np.ones(1)
    for t in d.residual:
        means = (means[:, None] + t * np.asarray(x.atoms)[None, :]).ravel()
        weights = (weights[:, None] * np.asarray(x.probs)[None, :]).ravel()
    return means, weights, math.sqrt(d.noise_var)


class TestMixtureQuadrature:
    """The nested trapezoid rule against adaptive quadrature split at the means."""

    @pytest.mark.parametrize("case", ["two_far_apart", "channel_b_residual"])
    def test_against_adaptive_quadrature(self, case):
        if case == "two_far_apart":
            means, weights, sigma = np.array([-40.0, 40.0]), np.array([0.3, 0.7]), 1.0
        else:
            means, weights, sigma = _residual_mixture()
            assert means.size == 729
        norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

        def entropy_integrand(y):
            p = norm * float(weights @ np.exp(-0.5 * ((y - means) / sigma) ** 2))
            return -p * math.log(p) if p > 0.0 else 0.0

        h, _ = mixture_entropy(means, weights, sigma)
        assert h == pytest.approx(
            _quad_over_mixture(entropy_integrand, means, sigma), rel=1e-11, abs=0.0
        )
        # z = means/sigma seen at gamma = 1: the same mixture in units of sigma
        vals = means / sigma

        def second_moment_integrand(y):
            k = weights * np.exp(-0.5 * (y - vals) ** 2)
            p = k.sum()
            return float(k @ vals) ** 2 / p / math.sqrt(2.0 * math.pi) if p > 0.0 else 0.0

        second = mixture_conditional_second_moment(vals, weights, 1.0)
        assert second == pytest.approx(
            _quad_over_mixture(second_moment_integrand, vals, 1.0), rel=1e-11, abs=0.0
        )


def _assert_kernel_matches_dense(nodes, means, weights, sigma, values):
    """The blocked kernel against the one-shot oracle, without and with
    value coefficients: p within 1e-14 relative wherever the oracle's
    p > 1e-300, and num within 1e-14 of sum_j |v_j| w_j N(y; c_j, s^2),
    the size of its terms, since num may cancel to zero."""
    for coeff in (None, values):
        p, num = _mixture_evaluator(means, weights, sigma, coeff)(nodes)
        p_ref, num_ref = mixture_eval_dense(nodes, means, weights, sigma, coeff)
        live = p_ref > 1e-300
        assert live.any()
        assert np.all(np.abs(p - p_ref)[live] <= 1e-14 * p_ref[live])
        if coeff is None:
            assert num is None
        else:
            scale, _ = mixture_eval_dense(nodes, means, np.abs(values) * weights, sigma)
            assert np.all(np.abs(num - num_ref)[live] <= 1e-14 * scale[live])


def _random_mixture(rng, n_comp: int, spread: float):
    means = np.sort(rng.uniform(-spread, spread, n_comp))
    weights = rng.uniform(0.1, 1.0, n_comp)
    return means, weights / weights.sum(), rng.standard_normal(n_comp)


class TestMixtureKernel:
    """Cache-sized tiles filled in place against one kernel matrix per node
    block. At the default tile budget both sum over the same components;
    only the summation order differs."""

    @pytest.mark.parametrize("n_nodes", [1, 511, 513, 1100])
    @pytest.mark.parametrize("n_comp", [127, 128, 129, 863])
    def test_against_dense(self, n_nodes, n_comp):
        # 512-node blocks take 128-component tiles and the last block of
        # 1100 nodes (76) takes 862, so these counts straddle a tile edge
        rng = np.random.default_rng(1000 * n_nodes + n_comp)
        means, weights, values = _random_mixture(rng, n_comp, 60.0)
        nodes = np.sort(rng.uniform(-75.0, 75.0, n_nodes))
        _assert_kernel_matches_dense(nodes, means, weights, 1.3, values)

    @pytest.mark.parametrize("n_nodes", [100, 1100])
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_small_alphabets_sum_as_one_matrix(self, n_nodes, n_atoms):
        # the mixtures of I_x and mmse_x fit one tile per node block, so
        # their sums are the oracle's bit for bit
        rng = np.random.default_rng(n_atoms)
        means, weights, values = _random_mixture(rng, n_atoms, 3.0)
        nodes = np.linspace(means[0] - 10.0, means[-1] + 10.0, n_nodes)
        p, num = _mixture_evaluator(means, weights, 1.0, values)(nodes)
        p_ref, num_ref = mixture_eval_dense(nodes, means, weights, 1.0, values)
        assert np.array_equal(p, p_ref)
        assert np.array_equal(num, num_ref)
        p, _ = _mixture_evaluator(means, weights, 1.0)(nodes)
        assert np.array_equal(p, p_ref)

    def test_one_node_against_a_tile_and_one_more(self):
        rng = np.random.default_rng(7)
        means, weights, values = _random_mixture(rng, 2**16 + 1, 5.0)
        _assert_kernel_matches_dense(np.array([0.3]), means, weights, 1.0, values)

    def test_clusters_outside_the_window(self):
        # three clusters 300 sigma apart: every node block skips the far ones
        rng = np.random.default_rng(11)
        means = np.sort(np.concatenate([c + rng.uniform(-3.0, 3.0, 40) for c in (-300.0, 0.0, 300.0)]))
        weights = rng.uniform(0.1, 1.0, means.size)
        nodes = np.linspace(-320.0, 320.0, 1100)
        _assert_kernel_matches_dense(
            nodes, means, weights / weights.sum(), 1.0, rng.standard_normal(means.size)
        )

    @pytest.mark.parametrize("budget", [1, 7])
    def test_tiny_tiles(self, monkeypatch, budget):
        # nodes on an integration grid, means closer than sigma: every node
        # has mass within 10 sigma, so the narrower windows of the smaller
        # node blocks skip only terms below 1e-18 of p
        monkeypatch.setattr(isirate.gaussmix, "_EVAL_BUDGET", budget)
        rng = np.random.default_rng(budget)
        means, weights, values = _random_mixture(rng, 30, 10.0)
        nodes = np.linspace(means[0] - 10.0, means[-1] + 10.0, 101)
        _assert_kernel_matches_dense(nodes, means, weights, 1.0, values)

    def test_channel_b_trinary_mixture(self):
        # the 52905 components of h(x_0 + mu_1 + m) at -14 dB, which the
        # enumeration returns in ascending order, on the first level of the
        # integration grid
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 10**-1.4)
        taps0 = np.concatenate(([1.0], d.residual))
        means, weights, _ = enumerate_mixture(
            taps0, np.asarray(x.atoms), np.asarray(x.probs), ENUM_BUDGET, 0.5 * PRUNE_MASS
        )
        assert means.size == 52905
        assert np.all(np.diff(means) >= 0.0)
        sigma = math.sqrt(d.noise_var)
        nodes = np.arange(means[0] - 10.0 * sigma, means[-1] + 10.0 * sigma, 0.5 * sigma)
        values = np.random.default_rng(3).standard_normal(means.size)
        _assert_kernel_matches_dense(nodes, means, weights, sigma, values)


def _assert_hermite_matches_dense(nodes, means, weights, sigma, values):
    """The Hermite expansion against the one-shot oracle, under the error
    model of rounding in exp: a value near exp(-E) times the kernel peak
    is off by about E eps relative. So |p - p_ref| <= 16 eps (1 + E) p_ref
    with E = log(peak / p_ref), wherever p_ref > 1e-300, and num within the
    same multiple of sum_j |v_j| w_j N(y; c_j, s^2)."""
    eps = np.finfo(float).eps
    peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    for coeff in (None, values):
        p, num = hermite_evaluator(means, weights, sigma, coeff)(nodes)
        p_ref, num_ref = mixture_eval_dense(nodes, means, weights, sigma, coeff)
        live = p_ref > 1e-300
        assert live.any()
        tol = 16.0 * eps * (1.0 + np.log(peak / p_ref[live]))
        assert np.all(np.abs(p - p_ref)[live] <= tol * p_ref[live])
        if coeff is None:
            assert num is None
        else:
            scale, _ = mixture_eval_dense(nodes, means, np.abs(values) * weights, sigma)
            assert np.all(np.abs(num - num_ref)[live] <= tol * scale[live])


class TestHermiteKernel:
    """The Hermite expansion of the kernel sums against one kernel matrix
    per node block, on nodes within 10 sigma of the means as on the
    integration grid. Further out the oracle's window of 14 sigma from a
    node block's ends can skip components that hold 1e-10 of a far-tail
    density, and the expansion's, reaching half a box further, fewer."""

    @pytest.mark.parametrize(
        "n_comp, spread, sigma, n_nodes",
        [(5000, 3.0, 0.5, 1100), (20000, 40.0, 1.3, 1100), (20000, 5.0, 1.0, 600), (2**17, 5.0, 1.0, 300)],
    )
    def test_random_mixtures(self, n_comp, spread, sigma, n_nodes):
        rng = np.random.default_rng(n_comp + int(10 * spread))
        means, weights, values = _random_mixture(rng, n_comp, spread)
        nodes = np.sort(rng.uniform(means[0] - 10.0 * sigma, means[-1] + 10.0 * sigma, n_nodes))
        _assert_hermite_matches_dense(nodes, means, weights, sigma, values)

    def test_clusters_outside_the_window(self):
        # three clusters 300 sigma apart: every node block skips the far
        # boxes, and nodes between the clusters see none
        rng = np.random.default_rng(12)
        means = np.sort(
            np.concatenate([c + rng.uniform(-3.0, 3.0, 4000) for c in (-300.0, 0.0, 300.0)])
        )
        weights = rng.uniform(0.1, 1.0, means.size)
        nodes = np.linspace(-320.0, 320.0, 1100)
        _assert_hermite_matches_dense(
            nodes, means, weights / weights.sum(), 1.0, rng.standard_normal(means.size)
        )

    def test_one_node(self):
        rng = np.random.default_rng(8)
        means, weights, values = _random_mixture(rng, 2**16 + 1, 5.0)
        _assert_hermite_matches_dense(np.array([0.3]), means, weights, 1.0, values)

    def test_channel_b_trinary_mixture(self):
        # the 52905 components of h(x_0 + mu_1 + m) at -14 dB on the first
        # two levels of the integration grid
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 10**-1.4)
        taps0 = np.concatenate(([1.0], d.residual))
        means, weights, _ = enumerate_mixture(
            taps0, np.asarray(x.atoms), np.asarray(x.probs), ENUM_BUDGET, 0.5 * PRUNE_MASS
        )
        assert means.size == 52905
        sigma = math.sqrt(d.noise_var)
        assert kernel_route(means.size, means[-1] - means[0], sigma) == "hermite"
        nodes = np.arange(means[0] - 10.0 * sigma, means[-1] + 10.0 * sigma, 0.25 * sigma)
        values = np.random.default_rng(4).standard_normal(means.size)
        _assert_hermite_matches_dense(nodes, means, weights, sigma, values)

    @pytest.mark.parametrize("radius, order", [(0.2, 6), (0.35, 4), (0.1, 8)])
    def test_truncation_within_its_bound(self, monkeypatch, radius, order):
        # wider boxes and fewer terms make the truncation visible: it stays
        # within the bound per unit mass times the kernel peak
        monkeypatch.setattr(conftest, "HERMITE_RADIUS", radius)
        monkeypatch.setattr(conftest, "HERMITE_ORDER", order)
        r2 = math.sqrt(2.0) * radius
        bound = 1.09 * r2**order / math.sqrt(math.factorial(order)) / (1.0 - r2 / math.sqrt(order + 1.0))
        rng = np.random.default_rng(9)
        means, weights, _ = _random_mixture(rng, 20000, 4.0)
        nodes = np.linspace(means[0] - 10.0, means[-1] + 10.0, 777)
        p, _ = hermite_evaluator(means, weights, 1.0)(nodes)
        p_ref, _ = mixture_eval_dense(nodes, means, weights, 1.0)
        err = np.abs(p - p_ref).max() * math.sqrt(2.0 * math.pi)
        assert 1e3 * np.finfo(float).eps < err <= bound

    def test_truncation_bound_of_the_defaults(self):
        # r = 0.025, p = 16: far below the round-off of any kernel sum
        r2 = math.sqrt(2.0) * 0.025
        assert hermite_truncation() == pytest.approx(
            1.09 * r2**16 / math.sqrt(math.factorial(16)) / (1.0 - r2 / math.sqrt(17.0)), rel=1e-15
        )
        assert hermite_truncation() < 1e-29


class TestKernelRoute:
    """The expansion is taken only where the components outnumber its
    coefficients, so the mixtures of I_x and mmse_x stay on the tiles."""

    def test_rule_is_a_count(self):
        # boxes of width 0.05 sqrt(2) sigma: a span of 1 sigma covers 15
        # boxes, and 16 coefficients each
        assert kernel_route(16 * 15, 1.0, 1.0) == "tiles"
        assert kernel_route(16 * 15 + 1, 1.0, 1.0) == "hermite"
        assert kernel_route(4, 0.0, 1.0) == "tiles"
        assert kernel_route(17, 0.0, 1.0) == "hermite"
        assert kernel_route(2, math.inf, 1.0) == "tiles"
        # the oracle's bound on what the dropped terms move an entropy
        assert entropy_truncation(np.linspace(0.0, 1.0, 16 * 15), 1.0) == 0.0
        assert 0.0 < entropy_truncation(np.linspace(0.0, 1.0, 16 * 15 + 1), 1.0) < 1e-25

    def test_scalar_integrals_equal_a_tiles_only_run(self):
        # the oracle's rule keeps every mixture of I_x and mmse_x on the
        # tiles, the library's one route, so its integrals are the
        # library's bit for bit
        xs = list(PRESETS.values()) + [
            InputDistribution((-2.0, -1.0, 1.0, 3.0), (0.2, 0.3, 0.4, 0.1))
        ]
        for x in xs:
            atoms, probs = x.normalized_atoms, np.asarray(x.probs)
            for g in [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e7]:
                means = math.sqrt(g) * atoms
                assert kernel_route(means.size, float(means.max() - means.min()), 1.0) == "tiles"
                entropy = routed_integral(means, probs, 1.0, lambda p, _: -p * np.log(p), _ENTROPY_ABS_TOL)
                assert entropy == mixture_entropy(means, probs, 1.0)
                second, _ = routed_integral(
                    means, probs, 1.0, lambda p, num: num * num / p, _MOMENT_ABS_TOL, atoms
                )
                assert second == mixture_conditional_second_moment(atoms, probs, g)


class TestMixtureInputs:
    """Malformed mixtures are refused before any quadrature runs."""

    GOOD = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            mixture_entropy(*self.GOOD, sigma)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            mixture_conditional_second_moment(*self.GOOD, gamma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["means", "weights"])
    def test_non_finite_entries(self, bad, which):
        means, weights = (a.copy() for a in self.GOOD)
        (means if which == "means" else weights)[1] = bad
        with pytest.raises(DomainError, match=which):
            mixture_entropy(means, weights, 1.0)
        with pytest.raises(DomainError, match=which):
            mixture_conditional_second_moment(means, weights, 1.0)

    @pytest.mark.parametrize("means, weights", [([], []), ([0.0, 1.0], [1.0])])
    def test_empty_or_unmatched(self, means, weights):
        with pytest.raises(DomainError, match="one weight per mean"):
            mixture_entropy(means, weights, 1.0)
        with pytest.raises(DomainError, match="one weight per mean"):
            mixture_conditional_second_moment(means, weights, 1.0)


class TestSortedMixture:
    """A mixture whose means already ascend is integrated as given."""

    def test_sorted_and_shuffled_agree_bit_for_bit(self):
        rng = np.random.default_rng(5)
        means, weights, values = _random_mixture(rng, 3000, 40.0)
        perm = rng.permutation(means.size)
        assert mixture_entropy(means, weights, 0.7) == mixture_entropy(means[perm], weights[perm], 0.7)
        assert mixture_conditional_second_moment(
            means, weights, 2.0
        ) == mixture_conditional_second_moment(means[perm], weights[perm], 2.0)

    def test_presorted_input_is_not_copied(self):
        # 2^20 components (8 MB each of means and weights): a sorted copy
        # with its index would take 24 MB
        rng = np.random.default_rng(6)
        means = np.sort(rng.uniform(-2.0, 2.0, 2**20))
        weights = np.full(means.size, 1.0 / means.size)
        tracemalloc.start()
        try:
            h, _ = mixture_entropy(means, weights, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(h)
        assert peak < 2 * 2**20
