"""Bound family: exact/MC I_MMSE, gap expansion, genie and IE bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isirate.bounds import (
    _brentq,
    _char_fn,
    _density_tables,
    _fft_grid,
    _frequencies,
    _LogDensityTable,
    _quintic_interp,
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
from isirate.channel import ChannelResponse, channel_b, jeong, jeong_spaced, spectral_summary
from isirate.equalizer import design_mmse_dfe
from isirate.errors import BudgetExceeded, DomainError, NonConvergent
from isirate.montecarlo import _thresholds, stream_rng
from isirate.scalar import (
    InputDistribution,
    bpsk,
    make_skewed_binary,
    make_trinary,
    mmse,
    mutual_info,
    parse_input_spec,
)

import conftest
from conftest import (
    char_fn_full_grid,
    discrete_mmse,
    enumerate_mixture,
    i_mmse_enumerated,
    i_mmse_mc_one_shot,
    kernel_route,
    quadrature_summary,
    sample_indices,
    weight_floor,
)


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


PRESETS = {
    "channel_b": channel_b(),
    "jeong": jeong(),
    "bpsk": bpsk(),
    "trinary(0.01)": make_trinary(0.01),
    "skewed_binary(0.002)": make_skewed_binary(0.002),
    "trinary(0.3)": make_trinary(0.3),
}
# (channel, input) -> the highest SNR (dB) of the 5 dB steps from -40 dB at
# which the enumeration oracle finishes within 2 s; it reaches no point of
# jeong_spaced, nor of jeong with trinary(0.3)
_ORACLE_REACH = {
    ("channel_b", "bpsk"): 0,
    ("channel_b", "trinary(0.01)"): -5,
    ("channel_b", "skewed_binary(0.002)"): 5,
    ("channel_b", "trinary(0.3)"): -10,
    ("jeong", "bpsk"): -25,
    ("jeong", "trinary(0.01)"): -40,
    ("jeong", "skewed_binary(0.002)"): -10,
}


class TestImmseExact:
    """The characteristic-function route, and the enumeration oracle
    (conftest.i_mmse_enumerated) it is held to."""

    def test_empty_residual(self):
        d = design_mmse_dfe(ChannelResponse((1.0,)), bpsk(), 2.0)
        res = i_mmse_exact(d, bpsk())
        assert res.value == pytest.approx(mutual_info(bpsk(), 2.0), abs=1e-9)

    def test_matches_mc(self):
        d = design_mmse_dfe(two_tap_channel(0.6), bpsk(), 0.5)
        ex = i_mmse_exact(d, bpsk())
        mc = i_mmse_mc(d, bpsk(), 100_000, seed=5)
        assert abs(ex.value - mc.value) <= 3.0 * mc.std_error

    @pytest.mark.parametrize(
        "ch,x", [(ch, x) for ch, x in _ORACLE_REACH], ids=[f"{ch}-{x}" for ch, x in _ORACLE_REACH]
    )
    def test_matches_enumeration_on_presets(self, ch, x):
        for db in range(-40, _ORACLE_REACH[ch, x] + 1, 5):
            d = design_mmse_dfe(PRESETS[ch], PRESETS[x], 10 ** (db / 10))
            res = i_mmse_exact(d, PRESETS[x])
            value, err_bound = i_mmse_enumerated(d, PRESETS[x])
            assert abs(res.value - value) <= res.err_bound + err_bound, db
            assert res.err_bound <= 1e-10, db

    def test_budget_exceeded_uniform_weights(self, monkeypatch):
        # jeong bpsk at 5 dB: 2048 points on the first grid, 4096 on the
        # refined one, which is refused before the first is built
        monkeypatch.setattr(isirate.bounds, "_GRID_MAX", 2**11)
        d = design_mmse_dfe(jeong(), bpsk(), 10 ** (0.5))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="grid"):
                i_mmse_exact(d, bpsk())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_impossible_uniform_budget_refused_before_enumerating(self, monkeypatch):
        # channel_b bpsk at 100 dB: the refined grid needs 2^23 points; the
        # refusal comes before any characteristic function or FFT
        def no_char_fn(*args):
            raise AssertionError("a characteristic function was formed")

        monkeypatch.setattr(isirate.bounds, "_char_fn", no_char_fn)
        d = design_mmse_dfe(channel_b(), bpsk(), 1e10)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="grid of 8388608 points"):
                i_mmse_exact(d, bpsk())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_mixture_entropies_hold_tiles_not_kernel_matrices(self):
        # channel_b, trinary(0.01), -14 dB: mixtures of 3^10 and 3^9
        # components, of which the enumeration keeps 52905 and 16867, whose
        # kernel matrices per node block would take 61.5 MB
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 10**-1.4)
        tracemalloc.start()
        try:
            res = i_mmse_exact(d, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.residual.size == 9
        assert res.n_components == (3**10, 3**9)
        assert peak < 8 * 2**20

    def test_skewed_refused_by_class_count(self):
        # jeong, skewed_binary(0.002), -4 dB: 45 taps with x_0, and the
        # fewest patterns holding all but the oracle's mass budget number
        # 5.1e7; the characteristic functions take the point on 4096 points
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(jeong(), x, 10**-0.4)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="components"):
                i_mmse_enumerated(d, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert i_mmse_exact(d, x).grid_points == 4096
        # jeong, bpsk, 35 dB: 1763 residual taps, whose 2^1763 patterns the
        # oracle counts as a log, since the count overflows a double
        d = design_mmse_dfe(jeong(), bpsk(), 10**3.5)
        assert d.residual.size == 1763
        with pytest.raises(BudgetExceeded, match="components"):
            i_mmse_enumerated(d, bpsk())

    @pytest.mark.parametrize(
        "probs", [(0.002, 0.998), (0.5, 0.5), (0.01, 0.98, 0.01), (0.1, 0.2, 0.3, 0.4)]
    )
    def test_min_patterns_against_sorted_weights(self, probs):
        # the class table against every pattern weight: groups of equal
        # weight dropped whole, lightest first, while their mass fits
        probs = np.asarray(probs)
        n_steps = 12 if probs.size < 4 else 8
        w = np.ones(1)
        for _ in range(n_steps):
            w = (w[:, None] * probs[None, :]).ravel()
        w = np.sort(w)
        last = np.flatnonzero(np.append(np.diff(np.log(w)) > 1e-9, True))
        group_cum = np.cumsum(w)[last]
        for mass_budget in (1e-12, 1e-6, 1e-3, 0.1):
            n_dropped = int(np.searchsorted(group_cum, mass_budget, side="right"))
            first = int(last[n_dropped - 1]) + 1 if n_dropped else 0
            log_floor, log_kept, dropped = weight_floor(probs, n_steps, mass_budget)
            assert log_floor == pytest.approx(math.log(w[first]), abs=1e-12), mass_budget
            assert math.exp(log_kept) == pytest.approx(w.size - first, abs=1e-6), mass_budget
            assert dropped == pytest.approx(w[:first].sum(), rel=1e-12, abs=1e-300)
            assert dropped <= mass_budget

    @pytest.mark.parametrize("probs", [(0.01, 0.98, 0.01), (0.05, 0.45, 0.45, 0.05)])
    def test_count_up_front_is_the_enumerated_size(self, probs):
        # tied probabilities give classes of equal weight, kept or dropped
        # together, so the count before enumerating is exact
        probs = np.asarray(probs)
        atoms = np.linspace(-1.0, 1.0, probs.size)
        taps = np.linspace(1.0, 0.2, 9)
        for mass_budget in (1e-12, 1e-6, 1e-3, 0.1):
            _, log_kept, dropped = weight_floor(probs, taps.size, mass_budget)
            means, w, got_dropped = enumerate_mixture(taps, atoms, probs, 2**24, mass_budget)
            assert means.size == round(math.exp(log_kept)), mass_budget
            assert got_dropped == dropped <= mass_budget
            assert np.all(np.diff(means) >= 0.0)

    def test_long_skewed_residual_fits(self):
        # 20 taps of skewed_binary(0.002): 1351 patterns, within a budget of
        # 2^11, hold all but 1e-6 of the mass
        x = make_skewed_binary(0.002)
        means, w, dropped = enumerate_mixture(
            np.linspace(1.0, 0.05, 20), np.asarray(x.atoms), np.asarray(x.probs), 2**11, 1e-6
        )
        assert means.size == 1351
        assert 0.0 < dropped <= 1e-6
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_past_class_cap_raises_before_enumerating(self, monkeypatch):
        # 30 taps have 496 classes; within the cap, the 472761 patterns that
        # hold all but 1e-3 of the mass would take 20 MB to enumerate
        probs, taps = np.array([0.01, 0.98, 0.01]), np.linspace(1.0, 0.1, 30)
        monkeypatch.setattr(conftest, "CLASS_CAP", 100)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="weight classes"):
                enumerate_mixture(taps, np.array([-1.0, 0.0, 1.0]), probs, 2**24, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_err_bound_covers_tile_round_off(self, monkeypatch):
        # the oracle at jeong bpsk at -30 dB: smaller kernel tiles change
        # only the order of summation, and the value by no more than its
        # error bound
        d = design_mmse_dfe(jeong(), bpsk(), 1e-3)
        ref, ref_err = i_mmse_enumerated(d, bpsk())
        monkeypatch.setattr(isirate.gaussmix, "_EVAL_BUDGET", 2**12)
        assert abs(i_mmse_enumerated(d, bpsk())[0] - ref) <= ref_err

    @pytest.mark.parametrize("radius, order", [(0.025, 12), (0.05, 16), (0.0125, 16)])
    def test_err_bound_covers_expansion_order_and_box_width(self, monkeypatch, radius, order):
        # the oracle at channel_b, trinary(0.01), -14 dB (52905 and 16867
        # components, both on the Hermite route): another box width or
        # order changes the value by round-off only (0 or 4.4e-16), and by
        # no more than its error bound
        x = make_trinary(0.01)
        d = design_mmse_dfe(channel_b(), x, 10**-1.4)
        sigma = math.sqrt(d.noise_var)
        mixtures = [
            enumerate_mixture(taps, np.asarray(x.atoms), np.asarray(x.probs), 2**24, 0.5e-12)[0]
            for taps in (np.concatenate(([1.0], d.residual)), d.residual)
        ]
        routes = lambda: [kernel_route(m.size, m[-1] - m[0], sigma) for m in mixtures]
        assert routes() == ["hermite", "hermite"]
        ref, ref_err = i_mmse_enumerated(d, x)
        monkeypatch.setattr(conftest, "HERMITE_RADIUS", radius)
        monkeypatch.setattr(conftest, "HERMITE_ORDER", order)
        assert routes() == ["hermite", "hermite"]
        assert abs(i_mmse_enumerated(d, x)[0] - ref) <= ref_err

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
        means, w, dropped = enumerate_mixture(
            taps, np.array(x.atoms), np.array(x.probs), budget=2**7, mass_budget=1e-2
        )
        assert means.size <= 2**7
        assert 0.0 < dropped <= 1e-2
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # an infeasible mass budget must refuse rather than overreach
        with pytest.raises(BudgetExceeded):
            enumerate_mixture(
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


SAMPLER_INPUTS = {
    "bpsk": bpsk(),
    "skewed_binary(0.002)": make_skewed_binary(0.002),
    "trinary(0.01)": make_trinary(0.01),
    "pam4": InputDistribution((-3.0, -1.0, 1.0, 3.0), (0.25, 0.25, 0.25, 0.25)),
}


class TestBlockSampler:
    """i_mmse_mc draws the one-shot sampler's patterns and normals."""

    @pytest.mark.parametrize("name", SAMPLER_INPUTS)
    def test_thresholds_match_uniforms(self, name):
        cum = np.cumsum(SAMPLER_INPUTS[name].probs)
        thresholds = _thresholds(cum)
        assert thresholds.size == cum.size - 1
        words = stream_rng(21, 3).bit_generator.random_raw(100_000) >> 11
        u = stream_rng(21, 3).random(100_000)
        for thr, c in zip(thresholds, cum):
            assert np.array_equal(words > thr, u > c)

    @pytest.mark.parametrize(
        "cum",
        [
            # cum_k an exact multiple of 2^-53, small and in [1/2, 1)
            [12345 * 2.0**-53, 0.75, 1.0],
            # the next double below a multiple, itself no multiple of 2^-53
            [np.nextafter(12345 * 2.0**-53, 0.0), np.nextafter(0.25, 0.0), 1.0],
            # a cumulative sum rounded below 1
            [0.25, 0.5, 1.0 - 2.0**-52],
        ],
    )
    def test_threshold_boundaries(self, cum):
        cum = np.array(cum)
        thresholds = _thresholds(cum)
        # every 53-bit word within two of a threshold, and the largest word
        v = np.concatenate([np.floor(c * 2.0**53) + np.arange(-2, 3) for c in cum[:-1]])
        v = np.append(v, 2.0**53 - 1).astype(np.uint64)
        u = v * 2.0**-53  # exact, as in Generator.random
        count = (v[:, None] > thresholds[None, :]).sum(axis=1)
        assert np.array_equal(count, sample_indices(u, cum))
        assert count.max() == cum.size - 1

    @pytest.mark.parametrize("name", [*SAMPLER_INPUTS, "rounded"])
    def test_boundary_words_through_both_samplers(self, monkeypatch, name):
        # every word sits on a threshold, next to one, or at either end
        # of the 53-bit range, so a mapping off by one word shows up
        if name == "rounded":  # cumsum ends at 1 - 2^-53
            x = InputDistribution((-1.0, 0.0, 0.3 / 0.5499999999999999), (0.3, 0.15, 0.5499999999999999))
            assert np.cumsum(x.probs)[-1] < 1.0
        else:
            x = SAMPLER_INPUTS[name]
        top = 2**53 - 1
        near = [v for t in _thresholds(np.cumsum(x.probs)) for v in (int(t) - 1, int(t), int(t) + 1)]
        v = np.array([0, top] + [min(max(v, 0), top) for v in near], dtype=np.uint64)
        words = v << np.uint64(11) | np.uint64(0x5A5)  # the low bits are dropped

        class BoundaryWords:
            """Cycles through ``words``; random() and random_raw() share them."""

            def __init__(self, seed, stream):
                self.bit_generator = self
                self.pos = 0
                self.normals = np.random.default_rng([seed, stream])

            def random_raw(self, n):
                out = words[(self.pos + np.arange(n)) % words.size]
                self.pos += n
                return out

            def random(self, shape):
                return (self.random_raw(math.prod(shape)) >> np.uint64(11)).reshape(shape) * 2.0**-53

            def standard_normal(self, m):
                return self.normals.standard_normal(m)

        monkeypatch.setattr(isirate.bounds, "stream_rng", BoundaryWords)
        monkeypatch.setattr(conftest, "stream_rng", BoundaryWords)
        d = design_mmse_dfe(channel_b(), x, 2.0)
        est = i_mmse_mc(d, x, 10_001, seed=5)
        value, std_error = i_mmse_mc_one_shot(d, x, 10_001, 5)
        assert abs(est.value - value) <= 1e-14
        assert abs(est.std_error - std_error) <= 1e-14

    @pytest.mark.parametrize("ch", [channel_b(), jeong(), jeong_spaced()], ids=["b", "jeong", "spaced"])
    @pytest.mark.parametrize("name", ["bpsk", "skewed_binary(0.002)", "trinary(0.01)"])
    def test_char_fn_equals_full_grid(self, ch, name):
        x = SAMPLER_INPUTS[name]
        for snr_db in (-12.0, -5.0, 2.5, 10.0, 15.0):
            taps1, atoms, probs, sigma = _table_inputs(ch, x, snr_db)
            _, dy, n = _fft_grid(np.concatenate(([1.0], taps1)), atoms, sigma)
            omega = _frequencies(n, dy)
            phi = _char_fn(taps1, atoms, probs, sigma, omega)
            assert np.count_nonzero(phi) < phi.size  # the Gaussian underflows
            assert np.array_equal(phi, char_fn_full_grid(taps1, atoms, probs, sigma, omega))
            assert np.array_equal(
                _char_fn(np.ones(1), atoms, probs, 0.0, omega),
                char_fn_full_grid(np.ones(1), atoms, probs, 0.0, omega),
            )

    @pytest.mark.parametrize(
        "ch,name,snr_db,n_samples",
        [
            (ChannelResponse((1.0,)), "bpsk", 0.0, 10_003),  # empty residual
            (ChannelResponse((1.0,)), "trinary(0.01)", 5.0, 10_000),
            (channel_b(), "skewed_binary(0.002)", 2.5, 10_003),
            (channel_b(), "trinary(0.01)", -5.0, 20_000),
            (jeong(), "bpsk", 0.0, 10_003),
            (jeong(), "pam4", 6.0, 10_005),
        ],
    )
    def test_matches_one_shot(self, ch, name, snr_db, n_samples):
        x = SAMPLER_INPUTS[name]
        d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
        est = i_mmse_mc(d, x, n_samples, seed=13)
        value, std_error = i_mmse_mc_one_shot(d, x, n_samples, 13)
        assert abs(est.value - value) <= 1e-14
        assert abs(est.std_error - std_error) <= 1e-14

    @pytest.mark.parametrize("block", [1, 1000])
    def test_rows_not_dividing_the_stream(self, monkeypatch, block):
        # jeong at 0 dB has 57 residual taps: one row per block, or 17 rows
        # per block against streams of 1250 and 1251 samples
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(jeong(), x, 1.0)
        monkeypatch.setattr(isirate.bounds, "_MC_BLOCK", block)
        rows = max(1, block // (d.residual.size + 1))
        assert 1250 % rows or rows == 1
        est = i_mmse_mc(d, x, 10_003, seed=2)
        value, std_error = i_mmse_mc_one_shot(d, x, 10_003, 2)
        assert abs(est.value - value) <= 1e-14
        assert abs(est.std_error - std_error) <= 1e-14

    def test_memory_is_one_block_not_samples_times_taps(self):
        # 1045 residual taps x 2e5 samples: the one-shot sampler holds
        # three 26 MB arrays per stream and peaks at about 624 MB
        d = design_mmse_dfe(jeong_spaced(), bpsk(), 10**1.5)
        tracemalloc.start()
        try:
            i_mmse_mc(d, bpsk(), 200_000, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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
        # where p > e^-10 of its peak the tables differ by interpolation error only;
        # deeper in the tails both are FFT round-off, ~1e-15 of the peak
        core = ref >= ref.max() - 10.0
        assert np.max(np.abs(shared[core] - ref[core])) <= 1e-8
        mask = ref >= ref.max() - 23.0
        peak = math.exp(ref.max())
        assert np.max(np.abs(np.exp(shared[mask]) - np.exp(ref[mask]))) <= 1e-9 * peak

    @pytest.mark.parametrize("ch,x,snr_db", _TABLE_CASES)
    def test_matches_a_cubic_spline_table(self, ch, x, snr_db):
        from scipy.interpolate import CubicSpline

        taps1, atoms, probs, sigma = _table_inputs(ch, x, snr_db)
        lo, dy, n = _fft_grid(np.concatenate(([1.0], taps1)), atoms, sigma)
        for table in _density_tables(taps1, atoms, probs, sigma):
            spline = CubicSpline(lo + dy * np.arange(n), table._logp)
            mask = table.audit_logp >= table.audit_logp.max() - 23.0
            ys = table.audit_y[mask]
            assert np.max(np.abs(table(ys) - spline(ys))) <= 1e-5

    @pytest.mark.parametrize("coeffs", [(-2.0, 0.7, -1.5, 0.2), (1.0, 0.0, -0.5, 0.3, -0.1, 0.02)])
    def test_reproduces_a_polynomial(self, coeffs, rng):
        # a cubic, and a quintic: the highest degree six points determine
        lo, dy, n = -3.0, 0.01, 600
        poly = np.polynomial.Polynomial(coeffs)
        ys = rng.uniform(lo, lo + n * dy, 1000)
        ys[:3] = lo, lo + n * dy, lo + 7 * dy  # both ends of the support, a node
        got = _quintic_interp(poly(lo + dy * np.arange(n)), lo, dy, ys)
        assert np.max(np.abs(got - poly(ys))) <= 1e-12 * np.max(np.abs(poly(ys)))


class TestSampleIndices:
    """montecarlo._thresholds, the map from Philox words to atoms, against
    the uniforms' oracle conftest.sample_indices."""

    @pytest.mark.parametrize("x", [bpsk(), make_skewed_binary(0.002), make_trinary(0.01)])
    def test_matches_searchsorted(self, x, rng):
        cum = np.cumsum(x.probs)
        u = rng.random((1000, 100))
        idx = sample_indices(u, cum)
        assert idx.dtype == np.uint8
        assert np.array_equal(idx, np.searchsorted(cum, u))
        words = stream_rng(4, 2).bit_generator.random_raw(100_000) >> 11
        mapped = (words[:, None] > _thresholds(cum)[None, :]).sum(axis=1)
        assert np.array_equal(mapped, sample_indices(stream_rng(4, 2).random(100_000), cum))

    @pytest.mark.parametrize("last", [1.0 - 2.0**-52, 1.0 - 2.0**-53])
    def test_index_stays_in_alphabet(self, last):
        cum = np.array([0.25, 0.5, last])
        u = np.array([np.nextafter(last, 2.0), 0.3])
        assert np.searchsorted(cum, u)[0] == cum.size  # one past the last atom
        assert sample_indices(u, cum).tolist() == [cum.size - 1, 1]
        # the largest word draws the last atom too
        words = np.array([2**53 - 1, int(0.3 * 2**53)], dtype=np.uint64)
        assert (words[:, None] > _thresholds(cum)[None, :]).sum(axis=1).tolist() == [cum.size - 1, 1]


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


def genie_rounding(x, coeffs, gamma):
    """Rounding model of one genie block of unit noise, eps L Z^2: the grid
    of _fft_grid has length L (in noise sigmas), and each of its points
    carries the FFT's eps of the density times E[Z|y]^2 <= Z^2, Z the
    largest |sum a_k xbar_k|. The largest error against the oracle on the
    blocks of TestGenieBound was 0.025 of it."""
    a = np.asarray(coeffs, dtype=float)
    z = float(np.abs(a).sum() * np.abs(x.normalized_atoms).max())
    _, dy, n = _fft_grid(math.sqrt(gamma) * a, x.normalized_atoms, 1.0)
    return np.finfo(float).eps * n * dy * z * z


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
        with pytest.raises(DomainError):
            genie_mmse_lower(bpsk(), [1.0, 1.0], 1.0, [[0], [1]], [1.0, 1.0])
        with pytest.raises(DomainError):
            genie_mmse_lower(bpsk(), [0.6, 0.8], 1.0, [[0]], [1.0])
        with pytest.raises(DomainError):
            genie_mmse_lower(bpsk(), [0.6, 0.8], 1.0, [[0], [1]], [2.0, 2.0])

    @pytest.mark.parametrize(
        "coeffs, gamma, sigmas",
        [
            ([0.6, math.nan], 1.0, [1.0, 1.0]),
            ([0.6, math.inf], 1.0, [1.0, 1.0]),
            ([0.6, 0.8], 1.0, [1.0, math.nan]),
            ([0.6, 0.8], 1.0, [math.inf, 1.0]),
            ([0.6, 0.8], -1.0, [1.0, 1.0]),
            ([0.6, 0.8], math.nan, [1.0, 1.0]),
            ([0.6, 0.8], math.inf, [1.0, 1.0]),
        ],
    )
    def test_non_finite_inputs_refused_up_front(self, monkeypatch, coeffs, gamma, sigmas):
        # NaN passes every sum-of-squares check, since NaN compares False:
        # it must be refused before any grid is sized
        def no_grid(*args):
            raise AssertionError("grid sized for a refused input")

        monkeypatch.setattr(isirate.bounds, "_fft_grid", no_grid)
        with pytest.raises(DomainError, match="finite|gamma"):
            genie_mmse_lower(bpsk(), coeffs, gamma, [[0], [1]], sigmas)

    def test_zero_snr_gives_block_variances(self):
        assert genie_mmse_lower(bpsk(), [0.6, 0.8], 0.0, [[0], [1]], [1.0, 1.0]) == 1.0
        x = make_trinary(0.3)
        a = np.array([0.6, 0.48, 0.64])
        # the noiseless block of one_cluster contributes 0 at any gamma
        assert genie_one_cluster(x, a, 0.0, [0, 1]) == pytest.approx(0.6**2 + 0.48**2, abs=1e-15)
        # a subnormal gamma is not 0, but E Z^2 must not underflow with it
        for gamma in (1e-300, 1e-320, 5e-324):
            assert genie_one_cluster(x, a, gamma, [0, 1]) == pytest.approx(0.6**2 + 0.48**2, abs=1e-15)

    @pytest.mark.parametrize("sig2_1", [1e-10, 1e-320])
    def test_grid_over_budget_refused_before_any_fft(self, monkeypatch, sig2_1):
        # block 0 fits a 1024-point grid; block 1, at gamma / sigma^2 = 1e10,
        # would need 2^23 points, and at 1e320 its SNR overflows. Every grid
        # is sized first, so neither block is computed and nothing is
        # allocated over a grid
        blocks = []
        monkeypatch.setattr(isirate.bounds, "_block_mmse", lambda *args: blocks.append(args))
        sig2 = [(1.0 - 0.64 * sig2_1) / 0.36, sig2_1]
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="grid"):
                genie_mmse_lower(bpsk(), [0.6, 0.8], 1.0, [[0], [1]], np.sqrt(sig2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == []
        assert peak < 2**20

    @pytest.mark.parametrize("n_taps", [8, 10, 12])
    @pytest.mark.parametrize("name", ["bpsk", "trinary(0.3)", "skewed_binary(0.1)"])
    def test_block_matches_real_space_oracle(self, name, n_taps):
        # one block of all taps at unit noise: the bound is the MMSE of
        # Z = sum a_k xbar_k, against the mixture quadrature over all
        # |A|^n_taps patterns (conftest.discrete_mmse), which shares no code
        # with the characteristic-function route
        x = parse_input_spec(name)
        a = np.random.default_rng(100 + n_taps).standard_normal(n_taps)
        a /= np.sqrt(a @ a)
        for gamma in 10.0 ** np.arange(-3.0, 4.0):
            err = abs(genie_mmse_lower(x, a, gamma, [range(n_taps)], [1.0]) - brute_force_mmse(x, a, gamma))
            assert err <= genie_rounding(x, a, gamma), gamma
            if gamma <= 100.0:
                assert err <= 1e-12, gamma

    def test_skewed_block_far_past_saturation(self):
        # skewed_binary(0.002) at gamma 1e4: E C^2 - E[(E[C|y])^2] cancels
        # to 1e-8 of E C^2 on both routes, which stay within the rounding
        # model (5.6e-9 here)
        x = make_skewed_binary(0.002)
        a = np.random.default_rng(112).standard_normal(12)
        a /= np.sqrt(a @ a)
        err = abs(genie_mmse_lower(x, a, 1e4, [range(12)], [1.0]) - brute_force_mmse(x, a, 1e4))
        assert err <= genie_rounding(x, a, 1e4)


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

    def test_opt_with_falling_t2_climbs_the_diagonal(self):
        # beta1_sq > 1: T2 = I_x(g) - log(1 + b1 g)/2 falls everywhere, so
        # the constraint binds and the optimum lies on g1 = g2
        x = make_skewed_binary(0.002)
        d = design_mmse_dfe(jeong(), x, 0.1)
        assert d.beta1_sq > 1.0
        opt, g1, g2 = ie_opt(d, x)
        assert opt >= ie_simple(d, x)
        assert 0.0 < g1 == g2 < d.S
        # the simple point is negative here, and the diagonal optimum beats
        # the trivial point's 0
        assert all(type(v) is float for v in (opt, g1, g2))
        assert opt == pytest.approx(0.002908, abs=1e-6)
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)

    def test_opt_is_joint_over_g1_below_g2(self):
        # with b1 > 1 the separate maximisers of T1 and T2 clip off the
        # diagonal, where ie_bound(g, g) reaches 0.02064 at g = 0.0714
        x = make_trinary(0.01)
        d = design_mmse_dfe(jeong(), x, 0.1)
        opt, g1, g2 = ie_opt(d, x)
        assert 0.0 <= g1 <= g2
        assert opt >= ie_bound(d, x, 0.0714, 0.0714) > 0.0206
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)

    @pytest.mark.parametrize(
        "x,floor", [(make_trinary(0.01), 0.028036), (make_skewed_binary(0.002), 0.003922)],
        ids=["trinary", "skewed"],
    )
    def test_opt_not_stopped_short_at_minus_4_db(self, x, floor):
        # jeong at -4 dB: the first root of the T1 slope taken on [lo, S]
        # gives 0.007797 (trinary) and 0.001006 (skewed) nats
        d = design_mmse_dfe(jeong(), x, 10**-0.4)
        opt, _, _ = ie_opt(d, x)
        assert opt >= floor

    @pytest.mark.parametrize(
        "ch,snrs_db",
        [(jeong(), range(-11, 6)), (channel_b(), (-30, -10, 0, 10, 30)), (jeong_spaced(), (-30, -10, 0, 10, 30))],
        ids=["jeong", "channel_b", "jeong_spaced"],
    )
    def test_opt_matches_dense_grid_oracle(self, ch, snrs_db):
        for x in (bpsk(), make_skewed_binary(0.002), make_trinary(0.01)):
            for snr_db in snrs_db:
                d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
                opt, _, _ = ie_opt(d, x)
                oracle, _, _ = conftest.ie_opt_dense(d, x, n_grid=128)
                assert opt == pytest.approx(oracle, abs=1e-9), (x.probs, snr_db)

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


@st.composite
def _channels(draw, max_taps=6):
    """2 to max_taps taps, about a fifth of them with a spectral null at pi."""
    taps = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=max_taps))
    if draw(st.integers(0, 4)) == 0:
        # sum (-1)^k h_k = 0 puts a zero of H on the unit circle at pi
        n = len(taps)
        taps[-1] = (-1) ** n * sum((-1) ** k * t for k, t in enumerate(taps[:-1]))
    energy = sum(t * t for t in taps)
    assume(energy > 1e-2 and abs(taps[0]) > 1e-3 and abs(taps[-1]) > 1e-3)
    return ChannelResponse(tuple(t / math.sqrt(energy) for t in taps))


@st.composite
def _inputs(draw):
    """Zero-mean laws of 2-4 atoms."""
    n = draw(st.integers(2, 4))
    atoms = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    probs = np.array(draw(st.lists(st.floats(0.005, 1.0), min_size=n, max_size=n)))
    probs /= probs.sum()
    atoms -= atoms @ probs
    assume(np.min(np.diff(np.sort(atoms))) > 1e-2)
    return InputDistribution(tuple(atoms), tuple(probs))


class TestIeOptProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(ch=_channels(), x=_inputs(), snr_db=st.floats(-40.0, 45.0))
    def test_optimum_of_its_family(self, ch, x, snr_db):
        d = design_mmse_dfe(ch, x, 10 ** (snr_db / 10))
        opt, g1, g2 = ie_opt(d, x)
        assert 0.0 <= g1 <= g2 <= d.S
        assert opt == pytest.approx(ie_bound(d, x, g1, g2), abs=1e-15)
        assert opt >= max(ie_simple(d, x), 0.0)
        # no feasible point within a factor 1 +- 1e-3 of (g1, g2) beats it
        for a in (g1 * (1 - 1e-3), g1, g1 * (1 + 1e-3)):
            for b in (g2 * (1 - 1e-3), g2, g2 * (1 + 1e-3)):
                if a <= b <= d.S:
                    assert opt >= ie_bound(d, x, a, b) - 1e-12, (a, b)


class TestExactRouteProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ch=_channels(max_taps=3), x=_inputs(), snr_db=st.floats(-30.0, 10.0))
    def test_proven_bounds_within_the_error_bound(self, ch, x, snr_db):
        try:
            rep = bound_report(ch, x, 10 ** (snr_db / 10), i_mmse_method="exact")
        except BudgetExceeded:
            assume(False)
        e = rep.i_mmse_err_bound
        assert 0.0 <= rep.i_mmse <= x.entropy + e
        assert rep.ie_simple <= rep.ie_opt + 1e-12
        assert rep.ie_opt <= rep.i_mmse + e
        # and the value is the enumeration's, where that fits its budget
        try:
            value, err_bound = i_mmse_enumerated(design_mmse_dfe(ch, x, 10 ** (snr_db / 10)), x)
        except BudgetExceeded:
            return
        assert abs(rep.i_mmse - value) <= e + err_bound

    def test_i_sow_is_not_a_bound_on_i_mmse(self):
        # I_SOW bounds the achievable rate, not I_MMSE: with a skewed input
        # the residual ISI the MMSE-DFE leaves costs more than the ZF-DFE's
        # noise boost. At this point i_sow exceeds i_mmse by 3.85e-6 nats,
        # over 1e5 times the exact route's error bound, and the enumeration
        # oracle, a route independent of the characteristic functions,
        # gives the same i_mmse.
        ch = ChannelResponse((2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)))
        x = make_skewed_binary(1.0 / 65.0)
        rep = bound_report(ch, x, 1.0, i_mmse_method="exact")
        assert rep.i_sow - rep.i_mmse == pytest.approx(3.855e-6, rel=1e-3)
        assert rep.i_sow - rep.i_mmse > 1e5 * rep.i_mmse_err_bound
        value, err_bound = i_mmse_enumerated(design_mmse_dfe(ch, x, 1.0), x)
        assert abs(rep.i_mmse - value) <= rep.i_mmse_err_bound + err_bound


_BRENT_CHANNELS = [channel_b(), jeong(), jeong_spaced()]
_BRENT_INPUTS = [bpsk(), make_skewed_binary(0.002), make_trinary(0.01)]


class TestBrentq:
    @staticmethod
    def _outcome(solver, f, lo, hi):
        try:
            return solver(f, lo, hi, xtol=1e-10 * lo, rtol=1e-10)
        except ValueError:
            return "ValueError"

    @pytest.mark.parametrize("ch", _BRENT_CHANNELS, ids=["channel_b", "jeong", "jeong_spaced"])
    def test_matches_scipy_on_ie_opt_roots(self, ch):
        from scipy.optimize import brentq

        # ie_opt's two root functions over -40..45 dB: the same root, bit
        # for bit, or the same refusal of the bracket
        outcomes = []
        for x in _BRENT_INPUTS:
            for db in range(-40, 46, 5):
                d = design_mmse_dfe(ch, x, 10 ** (db / 10))
                s, b0, b1 = d.S, d.beta0_sq, d.beta1_sq
                f2 = lambda g: mmse(x, g) - b1 / (1.0 + b1 * g)
                f1 = lambda g: b0 * mmse(x, b0 * g) - mmse(x, g)
                for f in (f2, f1):
                    ours = self._outcome(_brentq, f, 1e-12 * s, s)
                    assert ours == self._outcome(brentq, f, 1e-12 * s, s)
                    outcomes.append(ours)
        assert any(o == "ValueError" for o in outcomes)
        assert any(type(o) is float for o in outcomes)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="signs"):
            _brentq(lambda g: g * g + 1.0, -1.0, 2.0, xtol=1e-12, rtol=1e-10)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            # finite at both ends, NaN at the first secant step
            _brentq(lambda g: math.nan if 0.4 < g < 0.9 else g - 0.7, 0.0, 1.0, xtol=1e-12, rtol=1e-10)

    def test_iteration_cap_raises(self):
        with pytest.raises(NonConvergent):
            _brentq(lambda g: g**3 - 0.3, 0.0, 1.0, xtol=1e-15, rtol=1e-15, maxiter=2)


class TestBoundReport:
    def test_ordering_and_caps(self):
        x = bpsk()
        rep = bound_report(jeong(), x, 1.0, i_mmse_method="exact")
        err = rep.i_mmse_err_bound
        assert rep.i_sow <= rep.i_mmse + err
        assert rep.ie_simple <= rep.ie_opt + 1e-12
        assert rep.ie_opt <= rep.i_mmse + err
        # a real white input carries at most H(x) and the Gaussian-input
        # rate, which is half of gaussian_rate = <log(1 + rho |H|^2)>
        cap = min(x.entropy, 0.5 * rep.gaussian_rate) + 1e-12
        for val in (rep.i_sow, rep.i_sl, rep.ie_simple, rep.ie_opt, rep.ie_conj):
            assert 0.0 <= val <= cap
        assert rep.i_mmse <= cap + err

    def test_exact_over_budget_raises(self):
        # at 100 dB the refined density grid outgrows 2^22 points: the route
        # asked for is the route taken, so there is no Monte-Carlo value to
        # fall back on
        with pytest.raises(BudgetExceeded, match="grid"):
            bound_report(channel_b(), bpsk(), 1e10, i_mmse_method="exact")

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
