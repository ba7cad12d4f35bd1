"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Criterion 6 runs a reduced desk profile by default; set
ISIRATE_ACCEPT_FULL=1 for the 1e7-symbol x 10-seed profile.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.special import stdtr

from isirate.bounds import (
    bound_report,
    genie_mmse_lower,
    i_mmse_exact,
    i_sl,
    slc_gap_series,
    two_tap_gap_leading,
)
from isirate.channel import ChannelResponse, channel_b, jeong, jeong_spaced
from isirate.equalizer import design_mmse_dfe, two_tap_residual
from isirate.highsnr import delta_min_sq, error_alphabet, exponent_gap
from isirate.rate_sim import build_trellis, estimate_rate
from isirate.scalar import (
    bpsk,
    log_q_integral,
    make_skewed_binary,
    make_trinary,
    mmse,
    mutual_info,
)

from conftest import (
    discrete_mmse,
    event_distance_sq,
    forward_log_likelihood,
    mmse_binary,
    q_tail,
    quadrature_summary,
    random_unit_channel,
)

LOG2 = math.log(2.0)


def two_tap_channel(q):
    return ChannelResponse((math.sqrt(1.0 - q * q), q))


def test_criterion_01_appendix_identities():
    """Tap-domain residual summaries match the closed forms on random channels.

    The closed forms run through the equalizer SNRs, taken here by theta
    quadrature (conftest.quadrature_summary), a route that shares no code
    with the spectral factorisation behind the design.
    """
    t0 = time.time()
    rng = np.random.default_rng(101)
    x = bpsk()
    worst = 0.0
    for _ in range(20):
        ch = random_unit_channel(rng, max_len=6)
        for rho in (0.1, 1.0, 10.0):
            d = design_mmse_dfe(ch, x, rho)
            rate, beta1_sq, s = quadrature_summary(ch, rho)
            oracle = {"beta1_sq": beta1_sq, "eps0": (1.0 + beta1_sq) * s, "eps1": beta1_sq * s, "S": s}
            for field, b in oracle.items():
                a = getattr(d, field)
                # relative check with an absolute floor for the exact-zero
                # beta1_sq of memoryless channels (the quadrature returns
                # noise ~1e-14 there)
                dev = abs(a - b) / max(abs(b), 1e-6)
                worst = max(worst, dev)
                assert dev <= 1e-6, (field, ch.taps, rho)
            gap = abs(d.snr_unbiased / math.expm1(rate) - 1.0)
            worst = max(worst, gap)
            assert gap <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: appendix identities, worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_two_tap_closed_form():
    """Designed residual matches the geometric closed form tap-by-tap."""
    worst = 0.0
    for q in (0.3, 0.6, 0.9):
        for rho in (0.1, 1.0):
            d = design_mmse_dfe(two_tap_channel(q), bpsk(), rho)
            ref = two_tap_residual(q, rho, 10)
            got = np.zeros(10)
            n = min(10, d.residual_full.size)
            got[:n] = d.residual_full[:n]
            dev = float(np.max(np.abs(got - ref)))
            worst = max(worst, dev)
            assert dev <= 1e-6, (q, rho)
    print(f"ACCEPTANCE 2 PASS: two-tap residual closed form, worst tap dev {worst:.2e}")


def test_criterion_03_low_snr_gap_reproduction():
    """Exact I_MMSE - I_SL is negative and tracks the series expansion."""
    t0 = time.time()
    lines = []
    for name, x in (("trinary(0.01)", make_trinary(0.01)), ("skewed_binary(0.002)", make_skewed_binary(0.002))):
        for snr_db in (-26.0, -23.0):
            rho = 10 ** (snr_db / 10.0)
            d = design_mmse_dfe(channel_b(), x, rho)
            assert d.residual.size <= 12
            assert d.eps0 <= 0.01
            gap = i_mmse_exact(d, x).value - i_sl(d, x)
            series = slc_gap_series(d, x)
            assert gap < 0.0, (name, snr_db)
            assert abs(series - gap) <= 0.2 * abs(gap), (name, snr_db)
            if abs(x.skewness) > 1.0:
                cubic = -d.gamma1_cu * x.skewness**2 / (6.0 * d.beta0_sq**3) * d.eps0**3
                assert cubic < 0.0  # the two-tap-formula sign
                assert abs(cubic) > abs(series - cubic)  # eps0^3 term dominates
            lines.append(f"{name}@{snr_db:g}dB gap={gap:+.2e} series={series:+.2e}")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 3 PASS: low-SNR gap, {'; '.join(lines)}, {elapsed:.1f}s")


def test_criterion_04_two_tap_leading_coefficient():
    """Richardson extrapolation recovers the cubic-coefficient closed form."""
    q = 0.5
    x = make_skewed_binary(0.002)
    ch = two_tap_channel(q)

    def gap(rho):
        d = design_mmse_dfe(ch, x, rho)
        return i_mmse_exact(d, x).value - i_sl(d, x)

    rho = 2e-3
    f1 = gap(rho) / rho**3
    f2 = gap(rho / 2.0) / (rho / 2.0) ** 3
    coeff = 2.0 * f2 - f1
    target = two_tap_gap_leading(q, x)
    rel = abs(coeff - target) / abs(target)
    assert rel <= 0.10
    print(f"ACCEPTANCE 4 PASS: leading coefficient {coeff:.4f} vs {target:.4f} (rel {rel:.1e})")


def test_criterion_05_rate_simulator_calibration():
    """Memoryless calibration and exact brute-force likelihood agreement."""
    for rho in (0.5, 2.0):
        est = estimate_rate(ChannelResponse((1.0,)), bpsk(), rho, 100_000, 6, seed=11)
        ref = mutual_info(bpsk(), rho)
        assert abs(est.value - ref) <= 3.0 * est.std_error, rho
    # forward recursion vs exhaustive enumeration, n=10, L=3
    rng = np.random.default_rng(55)
    ch = ChannelResponse((0.8, 0.5, -0.3))
    x = make_trinary(0.2)
    trellis = build_trellis(ch, x)
    n0 = 0.6
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    idx = rng.integers(0, 3, 12)
    y = np.convolve(atoms[idx], ch.taps)[2:12] + math.sqrt(n0) * rng.standard_normal(10)
    total = 0.0
    for combo in itertools.product(range(3), repeat=12):
        seq = atoms[list(combo)]
        pr = probs[list(combo)].prod()
        clean = np.convolve(seq, ch.taps)[2:12]
        total += pr * math.exp(-0.5 * float(np.sum((y - clean) ** 2)) / n0) / (
            2.0 * math.pi * n0
        ) ** 5
    brute = math.log(total)
    fwd = forward_log_likelihood(y, trellis, n0)
    assert abs(fwd - brute) <= 1e-10 * abs(brute)
    print(f"ACCEPTANCE 5 PASS: calibration within 3 sigma; likelihood rel dev {abs(fwd/brute-1):.1e}")


def test_criterion_06_rate_vs_sl_counterexample():
    """Desk-scale rate simulation vs I_SL for the skewed binary input."""
    full = os.environ.get("ISIRATE_ACCEPT_FULL", "0") == "1"
    n_symbols = 10**7 if full else 2 * 10**6
    n_seeds = 10 if full else 8
    x = make_skewed_binary(0.002)
    grid_db = (-20.0, -17.5, -15.0, -12.5, -10.0, -8.0)
    rows = []
    best_z = math.inf
    for snr_db in grid_db:
        rho = 10 ** (snr_db / 10.0)
        ref = i_sl(design_mmse_dfe(channel_b(), x, rho), x)
        est = estimate_rate(channel_b(), x, rho, n_symbols, n_seeds, seed=123)
        per_seed = np.asarray(est.notes["per_seed"])
        # CI honesty: independent seed-halves must agree
        half = n_seeds // 2
        m1, m2 = per_seed[:half].mean(), per_seed[half:].mean()
        se = per_seed.std(ddof=1) * math.sqrt(1.0 / half + 1.0 / (n_seeds - half))
        assert abs(m1 - m2) <= 4.0 * se, snr_db
        z = (est.value - ref) / est.std_error
        best_z = min(best_z, z)
        rows.append(
            f"  {snr_db:6.1f} dB: rate-I_SL = {(est.value - ref) / LOG2:+.3e} "
            f"+- {2 * est.std_error / LOG2:.1e} bits (z={z:+.2f})"
        )
    report = "\n".join(rows)
    conclusive = best_z <= -2.0
    # the standard error comes from n_seeds seeds, so z <= -2 has the
    # one-sided level of Student's t with n_seeds - 1 degrees of freedom
    # (4.3% for 8 seeds, 3.8% for 10), not the normal 2.3%
    level = stdtr(n_seeds - 1, -2.0)
    verdict = (
        f"rate < I_SL at z <= -2, one-sided t level {100 * level:.1f}% ({n_seeds - 1} dof)"
        if conclusive
        else "INCONCLUSIVE at this scale"
    )
    print(f"ACCEPTANCE 6 PASS ({'full' if full else 'desk'} profile): {verdict}\n{report}")
    assert conclusive, "expected a conclusive negative gap with the pinned seed"


def test_criterion_07_bound_ordering_sweep():
    """Ordering of the bound family on the severe-ISI channels."""
    x = bpsk()
    for ch, name in ((jeong(), "jeong"), (jeong_spaced(), "jeong_spaced")):
        for i, snr_db in enumerate(np.arange(-12.0, 16.0, 3.0)):
            rho = 10 ** (snr_db / 10.0)
            rep = bound_report(ch, x, rho, i_mmse_method="exact")
            err = rep.i_mmse_err_bound
            assert rep.i_sow <= rep.i_mmse + err, (name, snr_db)
            assert rep.ie_simple <= rep.ie_opt + 1e-12, (name, snr_db)
            assert rep.ie_opt <= rep.i_mmse + err, (name, snr_db)
            if i == 0:
                gauss = 0.5 * rep.gaussian_rate
                assert abs(rep.ie_simple - gauss) / LOG2 <= 1e-3, name
    print("ACCEPTANCE 7 PASS: ie_simple <= ie_opt <= i_mmse on 2x10 points; i_sow <= i_mmse holds "
          "on this BPSK sweep, though it is no ordering of the bound family; "
          "Gaussian equality at the lowest SNR")


def test_criterion_08_genie_property_suite():
    """Random genie configurations never exceed the brute-force MMSE."""
    rng = np.random.default_rng(88)
    inputs = [bpsk(), make_trinary(0.1), make_trinary(0.3)]
    worst_margin = -math.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal(n)
        a /= math.sqrt(float(a @ a))
        x = inputs[int(rng.integers(0, len(inputs)))]
        gamma = float(rng.uniform(0.05, 25.0))
        labels = rng.integers(0, n, n)
        blocks = [np.nonzero(labels == m)[0].tolist() for m in range(n)]
        blocks = [b for b in blocks if b]
        b_sq = np.array([float(a[b] @ a[b]) for b in blocks])
        raw = rng.uniform(0.1, 2.0, len(blocks)) ** 2
        sig2 = raw / float(b_sq @ raw)
        bound = genie_mmse_lower(x, a, gamma, blocks, np.sqrt(sig2))
        # brute force over every pattern of the full sum
        xbar = np.asarray(x.atoms) / math.sqrt(x.power)
        probs = np.asarray(x.probs)
        vals = np.zeros(1)
        wts = np.ones(1)
        for coeff in a:
            vals = (vals[:, None] + coeff * xbar[None, :]).ravel()
            wts = (wts[:, None] * probs[None, :]).ravel()
        brute = discrete_mmse(vals, wts, gamma)
        worst_margin = max(worst_margin, bound - brute)
        assert bound <= brute + 1e-8
    print(f"ACCEPTANCE 8 PASS: 200 genie configs below brute force (worst margin {worst_margin:+.1e})")


def test_criterion_09_high_snr_exponents():
    """Strict exponent gaps and exact search vs enumeration."""
    x = bpsk()
    for ch, name in (
        (channel_b(), "channel_b"),
        (jeong(), "jeong"),
        (two_tap_channel(0.6), "two_tap_0.6"),
        (two_tap_channel(0.9), "two_tap_0.9"),
    ):
        gap = exponent_gap(ch, x)
        assert gap.strict, name
    flat = exponent_gap(ChannelResponse((1.0,)), x)
    assert not flat.strict and flat.delta_min_sq == flat.g_zf_dfe
    rng = np.random.default_rng(909)
    for _ in range(20):
        ch = random_unit_channel(rng, max_len=4).min_phase
        res = delta_min_sq(ch, x)
        alphabet = error_alphabet(x)
        brute = math.inf
        # every event up to the witness's length, so a cheaper one would show
        for length in range(1, max(6, len(res.witness)) + 1):
            for combo in itertools.product(alphabet, repeat=length):
                if combo[0] == 0.0 or combo[-1] == 0.0:
                    continue
                brute = min(brute, event_distance_sq(ch, combo))
        assert res.delta_min_sq == pytest.approx(brute, abs=1e-12)
    print("ACCEPTANCE 9 PASS: strict gaps; search equals enumeration to the witness length on 20 channels")


def test_criterion_10_scalar_engine():
    """I-MMSE derivative identity, binary tail bound and the Q-integral value."""
    assert abs(math.exp(log_q_integral(0.0)) - 0.5) <= 1e-12
    gammas = np.geomspace(1e-3, 50.0, 12)
    floored = 0
    for x in (bpsk(), make_trinary(0.01), make_skewed_binary(0.002)):
        for gamma in gammas:
            step = 1e-4 * (1.0 + gamma)
            deriv = (mutual_info(x, gamma + step) - mutual_info(x, gamma - step)) / (2.0 * step)
            target = 0.5 * mmse(x, gamma)
            if target >= 1e-4:
                assert abs(deriv / target - 1.0) <= 1e-4, (x.atoms, gamma)
            else:
                # saturated regime: the central difference of I sits at the
                # double-precision noise floor; check absolutely there
                floored += 1
                assert abs(deriv - target) <= 1e-8, (x.atoms, gamma)
    for gamma in gammas:
        assert mmse_binary(gamma) >= 2.0 * q_tail(math.sqrt(gamma))
    print(f"ACCEPTANCE 10 PASS: derivative identity on 3x12 points "
          f"({floored} saturated points checked at the 1e-8 absolute floor)")
