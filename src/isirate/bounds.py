"""Achievable-rate bounds and approximations built on the MMSE-DFE output.

The central object is the unbiased-DFE channel z = x_0 + sum_k alpha_k x_k + m,
a DfeDesign. Its mutual information is evaluated two independent ways:
exact enumeration of the interference mixture (i_mmse_exact), which raises
BudgetExceeded past _BUDGET components, and pattern-sampling Monte Carlo
against a characteristic-function density table (i_mmse_mc). bound_report
takes the route it is asked for and never swaps one for the other. Around
it sit the single-letter proxies (i_sow, i_sl), the low-SNR gap expansion,
the genie MMSE lower bound and the Information-Estimation bound family.
Each bound built on the DFE has one form, f(design, x); i_sow needs no
design and takes (channel, x, rho). All rates are nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .channel import ChannelResponse, log_mean_spectrum
from .equalizer import DfeDesign, design_mmse_dfe
from .errors import (
    BudgetExceeded,
    DomainError,
    NonConvergent,
    NormalizationViolated,
    PartitionInvalid,
)
from .gaussmix import consolidate_atoms, mixture_entropy
from .montecarlo import RateEstimate, stream_rng
from .scalar import InputDistribution, discrete_mmse, mmse, mutual_info

_HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)
_BUDGET = 2**24  # mixture components i_mmse_exact may keep
_I_MMSE_METHODS = ("exact", "mc", "none")
_PRUNE_MASS = 1e-12
_MC_STREAMS = 8


# ---------------------------------------------------------------------------
# single-letter proxies


def i_sow(channel: ChannelResponse, x: InputDistribution, rho: float) -> float:
    """I_x at the unbiased ZF-DFE output SNR rho * g_zf_dfe."""
    return mutual_info(x, rho * math.exp(log_mean_spectrum(channel)))


def i_sl(design: DfeDesign, x: InputDistribution) -> float:
    """I_x at the unbiased MMSE-DFE output SNR exp<log(1+rho|H|^2)> - 1."""
    return mutual_info(x, math.expm1(design.gaussian_rate))


# ---------------------------------------------------------------------------
# exact I_MMSE via mixture enumeration


@dataclass(frozen=True)
class ImmseExact:
    """Exactly computed I_MMSE with its accounting."""

    value: float
    err_bound: float
    n_components: tuple[int, int]  # (with x_0, interference only)
    pruned_mass: float


def _enumerate_mixture(
    taps: np.ndarray,
    atoms: np.ndarray,
    probs: np.ndarray,
    budget: int,
    mass_budget: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """All interference patterns as (means, weights, dropped_mass).

    Lowest-weight components are dropped, never exceeding ``mass_budget``
    in total; if the survivors still exceed ``budget`` the enumeration is
    abandoned.
    """
    means = np.zeros(1)
    w = np.ones(1)
    dropped = 0.0
    n_atoms = atoms.size
    n_steps = taps.size

    def prune(means, w, dropped, max_keep, step_mass):
        """Drop the lightest components, spending at most step_mass of weight."""
        if means.size <= max_keep and w.min() > step_mass:
            return means, w, dropped  # not even the lightest is droppable
        order = np.argsort(w)
        cum = np.cumsum(w[order])
        allowed = int(np.searchsorted(cum, step_mass, side="right"))
        need = max(0, means.size - max_keep)
        if allowed < need:
            raise BudgetExceeded(
                f"mixture needs more than {budget} components; use the mc I_MMSE route"
            )
        k = max(need, allowed)
        if k == 0:
            return means, w, dropped
        drop = order[:k]
        dropped += float(cum[k - 1])
        keep = np.ones(means.size, dtype=bool)
        keep[drop] = False
        return means[keep], w[keep], dropped

    for i, t in enumerate(taps):
        # spend the mass budget evenly over the remaining expansions, so the
        # total dropped probability stays below mass_budget
        step_mass = (mass_budget - dropped) / (n_steps - i + 1)
        means, w, dropped = prune(means, w, dropped, budget // n_atoms, step_mass)
        means = (means[:, None] + t * atoms[None, :]).ravel()
        w = (w[:, None] * probs[None, :]).ravel()
    means, w, dropped = prune(means, w, dropped, budget, mass_budget - dropped)
    return means, w / w.sum(), dropped


def i_mmse_exact(design: DfeDesign, x: InputDistribution) -> ImmseExact:
    """I(x_0; x_0 + sum alpha_k x_k + m) by exact mixture entropies.

    Both terms of the decomposition I = h(x_0 + mu_1 + m) - h(mu_1 + m)
    are differential entropies of enumerated Gaussian mixtures over the
    truncated residual taps, each pruned of at most half of _PRUNE_MASS.
    Raises BudgetExceeded when either mixture keeps more than _BUDGET
    components.
    """
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    taps0 = np.concatenate(([1.0], taps1))
    m0, w0, drop0 = _enumerate_mixture(taps0, atoms, probs, _BUDGET, 0.5 * _PRUNE_MASS)
    m1, w1, drop1 = _enumerate_mixture(taps1, atoms, probs, _BUDGET, 0.5 * _PRUNE_MASS)
    h0, e0 = mixture_entropy(m0, w0, sigma)
    h1, e1 = mixture_entropy(m1, w1, sigma)
    pruned = drop0 + drop1
    # a renormalized drop of mass d moves each entropy by O(d log(d/p_min));
    # 50 nats/unit-mass is a generous ceiling at the 1e-12 mass budget
    err = e0 + e1 + 50.0 * pruned
    return ImmseExact(
        value=h0 - h1,
        err_bound=err,
        n_components=(m0.size, m1.size),
        pruned_mass=pruned,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo I_MMSE via a characteristic-function density table

# Elements of one block of per-tap factors in _char_fn (2 MB of float64).
_CF_BLOCK = 2**18


def _fft_grid(taps, atoms, sigma: float, pps: int = 32, pad: float = 16.0):
    """FFT grid (lo, dy, n) for y = sum_k t_k x_k + sigma N.

    It spans the support of the noiseless sum padded by ``pad`` sigma on
    each side, with n a power of two (at least 512) and dy <= sigma/pps;
    raises BudgetExceeded beyond 2^22 points.
    """
    per_tap = np.multiply.outer(np.asarray(taps, dtype=float), atoms)
    lo = float(per_tap.min(axis=1).sum()) if per_tap.size else 0.0
    hi = float(per_tap.max(axis=1).sum()) if per_tap.size else 0.0
    lo -= pad * sigma
    hi += pad * sigma
    n = 1 << max(9, int(np.ceil(np.log2((hi - lo) / (sigma / pps)))))
    if n > 1 << 22:
        raise BudgetExceeded("density grid too large")
    return lo, (hi - lo) / n, n


def _frequencies(n: int, dy: float) -> np.ndarray:
    """The n/2 + 1 nonnegative angular frequencies of an n-point grid of step dy."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=dy)


def _char_fn(taps, atoms, probs, sigma: float, omega: np.ndarray) -> np.ndarray:
    """Phi(w) = exp(-sigma^2 w^2 / 2) prod_k E e^{i w t_k x} at the frequencies w."""
    taps = np.asarray(taps, dtype=float)
    phi = np.exp(-0.5 * (sigma * omega) ** 2).astype(complex)
    block = max(1, _CF_BLOCK // (atoms.size * omega.size))
    for i in range(0, taps.size, block):
        arg = np.multiply.outer(np.multiply.outer(taps[i : i + block], atoms), omega)
        # (k, |A|, w) -> (k, w): each tap's E e^{i w t x}, then their product
        phi *= (probs @ np.cos(arg) + 1j * (probs @ np.sin(arg))).prod(axis=0)
    return phi


def _invert(phi: np.ndarray, omega: np.ndarray, start: float, dy: float, n: int) -> np.ndarray:
    """p(start + k dy), k < n, by inverting Phi on the grid's frequencies.

    p(y) = (1/(n dy)) sum_j Phi(w_j) e^{-i w_j y} over all n frequencies;
    Phi(-w) = conj Phi(w), so the sum is real and irfft takes it from the
    nonnegative half.
    """
    return np.fft.irfft(np.conj(phi) * np.exp(1j * omega * start), n) / dy


class _LogDensityTable:
    """log p(y) on a cubic spline over an FFT grid (lo, dy, n), from the
    density's characteristic function Phi at the grid's frequencies.

    Grid step sigma/32 and padding 16 sigma put aliasing and truncation
    errors far below double precision. ``audit_err`` compares the spline
    with p inverted exactly at the midpoints between every n//512-th pair
    of grid points (``audit_y``, ``audit_logp``), over the region holding
    all but ~1e-12 of the sampling mass. Its ~1e-6 is the round-off of
    that inversion where p is ~1e-10 of its peak; further out the table
    is FFT round-off, and samples land there with ~zero mass.
    """

    def __init__(self, lo: float, dy: float, n: int, phi: np.ndarray):
        self.lo, self.hi = lo, lo + n * dy
        omega = _frequencies(n, dy)
        y = lo + dy * np.arange(n)
        p = _invert(phi, omega, lo, dy, n)
        floor = p.max() * 1e-280
        self._logp = CubicSpline(y, np.log(np.maximum(p, floor)))
        # the midpoints lie on the grid shifted by dy/2: one more inversion
        stride = max(1, n // 512)
        self.audit_y = y[:-1:stride] + 0.5 * dy
        direct = _invert(phi, omega, lo + 0.5 * dy, dy, n)[:-1:stride]
        self.audit_logp = np.log(np.maximum(direct, 1e-300))
        mask = self.audit_logp >= self.audit_logp.max() - 23.0
        self.audit_err = float(
            np.max(np.abs(self._logp(self.audit_y[mask]) - self.audit_logp[mask]))
        )

    def __call__(self, ys: np.ndarray) -> np.ndarray:
        if ys.min() < self.lo or ys.max() > self.hi:
            raise ValueError("sample outside density table support")
        return self._logp(ys)


def _density_tables(taps1, atoms, probs, sigma: float):
    """Tables of y0 = x_0 + sum_k t_k x_k + sigma N and of y1 = y0 - x_0.

    Both share the grid of y0, whose support contains that of y1 for a
    zero-mean input, and Phi0 = Phi1 E e^{i w x}.
    """
    lo, dy, n = _fft_grid(np.concatenate(([1.0], taps1)), atoms, sigma)
    omega = _frequencies(n, dy)
    phi1 = _char_fn(taps1, atoms, probs, sigma, omega)
    phi0 = phi1 * _char_fn(np.ones(1), atoms, probs, 0.0, omega)
    return _LogDensityTable(lo, dy, n, phi0), _LogDensityTable(lo, dy, n, phi1)


def _sample_indices(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Atom indices of uniforms u under the cumulative probabilities cum.

    Counts the entries of cum[:-1] below u: searchsorted(cum, u) bit for
    bit, except that a u above a rounded cum[-1] < 1 maps to the last atom
    instead of one past it.
    """
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(cum.size - 1))
    for c in cum[:-1]:
        idx += u > c
    return idx


def i_mmse_mc(
    design: DfeDesign,
    x: InputDistribution,
    n_samples: int,
    seed: int,
) -> RateEstimate:
    """Monte-Carlo I_MMSE: sample interference patterns, average log densities.

    Per sample, I is estimated by log p1(mu_1 + m) - log p0(x_0 + mu_1 + m)
    with a shared pattern and noise draw in both terms; the streams are
    independent (_MC_STREAMS of them) and the result is deterministic for a
    given seed.
    """
    if n_samples < 10**4:
        raise DomainError("n_samples must be at least 1e4")
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    table0, table1 = _density_tables(taps1, atoms, probs, sigma)
    audit = max(table0.audit_err, table1.audit_err)
    if audit > 1e-2:
        raise NonConvergent(f"density table failed its self-check ({audit:.2e})")
    cum = np.cumsum(probs)
    per = n_samples // _MC_STREAMS
    counts = [per + (1 if s < n_samples - per * _MC_STREAMS else 0) for s in range(_MC_STREAMS)]
    total = 0.0
    total_sq = 0.0
    for s, m in enumerate(counts):
        rng = stream_rng(seed, s)
        vals = atoms.take(_sample_indices(rng.random((m, taps1.size + 1)), cum))
        c = vals[:, 1:] @ taps1
        y1 = c + sigma * rng.standard_normal(m)
        y0 = vals[:, 0] + y1
        d = table1(y1) - table0(y0)
        total += float(d.sum())
        total_sq += float(d @ d)
    mean = total / n_samples
    var = (total_sq - n_samples * mean * mean) / (n_samples - 1)
    return RateEstimate(
        value=mean,
        std_error=math.sqrt(max(var, 0.0) / n_samples),
        n_samples=n_samples,
        n_seeds=_MC_STREAMS,
        seeds=tuple((seed, s) for s in range(_MC_STREAMS)),
        notes={"density_audit_err": audit},
    )


# ---------------------------------------------------------------------------
# low-SNR gap expansion


def slc_gap_series(design: DfeDesign, x: InputDistribution) -> float:
    """Leading-orders prediction of I_MMSE - I_SL from the tap summaries.

    -(gamma1 s^2 / 6 b0^6) eps0^3
    - (delta1 k^2 / 24 b0^8 - (2 b0^2 + gamma1) gamma1 s^2 / 4 b0^8) eps0^4
    """
    s2 = x.skewness**2
    k2 = x.excess_kurtosis**2
    b0, g1, d1, e0 = design.beta0_sq, design.gamma1_cu, design.delta1_4, design.eps0
    cubic = -g1 * s2 / (6.0 * b0**3) * e0**3
    quartic = -(d1 * k2 / 24.0 - (2.0 * b0 + g1) * g1 * s2 / 4.0) / b0**4 * e0**4
    return cubic + quartic


def two_tap_gap_leading(q: float, x: InputDistribution) -> float:
    """(P_x/N_0)^3 coefficient of I_MMSE - I_SL for the channel [sqrt(1-q^2), q]."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must be in (0, 1)")
    return -q**3 * (1.0 - q * q) ** 1.5 * x.skewness**2 / 6.0


# ---------------------------------------------------------------------------
# genie MMSE lower bound


def genie_mmse_lower(
    x: InputDistribution,
    coeffs,
    gamma: float,
    partition,
    sigmas,
) -> float:
    """Lower bound on mmse of X = sum_k a_k xbar_k from sqrt(gamma) X + N(0,1).

    Each partition block X_m is revealed through its own observation with
    noise variance sigma_m^2 (sum b_m^2 sigma_m^2 = 1); conditioning can
    only decrease the MMSE, giving sum_m b_m^2 mmse_{X_m}(gamma/sigma_m^2).
    A block with sigma_m = 0 is revealed noiselessly and contributes 0.
    """
    a = np.asarray(coeffs, dtype=float)
    if abs(float(a @ a) - 1.0) > 1e-9:
        raise NormalizationViolated("coefficients must satisfy sum a_k^2 = 1")
    blocks = [np.asarray(b, dtype=int) for b in partition]
    flat = np.concatenate(blocks) if blocks else np.zeros(0, dtype=int)
    if sorted(flat.tolist()) != list(range(a.size)):
        raise PartitionInvalid("partition must cover each tap index exactly once")
    sig2 = np.asarray(sigmas, dtype=float) ** 2
    if sig2.size != len(blocks) or np.any(sig2 < 0.0):
        raise PartitionInvalid("one sigma per block, all nonnegative")
    b_sq = np.array([float(a[blk] @ a[blk]) for blk in blocks])
    if abs(float(b_sq @ sig2) - 1.0) > 1e-9:
        raise NormalizationViolated("noise split must satisfy sum b_m^2 sigma_m^2 = 1")
    xbar = x.normalized_atoms
    probs = np.asarray(x.probs)
    bound = 0.0
    for blk, bm_sq, s2 in zip(blocks, b_sq, sig2):
        if bm_sq == 0.0 or s2 == 0.0:
            continue
        vals = np.zeros(1)
        wts = np.ones(1)
        for k in blk:
            vals = (vals[:, None] + a[k] * xbar[None, :]).ravel()
            wts = (wts[:, None] * probs[None, :]).ravel()
            if vals.size > 4096:
                vals, wts = consolidate_atoms(vals, wts)
        bound += bm_sq * discrete_mmse(vals / math.sqrt(bm_sq), wts, gamma / s2)
    return bound


def genie_singletons(x: InputDistribution, coeffs, gamma: float) -> float:
    """Every tap its own block, unit noise split: reduces to mmse_x(gamma)."""
    n = len(np.asarray(coeffs))
    return genie_mmse_lower(x, coeffs, gamma, [[k] for k in range(n)], np.ones(n))


def genie_equal_sigma(x: InputDistribution, coeffs, gamma: float, partition) -> float:
    """All blocks observed at the same noise level sigma_m = 1."""
    return genie_mmse_lower(x, coeffs, gamma, partition, np.ones(len(partition)))


def genie_one_cluster(
    x: InputDistribution, coeffs, gamma: float, cluster, simplified: bool = False
) -> float:
    """Reveal everything outside ``cluster`` noiselessly.

    With b^2 the cluster energy the bound is b^2 mmse_{X_c}(b^2 gamma);
    ``simplified=True`` further relaxes the cluster to a single input,
    b^2 mmse_x(b^2 gamma).
    """
    a = np.asarray(coeffs, dtype=float)
    cluster = list(cluster)
    b_sq = float(a[cluster] @ a[cluster])
    if simplified:
        return b_sq * mmse(x, b_sq * gamma)
    rest = [k for k in range(a.size) if k not in cluster]
    partition = [cluster] + ([rest] if rest else [])
    sigmas = [1.0 / math.sqrt(b_sq)] + ([0.0] if rest else [])
    return genie_mmse_lower(x, coeffs, gamma, partition, sigmas)


# ---------------------------------------------------------------------------
# Information-Estimation bound family
#
# Each bound is a function of the design's residual summaries alone.


def ie_bound(design: DfeDesign, x: InputDistribution, gamma1: float, gamma2: float) -> float:
    """Two-parameter lower bound on I_MMSE, valid for 0 <= g1 <= g2 <= S."""
    s = design.S
    if not 0.0 <= gamma1 <= gamma2 <= s * (1.0 + 1e-12):
        raise DomainError("need 0 <= gamma1 <= gamma2 <= S")
    b0, b1 = design.beta0_sq, design.beta1_sq
    return (
        mutual_info(x, b0 * gamma1)
        - mutual_info(x, gamma1)
        + mutual_info(x, gamma2)
        - 0.5 * math.log1p(b1 * gamma2)
    )


def ie_simple(design: DfeDesign, x: InputDistribution) -> float:
    """The gamma1 = gamma2 = S point: I_x(b0^2 S) - (1/2) log(1 + b1^2 S)."""
    return mutual_info(x, design.eps0) - 0.5 * math.log1p(design.eps1)


def ie_conj(design: DfeDesign, x: InputDistribution) -> float:
    """I_x(b0^2 S) - I_x(b1^2 S). Conjectured lower bound only: it has never
    been proven, and is reported flagged as such."""
    return mutual_info(x, design.eps0) - mutual_info(x, design.eps1)


def ie_opt(design: DfeDesign, x: InputDistribution) -> tuple[float, float, float]:
    """Optimized two-parameter bound; returns (value, gamma1*, gamma2*).

    Unless (S, S) is a KKT point of the bound, gamma2* equalizes mmse(g)
    and the Gaussian bound b1^2/(1 + b1^2 g), and gamma1* <= gamma2*
    equalizes b0^2 mmse(b0^2 g) and mmse(g). When a bracket holds no sign
    change it falls back to the best gamma1 <= gamma2 on a log grid. The
    result is never below the simple point (S, S) nor the trivial point
    (0, 0), whose bound is 0; the latter is returned as (0.0, 0.0, 0.0).
    """
    s, b0, b1 = design.S, design.beta0_sq, design.beta1_sq
    mm = lambda g: mmse(x, g)
    # the simple point (S, S), or the trivial point (0, 0) whose bound is 0
    simple = ie_simple(design, x)
    best = (simple, s, s) if simple >= 0.0 else (0.0, 0.0, 0.0)
    # stop at (S, S) only at a KKT point, b0 mmse(b0 S) >= mmse(S) and
    # >= b1/(1 + b1 S); mmse round-off near 0 cannot fake the second
    t1 = b0 * mm(b0 * s)
    if t1 >= mm(s) and t1 >= b1 / (1.0 + b1 * s):
        return best
    # roots to 1e-10 relative; the absolute floor is that of the lowest root
    lo = 1e-12 * s
    root = lambda f, hi: brentq(f, lo, hi, xtol=1e-10 * lo, rtol=1e-10)
    f1 = lambda g: b0 * mm(b0 * g) - mm(g)
    try:
        if mm(s) >= b1 / (1.0 + b1 * s):
            g2 = s
        else:
            g2 = root(lambda g: mm(g) - b1 / (1.0 + b1 * g), s)
        # search g1 below g2 only: for skewed inputs f1 changes sign many
        # times in quadrature noise above its first root
        g1 = g2 if f1(g2) >= 0.0 else root(f1, g2)
        value = ie_bound(design, x, g1, g2)
    except ValueError:  # brentq: no sign change over the bracket
        warnings.warn("ie_opt bracket failed; falling back to grid search")
        grid = np.concatenate(([0.0], np.geomspace(1e-10 * s, s, 511)))
        term1 = np.array([mutual_info(x, b0 * g) - mutual_info(x, g) for g in grid])
        term2 = np.array(
            [mutual_info(x, g) - 0.5 * math.log1p(b1 * g) for g in grid]
        )
        # the joint optimum over g1 <= g2: the best g1 up to each g2
        i2 = int(np.argmax(np.maximum.accumulate(term1) + term2))
        i1 = int(np.argmax(term1[: i2 + 1]))
        g1, g2 = float(grid[i1]), float(grid[i2])
        value = float(term1[i1] + term2[i2])
    return (value, g1, g2) if value >= best[0] else best


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (channel, input, rho) point, in nats."""

    rho: float
    gaussian_rate: float
    i_sow: float
    i_sl: float
    ie_simple: float
    ie_opt: float
    gamma1_opt: float
    gamma2_opt: float
    ie_conj: float  # conjectured bound, not proven
    i_mmse: float | None
    i_mmse_method: str | None  # "exact" | "mc"
    i_mmse_std_error: float | None
    i_mmse_err_bound: float | None
    gap_series: float | None


def bound_report(
    channel: ChannelResponse,
    x: InputDistribution,
    rho: float,
    i_mmse_method: str,
    n_samples: int = 100_000,
    seed: int = 0,
    include_gap_series: bool = False,
    design: DfeDesign | None = None,
) -> BoundReport:
    """Evaluate every bound at one SNR point.

    ``i_mmse_method`` is "exact", "mc" or "none", and the route asked for
    is the route taken: an "exact" mixture over budget raises
    BudgetExceeded. Every bound reads the one spectral factorisation
    behind ``design``, which is made here unless the caller passes it.
    """
    if i_mmse_method not in _I_MMSE_METHODS:
        raise DomainError(f"i_mmse_method must be one of {_I_MMSE_METHODS}, not {i_mmse_method!r}")
    design = design or design_mmse_dfe(channel, x, rho)
    opt_value, g1, g2 = ie_opt(design, x)
    report = dict(
        rho=rho,
        gaussian_rate=design.gaussian_rate,
        i_sow=i_sow(channel, x, rho),
        i_sl=i_sl(design, x),
        ie_simple=ie_simple(design, x),
        ie_opt=opt_value,
        gamma1_opt=g1,
        gamma2_opt=g2,
        ie_conj=ie_conj(design, x),
        i_mmse=None,
        i_mmse_method=None,
        i_mmse_std_error=None,
        i_mmse_err_bound=None,
        gap_series=slc_gap_series(design, x) if include_gap_series else None,
    )
    if i_mmse_method == "exact":
        res = i_mmse_exact(design, x)
        report.update(i_mmse=res.value, i_mmse_method="exact", i_mmse_err_bound=res.err_bound)
    elif i_mmse_method == "mc":
        est = i_mmse_mc(design, x, n_samples, seed)
        report.update(
            i_mmse=est.value,
            i_mmse_method="mc",
            i_mmse_std_error=est.std_error,
            i_mmse_err_bound=est.notes.get("density_audit_err"),
        )
    return BoundReport(**report)
