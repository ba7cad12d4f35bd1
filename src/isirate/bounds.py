"""Achievable-rate bounds and approximations built on the MMSE-DFE output.

The central object is the unbiased-DFE channel z = x_0 + sum_k alpha_k x_k + m,
a DfeDesign. Its mutual information is evaluated two ways, both from the
closed-form characteristic functions of the output with and without x_0
on one FFT grid: deterministically, as the difference of the two
densities' entropies by the trapezoid rule on that grid, with a bound on
its error (i_mmse_exact), and by pattern-sampling Monte Carlo against
log-density tables interpolated from the grid (i_mmse_mc). The exact
route checks the size of its largest grid before any FFT and raises
BudgetExceeded past _GRID_MAX points. The Monte Carlo route reads, per
sample, one 64-bit Philox word per tap, sample after sample, and then
each stream's normals; it draws the words in blocks of _MC_BLOCK, so its
memory is O(block), not O(samples x taps). The command line and every
figure take the exact route; i_mmse_mc stays only for callers of
bound_report(i_mmse_method="mc") and the benchmark's bounds_mc and
trellis_rate workloads, until the benchmark moves to the exact route.
bound_report takes the route it is asked for and never swaps one for the
other. Around it sit the single-letter proxies (i_sow, i_sl), the low-SNR
gap expansion, the genie MMSE lower bound and the Information-Estimation
bound family, whose optimum ie_opt takes one route of derivative roots
(the I-MMSE relation). The genie bound takes each block's MMSE on an FFT
grid of the same kind, from the closed-form transforms of the block's
output density and of E[C|y] p(y), so it enumerates no pattern. Each
bound built on the DFE has one form, f(design, x); i_sow needs no design
and takes (channel, x, rho). All rates are nats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelResponse
from .equalizer import DfeDesign, design_mmse_dfe
from .errors import BudgetExceeded, DomainError, NonConvergent
from .montecarlo import RateEstimate, _thresholds, stream_rng
from .scalar import InputDistribution, mmse, mutual_info

_EPS = float(np.finfo(float).eps)
_I_MMSE_METHODS = ("exact", "mc", "none")
_MC_STREAMS = 8


# ---------------------------------------------------------------------------
# single-letter proxies


def i_sow(channel: ChannelResponse, x: InputDistribution, rho: float) -> float:
    """I_x at the unbiased ZF-DFE output SNR rho * g_zf_dfe."""
    return mutual_info(x, rho * math.exp(channel.log_mean_spectrum))


def i_sl(design: DfeDesign, x: InputDistribution) -> float:
    """I_x at the unbiased MMSE-DFE output SNR exp<log(1+rho|H|^2)> - 1."""
    return mutual_info(x, math.expm1(design.gaussian_rate))


# ---------------------------------------------------------------------------
# densities of the DFE output from their characteristic functions

# Elements of one block of per-tap factors in _char_fn (2 MB of float64).
_CF_BLOCK = 2**18
# FFT grid points per noise sigma, and the padding in sigmas on each side
_GRID_PPS = 32
_GRID_PAD = 16.0
# Points of the largest FFT grid
_GRID_MAX = 1 << 22


def _fft_grid(taps, atoms, sigma: float, pps: int = _GRID_PPS, pad: float = _GRID_PAD):
    """FFT grid (lo, dy, n) for y = sum_k t_k x_k + sigma N.

    It spans the support of the noiseless sum padded by ``pad`` sigma on
    each side, with n a power of two (at least 512) and dy <= sigma/``pps``;
    raises BudgetExceeded past _GRID_MAX points, before anything is
    allocated over the grid.
    """
    per_tap = np.multiply.outer(np.asarray(taps, dtype=float), atoms)
    lo = float(per_tap.min(axis=1).sum()) if per_tap.size else 0.0
    hi = float(per_tap.max(axis=1).sum()) if per_tap.size else 0.0
    lo -= pad * sigma
    hi += pad * sigma
    n = 1 << max(9, int(np.ceil(np.log2((hi - lo) / (sigma / pps)))))
    if n > _GRID_MAX:
        raise BudgetExceeded(f"density grid of {n} points, more than {_GRID_MAX}")
    return lo, (hi - lo) / n, n


def _frequencies(n: int, dy: float) -> np.ndarray:
    """The n/2 + 1 nonnegative angular frequencies of an n-point grid of step dy."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=dy)


def _live(sigma: float, omega: np.ndarray) -> tuple[np.ndarray, int]:
    """exp(-sigma^2 w^2 / 2) at the ascending frequencies w >= 0, and the
    number of leading frequencies where it has not underflowed to 0: past
    them a characteristic function with that Gaussian factor is 0 whatever
    the taps give, so per-tap factors are multiplied in only before them."""
    gauss = np.exp(-0.5 * (sigma * omega) ** 2)
    return gauss, int(np.count_nonzero(gauss))


def _tap_phases(taps: np.ndarray, atoms: np.ndarray, omega: np.ndarray, live: int):
    """Yield, per block of taps, the block and the phases w t_k x, shape
    (k, |A|, live), at the first ``live`` frequencies of omega.

    The taps are blocked by the length of the whole grid, at most _CF_BLOCK
    phases over it, which keeps the leading values of a product over the
    blocks bit for bit those of a product over every frequency.
    """
    block = max(1, _CF_BLOCK // (atoms.size * omega.size))
    for i in range(0, taps.size, block):
        t = taps[i : i + block]
        yield t, np.multiply.outer(np.multiply.outer(t, atoms), omega[:live])


def _char_fn(taps, atoms, probs, sigma: float, omega: np.ndarray) -> np.ndarray:
    """Phi(w) = exp(-sigma^2 w^2 / 2) prod_k E e^{i w t_k x} at the ascending
    frequencies w >= 0, the per-tap factors multiplied in over the live
    frequencies of _live, in the tap blocks of _tap_phases.
    """
    gauss, live = _live(sigma, omega)
    phi = gauss.astype(complex)
    head = phi[:live]
    for _, arg in _tap_phases(np.asarray(taps, dtype=float), atoms, omega, live):
        # (k, |A|, w) -> (k, w): each tap's E e^{i w t x}, then their product
        head *= (probs @ np.cos(arg) + 1j * (probs @ np.sin(arg))).prod(axis=0)
    return phi


def _invert(phi: np.ndarray, omega: np.ndarray, start: float, dy: float, n: int) -> np.ndarray:
    """p(start + k dy), k < n, by inverting Phi on the grid's frequencies.

    p(y) = (1/(n dy)) sum_j Phi(w_j) e^{-i w_j y} over all n frequencies;
    Phi(-w) = conj Phi(w), so the sum is real and irfft takes it from the
    nonnegative half.
    """
    return np.fft.irfft(np.conj(phi) * np.exp(1j * omega * start), n) / dy


def _output_char_fns(taps1, atoms, probs, sigma: float, pps: int = _GRID_PPS, pad: float = _GRID_PAD):
    """The grid (lo, dy, n) of y0 = x_0 + sum_k t_k x_k + sigma N, its
    frequencies, and the characteristic functions Phi0 of y0 and Phi1 of
    y1 = y0 - x_0 on them.

    Both share the grid of y0, whose support contains that of y1 for a
    zero-mean input, and Phi0 = Phi1 E e^{i w x}.
    """
    lo, dy, n = _fft_grid(np.concatenate(([1.0], taps1)), atoms, sigma, pps, pad)
    omega = _frequencies(n, dy)
    phi1 = _char_fn(taps1, atoms, probs, sigma, omega)
    phi0 = phi1 * _char_fn(np.ones(1), atoms, probs, 0.0, omega)
    return (lo, dy, n), omega, phi0, phi1


# ---------------------------------------------------------------------------
# exact I_MMSE from the characteristic function

# The grid of the second pass, whose change from the first bounds the
# discretisation error
_REFINED_PPS = 64
_REFINED_PAD = 24.0
# A larger change means the trapezoid sums have not converged (nats)
_REFINE_TOL = 1e-9
# Rounding of I_MMSE on a grid of length L, in units of eps L / sigma
_ROUNDING = 64.0


@dataclass(frozen=True)
class ImmseExact:
    """I_MMSE with a bound on its error and the size of what it computed.

    ``n_components`` counts the Gaussian components of the two mixtures
    whose entropies are taken, |A|^(N+1) and |A|^N for N residual taps, all
    of them represented by their characteristic functions and none pruned.
    ``grid_points`` is the size of the FFT grid the value is read from.
    """

    value: float
    err_bound: float
    n_components: tuple[int, int]  # (with x_0, interference only)
    grid_points: int


def _grid_entropies(taps1, atoms, probs, sigma: float, pps: int, pad: float):
    """(h(y0), h(y1), n, L) of the densities of _output_char_fns on their
    n-point grid of length L, each -dy sum p log p over the points where
    p > 0.

    The sum runs over one period of the densities, which the FFT returns
    periodised with period L, so it is read from y = 0 (start 0, no phase
    factor): where the period starts does not change the sum.
    """
    (_, dy, n), omega, phi0, phi1 = _output_char_fns(taps1, atoms, probs, sigma, pps, pad)
    h = []
    for phi in (phi0, phi1):
        p = _invert(phi, omega, 0.0, dy, n)
        p = p[p > 0.0]
        h.append(-dy * float(p @ np.log(p)))
    return h[0], h[1], n, n * dy


def i_mmse_exact(design: DfeDesign, x: InputDistribution) -> ImmseExact:
    """I(x_0; x_0 + sum alpha_k x_k + m) = h(x_0 + mu_1 + m) - h(mu_1 + m),
    both entropies by the trapezoid rule on one FFT grid.

    The densities come from their characteristic functions, the closed
    form Phi1 = exp(-sigma^2 w^2/2) prod_k E e^{i w alpha_k x} and
    Phi0 = Phi1 E e^{i w x}, inverted once each on the grid of
    _output_char_fns (sigma/32 steps, 16 sigma of padding). Nothing is
    sampled or pruned. On such periodic, decayed analytic integrands the
    trapezoid rule converges geometrically (Trefethen and Weideman, SIAM
    Review 2014), so a second pass on a refined grid (sigma/64 steps, 24
    sigma of padding) differs from the first by its error. A change past
    _REFINE_TOL raises NonConvergent.

    ``err_bound`` is that change plus the rounding of the two entropies,
    _ROUNDING eps L/sigma for the refined grid's length L. The phase
    w alpha_k x of each factor of Phi is rounded to eps of itself, which
    jitters each component's position by eps of its distance from the
    origin, and the FFT adds about eps log2 n of the peak density at every
    point, the empty tails included. Against the same grids evaluated in
    80-bit extended precision, on the presets from -40 to 60 dB and on
    random 2-3-tap channels with 2-4-atom inputs, the difference of the
    entropies moved by at most 12 eps L/sigma. This rounding is common to both
    passes, so their change alone can read 0.

    The refined grid is built first, so that past _GRID_MAX points it
    raises BudgetExceeded before any FFT.
    """
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    fine0, fine1, _, length = _grid_entropies(taps1, atoms, probs, sigma, _REFINED_PPS, _REFINED_PAD)
    h0, h1, n, _ = _grid_entropies(taps1, atoms, probs, sigma, _GRID_PPS, _GRID_PAD)
    change = abs((fine0 - fine1) - (h0 - h1))
    if not change <= _REFINE_TOL:
        raise NonConvergent(f"I_MMSE moved by {change:.3g} nats on the refined grid")
    return ImmseExact(
        value=h0 - h1,
        err_bound=change + _ROUNDING * _EPS * length / sigma,
        n_components=(atoms.size ** (taps1.size + 1), atoms.size**taps1.size),
        grid_points=n,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo I_MMSE via a characteristic-function density table

# Philox words of one block of pattern draws in i_mmse_mc (128 KB)
_MC_BLOCK = 2**14


# Denominators prod_{m != k} (k - m) of the Lagrange weights on the nodes
# -2..3 of _quintic_interp
_LAGRANGE6_DENOM = (-120.0, 24.0, -12.0, 12.0, -24.0, 120.0)


def _quintic_interp(values: np.ndarray, lo: float, dy: float, ys: np.ndarray) -> np.ndarray:
    """The 6-point (quintic) Lagrange interpolant of values on the grid
    lo + k dy at ys.

    With i = floor((y - lo)/dy) clipped to [2, n-4] and t = (y - lo)/dy - i,
    it is the quintic in t through values[i-2..i+3] at t = -2..3, so it
    reproduces any polynomial of degree up to 5 to round-off. Its error is
    O(dy^6), ~1e-11 in log p on the sigma/32 grids of _fft_grid; a 4-point
    cubic's O(dy^4) error there is ~1e-9, about 10x a cubic spline's.
    """
    n = values.size
    u = (ys - lo) / dy
    i = np.clip(np.floor(u), 2, n - 4)
    t = u - i
    j = i.astype(np.intp) - 2
    # weight k is prod_{m != k} (t - m + 2) / denom_k: prefix times suffix
    d = [t - (m - 2.0) for m in range(6)]
    left, right = [1.0], [1.0]
    for m in range(5):
        left.append(left[-1] * d[m])
        right.append(right[-1] * d[5 - m])
    return sum(
        left[k] * right[5 - k] * (values[k : n - 5 + k][j] / _LAGRANGE6_DENOM[k])
        for k in range(6)
    )


class _LogDensityTable:
    """log p(y) on an FFT grid (lo, dy, n), from the density's characteristic
    function Phi at the grid's frequencies, read by 6-point Lagrange
    interpolation (_quintic_interp).

    Grid step sigma/32 and padding 16 sigma put aliasing and truncation
    errors far below double precision. ``audit_err`` compares the
    interpolant with p inverted exactly at the midpoints between every
    n//512-th pair of grid points (``audit_y``, ``audit_logp``), over the
    region holding all but ~1e-12 of the sampling mass. Its ~1e-6 is the
    round-off of that inversion where p is ~1e-10 of its peak; further out
    the table is FFT round-off, and samples land there with ~zero mass.
    """

    def __init__(self, lo: float, dy: float, n: int, phi: np.ndarray):
        self.lo, self.dy, self.hi = lo, dy, lo + n * dy
        omega = _frequencies(n, dy)
        p = _invert(phi, omega, lo, dy, n)
        floor = p.max() * 1e-280
        self._logp = np.log(np.maximum(p, floor))
        # the midpoints lie on the grid shifted by dy/2: one more inversion
        stride = max(1, n // 512)
        self.audit_y = lo + dy * np.arange(n)[:-1:stride] + 0.5 * dy
        direct = _invert(phi, omega, lo + 0.5 * dy, dy, n)[:-1:stride]
        self.audit_logp = np.log(np.maximum(direct, 1e-300))
        mask = self.audit_logp >= self.audit_logp.max() - 23.0
        self.audit_err = float(
            np.max(np.abs(self(self.audit_y[mask]) - self.audit_logp[mask]))
        )

    def __call__(self, ys: np.ndarray) -> np.ndarray:
        if ys.min() < self.lo or ys.max() > self.hi:
            raise ValueError("sample outside density table support")
        return _quintic_interp(self._logp, self.lo, self.dy, ys)


def _density_tables(taps1, atoms, probs, sigma: float):
    """Tables of y0 = x_0 + sum_k t_k x_k + sigma N and of y1 = y0 - x_0, on
    the grid of _output_char_fns."""
    (lo, dy, n), _, phi0, phi1 = _output_char_fns(taps1, atoms, probs, sigma)
    return _LogDensityTable(lo, dy, n, phi0), _LogDensityTable(lo, dy, n, phi1)


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
    given seed. Stream s, ``stream_rng(seed, s)``, gives each of its samples
    one 64-bit Philox word per tap, x_0 first, sample after sample, and then
    that stream's normals: the words of ``random((m, taps + 1))`` followed
    by ``standard_normal(m)``. The words are drawn in blocks of about
    _MC_BLOCK and compared with integer thresholds (_thresholds); with
    I_k the indicator of u > cum_k, the interference is
    a_0 sum t + sum_k (a_{k+1} - a_k) (I_k @ t), and x_0 is formed the same
    way. Memory is O(block + samples per stream), not O(samples x taps).
    ``notes["density_audit_err"]`` is the sum of the two tables'
    ``audit_err``, since each sample's difference reads both tables; past
    1e-2 it raises NonConvergent.
    """
    if n_samples < 10**4:
        raise DomainError("n_samples must be at least 1e4")
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    table0, table1 = _density_tables(taps1, atoms, probs, sigma)
    audit = table0.audit_err + table1.audit_err
    if audit > 1e-2:
        raise NonConvergent(f"density table failed its self-check ({audit:.2e})")
    thresholds = _thresholds(np.cumsum(probs))
    steps = np.diff(atoms)
    width = taps1.size + 1
    rows = max(1, _MC_BLOCK // width)
    indicator = np.empty(rows * width)
    per = n_samples // _MC_STREAMS
    counts = [per + (1 if s < n_samples - per * _MC_STREAMS else 0) for s in range(_MC_STREAMS)]
    total = 0.0
    total_sq = 0.0
    for s, m in enumerate(counts):
        rng = stream_rng(seed, s)
        x0 = np.full(m, atoms[0])
        c = np.full(m, atoms[0] * taps1.sum())
        for start in range(0, m, rows):
            r = min(rows, m - start)
            words = rng.bit_generator.random_raw(r * width).reshape(r, width)
            words >>= 11
            ind = indicator[: r * width].reshape(r, width)
            for thr, step in zip(thresholds, steps):
                np.greater(words, thr, out=ind)
                x0[start : start + r] += step * ind[:, 0]
                c[start : start + r] += step * (ind[:, 1:] @ taps1)
        y1 = c + sigma * rng.standard_normal(m)
        y0 = x0 + y1
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


def _block_mmse(coeffs: np.ndarray, atoms: np.ndarray, probs: np.ndarray, root_snr: float, grid):
    """E Z^2 - E[(E[Z|y])^2] for Z = sum_k c_k x_k observed as y = C + N(0,1),
    C = root_snr Z, on the FFT grid (lo, dy, n) of C + N(0,1) (_fft_grid).

    With t_k = root_snr c_k, the density p of y has the transform
    P(w) = e^{-w^2/2} prod_k f_k(w), f_k(w) = E e^{i w t_k x}, and
    num(y) = E[C | y] p(y) the transform D(w) = e^{-w^2/2} E[C e^{i w C}],
    which the product rule builds tap by tap: D <- D f_k + P g_k, then
    P <- P f_k, with g_k(w) = E[t_k x e^{i w t_k x}]. Both are inverted on
    the grid, and E[(E[Z|y])^2] is the trapezoid sum dy sum p m^2 over the
    points where p > 0, with m = num/p clipped to the range of C, where
    E[C|y] lies, and divided by root_snr. Inverting D directly keeps num
    free of the cancellation of Tweedie's y p + p' at low SNR, the clip
    keeps the FFT's round-off in the empty tails, where both p and num are
    noise, from blowing up in the ratio, and working in units of Z keeps
    E Z^2 from underflowing at a subnormal SNR.
    """
    _, dy, n = grid
    taps = root_snr * coeffs
    omega = _frequencies(n, dy)
    gauss, live = _live(1.0, omega)
    p_hat = gauss.astype(complex)
    d_hat = np.zeros_like(p_hat)
    p_live, d_live = p_hat[:live], d_hat[:live]
    weighted = probs * atoms
    for t, arg in _tap_phases(taps, atoms, omega, live):
        cos, sin = np.cos(arg), np.sin(arg)
        f = probs @ cos + 1j * (probs @ sin)
        g = t[:, None] * (weighted @ cos + 1j * (weighted @ sin))
        for fk, gk in zip(f, g):
            d_live *= fk
            d_live += p_live * gk
            p_live *= fk
    p = _invert(p_hat, omega, 0.0, dy, n)
    num = _invert(d_hat, omega, 0.0, dy, n)
    mask = p > 0.0
    p = p[mask]
    per_tap = np.multiply.outer(taps, atoms)
    mean = np.clip(num[mask] / p, per_tap.min(axis=1).sum(), per_tap.max(axis=1).sum()) / root_snr
    return float(coeffs @ coeffs) * float(probs @ (atoms * atoms)) - dy * float(p @ (mean * mean))


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
    A block with sigma_m = 0 is revealed noiselessly and contributes 0; at
    gamma = 0 a block contributes its variance.

    Each block's MMSE is that of Z_m = sum_{k in m} (a_k / b_m) xbar_k at
    SNR gamma/sigma_m^2, by _block_mmse on one FFT grid (_fft_grid, 1/32
    noise deviation steps, 16 deviations of padding). Nothing is
    enumerated: a block of k taps costs O(k |A| grid) time and O(grid)
    memory, whatever |A|^k. Its rounding grows with the grid's length L
    (in noise deviations) and the largest |Z_m|, about eps L max|Z_m|^2.
    Every block's grid is sized before any FFT, and one past _GRID_MAX
    points, or a block SNR past the double range, raises BudgetExceeded;
    inputs are checked before that, and non-finite coefficients or sigmas,
    or a negative or non-finite gamma, raise DomainError.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma!r}")
    a = np.asarray(coeffs, dtype=float)
    sig2 = np.asarray(sigmas, dtype=float) ** 2
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(sig2))):
        raise DomainError("coefficients and sigmas must be finite")
    if abs(float(a @ a) - 1.0) > 1e-9:
        raise DomainError("coefficients must satisfy sum a_k^2 = 1")
    blocks = [np.asarray(b, dtype=int) for b in partition]
    flat = np.concatenate(blocks) if blocks else np.zeros(0, dtype=int)
    if sorted(flat.tolist()) != list(range(a.size)):
        raise DomainError("partition must cover each tap index exactly once")
    if sig2.size != len(blocks) or np.any(sig2 < 0.0):
        raise DomainError("one sigma per block, all nonnegative")
    b_sq = np.array([float(a[blk] @ a[blk]) for blk in blocks])
    if abs(float(b_sq @ sig2) - 1.0) > 1e-9:
        raise DomainError("noise split must satisfy sum b_m^2 sigma_m^2 = 1")
    xbar = x.normalized_atoms
    probs = np.asarray(x.probs)
    # (Z_m's coefficients, b_m^2, the root of Z_m's SNR) of each block
    # observed in noise
    observed = [
        (a[blk] / math.sqrt(b2), b2, math.sqrt(gamma / float(s2)))
        for blk, b2, s2 in zip(blocks, b_sq, sig2)
        if b2 != 0.0 and s2 != 0.0
    ]
    if gamma == 0.0:
        var = float(probs @ (xbar * xbar)) - float(probs @ xbar) ** 2
        return float(sum(b2 * var for _, b2, _ in observed))
    if any(root == math.inf for _, _, root in observed):
        raise BudgetExceeded("a block's SNR gamma/sigma_m^2 overflows: its grid has no bound")
    grids = [_fft_grid(root * z, xbar, 1.0) for z, _, root in observed]
    return float(
        sum(b2 * _block_mmse(z, xbar, probs, root, grid) for (z, b2, root), grid in zip(observed, grids))
    )


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


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method, step for step SciPy's C
    brentq: the same iterates, the tolerance (xtol + rtol |x|)/2 and the
    iteration cap.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and NonConvergent after maxiter iterations.
    """
    if xtol <= 0.0:
        raise ValueError("xtol must be positive")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x}) is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NonConvergent(f"brentq did not converge in {maxiter} iterations (last {xcur})")


def ie_opt(design: DfeDesign, x: InputDistribution) -> tuple[float, float, float]:
    """Optimized two-parameter bound; returns (value, gamma1*, gamma2*).

    The bound is T1(g1) + T2(g2) over 0 <= g1 <= g2 <= S, with
    T1(g) = I_x(b0 g) - I_x(g) and T2(g) = I_x(g) - (1/2) log(1 + b1 g).
    By the I-MMSE relation 2 T1' = b0 mmse(b0 g) - mmse(g) and
    2 T2' = mmse(g) - b1/(1 + b1 g), and each maximiser below is a root of
    such a derivative where it falls from + to -, or an end of its interval:
    gamma2* maximises T2 on [1e-12 S, S]; if T1 still rises there the
    constraint binds and both move up the diagonal, where
    2 (T1 + T2)' = b0 mmse(b0 g) - b1/(1 + b1 g), on [gamma2*, S]; else
    gamma1* maximises T1 on [1e-12 S, gamma2*]. For b1 >= 1,
    mmse_x(g) <= 1/(1 + g) <= b1/(1 + b1 g), so T2 falls everywhere and the
    diagonal branch is taken. The result is never below the simple point
    (S, S) nor the trivial point (0, 0), whose bound is 0; the latter is
    returned as (0.0, 0.0, 0.0).

    gamma1* is a local maximiser only: with 3-4-atom inputs T1 can have
    several local maxima below gamma2*, and the route stops at the one its
    bracket converges to, up to 4.7e-4 nats short of a dense-grid optimum.
    The value is still a valid lower bound on I_MMSE, since ie_bound is
    one at every feasible (g1, g2).
    """
    s, b0, b1 = design.S, design.beta0_sq, design.beta1_sq
    mm = functools.cache(lambda g: mmse(x, g))
    info = functools.cache(lambda g: mutual_info(x, g))
    # roots to 1e-10 relative; the absolute floor is that of the lowest root
    lo = 1e-12 * s

    def argmax(slope, a: float, b: float) -> float:
        """The maximiser on [a, b] whose derivative has the sign of slope."""
        if slope(b) >= 0.0:
            return b
        if slope(a) <= 0.0:
            return a
        # a bracket from + to - keeps that orientation, so Brent's root is
        # where the slope falls through 0: a local maximum
        return _brentq(slope, a, b, xtol=1e-10 * lo, rtol=1e-10)

    g2 = argmax(lambda g: mm(g) - b1 / (1.0 + b1 * g), lo, s)
    # g1 is sought below g2 only: for skewed inputs the T1 slope changes
    # sign many times in quadrature noise above its first root
    if b0 * mm(b0 * g2) - mm(g2) > 0.0:
        g1 = g2 = argmax(lambda g: b0 * mm(b0 * g) - b1 / (1.0 + b1 * g), g2, s)
    else:
        g1 = argmax(lambda g: b0 * mm(b0 * g) - mm(g), lo, g2)
    # ie_bound's sum, term for term, on the memoised I_x
    value = info(b0 * g1) - info(g1) + info(g2) - 0.5 * math.log1p(b1 * g2)
    # the simple point (S, S), or the trivial point (0, 0) whose bound is 0
    simple = ie_simple(design, x)
    best = (simple, s, s) if simple >= 0.0 else (0.0, 0.0, 0.0)
    value, g1, g2 = (value, g1, g2) if value >= best[0] else best
    return float(value), float(g1), float(g2)


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (channel, input, rho) point, in nats.

    ``i_mmse_err_bound`` is, on the exact route, the bound on the error of
    the value; on the mc route it is the density-table error only, and the
    sampling error is ``i_mmse_std_error``. ``eps0`` is the design's
    beta0^2 S, the expansion variable of the gap series.
    """

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
    eps0: float


def bound_report(
    channel: ChannelResponse,
    x: InputDistribution,
    rho: float,
    i_mmse_method: str,
    n_samples: int = 100_000,
    seed: int = 0,
    include_gap_series: bool = False,
) -> BoundReport:
    """Evaluate every bound at one SNR point.

    ``i_mmse_method`` is "exact", "mc" or "none", and the route asked for
    is the route taken: an "exact" grid over budget raises
    BudgetExceeded. Every bound reads the one spectral factorisation
    behind the DFE design made here.
    """
    if i_mmse_method not in _I_MMSE_METHODS:
        raise DomainError(f"i_mmse_method must be one of {_I_MMSE_METHODS}, not {i_mmse_method!r}")
    design = design_mmse_dfe(channel, x, rho)
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
        eps0=design.eps0,
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
