"""Quadrature over finite Gaussian mixtures.

Everything here works on a one-dimensional density

    p(y) = sum_j w_j * N(y; c_j, sigma^2)

with a common sigma. A mixture integral is the trapezoid rule on a uniform
grid over [min c - 10 sigma, max c + 10 sigma], where the integrand has
decayed to about e^-50: the step starts at or below sigma/2 (the only
smoothness scale of the integrand) and halves at each level. On such
decayed analytic integrands the trapezoid rule converges geometrically
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 2014), and its levels nest: each level evaluates only the
midpoints it adds and keeps a running node sum. Every integral here runs
through one refine-until-agree loop, ``_refine``, until two successive
estimates agree; the last difference is the error estimate. The entropy
and the conditional second moment differ only in their integrands,
-p log p and num^2/p. Components further than ``_WINDOW_SIGMAS`` standard
deviations from an evaluation block are skipped; each contributes below
e^-98 of the kernel peak per unit of its weight, which is below 1e-40 of
the local density within the means' span, though in the far tail beyond
it, where the density itself is below e^-50 of the peak, the skipped part
can reach 1e-10 of it.

The kernel sums p(y) and num(y) at the nodes take one of two routes, a
count chosen by ``kernel_route``: the Hermite expansion when the mixture
has more components than the expansion has coefficients, and tiles
otherwise. Every mixture of I_x and mmse_x (2-4 atoms) is on the tiles;
the expansion serves the block mixtures of the genie bound
(bounds.genie_mmse_lower), of up to |A|^k components for a block of k taps.

Tiles evaluate the Gaussian kernel in (nodes x components) tiles of at
most ``_EVAL_BUDGET`` elements, filled in place in one pair of work buffers
that each integral allocates once and reuses across its levels. A mixture
integral therefore holds O(tile + nodes + components) memory, never a
kernel matrix over a whole node block. Where the components within reach
of a node block fit one tile (every input alphabet of I_x and mmse_x), the
sums are those of one kernel matrix bit for bit; where they span several
tiles, the split changes the order of summation and values differ from a
one-matrix sum in the last digits (about 1e-15 relative).

The Hermite expansion is the fast Gauss transform's (Greengard and
Strain, SIAM J. Sci. Stat. Comput. 12, 1991): the sorted means fall into
occupied boxes of width 2 r sqrt(2) sigma, r = ``_HERMITE_RADIUS`` = 0.025,
each summed into p = ``_HERMITE_ORDER`` = 16 moments, so a node costs
O(p x boxes in reach) instead of O(components in reach), and the whole
sum O(N p + nodes x boxes x p) instead of O(N x nodes). The terms it drops
sum to at most K (sqrt2 r)^p / sqrt(p!) / (1 - sqrt2 r / sqrt(p + 1)),
K < 1.09 (Cramer's inequality), per unit mass relative to the kernel
peak: 1.4e-30. What limits it is rounding, as on the tiles: a value near
e^-E of the peak comes from exp of an exponent near -E, so it is good to
about E eps relative, and the narrow boxes keep the series' own
conditioning, e^(4 |t| r) at t = (y - box)/(sqrt2 sigma), at most 2.7
inside the window. The tests hold both routes to that error model
against one kernel matrix per node block: 16 eps (1 + log(peak / p)) p.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergent

_WINDOW_SIGMAS = 14.0
_TAIL_SIGMAS = 10.0
_NODE_BLOCK = 512
# Elements per kernel tile (512 KB of float64), so that both work buffers
# stay in a 2 MB per-core L2 cache. On a 2-vCPU Xeon the low-SNR mixtures
# ran as fast with 2^15 and 2^16, 1.2x slower with 2^17, 1.5x with 2^18.
_EVAL_BUDGET = 2**16
# Hermite expansion: boxes of half-width r sqrt(2) sigma, p coefficients
# per box, and components per block of the moment pass (256 KB of float64).
# Cramer's inequality |H_n(t)| exp(-t^2/2) <= K 2^(n/2) sqrt(n!), K < 1.09,
# bounds the dropped terms n >= p per unit mass by
# K (sqrt2 r)^p / sqrt(p!) / (1 - sqrt2 r / sqrt(p + 1)).
_HERMITE_RADIUS = 0.025
_HERMITE_ORDER = 16
_MOMENT_BLOCK = 2**15

# Mixture integrals: trapezoid steps sigma/2, sigma/4, ..., sigma/1024,
# agreement to 1e-12 relative or to the absolute floor of each integrand.
_MIXTURE_LEVELS = 10
_MIXTURE_REL_TOL = 1e-12
_ENTROPY_ABS_TOL = 1e-13
_MOMENT_ABS_TOL = 1e-14
# Atoms closer than this, relative to max(1, largest |value|), are merged.
_ATOM_TOL = 1e-12


def _mixture_evaluator(
    means_sorted: np.ndarray,
    weights_sorted: np.ndarray,
    sigma: float,
    value_coeff: np.ndarray | None = None,
):
    """The kernel of every mixture integral: returns ``evaluate(nodes)``,
    which gives ``(p, num)`` at ascending nodes, p(y) = sum_j w_j N(y; c_j,
    s^2) and num(y) = sum_j v_j w_j N(y; c_j, s^2) (None without
    ``value_coeff``).

    Means must be sorted ascending, with ``value_coeff`` aligned to them
    when given. The coefficients and one pair of work buffers, of at most
    _EVAL_BUDGET elements each, are made here once; ``evaluate`` fills each
    (nodes x components) tile of the kernel in place, so it allocates only
    its result and one vector of sums per tile and coefficient.
    """
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    neg_inv2s2 = -1.0 / (2.0 * sigma * sigma)
    window = _WINDOW_SIGMAS * sigma
    coef = [weights_sorted]
    if value_coeff is not None:
        coef.append(value_coeff * weights_sorted)
    budget = _EVAL_BUDGET
    rows = min(_NODE_BLOCK, budget)
    size = min(budget, rows * means_sorted.size)
    d_buf = np.empty(size)
    k_buf = np.empty(size)

    def evaluate(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        out = np.zeros((len(coef), nodes.size))
        for start in range(0, nodes.size, rows):
            blk = nodes[start : start + rows, None]
            nb = blk.shape[0]
            acc = out[:, start : start + nb]
            j0 = means_sorted.searchsorted(float(blk[0, 0]) - window)
            j1 = means_sorted.searchsorted(float(blk[-1, 0]) + window)
            step = budget // nb
            for c0 in range(j0, j1, step):
                c1 = min(c0 + step, j1)
                d = d_buf[: nb * (c1 - c0)].reshape(nb, c1 - c0)
                k = k_buf[: d.size].reshape(d.shape)
                np.subtract(blk, means_sorted[c0:c1], out=d)
                np.multiply(d, neg_inv2s2, out=k)
                k *= d
                np.exp(k, out=k)
                for row, c in zip(acc, coef):
                    row += k @ c[c0:c1]
        out *= norm
        return out[0], (None if value_coeff is None else out[1])

    return evaluate


def _hermite_evaluator(
    means_sorted: np.ndarray,
    weights_sorted: np.ndarray,
    sigma: float,
    value_coeff: np.ndarray | None = None,
):
    """The kernel sums of _mixture_evaluator, ``evaluate(nodes) -> (p,
    num)``, by the Hermite expansion of the fast Gauss transform
    (Greengard and Strain, SIAM J. Sci. Stat. Comput. 12, 1991).

    With h = sqrt(2) sigma, the sorted means fall into occupied boxes of
    width 2 r h (r = _HERMITE_RADIUS); a box centred at b holds the
    components with |d_j| <= r, d_j = (c_j - b)/h, and the moments
    A_n = sum_j w_j d_j^n / n!, n < p = _HERMITE_ORDER. Since
    exp(-(t - d)^2) = exp(-t^2) sum_n H_n(t) d^n / n!, a node y sees the
    box as exp(-t^2) sum_n A_n H_n(t), t = (y - b)/h, with H_n from the
    three-term recurrence. By Cramer's inequality the terms n >= p sum to
    at most 1.4e-30 per unit of box mass, relative to the kernel's peak
    (the bound is given where _HERMITE_RADIUS is set). The moments are
    accumulated over blocks of _MOMENT_BLOCK components, so nothing is
    allocated over the span or the whole mixture but the (at most N)
    boxes; ``evaluate`` works in (nodes x boxes) tiles of _EVAL_BUDGET / 2
    elements and skips boxes whose centre lies further than
    _WINDOW_SIGMAS sigma (plus half a box) from a node block.
    """
    h = math.sqrt(2.0) * sigma
    width = 2.0 * _HERMITE_RADIUS * h
    origin = float(means_sorted[0])
    order = _HERMITE_ORDER
    keys, moments = [], []
    for c0 in range(0, means_sorted.size, _MOMENT_BLOCK):
        c = means_sorted[c0 : c0 + _MOMENT_BLOCK]
        key = np.floor((c - origin) / width)
        starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        d = c - (origin + (key + 0.5) * width)
        d /= h
        w = weights_sorted[c0 : c0 + c.size]
        powers = [w.copy()] if value_coeff is None else [w.copy(), value_coeff[c0 : c0 + c.size] * w]
        a = np.empty((len(powers), order, starts.size))
        for n in range(order):
            for k, pw in enumerate(powers):
                if n:
                    pw *= d
                np.add.reduceat(pw, starts, out=a[k, n])
        keys.append(key[starts])
        moments.append(a)
    key = np.concatenate(keys)
    # a box cut by a block edge appears once per block: merge its parts
    starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    a = np.add.reduceat(np.concatenate(moments, axis=2), starts, axis=2)
    a /= np.array([math.factorial(n) for n in range(order)])[:, None]
    centres = origin + (key[starts] + 0.5) * width
    coef = list(a)
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    reach = _WINDOW_SIGMAS * sigma + 0.5 * width
    budget = _EVAL_BUDGET // 2
    rows = min(_NODE_BLOCK, budget)
    size = min(budget, rows * centres.size)
    t_buf, g_buf, f_buf, s_buf = (np.empty(size) for _ in range(4))

    def evaluate(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        out = np.zeros((len(coef), nodes.size))
        for start in range(0, nodes.size, rows):
            blk = nodes[start : start + rows, None]
            nb = blk.shape[0]
            acc = out[:, start : start + nb]
            b0 = centres.searchsorted(float(blk[0, 0]) - reach)
            b1 = centres.searchsorted(float(blk[-1, 0]) + reach)
            step = budget // nb
            for k0 in range(b0, b1, step):
                k1 = min(k0 + step, b1)
                t2 = t_buf[: nb * (k1 - k0)].reshape(nb, k1 - k0)
                prev, cur, tmp = (buf[: t2.size].reshape(t2.shape) for buf in (g_buf, f_buf, s_buf))
                # y - c rounds relative to itself, not to |y| or |c|
                np.subtract(blk, centres[k0:k1], out=t2)
                t2 *= 2.0 / h
                # prev = exp(-t^2) H_0(t), cur = exp(-t^2) H_1(t)
                np.multiply(t2, t2, out=prev)
                prev *= -0.25
                np.exp(prev, out=prev)
                np.multiply(t2, prev, out=cur)
                for row, c in zip(acc, coef):
                    row += prev @ c[0, k0:k1]
                    row += cur @ c[1, k0:k1]
                for n in range(2, order):
                    # H_n = 2t H_{n-1} - 2(n-1) H_{n-2}, into prev's buffer
                    np.multiply(t2, cur, out=tmp)
                    prev *= 2.0 * (n - 1)
                    np.subtract(tmp, prev, out=prev)
                    prev, cur = cur, prev
                    for row, c in zip(acc, coef):
                        row += cur @ c[n, k0:k1]
        out *= norm
        return out[0], (None if value_coeff is None else out[1])

    return evaluate


def kernel_route(n_components: int, span: float, sigma: float) -> str:
    """The kernel route of a mixture of ``n_components`` Gaussians of
    deviation sigma whose means span ``span``: ``"hermite"`` when the
    components outnumber the coefficients of the Hermite expansion,
    _HERMITE_ORDER times the boxes of width 2 _HERMITE_RADIUS sqrt(2) sigma
    that the span covers, and ``"tiles"`` otherwise."""
    boxes = span / (2.0 * _HERMITE_RADIUS * math.sqrt(2.0) * sigma)
    # the first test keeps an infinite box count out of floor
    if boxes < n_components and n_components > _HERMITE_ORDER * (math.floor(boxes) + 1):
        return "hermite"
    return "tiles"


def _refine(estimate, levels: int, rel_tol: float, abs_tol: float) -> tuple[float, float]:
    """The one refine-until-agree loop: ``estimate(k)`` for k = 0, 1, ...
    below ``levels``, until two successive estimates agree within
    max(abs_tol, rel_tol |est|). Returns ``(est, |est - prev|)``; raises
    NonConvergent, with the last estimate, if no pair agrees."""
    prev = None
    for level in range(levels):
        est = estimate(level)
        if prev is not None:
            delta = abs(est - prev)
            if delta <= max(abs_tol, rel_tol * abs(est)):
                return est, delta
        prev = est
    raise NonConvergent(f"quadrature did not converge (last estimate {prev!r})")


def _mixture_integral(
    means: np.ndarray,
    weights: np.ndarray,
    sigma: float,
    integrand,
    abs_tol: float,
    values: np.ndarray | None = None,
) -> tuple[float, float]:
    """(integral, err) of integrand(p, num) where p > 0, for the mixture p
    and num(y) = sum_j v_j w_j N(y; c_j, sigma^2) (None without ``values``),
    by the nested trapezoid rule of the module docstring over
    _MIXTURE_LEVELS levels. Means already in ascending order are used as
    given, without a sorted copy of the mixture. The kernel sums take the
    route of kernel_route."""
    if np.any(means[1:] < means[:-1]):
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        values = None if values is None else values[order]
    route = kernel_route(means.size, float(means[-1] - means[0]), sigma)
    lo = means[0] - _TAIL_SIGMAS * sigma
    hi = means[-1] + _TAIL_SIGMAS * sigma
    n0 = int(np.ceil((hi - lo) / (0.5 * sigma)))
    step0 = (hi - lo) / n0

    kernel = _hermite_evaluator if route == "hermite" else _mixture_evaluator
    evaluate = kernel(means, weights, sigma, values)

    def f(nodes: np.ndarray) -> np.ndarray:
        p, num = evaluate(nodes)
        mask = p > 0.0
        out = np.zeros_like(p)
        out[mask] = integrand(p[mask], None if num is None else num[mask])
        return out

    node_sum = 0.0

    def estimate(level: int) -> float:
        nonlocal node_sum
        if level == 0:
            vals = f(lo + step0 * np.arange(n0 + 1))
            node_sum = float(vals.sum()) - 0.5 * float(vals[0] + vals[-1])
            return node_sum * step0
        step = step0 / 2**level
        node_sum += float(f(lo + step * np.arange(1, 2 * n0 * 2 ** (level - 1), 2)).sum())
        return node_sum * step

    return _refine(estimate, _MIXTURE_LEVELS, _MIXTURE_REL_TOL, abs_tol)


def _checked_mixture(means, weights, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Means and weights as flat float arrays; raises DomainError unless
    sigma is positive and finite and the mixture is nonempty, with finite
    means and weights, one weight per mean."""
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    means = np.asarray(means, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if means.size == 0 or means.size != weights.size:
        raise DomainError(
            f"a mixture needs one weight per mean and at least one of each, "
            f"got {means.size} means and {weights.size} weights"
        )
    # min and max propagate NaN, so these read every entry without a copy
    for name, arr in (("means", means), ("weights", weights)):
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise DomainError(f"mixture {name} must be finite")
    return means, weights


def mixture_entropy(means, weights, sigma: float) -> tuple[float, float]:
    """Differential entropy (nats) of the mixture, with an error estimate.

    Returns ``(h, err)`` where ``err`` is the last inter-refinement
    difference. Raises DomainError for a mixture _checked_mixture refuses,
    NonConvergent if step halving stalls.
    """
    means, weights = _checked_mixture(means, weights, sigma)
    return _mixture_integral(means, weights, sigma, lambda p, _: -p * np.log(p), _ENTROPY_ABS_TOL)


def mixture_conditional_second_moment(values, weights, gamma: float) -> float:
    """E[(E[z|y])^2] for discrete z observed as y = sqrt(gamma) z + N(0,1).

    ``values``/``weights`` describe the law of z. The returned quantity
    gives the MMSE through E z^2 - E[(E[z|y])^2]. Raises DomainError unless
    gamma is nonnegative and finite and the law is one _checked_mixture
    accepts.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma!r}")
    vals, wts = _checked_mixture(values, weights, 1.0)
    second, _ = _mixture_integral(
        np.sqrt(gamma) * vals, wts, 1.0, lambda p, num: num * num / p, _MOMENT_ABS_TOL, vals
    )
    return second


def consolidate_atoms(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate atoms (within _ATOM_TOL of the largest |value|, or
    of 1) of a discrete law."""
    vals = np.asarray(values, dtype=float).ravel()
    wts = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    scale = max(1.0, np.abs(vals).max(initial=0.0))
    new_group = np.ones(vals.size, dtype=bool)
    new_group[1:] = np.diff(vals) > _ATOM_TOL * scale
    group = np.cumsum(new_group) - 1
    n = group[-1] + 1 if vals.size else 0
    merged_w = np.zeros(n)
    np.add.at(merged_w, group, wts)
    merged_v = np.zeros(n)
    np.add.at(merged_v, group, vals * wts)
    merged_v /= merged_w
    return merged_v, merged_w
