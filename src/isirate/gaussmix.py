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

The kernel sums p(y) and num(y) at the nodes are evaluated in (nodes x
components) tiles of at most ``_EVAL_BUDGET`` elements, filled in place in
one pair of work buffers that each integral allocates once and reuses
across its levels. A mixture integral therefore holds O(tile + nodes +
components) memory, never a kernel matrix over a whole node block. Where
the components within reach of a node block fit one tile (every input
alphabet of I_x and mmse_x), the sums are those of one kernel matrix bit
for bit; where they span several tiles, the split changes the order of
summation and values differ from a one-matrix sum in the last digits
(about 1e-15 relative). The tiles are the one kernel route: the library's
mixtures are the 2-4-atom laws of I_x and mmse_x, and the sums of many
taps (the I_MMSE densities, the genie bound's blocks) are taken from their
characteristic functions in isirate.bounds instead.
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

# Mixture integrals: trapezoid steps sigma/2, sigma/4, ..., sigma/1024,
# agreement to 1e-12 relative or to the absolute floor of each integrand.
_MIXTURE_LEVELS = 10
_MIXTURE_REL_TOL = 1e-12
_ENTROPY_ABS_TOL = 1e-13
_MOMENT_ABS_TOL = 1e-14


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
    evaluator=None,
) -> tuple[float, float]:
    """(integral, err) of integrand(p, num) where p > 0, for the mixture p
    and num(y) = sum_j v_j w_j N(y; c_j, sigma^2) (None without ``values``),
    by the nested trapezoid rule of the module docstring over
    _MIXTURE_LEVELS levels. Means already in ascending order are used as
    given, without a sorted copy of the mixture. The kernel sums come from
    ``evaluator``, which takes the arguments of _mixture_evaluator and
    defaults to it, the tiles."""
    if np.any(means[1:] < means[:-1]):
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        values = None if values is None else values[order]
    lo = means[0] - _TAIL_SIGMAS * sigma
    hi = means[-1] + _TAIL_SIGMAS * sigma
    n0 = int(np.ceil((hi - lo) / (0.5 * sigma)))
    step0 = (hi - lo) / n0

    evaluate = (evaluator or _mixture_evaluator)(means, weights, sigma, values)

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
