import math

import numpy as np
import pytest

import isirate.gaussmix
from isirate.bounds import _CF_BLOCK, _MC_STREAMS, _density_tables
from isirate.channel import ChannelResponse, transfer_power
from isirate.errors import BudgetExceeded, DomainError, NonConvergent
from isirate.gaussmix import (
    _ENTROPY_ABS_TOL,
    _MOMENT_ABS_TOL,
    _NODE_BLOCK,
    _TAIL_SIGMAS,
    _WINDOW_SIGMAS,
    _mixture_evaluator,
    _mixture_integral,
    _refine,
)
from isirate.montecarlo import stream_rng
from isirate.scalar import mutual_info


def random_unit_channel(rng: np.random.Generator, max_len: int = 6) -> ChannelResponse:
    """Random unit-energy FIR channel with 1..max_len taps."""
    length = int(rng.integers(1, max_len + 1))
    taps = rng.standard_normal(length)
    while not taps.any():
        taps = rng.standard_normal(length)
    return ChannelResponse(tuple(taps / np.sqrt(taps @ taps)))


def mean_over_theta(f, rel_tol: float = 1e-10) -> float:
    """Mean of f(theta) over [-pi, pi] by midpoint-rule grid doubling from
    512 to 2^21 points: the theta-quadrature oracle for the closed forms."""
    prev = None
    n = 512
    while n <= 2**21:
        theta = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
        vals = f(theta)
        if not np.all(np.isfinite(vals)):
            # a sample collided with a spectral null; shift the grid
            theta = theta + 0.5 * np.pi / n
            vals = f(theta)
        est = float(np.mean(vals))
        if prev is not None and abs(est - prev) <= rel_tol * max(abs(est), 1e-300):
            return est
        prev = est
        n *= 2
    raise NonConvergent("theta quadrature did not reach tolerance")


def quadrature_summary(ch: ChannelResponse, rho: float) -> tuple[float, float, float]:
    """(gaussian_rate, beta1_sq, S) by theta quadrature: an oracle for the
    spectral factorisation and the tap-domain summaries that shares no
    code with either.

    With d = exp<log(1 + rho |H|^2)> and e = 1/<1/(1 + rho |H|^2)>:
    beta1_sq = (d/e - 1)/(d - 1)^2 and S = (d - 1)^2 e/(d (e - 1)).
    d/e - 1 cancels at low SNR, to ~1e-8 relative near -40 dB.
    """
    power = lambda th: transfer_power(ch, th)
    rate = mean_over_theta(lambda th: np.log1p(rho * power(th)), rel_tol=1e-13)
    e = 1.0 / mean_over_theta(lambda th: 1.0 / (1.0 + rho * power(th)), rel_tol=1e-13)
    d = float(np.exp(rate))
    return rate, (d / e - 1.0) / (d - 1.0) ** 2, (d - 1.0) ** 2 * e / (d * (e - 1.0))


def event_distance_sq(channel: ChannelResponse, errors) -> float:
    """delta^2 of one normalized error sequence, ||e * h||^2: the
    brute-force oracle of the error-event search."""
    conv = np.convolve(np.asarray(errors, dtype=float), np.asarray(channel.taps))
    return float(conv @ conv)


def forward_log_likelihood(y, trellis, n0: float, renorm_every: int = 1) -> float:
    """log p(y_1^n) by the sequential normalized forward recursion: one
    step per symbol, scattering every branch into its successor. The oracle
    of the batched trellis kernels; its result is invariant to the
    renormalization schedule."""
    n_states, n_atoms = trellis.outputs.shape
    # stationary i.i.d. law over states: digit i of s is the input index at
    # delay i + 1
    state_p = np.ones(n_states)
    s = np.arange(n_states)
    for _ in range(round(math.log(n_states, n_atoms)) if n_states > 1 else 0):
        state_p *= trellis.probs[s % n_atoms]
        s //= n_atoms
    coef = 1.0 / math.sqrt(2.0 * math.pi * n0)
    flat_next = trellis.next_state.ravel()
    weights = np.repeat(trellis.probs[None, :], n_states, axis=0).ravel()
    outputs = trellis.outputs.ravel()
    log_p = 0.0
    for k, yk in enumerate(y):
        like = coef * np.exp(-0.5 * (yk - outputs) ** 2 / n0)
        contrib = np.repeat(state_p, n_atoms) * weights * like
        state_p = np.zeros(n_states)
        np.add.at(state_p, flat_next, contrib)
        if (k + 1) % renorm_every == 0:
            scale = state_p.sum()
            log_p += math.log(scale)
            state_p /= scale
    total = state_p.sum()
    return log_p + (math.log(total) if total > 0.0 else -math.inf)


def char_fn_full_grid(taps, atoms, probs, sigma: float, omega: np.ndarray) -> np.ndarray:
    """Phi(w) = exp(-sigma^2 w^2 / 2) prod_k E e^{i w t_k x}, every per-tap
    factor multiplied in at every frequency, in blocks of taps sized by the
    whole grid: the oracle of the library's _char_fn."""
    taps = np.asarray(taps, dtype=float)
    phi = np.exp(-0.5 * (sigma * omega) ** 2).astype(complex)
    block = max(1, _CF_BLOCK // (atoms.size * omega.size))
    for i in range(0, taps.size, block):
        arg = np.multiply.outer(np.multiply.outer(taps[i : i + block], atoms), omega)
        phi *= (probs @ np.cos(arg) + 1j * (probs @ np.sin(arg))).prod(axis=0)
    return phi


def mixture_eval_dense(nodes, means_sorted, weights_sorted, sigma: float, value_coeff=None):
    """(p, num) at ascending nodes, p(y) = sum_j w_j N(y; c_j, s^2) and
    num(y) = sum_j v_j w_j N(y; c_j, s^2) (None without ``value_coeff``):
    one kernel matrix per block of _NODE_BLOCK nodes over the components
    within _WINDOW_SIGMAS of the block, up to 2^23 elements (64 MB) each.
    The oracle of the library's cache-sized, in-place tiles."""
    p = np.zeros_like(nodes)
    num = np.zeros_like(nodes) if value_coeff is not None else None
    window = _WINDOW_SIGMAS * sigma
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    for start in range(0, nodes.size, _NODE_BLOCK):
        blk = nodes[start : start + _NODE_BLOCK]
        sl = slice(start, start + blk.size)
        j0 = np.searchsorted(means_sorted, blk[0] - window)
        j1 = np.searchsorted(means_sorted, blk[-1] + window)
        comp_chunk = max(1, 2**23 // blk.size)
        for c0 in range(j0, j1, comp_chunk):
            c1 = min(c0 + comp_chunk, j1)
            d = blk[:, None] - means_sorted[None, c0:c1]
            kern = np.exp(-inv2s2 * d * d)
            p[sl] += norm * (kern @ weights_sorted[c0:c1])
            if num is not None:
                num[sl] += norm * (kern @ (value_coeff[c0:c1] * weights_sorted[c0:c1]))
    return p, num


def sample_indices(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Atom indices of uniforms u under the cumulative probabilities cum.

    Counts the entries of cum[:-1] below u: searchsorted(cum, u) bit for
    bit, except that a u above a rounded cum[-1] < 1 maps to the last atom
    instead of one past it. The oracle of the library's map from Philox
    words to atoms, montecarlo._thresholds.
    """
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(cum.size - 1))
    for c in cum[:-1]:
        idx += u > c
    return idx


def i_mmse_mc_one_shot(design, x, n_samples: int, seed: int) -> tuple[float, float]:
    """(value, std_error) of the MC I_MMSE with each stream's patterns drawn
    in one piece: ``random((m, taps + 1))`` uniforms mapped to atoms by
    searchsorted, then ``standard_normal(m)``. The oracle of the block
    sampler of i_mmse_mc, which must draw the same patterns and normals."""
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    table0, table1 = _density_tables(taps1, atoms, probs, sigma)
    cum = np.cumsum(probs)
    per = n_samples // _MC_STREAMS
    counts = [per + (1 if s < n_samples - per * _MC_STREAMS else 0) for s in range(_MC_STREAMS)]
    d = []
    for s, m in enumerate(counts):
        rng = stream_rng(seed, s)
        vals = atoms.take(sample_indices(rng.random((m, taps1.size + 1)), cum))
        y1 = vals[:, 1:] @ taps1 + sigma * rng.standard_normal(m)
        d.append(table1(y1) - table0(vals[:, 0] + y1))
    d = np.concatenate(d)
    mean = float(d.sum()) / n_samples
    var = (float(d @ d) - n_samples * mean * mean) / (n_samples - 1)
    return mean, math.sqrt(max(var, 0.0) / n_samples)


# I_MMSE by enumerating the interference mixtures: the oracle of the
# library's characteristic-function route. It keeps at most ENUM_BUDGET
# components per mixture and prunes at most PRUNE_MASS of their mass, and
# sorts at most CLASS_CAP atom-count classes (8 MB per class array).
ENUM_BUDGET = 2**24
CLASS_CAP = 2**20
PRUNE_MASS = 1e-12


def weight_floor(probs: np.ndarray, n_steps: int, mass_budget: float) -> tuple[float, float, float]:
    """(log floor, log of the patterns kept, mass dropped) of the patterns
    of n_steps i.i.d. atoms whose weight reaches a floor.

    Patterns with the same atom counts k (sum k = n_steps) share the weight
    prod p_a^k_a, so the C(n_steps + |A| - 1, |A| - 1) count classes are
    sorted by weight, and classes within 1e-9 of each other in log weight
    form one group. Groups are dropped whole, lightest first, while their
    mass fits mass_budget; the floor is the log weight of the lightest
    class kept. The count is kept as a log, since 2^1000 patterns overflow
    a double. Raises BudgetExceeded past CLASS_CAP classes, which are not
    counted.
    """
    from scipy.special import gammaln

    n_classes = math.comb(n_steps + probs.size - 1, probs.size - 1)
    if n_classes > CLASS_CAP:
        raise BudgetExceeded(f"mixture of {n_steps} taps has {n_classes} weight classes, more than {CLASS_CAP}")
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(probs.size - 1):
        reps = n_steps - counts.sum(axis=1) + 1
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([np.repeat(counts, reps, axis=0), k])
    counts = np.column_stack([counts, n_steps - counts.sum(axis=1)])
    log_w = counts @ np.log(probs)
    log_n = gammaln(n_steps + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    order = np.argsort(log_w, kind="stable")
    log_w, log_n = log_w[order], log_n[order]
    cum = np.cumsum(np.exp(log_w + log_n))
    # the last class of each group, and the groups whose mass, with that of
    # every lighter group, fits the budget
    last = np.flatnonzero(np.append(np.diff(log_w) > 1e-9, True))
    n_dropped = int(np.searchsorted(cum[last], mass_budget, side="right"))
    first = int(last[n_dropped - 1]) + 1 if n_dropped else 0
    dropped = float(cum[first - 1]) if first else 0.0
    return float(log_w[first]), float(np.logaddexp.reduce(log_n[first:])), dropped


def enumerate_mixture(taps, atoms, probs, budget: int, mass_budget: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The interference patterns at or above the weight floor of
    weight_floor, as (means ascending, weights renormalised, dropped mass).

    A partial pattern is kept iff its weight times p_max^(taps left)
    reaches the floor, so exactly the patterns of the kept classes are
    enumerated, and no intermediate array outgrows their count. That count
    is known before the enumeration starts, which raises BudgetExceeded
    when it exceeds ``budget``.
    """
    n_steps = taps.size
    log_floor, log_keep, dropped = weight_floor(probs, n_steps, mass_budget)
    if log_keep > math.log(budget):
        raise BudgetExceeded(f"mixture needs 10^{log_keep / math.log(10):.4g} components, more than {budget}")
    # half the 1e-9 grouping gap below the floor: round-off in the products
    # cannot move a pattern across it
    log_floor -= 5e-10
    log_p_max = math.log(probs.max())
    means = np.zeros(1)
    w = np.ones(1)
    for left, t in zip(range(n_steps - 1, -1, -1), taps):
        least = math.exp(log_floor - left * log_p_max)
        keep = [w * p >= least for p in probs]
        means = np.concatenate([means[k] + t * a for a, k in zip(atoms, keep)])
        w = np.concatenate([w[k] * p for p, k in zip(probs, keep)])
    order = np.argsort(means, kind="stable")
    w = w[order]
    return means[order], w / w.sum(), dropped


# Sums of Gaussian kernels by the Hermite expansion of the fast Gauss
# transform: the oracle's route for mixtures of many components, which the
# library takes from characteristic functions instead. Boxes of half-width
# r sqrt(2) sigma, p coefficients per box, and components per block of the
# moment pass (256 KB of float64). Cramer's inequality
# |H_n(t)| exp(-t^2/2) <= K 2^(n/2) sqrt(n!), K < 1.09, bounds the dropped
# terms n >= p per unit mass by
# K (sqrt2 r)^p / sqrt(p!) / (1 - sqrt2 r / sqrt(p + 1)).
HERMITE_RADIUS = 0.025
HERMITE_ORDER = 16
MOMENT_BLOCK = 2**15


def hermite_evaluator(
    means_sorted: np.ndarray,
    weights_sorted: np.ndarray,
    sigma: float,
    value_coeff: np.ndarray | None = None,
):
    """The kernel sums of _mixture_evaluator, ``evaluate(nodes) -> (p,
    num)``, by the Hermite expansion of the fast Gauss transform
    (Greengard and Strain, SIAM J. Sci. Stat. Comput. 12, 1991).

    With h = sqrt(2) sigma, the sorted means fall into occupied boxes of
    width 2 r h (r = HERMITE_RADIUS); a box centred at b holds the
    components with |d_j| <= r, d_j = (c_j - b)/h, and the moments
    A_n = sum_j w_j d_j^n / n!, n < p = HERMITE_ORDER. Since
    exp(-(t - d)^2) = exp(-t^2) sum_n H_n(t) d^n / n!, a node y sees the
    box as exp(-t^2) sum_n A_n H_n(t), t = (y - b)/h, with H_n from the
    three-term recurrence. By Cramer's inequality the terms n >= p sum to
    at most 1.4e-30 per unit of box mass, relative to the kernel's peak
    (the bound is given where HERMITE_RADIUS is set). The moments are
    accumulated over blocks of MOMENT_BLOCK components, so nothing is
    allocated over the span or the whole mixture but the (at most N)
    boxes; ``evaluate`` works in (nodes x boxes) tiles of half the
    library's tile budget and skips boxes whose centre lies further than
    _WINDOW_SIGMAS sigma (plus half a box) from a node block. What limits
    it is rounding, as on the tiles: a value near e^-E of the kernel peak
    comes from exp of an exponent near -E, so it is good to about E eps
    relative, and the narrow boxes keep the series' own conditioning,
    e^(4 |t| r), at most 2.7 inside the window.
    """
    h = math.sqrt(2.0) * sigma
    width = 2.0 * HERMITE_RADIUS * h
    origin = float(means_sorted[0])
    order = HERMITE_ORDER
    keys, moments = [], []
    for c0 in range(0, means_sorted.size, MOMENT_BLOCK):
        c = means_sorted[c0 : c0 + MOMENT_BLOCK]
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
    budget = isirate.gaussmix._EVAL_BUDGET // 2
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
    HERMITE_ORDER times the boxes of width 2 HERMITE_RADIUS sqrt(2) sigma
    that the span covers, and ``"tiles"`` otherwise."""
    boxes = span / (2.0 * HERMITE_RADIUS * math.sqrt(2.0) * sigma)
    # the first test keeps an infinite box count out of floor
    if boxes < n_components and n_components > HERMITE_ORDER * (math.floor(boxes) + 1):
        return "hermite"
    return "tiles"


def routed_integral(means, weights, sigma: float, integrand, abs_tol: float, values=None):
    """(integral, err) of gaussmix._mixture_integral with the kernel sums
    on the route of kernel_route: the Hermite expansion for mixtures of
    more components than it has coefficients, the library's tiles
    otherwise."""
    route = kernel_route(means.size, float(means.max() - means.min()), sigma)
    evaluator = hermite_evaluator if route == "hermite" else _mixture_evaluator
    return _mixture_integral(means, weights, sigma, integrand, abs_tol, values, evaluator)


# Atoms closer than this, relative to max(1, largest |value|), are merged.
ATOM_TOL = 1e-12


def consolidate_atoms(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate atoms (within ATOM_TOL of the largest |value|, or
    of 1) of a discrete law."""
    vals = np.asarray(values, dtype=float).ravel()
    wts = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    scale = max(1.0, np.abs(vals).max(initial=0.0))
    new_group = np.ones(vals.size, dtype=bool)
    new_group[1:] = np.diff(vals) > ATOM_TOL * scale
    group = np.cumsum(new_group) - 1
    n = group[-1] + 1 if vals.size else 0
    merged_w = np.zeros(n)
    np.add.at(merged_w, group, wts)
    merged_v = np.zeros(n)
    np.add.at(merged_v, group, vals * wts)
    merged_v /= merged_w
    return merged_v, merged_w


def discrete_mmse(values, probs, gamma: float) -> float:
    """MMSE of an arbitrary discrete zero-mean law z from sqrt(gamma) z + n,
    E z^2 - E[(E[z|y])^2], by mixture quadrature in real space over the
    consolidated atoms (routed_integral): the oracle of the genie bound's
    block MMSEs, which bounds.genie_mmse_lower takes from characteristic
    functions."""
    vals, wts = consolidate_atoms(values, probs)
    ez2 = float(np.dot(vals * vals, wts))
    if gamma == 0.0:
        mean = float(np.dot(vals, wts))
        return ez2 - mean * mean
    second, _ = routed_integral(
        np.sqrt(gamma) * vals, wts, 1.0, lambda p, num: num * num / p, _MOMENT_ABS_TOL, vals
    )
    return ez2 - second


def hermite_truncation() -> float:
    """Cramer's bound on the Hermite terms hermite_evaluator drops, per
    unit mass relative to the kernel peak: K (sqrt2 r)^p / sqrt(p!) /
    (1 - sqrt2 r / sqrt(p + 1)), K = 1.09, at HERMITE_RADIUS r and
    HERMITE_ORDER p."""
    r2 = math.sqrt(2.0) * HERMITE_RADIUS
    order = HERMITE_ORDER
    return 1.09 * r2**order / math.sqrt(math.factorial(order)) / (1.0 - r2 / math.sqrt(order + 1.0))


def entropy_truncation(means: np.ndarray, sigma: float) -> float:
    """How far the dropped Hermite terms can move the entropy of a mixture
    with ascending ``means`` (0 on the tiles).

    Each p moves by at most hermite_truncation() times the kernel peak
    1/(sigma sqrt(2 pi)); the trapezoid sums weigh their nodes by the span
    plus 2 _TAIL_SIGMAS sigma, and |d(p log p)/dp| = |1 + log p| is at most
    746 + |log peak| for p in the double range.
    """
    span = float(means[-1] - means[0])
    if kernel_route(means.size, span, sigma) != "hermite":
        return 0.0
    peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    length = span + 2.0 * _TAIL_SIGMAS * sigma
    return hermite_truncation() * peak * length * (746.0 + abs(math.log(peak)))


def i_mmse_enumerated(design, x) -> tuple[float, float]:
    """(value, err_bound) of I(x_0; x_0 + sum alpha_k x_k + m) by exact
    mixture entropies: the oracle of bounds.i_mmse_exact.

    Both terms of I = h(x_0 + mu_1 + m) - h(mu_1 + m) are differential
    entropies, by routed_integral, of Gaussian mixtures enumerated
    over the residual taps, each pruned of at most half of PRUNE_MASS.
    Raises BudgetExceeded when either mixture keeps more than ENUM_BUDGET
    components. A renormalised drop of mass d moves each entropy by
    O(d log(d/p_min)), within 50 nats per unit mass at this budget; the
    entropies also round, by up to 4 eps (|h0| + |h1|) between kernel tile
    sizes on the presets, of which 16 eps is a floor; and on the Hermite
    route each entropy adds entropy_truncation.
    """
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    sigma = math.sqrt(design.noise_var)
    taps1 = design.residual
    m0, w0, drop0 = enumerate_mixture(np.concatenate(([1.0], taps1)), atoms, probs, ENUM_BUDGET, 0.5 * PRUNE_MASS)
    m1, w1, drop1 = enumerate_mixture(taps1, atoms, probs, ENUM_BUDGET, 0.5 * PRUNE_MASS)
    entropy = lambda p, _: -p * np.log(p)
    h0, e0 = routed_integral(m0, w0, sigma, entropy, _ENTROPY_ABS_TOL)
    h1, e1 = routed_integral(m1, w1, sigma, entropy, _ENTROPY_ABS_TOL)
    eps = np.finfo(float).eps
    err = e0 + e1 + 50.0 * (drop0 + drop1) + 16.0 * eps * (abs(h0) + abs(h1))
    return h0 - h1, err + entropy_truncation(m0, sigma) + entropy_truncation(m1, sigma)


# Gauss-Legendre panels, 16 nodes each; up to 12 doublings of the panel
# count, to 1e-13 relative or 1e-14 absolute
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_MAX_LEVELS = 12
_GL_REL_TOL = 1e-13
_GL_ABS_TOL = 1e-14


def _panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_WEIGHTS[None, :], (n_panels, _GL_NODES.size)).ravel()
    return nodes, weights


def gl_integrate(f, lo: float, hi: float, min_panels: int = 8) -> float:
    """Composite Gauss-Legendre integral of f on [lo, hi], doubling the
    panel count from ``min_panels`` until two estimates agree."""

    def estimate(level: int) -> float:
        nodes, qw = _panel_nodes(lo, hi, min_panels * 2**level)
        return float(f(nodes) @ qw)

    value, _ = _refine(estimate, _GL_MAX_LEVELS, _GL_REL_TOL, _GL_ABS_TOL)
    return value


def mmse_binary(gamma: float) -> float:
    """MMSE for equiprobable +-1 input, via the tanh-kernel integral by
    Gauss-Legendre panels: an oracle for the library's mixture quadrature
    that shares only the refine-until-agree loop with it."""
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if gamma == 0.0:
        return 1.0
    root = math.sqrt(gamma)

    def integrand(y):
        return (
            (1.0 - np.tanh(root * y))
            * np.exp(-0.5 * (y - root) ** 2)
            / math.sqrt(2.0 * math.pi)
        )

    lo = root - 46.0
    hi = root + 12.0
    n_panels = max(16, int(math.ceil(hi - lo)))
    return gl_integrate(integrand, lo, hi, min_panels=n_panels)


def q_tail(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x), by SciPy's erfc."""
    from scipy.special import erfc

    out = 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    return float(out) if np.ndim(x) == 0 else out


def ie_opt_dense(design, x, n_grid: int = 512) -> tuple[float, float, float]:
    """(value, gamma1, gamma2): the IE bound T1(g1) + T2(g2) maximised over
    0 <= g1 <= g2 <= S on a grid of 0 and n_grid - 1 log-spaced points from
    1e-10 S to S, then polished by SciPy's bounded scalar search between
    the neighbours of the winning grid points, both on the diagonal and
    term by term. T1(g) = I_x(b0 g) - I_x(g) and
    T2(g) = I_x(g) - log(1 + b1 g)/2 are read from I_x alone, so the oracle
    shares neither the mmse derivatives nor the root search of ie_opt."""
    from scipy.optimize import minimize_scalar

    s, b0, b1 = design.S, design.beta0_sq, design.beta1_sq
    t1 = lambda g: mutual_info(x, b0 * g) - mutual_info(x, g)
    t2 = lambda g: mutual_info(x, g) - 0.5 * math.log1p(b1 * g)
    grid = np.concatenate(([0.0], np.geomspace(1e-10 * s, s, n_grid - 1)))
    v1 = np.array([t1(g) for g in grid])
    v2 = np.array([t2(g) for g in grid])
    # the best g1 up to each g2, then the best g2
    i2 = int(np.argmax(np.maximum.accumulate(v1) + v2))
    i1 = int(np.argmax(v1[: i2 + 1]))

    def polish(f, i: int, lo: float, hi: float) -> float:
        g = min(max(float(grid[i]), lo), hi)
        a, b = max(float(grid[max(i - 1, 0)]), lo), min(float(grid[min(i + 1, n_grid - 1)]), hi)
        if b > a:
            res = minimize_scalar(lambda u: -f(u), bounds=(a, b), method="bounded", options={"xatol": 1e-13 * b})
            if -res.fun > f(g):
                g = float(res.x)
        return g

    best = [(float(v1[i1] + v2[i2]), float(grid[i1]), float(grid[i2]))]
    g = polish(lambda u: t1(u) + t2(u), i2, 0.0, s)
    best.append((t1(g) + t2(g), g, g))
    g2 = polish(t2, i2, 0.0, s)
    g1 = polish(t1, i1, 0.0, g2)
    best.append((t1(g1) + t2(g2), g1, g2))
    return max(best)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
