"""Monte-Carlo estimation of the i.i.d. achievable rate by forward recursion.

The channel with memory L-1 is a finite-state machine over the last L-1
inputs. Per seed, a long input/output realization is simulated and
-(1/n) log p(y_1^n) is accumulated by the normalized forward recursion;
-(1/n) log p(y_1^n | x_1^n) follows in closed form from the i.i.d.
Gaussian noise. The difference estimates the rate; the confidence
interval comes from the spread across seeds, since the per-symbol
increments within one run are serially dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelResponse
from .errors import DomainError, StateBudgetExceeded
from .montecarlo import RateEstimate, stream_rng
from .scalar import InputDistribution

_STATE_BUDGET = 1 << 20
_SCAN_CHUNK = 2048
# Trellises with more states than this run the sparse recursion. The dense
# scan costs S^3 per symbol but is time-parallel; the sparse step costs
# S |A| per symbol and seed but takes one Python-level step per symbol, so
# with one seed it is slower than the dense scan up to 32 states.
_DENSE_MAX_STATES = 32
# elements of one chunk of sparse transition weights: 1 MB of doubles stays
# in a typical L2 cache; 2^21 elements (16 MB) ran about 25% slower at 64
# states with 8 seeds
_SPARSE_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class Trellis:
    """Finite-state machine of the ISI channel for one input alphabet.

    State s = sum_i d_i |A|^i where digit d_i is the input index at delay
    i+1. Emitting atom a from state s produces the noiseless output
    ``outputs[s, a]`` and moves to ``next_state[s, a]``.
    """

    atoms: np.ndarray
    probs: np.ndarray
    outputs: np.ndarray  # (n_states, n_atoms)
    next_state: np.ndarray  # (n_states, n_atoms)
    n_states: int


def build_trellis(channel: ChannelResponse, x: InputDistribution) -> Trellis:
    taps = np.asarray(channel.taps)
    atoms = np.asarray(x.atoms)
    n_atoms = atoms.size
    memory = channel.length - 1
    n_states = n_atoms**memory
    if n_states * n_atoms > _STATE_BUDGET:
        raise StateBudgetExceeded(
            f"{n_states} states x {n_atoms} inputs exceeds the budget"
        )
    states = np.arange(n_states)
    if memory:
        digits = np.empty((n_states, memory), dtype=np.int64)
        s = states.copy()
        for i in range(memory):
            digits[:, i] = s % n_atoms
            s //= n_atoms
        outputs = taps[0] * atoms[None, :] + (atoms[digits] @ taps[1:])[:, None]
        nxt = np.arange(n_atoms)[None, :] + n_atoms * (
            states[:, None] % (n_states // n_atoms)
        )
    else:
        outputs = taps[0] * atoms[None, :]
        nxt = np.zeros((1, n_atoms), dtype=np.int64)
    return Trellis(
        atoms, np.asarray(x.probs), outputs, nxt.astype(np.int64), n_states
    )


def _initial_state_probs(trellis: Trellis) -> np.ndarray:
    """Stationary (i.i.d. product) law over states."""
    sp = np.ones(1)
    while sp.size < trellis.n_states:
        # appending one more-delayed digit multiplies in its probability
        sp = np.repeat(trellis.probs, sp.size) * np.tile(sp, trellis.probs.size)
    return sp


def forward_log_likelihood(
    y: np.ndarray, trellis: Trellis, n0: float, renorm_every: int = 1
) -> float:
    """log p(y_1^n) by the normalized forward recursion (reference path).

    The result is invariant to the renormalization schedule.
    """
    n_states, n_atoms = trellis.outputs.shape
    state_p = _initial_state_probs(trellis)
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


def _forward_log_likelihood_scan(y: np.ndarray, trellis: Trellis, n0: float) -> float:
    """Fast path: per-step transition matrices tree-reduced in chunks.

    Identical to the sequential recursion in exact arithmetic.
    """
    n_states, n_atoms = trellis.outputs.shape
    state_p = _initial_state_probs(trellis)
    coef = 1.0 / math.sqrt(2.0 * math.pi * n0)
    if n_states == 1:
        # memoryless channel: p(y_k) = sum_a P(a) phi(y_k - out_a)
        log_p = 0.0
        for start in range(0, y.size, _SCAN_CHUNK):
            yc = y[start : start + _SCAN_CHUNK]
            like = coef * np.exp(
                -0.5 * (yc[:, None] - trellis.outputs[0][None, :]) ** 2 / n0
            )
            log_p += float(np.log(like @ trellis.probs).sum())
        return log_p
    # flat position of entry (next_state, state) in an (n_states, n_states)
    # matrix; distinct for every (state, atom) pair when the channel has
    # memory
    flat_idx = (
        trellis.next_state * n_states + np.arange(n_states)[:, None]
    ).ravel()
    w = np.repeat(trellis.probs[None, :], n_states, axis=0).ravel()
    outputs = trellis.outputs.ravel()
    log_p = 0.0
    for start in range(0, y.size, _SCAN_CHUNK):
        yc = y[start : start + _SCAN_CHUNK]
        like = coef * np.exp(-0.5 * (yc[:, None] - outputs[None, :]) ** 2 / n0)
        mats = np.zeros((yc.size, n_states * n_states))
        mats[:, flat_idx] = like * w[None, :]
        mats = mats.reshape(yc.size, n_states, n_states)
        scales = mats.max(axis=(1, 2))
        mats /= scales[:, None, None]
        log_p += float(np.log(scales).sum())
        while mats.shape[0] > 1:
            even = mats.shape[0] & ~1
            pair = np.matmul(mats[1:even:2], mats[0:even:2])
            if mats.shape[0] % 2:
                pair = np.concatenate([pair, mats[-1:]], axis=0)
            scales = pair.max(axis=(1, 2))
            pair /= scales[:, None, None]
            log_p += float(np.log(scales).sum())
            mats = pair
        state_p = mats[0] @ state_p
        scale = state_p.sum()
        log_p += math.log(scale)
        state_p /= scale
    return log_p


def _forward_log_likelihood_sparse(
    y: np.ndarray, trellis: Trellis, n0: float
) -> np.ndarray | float:
    """log p(y_1^n) per row of y by the sparse forward recursion.

    Writing a state as s = d R + r with R = S/|A| and d the digit that is
    shifted out, the successor of s under atom a is a + |A| r, so one step
    is new[b, r, a] = sum_d alpha[b, d, r] w[b, d, r, a]: S |A|
    multiply-adds per row. The weights w of a chunk of steps are formed in
    the log domain with the per-step maximum taken out, alpha is
    renormalized every step and the logs of the scales are taken once per
    chunk. Rows are independent realizations (seeds); a 1-D y gives a float,
    and each row of a 2-D y gives bit for bit the result of a 1-D call on
    it. Needs a channel with memory (S >= |A|).
    """
    rows = np.atleast_2d(y)
    n_rows, n = rows.shape
    n_states, n_atoms = trellis.outputs.shape
    tail = n_states // n_atoms
    outputs = trellis.outputs.ravel()
    log_prior = np.tile(
        np.log(trellis.probs) - 0.5 * math.log(2.0 * math.pi * n0), n_states
    )
    alpha = np.tile(_initial_state_probs(trellis), (n_rows, 1))
    log_p = np.zeros(n_rows)
    chunk = max(1, _SPARSE_CHUNK_ELEMENTS // (n_rows * n_states * n_atoms))
    for start in range(0, n, chunk):
        yc = rows[:, start : start + chunk].T  # (steps, rows)
        steps = yc.shape[0]
        w = yc[:, :, None] - outputs
        w *= w
        w *= -0.5 / n0
        w += log_prior
        peak = w.max(axis=2)
        w -= peak[:, :, None]
        np.exp(w, out=w)
        w = w.reshape(steps, n_rows, n_atoms, tail, n_atoms)
        scales = np.empty((steps, n_rows))
        for t in range(steps):
            new = (alpha.reshape(n_rows, n_atoms, tail, 1) * w[t]).sum(axis=1)
            new = new.reshape(n_rows, n_states)
            np.sum(new, axis=1, out=scales[t])
            alpha = new / scales[t][:, None]
        # a sequential running sum, unlike a pairwise one, does not depend on
        # where the chunks start, which keeps rows independent of the batch
        steps_log_p = np.concatenate([log_p[None], peak + np.log(scales)])
        log_p = np.cumsum(steps_log_p, axis=0)[-1]
    return log_p if np.ndim(y) == 2 else float(log_p[0])


def estimate_rate(
    channel: ChannelResponse,
    x: InputDistribution,
    rho: float,
    n_symbols: int,
    n_seeds: int,
    seed: int,
) -> RateEstimate:
    """Estimate the achievable rate (nats/symbol) at rho = P_x/N_0.

    Each seed simulates its own realization on an independent counter-based
    stream; the estimate is the across-seed mean and the standard error the
    across-seed spread. Deterministic for a fixed (seed, n_seeds).
    """
    if n_symbols < 10**4:
        raise DomainError("n_symbols must be at least 1e4")
    if n_seeds < 1:
        raise DomainError("n_seeds must be positive")
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    trellis = build_trellis(channel, x)
    taps = np.asarray(channel.taps)
    n0 = x.power / rho
    # the dense scan runs one seed at a time; the sparse recursion runs all
    # seeds as one batch
    sparse = trellis.n_states > _DENSE_MAX_STATES
    ys = np.empty((n_seeds, n_symbols)) if sparse else None
    log_p = np.empty(n_seeds)
    log_p_cond = np.empty(n_seeds)
    memory = channel.length - 1
    cum = np.cumsum(trellis.probs)
    for s in range(n_seeds):
        rng = stream_rng(seed, s)
        idx = np.searchsorted(cum, rng.random(n_symbols + memory))
        xs = trellis.atoms[idx]
        clean = np.convolve(xs, taps)[memory : memory + n_symbols]
        noise = math.sqrt(n0) * rng.standard_normal(n_symbols)
        y = clean + noise
        log_p_cond[s] = -0.5 * float(noise @ noise) / n0 - 0.5 * n_symbols * math.log(
            2.0 * math.pi * n0
        )
        if sparse:
            ys[s] = y
        else:
            log_p[s] = _forward_log_likelihood_scan(y, trellis, n0)
    if sparse:
        log_p = _forward_log_likelihood_sparse(ys, trellis, n0)
    rates = (log_p_cond - log_p) / n_symbols
    value = float(rates.mean())
    std_error = (
        float(rates.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds >= 2 else float("nan")
    )
    return RateEstimate(
        value=value,
        std_error=std_error,
        n_samples=n_symbols,
        n_seeds=n_seeds,
        seeds=tuple((seed, s) for s in range(n_seeds)),
        notes={"per_seed": tuple(float(r) for r in rates)},
    )
