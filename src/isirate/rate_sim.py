"""Monte-Carlo estimation of the i.i.d. achievable rate by forward recursion.

The channel with memory L-1 is a finite-state machine over the last L-1
inputs. Per seed, a long input/output realization is simulated and
-(1/n) log p(y_1^n) is accumulated by the normalized forward recursion;
-(1/n) log p(y_1^n | x_1^n) follows in closed form from the i.i.d.
Gaussian noise. The difference estimates the rate; the confidence
interval comes from the spread across seeds, since the per-symbol
increments within one run are serially dependent.

All seeds' realizations are drawn block by block, and their recursions
advance together through each block, so memory stays O(seeds x block)
however long the run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .channel import ChannelResponse
from .errors import BudgetExceeded, DomainError
from .montecarlo import IsiOutputStream, RateEstimate
from .scalar import InputDistribution

_STATE_BUDGET = 1 << 20
# Trellises with more states than this run the sparse recursion. The dense
# m-step scan costs S^3/m per symbol but is time-parallel; the sparse step
# costs S |A| per symbol and takes one Python-level step per symbol for all
# seeds at once. With 8-16 seeds the dense scan is faster up to 16 states
# and slower from 27 on.
_DENSE_MAX_STATES = 16
# entries of the m-step matrices in one dense chunk, per row (32 KB). With
# 16 rows, 2^11 to 2^13 ran alike at 4 and 9 states; 2^14 ran a fifth
# slower at 9 states and 2^13 a third slower at 16 states.
_CHUNK_ELEMENTS = 1 << 12
# elements of one chunk of sparse transition weights: 1 MB of doubles stays
# in a typical L2 cache; 2^21 elements (16 MB) ran about 25% slower at 64
# states with 8 seeds
_SPARSE_CHUNK_ELEMENTS = 1 << 17
# sampled outputs held per seed (16 KB): the memoryless route's temporaries
# are as large, so with 64 seeds a block takes about 3 MB in all
_BLOCK_SYMBOLS = 1 << 11


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

    @property
    def memory(self) -> int:
        """Channel memory m, with n_states = |A|^m."""
        return 0 if self.n_states == 1 else round(math.log(self.n_states, self.atoms.size))


def build_trellis(channel: ChannelResponse, x: InputDistribution) -> Trellis:
    taps = np.asarray(channel.taps)
    atoms = np.asarray(x.atoms)
    n_atoms = atoms.size
    memory = channel.length - 1
    n_states = n_atoms**memory
    if n_states * n_atoms > _STATE_BUDGET:
        raise BudgetExceeded(
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


def _m_step_paths(trellis: Trellis) -> np.ndarray:
    """Branches along the one path behind each entry of an m-step product.

    With memory m the trellis has S = |A|^m states, and the product of m
    consecutive branch matrices is dense: from every old state, each input
    word of m atoms leads to the distinct new state that is the word
    itself. Row j of the (m, S^2) result holds, for each flat entry
    new * S + old, the flat branch index state * |A| + atom taken at step
    j of that path.
    """
    n_states, n_atoms = trellis.outputs.shape
    m = trellis.memory
    old = np.repeat(np.arange(n_states), n_states)
    word = np.tile(np.arange(n_states), n_states)
    state = old
    branches = []
    for j in range(m):
        atom = word // n_atoms ** (m - 1 - j) % n_atoms
        branches.append(state * n_atoms + atom)
        state = trellis.next_state[state, atom]
    order = np.argsort(state * n_states + old)
    return np.stack(branches)[:, order]


class _MemorylessStep:
    """log p(y_k) = log sum_a P(a) phi(y_k - out_a), summed per row of y.

    The two block-sized temporaries are held from block to block and grow
    only when a block is larger than any before it.
    """

    def __init__(self, trellis: Trellis, n0: float):
        self.outputs = trellis.outputs[0]
        self.weights = trellis.probs / math.sqrt(2.0 * math.pi * n0)
        self.n0 = n0
        self.bufs = (np.empty(0), np.empty(0))

    def advance(self, y: np.ndarray, log_p: np.ndarray) -> np.ndarray:
        if self.bufs[0].size < y.size:
            self.bufs = (np.empty(y.size), np.empty(y.size))
        mix, like = (buf[: y.size].reshape(y.shape) for buf in self.bufs)
        mix.fill(0.0)
        for out, weight in zip(self.outputs, self.weights):
            np.subtract(y, out, out=like)
            like *= like
            like *= -0.5 / self.n0
            np.exp(like, out=like)
            like *= weight
            mix += like
        return log_p + np.log(mix, out=mix).sum(axis=1)


class _DenseScan:
    """The dense m-step scan of one trellis, for n_rows rows at a time.

    Each chunk of k m-step S x S matrices per row is built directly, entry
    by entry, as the product of the m branch weights along its path, then
    tree-multiplied over time. Every level is scaled by its entry sum,
    whose log joins log_p. The weights and the m-step entries are formed
    branch-major, one row per branch or entry, so each step of the build
    runs over long contiguous rows. k depends only on S, so a row's result
    is the same in any batch. The work space is allocated once: a fresh
    array of its size per chunk costs a page fault per 4 KB whenever the
    allocator has returned the last one to the system, which doubled the
    run time with 16 rows.
    """

    def __init__(self, trellis: Trellis, n0: float, n_rows: int):
        self.paths = _m_step_paths(trellis)
        self.n_states = trellis.n_states
        self.n0 = n0
        self.outputs = trellis.outputs.ravel()[:, None]
        self.log_prior = np.tile(
            np.log(trellis.probs) - 0.5 * math.log(2.0 * math.pi * n0), self.n_states
        )[:, None]
        m, entries = self.paths.shape
        self.span = _block_multiple(trellis)
        self.ones = np.ones(entries)
        cols = n_rows * (self.span // m)
        self.w_buf = np.empty(self.outputs.size * cols)
        self.bufs = (np.empty(entries * cols), np.empty(entries * cols))

    def advance(
        self, y: np.ndarray, alpha: np.ndarray, log_p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, log_p) of every row after the steps of y, which has a
        multiple of m columns."""
        rows = y.shape[0]
        m, entries = self.paths.shape
        n_states = self.n_states
        for start in range(0, y.shape[1], self.span):
            k = min(self.span, y.shape[1] - start) // m
            cols = rows * k
            # phase j of every m-step of every row, as (m, rows * k)
            phases = y[:, start : start + m * k].reshape(rows, k, m)
            phases = phases.transpose(2, 0, 1).reshape(m, cols)
            w = self.w_buf[: self.outputs.size * cols].reshape(-1, cols)
            mats, spare = (buf[: entries * cols].reshape(entries, cols) for buf in self.bufs)
            for j in range(m):
                np.subtract(self.outputs, phases[j], out=w)
                w *= w
                w *= -0.5 / self.n0
                w += self.log_prior
                np.exp(w, out=w)
                if j == 0:
                    np.take(w, self.paths[0], axis=0, out=mats)
                else:
                    np.take(w, self.paths[j], axis=0, out=spare)
                    mats *= spare
            scales = mats.sum(axis=0)
            mats /= scales
            log_p = log_p + np.log(scales).reshape(rows, k).sum(axis=1)
            # the tree's levels alternate between the two buffers
            spare.reshape(cols, entries)[...] = mats.T
            level = spare.reshape(rows, k, n_states, n_states)
            free, held = self.bufs
            while level.shape[1] > 1:
                half, odd = divmod(level.shape[1], 2)
                nxt = free[: rows * (half + odd) * entries]
                nxt = nxt.reshape(rows, half + odd, n_states, n_states)
                np.matmul(
                    level[:, 1 : 2 * half : 2], level[:, 0 : 2 * half : 2], out=nxt[:, :half]
                )
                if odd:
                    nxt[:, half] = level[:, -1]
                free, held = held, free
                level = nxt
                scales = level.reshape(rows, -1, entries) @ self.ones
                level /= scales[:, :, None, None]
                log_p = log_p + np.log(scales).sum(axis=1)
            alpha = (level[:, 0] @ alpha[:, :, None])[:, :, 0]
            total = alpha.sum(axis=1)
            log_p = log_p + np.log(total)
            alpha /= total[:, None]
        return alpha, log_p


class _SparseStep:
    """The sparse recursion of one trellis, for n_rows rows at a time.

    Writing a state as s = d R + r with R = S/|A| and d the digit that is
    shifted out, the successor of s under atom a is a + |A| r, so one step
    is new[b, r, a] = sum_d alpha[b, d, r] w[b, d, r, a]: S |A|
    multiply-adds per row. The weights w of a chunk of steps are formed in
    the log domain with the per-step maximum taken out, alpha is
    renormalized every step and the logs of the scales are taken once per
    chunk. Rows are independent realizations (seeds), and a row's result
    is the same in any batch. Needs a channel with memory (S >= |A|). As
    in _DenseScan, the chunk and per-step work space is allocated once.
    """

    def __init__(self, trellis: Trellis, n0: float, n_rows: int):
        n_states, n_atoms = trellis.outputs.shape
        self.shape = (n_rows, n_atoms, n_states // n_atoms, n_atoms)
        self.n0 = n0
        self.outputs = trellis.outputs.ravel()
        self.log_prior = np.tile(
            np.log(trellis.probs) - 0.5 * math.log(2.0 * math.pi * n0), n_states
        )
        self.chunk = max(1, _SPARSE_CHUNK_ELEMENTS // (n_rows * n_states * n_atoms))
        self.w = np.empty((self.chunk, n_rows, n_states * n_atoms))
        self.peak = np.empty((self.chunk, n_rows))
        self.scales = np.empty((self.chunk, n_rows))
        self.steps_log_p = np.empty((self.chunk + 1, n_rows))
        self.product = np.empty(self.shape)
        self.new = np.empty((n_rows, n_states))
        self.alpha = np.empty((n_rows, n_states))

    def advance(
        self, y: np.ndarray, alpha: np.ndarray, log_p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, log_p) of every row after the steps of y."""
        n_rows, n_atoms, tail, _ = self.shape
        held = self.alpha
        held[...] = alpha
        new = self.new
        for start in range(0, y.shape[1], self.chunk):
            yc = y[:, start : start + self.chunk].T  # (steps, rows)
            steps = yc.shape[0]
            w, peak, scales = self.w[:steps], self.peak[:steps], self.scales[:steps]
            np.subtract(yc[:, :, None], self.outputs, out=w)
            w *= w
            w *= -0.5 / self.n0
            w += self.log_prior
            np.max(w, axis=2, out=peak)
            w -= peak[:, :, None]
            np.exp(w, out=w)
            w_steps = w.reshape(steps, *self.shape)
            for t in range(steps):
                np.multiply(held.reshape(n_rows, n_atoms, tail, 1), w_steps[t], out=self.product)
                np.sum(self.product, axis=1, out=new.reshape(n_rows, tail, n_atoms))
                np.sum(new, axis=1, out=scales[t])
                np.divide(new, scales[t][:, None], out=held)
            # a sequential running sum, unlike a pairwise one, does not depend
            # on where the chunks start, which keeps rows independent of the
            # batch
            steps_log_p = self.steps_log_p[: steps + 1]
            steps_log_p[0] = log_p
            np.log(scales, out=steps_log_p[1:])
            np.add(peak, steps_log_p[1:], out=steps_log_p[1:])
            log_p = np.cumsum(steps_log_p, axis=0)[-1]
        return held.copy(), log_p


def _log_likelihoods(
    blocks: Iterable[np.ndarray], trellis: Trellis, n0: float, n_rows: int
) -> np.ndarray:
    """log p(y_1^n) per row, the rows of y arriving as consecutive blocks.

    Routes: the closed form for a memoryless channel, the dense m-step
    scan up to _DENSE_MAX_STATES states and the sparse recursion above.
    On the dense route, steps past a multiple of m in a block run the
    sparse step, so every block but the last should hold a multiple of
    _block_multiple(trellis) columns. Only the current block and the
    carried (alpha, log_p) of every row are held.
    """
    log_p = np.zeros(n_rows)
    if trellis.n_states == 1:
        step = _MemorylessStep(trellis, n0)
        for y in blocks:
            log_p = step.advance(y, log_p)
        return log_p
    alpha = np.tile(_initial_state_probs(trellis), (n_rows, 1))
    if trellis.n_states > _DENSE_MAX_STATES:
        sparse = _SparseStep(trellis, n0, n_rows)
        for y in blocks:
            alpha, log_p = sparse.advance(y, alpha, log_p)
        return log_p
    scan = _DenseScan(trellis, n0, n_rows)
    for y in blocks:
        whole = y.shape[1] - y.shape[1] % trellis.memory
        alpha, log_p = scan.advance(y[:, :whole], alpha, log_p)
        if whole < y.shape[1]:
            # fewer than m steps, left only in the last block of a run whose
            # other blocks are multiples of _block_multiple(trellis)
            sparse = _SparseStep(trellis, n0, n_rows)
            alpha, log_p = sparse.advance(y[:, whole:], alpha, log_p)
    return log_p


def _block_multiple(trellis: Trellis) -> int:
    """Symbols per row of one dense chunk. A stream block that is a multiple
    of it puts the chunks at the same symbols in any blocking."""
    if not 1 < trellis.n_states <= _DENSE_MAX_STATES:
        return 1
    return trellis.memory * max(1, _CHUNK_ELEMENTS // trellis.n_states**2)


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
    across-seed spread. Deterministic: each seed's rate depends on
    (seed, stream) alone, not on n_seeds.
    """
    if n_symbols < 10**4:
        raise DomainError("n_symbols must be at least 1e4")
    if n_seeds < 1:
        raise DomainError("n_seeds must be positive")
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be finite and positive")
    trellis = build_trellis(channel, x)
    n0 = x.power / rho
    multiple = _block_multiple(trellis)
    block = max(1, _BLOCK_SYMBOLS // multiple) * multiple
    cum = np.cumsum(trellis.probs)
    taps = np.asarray(channel.taps)
    streams = [
        IsiOutputStream(seed, s, trellis.atoms, cum, taps, n0, n_symbols)
        for s in range(n_seeds)
    ]
    noise_sq = np.zeros(n_seeds)  # filled in as the blocks are drawn

    def blocks():
        ys = np.empty((n_seeds, block))
        for start in range(0, n_symbols, block):
            y = ys[:, : min(block, n_symbols - start)]
            for s, stream in enumerate(streams):
                clean, noise = stream.draw(y.shape[1])
                np.add(clean, noise, out=y[s])
                noise_sq[s] += noise @ noise
            yield y

    log_p = _log_likelihoods(blocks(), trellis, n0, n_seeds)
    log_p_cond = -0.5 * noise_sq / n0 - 0.5 * n_symbols * math.log(2.0 * math.pi * n0)
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
