"""Seeded-stream Monte-Carlo plumbing shared by the estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Streams are independent and reproducible regardless of how work is
    split across threads.
    """
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, stream & _MASK64]))


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """Integer thresholds that map 64-bit Philox words to atoms under the
    cumulative probabilities cum: a word w draws atom k, the count of
    thresholds below w >> 11.

    A uniform is u = (w >> 11) 2^-53, so u > cum_k exactly when
    (w >> 11) > floor(cum_k 2^53), and the word draws atom searchsorted(cum,
    u). The last entry of cum is left out, so that a u above a rounded
    cum[-1] < 1 draws the last atom instead of one past it.
    """
    return np.floor(np.ldexp(cum[:-1], 53)).astype(np.uint64)


class IsiOutputStream:
    """One realization y = x * taps + noise of n outputs, drawn in blocks.

    Block by block, every value equals bit for bit the one-shot draw from
    ``stream_rng(seed, stream)``: ``random(n + mem)`` uniforms mapped to
    inputs by ``cum``, ``np.convolve(x, taps)[mem : mem + n]``, and then
    ``sqrt(n0) * standard_normal(n)``, as long as the blocks total n. Each
    input reads the 64-bit word its uniform would be made of and maps it by
    _thresholds. The normals come from a second copy of the stream whose
    counter is advanced past the words (Philox makes four 64-bit draws per
    counter step, and each word or discarded leftover takes one); the
    convolution carries the last mem inputs from one block to the next.
    """

    def __init__(
        self,
        seed: int,
        stream: int,
        atoms: np.ndarray,
        cum: np.ndarray,
        taps: np.ndarray,
        n0: float,
        n: int,
    ):
        self._atoms = atoms
        self._thresholds = _thresholds(cum)
        self._taps = taps
        self._sigma = math.sqrt(n0)
        mem = taps.size - 1
        self._words = stream_rng(seed, stream).bit_generator
        self._normals = stream_rng(seed, stream)
        self._normals.bit_generator.advance((n + mem) // 4)
        if (n + mem) % 4:
            self._normals.random((n + mem) % 4)
        self._tail = atoms[:0]

    def draw(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The next size noiseless outputs and noise samples."""
        mem = self._taps.size - 1
        words = self._words.random_raw(size + mem - self._tail.size) >> 11
        idx = np.zeros(words.shape, dtype=np.min_scalar_type(self._thresholds.size))
        for t in self._thresholds:
            idx += words > t
        fresh = self._atoms[idx]
        xs = np.concatenate([self._tail, fresh])
        self._tail = xs[size:].copy()
        clean = np.convolve(xs, self._taps)[mem : mem + size]
        return clean, self._sigma * self._normals.standard_normal(size)


@dataclass(frozen=True)
class RateEstimate:
    """Monte-Carlo estimate of a mutual-information rate, in nats.

    ``std_error`` is the standard error of ``value``; ``seeds`` records the
    (base seed, stream) provenance. ``notes`` carries estimator-specific
    accuracy diagnostics (e.g. density-table audit error).
    """

    value: float
    std_error: float
    n_samples: int
    n_seeds: int
    seeds: tuple[tuple[int, int], ...]
    notes: dict = field(default_factory=dict)
