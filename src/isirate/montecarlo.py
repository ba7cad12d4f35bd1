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


class IsiOutputStream:
    """One realization y = x * taps + noise of n outputs, drawn in blocks.

    Block by block, every value equals bit for bit the one-shot draw from
    ``stream_rng(seed, stream)``: ``random(n + mem)`` uniforms mapped to
    inputs by ``cum``, ``np.convolve(x, taps)[mem : mem + n]``, and then
    ``sqrt(n0) * standard_normal(n)``, as long as the blocks total n. The
    normals come from a second copy of the stream whose counter is advanced
    past the uniforms (Philox makes four 64-bit draws per counter step, and
    each uniform or discarded leftover takes one); the convolution carries
    the last mem inputs from one block to the next.
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
        self._cum = cum
        self._taps = taps
        self._sigma = math.sqrt(n0)
        mem = taps.size - 1
        self._uniforms = stream_rng(seed, stream)
        self._normals = stream_rng(seed, stream)
        self._normals.bit_generator.advance((n + mem) // 4)
        if (n + mem) % 4:
            self._normals.random((n + mem) % 4)
        self._tail = atoms[:0]

    def draw(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The next size noiseless outputs and noise samples."""
        mem = self._taps.size - 1
        fresh = self._atoms[
            _sample_indices(self._uniforms.random(size + mem - self._tail.size), self._cum)
        ]
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
