"""Seeded-stream Monte-Carlo plumbing shared by the estimators."""

from __future__ import annotations

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
