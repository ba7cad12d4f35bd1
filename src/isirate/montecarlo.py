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
