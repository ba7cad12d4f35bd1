"""High-SNR machinery: error-event distance search and exponent bounds.

delta_min_sq is the minimum weighted normalized distance over error
events, found by Dijkstra's search on the finite error-state graph
(state = last L-1 normalized error symbols), whose step costs are all
nonnegative, so the first settled goal is globally optimal.
log_fano_forney_upper and log_sl_gap_lower evaluate the logs of the two
sides of the high-SNR comparison, an upper bound on H(x_0) - achievable
rate and a lower bound on H(x_0) - I_SL; crossover_probe compares them on
an SNR grid from one search (exponent_gap) per channel and input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .channel import ChannelResponse, _spectral_factor
from .errors import DomainError, InconclusiveSearch
from .scalar import InputDistribution, binary_entropy, log_q_integral

_NODE_GUARD = 2_000_000


def _log_q_tail(z: float) -> float:
    """log Q(z) without underflow (z >= 0)."""
    return -0.5 * z * z + math.log(0.5 * erfcx(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class ErrorEventSearch:
    """Result of the minimum-distance error-event search."""

    delta_min_sq: float
    witness: tuple[float, ...]  # normalized error symbols, nonzero endpoints
    nodes_explored: int
    error_alphabet: tuple[float, ...]


@dataclass(frozen=True)
class ExponentGap:
    """delta_min^2 against the ZF-DFE gain (equal iff the channel is flat)."""

    delta_min_sq: float
    g_zf_dfe: float
    strict: bool
    witness: tuple[float, ...]  # of the min-phase channel's search
    nodes_explored: int


def error_alphabet(x: InputDistribution) -> np.ndarray:
    """Normalized differences (x - x')/d_min of all atom pairs, 0 included."""
    atoms = np.asarray(x.atoms)
    diffs = (atoms[:, None] - atoms[None, :]).ravel() / x.d_min
    vals = np.unique(np.round(diffs, 12))
    return vals


def delta_min_sq(channel: ChannelResponse, x: InputDistribution) -> ErrorEventSearch:
    """Minimum normalized weighted distance over all error events.

    The channel must carry unit energy. Ties between equal-distance events
    resolve to the lexicographically smallest witness. Raises
    InconclusiveSearch rather than expand more than _NODE_GUARD states.
    """
    if abs(channel.energy() - 1.0) > 1e-9:
        raise DomainError("delta_min_sq expects a unit-energy channel")
    L = channel.length
    rev_taps = np.asarray(channel.taps)[::-1]
    alphabet = error_alphabet(x)
    zero_state = (0.0,) * (L - 1)
    # heap entries (cost, path, state); path ordering breaks cost ties
    heap = []
    for e in alphabet[alphabet != 0.0]:
        window = np.zeros(L)
        window[-1] = e
        heapq.heappush(heap, (float((window @ rev_taps) ** 2), (float(e),), tuple(window[1:])))
    closed: set[tuple[float, ...]] = set()
    # the zero state is reachable from every state and never closed, so
    # the heap holds a path to it until it is popped
    while True:
        cost, path, state = heapq.heappop(heap)
        if state == zero_state:
            return ErrorEventSearch(
                delta_min_sq=cost,
                witness=path[: len(path) - (L - 1)],
                nodes_explored=len(closed),
                error_alphabet=tuple(alphabet),
            )
        if state in closed:
            continue
        if len(closed) == _NODE_GUARD:
            raise InconclusiveSearch(f"error-event search passed {_NODE_GUARD} states")
        closed.add(state)
        window = np.empty(L)
        window[:-1] = state
        for e in alphabet:
            window[-1] = e
            nxt = tuple(window[1:])
            if nxt not in closed:
                step = float((window @ rev_taps) ** 2)
                heapq.heappush(heap, (cost + step, path + (float(e),), nxt))


def exponent_gap(channel: ChannelResponse, x: InputDistribution) -> ExponentGap:
    """Compare delta_min^2 with g_zf_dfe on the normalized min-phase channel.

    strict requires a margin above 1e-9.
    """
    ch = channel.normalized.min_phase
    search = delta_min_sq(ch, x)
    g = float(ch.taps[0] ** 2)
    return ExponentGap(
        delta_min_sq=search.delta_min_sq,
        g_zf_dfe=g,
        strict=search.delta_min_sq - g > 1e-9,
        witness=search.witness,
        nodes_explored=search.nodes_explored,
    )


def _normalized_d_min(x: InputDistribution) -> float:
    return x.d_min / math.sqrt(x.power)


def log_fano_forney_upper(
    gap: ExponentGap, x: InputDistribution, rho: float, k_prime: float
) -> float:
    """log of an upper bound on H(x_0) - achievable rate (nats), given the
    sequence-detector error constant K' and the exponent gap of the channel.

    The bound is h2(P) + P log|X| with
    P = min(1/2, K' Q(sqrt(rho (d/2)^2 delta_min^2))); its log stays finite
    far past double-precision underflow.
    """
    if k_prime <= 0.0:
        raise DomainError("k_prime must be positive")
    d_half_sq = (_normalized_d_min(x) / 2.0) ** 2
    log_p = min(
        math.log(0.5),
        math.log(k_prime) + _log_q_tail(math.sqrt(rho * d_half_sq * gap.delta_min_sq)),
    )
    log_n = math.log(len(x.atoms))
    if log_p >= math.log(1e-12):
        p = math.exp(log_p)
        return math.log(binary_entropy(p) + p * log_n)
    # h2(p) + p log|X| = p (1 - log p + log|X|) + O(p^2)
    return log_p + math.log(1.0 - log_p + log_n)


def _min_distance_pair_prob(x: InputDistribution) -> float:
    """Largest min-probability among atom pairs achieving d_min."""
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    best = 0.0
    for i in range(atoms.size):
        for j in range(i + 1, atoms.size):
            if abs(abs(atoms[i] - atoms[j]) - x.d_min) <= 1e-12 * x.d_min:
                best = max(best, float(min(probs[i], probs[j])))
    return best


def log_sl_gap_lower(
    channel: ChannelResponse, x: InputDistribution, rho: float
) -> float:
    """log of a lower bound on H(x_0) - I_SL, in nats.

    Chains the MMSE genie bound through the equiprobable-pair reduction
    and the Gaussian-tail integral, evaluated at the unbiased MMSE-DFE SNR
    of the normalized channel, the one I_SL is taken at; the log stays
    finite far past double-precision underflow. Raises RootFindingFailure
    where the spectral factorisation fails its check.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be finite and positive")
    gaussian_rate, _, _ = _spectral_factor(channel.normalized, rho)
    d_half_sq = (_normalized_d_min(x) / 2.0) ** 2
    return math.log(2.0 * _min_distance_pair_prob(x)) + log_q_integral(
        d_half_sq * math.expm1(gaussian_rate)
    )


@dataclass(frozen=True)
class CrossoverRow:
    rho: float
    log_upper: float  # log_fano_forney_upper on H - rate
    log_lower: float  # log_sl_gap_lower on H - I_SL
    certifies: bool


@dataclass(frozen=True)
class CrossoverTable:
    rows: tuple[CrossoverRow, ...]
    crossing_rho: float | None  # smallest grid rho with upper < lower


def crossover_probe(
    channel: ChannelResponse,
    x: InputDistribution,
    rho_grid,
    k_prime: float = 1.0,
) -> CrossoverTable:
    """Evaluate both exponent bounds on a grid of input SNRs.

    A row certifies the rate >= I_SL comparison when the upper bound on
    H - rate falls below the lower bound on H - I_SL. Raises, before any
    row, DomainError unless every rho is finite and positive, and
    InconclusiveSearch when the distance search passes its node guard.
    """
    rho_grid = [float(rho) for rho in rho_grid]
    if not all(0.0 < rho < math.inf for rho in rho_grid):
        raise DomainError("every rho must be finite and positive")
    gap = exponent_gap(channel, x)
    rows = []
    crossing = None
    for rho in rho_grid:
        log_upper = log_fano_forney_upper(gap, x, rho, k_prime)
        log_lower = log_sl_gap_lower(channel, x, rho)
        certifies = log_upper < log_lower
        if certifies and crossing is None:
            crossing = rho
        rows.append(
            CrossoverRow(
                rho=rho, log_upper=log_upper, log_lower=log_lower, certifies=certifies
            )
        )
    return CrossoverTable(rows=tuple(rows), crossing_rho=crossing)
