"""High-SNR machinery: error-event distance search and exponent bounds.

delta_min_sq is the minimum weighted normalized distance over error
events, found by uniform-cost search on the finite error-state graph
(state = last L-1 normalized error symbols). Accumulated distance is an
admissible bound since every step cost is nonnegative, so the first
settled goal is globally optimal; the result is certified whenever the
search completes within its expansion guard. log_fano_forney_upper and
log_sl_gap_lower evaluate the logs of the two sides of the high-SNR
comparison, an upper bound on H(x_0) - achievable rate and a lower bound
on H(x_0) - I_SL; crossover_probe compares them on an SNR grid from one
certified search (exponent_gap) per channel and input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .channel import ChannelResponse, transfer_power
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
    certified: bool
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


def delta_min_sq(
    channel: ChannelResponse,
    x: InputDistribution,
    max_len: int | None = None,
) -> ErrorEventSearch:
    """Minimum normalized weighted distance over all error events.

    The channel must carry unit energy. Ties between equal-distance events
    resolve to the lexicographically smallest witness. ``max_len`` caps the
    event length explored (default 8L + 50); the certified flag is cleared
    only if that cap or the node guard discarded a cheaper frontier node.
    """
    if abs(channel.energy() - 1.0) > 1e-9:
        raise DomainError("delta_min_sq expects a unit-energy channel")
    taps = np.asarray(channel.taps)
    L = channel.length
    alphabet = error_alphabet(x)
    nonzero = alphabet[alphabet != 0.0]
    if max_len is None:
        max_len = 8 * L + 50
    max_path = max_len + L - 1
    if L == 1:
        e = float(np.min(np.abs(nonzero)))
        return ErrorEventSearch(
            delta_min_sq=e * e * float(taps[0] ** 2),
            witness=(-e if -e in nonzero else e,),
            certified=True,
            nodes_explored=1,
            error_alphabet=tuple(alphabet),
        )
    zero_state = (0.0,) * (L - 1)
    # heap entries (cost, path, state); path ordering breaks cost ties
    heap = []
    rev_taps = taps[::-1]
    for e in nonzero:
        window = np.zeros(L)
        window[-1] = e
        cost = float((window @ rev_taps) ** 2)
        heapq.heappush(heap, (cost, (float(e),), tuple(window[1:])))
    closed: set[tuple[float, ...]] = set()
    explored = 0
    min_discarded = math.inf
    while heap:
        cost, path, state = heapq.heappop(heap)
        if state == zero_state:
            witness = path[: len(path) - (L - 1)]
            return ErrorEventSearch(
                delta_min_sq=cost,
                witness=witness,
                certified=cost <= min_discarded,
                nodes_explored=explored,
                error_alphabet=tuple(alphabet),
            )
        if state in closed:
            continue
        closed.add(state)
        explored += 1
        if len(path) >= max_path or explored > _NODE_GUARD:
            min_discarded = min(min_discarded, cost)
            continue
        window = np.empty(L)
        window[:-1] = state
        for e in alphabet:
            window[-1] = e
            step = float((window @ rev_taps) ** 2)
            nxt = tuple(window[1:])
            if nxt not in closed:
                heapq.heappush(heap, (cost + step, path + (float(e),), nxt))
    raise InconclusiveSearch("error-event search exhausted without a goal")


def exponent_gap(
    channel: ChannelResponse, x: InputDistribution, max_len: int | None = None
) -> ExponentGap:
    """Compare delta_min^2 with g_zf_dfe on the normalized min-phase channel.

    Raises InconclusiveSearch unless the search is certified, so every gap
    carries a certified delta_min^2. strict requires a margin above 1e-9.
    """
    ch = channel.normalized.min_phase
    search = delta_min_sq(ch, x, max_len=max_len)
    if not search.certified:
        raise InconclusiveSearch("search not certified; raise max_len")
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
    sequence-detector error constant K' and the certified gap of the channel.

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


def _low_spectrum_fraction(channel: ChannelResponse, t: float) -> float:
    """|{theta : |H(theta)|^2 < t}| / 2 pi, exact up to root round-off.

    On the unit circle z^{L-1} (|H(z)|^2 - t) is the polynomial with the
    palindromic coefficients r_{L-1}..r_1, r_0 - t, r_1..r_{L-1}, so every
    crossing of t is the angle of one of its 2(L-1) roots. Between two
    consecutive root angles |H|^2 - t keeps its sign, read at the midpoint.
    """
    r = channel.autocorrelation
    coeffs = np.concatenate((r[:0:-1], r))
    coeffs[r.size - 1] -= t
    angles = np.sort(np.angle(np.roots(coeffs)))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    below = transfer_power(channel, angles + 0.5 * gaps) < t
    return float(gaps[below].sum() / (2.0 * np.pi))


def snr_dfe_upper_bound(channel: ChannelResponse, rho: float) -> float:
    """Upper bound on the biased MMSE-DFE output SNR at high input SNR.

    For strictly positive spectra: rho g_zf_dfe + g_zf_dfe/g_zf_le. With
    spectral nulls: rho g_zf_dfe (1 + sqrt(1/rho)) e^{c1 sqrt(|Omega|/2pi)}
    with c1^2 = <log^2|H|^2> and Omega the set where |H|^2 < sqrt(1/rho),
    measured exactly from the crossing angles (_low_spectrum_fraction).
    Requires the unit-energy normalization and 2 sqrt(1/rho) < 1.
    """
    if abs(channel.energy() - 1.0) > 1e-9:
        raise DomainError("snr_dfe_upper_bound expects a unit-energy channel")
    if 2.0 * math.sqrt(1.0 / rho) >= 1.0:
        raise DomainError("need 2 sqrt(N_0/P_x) < 1, i.e. rho > 4")
    # both gains are free of rho and cached on the channel
    g = math.exp(channel.log_mean_spectrum)
    g_le = channel.zf_le_gain
    if g_le > 0.0:
        return rho * g + g / g_le
    # null-bearing spectrum: Cauchy-Schwarz on the low-|H| set
    c1 = math.sqrt(channel.log_sq_mean_spectrum)
    threshold = math.sqrt(1.0 / rho)
    omega_frac = _low_spectrum_fraction(channel, threshold)
    return rho * g * (1.0 + threshold) * math.exp(c1 * math.sqrt(omega_frac))


def log_sl_gap_lower(
    channel: ChannelResponse, x: InputDistribution, rho: float
) -> float:
    """log of a lower bound on H(x_0) - I_SL, in nats, valid for rho > 4.

    Chains the MMSE genie bound through the equiprobable-pair reduction
    and the Gaussian-tail integral, evaluated at an upper bound on the
    unbiased DFE SNR; the log stays finite far past double-precision
    underflow.
    """
    snr_u = snr_dfe_upper_bound(channel.normalized, rho) - 1.0
    d_half_sq = (_normalized_d_min(x) / 2.0) ** 2
    return math.log(2.0 * _min_distance_pair_prob(x)) + log_q_integral(
        d_half_sq * snr_u
    )


@dataclass(frozen=True)
class CrossoverRow:
    rho: float
    log_upper: float | None  # log_fano_forney_upper on H - rate
    log_lower: float | None  # log_sl_gap_lower on H - I_SL
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
    H - rate falls below the lower bound on H - I_SL. Grid points with
    0 < rho <= 4 are reported as None (outside the bound's validity).
    Raises, before any row, DomainError unless every rho is finite and
    positive, and InconclusiveSearch when the distance search is not
    certified.
    """
    rho_grid = [float(rho) for rho in rho_grid]
    if not all(0.0 < rho < math.inf for rho in rho_grid):
        raise DomainError("every rho must be finite and positive")
    gap = exponent_gap(channel, x)
    rows = []
    crossing = None
    for rho in rho_grid:
        if 2.0 * math.sqrt(1.0 / rho) >= 1.0:
            rows.append(CrossoverRow(rho=rho, log_upper=None, log_lower=None, certifies=False))
            continue
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
