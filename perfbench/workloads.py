"""The four benchmark workloads: their inputs, operations and output checks.

A workload is a fixed list of operations, each one call into the
library's public API. One round runs every operation once; a run repeats
whole rounds. Every operation's output is checked after the timed phase
against a reference value computed in ``reference`` or against a
property the method must have, never against a stored copy of an earlier
output. All rates are in nats.

The seed drives every Monte-Carlo stream the library draws (the MC
I_MMSE route and the trellis rate simulator); the channels and SNR grids
are the paper's figure profiles and do not depend on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import isirate
import reference as ref

LOG2 = math.log(2.0)
# Tolerances, stated in the README.
MC_SIGMA_MAX = 0.01  # largest standard error an MC I_MMSE point may report
SPECTRAL_REL_TOL = 1e-9  # gaussian_rate against the FFT-grid mean
LOW_SNR_IE_TOL = 1e-3 * LOG2  # |ie_simple - gaussian_rate/2| at -12 dB: 1e-3 bits
SERIES_REL_TOL = 0.2  # gap series against the exact gap where eps0 <= 0.01
SERIES_EPS0_MAX = 0.01
ENUMERATION_ABS_TOL = 1e-9  # I_MMSE against the benchmark's own enumeration
DFE_SNR_REL_TOL = 1e-6  # unbiased DFE SNR against exp<log(1 + rho|H|^2)> - 1
TWO_TAP_ABS_TOL = 1e-9  # leading residual taps of the null channel
TWO_TAP_LEADING = 10
DISTANCE_REL_TOL = 1e-9  # delta_min^2 against the brute-force search
ROUNDING = 1e-12  # slack for exact inequalities between rounded values


def _rho(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _grid(start: float, stop: float, step: float) -> list[float]:
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


@dataclass(frozen=True)
class Op:
    """One call into the library and the check of its output.

    ``check`` returns the problems it finds, an empty list when the output
    is right. ``expected_failure`` names a known fault for an operation
    that raises every time; it is counted as failed, not as wrong.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    expected_failure: str | None = None


@dataclass(frozen=True)
class Plan:
    ops: tuple[Op, ...]
    warm_up: Callable[[], object]


def _problem(ok: bool, text: str) -> list[str]:
    return [] if ok else [text]


# ---------------------------------------------------------------------------
# bounds_mc: figs 3 and 4, bound_report with the MC I_MMSE route

BOUNDS_MC_SAMPLES = 10_000


def _check_bounds_mc(ch, x, rho: float, lowest: bool):
    def check(r) -> list[str]:
        sig = r.i_mmse_std_error
        if r.i_mmse_method != "mc" or sig is None:
            return [f"expected an MC I_MMSE, got {r.i_mmse_method}"]
        tol = 4.0 * sig
        gr = ref.gaussian_rate(ch.taps, rho)
        out = _problem(0.0 < sig <= MC_SIGMA_MAX, f"std error {sig:.3g} outside (0, {MC_SIGMA_MAX}]")
        out += _problem(r.i_sow <= r.i_mmse + tol, f"i_sow {r.i_sow:.6g} > i_mmse + 4 sigma")
        out += _problem(r.ie_simple <= r.ie_opt + ROUNDING, f"ie_simple {r.ie_simple:.6g} > ie_opt {r.ie_opt:.6g}")
        out += _problem(r.ie_opt <= r.i_mmse + tol, f"ie_opt {r.ie_opt:.6g} > i_mmse + 4 sigma")
        out += _problem(
            r.i_mmse <= min(x.entropy, gr) + tol,
            f"i_mmse {r.i_mmse:.6g} > min(H, gaussian_rate) + 4 sigma",
        )
        out += _problem(
            abs(r.gaussian_rate - gr) <= SPECTRAL_REL_TOL * gr,
            f"gaussian_rate {r.gaussian_rate!r} differs from the FFT-grid mean {gr!r}",
        )
        if lowest:
            out += _problem(
                abs(r.ie_simple - 0.5 * r.gaussian_rate) <= LOW_SNR_IE_TOL,
                f"ie_simple {r.ie_simple:.6g} not within 1e-3 bits of gaussian_rate/2",
            )
        return out

    return check


def bounds_mc(seed: int, tiny: bool = False) -> Plan:
    x = isirate.bpsk()
    grid = [-12.0, 3.0] if tiny else _grid(-12.0, 15.0, 3.0)
    ops = []
    for name, ch in (("jeong", isirate.jeong()), ("jeong_spaced", isirate.jeong_spaced())):
        for db in grid:
            rho = _rho(db)
            ops.append(
                Op(
                    f"bound_report {name} {db:+g} dB mc",
                    lambda ch=ch, rho=rho: isirate.bound_report(
                        ch, x, rho, i_mmse_method="mc", n_samples=BOUNDS_MC_SAMPLES, seed=seed
                    ),
                    _check_bounds_mc(ch, x, rho, lowest=db == grid[0]),
                )
            )
    warm = lambda: isirate.bound_report(isirate.channel_b(), x, 1.0, i_mmse_method="none")
    return Plan(tuple(ops), warm)


# ---------------------------------------------------------------------------
# low_snr_exact: figs 1a and 1b, exact I_MMSE and the gap series


def _check_low_snr(ch, x, rho: float, lowest: bool):
    def check(r) -> list[str]:
        if r.i_mmse_method != "exact" or r.gap_series is None:
            return [f"expected an exact I_MMSE and a gap series, got {r.i_mmse_method}"]
        gap = r.i_mmse - r.i_sl
        out = _problem(gap < 0.0, f"I_MMSE - I_SL = {gap:.3e} is not negative")
        if ref.eps0(ch.taps, rho) <= SERIES_EPS0_MAX:
            out += _problem(
                abs(r.gap_series - gap) <= SERIES_REL_TOL * abs(gap),
                f"gap series {r.gap_series:.4e} not within 20% of the gap {gap:.4e}",
            )
        if lowest:
            own = _own_i_mmse(ch, x, rho)
            out += _problem(
                abs(r.i_mmse - own) <= ENUMERATION_ABS_TOL,
                f"I_MMSE {r.i_mmse!r} differs from the enumeration {own!r}",
            )
        return out

    return check


@functools.cache  # the same output is checked once per round
def _own_i_mmse(ch, x, rho: float) -> float:
    design = isirate.design_mmse_dfe(ch, x, rho)
    return ref.residual_channel_mi(design.residual, design.noise_var, x.atoms, x.probs)


def low_snr_exact(seed: int, tiny: bool = False) -> Plan:
    ch = isirate.channel_b()
    grid = [-28.0, -26.0] if tiny else _grid(-28.0, -14.0, 2.0)
    ops = []
    for name, x in (
        ("trinary(0.01)", isirate.make_trinary(0.01)),
        ("skewed_binary(0.002)", isirate.make_skewed_binary(0.002)),
    ):
        for db in grid:
            rho = _rho(db)
            ops.append(
                Op(
                    f"bound_report channel_b {name} {db:+g} dB exact",
                    lambda x=x, rho=rho: isirate.bound_report(
                        ch, x, rho, i_mmse_method="exact", include_gap_series=True
                    ),
                    _check_low_snr(ch, x, rho, lowest=db == grid[0]),
                )
            )
    skewed = isirate.make_skewed_binary(0.002)
    warm = lambda: isirate.bound_report(
        ch, skewed, _rho(grid[0]), i_mmse_method="exact", include_gap_series=True
    )
    return Plan(tuple(ops), warm)


# ---------------------------------------------------------------------------
# trellis_rate: reduced figs 2a and 2b plus a 64-state and a memoryless point

TRELLIS_SYMBOLS = 10_000  # the library's minimum per seed
TRELLIS_FLOOR_MC_SAMPLES = 100_000  # MC I_MMSE floor of the 64-state point


def _check_rate(ch, x, rho: float, exact_floor: bool, mc_floor_seed: int | None):
    def check(est) -> list[str]:
        sig = est.std_error
        if not (math.isfinite(sig) and sig > 0.0):
            return [f"standard error {sig!r} is not positive"]
        tol = ref.four_sigma_multiplier(est.n_seeds) * sig
        cap = min(x.entropy, ref.gaussian_rate(ch.taps, rho))
        out = _problem(est.value >= -tol, f"rate {est.value:.6g} below -4 sigma")
        out += _problem(est.value <= cap + tol, f"rate {est.value:.6g} above min(H, gaussian_rate) + 4 sigma")
        if ch.length == 1:
            mi = isirate.mutual_info(x, rho * ch.taps[0] ** 2)
            out += _problem(abs(est.value - mi) <= tol, f"rate {est.value:.6g} not within 4 sigma of I_x {mi:.6g}")
        if exact_floor:
            floor = _exact_i_mmse(ch, x, rho)
            out += _problem(est.value >= floor - tol, f"rate {est.value:.6g} below exact I_MMSE {floor:.6g} - 4 sigma")
        if mc_floor_seed is not None:
            mc, mc_sig = _mc_i_mmse(ch, x, rho, mc_floor_seed)
            out += _problem(
                est.value >= mc - 4.0 * mc_sig - tol,
                f"rate {est.value:.6g} below MC I_MMSE {mc:.6g} - 4 sigma_mc - 4 sigma",
            )
        return out

    return check


@functools.cache  # the same output is checked once per round
def _exact_i_mmse(ch, x, rho: float) -> float:
    return isirate.i_mmse_exact(isirate.design_mmse_dfe(ch, x, rho), x).value


@functools.cache  # the same output is checked once per round
def _mc_i_mmse(ch, x, rho: float, seed: int) -> tuple[float, float]:
    r = isirate.bound_report(ch, x, rho, i_mmse_method="mc", n_samples=TRELLIS_FLOOR_MC_SAMPLES, seed=seed)
    return r.i_mmse, r.i_mmse_std_error


def trellis_rate(seed: int, tiny: bool = False) -> Plan:
    ch_b = isirate.channel_b()
    skewed = isirate.make_skewed_binary(0.002)
    trinary = isirate.make_trinary(0.01)
    bpsk = isirate.bpsk()
    # (label, channel, input, SNR dB, seeds, exact I_MMSE floor, MC I_MMSE floor)
    points = [
        *[("channel_b skewed_binary(0.002)", ch_b, skewed, db, 16, True, False)
          for db in ([-20.0] if tiny else _grid(-20.0, -7.5, 2.5))],
        *[("channel_b trinary(0.01)", ch_b, trinary, db, 16, False, False)
          for db in ([-15.0] if tiny else _grid(-15.0, 2.5, 2.5))],
        ("jeong bpsk", isirate.jeong(), bpsk, 6.0, 8, False, True),
        ("memoryless bpsk", isirate.ChannelResponse((1.0,)), bpsk, 0.0, 64, False, False),
    ]
    ops = []
    for label, ch, x, db, n_seeds, floor, mc_floor in points:
        rho = _rho(db)
        ops.append(
            Op(
                f"estimate_rate {label} {db:+g} dB",
                lambda ch=ch, x=x, rho=rho, n_seeds=n_seeds: isirate.estimate_rate(
                    ch, x, rho, TRELLIS_SYMBOLS, n_seeds, seed
                ),
                _check_rate(ch, x, rho, floor, seed if mc_floor else None),
            )
        )
    warm = lambda: isirate.estimate_rate(ch_b, skewed, 0.1, TRELLIS_SYMBOLS, 1, seed)
    return Plan(tuple(ops), warm)


# ---------------------------------------------------------------------------
# high_snr: MMSE-DFE designs, bounds without I_MMSE and the exponent machinery

NULL_Q = 1.0 / math.sqrt(2.0)


def _check_dfe(ch, rho: float, null: bool):
    def check(design) -> list[str]:
        target = math.expm1(ref.gaussian_rate(ch.taps, rho))
        rel = design.snr_unbiased / target - 1.0
        out = _problem(abs(rel) <= DFE_SNR_REL_TOL, f"unbiased DFE SNR off by {rel:.3e} relative")
        if null:
            want = ref.two_tap_residual(NULL_Q, rho, TWO_TAP_LEADING)
            got = np.zeros(TWO_TAP_LEADING)
            n = min(TWO_TAP_LEADING, design.residual_full.size)
            got[:n] = design.residual_full[:n]
            dev = float(np.max(np.abs(got - want)))
            out += _problem(dev <= TWO_TAP_ABS_TOL, f"leading residual taps off the two-tap closed form by {dev:.3e}")
        return out

    return check


def _check_high_snr_bounds(ch, x, rho: float):
    def check(r) -> list[str]:
        gr = ref.gaussian_rate(ch.taps, rho)
        out = _problem(
            abs(r.gaussian_rate - gr) <= SPECTRAL_REL_TOL * gr,
            f"gaussian_rate {r.gaussian_rate!r} differs from the FFT-grid mean {gr!r}",
        )
        out += _problem(r.i_sow <= r.i_sl + ROUNDING, f"i_sow {r.i_sow:.6g} > i_sl {r.i_sl:.6g}")
        out += _problem(r.i_sl <= min(x.entropy, gr) + ROUNDING, f"i_sl {r.i_sl:.6g} > min(H, gaussian_rate)")
        out += _problem(r.ie_simple <= r.ie_opt + ROUNDING, f"ie_simple {r.ie_simple:.6g} > ie_opt {r.ie_opt:.6g}")
        return out

    return check


def _check_crossover(grid: list[float]):
    def check(table) -> list[str]:
        rows = table.rows
        out = _problem(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} SNRs")
        out += _problem(
            all(r.log_upper is not None and math.isfinite(r.log_upper)
                and math.isfinite(r.log_lower) for r in rows),
            "a bound is missing or not finite above rho = 4",
        )
        first = next((r.rho for r in rows if r.certifies), None)
        out += _problem(table.crossing_rho == first, f"crossing {table.crossing_rho} is not the first certifying SNR {first}")
        return out

    return check


def _check_exponent_gap(ch, x):
    def check(gap) -> list[str]:
        own = ref.min_event_distance_sq(ch.taps, x.atoms)
        out = _problem(gap.strict, "exponent gap is not strict")
        out += _problem(
            abs(gap.delta_min_sq - own) <= DISTANCE_REL_TOL * own,
            f"delta_min^2 {gap.delta_min_sq!r} differs from the brute-force {own!r}",
        )
        out += _problem(gap.delta_min_sq > gap.g_zf_dfe, "delta_min^2 does not exceed g_zf_dfe")
        return out

    return check


def high_snr(seed: int, tiny: bool = False) -> Plan:
    x = isirate.bpsk()
    null = isirate.ChannelResponse((NULL_Q, NULL_Q))
    channels = [("jeong", isirate.jeong()), ("null", null)]
    if not tiny:
        channels.insert(1, ("jeong_spaced", isirate.jeong_spaced()))
    snrs = [20.0] if tiny else [20.0, 30.0]
    crossover_db = [20.0, 30.0] if tiny else _grid(20.0, 30.0, 2.0)
    crossover_rho = [_rho(db) for db in crossover_db]
    ops = []
    for name, ch in channels:
        for db in snrs:
            rho = _rho(db)
            ops.append(
                Op(
                    f"design_mmse_dfe {name} {db:+g} dB",
                    lambda ch=ch, rho=rho: isirate.design_mmse_dfe(ch, x, rho),
                    _check_dfe(ch, rho, null=ch is null),
                )
            )
            ops.append(
                Op(
                    f"bound_report {name} {db:+g} dB none",
                    lambda ch=ch, rho=rho: isirate.bound_report(ch, x, rho, i_mmse_method="none"),
                    _check_high_snr_bounds(ch, x, rho),
                )
            )
        ops.append(
            Op(
                f"crossover_probe {name}",
                lambda ch=ch: isirate.crossover_probe(ch, x, crossover_rho),
                _check_crossover(crossover_db),
            )
        )
        ops.append(
            Op(f"exponent_gap {name}", lambda ch=ch: isirate.exponent_gap(ch, x), _check_exponent_gap(ch, x))
        )
    flat = isirate.ChannelResponse((1.0,))
    ops.append(
        Op(
            "bound_report flat +30 dB none",
            lambda: isirate.bound_report(flat, x, _rho(30.0), i_mmse_method="none"),
            _check_high_snr_bounds(flat, x, _rho(30.0)),
            expected_failure="closed_form_summary gives beta1_sq = -2.3e-21 by cancellation "
            "on a flat channel, so ie_conj raises DomainError",
        )
    )
    warm = lambda: (isirate.design_mmse_dfe(isirate.channel_b(), x, 10.0), isirate.exponent_gap(isirate.channel_b(), x))
    return Plan(tuple(ops), warm)


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "bounds_mc": bounds_mc,
    "low_snr_exact": low_snr_exact,
    "trellis_rate": trellis_rate,
    "high_snr": high_snr,
}
