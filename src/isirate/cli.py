"""Command-line experiment runner.

Subcommands: analyze, dfe, bounds, simulate, dmin, highsnr-probe, figure.
Rates are computed in nats internally and emitted in bits. CSV files use
17 significant digits so sub-1e-8-bit gaps survive serialization. Exit
codes: 0 success, 2 configuration error, 3 numerical failure.

`bounds` and `figure` run one sweep. Its I_MMSE route is `exact` or
`none`, and every figure takes `exact`, so the only sampling left on the
command line is the rate simulation of `simulate` and fig2a/fig2b.

The worker-pool width for SNR sweeps comes from ISIRATE_THREADS
(default 1); outputs are written in grid order and are byte-identical
for a fixed configuration and seed regardless of the thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .bounds import bound_report
from .channel import CHANNEL_PRESETS, ChannelResponse, spectral_summary
from .equalizer import design_mmse_dfe
from .errors import DomainError, IsirateError
from .highsnr import crossover_probe, exponent_gap
from .rate_sim import estimate_rate
from .scalar import InputDistribution, parse_input_spec

LOG2 = math.log(2.0)


def _bits(x):
    return None if x is None else x / LOG2


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(x, ".17g")


def parse_channel(spec: str, normalize: bool = False) -> ChannelResponse:
    """A preset name, JSON taps or a JSON file, rescaled to unit energy
    when normalize is set."""
    if spec in CHANNEL_PRESETS:
        ch = CHANNEL_PRESETS[spec]()
    elif spec.lstrip().startswith("["):
        ch = ChannelResponse.from_json(spec)
    elif Path(spec).exists():
        ch = ChannelResponse.from_json(Path(spec).read_text())
    else:
        raise DomainError(f"unknown channel spec {spec!r}")
    return ch.normalized if normalize else ch


def parse_input(spec: str) -> InputDistribution:
    path = Path(spec)
    if spec.endswith(".json") and path.exists():
        return InputDistribution.from_json(path.read_text())
    return parse_input_spec(spec)


def _finite_db(values: list[float]) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        raise DomainError("SNR values must be finite dB")
    return values


def _rho(snr_db: float) -> float:
    """rho = 10^(dB/10); a dB value whose rho is not finite and positive
    (non-finite, above about 3083 dB or below about -3233 dB) is a
    configuration error."""
    try:
        rho = 10 ** (snr_db / 10.0)
    except OverflowError:
        rho = math.inf
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"SNR {snr_db} dB gives rho = {rho}, not finite and positive")
    return rho


def parse_snr_grid(spec: str) -> list[float]:
    """'a:b:step' (inclusive), 'a,b,c' or a single value, all finite dB."""
    if ":" in spec:
        parts = _finite_db([float(p) for p in spec.split(":")])
        if len(parts) != 3 or parts[2] <= 0:
            raise DomainError("grid must be start:stop:step with step > 0")
        start, stop, step = parts
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1 or start > stop:
            raise DomainError("empty SNR grid")
        return [start + i * step for i in range(n)]
    grid = _finite_db([float(p) for p in spec.split(",")])
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("SNR grid must be strictly increasing")
    return grid


def _n_threads() -> int:
    return max(1, int(os.environ.get("ISIRATE_THREADS", "1")))


def _pool_map(fn, items):
    n = _n_threads()
    if n == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) if isinstance(v, float) or v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    ss = spectral_summary(ch, _rho(args.snr_db))
    out = {
        "taps": list(ch.taps),
        "energy": ch.energy(),
        "rho": ss.rho,
        "snr_le": ss.snr_le,
        "snr_dfe": ss.snr_dfe,
        "snr_zf_dfe": ss.snr_zf_dfe,
        "g_zf_dfe": ss.g_zf_dfe,
        "g_zf_le": ss.g_zf_le,
        "gaussian_rate_bits": _bits(ss.gaussian_rate),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_dfe(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    x = parse_input(args.input)
    design = design_mmse_dfe(ch, x, _rho(args.snr_db))
    out = {
        "rho": design.rho,
        "n_residual": int(design.residual.size),
        "noise_var": design.noise_var,
        "snr_unbiased": design.snr_unbiased,
        "beta0_sq": design.beta0_sq,
        "beta1_sq": design.beta1_sq,
        "gamma1_cu": design.gamma1_cu,
        "delta1_4": design.delta1_4,
        "eps0": design.eps0,
        "eps1": design.eps1,
        "S": design.S,
    }
    print(json.dumps(out, indent=2))
    if args.taps:
        rows = [[k + 1, float(a)] for k, a in enumerate(design.residual)]
        Path(args.taps).write_text(_csv_text(["k", "alpha"], rows))
    return 0


# BoundReport fields in column order; each rate, in nats, is written in
# bits as <field>_bits
_BOUND_FIELDS = (
    "rho",
    "gaussian_rate",
    "i_sow",
    "i_sl",
    "ie_simple",
    "ie_opt",
    "gamma1_opt",
    "gamma2_opt",
    "ie_conj",  # conjectured bound, not proven
    "i_mmse",
    "i_mmse_method",
    "i_mmse_err_bound",
    "gap_series",
    "eps0",
)
_UNITLESS = ("rho", "gamma1_opt", "gamma2_opt", "i_mmse_method", "eps0")
_BOUND_COLUMNS = ["snr_db"] + [f if f in _UNITLESS else f"{f}_bits" for f in _BOUND_FIELDS]


def _sweep(ch, x, grid, i_mmse, rate=None) -> str:
    """CSV text of one bound_report row per dB point of grid, gap series
    included; with rate = (n_symbols, n_seeds, seed) each row also carries
    the estimate_rate value and its standard error."""
    rhos = [_rho(db) for db in grid]  # every point checked before the sweep

    def point(i: int) -> list:
        rep = bound_report(ch, x, rhos[i], i_mmse, include_gap_series=True)
        row = [grid[i]] + [
            getattr(rep, f) if f in _UNITLESS else _bits(getattr(rep, f)) for f in _BOUND_FIELDS
        ]
        if rate:
            est = estimate_rate(ch, x, rhos[i], *rate)
            row += [_bits(est.value), _bits(est.std_error)]
        return row

    header = _BOUND_COLUMNS + (["rate_bits", "rate_stderr_bits"] if rate else [])
    return _csv_text(header, _pool_map(point, range(len(grid))))


def cmd_bounds(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    x = parse_input(args.input)
    text = _sweep(ch, x, parse_snr_grid(args.snr_db), args.i_mmse)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    x = parse_input(args.input)
    est = estimate_rate(ch, x, _rho(args.snr_db), args.n_symbols, args.n_seeds, args.seed)
    out = {
        "value_bits": _bits(est.value),
        "stderr_bits": _bits(est.std_error),
        "n": est.n_samples,
        "seeds": [list(s) for s in est.seeds],
    }
    print(json.dumps(out, indent=2))
    if args.per_seed:
        rows = [[i, _bits(r)] for i, r in enumerate(est.notes["per_seed"])]
        Path(args.per_seed).write_text(_csv_text(["stream", "rate_bits"], rows))
    return 0


def cmd_dmin(args) -> int:
    ch = parse_channel(args.channel)
    x = parse_input(args.input)
    # one search, on ch.normalized.min_phase: delta_min^2 depends only on
    # |H|^2, and exponent_gap raises unless the search is certified
    gap = exponent_gap(ch, x, max_len=args.max_len)
    out = {
        "delta_min_sq": gap.delta_min_sq,
        "witness": list(gap.witness),
        "certified": True,
        "nodes_explored": gap.nodes_explored,
        "g_zf_dfe": gap.g_zf_dfe,
        "strict": gap.strict,
        "min_phase_taps": list(ch.normalized.min_phase.taps),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_highsnr_probe(args) -> int:
    ch = parse_channel(args.channel)
    x = parse_input(args.input)
    grid = [_rho(db) for db in parse_snr_grid(args.snr_db)]
    table = crossover_probe(ch, x, grid, k_prime=args.k_prime)
    out = {
        "k_prime": args.k_prime,
        "crossing_rho": table.crossing_rho,
        "rows": [
            {
                "rho": r.rho,
                "log_upper": r.log_upper,
                "log_lower": r.log_lower,
                "certifies": r.certifies,
            }
            for r in table.rows
        ],
    }
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# figure reproduction

# name -> (channel, input, SNR grid in dB, simulated). Each figure is the
# exact-route bounds sweep of its row, plus the simulated rate for
# fig2a/fig2b. The fig2 grids cover the rise of the rate curves; beyond
# them everything saturates at the input entropy.
_FIGURES = {
    "fig1a": ("channel_b", "trinary(0.01)", "-28:-18:2", False),
    "fig1b": ("channel_b", "skewed_binary(0.002)", "-28:-18:2", False),
    "fig2a": ("channel_b", "trinary(0.01)", "-15:2.5:2.5", True),
    "fig2b": ("channel_b", "skewed_binary(0.002)", "-20:-7.5:2.5", True),
    "fig3": ("jeong", "bpsk", "-12:15:3", False),
    "fig4": ("jeong_spaced", "bpsk", "-12:15:3", False),
}


def cmd_figure(args) -> int:
    name = args.name
    if name not in _FIGURES:
        raise DomainError(f"unknown figure {name!r}")
    channel, inp, grid, simulated = _FIGURES[name]
    rate = None
    if simulated:
        rate = (5 * 10**8, 20, args.seed) if args.full else (10**7, 10, args.seed)
    n_symbols, n_seeds, seed = rate or (None, None, None)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    ch, x = parse_channel(channel), parse_input(inp)
    text = _sweep(ch, x, parse_snr_grid(grid), "exact", rate)
    (out_dir / f"{name}.csv").write_text(text)
    # the bounds options that rerun the sweep, then the simulation profile
    # of the simulated figures, which --full and --seed set
    manifest = {
        "figure": name,
        "channel": channel,
        "input": inp,
        "snr_db": grid,
        "i_mmse_method": "exact",
        "n_symbols": n_symbols,
        "n_seeds": n_seeds,
        "seed": seed,
        "threads": _n_threads(),
        "runtime_s": time.perf_counter() - t0,
        "version": __version__,
    }
    (out_dir / f"{name}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out_dir / name}.csv")
    return 0


# ---------------------------------------------------------------------------


_SNR_GRID_HELP = (
    "a:b:step, comma list or single dB value; write a grid that starts "
    "negative as --snr-db=-10:0:10, with the '='"
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isirate",
        description="Achievable-rate bounds for the discrete-time ISI channel "
        "with i.i.d. finite-alphabet inputs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_input=True, with_normalize=True):
        sp.add_argument("--channel", required=True, help="preset name, JSON taps or file")
        if with_normalize:
            sp.add_argument("--normalize", action="store_true", help="rescale taps to unit energy")
        if with_input:
            sp.add_argument(
                "--input",
                required=True,
                help="bpsk | trinary(p) | skewed_binary(p) | JSON {atoms, probs} or file",
            )

    sp = sub.add_parser("analyze", help="spectral summary of a channel")
    add_common(sp, with_input=False)
    sp.add_argument("--snr-db", type=float, required=True)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("dfe", help="design the unbiased MMSE-DFE")
    add_common(sp)
    sp.add_argument("--snr-db", type=float, required=True)
    sp.add_argument("--taps", default=None, help="write residual taps CSV here")
    sp.set_defaults(func=cmd_dfe)

    sp = sub.add_parser("bounds", help="bound sweep over an SNR grid")
    add_common(sp)
    sp.add_argument("--snr-db", required=True, help=_SNR_GRID_HELP)
    sp.add_argument(
        "--i-mmse",
        required=True,
        choices=["exact", "none"],
        help="I_MMSE route; exact exits 3 when its density grid outgrows its budget",
    )
    sp.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("simulate", help="trellis Monte-Carlo rate estimate")
    add_common(sp)
    sp.add_argument("--snr-db", type=float, required=True)
    sp.add_argument("--n-symbols", type=int, default=10**7)
    sp.add_argument("--n-seeds", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--per-seed", default=None, help="write per-stream rates CSV here")
    sp.set_defaults(func=cmd_simulate)

    # dmin and highsnr-probe read the channel's normalized form whatever
    # its scale, so they take no --normalize
    sp = sub.add_parser("dmin", help="minimum-distance error-event search")
    add_common(sp, with_normalize=False)
    sp.add_argument("--max-len", type=int, default=None)
    sp.set_defaults(func=cmd_dmin)

    sp = sub.add_parser("highsnr-probe", help="high-SNR exponent comparison")
    add_common(sp, with_normalize=False)
    sp.add_argument("--snr-db", required=True, help=_SNR_GRID_HELP)
    sp.add_argument(
        "--k-prime",
        type=float,
        default=1.0,
        help="sequence-detector error constant; absolute comparisons depend on it",
    )
    sp.set_defaults(func=cmd_highsnr_probe)

    sp = sub.add_parser("figure", help="reproduce a reference figure's data")
    sp.add_argument("name", help="fig1a|fig1b|fig2a|fig2b|fig3|fig4")
    sp.add_argument("--out-dir", default="figures")
    sp.add_argument("--seed", type=int, default=0, help="rate simulation seed (fig2a/fig2b)")
    sp.add_argument("--full", action="store_true", help="paper-scale rate simulation (fig2a/fig2b)")
    sp.set_defaults(func=cmd_figure)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IsirateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
