"""Command-line experiment runner.

Subcommands: analyze, dfe, bounds, simulate, dmin, highsnr-probe, figure.
Rates are computed in nats internally and emitted in bits. CSV files use
17 significant digits so sub-1e-8-bit gaps survive serialization. Exit
codes: 0 success, 2 configuration error, 3 numerical failure.

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
from .bounds import BoundReport, bound_report
from .channel import (
    CHANNEL_PRESETS,
    ChannelResponse,
    spectral_summary,
    to_minimum_phase,
)
from .equalizer import design_mmse_dfe
from .errors import DomainError, IsirateError
from .highsnr import crossover_probe, delta_min_sq, exponent_gap
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
    if spec in CHANNEL_PRESETS:
        ch = CHANNEL_PRESETS[spec]()
        return ch.normalized() if normalize else ch
    if spec.lstrip().startswith("["):
        return ChannelResponse.from_json(spec, normalize)
    path = Path(spec)
    if not path.exists():
        raise DomainError(f"unknown channel spec {spec!r}")
    return ChannelResponse.from_json(path.read_text(), normalize)


def parse_input(spec: str) -> InputDistribution:
    path = Path(spec)
    if spec.endswith(".json") and path.exists():
        return InputDistribution.from_json(path.read_text())
    return parse_input_spec(spec)


def parse_snr_grid(spec: str) -> list[float]:
    """'a:b:step' (inclusive), 'a,b,c' or a single value, all in dB."""
    if ":" in spec:
        parts = [float(p) for p in spec.split(":")]
        if len(parts) != 3 or parts[2] <= 0:
            raise DomainError("grid must be start:stop:step with step > 0")
        start, stop, step = parts
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1 or start > stop:
            raise DomainError("empty SNR grid")
        return [start + i * step for i in range(n)]
    if "," in spec:
        grid = [float(p) for p in spec.split(",")]
    else:
        grid = [float(spec)]
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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.write_text(_csv_text(header, rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    ss = spectral_summary(ch, 10 ** (args.snr_db / 10.0))
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
    design = design_mmse_dfe(ch, x, 10 ** (args.snr_db / 10.0))
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
        _write_csv(
            Path(args.taps),
            ["k", "alpha"],
            [[k + 1, float(a)] for k, a in enumerate(design.residual)],
        )
    return 0


_BOUND_COLUMNS = [
    "snr_db",
    "rho",
    "gaussian_rate_bits",
    "i_sow_bits",
    "i_sl_bits",
    "ie_simple_bits",
    "ie_opt_bits",
    "gamma1_opt",
    "gamma2_opt",
    "ie_conj_bits",  # conjectured bound, not proven
    "i_mmse_bits",
    "i_mmse_method",
    "i_mmse_std_error_bits",
    "i_mmse_err_bound_bits",
    "gap_series_bits",
]


def _bound_row(snr_db: float, rep: BoundReport) -> list:
    return [
        snr_db,
        rep.rho,
        _bits(rep.gaussian_rate),
        _bits(rep.i_sow),
        _bits(rep.i_sl),
        _bits(rep.ie_simple),
        _bits(rep.ie_opt),
        rep.gamma1_opt,
        rep.gamma2_opt,
        _bits(rep.ie_conj),
        _bits(rep.i_mmse),
        rep.i_mmse_method or "",
        _bits(rep.i_mmse_std_error),
        _bits(rep.i_mmse_err_bound),
        _bits(rep.gap_series),
    ]


def cmd_bounds(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    x = parse_input(args.input)
    grid = parse_snr_grid(args.snr_db)

    def point(snr_db: float) -> list:
        rep = bound_report(
            ch,
            x,
            10 ** (snr_db / 10.0),
            i_mmse_method=args.i_mmse,
            n_samples=args.n_samples,
            seed=args.seed,
            include_gap_series=args.gap_series,
        )
        return _bound_row(snr_db, rep)

    rows = _pool_map(point, grid)
    if args.out:
        _write_csv(Path(args.out), _BOUND_COLUMNS, rows)
    else:
        sys.stdout.write(_csv_text(_BOUND_COLUMNS, rows))
    return 0


def cmd_simulate(args) -> int:
    ch = parse_channel(args.channel, args.normalize)
    x = parse_input(args.input)
    est = estimate_rate(
        ch, x, 10 ** (args.snr_db / 10.0), args.n_symbols, args.n_seeds, args.seed
    )
    out = {
        "value_bits": _bits(est.value),
        "stderr_bits": _bits(est.std_error),
        "n": est.n_samples,
        "seeds": [list(s) for s in est.seeds],
    }
    print(json.dumps(out, indent=2))
    if args.per_seed:
        _write_csv(
            Path(args.per_seed),
            ["stream", "rate_bits"],
            [[i, _bits(r)] for i, r in enumerate(est.notes["per_seed"])],
        )
    return 0


def cmd_dmin(args) -> int:
    ch = parse_channel(args.channel, normalize=True)
    x = parse_input(args.input)
    search = delta_min_sq(ch, x, max_len=args.max_len)
    gap = exponent_gap(ch, x, max_len=args.max_len)
    out = {
        "delta_min_sq": search.delta_min_sq,
        "witness": list(search.witness),
        "certified": search.certified,
        "nodes_explored": search.nodes_explored,
        "g_zf_dfe": gap.g_zf_dfe,
        "strict": gap.strict,
        "min_phase_taps": list(to_minimum_phase(ch).taps),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_highsnr_probe(args) -> int:
    ch = parse_channel(args.channel, normalize=True)
    x = parse_input(args.input)
    grid = [10 ** (db / 10.0) for db in parse_snr_grid(args.snr_db)]
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


def _figure_gap(channel_spec, input_spec, snr_grid_db, out_dir, name, seed):
    ch = parse_channel(channel_spec)
    x = parse_input(input_spec)

    def point(snr_db):
        rho = 10 ** (snr_db / 10.0)
        design = design_mmse_dfe(ch, x, rho)
        rep = bound_report(
            ch, x, rho, i_mmse_method="exact", include_gap_series=True,
            seed=seed, design=design,
        )
        return [snr_db, design.eps0, _bits(rep.i_mmse - rep.i_sl), _bits(rep.gap_series)]

    rows = _pool_map(point, snr_grid_db)
    _write_csv(out_dir / f"{name}.csv", ["snr_db", "eps0", "gap_exact_bits", "gap_series_bits"], rows)
    return {"snr_grid_db": list(snr_grid_db)}


def _figure_rate(channel_spec, input_spec, snr_grid_db, out_dir, name, seed, n_symbols, n_seeds, i_mmse_method, n_samples):
    ch = parse_channel(channel_spec)
    x = parse_input(input_spec)

    def point(snr_db):
        rho = 10 ** (snr_db / 10.0)
        rep = bound_report(
            ch, x, rho, i_mmse_method=i_mmse_method, n_samples=n_samples, seed=seed
        )
        est = estimate_rate(ch, x, rho, n_symbols, n_seeds, seed)
        return [
            snr_db,
            _bits(est.value),
            _bits(est.std_error),
            _bits(rep.i_sl),
            _bits(rep.i_mmse),
            _bits(rep.i_mmse_std_error) or 0.0,
            _bits(rep.i_sow),
        ]

    rows = _pool_map(point, snr_grid_db)
    _write_csv(
        out_dir / f"{name}.csv",
        ["snr_db", "rate_bits", "rate_stderr_bits", "i_sl_bits", "i_mmse_bits", "i_mmse_stderr_bits", "i_sow_bits"],
        rows,
    )
    return {
        "snr_grid_db": list(snr_grid_db),
        "n_symbols": n_symbols,
        "n_seeds": n_seeds,
        "n_samples": n_samples,
        "i_mmse_method": i_mmse_method,
    }


def _figure_bounds(channel_spec, input_spec, snr_grid_db, out_dir, name, seed, n_samples):
    ch = parse_channel(channel_spec)
    x = parse_input(input_spec)

    def point(snr_db):
        rep = bound_report(
            ch, x, 10 ** (snr_db / 10.0), i_mmse_method="mc", n_samples=n_samples, seed=seed
        )
        return [
            snr_db,
            _bits(rep.i_mmse),
            _bits(rep.i_mmse_std_error),
            _bits(rep.i_sl),
            _bits(rep.i_sow),
            _bits(rep.ie_opt),
            _bits(rep.ie_simple),
        ]

    rows = _pool_map(point, snr_grid_db)
    _write_csv(
        out_dir / f"{name}.csv",
        ["snr_db", "i_mmse_mc_bits", "i_mmse_stderr_bits", "i_sl_bits", "i_sow_bits", "ie_opt_bits", "ie_simple_bits"],
        rows,
    )
    return {"snr_grid_db": list(snr_grid_db), "n_samples": n_samples}


def _grid(start, stop, step):
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def cmd_figure(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.name
    seed = args.seed
    t0 = time.time()
    if name == "fig1a":
        extra = _figure_gap("channel_b", "trinary(0.01)", _grid(-28.0, -18.0, 2.0), out_dir, name, seed)
    elif name == "fig1b":
        extra = _figure_gap("channel_b", "skewed_binary(0.002)", _grid(-28.0, -18.0, 2.0), out_dir, name, seed)
    elif name in ("fig2a", "fig2b"):
        # grids cover the rise of the rate curves for each input; beyond
        # them everything saturates at the input entropy. The trinary
        # mixture outgrows exact enumeration on most of its grid; the
        # skewed one fits on every point.
        if name == "fig2a":
            inp, grid, method = "trinary(0.01)", _grid(-15.0, 2.5, 2.5), "mc"
        else:
            inp, grid, method = "skewed_binary(0.002)", _grid(-20.0, -7.5, 2.5), "exact"
        n_symbols = 5 * 10**8 if args.full else 10**7
        n_seeds = 20 if args.full else 10
        extra = _figure_rate(
            "channel_b", inp, grid, out_dir, name, seed, n_symbols, n_seeds, method, args.n_samples
        )
    elif name == "fig3":
        extra = _figure_bounds("jeong", "bpsk", _grid(-12.0, 15.0, 3.0), out_dir, name, seed, args.n_samples)
    elif name == "fig4":
        extra = _figure_bounds("jeong_spaced", "bpsk", _grid(-12.0, 15.0, 3.0), out_dir, name, seed, args.n_samples)
    else:
        raise DomainError(f"unknown figure {name!r}")
    manifest = {
        "figure": name,
        "seed": seed,
        "full_profile": bool(args.full),
        "threads": _n_threads(),
        "runtime_s": time.time() - t0,
        "version": __version__,
        **extra,
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

    def add_common(sp, with_input=True):
        sp.add_argument("--channel", required=True, help="preset name, JSON taps or file")
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
        choices=["exact", "mc", "none"],
        help="I_MMSE route; exact exits 3 when the mixture outgrows its budget",
    )
    sp.add_argument("--n-samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--gap-series", action="store_true")
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

    sp = sub.add_parser("dmin", help="minimum-distance error-event search")
    add_common(sp)
    sp.add_argument("--max-len", type=int, default=None)
    sp.set_defaults(func=cmd_dmin)

    sp = sub.add_parser("highsnr-probe", help="high-SNR exponent comparison")
    add_common(sp)
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-samples", type=int, default=200_000)
    sp.add_argument("--full", action="store_true", help="paper-scale Monte-Carlo profile")
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
