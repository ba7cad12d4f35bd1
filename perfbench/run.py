"""Benchmark of isirate's bound, rate-simulation and high-SNR pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload bounds_mc --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are end to end (set-up time, median round wall time, peak
resident memory); with ``--trace 1`` they are the per-layer metrics of a
traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds_mc", "low_snr_exact", "trellis_rate", "high_snr")
# Fresh interpreters that only set up, started before and after the measured
# process (a fifth sample), so that the samples span the whole run.
SETUP_PROBES_EACH_SIDE = 2
TIME_LIMIT_S = 170.0
# Written into every process the benchmark starts, whatever the caller's
# shell holds: one sweep thread and one BLAS thread.
THREAD_ENV = {
    "ISIRATE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py; return its start time on the shared clock and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return started, json.loads(lines[-1])


def _probe_setups(common: list[str], deadline: float) -> list[float]:
    setups = []
    for _ in range(SETUP_PROBES_EACH_SIDE):
        started, probe = _worker([*common, "--setup-only"], deadline)
        setups.append(probe["ready"] - started)
    return setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "isirate" / "__init__.py").is_file():
        print(f"no isirate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            _, res = _worker([*common, "--seconds", str(args.seconds), "--trace-out", str(out)], deadline)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in res["per_layer"].items()}
        else:
            setups = _probe_setups(common, deadline)
            started, res = _worker([*common, "--seconds", str(args.seconds)], deadline)
            setups.append(res["ready"] - started)
            setups += _probe_setups(common, deadline)
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(res["walls"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            print(f"setup_s samples {setups}; round walls {res['walls']}", file=sys.stderr)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
