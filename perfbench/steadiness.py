"""Run the benchmark several times on one workload and report its spread.

    python3 perfbench/steadiness.py --workload bounds_mc --runs 10 --seconds 10

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the script prints the per-run values, their median and
the distance between the first and third quartiles as a share of the
median, and it prints the share of failed operations of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{res['failed']}/{res['attempted']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
    print(f"failed/attempted per run: {' '.join(shares)}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {med:.4f}, quartile spread {(q3 - q1) / med:.4f} of the median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
