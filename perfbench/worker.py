"""One benchmark process: set up a workload, time whole rounds, check outputs.

run.py starts this file with a fixed thread environment and ``src`` on
the module path. The set-up is the import of the library, the building
of the workload's channels and inputs and one cheap warm-up call; the
``ready`` time printed is ``time.perf_counter()`` at its end, a clock
that run.py shares.

With ``--setup-only`` the process stops there. Otherwise it runs one
untimed round (every operation of the workload once), then timed rounds
for as long as another round is expected to end within ``--seconds`` (at
least one), then checks the outputs of every round. With ``--trace-out`` it alternates an
untraced and a traced round, and writes the spans to that file.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _run_round(plan) -> tuple[float, list]:
    """Every operation once; returns the round's wall time and its outcomes."""
    outcomes = []
    start = time.perf_counter()
    for op in plan.ops:
        try:
            outcomes.append((op.run(), None))
        except Exception as exc:  # an operation that raises is counted as failed
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - start, outcomes


def _fits(start: float, walls: list[float], seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, ends within ``seconds``."""
    return time.perf_counter() - start + statistics.mean(walls) <= seconds


def _check(plan, rounds: list[list]) -> dict:
    attempted = failed = 0
    errors: dict[str, str] = {}
    wrong: dict[str, list[str]] = {}
    for outcomes in rounds:
        for op, (out, err) in zip(plan.ops, outcomes):
            attempted += 1
            if err is not None:
                failed += 1
                errors[op.label] = err + (f" (known fault: {op.expected_failure})" if op.expected_failure else "")
                continue
            try:
                problems = op.check(out)
            except Exception as exc:  # an output of the wrong shape is a wrong output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                wrong[op.label] = problems
    return {"attempted": attempted, "failed": failed, "correct": not wrong, "errors": errors, "wrong": wrong}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--tiny", action="store_true", help="reduced grids, for the benchmark's tests")
    args = parser.parse_args(argv)

    import workloads  # imports the library: part of the set-up

    plan = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    plan.warm_up()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready}
    # A first, untimed round lets allocations and lazy state settle, so every
    # timed round, however many fit, measures the same steady state.
    rounds = [_run_round(plan)[1]]
    walls = []
    start = time.perf_counter()
    if args.trace_out is None:
        while not walls or _fits(start, walls, args.seconds):
            wall, outcomes = _run_round(plan)
            walls.append(wall)
            rounds.append(outcomes)
        result["walls"] = walls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans

        tracer = spans.Tracer()
        traced = []
        while not traced or _fits(start, [u + t for u, t in zip(walls, traced)], args.seconds):
            wall, outcomes = _run_round(plan)
            walls.append(wall)
            rounds.append(outcomes)
            tracer.round = len(traced)
            tracer.install()
            try:
                wall, outcomes = _run_round(plan)
            finally:
                tracer.uninstall()
            traced.append(wall)
            rounds.append(outcomes)
        per_round = [spans.round_metrics(tracer, i, w) for i, w in enumerate(traced)]
        per_layer = spans.median_metrics(per_round)
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        per_layer = {k: per_layer[k] for k in spans.METRICS}
        result["per_layer"] = per_layer
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "untraced_walls": walls,
                        "traced_walls": traced, "per_layer": per_layer, **tracer.as_json()})
        )
    result.update(_check(plan, rounds))
    for label, err in result["errors"].items():
        print(f"failed: {label}: {err}", file=sys.stderr)
    for label, problems in result["wrong"].items():
        print(f"wrong: {label}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
