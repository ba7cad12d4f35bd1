"""Tests of the benchmark itself: tiny runs, the output checks and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isirate  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _outputs(plan) -> dict[str, object]:
    return {op.label: op.run() for op in plan.ops if op.expected_failure is None}


def _op(plan, prefix: str):
    return next(op for op in plan.ops if op.label.startswith(prefix))


@pytest.fixture(scope="module")
def tiny_plans():
    return {name: build(7, tiny=True) for name, build in workloads.WORKLOADS.items()}


@pytest.fixture(scope="module")
def tiny_outputs(tiny_plans):
    return {name: _outputs(plan) for name, plan in tiny_plans.items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3", "--tiny"],
        cwd=HERE.parent, env={"PYTHONPATH": str(HERE.parent / "src"), "OPENBLAS_NUM_THREADS": "1"},
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["wrong"] == {}
    ops = workloads.WORKLOADS[workload](3, tiny=True).ops
    known = sum(op.expected_failure is not None for op in ops)
    # an untimed round, then one timed round
    assert len(res["walls"]) == 1
    assert (res["attempted"], res["failed"]) == (2 * len(ops), 2 * known)


def test_flat_channel_is_the_one_known_failure(tiny_plans):
    flat = _op(tiny_plans["high_snr"], "bound_report flat")
    assert flat.expected_failure
    with pytest.raises(isirate.errors.DomainError):
        flat.run()


# --- every check fires on a deliberately wrong value -------------------------


def _fires(op, out, **changes) -> str:
    """The problems the check finds once ``changes`` are made to a right output."""
    assert op.check(out) == []
    return "; ".join(op.check(dataclasses.replace(out, **changes)))


def test_bounds_mc_checks_fire(tiny_plans, tiny_outputs):
    plan, outs = tiny_plans["bounds_mc"], tiny_outputs["bounds_mc"]
    op = _op(plan, "bound_report jeong -12")
    r = outs[op.label]
    sig = r.i_mmse_std_error
    assert "min(H, gaussian_rate)" in _fires(op, r, i_mmse=math.log(2.0) + 5.0 * sig)
    assert "i_sow" in _fires(op, r, i_sow=r.i_mmse + 5.0 * sig)
    assert "ie_opt" in _fires(op, r, ie_opt=r.i_mmse + 5.0 * sig, ie_simple=r.i_mmse + 5.0 * sig)
    assert "> ie_opt" in _fires(op, r, ie_simple=r.ie_opt + 1e-6)
    assert "FFT-grid" in _fires(op, r, gaussian_rate=r.gaussian_rate * (1.0 + 1e-6))
    assert "std error" in _fires(op, r, i_mmse_std_error=0.02)
    low = 0.5 * r.gaussian_rate - 2e-3 * math.log(2.0)  # 2e-3 bits off
    assert "1e-3 bits" in _fires(op, r, ie_simple=low, ie_opt=low)


def test_low_snr_checks_fire(tiny_plans, tiny_outputs):
    plan, outs = tiny_plans["low_snr_exact"], tiny_outputs["low_snr_exact"]
    op = _op(plan, "bound_report channel_b trinary(0.01) -28")
    r = outs[op.label]
    gap = r.i_mmse - r.i_sl
    assert "not negative" in _fires(op, r, i_mmse=r.i_sl + 1e-12)
    assert "20%" in _fires(op, r, gap_series=1.5 * gap)
    assert "enumeration" in _fires(op, r, i_mmse=r.i_mmse - 1e-8, i_sl=r.i_sl - 1e-8)


def test_trellis_checks_fire(tiny_plans, tiny_outputs):
    plan, outs = tiny_plans["trellis_rate"], tiny_outputs["trellis_rate"]
    skew = _op(plan, "estimate_rate channel_b skewed")
    est = outs[skew.label]
    x = isirate.make_skewed_binary(0.002)
    tol = ref.four_sigma_multiplier(est.n_seeds) * est.std_error
    assert "above min(H" in _fires(skew, est, value=x.entropy + 1.01 * tol)
    assert "below -4 sigma" in _fires(skew, est, value=-1.01 * tol)
    floor = workloads._exact_i_mmse(isirate.channel_b(), x, 0.01)
    assert "exact I_MMSE" in _fires(skew, est, value=floor - 1.01 * tol)
    assert "not positive" in _fires(skew, est, std_error=float("nan"))
    jeong = _op(plan, "estimate_rate jeong")
    est = outs[jeong.label]
    assert est.n_seeds == 8
    tol = ref.four_sigma_multiplier(est.n_seeds) * est.std_error
    mc, mc_sig = workloads._mc_i_mmse(isirate.jeong(), isirate.bpsk(), workloads._rho(6.0), 7)
    assert "MC I_MMSE" in _fires(jeong, est, value=mc - 4.0 * mc_sig - 1.01 * tol)
    flat = _op(plan, "estimate_rate memoryless")
    est = outs[flat.label]
    tol = ref.four_sigma_multiplier(est.n_seeds) * est.std_error
    assert "I_x" in _fires(flat, est, value=est.value + 2.0 * tol)


def test_high_snr_checks_fire(tiny_plans, tiny_outputs):
    plan, outs = tiny_plans["high_snr"], tiny_outputs["high_snr"]
    for label in ("design_mmse_dfe jeong", "design_mmse_dfe null"):
        op = _op(plan, label)
        d = outs[op.label]
        assert op.check(d) == []
        off = SimpleNamespace(snr_unbiased=d.snr_unbiased * (1.0 + 1e-3), residual_full=d.residual_full)
        assert "DFE SNR" in "; ".join(op.check(off))  # off by 1e-3
    taps = d.residual_full.copy()
    taps[1] += 1e-6
    assert "two-tap" in "; ".join(op.check(SimpleNamespace(snr_unbiased=d.snr_unbiased, residual_full=taps)))
    op = _op(plan, "exponent_gap jeong")
    g = outs[op.label]
    assert "brute-force" in _fires(op, g, delta_min_sq=g.delta_min_sq * (1.0 + 1e-6))
    assert "not strict" in _fires(op, g, strict=False)
    op = _op(plan, "crossover_probe jeong")
    t = outs[op.label]
    assert "first certifying" in _fires(op, t, crossing_rho=t.rows[-1].rho + 1.0)
    assert "rows for" in _fires(op, t, rows=t.rows[:-1])
    op = _op(plan, "bound_report jeong")
    r = outs[op.label]
    assert "i_sl" in _fires(op, r, i_sl=math.log(2.0) + 1e-6)
    assert "i_sow" in _fires(op, r, i_sow=r.i_sl + 1e-6)


# --- references -------------------------------------------------------------


def test_references_agree_with_independent_forms():
    # a flat channel's Gaussian rate is log(1 + rho)
    assert ref.gaussian_rate((1.0,), 3.0) == pytest.approx(math.log(4.0), rel=1e-14)
    # one equiprobable +-1 symbol through N(0, 1): I = log 2 - E log(1 + e^{-2Y})
    mi = ref.residual_channel_mi([], 1.0, (-1.0, 1.0), (0.5, 0.5))
    assert mi == pytest.approx(isirate.mutual_info(isirate.bpsk(), 1.0), abs=1e-12)
    assert ref.min_event_distance_sq((1.0, 1.0), (-1.0, 1.0)) == pytest.approx(1.0)
    assert ref.four_sigma_multiplier(10**6) == pytest.approx(4.0, abs=1e-3)
    assert ref.four_sigma_multiplier(16) > 5.0


# --- tracer -----------------------------------------------------------------


def test_tracer_records_calls_between_layers_and_restores():
    original = isirate.bounds.spectral_summary
    tracer = spans.Tracer()
    tracer.round = 0
    tracer.install()
    try:
        isirate.bound_report(isirate.channel_b(), isirate.bpsk(), 1.0, i_mmse_method="none")
    finally:
        tracer.uninstall()
    assert isirate.bounds.spectral_summary is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "bounds.bound_report"
    assert names.count("channel.spectral_summary") == 4  # direct, ie_opt, ie_simple, ie_conj
    assert all(s.parent == 0 for s in tracer.spans if s.name == "bounds.ie_opt")
    m = spans.round_metrics(tracer, 0, tracer.spans[0].end - tracer.spans[0].start)
    assert m["channel.spectral_summary.calls"] == 4
    assert m["trace.uncovered_share"] == pytest.approx(0.0, abs=1e-12)
    assert sum(tracer.self_times()) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_tracer_tolerates_a_removed_name(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "bounds", ("bound_report", "no_such_function"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["bounds.no_such_function"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trellis_rate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
