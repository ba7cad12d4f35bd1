"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper
that records a span: name, start, end, parent span, round and the
layer's own counts (mixture components, MC samples, feedforward taps,
trellis symbols, search nodes). The wrapper is bound under every name
that refers to the function in the package's modules, so calls from one
layer into another are recorded too, and it is taken out again by
``uninstall``. A traced name that no longer exists is listed in
``missing`` and skipped.

The three layers with the largest allocations also record their
allocation peak through ``tracemalloc``, which runs only inside their
spans.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

TRACED = {
    "channel": ("spectral_summary",),
    "scalar": ("mutual_info", "mmse"),
    "gaussmix": ("mixture_entropy",),
    "equalizer": ("design_mmse_dfe",),
    "bounds": ("bound_report", "ie_opt", "i_mmse_exact", "i_mmse_mc"),
    "rate_sim": ("estimate_rate",),
    "highsnr": ("crossover_probe", "exponent_gap", "delta_min_sq"),
}
PEAK_TRACED = ("bounds.i_mmse_exact", "bounds.i_mmse_mc", "equalizer.design_mmse_dfe")
TRELLIS_STATES = (4, 9, 64)

# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer a workload does not reach reads 0.
METRICS = {
    "channel.spectral_summary.calls": "count",
    "channel.spectral_summary.self_s": "s",
    "scalar.mutual_info.calls": "count",
    "scalar.mutual_info.self_s": "s",
    "scalar.mmse.calls": "count",
    "scalar.mmse.self_s": "s",
    "bounds.ie_opt.self_s": "s",
    "gaussmix.mixture_entropy.calls": "count",
    "gaussmix.mixture_entropy.self_s": "s",
    "bounds.i_mmse_exact.self_s": "s",
    "bounds.i_mmse_exact.components": "count",
    "bounds.i_mmse_exact.peak_mb": "MB",
    "bounds.i_mmse_mc.self_s": "s",
    "bounds.i_mmse_mc.samples_per_s": "1/s",
    "bounds.i_mmse_mc.peak_mb": "MB",
    "bounds.bound_report.self_s": "s",
    "equalizer.design_mmse_dfe.calls": "count",
    "equalizer.design_mmse_dfe.self_s": "s",
    "equalizer.design_mmse_dfe.ff_half_len_max": "taps",
    "equalizer.design_mmse_dfe.peak_mb": "MB",
    "rate_sim.estimate_rate.self_s": "s",
    **{f"rate_sim.symbols_per_s.states_{s}": "1/s" for s in TRELLIS_STATES},
    "highsnr.crossover_probe.self_s": "s",
    "highsnr.exponent_gap.self_s": "s",
    "highsnr.delta_min_sq.self_s": "s",
    "highsnr.delta_min_sq.nodes": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


@dataclass
class Span:
    name: str
    parent: int | None
    round: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _counts(name: str, signature, args, kwargs, out) -> dict:
    """The layer's own work counts, read from its arguments and result."""
    if name == "bounds.i_mmse_exact":
        return {"components": sum(out.n_components)}
    if name == "bounds.i_mmse_mc":
        return {"samples": out.n_samples}
    if name == "equalizer.design_mmse_dfe":
        return {"ff_half_len": out.ff_half_len}
    if name == "highsnr.delta_min_sq":
        return {"nodes": out.nodes_explored}
    if name == "rate_sim.estimate_rate" and signature is not None:
        given = signature.bind(*args, **kwargs).arguments
        ch, x = given.get("channel"), given.get("x")
        if ch is not None and x is not None:
            return {"states": len(x.atoms) ** (ch.length - 1), "symbols": out.n_samples * out.n_seeds}
    return {}


class Tracer:
    """Records spans of the traced layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "isirate" or n.startswith("isirate.")]
        for mod_name, names in TRACED.items():
            module = sys.modules.get(f"isirate.{mod_name}")
            for fn_name in names:
                qual = f"{mod_name}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.missing.append(qual)
                    continue
                wrapper = self._wrap(qual, fn)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is fn]:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        peak = qual in PEAK_TRACED

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(qual, self._stack[-1] if self._stack else None, self.round)
            self.spans.append(span)
            self._stack.append(idx)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if own_malloc:
                    span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            span.attrs.update(_counts(qual, signature, args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def as_json(self) -> dict:
        return {
            "missing": self.missing,
            "spans": [
                {"name": s.name, "parent": s.parent, "round": s.round,
                 "start": s.start, "end": s.end, **s.attrs}
                for s in self.spans
            ],
        }


def round_metrics(tracer: Tracer, round_index: int, round_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced round (overhead is added by the caller)."""
    own = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    peaks: dict[str, float] = {}
    ff_max = 0
    covered = 0.0
    states_symbols = {s: 0 for s in TRELLIS_STATES}
    states_time = {s: 0.0 for s in TRELLIS_STATES}
    for s, t in zip(tracer.spans, own):
        if s.round != round_index:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        if s.parent is None:
            covered += s.end - s.start
        for key in ("components", "samples", "nodes"):
            if key in s.attrs:
                sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0) + s.attrs[key]
        if "peak_mb" in s.attrs:
            peaks[s.name] = max(peaks.get(s.name, 0.0), s.attrs["peak_mb"])
        if "ff_half_len" in s.attrs:
            ff_max = max(ff_max, s.attrs["ff_half_len"])
        if s.attrs.get("states") in states_symbols:
            states_symbols[s.attrs["states"]] += s.attrs["symbols"]
            states_time[s.attrs["states"]] += t
    mc_time = self_s.get("bounds.i_mmse_mc", 0.0)
    out = {}
    for metric in METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif kind == "peak_mb":
            out[metric] = peaks.get(layer, 0.0)
        elif kind in ("components", "nodes"):
            out[metric] = sums.get(metric, 0)
    out["bounds.i_mmse_mc.samples_per_s"] = (
        sums.get("bounds.i_mmse_mc.samples", 0) / mc_time if mc_time > 0.0 else 0.0
    )
    out["equalizer.design_mmse_dfe.ff_half_len_max"] = ff_max
    for s in TRELLIS_STATES:
        out[f"rate_sim.symbols_per_s.states_{s}"] = (
            states_symbols[s] / states_time[s] if states_time[s] > 0.0 else 0.0
        )
    out["trace.uncovered_share"] = (round_wall - covered) / round_wall
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
