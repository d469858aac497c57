"""Spans around stagemix's public functions, recorded from outside the package.

`instrument` swaps each traced function for a wrapper in every stagemix
module namespace that holds it (cli imports names from its siblings), and
returns a function that puts the originals back. Spans are kept in memory
and written out when the run ends. Counts that need a function's arguments
or result (Philox words, window cells, file bytes) are computed right after
the call in a `trace.hook` span, a child of the caller, so hook time never
lands in a layer's own time.

With `memory=True` the wrappers also take each PEAK_METRICS call's peak
`tracemalloc` allocation above what was live when it started. That pass runs
apart from the timed spans so the allocation tracing does not slow them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, attribute path); the span name is "<module>.<attribute path>".
TARGETS = (
    ("cli", "run"),
    ("schedule", "validate_condition"),
    ("sampling", "generate_manifest"),
    ("sampling", "ManifestSampler.from_state"),
    ("sampling", "ManifestSampler.take"),
    ("formats", "write_manifest"),
    ("formats", "read_manifest"),
    ("formats", "load_loss_trace"),
    ("formats", "save_loss_trace"),
    ("formats", "load_loss_spec"),
    ("dynamics", "LossTrace.validate"),
    ("dynamics", "stability_summary"),
    ("dynamics", "window_stats"),
    ("dynamics", "RollingWindow.push"),
    ("reports", "render_stability_summary"),
    ("simulate", "synth_loss"),
)

# Functions whose allocation peak the memory pass takes, and their metric.
PEAK_METRICS = {
    "sampling.generate_manifest": "sampling.generate_peak_mb",
    "formats.write_manifest": "formats.write_manifest_peak_mb",
    "formats.read_manifest": "formats.read_manifest_peak_mb",
    "formats.load_loss_trace": "formats.load_loss_trace_peak_mb",
    "dynamics.stability_summary": "dynamics.stability_summary_peak_mb",
}

MB = 2.0**20


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    counts: dict | None = None


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.peaks: list[tuple[int | None, str, float]] = []
        self.iteration: int | None = None
        self.memory = memory
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.iteration)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")


def _philox_words(args, result) -> dict:
    """Words generate_manifest draws: one per step for the choice, then whole
    permutations of each pool (ceil(draws / size) of them)."""
    registry = args[1]
    sizes = {src.name: src.size for src in registry}
    draws = np.bincount(result.dataset_ids, minlength=len(result.dataset_names))
    words = len(result) + sum(
        -(-int(n) // sizes[name]) * sizes[name] for name, n in zip(result.dataset_names, draws)
    )
    return {"philox_words": words, "events": len(result)}


def _path_bytes(key: str, func):
    signature = inspect.signature(func)

    def hook(args, result, kwargs) -> dict:
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {key: os.path.getsize(path)}

    return hook


def _hooks(name: str, func):
    if name == "sampling.generate_manifest":
        return lambda args, result, kwargs: _philox_words(args, result)
    if name == "dynamics.window_stats":
        return lambda args, result, kwargs: {"window_cells": len(result) * result.window}
    attr = name.split(".", 1)[1]
    if name.startswith("formats.") and attr.startswith(("write_", "save_")):
        return _path_bytes("bytes_written", func)
    if name.startswith("formats.") and attr.startswith(("read_", "load_")):
        return _path_bytes("bytes_read", func)
    return None


def _wrap(tracer: Tracer, name: str, func):
    hook = _hooks(name, func)
    peak = tracer.memory and name in PEAK_METRICS

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        if peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if peak:
            tracer.peaks.append((tracer.iteration, name, (tracemalloc.get_traced_memory()[1] - base) / MB))
        if hook is not None:
            inner = tracer.open("trace.hook")
            span.counts = hook(args, result, kwargs)
            tracer.close(inner)
        return result

    return wrapper


def instrument(tracer: Tracer):
    """Wrap every TARGETS function; returns a callable that undoes it."""
    for module_name, _ in TARGETS:
        importlib.import_module(f"stagemix.{module_name}")
    modules = [m for n, m in sys.modules.items() if n == "stagemix" or n.startswith("stagemix.")]
    undo = []
    for module_name, path in TARGETS:
        module = sys.modules[f"stagemix.{module_name}"]
        name = f"{module_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                replacement = _wrap(tracer, name, raw)
            setattr(cls, attr, replacement)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, path)
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# -- arithmetic over recorded spans ----------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _ancestor_names(span: Span, by_id: dict[int, Span]) -> set[str]:
    names = set()
    while span.parent is not None:
        span = by_id[span.parent]
        names.add(span.name)
    return names


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one iteration's spans (0 where a layer is idle)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    words = events = cells = passes = written = read = 0
    for s in spans:
        counts = s.counts or {}
        words += counts.get("philox_words", 0)
        events += counts.get("events", 0)
        outer_format = s.name.startswith("formats.") and not any(
            n.startswith("formats.") for n in _ancestor_names(s, by_id)
        )
        if outer_format:
            written += counts.get("bytes_written", 0)
            read += counts.get("bytes_read", 0)
        if s.name == "dynamics.window_stats" and "dynamics.stability_summary" in _ancestor_names(s, by_id):
            cells += counts.get("window_cells", 0)
            passes += 1
    summaries = calls.get("dynamics.stability_summary", 0)
    pushes = calls.get("dynamics.RollingWindow.push", 0)
    return {
        "cli.self_s": sum(own[s.id] for s in spans if s.name == "cli.run"),
        "schedule.validate_s": t("schedule.validate_condition"),
        "sampling.generate_s": t("sampling.generate_manifest"),
        "sampling.philox_words": words,
        "sampling.useful_word_ratio": events / words if words else 0.0,
        "sampling.resume_take_s": t("sampling.ManifestSampler.from_state") + t("sampling.ManifestSampler.take"),
        "formats.write_manifest_s": t("formats.write_manifest"),
        "formats.read_manifest_s": t("formats.read_manifest"),
        "formats.load_loss_trace_s": t("formats.load_loss_trace"),
        "formats.save_loss_trace_s": t("formats.save_loss_trace"),
        "formats.bytes_written": written,
        "formats.bytes_read": read,
        "dynamics.validate_s": t("dynamics.LossTrace.validate"),
        "dynamics.stability_summary_s": t("dynamics.stability_summary"),
        "dynamics.window_passes": passes / summaries if summaries else 0.0,
        "dynamics.window_cells": cells,
        "dynamics.push_us": 1e6 * t("dynamics.RollingWindow.push") / pushes if pushes else 0.0,
        "reports.render_s": t("reports.render_stability_summary"),
        "simulate.synth_loss_s": t("simulate.synth_loss"),
    }


def peak_metrics(peaks) -> dict[str, float]:
    """Largest peak per tracked function over a memory pass (0 where never called)."""
    out = {metric: 0.0 for metric in PEAK_METRICS.values()}
    for _, name, mb in peaks:
        metric = PEAK_METRICS[name]
        out[metric] = max(out[metric], mb)
    return out
