"""In-memory span tracing of coughscreen's public functions, from outside the package.

``Tracer.install`` replaces each target function with a wrapper that records a
span ``(name, start, end, parent, run_id, attrs)``. The wrapper is bound under
every name a caller can look it up by: the defining module or class, every
``coughscreen`` module that imported the function by name (``pipeline`` imports
``extract``, ``fit_scaler`` and ``apply_scaler``; ``cli`` imports ``extract`` and
``load_manifest``), and dict values such as ``cli._COMMANDS``. ``uninstall``
puts the originals back. Nothing under ``src/`` is changed.

Span times are process CPU time (``time.process_time``), like the benchmark's
gated times, so hypervisor steal on a shared machine does not show in them.
``layer_metrics`` turns one round of spans into the per-layer metrics that
BENCHMARK.json lists. ``busy_s`` is the time inside a call (outermost spans
only, so nested calls of the same group are not counted twice); ``self_s`` is
that time minus the part of it covered by direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str
    attrs: dict


def _fit_lr_attrs(args, kwargs, model):
    return {"iterations": model.n_iter, "not_converged": int(not model.converged)}


def _fit_gbdt_attrs(args, kwargs, model):
    return {"trees": len(model.trees), "rows": int(np.shape(args[0])[0])}


def _predict_attrs(args, kwargs, probs):
    return {"rows": int(np.shape(probs)[0])}


def _write_report_attrs(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# (module, attribute path, span name, attrs function)
TARGETS = [
    ("dsp", "read_wav", "dsp.read_wav", None),
    ("dsp", "resample", "dsp.resample", None),
    ("data", "load_manifest", "data.load_manifest", None),
    ("data", "fit_scaler", "data.fit_scaler", None),
    ("data", "apply_scaler", "data.apply_scaler", None),
    ("features", "extract", "features.extract", None),
    ("cli", "_cmd_features", "cli.features", None),
    ("synth", "generate_synthetic", "synth.generate_synthetic", None),
    ("pipeline", "build_feature_table", "pipeline.build_feature_table", None),
    ("pipeline", "run_fold", "pipeline.run_fold", None),
    ("splits", "build_nested_plan", "splits.build_nested_plan", None),
    ("models", "fit_lr", "models.fit_lr", _fit_lr_attrs),
    ("models", "fit_gbdt", "models.fit_gbdt", _fit_gbdt_attrs),
    ("models", "predict_model", "models.predict_model", _predict_attrs),
    ("calibration", "fit_isotonic", "calibration.fit_isotonic", None),
    ("calibration", "apply_isotonic", "calibration.apply_isotonic", None),
    ("calibration", "youden_threshold", "calibration.youden_threshold", None),
    ("calibration", "brier", "calibration.brier", None),
    ("calibration", "ece", "calibration.ece", None),
    ("conformal", "fit_conformal", "conformal.fit_conformal", None),
    ("conformal", "ConformalCalibrator.prediction_sets", "conformal.prediction_sets", None),
    ("conformal", "evaluate_sets", "conformal.evaluate_sets", None),
    ("conformal", "selective_metrics", "conformal.selective_metrics", None),
    ("metrics", "full_suite", "metrics.full_suite", None),
    ("metrics", "aggregate_cougher", "metrics.aggregate_cougher", None),
    ("reports", "aggregate_folds", "reports.aggregate_folds", None),
    ("reports", "write_report", "reports.write_report", _write_report_attrs),
    ("experiment", "run_experiment", "experiment.run_experiment", None),
]

GROUPS = {
    "calibration": ["calibration.fit_isotonic", "calibration.apply_isotonic",
                    "calibration.youden_threshold", "calibration.brier", "calibration.ece"],
    "conformal": ["conformal.fit_conformal", "conformal.prediction_sets",
                  "conformal.evaluate_sets", "conformal.selective_metrics"],
    "metrics": ["metrics.full_suite", "metrics.aggregate_cougher"],
}


class Tracer:
    """Records spans while installed; a span's run id is ``run_id`` at its start.

    Parent indices point into this tracer's own ``spans`` list, so use one
    tracer per round of calls whose spans are analysed together.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, original, attrs_fn):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)  # reserved so children index after their parent
            parent = self._stack[-1] if self._stack else None
            run_id = self.run_id
            self._stack.append(idx)
            start = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.process_time()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, run_id, {})
            if attrs_fn is not None:
                self.spans[idx].attrs.update(attrs_fn(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "coughscreen" or n.startswith("coughscreen."))]
        for module_name, path, name, attrs_fn in TARGETS:
            owner = sys.modules[f"coughscreen.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs_fn)
            self._set(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._undo.append((value.__setitem__, k, v))
                                value[k] = wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its direct children."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


def _outermost(spans, names) -> list:
    """Indices of spans in ``names`` with no enclosing span in ``names``."""
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def busy(spans, names) -> float:
    return sum(spans[i].end - spans[i].start for i in _outermost(spans, set(names)))


def layer_metrics(spans, gbdt_grid_trees: int) -> dict:
    """Per-layer metrics of one round of spans (see BENCHMARK.json ``per_layer``).

    Layers a workload never calls report 0. ``gbdt_grid_trees`` is the tree
    count of the documented GBDT grid per (family, mode) at 10x5 folds, used
    for the full-grid CPU-hour estimate.
    """
    selfs = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def calls(name):
        return len(named(name))

    def self_s(name):
        return sum(selfs[i] for i in named(name))

    def attr(name, key):
        return sum(spans[i].attrs[key] for i in named(name))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    extract_ms = [1e3 * (spans[i].end - spans[i].start) for i in named("features.extract")]
    lr_s, gbdt_s = busy(spans, ["models.fit_lr"]), busy(spans, ["models.fit_gbdt"])
    trees = attr("models.fit_gbdt", "trees")
    ms_per_tree = per(gbdt_s, trees, 1e3)
    out = {
        "dsp.read_wav.calls": calls("dsp.read_wav"),
        "dsp.read_wav.busy_s": busy(spans, ["dsp.read_wav"]),
        "dsp.resample.calls": calls("dsp.resample"),
        "dsp.resample.busy_s": busy(spans, ["dsp.resample"]),
        "data.load_manifest.self_s": self_s("data.load_manifest"),
        "data.fit_scaler.calls": calls("data.fit_scaler"),
        "data.fit_scaler.busy_s": busy(spans, ["data.fit_scaler"]),
        "data.apply_scaler.busy_s": busy(spans, ["data.apply_scaler"]),
        "features.extract.calls": len(extract_ms),
        "features.extract.busy_s": busy(spans, ["features.extract"]),
        "features.extract.p50_ms": float(np.percentile(extract_ms, 50)) if extract_ms else 0.0,
        "features.extract.p99_ms": float(np.percentile(extract_ms, 99)) if extract_ms else 0.0,
        "cli.features.self_s": self_s("cli.features"),
        "synth.generate_synthetic.busy_s": busy(spans, ["synth.generate_synthetic"]),
        "pipeline.build_feature_table.self_s": self_s("pipeline.build_feature_table"),
        "pipeline.run_fold.calls": calls("pipeline.run_fold"),
        "pipeline.run_fold.self_s": self_s("pipeline.run_fold"),
        "splits.build_nested_plan.busy_s": busy(spans, ["splits.build_nested_plan"]),
        "models.fit_lr.calls": calls("models.fit_lr"),
        "models.fit_lr.busy_s": lr_s,
        "models.fit_lr.ms_per_fit": per(lr_s, calls("models.fit_lr"), 1e3),
        "models.fit_lr.iterations": attr("models.fit_lr", "iterations"),
        "models.fit_lr.not_converged": attr("models.fit_lr", "not_converged"),
        "models.fit_gbdt.calls": calls("models.fit_gbdt"),
        "models.fit_gbdt.busy_s": gbdt_s,
        "models.fit_gbdt.trees": trees,
        "models.fit_gbdt.ms_per_tree": ms_per_tree,
        "models.fit_gbdt.rows_per_fit": per(attr("models.fit_gbdt", "rows"),
                                            calls("models.fit_gbdt")),
        "models.fit_gbdt.full_grid_cpu_h_est": ms_per_tree * gbdt_grid_trees / 3.6e6,
        "models.predict_model.calls": calls("models.predict_model"),
        "models.predict_model.rows": attr("models.predict_model", "rows"),
        "models.predict_model.busy_s": busy(spans, ["models.predict_model"]),
        "reports.aggregate_folds.busy_s": busy(spans, ["reports.aggregate_folds"]),
        "reports.write_report.busy_s": busy(spans, ["reports.write_report"]),
        "reports.write_report.bytes": attr("reports.write_report", "bytes"),
        "experiment.run_experiment.self_s": self_s("experiment.run_experiment"),
    }
    for group, names in GROUPS.items():
        out[f"{group}.busy_s"] = busy(spans, names)
    return out


# Counts that must repeat exactly between two traced rounds at one seed.
EXACT_COUNTS = ["features.extract.calls", "data.fit_scaler.calls", "models.fit_lr.calls",
                "models.fit_lr.iterations", "models.fit_lr.not_converged",
                "models.fit_gbdt.trees"]
