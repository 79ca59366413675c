"""Aggregation and emission of run reports: JSON, summary CSV tables, SVG plots.

Aggregate cells are "mean ± std" strings for presentation; the raw floats
always live beside them in report.json, and every aggregate is
recomputable from the emitted per-fold rows. Undefined per-fold values
(NaN sentinels, e.g. PPV with no predicted positives) are excluded from
means with the exclusion count reported, never zero-substituted.

Volatile run facts (wall clock, environment, timestamps) go to meta.json;
report.json and every CSV are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import calibration
from .conformal import evaluate_sets
from .metrics import pr_curve, roc_curve
from .pipeline import FoldResult, json_clean
from .splits import NestedPlan, export_plan_csv

CLASSIFICATION_METRICS = ["threshold", "roc_auc", "pr_auc", "uar", "sensitivity",
                          "specificity", "ppv", "npv"]
CALIBRATION_METRICS = ["waveform_brier", "waveform_ece", "cougher_brier", "cougher_ece"]
SELECTIVE_METRICS = ["overall_accuracy", "accuracy_singleton", "accuracy_ambiguous",
                     "p_singleton_given_correct"]
LEVELS = ["waveform", "cougher"]


def _agg(values) -> dict:
    """NaN-excluding mean/std (ddof=1) with the exclusion count."""
    arr = np.asarray([v if v is not None else math.nan for v in values], dtype=np.float64)
    ok = arr[~np.isnan(arr)]
    return {
        "mean": float(ok.mean()) if ok.size else None,
        "std": float(ok.std(ddof=1)) if ok.size > 1 else (0.0 if ok.size == 1 else None),
        "n": int(ok.size),
        "n_excluded": int(arr.size - ok.size),
    }


def _cell(agg: dict) -> str:
    if agg["mean"] is None:
        return "n/a"
    return f"{agg['mean']:.2f} ± {agg['std']:.2f}"


def _fold_metric(r, level: str, metric: str) -> float:
    suite = r.waveform if level == "waveform" else r.cougher
    if metric == "threshold":
        return r.tau_w if level == "waveform" else r.tau_s
    return {"roc_auc": suite.roc_auc, "pr_auc": suite.pr_auc, "uar": suite.uar,
            "sensitivity": suite.sens, "specificity": suite.spec,
            "ppv": suite.ppv, "npv": suite.npv}[metric]


def aggregate_folds(fold_results, alphas) -> dict:
    """Across-fold aggregates for one (family, feature_mode) block."""
    out = {"classification": {}, "calibration": {}, "conformal": {}, "selective": {}}
    for level in LEVELS:
        out["classification"][level] = {
            m: _agg([_fold_metric(r, level, m) for r in fold_results])
            for m in CLASSIFICATION_METRICS
        }
    cal_fields = {
        "waveform_brier": ("brier_raw_wf", "brier_cal_wf"),
        "waveform_ece": ("ece_raw_wf", "ece_cal_wf"),
        "cougher_brier": ("brier_raw_cg", "brier_cal_cg"),
        "cougher_ece": ("ece_raw_cg", "ece_cal_cg"),
    }
    for name, (raw_attr, cal_attr) in cal_fields.items():
        out["calibration"][name] = {
            "raw": _agg([getattr(r, raw_attr) for r in fold_results]),
            "isotonic": _agg([getattr(r, cal_attr) for r in fold_results]),
        }
    for alpha in alphas:
        a = float(alpha)
        block = {k: _agg([r.conformal[a][k] for r in fold_results])
                 for k in ("coverage", "mean_size", "singleton_rate", "empty_rate", "qhat")}
        block["pooled"] = _pooled_conformal(fold_results, a)
        out["conformal"][a] = block
        sel = {k: _agg([r.selective[a][m] for r in fold_results])
               for k, m in zip(SELECTIVE_METRICS,
                               ["accuracy", "accuracy_singleton", "accuracy_ambiguous",
                                "p_singleton_given_correct"])}
        sel["pooled"] = _pooled_selective(fold_results, a)
        out["selective"][a] = sel
    return out


def _pooled_conformal(fold_results, alpha: float) -> dict:
    sets = np.concatenate([np.column_stack([r.test_sets[alpha]["has_neg"],
                                            r.test_sets[alpha]["has_pos"]])
                           for r in fold_results])
    labels = np.concatenate([r.test_cg_labels for r in fold_results])
    return {**evaluate_sets(sets, labels), "n": int(labels.size)}


def _pooled_selective(fold_results, alpha: float) -> dict:
    tot = {k: 0 for k in ("n", "n_singleton", "n_ambiguous", "n_correct",
                          "n_correct_singleton", "n_correct_ambiguous")}
    for r in fold_results:
        for k in tot:
            tot[k] += r.selective[alpha][k]

    def ratio(num, den):
        return num / den if den else None

    return {
        "overall_accuracy": ratio(tot["n_correct"], tot["n"]),
        "accuracy_singleton": ratio(tot["n_correct_singleton"], tot["n_singleton"]),
        "accuracy_ambiguous": ratio(tot["n_correct_ambiguous"], tot["n_ambiguous"]),
        "p_singleton_given_correct": ratio(tot["n_correct_singleton"], tot["n_correct"]),
        **tot,
    }


@dataclass
class RunReport:
    config: dict
    blocks: dict  # (family, feature_mode) -> {"folds": [...], "aggregates": {...}}
    plan: NestedPlan
    alphas: tuple
    environment: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def families(self):
        return sorted({fam for fam, _ in self.blocks})

    def modes(self):
        return sorted({mode for _, mode in self.blocks})


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def fold_row_header(alphas) -> list:
    cols = ["family", "feature_mode", "fold", "best_params", "tau_w", "tau_s"]
    for tag in ("wf", "cg"):
        for m in CLASSIFICATION_METRICS[1:]:
            cols.append(f"{tag}_{m}")
    cols += ["brier_raw_wf", "brier_cal_wf", "ece_raw_wf", "ece_cal_wf",
             "brier_raw_cg", "brier_cal_cg", "ece_raw_cg", "ece_cal_cg"]
    for a in alphas:
        tag = f"a{a:.2f}"
        cols += [f"qhat_{tag}", f"coverage_{tag}", f"mean_size_{tag}",
                 f"singleton_rate_{tag}", f"empty_rate_{tag}",
                 f"sel_accuracy_{tag}", f"sel_acc_singleton_{tag}",
                 f"sel_acc_ambiguous_{tag}", f"sel_p_singleton_correct_{tag}"]
    return cols


def fold_row(r, alphas) -> list:
    def fmt(v):
        return "" if v is None or (isinstance(v, float) and math.isnan(v)) else repr(float(v))

    row = [r.family, r.feature_mode, r.fold, json.dumps(r.best_params, sort_keys=True),
           fmt(r.tau_w), fmt(r.tau_s)]
    for level in LEVELS:
        for m in CLASSIFICATION_METRICS[1:]:
            row.append(fmt(_fold_metric(r, level, m)))
    for attr in ("brier_raw_wf", "brier_cal_wf", "ece_raw_wf", "ece_cal_wf",
                 "brier_raw_cg", "brier_cal_cg", "ece_raw_cg", "ece_cal_cg"):
        row.append(fmt(getattr(r, attr)))
    for a in alphas:
        a = float(a)
        c, s = r.conformal[a], r.selective[a]
        row += [fmt(c["qhat"]), fmt(c["coverage"]), fmt(c["mean_size"]),
                fmt(c["singleton_rate"]), fmt(c["empty_rate"]),
                fmt(s["accuracy"]), fmt(s["accuracy_singleton"]),
                fmt(s["accuracy_ambiguous"]), fmt(s["p_singleton_given_correct"])]
    return row


def classification_table(report: RunReport, mode: str) -> list:
    """Metrics x (model x level) table of mean ± std cells."""
    families = [f for f in report.families() if (f, mode) in report.blocks]
    header = ["metric"] + [f"{fam}_{level}" for level in LEVELS for fam in families]
    rows = [header]
    for m in CLASSIFICATION_METRICS:
        row = [m]
        for level in LEVELS:
            for fam in families:
                agg = report.blocks[(fam, mode)]["aggregates"]["classification"][level][m]
                row.append(_cell(agg))
        rows.append(row)
    return rows


def calibration_table(report: RunReport, mode: str) -> list:
    families = [f for f in report.families() if (f, mode) in report.blocks]
    header = ["metric"] + [f"{fam}_{stage}" for fam in families
                           for stage in ("raw", "isotonic")]
    rows = [header]
    for m in CALIBRATION_METRICS:
        row = [m]
        for fam in families:
            block = report.blocks[(fam, mode)]["aggregates"]["calibration"][m]
            row += [_cell(block["raw"]), _cell(block["isotonic"])]
        rows.append(row)
    return rows


def conformal_table(report: RunReport, mode: str) -> list:
    families = [f for f in report.families() if (f, mode) in report.blocks]
    header = ["level", "alpha"] + [f"{fam}_{col}" for fam in families
                                   for col in ("coverage", "size_singleton")]
    rows = [header]
    for alpha in report.alphas:
        row = ["cougher", f"{alpha:.2f}"]
        for fam in families:
            block = report.blocks[(fam, mode)]["aggregates"]["conformal"][float(alpha)]
            size = block["mean_size"]
            singleton = block["singleton_rate"]
            row.append(_cell(block["coverage"]))
            row.append(f"{size['mean']:.2f} ± {size['std']:.2f} [{singleton['mean']:.2f}]")
        rows.append(row)
    return rows


def selective_table(report: RunReport, mode: str) -> list:
    families = [f for f in report.families() if (f, mode) in report.blocks]
    header = ["model", "alpha"]
    for m in SELECTIVE_METRICS:
        header += [f"{m}_macro", f"{m}_pooled"]
    rows = [header]
    for fam in families:
        for alpha in report.alphas:
            block = report.blocks[(fam, mode)]["aggregates"]["selective"][float(alpha)]
            row = [fam, f"{alpha:.2f}"]
            for m in SELECTIVE_METRICS:
                pooled = block["pooled"][m]
                row.append(_cell(block[m]))
                row.append("n/a" if pooled is None else f"{pooled:.2f}")
            rows.append(row)
    return rows


def _block_json(block) -> dict:
    return {
        "folds": [r.to_dict() for r in block["folds"]],
        "aggregates": json_clean(block["aggregates"]),
    }


def write_report(report: RunReport, outdir) -> list:
    """Write report.json, fold plan, per-fold rows, and the summary tables.

    Returns the list of written paths. meta.json (environment, wall clock)
    is written separately and is the only volatile file.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []

    doc = {
        "config": json_clean(report.config),
        "alphas": [float(a) for a in report.alphas],
        "blocks": {f"{fam}|{mode}": _block_json(block)
                   for (fam, mode), block in sorted(report.blocks.items())},
    }
    path = os.path.join(outdir, "report.json")
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    written.append(path)

    meta = {"environment": report.environment, "wall_clock_s": report.wall_clock_s}
    meta_path = os.path.join(outdir, "meta.json")
    _atomic_write(meta_path, json.dumps(json_clean(meta), indent=1, sort_keys=True) + "\n")

    plan_path = os.path.join(outdir, "fold_plan.csv")
    export_plan_csv(report.plan, plan_path)
    written.append(plan_path)

    rows = [fold_row_header(report.alphas)]
    for (fam, mode), block in sorted(report.blocks.items()):
        rows += [fold_row(r, report.alphas) for r in block["folds"]]
    path = os.path.join(outdir, "folds.csv")
    _atomic_write(path, _csv_text(rows))
    written.append(path)

    for mode in report.modes():
        for name, builder in (("classification", classification_table),
                              ("calibration", calibration_table),
                              ("conformal", conformal_table),
                              ("selective", selective_table)):
            path = os.path.join(outdir, f"{name}_{mode}.csv")
            _atomic_write(path, _csv_text(builder(report, mode)))
            written.append(path)

    for (fam, mode), block in sorted(report.blocks.items()):
        written += _write_reliability(block["folds"], fam, mode, outdir,
                                      report.config.get("ece_bins", 10))
        written.append(_write_curves(block["folds"], fam, mode, outdir))
    return written


def _test_probs(r, level: str, stage: str = "cal"):
    """One fold's test (probabilities, labels) at a level, raw or isotonic-calibrated."""
    tag = "wf" if level == "waveform" else "cg"
    return getattr(r, f"test_{tag}_{stage}"), getattr(r, f"test_{tag}_labels")


def _pooled_probs(folds, level: str, stage: str = "cal"):
    pairs = [_test_probs(r, level, stage) for r in folds]
    return np.concatenate([p for p, _ in pairs]), np.concatenate([y for _, y in pairs])


def _curve_sources(folds, level: str) -> list:
    """(fold number or "pooled", probs, labels): each fold's calibrated test set, then all."""
    return ([(r.fold, *_test_probs(r, level)) for r in folds]
            + [("pooled", *_pooled_probs(folds, level))])


def _write_reliability(folds, fam, mode, outdir, n_bins) -> list:
    written = []
    for level in LEVELS:
        for stage in ("raw", "isotonic"):
            probs, labels = _pooled_probs(folds, level, "raw" if stage == "raw" else "cal")
            rows = [["bin_center", "mean_confidence", "empirical_accuracy", "count"]]
            for center, conf, acc, count in calibration.reliability_bins(probs, labels, n_bins):
                rows.append([f"{center:.3f}",
                             "" if math.isnan(conf) else repr(conf),
                             "" if math.isnan(acc) else repr(acc), count])
            path = os.path.join(outdir, f"reliability_{fam}_{mode}_{level}_{stage}.csv")
            _atomic_write(path, _csv_text(rows))
            written.append(path)
    return written


def _write_curves(folds, fam, mode, outdir) -> str:
    rows = [["kind", "level", "fold", "x", "y"]]
    for level in LEVELS:
        for tag, probs, labels in _curve_sources(folds, level):
            for kind, fn in (("roc", roc_curve), ("pr", pr_curve)):
                curve = fn(probs, labels)
                rows += [[kind, level, tag, repr(float(x)), repr(float(y))]
                         for x, y in zip(curve.xs, curve.ys)]
    path = os.path.join(outdir, f"curves_{fam}_{mode}.csv")
    _atomic_write(path, _csv_text(rows))
    return path


def load_report(path) -> RunReport:
    """Rebuild a RunReport from report.json (fold plan not reconstructed)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    blocks = {}
    for key, block in doc["blocks"].items():
        fam, mode = key.split("|")
        folds = [FoldResult.from_dict(d) for d in block["folds"]]
        aggregates = dict(block["aggregates"])
        for section in ("conformal", "selective"):
            aggregates[section] = {float(a): v for a, v in aggregates[section].items()}
        blocks[(fam, mode)] = {"folds": folds, "aggregates": aggregates}
    return RunReport(config=doc["config"], blocks=blocks, plan=None,
                     alphas=tuple(doc["alphas"]))


# ---------------------------------------------------------------------------
# SVG plots (hand-rolled so output is byte-deterministic)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def svg_line_plot(series, title: str, xlabel: str, ylabel: str,
                  xlim=None, ylim=None) -> str:
    """Minimal line plot as an SVG string; series are (label, xs, ys, color, width)."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    xlo, xhi = xlim if xlim else (float(xs_all.min()), float(xs_all.max()))
    ylo, yhi = ylim if ylim else (float(ys_all.min()), float(ys_all.max()))
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    left, right = _MARGIN, _SVG_W - 20
    top, bottom = 30, _SVG_H - _MARGIN

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
           f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
           f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
           f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    out.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
               'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
               'stroke="black" stroke-width="1"/>')
    for i in range(5):
        fx = xlo + (xhi - xlo) * i / 4
        px = _scale(fx, xlo, xhi, left, right)
        out.append(f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" y2="{bottom + 5}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{px:.1f}" y="{bottom + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{fx:.2f}</text>')
        fy = ylo + (yhi - ylo) * i / 4
        py = _scale(fy, ylo, yhi, bottom, top)
        out.append(f'<line x1="{left - 5}" y1="{py:.1f}" x2="{left}" y2="{py:.1f}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{left - 8}" y="{py + 3:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{fy:.2f}</text>')
    out.append(f'<text x="{(left + right) // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{(top + bottom) // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {(top + bottom) // 2})">{ylabel}</text>')
    for label, xs, ys, color, width in series:
        pts = " ".join(f"{_scale(float(x), xlo, xhi, left, right):.2f},"
                       f"{_scale(float(y), ylo, yhi, bottom, top):.2f}"
                       for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
                   f'points="{pts}"><title>{label}</title></polyline>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _series(tag, xs, ys, fold_color: str, pooled_color: str) -> tuple:
    """A thin line per fold and a thick one for the pooled test sets."""
    if tag == "pooled":
        return ("pooled", xs, ys, pooled_color, 2.5)
    return (f"fold {tag}", xs, ys, fold_color, 1)


def emit_plots(report: RunReport, outdir) -> list:
    """Per-fold plus pooled ROC, PR, and reliability diagrams, and coverage vs alpha."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    n_bins = report.config.get("ece_bins", 10)
    for (fam, mode), block in sorted(report.blocks.items()):
        folds = block["folds"]
        for level in LEVELS:
            sources = _curve_sources(folds, level)
            for kind, fn, xlab, ylab in (("roc", roc_curve, "false positive rate",
                                          "true positive rate"),
                                         ("pr", pr_curve, "recall", "precision")):
                series = []
                for tag, probs, labels in sources:
                    curve = fn(probs, labels)
                    series.append(_series(tag, curve.xs, curve.ys, "#9ecae1", "#08519c"))
                path = os.path.join(outdir, f"{kind}_{fam}_{mode}_{level}.svg")
                _atomic_write(path, svg_line_plot(
                    series, f"{kind.upper()} {fam} {mode} ({level})", xlab, ylab,
                    xlim=(0, 1), ylim=(0, 1)))
                written.append(path)
            series = []
            for tag, probs, labels in sources:
                bins = [(conf, acc) for _, conf, acc, n in
                        calibration.reliability_bins(probs, labels, n_bins) if n > 0]
                series.append(_series(tag, [b[0] for b in bins], [b[1] for b in bins],
                                      "#a1d99b", "#006d2c"))
            series.append(("ideal", [0.0, 1.0], [0.0, 1.0], "#999999", 1))
            path = os.path.join(outdir, f"reliability_{fam}_{mode}_{level}.svg")
            _atomic_write(path, svg_line_plot(
                series, f"Reliability {fam} {mode} ({level})",
                "mean confidence", "empirical accuracy", xlim=(0, 1), ylim=(0, 1)))
            written.append(path)
        if report.alphas:
            alphas = sorted(float(a) for a in report.alphas)
            cov = [block["aggregates"]["conformal"][a]["coverage"]["mean"] for a in alphas]
            target = [1.0 - a for a in alphas]
            path = os.path.join(outdir, f"coverage_vs_alpha_{fam}_{mode}.svg")
            _atomic_write(path, svg_line_plot(
                [("empirical", alphas, cov, "#08519c", 2.5),
                 ("target 1-alpha", alphas, target, "#999999", 1)],
                f"Coverage vs alpha {fam} {mode} (cougher)", "alpha", "coverage",
                ylim=(0, 1)))
            written.append(path)
    return written
