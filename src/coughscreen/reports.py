"""Aggregation and emission of run reports: JSON, summary CSV tables, SVG plots.

report.json is the one serialization of a run. ``report_doc`` builds it from
the fold results, and every other report file (folds.csv, the tables, the
reliability and curve CSVs, the SVGs) is rendered from that document's plain
dicts and lists, so ``coughscreen plot`` on a written report.json reproduces
``run --plots`` byte for byte.

Each fold's numbers are laid out once, by ``_fold_values``, which folds.csv
and ``aggregate_folds`` both read. Aggregate cells are "mean ± std" strings
for presentation; the raw floats always live beside them in report.json, and
every aggregate is recomputable from the emitted per-fold rows. Undefined
per-fold values (NaN sentinels, e.g. PPV with no predicted positives; null in
the document) are excluded from means with the exclusion count reported,
never zero-substituted.

Volatile run facts (wall clock, environment, timestamps) go to meta.json;
report.json and every CSV are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import calibration, pipeline
from .conformal import evaluate_sets, selective_ratios
from .metrics import pr_curve, roc_curve
from .pipeline import json_clean
from .splits import NestedPlan, plan_csv_text

LEVELS = list(pipeline.LEVELS)
LEVEL_TAGS = {level: tag for level, (tag, _) in pipeline.LEVELS.items()}
THRESHOLDS = {level: key for level, (_, key) in pipeline.LEVELS.items()}
# classification metric -> its key in a fold's waveform/cougher metric suite
SUITE_KEYS = {"roc_auc": "roc_auc", "pr_auc": "pr_auc", "uar": "uar",
              "sensitivity": "sens", "specificity": "spec", "ppv": "ppv", "npv": "npv"}
CLASSIFICATION_METRICS = ["threshold", *SUITE_KEYS]  # the threshold is in THRESHOLDS
# calibration metric -> its (raw, isotonic) keys in a fold
CALIBRATION_KEYS = {f"{level}_{m}": (f"{m}_raw_{tag}", f"{m}_cal_{tag}")
                    for level, tag in LEVEL_TAGS.items() for m in ("brier", "ece")}
# selective metric -> (its key in a fold's selective block, its folds.csv
# column before the alpha tag)
SELECTIVE_KEYS = {"overall_accuracy": ("accuracy", "sel_accuracy"),
                  "accuracy_singleton": ("accuracy_singleton", "sel_acc_singleton"),
                  "accuracy_ambiguous": ("accuracy_ambiguous", "sel_acc_ambiguous"),
                  "p_singleton_given_correct": ("p_singleton_given_correct",
                                                "sel_p_singleton_correct")}
# a fold's per-alpha conformal statistics, aggregated and written to folds.csv
CONFORMAL_KEYS = ["qhat", "coverage", "mean_size", "singleton_rate", "empty_rate"]


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


def _fold_values(fold: dict, alphas):
    """(aggregate path, folds.csv column, value) of each number of one fold dict, in
    folds.csv column order. A path is (section, key, name) in ``aggregate_folds``."""
    for level in LEVELS:
        yield ("classification", level, "threshold"), THRESHOLDS[level], fold[THRESHOLDS[level]]
    for level in LEVELS:
        for m, key in SUITE_KEYS.items():
            yield ("classification", level, m), f"{LEVEL_TAGS[level]}_{m}", fold[level][key]
    for name, (raw, cal) in CALIBRATION_KEYS.items():
        yield ("calibration", name, "raw"), raw, fold[raw]
        yield ("calibration", name, "isotonic"), cal, fold[cal]
    for alpha in alphas:
        a, tag = str(alpha), f"a{alpha:.2f}"
        for k in CONFORMAL_KEYS:
            yield ("conformal", a, k), f"{k}_{tag}", fold["conformal"][a][k]
        for m, (k, column) in SELECTIVE_KEYS.items():
            yield ("selective", a, m), f"{column}_{tag}", fold["selective"][a][k]


def aggregate_folds(folds, alphas) -> dict:
    """Across-fold aggregates of one (family, feature_mode) block's fold dicts: ``_agg``
    of each ``_fold_values`` path, then the pooled conformal and selective statistics."""
    values = {}
    for f in folds:
        for path, _, v in _fold_values(f, alphas):
            values.setdefault(path, []).append(v)
    out = {"classification": {}, "calibration": {}, "conformal": {}, "selective": {}}
    for (section, key, name), vs in values.items():
        out[section].setdefault(key, {})[name] = _agg(vs)
    for alpha in alphas:
        a = str(alpha)
        out["conformal"][a]["pooled"] = _pooled_conformal(folds, a)
        out["selective"][a]["pooled"] = _pooled_selective(folds, a)
    return out


def _pooled_conformal(folds, alpha: str) -> dict:
    sets = np.concatenate([np.column_stack([f["test_sets"][alpha]["has_neg"],
                                            f["test_sets"][alpha]["has_pos"]])
                           for f in folds])
    labels = np.concatenate([f["test_cg_labels"] for f in folds])
    return {**evaluate_sets(sets, labels), "n": int(labels.size)}


def _pooled_selective(folds, alpha: str) -> dict:
    tot = {k: sum(f["selective"][alpha][k] for f in folds)
           for k in ("n", "n_singleton", "n_ambiguous", "n_correct",
                     "n_correct_singleton", "n_correct_ambiguous")}
    ratios = selective_ratios(tot)
    return {**{m: ratios[key] for m, (key, _) in SELECTIVE_KEYS.items()}, **tot}


@dataclass
class RunReport:
    config: dict
    blocks: dict  # (family, feature_mode) -> {"folds": [FoldResult, ...]}
    plan: NestedPlan
    environment: dict
    wall_clock_s: float


def report_doc(report: RunReport) -> dict:
    """The report.json document: config echo, the config's alphas, and per block
    the fold dicts and their aggregates. Alpha keys are ``str(alpha)``."""
    config = json_clean(report.config)
    blocks = {}
    for (fam, mode), block in sorted(report.blocks.items()):
        folds = [r.to_dict() for r in block["folds"]]
        blocks[f"{fam}|{mode}"] = {
            "folds": folds,
            "aggregates": json_clean(aggregate_folds(folds, config["alphas"])),
        }
    return {"config": config, "alphas": list(config["alphas"]), "blocks": blocks}


def _blocks(doc) -> list:
    """(family, feature_mode, block) for every block of a report document, in key order."""
    return [(*key.split("|"), block) for key, block in sorted(doc["blocks"].items())]


def _mode_blocks(doc, mode: str) -> dict:
    """family -> block for one feature mode, families sorted."""
    return {fam: block for fam, m, block in _blocks(doc) if m == mode}


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _fold_cells(fold: dict, alphas):
    """(column, cell) pairs of one folds.csv row; the columns are the header."""
    yield "family", fold["family"]
    yield "feature_mode", fold["feature_mode"]
    yield "fold", fold["fold"]
    yield "best_params", json.dumps(fold["best_params"], sort_keys=True)
    for _, column, v in _fold_values(fold, alphas):
        yield column, "" if v is None else repr(float(v))


def classification_table(doc: dict, mode: str) -> list:
    """Metrics x (model x level) table of mean ± std cells."""
    blocks = _mode_blocks(doc, mode)
    rows = [["metric"] + [f"{fam}_{level}" for level in LEVELS for fam in blocks]]
    for m in CLASSIFICATION_METRICS:
        rows.append([m] + [_cell(blocks[fam]["aggregates"]["classification"][level][m])
                           for level in LEVELS for fam in blocks])
    return rows


def calibration_table(doc: dict, mode: str) -> list:
    blocks = _mode_blocks(doc, mode)
    rows = [["metric"] + [f"{fam}_{stage}" for fam in blocks
                          for stage in ("raw", "isotonic")]]
    for m in CALIBRATION_KEYS:
        row = [m]
        for block in blocks.values():
            agg = block["aggregates"]["calibration"][m]
            row += [_cell(agg["raw"]), _cell(agg["isotonic"])]
        rows.append(row)
    return rows


def conformal_table(doc: dict, mode: str) -> list:
    blocks = _mode_blocks(doc, mode)
    rows = [["level", "alpha"] + [f"{fam}_{col}" for fam in blocks
                                  for col in ("coverage", "size_singleton")]]
    for alpha in doc["alphas"]:
        row = ["cougher", f"{alpha:.2f}"]
        for block in blocks.values():
            agg = block["aggregates"]["conformal"][str(alpha)]
            size, singleton = agg["mean_size"], agg["singleton_rate"]
            row.append(_cell(agg["coverage"]))
            row.append(f"{size['mean']:.2f} ± {size['std']:.2f} [{singleton['mean']:.2f}]")
        rows.append(row)
    return rows


def selective_table(doc: dict, mode: str) -> list:
    header = ["model", "alpha"]
    for m in SELECTIVE_KEYS:
        header += [f"{m}_macro", f"{m}_pooled"]
    rows = [header]
    for fam, block in _mode_blocks(doc, mode).items():
        for alpha in doc["alphas"]:
            agg = block["aggregates"]["selective"][str(alpha)]
            row = [fam, f"{alpha:.2f}"]
            for m in SELECTIVE_KEYS:
                pooled = agg["pooled"][m]
                row.append(_cell(agg[m]))
                row.append("n/a" if pooled is None else f"{pooled:.2f}")
            rows.append(row)
    return rows


def _write_files(texts: dict, outdir) -> list:
    """Write each (name, text) of ``texts`` into ``outdir`` atomically; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    written = [os.path.join(outdir, name) for name in texts]
    for path, text in zip(written, texts.values()):
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    return written


def write_report(report: RunReport, outdir) -> list:
    """Write report.json, meta.json, the fold plan, and every file rendered from report.json.

    Every CSV, the fold plan's included, is rendered before the first file is
    written. Returns the list of written paths. meta.json (environment, wall
    clock) is the only volatile file and is not in the list.
    """
    doc = report_doc(report)
    cells = [list(_fold_cells(f, doc["alphas"]))
             for _, _, block in _blocks(doc) for f in block["folds"]]
    rows = [[column for column, _ in cells[0]]] + [[cell for _, cell in c] for c in cells]
    texts = {"report.json": json.dumps(doc, indent=1, sort_keys=True) + "\n",
             "fold_plan.csv": plan_csv_text(report.plan), "folds.csv": _csv_text(rows)}
    for mode in sorted({mode for _, mode, _ in _blocks(doc)}):
        for name, builder in (("classification", classification_table),
                              ("calibration", calibration_table),
                              ("conformal", conformal_table),
                              ("selective", selective_table)):
            texts[f"{name}_{mode}.csv"] = _csv_text(builder(doc, mode))
    for fam, mode, block in _blocks(doc):
        folds = block["folds"]
        for level in LEVELS:
            for stage, key in (("raw", "raw"), ("isotonic", "cal")):
                rows = [["bin_center", "mean_confidence", "empirical_accuracy", "count"]]
                for center, conf, acc, count in calibration.reliability_bins(
                        *_test_set(folds, level, key)):
                    rows.append([f"{center:.3f}", "" if math.isnan(conf) else repr(conf),
                                 "" if math.isnan(acc) else repr(acc), count])
                texts[f"reliability_{fam}_{mode}_{level}_{stage}.csv"] = _csv_text(rows)
        rows = [["kind", "level", "fold", "x", "y"]]
        for level, tag, kind, curve in _curves(folds):
            rows += [[kind, level, tag, repr(float(x)), repr(float(y))]
                     for x, y in zip(curve.xs, curve.ys)]
        texts[f"curves_{fam}_{mode}.csv"] = _csv_text(rows)

    meta = {"environment": report.environment, "wall_clock_s": report.wall_clock_s}
    texts["meta.json"] = json.dumps(json_clean(meta), indent=1, sort_keys=True) + "\n"
    return _write_files(texts, outdir)[:-1]  # every path but meta.json's


def _test_set(folds, level: str, stage: str = "cal"):
    """The folds' pooled test (probabilities, labels) at a level, raw or isotonic-calibrated."""
    tag = LEVEL_TAGS[level]
    return (np.concatenate([f[f"test_{tag}_{stage}"] for f in folds]),
            np.concatenate([f[f"test_{tag}_labels"] for f in folds]))


def _curve_sources(folds, level: str) -> list:
    """(fold number or "pooled", probs, labels): each fold's calibrated test set, then all."""
    return ([(f["fold"], *_test_set([f], level)) for f in folds]
            + [("pooled", *_test_set(folds, level))])


def _curves(folds):
    """(level, fold number or "pooled", kind, curve) at each level, for each of
    ``_curve_sources``: its ROC curve, then its PR curve."""
    for level in LEVELS:
        for tag, probs, labels in _curve_sources(folds, level):
            for kind, fn in (("roc", roc_curve), ("pr", pr_curve)):
                yield level, tag, kind, fn(probs, labels)


# ---------------------------------------------------------------------------
# SVG plots (hand-rolled so output is byte-deterministic)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _scale(v, lo, hi, out_lo, out_hi):
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def svg_line_plot(series, title: str, xlabel: str, ylabel: str, xlim=None) -> str:
    """Minimal line plot as an SVG string; series are (label, xs, ys, color, width).
    y spans [0, 1]; x spans ``xlim``, or the data's range when it is None."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    xlo, xhi = xlim if xlim else (float(xs_all.min()), float(xs_all.max()))
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
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
        fy = i / 4
        py = _scale(fy, 0, 1, bottom, top)
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
                       f"{_scale(float(y), 0, 1, bottom, top):.2f}"
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


def emit_plots(doc: dict, outdir) -> list:
    """Per-fold plus pooled ROC, PR, and reliability diagrams, and coverage vs alpha,
    from a report document (``report_doc`` or a loaded report.json).

    Every SVG is rendered before the first is written, so a document that
    fails to render leaves no files behind.
    """
    svgs = {}
    for fam, mode, block in _blocks(doc):
        folds = block["folds"]
        curves = {}
        for level, tag, kind, curve in _curves(folds):
            curves.setdefault((level, kind), []).append(
                _series(tag, curve.xs, curve.ys, "#9ecae1", "#08519c"))
        for level in LEVELS:
            for kind, xlab, ylab in (("roc", "false positive rate", "true positive rate"),
                                     ("pr", "recall", "precision")):
                svgs[f"{kind}_{fam}_{mode}_{level}.svg"] = svg_line_plot(
                    curves[level, kind], f"{kind.upper()} {fam} {mode} ({level})", xlab, ylab,
                    xlim=(0, 1))
            series = []
            for tag, probs, labels in _curve_sources(folds, level):
                bins = [(conf, acc) for _, conf, acc, n in
                        calibration.reliability_bins(probs, labels) if n > 0]
                series.append(_series(tag, [b[0] for b in bins], [b[1] for b in bins],
                                      "#a1d99b", "#006d2c"))
            series.append(("ideal", [0.0, 1.0], [0.0, 1.0], "#999999", 1))
            svgs[f"reliability_{fam}_{mode}_{level}.svg"] = svg_line_plot(
                series, f"Reliability {fam} {mode} ({level})",
                "mean confidence", "empirical accuracy", xlim=(0, 1))
        if doc["alphas"]:
            alphas = sorted(doc["alphas"])
            cov = [block["aggregates"]["conformal"][str(a)]["coverage"]["mean"] for a in alphas]
            target = [1.0 - a for a in alphas]
            svgs[f"coverage_vs_alpha_{fam}_{mode}.svg"] = svg_line_plot(
                [("empirical", alphas, cov, "#08519c", 2.5),
                 ("target 1-alpha", alphas, target, "#999999", 1)],
                f"Coverage vs alpha {fam} {mode} (cougher)", "alpha", "coverage")
    return _write_files(svgs, outdir)
