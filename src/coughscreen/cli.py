"""Command-line front door.

Subcommands:
    synth     generate a synthetic dataset (WAVs + manifest)
    features  extract the 261-value feature vectors from a manifest to CSV
    run       execute the full nested experiment and write reports
    audit     verify an exported fold-plan CSV for cougher disjointness
    plot      render SVG diagrams from a written report.json

Exit codes: 0 success, 2 config error, 3 data error, 4 leakage-audit failure.
The COUGHSCREEN_OUT environment variable sets the default output root.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from typing import get_type_hints

from .data import ManifestError, _is_int, load_manifest
from .experiment import ConfigError, ExperimentConfig, run_experiment
from .features import VECTOR_COLUMN_NAMES
from .pipeline import FAMILIES, FEATURE_MODES, build_feature_table
from .reports import emit_plots
from .splits import LeakageError, audit_plan_rows, load_plan_csv
from .synth import SyntheticConfig, cohort_shape, export_dataset, iter_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_LEAKAGE = 4

# synth flag -> the SyntheticConfig field it sets, in help order
_SYNTH_FLAGS = {"--seed": "seed", "--coughers": "n_coughers", "--prevalence": "prevalence",
                "--coughs-mean": "coughs_mean", "--coughs-std": "coughs_std",
                "--coughs-min": "coughs_min", "--coughs-max": "coughs_max",
                "--signal-audio": "signal_strength_audio",
                "--signal-clinical": "signal_strength_clinical"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _default_out(sub: str) -> str:
    return os.path.join(os.environ.get("COUGHSCREEN_OUT", "runs"), sub)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coughscreen", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", default=_default_out("synth"))
    types = get_type_hints(SyntheticConfig)
    for flag, name in _SYNTH_FLAGS.items():
        p.add_argument(flag, dest=name, type=types[name], default=getattr(SyntheticConfig, name))
    p.set_defaults(n_coughers=80)  # a desk-sized cohort, not the paper's 1,105

    p = sub.add_parser("features", help="manifest -> feature CSV")
    p.add_argument("manifest")
    p.add_argument("--audio-root", default=None)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    p = sub.add_parser("run", help="run the full nested experiment")
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--manifest", default=None)
    p.add_argument("--audio-root", default=None)
    p.add_argument("--synthetic", dest="use_synthetic", action="store_true",
                   help="use a synthetic dataset with SyntheticConfig's defaults: the "
                        f"paper's {SyntheticConfig.n_coughers:,} coughers, unless --coughers")
    p.add_argument("--coughers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--feature-mode", choices=[*FEATURE_MODES, "both"], default=None)
    p.add_argument("--model", dest="family", choices=[*FAMILIES, "both"], default=None)
    p.add_argument("--alpha", dest="alphas", type=float, action="append", default=None,
                   help="miscoverage level; repeatable")
    p.add_argument("--plots", action="store_true", help="also emit SVG plots")

    p = sub.add_parser("audit", help="verify a fold-plan CSV for disjointness")
    p.add_argument("plan")

    p = sub.add_parser("plot", help="render SVG diagrams from report.json")
    p.add_argument("report")
    p.add_argument("--out", default=None, help="output directory (default: report's)")
    return parser


def _cmd_synth(args) -> int:
    cfg = SyntheticConfig(**{name: getattr(args, name) for name in _SYNTH_FLAGS.values()})
    manifest = export_dataset(iter_synthetic(cfg), args.out)
    shape = cohort_shape(cfg)
    print(f"wrote {len(shape)} coughers / {sum(n for _, _, n in shape)} recordings "
          f"to {manifest}")
    return EXIT_OK


def _cmd_features(args) -> int:
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise OSError(f"cannot write {args.out}: --out must name a file in an existing directory")
    table = build_feature_table(load_manifest(args.manifest, args.audio_root))
    header = ["recording_id", "cougher_id"] + VECTOR_COLUMN_NAMES
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rid, cid, vec in zip(table.recording_ids, table.cougher_ids.tolist(), table.audio):
            writer.writerow([rid, cid] + vec.tolist())
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote features for {len(table.recording_ids)} recordings to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    doc = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config file {args.config} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(doc).__name__}")
    # a flag sets the config field named by its dest
    doc.update((name, value) for name, value in vars(args).items()
               if name in _CONFIG_FIELDS and value is not None)
    if args.use_synthetic and "synthetic" not in doc:
        doc["synthetic"] = {}
    if args.coughers is not None:
        synthetic = doc.setdefault("synthetic", {})
        if not isinstance(synthetic, dict):
            raise ConfigError("synthetic must be an object to take --coughers, got "
                              f"{json.dumps(synthetic)}")
        synthetic["n_coughers"] = args.coughers
    doc.setdefault("out", _default_out("experiment"))
    cfg = ExperimentConfig.from_dict(doc)
    report = run_experiment(cfg, progress=lambda msg: print(msg, flush=True))
    if args.plots:
        _plot_report(os.path.join(cfg.out, "report.json"), cfg.out)
    print(f"done in {report.wall_clock_s:.1f}s; reports in {cfg.out}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    rows = load_plan_csv(args.plan)
    if violations := audit_plan_rows(rows):
        for v in violations:
            print(f"VIOLATION: {v}")
        raise LeakageError(f"{len(violations)} violation(s) in {args.plan}")
    print(f"{args.plan}: {len(rows)} rows, cougher-disjoint at every boundary")
    return EXIT_OK


_REPORT_KEYS = ("config", "alphas", "blocks")
# block keys become SVG titles and file names, so only these are rendered
_BLOCK_KEYS = {f"{family}|{mode}" for family in FAMILIES for mode in FEATURE_MODES}


def _plot_report(path, outdir) -> list:
    """Render the plots of the report.json at ``path`` into ``outdir``.

    A file that is not a report document is a data error naming the file,
    down to a block key that is not ``family|mode``, a fold number that is not
    an integer, or a block or fold that lacks a key or holds the wrong type.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(k in doc for k in _REPORT_KEYS):
        raise ManifestError(f"{path} is not a report.json: it needs the keys "
                            f"{', '.join(_REPORT_KEYS)}")
    if not isinstance(doc["blocks"], dict) or not set(doc["blocks"]) <= _BLOCK_KEYS:
        raise ManifestError(f"{path} is not a report.json: its block keys must be among "
                            f"{', '.join(sorted(_BLOCK_KEYS))}")
    try:
        bad = [f["fold"] for block in doc["blocks"].values() for f in block["folds"]
               if not _is_int(f["fold"])]
        if not bad:
            return emit_plots(doc, outdir)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path} is not a report.json: its blocks do not parse "
                            f"({type(exc).__name__}: {exc})") from exc
    raise ManifestError(f"{path} is not a report.json: fold {bad[0]!r} is not an integer")


def _cmd_plot(args) -> int:
    outdir = args.out or os.path.dirname(os.path.abspath(args.report))
    written = _plot_report(args.report, outdir)
    print(f"wrote {len(written)} plot files to {outdir}")
    return EXIT_OK


_COMMANDS = {"synth": _cmd_synth, "features": _cmd_features, "run": _cmd_run,
             "audit": _cmd_audit, "plot": _cmd_plot}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ManifestError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LeakageError as exc:
        print(f"leakage audit failure: {exc}", file=sys.stderr)
        return EXIT_LEAKAGE


if __name__ == "__main__":
    sys.exit(main())
