"""Experiment configuration and the end-to-end run front door."""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import __version__
from .data import ConfigError, _int_at_least, _is_real, check_object, load_manifest
from .pipeline import (FAMILIES, FEATURE_MODES, RunConfig, build_feature_table, checked_plan,
                       openblas_cores, run_nested)
from .reports import RunReport, write_report
from .synth import _SYNTH_RULES, SyntheticConfig, cohort_shape, iter_synthetic


def _is_path(v) -> bool:
    """A str or path-like the OS takes as a file name: no NUL, nothing it cannot encode."""
    try:
        return isinstance(v, (str, os.PathLike)) and b"\0" not in os.fsencode(v)
    except UnicodeEncodeError:
        return False


def _is_out_dir(v) -> bool:
    """A nonempty path that is, or whose nearest existing ancestor is, a directory."""
    if not _is_path(v) or not os.fspath(v):
        return False
    path = os.fspath(v)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path or ".")


def _alphas(v) -> bool:
    """Numbers in (0, 1) whose two-decimal tags, which label report rows, differ and are
    neither 0.00 nor 1.00."""
    if not isinstance(v, (list, tuple)) or not v or not all(map(_is_real, v)):
        return False
    tags = {f"{float(a):.2f}" for a in v}
    return all(0.0 < a < 1.0 for a in v) and len(tags) == len(v) and not {"0.00", "1.00"} & tags


# config field -> (check, what it must be), for every field but synthetic
_FIELD_RULES = {
    "manifest": (lambda v: v is None or _is_path(v), "a path"),
    "audio_root": (lambda v: v is None or _is_path(v), "a path"),
    "out": (_is_out_dir, "a path that is, or whose nearest existing ancestor is, a directory"),
    "family": (lambda v: v in FAMILIES + ("both",), "LR, GBDT, or both"),
    "feature_mode": (lambda v: v in FEATURE_MODES + ("both",), "audio, fused, or both"),
    "calib_frac": (lambda v: _is_real(v) and 0.0 < v <= 0.5, "a number in (0, 0.5]"),
    "seed": _int_at_least(0),
    "k_outer": _int_at_least(2),
    "k_inner": _int_at_least(2),
    "jobs": _int_at_least(1),
    "alphas": (_alphas, "a nonempty list of numbers in (0, 1) with distinct two-decimal "
                        "tags, none of them 0.00 or 1.00"),
    "grids": (lambda v: isinstance(v, dict) and all(
                  fam in FAMILIES and isinstance(grid, (list, tuple)) and grid
                  for fam, grid in v.items()),
              "an object mapping LR or GBDT to a nonempty list of parameter objects"),
}

_CLASS_WEIGHT = (lambda v: v is None or v == "balanced", 'null or "balanced"')
# grid candidate key -> (check, what it must be); LR needs only C
_GRID_RULES = {
    "LR": {"C": (lambda v: _is_real(v) and v > 0, "a number > 0"),
           "class_weight": _CLASS_WEIGHT},
    "GBDT": {"depth": _int_at_least(1),
             "iterations": _int_at_least(1),
             "learning_rate": (lambda v: _is_real(v) and v > 0, "a number > 0"),
             "l2_leaf_reg": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
             "subsample": (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
             "rsm": (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
             "class_weights": _CLASS_WEIGHT},
}
_GRID_REQUIRED = {"LR": {"C"}, "GBDT": set(_GRID_RULES["GBDT"])}


@dataclass
class ExperimentConfig:
    manifest: str | None = None
    audio_root: str | None = None
    synthetic: dict | None = None
    family: str = "both"  # LR | GBDT | both
    feature_mode: str = "both"  # audio | fused | both
    alphas: tuple = RunConfig.alphas
    calib_frac: float = RunConfig.calib_frac
    seed: int = RunConfig.seed
    k_outer: int = RunConfig.k_outer
    k_inner: int = RunConfig.k_inner
    out: str = "runs"
    jobs: int = 1
    grids: dict = field(default_factory=dict)  # family -> reduced candidate list

    def validate(self) -> None:
        if (self.manifest is None) == (self.synthetic is None):
            raise ConfigError("exactly one data source is required: "
                              "'manifest' or 'synthetic'")
        check_object(_FIELD_RULES, {name: getattr(self, name) for name in _FIELD_RULES})
        if self.synthetic is not None:
            check_object(_SYNTH_RULES, self.synthetic, "synthetic")
            self.synthetic_config()  # coughs_min <= coughs_max
        for fam, grid in self.grids.items():
            for cand in grid:
                check_object(_GRID_RULES[fam], cand, f"{fam} grid candidate {cand!r}",
                             _GRID_REQUIRED[fam])

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("the config must be a JSON object")
        if unknown := set(doc) - {f.name for f in fields(cls)}:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        cfg.alphas = tuple(float(a) for a in cfg.alphas)
        return cfg

    def families(self) -> tuple:
        return FAMILIES if self.family == "both" else (self.family,)

    def feature_modes(self) -> tuple:
        return FEATURE_MODES if self.feature_mode == "both" else (self.feature_mode,)

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(**{"seed": self.seed, **(self.synthetic or {})})

    def run_config(self, family: str) -> RunConfig:
        grid = self.grids.get(family)
        protocol = {f.name: getattr(self, f.name) for f in fields(RunConfig) if f.name != "grid"}
        return RunConfig(**protocol, grid=tuple(grid) if grid else None)


def environment_info() -> dict:
    """The versions, and the CPU kernels the numbers were computed with: numpy's SIMD
    levels (its baseline, then those found on this CPU) and each OpenBLAS's core name,
    where numpy and the libraries report them."""
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "coughscreen": __version__,
        "platform": platform.platform(),
    }
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy before 1.26 has no mode argument
        simd = None
    if simd:
        info["numpy_simd"] = {level: simd.get(level, []) for level in ("baseline", "found")}
    if cores := openblas_cores():
        info["openblas_cores"] = cores
    return info


def run_experiment(cfg: ExperimentConfig, write: bool = True,
                   progress=None) -> RunReport:
    """Execute every requested (family, feature_mode) block and assemble the report.

    With ``write=True`` the report files are emitted atomically under
    ``cfg.out``. ``reports.report_doc`` turns the returned report into the
    report.json document, which is byte-stable for a fixed config.
    """
    cfg.validate()
    t0 = time.monotonic()
    say = progress or (lambda msg: None)

    if cfg.manifest is not None:
        say(f"loading manifest {cfg.manifest}")
        coughers = load_manifest(cfg.manifest, cfg.audio_root)
        shape = [(c.id, c.tb_label, len(c.recordings)) for c in coughers]
    else:
        say("generating synthetic dataset")
        synthetic = cfg.synthetic_config()
        shape = cohort_shape(synthetic)
        coughers = iter_synthetic(synthetic)
    # the plan needs only cougher ids, labels and recording counts, so every plan
    # check runs before any audio is generated or decoded
    plan = checked_plan(tuple(zip(*sorted(shape))), cfg)
    say(f"extracting features for {sum(n for _, _, n in shape)} recordings")
    table = build_feature_table(coughers)

    blocks = {}
    for family in cfg.families():
        run_cfg = cfg.run_config(family)
        for mode in cfg.feature_modes():
            say(f"running {family} / {mode}")
            results, _ = run_nested(table, family, mode, run_cfg, jobs=cfg.jobs, plan=plan)
            blocks[(family, mode)] = {"folds": results}

    config_echo = asdict(cfg)
    # out and jobs are execution details: they never affect the numbers and
    # must not break byte-identity of reports across --jobs settings
    execution = {"out": config_echo.pop("out"), "jobs": config_echo.pop("jobs")}
    report = RunReport(config=config_echo, blocks=blocks, plan=plan,
                       environment={**environment_info(), **execution},
                       wall_clock_s=time.monotonic() - t0)
    if write:
        written = write_report(report, cfg.out)
        say(f"wrote {len(written)} report files to {cfg.out}")
    return report


__all__ = ["ConfigError", "ExperimentConfig", "environment_info", "run_experiment"]
