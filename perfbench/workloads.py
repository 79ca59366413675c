"""The benchmark's workloads, and the child process that sets them up, times and traces them.

Each workload builds its inputs from the seed (``setup``), reloads them in a
fresh process (``load``), makes one closed-loop call into coughscreen's public
API (``call``) and checks the call's output (``check``). ``run.py`` starts this
file as a child process, from the root of the checkout:

    python3 perfbench/workloads.py <setup|timed|trace> <workload> <seed> <seconds> <work_dir>

``timed`` and ``trace`` write ``result.json`` into ``work_dir``; ``trace`` also
writes ``spans.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.signal import resample_poly

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coughscreen import cli, dsp, experiment, models, pipeline, splits, synth  # noqa: E402
from coughscreen.data import Cougher, CoughRecording, write_manifest  # noqa: E402

import tracing  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_features.json"
REFERENCE_SEED = 20260117
COHORT_SHAPE_SEED = 1105
PAPER_PREVALENCE = 295 / 1105
# Per-cougher cough counts of the paper's cohort: rint(N(9.03, 5.7)) clipped to [3, 50].
COUGHS_MEAN, COUGHS_STD, COUGHS_MIN, COUGHS_MAX = 9.03, 5.7, 3, 50
# A timed run makes calls until --seconds have passed, and at least this many.
# The checks that compare repeated calls at one seed run in the traced run.
MIN_CALLS = 1


def _one_cougher(cid: str, count: int, label: int, seed: int, signal: float = 1.0) -> Cougher:
    # a prevalence of ~0 or ~1 makes the generator draw the caller's label
    prevalence = 1.0 - 1e-12 if label else 1e-12
    cfg = synth.SyntheticConfig(n_coughers=1, prevalence=prevalence, coughs_mean=count,
                                coughs_std=0.0, coughs_min=count, coughs_max=count,
                                signal_strength_audio=signal,
                                signal_strength_clinical=signal, seed=seed)
    (c,) = synth.generate_synthetic(cfg)
    recs = tuple(CoughRecording(f"{cid}_r{j + 1:02d}", cid, r.waveform)
                 for j, r in enumerate(c.recordings))
    return Cougher(cid, c.tb_label, c.clinical, recs)


def fixed_size_cohort(seed: int, n_recordings: int, signal: float = 1.0) -> list:
    """A cohort of a fixed shape whose audio and clinical records come from ``seed``.

    The shape is the same for every seed: cough counts per cougher drawn once
    from the paper's distribution, exactly ``n_recordings`` recordings (the
    last cougher is truncated), and labels that keep the share of TB-positive
    recordings at the paper's prevalence. So the work does not change with the
    seed, while the data do.
    """
    shape, content = np.random.default_rng(COHORT_SHAPE_SEED), np.random.default_rng(seed)
    coughers, total, positive = [], 0, 0
    while total < n_recordings:
        count = int(np.clip(np.rint(shape.normal(COUGHS_MEAN, COUGHS_STD)),
                            COUGHS_MIN, COUGHS_MAX))
        count = min(count, n_recordings - total)
        label = int(positive + count / 2 <= PAPER_PREVALENCE * (total + count))
        cid = f"c{len(coughers) + 1:04d}"
        coughers.append(_one_cougher(cid, count, label, int(content.integers(2 ** 31)), signal))
        total += count
        positive += label * count
    return coughers


def csv_floats(tokens) -> np.ndarray:
    """Parse feature CSV cells; ``np.float64(x)`` cells are read as ``x``.

    `coughscreen features` writes ``repr`` of numpy scalars, which numpy 2
    spells ``np.float64(x)``. That spelling is a known defect of the CLI's CSV
    writer; it is reported on stderr, while the values themselves are checked.
    """
    return np.array([t[11:-1] if t.startswith("np.float64(") and t.endswith(")") else t
                     for t in tokens], dtype=np.float64)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fold_problems(folds, block: str, auc_floor: float, state: dict) -> list:
    """Fold audits and the cougher-level ROC AUC floor of one (family, mode) block."""
    problems = [f"{block} fold {r.fold}: audit failed" for r in folds
                if not (r.audit["boundaries_disjoint"] and r.audit["scaler_fit_within_tuning"])]
    auc = float(np.mean([r.cougher.roc_auc for r in folds]))
    state.setdefault("auc", {})[block] = auc
    if not auc >= auc_floor:
        problems.append(f"{block}: mean cougher ROC AUC {auc:.3f} below floor {auc_floor}")
    return problems


class Ingest:
    """`coughscreen features <manifest> --out <csv>` on a WAV cohort, through ``cli.main``.

    Four clip kinds in equal shares: 16 kHz 0.5 s; 16 kHz 0.3 s (tail-padded);
    16 kHz 1.0 s (63 frames); 44.1 kHz 0.5 s (resampled). Cougher c0000 holds one
    fixed clip of each kind; their feature vectors are in reference_features.json.
    """

    n_recordings = 480  # a multiple of the number of clip kinds
    n_kinds = 4
    throughput = ("recordings_per_s", n_recordings)

    def __init__(self, work: Path, seed: int):
        self.dir, self.seed = work / "ingest", seed

    @staticmethod
    def as_kind(w: dsp.Waveform, kind: int) -> dsp.Waveform:
        s = w.samples
        if kind == 1:
            return dsp.Waveform(s[: int(0.3 * w.sample_rate_hz)], w.sample_rate_hz)
        if kind == 2:  # a cough followed by a weaker second burst
            return dsp.Waveform(np.concatenate([s, 0.5 * s]), w.sample_rate_hz)
        if kind == 3:
            return dsp.Waveform(np.clip(resample_poly(s, 441, 160), -0.999, 0.999), 44100)
        return w

    @classmethod
    def with_kinds(cls, c: Cougher, kinds) -> Cougher:
        recs = tuple(CoughRecording(r.id, r.cougher_id, cls.as_kind(r.waveform, int(k)))
                     for r, k in zip(c.recordings, kinds))
        return Cougher(c.id, c.tb_label, c.clinical, recs)

    @classmethod
    def reference_cougher(cls) -> Cougher:
        c = _one_cougher("c0000", cls.n_kinds, 1, REFERENCE_SEED)
        return cls.with_kinds(c, range(cls.n_kinds))

    @staticmethod
    def write_cohort(coughers, out: Path) -> Path:
        (out / "audio").mkdir(parents=True, exist_ok=True)
        wav_paths = {}
        for c in coughers:
            for rec in c.recordings:
                wav_paths[rec.id] = f"audio/{rec.id}.wav"
                dsp.write_wav(out / wav_paths[rec.id], rec.waveform)
        manifest = out / "manifest.csv"
        write_manifest(coughers, manifest, wav_paths)
        return manifest

    def setup(self) -> None:
        rest = fixed_size_cohort(self.seed, self.n_recordings - self.n_kinds)
        n_rest = sum(len(c.recordings) for c in rest)
        kinds = np.random.default_rng(self.seed).permutation(np.arange(n_rest) % self.n_kinds)
        cohort, at = [self.reference_cougher()], 0
        for c in rest:
            cohort.append(self.with_kinds(c, kinds[at: at + len(c.recordings)]))
            at += len(c.recordings)
        self.write_cohort(cohort, self.dir)

    def load(self):
        return self.dir / "manifest.csv"

    def call(self, manifest: Path):
        out = self.dir / "features.csv"
        return cli.main(["features", str(manifest), "--out", str(out)]), out

    def check(self, output, state: dict) -> list:
        code, path = output
        if code != 0:
            return [f"coughscreen features exited {code}"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 1 + self.n_recordings or any(len(r) != 263 for r in rows):
            return [f"feature CSV is {len(rows)} rows, expected {1 + self.n_recordings} "
                    f"rows of 263 columns"]
        if rows[1][2].startswith("np.float64(") and "noted" not in state:
            state["noted"] = True
            print("note: the feature CSV spells values as np.float64(x)", file=sys.stderr)
        problems = []
        if not np.all(np.isfinite([csv_floats(r[2:]) for r in rows[1:]])):
            problems.append("non-finite feature values")
        reference = state.setdefault("reference", json.loads(REFERENCE_PATH.read_text()))
        tol = reference["tolerance"]
        for row in rows[1: 1 + self.n_kinds]:
            expected = reference["vectors"].get(row[0])
            got = csv_floats(row[2:])
            if expected is None or not np.allclose(got, expected, rtol=tol["rtol"],
                                                   atol=tol["atol"]):
                problems.append(f"features of {row[0]} differ from the reference")
        return problems

class LRNested:
    """`experiment.run_experiment(write=True)`: LR, both modes, full grid, 10x5 folds.

    The cohort has the shape of acceptance criteria 7 and 8: 100 coughers at
    prevalence 0.3 with 4 +- 1.5 coughs each, clipped to 3-6.
    """

    k_outer, k_inner = 10, 5
    # (outer fold x candidate x inner fold) evaluations per call, both feature modes
    throughput = ("grid_evals_per_s", 2 * k_outer * len(models.grid_candidates("LR")) * k_inner)
    # Mean cougher ROC AUC over the outer folds, per feature mode. Over seeds
    # 0-19 it ranged 0.645-0.818 (audio) and 0.562-0.851 (fused); seed 7 gives
    # 0.728 and 0.767.
    auc_floor = {"audio": 0.55, "fused": 0.50}

    def __init__(self, work: Path, seed: int):
        self.dir, self.seed = work / "lr_nested", seed

    def setup(self) -> None:
        doc = {
            "synthetic": {"n_coughers": 100, "prevalence": 0.3, "coughs_mean": 4,
                          "coughs_std": 1.5, "coughs_min": 3, "coughs_max": 6},
            "family": "LR", "feature_mode": "both", "seed": self.seed,
            "k_outer": self.k_outer, "k_inner": self.k_inner,
            "out": str(self.dir / "run"), "jobs": 1,
        }
        experiment.ExperimentConfig.from_dict(dict(doc))  # raises ConfigError if invalid
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(json.dumps(doc))

    def load(self):
        return json.loads((self.dir / "config.json").read_text())

    def call(self, doc: dict):
        cfg = experiment.ExperimentConfig.from_dict(dict(doc))
        return experiment.run_experiment(cfg, write=True)

    def check(self, report, state: dict) -> list:
        problems = []
        digest = _sha256((self.dir / "run" / "report.json").read_bytes())
        if state.setdefault("digest", digest) != digest:
            problems.append("report.json differs from the first call's")
        if splits.audit_plan_rows(splits.load_plan_csv(self.dir / "run" / "fold_plan.csv")):
            problems.append("fold_plan.csv fails the leakage audit")
        for (family, mode), block in sorted(report.blocks.items()):
            problems += _fold_problems(block["folds"], f"{family}/{mode}",
                                       self.auc_floor[mode], state)
        return problems


class GBDTGrid:
    """`pipeline.run_nested` on a prebuilt FeatureTable: GBDT, fused, 5x3 folds, two candidates.

    The candidates differ only in ``iterations``, so staged fitting has work
    to remove. Features are extracted in setup, so tree building dominates.

    The size of these one- and two-tree ensembles depends on how soon nodes
    become pure, which the data decide: over seeded cohorts of 400 recordings
    the trees grown per call ranged over +-20%. So the cohort is the same for
    every seed, and the seed picks the fold plans and the row and feature
    draws of ``repeats`` nested runs per call.
    """

    n_recordings = 400
    cohort_seed = 1105
    k_outer, k_inner, repeats = 5, 3, 5
    grid = tuple({"depth": 6, "iterations": it, "learning_rate": 0.1, "l2_leaf_reg": 3.0,
                  "subsample": 0.7, "rsm": 0.7, "class_weights": "balanced"}
                 for it in (1, 2))
    throughput = ("grid_evals_per_s", repeats * k_outer * len(grid) * k_inner)
    # One or two trees learn little at the default signal (mean AUC 0.46-0.69
    # over seeded 600-recording cohorts), so the cohort has twice the signal:
    # a floor then tells a working model from a broken one.
    signal = 2.0
    # Mean cougher ROC AUC over all outer folds of a call; 0.72-0.90 over seeds 1-15
    # with three repeats.
    auc_floor = 0.60

    def __init__(self, work: Path, seed: int):
        self.dir, self.seed = work / "gbdt_grid", seed

    def setup(self) -> None:
        table = pipeline.build_feature_table(
            fixed_size_cohort(self.cohort_seed, self.n_recordings, self.signal))
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / "table.pkl", "wb") as fh:
            pickle.dump(table, fh)

    def load(self):
        with open(self.dir / "table.pkl", "rb") as fh:  # written by this benchmark's setup
            return pickle.load(fh)

    def call(self, table):
        folds = []
        for r in range(self.repeats):
            cfg = pipeline.RunConfig(k_outer=self.k_outer, k_inner=self.k_inner,
                                     grid=self.grid, seed=self.repeats * self.seed + r)
            folds += pipeline.run_nested(table, "GBDT", "fused", cfg)[0]
        return folds

    def check(self, results, state: dict) -> list:
        digest = _sha256(json.dumps([r.to_dict() for r in results], sort_keys=True).encode())
        problems = []
        if state.setdefault("digest", digest) != digest:
            problems.append("fold results differ from the first call's")
        return problems + _fold_problems(results, "GBDT/fused", self.auc_floor, state)


WORKLOADS = {"ingest": Ingest, "lr_nested": LRNested, "gbdt_grid": GBDTGrid}


def gbdt_grid_trees(k_outer: int = 10, k_inner: int = 5) -> float:
    """Trees one (GBDT, mode) run of the documented grid fits: every candidate on
    every inner fold, plus one final fit per outer fold at the mean iteration count."""
    iterations = [c["iterations"] for c in models.grid_candidates("GBDT")]
    return k_outer * (k_inner * sum(iterations) + float(np.mean(iterations)))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_commit": commit, "src_sha256": source.hexdigest(),
    }


def _checked_call(workload, inputs, state: dict):
    """One call and its output check; returns (wall s, process CPU s, problems)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = workload.call(inputs)
    except Exception as exc:  # a failed call is counted, not fatal to the run
        return time.perf_counter() - wall0, time.process_time() - cpu0, [f"call raised {exc!r}"]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, workload.check(output, state)


def timed(workload, seconds: float) -> dict:
    """Closed loop with one caller: the next call starts when the previous returns."""
    inputs = workload.load()
    state, wall, cpu, problems = {}, [], [], []
    start = time.perf_counter()
    while (len(wall) < MIN_CALLS
           or time.perf_counter() - start + statistics.median(wall) <= seconds):
        call_wall, call_cpu, found = _checked_call(workload, inputs, state)
        wall.append(call_wall)
        cpu.append(call_cpu)
        problems.append(found)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems, "auc": state.get("auc", {}),
            "throughput": workload.throughput,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_round(workload, label: str, state: dict):
    """One traced setup and one traced call, on a tracer of their own."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = f"{label}-setup"
        workload.setup()
        inputs = workload.load()
        tracer.run_id = f"{label}-call"
        _, cpu, problems = _checked_call(workload, inputs, state)
    finally:
        tracer.uninstall()
    return tracer.spans, inputs, cpu, problems


def trace(workload) -> tuple:
    """Traced round, untraced call, traced round; per-layer metrics of the second round."""
    state = {}
    spans1, inputs, _, problems1 = traced_round(workload, "r1", state)
    _, untraced_cpu, untraced_problems = _checked_call(workload, inputs, state)
    spans2, _, traced_cpu, problems2 = traced_round(workload, "r2", state)
    grid_trees = gbdt_grid_trees()
    first = tracing.layer_metrics(spans1, grid_trees)
    layers = tracing.layer_metrics(spans2, grid_trees)
    layers["trace.overhead_s"] = traced_cpu - untraced_cpu
    problems = [problems1, untraced_problems, problems2]
    moved = [k for k in tracing.EXACT_COUNTS if first[k] != layers[k]]
    if moved:
        problems[-1] = problems[-1] + [f"counts differ between traced rounds: {moved}"]
    result = {"layers": layers, "problems": problems, "untraced_cpu_s": untraced_cpu,
              "traced_cpu_s": traced_cpu}
    spans = {label: [s._asdict() for s in spans]
             for label, spans in (("r1", spans1), ("r2", spans2))}
    return result, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", "timed", "trace"])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("work_dir", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.work_dir, args.seed)
    if args.role == "setup":
        workload.setup()
        return 0
    if args.role == "timed":
        result = timed(workload, args.seconds)
    else:
        result, spans = trace(workload)
        (args.work_dir / "spans.json").write_text(json.dumps(spans))
    result["environment"] = environment()
    (args.work_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
