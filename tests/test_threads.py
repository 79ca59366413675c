"""Features, calibration, LR fits and LR reports do not depend on the BLAS thread count,
and ``run_nested`` pins every loaded OpenBLAS to one thread."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from coughscreen import features

OUTPUTS = textwrap.dedent("""
    import hashlib
    import numpy as np
    from coughscreen import calibration, dsp, features
    rng = np.random.default_rng(11)
    # short clips take the batched mel and chroma folds; the 30 s clip (1876
    # frames) is long enough for a threaded product over frames to split it
    waves = [dsp.Waveform(0.2 * rng.standard_normal(int(16000 * s)), 16000)
             for s in (0.3, 0.5, 1.0, 0.3, 0.5, 1.0, 30.0)]
    scores = np.round(rng.uniform(0, 1, 5000), 3)
    labels = (rng.random(5000) < scores).astype(int)
    iso = calibration.fit_isotonic(scores, labels)
    for name, out in [("extract_all", features.extract_all(waves)),
                      ("isotonic scores", iso.scores), ("isotonic values", iso.values),
                      ("reliability_bins", np.array(calibration.reliability_bins(scores, labels)))]:
        print(name, hashlib.sha256(out.tobytes()).hexdigest())
""")


LR_FITS = textwrap.dedent("""
    import hashlib
    import numpy as np
    from scipy.special import expit
    from coughscreen import models
    # 2,500 rows: unblocked products would be threaded; 240 rows: an inner fold
    for seed, n in [(0, 2500), (1, 240)]:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 277))
        y = (rng.random(n) < expit(X[:, 0] + 0.5 * X[:, 1] - 0.8)).astype(int)
        fitted = models.fit_lr_batch(X, y, models.grid_candidates("LR"))
        fitted.append(models.fit_lr(X, y, 0.01, "balanced"))  # a lone fit, as a final fit is
        probs = models.predict_proba_lr_batch(fitted, X)
        thetas = np.array([m.theta for m in fitted])
        print(n, "n_iter", [m.n_iter for m in fitted])
        print(n, "thetas", hashlib.sha256(thetas.tobytes()).hexdigest())
        print(n, "probs", hashlib.sha256(probs.tobytes()).hexdigest())
""")

LR_REPORT = textwrap.dedent("""
    import hashlib, json, pathlib, sys
    from coughscreen import cli
    out = pathlib.Path(sys.argv[1])
    doc = {"synthetic": {"n_coughers": 30, "prevalence": 0.4, "coughs_mean": 4, "coughs_std": 1,
                         "coughs_min": 3, "coughs_max": 6},
           "family": "LR", "feature_mode": "fused", "seed": 3, "k_outer": 3, "k_inner": 3,
           "calib_frac": 0.2, "out": str(out / "run")}
    (out / "cfg.json").write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(out / "cfg.json")]) == 0
    print("report.json", hashlib.sha256((out / "run" / "report.json").read_bytes()).hexdigest())
""")


BLAS_THREADS = textwrap.dedent("""
    import ctypes
    import json
    from coughscreen import pipeline, synth
    GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads")

    def blas_threads():
        # each loaded OpenBLAS and its thread count, found without pipeline's helper
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower() and len(line.split()) == 6})
        found = {}
        for path in paths:
            lib = ctypes.CDLL(path)
            getter = next(getattr(lib, g) for g in GETTERS if hasattr(lib, g))
            getter.restype, getter.argtypes = ctypes.c_int, []
            found[path] = getter()
        return found

    cfg = synth.SyntheticConfig(n_coughers=20, prevalence=0.4, coughs_mean=3, coughs_std=1,
                                coughs_min=2, coughs_max=4, seed=0)
    table = pipeline.build_feature_table(synth.generate_synthetic(cfg))
    print("before", json.dumps(sorted(blas_threads().values())))
    pipeline.run_nested(table, "LR", "audio", pipeline.RunConfig(
        seed=1, grid=({"C": 0.05, "class_weight": "balanced"},), k_outer=3, k_inner=2,
        calib_frac=0.2), jobs=1)
    print("after", json.dumps(sorted(blas_threads().values())))
""")


def outputs_at(threads, program: str = OUTPUTS, *args) -> list:
    """``program``'s output lines at ``threads`` BLAS threads, or unset for None."""
    src = str(Path(features.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
        if threads is not None:
            env[var] = str(threads)
    out = subprocess.run([sys.executable, "-c", program, *args], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return out.stdout.splitlines()


def test_outputs_byte_equal_at_one_and_two_blas_threads():
    one, two = outputs_at(1), outputs_at(2)
    assert len(one) == 4
    assert one == two


def test_lr_fits_byte_equal_at_one_and_two_blas_threads():
    one, two = outputs_at(1, LR_FITS), outputs_at(2, LR_FITS)
    assert len(one) == 6
    assert one == two


def test_lr_report_byte_equal_at_one_and_two_blas_threads(tmp_path):
    # run_nested pins BLAS to one thread, so here only the steps before it run at
    # two; test_lr_fits_byte_equal_at_one_and_two_blas_threads covers unpinned fits
    runs = [tmp_path / "one", tmp_path / "two"]
    for run in runs:
        run.mkdir()
    # the run's own progress lines, its wall time among them, are skipped
    one, two = ([line for line in outputs_at(threads, LR_REPORT, str(run))
                 if line.startswith("report.json")] for threads, run in zip((1, 2), runs))
    assert len(one) == 1
    assert one == two


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_run_nested_pins_every_openblas_to_one_thread():
    # BLAS thread counts left unset, as most callers leave them
    lines = outputs_at(None, BLAS_THREADS)
    before, after = (json.loads(line.split(" ", 1)[1]) for line in lines[-2:])
    if not after:
        pytest.skip("no OpenBLAS is loaded in this environment")
    assert len(after) == len(before)
    assert after == [1] * len(after)
