"""Features, calibration, LR fits and LR reports do not depend on the BLAS thread count."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def outputs_at(threads: int, program: str = OUTPUTS, *args) -> list:
    src = str(Path(features.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
    runs = [tmp_path / "one", tmp_path / "two"]
    for run in runs:
        run.mkdir()
    # the run's own progress lines, its wall time among them, are skipped
    one, two = ([line for line in outputs_at(threads, LR_REPORT, str(run))
                 if line.startswith("report.json")] for threads, run in zip((1, 2), runs))
    assert len(one) == 1
    assert one == two
