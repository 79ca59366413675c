"""Features and calibration outputs do not depend on the BLAS thread count."""

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


def outputs_at(threads: int) -> list:
    src = str(Path(features.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", OUTPUTS], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return out.stdout.splitlines()


def test_outputs_byte_equal_at_one_and_two_blas_threads():
    one, two = outputs_at(1), outputs_at(2)
    assert len(one) == 4
    assert one == two
