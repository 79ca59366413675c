"""Write reference_features.json: the feature vectors of the ingest workload's fixed clips.

The four clips of cougher c0000 (one per clip kind, generated from a fixed
seed) go through the same path as the timed call: WAV files, a manifest and
`coughscreen features`. Run from the root of a checkout, only when the
features are meant to change:

    python3 perfbench/make_reference.py
"""

import csv
import json
import shutil
import sys

from workloads import REFERENCE_PATH, ROOT, Ingest, cli, csv_floats


def main() -> int:
    out = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    manifest = Ingest.write_cohort([Ingest.reference_cougher()], out)
    if cli.main(["features", str(manifest), "--out", str(out / "features.csv")]) != 0:
        return 1
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    doc = {
        # the features oracle tolerance: admits a reordered float summation, nothing looser
        "tolerance": {"rtol": 1e-10, "atol": 1e-10},
        "vectors": {r[0]: csv_floats(r[2:]).tolist() for r in rows},
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(out)
    print(f"wrote {len(rows)} reference vectors to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
