"""The CPU kernels a run names in meta.json, and a report computed on other kernels
matching within ``compare_docs``' tolerance.

numpy and OpenBLAS pick their kernels at run time, so another machine computes
other float bytes with no code change. Two environment variables choose other
kernels here without another machine: ``NPY_DISABLE_CPU_FEATURES`` turns off
numpy's SIMD paths above its baseline, and ``OPENBLAS_CORETYPE`` picks the
OpenBLAS core.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_experiment_doc

from coughscreen import experiment, pipeline

# Above the 2.4e-7 largest deviation measured on a 100-cougher LR run (both modes,
# full grid, 10x5 folds) at OPENBLAS_CORETYPE=Sandybridge. L-BFGS stops at a
# projected gradient of 1e-6, so probabilities drift in this range within the
# solver's own precision; a moved id, label, count, chosen candidate or set is
# never forgiven. On an AVX-512 Xeon (SkylakeX core) the run below moved 1,320
# floats, by at most 3.9e-10.
ATOL = 1e-6
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
# report.json keys whose values were chosen, not computed: compared exactly, floats too
EXACT_KEYS = ("config", "alphas", "best_params")


def compare_docs(a, b, atol: float) -> list:
    """Where two report.json documents differ: each computed float may move by at most
    ``atol``, and every other leaf (ids, labels, counts, set membership, ``best_params``,
    the config echo), key set and list length must be equal.

    Returns the (path, a's value, b's value) of each leaf or node that breaks this, a path
    being the tuple of keys and indices down to it.
    """
    beyond = []

    def walk(x, y, path, exact):
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for k in x:
                walk(x[k], y[k], (*path, k), exact or k in EXACT_KEYS)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, (*path, i), exact)
        elif type(x) is float and type(y) is float and not exact:
            if not abs(x - y) <= atol:
                beyond.append((path, x, y))
        elif type(x) is not type(y) or x != y:
            beyond.append((path, x, y))

    walk(a, b, (), False)
    return beyond


def run_report(out: Path, **kernels) -> tuple:
    """report.json and meta.json's environment of a ``coughscreen run`` of the tiny
    experiment in a fresh process, at the default kernels but for ``kernels``."""
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(tiny_experiment_doc(out / "run")))
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    env.update(kernels, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                 env.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import sys; from coughscreen.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", "run", "--config", str(config)],
                   env=env, capture_output=True, text=True, timeout=300, check=True)
    return (json.loads((out / "run" / "report.json").read_text()),
            json.loads((out / "run" / "meta.json").read_text())["environment"])


def test_meta_names_the_kernels(tiny_run, monkeypatch):
    env = json.loads((tiny_run[1] / "meta.json").read_text())["environment"]
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    assert env["numpy_simd"] == {"baseline": simd["baseline"], "found": simd.get("found", [])}
    assert env.get("openblas_cores", {}) == pipeline.openblas_cores()
    if "openblas" in config["Build Dependencies"]["blas"]["name"] and \
            os.path.exists("/proc/self/maps"):
        assert env["openblas_cores"] and all(env["openblas_cores"].values())
    # a numpy, or a BLAS, that names no kernel leaves its key out, and the run goes on
    monkeypatch.setattr(experiment, "openblas_cores", dict)
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert set(experiment.environment_info()) == {"python", "numpy", "scipy", "coughscreen",
                                                  "platform"}


def test_report_matches_across_kernels(tmp_path):
    doc, env = run_report(tmp_path / "default")
    # numpy's SIMD levels above its baseline on this CPU, as the default run found them
    found = env.get("numpy_simd", {}).get("found")
    if not found:
        pytest.skip("numpy finds no SIMD level above its baseline to disable")
    other_doc, other_env = run_report(tmp_path / "other", OPENBLAS_CORETYPE="Sandybridge",
                                      NPY_DISABLE_CPU_FEATURES=" ".join(found))
    assert other_env["numpy_simd"]["found"] == []
    cores, other_cores = env.get("openblas_cores"), other_env.get("openblas_cores", {})
    if not cores or cores == other_cores or set(other_cores.values()) != {"Sandybridge"}:
        pytest.skip(f"OPENBLAS_CORETYPE=Sandybridge did not change the OpenBLAS cores "
                    f"({cores} -> {other_cores})")
    assert compare_docs(doc, other_doc, ATOL) == []


def test_every_openblas_found_is_pinned_and_named(monkeypatch):
    # two copies of one bundled OpenBLAS whose file names differ only in the hash
    libs = {"/lib/libscipy_openblas64_-aaa.so": b"Haswell",
            "/lib/libscipy_openblas64_-bbb.so": b"Haswell", "/lib/libm.so.6": None}
    maps = "".join(f"7f00-7f01 r-xp 00000000 08:01 {i} {path}\n"
                   for i, path in enumerate(libs))
    calls = []

    class Symbol:
        def __init__(self, path, value):
            self.path, self.value = path, value

        def __call__(self, *args):
            calls.append((self.path, args))
            return self.value

    class Library:
        def __init__(self, path):
            if libs[path] is not None:
                self.scipy_openblas_set_num_threads64_ = Symbol(path, None)
                self.scipy_openblas_get_corename64_ = Symbol(path, libs[path])

    monkeypatch.setattr(pipeline, "open", lambda *args, **kw: io.StringIO(maps), raising=False)
    monkeypatch.setattr(pipeline.ctypes, "CDLL", Library)
    pipeline.pin_blas_threads()
    assert calls == [("/lib/libscipy_openblas64_-aaa.so", (1,)),
                     ("/lib/libscipy_openblas64_-bbb.so", (1,))]
    assert pipeline.openblas_cores() == {"libscipy_openblas64_": "Haswell"}


class TestCompareDocs:
    @pytest.fixture
    def doc(self, tiny_run):
        return json.loads((tiny_run[1] / "report.json").read_text())

    def test_a_document_equals_itself(self, doc):
        assert compare_docs(doc, json.loads(json.dumps(doc)), 0.0) == []

    def test_floats_within_the_tolerance_pass(self, doc):
        other = json.loads(json.dumps(doc))
        fold = other["blocks"]["LR|fused"]["folds"][2]
        fold["test_wf_cal"][0] += 2e-7
        fold["tau_s"] -= 3e-7
        assert compare_docs(doc, other, 1e-6) == []
        assert compare_docs(doc, other, 2.5e-7) == [
            (("blocks", "LR|fused", "folds", 2, "tau_s"),
             doc["blocks"]["LR|fused"]["folds"][2]["tau_s"], fold["tau_s"])]

    @pytest.mark.parametrize("path, value", [
        (("blocks", "GBDT|audio", "folds", 0, "test_cg_ids", 1), "c9999"),
        (("blocks", "LR|audio", "folds", 1, "test_cg_labels", 0), 2),
        (("blocks", "LR|audio", "folds", 1, "n_test_coughers"), -1),
        (("blocks", "LR|fused", "folds", 3, "test_sets", "0.1", "has_pos", 0), "maybe"),
        (("blocks", "LR|fused", "folds", 0, "tau_w"), None),
        (("blocks", "LR|fused", "folds", 0, "tau_w"), 1),
        # chosen, not computed: exact even where a float moves by less than atol
        (("blocks", "LR|audio", "folds", 1, "best_params", "C"), 0.0500001),
        (("config", "calib_frac"), 0.2000001),
        (("alphas", 0), 0.1000001),
    ])
    def test_any_other_leaf_must_be_equal(self, doc, path, value):
        other = json.loads(json.dumps(doc))
        *parents, last = path
        node = other
        for key in parents:
            node = node[key]
        old, node[last] = node[last], value
        assert compare_docs(doc, other, 1.0) == [(path, old, value)]

    def test_flipped_set_membership_is_reported(self, doc):
        other = json.loads(json.dumps(doc))
        has_pos = other["blocks"]["GBDT|fused"]["folds"][0]["test_sets"]["0.05"]["has_pos"]
        has_pos[0] = not has_pos[0]
        beyond = compare_docs(doc, other, 1.0)
        assert [path[-4:] for path, _, _ in beyond] == [("test_sets", "0.05", "has_pos", 0)]

    @pytest.mark.parametrize("change", [
        lambda d: d["config"].update(extra=None),
        lambda d: d["blocks"]["LR|audio"]["folds"][1]["oof_probs"].pop(),
        lambda d: d["blocks"].pop("GBDT|fused"),
    ])
    def test_key_sets_and_lengths_must_be_equal(self, doc, change):
        other = json.loads(json.dumps(doc))
        change(other)
        assert len(compare_docs(doc, other, 1.0)) == 1
