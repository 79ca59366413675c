import pytest

from coughscreen import pipeline, synth
from coughscreen.experiment import ExperimentConfig, run_experiment

TINY_LR_GRID = [{"C": 0.05, "class_weight": "balanced"}]
TINY_GBDT_GRID = [{"depth": 2, "iterations": 8, "learning_rate": 0.1,
                   "l2_leaf_reg": 3.0, "subsample": 1.0, "rsm": 1.0,
                   "class_weights": "balanced"}]


def tiny_experiment_doc(out, **overrides):
    doc = {
        "synthetic": {"n_coughers": 40, "prevalence": 0.3, "coughs_mean": 4,
                      "coughs_std": 1, "coughs_min": 3, "coughs_max": 6},
        "family": "both",
        "feature_mode": "both",
        "seed": 42,
        "k_outer": 4,
        "k_inner": 3,
        "calib_frac": 0.2,
        "out": str(out),
        "grids": {"LR": TINY_LR_GRID, "GBDT": TINY_GBDT_GRID},
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="session")
def synthetic_table():
    """``build(cfg)``: the FeatureTable of a ``SyntheticConfig``, built once per session.

    Callers must not modify the table they get.
    """
    tables = {}

    def build(cfg):
        if cfg not in tables:
            tables[cfg] = pipeline.build_feature_table(synth.generate_synthetic(cfg))
        return tables[cfg]

    return build


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One small two-family, two-mode, 10-outer-fold experiment shared across
    report tests."""
    out = tmp_path_factory.mktemp("tiny_run")
    doc = tiny_experiment_doc(out, k_outer=10, k_inner=3)
    doc["synthetic"]["n_coughers"] = 60
    report = run_experiment(ExperimentConfig.from_dict(doc))
    return report, out
