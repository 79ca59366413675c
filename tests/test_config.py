"""Property test of the config contract: every numeric value is rejected with
``ConfigError`` or accepted as a finite float."""

import json
import math
import numbers
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_GBDT_GRID, TINY_LR_GRID, tiny_experiment_doc
from coughscreen.experiment import _FIELD_RULES, _GRID_RULES, ConfigError, ExperimentConfig
from coughscreen.synth import SyntheticConfig


def _numeric(name_values) -> list:
    return [k for k, v in name_values if isinstance(v, numbers.Real) and not isinstance(v, bool)]


# (where, key): where is "config", "synthetic" or a grid family
NUMERIC_FIELDS = (
    [("config", k) for k in _numeric((k, getattr(ExperimentConfig, k, None))
                                     for k in _FIELD_RULES)]
    + [("synthetic", k) for k in _numeric((f.name, f.default) for f in fields(SyntheticConfig))]
    + [(fam, k) for fam, grid in (("LR", TINY_LR_GRID), ("GBDT", TINY_GBDT_GRID))
       for k in _numeric(grid[0].items())]
)

JSON_SCALARS = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 10 ** 309]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)


def test_every_rule_table_field_is_drawn():
    drawn = {k for _, k in NUMERIC_FIELDS}
    assert {"calib_frac", "seed", "k_outer", "k_inner", "jobs"} <= drawn
    assert {f.name for f in fields(SyntheticConfig)} <= drawn
    assert set(_GRID_RULES["GBDT"]) - {"class_weights"} <= drawn
    assert "C" in drawn


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(field=st.sampled_from(NUMERIC_FIELDS), value=JSON_SCALARS)
@example(field=("LR", "C"), value=10 ** 400)
@example(field=("GBDT", "learning_rate"), value=10 ** 400)
@example(field=("GBDT", "l2_leaf_reg"), value=10 ** 400)
@example(field=("synthetic", "coughs_mean"), value=10 ** 400)
@example(field=("synthetic", "coughs_mean"), value=-10 ** 400)
@example(field=("config", "seed"), value=10 ** 400)
@example(field=("synthetic", "seed"), value=10 ** 400)
@example(field=("GBDT", "depth"), value=10 ** 400)
def test_numeric_value_rejected_or_finite(field, value):
    where, key = field
    doc = json.loads(json.dumps(tiny_experiment_doc("out")))  # a copy: the grids are shared
    target = doc if where == "config" else doc["synthetic"] if where == "synthetic" \
        else doc["grids"][where][0]
    target[key] = value
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    if where == "config":
        accepted = getattr(cfg, key)
    elif where == "synthetic":
        accepted = getattr(cfg.synthetic_config(), key)
    else:
        accepted = cfg.grids[where][0][key]
    assert math.isfinite(float(accepted))
