"""Property tests of the exit-code contract. Every value a rule table checks, every
alpha and every ``synth`` flag is rejected with ``ConfigError`` (or argparse's
exit 2) or accepted as a value the run can use. Every cell of a fold-plan CSV or
a manifest row, text or raw bytes, ends ``audit`` or ``features`` with exit 0, 3
or 4, never a traceback."""

import json
import math
import numbers
import os
import pathlib
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_GBDT_GRID, TINY_LR_GRID, tiny_experiment_doc
from coughscreen import cli, models
from coughscreen.data import MANIFEST_COLUMNS
from coughscreen.experiment import _FIELD_RULES, _GRID_RULES, ConfigError, ExperimentConfig
from coughscreen.synth import MAX_COUGHERS, MAX_COUGHS, SyntheticConfig, cohort_shape

SYNTH_FIELDS = [f.name for f in fields(SyntheticConfig)]


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
RULE_FIELDS = ([("config", k) for k in _FIELD_RULES] + [("synthetic", k) for k in SYNTH_FIELDS]
               + [(fam, k) for fam, rules in _GRID_RULES.items() for k in rules])

# every character, NUL and lone surrogates included, plus the names the choices take
TEXT = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                 st.sampled_from(["LR", "GBDT", "both", "audio", "fused", "balanced"]))
JSON_SCALARS = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 10 ** 309]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=6)

CHOICES = {"family": ("LR", "GBDT", "both"), "feature_mode": ("audio", "fused", "both"),
           "class_weight": (None, "balanced"), "class_weights": (None, "balanced")}
PATHS = {"manifest", "audio_root", "out"}


def _doc_with(where: str, key: str, value) -> dict:
    """The tiny experiment config with one value replaced."""
    doc = json.loads(json.dumps(tiny_experiment_doc("out")))  # a copy: the grids are shared
    if key == "manifest":
        del doc["synthetic"]  # a manifest is the other data source
    target = doc if where == "config" else doc["synthetic"] if where == "synthetic" \
        else doc["grids"][where][0]
    target[key] = value
    return doc


def _accepted(cfg: ExperimentConfig, where: str, key: str):
    if where == "config":
        return getattr(cfg, key)
    if where == "synthetic":
        return getattr(cfg.synthetic_config(), key)
    return cfg.grids[where][0][key]


def _is_file_name(value) -> bool:
    """Whether the OS takes ``value`` as a file name (it need not exist)."""
    try:
        os.stat(value)
    except OSError:
        pass
    except ValueError:  # an embedded NUL, or a character the file system cannot encode
        return False
    return True


def _can_be_made_a_directory(value) -> bool:
    """Whether the first of ``value`` and its parents that exists is a directory."""
    path = pathlib.Path(value)
    return next(p for p in (path, *path.parents) if p.exists()).is_dir()


def _usable(key: str, value) -> bool:
    """Whether the run can use ``value`` for ``key``, decided without the rule tables."""
    if key == "alphas":  # report rows and columns are tagged by alpha to two decimals
        tags = [f"{a:.2f}" for a in value] if all(type(a) is float for a in value) else []
        return (len(tags) == len(value) > 0 and all(0 < a < 1 for a in value)
                and len(set(tags)) == len(tags) and not {"0.00", "1.00"} & set(tags))
    if key == "grids":  # a candidate may leave out LR's class_weight, and no other key
        return isinstance(value, dict) and all(
            fam in models.GRIDS and isinstance(grid, list) and grid and all(
                isinstance(c, dict)
                and set(models.GRIDS[fam]) - {"class_weight"} <= set(c) <= set(models.GRIDS[fam])
                and all(_usable(k, v) for k, v in c.items()) for c in grid)
            for fam, grid in value.items())
    if key in CHOICES:
        return value in CHOICES[key]
    if key == "out":
        return isinstance(value, str) and value != "" and _is_file_name(value) \
            and _can_be_made_a_directory(value)
    if key in PATHS:
        return value is None or (isinstance(value, str) and _is_file_name(value))
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(float(value)))


def test_every_rule_table_field_is_drawn():
    drawn = {k for _, k in NUMERIC_FIELDS}
    assert {"calib_frac", "seed", "k_outer", "k_inner", "jobs"} <= drawn
    assert set(SYNTH_FIELDS) <= drawn
    assert set(_GRID_RULES["GBDT"]) - {"class_weights"} <= drawn
    assert "C" in drawn
    assert {k for where, k in RULE_FIELDS if where == "config"} - drawn == PATHS | {
        "family", "feature_mode", "alphas", "grids"}


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
@example(field=("synthetic", "n_coughers"), value=10 ** 12)
@example(field=("synthetic", "coughs_max"), value=10 ** 300)
@example(field=("synthetic", "coughs_min"), value=2 ** 63)
def test_numeric_value_rejected_or_finite(field, value):
    where, key = field
    try:
        cfg = ExperimentConfig.from_dict(_doc_with(where, key, value))
    except ConfigError:
        return
    assert math.isfinite(float(_accepted(cfg, where, key)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(field=st.sampled_from(RULE_FIELDS), value=JSON_VALUES)
@example(field=("config", "out"), value="runs\x00")
@example(field=("config", "out"), value="\ud800")
@example(field=("config", "out"), value=__file__)
@example(field=("config", "out"), value="")
@example(field=("config", "out"), value=os.path.join(__file__, "sub"))
@example(field=("config", "audio_root"), value="a\x00b")
@example(field=("config", "family"), value=["LR"])
@example(field=("GBDT", "depth"), value={"depth": 2})
@example(field=("config", "alphas"), value=[0.1, 0.104])
@example(field=("config", "alphas"), value=[0.997])
@example(field=("config", "alphas"), value=(0.2, 0.05))
@example(field=("config", "grids"), value={"LR": [{"C": 2}]})
@example(field=("config", "grids"), value={"LR": []})
@example(field=("config", "grids"), value={"SVM": [{"C": 1.0}]})
@example(field=("config", "grids"), value={"GBDT": [{"depth": 2}]})
@example(field=("config", "grids"), value={"LR": [{"C": 1.0, "class_weight": "even"}]})
def test_rule_table_value_rejected_or_usable(field, value):
    where, key = field
    try:
        cfg = ExperimentConfig.from_dict(_doc_with(where, key, value))
    except ConfigError:
        return
    assert _usable(key, _accepted(cfg, where, key))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(alphas=st.lists(st.one_of(st.floats(0, 1), JSON_VALUES), max_size=4))
@example(alphas=[0.1, 0.104])
@example(alphas=[[0.1]])
@example(alphas=[])
def test_alphas_rejected_or_usable(alphas):
    try:
        cfg = ExperimentConfig.from_dict(_doc_with("config", "alphas", alphas))
    except ConfigError:
        return
    tags = [f"{a:.2f}" for a in cfg.alphas]
    assert cfg.alphas and all(type(a) is float and 0 < a < 1 for a in cfg.alphas)
    assert len(set(tags)) == len(tags) and not {"0.00", "1.00"} & set(tags)


FLAG_TEXT = st.one_of(
    st.text(max_size=10),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "1_000", "0x10", " 7 ", "9" * 5000]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(flags=st.lists(st.tuples(st.sampled_from(list(cli._SYNTH_FLAGS)), FLAG_TEXT),
                      min_size=1, max_size=3))
@example(flags=[("--coughers", "1000000000000")])
@example(flags=[("--coughs-mean", "1e300"), ("--coughs-std", "1e308")])
@example(flags=[("--coughs-min", "9223372036854775808")])
def test_synth_flags_rejected_or_usable(flags):
    """Parsed as ``synth`` parses them, without writing a dataset."""
    try:
        args = cli._build_parser().parse_args(["synth"] + [f"{f}={text}" for f, text in flags])
    except SystemExit as exc:
        assert exc.code == 2
        return
    try:
        cfg = SyntheticConfig(**{name: getattr(args, name) for name in cli._SYNTH_FLAGS.values()})
    except ConfigError:
        return
    assert all(_usable(name, getattr(cfg, name)) for name in SYNTH_FIELDS)
    assert cfg.n_coughers <= MAX_COUGHERS and cfg.coughs_max <= MAX_COUGHS
    if cfg.n_coughers <= 1000:
        counts = [n for _, _, n in cohort_shape(cfg)]
        assert len(counts) == cfg.n_coughers
        assert all(cfg.coughs_min <= n <= cfg.coughs_max for n in counts)


# SyntheticConfig field -> (an out-of-range value, its synth flag text)
OUT_OF_RANGE = {
    "n_coughers": (10 ** 12, "1000000000000"),
    "prevalence": (1.5, "1.5"),
    "coughs_mean": (math.inf, "inf"),
    "coughs_std": (-1.0, "-1.0"),
    "coughs_min": (0, "0"),
    "coughs_max": (MAX_COUGHS + 1, str(MAX_COUGHS + 1)),
    "signal_strength_audio": (-1.0, "-1.0"),
    "signal_strength_clinical": (-0.5, "-0.5"),
    "seed": (-1, "-1"),
}


def test_out_of_range_table_covers_every_field():
    assert list(OUT_OF_RANGE) == SYNTH_FIELDS


@pytest.mark.parametrize("name", list(OUT_OF_RANGE))
def test_synthetic_rule_reaches_every_entry_point(tmp_path, capsys, name):
    value, text = OUT_OF_RANGE[name]
    with pytest.raises(ConfigError) as direct:
        SyntheticConfig(**{name: value})
    message = str(direct.value)
    assert message.startswith(f"{name} must be ")

    out = tmp_path / "exp"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_doc_with("synthetic", name, value) | {"out": str(out)}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: synthetic: {message}\n"

    flag = next(f for f, field in cli._SYNTH_FLAGS.items() if field == name)
    ds = tmp_path / "ds"
    assert cli.main(["synth", "--out", str(ds), f"{flag}={text}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() and not ds.exists()


# a CSV cell: any text (written as UTF-8, lone surrogates as their invalid bytes),
# raw bytes, numbers, and cells that once ended in a traceback or named no line
CSV_CELLS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.binary(max_size=12),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(str),
    st.floats().map(repr),
    st.sampled_from([b"\xff", b"\x00", "\x00", "x" * 140_000, "9" * 5000, "1.5", "",
                     '"', "\r\n", ".", "nan", "1e999"]))


def _csv_with(lines: list, row: int, col: int, cell) -> bytes:
    """The CSV ``lines`` (header first) as bytes, with cell ``col`` of data row ``row``
    replaced by ``cell`` unquoted, so a comma, quote or newline in it reshapes the file."""
    raw = cell if isinstance(cell, bytes) else cell.encode("utf-8", "surrogatepass")
    out = [line.encode() for line in lines]
    cells = out[row].split(b",")
    cells[col % len(cells)] = raw
    out[row] = b",".join(cells)
    return b"\n".join(out) + b"\n"


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """A two-recording synthetic dataset, and room for the fuzzed CSVs."""
    root = tmp_path_factory.mktemp("csv_contract")
    assert cli.main(["synth", "--out", str(root / "ds"), "--coughers", "2",
                     "--coughs-mean", "1", "--coughs-std", "0", "--coughs-min", "1",
                     "--coughs-max", "1"]) == 0
    return root


# a valid plan: 2 outer folds of 6 coughers, each with a calibration cougher and 2 inner folds
PLAN_LINES = ["cougher_id,outer_fold,role,inner_fold",
              "c1,0,test,-1", "c2,0,test,-1", "c3,0,test,-1", "c4,0,calib,-1",
              "c5,0,tuning,0", "c6,0,tuning,1",
              "c4,1,test,-1", "c5,1,test,-1", "c6,1,test,-1", "c1,1,calib,-1",
              "c2,1,tuning,0", "c3,1,tuning,1"]


def test_unmutated_plan_passes_the_audit(tmp_path):
    plan = tmp_path / "plan.csv"
    plan.write_text("\n".join(PLAN_LINES) + "\n", encoding="utf-8")
    assert cli.main(["audit", str(plan)]) == 0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(row=st.integers(1, len(PLAN_LINES) - 1), col=st.integers(0, 3), cell=CSV_CELLS)
@example(row=1, col=1, cell="x")
@example(row=2, col=2, cell="x" * 140_000)
@example(row=1, col=0, cell=b"\xff")
def test_plan_cell_exit_0_3_or_4(csv_dir, row, col, cell):
    plan = csv_dir / "plan.csv"
    plan.write_bytes(_csv_with(PLAN_LINES, row, col, cell))
    assert cli.main(["audit", str(plan)]) in (0, 3, 4)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(row=st.integers(1, 2), col=st.integers(0, len(MANIFEST_COLUMNS) - 1), cell=CSV_CELLS)
@example(row=1, col=4, cell=b"\xff")
@example(row=2, col=0, cell="x" * 140_000)
def test_manifest_cell_exit_0_3_or_4(csv_dir, row, col, cell):
    lines = (csv_dir / "ds" / "manifest.csv").read_text().splitlines()
    manifest = csv_dir / "ds" / "fuzzed.csv"
    manifest.write_bytes(_csv_with(lines, row, col, cell))
    assert cli.main(["features", str(manifest), "--out", str(csv_dir / "features.csv")]) in (0, 3)
