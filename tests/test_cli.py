"""Command-line harness tests: spec validation, artifacts, exit codes.

Runs every command through main() on small synthetic experiments, so the
suite exercises argument parsing, the batch runners, and artifact formats
without subprocess overhead.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demix.cli as cli
import demix.errors
from demix.cli import main
from demix.errors import PipelineError
from demix.kde import BandwidthSchedule
from demix.measures import DiscreteMeasure, GridSpec
from demix.mixfit import DenoiseConfig, ProjectionConfig, estimate_components
from demix.regfit import MdeConfig, RegressionFit
from demix.spec import ExperimentSpec
from demix.synth import (MixedRegressionModel, MixingSpec, RegressionCurve,
                         VanillaMixtureModel)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def crossing_lines_obj(lambdas=(0.35, 0.65)) -> dict:
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=lambdas,
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    return model.to_json_obj()


def box_mixture_obj() -> dict:
    model = VanillaMixtureModel(
        lambdas=(0.3, 0.7), mus=(-2.5, 2.5), sigma=0.25,
        gks=(MixingSpec.uniform(-0.5, 0.5), MixingSpec.uniform(-0.5, 0.5)))
    return model.to_json_obj()


def write_spec(path, model_obj, n, seeds, configs=None, out=None) -> str:
    obj = {"model": model_obj, "n": n, "seeds": seeds}
    if configs is not None:
        obj["configs"] = configs
    if out is not None:
        obj["out"] = out
    path = str(path)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# shared run directory (one simulate + fit, reused across tests)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reg_run(tmp_path_factory):
    """Simulated and fitted regression experiment: n=400, seeds 0 and 1."""
    root = tmp_path_factory.mktemp("reg_run")
    out = str(root / "run")
    spec = write_spec(root / "exp.json", crossing_lines_obj(),
                      [400], [0, 1],
                      configs={"x0": 1.0, "n_x_grid": 9}, out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-regression", "--spec", spec, "--threads", "2"]) == 0
    return spec, out


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation_exit_codes(tmp_path, capsys):
    cases = [
        {"model": crossing_lines_obj(), "n": 0, "seeds": [0]},
        {"model": crossing_lines_obj(), "n": [100], "seeds": []},
        {"model": crossing_lines_obj(), "n": [100], "seeds": [0, 0]},
        {"model": {"type": "nonsense"}, "n": [100], "seeds": [0]},
        {"n": [100], "seeds": [0]},
        {"model": crossing_lines_obj(), "n": [100], "seeds": [0],
         "bogus_key": 1},
        {"model": crossing_lines_obj(), "n": [100], "seeds": [0],
         "configs": {"bogus": 1}},
    ]
    for i, obj in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code = main(["simulate", "--spec", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2, f"case {i} returned {code}"
        assert capsys.readouterr().err.startswith("error:")


def test_spec_file_problems(tmp_path, capsys):
    assert main(["simulate", "--spec", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--spec", str(bad),
                 "--out", str(tmp_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_out_dir_is_validation_error(tmp_path):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [0])
    assert main(["simulate", "--spec", spec]) == 2


# (id, changes to a valid regression spec, text the error must contain)
REJECTED_SPECS = [
    ("model_without_a",
     {"model": {k: v for k, v in crossing_lines_obj().items() if k != "a"}},
     "'a'"),
    ("bandwidth_without_kind",
     {"configs": {"bandwidth": {"c": 1.0}}}, "'kind'"),
    ("bandwidth_unknown_key",
     {"configs": {"bandwidth": {"kind": "power_law", "exponant": -0.3}}},
     "exponant"),
    ("bandwidth_unknown_kind",
     {"configs": {"bandwidth": {"kind": "fixd", "value": 0.1}}}, "fixd"),
    ("n_x_grid_fraction", {"configs": {"n_x_grid": 2.5}}, "n_x_grid"),
    ("n_x_grid_zero", {"configs": {"n_x_grid": 0}}, "n_x_grid"),
    ("window_zero", {"configs": {"window": 0}}, "window"),
    ("window_text", {"configs": {"window": "0.1"}}, "window"),
    ("seed_fraction", {"seeds": [0, 1.5]}, "seeds"),
    ("seed_bool", {"seeds": [True]}, "seeds"),
    ("seeds_as_text", {"seeds": "0,1"}, "seeds"),
    ("mde_unknown_key", {"configs": {"mde": {"coarse": 31}}}, "coarse"),
    ("projection_unknown_key", {"configs": {"projection": {"l": 30}}},
     "projection"),
    ("denoise_unknown_key", {"configs": {"denoise": {"theshold": 0.1}}},
     "theshold"),
    ("y_grid_unknown_key",
     {"configs": {"projection": {"y_grid": {"lo": -3.0, "hi": 3.0,
                                            "n": 512}}}}, "y_grid"),
    ("mde_not_object", {"configs": {"mde": 31}}, "mde"),
    ("projection_value_type", {"configs": {"projection": {"L": "30"}}},
     "projection"),
    ("configs_not_object", {"configs": [["x0", 1.0]]}, "configs"),
    ("out_not_text", {"out": 5}, "out"),
    ("n_infinite", {"n": [math.inf]}, "n must"),
    ("n_repeated", {"n": [400, 400]}, "n must"),
    ("x0_text", {"configs": {"x0": "abc"}}, "x0"),
    ("x0_bool", {"configs": {"x0": True}}, "x0"),
    ("x0_nan", {"configs": {"x0": math.nan}}, "x0"),
    ("mde_B_nan", {"configs": {"x0": 1.0, "mde": {"B": math.nan}}},
     "B must"),
    ("coarse_grid_fraction", {"configs": {"mde": {"coarse_grid": 30.5}}},
     "mde.coarse_grid"),
    ("refine_levels_fraction", {"configs": {"mde": {"refine_levels": 1.5}}},
     "mde.refine_levels"),
    ("projection_L_fraction", {"configs": {"projection": {"L": 20.5}}},
     "projection.L"),
    ("max_iters_fraction", {"configs": {"projection": {"max_iters": 10.5}}},
     "projection.max_iters"),
    ("coarse_grid_bool", {"configs": {"mde": {"coarse_grid": True}}},
     "mde.coarse_grid"),
    ("coarse_grid_past_sweep_bound",
     {"configs": {"mde": {"coarse_grid": 477}}}, "mde.coarse_grid=477"),
    ("mde_mode", {"configs": {"mde": {"mode": "grid"}}}, "mode"),
    ("denoise_schedule",
     {"configs": {"denoise": {"schedule": "manual", "delta": 0.3,
                              "t": 0.2}}}, "schedule"),
    ("refine_levels_past_doubles",
     {"configs": {"mde": {"refine_levels": 20}}}, "mde.refine_levels"),
]


@pytest.mark.parametrize("changes, named", [case[1:] for case in
                                            REJECTED_SPECS],
                         ids=[case[0] for case in REJECTED_SPECS])
def test_malformed_spec_exits_2_naming_the_key(tmp_path, capsys, changes,
                                               named):
    obj = {"model": crossing_lines_obj(), "n": [400], "seeds": [0],
           "configs": {"x0": 1.0}, **changes}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    for command in ("simulate", "fit-regression", "find-sep"):
        code = main([command, "--spec", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2, f"{command} returned {code}"
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err


def test_four_component_spec_bounds_the_mde_grid(tmp_path, capsys):
    # 61**4 level-0 candidates per x exceed the 61**3 bound: every command
    # exits 2 naming mde.coarse_grid and its largest value for K=4, 21.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.1, 0.2, 0.3, 0.4),
        m=(RegressionCurve.line(0.5, -3.0), RegressionCurve.line(-0.5, -1.0),
           RegressionCurve.line(0.5, 1.0), RegressionCurve.line(-0.5, 3.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=0.0)
    out = tmp_path / "out"
    spec = write_spec(tmp_path / "exp.json", model.to_json_obj(), [20000],
                      [0], configs={"n_x_grid": 1}, out=str(out))
    for command in ("simulate", "fit-regression", "find-sep", "eval"):
        assert main([command, "--spec", spec]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: mde.coarse_grid=61 ") \
            and err.rstrip().endswith("is 21"), err
    assert not out.exists()
    spec = write_spec(tmp_path / "exp.json", model.to_json_obj(), [20000],
                      [0], configs={"n_x_grid": 1,
                                    "mde": {"coarse_grid": 21}},
                      out=str(out))
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-regression", "--spec", spec]) == 0
    fit = read_json(out / "fit_regression_n20000_seed0.json")
    assert fit["fit"]["diagnostics"]["mde_candidates"] == [21, 13, 13, 13]


def test_one_component_spec_bounds_the_mde_grid(tmp_path, capsys):
    # K=1 is held to the K=2 bound of the level-0 sweep: 476 loads, 477
    # exits 2 naming mde.coarse_grid.  No data is simulated or fitted.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(1.0,), m=(RegressionCurve.line(1.0),),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=0.0)
    out = tmp_path / "out"
    ExperimentSpec.from_json_obj({
        "model": model.to_json_obj(), "n": [400], "seeds": [0],
        "configs": {"mde": {"coarse_grid": 476}}})
    spec = write_spec(tmp_path / "exp.json", model.to_json_obj(), [400],
                      [0], configs={"mde": {"coarse_grid": 477}},
                      out=str(out))
    for command in ("simulate", "fit-regression"):
        assert main([command, "--spec", spec]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: mde.coarse_grid=477 ") \
            and err.rstrip().endswith("K=1 is 476"), err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("mde", {"B": 0.001, "coarse_grid": 5}),
    ("x0", 123.0),
    ("n_x_grid", 3),
    ("window", 9.0),
])
def test_mixture_spec_rejects_regression_settings(tmp_path, capsys, key,
                                                  value):
    out = tmp_path / "out"
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(), [400], [0],
                      configs={key: value}, out=str(out))
    for command in ("simulate", "fit-mixture"):
        assert main([command, "--spec", spec]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err, err
    assert not out.exists()


SETTINGS_BLOCKS = {"bandwidth": BandwidthSchedule,
                   "projection": ProjectionConfig,
                   "denoise": DenoiseConfig, "mde": MdeConfig}
# Valid text for the settings that take text, besides their defaults.
SETTING_TEXT = {"kind": ["fixed"]}
# Wrongly typed, fractional, boolean, NaN, infinite and negative values,
# and small whole numbers, one written as a float, that a fit may reject.
BAD_SETTING = st.sampled_from([True, False, None, "1", [1], 0.5, 2.5, 10.5,
                               30.5, -1, -2.5, math.nan, math.inf,
                               -math.inf, 1, 3.0])


def settings_block(name):
    """``{name: block}`` for the settings dataclass of block ``name``: one
    or two keys drawn from its fields plus an unknown one, each holding a
    value from ``BAD_SETTING``, or the field's default or another valid
    text."""
    fields = {f.name: f.default
              for f in dataclasses.fields(SETTINGS_BLOCKS[name])}

    def value(key):
        if key not in fields:
            return BAD_SETTING
        valid = [fields[key], *SETTING_TEXT.get(key, [])]
        return st.one_of(BAD_SETTING, st.sampled_from(valid))

    keys = st.lists(st.sampled_from([*fields, "unknown"]), unique=True,
                    min_size=1, max_size=2)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: value(k) for k in ks})).map(lambda block: {name: block})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SETTINGS_BLOCKS)).flatmap(settings_block))
def test_generated_settings_exit_cleanly(blocks):
    """Every command exits 0, exits 2 naming a key of the drawn block
    (a missing ``kind`` included), or exits 3 with each seed's
    PipelineError recorded; none raises out of main()."""
    named = [*blocks, "unknown",
             *(f.name for name in blocks
               for f in dataclasses.fields(SETTINGS_BLOCKS[name]))]
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        spec = write_spec(os.path.join(root, "exp.json"),
                          crossing_lines_obj(), [400], [0],
                          configs={"x0": 1.0, "n_x_grid": 5, **blocks},
                          out=out)
        for command, record in (("simulate", None),
                                ("fit-regression",
                                 "fit_regression_n400_seed0.json"),
                                ("find-sep", "sep_n400_seed0.json")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--spec", spec])
            err = err.getvalue()
            if code == 2:
                assert err.startswith("error:"), err
                assert any(key in err for key in named), (blocks, err)
            elif code == 3:
                assert record is not None, command
                failed = read_json(os.path.join(out, record))
                assert failed["status"] == "failed"
                assert issubclass(getattr(demix.errors,
                                          failed["error_type"]),
                                  PipelineError)
            else:
                assert code == 0, (command, code, err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--seeds", "1,1"],
    ["simulate", "--seeds", "0,2,0"],
    ["demo-nonident", "equal_weights_regression", "--n", "200",
     "--seeds", "3,3"],
    ["demo-nonident", "near_nonregular_mixture", "--n", "200",
     "--seeds", "0,0"],
])
def test_repeated_seed_flag_exits_2(tmp_path, capsys, argv):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(), [30],
                      [0])
    if argv[0] != "demo-nonident":  # the demos read no spec
        argv = argv + ["--spec", spec]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*"))


# (argv, a flag the command does not read)
STRAY_FLAGS = [
    (["simulate"], ["--L", "80"]),
    (["fit-mixture"], ["--acceptance"]),
    (["fit-regression"], ["--acceptance"]),
    (["find-sep"], ["--sigma", "0.5"]),
    (["eval"], ["--threads", "8"]),
    (["demo-nonident", "equal_weights_regression", "--n", "200"],
     ["--spec", "exp.json"]),
    # The former estimator-settings flags; the spec's configs replace them.
    (["fit-regression"], ["--K", "2"]),
    (["fit-mixture"], ["--sigma", "0.25"]),
    (["fit-regression"], ["--L", "80"]),
    (["fit-mixture"], ["--M", "4"]),
    (["fit-regression"], ["--delta", "0.3"]),
    (["fit-mixture"], ["--threshold", "0.2"]),
    (["fit-regression"], ["--auto-schedule"]),
    (["fit-regression"], ["--bandwidth-exp", "-0.25"]),
    (["fit-mixture"], ["--bandwidth-c", "1.0"]),
    (["find-sep"], ["--K", "2"]),
    (["find-sep"], ["--bandwidth-exp", "-0.25"]),
    (["find-sep"], ["--bandwidth-c", "1.0"]),
]


def _stray_ids(rows) -> list:
    """A command's first row is named by the command, later ones by the
    command and the flag."""
    ids = []
    for argv, stray in rows:
        ids.append(argv[0] if argv[0] not in ids else argv[0] + stray[0])
    return ids


@pytest.mark.parametrize("argv, stray", STRAY_FLAGS,
                         ids=_stray_ids(STRAY_FLAGS))
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv,
                                                stray):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(), [100],
                      [0])
    if argv[0] != "demo-nonident":
        argv = argv + ["--spec", spec]
    with pytest.raises(SystemExit) as exc:
        main(argv + stray + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(stray)}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_only_flags_a_command_takes():
    """Every ``--flag`` in the README is taken by some command, except
    pip's in the install line and the former flags in the table that maps
    each to its spec setting, which every command must refuse."""
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    taken = {option for command in commands.choices.values()
             for action in command._actions
             for option in action.option_strings}
    named, former = set(), set()
    for line in README.read_text().splitlines():
        if line.startswith("pip "):
            continue
        flags = re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", line)
        (former if line.startswith("| `--") else named).update(flags)
    assert named - taken == set()
    assert len(former) == 9 and former & taken == set()


def test_readme_specs_load():
    """The README's example spec loads, and so does it with each
    ``configs`` fragment of the mapping table's new-setting column."""
    text = README.read_text()
    example = json.loads(re.search(r"```json\n(.*?)```", text,
                                   re.S).group(1))
    ExperimentSpec.from_json_obj(example)
    table = text[text.index("| Former flag or setting |"):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    fragments = [json.loads("{" + code + "}") for row in rows
                 for code in re.findall(r"`([^`]*)`", row.split("|")[2])
                 if code.startswith('"')]
    assert len(fragments) == 7
    for fragment in fragments:
        ExperimentSpec.from_json_obj(
            {**example, "configs": {**example["configs"], **fragment}})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 12),
                          st.sampled_from([1.5, 2.0, True])),
                max_size=5))
def test_seed_list_rule_is_shared_by_spec_and_flag(seeds):
    valid = (len(seeds) > 0
             and all(type(s) is int and s >= 0 for s in seeds)
             and len(set(seeds)) == len(seeds))
    with tempfile.TemporaryDirectory() as root:
        in_spec = write_spec(os.path.join(root, "a.json"),
                             crossing_lines_obj(), [20], seeds)
        base = write_spec(os.path.join(root, "b.json"),
                          crossing_lines_obj(), [20], [0])
        out_a, out_b = os.path.join(root, "a"), os.path.join(root, "b")
        code_a = main(["simulate", "--spec", in_spec, "--out", out_a])
        code_b = main(["simulate", "--spec", base, "--out", out_b,
                       "--seeds=" + ",".join(str(s) for s in seeds)])
        assert code_a == code_b == (0 if valid else 2)
        if valid:
            assert (read_json(os.path.join(out_a, "manifest.json"))
                    == read_json(os.path.join(out_b, "manifest.json")))
            assert read_json(os.path.join(out_a, "manifest.json"))[
                "seeds"] == seeds


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_csvs_and_manifest(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [50], [0, 1, 2], out=out)
    assert main(["simulate", "--spec", spec]) == 0
    for seed in (0, 1, 2):
        path = os.path.join(out, f"dataset_n50_seed{seed}.csv")
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.readline().strip() == "x,y"
            assert len(fh.readlines()) == 50
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["kind"] == "regression"
    assert manifest["model"]["type"] == "mixed_regression"
    assert manifest["seeds"] == [0, 1, 2]
    assert manifest["datasets"]["n50_seed1"] == "dataset_n50_seed1.csv"


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(),
                      [60], [0, 1], out=out)
    assert main(["simulate", "--spec", spec]) == 0
    names = sorted(os.listdir(out))
    first = {name: open(os.path.join(out, name), "rb").read()
             for name in names}
    assert main(["simulate", "--spec", spec]) == 0
    for name in names:
        assert open(os.path.join(out, name), "rb").read() == first[name]


def test_simulate_mixture_writes_single_column(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(),
                      [40], [3], out=out)
    assert main(["simulate", "--spec", spec]) == 0
    with open(os.path.join(out, "dataset_n40_seed3.csv")) as fh:
        assert fh.readline().strip() == "y"
        assert len(fh.readlines()) == 40


def test_seeds_flag_overrides_spec(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [30], [0, 1], out=out)
    assert main(["simulate", "--spec", spec, "--seeds", "5"]) == 0
    assert os.path.exists(os.path.join(out, "dataset_n30_seed5.csv"))
    assert not os.path.exists(os.path.join(out, "dataset_n30_seed0.csv"))
    assert read_json(os.path.join(out, "manifest.json"))["seeds"] == [5]


# ---------------------------------------------------------------------------
# fit commands
# ---------------------------------------------------------------------------

def test_fit_regression_artifacts(reg_run):
    spec, out = reg_run
    for seed in (0, 1):
        record = read_json(
            os.path.join(out, f"fit_regression_n400_seed{seed}.json"))
        assert record["status"] == "ok"
        assert record["n"] == 400 and record["seed"] == seed
        fit = record["fit"]
        assert len(fit["m_hat"]) == 2
        assert len(fit["x_grid"]) == 9
        assert abs(sum(fit["mixture"]["lambdas_hat"]) - 1.0) < 1e-9
        plot = os.path.join(out, f"plot_regression_n400_seed{seed}.csv")
        with open(plot) as fh:
            assert fh.readline().strip() == "x,m_hat1,m_hat2,m_true1,m_true2"
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert len(rows) == 9
        # truth columns follow the weight-ascending order: 0.35 goes
        # with the rising line.
        first = [float(v) for v in rows[0]]
        assert first[3] == pytest.approx(first[0])
        assert first[4] == pytest.approx(-first[0])


def test_fit_rerun_is_byte_identical(reg_run):
    spec, out = reg_run
    paths = [os.path.join(out, "fit_regression_n400_seed0.json"),
             os.path.join(out, "plot_regression_n400_seed0.csv")]
    first = {p: open(p, "rb").read() for p in paths}
    assert main(["fit-regression", "--spec", spec, "--seeds", "0"]) == 0
    for p in paths:
        assert open(p, "rb").read() == first[p]


def test_fit_artifacts_do_not_depend_on_threads(tmp_path):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [400], [0, 1, 2], configs={"x0": 1.0, "n_x_grid": 9})
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == 0
        assert main(["fit-regression", "--spec", spec, "--out", str(out),
                     "--threads", threads]) == 0
        runs[threads] = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())
                         if path.name.startswith(("fit_", "plot_"))}
    assert len(runs["1"]) == 6
    assert runs["1"] == runs["2"]


@pytest.mark.parametrize("command, model_obj, n, prefixes", [
    ("find-sep", crossing_lines_obj(), 400, ("sep_",)),
    ("fit-mixture", box_mixture_obj(), 800, ("fit_", "plot_")),
])
def test_artifacts_do_not_depend_on_threads(tmp_path, command, model_obj,
                                            n, prefixes):
    spec = write_spec(tmp_path / "exp.json", model_obj, [n], [0, 1, 2])
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == 0
        assert main([command, "--spec", spec, "--out", str(out),
                     "--threads", threads]) == 0
        runs[threads] = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())
                         if path.name.startswith(prefixes)}
    assert len(runs["1"]) == 3 * len(prefixes)
    assert runs["1"] == runs["2"]


def test_missing_datasets_name_the_first_seed_in_task_order(
        tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [3, 5], out=out)
    os.makedirs(out)
    load = cli._load_dataset

    def slow_first_seed(out_dir, n, seed, kind):
        if seed == 3:
            time.sleep(0.3)  # so the later seed fails first
        return load(out_dir, n, seed, kind)

    monkeypatch.setattr(cli, "_load_dataset", slow_first_seed)
    assert main(["fit-regression", "--spec", spec, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "seed=3" in err and "seed=5" not in err


def test_fit_mixture_artifacts(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(),
                      [800], [0], out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-mixture", "--spec", spec]) == 0
    record = read_json(os.path.join(out, "fit_mixture_n800_seed0.json"))
    assert record["status"] == "ok"
    lambdas = record["fit"]["lambdas_hat"]
    assert sum(lambdas) == pytest.approx(1.0, abs=1e-9)
    assert lambdas == sorted(lambdas)
    with open(os.path.join(out, "plot_mixture_n800_seed0.csv")) as fh:
        assert fh.readline().strip() == "y,f_hat,f_true"
        row = fh.readline().split(",")
    assert len(row) == 3


def test_fit_without_lp_solution_records_projection_error(tmp_path,
                                                          capsys):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(), [800], [0],
                      configs={"projection": {"max_iters": 1}}, out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-mixture", "--spec", spec]) == 3
    record = read_json(os.path.join(out, "fit_mixture_n800_seed0.json"))
    assert record["status"] == "failed"
    assert record["error_type"] == "ProjectionError"
    assert "FAILED ProjectionError" in capsys.readouterr().out


# (id, model kind, dataset file text, text the error must contain)
MALFORMED_DATASETS = [
    ("short_row", "regression", "x,y\n0.1,0.2\n0.3\n", "line 3"),
    ("blank_line_regression", "regression", "x,y\n0.1,0.2\n\n0.3,0.4\n",
     "line 3"),
    ("blank_line_mixture", "mixture", "y\n0.1\n\n0.3\n", "line 3"),
    ("third_column", "regression", "x,y\n0.1,0.2,0.5\n", "line 2"),
    ("wrong_header", "regression", "a,b\n1,2\n", "expected header 'x,y'"),
    ("mixture_header", "regression", "y\n0.1\n", "expected header 'x,y'"),
    ("empty_file", "mixture", "", "expected header 'y'"),
    ("no_rows", "mixture", "y\n", "no data rows"),
    ("not_a_number", "regression", "x,y\n0.1,abc\n",
     "line 2: not a number"),
    ("nan", "regression", "x,y\n0.0,1.0\nnan,2.0\n", "line 3: non-finite"),
    ("infinite_regression", "regression", "x,y\n0.0,1.0\n0.5,inf\n",
     "line 3: non-finite"),
    ("infinite", "mixture", "y\n0.0\n1.0\n-inf\n", "line 4: non-finite"),
]


@pytest.mark.parametrize("kind, text, named",
                         [case[1:] for case in MALFORMED_DATASETS],
                         ids=[case[0] for case in MALFORMED_DATASETS])
def test_malformed_dataset_exits_2_naming_file_and_line(tmp_path, capsys,
                                                        kind, text, named):
    out = str(tmp_path / "out")
    model_obj = (crossing_lines_obj() if kind == "regression"
                 else box_mixture_obj())
    spec = write_spec(tmp_path / "exp.json", model_obj, [400], [0], out=out)
    os.makedirs(out)
    path = os.path.join(out, "dataset_n400_seed0.csv")
    with open(path, "w") as fh:
        fh.write(text)
    commands = (("fit-regression", "find-sep") if kind == "regression"
                else ("fit-mixture",))
    for command in commands:
        assert main([command, "--spec", spec]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err and named in err, err


def test_fit_missing_dataset_names_seed(tmp_path, capsys):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [7], out=out)
    os.makedirs(out)
    assert main(["fit-regression", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "seed=7" in err and "not found" in err


def test_fit_command_checks_model_kind(tmp_path):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [0], out=str(tmp_path / "out"))
    assert main(["fit-mixture", "--spec", spec]) == 2
    spec2 = write_spec(tmp_path / "exp2.json", box_mixture_obj(),
                       [100], [0], out=str(tmp_path / "out"))
    assert main(["fit-regression", "--spec", spec2]) == 2
    assert main(["find-sep", "--spec", spec2]) == 2


# ---------------------------------------------------------------------------
# find-sep
# ---------------------------------------------------------------------------

def test_find_sep_artifacts(reg_run):
    spec, out = reg_run
    assert main(["find-sep", "--spec", spec]) == 0
    for seed in (0, 1):
        record = read_json(os.path.join(out, f"sep_n400_seed{seed}.json"))
        assert record["status"] == "ok"
        assert abs(record["x_star"]) >= 0.8
        assert len(record["profile"]) == 101
        assert record["window"] > 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _perfect_fit_record(model, n, seed, n_x=9, offset=0.0) -> dict:
    """Fit record whose curves and mixture match the model exactly,
    optionally shifted to fabricate a known error."""
    xs = np.linspace(model.a, model.b, n_x)
    mixture = estimate_components(
        DiscreteMeasure([-model.x0, model.x0],
                        [model.lambdas[1], model.lambdas[0]]),
        [(-math.inf, 0.0), (0.0, math.inf)],
        model.sigma, GridSpec(-3.0, 3.0, 1601))
    fit = RegressionFit(
        x_grid=tuple(float(v) for v in xs),
        m_hat=(tuple(float(v + offset) for v in xs),
               tuple(float(-v + offset) for v in xs)),
        mixture=mixture,
        per_x_objective=tuple(0.0 for _ in xs),
        x0_used=float(model.x0),
    )
    return {"n": n, "seed": seed, "status": "ok",
            "fit": fit.to_json_obj()}


def test_eval_perfect_fits_report_zero_error(tmp_path):
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0, 1],
                      out=out)
    model = MixedRegressionModel.from_json_obj(model_obj)
    for seed in (0, 1):
        record = _perfect_fit_record(model, 100, seed)
        with open(os.path.join(out, f"fit_regression_n100_seed{seed}.json"),
                  "w") as fh:
            json.dump(record, fh)
    assert main(["eval", "--spec", spec, "--acceptance"]) == 0
    report = read_json(os.path.join(out, "eval_report.json"))
    metrics = report["per_n"]["100"]["metrics"]
    assert metrics["m_mean_abs_max"]["median"] == 0.0
    assert metrics["lambda_error_sorted"]["median"] == 0.0
    # floor set by the mean-extraction quadrature inside the mixture fit
    assert metrics["f_l1_max"]["median"] <= 1e-8
    assert report["acceptance"]["passed"] is True


def test_eval_acceptance_failure_exits_4(tmp_path, capsys):
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0],
                      out=out)
    model = MixedRegressionModel.from_json_obj(model_obj)
    record = _perfect_fit_record(model, 100, 0, offset=0.5)
    with open(os.path.join(out, "fit_regression_n100_seed0.json"),
              "w") as fh:
        json.dump(record, fh)
    assert main(["eval", "--spec", spec, "--acceptance"]) == 4
    assert "FAIL" in capsys.readouterr().out
    report = read_json(os.path.join(out, "eval_report.json"))
    assert report["acceptance"]["passed"] is False
    # without the flag the same report is written but the exit is clean
    assert main(["eval", "--spec", spec]) == 0


def test_eval_aggregates_real_fits(reg_run):
    spec, out = reg_run
    assert main(["eval", "--spec", spec]) == 0
    report = read_json(os.path.join(out, "eval_report.json"))
    assert report["kind"] == "regression"
    block = report["per_n"]["400"]
    assert block["failed_seeds"] == []
    values = block["metrics"]["m_mean_abs_max"]["values"]
    assert len(values) == 2 and all(v >= 0 for v in values)
    assert len(report["trend"]) == 1
    assert report["trend"][0]["n"] == 400


def test_eval_missing_fit_is_validation_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    os.makedirs(out)
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [4], out=out)
    assert main(["eval", "--spec", spec]) == 2
    assert "seed=4" in capsys.readouterr().err


def test_eval_marks_failed_seeds(tmp_path):
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0, 1],
                      out=out)
    model = MixedRegressionModel.from_json_obj(model_obj)
    with open(os.path.join(out, "fit_regression_n100_seed0.json"),
              "w") as fh:
        json.dump(_perfect_fit_record(model, 100, 0), fh)
    with open(os.path.join(out, "fit_regression_n100_seed1.json"),
              "w") as fh:
        json.dump({"n": 100, "seed": 1, "status": "failed",
                   "error_type": "UnderResolutionError",
                   "error": "synthetic failure"}, fh)
    assert main(["eval", "--spec", spec]) == 0
    report = read_json(os.path.join(out, "eval_report.json"))
    assert report["per_n"]["100"]["failed_seeds"] == [1]
    assert report["trend"][0]["n_failed"] == 1


# ---------------------------------------------------------------------------
# demo-nonident
# ---------------------------------------------------------------------------

def test_demo_requires_out_dir():
    assert main(["demo-nonident", "equal_weights_regression"]) == 2


def test_demo_equal_weights_small_run(tmp_path):
    out = str(tmp_path / "demo")
    code = main(["demo-nonident", "equal_weights_regression",
                 "--out", out, "--n", "200", "--seeds", "0"])
    assert code == 0
    report = read_json(
        os.path.join(out, "demo_equal_weights_regression.json"))
    assert report["equal_weights"]["lambdas"] == [0.5, 0.5]
    assert report["contrast_weights"]["lambdas"] == [0.35, 0.65]
    assert len(report["equal_weights"]["per_seed"]) == 1
    pair = report["label_switch_pair"]
    # the blended pair agrees with the original as a curve set at every
    # sample point, which is what makes the two systems indistinguishable
    assert pair["max_set_discrepancy_at_samples"] == 0.0
    assert pair["u"] < pair["v"]
    with open(os.path.join(out, pair["curves_csv"])) as fh:
        assert fh.readline().strip() == "x,m1,m2,m1_blend,m2_blend"
        rows = [[float(v) for v in line.split(",")]
                for line in fh.read().splitlines()]
    assert len(rows) == 401
    # left of the blend the labels match, right of it they are swapped
    assert rows[0][3] == pytest.approx(rows[0][1])
    assert rows[-1][3] == pytest.approx(rows[-1][2])


def test_demo_near_nonregular_small_run(tmp_path):
    out = str(tmp_path / "demo")
    code = main(["demo-nonident", "near_nonregular_mixture",
                 "--out", out, "--n", "1500", "--seeds", "0,1",
                 "--threads", "2"])
    assert code == 0
    report = read_json(
        os.path.join(out, "demo_near_nonregular_mixture.json"))
    assert report["xi_values"] == [1.0, 0.01]
    assert report["per_xi"]["1.0"]["separation_warning"] is False
    assert report["per_xi"]["0.01"]["separation_warning"] is True
    assert len(report["per_xi"]["1.0"]["per_seed"]) == 2
    assert "error_strictly_larger_at_small_xi" in report
    assert os.path.exists(
        os.path.join(out, "demo_near_nonregular_density_xi1p0.csv"))
    assert os.path.exists(
        os.path.join(out, "demo_near_nonregular_density_xi0p01.csv"))
