"""Command-line harness tests: spec validation, artifacts, exit codes.

Runs every command through main() on small synthetic experiments, so the
suite exercises argument parsing, the batch runners, and artifact formats
without subprocess overhead.
"""

import argparse
import contextlib
import dataclasses
import inspect
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
import demix.measures
from demix.cli import main
from demix.errors import PipelineError
from demix.kde import BandwidthSchedule
from demix.measures import DiscreteMeasure, GridSpec
from demix.mixfit import DenoiseConfig, ProjectionConfig, estimate_components
from demix.regfit import MdeConfig, RegressionFit
from demix.spec import ExperimentSpec, model_from_json_obj
from demix.synth import (CovariateSpec, MixedRegressionModel, MixingSpec,
                         RegressionCurve, VanillaMixtureModel)


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


def model_with(**changes) -> dict:
    """Changes to a valid spec that replace keys of its model block."""
    return {"model": {**crossing_lines_obj(), **changes}}


LINE_DOWN = {"kind": "polynomial", "coeffs": [0.0, -1.0]}
SINE = {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0}
TRUNCATED = {"kind": "truncated_smooth", "q_mean": 0.0, "q_sigma": 1.0,
             "scale": 0.05}

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
    ("sinusoid_unknown_key", model_with(m=[{**SINE, "phse": 1.5}, LINE_DOWN]),
     "phse"),
    ("point_mass_x_0", model_with(g0={"kind": "point_mass", "x_0": 0.5}),
     "x_0"),
    ("point_mass_slope", model_with(g0={"kind": "point_mass", "slope": 1.0}),
     "slope"),
    ("point_mass_width", model_with(g0={"kind": "point_mass", "width": 0.1}),
     "width"),
    ("uniform_p_x_alpha", model_with(p_x={"kind": "uniform", "alpha": 2.0}),
     "alpha"),
    ("coeffs_text",
     model_with(m=[{"kind": "polynomial", "coeffs": ["0", "1"]}, LINE_DOWN]),
     "coeffs"),
    ("coeffs_bool",
     model_with(m=[{"kind": "polynomial", "coeffs": [False, True]},
                   LINE_DOWN]), "coeffs"),
    ("lambdas_text", model_with(lambdas=["0.35", "0.65"]), "lambdas"),
    ("amplitude_text",
     model_with(m=[{**SINE, "amplitude": "1.0"}, LINE_DOWN]), "amplitude"),
    ("uniform_mixture_text",
     model_with(g0={"kind": "uniform_mixture",
                    "components": [[["-0.1", "0.1"], 1]]}), "components"),
    ("truncated_smooth_q_mean_text",
     model_with(g0={**TRUNCATED, "q_mean": "0"}), "q_mean"),
    ("truncated_smooth_resolution_fraction",
     model_with(g0={**TRUNCATED, "resolution": 2001.5}), "resolution"),
    ("truncated_smooth_resolution_text",
     model_with(g0={**TRUNCATED, "resolution": "2001"}), "resolution"),
    ("truncated_smooth_without_scale",
     model_with(g0={k: v for k, v in TRUNCATED.items() if k != "scale"}),
     "'scale'"),
    ("p_x_without_kind", model_with(p_x={}), "'kind'"),
    ("beta_p_x_without_beta", model_with(p_x={"kind": "beta", "alpha": 2}),
     "'beta'"),
    ("beta_p_x_infinite_shape",
     model_with(p_x={"kind": "beta", "alpha": 2, "beta": math.inf}),
     "model.p_x.beta must be a finite number, got inf"),
    ("beta_p_x_nan_shape",
     model_with(p_x={"kind": "beta", "alpha": math.nan, "beta": 3}),
     "model.p_x.alpha must be a finite number, got nan"),
    ("sinusoid_infinite_amplitude",
     model_with(m=[{**SINE, "amplitude": math.inf}, LINE_DOWN]),
     "model.m[0].amplitude"),
    ("polynomial_nan_coefficient",
     model_with(m=[{"kind": "polynomial", "coeffs": [0.0, math.nan]},
                   LINE_DOWN]), "model.m[0].coeffs[1]"),
    ("uniform_mixture_nan_bound",
     model_with(g0={"kind": "uniform_mixture",
                    "components": [[[-0.1, math.nan], 1]]}),
     "model.g0.components[0][0][1]"),
    ("truncated_smooth_nan_q_sigma",
     model_with(g0={**TRUNCATED, "q_sigma": math.nan}), "model.g0.q_sigma"),
    ("p_x_not_object", model_with(p_x=5),
     "model.p_x must be a JSON object"),
    ("g0_not_object", model_with(g0=[1, 2]),
     "model.g0 must be a JSON object"),
    ("curve_not_object", model_with(m=[LINE_DOWN, 6]),
     "model.m[1] must be a JSON object"),
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
# Wrongly typed, fractional, boolean, NaN, infinite and negative values,
# and small whole numbers, one written as a float, that a fit may reject.
BAD_SETTING = st.sampled_from([True, False, None, "1", [1], 0.5, 2.5, 10.5,
                               30.5, -1, -2.5, math.nan, math.inf,
                               -math.inf, 1, 3.0])


def setting_values(name):
    """Each key of settings block ``name`` with its valid values: a
    settings dataclass's fields with their defaults, or ``kind`` with the
    kinds of a kind block and the arguments of their classmethods with
    their defaults."""
    cls = SETTINGS_BLOCKS[name]
    if dataclasses.is_dataclass(cls):
        return {f.name: [f.default] for f in dataclasses.fields(cls)}
    values = {"kind": list(cls.KINDS)}
    for kind in cls.KINDS:
        for arg in inspect.signature(getattr(cls, kind)).parameters.values():
            values[arg.name] = [] if arg.default is arg.empty else [
                arg.default]
    return values


def settings_block(name):
    """``{name: block}`` for the settings block ``name``: one or two keys
    drawn from its keys plus an unknown one, each holding a value from
    ``BAD_SETTING`` or one of the key's valid values."""
    fields = setting_values(name)

    def value(key):
        return st.one_of(BAD_SETTING, *map(st.just, fields.get(key, [])))

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
             *(key for name in blocks for key in setting_values(name))]
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


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


CURVES = st.one_of(
    st.lists(finite(-5, 5), min_size=1, max_size=3).map(
        RegressionCurve.polynomial),
    st.builds(RegressionCurve.sinusoid, finite(-2, 2), finite(-3, 3),
              finite(-3, 3), finite(-2, 2)),
    st.lists(st.tuples(finite(-1, 1), finite(-2, 2)), min_size=2,
             max_size=4, unique_by=lambda knot: knot[0]).map(
        lambda knots: RegressionCurve.piecewise_linear(*zip(*sorted(knots)))),
)
MIXINGS = st.one_of(
    st.just(MixingSpec.point_mass()),
    st.lists(st.tuples(finite(-1, 1), finite(0.01, 1), finite(0.1, 1)),
             min_size=1, max_size=3).map(
        lambda parts: MixingSpec.uniform_mixture(
            [((lo, lo + width), w) for lo, width, w in parts])),
    st.builds(MixingSpec.truncated_smooth, finite(-1, 1), finite(0.1, 2),
              finite(0.01, 1), st.integers(3, 50)),
)
COVARIATES = st.one_of(
    st.just(CovariateSpec.uniform()),
    st.builds(CovariateSpec.beta, finite(0.1, 5), finite(0.1, 5)))
# One component each, so that no draw fails the separation rules.
MODELS = st.one_of(
    st.builds(lambda curve, g0, p_x, sigma: MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(1.0,), m=(curve,), sigma=sigma, g0=g0,
        x0=0.0, p_x=p_x), CURVES, MIXINGS, COVARIATES, finite(0.05, 1)),
    st.builds(lambda g, mu, sigma: VanillaMixtureModel(
        lambdas=(1.0,), mus=(mu,), sigma=sigma, gks=(g,)),
        MIXINGS, finite(-3, 3), finite(0.05, 1)),
)
# Every key some model block takes; the property injects any other.
MODEL_KEYS = {"type", "kind", "a", "b", "lambdas", "m", "sigma", "g0", "x0",
              "p_x", "mus", "gks", "coeffs", "amplitude", "frequency",
              "phase", "offset", "xs", "ys", "components", "q_mean",
              "q_sigma", "scale", "resolution", "alpha", "beta"}


def model_blocks(value):
    """Every JSON object in a model block, the block itself included."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from model_blocks(item)


@settings(max_examples=60, deadline=None)
@given(MODELS, st.data())
def test_model_blocks_round_trip_and_reject_unknown_keys(model, data):
    """Every curve, mixing and covariate kind reads back from its JSON to
    the same JSON, and one unknown key in any block of the model exits 2
    naming the key."""
    obj = json.loads(json.dumps(model.to_json_obj()))
    back = model_from_json_obj(obj).to_json_obj()
    assert json.dumps(back, sort_keys=True) == json.dumps(obj, sort_keys=True)
    block = data.draw(st.sampled_from(list(model_blocks(obj))))
    key = data.draw(st.text("abcxyz_0", min_size=1, max_size=6).filter(
        lambda k: k not in MODEL_KEYS))
    block[key] = data.draw(finite(-2, 2))
    with tempfile.TemporaryDirectory() as root:
        spec = write_spec(os.path.join(root, "exp.json"), obj, [20], [0],
                          out=os.path.join(root, "out"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--spec", spec])
    assert code == 2
    assert err.getvalue().startswith("error:") and f"'{key}'" in err.getvalue()


BANDWIDTHS = st.one_of(
    st.builds(BandwidthSchedule.fixed, finite(0.01, 2)),
    st.builds(BandwidthSchedule.power_law, finite(0.01, 2),
              finite(-0.49, -0.01)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(CURVES, MIXINGS, COVARIATES, BANDWIDTHS))
def test_model_block_keys_are_its_constructor_arguments(block):
    """A curve's, mixing distribution's, covariate's or bandwidth rule's
    JSON keys, besides ``kind``, are the parameters of the classmethod its
    kind names."""
    obj = block.to_json_obj()
    constructor = getattr(type(block), obj.pop("kind"))
    assert list(obj) == list(inspect.signature(constructor).parameters)


@pytest.mark.parametrize("cls, args, named", [
    (RegressionCurve, ("polynomial", ()), "RegressionCurve.polynomial"),
    (MixingSpec, ("point_mass", {}), "MixingSpec.point_mass"),
    (CovariateSpec, (), "CovariateSpec.uniform"),
    (BandwidthSchedule, ("power_law",),
     "BandwidthSchedule.fixed, BandwidthSchedule.power_law")],
    ids=["RegressionCurve", "MixingSpec", "CovariateSpec",
         "BandwidthSchedule"])
def test_model_block_classes_are_built_by_their_classmethods(cls, args,
                                                             named):
    with pytest.raises(TypeError, match=named):
        cls(*args)


@pytest.mark.parametrize("field, value, named", [
    ("n_x_grid", 0, "n_x_grid"), ("x0", math.nan, "x0"),
    ("x0", True, "x0"), ("x0", "1.0", "x0"),
    ("window", 0.0, "window"), ("n_values", (400, 400), "n must")],
    ids=["n_x_grid", "x0", "x0_bool", "x0_text", "window", "n_values"])
def test_spec_built_directly_checks_its_settings(field, value, named):
    model = MixedRegressionModel.from_json_obj(crossing_lines_obj())
    settings = {"model": model, "n_values": (400,), "seeds": (0,),
                field: value}
    with pytest.raises(ValueError, match=named):
        ExperimentSpec(**settings)


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


def test_readme_python_examples_run():
    """The README's two library examples run as written."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


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


def test_csv_rows_hold_the_shortest_repr_of_each_value(tmp_path):
    # Python's float repr: the shortest text that reads back to the same
    # double, whatever the value's magnitude, sign or integrality.
    values = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, 1e22,
              2.0 ** 53 + 2, math.pi]
    path = tmp_path / "rows.csv"
    cli._atomic_write_rows(str(path), ["a", "b"],
                           np.array(values).reshape(-1, 2))
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == [f"{values[i]!r},{values[i + 1]!r}"
                         for i in range(0, len(values), 2)]
    assert lines[2] == "1.0,-2.5"


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(),
                      [60], [0, 1], out=out)
    assert main(["simulate", "--spec", spec]) == 0
    names = sorted(os.listdir(out))
    first = {name: Path(out, name).read_bytes() for name in names}
    assert main(["simulate", "--spec", spec]) == 0
    for name in names:
        assert Path(out, name).read_bytes() == first[name]


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
    first = {p: Path(p).read_bytes() for p in paths}
    assert main(["fit-regression", "--spec", spec, "--seeds", "0"]) == 0
    for p in paths:
        assert Path(p).read_bytes() == first[p]


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


def test_fit_with_massless_lp_weights_records_projection_error(
        tmp_path, monkeypatch):
    # HiGHS stops on a solve error with an all-zero iterate.
    class MasslessHighs(demix.measures._Highs):
        def getModelStatus(self):
            return demix.measures.HighsModelStatus.kSolveError

        def getSolution(self):
            solution = super().getSolution()
            solution.row_dual = np.zeros(len(solution.row_dual))
            return solution

    monkeypatch.setattr(demix.measures, "_Highs", MasslessHighs)
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(), [800], [0],
                      out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-mixture", "--spec", spec]) == 3
    record = read_json(os.path.join(out, "fit_mixture_n800_seed0.json"))
    assert record["status"] == "failed"
    assert record["error_type"] == "ProjectionError"
    assert "positive atom mass" in record["error"]


def test_spec_bounds_projection_atoms(tmp_path, capsys):
    # The bound is checked when the spec is read, before any design is
    # built: 2**16 atoms pass, one more exits 2 naming projection.L.
    out = str(tmp_path / "out")
    accepted = write_spec(tmp_path / "ok.json", box_mixture_obj(), [60], [0],
                          configs={"projection": {"L": 2 ** 16}}, out=out)
    assert main(["simulate", "--spec", accepted]) == 0
    rejected = write_spec(tmp_path / "big.json", box_mixture_obj(), [60],
                          [0], configs={"projection": {"L": 2 ** 16 + 1}},
                          out=out)
    capsys.readouterr()
    for command in ("simulate", "fit-mixture"):
        assert main([command, "--spec", rejected]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "projection.L=65537 " in err
        assert "65536" in err


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
    # np.loadtxt's default comments="#" used to drop these silently.
    ("comment_row", "regression", "x,y\n0.1,0.2\n#0.3,0.4\n0.5,0.6\n",
     "line 3: not a number"),
    ("comment_mixture", "mixture", "y\n0.1\n#0.3\n0.5\n",
     "line 3: not a number"),
    ("trailing_comment", "regression", "x,y\n0.1,0.2#note\n",
     "line 2: not a number"),
    # np.loadtxt skips these lines and takes a column count every row
    # shares, so its result's shape is checked too.
    ("whitespace_line", "regression", "x,y\n0.1,0.2\n  \t\n0.3,0.4\n",
     "line 3: expected 2 comma-separated values, got '  \\t'"),
    ("blank_line_middle", "mixture", "y\n0.1\n0.2\n\n0.3\n",
     "line 4: expected 1 comma-separated values, got ''"),
    ("three_values_every_row", "regression",
     "x,y\n0.1,0.2,0.5\n0.3,0.4,0.6\n",
     "line 2: expected 2 comma-separated values"),
    ("two_values_every_row", "mixture", "y\n0.1,0.2\n0.3,0.4\n",
     "line 2: expected 1 comma-separated values"),
    # A row-shape fault is named before a value that is not a number.
    ("short_row_after_text", "regression", "x,y\nabc,0.2\n0.3\n",
     "line 3: expected 2 comma-separated values, got '0.3'"),
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


def _box_fit_record(model, n, seed, lambda_shift, half_width) -> dict:
    """Mixture fit record for ``box_mixture_obj`` whose weights are off by
    ``lambda_shift`` and whose boxes have half-width ``half_width`` in
    place of 0.5, so both errors are known in advance."""
    box = np.linspace(-half_width, half_width, 201)
    g = DiscreteMeasure(
        np.concatenate([box + model.mus[0], box + model.mus[1]]),
        np.repeat([model.lambdas[0] + lambda_shift,
                   model.lambdas[1] - lambda_shift], box.size) / box.size)
    fit = estimate_components(g, [(-math.inf, 0.0), (0.0, math.inf)],
                              model.sigma, GridSpec(-4.0, 4.0, 1601))
    return {"n": n, "seed": seed, "status": "ok", "fit": fit.to_json_obj()}


@pytest.mark.parametrize("swap, code", [(False, 0), (True, 4)])
def test_eval_acceptance_on_a_mixture_spec_checks_bounds_and_trends(
        tmp_path, capsys, swap, code):
    # Weight errors 0.04 and 0.01, component-density errors about 0.26
    # and 0.003: the smaller of each at n=5000 passes all four checks,
    # the larger there breaks both trends but neither bound.
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = box_mixture_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [500, 5000], [0, 1],
                      out=out)
    model = VanillaMixtureModel.from_json_obj(model_obj)
    errors = [(0.04, 0.3), (0.01, 0.5)]
    if swap:
        errors.reverse()
    for n, (shift, half_width) in zip((500, 5000), errors):
        for seed in (0, 1):
            record = _box_fit_record(model, n, seed, shift, half_width)
            with open(os.path.join(out, f"fit_mixture_n{n}_seed{seed}.json"),
                      "w") as fh:
                json.dump(record, fh)
    assert main(["eval", "--spec", spec, "--acceptance"]) == code
    printed = capsys.readouterr().out
    checks = read_json(os.path.join(out, "eval_report.json"))["acceptance"]
    assert checks["passed"] is not swap
    assert [c["ok"] for c in checks["checks"]] == [True, not swap] * 2
    assert [c["name"] for c in checks["checks"]] == [
        "lambda_error median at n=5000 <= 0.05",
        "lambda_error median decreases from n=500 to n=5000",
        "f_l1_max median at n=5000 <= 0.3",
        "f_l1_max median decreases from n=500 to n=5000"]
    assert printed.count("PASS: ") == (2 if swap else 4)
    assert printed.count("FAIL: ") == (2 if swap else 0)
    lambda_values = [c["value"] for c in checks["checks"][:2]]
    assert lambda_values == pytest.approx(
        [errors[1][0], errors[0][0] - errors[1][0]], abs=1e-12)


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


def _fit_with(record, **fields):
    """``record`` with ``fields`` replacing those of its fit."""
    return {**record, "fit": {**record["fit"], **fields}}


@pytest.mark.parametrize("corrupt, named", [
    (lambda record: {**record, "fit": {key: value for key, value
                                       in record["fit"].items()
                                       if key != "x_grid"}}, "'x_grid'"),
    (lambda record: {key: value for key, value in record.items()
                     if key != "status"}, "'status'"),
    (lambda record: {**record, "status": "done"}, "status"),
    (lambda record: json.dumps(record)[:-1], "invalid JSON"),
    (lambda record: _fit_with(record, m_hat=[
        [math.nan, *curve[1:]] for curve in record["fit"]["m_hat"]]),
     "m_hat"),
    (lambda record: _fit_with(record, x_grid=[
        math.nan, *record["fit"]["x_grid"][1:]]), "x_grid"),
    (lambda record: _fit_with(record, x_grid=record["fit"]["x_grid"][::-1]),
     "x_grid"),
    (lambda record: _fit_with(record, mixture={
        **record["fit"]["mixture"], "mus_hat": [math.nan, 1.0]}),
     "mus_hat")],
    ids=["fit_without_x_grid", "record_without_status",
         "record_status_unknown", "invalid_json", "m_hat_nan", "x_grid_nan",
         "x_grid_reversed", "mus_hat_nan"])
def test_eval_malformed_fit_file_exits_2_naming_it(tmp_path, capsys,
                                                   corrupt, named):
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0],
                      out=out)
    model = MixedRegressionModel.from_json_obj(model_obj)
    record = corrupt(_perfect_fit_record(model, 100, 0))
    path = os.path.join(out, "fit_regression_n100_seed0.json")
    with open(path, "w") as fh:
        fh.write(record if isinstance(record, str) else json.dumps(record))
    assert main(["eval", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fit file {path}:") and named in err, err


def test_eval_fit_file_with_nan_weight_exits_2_naming_it(tmp_path, capsys):
    # NaN fails every comparison, so a weight check written as "sum
    # differs from 1 by more than tol" would let this file through.
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0],
                      out=out)
    record = _perfect_fit_record(MixedRegressionModel.from_json_obj(
        model_obj), 100, 0)
    record["fit"]["mixture"]["lambdas_hat"][0] = math.nan
    path = os.path.join(out, "fit_regression_n100_seed0.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert main(["eval", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fit file {path}:") and "nan" in err, err
    assert not os.path.exists(os.path.join(out, "eval_report.json"))


def test_eval_fit_file_with_negative_weight_exits_2_naming_it(tmp_path,
                                                             capsys):
    # The weights still sum to 1, so only a sign check refuses them.
    out = str(tmp_path / "out")
    os.makedirs(out)
    model_obj = crossing_lines_obj()
    spec = write_spec(tmp_path / "exp.json", model_obj, [100], [0],
                      out=out)
    record = _perfect_fit_record(MixedRegressionModel.from_json_obj(
        model_obj), 100, 0)
    record["fit"]["mixture"]["lambdas_hat"] = [-0.5, 1.5]
    path = os.path.join(out, "fit_regression_n100_seed0.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert main(["eval", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fit file {path}:"), err
    assert "nonnegative" in err, err
    assert not os.path.exists(os.path.join(out, "eval_report.json"))


def test_eval_mixture_fit_file_with_nan_centre_exits_2_naming_it(tmp_path,
                                                                  capsys):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", box_mixture_obj(), [800], [0],
                      out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-mixture", "--spec", spec]) == 0
    path = os.path.join(out, "fit_mixture_n800_seed0.json")
    record = read_json(path)
    record["fit"]["mus_hat"][0] = math.nan
    with open(path, "w") as fh:
        json.dump(record, fh)
    assert main(["eval", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fit file {path}:") and "mus_hat" in err, err
    assert not os.path.exists(os.path.join(out, "eval_report.json"))


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
