"""Command-line harness tests: spec validation, artifacts, exit codes.

Runs every command through main() on small synthetic experiments, so the
suite exercises argument parsing, the batch runners, and artifact formats
without subprocess overhead.
"""

import json
import math
import os

import numpy as np
import pytest

from demix.cli import main
from demix.measures import DiscreteMeasure, GridSpec
from demix.mixfit import estimate_components
from demix.regfit import RegressionFit
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


def test_manual_denoise_flag_needs_both_numbers(tmp_path):
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [100], [0], out=str(tmp_path / "out"))
    assert main(["fit-regression", "--spec", spec, "--delta", "0.3"]) == 2


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


def test_fit_regression_rejects_projection_y_grid(tmp_path, capsys):
    out = str(tmp_path / "out")
    spec = write_spec(
        tmp_path / "exp.json", crossing_lines_obj(), [400], [0],
        configs={"x0": 1.0, "n_x_grid": 9,
                 "projection": {"y_grid": {"lo": -3.0, "hi": 3.0,
                                           "n_points": 512}}},
        out=out)
    assert main(["simulate", "--spec", spec]) == 0
    assert main(["fit-regression", "--spec", spec]) == 2
    assert "y_grid" in capsys.readouterr().err


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


def test_flag_overrides_reach_the_pipeline(tmp_path):
    out = str(tmp_path / "out")
    spec = write_spec(tmp_path / "exp.json", crossing_lines_obj(),
                      [400], [0], configs={"x0": 1.0, "n_x_grid": 5},
                      out=out)
    assert main(["simulate", "--spec", spec]) == 0
    code = main(["fit-regression", "--spec", spec,
                 "--L", "80", "--M", "4", "--auto-schedule",
                 "--bandwidth-c", "1.0", "--bandwidth-exp", "-0.25",
                 "--K", "2", "--sigma", "0.2"])
    assert code == 0
    record = read_json(os.path.join(out, "fit_regression_n400_seed0.json"))
    assert record["status"] == "ok"


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
