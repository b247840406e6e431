"""Command-line harness: experiment files, batch runs, reports, demos.

The ``demix`` entry point drives the full workflow from one experiment
file. A typical session:

    demix simulate      --spec exp.json --out runs/exp
    demix fit-regression --spec exp.json --out runs/exp --threads 4
    demix find-sep      --spec exp.json --out runs/exp
    demix eval          --spec exp.json --out runs/exp --acceptance
    demix demo-nonident equal_weights_regression --out runs/demo

The experiment file is JSON holding a type-tagged generating model plus
optional estimator settings:

    {
      "model": {"type": "mixed_regression", ...},
      "n": [5000, 50000],
      "seeds": [0, 1, 2],
      "configs": {
        "bandwidth":  {"kind": "power_law", "c": 1.0, "exponent": -0.25},
        "projection": {"L": 142, "M": 7.0},
        "denoise":    {"schedule": "auto"},
        "mde":        {"B": 2.0},
        "x0": 1.0,
        "n_x_grid": 101,
        "window": 0.1
      },
      "out": "runs/exp"
    }

Commands are pure functions of the spec file and input files: rerunning
one rewrites byte-identical artifacts. Seeds run concurrently (bounded by
``--threads``) with independent generator states; files are written
atomically (temp file then rename) and report assembly is single threaded.
``--threads`` sets only seed concurrency: the per-x solves of every
regression fit go to the one pool the process shares, sized to its CPUs,
so concurrent seeds share the cores, and artifacts do not depend on the
thread count. A seed whose fit fails is recorded in its artifact and the
run continues; a missing dataset stops the run, naming the first such seed
in (n, seed) order.

Seeds, in the spec, in ``--seeds`` and in ``demo-nonident``, must be
distinct nonnegative integers. Every settings block (the spec, ``configs``
and each block inside it) rejects keys it does not know.

Exit codes: 0 success, 2 validation error (including any malformed spec),
3 pipeline failure, 4 acceptance thresholds failed (with ``--acceptance``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from .errors import PipelineError
from .kde import BandwidthSchedule
from .measures import GridSpec, l1_distance, wasserstein1
from .mixfit import (DenoiseConfig, MixtureFit, ProjectionConfig,
                     fit_vanilla_mixture)
from .regfit import (X_GRID_POINTS, MdeConfig, RegressionFit,
                     evaluate_regression_fit, find_separation_point,
                     fit_mixed_regression)
from .synth import (Dataset, MixedRegressionModel, MixingSpec,
                    RegressionCurve, SeparationWarning, VanillaMixtureModel,
                    load_samples_csv, sample_mixed_regression,
                    sample_vanilla_mixture)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PIPELINE = 3
EXIT_ACCEPTANCE = 4

# Acceptance bounds applied by `eval --acceptance` at the largest n.
REGRESSION_MEDIAN_BOUND = 0.2
MIXTURE_LAMBDA_BOUND = 0.05
MIXTURE_F_BOUND = 0.3

_SPEC_KEYS = {"model", "n", "seeds", "configs", "out"}
_CONFIG_KEYS = {"bandwidth", "projection", "denoise", "mde",
                "x0", "n_x_grid", "window"}


# ---------------------------------------------------------------------------
# atomic artifact writing
# ---------------------------------------------------------------------------

def _atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a partial file and concurrent tasks cannot interleave."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _atomic_write_rows(path: str, header, rows) -> None:
    """CSV with repr-formatted floats; full-precision round trips."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment files
# ---------------------------------------------------------------------------

def model_from_json_obj(obj: dict):
    """Dispatch a type-tagged model object to its class."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("model must be a JSON object with a 'type' tag")
    tag = obj["type"]
    if tag == "mixed_regression":
        return MixedRegressionModel.from_json_obj(obj)
    if tag == "vanilla_mixture":
        return VanillaMixtureModel.from_json_obj(obj)
    raise ValueError(f"unknown model type {tag!r}")


def _positive_int(value, name: str) -> int:
    """``value`` as an int, if it is a whole number of at least 1."""
    # JSON numbers parse to exactly int or float; bool is excluded.
    whole = (type(value) is int
             or type(value) is float and value.is_integer())
    if not whole or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _optional_number(value, name: str, positive: bool = False):
    """``value`` if it is None or a finite number, positive if asked."""
    low = 0 if positive else -math.inf
    # JSON numbers parse to exactly int or float; bool is excluded.
    if value is not None and not (type(value) in (int, float)
                                  and low < value < math.inf):
        raise ValueError(f"{name} must be a "
                         f"{'positive' if positive else 'finite'} number, "
                         f"got {value!r}")
    return value


def _parse_seeds(raw, name: str) -> tuple:
    """Seeds from a spec's JSON list or a flag's comma-separated text: at
    least one, all distinct nonnegative integers."""
    if isinstance(raw, str):
        try:
            raw = [int(s) for s in raw.split(",")]
        except ValueError:
            raise ValueError(f"{name} must be comma-separated integers, "
                             f"got {raw!r}") from None
    if (not raw or any(type(s) is not int or s < 0 for s in raw)
            or len(set(raw)) != len(raw)):
        raise ValueError(f"{name} must be a nonempty list of distinct "
                         f"nonnegative integers, got {raw!r}")
    return tuple(raw)


def _parse_config(cls, obj, name: str):
    """Build the settings dataclass ``cls`` from the spec block ``name``,
    whose keys must be fields of ``cls``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    try:
        return cls(**obj)
    except TypeError as exc:  # a value of the wrong type
        raise ValueError(f"{name}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a generating model, sample sizes, seeds, settings.

    ``k`` and ``sigma`` default to the model's own values; command-line
    flags may override any field for misspecification studies.
    """

    model: object
    n_values: tuple
    seeds: tuple
    k: int
    sigma: float
    bandwidth: BandwidthSchedule | None = None
    projection: ProjectionConfig | None = None
    denoise: DenoiseConfig | None = None
    mde: MdeConfig | None = None
    x0: float | None = None
    n_x_grid: int = X_GRID_POINTS
    window: float | None = None
    out: str | None = None

    @property
    def kind(self) -> str:
        if isinstance(self.model, MixedRegressionModel):
            return "regression"
        return "mixture"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentSpec":
        unknown = set(obj) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        model = model_from_json_obj(obj["model"])

        raw_n = obj.get("n", [])
        if isinstance(raw_n, (int, float)):
            raw_n = [raw_n]
        n_values = [_positive_int(v, "n") for v in raw_n]
        if not n_values:
            raise ValueError("spec needs at least one sample size in 'n'")
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n must hold distinct sample sizes, "
                             f"got {raw_n!r}")

        seeds = obj.get("seeds")
        if not isinstance(seeds, list):
            raise ValueError("spec needs a 'seeds' list")
        configs = obj.get("configs", {})
        if not isinstance(configs, dict):
            raise ValueError("configs must be a JSON object")
        unknown = set(configs) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings = {key: _parse_config(cfg_cls, configs[key], key)
                    for key, cfg_cls in (("projection", ProjectionConfig),
                                         ("denoise", DenoiseConfig),
                                         ("mde", MdeConfig))
                    if key in configs}
        if "bandwidth" in configs:
            settings["bandwidth"] = BandwidthSchedule.from_json_obj(
                configs["bandwidth"])
        if "n_x_grid" in configs:
            settings["n_x_grid"] = _positive_int(configs["n_x_grid"],
                                                 "n_x_grid")
        x0 = _optional_number(configs.get("x0"), "x0")
        window = _optional_number(configs.get("window"), "window",
                                  positive=True)
        out = obj.get("out")
        if out is not None and not isinstance(out, str):
            raise ValueError(f"out must be a path string, got {out!r}")

        return cls(
            model=model,
            n_values=tuple(sorted(n_values)),
            seeds=_parse_seeds(seeds, "seeds"),
            k=model.k,
            sigma=model.sigma,
            x0=x0,
            window=window,
            out=out,
            **settings,
        )


def _apply_overrides(spec: ExperimentSpec,
                     args: argparse.Namespace) -> ExperimentSpec:
    """Fold command-line flags into the loaded spec."""
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = _parse_seeds(args.seeds, "--seeds")
    if args.K is not None:
        if args.K < 1:
            raise ValueError("--K must be at least 1")
        updates["k"] = args.K
    if args.sigma is not None:
        if not 0 < args.sigma < math.inf:
            raise ValueError("--sigma must be positive")
        updates["sigma"] = args.sigma

    proj_kw = {key: value for key, value in (("L", args.L), ("M", args.M))
               if value is not None}
    if proj_kw:
        updates["projection"] = dataclasses.replace(
            spec.projection or ProjectionConfig(), **proj_kw)

    if (args.delta is not None or args.threshold is not None
            or args.auto_schedule):
        base = spec.denoise or DenoiseConfig()
        delta = args.delta if args.delta is not None else base.delta
        t = args.threshold if args.threshold is not None else base.t
        schedule = "auto" if args.auto_schedule else "manual"
        updates["denoise"] = DenoiseConfig(schedule=schedule,
                                           delta=delta, t=t)

    bw_kw = {key: value for key, value in (("c", args.bandwidth_c),
                                           ("exponent", args.bandwidth_exp))
             if value is not None}
    if bw_kw:
        updates["bandwidth"] = BandwidthSchedule.power_law(**bw_kw)

    return dataclasses.replace(spec, **updates) if updates else spec


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    if not args.spec:
        raise ValueError("this command needs --spec <file>")
    try:
        with open(args.spec) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {args.spec}: invalid JSON ({exc})")
    try:
        spec = ExperimentSpec.from_json_obj(obj)
    except KeyError as exc:
        raise ValueError(f"spec file {args.spec}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"spec file {args.spec}: {exc}") from None
    return _apply_overrides(spec, args)


def _out_dir(spec: ExperimentSpec, args: argparse.Namespace) -> str:
    out = args.out or spec.out
    if not out:
        raise ValueError("an output directory is required "
                         "(--out or the spec's 'out' field)")
    os.makedirs(out, exist_ok=True)
    return out


def _require_kind(spec: ExperimentSpec, kind: str, command: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"{command} needs a {kind} model, "
                         f"the spec holds a {spec.kind} model")


# ---------------------------------------------------------------------------
# batch running
# ---------------------------------------------------------------------------

def _run_tasks(tasks, worker, threads: int) -> list:
    """Run worker over tasks, in a thread pool when threads > 1.

    Results come back in task order regardless of completion order, so
    everything downstream is deterministic. The first worker exception in
    task order propagates, and tasks not yet started are cancelled.
    """
    if threads > 1 and len(tasks) > 1:
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
        with pool:
            return list(pool.map(lambda task: worker(*task), tasks))
    return [worker(*task) for task in tasks]


@contextlib.contextmanager
def _recording(record: dict):
    """Mark ``record`` ok when the block completes, or failed with the
    ``PipelineError`` it raised, which then goes no further."""
    try:
        yield
    except PipelineError as exc:
        record.update(status="failed", error_type=type(exc).__name__,
                      error=str(exc))
    else:
        record["status"] = "ok"


def _report_seeds(records: list, ok_text) -> int:
    """Print one line per (n, seed) record; return how many succeeded."""
    for r in records:
        result = (ok_text(r) if r["status"] == "ok"
                  else f"FAILED {r['error_type']}: {r['error']}")
        print(f"n={r['n']} seed={r['seed']}: {result}")
    return sum(r["status"] == "ok" for r in records)


def _dataset_path(out: str, n: int, seed: int) -> str:
    return os.path.join(out, f"dataset_n{n}_seed{seed}.csv")


def _fit_path(out: str, kind: str, n: int, seed: int) -> str:
    return os.path.join(out, f"fit_{kind}_n{n}_seed{seed}.json")


def _plot_path(out: str, kind: str, n: int, seed: int) -> str:
    return os.path.join(out, f"plot_{kind}_n{n}_seed{seed}.csv")


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

def _truth_order(lambdas) -> np.ndarray:
    """Component order matching the fits: weight ascending, stable."""
    return np.argsort(np.asarray(lambdas), kind="stable")


def _write_regression_plot(path: str, fit: RegressionFit,
                           model: MixedRegressionModel) -> None:
    xs = np.asarray(fit.x_grid)
    est = np.asarray(fit.m_hat)
    true = model.curve_values(xs)[_truth_order(model.lambdas)]
    k = fit.k
    header = (["x"] + [f"m_hat{j + 1}" for j in range(k)]
              + [f"m_true{j + 1}" for j in range(k)])
    rows = np.column_stack([xs, est.T, true.T])
    _atomic_write_rows(path, header, rows)


def _mixture_plot_grid(fit: MixtureFit) -> GridSpec:
    spec = fit.f_hats[0].spec()
    lo = min(mu + f.spec().lo for mu, f in zip(fit.mus_hat, fit.f_hats))
    hi = max(mu + f.spec().hi for mu, f in zip(fit.mus_hat, fit.f_hats))
    return GridSpec(lo, hi, spec.n_points)


def _mixture_density_values(fit: MixtureFit, y: np.ndarray) -> np.ndarray:
    """Fitted mixture density Σ λ̂_k f̂_k(y − μ̂_k), zero off-grid."""
    total = np.zeros_like(y)
    for lam, mu, f_hat in zip(fit.lambdas_hat, fit.mus_hat, fit.f_hats):
        pts = f_hat.spec().points() + mu
        total += lam * np.interp(y, pts, f_hat.values, left=0.0, right=0.0)
    return total


def _write_mixture_plot(path: str, fit: MixtureFit,
                        model: VanillaMixtureModel) -> None:
    grid = _mixture_plot_grid(fit)
    y = grid.points()
    f_hat = _mixture_density_values(fit, y)
    f_true = model.density(grid).values
    _atomic_write_rows(path, ["y", "f_hat", "f_true"],
                       np.column_stack([y, f_hat, f_true]))


# ---------------------------------------------------------------------------
# commands: simulate / fit / find-sep
# ---------------------------------------------------------------------------

def cmd_simulate(spec: ExperimentSpec, out: str, threads: int) -> int:
    """Write one dataset CSV per (n, seed) plus a manifest echoing
    the model."""
    model = spec.model

    def worker(n: int, seed: int) -> str:
        path = _dataset_path(out, n, seed)
        if spec.kind == "regression":
            data = sample_mixed_regression(model, n, seed)
            rows = np.column_stack([data.x, data.y])
            _atomic_write_rows(path, ["x", "y"], rows)
        else:
            samples = sample_vanilla_mixture(model, n, seed)
            _atomic_write_rows(path, ["y"], samples[:, None])
        return path

    tasks = [(n, seed) for n in spec.n_values for seed in spec.seeds]
    paths = _run_tasks(tasks, worker, threads)
    for path in paths:
        print(f"wrote {path}")

    manifest = {
        "kind": spec.kind,
        "model": model.to_json_obj(),
        "n": list(spec.n_values),
        "seeds": list(spec.seeds),
        "datasets": {f"n{n}_seed{seed}": os.path.basename(p)
                     for (n, seed), p in zip(tasks, paths)},
    }
    manifest_path = os.path.join(out, "manifest.json")
    _atomic_write_json(manifest_path, manifest)
    print(f"wrote {manifest_path}")
    return EXIT_OK


def _load_dataset(out: str, n: int, seed: int, kind: str):
    path = _dataset_path(out, n, seed)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"dataset for n={n} seed={seed} not found: {path}")
    if kind == "regression":
        return Dataset.from_csv(path, seed=seed)
    return load_samples_csv(path)


def cmd_fit(spec: ExperimentSpec, out: str, threads: int,
            kind: str) -> int:
    """Fit every (n, seed) dataset; record per-seed failures and
    keep going."""
    _require_kind(spec, kind, f"fit-{kind}")
    model = spec.model

    def worker(n: int, seed: int) -> dict:
        data = _load_dataset(out, n, seed, kind)
        plot = _plot_path(out, kind, n, seed)
        record = {"n": n, "seed": seed}
        with _recording(record):
            if kind == "regression":
                fit = fit_mixed_regression(
                    data, spec.k, spec.sigma, x0=spec.x0, a=model.a,
                    b=model.b, bandwidth=spec.bandwidth,
                    proj_cfg=spec.projection, denoise=spec.denoise,
                    mde_cfg=spec.mde, n_x_grid=spec.n_x_grid)
                _write_regression_plot(plot, fit, model)
            else:
                fit = fit_vanilla_mixture(data, spec.k, spec.sigma,
                                          cfg=spec.projection,
                                          denoise=spec.denoise,
                                          bandwidth=spec.bandwidth)
                _write_mixture_plot(plot, fit, model)
            record["fit"] = fit.to_json_obj()
        _atomic_write_json(_fit_path(out, kind, n, seed), record)
        return record

    tasks = [(n, seed) for n in spec.n_values for seed in spec.seeds]
    records = _run_tasks(tasks, worker, threads)
    n_ok = _report_seeds(records, lambda r: "ok")
    print(f"{n_ok}/{len(records)} fits succeeded")
    return EXIT_OK if n_ok > 0 else EXIT_PIPELINE


def cmd_find_sep(spec: ExperimentSpec, out: str, threads: int) -> int:
    """Run the separation-point scan on every (n, seed) dataset."""
    _require_kind(spec, "regression", "find-sep")
    model = spec.model
    schedule = spec.bandwidth or BandwidthSchedule.power_law()

    def worker(n: int, seed: int) -> dict:
        data = _load_dataset(out, n, seed, "regression")
        window = (spec.window if spec.window is not None
                  else schedule.bandwidth(n))
        record = {"n": n, "seed": seed, "window": window}
        with _recording(record):
            x_star, profile = find_separation_point(
                data, spec.k, window, a=model.a, b=model.b)
            record.update(x_star=x_star,
                          profile=[[x, s] for x, s in profile])
        _atomic_write_json(os.path.join(out, f"sep_n{n}_seed{seed}.json"),
                           record)
        return record

    tasks = [(n, seed) for n in spec.n_values for seed in spec.seeds]
    records = _run_tasks(tasks, worker, threads)
    n_ok = _report_seeds(records, lambda r: f"x*={r['x_star']:.6g}")
    return EXIT_OK if n_ok > 0 else EXIT_PIPELINE


# ---------------------------------------------------------------------------
# command: eval
# ---------------------------------------------------------------------------

def _mixture_fit_metrics(fit: MixtureFit,
                         model: VanillaMixtureModel) -> dict:
    """Errors of a mixture fit against its generating model, components
    aligned by sorting both weight vectors ascending."""
    order = _truth_order(model.lambdas)
    lam_true = np.asarray(model.lambdas)[order]
    mu_true = np.asarray(model.mus)[order]
    lam_err = float(np.max(np.abs(np.asarray(fit.lambdas_hat) - lam_true)))
    mu_err = float(np.max(np.abs(np.asarray(fit.mus_hat) - mu_true)))
    f_err = max(l1_distance(f_hat, model.component_density(int(j),
                                                           f_hat.spec()))
                for j, f_hat in zip(order, fit.f_hats))
    w1 = wasserstein1(fit.g_hat, model.mixing_measure())
    return {
        "lambda_error": lam_err,
        "mu_error": mu_err,
        "f_l1_max": float(f_err),
        "w1_mixing": float(w1),
    }


_REGRESSION_METRICS = ("lambda_error_sorted", "m_mean_abs_max", "m_l1_max",
                       "f_l1_max", "best_perm_m_mean_abs_max",
                       "pointwise_pairing_m_mean")
_MIXTURE_METRICS = ("lambda_error", "mu_error", "f_l1_max", "w1_mixing")


def _seed_metrics(spec: ExperimentSpec, out: str, n: int,
                  seed: int) -> dict | None:
    """Metrics for one stored fit; None when that seed's fit failed."""
    path = _fit_path(out, spec.kind, n, seed)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"fit for n={n} seed={seed} not found: {path}")
    with open(path) as fh:
        record = json.load(fh)
    if record.get("status") != "ok":
        return None
    if spec.kind == "regression":
        fit = RegressionFit.from_json_obj(record["fit"])
        report = evaluate_regression_fit(fit, spec.model)
        return {name: report[name] for name in _REGRESSION_METRICS}
    return _mixture_fit_metrics(MixtureFit.from_json_obj(record["fit"]),
                                spec.model)


def _aggregate(values: list) -> dict:
    arr = np.asarray(values, dtype=float)
    q25, q75 = np.percentile(arr, [25.0, 75.0])
    return {
        "median": float(np.median(arr)),
        "iqr": float(q75 - q25),
        "values": [float(v) for v in arr],
    }


def _acceptance_checks(kind: str, trend: list) -> list:
    """Threshold and trend checks on the per-n medians of the trend table,
    whose entries run in ascending n."""
    if kind == "regression":
        rules = [("m_mean_abs_max", REGRESSION_MEDIAN_BOUND)]
    else:
        rules = [("lambda_error", MIXTURE_LAMBDA_BOUND),
                 ("f_l1_max", MIXTURE_F_BOUND)]
    checks = []
    for metric, bound in rules:
        medians = [(entry["n"], entry[f"{metric}_median"]) for entry in trend]
        largest, final = medians[-1]
        checks.append({
            "name": f"{metric} median at n={largest} <= {bound}",
            "value": final,
            "ok": final is not None and final <= bound,
        })
        for (small, hi), (large, lo) in zip(medians[:-1], medians[1:]):
            ok = lo is not None and hi is not None and lo < hi
            checks.append({
                "name": f"{metric} median decreases "
                        f"from n={small} to n={large}",
                "value": None if lo is None or hi is None else hi - lo,
                "ok": ok,
            })
    return checks


def cmd_eval(spec: ExperimentSpec, out: str,
             acceptance: bool) -> int:
    """Aggregate stored fits into a median/IQR report with a trend table
    across sample sizes."""
    metric_names = (_REGRESSION_METRICS if spec.kind == "regression"
                    else _MIXTURE_METRICS)
    per_n, trend = {}, []
    for n in spec.n_values:
        rows, failed = [], []
        for seed in spec.seeds:
            metrics = _seed_metrics(spec, out, n, seed)
            if metrics is None:
                failed.append(seed)
            else:
                rows.append(metrics)
        metrics = ({name: _aggregate([row[name] for row in rows])
                    for name in metric_names} if rows else {})
        per_n[str(n)] = {"n_seeds": len(spec.seeds), "failed_seeds": failed,
                         "metrics": metrics}
        entry = {"n": n, "n_failed": len(failed)}
        for name in metric_names:
            entry[f"{name}_median"] = (metrics[name]["median"] if rows
                                       else None)
        trend.append(entry)

    report = {"kind": spec.kind, "per_n": per_n, "trend": trend}
    code = EXIT_OK
    if acceptance:
        checks = _acceptance_checks(spec.kind, trend)
        passed = all(c["ok"] for c in checks)
        report["acceptance"] = {"passed": passed, "checks": checks}
        if not passed:
            code = EXIT_ACCEPTANCE

    _atomic_write_json(os.path.join(out, "eval_report.json"), report)

    for entry in trend:
        parts = [f"n={entry['n']}"]
        for name in metric_names:
            value = entry[f"{name}_median"]
            parts.append(f"{name}={value:.4g}" if value is not None
                         else f"{name}=n/a")
        if entry["n_failed"]:
            parts.append(f"failed={entry['n_failed']}")
        print("  ".join(parts))
    if acceptance:
        for check in report["acceptance"]["checks"]:
            print(f"{'PASS' if check['ok'] else 'FAIL'}: {check['name']}")
        print("acceptance "
              + ("passed" if report["acceptance"]["passed"] else "FAILED"))
    return code


# ---------------------------------------------------------------------------
# command: demo-nonident
# ---------------------------------------------------------------------------

def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)

    def bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    rise, fall = bump(s), bump(1.0 - s)
    return rise / (rise + fall)


def _crossing_lines_model(lambdas) -> MixedRegressionModel:
    return MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=lambdas,
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)


def _demo_equal_weights(out: str, n: int, seeds, threads: int) -> None:
    """Label switching at equal weights: fits recover the curve values
    but sorted labels flip between grid points, while a weight contrast
    restores the sorted labeling. Also writes the smooth-blend curve
    pair that leaves the sampled law unchanged."""
    equal = _crossing_lines_model((0.5, 0.5))
    contrast = _crossing_lines_model((0.35, 0.65))

    def worker(model, seed):
        data = sample_mixed_regression(model, n, seed)
        fit = fit_mixed_regression(data, model.k, model.sigma,
                                   x0=model.x0, a=model.a, b=model.b)
        report = evaluate_regression_fit(fit, model)
        return data, fit, {
            "seed": seed,
            "sorted_label_error": report["m_mean_abs_max"],
            "global_best_perm_error": report["best_perm_m_mean_abs_max"],
            "pointwise_pairing_error": report["pointwise_pairing_m_mean"],
        }

    runs = _run_tasks([(model, seed) for model in (equal, contrast)
                       for seed in seeds], worker, threads)
    rows = [row for _, _, row in runs]
    equal_rows, contrast_rows = rows[:len(seeds)], rows[len(seeds):]

    def medians(rows):
        return {key: float(np.median([r[key] for r in rows]))
                for key in rows[0] if key != "seed"}

    eq, ct = medians(equal_rows), medians(contrast_rows)
    flip_count = sum(r["sorted_label_error"] > 0.5 for r in equal_rows)

    # The blend pair: swap the labels smoothly between two adjacent
    # sample points; no sample lands inside, so the observable law of
    # (X, Y) is exactly the same for both curve systems. Placed near
    # x = 0.5 where the curves are far apart, so the swap is visible.
    data0, fit0, _ = runs[0]
    xs = np.sort(np.asarray(data0.x))
    mids = 0.5 * (xs[:-1] + xs[1:])
    candidates = np.argsort(np.abs(mids - 0.5), kind="stable")
    idx = next(int(i) for i in candidates if xs[i] < xs[i + 1])
    u, v = float(xs[idx]), float(xs[idx + 1])

    grid = np.linspace(equal.a, equal.b, 401)
    phi = _smooth_step((grid - u) / (v - u))
    m1, m2 = equal.curve_values(grid)
    blend1 = (1.0 - phi) * m1 + phi * m2
    blend2 = (1.0 - phi) * m2 + phi * m1
    curves_csv = os.path.join(out, "demo_label_switch_curves.csv")
    _atomic_write_rows(curves_csv,
                       ["x", "m1", "m2", "m1_blend", "m2_blend"],
                       np.column_stack([grid, m1, m2, blend1, blend2]))

    phi_s = _smooth_step((data0.x - u) / (v - u))
    m1_s, m2_s = equal.curve_values(data0.x)
    b1_s = (1.0 - phi_s) * m1_s + phi_s * m2_s
    b2_s = (1.0 - phi_s) * m2_s + phi_s * m1_s
    direct = np.maximum(np.abs(b1_s - m1_s), np.abs(b2_s - m2_s))
    swapped = np.maximum(np.abs(b1_s - m2_s), np.abs(b2_s - m1_s))
    discrepancy = float(np.minimum(direct, swapped).max())

    first_fit_csv = os.path.join(
        out, f"demo_equal_weights_fit_seed{seeds[0]}.csv")
    _write_regression_plot(first_fit_csv, fit0, equal)

    report = {
        "variant": "equal_weights_regression",
        "n": n,
        "seeds": list(seeds),
        "equal_weights": {
            "lambdas": list(equal.lambdas),
            "per_seed": equal_rows,
            "medians": eq,
            "seeds_with_sorted_error_above_0.5": flip_count,
        },
        "contrast_weights": {
            "lambdas": list(contrast.lambdas),
            "per_seed": contrast_rows,
            "medians": ct,
        },
        "label_switch_pair": {
            "u": u,
            "v": v,
            "max_set_discrepancy_at_samples": discrepancy,
            "curves_csv": os.path.basename(curves_csv),
        },
        "plot_csv": os.path.basename(first_fit_csv),
    }
    _atomic_write_json(
        os.path.join(out, "demo_equal_weights_regression.json"), report)

    print(f"equal weights: sorted-label error median "
          f"{eq['sorted_label_error']:.4g}, "
          f"above 0.5 in {flip_count}/{len(seeds)} seeds")
    print(f"equal weights: pointwise pairing error median "
          f"{eq['pointwise_pairing_error']:.4g}")
    print(f"contrast weights: sorted-label error median "
          f"{ct['sorted_label_error']:.4g}")
    print(f"blend pair ({u:.6g}, {v:.6g}): max set discrepancy at "
          f"samples {discrepancy:.3g}")


def _near_nonregular_model(xi: float) -> VanillaMixtureModel:
    """Two-component mixture whose error laws are (1-a) g + a h with the
    h locations at +-xi; xi -> 0 collapses them onto a common bump."""
    mu, alpha, width = 2.5, 0.15, 0.05
    gks, centers = [], []
    for sign in (1.0, -1.0):
        main, minor = sign * mu, sign * xi
        center = (1.0 - alpha) * main + alpha * minor
        gks.append(MixingSpec.uniform_mixture([
            ((main - center - width, main - center + width), 1.0 - alpha),
            ((minor - center - width, minor - center + width), alpha),
        ]))
        centers.append(center)
    return VanillaMixtureModel(lambdas=(0.4, 0.6), mus=tuple(centers),
                               sigma=1.0, gks=tuple(gks))


def _demo_near_nonregular(out: str, n: int, seeds,
                          threads: int) -> None:
    """Component recovery degrades as the minor bumps collapse toward a
    shared location (xi -> 0), on paired seeds."""
    xis = (1.0, 0.01)
    models, warned = {}, {}
    for xi in xis:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            models[xi] = _near_nonregular_model(xi)
        warned[xi] = any(issubclass(w.category, SeparationWarning)
                         for w in caught)

    def worker(xi, seed):
        samples = sample_vanilla_mixture(models[xi], n, seed)
        record = {"xi": xi, "seed": seed}
        with _recording(record):
            fit = fit_vanilla_mixture(samples, 2, models[xi].sigma)
            record.update(fit=fit, **_mixture_fit_metrics(fit, models[xi]))
        return record

    tasks = [(xi, seed) for xi in xis for seed in seeds]
    records = _run_tasks(tasks, worker, threads)
    by_xi = {xi: [r for r in records if r["xi"] == xi] for xi in xis}

    blocks, medians = {}, {}
    for xi in xis:
        ok = [r for r in by_xi[xi] if r["status"] == "ok"]
        if ok:
            tag = repr(xi).replace(".", "p")
            _write_mixture_plot(
                os.path.join(out, f"demo_near_nonregular_density_"
                                  f"xi{tag}.csv"),
                ok[0]["fit"], models[xi])
        medians[xi] = (float(np.median([r["f_l1_max"] for r in ok]))
                       if ok else None)
        blocks[repr(xi)] = {
            "separation_warning": warned[xi],
            "per_seed": [{key: value for key, value in r.items()
                          if key not in ("xi", "fit")} for r in by_xi[xi]],
            "f_l1_max_median": medians[xi],
            "n_failed": len(by_xi[xi]) - len(ok),
        }

    pair_deltas = []
    for far, near in zip(by_xi[1.0], by_xi[0.01]):
        if far["status"] == "ok" and near["status"] == "ok":
            pair_deltas.append(near["f_l1_max"] - far["f_l1_max"])
    degraded = (medians[1.0] is not None and medians[0.01] is not None
                and medians[0.01] > medians[1.0])

    report = {
        "variant": "near_nonregular_mixture",
        "n": n,
        "seeds": list(seeds),
        "xi_values": list(xis),
        "per_xi": blocks,
        "paired_f_error_deltas": [float(d) for d in pair_deltas],
        "pairs_strictly_larger_at_small_xi":
            sum(d > 0 for d in pair_deltas),
        "error_strictly_larger_at_small_xi": bool(degraded),
    }
    _atomic_write_json(
        os.path.join(out, "demo_near_nonregular_mixture.json"), report)

    for xi in xis:
        med = medians[xi]
        med_text = "n/a" if med is None else f"{med:.4g}"
        print(f"xi={xi}: component L1 error median {med_text}, "
              f"{blocks[repr(xi)]['n_failed']} failed, separation warning "
              f"{'yes' if warned[xi] else 'no'}")
    print("error strictly larger at xi=0.01: "
          + ("yes" if degraded else "no"))


def cmd_demo_nonident(variant: str, out: str, n: int, seeds,
                      threads: int) -> int:
    if variant == "equal_weights_regression":
        _demo_equal_weights(out, n, seeds, threads)
    else:
        _demo_near_nonregular(out, n, seeds, threads)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="experiment JSON file")
    common.add_argument("--out", help="output directory "
                                      "(defaults to the spec's 'out')")
    common.add_argument("--seeds", help="comma-separated seed list, "
                                        "overrides the spec")
    common.add_argument("--threads", type=int, default=1,
                        help="concurrent seeds (default 1)")
    common.add_argument("--acceptance", action="store_true",
                        help="apply acceptance thresholds in eval")
    common.add_argument("--K", type=int, help="override component count")
    common.add_argument("--sigma", type=float,
                        help="override the Gaussian blur scale")
    common.add_argument("--L", type=int, help="projection atom count")
    common.add_argument("--M", type=float,
                        help="projection atom-grid half-width")
    common.add_argument("--delta", type=float,
                        help="manual smoothing width")
    common.add_argument("--threshold", type=float,
                        help="manual denoising threshold")
    common.add_argument("--auto-schedule", action="store_true",
                        help="force the automatic denoise schedule")
    common.add_argument("--bandwidth-exp", type=float,
                        help="power-law bandwidth exponent")
    common.add_argument("--bandwidth-c", type=float,
                        help="power-law bandwidth constant")

    parser = argparse.ArgumentParser(
        prog="demix",
        description="Mixture and mixed-regression estimation harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="write dataset CSVs and a manifest")
    sub.add_parser("fit-mixture", parents=[common],
                   help="fit the mixture pipeline per seed")
    sub.add_parser("fit-regression", parents=[common],
                   help="fit the regression pipeline per seed")
    sub.add_parser("find-sep", parents=[common],
                   help="scan for the separation point per seed")
    sub.add_parser("eval", parents=[common],
                   help="aggregate stored fits into a report")
    demo = sub.add_parser("demo-nonident", parents=[common],
                          help="run a non-identifiability demonstration")
    demo.add_argument("variant",
                      choices=["equal_weights_regression",
                               "near_nonregular_mixture"])
    demo.add_argument("--n", type=int, default=20000,
                      help="samples per run (default 20000)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        if args.command == "demo-nonident":
            out = args.out
            if not out:
                raise ValueError("demo-nonident needs --out <dir>")
            os.makedirs(out, exist_ok=True)
            seeds = (_parse_seeds(args.seeds, "--seeds")
                     if args.seeds is not None else tuple(range(10)))
            if args.n < 1:
                raise ValueError("--n must be at least 1")
            return cmd_demo_nonident(args.variant, out, args.n, seeds,
                                     args.threads)

        spec = _load_spec(args)
        out = _out_dir(spec, args)
        if args.command == "simulate":
            return cmd_simulate(spec, out, args.threads)
        if args.command == "fit-mixture":
            return cmd_fit(spec, out, args.threads, "mixture")
        if args.command == "fit-regression":
            return cmd_fit(spec, out, args.threads, "regression")
        if args.command == "find-sep":
            return cmd_find_sep(spec, out, args.threads)
        return cmd_eval(spec, out, args.acceptance)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PipelineError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    raise SystemExit(main())
