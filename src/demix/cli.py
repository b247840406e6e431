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
run continues.

Exit codes: 0 success, 2 validation error, 3 pipeline failure,
4 acceptance thresholds failed (with ``--acceptance``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
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
from .regfit import (MdeConfig, RegressionFit, evaluate_regression_fit,
                     find_separation_point, fit_mixed_regression)
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


def _parse_projection(obj: dict) -> ProjectionConfig:
    kwargs = {key: obj[key] for key in
              ("L", "M", "solver_tol", "max_iters") if key in obj}
    if "y_grid" in obj:
        g = obj["y_grid"]
        kwargs["y_grid"] = GridSpec(g["lo"], g["hi"], g["n_points"])
    return ProjectionConfig(**kwargs)


def _parse_denoise(obj: dict) -> DenoiseConfig:
    return DenoiseConfig(schedule=obj.get("schedule", "auto"),
                         delta=obj.get("delta"), t=obj.get("t"))


def _parse_mde(obj: dict) -> MdeConfig:
    kwargs = {key: obj[key] for key in
              ("B", "coarse_grid", "refine_levels", "shrink", "mode")
              if key in obj}
    return MdeConfig(**kwargs)


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
    n_x_grid: int | None = None
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
        if "model" not in obj:
            raise ValueError("spec needs a 'model' object")
        model = model_from_json_obj(obj["model"])

        raw_n = obj.get("n", [])
        if isinstance(raw_n, (int, float)):
            raw_n = [raw_n]
        n_values = []
        for v in raw_n:
            if int(v) != v or int(v) < 1:
                raise ValueError(f"n must be a positive integer, got {v!r}")
            n_values.append(int(v))
        if not n_values:
            raise ValueError("spec needs at least one sample size in 'n'")

        seeds = [int(s) for s in obj.get("seeds", [])]
        if not seeds:
            raise ValueError("spec needs a nonempty 'seeds' list")
        if any(s < 0 for s in seeds):
            raise ValueError("seeds must be nonnegative")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")

        configs = obj.get("configs", {})
        unknown = set(configs) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        bandwidth = (BandwidthSchedule.from_json_obj(configs["bandwidth"])
                     if "bandwidth" in configs else None)
        projection = (_parse_projection(configs["projection"])
                      if "projection" in configs else None)
        denoise = (_parse_denoise(configs["denoise"])
                   if "denoise" in configs else None)
        mde = _parse_mde(configs["mde"]) if "mde" in configs else None

        return cls(
            model=model,
            n_values=tuple(sorted(n_values)),
            seeds=tuple(seeds),
            k=model.k,
            sigma=model.sigma,
            bandwidth=bandwidth,
            projection=projection,
            denoise=denoise,
            mde=mde,
            x0=configs.get("x0"),
            n_x_grid=configs.get("n_x_grid"),
            window=configs.get("window"),
            out=obj.get("out"),
        )


def _apply_overrides(spec: ExperimentSpec,
                     args: argparse.Namespace) -> ExperimentSpec:
    """Fold command-line flags into the loaded spec."""
    updates = {}
    if args.seeds is not None:
        seeds = tuple(int(s) for s in args.seeds.split(","))
        if not seeds or any(s < 0 for s in seeds):
            raise ValueError("--seeds needs comma-separated "
                             "nonnegative integers")
        updates["seeds"] = seeds
    if args.K is not None:
        if args.K < 1:
            raise ValueError("--K must be at least 1")
        updates["k"] = args.K
    if args.sigma is not None:
        if args.sigma <= 0:
            raise ValueError("--sigma must be positive")
        updates["sigma"] = args.sigma

    if args.L is not None or args.M is not None:
        base = spec.projection or ProjectionConfig()
        proj_kw = {}
        if args.L is not None:
            proj_kw["L"] = args.L
        if args.M is not None:
            proj_kw["M"] = args.M
        updates["projection"] = dataclasses.replace(base, **proj_kw)

    if (args.delta is not None or args.threshold is not None
            or args.auto_schedule):
        base = spec.denoise or DenoiseConfig()
        delta = args.delta if args.delta is not None else base.delta
        t = args.threshold if args.threshold is not None else base.t
        schedule = "auto" if args.auto_schedule else "manual"
        updates["denoise"] = DenoiseConfig(schedule=schedule,
                                           delta=delta, t=t)

    if args.bandwidth_exp is not None or args.bandwidth_c is not None:
        c = args.bandwidth_c if args.bandwidth_c is not None else 1.0
        exponent = (args.bandwidth_exp
                    if args.bandwidth_exp is not None else -0.25)
        updates["bandwidth"] = BandwidthSchedule.power_law(c, exponent)

    return dataclasses.replace(spec, **updates) if updates else spec


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    if not args.spec:
        raise ValueError("this command needs --spec <file>")
    try:
        with open(args.spec) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {args.spec}: invalid JSON ({exc})")
    return _apply_overrides(ExperimentSpec.from_json_obj(obj), args)


def _out_dir(spec: ExperimentSpec | None,
             args: argparse.Namespace) -> str:
    out = args.out or (spec.out if spec is not None else None)
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
    """Run worker over tasks, optionally in a thread pool.

    Results come back in task order regardless of completion order, so
    everything downstream is deterministic. Worker exceptions propagate.
    """
    if threads > 1 and len(tasks) > 1:
        results = {}
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
        with pool:
            futures = {pool.submit(worker, *task): task for task in tasks}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
        return [results[task] for task in tasks]
    return [worker(*task) for task in tasks]


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
        record = {"n": n, "seed": seed}
        try:
            if kind == "regression":
                kwargs = {"x0": spec.x0, "a": model.a, "b": model.b,
                          "bandwidth": spec.bandwidth,
                          "proj_cfg": spec.projection,
                          "denoise": spec.denoise,
                          "mde_cfg": spec.mde}
                if spec.n_x_grid is not None:
                    kwargs["n_x_grid"] = spec.n_x_grid
                fit = fit_mixed_regression(data, spec.k, spec.sigma,
                                           **kwargs)
                plot = _plot_path(out, kind, n, seed)
                _write_regression_plot(plot, fit, model)
            else:
                fit = fit_vanilla_mixture(data, spec.k, spec.sigma,
                                          cfg=spec.projection,
                                          denoise=spec.denoise,
                                          bandwidth=spec.bandwidth)
                plot = _plot_path(out, kind, n, seed)
                _write_mixture_plot(plot, fit, model)
        except PipelineError as exc:
            record.update(status="failed",
                          error_type=type(exc).__name__,
                          error=str(exc))
        else:
            record.update(status="ok", fit=fit.to_json_obj())
        _atomic_write_json(_fit_path(out, kind, n, seed), record)
        return record

    tasks = [(n, seed) for n in spec.n_values for seed in spec.seeds]
    records = _run_tasks(tasks, worker, threads)
    n_ok = 0
    for record in records:
        if record["status"] == "ok":
            n_ok += 1
            print(f"n={record['n']} seed={record['seed']}: ok")
        else:
            print(f"n={record['n']} seed={record['seed']}: "
                  f"FAILED {record['error_type']}: {record['error']}")
    print(f"{n_ok}/{len(records)} fits succeeded")
    return EXIT_OK if n_ok > 0 else EXIT_PIPELINE


def cmd_find_sep(spec: ExperimentSpec, out: str, threads: int) -> int:
    """Run the separation-point scan on every (n, seed) dataset."""
    _require_kind(spec, "regression", "find-sep")
    model = spec.model
    schedule = spec.bandwidth or BandwidthSchedule.power_law()

    def worker(n: int, seed: int) -> dict:
        data = _load_dataset(out, n, seed, "regression")
        window = spec.window or schedule.bandwidth(n)
        record = {"n": n, "seed": seed, "window": window}
        try:
            x_star, profile = find_separation_point(
                data, spec.k, window, a=model.a, b=model.b)
        except PipelineError as exc:
            record.update(status="failed",
                          error_type=type(exc).__name__,
                          error=str(exc))
        else:
            record.update(status="ok", x_star=x_star,
                          profile=[[x, s] for x, s in profile])
        _atomic_write_json(os.path.join(out, f"sep_n{n}_seed{seed}.json"),
                           record)
        return record

    tasks = [(n, seed) for n in spec.n_values for seed in spec.seeds]
    records = _run_tasks(tasks, worker, threads)
    n_ok = 0
    for record in records:
        if record["status"] == "ok":
            n_ok += 1
            print(f"n={record['n']} seed={record['seed']}: "
                  f"x*={record['x_star']:.6g}")
        else:
            print(f"n={record['n']} seed={record['seed']}: "
                  f"FAILED {record['error_type']}: {record['error']}")
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
    f_errs = []
    for j, f_hat in zip(order, fit.f_hats):
        truth = model.component_density(int(j), f_hat.spec())
        f_errs.append(l1_distance(f_hat, truth))
    w1 = wasserstein1(fit.g_hat, model.mixing_measure())
    return {
        "lambda_error": lam_err,
        "mu_error": mu_err,
        "f_l1_errors": [float(v) for v in f_errs],
        "f_l1_max": float(max(f_errs)),
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
    fit = MixtureFit.from_json_obj(record["fit"])
    report = _mixture_fit_metrics(fit, spec.model)
    return {name: report[name] for name in _MIXTURE_METRICS}


def _aggregate(values: list) -> dict:
    arr = np.asarray(values, dtype=float)
    q25, q75 = np.percentile(arr, [25.0, 75.0])
    return {
        "median": float(np.median(arr)),
        "iqr": float(q75 - q25),
        "values": [float(v) for v in arr],
    }


def _acceptance_checks(kind: str, per_n: dict, n_values) -> list:
    """Threshold and trend checks on the per-n medians."""
    if kind == "regression":
        rules = [("m_mean_abs_max", REGRESSION_MEDIAN_BOUND)]
    else:
        rules = [("lambda_error", MIXTURE_LAMBDA_BOUND),
                 ("f_l1_max", MIXTURE_F_BOUND)]
    checks = []
    largest = max(n_values)
    for metric, bound in rules:
        medians = {}
        for n in n_values:
            block = per_n[str(n)]["metrics"]
            medians[n] = (block[metric]["median"]
                          if metric in block else None)
        final = medians[largest]
        ok = final is not None and final <= bound
        checks.append({
            "name": f"{metric} median at n={largest} <= {bound}",
            "value": final,
            "ok": bool(ok),
        })
        for small, large in zip(n_values[:-1], n_values[1:]):
            lo, hi = medians[large], medians[small]
            ok = lo is not None and hi is not None and lo < hi
            checks.append({
                "name": f"{metric} median decreases "
                        f"from n={small} to n={large}",
                "value": None if lo is None or hi is None else hi - lo,
                "ok": bool(ok),
            })
    return checks


def cmd_eval(spec: ExperimentSpec, out: str,
             acceptance: bool) -> int:
    """Aggregate stored fits into a median/IQR report with a trend table
    across sample sizes."""
    per_n = {}
    for n in spec.n_values:
        rows, failed = [], []
        for seed in spec.seeds:
            metrics = _seed_metrics(spec, out, n, seed)
            if metrics is None:
                failed.append(seed)
            else:
                rows.append(metrics)
        block = {"n_seeds": len(spec.seeds), "failed_seeds": failed,
                 "metrics": {}}
        if rows:
            for name in rows[0]:
                block["metrics"][name] = _aggregate(
                    [row[name] for row in rows])
        per_n[str(n)] = block

    metric_names = (_REGRESSION_METRICS if spec.kind == "regression"
                    else _MIXTURE_METRICS)
    trend = []
    for n in spec.n_values:
        entry = {"n": n,
                 "n_failed": len(per_n[str(n)]["failed_seeds"])}
        for name in metric_names:
            block = per_n[str(n)]["metrics"]
            entry[f"{name}_median"] = (block[name]["median"]
                                       if name in block else None)
        trend.append(entry)

    report = {"kind": spec.kind, "per_n": per_n, "trend": trend}
    code = EXIT_OK
    if acceptance:
        checks = _acceptance_checks(spec.kind, per_n, spec.n_values)
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

    def make_worker(model):
        def worker(seed):
            data = sample_mixed_regression(model, n, seed)
            fit = fit_mixed_regression(data, model.k, model.sigma,
                                       x0=model.x0, a=model.a, b=model.b)
            return data, fit, evaluate_regression_fit(fit, model)
        return worker

    seed_tasks = [(seed,) for seed in seeds]
    equal_runs = _run_tasks(seed_tasks, make_worker(equal), threads)
    contrast_runs = _run_tasks(seed_tasks, make_worker(contrast), threads)

    def seed_rows(runs):
        rows = []
        for seed, (_, _, report) in zip(seeds, runs):
            rows.append({
                "seed": seed,
                "sorted_label_error": report["m_mean_abs_max"],
                "global_best_perm_error":
                    report["best_perm_m_mean_abs_max"],
                "pointwise_pairing_error":
                    report["pointwise_pairing_m_mean"],
            })
        return rows

    def medians(rows):
        return {key: float(np.median([r[key] for r in rows]))
                for key in rows[0] if key != "seed"}

    equal_rows = seed_rows(equal_runs)
    contrast_rows = seed_rows(contrast_runs)
    flip_count = sum(r["sorted_label_error"] > 0.5 for r in equal_rows)

    # The blend pair: swap the labels smoothly between two adjacent
    # sample points; no sample lands inside, so the observable law of
    # (X, Y) is exactly the same for both curve systems. Placed near
    # x = 0.5 where the curves are far apart, so the swap is visible.
    data0 = equal_runs[0][0]
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
    _write_regression_plot(first_fit_csv, equal_runs[0][1], equal)

    report = {
        "variant": "equal_weights_regression",
        "n": n,
        "seeds": list(seeds),
        "equal_weights": {
            "lambdas": list(equal.lambdas),
            "per_seed": equal_rows,
            "medians": medians(equal_rows),
            "seeds_with_sorted_error_above_0.5": flip_count,
        },
        "contrast_weights": {
            "lambdas": list(contrast.lambdas),
            "per_seed": contrast_rows,
            "medians": medians(contrast_rows),
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

    eq, ct = medians(equal_rows), medians(contrast_rows)
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
        try:
            fit = fit_vanilla_mixture(samples, 2, models[xi].sigma)
        except PipelineError as exc:
            record.update(status="failed",
                          error_type=type(exc).__name__,
                          error=str(exc))
            return record
        record.update(status="ok",
                      **_mixture_fit_metrics(fit, models[xi]))
        record["fit"] = fit
        return record

    tasks = [(xi, seed) for xi in xis for seed in seeds]
    records = _run_tasks(tasks, worker, threads)
    by_xi = {xi: [r for r in records if r["xi"] == xi] for xi in xis}

    for xi in xis:
        ok = next((r for r in by_xi[xi] if r["status"] == "ok"), None)
        if ok is not None:
            tag = repr(xi).replace(".", "p")
            _write_mixture_plot(
                os.path.join(out, f"demo_near_nonregular_density_"
                                  f"xi{tag}.csv"),
                ok["fit"], models[xi])

    blocks, medians = {}, {}
    for xi in xis:
        rows = []
        for record in by_xi[xi]:
            row = {"seed": record["seed"], "status": record["status"]}
            if record["status"] == "ok":
                row.update({name: record[name]
                            for name in _MIXTURE_METRICS})
            else:
                row.update(error_type=record["error_type"],
                           error=record["error"])
            rows.append(row)
        ok_rows = [r for r in rows if r["status"] == "ok"]
        med = (float(np.median([r["f_l1_max"] for r in ok_rows]))
               if ok_rows else None)
        medians[xi] = med
        blocks[repr(xi)] = {
            "separation_warning": warned[xi],
            "per_seed": rows,
            "f_l1_max_median": med,
            "n_failed": sum(r["status"] == "failed" for r in rows),
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
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "demo-nonident":
            out = args.out
            if not out:
                raise ValueError("demo-nonident needs --out <dir>")
            os.makedirs(out, exist_ok=True)
            if args.seeds is not None:
                seeds = tuple(int(s) for s in args.seeds.split(","))
            else:
                seeds = tuple(range(10))
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
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
