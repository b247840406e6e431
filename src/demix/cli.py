"""Command-line harness: batch runs of the experiment workflow, reports.

The ``demix`` entry point drives the full workflow from one experiment
file. A typical session:

    demix simulate      --spec exp.json --out runs/exp
    demix fit-regression --spec exp.json --out runs/exp --threads 4
    demix find-sep      --spec exp.json --out runs/exp
    demix eval          --spec exp.json --out runs/exp --acceptance
    demix demo-nonident equal_weights_regression --out runs/demo

The experiment file is JSON holding a type-tagged generating model plus
optional estimator settings under ``configs``, the only place the commands
read estimator settings from; ``demix.spec`` parses and checks it:

    {
      "model": {"type": "mixed_regression", ...},
      "n": [5000, 50000],
      "seeds": [0, 1, 2],
      "configs": {
        "bandwidth":  {"kind": "power_law", "c": 1.0, "exponent": -0.25},
        "projection": {"L": 142, "M": 7.0},
        "denoise":    {"t": 0.2},
        "mde":        {"B": 2.0},
        "x0": 1.0,
        "n_x_grid": 101,
        "window": 0.1
      },
      "out": "runs/exp"
    }

The ``mde``, ``x0``, ``n_x_grid`` and ``window`` settings apply only to a
mixed-regression model. Every fit uses the model's own component count
and noise scale. The flags choose only what runs and where: ``--spec``,
``--out``, ``--seeds``, ``--threads`` and ``--acceptance``, plus the
demos' variant and ``--n``.

Dataset CSVs are written by ``_atomic_write_rows`` and read back only by
``_load_dataset``.  ``demo-nonident`` runs the demonstrations in ``demos``.

Commands are pure functions of the spec file and input files: rerunning
one rewrites byte-identical artifacts. Seeds run concurrently (bounded by
``--threads``) with independent generator states; files are written
atomically (temp file then rename) and report assembly is single threaded.
``--threads`` sets only seed concurrency: the per-x solves of every
regression fit go to the one pool the process shares, sized to its CPUs,
so concurrent seeds share the cores, and artifacts do not depend on the
thread count. A seed whose fit fails is recorded in its artifact and the
run continues; a missing dataset stops the run, naming the first such seed
in (n, seed) order, and a malformed one stops it naming the file and line.

Seeds, in the spec, in ``--seeds`` and in ``demo-nonident``, must be
distinct nonnegative integers. Every block (the spec, ``configs`` and each
block inside it, the model and each curve, mixing distribution and
covariate inside it) rejects keys it does not know and values of the
wrong type.

Exit codes: 0 success, 2 validation error (including any malformed spec
or dataset), 3 pipeline failure, 4 acceptance thresholds failed (with
``--acceptance``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from .errors import PipelineError
from .kde import BandwidthSchedule
from .measures import GridSpec, l1_distance, require_int, wasserstein1
from .mixfit import MixtureFit, fit_vanilla_mixture
from .regfit import (RegressionFit, evaluate_regression_fit,
                     find_separation_point, fit_mixed_regression)
from .spec import ExperimentSpec, _load_spec, _parse_seeds
from .synth import (Dataset, MixedRegressionModel, VanillaMixtureModel,
                    sample_mixed_regression, sample_vanilla_mixture)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PIPELINE = 3
EXIT_ACCEPTANCE = 4

# Acceptance bounds applied by `eval --acceptance` at the largest n.
REGRESSION_MEDIAN_BOUND = 0.2
MIXTURE_LAMBDA_BOUND = 0.05
MIXTURE_F_BOUND = 0.3


# ---------------------------------------------------------------------------
# artifact files
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
    lines += [",".join(map(repr, row))
              for row in np.asarray(rows, dtype=float).tolist()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _load_dataset(out: str, n: int, seed: int, kind: str):
    """The dataset CSV of (n, seed) as ``_atomic_write_rows`` wrote it, bit
    for bit; ``ValueError`` names the file, and the line, of any fault."""
    path = _dataset_path(out, n, seed)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"dataset for n={n} seed={seed} not found: {path}")
    header = ["x", "y"] if kind == "regression" else ["y"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or [h.strip() for h in lines[0].split(",")] != header:
        raise ValueError(f"expected header {','.join(header)!r} in {path}")
    if len(lines) == 1:
        raise ValueError(f"no data rows in {path}")
    # np.loadtxt would skip blank lines and take any column count the rows
    # agree on.
    for number, row in enumerate(lines[1:], start=2):
        if not row.strip() or row.count(",") != len(header) - 1:
            raise ValueError(f"{path} line {number}: expected "
                             f"{len(header)} comma-separated values, "
                             f"got {row!r}")
    try:
        # comments=None: np.loadtxt would drop a line from a "#" on.
        values = np.loadtxt(lines[1:], delimiter=",", comments=None,
                            ndmin=2)
    except ValueError as exc:  # a value that is not a number
        for number, row in enumerate(lines[1:], start=2):
            try:
                [float(v) for v in row.split(",")]
            except ValueError:
                raise ValueError(f"{path} line {number}: not a number "
                                 f"in {row!r}") from None
        raise ValueError(f"{path}: {exc}") from None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path} line {finite.argmin() + 2}: "
                         f"non-finite value")
    if kind == "regression":
        return Dataset(values[:, 0].copy(), values[:, 1].copy())
    return values.ravel()


# ---------------------------------------------------------------------------
# batch running
# ---------------------------------------------------------------------------

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


def _write_mixture_plot(path: str, fit: MixtureFit,
                        model: VanillaMixtureModel) -> None:
    """The fitted density Σ λ̂_k f̂_k(y − μ̂_k), zero off each
    component's grid, and the true one, over a grid spanning them all."""
    lo = min(mu + f.spec().lo for mu, f in zip(fit.mus_hat, fit.f_hats))
    hi = max(mu + f.spec().hi for mu, f in zip(fit.mus_hat, fit.f_hats))
    grid = GridSpec(lo, hi, fit.f_hats[0].spec().n_points)
    y = grid.points()
    f_hat = np.zeros_like(y)
    for lam, mu, f in zip(fit.lambdas_hat, fit.mus_hat, fit.f_hats):
        f_hat += lam * np.interp(y, f.spec().points() + mu, f.values,
                                 left=0.0, right=0.0)
    _atomic_write_rows(path, ["y", "f_hat", "f_true"],
                       np.column_stack([y, f_hat, model.density(grid).values]))


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


def cmd_fit(spec: ExperimentSpec, out: str, threads: int,
            kind: str) -> int:
    """Fit every (n, seed) dataset; record per-seed failures and
    keep going."""
    _require_kind(spec, kind, f"fit-{kind}")
    model = spec.model

    def worker(n: int, seed: int) -> dict:
        data = _load_dataset(out, n, seed, kind)
        plot = os.path.join(out, f"plot_{kind}_n{n}_seed{seed}.csv")
        record = {"n": n, "seed": seed}
        with _recording(record):
            if kind == "regression":
                fit = fit_mixed_regression(
                    data, model.k, model.sigma, x0=spec.x0, a=model.a,
                    b=model.b, bandwidth=spec.bandwidth,
                    proj_cfg=spec.projection, denoise=spec.denoise,
                    mde_cfg=spec.mde, n_x_grid=spec.n_x_grid)
                _write_regression_plot(plot, fit, model)
            else:
                fit = fit_vanilla_mixture(data, model.k, model.sigma,
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
                data, model.k, window, a=model.a, b=model.b)
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
    """Metrics for one stored fit; None when that seed's fit failed.  A
    malformed fit file raises ``ValueError`` naming the file."""
    path = _fit_path(out, spec.kind, n, seed)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"fit for n={n} seed={seed} not found: {path}")
    try:
        with open(path) as fh:
            record = json.load(fh)
        status = record["status"]
        if status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', "
                             f"got {status!r}")
        fit_cls = RegressionFit if spec.kind == "regression" else MixtureFit
        fit = fit_cls.from_json_obj(record["fit"]) if status == "ok" else None
    except json.JSONDecodeError as exc:
        raise ValueError(f"fit file {path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"fit file {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"fit file {path}: {exc}") from None
    if fit is None:
        return None
    if spec.kind == "regression":
        report = evaluate_regression_fit(fit, spec.model)
        return {name: report[name] for name in _REGRESSION_METRICS}
    return _mixture_fit_metrics(fit, spec.model)


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
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _flags(*specs) -> argparse.ArgumentParser:
    """A parent parser holding the flags ``(name, options)``."""
    group = argparse.ArgumentParser(add_help=False)
    for name, options in specs:
        group.add_argument(name, **options)
    return group


def _build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads; any other exits 2."""
    spec = _flags(("--spec", {"help": "experiment JSON file"}))
    out = _flags(
        ("--out", {"help": "output directory (defaults to the spec's "
                           "'out')"}),
        ("--seeds", {"help": "comma-separated seed list, overrides the "
                             "spec"}))
    threads = _flags(("--threads", {"type": int, "default": 1,
                                    "help": "concurrent seeds (default 1)"}))
    acceptance = _flags(("--acceptance", {
        "action": "store_true", "help": "apply acceptance thresholds"}))

    parser = argparse.ArgumentParser(
        prog="demix",
        description="Mixture and mixed-regression estimation harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, parents, text in (
            ("simulate", [spec, out, threads],
             "write dataset CSVs and a manifest"),
            ("fit-mixture", [spec, out, threads],
             "fit the mixture pipeline per seed"),
            ("fit-regression", [spec, out, threads],
             "fit the regression pipeline per seed"),
            ("find-sep", [spec, out, threads],
             "scan for the separation point per seed"),
            ("eval", [spec, out, acceptance],
             "aggregate stored fits into a report")):
        sub.add_parser(command, parents=parents, help=text)
    demo = sub.add_parser("demo-nonident", parents=[out, threads],
                          help="run a non-identifiability demonstration")
    demo.add_argument("variant",
                      choices=["equal_weights_regression",
                               "near_nonregular_mixture"])
    demo.add_argument("--n", type=int, default=20000,
                      help="samples per run (default 20000)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", 1)
    try:
        require_int(threads, "--threads", least=1)
        if args.command == "demo-nonident":
            out = args.out
            if not out:
                raise ValueError("demo-nonident needs --out <dir>")
            os.makedirs(out, exist_ok=True)
            seeds = (_parse_seeds(args.seeds, "--seeds")
                     if args.seeds is not None else tuple(range(10)))
            require_int(args.n, "--n", least=1)
            from . import demos
            demo = {"equal_weights_regression": demos.equal_weights,
                    "near_nonregular_mixture": demos.near_nonregular}
            demo[args.variant](out, args.n, seeds, threads)
            return EXIT_OK

        spec = _load_spec(args.spec, args.seeds)
        out = _out_dir(spec, args)
        if args.command == "simulate":
            return cmd_simulate(spec, out, threads)
        if args.command == "fit-mixture":
            return cmd_fit(spec, out, threads, "mixture")
        if args.command == "fit-regression":
            return cmd_fit(spec, out, threads, "regression")
        if args.command == "find-sep":
            return cmd_find_sep(spec, out, threads)
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
