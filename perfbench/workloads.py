"""The benchmark's workloads: inputs, the timed call, and the output checks.

Each workload is a closed loop with one caller.  Set-up builds every input
from the benchmark seed; an op is one call into demix's public interface;
the check that follows it (untimed) digests the fitted values, computes the
accuracy against the generating model and applies the acceptance gates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import zlib
from dataclasses import dataclass

import numpy as np

import demix.cli
import demix.mixfit
import demix.regfit
import demix.synth
from demix import (MixedRegressionModel, MixingSpec, RegressionCurve,
                   RegressionFit, VanillaMixtureModel,
                   evaluate_regression_fit, l1_distance)

# Acceptance bounds of the paper's criteria 4 and 6; an op whose estimate
# breaks one counts as failed.
LAMBDA_BOUND = 0.05
F_BOUND = 0.3
CURVE_BOUND = 0.2

CLI_THREADS = 2
# Each CLI batch fits every n of ``Size.batch_n`` at this many seeds.
BATCH_SEEDS = 2


@dataclass(frozen=True)
class Size:
    """Problem sizes; the defaults are the benchmark, smaller ones serve
    the self-tests."""

    mixture_n: int = 2_000_000
    mixture_pool: int = 8
    regression_n: int = 50_000
    regression_pool: int = 7
    batch_n: tuple = (5_000, 50_000)
    # Ops cycle over this many batches of len(batch_n) * BATCH_SEEDS fits.
    batch_pool: int = 4
    # None keeps the fitter's default 101-point x-grid.  The CLI batch
    # uses 51 points so a run holds several ops over all its batches; the
    # MDE still does most of the work.
    n_x_grid: int | None = None
    batch_x_grid: int | None = 51
    setup_repeats: int = 3


@dataclass
class Record:
    """Outcome of one fitted dataset inside an op."""

    key: str
    digest: str = ""
    errors: dict | None = None
    failure: str | None = None


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Dataset seed for pool entry ``index`` (-1 is the warm-up input)."""
    tag = zlib.crc32(workload.encode())
    seq = np.random.SeedSequence([seed, tag, index + 1])
    return int(seq.generate_state(1)[0])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fit_digest(fit) -> str:
    return _sha(json.dumps(fit.to_json_obj(), sort_keys=True).encode())


def _gate(errors: dict, bounds: dict) -> str | None:
    broken = [f"{name}={errors[name]:.4g} > {bound}"
              for name, bound in bounds.items() if not errors[name] <= bound]
    return "accuracy gate: " + ", ".join(broken) if broken else None


def box_mixture_model() -> VanillaMixtureModel:
    return VanillaMixtureModel(
        lambdas=(0.3, 0.7), mus=(-2.5, 2.5), sigma=0.25,
        gks=(MixingSpec.uniform(-0.5, 0.5), MixingSpec.uniform(-0.5, 0.5)))


def crossing_lines_model() -> MixedRegressionModel:
    return MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)


def mixture_errors(fit, model: VanillaMixtureModel) -> dict:
    """Weight, center and component-density errors, components aligned
    by sorting both weight vectors ascending."""
    order = np.argsort(model.lambdas, kind="stable")
    lam = np.abs(np.asarray(fit.lambdas_hat) - np.asarray(model.lambdas)[order])
    mu = np.abs(np.asarray(fit.mus_hat) - np.asarray(model.mus)[order])
    f_err = max(
        l1_distance(f_hat, model.component_density(int(j), f_hat.spec()))
        for j, f_hat in zip(order, fit.f_hats))
    return {"lambda": float(lam.max()), "f": float(f_err),
            "curve": float(mu.max())}


def regression_errors(fit, model: MixedRegressionModel) -> dict:
    report = evaluate_regression_fit(fit, model)
    return {"lambda": report["lambda_error_sorted"],
            "f": report["f_l1_max"], "curve": report["m_mean_abs_max"]}


class Workload:
    """Shared shape: ``setup`` fills ``items`` and ``warmup``; an op is
    ``prepare`` (untimed), ``call`` (timed), ``check`` and ``cleanup``
    (untimed)."""

    name = ""
    # Errors gated per fit and the acceptance bound of each.
    gates: dict = {}

    def __init__(self, size: Size, workdir: str):
        self.size = size
        self.workdir = workdir
        self.items: list = []
        self.warmup = None

    @property
    def min_ops(self) -> int:
        """Ops needed so every pooled input is fitted at least once."""
        return len(self.items)

    def prepare(self, item):
        return item

    def cleanup(self, ctx) -> None:
        pass


class MixtureWorkload(Workload):
    """Vanilla fit at n=2e6: the projection LP does nearly all the work and
    the KDE is second; the MDE never runs, so MDE changes read no change."""

    name = "mixture-2e6"
    gates = {"lambda": LAMBDA_BOUND, "f": F_BOUND}

    def __init__(self, size: Size, workdir: str):
        super().__init__(size, workdir)
        self.model = box_mixture_model()

    def setup(self, seed: int) -> None:
        self.items = self.warmup = None
        sample = demix.synth.sample_vanilla_mixture
        seeds = [derive_seed(seed, self.name, i)
                 for i in range(-1, self.size.mixture_pool)]
        data = [(s, sample(self.model, self.size.mixture_n, s))
                for s in seeds]
        self.warmup, self.items = data[0], data[1:]

    def call(self, ctx):
        return demix.mixfit.fit_vanilla_mixture(ctx[1], k=2, sigma=0.25)

    def check(self, ctx, fit) -> list[Record]:
        errors = mixture_errors(fit, self.model)
        return [Record(f"seed{ctx[0]}", _fit_digest(fit), errors,
                       _gate(errors, self.gates))]


class RegressionWorkload(Workload):
    """Crossing-lines fit at n=5e4: the per-x MDE sweep dominates and the
    x0 LP is small, so LP changes read no change."""

    name = "regression-crossing"
    gates = {"curve": CURVE_BOUND}

    def __init__(self, size: Size, workdir: str):
        super().__init__(size, workdir)
        self.model = crossing_lines_model()

    def setup(self, seed: int) -> None:
        self.items = self.warmup = None
        sample = demix.synth.sample_mixed_regression
        seeds = [derive_seed(seed, self.name, i)
                 for i in range(-1, self.size.regression_pool)]
        data = [(s, sample(self.model, self.size.regression_n, s))
                for s in seeds]
        self.warmup, self.items = data[0], data[1:]

    def call(self, ctx):
        kwargs = {}
        if self.size.n_x_grid is not None:
            kwargs["n_x_grid"] = self.size.n_x_grid
        return demix.regfit.fit_mixed_regression(
            ctx[1], k=2, sigma=0.2, a=-1.0, b=1.0, **kwargs)

    def check(self, ctx, fit) -> list[Record]:
        errors = regression_errors(fit, self.model)
        return [Record(f"seed{ctx[0]}", _fit_digest(fit), errors,
                       _gate(errors, self.gates))]


class BatchCliWorkload(Workload):
    """CLI batch of whole fits sharing the cores through ``--threads``, with
    the CSV load and artifact writes on the measured path.  Intra-fit
    threading that oversubscribes the cores shows here as a loss."""

    name = "batch-regression-cli"
    gates = {"curve": CURVE_BOUND}

    def __init__(self, size: Size, workdir: str, threads: int = CLI_THREADS):
        super().__init__(size, workdir)
        self.model = crossing_lines_model()
        self.threads = threads
        self._ops = 0

    def _write_inputs(self, directory: str, n_values, seeds) -> str:
        """Spec file plus simulated dataset CSVs, written by the CLI."""
        os.makedirs(directory)
        configs = ({} if self.size.batch_x_grid is None
                   else {"n_x_grid": self.size.batch_x_grid})
        spec = {"model": self.model.to_json_obj(), "n": list(n_values),
                "seeds": list(seeds), "configs": configs}
        path = os.path.join(directory, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code = _quiet_main(["simulate", "--spec", path, "--out", directory])
        if code != 0:
            raise RuntimeError(f"demix simulate exited with {code}")
        return directory

    def setup(self, seed: int) -> None:
        self.items = self.warmup = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.items = [
            self._write_inputs(
                os.path.join(self.workdir, f"batch{b}"), self.size.batch_n,
                [derive_seed(seed, self.name, b * BATCH_SEEDS + j)
                 for j in range(BATCH_SEEDS)])
            for b in range(self.size.batch_pool)]
        self.warmup = self._write_inputs(
            os.path.join(self.workdir, "warmup"), self.size.batch_n[:1],
            [derive_seed(seed, self.name, -1)])

    def prepare(self, item: str) -> str:
        """A fresh output directory holding copies of the input CSVs."""
        self._ops += 1
        out = os.path.join(self.workdir, f"op{self._ops}")
        os.makedirs(out)
        for name in sorted(os.listdir(item)):
            if name.startswith("dataset_") or name == "spec.json":
                shutil.copyfile(os.path.join(item, name),
                                os.path.join(out, name))
        return out

    def call(self, out: str) -> int:
        return _quiet_main(["fit-regression", "--spec",
                            os.path.join(out, "spec.json"), "--out", out,
                            "--threads", str(self.threads)])

    def check(self, out: str, code: int) -> list[Record]:
        with open(os.path.join(out, "spec.json")) as fh:
            spec = json.load(fh)
        records = []
        for n in spec["n"]:
            for s in spec["seeds"]:
                rec = Record(f"n{n}_seed{s}")
                records.append(rec)
                fit_path = os.path.join(out, f"fit_regression_n{n}_seed{s}.json")
                plot_path = os.path.join(out,
                                         f"plot_regression_n{n}_seed{s}.csv")
                if not os.path.exists(fit_path):
                    rec.failure = f"missing artifact (exit {code})"
                    continue
                with open(fit_path, "rb") as fh:
                    fit_bytes = fh.read()
                obj = json.loads(fit_bytes)
                if obj.get("status") != "ok":
                    rec.failure = (f"fit failed: {obj.get('error_type')}: "
                                   f"{obj.get('error')}")
                    continue
                if not os.path.exists(plot_path):
                    rec.failure = f"missing artifact (exit {code})"
                    continue
                with open(plot_path, "rb") as fh:
                    plot_bytes = fh.read()
                rec.digest = _sha(fit_bytes + b"\0" + plot_bytes)
                fit = RegressionFit.from_json_obj(obj["fit"])
                rec.errors = regression_errors(fit, self.model)
                rec.failure = _gate(rec.errors, self.gates)
        if code != 0:
            for rec in records:
                rec.failure = rec.failure or f"demix exited with {code}"
        return records

    def cleanup(self, out: str) -> None:
        shutil.rmtree(out, ignore_errors=True)


def _quiet_main(argv) -> int:
    """Run the CLI entry point with its progress lines captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return demix.cli.main(argv)


WORKLOADS = {cls.name: cls for cls in
             (MixtureWorkload, RegressionWorkload, BatchCliWorkload)}
