"""The ``demo-nonident`` demonstrations of what cannot be identified:
label switching at equal regression weights, and component recovery
lost near a degenerate mixture family.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .cli import (_atomic_write_json, _atomic_write_rows,
                  _mixture_fit_metrics, _recording, _run_tasks,
                  _write_mixture_plot, _write_regression_plot)
from .mixfit import fit_vanilla_mixture
from .regfit import evaluate_regression_fit, fit_mixed_regression
from .synth import (MixedRegressionModel, MixingSpec, RegressionCurve,
                    SeparationWarning, VanillaMixtureModel,
                    sample_mixed_regression, sample_vanilla_mixture)


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


def equal_weights(out: str, n: int, seeds, threads: int) -> None:
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

    def blend(x):
        """The curves at ``x``, then the pair that swaps them across (u, v)."""
        phi = _smooth_step((x - u) / (v - u))
        m1, m2 = equal.curve_values(x)
        return (m1, m2, (1.0 - phi) * m1 + phi * m2,
                (1.0 - phi) * m2 + phi * m1)

    grid = np.linspace(equal.a, equal.b, 401)
    curves_csv = os.path.join(out, "demo_label_switch_curves.csv")
    _atomic_write_rows(curves_csv,
                       ["x", "m1", "m2", "m1_blend", "m2_blend"],
                       np.column_stack([grid, *blend(grid)]))

    m1_s, m2_s, b1_s, b2_s = blend(data0.x)
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


def near_nonregular(out: str, n: int, seeds, threads: int) -> None:
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
