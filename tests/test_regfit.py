"""Tests for mixed-regression estimation and separation-point search."""

import dataclasses
import json
import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demix.errors import EmptyWindowError, InsufficientDataError
from demix.kde import BandwidthSchedule, ConditionalKde
from demix.measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    gaussian_blur_values,
)
from demix.mixfit import (
    estimate_components,
    fit_vanilla_mixture,
    project_to_gaussian_mixture,
)
from demix.regfit import (
    MdeConfig,
    MdeContext,
    RegressionFit,
    evaluate_regression_fit,
    find_separation_point,
    fit_mixed_regression,
    mde_at_x,
)
from demix.synth import (
    Dataset,
    MixedRegressionModel,
    MixingSpec,
    RegressionCurve,
    sample_mixed_regression,
)
from truth_oracle import true_conditional_density

Y_SPEC = GridSpec(-6.0, 6.0, 2048)
Y_PTS = Y_SPEC.points()


def blur_density(centers, weights, sigma):
    """Exact Gaussian-blurred atom density on the shared response grid."""
    vals = gaussian_blur_values(np.asarray(centers, dtype=float),
                                np.asarray(weights, dtype=float),
                                sigma, Y_PTS)
    return GridDensity(Y_SPEC.lo, Y_SPEC.hi, vals, normalized=True)


def crossing_lines_model(lambdas=(0.35, 0.65)):
    return MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=lambdas,
        m=(RegressionCurve.line(1.0, 0.0), RegressionCurve.line(-1.0, 0.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)


def alternating_dataset(n, lo=0.0, hi=1.0, levels=(-2.0, 2.0)):
    """Deterministic two-level dataset with evenly spread covariates."""
    x = np.linspace(lo, hi, n)
    y = np.where(np.arange(n) % 2 == 0, levels[0], levels[1])
    return Dataset(x, y)


@pytest.fixture(scope="module")
def end_to_end_fit():
    model = crossing_lines_model()
    data = sample_mixed_regression(model, 10000, seed=0)
    fit = fit_mixed_regression(data, 2, 0.2, x0=1.0,
                               a=model.a, b=model.b, n_x_grid=41)
    return model, fit


@pytest.fixture(scope="module")
def gap_fit():
    """Fit over a covariate distribution with a hole around x=0."""
    rng = np.random.default_rng(7)
    n = 4000
    x = np.concatenate([
        rng.uniform(-1.0, -0.3, n // 2),
        rng.uniform(0.3, 1.0, n - n // 2),
    ])
    comp = rng.random(n) < 0.6
    y = np.where(comp, 1.0, -1.0) + 0.15 * rng.standard_normal(n)
    data = Dataset(x, y)
    fit = fit_mixed_regression(
        data, 2, 0.15, x0=0.9,
        bandwidth=BandwidthSchedule.fixed(0.05), n_x_grid=21)
    return data, fit


# ---------------------------------------------------------------------------
# configuration and result containers
# ---------------------------------------------------------------------------

def test_mde_config_validation():
    cfg = MdeConfig(B=2.0)
    assert cfg.coarse_grid == 61 and cfg.refine_levels == 3
    assert cfg.resolution() == pytest.approx(2 * 0.2 ** 3 / 60, rel=1e-12)
    with pytest.raises(ValueError):
        MdeConfig(B=0.0)
    with pytest.raises(ValueError, match="^B must be positive"):
        MdeConfig(B=True)
    with pytest.raises(ValueError):
        MdeConfig(B=1.0, coarse_grid=2)
    with pytest.raises(ValueError):
        MdeConfig(B=1.0, refine_levels=-1)
    assert [f.name for f in dataclasses.fields(MdeConfig)] \
        == ["B", "coarse_grid", "refine_levels"]


def test_mde_config_bounds_refine_levels():
    # Past a spacing of 2**-50 B, neighbouring candidates near +-B are no
    # longer distinct doubles: 2 * 0.2**20 / 60 is below it, 0.2**22 too.
    assert MdeConfig(B=1.0, refine_levels=19).resolution() >= 2.0 ** -50
    with pytest.raises(ValueError, match="refine_levels"):
        MdeConfig(B=1.0, refine_levels=20)
    MdeConfig(B=1.0, coarse_grid=3, refine_levels=21)
    with pytest.raises(ValueError, match="refine_levels"):
        MdeConfig(B=1.0, coarse_grid=3, refine_levels=22)


@pytest.mark.parametrize("value", [5.5, 61.0, True, "61"])
def test_mde_config_coarse_grid_must_be_an_integer(value):
    # A float used to pass here and fail as a TypeError on a pool thread.
    with pytest.raises(ValueError, match="^coarse_grid must be an integer"):
        MdeConfig(B=1.0, coarse_grid=value)
    cfg = MdeConfig(B=1.0, coarse_grid=np.int64(21))
    assert type(cfg.coarse_grid) is int
    assert cfg == MdeConfig(B=1.0, coarse_grid=21)


@pytest.mark.parametrize("value", [1.5, 1.0, True])
def test_mde_config_refine_levels_must_be_an_integer(value):
    # True used to run one refinement level.
    with pytest.raises(ValueError, match="^refine_levels must be an integer"):
        MdeConfig(B=1.0, refine_levels=value)
    cfg = MdeConfig(B=1.0, refine_levels=np.int32(2))
    assert type(cfg.refine_levels) is int
    assert cfg.candidates() == [61, 13, 13]


def test_regression_fit_validation():
    mix = _exact_mixture(0.95)
    xs = (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        RegressionFit(x_grid=xs, m_hat=((0.0, 0.5), (0.0, -0.5)),
                      mixture=mix, per_x_objective=(0.0,) * 3, x0_used=1.0)
    with pytest.raises(ValueError):
        RegressionFit(x_grid=xs, m_hat=((0.0,) * 3, (0.0,) * 3),
                      mixture=mix, per_x_objective=(0.0,) * 2, x0_used=1.0)
    with pytest.raises(ValueError):
        RegressionFit(x_grid=xs, m_hat=((0.0,) * 3, (0.0,) * 3),
                      mixture=mix, per_x_objective=(0.0,) * 3, x0_used=1.0,
                      interpolated=(False,))


# ---------------------------------------------------------------------------
# minimum-distance estimation, equal error densities
# ---------------------------------------------------------------------------

def test_mde_recovers_asymmetric_pair():
    p = blur_density([-2.0, 2.0], [0.3, 0.7], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.5)
    theta, obj = mde_at_x(p, (0.3, 0.7), f, cfg)
    tol = cfg.resolution() * 2.5
    assert abs(theta[0] + 2.0) <= tol
    assert abs(theta[1] - 2.0) <= tol
    assert obj <= 1e-3


def test_mde_symmetric_tie_break():
    # Both orderings minimize; lexicographic rule must pick (-t, t), the
    # lattice's own candidates nearest -2 and 2.
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.5)
    ctx = MdeContext(Y_SPEC, (0.5, 0.5), f, cfg)
    t = float(ctx.axes0[0][54])
    assert abs(t - 2.0) <= 1e-4 and float(ctx.axes0[0][6]) == -t
    p = blur_density([-t, t], [0.5, 0.5], 0.25)
    theta, _ = mde_at_x(p, (0.5, 0.5), f, cfg)
    assert theta[0] < theta[1]
    assert theta == pytest.approx((-t, t), abs=1e-9)


def test_mde_single_component():
    p = blur_density([1.3], [1.0], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.5)
    theta, obj = mde_at_x(p, (1.0,), f, cfg)
    assert len(theta) == 1
    assert abs(theta[0] - 1.3) <= cfg.resolution() * 2.5
    assert 0.0 <= obj <= 1e-2


def test_mde_three_components():
    p = blur_density([-1.5, 0.0, 1.5], [0.2, 0.3, 0.5], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.0, coarse_grid=21, refine_levels=2)
    theta, _ = mde_at_x(p, (0.2, 0.3, 0.5), f, cfg)
    tol = cfg.resolution() * 2.0
    for got, want in zip(theta, (-1.5, 0.0, 1.5)):
        assert abs(got - want) <= tol


def test_mde_input_validation():
    p = blur_density([0.0], [1.0], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    unnormalized = GridDensity(Y_SPEC.lo, Y_SPEC.hi, 2.0 * f.values)
    with pytest.raises(ValueError):
        mde_at_x(p, (0.4, 0.4), f, MdeConfig(B=1.0))
    with pytest.raises(ValueError):
        mde_at_x(p, (-0.2, 1.2), f, MdeConfig(B=1.0))
    with pytest.raises(ValueError):
        mde_at_x(p, (1.0,), unnormalized, MdeConfig(B=1.0))
    with pytest.raises(ValueError):
        mde_at_x(p, (1.0,), f, MdeConfig())  # B unresolved


def test_mde_rejects_nan_weights():
    # NaN fails every comparison, so "weight < 0" and "|sum - 1| > tol"
    # checks would let these through to the sweep.
    p = blur_density([-1.0, 1.0], [0.4, 0.6], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.5, coarse_grid=11, refine_levels=1)
    for lambdas in ((math.nan, 1.0), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="^lambdas must lie on"):
            mde_at_x(p, lambdas, f, cfg)


def test_mde_takes_one_density_for_every_component():
    # Every component shifts a copy of one error density; a list or tuple
    # of per-component densities is refused by name.
    p = blur_density([-1.0, 1.0], [0.4, 0.6], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.0, coarse_grid=11, refine_levels=1)
    for f_hats in ([f, f], (f, f)):
        with pytest.raises(ValueError, match="^f_hat must be one"):
            mde_at_x(p, (0.4, 0.6), f_hats, cfg)
        with pytest.raises(ValueError, match="^f_hat must be one"):
            MdeContext(p.spec(), (0.4, 0.6), f_hats, cfg)


def test_mde_sweep_bound_names_the_largest_coarse_grid():
    # At most 61**3 level-0 candidates per x: the default 61 points per
    # axis reach it at K=3, and K=2 allows 476, K=4 21, K=5 11.
    p = blur_density([-3.0, -1.0, 1.0, 3.0], [0.25] * 4, 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    with pytest.raises(ValueError,
                       match=r"^coarse_grid=61 .*K=4 is 21$"):
        mde_at_x(p, (0.25,) * 4, f, MdeConfig(B=3.5))
    MdeConfig(coarse_grid=61).check_sweep(3)
    MdeConfig(coarse_grid=21).check_sweep(4)
    with pytest.raises(ValueError, match=r"^coarse_grid=12 .*K=5 is 11$"):
        MdeConfig(coarse_grid=12).check_sweep(5)
    # K=1 shares the K=2 bound, 476: its level-0 shift bank holds
    # coarse_grid copies of the padded grid, so the 61**3 candidates a
    # K=1 sweep alone would allow make a bank of gigabytes.
    for k in (1, 2):
        MdeConfig(coarse_grid=476).check_sweep(k)
        with pytest.raises(ValueError,
                           match=rf"^coarse_grid=477 .*K={k} is 476$"):
            MdeConfig(coarse_grid=477).check_sweep(k)


def test_mde_four_components_grid():
    # Distinct weights: the full-grid sweep recovers each curve value at
    # its own position.
    f = blur_density([0.0], [1.0], 0.25)
    lambdas = (0.1, 0.2, 0.3, 0.4)
    centers = (1.0, -3.0, 3.0, -1.0)
    p = blur_density(centers, lambdas, 0.25)
    cfg = MdeConfig(B=3.5, coarse_grid=21)
    theta, obj = mde_at_x(p, lambdas, f, cfg)
    assert theta == pytest.approx(centers, abs=cfg.resolution() * 3.5)
    assert obj <= 1e-2


# ---------------------------------------------------------------------------
# solver properties
# ---------------------------------------------------------------------------

def test_mde_monotone_refinement():
    # Returned objective never exceeds any coarse-grid candidate's value.
    p = blur_density([-1.5, 1.5], [0.3, 0.7], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.0)
    theta, obj = mde_at_x(p, (0.3, 0.7), f, cfg)

    spacing = p.spacing
    pad = int(math.ceil(cfg.B / spacing)) + 1
    pts = np.concatenate([
        p.lo + spacing * np.arange(-pad, 0),
        p.grid,
        p.hi + spacing * np.arange(1, pad + 1),
    ])
    target = np.concatenate([np.zeros(pad), p.values, np.zeros(pad)])
    quad = np.full(pts.size, spacing)
    quad[0] *= 0.5
    quad[-1] *= 0.5
    cand = np.linspace(-cfg.B, cfg.B, cfg.coarse_grid)
    bank = np.empty((cand.size, pts.size))
    for i, t in enumerate(cand):
        bank[i] = np.interp(pts - t, Y_PTS, f.values, left=0.0, right=0.0)
    coarse_min = math.inf
    for i in range(cand.size):
        objs = np.abs(0.3 * bank[i] + 0.7 * bank - target) @ quad
        coarse_min = min(coarse_min, float(objs.min()))
    assert obj <= coarse_min + 1e-12


def test_mde_permutation_consistency():
    p = blur_density([-1.5, 1.5], [0.3, 0.7], 0.25)
    f = blur_density([0.0], [1.0], 0.25)
    cfg = MdeConfig(B=2.0)
    theta_a, obj_a = mde_at_x(p, (0.3, 0.7), f, cfg)
    theta_b, obj_b = mde_at_x(p, (0.7, 0.3), f, cfg)
    assert theta_a == pytest.approx((theta_b[1], theta_b[0]), abs=1e-12)
    assert obj_a == pytest.approx(obj_b, abs=1e-12)


def test_mde_exact_inputs_track_curves():
    # Oracle conditional density, exact weights and error density: the
    # recovered locations match the curves within solver resolution at
    # every covariate, including the crossing itself.
    model = crossing_lines_model()
    f = blur_density([0.0], [1.0], 0.2)
    cfg = MdeConfig(B=1.5)
    tol = cfg.resolution() * 1.5
    for x in np.linspace(-1.0, 1.0, 21):
        p = true_conditional_density(model, float(x), Y_SPEC)
        theta, _ = mde_at_x(p, model.lambdas, f, cfg)
        truth = (float(x), -float(x))
        hausdorff = max(min(abs(t - m) for m in truth) for t in theta)
        assert hausdorff <= tol
        if 2 * abs(x) > 2 * tol:  # curves resolvable: positional match too
            assert abs(theta[0] - truth[0]) <= tol
            assert abs(theta[1] - truth[1]) <= tol


def test_mde_equal_weights_label_flip():
    # With equal weights the positional labels are arbitrary; the
    # lexicographic tie-break keeps theta sorted, so labels flip on one
    # side of the crossing while the recovered set stays exact.
    model = crossing_lines_model(lambdas=(0.5, 0.5))
    f = blur_density([0.0], [1.0], 0.2)
    cfg = MdeConfig(B=1.5)
    tol = cfg.resolution() * 1.5
    theta_l, _ = mde_at_x(true_conditional_density(model, -0.5, Y_SPEC),
                          (0.5, 0.5), f, cfg)
    theta_r, _ = mde_at_x(true_conditional_density(model, 0.5, Y_SPEC),
                          (0.5, 0.5), f, cfg)
    assert theta_l == pytest.approx((-0.5, 0.5), abs=tol)
    assert theta_r == pytest.approx((-0.5, 0.5), abs=tol)
    # m1(0.5) = +0.5: position 0 no longer tracks curve 1 on the right.
    assert abs(theta_r[0] - 0.5) > 0.9


# ---------------------------------------------------------------------------
# separation-point search
# ---------------------------------------------------------------------------

def test_find_separation_constant_pair():
    data = alternating_dataset(400)
    x_star, profile = find_separation_point(data, 2, window=0.2)
    assert len(profile) == 101
    xs = [x for x, _ in profile]
    assert xs == sorted(xs)
    for _, sep in profile:
        assert sep == pytest.approx(4.0, abs=1e-12)
    assert x_star == 0.0  # ties resolve to the leftmost grid point


def test_find_separation_crossing_lines():
    model = crossing_lines_model()
    for seed in range(10):
        data = sample_mixed_regression(model, 5000, seed=seed)
        x_star, _ = find_separation_point(data, 2, window=0.1)
        assert abs(x_star) >= 0.8


def test_find_separation_single_component():
    data = alternating_dataset(400)
    x_star, profile = find_separation_point(data, 1, window=0.2)
    assert x_star == pytest.approx(0.5)
    assert all(math.isinf(sep) and sep > 0 for _, sep in profile)


def test_find_separation_insufficient_data():
    data = alternating_dataset(30)
    with pytest.raises(InsufficientDataError):
        find_separation_point(data, 2, window=1e-6)


# ---------------------------------------------------------------------------
# end-to-end regression fitting
# ---------------------------------------------------------------------------

def test_fit_requires_min_samples():
    data = alternating_dataset(80)
    with pytest.raises(InsufficientDataError):
        fit_mixed_regression(data, 2, 0.2, x0=0.5)


def test_fit_recovers_crossing_lines(end_to_end_fit):
    model, fit = end_to_end_fit
    report = evaluate_regression_fit(fit, model)
    assert report["lambda_error_sorted"] <= 0.05
    assert report["m_mean_abs_max"] <= 0.1
    assert report["f_l1_max"] <= 0.25
    assert report["best_perm"] == [0, 1]  # labels resolved, not flipped


def test_fit_structure(end_to_end_fit):
    model, fit = end_to_end_fit
    h = fit.diagnostics["h"]
    xs = np.asarray(fit.x_grid)
    assert fit.k == 2
    assert len(xs) == 41
    assert xs[0] == pytest.approx(model.a + h)
    assert xs[-1] == pytest.approx(model.b - h)
    assert fit.x0_used == pytest.approx(model.b - h)  # clamped boundary x0
    assert fit.diagnostics["B"] > 0
    assert np.abs(np.asarray(fit.m_hat)).max() <= fit.diagnostics["B"]
    assert all(math.isfinite(v) for v in fit.per_x_objective)
    assert not any(fit.interpolated)
    lams = fit.lambdas_sorted()
    assert lams[0] <= lams[1]
    assert sum(lams) == pytest.approx(1.0, abs=1e-9)


def test_fit_deterministic():
    model = crossing_lines_model()
    fits = []
    for _ in range(2):
        data = sample_mixed_regression(model, 4000, seed=3)
        fits.append(fit_mixed_regression(data, 2, 0.2, x0=0.9, n_x_grid=9))
    a, b = fits
    assert a.m_hat == b.m_hat
    assert a.per_x_objective == b.per_x_objective
    assert a.x0_used == b.x0_used
    assert a.mixture.lambdas_hat == b.mixture.lambdas_hat


def test_concurrent_fits_leave_the_warning_filters_alone(monkeypatch):
    # Two fits clamp a boundary x0 on two threads whose x0 steps overlap,
    # the first ending before the second.  A fit that swapped the
    # process-wide filter list around that step would leave the second
    # fit's copy, with BoundaryWarning silenced, in place.
    data = sample_mixed_regression(crossing_lines_model(), 2000, seed=0)
    a_inside, b_inside, a_done = (threading.Event() for _ in range(3))
    original = ConditionalKde.conditional_density_at

    def at_x0(kde, x, grid):
        # Only the fit threads' own call, the x0 density, waits.
        name = threading.current_thread().name
        if name == "fit-a":
            a_inside.set()
            b_inside.wait(30)
        elif name == "fit-b":
            b_inside.set()
            a_done.wait(30)
        return original(kde, x, grid)

    def fit_a():
        fit_mixed_regression(data, 2, 0.2, x0=1.0, a=-1, b=1, n_x_grid=3)
        a_done.set()

    monkeypatch.setattr(ConditionalKde, "conditional_density_at", at_x0)
    before = list(warnings.filters)
    try:
        first = threading.Thread(target=fit_a, name="fit-a")
        first.start()
        assert a_inside.wait(30)
        second = threading.Thread(
            target=fit_mixed_regression, name="fit-b", args=(data, 2, 0.2),
            kwargs=dict(x0=1.0, a=-1, b=1, n_x_grid=3))
        second.start()
        first.join(60)
        second.join(60)
        assert a_done.is_set() and not second.is_alive()
        assert warnings.filters == before
    finally:
        warnings.filters[:] = before


def test_fit_rejects_empty_x_grid():
    model = crossing_lines_model()
    data = sample_mixed_regression(model, 400, seed=0)
    with pytest.raises(ValueError, match="n_x_grid"):
        fit_mixed_regression(data, 2, 0.2, x0=1.0, n_x_grid=0)


@pytest.mark.parametrize("value", [5.5, True])
def test_fit_checks_n_x_grid_before_any_work(value):
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    with mock.patch("demix.regfit.ConditionalKde",
                    side_effect=AssertionError("fit started")):
        with pytest.raises(ValueError, match="^n_x_grid must be an integer"):
            fit_mixed_regression(data, 2, 0.2, x0=1.0, n_x_grid=value)


@pytest.mark.parametrize("bound, value", [("a", -math.inf), ("b", math.inf),
                                          ("a", "-1"), ("b", math.nan)])
def test_fit_checks_domain_bounds_before_any_work(bound, value):
    # a=-inf used to fail only in RegressionFit, b=inf with a misleading
    # InsufficientDataError, and text was parsed and fitted.
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    with mock.patch("demix.regfit.ConditionalKde",
                    side_effect=AssertionError("fit started")):
        with pytest.raises(ValueError,
                           match=f"^{bound} must be a finite number"):
            fit_mixed_regression(data, 2, 0.2, **{bound: value})


@pytest.mark.parametrize("bound, value", [("a", -math.inf), ("b", math.inf),
                                          ("a", "-1")])
def test_find_separation_checks_domain_bounds(bound, value):
    # a=-inf used to return a point after RuntimeWarnings.
    data = alternating_dataset(400)
    with pytest.raises(ValueError, match=f"^{bound} must be a finite number"):
        find_separation_point(data, 2, window=0.2, **{bound: value})


def test_fit_raises_when_every_x_grid_window_is_empty():
    # The covariates sit between the points -0.95, 0 and 0.95 of the
    # x-grid, so only the mixture fit at x0 = 0.5 sees any data.
    rng = np.random.default_rng(3)
    n = 2000
    x = rng.uniform(0.4, 0.6, n)
    comp = rng.random(n) < 0.6
    y = np.where(comp, 1.0, -1.0) + 0.15 * rng.standard_normal(n)
    with pytest.raises(EmptyWindowError, match="every x-grid window"):
        fit_mixed_regression(Dataset(x, y), 2, 0.15, x0=0.5, a=-1.0, b=1.0,
                             bandwidth=BandwidthSchedule.fixed(0.05),
                             n_x_grid=3)


def test_fit_finds_x0_when_omitted():
    model = crossing_lines_model()
    data = sample_mixed_regression(model, 5000, seed=1)
    fit = fit_mixed_regression(data, 2, 0.2, n_x_grid=9)
    # Separation peaks at the domain edges for crossing lines.
    assert abs(fit.x0_used) >= 0.8
    assert all(math.isfinite(v) for v in fit.per_x_objective)


def test_fit_interpolates_empty_windows(gap_fit):
    data, fit = gap_fit
    xs = np.asarray(fit.x_grid)
    x_data = np.asarray(data.x)
    expect_empty = np.array([
        not np.any(np.abs(x_data - x) <= 0.05) for x in xs
    ])
    flags = np.asarray(fit.interpolated)
    assert np.array_equal(flags, expect_empty)
    assert flags.any() and not flags.all()
    objs = np.asarray(fit.per_x_objective)
    assert np.array_equal(np.isnan(objs), flags)
    # Filled values are the linear interpolant of the solved neighbors.
    m = np.asarray(fit.m_hat)
    for row in m:
        filled = np.interp(xs[flags], xs[~flags], row[~flags])
        assert np.allclose(row[flags], filled, atol=1e-12)
    # The two solved components sit near the generating levels +-1.
    assert np.allclose(sorted(m[:, 0]), [-1.0, 1.0], atol=0.15)


def test_fit_diagnostics_record_mde_schedule(gap_fit):
    _, fit = gap_fit
    assert fit.diagnostics["mde_candidates"] == [61, 13, 13, 13]
    # The lattice: q phases, the smallest power of two that puts 8 units
    # in the final spacing; every solved value is a multiple of the unit.
    unit = fit.diagnostics["mde_lattice_unit"]
    phases = fit.diagnostics["mde_phases"]
    final = fit.diagnostics["mde_resolution"]
    assert phases > 0 and phases & (phases - 1) == 0
    assert 8 * unit <= final * (1 + 1e-12)
    assert phases == 1 or final < 16 * unit
    solved = np.asarray(fit.m_hat)[:, ~np.asarray(fit.interpolated)]
    assert np.array_equal(np.rint(solved / unit) * unit, solved)
    assert MdeConfig(coarse_grid=9, refine_levels=2).candidates() == [9, 9, 9]
    assert MdeConfig(refine_levels=0).candidates() == [61]


# ---------------------------------------------------------------------------
# projection atom range
# ---------------------------------------------------------------------------

def fit_and_projected_density(fit, *args, **kwargs):
    """Run ``fit`` and return it with the density its projection read."""
    seen = []

    def project(p_hat, sigma, cfg):
        seen.append(p_hat)
        return project_to_gaussian_mixture(p_hat, sigma, cfg)

    with mock.patch("demix.mixfit.project_to_gaussian_mixture", project):
        result = fit(*args, **kwargs)
    (p_hat,) = seen
    return result, p_hat


def assert_m_reads_the_support(m, p_hat, ys, h):
    """M is 1.1 times the largest |y| where ``p_hat`` is positive; for a
    box-kernel estimate of ``ys`` that is the data hull widened by h."""
    assert m == 1.1 * np.abs(p_hat.grid[p_hat.values > 0]).max()
    hull = float(np.abs(ys).max())
    assert 1.1 * hull <= m < 1.1 * (hull + h + p_hat.spacing)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 4000),
       shift=st.floats(-3.0, 3.0), gap=st.floats(2.0, 4.0),
       sigma=st.floats(0.1, 0.3))
def test_vanilla_m_is_read_off_the_projected_support(seed, n, shift, gap,
                                                     sigma):
    rng = np.random.default_rng(seed)
    ys = (shift + np.where(rng.random(n) < 0.4, -0.5, 0.5) * gap
          + sigma * rng.standard_normal(n))
    fit, p_hat = fit_and_projected_density(fit_vanilla_mixture, ys, 2, sigma)
    assert_m_reads_the_support(fit.diagnostics["M"], p_hat, ys,
                               fit.diagnostics["h"])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(500, 3000),
       slope=st.floats(1.0, 2.0), intercept=st.floats(-2.0, 2.0),
       given_x0=st.booleans())
def test_regression_m_is_read_off_the_projected_support(
        seed, n, slope, intercept, given_x0):
    # Slopes from 1 put the lines at least 10 sigma apart at x = 1;
    # closer pairs do not resolve into two clusters at these n.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(slope, intercept),
           RegressionCurve.line(-slope, intercept)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    data = sample_mixed_regression(model, n, seed=seed)
    fit, p_hat = fit_and_projected_density(
        fit_mixed_regression, data, 2, 0.2, x0=1.0 if given_x0 else None,
        n_x_grid=3)
    window = ConditionalKde(data).window_responses(fit.x0_used)
    assert_m_reads_the_support(fit.mixture.diagnostics["M"], p_hat, window,
                               fit.diagnostics["h"])


def test_crossing_lines_atoms_stay_near_the_window_responses():
    # The response grid is padded by 6 sigma past the data; the atom
    # range must follow the responses in the x0 window, not the grid ends.
    data = sample_mixed_regression(crossing_lines_model(), 5000, seed=0)
    fit, p_hat = fit_and_projected_density(
        fit_mixed_regression, data, 2, 0.2, x0=1.0, n_x_grid=3)
    window = ConditionalKde(data).window_responses(fit.x0_used)
    reach = np.abs(window).max() + fit.diagnostics["h"] + p_hat.spacing
    assert fit.mixture.diagnostics["M"] < 1.1 * reach


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_regression_fit_json_round_trip(gap_fit):
    _, fit = gap_fit
    text = json.dumps(fit.to_json_obj())
    back = RegressionFit.from_json_obj(json.loads(text))
    assert back.x_grid == fit.x_grid
    assert back.m_hat == fit.m_hat
    assert back.x0_used == fit.x0_used
    assert back.interpolated == fit.interpolated
    for u, v in zip(back.per_x_objective, fit.per_x_objective):
        assert (math.isnan(u) and math.isnan(v)) or u == v
    assert back.mixture.lambdas_hat == fit.mixture.lambdas_hat
    assert back.diagnostics == fit.diagnostics


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _exact_mixture(x0):
    """Exact mixture fit at covariate x0 for the crossing-lines model."""
    g = DiscreteMeasure(np.array([-x0, x0]), np.array([0.65, 0.35]))
    cells = [(-math.inf, 0.0), (0.0, math.inf)]
    grid = GridSpec(-3.0, 3.0, 1601)
    return estimate_components(g, cells, 0.2, grid)


def test_evaluate_exact_fit_is_zero():
    model = crossing_lines_model()
    xs = np.linspace(-1.0, 1.0, 201)
    # Position 0 carries the smaller weight 0.35, which is curve m1 = x.
    fit = RegressionFit(
        x_grid=tuple(xs), m_hat=(tuple(xs), tuple(-xs)),
        mixture=_exact_mixture(0.95),
        per_x_objective=(0.0,) * xs.size, x0_used=0.95)
    report = evaluate_regression_fit(fit, model)
    assert report["lambda_error_sorted"] == 0.0
    assert report["m_l1_max"] == 0.0
    assert report["m_mean_abs_max"] == 0.0
    # floor set by the mean-extraction quadrature inside the mixture fit
    assert report["f_l1_max"] <= 1e-8
    assert report["best_perm"] == [0, 1]
    assert report["x0_used"] == 0.95


def test_evaluate_constant_offset():
    model = crossing_lines_model()
    xs = np.linspace(-1.0, 1.0, 201)
    fit = RegressionFit(
        x_grid=tuple(xs), m_hat=(tuple(xs + 0.05), tuple(-xs + 0.05)),
        mixture=_exact_mixture(0.95),
        per_x_objective=(0.0,) * xs.size, x0_used=0.95)
    report = evaluate_regression_fit(fit, model)
    assert report["m_l1_max"] == pytest.approx(0.05 * 2.0, rel=1e-9)
    assert report["m_mean_abs_max"] == pytest.approx(0.05, rel=1e-9)


def test_evaluate_reports_label_swap():
    model = crossing_lines_model()
    xs = np.linspace(-1.0, 1.0, 201)
    fit = RegressionFit(
        x_grid=tuple(xs), m_hat=(tuple(-xs), tuple(xs)),
        mixture=_exact_mixture(0.95),
        per_x_objective=(0.0,) * xs.size, x0_used=0.95)
    report = evaluate_regression_fit(fit, model)
    assert report["m_mean_abs_max"] >= 0.9  # sorted labels see the swap
    assert report["best_perm_m_mean_abs_max"] <= 1e-12
    assert report["best_perm"] == [1, 0]


def test_evaluate_rejects_mismatched_inputs():
    model = crossing_lines_model()
    xs = np.linspace(-1.0, 1.5, 11)  # exceeds the model domain
    fit = RegressionFit(
        x_grid=tuple(xs), m_hat=(tuple(xs), tuple(-xs)),
        mixture=_exact_mixture(0.95),
        per_x_objective=(0.0,) * xs.size, x0_used=0.95)
    with pytest.raises(ValueError):
        evaluate_regression_fit(fit, model)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]),
       refine_levels=st.integers(0, 2))
def test_mde_recovers_theta_exactly_on_its_own_candidates(
        seed, k, refine_levels):
    # The target is built from level-0 candidates with the solver's own
    # arithmetic, their bank rows on the lattice, so the sweep meets it
    # with objective exactly 0.
    rng = np.random.default_rng(seed)
    b_bound = float(rng.uniform(0.5, 2.0))
    coarse = {1: 41, 2: 21, 3: 9}[k]
    cfg = MdeConfig(B=b_bound, coarse_grid=coarse,
                    refine_levels=refine_levels)
    half = float(rng.uniform(0.2, 0.8))
    f_pts = np.linspace(-half, half, int(rng.integers(20, 400)))

    def bump():  # vanishes at both ends, so shifts lose no mass
        vals = (np.exp(-0.5 * (f_pts / rng.uniform(0.05, 0.3)) ** 2)
                * (half ** 2 - f_pts ** 2))
        return GridDensity(-half, half, vals / np.trapezoid(vals, f_pts),
                           normalized=True)

    f = bump()
    lambdas = tuple(rng.dirichlet(np.ones(k)))
    reach = b_bound + half + 0.5
    spec = GridSpec(-reach, reach, int(rng.integers(100, 1500)))
    ctx = MdeContext(spec, lambdas, f, cfg)
    picks = np.sort(rng.choice(coarse, size=k, replace=False))
    theta = ctx.axes0[0][picks]
    inner = slice(ctx.pad, ctx.pad + spec.n_points)
    target = np.zeros(spec.n_points)
    for bank, c in zip(ctx.banks0, picks):
        target += bank[c][inner]
    p = GridDensity(spec.lo, spec.hi, target)
    got = mde_at_x(p, lambdas, f, cfg)
    assert got == (tuple(float(v) for v in theta), 0.0)


@pytest.mark.parametrize("x0", [True, "0.5", complex(0.5, 0.0)],
                         ids=["bool", "text", "complex"])
def test_x0_must_be_a_real_number(x0):
    # True would otherwise fit at x0 = 1.
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    with pytest.raises(ValueError, match="^x0 "):
        fit_mixed_regression(data, 2, 0.2, x0=x0)


def test_negative_x0_is_valid():
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    fit = fit_mixed_regression(data, 2, 0.2, x0=np.float64(-0.5),
                               n_x_grid=3)
    assert fit.x0_used == -0.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_regression_settings_are_rejected_by_name(value):
    with pytest.raises(ValueError, match="^B "):
        MdeConfig(B=value)
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    with pytest.raises(ValueError, match="^sigma "):
        fit_mixed_regression(data, 2, value, x0=1.0)
    with pytest.raises(ValueError, match="^x0 "):
        fit_mixed_regression(data, 2, 0.2, x0=value)
    with pytest.raises(ValueError, match="^window "):
        find_separation_point(data, 2, window=value)


# ---------------------------------------------------------------------------
# exact invariances of the whole fit, over generated two-line models
# ---------------------------------------------------------------------------

@st.composite
def two_line_samples(draw):
    """A crossing pair of lines with distinct weights, and its sample."""
    slopes = draw(st.tuples(st.floats(0.8, 1.5), st.floats(0.8, 1.5)))
    intercepts = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
    small = draw(st.floats(0.25, 0.4))
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(small, 1.0 - small),
        m=(RegressionCurve.line(slopes[0], intercepts[0]),
           RegressionCurve.line(-slopes[1], intercepts[1])),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    return sample_mixed_regression(model, 4000,
                                   seed=draw(st.integers(0, 2**32 - 1)))


def invariance_fit(data):
    return fit_mixed_regression(
        data, 2, 0.2, mde_cfg=MdeConfig(coarse_grid=31, refine_levels=2),
        n_x_grid=41)


@settings(max_examples=4, deadline=None)
@given(data=two_line_samples(), order_seed=st.integers(0, 2**32 - 1))
def test_fit_json_ignores_row_order(data, order_seed):
    order = np.random.default_rng(order_seed).permutation(len(data))
    fit = invariance_fit(data)
    shuffled = invariance_fit(Dataset(data.x[order], data.y[order]))
    assert (json.dumps(shuffled.to_json_obj())
            == json.dumps(fit.to_json_obj()))


@settings(max_examples=4, deadline=None)
@given(data=two_line_samples())
def test_mirrored_responses_mirror_the_curves(data):
    fit = invariance_fit(data)
    mirrored = invariance_fit(Dataset(data.x, -data.y))
    np.testing.assert_allclose(np.asarray(mirrored.m_hat),
                               -np.asarray(fit.m_hat), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [2.0, 2.5, True], ids=["float", "fraction",
                                                     "bool"])
def test_component_count_must_be_an_integer(k):
    data = sample_mixed_regression(crossing_lines_model(), 400, seed=0)
    with pytest.raises(ValueError, match="^k must be an integer"):
        fit_mixed_regression(data, k, 0.2)
    with pytest.raises(ValueError, match="^k must be an integer"):
        find_separation_point(data, k, window=0.1)
