"""Tests for the box-kernel density estimators."""

import math

import numpy as np
import pytest

from demix.errors import EmptyWindowError
from demix.kde import (
    BandwidthSchedule,
    BoundaryWarning,
    ConditionalKde,
    conditional_density_at,
    univariate_kde,
)
from demix.measures import (
    GridDensity,
    GridSpec,
    gaussian_blur_values,
    l1_distance,
)
from demix.synth import (
    Dataset,
    MixedRegressionModel,
    MixingSpec,
    RegressionCurve,
    sample_mixed_regression,
)


def std_normal_density(grid: GridSpec) -> GridDensity:
    vals = gaussian_blur_values(np.array([0.0]), np.array([1.0]), 1.0,
                                grid.points())
    return GridDensity(grid.lo, grid.hi, vals, normalized=True)


def flat_model() -> MixedRegressionModel:
    """One component, m = 0, unit noise: p(y|x) = N(0,1) for every x."""
    return MixedRegressionModel(
        a=-2.0, b=2.0, lambdas=(1.0,),
        m=(RegressionCurve.constant(0.0),),
        sigma=1.0, g0=MixingSpec.point_mass(), x0=0.0,
    )


# ---------------------------------------------------------------------------
# bandwidth schedules
# ---------------------------------------------------------------------------

def test_default_schedule():
    sched = BandwidthSchedule()
    assert sched.bandwidth(10_000) == pytest.approx(0.1)
    assert sched.bandwidth(16) == pytest.approx(0.5)
    # h(n) -> 0 while n h(n)^2 -> infinity along the default rule.
    hs = [sched.bandwidth(n) for n in (10, 10**3, 10**5, 10**7)]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    nh2 = [n * sched.bandwidth(n) ** 2 for n in (10, 10**3, 10**5, 10**7)]
    assert all(b > a for a, b in zip(nh2, nh2[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        BandwidthSchedule.power_law(c=-1.0)
    with pytest.raises(ValueError):
        BandwidthSchedule.power_law(exponent=-0.5)  # n h^2 stalls
    with pytest.raises(ValueError):
        BandwidthSchedule.power_law(exponent=0.1)  # h does not shrink
    with pytest.raises(ValueError):
        BandwidthSchedule.fixed(0.0)
    assert BandwidthSchedule.fixed(0.3).bandwidth(5) == 0.3
    with pytest.raises(ValueError):
        BandwidthSchedule().bandwidth(0)


def test_schedule_json_round_trip():
    for sched in (BandwidthSchedule(), BandwidthSchedule.power_law(2.0, -0.3),
                  BandwidthSchedule.fixed(0.25)):
        back = BandwidthSchedule.from_json_obj(sched.to_json_obj())
        assert back == sched


# ---------------------------------------------------------------------------
# univariate estimator
# ---------------------------------------------------------------------------

def test_univariate_single_box():
    grid = GridSpec(-2.0, 2.0, 401)
    est = univariate_kde([0.0], 1.0, grid)
    assert est.normalized
    pts = grid.points()
    inside = np.abs(pts) <= 0.98
    outside = np.abs(pts) >= 1.02
    np.testing.assert_allclose(est.values[inside], 0.5, atol=1e-12)
    np.testing.assert_allclose(est.values[outside], 0.0, atol=1e-12)
    assert est.integral() == pytest.approx(1.0, abs=1e-9)


def test_univariate_translation():
    grid = GridSpec(0.0, 6.0, 601)
    est = univariate_kde([3.0, 3.0, 3.0], 1.0, grid)
    pts = grid.points()
    inside = np.abs(pts - 3.0) <= 0.98
    np.testing.assert_allclose(est.values[inside], 0.5, atol=1e-12)
    assert est.integral() == pytest.approx(1.0, abs=1e-9)


def test_univariate_validation():
    grid = GridSpec(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        univariate_kde([], 1.0, grid)
    with pytest.raises(ValueError):
        univariate_kde([0.0], -1.0, grid)
    with pytest.raises(ValueError):
        univariate_kde([np.nan], 1.0, grid)


def test_univariate_error_bound_std_normal():
    # Calibrated: with h = n^{-1/4} all ten seeds land well under 0.15.
    grid = GridSpec(-6.0, 6.0, 1025)
    truth = std_normal_density(grid)
    hits = 0
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(seed))
        ys = rng.standard_normal(10_000)
        est = univariate_kde(ys, 10_000 ** -0.25, grid)
        if l1_distance(est, truth) <= 0.15:
            hits += 1
    assert hits >= 9


def test_univariate_consistency_trend():
    grid = GridSpec(-6.0, 6.0, 1025)
    truth = std_normal_density(grid)
    medians = []
    for n in (100, 1000, 10_000):
        errs = []
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(seed))
            est = univariate_kde(rng.standard_normal(n), n ** -0.25, grid)
            errs.append(l1_distance(est, truth))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


# ---------------------------------------------------------------------------
# conditional estimator
# ---------------------------------------------------------------------------

def test_conditional_single_box():
    # All windowed responses at 0 with h = 1: uniform 1/2 on [-1, 1].
    x = np.linspace(-3.0, 3.0, 61)
    data = Dataset(x, np.zeros_like(x))
    kde = ConditionalKde(data, BandwidthSchedule.fixed(1.0), a=-3.0, b=3.0)
    grid = GridSpec(-2.0, 2.0, 401)
    est = conditional_density_at(kde, 0.0, grid)
    pts = grid.points()
    np.testing.assert_allclose(est.values[np.abs(pts) <= 0.98], 0.5,
                               atol=1e-12)
    assert est.integral() == pytest.approx(1.0, abs=1e-9)


def test_conditional_two_boxes():
    # Windowed responses {-1, 1} with h = 1/2: boxes of height 1/2 on
    # [-1.5, -0.5] and [0.5, 1.5].
    data = Dataset(np.array([-0.1, 0.1, -2.9, 2.9]),
                   np.array([-1.0, 1.0, 50.0, -50.0]))
    kde = ConditionalKde(data, BandwidthSchedule.fixed(0.5), a=-3.0, b=3.0)
    grid = GridSpec(-2.0, 2.0, 801)
    est = conditional_density_at(kde, 0.0, grid)
    pts = grid.points()
    inner = (np.abs(np.abs(pts) - 1.0) <= 0.48)
    outer = (np.abs(pts) <= 0.45) | (np.abs(pts) >= 1.55)
    np.testing.assert_allclose(est.values[inner], 0.5, atol=1e-12)
    np.testing.assert_allclose(est.values[outer], 0.0, atol=1e-12)
    assert est.integral() == pytest.approx(1.0, abs=1e-9)


def test_conditional_empty_window():
    data = Dataset(np.array([-2.0, -1.9, 1.9, 2.0]), np.zeros(4))
    kde = ConditionalKde(data, BandwidthSchedule.fixed(0.05), a=-2.0, b=2.0)
    with pytest.raises(EmptyWindowError):
        conditional_density_at(kde, 0.0, GridSpec(-1.0, 1.0, 11))


def test_conditional_boundary_clamp():
    data = sample_mixed_regression(flat_model(), 2000, seed=1)
    kde = ConditionalKde(data, BandwidthSchedule.fixed(0.25), a=-2.0, b=2.0)
    grid = GridSpec(-6.0, 6.0, 513)
    with pytest.warns(BoundaryWarning):
        at_edge = conditional_density_at(kde, -2.0, grid)
    interior = conditional_density_at(kde, -1.75, grid)
    np.testing.assert_array_equal(at_edge.values, interior.values)
    # Interior queries never warn.
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conditional_density_at(kde, 0.0, grid)


def test_conditional_window_bookkeeping():
    xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    data = Dataset(xs, xs.copy())
    kde = ConditionalKde(data, BandwidthSchedule.fixed(0.5), a=-1.0, b=1.0)
    # Closed window: |X| <= 0.5 catches -0.5, 0.0, 0.5.
    assert kde.window_count(0.0) == 3
    assert kde.interior() == pytest.approx((-0.5, 0.5))


def test_conditional_no_interior_rejected():
    data = Dataset(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        ConditionalKde(data, BandwidthSchedule.fixed(0.6), a=0.0, b=1.0)


def test_conditional_error_bound_flat_model():
    # Calibrated: all ten seeds land at or under 0.2 (max observed 0.197).
    grid = GridSpec(-6.0, 6.0, 1025)
    truth = std_normal_density(grid)
    model = flat_model()
    hits = 0
    for seed in range(10):
        data = sample_mixed_regression(model, 10_000, seed=seed)
        kde = ConditionalKde(data, a=-2.0, b=2.0)
        est = conditional_density_at(kde, 0.3, grid)
        if l1_distance(est, truth) <= 0.2:
            hits += 1
    assert hits >= 9


def test_conditional_independence_invariant():
    # Y independent of X: estimates at distant x agree within twice the
    # single-point error bound.
    grid = GridSpec(-6.0, 6.0, 1025)
    model = flat_model()
    for seed in (100, 101, 102):
        data = sample_mixed_regression(model, 10_000, seed=seed)
        kde = ConditionalKde(data, a=-2.0, b=2.0)
        d1 = conditional_density_at(kde, -1.0, grid)
        d2 = conditional_density_at(kde, 1.0, grid)
        assert l1_distance(d1, d2) <= 0.4


def test_conditional_integrates_to_one_on_covering_grid():
    model = flat_model()
    data = sample_mixed_regression(model, 5000, seed=7)
    kde = ConditionalKde(data, a=-2.0, b=2.0)
    ys = kde.window_responses(0.5)
    grid = GridSpec(float(ys.min()) - kde.h - 0.5,
                    float(ys.max()) + kde.h + 0.5, 2048)
    est = conditional_density_at(kde, 0.5, grid)
    assert est.integral() == pytest.approx(1.0, abs=1e-9)
    assert est.normalized


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_bandwidth_constants_are_rejected(value):
    with pytest.raises(ValueError, match="bandwidth c "):
        BandwidthSchedule.power_law(c=value)
    with pytest.raises(ValueError, match="bandwidth value "):
        BandwidthSchedule.fixed(value)
