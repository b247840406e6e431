"""Tests for the project-smooth-denoise mixture estimator."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import demix.measures
from demix.errors import (
    DegenerateComponentError,
    InsufficientDataError,
    ProjectionError,
    ProjectionWarning,
    ThresholdTooHighError,
    UnderResolutionError,
)
from demix.measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    IntervalSet,
    density_mean,
    gaussian_blur_values,
    l1_distance,
    wasserstein1,
)
from demix.mixfit import (
    DenoiseConfig,
    MixtureFit,
    ProjectionConfig,
    estimate_components,
    fit_mixture_from_density,
    fit_vanilla_mixture,
    project_to_gaussian_mixture,
    smooth,
    threshold_partition,
    voronoi_extend,
)
from demix.synth import MixingSpec, VanillaMixtureModel, sample_vanilla_mixture
from truth_oracle import outlier_mass


def gaussian_pair_density(weights, centers, sigma, grid):
    vals = gaussian_blur_values(np.asarray(centers, dtype=float),
                                np.asarray(weights, dtype=float),
                                sigma, grid.points())
    return GridDensity(grid.lo, grid.hi, vals, normalized=True)


def two_bump_model(sigma=0.25):
    g = MixingSpec.uniform(-0.5, 0.5)
    return VanillaMixtureModel(lambdas=(0.3, 0.7), mus=(-2.5, 2.5),
                               sigma=sigma, gks=(g, g))


def fit_errors(fit, model):
    """(max weight error, max component L1 error) after weight sorting."""
    order = np.argsort(model.lambdas, kind="stable")
    lam_err = max(
        abs(fit.lambdas_hat[i] - model.lambdas[j])
        for i, j in enumerate(order)
    )
    f_err = 0.0
    for i, j in enumerate(order):
        spec = fit.f_hats[i].spec()
        truth = GridDensity(
            spec.lo, spec.hi,
            model.gks[j].density_values(model.sigma, spec.points()),
            normalized=True,
        )
        f_err = max(f_err, l1_distance(fit.f_hats[i], truth))
    return lam_err, f_err


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_projection_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(L=0)
    with pytest.raises(ValueError):
        ProjectionConfig(M=-1.0)
    with pytest.raises(ValueError):
        ProjectionConfig(max_iters=0)


@pytest.mark.parametrize("value", [100.5, 100.0, True])
def test_projection_config_atom_count_must_be_an_integer(value):
    with pytest.raises(ValueError, match="^L must be an integer"):
        ProjectionConfig(L=value)
    cfg = ProjectionConfig(L=np.int64(100))
    assert type(cfg.L) is int and cfg == ProjectionConfig(L=100)


@pytest.mark.parametrize("value", [10.5, 10.0, True])
def test_projection_config_max_iters_must_be_an_integer(value):
    with pytest.raises(ValueError, match="^max_iters must be an integer"):
        ProjectionConfig(max_iters=value)
    cfg = ProjectionConfig(max_iters=np.uint16(10))
    assert type(cfg.max_iters) is int and cfg.max_iters == 10


def test_projection_config_bounds_atoms():
    assert ProjectionConfig(L=2 ** 16).L == 65536
    with pytest.raises(ValueError,
                       match=r"^L=65537 .* limit of 65536 "):
        ProjectionConfig(L=2 ** 16 + 1)


def test_denoise_config_validation_and_resolve():
    assert [f.name for f in dataclasses.fields(DenoiseConfig)] \
        == ["delta", "t"]
    with pytest.raises(ValueError):
        DenoiseConfig(delta=-0.1, t=0.5)
    # objective e^-4 gives d = (1/8)(1/2) = 1/16, so delta = 1/2, t = 1/4.
    delta, t = DenoiseConfig().resolve(math.exp(-4.0))
    assert delta == pytest.approx(0.5, abs=1e-9)
    assert t == pytest.approx(0.25, abs=1e-9)
    # objective near 1 clips d at 1.
    assert DenoiseConfig().resolve(0.9999) == (1.0, 1.0)
    assert DenoiseConfig(0.2, 0.05).resolve(0.5) == (0.2, 0.05)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_pure_gaussian_recovers_point_mass():
    grid = GridSpec(-6.0, 6.0, 2048)
    p_hat = gaussian_pair_density([1.0], [0.0], 0.25, grid)
    cfg = ProjectionConfig(L=81, M=4.0)  # odd L: atom grid contains 0
    res = project_to_gaussian_mixture(p_hat, 0.25, cfg)
    spacing = 8.0 / 80
    assert wasserstein1(res.measure, DiscreteMeasure.point(0.0)) \
        <= 2 * spacing
    assert res.converged


def test_project_two_gaussian_blend():
    grid = GridSpec(-6.0, 6.0, 2048)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    # Atom spacing 0.05 puts atoms exactly on +-2.5.
    cfg = ProjectionConfig(L=161, M=4.0)
    res = project_to_gaussian_mixture(p_hat, 0.25, cfg)
    assert res.objective <= 1e-3
    target = DiscreteMeasure(np.array([-2.5, 2.5]), np.array([0.3, 0.7]))
    assert wasserstein1(res.measure, target) <= 3 * (8.0 / 160)


def test_project_objective_grows_with_wrong_sigma():
    grid = GridSpec(-6.0, 6.0, 2048)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    cfg = ProjectionConfig(L=161, M=4.0)
    at_true = project_to_gaussian_mixture(p_hat, 0.25, cfg).objective
    at_double = project_to_gaussian_mixture(p_hat, 0.5, cfg).objective
    assert at_double >= at_true


def test_project_validation():
    grid = GridSpec(-6.0, 6.0, 256)
    p_hat = gaussian_pair_density([1.0], [0.0], 0.5, grid)
    unnorm = GridDensity(grid.lo, grid.hi, p_hat.values * 2.0)
    with pytest.raises(ValueError):
        project_to_gaussian_mixture(unnorm, 0.5, ProjectionConfig(L=11, M=2.0))
    with pytest.raises(ValueError):
        project_to_gaussian_mixture(p_hat, -0.5, ProjectionConfig(L=11, M=2.0))
    with pytest.raises(ValueError):
        project_to_gaussian_mixture(p_hat, 0.5, ProjectionConfig(L=None, M=2.0))


def test_projection_lp_is_equality_form(monkeypatch):
    # One equality row per grid point, design_i @ w - u_i + v_i = p_i,
    # plus the simplex row, with only the design entries HiGHS keeps.
    real_linprog = demix.measures.linprog
    calls = []

    def recording_linprog(*args, **kwargs):
        calls.append(kwargs)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(demix.measures, "linprog", recording_linprog)
    grid = GridSpec(-6.0, 6.0, 512)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    n_atoms = 41
    project_to_gaussian_mixture(p_hat, 0.25, ProjectionConfig(L=n_atoms,
                                                              M=4.0))
    (kwargs,) = calls
    assert kwargs.get("A_ub") is None and kwargs.get("b_ub") is None
    a_eq = kwargs["A_eq"]
    assert a_eq.shape == (grid.n_points + 1, n_atoms + 2 * grid.n_points)
    design = np.column_stack([
        gaussian_blur_values(np.array([a]), np.array([1.0]), 0.25,
                             grid.points())
        for a in np.linspace(-4.0, 4.0, n_atoms)])
    kept = np.count_nonzero(
        np.abs(design) > demix.measures.HIGHS_SMALL_MATRIX_VALUE)
    assert kept < design.size
    assert a_eq.nnz == kept + 2 * grid.n_points + n_atoms


def test_projection_reports_lp_iterations():
    samples = sample_vanilla_mixture(two_bump_model(), 4000, seed=1)
    cfg = ProjectionConfig()
    fit = fit_vanilla_mixture(samples, 2, 0.25, cfg=cfg)
    iterations = fit.diagnostics["lp_iterations"]
    assert fit.diagnostics["converged"]
    assert type(iterations) is int
    assert 0 < iterations < cfg.max_iters
    back = MixtureFit.from_json_obj(json.loads(json.dumps(fit.to_json_obj())))
    assert back.diagnostics["lp_iterations"] == iterations


def test_project_without_lp_solution_raises():
    # scipy returns no iterate when HiGHS stops on its iteration cap.
    grid = GridSpec(-6.0, 6.0, 2048)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    cfg = ProjectionConfig(L=161, M=4.0, max_iters=1)
    with pytest.raises(ProjectionError, match="no solution"):
        project_to_gaussian_mixture(p_hat, 0.25, cfg)


def test_fit_without_lp_solution_raises_projection_error():
    samples = sample_vanilla_mixture(two_bump_model(), 2000, seed=0)
    with pytest.raises(ProjectionError, match="no solution"):
        fit_vanilla_mixture(samples, 2, 0.25,
                            cfg=ProjectionConfig(max_iters=1))


def test_project_short_of_optimal_warns(monkeypatch):
    # HiGHS can stop with a feasible iterate (status 1: iteration limit).
    real_linprog = demix.measures.linprog

    def short_linprog(*args, **kwargs):
        res = real_linprog(*args, **kwargs)
        res.status, res.message = 1, "Iteration limit reached."
        return res

    monkeypatch.setattr(demix.measures, "linprog", short_linprog)
    grid = GridSpec(-6.0, 6.0, 512)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    with pytest.warns(ProjectionWarning, match="status 1"):
        res = project_to_gaussian_mixture(p_hat, 0.25,
                                          ProjectionConfig(L=41, M=4.0))
    assert not res.converged
    assert res.measure.weights.sum() == pytest.approx(1.0)


def test_project_with_massless_lp_weights_raises(monkeypatch):
    # HiGHS status 4 (numerical difficulties) with an all-zero iterate.
    monkeypatch.setattr(demix.measures, "linprog", lambda c, **kwargs:
                        OptimizeResult(x=np.zeros(len(c)), status=4, nit=0,
                                       message="Numerical difficulties."))
    grid = GridSpec(-6.0, 6.0, 512)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    with pytest.raises(ProjectionError, match="positive atom mass"):
        project_to_gaussian_mixture(p_hat, 0.25,
                                    ProjectionConfig(L=41, M=4.0))


def test_converged_vanilla_fit_does_not_warn():
    samples = sample_vanilla_mixture(two_bump_model(), 20_000, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_vanilla_mixture(samples, 2, 0.25)
    assert fit.diagnostics["converged"]


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smooth_single_atom():
    grid = GridSpec(-2.0, 2.0, 513)  # spacing 1/128 <= delta/4
    out = smooth(DiscreteMeasure.point(0.0), 0.5, grid)
    pts = grid.points()
    np.testing.assert_allclose(out.values[np.abs(pts) <= 0.48], 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(out.values[np.abs(pts) >= 0.52], 0.0,
                               atol=1e-12)
    assert out.integral() == pytest.approx(1.0, abs=1e-6)


def test_smooth_two_atom_overlap_against_direct_formula():
    # g = (delta_0 + delta_0.4)/2 with box half-width 0.5: boxes
    # [-0.5, 0.5] and [-0.1, 0.9] each carry height 1/2, so the density is
    # 1 on the overlap [-0.1, 0.5] and 1/2 on the flanks.
    g = DiscreteMeasure(np.array([0.0, 0.4]), np.array([0.5, 0.5]))
    grid = GridSpec(-2.0, 2.0, 2049)
    out = smooth(g, 0.5, grid)
    pts = grid.points()
    edges = np.array([-0.5, -0.1, 0.5, 0.9])
    away = np.min(np.abs(pts[:, None] - edges[None, :]), axis=1) \
        > grid.spacing
    expected = (0.5 * ((pts >= -0.5) & (pts <= 0.5))
                + 0.5 * ((pts >= -0.1) & (pts <= 0.9)))
    np.testing.assert_allclose(out.values[away], expected[away], atol=1e-12)
    assert out.integral() == pytest.approx(1.0, abs=1e-6)


def test_smooth_rejects_coarse_grid():
    with pytest.raises(ValueError):
        smooth(DiscreteMeasure.point(0.0), 0.1, GridSpec(-2.0, 2.0, 41))
    with pytest.raises(ValueError):
        smooth(DiscreteMeasure.point(0.0), -0.1, GridSpec(-2.0, 2.0, 41))


# ---------------------------------------------------------------------------
# threshold partition
# ---------------------------------------------------------------------------

def plateau_density(spans_heights, grid):
    pts = grid.points()
    vals = np.zeros(pts.size)
    for (lo, hi), height in spans_heights:
        vals[(pts >= lo) & (pts <= hi)] = height
    return GridDensity(grid.lo, grid.hi, vals)


def test_threshold_two_plateaus():
    grid = GridSpec(-5.0, 5.0, 2001)
    dens = plateau_density([((-3.0, -2.0), 0.4), ((2.0, 3.0), 0.6)], grid)
    parts = threshold_partition(dens, 0.1, 2)
    assert len(parts) == 2
    tol = 2 * grid.spacing
    assert parts[0].lo == pytest.approx(-3.0, abs=tol)
    assert parts[0].hi == pytest.approx(-2.0, abs=tol)
    assert parts[1].lo == pytest.approx(2.0, abs=tol)
    assert parts[1].hi == pytest.approx(3.0, abs=tol)


def test_threshold_single_cluster_is_whole_level_set():
    grid = GridSpec(-5.0, 5.0, 2001)
    dens = plateau_density([((-3.0, -2.0), 0.4), ((2.0, 3.0), 0.6)], grid)
    parts = threshold_partition(dens, 0.1, 1)
    assert len(parts) == 1
    assert len(parts[0]) == 2  # both maximal intervals, one cluster


def test_threshold_cuts_largest_gap():
    # Three intervals with gaps 0.1 and 4.0: K=2 must cut the 4.0 gap.
    grid = GridSpec(-1.0, 7.0, 4001)
    dens = plateau_density(
        [((0.0, 1.0), 1.0), ((1.1, 2.0), 1.0), ((6.0, 6.5), 1.0)], grid
    )
    parts = threshold_partition(dens, 0.5, 2)
    assert len(parts[0]) == 2  # left pair merged
    assert len(parts[1]) == 1
    assert parts[1].lo == pytest.approx(6.0, abs=2 * grid.spacing)


def test_threshold_errors():
    grid = GridSpec(-5.0, 5.0, 1001)
    dens = plateau_density([((-3.0, -2.0), 0.4)], grid)
    with pytest.raises(ThresholdTooHighError):
        threshold_partition(dens, 0.5, 1)
    with pytest.raises(UnderResolutionError):
        threshold_partition(dens, 0.1, 2)
    with pytest.raises(ValueError):
        threshold_partition(dens, -0.1, 1)
    with pytest.raises(ValueError):
        threshold_partition(dens, 0.1, 0)


# ---------------------------------------------------------------------------
# voronoi extension
# ---------------------------------------------------------------------------

def test_voronoi_midpoints():
    cells = voronoi_extend([IntervalSet([(-3.0, -2.0)]),
                            IntervalSet([(2.0, 3.0)])])
    assert cells == [(-math.inf, 0.0), (0.0, math.inf)]
    single = voronoi_extend([IntervalSet([(-1.0, 1.0)])])
    assert single == [(-math.inf, math.inf)]
    three = voronoi_extend([IntervalSet([(0.0, 1.0)]),
                            IntervalSet([(5.0, 6.0)]),
                            IntervalSet([(10.0, 11.0)])])
    assert three == [(-math.inf, 3.0), (3.0, 8.0), (8.0, math.inf)]


def test_voronoi_rejects_overlap():
    with pytest.raises(ValueError):
        voronoi_extend([IntervalSet([(0.0, 2.0)]), IntervalSet([(1.0, 3.0)])])
    with pytest.raises(ValueError):
        voronoi_extend([])


# ---------------------------------------------------------------------------
# component extraction
# ---------------------------------------------------------------------------

def test_estimate_components_point_masses():
    g = DiscreteMeasure(np.array([-2.5, 2.5]), np.array([0.4, 0.6]))
    grid = GridSpec(-8.0, 8.0, 4096)
    fit = estimate_components(
        g, [(-math.inf, 0.0), (0.0, math.inf)], 0.3, grid
    )
    assert fit.k == 2
    assert fit.lambdas_hat == pytest.approx((0.4, 0.6))
    assert sum(fit.lambdas_hat) == pytest.approx(1.0, abs=1e-12)
    assert fit.mus_hat == pytest.approx((-2.5, 2.5), abs=1e-9)
    centered = gaussian_blur_values(np.array([0.0]), np.array([1.0]), 0.3,
                                    grid.points())
    for f in fit.f_hats:
        np.testing.assert_allclose(f.values, centered, atol=1e-9)


def test_estimate_components_two_atom_blend():
    g = DiscreteMeasure(np.array([-2.7, -2.3, 2.3, 2.7]),
                        np.array([0.2, 0.2, 0.3, 0.3]))
    grid = GridSpec(-8.0, 8.0, 4096)
    fit = estimate_components(
        g, [(-math.inf, 0.0), (0.0, math.inf)], 0.3, grid
    )
    from demix.measures import density_mean
    for f in fit.f_hats:
        assert abs(density_mean(f)) <= 1e-6
    blend = gaussian_blur_values(np.array([-0.2, 0.2]),
                                 np.array([0.5, 0.5]), 0.3, grid.points())
    np.testing.assert_allclose(fit.f_hats[0].values, blend, atol=1e-9)


def test_estimate_components_sorted_by_weight():
    g = DiscreteMeasure(np.array([-2.5, 2.5]), np.array([0.7, 0.3]))
    grid = GridSpec(-8.0, 8.0, 2048)
    fit = estimate_components(
        g, [(-math.inf, 0.0), (0.0, math.inf)], 0.3, grid
    )
    assert fit.lambdas_hat == pytest.approx((0.3, 0.7))
    assert fit.mus_hat[0] == pytest.approx(2.5, abs=1e-9)  # light one first


def test_estimate_components_degenerate_cell():
    g = DiscreteMeasure(np.array([-2.5, 2.5]), np.array([0.4, 0.6]))
    grid = GridSpec(-8.0, 8.0, 1024)
    with pytest.raises(DegenerateComponentError):
        estimate_components(
            g, [(-math.inf, 5.0), (5.0, math.inf)], 0.3, grid
        )


def test_estimate_components_rejects_bad_cells():
    g = DiscreteMeasure.point(0.0)
    grid = GridSpec(-4.0, 4.0, 512)
    with pytest.raises(ValueError):
        estimate_components(g, [(-math.inf, 0.0), (1.0, math.inf)], 0.3, grid)
    with pytest.raises(ValueError):
        estimate_components(g, [(-5.0, math.inf)], 0.3, grid)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_fit_two_bump_accuracy():
    model = two_bump_model()
    ys = sample_vanilla_mixture(model, 20_000, seed=0)
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    lam_err, f_err = fit_errors(fit, model)
    assert lam_err <= 0.05
    assert f_err <= 0.3
    assert fit.diagnostics["converged"]


def test_fit_deterministic():
    model = two_bump_model()
    ys = sample_vanilla_mixture(model, 5_000, seed=3)
    a = fit_vanilla_mixture(ys, 2, 0.25)
    b = fit_vanilla_mixture(ys, 2, 0.25)
    assert a.lambdas_hat == b.lambdas_hat
    assert a.mus_hat == b.mus_hat
    np.testing.assert_array_equal(a.g_hat.weights, b.g_hat.weights)


def test_fit_single_component():
    g = MixingSpec.uniform(-0.5, 0.5)
    model = VanillaMixtureModel(lambdas=(1.0,), mus=(0.7,), sigma=0.25,
                                gks=(g,))
    ys = sample_vanilla_mixture(model, 10_000, seed=1)
    fit = fit_vanilla_mixture(ys, 1, 0.25)
    assert fit.lambdas_hat == pytest.approx((1.0,), abs=1e-9)
    _, f_err = fit_errors(fit, model)
    assert f_err <= 0.3


def test_fit_requires_enough_samples():
    with pytest.raises(InsufficientDataError):
        fit_vanilla_mixture(np.zeros(15), 2, 0.25)


def test_fit_consistency_trend():
    model = two_bump_model()
    medians = []
    for n in (2_000, 20_000):
        lam_errs, f_errs = [], []
        for seed in range(10):
            ys = sample_vanilla_mixture(model, n, seed=seed)
            fit = fit_vanilla_mixture(ys, 2, 0.25)
            le, fe = fit_errors(fit, model)
            lam_errs.append(le)
            f_errs.append(fe)
        medians.append((float(np.median(lam_errs)),
                        float(np.median(f_errs))))
    assert medians[1][0] < medians[0][0]
    assert medians[1][1] < medians[0][1]


def test_fit_structural_invariants():
    model = two_bump_model()
    ys = sample_vanilla_mixture(model, 8_000, seed=5)
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    assert sum(fit.lambdas_hat) == pytest.approx(1.0, abs=1e-9)
    assert list(fit.lambdas_hat) == sorted(fit.lambdas_hat)
    from demix.measures import density_mean
    for f in fit.f_hats:
        assert f.normalized
        assert abs(density_mean(f)) <= 1e-6
    # Clusters sit inside their Voronoi cells; cells tile the line.
    for e_hat, (lo, hi) in zip(fit.e_hats, fit.cells):
        assert lo <= e_hat.lo and e_hat.hi <= hi
    spans = sorted(fit.cells)
    assert spans[0][0] == -math.inf and spans[-1][1] == math.inf
    for (_, hi_prev), (lo_next, _) in zip(spans, spans[1:]):
        assert hi_prev == lo_next


def test_fit_outlier_inequality():
    # Mass far from the true support is controlled by the transport
    # distance: atoms at distance > eta carry at most W1 / eta.
    model = two_bump_model()
    truth = model.mixing_measure(max_spacing=1e-3)
    ys = sample_vanilla_mixture(model, 20_000, seed=2)
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    w1 = wasserstein1(fit.g_hat, truth)
    for eta in (0.1, 0.25, 0.5):
        assert outlier_mass(fit.g_hat, model.mixing_support(), eta) \
            <= w1 / eta + 1e-9


def test_fit_smoothed_off_support_bound():
    model = two_bump_model()
    truth = model.mixing_measure(max_spacing=1e-3)
    ys = sample_vanilla_mixture(model, 20_000, seed=4)
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    delta = fit.diagnostics["delta"]
    w1 = wasserstein1(fit.g_hat, truth)
    lo, hi = fit.g_hat.support_bounds()
    grid = GridSpec(lo - 2.5 * delta, hi + 2.5 * delta, 2049)
    g_smooth = smooth(fit.g_hat, delta, grid)
    pts = grid.points()
    dist = np.full(pts.shape, np.inf)
    for s_lo, s_hi in model.mixing_support():
        dist = np.minimum(dist, np.maximum(
            np.maximum(s_lo - pts, pts - s_hi), 0.0))
    # Half a cell of margin: grid values are cell averages.
    far = dist > 2.0 * delta + 0.5 * grid.spacing
    assert np.any(far)
    assert float(g_smooth.values[far].max()) \
        <= 0.5 * w1 / delta ** 2 + 1e-9


def test_manual_threshold_fails_without_retry():
    model = two_bump_model()
    ys = sample_vanilla_mixture(model, 5_000, seed=6)
    with pytest.raises(ThresholdTooHighError):
        fit_vanilla_mixture(ys, 2, 0.25,
                            denoise=DenoiseConfig(delta=0.5, t=50.0))
    # A derived threshold retries its way down instead.
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    assert fit.diagnostics["threshold_retries"] <= 5


def test_given_threshold_is_never_relaxed():
    # Given alone, with the width derived, the threshold still stands: the
    # error names 50, not a halved value.
    ys = sample_vanilla_mixture(two_bump_model(), 5_000, seed=6)
    with pytest.raises(ThresholdTooHighError, match=r"\{g > 50\}"):
        fit_vanilla_mixture(ys, 2, 0.25, denoise=DenoiseConfig(t=50.0))


def test_fit_from_density_needs_n_hint_for_default_l():
    grid = GridSpec(-6.0, 6.0, 1024)
    p_hat = gaussian_pair_density([0.3, 0.7], [-2.5, 2.5], 0.25, grid)
    with pytest.raises(ValueError):
        fit_mixture_from_density(p_hat, 2, 0.25)
    fit = fit_mixture_from_density(p_hat, 2, 0.25, n_hint=10_000)
    assert fit.diagnostics["L"] == 100
    with pytest.raises(ValueError):
        fit_mixture_from_density(p_hat, 2, 0.25, cfg=ProjectionConfig(L=1))


def test_outlier_mass_direct():
    g = DiscreteMeasure(np.array([-3.0, 0.0, 3.0]),
                        np.array([0.2, 0.3, 0.5]))
    support = [(-1.0, 1.0)]
    assert outlier_mass(g, support, 1.0) == pytest.approx(0.7)
    assert outlier_mass(g, support, 2.5) == pytest.approx(0.0)
    # Degenerate point support is allowed.
    assert outlier_mass(g, [(0.0, 0.0)], 2.9) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        outlier_mass(g, support, 0.0)
    with pytest.raises(ValueError):
        outlier_mass(g, [(2.0, 1.0)], 0.5)


def test_mixture_fit_json_round_trip():
    model = two_bump_model()
    ys = sample_vanilla_mixture(model, 5_000, seed=7)
    fit = fit_vanilla_mixture(ys, 2, 0.25)
    back = MixtureFit.from_json_obj(json.loads(json.dumps(fit.to_json_obj())))
    assert back.k == fit.k
    assert back.lambdas_hat == pytest.approx(fit.lambdas_hat)
    assert back.mus_hat == pytest.approx(fit.mus_hat)
    assert back.cells == fit.cells
    np.testing.assert_allclose(back.f_hats[0].values, fit.f_hats[0].values)
    np.testing.assert_allclose(back.g_hat.locations, fit.g_hat.locations)
    assert back.e_hats[0].intervals == fit.e_hats[0].intervals
    assert back.diagnostics["L"] == fit.diagnostics["L"]


@st.composite
def clumped_measures(draw):
    """K clumps of atoms, each at most 0.3 wide, 2 to 5 apart.

    Returns K, the normalized measure and the mass of each clump.
    """
    k = draw(st.integers(1, 3))
    start = draw(st.floats(-4.0, 0.0))
    gaps = draw(st.lists(st.floats(2.0, 5.0), min_size=k - 1,
                         max_size=k - 1))
    locs, wts, masses = [], [], []
    for center in start + np.concatenate([[0.0], np.cumsum(gaps)]):
        n = draw(st.integers(1, 4))
        offsets = draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        locs += [center + o for o in offsets]
        wts += w
        masses.append(sum(w))
    total = sum(wts)
    return k, DiscreteMeasure(locs, np.array(wts) / total), \
        np.array(masses) / total


@settings(max_examples=40, deadline=None)
@given(clumped_measures())
def test_partition_pipeline_weights_sum_to_one_and_cells_tile(drawn):
    k, g, clump_masses = drawn
    delta = 0.1
    lo, hi = g.support_bounds()
    n_pts = int(math.ceil((hi - lo + 4 * delta) / (delta / 8))) + 1
    g_smooth = smooth(g, delta, GridSpec(lo - 2 * delta, hi + 2 * delta,
                                         n_pts))
    # Each atom lifts the smoothed density to at least weight / (2 delta),
    # and gaps inside a clump are far narrower than those between clumps.
    t = 0.5 * g.weights.min() / (2 * delta)
    e_hats = threshold_partition(g_smooth, t, k)
    cells = voronoi_extend(e_hats)
    fit = estimate_components(g, cells, 0.2, GridSpec(lo - 3.0, hi + 3.0,
                                                      512), e_hats=e_hats)
    assert abs(sum(fit.lambdas_hat) - 1.0) <= 1e-9
    tiled = sorted(fit.cells)
    assert tiled[0][0] == -math.inf and tiled[-1][1] == math.inf
    assert all(left[1] == right[0] for left, right in zip(tiled, tiled[1:]))
    assert sorted(fit.lambdas_hat) == pytest.approx(sorted(clump_masses),
                                                    abs=1e-12)


@st.composite
def measures_and_cells(draw):
    """A normalized atom measure and a partition of the line into cells
    that each hold at least one atom, cut midway between atoms."""
    n = draw(st.integers(1, 8))
    start = draw(st.floats(-5.0, 0.0))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1,
                         max_size=n - 1))
    locs = start + np.concatenate([[0.0], np.cumsum(gaps)])
    wts = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                 max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(0, n - 2))) if n > 1 else ())
    bounds = [-math.inf, *(0.5 * (locs[i] + locs[i + 1]) for i in cuts),
              math.inf]
    order = draw(st.permutations(range(n)))
    g = DiscreteMeasure(locs[order], wts[order] / wts.sum())
    return g, list(zip(bounds[:-1], bounds[1:]))


@settings(max_examples=60, deadline=None)
@given(measures_and_cells(), st.floats(0.05, 1.0))
def test_component_centres_are_cell_atom_means(drawn, sigma):
    g, cells = drawn
    lo, hi = g.support_bounds()
    reach = hi - lo + 10.0 * sigma
    fit = estimate_components(g, cells, sigma, GridSpec(-reach, reach, 4097))
    for cell, mu, f in zip(fit.cells, fit.mus_hat, fit.f_hats):
        assert mu == g.restrict(*cell).mean()
        assert abs(density_mean(f)) <= 1e-9


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_settings_are_rejected_by_name(value):
    with pytest.raises(ValueError, match="^M "):
        ProjectionConfig(M=value)
    with pytest.raises(ValueError, match="^delta "):
        DenoiseConfig(delta=value)
    with pytest.raises(ValueError, match="^t "):
        DenoiseConfig(0.2, value)
    ys = sample_vanilla_mixture(two_bump_model(), 400, seed=1)
    with pytest.raises(ValueError, match="^sigma "):
        fit_vanilla_mixture(ys, 2, value)
    p_hat = gaussian_pair_density([0.5, 0.5], [-2.0, 2.0], 0.25,
                                  GridSpec(-6.0, 6.0, 512))
    with pytest.raises(ValueError, match="^sigma "):
        fit_mixture_from_density(p_hat, 2, value, n_hint=400)
