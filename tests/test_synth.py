"""Tests for ground-truth models, samplers, and density oracles."""

import contextlib
import io
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demix.cli as cli
from demix.kde import BandwidthSchedule
from demix.measures import GridDensity, GridSpec, wasserstein1
from demix.mixfit import (ProjectionConfig, fit_mixture_from_density,
                          fit_vanilla_mixture, threshold_partition)
from demix.regfit import MdeConfig, find_separation_point, fit_mixed_regression
from demix.spec import ExperimentSpec
from demix.synth import (
    CovariateSpec,
    Dataset,
    MixedRegressionModel,
    MixingSpec,
    RegressionCurve,
    SeparationWarning,
    VanillaMixtureModel,
    sample_mixed_regression,
    sample_vanilla_mixture,
)
from truth_oracle import conditional_mixing_measure, true_conditional_density


def crossing_lines_model(**overrides):
    """m1 = x, m2 = -x on [-2, 2] with a point-mass mixing distribution."""
    kwargs = dict(
        a=-2.0, b=2.0,
        lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2,
        g0=MixingSpec.point_mass(),
        x0=1.0,
    )
    kwargs.update(overrides)
    return MixedRegressionModel(**kwargs)


def two_bump_mixture(sigma=0.25):
    """0.3 U[-3,-2] + 0.7 U[2,3] blurred by a Gaussian."""
    g = MixingSpec.uniform(-0.5, 0.5)
    return VanillaMixtureModel(
        lambdas=(0.3, 0.7), mus=(-2.5, 2.5), sigma=sigma, gks=(g, g),
    )


# ---------------------------------------------------------------------------
# regression curves
# ---------------------------------------------------------------------------

def test_curve_evaluation():
    poly = RegressionCurve.polynomial([1.0, 0.0, 2.0])
    assert poly(3.0) == pytest.approx(1.0 + 2.0 * 9.0)
    line = RegressionCurve.line(slope=-1.0, intercept=0.5)
    np.testing.assert_allclose(line(np.array([0.0, 2.0])), [0.5, -1.5])
    sin = RegressionCurve.sinusoid(amplitude=2.0, frequency=math.pi, offset=1.0)
    assert sin(0.5) == pytest.approx(3.0)
    pw = RegressionCurve.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert pw(0.5) == pytest.approx(0.5)
    assert pw(5.0) == pytest.approx(0.0)  # clamped beyond last knot


def test_curve_validation():
    with pytest.raises(ValueError):
        RegressionCurve.polynomial([])
    with pytest.raises(ValueError):
        RegressionCurve.piecewise_linear([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        RegressionCurve.piecewise_linear([0.0, 1.0], [1.0])


def test_curve_json_round_trip():
    for curve in (
        RegressionCurve.polynomial([0.5, -1.0, 3.0]),
        RegressionCurve.sinusoid(1.5, 2.0, 0.3, -0.2),
        RegressionCurve.piecewise_linear([-1.0, 0.0, 2.0], [1.0, 0.0, 4.0]),
    ):
        back = RegressionCurve.from_json_obj(curve.to_json_obj())
        xs = np.linspace(-3, 3, 17)
        np.testing.assert_array_equal(back(xs), curve(xs))


# ---------------------------------------------------------------------------
# mixing specs
# ---------------------------------------------------------------------------

def test_point_mass_basics():
    g = MixingSpec.point_mass()
    assert g.support() == (0.0, 0.0)
    assert g.diameter() == 0.0
    assert g.mean() == 0.0
    rng = np.random.Generator(np.random.Philox(7))
    assert np.all(g.sample(rng, 100) == 0.0)


def test_uniform_mixture_centering():
    # Asymmetric intervals must be shifted so the realized mean is zero.
    g = MixingSpec.uniform_mixture([((-3.0, -2.0), 0.3), ((2.0, 3.0), 0.7)])
    assert abs(g.mean()) <= 1e-12
    lo, hi = g.support()
    # Raw mean is 0.3*(-2.5) + 0.7*(2.5) = 1.0, so everything shifts by -1.
    assert lo == pytest.approx(-4.0)
    assert hi == pytest.approx(2.0)
    assert g.diameter() == pytest.approx(6.0)


def test_uniform_mixture_validation():
    with pytest.raises(ValueError):
        MixingSpec.uniform_mixture([])
    with pytest.raises(ValueError):
        MixingSpec.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        MixingSpec.uniform_mixture([((0.0, 1.0), -0.5), ((2.0, 3.0), 1.5)])


def test_truncated_smooth_mean_zero_and_symmetry():
    g = MixingSpec.truncated_smooth(q_mean=0.7, q_sigma=1.3, scale=0.5)
    assert abs(g.mean()) <= 1e-12
    assert g.diameter() <= 2.0 + 1e-9  # support within [-2s, 2s] width 4s
    # With q centered the density is even, so sampling is symmetric in law.
    sym = MixingSpec.truncated_smooth(q_mean=0.0, q_sigma=1.0, scale=1.0)
    vals = sym.density_values(0.3, np.linspace(-2.5, 2.5, 41))
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-10)


def test_truncated_smooth_sample_draws_its_centred_atoms():
    scale = 0.5
    g = MixingSpec.truncated_smooth(q_mean=0.7, q_sigma=1.3, scale=scale)
    draws = g.sample(np.random.default_rng(11), 20000)
    np.testing.assert_array_equal(
        draws, g.sample(np.random.default_rng(11), 20000))
    lo, hi = g.support()
    assert hi - lo <= 4.0 * scale
    assert lo <= draws.min() and draws.max() <= hi
    # The atoms are centred, so the draws' standard error (< 2 scale /
    # sqrt(n) = 0.007) bounds their mean.
    assert abs(draws.mean()) <= 0.02


def test_mixing_density_integrates_to_one():
    grid = GridSpec(-8.0, 8.0, 4097)
    for g in (
        MixingSpec.point_mass(),
        MixingSpec.uniform(-1.0, 1.0),
        MixingSpec.uniform_mixture([((-3.0, -2.0), 0.3), ((2.0, 3.0), 0.7)]),
        MixingSpec.truncated_smooth(q_mean=0.4, q_sigma=0.9, scale=0.8),
    ):
        dens = g.error_density(0.5, grid)
        assert dens.normalized
        assert dens.integral() == pytest.approx(1.0, abs=1e-4)


def test_uniform_density_matches_atom_approximation():
    g = MixingSpec.uniform(-1.0, 1.0)
    z = np.linspace(-3, 3, 101)
    exact = g.density_values(0.4, z)
    atoms = g.as_discrete(max_spacing=1e-4)
    from demix.measures import gaussian_blur_values
    approx = gaussian_blur_values(atoms.locations, atoms.weights, 0.4, z)
    np.testing.assert_allclose(approx, exact, atol=1e-6)


def test_as_discrete_mean_zero():
    g = MixingSpec.uniform_mixture([((-3.0, -2.0), 0.3), ((2.0, 3.0), 0.7)])
    atoms = g.as_discrete(max_spacing=1e-3)
    assert abs(atoms.mean()) <= 1e-12


def test_mixing_json_round_trip():
    for g in (
        MixingSpec.point_mass(),
        MixingSpec.uniform_mixture([((-3.0, -2.0), 0.3), ((2.0, 3.0), 0.7)]),
        MixingSpec.truncated_smooth(q_mean=0.2, q_sigma=1.1, scale=0.6),
    ):
        back = MixingSpec.from_json_obj(g.to_json_obj())
        assert back.kind == g.kind
        assert back.support() == pytest.approx(g.support())
        z = np.linspace(-4, 4, 33)
        np.testing.assert_array_equal(
            back.density_values(0.5, z), g.density_values(0.5, z)
        )


# ---------------------------------------------------------------------------
# mixed regression model
# ---------------------------------------------------------------------------

def test_model_rejects_insufficient_separation():
    # Mixing diameter 1.0 needs a curve gap above 2.0 at x0; lines +-x at
    # x0 = 0.9 give a gap of 1.8.
    with pytest.raises(ValueError):
        crossing_lines_model(g0=MixingSpec.uniform(-0.5, 0.5), x0=0.9)
    # Same geometry at x0 = 1.1 separates strictly and must build.
    crossing_lines_model(g0=MixingSpec.uniform(-0.5, 0.5), x0=1.1)


def test_model_rejects_bad_weights_and_domain():
    with pytest.raises(ValueError):
        crossing_lines_model(lambdas=(0.35, 0.35))
    with pytest.raises(ValueError):
        crossing_lines_model(lambdas=(-0.2, 1.2))
    with pytest.raises(ValueError):
        crossing_lines_model(x0=5.0)
    with pytest.raises(ValueError):
        crossing_lines_model(a=2.0, b=-2.0)


def test_models_reject_nan_weights():
    # NaN fails every comparison, so "weight <= 0" and "|sum - 1| > tol"
    # checks would let these through to numpy's sampler.
    for lambdas in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="weights"):
            crossing_lines_model(lambdas=lambdas)
        with pytest.raises(ValueError, match="weights"):
            VanillaMixtureModel(lambdas=lambdas, mus=(-2.5, 2.5),
                                sigma=0.25,
                                gks=(MixingSpec.point_mass(),) * 2)


def test_model_json_round_trip():
    model = crossing_lines_model(g0=MixingSpec.uniform(-0.1, 0.1))
    back = MixedRegressionModel.from_json_obj(model.to_json_obj())
    assert back.lambdas == model.lambdas
    assert back.x0 == model.x0
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_array_equal(back.curve_values(xs),
                                  model.curve_values(xs))


def test_conditional_mixing_measure():
    model = crossing_lines_model()
    mix = conditional_mixing_measure(model, 1.0)
    # Point-mass errors: atoms exactly at the curve values, curve weights.
    target = {(-1.0, 0.65), (1.0, 0.35)}
    got = {(float(l), float(w)) for l, w in zip(mix.locations, mix.weights)}
    assert got == {(round(l, 12), round(w, 12)) for l, w in target}


def test_sampler_determinism_and_law():
    model = crossing_lines_model()
    n = 100_000
    data = sample_mixed_regression(model, n, seed=11)
    again = sample_mixed_regression(model, n, seed=11)
    np.testing.assert_array_equal(data.x, again.x)
    np.testing.assert_array_equal(data.y, again.y)
    other = sample_mixed_regression(model, n, seed=12)
    assert not np.array_equal(data.y, other.y)
    # X uniform on [-2, 2]: sample mean near 0.
    assert abs(float(data.x.mean())) <= 0.02
    # Symmetric lines and uniform X make E[Y] = 0 regardless of weights?
    # No: E[Y | comp, x] = +-x and E[x] = 0, so E[Y] = 0 holds here.
    assert abs(float(data.y.mean())) <= 0.02


def test_sampler_component_fractions():
    # At x = x0 = 1 the curves sit at +-1; for points near x0, component 2
    # (weight 0.65, curve -x) produces negative responses.
    model = crossing_lines_model()
    data = sample_mixed_regression(model, 200_000, seed=3)
    near = np.abs(data.x - 1.0) <= 0.05
    frac_neg = float(np.mean(data.y[near] < 0.0))
    assert frac_neg == pytest.approx(0.65, abs=0.02)


def test_beta_covariate_sampling():
    spec = CovariateSpec.beta(alpha=2.0, beta=5.0)
    rng = np.random.Generator(np.random.Philox(5))
    draws = spec.sample(rng, 200_000, 0.0, 10.0)
    assert draws.min() >= 0.0 and draws.max() <= 10.0
    assert float(draws.mean()) == pytest.approx(10.0 * 2.0 / 7.0, abs=0.05)
    with pytest.raises(ValueError):
        CovariateSpec.beta(alpha=-1.0, beta=1.0)


def test_beta_covariate_rejects_non_finite_shapes_by_name():
    with pytest.raises(ValueError, match="^alpha must be positive and finite"):
        CovariateSpec.beta(math.nan, 3)
    with pytest.raises(ValueError, match="^beta must be positive and finite"):
        CovariateSpec.beta(2, math.inf)


def test_true_conditional_density_properties():
    model = crossing_lines_model(g0=MixingSpec.uniform(-0.25, 0.25), x0=1.5)
    grid = GridSpec(-6.0, 6.0, 2049)
    dens = true_conditional_density(model, 1.5, grid)
    assert dens.normalized
    assert dens.integral() == pytest.approx(1.0, abs=1e-4)
    # Mean of p(.|x) is sum_k lambda_k m_k(x); mixing part is mean zero.
    from demix.measures import density_mean
    want = 0.35 * 1.5 + 0.65 * (-1.5)
    assert density_mean(dens) == pytest.approx(want, abs=1e-6)
    with pytest.raises(ValueError):
        true_conditional_density(model, 2.5, grid)


def test_conditional_density_matches_empirical_histogram():
    model = crossing_lines_model()
    x_probe = 0.8
    grid = GridSpec(-4.0, 4.0, 513)
    dens = true_conditional_density(model, x_probe, grid)
    # Empirical conditional CDF from a thin window around x_probe.
    data = sample_mixed_regression(model, 400_000, seed=21)
    near = np.abs(data.x - x_probe) <= 0.01
    ys = np.sort(data.y[near])
    assert ys.size >= 1500
    pts = grid.points()
    cdf_true = np.cumsum(dens.trapezoid_weights() * dens.values)
    cdf_emp = np.searchsorted(ys, pts, side="right") / ys.size
    # Window width 0.02 perturbs the law only slightly; KS-style bound.
    assert float(np.max(np.abs(cdf_true - cdf_emp))) <= 6.0 / math.sqrt(ys.size) + 0.02


# ---------------------------------------------------------------------------
# vanilla mixture model
# ---------------------------------------------------------------------------

def test_vanilla_mixture_density_and_moments():
    model = two_bump_mixture()
    grid = GridSpec(-8.0, 8.0, 4097)
    dens = model.density(grid)
    assert dens.normalized
    from demix.measures import density_mean
    # Mean = 0.3*(-2.5) + 0.7*(2.5) = 1.0.
    assert density_mean(dens) == pytest.approx(1.0, abs=1e-6)
    # Variance = mixing variance + within-component variance.
    pts = grid.points()
    w = dens.trapezoid_weights()
    mean = density_mean(dens)
    var = float(np.sum(w * dens.values * (pts - mean) ** 2))
    # Between: 0.3*0.7*5^2 = 5.25; uniform width 1 var 1/12; sigma^2.
    want = 5.25 + 1.0 / 12.0 + 0.25 ** 2
    assert var == pytest.approx(want, rel=0.01)


def test_vanilla_separation_warning_not_error():
    g_wide = MixingSpec.uniform(-1.0, 1.0)
    with pytest.warns(SeparationWarning):
        model = VanillaMixtureModel(
            lambdas=(0.5, 0.5), mus=(-1.2, 1.2), sigma=0.1,
            gks=(g_wide, g_wide),
        )
    # Construction still succeeds and sampling works.
    ys = sample_vanilla_mixture(model, 1000, seed=2)
    assert ys.shape == (1000,)

    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        two_bump_mixture()  # gap 4 > diameter 1: no warning


def test_vanilla_sampler_law():
    model = two_bump_mixture()
    ys = sample_vanilla_mixture(model, 200_000, seed=9)
    again = sample_vanilla_mixture(model, 200_000, seed=9)
    np.testing.assert_array_equal(ys, again)
    assert float(ys.mean()) == pytest.approx(1.0, abs=0.05)
    frac_low = float(np.mean(ys < 0.0))
    assert frac_low == pytest.approx(0.3, abs=0.01)


def test_vanilla_sampler_ks_against_density():
    model = two_bump_mixture()
    n = 50_000
    ys = np.sort(sample_vanilla_mixture(model, n, seed=17))
    grid = GridSpec(-8.0, 8.0, 4097)
    dens = model.density(grid)
    pts = grid.points()
    cdf_true = np.cumsum(dens.trapezoid_weights() * dens.values)
    cdf_emp = np.searchsorted(ys, pts, side="right") / n
    ks = float(np.max(np.abs(cdf_true - cdf_emp)))
    assert ks <= 6.0 / math.sqrt(n)


def test_vanilla_mixing_measure_w1():
    model = two_bump_mixture()
    approx = model.mixing_measure(max_spacing=1e-3)
    finer = model.mixing_measure(max_spacing=1e-4)
    # Refining the atom grid moves the measure by at most the cell radius.
    assert wasserstein1(approx, finer) <= 1e-3


def test_vanilla_json_round_trip():
    model = two_bump_mixture()
    back = VanillaMixtureModel.from_json_obj(model.to_json_obj())
    assert back.lambdas == model.lambdas
    assert back.mus == model.mus
    grid = GridSpec(-6.0, 6.0, 257)
    np.testing.assert_array_equal(back.density(grid).values,
                                  model.density(grid).values)


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

def test_dataset_csv_round_trip(tmp_path):
    model = crossing_lines_model()
    data = sample_mixed_regression(model, 500, seed=4)
    path = cli._dataset_path(str(tmp_path), 500, 4)
    cli._atomic_write_rows(path, ["x", "y"],
                           np.column_stack([data.x, data.y]))
    with open(path) as fh:
        assert fh.readline() == "x,y\n"
    back = cli._load_dataset(str(tmp_path), 500, 4, "regression")
    np.testing.assert_array_equal(back.x.view(np.int64),
                                  data.x.view(np.int64))
    np.testing.assert_array_equal(back.y.view(np.int64),
                                  data.y.view(np.int64))


def test_samples_csv_round_trip(tmp_path):
    ys = sample_vanilla_mixture(two_bump_mixture(), 300, seed=8)
    # values whose repr must read back bit for bit
    ys = np.concatenate([ys, [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                              0.1, 1 / 3]])
    path = cli._dataset_path(str(tmp_path), 300, 8)
    cli._atomic_write_rows(path, ["y"], ys[:, None])
    with open(path) as fh:
        assert fh.readline() == "y\n"
    back = cli._load_dataset(str(tmp_path), 300, 8, "mixture")
    np.testing.assert_array_equal(back.view(np.int64), ys.view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_non_finite_values(bad):
    good = np.array([0.0, 0.5, 1.0])
    spoiled = np.array([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="^x holds a non-finite value"):
        Dataset(spoiled, good)
    with pytest.raises(ValueError, match="^y holds a non-finite value"):
        Dataset(good, spoiled)


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([1.0]))


@pytest.mark.parametrize("n, seed, named", [
    (10, 1.5, "seed"), (10, True, "seed"), (10, -1, "seed"),
    (10, "1", "seed"), (2.5, 0, "n"), (True, 0, "n")],
    ids=["seed_fraction", "seed_bool", "seed_negative", "seed_text",
         "n_fraction", "n_bool"])
def test_samplers_check_n_and_seed(n, seed, named):
    for sample, model in ((sample_mixed_regression, crossing_lines_model()),
                          (sample_vanilla_mixture, two_bump_mixture())):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            sample(model, n, seed)


# ---------------------------------------------------------------------------
# argument checks over generated inputs
# ---------------------------------------------------------------------------

# What a number argument must refuse: NaN, the infinities, bools and text.
NOT_FINITE_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.text(max_size=8))


def _vanilla(mus):
    g = MixingSpec.point_mass()
    return VanillaMixtureModel(lambdas=(0.5, 0.5), mus=mus, sigma=0.25,
                               gks=(g, g))


def _experiment(**fields):
    return ExperimentSpec(model=crossing_lines_model(), n_values=(100,),
                          seeds=(0,), **fields)


# (the name a message starts with, a call passing the value to check)
NUMBER_ARGUMENTS = [
    ("coeffs", lambda v: RegressionCurve.polynomial([0.5, v])),
    ("amplitude", lambda v: RegressionCurve.sinusoid(v, 1.0)),
    ("frequency", lambda v: RegressionCurve.sinusoid(1.0, v)),
    ("phase", lambda v: RegressionCurve.sinusoid(1.0, 1.0, phase=v)),
    ("offset", lambda v: RegressionCurve.sinusoid(1.0, 1.0, offset=v)),
    ("xs", lambda v: RegressionCurve.piecewise_linear([0.0, v], [0.0, 1.0])),
    ("ys", lambda v: RegressionCurve.piecewise_linear([0.0, 1.0], [v, 1.0])),
    ("components", lambda v: MixingSpec.uniform_mixture([((v, 1.0), 1.0)])),
    ("components", lambda v: MixingSpec.uniform_mixture([((0.0, v), 1.0)])),
    ("components", lambda v: MixingSpec.uniform_mixture([((0.0, 1.0), v)])),
    ("q_mean", lambda v: MixingSpec.truncated_smooth(v, 1.0, 1.0)),
    ("q_sigma", lambda v: MixingSpec.truncated_smooth(0.0, v, 1.0)),
    ("scale", lambda v: MixingSpec.truncated_smooth(0.0, 1.0, v)),
    ("resolution", lambda v: MixingSpec.truncated_smooth(0.0, 1.0, 1.0, v)),
    ("mus", lambda v: _vanilla((v, 2.5))),
    ("mus", lambda v: _vanilla((-2.5, v))),
    ("a", lambda v: crossing_lines_model(a=v)),
    ("b", lambda v: crossing_lines_model(b=v)),
    ("x0", lambda v: crossing_lines_model(x0=v)),
    ("window", lambda v: _experiment(window=v)),
]


@settings(max_examples=300, deadline=None)
@given(argument=st.sampled_from(NUMBER_ARGUMENTS), value=NOT_FINITE_NUMBERS)
def test_constructors_name_the_number_they_reject(argument, value):
    name, build = argument
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value).startswith(name), exc.value


def _cli(*argv):
    """Run ``demix`` on ``argv``; an exit 2 raises the ``ValueError`` its
    ``error:`` line reports."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code == 2 and err.getvalue().startswith("error: "):
        raise ValueError(err.getvalue()[len("error: "):].strip())


def _demo(n):
    with tempfile.TemporaryDirectory() as out:
        _cli("demo-nonident", "equal_weights_regression", "--out", out,
             "--n", str(n))


DENSITY = GridDensity(-1.0, 1.0, [0.0, 1.0, 0.0])
PAIRS = sample_mixed_regression(crossing_lines_model(), 200, 0)
RESPONSES = sample_vanilla_mixture(two_bump_mixture(), 200, 0)

# (the count's name, its least value, a call passing the value to check)
COUNT_ARGUMENTS = [
    ("k", 1, lambda v: threshold_partition(DENSITY, 0.1, v)),
    ("k", 1, lambda v: fit_mixture_from_density(DENSITY, v, 0.25)),
    ("k", 1, lambda v: fit_vanilla_mixture(RESPONSES, v, 0.25)),
    ("k", 1, lambda v: find_separation_point(PAIRS, v, 0.1)),
    ("k", 1, lambda v: fit_mixed_regression(PAIRS, v, 0.2)),
    ("n_x_grid", 1, lambda v: fit_mixed_regression(PAIRS, 2, 0.2,
                                                   n_x_grid=v)),
    ("max_iters", 1, lambda v: ProjectionConfig(max_iters=v)),
    ("coarse_grid", 3, lambda v: MdeConfig(coarse_grid=v)),
    ("refine_levels", 0, lambda v: MdeConfig(refine_levels=v)),
    ("seed", 0, lambda v: sample_mixed_regression(crossing_lines_model(),
                                                  10, v)),
    ("seed", 0, lambda v: sample_vanilla_mixture(two_bump_mixture(), 10, v)),
    ("n", 1, lambda v: sample_mixed_regression(crossing_lines_model(), v, 0)),
    ("n", 1, lambda v: sample_vanilla_mixture(two_bump_mixture(), v, 0)),
    ("n", 1, lambda v: BandwidthSchedule.power_law().bandwidth(v)),
    ("resolution", 3, lambda v: MixingSpec.truncated_smooth(0.0, 1.0, 1.0,
                                                            v)),
    ("n_points", 2, lambda v: GridSpec(0.0, 1.0, v)),
    ("n_x_grid", 1, lambda v: _experiment(n_x_grid=v)),
    ("--threads", 1, lambda v: _cli("simulate", "--threads", str(v))),
    ("--n", 1, _demo),
]


@settings(max_examples=300, deadline=None)
@given(argument=st.sampled_from(COUNT_ARGUMENTS), data=st.data())
def test_counts_below_their_least_value_are_named(argument, data):
    name, least, build = argument
    value = data.draw(st.integers(least - 10**6, least - 1))
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value) == f"{name} must be at least {least}, got {value}"
