"""The trimmed projection LP and the np.sort KDE against their oracles.

Equality is exact against the oracle forms in ``vanilla_oracle``: the
library hands HiGHS the same model and the cumulative sums the same
sorted arrays, so any difference is a defect, not rounding.  The
equality-form LP and the former inequality form are different models of
one problem and agree to a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vanilla_oracle as oracle
from demix.kde import (BandwidthSchedule, ConditionalKde,
                       conditional_density_at, univariate_kde)
from demix.measures import (HIGHS_SMALL_MATRIX_VALUE, GridSpec,
                            gaussian_blur_values, weighted_l1_lp)
from demix.synth import (Dataset, MixingSpec, VanillaMixtureModel,
                         sample_vanilla_mixture)

# Entries on both sides of the HiGHS drop: at the threshold it is dropped,
# one step above it is kept.
EDGE_VALUES = (
    HIGHS_SMALL_MATRIX_VALUE,
    -HIGHS_SMALL_MATRIX_VALUE,
    np.nextafter(HIGHS_SMALL_MATRIX_VALUE, 1.0),
    -np.nextafter(HIGHS_SMALL_MATRIX_VALUE, 1.0),
    np.nextafter(HIGHS_SMALL_MATRIX_VALUE, 0.0),
    1e-12,
    0.0,
    -0.0,
)


def assert_same_lp(got, want):
    w, objective, optimal, iterations = got
    w_want, objective_want, optimal_want, iterations_want = want
    assert w.tobytes() == w_want.tobytes()
    assert objective == objective_want
    assert optimal == optimal_want
    assert iterations == iterations_want


def assert_same_density(got, want):
    assert (got.lo, got.hi, got.normalized) == (want.lo, want.hi,
                                                want.normalized)
    assert got.values.tobytes() == want.values.tobytes()


def gaussian_design(pts, atoms, sigma):
    """The projection's design: one unit Gaussian column per atom."""
    design = np.empty((pts.size, atoms.size))
    for j, a in enumerate(atoms):
        design[:, j] = gaussian_blur_values(
            np.array([a]), np.array([1.0]), sigma, pts)
    return design


def random_lp(seed: int):
    """A Gaussian design with edge entries planted, a target and weights."""
    rng = np.random.default_rng(seed)
    n_grid = int(rng.integers(8, 300))
    n_atoms = int(rng.integers(1, 60))
    pts = np.linspace(-4.0, 4.0, n_grid)
    atoms = np.sort(rng.uniform(-3.0, 3.0, n_atoms))
    design = gaussian_design(pts, atoms, float(rng.uniform(0.05, 0.6)))
    n_edge = int(rng.integers(0, design.size // 4 + 1))
    planted = rng.choice(design.size, size=n_edge, replace=False)
    design.flat[planted] = rng.choice(EDGE_VALUES, size=n_edge)
    mix = rng.dirichlet(np.ones(n_atoms))
    target = np.abs(design @ mix + 0.05 * rng.standard_normal(n_grid))
    quad = np.full(n_grid, pts[1] - pts[0])
    quad[0] *= 0.5
    quad[-1] *= 0.5
    return design, target, quad


# ---------------------------------------------------------------------------
# projection LP
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lp_matches_untrimmed_oracle(seed):
    design, target, quad = random_lp(seed)
    assert_same_lp(weighted_l1_lp(design, target, quad),
                   oracle.weighted_l1_lp(design, target, quad))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_equality_form_matches_inequality_form(seed):
    # The objectives agree to 1e-9 relative on 99% of draws.  The rest are
    # small designs with columns of near-threshold entries, where HiGHS
    # returns equality-form weights whose sum is off by up to 4e-6 (the
    # inequality form's by at most 4e-9); normalizing the weights carries
    # that into the objective, at worst 1.8e-5 relative in 13,000 draws.
    design, target, quad = random_lp(seed)
    _, objective, optimal, _ = oracle.weighted_l1_lp(design, target, quad)
    _, objective_ineq, optimal_ineq, _ = oracle.weighted_l1_lp_inequality(
        design, target, quad)
    assert optimal == optimal_ineq
    assert objective == pytest.approx(objective_ineq, rel=1e-4)


def test_lp_matches_oracle_on_edge_entries_alone():
    # Every column is nothing but entries at or next to the threshold.
    rng = np.random.default_rng(5)
    design = rng.choice(EDGE_VALUES, size=(40, 12))
    design[:, 0] = 1.0
    target = np.abs(rng.standard_normal(40))
    quad = np.full(40, 0.1)
    assert_same_lp(weighted_l1_lp(design, target, quad),
                   oracle.weighted_l1_lp(design, target, quad))


def test_lp_matches_oracle_on_mixture_problem():
    # The vanilla fit's shape: a two-box KDE on 2048 points, 200 atoms.
    model = VanillaMixtureModel(
        lambdas=(0.3, 0.7), mus=(-2.5, 2.5), sigma=0.25,
        gks=(MixingSpec.uniform(-0.5, 0.5), MixingSpec.uniform(-0.5, 0.5)))
    samples = sample_vanilla_mixture(model, 40_000, 17)
    grid = GridSpec(float(samples.min()) - 1.5, float(samples.max()) + 1.5,
                    2048)
    p_hat = univariate_kde(samples, 40_000 ** -0.25, grid)
    m = 1.1 * max(abs(samples.min()), abs(samples.max()))
    design = gaussian_design(p_hat.grid, np.linspace(-m, m, 200), 0.25)
    assert np.mean(np.abs(design) <= HIGHS_SMALL_MATRIX_VALUE) > 0.5
    quad = p_hat.trapezoid_weights()
    got = weighted_l1_lp(design, p_hat.values, quad)
    assert got[2]
    assert_same_lp(got, oracle.weighted_l1_lp(design, p_hat.values, quad))
    w_ineq, objective_ineq, optimal_ineq, _ = \
        oracle.weighted_l1_lp_inequality(design, p_hat.values, quad)
    assert optimal_ineq
    assert np.max(np.abs(got[0] - w_ineq)) <= 1e-9
    assert got[1] == pytest.approx(objective_ineq, rel=1e-9)


# ---------------------------------------------------------------------------
# equal-weight KDE
# ---------------------------------------------------------------------------

# Ties, duplicates and both signed zeros.
TIE_VALUES = (0.0, -0.0, 0.0, -0.0, 1.5, -1.5, 0.25, 2.0 ** -30)

sample_values = st.lists(
    st.one_of(st.sampled_from(TIE_VALUES),
              st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=300)


@settings(max_examples=80, deadline=None)
@given(samples=sample_values, h=st.floats(1e-3, 2.0),
       n_points=st.integers(2, 400), pad=st.floats(-0.9, 3.0))
def test_univariate_kde_matches_argsort_oracle(samples, h, n_points, pad):
    samples = np.array(samples)
    grid = GridSpec(float(samples.min()) - pad - 1.0,
                    float(samples.max()) + pad + 1.0, n_points)
    assert_same_density(univariate_kde(samples, h, grid),
                        oracle.univariate_kde(samples, h, grid))


def test_univariate_kde_matches_oracle_on_signed_zeros():
    samples = np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.5, -0.5])
    for half_width in (0.1, 0.5, 1.0):
        grid = GridSpec(-2.0, 2.0, 201)
        assert_same_density(univariate_kde(samples, half_width, grid),
                            oracle.univariate_kde(samples, half_width, grid))


@settings(max_examples=40, deadline=None)
@given(ys=sample_values, seed=st.integers(0, 2**32 - 1),
       x=st.floats(-0.5, 0.5))
def test_conditional_density_matches_argsort_oracle(ys, seed, x):
    ys = np.array(ys)
    rng = np.random.default_rng(seed)
    # Rounded covariates put ties in x as well as in y.
    xs = np.round(rng.uniform(-1.0, 1.0, ys.size), 1)
    kde = ConditionalKde(Dataset(xs, ys),
                         BandwidthSchedule.fixed(0.4), a=-1.0, b=1.0)
    if kde.window_count(x) == 0:
        return
    grid = GridSpec(-6.0, 6.0, 257)
    assert_same_density(conditional_density_at(kde, x, grid),
                        oracle.conditional_density_at(kde, x, grid))


def test_conditional_density_matches_oracle_on_signed_zeros():
    ys = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -0.0, 0.0])
    kde = ConditionalKde(Dataset(np.zeros(ys.size), ys),
                         BandwidthSchedule.fixed(0.5), a=-1.0, b=1.0)
    grid = GridSpec(-2.0, 2.0, 401)
    assert_same_density(conditional_density_at(kde, 0.0, grid),
                        oracle.conditional_density_at(kde, 0.0, grid))
