"""The trimmed projection LP and the np.sort KDE against their oracles.

Equality is exact against the oracle forms in ``vanilla_oracle``: the
library hands HiGHS the same model and the cumulative sums the same
sorted arrays, so any difference is a defect, not rounding.  That holds
for LPs the library solves in one HiGHS run, every atom in one round.
One that takes more runs, adding atoms by row generation, is a different
path to the same LP, and it is checked for optimality over all atoms and
against the oracle's objective.  The dual form the library solves and
the primal equality and inequality forms it solved before are different
models of one problem and agree to a tolerance.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import HighsBasisStatus

import demix.measures
import demix.mixfit
import vanilla_oracle as oracle
from demix.errors import ProjectionError, ProjectionWarning
from demix.kde import (BandwidthSchedule, ConditionalKde,
                       conditional_density_at, univariate_kde)
from demix.measures import (HIGHS_SMALL_MATRIX_VALUE, LP_FEASIBILITY_TOL,
                            LP_FIRST_ROUND_ATOMS, GridDensity, GridSpec,
                            gaussian_blur_values, gaussian_columns,
                            weighted_l1_lp)
from demix.mixfit import ProjectionConfig, project_to_gaussian_mixture
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


def assert_equivalent_lp(got, want):
    """Two optimal solutions of one LP, as the inequality-form check
    compares them."""
    assert got[2] and want[2]
    assert np.max(np.abs(got[0] - want[0])) <= 1e-9
    assert got[1] == pytest.approx(want[1], rel=1e-9)


@contextmanager
def highs_runs(solution=None):
    """Log every HiGHS run of ``weighted_l1_lp`` as (model status,
    iterations, solution, basis); ``solution`` edits what the library
    reads."""
    runs = []

    class LoggedHighs(demix.measures._Highs):
        def run(self):
            status = super().run()
            runs.append((self.getModelStatus(),
                         self.getInfo().simplex_iteration_count,
                         super().getSolution(), self.getBasis()))
            return status

        def getSolution(self):
            read = super().getSolution()
            return read if solution is None else solution(read)

    with mock.patch.object(demix.measures, "_Highs", LoggedHighs):
        yield runs


def row_violations(design, col_value):
    """How far the dual LP's solution (y, z) violates the row
    ``design[:, a] @ y + z <= 0`` of every atom a, over the design entries
    HiGHS keeps."""
    kept = np.where(np.abs(design) > HIGHS_SMALL_MATRIX_VALUE, design, 0.0)
    col_value = np.asarray(col_value)
    return kept.T @ col_value[:-1] + col_value[-1]


def nondegenerate(run, quad):
    """Whether a HiGHS run left every basic variable of the dual LP off
    its bounds: each basic y_i strictly inside [-quad_i, quad_i] and each
    basic row slack.  The atom weights, its row duals, are then the one
    optimum."""
    _, _, solution, basis = run
    basic = HighsBasisStatus.kBasic
    y = np.asarray(solution.col_value)[:-1]
    y_basic = np.array([status == basic for status in basis.col_status[:-1]])
    row_basic = np.array([status == basic for status in basis.row_status])
    return bool(np.all(np.abs(y[y_basic]) < (1.0 - 1e-6) * quad[y_basic])
                and np.all(np.asarray(solution.row_value)[row_basic] < -1e-6))


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


def wide_lp(seed: int):
    """A Gaussian design with more atoms than the LP's first round takes,
    a target near a sparse mixture of them, and trapezoid weights."""
    rng = np.random.default_rng(seed)
    n_grid = int(rng.integers(64, 400))
    n_atoms = int(rng.integers(LP_FIRST_ROUND_ATOMS + 1, 400))
    pts = np.linspace(-4.0, 4.0, n_grid)
    atoms = np.sort(rng.uniform(-3.0, 3.0, n_atoms))
    design = gaussian_design(pts, atoms, float(rng.uniform(0.05, 0.6)))
    mix = rng.dirichlet(np.full(n_atoms, 0.1))
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
    got = weighted_l1_lp(design, target, quad)
    assert got.rounds == 1 and got.atoms == design.shape[1]
    assert_same_lp(got, oracle.weighted_l1_lp(design, target, quad))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_dual_form_matches_primal_forms(seed, wide):
    # Over 600 random_lp and 200 wide_lp draws the objectives agree with
    # the inequality form's to 1.3e-9 relative at worst.  Where the
    # optimum is unique, the weights agree with those of the closer
    # primal form to 5e-11; each primal form alone misses them by up to
    # 1.4e-8 on some draws.  Elsewhere the weights may differ by up to
    # 0.83 at the same objective.  The equality form misses its simplex
    # row on a few draws, which only raises its objective: by 1.6e-8 on
    # one draw in 400.
    design, target, quad = (wide_lp if wide else random_lp)(seed)
    with highs_runs() as runs:
        got = weighted_l1_lp(design, target, quad)
    w_eq, objective_eq, optimal_eq, _ = oracle.weighted_l1_lp_equality(
        design, target, quad, maxiter=100_000)
    w_ineq, objective_ineq, optimal_ineq, _ = \
        oracle.weighted_l1_lp_inequality(design, target, quad,
                                         maxiter=100_000)
    assert got[2] and optimal_eq and optimal_ineq
    assert got[1] == pytest.approx(objective_ineq, rel=1e-9, abs=1e-8)
    assert got[1] <= objective_eq + max(1e-9 * objective_eq, 1e-8)
    if nondegenerate(runs[-1], quad):
        assert min(np.max(np.abs(got[0] - w_eq)),
                   np.max(np.abs(got[0] - w_ineq))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_equality_form_matches_inequality_form(seed):
    # The objectives agree to 1e-9 relative on 99% of draws.  The rest are
    # small designs with columns of near-threshold entries, where HiGHS
    # returns equality-form weights whose sum is off by up to 4e-6 (the
    # inequality form's by at most 4e-9); normalizing the weights carries
    # that into the objective, at worst 1.8e-5 relative in 13,000 draws.
    design, target, quad = random_lp(seed)
    _, objective, optimal, _ = oracle.weighted_l1_lp_equality(
        design, target, quad)
    _, objective_ineq, optimal_ineq, _ = oracle.weighted_l1_lp_inequality(
        design, target, quad)
    assert optimal == optimal_ineq
    assert objective == pytest.approx(objective_ineq, rel=1e-4)


def test_lp_matches_oracle_on_edge_entries_alone():
    # Every column is nothing but entries at or next to the threshold.
    # The equality form's weights sum to 1 + 1.3e-6 here under HiGHS's
    # scaling; the dual form's sum is its free column's reduced cost, and
    # one run solves it.
    rng = np.random.default_rng(5)
    design = rng.choice(EDGE_VALUES, size=(40, 12))
    design[:, 0] = 1.0
    target = np.abs(rng.standard_normal(40))
    quad = np.full(40, 0.1)
    got = weighted_l1_lp(design, target, quad)
    assert got.rounds == 1
    assert_same_lp(got, oracle.weighted_l1_lp(design, target, quad))
    w_eq, objective_eq, optimal_eq, _ = oracle.weighted_l1_lp_equality(
        design, target, quad)
    assert got[2] and optimal_eq
    assert np.max(np.abs(got[0] - w_eq)) <= 1.5e-6
    assert got[1] <= objective_eq
    _, objective_ineq, _, _ = oracle.weighted_l1_lp_inequality(
        design, target, quad)
    assert got[1] == pytest.approx(objective_ineq, rel=1e-9)


def test_simplex_row_miss_warns():
    # No draw misses the simplex row: over 22,000 random_lp draws the
    # dual form's weights sum to 1 within 6.5e-10.  Here every read of the
    # row duals comes back 1e-5 heavy.
    design, target, quad = random_lp(2447411248)

    def heavy(solution):
        solution.row_dual = np.asarray(solution.row_dual) * (1 + 1e-5)
        return solution

    with highs_runs(heavy) as runs, \
            pytest.warns(ProjectionWarning, match="off the simplex row by"):
        w, _, optimal, _ = weighted_l1_lp(design, target, quad)
    assert len(runs) == 1
    assert optimal
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
# The primal equality form's dual simplex stops without a solution on this
# draw.
@example(seed=41223)
def test_row_generation_is_optimal_over_all_atoms(seed):
    design, target, quad = wide_lp(seed)
    with highs_runs() as runs:
        got = weighted_l1_lp(design, target, quad)
    assert got[2]
    assert got.rounds == len(runs) >= 2
    assert got.atoms == len(runs[-1][2].row_dual) < design.shape[1]
    assert got[3] == sum(run[1] for run in runs)
    # No atom's row is violated under the final (y, z).  The rows of the
    # atoms with weight are tight, so their violation is zero but for
    # rounding (up to 2e-9 in 300 draws); every atom is allowed that much.
    violation = row_violations(design, runs[-1][2].col_value)
    rounding = np.abs(violation[got[0] > 0]).max()
    assert rounding <= 1e-6
    assert violation.max() <= LP_FEASIBILITY_TOL + rounding
    # The one-shot solve may need more than the default 5000 iterations.
    # Each solve is optimal only to the feasibility tolerance, so the
    # objectives may differ by a fraction of it: 9.5e-11 relative at most
    # in 300 draws.
    _, objective, optimal, _ = oracle.weighted_l1_lp(
        design, target, quad, maxiter=100_000)
    assert optimal
    assert got[1] == pytest.approx(objective, rel=1e-9,
                                   abs=LP_FEASIBILITY_TOL)


def test_iteration_cap_bounds_the_total_over_rounds():
    design, target, quad = wide_lp(3)
    with highs_runs() as runs:
        got = weighted_l1_lp(design, target, quad)
    first = runs[0][1]
    assert got.rounds >= 2 and got[3] > first + 1
    # The first round finishes under the cap; the rounds after it do not.
    with highs_runs() as runs, pytest.raises(ProjectionError,
                                             match="no solution"):
        weighted_l1_lp(design, target, quad, maxiter=first + 1)
    assert runs[0][:2] == (demix.measures.HighsModelStatus.kOptimal, first)
    assert sum(run[1] for run in runs) == first + 1


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
    assert got.rounds > 1
    assert_equivalent_lp(got,
                         oracle.weighted_l1_lp(design, p_hat.values, quad))
    assert_equivalent_lp(got, oracle.weighted_l1_lp_equality(
        design, p_hat.values, quad))
    w_ineq, objective_ineq, optimal_ineq, _ = \
        oracle.weighted_l1_lp_inequality(design, p_hat.values, quad)
    assert optimal_ineq
    assert np.max(np.abs(got[0] - w_ineq)) <= 1e-9
    assert got[1] == pytest.approx(objective_ineq, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(n_grid=st.integers(2, 300), half_span=st.floats(0.5, 20.0),
       n_atoms=st.integers(1, 80), m_ratio=st.floats(0.05, 2.0),
       sigma=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
def test_projection_design_matches_per_atom_loop(n_grid, half_span, n_atoms,
                                                 m_ratio, sigma, seed):
    """The broadcast design is the per-atom loop's bit for bit, so the
    projection solves the very LP the loop-built design gives; an atom
    range wider than the grid puts atoms off it."""
    values = np.random.default_rng(seed).random(n_grid) + 1e-3
    values /= np.trapezoid(values, np.linspace(-half_span, half_span, n_grid))
    p_hat = GridDensity(-half_span, half_span, values, normalized=True)
    cfg = ProjectionConfig(L=n_atoms, M=m_ratio * half_span)
    atoms = (np.linspace(-cfg.M, cfg.M, cfg.L) if cfg.L > 1
             else np.array([0.0]))
    loop = gaussian_design(p_hat.grid, atoms, sigma)
    assert np.array_equal(gaussian_columns(p_hat.grid, atoms, sigma), loop)

    solved = []

    def spy(design, *args, **kwargs):
        assert np.array_equal(design, loop) and design.flags.c_contiguous
        solved.append(weighted_l1_lp(design, *args, **kwargs))
        return solved[-1]

    with mock.patch.object(demix.mixfit, "weighted_l1_lp", spy):
        got = project_to_gaussian_mixture(p_hat, sigma, cfg)
    want = weighted_l1_lp(loop, p_hat.values, p_hat.trapezoid_weights(),
                          maxiter=cfg.max_iters)
    assert_same_lp(solved[0], want)
    assert (got.objective, got.converged, got.iterations, got.rounds,
            got.atoms) == (want[1], want[2], want[3], want.rounds, want.atoms)
    keep = want[0] > demix.mixfit.ATOM_PRUNE_TOL
    assert got.measure.locations.tobytes() == atoms[keep].tobytes()
    assert got.measure.weights.tobytes() == (
        want[0][keep] / want[0][keep].sum()).tobytes()


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
