"""The optimized minimum-distance solver against its loop-form oracle, its
screened sweeps at level 0 and at the refinement levels against the
exhaustive ones, and the shared per-x solve pool against a serial loop.

Results are compared exactly: the optimized sweep keeps the oracle's
arithmetic and its order, so any difference is a defect, not rounding.
Only the screens' bounds, the L2 table and the L1-duality cuts, are sums
in another order and get a tolerance.
"""

import itertools
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demix.regfit as regfit
from demix.errors import EmptyWindowError
from demix.kde import BandwidthSchedule, ConditionalKde
from demix.measures import GridDensity, GridSpec
from demix.regfit import (MdeConfig, MdeContext, fit_mixed_regression,
                          mde_at_x)
from demix.synth import (Dataset, MixedRegressionModel, MixingSpec,
                         RegressionCurve, sample_mixed_regression)
from mde_oracle import minimize_l1


def bumpy_density(rng, spec: GridSpec, normalized: bool) -> GridDensity:
    """A few Gaussian bumps plus a little noise, optionally normalized."""
    pts = spec.points()
    vals = 0.01 * rng.random(spec.n_points)
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(spec.lo, spec.hi)
        width = rng.uniform(0.05, 0.5)
        vals += rng.random() * np.exp(-0.5 * ((pts - center) / width) ** 2)
    if normalized:
        vals = vals / np.trapezoid(vals, pts)
    return GridDensity(spec.lo, spec.hi, vals, normalized=normalized)


def random_problem(seed: int, k: int):
    """Target, weights and per-component densities on random grids.

    The density grids are sometimes finer and sometimes coarser than the
    padded target grid, which covers both of np.interp's slope paths.
    """
    rng = np.random.default_rng(seed)
    p_spec = GridSpec(-rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                      int(rng.integers(40, 2500)))
    p_hat = bumpy_density(rng, p_spec, normalized=False)
    half = rng.uniform(0.5, 2.0)
    f_spec = GridSpec(-half, half, int(rng.integers(30, 1200)))
    f_hats = [bumpy_density(rng, f_spec, normalized=True) for _ in range(k)]
    lambdas = tuple(rng.dirichlet(np.ones(k)))
    return p_hat, lambdas, f_hats, float(rng.uniform(0.3, 2.0))


# ---------------------------------------------------------------------------
# optimized solver == loop-form oracle
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]))
def test_solver_matches_oracle(seed, k):
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, k)
    coarse = {1: 61, 2: 31, 3: 9}[k]
    cfg = MdeConfig(B=b_bound, coarse_grid=coarse,
                    refine_levels=seed % 4)
    pooled = minimize_l1(p_hat, lambdas, [f_hats[0]] * k, cfg)
    assert mde_at_x(p_hat, lambdas, f_hats[0], cfg) == pooled


@pytest.mark.parametrize("seed", range(4))
def test_default_schedule_matches_oracle(seed):
    # The production shape: K=2, 61 candidates per axis, three refinements.
    p_hat, lambdas, f_hats, b_bound = random_problem(1000 + seed, 2)
    cfg = MdeConfig(B=b_bound)
    want = minimize_l1(p_hat, lambdas, [f_hats[0]] * 2, cfg)
    assert mde_at_x(p_hat, lambdas, f_hats[0], cfg) == want


def test_exact_tie_matches_oracle():
    # Equal weights and a symmetric target: both orderings tie exactly.
    spec = GridSpec(-4.0, 4.0, 801)
    pts = spec.points()
    bump = np.exp(-0.5 * (pts / 0.3) ** 2)
    f = GridDensity(spec.lo, spec.hi, bump / np.trapezoid(bump, pts),
                    normalized=True)
    target = np.interp(pts + 1.5, pts, f.values, left=0.0, right=0.0)
    target += np.interp(pts - 1.5, pts, f.values, left=0.0, right=0.0)
    p = GridDensity(spec.lo, spec.hi, 0.5 * target)
    cfg = MdeConfig(B=2.5)
    got = mde_at_x(p, (0.5, 0.5), f, cfg)
    assert got == minimize_l1(p, (0.5, 0.5), [f, f], cfg)
    assert got[0][0] < got[0][1]


def test_shared_context_matches_oracle():
    # One context serves every target on its grid, as inside a fit.
    rng = np.random.default_rng(5)
    _, lambdas, f_hats, b_bound = random_problem(5, 2)
    spec = GridSpec(-2.0, 2.0, 300)
    cfg = MdeConfig(B=b_bound, coarse_grid=21)
    ctx = MdeContext(spec, lambdas, f_hats[0], cfg)
    for _ in range(5):
        p = bumpy_density(rng, spec, normalized=False)
        assert (mde_at_x(p, lambdas, f_hats[0], cfg, context=ctx)
                == minimize_l1(p, lambdas, [f_hats[0]] * 2, cfg))


def test_context_rejects_other_inputs():
    p_hat, lambdas, f_hats, b_bound = random_problem(9, 2)
    cfg = MdeConfig(B=b_bound, coarse_grid=11)
    ctx = MdeContext(p_hat.spec(), lambdas, f_hats[0], cfg)
    other_grid = GridDensity(p_hat.lo, p_hat.hi + 1.0, p_hat.values)
    with pytest.raises(ValueError, match="MdeContext"):
        mde_at_x(other_grid, lambdas, f_hats[0], cfg, context=ctx)
    with pytest.raises(ValueError, match="MdeContext"):
        mde_at_x(p_hat, lambdas[::-1], f_hats[0], cfg, context=ctx)
    with pytest.raises(ValueError, match="MdeContext"):
        mde_at_x(p_hat, lambdas, f_hats[1], cfg, context=ctx)
    with pytest.raises(ValueError, match="MdeContext"):
        mde_at_x(p_hat, lambdas, f_hats[0],
                 MdeConfig(B=b_bound, coarse_grid=13), context=ctx)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_matches_oracle_four_components(seed):
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, 4)
    cfg = MdeConfig(B=b_bound, coarse_grid=5, refine_levels=seed % 4)
    pooled = minimize_l1(p_hat, lambdas, [f_hats[0]] * 4, cfg)
    assert mde_at_x(p_hat, lambdas, f_hats[0], cfg) == pooled


# ---------------------------------------------------------------------------
# screened sweeps == exhaustive sweeps
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3, 4]),
       tie=st.booleans())
def test_screened_level0_equals_full_sweep(seed, k, tie):
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, k)
    coarse = {1: 61, 2: 31, 3: 9, 4: 5}[k]
    if tie:
        # Equal weights: every ordering of the lattice shifts that built
        # the target matches it, so rows tie.
        lambdas = (1.0 / k,) * k
    ctx = MdeContext(p_hat.spec(), lambdas, f_hats[0],
                     MdeConfig(B=b_bound, coarse_grid=coarse))
    rng = np.random.default_rng(seed)
    if tie:
        target = sum(ctx.banks0[0][c]
                     for c in rng.integers(0, coarse, size=k))
    else:
        zeros = np.zeros(ctx.pad)
        target = np.concatenate([zeros, p_hat.values, zeros])
    theta, obj = ctx.sweep_level0(target)
    full_theta, full_obj = regfit._sweep_full_grid(
        target, ctx.quad, ctx.banks0, ctx.axes0,
        itertools.product(*(range(a.size) for a in ctx.axes0[:-1])))
    assert np.array_equal(theta, full_theta) and obj == full_obj

    # The screen's table and bound at random lattice points: the table
    # matches the direct weighted sum to 1e-9 of its terms' scale, and
    # the L1 objective is at least the squared L2 distance over U.
    table = ctx.l2_table(target)
    peak = max(sum(b.max() for b in ctx.banks0), target.max())
    for idx in rng.integers(0, coarse, size=(20, k)):
        mix = sum(ctx.banks0[j][c] for j, c in enumerate(idx))
        l2 = ctx.quad @ (mix - target) ** 2
        scale = ctx.quad @ (mix ** 2 + target ** 2)
        assert abs(table[tuple(idx)] - l2) <= 1e-9 * scale
        assert ctx.quad @ np.abs(mix - target) >= l2 / peak * (1 - 1e-12)


def full_refinement(ctx, target, level, theta):
    """``_sweep_full_grid`` over every row of refinement level ``level``
    around ``theta``, on the banks ``sweep_refinement`` builds."""
    axes = regfit._refine_axes(ctx.cfg, level, theta)
    banks = [regfit._shift_bank(ctx.pts, ctx.f_hat, lam, axis)
             for lam, axis in zip(ctx.lambdas, axes)]
    return regfit._sweep_full_grid(
        target, ctx.quad, banks, axes,
        itertools.product(*(range(a.size) for a in axes[:-1])))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3, 4]),
       tie=st.booleans())
def test_screened_refinement_equals_full_sweep(seed, k, tie):
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, k)
    coarse = {1: 61, 2: 31, 3: 13, 4: 7}[k]
    if tie:
        lambdas = (1.0 / k,) * k
    ctx = MdeContext(p_hat.spec(), lambdas, f_hats[0],
                     MdeConfig(B=b_bound, coarse_grid=coarse))
    rng = np.random.default_rng(seed)
    zeros = np.zeros(ctx.pad)
    target = np.concatenate([zeros, p_hat.values, zeros])
    theta, obj = ctx.sweep_level0(target)
    for level in range(1, 4):
        # The incumbent as solve passes it, and a random centre that may
        # lie far from the optimum or be clipped at the box.
        centers = [theta, tuple(rng.uniform(-b_bound, b_bound, size=k))]
        if tie:
            # Equal weights and equal centres: every axis holds the same
            # candidates and bank, so the orderings of the candidates that
            # built the target tie exactly.
            centers = [(float(rng.uniform(-b_bound, b_bound)),) * k]
            axis = regfit._refine_axes(ctx.cfg, level, centers[0])[0]
            bank = regfit._shift_bank(ctx.pts, ctx.f_hat, ctx.lambdas[0],
                                      axis)
            target = sum(bank[c] for c in rng.integers(0, axis.size, k))
        got = [ctx.sweep_refinement(target, level, c) for c in centers]
        for (theta_got, obj_got), center in zip(got, centers):
            want_theta, want_obj = full_refinement(ctx, target, level, center)
            assert np.array_equal(theta_got, want_theta)
            assert obj_got == want_obj
        if got[0][1] < obj - 1e-12 * (1.0 + abs(obj)):
            theta, obj = got[0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]))
def test_cut_bounds_are_below_the_objective(seed, k):
    # At random candidates of a refinement grid around a random centre:
    # every cut bound is at most the direct L1 objective, the bound is
    # tight at the incumbent, whose own sign pattern is one of the cuts,
    # and the mass covers the banks' largest row masses and the target's.
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, k)
    ctx = MdeContext(p_hat.spec(), lambdas, f_hats[0],
                     MdeConfig(B=b_bound, coarse_grid=31))
    rng = np.random.default_rng(seed)
    zeros = np.zeros(ctx.pad)
    target = np.concatenate([zeros, p_hat.values, zeros])
    axes = regfit._refine_axes(ctx.cfg, 1,
                               rng.uniform(-b_bound, b_bound, size=k))
    banks = [regfit._shift_bank(ctx.pts, ctx.f_hat, lam, axis)
             for lam, axis in zip(ctx.lambdas, axes)]
    inc = tuple(int(i) for i in rng.integers(0, 13, size=k))
    bound, mass = regfit._cut_bounds(target, ctx.quad, banks, inc)
    assert bound.shape == (13,) * k
    assert mass >= (sum((b @ ctx.quad).max() for b in banks)
                    + ctx.quad @ target) * (1 - 1e-12)

    def l1(idx):
        mix = sum(banks[j][c] for j, c in enumerate(idx))
        return ctx.quad @ np.abs(mix - target), ctx.quad @ (mix + target)

    for idx in map(tuple, rng.integers(0, 13, size=(20, k))):
        objective, scale = l1(idx)
        assert bound[idx] <= objective + 1e-12 * scale
    objective, scale = l1(inc)
    assert abs(bound[inc] - objective) <= 1e-12 * scale


def test_screen_evaluates_few_entries_per_level(monkeypatch):
    # The screen passes each row it evaluates as known objectives, with
    # +inf for the candidates it skipped: count the finite ones per level.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    data = sample_mixed_regression(model, 5000, 0)
    level0, refined = [], []
    original = regfit._sweep_full_grid

    def counting(target, quad, banks, axes, combos, known=None):
        combos = list(combos)
        evaluated = sum(int(np.isfinite(known[c]).sum()) for c in combos)
        if axes[0].size == 61:
            level0.append((evaluated, len(combos) * 61))
        else:
            refined.append(evaluated)
        return original(target, quad, banks, axes, combos, known)

    monkeypatch.setattr(regfit, "_sweep_full_grid", counting)
    fit_mixed_regression(data, 2, 0.2, a=-1.0, b=1.0)
    assert len(level0) == regfit.X_GRID_POINTS
    assert len(refined) == 3 * regfit.X_GRID_POINTS
    assert sum(e for e, _ in level0) < sum(held for _, held in level0)
    assert np.mean(refined) < 169 / 2


def test_screen_skips_most_level0_rows(monkeypatch):
    # A screen that silently swept every row would still give the same
    # fits; count the level-0 rows swept per x instead.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    data = sample_mixed_regression(model, 5000, 0)
    swept = []
    original = regfit._sweep_full_grid

    def counting(target, quad, banks, axes, combos, known=None):
        combos = list(combos)
        if axes[0].size == 61:  # level 0; refinement levels sweep 13
            swept.append(len(combos))
        return original(target, quad, banks, axes, combos, known)

    monkeypatch.setattr(regfit, "_sweep_full_grid", counting)
    fit_mixed_regression(data, 2, 0.2, a=-1.0, b=1.0)
    assert len(swept) == regfit.X_GRID_POINTS
    assert sum(n < 61 for n in swept) >= 0.9 * len(swept)


# ---------------------------------------------------------------------------
# refinement schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coarse", [3, 9, 13])
def test_small_grid_refines_over_the_whole_shrunk_box(coarse):
    # With at most MDE_REFINE_POINTS candidates per axis, level l sweeps
    # all coarse_grid points of the box of half-width B * 0.2**l.
    b_bound = 1.7
    cfg = MdeConfig(B=b_bound, coarse_grid=coarse, refine_levels=4)
    centers = (-1.69, 0.123, 1.0)
    half = b_bound
    for level in range(1, 5):
        half *= regfit.MDE_SHRINK
        axes = regfit._refine_axes(cfg, level, centers)
        for c, axis in zip(centers, axes):
            want = np.linspace(max(c - half, -b_bound),
                               min(c + half, b_bound), coarse)
            assert np.array_equal(axis, want)


def test_default_grid_refines_on_the_coarse_lattice():
    # 61 points: each level keeps the spacing of a 61-point box of
    # half-width B * 0.2**l but sweeps only the 13 around the center.
    cfg = MdeConfig(B=1.5)
    assert regfit.MDE_REFINE_POINTS == 13
    assert cfg.candidates() == [61, 13, 13, 13]
    for level in range(1, 4):
        (axis,) = regfit._refine_axes(cfg, level, (0.3,))
        assert axis.size == 13
        step = (axis[-1] - axis[0]) / 12
        assert step == pytest.approx(2 * 1.5 * 0.2 ** level / 60, rel=1e-12)
        assert axis[6] == pytest.approx(0.3, abs=1e-15)
    # The last level's spacing is still the resolution the config reports.
    assert cfg.resolution() == pytest.approx(2 * 0.2 ** 3 / 60, rel=1e-12)
    assert step == pytest.approx(cfg.resolution() * 1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# pooled per-x solves == serial loop
# ---------------------------------------------------------------------------

def gap_dataset() -> Dataset:
    """Covariates with a hole around x=0, so some windows are empty."""
    rng = np.random.default_rng(7)
    n = 4000
    x = np.concatenate([rng.uniform(-1.0, -0.3, n // 2),
                        rng.uniform(0.3, 1.0, n - n // 2)])
    comp = rng.random(n) < 0.6
    y = np.where(comp, 1.0, -1.0) + 0.15 * rng.standard_normal(n)
    return Dataset(x, y)


def test_pooled_fit_matches_serial_loop(monkeypatch):
    data = gap_dataset()
    bandwidth = BandwidthSchedule.fixed(0.05)
    calls = []
    original = regfit.mde_at_x

    def recording(p_hat_x, lambdas, f_hat, cfg, **kwargs):
        calls.append((threading.current_thread().name, lambdas, f_hat, cfg,
                      p_hat_x.spec()))
        return original(p_hat_x, lambdas, f_hat, cfg, **kwargs)

    monkeypatch.setattr(regfit, "mde_at_x", recording)
    fit = fit_mixed_regression(data, 2, 0.15, x0=0.9, bandwidth=bandwidth,
                               n_x_grid=21)
    monkeypatch.undo()

    # Every non-empty x went through the module-level mde_at_x, on the pool.
    flags = np.asarray(fit.interpolated)
    assert flags.any() and not flags.all()
    assert len(calls) == int((~flags).sum())
    assert all(name.startswith("demix-mde") for name, *_ in calls)

    _, lambdas, f_pooled, cfg, y_grid = calls[0]
    kde = ConditionalKde(data, bandwidth)
    serial, empty = [], []
    for x in fit.x_grid:
        try:
            p_hat_x = kde.conditional_density_at(x, y_grid)
        except EmptyWindowError:
            empty.append(True)
            continue
        empty.append(False)
        serial.append(mde_at_x(p_hat_x, lambdas, f_pooled, cfg))
    assert tuple(empty) == fit.interpolated
    pooled = [(tuple(m[i] for m in fit.m_hat), fit.per_x_objective[i])
              for i in np.flatnonzero(~flags)]
    assert pooled == serial


def test_concurrent_fits_are_bit_identical():
    # More callers than cores, switching threads as often as possible:
    # every concurrent fit must equal the serial one.
    model = MixedRegressionModel(
        a=-1.0, b=1.0, lambdas=(0.35, 0.65),
        m=(RegressionCurve.line(1.0), RegressionCurve.line(-1.0)),
        sigma=0.2, g0=MixingSpec.point_mass(), x0=1.0)
    datasets = [sample_mixed_regression(model, 2000, seed) for seed in
                range(2)]
    cfg = MdeConfig(coarse_grid=15, refine_levels=2)

    def fit(data):
        return fit_mixed_regression(data, 2, 0.2, x0=1.0, n_x_grid=9,
                                    mde_cfg=cfg).to_json_obj()

    serial = [fit(d) for d in datasets]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            futures = [callers.submit(fit, datasets[i % 2])
                       for i in range(6)]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for i, got in enumerate(results):
        assert got == serial[i % 2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_working_pool():
    assert regfit._solver_pool().submit(int, "3").result(timeout=30) == 3
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = 1
        try:
            signal.alarm(30)
            pool = regfit._solver_pool()
            code = 0 if pool.submit(int, "7").result(timeout=20) == 7 else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
