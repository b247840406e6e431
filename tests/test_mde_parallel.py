"""The optimized minimum-distance solver against its loop-form oracle, and
the shared per-x solve pool against a serial loop.

Equality is exact throughout: the optimized sweep keeps the oracle's
arithmetic and its order, so any difference is a defect, not rounding.
"""

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
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from(["grid", "coordinate"]))
def test_solver_matches_oracle(seed, k, mode):
    p_hat, lambdas, f_hats, b_bound = random_problem(seed, k)
    coarse = {1: 61, 2: 31, 3: 9}[k]
    cfg = MdeConfig(B=b_bound, coarse_grid=coarse,
                    refine_levels=seed % 4, mode=mode)
    want = minimize_l1(p_hat, lambdas, f_hats, cfg)
    assert mde_at_x(p_hat, lambdas, f_hats, cfg) == want
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
    ctx = MdeContext(spec, lambdas, [f_hats[0]] * 2, cfg)
    for _ in range(5):
        p = bumpy_density(rng, spec, normalized=False)
        assert (mde_at_x(p, lambdas, f_hats[0], cfg, context=ctx)
                == minimize_l1(p, lambdas, [f_hats[0]] * 2, cfg))


def test_context_rejects_other_inputs():
    p_hat, lambdas, f_hats, b_bound = random_problem(9, 2)
    cfg = MdeConfig(B=b_bound, coarse_grid=11)
    ctx = MdeContext(p_hat.spec(), lambdas, [f_hats[0]] * 2, cfg)
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
    return Dataset(x, y, seed=7)


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
