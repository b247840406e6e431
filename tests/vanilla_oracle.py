"""Reference forms of the projection LP and the equal-weight box KDE.

Kept out of the library as oracles for the optimized paths.  The LP here
hands HiGHS the whole dense design, every entry included, in the dual
form the library solves, in one ``linprog`` call over every atom, and
reads the atom weights off the ``A_ub`` marginals; the primal equality
and inequality forms the library solved before are kept beside it.  The
KDE sorts its samples with a stable argsort and two gathers.  The library
leaves out only matrix entries HiGHS ignores and sorts equal-weight
samples with ``np.sort``, so results must agree bit for bit with the KDE
here, and with ``weighted_l1_lp`` wherever it solves in one HiGHS run.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack, identity, vstack

from demix.measures import LP_FEASIBILITY_TOL, GridDensity, WEIGHT_TOL


def _solve(cost, n_atoms, design, target, quad_weights, tol, maxiter,
           **constraints):
    options = {"maxiter": int(maxiter),
               "primal_feasibility_tolerance": float(tol),
               "dual_feasibility_tolerance": float(tol)}
    res = linprog(cost, **constraints, bounds=(0, None), method="highs",
                  options=options)
    if res.x is None:
        # The dual simplex stops without a solution on a few untrimmed
        # designs whose entries span 1e-195 to 1 (HiGHS status 4, model
        # status "Not Set"); the interior-point method with crossover
        # solves the same LP to an optimal basis.
        res = linprog(cost, **constraints, bounds=(0, None),
                      method="highs-ipm", options=options)
    assert res.x is not None, res.message
    w, objective = _weights(np.maximum(res.x[:n_atoms], 0.0), design, target,
                            quad_weights)
    return w, objective, res.status == 0, int(res.nit)


def _weights(w, design, target, quad_weights):
    total = w.sum()
    if total > 0:
        w = w / total
    return w, float(quad_weights @ np.abs(design @ w - target))


def weighted_l1_lp(design, target, quad_weights, tol=LP_FEASIBILITY_TOL,
                   maxiter=5000):
    """Untrimmed dual form: ``target @ y + z`` at its largest subject to
    ``[design.T | 1] @ (y, z) <= 0`` and ``|y| <= quad_weights``; the
    atom weights are minus the marginals of those rows."""
    n_grid, n_atoms = design.shape
    a_ub = hstack([csr_matrix(design.T), np.ones((n_atoms, 1))],
                  format="csc")
    bounds = np.column_stack([np.append(-quad_weights, -np.inf),
                              np.append(quad_weights, np.inf)])
    res = linprog(-np.append(target, 1.0), A_ub=a_ub, b_ub=np.zeros(n_atoms),
                  bounds=bounds, method="highs",
                  options={"maxiter": int(maxiter),
                           "primal_feasibility_tolerance": float(tol),
                           "dual_feasibility_tolerance": float(tol)})
    assert res.x is not None, res.message
    w, objective = _weights(np.maximum(-res.ineqlin.marginals, 0.0),
                            design, target, quad_weights)
    return w, objective, res.status == 0, int(res.nit)


def weighted_l1_lp_equality(design, target, quad_weights, tol=1e-8,
                            maxiter=5000):
    """Untrimmed equality form, ``[design, -I, I] @ (w, u, v) = target``
    and ``sum(w) = 1``; for problems HiGHS solves (``res.x`` present)."""
    n_grid, n_atoms = design.shape
    eye = identity(n_grid, format="csr")
    simplex = csr_matrix(
        (np.ones(n_atoms), (np.zeros(n_atoms, dtype=int), range(n_atoms))),
        shape=(1, n_atoms + 2 * n_grid),
    )
    a_eq = vstack([hstack([csr_matrix(design), -eye, eye]), simplex],
                  format="csr")
    cost = np.concatenate([np.zeros(n_atoms), quad_weights, quad_weights])
    return _solve(cost, n_atoms, design, target, quad_weights, tol, maxiter,
                  A_eq=a_eq, b_eq=np.append(target, 1.0))


def weighted_l1_lp_inequality(design, target, quad_weights, tol=1e-8,
                              maxiter=5000):
    """Untrimmed inequality form, ``|design @ w - target| <= t`` and
    ``sum(w) = 1`` at cost ``quad_weights @ t``."""
    n_grid, n_atoms = design.shape
    a_sparse = csr_matrix(design)
    eye = identity(n_grid, format="csr")
    a_ub = vstack([hstack([a_sparse, -eye]), hstack([-a_sparse, -eye])],
                  format="csr")
    b_ub = np.concatenate([target, -target])
    cost = np.concatenate([np.zeros(n_atoms), quad_weights])
    a_eq = csr_matrix(
        (np.ones(n_atoms), (np.zeros(n_atoms, dtype=int), range(n_atoms))),
        shape=(1, n_atoms + n_grid),
    )
    return _solve(cost, n_atoms, design, target, quad_weights, tol, maxiter,
                  A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0])


def box_mixture_density(locations, weights, half_width, grid):
    """Box mixture through the stable argsort and two gathers."""
    locs = np.asarray(locations, dtype=float)
    wts = np.asarray(weights, dtype=float)
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    wts = wts[order]
    cum_w = np.concatenate([[0.0], np.cumsum(wts)])
    cum_wa = np.concatenate([[0.0], np.cumsum(wts * locs)])

    points = grid.points()
    bounds = np.empty(grid.n_points + 1)
    bounds[0] = grid.lo
    bounds[-1] = grid.hi
    bounds[1:-1] = 0.5 * (points[:-1] + points[1:])
    i_lo = np.searchsorted(locs, bounds - half_width, side="right")
    i_hi = np.searchsorted(locs, bounds + half_width, side="left")
    full = cum_w[i_lo]
    mid_w = cum_w[i_hi] - cum_w[i_lo]
    mid_wa = cum_wa[i_hi] - cum_wa[i_lo]
    cdf = full + (mid_w * (bounds + half_width) - mid_wa) / (2.0 * half_width)
    masses = np.diff(cdf)
    quad = np.full(grid.n_points, grid.spacing)
    quad[0] *= 0.5
    quad[-1] *= 0.5
    values = np.maximum(masses / quad, 0.0)
    total = float(wts.sum())
    covered = (abs(total - 1.0) <= WEIGHT_TOL
               and grid.covers(locs[0] - half_width, locs[-1] + half_width))
    return GridDensity(grid.lo, grid.hi, values, normalized=covered,
                       norm_tol=1e-9)


def univariate_kde(samples, h, grid):
    samples = np.asarray(samples, dtype=float)
    weights = np.full(samples.size, 1.0 / samples.size)
    return box_mixture_density(samples, weights, h, grid)


def conditional_density_at(kde, x, grid):
    ys = kde.window_responses(x)
    weights = np.full(ys.size, 1.0 / ys.size)
    return box_mixture_density(ys, weights, kde.h, grid)
