"""Reference minimum-distance solver: the plain loop form of regfit's sweep.

Kept out of the library as the oracle for the optimized solver.  Every
bank is built one ``np.interp`` call per offset and every candidate
combination allocates fresh temporaries, with the same arithmetic in the
same order as ``demix.regfit``, so results must agree bit for bit.
"""

import itertools
import math

import numpy as np

from demix.regfit import MDE_REFINE_POINTS, MDE_SHRINK


def extended_target(p_hat, b_bound):
    """Pad the target grid by B on both sides so shifts lose no mass."""
    spacing = p_hat.spacing
    pad = int(math.ceil(b_bound / spacing)) + 1
    pts = np.concatenate([
        p_hat.lo + spacing * np.arange(-pad, 0),
        p_hat.grid,
        p_hat.hi + spacing * np.arange(1, pad + 1),
    ])
    target = np.concatenate([np.zeros(pad), p_hat.values, np.zeros(pad)])
    quad = np.full(pts.size, spacing)
    quad[0] *= 0.5
    quad[-1] *= 0.5
    return pts, target, quad


def shift_bank(pts, f_hat, scale, offsets):
    """Rows of scale * f_hat(pts - offset), one interpolation per row."""
    bank = np.empty((offsets.size, pts.size))
    f_pts = f_hat.grid
    for i, off in enumerate(offsets):
        bank[i] = np.interp(pts - off, f_pts, f_hat.values,
                            left=0.0, right=0.0)
    return bank * scale


def axis_candidates(center, half, b_bound, count):
    lo = max(center - half, -b_bound)
    hi = min(center + half, b_bound)
    return np.linspace(lo, hi, count)


def level_axis(center, half, level, cfg):
    """Level 0 spans the box with coarse_grid points; later levels keep
    the spacing of a coarse_grid-point box of half-width ``half`` with at
    most MDE_REFINE_POINTS points around ``center``."""
    if level == 0:
        return axis_candidates(0.0, half, cfg.B, cfg.coarse_grid)
    count = min(cfg.coarse_grid, MDE_REFINE_POINTS)
    half = half * ((count - 1) / (cfg.coarse_grid - 1))
    return axis_candidates(center, half, cfg.B, count)


def sweep_full_grid(pts, target, quad, f_hats, lambdas, axes):
    """Lexicographic grid sweep with fresh temporaries per combination."""
    k = len(axes)
    banks = [shift_bank(pts, f_hats[j], lambdas[j], axes[j])
             for j in range(k)]
    best_obj = math.inf
    best_theta = None
    last_bank = banks[-1]
    for combo in itertools.product(*(range(a.size) for a in axes[:-1])):
        base = np.zeros(pts.size)
        for j, c in enumerate(combo):
            base = base + banks[j][c]
        objs = np.abs(base[None, :] + last_bank - target[None, :]) @ quad
        row_min = float(objs.min())
        tie = 1e-12 * (1.0 + abs(row_min))
        if best_theta is None \
                or row_min < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            idx = int(np.flatnonzero(objs <= row_min + tie)[0])
            best_obj = float(objs[idx])
            best_theta = [axes[j][c] for j, c in enumerate(combo)]
            best_theta.append(axes[-1][idx])
    return np.array(best_theta), best_obj


def minimize_l1(p_hat, lambdas, f_hats, cfg):
    """Minimum-distance solve over [-B, B]^K."""
    lambdas = np.asarray(lambdas, dtype=float)
    k = lambdas.size
    pts, target, quad = extended_target(p_hat, cfg.B)
    theta = None
    half = cfg.B
    centers = np.zeros(k)
    best_obj = math.inf
    for level in range(cfg.refine_levels + 1):
        axes = [level_axis(centers[j], half, level, cfg)
                for j in range(k)]
        cand_theta, cand_obj = sweep_full_grid(
            pts, target, quad, f_hats, lambdas, axes)
        if cand_obj < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            best_obj = cand_obj
            theta = cand_theta
        elif theta is None:
            best_obj = cand_obj
            theta = cand_theta
        centers = theta.copy()
        half *= MDE_SHRINK
    return tuple(float(v) for v in theta), float(best_obj)
