"""Reference minimum-distance solver: the plain loop form of regfit's sweep.

Kept out of the library as the oracle for the optimized solver.  The
phase table is built one ``np.interp`` call per phase, every candidate is
snapped to the lattice and evaluated alone with fresh temporaries, with
the same arithmetic in the same order as ``demix.regfit``, so results
must agree bit for bit.
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


def phase_table(p_hat, f_hat, cfg):
    """The lattice unit h / q, the table's margin M and the table: row r
    holds f_hat at pts[0] + j h - r h / q for j over the padded grid
    widened by M points on each side, one interpolation per row.  q is
    the smallest power of two that puts 8 units in the final spacing."""
    spacing = p_hat.spacing
    ratio = 8 * spacing / (cfg.resolution() * cfg.B)
    phases = 1
    while phases < ratio:
        phases *= 2
    unit = spacing / phases
    pts, _, _ = extended_target(p_hat, cfg.B)
    margin = int(math.ceil(cfg.B / spacing)) + 2
    cols = pts[0] + spacing * np.arange(-margin, pts.size + margin)
    table = np.empty((phases, cols.size))
    for r in range(phases):
        table[r] = np.interp(cols - r * unit, f_hat.grid, f_hat.values,
                             left=0.0, right=0.0)
    return unit, margin, table


def snapped_bank(lattice, n_points, scale, axis):
    """The candidates ``axis`` snapped to the nearest multiple of the
    lattice unit, and rows of scale * f_hat(pts - candidate) sliced from
    the phase table."""
    unit, margin, table = lattice
    steps = np.rint(axis / unit)
    bank = np.empty((axis.size, n_points))
    for i, step in enumerate(steps):
        shift, phase = divmod(int(step), table.shape[0])
        start = margin - shift
        bank[i] = table[phase, start:start + n_points] * scale
    return steps * unit + 0.0, bank


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


def sweep_full_grid(target, quad, banks, axes):
    """Lexicographic grid sweep, one candidate at a time with fresh
    temporaries: its bank rows summed in axis order, then the sum of
    |mixture - target| * quad."""
    best_obj = math.inf
    best_theta = None
    for combo in itertools.product(*(range(a.size) for a in axes[:-1])):
        objs = np.empty(axes[-1].size)
        for i in range(axes[-1].size):
            index = combo + (i,)
            mix = banks[0][index[0]].copy()
            for j in range(1, len(banks)):
                mix = mix + banks[j][index[j]]
            objs[i] = np.add.reduce(np.abs(mix - target) * quad)
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
    tables = {id(f): phase_table(p_hat, f, cfg) for f in f_hats}
    theta = None
    half = cfg.B
    centers = np.zeros(k)
    best_obj = math.inf
    for level in range(cfg.refine_levels + 1):
        axes, banks = zip(*(
            snapped_bank(tables[id(f_hats[j])], pts.size, lambdas[j],
                         level_axis(centers[j], half, level, cfg))
            for j in range(k)))
        cand_theta, cand_obj = sweep_full_grid(target, quad, banks, axes)
        if cand_obj < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            best_obj = cand_obj
            theta = cand_theta
        elif theta is None:
            best_obj = cand_obj
            theta = cand_theta
        centers = theta.copy()
        half *= MDE_SHRINK
    return tuple(float(v) for v in theta), float(best_obj)
