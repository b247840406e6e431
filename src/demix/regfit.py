"""Mixed-regression estimation on top of the mixture pipeline.

The procedure has three steps.  A conditional density estimate at a point
of good separation feeds the project-smooth-denoise pipeline, which
recovers the weights and the (common) error density.  Then, at every point
of an x-grid, the regression values are read off a minimum-distance fit:
the vector theta minimizing the L¹ gap between the weighted, shifted
copies of that one density and the local conditional density estimate.
Component labels are positional throughout: position k carries the k-th
smallest recovered weight and one regression curve.

The per-x solves are independent and run on one thread pool shared by the
whole process, with one thread per CPU the process may use; concurrent
fits submit into the same pool.  What the solves of one fit share (the
padded grid, a phase table of the density shifted by every multiple of
one lattice unit, the level-0 shift bank and its Gram matrix) is built
once in an ``MdeContext``, whose ``solve`` runs the coarse sweep and its
refinement levels for one x.  Every candidate is snapped to the lattice,
so its shifted density is a slice of the table, and no interpolation runs
per x.  Every level is screened per candidate: only the candidates whose
lower bound on the L1 objective cannot rule them out are evaluated, and
the result is the exhaustive sweep's, bit for bit.  At level 0 the bound
is a candidate's squared L2 distance to the target, read off the Gram,
over a bound on |mixture - target|.  A refinement level evaluates the incumbent's row and bounds
the rest by L1 duality: for |phi| <= 1, the phi-weighted integral of
mixture - target is at most the L1 objective, one table per axis.  Every
estimate is bit-identical to a serial solve, whatever the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyWindowError, InsufficientDataError
from .kde import BandwidthSchedule, ConditionalKde, _require_domain
from .measures import (GridDensity, GridSpec, l1_distance, require_finite,
                       require_int, require_positive_finite,
                       trapezoid_weights, widest_gap_bounds)
from .mixfit import (
    DenoiseConfig,
    MixtureFit,
    ProjectionConfig,
    fit_mixture_from_density,
    response_grid,
)
from .synth import Dataset, MixedRegressionModel

X_GRID_POINTS = 101
SEP_MIN_WINDOW_FACTOR = 5
# Each refinement level shrinks the candidate spacing by this.
MDE_SHRINK = 0.2
# Candidates per axis at each refinement level (at most coarse_grid).
MDE_REFINE_POINTS = 13
# Finest grid spacing, as a fraction of B, whose candidates near +-B are
# still distinct doubles.
MDE_MIN_RESOLUTION = 2.0 ** -50
# Most level-0 candidates per solve, the K=3 lattice of the default
# 61-point grid: it bounds the L2 table the screen builds (1.8 MB) and
# the rows the screen may leave to the L1 sweep.
MDE_MAX_SWEEP = 61 ** 3
# Least final candidate spacing, in lattice units.
MDE_PHASE_STEPS = 8
# Most values of one fit's phase table (32 MB).
MDE_MAX_TABLE = 2 ** 22
# Most candidates whose objectives one reduction evaluates.
MDE_CHUNK = 32


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdeConfig:
    """Search box and refinement schedule for the minimum-distance step.

    The box bound ``B`` defaults to 1.1 times the largest absolute
    response when resolved by the fitting pipeline.  The solver sweeps a
    coarse grid of ``coarse_grid`` points per axis over [-B, B]^K, then
    runs ``refine_levels`` passes around the incumbent.  Level ``l``
    keeps the lattice of a ``coarse_grid``-point grid over a box of
    half-width ``B * MDE_SHRINK**l`` (spacing ``2 B 0.2**l /
    (coarse_grid - 1)``) but sweeps only the ``MDE_REFINE_POINTS`` (13)
    candidates around the incumbent, or all ``coarse_grid`` when fewer.
    The minimizer the previous level brackets lies within one of its
    spacings of the incumbent, five of this level's, inside the window
    of +-6.  Windows are clipped to [-B, B].  Every level returns the
    lexicographically smallest minimizer of its full grid of snapped
    candidates, but evaluates the L1 objective only of the candidates
    whose lower bound does not rule them out.  Level 0 tabulates that
    bound for all ``coarse_grid**K`` candidates from their L2 distances.
    A refinement level evaluates the incumbent's row and bounds the rest
    with L1-duality cuts, the signs of mixture - target at a few
    candidates around the incumbent.

    Every level's candidates are snapped to the nearest multiple of the
    lattice unit ``h / q``, where ``h`` is the response-grid spacing and
    ``q`` the smallest power of two that puts ``MDE_PHASE_STEPS`` (8)
    units in the final spacing.  Snapped candidates of one axis stay
    distinct, lie within 1/16 of the final spacing of their grid values,
    and may lie up to half a unit outside [-B, B].  Each fit tabulates
    the density at the ``q`` phases over the padded grid once, ``q * (N +
    2 M)`` values for ``N`` padded points and ``M = ceil(B / h) + 2``;
    every candidate's shifted density is then a slice of that table.  The
    table may not exceed ``MDE_MAX_TABLE`` (2**22) values; past it the
    context raises ``ValueError`` naming ``B``, ``refine_levels`` and
    ``coarse_grid`` before it allocates anything.  The L2 table may not
    exceed ``MDE_MAX_SWEEP`` (61**3) entries: ``coarse_grid`` is at most
    476 for K = 2, 61 for K = 3, 21 for K = 4 and 11 for K = 5 (see
    ``check_sweep``).  K = 1 is held to the K = 2 limit, since its
    level-0 shift bank holds ``coarse_grid`` copies of the padded grid.
    """

    B: float | None = None
    coarse_grid: int = 61
    refine_levels: int = 3

    def __post_init__(self):
        if self.B is not None:
            require_positive_finite(self.B, "B")
        for name, least in (("coarse_grid", 3), ("refine_levels", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name),
                                                       name, least))
        if self.resolution() < MDE_MIN_RESOLUTION:
            raise ValueError(
                f"refine_levels={self.refine_levels} with coarse_grid="
                f"{self.coarse_grid} refines to a spacing of "
                f"{self.resolution():.3g} B, below 2**-50 B, where "
                f"neighbouring candidates near +-B are no longer distinct")

    def check_sweep(self, k: int) -> None:
        """Raise ``ValueError`` naming ``coarse_grid`` when the level-0
        grid for K components exceeds ``MDE_MAX_SWEEP`` candidates; K = 1
        is held to the K = 2 limit."""
        dims = max(k, 2)
        if self.coarse_grid ** dims <= MDE_MAX_SWEEP:
            return
        largest = round(MDE_MAX_SWEEP ** (1.0 / dims))
        if largest ** dims > MDE_MAX_SWEEP:
            largest -= 1
        allowed = (f"the largest allowed for K={k} is {largest}"
                   if largest >= 3 else f"K={k} allows none")
        verb, held = (("sweeps", "") if k > 1 else
                      ("counts as", " (held to the K=2 bound)"))
        raise ValueError(
            f"coarse_grid={self.coarse_grid} {verb} {self.coarse_grid}"
            f"**{dims} candidates per x for K={k}{held}, more than 61**3; "
            f"{allowed}")

    def resolution(self) -> float:
        """Final per-axis grid spacing as a fraction of B."""
        half = MDE_SHRINK ** self.refine_levels
        return 2.0 * half / (self.coarse_grid - 1)

    def candidates(self) -> list:
        """Candidates per axis at each level, level 0 first."""
        refine = min(self.coarse_grid, MDE_REFINE_POINTS)
        return [self.coarse_grid] + [refine] * self.refine_levels


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionFit:
    """Estimated regression curves with their mixture fit.

    ``m_hat[k]`` evaluates the curve bound to the k-th sorted weight on
    ``x_grid``.  ``per_x_objective`` holds the residual of each per-x
    minimum-distance solve (NaN where the window was empty and the value
    was interpolated; those points are flagged in ``interpolated``).
    """

    x_grid: tuple
    m_hat: tuple
    mixture: MixtureFit
    per_x_objective: tuple
    x0_used: float
    interpolated: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.m_hat)
        n = len(self.x_grid)
        if k == 0 or any(len(m) != n for m in self.m_hat):
            raise ValueError("m_hat must hold one length-n curve per component")
        if len(self.per_x_objective) != n:
            raise ValueError("per_x_objective must match x_grid")
        if self.interpolated and len(self.interpolated) != n:
            raise ValueError("interpolated mask must match x_grid")
        xs = np.asarray(self.x_grid, dtype=float)
        if not (np.isfinite(xs).all() and (np.diff(xs) > 0).all()):
            raise ValueError("x_grid must be finite and strictly increasing")
        if not np.isfinite(np.asarray(self.m_hat, dtype=float)).all():
            raise ValueError("m_hat must be finite")

    @property
    def k(self) -> int:
        return len(self.m_hat)

    def lambdas_sorted(self) -> tuple:
        """Recovered weights in their positional (ascending) order."""
        return tuple(self.mixture.lambdas_hat)

    def to_json_obj(self) -> dict:
        return {
            "x_grid": list(self.x_grid),
            "m_hat": [list(m) for m in self.m_hat],
            "mixture": self.mixture.to_json_obj(),
            "per_x_objective": [
                None if math.isnan(v) else v for v in self.per_x_objective
            ],
            "x0_used": self.x0_used,
            "interpolated": [bool(v) for v in self.interpolated],
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegressionFit":
        return cls(
            x_grid=tuple(obj["x_grid"]),
            m_hat=tuple(tuple(m) for m in obj["m_hat"]),
            mixture=MixtureFit.from_json_obj(obj["mixture"]),
            per_x_objective=tuple(
                math.nan if v is None else float(v)
                for v in obj["per_x_objective"]
            ),
            x0_used=obj["x0_used"],
            interpolated=tuple(bool(v) for v in obj.get("interpolated", [])),
            diagnostics=obj.get("diagnostics", {}),
        )


# ---------------------------------------------------------------------------
# minimum-distance core
# ---------------------------------------------------------------------------

def _axis_candidates(center: float, half: float, b_bound: float,
                     count: int) -> np.ndarray:
    lo = max(center - half, -b_bound)
    hi = min(center + half, b_bound)
    return np.linspace(lo, hi, count)


def _table_shape(grid: GridSpec, cfg: MdeConfig):
    """Phases ``q`` and grid padding of the phase table an ``MdeContext``
    builds on ``grid``, or ``ValueError`` when the table would exceed
    ``MDE_MAX_TABLE`` values.  Nothing is allocated."""
    spacing = grid.spacing
    final = cfg.resolution() * cfg.B
    ratio = MDE_PHASE_STEPS * spacing / final if final > 0 else math.inf
    phases = 1
    while phases < min(ratio, 2.0 ** 64):
        phases *= 2
    # A float first, since with a huge B the exact width need not fit in
    # an array or even be finite.
    cols = grid.n_points + 4.0 * (cfg.B / spacing) + 6.0
    if phases * cols <= MDE_MAX_TABLE:
        pad = math.ceil(cfg.B / spacing) + 1
        cols = grid.n_points + 4 * pad + 2
        if phases * cols <= MDE_MAX_TABLE:
            return phases, pad
    raise ValueError(
        f"B={cfg.B:g} with refine_levels={cfg.refine_levels} and "
        f"coarse_grid={cfg.coarse_grid} needs an MDE phase table of "
        f"{phases:.4g} phases x {cols:.4g} points on a grid of spacing "
        f"{spacing:.3g}, more than 2**22 values")


class MdeContext:
    """What the minimum-distance solves of one fit share, built once.

    Holds the response grid padded by B on both sides (so shifts lose no
    mass) with its trapezoid weights, and the phase table: the one error
    density at ``pts[0] + j h - r h / q`` for the ``q`` phases ``r`` and
    ``j`` over the padded grid widened by ``M`` points on each side.  A
    candidate snapped to ``m h / q`` shifts the density by ``s = m // q``
    grid points and phase ``r = m % q``, so its shifted density is the
    row slice ``table[r, M - s : M - s + N]``.  Level 0 sweeps the whole
    box [-B, B] on every axis, so the context also holds its shift bank
    ``bank0``, the copies ``banks0[j] = lambdas[j] * bank0``, and what
    the L2 screen needs: the bank's Gram matrix under the weights, the
    copies' summed peaks and their summed largest row masses.  All of
    these depend on the grid, weights, density and settings but not on
    the target.  ``solve`` fits one target and writes nothing here, so
    concurrent solves may share one context.
    """

    def __init__(self, grid: GridSpec, lambdas, f_hat, cfg: MdeConfig):
        lambdas = np.asarray(lambdas, dtype=float)
        k = lambdas.size
        if k == 0 or not (np.all(lambdas >= 0)  # NaN fails both
                          and abs(float(lambdas.sum()) - 1.0) <= 1e-6):
            raise ValueError(
                f"lambdas must lie on the simplex, got {lambdas.tolist()}")
        if not (isinstance(f_hat, GridDensity) and f_hat.normalized):
            raise ValueError(f"f_hat must be one GridDensity flagged "
                             f"normalized, got {f_hat!r}")
        if cfg.B is None:
            raise ValueError("MdeConfig.B must be resolved before solving")
        cfg.check_sweep(k)
        self.phases, self.pad = _table_shape(grid, cfg)
        self.grid = grid
        self.lambdas = lambdas
        self.f_hat = f_hat
        self.cfg = cfg
        spacing = grid.spacing
        self.unit = spacing / self.phases
        self.pts = np.concatenate([
            grid.lo + spacing * np.arange(-self.pad, 0),
            grid.points(),
            grid.hi + spacing * np.arange(1, self.pad + 1),
        ])
        self.quad = trapezoid_weights(self.pts.size, spacing)
        self.margin = self.pad + 1
        cols = self.pts[0] + spacing * np.arange(
            -self.margin, self.pts.size + self.margin)
        table = np.interp(
            cols[None, :] - (np.arange(self.phases) * self.unit)[:, None],
            f_hat.grid, f_hat.values, left=0.0, right=0.0)
        # rows[r, o] is the view table[r, o : o + N].
        self._rows = np.lib.stride_tricks.sliding_window_view(
            table, self.pts.size, axis=1)
        axis, self.bank0 = self.snap(
            _axis_candidates(0.0, cfg.B, cfg.B, cfg.coarse_grid))
        self.axes0 = [axis] * k
        self.banks0 = [lam * self.bank0 for lam in lambdas]
        self.gram0 = (self.bank0 * self.quad) @ self.bank0.T
        self.peak0 = sum(float(b.max()) for b in self.banks0)
        self.mass0 = sum(float((b @ self.quad).max()) for b in self.banks0)
        for arr in (self.pts, self.quad, table, self.axes0[0], self.bank0,
                    *self.banks0, self.gram0):
            arr.flags.writeable = False

    def check_serves(self, p_hat: GridDensity, lambdas, f_hat,
                     cfg: MdeConfig) -> None:
        """Reject a solve whose inputs differ from the context's."""
        if (p_hat.spec() != self.grid or cfg != self.cfg
                or not np.array_equal(np.asarray(lambdas, dtype=float),
                                      self.lambdas)
                or f_hat is not self.f_hat):
            raise ValueError("MdeContext was built for another grid, "
                             "lambdas, f_hat or MdeConfig")

    def snap(self, axis):
        """The candidates ``axis`` snapped to the nearest multiple of
        ``unit``, and a fresh array of their shifted densities
        ``f_hat(pts - candidate)``, one row each, read off the phase
        table."""
        steps = np.rint(np.asarray(axis, dtype=float) / self.unit)
        shift, phase = np.divmod(steps.astype(np.int64), self.phases)
        # + 0.0 turns a snapped -0.0 into 0.0.
        return steps * self.unit + 0.0, self._rows[phase, self.margin - shift]

    def grid_banks(self, axes):
        """Each axis's snapped candidates, and its bank: row i holds
        ``lambdas[j] * f_hat(pts - c)`` for the axis's i-th snapped
        candidate c."""
        snapped, banks = [], []
        for axis, lam in zip(axes, self.lambdas):
            values, bank = self.snap(axis)
            bank *= lam
            snapped.append(values)
            banks.append(bank)
        return snapped, banks

    def solve(self, p_hat: GridDensity):
        """``(theta, objective)`` of the minimum-distance fit to ``p_hat``.

        Level 0 is ``sweep_level0`` and each refinement level is
        ``sweep_refinement`` around the incumbent, which a level replaces
        only on a strict improvement.
        """
        zeros = np.zeros(self.pad)
        target = np.concatenate([zeros, p_hat.values, zeros])
        theta, best_obj = self.sweep_level0(target)
        for level in range(1, self.cfg.refine_levels + 1):
            cand_theta, cand_obj = self.sweep_refinement(target, level, theta)
            if cand_obj < best_obj - 1e-12 * (1.0 + abs(best_obj)):
                theta, best_obj = cand_theta, cand_obj
        return tuple(float(v) for v in theta), float(best_obj)

    def l2_table(self, target: np.ndarray) -> np.ndarray:
        """``sum(quad * (a - target)**2)`` for the mixture ``a`` of every
        level-0 candidate, indexed by the candidates' axis positions.

        Expanding the square leaves the one Gram matrix scaled by
        ``lambdas[j] * lambdas[m]``, one gemv of the bank against ``quad *
        target`` scaled by ``lambdas[j]``, and the target's own square.
        """
        k = self.lambdas.size
        n = self.axes0[0].size
        weighted = self.quad * target
        lam2 = np.multiply.outer(self.lambdas, self.lambdas)
        cross = np.multiply.outer(2.0 * self.lambdas, self.bank0 @ weighted)
        table = np.full((n,) * k, float(target @ weighted))
        for j, m in itertools.combinations_with_replacement(range(k), 2):
            shape = [1] * k
            shape[j] = shape[m] = n
            if j == m:
                term = lam2[j, j] * np.diagonal(self.gram0) - cross[j]
            else:
                term = (2.0 * lam2[j, m]) * self.gram0
            table += term.reshape(shape)
        return table

    def sweep_level0(self, target: np.ndarray):
        """The level-0 sweep of the padded ``target``: what
        ``_sweep_full_grid`` returns over all rows, from the candidates
        that can be its minimiser.

        The mixture a and the target are nonnegative, so |a - target| <=
        U, the larger of the banks' summed peaks and the target's peak,
        and every candidate's L1 objective is at least its ``l2_table``
        entry over U.  The L2 argmin's objective W0 bounds the optimum
        from above, and only the candidates whose bound is within
        ``slack`` of W0 are evaluated (``_sweep_screened``).
        """
        table = self.l2_table(target)
        peak = max(self.peak0, float(target.max()))
        first = np.unravel_index(int(table.argmin()), table.shape)
        objs = np.full(table.shape, math.inf)
        objs[first] = w0 = float(
            _objectives(target, self.quad, self.banks0, [first])[0])
        # Skipping a candidate is exact when its objective exceeds the
        # optimum by more than the sweep's 1e-12 tie tolerances can chain
        # over n_rows rows: it then changes neither the winner nor the
        # tie-break.  The rest covers rounding.  An objective sums k bank
        # rows and then n nonnegative products |a - target| * quad; added
        # in any order, as the pairwise reduction does, they stay within
        # a relative (n + 1) eps of the exact sum.  An expanded L2 sum's
        # terms total at most quad @ (a + target)**2 <= 2 U mass in
        # magnitude, so each is within a relative gamma of its exact
        # value, and they total at most w0 + 1, 2 U mass and mass.  gamma
        # covers 2 (n + k*k + k + 4) roundings; an L2 entry takes n + 1
        # in a Gram or gemv sum, two in lambda products, one in the
        # diagonal's difference, k (k + 1) / 2 in the table's sum and two
        # as banks0[j] rounds lambdas[j] * bank0.
        k = table.ndim
        n_rows = table.size // table.shape[-1]
        mass = self.mass0 + float(target @ self.quad)
        slack = _screen_slack(w0, n_rows, target.size, k, mass)
        keep = table <= peak * (w0 + slack)
        return _sweep_screened(target, self.quad, self.banks0, self.axes0,
                               keep, objs)

    def sweep_refinement(self, target: np.ndarray, level: int, theta):
        """Refinement level ``level`` around the incumbent ``theta``: what
        ``_sweep_full_grid`` returns over the level's whole snapped grid,
        from the candidates that can be its minimiser.

        The incumbent's row (the candidates nearest ``theta`` on every axis
        but the last) is evaluated in full; its minimum W0 bounds the
        level's optimum from above.  ``_cut_bounds`` bounds every other
        candidate's objective from below, and only the candidates whose
        bound is within ``slack`` of W0 are evaluated.  K = 1 has one row.
        """
        axes, banks = self.grid_banks(_refine_axes(self.cfg, level, theta))
        if len(axes) == 1:
            return _sweep_full_grid(target, self.quad, banks, axes, [()])
        inc = tuple(int(np.abs(axis - t).argmin())
                    for axis, t in zip(axes, theta))
        objs = np.full(tuple(axis.size for axis in axes), math.inf)
        objs[inc[:-1]] = _objectives(target, self.quad, banks,
                                     _row_candidates(inc[:-1], axes))
        w0 = float(objs[inc[:-1]].min())
        bound, mass = _cut_bounds(target, self.quad, banks, inc)
        # Rounding, with gamma as in _screen_slack: a cut's table entry
        # sums n terms no larger than quad * bank, its target term n no
        # larger than quad * target, and the bound adds k tables and that
        # term, so the bound is within gamma mass of its exact value, which
        # is at most the candidate's exact L1 objective.  The computed
        # objective sums k bank rows and then n nonnegative terms, so it is
        # within gamma (L1 + mass) of the exact one.  A candidate whose
        # bound exceeds w0 + slack thus has a computed objective above
        # w0 + slack - gamma (w0 + slack + 2 mass): at least w0 plus the
        # tie chain over this grid's rows, as gamma covers gamma * slack
        # (slack < 1) and 3 mass covers 2 mass and the rounding of mass.
        slack = _screen_slack(w0, bound.size // bound.shape[-1], target.size,
                              len(axes), mass)
        return _sweep_screened(target, self.quad, banks, axes,
                               bound <= w0 + slack, objs)


def _screen_slack(w0, n_rows, n_points, k, mass):
    """How far above ``w0`` a lower bound on a candidate's objective may
    lie and the candidate still be evaluated: the tie chain over
    ``n_rows`` rows plus the rounding of bounds and objectives summed over
    ``n_points`` grid points (see ``sweep_level0`` and
    ``sweep_refinement``)."""
    gamma = 2.0 * (n_points + k * k + k + 4) * np.finfo(float).eps
    return (2e-12 * (n_rows + 3) * (1.0 + w0)
            + gamma * (w0 + 1.0 + 3.0 * mass))


def _cut_bounds(target, quad, banks, inc):
    """L1-duality lower bounds on the objective of every candidate of a
    grid, and the summed largest row masses of the banks and the target.

    For any phi with |phi| <= 1, ``quad @ (phi * (a - target))`` is at most
    ``quad @ |a - target|``, and it splits into one table per axis,
    ``banks[j] @ (quad * phi)``, less ``target @ (quad * phi)``.  The cuts
    phi are the signs of ``a - target`` at the incumbent ``inc`` and at
    every third candidate (and the last) along each axis through it, which
    makes each bound tight at its own candidate, plus phi = 1, whose table
    holds the row masses.
    """
    resid = _mixture(banks, inc) - target
    phis = [np.ones((1, target.size)), np.sign(resid)[None, :]]
    for bank, c in zip(banks, inc):
        n = bank.shape[0]
        ids = sorted({*range(0, n, 3), n - 1} - {c})
        phis.append(np.sign((resid - bank[c]) + bank[ids]))
    weights = np.concatenate(phis)
    weights *= quad
    k = len(banks)
    target_terms = weights @ target
    bound = -target_terms
    mass = float(target_terms[0])
    for j, bank in enumerate(banks):
        table = bank @ weights.T
        shape = [1] * k + [weights.shape[0]]
        shape[j] = bank.shape[0]
        bound = bound + table.reshape(shape)
        mass += float(table[:, 0].max())
    return bound.max(axis=-1), mass


def _mixture(banks, index):
    """The mixture of the candidate ``index``: its bank rows summed in
    axis order, as ``_objectives`` sums them."""
    mix = banks[0][index[0]].copy()
    for bank, c in zip(banks[1:], index[1:]):
        mix += bank[c]
    return mix


def _objectives(target, quad, banks, candidates):
    """L1 objectives ``sum(|a - target| * quad)`` of ``candidates``, a
    sequence of index tuples, one position per axis.

    The mixture a sums the candidate's bank rows in axis order, and each
    objective is the pairwise sum of its own row, at most ``MDE_CHUNK``
    rows per reduction.  A candidate's objective thus has the same bits
    whichever candidates share its reduction.
    """
    candidates = np.asarray(candidates, dtype=np.intp).reshape(
        -1, len(banks))
    objs = np.empty(candidates.shape[0])
    for lo in range(0, objs.size, MDE_CHUNK):
        part = candidates[lo:lo + MDE_CHUNK]
        mix = banks[0][part[:, 0]]
        for j in range(1, len(banks)):
            mix += banks[j][part[:, j]]
        mix -= target
        np.abs(mix, out=mix)
        mix *= quad
        np.add.reduce(mix, axis=1, out=objs[lo:lo + part.shape[0]])
    return objs


def _row_candidates(combo, axes):
    """The candidates of one row: ``combo`` on every axis but the last,
    and each candidate of the last."""
    n = axes[-1].size
    rows = np.empty((n, len(axes)), dtype=np.intp)
    rows[:, :-1] = combo
    rows[:, -1] = np.arange(n)
    return rows


def _sweep_screened(target, quad, banks, axes, keep, objs):
    """``_sweep_full_grid`` over the rows that hold a candidate ``keep``
    marks or one of ``objs`` already evaluated.

    ``objs`` holds +inf for every candidate not yet evaluated; the ones
    ``keep`` marks are evaluated into it, and the others stay +inf.  So
    the sweep is exact when every candidate ``keep`` leaves out has an
    objective too large to win or join the winner's tie chain.
    """
    todo = np.argwhere(keep & np.isinf(objs))
    objs[tuple(todo.T)] = _objectives(target, quad, banks, todo)
    swept = np.isfinite(objs).any(axis=-1)
    combos = list(map(tuple, np.argwhere(swept).tolist()))
    return _sweep_full_grid(target, quad, banks, axes, combos,
                            {combo: objs[combo] for combo in combos})


def _sweep_full_grid(target, quad, banks, axes, combos, known=None):
    """Lexicographic sweep over the rows ``combos`` of a candidate grid.

    A row holds one candidate of every axis but the last, given by its
    index tuple, and every candidate of the last axis.  ``combos`` lists
    the rows to sweep in lexicographic order; ``known`` maps rows whose
    objectives are already computed to them.  Returns the
    lexicographically smallest argmin over those rows and its objective:
    earlier candidates win ties through a strict-improvement threshold.
    """
    best_obj = math.inf
    best_theta = None
    for combo in combos:
        objs = known.get(combo) if known else None
        if objs is None:
            objs = _objectives(target, quad, banks,
                               _row_candidates(combo, axes))
        row_min = float(objs.min())
        tie = 1e-12 * (1.0 + abs(row_min))
        if best_theta is None \
                or row_min < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            idx = int(np.flatnonzero(objs <= row_min + tie)[0])
            best_obj = float(objs[idx])
            best_theta = [axes[j][c] for j, c in enumerate(combo)]
            best_theta.append(axes[-1][idx])
    return np.array(best_theta), best_obj


def _refine_axes(cfg: MdeConfig, level: int, centers) -> list:
    """Candidates per axis of refinement level ``level`` >= 1.

    The spacing is that of ``coarse_grid`` points over a box of half-width
    ``B * MDE_SHRINK**level``; the window holds ``cfg.candidates()[level]``
    of them around each center, clipped to [-B, B].
    """
    # Repeated products, not MDE_SHRINK**level: a grid of at most
    # MDE_REFINE_POINTS points then sweeps the shrunk box bit for bit.
    half = cfg.B
    for _ in range(level):
        half *= MDE_SHRINK
    count = cfg.candidates()[level]
    half *= (count - 1) / (cfg.coarse_grid - 1)
    return [_axis_candidates(c, half, cfg.B, count) for c in centers]


def mde_at_x(p_hat_x: GridDensity, lambdas, f_hat: GridDensity,
             cfg: MdeConfig, *, context: MdeContext | None = None):
    """Regression values at one x by minimum distance.

    Minimizes ``||sum_k lambda_k f_hat(. - theta_k) - p_hat_x||_1`` over
    the box, every component shifting a copy of the one error density
    ``f_hat``; exact ties go to the lexicographically smallest theta.
    ``context`` carries what solves on one grid with the same weights,
    density and settings share; the result is the same with or without.
    """
    if context is None:
        context = MdeContext(p_hat_x.spec(), lambdas, f_hat, cfg)
    else:
        context.check_serves(p_hat_x, lambdas, f_hat, cfg)
    return context.solve(p_hat_x)


# ---------------------------------------------------------------------------
# separation search
# ---------------------------------------------------------------------------

def find_separation_point(data: Dataset, k: int, window: float,
                          a: float | None = None, b: float | None = None):
    """Locate the covariate where the response clusters separate most.

    At each of ``X_GRID_POINTS`` evenly spaced x over [a, b], the
    responses with covariate within ``window`` are split into K groups by
    cutting the K - 1 largest sorted-value gaps; the separation score is
    the smallest distance between group midrange centers minus twice the
    largest group half-range.  Returns the argmax (smallest x on ties)
    and the full (x, score) profile; windows with fewer than 5 K points
    score minus infinity.
    """
    k = require_int(k, "k", least=1)
    require_positive_finite(window, "window")
    _require_domain(a, b)
    a = float(data.x.min()) if a is None else float(a)
    b = float(data.x.max()) if b is None else float(b)
    if not a < b:
        raise ValueError("domain requires a < b")
    xs = np.linspace(a, b, X_GRID_POINTS)
    if k == 1:
        # Nothing to separate; every window scores infinity.
        profile = [(float(x), math.inf) for x in xs]
        return float(0.5 * (a + b)), profile

    order = np.argsort(data.x, kind="stable")
    x_sorted = data.x[order]
    y_sorted = data.y[order]
    min_count = SEP_MIN_WINDOW_FACTOR * k
    profile = []
    best_x, best_sep = None, -math.inf
    for x in xs:
        i = np.searchsorted(x_sorted, x - window, side="left")
        j = np.searchsorted(x_sorted, x + window, side="right")
        ys = np.sort(y_sorted[i:j])
        if ys.size < min_count:
            profile.append((float(x), -math.inf))
            continue
        bounds = widest_gap_bounds(np.diff(ys), k)
        centers, half_ranges = [], []
        for lo_i, hi_i in zip(bounds[:-1], bounds[1:]):
            chunk = ys[lo_i:hi_i]
            centers.append(0.5 * (chunk[0] + chunk[-1]))
            half_ranges.append(0.5 * (chunk[-1] - chunk[0]))
        centers = np.array(centers)
        sep = float(np.diff(centers).min() - 2.0 * max(half_ranges))
        profile.append((float(x), sep))
        if sep > best_sep:
            best_sep = sep
            best_x = float(x)
    if best_x is None:
        raise InsufficientDataError(
            f"no window of half-width {window:g} holds {min_count} points"
        )
    return best_x, profile


# ---------------------------------------------------------------------------
# full regression pipeline
# ---------------------------------------------------------------------------

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _solver_pool() -> ThreadPoolExecutor:
    """The process-wide pool for per-x solves, created on first use.

    It holds one thread per CPU the process may run on.  Concurrent fits
    all submit into it, so they share the cores instead of each adding
    threads of its own.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = (len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="demix-mde")
        return _pool


def _forget_pool_in_child() -> None:
    # A forked child has none of the parent's worker threads, so the
    # parent's pool would queue work that never runs.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def fit_mixed_regression(data: Dataset, k: int, sigma: float,
                         x0: float | None = None,
                         a: float | None = None, b: float | None = None,
                         bandwidth: BandwidthSchedule | None = None,
                         proj_cfg: ProjectionConfig | None = None,
                         denoise: DenoiseConfig | None = None,
                         mde_cfg: MdeConfig | None = None,
                         n_x_grid: int = X_GRID_POINTS) -> RegressionFit:
    """Estimate the regression curves of a K-component mixed regression.

    The mixture is fitted to the conditional density at ``x0`` (found by
    the separation search when not supplied; clamped into the interior
    when it sits at the boundary).  The per-x regression values then come
    from minimum-distance solves against the pooled error density
    ``sum_k lambda_k f_k``; empty-window grid points are interpolated
    from their neighbors and flagged.
    """
    n = len(data)
    k = require_int(k, "k", least=1)
    n_x_grid = require_int(n_x_grid, "n_x_grid", least=1)
    if n < 50 * k:
        raise InsufficientDataError(
            f"need at least 50 K = {50 * k} samples, got {n}"
        )
    require_positive_finite(sigma, "sigma")
    if x0 is not None:
        require_finite(x0, "x0")
    _require_domain(a, b)
    bandwidth = bandwidth or BandwidthSchedule.power_law()
    kde = ConditionalKde(data, bandwidth, a=a, b=b)
    h = kde.h

    if x0 is None:
        x0, _ = find_separation_point(data, k, window=h, a=kde.a, b=kde.b)

    y_abs = float(np.abs(data.y).max())
    y_grid = response_grid(float(data.y.min()), float(data.y.max()), sigma,
                           h)
    mde_cfg = mde_cfg or MdeConfig()
    if mde_cfg.B is None:
        mde_cfg = replace(mde_cfg, B=1.1 * y_abs)
    _table_shape(y_grid, mde_cfg)  # refuse an oversized table before work

    # Not kde.clamp: a boundary x0 is expected here and needs no
    # BoundaryWarning.
    lo_int, hi_int = kde.interior()
    x0_used = min(max(float(x0), lo_int), hi_int)
    p_hat_x0 = kde.conditional_density_at(x0_used, y_grid)
    n_local = kde.window_count(x0_used)
    mixture = fit_mixture_from_density(
        p_hat_x0, k, sigma, cfg=proj_cfg, denoise=denoise, n_hint=n_local
    )

    # Pooled error density: the model asserts one common f, so average
    # the per-component recoveries by their weights.
    f_grid = mixture.f_hats[0].spec()
    pooled_vals = np.zeros(f_grid.n_points)
    for lam, f in zip(mixture.lambdas_hat, mixture.f_hats):
        pooled_vals += lam * f.values
    f_pooled = GridDensity(f_grid.lo, f_grid.hi, pooled_vals,
                           normalized=True)

    lambdas = mixture.lambdas_hat
    context = MdeContext(y_grid, lambdas, f_pooled, mde_cfg)

    def solve(x):
        try:
            p_hat_x = kde.conditional_density_at(float(x), y_grid)
        except EmptyWindowError:
            return None
        return mde_at_x(p_hat_x, lambdas, f_pooled, mde_cfg, context=context)

    xs = np.linspace(lo_int, hi_int, n_x_grid)
    thetas = np.full((n_x_grid, k), math.nan)
    objectives = np.full(n_x_grid, math.nan)
    failed = np.zeros(n_x_grid, dtype=bool)
    for i, solved in enumerate(_solver_pool().map(solve, xs)):
        if solved is None:
            failed[i] = True
        else:
            thetas[i], objectives[i] = solved
    if np.all(failed):
        raise EmptyWindowError(
            "every x-grid window was empty; bandwidth too small for n"
        )
    if np.any(failed):
        good = ~failed
        for j in range(k):
            thetas[failed, j] = np.interp(xs[failed], xs[good],
                                          thetas[good, j])

    diagnostics = {
        "h": h, "n": n, "B": mde_cfg.B, "n_local_x0": n_local,
        "mde_resolution": mde_cfg.resolution() * mde_cfg.B,
        "mde_candidates": mde_cfg.candidates(),
        "mde_lattice_unit": context.unit, "mde_phases": context.phases,
    }
    return RegressionFit(
        x_grid=tuple(float(v) for v in xs),
        m_hat=tuple(tuple(float(v) for v in thetas[:, j]) for j in range(k)),
        mixture=mixture,
        per_x_objective=tuple(float(v) for v in objectives),
        x0_used=float(x0_used),
        interpolated=tuple(bool(v) for v in failed),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_regression_fit(fit: RegressionFit,
                            truth: MixedRegressionModel) -> dict:
    """Error report for a fit against the generating model.

    Components are aligned by sorting both weight vectors ascending (the
    fit already is); the best-permutation curve error is also reported,
    as a diagnostic only, to separate label mistakes from value mistakes.
    When labels flip between grid points no single permutation fits the
    whole grid, so the pointwise-pairing error (best pairing chosen per x,
    then averaged) is reported as well.
    """
    if fit.k != truth.k:
        raise ValueError("fit and truth must have the same K")
    xs = np.asarray(fit.x_grid)
    if xs.min() < truth.a - 1e-9 or xs.max() > truth.b + 1e-9:
        raise ValueError("fit grid extends beyond the model domain")

    order = np.argsort(truth.lambdas, kind="stable")
    lam_true = np.asarray(truth.lambdas)[order]
    lam_err = float(np.max(np.abs(np.asarray(fit.lambdas_sorted())
                                  - lam_true)))

    true_curves = truth.curve_values(xs)[order]
    est_curves = np.asarray(fit.m_hat)
    diff = np.abs(est_curves - true_curves)
    m_l1 = np.trapezoid(diff, xs, axis=1)
    m_mean = diff.mean(axis=1)

    f_errs = [l1_distance(f_hat, truth.error_density(f_hat.spec()))
              for f_hat in fit.mixture.f_hats]

    best_perm = None
    best_perm_mean = math.inf
    best_perm_l1 = math.inf
    perm_maxes = []
    for perm in itertools.permutations(range(fit.k)):
        permuted = est_curves[list(perm)]
        d = np.abs(permuted - true_curves)
        perm_maxes.append(d.max(axis=0))
        mean_err = float(d.mean(axis=1).max())
        if mean_err < best_perm_mean:
            best_perm_mean = mean_err
            best_perm_l1 = float(np.trapezoid(d, xs, axis=1).max())
            best_perm = perm
    # Per-x pairing: labels may flip between grid points, so pick the best
    # permutation separately at each x before averaging.
    pointwise = float(np.min(np.stack(perm_maxes), axis=0).mean())

    return {
        "lambda_error_sorted": lam_err,
        "m_l1_errors": [float(v) for v in m_l1],
        "m_l1_max": float(m_l1.max()),
        "m_mean_abs_errors": [float(v) for v in m_mean],
        "m_mean_abs_max": float(m_mean.max()),
        "f_l1_errors": [float(v) for v in f_errs],
        "f_l1_max": float(max(f_errs)),
        "best_perm_m_mean_abs_max": best_perm_mean,
        "best_perm_m_l1_max": best_perm_l1,
        "best_perm": list(best_perm),
        "pointwise_pairing_m_mean": pointwise,
        "x0_used": fit.x0_used,
    }
