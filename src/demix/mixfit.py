"""Project-smooth-denoise estimation for nonparametric location mixtures.

The estimator recovers the component weights and the component error
densities of a mixture whose mixing measure splits into well separated
clumps.  The stages:

1. project a density estimate onto finite Gaussian mixtures in L¹,
   giving a discrete mixing estimate on a fixed atom grid;
2. smooth the atoms with a narrow box kernel so clumps become plateaus;
3. threshold the smoothed density and group the super-level intervals
   into K clusters, cutting the largest gaps;
4. extend the clusters to a Voronoi partition of the whole line;
5. read weights off the partition cells and re-convolve the per-cell
   conditional atoms into centered component densities.

The projection fixes atom locations and optimizes only the weights, which
turns a nonconvex location search into a linear program over the simplex;
the atom-grid resolution is folded into the transport-distance tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateComponentError,
    InsufficientDataError,
    ThresholdTooHighError,
    UnderResolutionError,
)
from .kde import BandwidthSchedule, univariate_kde
from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    IntervalSet,
    box_mixture_density,
    convolve_gaussian,
    gaussian_blur_values,
    require_int,
    require_positive_finite,
    weighted_l1_lp,
    widest_gap_bounds,
)

ATOM_PRUNE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9
MAX_THRESHOLD_RETRIES = 5
RESPONSE_GRID_POINTS = 2048
# Most projection atoms: the dense 2048 x L design then takes at most 1 GiB.
MAX_ATOMS = 2 ** 16


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionConfig:
    """Controls the L¹ projection onto finite Gaussian mixtures.

    ``L`` and ``M`` default to None and are resolved by
    ``fit_mixture_from_density``, which every fit goes through:
    L = ceil(sqrt(n)) atoms, and M = 1.1 times the largest absolute grid
    point where the projected density is positive.  So the atom grid
    [-M, M] strictly contains the density's support; for the box-kernel
    estimates that is the data hull widened by the bandwidth.
    ``L`` may not exceed ``MAX_ATOMS`` (2**16); the default reaches it
    only above n of about 4.3e9.  ``max_iters`` caps the HiGHS simplex
    iterations summed over every round of the LP's row generation, which
    solves the projection in its dual form (see
    ``measures.weighted_l1_lp``); the feasibility tolerance is fixed at
    ``measures.LP_FEASIBILITY_TOL``.
    """

    L: int | None = None
    M: float | None = None
    max_iters: int = 5000

    def __post_init__(self):
        if self.L is not None:
            object.__setattr__(self, "L", require_int(self.L, "L"))
        object.__setattr__(self, "max_iters",
                           require_int(self.max_iters, "max_iters", least=1))
        if self.L is not None and not 1 <= self.L <= MAX_ATOMS:
            raise ValueError(f"L={self.L} must lie between 1 and the limit "
                             f"of {MAX_ATOMS} (2**16) projection atoms")
        if self.M is not None:
            require_positive_finite(self.M, "M")


@dataclass(frozen=True)
class DenoiseConfig:
    """Smoothing width and threshold, each given or derived from the fit.

    A value left unset is derived from the achieved projection objective
    v through d = clip(c * (-log(v + 1e-12))^(-1/2), 1e-3, 1) with the
    plug-in constant c = 1/8: the smoothing width is d^(1/4) and the
    threshold d^(1/2).  The constant keeps the width below the component
    separations this pipeline is expected to resolve (unit-order scales)
    while preserving the schedule shape; the fourth root makes the width
    insensitive to it otherwise.  A given value is used as is: a derived
    threshold whose level set is empty or too fragmented is halved up to
    ``MAX_THRESHOLD_RETRIES`` times, a given one is never relaxed.
    """

    delta: float | None = None
    t: float | None = None

    def __post_init__(self):
        for name in ("delta", "t"):
            v = getattr(self, name)
            if v is not None:
                require_positive_finite(v, name)

    def resolve(self, objective: float) -> tuple[float, float]:
        """Concrete (delta, t) given the projection objective."""
        inner = max(-math.log(objective + 1e-12), 1e-12)
        d = min(max(0.125 * inner ** -0.5, 1e-3), 1.0)
        delta = self.delta if self.delta is not None else d ** 0.25
        t = self.t if self.t is not None else d ** 0.5
        return (delta, t)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected mixing measure plus solve metadata: the HiGHS status, the
    iterations summed over all runs, the number of runs, and the atoms in
    the final model (the rows of the dual LP)."""

    measure: DiscreteMeasure
    objective: float
    converged: bool
    iterations: int
    rounds: int
    atoms: int


# ---------------------------------------------------------------------------
# fit container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureFit:
    """Recovered mixture: weights, centers, centered component densities.

    Components are sorted by weight ascending (ties by center), the
    label-free order used for reporting.  ``cells`` holds the Voronoi
    partition of the line as (lo, hi) pairs, half-open on the right, with
    the outer cells infinite; ``e_hats`` holds the thresholded clusters
    when the fit came from the full pipeline.
    """

    k: int
    lambdas_hat: tuple
    mus_hat: tuple
    f_hats: tuple
    cells: tuple
    g_hat: DiscreteMeasure
    e_hats: tuple | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.k == len(self.lambdas_hat) == len(self.mus_hat)
                == len(self.f_hats) == len(self.cells)):
            raise ValueError("component fields must all have length k")
        total = sum(self.lambdas_hat)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN fails it
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        if not all(lam >= 0 for lam in self.lambdas_hat):
            raise ValueError(f"weights must be nonnegative, got "
                             f"{list(self.lambdas_hat)}")
        if not np.isfinite(np.asarray(self.mus_hat, dtype=float)).all():
            raise ValueError(f"mus_hat must be finite, got "
                             f"{list(self.mus_hat)}")

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "lambdas_hat": list(self.lambdas_hat),
            "mus_hat": list(self.mus_hat),
            "f_hats": [f.to_json_obj() for f in self.f_hats],
            "cells": [[*map(float, c)] for c in self.cells],
            "g_hat": self.g_hat.to_json_obj(),
            "e_hats": (None if self.e_hats is None else
                       [e.to_json_obj() for e in self.e_hats]),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MixtureFit":
        e_hats = obj.get("e_hats")
        return cls(
            k=obj["k"],
            lambdas_hat=tuple(obj["lambdas_hat"]),
            mus_hat=tuple(obj["mus_hat"]),
            f_hats=tuple(GridDensity.from_json_obj(f, normalized=True)
                         for f in obj["f_hats"]),
            cells=tuple((float(lo), float(hi)) for lo, hi in obj["cells"]),
            g_hat=DiscreteMeasure.from_json_obj(obj["g_hat"]),
            e_hats=(None if e_hats is None else
                    tuple(IntervalSet.from_json_obj(e) for e in e_hats)),
            diagnostics=obj.get("diagnostics", {}),
        )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def project_to_gaussian_mixture(p_hat: GridDensity, sigma: float,
                                cfg: ProjectionConfig) -> ProjectionResult:
    """L¹-project a density onto Gaussian mixtures with fixed atoms.

    The atoms are L equally spaced points on [-M, M]; only the simplex
    weights are optimized, so the discretized objective
    ``||sum_l w_l phi_sigma(. - a_l) - p_hat||_1`` is a linear program.
    A solve that ends with a solution short of optimality is flagged as not
    converged and warns with ``ProjectionWarning``; one that ends without
    any solution (none is read when HiGHS stops on ``max_iters``), or
    with atom weights of zero total, raises ``ProjectionError``.
    """
    require_positive_finite(sigma, "sigma")
    if not p_hat.normalized:
        raise ValueError("p_hat must be flagged normalized")
    if cfg.L is None or cfg.M is None:
        raise ValueError("projection needs concrete L and M "
                         "(the fit pipeline resolves defaults)")
    atoms = np.linspace(-cfg.M, cfg.M, cfg.L) if cfg.L > 1 \
        else np.array([0.0])
    pts = p_hat.grid
    design = np.empty((pts.size, atoms.size))
    for j, a in enumerate(atoms):
        design[:, j] = gaussian_blur_values(
            np.array([a]), np.array([1.0]), sigma, pts
        )
    lp = weighted_l1_lp(design, p_hat.values, p_hat.trapezoid_weights(),
                        maxiter=cfg.max_iters)
    w, objective, optimal, iterations = lp
    keep = w > ATOM_PRUNE_TOL
    measure = DiscreteMeasure(atoms[keep], w[keep] / w[keep].sum())
    return ProjectionResult(measure, objective, optimal, iterations,
                            lp.rounds, lp.atoms)


def smooth(g: DiscreteMeasure, delta: float, eval_grid: GridSpec
           ) -> GridDensity:
    """Box-smooth a discrete measure: the density of g * Uniform[-d, d].

    Values are exact cell averages, so captured mass integrates exactly;
    the grid must resolve the box (spacing at most delta / 4).
    """
    require_positive_finite(delta, "delta")
    if eval_grid.spacing > delta / 4.0 + 1e-15:
        raise ValueError(
            f"grid spacing {eval_grid.spacing:.6g} too coarse for "
            f"delta={delta:.6g}; need spacing <= delta/4"
        )
    return box_mixture_density(g.locations, g.weights, delta, eval_grid)


def threshold_partition(g_smooth: GridDensity, t: float,
                        k: int) -> list[IntervalSet]:
    """Split the super-level set {x : g(x) > t} into K interval clusters.

    Maximal runs above the threshold become intervals spanning their grid
    cells; single-linkage clustering then cuts the K - 1 widest gaps
    between consecutive intervals (leftmost first on exact ties).
    """
    require_positive_finite(t, "threshold")
    k = require_int(k, "k", least=1)
    above = g_smooth.values > t
    if not np.any(above):
        raise ThresholdTooHighError(
            f"level set {{g > {t:g}}} is empty (max g = "
            f"{float(g_smooth.values.max()):.6g})"
        )
    pts = g_smooth.grid
    half = 0.5 * g_smooth.spacing
    padded = np.concatenate([[False], above, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    starts, stops = flips[::2], flips[1::2] - 1
    intervals = [(pts[i] - half, pts[j] + half)
                 for i, j in zip(starts, stops)]
    if len(intervals) < k:
        raise UnderResolutionError(
            f"level set has {len(intervals)} maximal intervals, "
            f"need at least {k}"
        )
    gaps = np.array([intervals[i + 1][0] - intervals[i][1]
                     for i in range(len(intervals) - 1)])
    bounds = widest_gap_bounds(gaps, k)
    return [IntervalSet(intervals[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def voronoi_extend(e_hats) -> list[tuple[float, float]]:
    """Extend ordered clusters to half-open cells covering the line.

    Interior boundaries sit midway between the right end of one cluster
    and the left end of the next; the outer cells run to infinity.
    """
    if not e_hats:
        raise ValueError("need at least one cluster")
    spans = [(e.lo, e.hi) for e in e_hats]
    for (_, hi_prev), (lo_next, _) in zip(spans, spans[1:]):
        if lo_next < hi_prev:
            raise ValueError("clusters must be ordered and disjoint")
    bounds = [-math.inf]
    for (_, hi_prev), (lo_next, _) in zip(spans, spans[1:]):
        bounds.append(0.5 * (hi_prev + lo_next))
    bounds.append(math.inf)
    return [(bounds[i], bounds[i + 1]) for i in range(len(spans))]


def estimate_components(g: DiscreteMeasure, cells, sigma: float,
                        grid: GridSpec, e_hats=None,
                        diagnostics: dict | None = None) -> MixtureFit:
    """Read component weights and centered densities off a cell partition.

    Each cell contributes its atom mass as the component weight and the
    mean of its conditional atoms as the component center; the conditional
    atoms, shifted by that center to mean zero, are re-convolved with the
    Gaussian on the requested grid to give the centered density.
    """
    require_positive_finite(sigma, "sigma")
    cells = [(float(lo), float(hi)) for lo, hi in cells]
    if not cells:
        raise ValueError("need at least one cell")
    if cells[0][0] != -math.inf or cells[-1][1] != math.inf:
        raise ValueError("cells must cover the whole line")
    for (lo, hi), (lo2, _) in zip(cells, cells[1:]):
        if hi != lo2:
            raise ValueError("cells must tile the line without gaps")
    components = []
    for idx, (lo, hi) in enumerate(cells):
        lam = g.mass_in(lo, hi)
        if lam < ATOM_PRUNE_TOL:
            raise DegenerateComponentError(
                f"cell [{lo:g}, {hi:g}) carries no mixing mass"
            )
        part = g.restrict(lo, hi)
        mu = part.mean()
        f_hat = convolve_gaussian(part.shift(-mu), sigma, grid)
        e_hat = None if e_hats is None else e_hats[idx]
        components.append((lam, mu, f_hat, (lo, hi), e_hat))
    components.sort(key=lambda c: (c[0], c[1]))
    lams, mus, f_hats, sorted_cells, sorted_e = zip(*components)
    return MixtureFit(
        k=len(cells),
        lambdas_hat=tuple(lams),
        mus_hat=tuple(mus),
        f_hats=tuple(f_hats),
        cells=tuple(sorted_cells),
        g_hat=g,
        e_hats=None if e_hats is None else tuple(sorted_e),
        diagnostics=diagnostics or {},
    )


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

def fit_mixture_from_density(p_hat: GridDensity, k: int, sigma: float,
                             cfg: ProjectionConfig | None = None,
                             denoise: DenoiseConfig | None = None,
                             n_hint: int | None = None) -> MixtureFit:
    """Project-smooth-denoise starting from an already-estimated density.

    ``n_hint`` stands in for the sample size behind ``p_hat`` when the
    atom count L is left to its default ceil(sqrt(n)).
    """
    k = require_int(k, "k", least=1)
    require_positive_finite(sigma, "sigma")
    cfg = cfg or ProjectionConfig()
    denoise = denoise or DenoiseConfig()
    if cfg.L is None:
        if n_hint is None:
            raise ValueError("need n_hint to default L = ceil(sqrt(n))")
        cfg = replace(cfg, L=max(k, math.ceil(math.sqrt(n_hint))))
    if cfg.L < k:
        raise ValueError(f"L={cfg.L} must be at least K={k}")
    if cfg.M is None:
        support = p_hat.grid[p_hat.values > 0]
        cfg = replace(cfg, M=1.1 * float(np.abs(support).max()))

    proj = project_to_gaussian_mixture(p_hat, sigma, cfg)
    delta, t0 = denoise.resolve(proj.objective)

    a_lo, a_hi = proj.measure.support_bounds()
    span_lo, span_hi = a_lo - 2.0 * delta, a_hi + 2.0 * delta
    n_pts = max(65, int(math.ceil((span_hi - span_lo) / (delta / 8.0))) + 1)
    g_smooth = smooth(proj.measure, delta, GridSpec(span_lo, span_hi, n_pts))

    t = t0
    retries = 0
    while True:
        try:
            e_hats = threshold_partition(g_smooth, t, k)
            break
        except (ThresholdTooHighError, UnderResolutionError):
            # Only a derived threshold is relaxed; a given one is the
            # caller's to adjust.
            if denoise.t is not None or retries >= MAX_THRESHOLD_RETRIES:
                raise
            retries += 1
            t *= 0.5

    cells = voronoi_extend(e_hats)
    half_span = max(abs(a_lo), abs(a_hi))
    comp_grid = GridSpec(-(2.0 * half_span + 6.0 * sigma + 1e-9),
                         2.0 * half_span + 6.0 * sigma + 1e-9, 4096)
    diagnostics = {
        "objective": proj.objective,
        "converged": proj.converged,
        "lp_iterations": proj.iterations,
        "lp_rounds": proj.rounds,
        "lp_atoms": proj.atoms,
        "delta": delta,
        "t_initial": t0,
        "t": t,
        "threshold_retries": retries,
        "L": cfg.L,
        "M": cfg.M,
    }
    return estimate_components(proj.measure, cells, sigma, comp_grid,
                               e_hats=e_hats, diagnostics=diagnostics)


def fit_vanilla_mixture(samples, k: int, sigma: float,
                        cfg: ProjectionConfig | None = None,
                        denoise: DenoiseConfig | None = None,
                        bandwidth: BandwidthSchedule | None = None
                        ) -> MixtureFit:
    """Recover a K-component mixture from raw samples.

    Runs the box-kernel density estimate and then the full
    project-smooth-denoise pipeline of ``fit_mixture_from_density``,
    which derives every unset tuning value from that estimate (see
    ``ProjectionConfig`` and ``DenoiseConfig``).  The estimate is positive
    on the samples plus or minus the bandwidth h, so the default atom
    range M is 1.1 times the largest absolute sample plus h, to within a
    grid spacing.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be a vector")
    n = samples.size
    k = require_int(k, "k", least=1)
    if n < 10 * k:
        raise InsufficientDataError(
            f"need at least 10 K = {10 * k} samples, got {n}"
        )
    require_positive_finite(sigma, "sigma")
    bandwidth = bandwidth or BandwidthSchedule.power_law()
    h = bandwidth.bandwidth(n)

    y_grid = response_grid(float(samples.min()), float(samples.max()),
                           sigma, h)
    p_hat = univariate_kde(samples, h, y_grid)
    fit = fit_mixture_from_density(p_hat, k, sigma, cfg=cfg,
                                   denoise=denoise, n_hint=n)
    fit.diagnostics.update({"h": h, "n": n})
    return fit


def response_grid(y_lo: float, y_hi: float, sigma: float,
                  h: float) -> GridSpec:
    """The fitters' response grid: ``RESPONSE_GRID_POINTS`` points over the
    response range ``[y_lo, y_hi]`` widened by 6 sigma or the bandwidth,
    whichever is larger."""
    pad = max(6.0 * sigma, h)
    return GridSpec(y_lo - pad, y_hi + pad, RESPONSE_GRID_POINTS)
