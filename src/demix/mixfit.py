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

import json
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
    density_mean,
    gaussian_blur_values,
    weighted_l1_lp,
)

ATOM_PRUNE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9
MAX_THRESHOLD_RETRIES = 5


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionConfig:
    """Controls the L¹ projection onto finite Gaussian mixtures.

    ``L`` and ``M`` default to None and are resolved by the fitting
    pipeline: L = ceil(sqrt(n)) atoms, M = 1.1 times the largest absolute
    response, so the atom grid [-M, M] strictly contains the data hull.
    ``y_grid`` defaults to 2048 points over the data range widened by 6
    sigma (or the bandwidth, if larger).  It applies to vanilla fits only:
    ``fit_mixed_regression`` builds its own response grid and rejects a
    set ``y_grid``.
    """

    L: int | None = None
    M: float | None = None
    y_grid: GridSpec | None = None
    solver_tol: float = 1e-8
    max_iters: int = 5000

    def __post_init__(self):
        if self.L is not None and self.L < 1:
            raise ValueError("L must be at least 1")
        if self.M is not None and self.M <= 0:
            raise ValueError("M must be positive")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class DenoiseConfig:
    """Smoothing width and threshold, fixed or derived from the fit.

    On the auto schedule both come from the achieved projection objective
    v through d = clip(c * (-log(v + 1e-12))^(-1/2), 1e-3, 1) with the
    plug-in constant c = 1/8: the smoothing width is d^(1/4) and the
    threshold d^(1/2).  The constant keeps the width below the component
    separations this pipeline is expected to resolve (unit-order scales)
    while preserving the schedule shape; the fourth root makes the width
    insensitive to it otherwise.  A manual schedule pins both numbers.
    """

    schedule: str = "auto"
    delta: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.schedule not in ("auto", "manual"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "manual":
            if self.delta is None or self.t is None:
                raise ValueError("manual schedule needs delta and t")
        for name in ("delta", "t"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def manual(cls, delta: float, t: float) -> "DenoiseConfig":
        return cls(schedule="manual", delta=delta, t=t)

    def resolve(self, objective: float) -> tuple[float, float]:
        """Concrete (delta, t) given the projection objective."""
        if self.schedule == "manual":
            return (self.delta, self.t)
        inner = max(-math.log(objective + 1e-12), 1e-12)
        d = min(max(0.125 * inner ** -0.5, 1e-3), 1.0)
        delta = self.delta if self.delta is not None else d ** 0.25
        t = self.t if self.t is not None else d ** 0.5
        return (delta, t)


@dataclass(frozen=True)
class ProjectionResult:
    """Projected mixing measure plus solve metadata."""

    measure: DiscreteMeasure
    objective: float
    converged: bool


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
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "lambdas_hat": list(self.lambdas_hat),
            "mus_hat": list(self.mus_hat),
            "f_hats": [json.loads(f.to_json()) for f in self.f_hats],
            "cells": [[*map(float, c)] for c in self.cells],
            "g_hat": json.loads(self.g_hat.to_json()),
            "e_hats": (None if self.e_hats is None else
                       [json.loads(e.to_json()) for e in self.e_hats]),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MixtureFit":
        e_hats = obj.get("e_hats")
        return cls(
            k=obj["k"],
            lambdas_hat=tuple(obj["lambdas_hat"]),
            mus_hat=tuple(obj["mus_hat"]),
            f_hats=tuple(GridDensity.from_json(json.dumps(f), normalized=True)
                         for f in obj["f_hats"]),
            cells=tuple((float(lo), float(hi)) for lo, hi in obj["cells"]),
            g_hat=DiscreteMeasure.from_json(json.dumps(obj["g_hat"])),
            e_hats=(None if e_hats is None else
                    tuple(IntervalSet.from_json(json.dumps(e))
                          for e in e_hats)),
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
    A solver that stops on its iteration cap still returns its best
    iterate, flagged as not converged.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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
    w, objective, optimal = weighted_l1_lp(
        design, p_hat.values, p_hat.trapezoid_weights(),
        tol=cfg.solver_tol, maxiter=cfg.max_iters,
    )
    keep = w > ATOM_PRUNE_TOL
    if not np.any(keep):
        keep = w == w.max()
    measure = DiscreteMeasure(atoms[keep], w[keep] / w[keep].sum())
    return ProjectionResult(measure, objective, optimal)


def smooth(g: DiscreteMeasure, delta: float, eval_grid: GridSpec
           ) -> GridDensity:
    """Box-smooth a discrete measure: the density of g * Uniform[-d, d].

    Values are exact cell averages, so captured mass integrates exactly;
    the grid must resolve the box (spacing at most delta / 4).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
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
    if t <= 0:
        raise ValueError("threshold must be positive")
    if k < 1:
        raise ValueError("K must be at least 1")
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
    if k == 1:
        return [IntervalSet(intervals)]
    gaps = np.array([intervals[i + 1][0] - intervals[i][1]
                     for i in range(len(intervals) - 1)])
    # Stable sort on -gap: equal gaps cut left to right.
    cut = np.sort(np.argsort(-gaps, kind="stable")[:k - 1])
    bounds = [0, *(c + 1 for c in cut), len(intervals)]
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

    Each cell contributes its atom mass as the component weight; the
    conditional atoms, shifted to mean zero, are re-convolved with the
    Gaussian on the requested grid to give the centered density.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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
        # Wide internal grid so the mean of the blurred conditional is
        # read off a fully covered density.
        a_lo, a_hi = part.support_bounds()
        inner = GridSpec(a_lo - 6.5 * sigma, a_hi + 6.5 * sigma, 4096)
        mu = density_mean(convolve_gaussian(part, sigma, inner))
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
    if k < 1:
        raise ValueError("K must be at least 1")
    cfg = cfg or ProjectionConfig()
    denoise = denoise or DenoiseConfig()
    grid = p_hat.spec()
    if cfg.L is None:
        if n_hint is None:
            raise ValueError("need n_hint to default L = ceil(sqrt(n))")
        cfg = replace(cfg, L=max(k, math.ceil(math.sqrt(n_hint))))
    if cfg.L < k:
        raise ValueError(f"L={cfg.L} must be at least K={k}")
    if cfg.M is None:
        hull = max(abs(grid.lo), abs(grid.hi))
        cfg = replace(cfg, M=1.1 * hull)

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
            # Only the auto schedule relaxes its own threshold; a manual
            # threshold is the caller's to adjust.
            if denoise.schedule != "auto" or retries >= MAX_THRESHOLD_RETRIES:
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
    project-smooth-denoise pipeline; all tuning defaults are derived from
    the data (see ``ProjectionConfig`` and ``DenoiseConfig``).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be a vector")
    n = samples.size
    if k < 1:
        raise ValueError("K must be at least 1")
    if n < 10 * k:
        raise InsufficientDataError(
            f"need at least 10 K = {10 * k} samples, got {n}"
        )
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    cfg = cfg or ProjectionConfig()
    bandwidth = bandwidth or BandwidthSchedule()
    h = bandwidth.bandwidth(n)

    y_lo, y_hi = float(samples.min()), float(samples.max())
    pad = max(6.0 * sigma, h)
    y_grid = cfg.y_grid or GridSpec(y_lo - pad, y_hi + pad, 2048)
    if cfg.M is None:
        cfg = replace(cfg, M=1.1 * max(abs(y_lo), abs(y_hi)))
    p_hat = univariate_kde(samples, h, y_grid)
    fit = fit_mixture_from_density(p_hat, k, sigma, cfg=cfg,
                                   denoise=denoise, n_hint=n)
    fit.diagnostics.update({"h": h, "n": n})
    return fit


def outlier_mass(g: DiscreteMeasure, support_pairs, eta: float) -> float:
    """Mass of atoms farther than ``eta`` from a union of intervals.

    ``support_pairs`` are (lo, hi) with lo == hi allowed for points, so
    true mixing supports of every kind can be passed directly.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    pairs = [(float(lo), float(hi)) for lo, hi in support_pairs]
    if not pairs or any(hi < lo for lo, hi in pairs):
        raise ValueError("support must be nonempty intervals with lo <= hi")
    dist = np.full(g.n_atoms, np.inf)
    for lo, hi in pairs:
        d = np.maximum(np.maximum(lo - g.locations, g.locations - hi), 0.0)
        dist = np.minimum(dist, d)
    return float(g.weights[dist > eta].sum())
