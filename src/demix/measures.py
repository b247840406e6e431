"""Discrete measures, grid densities, and the distances between them.

Value types
-----------
- ``DiscreteMeasure``: finitely many weighted atoms on the line.
- ``GridDensity``: density values on a uniform grid, integrated by the
  trapezoid rule.
- ``GridSpec``: lightweight description of such a grid.
- ``IntervalSet``: ordered disjoint union of bounded intervals.

Operations
----------
- ``wasserstein1``: exact 1-Wasserstein distance between discrete measures.
- ``l1_distance``: trapezoid L1 distance between densities on a shared grid.
- ``convolve_gaussian``: Gaussian blur of a discrete measure.
- ``density_mean``: first moment of a grid density.
- ``box_mixture_density``: exact grid representation of a mixture of
  uniform boxes (shared by the kernel and smoothing estimators).
- ``trapezoid_weights``: quadrature weights of a uniform grid.
- ``widest_gap_bounds``: groups of ordered items split at the widest gaps.

All types are immutable after construction and all operations are pure, so
values may be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError, ProjectionWarning

try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        MatrixFormat,
        ObjSense,
        _Highs,
        kHighsInf,
        kSolutionStatusFeasible,
    )
except ImportError as exc:
    raise ImportError(
        "demix needs scipy>=1.15: the projection LP drives the HiGHS "
        "binding scipy.optimize._highspy._core, which older releases lack"
    ) from exc

WEIGHT_TOL = 1e-12
GRID_NORM_TOL = 1e-3


def _as_finite_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def require_positive_finite(value, name: str) -> float:
    """``value`` as a ``float``; raise ``ValueError`` naming ``name``
    unless it is a real number (a numpy number counts, a bool or text
    does not) with 0 < value < inf."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):  # NaN fails every comparison
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def require_finite(value, name: str) -> float:
    """``value`` as a ``float``; raise ``ValueError`` naming ``name``
    unless it is a finite real number (a numpy number counts, a bool or
    text does not)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def require_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an ``int``; raise ``ValueError`` naming ``name``
    unless it is an integer (a numpy integer counts, a bool does not) of
    at least ``least``, when that is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``n_points`` values spanning ``[lo, hi]``."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name,
                               require_finite(getattr(self, name), name))
        object.__setattr__(self, "n_points",
                           require_int(self.n_points, "n_points", least=2))
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    def covers(self, lo: float, hi: float) -> bool:
        """Whether ``[lo, hi]`` lies inside the grid span."""
        return self.lo <= lo and hi <= self.hi


class GridDensity:
    """Nonnegative density values on a uniform grid.

    The ``normalized`` flag asserts that the trapezoid integral over
    ``[lo, hi]`` is 1 up to ``norm_tol``; constructing with the flag set
    validates that claim.
    """

    def __init__(self, lo, hi, values, *, normalized=False,
                 norm_tol=GRID_NORM_TOL):
        vals = _as_finite_1d(values, "values")
        self._spec = GridSpec(lo, hi, vals.size)
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        self._values = _frozen(vals)
        self._normalized = bool(normalized)
        if self._normalized:
            total = self.integral()
            if not abs(total - 1.0) <= norm_tol:
                raise ValueError(
                    f"flagged normalized but integrates to {total:.6g}"
                )

    @property
    def lo(self) -> float:
        return self._spec.lo

    @property
    def hi(self) -> float:
        return self._spec.hi

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n_points(self) -> int:
        return self._values.size

    @property
    def spacing(self) -> float:
        return self._spec.spacing

    @property
    def normalized(self) -> bool:
        return self._normalized

    @property
    def grid(self) -> np.ndarray:
        return self._spec.points()

    def spec(self) -> GridSpec:
        return self._spec

    def trapezoid_weights(self) -> np.ndarray:
        return trapezoid_weights(self.n_points, self.spacing)

    def integral(self) -> float:
        return float(np.trapezoid(self._values, dx=self.spacing))

    def same_grid(self, other: "GridDensity") -> bool:
        return self._spec == other._spec

    def to_json_obj(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "values": self._values.tolist()}

    @classmethod
    def from_json_obj(cls, obj: dict, *, normalized=False) -> "GridDensity":
        return cls(obj["lo"], obj["hi"], obj["values"], normalized=normalized)

    def __repr__(self):
        return (f"GridDensity(lo={self.lo:g}, hi={self.hi:g}, "
                f"n_points={self.n_points}, normalized={self._normalized})")


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------

class DiscreteMeasure:
    """Finite collection of weighted atoms on the line.

    Weights must be nonnegative with positive total.  Duplicate locations are
    permitted and merged by :meth:`normalize`, which also sorts atoms and
    rescales the total weight to exactly 1.
    """

    def __init__(self, locations, weights):
        locs = _as_finite_1d(locations, "locations")
        wts = _as_finite_1d(weights, "weights")
        if locs.size != wts.size:
            raise ValueError("locations and weights must have equal length")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = float(wts.sum())
        if total <= 0:
            raise ValueError("total weight must be positive")
        self._locations = _frozen(locs)
        self._weights = _frozen(wts)
        self._total = total

    @classmethod
    def point(cls, location: float) -> "DiscreteMeasure":
        """Unit point mass at ``location``."""
        return cls([location], [1.0])

    @property
    def locations(self) -> np.ndarray:
        return self._locations

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n_atoms(self) -> int:
        return self._locations.size

    @property
    def total_weight(self) -> float:
        return self._total

    @property
    def is_normalized(self) -> bool:
        return abs(self._total - 1.0) <= WEIGHT_TOL

    def mean(self) -> float:
        return float(np.dot(self._locations, self._weights) / self._total)

    def support_bounds(self) -> tuple[float, float]:
        positive = self._weights > 0
        locs = self._locations[positive]
        return float(locs.min()), float(locs.max())

    def normalize(self) -> "DiscreteMeasure":
        """Canonical form: sorted atoms, duplicates merged, total weight 1."""
        locs, inverse = np.unique(self._locations, return_inverse=True)
        wts = np.zeros(locs.size)
        np.add.at(wts, inverse, self._weights)
        return DiscreteMeasure(locs, wts / wts.sum())

    def shift(self, offset: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self._locations + offset, self._weights)

    def mass_in(self, lo: float, hi: float) -> float:
        """Total weight of atoms in the half-open cell ``[lo, hi)``."""
        inside = (self._locations >= lo) & (self._locations < hi)
        return float(self._weights[inside].sum())

    def restrict(self, lo: float, hi: float) -> "DiscreteMeasure":
        """Conditional measure on ``[lo, hi)``, renormalized to mass 1."""
        inside = (self._locations >= lo) & (self._locations < hi)
        if not inside.any() or self._weights[inside].sum() <= 0:
            raise ValueError(f"no mass in [{lo:g}, {hi:g})")
        wts = self._weights[inside]
        return DiscreteMeasure(self._locations[inside], wts / wts.sum())

    def to_json_obj(self) -> dict:
        return {"atoms": [[float(a), float(w)]
                          for a, w in zip(self._locations, self._weights)]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DiscreteMeasure":
        atoms = obj["atoms"]
        return cls([a[0] for a in atoms], [a[1] for a in atoms])

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        return (a._locations.shape == b._locations.shape
                and bool(np.all(a._locations == b._locations))
                and bool(np.all(a._weights == b._weights)))

    def __hash__(self):
        canon = self.normalize()
        return hash((canon._locations.tobytes(), canon._weights.tobytes()))

    def __repr__(self):
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, total={self._total:g})"


# ---------------------------------------------------------------------------
# interval sets
# ---------------------------------------------------------------------------

class IntervalSet:
    """Ordered disjoint union of bounded open-ended intervals ``(lo, hi)``."""

    def __init__(self, intervals):
        cleaned = []
        prev_hi = -math.inf
        for pair in intervals:
            lo, hi = float(pair[0]), float(pair[1])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            if not lo < hi:
                raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
            if lo < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            cleaned.append((lo, hi))
            prev_hi = hi
        if not cleaned:
            raise ValueError("interval set must be nonempty")
        self._intervals = tuple(cleaned)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return self._intervals

    @property
    def lo(self) -> float:
        return self._intervals[0][0]

    @property
    def hi(self) -> float:
        return self._intervals[-1][1]

    def __len__(self):
        return len(self._intervals)

    def to_json_obj(self) -> dict:
        return {"intervals": [list(p) for p in self._intervals]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IntervalSet":
        return cls(obj["intervals"])

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self):
        return hash(self._intervals)

    def __repr__(self):
        inner = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self._intervals)
        return f"IntervalSet({inner})"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _require_normalized(m: DiscreteMeasure, name: str) -> DiscreteMeasure:
    if not m.is_normalized:
        raise ValueError(f"{name} must be normalized (total weight 1)")
    return m.normalize()


def wasserstein1(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Exact 1-Wasserstein distance between two normalized discrete measures.

    Computed as the area between the two cumulative distribution functions,
    which on the line equals the optimal transport cost with unit distance
    cost.  Exact for discrete measures, O(n log n).
    """
    a = _require_normalized(a, "a")
    b = _require_normalized(b, "b")
    locs = np.concatenate([a.locations, b.locations])
    signed = np.concatenate([a.weights, -b.weights])
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    cdf_gap = np.cumsum(signed[order])[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(locs)))


def trapezoid_weights(n_points: int, spacing: float) -> np.ndarray:
    """Trapezoid-rule weights of ``n_points`` values ``spacing`` apart."""
    w = np.full(n_points, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def widest_gap_bounds(gaps, k: int) -> list:
    """Bounds ``[0, ..., len(gaps) + 1]`` of the ``k`` groups that cutting
    the ``k - 1`` widest ``gaps`` between ordered items leaves; equal gaps
    are cut left to right."""
    cut = np.sort(np.argsort(-gaps, kind="stable")[:k - 1])
    return [0, *(c + 1 for c in cut), len(gaps) + 1]


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    """Trapezoid approximation of the L1 distance on a shared grid."""
    if not a.same_grid(b):
        raise ValueError("densities must share the same grid")
    return float(np.trapezoid(np.abs(a.values - b.values), dx=a.spacing))


def gaussian_blur_values(locations, weights, sigma: float,
                         points) -> np.ndarray:
    """Evaluate sum_i w_i * phi_sigma(points - a_i) at arbitrary points."""
    require_positive_finite(sigma, "sigma")
    locations = np.asarray(locations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    points = np.asarray(points, dtype=float)
    values = np.zeros(points.shape)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    # Chunked so finely discretized measures do not allocate a huge outer
    # product.
    step = max(1, int(2e6 / max(points.size, 1)))
    for start in range(0, locations.size, step):
        z = (points[None, :] - locations[start:start + step, None]) / sigma
        values += weights[start:start + step] @ (norm * np.exp(-0.5 * z * z))
    return values


def convolve_gaussian(g: DiscreteMeasure, sigma: float,
                      grid: GridSpec) -> GridDensity:
    """Density of ``g`` blurred by a centered Gaussian of scale ``sigma``.

    The output is flagged normalized when ``g`` is normalized and the grid
    spans every atom by at least six sigma on both sides.
    """
    values = gaussian_blur_values(g.locations, g.weights, sigma, grid.points())
    lo, hi = g.support_bounds()
    covered = g.is_normalized and grid.covers(lo - 6 * sigma, hi + 6 * sigma)
    return GridDensity(grid.lo, grid.hi, values, normalized=covered)


def density_mean(d: GridDensity) -> float:
    """First moment of a normalized grid density (trapezoid rule)."""
    if not d.normalized:
        raise ValueError("density_mean requires a normalized density")
    return float(np.trapezoid(d.grid * d.values, dx=d.spacing))


# ---------------------------------------------------------------------------
# box mixtures
# ---------------------------------------------------------------------------

def _box_mixture_cdf(points, locs_sorted, cum_weights, cum_weighted_locs,
                     half_width):
    """CDF of sum_i w_i * Uniform[a_i - h, a_i + h] at the given points."""
    points = np.asarray(points, dtype=float)
    i_lo = np.searchsorted(locs_sorted, points - half_width, side="right")
    i_hi = np.searchsorted(locs_sorted, points + half_width, side="left")
    full = cum_weights[i_lo]
    mid_w = cum_weights[i_hi] - cum_weights[i_lo]
    mid_wa = cum_weighted_locs[i_hi] - cum_weighted_locs[i_lo]
    partial = (mid_w * (points + half_width) - mid_wa) / (2.0 * half_width)
    return full + partial


def box_mixture_density(locations, weights, half_width: float,
                        grid: GridSpec) -> GridDensity:
    """Grid representation of a weighted mixture of uniform boxes.

    Each atom contributes a box of half-width ``half_width`` around its
    location.  Values are exact averages over the trapezoid quadrature cells,
    so the trapezoid integral recovers the mass inside the grid exactly; at
    grid points whose cell contains no box edge the average coincides with
    the pointwise density.
    """
    require_positive_finite(half_width, "half_width")
    locs = _as_finite_1d(locations, "locations")
    wts = _as_finite_1d(weights, "weights")
    if locs.size != wts.size:
        raise ValueError("locations and weights must have equal length")
    order = np.argsort(locs, kind="stable")
    return _sorted_box_mixture_density(locs[order], wts[order], half_width,
                                       grid)


def _sorted_box_mixture_density(locs, wts, half_width: float,
                                grid: GridSpec) -> GridDensity:
    """``box_mixture_density`` for finite locations already sorted ascending.

    With equal weights, ``np.sort`` gives the same arrays as the stable
    argsort and its gathers, except that tied 0.0 and -0.0 may swap, which
    cannot change a cumulative sum's nonzero values or the output.  Callers
    holding equal-weight samples pass ``np.sort(samples)`` and skip the
    permutation.
    """
    # Each cumulative sum is written in place behind its leading zero;
    # concatenating would hold two sample-sized copies of it at once.
    cum_w = np.zeros(wts.size + 1)
    np.cumsum(wts, out=cum_w[1:])
    cum_wa = np.zeros(wts.size + 1)
    np.cumsum(np.multiply(wts, locs, out=cum_wa[1:]), out=cum_wa[1:])

    points = grid.points()
    bounds = np.empty(grid.n_points + 1)
    bounds[0] = grid.lo
    bounds[-1] = grid.hi
    bounds[1:-1] = 0.5 * (points[:-1] + points[1:])
    cdf = _box_mixture_cdf(bounds, locs, cum_w, cum_wa, half_width)
    masses = np.diff(cdf)
    quad = trapezoid_weights(grid.n_points, grid.spacing)
    values = np.maximum(masses / quad, 0.0)
    total = float(wts.sum())
    covered = (abs(total - 1.0) <= WEIGHT_TOL
               and grid.covers(locs[0] - half_width, locs[-1] + half_width))
    return GridDensity(grid.lo, grid.hi, values, normalized=covered,
                       norm_tol=1e-9)


# The projection LP and its HiGHS plumbing live here so mixfit stays free of
# the solver binding.

# The projection LP in its dual form (Barrodale & Roberts 1973, discrete L1
# approximation).  Minimising quad @ |design @ w - target| over the simplex
# has the dual
#     maximise target @ y + z  subject to  design[:, a] @ y + z <= 0 for
#     each atom a,  -quad <= y <= quad,  z free,
# with the same optimal value.  The atom weights are the duals of the atom
# rows, and sum(w) = 1 is the dual condition of the free column z.  HiGHS
# gets one row per atom in the model over n_grid + 1 columns, where the
# primal form needs n_grid + 1 rows and a residual pair per grid point, and
# each y_i is boxed, so it moves from bound to bound without a pivot.
#
# HiGHS ignores every constraint-matrix entry with |a| <= small_matrix_value
# (default 1e-9) when it loads a model.  Leaving those entries out of the
# sparse matrix gives HiGHS the same model without building, copying and
# discarding them; the Gaussian design is mostly such entries.
HIGHS_SMALL_MATRIX_VALUE = 1e-9
# Primal and dual feasibility tolerance of the projection LP, and the row
# violation past which an atom enters the model.  At 1e-8 the weights of a
# 2048 x 200 two-box design end 3.9e-9 off the optimum and the objective
# 1e-7 above it; at 1e-9, 1e-14 off in about as many iterations.
LP_FEASIBILITY_TOL = 1e-9
# Largest miss of the simplex row sum(w) = 1 that passes without a warning.
# The weights sum to 1 up to z's reduced cost, within 6.5e-10 over 22,000
# random test LPs with near-threshold entries.
SIMPLEX_ROW_TOL = 100 * LP_FEASIBILITY_TOL
# Most atoms the projection LP starts from.  Up to this many every atom is
# in the first and only round; past it the first round takes every
# ceil(L / LP_FIRST_ROUND_ATOMS)-th atom and the rest enter by pricing.  On
# the vanilla fit's 2048-point grids that beats one solve over every atom
# from L = 142 on, 30 against 40 ms, and by far at L = 1415, 61 against
# 529 ms; a first round of 64 atoms is faster below L of about 250 and
# slower at 1415 (medians of 5 on a 2-core x86-64 machine).
LP_FIRST_ROUND_ATOMS = 128


class LpSolution(tuple):
    """``(w, objective, optimal, iterations)`` of ``weighted_l1_lp``, with
    the number of HiGHS runs behind it as ``rounds`` and the number of
    atoms in its final model as ``atoms``."""

    def __new__(cls, w, objective, optimal, iterations, rounds, atoms):
        solution = super().__new__(cls, (w, objective, optimal, iterations))
        solution.rounds = rounds
        solution.atoms = atoms
        return solution


def weighted_l1_lp(design: np.ndarray, target: np.ndarray,
                   quad_weights: np.ndarray, maxiter: int = 5000):
    """Minimize ||design @ w - target||_{1,quad} over the simplex.

    Returns an ``LpSolution``, ``(w, objective, optimal, iterations)``,
    the last the HiGHS simplex iterations summed over every run, which
    ``maxiter`` caps.  HiGHS solves the dual LP, ``target @ y + z`` at
    its largest subject to ``design[:, a] @ y + z <= 0`` for each atom a
    in the model and ``-quad_weights <= y <= quad_weights``; the atom
    weights are the duals of those rows.  It solves it by row generation
    on one live model: a first round over at most ``LP_FIRST_ROUND_ATOMS``
    atoms, then, from the live basis, rounds that add the row of every
    atom that the current (y, z) violates by more than the feasibility
    tolerance, until none does.  The result is optimal for the LP over
    all atoms.  The objective is evaluated on the full dense design.

    Raises ``ProjectionError`` when HiGHS leaves no solution with positive
    atom mass, for example on hitting ``maxiter``.  Warns with
    ``ProjectionWarning`` when it leaves one short of optimal, or atom
    weights whose sum misses 1 by more than ``SIMPLEX_ROW_TOL`` before
    they are renormalized.
    """
    n_grid, n_atoms = design.shape
    model_atoms = np.arange(0, n_atoms,
                            -(-n_atoms // LP_FIRST_ROUND_ATOMS))
    highs = _dual_model(_trimmed(design[:, model_atoms]), target,
                        quad_weights)
    iterations = rounds = 0
    while True:
        highs.setOptionValue("simplex_iteration_limit", maxiter - iterations)
        highs.run()
        rounds += 1
        info = highs.getInfo()
        iterations += info.simplex_iteration_count
        status = highs.getModelStatus()
        solution = highs.getSolution()
        w = np.zeros(n_atoms)
        # HiGHS leaves an iterate after every run.  Read its row duals only
        # when they are dual feasible and the run did not stop on the
        # iteration cap, where scipy's linprog gave no solution either.
        # HiGHS minimises -(target @ y + z), so the atom rows' duals are -w.
        if (status != HighsModelStatus.kIterationLimit
                and info.dual_solution_status == kSolutionStatusFeasible):
            w[model_atoms] = np.maximum(-np.asarray(solution.row_dual), 0.0)
        if status != HighsModelStatus.kOptimal or model_atoms.size == n_atoms:
            break
        enter, rows = _violated_rows(design, np.asarray(solution.col_value),
                                     model_atoms)
        if enter.size == 0:
            break
        start, index, value = _compressed(
            np.hstack([rows, np.ones((enter.size, 1))]))
        highs.addRows(enter.size, np.full(enter.size, -kHighsInf),
                      np.zeros(enter.size), value.size, start, index, value)
        model_atoms = np.concatenate([model_atoms, enter])
    total = float(w.sum())
    message = highs.modelStatusToString(status)
    if not total > 0:
        raise ProjectionError(
            f"HiGHS returned no solution with positive atom mass (model "
            f"status: {message})"
        )
    if status != HighsModelStatus.kOptimal:
        warnings.warn(f"HiGHS stopped short of optimal (model status: "
                      f"{message})", ProjectionWarning, stacklevel=2)
    if abs(total - 1.0) > SIMPLEX_ROW_TOL:
        warnings.warn(f"HiGHS atom weights sum to {total!r}, off the "
                      f"simplex row by {total - 1.0:.3g}; renormalized",
                      ProjectionWarning, stacklevel=2)
    w = w / total
    objective = float(quad_weights @ np.abs(design @ w - target))
    return LpSolution(w, objective, status == HighsModelStatus.kOptimal,
                      iterations, rounds, model_atoms.size)


def _trimmed(block: np.ndarray) -> np.ndarray:
    """``block`` with the entries HiGHS ignores set to zero."""
    return np.where(np.abs(block) > HIGHS_SMALL_MATRIX_VALUE, block, 0.0)


def _compressed(block: np.ndarray):
    """Start, index and value arrays of the nonzero entries of ``block``,
    row by row, as HiGHS takes a matrix."""
    nonzero = block != 0.0
    start = np.zeros(block.shape[0] + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])
    return (start, np.nonzero(nonzero)[1].astype(np.int32),
            block[nonzero])


def _violated_rows(design, y_z, model_atoms):
    """The atoms outside the model whose dual rows ``y_z`` violates by more
    than ``LP_FEASIBILITY_TOL``, with their trimmed design columns as
    rows."""
    y, z = y_z[:-1], y_z[-1]
    # The dense product also counts the entries HiGHS ignores, which move
    # a row by at most HIGHS_SMALL_MATRIX_VALUE * sum(|y|); the rows within
    # twice that of the tolerance are priced again from their kept entries.
    activity = y @ design + z
    activity[model_atoms] = -np.inf
    near = np.flatnonzero(activity > LP_FEASIBILITY_TOL
                          - 2 * HIGHS_SMALL_MATRIX_VALUE * np.abs(y).sum())
    rows = _trimmed(design[:, near]).T
    violated = rows @ y + z > LP_FEASIBILITY_TOL
    return near[violated], rows[violated]


def _dual_model(first: np.ndarray, target, quad_weights) -> _Highs:
    """A HiGHS instance holding the dual LP over the trimmed design columns
    ``first``, one row per atom.  Its model and options are those scipy's
    ``linprog(method="highs")`` builds for ``-(target, 1)``, ``A_ub`` =
    ``[design.T | 1]`` and ``b_ub`` = 0, except that the simplex solver is
    fixed, since later rounds restart from its basis."""
    n_grid, n_rows = first.shape
    # The matrix by columns: y_i's column is grid row i of the design, and
    # z's column is all ones.
    start, index, value = _compressed(np.vstack([first, np.ones(n_rows)]))
    highs = _Highs()
    for option, setting in (
            ("output_flag", False), ("presolve", "on"), ("solver", "simplex"),
            ("primal_feasibility_tolerance", LP_FEASIBILITY_TOL),
            ("dual_feasibility_tolerance", LP_FEASIBILITY_TOL)):
        highs.setOptionValue(option, setting)
    # The array form of passModel takes the model without converting each
    # entry to a Python object, as the HighsLp fields do.  It reads an
    # integrality flag per column: zeros mark every column continuous.
    highs.passModel(n_grid + 1, n_rows, value.size, MatrixFormat.kColwise,
                    ObjSense.kMinimize, 0.0, np.append(-target, -1.0),
                    np.append(-quad_weights, -kHighsInf),
                    np.append(quad_weights, kHighsInf),
                    np.full(n_rows, -kHighsInf), np.zeros(n_rows),
                    start, index, value, np.zeros(n_grid + 1, dtype=np.int32))
    return highs
