"""Box-kernel density estimation: univariate and conditional-ratio forms.

The conditional estimator is the ratio of a joint and a marginal box-kernel
estimate with a common bandwidth, which collapses to a box-kernel estimate
over the responses whose covariates fall in the window around the query
point.  All grid evaluation goes through exact interval-overlap counting
(see ``measures.box_mixture_density``) rather than pointwise kernel sums,
so captured mass integrates exactly and evaluation costs O(n log n + grid)
instead of O(n * grid).
"""

from __future__ import annotations

import numbers
import warnings

import numpy as np

from .errors import EmptyWindowError
from .measures import (GridDensity, GridSpec, _as_finite_1d,
                       _sorted_box_mixture_density, require_finite, require_int,
                       require_positive_finite)
from .synth import Dataset, _KindBlock


class BoundaryWarning(UserWarning):
    """Query point clamped to the interior evaluation region."""


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------

class BandwidthSchedule(_KindBlock):
    """Bandwidth as a function of the sample size.

    ``power_law`` uses h(n) = c * n**exponent with exponent in (-1/2, 0),
    the range where h(n) shrinks while n * h(n)**2 still grows.  ``fixed``
    ignores n.  The default c=1, exponent=-1/4 satisfies both conditions
    with room to spare.
    """

    KINDS = ("fixed", "power_law")

    @classmethod
    def fixed(cls, value: float) -> "BandwidthSchedule":
        require_positive_finite(value, "fixed bandwidth value")
        return cls._build("fixed", {"value": value})

    @classmethod
    def power_law(cls, c: float = 1.0, exponent: float = -0.25
                  ) -> "BandwidthSchedule":
        require_positive_finite(c, "power_law bandwidth c")
        if not (isinstance(exponent, numbers.Real)
                and -0.5 < exponent < 0.0):
            raise ValueError(
                f"power_law exponent must lie in (-0.5, 0): "
                f"h must shrink while n*h^2 grows, got {exponent!r}"
            )
        return cls._build("power_law", {"c": c, "exponent": exponent})

    def bandwidth(self, n: int) -> float:
        n = require_int(n, "n", least=1)
        if self.kind == "fixed":
            return self.args["value"]
        return self.args["c"] * float(n) ** self.args["exponent"]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _require_domain(a, b) -> None:
    """Raise ``ValueError`` naming ``a`` or ``b`` unless each covariate
    domain bound is None or a finite real number."""
    for name, bound in (("a", a), ("b", b)):
        if bound is not None:
            require_finite(bound, name)


class ConditionalKde:
    """Conditional response-density estimator over a covariate window.

    Queries are restricted to the interior [a + h, b - h] of the covariate
    domain, where the window never spills past the data boundary; queries
    outside are clamped to the nearest interior point with a
    ``BoundaryWarning``, matching the usual endpoint shift.
    """

    def __init__(self, dataset: Dataset,
                 schedule: BandwidthSchedule | None = None,
                 a: float | None = None, b: float | None = None):
        _require_domain(a, b)
        self.dataset = dataset
        self.schedule = schedule or BandwidthSchedule.power_law()
        self.n = len(dataset)
        self.h = self.schedule.bandwidth(self.n)
        self.a = float(dataset.x.min()) if a is None else float(a)
        self.b = float(dataset.x.max()) if b is None else float(b)
        if not self.a < self.b:
            raise ValueError("covariate domain requires a < b")
        if self.b - self.a <= 2.0 * self.h:
            raise ValueError(
                f"bandwidth {self.h:.6g} leaves no interior in "
                f"[{self.a:g}, {self.b:g}]"
            )
        order = np.argsort(dataset.x, kind="stable")
        self._x = dataset.x[order]
        self._y = dataset.y[order]

    def interior(self) -> tuple[float, float]:
        return (self.a + self.h, self.b - self.h)

    def clamp(self, x: float) -> float:
        """Pull a query point into the interior, warning when it moves."""
        lo, hi = self.interior()
        clamped = min(max(float(x), lo), hi)
        if clamped != x:
            warnings.warn(
                f"query x={x:g} outside interior [{lo:g}, {hi:g}]; "
                f"evaluating at x={clamped:g}",
                BoundaryWarning,
                stacklevel=3,
            )
        return clamped

    def window_responses(self, x: float) -> np.ndarray:
        """Responses whose covariate lies within h of the clamped query."""
        x = self.clamp(x)
        i = np.searchsorted(self._x, x - self.h, side="left")
        j = np.searchsorted(self._x, x + self.h, side="right")
        return self._y[i:j]

    def window_count(self, x: float) -> int:
        return int(self.window_responses(x).size)

    def conditional_density_at(self, x: float, grid: GridSpec) -> GridDensity:
        return conditional_density_at(self, x, grid)


def conditional_density_at(kde: ConditionalKde, x: float,
                           grid: GridSpec) -> GridDensity:
    """Estimated density of Y given X = x, on the requested grid.

    The estimate is the equal-weight box mixture over the responses in the
    covariate window; it integrates to 1 exactly once the grid covers every
    windowed response plus or minus the bandwidth.
    """
    ys = kde.window_responses(x)
    if ys.size == 0:
        raise EmptyWindowError(
            f"no samples with |X - {x:g}| <= {kde.h:.6g}; "
            "widen the bandwidth or move the query point"
        )
    return univariate_kde(ys, kde.h, grid)


def univariate_kde(samples, h: float, grid: GridSpec) -> GridDensity:
    """Box-kernel density estimate of a plain sample."""
    samples = _as_finite_1d(samples, "samples")
    require_positive_finite(h, "bandwidth")
    # Equal weights as one value seen through a zero stride: the cumulative
    # sums read the same numbers as from a filled array, without its n floats.
    weights = np.broadcast_to(1.0 / samples.size, samples.size)
    return _sorted_box_mixture_density(np.sort(samples), weights, h, grid)
