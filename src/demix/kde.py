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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError
from .measures import (GridDensity, GridSpec, _sorted_box_mixture_density,
                       require_positive_finite)
from .synth import Dataset


class BoundaryWarning(UserWarning):
    """Query point clamped to the interior evaluation region."""


# ---------------------------------------------------------------------------
# bandwidth rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandwidthSchedule:
    """Bandwidth as a function of the sample size.

    ``power_law`` uses h(n) = c * n**exponent with exponent in (-1/2, 0),
    the range where h(n) shrinks while n * h(n)**2 still grows.  ``fixed``
    ignores n.  The default c=1, exponent=-1/4 satisfies both conditions
    with room to spare.
    """

    kind: str = "power_law"
    c: float = 1.0
    exponent: float = -0.25
    value: float = 0.0

    def __post_init__(self):
        if self.kind == "power_law":
            require_positive_finite(self.c, "power_law bandwidth c")
            if not -0.5 < self.exponent < 0.0:
                raise ValueError(
                    "power_law exponent must lie in (-0.5, 0): "
                    "h must shrink while n*h^2 grows"
                )
        elif self.kind == "fixed":
            require_positive_finite(self.value, "fixed bandwidth value")
        else:
            raise ValueError(f"unknown bandwidth rule {self.kind!r}")

    @classmethod
    def fixed(cls, h: float) -> "BandwidthSchedule":
        return cls(kind="fixed", value=h)

    @classmethod
    def power_law(cls, c: float = 1.0, exponent: float = -0.25
                  ) -> "BandwidthSchedule":
        return cls(kind="power_law", c=c, exponent=exponent)

    def bandwidth(self, n: int) -> float:
        if n < 1:
            raise ValueError("n must be at least 1")
        if self.kind == "fixed":
            return self.value
        return self.c * float(n) ** self.exponent

    def to_json_obj(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "value": self.value}
        return {"kind": "power_law", "c": self.c, "exponent": self.exponent}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BandwidthSchedule":
        """Inverse of ``to_json_obj``; ``kind`` is required, and keys that
        the rule does not read are rejected."""
        kind = obj["kind"]
        keys = {"fixed": {"kind", "value"},
                "power_law": {"kind", "c", "exponent"}}.get(kind, {"kind"})
        unknown = set(obj) - keys
        if unknown:
            raise ValueError(f"unknown {kind} bandwidth keys: "
                             f"{sorted(unknown)}")
        return cls(**obj)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

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
        self.dataset = dataset
        self.schedule = schedule if schedule is not None else BandwidthSchedule()
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
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a nonempty vector")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    require_positive_finite(h, "bandwidth")
    weights = np.full(samples.size, 1.0 / samples.size)
    return _sorted_box_mixture_density(np.sort(samples), weights, h, grid)
