"""Ground-truth quantities that only the tests use, kept out of the library.

``true_conditional_density`` is the exact conditional response density of
a mixed-regression model; ``mixing_support_at`` and
``conditional_mixing_measure`` give the support and the atoms of its
conditional mixing measure at one covariate; ``outlier_mass`` is the mass
of a fitted mixing measure far from a true support.
"""

import numpy as np

from demix.measures import (DiscreteMeasure, GridDensity, GridSpec,
                            require_positive_finite)
from demix.synth import MixedRegressionModel, _blurred_mixture


def true_conditional_density(model: MixedRegressionModel, x: float,
                             grid: GridSpec) -> GridDensity:
    """Exact conditional response density at covariate ``x``."""
    if not model.a <= x <= model.b:
        raise ValueError(f"x={x:g} outside the domain "
                         f"[{model.a:g}, {model.b:g}]")
    centers = model.curve_values(x)
    return _blurred_mixture(grid, model.sigma,
                            [(lam, float(c), model.g0)
                             for lam, c in zip(model.lambdas, centers)])


def mixing_support_at(model: MixedRegressionModel,
                      x: float) -> tuple[tuple[float, float], ...]:
    """Support of the conditional mixing measure at covariate ``x``."""
    lo, hi = model.g0.support()
    vals = model.curve_values(x)
    return tuple((float(v) + lo, float(v) + hi) for v in vals)


def conditional_mixing_measure(model: MixedRegressionModel, x: float,
                               max_spacing: float = 1e-3) -> DiscreteMeasure:
    """Atoms of the conditional mixing measure at ``x``."""
    base = model.g0.as_discrete(max_spacing)
    vals = model.curve_values(x)
    locs = [base.locations + float(v) for v in vals]
    wts = [base.weights * lam for lam, v in zip(model.lambdas, vals)]
    return DiscreteMeasure(np.concatenate(locs), np.concatenate(wts))


def outlier_mass(g: DiscreteMeasure, support_pairs, eta: float) -> float:
    """Mass of atoms farther than ``eta`` from a union of intervals.

    ``support_pairs`` are (lo, hi) with lo == hi allowed for points, so
    true mixing supports of every kind can be passed directly.
    """
    require_positive_finite(eta, "eta")
    pairs = [(float(lo), float(hi)) for lo, hi in support_pairs]
    if not pairs or any(hi < lo for lo, hi in pairs):
        raise ValueError("support must be nonempty intervals with lo <= hi")
    dist = np.full(g.n_atoms, np.inf)
    for lo, hi in pairs:
        d = np.maximum(np.maximum(lo - g.locations, g.locations - hi), 0.0)
        dist = np.minimum(dist, d)
    return float(g.weights[dist > eta].sum())
