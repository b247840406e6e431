"""Reference code for the measures tests, kept out of the library.

``wasserstein1_lp_oracle`` computes the 1-Wasserstein distance through the
transport linear program, an independent cross-check of the closed-form
``demix.measures.wasserstein1``.  ``IntervalSet`` extends the library's
interval set with the queries only the tests use.
"""

import numpy as np
from scipy.optimize import linprog

from demix import measures
from demix.measures import DiscreteMeasure, _require_normalized

_LP_ORACLE_MAX_ATOMS = 12


def wasserstein1_lp_oracle(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """1-Wasserstein distance via the transport linear program.

    Independent cross-check for :func:`wasserstein1`; limited to small inputs
    because the LP has ``n_a * n_b`` variables.
    """
    a = _require_normalized(a, "a")
    b = _require_normalized(b, "b")
    if a.n_atoms > _LP_ORACLE_MAX_ATOMS or b.n_atoms > _LP_ORACLE_MAX_ATOMS:
        raise ValueError(
            f"oracle accepts at most {_LP_ORACLE_MAX_ATOMS} atoms per measure"
        )
    na, nb = a.n_atoms, b.n_atoms
    cost = np.abs(a.locations[:, None] - b.locations[None, :]).ravel()
    # Row sums reproduce a's weights, column sums b's weights.
    rows = np.zeros((na, na * nb))
    for i in range(na):
        rows[i, i * nb:(i + 1) * nb] = 1.0
    cols = np.tile(np.eye(nb), (1, na))
    a_eq = np.vstack([rows, cols])
    b_eq = np.concatenate([a.weights, b.weights])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


class IntervalSet(measures.IntervalSet):
    """The library's interval set plus membership, distance and union."""

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self._intervals)

    def distance_to(self, x) -> np.ndarray:
        """Pointwise distance from ``x`` to the union of intervals."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dist = np.full(x.shape, np.inf)
        for lo, hi in self._intervals:
            gap = np.maximum.reduce([lo - x, x - hi, np.zeros_like(x)])
            dist = np.minimum(dist, gap)
        return dist

    @classmethod
    def merged(cls, interval_sets) -> "IntervalSet":
        """Union of several interval sets, overlapping pieces fused."""
        pieces = sorted(
            (p for s in interval_sets for p in s.intervals), key=lambda p: p[0]
        )
        fused: list[list[float]] = []
        for lo, hi in pieces:
            if fused and lo <= fused[-1][1]:
                fused[-1][1] = max(fused[-1][1], hi)
            else:
                fused.append([lo, hi])
        return cls(fused)
