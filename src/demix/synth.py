"""Ground-truth models, exact density oracles, and reproducible samplers.

Two model families are covered.  A ``VanillaMixtureModel`` mixes shifted
copies of per-component error densities, each a Gaussian blurred by a
compactly supported, mean-zero mixing distribution.  A
``MixedRegressionModel`` attaches one such error density to a set of
regression curves: a response follows a randomly chosen curve plus noise.

Model ingredients are closed-form specs (not arbitrary callables) so that
every model serializes to JSON and every experiment can be replayed.  A
JSON block is read by the constructor it fills: a model's keys are its
fields, and a curve's, mixing distribution's or covariate's keys are the
arguments of the classmethod its ``kind`` names, so a key that no
argument takes raises.  Those blocks keep the arguments they were built
from and write them back as their JSON.
Sampling uses numpy's Philox generator, a counter-based scheme whose streams
are reproducible across platforms.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    gaussian_blur_values,
    require_int,
    require_positive_finite,
)

LAMBDA_SUM_TOL = 1e-9


class SeparationWarning(UserWarning):
    """Component supports are too close for reliable recovery."""


def _rng_for(seed: int) -> np.random.Generator:
    seed = require_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def _normalized_weights(lambdas) -> tuple[float, ...]:
    arr = np.asarray(lambdas, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("component weights must be a nonempty vector")
    if not np.all(arr > 0):  # NaN fails the comparison
        raise ValueError(
            f"component weights must be strictly positive, got {arr.tolist()}")
    total = float(arr.sum())
    if not abs(total - 1.0) <= LAMBDA_SUM_TOL:
        raise ValueError(f"component weights sum to {total:.12g}, expected 1")
    return tuple(arr / total)


class _KindBlock:
    """A spec block built by the classmethod its ``kind`` names.

    ``args`` holds that classmethod's keyword arguments as it checked
    them, so the JSON ``{"kind": kind, **args}`` reads back through the
    same classmethod.  The classmethods in ``KINDS`` (and their
    shorthands) are the only way in.
    """

    KINDS: tuple

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        raise TypeError(f"build a {name} with one of "
                        + ", ".join(f"{name}.{kind}" for kind in self.KINDS))

    @classmethod
    def _build(cls, kind: str, args: dict, **derived):
        """The ``kind`` block of ``args``, with the attributes ``derived``
        from them."""
        block = object.__new__(cls)
        block.__dict__.update(derived, kind=kind, args=args)
        return block

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, **self.args}

    @classmethod
    def from_json_obj(cls, obj: dict, name: str | None = None):
        """The block built by the classmethod named ``obj["kind"]``, one of
        ``KINDS``, from the other keys of ``obj`` as keyword arguments.
        ``ValueError`` names the block, as ``name`` or else the class,
        unless ``obj`` is a JSON object."""
        if not isinstance(obj, dict):
            raise ValueError(f"{name or cls.__name__} must be a JSON object, "
                             f"got {obj!r}")
        obj = dict(obj)
        kind = obj.pop("kind")
        if kind not in cls.KINDS:
            raise ValueError(f"unknown {cls.__name__} kind {kind!r}")
        return getattr(cls, kind)(**obj)

    def __repr__(self):
        args = ", ".join(f"{key}={value!r}"
                         for key, value in self.args.items())
        return f"{type(self).__name__}.{self.kind}({args})"


# ---------------------------------------------------------------------------
# regression curves
# ---------------------------------------------------------------------------

class RegressionCurve(_KindBlock):
    """Closed-form regression function.

    Kinds: ``polynomial`` (ascending coefficients), ``sinusoid``
    (amplitude * sin(frequency * x + phase) + offset), and
    ``piecewise_linear`` (knot interpolation, clamped outside the knots).
    """

    KINDS = ("polynomial", "sinusoid", "piecewise_linear")

    @classmethod
    def polynomial(cls, coeffs) -> "RegressionCurve":
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        return cls._build("polynomial", {"coeffs": coeffs})

    @classmethod
    def line(cls, slope: float, intercept: float = 0.0) -> "RegressionCurve":
        return cls.polynomial([intercept, slope])

    @classmethod
    def constant(cls, value: float) -> "RegressionCurve":
        return cls.polynomial([value])

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0,
                 offset=0.0) -> "RegressionCurve":
        return cls._build("sinusoid", {
            "amplitude": float(amplitude), "frequency": float(frequency),
            "phase": float(phase), "offset": float(offset)})

    @classmethod
    def piecewise_linear(cls, xs, ys) -> "RegressionCurve":
        xs = tuple(float(v) for v in xs)
        ys = tuple(float(v) for v in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("piecewise_linear needs matching knot vectors")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("piecewise_linear knots must strictly increase")
        return cls._build("piecewise_linear", {"xs": xs, "ys": ys})

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        args = self.args
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, args["coeffs"])
        if self.kind == "sinusoid":
            return (args["amplitude"]
                    * np.sin(args["frequency"] * x + args["phase"])
                    + args["offset"])
        return np.interp(x, args["xs"], args["ys"])


# ---------------------------------------------------------------------------
# covariate marginals
# ---------------------------------------------------------------------------

class CovariateSpec(_KindBlock):
    """Marginal distribution of the covariate on the model domain.

    ``uniform`` takes no parameters; ``beta`` rescales a Beta(alpha, beta)
    draw onto ``[a, b]``.
    """

    KINDS = ("uniform", "beta")

    @classmethod
    def uniform(cls) -> "CovariateSpec":
        return cls._build("uniform", {})

    @classmethod
    def beta(cls, alpha, beta) -> "CovariateSpec":
        require_positive_finite(alpha, "alpha")
        require_positive_finite(beta, "beta")
        return cls._build("beta", {"alpha": alpha, "beta": beta})

    def sample(self, rng: np.random.Generator, n: int, a: float,
               b: float) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(a, b, n)
        return a + (b - a) * rng.beta(self.args["alpha"], self.args["beta"],
                                      n)


# ---------------------------------------------------------------------------
# mixing distributions
# ---------------------------------------------------------------------------

class MixingSpec(_KindBlock):
    """Compactly supported, mean-zero mixing distribution.

    Kinds
    -----
    ``point_mass``
        A single atom.  Centering pins it to the origin.
    ``uniform_mixture``
        Weighted uniform distributions on bounded intervals.
    ``truncated_smooth``
        The density ``(2 - |x|/scale)+ * q(x)`` renormalized, with ``q`` a
        Gaussian density: a triangular taper (the self-convolution of a
        centered unit box) truncating a smooth positive-transform density to
        ``[-2*scale, 2*scale]``.  Realized on a fine atom grid, which keeps
        sampling and Gaussian convolution exact for the same object.

    Whatever the raw parameters, the realized distribution is shifted so its
    mean is zero: a realization is either ``_atoms`` or ``_intervals``, the
    ``(lo, hi, weight)`` uniform parts.
    """

    KINDS = ("point_mass", "uniform_mixture", "truncated_smooth")
    _atoms: DiscreteMeasure | None = None
    _intervals: tuple[tuple[float, float, float], ...] | None = None

    @classmethod
    def point_mass(cls) -> "MixingSpec":
        return cls._build("point_mass", {},
                          _atoms=DiscreteMeasure.point(0.0),
                          _support=(0.0, 0.0))

    @classmethod
    def uniform_mixture(cls, components) -> "MixingSpec":
        comps = tuple(((float(lo), float(hi)), float(w))
                      for (lo, hi), w in components)
        if not comps:
            raise ValueError("uniform_mixture needs at least one component")
        los = np.array([c[0][0] for c in comps], dtype=float)
        his = np.array([c[0][1] for c in comps], dtype=float)
        wts = np.array([c[1] for c in comps], dtype=float)
        if np.any(his <= los):
            raise ValueError("uniform components need lo < hi")
        if np.any(wts <= 0):
            raise ValueError("uniform component weights must be positive")
        wts = wts / wts.sum()
        mean = float(np.dot(wts, 0.5 * (los + his)))
        los -= mean
        his -= mean
        order = np.argsort(los, kind="stable")
        return cls._build(
            "uniform_mixture", {"components": comps},
            _intervals=tuple((float(los[i]), float(his[i]), float(wts[i]))
                             for i in order),
            _support=(float(los.min()), float(his.max())))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MixingSpec":
        return cls.uniform_mixture([((lo, hi), 1.0)])

    @classmethod
    def truncated_smooth(cls, q_mean, q_sigma, scale,
                         resolution=2001) -> "MixingSpec":
        if not isinstance(resolution, numbers.Integral):
            raise ValueError(f"truncated_smooth resolution must be an "
                             f"integer, got {resolution!r}")
        q_mean, q_sigma, scale = float(q_mean), float(q_sigma), float(scale)
        resolution = int(resolution)
        if q_sigma <= 0 or scale <= 0:
            raise ValueError("truncated_smooth needs positive q_sigma, scale")
        if resolution < 3:
            raise ValueError("truncated_smooth needs resolution >= 3")
        half = 2.0 * scale
        # Midpoint cells over the taper support.
        edges = np.linspace(-half, half, resolution + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        taper = np.maximum(2.0 - np.abs(mids) / scale, 0.0)
        smooth_part = np.exp(-0.5 * ((mids - q_mean) / q_sigma) ** 2)
        wts = taper * smooth_part
        total = wts.sum()
        if total <= 0:
            raise ValueError("truncated_smooth density vanishes on its support")
        wts = wts / total
        mean = float(np.dot(wts, mids))
        return cls._build(
            "truncated_smooth", {"q_mean": q_mean, "q_sigma": q_sigma,
                                 "scale": scale, "resolution": resolution},
            _atoms=DiscreteMeasure(mids - mean, wts),
            _support=(float(mids[0] - mean), float(mids[-1] - mean)))

    # -- queries -------------------------------------------------------------

    def support(self) -> tuple[float, float]:
        return self._support

    def diameter(self) -> float:
        return self._support[1] - self._support[0]

    def mean(self) -> float:
        if self._atoms is not None:
            return self._atoms.mean()
        return sum(w * 0.5 * (lo + hi) for lo, hi, w in self._intervals)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "point_mass":
            return np.zeros(n)
        if self._intervals is not None:
            los = np.array([c[0] for c in self._intervals])
            his = np.array([c[1] for c in self._intervals])
            wts = np.array([c[2] for c in self._intervals])
            idx = rng.choice(len(self._intervals), size=n, p=wts)
            return los[idx] + rng.random(n) * (his - los)[idx]
        idx = rng.choice(self._atoms.n_atoms, size=n, p=self._atoms.weights)
        return self._atoms.locations[idx]

    def density_values(self, sigma: float, z) -> np.ndarray:
        """Gaussian-sigma blur of this distribution, at the points ``z``."""
        require_positive_finite(sigma, "sigma")
        z = np.asarray(z, dtype=float)
        if self._atoms is not None:
            return gaussian_blur_values(
                self._atoms.locations, self._atoms.weights, sigma, z
            )
        out = np.zeros(z.shape)
        for lo, hi, w in self._intervals:
            # Uniform[lo,hi] * phi_sigma has an exact CDF-difference form.
            out += (w / (hi - lo)) * (
                ndtr((z - lo) / sigma) - ndtr((z - hi) / sigma)
            )
        return out

    def error_density(self, sigma: float, grid: GridSpec) -> GridDensity:
        """The blurred density on a grid, flagged normalized when covered."""
        return _blurred_mixture(grid, sigma, [(1.0, 0.0, self)])

    def as_discrete(self, max_spacing: float = 1e-3) -> DiscreteMeasure:
        """Atom approximation, within ``max_spacing / 2`` in W1."""
        if self._atoms is not None:
            return self._atoms
        locs, wts = [], []
        for lo, hi, w in self._intervals:
            cells = max(1, math.ceil((hi - lo) / max_spacing))
            edges = np.linspace(lo, hi, cells + 1)
            locs.append(0.5 * (edges[:-1] + edges[1:]))
            wts.append(np.full(cells, w / cells))
        return DiscreteMeasure(np.concatenate(locs), np.concatenate(wts))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedRegressionModel:
    """Ground truth for mixed regression on ``[a, b]``.

    A response at covariate x follows curve ``m[j]`` with probability
    ``lambdas[j]``, plus an error drawn from the Gaussian-blurred mixing
    distribution ``g0``.  The declared separation point ``x0`` must spread
    the curves further apart than twice the mixing support diameter, which
    is what lets a mixture fit at ``x0`` identify the components.
    """

    a: float
    b: float
    lambdas: tuple
    m: tuple
    sigma: float
    g0: MixingSpec
    x0: float
    p_x: CovariateSpec = field(default_factory=CovariateSpec.uniform)

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("domain requires a < b")
        object.__setattr__(self, "lambdas", _normalized_weights(self.lambdas))
        object.__setattr__(self, "m", tuple(self.m))
        if len(self.m) != len(self.lambdas):
            raise ValueError("need one regression curve per weight")
        require_positive_finite(self.sigma, "sigma")
        if not self.a <= self.x0 <= self.b:
            raise ValueError("x0 must lie in [a, b]")
        k = len(self.lambdas)
        if k >= 2:
            vals = self.curve_values(self.x0)
            gaps = [abs(vals[i] - vals[j])
                    for i in range(k) for j in range(i + 1, k)]
            need = 2.0 * self.g0.diameter()
            if min(gaps) <= need:
                raise ValueError(
                    f"curves separate by {min(gaps):.6g} at x0, "
                    f"need more than {need:.6g}"
                )

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def curve_values(self, x) -> np.ndarray:
        """Stacked curve evaluations, shape (k,) + shape(x)."""
        return np.stack([np.asarray(curve(x), dtype=float)
                         for curve in self.m])

    def error_density(self, grid: GridSpec) -> GridDensity:
        """The common error density (mean zero) on a grid."""
        return self.g0.error_density(self.sigma, grid)

    def to_json_obj(self) -> dict:
        return {
            "type": "mixed_regression",
            "a": self.a, "b": self.b,
            "lambdas": list(self.lambdas),
            "m": [curve.to_json_obj() for curve in self.m],
            "sigma": self.sigma,
            "g0": self.g0.to_json_obj(),
            "x0": self.x0,
            "p_x": self.p_x.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MixedRegressionModel":
        fields = {key: value for key, value in obj.items() if key != "type"}
        fields["m"] = tuple(RegressionCurve.from_json_obj(c, f"model.m[{i}]")
                            for i, c in enumerate(obj["m"]))
        fields["g0"] = MixingSpec.from_json_obj(obj["g0"], "model.g0")
        if "p_x" in obj:
            fields["p_x"] = CovariateSpec.from_json_obj(obj["p_x"],
                                                        "model.p_x")
        return cls(**fields)


@dataclass(frozen=True)
class VanillaMixtureModel:
    """Ground truth for a location mixture with per-component errors.

    Component ``j`` contributes weight ``lambdas[j]`` of the density
    ``f_j(. - mus[j])`` where ``f_j`` is the Gaussian-blurred, mean-zero
    mixing distribution ``gks[j]``.  Construction warns (rather than fails)
    when the shifted supports are closer than the widest component, since
    recovery then degrades but sampling stays perfectly well defined.
    """

    lambdas: tuple
    mus: tuple
    sigma: float
    gks: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _normalized_weights(self.lambdas))
        object.__setattr__(self, "mus",
                           tuple(float(v) for v in self.mus))
        object.__setattr__(self, "gks", tuple(self.gks))
        if len({len(self.mus), len(self.gks), len(self.lambdas)}) != 1:
            raise ValueError("lambdas, mus, gks must have equal length")
        require_positive_finite(self.sigma, "sigma")
        k = self.k
        if k >= 2:
            supports = self.mixing_support()
            diam = max(hi - lo for lo, hi in supports)
            gaps = []
            for i in range(k):
                for j in range(i + 1, k):
                    (lo_i, hi_i), (lo_j, hi_j) = supports[i], supports[j]
                    gaps.append(max(lo_j - hi_i, lo_i - hi_j, 0.0))
            if min(gaps) <= diam:
                warnings.warn(
                    "component supports separate by "
                    f"{min(gaps):.6g}, not more than the widest support "
                    f"{diam:.6g}; component recovery is unreliable",
                    SeparationWarning,
                )

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def mixing_support(self) -> tuple[tuple[float, float], ...]:
        out = []
        for mu, g in zip(self.mus, self.gks):
            lo, hi = g.support()
            out.append((lo + mu, hi + mu))
        return tuple(out)

    def component_density(self, j: int, grid: GridSpec) -> GridDensity:
        """Centered error density of component ``j`` on a grid."""
        return self.gks[j].error_density(self.sigma, grid)

    def density(self, grid: GridSpec) -> GridDensity:
        """Full mixture density on a grid."""
        return _blurred_mixture(grid, self.sigma,
                                zip(self.lambdas, self.mus, self.gks))

    def mixing_measure(self, max_spacing: float = 1e-3) -> DiscreteMeasure:
        """Atom approximation of the full mixing measure."""
        locs, wts = [], []
        for lam, mu, g in zip(self.lambdas, self.mus, self.gks):
            part = g.as_discrete(max_spacing)
            locs.append(part.locations + mu)
            wts.append(part.weights * lam)
        return DiscreteMeasure(np.concatenate(locs), np.concatenate(wts))

    def to_json_obj(self) -> dict:
        return {
            "type": "vanilla_mixture",
            "lambdas": list(self.lambdas),
            "mus": list(self.mus),
            "sigma": self.sigma,
            "gks": [g.to_json_obj() for g in self.gks],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VanillaMixtureModel":
        fields = {key: value for key, value in obj.items() if key != "type"}
        fields["gks"] = tuple(MixingSpec.from_json_obj(g, f"model.gks[{i}]")
                              for i, g in enumerate(obj["gks"]))
        return cls(**fields)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Covariate/response pairs."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or x.size == 0:
            raise ValueError("x and y must be equal-length nonempty vectors")
        for name, arr in (("x", x), ("y", y)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"{name} holds a non-finite value at index "
                    f"{int(np.flatnonzero(~np.isfinite(arr))[0])}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.x.size


# ---------------------------------------------------------------------------
# samplers and density oracles
# ---------------------------------------------------------------------------

def _blurred_mixture(grid: GridSpec, sigma: float, parts) -> GridDensity:
    """Sum of ``lam * g.density_values(sigma, y - c)`` over the parts
    ``(lam, c, g)``, flagged normalized when the grid covers each part."""
    y = grid.points()
    values = np.zeros(grid.n_points)
    covered = True
    for lam, center, g in parts:
        values += lam * g.density_values(sigma, y - center)
        lo, hi = g.support()
        covered &= grid.covers(center + lo - 6 * sigma,
                               center + hi + 6 * sigma)
    return GridDensity(grid.lo, grid.hi, values, normalized=covered)


def sample_mixed_regression(model: MixedRegressionModel, n: int,
                            seed: int) -> Dataset:
    """Draw ``n`` pairs from the model, deterministically in ``seed``."""
    n = require_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng_for(seed)
    x = model.p_x.sample(rng, n, model.a, model.b)
    comp = rng.choice(model.k, size=n, p=np.asarray(model.lambdas))
    shift = model.g0.sample(rng, n)
    noise = model.sigma * rng.standard_normal(n)
    curves = model.curve_values(x)
    y = curves[comp, np.arange(n)] + shift + noise
    return Dataset(x, y)


def sample_vanilla_mixture(model: VanillaMixtureModel, n: int,
                           seed: int) -> np.ndarray:
    """Draw ``n`` responses from the mixture, deterministically in ``seed``."""
    n = require_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng_for(seed)
    comp = rng.choice(model.k, size=n, p=np.asarray(model.lambdas))
    shift = np.zeros(n)
    # Component order fixed, so the draw sequence is reproducible.
    for j in range(model.k):
        mask = comp == j
        count = int(mask.sum())
        if count:
            shift[mask] = model.gks[j].sample(rng, count)
    noise = model.sigma * rng.standard_normal(n)
    return np.asarray(model.mus)[comp] + shift + noise
