"""Measures: value types, metrics, and the transport-LP cross-check."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demix.measures import (
    DiscreteMeasure,
    GridDensity,
    GridSpec,
    box_mixture_density,
    convolve_gaussian,
    density_mean,
    l1_distance,
    require_finite,
    require_int,
    require_positive_finite,
    wasserstein1,
)
from measures_oracle import IntervalSet, wasserstein1_lp_oracle

# 2 * (2 * Phi(1/2) - 1), the exact L1 distance between N(0,1) and N(1,1).
L1_UNIT_SHIFT = 0.7658498450960524


def gaussian_grid(mu, sigma, spec: GridSpec) -> GridDensity:
    y = spec.points()
    vals = np.exp(-0.5 * ((y - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return GridDensity(spec.lo, spec.hi, vals, normalized=True)


def random_measure(rng, max_atoms=8) -> DiscreteMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(rng.uniform(-5, 5, k), rng.dirichlet(np.ones(k)))


# ---------------------------------------------------------------------------
# DiscreteMeasure
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0], [-0.1])
    with pytest.raises(ValueError):
        DiscreteMeasure([np.inf], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([], [])


def test_normalize_merges_duplicates_and_sorts():
    m = DiscreteMeasure([2.0, 0.0, 2.0], [1.0, 1.0, 2.0]).normalize()
    assert m.locations.tolist() == [0.0, 2.0]
    assert m.weights.tolist() == [0.25, 0.75]
    assert abs(m.total_weight - 1.0) <= 1e-12


def test_measure_mass_and_restrict_use_half_open_cells():
    m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    assert m.mass_in(0.0, 1.0) == pytest.approx(0.2)
    assert m.mass_in(1.0, np.inf) == pytest.approx(0.8)
    cond = m.restrict(1.0, np.inf)
    assert cond.locations.tolist() == [1.0, 2.0]
    assert cond.weights.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.restrict(5.0, 6.0)


def test_measure_json_round_trip():
    m = DiscreteMeasure([-1.5, 0.25], [0.4, 0.6])
    again = DiscreteMeasure.from_json_obj(m.to_json_obj())
    assert again == m
    assert json.loads(json.dumps(m.to_json_obj())) \
        == {"atoms": [[-1.5, 0.4], [0.25, 0.6]]}


# ---------------------------------------------------------------------------
# GridDensity / IntervalSet
# ---------------------------------------------------------------------------

def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, [0.1, -0.2, 0.1])
    with pytest.raises(ValueError):
        GridDensity(1.0, 0.0, [0.1, 0.1])
    # Flagged normalized but integrating to 2.
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, [2.0, 2.0], normalized=True)
    # Tolerance is configurable.
    GridDensity(0.0, 1.0, [1.05, 1.05], normalized=True, norm_tol=0.1)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0)])
def test_grid_density_rejects_infinite_ends(lo, hi):
    # The spacing is infinite, so the integral a normalized flag checks
    # would be NaN; the grid is refused before it is computed.
    with pytest.raises(ValueError, match="finite"):
        GridDensity(lo, hi, [0.0, 0.0], normalized=True)


def test_grid_density_json_round_trip():
    d = GridDensity(-1.0, 1.0, [0.0, 1.0, 0.0])
    again = GridDensity.from_json_obj(d.to_json_obj())
    assert again.same_grid(d)
    assert np.array_equal(again.values, d.values)


def test_interval_set_invariants():
    s = IntervalSet([(-3.0, -2.0), (2.0, 3.0)])
    assert s.lo == -3.0 and s.hi == 3.0
    assert s.contains(2.5) and not s.contains(0.0)
    assert s.distance_to([0.0, -2.5, 4.0]).tolist() == [2.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        IntervalSet([(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError):
        IntervalSet([(1.0, 1.0)])
    with pytest.raises(ValueError):
        IntervalSet([])


def test_interval_set_merged_fuses_overlaps():
    merged = IntervalSet.merged([
        IntervalSet([(0.0, 1.0)]),
        IntervalSet([(0.5, 2.0), (5.0, 6.0)]),
    ])
    assert merged.intervals == ((0.0, 2.0), (5.0, 6.0))


# ---------------------------------------------------------------------------
# wasserstein1 and its LP oracle
# ---------------------------------------------------------------------------

def test_wasserstein_point_masses():
    d0 = DiscreteMeasure.point(0.0)
    assert wasserstein1(d0, d0) == 0.0
    assert wasserstein1(d0, DiscreteMeasure.point(1.0)) == pytest.approx(1.0)


def test_wasserstein_split_mass_matches_lp():
    a = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
    b = DiscreteMeasure.point(1.0)
    assert wasserstein1(a, b) == pytest.approx(1.0, abs=1e-12)
    assert wasserstein1_lp_oracle(a, b) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein_rejects_unnormalized():
    bad = DiscreteMeasure([0.0], [0.5])
    good = DiscreteMeasure.point(0.0)
    with pytest.raises(ValueError):
        wasserstein1(bad, good)
    with pytest.raises(ValueError):
        wasserstein1_lp_oracle(good, bad)


def test_lp_oracle_examples():
    same = DiscreteMeasure.point(0.3)
    assert wasserstein1_lp_oracle(same, same) == pytest.approx(0.0, abs=1e-12)
    a = DiscreteMeasure([0.0, 1.0], [0.3, 0.7])
    b = DiscreteMeasure([0.0, 1.0], [0.7, 0.3])
    assert wasserstein1_lp_oracle(a, b) == pytest.approx(0.4, abs=1e-9)
    a = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    assert wasserstein1_lp_oracle(a, DiscreteMeasure.point(0.0)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_lp_oracle_size_limit():
    big = DiscreteMeasure(np.arange(13.0), np.full(13, 1.0 / 13.0))
    with pytest.raises(ValueError):
        wasserstein1_lp_oracle(big, DiscreteMeasure.point(0.0))


def test_wasserstein_agrees_with_lp_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(120):
        a = random_measure(rng)
        b = random_measure(rng)
        assert abs(wasserstein1(a, b) - wasserstein1_lp_oracle(a, b)) <= 1e-9


def test_wasserstein_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (random_measure(rng, max_atoms=6) for _ in range(3))
        assert wasserstein1(a, b) <= (
            wasserstein1(a, c) + wasserstein1(c, b) + 1e-9
        )


def test_wasserstein_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_measure(rng)
        shuffled = DiscreteMeasure(a.locations[::-1], a.weights[::-1])
        assert wasserstein1(a, shuffled) == 0.0
        moved = DiscreteMeasure(a.locations + 0.5, a.weights)
        assert wasserstein1(a, moved) > 0.0


# ---------------------------------------------------------------------------
# l1_distance
# ---------------------------------------------------------------------------

def test_l1_identical_is_zero():
    d = gaussian_grid(0.0, 1.0, GridSpec(-6, 6, 512))
    assert l1_distance(d, d) == 0.0


def test_l1_unit_shift_gaussians():
    spec = GridSpec(-8.0, 9.0, 4096)
    a = gaussian_grid(0.0, 1.0, spec)
    b = gaussian_grid(1.0, 1.0, spec)
    # High-resolution trapezoid value, frozen; agrees with the closed form
    # 2*(2*Phi(1/2) - 1) to 6e-7.
    assert l1_distance(a, b) == pytest.approx(0.7658503507258265, abs=1e-9)
    assert l1_distance(a, b) == pytest.approx(L1_UNIT_SHIFT, abs=1e-5)


def test_l1_disjoint_boxes():
    spec = GridSpec(0.0, 4.0, 4001)
    a = box_mixture_density([1.0], [1.0], 0.5, spec)
    b = box_mixture_density([3.0], [1.0], 0.5, spec)
    assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-9)


def test_l1_requires_matching_grids():
    a = gaussian_grid(0.0, 1.0, GridSpec(-6, 6, 512))
    b = gaussian_grid(0.0, 1.0, GridSpec(-6, 6, 511))
    with pytest.raises(ValueError):
        l1_distance(a, b)


def test_l1_triangle_inequality():
    rng = np.random.default_rng(19)
    spec = GridSpec(-5, 5, 301)
    for _ in range(50):
        ds = [
            GridDensity(spec.lo, spec.hi, rng.uniform(0, 1, spec.n_points))
            for _ in range(3)
        ]
        assert l1_distance(ds[0], ds[1]) <= (
            l1_distance(ds[0], ds[2]) + l1_distance(ds[2], ds[1]) + 1e-12
        )


# ---------------------------------------------------------------------------
# convolve_gaussian / density_mean
# ---------------------------------------------------------------------------

def test_convolve_point_mass_is_gaussian():
    out = convolve_gaussian(DiscreteMeasure.point(0.0), 1.0, GridSpec(-7, 7, 1401))
    expect = gaussian_grid(0.0, 1.0, GridSpec(-7, 7, 1401))
    assert out.normalized
    assert np.max(np.abs(out.values - expect.values)) <= 1e-14


def test_convolve_bimodal_value_at_origin():
    m = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
    out = convolve_gaussian(m, 0.5, GridSpec(-5, 5, 2001))
    at0 = out.values[np.argmin(np.abs(out.grid))]
    # phi_{0.5}(2), both atoms contributing half.
    expect = math.exp(-8.0) / (0.5 * math.sqrt(2 * math.pi))
    assert at0 == pytest.approx(expect, rel=1e-12)
    assert at0 == pytest.approx(2.68e-4, rel=2e-3)


def test_convolve_rejects_bad_sigma():
    with pytest.raises(ValueError):
        convolve_gaussian(DiscreteMeasure.point(0.0), 0.0, GridSpec(-1, 1, 11))


def test_convolve_mass_and_mean_preserved():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_measure(rng)
        sigma = float(rng.uniform(0.2, 1.5))
        lo, hi = m.support_bounds()
        spec = GridSpec(lo - 6 * sigma, hi + 6 * sigma, 2048)
        out = convolve_gaussian(m, sigma, spec)
        assert out.normalized
        assert out.integral() == pytest.approx(1.0, abs=1e-4)
        assert density_mean(out) == pytest.approx(m.mean(), abs=1e-6)


def test_convolve_translation_equivariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_measure(rng)
        shift = float(rng.uniform(-2, 2))
        sigma = 0.7
        lo, hi = m.support_bounds()
        spec = GridSpec(lo - 8, hi + 8, 4096)
        spec_shifted = GridSpec(spec.lo + shift, spec.hi + shift, spec.n_points)
        base = density_mean(convolve_gaussian(m, sigma, spec))
        moved = density_mean(convolve_gaussian(m.shift(shift), sigma, spec_shifted))
        assert moved - base == pytest.approx(shift, abs=1e-6)


def test_density_mean_examples():
    std = gaussian_grid(0.0, 1.0, GridSpec(-8, 8, 4096))
    assert density_mean(std) == pytest.approx(0.0, abs=1e-6)
    box = box_mixture_density([2.5], [1.0], 0.5, GridSpec(1.0, 4.0, 3001))
    assert density_mean(box) == pytest.approx(2.5, abs=1e-9)
    narrow = gaussian_grid(1.7, 0.3, GridSpec(-1, 4.4, 4096))
    assert density_mean(narrow) == pytest.approx(1.7, abs=1e-6)


def test_density_mean_requires_normalized_flag():
    d = GridDensity(0.0, 1.0, [2.0, 2.0])
    with pytest.raises(ValueError):
        density_mean(d)


# ---------------------------------------------------------------------------
# box_mixture_density
# ---------------------------------------------------------------------------

def test_box_mixture_single_box():
    out = box_mixture_density([0.0], [1.0], 0.5, GridSpec(-0.5, 0.5, 101))
    assert out.integral() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-12


def test_box_mixture_pointwise_away_from_edges():
    # Boxes [-0.5, 0.5] and [-0.1, 0.9] of weight 1/2: overlap has height 1.
    out = box_mixture_density([0.0, 0.4], [0.5, 0.5], 0.5, GridSpec(-2, 2, 1601))
    y = out.grid
    s = out.spacing
    edges = np.array([-0.5, -0.1, 0.5, 0.9])
    clear = np.min(np.abs(y[:, None] - edges[None, :]), axis=1) > s
    expect = 0.5 * (np.abs(y) <= 0.5) + 0.5 * (np.abs(y - 0.4) <= 0.5)
    assert np.max(np.abs(out.values[clear] - expect[clear])) <= 1e-12
    assert out.integral() == pytest.approx(1.0, abs=1e-9)


def test_box_mixture_mass_exact_on_covering_grid():
    rng = np.random.default_rng(31)
    locs = rng.uniform(-3, 3, 200)
    wts = rng.dirichlet(np.ones(200))
    out = box_mixture_density(locs, wts, 0.25, GridSpec(-3.25, 3.25, 777))
    assert out.normalized
    assert out.integral() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# properties over generated inputs
# ---------------------------------------------------------------------------

LOCATIONS = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def normalized_measures(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    locs = draw(st.lists(LOCATIONS, min_size=n, max_size=n))
    wts = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                 max_size=n)))
    return DiscreteMeasure(locs, wts / wts.sum())


@settings(max_examples=60, deadline=None)
@given(locs=st.lists(LOCATIONS, min_size=1, max_size=40), data=st.data(),
       half_width=st.floats(0.01, 1.0), margin=st.floats(0.0, 2.0),
       n_points=st.integers(2, 3000))
def test_box_mixture_integral_is_total_weight(locs, data, half_width,
                                              margin, n_points):
    wts = data.draw(st.lists(st.floats(0.0, 2.0), min_size=len(locs),
                             max_size=len(locs)))
    grid = GridSpec(min(locs) - half_width - margin,
                    max(locs) + half_width + margin, n_points)
    out = box_mixture_density(locs, wts, half_width, grid)
    assert out.integral() == pytest.approx(sum(wts), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(normalized_measures(), normalized_measures(), normalized_measures())
def test_wasserstein_is_a_symmetric_metric(a, b, c):
    ab = wasserstein1(a, b)
    assert ab == pytest.approx(wasserstein1(b, a), abs=1e-12)
    assert wasserstein1(a, c) <= ab + wasserstein1(b, c) + 1e-12
    # The transport LP is solved to HiGHS's default tolerance, 1e-7.
    assert ab == pytest.approx(wasserstein1_lp_oracle(a, b), abs=1e-7)


def test_import_without_the_highs_binding_names_the_scipy_floor():
    # A scipy older than 1.15 has no scipy.optimize._highspy._core; the
    # projection LP drives that binding and has no other path.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n"
            "    import demix\n"
            "except ImportError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert "scipy>=1.15" in out


@pytest.mark.parametrize("value", [True, False, "0.25", None, [1.0]],
                         ids=["true", "false", "text", "none", "list"])
def test_positive_finite_rejects_what_is_not_a_real_number(value):
    with pytest.raises(ValueError, match="^width must be positive"):
        require_positive_finite(value, "width")


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(2)])
def test_positive_finite_accepts_numpy_numbers(value):
    require_positive_finite(value, "width")


# What a number argument must refuse: NaN, the infinities, bools and text.
NOT_FINITE_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.text(max_size=8))


@pytest.mark.parametrize("check", [require_finite, require_positive_finite])
@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(2)])
def test_number_checks_return_the_value_as_a_float(check, value):
    out = check(value, "width")
    assert type(out) is float and out == value


@settings(max_examples=100, deadline=None)
@given(least=st.integers(-5, 5), data=st.data())
def test_require_int_enforces_its_lower_bound(least, data):
    below = data.draw(st.integers(least - 10**6, least - 1))
    with pytest.raises(ValueError, match=f"^width must be at least {least}, "
                                         f"got {below}$"):
        require_int(below, "width", least)
    ok = data.draw(st.integers(least, least + 10**6))
    assert require_int(ok, "width", least) == ok
    out = require_int(np.int64(least), "width", least)
    assert type(out) is int and out == least


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(["lo", "hi", "n_points"]), data=st.data())
def test_grid_spec_names_the_argument_it_rejects(field, data):
    bad = NOT_FINITE_NUMBERS
    if field == "n_points":
        bad = bad | st.floats(2.0, 1e6) | st.integers(max_value=1)
    args = {"lo": 0.0, "hi": 1.0, "n_points": 5}
    args[field] = data.draw(bad)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        GridSpec(**args)


def test_grid_spec_holds_float_ends_and_an_int_size():
    spec = GridSpec(-6, np.float32(6.0), np.int64(512))
    assert [type(v) for v in (spec.lo, spec.hi, spec.n_points)] == [
        float, float, int]
    assert spec == GridSpec(-6.0, 6.0, 512)
    with pytest.raises(ValueError, match="^n_points must be at least 2, "
                                         "got 1$"):
        GridSpec(0.0, 1.0, 1)
