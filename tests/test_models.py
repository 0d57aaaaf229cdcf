"""Intersection models, tessellation cells, coupling, meeting counts."""
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from randset import expcli, models
from randset.analytics import (
    RadiusLaw,
    crofton_moments,
    expected_volume_quadrature,
    halfspace_miss_series,
    halfspace_uniform_weight,
    cone_uniform_weight,
    halfspace_miss_quadrature,
    invert_increasing,
    lune_fraction_closed_2d,
    miss_weight_mc,
    sample_radius_exact,
)
from randset.expcli import ExperimentConfig
from randset.geomcore import (
    DirectionGrid,
    direction_grid,
    lune_fraction,
    unit_ball_volume,
    wedge_volume,
)
from randset.models import (
    BALL,
    HALF_SPACE,
    CroftonCell,
    ShapeKind,
    UnboundedCellError,
    _center_pins,
    _polar_hulls,
    _zero_cells,
    cone,
    count_scale,
    coupling_transform,
    crofton_cell,
    crofton_cells,
    exit_distance,
    first_circle_crossing,
    interval_intersection_1d,
    interval_intersection_stats,
    intersection_radius,
    meeting_count_mc,
    sample_axis_radii,
    sample_intersection_model,
    segment_crossing_count,
    shell_containment_indicator,
    sphere_tessellation_cell_2d,
    windowed_ball_pins,
)
from randset.ppp import (
    ProcessSample,
    RadialMeasure,
    RngStream,
    ShellDepthCdfs,
    _sample_band,
    axis_cosines,
    coupon_bound,
    coupon_empirical,
    depth_radial_law,
    poisson_band,
    poisson_log_tail_check,
    sample_ball_uniform,
    sample_poisson_count,
    sample_shell,
    uniform_directions,
    uniform_radial_law,
)

from conftest import assert_close_sigma, binomial_se


def star_contains(radius, x):
    """Whether each row of x lies in the set, star-shaped about the origin,
    whose radii on a DirectionGrid are radius(grid): |x| <= radius(x/|x|),
    and the origin is inside."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    nx = np.linalg.norm(x, axis=1)
    grid = DirectionGrid(x.shape[1], x / np.where(nx > 0.0, nx, 1.0)[:, None])
    return (nx == 0.0) | (nx <= radius(grid))


# the one-direction grid along e1
E1_GRID = DirectionGrid(2, [[1.0, 0.0]])


class TestShapes:
    def test_kinds(self):
        assert BALL.kind == "ball" and BALL.beta is None
        assert HALF_SPACE.kind == "half-space"
        assert cone(1.0).beta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeKind("wedge")
        with pytest.raises(ValueError):
            cone(0.0)
        with pytest.raises(ValueError):
            cone(np.pi)
        with pytest.raises(ValueError):
            ShapeKind("ball", beta=0.5)
        with pytest.raises(ValueError):
            ShapeKind("cone")


class TestCountScale:
    def test_values(self):
        u2, n2 = uniform_radial_law(2), depth_radial_law(2)
        assert count_scale(BALL, u2, 2) == 1.0
        assert count_scale(BALL, n2, 2) == 1.0
        assert count_scale(HALF_SPACE, u2, 2) == pytest.approx(np.pi)
        assert count_scale(HALF_SPACE, n2, 2) == 1.0
        assert count_scale(cone(1.0), u2, 2) == pytest.approx(np.pi)
        assert count_scale(HALF_SPACE, uniform_radial_law(3), 3) == pytest.approx(
            4.0 * np.pi / 3.0)


def ball_pin_radius(centers, grid):
    """intersection_radius(BALL, ...) of the unit balls centered at the rows
    of `centers`, passed as pins (|c|, c / |c|) as the library passes them."""
    return intersection_radius(BALL, *_center_pins(np.asarray(centers, dtype=float)), grid)


class TestBallRadius:
    def test_no_centers(self):
        grid = direction_grid(2, 8)
        assert np.array_equal(intersection_radius(BALL, np.empty(0), np.empty((0, 2)), grid),
                              np.ones(8))
        assert np.array_equal(ball_pin_radius(np.empty((0, 2)), grid), np.ones(8))

    def test_pinned_values(self):
        e1 = np.array([[1.0, 0.0]])
        back = DirectionGrid(2, -e1)
        assert intersection_radius(BALL, [0.5], e1, E1_GRID)[0] == pytest.approx(1.0)
        assert intersection_radius(BALL, [0.5], e1, back)[0] == pytest.approx(0.5)
        # a center at the origin: pin radius 0, with any direction or none
        assert intersection_radius(BALL, [0.0], e1, E1_GRID)[0] == 1.0
        assert ball_pin_radius(np.zeros((1, 2)), E1_GRID)[0] == 1.0

    def test_center_outside_rejected(self):
        with pytest.raises(ValueError, match=r"ball pin radii must lie in \[0, 1\]"):
            intersection_radius(BALL, [1.2], [[1.0, 0.0]], E1_GRID)

    def test_scan_oracle(self, rng):
        g = rng.spawn("ball-scan").gen
        c = 0.9 * g.standard_normal((5, 2))
        c /= np.maximum(1.0, np.linalg.norm(c, axis=1))[:, None] * 1.1
        grid = direction_grid(2, 8)
        dirs = grid.points
        r = ball_pin_radius(c, grid)
        t = np.linspace(0.0, 1.0, 10_001)
        for k in range(8):
            pts = t[:, None] * dirs[k]
            inside = np.all(
                np.linalg.norm(pts[:, None, :] - c[None, :, :], axis=2) <= 1.0,
                axis=1)
            scan = t[np.argmin(inside)] if not inside.all() else 1.0
            assert abs(r[k] - scan) < 2e-4


class TestHalfspaceRadius:
    def test_pinned_values(self):
        normals = np.eye(2)
        offsets = np.array([0.3, 0.4])
        diag = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        r = intersection_radius(HALF_SPACE, offsets, normals, DirectionGrid(2, diag))
        assert r[0] == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)
        # no constraint faces -e1, so the unit ball caps the radius
        r = intersection_radius(HALF_SPACE, offsets, normals, DirectionGrid(2, [[-1.0, 0.0]]))
        assert r[0] == 1.0

    def test_empty_and_rmax(self):
        grid = direction_grid(2, 4)
        r = intersection_radius(HALF_SPACE, np.empty(0), np.empty((0, 2)), grid,
                                rmax=2.5)
        assert np.array_equal(r, np.full(4, 2.5))

    def test_nonpositive_offsets(self):
        with pytest.raises(ValueError):
            intersection_radius(HALF_SPACE, np.array([0.3, 0.0]), np.eye(2), E1_GRID)

    def test_contains_consistency(self, rng):
        g = rng.spawn("hs-scan").gen
        th = g.standard_normal((4, 2))
        th /= np.linalg.norm(th, axis=1)[:, None]
        p = g.uniform(0.2, 0.8, 4)
        grid = direction_grid(2, 16)
        dirs = grid.points
        r = intersection_radius(HALF_SPACE, p, th, grid)
        for k in range(16):
            x_in = (r[k] - 1e-9) * dirs[k]
            assert np.all(th @ x_in <= p + 1e-12)
            if r[k] < 1.0:
                x_out = (r[k] + 1e-9) * dirs[k]
                assert not np.all(th @ x_out <= p + 1e-12)


class TestConeExit:
    def test_empty(self):
        grid = direction_grid(2, 4)
        assert np.array_equal(intersection_radius(cone(1.0), np.empty(0), np.empty((0, 2)),
                                                  grid), np.ones(4))

    def test_right_angle_is_halfspace(self, rng):
        g = rng.spawn("cone-hs").gen
        th = g.standard_normal((5, 2))
        th /= np.linalg.norm(th, axis=1)[:, None]
        p = g.uniform(0.3, 0.7, 5)
        grid = direction_grid(2, 64)
        rc = intersection_radius(cone(np.pi / 2.0), p, th, grid)
        rh = intersection_radius(HALF_SPACE, p, th, grid)
        assert np.allclose(rc, rh, atol=1e-10)

    def test_membership_scan(self, rng):
        # inside the pinned cone iff the angle at the apex stays below beta
        g = rng.spawn("cone-scan").gen
        beta = 2.0 * np.pi / 5.0
        cosb = np.cos(beta)
        th = g.standard_normal((3, 2))
        th /= np.linalg.norm(th, axis=1)[:, None]
        p = g.uniform(0.3, 0.7, 3)
        apex = p[:, None] * th
        grid = direction_grid(2, 12)
        dirs = grid.points
        r = intersection_radius(cone(beta), p, th, grid)
        t = np.linspace(0.0, 1.0, 10_001)
        for k in range(12):
            pts = t[:, None] * dirs[k]
            w = pts[:, None, :] - apex[None, :, :]
            along = -np.einsum("tij,ij->ti", w, th)
            inside = np.all(along >= cosb * np.linalg.norm(w, axis=2) - 1e-12,
                            axis=1)
            scan = t[np.argmin(inside)] if not inside.all() else 1.0
            assert abs(r[k] - scan) < 2e-4


class TestPointMiss:
    @pytest.mark.parametrize("shape", [BALL, HALF_SPACE, cone(2.0 * np.pi / 5.0)])
    def test_dual_route(self, shape, rng):
        # missing the shape pinned at (p, theta) is the same as the probe
        # r*e1 lying outside that copy, tested by direct geometric membership
        g = rng.spawn("miss", shape.kind).gen
        angles = g.uniform(0.0, 2.0 * np.pi, 40)
        th = np.column_stack([np.cos(angles), np.sin(angles)])
        p = g.uniform(0.2, 0.9, 40)
        seen = set()
        for i in range(40):
            apex = p[i] * th[i]
            for r in (0.05, 0.3, 0.62, 0.97):
                x = np.array([r, 0.0])
                if shape.kind == "ball":
                    margin = 1.0 - np.linalg.norm(x - apex)
                    inside = margin >= 0.0
                elif shape.kind == "half-space":
                    margin = p[i] - x @ th[i]
                    inside = x @ th[i] <= p[i] + 1e-12
                else:
                    # inside iff the angle at the apex stays below beta
                    w = x - apex
                    margin = -(w @ th[i]) - np.cos(shape.beta) * np.linalg.norm(w)
                    inside = margin >= 0.0
                if abs(margin) < 1e-9:
                    continue
                miss = exit_distance(shape, p[i], th[i, 0]) < r
                assert bool(miss) == (not inside)
                seen.add(inside)
        assert seen == {True, False}


# every entry point that takes a Poisson intensity, called with that
# intensity; the first group accepts lam = 0, the second needs lam > 1
_INTENSITY_ENTRY_POINTS = (
    lambda lam, rng: sample_intersection_model(2, lam, uniform_radial_law(2), BALL, rng),
    lambda lam, rng: sample_axis_radii(2, lam, uniform_radial_law(2), BALL, 4, rng),
    lambda lam, rng: sample_radius_exact(2, lam, 4, rng),
    lambda lam, rng: RadiusLaw(2, lam).atom_mass(),
    lambda lam, rng: expected_volume_quadrature(2, lam),
    lambda lam, rng: sample_shell(2, lam, 0.1, "both", rng),
    lambda lam, rng: sample_ball_uniform(2, lam, rng),
    lambda lam, rng: interval_intersection_1d(lam, rng),
    lambda lam, rng: interval_intersection_stats(lam, 4, rng),
    lambda lam, rng: meeting_count_mc("boolean", 2, lam, 0.01, 4, rng),
    lambda lam, rng: list(windowed_ball_pins(2, lam, 4, rng)),
    lambda lam, rng: coupling_transform(sample_shell(2, 50.0, 0.1, "both", rng).points,
                                        lam, 0.1, rng, direction_grid(2, 16)),
)
_LAM_ABOVE_ONE_ENTRY_POINTS = (
    lambda lam, rng: coupon_bound(6, 1.0 / 6.0, lam),
    lambda lam, rng: poisson_log_tail_check(lam),
    lambda lam, rng: shell_containment_indicator(2, lam, rng, direction_grid(2, 8)),
)

# every sampler that draws its Poisson counts in batches, at a mean past
# numpy's limit: each names the Poisson mean, not numpy's "lam value too large"
_HUGE_MEAN_CALLS = {
    "sample_axis_radii": lambda rng: sample_axis_radii(
        2, 1e300, uniform_radial_law(2), BALL, 4, rng),
    "segment_crossing_count": lambda rng: segment_crossing_count(2, 1e19, 4, rng),
    "interval_intersection_stats": lambda rng: interval_intersection_stats(1e300, 4, rng),
    "meeting_count_mc-boolean": lambda rng: meeting_count_mc("boolean", 2, 1e300, 0.01, 4, rng),
    "meeting_count_mc-hyperplane": lambda rng: meeting_count_mc(
        "hyperplane-tess", 2, 1e300, 0.01, 4, rng),
}


@pytest.mark.parametrize("call", _HUGE_MEAN_CALLS.values(), ids=_HUGE_MEAN_CALLS.keys())
def test_poisson_mean_past_numpy_limit(call, rng):
    with pytest.raises(ValueError, match=r"Poisson mean must be finite and in \[0, 9\.223e\+18\]"):
        call(rng)


# every sampler that holds one replicate's band whole, at a mean within
# numpy's limit but past the cap: each names the mean and the cap, where
# numpy would have tried to allocate terabytes
_HUGE_BAND_CALLS = {
    "interval_intersection_stats": lambda rng: interval_intersection_stats(1e12, 4, rng),
    "meeting_count_mc-boolean": lambda rng: meeting_count_mc("boolean", 2, 1e13, 0.01, 4, rng),
    "segment_crossing_count": lambda rng: segment_crossing_count(2, 1e12, 4, rng),
    "sample_intersection_model": lambda rng: sample_intersection_model(
        2, 1e12, uniform_radial_law(2), BALL, rng),
    "sample_ball_uniform": lambda rng: sample_ball_uniform(2, 1e12, rng),
}


@pytest.mark.parametrize("call", _HUGE_BAND_CALLS.values(), ids=_HUGE_BAND_CALLS.keys())
def test_band_past_the_point_cap(call, rng):
    with pytest.raises(ValueError, match=r"a Poisson band of mean \S+ exceeds the cap of "
                                         r"1e\+08 points per replicate"):
        call(rng)


# every entry point that takes a count, by the count's name and least value
_COUNT_ENTRY_POINTS = (
    ("n", 0, lambda n, rng: sample_axis_radii(2, 10.0, uniform_radial_law(2), BALL, n, rng)),
    ("n", 0, lambda n, rng: uniform_directions(2, n, rng)),
    ("n", 0, lambda n, rng: sample_radius_exact(2, 10.0, n, rng)),
    ("n", 2, lambda n, rng: miss_weight_mc(BALL, uniform_radial_law(2), 2, 0.3, n, rng)),
    ("replicates", 2, lambda n, rng: interval_intersection_stats(10.0, n, rng)),
    ("replicates", 2, lambda n, rng: meeting_count_mc("boolean", 2, 10.0, 0.01, n, rng)),
    ("t", 1, lambda n, rng: coupon_empirical(2, [0.5, 0.5], n, 4, rng)),
    ("replicates", 1, lambda n, rng: coupon_empirical(2, [0.5, 0.5], 4, n, rng)),
    ("k", 1, lambda n, rng: coupon_bound(n, 0.5, 10.0)),
    ("k", 1, lambda n, rng: coupon_empirical(n, [1.0], 3, 3, rng)),
    ("grid size", 1, lambda n, rng: direction_grid(2, n)),
    ("n", 0, lambda n, rng: segment_crossing_count(2, 1.0, n, rng)),
    ("n", 0, lambda n, rng: models.crofton_cells(2, n, rng)),
    ("n", 0, lambda n, rng: windowed_ball_pins(2, 10.0, n, rng)),
    ("n", 0, lambda n, rng: axis_cosines(2, n, rng)),
)


@pytest.mark.parametrize("bad", [2.5, -1, True])
@pytest.mark.parametrize("name, minimum, call", _COUNT_ENTRY_POINTS)
def test_bad_count(name, minimum, call, bad, rng):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {minimum}, got {bad}"):
        call(bad, rng)


# a value outside each range check; NaN fails every comparison, so a check
# must let only in-range values through rather than look for bad ones
_OUT_OF_RANGE_CALLS = {
    "invert_increasing": lambda: invert_increasing(lambda x: x, np.nan, 0.0, 1.0),
    "lune_fraction": lambda: lune_fraction(2, np.nan),
    "lune_fraction-array": lambda: lune_fraction(2, np.array([0.5, np.nan])),
    "lune_fraction_closed_2d": lambda: lune_fraction_closed_2d(np.nan),
    "wedge_volume": lambda: wedge_volume(2, np.nan),
    "wedge_volume-inf": lambda: wedge_volume(2, np.inf),
    "halfspace_uniform_weight": lambda: halfspace_uniform_weight(2, np.nan),
    "cone_uniform_weight": lambda: cone_uniform_weight(1.0, np.nan),
    "ShellDepthCdfs.transport": lambda: ShellDepthCdfs(0.1, 2).transport(np.nan),
    "ShellDepthCdfs.inner_inverse": lambda: ShellDepthCdfs(0.1, 2).inner_inverse(np.nan),
    "intersection_radius-ball": lambda: intersection_radius(
        BALL, [np.nan], [[1.0, 0.0]], E1_GRID),
    "intersection_radius-half-space": lambda: intersection_radius(
        HALF_SPACE, [np.nan], [[1.0, 0.0]], E1_GRID),
    "intersection_radius-cone": lambda: intersection_radius(
        cone(1.0), [np.nan], [[1.0, 0.0]], E1_GRID),
    "intersection_radius-pin-direction": lambda: intersection_radius(
        BALL, [0.5], [[np.nan, 0.0]], E1_GRID),
    "intersection_radius-rmax": lambda: intersection_radius(
        BALL, [0.5], [[1.0, 0.0]], E1_GRID, rmax=np.nan),
    "first_circle_crossing": lambda: first_circle_crossing([[np.nan, 0.0]], E1_GRID),
    "first_circle_crossing-inf": lambda: first_circle_crossing([[np.inf, 0.0]], E1_GRID),
    # the grid checks its rows once, for every kernel that takes it
    "DirectionGrid": lambda: DirectionGrid(2, np.array([[np.nan, 0.0]])),
    "DirectionGrid-inf": lambda: DirectionGrid(2, np.array([[np.inf, 0.0]])),
    "DirectionGrid-minus-inf": lambda: DirectionGrid(2, np.array([[-np.inf, 0.0]])),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE_CALLS.values(), ids=_OUT_OF_RANGE_CALLS.keys())
def test_nan_rejected(call):
    with pytest.raises(ValueError):
        call()


def _fair_signs(u) -> bool:
    return set(np.unique(u)) == {-1.0, 1.0} and abs(np.mean(u)) < 3.0 / np.sqrt(u.size)


# branches no other test reaches: a call and what it must give, either a
# check of its result or the message of the ValueError it raises
_GUARD_CALLS = {
    # a row of fewer than d + 1 lines fails _zero_cells' row rule before
    # any hull is asked for
    "zero-cell-no-half-spaces": (
        lambda rng: zero_cell(3, np.empty((0, 3)), np.empty(0), 10.0),
        lambda out: out is None),
    # intersection_radius checks the pin dimension itself (pins-dimension),
    # so the circles are the one route into _binding_min's own check
    "binding-min-dimensions": (
        lambda rng: first_circle_crossing([[0.5, 0.0, 0.0]], E1_GRID),
        "centers of dimension 3 and directions of dimension 2 do not match"),
    "axis-cosines-line": (lambda rng: axis_cosines(1, 4000, rng), _fair_signs),
    "band-bounds": (lambda rng: _sample_band(2, 1.0, 0.5, 0.5, rng), "need 0 <= lo < hi"),
    "ball-rmax": (lambda rng: sample_ball_uniform(2, 1.0, rng, rmax=0.0),
                  "rmax must be > 0"),
    "pins-rmax": (lambda rng: intersection_radius(BALL, [0.5], [[1.0, 0.0]], E1_GRID,
                                                  rmax=-1.0), "rmax must be > 0"),
    # one radius, two directions: not two pins of radius 0.5
    "pins-fewer-radii": (
        lambda rng: intersection_radius(BALL, [0.5], [[1.0, 0.0], [-1.0, 0.0]], E1_GRID),
        r"pin radii of shape \(1,\), pin directions of shape \(2, 2\) .* do not match"),
    "pins-more-radii": (
        lambda rng: intersection_radius(HALF_SPACE, [0.5, 0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]],
                                        E1_GRID),
        r"pin radii of shape \(3,\), pin directions of shape \(2, 2\) .* do not match"),
    "pins-dimension": (
        lambda rng: intersection_radius(HALF_SPACE, [0.5], [[1.0, 0.0, 0.0]],
                                        direction_grid(2, 8)),
        r"pin directions of shape \(1, 3\) and directions of shape \(8, 2\) do not match"),
    # the ball's bound 1 - p holds only for p >= 0
    "pins-negative-ball-radius": (
        lambda rng: intersection_radius(BALL, [-0.5], [[1.0, 0.0]], E1_GRID),
        r"ball pin radii must lie in \[0, 1\]"),
    # a grid row of norm 3 would scale the kernels' exits and one of norm
    # 1e200 overflow them; the check itself takes the norm without a warning
    "direction-grid-norm-3": (lambda rng: DirectionGrid(2, np.array([[3.0, 0.0]])),
                              "grid rows must be unit vectors"),
    "direction-grid-norm-1e200": (lambda rng: DirectionGrid(2, np.array([[1e200, 0.0]])),
                                  "grid rows must be unit vectors"),
    "empty-direction-grid": (lambda rng: DirectionGrid(2, np.empty((0, 2))), "nonempty"),
    "quadrature-radius": (lambda rng: halfspace_miss_quadrature(3, 1.5),
                          r"r must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("case", _GUARD_CALLS)
def test_guard_branches(case, rng):
    call, outcome = _GUARD_CALLS[case]
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            call(rng.spawn(case))
    else:
        assert outcome(call(rng.spawn(case)))


class TestSampleModel:
    def test_empty_intensity(self, rng):
        m = sample_intersection_model(2, 0.0, uniform_radial_law(2), BALL,
                                      rng.spawn("empty"))
        assert m.count == 0
        radius = partial(intersection_radius, BALL, m.pin_radii, m.pin_dirs)
        assert np.array_equal(radius(direction_grid(2, 32)), np.ones(32))
        assert star_contains(radius, [0.0, 0.999]).all()

    def test_cone_needs_plane(self, rng):
        with pytest.raises(ValueError):
            sample_intersection_model(3, 1.0, uniform_radial_law(3),
                                      cone(1.0), rng)
        with pytest.raises(ValueError):
            sample_axis_radii(3, 1.0, uniform_radial_law(3), cone(1.0), 4, rng)

    def test_negative_intensity(self, rng):
        with pytest.raises(ValueError):
            sample_intersection_model(2, -2.0, uniform_radial_law(2), BALL, rng)

    @pytest.mark.parametrize("lam", [np.nan, -1.0, np.inf, True])
    def test_bad_intensity(self, lam, rng):
        for call in _INTENSITY_ENTRY_POINTS:
            with pytest.raises(ValueError, match="intensity must be finite and >= 0"):
                call(lam, rng)
        for call in _LAM_ABOVE_ONE_ENTRY_POINTS:
            with pytest.raises(ValueError, match="lam must be finite and exceed 1"):
                call(lam, rng)
        with pytest.raises(ValueError, match="length must be finite and > 0"):
            segment_crossing_count(2, lam, 4, rng)

    def test_zero_intensity_accepted(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in _INTENSITY_ENTRY_POINTS:
                call(0.0, rng)
            # every replicate is [-1, 1]: constant endpoints, no correlation
            assert interval_intersection_stats(0.0, 4, rng)["endpoint_corr"] == 0.0

    def test_large_dimension(self, rng):
        # past d = 341 the ball volume underflowed to 0, so these drew or
        # integrated an empty process; d = 341 itself still runs
        entry_points = (
            lambda d: sample_intersection_model(d, 10.0, uniform_radial_law(d), BALL, rng),
            lambda d: sample_axis_radii(d, 10.0, uniform_radial_law(d), BALL, 4, rng),
            lambda d: expected_volume_quadrature(d, 10.0),
            lambda d: poisson_log_tail_check(10.0, d),
        )
        for call in entry_points:
            call(341)
            with pytest.raises(ValueError, match="0 <= d <= 341"):
                call(342)

    def test_custom_law_without_pins(self):
        # a Poisson count of 0 hands the law's inverse an empty array
        law = RadialMeasure("sq", lambda r: np.asarray(r) ** 2, np.sqrt)
        m = sample_intersection_model(2, 1e-9, law, HALF_SPACE, RngStream(1))
        assert m.count == 0
        radii = intersection_radius(HALF_SPACE, m.pin_radii, m.pin_dirs, direction_grid(2, 8))
        assert np.array_equal(radii, np.ones(8))

    def test_membership_brute_force_ball(self, rng):
        m = sample_intersection_model(2, 20.0, uniform_radial_law(2), BALL,
                                      rng.spawn("bf-ball"))
        c = m.pin_radii[:, None] * m.pin_dirs
        g = rng.spawn("bf-pts").gen
        x = g.uniform(-1.0, 1.0, (10_000, 2))
        x = x[np.linalg.norm(x, axis=1) <= 1.0]
        dist = np.linalg.norm(x[:, None, :] - c[None, :, :], axis=2)
        truth = np.all(dist <= 1.0, axis=1)
        margin = np.abs(dist - 1.0).min(axis=1) > 1e-9
        inside = star_contains(partial(intersection_radius, BALL, m.pin_radii, m.pin_dirs),
                               x[margin])
        assert np.array_equal(inside, truth[margin])
        assert np.count_nonzero(margin) > 7000

    def test_membership_brute_force_halfspace(self, rng):
        m = sample_intersection_model(2, 4.0, uniform_radial_law(2), HALF_SPACE,
                                      rng.spawn("bf-hs"))
        g = rng.spawn("bf-hs-pts").gen
        x = g.uniform(-1.0, 1.0, (4000, 2))
        x = x[np.linalg.norm(x, axis=1) <= 1.0 - 1e-9]
        slack = x @ m.pin_dirs.T - m.pin_radii[None, :]
        keep = np.abs(slack).min(axis=1) > 1e-9
        radius = partial(intersection_radius, HALF_SPACE, m.pin_radii, m.pin_dirs)
        assert np.array_equal(star_contains(radius, x[keep]),
                              np.all(slack[keep] < 0.0, axis=1))

    def test_monotone_in_centers(self, rng):
        # every added ball can only shrink the intersection
        g = rng.spawn("mono").gen
        c = g.uniform(-0.6, 0.6, (8, 2))
        grid = direction_grid(2, 128)
        prev = np.ones(128)
        for k in range(1, 9):
            cur = ball_pin_radius(c[:k], grid)
            assert np.all(cur <= prev + 1e-12)
            prev = cur


def full_evaluation(kernel, centers, grid):
    """kernel over every center: the culled kernel with the cull switched
    off, so the arithmetic of each radius is the same."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_CULL_KEEP", 10**9)
        return kernel(centers, grid)


def symmetric_copies(a, b):
    """The 8 centers (+-a, +-b) and (+-b, +-a), all of exactly one norm."""
    return np.array([(x * a, y * b) for x in (1, -1) for y in (1, -1)]
                    + [(x * b, y * a) for x in (1, -1) for y in (1, -1)], dtype=float)


PIN_SHAPES = [BALL, HALF_SPACE, cone(np.pi / 3.0), cone(2.0 * np.pi / 3.0)]
PIN_SHAPE_IDS = ["ball", "half-space", "cone-pi/3", "cone-2pi/3"]


def pin_reference(shape, pins, grid, rmax=1.0):
    """Every pin's exits, direction-major, from the same products summed in
    the same order as intersection_radius: its radii bit for bit.  Ball
    pins go through their centers c = p * Theta, <dir, c> and |c|^2, as
    intersection_radius takes them; the other shapes through <dir, Theta>."""
    p, th = pins
    dirs = grid.points
    vecs = p[:, None] * th if shape.kind == "ball" else th
    dot = dirs[:, 0, None] * vecs[:, 0]
    for j in range(1, dirs.shape[1]):
        dot += dirs[:, j, None] * vecs[:, j]
    if shape.kind == "ball":
        exits = models._ball_exit(dot, np.sum(vecs * vecs, axis=1))
    else:
        exits = exit_distance(shape, p, dot)
    return np.clip(np.min(exits, axis=1), 0.0, rmax)


class TestCulledKernels:
    """intersection_radius's ball pins and first_circle_crossing evaluate
    only the centers whose bound (1 - |c| for balls, |1 - |c|| for circles)
    is at most the largest radius; the result must be the full
    evaluation's, bit for bit."""

    GRID = direction_grid(2, 1024)
    KERNELS = [ball_pin_radius, first_circle_crossing]

    def assert_exact(self, kernel, centers):
        culled = kernel(centers, self.GRID)
        assert np.array_equal(culled, full_evaluation(kernel, centers, self.GRID))
        return culled

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fewer_centers_than_kept(self, kernel, rng):
        g = rng.spawn("cull-few").gen
        centers = g.uniform(-0.6, 0.6, (models._CULL_KEEP - 5, 2))
        self.assert_exact(kernel, centers)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ties_at_the_threshold(self, kernel):
        # ranks 1-4 are (a, a) copies, then groups of 8 of one norm each,
        # so the 32nd smallest bound is tied across ranks 29 to 36
        centers = np.vstack([symmetric_copies(0.7, 0.7)[:4]]
                            + [symmetric_copies(0.9 - 0.1 * k, 0.2) for k in range(6)])
        s = np.linalg.norm(centers, axis=1)
        bound = 1.0 - s if kernel is ball_pin_radius else np.abs(1.0 - s)
        kth = np.sort(bound)[models._CULL_KEEP - 1]
        assert np.count_nonzero(bound == kth) == 8 and np.count_nonzero(bound > kth) > 0
        self.assert_exact(kernel, centers)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wide_spread_needs_the_second_pass(self, kernel, rng):
        # 40 centers just inside the sphere near +e1 leave the directions
        # around +e1 to 20 deeper centers near -e1, which the first pass
        # (the 32 smallest bounds) does not evaluate
        g = rng.spawn("cull-wide").gen
        a, b = g.uniform(-0.3, 0.3, 40), g.uniform(-0.3, 0.3, 20)
        near = 0.999 * np.column_stack([np.cos(a), np.sin(a)])
        deep = 0.5 * np.column_stack([-np.cos(b), np.sin(b)])
        centers = np.vstack([near, deep])
        culled = self.assert_exact(kernel, centers)
        assert not np.array_equal(culled, full_evaluation(kernel, near, self.GRID))

    def test_exterior_circles_that_no_ray_meets(self, rng):
        # every center lies outside the sphere in one quadrant, so the rays
        # into the opposite quadrant meet no circle
        g = rng.spawn("cull-exterior").gen
        a = g.uniform(0.0, np.pi / 2.0, 60)
        centers = g.uniform(1.2, 1.5, 60)[:, None] * np.column_stack([np.cos(a), np.sin(a)])
        r = self.assert_exact(first_circle_crossing, centers)
        assert np.isinf(r).any() and np.isfinite(r).any()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_centers_on_the_sphere(self, kernel, rng):
        g = rng.spawn("cull-sphere").gen
        a = g.uniform(0.0, 2.0 * np.pi, 50)
        axes = np.vstack([np.eye(2), -np.eye(2)])
        centers = np.vstack([axes, g.uniform(0.2, 0.999, 50)[:, None]
                             * np.column_stack([np.cos(a), np.sin(a)])])
        self.assert_exact(kernel, centers)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_three_dimensions(self, kernel, rng):
        # the center-major dot products run over every coordinate; 200
        # centers spread in depth leave the cull some to skip
        grid = direction_grid(3, 1000)
        g = rng.spawn("cull-3d").gen
        u = g.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        centers = g.uniform(0.2, 0.999, 200)[:, None] * u
        culled = kernel(centers, grid)
        assert np.array_equal(culled, full_evaluation(kernel, centers, grid))
        # direction-major reference: the same products summed in the same
        # order, so the same radii bit for bit; the balls' centers are
        # those of their pins, p * Theta
        if kernel is ball_pin_radius:
            assert np.array_equal(culled, pin_reference(BALL, _center_pins(centers), grid))
            return
        dirs = grid.points
        dot = dirs[:, 0, None] * centers[:, 0]
        for j in range(1, 3):
            dot += dirs[:, j, None] * centers[:, j]
        s2 = np.sum(centers * centers, axis=1)
        assert np.array_equal(culled, np.min(models._circle_exit(dot, s2), axis=1))

    def test_seeded_shells(self, rng, monkeypatch):
        # at lam = 3000: shell_containment_indicator's shell (about 790
        # centers, as the pins it passes) and the coupling block's
        # tessellation sample (about 200); the cull evaluates a few dozen
        # centers per call
        lam = 3000.0
        margin = 2.0 * np.log(lam) ** 2 / lam
        eps = np.log(lam) ** 2 / (2.0 * lam)
        evaluated, given = [], 0
        ball_exit = models._ball_exit

        def counted(dot, s2):
            evaluated.append(dot.shape[0])
            return ball_exit(dot, s2)

        for i in range(200):
            r = rng.spawn("cull-shells", i)
            shell = _center_pins(sample_shell(2, lam, margin, "inner", r.spawn("contain")).points)
            tess = sample_shell(2, lam / 2.0, eps, "both", r.spawn("tess")).points
            with monkeypatch.context() as mp:
                mp.setattr(models, "_ball_exit", counted)
                culled = intersection_radius(BALL, *shell, self.GRID)
            given += shell[0].size
            assert np.array_equal(culled, self.assert_pins_exact(BALL, shell, self.GRID))
            self.assert_exact(first_circle_crossing, tess)
        assert given > 200 * 700 and len(evaluated) >= 200 and sum(evaluated) < 200 * 40

    def test_containment_verdict(self, rng, monkeypatch):
        grid = direction_grid(2, 1024)

        def verdicts():
            return [shell_containment_indicator(2, 3000.0, rng.spawn("cull-verdict", i), grid)
                    for i in range(50)]

        culled = verdicts()
        monkeypatch.setattr(models, "_CULL_KEEP", 10**9)
        assert culled == verdicts()

    # intersection_radius culls pins by their bound b(p) = b0 + slope * p
    # (_pin_bound): 1 - p for balls, p for half-spaces, p sin(beta) for cones

    def assert_pins_exact(self, shape, pins, grid, rmax=1.0):
        culled = intersection_radius(shape, *pins, grid, rmax=rmax)
        assert np.array_equal(culled, pin_reference(shape, pins, grid, rmax))
        kernel = partial(intersection_radius, shape, rmax=rmax)
        assert np.array_equal(culled, full_evaluation(lambda pins, grid: kernel(*pins, grid),
                                                      pins, grid))
        return culled

    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=PIN_SHAPE_IDS)
    def test_pins_fewer_than_kept(self, shape, rng):
        g = rng.spawn("cull-pins-few").gen
        k = models._CULL_KEEP - 5
        pins = pin_arrays(list(zip(g.uniform(0.2, 0.9, k), g.uniform(0.0, 2.0 * np.pi, k))))
        self.assert_pins_exact(shape, pins, self.GRID)

    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=PIN_SHAPE_IDS)
    def test_pins_ties_at_the_threshold(self, shape, rng):
        # bound ranks 1-4 share one radius, then groups of 8, so the 32nd
        # smallest bound is tied across ranks 29 to 36
        rank = np.repeat([0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [4, 8, 8, 8, 8, 8, 8])
        p = 1.0 - rank if shape.kind == "ball" else rank
        b0, slope = models._pin_bound(shape)
        bound = b0 + slope * p
        kth = np.sort(bound)[models._CULL_KEEP - 1]
        assert np.count_nonzero(bound == kth) == 8 and np.count_nonzero(bound > kth) > 0
        g = rng.spawn("cull-pins-ties").gen
        angles = g.uniform(0.0, 2.0 * np.pi, p.size)
        self.assert_pins_exact(shape, pin_arrays(list(zip(p, angles))), self.GRID)

    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=PIN_SHAPE_IDS)
    def test_pins_need_the_second_pass(self, shape, rng):
        # 40 pins of least bound facing +e1 leave the directions around -e1
        # open, to 20 pins of larger bound facing -e1 that the first pass
        # (the 32 smallest bounds) does not evaluate
        g = rng.spawn("cull-pins-wide").gen
        a, b = g.uniform(-0.3, 0.3, 40), g.uniform(-0.3, 0.3, 20)
        near = pin_arrays([(0.999 if shape.kind == "ball" else 0.001, x) for x in a])
        deep = pin_arrays([(0.5, np.pi + x) for x in b])
        pins = tuple(np.concatenate(pair) for pair in zip(near, deep))
        culled = self.assert_pins_exact(shape, pins, self.GRID)
        assert not np.array_equal(culled, pin_reference(shape, near, self.GRID))

    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=PIN_SHAPE_IDS)
    def test_pins_bound_is_reached(self, shape):
        # the 32 pins of the first pass face three ways; one more pin, whose
        # least exit is 0.999 R, is turned to reach it where their largest
        # radius R is reached, so a bound larger by 0.001 R would leave out
        # a pin that binds
        k = models._CULL_KEEP
        first = pin_arrays([(0.9 if shape.kind == "ball" else 0.1, i % 3 * 2.0 * np.pi / 3.0)
                            for i in range(k)])
        r = intersection_radius(shape, *first, self.GRID)
        i = np.argmax(r)
        # the pin radius of least exit v, reached along -Theta for balls,
        # along Theta for half-spaces and obtuse cones, and at pi/2 - beta
        # from Theta for acute cones
        v = 0.999 * r[i]
        if shape.kind == "ball":
            p, turn = 1.0 - v, np.pi
        elif shape.kind == "half-space" or shape.beta > np.pi / 2.0:
            p, turn = v, 0.0
        else:
            p, turn = v / np.sin(shape.beta), np.pi / 2.0 - shape.beta
        # each first-pass pin exits below v, so its bound lies below the new pin's
        assert np.min(pin_reference(shape, (first[0][:1], first[1][:1]), self.GRID)) < v
        extra = pin_arrays([(p, np.arctan2(self.GRID.points[i, 1], self.GRID.points[i, 0]) + turn)])
        pins = tuple(np.concatenate(pair) for pair in zip(first, extra))
        assert self.assert_pins_exact(shape, pins, self.GRID)[i] < r[i]

    @pytest.mark.parametrize("shape", PIN_SHAPES[:2], ids=PIN_SHAPE_IDS[:2])
    def test_pins_in_three_dimensions(self, shape, rng):
        g = rng.spawn("cull-pins-3d").gen
        u = g.standard_normal((200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        self.assert_pins_exact(shape, (g.uniform(0.05, 0.999, 200), u),
                               direction_grid(3, 1000))

    @pytest.mark.parametrize("d, dirs", [(2, GRID), (3, direction_grid(3, 1000))])
    def test_zero_cell_window(self, d, dirs, rng):
        # offsets up to the window, clipped at rmax = window
        for cell in models.crofton_cells(d, 10, rng.spawn("cull-cells", d)):
            r = self.assert_pins_exact(HALF_SPACE, (cell.offsets, cell.normals), dirs,
                                       cell.window)
            assert np.max(cell.offsets) > 1.0 and np.max(r) < cell.window

    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=PIN_SHAPE_IDS)
    def test_full_model(self, shape, rng, monkeypatch):
        # at lam = 1000, about 3200 ball pins and 9900 half-space or cone
        # pins; the cull evaluates a few dozen per call, counted where it
        # evaluates them: _ball_exit(dot, s2) for balls, exit_distance(shape,
        # p, cos) for the others, each with one row per evaluated pin
        evaluated, given = [], 0
        name = "_ball_exit" if shape.kind == "ball" else "exit_distance"
        kernel = getattr(models, name)

        def counted(*args):
            evaluated.append(np.shape(args[-1])[0])
            return kernel(*args)

        for i in range(10):
            m = sample_intersection_model(2, 1000.0, uniform_radial_law(2), shape,
                                          rng.spawn("cull-full", i))
            pins = (m.pin_radii, m.pin_dirs)
            with monkeypatch.context() as mp:
                mp.setattr(models, name, counted)
                culled = intersection_radius(shape, *pins, self.GRID)
            given += m.count
            assert np.array_equal(culled, pin_reference(shape, pins, self.GRID))
        assert given > 10 * 3000 and len(evaluated) >= 10 and sum(evaluated) < 10 * 80


SHAPES = st.one_of(st.sampled_from([BALL, HALF_SPACE]),
                   st.floats(0.1, 3.0).map(cone))
# pins as (radius, angle) pairs in the plane
PINS = st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 2.0 * np.pi)),
                min_size=1, max_size=12)
KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def pin_arrays(pins):
    """The (radius, angle) pairs as pin radii and unit pin directions."""
    p = np.array([q for q, _ in pins])
    th = np.array([[np.cos(a), np.sin(a)] for _, a in pins])
    return p, th


def model_radius(shape, pins, grid):
    """The public radius function of `shape` for the given pins."""
    return intersection_radius(shape, *pin_arrays(pins), grid)


class TestExitKernelProperties:
    GRID = direction_grid(2, 64)

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_radii_in_unit_interval(self, shape, pins):
        r = model_radius(shape, pins, self.GRID)
        assert np.all((r >= 0.0) & (r <= 1.0))

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_adding_a_pin_never_grows_a_radius(self, shape, pins):
        prev = np.ones(self.GRID.size)
        for k in range(1, len(pins) + 1):
            cur = model_radius(shape, pins[:k], self.GRID)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_axis_route_matches_vector_route(self, shape, pins):
        # along e1 the kernel only needs cos = Theta_1; the vector route
        # forms <e1, Theta>, and for balls <e1, c> of the centers c = p Theta
        p, th = pin_arrays(pins)
        axis = np.clip(np.min(exit_distance(shape, p, th[:, 0])), 0.0, 1.0)
        vector = model_radius(shape, pins, E1_GRID)[0]
        assert abs(axis - vector) <= 1e-12

    @KERNEL_SETTINGS
    @given(pins=PINS)
    def test_ball_pin_route_matches_center_route(self, pins):
        # the grid route takes the balls' centers p * Theta; the axis form
        # exit_distance(BALL, p, cos) takes p and <dir, Theta>, direction by
        # direction
        p, th = pin_arrays(pins)
        by_centers = intersection_radius(BALL, p, th, self.GRID)
        by_pins = np.array([np.clip(np.min(exit_distance(BALL, p, th @ u)), 0.0, 1.0)
                            for u in self.GRID.points])
        assert np.max(np.abs(by_pins - by_centers)) <= 1e-12


def zero_cell(d, normals, offsets, window):
    """One cell's vertices by _zero_cells, in a round of one row."""
    return _zero_cells(d, normals, offsets, np.array([offsets.size]), window)[0][0]


def qhull_zero_cell(d, normals, offsets, window):
    """The reference route to zero_cell: qhull's vertices of
    {x : <x, n_i> <= p_i}, or None when qhull does not certify the cell
    bounded (the origin strictly inside the dual hull) and inside the
    window."""
    if normals.shape[0] == 0:
        return None
    try:
        # an unbounded cell has dual facets through or near the origin,
        # which qhull's vertices divide by
        with np.errstate(all="ignore"):
            hs = HalfspaceIntersection(np.column_stack([normals, -offsets]), np.zeros(d))
    except QhullError:
        return None
    verts = hs.intersections
    # a huge finite vertex overflows its norm to inf, past any window
    with np.errstate(over="ignore"):
        if (np.any(hs.dual_equations[:, -1] >= 0) or not np.all(np.isfinite(verts))
                or np.max(np.linalg.norm(verts, axis=1)) >= window):
            return None
    return verts


def andrew_zero_cell(normals, offsets, window):
    """The planar certificate one cell at a time in plain floats, the
    reference for _planar_zero_cells' bits: the polar hull by Andrew's
    monotone chain with collinear points popped, Cramer's rule at each
    counter-clockwise edge, and the shoelace area added left to right.
    Returns (vertices, area), or None when the cell is not certified."""
    p = offsets.tolist()
    if len(p) < 3 or min(p) <= 0.0:
        return None
    nx, ny = normals.T.tolist()
    q = sorted((x / s, y / s, i) for i, (x, y, s) in enumerate(zip(nx, ny, p)))

    def chain(points):
        hull = []
        for c in points:
            while len(hull) >= 2:
                (ax, ay, _), (bx, by, _) = hull[-2], hull[-1]
                if (bx - ax) * (c[1] - ay) - (by - ay) * (c[0] - ax) > 0.0:
                    break
                hull.pop()
            hull.append(c)
        return hull[:-1]

    hull = [i for _, _, i in chain(q) + chain(reversed(q))]
    if len(hull) < 3:
        return None
    verts = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        det = nx[a] * ny[b] - ny[a] * nx[b]
        if det <= 0.0:
            return None
        x = (p[a] * ny[b] - p[b] * ny[a]) / det
        y = (p[b] * nx[a] - p[a] * nx[b]) / det
        if x * x + y * y >= window * window:
            return None
        verts.append((x, y))
    area = 0.0
    for i in range(len(verts)):
        area += verts[i - 1][0] * verts[i][1] - verts[i][0] * verts[i - 1][1]
    return np.array(verts), 0.5 * area


def round_certificate(certify):
    """A round certificate, as models._zero_cells, that asks the one-cell
    certificate certify(d, normals, offsets, window) row by row and leaves
    the areas to qhull."""
    def certify_round(d, normals, offsets, counts, window):
        ends = np.cumsum(counts)
        found = [certify(d, normals[a:b], offsets[a:b], window)
                 for a, b in zip(ends - counts, ends)]
        return found, [None] * len(found)
    return certify_round


def never_certified(d, normals, offsets, counts, window):
    return [None] * counts.size, [None] * counts.size


class TestWindowedPins:
    """sample_axis_radii and windowed_ball_pins draw only the pins that can
    shape the set; the law must stay that of the full model."""

    LAWS = {"uniform": uniform_radial_law(2), "depth": depth_radial_law(2)}

    @pytest.mark.parametrize("lam", [2.0, 10.0, 200.0])
    @pytest.mark.parametrize("shape, law", [
        (BALL, "uniform"), (HALF_SPACE, "uniform"), (HALF_SPACE, "depth"),
        (cone(np.pi / 3.0), "uniform"), (cone(2.0 * np.pi / 3.0), "uniform"),
    ], ids=["ball", "half-space", "half-space-depth", "cone", "obtuse-cone"])
    def test_law_against_full_model(self, shape, law, lam, rng):
        # the full model draws every pin; its radius along e1 is the
        # windowed sampler's target
        mu = self.LAWS[law]
        root = rng.spawn("window-law", shape.kind, law, lam)
        windowed = sample_axis_radii(2, lam, mu, shape, 20_000, root.spawn("windowed"))
        full = np.empty(2000)
        for i in range(full.size):
            m = sample_intersection_model(2, lam, mu, shape, root.spawn("full", i))
            full[i] = intersection_radius(shape, m.pin_radii, m.pin_dirs, E1_GRID)[0]
        assert stats.ks_2samp(windowed, full).pvalue > 1e-3

    def test_law_in_small_chunks(self, rng, monkeypatch):
        # 70 replicates per chunk
        monkeypatch.setattr(models, "_CHUNK_PINS", 70)
        n, lam = 5000, 200.0
        radii = sample_axis_radii(2, lam, uniform_radial_law(2), BALL, n,
                                  rng.spawn("window-chunks"))
        exact = sample_radius_exact(2, lam, n, rng.spawn("window-exact"))
        assert stats.ks_2samp(radii, exact).pvalue > 1e-3

    @pytest.mark.parametrize("shape", [BALL, HALF_SPACE], ids=["ball", "half-space"])
    def test_pins_per_replicate(self, shape, rng, monkeypatch):
        # at lam = 1e4 a replicate of the full model holds about 31416 ball
        # or 98696 half-space pins; the count stops the run as soon as it
        # passes 5 per replicate (about 3 ball and 4 half-space pins are
        # drawn), and each round draws its cosines in one call, so the
        # calls count the rounds (about 30)
        n, drawn = 20_000, []
        cosines = models.axis_cosines

        def counted(d, m, stream):
            drawn.append(m)
            assert sum(drawn) < 5 * n, "more than 5 pins per replicate"
            assert len(drawn) <= 60, "more than 60 rounds"
            return cosines(d, m, stream)

        monkeypatch.setattr(models, "axis_cosines", counted)
        radii = sample_axis_radii(2, 1e4, uniform_radial_law(2), shape, n,
                                  rng.spawn("window-work", shape.kind))
        assert radii.shape == (n,) and sum(drawn) > 0

    def test_ball_law_at_the_radius_experiment_top(self, rng):
        # lam = 1e12 is the largest lam radius-convergence accepts for its
        # process route: pins within about 1e-12 of the unit sphere must
        # still give the ball model's radius law, unit exponential under
        # the law's transform
        lam = 1e12
        radii = sample_axis_radii(2, lam, uniform_radial_law(2), BALL, 20_000,
                                  rng.spawn("window-top"))
        assert stats.kstest(RadiusLaw(2, lam).transform(radii), "expon").pvalue > 1e-3

    @pytest.mark.parametrize("d, lam", [(2, 10.0), (2, 200.0), (3, 10.0), (3, 200.0)])
    def test_certificate_holds_the_undrawn_centers(self, d, lam, rng):
        # the centers left undrawn (depth above rho) change no radius, and
        # every radius is within the certified window
        grid = direction_grid(d, 256)

        def radii(centers):
            s = np.linalg.norm(centers, axis=1)
            return intersection_radius(BALL, s, centers / s[:, None], grid)

        certified = undrawn = 0
        for i in range(40):
            r = rng.spawn("certificate", d, lam, i)
            depths, normals, rho, _ = next(windowed_ball_pins(d, lam, 1, r))
            assert np.all((depths > 0.0) & (depths <= rho))
            if rho == 1.0:
                continue
            certified += 1
            centers = (depths - 1.0)[:, None] * normals
            drawn = radii(centers)
            assert np.all(drawn <= rho)
            rest = _sample_band(d, lam, 0.0, 1.0 - rho, r.spawn("undrawn"))
            undrawn += rest.shape[0]
            assert np.array_equal(radii(np.vstack([centers, rest])), drawn)
        assert certified >= 30 and undrawn >= 100

    @pytest.mark.parametrize("d", [2, 3])
    def test_tangent_polytope_law(self, d, rng):
        # the tangent polytope P is the half-space model with depth-law
        # offsets, so its radius along an axis has that model's law
        lam, n = 50.0, 2000
        e1 = DirectionGrid(d, np.eye(d)[:1])
        root = rng.spawn("polytope-law", d)
        drawn = np.empty(n)
        for i, (depths, normals, _, _) in enumerate(windowed_ball_pins(d, lam, n, root)):
            drawn[i] = intersection_radius(HALF_SPACE, depths, normals, e1)[0]
        reference = sample_axis_radii(d, lam, depth_radial_law(d), HALF_SPACE, 20_000,
                                      root.spawn("reference"))
        assert stats.ks_2samp(drawn, reference).pvalue > 1e-3

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam", [1e17, 1e100])
    def test_huge_intensity_certified(self, d, lam, rng):
        # the first window 4/(lam omega_d) lies far below the float spacing
        # at 1; depths drawn as depths still certify P within a few
        # rounds, from a few dozen half-spaces, and lam R_P along an axis
        # has its limit law Exp(omega_{d-1}) (the gap is of order 1/lam)
        grid = direction_grid(d, 512)
        e1 = DirectionGrid(d, np.eye(d)[:1])
        root = rng.spawn("huge", d, lam)
        scaled = np.empty(500)
        for i, (depths, normals, rho, _) in enumerate(windowed_ball_pins(d, lam, 500, root)):
            assert rho < 1.0
            scaled[i] = lam * intersection_radius(HALF_SPACE, depths, normals, e1)[0]
            if i < 20:
                assert depths.size < 100
                assert np.all(intersection_radius(HALF_SPACE, depths, normals, grid,
                                                  rmax=np.inf) <= rho)
        rate = unit_ball_volume(d - 1)
        assert stats.kstest(scaled, lambda t: -np.expm1(-rate * t)).pvalue > 1e-3

    @pytest.mark.parametrize("lam", [30.0, 200.0, 1e4, 1e100])
    def test_planar_certificate_as_qhull(self, lam, rng, monkeypatch):
        # the planar polar hull certifies in the same round as qhull, so
        # the loop draws the same bands: the same depths, normals and rho,
        # bit for bit, and a P wherever qhull certifies one
        planar = list(windowed_ball_pins(2, lam, 200, rng.spawn("planar-certificate", lam)))
        monkeypatch.setattr(models, "_zero_cells", round_certificate(qhull_zero_cell))
        qhull = windowed_ball_pins(2, lam, 200, rng.spawn("planar-certificate", lam))
        for (depths, normals, rho, verts), (depths0, normals0, rho0, verts0) in zip(
                planar, qhull, strict=True):
            assert rho == rho0 and (verts is None) == (verts0 is None)
            assert np.array_equal(depths, depths0) and np.array_equal(normals, normals0)

    def test_pin_count_overflow(self, rng):
        # an overflowing mean is named, not left to numpy's "lam is NaN"
        with pytest.raises(ValueError, match="mean pin count"):
            sample_axis_radii(2, 1e308, uniform_radial_law(2), BALL, 4, rng)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam", [10.0, 200.0, 1e100])
    def test_vertices_are_the_tangent_polytopes(self, d, lam, rng):
        # each yielded vertex is a corner of P inside B(0, rho): in P, and
        # for d = 2 on two tangent lines <x, n_i> = delta_i; the planar
        # vertices run counter-clockwise, so the fan from vertex 0 has the
        # polygon's shoelace area
        certified = 0
        for depths, normals, rho, verts in windowed_ball_pins(
                d, lam, 100, rng.spawn("tangent-vertices", d, lam)):
            if verts is None:
                continue
            certified += 1
            assert verts.ndim == 2 and verts.shape[1] == d
            assert np.all(np.linalg.norm(verts, axis=1) < rho)
            slack = (verts @ normals.T - depths) / rho
            assert np.all(slack <= 1e-12)
            if d == 2:
                assert np.all(np.count_nonzero(np.abs(slack) <= 1e-12, axis=1) >= 2)
                e = verts[1:] - verts[0]
                fan = 0.5 * np.sum(e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0])
                x, y = verts.T
                shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
                assert fan > 0.0 and fan == pytest.approx(shoelace, rel=1e-12)
        assert certified >= 95

    def test_uncertified_dimensions_draw_every_center(self, rng):
        depths, normals, rho, verts = next(windowed_ball_pins(1, 50.0, 1, rng.spawn("window-1d")))
        assert rho == 1.0 and normals.shape == (depths.size, 1) and depths.size > 50
        assert np.all((depths >= 0.0) & (depths <= 1.0)) and verts is None
        empty, normals0, rho0, verts0 = next(
            windowed_ball_pins(2, 0.0, 1, rng.spawn("window-empty")))
        assert rho0 == 1.0 and empty.shape == (0,) and normals0.shape == (0, 2)
        assert verts0 is None


class TestExactRadiusLaws:
    CASES = [
        ("ball", 2, 50.0, None),
        ("ball", 2, 200.0, None),
        ("ball", 3, 50.0, None),
        ("ball", 3, 200.0, None),
        ("hs-depth", 2, 20.0, None),
        ("hs-uniform", 2, 20.0, None),
        ("cone", 2, 20.0, np.pi / 3.0),
    ]

    @pytest.mark.parametrize("name,d,lam,beta", CASES)
    def test_survival_quantiles(self, name, d, lam, beta, rng):
        # P(R > r) = exp(-lam * omega_d * W(r)) with the model's weight W,
        # checked at the z = 0.5, 1, 2 exponent quantiles
        wd = unit_ball_volume(d)
        if name == "ball":
            mu, shape = uniform_radial_law(d), BALL
            weight = lambda r: lune_fraction(d, r)
        elif name == "hs-depth":
            mu, shape = depth_radial_law(d), HALF_SPACE
            weight = lambda r: halfspace_miss_series(d, r)
        elif name == "hs-uniform":
            mu, shape = uniform_radial_law(d), HALF_SPACE
            weight = lambda r: halfspace_uniform_weight(d, r)
        else:
            mu, shape = uniform_radial_law(d), cone(beta)
            weight = lambda r: cone_uniform_weight(beta, min(r, np.sin(beta)))
        n = 20_000
        sample = sample_axis_radii(d, lam, mu, shape, n,
                                   rng.spawn("law", name, d, lam))
        for z in (0.5, 1.0, 2.0):
            rz = invert_increasing(lambda r: lam * wd * weight(r), z, 0.0, 1.0)
            tgt = np.exp(-z)
            assert_close_sigma(np.mean(sample > rz), tgt, binomial_se(tgt, n),
                               label=f"{name} d={d} lam={lam} z={z}")

    @pytest.mark.parametrize("lam", [1e3, 1e15, 1e17])
    def test_depth_offsets_at_huge_intensity(self, lam):
        # the offsets are of order 1/lam, and the depth law's inverse keeps
        # their digits, so lam omega_2 w(R) stays unit exponential
        law = RadiusLaw(2, lam, miss_fn=lambda r: 2.0 * np.asarray(r) / np.pi
                        - np.asarray(r) ** 2 / 4.0)
        radii = sample_axis_radii(2, lam, depth_radial_law(2), HALF_SPACE, 20_000,
                                  RngStream(1))
        assert stats.kstest(law.transform(radii), "expon").statistic < 0.01


class TestRotationInvariance:
    def test_isotropy(self, rng):
        lam, reps = 5.0, 2000
        grid = direction_grid(2, 8)
        root = rng.spawn("rot")
        radii = np.empty((reps, 8))
        for i in range(reps):
            m = sample_intersection_model(2, lam, uniform_radial_law(2), BALL,
                                          root.spawn(i))
            radii[i] = intersection_radius(BALL, m.pin_radii, m.pin_dirs, grid)
        # exact marginal law in every direction
        cdf = lambda r: 1.0 - np.exp(-lam * np.pi * lune_fraction(2, np.clip(r, 0, 1)))
        crit = 1.95 / np.sqrt(reps)
        for k in (0, 3):
            assert stats.kstest(radii[:, k], cdf).statistic < crit
        # directions are exchangeable in law
        for k in range(1, 8):
            assert stats.ks_2samp(radii[:, 0], radii[:, k]).pvalue > 1e-3
        # antipodal radii are asymptotically uncorrelated
        for k in range(4):
            corr = np.corrcoef(radii[:, k], radii[:, k + 4])[0, 1]
            assert abs(corr) < 3.0 / np.sqrt(reps)


class TestConvexity:
    def _midpoints_inside(self, radius, rng):
        grid = direction_grid(2, 128)
        pts = (radius(grid) * (1.0 - 1e-6))[:, None] * grid.points
        g = rng.gen
        i = g.integers(0, len(pts), 200)
        j = g.integers(0, len(pts), 200)
        assert star_contains(radius, 0.5 * (pts[i] + pts[j])).all()

    def test_halfspace_model(self, rng):
        m = sample_intersection_model(2, 10.0, uniform_radial_law(2),
                                      HALF_SPACE, rng.spawn("cvx-hs"))
        self._midpoints_inside(partial(intersection_radius, HALF_SPACE, m.pin_radii,
                                       m.pin_dirs), rng.spawn("cvx-hs-pairs"))

    def test_ball_model(self, rng):
        m = sample_intersection_model(2, 30.0, uniform_radial_law(2), BALL,
                                      rng.spawn("cvx-ball"))
        self._midpoints_inside(partial(intersection_radius, BALL, m.pin_radii, m.pin_dirs),
                               rng.spawn("cvx-ball-pairs"))

    def test_crofton_cell(self, rng):
        # a zero cell is the half-space model of its hyperplanes, capped at
        # the window it was certified in
        cell = crofton_cell(2, rng.spawn("cvx-cell"))
        self._midpoints_inside(partial(intersection_radius, HALF_SPACE, cell.offsets,
                                       cell.normals, rmax=cell.window),
                               rng.spawn("cvx-cell-pairs"))


def assert_same_planar_cell(normals, offsets, window):
    """The planar polar hull and qhull give the same verdict and, on a
    certified cell, the same vertex set and the same area."""
    verts = zero_cell(2, normals, offsets, window)
    reference = qhull_zero_cell(2, normals, offsets, window)
    assert (verts is None) == (reference is None)
    if verts is None:
        return
    gaps = np.linalg.norm(verts[:, None, :] - reference[None, :, :], axis=2)
    assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12 * window
    x, y = verts.T
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(ConvexHull(reference).volume, rel=1e-12)


SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
# planar lines as (offset, normal angle) pairs, and a window
LINES = st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 2.0 * np.pi)),
                 max_size=16)
WINDOWS = st.floats(0.5, 40.0)


class TestCroftonCell:
    def test_square_polytope(self):
        # the planar vertices come back counter-clockwise
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        verts = zero_cell(2, normals, np.ones(4), 10.0)
        vol = ConvexHull(verts).volume
        assert vol == pytest.approx(4.0, abs=1e-12)
        assert verts.tolist() == [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]

    def test_cube_polytope(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])
        verts = zero_cell(3, normals, np.ones(6), 10.0)
        vol = ConvexHull(verts).volume
        assert vol == pytest.approx(8.0, abs=1e-9)
        assert verts.shape[0] == 8

    def test_qhull_round_rows(self):
        # a round of d = 3 rows, each row cut out of the round's arrays:
        # every row comes out as qhull certifies it alone, the empty and
        # the unbounded row between two bounded cells too
        s = np.sqrt(0.5)
        cone_normals = np.array([[s, 0, s], [-s, 0, s], [0, s, s], [0, -s, s], [0, 0, 1.0]])
        simplex = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                            [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
        rows = [(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
                (np.empty((0, 3)), np.empty(0)),
                (cone_normals, np.ones(5)),
                (simplex, np.full(4, 0.5))]
        found, areas = _zero_cells(3, np.vstack([normals for normals, _ in rows]),
                                   np.concatenate([offsets for _, offsets in rows]),
                                   np.array([offsets.size for _, offsets in rows]), 10.0)
        assert [verts is None for verts in found] == [False, True, True, False]
        assert areas == [None] * len(rows)
        for (normals, offsets), verts in zip(rows, found):
            alone = qhull_zero_cell(3, normals, offsets, 10.0)
            assert (verts is None) == (alone is None)
            if verts is not None:
                assert np.array_equal(verts, alone)

    @pytest.mark.parametrize("d", [3, 4])
    def test_polar_hull_round_as_qhull(self, d, rng):
        # a round of first-window rate-2 rows, then the open row
        # {x_i <= 1, -x_1 <= 1}, whose dual hull has facets through the
        # origin: every row is certified as qhull's halfspace intersection
        # certifies it alone, bit for bit, and the open row warns of no
        # division by zero
        root = rng.spawn("polar-hull-round", d)
        counts, offsets = poisson_band(20.0, 0.0, 10.0, root, 300)
        normals = uniform_directions(d, offsets.size, root)
        normals = np.vstack([normals, np.eye(d), -np.eye(d)[:1]])
        offsets = np.concatenate([offsets, np.ones(d + 1)])
        counts = np.append(counts, d + 1)
        found, areas = _zero_cells(d, normals, offsets, counts, 10.0)
        assert found[-1] is None and areas == [None] * counts.size
        assert sum(verts is not None for verts in found) > 30
        ends = np.cumsum(counts)
        for verts, a, b in zip(found, ends - counts, ends):
            alone = qhull_zero_cell(d, normals[a:b], offsets[a:b], 10.0)
            assert (verts is None) == (alone is None)
            if verts is not None:
                assert np.array_equal(verts, alone)

    def test_uncertified_returns_none(self):
        # a slab is unbounded: must not be certified at any window, however
        # many parallel lines bound it
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert zero_cell(2, normals, np.ones(2), 10.0) is None
        slab = np.vstack([normals, normals])
        assert zero_cell(2, slab, np.array([1.0, 2.0, 1.0, 3.0]), 10.0) is None

    def test_unbounded_cells_uncertified(self):
        # normals inside a closed half-space leave an unbounded cell, though
        # qhull still returns finite vertices inside the window
        def fan(degrees):
            ang = np.radians(degrees)
            return np.column_stack([np.cos(ang), np.sin(ang)])

        for degrees in ((0, 60, 120), (0, 45, 90, 135), (10, 100, 170)):
            assert zero_cell(2, fan(degrees), np.ones(len(degrees)), 10.0) is None
            assert_same_planar_cell(fan(degrees), np.ones(len(degrees)), 10.0)
        s = np.sqrt(0.5)
        cone_normals = np.array([[s, 0, s], [-s, 0, s], [0, s, s], [0, -s, s], [0, 0, 1.0]])
        assert zero_cell(3, cone_normals, np.ones(5), 10.0) is None
        verts = zero_cell(2, fan((0, 120, 240)), np.ones(3), 10.0)
        vol = ConvexHull(verts).volume
        assert vol == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-12)
        assert verts.shape[0] == 3
        assert_same_planar_cell(fan((0, 120, 240)), np.ones(3), 10.0)

    def test_planar_degenerate_inputs(self):
        # fewer than 3 lines bound nothing
        for k in range(3):
            assert zero_cell(2, SQUARE[:k], np.ones(k), 10.0) is None
        # the origin must lie strictly inside: a zero or negative offset
        # is not certified (qhull raises on it)
        for bad in (0.0, -1.0):
            offsets = np.array([1.0, 1.0, 1.0, bad])
            assert zero_cell(2, SQUARE, offsets, 10.0) is None
            assert_same_planar_cell(SQUARE, offsets, 10.0)
        # duplicate lines leave one vertex per corner
        twice = np.vstack([SQUARE, SQUARE])
        verts = zero_cell(2, twice, np.ones(8), 10.0)
        assert verts.tolist() == [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        assert_same_planar_cell(twice, np.ones(8), 10.0)

    def test_vertex_on_the_window_uncertified(self):
        # the corners (+-3, +-4) lie at distance exactly 5: a window of 5
        # does not hold them, the next float up does
        offsets = np.array([3.0, 4.0, 3.0, 4.0])
        assert zero_cell(2, SQUARE, offsets, 5.0) is None
        verts = zero_cell(2, SQUARE, offsets, np.nextafter(5.0, np.inf))
        assert verts.tolist() == [[-3.0, -4.0], [3.0, -4.0], [3.0, 4.0], [-3.0, 4.0]]

    @settings(KERNEL_SETTINGS, max_examples=300)
    @given(lines=LINES, window=WINDOWS)
    def test_planar_cell_matches_qhull(self, lines, window):
        p, normals = pin_arrays(lines) if lines else (np.empty(0), np.empty((0, 2)))
        assert_same_planar_cell(normals, p, window)

    def test_planar_cells_match_qhull_at_rate_2(self, rng):
        # the windows _windowed_cell hands over when it draws a zero cell
        root = rng.spawn("planar-qhull")
        certified = 0
        for i in range(2000):
            r = root.spawn(i)
            window = r.gen.uniform(0.5, 10.0)
            n = sample_poisson_count(2.0 * window, r)
            normals, offsets = uniform_directions(2, n, r), r.gen.uniform(0.0, window, n)
            assert_same_planar_cell(normals, offsets, window)
            certified += zero_cell(2, normals, offsets, window) is not None
        assert 500 <= certified <= 1500

    def test_planar_area_is_a_left_to_right_sum(self, rng):
        # the shoelace terms are added one by one from 0.0, as a plain float
        # loop adds them, whatever the interpreter's sum() does; a correctly
        # rounded sum (math.fsum, or Python 3.12's compensated sum())
        # differs in the last bits on some cells, so the test can tell
        rounded = 0
        for cell in crofton_cells(2, 300, rng.spawn("area-bits")):
            x, y = cell.vertices.T.tolist()
            terms = [x[i - 1] * y[i] - x[i] * y[i - 1] for i in range(len(x))]
            total = 0.0
            for term in terms:
                total += term
            assert cell.volume == 0.5 * total
            rounded += cell.volume != 0.5 * math.fsum(terms)
        assert rounded > 0

    def test_area_dual_route(self, rng):
        # the planar area is the shoelace over the counter-clockwise
        # vertices; qhull's hull of the same vertices is the second route
        for i in range(20):
            cell = crofton_cell(2, rng.spawn("area", i))
            assert cell.volume == pytest.approx(ConvexHull(cell.vertices).volume, rel=1e-12)

    def test_vertices_satisfy_constraints(self, rng):
        root = rng.spawn("feas", 2.0)
        for i in range(200):
            cell = crofton_cell(2, root.spawn(i))
            slack = cell.vertices @ cell.normals.T - cell.offsets[None, :]
            assert np.max(slack) <= 1e-9
            assert np.linalg.norm(cell.vertices, axis=1).max() < cell.window

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rate", [1e-100, 1e-8, 1e-3, 0.05, 0.2, 7.3, 1e100])
    def test_rate_scaling(self, d, rate, rng):
        # cells and crossing counts are drawn at rate 2, and the crofton
        # block scales its statistics once: the block at rate r on a stream
        # is the rate-2 block on that stream with lengths scaled by 2/r
        cfg = ExperimentConfig(experiment="crofton", d=d, lambda_grid=(rate,), replicates=24)
        stream = rng.spawn("block", d)
        got = expcli._block_crofton(cfg, rate, stream)
        base = expcli._block_crofton(cfg, 2.0, stream)
        power = {"zero_cell_volume_mean": d, "zero_cell_volume_exact": d,
                 "typical_mean_exact": d, "inverse_volume_mean": -d,
                 "chord_rate_mc": -1, "chord_rate_exact": -1}
        assert [m for m, _, _ in got] == [m for m, _, _ in base]
        assert np.all(np.isfinite([v for _, v, _ in got]))
        for (metric, value, se), (_, value2, se2) in zip(got, base):
            scale = (2.0 / rate) ** power.get(metric, 0)
            assert value == pytest.approx(value2 * scale, rel=1e-12, abs=0.0), metric
            if se is not None:
                assert se == pytest.approx(se2 * scale, rel=1e-12, abs=0.0), metric

    @pytest.mark.parametrize("d, rate", [(3, 1e-150), (3, 1e150), (2, 1e-200), (2, 1e200)])
    def test_volume_scale_out_of_range(self, d, rate, monkeypatch):
        # (2/rate)^d overflows or underflows float64: some crofton row is
        # not finite, so the run reports a numerical failure (exit 3)
        monkeypatch.setenv("RANDSET_THREADS", "1")
        cfg = ExperimentConfig(experiment="crofton", d=d, lambda_grid=(rate,), replicates=4)
        with pytest.raises(expcli.NumericalFailure, match="non-finite"):
            expcli.run_experiment(cfg)

    def test_zero_cell_mean_area(self, rng):
        # E[area] = pi^3/2 at radial rate 2 in the plane
        root = rng.spawn("vol0")
        vols = np.array([crofton_cell(2, root.spawn(i)).volume
                         for i in range(800)])
        se = vols.std(ddof=1) / np.sqrt(vols.size)
        assert_close_sigma(vols.mean(), np.pi**3 / 2.0, se, k=4.0,
                           label="zero cell mean area")

    def test_unbounded_raises(self, rng, monkeypatch):
        # a cell never certified raises after the enlargement cap
        monkeypatch.setattr(models, "_zero_cells", never_certified)
        with pytest.raises(UnboundedCellError, match="window 80 after 3 enlargements"):
            crofton_cell(2, rng.spawn("starved"))

    def test_domain(self, rng):
        for d in (1, 5):
            with pytest.raises(ValueError, match="2 <= d <= 4"):
                crofton_cell(d, rng)


def planar_round(rows):
    """The lines of a round, cell after cell, from rows of (normals,
    offsets), and the counts of lines per cell."""
    counts = np.array([len(offsets) for _, offsets in rows], dtype=np.intp)
    normals = np.vstack([np.reshape(normals, (-1, 2)) for normals, _ in rows])
    offsets = np.concatenate([np.asarray(offsets, dtype=float) for _, offsets in rows])
    return normals, offsets, counts


def assert_round_as_one_cell_routes(rows, window):
    """_zero_cells certifies each row of a round as the one-cell routes
    certify it alone: bit for bit as the plain-float Andrew chain (vertices
    and area) and as the one-row certificate, with qhull's verdict and
    vertex set.  Returns the round's vertices."""
    found, areas = _zero_cells(2, *planar_round(rows), window)
    assert len(found) == len(areas) == len(rows)
    for (normals, offsets), verts, area in zip(rows, found, areas):
        normals, offsets = np.reshape(normals, (-1, 2)), np.asarray(offsets, dtype=float)
        reference = andrew_zero_cell(normals, offsets, window)
        alone = zero_cell(2, normals, offsets, window)
        assert (verts is None) == (reference is None) == (alone is None) == (area is None)
        if verts is not None:
            assert verts.tolist() == reference[0].tolist() == alone.tolist()
            assert area == reference[1]
        assert_same_planar_cell(normals, offsets, window)
    return found


# lines through (1, 0), (0, 1) and (1, 1): q = (1, 0), (0, 1), (0.5, 0.5),
# exactly collinear, and (-1, -1), so the origin lies inside
COLLINEAR = (np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, -1.0]]),
             np.array([1.0, 2.0, 1.0, 1.0]))


class TestPlanarRounds:
    """_zero_cells certifies a round of planar cells in one pass over
    arrays; every row must come out as the cell certified alone."""

    @pytest.mark.parametrize("window", [10.0, 20.0, 80.0])
    def test_random_rounds(self, window, rng):
        # rate-2 rows of mixed lengths, as _windowed_cells hands them over,
        # with a few rows of 0, 1 and 2 lines mixed in
        r = rng.spawn("planar-rounds", window)
        counts = sample_poisson_count(2.0 * window, r, 300)
        counts[::37] = np.arange(counts[::37].size) % 3
        rows = [(uniform_directions(2, c, r), r.gen.uniform(0.0, window, c)) for c in counts]
        found = assert_round_as_one_cell_routes(rows, window)
        certified = sum(verts is not None for verts in found)
        assert 0.9 * len(rows) <= certified < len(rows)

    def test_exactly_collinear_polar_points(self):
        # the middle point of three exactly collinear q is passed over and
        # the farthest taken, in any line order and in the first step of
        # the march (the mirrored cell), as Andrew's chain pops it
        normals, offsets = COLLINEAR
        rows = [(normals[order], offsets[order])
                for order in ([0, 1, 2, 3], [1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1])]
        rows += [(-normals[order], offsets[order]) for order in ([0, 1, 2, 3], [1, 2, 3, 0])]
        found = assert_round_as_one_cell_routes(rows, 10.0)
        for verts in found[:4]:
            assert verts.tolist() == [[1.0, -2.0], [1.0, 1.0], [-2.0, 1.0]]
        for verts in found[4:]:
            assert verts.tolist() == [[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]]
        assert _zero_cells(2, *planar_round(rows[:1]), 10.0)[1] == [4.5]

    def test_duplicate_and_degenerate_rows(self):
        # duplicate lines leave one vertex per corner; fewer than 3 lines,
        # fans and slabs (unbounded) and offsets <= 0 are not certified.  The
        # quarter fan is padded with the origin to the round's longest row,
        # and the pad sits on its hull between the lines with normals (1, 0)
        # and (0, -1); both corners it makes divide by a zero determinant,
        # which turns them down
        def fan(degrees):
            ang = np.radians(degrees)
            return np.column_stack([np.cos(ang), np.sin(ang)])

        twice = (np.vstack([SQUARE, SQUARE]), np.ones(8))
        slab = (np.array([[1.0, 0.0], [-1.0, 0.0]] * 2), np.array([1.0, 2.0, 1.0, 3.0]))
        rows = [twice, (SQUARE[:0], []), (SQUARE[:1], [1.0]), (SQUARE[:2], [1.0, 1.0]),
                (fan((0, 60, 120)), np.ones(3)), (fan((0, 45, 90, 135)), np.ones(4)),
                slab, (SQUARE, [1.0, 1.0, 1.0, 0.0]), (SQUARE, [1.0, 1.0, 1.0, -1.0]),
                (np.array([[1.0, 0.0], [0.6, -0.8], [0.0, -1.0]]), np.ones(3)),
                (fan((0, 120, 240)), np.ones(3)), twice]
        found = assert_round_as_one_cell_routes(rows, 10.0)
        assert [verts is not None for verts in found] == [True] + [False] * 9 + [True, True]
        assert found[0].tolist() == found[-1].tolist() == [
            [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]

    def test_rows_that_meet_copies_and_rounding(self):
        # exact copies of lines give copies of the current point (0/0), and
        # near-parallel lines put points right of the last edge by rounding;
        # the full-turn key ranks both, alone (no pad) and in one round
        def lines(angles, offsets):
            ang = np.asarray(angles)
            return np.column_stack([np.cos(ang), np.sin(ang)]), np.asarray(offsets)

        copies = lines([4.0, 4.0, 0.0, 2.0, 2.0], [0.5, 0.5, 2.0, 2.0, 2.0])
        near = lines([np.pi / 2, 2.0, 0.0, 2.3e-30, np.pi / 2, 3 * np.pi / 2],
                     [0.5, 2.0, 2.0, 0.5, 0.5, 0.5])
        for rows in ([copies], [near], [copies, near]):
            found = assert_round_as_one_cell_routes(rows, 10.0)
            assert all(verts is not None for verts in found)

    def test_longest_row_unbounded(self):
        # the longest row's q = n, at 0, 20, ..., 140 degrees, lie on one
        # side of the origin, and the row has no pad: its march closes on
        # all 8, and only the determinant refuses it
        ang = np.radians(np.arange(0.0, 160.0, 20.0))
        fan = np.column_stack([np.cos(ang), np.sin(ang)])
        with np.errstate(invalid="ignore"):  # the current point's key is 0/0
            assert _polar_hulls(fan[None, :, 0], fan[None, :, 1])[1].tolist() == [8]
        rows = [(fan, np.ones(8)), (SQUARE, np.ones(4))]
        found = assert_round_as_one_cell_routes(rows, 10.0)
        assert found[0] is None
        assert found[1].tolist() == [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        assert _zero_cells(2, *planar_round(rows), 10.0)[1] == [None, 4.0]

    def test_vertex_on_the_window(self):
        # the corners (+-3, +-4) lie at distance exactly 5; the round's one
        # window of 5 holds the unit square but not them, the next float up
        # holds both
        rows = [(SQUARE, [3.0, 4.0, 3.0, 4.0]), (SQUARE, np.ones(4))]
        assert [v is None for v in assert_round_as_one_cell_routes(rows, 5.0)] == [True, False]
        found = assert_round_as_one_cell_routes(rows, np.nextafter(5.0, np.inf))
        assert found[0].tolist() == [[-3.0, -4.0], [3.0, -4.0], [3.0, 4.0], [-3.0, 4.0]]

    def test_subnormal_determinant_uncertified(self):
        # the lines x = 0.5 and x + 5e-324 y = 0.5 meet at (0.5, 0), but
        # Cramer's numerators underflow and would give the corner (0, 0);
        # such a cell is not certified, and a square beside it still is
        normals = np.array([[np.cos(2.0), np.sin(2.0)], [0.0, -1.0], [1.0, 0.0], [1.0, 5e-324]])
        rows = [(normals, np.array([1.0, 0.25, 0.5, 0.5])), (SQUARE, np.ones(4))]
        found, _ = _zero_cells(2, *planar_round(rows), 3.0)
        assert found[0] is None and found[1] is not None
        assert zero_cell(2, *rows[0], 3.0) is None

    def test_empty_round(self):
        assert _zero_cells(2, np.empty((0, 2)), np.empty(0), np.empty(0, dtype=np.intp),
                           10.0) == ([], [])

    @settings(KERNEL_SETTINGS, max_examples=200)
    @given(rounds=st.lists(LINES, min_size=1, max_size=5), window=WINDOWS)
    def test_rounds_match_qhull(self, rounds, window):
        # hypothesis rounds hold near-parallel lines (angles 0 and 1e-30),
        # where the plain-float chain and the march may keep different
        # corners of one cell; the verdict and the vertex set are qhull's,
        # and a row's cell does not depend on the others in its round
        rows = [pin_arrays(lines)[::-1] if lines else (np.empty((0, 2)), np.empty(0))
                for lines in rounds]
        found, areas = _zero_cells(2, *planar_round(rows), window)
        for (normals, offsets), verts, area in zip(rows, found, areas):
            alone = zero_cell(2, normals, offsets, window)
            assert (verts is None) == (alone is None)
            if verts is not None:
                assert verts.tolist() == alone.tolist()
                assert area == pytest.approx(ConvexHull(verts).volume, rel=1e-9)
            assert_same_planar_cell(normals, offsets, window)


def per_cell_reference(d, band, first, last, unit):
    """The one-cell window loop that _windowed_cells pools: band(lo, hi)
    draws one cell's normals and offsets with p in (lo, hi]."""
    normals, offsets = np.empty((0, d)), np.empty(0)
    lo, hi, doublings = 0.0, first, 0
    while True:
        new_normals, new_offsets = band(lo, hi)
        normals = np.vstack([normals, new_normals])
        offsets = np.concatenate([offsets, new_offsets])
        verts = zero_cell(d, normals, offsets / unit, hi / unit)
        if verts is not None or hi >= last:
            return normals, offsets, verts, hi, doublings
        lo, hi, doublings = hi, min(2.0 * hi, last), doublings + 1


def reference_crofton_cell(d, rng):
    """One rate-2 zero cell by the one-cell loop, drawn count, offsets when
    the count is positive, normals."""
    def band(lo, hi):
        n = sample_poisson_count(2.0 * (hi - lo), rng)
        offsets = rng.gen.uniform(lo, hi, n) if n else np.empty(0)
        return uniform_directions(d, n, rng), offsets
    return per_cell_reference(d, band, 10.0, 80.0, 1.0)


def reference_ball_pins(d, lam, rng):
    """One replicate's depths, normals, rho and P's vertices (None when not
    certified) by the one-cell loop."""
    mean, g = lam * unit_ball_volume(d), rng.gen

    def band(lo, hi):
        with np.errstate(divide="ignore"):
            f_lo, f_hi = -np.expm1(d * np.log1p(-np.array([lo, hi])))
            n = sample_poisson_count(mean * (f_hi - f_lo), rng)
            depths = -np.expm1(np.log1p(-(f_lo + g.random(n) * (f_hi - f_lo))) / d)
        return uniform_directions(d, n, rng), depths
    first = min(4.0 / mean, 1.0)
    normals, depths, verts, rho, _ = per_cell_reference(d, band, first, 1.0, first)
    return depths, normals, rho, None if verts is None else verts * first


class StubBand:
    """A band whose lines carry their cell index and round: line k of cell j
    in round r has normal (j, r) and offset 100 j + 10 r + k.  schedule[j]
    is the round in which cell j is certified (None: never), so the band
    knows which cells are open in each round and checks their number, and
    its round certificate checks that it gets the open cells in order, each
    with exactly its own lines in draw order."""

    def __init__(self, schedule, first, unit):
        self.schedule, self.first, self.unit = schedule, first, unit
        self.chunks, self.windows, self.certified, self.open_, self.calls = [], [], [], [], []

    @staticmethod
    def lines(j, r):
        # every cell has a line in round 0, where the certificate reads the
        # cell index off; later rounds may hold none
        return [(j, r, k) for k in range(1 + j % 2 if r == 0 else (j + 2 * r) % 3)]

    def lines_to(self, j, r):
        return [line for q in range(r + 1) for line in self.lines(j, q)]

    def round_of(self, window):
        return int(round(np.log2(window / self.first)))

    def __call__(self, lo, hi, m):
        r = self.round_of(hi)
        self.windows.append((lo, hi))
        if lo == 0.0:
            self.chunks.append(m)
        start = sum(self.chunks[:-1])
        open_ = [j for j in range(start, start + self.chunks[-1])
                 if self.schedule[j] is None or self.schedule[j] >= r]
        assert m == len(open_)
        self.open_.append(open_)
        lines = [line for j in open_ for line in self.lines(j, r)]
        counts = np.array([len(self.lines(j, r)) for j in open_])
        normals = np.array([[j, r] for j, r, _ in lines], dtype=float).reshape(-1, 2)
        offsets = np.array([100.0 * j + 10.0 * r + k for j, r, k in lines])
        return counts, offsets, normals

    def certify(self, d, normals, offsets, counts, window):
        # one call per round, after its band; row i holds counts[i] lines,
        # and the certificate sees offsets and window in units of `unit`
        r = self.round_of(window * self.unit)
        self.calls.append(r)
        assert (len(self.open_), len(counts)) == (len(self.calls), len(self.open_[-1]))
        found, ends = [], np.cumsum(counts)
        for j, a, b in zip(self.open_[-1], ends - counts, ends):
            lines = self.lines_to(j, r)
            assert normals[a:b].tolist() == [[j, q] for j, q, _ in lines]
            assert (offsets[a:b] * self.unit).tolist() == [
                100.0 * j + 10.0 * q + k for j, q, k in lines]
            self.certified.append((j, r))
            found.append(np.array([[j, r]], dtype=float) if self.schedule[j] == r else None)
        return found, [None] * len(found)


class TestPooledCells:
    """_windowed_cells pools the open cells in each round: every cell gets
    exactly its own lines, one cell draws as the one-cell loop does, and
    the pooled cells have the zero cell's law."""

    # cell j certified in round SCHEDULE[j]; None outlasts the last window
    SCHEDULE = [0, 2, 1, None, 0, 1, 2]

    def run(self, monkeypatch, chunk=None):
        first, last, unit = 1.0, 4.0, 2.0
        stub = StubBand(self.SCHEDULE, first, unit)
        monkeypatch.setattr(models, "_zero_cells", stub.certify)
        if chunk is not None:
            monkeypatch.setattr(models, "_CHUNK_CELLS", chunk)
        cells = list(models._windowed_cells(2, len(self.SCHEDULE), stub, first, last, unit))
        assert len(cells) == len(self.SCHEDULE)
        for j, (normals, offsets, verts, area, window, doublings) in enumerate(cells):
            rounds = 2 if self.SCHEDULE[j] is None else self.SCHEDULE[j]
            lines = stub.lines_to(j, rounds)
            assert normals.tolist() == [[j, r] for j, r, _ in lines]
            assert offsets.tolist() == [100.0 * j + 10.0 * r + k for j, r, k in lines]
            assert (window, doublings) == (first * 2**rounds, rounds)
            assert (verts is None) == (self.SCHEDULE[j] is None) and area is None
            if verts is not None:
                assert verts.tolist() == [[j, rounds]]
        # one certificate call per round, and each cell is certified once in
        # each round it is open
        assert stub.calls == [stub.round_of(hi) for _, hi in stub.windows]
        assert sorted(stub.certified) == sorted(
            (j, r) for j, last_round in enumerate(self.SCHEDULE)
            for r in range(3 if last_round is None else last_round + 1))
        return stub

    def test_every_cell_gets_its_own_lines(self, monkeypatch):
        stub = self.run(monkeypatch)
        assert stub.chunks == [7]
        assert stub.windows == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]

    def test_chunk_boundary(self, monkeypatch):
        # n = chunk + 3: two chunks, no cell split, each yielded once in order
        stub = self.run(monkeypatch, chunk=4)
        assert stub.chunks == [4, 3]
        assert stub.windows == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)] * 2

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_cell_as_the_per_cell_loop(self, d, seed):
        root = RngStream(seed).spawn("one-cell", d)
        for i in range(30 if d == 2 else 10):
            cell = next(models.crofton_cells(d, 1, root.spawn(i)))
            normals, offsets, verts, window, doublings = reference_crofton_cell(d, root.spawn(i))
            assert np.array_equal(cell.normals, normals)
            assert np.array_equal(cell.offsets, offsets)
            assert np.array_equal(cell.vertices, verts)
            assert (cell.window, cell.enlargements) == (window, doublings)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam", [30.0, 200.0, 1e4, 1e100])
    def test_one_replicate_as_the_per_cell_loop(self, d, lam, rng):
        root = rng.spawn("one-replicate", d, lam)
        for i in range(20):
            depths, normals, rho, verts = next(windowed_ball_pins(d, lam, 1, root.spawn(i)))
            depths0, normals0, rho0, verts0 = reference_ball_pins(d, lam, root.spawn(i))
            assert rho == rho0
            assert np.array_equal(depths, depths0) and np.array_equal(normals, normals0)
            assert np.array_equal(verts, verts0)

    @pytest.mark.parametrize("d, n", [(2, 4000), (3, 600)])
    def test_pooled_law(self, d, n, rng):
        # the pooled volumes have the zero cell's mean, and the law of
        # cells drawn one stream each
        root = rng.spawn("pooled-law", d)
        pooled = np.array([c.volume for c in models.crofton_cells(d, n, root.spawn("pooled"))])
        se = pooled.std(ddof=1) / np.sqrt(n)
        mean = crofton_moments(d).zero_cell_mean
        assert abs(pooled.mean() - mean) <= 4.0 * se, (pooled.mean(), mean, se)
        single = np.array([crofton_cell(d, root.spawn("single", i)).volume
                           for i in range(n // 2)])
        assert stats.ks_2samp(pooled, single).pvalue > 1e-3


class TestSegmentCrossings:
    def test_classical_rate(self, rng):
        # radial rate 2*pi in the plane, that is rate 2 on pi times the
        # length, gives mean 2 * length
        length = 1.5
        counts = segment_crossing_count(2, np.pi * length, 3000, rng.spawn("cross"))
        assert_close_sigma(counts.mean(), 2.0 * length,
                           counts.std(ddof=1) / np.sqrt(counts.size),
                           label="classical crossing rate")

    def test_unit_normalization(self, rng):
        # rate 2 gives mean 2 * length / pi in the plane
        counts = segment_crossing_count(2, 2.0, 3000, rng.spawn("cross2"))
        assert_close_sigma(counts.mean(), 4.0 / np.pi,
                           counts.std(ddof=1) / np.sqrt(counts.size),
                           label="unit crossing rate")

    @pytest.mark.parametrize("chunk_pins", [None, 70], ids=["pooled", "chunked"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_batched_law(self, d, chunk_pins, rng, monkeypatch):
        # every count is Poisson with mean 2 * length * E[<e1, theta>^+],
        # and E[<e1, theta>^+] = omega_{d-1} / (d omega_d): check the mean
        # and, through the sample variance, the Poisson dispersion; 70 pins
        # per chunk give 11 segments per chunk and a short last one
        if chunk_pins:
            monkeypatch.setattr(models, "_CHUNK_PINS", chunk_pins)
        n, length = 20_000, 3.0
        counts = segment_crossing_count(d, length, n, rng.spawn("batch", d))
        assert counts.shape == (n,)
        mu = 2.0 * length * unit_ball_volume(d - 1) / (d * unit_ball_volume(d))
        assert_close_sigma(counts.mean(), mu, np.sqrt(mu / n), k=4.0,
                           label="crossing count mean")
        # Var(s^2) = (mu4 - sigma^4) / n to leading order, mu4 = mu + 3 mu^2
        assert_close_sigma(counts.var(ddof=1), mu, np.sqrt((mu + 2.0 * mu * mu) / n),
                           k=4.0, label="crossing count variance")
        empty = segment_crossing_count(d, length, 0, rng.spawn("none", d))
        assert empty.shape == (0,) and np.issubdtype(empty.dtype, np.integer)

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            segment_crossing_count(1, 1.0, 4, rng)
        with pytest.raises(ValueError):
            segment_crossing_count(2, 0.0, 4, rng)


class TestSphereTessellation:
    def test_no_centers(self):
        grid = direction_grid(2, 16)
        cell = sphere_tessellation_cell_2d(np.empty((0, 2)), grid)
        assert np.array_equal(cell.radii, np.ones(16))
        assert cell.flagged_fraction == 0.0

    def test_single_center_pins(self):
        grid = DirectionGrid(2, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        cell = sphere_tessellation_cell_2d(np.array([[1.5, 0.0]]), grid)
        assert cell.radii[0] == pytest.approx(0.5, abs=1e-12)
        assert cell.radii[1] == 1.0

    def test_crossing_scan_oracle(self):
        centers = np.array([[0.5, 0.3], [-0.2, -0.6], [1.2, 0.9], [-1.4, 0.2]])
        grid = direction_grid(2, 16)
        dirs = grid.points
        r = first_circle_crossing(centers, grid)
        t = np.linspace(0.0, 3.0, 12_001)
        for k in range(16):
            pts = t[:, None] * dirs[k]
            best = np.inf
            for c in centers:
                g = np.sum((pts - c) ** 2, axis=1) - 1.0
                flips = np.nonzero(np.sign(g[1:]) != np.sign(g[:-1]))[0]
                if flips.size:
                    best = min(best, t[flips[0] + 1])
            if np.isinf(best):
                assert np.isinf(r[k])
            else:
                assert abs(r[k] - best) < 2e-3

    def test_tangency_flagging(self):
        # a circle grazing the cell wall flags only the rays near tangency
        grid = direction_grid(2, 360)
        cell = sphere_tessellation_cell_2d(np.array([[1.05, 0.0]]), grid)
        assert 0.0 < cell.flagged_fraction <= 6.0 / 360.0

    def test_domain(self):
        grid = direction_grid(2, 8)
        with pytest.raises(ValueError):
            sphere_tessellation_cell_2d(np.array([[1.0, 0.0, 0.0]]), grid)
        with pytest.raises(ValueError):
            sphere_tessellation_cell_2d(np.array([[1.5, 0.0]]),
                                        direction_grid(3, 8))


class TestCouplingTransform:
    GRID = direction_grid(2, 64)

    def test_region_validation(self, rng):
        # planar points on the annulus |1 - |c|| <= eps, with 0 < eps < 1
        for points, eps in (([[1.0, 0.0, 0.0]], 0.1), ([[0.5, 0.0]], 0.1),
                            ([[1.2, 0.0]], 0.1), ([[1.0, 0.0]], 0.0),
                            ([[1.0, 0.0]], 1.0)):
            with pytest.raises(ValueError):
                coupling_transform(points, 10.0, eps, rng, self.GRID)
        out = coupling_transform(np.empty((0, 2)), 0.0, 0.1, rng, self.GRID)
        assert out.corrected_points.shape == (0, 2)

    def test_outer_point_reflects(self, rng):
        eps = 0.6
        out = coupling_transform([[1.5, 0.0]], 0.0, eps, rng.spawn("fold"), self.GRID)
        # the fold sends the point antipodally to depth 0.5, and the
        # transport moves that depth by at most its bound
        assert out.corrected_points[0, 0] < 0.0
        assert abs(out.corrected_points[0, 1]) < 1e-12
        w = 1.0 - abs(out.corrected_points[0, 0])
        assert abs(w - 0.5) <= 2.0 * eps * eps

    def test_inner_points_kept(self, rng):
        eps = 0.25
        pts = np.array([[0.8, 0.0], [0.0, 0.95]])
        out = coupling_transform(pts, 0.0, eps, rng.spawn("keep"), self.GRID)
        nudge = np.linalg.norm(out.corrected_points - pts, axis=1)
        assert np.max(nudge) <= 2.0 * eps * eps

    def test_sampled_geometry(self, rng):
        eps = 0.05
        s = sample_shell(2, 400.0, eps, "both", rng.spawn("cpl-s"))
        out = coupling_transform(s.points, 800.0, eps, rng.spawn("cpl-r"),
                                 direction_grid(2, 256))
        assert out.corrected_points.shape == s.points.shape
        sn = np.linalg.norm(s.points, axis=1)
        cn = np.linalg.norm(out.corrected_points, axis=1)
        # outer points flip direction, inner ones keep it
        sign = np.where(sn > 1.0, -1.0, 1.0)
        assert np.allclose(out.corrected_points / cn[:, None],
                           sign[:, None] * s.points / sn[:, None], atol=1e-12)
        assert np.all(cn <= 1.0 + 1e-12)
        assert np.all(cn >= 1.0 - eps - 1e-12)
        folded = 1.0 - np.clip(np.abs(sn - 1.0), 0.0, eps)
        assert np.max(np.abs(cn - folded)) <= 2.0 * eps * eps
        assert out.hausdorff_scaled >= 0.0

    @staticmethod
    def block_input(lam, r):
        """The coupling block's shell width and tessellation sample."""
        eps = np.log(lam) ** 2 / (2.0 * lam)
        return eps, sample_shell(2, lam / 2.0, eps, "both", r.spawn("tess")).points

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    def test_bulk_skipped_at_large_intensity(self, lam, rng, monkeypatch):
        # the corrected centers alone give radii below eps: the bulk, about
        # 3.1e6 points at lam = 1e6, is never drawn
        def no_bulk(*args, **kwargs):
            raise AssertionError("the bulk was drawn")

        monkeypatch.setattr(models, "sample_ball_uniform", no_bulk)
        grid = direction_grid(2, 1024)
        for i in range(5):
            r = rng.spawn("no-bulk", lam, i)
            eps, points = self.block_input(lam, r)
            out = coupling_transform(points, lam, eps, r.spawn("bulk"), grid)
            assert 0.0 <= out.hausdorff_scaled < np.inf

    @pytest.mark.parametrize("lam", [5.0, 8.0, 3000.0])
    def test_bulk_certificate_is_exact(self, lam, rng, monkeypatch):
        # a reference that always draws the bulk from the same stream and
        # evaluates it with the corrected centers gives the same radii and
        # distance bit for bit, whether or not the bulk is drawn
        grid = direction_grid(2, 1024)
        drawn, calls = [], []
        kernel, bulk_sampler = models.intersection_radius, models.sample_ball_uniform

        def kept_radii(*args):
            calls.append((args, kernel(*args)))
            return calls[-1][1]

        def counted_bulk(*args, **kwargs):
            drawn.append(i)
            return bulk_sampler(*args, **kwargs)

        monkeypatch.setattr(models, "intersection_radius", kept_radii)
        monkeypatch.setattr(models, "sample_ball_uniform", counted_bulk)
        for i in range(200):
            r = rng.spawn("bulk-cert", lam, i)
            eps, points = self.block_input(lam, r)
            start = len(calls)
            out = coupling_transform(points, lam, eps, r.spawn("bulk"), grid)
            # the first call holds the corrected pins alone
            shape, p, th, _ = calls[start][0]
            assert shape == BALL and np.array_equal(p[:, None] * th, out.corrected_points)
            bulk_p, bulk_th = _center_pins(
                bulk_sampler(2, lam, r.spawn("bulk"), rmax=1.0 - eps).points)
            ref = kernel(BALL, np.concatenate([p, bulk_p]), np.vstack([th, bulk_th]), grid)
            assert np.array_equal(calls[-1][1], ref)
            assert out.hausdorff_scaled == lam * float(np.max(np.abs(
                ref - out.tess_cell.radii)))
        if lam < 10.0:
            assert 0 < len(drawn) < 200
        else:
            assert drawn == []

    def test_radii_are_those_of_the_corrected_centers(self, rng, monkeypatch):
        # at lam = 3000 no bulk is drawn, so the intersection radii are
        # every corrected center's _ball_exit, evaluated direction-major,
        # bit for bit: the pins (1 - w, sign * theta) give the centers
        # (sign (1 - w)) theta exactly, as the sign flip is exact
        lam, grid = 3000.0, direction_grid(2, 1024)
        radii, kernel = [], models.intersection_radius

        def kept_radii(*args):
            radii.append(kernel(*args))
            return radii[-1]

        monkeypatch.setattr(models, "intersection_radius", kept_radii)
        for i in range(20):
            r = rng.spawn("corrected-centers", i)
            eps, points = self.block_input(lam, r)
            out = coupling_transform(points, lam, eps, r.spawn("bulk"), grid)
            s = np.linalg.norm(points, axis=1)
            w = ShellDepthCdfs(eps, 2).transport(np.minimum(np.abs(s - 1.0), eps))
            folded = np.where(s > 1.0, -1.0, 1.0) * (1.0 - w)
            assert np.array_equal(out.corrected_points, folded[:, None] * (points / s[:, None]))
            c, u = out.corrected_points, grid.points
            dot = u[:, 0, None] * c[:, 0] + u[:, 1, None] * c[:, 1]
            ref = np.clip(np.min(models._ball_exit(dot, c[:, 0] * c[:, 0] + c[:, 1] * c[:, 1]),
                                 axis=1), 0.0, 1.0)
            assert len(radii) == i + 1 and np.array_equal(radii[-1], ref)
            assert out.hausdorff_scaled == lam * float(np.max(np.abs(ref - out.tess_cell.radii)))

    def test_bulk_point_at_the_origin(self, rng, monkeypatch):
        # a bulk center at the origin is the pin (0, 0), the unit ball, and
        # not a NaN direction that intersection_radius would reject; with
        # no shell points the radii are 1 and the bulk is always drawn
        bulk_sampler, drawn = models.sample_ball_uniform, []

        def with_origin(*args, **kwargs):
            drawn.append(bulk_sampler(*args, **kwargs).points)
            return ProcessSample(np.vstack([np.zeros((1, 2)), drawn[-1]]))

        monkeypatch.setattr(models, "sample_ball_uniform", with_origin)
        grid = direction_grid(2, 256)
        out = coupling_transform(np.empty((0, 2)), 5.0, 0.1, rng.spawn("origin"), grid)
        ref = intersection_radius(BALL, *_center_pins(drawn[0]), grid)
        assert len(drawn) == 1 and out.hausdorff_scaled == 5.0 * float(np.max(np.abs(
            ref - out.tess_cell.radii)))
        s, th = _center_pins(np.array([[0.0, 0.0], [3.0, -4.0]]))
        assert np.array_equal(s, [0.0, 5.0]) and np.array_equal(th, [[0.0, 0.0], [0.6, -0.8]])


class TestShellContainment:
    def test_wide_margin_trivial(self, rng):
        # at lam = e^2 the margin 2 log(lam)^2 / lam = 8 / e^2 exceeds 1
        grid = direction_grid(2, 16)
        assert shell_containment_indicator(2, np.e ** 2, rng.spawn("wide"), grid) is True

    def test_block_wide_margin(self, rng):
        # at lam = 5 the margin is 1.036: the coupling block counts every
        # replicate contained without drawing pins, as the shell route does
        n = 16  # a power of 2, so the standard error 1/n is exact
        cfg = ExperimentConfig(experiment="coupling", lambda_grid=(5.0,), replicates=n)
        rows = {m: (v, se) for m, v, se in expcli._block_coupling(cfg, 5.0, rng.spawn("b"))}
        assert rows["containment_fraction"] == (1.0, 1.0 / n)
        grid = direction_grid(2, 16)
        assert shell_containment_indicator(2, 5.0, rng.spawn("shell"), grid) is True

    def test_domain(self, rng):
        grid = direction_grid(2, 16)
        with pytest.raises(ValueError):
            shell_containment_indicator(2, 1.0, rng, grid)

    def test_high_intensity_frequency(self, rng):
        grid = direction_grid(2, 512)
        root = rng.spawn("cont")
        hits = sum(shell_containment_indicator(2, 1e4, root.spawn(i), grid)
                   for i in range(40))
        assert hits >= 36

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_block_verdict_has_the_shell_law(self, lam, rng):
        # the coupling block takes containment from pooled windowed pins;
        # its frequency against the shell route's, by a two-proportion z
        n = 2000
        cfg = ExperimentConfig(experiment="coupling", lambda_grid=(lam,), replicates=n,
                               grid_size=256)
        rows = {m: v for m, v, _ in expcli._block_coupling(cfg, lam,
                                                           rng.spawn("block", lam))}
        windowed = rows["containment_fraction"]
        grid, root = direction_grid(2, 256), rng.spawn("shell", lam)
        shell = sum(shell_containment_indicator(2, lam, root.spawn(i), grid)
                    for i in range(n)) / n
        p = (windowed + shell) / 2.0
        assert 0.0 < p < 1.0
        assert abs(windowed - shell) / np.sqrt(p * (1.0 - p) * 2.0 / n) < 4.0


class TestIntervalModel:
    def test_empty(self, rng):
        assert interval_intersection_1d(0.0, rng.spawn("i0")) == (-1.0, 1.0)

    def test_endpoint_laws(self, rng):
        self.check_endpoint_laws(rng)

    def test_endpoint_laws_chunked(self, rng, monkeypatch):
        # 70 pins per chunk is one replicate of about 200 centers per chunk
        monkeypatch.setattr(models, "_CHUNK_PINS", 70)
        self.check_endpoint_laws(rng)

    @staticmethod
    def check_endpoint_laws(rng):
        stats_ = interval_intersection_stats(100.0, 30_000, rng.spawn("i1"))
        n = 30_000
        # lam * |U| converges to a sum of two independent Exp(1)
        assert_close_sigma(stats_["scaled_length_mean"], 2.0,
                           np.sqrt(2.0 / n), label="interval mean")
        assert abs(stats_["scaled_length_var"] - 2.0) < 0.15
        assert abs(stats_["endpoint_corr"]) < 3.0 / np.sqrt(n)
        assert np.all(stats_["hi"] >= stats_["lo"])

    def test_one_replicate_route(self, rng):
        # interval_intersection_1d draws the batched route's law one
        # replicate at a time
        lam, n = 20.0, 4000
        root = rng.spawn("one-replicate")
        lo, hi = np.array([interval_intersection_1d(lam, root.spawn(i))
                           for i in range(n)]).T
        batched = interval_intersection_stats(lam, n, rng.spawn("batched"))
        assert stats.ks_2samp(lam * (hi - lo),
                              lam * (batched["hi"] - batched["lo"])).pvalue > 1e-3
        assert stats.ks_2samp(lo, batched["lo"]).pvalue > 1e-3

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            interval_intersection_1d(-1.0, rng)
        with pytest.raises(ValueError):
            interval_intersection_stats(5.0, 1, rng)


class TestMeetingCounts:
    COUNTS = [
        ("boolean", 2.0 * np.pi * 10.0),
        ("hyperplane-tess", 20.0),
        ("sphere-tess", 40.0 * np.pi),
    ]

    @pytest.mark.parametrize("model,expected", COUNTS)
    def test_first_order_counts(self, model, expected, rng):
        self.check_first_order_counts(model, expected, rng)

    @pytest.mark.parametrize("model,expected", COUNTS)
    def test_first_order_counts_chunked(self, model, expected, rng, monkeypatch):
        # 70 pins per chunk is one replicate per chunk in the shell models
        monkeypatch.setattr(models, "_CHUNK_PINS", 70)
        self.check_first_order_counts(model, expected, rng)

    @staticmethod
    def check_first_order_counts(model, expected, rng):
        mean, se, asym = meeting_count_mc(model, 2, 1e4, 1e-3, 1500,
                                          rng.spawn("meet", model))
        assert asym == pytest.approx(expected, rel=1e-12)
        # the exact mean differs from the first-order constant by O(eps)
        assert abs(mean - asym) <= 3.0 * se + 0.05 * asym * 1e-2 + 0.04

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            meeting_count_mc("disk", 2, 10.0, 0.01, 10, rng)
        with pytest.raises(ValueError):
            meeting_count_mc("boolean", 2, 10.0, 0.3, 10, rng)
        with pytest.raises(ValueError):
            meeting_count_mc("boolean", 2, 10.0, 0.01, 1, rng)

