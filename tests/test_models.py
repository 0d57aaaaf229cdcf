"""Intersection models, tessellation cells, coupling, meeting counts."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from randset import models
from randset.analytics import (
    RadiusLaw,
    expected_volume_quadrature,
    halfspace_miss_series,
    halfspace_uniform_weight,
    cone_uniform_weight,
    invert_increasing,
    sample_radius_exact,
)
from randset.geomcore import (
    DirectionGrid,
    direction_grid,
    lune_fraction,
    unit_ball_volume,
)
from randset.models import (
    BALL,
    HALF_SPACE,
    CroftonCell,
    HalfSpace,
    ShapeKind,
    UnboundedCellError,
    _zero_cell_polytope,
    ball_intersection_radius,
    cone,
    count_scale,
    coupling_transform,
    crofton_cell,
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
)
from randset.ppp import (
    ProcessSample,
    RngStream,
    coupon_bound,
    depth_radial_law,
    poisson_log_tail_check,
    radial_law_from_cdf,
    sample_ball_uniform,
    sample_shell,
    uniform_radial_law,
)

from conftest import assert_close_sigma, binomial_se


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

    def test_halfspace_contains(self):
        h = HalfSpace(np.array([1.0, 0.0]), 0.3)
        assert h.contains([0.3, 5.0])
        assert h.contains([-2.0, 0.0])
        assert not h.contains([0.31, 0.0])


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


class TestBallRadius:
    def test_no_centers(self):
        dirs = direction_grid(2, 8).points
        assert np.array_equal(ball_intersection_radius(np.empty((0, 2)), dirs),
                              np.ones(8))

    def test_pinned_values(self):
        c = np.array([[0.5, 0.0]])
        e1 = np.array([[1.0, 0.0]])
        assert ball_intersection_radius(c, e1)[0] == pytest.approx(1.0)
        assert ball_intersection_radius(c, -e1)[0] == pytest.approx(0.5)
        assert ball_intersection_radius(np.zeros((1, 2)), e1)[0] == 1.0

    def test_center_outside_rejected(self):
        with pytest.raises(ValueError):
            ball_intersection_radius(np.array([[1.2, 0.0]]),
                                     np.array([[1.0, 0.0]]))

    def test_scan_oracle(self, rng):
        g = rng.spawn("ball-scan").gen
        c = 0.9 * g.standard_normal((5, 2))
        c /= np.maximum(1.0, np.linalg.norm(c, axis=1))[:, None] * 1.1
        dirs = direction_grid(2, 8).points
        r = ball_intersection_radius(c, dirs)
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
        r = intersection_radius(HALF_SPACE, offsets, normals, diag)
        assert r[0] == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)
        # no constraint faces -e1, so the unit ball caps the radius
        r = intersection_radius(HALF_SPACE, offsets, normals, np.array([[-1.0, 0.0]]))
        assert r[0] == 1.0

    def test_empty_and_rmax(self):
        dirs = direction_grid(2, 4).points
        r = intersection_radius(HALF_SPACE, np.empty(0), np.empty((0, 2)), dirs,
                                rmax=2.5)
        assert np.array_equal(r, np.full(4, 2.5))

    def test_nonpositive_offsets(self):
        with pytest.raises(ValueError):
            intersection_radius(HALF_SPACE, np.array([0.3, 0.0]), np.eye(2),
                                np.array([[1.0, 0.0]]))

    def test_contains_consistency(self, rng):
        g = rng.spawn("hs-scan").gen
        th = g.standard_normal((4, 2))
        th /= np.linalg.norm(th, axis=1)[:, None]
        p = g.uniform(0.2, 0.8, 4)
        planes = [HalfSpace(th[i], p[i]) for i in range(4)]
        dirs = direction_grid(2, 16).points
        r = intersection_radius(HALF_SPACE, p, th, dirs)
        for k in range(16):
            x_in = (r[k] - 1e-9) * dirs[k]
            assert all(h.contains(x_in) for h in planes)
            if r[k] < 1.0:
                x_out = (r[k] + 1e-9) * dirs[k]
                assert not all(h.contains(x_out) for h in planes)


class TestConeExit:
    def test_empty(self):
        dirs = direction_grid(2, 4).points
        assert np.array_equal(intersection_radius(cone(1.0), np.empty(0), np.empty((0, 2)),
                                                  dirs), np.ones(4))

    def test_right_angle_is_halfspace(self, rng):
        g = rng.spawn("cone-hs").gen
        th = g.standard_normal((5, 2))
        th /= np.linalg.norm(th, axis=1)[:, None]
        p = g.uniform(0.3, 0.7, 5)
        dirs = direction_grid(2, 64).points
        rc = intersection_radius(cone(np.pi / 2.0), p, th, dirs)
        rh = intersection_radius(HALF_SPACE, p, th, dirs)
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
        dirs = direction_grid(2, 12).points
        r = intersection_radius(cone(beta), p, th, dirs)
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
                    inside = HalfSpace(th[i], p[i]).contains(x)
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
)
_LAM_ABOVE_ONE_ENTRY_POINTS = (
    lambda lam, rng: coupon_bound(6, 1.0 / 6.0, lam),
    lambda lam, rng: poisson_log_tail_check(lam),
    lambda lam, rng: shell_containment_indicator(2, lam, rng, direction_grid(2, 8)),
)
# the tessellation entry points' positive rates and lengths, by argument name
_RATE_ENTRY_POINTS = (
    ("radial_rate", lambda v, rng: crofton_cell(2, rng, radial_rate=v)),
    ("radial_rate", lambda v, rng: segment_crossing_count(2, 1.0, rng, radial_rate=v)),
    ("length", lambda v, rng: segment_crossing_count(2, v, rng)),
)


class TestSampleModel:
    def test_empty_intensity(self, rng):
        m = sample_intersection_model(2, 0.0, uniform_radial_law(2), BALL,
                                      rng.spawn("empty"))
        assert m.count == 0
        grid = direction_grid(2, 32)
        assert np.array_equal(m.star.radii(grid), np.ones(32))
        assert m.star.contains([0.0, 0.999])

    def test_cone_needs_plane(self, rng):
        with pytest.raises(ValueError):
            sample_intersection_model(3, 1.0, uniform_radial_law(3),
                                      cone(1.0), rng)
        with pytest.raises(ValueError):
            sample_axis_radii(3, 1.0, uniform_radial_law(3), cone(1.0), 4, rng)

    def test_negative_intensity(self, rng):
        with pytest.raises(ValueError):
            sample_intersection_model(2, -2.0, uniform_radial_law(2), BALL, rng)

    @pytest.mark.parametrize("lam", [np.nan, -1.0, np.inf])
    def test_bad_intensity(self, lam, rng):
        for call in _INTENSITY_ENTRY_POINTS:
            with pytest.raises(ValueError, match="intensity must be finite and >= 0"):
                call(lam, rng)
        for call in _LAM_ABOVE_ONE_ENTRY_POINTS:
            with pytest.raises(ValueError, match="lam must be finite and exceed 1"):
                call(lam, rng)
        for name, call in _RATE_ENTRY_POINTS:
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                call(lam, rng)

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
        # a Poisson count of 0 hands the bisection inverse an empty target
        law = radial_law_from_cdf("sq", lambda r: np.asarray(r) ** 2)
        m = sample_intersection_model(2, 1e-9, law, HALF_SPACE, RngStream(1))
        assert m.count == 0
        assert np.array_equal(m.star.radii(direction_grid(2, 8)), np.ones(8))

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
        checked = 0
        for xi, ti, ok in zip(x, truth, margin):
            if not ok:
                continue
            assert m.star.contains(xi) == ti
            checked += 1
        assert checked > 7000

    def test_membership_brute_force_halfspace(self, rng):
        m = sample_intersection_model(2, 4.0, uniform_radial_law(2), HALF_SPACE,
                                      rng.spawn("bf-hs"))
        planes = [HalfSpace(m.pin_dirs[i], m.pin_radii[i])
                  for i in range(m.count)]
        g = rng.spawn("bf-hs-pts").gen
        x = g.uniform(-1.0, 1.0, (4000, 2))
        x = x[np.linalg.norm(x, axis=1) <= 1.0 - 1e-9]
        slack = x @ m.pin_dirs.T - m.pin_radii[None, :]
        keep = np.abs(slack).min(axis=1) > 1e-9
        for xi, ok in zip(x[keep], np.all(slack[keep] < 0.0, axis=1)):
            assert m.star.contains(xi) == ok

    def test_monotone_in_centers(self, rng):
        # every added ball can only shrink the intersection
        g = rng.spawn("mono").gen
        c = g.uniform(-0.6, 0.6, (8, 2))
        dirs = direction_grid(2, 128).points
        prev = np.ones(128)
        for k in range(1, 9):
            cur = ball_intersection_radius(c[:k], dirs)
            assert np.all(cur <= prev + 1e-12)
            prev = cur


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


def model_radius(shape, pins, dirs):
    """The public radius function of `shape` for the given pins."""
    return intersection_radius(shape, *pin_arrays(pins), dirs)


class TestExitKernelProperties:
    DIRS = direction_grid(2, 64).points

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_radii_in_unit_interval(self, shape, pins):
        r = model_radius(shape, pins, self.DIRS)
        assert np.all((r >= 0.0) & (r <= 1.0))

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_adding_a_pin_never_grows_a_radius(self, shape, pins):
        prev = np.ones(self.DIRS.shape[0])
        for k in range(1, len(pins) + 1):
            cur = model_radius(shape, pins[:k], self.DIRS)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    @KERNEL_SETTINGS
    @given(shape=SHAPES, pins=PINS)
    def test_axis_route_matches_vector_route(self, shape, pins):
        # along e1 the kernel only needs cos = Theta_1; the ball's vector
        # route goes through the centers instead
        p, th = pin_arrays(pins)
        axis = np.clip(np.min(exit_distance(shape, p, th[:, 0])), 0.0, 1.0)
        e1 = np.array([[1.0, 0.0]])
        if shape.kind == "ball":
            vector = ball_intersection_radius(p[:, None] * th, e1)[0]
        else:
            vector = model_radius(shape, pins, e1)[0]
        assert abs(axis - vector) <= 1e-12

    @KERNEL_SETTINGS
    @given(pins=PINS)
    def test_ball_pin_route_matches_center_route(self, pins):
        p, th = pin_arrays(pins)
        by_pins = intersection_radius(BALL, p, th, self.DIRS)
        by_centers = ball_intersection_radius(p[:, None] * th, self.DIRS)
        assert np.max(np.abs(by_pins - by_centers)) <= 1e-12


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


class TestRotationInvariance:
    def test_isotropy(self, rng):
        lam, reps = 5.0, 2000
        grid = direction_grid(2, 8)
        root = rng.spawn("rot")
        radii = np.empty((reps, 8))
        for i in range(reps):
            m = sample_intersection_model(2, lam, uniform_radial_law(2), BALL,
                                          root.spawn(i))
            radii[:, :][i] = m.star.radii(grid)
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
    def _midpoints_inside(self, star, dirs, rng):
        r = star.radii(DirectionGrid(star.dim, dirs)) * (1.0 - 1e-6)
        pts = r[:, None] * dirs
        g = rng.gen
        i = g.integers(0, len(pts), 200)
        j = g.integers(0, len(pts), 200)
        for a, b in zip(i, j):
            assert star.contains(0.5 * (pts[a] + pts[b]))

    def test_halfspace_model(self, rng):
        m = sample_intersection_model(2, 10.0, uniform_radial_law(2),
                                      HALF_SPACE, rng.spawn("cvx-hs"))
        dirs = direction_grid(2, 128).points
        self._midpoints_inside(m.star, dirs, rng.spawn("cvx-hs-pairs"))

    def test_ball_model(self, rng):
        m = sample_intersection_model(2, 30.0, uniform_radial_law(2), BALL,
                                      rng.spawn("cvx-ball"))
        dirs = direction_grid(2, 128).points
        self._midpoints_inside(m.star, dirs, rng.spawn("cvx-ball-pairs"))

    def test_crofton_cell(self, rng):
        cell = crofton_cell(2, rng.spawn("cvx-cell"))
        dirs = direction_grid(2, 128).points
        self._midpoints_inside(cell.star, dirs, rng.spawn("cvx-cell-pairs"))


class TestCroftonCell:
    def test_square_polytope(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        verts, vol = _zero_cell_polytope(2, normals, np.ones(4), 10.0)
        assert vol == pytest.approx(4.0, abs=1e-12)
        assert sorted(map(tuple, np.round(verts, 12).tolist())) == [
            (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_cube_polytope(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])
        verts, vol = _zero_cell_polytope(3, normals, np.ones(6), 10.0)
        assert vol == pytest.approx(8.0, abs=1e-9)
        assert verts.shape[0] == 8

    def test_uncertified_returns_none(self):
        # a slab is unbounded: must not be certified at any window
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert _zero_cell_polytope(2, normals, np.ones(2), 10.0) is None

    def test_unbounded_cells_uncertified(self):
        # normals inside a closed half-space leave an unbounded cell, though
        # qhull still returns finite vertices inside the window
        def fan(degrees):
            ang = np.radians(degrees)
            return np.column_stack([np.cos(ang), np.sin(ang)])

        for degrees in ((0, 60, 120), (0, 45, 90, 135), (10, 100, 170)):
            assert _zero_cell_polytope(2, fan(degrees), np.ones(len(degrees)), 10.0) is None
        s = np.sqrt(0.5)
        cone_normals = np.array([[s, 0, s], [-s, 0, s], [0, s, s], [0, -s, s], [0, 0, 1.0]])
        assert _zero_cell_polytope(3, cone_normals, np.ones(5), 10.0) is None
        verts, vol = _zero_cell_polytope(2, fan((0, 120, 240)), np.ones(3), 10.0)
        assert vol == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-12)
        assert verts.shape[0] == 3

    def test_area_dual_route(self, rng):
        # qhull returns the vertices unordered; the origin is interior, so
        # sorting them by angle gives the boundary for the shoelace formula
        for i in range(5):
            cell = crofton_cell(2, rng.spawn("area", i))
            x, y = cell.vertices[np.argsort(np.arctan2(cell.vertices[:, 1],
                                                       cell.vertices[:, 0]))].T
            shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
            assert cell.volume == pytest.approx(shoelace, rel=1e-9)

    @pytest.mark.parametrize("rate", [0.5, 2.0])
    def test_vertices_satisfy_constraints(self, rate, rng):
        root = rng.spawn("feas", rate)
        for i in range(200):
            cell = crofton_cell(2, root.spawn(i), radial_rate=rate)
            slack = cell.vertices @ cell.normals.T - cell.offsets[None, :]
            assert np.max(slack) <= 1e-9
            assert np.linalg.norm(cell.vertices, axis=1).max() < cell.window

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rate", [1e-3, 0.2, 7.3])
    def test_rate_scaling(self, d, rate, rng):
        # the window is set in units of 1/rate, so a cell at rate r is the
        # rate-2 cell of the same stream scaled by 2/r
        for i in range(4):
            base = crofton_cell(d, rng.spawn("scale", d, i))
            cell = crofton_cell(d, rng.spawn("scale", d, i), radial_rate=rate)
            assert cell.enlargements == base.enlargements
            assert np.array_equal(cell.normals, base.normals)
            assert cell.volume == pytest.approx(base.volume * (2.0 / rate) ** d, rel=1e-12)

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
        monkeypatch.setattr(models, "_zero_cell_polytope", lambda *args: None)
        with pytest.raises(UnboundedCellError, match="3 enlargements"):
            crofton_cell(2, rng.spawn("starved"))

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            crofton_cell(1, rng)
        with pytest.raises(ValueError):
            crofton_cell(2, rng, radial_rate=0.0)


class TestSegmentCrossings:
    def test_classical_rate(self, rng):
        # radial rate 2*pi in the plane gives mean 2 * length
        root = rng.spawn("cross")
        length = 1.5
        counts = np.array([segment_crossing_count(2, length, root.spawn(i),
                                                  radial_rate=2.0 * np.pi)
                           for i in range(3000)])
        assert_close_sigma(counts.mean(), 2.0 * length,
                           counts.std(ddof=1) / np.sqrt(counts.size),
                           label="classical crossing rate")

    def test_unit_normalization(self, rng):
        # rate 2 gives mean 2 * length / pi in the plane
        root = rng.spawn("cross2")
        counts = np.array([segment_crossing_count(2, 2.0, root.spawn(i))
                           for i in range(3000)])
        assert_close_sigma(counts.mean(), 4.0 / np.pi,
                           counts.std(ddof=1) / np.sqrt(counts.size),
                           label="unit crossing rate")

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            segment_crossing_count(1, 1.0, rng)
        with pytest.raises(ValueError):
            segment_crossing_count(2, 0.0, rng)


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
        dirs = direction_grid(2, 16).points
        r = first_circle_crossing(centers, dirs)
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

    def _annulus_sample(self, points, eps, intensity=10.0):
        return ProcessSample(dim=2, points=np.asarray(points, dtype=float),
                             intensity=intensity, region="annulus", eps=eps)

    def test_region_validation(self, rng):
        bad = ProcessSample(dim=2, points=np.empty((0, 2)), intensity=1.0,
                            region="ball", eps=None)
        with pytest.raises(ValueError):
            coupling_transform(bad, rng, self.GRID)
        with pytest.raises(ValueError):
            coupling_transform(self._annulus_sample(np.empty((0, 2)), None), rng,
                               self.GRID)

    def test_outer_point_reflects(self, rng):
        eps = 0.6
        out = coupling_transform(self._annulus_sample([[1.5, 0.0]], eps, 0.0),
                                 rng.spawn("fold"), self.GRID)
        # the fold sends the point antipodally to depth 0.5, and the
        # transport moves that depth by at most its bound
        assert out.corrected_points[0, 0] < 0.0
        assert abs(out.corrected_points[0, 1]) < 1e-12
        w = 1.0 - abs(out.corrected_points[0, 0])
        assert abs(w - 0.5) <= 2.0 * eps * eps

    def test_inner_points_kept(self, rng):
        eps = 0.25
        pts = np.array([[0.8, 0.0], [0.0, 0.95]])
        out = coupling_transform(self._annulus_sample(pts, eps, 0.0),
                                 rng.spawn("keep"), self.GRID)
        nudge = np.linalg.norm(out.corrected_points - pts, axis=1)
        assert np.max(nudge) <= 2.0 * eps * eps

    def test_sampled_geometry(self, rng):
        eps = 0.05
        s = sample_shell(2, 400.0, eps, "both", rng.spawn("cpl-s"))
        out = coupling_transform(s, rng.spawn("cpl-r"), direction_grid(2, 256))
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


class TestShellContainment:
    def test_wide_margin_trivial(self, rng):
        # at lam = e^2 the margin 2 log(lam)^2 / lam = 8 / e^2 exceeds 1
        grid = direction_grid(2, 16)
        assert shell_containment_indicator(2, np.e ** 2, rng.spawn("wide"), grid) is True

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


class TestIntervalModel:
    def test_empty(self, rng):
        assert interval_intersection_1d(0.0, rng.spawn("i0")) == (-1.0, 1.0)

    def test_endpoint_laws(self, rng):
        stats_ = interval_intersection_stats(100.0, 30_000, rng.spawn("i1"))
        n = 30_000
        # lam * |U| converges to a sum of two independent Exp(1)
        assert_close_sigma(stats_["scaled_length_mean"], 2.0,
                           np.sqrt(2.0 / n), label="interval mean")
        assert abs(stats_["scaled_length_var"] - 2.0) < 0.15
        assert abs(stats_["endpoint_corr"]) < 3.0 / np.sqrt(n)
        assert np.all(stats_["hi"] >= stats_["lo"])

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            interval_intersection_1d(-1.0, rng)
        with pytest.raises(ValueError):
            interval_intersection_stats(5.0, 1, rng)


class TestMeetingCounts:
    @pytest.mark.parametrize("model,expected", [
        ("boolean", 2.0 * np.pi * 10.0),
        ("hyperplane-tess", 20.0),
        ("sphere-tess", 40.0 * np.pi),
    ])
    def test_first_order_counts(self, model, expected, rng):
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

