"""Geometry layer: exact constants, lune/wedge weights, star sets."""
import numpy as np
import pytest
from scipy import special
from scipy.spatial import cKDTree

from randset.geomcore import (
    DirectionGrid,
    StarSet,
    cap_hyp_distance,
    direction_grid,
    hausdorff_star,
    lune_fraction,
    star_volume,
    unit_ball_volume,
    unit_sphere_area,
    validate_dimension,
    wedge_volume,
)

from conftest import assert_close_sigma, ball_star, binomial_se


def polygon_star(angles_deg=None, normals=None, offsets=None, rmax=1.0):
    """Convex polygon {<x, n_i> <= p_i} as a StarSet (origin inside)."""
    if normals is None:
        ang = np.deg2rad(np.asarray(angles_deg, dtype=float))
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)

    def fn(dirs):
        dot = dirs @ normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dot > 1e-14, offsets[None, :] / dot, np.inf)
        return np.minimum(np.min(t, axis=1), rmax)

    return StarSet(2, fn, rmax=rmax)


class TestBallVolume:
    def test_pinned_values(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
        assert unit_ball_volume(2) == pytest.approx(np.pi, abs=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-14)

    def test_recursion(self):
        # omega_d = omega_{d-2} * 2 pi / d
        for d in range(2, 12):
            assert unit_ball_volume(d) == pytest.approx(
                unit_ball_volume(d - 2) * 2.0 * np.pi / d, rel=1e-13)

    def test_sphere_area(self):
        assert unit_sphere_area(2) == pytest.approx(2.0 * np.pi, rel=1e-13)
        assert unit_sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            unit_ball_volume(-1)
        with pytest.raises(ValueError):
            unit_ball_volume(1.5)
        with pytest.raises(ValueError):
            validate_dimension(0)
        with pytest.raises(ValueError):
            validate_dimension(True)
        assert validate_dimension(np.int64(3)) == 3

    def test_large_dimension(self):
        # d = 341 is the last d whose gamma(d/2 + 1) is finite; past it the
        # volume would read 0 and every sampler would draw nothing
        d = 341
        log_wd = 0.5 * d * np.log(np.pi) - special.gammaln(0.5 * d + 1.0)
        assert unit_ball_volume(d) == pytest.approx(np.exp(log_wd), rel=1e-10)
        for d in (342, 400):
            with pytest.raises(ValueError, match="0 <= d <= 341"):
                unit_ball_volume(d)


class TestLuneFraction:
    def test_endpoints(self):
        for d in range(1, 7):
            assert lune_fraction(d, 0.0) == 0.0
            assert lune_fraction(d, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_planar_unit_separation(self):
        # two unit disks at distance 1: uncovered fraction 1/3 + sqrt(3)/(2 pi)
        assert lune_fraction(2, 1.0) == pytest.approx(
            1.0 / 3.0 + np.sqrt(3.0) / (2.0 * np.pi), abs=1e-13)

    def test_hit_or_miss_oracle(self, rng):
        # rejection estimate of the planar lune at r = 1
        g = rng.spawn("lune-mc").gen
        n = 200_000
        ang = g.uniform(0.0, 2.0 * np.pi, n)
        rad = np.sqrt(g.random(n))
        x = rad * np.cos(ang)
        y = rad * np.sin(ang)
        miss = (x - 1.0) ** 2 + y**2 > 1.0
        p = miss.mean()
        assert_close_sigma(p, lune_fraction(2, 1.0), binomial_se(p, n),
                           label="planar lune MC")

    def test_small_r_linear(self):
        r = 1e-4
        assert lune_fraction(2, r) == pytest.approx(2.0 * r / np.pi, rel=1e-7)

    def test_linear_coefficient_bound(self):
        # |F(r)/r - omega_{d-1}/omega_d| <= r^2 for small r
        for d in range(1, 7):
            c1 = unit_ball_volume(d - 1) / unit_ball_volume(d)
            for r in (1e-3, 3e-3, 1e-2):
                assert abs(lune_fraction(d, r) / r - c1) <= r * r

    def test_strictly_increasing(self):
        r = np.linspace(0.0, 2.0, 201)
        for d in range(1, 7):
            vals = lune_fraction(d, r)
            assert np.all(np.diff(vals) > 0.0)

    def test_array_matches_scalar(self):
        r = np.array([0.0, 0.3, 1.0, 1.7, 2.0])
        arr = lune_fraction(3, r)
        assert arr.shape == r.shape
        for ri, vi in zip(r, arr):
            assert vi == lune_fraction(3, float(ri))

    def test_domain(self):
        with pytest.raises(ValueError):
            lune_fraction(2, -0.01)
        with pytest.raises(ValueError):
            lune_fraction(2, 2.01)


class TestWedgeVolume:
    def test_pinned_values(self):
        assert wedge_volume(2, 0.1) == pytest.approx(0.2, abs=1e-14)
        assert wedge_volume(3, 0.1) == pytest.approx(0.1 * np.pi, abs=1e-14)

    def test_cubic_gap_example(self):
        # wedge overestimates the absolute lune volume by at most
        # (d-1) omega_{d-1} r^3 / 16 (5% slack on the bound)
        r = 0.2
        gap = wedge_volume(2, r) - np.pi * lune_fraction(2, r)
        assert 0.0 <= gap <= 1.05 * 2.0 * r**3 / 16.0

    def test_cubic_gap_grid(self):
        for d in range(2, 5):
            wd = unit_ball_volume(d)
            wd1 = unit_ball_volume(d - 1)
            for r in np.linspace(0.02, 0.3, 15):
                gap = wedge_volume(d, r) - wd * lune_fraction(d, r)
                assert 0.0 <= gap <= 1.05 * (d - 1) * wd1 * r**3 / 16.0

    def test_domain(self):
        with pytest.raises(ValueError):
            wedge_volume(2, -0.1)


class TestCapHypDistance:
    def test_pinned_values(self):
        assert cap_hyp_distance(0.1) == pytest.approx(1.0 - np.cos(0.1), abs=1e-15)
        assert cap_hyp_distance(0.1) <= 0.01
        assert cap_hyp_distance(0.5) == pytest.approx(0.1224174381, abs=1e-9)
        assert cap_hyp_distance(0.5) <= 0.25

    def test_quadratic_bound(self):
        for delta in np.linspace(1e-4, 0.5, 60):
            assert cap_hyp_distance(delta) <= delta * delta

    def test_domain(self):
        for bad in (0.0, -0.1, np.pi / 2.0, 2.0):
            with pytest.raises(ValueError):
                cap_hyp_distance(bad)


class TestDirectionGrid:
    def test_planar_four(self):
        g = direction_grid(2, 4)
        expect = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(g.points, expect, atol=1e-12)

    def test_sphere_covering(self):
        g = direction_grid(3, 1000)
        pts = g.points
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert np.sqrt(d2.min(axis=1)).max() < 0.2

    def test_high_dim_deterministic(self):
        a = direction_grid(5, 100)
        b = direction_grid(5, 100)
        assert a.points.tobytes() == b.points.tobytes()

    def test_unit_rows(self):
        for d, n in ((1, 9), (2, 17), (3, 33), (6, 50)):
            g = direction_grid(d, n)
            assert g.size == n
            assert np.allclose(np.linalg.norm(g.points, axis=1), 1.0, atol=1e-9)

    def test_one_dimensional(self):
        g = direction_grid(1, 5)
        assert np.array_equal(g.points[:, 0], [1.0, -1.0, 1.0, -1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            direction_grid(2, 0)
        for n in (2.5, 8.0, True):
            with pytest.raises(ValueError, match="grid size must be an integer"):
                direction_grid(2, n)
        assert direction_grid(2, np.int64(4)).size == 4
        with pytest.raises(ValueError):
            DirectionGrid(2, np.array([[1.0, 1.0]]))


class TestStarVolume:
    def test_ball_planar(self):
        g = direction_grid(2, 64)
        assert star_volume(ball_star(2), g) == pytest.approx(np.pi, abs=1e-10)

    def test_half_radius_3d(self):
        g = direction_grid(3, 500)
        assert star_volume(ball_star(3, 0.5), g) == pytest.approx(
            unit_ball_volume(3) / 8.0, abs=1e-12)

    def test_chord_cut_disk(self):
        # unit disk clipped by the line x = 0.3
        h = 0.3
        star = polygon_star(normals=np.array([[1.0, 0.0]]), offsets=np.array([h]))
        segment = np.arccos(h) - h * np.sqrt(1.0 - h * h)
        target = np.pi - segment
        got = star_volume(star, direction_grid(2, 4096))
        assert got == pytest.approx(target, abs=1e-5)

    def test_refinement(self):
        h = 0.3
        star = polygon_star(normals=np.array([[1.0, 0.0]]), offsets=np.array([h]))
        target = np.pi - (np.arccos(h) - h * np.sqrt(1.0 - h * h))
        coarse = abs(star_volume(star, direction_grid(2, 512)) - target)
        fine = abs(star_volume(star, direction_grid(2, 8192)) - target)
        assert fine < coarse

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            star_volume(ball_star(3), direction_grid(2, 16))


class TestHausdorffStar:
    def test_identical(self):
        g = direction_grid(2, 128)
        assert hausdorff_star(ball_star(2), ball_star(2), g) == 0.0

    def test_nested_balls(self):
        g = direction_grid(2, 128)
        assert hausdorff_star(ball_star(2, 1.0), ball_star(2, 0.8), g) == (
            pytest.approx(0.2, abs=1e-14))

    def test_regular_forty_gon(self):
        # inscribed 40-gon vs the disk: gap 1 - cos(pi/40) at edge midpoints
        k = np.arange(40)
        star = polygon_star(angles_deg=(2 * k + 1) * 4.5,
                            offsets=np.full(40, np.cos(np.pi / 40.0)))
        g = direction_grid(2, 8000)
        assert hausdorff_star(star, ball_star(2), g) == pytest.approx(
            1.0 - np.cos(np.pi / 40.0), abs=1e-12)

    def test_polygon_pairs_vs_point_sets(self):
        # radial sup-distance vs brute-force Hausdorff between dense
        # boundary samples, for pairs where the two provably coincide
        square_5 = polygon_star(angles_deg=[0, 90, 180, 270],
                                offsets=np.full(4, 0.5))
        square_7 = polygon_star(angles_deg=[0, 90, 180, 270],
                                offsets=np.full(4, 0.7))
        cut = polygon_star(angles_deg=[0, 90, 180, 270, 45],
                           offsets=np.array([0.6, 0.6, 0.6, 0.6, 0.75]))
        square_6 = polygon_star(angles_deg=[0, 90, 180, 270],
                                offsets=np.full(4, 0.6))
        grid = direction_grid(2, 20_000)
        for a, b in ((square_5, square_7), (square_6, cut)):
            ra, rb = a.radii(grid), b.radii(grid)
            pa = ra[:, None] * grid.points
            pb = rb[:, None] * grid.points
            d_ab = cKDTree(pb).query(pa)[0].max()
            d_ba = cKDTree(pa).query(pb)[0].max()
            brute = max(d_ab, d_ba)
            assert hausdorff_star(a, b, grid) == pytest.approx(brute, rel=0.02)

    def test_metric_properties(self):
        g = direction_grid(2, 720)
        sets = [ball_star(2, 0.9),
                polygon_star(angles_deg=[0, 90, 180, 270], offsets=np.full(4, 0.6)),
                polygon_star(angles_deg=[30, 90, 150, 210, 270, 330],
                             offsets=np.full(6, 0.7))]
        for a in sets:
            assert hausdorff_star(a, a, g) == 0.0
            for b in sets:
                assert hausdorff_star(a, b, g) >= 0.0
                assert hausdorff_star(a, b, g) == hausdorff_star(b, a, g)
        a, b, c = sets
        assert hausdorff_star(a, c, g) <= (
            hausdorff_star(a, b, g) + hausdorff_star(b, c, g) + 1e-15)
        assert hausdorff_star(ball_star(2, 1.0), ball_star(2, 0.9999), g) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff_star(ball_star(2), ball_star(3), direction_grid(2, 16))


class TestStarSet:
    def test_contains(self):
        s = ball_star(2, 0.5)
        assert s.contains([0.0, 0.0])
        assert s.contains([0.3, 0.0])
        assert not s.contains([0.6, 0.0])
        with pytest.raises(ValueError):
            s.contains([0.1, 0.1, 0.1])

    def test_radii_shape_check(self):
        bad = StarSet(2, lambda dirs: np.ones(3))
        with pytest.raises(ValueError):
            bad.radii(direction_grid(2, 8))
