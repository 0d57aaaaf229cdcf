"""Geometry layer: exact constants, lune/wedge weights, direction grids,
and the volume and radial distance of sets held as radii on a grid."""
import numpy as np
import pytest
from scipy import special
from scipy.spatial import cKDTree

from randset.analytics import radius_moment_volume
from randset.geomcore import (
    DirectionGrid,
    cap_hyp_distance,
    direction_grid,
    lune_fraction,
    unit_ball_volume,
    unit_sphere_area,
    validate_count,
    validate_dimension,
    wedge_volume,
)
from randset.models import HALF_SPACE, intersection_radius

from conftest import assert_close_sigma, binomial_se


def polygon_radii(grid, angles_deg=None, normals=None, offsets=None):
    """Radii on the grid of the convex polygon {<x, n_i> <= p_i} (origin
    inside), capped at 1."""
    if normals is None:
        ang = np.deg2rad(np.asarray(angles_deg, dtype=float))
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
    return intersection_radius(HALF_SPACE, offsets, normals, grid.points)


def radial_gap(ra, rb):
    """max |r_a - r_b| over the grid, as coupling_transform records it."""
    return float(np.max(np.abs(ra - rb)))


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
        for bad in (True, 2.0, 1):
            with pytest.raises(ValueError, match="k must be an integer >= 2"):
                validate_count(bad, "k", 2)
        assert validate_count(np.int64(3), "k", 2) == 3
        assert type(validate_count(np.int64(0), "k")) is int

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

    @pytest.mark.parametrize("d, coeff", [(1, 0.5), (2, 2.0 / np.pi), (3, 0.75)])
    @pytest.mark.parametrize("r", [1e-160, 1e-300])
    def test_leading_term_below_underflow(self, d, coeff, r):
        # r^2/4 underflows here; the leading term omega_{d-1}/omega_d * r
        # keeps full relative precision, in scalars and arrays alike
        assert lune_fraction(d, r) == pytest.approx(coeff * r, rel=1e-15, abs=0.0)
        arr = lune_fraction(d, np.array([r, 0.5]))
        assert arr[0] == pytest.approx(coeff * r, rel=1e-15, abs=0.0)
        assert arr[1] == lune_fraction(d, 0.5)

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
        with pytest.raises(ValueError, match="grid size must be an integer >= 1, got 0"):
            direction_grid(2, 0)
        for n in (2.5, 8.0, True):
            with pytest.raises(ValueError, match="grid size must be an integer"):
                direction_grid(2, n)
        assert direction_grid(2, np.int64(4)).size == 4
        with pytest.raises(ValueError):
            DirectionGrid(2, np.array([[1.0, 1.0]]))


class TestStarVolume:
    """omega_d * mean(f^d) over grid radii f (radius_moment_volume) is the
    surface quadrature (1/d) * int f^d dsigma of a star set's volume: exact
    for a centered ball on any grid, and for kinked radii its error falls
    with the grid size."""

    CUT = 0.3  # the unit disk clipped by the line x = CUT
    CUT_AREA = np.pi - (np.arccos(CUT) - CUT * np.sqrt(1.0 - CUT * CUT))

    def _cut_disk_volume(self, n):
        grid = direction_grid(2, n)
        radii = polygon_radii(grid, normals=np.array([[1.0, 0.0]]),
                              offsets=np.array([self.CUT]))
        return radius_moment_volume(2, radii)[0]

    def test_ball_planar(self):
        est, _ = radius_moment_volume(2, np.ones(direction_grid(2, 64).size))
        assert est == pytest.approx(np.pi, abs=1e-10)

    def test_half_radius_3d(self):
        est, _ = radius_moment_volume(3, np.full(direction_grid(3, 500).size, 0.5))
        assert est == pytest.approx(unit_ball_volume(3) / 8.0, abs=1e-12)

    def test_chord_cut_disk(self):
        assert self._cut_disk_volume(4096) == pytest.approx(self.CUT_AREA, abs=1e-5)

    def test_refinement(self):
        coarse = abs(self._cut_disk_volume(512) - self.CUT_AREA)
        fine = abs(self._cut_disk_volume(8192) - self.CUT_AREA)
        assert fine < coarse


class TestHausdorffStar:
    """The radial sup-distance max |r_a - r_b| on a grid, which bounds the
    Hausdorff distance of sets star-shaped about the origin."""

    def test_identical(self):
        # the radii do not depend on the order of the constraints
        g = direction_grid(2, 128)
        offsets = np.array([0.5, 0.6, 0.7, 0.8])
        a = polygon_radii(g, angles_deg=[0, 90, 180, 270], offsets=offsets)
        b = polygon_radii(g, angles_deg=[270, 180, 90, 0], offsets=offsets[::-1])
        assert radial_gap(a, b) == 0.0

    def test_nested_balls(self):
        n = direction_grid(2, 128).size
        assert radial_gap(np.ones(n), np.full(n, 0.8)) == pytest.approx(0.2, abs=1e-14)

    def test_regular_forty_gon(self):
        # inscribed 40-gon vs the disk: gap 1 - cos(pi/40) at edge midpoints
        k = np.arange(40)
        g = direction_grid(2, 8000)
        gon = polygon_radii(g, angles_deg=(2 * k + 1) * 4.5,
                            offsets=np.full(40, np.cos(np.pi / 40.0)))
        assert radial_gap(gon, np.ones(g.size)) == pytest.approx(
            1.0 - np.cos(np.pi / 40.0), abs=1e-12)

    def test_polygon_pairs_vs_point_sets(self):
        # radial sup-distance vs brute-force Hausdorff between dense
        # boundary samples, for pairs where the two provably coincide
        grid = direction_grid(2, 20_000)
        square = lambda h: polygon_radii(grid, angles_deg=[0, 90, 180, 270],
                                         offsets=np.full(4, h))
        cut = polygon_radii(grid, angles_deg=[0, 90, 180, 270, 45],
                            offsets=np.array([0.6, 0.6, 0.6, 0.6, 0.75]))
        for ra, rb in ((square(0.5), square(0.7)), (square(0.6), cut)):
            pa = ra[:, None] * grid.points
            pb = rb[:, None] * grid.points
            d_ab = cKDTree(pb).query(pa)[0].max()
            d_ba = cKDTree(pa).query(pb)[0].max()
            brute = max(d_ab, d_ba)
            assert radial_gap(ra, rb) == pytest.approx(brute, rel=0.02)

    def test_metric_properties(self):
        g = direction_grid(2, 720)
        sets = [np.full(g.size, 0.9),
                polygon_radii(g, angles_deg=[0, 90, 180, 270], offsets=np.full(4, 0.6)),
                polygon_radii(g, angles_deg=[30, 90, 150, 210, 270, 330],
                              offsets=np.full(6, 0.7))]
        for a in sets:
            assert radial_gap(a, a) == 0.0
            for b in sets:
                assert radial_gap(a, b) >= 0.0
                assert radial_gap(a, b) == radial_gap(b, a)
        a, b, c = sets
        assert radial_gap(a, c) <= radial_gap(a, b) + radial_gap(b, c) + 1e-15
        assert radial_gap(np.ones(g.size), np.full(g.size, 0.9999)) > 0.0
