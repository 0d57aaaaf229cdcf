"""Closed forms, quadratures, exact samplers, and their cross-checks."""
from dataclasses import astuple

import numpy as np
import pytest
from scipy import integrate, special, stats

from randset.analytics import (
    CroftonMoments,
    RadiusLaw,
    _miss_weight,
    asymptotic_volume_constant,
    cone_uniform_weight,
    crofton_moments,
    expected_volume_quadrature,
    halfspace_miss_quadrature,
    halfspace_miss_series,
    halfspace_uniform_weight,
    invert_increasing,
    ks_statistic,
    lune_fraction_closed_2d,
    miss_weight_mc,
    radius_moment_volume,
    sample_radius_exact,
)
from randset.geomcore import lune_fraction, unit_ball_volume
from randset.models import BALL, HALF_SPACE, cone, sample_axis_radii, segment_crossing_count
from randset.ppp import RngStream, depth_radial_law, uniform_radial_law

from conftest import assert_close_sigma, binomial_se


class TestLuneClosed2d:
    def test_matches_betainc(self):
        r = np.linspace(0.0, 2.0, 401)
        assert np.allclose(lune_fraction_closed_2d(r), lune_fraction(2, r),
                           atol=1e-12)

    def test_cubic_series(self):
        # F(r) = 2r/pi - r^3/(12 pi) + O(r^5), remainder about 1e-3 r^5
        for r in (0.1, 0.2, 0.3):
            gap = abs(lune_fraction_closed_2d(r)
                      - (2.0 * r / np.pi - r**3 / (12.0 * np.pi)))
            assert gap < 2e-3 * r**5

    def test_domain(self):
        with pytest.raises(ValueError):
            lune_fraction_closed_2d(-0.1)
        with pytest.raises(ValueError):
            lune_fraction_closed_2d(2.1)


class TestHalfspaceMiss:
    def test_planar_closed_form(self):
        # d = 2 series telescopes to 2r/pi - r^2/4
        for r in np.linspace(0.0, 1.0, 21):
            assert halfspace_miss_series(2, r) == pytest.approx(
                2.0 * r / np.pi - r * r / 4.0, abs=1e-14)

    def test_pinned_value(self):
        assert halfspace_miss_series(2, 0.5) == pytest.approx(
            1.0 / np.pi - 1.0 / 16.0, abs=1e-15)

    def test_degenerate_line(self):
        assert halfspace_miss_series(1, 0.3) == pytest.approx(0.6)
        assert halfspace_miss_quadrature(1, 0.3) == pytest.approx(0.6)

    def test_series_equals_quadrature(self):
        for d in range(2, 7):
            for r in np.linspace(0.1, 0.9, 9):
                assert abs(halfspace_miss_series(d, r)
                           - halfspace_miss_quadrature(d, r)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_series_equals_quadrature_at_small_radii(self, d):
        # the integrand is the depth law's cdf, which keeps its relative
        # precision where 1 - (1 - r cos a)^d would cancel
        for r in (1e-12, 1e-8, 1e-4):
            series = halfspace_miss_series(d, r)
            assert abs(series - halfspace_miss_quadrature(d, r)) <= 1e-14 * series

    def test_zero_at_origin(self):
        for d in range(1, 7):
            assert halfspace_miss_series(d, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            halfspace_miss_series(2, -0.1)
        with pytest.raises(ValueError):
            halfspace_miss_series(2, 1.1)

    def test_series_dimension_range(self):
        # d = 60 is the last d whose alternating sum keeps the 1e-9 agreement
        # with the quadrature; the cancellation grows with d
        for r in np.linspace(0.0, 1.0, 11):
            assert abs(halfspace_miss_series(60, r)
                       - halfspace_miss_quadrature(60, r)) < 1e-9
        for d in (61, 200, 400):
            with pytest.raises(ValueError, match="series needs 1 <= d <= 60"):
                halfspace_miss_series(d, 0.5)

    def test_quadrature_dimension_range(self):
        # the weight at r = 1 approaches 1/2 - 1/sqrt(2 pi d) as d grows
        for d in (400, 10_000):
            gap = (0.5 - halfspace_miss_quadrature(d, 1.0)) * np.sqrt(2.0 * np.pi * d)
            assert gap == pytest.approx(1.0, abs=1e-2 if d == 400 else 1e-3)
        with pytest.raises(ValueError, match="quadrature needs 1 <= d <= 10000"):
            halfspace_miss_quadrature(10_001, 0.5)


class TestAngularBetaCoefficient:
    def test_gamma_identity(self):
        # int_0^{pi/2} cos^k sin^(d-2) = G((d-1)/2) G((k+1)/2) / (2 G((k+d)/2))
        for d in range(2, 9):
            for k in range(0, 9):
                val, _ = integrate.quad(
                    lambda a: np.cos(a) ** k * np.sin(a) ** (d - 2),
                    0.0, np.pi / 2.0, epsabs=1e-13)
                closed = (special.gamma((d - 1) / 2.0)
                          * special.gamma((k + 1) / 2.0)
                          / (2.0 * special.gamma((k + d) / 2.0)))
                assert val == pytest.approx(closed, rel=1e-9)


class TestUniformWeights:
    def test_halfspace_planar_pin(self):
        r = np.linspace(0.0, 1.0, 21)
        assert np.allclose(halfspace_uniform_weight(2, r), np.pi * r * r / 4.0,
                           atol=1e-12)

    def test_halfspace_domain(self):
        with pytest.raises(ValueError):
            halfspace_uniform_weight(1, 0.5)
        with pytest.raises(ValueError):
            halfspace_uniform_weight(2, -0.2)

    def test_cone_right_angle_is_halfspace(self):
        r = np.linspace(0.0, 1.0, 21)
        assert np.allclose(cone_uniform_weight(np.pi / 2.0, r),
                           np.pi * r * r / 4.0, atol=1e-12)

    def test_cone_domain(self):
        with pytest.raises(ValueError):
            cone_uniform_weight(0.0, 0.1)
        with pytest.raises(ValueError):
            cone_uniform_weight(np.pi, 0.1)
        with pytest.raises(ValueError):
            cone_uniform_weight(np.pi / 3.0, 0.95)  # beyond sin(beta)


class TestMissWeightMC:
    N = 200_000

    def test_ball_oracle(self, rng):
        r = 0.4
        est, se = miss_weight_mc(BALL, uniform_radial_law(2), 2, r, self.N,
                                 rng.spawn("mc-ball"))
        assert_close_sigma(est, lune_fraction(2, r), se, label="ball weight")

    def test_halfspace_uniform_oracle(self, rng):
        r = 0.4
        est, se = miss_weight_mc(HALF_SPACE, uniform_radial_law(2), 2, r,
                                 self.N, rng.spawn("mc-hsu"))
        assert_close_sigma(est, np.pi * r * r / 4.0, se,
                           label="half-space uniform weight")

    def test_halfspace_depth_oracle(self, rng):
        r = 0.4
        est, se = miss_weight_mc(HALF_SPACE, depth_radial_law(2), 2, r,
                                 self.N, rng.spawn("mc-hsd"))
        assert_close_sigma(est, halfspace_miss_series(2, r), se,
                           label="half-space depth weight")

    def test_cone_oracle(self, rng):
        beta, r = 2.0 * np.pi / 5.0, 0.4
        est, se = miss_weight_mc(cone(beta), uniform_radial_law(2), 2, r,
                                 self.N, rng.spawn("mc-cone"))
        assert_close_sigma(est, cone_uniform_weight(beta, r), se,
                           label="cone weight")

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            miss_weight_mc(cone(1.0), uniform_radial_law(3), 3, 0.2, 100, rng)
        with pytest.raises(ValueError):
            miss_weight_mc(BALL, uniform_radial_law(2), 2, 1.5, 100, rng)
        with pytest.raises(ValueError):
            miss_weight_mc(BALL, uniform_radial_law(2), 2, 0.5, 1, rng)


class TestInvertIncreasing:
    def test_round_trip(self):
        fn = lambda x: np.asarray(x) ** 3
        x = np.linspace(0.0, 2.0, 17)
        assert np.allclose(invert_increasing(fn, fn(x), 0.0, 2.0), x,
                           atol=1e-10)
        assert invert_increasing(fn, 0.125, 0.0, 2.0) == pytest.approx(
            0.5, abs=1e-10)

    def test_lune_round_trip(self):
        y = 0.37
        r = invert_increasing(lambda r: lune_fraction(2, r), y, 0.0, 1.0)
        assert lune_fraction(2, r) == pytest.approx(y, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            invert_increasing(lambda x: x, 3.0, 0.0, 2.0)

    def test_empty_target(self):
        out = invert_increasing(lambda x: x, np.empty(0), 0.0, 2.0)
        assert out.shape == (0,)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_newton_on_the_lune(self, d):
        # the exact sampler's targets at four intensities, plus y = 0 and
        # the last float below w(1)
        weight, slope = _miss_weight(d, None)
        top = lune_fraction(d, 1.0)
        calls = []

        def counted(r):
            calls.append(1)
            return weight(r)
        for lam in (1.0, 10.0, 1e3, 1e6):
            y = RngStream(3, int(lam)).gen.exponential(size=4000) / (lam * unit_ball_volume(d))
            for target in (y[y < top], np.array([0.0, np.nextafter(top, 0.0)])):
                calls.clear()
                x = invert_increasing(counted, target, 0.0, 1.0, slope)
                assert len(calls) <= 8, (lam, len(calls))
                bisected = invert_increasing(weight, target, 0.0, 1.0)
                assert np.max(np.abs(x - bisected)) < 2e-12
                assert np.max(np.abs(weight(x) - target)) < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_target_at_the_range_end(self, d):
        # y = w(1) is answered with 1.0 at once; iterating on it, Newton
        # steps land a rounding error past 1 and the loop bisects
        weight, slope = _miss_weight(d, None)
        top = lune_fraction(d, 1.0)
        calls = []

        def counted(r):
            calls.append(1)
            return weight(r)

        def evaluations(target):
            calls.clear()
            x = invert_increasing(counted, target, 0.0, 1.0, slope)
            return x, len(calls)

        x_end, n_end = evaluations(top)
        x_below, n_below = evaluations(0.999999 * top)
        assert x_end == 1.0 and x_below < 1.0
        assert n_end <= n_below, (n_end, n_below)

    def test_range_ends_among_inner_targets(self):
        fn = lambda x: np.asarray(x) ** 3
        y = np.array([8.0, 0.125, 0.0, 1.0])
        x = invert_increasing(fn, y, 0.0, 2.0)
        assert x[0] == 2.0 and x[2] == 0.0
        assert np.allclose(x[[1, 3]], [0.5, 1.0], atol=1e-10)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_lune_slope(self, d):
        r = np.linspace(0.01, 1.99, 199)
        h = 1e-6
        diff = (lune_fraction(d, r + h) - lune_fraction(d, r - h)) / (2.0 * h)
        assert np.allclose(_miss_weight(d, None)[1](r), diff, rtol=1e-7, atol=1e-9)

    def test_no_slope_bisects(self):
        # a custom weight has no slope, so it is bisected to _ROOT_TOL
        weight, slope = _miss_weight(2, lambda r: np.asarray(r) ** 2)
        assert slope is None
        assert invert_increasing(weight, 0.25, 0.0, 1.0, slope) == pytest.approx(0.5, abs=1e-12)


class TestExactSampler:
    def test_zero_intensity(self, rng):
        assert np.array_equal(sample_radius_exact(2, 0.0, 50, rng), np.ones(50))

    def test_ks_against_law(self, rng):
        n = 100_000
        sample = sample_radius_exact(2, 50.0, n, rng.spawn("exact-ks"))
        law = RadiusLaw(2, 50.0)
        # full-law KS including the (here negligible) atom
        assert ks_statistic(sample, law.cdf) < 1.36 / np.sqrt(n)
        # transformed values are truncated unit exponentials
        t = law.transform(sample)
        top = law.transform(1.0)
        assert np.all(t <= top + 1e-9)

    def test_atom_frequency(self, rng):
        n, lam = 100_000, 5.0
        sample = sample_radius_exact(2, lam, n, rng.spawn("exact-atom"))
        assert sample.max() <= 1.0
        atom = RadiusLaw(2, lam).atom_mass()
        freq = np.mean(sample == 1.0)
        assert_close_sigma(freq, atom, binomial_se(atom, n), label="atom mass")

    def test_survival_grid(self, rng):
        n, lam = 100_000, 5.0
        sample = sample_radius_exact(2, lam, n, rng.spawn("exact-grid"))
        law = RadiusLaw(2, lam)
        for r in np.linspace(0.02, 0.98, 20):
            s = float(law.survival(r))
            assert_close_sigma(np.mean(sample > r), s, binomial_se(s, n),
                               label=f"survival at r={r:.2f}")

    def test_two_sample_against_process(self, rng):
        exact = sample_radius_exact(2, 50.0, 30_000, rng.spawn("two-e"))
        process = sample_axis_radii(2, 50.0, uniform_radial_law(2), BALL,
                                    30_000, rng.spawn("two-p"))
        assert stats.ks_2samp(exact, process).pvalue > 0.01

    @pytest.mark.parametrize("lam", [1e9, 1e12])
    def test_large_intensity(self, lam):
        # radii of order 1/lam keep their relative precision: the
        # transformed sample is unit exponential, and each radius is the
        # root of the wedge-linear weight r / B(1/2, 3/2), whose relative
        # gap to the lune is of order r^2
        n = 20_000
        sample = sample_radius_exact(2, lam, n, RngStream(12, 1))
        law = RadiusLaw(2, lam)
        assert stats.kstest(law.transform(sample), "expon").statistic < 0.02
        y = RngStream(12, 1).gen.exponential(size=n) / (lam * np.pi)
        assert np.allclose(sample, y * special.beta(0.5, 1.5), rtol=1e-9, atol=0.0)

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            sample_radius_exact(2, -1.0, 10, rng)
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            sample_radius_exact(2, 1.0, -1, rng)


class TestRadiusLaw:
    def test_survival_shape(self):
        law = RadiusLaw(2, 10.0)
        r = np.linspace(0.0, 1.2, 61)
        s = law.survival(r)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s[r >= 1.0] == 0.0)
        assert np.allclose(law.cdf(r), 1.0 - s, atol=1e-15)

    @pytest.mark.parametrize("d, miss_fn", [
        (2, None), (3, None),
        (2, lambda r: halfspace_uniform_weight(2, r)),
        (3, lambda r: halfspace_uniform_weight(3, r)),
    ], ids=["ball-2", "ball-3", "halfspace-2", "halfspace-3"])
    def test_survival_off_the_unit_interval(self, d, miss_fn):
        # one below 0 and zero from 1 on, as for any radius in [0, 1]
        law = RadiusLaw(d, 10.0, miss_fn)
        r = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 3.0])
        s = law.survival(r)
        assert np.array_equal(s[[0, 1, 3, 4, 5]], [1.0, 1.0, 0.0, 0.0, 0.0])
        assert s[2] == np.exp(-10.0 * unit_ball_volume(d) * law.weight(0.5))
        assert 0.0 < s[2] < 1.0
        assert np.array_equal(law.cdf(r), 1.0 - s)
        for ri, si in zip(r, s):
            assert float(law.survival(ri)) == si

    def test_atom_is_left_limit(self):
        law = RadiusLaw(2, 5.0)
        assert law.atom_mass() == pytest.approx(
            float(law.survival(1.0 - 1e-12)), rel=1e-6)

    def test_custom_weight(self, rng):
        # half-space depth model through the same law object, using the
        # planar closed form of the miss series (vectorized for bisection)
        law = RadiusLaw(2, 20.0,
                        miss_fn=lambda r: 2.0 * np.asarray(r) / np.pi
                        - np.asarray(r) ** 2 / 4.0)
        n = 50_000
        sample = sample_radius_exact(2, 20.0, n, rng.spawn("law-hs"), law.miss_fn)
        r = 0.05
        s = float(law.survival(r))
        assert_close_sigma(np.mean(sample > r), s, binomial_se(s, n),
                           label="custom weight survival")

    def test_domain(self):
        with pytest.raises(ValueError):
            RadiusLaw(2, -1.0)
        with pytest.raises(ValueError):
            RadiusLaw(0, 1.0)


class TestExpectedVolume:
    def test_zero_intensity(self):
        for d in range(1, 5):
            assert expected_volume_quadrature(d, 0.0) == pytest.approx(
                unit_ball_volume(d), abs=1e-12)

    def test_planar_limit(self):
        assert 1e4**2 * expected_volume_quadrature(2, 1e4) == pytest.approx(
            np.pi / 2.0, rel=0.01)

    def test_spatial_limit(self):
        assert 1e4**3 * expected_volume_quadrature(3, 1e4) == pytest.approx(
            8.0 / np.pi**2, rel=0.02)

    def test_gap_decreases(self):
        for d in (2, 3):
            const = asymptotic_volume_constant(d)
            gaps = [abs(lam**d * expected_volume_quadrature(d, lam) - const)
                    / const for lam in (1e2, 1e3, 1e4)]
            assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_second_order_rate(self, d):
        # lam^d E|I| = C_d (1 + a_d / lam^2 + O(lam^-4)), with a_d =
        # (d-1) d (d+1) (d+2) / (24 omega_{d-1}^2): E|I| must keep its
        # digits far below any fixed absolute scale for lam^2 times the
        # relative gap to resolve a_d
        a_d = (d - 1) * d * (d + 1) * (d + 2) / (24.0 * unit_ball_volume(d - 1) ** 2)
        const = asymptotic_volume_constant(d)
        for lam in (1e3, 1e4, 1e5):
            gap = lam**d * expected_volume_quadrature(d, lam) / const - 1.0
            assert lam**2 * gap == pytest.approx(a_d, rel=1e-4), lam

    def test_monotone_in_intensity(self):
        vols = [expected_volume_quadrature(2, lam)
                for lam in (0.0, 1.0, 10.0, 100.0, 1e4, 1e6)]
        assert all(a > b > 0.0 for a, b in zip(vols, vols[1:]))

    def test_halfspace_weight_closed_form(self):
        # with the uniform half-space weight the integral is elementary:
        # E|I| = (4 / (lam pi)) (1 - exp(-lam pi^2 / 4)) in the plane
        for lam in (1.0, 10.0, 100.0):
            closed = 4.0 / (lam * np.pi) * (1.0 - np.exp(-lam * np.pi**2 / 4.0))
            quad = expected_volume_quadrature(
                2, lam, miss_fn=lambda r: halfspace_uniform_weight(2, r))
            assert quad == pytest.approx(closed, rel=1e-9)


class TestAsymptoticConstant:
    def test_pinned_values(self):
        assert asymptotic_volume_constant(1) == pytest.approx(2.0, abs=1e-14)
        assert asymptotic_volume_constant(2) == pytest.approx(np.pi / 2.0,
                                                              abs=1e-14)
        assert asymptotic_volume_constant(3) == pytest.approx(8.0 / np.pi**2,
                                                              abs=1e-14)

    def test_large_dimension(self):
        # d = 37 is the last d whose constant fits in float64; check it
        # against the log-gamma form of d! omega_d / omega_{d-1}^d
        d = 37
        log_wd = lambda k: 0.5 * k * np.log(np.pi) - special.gammaln(0.5 * k + 1.0)
        log_const = special.gammaln(d + 1.0) + log_wd(d) - d * log_wd(d - 1)
        assert asymptotic_volume_constant(d) == pytest.approx(np.exp(log_const),
                                                              rel=1e-10)
        for d in (38, 60, 171):
            with pytest.raises(ValueError, match="1 <= d <= 37"):
                asymptotic_volume_constant(d)

    def test_weibull_moment_route(self):
        # d omega_d int t^(d-1) exp(-omega_{d-1} t) dt, evaluated numerically
        for d in (2, 3, 4):
            wd, wd1 = unit_ball_volume(d), unit_ball_volume(d - 1)
            val, _ = integrate.quad(
                lambda t: d * wd * t ** (d - 1) * np.exp(-wd1 * t), 0, np.inf)
            assert asymptotic_volume_constant(d) == pytest.approx(val, rel=1e-9)


class TestCroftonMoments:
    def test_planar_pins(self):
        m = crofton_moments(2)
        assert m.chord_rate == pytest.approx(2.0 / np.pi, abs=1e-14)
        assert m.typical_mean == pytest.approx(np.pi, abs=1e-12)
        assert m.moment_ratio == pytest.approx(np.pi**2 / 2.0, abs=1e-12)
        assert m.zero_cell_mean == pytest.approx(np.pi**3 / 2.0, abs=1e-11)

    def test_spatial_pins(self):
        m = crofton_moments(3)
        assert m.chord_rate == pytest.approx(0.5, abs=1e-14)
        assert m.typical_mean == pytest.approx(48.0 / np.pi, rel=1e-12)
        assert m.moment_ratio == pytest.approx(4.0 * np.pi**2 / 3.0, rel=1e-12)
        assert m.zero_cell_mean == pytest.approx(64.0 * np.pi, rel=1e-12)

    def test_zero_cell_identity(self):
        for d in range(2, 7):
            m = crofton_moments(d)
            assert m.zero_cell_mean == pytest.approx(
                m.moment_ratio * m.typical_mean, rel=1e-12)

    def test_chord_rate_mc(self, rng):
        # crossings of a fixed segment occur at rate chord_rate per length
        length = 2.0
        counts = segment_crossing_count(3, length, 2000, rng.spawn("chord3"))
        assert_close_sigma(counts.mean(), crofton_moments(3).chord_rate * length,
                           counts.std(ddof=1) / np.sqrt(counts.size),
                           label="spatial chord rate")

    def test_domain(self):
        with pytest.raises(ValueError):
            crofton_moments(1)
        # d = 128 is the last d whose zero-cell mean is a finite float64
        assert np.isfinite(astuple(crofton_moments(128))).all()
        for d in (129, 200, 400):
            with pytest.raises(ValueError, match="2 <= d <= 128"):
                crofton_moments(d)


class TestKsStatistic:
    def test_null_uniform(self, rng):
        u = rng.spawn("ks-null").gen.random(10_000)
        assert ks_statistic(u, lambda x: x) < 1.95 / np.sqrt(u.size)

    def test_degenerate_sample(self):
        assert ks_statistic(np.full(100, 0.99), lambda x: np.clip(x, 0, 1)) > 0.98

    def test_wrong_law_detected(self, rng):
        x = rng.spawn("ks-exp").gen.exponential(size=5000)
        assert ks_statistic(x, lambda t: np.clip(t, 0.0, 1.0)) > 0.3

    def test_matches_scipy(self, rng):
        x = rng.spawn("ks-scipy").gen.random(377)
        mine = ks_statistic(x, lambda t: t)
        ref = stats.kstest(x, "uniform").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(np.empty(0), lambda x: x)


class TestRadiusMomentVolume:
    def test_constant_radii(self):
        est, se = radius_moment_volume(2, np.ones(100))
        assert est == pytest.approx(np.pi, abs=1e-12)
        assert se == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            radius_moment_volume(2, np.array([1.0]))


class TestConsistencyTriangle:
    @pytest.mark.parametrize("lam,n", [(50.0, 100_000), (200.0, 40_000)])
    def test_three_routes_agree(self, lam, n, rng):
        # quadrature, exact-sampler moment, and process-sampler moment
        quad = expected_volume_quadrature(2, lam)
        exact = sample_radius_exact(2, lam, n, rng.spawn("tri-e", lam))
        est_e, se_e = radius_moment_volume(2, exact)
        assert_close_sigma(est_e, quad, se_e, label=f"exact route lam={lam}")
        process = sample_axis_radii(2, lam, uniform_radial_law(2), BALL, n,
                                    rng.spawn("tri-p", lam))
        est_p, se_p = radius_moment_volume(2, process)
        assert_close_sigma(est_p, quad, se_p, label=f"process route lam={lam}")
