"""Process sampling, radial laws, shell transport, discrete bounds."""
import numpy as np
import pytest
from scipy import special, stats

from randset.geomcore import unit_ball_volume
from randset.models import BALL, sample_intersection_model
from randset.ppp import (
    RngStream,
    axis_cosines,
    coupon_bound,
    coupon_empirical,
    depth_radial_law,
    poisson_log_tail_check,
    poisson_tail_crossover,
    poisson_total_variation,
    radial_law_from_cdf,
    sample_ball_uniform,
    sample_poisson_count,
    sample_shell,
    segmented_min,
    shell_depth_cdfs,
    stream_id_for,
    uniform_directions,
    uniform_radial_law,
)

from conftest import assert_close_sigma, binomial_se


class TestStreams:
    def test_reproducible(self):
        a = RngStream(5, 9).gen.random(16)
        b = RngStream(5, 9).gen.random(16)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = RngStream(5, 9).gen.random(16)
        b = RngStream(5, 10).gen.random(16)
        c = RngStream(6, 9).gen.random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_labels(self):
        root = RngStream(11)
        assert root.spawn("a", 1).stream_id == root.spawn("a", 1).stream_id
        ids = {root.spawn("a", 1).stream_id, root.spawn("a", 2).stream_id,
               root.spawn("b", 1).stream_id, root.spawn(1).stream_id,
               root.spawn(1.0).stream_id, root.spawn(0.5).stream_id,
               root.spawn(0.25).stream_id}
        assert len(ids) == 7

    def test_stream_id_stable(self):
        # keyed by value, not by interpreter hash randomization
        assert stream_id_for("x", 3, 0.5) == stream_id_for("x", 3, 0.5)
        assert stream_id_for("x", 3) != stream_id_for("x", 3, 0)


class TestRadialMeasures:
    def test_uniform_law(self):
        mu = uniform_radial_law(3)
        r = np.linspace(0.0, 1.0, 101)
        assert mu.cdf(0.0) == 0.0
        assert mu.cdf(1.0) == 1.0
        assert np.all(np.diff(mu.cdf(r)) >= 0.0)
        assert np.allclose(mu.inverse_cdf(mu.cdf(r)), r, atol=1e-10)

    def test_depth_law(self):
        mu = depth_radial_law(4)
        r = np.linspace(0.0, 1.0, 101)
        assert mu.cdf(0.0) == 0.0
        assert mu.cdf(1.0) == 1.0
        assert np.allclose(mu.cdf(r), 1.0 - (1.0 - r) ** 4, atol=1e-13)
        assert np.allclose(mu.inverse_cdf(mu.cdf(r)), r, atol=1e-10)

    def test_bisection_inverse(self):
        mu = radial_law_from_cdf("sq", lambda r: np.asarray(r) ** 2)
        assert mu.inverse_cdf(0.25) == pytest.approx(0.5, abs=1e-9)
        u = np.linspace(0.0, 1.0, 33)
        assert np.allclose(mu.cdf(mu.inverse_cdf(u)), u, atol=1e-9)


class TestPoissonCount:
    def test_zero_mean(self, rng):
        s = rng.spawn("pz")
        assert all(sample_poisson_count(0.0, s) == 0 for _ in range(100))

    def test_moments(self, rng):
        g = rng.spawn("pm").gen
        x = g.poisson(10.0, 100_000)
        assert abs(x.mean() - 10.0) < 0.1
        assert abs(x.var(ddof=1) - 10.0) < 0.3

    def test_large_mean(self, rng):
        s = rng.spawn("pl")
        draws = np.array([sample_poisson_count(1e6, s) for _ in range(1000)])
        assert np.all(np.isfinite(draws))
        assert 0.997 <= draws.mean() / 1e6 <= 1.003

    def test_domain(self, rng):
        with pytest.raises(ValueError):
            sample_poisson_count(-1.0, rng)
        with pytest.raises(ValueError):
            sample_poisson_count(np.nan, rng)


class TestProductProcess:
    """The ball model's pins: Poisson(lam * omega_d) points with iid radii
    from mu and uniform directions, the homogeneous process on the unit ball
    when mu is the uniform radial law."""

    def test_empty_at_zero(self, rng):
        m = sample_intersection_model(2, 0.0, uniform_radial_law(2), BALL, rng.spawn("e"))
        assert m.count == 0
        assert m.pin_dirs.shape == (0, 2)

    def test_uniform_radial_ks(self, rng):
        root = rng.spawn("prod-ks")
        pooled = []
        total = 0
        i = 0
        while total < 100_000:
            m = sample_intersection_model(2, 100.0, uniform_radial_law(2), BALL,
                                          root.spawn(i))
            pooled.append(m.pin_radii)
            total += m.count
            i += 1
        r = np.sort(np.concatenate(pooled))
        n = r.size
        emp = np.arange(1, n + 1) / n
        ks = np.max(np.abs(emp - r**2))
        assert ks < 0.01

    def test_depth_radial_tail(self, rng):
        root = rng.spawn("prod-tail")
        radii = []
        total = 0
        i = 0
        while total < 100_000:
            m = sample_intersection_model(2, 100.0, depth_radial_law(2), BALL,
                                          root.spawn(i))
            radii.append(m.pin_radii)
            total += m.count
            i += 1
        r = np.concatenate(radii)
        frac = np.mean(r > 0.9)
        assert_close_sigma(frac, 0.01, binomial_se(0.01, r.size),
                           label="depth-law tail fraction")

    def test_region_and_count(self, rng):
        root = rng.spawn("prod-count")
        counts = []
        for i in range(400):
            m = sample_intersection_model(3, 40.0, uniform_radial_law(3), BALL,
                                          root.spawn(i))
            if m.count:
                pins = m.pin_radii[:, None] * m.pin_dirs
                assert np.linalg.norm(pins, axis=1).max() <= 1.0 + 1e-12
            counts.append(m.count)
        mean = 40.0 * unit_ball_volume(3)
        assert_close_sigma(np.mean(counts), mean,
                           np.sqrt(mean / len(counts)), label="product count")


class TestShellSampling:
    def test_mean_count(self, rng):
        root = rng.spawn("shell-count")
        counts = [sample_shell(2, 1000.0, 0.1, "inner", root.spawn(i)).count
                  for i in range(200)]
        mean = 1000.0 * np.pi * (1.0 - 0.81)
        assert_close_sigma(np.mean(counts), mean, np.sqrt(mean / len(counts)),
                           label="inner shell count")

    def test_regions(self, rng):
        for side, lo, hi, region in (("inner", 0.9, 1.0, "shell-inner"),
                                     ("outer", 1.0, 1.1, "shell-outer"),
                                     ("both", 0.9, 1.1, "annulus")):
            s = sample_shell(2, 3000.0, 0.1, side, rng.spawn("reg", side))
            assert s.region == region
            norms = np.linalg.norm(s.points, axis=1)
            assert norms.min() >= lo - 1e-12
            assert norms.max() <= hi + 1e-12

    def test_empty_at_zero(self, rng):
        assert sample_shell(2, 0.0, 0.1, "inner", rng.spawn("z")).count == 0

    def test_domain(self, rng):
        for eps in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                sample_shell(2, 1.0, eps, "inner", rng)
        with pytest.raises(ValueError):
            sample_shell(2, 1.0, 0.1, "sideways", rng)

    def test_disjoint_subshell_independence_and_void(self, rng):
        # counts in the two radial halves of one sample are uncorrelated,
        # and the inner half is empty with probability exp(-lam |A|)
        root = rng.spawn("shell-ind")
        reps = 10_000
        lam, eps = 8.0, 0.2
        n_a = np.empty(reps)
        n_b = np.empty(reps)
        for i in range(reps):
            s = sample_shell(2, lam, eps, "inner", root.spawn(i))
            r = np.linalg.norm(s.points, axis=1)
            n_a[i] = np.count_nonzero(r < 0.9)
            n_b[i] = s.count - n_a[i]
        corr = np.corrcoef(n_a, n_b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(reps)
        vol_a = np.pi * (0.81 - 0.64)
        p_void = np.exp(-lam * vol_a)
        freq = np.mean(n_a == 0)
        assert_close_sigma(freq, p_void, binomial_se(p_void, reps),
                           label="void probability")

    def test_ball_uniform(self, rng):
        s = sample_ball_uniform(2, 500.0, rng.spawn("bu"), rmax=0.5)
        norms = np.linalg.norm(s.points, axis=1)
        assert norms.max() <= 0.5 + 1e-12
        # radial law r^2 scaled to rmax
        ks = stats.kstest(norms, lambda r: (r / 0.5) ** 2).statistic
        assert ks < 1.95 / np.sqrt(s.count)


def folded_depths(eps, lam, rng):
    """Depths |1 - |x|| of a planar annulus sample, as the coupling takes them."""
    pts = sample_shell(2, lam, eps, "both", rng).points
    return np.clip(np.abs(np.linalg.norm(pts, axis=1) - 1.0), 0.0, eps)


class TestShellDepthTransport:
    def test_cdf_endpoints(self):
        c = shell_depth_cdfs(0.05, 2)
        assert c.inner(0.0) == 0.0
        assert c.inner(0.05) == pytest.approx(1.0, abs=1e-12)
        assert c.folded(0.0) == 0.0
        assert c.folded(0.05) == pytest.approx(1.0, abs=1e-12)

    def test_planar_folded_is_uniform(self):
        # two-sided fold of a planar annulus has exactly uniform depth
        c = shell_depth_cdfs(0.01, 2)
        w = np.linspace(0.0, 0.01, 101)
        assert np.allclose(c.folded(w), w / 0.01, atol=1e-12)

    def test_inverse_round_trips(self):
        c = shell_depth_cdfs(0.02, 3)
        w = np.linspace(0.0, 0.02, 201)
        assert np.allclose(c.inner_inverse(c.inner(w)), w, atol=1e-12)

    def test_transport_sweep(self):
        # sup_w |w - T(w)| <= C eps^2 with C <= 2, uniformly in eps
        for d in (2, 3):
            for eps in (1e-2, 1e-3, 1e-4):
                c = shell_depth_cdfs(eps, d)
                w = np.linspace(0.0, eps, 2001)
                sup = np.max(np.abs(w - c.transport(w)))
                assert sup <= 2.0 * eps * eps

    def test_coupled_pair_bound(self, rng):
        # sampled folded depths move by at most 2 eps^2 under the coupling
        eps = 1e-2
        c = shell_depth_cdfs(eps, 2)
        w = folded_depths(eps, 8e4, rng.spawn("pair"))
        assert w.size > 9_000
        assert np.max(np.abs(w - c.transport(w))) <= 2.0 * eps * eps

    def test_transported_law_matches_inner(self, rng):
        # the depths of an annulus sample follow the folded law, and the
        # transport pushes them onto the inner law
        eps = 0.05
        c = shell_depth_cdfs(eps, 2)
        w = folded_depths(eps, 8e4, rng.spawn("law"))
        assert w.size > 45_000
        crit = 1.95 / np.sqrt(w.size)
        assert stats.kstest(w, lambda t: c.folded(t)).statistic < crit
        assert stats.kstest(c.transport(w), lambda t: c.inner(t)).statistic < crit

    def test_domain(self):
        c = shell_depth_cdfs(0.01, 2)
        with pytest.raises(ValueError):
            c.inner(-0.002)
        with pytest.raises(ValueError):
            c.inner(0.02)
        with pytest.raises(ValueError):
            c.inner_inverse(1.5)
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError):
                shell_depth_cdfs(eps, 2)


class TestCouponBound:
    def test_pinned_values(self):
        assert coupon_bound(6, 1.0 / 6.0, np.e**10) == pytest.approx(
            6.0 * (5.0 / 6.0) ** 10, rel=1e-12)
        assert coupon_bound(6, 1.0 / 6.0, np.e**100) == pytest.approx(
            6.0 * (5.0 / 6.0) ** 100, rel=1e-10)
        assert coupon_bound(1, 1.0, 50.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            coupon_bound(0, 0.5, 10.0)
        with pytest.raises(ValueError):
            coupon_bound(6, 0.2, 10.0)  # a_star > 1/k
        with pytest.raises(ValueError):
            coupon_bound(6, 0.0, 10.0)
        with pytest.raises(ValueError):
            coupon_bound(6, 1.0 / 6.0, 1.0)

    def test_single_category(self, rng):
        assert coupon_empirical(1, [1.0], 1, 200, rng.spawn("c1")) == 0.0

    def test_inclusion_exclusion_oracle(self, rng):
        # P(T > t) for 6 uniform coupons by inclusion-exclusion
        k, t, reps = 6, 30, 40_000
        j = np.arange(1, k + 1)
        exact = np.sum((-1.0) ** (j + 1) * special.comb(k, j)
                       * (1.0 - j / k) ** t)
        est = coupon_empirical(k, np.full(k, 1.0 / k), t, reps,
                               rng.spawn("coupon"))
        assert_close_sigma(est, exact, binomial_se(exact, reps),
                           label="coupon inclusion-exclusion")
        # and the analytic bound dominates at lam = e^t
        bound = coupon_bound(k, 1.0 / k, float(np.exp(t)))
        assert est <= bound + 3.0 * binomial_se(exact, reps)

    def test_invalid_distribution(self, rng):
        with pytest.raises(ValueError):
            coupon_empirical(3, [0.5, 0.5], 5, 10, rng)
        with pytest.raises(ValueError):
            coupon_empirical(2, [0.7, 0.7], 5, 10, rng)


class TestPoissonBounds:
    def test_zero_delta(self):
        assert poisson_total_variation(5.0, 0.0) == 0.0
        assert poisson_tail_crossover(5.0, 0.0) == 0.0

    def test_bounded_by_delta(self):
        for mu in (0.5, 2.0, 5.0, 20.0, 100.0):
            for delta in (0.01, 0.1, 1.0):
                tv = poisson_total_variation(mu, delta)
                assert 0.0 < tv <= delta

    def test_crossover_identity(self):
        # TV between Poissons equals the CDF gap at the single pmf
        # sign change; independent route through the crossover index
        # (at mu = 0 the sign changes right after k = 0)
        for mu in (0.0, 0.5, 2.0, 5.0, 20.0, 100.0):
            for delta in (0.01, 0.1, 1.0):
                assert poisson_total_variation(mu, delta) == pytest.approx(
                    poisson_tail_crossover(mu, delta), abs=1e-12)
        # the summed pmfs lose a little accuracy as mu grows
        for mu in (1e4, 1e5, 1e6, 1e7):
            for delta in (0.01, 1.0, 100.0):
                assert poisson_total_variation(mu, delta) == pytest.approx(
                    poisson_tail_crossover(mu, delta), abs=1e-9)

    @pytest.mark.parametrize("mu", [1e12, 1e15])
    def test_crossover_large_mean(self, mu):
        # a unit shift of a large mean: TV -> delta / sqrt(2 pi mu); the
        # ratio (mu + delta) / mu rounded the crossover to 0 at 1e12
        assert poisson_tail_crossover(mu, 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0 * np.pi * mu), rel=1e-6)

    def test_pinned_example(self):
        tv = poisson_total_variation(5.0, 0.1)
        assert tv <= 0.1
        assert tv == pytest.approx(0.0175409, abs=2e-6)

    def test_domain(self):
        for route in (poisson_total_variation, poisson_tail_crossover):
            for bad in (-1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="mu must be finite and >= 0"):
                    route(bad, 0.1)
                with pytest.raises(ValueError, match="delta must be finite and >= 0"):
                    route(1.0, bad)
            # mu + delta rounds to mu
            with pytest.raises(ValueError, match="below the float resolution of mu"):
                route(1e16, 1.0)
            assert route(1e16, 0.0) == 0.0
        with pytest.raises(ValueError, match="needs mu <= 1e"):
            poisson_total_variation(1.1e7, 1.0)

    def test_log_tail_check(self):
        prob, ok = poisson_log_tail_check(1e6, 2)
        assert ok
        assert prob < 1e-6
        # independent evaluation of the same tail by direct log-pmf summation
        lam = 1e6
        eps = np.log(lam) ** 2 / lam
        m = np.pi * ((1.0 + eps) ** 2 - (1.0 - eps) ** 2) * lam
        k = np.arange(0, int(np.ceil(np.log(lam))))
        manual = np.exp(-m + k * np.log(m) - special.gammaln(k + 1)).sum()
        assert prob == pytest.approx(manual, rel=1e-9)


class TestDirectionsAndCosines:
    def test_unit_norms(self, rng):
        v = uniform_directions(4, 2000, rng.spawn("dir"))
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.abs(v.mean(axis=0)).max() < 3.0 / np.sqrt(4 * 2000)

    def test_one_dimensional(self, rng):
        v = uniform_directions(1, 500, rng.spawn("dir1"))
        assert set(np.unique(v)) == {-1.0, 1.0}

    def test_axis_cosine_laws(self, rng):
        n = 100_000
        crit = 1.95 / np.sqrt(n)
        # d=3: exactly uniform on [-1, 1]
        u3 = axis_cosines(3, n, rng.spawn("ax3"))
        assert stats.kstest(u3, lambda t: (t + 1.0) / 2.0).statistic < crit
        # d=2: arcsine law
        u2 = axis_cosines(2, n, rng.spawn("ax2"))
        assert stats.kstest(
            u2, lambda t: 1.0 - np.arccos(np.clip(t, -1, 1)) / np.pi
        ).statistic < crit
        # d=5: symmetric Beta(2,2) stretched to [-1, 1]
        u5 = axis_cosines(5, n, rng.spawn("ax5"))
        assert stats.kstest(
            u5, lambda t: special.betainc(2.0, 2.0, (np.clip(t, -1, 1) + 1) / 2)
        ).statistic < crit


class TestSegmentedMin:
    def test_basic(self):
        out = segmented_min(np.array([3.0, 1.0, 4.0, 1.0, 5.0]),
                            np.array([2, 0, 3]), 9.0)
        assert np.array_equal(out, [1.0, 9.0, 1.0])

    def test_all_empty(self):
        out = segmented_min(np.empty(0), np.array([0, 0]), 7.0)
        assert np.array_equal(out, [7.0, 7.0])
