"""Acceptance gate: one test per headline quantitative claim.

Each test checks one end-to-end numerical target at its stated tolerance
and prints a single summary line; `pytest -v` therefore reads as a
pass/fail scorecard of the package's core claims.
"""
import numpy as np
import pytest
from scipy import stats

from randset.analytics import (
    RadiusLaw,
    asymptotic_volume_constant,
    crofton_moments,
    expected_volume_quadrature,
    halfspace_miss_quadrature,
    halfspace_miss_series,
    radius_moment_volume,
    sample_radius_exact,
)
from randset.geomcore import (
    cap_hyp_distance,
    direction_grid,
    lune_fraction,
    unit_ball_volume,
    wedge_volume,
)
from randset.models import (
    BALL,
    HALF_SPACE,
    coupling_transform,
    crofton_cell,
    interval_intersection_stats,
    meeting_count_mc,
    sample_axis_radii,
    segment_crossing_count,
    shell_containment_indicator,
)
from randset.ppp import (
    RngStream,
    coupon_bound,
    coupon_empirical,
    poisson_total_variation,
    sample_shell,
    uniform_radial_law,
)

from conftest import MASTER_SEED


@pytest.fixture
def arng():
    return RngStream(MASTER_SEED, 999)


def report(line):
    print(f"ACCEPT {line}")


def test_criterion_01_planar_volume_limit(arng):
    # lam^2 E|I| -> pi/2: quadrature at lam = 1e4 within 1%, and the
    # direct simulation agrees with the quadrature at lam = 200 within 3 sigma
    lam = 1e4
    scaled = lam**2 * expected_volume_quadrature(2, lam)
    target = np.pi / 2.0
    assert abs(scaled / target - 1.0) < 0.01, (scaled, target)

    lam_mc, n = 200.0, 100_000
    radii = sample_axis_radii(2, lam_mc, uniform_radial_law(2), BALL, n,
                              arng.spawn("c1"))
    est, se = radius_moment_volume(2, radii)
    quad = expected_volume_quadrature(2, lam_mc)
    assert abs(est - quad) <= 3.0 * se, (est, quad, se)
    report(f"planar volume limit: {scaled:.5f} vs pi/2={target:.5f} (1%), "
           f"MC gap {(est - quad) / se:+.2f} sigma -> PASS")


def test_criterion_02_spatial_volume_limit():
    lam = 1e4
    scaled = lam**3 * expected_volume_quadrature(3, lam)
    target = 8.0 / np.pi**2
    assert abs(scaled / target - 1.0) < 0.02, (scaled, target)
    report(f"spatial volume limit: {scaled:.5f} vs 8/pi^2={target:.5f} (2%) -> PASS")


def test_criterion_03_radius_law_exponential(arng):
    # lam*omega_2*F(R) of the simulated model is Exp(1) (truncated at the
    # atom image): KS < 0.01 at N = 1e5; the exact sampler agrees with the
    # process route by two-sample KS
    lam, n = 200.0, 100_000
    law = RadiusLaw(2, lam)
    process = sample_axis_radii(2, lam, uniform_radial_law(2), BALL, n,
                                arng.spawn("c3p"))
    z = law.transform(process)
    zmax = law.transform(1.0)
    ks = stats.kstest(
        z, lambda t: (1.0 - np.exp(-np.minimum(t, zmax))) / -np.expm1(-zmax)
    ).statistic
    assert ks < 0.01, ks
    exact = sample_radius_exact(2, lam, n, arng.spawn("c3e"))
    p = stats.ks_2samp(process, exact).pvalue
    assert p > 0.01, p
    report(f"radius law: KS={ks:.5f} < 0.01, two-sample p={p:.3f} > 0.01 -> PASS")


def test_criterion_04_truncation_and_atom(arng):
    # the transformed radius never exceeds its truncation point, and the
    # atom at R = 1 has the exact mass exp(-lam omega_2 F(1))
    lam, n = 5.0, 1_000_000
    sample = sample_radius_exact(2, lam, n, arng.spawn("c4"))
    law = RadiusLaw(2, lam)
    z = law.transform(sample)
    top = float(law.transform(1.0))
    exceed = int(np.count_nonzero(z > top + 1e-9))
    assert exceed == 0, exceed
    atom = law.atom_mass()
    freq = float(np.mean(sample == 1.0))
    se = np.sqrt(atom * (1.0 - atom) / n)
    assert abs(freq - atom) <= 3.0 * se, (freq, atom, se)
    report(f"truncation: 0 of {n} exceed; atom {freq:.2e} vs {atom:.2e} "
           f"({(freq - atom) / se:+.2f} sigma) -> PASS")


def test_criterion_05_halfspace_weight_routes():
    # series and quadrature agree to 1e-9; the planar series collapses to
    # the closed form to 1e-12
    worst = max(abs(halfspace_miss_series(d, r) - halfspace_miss_quadrature(d, r))
                for d in range(2, 7) for r in np.linspace(0.1, 0.9, 9))
    assert worst < 1e-9, worst
    worst2 = max(abs(halfspace_miss_series(2, r) - (2.0 * r / np.pi - r * r / 4.0))
                 for r in np.linspace(0.0, 1.0, 81))
    assert worst2 < 1e-12, worst2
    report(f"half-space weight: series-vs-quad {worst:.1e} < 1e-9, "
           f"planar closed form {worst2:.1e} < 1e-12 -> PASS")


def test_criterion_06_halfspace_volume_limit(arng):
    # lam E|I| for the uniform pinned half-space model in the plane is
    # within 5% of 4/pi at lam = 1000 (1e4 MC replicates)
    lam, n = 1000.0, 10_000
    radii = sample_axis_radii(2, lam, uniform_radial_law(2), HALF_SPACE, n,
                              arng.spawn("c6"))
    est, se = radius_moment_volume(2, radii)
    target = 4.0 / np.pi
    assert abs(lam * est / target - 1.0) < 0.05, (lam * est, target)
    report(f"half-space volume: lam*E|I|={lam * est:.4f} vs 4/pi={target:.4f} "
           f"(5%) -> PASS")


def test_criterion_07_crofton_tessellation(arng):
    # zero-cell mean area and moment ratio within 5% over 1e4 cells;
    # classical segment crossings at rate 2*length within 3 sigma
    root = arng.spawn("c7")
    n = 10_000
    vols = np.array([crofton_cell(2, root.spawn("cell", i)).volume
                     for i in range(n)])
    m = crofton_moments(2)
    zero_hat = vols.mean()
    assert abs(zero_hat / m.zero_cell_mean - 1.0) < 0.05, zero_hat

    length = 3.0
    crossings = segment_crossing_count(2, length, 64_000, root.spawn("seg"))
    chord_hat = crossings.mean() / length
    typical_hat = (2.0 / chord_hat) ** 2 / np.pi
    ratio_hat = zero_hat / typical_hat
    assert abs(ratio_hat / m.moment_ratio - 1.0) < 0.05, ratio_hat

    # the classical rate 2*pi on the segment is rate 2 on pi times it
    classical = segment_crossing_count(2, np.pi * length, 3000, root.spawn("cl"))
    se = classical.std(ddof=1) / np.sqrt(classical.size)
    gap = classical.mean() - 2.0 * length
    assert abs(gap) <= 3.0 * se, (classical.mean(), 2.0 * length, se)
    report(f"crofton: zero cell {zero_hat:.3f} vs {m.zero_cell_mean:.3f}, "
           f"ratio {ratio_hat:.3f} vs {m.moment_ratio:.3f} (5%), "
           f"crossings {gap / se:+.2f} sigma -> PASS")


def test_criterion_08_coupling_rate(arng):
    # scaled tessellation-to-model Hausdorff distance: the median of
    # lam*d_H strictly decreases over lam = 1e3, 3e3, 1e4 (200 reps each);
    # the wrap-around diagnostic stays under 1% of rays; the intersection
    # stays in the 2 log^2(lam)/lam shell at least 95% of the time
    root = arng.spawn("c8")
    grid = direction_grid(2, 1024)
    medians = []
    for lam in (1e3, 3e3, 1e4):
        eps = np.log(lam) ** 2 / (2.0 * lam)
        h = np.empty(200)
        flags = np.empty(200)
        contained = 0
        for i in range(200):
            r = root.spawn(lam, i)
            tess = sample_shell(2, lam / 2.0, eps, "both", r.spawn("t"))
            out = coupling_transform(tess.points, lam, eps, r.spawn("b"), grid)
            h[i] = out.hausdorff_scaled
            flags[i] = out.tess_cell.flagged_fraction
            contained += shell_containment_indicator(2, lam, r.spawn("c"), grid)
        medians.append(float(np.median(h)))
        if lam == 1e4:
            assert flags.mean() < 0.01, flags.mean()
            assert contained / 200.0 >= 0.95, contained
    assert medians[0] > medians[1] > medians[2], medians
    report(f"coupling: medians {medians[0]:.4f} > {medians[1]:.4f} > "
           f"{medians[2]:.4f}, flags ok, containment ok -> PASS")


def test_criterion_09_interval_warmup(arng):
    # lam |U| has mean 2 and variance 2 in the limit; endpoints decouple
    lam, n = 100.0, 100_000
    s = interval_intersection_stats(lam, n, arng.spawn("c9"))
    length = lam * (s["hi"] - s["lo"])
    se_mean = length.std(ddof=1) / np.sqrt(n)
    assert abs(s["scaled_length_mean"] - 2.0) <= 3.0 * se_mean
    m4 = np.mean((length - length.mean()) ** 4)
    se_var = np.sqrt(max(m4 - length.var(ddof=1) ** 2, 0.0) / n)
    assert abs(s["scaled_length_var"] - 2.0) <= 3.0 * se_var
    assert abs(s["endpoint_corr"]) <= 3.0 / np.sqrt(n)
    report(f"interval warmup: mean {s['scaled_length_mean']:.4f}, "
           f"var {s['scaled_length_var']:.4f}, corr {s['endpoint_corr']:+.4f} -> PASS")


def test_criterion_10_meeting_counts(arng):
    # boundaries meeting the eps-ball: S_2 lam eps, 2 lam eps, 2 S_2 lam eps
    lam, eps, reps = 1e4, 1e-3, 4000
    targets = {
        "boolean": 2.0 * np.pi * lam * eps,
        "hyperplane-tess": 2.0 * lam * eps,
        "sphere-tess": 4.0 * np.pi * lam * eps,
    }
    lines = []
    for model, asym_target in targets.items():
        mean, se, asym = meeting_count_mc(model, 2, lam, eps, reps,
                                          arng.spawn("c10", model))
        assert asym == pytest.approx(asym_target, rel=1e-12)
        # first-order bias at eps = 1e-3 is below 0.1% of the target
        assert abs(mean - asym) <= 3.0 * se + 1e-3 * asym, (model, mean, asym)
        lines.append(f"{model} {mean:.2f}~{asym:.2f}")
    report("meeting counts: " + ", ".join(lines) + " -> PASS")


def test_criterion_11_bound_suite(arng):
    # every analytic bound dominates its empirical or exact counterpart
    root = arng.spawn("c11")
    # coupon-collector arc bound at K = 6 over a spread of horizons
    for t in (5, 10, 15, 20, 25, 30):
        reps = 20_000
        emp = coupon_empirical(6, np.full(6, 1.0 / 6.0), t, reps,
                               root.spawn("coupon", t))
        bound = coupon_bound(6, 1.0 / 6.0, float(np.exp(t)))
        se = np.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps)
        assert emp <= bound + 3.0 * se, (t, emp, bound)
    # Poisson total variation never exceeds the intensity gap
    for mu in (0.5, 2.0, 5.0, 20.0, 100.0):
        for delta in (0.01, 0.1, 1.0):
            assert poisson_total_variation(mu, delta) <= delta
    # spherical cap-to-plane defect is below delta^2
    for d in np.linspace(1e-4, 0.5, 200):
        assert cap_hyp_distance(d) <= d * d
    # wedge approximation of the lune: cubic error bound with 5% slack
    for dim in (1, 2, 3, 4):
        cap = 1.05 * (dim - 1) * unit_ball_volume(dim - 1) / 16.0
        for r in np.linspace(0.0, 0.3, 31):
            gap = abs(wedge_volume(dim, r)
                      - unit_ball_volume(dim) * lune_fraction(dim, r))
            assert gap <= cap * r**3 + 1e-15, (dim, r, gap)
    report("bound suite: coupon, Poisson TV, cap defect, wedge cubic -> PASS")
