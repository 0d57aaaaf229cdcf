"""Closed forms and numerical routines for the intersection models.

Miss weights (the normalized measure of shape copies missing a probe
point), exact radius laws and samplers, expected-volume quadrature with
its large-intensity asymptotics, and the classical constants of the
Poisson hyperplane tessellation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .geomcore import (
    lune_fraction,
    unit_ball_volume,
    validate_count,
    validate_dimension,
    validate_intensity,
)
from .models import ShapeKind, count_scale, exit_distance
from .ppp import RadialMeasure, RngStream, axis_cosines, depth_radial_law, invert_increasing


def lune_fraction_closed_2d(r) -> np.ndarray | float:
    """Planar lune weight 1 - (2 arccos(r/2) - r sqrt(1 - r^2/4)) / pi.

    Independent closed form of lune_fraction(2, r), which sums the
    incomplete-beta recurrence from (2/pi) asin(r/2) instead.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r <= 2.0)):
        raise ValueError("lune weight is defined for r in [0, 2]")
    h = np.clip(r / 2.0, -1.0, 1.0)
    out = 1.0 - (2.0 * np.arccos(h) - r * np.sqrt(np.maximum(1.0 - h * h, 0.0))) / np.pi
    return float(out) if out.ndim == 0 else out


# largest d each route accepts: the series' alternating sum cancels, so its
# gap to the quadrature grows from 2e-10 at d = 60 to 1e-8 at d = 74 (worst
# near r = 1); the quadrature stays within 6e-13 of a 40-digit reference up
# to d = 10000 and misses the narrowing peak of sin^(d-2) at d = 1e7
_MAX_SERIES_DIM = 60
_MAX_QUADRATURE_DIM = 10_000


def _halfspace_front(d: int, route: str, max_dim: int) -> float:
    """Check d for a route and return (d-1) omega_{d-1} / (d omega_d), written
    as 1 / B(1/2, (d-1)/2) since the ball volumes underflow past d = 341."""
    if d > max_dim:
        raise ValueError(f"the half-space miss {route} needs 1 <= d <= {max_dim}, got d = {d}")
    return 1.0 / special.beta(0.5, (d - 1) / 2.0)


def halfspace_miss_series(d: int, r: float) -> float:
    """Miss weight of the uniform pinned half-space model as a finite sum.

    For d >= 2 this is the binomial expansion of the angular integral of
    1 - (1 - r cos a)^d against sin^(d-2), with coefficient
    (d-1) omega_{d-1} / (d omega_d).  For d = 1 the model degenerates and
    the weight is taken as 2r by convention.  Accepts d <= _MAX_SERIES_DIM.
    """
    d = validate_dimension(d)
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if d == 1:
        return 2.0 * r
    front = _halfspace_front(d, "series", _MAX_SERIES_DIM)
    total = 0.0
    for k in range(1, d + 1):
        g = (special.gamma((d - 1) / 2.0) * special.gamma((k + 1) / 2.0)
             / (2.0 * special.gamma((k + d) / 2.0)))
        total += (-1.0) ** (k + 1) * special.comb(d, k, exact=True) * g * r**k
    return front * total


def halfspace_miss_quadrature(d: int, r: float) -> float:
    """Same weight by direct angular quadrature; d = 2 reduces to the
    closed form 2r/pi - r^2/4.  Accepts d <= _MAX_QUADRATURE_DIM."""
    d = validate_dimension(d)
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if d == 1:
        return 2.0 * r
    front = _halfspace_front(d, "quadrature", _MAX_QUADRATURE_DIM)
    depth_cdf = depth_radial_law(d).cdf
    from scipy import integrate

    def f(a):
        return depth_cdf(r * np.cos(a)) * np.sin(a) ** (d - 2)

    val, _ = integrate.quad(f, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-12)
    return front * val


def halfspace_uniform_weight(d: int, r: float) -> np.ndarray | float:
    """Miss weight of the uniform-law pinned half-space model in closed form.

    With offsets drawn from the uniform radial law the copy count carries
    the omega_d multiplier, and the weight is

        omega_d * r^d * E[(u+)^d]
          = omega_d * r^d * B((d+1)/2, (d-1)/2) / (2 B(1/2, (d-1)/2)),

    which is pi r^2 / 4 in the plane.  Needs d >= 2 (the axis-cosine law
    degenerates at d = 1).  Accepts arrays of radii.
    """
    d = validate_dimension(d)
    if d < 2:
        raise ValueError("closed form needs d >= 2")
    moment = special.beta((d + 1) / 2.0, (d - 1) / 2.0) / (
        2.0 * special.beta(0.5, (d - 1) / 2.0))
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ValueError("r must be >= 0")
    out = unit_ball_volume(d) * moment * r**d
    return float(out) if out.ndim == 0 else out


def cone_uniform_weight(beta: float, r) -> np.ndarray | float:
    """Miss weight of the uniform-law pinned cone model in the plane.

    A probe at radius r escapes the wedge with apex s*Theta and half-angle
    beta iff the apex radius s falls below r sin(g - beta)/sin(beta), where
    g is the angle between the probe and the wedge axis.  Averaging the
    uniform radial cdf s^2 over g gives, exactly for 0 <= r <= sin(beta),

        w(r) = ((pi - beta)/2 + sin(2 beta)/4) / sin(beta)^2 * r^2,

    already including the omega_2 count multiplier.  beta = pi/2 recovers
    the half-space weight pi r^2/4.  The weight is quadratic, not linear:
    apex pins concentrate near the origin where the uniform radial density
    vanishes, unlike the ball model's boundary lune.
    """
    if not 0.0 < beta < np.pi:
        raise ValueError("beta must lie in (0, pi)")
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r <= np.sin(beta) + 1e-12)):
        raise ValueError("closed form needs 0 <= r <= sin(beta)")
    coef = ((np.pi - beta) / 2.0 + np.sin(2.0 * beta) / 4.0) / np.sin(beta) ** 2
    out = coef * r * r
    return float(out) if out.ndim == 0 else out


def miss_weight_mc(shape: ShapeKind, mu: RadialMeasure, d: int, r: float, n: int,
                   rng: RngStream) -> tuple[float, float]:
    """Monte Carlo miss weight of one shape copy at the probe point r*e1,
    scaled by the model's count multiplier; returns (estimate, std error).

    This is the generic route: P(radius > r) = exp(-lam * omega_d * weight)
    for any shape/law combination, so the estimate cross-checks the closed
    forms and covers shapes without one.
    """
    d = validate_dimension(d)
    scale = count_scale(shape, mu, d)
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    n = validate_count(n, "n", 2)
    p = np.asarray(mu.inverse_cdf(rng.gen.random(n)), dtype=float)
    u = axis_cosines(d, n, rng)
    m = float(np.mean(exit_distance(shape, p, u) < r))
    se = float(np.sqrt(m * (1.0 - m) / n))
    return scale * m, scale * se


def _lune_slope(d: int):
    """The lune weight's closed-form derivative, (1 - r^2/4)^((d-1)/2) /
    B(1/2, (d+1)/2), as the slope for invert_increasing's Newton steps."""
    inv_beta = 1.0 / special.beta(0.5, (d + 1) / 2.0)

    def slope(r):
        return (1.0 - np.square(r) / 4.0) ** ((d - 1) / 2.0) * inv_beta
    return slope


def sample_radius_exact(d: int, lam: float, n: int, rng: RngStream) -> np.ndarray:
    """Exact sampler of the ball model's radius law P(R > r) = exp(-lam
    omega_d w(r)), w the lune weight.

    Inverts the weight function against exponential draws; draws beyond
    lam * omega_d * w(1) land on the atom at R = 1 (the sample missed the
    probe direction entirely).  The lune is inverted by Newton steps on
    its closed-form slope (_lune_slope): about six lune evaluations per
    call, and the radii keep their relative precision at any lam, where
    they are of order 1/lam.
    """
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    n = validate_count(n, "n")
    out = np.ones(n)
    if lam == 0:
        return out
    y = rng.gen.exponential(size=n) / (lam * unit_ball_volume(d))
    idx = y < lune_fraction(d, 1.0)
    if np.any(idx):
        out[idx] = invert_increasing(lambda r: lune_fraction(d, r), y[idx], 0.0, 1.0,
                                     _lune_slope(d))
    return out


@dataclass(frozen=True)
class RadiusLaw:
    """Directional radius law of an intersection model with miss weight w:
    P(R > r) = exp(-lam * omega_d * w(r)) for r in [0, 1), with an atom at
    1 of mass exp(-lam * omega_d * w(1)).

    miss_fn must be increasing on [0, 1] with miss_fn(0) = 0.  None, the
    default, stands for the ball model's lune weight, the one law that
    sample_radius_exact draws.
    """

    dim: int
    lam: float
    miss_fn: object = None

    def __post_init__(self):
        validate_dimension(self.dim)
        validate_intensity(self.lam)

    def weight(self, r) -> np.ndarray:
        w = lune_fraction(self.dim, r) if self.miss_fn is None else self.miss_fn(r)
        return np.asarray(w, dtype=float)

    def survival(self, r) -> np.ndarray:
        """P(R > r) at any real r; right-continuous, one below 0 and zero
        from 1 on (the weight is taken at r clipped to [0, 1])."""
        r = np.asarray(r, dtype=float)
        out = np.exp(-self.lam * unit_ball_volume(self.dim) * self.weight(np.clip(r, 0.0, 1.0)))
        return np.where(r >= 1.0, 0.0, out)

    def cdf(self, r) -> np.ndarray:
        return 1.0 - self.survival(r)

    def transform(self, radii) -> np.ndarray:
        """Map sample radii to lam * omega_d * w(R); exponential with unit
        rate, truncated at the image of 1 (where the atom sits)."""
        return self.lam * unit_ball_volume(self.dim) * self.weight(radii)

    def atom_mass(self) -> float:
        return float(np.exp(-self.lam * unit_ball_volume(self.dim)
                            * self.weight(1.0)))


def expected_volume_quadrature(d: int, lam: float) -> float:
    """E|I| = d omega_d int_0^1 r^(d-1) exp(-lam omega_d w(r)) dr for the
    ball model, w the lune weight.

    The integrand collapses onto a thin layer near 0 for large lam, so the
    integral is split where the exponent reaches 60; lam = 0 returns the
    ball volume exactly.  E|I| falls like lam^-d, so the head is held to a
    relative tolerance alone, which keeps its digits at any scale (an
    absolute one stops quad early once E|I| is below it), and the tail,
    under e^-60 of the head, to one set by the head.
    """
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    if lam == 0:
        return unit_ball_volume(d)
    wd = unit_ball_volume(d)
    from scipy import integrate

    def g(r):
        return d * wd * r ** (d - 1) * np.exp(-lam * wd * lune_fraction(d, r))

    if lam * wd * lune_fraction(d, 1.0) <= 60.0:
        return integrate.quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    split = invert_increasing(lambda r: lune_fraction(d, r), 60.0 / (lam * wd), 0.0, 1.0,
                              _lune_slope(d))
    head, _ = integrate.quad(g, 0.0, split, epsabs=0.0, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(g, split, 1.0, epsabs=1e-13 * head, epsrel=1e-12, limit=200)
    return head + tail


_MAX_CONSTANT_DIM = 37


def asymptotic_volume_constant(d: int) -> float:
    """Limit of lam^d E|I| for the ball model: d! omega_d / omega_{d-1}^d.

    The radius law concentrates at scale 1/lam where the lune weight is
    linear with slope omega_{d-1}/omega_d, so lam R converges to a Weibull
    variable whose d-th moment gives the constant (2 for d = 1, pi/2 for
    d = 2, 8/pi^2 for d = 3).  It grows like a power of d!, and beyond
    d = _MAX_CONSTANT_DIM it exceeds the largest float64.
    """
    d = validate_dimension(d)
    if d > _MAX_CONSTANT_DIM:
        raise ValueError(f"the asymptotic volume constant is a finite float64 only "
                         f"for 1 <= d <= {_MAX_CONSTANT_DIM}, got d = {d}")
    return special.factorial(d, exact=True) * unit_ball_volume(d) / unit_ball_volume(d - 1) ** d


@dataclass(frozen=True)
class CroftonMoments:
    """Classical constants of the isotropic Poisson hyperplane tessellation
    normalized so that the measure of hyperplanes meeting the unit ball is 2.

    chord_rate: intensity of the induced point process on any fixed line.
    typical_mean: mean volume of the typical cell.
    moment_ratio: E[V^0] / E[V_typ], equal to the normalized second moment
    of the typical cell volume.  zero_cell_mean: mean volume of the cell
    containing the origin.
    """

    dim: int
    chord_rate: float
    typical_mean: float
    moment_ratio: float
    zero_cell_mean: float


_MAX_CROFTON_DIM = 128


def crofton_moments(d: int) -> CroftonMoments:
    """The constants for 2 <= d <= _MAX_CROFTON_DIM; past it the zero-cell
    mean exceeds the largest float64."""
    d = validate_dimension(d)
    if not 2 <= d <= _MAX_CROFTON_DIM:
        raise ValueError(f"tessellation constants need 2 <= d <= {_MAX_CROFTON_DIM}, "
                         f"got d = {d}")
    wd = unit_ball_volume(d)
    wd1 = unit_ball_volume(d - 1)
    chord = 2.0 * wd1 / (d * wd)
    typical = (2.0 / chord) ** d / wd
    ratio = special.factorial(d, exact=True) * wd * wd / 2.0**d
    zero = ratio * typical
    return CroftonMoments(d, chord, typical, ratio, zero)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)|."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def radius_moment_volume(d: int, radii: np.ndarray) -> tuple[float, float]:
    """Volume estimate omega_d E[R^d] from sampled radii, with std error.

    Valid for rotation-invariant star sets: the volume is the d-th radial
    moment times the ball volume.
    """
    d = validate_dimension(d)
    r = np.asarray(radii, dtype=float)
    if r.size < 2:
        raise ValueError("need at least 2 radii")
    wd = unit_ball_volume(d)
    m = r**d
    return wd * float(m.mean()), wd * float(m.std(ddof=1) / np.sqrt(r.size))
