"""Poisson point process sampling and discrete probability bounds.

Counter-based random streams (Philox) keyed by (seed, stream_id) so that
replicates are independent and reproducible byte for byte regardless of
execution order.  Radial laws are carried around as CDF/inverse pairs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import stats

from .geomcore import unit_ball_volume, validate_count, validate_dimension, validate_intensity

_MASK64 = (1 << 64) - 1


def stream_id_for(*parts) -> int:
    """Stable 64-bit stream id from a tuple of labels.

    Uses blake2b rather than hash() so ids do not depend on interpreter
    randomization.  Floats are keyed by their exact bit pattern.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, float):
            token = "f:" + p.hex()
        elif isinstance(p, (int, np.integer)):
            token = "i:" + str(int(p))
        else:
            token = "s:" + str(p)
        h.update(token.encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """One independent random stream; (seed, stream_id) identifies it fully."""

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def spawn(self, *parts) -> "RngStream":
        """Derive a child stream; children with distinct labels never collide."""
        return RngStream(self.seed, stream_id_for(self.stream_id, *parts))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class RadialMeasure:
    """A probability law on [0, 1] given by its CDF and inverse CDF."""

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    inverse_cdf: Callable[[np.ndarray], np.ndarray]


def uniform_radial_law(d: int) -> RadialMeasure:
    """Radius law of a uniform point in the unit ball: CDF r^d."""
    d = validate_dimension(d)
    return RadialMeasure(
        name="uniform",
        cdf=lambda r: np.asarray(r, dtype=float) ** d,
        inverse_cdf=lambda u: np.asarray(u, dtype=float) ** (1.0 / d),
    )


def depth_radial_law(d: int) -> RadialMeasure:
    """Law of the distance from a uniform point in the ball to the unit
    sphere: CDF 1 - (1-r)^d.  Used as the offset law that makes pinned
    half-spaces mimic boundary-tangent balls."""
    d = validate_dimension(d)
    return RadialMeasure(
        name="depth",
        cdf=lambda r: 1.0 - (1.0 - np.asarray(r, dtype=float)) ** d,
        inverse_cdf=lambda u: 1.0 - (1.0 - np.asarray(u, dtype=float)) ** (1.0 / d),
    )


_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 200


def invert_increasing(fn, y, lo: float, hi: float, slope=None) -> np.ndarray | float:
    """Vectorized solve of fn(x) = y for increasing fn on [lo, hi].

    A target at or past a range end, fn(lo) or fn(hi), is answered with
    that end and takes no step (so an fn flat at its top gives hi, the
    largest root).  Every other target starts at x = lo and keeps a bracket
    [a, b] from the sign of fn(x) - y.  With slope (the derivative of fn)
    each step is the Newton step x - (fn(x) - y) / slope(x) when it lands
    in [a, b], and the midpoint of [a, b] otherwise; with slope=None every
    step is the midpoint, plain bisection.  Stops once every accepted
    Newton step, or every bisected bracket, is below _ROOT_TOL.  Newton's
    steps shrink with the root, so small roots keep their relative
    precision; bisection's absolute tolerance does not.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if y.size == 0:
        return np.empty(y.shape)
    flo = float(np.asarray(fn(lo), dtype=float))
    fhi = float(np.asarray(fn(hi), dtype=float))
    if not np.all((y >= flo - 1e-12) & (y <= fhi + 1e-12)):
        raise ValueError("target outside the range of fn on [lo, hi]")
    x = np.where(y < fhi, float(lo), float(hi))
    inner = (y > flo) & (y < fhi)
    if np.any(inner):
        x[inner] = _newton_bisect(fn, y[inner], float(lo), float(hi), flo, slope)
    return float(x[0]) if scalar else x


def _newton_bisect(fn, y: np.ndarray, lo: float, hi: float, flo: float,
                   slope) -> np.ndarray:
    """invert_increasing's loop over the targets strictly inside the range,
    from x = lo with fn(lo) = flo."""
    a = np.full(y.shape, lo)
    b = np.full(y.shape, hi)
    x, fx = a, np.full(y.shape, flo)
    for _ in range(_ROOT_MAX_ITER):
        below = fx < y
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        step = 0.5 * (a + b)
        size = b - a
        if slope is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - (fx - y) / np.asarray(slope(x), dtype=float)
            # inclusive bounds: a target converging from one side sits on
            # a bracket end, and its last steps land there
            ok = (newton >= a) & (newton <= b)
            step = np.where(ok, newton, step)
            size = np.where(ok, np.abs(newton - x), size)
        x = step
        if np.max(size) < _ROOT_TOL:
            break
        fx = np.asarray(fn(x), dtype=float)
    return x


def radial_law_from_cdf(name: str, cdf: Callable) -> RadialMeasure:
    """Wrap an increasing CDF on [0,1]; the inverse is found by bisection."""
    return RadialMeasure(name=name, cdf=cdf,
                         inverse_cdf=partial(invert_increasing, cdf, lo=0.0, hi=1.0))


# numpy's Generator.poisson rejects larger means ("lam value too large")
_MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


def sample_poisson_count(mean: float, rng: RngStream, size: int | None = None):
    """One Poisson draw, or an array of `size` iid draws; every Poisson
    count in the package is drawn here.  Delegates to numpy's generator,
    which switches between inversion and rejection internally depending on
    the mean, and accepts means up to _MAX_POISSON_MEAN (about 9.2e18)."""
    if not 0.0 <= mean <= _MAX_POISSON_MEAN:
        raise ValueError(f"Poisson mean must be finite and in [0, {_MAX_POISSON_MEAN:.4g}] "
                         f"(numpy's limit), got {mean}")
    if size is None:
        return int(rng.gen.poisson(mean))
    return rng.gen.poisson(mean, size)


def uniform_directions(d: int, n: int, rng: RngStream) -> np.ndarray:
    """n iid uniform unit vectors, shape (n, d)."""
    d = validate_dimension(d)
    n = validate_count(n, "n")
    if n == 0:
        return np.empty((0, d))
    g = rng.gen
    if d == 1:
        return np.where(g.random(n)[:, None] < 0.5, -1.0, 1.0)
    if d == 2:
        ang = g.uniform(0.0, 2.0 * np.pi, n)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    v = g.standard_normal((n, d))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = g.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def axis_cosines(d: int, n: int, rng: RngStream) -> np.ndarray:
    """Cosine of the angle between a uniform direction and a fixed axis.

    Density proportional to (1-u^2)^((d-3)/2) on [-1, 1], drawn directly so
    single-axis radius computations never need full d-dimensional vectors:
    a random sign for d = 1, cos(pi U) (the arcsine law) for d = 2, 2U - 1
    (uniform, Archimedes) for d = 3, and 2 Beta((d-1)/2, (d-1)/2) - 1
    otherwise, with U uniform on [0, 1).
    """
    d = validate_dimension(d)
    g = rng.gen
    if d == 1:
        return np.where(g.random(n) < 0.5, -1.0, 1.0)
    if d == 2:
        return np.cos(np.pi * g.random(n))
    if d == 3:
        return 2.0 * g.random(n) - 1.0
    return 2.0 * g.beta((d - 1) / 2.0, (d - 1) / 2.0, n) - 1.0


@dataclass(frozen=True)
class ProcessSample:
    """A realized Poisson sample: its points, shape (n, d)."""

    points: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _sample_band(d: int, lam: float, lo: float, hi: float, rng: RngStream) -> np.ndarray:
    """Homogeneous Poisson(lam) points on the band lo < |x| < hi, shape (n, d).

    Draws the count (mean lam * omega_d * (hi^d - lo^d)), then the radii by
    inverting the radial CDF (r^d - lo^d) / (hi^d - lo^d), then uniform
    directions; every ball and shell sample goes through here.
    """
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    if not 0.0 <= lo < hi < np.inf:
        raise ValueError(f"need 0 <= lo < hi < inf, got lo = {lo}, hi = {hi}")
    lo_d, hi_d = lo**d, hi**d
    n = sample_poisson_count(lam * (unit_ball_volume(d) * (hi_d - lo_d)), rng)
    radii = (lo_d + rng.gen.random(n) * (hi_d - lo_d)) ** (1.0 / d)
    return radii[:, None] * uniform_directions(d, n, rng)


def sample_shell(d: int, lam: float, eps: float, side: str, rng: RngStream) -> ProcessSample:
    """Homogeneous Poisson(lam) sample on a shell around the unit sphere.

    side selects the inner shell (1-eps, 1), the outer shell (1, 1+eps),
    or the full annulus.  Expected count is lam * omega_d * (hi^d - lo^d).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    bands = {"inner": (1.0 - eps, 1.0), "outer": (1.0, 1.0 + eps),
             "both": (1.0 - eps, 1.0 + eps)}
    if side not in bands:
        raise ValueError(f"side must be inner/outer/both, got {side!r}")
    return ProcessSample(_sample_band(d, lam, *bands[side], rng))


def sample_ball_uniform(d: int, lam: float, rng: RngStream, rmax: float = 1.0) -> ProcessSample:
    """Homogeneous Poisson(lam) sample on the centered ball of radius rmax."""
    if not rmax > 0:
        raise ValueError("rmax must be > 0")
    return ProcessSample(_sample_band(d, lam, 0.0, rmax, rng))


class ShellDepthCdfs:
    """Depth laws on a shell of width eps, written in the depth variable
    w = |1 - |x|| in (0, eps) so both CDFs run from 0 at w=0 to 1 at w=eps.

    ``inner`` is the depth law of a uniform point on the inner shell.
    ``folded`` is the depth law after reflecting outer-shell points of a
    uniform annulus sample through the unit sphere (s -> 2 - s) while
    keeping inner points; its density picks up mass from both sides.
    The transport w -> inner_inverse(folded(w)) corrects folded depths to
    the inner law, and the correction is uniformly O(eps^2).
    """

    def __init__(self, eps: float, d: int):
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        self.eps = float(eps)
        self.d = validate_dimension(d)
        self._den_inner = 1.0 - (1.0 - eps) ** d
        self._den_folded = (1.0 + eps) ** d - (1.0 - eps) ** d

    def _check_depth(self, w):
        arr = np.asarray(w, dtype=float)
        if not np.all((arr >= -1e-15) & (arr <= self.eps + 1e-15)):
            raise ValueError(f"depth outside [0, eps={self.eps}]")
        return np.clip(arr, 0.0, self.eps)

    def _check_quantile(self, u):
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= -1e-15) & (arr <= 1.0 + 1e-15)):
            raise ValueError("quantile outside [0, 1]")
        return np.clip(arr, 0.0, 1.0)

    def inner(self, w):
        w = self._check_depth(w)
        return (1.0 - (1.0 - w) ** self.d) / self._den_inner

    def inner_inverse(self, u):
        u = self._check_quantile(u)
        return 1.0 - (1.0 - u * self._den_inner) ** (1.0 / self.d)

    def folded(self, w):
        w = self._check_depth(w)
        return ((1.0 + w) ** self.d - (1.0 - w) ** self.d) / self._den_folded

    def transport(self, w):
        """Monotone transport of a folded-law depth onto the inner law.

        This is the optimal L1 coupling map between the two depth laws;
        its displacement |w - transport(w)| is O(eps^2) uniformly on
        (0, eps).  (The gap between the two CDFs themselves is only
        O(eps), so the quantile-space composition does not enjoy the
        same bound; the depth-space map is the one the coupling uses.)
        """
        return self.inner_inverse(self.folded(w))


def shell_depth_cdfs(eps: float, d: int) -> ShellDepthCdfs:
    return ShellDepthCdfs(eps, d)


def coupon_bound(k: int, a_star: float, lam: float) -> float:
    """Tail bound K * lam^(ln(1 - a_star)) for the coupon collector with K
    categories of minimum probability a_star, run for log(lam) draws."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if not 0.0 < a_star <= 1.0 / k:
        raise ValueError("need 0 < a_star <= 1/k")
    if not 1.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    if a_star == 1.0:
        return 0.0
    return float(k * lam ** np.log1p(-a_star))


def coupon_empirical(k: int, probs, t: int, replicates: int, rng: RngStream) -> float:
    """Monte Carlo estimate of P(some category unseen after t draws)."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (k,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a length-k probability vector")
    t = validate_count(t, "t", 1)
    replicates = validate_count(replicates, "replicates", 1)
    draws = rng.gen.choice(k, size=(replicates, t), p=p)
    seen = np.zeros((replicates, k), dtype=bool)
    seen[np.arange(replicates)[:, None], draws] = True
    return float(1.0 - seen.all(axis=1).mean())


def _check_poisson_shift(mu: float, delta: float) -> None:
    for name, value in (("mu", mu), ("delta", delta)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if delta > 0.0 and mu + delta == mu:
        raise ValueError(f"delta = {delta} is below the float resolution of mu = {mu}")


# the summed pmfs lose accuracy as mu grows: for delta in {0.01, 1, 100} their
# gap to the crossover route is at most 1e-10 up to mu = 1e7, 7e-9 at 1e8 and
# 1e-5 at 1e10
_MAX_TV_MEAN = 1e7


def poisson_total_variation(mu: float, delta: float) -> float:
    """Exact total variation distance between Poisson(mu) and Poisson(mu+delta).

    Summed directly from the pmfs over the window mu +- (12 sqrt(mu + delta)
    + 30), wide enough that the truncated tails are below machine
    precision.  Accepts mu <= _MAX_TV_MEAN; poisson_tail_crossover covers
    larger means.
    """
    _check_poisson_shift(mu, delta)
    if delta == 0.0:
        return 0.0
    if mu > _MAX_TV_MEAN:
        raise ValueError(f"the summed total variation needs mu <= {_MAX_TV_MEAN:g}, "
                         f"got mu = {mu}; use poisson_tail_crossover")
    half = 12.0 * np.sqrt(mu + delta) + 30.0
    ks = np.arange(max(int(np.floor(mu - half)), 0), int(np.ceil(mu + delta + half)) + 1)
    p = stats.poisson.pmf(ks, mu)
    q = stats.poisson.pmf(ks, mu + delta)
    tv = float(0.5 * np.sum(np.abs(p - q)))
    # tv <= delta holds for all mu (mean-shift coupling); a violation means
    # the truncation window or the pmf evaluation broke down
    if tv > delta + 1e-12:
        raise ArithmeticError(f"tv {tv} exceeded its bound delta {delta}")
    return tv


def poisson_tail_crossover(mu: float, delta: float) -> float:
    """Independent route to the same TV distance via the single sign change
    of the pmf difference; used to cross-check the summation."""
    _check_poisson_shift(mu, delta)
    if delta == 0.0:
        return 0.0
    kappa = delta / np.log1p(delta / mu) if mu > 0 else 0.0
    # at mu = 0 the pmf difference is positive at k = 0 only
    m = max(int(np.ceil(kappa)) - 1, 0)
    return float(stats.poisson.cdf(m, mu) - stats.poisson.cdf(m, mu + delta))


def poisson_log_tail_check(lam: float, d: int = 2) -> tuple[float, bool]:
    """P(Poisson(V_eps * lam) < log(lam)) with eps = log(lam)^2 / lam and
    V_eps the annulus volume; returns (probability, probability < 1/lam)."""
    d = validate_dimension(d)
    if not 1.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    eps = np.log(lam) ** 2 / lam
    vol = unit_ball_volume(d) * ((1.0 + eps) ** d - (1.0 - eps) ** d)
    threshold = np.log(lam)
    prob = float(stats.poisson.cdf(np.ceil(threshold) - 1.0, vol * lam))
    return prob, prob < 1.0 / lam


def segmented_min(values: np.ndarray, counts: np.ndarray, fill: float) -> np.ndarray:
    """Minimum of consecutive segments of `values` with the given lengths;
    empty segments get `fill`."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.full(counts.shape[0], fill, dtype=float)
    nz = counts > 0
    if not np.any(nz):
        return out
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out[nz] = np.minimum.reduceat(values, starts[nz])
    return out
