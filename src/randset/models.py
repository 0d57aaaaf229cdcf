"""Random intersection models and tessellation cells.

Three pinned-shape intersection models on the unit ball (balls through a
point, half-spaces through a point, planar cones pinned at a point), the
zero cell of a Poisson hyperplane tessellation, the origin cell of a
sphere tessellation, the shell coupling between the two constructions,
and the one-dimensional warm-up model.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .geomcore import (
    DirectionGrid,
    StarSet,
    unit_ball_volume,
    validate_dimension,
    validate_intensity,
)
from .ppp import (
    ProcessSample,
    RadialMeasure,
    RngStream,
    axis_cosines,
    sample_ball_uniform,
    sample_poisson_count,
    sample_shell,
    segmented_min,
    shell_depth_cdfs,
    uniform_directions,
)

_TINY = 1e-14


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class ShapeKind:
    """Which pinned shape each process point spawns.

    kind is one of "ball", "half-space", "cone"; beta is the half-angle
    and only meaningful for cones.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("ball", "half-space", "cone"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "cone":
            if self.beta is None or not 0.0 < self.beta < np.pi:
                raise ValueError("cone half-angle must lie in (0, pi)")
        elif self.beta is not None:
            raise ValueError("beta is only valid for cones")


BALL = ShapeKind("ball")
HALF_SPACE = ShapeKind("half-space")


def cone(beta: float) -> ShapeKind:
    return ShapeKind("cone", beta=float(beta))


@dataclass(frozen=True)
class HalfSpace:
    """The half-space {x : <x, normal> <= offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def contains(self, x) -> bool:
        return float(np.dot(np.asarray(x, dtype=float), self.normal)) <= self.offset + 1e-12


def count_scale(shape: ShapeKind, mu: RadialMeasure, d: int) -> float:
    """Intensity multiplier fixing the mean copy count at scale * lam * omega_d.

    The ball shape and the depth-law offsets use scale 1, which makes the
    uniform-ball process and the boundary-tangency half-space process come
    out with mean count lam * omega_d.  Offset-pinned shapes driven by the
    uniform radial law carry the extra omega_d weight; that convention is
    what makes the planar uniform half-space model satisfy
    P(Q > r) = exp(-lam * omega_2 * (pi r^2 / 4)) and gives the 4/pi
    volume limit.  See the acceptance tests for the pinned values.  The
    cone exists only in the plane, so any other d is rejected here.
    """
    if shape.kind == "cone" and d != 2:
        raise ValueError("the cone model is only defined for d = 2")
    return unit_ball_volume(d) if shape.kind != "ball" and mu.name == "uniform" else 1.0


# ---------------------------------------------------------------------------
# exit distances: how far one pinned copy reaches along a direction.  Every
# radius below is the minimum of these over the pins, clipped to the ball.
# The kernels broadcast elementwise and do not clip.


def _ball_exit(dot, s2):
    """Positive root of t^2 - 2 t dot + s2 = 1, the exit from the unit ball
    centered at c, with dot = <dir, c> and s2 = |c|^2.  Needs s2 <= 1;
    works in place on one temporary of the broadcast shape."""
    t = np.asarray(dot * dot)
    t += 1.0
    t -= s2
    np.maximum(t, 0.0, out=t)
    np.sqrt(t, out=t)
    t += dot
    return t


def _halfspace_exit(p, cos):
    """Exit from {x : <x, Theta> <= p}: p / cos, or +inf when the ray does
    not face the boundary."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cos > _TINY, p / cos, np.inf)


def _cone_exit(p, cos, beta):
    """Exit from the planar cone with apex p * Theta, axis -Theta and
    half-angle beta.

    The origin lies inside on the axis at distance p from the apex.  Along
    a ray at angle gamma from the axis the point t*dir - apex is a positive
    combination of dir and the axis, so its angle to the axis grows
    monotonically from 0 to gamma: the ray exits exactly once iff
    gamma > beta, at the sine-rule distance

        t = p * sin(beta) / sin(gamma - beta),

    and never otherwise (+inf).  sin(gamma - beta) is assembled from the
    cosine, so no inverse trig is needed, and the second root of the
    underlying quadratic (the mirror nappe of the quadric) never enters.
    beta = pi/2 reduces exactly to the half-space exit.
    """
    sinb, cosb = np.sin(beta), np.cos(beta)
    du = -cos  # cos(gamma), as the axis is -Theta
    sq = np.sqrt(np.maximum(1.0 - du * du, 0.0))
    den = sq * cosb - du * sinb  # sin(gamma - beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > _TINY, p * sinb / den, np.inf)


def exit_distance(shape: ShapeKind, p, cos):
    """Exit distance of the copy of `shape` pinned at p * Theta along a unit
    direction with cos = <dir, Theta>."""
    if shape.kind == "ball":
        return _ball_exit(p * cos, p * p)
    if shape.kind == "half-space":
        return _halfspace_exit(p, cos)
    return _cone_exit(p, cos, shape.beta)


def intersection_radius(shape: ShapeKind, pin_radii: np.ndarray, pin_dirs: np.ndarray,
                        dirs: np.ndarray, rmax: float = 1.0) -> np.ndarray:
    """Radial exit distance along each unit direction of the ball of radius
    rmax intersected with the copies of `shape` pinned at p_i * Theta_i.

    Ball pins must lie in the closed unit ball, half-space offsets must be
    positive.  Directions no copy closes off, and every direction when
    there are no pins, stay at rmax.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    p = np.asarray(pin_radii, dtype=float)
    if shape.kind == "ball" and np.any(p * p > 1.0 + 1e-9):
        raise ValueError("ball model centers must lie in the unit ball")
    if shape.kind == "half-space" and np.any(p <= 0.0):
        raise ValueError("offsets must be positive (origin strictly inside)")
    if p.size == 0:
        return np.full(dirs.shape[0], float(rmax))
    t = exit_distance(shape, p, dirs @ np.atleast_2d(np.asarray(pin_dirs, dtype=float)).T)
    return np.clip(np.min(t, axis=1), 0.0, float(rmax))


def ball_intersection_radius(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """intersection_radius(BALL, ...) from the centers c_i = p_i * Theta_i
    rather than their (p_i, Theta_i) pairs, for callers that hold centers.

    centers must lie in the closed unit ball.  No centers means the unit
    ball itself, radius 1.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return np.ones(dirs.shape[0])
    centers = np.atleast_2d(centers)
    s2 = np.sum(centers * centers, axis=1)
    if np.any(s2 > 1.0 + 1e-9):
        raise ValueError("ball model centers must lie in the unit ball")
    t = _ball_exit(dirs @ centers.T, s2)
    return np.clip(np.min(t, axis=1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# intersection model sampling


@dataclass(frozen=True)
class ModelRealization:
    """One sampled intersection model: the pins and the resulting star set."""

    pin_radii: np.ndarray
    pin_dirs: np.ndarray
    star: StarSet

    @property
    def count(self) -> int:
        return self.pin_radii.shape[0]


def _mean_pin_count(d: int, lam: float, mu: RadialMeasure,
                    shape: ShapeKind) -> tuple[int, float]:
    """Check a model's arguments; return d and the mean pin count."""
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    return d, lam * unit_ball_volume(d) * count_scale(shape, mu, d)


def sample_intersection_model(d: int, lam: float, mu: RadialMeasure, shape: ShapeKind,
                              rng: RngStream) -> ModelRealization:
    d, mean = _mean_pin_count(d, lam, mu, shape)
    n = sample_poisson_count(mean, rng)
    p = np.asarray(mu.inverse_cdf(rng.gen.random(n)), dtype=float)
    th = uniform_directions(d, n, rng)
    return ModelRealization(p, th, StarSet(d, partial(intersection_radius, shape, p, th)))


_CHUNK_PINS = 2_000_000


def sample_axis_radii(d: int, lam: float, mu: RadialMeasure, shape: ShapeKind,
                      n: int, rng: RngStream) -> np.ndarray:
    """n independent model radii along a fixed axis, fully vectorized.

    Rotation invariance makes the radius along e1 equal in law to the
    radius in any direction, so each replicate only needs the pin radius
    and the axis cosine of each of its points.  Replicates are pooled and
    reduced with a segmented minimum; memory is bounded by _CHUNK_PINS
    points (a replicate is never split).
    """
    d, mean = _mean_pin_count(d, lam, mu, shape)
    if n < 0:
        raise ValueError("n must be >= 0")
    g = rng.gen
    out = np.empty(n, dtype=float)
    done = 0
    per = max(1, int(_CHUNK_PINS / max(mean, 1.0)))
    while done < n:
        m = min(per, n - done)
        counts = g.poisson(mean, m)
        tot = int(counts.sum())
        p = np.asarray(mu.inverse_cdf(g.random(tot)), dtype=float)
        u = axis_cosines(d, tot, rng)
        t = exit_distance(shape, p, u)
        out[done:done + m] = np.clip(segmented_min(t, counts, np.inf), 0.0, 1.0)
        done += m
    return out


# ---------------------------------------------------------------------------
# Poisson hyperplane tessellation, zero cell


class UnboundedCellError(RuntimeError):
    """Raised when the zero cell is still not certified bounded within the
    largest allowed sampling window; a fault, since the rate-scaled first
    window certifies almost every cell."""


@dataclass(frozen=True)
class CroftonCell:
    """Zero cell of an isotropic Poisson hyperplane process.

    normals/offsets describe the halfspaces {<x, n_i> <= p_i} that were
    sampled inside the final window; vertices are the exact cell corners.
    The cell is certified to lie inside the sampling window, so deeper
    hyperplanes cannot change it.
    """

    dim: int
    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    volume: float
    window: float
    enlargements: int

    @property
    def star(self) -> StarSet:
        fn = partial(intersection_radius, HALF_SPACE, self.offsets, self.normals,
                     rmax=self.window)
        return StarSet(self.dim, fn, rmax=self.window)


def _zero_cell_polytope(d: int, normals: np.ndarray, offsets: np.ndarray,
                        window: float) -> tuple[np.ndarray, float] | None:
    """Exact vertices and volume of {x : <x,n_i> <= p_i}, or None when the
    cell is not certified bounded and inside the window."""
    if normals.shape[0] == 0:
        return None
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

    halfspaces = np.column_stack([normals, -offsets])
    try:
        hs = HalfspaceIntersection(halfspaces, np.zeros(d))
    except QhullError:
        return None
    # the origin lies strictly inside the dual hull iff the normals
    # positively span R^d, that is iff the cell is bounded
    if not np.all(hs.dual_equations[:, -1] < 0):
        return None
    verts = hs.intersections
    if not np.all(np.isfinite(verts)) or np.max(np.linalg.norm(verts, axis=1)) >= window:
        return None
    return verts, float(ConvexHull(verts).volume)


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


_WINDOW_RADIUS = 10.0
_MAX_ENLARGEMENTS = 3


def crofton_cell(d: int, rng: RngStream, radial_rate: float = 2.0) -> CroftonCell:
    """Sample the zero cell of an isotropic Poisson hyperplane process.

    Hyperplane distances from the origin form a Poisson process of the
    given rate per unit distance (rate 2 normalizes the measure of
    hyperplanes meeting the unit ball to 2); normals are uniform on the
    sphere.  Sampling is windowed: the first window has radius
    _WINDOW_RADIUS in units of the cell scale 1/rate (radius 10 at rate 2),
    so the cell at rate r is the rate-2 cell of the same stream scaled by
    2/r.  If the exact cell is not certified bounded and inside the current
    window (the normals fail to span, or some vertex reaches the window),
    the window doubles and new hyperplanes are superposed on the old ones,
    which preserves the law.  A cell still uncertified after
    _MAX_ENLARGEMENTS doublings raises UnboundedCellError; that signals a
    fault, not a rare draw.
    """
    d = validate_dimension(d)
    if d < 2:
        raise ValueError("tessellation cells need d >= 2")
    _check_positive("radial_rate", radial_rate)
    normals = np.empty((0, d))
    offsets = np.empty(0)
    lo, hi = 0.0, _WINDOW_RADIUS * 2.0 / radial_rate
    for attempt in range(_MAX_ENLARGEMENTS + 1):
        n_new = sample_poisson_count(radial_rate * (hi - lo), rng)
        if n_new:
            offs = rng.gen.uniform(lo, hi, n_new)
            normals = np.vstack([normals, uniform_directions(d, n_new, rng)])
            offsets = np.concatenate([offsets, offs])
        result = _zero_cell_polytope(d, normals, offsets, hi)
        if result is not None:
            verts, vol = result
            return CroftonCell(d, normals, offsets, verts, vol, hi, attempt)
        lo, hi = hi, 2.0 * hi
    raise UnboundedCellError(
        f"zero cell not certified bounded within window {lo:g} after "
        f"{_MAX_ENLARGEMENTS} enlargements")


def segment_crossing_count(d: int, length: float, rng: RngStream,
                           radial_rate: float = 2.0) -> int:
    """Number of tessellation hyperplanes crossing a segment of the given
    length.  A hyperplane at signed distance rho with unit normal theta
    crosses the segment [0, length * e1] iff rho <= length * <e1, theta>^+,
    so only distances below `length` matter.  The count is Poisson with
    mean radial_rate * length * E[<e1, theta>^+]; in the plane the
    classical normalization radial_rate = 2*pi gives mean 2 * length."""
    validate_dimension(d)
    if d < 2:
        raise ValueError("crossing counts need d >= 2")
    _check_positive("length", length)
    _check_positive("radial_rate", radial_rate)
    n = sample_poisson_count(radial_rate * length, rng)
    if n == 0:
        return 0
    rho = rng.gen.uniform(0.0, length, n)
    u = axis_cosines(d, n, rng)
    return int(np.count_nonzero(rho <= length * np.maximum(u, 0.0)))


# ---------------------------------------------------------------------------
# sphere tessellation cell (d = 2)


@dataclass(frozen=True)
class TessellationCell:
    """Origin cell of the union of unit circles centered at the sample points,
    extracted by first-hit ray casting on a direction grid.

    The first crossing along each ray is always a point of the true cell
    boundary, but the cell can continue past it around an arc, in which
    case the radii on the grid truncate it.  flagged_fraction reports the
    rays whose radius jumps by more than 20% relative to a cyclic neighbor,
    a cheap proxy for such wrap-arounds (and for grazing incidence); it is
    logged by the coupling experiment.
    """

    radii: np.ndarray
    flagged_fraction: float


def first_circle_crossing(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance along each unit direction to the first crossing with any of
    the unit circles centered at `centers`, or +inf when a ray meets none.

    Centers may lie inside or outside the unit sphere.  Roots of
    t^2 - 2 t <dir,c> + |c|^2 - 1 = 0 give the crossings; circles around
    interior centers enclose the origin and always provide one positive
    root, exterior ones contribute only when hit tangentially or better.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return np.full(dirs.shape[0], np.inf)
    centers = np.atleast_2d(centers)
    s2 = np.sum(centers * centers, axis=1)
    dot = dirs @ centers.T
    disc = dot * dot + 1.0 - s2[None, :]
    valid = disc >= 0.0
    sq = np.sqrt(np.where(valid, disc, 0.0))
    r1 = dot - sq
    r2 = dot + sq
    cand = np.where(valid & (r1 > _TINY), r1,
                    np.where(valid & (r2 > _TINY), r2, np.inf))
    return np.min(cand, axis=1)


_JUMP_THRESHOLD = 0.2


def sphere_tessellation_cell_2d(points, grid: DirectionGrid) -> TessellationCell:
    """Extract the origin cell of the circle tessellation in the plane
    whose circles are centered at the rows of `points`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size and pts.shape[1] != 2:
        raise ValueError("sphere tessellation cell is implemented for d = 2")
    if grid.dim != 2:
        raise ValueError("need a planar direction grid")
    radii = np.minimum(first_circle_crossing(pts, grid.points), 1.0)
    nxt = np.roll(radii, -1)
    scale = np.minimum(radii, nxt)
    flagged = np.abs(radii - nxt) > _JUMP_THRESHOLD * scale
    frac = float(np.count_nonzero(flagged)) / grid.size
    return TessellationCell(radii, frac)


# ---------------------------------------------------------------------------
# coupling between the boolean shell model and the sphere tessellation


@dataclass(frozen=True)
class CouplingOutput:
    """What the shell coupling produces from one annulus sample.

    corrected_points are the folded sample (outer points sent antipodally,
    inner points kept) with every depth pushed through the folded-to-inner
    transport, an O(eps^2) nudge; they are the centers the intersection
    side is built from (together with the independent bulk sample).
    tess_cell is the origin cell of the untouched sample, and
    hausdorff_scaled is lam times the radius-sup distance between the two
    sides on the grid.
    """

    corrected_points: np.ndarray
    tess_cell: TessellationCell
    hausdorff_scaled: float


def coupling_transform(tess_sample: ProcessSample, rng: RngStream,
                       grid: DirectionGrid) -> CouplingOutput:
    """Couple a sphere tessellation sample to a boolean intersection model.

    The input is a uniform Poisson sample of intensity lam/2 on the annulus
    of width eps = tess_sample.eps around the unit sphere.  Points outside the sphere are reflected
    antipodally (radius s -> s - 2, i.e. 2 - s with the direction flipped: a
    circle centered at (1+w)*theta walls the cell off near +theta, exactly
    where the circle centered at (w-1)*theta does, and their first-crossing
    distances agree to first order in w); inner points are kept in place.
    The folded depths follow the two-sided shell law, so every depth is then
    pushed through the exact transport onto the inner shell law, an O(eps^2)
    correction per point.  An independent uniform Poisson(lam) sample on the
    ball of radius 1 - eps fills in the bulk, whose copies almost never
    bind.  Returned are the corrected points, the tessellation origin cell of the untouched sample, and lam times the
    radius-sup distance on the grid between that cell and the ball
    intersection of the corrected points plus bulk.
    """
    if tess_sample.dim != 2:
        raise ValueError("the coupling is implemented for d = 2")
    if tess_sample.region != "annulus" or tess_sample.eps is None:
        raise ValueError("tess_sample must be drawn on the annulus around the unit sphere")
    eps = tess_sample.eps
    lam = 2.0 * tess_sample.intensity
    pts = tess_sample.points
    s = np.linalg.norm(pts, axis=1)
    th = pts / s[:, None]
    depth = np.clip(np.abs(s - 1.0), 0.0, eps)
    sign = np.where(s > 1.0, -1.0, 1.0)
    w = np.asarray(shell_depth_cdfs(eps, 2).transport(depth), dtype=float)
    corrected = (sign * (1.0 - w))[:, None] * th

    bulk = sample_ball_uniform(2, lam, rng, rmax=1.0 - eps)

    cell = sphere_tessellation_cell_2d(pts, grid)
    shell_radii = ball_intersection_radius(corrected, grid.points)
    # a bulk center's exit distance is at least its slack 1 - |c|, so only
    # centers with slack up to the largest shell radius can bind
    slack = 1.0 - np.linalg.norm(bulk.points, axis=1)
    kept = bulk.points[slack <= np.max(shell_radii)]
    inter_radii = np.minimum(shell_radii, ball_intersection_radius(kept, grid.points))
    h = float(np.max(np.abs(inter_radii - cell.radii)))
    return CouplingOutput(corrected, cell, lam * h)


def shell_containment_indicator(d: int, lam: float, rng: RngStream,
                                grid: DirectionGrid) -> bool:
    """Whether a fresh ball-model intersection at intensity lam fits inside
    the ball of radius margin = 2 * log(lam)^2 / lam.

    Only sample points with slack 1 - |c| below the margin can certify or
    refute containment, so the process is sampled on that shell alone; the
    verdict agrees with the full model exactly.
    """
    d = validate_dimension(d)
    if not 1.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    margin = 2.0 * np.log(lam) ** 2 / lam
    if margin >= 1.0:
        return True
    shell = sample_shell(d, lam, margin, "inner", rng)
    return bool(np.max(ball_intersection_radius(shell.points, grid.points)) <= margin)


# ---------------------------------------------------------------------------
# one-dimensional warm-up and meeting counts


def interval_intersection_1d(lam: float, rng: RngStream) -> tuple[float, float]:
    """Intersection of [-1,1] with all intervals [c-1, c+1] for c in a
    Poisson(lam) sample on [-1, 1]; the empty sample leaves [-1, 1]."""
    lam = validate_intensity(lam)
    n = sample_poisson_count(2.0 * lam, rng)
    if n == 0:
        return -1.0, 1.0
    c = rng.gen.uniform(-1.0, 1.0, n)
    return max(-1.0, float(c.max()) - 1.0), min(1.0, float(c.min()) + 1.0)


def interval_intersection_stats(lam: float, replicates: int, rng: RngStream) -> dict:
    """Batched endpoints of the 1-d model; returns scaled length moments and
    the endpoint correlation."""
    lam = validate_intensity(lam)
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    g = rng.gen
    counts = g.poisson(2.0 * lam, replicates)
    tot = int(counts.sum())
    c = g.uniform(-1.0, 1.0, tot)
    # empty replicates fall back to the full interval via the fills
    lo = np.maximum(-1.0, -segmented_min(-c, counts, 2.0) - 1.0)
    hi = np.minimum(1.0, segmented_min(c, counts, 2.0) + 1.0)
    length = lam * (hi - lo)
    # an endpoint with no spread (every replicate empty at lam = 0) is a
    # constant, uncorrelated with everything
    corr = float(np.corrcoef(-lo, hi)[0, 1]) if np.ptp(lo) and np.ptp(hi) else 0.0
    return {
        "scaled_length_mean": float(length.mean()),
        "scaled_length_var": float(length.var(ddof=1)),
        "endpoint_corr": corr,
        "lo": lo,
        "hi": hi,
    }


MEETING_MODELS = ("boolean", "hyperplane-tess", "sphere-tess")


def meeting_count_mc(model: str, d: int, lam: float, eps: float, replicates: int,
                     rng: RngStream) -> tuple[float, float, float]:
    """Monte Carlo mean number of model boundaries meeting the eps-ball at
    the origin, with its standard error and the first-order constant.

    boolean: unit spheres centered at a Poisson(lam) sample, conditioned on
    the origin being uncovered, so only centers outside the unit sphere
    count; expected about d*omega_d*lam*eps.  hyperplane-tess: offsets form
    a Poisson(lam) process on the line, count |offset| < eps, about
    2*lam*eps.  sphere-tess: unconditioned spheres, both sides of the unit
    sphere, about 2*d*omega_d*lam*eps.
    """
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    if model not in MEETING_MODELS:
        raise ValueError(f"unknown meeting-count model {model!r}")
    if not 0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 0.25)")
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    g = rng.gen
    sd = d * unit_ball_volume(d)
    if model == "hyperplane-tess":
        counts = g.poisson(2.0 * eps * lam, replicates)
        asym = 2.0 * lam * eps
        return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(replicates)), asym
    if model == "boolean":
        lo_d, hi_d = 1.0, (1.0 + 2.0 * eps) ** d
        asym = sd * lam * eps
        target_hi = 1.0 + eps
    else:
        lo_d, hi_d = (1.0 - 2.0 * eps) ** d, (1.0 + 2.0 * eps) ** d
        asym = 2.0 * sd * lam * eps
        target_hi = 1.0 + eps
    mass = unit_ball_volume(d) * (hi_d - lo_d)
    counts = g.poisson(lam * mass, replicates)
    tot = int(counts.sum())
    radii = (lo_d + g.random(tot) * (hi_d - lo_d)) ** (1.0 / d)
    hit = np.abs(radii - 1.0) < eps if model == "sphere-tess" else radii < target_hi
    idx = np.repeat(np.arange(replicates), counts)
    per = np.bincount(idx[hit], minlength=replicates).astype(float)
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(replicates)), asym
