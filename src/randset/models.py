"""Random intersection models and tessellation cells.

Three pinned-shape intersection models on the unit ball (balls through a
point, half-spaces through a point, planar cones pinned at a point), the
zero cell of a Poisson hyperplane tessellation, the origin cell of a
sphere tessellation, the shell coupling between the two constructions,
and the one-dimensional warm-up model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .geomcore import (
    DirectionGrid,
    unit_ball_volume,
    unit_sphere_area,
    validate_count,
    validate_dimension,
    validate_intensity,
)
from .ppp import (
    RadialMeasure,
    RngStream,
    axis_cosines,
    depth_radial_law,
    poisson_band,
    sample_ball_uniform,
    sample_poisson_count,
    sample_shell,
    segmented_min,
    shell_depth_cdfs,
    uniform_directions,
    uniform_radial_law,
    validate_poisson_mean,
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


def _pin_bound(shape: ShapeKind) -> tuple[float, float]:
    """The lower bound b(p) = b0 + slope * p on every exit distance of a pin
    at radius p, as (b0, slope); a bound b is reached at p = (b - b0) / slope.

    The ball B(c, 1) holds B(0, 1 - p), the half-space lies at distance p,
    and the cone's exits p sin(beta) / sin(gamma - beta) (_cone_exit) are
    at least p sin(beta), or p, reached along Theta, for beta > pi/2, where
    gamma - beta <= pi - beta < pi/2.
    """
    if shape.kind == "ball":
        return 1.0, -1.0
    if shape.kind == "half-space":
        return 0.0, 1.0
    return 0.0, float(np.sin(min(shape.beta, np.pi / 2.0)))


def intersection_radius(shape: ShapeKind, pin_radii: np.ndarray, pin_dirs: np.ndarray,
                        dirs: np.ndarray, rmax: float = 1.0) -> np.ndarray:
    """Radial exit distance along each unit direction of the ball of radius
    rmax intersected with the copies of `shape` pinned at p_i * Theta_i.

    pin_radii, pin_dirs and dirs have shapes (n,), (n, d) and (m, d), and
    all directions must be finite.  Ball pins must lie in [0, 1], half-space
    and cone offsets must be positive.  Directions no copy closes off, and
    every direction when there are no pins, stay at rmax.  Ball pins are
    evaluated from their centers p * Theta (_ball_exit), the others from
    <dir, Theta> (exit_distance).  No exit of a pin falls below its bound
    b(p) (_pin_bound), so only the pins whose bound is at most the largest
    radius are evaluated (_binding_min): the radii are those of every pin,
    bit for bit.
    """
    if not rmax > 0:
        raise ValueError("rmax must be > 0")
    rmax = float(rmax)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    p = np.atleast_1d(np.asarray(pin_radii, dtype=float))
    th = np.atleast_2d(np.asarray(pin_dirs, dtype=float))
    if p.ndim != 1 or th.shape != (p.size, dirs.shape[1]):
        raise ValueError(f"pin radii of shape {p.shape}, pin directions of shape {th.shape} "
                         f"and directions of shape {dirs.shape} do not match")
    if shape.kind == "ball" and not np.all((p >= 0.0) & (p * p <= 1.0 + 1e-9)):
        raise ValueError("ball pin radii must lie in [0, 1]")
    if shape.kind != "ball" and not np.all(p > 0.0):
        raise ValueError("offsets must be positive (origin strictly inside)")
    if not np.all(np.isfinite(th)):
        raise ValueError("pin directions must be finite")
    if not np.all(np.isfinite(dirs)):
        raise ValueError("directions must be finite")
    if p.size == 0:
        return np.full(dirs.shape[0], rmax)
    b0, slope = _pin_bound(shape)
    if shape.kind == "ball":
        c = p[:, None] * th
        t = _binding_min(_ball_exit, c, _squared_norms(c), b0 + slope * p, dirs, rmax)
    else:
        t = _binding_min(lambda cos, q: exit_distance(shape, q, cos), th, p, b0 + slope * p,
                         dirs, rmax)
    return np.clip(t, 0.0, rmax)


def _center_pins(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ball pins (|c|, c / |c|) of the rows c of `centers`; a center at
    the origin takes the zero direction, which gives the same exits."""
    s = np.sqrt(_squared_norms(centers))
    return s, np.divide(centers, s[:, None], out=np.zeros_like(centers), where=s[:, None] > 0.0)


_CULL_KEEP = 32
_CULL_MARGIN = 1e-12


def _squared_norms(centers: np.ndarray) -> np.ndarray:
    """|c|^2 of each row, summed column by column over the long axis: the
    same squares added in the same order as np.sum(c * c, axis=1) (a
    sequential sum for rows of up to 7 coordinates), several times faster."""
    s2 = centers[:, 0] * centers[:, 0]
    for j in range(1, centers.shape[1]):
        s2 += centers[:, j] * centers[:, j]
    return s2


def _binding_min(exit_, vecs: np.ndarray, params: np.ndarray, bound: np.ndarray,
                 dirs: np.ndarray, cap: float) -> np.ndarray:
    """Minimum of exit_(<dir, v>, q) over the pins (v, q) along each
    direction, evaluated only on the pins that can bind.

    A pin is a row v of vecs with its parameter q in params: a center c
    with q = |c|^2 for intersection_radius's balls and first_circle_crossing,
    a unit direction Theta with its radius q = p for the other shapes.
    No exit of a pin falls below its bound.  The first pass evaluates the
    pins whose bound is among the _CULL_KEEP smallest (ties included); R,
    the largest radius they give, capped at cap where the caller clips,
    leaves out every pin with bound > R + margin, since such a pin lowers
    no radius.  If that leaves out a pin the first pass skipped, the second
    pass evaluates every pin with bound <= R + margin; more pins only lower
    the radii, so that pass certifies itself.  The margin, 1e-12 in units
    of max(1, q), covers rounding in the bounds and the exits, which scale
    with q (zero-cell offsets reach the window, 80).  The dot products are
    elementwise, so a pin's exits do not depend on which other pins are
    evaluated with it, and the result equals the full evaluation bit for
    bit.

    The exits are held pin-major, one row per pin and one column per
    direction, so the minimum runs down the short axis as a few row-wise
    passes over the long, contiguous direction axis; a minimum along each
    short row costs several times more in numpy.  The products and their
    sum over the coordinates are the same in either layout.
    """
    if dirs.shape[1] != vecs.shape[1]:
        raise ValueError(f"centers of dimension {vecs.shape[1]} and directions of "
                         f"dimension {dirs.shape[1]} do not match")

    dirs_t = np.ascontiguousarray(dirs.T)

    def evaluate(mask) -> np.ndarray:
        v = vecs[mask]
        dot = v[:, 0, None] * dirs_t[0]
        for j in range(1, v.shape[1]):
            dot += v[:, j, None] * dirs_t[j]
        return np.min(exit_(dot, params[mask][:, None]), axis=0)

    k = min(_CULL_KEEP, bound.size) - 1
    first = bound <= np.partition(bound, k)[k]
    t = evaluate(first)
    margin = _CULL_MARGIN * max(1.0, float(np.max(params)))
    second = bound <= min(float(np.max(t, initial=0.0)), cap) + margin
    return evaluate(second) if np.any(second & ~first) else t


# ---------------------------------------------------------------------------
# intersection model sampling


@dataclass(frozen=True)
class ModelRealization:
    """One sampled intersection model: its pins p_i * Theta_i.  The set's
    radii are intersection_radius(shape, pin_radii, pin_dirs, dirs)."""

    pin_radii: np.ndarray
    pin_dirs: np.ndarray

    @property
    def count(self) -> int:
        return self.pin_radii.shape[0]


def _mean_pin_count(d: int, lam: float, mu: RadialMeasure,
                    shape: ShapeKind) -> tuple[int, float]:
    """Check a model's arguments; return d and the mean pin count."""
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    mean = lam * unit_ball_volume(d) * count_scale(shape, mu, d)
    if mean == np.inf:
        raise ValueError(f"the mean pin count lam * omega_d overflows at lam = {lam}")
    return d, mean


def sample_intersection_model(d: int, lam: float, mu: RadialMeasure, shape: ShapeKind,
                              rng: RngStream) -> ModelRealization:
    """Every pin of one intersection model: the full-pin reference that
    sample_axis_radii and windowed_ball_pins are tested against."""
    d, mean = _mean_pin_count(d, lam, mu, shape)
    n, u = poisson_band(mean, 0.0, 1.0, rng)
    p = np.asarray(mu.inverse_cdf(u), dtype=float)
    return ModelRealization(p, uniform_directions(d, n, rng))


_CHUNK_PINS = 2_000_000


def _pooled_chunks(n: int, mean: float, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """draw(m) over consecutive chunks of m of the n replicates, each chunk
    holding about _CHUNK_PINS pins at `mean` pins per replicate, joined in
    order.  A replicate is never split, so past _CHUNK_PINS pins per
    replicate a chunk holds one whole replicate; poisson_band bounds that
    by rejecting means past ppp._MAX_BAND_POINTS."""
    per = max(1, int(_CHUNK_PINS / max(mean, 1.0)))
    return np.concatenate([draw(min(per, n - i)) for i in range(0, n, per)] or [draw(0)])


def sample_axis_radii(d: int, lam: float, mu: RadialMeasure, shape: ShapeKind,
                      n: int, rng: RngStream) -> np.ndarray:
    """n independent model radii along a fixed axis, drawing each
    replicate's pins in the order of their bounds and only those that can
    bind.

    Rotation invariance makes the radius along e1 equal in law to the
    radius in any direction, so each replicate only needs the pin radius
    and the axis cosine of each of its points.  A pin's exit distance is at
    least its bound b(p) (_pin_bound), monotone in p.  By the mapping
    theorem, the pins of one replicate taken in increasing b(p) sit at the
    cumulative sums Gamma of Exp(1) gaps in the mass coordinate: with c0
    the CDF of mu at the pin radius of least bound and span the signed
    mass to the other end, the pin at Gamma has radius
    mu.inverse_cdf(c0 + span * Gamma / total), total = mean * |span|, and
    there are no pins past Gamma = total.  A pin whose bound reaches the
    replicate's running minimum cannot lower it, nor can any pin after it,
    so the replicate closes there, exact in law, after a handful of pins at
    any lam.  Each round adds one gap to every open replicate and draws
    the axis cosines of those still open, pooled, in chunks of replicates
    (_pooled_chunks).
    """
    d, mean = _mean_pin_count(d, lam, mu, shape)
    n = validate_count(n, "n")
    b0, slope = _pin_bound(shape)
    c0 = float(mu.cdf(0.0 if slope > 0.0 else 1.0))
    span = float(mu.cdf(1.0 if slope > 0.0 else 0.0)) - c0
    # past the Poisson limit, Gamma / total lies below the float spacing at
    # 1 and every ball pin would round to p = 1
    total = validate_poisson_mean(mean * abs(span))
    g = rng.gen

    def chunk(m: int) -> np.ndarray:
        radii = np.full(m, np.inf)
        mass = np.zeros(m)
        open_ = np.arange(m)
        while open_.size:
            mass[open_] += g.standard_exponential(open_.size)
            open_ = open_[mass[open_] < total]
            p = np.asarray(mu.inverse_cdf(c0 + span * (mass[open_] / total)), dtype=float)
            binds = b0 + slope * p < radii[open_]
            open_, p = open_[binds], p[binds]
            t = exit_distance(shape, p, axis_cosines(d, open_.size, rng))
            radii[open_] = np.minimum(radii[open_], t)
        return np.clip(radii, 0.0, 1.0)
    # a round's temporaries hold a few values per open replicate
    return _pooled_chunks(n, 1.0, chunk)


# ---------------------------------------------------------------------------
# Poisson hyperplane tessellation, zero cell


class UnboundedCellError(RuntimeError):
    """Raised when the rate-2 zero cell is still not certified bounded within
    the largest allowed sampling window; a fault, since the first window
    certifies almost every cell."""


@dataclass(frozen=True)
class CroftonCell:
    """Zero cell of an isotropic Poisson hyperplane process at rate 2, as
    crofton_cells yields it.

    normals/offsets describe the halfspaces {<x, n_i> <= p_i} that were
    sampled inside the final window, in draw order, round by round, and
    enlargements counts the window's doublings; vertices are the exact
    cell corners, counter-clockwise for d = 2, and volume is their area for
    d = 2 (the shoelace formula, its terms added left to right from 0.0,
    computed with the round's certificate) or qhull's hull volume for
    d = 3 and 4.  The cell is certified to lie inside the sampling window,
    so deeper hyperplanes cannot change it; its radii are
    intersection_radius(HALF_SPACE, offsets, normals, dirs, rmax=window).
    """

    dim: int
    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    volume: float
    window: float
    enlargements: int


# the keys of exactly collinear points differ by a few rounding errors, and
# every key lies in [-1, 1]
_TIE = 1e-12
# Cramer's numerators underflow for lines parallel to within a subnormal
# determinant (normals of about 1e-308 radians apart), so the vertex solve
# needs a normal one
_DET_MIN = float(np.finfo(float).tiny)


def _polar_hulls(qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counter-clockwise convex hulls of the rows of points (qx, qy), by one
    Jarvis march over all rows.

    Each row starts at its least (x, y, column) and each step takes the
    point of least turn from the last edge, the first edge turning from
    -e2, and of the points exactly collinear with that one the farthest:
    the vertices and order of Andrew's monotone chain with collinear points
    popped.  Returns the hull's columns, the start repeated at the end, and
    the number of vertices of each row (0 if the march did not close).
    """
    rows, k = qx.shape
    least = qx == qx.min(axis=1, keepdims=True)
    least &= qy == np.where(least, qy, np.inf).min(axis=1, keepdims=True)
    start = np.argmax(least, axis=1)
    hull = np.zeros((rows, k + 1), dtype=np.intp)
    hull[:, 0] = start
    length = np.zeros(rows, dtype=np.intp)
    live = np.arange(rows)
    cur, ex, ey = start, np.zeros(rows), np.full(rows, -1.0)
    for step in range(1, k + 1):
        if not live.size:
            break
        at = np.arange(live.size)
        cx, cy = qx[live, cur], qy[live, cur]
        dx, dy = qx[live], qy[live]
        dx -= cx[:, None]
        dy -= cy[:, None]
        # a point left of the last edge e turns from it by an angle that
        # along / spread, spread = |<e, v>| + cross(e, v), ranks: 1 straight
        # on, -1 straight back, which the current point (v = 0) is given
        along = ex[:, None] * dx
        along += ey[:, None] * dy
        along[at, cur] = -1.0
        across = ex[:, None] * dy
        across -= ey[:, None] * dx
        spread = np.abs(along)
        spread += across
        key = np.divide(along, spread, out=spread)
        nxt = np.argmax(key, axis=1)
        # rows that picked a copy of the current point (key NaN) or a point
        # right of e, which only rounding puts there and whose key above is
        # not its turn: rank every point by its full turn, right of e below
        # all points left of it
        odd = np.flatnonzero(np.isnan(key[at, nxt]) | (across[at, nxt] < 0.0))
        if odd.size:
            a, c = along[odd], across[odd]
            turn = a / (np.abs(a) + np.abs(c))
            turn = np.where(c < 0.0, -2.0 - turn, turn)
            key[odd] = np.where(np.isnan(turn), -np.inf, turn)
            nxt[odd] = np.argmax(key[odd], axis=1)
        # rows where another point's key is within rounding of the best:
        # of the points exactly collinear with the chosen one, the farthest
        best = key[at, nxt]
        tied = np.flatnonzero(np.count_nonzero(key >= (best - _TIE)[:, None], axis=1) > 1)
        if tied.size:
            tx, ty, pick = dx[tied], dy[tied], (np.arange(tied.size), nxt[tied])
            vx, vy = tx[pick][:, None], ty[pick][:, None]
            ahead = (vx * ty == vy * tx) & (vx * tx + vy * ty > 0.0)
            nxt[tied] = np.argmax(np.where(ahead, tx * tx + ty * ty, -1.0), axis=1)
        hull[live, step] = nxt
        closed = nxt == start[live]
        length[live[closed]] = step
        going = ~closed
        ex, ey = (qx[live, nxt] - cx)[going], (qy[live, nxt] - cy)[going]
        live, cur = live[going], nxt[going]
    return hull, length


def _planar_zero_cells(normals: np.ndarray, offsets: np.ndarray, counts: np.ndarray,
                       ok: np.ndarray, window: float) -> tuple[list, list]:
    """_zero_cells for d = 2 on the rows that pass its row rule (ok): the
    polar hulls of every such row at once, as arrays.

    Each counter-clockwise edge (a, b) of the polar hull conv{q_i} is the
    cell vertex where lines a and b meet.  The rows' q are padded with the
    origin to one column more than the longest row, and _polar_hulls
    marches on all of them together, so the vertices come back
    counter-clockwise, one per cell corner.  The edge test is the sign of
    Cramer's determinant for lines a and b, p_a p_b cross(q_a, q_b), so the
    vertex solve never divides by zero; a subnormal one is not certified
    (_DET_MIN).  A row whose hull holds a pad has the origin outside or on
    it, and the pad's zero normal fails the edge test.  The areas are the
    shoelace sums over the vertices, added left to right from 0.0, so their
    bits do not depend on how an interpreter sums.  Overflows give inf, as
    plain floats do.
    """
    m = counts.size
    found, areas = [None] * m, [None] * m
    rows = np.flatnonzero(ok)
    if rows.size == 0:
        return found, areas
    lines = np.repeat(ok, counts)
    size = counts[rows]
    k = int(size.max()) + 1  # every row has a pad
    real = np.arange(k) < size[:, None]
    nx, ny, p = np.zeros((rows.size, k)), np.zeros((rows.size, k)), np.ones((rows.size, k))
    nx[real], ny[real], p[real] = normals[lines, 0], normals[lines, 1], offsets[lines]
    with np.errstate(all="ignore"):
        hull, length = _polar_hulls(nx / p, ny / p)
        done = np.flatnonzero(length >= 3)
        if done.size == 0:
            return found, areas
        n_edges = length[done]
        h = hull[done, :int(n_edges.max()) + 1] + done[:, None] * k  # flat indices
        a, b = h[:, :-1], h[:, 1:]
        on = np.arange(a.shape[1]) < n_edges[:, None]
        nxa, nya, pa, nxb, nyb, pb = (arr.ravel()[cols] for cols in (a, b) for arr in (nx, ny, p))
        det = nxa * nyb - nya * nxb
        x = (pa * nyb - pb * nya) / det
        y = (pb * nxa - pa * nxb) / det
        inside = (det >= _DET_MIN) & ~(x * x + y * y >= window * window)
        good = np.flatnonzero(np.all(inside | ~on, axis=1))
        x, y, n_edges, on = x[good], y[good], n_edges[good], on[good]
        at, last = np.arange(good.size), n_edges - 1
        area = np.zeros(good.size)
        area += x[at, last] * y[:, 0] - x[:, 0] * y[at, last]
        for j in range(1, x.shape[1]):
            area += np.where(on[:, j], x[:, j - 1] * y[:, j] - x[:, j] * y[:, j - 1], 0.0)
    corners = np.stack([x, y], axis=2)
    for corner, cell, count, value in zip(corners, rows[done[good]].tolist(),
                                          n_edges.tolist(), (0.5 * area).tolist()):
        found[cell], areas[cell] = corner[:count], value
    return found, areas


# planar rows certified in one pass: the march's arrays, rows by the longest
# row's lines, then hold about 1 MB and stay in cache, where a chunk's 1000
# rows at once took about 4 MB and no less time
_PLANAR_ROWS = 256


def _zero_cells(d: int, normals: np.ndarray, offsets: np.ndarray, counts: np.ndarray,
                window: float) -> tuple[list, list]:
    """Exact vertices of the cells {x : <x,n_i> <= p_i} of a round: row i
    holds the counts[i] lines that follow row i - 1's.  Returns each row's
    vertices, None when the cell is not certified bounded and inside the
    window (no vertex at distance window or more), and, for d = 2, its area
    (None for d = 3 and 4).  With every p_i > 0 the cell is the polar of
    conv{q_i}, q_i = n_i / p_i: bounded iff the origin lies strictly inside
    that hull, with the vertex -a / b for each of its facets <a, y> + b = 0
    (b < 0).  So a row of fewer than d + 1 lines, or with an offset <= 0,
    is not certified.  d = 2 marches on _PLANAR_ROWS rows per pass
    (_planar_zero_cells), the vertices counter-clockwise; d = 3 and 4 ask
    qhull for each row's hull, whose triangulated facets repeat a vertex
    where more than d facets of the cell meet."""
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends[:-1]
    ok = counts > d
    ok[np.repeat(np.arange(counts.size), counts)[offsets <= 0.0]] = False
    if d == 2:
        found, areas = [], []
        for i in range(0, counts.size, _PLANAR_ROWS):
            a, b = starts[i], ends[min(i + _PLANAR_ROWS, counts.size) - 1]
            block = _planar_zero_cells(normals[a:b], offsets[a:b], counts[i:i + _PLANAR_ROWS],
                                       ok[i:i + _PLANAR_ROWS], window)
            found += block[0]
            areas += block[1]
        return found, areas
    from scipy.spatial import ConvexHull, QhullError

    found = [None] * counts.size
    # q of a row left out, or a vertex of a facet through or near the
    # origin, may divide by zero or overflow; such a vertex fails the window
    with np.errstate(all="ignore"):
        q = normals / offsets[:, None]
        for i in np.flatnonzero(ok).tolist():
            try:
                eq = ConvexHull(q[starts[i]:ends[i]]).equations
            except QhullError:
                continue
            verts = eq[:, :-1] / -eq[:, -1:]
            if np.all(eq[:, -1] < 0) and np.max(np.linalg.norm(verts, axis=1)) < window:
                found[i] = verts
    return found, [None] * counts.size


def _windowed_cells(d: int, n: int,
                    band: Callable[[float, float, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
                    first: float, last: float, unit: float
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None, float | None,
                                        float, int]]:
    """n independent zero cells of half-spaces {x : <x, n_i> <= p_i} whose
    offsets are drawn window by window, the open cells pooled in each round.

    band(lo, hi, m) draws the half-spaces with p in (lo, hi] of m cells at
    once: m Poisson counts, then all the offsets, then all the normals,
    cell after cell.  The bands are (0, first], then (hi, 2 hi] as the
    window hi doubles up to last.  A chunk's arrays hold the open cells'
    lines only, cell after cell and each cell's in draw order: a round
    inserts every open cell's new lines behind its earlier ones, and
    _zero_cells certifies the arrays as they are, in one call.  A cell
    leaves the loop, taking its slices of the arrays, once certified
    bounded and inside the window, or at the window last; the other cells'
    lines are then compacted.  Half-spaces past a certified window cannot
    change a cell, and the process on disjoint bands is independent across
    bands and across cells, so every cell is exact in law and the cells are
    independent.
    The certificate sees the offsets and the window in units of `unit`, a
    cell of size about 1, since qhull's tolerances (d = 3 and 4) are
    absolute.  The cells are drawn in chunks of _CHUNK_CELLS, so memory
    stays bounded in n, and a lone cell draws as a one-cell loop would:
    count, offsets, normals, round after round.
    Yields, cell by cell, the normals, the offsets, the vertices (None when
    uncertified), the area (d = 2 only, else None), the last window and the
    number of doublings.
    """
    for start in range(0, n, _CHUNK_CELLS):
        m = min(_CHUNK_CELLS, n - start)
        normals, offsets, counts = np.empty((0, d)), np.empty(0), np.zeros(m, dtype=np.intp)
        cells: list = [None] * m
        open_, lo, hi, doublings = np.arange(m), 0.0, first, 0
        while open_.size:
            new, new_offsets, new_normals = band(lo, hi, open_.size)
            behind = np.repeat(np.cumsum(counts), new)
            offsets = np.insert(offsets, behind, new_offsets)
            normals = np.insert(normals, behind, new_normals, axis=0)
            del new_offsets, new_normals  # the merged copies hold them
            counts = counts + new
            found, areas = _zero_cells(d, normals, offsets / unit, counts, hi / unit)
            ends = np.cumsum(counts).tolist()
            stays = np.ones(open_.size, dtype=bool)
            for i, (j, a, b, verts, area) in enumerate(zip(
                    open_.tolist(), [0] + ends[:-1], ends, found, areas)):
                if verts is not None or hi >= last:
                    cells[j] = normals[a:b], offsets[a:b], verts, area, hi, doublings
                    stays[i] = False
            held = np.repeat(stays, counts)
            normals, offsets = normals[held], offsets[held]
            counts, open_ = counts[stays], open_[stays]
            lo, hi, doublings = hi, min(2.0 * hi, last), doublings + 1
        yield from cells


# a chunk's cells wait, about 1 KB each in the plane, for its last to be
# certified; at 1000 a round's fixed cost is already small per cell
_CHUNK_CELLS = 1000
_WINDOW_RADIUS = 10.0
_MAX_ENLARGEMENTS = 3
# qhull fails on about one cell in 2000 at d = 5, and more often above
_MAX_CELL_DIM = 4


def crofton_cells(d: int, n: int, rng: RngStream) -> Iterator[CroftonCell]:
    """n independent zero cells of an isotropic Poisson hyperplane process
    at rate 2, for 2 <= d <= _MAX_CELL_DIM, all drawn from one stream.

    Hyperplane distances from the origin form a Poisson process of rate 2
    per unit distance (the measure of hyperplanes meeting the unit ball is
    2); normals are uniform on the sphere.  Any other rate r is a length
    scale: the cell at rate r is this cell scaled by 2/r.  Sampling is
    windowed and pooled over the cells (_windowed_cells): the first window
    has radius _WINDOW_RADIUS and doubles, with new hyperplanes superposed
    on the old ones, until each exact cell is certified bounded and inside
    it.  A cell still uncertified after _MAX_ENLARGEMENTS doublings raises
    UnboundedCellError; that signals a fault, not a rare draw.  The planar
    areas come with each round's certificate (_planar_zero_cells), the
    shoelace formula over the counter-clockwise vertices; d = 3 and 4 take
    qhull's hull volume, cell by cell.  The arguments are checked at the
    call; the cells are drawn as they are taken.
    """
    d = validate_dimension(d)
    if not 2 <= d <= _MAX_CELL_DIM:
        raise ValueError(f"zero cells need 2 <= d <= {_MAX_CELL_DIM}, got d = {d}")
    n = validate_count(n, "n")

    def band(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts, offsets = poisson_band(2.0 * (hi - lo), lo, hi, rng, m)
        return counts, offsets, uniform_directions(d, offsets.size, rng)

    def cells() -> Iterator[CroftonCell]:
        for normals, offsets, verts, vol, window, doublings in _windowed_cells(
                d, n, band, _WINDOW_RADIUS, _WINDOW_RADIUS * 2**_MAX_ENLARGEMENTS, 1.0):
            if verts is None:
                raise UnboundedCellError(
                    f"zero cell not certified bounded within window {window:g} after "
                    f"{_MAX_ENLARGEMENTS} enlargements")
            if vol is None:
                from scipy.spatial import ConvexHull
                vol = float(ConvexHull(verts).volume)
            yield CroftonCell(d, normals, offsets, verts, vol, window, doublings)
    return cells()


def crofton_cell(d: int, rng: RngStream) -> CroftonCell:
    """One zero cell of crofton_cells, drawn from its own stream."""
    return next(crofton_cells(d, 1, rng))


def windowed_ball_pins(d: int, lam: float, n: int, rng: RngStream
                       ) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """For n independent replicates of the ball model, drawn from one
    stream: the depths delta = 1 - |c| and normals n = -c/|c| of the
    centers c that can shape I, and a radius rho with I inside B(0, rho).

    Each ball B(c, 1) lies in its tangent half-space {x : <x, n> <= delta},
    so I lies in the polytope P those half-spaces cut out: the zero cell of
    an isotropic Poisson half-space process with lam omega_d offsets of
    depth law F(delta) = 1 - (1 - delta)^d.  A ball deeper than rho holds
    B(0, rho), so once P of the drawn centers is certified inside B(0, rho)
    the undrawn balls hold P, and the drawn centers alone give I.  The
    depths are drawn window by window, pooled over the replicates
    (_windowed_cells), from rho = 4 / (lam omega_d) up to 1, with the
    certificate working in units of the first window: a band (lo, hi] holds
    Poisson(lam omega_d (F(hi) - F(lo))) centers with depths F^-1(u), u
    uniform on (F(lo), F(hi)).  F and its inverse are depth_radial_law's,
    so the depths keep their relative precision at any lam.  P's
    radii are intersection_radius(HALF_SPACE, depths, normals, dirs), I's
    are intersection_radius(BALL, 1 - depths, -normals, dirs).  Dimensions
    outside 2..._MAX_CELL_DIM, where no zero cell is certified, draw every
    center, one replicate at a time, with rho = 1.  The arguments are
    checked at the call; the replicates are drawn as they are taken.
    """
    d, mean = _mean_pin_count(d, lam, uniform_radial_law(d), BALL)
    n = validate_count(n, "n")
    law = depth_radial_law(d)

    def band(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f_lo, f_hi = law.cdf(np.array([lo, hi]))
        counts, u = poisson_band(mean * (f_hi - f_lo), f_lo, f_hi, rng, m)
        return counts, law.inverse_cdf(u), uniform_directions(d, u.size, rng)

    if not 2 <= d <= _MAX_CELL_DIM:
        bands = (band(0.0, 1.0, 1) for _ in range(n))
        return ((depths, normals, 1.0) for _, depths, normals in bands)
    first = 4.0 / mean if mean > 4.0 else 1.0
    return ((depths, normals, rho)
            for normals, depths, _, _, rho, _ in _windowed_cells(d, n, band, first, 1.0, first))


def segment_crossing_count(d: int, length: float, n: int, rng: RngStream) -> np.ndarray:
    """Numbers of rate-2 tessellation hyperplanes crossing the segment
    [0, length * e1] in n independent tessellations, drawn on one stream
    in chunks.  A hyperplane at signed distance rho with unit normal theta
    crosses it iff rho <= length * <e1, theta>^+.  Each count is Poisson
    with mean 2 * length * E[<e1, theta>^+]; the law depends on rate and
    length only through their product, so rate r on length L is rate 2 on
    length r * L / 2 (in the plane, the classical rate 2*pi on L is rate 2
    on pi * L, with mean 2 * L)."""
    if validate_dimension(d) < 2:
        raise ValueError("crossing counts need d >= 2")
    n = validate_count(n, "n")
    if not 0.0 < length < np.inf:
        raise ValueError(f"length must be finite and > 0, got {length}")
    mean = 2.0 * length

    def chunk(m: int) -> np.ndarray:
        totals, rho = poisson_band(mean, 0.0, length, rng, m)
        hit = rho <= length * np.maximum(axis_cosines(d, rho.size, rng), 0.0)
        return np.bincount(np.repeat(np.arange(m), totals)[hit], minlength=m)
    return _pooled_chunks(n, mean, chunk)


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


def _circle_exit(dot, s2):
    """First positive root of t^2 - 2 t dot + s2 = 1, the first crossing
    with the unit circle centered at c, with dot = <dir, c> and s2 = |c|^2;
    +inf when the ray meets none.  A negative discriminant makes both roots
    NaN, which no comparison passes."""
    t = np.asarray(dot * dot)
    t += 1.0
    t -= s2
    with np.errstate(invalid="ignore"):
        np.sqrt(t, out=t)
    r1 = dot - t
    t += dot
    r = np.where(r1 > _TINY, r1, t)
    return np.where(r > _TINY, r, np.inf)


def first_circle_crossing(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance along each unit direction to the first crossing with any of
    the unit circles centered at `centers`, or +inf when a ray meets none.

    Centers and directions must be finite; the centers may lie inside or
    outside the unit sphere.  Roots of t^2 - 2 t <dir,c> + |c|^2 - 1 = 0
    give the crossings; circles around interior centers enclose the origin
    and always provide one positive root, exterior ones contribute only
    when hit tangentially or better.  Every point of the circle lies at
    least |1 - |c|| from the origin, so only the centers with |1 - |c|| at
    most the largest crossing are evaluated (_binding_min): the distances
    are those of every center, bit for bit.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if not np.all(np.isfinite(dirs)):
        raise ValueError("directions must be finite")
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return np.full(dirs.shape[0], np.inf)
    centers = np.atleast_2d(centers)
    if not np.all(np.isfinite(centers)):
        raise ValueError("circle centers must be finite")
    s2 = _squared_norms(centers)
    return _binding_min(_circle_exit, centers, s2, np.abs(1.0 - np.sqrt(s2)), dirs, np.inf)


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
    side is built from (together with the bulk sample, when it can bind).
    tess_cell is the origin cell of the untouched sample, and
    hausdorff_scaled is lam times the radius-sup distance between the two
    sides on the grid.
    """

    corrected_points: np.ndarray
    tess_cell: TessellationCell
    hausdorff_scaled: float


def coupling_transform(points: np.ndarray, lam: float, eps: float, rng: RngStream,
                       grid: DirectionGrid) -> CouplingOutput:
    """Couple a sphere tessellation sample to a boolean intersection model.

    The input points are a uniform Poisson sample of intensity lam/2 on the
    planar annulus |1 - |c|| <= eps around the unit circle.  Points outside
    the circle are reflected antipodally (radius s -> s - 2, i.e. 2 - s with
    the direction flipped: a circle centered at (1+w)*theta walls the cell
    off near +theta, exactly where the circle centered at (w-1)*theta does,
    and their first-crossing distances agree to first order in w); inner
    points are kept in place.  The folded depths follow the two-sided shell
    law, so every depth is then pushed through the exact transport onto the
    inner shell law, an O(eps^2) correction per point.  An independent
    uniform Poisson(lam) sample on the ball of radius 1 - eps, drawn from
    rng, fills in the bulk.  Returned are the corrected points, the
    tessellation origin cell of the untouched sample, and lam times
    max |r_a - r_b| over the grid between that cell and the ball
    intersection of the corrected points plus bulk, which bounds their
    Hausdorff distance (both sets are star-shaped about the origin).

    The balls are pins: (1 - w, sign * theta), whose centers are the
    corrected points bit for bit (the sign flip is exact), and (|x|, x/|x|)
    for the bulk.  Both radius arrays come from certified culls: no exit
    of a center falls below its bound (slack 1 - |c| for the balls,
    |1 - |c|| for the circles), so the kernels evaluate only the centers
    whose bound is at most the largest radius.  Every bulk center has
    slack at least eps, so when the corrected centers alone give radii
    below eps - _CULL_MARGIN, no bulk center can lower one and the bulk is
    not drawn: its stream feeds nothing else, so the output is the same,
    bit for bit, as with the bulk drawn and evaluated, and a replicate's
    work does not grow with lam.  Otherwise the bulk is drawn too.
    """
    lam = validate_intensity(lam)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"the coupling is implemented for d = 2, got points of shape "
                         f"{pts.shape}")
    depth_laws = shell_depth_cdfs(eps, 2)  # checks 0 < eps < 1
    s = np.linalg.norm(pts, axis=1)
    depth = np.abs(s - 1.0)
    if not np.all(depth <= eps + 1e-12):
        raise ValueError(f"the points must lie in the annulus |1 - |c|| <= eps = {eps}")
    sign = np.where(s > 1.0, -1.0, 1.0)
    p = 1.0 - np.asarray(depth_laws.transport(np.minimum(depth, eps)), dtype=float)
    pin_dirs = sign[:, None] * (pts / s[:, None])

    cell = sphere_tessellation_cell_2d(pts, grid)
    inter_radii = intersection_radius(BALL, p, pin_dirs, grid.points)
    if np.max(inter_radii) + _CULL_MARGIN >= eps:
        bulk_p, bulk_dirs = _center_pins(sample_ball_uniform(2, lam, rng, rmax=1.0 - eps).points)
        inter_radii = intersection_radius(BALL, np.concatenate([p, bulk_p]),
                                          np.vstack([pin_dirs, bulk_dirs]), grid.points)
    h = float(np.max(np.abs(inter_radii - cell.radii)))
    return CouplingOutput(p[:, None] * pin_dirs, cell, lam * h)


def shell_containment_indicator(d: int, lam: float, rng: RngStream,
                                grid: DirectionGrid) -> bool:
    """Whether a fresh ball-model intersection at intensity lam fits inside
    the ball of radius margin = 2 * log(lam)^2 / lam.

    Only sample points with slack 1 - |c| below the margin can certify or
    refute containment, so the process is sampled on that shell alone; the
    verdict agrees with the full model exactly.  The shell's points x
    (about 790 at lam = 3000) go to intersection_radius as ball pins
    (|x|, x / |x|), which evaluates only those whose slack is at most the
    largest radius that the 32 of smallest slack give, a certificate that
    leaves the radii bit for bit unchanged.
    """
    d = validate_dimension(d)
    if not 1.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    margin = 2.0 * np.log(lam) ** 2 / lam
    if margin >= 1.0:
        return True
    shell = sample_shell(d, lam, margin, "inner", rng)
    radii = intersection_radius(BALL, *_center_pins(shell.points), grid.points)
    return bool(np.max(radii) <= margin)


# ---------------------------------------------------------------------------
# one-dimensional warm-up and meeting counts


def interval_intersection_1d(lam: float, rng: RngStream) -> tuple[float, float]:
    """Intersection of [-1,1] with all intervals [c-1, c+1] for c in a
    Poisson(lam) sample on [-1, 1]; the empty sample leaves [-1, 1]."""
    lam = validate_intensity(lam)
    n, c = poisson_band(2.0 * lam, -1.0, 1.0, rng)
    if n == 0:
        return -1.0, 1.0
    return max(-1.0, float(c.max()) - 1.0), min(1.0, float(c.min()) + 1.0)


def interval_intersection_stats(lam: float, replicates: int, rng: RngStream) -> dict:
    """Batched endpoints of the 1-d model, in chunks (_pooled_chunks);
    returns scaled length moments and the endpoint correlation."""
    lam = validate_intensity(lam)
    replicates = validate_count(replicates, "replicates", 2)

    def chunk(m: int) -> np.ndarray:
        counts, c = poisson_band(2.0 * lam, -1.0, 1.0, rng, m)
        # empty replicates fall back to the full interval via the fills
        return np.column_stack([np.maximum(-1.0, -segmented_min(-c, counts, 2.0) - 1.0),
                                np.minimum(1.0, segmented_min(c, counts, 2.0) + 1.0)])
    lo, hi = _pooled_chunks(replicates, 2.0 * lam, chunk).T
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
    sphere, about 2*d*omega_d*lam*eps.  The shell points are drawn in
    chunks (_pooled_chunks).
    """
    d = validate_dimension(d)
    lam = validate_intensity(lam)
    if model not in MEETING_MODELS:
        raise ValueError(f"unknown meeting-count model {model!r}")
    if not 0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 0.25)")
    replicates = validate_count(replicates, "replicates", 2)
    sd = unit_sphere_area(d)
    if model == "hyperplane-tess":
        counts = sample_poisson_count(2.0 * eps * lam, rng, replicates)
        asym = 2.0 * lam * eps
        return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(replicates)), asym
    if model == "boolean":
        lo_d, hi_d = 1.0, (1.0 + 2.0 * eps) ** d
        asym = sd * lam * eps
    else:
        lo_d, hi_d = (1.0 - 2.0 * eps) ** d, (1.0 + 2.0 * eps) ** d
        asym = 2.0 * sd * lam * eps
    mean = lam * (unit_ball_volume(d) * (hi_d - lo_d))

    def chunk(m: int) -> np.ndarray:
        counts, vols = poisson_band(mean, lo_d, hi_d, rng, m)
        radii = vols ** (1.0 / d)
        hit = np.abs(radii - 1.0) < eps if model == "sphere-tess" else radii < 1.0 + eps
        return np.bincount(np.repeat(np.arange(m), counts)[hit], minlength=m)
    per = _pooled_chunks(replicates, mean, chunk).astype(float)
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(replicates)), asym
