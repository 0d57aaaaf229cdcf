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
    sample_ball_uniform,
    sample_poisson_count,
    sample_shell,
    segmented_min,
    shell_depth_cdfs,
    uniform_directions,
    uniform_radial_law,
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
    if shape.kind == "ball" and not np.all(p * p <= 1.0 + 1e-9):
        raise ValueError("ball model centers must lie in the unit ball")
    if shape.kind == "half-space" and not np.all(p > 0.0):
        raise ValueError("offsets must be positive (origin strictly inside)")
    if p.size == 0:
        return np.full(dirs.shape[0], float(rmax))
    t = exit_distance(shape, p, dirs @ np.atleast_2d(np.asarray(pin_dirs, dtype=float)).T)
    return np.clip(np.min(t, axis=1), 0.0, float(rmax))


def ball_intersection_radius(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """intersection_radius(BALL, ...) from the centers c_i = p_i * Theta_i
    rather than their (p_i, Theta_i) pairs, for callers that hold centers.

    centers must lie in the closed unit ball.  No centers means the unit
    ball itself, radius 1.  B(c, 1) holds B(0, 1 - |c|), so no exit of a
    center falls below its slack 1 - |c|, and only the centers whose slack
    is at most the largest radius are evaluated (_binding_min): the radii
    are those of every center, bit for bit.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return np.ones(dirs.shape[0])
    centers = np.atleast_2d(centers)
    s2 = _squared_norms(centers)
    if not np.all(s2 <= 1.0 + 1e-9):
        raise ValueError("ball model centers must lie in the unit ball")
    t = _binding_min(_ball_exit, centers, s2, 1.0 - np.sqrt(s2), dirs, 1.0)
    return np.clip(t, 0.0, 1.0)


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


def _binding_min(exit_, centers: np.ndarray, s2: np.ndarray, bound: np.ndarray,
                 dirs: np.ndarray, cap: float) -> np.ndarray:
    """Minimum of exit_(<dir, c>, |c|^2) over the centers along each
    direction, evaluated only on the centers that can bind.

    No exit of a center falls below its bound.  The first pass evaluates
    the centers whose bound is among the _CULL_KEEP smallest (ties
    included); R, the largest radius they give, capped at cap where the
    caller clips, leaves out every center with bound > R + margin, since
    such a center lowers no radius.  If that leaves out a center the first
    pass skipped, the second pass evaluates every center with bound <=
    R + margin; more centers only lower the radii, so that pass certifies
    itself.  The margin, 1e-12 in units of max(1, |c|^2), covers rounding
    in the bounds and the exits.  The dot products are elementwise, so a
    center's exits do not depend on which other centers are evaluated with
    it, and the result equals the full evaluation bit for bit.

    The exits are held center-major, one row per center and one column per
    direction, so the minimum runs down the short axis as a few row-wise
    passes over the long, contiguous direction axis; a minimum along each
    short row costs several times more in numpy.  The products and their
    sum over the coordinates are the same in either layout.
    """
    if dirs.shape[1] != centers.shape[1]:
        raise ValueError(f"centers of dimension {centers.shape[1]} and directions of "
                         f"dimension {dirs.shape[1]} do not match")

    dirs_t = np.ascontiguousarray(dirs.T)

    def evaluate(mask) -> np.ndarray:
        c = centers[mask]
        dot = c[:, 0, None] * dirs_t[0]
        for j in range(1, c.shape[1]):
            dot += c[:, j, None] * dirs_t[j]
        return np.min(exit_(dot, s2[mask][:, None]), axis=0)

    k = min(_CULL_KEEP, bound.size) - 1
    first = bound <= np.partition(bound, k)[k]
    t = evaluate(first)
    margin = _CULL_MARGIN * max(1.0, float(np.max(s2)))
    # fmin: a NaN radius (from a NaN direction) reaches the cap
    second = bound <= float(np.fmin(np.max(t, initial=0.0), cap)) + margin
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
    n = sample_poisson_count(mean, rng)
    p = np.asarray(mu.inverse_cdf(rng.gen.random(n)), dtype=float)
    th = uniform_directions(d, n, rng)
    return ModelRealization(p, th)


_CHUNK_PINS = 2_000_000


def _pooled_chunks(n: int, mean: float, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """draw(m) over consecutive chunks of m of the n replicates, each chunk
    holding about _CHUNK_PINS pins at `mean` pins per replicate, joined in
    order; memory stays bounded at any mean and a replicate is never split."""
    per = max(1, int(_CHUNK_PINS / max(mean, 1.0)))
    return np.concatenate([draw(min(per, n - i)) for i in range(0, n, per)] or [draw(0)])


def _first_window(d: int, lam: float, rho_max: float) -> float:
    """4 / (lam * omega_d), the scale of the model radii, capped at rho_max."""
    scale = lam * unit_ball_volume(d)
    return 4.0 / scale if scale * rho_max > 4.0 else rho_max


def _pin_bound(shape: ShapeKind) -> tuple[float, Callable[[float], float]]:
    """The largest exit-distance lower bound b(p) of a pin, and the pin
    radius p at which b(p) takes a given value.

    The ball B(c, 1) holds B(0, 1 - p), the half-space lies at distance p,
    and the cone's sides pass at p sin(beta) from the point p along its
    axis (the sine rule of _cone_exit with sin(gamma - beta) <= 1).
    """
    if shape.kind == "ball":
        return 1.0, lambda b: 1.0 - b
    if shape.kind == "half-space":
        return 1.0, lambda b: b
    sinb = float(np.sin(shape.beta))
    return sinb, lambda b: b / sinb


def sample_axis_radii(d: int, lam: float, mu: RadialMeasure, shape: ShapeKind,
                      n: int, rng: RngStream) -> np.ndarray:
    """n independent model radii along a fixed axis, drawing only the pins
    that can bind.

    Rotation invariance makes the radius along e1 equal in law to the
    radius in any direction, so each replicate only needs the pin radius
    and the axis cosine of each of its points.  A pin's exit distance is at
    least b(p) (_pin_bound), so pins with b(p) above a window rho cannot
    change a radius at most rho.  The first window is rho = 4 / (lam *
    omega_d): each replicate draws the pins with b(p) <= rho, one interval
    of pin radii.  A replicate whose minimum is at most rho is done; for
    the others rho doubles and only the new band of pins is drawn, until
    rho covers every pin (1 for the ball and the half-space, sin(beta) for
    the cone).  The Poisson process on disjoint bands is independent across
    bands, so the radii are exact in law, and a replicate draws a handful
    of pins at any lam.  Each round pools the open replicates and reduces
    them with a segmented minimum, in chunks (_pooled_chunks).
    """
    d, mean = _mean_pin_count(d, lam, mu, shape)
    n = validate_count(n, "n")
    rho_max, pin_at = _pin_bound(shape)
    first = _first_window(d, lam, rho_max)
    g = rng.gen

    def chunk(m: int) -> np.ndarray:
        radii = np.full(m, np.inf)
        open_ = np.arange(m)
        lo, hi = 0.0, first
        while open_.size:
            a, b = sorted((pin_at(lo), pin_at(hi)))
            fa = float(mu.cdf(a))
            mass = float(mu.cdf(b)) - fa
            counts = sample_poisson_count(mean * mass, rng, open_.size)
            tot = int(counts.sum())
            p = np.asarray(mu.inverse_cdf(fa + g.random(tot) * mass), dtype=float)
            t = exit_distance(shape, p, axis_cosines(d, tot, rng))
            radii[open_] = np.minimum(radii[open_], segmented_min(t, counts, np.inf))
            if hi >= rho_max:
                break
            open_ = open_[radii[open_] > hi]
            lo, hi = hi, min(2.0 * hi, rho_max)
        return np.clip(radii, 0.0, 1.0)
    # a ball replicate draws about 4 d pins in all, most in its first window
    return _pooled_chunks(n, min(mean, 4.0 * d), chunk)


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
    d = 2 (the shoelace formula) or qhull's hull volume for d = 3 and 4.
    The cell is certified to lie inside the sampling window, so deeper
    hyperplanes cannot change it; its radii are
    intersection_radius(HALF_SPACE, offsets, normals, dirs, rmax=window).
    """

    dim: int
    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    volume: float
    window: float
    enlargements: int


def _planar_zero_cell(normals: np.ndarray, offsets: np.ndarray,
                      window: float) -> np.ndarray | None:
    """_zero_cell_polytope for d = 2, by the polar hull in Python floats.

    With every p_i > 0 the cell is {x : <x, q_i> <= 1}, q_i = n_i / p_i.
    It is bounded iff the origin lies strictly inside conv{q_i}, that is
    strictly left of every counter-clockwise edge (a, b) of that hull, and
    then each such edge is the cell vertex where lines a and b meet.  The
    hull is Andrew's monotone chain with collinear points popped, so the
    vertices come back counter-clockwise, one per cell corner.  The edge
    test is the sign of Cramer's determinant for lines a and b,
    p_a p_b cross(q_a, q_b), so the vertex solve never divides by zero.
    Plain floats: numpy costs more than the geometry on some 20 lines.
    """
    p = offsets.tolist()
    if len(p) < 3 or min(p) <= 0.0:
        return None
    nx, ny = normals.T.tolist()
    q = sorted((x / s, y / s, i) for i, (x, y, s) in enumerate(zip(nx, ny, p)))

    def chain(points) -> list:
        hull = []
        for c in points:
            while len(hull) >= 2:
                (ax, ay, _), (bx, by, _) = hull[-2], hull[-1]
                if (bx - ax) * (c[1] - ay) - (by - ay) * (c[0] - ax) > 0.0:
                    break
                hull.pop()
            hull.append(c)
        return hull[:-1]

    hull = [i for _, _, i in chain(q) + chain(reversed(q))]
    if len(hull) < 3:
        return None
    verts, w2 = [], window * window
    for a, b in zip(hull, hull[1:] + hull[:1]):
        det = nx[a] * ny[b] - ny[a] * nx[b]
        if det <= 0.0:
            return None
        x = (p[a] * ny[b] - p[b] * ny[a]) / det
        y = (p[b] * nx[a] - p[a] * nx[b]) / det
        if x * x + y * y >= w2:
            return None
        verts.append((x, y))
    return np.array(verts)


def _zero_cell_polytope(d: int, normals: np.ndarray, offsets: np.ndarray,
                        window: float) -> np.ndarray | None:
    """Exact vertices of {x : <x,n_i> <= p_i}, or None when the cell is not
    certified bounded and inside the window (no vertex at distance window
    or more).  d = 2 takes the polar hull in plain floats
    (_planar_zero_cell), counter-clockwise; d = 3 and 4 ask qhull."""
    if d == 2:
        return _planar_zero_cell(normals, offsets, window)
    if normals.shape[0] == 0:
        return None
    from scipy.spatial import HalfspaceIntersection, QhullError

    halfspaces = np.column_stack([normals, -offsets])
    try:
        hs = HalfspaceIntersection(halfspaces, np.zeros(d))
        # the origin lies strictly inside the dual hull iff the normals
        # positively span R^d, that is iff the cell is bounded
        if not np.all(hs.dual_equations[:, -1] < 0):
            return None
        verts = hs.intersections
        if not np.all(np.isfinite(verts)) or np.max(np.linalg.norm(verts, axis=1)) >= window:
            return None
        return verts
    except QhullError:
        return None


def _windowed_cells(d: int, n: int,
                    band: Callable[[float, float, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
                    first: float, last: float, unit: float
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None, float, int]]:
    """n independent zero cells of half-spaces {x : <x, n_i> <= p_i} whose
    offsets are drawn window by window, the open cells pooled in each round.

    band(lo, hi, m) draws the half-spaces with p in (lo, hi] of m cells at
    once: m Poisson counts, then all the offsets, then all the normals,
    cell after cell.  The bands are (0, first], then (hi, 2 hi] as the
    window hi doubles up to last.  Each round draws the band of every cell
    still open and slices it per cell by the cumulative counts, and
    _zero_cell_polytope certifies each cell on its own lines; a cell leaves
    the loop once certified bounded and inside the window, or at the window
    last.  Half-spaces past a certified window cannot change a cell, and
    the process on disjoint bands is independent across bands and across
    cells, so every cell is exact in law and the cells are independent.
    The certificate sees the offsets and the window in units of `unit`, a
    cell of size about 1, since qhull's tolerances (d = 3 and 4) are
    absolute.  The cells are drawn in chunks of _CHUNK_CELLS, so memory
    stays bounded in n, and a lone cell draws as a one-cell loop would:
    count, offsets, normals, round after round.
    Yields, cell by cell, the normals, the offsets, the vertices (None when
    uncertified), the last window and the number of doublings.
    """
    for start in range(0, n, _CHUNK_CELLS):
        m = min(_CHUNK_CELLS, n - start)
        normals, offsets = [np.empty((0, d))] * m, [np.empty(0)] * m
        cells: list = [None] * m
        open_, lo, hi, doublings = range(m), 0.0, first, 0
        while open_:
            counts, new_offsets, new_normals = band(lo, hi, len(open_))
            still, a = [], 0
            for j, b in zip(open_, np.cumsum(counts).tolist()):
                normals[j] = np.concatenate([normals[j], new_normals[a:b]])
                offsets[j] = np.concatenate([offsets[j], new_offsets[a:b]])
                a = b
                verts = _zero_cell_polytope(d, normals[j], offsets[j] / unit, hi / unit)
                if verts is not None or hi >= last:
                    cells[j] = normals[j], offsets[j], verts, hi, doublings
                else:
                    still.append(j)
            open_, lo, hi, doublings = still, hi, min(2.0 * hi, last), doublings + 1
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
    area is the shoelace formula over the counter-clockwise vertices; d = 3
    and 4 take qhull's hull volume.  The arguments are checked at the call;
    the cells are drawn as they are taken.
    """
    d = validate_dimension(d)
    if not 2 <= d <= _MAX_CELL_DIM:
        raise ValueError(f"zero cells need 2 <= d <= {_MAX_CELL_DIM}, got d = {d}")
    n = validate_count(n, "n")
    g = rng.gen

    def band(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts = sample_poisson_count(2.0 * (hi - lo), rng, m)
        total = int(counts.sum())
        return counts, g.uniform(lo, hi, total), uniform_directions(d, total, rng)

    def cells() -> Iterator[CroftonCell]:
        for normals, offsets, verts, window, doublings in _windowed_cells(
                d, n, band, _WINDOW_RADIUS, _WINDOW_RADIUS * 2**_MAX_ENLARGEMENTS, 1.0):
            if verts is None:
                raise UnboundedCellError(
                    f"zero cell not certified bounded within window {window:g} after "
                    f"{_MAX_ENLARGEMENTS} enlargements")
            if d == 2:
                x, y = verts.T.tolist()
                vol = 0.5 * sum(x[i - 1] * y[i] - x[i] * y[i - 1] for i in range(len(x)))
            else:
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
    uniform on (F(lo), F(hi)).  F and its inverse are taken in expm1/log1p
    form, so the depths keep their relative precision at any lam.  P's
    radii are intersection_radius(HALF_SPACE, depths, normals, dirs), I's
    are intersection_radius(BALL, 1 - depths, -normals, dirs).  Dimensions
    outside 2..._MAX_CELL_DIM, where no zero cell is certified, draw every
    center, one replicate at a time, with rho = 1.  The arguments are
    checked at the call; the replicates are drawn as they are taken.
    """
    d, mean = _mean_pin_count(d, lam, uniform_radial_law(d), BALL)
    n = validate_count(n, "n")
    g = rng.gen

    def band(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf: F(1) = 1
            f_lo, f_hi = -np.expm1(d * np.log1p(-np.array([lo, hi])))
            counts = sample_poisson_count(mean * (f_hi - f_lo), rng, m)
            total = int(counts.sum())
            depths = -np.expm1(np.log1p(-(f_lo + g.random(total) * (f_hi - f_lo))) / d)
        return counts, depths, uniform_directions(d, total, rng)

    if not 2 <= d <= _MAX_CELL_DIM:
        bands = (band(0.0, 1.0, 1) for _ in range(n))
        return ((depths, normals, 1.0) for _, depths, normals in bands)
    first = _first_window(d, lam, 1.0)
    return ((depths, normals, rho)
            for normals, depths, _, rho, _ in _windowed_cells(d, n, band, first, 1.0, first))


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
    g, mean = rng.gen, 2.0 * length

    def chunk(m: int) -> np.ndarray:
        totals = sample_poisson_count(mean, rng, m)
        rho = g.uniform(0.0, length, totals.sum())
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
    +inf when the ray meets none."""
    disc = dot * dot + 1.0 - s2
    valid = disc >= 0.0
    sq = np.sqrt(np.where(valid, disc, 0.0))
    r1 = dot - sq
    r2 = dot + sq
    return np.where(valid & (r1 > _TINY), r1, np.where(valid & (r2 > _TINY), r2, np.inf))


def first_circle_crossing(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance along each unit direction to the first crossing with any of
    the unit circles centered at `centers`, or +inf when a ray meets none.

    Centers must be finite and may lie inside or outside the unit sphere.
    Roots of t^2 - 2 t <dir,c> + |c|^2 - 1 = 0 give the crossings; circles
    around interior centers enclose the origin and always provide one
    positive root, exterior ones contribute only when hit tangentially or
    better.  Every point of the circle lies at least |1 - |c|| from the
    origin, so only the centers with |1 - |c|| at most the largest crossing
    are evaluated (_binding_min): the distances are those of every center,
    bit for bit.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
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
    side is built from (together with the independent bulk sample).
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
    uniform Poisson(lam) sample on the ball of radius 1 - eps fills in the
    bulk, whose copies almost never bind.  Returned are the corrected
    points, the tessellation origin cell of the untouched sample, and lam
    times max |r_a - r_b| over the grid between that cell and the ball
    intersection of the corrected points plus bulk, which bounds their
    Hausdorff distance (both sets are star-shaped about the origin).

    Both radius arrays come from certified culls: no exit of a center
    falls below its bound (slack 1 - |c| for the balls, |1 - |c|| for the
    circles), so the kernels evaluate only the centers whose bound is at
    most the largest radius, and the bulk centers, with slack at least
    eps, are almost never evaluated.  The radii equal those of every
    center, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"the coupling is implemented for d = 2, got points of shape "
                         f"{pts.shape}")
    depth_laws = shell_depth_cdfs(eps, 2)  # checks 0 < eps < 1
    s = np.linalg.norm(pts, axis=1)
    depth = np.abs(s - 1.0)
    if not np.all(depth <= eps + 1e-12):
        raise ValueError(f"the points must lie in the annulus |1 - |c|| <= eps = {eps}")
    th = pts / s[:, None]
    sign = np.where(s > 1.0, -1.0, 1.0)
    w = np.asarray(depth_laws.transport(np.minimum(depth, eps)), dtype=float)
    corrected = (sign * (1.0 - w))[:, None] * th

    bulk = sample_ball_uniform(2, lam, rng, rmax=1.0 - eps)

    cell = sphere_tessellation_cell_2d(pts, grid)
    inter_radii = ball_intersection_radius(np.vstack([corrected, bulk.points]), grid.points)
    h = float(np.max(np.abs(inter_radii - cell.radii)))
    return CouplingOutput(corrected, cell, lam * h)


def shell_containment_indicator(d: int, lam: float, rng: RngStream,
                                grid: DirectionGrid) -> bool:
    """Whether a fresh ball-model intersection at intensity lam fits inside
    the ball of radius margin = 2 * log(lam)^2 / lam.

    Only sample points with slack 1 - |c| below the margin can certify or
    refute containment, so the process is sampled on that shell alone; the
    verdict agrees with the full model exactly.  Of the shell's points
    (about 790 at lam = 3000), ball_intersection_radius evaluates only
    those whose slack is at most the largest radius that the 32 of
    smallest slack give, a certificate that leaves the radii bit for bit
    unchanged.
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
    """Batched endpoints of the 1-d model, in chunks (_pooled_chunks);
    returns scaled length moments and the endpoint correlation."""
    lam = validate_intensity(lam)
    replicates = validate_count(replicates, "replicates", 2)
    g = rng.gen

    def chunk(m: int) -> np.ndarray:
        counts = sample_poisson_count(2.0 * lam, rng, m)
        c = g.uniform(-1.0, 1.0, int(counts.sum()))
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
    g = rng.gen
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
        counts = sample_poisson_count(mean, rng, m)
        radii = (lo_d + g.random(int(counts.sum())) * (hi_d - lo_d)) ** (1.0 / d)
        hit = np.abs(radii - 1.0) < eps if model == "sphere-tess" else radii < 1.0 + eps
        return np.bincount(np.repeat(np.arange(m), counts)[hit], minlength=m)
    per = _pooled_chunks(replicates, mean, chunk).astype(float)
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(replicates)), asym
