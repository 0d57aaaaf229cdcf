"""Exact geometry of balls, caps and lunes, and direction grids.

Closed-form constants, the argument checks every layer shares, and the
direction grids on which a set is held as its radii (the radius functions
live in :mod:`randset.models`). Everything here is deterministic and pure;
random sampling lives in :mod:`randset.ppp`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

UNIT_NORM_TOL = 1e-12


def validate_dimension(d) -> int:
    """Check that d is an integer >= 1 and return it as a plain int."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return int(d)


def validate_intensity(lam) -> float:
    """Check that a Poisson intensity is finite and >= 0 and return it as a
    float; lam = 0 (the empty process) is valid."""
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"intensity must be finite and >= 0, got {lam}")
    return float(lam)


def validate_count(n, name: str, minimum: int = 0) -> int:
    """Check that a count is an integer >= minimum and return it as a plain
    int; bools are not counts."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return int(n)


_MAX_BALL_DIM = 341


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions.

    Accepts d = 0 and returns 1.0, the convention that makes the
    d = 1 forms of the wedge volume and the asymptotic volume constant
    come out right.  Past d = _MAX_BALL_DIM the gamma function overflows
    and the volume would read 0, so larger d raise.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError(f"dimension must be an integer >= 0, got {d!r}")
    if d > _MAX_BALL_DIM:
        raise ValueError(f"the unit ball volume is a positive float64 only for "
                         f"0 <= d <= {_MAX_BALL_DIM}, got d = {d}")
    return float(np.pi ** (d / 2.0) / special.gamma(d / 2.0 + 1.0))


def unit_sphere_area(d: int) -> float:
    """Surface area of the boundary sphere of the unit d-ball (d * omega_d)."""
    d = validate_dimension(d)
    return d * unit_ball_volume(d)


def lune_fraction(d: int, r) -> float | np.ndarray:
    """Normalized volume of the lune cut from the unit ball by a shifted copy.

    The lune is the part of the unit ball not covered by the unit ball
    centered at distance r along an axis.  Splitting the two-ball
    intersection into spherical caps and applying the reflection identity
    for the regularized incomplete beta function gives

        lune_fraction(d, r) = I_{h^2}(1/2, (d+1)/2),   h = r/2.

    With c = 1 - h^2, the b-recurrence of the incomplete beta function
    (DLMF 8.17(iv)) adds one term per unit step in b,

        I(1/2, b+1) = I(1/2, b) + t_b,   t_b = h c^b / (b B(1/2, b)),
        t_{b+1} = t_b c (b + 1/2) / (b + 1),

    so the lune is a finite sum with numpy only.  Odd d starts from
    I(1/2, 1) = h with t_1 = h c / 2 and takes (d-1)/2 steps; even d
    starts from I(1/2, 1/2) = (2/pi) asin(h) with t_{1/2} = (2/pi) h
    sqrt(c) and takes d/2 steps.  Every term is positive, so nothing
    cancels, and the sum is h times a series that tends to a constant as
    r -> 0, so it keeps full relative precision down to r = 0 with no
    special case (the naive cap difference cancels catastrophically
    there).  The error grows with the number of steps, from 1-3 ulp at
    d <= 20 to about 20 ulp at d = _MAX_BALL_DIM.

    Parameters
    ----------
    d : int
        Dimension, 1 <= d <= _MAX_BALL_DIM.
    r : float or array
        Center separation, 0 <= r <= 2.
    """
    d = validate_dimension(d)
    if d > _MAX_BALL_DIM:
        raise ValueError(f"the lune fraction needs 1 <= d <= {_MAX_BALL_DIM}, got d = {d}")
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 2.0)):
        raise ValueError("separation r must lie in [0, 2]")
    h = arr / 2.0
    c = 1.0 - h * h
    if d % 2:
        out, t, b = h, h * c / 2.0, 1.0
    else:
        out, t, b = (2.0 / np.pi) * np.arcsin(h), (2.0 / np.pi) * h * np.sqrt(c), 0.5
    for k in range(d // 2):
        if k:
            t *= c
            t *= (b + 0.5) / (b + 1.0)
            b += 1.0
        out += t
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def wedge_volume(d: int, r: float) -> float:
    """Volume omega_{d-1} * r of the slab {x in unit ball : 0 < x_1 < r}, linearized.

    This is the first-order stand-in for the absolute lune volume; the
    difference is cubic in r (see tests for the explicit bound).
    """
    d = validate_dimension(d)
    if not 0.0 <= r < np.inf:
        raise ValueError(f"r must be finite and >= 0, got {r}")
    return unit_ball_volume(d - 1) * float(r)


def cap_hyp_distance(delta: float) -> float:
    """Hausdorff gap 1 - cos(delta) between a spherical cap of angular radius
    delta and the flat disk spanning its rim.  Domain (0, pi/2)."""
    if not 0.0 < delta < np.pi / 2.0:
        raise ValueError("delta must lie in (0, pi/2)")
    return 1.0 - float(np.cos(delta))


@dataclass(frozen=True)
class DirectionGrid:
    """A fixed set of unit vectors used for quadrature and sup-norm scans."""

    dim: int
    points: np.ndarray  # shape (n, dim), unit rows

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, dim) array")
        norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("grid rows must be unit vectors")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def direction_grid(d: int, n: int) -> DirectionGrid:
    """Deterministic direction grid.

    d = 1 alternates the two endpoints, d = 2 uses equally spaced angles,
    d = 3 uses the golden-angle (Fibonacci) spiral, and d >= 4 falls back
    to normalized Gaussians drawn with seed 0.  Same (d, n) always yields
    the same array.
    """
    d = validate_dimension(d)
    n = validate_count(n, "grid size", 1)
    if d == 1:
        pts = np.where(np.arange(n)[:, None] % 2 == 0, 1.0, -1.0)
        return DirectionGrid(1, pts)
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n) / n
        return DirectionGrid(2, np.column_stack([np.cos(ang), np.sin(ang)]))
    if d == 3:
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        pts = np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])
        return DirectionGrid(3, pts)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1)
    # resample any degenerate rows; astronomically unlikely but cheap to guard
    while np.any(norms < UNIT_NORM_TOL):
        bad = norms < UNIT_NORM_TOL
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1)
    return DirectionGrid(d, pts / norms[:, None])
