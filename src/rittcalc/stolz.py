"""Stolz domain geometry and boundary quadrature.

The domain B(gamma) is the interior of the convex hull of the point 1
and the disc of radius sin(gamma) about 0.  Its boundary consists of
the two tangent segments from 1 to the circle |z| = sin(gamma) (tangent
points sin(gamma) * exp(+-i(pi/2 - gamma))) and the far arc of that
circle joining them, described once with their derivatives dz/dt: the
sup-norms sample these pieces and one composite Gauss-Legendre builder
integrates them, grading the segments toward the vertex 1 because
calculus integrands behave like |1 - z|^(s-1) there.  The truncated
sector boundary of the sectorial transfer identity is two such
segments, graded toward the sector tip.

All contours are oriented counterclockwise (winding +1 about interior
points) and are immutable value objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "NOT_STOLZ",
    "MeshSpec",
    "Contour",
    "tangent_points",
    "min_angle",
    "boundary_contour",
    "sector_contour",
    "contour_moment",
    "boundary_param",
    "boundary_samples",
]

#: sentinel returned by min_angle when z lies in no Stolz closure
NOT_STOLZ = math.inf
MIN_ANGLE_TOL = 1e-12
_gauss_legendre = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


@dataclass(frozen=True)
class MeshSpec:
    """Quadrature mesh: composite Gauss-Legendre panels.

    Segments get ``segment_panels`` panels geometrically graded toward
    the vertex with ``grading_ratio`` (plus one closing panel at the
    vertex, never smaller than ``min_panel``); the arc gets uniform
    panels.
    """

    segment_panels: int = 24
    arc_panels: int = 8
    points_per_panel: int = 10
    grading_ratio: float = 0.5
    min_panel: float = 1e-12

    def __post_init__(self):
        if self.segment_panels < 1 or self.arc_panels < 1 or self.points_per_panel < 1:
            raise ValueError("panel counts and points per panel must be >= 1")
        if not 0.0 < self.grading_ratio < 1.0:
            raise ValueError("grading ratio must lie in (0, 1)")

    def refined(self) -> "MeshSpec":
        """A strictly finer mesh, used for two-mesh error estimates."""
        return replace(
            self,
            segment_panels=self.segment_panels + 10,
            arc_panels=2 * self.arc_panels,
            points_per_panel=self.points_per_panel + 5,
        )


def _graded(mesh: MeshSpec, tiny: float) -> np.ndarray:
    """Breakpoints on [0, 1], geometrically refined toward 0 down to panels
    of relative size ``tiny``."""
    v = mesh.grading_ratio ** np.arange(1, mesh.segment_panels)
    return np.concatenate([[0.0], v[v >= tiny][::-1], [1.0]])


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def tangent_points(gamma: float):
    """Tangent points of the segments from 1 to the circle |z| = sin(gamma)."""
    _check_angle(gamma)
    tp = math.sin(gamma) * cmath.exp(1j * (math.pi / 2 - gamma))
    return tp, tp.conjugate()


def _check_angle(gamma: float):
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"Stolz angle must lie in (0, pi/2), got {gamma}")


def min_angle(z):
    """Infimum of gamma with z in closure(B(gamma)), exact to rounding.

    With w = 1 - z the closed tangent triangle holds z exactly when
    |arg w| <= gamma and Re z >= sin(gamma)^2, possible iff
    |w| <= cos(arg w), and the disc once sin(gamma) >= |z|: the infimum
    is min(asin|z|, |arg w|) in the first case and asin|z| otherwise.
    ``MIN_ANGLE_TOL`` only snaps z to 0.0 near the vertex and the segment [0, 1];
    ``NOT_STOLZ`` means no closure holds z (|z| >= 1 off the vertex).
    An array z gives the angles elementwise.
    """
    z = np.asarray(z, dtype=complex)
    w = 1.0 - z
    r, rho, theta, tol = np.abs(z), np.abs(w), np.abs(np.angle(w)), MIN_ANGLE_TOL
    disc = np.arcsin(np.minimum(r, 1.0))
    gamma = np.select(
        [rho <= tol, ~(r < 1.0),  # every Stolz closure sits in the closed unit disc
         (np.abs(z.imag) <= tol) & (-tol <= z.real) & (z.real <= 1.0 + tol),
         rho <= np.cos(theta)],
        [0.0, NOT_STOLZ, 0.0, np.minimum(disc, theta)], disc)
    return float(gamma) if gamma.ndim == 0 else gamma


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Quadrature discretization of a counterclockwise contour.

    ``weights`` carry the arclength element, so ``sum(w_j f(z_j))``
    approximates the |dz| integral and ``sum(w_j f(z_j) t_j)`` (unit
    tangents ``t_j``) the dz integral.  A truncated sector boundary covers
    its rays on (0, r_max] and records ``r_max`` so callers can attach a
    decay-based truncation estimate; a closed contour has r_max = inf.
    """

    nodes: np.ndarray
    tangents: np.ndarray
    weights: np.ndarray
    r_max: float = math.inf

    def tail_factor(self, s: float) -> float:
        """Geometry factor r_max^(-s) / (pi s) of the outer-truncation error.

        Multiply by the integrand's decay constant c (|f| <= c |z|^-s)
        and a resolvent bound sup |z R(z)| to estimate the dropped tail.
        """
        if s <= 0:
            return math.inf
        return self.r_max ** (-s) / (math.pi * s)


class _Piece(NamedTuple):
    """A boundary piece: parameter arrays map to points and to dz/dt,
    shape for shape, over the parameter interval [lo, hi]."""

    point: Callable
    dz: Callable
    lo: float
    hi: float


def _segment(a: complex, b: complex) -> _Piece:
    """The segment u -> a + u (b - a), u in [0, 1]."""
    d = b - a
    return _Piece(lambda u: a + u * d, lambda u: np.full(np.shape(u), d), 0.0, 1.0)


def _pieces(gamma: float) -> tuple:
    """The Stolz boundary: the segments u -> 1 + u (tp - 1) and
    u -> 1 + u (tm - 1) leaving the vertex, and the far arc
    t -> sin(gamma) e^(it), t from pi/2 - gamma to 3 pi/2 + gamma."""
    tp, tm = tangent_points(gamma)
    r = math.sin(gamma)
    arc = _Piece(lambda t: r * np.exp(1j * t), lambda t: 1j * r * np.exp(1j * t),
                 math.pi / 2 - gamma, 3 * math.pi / 2 + gamma)
    return _segment(1.0, tp), _segment(1.0, tm), arc


def _gauss_contour(runs, npts: int, r_max: float = math.inf) -> Contour:
    """Composite Gauss-Legendre contour along ``(piece, breakpoints)`` runs
    in turn, ``npts`` nodes a panel; a run goes from its first breakpoint
    to its last, so descending breakpoints traverse a piece backward."""
    x, w = _gauss_legendre(npts)
    nodes, tangents, weights = [], [], []
    for piece, brk in runs:
        half = 0.5 * (brk[1:] - brk[:-1])[:, None]
        t = (0.5 * (brk[1:] + brk[:-1])[:, None] + half * x).ravel()
        dz = piece.dz(t)
        speed = np.abs(dz)
        nodes.append(piece.point(t))
        tangents.append(np.repeat(np.sign(half), npts) * dz / speed)
        weights.append((np.abs(half) * w).ravel() * speed)
    return Contour(nodes=np.concatenate(nodes), tangents=np.concatenate(tangents),
                   weights=np.concatenate(weights), r_max=r_max)


def boundary_contour(beta: float, mesh: Optional[MeshSpec] = None) -> Contour:
    """Counterclockwise Gauss-Legendre discretization of the Stolz boundary.

    Traversal order: vertex 1 -> upper tangent point -> far arc -> lower
    tangent point -> vertex.  Segment panels are graded toward 1, so the
    lower segment mirrors the upper one bit for bit.
    """
    mesh = mesh or MeshSpec()
    upper, lower, arc = _pieces(beta)
    u = _graded(mesh, mesh.min_panel / math.cos(beta))  # cos(beta): segment length
    th = np.linspace(arc.lo, arc.hi, mesh.arc_panels + 1)
    return _gauss_contour(((upper, u), (arc, th), (lower, u[::-1])), mesh.points_per_panel)


def sector_contour(nu: float, r_max: float = 50.0,
                   mesh: Optional[MeshSpec] = None) -> Contour:
    """Truncated counterclockwise sector boundary: two rays r e^(+-i nu).

    The lower ray is traversed outward (0 -> r_max), the upper ray
    inward (r_max -> 0), so interior points have winding +1 once the
    contour is closed at infinity.
    """
    if not 0.0 < nu < math.pi:
        raise ValueError(f"sector half-angle must lie in (0, pi), got {nu}")
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    mesh = mesh or MeshSpec()
    end = r_max * cmath.exp(1j * nu)
    u = _graded(mesh, mesh.min_panel)
    return _gauss_contour(((_segment(0.0, end.conjugate()), u), (_segment(0.0, end), u[::-1])),
                          mesh.points_per_panel, r_max)


def contour_moment(beta: float, k: int, mesh: Optional[MeshSpec] = None) -> float:
    """k * integral over the Stolz boundary of |z|^(k-1) |dz|.

    Bounded uniformly in k (the arc decays geometrically, the segments
    concentrate mass at scale 1/k near the vertex), which is what makes
    diagonal estimates of the calculus work.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = boundary_contour(beta, mesh)
    return float(k * np.sum(c.weights * np.abs(c.nodes) ** (k - 1)))


def boundary_param(gamma: float, per_piece: int = 512) -> tuple:
    """The Stolz boundary as sampled pieces (grid, point, wraps): ``point``
    maps parameter arrays to boundary points, shape for shape.

    The segments of :func:`_pieces` run over s in [0, 1] from the vertex
    (uniform plus a geometric cluster down to 1e-12), the far arc over
    its angle.  For gamma = pi/2 it is one piece, the unit circle, whose
    angle wraps.  Angles outside (0, pi/2] and per_piece < 1 raise ValueError.
    """
    if not (0.0 < gamma <= math.pi / 2 and per_piece >= 1):
        raise ValueError(f"need gamma in (0, pi/2] and per_piece >= 1, got {gamma}, {per_piece}")
    if gamma == math.pi / 2:
        th = np.linspace(0.0, 2 * math.pi, 4 * per_piece, endpoint=False)
        return ((th, lambda t: np.exp(1j * t), True),)
    upper, lower, arc = _pieces(gamma)
    s = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, per_piece),
        np.geomspace(1e-12, 1.0, per_piece // 2),
    ]))
    th = np.linspace(arc.lo, arc.hi, 2 * per_piece)
    return ((s, upper.point, False), (s, lower.point, False), (th, arc.point, False))


def boundary_samples(gamma: float, per_piece: int = 512) -> np.ndarray:
    """Dense point sample of the Stolz boundary, :func:`boundary_param`'s
    pieces in turn (the unit circle for gamma = pi/2)."""
    return np.concatenate([point(grid) for grid, point, _ in boundary_param(gamma, per_piece)])
