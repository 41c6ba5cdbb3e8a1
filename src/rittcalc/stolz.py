"""Stolz domain geometry and boundary quadrature.

The domain B(gamma) is the interior of the convex hull of the point 1
and the disc of radius sin(gamma) about 0.  Its boundary consists of
the two tangent segments from 1 to the circle |z| = sin(gamma) (tangent
points sin(gamma) * exp(+-i(pi/2 - gamma))) and the far arc of that
circle joining them.  Contours are discretized with composite
Gauss-Legendre panels; the segments are geometrically graded toward
the vertex 1 because calculus integrands behave like |1 - z|^(s-1)
there.  The truncated sector boundary needed by the sectorial transfer
identity is built the same way, graded toward the sector tip.

All contours are oriented counterclockwise (winding +1 about interior
points) and are immutable value objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "NOT_STOLZ",
    "MeshSpec",
    "Contour",
    "tangent_points",
    "boundary_length",
    "contains",
    "contains_closure",
    "min_angle",
    "boundary_contour",
    "sector_contour",
    "contour_moment",
    "winding_number",
    "contour_to_csv",
    "boundary_samples",
]

#: sentinel returned by min_angle when z lies in no Stolz closure
NOT_STOLZ = math.inf


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


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(a: float, b: float, npts: int):
    """Gauss-Legendre nodes/weights on the parameter interval [a, b]."""
    x, w = _gauss_legendre(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _graded_breakpoints(length: float, panels: int, ratio: float, min_panel: float):
    """Breakpoints on [0, length], geometrically refined toward 0."""
    pts = [length]
    for j in range(1, panels):
        v = length * ratio**j
        if v < min_panel:
            break
        pts.append(v)
    pts.append(0.0)
    return pts[::-1]  # ascending, starting at 0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def tangent_points(gamma: float):
    """Tangent points of the segments from 1 to the circle |z| = sin(gamma)."""
    _check_angle(gamma)
    tp = math.sin(gamma) * cmath.exp(1j * (math.pi / 2 - gamma))
    return tp, tp.conjugate()


def boundary_length(beta: float) -> float:
    """Arclength of the Stolz boundary: 2 cos(beta) + sin(beta) (pi + 2 beta)."""
    _check_angle(beta)
    return 2.0 * math.cos(beta) + math.sin(beta) * (math.pi + 2.0 * beta)


def _check_angle(gamma: float):
    if not 0.0 < gamma < math.pi / 2:
        raise ValueError(f"Stolz angle must lie in (0, pi/2), got {gamma}")


def _half_plane_margins(z: complex, gamma: float):
    """Signed inward distances of z to the three edges of the hull triangle."""
    tp, tm = tangent_points(gamma)
    margins = []
    for a, b in ((1.0 + 0j, tp), (tp, tm), (tm, 1.0 + 0j)):
        d = b - a
        # inward normal: interior of the (counterclockwise 1 -> tp -> tm) triangle
        # lies to the left of each directed edge
        cross = (d.real * (z.imag - a.imag) - d.imag * (z.real - a.real)) / abs(d)
        margins.append(cross)
    return margins


def contains(gamma: float, z: complex) -> bool:
    """Open membership z in B(gamma): inside the disc or the open tangent triangle."""
    _check_angle(gamma)
    if abs(z) < math.sin(gamma):
        return True
    return all(m > 0.0 for m in _half_plane_margins(z, gamma))


def contains_closure(gamma: float, z: complex, tol: float = 1e-12) -> bool:
    """Closed membership, with a tol-dilation of the domain."""
    _check_angle(gamma)
    if abs(z) <= math.sin(gamma) + tol:
        return True
    return all(m >= -tol for m in _half_plane_margins(z, gamma))


def min_angle(z: complex, tol: float = 1e-12) -> float:
    """Infimum of gamma with z in closure(B(gamma)), to 1e-10.

    Returns 0.0 for the vertex and for the segment [0, 1]; returns
    ``NOT_STOLZ`` when no Stolz closure contains z (e.g. |z| >= 1 with
    z != 1).
    """
    z = complex(z)
    if abs(z - 1.0) <= tol:
        return 0.0
    if abs(z) >= 1.0:  # every Stolz closure sits in the closed unit disc
        return NOT_STOLZ
    # gamma -> 0 limit: the hull collapses onto the segment [0, 1]
    if abs(z.imag) <= tol and -tol <= z.real <= 1.0 + tol:
        return 0.0
    hi = math.pi / 2 - 1e-13
    if not contains_closure(hi, z, tol):
        return NOT_STOLZ
    lo = 1e-13
    if contains_closure(lo, z, tol):
        return lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if contains_closure(mid, z, tol):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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

    @property
    def length(self) -> float:
        return float(np.sum(self.weights))

    def integrate_dz(self, values: np.ndarray) -> complex:
        """Contour integral of node values against dz."""
        return complex(np.sum(values * self.weights * self.tangents))

    def tail_factor(self, s: float) -> float:
        """Geometry factor r_max^(-s) / (pi s) of the outer-truncation error.

        Multiply by the integrand's decay constant c (|f| <= c |z|^-s)
        and a resolvent bound sup |z R(z)| to estimate the dropped tail.
        """
        if s <= 0:
            return math.inf
        return self.r_max ** (-s) / (math.pi * s)


def boundary_contour(beta: float, mesh: Optional[MeshSpec] = None) -> Contour:
    """Counterclockwise Gauss-Legendre discretization of the Stolz boundary.

    Traversal order: vertex 1 -> upper tangent point -> far arc -> lower
    tangent point -> vertex.  Segment panels are graded toward 1.
    """
    _check_angle(beta)
    mesh = mesh or MeshSpec()
    tp, tm = tangent_points(beta)
    npts = mesh.points_per_panel
    seg_len = math.cos(beta)

    nodes, tangents, weights = [], [], []

    def add_segment(start: complex, end: complex, grade_at_start: bool):
        direction = (end - start) / abs(end - start)
        brks = _graded_breakpoints(abs(end - start), mesh.segment_panels,
                                   mesh.grading_ratio, mesh.min_panel)
        if not grade_at_start:  # grading refers to distance from `end`
            brks = [abs(end - start) - b for b in brks[::-1]]
        for a, b in zip(brks[:-1], brks[1:]):
            x, w = _panel_nodes(a, b, npts)
            nodes.extend(start + direction * xi for xi in x)
            tangents.extend([direction] * len(x))
            weights.extend(w)

    # upper tangent segment, leaving the vertex
    add_segment(1.0 + 0j, tp, grade_at_start=True)
    # far arc, angle increasing from pi/2 - beta to 3 pi/2 + beta
    r = math.sin(beta)
    th0, th1 = math.pi / 2 - beta, 3 * math.pi / 2 + beta
    arc_brks = np.linspace(th0, th1, mesh.arc_panels + 1)
    for a, b in zip(arc_brks[:-1], arc_brks[1:]):
        x, w = _panel_nodes(a, b, npts)
        for th, wi in zip(x, w):
            z = r * cmath.exp(1j * th)
            nodes.append(z)
            tangents.append(1j * cmath.exp(1j * th))
            weights.append(wi * r)
    # lower tangent segment, back into the vertex
    add_segment(tm, 1.0 + 0j, grade_at_start=False)

    assert seg_len > 0
    return Contour(
        nodes=np.array(nodes, dtype=complex),
        tangents=np.array(tangents, dtype=complex),
        weights=np.array(weights, dtype=float),
    )


def sector_contour(nu: float, r_max: float = 50.0,
                   mesh: Optional[MeshSpec] = None) -> Contour:
    """Truncated counterclockwise sector boundary: two rays r e^(+-i nu).

    The lower ray is traversed outward (0 -> r_max), the upper ray
    inward (r_max -> 0), so interior points have winding +1 once the
    contour is closed at infinity.
    """
    if not 0.0 < nu < math.pi:
        raise ValueError(f"sector half-angle must lie in (0, pi), got {nu}")
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    mesh = mesh or MeshSpec()
    npts = mesh.points_per_panel
    brks = _graded_breakpoints(r_max, mesh.segment_panels,
                               mesh.grading_ratio, mesh.min_panel * r_max)

    nodes, tangents, weights = [], [], []
    lo_dir = cmath.exp(-1j * nu)
    hi_dir = cmath.exp(1j * nu)
    for a, b in zip(brks[:-1], brks[1:]):  # lower ray, outward
        x, w = _panel_nodes(a, b, npts)
        nodes.extend(lo_dir * xi for xi in x)
        tangents.extend([lo_dir] * len(x))
        weights.extend(w)
    for a, b in zip(brks[:-1][::-1], brks[1:][::-1]):  # upper ray, inward
        x, w = _panel_nodes(a, b, npts)
        nodes.extend(hi_dir * xi for xi in x[::-1])
        tangents.extend([-hi_dir] * len(x))
        weights.extend(w[::-1])

    return Contour(
        nodes=np.array(nodes, dtype=complex),
        tangents=np.array(tangents, dtype=complex),
        weights=np.array(weights, dtype=float),
        r_max=r_max,
    )


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


def winding_number(contour, z0: complex = 0.0) -> float:
    """Quadrature winding number of the contour about z0."""
    vals = 1.0 / (contour.nodes - z0)
    return (contour.integrate_dz(vals) / (2j * math.pi)).real


def contour_to_csv(contour) -> str:
    """CSV rendering (node re/im, weight, tangent re/im) for plotting."""
    lines = ["node_re,node_im,weight,tangent_re,tangent_im"]
    for z, w, t in zip(contour.nodes, contour.weights, contour.tangents):
        lines.append(f"{z.real:.17g},{z.imag:.17g},{w:.17g},{t.real:.17g},{t.imag:.17g}")
    return "\n".join(lines) + "\n"


def boundary_samples(gamma: float, per_piece: int = 512) -> np.ndarray:
    """Dense point sample of the Stolz boundary (for sup-norm estimation).

    Includes the vertex, both tangent points, and a grading toward the
    vertex on the segments.  For gamma = pi/2 the domain degenerates to
    the unit disc and the sample is the unit circle.
    """
    if gamma >= math.pi / 2:
        th = np.linspace(0.0, 2 * math.pi, 4 * per_piece, endpoint=False)
        return np.exp(1j * th)
    tp, tm = tangent_points(gamma)
    # uniform plus geometric cluster at the vertex end
    u = np.linspace(0.0, 1.0, per_piece)
    g = np.geomspace(1e-14, 1.0, per_piece // 2)
    s = np.unique(np.concatenate([u, g]))
    seg_up = 1.0 + s * (tp - 1.0)
    seg_dn = 1.0 + s * (tm - 1.0)
    th = np.linspace(math.pi / 2 - gamma, 3 * math.pi / 2 + gamma, 2 * per_piece)
    arc = math.sin(gamma) * np.exp(1j * th)
    return np.concatenate([seg_up, seg_dn, arc])
