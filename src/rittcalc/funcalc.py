"""Holomorphic functional calculus on Stolz domains, at matrix scale.

phi(T) is computed three ways and the routes are cross-checkable:

* direct Horner evaluation for polynomials (and rational functions),
* the counterclockwise boundary integral
  (1 / 2 pi i) * integral of phi(z) R(z, T) dz over the Stolz boundary
  at an angle beta between the spectral type of T and the target angle,
* eigendecomposition for diagonalizable T (oracle for fractional powers).

The contour route needs phi to vanish at the vertex when 1 belongs to
the spectrum; that is carried by an explicit growth certificate
|phi(z)| <= c |1 - z|^s.  Polynomials vanishing at 1 get a rigorous
certificate automatically (synthetic division, coefficient-sum bound).

A sectorial route for A = I - T over a truncated sector boundary
realizes the transfer identity f(A) = phi(T), phi(z) = f(1 - z), as two
independent quadratures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import numlin, ritt, stolz
from .numlin import SpaceModel, as_matrix
from .stolz import MeshSpec, NOT_STOLZ

__all__ = [
    "HolomorphicFn",
    "CalcReport",
    "AdmissibilityError",
    "ContourSpectrumError",
    "poly",
    "rational",
    "from_callable",
    "frac_power_fn",
    "named_function",
    "eval_poly",
    "ContourCalculus",
    "eval_contour",
    "frac_power",
    "frac_power_eig",
    "scaled_calculus",
    "scaling_convergence",
    "transfer_check",
    "hinf_norm",
    "hinf_vector_norm",
    "hinf_matrix_norm",
    "calculus_constant",
    "evenodd_split",
    "nevanlinna_diag",
]

QUAD_TARGET_REL = 1e-8
REFINE_ROUNDS = 4
#: the vertex disc, which holds every eigenvalue that ritt counts as 1
VERTEX_CLUSTER = ritt._ONE_TOL_MAX
MIN_CERT_S = 0.5


class AdmissibilityError(ValueError):
    """phi cannot be integrated against this operator's resolvent."""


class ContourSpectrumError(ValueError):
    """The requested contour collides with (or encloses part of) the spectrum.

    When a quadrature node is refused, ``node`` is that node and
    ``rcond`` the reciprocal condition number of z I - T there.
    """

    def __init__(self, msg: str, node: Optional[complex] = None,
                 rcond: Optional[float] = None):
        super().__init__(msg)
        self.node = node
        self.rcond = rcond


def _node_resolvents(U: np.ndarray, nodes: np.ndarray, what: str) -> np.ndarray:
    """numlin.triangular_resolvents, with a refused node raised as
    ContourSpectrumError."""
    try:
        return numlin.triangular_resolvents(U, nodes)
    except numlin.SingularMatrixError as exc:
        raise ContourSpectrumError(f"{what} node too close to the spectrum: {exc}",
                                   node=exc.node, rcond=1.0 / exc.cond_estimate) from exc


@dataclass
class HolomorphicFn:
    """A scalar holomorphic function with optional structure.

    ``kind`` is one of ``polynomial`` (ascending ``coeffs``),
    ``rational`` (``coeffs``/``den_coeffs``) or ``closure``.  The
    ``h0_certificate`` (c, s) asserts |phi(z)| <= c |1 - z|^s on the
    Stolz domains in use, which is what makes the boundary integral
    absolutely convergent when 1 is in the spectrum.
    """

    evaluator: Callable
    kind: str = "closure"
    coeffs: Optional[np.ndarray] = None
    den_coeffs: Optional[np.ndarray] = None
    h0_certificate: Optional[tuple] = None
    label: str = ""

    def __call__(self, z):
        return self.evaluator(z)


def _horner(coeffs: np.ndarray):
    """Horner evaluator of ascending coefficients (D,), or (D, F, 1) for F
    polynomials at once (see _poly_stack)."""
    def ev(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(coeffs.shape[1:], dtype=complex)  # broadcast by the first step
        for c in coeffs[::-1]:
            out = out * z + c
        return out if out.shape else complex(out)

    return ev


def poly(coeffs: Sequence[complex], label: str = "") -> HolomorphicFn:
    """Polynomial from ascending coefficients.

    When phi(1) = 0 a growth certificate |phi| <= c |1-z| is attached
    with c = sum |g_k| for the synthetic quotient g = phi / (1 - z),
    valid on the closed unit disc and hence on every Stolz closure.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0:
        c = np.zeros(1, dtype=complex)
    fn = HolomorphicFn(evaluator=_horner(c), kind="polynomial", coeffs=c,
                       label=label or f"poly deg {len(c) - 1}")
    val1 = complex(np.sum(c))
    if abs(val1) <= 1e-13 * (1.0 + float(np.sum(np.abs(c)))):
        # phi(z) = (1 - z) g(z); Horner-style synthetic division by (1 - z)
        g = np.zeros(max(len(c) - 1, 1), dtype=complex)
        acc = 0.0 + 0.0j
        for k in range(len(c) - 1, 0, -1):
            acc = acc + c[k]
            g[k - 1] = -acc  # phi = (z-1) q  =>  phi = (1-z)(-q)
        fn.h0_certificate = (float(np.sum(np.abs(g))), 1.0)
    return fn


def rational(num: Sequence[complex], den: Sequence[complex],
             label: str = "") -> HolomorphicFn:
    """Rational function num/den, ascending coefficients."""
    n = np.asarray(list(num), dtype=complex)
    d = np.asarray(list(den), dtype=complex)
    ev_n, ev_d = _horner(n), _horner(d)

    def ev(z):
        return ev_n(z) / ev_d(z)

    return HolomorphicFn(evaluator=ev, kind="rational", coeffs=n, den_coeffs=d,
                         label=label or "rational")


def from_callable(f: Callable, certificate: Optional[tuple] = None,
                  label: str = "") -> HolomorphicFn:
    return HolomorphicFn(evaluator=lambda z: f(np.asarray(z, dtype=complex)),
                         kind="closure", h0_certificate=certificate,
                         label=label or "closure")


def frac_power_fn(delta: float) -> HolomorphicFn:
    """phi_delta(z) = (1 - z)^delta, principal branch (positive on [0, 1))."""
    if delta <= 0:
        raise ValueError("delta must be positive")

    def ev(z):
        return np.power(1.0 - np.asarray(z, dtype=complex), delta)

    return HolomorphicFn(evaluator=ev, kind="closure",
                         h0_certificate=(1.0, float(delta)),
                         label=f"(1-z)^{delta}")


_NAMED = {
    "one": lambda: poly([1.0], label="one"),
    "id": lambda: poly([0.0, 1.0], label="id"),
    "one-minus": lambda: poly([1.0, -1.0], label="one-minus"),
    "z-one-minus": lambda: poly([0.0, 1.0, -1.0], label="z-one-minus"),
}


def named_function(spec: str) -> HolomorphicFn:
    """Parse a function spec: 'poly:c0,c1,...', 'frac:delta' or a builtin name."""
    if spec.startswith("poly:"):
        parts = spec[5:].split(",")
        return poly([complex(p) for p in parts], label=spec)
    if spec.startswith("frac:"):
        return frac_power_fn(float(spec[5:]))
    if spec in _NAMED:
        return _NAMED[spec]()
    raise ValueError(f"unknown function spec {spec!r}")


# ---------------------------------------------------------------------------
# direct routes
# ---------------------------------------------------------------------------

def _poly_coeffs(phi) -> np.ndarray:
    """Ascending coefficients of a polynomial HolomorphicFn or sequence."""
    if isinstance(phi, HolomorphicFn):
        if phi.kind != "polynomial":
            raise ValueError("eval_poly needs a polynomial")
        return phi.coeffs
    return np.asarray(list(phi), dtype=complex)


def eval_poly(T, phi) -> np.ndarray:
    """Horner evaluation of a polynomial at a matrix."""
    T = as_matrix(T, square=True)
    coeffs = _poly_coeffs(phi)
    n = T.shape[0]
    out = np.zeros((n, n), dtype=complex)
    I = np.eye(n, dtype=complex)
    for c in coeffs[::-1]:
        out = out @ T + c * I
    return out


def frac_power_eig(T, delta: float) -> np.ndarray:
    """Eigendecomposition oracle V diag((1-lam)^delta) V^-1 (diagonalizable T)."""
    spec = numlin.eig(T, vectors=True)
    if not np.isfinite(spec.condition_estimate) or spec.condition_estimate > 1e8:
        raise numlin.EigNonConvergence(
            f"eigenvector matrix too ill conditioned ({spec.condition_estimate:.2e}) "
            "for a trustworthy eigendecomposition oracle")
    V = spec.eigenvectors
    d = np.power(1.0 - spec.eigenvalues, delta)
    return V @ np.diag(d) @ np.linalg.inv(V)


# ---------------------------------------------------------------------------
# contour route
# ---------------------------------------------------------------------------

@dataclass
class CalcReport:
    """Result of a contour evaluation with its two-mesh error estimate."""

    value: np.ndarray
    error_estimate: float
    beta: float
    node_count: int
    meta: dict = field(default_factory=dict)
    #: False when the refinement rounds ran out before the quadrature target
    converged: bool = True
    refine_rounds: int = 0

    def to_json_dict(self) -> dict:
        from .jsonutil import matrix_to_json, sanitize

        d = {
            "value": matrix_to_json(self.value),
            "error_estimate": self.error_estimate,
            "beta": self.beta,
            "node_count": self.node_count,
            "converged": self.converged,
            "refine_rounds": self.refine_rounds,
        }
        d.update(sanitize(self.meta))
        return sanitize(d)


def _cauchy_sum(Q: np.ndarray, contour: stolz.Contour, X: np.ndarray,
                phi: HolomorphicFn) -> np.ndarray:
    """(1 / 2 pi i) sum_j w_j t_j phi(z_j) R_j, the quadrature of the Cauchy
    integral of phi, with R_j = Q X_j Q^H the resolvent at the node z_j
    and X the triangular stack of :func:`numlin.triangular_resolvents`: the
    sum is taken in Schur coordinates and transformed back once."""
    vals = np.asarray(phi(contour.nodes), dtype=complex)
    coeff = contour.weights * contour.tangents * vals / (2j * math.pi)
    n = Q.shape[0]
    # fixed-order reduction over nodes
    return Q @ (X.reshape(n * n, -1) @ coeff).reshape(n, n) @ Q.conj().T


def _check_separation(nodes: np.ndarray, eigs: np.ndarray, what: str) -> None:
    """Refuse a contour with a node inside the spectrum tolerance."""
    dist = np.abs(nodes[:, None] - eigs[None, :]).min(axis=1)
    j = int(np.argmin(dist))
    if dist[j] <= 1e-13 * (1.0 + np.abs(eigs).max()):
        raise ContourSpectrumError(
            f"{what} node z={complex(nodes[j]):.6g} hits the spectrum tolerance "
            f"(distance {dist[j]:.3e})", node=complex(nodes[j]))


class ContourCalculus:
    """Shared contour machinery for one operator at one angle.

    The operator under the contour is reduced to its complex Schur form
    once; each mesh level stores the triangular resolvents of every node,
    reused across functions, so applying a whole test family costs one
    triangular sweep per level and one back-transform per sum.  The
    final contour sum runs in a fixed sequential order for
    reproducibility.  A semisimple eigenvalue 1 is split off with the
    mean ergodic projection P, so the contour runs on T - P; a
    defective one raises ContourSpectrumError.
    """

    def __init__(self, T, beta: Optional[float] = None,
                 gamma: Optional[float] = None,
                 mesh: Optional[MeshSpec] = None, *, _spectrum=None):
        self.T = as_matrix(T, square=True)
        self.eigs, one = _spectrum or ritt._spectrum(self.T)  # a caller's, if it has one
        self.alpha = ritt._stolz_type(self.eigs, one)
        if self.alpha == NOT_STOLZ:
            raise ContourSpectrumError("spectrum lies in no Stolz closure")
        if beta is None:
            if gamma is None:
                gamma = 0.5 * (self.alpha + math.pi / 2)
            beta = 0.5 * (self.alpha + gamma)  # needs alpha < beta < gamma
        if beta <= self.alpha and self.alpha > 0:
            raise ContourSpectrumError(
                f"beta={beta:.6g} must exceed the spectral type {self.alpha:.6g}")
        if not 0.0 < beta < math.pi / 2:
            raise ContourSpectrumError(f"beta={beta:.6g} outside (0, pi/2)")
        self.beta = float(beta)
        self.mesh0 = mesh or MeshSpec()
        self._vertex_in_spectrum = bool(
            np.any(np.abs(self.eigs - 1.0) <= VERTEX_CLUSTER))
        # a semisimple eigenvalue 1 is split off, since the quadrature
        # nodes close to the vertex would meet it: with P the mean ergodic
        # projection, T - P has 0 where T has 1, and an admissible phi
        # vanishes at 1, so phi(T) = phi(T - P) - phi(0) P
        self._P = None
        self._A = self.T  # the operator under the contour
        self._A_eigs = self.eigs
        if one.any():  # inside the vertex disc: the tolerance is capped there
            try:
                self._P = ritt.mean_ergodic_projection(self.T)
            except numlin.SingularMatrixError as exc:
                raise ContourSpectrumError(f"contour calculus: {exc}") from exc
            self._A = self.T - self._P
            self._A_eigs = np.where(one, 0.0, self.eigs)
        self._vertex_under_contour = bool(
            np.any(np.abs(self._A_eigs - 1.0) <= VERTEX_CLUSTER))
        self._U, self._Q = numlin.schur(self._A)
        self._levels: list = []  # (contour, triangular resolvents (n,n,m))

    def _level(self, k: int):
        while len(self._levels) <= k:
            mesh = self.mesh0
            for _ in range(len(self._levels)):
                mesh = mesh.refined()
            contour = stolz.boundary_contour(self.beta, mesh)
            X = _node_resolvents(self._U, contour.nodes, "quadrature")
            _check_separation(contour.nodes, self._A_eigs, "quadrature")
            self._levels.append((contour, X))
        return self._levels[k]

    def _check_admissible(self, phi: HolomorphicFn):
        if not self._vertex_in_spectrum:
            return
        cert = phi.h0_certificate
        # once 1 is split off phi only has to vanish there (s > 0); a
        # spectrum left at the vertex also needs the decay s >= MIN_CERT_S
        # that makes the integral converge
        if self._vertex_under_contour:
            ok, need = cert is not None and cert[1] >= MIN_CERT_S, f">= {MIN_CERT_S}"
        else:
            ok, need = cert is not None and cert[1] > 0.0, "> 0"
        if not ok:
            raise AdmissibilityError(
                "1 lies in the spectrum: phi needs an h0 certificate with "
                f"exponent s {need} (got {cert!r})")

    def apply(self, phi: HolomorphicFn) -> CalcReport:
        """phi(T) with a two-mesh (coarse vs refined) error estimate."""
        self._check_admissible(phi)
        coarse = _cauchy_sum(self._Q, *self._level(0), phi)
        best = coarse
        est = math.inf
        used = 0
        converged = False
        for k in range(1, REFINE_ROUNDS + 1):
            fine = _cauchy_sum(self._Q, *self._level(k), phi)
            est = float(np.linalg.norm(fine - best, 2))
            best = fine
            used = k
            if est <= QUAD_TARGET_REL * (1.0 + np.linalg.norm(fine, 2)):
                converged = True
                break
        contour, _ = self._level(used)
        est += 1e-11 * (1.0 + float(np.linalg.norm(best, 2)))  # roundoff floor
        if self._P is not None:
            phi0 = np.asarray(phi(np.zeros(1, dtype=complex)), dtype=complex).reshape(-1)[0]
            best = best - phi0 * self._P
        return CalcReport(value=best, error_estimate=est, beta=self.beta,
                          node_count=len(contour.nodes),
                          meta={"label": phi.label, "alpha": self.alpha},
                          converged=converged, refine_rounds=used)


def eval_contour(T, phi: HolomorphicFn, beta: Optional[float] = None,
                 gamma: Optional[float] = None,
                 mesh: Optional[MeshSpec] = None) -> CalcReport:
    """phi(T) by the Stolz boundary integral (see :class:`ContourCalculus`)."""
    return ContourCalculus(T, beta=beta, gamma=gamma, mesh=mesh).apply(phi)


def frac_power(T, delta: float, beta: Optional[float] = None,
               mesh: Optional[MeshSpec] = None) -> CalcReport:
    """(I - T)^delta via the contour; cross-check with frac_power_eig.

    A semisimple eigenvalue 1 is split off by :class:`ContourCalculus`;
    a defective one raises ContourSpectrumError.
    """
    return eval_contour(T, frac_power_fn(delta), beta=beta, mesh=mesh)


def scaled_calculus(T, phi: HolomorphicFn, r: float,
                    beta: Optional[float] = None,
                    mesh: Optional[MeshSpec] = None) -> CalcReport:
    """phi(rT) for 0 < r < 1 (the scaling approximation of phi(T))."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    T = as_matrix(T, square=True)
    return eval_contour(r * T, phi, beta=beta, mesh=mesh)


def scaling_convergence(T, phi: HolomorphicFn,
                        rs: Sequence[float] = (0.9, 0.99, 0.999),
                        beta: Optional[float] = None) -> dict:
    """||phi(rT) - phi(T)|| for each r; decays as r -> 1 for admissible phi."""
    base = eval_contour(T, phi, beta=beta).value
    out = {}
    for r in rs:
        out[r] = float(np.linalg.norm(scaled_calculus(T, phi, r, beta=beta).value - base, 2))
    return out


# ---------------------------------------------------------------------------
# sectorial transfer
# ---------------------------------------------------------------------------

def _sector_quad(A: np.ndarray, f: HolomorphicFn, contour: stolz.Contour,
                 zr: complex) -> tuple:
    """The sector quadrature of f at A and |zr| ||R(zr, A)||_2, both from
    one Schur form A = Q U Q^H (||R(zr, A)||_2 = ||X(zr)||_2) and the sweep."""
    U, Q = numlin.schur(A)
    X = _node_resolvents(U, contour.nodes, "sector")
    _check_separation(contour.nodes, np.diag(U), "sector")
    Xr = _node_resolvents(U, [zr], "sector")[..., 0]
    return _cauchy_sum(Q, contour, X, f), abs(zr) * float(np.linalg.norm(Xr, 2))


def transfer_check(T, f: HolomorphicFn, nu: Optional[float] = None,
                   r_max: float = 1e7,
                   sector_mesh: Optional[MeshSpec] = None,
                   stolz_mesh: Optional[MeshSpec] = None) -> dict:
    """Compare the two independent routes of the transfer identity.

    lhs: sectorial boundary integral of f at A = I - T (polynomial f is
    evaluated directly instead, since it has no sector decay).
    rhs: Stolz boundary integral of phi(z) = f(1 - z) at T.
    Returns {"lhs", "rhs", "diff", ...} with the truncation estimate.
    """
    T = as_matrix(T, square=True)
    n = T.shape[0]
    A = np.eye(n, dtype=complex) - T
    spectrum = ritt._spectrum(T)
    alpha = ritt._stolz_type(*spectrum)
    if alpha == NOT_STOLZ:
        raise ContourSpectrumError("spectrum lies in no Stolz closure")
    if nu is None:
        nu = 0.5 * (alpha + math.pi / 2)
    if not alpha < nu < math.pi / 2:
        raise ContourSpectrumError(
            f"sector angle nu={nu:.6g} must lie in (alpha, pi/2)")

    tail = 0.0
    if f.kind == "polynomial":
        lhs = eval_poly(A, f)
    else:
        if f.h0_certificate is None:
            raise AdmissibilityError(
                "sector route needs a decay certificate |f| <= c min(|z|^s, |z|^-s)")
        c, s = f.h0_certificate
        mesh = sector_mesh or MeshSpec(segment_panels=90, arc_panels=1,
                                       points_per_panel=10, grading_ratio=0.5,
                                       min_panel=1e-14)
        sc = stolz.sector_contour(nu, r_max, mesh)
        # resolvent scale on the outer truncation circle
        lhs, c_res = _sector_quad(A, f, sc, r_max * cmath.exp(1j * nu))
        tail = c * c_res * sc.tail_factor(s)

    phi = HolomorphicFn(evaluator=lambda z: f(1.0 - np.asarray(z, dtype=complex)),
                        kind="closure", h0_certificate=f.h0_certificate,
                        label=f"{f.label or 'f'}(1-z)")
    rhs_report = ContourCalculus(T, gamma=nu, mesh=stolz_mesh, _spectrum=spectrum).apply(phi)
    diff = float(np.linalg.norm(lhs - rhs_report.value, 2))
    return {
        "lhs": lhs,
        "rhs": rhs_report.value,
        "diff": diff,
        "nu": nu,
        "truncation_estimate": tail,
        "stolz_error_estimate": rhs_report.error_estimate,
    }


# ---------------------------------------------------------------------------
# sup norms on the domain boundary
# ---------------------------------------------------------------------------

def _golden_max(fun, a: np.ndarray, b: np.ndarray, rounds: int = 60) -> np.ndarray:
    """Golden-section maximum search on each row's bracket [a, b], the F
    rows in lockstep: each round evaluates ``fun`` once, at (F, 1) points."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = fun(np.stack([c, d], axis=1)).T
    for _ in range(rounds):
        up = fc < fd  # keep [c, b] and probe right of d, else [a, d] left of c
        a, b = np.where(up, c, a), np.where(up, b, d)
        w = r * (b - a)
        x = np.where(up, a + w, b - w)
        fx = fun(x[:, None])[:, 0]
        c, d = np.where(up, d, x), np.where(up, x, c)
        fc, fd = np.where(up, fd, fx), np.where(up, fx, fc)
    return np.maximum(fc, fd)


def _boundary_sup(fun, gamma: float, per_piece: int) -> np.ndarray:
    """Row-wise sup of F nonnegative functions over the Stolz boundary.

    ``fun`` maps (F, m) points, or a (1, m) row shared by all F, to the
    (F, m) values.  Maximum modulus makes the boundary sup equal the
    domain sup for |phi| and its vector/matrix variants.  Each piece is
    evaluated on its whole grid, then polished about each row's argmax.
    """
    best = []
    for k, (grid, point, wraps) in enumerate(stolz.boundary_param(gamma, per_piece)):
        on_piece = lambda t, point=point: fun(point(t))
        vals = on_piece(grid[None, :])
        if np.isnan(vals).any():  # argmax and max would pass a nan on
            f, j = np.argwhere(np.isnan(vals))[0]
            raise ValueError(f"function {f} is nan on boundary piece {k} "
                             f"at z = {complex(point(grid[j]))}")
        i = np.argmax(vals, axis=1)
        if wraps:  # an angle: one step either side
            lo, hi = grid[i] - 2 * math.pi / grid.size, grid[i] + 2 * math.pi / grid.size
        else:  # the grid neighbours, clipped at the ends
            lo, hi = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, grid.size - 1)]
        best.append(np.maximum(vals.max(axis=1), _golden_max(on_piece, lo, hi)))
    return np.max(best, axis=0)


def _modulus(fn, z: np.ndarray) -> np.ndarray:
    """|fn(z)|, rounded as Python's abs(complex); a constant fills z's shape."""
    y = np.asarray(fn(z), dtype=complex)
    if y.ndim < z.ndim:
        y = np.broadcast_to(y, z.shape)
    return np.hypot(y.real, y.imag)


def _poly_stack(polys: Sequence):
    """One Horner over F polynomials' coefficients, zero-padded at the high
    end: maps (F, m) or (1, m) points to the (F, m) values."""
    rows = [_poly_coeffs(phi) for phi in polys]
    C = np.zeros((max(map(len, rows), default=1), len(rows), 1), dtype=complex)
    for f, c in enumerate(rows):
        C[:len(c), f, 0] = c
    return _horner(C)


def _stack(fns: Sequence):
    """Evaluator of F functions at shared points: (1, m) to (F, m)."""
    return lambda z: np.concatenate([np.broadcast_to(f(z), z.shape) for f in fns])


def hinf_norm(phi, gamma: float, per_piece: int = 512) -> float:
    """sup of |phi| over B(gamma) (gamma = pi/2 means the unit disc)."""
    fn = phi if callable(phi) else _horner(np.asarray(phi, dtype=complex))
    return float(_boundary_sup(lambda z: _modulus(fn, z), gamma, per_piece)[0])


def hinf_vector_norm(phis: Sequence, gamma: float, per_piece: int = 512) -> float:
    """sup over the boundary of the l2 norm of (phi_1(z), ..., phi_n(z))."""
    ev = _stack(phis)

    def fun(z):
        acc = 0.0
        for v in _modulus(ev, z):  # the squares added in the order of phis
            acc = acc + v ** 2
        return np.sqrt(acc)[None]

    return float(_boundary_sup(fun, gamma, per_piece)[0])


def hinf_matrix_norm(phi_matrix, gamma: float, per_piece: int = 256) -> float:
    """sup over the boundary of the spectral norm of the n x n [phi_lj(z)]."""
    n = len(phi_matrix)
    if n == 0 or any(len(row) != n for row in phi_matrix):
        raise ValueError(f"phi_matrix must be square, got {n} rows of lengths "
                         f"{[len(row) for row in phi_matrix]}")
    ev = _stack([phi for row in phi_matrix for phi in row])

    def fun(z):
        F = np.moveaxis(ev(z).reshape(n, n, -1), -1, 0)  # (m, n, n)
        return np.linalg.svd(F, compute_uv=False).max(axis=-1)[None]

    return float(_boundary_sup(fun, gamma, per_piece)[0])


# ---------------------------------------------------------------------------
# calculus constants and diagonal estimates
# ---------------------------------------------------------------------------

def default_test_family(seed: int = 0, max_k: int = 64, max_j: int = 4,
                        n_random: int = 200, random_deg: int = 32,
                        n_fejer: int = 16) -> list:
    """Polynomial test family: z^k (1-z)^j, random coefficients, Fejer kernels."""
    fam = []
    for j in range(max_j + 1):
        base = np.array([1.0], dtype=complex)
        for _ in range(j):
            base = np.convolve(base, np.array([1.0, -1.0], dtype=complex))
        for k in range(max_k + 1):
            coeffs = np.concatenate([np.zeros(k, dtype=complex), base])
            fam.append(poly(coeffs, label=f"z^{k}(1-z)^{j}"))
    rng = np.random.Generator(np.random.Philox(key=seed))
    for i in range(n_random):
        deg = int(rng.integers(1, random_deg + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        fam.append(poly(coeffs, label=f"random#{i}"))
    for m in range(1, n_fejer + 1):
        coeffs = np.array([1.0 - j / (m + 1.0) for j in range(m + 1)], dtype=complex)
        fam.append(poly(coeffs, label=f"fejer#{m}"))
    return fam


def calculus_constant(T, gamma: float, space: SpaceModel,
                      family: Optional[list] = None, seed: int = 0) -> float:
    """Certified lower bound for the best calculus constant K on B(gamma).

    max over the polynomial family of ||phi(T)|| / sup_{B(gamma)} |phi|;
    polynomials are evaluated directly so no contour admissibility is
    needed.  gamma = pi/2 gives the polynomial-boundedness diagnostic
    over the unit disc.  The norms come from one stacked
    :func:`rittcalc.numlin.op_norms` call over the family.
    """
    T = as_matrix(T, square=True)
    fam = family if family is not None else default_test_family(seed)
    fun = _poly_stack(fam)
    denoms = _boundary_sup(lambda z: _modulus(fun, z), gamma, 256)
    kept = [(phi, float(d)) for phi, d in zip(fam, denoms) if d > 0]
    if not kept:
        return 0.0
    # one stacked op_norms: each value is op_norm's, bit for bit
    nums = numlin.op_norms(np.stack([eval_poly(T, phi) for phi, _ in kept]), space)
    return float(max([0.0, *(num / d for num, (_, d) in zip(nums, kept))]))


def evenodd_split(phi: HolomorphicFn):
    """Unique split phi(z) = phi1(z^2) + z phi2(z^2) by coefficient parity."""
    if phi.kind != "polynomial":
        raise ValueError("even/odd split is defined for polynomials")
    c = phi.coeffs
    return poly(c[0::2], label=f"{phi.label}:even"), poly(c[1::2], label=f"{phi.label}:odd")


def nevanlinna_diag(T, phi: HolomorphicFn, space: SpaceModel, N: int,
                    gamma: Optional[float] = None) -> dict:
    """sup over k <= N of k ||phi(T) (T^k - T^(k-1))||, and its ratio to sup|phi|.

    The diagonal family k phi(T) T^(k-1) (T - I) stays bounded in k for
    Ritt operators, with a constant controlled by sup |phi| on a Stolz
    domain; the ratio reported here is the measured constant.
    """
    T = as_matrix(T, square=True)
    if phi.kind == "polynomial":
        phiT = eval_poly(T, phi)
    else:
        phiT = eval_contour(T, phi, gamma=gamma).value
    row = ritt.decay_profiles(T, space, N, orders=(1,), left=phiT)[0]
    sup = float(row.max())
    arg = 1 + int(np.argmax(row)) if sup > 0 else 0
    g = gamma if gamma is not None else 0.5 * (ritt.spectral_type(T) + math.pi / 2)
    denom = hinf_norm(phi, g, per_piece=256)
    return {
        "sup": sup,
        "argmax_k": arg,
        "hinf": denom,
        "ratio": sup / denom if denom > 0 else math.inf,
        "gamma": g,
    }
