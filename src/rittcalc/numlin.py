"""Dense complex linear algebra substrate and the four norm models.

Everything downstream manipulates plain ``numpy`` arrays: operators are
square complex matrices, vectors are 1-d arrays, and Schatten-class
elements are square matrices that operators act on through their
row-major vectorization.  The four norm structures (Euclidean, weighted
sequence-p, Schatten-p, sup) are frozen dataclasses, so reports can
record exactly which geometry was used, and each one owns its norms,
its operator norms, its dual and its square sums.

Operator p-norms for p != 2 are NP-hard in general; ``op_norm`` returns
a certified lower bound (norm-ascent with restarts, witness attached)
together with an interpolation-style upper bound.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np
import scipy.linalg

__all__ = [
    "Hilbert",
    "LpWeighted",
    "SchattenP",
    "SupSeq",
    "SpaceModel",
    "Spectrum",
    "OpNormResult",
    "ShapeError",
    "SingularMatrixError",
    "EigNonConvergence",
    "PowerOverflow",
    "as_matrix",
    "as_operator",
    "check_vector",
    "eig",
    "solve",
    "resolvents",
    "resolvent_block_len",
    "svd",
    "vec_norm",
    "op_norm",
    "op_norms",
    "mat_power_seq",
    "power_blocks",
]

SOLVE_TOL = 1e-10
RCOND_MIN = 1e-14
#: bytes of n x n complex matrices that :func:`resolvents` handles per block
RESOLVENT_BLOCK_BYTES = 2 * 1024 * 1024
#: random starts of the Boyd ascent, after the ones vector and the top
#: right singular vector, and the Philox key of their stream
ASCENT_RESTARTS = 8
ASCENT_SEED = 0
_EPS = np.finfo(float).eps


class ShapeError(ValueError):
    """Raised when an array's shape is incompatible with the operation."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a linear system is singular to working tolerance.

    ``node`` is the shift z of the refused system z I - T when the error
    comes from :func:`resolvents`.
    """

    def __init__(self, msg: str, cond_estimate: float = np.inf,
                 node: Optional[complex] = None):
        super().__init__(msg)
        self.cond_estimate = cond_estimate
        self.node = node


class EigNonConvergence(np.linalg.LinAlgError):
    """Raised when the eigensolver fails to converge (never silent)."""


class PowerOverflow(OverflowError):
    """Raised when an iterated matrix power overflows to inf/nan."""

    def __init__(self, n: int):
        super().__init__(f"matrix power overflowed to non-finite entries at n={n}")
        self.n = n


# ---------------------------------------------------------------------------
# space models
# ---------------------------------------------------------------------------
#
# Every model answers the same questions: ``dim`` (the vector length its
# operators act on), ``exact`` (whether ``op_norm`` is exact), ``dual()``,
# ``norms(V)`` along the last axis of a stack of flat elements,
# ``op_norms(stack)``, ``op_norm(M)``, ``scaled_resolvent_norms(T, z)``
# (the norms of (z_j - 1) R(z_j, T) for one block of nodes), and the two
# halves of the square-function accumulator, ``square_term(y, side)`` and
# ``square_norm(acc)``, which take one element or a stack of them.
# Inputs are checked by the public functions below.

class _Pointwise:
    """Sequence models: the square sum sits inside the norm, pointwise."""

    def square_term(self, y: np.ndarray, side: str) -> np.ndarray:
        return np.abs(y) ** 2

    def square_norm(self, acc: np.ndarray) -> np.ndarray:
        return self.norms(np.sqrt(acc))


@dataclass(frozen=True)
class Hilbert:
    """Euclidean model C^dim."""

    dim: int
    exact = True

    def dual(self) -> Hilbert:
        return self

    def norms(self, V: np.ndarray) -> np.ndarray:
        # a single element keeps the BLAS dot of np.linalg.norm(x)
        return np.linalg.norm(V, axis=None if V.ndim == 1 else -1)

    def op_norms(self, A: np.ndarray) -> np.ndarray:
        return _spectral_norms(A)

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        return _spectral_op_norm(M)

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _singular_resolvent_norms(T, z)

    def square_term(self, y: np.ndarray, side: str) -> np.ndarray:
        # a single element keeps the BLAS dot of np.vdot
        if y.ndim == 1:
            return np.vdot(y, y).real
        return np.sum(y.real ** 2 + y.imag ** 2, axis=-1)

    def square_norm(self, acc: np.ndarray) -> np.ndarray:
        return np.sqrt(acc)


@dataclass(frozen=True)
class LpWeighted(_Pointwise):
    """Weighted sequence space: ||x|| = (sum_i w_i |x_i|^p)^(1/p), 1 < p < inf."""

    p: float
    weights: tuple = ()
    #: set on a model made by dual(): the exponent it is the dual of
    _conjugate_p = None
    exact = False

    def __post_init__(self):
        if not 1.0 < self.p < np.inf:
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or np.any(w <= 0):
            raise ValueError("weights must be a nonempty strictly positive tuple")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def dual(self) -> LpWeighted:
        return _dual_model(self)

    def norms(self, V: np.ndarray) -> np.ndarray:
        w = np.asarray(self.weights)
        return np.sum(w * np.abs(V) ** self.p, axis=-1) ** (1.0 / self.p)

    def op_norms(self, A: np.ndarray) -> np.ndarray:
        return _boyd_ascent(self._unweighted(A)[0], self)[0]

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        p = self.p
        A, D = self._unweighted(M)
        values, witnesses = _boyd_ascent(A[None], self)
        lower = float(values[0])
        # Riesz-Thorin bracket between the (weighted) 1- and inf-norms
        n1 = float(np.max(np.sum(np.abs(A), axis=0)))
        ninf = float(np.max(np.sum(np.abs(A), axis=1)))
        upper_rt = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)
        upper_eq = self.dim ** abs(0.5 - 1.0 / p) * float(svd(A)[0])
        upper = max(lower, min(upper_rt, upper_eq))
        return OpNormResult(value=lower, upper=upper, exact=False, witness=witnesses[0] / D)

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _kernel_resolvent_norms(T, z, self)

    def _unweighted(self, M: np.ndarray):
        """``(D M D^-1, D)`` with D = w^(1/p): the realization of M (one
        matrix or a stack) on unweighted p, isometric to the weighted one."""
        D = np.asarray(self.weights) ** (1.0 / self.p)
        return (D[:, None] * M) / D[None, :], D

    def _ascent_kernels(self):
        # the ascent only runs on D A D^-1, so it takes the unweighted kernels
        return (lambda V: _lp_norms(V, self.p)), _lp_dual_maps


@dataclass(frozen=True)
class SchattenP:
    """Schatten class of n x n matrices: ||x|| = (sum_i sigma_i(x)^p)^(1/p).

    Elements are flat row-major vectors of length n^2 wherever a stack of
    them is taken.
    """

    p: float
    n: int
    #: set on a model made by dual(): the exponent it is the dual of
    _conjugate_p = None

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"p must lie in [1, inf), got {self.p}")

    @property
    def dim(self) -> int:
        return self.n * self.n

    @property
    def exact(self) -> bool:
        return self.p == 2.0

    def dual(self) -> SchattenP:
        if self.p == 1.0:
            raise ValueError("dual of Schatten-1 (operator norm) is not a SchattenP model")
        return _dual_model(self)

    def norms(self, V: np.ndarray) -> np.ndarray:
        s = np.linalg.svd(V.reshape(V.shape[:-1] + (self.n, self.n)), compute_uv=False)
        return np.sum(s ** self.p, axis=-1) ** (1.0 / self.p)

    def op_norms(self, A: np.ndarray) -> np.ndarray:
        return _spectral_norms(A) if self.exact else _boyd_ascent(A, self)[0]

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        if self.exact:
            return _spectral_op_norm(M)
        values, witnesses = _boyd_ascent(M[None], self)
        lower = float(values[0])
        upper = max(lower, self.n ** abs(0.5 - 1.0 / self.p) * float(svd(M)[0]))
        return OpNormResult(value=lower, upper=upper, exact=False,
                            witness=witnesses[0].reshape(self.n, self.n))

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.exact:
            return _singular_resolvent_norms(T, z)
        return _kernel_resolvent_norms(T, z, self)

    def square_term(self, y: np.ndarray, side: str) -> np.ndarray:
        """Column (y* y) or row (y y*) square of the element(s) y."""
        Y = y.reshape(y.shape[:-1] + (self.n, self.n))
        YH = np.swapaxes(Y.conj(), -1, -2)
        return YH @ Y if side == "column" else Y @ YH

    def square_norm(self, acc: np.ndarray) -> np.ndarray:
        """Schatten-p norm of acc^(1/2) for positive semidefinite acc (or a stack)."""
        H = 0.5 * (acc + np.swapaxes(acc.conj(), -1, -2))
        ev = np.clip(np.linalg.eigvalsh(H).real, 0.0, None)
        return np.sum(ev ** (self.p / 2.0), axis=-1) ** (1.0 / self.p)

    def _ascent_kernels(self):
        return self.norms, self._dual_maps

    def _dual_maps(self, V: np.ndarray, p: float) -> np.ndarray:
        """Duality maps of the Schatten-p norm, one stacked SVD for the stack V."""
        U, s, Vh = np.linalg.svd(V.reshape(V.shape[:-1] + (self.n, self.n)))
        if p == 1.0:
            out = U @ Vh  # polar factor: a norming subgradient of the trace norm
        elif p == np.inf:
            out = U[..., :, :1] * Vh[..., :1, :]  # top singular dyad
        else:
            out = (U * (s[..., None, :] ** (p - 1.0))) @ Vh
        return out.reshape(V.shape)


def _dual_model(space):
    """``space`` at the conjugate exponent, carrying ``space.p`` so that its
    own dual is ``space`` exactly.

    The exponent is an instance attribute, not a dataclass field, so ``==``,
    ``hash``, ``repr``, ``dataclasses.fields`` and ``dataclasses.replace``
    do not see it (a replaced copy computes p / (p - 1) afresh).
    """
    q = space.p / (space.p - 1.0) if space._conjugate_p is None else space._conjugate_p
    dual = replace(space, p=q)
    object.__setattr__(dual, "_conjugate_p", space.p)
    return dual


@dataclass(frozen=True)
class SupSeq(_Pointwise):
    """Finite sup-norm sequence model: ||x|| = max_i |x_i|."""

    dim: int
    exact = True

    def dual(self):
        raise ValueError(f"no dual model for {self!r}")

    def norms(self, V: np.ndarray) -> np.ndarray:
        return np.max(np.abs(V), axis=-1, initial=0.0)

    def op_norms(self, A: np.ndarray) -> np.ndarray:
        return np.abs(A).sum(axis=2).max(axis=1)

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        rows = np.sum(np.abs(M), axis=1)
        i = int(np.argmax(rows))
        val = float(rows[i])
        witness = np.where(np.abs(M[i]) > 0, np.conj(M[i]) / np.maximum(np.abs(M[i]), 1e-300), 1.0)
        return OpNormResult(value=val, upper=val, exact=True, witness=witness)

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _kernel_resolvent_norms(T, z, self)


SpaceModel = Union[Hilbert, LpWeighted, SchattenP, SupSeq]


# ---------------------------------------------------------------------------
# array plumbing
# ---------------------------------------------------------------------------

def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d complex array (copy only if needed)."""
    M = np.asarray(a, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={M.ndim}")
    if square and M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def as_operator(M, space: SpaceModel) -> np.ndarray:
    """Validate that M is a square operator on the given space."""
    M = as_matrix(M, square=True)
    d = space.dim
    if M.shape[0] != d:
        raise ShapeError(f"operator of size {M.shape[0]} on space of dimension {d}")
    return M


def check_vector(x, space: SpaceModel) -> np.ndarray:
    """Coerce x to the space's element shape: 1-d array, or n x n for Schatten."""
    x = np.asarray(x, dtype=complex)
    if isinstance(space, SchattenP):
        n = space.n
        if x.shape == (n * n,):
            x = x.reshape(n, n)
        if x.shape != (n, n):
            raise ShapeError(f"Schatten element must be {n}x{n} ({n * n} entries), got {x.shape}")
        return x
    x = x.reshape(-1)
    if x.size != space.dim:
        raise ShapeError(f"vector of size {x.size} in space of dimension {space.dim}")
    return x


# ---------------------------------------------------------------------------
# eig / solve / svd
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Eigenvalues in deterministic order (real desc, then imag desc)."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    condition_estimate: float = np.nan


def eig(M, vectors: bool = False) -> Spectrum:
    """Eigenvalues (with multiplicity) of a square matrix.

    Ordering is deterministic: descending real part, ties broken by
    descending imaginary part.  Eigenvector columns follow the same
    permutation; the condition estimate is the condition number of the
    eigenvector matrix (a diagnostic for how trustworthy spectral
    computations are).
    """
    M = as_matrix(M, square=True)
    try:
        if vectors:
            w, V = scipy.linalg.eig(M)
        else:
            w = scipy.linalg.eigvals(M)
            V = None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigNonConvergence(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real))
    w = w[order]
    cond = np.nan
    if V is not None:
        V = V[:, order]
        try:
            cond = float(np.linalg.cond(V))
        except np.linalg.LinAlgError:
            cond = np.inf
    return Spectrum(eigenvalues=w, eigenvectors=V, condition_estimate=cond)


def solve(M, B, tol: float = SOLVE_TOL, rcond_min: float = RCOND_MIN) -> np.ndarray:
    """Solve M X = B with a residual guarantee.

    Raises :class:`SingularMatrixError` when the reciprocal condition
    number falls below ``rcond_min``.  After LU solution, iterative
    refinement drives the residual to ``tol * ||B||`` whenever that is
    attainable in double precision (i.e. ``tol >= ~eps/rcond``);
    otherwise the roundoff-floor residual ``~eps * ||M|| ||X||`` is
    accepted.
    """
    M = as_matrix(M, square=True)
    B = as_matrix(B)
    if B.shape[0] != M.shape[0]:
        raise ShapeError(f"rhs rows {B.shape[0]} != system size {M.shape[0]}")
    anorm = np.linalg.norm(M, 1)
    if anorm == 0.0:
        raise SingularMatrixError("zero matrix", cond_estimate=np.inf)
    import warnings

    with warnings.catch_warnings():
        # exactly singular input surfaces as our SingularMatrixError below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm)
    if info != 0 or not np.isfinite(rcond) or rcond < rcond_min:
        raise SingularMatrixError(
            f"matrix singular to tolerance (rcond={rcond:.3e} < {rcond_min:.1e})",
            cond_estimate=1.0 / max(rcond, np.finfo(float).tiny),
        )
    X = scipy.linalg.lu_solve((lu, piv), B)
    bnorm = np.linalg.norm(B)
    target = tol * bnorm
    for _ in range(3):
        R = B - M @ X
        if np.linalg.norm(R) <= target:
            break
        X = X + scipy.linalg.lu_solve((lu, piv), R)
    resid = np.linalg.norm(B - M @ X)
    floor = 64.0 * _EPS * bnorm / max(rcond, np.finfo(float).tiny)
    if resid > max(target, floor):
        raise SingularMatrixError(
            f"residual {resid:.3e} exceeds tolerance {target:.3e}",
            cond_estimate=1.0 / rcond,
        )
    return X


def resolvent_block_len(n: int) -> int:
    """Nodes per block of :func:`resolvents` for n x n operators."""
    return max(1, RESOLVENT_BLOCK_BYTES // (16 * n * n))


def resolvents(T, nodes) -> np.ndarray:
    """Stacked resolvents (z_j I - T)^-1 for every node z_j, shape (m, n, n).

    Nodes are inverted by stacked LU solves in blocks of about
    ``RESOLVENT_BLOCK_BYTES`` of matrices and written into one
    preallocated output, so no temporary exceeds one block.  Every node
    keeps the guards of :func:`solve`: the reciprocal condition number
    ``1 / (||M||_1 ||X||_1)``, exact because X is the full inverse, must
    reach ``RCOND_MIN``; up to 3 rounds of iterative refinement drive the
    residual to ``SOLVE_TOL * ||I||_F``, and the roundoff floor
    ``64 eps ||I||_F / rcond`` is the most that is accepted.  A refused
    node raises :class:`SingularMatrixError` carrying that node.
    """
    T = as_matrix(T, square=True)
    z = np.asarray(nodes, dtype=complex).reshape(-1)
    n = T.shape[0]
    I = np.eye(n, dtype=complex)
    out = np.empty((z.size, n, n), dtype=complex)
    step = resolvent_block_len(n)
    for s in range(0, z.size, step):
        zb = z[s:s + step]
        out[s:s + step] = _guarded_inverses(zb[:, None, None] * I - T, zb)
    return out


def _stacked_inverse(M: np.ndarray) -> np.ndarray:
    I = np.eye(M.shape[-1], dtype=complex)
    try:
        return np.linalg.solve(M, I)
    except np.linalg.LinAlgError:
        # exactly singular members stay NaN, so the rcond guard refuses them
        X = np.full(M.shape, np.nan, dtype=complex)
        for j, Mj in enumerate(M):
            try:
                X[j] = np.linalg.solve(Mj, I)
            except np.linalg.LinAlgError:
                pass
        return X


def _refuse(detail: str, z: complex, rcond: float):
    rcond = float(rcond) if np.isfinite(rcond) else 0.0
    raise SingularMatrixError(f"resolvent node z={complex(z):.6g}: {detail} (rcond={rcond:.3e})",
                              cond_estimate=1.0 / max(rcond, np.finfo(float).tiny),
                              node=complex(z))


def _guarded_inverses(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inverses of the stack M (one block) under the guards of :func:`solve`."""
    n = M.shape[-1]
    I = np.eye(n, dtype=complex)
    X = _stacked_inverse(M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rcond = 1.0 / (np.abs(M).sum(axis=1).max(axis=1) * np.abs(X).sum(axis=1).max(axis=1))
    bad = ~(rcond >= RCOND_MIN)  # NaN counts as refused
    if bad.any():
        j = int(np.argmax(bad))
        _refuse(f"singular to tolerance, rcond below {RCOND_MIN:.1e}", z[j], rcond[j])
    target = SOLVE_TOL * math.sqrt(n)  # sqrt(n) = ||I||_F
    R = I - M @ X
    resid = np.linalg.norm(R, axis=(1, 2))
    for _ in range(3):
        todo = np.flatnonzero(resid > target)
        if todo.size == 0:
            break
        X[todo] += np.linalg.solve(M[todo], R[todo])
        R[todo] = I - M[todo] @ X[todo]
        resid[todo] = np.linalg.norm(R[todo], axis=(1, 2))
    floor = 64.0 * _EPS * math.sqrt(n) / rcond
    over = resid > np.maximum(target, floor)
    if over.any():
        j = int(np.argmax(over))
        _refuse(f"residual {resid[j]:.3e} exceeds tolerance {target:.3e}", z[j], rcond[j])
    return X


def _kernel_resolvent_norms(T: np.ndarray, z: np.ndarray, space: SpaceModel) -> np.ndarray:
    """||(z_j - 1) R(z_j, T)|| on any model: the guarded inverses of
    :func:`resolvents`, scaled, then :func:`op_norms`."""
    R = resolvents(T, z)
    R *= (z - 1.0)[:, None, None]
    return op_norms(R, space)


def _singular_resolvent_norms(T: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||(z_j - 1) R(z_j, T)||_2 = |z_j - 1| / sigma_min(z_j I - T), from one
    stacked SVD of the shifted block; no inverse is formed.

    A node is refused, as by :func:`resolvents`, when the exact 2-norm
    reciprocal condition number sigma_min / sigma_max of z_j I - T, read
    from the same singular values, is below ``RCOND_MIN`` (NaN counts as
    refused).  An SVD that does not converge raises
    :class:`EigNonConvergence`.
    """
    M = z[:, None, None] * np.eye(T.shape[0], dtype=complex) - T
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigNonConvergence(f"SVD of the shifted resolvent block did not converge: {exc}") from exc
    smin = s[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = smin / s[:, 0]
    bad = ~(rcond >= RCOND_MIN)
    if bad.any():
        j = int(np.argmax(bad))
        _refuse(f"singular to tolerance, 2-norm rcond below {RCOND_MIN:.1e}", z[j], rcond[j])
    return np.abs(z - 1.0) / smin


def svd(M, factors: bool = False):
    """Singular values sorted descending; optionally the (U, s, Vh) factors."""
    M = as_matrix(M)
    try:
        if factors:
            U, s, Vh = scipy.linalg.svd(M)
            return s, U, Vh
        return scipy.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigNonConvergence(f"SVD did not converge: {exc}") from exc


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def vec_norm(x, space: SpaceModel) -> float:
    """Norm of an element in the given space model."""
    return float(space.norms(check_vector(x, space).reshape(-1)))


@dataclass
class OpNormResult:
    """Operator norm estimate: exact value, or a certified [value, upper] bracket.

    ``value`` is always attained by ``witness`` (up to iteration tolerance),
    so it is a true lower bound; ``exact`` marks the models where the norm
    is computed exactly (Hilbert, Schatten-2, sup).
    """

    value: float
    upper: float
    exact: bool
    witness: Optional[np.ndarray] = field(default=None, repr=False)

    def __float__(self) -> float:
        return self.value


def _lp_norms(V: np.ndarray, p: float) -> np.ndarray:
    """Unweighted p-norms of the vectors along the last axis."""
    return np.sum(np.abs(V) ** p, axis=-1) ** (1.0 / p)


def _lp_dual_maps(V: np.ndarray, p: float) -> np.ndarray:
    """Duality map of the p-norm, |v|^(p-1) * phase(v), elementwise and zero-safe."""
    a = np.abs(V)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, (a ** (p - 1.0)) * (V / a), 0.0)


def _top_right_singular(A: np.ndarray) -> np.ndarray:
    """Top right singular vector of each matrix of the stack A, zero where
    the SVD fails (a zero start is skipped by the ascent)."""
    try:
        return np.linalg.svd(A)[2][:, 0].conj()
    except np.linalg.LinAlgError:
        out = np.zeros(A.shape[:2], dtype=complex)
        for j, Aj in enumerate(A):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[j] = np.linalg.svd(Aj)[2][0].conj()
        return out


def _boyd_ascent(A: np.ndarray, space: SpaceModel):
    """Boyd's norm ascent on every start of every matrix of the stack A.

    ``space`` is an LpWeighted, whose kernels are the unweighted p-norm
    ones (A is already D A D^-1), or a Schatten-p model.  Each matrix
    gets the same starts: the ones vector, its top right singular vector
    (one stacked SVD) and ``ASCENT_RESTARTS`` Philox(``ASCENT_SEED``)
    random vectors.  The starts sit in the rows of an (m, S, d) array, so
    an iteration is one batched product with the stack and elementwise or
    stacked-SVD dual maps for every start that has not stopped.  A start
    stops when its value no longer rises by 1e-13 relative, reaches 0, or
    after 200 products.  Every matrix is computed with the same shapes
    whatever its neighbours, so its value does not depend on the stack it
    sits in.

    Returns ``(values, witnesses)``: the largest value of each matrix
    and the first iterate that attained it (the unnormalized ones vector
    when the value is 0).
    """
    p = space.p
    q = np.inf if p == 1.0 else p / (p - 1.0)
    norms, dual_map = space._ascent_kernels()
    m, d, _ = A.shape
    AT = np.ascontiguousarray(A.transpose(0, 2, 1))  # rows: x @ A^T = (A x)^T
    AC = A.conj()                                    # rows: g @ conj(A) = (A^* g)^T

    rng = np.random.Generator(np.random.Philox(key=ASCENT_SEED))
    X = np.empty((m, 2 + ASCENT_RESTARTS, d), dtype=complex)
    ones = np.ones(d, dtype=complex)
    X[:, 0] = ones
    X[:, 1] = _top_right_singular(A)
    for r in range(ASCENT_RESTARTS):
        X[:, 2 + r] = rng.normal(size=d) + 1j * rng.normal(size=d)

    def normalized(V, nv, keep):
        # dead rows are zeroed so every stacked SVD stays finite
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(keep[..., None], V / nv[..., None], 0.0)

    nx = norms(X)
    live = nx > 0
    X = normalized(X, nx, live)
    prev = np.full(live.shape, -np.inf)
    best = np.zeros(live.shape)
    wit = np.empty_like(X)
    for _ in range(200):
        rows = np.flatnonzero(live.any(axis=1))
        if rows.size == 0:
            break
        Xa, lv = X[rows], live[rows]
        Y = Xa @ AT[rows]
        val = norms(Y)
        up = lv & (val > best[rows])
        if up.any():
            j, s = np.nonzero(up)
            best[rows[j], s] = val[j, s]
            wit[rows[j], s] = Xa[j, s]
        go = lv & ~((val <= prev[rows] * (1.0 + 1e-13)) | (val == 0.0))
        prev[rows] = val
        Xn = dual_map(dual_map(Y, p) @ AC[rows], q)
        nx = norms(Xn)
        go &= nx > 0
        X[rows] = normalized(Xn, nx, go)
        live[rows] = go
    first = np.argmax(best, axis=1)  # the first start to reach the maximum
    values = best[np.arange(m), first]
    witnesses = wit[np.arange(m), first]
    witnesses[values == 0.0] = ones
    return values, witnesses


def _spectral_norms(A: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of the stack A."""
    return np.linalg.svd(A, compute_uv=False)[:, 0]


def _spectral_op_norm(M: np.ndarray) -> OpNormResult:
    s, _, Vh = svd(M, factors=True)
    val = float(s[0])
    return OpNormResult(value=val, upper=val, exact=True, witness=Vh[0].conj())


def op_norm(M, space: SpaceModel) -> OpNormResult:
    """Operator norm of M acting on the space.

    Hilbert and Schatten-2: exact (largest singular value).  Sup model:
    exact (maximum absolute row sum).  Weighted-p and Schatten-p
    (p != 2): ascent lower bound with witness plus an interpolation /
    norm-equivalence upper bound, flagged approximate.
    """
    return space.op_norm(as_operator(M, space))


def op_norms(stack, space: SpaceModel) -> np.ndarray:
    """``op_norm(A, space).value`` for every A in a stack of shape (m, d, d).

    Hilbert and Schatten-2 take a stacked ``svd(compute_uv=False)`` and
    the sup model stacked row sums; weighted p and Schatten-p run one
    stacked Boyd ascent over the whole stack (:func:`_boyd_ascent`), which
    gives each matrix the value that :func:`op_norm` gives it alone.
    """
    A = np.asarray(stack, dtype=complex)
    d = space.dim
    if A.ndim != 3 or A.shape[1:] != (d, d):
        raise ShapeError(f"expected a stack of {d}x{d} operators, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return space.op_norms(A)


def mat_power_seq(T, N: int) -> list:
    """[T^0, T^1, ..., T^N] by iterated products; raises PowerOverflow."""
    T = as_matrix(T, square=True)
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [np.eye(T.shape[0], dtype=complex)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N + 1):
            P = out[-1] @ T
            if not np.all(np.isfinite(P)):
                raise PowerOverflow(n)
            out.append(P)
    return out


def power_blocks(T, N: int):
    """Yield ``(s, P)`` with P the stack T^s, ..., T^(s+m-1), until T^N.

    The same powers as :func:`mat_power_seq`, bit for bit (each is the
    previous one times T), in blocks of ``resolvent_block_len(n)``
    matrices, so a pass over them holds one block instead of N + 1
    matrices.  A non-finite power raises :class:`PowerOverflow` with
    the same n that :func:`mat_power_seq` reports.
    """
    T = as_matrix(T, square=True)
    if N < 0:
        raise ValueError("N must be >= 0")
    n = T.shape[0]
    step = resolvent_block_len(n)
    prev = None
    for s in range(0, N + 1, step):
        P = np.empty((min(step, N + 1 - s), n, n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(P.shape[0]):
                if prev is None:
                    P[k] = np.eye(n)
                else:
                    np.matmul(prev, T, out=P[k])
                prev = P[k]
        finite = np.isfinite(P).all(axis=(1, 2))
        if not finite.all():
            raise PowerOverflow(s + int(np.argmin(finite)))
        yield s, P
