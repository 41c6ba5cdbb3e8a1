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
import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    "triangular_resolvents",
    "resolvent_block_len",
    "node_block_len",
    "map_in_order",
    "svd",
    "vec_norm",
    "op_norm",
    "op_norms",
    "mat_power_seq",
    "power_blocks",
]

SOLVE_TOL = 1e-10
RCOND_MIN = 1e-14
#: bytes of n x n complex matrices in one block of nodes or powers
RESOLVENT_BLOCK_BYTES = 2 * 1024 * 1024
#: bytes of n x n complex matrices whose triangular-resolvent guards are
#: checked at once, a slice that stays in cache
GUARD_BYTES = 256 * 1024
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
    comes from :func:`resolvents` or :func:`triangular_resolvents`.
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
# ``op_norms(stack)``, ``op_norm_ceilings(stack)`` (a cheap upper bound on
# every value of ``op_norms``), ``op_norm(M)``, ``scaled_resolvent_norms(T, z)``
# (the norms of (z_j - 1) R(z_j, T) for one block of nodes), and the two
# halves of the square-function accumulator, ``square_term(y, side)`` and
# ``square_norm(acc)``, which take one element or a stack of them.  The
# non-Euclidean models also answer ``square_witness(S, side)``: a Boyd-ascent
# maximizer of ||S x|| / ||x||, S a stack of square-function terms read as one
# operator into the model's square-sum target.
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

    def op_norm_ceilings(self, A: np.ndarray) -> np.ndarray:
        return _frobenius_norms(A)

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

    def op_norm_ceilings(self, A: np.ndarray) -> np.ndarray:
        return _ascent_ceilings(self._riesz_thorin(self._unweighted(A)[0]), self.p)

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        A, D = self._unweighted(M)
        values, witnesses = _boyd_ascent(A[None], self)
        lower = float(values[0])
        upper_rt = float(self._riesz_thorin(A[None])[0])
        upper_eq = self.dim ** abs(0.5 - 1.0 / self.p) * float(svd(A)[0])
        upper = max(lower, min(upper_rt, upper_eq))
        return OpNormResult(value=lower, upper=upper, exact=False, witness=witnesses[0] / D)

    def _riesz_thorin(self, A: np.ndarray) -> np.ndarray:
        """Riesz-Thorin bounds n1^(1/p) ninf^(1-1/p) of the stack A (already
        ``D A D^-1``) between its 1- and inf-norms (Higham, Numer. Math. 62,
        1992).  The powers are Python's, one matrix at a time: numpy's
        vectorized power rounds differently."""
        a = np.abs(A)
        e = 1.0 / self.p
        return np.array([float(c) ** e * float(r) ** (1.0 - e) for c, r in
                         zip(a.sum(axis=1).max(axis=1), a.sum(axis=2).max(axis=1))])

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _kernel_resolvent_norms(T, z, self)

    def _unweighted(self, M: np.ndarray):
        """``(D M D^-1, D)`` with D = w^(1/p): the realization of M (one
        matrix or a stack) on unweighted p, isometric to the weighted one."""
        D = np.asarray(self.weights) ** (1.0 / self.p)
        return (D[:, None] * M) / D[None, :], D

    def _ascent_kernels(self):
        # the ascent only runs on D A D^-1, so it takes the unweighted kernels
        p, q = self.p, self.p / (self.p - 1.0)
        return ((lambda V: _lp_norms(V, p)), (lambda V: _lp_dual_maps(V, p)),
                (lambda V: _lp_dual_maps(V, q)))

    def _square_kernels(self):
        """Norms and duality map of unweighted l^p(l^2), the target of the
        square-function stack: y_ki g_i^(p-2), g_i = (sum_k |y_ki|^2)^(1/2)."""
        p = self.p

        def dual_map(Y):
            Yk, g = _term_norms(Y, self.dim)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(g > 0, g ** (p - 2.0), 0.0)
            return (Yk * w[..., None, :]).reshape(Y.shape)

        return (lambda Y: _lp_norms(_term_norms(Y, self.dim)[1], p)), dual_map

    def square_witness(self, S: np.ndarray, side: str) -> np.ndarray:
        """An element x that the Boyd ascent finds for the largest
        ||S x|| / ||x||, S the (K, d, d) stack of square-function terms
        taken into l^p(l^2), run on D S D^-1 and mapped back."""
        A, D = self._unweighted(S)
        return _stack_witness(A, self, self._square_kernels()) / D


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

    def op_norm_ceilings(self, A: np.ndarray) -> np.ndarray:
        # ||A|| <= n^|1/2-1/p| sigma_1(A) <= n^|1/2-1/p| ||A||_F, as in op_norm
        if self.exact:
            return _frobenius_norms(A)
        return _ascent_ceilings(self.n ** abs(0.5 - 1.0 / self.p) * _frobenius_norms(A), self.p)

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
        # an element is a one-term column, so the square kernels serve it
        q = np.inf if self.p == 1.0 else self.p / (self.p - 1.0)
        n = self.n
        return (*self._square_kernels("column"),
                lambda V: _schatten_dual_maps(V.reshape(V.shape[:-1] + (n, n)), q).reshape(V.shape))

    def _stacked(self, Y: np.ndarray, side: str) -> np.ndarray:
        """The images Y_k of the flat stack Y (..., K n^2) as one matrix: the
        column [Y_1; ...; Y_K] or the row [Y_1 ... Y_K]."""
        n, lead, K = self.n, Y.shape[:-1], Y.shape[-1] // self.dim
        if side == "column":
            return Y.reshape(lead + (K * n, n))
        return np.swapaxes(Y.reshape(lead + (K, n, n)), -3, -2).reshape(lead + (n, K * n))

    def _square_kernels(self, side: str):
        """Norms and duality map of the S^p norm of the stacked column or row,
        the target of the square-function stack, from one thin SVD."""
        p, n = self.p, self.n

        def norms(Y):
            s = np.linalg.svd(self._stacked(Y, side), compute_uv=False)
            return np.sum(s ** p, axis=-1) ** (1.0 / p)

        def dual_map(Y):
            G = _schatten_dual_maps(self._stacked(Y, side), p)
            if side == "row":
                G = np.swapaxes(G.reshape(Y.shape[:-1] + (n, Y.shape[-1] // self.dim, n)), -3, -2)
            return G.reshape(Y.shape)

        return norms, dual_map

    def square_witness(self, S: np.ndarray, side: str) -> np.ndarray:
        """An element x (flat) that the Boyd ascent finds for the largest
        ||S x|| / ||x||, S the (K, n^2, n^2) stack of square-function terms
        taken into the S^p norm of the stacked column or row."""
        return _stack_witness(S, self, self._square_kernels(side))


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

    def op_norm_ceilings(self, A: np.ndarray) -> np.ndarray:
        return self.op_norms(A)  # exact and as cheap as any bound

    def op_norm(self, M: np.ndarray) -> OpNormResult:
        rows = np.sum(np.abs(M), axis=1)
        i = int(np.argmax(rows))
        val = float(rows[i])
        witness = np.where(np.abs(M[i]) > 0, np.conj(M[i]) / np.maximum(np.abs(M[i]), 1e-300), 1.0)
        return OpNormResult(value=val, upper=val, exact=True, witness=witness)

    def scaled_resolvent_norms(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _kernel_resolvent_norms(T, z, self)

    def _ascent_kernels(self):
        # a vector is a one-term sequence; l^1 maps back by the phase map
        return self.norms, self._square_kernels()[1], (lambda V: _lp_dual_maps(V, 1.0))

    def _square_kernels(self):
        """Norms and an argmax subgradient of l^inf(l^2), the target of the
        square-function stack: y_ki at the first i of the largest
        g_i = (sum_k |y_ki|^2)^(1/2), zero elsewhere."""
        def dual_map(Y):
            Yk, g = _term_norms(Y, self.dim)
            top = np.arange(self.dim) == np.argmax(g, axis=-1)[..., None]
            return (Yk * top[..., None, :]).reshape(Y.shape)

        return (lambda Y: np.max(_term_norms(Y, self.dim)[1], axis=-1, initial=0.0)), dual_map

    def square_witness(self, S: np.ndarray, side: str) -> np.ndarray:
        """An element x that the Boyd ascent finds for the largest
        ||S x|| / ||x||, S the (K, d, d) stack of square-function terms
        taken into l^inf(l^2)."""
        return _stack_witness(S, self, self._square_kernels())


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


def solve(M, B) -> np.ndarray:
    """Solve M X = B with a residual guarantee.

    Raises :class:`SingularMatrixError` when the reciprocal condition
    number falls below ``RCOND_MIN``.  After LU solution, iterative
    refinement drives the residual to ``SOLVE_TOL * ||B||`` whenever that
    is attainable in double precision (i.e. ``SOLVE_TOL >= ~eps/rcond``);
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
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularMatrixError(
            f"matrix singular to tolerance (rcond={rcond:.3e} < {RCOND_MIN:.1e})",
            cond_estimate=1.0 / max(rcond, np.finfo(float).tiny),
        )
    X = scipy.linalg.lu_solve((lu, piv), B)
    bnorm = np.linalg.norm(B)
    target = SOLVE_TOL * bnorm
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
    """Nodes or powers of n x n operators per ``RESOLVENT_BLOCK_BYTES`` block."""
    return max(1, RESOLVENT_BLOCK_BYTES // (16 * n * n))


def _worker_count() -> int:
    """CPUs available to this process (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# One pool per process and worker count, made on first use and kept: a
# thread started as another exits can miss that thread's malloc arena and
# get a new one, so pools made per call let the arenas, and with them the
# peak memory, grow over a run.
_POOL_LOCK = threading.Lock()
_POOL = None  # ((pid, workers), executor)
_THREAD = threading.local()


def _mark_worker():
    _THREAD.is_worker = True


def _pool(workers: int) -> ThreadPoolExecutor:
    global _POOL
    key = (os.getpid(), workers)  # a forked child makes its own
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != key:
            _POOL = (key, ThreadPoolExecutor(max_workers=workers,
                                             thread_name_prefix="rittcalc-nodes",
                                             initializer=_mark_worker))
        return _POOL[1]


def node_block_len(m: int, n: int) -> int:
    """Length of the blocks that m nodes (or powers) of n x n matrices are
    cut into.

    m items that fit in one ``resolvent_block_len(n)`` block are one
    block; more are cut into blocks of a quarter of that length: each
    worker thread keeps its own malloc arena, and full-length blocks
    would raise the peak memory of every arena.  The length depends on
    m and n only, never on the number of workers.
    """
    step = resolvent_block_len(n)
    return step if m <= step else max(1, step // 4)


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]`` on the kept pool of one worker
    thread per CPU.

    One item, one CPU, or a call from a worker runs in the caller's
    thread.  Each call runs in a copy of the caller's context, so
    ``np.errstate`` carries over.  Results come back in item order: the
    first failing call's exception is the one raised, once the calls
    already running are done; the calls not yet started are cancelled.
    ``fn`` must not change process-global state (no
    ``warnings.catch_warnings``).
    """
    items = list(items)
    workers = _worker_count()
    if len(items) <= 1 or workers <= 1 or getattr(_THREAD, "is_worker", False):
        return [fn(item) for item in items]
    pool = _pool(workers)
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


def resolvents(T, nodes) -> np.ndarray:
    """Stacked resolvents (z_j I - T)^-1 for every node z_j, shape (m, n, n).

    One stacked LU solve in the caller's thread (``ritt.resolvent_sup``
    calls it per block of nodes on the pool).  Every node keeps the
    guards of :func:`solve`: the reciprocal condition number
    ``1 / (||M||_1 ||X||_1)``, exact because X is the full inverse, must
    reach ``RCOND_MIN``; up to 3 rounds of iterative refinement drive the
    residual to ``SOLVE_TOL * ||I||_F``, and the roundoff floor
    ``64 eps ||I||_F / rcond`` is the most that is accepted.  Every node
    is computed alone, so its values do not depend on the other nodes.
    The first refused node raises :class:`SingularMatrixError` (see
    :func:`_refuse_first`).
    """
    T = as_matrix(T, square=True)
    z = np.asarray(nodes, dtype=complex).reshape(-1)
    return _guarded_inverses(z[:, None, None] * np.eye(T.shape[0], dtype=complex) - T, z)


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


def _refuse_first(z: np.ndarray, rcond: np.ndarray, resid: Optional[np.ndarray] = None,
                  n: int = 0, norm: str = "") -> None:
    """The one refusal of the resolvent guards: SingularMatrixError at the
    first node z_j whose ``norm`` rcond is below ``RCOND_MIN`` (NaN too), or
    else, given the Frobenius residuals of the n x n inverses, whose ``resid``
    is above both ``SOLVE_TOL ||I||_F`` and ``64 eps ||I||_F / rcond``."""
    bad = ~(rcond >= RCOND_MIN)  # NaN counts as refused
    by_rcond = bad.any()
    if resid is not None and not by_rcond:
        target = SOLVE_TOL * math.sqrt(n)  # sqrt(n) = ||I||_F
        bad = resid > np.maximum(target, 64.0 * _EPS * math.sqrt(n) / rcond)
    if not bad.any():
        return
    j = int(np.argmax(bad))
    detail = (f"singular to tolerance, {norm}rcond below {RCOND_MIN:.1e}" if by_rcond
              else f"residual {resid[j]:.3e} exceeds tolerance {target:.3e}")
    r = float(rcond[j]) if np.isfinite(rcond[j]) else 0.0
    raise SingularMatrixError(f"resolvent node z={complex(z[j]):.6g}: {detail} (rcond={r:.3e})",
                              cond_estimate=1.0 / max(r, np.finfo(float).tiny),
                              node=complex(z[j]))


def _guarded_inverses(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inverses of the stack M under the guards of :func:`solve`, rcond first."""
    n = M.shape[-1]
    I = np.eye(n, dtype=complex)
    X = _stacked_inverse(M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rcond = 1.0 / (np.abs(M).sum(axis=1).max(axis=1) * np.abs(X).sum(axis=1).max(axis=1))
    _refuse_first(z, rcond)
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
    _refuse_first(z, rcond, resid, n)
    return X


def triangular_resolvents(U, nodes) -> np.ndarray:
    """Resolvents (z_j I - U)^-1 of an upper-triangular U for every node
    z_j, nodes last: shape (n, n, m), each slice upper triangular.

    With T = Q U Q^H a complex Schur form, R(z_j, T) = Q X[..., j] Q^H, so a
    linear combination of resolvents needs one back-transform.  Every node
    keeps the guards of :func:`resolvents`, read off the triangular
    system: the exact reciprocal condition number
    ``1 / (||z I - U||_1 ||X||_1)`` must reach ``RCOND_MIN``, and the
    residual ``||I - (z I - U) X||_F``, from one GEMM per slice of
    ``GUARD_BYTES``, is refused above both ``SOLVE_TOL * ||I||_F`` and the
    roundoff floor ``64 eps ||I||_F / rcond``.  Back-substitution is
    backward stable, so no refinement runs.  A refused node raises
    :class:`SingularMatrixError` carrying the first refused node, an rcond
    refusal before a residual one.  Everything runs in the caller's
    thread: on the node pool the sweep ran slower at every n measured,
    its numpy and LAPACK calls being too short to give up the interpreter
    lock for long.  Every node is computed alone, so the values do not
    depend on the other nodes of the call.
    """
    U = as_matrix(U, square=True)
    if np.any(np.tril(U, -1)):
        raise ValueError("triangular_resolvents needs an upper-triangular matrix")
    z = np.asarray(nodes, dtype=complex).reshape(-1)
    n = U.shape[0]
    X = _triangular_inverses(U, z)
    rcond, resid = np.empty(z.size), np.empty(z.size)
    # column sums of |z I - U|: the pivot and the column of U above it
    col = np.abs(z - np.diag(U)[:, None]) + np.abs(np.triu(U, 1)).sum(axis=0)[:, None]
    # at least 16 nodes a slice: shorter rows of nodes make slow numpy loops
    step = max(16, GUARD_BYTES // (16 * n * n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, z.size, step):
            b = slice(s, s + step)
            Xb = X[:, :, b]
            rcond[b] = 1.0 / (col[:, b].max(axis=0) * np.abs(Xb).sum(axis=0).max(axis=0))
            # I - (z I - U) X = I + U X - z X
            R = (U @ Xb.reshape(n, -1)).reshape(Xb.shape)
            R -= Xb * z[b]
            R[range(n), range(n)] += 1.0
            # squares of the real and imaginary parts, interleaved per node
            Rf = R.reshape(n * n, -1).view(float)
            sq = np.einsum("ak,ak->k", Rf, Rf)
            resid[b] = np.sqrt(sq[0::2] + sq[1::2])
    _refuse_first(z, rcond, resid, n)
    return X


def _triangular_inverses(U: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(z_j I - U)^-1, nodes last, for the nodes z.

    The rows are back-substituted from the last, over every node at
    once.  A complex coefficient multiplies by its real and by its
    imaginary part apart, and the pivots by the reciprocal in real
    arithmetic: each product is then one rounding of a real product,
    whatever loop numpy picks for the shape of the arrays, so a node's
    values do not depend on the other nodes of the call.  An exactly
    singular node is left non-finite, for the rcond guard to refuse.
    """
    n, m = U.shape[0], z.size
    d = z - np.diag(U)[:, None]  # the diagonal of z_j I - U, (n, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = d.real * d.real + d.imag * d.imag
        re = d.real / s
        im = np.zeros((n, m), dtype=complex)
        im.imag = -d.imag / s
    X = np.zeros((n, n, m), dtype=complex)
    X[range(n), range(n)] = re + im
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n - 2, -1, -1):
            acc = np.zeros((n - 1 - i, m), dtype=complex)
            for r in range(i + 1, n):
                tail, row = acc[r - i - 1:], X[r, r:]
                tail += U[i, r].real * row
                tail += complex(0.0, U[i, r].imag) * row
            X[i, i + 1:] = acc * re[i] + acc * im[i]
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
    _refuse_first(z, rcond, norm="2-norm ")
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


def _term_norms(Y: np.ndarray, d: int):
    """``(Yk, g)``: the flat stack Y (..., K d) as its K terms (..., K, d)
    and g_i = (sum_k |y_ki|^2)^(1/2), the pointwise square sums (..., d)."""
    Yk = Y.reshape(Y.shape[:-1] + (Y.shape[-1] // d, d))
    return Yk, np.sqrt(np.sum(Yk.real ** 2 + Yk.imag ** 2, axis=-2))


def _schatten_dual_maps(M: np.ndarray, p: float) -> np.ndarray:
    """Duality maps of the Schatten-p norm of every matrix of the stack M
    (any shape), one stacked thin SVD."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    if p == 1.0:
        return U @ Vh  # polar factor: a norming subgradient of the trace norm
    if p == np.inf:
        return U[..., :, :1] * Vh[..., :1, :]  # top singular dyad
    return (U * (s[..., None, :] ** (p - 1.0))) @ Vh


def _top_right_singular(A: np.ndarray) -> np.ndarray:
    """Top right singular vector of each matrix of the stack A, zero where
    the SVD fails (a zero start is skipped by the ascent)."""
    try:
        return np.linalg.svd(A, full_matrices=False)[2][:, 0].conj()
    except np.linalg.LinAlgError:
        out = np.zeros((A.shape[0], A.shape[2]), dtype=complex)
        for j, Aj in enumerate(A):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[j] = np.linalg.svd(Aj, full_matrices=False)[2][0].conj()
        return out


def _stack_witness(S: np.ndarray, space: SpaceModel, target) -> np.ndarray:
    """The ascent witness of the (K, d, d) stack S read as one (K d x d)
    operator from ``space`` into ``target``."""
    return _boyd_ascent(S.reshape(1, -1, S.shape[-1]), space, target)[1][0]


def _boyd_ascent(A: np.ndarray, space: SpaceModel, target=None):
    """Boyd's norm ascent on every start of every matrix of the stack A.

    ``space`` is the source model X: an LpWeighted, whose kernels are the
    unweighted p-norm ones (A is already D A D^-1), a Schatten-p or a sup
    model.  ``target`` is the pair (norms, duality map) of the space Y
    the (m, N, d) stack maps into; by default Y = X (N = d).  A step maps
    x to A x, takes the duality map g of A x in Y, and the next start is
    the duality map of X* at A^* g.  Each matrix
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
    norms, dual_map, predual_map = space._ascent_kernels()
    target_norms, target_dual_map = target or (norms, dual_map)
    m, _, d = A.shape
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
        val = target_norms(Y)
        up = lv & (val > best[rows])
        if up.any():
            j, s = np.nonzero(up)
            best[rows[j], s] = val[j, s]
            wit[rows[j], s] = Xa[j, s]
        go = lv & ~((val <= prev[rows] * (1.0 + 1e-13)) | (val == 0.0))
        prev[rows] = val
        Xn = predual_map(target_dual_map(Y) @ AC[rows])
        nx = norms(Xn)
        go &= nx > 0
        X[rows] = normalized(Xn, nx, go)
        live[rows] = go
    first = np.argmax(best, axis=1)  # the first start to reach the maximum
    values = best[np.arange(m), first]
    witnesses = wit[np.arange(m), first]
    witnesses[values == 0.0] = ones
    return values, witnesses


def _frobenius_norms(A: np.ndarray) -> np.ndarray:
    """Frobenius norms of the stack A, each matrix scaled by its largest
    real or imaginary part first, so that no square over- or underflows:
    an upper bound on the largest singular value, to rounding.  NaN where
    a matrix is not finite."""
    X = np.ascontiguousarray(A).view(float)
    s = np.abs(X).max(axis=(1, 2), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = s * np.sqrt(np.square(X / s[:, None, None]).sum(axis=(1, 2)))
    return np.where(s == 0.0, 0.0, c)


#: a Boyd-ascent ceiling c counts where |log2 c| times the largest power
#: the ascent raises c to stays below this: 2^960 leaves 2^64 of headroom
_ASCENT_SAFE_LOG2 = 960.0


def _ascent_ceilings(c: np.ndarray, p: float) -> np.ndarray:
    """The ceilings c of a Boyd-ascent model, or inf where they are not
    safe bounds on the ascent's values.

    An ascent on a matrix of size about c takes p-th powers of entries
    of about c^q (q = p/(p-1)), so of about c^(p q).  Where these leave
    the normal range an overflowed or denormal sum can put the value
    above c, so such a matrix gets an infinite ceiling, which no walk
    skips.  A zero matrix keeps its ceiling 0: its value is 0 exactly.
    """
    r = p * p / (p - 1.0) if p > 1.0 else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = (c == 0.0) | (np.abs(np.log2(c)) * r < _ASCENT_SAFE_LOG2)
    return np.where(safe, c, np.inf)


def _spectral_norms(A: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of the stack A."""
    return np.linalg.svd(A, compute_uv=False)[:, 0]


def _spectral_op_norm(M: np.ndarray) -> OpNormResult:
    # the value is the stacked route's, so op_norm and op_norms agree bit
    # for bit; the factors give only the witness
    _, _, Vh = svd(M, factors=True)
    val = float(_spectral_norms(M[None])[0])
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
