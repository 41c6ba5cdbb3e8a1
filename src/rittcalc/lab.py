"""Theorem-level experiments: exact identities, similarity, galleries.

Everything here is a finite, seeded, reproducible experiment:

* exact summation identities (integer and matrix-valued),
* the similarity-to-contraction construction from the mean-ergodic
  projection and the order-1 Gram operator,
* a Cauchy-Schwarz pairing bound that controls a functional-calculus
  pairing by a diagonal supremum and two square functions,
* operator galleries: entrywise (Schur) multipliers on Schatten
  models, random selfadjoint Markov maps with their certificates, a
  sup-norm growth witness, and an ill-conditioned-basis analog showing
  how the square-function equivalence constants spread with basis
  conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import funcalc, numlin, ritt, sqfun
from .numlin import (Hilbert, LpWeighted, SchattenP, SpaceModel, SupSeq,
                     as_matrix)

__all__ = [
    "SimilarityReport",
    "GalleryInstance",
    "CoveringError",
    "kp1_identity",
    "partial_sum_identity",
    "decomp_convergence",
    "similarity_builder",
    "pairing_bound_check",
    "gallery_schur",
    "gallery_markov",
    "gallery_markov_flip",
    "c0_growth_witness",
    "conditional_basis_demo",
]

MARKOV_UNITARIES = 3


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------

def kp1_identity(k: int):
    """(sum_{j=1}^k j (k+1-j), k(k+1)(k+2)/6) in exact integer arithmetic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k <= 100000:
        # int64 is exact here: terms < k^3 < 2^63 for k <= 1e5... (sum bound)
        j = np.arange(1, k + 1, dtype=np.int64)
        lhs = int(np.sum(j * (k + 1 - j), dtype=np.int64))
    else:
        lhs = sum(j * (k + 1 - j) for j in range(1, k + 1))
    rhs = k * (k + 1) * (k + 2) // 6
    return lhs, rhs


def partial_sum_identity(T, N: int) -> dict:
    """Residual of the exact telescoping identity

        sum_{k=1}^N k(k+1) T^(k-1) (I-T)^3
            = 2I - 2T^N - 2N T^N (I-T) - N(N+1) T^N (I-T)^2.

    Holds for every square T; the reported residual is measured against
    a conditioning scale (1 plus the accumulated term magnitudes), so
    exactness means residual <= ~1e-10 * scale even for wildly growing
    powers.
    """
    T = as_matrix(T, square=True)
    if N < 1:
        raise ValueError("N must be >= 1")
    n = T.shape[0]
    I = np.eye(n, dtype=complex)
    A = I - T
    A2, A3 = A @ A, A @ A @ A
    lhs = np.zeros((n, n), dtype=complex)
    scale = 1.0
    Pk = I  # T^(k-1)
    for k in range(1, N + 1):
        term = (k * (k + 1)) * (Pk @ A3)
        lhs += term
        scale += float(np.linalg.norm(term))
        Pk = Pk @ T
    TN = Pk  # T^N
    pieces = [2.0 * I, -2.0 * TN, -2.0 * N * (TN @ A), -N * (N + 1.0) * (TN @ A2)]
    rhs = np.zeros((n, n), dtype=complex)
    for p in pieces:
        rhs += p
        scale += float(np.linalg.norm(p))
    residual = float(np.linalg.norm(lhs - rhs))
    return {"residual": residual, "scale": scale, "N": N,
            "relative": residual / scale}


def decomp_convergence(T, x, N_list: Sequence[int]) -> dict:
    """|| sum_{k<=N} k(k+1) T^(k-1)(I-T)^3 x - 2x || per N.

    x must lie in Ran(I-T) (any component on Ker(I-T) beyond 1e-10
    relative is rejected); for Ritt-certified T the errors decrease
    geometrically.
    """
    T = as_matrix(T, square=True)
    x = np.asarray(x, dtype=complex).reshape(-1)
    P = ritt.mean_ergodic_projection(T)
    if np.linalg.norm(P @ x) > 1e-10 * max(np.linalg.norm(x), 1e-300):
        raise ValueError("x has a component in Ker(I-T) beyond tolerance")
    n = T.shape[0]
    A = np.eye(n, dtype=complex) - T
    w = A @ (A @ (A @ x))
    out = {}
    acc = np.zeros(n, dtype=complex)
    y = w
    N_max = max(N_list)
    wanted = set(int(N) for N in N_list)
    for k in range(1, N_max + 1):
        acc = acc + (k * (k + 1)) * y
        if k in wanted:
            out[k] = float(np.linalg.norm(acc - 2.0 * x))
        y = T @ y
    return out


# ---------------------------------------------------------------------------
# similarity to a contraction
# ---------------------------------------------------------------------------

@dataclass
class SimilarityReport:
    """Outcome of the square-function renorming |||x|||^2 = ||Px||^2 + ||x||_{T,1}^2."""

    V: np.ndarray = field(repr=False)
    contraction_norm: float = math.nan
    equivalence_constants: tuple = (math.nan, math.nan)
    condition_V: float = math.nan

    @property
    def equivalence_ratio(self) -> float:
        lo, hi = self.equivalence_constants
        return hi / lo if lo > 0 else math.inf

    def to_json_dict(self) -> dict:
        from .jsonutil import matrix_to_json, sanitize

        return sanitize({
            "V": matrix_to_json(self.V),
            "contraction_norm": self.contraction_norm,
            "equivalence_constants": list(self.equivalence_constants),
            "equivalence_ratio": self.equivalence_ratio,
            "condition_V": self.condition_V,
        })


def similarity_builder(T) -> SimilarityReport:
    """Renorm so that T becomes a contraction.

    M = P*P + G with P the mean-ergodic projection and G the order-1
    Gram operator; the relations PT = P and T*GT <= G - (I-T)*(I-T) of
    the full series make T*MT <= M, so for the Hermitian root V of M the
    conjugated operator V T V^-1 is a contraction up to rounding and the
    series tail (G is the series cut where its geometric tail bound falls
    below ``sqfun.GRAM_TAIL_TOL``).
    Raises when M is numerically singular (no two-sided square-function
    equivalence at working precision).
    """
    T = as_matrix(T, square=True)
    rho, P = sqfun._effective_radius(T)
    M = P.conj().T @ P + sqfun._series_gram(T, 1, rho)
    M = 0.5 * (M + M.conj().T)
    lam, U = np.linalg.eigh(M)
    lam = lam.real
    if lam[0] <= 1e-12 * max(lam[-1], 1.0):
        raise numlin.SingularMatrixError(
            "no two-sided square function equivalence: M numerically singular",
            cond_estimate=float(lam[-1] / max(lam[0], np.finfo(float).tiny)),
        )
    V = (U * np.sqrt(lam)) @ U.conj().T
    Vinv = (U / np.sqrt(lam)) @ U.conj().T
    cnorm = float(np.linalg.norm(V @ T @ Vinv, 2))
    return SimilarityReport(
        V=V,
        contraction_norm=cnorm,
        equivalence_constants=(math.sqrt(lam[0]), math.sqrt(lam[-1])),
        condition_V=math.sqrt(lam[-1] / lam[0]),
    )


def pairing_bound_check(T, phi, x, y, N: int = 400,
                        tail_tol: float = 1e-10) -> dict:
    """Cauchy-Schwarz pairing bound on the Euclidean model.

    |<phi(T) x, y>| <= sup_k (k+1) ||phi(T) T^(k-1)(I-T)||
                       * ||x||_{T,1} * ||psi(T*) y||_{T*,1}

    with psi(z) = (1 + z + z^2)^3 / 2, phi a polynomial with phi(1) = 0.
    The three factors are returned so tests can assert the inequality
    with the square-function tail bounds added on the right.
    """
    T = as_matrix(T, square=True)
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if not isinstance(phi, funcalc.HolomorphicFn) or phi.kind != "polynomial":
        raise ValueError("pairing bound is run on polynomial phi")
    if abs(complex(np.sum(phi.coeffs))) > 1e-12 * (1 + float(np.sum(np.abs(phi.coeffs)))):
        raise ValueError("phi must vanish at 1")
    space = Hilbert(T.shape[0])
    phiT = funcalc.eval_poly(T, phi)
    lhs = abs(complex(np.vdot(y, phiT @ x)))

    row = ritt.decay_profiles(T, space, N, orders=(1,), left=phiT)[0]
    k = np.arange(1, N + 1)
    f1 = float(np.max((k + 1) / k * row))
    cfg = sqfun.SFConfig(m=1, tail_tol=tail_tol)
    sf_x = sqfun.square_function(T, x, space, cfg)
    psi = funcalc.poly(np.convolve(np.convolve([1, 1, 1], [1, 1, 1]), [1, 1, 1]) / 2.0,
                       label="(1+z+z^2)^3/2")
    Ts = T.conj().T
    psi_y = funcalc.eval_poly(Ts, psi) @ y
    sf_y = sqfun.square_function(Ts, psi_y, space, cfg)
    rhs = (f1 * (sf_x.value + sf_x.tail_bound) * (sf_y.value + sf_y.tail_bound))
    return {
        "lhs": lhs,
        "rhs_factors": (f1, sf_x.value, sf_y.value),
        "rhs": rhs,
        "holds": bool(lhs <= rhs + tail_tol),
        "margin": rhs - lhs,
    }


# ---------------------------------------------------------------------------
# galleries
# ---------------------------------------------------------------------------

@dataclass
class GalleryInstance:
    """A constructed operator with its space model and certificates."""

    kind: str
    params: dict
    operator: np.ndarray = field(repr=False)
    space: SpaceModel = None
    certificates: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        from .jsonutil import matrix_to_json, sanitize

        return sanitize({
            "kind": self.kind,
            "params": self.params,
            "operator": matrix_to_json(self.operator),
            "space": repr(self.space),
            "certificates": self.certificates,
            "flags": self.flags,
        })


def gallery_schur(t, p: float) -> GalleryInstance:
    """Entrywise multiplier [c_ij] -> [t_ij c_ij] acting on the Schatten-p model.

    t must be real with entries in [-1, 1]; on the Schatten-2 model the
    multiplier is diagonal with spectrum {t_ij}, so delta = 1 + min t_ij
    measures the distance of the spectrum from -1.
    """
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or np.any(np.imag(t) != 0):
        raise ValueError("t must be a square real matrix")
    t = np.real(t).astype(float)
    if np.max(np.abs(t)) > 1.0 + 1e-14:
        raise ValueError("entries of t must lie in [-1, 1]")
    n = t.shape[0]
    op = np.diag(t.reshape(-1).astype(complex))
    return GalleryInstance(
        kind="schur",
        params={"t": t.tolist(), "p": p, "n": n,
                "delta": float(1.0 + np.min(t))},
        operator=op,
        space=SchattenP(p, n),
    )


def _haar_unitary(n: int, rng) -> np.ndarray:
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _choi_matrix(L: np.ndarray, n: int) -> np.ndarray:
    """Choi matrix sum_kl E_kl (x) Phi(E_kl) of the map vec-encoded by L."""
    C = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[k, l] = 1.0
            PhiE = (L @ E.reshape(-1)).reshape(n, n)
            C[k * n:(k + 1) * n, l * n:(l + 1) * n] = PhiE
    return C


def gallery_markov(n: int, seed: int, p: float = 2.0) -> GalleryInstance:
    """Random selfadjoint Markov map x -> sum_i p_i (U_i x U_i* + U_i* x U_i)/2.

    The symmetrized unitary-conjugation form is unital, trace
    preserving, completely positive and selfadjoint for the normalized
    trace pairing by construction; all four certificates are verified
    numerically and recorded.  If -1 lies in the spectrum of the
    trace-space matrix (to 1e-8) the instance is flagged as not a Ritt
    candidate, as :func:`gallery_markov_flip` is.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    ws = rng.uniform(0.5, 1.5, size=MARKOV_UNITARIES)
    ws = ws / np.sum(ws)
    Us = [_haar_unitary(n, rng) for _ in range(MARKOV_UNITARIES)]
    L = np.zeros((n * n, n * n), dtype=complex)
    for w, U in zip(ws, Us):
        B = np.kron(U, U.conj())          # x -> U x U*  (row-major vec)
        L += w * 0.5 * (B + B.conj().T)   # + the trace-adjoint term x -> U* x U
    I_n = np.eye(n, dtype=complex)

    unital = float(np.linalg.norm((L @ I_n.reshape(-1)).reshape(n, n) - I_n))
    sa_resid = float(np.linalg.norm(L - L.conj().T, 2))
    C = _choi_matrix(L, n)
    # block (k, l) of C is Phi(E_kl), and tr E_kl = delta_kl; each diagonal is
    # summed contiguously and |.| is hypot, so this rounds as np.trace and abs
    # of one block do (the 4-d np.trace and the complex np.abs do not)
    D = np.ascontiguousarray(C.reshape(n, n, n, n).diagonal(axis1=1, axis2=3)).sum(-1) - I_n
    trace_resid = np.max(np.hypot(D.real, D.imag))
    choi_min = float(np.min(np.linalg.eigvalsh(0.5 * (C + C.conj().T)).real))
    spec = np.sort(numlin.eig(L).eigenvalues.real)
    flags = []
    if np.min(spec) <= -1.0 + 1e-8:
        flags.append("minus-one-in-spectrum: not a Ritt candidate")
    certificates = {
        "unital_residual": unital,
        "trace_residual": float(trace_resid),
        "choi_min_eigenvalue": choi_min,
        "selfadjoint_residual": sa_resid,
        "spectrum_real_interval": [float(spec[0]), float(spec[-1])],
    }
    return GalleryInstance(
        kind="markov",
        params={"n": n, "seed": seed, "weights": ws.tolist(),
                "n_unitaries": MARKOV_UNITARIES, "p": p},
        operator=L,
        space=SchattenP(p, n),
        certificates=certificates,
        flags=flags,
    )


def gallery_markov_flip() -> GalleryInstance:
    """The two-point flip (t, s) -> (s, t) on the diagonal-subalgebra analog.

    A doubly stochastic symmetric map, hence a selfadjoint Markov map of
    the commutative two-atom algebra, but -1 is an eigenvalue: the
    canonical witness that selfadjoint Markov maps need not be Ritt.
    """
    L = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = np.sort(numlin.eig(L).eigenvalues.real)
    certificates = {
        "unital_residual": 0.0,
        "trace_residual": 0.0,
        "choi_min_eigenvalue": 0.0,  # positivity = entrywise nonnegativity here
        "selfadjoint_residual": 0.0,
        "spectrum_real_interval": [float(spec[0]), float(spec[-1])],
    }
    return GalleryInstance(
        kind="markov",
        params={"flip": True, "n": 2},
        operator=L,
        space=LpWeighted(2.0, (0.5, 0.5)),
        certificates=certificates,
        flags=["minus-one-in-spectrum: not a Ritt candidate"],
    )


# ---------------------------------------------------------------------------
# growth witness on the sup-norm model
# ---------------------------------------------------------------------------

class CoveringError(RuntimeError):
    def __init__(self, achieved: float):
        super().__init__(f"covering constant verification failed: achieved "
                         f"{achieved:.4f} > 2")
        self.achieved = achieved


def c0_growth_witness(n: int, seed: int = 0) -> dict:
    """Growth of a vector-valued calculus constant on the sup-norm model.

    Builds a covering family {y_j} of the real unit ball of l2_n with
    covering constant <= 2 (the sign vectors u/sqrt(n) plus the standard
    basis: if some |y_l| >= 1/2 a basis vector matches, otherwise
    sum |y_l| > 2 and the sign vector does, valid for n <= 16), sets
    alpha_lj = <h_l, y_j> for the standard orthonormal basis, and
    returns the exact Rademacher average of sum_l alpha_lj eps_l (x) e_j
    in the sup model over sup_j (sum_l alpha_lj^2)^(1/2).  Since every
    sign vector self-matches in the family, the ratio is at least
    sqrt(n)/2; its sqrt(n) growth is what rules out a dimension-free
    vector-valued calculus on sup-norm models.

    2000 random unit vectors are drawn to estimate the achieved covering
    constant, which is reported (and must stay <= 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 12:
        raise ValueError("exact sign enumeration capped at n = 12")
    # family: standard basis + one representative per antipodal sign pair
    signs = sqfun.sign_patterns(n)
    Y = np.concatenate([np.eye(n), signs / math.sqrt(n)], axis=0)  # rows y_j
    m = Y.shape[0]

    # verify the covering property on all sign vectors and a random sample
    U = signs  # the evaluation set itself, ||u|| = sqrt(n)
    ach = np.max(np.linalg.norm(U, axis=1) /
                 np.max(np.abs(U @ Y.T), axis=1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample = rng.normal(size=(2000, n))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    ach = max(ach, float(np.max(1.0 / np.max(np.abs(sample @ Y.T), axis=1))))
    if ach > 2.0 + 1e-12:
        raise CoveringError(float(ach))

    alpha = Y.T  # alpha[l, j] = <h_l, y_j>, h_l the standard basis
    xs = [alpha[l] for l in range(n)]
    rad = sqfun.rad_norm(xs, SupSeq(m)).value
    denom = float(np.max(np.linalg.norm(alpha, axis=0)))
    ratio = rad / denom
    return {
        "n": n,
        "family_size": m,
        "ratio": ratio,
        "lower_bound": math.sqrt(n) / 2.0,
        "achieved_covering_constant": float(ach),
        "rad": rad,
        "denominator": denom,
    }


# ---------------------------------------------------------------------------
# ill-conditioned-basis analog
# ---------------------------------------------------------------------------

def conditional_basis_demo(n: int = 8, kappa: float = 1.0) -> dict:
    """Square-function equivalence degradation under basis conditioning.

    T is diagonal with entries 1 - 2^-m in a basis whose condition
    number is kappa: the two finest-eigenvalue coordinates are mixed by
    a rotation and rescaled so the basis Gram is [[1, c], [c, 1]] there,
    c = (kappa^2 - 1)/(kappa^2 + 1).  Normalized so the coefficient
    lower bound (sum |t_m|^2)^(1/2) <= ||sum t_m e_m|| holds with
    constant 1, the upper bound degrades like kappa.

    The report carries sf_constant(T, 1), the equivalence constants of
    the similarity renorming, their ratio, and the finite-size floor
    1 / (1' K^-1 1) for the smallest eigenvalue of M (K the positive
    kernel (1-d_i)(1-d_j)/(1-d_i d_j)^2): at fixed n the reverse
    square-function estimate cannot fail outright, so the spread of the
    equivalence constants is carried by the forward constant.  A true
    one-sided-without-reverse example needs the dimension to grow; this
    family is the fixed-size analog, labeled as such.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1.0 <= kappa < math.inf:  # also NaN
        raise ValueError("kappa must be finite and >= 1")
    d = 1.0 - 2.0 ** -(np.arange(1, n + 1, dtype=float))
    c = (kappa**2 - 1.0) / (kappa**2 + 1.0)
    # symmetric root of the pair Gram [[1, c], [c, 1]] on the last two coords
    a = 0.5 * (math.sqrt(1.0 + c) + math.sqrt(1.0 - c))
    b = 0.5 * (math.sqrt(1.0 + c) - math.sqrt(1.0 - c))
    E = np.eye(n, dtype=complex)
    E[n - 2:, n - 2:] = np.array([[a, b], [b, a]])
    T = E @ np.diag(d.astype(complex)) @ np.linalg.inv(E)

    kappa_achieved = float(np.linalg.cond(E))
    sf = sqfun.sf_constant(T, 1, Hilbert(n))
    sim = similarity_builder(T)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = (1 - d[i]) * (1 - d[j]) / (1 - d[i] * d[j]) ** 2
    ones = np.ones(n)
    floor = float(1.0 / (ones @ np.linalg.solve(K, ones)))
    lo, hi = sim.equivalence_constants
    return {
        "n": n,
        "kappa": kappa,
        "kappa_achieved": kappa_achieved,
        "sf_constant": sf,
        "equivalence_constants": (lo, hi),
        "lambda_min_M": lo * lo,
        "lambda_max_M": hi * hi,
        "equivalence_ratio": (hi * hi) / (lo * lo),
        "lambda_min_floor": floor,
        "contraction_norm": sim.contraction_norm,
        "basis_lower_bound_constant": 1.0,  # after sigma_min normalization
    }
