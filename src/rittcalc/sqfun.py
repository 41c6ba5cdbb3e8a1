"""Discrete square functions, Rademacher averages and R-bound estimation.

The square function of order m at x is the Rademacher-average norm of
sum_k k^(m-1/2) eps_k (x) T^(k-1)(I-T)^m x.  On the Euclidean model it
collapses to a weighted l2 sum of iterate differences and is the
quadratic form of the Gram operator

    G = sum_k k^(2m-1) (T*)^(k-1) (I-T*)^m (I-T)^m T^(k-1),

computable either by truncation with a geometric tail bound or, for
m = 1, exactly through two nested Stein equations on the subspace
complementary to Ker(I-T).  On the weighted-p / sup models the square
sum moves inside the norm pointwise; on Schatten models it becomes the
Schatten norm of (sum_k k^(2m-1) |Delta_k x|^2)^(1/2) with a column/row
side choice.

Rademacher averages are exact sign enumerations up to 20 summands and
counter-based (Philox) Monte Carlo beyond, so parallel or repeated runs
with one seed reproduce bit-identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import funcalc, numlin, ritt
from .numlin import (Hilbert, LpWeighted, SchattenP, SpaceModel, as_matrix,
                     check_vector, vec_norm)

__all__ = [
    "SFConfig",
    "SFReport",
    "RadEstimate",
    "DivergenceError",
    "square_function",
    "gram_operator",
    "sf_constant",
    "rad_norm",
    "rad_rad_norm",
    "sign_patterns",
    "khintchine_ratio",
    "nc_khintchine_report",
    "r_bound_lower",
    "quadratic_calc_ratio",
    "matrix_calc_ratio",
    "sfe_family",
    "c512_check",
]

EXACT_ENUM_MAX = 20
MC_DEFAULT_SAMPLES = 4096


class DivergenceError(ArithmeticError):
    """Square-function terms grow instead of decaying."""

    def __init__(self, k: int, msg: str = ""):
        super().__init__(msg or f"square-function terms diverge, first bad k={k}")
        self.k = k


@dataclass(frozen=True)
class SFConfig:
    """Truncation policy for square-function sums."""

    m: int = 1
    n_max: int = 20000
    tail_tol: float = 1e-10
    side: str = "column"  # Schatten models: column (y*y) or row (yy*)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.tail_tol <= 0:
            raise ValueError("tail_tol must be positive")
        if self.side not in ("column", "row"):
            raise ValueError("side must be 'column' or 'row'")


@dataclass
class SFReport:
    """Square-function value with its truncation certificate."""

    value: float
    tail_bound: float
    n_terms: int
    truncated: bool
    per_k: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        from .jsonutil import sanitize

        return sanitize({
            "value": self.value,
            "tail_bound": self.tail_bound,
            "n_terms": self.n_terms,
            "truncated": self.truncated,
        })

    def per_k_csv(self) -> str:
        lines = ["k,term"]
        if self.per_k is not None:
            for k, t in enumerate(self.per_k, start=1):
                lines.append(f"{k},{t:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class RadEstimate:
    """Rademacher average: exact enumeration or seeded Monte Carlo."""

    value: float
    mode: str
    samples: int = 0
    seed: Optional[int] = None
    standard_error: float = 0.0

    def to_json_dict(self) -> dict:
        from .jsonutil import sanitize

        return sanitize({
            "value": self.value,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "standard_error": self.standard_error,
        })


# ---------------------------------------------------------------------------
# square functions
# ---------------------------------------------------------------------------

def _effective_radius(T: np.ndarray) -> float:
    """Largest |eigenvalue| off the eigenvalue-1 cluster (0 if none)."""
    tol1 = ritt.eigenvalue_one_tolerance(T)
    rho = 0.0
    for lam in numlin.eig(T).eigenvalues:
        if abs(lam - 1.0) > tol1:
            rho = max(rho, abs(lam))
    return rho


def square_function(T, x, space: SpaceModel, cfg: Optional[SFConfig] = None) -> SFReport:
    """||x||_{T,m} in the given space model, with a tail certificate.

    The sum is cut at the smallest N whose geometric tail estimate
    (driven by the spectral radius off the fixed space) drops below
    ``cfg.tail_tol``; if that never happens by ``cfg.n_max`` the result
    is flagged truncated.  Terms that grow raise DivergenceError.
    """
    cfg = cfg or SFConfig()
    T = as_matrix(T, square=True)
    y = check_vector(x, space).reshape(-1)
    m = cfg.m
    rho = _effective_radius(T)

    A = np.eye(T.shape[0], dtype=complex) - T
    for _ in range(m):
        y = A @ y

    acc = 0.0  # sum of w * space.square_term(y); the first term sets its shape
    per_k = []
    a_prev = None
    grow_run = 0
    k = 0
    tail = math.inf
    truncated = True
    while k < cfg.n_max:
        k += 1
        w = k ** (2 * m - 1)
        a_k = k ** (m - 0.5) * float(space.norms(y))
        per_k.append(a_k)
        acc += w * space.square_term(y, cfg.side)

        if a_prev is not None and a_k > a_prev * (1.0 + 1e-12) and a_k > 1e-290:
            grow_run += 1
            if grow_run >= 32 and a_k > 1e6 * max(per_k[0], 1e-290):
                raise DivergenceError(k)
        else:
            grow_run = 0
        a_prev = a_k

        if rho < 1.0 - 1e-12:
            rho_t = rho * math.exp((m - 0.5) / max(k, 1))
            if rho_t < 1.0:
                tail = a_k * rho_t / (1.0 - rho_t)
                if tail <= cfg.tail_tol:
                    truncated = False
                    break
        if a_k == 0.0:
            tail = 0.0
            truncated = False
            break
        y = T @ y

    return SFReport(value=space.square_norm(acc),
                    tail_bound=float(tail if np.isfinite(tail) else per_k[-1]),
                    n_terms=k, truncated=truncated, per_k=np.array(per_k))


def _deflate(T: np.ndarray):
    """(W, T_r) with W an orthonormal basis of Ran(I-T) and T_r = W^H T W.

    Ran(I-T) is T-invariant; when 1 is not an eigenvalue W spans the
    whole space and T_r is just a unitary conjugate of T.
    """
    n = T.shape[0]
    P = ritt.mean_ergodic_projection(T)
    Q = np.eye(n, dtype=complex) - P
    U, s, _ = scipy.linalg.svd(Q)
    r = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    W = U[:, :r]
    return W, W.conj().T @ T @ W


def gram_operator(T, m: int = 1, method: str = "auto",
                  tol: float = 1e-13, n_max: int = 200000) -> np.ndarray:
    """Hermitian PSD Gram operator of the order-m square function (Euclidean).

    method "stein" (m = 1 only): two nested Stein equations
    H - T*HT = Q, G - T*GT = H on the deflated subspace.  method
    "series": truncation with a geometric tail bound below ``tol``.
    "auto" picks stein for m = 1.
    """
    T = as_matrix(T, square=True)
    if m < 1:
        raise ValueError("m must be >= 1")
    if method == "auto":
        method = "stein" if m == 1 else "series"
    W, Tr = _deflate(T)
    rho = float(np.max(np.abs(numlin.eig(Tr).eigenvalues))) if Tr.size else 0.0
    if Tr.size and rho >= 1.0 - 1e-12:
        raise DivergenceError(0, "spectral radius off the fixed space is not < 1 "
                                 f"(rho={rho:.6f}); eigenvalue-1 deflation failed")
    n = T.shape[0]
    A = np.eye(n, dtype=complex) - T
    Em = W.conj().T @ np.linalg.matrix_power(A, m)

    if not Tr.size:
        return np.zeros((n, n), dtype=complex)

    if method == "stein":
        if m != 1:
            raise ValueError("stein route applies to m=1 only")
        r = Tr.shape[0]
        H = scipy.linalg.solve_discrete_lyapunov(Tr.conj().T, np.eye(r, dtype=complex))
        Gr = scipy.linalg.solve_discrete_lyapunov(Tr.conj().T, H)
    elif method == "series":
        r = Tr.shape[0]
        Gr = np.zeros((r, r), dtype=complex)
        Pk = np.eye(r, dtype=complex)
        k = 0
        while True:
            k += 1
            Gr += k ** (2 * m - 1) * (Pk.conj().T @ Pk)
            b_k = k ** (2 * m - 1) * np.linalg.norm(Pk, 2) ** 2
            rho_t = rho * math.exp((2 * m - 1) / (2.0 * k))
            if rho_t < 1.0 and b_k * rho_t**2 / (1.0 - rho_t**2) <= tol:
                break
            if k >= n_max:
                raise DivergenceError(k, "series truncation cap reached")
            Pk = Pk @ Tr
    else:
        raise ValueError(f"unknown gram method {method!r}")

    G = Em.conj().T @ Gr @ Em
    return 0.5 * (G + G.conj().T)


def _polish_ratio(fun, x0: np.ndarray, rounds: int = 60, seed: int = 1):
    """Deterministic hill climb of fun(x) over nonzero vectors."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    best_x = x0 / np.linalg.norm(x0)
    best = fun(best_x)
    step = 0.5
    for _ in range(rounds):
        d = rng.normal(size=best_x.shape) + 1j * rng.normal(size=best_x.shape)
        cand = best_x + step * d / np.linalg.norm(d)
        cand /= np.linalg.norm(cand)
        v = fun(cand)
        if v > best:
            best, best_x = v, cand
        else:
            step *= 0.85
            if step < 1e-8:
                break
    return best, best_x


def _apply_gram_series(T: np.ndarray, m: int, x: np.ndarray,
                       n_terms: int) -> np.ndarray:
    """G x through the series, without assembling G (for power iteration)."""
    A = np.eye(T.shape[0], dtype=complex) - T
    Am = np.linalg.matrix_power(A, m)
    z = Am @ x
    zs = []
    for _ in range(n_terms):
        zs.append(z)
        z = T @ z
    AHm = Am.conj().T
    TH = T.conj().T
    u = np.zeros_like(x)
    for k in range(len(zs), 0, -1):  # Horner in T^H
        u = TH @ u + k ** (2 * m - 1) * (AHm @ zs[k - 1])
    return u


def sf_constant(T, m: int, space: SpaceModel,
                trials: int = 500, seed: int = 0,
                cfg: Optional[SFConfig] = None,
                method: str = "auto") -> float:
    """Smallest C with ||x||_{T,m} <= C ||x||.

    Euclidean model: exact, the square root of the top Gram eigenvalue
    (method "gram"); method "maximize" cross-checks it by random starts
    plus power-iteration ascent on the series-applied Gram form.  Other
    models: maximization over random unit vectors plus a hill climb, a
    lower bound (flagged by construction, not by value).
    """
    T = as_matrix(T, square=True)
    cfg = cfg or SFConfig(m=m)
    if cfg.m != m:
        cfg = dataclasses.replace(cfg, m=m)
    if isinstance(space, Hilbert):
        if method in ("auto", "gram"):
            G = gram_operator(T, m=m)
            lam = float(np.max(np.clip(np.linalg.eigvalsh(G).real, 0.0, None))) if G.size else 0.0
            return math.sqrt(lam)
        if method != "maximize":
            raise ValueError(f"unknown sf_constant method {method!r}")
        rho = _effective_radius(T)
        if rho >= 1.0 - 1e-12:
            raise DivergenceError(0, "spectral radius off the fixed space not < 1")
        # series length: geometric tail below 1e-16 relative
        n_terms = min(int(max(64, (40 + (2 * m - 1) * math.log(max(2, 64))) /
                              max(1e-12, -math.log(max(rho, 1e-12))))), 100000)
        rng = np.random.Generator(np.random.Philox(key=seed))
        d = T.shape[0]
        best = 0.0
        for _ in range(max(trials // 50, 4)):
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            x /= np.linalg.norm(x)
            lam_prev = -1.0
            for _ in range(1000):
                y = _apply_gram_series(T, m, x, n_terms)
                lam = float(np.vdot(x, y).real)
                ny = np.linalg.norm(y)
                if ny == 0:
                    break
                x = y / ny
                if abs(lam - lam_prev) <= 1e-15 * max(lam, 1.0):
                    break
                lam_prev = lam
            best = max(best, max(lam, 0.0))
        return math.sqrt(best)

    d = space.dim
    rng = np.random.Generator(np.random.Philox(key=seed))

    def ratio(x):
        nx = vec_norm(x, space)
        if nx == 0:
            return 0.0
        return square_function(T, x, space, cfg).value / nx

    best, best_x = 0.0, None
    for _ in range(trials):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        r = ratio(v / np.linalg.norm(v))
        if r > best:
            best, best_x = r, v / np.linalg.norm(v)
    if best_x is not None:
        best = max(best, _polish_ratio(ratio, best_x, seed=seed + 1)[0])
    return best


# ---------------------------------------------------------------------------
# Rademacher averages
# ---------------------------------------------------------------------------

def _stack(xs: Sequence, space: SpaceModel) -> np.ndarray:
    rows = [check_vector(x, space).reshape(-1) for x in xs]
    return np.array(rows, dtype=complex)


def sign_patterns(K: int) -> np.ndarray:
    """All sign patterns with eps_1 = +1 (the rest follow by symmetry)."""
    P = 1 << (K - 1)
    out = np.ones((P, K))
    for j in range(1, K):
        period = 1 << (j - 1)
        col = np.ones(P)
        idx = (np.arange(P) // period) % 2 == 1
        col[idx] = -1.0
        out[:, j] = col
    return out


def rad_norm(xs: Sequence, space: SpaceModel, mode: str = "exact",
             samples: int = MC_DEFAULT_SAMPLES,
             seed: Optional[int] = None) -> RadEstimate:
    """Rademacher average (E ||sum_k eps_k x_k||^2)^(1/2).

    Exact mode enumerates all sign patterns (up to 20 summands, using
    the eps -> -eps symmetry to halve the work).  Monte Carlo mode
    requires a seed and reports the standard error of the estimate.
    """
    X = _stack(xs, space)
    K = X.shape[0]
    if K == 0:
        return RadEstimate(value=0.0, mode="exact-enumeration")
    if K == 1:
        return RadEstimate(value=float(space.norms(X)[0]),
                           mode="exact-enumeration")
    if mode == "exact":
        if K > EXACT_ENUM_MAX:
            raise ValueError(f"exact enumeration limited to {EXACT_ENUM_MAX} summands, got {K}")
        S = sign_patterns(K)
        norms = space.norms(S @ X)
        return RadEstimate(value=float(np.sqrt(np.mean(norms**2))),
                           mode="exact-enumeration")
    if mode == "monte-carlo":
        if seed is None:
            raise ValueError("monte-carlo mode requires a seed")
        rng = np.random.Generator(np.random.Philox(key=seed))
        S = rng.integers(0, 2, size=(samples, K)) * 2.0 - 1.0
        sq = space.norms(S @ X) ** 2
        mean = float(np.mean(sq))
        se_sq = float(np.std(sq, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        value = math.sqrt(mean)
        se = se_sq / (2.0 * value) if value > 0 else math.sqrt(max(se_sq, 0.0))
        return RadEstimate(value=value, mode="monte-carlo", samples=samples,
                           seed=seed, standard_error=se)
    raise ValueError(f"unknown mode {mode!r}")


def rad_rad_norm(x_grid: Sequence[Sequence], space: SpaceModel) -> RadEstimate:
    """Doubly indexed average over independent eps_i (x) eps_j (exact).

    The (i, j) grid is flattened to rank-one sign products; the total
    pattern count 2^(rows + cols - 1) must stay enumerable.
    """
    rows = len(x_grid)
    cols = len(x_grid[0])
    if rows + cols - 1 > EXACT_ENUM_MAX:
        raise ValueError("pattern count too large for exact double enumeration")
    X = np.array([[check_vector(x, space).reshape(-1) for x in row] for row in x_grid],
                 dtype=complex)
    Si = sign_patterns(rows) if rows > 1 else np.ones((1, 1))
    Sj = sign_patterns(cols) if cols > 1 else np.ones((1, 1))
    vals = []
    for si in Si:
        for sj in Sj:
            Y = np.tensordot(si, np.tensordot(sj, X, axes=(0, 1)), axes=(0, 0))
            vals.append(space.norms(Y[None, :])[0] ** 2)
    return RadEstimate(value=float(np.sqrt(np.mean(vals))), mode="exact-enumeration")


def khintchine_ratio(xs: Sequence, space: SpaceModel) -> float:
    """rad_norm(xs) over the norm of the pointwise square sum.

    Defined for the Euclidean and weighted-p models; exactly 1 at p = 2
    by orthogonality.  Both quantities vanish together; the empty ratio
    is defined as 1.
    """
    if not isinstance(space, (Hilbert, LpWeighted)):
        raise ValueError("khintchine_ratio is defined on Hilbert/LpWeighted models")
    X = _stack(xs, space)
    if X.size == 0:
        return 1.0
    g = np.sqrt(np.sum(np.abs(X) ** 2, axis=0))
    denom = vec_norm(g, space)
    num = rad_norm(xs, space).value
    if denom == 0.0:
        return 1.0
    return num / denom


def nc_khintchine_report(xs: Sequence, space: SchattenP) -> dict:
    """Noncommutative Khintchine data for a finite Schatten family.

    Reports the exact Rademacher average, the column and row square
    terms, and - on the p <= 2 side - a decomposition upper bound from
    the candidate splits (all-in-u, all-in-v, half-half), flagged
    non-optimal since the true infimum is not optimized.
    """
    if not isinstance(space, SchattenP):
        raise ValueError("nc_khintchine_report needs a SchattenP model")
    flat = [check_vector(x, space).reshape(-1) for x in xs]
    col_term, row_term = (space.square_norm(sum(space.square_term(x, side) for x in flat))
                          for side in ("column", "row"))
    rad = rad_norm(flat, space).value
    out = {
        "rad": rad,
        "column_term": col_term,
        "row_term": row_term,
        "p": space.p,
    }
    if space.p >= 2.0:
        out["max_col_row"] = max(col_term, row_term)
        out["ratio_to_max"] = rad / max(out["max_col_row"], 1e-300)
    else:
        half = 0.5 * col_term + 0.5 * row_term
        out["decomposition_upper"] = min(col_term, row_term, half)
        out["decomposition_candidates"] = {
            "all-in-u": col_term, "all-in-v": row_term, "half-half": half}
        out["optimal"] = False
    return out


# ---------------------------------------------------------------------------
# R-bounds
# ---------------------------------------------------------------------------

def r_bound_lower(Ts: Sequence, space: SpaceModel, trials: int = 200,
                  seed: int = 0) -> float:
    """Lower bound for the R-bound of a finite operator family.

    Maximizes rad({T_k x_k}) / rad({x_k}) over random tuples; on the
    Euclidean model the ratio is a generalized Rayleigh quotient of the
    block-diagonal of T_k* T_k, so a power-iteration polish makes the
    bound sharp (there, the R-bound equals sup_k ||T_k||).
    """
    ops = [numlin.as_operator(Tk, space) for Tk in Ts]
    K = len(ops)
    if K == 0:
        return 0.0
    d = space.dim
    rng = np.random.Generator(np.random.Philox(key=seed))

    def ratio(tup):
        den = rad_norm(tup, space).value
        if den == 0:
            return 0.0
        num = rad_norm([ops[k] @ tup[k] for k in range(K)], space).value
        return num / den

    best = 0.0
    best_tup = None
    for _ in range(trials):
        tup = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(K)]
        r = ratio(tup)
        if r > best:
            best, best_tup = r, tup

    if isinstance(space, Hilbert):
        # exact polish: power iteration on blockdiag(T_k^H T_k)
        v = np.concatenate(best_tup) if best_tup is not None else rng.normal(size=K * d) + 0j
        for _ in range(500):
            w = np.concatenate([ops[k].conj().T @ (ops[k] @ v[k * d:(k + 1) * d])
                                for k in range(K)])
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        tup = [v[k * d:(k + 1) * d] for k in range(K)]
        best = max(best, ratio(tup))
    elif best_tup is not None:
        flat = np.concatenate(best_tup)

        def flat_ratio(u):
            return ratio([u[k * d:(k + 1) * d] for k in range(K)])

        best = max(best, _polish_ratio(flat_ratio, flat, seed=seed + 1)[0])
    return best


# ---------------------------------------------------------------------------
# quadratic and matricial calculus ratios
# ---------------------------------------------------------------------------

def _apply_family(T: np.ndarray, phis: Sequence, gamma: Optional[float]):
    """phi_l(T) for a family, sharing one contour when needed."""
    outs = []
    calc = None
    for phi in phis:
        if isinstance(phi, funcalc.HolomorphicFn) and phi.kind == "polynomial":
            outs.append(funcalc.eval_poly(T, phi))
        else:
            if calc is None:
                calc = funcalc.ContourCalculus(T, gamma=gamma)
            outs.append(calc.apply(phi).value)
    return outs


def quadratic_calc_ratio(T, phi_list: Sequence, x, space: SpaceModel,
                         gamma: float) -> float:
    """Measured constant of the vector-valued (quadratic) calculus.

    rad({phi_l(T) x}) / (||x|| * sup_boundary (sum_l |phi_l|^2)^(1/2)).
    """
    T = as_matrix(T, square=True)
    x = check_vector(x, space)
    xv = x.reshape(-1)
    mats = _apply_family(T, phi_list, gamma)
    num = rad_norm([M @ xv for M in mats], space).value
    den = vec_norm(x, space) * funcalc.hinf_vector_norm(phi_list, gamma)
    if den == 0.0:
        return math.inf if num > 0 else 0.0
    return num / den


def matrix_calc_ratio(T, phi_matrix: Sequence[Sequence], xs: Sequence,
                      space: SpaceModel, gamma: float) -> float:
    """Measured constant of the matricial calculus.

    rad({sum_j phi_lj(T) x_j}_l) divided by sup_boundary ||[phi_lj(z)]||_{M_n}
    * rad({x_j}), for a square n x n ``phi_matrix`` and n vectors ``xs``.
    """
    T = as_matrix(T, square=True)
    n = len(phi_matrix)
    if len(xs) != n:
        raise ValueError(f"{len(xs)} vectors for a {n}-row phi_matrix")
    hinf = funcalc.hinf_matrix_norm(phi_matrix, gamma)  # checks that it is square
    xs = [check_vector(x, space) for x in xs]
    flat = [phi for row in phi_matrix for phi in row]
    mats = _apply_family(T, flat, gamma)
    ys = []
    for l in range(n):
        acc = np.zeros(xs[0].reshape(-1).shape, dtype=complex)
        for j in range(n):
            acc = acc + mats[l * n + j] @ xs[j].reshape(-1)
        ys.append(acc.reshape(xs[0].shape))
    num = rad_norm(ys, space).value
    den = hinf * rad_norm(xs, space).value
    if den == 0.0:
        return math.inf if num > 0 else 0.0
    return num / den


def sfe_family(m: int, count: int, exponent: str = "l") -> list:
    """Test family phi_l(z) = l^(m-1/2) z^(l-1) (1-z)^e, l = 1..count.

    ``exponent`` selects e: "l" (the literal family) or "m" (the
    variant with a fixed power); both are provided since either makes
    the partial square function appear as the quadratic numerator.
    """
    if exponent not in ("l", "m"):
        raise ValueError("exponent must be 'l' or 'm'")
    fam = []
    for l in range(1, count + 1):
        e = l if exponent == "l" else m
        base = np.array([1.0], dtype=complex)
        for _ in range(e):
            base = np.convolve(base, np.array([1.0, -1.0], dtype=complex))
        coeffs = np.concatenate([np.zeros(l - 1, dtype=complex), base])
        fam.append(funcalc.poly(l ** (m - 0.5) * coeffs,
                                label=f"sfe l={l} e={e}"))
    return fam


def c512_check(T, tol: float = 1e-8) -> dict:
    """Order-1 vs order-2 square-function constants on the Euclidean model.

    Checks C2 <= sqrt(6) C1^2 + tol; the chain behind it uses only the
    exact two-variable sign identity and the convolution identity
    sum_{j<=k} j (k+1-j) = k(k+1)(k+2)/6, so on the Euclidean model the
    constant sqrt(6) is not an equivalence fudge.
    """
    T = as_matrix(T, square=True)
    c1 = sf_constant(T, 1, Hilbert(T.shape[0]))
    c2 = sf_constant(T, 2, Hilbert(T.shape[0]))
    bound = math.sqrt(6.0) * c1 * c1 + tol
    return {"C1": c1, "C2": c2, "bound": bound, "holds": bool(c2 <= bound)}
