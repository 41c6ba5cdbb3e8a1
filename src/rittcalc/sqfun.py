"""Discrete square functions, Rademacher averages and R-bound estimation.

The square function of order m at x is the Rademacher-average norm of
sum_k k^(m-1/2) eps_k (x) T^(k-1)(I-T)^m x.  On the Euclidean model it
collapses to a weighted l2 sum of iterate differences and is the
quadratic form of the Gram operator

    G = sum_k k^(2m-1) (T*)^(k-1) (I-T*)^m (I-T)^m T^(k-1),

computed at every m as this one series, term by term up to ``GRAM_HEAD``
terms and by doubling the count past them, until its geometric tail
bound falls below ``GRAM_TAIL_TOL``.  On the weighted-p / sup models the
square sum moves inside the norm pointwise; on Schatten models it
becomes the Schatten norm of (sum_k k^(2m-1) |Delta_k x|^2)^(1/2) with
a column/row side choice.  Every route takes its spectral radius off
the fixed space from one helper, which refuses a defective eigenvalue 1
(SingularMatrixError) and leaves a radius >= 1 to DivergenceError.

Rademacher averages are exact sign enumerations up to 20 summands, run
in blocks on the node pool with the same value on any worker count, and
counter-based (Philox) Monte Carlo beyond, so parallel or repeated runs
with one seed reproduce bit-identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import funcalc, numlin, ritt
from .numlin import (Hilbert, LpWeighted, SchattenP, SpaceModel, as_matrix, as_operator,
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
GRAM_TAIL_TOL = 1e-13  # geometric tail at which the Gram series is cut
GRAM_HEAD = 8192  # Gram terms walked one power at a time; longer series double
GRAM_N_MAX = 2**60  # longest Gram series before DivergenceError
SF_N_MAX = 20000  # most square-function terms before the sum is flagged truncated
C512_TOL = 1e-8  # slack on the right of c512_check's C2 <= sqrt(6) C1^2


class DivergenceError(ArithmeticError):
    """Square-function terms grow instead of decaying."""

    def __init__(self, k: int, msg: str = ""):
        super().__init__(msg or f"square-function terms diverge, first bad k={k}")
        self.k = k


@dataclass(frozen=True)
class SFConfig:
    """Truncation policy for square-function sums."""

    m: int = 1
    tail_tol: float = 1e-10
    side: str = "column"  # Schatten models: column (y*y) or row (yy*)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.tail_tol < math.inf:  # also NaN
            raise ValueError("tail_tol must be positive and finite")
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

def _effective_radius(T: np.ndarray) -> tuple:
    """(rho, P): the largest |eigenvalue| off the eigenvalue-1 cluster (0
    if none) and the mean-ergodic projection P of :func:`ritt._split_one`
    (zero without a cluster), both from the one ordered Schur form of
    :func:`ritt._spectrum`.

    The split raises SingularMatrixError on a defective cluster at 1, so
    no square-function route sums a series that grows without bound.
    """
    eigs, k, *_ = spectrum = ritt._spectrum(T)
    P = ritt._split_one(spectrum)[0]
    return float(np.max(np.abs(eigs[k:]), initial=0.0)), np.zeros_like(T) if P is None else P


def square_function(T, x, space: SpaceModel, cfg: Optional[SFConfig] = None) -> SFReport:
    """||x||_{T,m} in the given space model, with a tail certificate.

    The sum is cut at the smallest N whose geometric tail estimate
    (driven by the spectral radius off the fixed space) drops below
    ``cfg.tail_tol``; if that never happens by ``SF_N_MAX`` terms the result
    is flagged truncated.  Terms that grow raise DivergenceError.
    """
    cfg = cfg or SFConfig()
    T = as_operator(T, space)
    y = check_vector(x, space).reshape(-1)
    return _square_sums(T, y, space, cfg, _effective_radius(T)[0])


def _square_sums(T: np.ndarray, y: np.ndarray, space: SpaceModel, cfg: SFConfig,
                 rho: float) -> SFReport:
    """The :func:`square_function` report of the flat element y.

    The geometric tail a_k rho_t / (1 - rho_t) ends the sum only once k
    passes dim T, which bounds the index of any nilpotent part of T (whose
    terms the spectral radius does not see); a zero next iterate ends it
    at any k.  32 growing terms in a row, the last 1e6 above the first,
    raise DivergenceError.
    """
    m, d = cfg.m, T.shape[0]
    A = np.eye(d, dtype=complex) - T
    for _ in range(m):
        y = A @ y

    acc = 0.0  # sum of k^(2m-1) space.square_term(y_k); the first term sets its shape
    per_k = []
    grow = 0
    k = 0
    tail = math.inf
    truncated = True
    while k < SF_N_MAX:
        k += 1
        a_k = k ** (m - 0.5) * float(space.norms(y))
        per_k.append(a_k)
        acc += k ** (2 * m - 1) * space.square_term(y, cfg.side)

        grow = grow + 1 if k > 1 and a_k > per_k[-2] * (1.0 + 1e-12) and a_k > 1e-290 else 0
        if grow >= 32 and a_k > 1e6 * max(per_k[0], 1e-290):
            raise DivergenceError(k)

        rho_t = rho * math.exp((m - 0.5) / k)
        if rho < 1.0 - 1e-12 and rho_t < 1.0:
            tail = a_k * rho_t / (1.0 - rho_t)
        y = T @ y
        if not y.any():  # every later term is zero
            tail, truncated = 0.0, False
            break
        if k > d and tail <= cfg.tail_tol:
            truncated = False
            break

    return SFReport(value=float(space.square_norm(acc)),
                    tail_bound=float(tail if np.isfinite(tail) else per_k[-1]),
                    n_terms=k, truncated=truncated, per_k=np.array(per_k))


def gram_operator(T, m: int = 1) -> np.ndarray:
    """Hermitian PSD Gram operator of the order-m square function (Euclidean).

    The series of :func:`_series_gram`, cut where its geometric tail
    falls below ``GRAM_TAIL_TOL``, then symmetrized.  DivergenceError
    unless the spectral radius off the fixed space is < 1;
    SingularMatrixError when the eigenvalue 1 is defective.
    """
    T = as_matrix(T, square=True)
    if m < 1:
        raise ValueError("m must be >= 1")
    G = _series_gram(T, m, _effective_radius(T)[0])
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


def _unit_starts(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` random unit vectors in the rows, drawn as the one-at-a-time
    loop drew them: real part, then imaginary part, one start after another."""
    Z = rng.normal(size=(count, 2, d))
    X = Z[:, 0] + 1j * Z[:, 1]
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _series_len(T: np.ndarray, Am: np.ndarray, m: int, rho: float) -> int:
    """Terms n of the series sum_k k^(2m-1) ||T^(k-1) A^m x||^2, A^m = Am.

    n doubles from max(64, the n with rho^(2n) <= GRAM_TAIL_TOL) until the
    geometric tail n^(2m-1) ||T^(n-1) A^m||_2^2 rho_t^2 / (1 - rho_t^2),
    rho_t = rho e^((2m-1)/(2n)), is at most GRAM_TAIL_TOL.  rho is the
    spectral radius off the fixed space; DivergenceError unless rho < 1,
    or past GRAM_N_MAX terms.
    """
    if rho >= 1.0 - 1e-12:
        raise DivergenceError(0, "spectral radius off the fixed space is not < 1 "
                                 f"(rho={rho!r})")
    n = max(64, math.ceil(math.log(GRAM_TAIL_TOL) / (2.0 * math.log(rho))) if rho > 0 else 0)
    while True:
        if n > GRAM_N_MAX:
            raise DivergenceError(n, "series truncation cap reached")
        rho_t = rho * math.exp((2 * m - 1) / (2.0 * n))
        b_n = n ** (2 * m - 1) * np.linalg.norm(np.linalg.matrix_power(T, n - 1) @ Am, 2) ** 2
        if rho_t < 1.0 and b_n * rho_t**2 / (1.0 - rho_t**2) <= GRAM_TAIL_TOL:
            return n
        n *= 2


def _series_gram(T: np.ndarray, m: int, rho: float) -> np.ndarray:
    """sum_{k<=n} k^(2m-1) B_k^H B_k, B_k = T^(k-1) A^m, A = I - T, n from
    :func:`_series_len`.

    The first min(n, GRAM_HEAD) terms come from one walk of
    :func:`numlin.power_blocks`, one GEMM per block.  Past the head the
    weighted sums W_p(c) = sum_{k<=c} k^p (T^(k-1))^H (A^m)^H A^m T^(k-1),
    p < 2m, double together:
    W_p(2c) = W_p(c) + (T^c)^H [sum_{q<=p} binom(p, q) c^(p-q) W_q(c)] T^c,
    so any rho < 1 costs log n steps.  Each step carries the rounding of
    W(c) through T^c, which costs digits on a non-normal T with rho near 1,
    so the walk serves every series it can.  A^m goes in before the sum,
    so no fixed vector of T has to cancel afterwards.
    """
    d = T.shape[0]
    Am = np.linalg.matrix_power(np.eye(d, dtype=complex) - T, m)
    n = _series_len(T, Am, m, rho)
    c = min(n, GRAM_HEAD)
    weights = range(2 * m) if n > c else [2 * m - 1]  # the doubling needs every p
    W = {p: np.zeros((d, d), dtype=complex) for p in weights}
    for s, P in numlin.power_blocks(T, c):
        B = P[:c - s] @ Am  # the walk reaches T^c, the first power past the head
        k = np.arange(s + 1, s + 1 + len(B), dtype=float)
        for p in weights:
            W[p] += B.reshape(-1, d).conj().T @ ((k**p)[:, None, None] * B).reshape(-1, d)
    P = P[-1]  # T^c
    while c < n:
        Z = {q: P.conj().T @ W[q] @ P for q in weights}
        W = {p: W[p] + sum(math.comb(p, q) * float(c) ** (p - q) * Z[q] for q in range(p + 1))
             for p in weights}
        P = P @ P
        c *= 2
    return W[2 * m - 1]


def _top_rayleigh(G: np.ndarray, X: np.ndarray) -> float:
    """Largest Rayleigh quotient of G reached by power iteration from the
    columns of X, all in one block.

    A column stops when its quotient moves by at most 1e-15 max(lam, 1),
    when G maps it to zero, or after 1000 products, and is frozen then.
    """
    lam = np.zeros(X.shape[1])
    lam_prev = np.full(X.shape[1], -1.0)
    live = np.arange(X.shape[1])
    for _ in range(1000):
        Xl = X[:, live]
        Y = G @ Xl
        lam[live] = np.sum(Xl.conj() * Y, axis=0).real
        ny = np.linalg.norm(Y, axis=0)
        moved = ny > 0
        X[:, live[moved]] = Y[:, moved] / ny[moved]
        done = ~moved | (np.abs(lam[live] - lam_prev[live]) <= 1e-15 * np.maximum(lam[live], 1.0))
        lam_prev[live] = lam[live]
        live = live[~done]
        if not live.size:
            break
    return float(np.max(np.maximum(lam, 0.0)))


def sf_constant(T, m: int, space: SpaceModel,
                trials: int = 500, seed: int = 0,
                cfg: Optional[SFConfig] = None,
                method: str = "auto") -> float:
    """Smallest C with ||x||_{T,m} <= C ||x||.

    Euclidean model: exact, the square root of the top eigenvalue of
    :func:`gram_operator` (method "auto" or "gram").  Method "maximize"
    reads the same series Gram form and runs power iteration from
    max(trials // 50, 4) random starts at once (drawn from ``seed``), the
    columns of one block, so it cross-checks the eigensolver, not the
    series.  Other models have only method "auto", the norm of
    x -> (k^(m-1/2) T^(k-1)(I-T)^m x)_k from the space into its
    square-sum target, bounded from below by one Boyd ascent
    (:func:`numlin._boyd_ascent`, each step one GEMM) on the stack of
    its first n terms (:func:`_square_stack`), with the target's norm and
    duality map from the model (``square_witness``).  The value is the
    square function of the ascent's witness over its norm, summed by
    :func:`_square_sums`: a lower bound, the ratio of a concrete vector,
    that depends on neither ``trials`` nor ``seed``.

    The spectral radius is taken once per call.  ``trials`` must be at
    least 1 off the exact route.  T must act on the model: ShapeError
    otherwise.
    """
    T = as_operator(T, space)
    cfg = dataclasses.replace(cfg or SFConfig(), m=m)
    euclidean = isinstance(space, Hilbert)
    if method not in (("auto", "gram", "maximize") if euclidean else ("auto",)):
        raise ValueError(f"unknown sf_constant method {method!r} on {type(space).__name__}")
    if euclidean and method != "maximize":
        G = gram_operator(T, m=m)
        lam = float(np.max(np.clip(np.linalg.eigvalsh(G).real, 0.0, None))) if G.size else 0.0
        return math.sqrt(lam)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rho = _effective_radius(T)[0]
    if euclidean:
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = _unit_starts(rng, max(trials // 50, 4), T.shape[0]).T
        return math.sqrt(_top_rayleigh(_series_gram(T, m, rho), X))

    x = space.square_witness(_square_stack(T, m, rho), cfg.side)
    return float(_square_sums(T, x, space, cfg, rho).value / space.norms(x))


def _square_stack(T: np.ndarray, m: int, rho: float) -> np.ndarray:
    """S_k = k^(m-1/2) T^(k-1) (I-T)^m for k = 1..n, shape (n, d, d), from
    one walk of :func:`numlin.power_blocks`: n is the series length of
    :func:`_series_len`, cut at ``numlin.resolvent_block_len(d)`` and at
    ``SF_N_MAX``."""
    d = T.shape[0]
    Am = np.linalg.matrix_power(np.eye(d, dtype=complex) - T, m)
    n = min(_series_len(T, Am, m, rho), numlin.resolvent_block_len(d), SF_N_MAX)
    S = np.empty((n, d, d), dtype=complex)
    for s, P in numlin.power_blocks(T, n - 1):
        np.matmul(P, Am, out=S[s:s + len(P)])
    S *= (np.arange(1, n + 1, dtype=float) ** (m - 0.5))[:, None, None]
    return S


# ---------------------------------------------------------------------------
# Rademacher averages
# ---------------------------------------------------------------------------

def _stack(xs: Sequence, space: SpaceModel) -> np.ndarray:
    rows = [check_vector(x, space).reshape(-1) for x in xs]
    return np.array(rows, dtype=complex)


def _sign_table(K: int, height: int) -> np.ndarray:
    """The first ``height`` of the 2^(K-1) sign patterns with eps_1 = +1.

    Row i carries eps_(j+1) = -1 exactly where bit j-1 of i is set.  For
    ``height`` = 2^b its first 1 + b columns are the same in every block
    of ``height`` rows that starts at a multiple of ``height``, and the
    rest are +1.
    """
    table = np.ones((height, K))
    table[:, 1:] = 1 - 2 * ((np.arange(height)[:, None] >> np.arange(K - 1)) & 1)
    return table


def _sign_block(table: np.ndarray, start: int) -> np.ndarray:
    """Patterns ``start`` .. ``start + height - 1`` from :func:`_sign_table`.

    ``start`` is a multiple of the table's height 2^b: the low b bits of
    the row index are the table's, and the high columns, constant on the
    block, take their signs from the bits of ``start``.
    """
    height, K = table.shape
    b = height.bit_length() - 1
    block = table.copy()
    block[:, 1 + b:] = 1 - 2 * ((start >> np.arange(b, K - 1)) & 1)
    return block


def _block_height(patterns: int, row_bytes: int) -> int:
    """Rows per block of sign patterns within ``numlin.RESOLVENT_BLOCK_BYTES``.

    A power of two, so it divides the pattern count and leaves no short
    tail, and at least 2: a 1-row product takes numpy's GEMV path, which
    rounds differently from the GEMM of a taller block.
    """
    height = 2
    while height < patterns and 2 * height * row_bytes <= numlin.RESOLVENT_BLOCK_BYTES:
        height *= 2
    return min(height, patterns)


def _enumerated_rad(X: np.ndarray, K: int, space: SpaceModel, coefficients=None) -> float:
    """(mean ||c X||^2)^(1/2) over the 2^(K-1) sign patterns of length K.

    ``coefficients`` maps a block of patterns to its rows c of
    coefficients on the rows of X (default: the patterns themselves).
    Only the squared norms are kept, in one array of 2^(K-1) floats with
    one mean over it.  The blocks run through ``numlin.map_in_order``:
    each builds its patterns from one sign table of the low bits and
    writes its slice of that array, and a call of one block stays on the
    caller's thread.  The block height depends on K and the row length
    only, and every pattern row is a row of the same GEMM whatever the
    block, so the value is bit for bit the one product's on any number
    of workers.  Blocks keep the full height: quarter-height blocks, as
    ``numlin.node_block_len`` cuts, made lp:3 K=20 take 84-134 ms against
    50 ms, from interpreter-lock hand-offs on small numpy calls.
    """
    coefficients = coefficients or (lambda E: E)
    Xf = X.view(float)  # the coefficients are real: one real GEMM, no complex cast
    sq = np.empty(1 << (K - 1))
    # a block row: its K signs, its coefficients (float) and its image (complex)
    height = _block_height(sq.size, 8 * (K + X.shape[0]) + 16 * X.shape[1])
    table = _sign_table(K, height)

    def run(start):
        E = _sign_block(table, start)
        sq[start:start + height] = space.norms((coefficients(E) @ Xf).view(complex)) ** 2

    numlin.map_in_order(run, range(0, sq.size, height))
    return float(np.sqrt(np.mean(sq)))


def sign_patterns(K: int) -> np.ndarray:
    """All sign patterns with eps_1 = +1 (the rest follow by symmetry)."""
    return _sign_table(K, 1 << (K - 1))


def rad_norm(xs: Sequence, space: SpaceModel, mode: str = "exact",
             samples: int = MC_DEFAULT_SAMPLES,
             seed: Optional[int] = None) -> RadEstimate:
    """Rademacher average (E ||sum_k eps_k x_k||^2)^(1/2).

    Exact mode enumerates all sign patterns (up to 20 summands, using
    the eps -> -eps symmetry to halve the work), in full-height blocks
    on the node pool of ``numlin.map_in_order``; a call of one block
    stays on the caller's thread, and the value is the same on any
    number of workers.  Two workers raise the ``tracemalloc`` peak at
    K = 20 on lp:3 from 6.8 to 7.6 MB and the ``ascent-constants`` peak
    RSS by about 2.2 MB (3%).  Monte Carlo mode requires a seed and reports the
    standard error of the estimate.
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
        return RadEstimate(value=_enumerated_rad(X, K, space),
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
    lens = [len(row) for row in x_grid]
    if not lens or min(lens) == 0 or len(set(lens)) > 1:
        raise ValueError(f"x_grid must be a non-empty rectangular grid, "
                         f"got {len(lens)} rows of lengths {lens}")
    rows, cols = len(lens), lens[0]
    if rows + cols - 1 > EXACT_ENUM_MAX:
        raise ValueError("pattern count too large for exact double enumeration")
    X = np.array([[check_vector(x, space).reshape(-1) for x in row] for row in x_grid],
                 dtype=complex)

    def rank_one(E):
        # pattern bits: eps_j in the first cols columns, eps_i (i >= 2) after them
        si = np.ones((E.shape[0], rows))
        si[:, 1:] = E[:, cols:]
        return (si[:, :, None] * E[:, None, :cols]).reshape(E.shape[0], rows * cols)

    value = _enumerated_rad(X.reshape(rows * cols, -1), rows + cols - 1, space, rank_one)
    return RadEstimate(value=value, mode="exact-enumeration")


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

    A one-slot tuple attains ||T_k||, so max_k ||T_k|| is a floor; on the
    Euclidean model it is the R-bound itself.  Elsewhere rad({T_k x_k}) /
    rad({x_k}) is maximized over random tuples and the best one polished
    by a hill climb.
    """
    ops = [numlin.as_operator(Tk, space) for Tk in Ts]
    K = len(ops)
    if K == 0:
        return 0.0
    floor = float(numlin.op_norms(ops, space).max())
    if isinstance(space, Hilbert):
        return floor
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
    if best_tup is not None:
        flat = np.concatenate(best_tup)

        def flat_ratio(u):
            return ratio([u[k * d:(k + 1) * d] for k in range(K)])

        best = max(best, _polish_ratio(flat_ratio, flat, seed=seed + 1)[0])
    return max(floor, best)


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


def c512_check(T) -> dict:
    """Order-1 vs order-2 square-function constants on the Euclidean model.

    Checks C2 <= sqrt(6) C1^2 + ``C512_TOL``; the chain behind it uses only the
    exact two-variable sign identity and the convolution identity
    sum_{j<=k} j (k+1-j) = k(k+1)(k+2)/6, so on the Euclidean model the
    constant sqrt(6) is not an equivalence fudge.
    """
    T = as_matrix(T, square=True)
    c1 = sf_constant(T, 1, Hilbert(T.shape[0]))
    c2 = sf_constant(T, 2, Hilbert(T.shape[0]))
    bound = math.sqrt(6.0) * c1 * c1 + C512_TOL
    return {"C1": c1, "C2": c2, "bound": bound, "holds": bool(c2 <= bound)}
