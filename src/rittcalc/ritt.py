"""Diagnostics deciding whether a matrix behaves as a Ritt operator.

A matrix is certified "ritt" when its spectrum sits in the closure of a
Stolz domain with angle strictly below pi/2 (eigenvalue 1 allowed) and
the four decay suprema

    S0 = sup ||T^n||,          S1 = sup n   ||T^n - T^(n-1)||,
    S2 = sup n^2 ||T^(n-1)(I-T)^2||,   S3 = sup n^3 ||T^(n-1)(I-T)^3||

are stable under doubling of the truncation N.  The Ritt property is
asymptotic, so a finite run can only certify stability; when the
spectrum passes but a supremum still grows, the verdict is
"inconclusive" with reasons attached rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import numlin, stolz
from .numlin import Hilbert, ShapeError, SpaceModel, as_matrix, op_norms, power_blocks
from .stolz import NOT_STOLZ

__all__ = [
    "RittConfig",
    "RittReport",
    "decay_profiles",
    "decay_suprema",
    "increment_bound",
    "spectral_type",
    "resolvent_sample_points",
    "resolvent_sup",
    "mean_ergodic_projection",
    "ritt_verdict",
    "eigenvalue_one_tolerance",
]

#: dilation factor of the resolvent sample layer just outside the Stolz boundary
RESOLVENT_DILATION = 1.0 + 1e-4
#: points per boundary piece of the resolvent sample layer, the verdict's density
RESOLVENT_PER_PIECE = 24
VERTEX_EXCLUSION = 1e-8
#: a spectral type within this of pi/2 rules T out
TYPE_MARGIN = 1e-6
#: a supremum that grows by more than this fraction from N to 2N is unstable
STABILITY_REL = 0.05
#: the largest eigenvalue-1 tolerance, ``funcalc.VERTEX_CLUSTER``: every
#: eigenvalue counted as 1 lies in the vertex disc of the contour calculus
_ONE_TOL_MAX = 1e-6


def eigenvalue_one_tolerance(T: np.ndarray) -> float:
    """Clustering tolerance: |lam - 1| at most this counts as eigenvalue 1:
    1e-10 (1 + ||T||_2), capped at 1e-6 so a large ||T|| counts no far one."""
    return min(1e-10 * (1.0 + float(np.linalg.norm(T, 2))), _ONE_TOL_MAX)


def _spectrum(T: np.ndarray) -> tuple:
    """``(eigs, k, tol, S, Q)``: the one complex Schur form T = Q S Q^H of the
    matrix T whose k eigenvalues within ``tol`` = :func:`eigenvalue_one_tolerance`
    of 1 lead (Golub and Van Loan, section 7.6), and its diagonal ``eigs``,
    whose k leading entries are the cluster at 1.  LAPACK failure raises EigNonConvergence."""
    tol = eigenvalue_one_tolerance(T)
    try:
        S, Q, k = scipy.linalg.schur(T, output="complex", sort=lambda lam: abs(lam - 1.0) <= tol)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise numlin.EigNonConvergence(f"Schur form did not converge: {exc}") from exc
    return np.diag(S), k, tol, S, Q


def _split_one(spectrum: tuple) -> tuple:
    """``(P, U)`` of a :func:`_spectrum` ``(eigs, k, tol, S, Q)``: the mean
    ergodic projection P = Q B Q^H, B = [[I, X], [0, 0]] with
    S11 X - X S22 = S12 for the k x k block S11 of the cluster, and the
    triangular form U = S - B of T - P; P is None (and U is S) for k = 0.
    ||S11 - I||_2 > 100 tol (a defective 1) raises SingularMatrixError."""
    _, k, tol, S, Q = spectrum
    if k == 0:
        return None, S
    if np.linalg.norm(S[:k, :k] - np.eye(k), 2) > 100.0 * tol:
        raise numlin.SingularMatrixError(
            "eigenvalue 1 is defective: not power bounded at 1", cond_estimate=np.inf)
    B = np.zeros_like(S)
    B[:k, :k] = np.eye(k)
    B[:k, k:] = scipy.linalg.solve_sylvester(S[:k, :k], -S[k:, k:], S[:k, k:])
    return Q @ B @ Q.conj().T, S - B


class _DecayWalk:
    """One walk over the powers of T for the decay terms of the given orders.

    The inputs are checked when the walk is made, T against the space
    model before any power is taken.  :meth:`run` walks
    :func:`rittcalc.numlin.power_blocks` in the caller's thread and cuts
    each block into slices ``(s, P, prev)`` of
    :func:`rittcalc.numlin.node_block_len` for the N + 1 powers: the
    powers T^s.. and the one before them (None for T^0).  :meth:`terms`
    gives the order-j terms of a slice.
    """

    def __init__(self, T, space: SpaceModel, N: int, orders, left):
        self.T = numlin.as_operator(T, space)
        if N < 1:
            raise ValueError("N must be >= 1")
        if not set(orders) <= {0, 1, 2, 3}:
            raise ValueError(f"orders must lie in 0..3, got {tuple(orders)}")
        if left is not None and np.shape(left) != self.T.shape:
            raise ShapeError(f"left has shape {np.shape(left)}, T has {self.T.shape}")
        self.N, self.left = N, left
        A = np.eye(self.T.shape[0], dtype=complex) - self.T
        with np.errstate(over="ignore", invalid="ignore"):  # run handles what reaches the norms
            self.factor = {2: A @ A, 3: A @ A @ A}

    def terms(self, item, j: int, pick=slice(None)):
        """``(n, M)``: the n of every order-j term of the slice, as floats,
        and the matrices of the terms at ``pick``, left times them.

        The term of n is n^j times the norm of its matrix: L T^n for
        j = 0, L (T^n - T^(n-1)) for j = 1 and L T^(n-1) (I-T)^j for j = 2, 3.
        """
        s, P, prev = item
        end = s + len(P)
        if j == 0:
            n, M = np.arange(s, end, dtype=float), P[pick]
        elif j == 1:  # T^0 has no increment
            Q = P if prev is None else np.concatenate((prev[None], P))
            n = np.arange(end - len(Q) + 1, end, dtype=float)
            M = Q[1:][pick] - Q[:-1][pick]
        else:
            n = np.arange(s + 1, min(end, self.N) + 1, dtype=float)  # T^(n-1) = P[n-1-s]
            M = P[:len(n)][pick] @ self.factor[j]
        return n, M if self.left is None else self.left @ M

    def run(self, on_block, stop=None) -> None:
        """``on_block(items)`` for the slices of every block of powers.

        After each block ``(s, P)`` of powers T^s.. that ends before T^N,
        the walk returns early when ``stop(s, P)`` is true.

        A product of finite powers can overflow a few powers before the
        powers do, and its norm then raises ValueError; the walk then runs
        on, so that the powers' own ``PowerOverflow``, if any, is raised
        instead.  Otherwise ``on_block``'s error is raised.
        """
        step = numlin.node_block_len(self.N + 1, self.T.shape[0])
        blocks = power_blocks(self.T, self.N)
        prev = None  # the last power of the previous block
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for s, P in blocks:
                    on_block([(s + a, P[a:a + step], P[a - 1] if a else prev)
                              for a in range(0, len(P), step)])
                    if stop is not None and s + len(P) <= self.N and stop(s, P):
                        return
                    prev = P[-1].copy()
        except ValueError:
            for _ in blocks:  # a power overflow outranks a product's
                pass
            raise


def decay_profiles(T, space: SpaceModel, N: int, orders=(0, 1, 2, 3),
                   left=None) -> tuple:
    """Per-n rows of the decay sequences along the powers of T, one per order.

    With L = ``left`` (the identity when None), order 0 gives ||L T^n||
    for n = 0..N, order 1 gives n ||L (T^n - T^(n-1))|| from the
    difference of consecutive powers, and orders j = 2, 3 give
    n^j ||L T^(n-1) (I-T)^j|| for n = 1..N, in the order of ``orders``.
    T is checked against the space model before any power is taken.

    The caller's thread walks :func:`rittcalc.numlin.power_blocks`, each
    power the previous one times T.  Each block is cut into slices of
    :func:`rittcalc.numlin.node_block_len` for the N + 1 powers, and the
    norm work of a block's slices (their differences, their products
    with (I-T)^j, ``left`` times them and every ``op_norms``) runs on
    :func:`rittcalc.numlin.map_in_order` before the walk goes on, so
    one block of powers is normed at a time.  A walk that fits in one
    ``resolvent_block_len`` block is one slice, run in the caller's
    thread.  Every row entry comes from its own powers alone, so the
    rows are the same on every machine.  Callers that read only maxima
    take :func:`decay_suprema`, which norms few of the terms.

    A product of finite powers can overflow a few powers before the
    powers do, and its norm then raises ValueError; the walk then runs
    on, so that the powers' own ``PowerOverflow``, if any, is raised
    instead.  Otherwise the first failing slice's error is raised.
    """
    walk = _DecayWalk(T, space, N, orders, left)
    rows = {j: np.empty(N + 1 if j == 0 else N) for j in orders}

    def norm_slice(item):
        for j in orders:
            n, M = walk.terms(item, j)
            rows[j][n.astype(int) - (j > 0)] = n**j * op_norms(M, space)

    walk.run(lambda items: numlin.map_in_order(norm_slice, items))
    return tuple(rows[j] for j in orders)


#: relative slack on a ceiling before it may rule a term out; far above
#: the rounding of the norms and their ceilings
_CEILING_MARGIN = 1e-10


def _tail_peak(j: int, c: int, L: int, q: float, A: float, kmax: int) -> float:
    """max over k = 1..kmax of (c + kL)^j q^k A, for 0 <= q < 1 (NaN when A
    is not finite).

    The logarithm j log(c + kL) + k log q + log A is concave in k, with
    its peak at k = j / log(1/q) - c / L, so the maximum over the
    integers is at k = 1, kmax, or the integers next to that peak.
    """
    if not math.isfinite(A):
        return math.nan
    ks = {1, kmax}
    if j and q > 0.0:
        k_peak = j / -math.log(q) - c / L
        if 1.0 < k_peak < kmax:
            ks.update((math.floor(k_peak), math.ceil(k_peak)))
    return max((c + k * L) ** j * q**k * A for k in ks)


def decay_suprema(T, space: SpaceModel, N: int, orders=(0, 1, 2, 3),
                  cut: Optional[int] = None) -> tuple:
    """Maxima of the :func:`decay_profiles` rows, bit for bit, from few norms.

    One float per order, the maximum over n <= N; with ``cut``, one pair
    per order, the maxima over n <= cut and over n <= N (1 <= cut <= N),
    which is what a doubling test reads.  The inputs, the walk and the
    overflow rule are those of :func:`decay_profiles` without ``left``.

    Each term has a cheap ceiling, ``space.op_norm_ceilings`` of its
    matrix times n^j, that its norm never exceeds: the Frobenius norm
    on Hilbert and Schatten-2, n^|1/2-1/p| times it on Schatten-p, the
    Riesz-Thorin bound on lp and the exact row sums on sup.  The
    products and ceilings of a block's slices run on
    :func:`rittcalc.numlin.map_in_order`.  Then, for each order and each
    of the segments n <= cut and n > cut, the caller's thread norms the
    terms in order of decreasing ceiling, and only while a ceiling times
    1 + ``_CEILING_MARGIN`` still reaches the segment's running maximum:
    1, then 2, 4, ... more terms of each segment per ``op_norms`` call,
    their matrices recomputed from the block's powers.  A term whose
    ceiling is inf or NaN is never ruled out.  Each norm depends only
    on its own matrix, so every maximum is the one of the rows.

    The walk ends early once the terms it has not reached are ruled out
    too.  After a block of the powers T^s..T^e, q is the ceiling of
    T^L, L = max(s, ceil(e/2)).  An unreached order-j term has the matrix
    ``T^r (I-T)^j`` times T^(kL) for one of the last L exponents r
    walked and some k >= 1, and an n at most c + kL, c the largest n
    walked, so it is at most (c + kL)^j q^k A_j, A_j the largest ceiling
    of those L walked matrices.  When q < 1 that bound is log-concave in
    k and :func:`_tail_peak` takes its maximum in closed form.  The walk
    stops when, for every order, the peak times 1 + ``_CEILING_MARGIN``
    is below the running maximum of the segment the unreached terms
    start in (n <= cut while the order has not passed the cut, all n
    after).  A q >= 1, or a NaN or inf in q or in A_j, never stops it,
    so a walk whose powers overflow still reaches the overflow.
    """
    walk = _DecayWalk(T, space, N, orders, None)
    if cut is not None and not 1 <= cut <= N:
        raise ValueError(f"cut must lie in 1..N, got {cut}")
    split = N if cut is None else cut
    best = {(j, seg): -np.inf for j in orders for seg in (0, 1)}
    walked = {j: [] for j in orders}  # (n, ceiling without n^j) of each block

    def ceilings(item):
        out = []
        for j in orders:
            n, M = walk.terms(item, j)
            out.append((n, space.op_norm_ceilings(M)))
        return out

    def on_block(items):
        per_slice = numlin.map_in_order(ceilings, items)
        # one queue per order and segment: the ceilings and (slice,
        # position) of its terms, by decreasing ceiling, NaN first
        queues = []
        for a, j in enumerate(orders):
            n = np.concatenate([out[a][0] for out in per_slice])
            raw = np.concatenate([out[a][1] for out in per_slice])
            walked[j].append((n, raw))
            ceil = n**j * raw
            slot = np.concatenate([np.full(len(out[a][0]), i) for i, out in enumerate(per_slice)])
            pos = np.concatenate([np.arange(len(out[a][0])) for out in per_slice])
            order = np.argsort(-np.where(np.isnan(ceil), np.inf, ceil), kind="stable")
            for seg in (0, 1):
                sel = order[(n[order] > split) == seg]
                queues.append([(j, seg), ceil[sel], slot[sel], pos[sel]])
        take = 1
        while True:
            parts = []  # (order and segment, weights, matrices) of this round
            for q in queues:
                (j, seg), ceil, slot, pos = q
                out = np.flatnonzero(ceil * (1.0 + _CEILING_MARGIN) < best[j, seg])
                live = out[0] if out.size else len(ceil)  # the rest are ruled out
                m = min(take, live)
                for i in np.unique(slot[:m]):
                    ks = pos[:m][slot[:m] == i]
                    n, M = walk.terms(items[i], j, ks)
                    parts.append(((j, seg), (n**j)[ks], M))
                q[1:] = ceil[m:live], slot[m:live], pos[m:live]
            if not parts:
                return
            values = op_norms(np.concatenate([M for *_, M in parts]), space)
            at = 0
            for key, w, M in parts:
                best[key] = np.max(w * values[at:at + len(M)], initial=best[key])
                at += len(M)
            take *= 2

    def tail_ruled_out(s, P):
        e = s + len(P) - 1
        L = max(s, (e + 1) // 2)
        if L < 1:
            return False
        q = float(space.op_norm_ceilings(P[L - s][None])[0])
        if not 0.0 <= q < 1.0:  # also NaN
            return False
        for j in orders:
            c = int(walked[j][-1][0][-1])  # the largest n walked
            if c >= N:
                continue
            A = float(np.max(np.concatenate([raw for _, raw in walked[j]])[-L:]))
            peak = _tail_peak(j, c, L, q, A, (N - c + L - 1) // L)
            seg = best[j, 0] if c < split else max(best[j, 0], best[j, 1])
            if not peak * (1.0 + _CEILING_MARGIN) < seg:  # also NaN
                return False
        return True

    walk.run(on_block, tail_ruled_out)
    maxima = [(float(best[j, 0]), float(np.max([best[j, 0], best[j, 1]]))) for j in orders]
    return tuple(maxima if cut is not None else (b for _, b in maxima))


def increment_bound(T, space: SpaceModel, N: int) -> float:
    """max over 1 <= n <= N of n * ||T^n - T^(n-1)||."""
    return decay_suprema(T, space, N, orders=(1,))[0]


def spectral_type(T) -> float:
    """Largest Stolz angle needed to contain the spectrum.

    Eigenvalues clustered at 1 contribute 0; any other eigenvalue on or
    outside the unit circle yields ``stolz.NOT_STOLZ``.  Moduli within
    1e-11 of the circle are clustered onto it: there the angle, about
    pi/2 - sqrt(2 (1 - |z|)), has a slope above 2e5 in |z|, and an
    eigenvalue's error is eps ||T|| at best (far more for a non-normal
    T), so the classification would be noise.
    """
    return _stolz_type(*_spectrum(as_matrix(T, square=True))[:2])


def _stolz_type(eigs: np.ndarray, k: int) -> float:
    """:func:`spectral_type` of the eigenvalues ``eigs`` of :func:`_spectrum`
    whose k leading ones are at 1: the maximum of
    :func:`rittcalc.stolz.min_angle` over the others."""
    lams = eigs[k:]
    if np.any(np.abs(lams) >= 1.0 - 1e-11):
        return NOT_STOLZ
    return float(np.max(stolz.min_angle(lams), initial=0.0))


def resolvent_sample_points(T, beta: float, per_piece: int = RESOLVENT_PER_PIECE) -> np.ndarray:
    """The nodes of :func:`resolvent_sup`: the ``per_piece`` points per
    piece of :func:`rittcalc.stolz.boundary_samples`, dilated by
    ``RESOLVENT_DILATION`` off the closure (B(beta) is star-shaped about
    0), minus a small disc about the vertex.  No node lies farther out.
    """
    lam = RESOLVENT_DILATION * stolz.boundary_samples(beta, per_piece)
    return lam[np.abs(lam - 1.0) > VERTEX_EXCLUSION]


def resolvent_sup(T, beta: float, space: SpaceModel,
                  per_piece: int = RESOLVENT_PER_PIECE) -> float:
    """Sampled supremum of ||(lam - 1) R(lam, T)|| off closure(B(beta)).

    The spectrum of T lies in closure(B(beta)), so lam -> (lam - 1)
    R(lam, T) is holomorphic off the closure, infinity included, and by
    the maximum principle its norm peaks on the Stolz boundary.  The
    value is the maximum over the :func:`resolvent_sample_points`, a
    lower bound for the true supremum; ``per_piece`` is its only density.
    Very few points per piece can miss a peak: on random Ritt operators,
    samples farther out (dilations 1 + 10^-k, k <= 3, circles |lam| = 2,
    10) beat the layer by up to 11.4x at per_piece 1 and 3% at 3, never
    at the verdict's 24 (worst ratio 0.9996 in 4500 Hilbert, Schatten-2
    and sup cases, 0.9991 in 80 lp:3 and Schatten-3 cases).

    A beta at or below the :func:`spectral_type` of T, where the
    supremum is infinite, or a spectrum in no Stolz closure raises
    ValueError, as :class:`rittcalc.funcalc.ContourCalculus` does.  This
    is the one-beta case of the resolvent stage that :func:`ritt_verdict`
    runs over all its betas at once.  The model's
    ``scaled_resolvent_norms`` norms the nodes, each alone, in blocks of
    :func:`rittcalc.numlin.node_block_len` on
    :func:`rittcalc.numlin.map_in_order`, so the value does not depend on
    the blocks or the workers.  Hilbert and Schatten-2 take
    |lam - 1| / sigma_min(lam I - T) from a stacked SVD and refuse a node
    whose sigma_min / sigma_max is below ``numlin.RCOND_MIN``; the other
    models take the guarded inverses of :func:`rittcalc.numlin.resolvents`.
    A refusal raises :class:`rittcalc.numlin.SingularMatrixError` naming
    the node and its rcond; an SVD that does not converge raises
    :class:`rittcalc.numlin.EigNonConvergence`.
    """
    T = numlin.as_operator(T, space)
    alpha = _stolz_type(*_spectrum(T)[:2])
    if alpha == NOT_STOLZ:
        raise ValueError("spectrum lies in no Stolz closure")
    if not beta > alpha:
        raise ValueError(f"beta={beta:.6g} must exceed the spectral type {alpha:.6g}")
    (value,) = _resolvent_stage(T, [beta], space, per_piece)
    if isinstance(value, numlin.SingularMatrixError):
        raise value
    return value


def _resolvent_stage(T: np.ndarray, betas, space: SpaceModel, per_piece: int) -> list:
    """The :func:`resolvent_sup` of T, an operator on ``space``, at every
    beta of ``betas``, each above the spectral type of T, in one pass: per
    beta its float, or the SingularMatrixError that refused it.

    No beta means no work.  Otherwise every beta's sample points are
    built in the caller's thread.  Each beta's nodes are cut into blocks
    of :func:`rittcalc.numlin.node_block_len` for the nodes of all betas,
    no block crossing a beta, and every block runs in one
    :func:`rittcalc.numlin.map_in_order` call.  A block returns its
    refusal, so a refusal at one beta does not stop the others; any other
    error is raised, the first in block order.  Read back in beta order,
    a beta takes the first refusal of its blocks in block order, or else
    the maximum of its block maxima, a NaN block maximum passed over.
    """
    if not betas:
        return []
    nodes = [resolvent_sample_points(T, beta, per_piece) for beta in betas]
    step = numlin.node_block_len(sum(lam.size for lam in nodes), T.shape[0])
    blocks = [(k, slice(s, s + step)) for k, lam in enumerate(nodes)
              for s in range(0, lam.size, step)]

    def block_max(block):
        k, b = block
        try:
            return float(space.scaled_resolvent_norms(T, nodes[k][b]).max())
        except numlin.SingularMatrixError as exc:
            return exc

    maxima = numlin.map_in_order(block_max, blocks)
    out = []
    for k in range(len(betas)):
        mine = [v for (j, _), v in zip(blocks, maxima) if j == k]
        refusal = next((v for v in mine if isinstance(v, numlin.SingularMatrixError)), None)
        out.append(max([0.0, *mine]) if refusal is None else refusal)
    return out


def mean_ergodic_projection(T) -> np.ndarray:
    """Projection onto Ker(I-T) along Ran(I-T): the P of :func:`_split_one`
    from the one Schur form of :func:`_spectrum`, zero without eigenvalue
    1.  A defective 1 (T is not power bounded there) raises
    SingularMatrixError."""
    T = as_matrix(T, square=True)
    P = _split_one(_spectrum(T))[0]
    return np.zeros_like(T) if P is None else P


@dataclass(frozen=True)
class RittConfig:
    N: int = 512
    beta_fracs: tuple = (0.25, 0.5, 0.75)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass
class RittReport:
    """Aggregated Ritt diagnostics for one operator on one space model."""

    power_bound: float
    increment_bound: float
    type_alpha: float
    resolvent_sup: dict
    decay: tuple
    verdict: str
    reasons: list = field(default_factory=list)
    N_used: int = 0
    space: Optional[SpaceModel] = None
    norms_exact: bool = True

    def to_json_dict(self) -> dict:
        from .jsonutil import sanitize

        return sanitize({
            "power_bound": self.power_bound,
            "increment_bound": self.increment_bound,
            "type_alpha": "not-Stolz" if self.type_alpha == NOT_STOLZ else self.type_alpha,
            "resolvent_sup": [[b, v] for b, v in sorted(self.resolvent_sup.items())],
            "decay": list(self.decay),
            "verdict": self.verdict,
            "reasons": self.reasons,
            "N_used": self.N_used,
            "space": repr(self.space),
            "norms_exact": self.norms_exact,
        })


def ritt_verdict(T, space: Optional[SpaceModel] = None,
                 config: Optional[RittConfig] = None) -> RittReport:
    """Run the full diagnostic battery and aggregate a verdict.

    "ritt": spectral type < pi/2 (with margin) and all four suprema
    stable under doubling N.  "not-ritt": the spectrum already rules it
    out.  "inconclusive": spectrum passes but some supremum still grows
    at this N (reasons attached).
    """
    T = as_matrix(T, square=True)
    space = space or Hilbert(T.shape[0])
    cfg = config or RittConfig()
    alpha = _stolz_type(*_spectrum(T)[:2])
    reasons: list = []
    not_ritt = alpha == NOT_STOLZ or alpha >= math.pi / 2 - TYPE_MARGIN
    if not_ritt:
        reasons.append("spectrum not contained in any Stolz closure with margin"
                       if alpha != NOT_STOLZ else
                       "spectrum leaves the closed unit disc or touches its boundary off 1")
    # with the spectrum ruling T out there is no doubling test, only the
    # suprema up to min(N, 64)
    n_used = min(cfg.N, 64) if not_ritt else cfg.N

    def report(decay, verdict, res=None):
        return RittReport(
            power_bound=decay[0], increment_bound=decay[1], type_alpha=alpha,
            resolvent_sup=res or {}, decay=tuple(decay), verdict=verdict,
            reasons=reasons, N_used=n_used, space=space, norms_exact=space.exact,
        )

    try:
        if not_ritt:
            return report(list(decay_suprema(T, space, n_used)), "not-ritt")
        pairs = decay_suprema(T, space, 2 * n_used, cut=n_used)
    except numlin.PowerOverflow as exc:
        reasons.append(str(exc))
        return report((math.inf,) * 4, "not-ritt" if not_ritt else "inconclusive")

    names = ("S0", "S1", "S2", "S3")
    sup_2N = []
    stable = True
    for name, (a, b) in zip(names, pairs):
        sup_2N.append(b)
        if not np.isfinite(b) or b > (1.0 + STABILITY_REL) * max(a, 1e-300):
            stable = False
            reasons.append(f"{name} grew from {a:.6g} (N={cfg.N}) to {b:.6g} (N={2*cfg.N})")

    betas = [alpha + (math.pi / 2 - alpha) * f for f in cfg.beta_fracs]
    betas = [beta for beta in betas if alpha < beta < math.pi / 2]
    res = {}
    for beta, value in zip(betas, _resolvent_stage(T, betas, space, RESOLVENT_PER_PIECE)):
        if isinstance(value, numlin.SingularMatrixError):
            # the message names the refused node and its rcond
            stable = False
            reasons.append(f"resolvent_sup at beta={beta:.6g} refused: {value}")
        else:
            res[round(beta, 12)] = value

    return report(sup_2N, "ritt" if stable else "inconclusive", res)
