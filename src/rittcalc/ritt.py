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
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numlin, stolz
from .numlin import Hilbert, ShapeError, SpaceModel, as_matrix, op_norms, power_blocks
from .stolz import NOT_STOLZ

__all__ = [
    "RittConfig",
    "RittReport",
    "decay_profiles",
    "power_bound",
    "increment_profile",
    "increment_bound",
    "spectral_type",
    "resolvent_sample_points",
    "resolvent_sup",
    "decay_sequences",
    "mean_ergodic_projection",
    "ritt_verdict",
    "eigenvalue_one_tolerance",
]

#: dilation factors for resolvent sampling outside the Stolz boundary
RESOLVENT_DILATIONS = tuple(1.0 + 10.0 ** (-k) for k in range(1, 5))
VERTEX_EXCLUSION = 1e-8


def eigenvalue_one_tolerance(T: np.ndarray) -> float:
    """Clustering tolerance: |lam - 1| below this counts as eigenvalue 1."""
    return 1e-10 * (1.0 + float(np.linalg.norm(T, 2)))


def decay_profiles(T, space: SpaceModel, N: int, orders=(0, 1, 2, 3),
                   left=None) -> tuple:
    """Per-n rows of the decay sequences along the powers of T, one per order.

    With L = ``left`` (the identity when None), order 0 gives ||L T^n||
    for n = 0..N, order 1 gives n ||L (T^n - T^(n-1))|| from the
    difference of consecutive powers, and orders j = 2, 3 give
    n^j ||L T^(n-1) (I-T)^j|| for n = 1..N, in the order of ``orders``.

    One pass over :func:`rittcalc.numlin.power_blocks` holds one block of
    powers.  A product of finite powers can overflow a few powers before
    the powers do, and its norm then raises ValueError; the walk then
    runs on, so that the powers' own ``PowerOverflow``, if any, is
    raised instead.
    """
    T = as_matrix(T, square=True)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not set(orders) <= {0, 1, 2, 3}:
        raise ValueError(f"orders must lie in 0..3, got {tuple(orders)}")
    if left is not None and np.shape(left) != T.shape:
        raise ShapeError(f"left has shape {np.shape(left)}, T has {T.shape}")

    def norms(M):
        return op_norms(M if left is None else left @ M, space)

    A = np.eye(T.shape[0], dtype=complex) - T
    factor = {2: A @ A, 3: A @ A @ A}
    rows = {j: np.empty(N + 1 if j == 0 else N) for j in orders}
    blocks = power_blocks(T, N)
    prev = None  # the last power of the previous block
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for s, P in blocks:
                end = s + len(P)
                if 0 in rows:
                    rows[0][s:end] = norms(P)
                if 1 in rows:  # T^n - T^(n-1) for n = s .. end-1
                    D = P.copy()
                    D[1:] -= P[:-1]
                    if prev is not None:
                        D[0] -= prev
                    lo = int(prev is None)  # T^0 has no increment
                    prev = P[-1].copy()
                    rows[1][s + lo - 1:end - 1] = (
                        np.arange(s + lo, end, dtype=float) * norms(D[lo:]))
                    del D
                n = np.arange(s + 1, min(end, N) + 1, dtype=float)  # T^(n-1) = P[n-1-s]
                for j in orders:
                    if j > 1:
                        rows[j][s:s + len(n)] = n**j * norms(P[:len(n)] @ factor[j])
    except ValueError:
        for _ in blocks:  # a power overflow outranks a product's
            pass
        raise
    return tuple(rows[j] for j in orders)


def power_bound(T, space: SpaceModel, N: int) -> float:
    """max over 0 <= n <= N of the operator norm of T^n.

    Lower-bound flavor on the non-exact norm models, like everything
    built on :func:`rittcalc.numlin.op_norm`.
    """
    return float(decay_profiles(T, space, N, orders=(0,))[0].max())


def increment_profile(T, space: SpaceModel, N: int) -> np.ndarray:
    """n ||T^n - T^(n-1)|| for n = 1..N, as an array of length N.

    The profile at N is a prefix of the profile at any larger N, so a
    doubling test computes it once, at the larger N.
    """
    return decay_profiles(T, space, N, orders=(1,))[0]


def increment_bound(T, space: SpaceModel, N: int) -> float:
    """max over 1 <= n <= N of n * ||T^n - T^(n-1)||."""
    return float(increment_profile(T, space, N).max())


def spectral_type(T) -> float:
    """Largest Stolz angle needed to contain the spectrum.

    Eigenvalues clustered at 1 contribute 0; any other eigenvalue on or
    outside the unit circle yields ``stolz.NOT_STOLZ``.  Moduli within
    1e-11 of the circle are clustered onto it: below that distance the
    closure tolerance of the angle bisection smears angles by more than
    the verdict margin, so the classification would be noise.
    """
    T = as_matrix(T, square=True)
    tol1 = eigenvalue_one_tolerance(T)
    worst = 0.0
    for lam in numlin.eig(T).eigenvalues:
        lam = complex(lam)
        if abs(lam - 1.0) <= tol1:
            continue
        if abs(lam) >= 1.0 - 1e-11:
            return NOT_STOLZ
        worst = max(worst, stolz.min_angle(lam))
        if worst == NOT_STOLZ:
            break
    return worst


def resolvent_sample_points(T, beta: float, per_piece: int = 48,
                            circle_points: int = 64) -> np.ndarray:
    """Deterministic sample family outside closure(B(beta)).

    Dilations of the boundary by factors 1 + 10^-k (k = 1..4, the domain
    is star-shaped about 0 so radial dilation leaves the closure), the
    circles |z| = 2 and |z| = 10, minus a small disc about the vertex.
    """
    samples = stolz.boundary_samples(beta, per_piece)
    base = samples[:: max(1, len(samples) // (4 * per_piece))]
    pts = [f * base for f in RESOLVENT_DILATIONS]
    th = np.linspace(0.0, 2 * math.pi, circle_points, endpoint=False)
    pts.append(2.0 * np.exp(1j * th))
    pts.append(10.0 * np.exp(1j * th))
    lam = np.concatenate(pts)
    return lam[np.abs(lam - 1.0) > VERTEX_EXCLUSION]


def resolvent_sup(T, beta: float, space: SpaceModel, per_piece: int = 48) -> float:
    """Sampled supremum of ||(lam - 1) R(lam, T)|| off closure(B(beta)).

    A heuristic (sampled, no maximum principle invoked): the returned
    value is a lower bound for the true supremum.  Sample points that
    fall inside the spectrum tolerance are skipped with a warning.  The
    points go to the model's ``scaled_resolvent_norms`` one block of
    ``numlin.resolvent_block_len`` nodes at a time.

    On the models whose operator norm is the largest singular value
    (Hilbert, Schatten-2) the norm is |lam - 1| / sigma_min(lam I - T)
    from one stacked SVD of the shifted block, and a node is refused
    when sigma_min / sigma_max falls below ``numlin.RCOND_MIN``.  That
    2-norm rcond differs from the 1-norm rcond of the resolvent kernel
    by at most a factor n, since kappa_1 / n <= kappa_2 <= n kappa_1.
    The other models take the guarded inverses of
    :func:`rittcalc.numlin.resolvents` and their own ``op_norms``.  A
    refused node raises :class:`rittcalc.numlin.SingularMatrixError`
    naming the node and its rcond.
    """
    T = numlin.as_operator(T, space)
    eigs = numlin.eig(T).eigenvalues
    lam = resolvent_sample_points(T, beta, per_piece)
    near = np.abs(lam[:, None] - eigs[None, :]).min(axis=1) <= 1e-12 * (1.0 + np.abs(lam))
    skipped = int(np.count_nonzero(near))
    lam = lam[~near]
    best = 0.0
    step = numlin.resolvent_block_len(T.shape[0])
    for s in range(0, lam.size, step):
        best = max(best, float(space.scaled_resolvent_norms(T, lam[s:s + step]).max()))
    if skipped:
        warnings.warn(f"resolvent_sup skipped {skipped} sample points inside "
                      "the spectrum tolerance")
    return best


def decay_sequences(T, space: SpaceModel, N: int):
    """Suprema (S0, S1, S2, S3) of the four decay sequences up to N."""
    return tuple(float(np.max(s)) for s in decay_profiles(T, space, N))


def mean_ergodic_projection(T) -> np.ndarray:
    """Projection onto Ker(I-T) along Ran(I-T).

    Computed from an ordered Schur form: the eigenvalue-1 cluster is
    sorted to the leading block and its complement is split off with a
    Sylvester solve.  Requires eigenvalue 1 (if present) to be
    semisimple; a defective 1 means T is not power bounded and raises.
    """
    import scipy.linalg

    T = as_matrix(T, square=True)
    n = T.shape[0]
    tol1 = eigenvalue_one_tolerance(T)
    S, Z, sdim = scipy.linalg.schur(T, output="complex",
                                    sort=lambda lam: abs(lam - 1.0) <= tol1)
    if sdim == 0:
        return np.zeros_like(T)
    k = int(sdim)
    U11 = S[:k, :k]
    defect = np.linalg.norm(U11 - np.eye(k), 2)
    if defect > 1e-8 * (1.0 + np.linalg.norm(T, 2)):
        raise numlin.SingularMatrixError(
            "eigenvalue 1 is defective: not power bounded at 1",
            cond_estimate=np.inf,
        )
    P_block = np.zeros((n, n), dtype=complex)
    P_block[:k, :k] = np.eye(k)
    if k < n:
        X = scipy.linalg.solve_sylvester(U11, -S[k:, k:], S[:k, k:])
        P_block[:k, k:] = X
    return Z @ P_block @ Z.conj().T


@dataclass(frozen=True)
class RittConfig:
    N: int = 512
    type_margin: float = 1e-6
    stability_rel: float = 0.05
    beta_fracs: tuple = (0.25, 0.5, 0.75)
    resolvent_per_piece: int = 24

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
            "type_alpha": self.type_alpha,
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
    alpha = spectral_type(T)
    reasons: list = []
    not_ritt = alpha == NOT_STOLZ or alpha >= math.pi / 2 - cfg.type_margin
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
        profiles = decay_profiles(T, space, n_used if not_ritt else 2 * n_used)
    except numlin.PowerOverflow as exc:
        reasons.append(str(exc))
        return report((math.inf,) * 4, "not-ritt" if not_ritt else "inconclusive")
    if not_ritt:
        return report([float(np.max(p)) for p in profiles], "not-ritt")

    names = ("S0", "S1", "S2", "S3")
    sup_2N = []
    stable = True
    for name, prof in zip(names, profiles):
        cut = cfg.N + 1 if name == "S0" else cfg.N
        a, b = float(np.max(prof[:cut])), float(np.max(prof))
        sup_2N.append(b)
        if not np.isfinite(b) or b > (1.0 + cfg.stability_rel) * max(a, 1e-300):
            stable = False
            reasons.append(f"{name} grew from {a:.6g} (N={cfg.N}) to {b:.6g} (N={2*cfg.N})")

    res = {}
    for f in cfg.beta_fracs:
        beta = alpha + (math.pi / 2 - alpha) * f
        if beta <= alpha or beta >= math.pi / 2:
            continue
        try:
            res[round(beta, 12)] = resolvent_sup(T, beta, space, cfg.resolvent_per_piece)
        except numlin.SingularMatrixError as exc:
            # the message names the refused node and its rcond
            stable = False
            reasons.append(f"resolvent_sup at beta={beta:.6g} refused: {exc}")

    return report(sup_2N, "ritt" if stable else "inconclusive", res)
