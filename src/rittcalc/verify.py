"""Acceptance-grade verification suites.

Each criterion function returns a list of check dicts
{"name", "pass", "observed", "bound", ...}; suites aggregate them.  All
randomness is Philox-seeded (default seed 0xC0FFEE), so a suite run is
a pure function of its seed and the report is byte-reproducible.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from . import funcalc, lab, numlin, ritt, sqfun
from .numlin import Hilbert, LpWeighted, SchattenP, SupSeq

__all__ = ["DEFAULT_SEED", "SUITES", "random_ritt", "run_suite", "run_all"]

DEFAULT_SEED = 0xC0FFEE

SUITES = ("identities", "contour", "rad", "similarity", "gallery")

#: spectral type bound and eigenvector conditioning of :func:`random_ritt`
TYPE_MAX = math.pi / 6
VCOND = 5.0


def _rng(seed, stream: int):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))


def _check(name: str, observed, bound, ok: Optional[bool] = None, **extra) -> dict:
    ok = bool(observed <= bound) if ok is None else bool(ok)
    d = {"name": name, "pass": ok, "observed": float(observed), "bound": float(bound)}
    d.update(extra)
    return d


def random_ritt(rng, dim: int, noncontractive: bool = False) -> np.ndarray:
    """Random diagonalizable matrix with spectral type <= ``TYPE_MAX``.

    Eigenvalues are a mix of reals in [0.05, 0.9] (type 0) and points of
    the disc |z| < sin(TYPE_MAX); the eigenvector matrix has condition
    number ``VCOND``.  With ``noncontractive`` the conditioning is raised
    until the operator norm exceeds 1.
    """
    for attempt in range(64):
        lam = np.empty(dim, dtype=complex)
        for i in range(dim):
            if rng.uniform() < 0.5:
                lam[i] = rng.uniform(0.05, 0.9)
            else:
                r = 0.95 * math.sin(TYPE_MAX) * math.sqrt(rng.uniform())
                th = rng.uniform(0.0, 2 * math.pi)
                lam[i] = r * complex(math.cos(th), math.sin(th))
        Q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        Q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        cond = VCOND * (2.0 ** attempt if noncontractive else 1.0)
        s = np.geomspace(1.0, cond, dim)
        V = Q1 @ np.diag(s) @ Q2
        T = V @ np.diag(lam) @ np.linalg.inv(V)
        if not noncontractive or np.linalg.norm(T, 2) > 1.05:
            return T
    raise RuntimeError("failed to build a requested random Ritt instance")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_identities(seed: int) -> list:
    checks = []
    bad = 0
    for k in range(1, 10001):
        lhs, rhs = lab.kp1_identity(k)
        if lhs != rhs:
            bad += 1
    checks.append(_check("kp1-exact-k-1..10000", bad, 0))
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        T = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        N = int(rng.integers(10, 201))
        out = lab.partial_sum_identity(T, N)
        worst = max(worst, out["relative"])
    checks.append(_check("partial-sum-identity-relative-residual", worst, 1e-10))
    return checks


def criterion_2_contour_oracle(seed: int) -> list:
    rng = _rng(seed, 2)
    polys = []
    for _ in range(10):
        deg = int(rng.integers(2, 21))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] -= np.sum(c)  # force phi(1) = 0
        polys.append(funcalc.poly(c))
    worst_rel = 0.0
    worst_beta_excess = -np.inf
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        T = random_ritt(rng, dim)
        calc1 = funcalc.ContourCalculus(T, beta=math.pi / 4)
        calc2 = funcalc.ContourCalculus(T, beta=math.pi / 3)
        for phi in polys:
            direct = funcalc.eval_poly(T, phi)
            r1 = calc1.apply(phi)
            r2 = calc2.apply(phi)
            scale = max(np.linalg.norm(direct, 2), 1e-30)
            worst_rel = max(worst_rel, np.linalg.norm(r1.value - direct, 2) / scale)
            gap = np.linalg.norm(r1.value - r2.value, 2) - (r1.error_estimate + r2.error_estimate)
            worst_beta_excess = max(worst_beta_excess, gap)
    return [
        _check("contour-vs-horner-relative", worst_rel, 1e-7),
        _check("two-beta-within-error-estimates", worst_beta_excess, 0.0),
    ]


def criterion_3_frac_power(seed: int) -> list:
    rng = _rng(seed, 3)
    worst_oracle = 0.0
    worst_add = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        T = random_ritt(rng, dim)
        half = funcalc.frac_power(T, 0.5).value
        one = funcalc.frac_power(T, 1.0).value
        oracle = funcalc.frac_power_eig(T, 0.5)
        worst_oracle = max(worst_oracle, np.linalg.norm(half - oracle, 2))
        worst_add = max(worst_add, np.linalg.norm(half @ half - one, 2))
    return [
        _check("frac-power-vs-eigendecomposition", worst_oracle, 1e-7),
        _check("frac-power-additivity", worst_add, 1e-6),
    ]


def criterion_4_transfer(seed: int) -> list:
    rng = _rng(seed, 4)
    fs = [
        funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0),
                              label="z/(1+z)^2"),
        funcalc.from_callable(lambda z: z / (1 + z) ** 3, certificate=(1.0, 1.0),
                              label="z/(1+z)^3"),
        funcalc.from_callable(lambda z: z ** 2 / (1 + z) ** 4, certificate=(1.0, 2.0),
                              label="z^2/(1+z)^4"),
    ]
    worst = 0.0
    for i in range(10):
        dim = int(rng.integers(1, 5))
        T = random_ritt(rng, dim)
        out = funcalc.transfer_check(T, fs[i % len(fs)])
        worst = max(worst, out["diff"])
    return [_check("transfer-identity-two-quadratures", worst, 1e-6)]


def criterion_5_square_functions(seed: int) -> list:
    checks = []
    val = sqfun.sf_constant(0.5 * np.eye(3), 1, Hilbert(3))
    checks.append(_check("sf-constant-half-identity", abs(val - 2.0 / 3.0), 1e-10))
    rng = _rng(seed, 5)
    worst = 0.0
    for i in range(10):
        dim = int(rng.integers(2, 6))
        T = random_ritt(rng, dim)
        a = sqfun.sf_constant(T, 1, Hilbert(dim), method="gram")
        b = sqfun.sf_constant(T, 1, Hilbert(dim), method="maximize", seed=seed + i)
        worst = max(worst, abs(a - b))
    checks.append(_check("sf-gram-vs-maximization", worst, 1e-6))
    worst_shift = -np.inf
    cfg = sqfun.SFConfig(m=1, tail_tol=1e-10)
    for i in range(5):
        dim = int(rng.integers(2, 6))
        T = random_ritt(rng, dim)
        space = Hilbert(dim)
        for _ in range(20):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            a = sqfun.square_function(T, T @ x, space, cfg)
            b = sqfun.square_function(T, x, space, cfg)
            worst_shift = max(worst_shift,
                              a.value - (b.value + b.tail_bound + a.tail_bound + cfg.tail_tol))
    checks.append(_check("shift-inequality-Tx-vs-x", worst_shift, 0.0))
    return checks


def criterion_6_rademacher(seed: int) -> list:
    rng = _rng(seed, 6)
    checks = []
    worst = 0.0
    for K in (5, 9, 12):
        xs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(K)]
        v = sqfun.rad_norm(xs, Hilbert(4)).value
        ident = math.sqrt(sum(float(np.vdot(x, x).real) for x in xs))
        worst = max(worst, abs(v - ident))
    checks.append(_check("rad-hilbert-identity", worst, 1e-12))
    xs = [rng.normal(size=3) for _ in range(6)]
    r = sqfun.khintchine_ratio(xs, LpWeighted(2.0, (1.0, 1.0, 1.0)))
    checks.append(_check("khintchine-ratio-p2", abs(r - 1.0), 1e-12))
    v = sqfun.rad_norm([np.array([1.0, 1.0]), np.array([1.0, -1.0])], SupSeq(2)).value
    checks.append(_check("rad-supseq-example", abs(v - 2.0), 0.0, ok=(v == 2.0)))
    return checks


def criterion_7_rbound(seed: int) -> list:
    checks = []
    rb = sqfun.r_bound_lower([2 * np.eye(3), np.eye(3)], Hilbert(3),
                             trials=100, seed=seed)
    checks.append(_check("rbound-2I-I", abs(rb - 2.0), 1e-3,
                         ok=(2.0 - 1e-3 <= rb <= 2.0 + 1e-12)))
    rng = _rng(seed, 7)
    T2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    models = [
        ("hilbert", Hilbert(2), T2, 1e-6),
        ("lp3", LpWeighted(3.0, (1.0, 2.0)), T2, 5e-2),
        ("supseq", SupSeq(2), T2, 5e-2),
        ("schatten3", SchattenP(3.0, 2), np.kron(T2, np.eye(2)) * 0.3, 5e-2),
    ]
    for name, space, M, slack in models:
        opn = numlin.op_norm(M, space)
        rb1 = sqfun.r_bound_lower([M], space, trials=150, seed=seed + 11)
        ok = (rb1 <= opn.upper * (1 + 1e-9)) and (rb1 >= opn.value * (1 - slack))
        checks.append(_check(f"rbound-single-op-{name}",
                             abs(rb1 - opn.value), slack * (1 + opn.value), ok=ok,
                             op_norm=opn.value, op_upper=opn.upper))
    return checks


def criterion_8_similarity(seed: int) -> list:
    rng = _rng(seed, 8)
    instances = [0.5 * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]])]
    while len(instances) < 10:
        dim = int(rng.integers(2, 6))
        instances.append(random_ritt(rng, dim, noncontractive=True))
    worst = 0.0
    for T in instances:
        rep = lab.similarity_builder(T)
        worst = max(worst, rep.contraction_norm)
    checks = [_check("similarity-contraction-norm", worst, 1.0 + 1e-8)]
    out = lab.conditional_basis_demo(8, 1e3)
    checks.append(_check("conditional-basis-equivalence-blowup",
                         out["equivalence_ratio"], 1e2,
                         ok=(out["equivalence_ratio"] >= 1e2),
                         floor=out["lambda_min_floor"]))
    return checks


def criterion_9_c512(seed: int) -> list:
    rng = _rng(seed, 9)
    worst = -np.inf
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        T = random_ritt(rng, dim)
        out = sqfun.c512_check(T)
        worst = max(worst, out["C2"] - out["bound"])
    return [_check("c512-constant-relation", worst, 0.0)]


def criterion_10_growth_witness(seed: int) -> list:
    checks = []
    ratios = {}
    for n in (1, 4, 9):
        out = lab.c0_growth_witness(n, seed=seed)
        ratios[n] = out["ratio"]
        checks.append(_check(f"c0-witness-ratio-n{n}", out["lower_bound"], out["ratio"],
                             ok=(out["ratio"] >= out["lower_bound"]),
                             covering=out["achieved_covering_constant"]))
    checks.append(_check("c0-witness-growth", 1.5 * ratios[1], ratios[9],
                         ok=(ratios[9] >= 1.5 * ratios[1])))
    return checks


def criterion_11_gallery(seed: int) -> list:
    checks = []
    rng = _rng(seed, 11)
    t = rng.uniform(-0.9, 1.0, size=(4, 4))
    t[0, 0] = -0.9
    inst = lab.gallery_schur(t, p=3.0)
    N = 128
    (a, b), = ritt.decay_suprema(inst.operator, inst.space, 2 * N, orders=(1,), cut=N)
    checks.append(_check("schur-increment-doubling-stability",
                         b, 1.05 * a, ok=(b <= 1.05 * a), N=N))
    gm = lab.gallery_markov(3, seed=seed)
    worst = max(gm.certificates["unital_residual"],
                gm.certificates["trace_residual"],
                gm.certificates["selfadjoint_residual"],
                max(0.0, -gm.certificates["choi_min_eigenvalue"]))
    checks.append(_check("markov-certificates", worst, 1e-10))
    flip = lab.gallery_markov_flip()
    checks.append(_check("markov-flip-flagged", 0.0, 0.0,
                         ok=any("minus-one" in f for f in flip.flags)))
    return checks


_CRITERIA = {
    "identities": (criterion_1_identities,),
    "contour": (criterion_2_contour_oracle, criterion_3_frac_power,
                criterion_4_transfer),
    "rad": (criterion_5_square_functions, criterion_6_rademacher,
            criterion_7_rbound),
    "similarity": (criterion_8_similarity, criterion_9_c512),
    "gallery": (criterion_10_growth_witness, criterion_11_gallery),
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one named suite; returns {"name", "checks", "pass", "seconds"}."""
    if name not in _CRITERIA:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_CRITERIA)} or 'all'")
    t0 = time.perf_counter()
    checks = []
    for fn in _CRITERIA[name]:
        checks.extend(fn(seed))
    return {
        "name": name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_all(seed: int = DEFAULT_SEED) -> dict:
    suites = [run_suite(name, seed) for name in SUITES]
    return {
        "seed": seed,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
