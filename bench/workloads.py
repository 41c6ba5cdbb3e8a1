"""The benchmark's two workloads: inputs from a seed, ops, and oracle checks.

A workload is a fixed list of ops; one pass runs the list once.  Each
workload joins two parts, one per layer group: ``contour-exact`` is the
resolvent sweep (``contour``) plus the CLI on the exact norm models
(``analyze-exact``); ``ascent-constants`` is Boyd ascent
(``analyze-ascent``) plus boundary sup-norms and square functions
(``constants``).  An op
is one call into the workload's top-level public function of rittcalc.
Each op carries a check that compares its output with an oracle at the
tolerance the ``verify`` battery uses; an op that raises or misses its
oracle counts as failed.

Sizes are fixed per workload (``SIZES``); the seed only changes the
random entries, so the work per pass is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# verify's tolerances, unchanged
CONTOUR_REL_TOL = 1e-7      # contour vs Horner (criterion 2)
FRAC_TOL = 1e-7             # fractional power vs eigendecomposition (criterion 3)
TRANSFER_TOL = 1e-6         # two-quadrature transfer identity (criterion 4)
SF_ROUTE_TOL = 1e-6         # sf gram vs maximize (criterion 5)
RAD_IDENTITY_TOL = 1e-12    # Rademacher Hilbert identity (criterion 6)
SCHUR_DOUBLING = 1.05       # Schur increment doubling stability (criterion 11)

#: per-size parameters; "tiny" is for the benchmark's own tests
SIZES = {
    "full": {
        "contour": {"dims": (4, 8, 12), "poly_degrees": (2, 5, 8, 12, 16, 20)},
        "analyze-exact": {"ops": (
            ("schatten:2:4", 16, 64), ("hilbert", 16, 256),
            ("hilbert", 32, 256), ("sup", 48, 512),
        ), "not_ritt": ("hilbert", 16, 128)},
        "analyze-ascent": {"res_dims": (5, 6), "per_piece": 1,
                           "verdict_dims": (4, 5, 6, 4, 5, 6), "verdict_N": 32,
                           "schur_n": 2, "schur_N": 16, "schur_instances": 2},
        "constants": {"calc_dim": 8, "family": dict(max_k=8, max_j=2, n_random=10,
                                                    random_deg=16, n_fejer=4),
                      "sf_dim": 4, "sf_trials": 100, "rad_K": (20, 16, 16)},
    },
    "tiny": {
        "contour": {"dims": (2, 3, 4), "poly_degrees": (2, 4)},
        "analyze-exact": {"ops": (("hilbert", 4, 16), ("sup", 4, 32)),
                          "not_ritt": ("hilbert", 4, 16)},
        "analyze-ascent": {"res_dims": (2,), "per_piece": 1,
                           "verdict_dims": (2,), "verdict_N": 8,
                           "schur_n": 2, "schur_N": 8, "schur_instances": 1},
        "constants": {"calc_dim": 3, "family": dict(max_k=2, max_j=1, n_random=2,
                                                    random_deg=4, n_fejer=1),
                      "sf_dim": 2, "sf_trials": 4, "rad_K": (8, 6, 5)},
    },
}


@dataclass
class Op:
    """One call into rittcalc plus the oracle check of its output.

    ``check`` returns (ok, error); ``error`` feeds funcalc.oracle_err_max
    when ``funcalc_oracle`` is set.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    funcalc_oracle: bool = False


@dataclass
class Workload:
    ops: list          # the pass, in order
    warmups: list      # ops run once during set-up


def _rng(seed: int, stream: int):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))


def ritt_matrix(rng, dim: int, vcond: float, radius: float = 0.9,
                eigenvalue_one: bool = False, outside: float = 0.0) -> np.ndarray:
    """Diagonalizable matrix with a planted spectrum and eigenvector conditioning.

    Eigenvalues mix reals in [0.05, radius] with points of the disc
    |z| < 0.95 sin(pi/6) * radius / 0.9, so the spectral type stays below
    pi/6.  The spectral radius off 1 is planted at ``radius``: it sets the
    decay rate, hence the series lengths and refinement work, so the work
    per op does not drift with the seed.  ``eigenvalue_one`` plants a
    semisimple eigenvalue 1; ``outside`` > 0 plants an eigenvalue
    1 + outside (off the disc).
    """
    lam = np.empty(dim, dtype=complex)
    for i in range(dim):
        if rng.uniform() < 0.5:
            lam[i] = rng.uniform(0.05, radius)
        else:
            r = 0.95 * math.sin(math.pi / 6) * (radius / 0.9) * math.sqrt(rng.uniform())
            lam[i] = r * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
    lam[-1] = radius
    if eigenvalue_one:
        lam[0] = 1.0
    if outside:
        lam[0] = 1.0 + outside
    Q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    Q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    V = Q1 @ np.diag(np.geomspace(1.0, vcond, dim)) @ Q2
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _within(err: float, tol: float) -> tuple:
    return bool(err <= tol), float(err)


# ---------------------------------------------------------------------------
# contour: the resolvent sweep, nothing else
# ---------------------------------------------------------------------------

def contour(rc, seed: int, size: str, workdir: str) -> Workload:
    """Per operator: one ContourCalculus at beta=pi/4 applying polynomials that
    vanish at 1, one frac_power, and on every other operator transfer_check.

    One op is a whole ContourCalculus: construction plus every apply.  The
    first apply pays the resolvent sweep; at the default BLAS threading a
    later apply takes either about 1 ms or about 16 ms, depending only on
    whether the OpenBLAS threads are still spinning, so per-apply
    percentiles would flip between the two.
    """
    p = SIZES[size]["contour"]
    funcalc = rc.funcalc
    rng = _rng(seed, 1)
    polys = []
    for deg in p["poly_degrees"]:
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] -= np.sum(c)  # phi(1) = 0
        polys.append(funcalc.poly(c))
    # verify's transfer functions (criterion 4)
    fs = [
        funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0)),
        funcalc.from_callable(lambda z: z / (1 + z) ** 3, certificate=(1.0, 1.0)),
    ]
    # well conditioned, semisimple eigenvalue 1, non-normal
    kinds = ({"vcond": 1.5}, {"vcond": 5.0, "eigenvalue_one": True}, {"vcond": 50.0})
    ops = []
    for i, dim in enumerate(p["dims"]):
        T = ritt_matrix(rng, dim, **kinds[i % len(kinds)])
        directs = [funcalc.eval_poly(T, phi) for phi in polys]

        def calculus(T=T):
            calc = funcalc.ContourCalculus(T, beta=math.pi / 4)
            return [calc.apply(phi) for phi in polys]

        def check(reps, directs=directs):
            err = max(np.linalg.norm(rep.value - d, 2) / max(np.linalg.norm(d, 2), 1e-30)
                      for rep, d in zip(reps, directs))
            return _within(err, CONTOUR_REL_TOL)

        ops.append(Op(f"ContourCalculus[{i},dim={dim}]", calculus, check,
                      funcalc_oracle=True))
        if kinds[i % len(kinds)].get("eigenvalue_one"):
            # frac_power raises ContourSpectrumError on every operator with
            # eigenvalue 1 (its refinement puts a node within 1e-13 of the
            # vertex), so this operator gets the polynomial applies only
            continue
        oracle = funcalc.frac_power_eig(T, 0.5)
        ops.append(Op(
            f"frac_power[{i}]", lambda T=T: funcalc.frac_power(T, 0.5),
            lambda rep, oracle=oracle: _within(
                np.linalg.norm(rep.value - oracle, 2), FRAC_TOL),
            funcalc_oracle=True))
        if i % 2 == 0:
            f = fs[(i // 2) % len(fs)]
            ops.append(Op(
                f"transfer_check[{i}]", lambda T=T, f=f: funcalc.transfer_check(T, f),
                lambda out: _within(out["diff"], TRANSFER_TOL), funcalc_oracle=True))
    return Workload(ops=ops, warmups=[ops[0]])


# ---------------------------------------------------------------------------
# analyze-exact: the CLI on the exact norm models
# ---------------------------------------------------------------------------

def _cli_analyze_op(rc, label: str, path: str, space: str, N: int,
                    out: str, expected: str) -> Op:
    argv = ["analyze", path, "--space", space, "--N", str(N),
            "--no-timestamp", "--out", out]

    def call():
        code = rc.cli.main(argv)
        with open(out, "r", encoding="utf-8") as fh:
            return code, json.load(fh)

    def check(res):
        code, report = res
        return bool(code == 0 and report["result"]["verdict"] == expected), None

    return Op(label, call, check)


def _write_mtx(path: str, T: np.ndarray) -> None:
    import scipy.io

    scipy.io.mmwrite(path, T, precision=17)


def analyze_exact(rc, seed: int, size: str, workdir: str) -> Workload:
    """`rittcalc analyze` through cli.main on hilbert, schatten:2 and sup."""
    p = SIZES[size]["analyze-exact"]
    rng = _rng(seed, 2)
    ops = []
    for i, (space, dim, N) in enumerate(p["ops"]):
        path = os.path.join(workdir, f"exact{i}.mtx")
        _write_mtx(path, ritt_matrix(rng, dim, vcond=5.0))
        ops.append(_cli_analyze_op(rc, f"analyze[{space},{dim},N={N}]", path, space, N,
                                   os.path.join(workdir, f"exact{i}.json"), "ritt"))
    space, dim, N = p["not_ritt"]
    path = os.path.join(workdir, "not_ritt.mtx")
    _write_mtx(path, ritt_matrix(rng, dim, vcond=5.0, outside=0.05))
    planted = _cli_analyze_op(rc, f"analyze[{space},{dim},N={N},planted]", path, space, N,
                              os.path.join(workdir, "not_ritt.json"), "not-ritt")
    ops.insert(0, planted)
    return Workload(ops=ops, warmups=[planted])


# ---------------------------------------------------------------------------
# analyze-ascent: Boyd ascent on lp:3 and Schatten-3
# ---------------------------------------------------------------------------

def _schur_increment_s2(t: np.ndarray, N: int) -> float:
    """max_n n max_ij |t_ij^n - t_ij^(n-1)|: the Schatten-2 value, a lower
    bound for every Schatten-p norm of the multiplier increments."""
    n = np.arange(1, N + 1)[:, None]
    tt = t.reshape(-1)[None, :]
    return float(np.max(n[:, 0] * np.max(np.abs(tt ** n - tt ** (n - 1)), axis=1)))


def _resolvent_bracket(ritt, T: np.ndarray, beta: float, per_piece: int, p: float):
    """Independent bracket for resolvent_sup on unweighted lp: at each sample
    lambda, A = (lambda - 1) R(lambda) has ||A 1||_p / ||1||_p (Boyd's first
    start, so the ascent value is at least this) <= ||A||_p <= the
    Riesz-Thorin bound ||A||_1^(1/p) ||A||_inf^(1-1/p)."""
    n = T.shape[0]
    lo = hi = 0.0
    for lam in ritt.resolvent_sample_points(T, beta, per_piece):
        A = (lam - 1.0) * np.linalg.inv(lam * np.eye(n) - T)
        lo = max(lo, float(np.sum(np.abs(A.sum(axis=1)) ** p) ** (1 / p)) / n ** (1 / p))
        n1 = float(np.max(np.sum(np.abs(A), axis=0)))
        ninf = float(np.max(np.sum(np.abs(A), axis=1)))
        hi = max(hi, n1 ** (1 / p) * ninf ** (1 - 1 / p))
    return lo, hi


def analyze_ascent(rc, seed: int, size: str, workdir: str) -> Workload:
    """Boyd ascent on lp:3 (resolvent suprema, decay-only verdicts) and on
    Schatten-3 (Schur-multiplier increment bounds)."""
    p = SIZES[size]["analyze-ascent"]
    ritt, lab, numlin = rc.ritt, rc.lab, rc.numlin
    rng = _rng(seed, 3)
    ops = []
    # A full lp:3 verdict costs 10-25 s, almost all of it in resolvent_sup
    # on the 128 far-field circle points, where (lambda-1)R(lambda) is
    # nearly scalar and the ascent creeps towards its iteration cap, for a
    # time that swings 3x with the operator.  The pass takes that layer as
    # resolvent_sup ops on strongly non-normal operators (vcond 1e4: about
    # 0.45 s each, within 25% across seeds), plus verdicts without the
    # resolvent stage.  The resolvent ops are few: at the default BLAS
    # threading their solves keep an OpenBLAS thread spinning (cpu/wall
    # 1.9), which makes them the noisiest ops of the pass.
    lp3 = {dim: numlin.LpWeighted(3.0, (1.0,) * dim) for dim in p["res_dims"]}
    beta = math.pi / 4
    for dim in p["res_dims"]:
        T = ritt_matrix(rng, dim, vcond=1e4, radius=0.5)
        lo, hi = _resolvent_bracket(ritt, T, beta, p["per_piece"], 3.0)
        ops.append(Op(f"resolvent_sup[lp:3,{dim}]",
                      lambda T=T, dim=dim: ritt.resolvent_sup(T, beta, lp3[dim], p["per_piece"]),
                      lambda v, lo=lo, hi=hi: (bool(lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9)),
                                               None)))
    # a spectral radius of 0.5 lets S0..S3 settle well before n = N, so
    # the planted verdict is "ritt"
    cfg = ritt.RittConfig(N=p["verdict_N"], beta_fracs=())
    for dim in p["verdict_dims"]:
        T = ritt_matrix(rng, dim, vcond=1e4, radius=0.5)
        w = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=dim))
        space = numlin.LpWeighted(3.0, w)
        ops.append(Op(f"ritt_verdict[lp:3,{dim},N={cfg.N}]",
                      lambda T=T, space=space: ritt.ritt_verdict(T, space, cfg),
                      lambda rep: (rep.verdict == "ritt", None)))
    n, N = p["schur_n"], p["schur_N"]
    for k in range(p["schur_instances"]):
        # verify's gallery instance (criterion 11) with t[0,0] = -0.9 and
        # the other symbols in [-0.6, 0.8]: the increments peak well before
        # n = N, and no symbol comes near -0.9, where the Schatten-3 ascent
        # creeps between two almost equal maxima (2.5 s instead of 0.2 s)
        t = rng.uniform(-0.6, 0.8, size=(n, n))
        t[0, 0] = -0.9
        lower = {M: _schur_increment_s2(t, M) for M in (N, 2 * N)}
        got = {}

        def increment(M, t=t, got=got):
            inst = lab.gallery_schur(t, 3.0)
            got[M] = ritt.increment_bound(inst.operator, inst.space, M)
            return got[M]

        ops.append(Op(f"increment_bound[schur:3,{n},#{k},N={N}]",
                      lambda increment=increment: increment(N),
                      lambda v, lower=lower: (v >= lower[N] * (1 - 1e-9), None)))
        ops.append(Op(f"increment_bound[schur:3,{n},#{k},N={2 * N}]",
                      lambda increment=increment: increment(2 * N),
                      lambda v, lower=lower, got=got: (
                          v >= lower[2 * N] * (1 - 1e-9) and v <= SCHUR_DOUBLING * got[N],
                          None)))
    return Workload(ops=ops, warmups=[ops[-2]])


# ---------------------------------------------------------------------------
# constants: boundary sup-norms and square functions, no solves
# ---------------------------------------------------------------------------

def constants(rc, seed: int, size: str, workdir: str) -> Workload:
    """calculus_constant at dim 8, sf_constant on lp:3 and Hilbert, exact rad_norm."""
    p = SIZES[size]["constants"]
    funcalc, sqfun, numlin = rc.funcalc, rc.sqfun, rc.numlin
    rng = _rng(seed, 4)
    ops = []

    T8 = ritt_matrix(rng, p["calc_dim"], vcond=5.0)
    # a fixed family: its random degrees set the hinf_norm work per pass
    fam = funcalc.default_test_family(seed=0, **p["family"])
    gamma = math.pi / 3
    # phi = 1 and phi = z are in the family and sup_B |z| = 1 (the vertex)
    floor = max(1.0, float(np.linalg.norm(T8, 2)))
    ops.append(Op("calculus_constant",
                  lambda: funcalc.calculus_constant(T8, gamma, numlin.Hilbert(p["calc_dim"]),
                                                    family=fam),
                  lambda K: (bool(np.isfinite(K) and K >= floor * (1 - 1e-12)), None)))

    # a fixed operator for the sf ops: the random trials, hill climb and
    # power iteration take about twice as long on some operators as on others
    d = p["sf_dim"]
    frng = _rng(0, 5)
    T4 = ritt_matrix(frng, d, vcond=5.0, radius=0.8)
    lp3 = numlin.LpWeighted(3.0, tuple(float(v) for v in frng.uniform(0.5, 2.0, size=d)))
    ops.append(Op("sf_constant[lp:3]",
                  lambda: sqfun.sf_constant(T4, 1, lp3, trials=p["sf_trials"], seed=seed),
                  lambda C: (bool(np.isfinite(C) and C > 0), None)))
    routes = {}

    def sf_hilbert(method):
        routes[method] = sqfun.sf_constant(T4, 1, numlin.Hilbert(d), method=method, seed=seed)
        return routes[method]

    ops.append(Op("sf_constant[hilbert,gram]", lambda: sf_hilbert("gram"),
                  lambda C: (bool(np.isfinite(C) and C > 0), None)))
    ops.append(Op("sf_constant[hilbert,maximize]", lambda: sf_hilbert("maximize"),
                  lambda C: _within(abs(C - routes["gram"]), SF_ROUTE_TOL)))

    K_lp, K_sch, K_hil = p["rad_K"]
    xs_lp = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(K_lp)]
    lp3_4 = numlin.LpWeighted(3.0, (1.0, 1.0, 1.0, 1.0))
    sch3 = numlin.SchattenP(3.0, 2)
    xs_sch = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(K_sch)]
    xs_hil = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(K_hil)]

    def rad_bracket(xs, space):
        # max_k ||x_k|| <= (E ||sum eps_k x_k||^2)^(1/2) <= sum_k ||x_k||
        norms = [numlin.vec_norm(x, space) for x in xs]
        lo, hi = max(norms), sum(norms)
        return lambda r: (bool(lo * (1 - 1e-12) <= r.value <= hi * (1 + 1e-12)), None)

    ops.append(Op(f"rad_norm[lp:3,K={K_lp}]", lambda: sqfun.rad_norm(xs_lp, lp3_4),
                  rad_bracket(xs_lp, lp3_4)))
    ops.append(Op(f"rad_norm[schatten:3:2,K={K_sch}]", lambda: sqfun.rad_norm(xs_sch, sch3),
                  rad_bracket(xs_sch, sch3)))
    ident = math.sqrt(sum(float(np.vdot(x, x).real) for x in xs_hil))
    ops.append(Op(f"rad_norm[hilbert,K={K_hil}]",
                  lambda: sqfun.rad_norm(xs_hil, numlin.Hilbert(4)),
                  lambda r: _within(abs(r.value - ident), RAD_IDENTITY_TOL)))
    return Workload(ops=ops, warmups=[ops[2]])


def _joined(*parts):
    def build(rc, seed: int, size: str, workdir: str) -> Workload:
        wls = [part(rc, seed, size, workdir) for part in parts]
        return Workload(ops=[op for wl in wls for op in wl.ops],
                        warmups=[op for wl in wls for op in wl.warmups])
    return build


WORKLOADS = {
    "contour-exact": _joined(contour, analyze_exact),
    "ascent-constants": _joined(analyze_ascent, constants),
}
