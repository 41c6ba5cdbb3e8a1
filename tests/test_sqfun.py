import math

import numpy as np
import pytest

from rittcalc import funcalc, sqfun
from rittcalc.numlin import (Hilbert, LpWeighted, SchattenP, SupSeq, check_vector, svd,
                             vec_norm)
from rittcalc.sqfun import (SFConfig, c512_check, gram_operator,
                            khintchine_ratio, matrix_calc_ratio,
                            nc_khintchine_report, quadratic_calc_ratio,
                            r_bound_lower, rad_norm, rad_rad_norm, sf_constant,
                            sfe_family, square_function)


def ritt_instance(seed, dim=4, lam_hi=0.9):
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.1, lam_hi, size=dim)
    V = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return V @ np.diag(lams.astype(complex)) @ np.linalg.inv(V)


# -- square_function ---------------------------------------------------------

def test_square_function_T0():
    rep = square_function(np.zeros((2, 2)), [3.0, 4.0], Hilbert(2))
    assert rep.value == pytest.approx(5.0)
    assert rep.n_terms == 1 and not rep.truncated


def test_square_function_half_identity():
    # geometric series oracle: |1-l|^2 sum k |l|^(2(k-1)) = 0.25 / 0.5625
    x = np.array([1.0, 2.0])
    rep = square_function(0.5 * np.eye(2), x, Hilbert(2), SFConfig(tail_tol=1e-13))
    assert rep.value == pytest.approx((2.0 / 3.0) * np.linalg.norm(x), abs=1e-10)


def test_square_function_identity_operator():
    rep = square_function(np.eye(3), np.ones(3), Hilbert(3))
    assert rep.value == 0.0


def test_square_function_other_models():
    T = 0.5 * np.eye(2)
    x = np.array([1.0, 1.0])
    # p = 2, unit weights agrees with the Euclidean value
    a = square_function(T, x, LpWeighted(2.0, (1.0, 1.0)), SFConfig(tail_tol=1e-12))
    assert a.value == pytest.approx((2.0 / 3.0) * math.sqrt(2.0), abs=1e-9)
    s = square_function(T, x, SupSeq(2), SFConfig(tail_tol=1e-12))
    assert s.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    X = np.eye(2)
    c = square_function(np.diag([0.5, 0.5, 0.5, 0.5]), X, SchattenP(3.0, 2),
                        SFConfig(tail_tol=1e-12))
    assert c.value == pytest.approx((2.0 / 3.0) * 2.0 ** (1.0 / 3.0), abs=1e-9)


def test_square_function_divergence_detected():
    with pytest.raises(sqfun.DivergenceError) as exc:
        square_function(np.diag([1.5]), [1.0], Hilbert(1), SFConfig(n_max=4000))
    assert exc.value.k > 1


def test_square_function_schatten_column_vs_row():
    T = np.kron(np.diag([0.5, 0.8]), np.eye(2))
    X = np.array([[1.0, 2.0], [0.0, 1.0]])
    a = square_function(T, X, SchattenP(3.0, 2), SFConfig(side="column"))
    b = square_function(T, X, SchattenP(3.0, 2), SFConfig(side="row"))
    assert a.value > 0 and b.value > 0 and a.value != pytest.approx(b.value)


# -- gram and sf_constant ----------------------------------------------------

def test_gram_scalar_and_zero():
    assert gram_operator(np.array([[0.5 + 0j]]), 1)[0, 0] == pytest.approx(4.0 / 9.0)
    assert np.allclose(gram_operator(np.zeros((3, 3)), 1), np.eye(3))


def test_gram_dual_route():
    T = ritt_instance(0)
    a = gram_operator(T, 1, method="stein")
    b = gram_operator(T, 1, method="series")
    assert np.linalg.norm(a - b, 2) <= 1e-9


def test_gram_quadratic_form_is_square_function():
    T = ritt_instance(1)
    G = gram_operator(T, 1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = math.sqrt(max(float(np.vdot(x, G @ x).real), 0.0))
        v = square_function(T, x, Hilbert(4), SFConfig(tail_tol=1e-13)).value
        assert abs(q - v) <= 1e-9 * (1 + v)


def test_gram_deflates_eigenvalue_one():
    G = gram_operator(np.diag([1.0, 0.5]), 1)
    assert np.allclose(G, np.diag([0.0, 4.0 / 9.0]), atol=1e-12)


def test_sf_constant_examples():
    assert sf_constant(0.5 * np.eye(2), 1, Hilbert(2)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sf_constant(np.eye(2), 1, Hilbert(2)) == 0.0


def test_sf_constant_gram_vs_maximize():
    for seed in range(3):
        T = ritt_instance(seed)
        a = sf_constant(T, 1, Hilbert(4), method="gram")
        b = sf_constant(T, 1, Hilbert(4), method="maximize", seed=seed)
        assert abs(a - b) <= 1e-6


def test_sf_constant_duality_pair():
    T = ritt_instance(4)
    a = sf_constant(T.T, 1, Hilbert(4).dual())
    b = sf_constant(T.conj().T, 1, Hilbert(4))
    assert a == pytest.approx(b, rel=1e-10)
    # dual-model path on a weighted model just needs to be exercised
    Tlp = np.diag([0.5, 0.8])
    v = sf_constant(Tlp.T, 1, LpWeighted(3.0, (1.0, 2.0)).dual(), trials=50, seed=0)
    assert v > 0


def test_shift_inequality():
    T = ritt_instance(5)
    cfg = SFConfig(tail_tol=1e-11)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = square_function(T, T @ x, Hilbert(4), cfg)
        b = square_function(T, x, Hilbert(4), cfg)
        assert a.value <= b.value + a.tail_bound + b.tail_bound + cfg.tail_tol


# -- Rademacher averages -----------------------------------------------------

def test_rad_norm_examples():
    assert rad_norm([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                    Hilbert(2)).value == pytest.approx(math.sqrt(2.0))
    assert rad_norm([np.array([1.0, 1.0]), np.array([1.0, -1.0])],
                    SupSeq(2)).value == pytest.approx(2.0)
    assert rad_norm([np.array([3.0, 4.0])], LpWeighted(2.0, (1.0, 1.0))
                    ).value == pytest.approx(5.0)


def test_rad_norm_hilbert_identity():
    rng = np.random.default_rng(7)
    xs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(12)]
    v = rad_norm(xs, Hilbert(3)).value
    ident = math.sqrt(sum(float(np.vdot(x, x).real) for x in xs))
    assert abs(v - ident) <= 1e-12


def test_rad_norm_symmetries():
    rng = np.random.default_rng(8)
    xs = [rng.normal(size=2) for _ in range(5)]
    space = LpWeighted(3.0, (1.0, 2.0))
    base = rad_norm(xs, space).value
    perm = rad_norm([xs[i] for i in (3, 1, 4, 0, 2)], space).value
    flip = rad_norm([xs[0], -xs[1], xs[2], -xs[3], xs[4]], space).value
    assert base == pytest.approx(perm, abs=1e-13)
    assert base == pytest.approx(flip, abs=1e-13)


def test_rad_norm_monte_carlo_seeded():
    rng = np.random.default_rng(9)
    xs = [rng.normal(size=4) for _ in range(6)]
    a = rad_norm(xs, Hilbert(4), mode="monte-carlo", seed=31)
    b = rad_norm(xs, Hilbert(4), mode="monte-carlo", seed=31)
    assert a.value == b.value and a.standard_error == b.standard_error
    exact = rad_norm(xs, Hilbert(4)).value
    assert abs(a.value - exact) <= 5 * a.standard_error + 1e-9
    with pytest.raises(ValueError):
        rad_norm(xs, Hilbert(4), mode="monte-carlo")  # seed mandatory


def test_rad_norm_exact_cap():
    xs = [np.ones(2)] * 21
    with pytest.raises(ValueError):
        rad_norm(xs, Hilbert(2))


def test_khintchine_ratio():
    rng = np.random.default_rng(10)
    xs = [rng.normal(size=3) for _ in range(6)]
    assert khintchine_ratio(xs, LpWeighted(2.0, (1.0, 1.0, 1.0))) == pytest.approx(1.0, abs=1e-12)
    assert khintchine_ratio(xs, Hilbert(3)) == pytest.approx(1.0, abs=1e-12)
    r = khintchine_ratio([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                         LpWeighted(4.0, (1.0, 1.0)))
    assert 0.5 <= r <= 2.0
    assert khintchine_ratio([np.array([5.0, 1.0])], LpWeighted(4.0, (1.0, 1.0))
                            ) == pytest.approx(1.0)
    assert khintchine_ratio([], Hilbert(2)) == 1.0


def test_rad_rad_two_variable_khintchine():
    # commutative two-variable Khintchine is an identity at p = 2
    rng = np.random.default_rng(11)
    grid = [[rng.normal(size=3) for _ in range(3)] for _ in range(4)]
    v = rad_rad_norm(grid, LpWeighted(2.0, (1.0, 1.0, 1.0))).value
    ident = math.sqrt(sum(np.linalg.norm(x) ** 2 for row in grid for x in row))
    assert abs(v - ident) <= 1e-12


def test_nc_khintchine_report():
    rng = np.random.default_rng(12)
    xs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
    hi = nc_khintchine_report(xs, SchattenP(3.0, 2))
    assert hi["rad"] > 0 and hi["max_col_row"] > 0
    lo = nc_khintchine_report(xs, SchattenP(1.5, 2))
    assert lo["optimal"] is False
    assert lo["decomposition_upper"] <= min(lo["decomposition_candidates"].values()) + 1e-15
    single = nc_khintchine_report([xs[0]], SchattenP(3.0, 2))
    from rittcalc.numlin import vec_norm
    assert single["rad"] == pytest.approx(vec_norm(xs[0], SchattenP(3.0, 2)))
    assert single["column_term"] == pytest.approx(single["rad"], rel=1e-12)


# -- R-bounds ----------------------------------------------------------------

def test_r_bound_hilbert_pair():
    rb = r_bound_lower([2 * np.eye(3), np.eye(3)], Hilbert(3), trials=50, seed=0)
    assert 2.0 - 1e-3 <= rb <= 2.0 + 1e-12


def test_r_bound_single_and_identity():
    from rittcalc.numlin import op_norm

    rng = np.random.default_rng(13)
    T = rng.normal(size=(3, 3))
    rb = r_bound_lower([T], Hilbert(3), trials=50, seed=0)
    assert rb == pytest.approx(op_norm(T, Hilbert(3)).value, abs=1e-9)
    assert r_bound_lower([np.eye(2)], SupSeq(2), trials=20, seed=0) == pytest.approx(1.0, abs=1e-6)


# -- quadratic / matricial ratios -------------------------------------------

def test_quadratic_ratio_trivial():
    x = np.array([1.0, 0.0])
    r = quadratic_calc_ratio(np.diag([0.5, 0.2]), [funcalc.poly([1.0])], x,
                             Hilbert(2), gamma=0.9)
    assert r == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("exponent", ["l", "m"])
def test_quadratic_ratio_sfe_family(exponent):
    T = ritt_instance(14, dim=3)
    fam = sfe_family(1, 8, exponent=exponent)
    x = np.array([1.0, 0.5, -0.25])
    r = quadratic_calc_ratio(T, fam, x, Hilbert(3), gamma=1.1)
    assert np.isfinite(r) and r > 0


def test_quadratic_ratio_normal_bounded():
    T = np.diag([0.5, 0.3, 0.7])
    fam = [funcalc.poly([0, 1]), funcalc.poly([0, 0, 1]), funcalc.poly([1, -1])]
    rng = np.random.default_rng(15)
    x = rng.normal(size=3)
    r = quadratic_calc_ratio(T, fam, x, Hilbert(3), gamma=1.2)
    assert r <= 1.0 + 1e-9


def test_matrix_ratio_reductions():
    T = np.diag([0.5, 0.9])
    one = funcalc.poly([1.0])
    zero = funcalc.poly([0.0])
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    r = matrix_calc_ratio(T, [[one, zero], [zero, one]], xs, Hilbert(2), gamma=1.2)
    assert r == pytest.approx(1.0, abs=1e-9)
    phi = funcalc.poly([0, 1, -1])
    x = [np.array([1.0, 2.0])]
    a = matrix_calc_ratio(T, [[phi]], x, Hilbert(2), gamma=1.2)
    b = quadratic_calc_ratio(T, [phi], x[0] / np.linalg.norm(x[0]), Hilbert(2), gamma=1.2)
    assert a == pytest.approx(b, rel=1e-9)


def test_matrix_ratio_rejects_a_non_square_phi_matrix_or_wrong_vector_count():
    T = np.diag([0.5, 0.9])
    one, zero, big = funcalc.poly([1.0]), funcalc.poly([0.0]), funcalc.poly([100.0])
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError, match="square"):  # a 2x3 matrix
        matrix_calc_ratio(T, [[one, zero, big], [zero, one, big]], xs, Hilbert(2), gamma=1.2)
    with pytest.raises(ValueError, match="square"):  # ragged
        matrix_calc_ratio(T, [[one, zero], [one]], xs, Hilbert(2), gamma=1.2)
    with pytest.raises(ValueError, match="1 vectors for a 2-row"):
        matrix_calc_ratio(T, [[one, zero], [zero, one]], xs[:1], Hilbert(2), gamma=1.2)


def test_matrix_ratio_sampling_stability():
    rng = np.random.default_rng(16)
    T = np.diag([0.5, 0.9])
    mat = [[funcalc.poly(rng.normal(size=3)) for _ in range(2)] for _ in range(2)]
    xs = [rng.normal(size=2) for _ in range(2)]
    a = matrix_calc_ratio(T, mat, xs, Hilbert(2), gamma=1.2)
    # denominator sampling refinement changes the ratio only marginally
    num = a * funcalc.hinf_matrix_norm(mat, 1.2) * rad_norm(xs, Hilbert(2)).value
    den_fine = funcalc.hinf_matrix_norm(mat, 1.2, per_piece=1024)
    b = num / (den_fine * rad_norm(xs, Hilbert(2)).value)
    assert abs(a - b) <= 1e-6 * (1 + a)


# -- order-1 vs order-2 constants -------------------------------------------

def test_c512_scalar_series():
    out = c512_check(0.5 * np.eye(2))
    assert out["C1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # series oracle: C2^2 = (1/16) sum k^3 (1/4)^(k-1) = (1/16)(1+4t+t^2)/(1-t)^4
    t = 0.25
    c2 = math.sqrt((1.0 / 16.0) * (1 + 4 * t + t * t) / (1 - t) ** 4)
    assert out["C2"] == pytest.approx(c2, abs=1e-10)
    assert out["holds"]
    out0 = c512_check(np.zeros((2, 2)))
    assert out0["C1"] == 1.0 and out0["C2"] == 1.0 and out0["holds"]


def test_c512_random_instances():
    for seed in range(5):
        assert c512_check(ritt_instance(seed))["holds"]


def test_square_function_weighted_diagonal_oracle():
    # diagonal operator: pointwise geometric series in closed form
    lam = np.array([0.5, 0.8])
    T = np.diag(lam)
    w = (0.7, 2.5)
    x = np.array([1.0, -2.0])
    g = np.abs(x) * np.abs(1 - lam) / (1 - np.abs(lam) ** 2)
    expected = float(np.sum(np.array(w) * g ** 3.0) ** (1.0 / 3.0))
    rep = square_function(T, x, LpWeighted(3.0, w), SFConfig(tail_tol=1e-13))
    assert rep.value == pytest.approx(expected, abs=1e-10)


# -- the space-model protocol against the per-model ladders it replaced ------

def _ladder_vec_norm(x, space):
    """vec_norm as one isinstance ladder, verbatim."""
    x = check_vector(x, space)
    if isinstance(space, Hilbert):
        return float(np.linalg.norm(x))
    if isinstance(space, LpWeighted):
        w = np.asarray(space.weights)
        return float(np.sum(w * np.abs(x) ** space.p) ** (1.0 / space.p))
    if isinstance(space, SchattenP):
        s = svd(x)
        return float(np.sum(s ** space.p) ** (1.0 / space.p))
    if isinstance(space, SupSeq):
        return float(np.max(np.abs(x))) if x.size else 0.0
    raise ValueError(f"unknown space model {space!r}")


def _ladder_batch_norms(Y, space):
    """Norms of the rows of Y as one isinstance ladder, verbatim."""
    if isinstance(space, Hilbert):
        return np.linalg.norm(Y, axis=1)
    if isinstance(space, LpWeighted):
        w = np.asarray(space.weights)
        return np.sum(w[None, :] * np.abs(Y) ** space.p, axis=1) ** (1.0 / space.p)
    if isinstance(space, SupSeq):
        return np.max(np.abs(Y), axis=1)
    if isinstance(space, SchattenP):
        n = space.n
        s = np.linalg.svd(Y.reshape(-1, n, n), compute_uv=False)
        return np.sum(s ** space.p, axis=1) ** (1.0 / space.p)
    raise ValueError(f"unknown space model {space!r}")


def _ladder_square_function(T, x, space, cfg):
    """square_function with its per-model accumulator ladder, verbatim."""
    T = np.asarray(T, dtype=complex)
    x = check_vector(x, space)
    m = cfg.m
    rho = sqfun._effective_radius(T)

    n = T.shape[0] if not isinstance(space, SchattenP) else space.n
    I = np.eye(T.shape[0], dtype=complex)
    A = I - T

    if isinstance(space, SchattenP):
        xv = x.reshape(-1)
    else:
        xv = x
    y = xv.copy()
    for _ in range(m):
        y = A @ y

    # per-model accumulator
    if isinstance(space, Hilbert):
        acc = 0.0
    elif isinstance(space, (LpWeighted, SupSeq)):
        acc = np.zeros(xv.size, dtype=float)
    else:
        acc = np.zeros((n, n), dtype=complex)

    per_k = []
    a_prev = None
    grow_run = 0
    k = 0
    tail = math.inf
    truncated = True
    while k < cfg.n_max:
        k += 1
        w = k ** (2 * m - 1)
        a_k = k ** (m - 0.5) * _ladder_vec_norm(y, space)
        per_k.append(a_k)
        if isinstance(space, Hilbert):
            acc += w * float(np.vdot(y, y).real)
        elif isinstance(space, (LpWeighted, SupSeq)):
            acc += w * np.abs(y) ** 2
        else:
            Y = y.reshape(n, n)
            acc += w * (Y.conj().T @ Y if cfg.side == "column" else Y @ Y.conj().T)

        if a_prev is not None and a_k > a_prev * (1.0 + 1e-12) and a_k > 1e-290:
            grow_run += 1
            if grow_run >= 32 and a_k > 1e6 * max(per_k[0], 1e-290):
                raise sqfun.DivergenceError(k)
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

    if isinstance(space, Hilbert):
        value = math.sqrt(acc)
    elif isinstance(space, LpWeighted):
        value = _ladder_vec_norm(np.sqrt(acc), space)
    elif isinstance(space, SupSeq):
        value = float(np.sqrt(np.max(acc))) if acc.size else 0.0
    else:
        ev = np.clip(np.linalg.eigvalsh(0.5 * (acc + acc.conj().T)).real, 0.0, None)
        value = float(np.sum(ev ** (space.p / 2.0)) ** (1.0 / space.p))
    return value, float(tail if np.isfinite(tail) else per_k[-1]), k, truncated, per_k


PROTOCOL_SPACES = [Hilbert(4), LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2)), SchattenP(3.0, 2),
                   SchattenP(2.0, 2), SupSeq(4)]


@pytest.mark.parametrize("side", ["column", "row"])
@pytest.mark.parametrize("space", PROTOCOL_SPACES, ids=repr)
def test_square_function_matches_the_accumulator_ladder(space, side):
    rng = np.random.default_rng(17)
    for seed, m in ((0, 1), (1, 2), (2, 1)):
        T = ritt_instance(seed)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        cfg = SFConfig(m=m, side=side, tail_tol=1e-12)
        rep = square_function(T, x, space, cfg)
        value, tail, n_terms, truncated, per_k = _ladder_square_function(T, x, space, cfg)
        assert rep.value == value and rep.tail_bound == tail
        assert rep.n_terms == n_terms and rep.truncated == truncated
        assert np.array_equal(rep.per_k, per_k)
        assert _ladder_vec_norm(x, space) == vec_norm(x, space)


@pytest.mark.parametrize("space", PROTOCOL_SPACES, ids=repr)
def test_rad_norm_matches_the_batch_norm_ladder(space):
    rng = np.random.default_rng(18)
    X = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    xs = list(X)
    S = sqfun.sign_patterns(len(xs))
    assert np.array_equal(space.norms(S @ X), _ladder_batch_norms(S @ X, space))
    exact = float(np.sqrt(np.mean(_ladder_batch_norms(S @ X, space) ** 2)))
    assert rad_norm(xs, space).value == exact
    assert rad_norm(xs[:1], space).value == float(_ladder_batch_norms(X[:1], space)[0])
    mc = rad_norm(xs, space, mode="monte-carlo", samples=256, seed=5)
    Smc = np.random.Generator(np.random.Philox(key=5)).integers(0, 2, size=(256, 7)) * 2.0 - 1.0
    assert mc.value == math.sqrt(float(np.mean(_ladder_batch_norms(Smc @ X, space) ** 2)))
