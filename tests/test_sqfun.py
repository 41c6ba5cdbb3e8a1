import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import funcalc, numlin, sqfun
from rittcalc.numlin import (Hilbert, LpWeighted, SchattenP, SupSeq, check_vector, svd,
                             vec_norm)
from rittcalc.sqfun import (EXACT_ENUM_MAX, SFConfig, c512_check, gram_operator,
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
    # the 32nd growing term in a row is the first bad k
    with pytest.raises(sqfun.DivergenceError) as exc:
        square_function(np.diag([1.5]), [1.0], Hilbert(1))
    assert exc.value.k == 33
    with pytest.raises(sqfun.DivergenceError) as exc:
        square_function(np.diag([1.5, 0.5]), [1.0, 1.0], Hilbert(2))
    assert exc.value.k == 33


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


GRAM_ROUTE_CALLS = {
    "series-1": lambda T: gram_operator(T, 1),
    "series-2": lambda T: gram_operator(T, 2),
    "maximize": lambda T: sf_constant(T, 1, Hilbert(2), method="maximize"),
    # off Hilbert space the stack takes its length from the Gram series rule
    "sf-lp3": lambda T: sf_constant(T, 1, LpWeighted(3.0, (1.0, 1.0)), trials=5),
}


@pytest.mark.parametrize("T", [np.diag([1.5, 0.5]), np.diag([-1.0, 0.5])],
                         ids=["radius-1.5", "eigenvalue-minus-1"])
@pytest.mark.parametrize("route", list(GRAM_ROUTE_CALLS))
def test_gram_routes_refuse_a_radius_of_one_off_the_fixed_space(T, route):
    with pytest.raises(sqfun.DivergenceError):
        GRAM_ROUTE_CALLS[route](T)


def test_divergence_message_shows_the_radius_at_full_precision():
    # 1 + 1e-8 is no eigenvalue 1; rounded to six places its radius prints as 1.000000
    with pytest.raises(sqfun.DivergenceError) as exc:
        gram_operator(np.diag([1 + 1e-8, 0.5]))
    rho = float(re.search(r"\(rho=([^)]*)\)", str(exc.value)).group(1))
    assert rho > 1.0 and rho == pytest.approx(1 + 1e-8, rel=1e-15)


JORDAN_AT_ONE = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
LP3 = LpWeighted(3.0, (1.0, 1.0, 1.0))
DEFECTIVE_ONE_CALLS = {
    "square-function": lambda T: square_function(T, np.ones(3), Hilbert(3)),
    "gram-1": lambda T: gram_operator(T, 1),
    "gram-2": lambda T: gram_operator(T, 2),
    "sf-gram": lambda T: sf_constant(T, 1, Hilbert(3), method="gram"),
    "sf-maximize": lambda T: sf_constant(T, 1, Hilbert(3), method="maximize"),
    "sf-gram-2": lambda T: sf_constant(T, 2, Hilbert(3), method="gram"),
    "sf-lp3": lambda T: sf_constant(T, 1, LP3, trials=5),
    "square-function-lp3": lambda T: square_function(T, np.ones(3), LP3),
}


@pytest.mark.parametrize("route", list(DEFECTIVE_ONE_CALLS))
def test_every_square_function_route_refuses_a_defective_eigenvalue_one(route):
    # the series of a Jordan block at 1 grows like k^3: no finite value exists
    with pytest.raises(numlin.SingularMatrixError, match="defective"):
        DEFECTIVE_ONE_CALLS[route](JORDAN_AT_ONE)


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


@pytest.mark.parametrize("grid, shape", [
    ([], "0 rows of lengths []"),
    ([[]], "1 rows of lengths [0]"),
    ([[np.ones(2)], [np.ones(2), np.ones(2)]], "2 rows of lengths [1, 2]"),
], ids=["empty", "empty-row", "ragged"])
def test_rad_rad_norm_names_a_bad_grid_shape(grid, shape):
    with pytest.raises(ValueError, match=re.escape(shape)):
        rad_rad_norm(grid, Hilbert(2))


@pytest.mark.parametrize("tail_tol", [0.0, -1e-10, math.nan, math.inf])
def test_sfconfig_rejects_a_tail_tol_not_positive_and_finite(tail_tol):
    # a NaN tolerance used to pass, and its sums ran until the iterate underflowed
    with pytest.raises(ValueError, match="tail_tol must be positive and finite"):
        SFConfig(tail_tol=tail_tol)


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


@pytest.mark.parametrize("K", [2, 3, 4])
def test_r_bound_on_hilbert_is_the_largest_norm(K):
    # on the Euclidean model the R-bound of a finite family is max_k ||T_k||
    rng = np.random.default_rng(40 + K)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        Ts = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(K)]
        rb = r_bound_lower(Ts, Hilbert(d), trials=20, seed=K)
        assert rb == pytest.approx(max(np.linalg.norm(Tk, 2) for Tk in Ts), rel=1e-12, abs=0)


R_BOUND_MODELS = {"lp3": LpWeighted(3.0, (1.0, 2.0, 0.5, 1.0)),
                  "lp1.5": LpWeighted(1.5, (1.0,) * 4), "sup": SupSeq(4),
                  "schatten3": SchattenP(3.0, 2)}


@pytest.mark.parametrize("model", list(R_BOUND_MODELS))
def test_r_bound_is_no_lower_than_the_largest_norm(model):
    # a one-slot tuple attains ||T_k||, so every R-bound is at least max_k ||T_k||;
    # the random tuples alone reached 0.61-0.98 of it off Hilbert space
    from rittcalc.numlin import op_norm

    space = R_BOUND_MODELS[model]
    rng = np.random.default_rng(70)
    for K in (2, 3):
        Ts = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(K)]
        rb = r_bound_lower(Ts, space, trials=10, seed=K)
        assert rb >= max(op_norm(Tk, space).value for Tk in Ts)


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


def test_matrix_ratio_sampling_stability(monkeypatch):
    rng = np.random.default_rng(16)
    T = np.diag([0.5, 0.9])
    mat = [[funcalc.poly(rng.normal(size=3)) for _ in range(2)] for _ in range(2)]
    xs = [rng.normal(size=2) for _ in range(2)]
    a = matrix_calc_ratio(T, mat, xs, Hilbert(2), gamma=1.2)
    # denominator sampling refinement changes the ratio only marginally
    num = a * funcalc.hinf_matrix_norm(mat, 1.2) * rad_norm(xs, Hilbert(2)).value
    monkeypatch.setattr(funcalc, "MATRIX_PER_PIECE", 1024)
    den_fine = funcalc.hinf_matrix_norm(mat, 1.2)
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
    """vec_norm as one isinstance ladder, verbatim but for the order-2
    Schatten singular values, which come from the closed-form kernel."""
    x = check_vector(x, space)
    if isinstance(space, Hilbert):
        return float(np.linalg.norm(x))
    if isinstance(space, LpWeighted):
        w = np.asarray(space.weights)
        return float(np.sum(w * np.abs(x) ** space.p) ** (1.0 / space.p))
    if isinstance(space, SchattenP):
        if space.n == 2:
            m, s1, s2 = numlin._singular_values_2x2(x.reshape(-1))
            return float(m * s1 * (1.0 + (s2 / s1) ** space.p) ** (1.0 / space.p) if s1 else 0.0)
        s = svd(x)
        return float(np.sum(s ** space.p) ** (1.0 / space.p))
    if isinstance(space, SupSeq):
        return float(np.max(np.abs(x))) if x.size else 0.0
    raise ValueError(f"unknown space model {space!r}")


def _ladder_batch_norms(Y, space):
    """Norms of the rows of Y as one isinstance ladder, verbatim but for the
    order-2 Schatten singular values, which come from the closed-form kernel."""
    if isinstance(space, Hilbert):
        return np.linalg.norm(Y, axis=1)
    if isinstance(space, LpWeighted):
        w = np.asarray(space.weights)
        return np.sum(w[None, :] * np.abs(Y) ** space.p, axis=1) ** (1.0 / space.p)
    if isinstance(space, SupSeq):
        return np.max(np.abs(Y), axis=1)
    if isinstance(space, SchattenP):
        n = space.n
        if n == 2:
            m, s1, s2 = numlin._singular_values_2x2(Y)
            return m * s1 * (1.0 + (s2 / np.where(s1 > 0, s1, 1.0)) ** space.p) ** (1.0 / space.p)
        s = np.linalg.svd(Y.reshape(-1, n, n), compute_uv=False)
        return np.sum(s ** space.p, axis=1) ** (1.0 / space.p)
    raise ValueError(f"unknown space model {space!r}")


def _ladder_square_function(T, x, space, cfg):
    """square_function with its per-model accumulator ladder, verbatim."""
    T = np.asarray(T, dtype=complex)
    x = check_vector(x, space)
    m = cfg.m
    rho = sqfun._effective_radius(T)[0]

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
    while k < sqfun.SF_N_MAX:
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


# -- streamed sign enumeration -------------------------------------------------

def _full_sign_patterns(K):
    """Every sign pattern at once, as the enumeration built them before streaming."""
    P = 1 << (K - 1)
    out = np.ones((P, K))
    for j in range(1, K):
        period = 1 << (j - 1)
        col = np.ones(P)
        idx = (np.arange(P) // period) % 2 == 1
        col[idx] = -1.0
        out[:, j] = col
    return out


def _full_product_rad_norm(X, space):
    S = _full_sign_patterns(X.shape[0])
    norms = space.norms(S @ X)
    return float(np.sqrt(np.mean(norms**2)))


def _pairwise_rad_rad_norm(x_grid, space):
    """The doubly indexed average as one space.norms call per pattern pair."""
    lens = [len(row) for row in x_grid]
    rows, cols = len(lens), lens[0]
    X = np.array([[check_vector(x, space).reshape(-1) for x in row] for row in x_grid],
                 dtype=complex)
    Si = _full_sign_patterns(rows) if rows > 1 else np.ones((1, 1))
    Sj = _full_sign_patterns(cols) if cols > 1 else np.ones((1, 1))
    vals = []
    for si in Si:
        for sj in Sj:
            Y = np.tensordot(si, np.tensordot(sj, X, axes=(0, 1)), axes=(0, 0))
            vals.append(space.norms(Y[None, :])[0] ** 2)
    return float(np.sqrt(np.mean(vals)))


def _record_block_heights(monkeypatch):
    heights = []
    build = sqfun._sign_block

    def recording(table, start):
        block = build(table, start)
        heights.append(block.shape[0])
        return block

    monkeypatch.setattr(sqfun, "_sign_block", recording)
    return heights


# blocks of 2 and 4 rows take 2^(K-2) and 2^(K-3) passes, so they stop at K = 17
@pytest.mark.parametrize("K, rows_per_block",
                         [(K, None) for K in (2, 3, 9, 13, 17, 20)]
                         + [(K, h) for h in (2, 4) for K in (2, 3, 9, 13, 17)])
@pytest.mark.parametrize("space", PROTOCOL_SPACES, ids=repr)
def test_streamed_rad_norm_is_bit_identical_to_the_full_product(monkeypatch, space, K,
                                                                rows_per_block):
    rng = np.random.default_rng(100 + K)
    X = rng.normal(size=(K, 4)) + 1j * rng.normal(size=(K, 4))
    if rows_per_block:
        # a block row holds K signs, K coefficients and a complex image of length 4
        monkeypatch.setattr(sqfun.numlin, "RESOLVENT_BLOCK_BYTES",
                            rows_per_block * (8 * (K + K) + 16 * 4))
    heights = _record_block_heights(monkeypatch)
    assert rad_norm(list(X), space).value == _full_product_rad_norm(X, space)
    assert sum(heights) == 1 << (K - 1) and min(heights) >= 2
    if rows_per_block:
        assert set(heights) == {min(rows_per_block, 1 << (K - 1))}


def _at_worker_counts(monkeypatch, fn):
    out = []
    for workers in (1, 3):
        monkeypatch.setattr(sqfun.numlin, "_worker_count", lambda w=workers: w)
        out.append(fn())
    return out


# 2- and 4-row blocks stop at K = 13 (2048 and 1024 blocks): at K = 17 a
# case took 3-8 s, and the streamed test above runs those on the default pool
@pytest.mark.parametrize("K, rows_per_block",
                         [(K, None) for K in (2, 9, 13, 17, 20)]
                         + [(K, h) for h in (2, 4) for K in (2, 9, 13)])
@pytest.mark.parametrize("space", PROTOCOL_SPACES, ids=repr)
def test_pooled_rad_norm_does_not_depend_on_the_worker_count(monkeypatch, space, K,
                                                            rows_per_block):
    rng = np.random.default_rng(200 + K)
    xs = list(rng.normal(size=(K, 4)) + 1j * rng.normal(size=(K, 4)))
    if rows_per_block:
        monkeypatch.setattr(sqfun.numlin, "RESOLVENT_BLOCK_BYTES",
                            rows_per_block * (8 * (K + K) + 16 * 4))
    one, three = _at_worker_counts(monkeypatch, lambda: rad_norm(xs, space).value)
    assert one == three


def test_pooled_rad_rad_norm_does_not_depend_on_the_worker_count(monkeypatch):
    rng = np.random.default_rng(22)
    space = LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2))
    grid = rng.normal(size=(9, 8, 4)) + 1j * rng.normal(size=(9, 8, 4))
    xs = list(rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4)))
    heights = _record_block_heights(monkeypatch)
    one, three = _at_worker_counts(monkeypatch, lambda: (rad_rad_norm(grid, space).value,
                                                         rad_norm(xs, space).value))
    assert one == three
    # 16 blocks of 2048 patterns and 128 of 4096, at each worker count
    assert sorted(set(heights)) == [2048, 4096] and len(heights) == 2 * (16 + 128)


@pytest.mark.parametrize("K", range(1, 14))
def test_sign_patterns_are_the_concatenated_blocks(K):
    full = _full_sign_patterns(K)
    assert np.array_equal(sqfun.sign_patterns(K), full)
    P = 1 << (K - 1)
    for height in (h for h in (2, 4, 64, P) if h <= P):
        table = sqfun._sign_table(K, height)
        blocks = [sqfun._sign_block(table, start) for start in range(0, P, height)]
        assert all(b.shape == (height, K) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), full)


@pytest.mark.parametrize("row_bytes", [1, 224, 10**9])
def test_block_height_is_a_power_of_two_of_at_least_two_rows(row_bytes):
    for K in range(2, EXACT_ENUM_MAX + 1):
        P = 1 << (K - 1)
        h = sqfun._block_height(P, row_bytes)
        assert 2 <= h <= P and P % h == 0 and h & (h - 1) == 0
        assert h == 2 or h * row_bytes <= sqfun.numlin.RESOLVENT_BLOCK_BYTES


def test_rad_norm_holds_one_block_of_patterns():
    import tracemalloc

    rng = np.random.default_rng(21)
    xs = list(rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4)))
    space = LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2))
    tracemalloc.start()
    try:
        rad_norm(xs, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 2^19 patterns at once, their complex cast and S @ X took 272 MB
    assert peak < 10e6


@pytest.mark.parametrize("space, shape",
                         [(space, shape) for space in PROTOCOL_SPACES
                          for shape in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3))]
                         + [(PROTOCOL_SPACES[1], (9, 8))], ids=repr)
def test_stacked_rad_rad_norm_matches_the_pairwise_loop(space, shape):
    rng = np.random.default_rng(sum(shape))
    grid = [[rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(shape[1])]
            for _ in range(shape[0])]
    ref = _pairwise_rad_rad_norm(grid, space)
    assert rad_rad_norm(grid, space).value == pytest.approx(ref, rel=1e-14, abs=0.0)


# -- the one-vector loop and the constants off Hilbert space ------------------

def _parent_square_function(T, x, space, cfg):
    """square_function as the one-vector loop it was before stacking, verbatim."""
    T = np.asarray(T, dtype=complex)
    y = check_vector(x, space).reshape(-1)
    m = cfg.m
    rho = sqfun._effective_radius(T)[0]

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
    while k < sqfun.SF_N_MAX:
        k += 1
        w = k ** (2 * m - 1)
        a_k = k ** (m - 0.5) * float(space.norms(y))
        per_k.append(a_k)
        acc += w * space.square_term(y, cfg.side)

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

    return (float(space.square_norm(acc)), float(tail if np.isfinite(tail) else per_k[-1]),
            k, truncated, per_k)


# the four models, Schatten on both sides
STACK_CASES = [(Hilbert(4), "column"), (LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2)), "column"),
               (SchattenP(3.0, 2), "column"), (SchattenP(3.0, 2), "row"), (SupSeq(4), "column")]


@pytest.mark.parametrize("space, side", STACK_CASES, ids=repr)
def test_square_function_is_the_parent_loop_bit_for_bit(space, side):
    rng = np.random.default_rng(31)
    for seed in range(8):
        T = ritt_instance(seed, lam_hi=0.97)
        for m in (1, 2):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            cfg = SFConfig(m=m, side=side, tail_tol=10.0 ** -rng.integers(8, 14))
            with pytest.MonkeyPatch.context() as mp:  # both loops read the cap
                mp.setattr(sqfun, "SF_N_MAX", int(rng.choice([5, 20000])))
                rep = square_function(T, x, space, cfg)
                value, tail, n_terms, truncated, per_k = _parent_square_function(
                    T, x, space, cfg)
            assert (rep.value, rep.tail_bound, rep.n_terms, rep.truncated) == \
                (value, tail, n_terms, truncated)
            assert np.array_equal(rep.per_k, per_k)
    T = np.array([[1.0, 0.0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, 1.0]])
    for x in (np.ones(4), np.array([1.0, 0, 0, 1.0])):  # a fixed space and a zero term
        rep = square_function(T, x, space, SFConfig(side=side))
        assert (rep.value, rep.tail_bound, rep.n_terms, rep.truncated) == \
            _parent_square_function(T, x, space, SFConfig(side=side))[:4]


def test_sf_constant_maximize_on_the_identity_is_zero():
    with np.errstate(all="raise"):
        assert sf_constant(np.eye(3), 1, Hilbert(3), method="maximize") == 0.0
        assert sf_constant(np.eye(3), 2, Hilbert(3), method="maximize") == 0.0


@pytest.mark.parametrize("trials", [0, -5])
def test_sf_constant_needs_a_trial(trials):
    T = ritt_instance(3)
    for space, method in ((Hilbert(4), "maximize"), (LpWeighted(3.0, (1.0,) * 4), "auto"),
                          (SupSeq(4), "auto")):
        with pytest.raises(ValueError, match="trials"):
            sf_constant(T, 1, space, trials=trials, method=method)
    # the exact route draws no starts
    assert sf_constant(T, 1, Hilbert(4), trials=trials) > 0


@pytest.mark.parametrize("space", [LpWeighted(3.0, (1.0,) * 4), SupSeq(4)], ids=["lp3", "sup"])
@pytest.mark.parametrize("method", ["gram", "maximize", "bogus"])
def test_sf_constant_refuses_a_method_the_model_does_not_have(space, method):
    with pytest.raises(ValueError, match="method"):
        sf_constant(ritt_instance(3), 1, space, trials=5, method=method)


def test_sf_constant_takes_the_spectrum_once(spectra):
    # the spectral radius off 1 and the mean ergodic projection come from
    # one ordered Schur form
    sf_constant(ritt_instance(3), 1, LpWeighted(3.0, (1.0,) * 4), trials=20, seed=1)
    assert spectra == {"eig": 0, "schur": 1}


def _sample_operator(seed, dim, log_vcond, rescale):
    """V diag(lams) V^-1 with |lams| < 0.9 and cond(V) = 10^log_vcond, or
    rescaled to spectral radius 0.98."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.0, 0.9, dim) * np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
    Q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    Q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    V = Q1 @ np.diag(np.logspace(0.0, -log_vcond, dim)) @ Q2
    T = V @ np.diag(lams) @ np.linalg.inv(V)
    return T * (0.98 / np.max(np.abs(lams))) if rescale else T


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]),
       p=st.sampled_from([1.2, 1.5, 3.0, 4.0, 6.0]),
       model=st.sampled_from(["lp", "sup", "schatten-column", "schatten-row"]),
       dim=st.integers(2, 12), n=st.integers(2, 3), log_vcond=st.floats(0.0, 3.5),
       rescale=st.booleans())
def test_sf_constant_is_no_lower_than_twenty_unit_starts(seed, m, p, model, dim, n,
                                                         log_vcond, rescale):
    # the ascent witness alone is the value: no random unit vector pushed
    # through the square function may beat it, and trials/seed change nothing
    rng = np.random.default_rng(seed)
    cfg = SFConfig(m=m, side=model.split("-")[-1] if "-" in model else "column")
    if model == "lp":
        space = LpWeighted(p, tuple(rng.uniform(0.5, 2.0, dim)))
    elif model == "sup":
        space = SupSeq(dim)
    else:
        space = SchattenP(p, n)
    T = _sample_operator(seed, space.dim, log_vcond, rescale)
    C = sf_constant(T, m, space, trials=20, seed=seed % 7, cfg=cfg)
    starts = sqfun._unit_starts(np.random.Generator(np.random.Philox(key=seed)), 20, space.dim)
    best = max(square_function(T, u, space, cfg).value / vec_norm(u, space) for u in starts)
    assert C >= best * (1 - 1e-14)
    assert sf_constant(T, m, space, trials=500, seed=seed % 7 + 1, cfg=cfg) == C


def test_unit_starts_are_drawn_in_the_loop_order():
    # the maximize route's starts, drawn as the one-at-a-time loop drew them
    starts = sqfun._unit_starts(np.random.Generator(np.random.Philox(key=3)), 40, 4)
    rng = np.random.Generator(np.random.Philox(key=3))
    for row in starts:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(row, v / np.linalg.norm(v), rtol=1e-15, atol=0)


SHAPE_MODELS = [Hilbert(2), LpWeighted(3.0, (1.0, 2.0)), SupSeq(2), SchattenP(3.0, 1)]


@pytest.mark.parametrize("space", SHAPE_MODELS, ids=["hilbert", "lp3", "sup", "schatten3"])
def test_square_function_routes_refuse_an_operator_of_another_size(space):
    # a 3x3 operator on a model of dimension 2 (Schatten 1x1: dimension 1)
    T = 0.5 * np.eye(3)
    sizes = rf"operator of size 3 on space of dimension {space.dim}"
    methods = ("auto", "gram", "maximize") if isinstance(space, Hilbert) else ("auto",)
    for method in methods:
        with pytest.raises(numlin.ShapeError, match=sizes):
            sf_constant(T, 1, space, trials=5, method=method)
    with pytest.raises(numlin.ShapeError, match=sizes):
        square_function(T, np.ones(space.dim), space)


def _diagonal_sf(t, m):
    """max_i c_i, c_i the square-function constant of the scalar t_i:
    c^2 = |1-t|^(2m) sum_k k^(2m-1) r^(k-1), r = |t|^2, in closed form."""
    r = np.abs(t) ** 2
    if m == 1:
        c = np.abs(1 - t) / (1 - r)
    else:
        c = np.abs(1 - t) ** 2 * np.sqrt(1 + 4 * r + r ** 2) / (1 - r) ** 2
    return float(np.max(c))


DIAGONALS = {"real": np.array([0.5, 0.9, 0.2]),
             "complex": np.array([0.3 + 0.4j, -0.5, 0.7j])}
DIAGONAL_MODELS = {
    "lp1.5": LpWeighted(1.5, (1.0,) * 3), "lp1.5-weighted": LpWeighted(1.5, (0.5, 2.0, 1.3)),
    "lp3": LpWeighted(3.0, (1.0,) * 3), "lp3-weighted": LpWeighted(3.0, (2.0, 0.4, 1.0)),
    "lp4": LpWeighted(4.0, (1.0,) * 3), "lp4-weighted": LpWeighted(4.0, (0.7, 1.0, 3.0)),
    "sup": SupSeq(3),
}


@pytest.mark.parametrize("model", list(DIAGONAL_MODELS))
@pytest.mark.parametrize("diag", list(DIAGONALS))
@pytest.mark.parametrize("m", [1, 2])
def test_sf_constant_of_a_diagonal_operator_is_the_closed_form(model, diag, m):
    # ||S x|| = ||(c_i x_i)_i|| on these models, so the constant is max_i c_i,
    # attained at a unit vector (at the ones vector on sup)
    t = DIAGONALS[diag]
    C = sf_constant(np.diag(t), m, DIAGONAL_MODELS[model], trials=100, seed=0)
    assert C == pytest.approx(_diagonal_sf(t, m), rel=1e-12, abs=0.0)


def _load_bench_workloads():
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["bench_workloads"] = mod  # its dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod


def _bench_sf_operator():
    """T4 and its weighted lp:3 model as the benchmark's sf_constant op builds them."""
    wl = _load_bench_workloads()
    frng = wl._rng(0, 5)
    T4 = wl.ritt_matrix(frng, 4, vcond=5.0, radius=0.8)
    return T4, LpWeighted(3.0, tuple(float(v) for v in frng.uniform(0.5, 2.0, size=4)))


# sf_constant(T, m, space, trials=100, seed=0, cfg) as the trial scan and
# hill climb gave it before the ascent replaced the climb (commit 99a9517)
SF_FLOORS = {
    "lp1.5-weighted": ((11, 1, LpWeighted(1.5, (0.5, 1.0, 2.0, 1.5)), None), 2.7924331748134907),
    "lp3-weighted": ((12, 1, LpWeighted(3.0, (1.0, 0.3, 2.5, 0.8)), None), 2.8434069329382456),
    "lp4-weighted-m2": ((13, 2, LpWeighted(4.0, (2.0, 1.0, 0.5, 1.2)), None), 1.8455702115216468),
    "schatten3-column": ((14, 1, SchattenP(3.0, 2), SFConfig(side="column")), 0.9515957968628415),
    "schatten3-row": ((14, 1, SchattenP(3.0, 2), SFConfig(side="row")), 0.9497897491484287),
    "schatten1.5-column": ((16, 1, SchattenP(3.0, 2).dual(), SFConfig(side="column")),
                           1.7630602252795484),
    "sup": ((15, 1, SupSeq(4), None), 2.6685631364552043),
    "sup-m2": ((17, 2, SupSeq(4), None), 1.2974353114549761),
}


@pytest.mark.parametrize("name", list(SF_FLOORS))
def test_sf_constant_is_no_lower_than_the_hill_climb(name):
    (seed, m, space, cfg), floor = SF_FLOORS[name]
    assert sf_constant(ritt_instance(seed), m, space, trials=100, seed=0, cfg=cfg) >= \
        floor * (1 - 1e-12)


def test_sf_constant_dual_and_bench_cases_are_no_lower_than_the_hill_climb():
    # the dual-model cases of test_sf_constant_duality_pair and the bench op
    T = ritt_instance(4)
    assert sf_constant(T.T, 1, Hilbert(4).dual()) >= 2.9653369474996607 * (1 - 1e-12)
    dual = LpWeighted(3.0, (1.0, 2.0)).dual()
    assert sf_constant(np.diag([0.5, 0.8]), 1, dual, trials=50, seed=0) >= \
        0.6666660778992216 * (1 - 1e-12)
    T4, lp3 = _bench_sf_operator()
    assert sf_constant(T4, 1, lp3, trials=100, seed=0) >= 1.6299362734796605 * (1 - 1e-12)


def _counted(monkeypatch, name):
    calls = []
    fun = getattr(sqfun, name)

    def counted(*args):
        calls.append(args)
        return fun(*args)

    monkeypatch.setattr(sqfun, name, counted)
    return calls


@pytest.mark.parametrize("space", [LpWeighted(3.0, (0.5, 1.0, 2.0, 1.5)), SupSeq(4),
                                   SchattenP(3.0, 2)], ids=["lp3", "sup", "schatten3"])
def test_sf_constant_walks_one_stack_and_sums_one_witness(monkeypatch, space):
    # the ascent reads one stack, and only its witness is summed
    stacks = _counted(monkeypatch, "_square_stack")
    sums = _counted(monkeypatch, "_square_sums")
    sf_constant(ritt_instance(3), 1, space, trials=30, seed=1)
    assert len(stacks) == 1
    assert len(sums) == 1 and sums[0][1].shape == (space.dim,)


def test_gram_series_and_square_stack_share_one_length_rule(monkeypatch):
    lengths = []
    series_len = sqfun._series_len

    def recorded(*args):
        lengths.append(series_len(*args))
        return lengths[-1]

    monkeypatch.setattr(sqfun, "_series_len", recorded)
    T = ritt_instance(5, lam_hi=0.97)
    rho = sqfun._effective_radius(T)[0]
    sqfun._series_gram(T, 2, rho)
    assert len(sqfun._square_stack(T, 2, rho)) == lengths[1] == lengths[0] > 64
    # cut at the block length of the resolvents and at SF_N_MAX
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sqfun, "SF_N_MAX", 100)
        assert len(sqfun._square_stack(T, 2, rho)) == 100
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 16 * 16 * 50)
    assert len(sqfun._square_stack(T, 2, rho)) == numlin.resolvent_block_len(4) == 50


def test_sf_constant_on_a_slow_operator_holds_a_few_blocks():
    # dim 4, spectral radius 0.99: about 3000 terms; the stack and the
    # ascent's images stay within a few RESOLVENT_BLOCK_BYTES
    import tracemalloc

    rng = np.random.default_rng(9)
    V = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    T = V @ np.diag([0.2, 0.5, 0.9, 0.99]).astype(complex) @ np.linalg.inv(V)
    space = LpWeighted(3.0, (1.0, 0.5, 2.0, 1.0))
    tracemalloc.start()
    try:
        C = sf_constant(T, 1, space, trials=500, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C > 0
    assert peak <= 8 * numlin.RESOLVENT_BLOCK_BYTES


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_square_function_of_a_nilpotent_operator_sums_past_its_radius():
    # rho = 0, but T y != 0: the geometric tail alone stopped this sum at k = 1
    rep = square_function(NILPOTENT, [0.0, 1.0], Hilbert(2))
    assert rep.value == pytest.approx(2.0, rel=1e-15)
    assert (rep.n_terms, rep.tail_bound, rep.truncated) == (2, 0.0, False)
    x = np.array([0.3, -1.2j])
    q = math.sqrt(float(np.vdot(x, gram_operator(NILPOTENT, 2) @ x).real))
    assert square_function(NILPOTENT, x, Hilbert(2), SFConfig(m=2)).value == \
        pytest.approx(q, rel=1e-14)


def _cross_model_case(T, m, space, cfg=None):
    exact = sf_constant(T, m, Hilbert(T.shape[0]))
    C = sf_constant(T, m, space, trials=20, seed=0, cfg=cfg)
    assert C <= exact * (1 + 1e-12)
    assert C == pytest.approx(exact, rel=1e-10, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), m=st.sampled_from([1, 2]),
       model=st.sampled_from(["lp2", "schatten2-column", "schatten2-row"]))
def test_sf_constant_at_p_2_is_the_hilbert_gram_value(seed, dim, m, model):
    # l^2 with unit weights and Schatten-2 on either side are Hilbert spaces,
    # so the ascent's lower bound must reach the exact Gram value
    if model == "lp2":
        space, cfg = LpWeighted(2.0, (1.0,) * dim), None
    else:
        space, cfg = SchattenP(2.0, 2), SFConfig(side=model.split("-")[1])
        dim = 4
    T = ritt_instance(seed % 10**6, dim=dim, lam_hi=0.9)
    _cross_model_case(T, m, space, cfg)


@pytest.mark.parametrize("m", [1, 2])
def test_sf_constant_of_a_nilpotent_operator_is_the_hilbert_gram_value(m):
    _cross_model_case(NILPOTENT, m, LpWeighted(2.0, (1.0, 1.0)))
    jordan = np.kron(np.eye(2), NILPOTENT)
    for side in ("column", "row"):
        _cross_model_case(jordan, m, SchattenP(2.0, 2), SFConfig(side=side))


def test_sf_constant_ascent_on_the_bench_operator_stops_before_the_product_cap(monkeypatch):
    T4, lp3 = _bench_sf_operator()
    products = []
    kernels = LpWeighted._square_kernels

    def counted(self):
        norms, dual_map = kernels(self)

        def counted_map(Y):
            products.append(1)
            return dual_map(Y)

        return norms, counted_map

    monkeypatch.setattr(LpWeighted, "_square_kernels", counted)
    assert sf_constant(T4, 1, lp3, trials=100, seed=0) > 0
    assert 0 < len(products) < 200


def test_sf_constant_holds_a_capped_stack_on_a_slow_operator():
    # dim 64, spectral radius 0.99: the scan runs to about 2700 terms (170 MB
    # as a stack); the ascent keeps the RESOLVENT_BLOCK_BYTES of them that fit
    import tracemalloc

    rng = np.random.default_rng(5)
    V = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    T = V @ np.diag(np.linspace(0.1, 0.99, 64).astype(complex)) @ np.linalg.inv(V)
    space = LpWeighted(3.0, (1.0,) * 64)
    tracemalloc.start()
    try:
        C = sf_constant(T, 1, space, trials=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C > 0
    assert peak <= 8 * numlin.RESOLVENT_BLOCK_BYTES


# -- Gram operator against a 40-digit series -----------------------------------

def _mp_gram(T, m):
    """sum_k k^(2m-1) (A^m)^H (T^H)^(k-1) T^(k-1) A^m at 40 digits, A = I - T,
    cut when a term falls below 1e-36 of the sum; and the square root of
    its top eigenvalue."""
    import mpmath

    with mpmath.workdps(40):
        n = T.shape[0]
        Tm = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in T])
        P = (mpmath.eye(n) - Tm) ** m  # T^(k-1) A^m
        G = mpmath.zeros(n, n)
        for k in range(1, 5000):
            term = k ** (2 * m - 1) * (P.H * P)
            G += term
            if mpmath.mnorm(term, 1) <= mpmath.mpf("1e-36") * mpmath.mnorm(G, 1):
                break
            P = Tm * P
        else:
            raise AssertionError("40-digit Gram series did not converge")
        top = max(mpmath.re(e) for e in mpmath.eighe(G, eigvals_only=True))
        return (np.array([[complex(G[i, j]) for j in range(n)] for i in range(n)]),
                float(mpmath.sqrt(top)))


_S = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.5], [0.3, 0.0, 1.0]])
GRAM_ORACLE_CASES = {
    # eigenvector condition number 174
    "non-normal": _S @ np.diag([0.6, 0.2 + 0.3j, -0.4]) @ np.linalg.inv(_S),
    "jordan": np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]),
    # triangular, so the eigenvalue 1 is exact in double precision too
    "semisimple-1": np.array([[1.0, 0.25, -0.5], [0.0, 0.5, 1.0], [0.0, 0.0, 0.3 + 0.2j]]),
}
GRAM_ORACLE_ROUTES = [(name, m, route) for name in GRAM_ORACLE_CASES for m in (1, 2)
                      for route in ("series", "gram", "maximize")]


@pytest.mark.parametrize("name, m, route", GRAM_ORACLE_ROUTES)
def test_gram_routes_against_a_40_digit_series(name, m, route):
    T = GRAM_ORACLE_CASES[name]
    G_mp, C_mp = _mp_gram(T, m)
    if route == "series":
        G = gram_operator(T, m)
        assert np.linalg.norm(G - G_mp, 2) <= 1e-12 * np.linalg.norm(G_mp, 2)
    else:
        C = sf_constant(T, m, Hilbert(3), method=route)
        assert C == pytest.approx(C_mp, rel=1e-12, abs=0.0)


def _conditional_basis(n, kappa):
    """(d, E, T) with T = E D E^-1 as lab.conditional_basis_demo(n, kappa) builds it."""
    d = 1.0 - 2.0 ** -(np.arange(1, n + 1, dtype=float))
    c = (kappa**2 - 1.0) / (kappa**2 + 1.0)
    a = 0.5 * (math.sqrt(1.0 + c) + math.sqrt(1.0 - c))
    b = 0.5 * (math.sqrt(1.0 + c) - math.sqrt(1.0 - c))
    E = np.eye(n, dtype=complex)
    E[n - 2:, n - 2:] = np.array([[a, b], [b, a]])
    return d, E, E @ np.diag(d.astype(complex)) @ np.linalg.inv(E)


def test_gram_against_the_closed_form_on_the_conditional_basis_operator():
    # T = E D E^-1 as lab.conditional_basis_demo(8, 1e3) builds it; then
    # G = E^-H [(1 - conj d_i)(1 - d_j)(E^H E)_ij / (1 - conj d_i d_j)^2] E^-1
    # (E and d are real here), summed in closed form at 40 digits
    import mpmath

    n = 8
    d, E, T = _conditional_basis(n, 1e3)
    with mpmath.workdps(40):
        Em = mpmath.matrix([[mpmath.mpf(float(v.real)) for v in row] for row in E])
        dm = [mpmath.mpf(float(v)) for v in d]
        K = Em.T * Em
        for i in range(n):
            for j in range(n):
                K[i, j] *= (1 - dm[i]) * (1 - dm[j]) / (1 - dm[i] * dm[j]) ** 2
        Einv = Em ** -1
        Gm = Einv.T * K * Einv
        G_exact = np.array([[float(Gm[i, j]) for j in range(n)] for i in range(n)])
    G = gram_operator(T, 1)
    assert np.linalg.norm(G - G_exact, 2) <= 1e-11 * np.linalg.norm(G_exact, 2)


def _closed_form_gram(T):
    """The order-1 Gram operator of a diagonalizable T at 40 digits, from
    the eigendecomposition T = E D E^-1 of the matrix as rounded:
    G = E^-H [conj(1 - d_i)(1 - d_j)(E^H E)_ij / (1 - conj d_i d_j)^2] E^-1."""
    import mpmath

    n = T.shape[0]
    with mpmath.workdps(40):
        d, E = mpmath.eig(mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in T]))
        K = E.H * E
        for i in range(n):
            for j in range(n):
                K[i, j] *= mpmath.conj(1 - d[i]) * (1 - d[j]) / (1 - mpmath.conj(d[i]) * d[j]) ** 2
        Einv = E ** -1
        G = Einv.H * K * Einv
        return np.array([[complex(G[i, j]) for j in range(n)] for i in range(n)])


def test_gram_of_a_series_far_past_the_walk():
    # conditional_basis_demo(14, 1e3): rho = 1 - 2^-14, so the series needs
    # 2^19 terms, 64 times GRAM_HEAD.  The closed form is taken from the
    # rounded T itself: rounding E D E^-1 alone moves this Gram by 2.8e-10
    # relative.  The doubling past the walk is 1.7e-10 off here, about as
    # far as the Stein solver it replaced (1.4e-11) on this operator.
    T = _conditional_basis(14, 1e3)[2]
    G_exact = _closed_form_gram(T)
    assert np.linalg.norm(gram_operator(T, 1) - G_exact, 2) <= 1e-9 * np.linalg.norm(G_exact, 2)


def _term_by_term_gram(T, m, n):
    """sum_{k<=n} k^(2m-1) B_k^H B_k, B_k = T^(k-1) (I - T)^m, one term at a time."""
    B = np.linalg.matrix_power(np.eye(len(T)) - T, m).astype(complex)
    G = np.zeros_like(B)
    for k in range(1, n + 1):
        G += k ** (2 * m - 1) * (B.conj().T @ B)
        B = T @ B
    return G


@pytest.mark.parametrize("m", [1, 2, 3])
def test_series_gram_doubling_is_the_term_by_term_sum(monkeypatch, m):
    # with the walk cut to 64 terms every case doubles at least once; the
    # binomial doubling of the weighted sums against 4096 terms added one
    # at a time, which leaves a tail far below GRAM_TAIL_TOL here
    monkeypatch.setattr(sqfun, "GRAM_HEAD", 64)
    cases = list(GRAM_ORACLE_CASES.values())
    cases += [ritt_instance(seed, lam_hi=lam_hi) for seed, lam_hi in ((0, 0.5), (1, 0.9))]
    for T in cases:
        G = sqfun._series_gram(T, m, sqfun._effective_radius(T)[0])
        ref = _term_by_term_gram(T, m, 4096)
        assert np.linalg.norm(G - ref, 2) <= 1e-12 * max(np.linalg.norm(ref, 2), 1.0)


def test_series_gram_refuses_past_its_cap(monkeypatch):
    # rho = 0.97 needs rho^(2n) <= GRAM_TAIL_TOL, about 500 terms
    T = ritt_instance(2, lam_hi=0.97)
    monkeypatch.setattr(sqfun, "GRAM_N_MAX", 128)
    with pytest.raises(sqfun.DivergenceError, match="cap"):
        sqfun._series_gram(T, 1, sqfun._effective_radius(T)[0])
