import cmath
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import funcalc, numlin, ritt, stolz, verify
from rittcalc.funcalc import (ContourCalculus, calculus_constant, eval_contour,
                              eval_poly, frac_power, frac_power_eig,
                              frac_power_fn, hinf_norm, named_function,
                              nevanlinna_diag, poly, transfer_check)
from rittcalc.numlin import Hilbert
from test_stolz import contains

T_TRI = np.array([[0.5, 0.3], [0.0, 0.2]])


def ritt_instance(seed, dim=4, lams=None):
    rng = np.random.default_rng(seed)
    lams = lams if lams is not None else rng.uniform(0.1, 0.9, size=dim)
    V = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return V @ np.diag(np.asarray(lams, dtype=complex)) @ np.linalg.inv(V)


def test_eval_poly_examples():
    assert np.allclose(eval_poly(np.diag([0.5]), poly([0, 0, 1])), [[0.25]])
    assert np.allclose(eval_poly(T_TRI, poly([1])), np.eye(2))
    assert np.allclose(eval_poly(T_TRI, poly([0, 1, -1])), T_TRI - T_TRI @ T_TRI)


def test_polynomial_horner_matches_generic_evaluation():
    rng = np.random.default_rng(0)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    phi = poly(c)
    zs = []
    while len(zs) < 100:
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if contains(math.pi / 4, z):
            zs.append(z)
    ref = np.polynomial.polynomial.polyval(np.array(zs), c)
    got = phi(np.array(zs))
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))


def test_contour_matches_direct_evaluation():
    phi = poly([0, 1, -1])  # z(1 - z)
    rep = eval_contour(T_TRI, phi, beta=math.pi / 4)
    direct = eval_poly(T_TRI, phi)
    rel = np.linalg.norm(rep.value - direct, 2) / np.linalg.norm(direct, 2)
    assert rel <= 1e-8
    assert rep.error_estimate >= 0


def test_contour_beta_independence():
    phi = poly([0, 1, -1])
    r1 = eval_contour(T_TRI, phi, beta=math.pi / 4)
    r2 = eval_contour(T_TRI, phi, beta=math.pi / 3)
    diff = np.linalg.norm(r1.value - r2.value, 2)
    assert diff <= r1.error_estimate + r2.error_estimate
    assert diff <= 1e-8


def test_contour_homomorphism():
    phi = poly([0, 1, -1])
    psi = poly([0, 0, 1, -1])
    prod = poly(np.convolve(phi.coeffs, psi.coeffs))
    calc = ContourCalculus(T_TRI, beta=math.pi / 4)
    lhs = calc.apply(prod).value
    rhs = calc.apply(phi).value @ calc.apply(psi).value
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-7


def _random_operator(seed, dim, one):
    """A verify.random_ritt operator, with a semisimple eigenvalue 1 planted
    by a similarity when ``one``; and a random polynomial vanishing at 1."""
    rng = np.random.default_rng(seed)
    T = verify.random_ritt(rng, dim)
    if one:
        S = np.eye(dim + 1) + 0.3 * (rng.normal(size=(dim + 1,) * 2)
                                     + 1j * rng.normal(size=(dim + 1,) * 2))
        B = np.zeros((dim + 1, dim + 1), dtype=complex)
        B[0, 0], B[1:, 1:] = 1.0, T
        T = S @ B @ np.linalg.inv(S)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c[0] -= c.sum()
    return T, c


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), one=st.booleans())
def test_contour_beta_independence_property(seed, dim, one):
    T, c = _random_operator(seed, dim, one)
    r1 = ContourCalculus(T, beta=math.pi / 4).apply(poly(c))
    r2 = ContourCalculus(T, beta=math.pi / 3).apply(poly(c))
    assert r1.converged and r2.converged
    assert np.linalg.norm(r1.value - r2.value, 2) <= r1.error_estimate + r2.error_estimate


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), one=st.booleans())
def test_contour_homomorphism_property(seed, dim, one):
    # (phi psi)(T) = phi(T) psi(T) within the errors propagated through the product
    T, c = _random_operator(seed, dim, one)
    d = np.array([0.5, -0.25j, 0.0, 0.3])
    d[0] -= d.sum()
    calc = ContourCalculus(T, beta=math.pi / 4)
    a, b = calc.apply(poly(c)), calc.apply(poly(d))
    ab = calc.apply(poly(np.convolve(c, d)))
    bound = (ab.error_estimate + a.error_estimate * np.linalg.norm(b.value, 2)
             + b.error_estimate * np.linalg.norm(a.value, 2) + a.error_estimate * b.error_estimate)
    assert np.linalg.norm(ab.value - a.value @ b.value, 2) <= bound


def test_contour_oracle_on_random_ritt_family():
    rng = np.random.default_rng(1)
    for seed in range(3):
        T = ritt_instance(seed)
        calc = ContourCalculus(T, beta=math.pi / 4)
        for _ in range(3):
            c = rng.normal(size=8)
            c[0] -= c.sum()  # phi(1) = 0
            phi = poly(c)
            direct = eval_poly(T, phi)
            got = calc.apply(phi).value
            scale = max(np.linalg.norm(direct, 2), 1e-30)
            assert np.linalg.norm(got - direct, 2) / scale <= 1e-7


def test_contour_transpose_duality():
    T = ritt_instance(5)
    phi = poly([0, 1, -1])
    a = eval_contour(T, phi, beta=0.7).value
    b = eval_contour(T.T, phi, beta=0.7).value
    assert np.linalg.norm(a.T - b, 2) <= 1e-9 * (1 + np.linalg.norm(a, 2))


def test_contour_requires_certificate_at_vertex():
    T1 = np.diag([1.0, 0.5])
    with pytest.raises(funcalc.AdmissibilityError):
        eval_contour(T1, poly([1.0]))  # constant: no vanishing certificate
    rep = eval_contour(T1, poly([0, 1, -1]))
    assert np.allclose(np.diag(rep.value), [0.0, 0.25], atol=1e-8)


def test_contour_rejects_bad_beta():
    with pytest.raises(funcalc.ContourSpectrumError):
        ContourCalculus(np.diag([0.5j]), beta=math.pi / 12)  # below spectral type
    with pytest.raises(funcalc.ContourSpectrumError):
        ContourCalculus(np.diag([-1.0]))


def test_frac_power_examples():
    rep = frac_power(np.diag([0.5, 0.75]), 0.5)
    assert np.allclose(np.diag(rep.value), [math.sqrt(0.5), 0.5], atol=1e-9)
    T = ritt_instance(2)
    rep1 = frac_power(T, 1.0)
    assert np.linalg.norm(rep1.value - (np.eye(4) - T), 2) <= 1e-8


def test_frac_power_eigen_oracle_and_additivity():
    T = ritt_instance(3)
    half = frac_power(T, 0.5).value
    assert np.linalg.norm(half - frac_power_eig(T, 0.5), 2) <= 1e-7
    third = frac_power(T, 1.0 / 3.0).value
    twothird = frac_power(T, 2.0 / 3.0).value
    assert np.linalg.norm(third @ twothird - (np.eye(4) - T), 2) <= 1e-6


_S3 = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.5], [0.3, 0.0, 1.0]])
FRAC_ORACLE_CASES = {
    "jordan-block": np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]),
    # a Jordan block at 0.6 and 0.2 + 0.3i, behind a non-unitary similarity
    "jordan-like": _S3 @ np.array([[0.6, 1.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.2 + 0.3j]])
    @ np.linalg.inv(_S3),
}


@pytest.mark.parametrize("name", list(FRAC_ORACLE_CASES))
def test_frac_power_against_a_40_digit_square_root(name):
    # no eigendecomposition exists for these; mpmath's principal sqrtm(I - T)
    # is the oracle, held to the 1e-7 of the frac-power criterion
    import mpmath

    T = FRAC_ORACLE_CASES[name]
    with mpmath.workdps(40):
        R = mpmath.sqrtm(mpmath.eye(3) - mpmath.matrix(
            [[mpmath.mpc(complex(v)) for v in row] for row in T]))
        oracle = np.array([[complex(R[i, j]) for j in range(3)] for i in range(3)])
    assert np.linalg.norm(frac_power(T, 0.5).value - oracle, 2) <= 1e-7


@pytest.mark.parametrize("d", [(1.0, 0.5, 0.2 + 0.1j), (1.0, 1.0, 0.6j, -0.4)])
@pytest.mark.parametrize("similar", [False, True])
@pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0])
def test_frac_power_with_semisimple_eigenvalue_one(d, similar, delta):
    # planted oracle S diag((1 - d)^delta) S^-1; the contour alone refuses the
    # node that lands on 1 (z = 1 + 2.6e-15i, rcond 6.9e-15 on the diagonal case)
    n = len(d)
    S = np.eye(n)
    if similar:
        rng = np.random.default_rng(11)
        S = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    Sinv = np.linalg.inv(S)
    T = S @ np.diag(d) @ Sinv
    oracle = S @ np.diag(np.power(1.0 - np.asarray(d, dtype=complex), delta)) @ Sinv
    rep = frac_power(T, delta)
    assert np.linalg.norm(rep.value - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2)


def test_frac_power_defective_one_raises():
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(funcalc.ContourSpectrumError, match="defective"):
        frac_power(T, 0.5)


def test_frac_power_without_eigenvalue_one_skips_the_projection(monkeypatch):
    T = ritt_instance(3)
    ref = funcalc.eval_contour(T, frac_power_fn(0.5)).value
    monkeypatch.setattr(ritt, "mean_ergodic_projection", None)
    assert np.array_equal(frac_power(T, 0.5).value, ref)


@pytest.mark.parametrize("delta", [0.5, 0.75])
def test_eval_contour_splits_off_a_semisimple_eigenvalue_one(delta):
    # without the split the node z = 1 + 2.6e-15i is refused (rcond 6.9e-15)
    # at delta = 0.5, and at delta = 0.75 the (0, 0) entry comes out 1.5e-11
    d = np.array([1.0, 0.5, 0.2 + 0.1j])
    rep = eval_contour(np.diag(d), frac_power_fn(delta))
    assert abs(rep.value[0, 0]) <= 1e-14
    assert np.max(np.abs(rep.value - np.diag(np.power(1.0 - d, delta)))) <= 1e-13


def test_contour_calculus_with_eigenvalue_one_matches_horner():
    T = ritt_instance(4, lams=[1.0, 1.0, 0.6j, -0.4])
    calc = ContourCalculus(T, beta=math.pi / 4)
    rng = np.random.default_rng(2)
    for deg in (2, 8, 16):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] -= c.sum()  # phi(1) = 0
        direct = eval_poly(T, poly(c))
        got = calc.apply(poly(c)).value
        assert np.linalg.norm(got - direct, 2) <= 1e-12 * np.linalg.norm(direct, 2)


def test_contour_calculus_refuses_a_defective_eigenvalue_one():
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(funcalc.ContourSpectrumError, match="defective"):
        eval_contour(T, poly([0, 1, -1]))


@pytest.mark.parametrize("lams", [[0.5, 0.3j, -0.2], [1.0, 0.6j, -0.4]], ids=["plain", "one"])
def test_contour_calculus_takes_the_spectrum_once(spectra, lams):
    # the eigenvalues, the angle, the split at eigenvalue 1 and the
    # contour's triangular form all come from one ordered Schur form of T
    calc = ContourCalculus(ritt_instance(6, dim=3, lams=lams))
    assert spectra == {"eig": 0, "schur": 1} and (calc._P is not None) == (1.0 in lams)


@pytest.mark.parametrize("lams", [[0.5, 0.3j, -0.2], [1.0, 0.6j, -0.4]], ids=["plain", "one"])
def test_contour_calculus_takes_the_norm_of_t_once(monkeypatch, lams):
    # ||T||_2 sets the eigenvalue-1 tolerance, which the split reuses
    T = ritt_instance(6, dim=3, lams=lams)
    calls = []
    norm = np.linalg.norm

    def counted(x, *a, **k):
        if (a[:1] == (2,) or k.get("ord") == 2) and np.shape(x) == T.shape and np.array_equal(x, T):
            calls.append(1)
        return norm(x, *a, **k)

    monkeypatch.setattr(np.linalg, "norm", counted)
    ContourCalculus(T)
    assert len(calls) == 1


def test_contour_admissibility_after_the_split():
    # a split-off eigenvalue 1 only asks phi(1) = 0; an eigenvalue near 1
    # that is not split off keeps the vertex under the contour
    third = frac_power_fn(1.0 / 3.0)
    rep = eval_contour(np.diag([1.0, 0.5]), third)
    assert rep.value[1, 1] == pytest.approx(0.5 ** (1.0 / 3.0), abs=1e-12)
    with pytest.raises(funcalc.AdmissibilityError, match=">= 0.5"):
        eval_contour(np.diag([1.0 - 1e-8, 0.5]), third)
    with pytest.raises(funcalc.AdmissibilityError, match="> 0"):
        eval_contour(np.diag([1.0, 0.5]), poly([1.0]))


def test_transfer_check_scalar_closed_form():
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    out = transfer_check(np.diag([0.5]), f)
    assert out["lhs"][0, 0] == pytest.approx(0.5 / 2.25, abs=1e-7)
    assert out["diff"] <= 1e-6


def test_transfer_check_builds_its_sector_contour_once(monkeypatch):
    calls = []
    build = stolz.sector_contour
    monkeypatch.setattr(stolz, "sector_contour", lambda *a: calls.append(a) or build(*a))
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    transfer_check(np.diag([0.5]), f)
    assert len(calls) == 1


@pytest.mark.parametrize("lams", [[0.5, 0.3j, -0.2], [1.0, 0.6j, -0.4]], ids=["plain", "one"])
def test_transfer_check_takes_the_spectrum_once(monkeypatch, spectra, lams):
    # the angle, the Stolz route's calculus and the sector's triangular
    # form share one ordered Schur form
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    monkeypatch.setattr(funcalc, "SECTOR_MESH",
                        stolz.MeshSpec(segment_panels=20, arc_panels=1, points_per_panel=6))
    transfer_check(ritt_instance(6, dim=3, lams=lams), f)
    assert spectra == {"eig": 0, "schur": 1}


def test_transfer_check_refusal_messages():
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    with pytest.raises(funcalc.ContourSpectrumError,
                       match="^spectrum lies in no Stolz closure$"):
        transfer_check(np.diag([0.5, -1.0]), f)
    for nu in (0.3, math.pi / 2):  # the type of 0.5i is pi/6
        with pytest.raises(funcalc.ContourSpectrumError, match=re.escape(
                f"sector angle nu={nu:.6g} must lie in (alpha, pi/2)")):
            transfer_check(np.diag([0.5j]), f, nu=nu)


def test_transfer_check_truncation_resolvent_is_the_lu_one(monkeypatch):
    # |zr| ||R(zr, A)||_2 comes from the sector's Schur form, not the LU kernel
    T = ritt_instance(3)
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 3, certificate=(1.0, 1.0))
    nu, r_max = 1.2, funcalc.SECTOR_R_MAX
    zr = r_max * cmath.exp(1j * nu)
    c_res = abs(zr) * np.linalg.norm(numlin.resolvents(np.eye(4) - T, [zr])[0], 2)
    mesh = stolz.MeshSpec(segment_panels=20, arc_panels=1, points_per_panel=6)
    want = c_res * stolz.sector_contour(nu, r_max, mesh).tail_factor(1.0)
    monkeypatch.setattr(numlin, "resolvents", None)
    monkeypatch.setattr(funcalc, "SECTOR_MESH", mesh)
    got = transfer_check(T, f, nu=nu)["truncation_estimate"]
    assert abs(got - want) <= 1e-14 * want


def test_a_node_within_the_spectrum_tolerance_is_refused():
    # an eigenvalue 6e-14 from a node: the rcond guard passes the node, the
    # separation check refuses it, on the Stolz contour and on the sector
    z0 = stolz.boundary_contour(0.6).nodes[150]
    T = np.diag([z0 * (1 - 6e-14 / abs(z0)), 0.3])
    with pytest.raises(funcalc.ContourSpectrumError, match=r"^quadrature node z=.* hits "
                       r"the spectrum tolerance \(distance 5\.995e-14\)$"):
        ContourCalculus(T, beta=0.6).apply(poly([0, 1, -1]))
    # an eigenvalue of I - T just inside the lower ray of the sector of angle 1
    nodes = stolz.sector_contour(1.0, funcalc.SECTOR_R_MAX, funcalc.SECTOR_MESH).nodes
    lower = nodes[:len(nodes) // 2]
    w = lower[np.argmin(np.abs(np.abs(lower) - 0.1))]
    T = np.diag([1 - w * cmath.exp(6e-14j / abs(w)), 0.3])
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    with pytest.raises(funcalc.ContourSpectrumError, match=r"^sector node z=.* hits "
                       r"the spectrum tolerance \(distance 6\.\d+e-14\)$"):
        transfer_check(T, f, nu=1.0)


def test_transfer_check_polynomial_route():
    f = poly([0, 0.5, -0.25], label="z(2-z)/4")
    out = transfer_check(np.diag([0.5]), f)
    assert out["lhs"][0, 0] == pytest.approx(0.1875, abs=1e-12)
    assert out["diff"] <= 1e-7


def test_hinf_norm_examples():
    assert hinf_norm(poly([0, 1]), math.pi / 4) == pytest.approx(1.0, abs=1e-10)
    g = math.pi / 4
    assert hinf_norm(poly([1, -1]), g) == pytest.approx(1 + math.sin(g), abs=1e-10)
    assert hinf_norm(poly([3.5]), 1.0) == pytest.approx(3.5)
    # unit-disc degenerate case
    assert hinf_norm(poly([0, 1]), math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_hinf_norm_refuses_an_angle_past_the_disc():
    # every angle >= pi/2 used to be read as the unit disc (this gave 1.0)
    with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
        hinf_norm(poly([0, 1]), 2.0)


def test_calculus_constant_refuses_an_angle_past_the_disc():
    with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
        calculus_constant(np.diag([0.5, 0.2]), 3.0, Hilbert(2), family=SMALL_FAMILY)


def test_calculus_constant_scalar_and_normal():
    fam = funcalc.default_test_family(seed=0, max_k=16, max_j=2, n_random=20,
                                      random_deg=8, n_fejer=4)
    val = calculus_constant(np.diag([0.5]), 0.9, Hilbert(1), family=fam)
    assert val == pytest.approx(1.0, abs=1e-10)
    Tn = np.diag([0.5, 0.3 + 0.1j, -0.1])  # normal, spectrum inside B(0.9)
    val = calculus_constant(Tn, 0.9, Hilbert(3), family=fam)
    assert val <= 1.0 + 1e-10


def test_calculus_constant_detects_nonnormality():
    T = 0.5 * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]])
    fam = funcalc.default_test_family(seed=0, max_k=8, max_j=1, n_random=5,
                                      random_deg=4, n_fejer=2)
    assert calculus_constant(T, 0.9, Hilbert(2), family=fam) > 1.0


def test_nevanlinna_diag_examples():
    out = nevanlinna_diag(np.diag([0.5]), poly([1, -1]), Hilbert(1), N=64)
    assert out["sup"] == pytest.approx(0.25, abs=1e-12)
    assert out["argmax_k"] in (1, 2)
    out0 = nevanlinna_diag(np.diag([0.5]), poly([0.0]), Hilbert(1), N=16)
    assert out0["sup"] == 0.0


def test_nevanlinna_diag_stability():
    T = ritt_instance(6, dim=3)
    a = nevanlinna_diag(T, poly([0, 1, -1]), Hilbert(3), N=200)["sup"]
    b = nevanlinna_diag(T, poly([0, 1, -1]), Hilbert(3), N=400)["sup"]
    assert abs(a - b) <= 1e-10 * (1 + a)


def test_contour_average_norm_bound():
    # |phi(T)| is controlled by the boundary average of |phi| |R|: the
    # convexity mechanism behind diagonal estimates, checked directly
    T = ritt_instance(7, dim=3)
    phi = poly([0, 1, -1])
    beta = math.pi / 4
    contour = stolz.boundary_contour(beta)
    I = np.eye(3, dtype=complex)
    bound = sum(w * abs(complex(phi(z))) *
                np.linalg.norm(numlin.solve(z * I - T, I), 2)
                for z, w in zip(contour.nodes, contour.weights)) / (2 * math.pi)
    val = np.linalg.norm(eval_contour(T, phi, beta=beta).value, 2)
    assert val <= bound * (1 + 1e-8)


def test_named_function_specs():
    assert np.allclose(named_function("poly:0,1").coeffs, [0, 1])
    f = named_function("frac:0.5")
    assert f.h0_certificate == (1.0, 0.5)
    assert named_function("one")(0.3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        named_function("nope")


def test_frac_power_fn_principal_branch():
    f = frac_power_fn(0.5)
    assert f(0.19).real == pytest.approx(0.9, abs=1e-12)
    assert f(0.19).imag == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("space", [Hilbert(3), numlin.SupSeq(3),
                                   numlin.LpWeighted(3.0, (1.0, 2.0, 0.5))],
                         ids=["hilbert", "sup", "lp3"])
def test_nevanlinna_diag_matches_power_list(monkeypatch, space):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 7 * 16 * 3 * 3)  # partial blocks
    T = ritt_instance(6, dim=3)
    phi = poly([0, 1, -1])
    phiT = eval_poly(T, phi)
    powers = numlin.mat_power_seq(T, 40)
    ref = [k * numlin.op_norm(phiT @ (powers[k] - powers[k - 1]), space).value
           for k in range(1, 41)]
    out = nevanlinna_diag(T, phi, space, N=40)
    assert abs(out["sup"] - max(ref)) <= 1e-12 * max(ref)
    assert out["argmax_k"] == 1 + int(np.argmax(ref))


def test_nevanlinna_diag_contour_route():
    # non-polynomial symbol goes through the boundary integral
    T = np.diag([0.5, 0.9])
    out = nevanlinna_diag(T, frac_power_fn(1.0), Hilbert(2), N=128, gamma=1.1)
    ref = nevanlinna_diag(T, poly([1, -1]), Hilbert(2), N=128, gamma=1.1)
    assert out["sup"] == pytest.approx(ref["sup"], abs=1e-7)


# the non-normal probe whose contour misses its quadrature target: beta one
# milli-radian above the spectral type, true error about 17.5
PROBE_T = np.array([[0.5 + 0.3j, 40.0], [0.0, 0.5 - 0.3j]])
PROBE_PHI = poly([0, 0, 1, -1])  # z^2 (1 - z)


def test_calc_report_flags_missed_quadrature_target():
    beta = ritt.spectral_type(PROBE_T) + 1e-3
    rep = eval_contour(PROBE_T, PROBE_PHI, beta=beta)
    assert not rep.converged
    assert rep.refine_rounds == funcalc.REFINE_ROUNDS
    assert np.linalg.norm(rep.value - eval_poly(PROBE_T, PROBE_PHI), 2) > rep.error_estimate
    d = rep.to_json_dict()
    assert d["converged"] is False and d["refine_rounds"] == funcalc.REFINE_ROUNDS
    ok = eval_contour(T_TRI, poly([0, 1, -1]), beta=math.pi / 4)
    assert ok.converged and 1 <= ok.refine_rounds <= funcalc.REFINE_ROUNDS


def _conditioned(seed, lams, vcond):
    """V diag(lams) V^-1 with cond(V) = vcond."""
    rng = np.random.default_rng(seed)
    n = len(lams)
    Q1 = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    V = Q1 @ np.diag(np.geomspace(1.0, vcond, n)) @ Q2
    return V @ np.diag(np.asarray(lams, dtype=complex)) @ np.linalg.inv(V)


#: Jordan-like, non-normal, ill-conditioned and split-eigenvalue-1 operators
CONTOUR_CASES = {
    "jordan3": 0.5 * np.eye(3) + np.diag([1.0, 1.0], 1),
    "shifted-nilpotent": 0.5 * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]]),
    "vcond50-dim6": _conditioned(5, [0.7, 0.3 + 0.2j, 0.3 - 0.2j, -0.2, 0.1, 0.4j], 50.0),
    "split-one": _conditioned(6, [1.0, 0.6, 0.2 + 0.3j, -0.3], 5.0),
}


def _mp_matrix_function(T, num, den=None):
    """num(T) den(T)^-1 (ascending coefficients) in 40-digit arithmetic."""
    import mpmath

    n = T.shape[0]
    with mpmath.workdps(40):
        A = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in T])

        def horner(c):
            out = mpmath.zeros(n, n)
            for ck in c[::-1]:
                out = out * A + mpmath.mpc(complex(ck)) * mpmath.eye(n)
            return out

        val = horner(num) if den is None else horner(num) * horner(den) ** -1
        return np.array(val.tolist(), dtype=complex)


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_matches_a_40_digit_oracle(name):
    # polynomials vanishing at 1 and the rational (1 - z) / (2.5 - z),
    # |phi| <= |1 - z| / 1.5 on the disc, against exact evaluation at T
    T = CONTOUR_CASES[name]
    c = np.array([0.0, 0.4 - 0.3j, -1.2, 0.5j, 0.7])
    c[0] = -c.sum()
    cases = [(c, None), (np.convolve([0, 0, 0, 1.0], [1.0, -2.0, 1.0]), None),
             (np.array([1.0, -1.0]), np.array([2.5, -1.0]))]
    calc = ContourCalculus(T)
    for num, den in cases:
        if den is None:
            phi = poly(num)
        else:
            phi = funcalc.rational(num, den)
            phi.h0_certificate = (1.0 / 1.5, 1.0)
        rep = calc.apply(phi)
        oracle = _mp_matrix_function(T, num, den)
        err = np.linalg.norm(rep.value - oracle, 2) / np.linalg.norm(oracle, 2)
        assert rep.converged and err <= 1e-9, (name, phi.label, err)


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_sums_match_the_lu_route(name):
    # the Schur-coordinate sum of every level against the same quadrature
    # over the stacked LU resolvents of the operator under the contour, T - P
    T = CONTOUR_CASES[name]
    c = np.array([0.0, 0.4 - 0.3j, -1.2, 0.5j, 0.7])
    c[0] = -c.sum()
    phi = poly(c)
    calc = ContourCalculus(T)
    A = calc.T if calc._P is None else calc.T - calc._P
    for k in range(3):
        contour, X = calc._level(k)
        coeff = contour.weights * contour.tangents * phi(contour.nodes) / (2j * math.pi)
        lu = np.tensordot(coeff, numlin.resolvents(A, contour.nodes), axes=(0, 0))
        got = funcalc._cauchy_sum(calc._Q, contour, X, phi)
        assert np.linalg.norm(got - lu, 2) <= 1e-12 * np.linalg.norm(lu, 2), (name, k)


def test_contour_near_singular_node_is_loud():
    # the pseudospectrum of a large Jordan block reaches the contour
    J = np.array([[0.5, 1e9], [0.0, 0.5]])
    with pytest.raises(funcalc.ContourSpectrumError, match="rcond") as exc:
        ContourCalculus(J, beta=math.pi / 4).apply(poly([0, 1, -1]))
    assert exc.value.rcond < numlin.RCOND_MIN
    assert exc.value.node is not None and f"{exc.value.node:.6g}" in str(exc.value)


def test_sector_node_on_eigenvalue_is_loud():
    mesh = stolz.MeshSpec(segment_panels=4, arc_panels=1, points_per_panel=4)
    contour = stolz.sector_contour(1.0, 10.0, mesh)
    node = complex(contour.nodes[5])
    U = np.diag([node, 2.0])  # triangular, in the Schur form with Q = I
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    with pytest.raises(funcalc.ContourSpectrumError, match="rcond") as exc:
        funcalc._sector_quad(U, np.eye(2), f, contour, 10.0 * np.exp(1j))
    assert exc.value.node == node
    assert exc.value.rcond < numlin.RCOND_MIN


# ---------------------------------------------------------------------------
# boundary sup-norms against the scalar reference
#
# A verbatim copy of the per-point boundary sup-norm this module replaced:
# one scalar closure call per boundary point, three pieces each with their
# own grid and golden-section polish, a separate unit-disc case.  Only the
# names carry a _ref_ prefix.  Polynomials go in as _ref_horner closures so
# the reference shares no evaluator with the code under test.
# ---------------------------------------------------------------------------


def _ref_horner(coeffs: np.ndarray):
    def ev(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in coeffs[::-1]:
            out = out * z + c
        return out if out.shape else complex(out)

    return ev


def _ref_golden_max(fun, lo: float, hi: float, rounds: int = 60):
    phi_ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi_ratio * (b - a)
    d = a + phi_ratio * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(rounds):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi_ratio * (b - a)
            fd = fun(d)
        else:
            b, d, fd = d, c, fc
            c = b - phi_ratio * (b - a)
            fc = fun(c)
    return max(fc, fd)


def _ref_boundary_sup(scalar_fun, gamma: float, per_piece: int) -> float:
    if gamma >= math.pi / 2:  # degenerate case: the unit disc
        fun = lambda t: scalar_fun(cmath.exp(1j * t))
        ts = np.linspace(0.0, 2 * math.pi, 4 * per_piece, endpoint=False)
        vals = [fun(t) for t in ts]
        i = int(np.argmax(vals))
        lo, hi = ts[i] - 2 * math.pi / (4 * per_piece), ts[i] + 2 * math.pi / (4 * per_piece)
        return max(max(vals), _ref_golden_max(fun, lo, hi))

    tp, tm = stolz.tangent_points(gamma)
    best = 0.0
    pieces = [
        lambda s: 1.0 + s * (tp - 1.0),
        lambda s: 1.0 + s * (tm - 1.0),
    ]
    # cluster parameters toward the vertex (s = 0)
    s_grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, per_piece),
        np.geomspace(1e-12, 1.0, per_piece // 2),
    ]))
    for param in pieces:
        fun = lambda s: scalar_fun(param(s))
        vals = [fun(s) for s in s_grid]
        i = int(np.argmax(vals))
        lo = s_grid[max(i - 1, 0)]
        hi = s_grid[min(i + 1, len(s_grid) - 1)]
        best = max(best, max(vals), _ref_golden_max(fun, lo, hi))
    r = math.sin(gamma)
    th = np.linspace(math.pi / 2 - gamma, 3 * math.pi / 2 + gamma, 2 * per_piece)
    fun = lambda t: scalar_fun(r * cmath.exp(1j * t))
    vals = [fun(t) for t in th]
    i = int(np.argmax(vals))
    lo = th[max(i - 1, 0)]
    hi = th[min(i + 1, len(th) - 1)]
    best = max(best, max(vals), _ref_golden_max(fun, lo, hi))
    return best


def _ref_hinf_norm(phi, gamma: float, per_piece: int = 512) -> float:
    fn = phi if callable(phi) else _ref_horner(np.asarray(phi, dtype=complex))
    return _ref_boundary_sup(lambda z: abs(complex(fn(z))), gamma, per_piece)


def _ref_hinf_vector_norm(phis, gamma: float, per_piece: int = 512) -> float:
    def fun(z):
        return math.sqrt(sum(abs(complex(p(z))) ** 2 for p in phis))

    return _ref_boundary_sup(fun, gamma, per_piece)


def _ref_hinf_matrix_norm(phi_matrix, gamma: float, per_piece: int = 256) -> float:
    rows = len(phi_matrix)

    def fun(z):
        F = np.array([[complex(phi_matrix[l][j](z)) for j in range(rows)]
                      for l in range(rows)])
        return float(np.linalg.norm(F, 2))

    return _ref_boundary_sup(fun, gamma, per_piece)


def _ref_fn(phi):
    """phi as the reference evaluates it: polynomials by _ref_horner."""
    return _ref_horner(phi.coeffs) if phi.kind == "polynomial" else phi


GAMMAS = (math.pi / 4, math.pi / 3, 0.9, 1.2, math.pi / 2)
SMALL_FAMILY = funcalc.default_test_family(seed=0, max_k=4, max_j=2, n_random=4,
                                           random_deg=8, n_fejer=2)[::2]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_hinf_norm_and_calculus_constant_match_the_scalar_reference(gamma):
    fam = SMALL_FAMILY + [poly([0.0]), poly([2.5 - 1j]), [0.3, -1.0, 0.0, 0.7j]]
    ref = [_ref_hinf_norm(_ref_fn(p) if callable(p) else p, gamma, per_piece=256)
           for p in fam]
    assert [hinf_norm(p, gamma, per_piece=256) for p in fam] == ref
    T = ritt_instance(11, dim=3)
    # the stacked op_norms of calculus_constant against one op_norm a member
    for space in (Hilbert(3), numlin.LpWeighted(3.0, (1.0, 2.0, 0.5)), numlin.SupSeq(3)):
        ref_K = 0.0
        for phi, denom in zip(fam, ref):
            if denom > 0:
                ref_K = max(ref_K, numlin.op_norm(eval_poly(T, phi), space).value / denom)
        assert calculus_constant(T, gamma, space, family=fam) == ref_K, space


@pytest.mark.parametrize("gamma", GAMMAS)
def test_closures_and_vector_and_matrix_norms_match_the_scalar_reference(monkeypatch, gamma):
    def close(a, b):
        assert abs(a - b) <= 1e-12 * abs(b)

    for phi in (funcalc.rational([1.0, 0.5j], [2.0, -0.3]),
                funcalc.rational([0.0, 1.0, -1.0], [1.0, 0.4 + 0.1j]),
                frac_power_fn(0.5), frac_power_fn(1.7)):
        close(hinf_norm(phi, gamma, per_piece=64), _ref_hinf_norm(phi, gamma, per_piece=64))
    rng = np.random.default_rng(8)
    phis = [poly(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)]
    mixed = phis[:2] + [frac_power_fn(0.5)]
    monkeypatch.setattr(funcalc, "VECTOR_PER_PIECE", 64)
    monkeypatch.setattr(funcalc, "MATRIX_PER_PIECE", 64)
    for fam in (phis, mixed):
        close(funcalc.hinf_vector_norm(fam, gamma),
              _ref_hinf_vector_norm([_ref_fn(p) for p in fam], gamma, per_piece=64))
    for mat in ([[phis[0], phis[1]], [phis[2], poly([1.0])]], [[mixed[2]]],
                [[mixed[0], mixed[2]], [mixed[1], mixed[0]]]):
        close(funcalc.hinf_matrix_norm(mat, gamma),
              _ref_hinf_matrix_norm([[_ref_fn(p) for p in row] for row in mat], gamma,
                                    per_piece=64))


@pytest.mark.parametrize("gamma", (math.pi / 3, math.pi / 2))
def test_family_sup_is_batch_invariant(gamma):
    # a polynomial gets the same bits alone as inside any family
    fam = funcalc.default_test_family(seed=3, max_k=8, max_j=2, n_random=12,
                                      random_deg=20, n_fejer=4)
    alone = np.array([hinf_norm(p, gamma, per_piece=64) for p in fam])

    def family_sup(members):
        ev = funcalc._poly_stack(members)
        return funcalc._boundary_sup(lambda z: funcalc._modulus(ev, z), gamma, 64)

    assert np.array_equal(family_sup(fam), alone)
    order = np.random.default_rng(0).permutation(len(fam))
    assert np.array_equal(family_sup([fam[i] for i in order]), alone[order])
    for lo, hi in ((0, 1), (5, 9), (len(fam) - 3, len(fam))):
        assert np.array_equal(family_sup(fam[lo:hi]), alone[lo:hi])


def test_samplers_are_built_from_boundary_param(monkeypatch):
    for gamma in (0.4, math.pi / 2):
        pieces = stolz.boundary_param(gamma, 16)
        assert np.array_equal(stolz.boundary_samples(gamma, 16),
                              np.concatenate([point(grid) for grid, point, _ in pieces]))
        assert [wraps for _, _, wraps in pieces] == ([True] if gamma == math.pi / 2
                                                     else [False] * 3)
    s = stolz.boundary_param(0.4, 16)[0][0]
    assert s[0] == 0.0 and s[1] == 1e-12 and s[-1] == 1.0  # the vertex cluster kept
    calls = []
    orig = stolz.boundary_param

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(stolz, "boundary_param", counted)
    ritt.resolvent_sample_points(np.diag([0.5]), 0.4, per_piece=8)
    assert calls == [(0.4, 8)]
    hinf_norm(poly([1.0, -1.0]), 0.4, per_piece=8)
    calculus_constant(np.diag([0.5]), 0.4, Hilbert(1), family=SMALL_FAMILY)
    assert calls == [(0.4, 8), (0.4, 8), (0.4, 256)]


def test_calculus_constant_default_family_runtime_budget():
    T = verify.random_ritt(np.random.default_rng(3), 8)
    t0 = time.perf_counter()
    K = calculus_constant(T, math.pi / 3, Hilbert(8))
    elapsed = time.perf_counter() - t0
    assert K >= max(1.0, np.linalg.norm(T, 2)) * (1 - 1e-12)
    assert elapsed < 3.0, f"calculus_constant took {elapsed:.2f}s (budget 3s)"


def test_matrix_norm_rejects_a_non_square_phi_matrix():
    one, zero, big = poly([1.0]), poly([0.0]), poly([100.0])
    with pytest.raises(ValueError, match="square"):
        funcalc.hinf_matrix_norm([[one, zero, big], [zero, one, big]], 1.2)
    with pytest.raises(ValueError, match="square"):
        funcalc.hinf_matrix_norm([[one, zero], [one]], 1.2)
    with pytest.raises(ValueError, match="square"):
        funcalc.hinf_matrix_norm([], 1.2)


def test_a_nan_on_the_boundary_raises(monkeypatch):
    # (z - z^2) / (1 - z) is 0/0 at the vertex z = 1, which every Stolz grid holds
    phi = funcalc.rational([0.0, 1.0, -1.0], [1.0, -1.0])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="nan"):
        hinf_norm(phi, math.pi / 3)
    monkeypatch.setattr(funcalc, "VECTOR_PER_PIECE", 64)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="nan"):
        funcalc.hinf_vector_norm([poly([1.0]), phi], math.pi / 3)


def test_nevanlinna_diag_skips_the_spectral_type_when_gamma_is_given(monkeypatch):
    calls = []
    orig = ritt.spectral_type
    monkeypatch.setattr(ritt, "spectral_type", lambda T: calls.append(1) or orig(T))
    out = nevanlinna_diag(np.diag([0.5]), poly([1, -1]), Hilbert(1), N=8, gamma=1.1)
    assert calls == [] and out["gamma"] == 1.1
    nevanlinna_diag(np.diag([0.5]), poly([1, -1]), Hilbert(1), N=8)
    assert calls == [1]
