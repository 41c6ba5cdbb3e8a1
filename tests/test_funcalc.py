import math

import numpy as np
import pytest

from rittcalc import funcalc, numlin, ritt, stolz
from rittcalc.funcalc import (ContourCalculus, calculus_constant, eval_contour,
                              eval_poly, evenodd_split, frac_power,
                              frac_power_eig, frac_power_fn, hinf_norm,
                              named_function, nevanlinna_diag, poly,
                              scaled_calculus, scaling_convergence,
                              transfer_check)
from rittcalc.numlin import Hilbert

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
        if stolz.contains(math.pi / 4, z):
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


def test_scaled_calculus():
    rep = scaled_calculus(np.diag([0.5]), poly([0, 1]), 0.9)
    assert rep.value[0, 0] == pytest.approx(0.45, abs=1e-10)
    errs = scaling_convergence(np.diag([0.5]), poly([0, 1, -1]))
    vals = [errs[r] for r in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2]
    r = 0.9999
    close = scaling_convergence(np.diag([0.5]), poly([0, 1, -1]), rs=(r,))
    assert close[r] <= 1e-6


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


def test_evenodd_split_examples():
    p1, p2 = evenodd_split(poly([0, 0, 0, 1]))  # z^3
    assert np.allclose(p1.coeffs, [0, 0]) and np.allclose(p2.coeffs, [0, 1])
    p1, p2 = evenodd_split(poly([1, 1, 1]))  # 1 + z + z^2
    assert np.allclose(p1.coeffs, [1, 1]) and np.allclose(p2.coeffs, [1])


def test_evenodd_split_reconstruction_and_maxmodulus():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = rng.normal(size=10) + 1j * rng.normal(size=10)
        phi = poly(c)
        p1, p2 = evenodd_split(phi)
        # coefficientwise exact reconstruction
        rec = np.zeros(10, dtype=complex)
        rec[0::2] = p1.coeffs
        rec[1::2] = p2.coeffs
        assert np.array_equal(rec, c)
        h = hinf_norm(phi, math.pi / 2)
        assert hinf_norm(p1, math.pi / 2) <= h + 1e-9
        assert hinf_norm(p2, math.pi / 2) <= h + 1e-9


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
    A = np.diag([node, 2.0])
    f = funcalc.from_callable(lambda z: z / (1 + z) ** 2, certificate=(1.0, 1.0))
    with pytest.raises(funcalc.ContourSpectrumError, match="rcond") as exc:
        funcalc._sector_quad(A, f, contour)
    assert exc.value.node == node
    assert exc.value.rcond < numlin.RCOND_MIN
