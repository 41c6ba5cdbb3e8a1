import math

import numpy as np
import pytest

from rittcalc import funcalc, lab, numlin, ritt, sqfun
from rittcalc.numlin import Hilbert


def ritt_instance(seed, dim=4):
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.1, 0.9, size=dim)
    V = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return V @ np.diag(lams.astype(complex)) @ np.linalg.inv(V)


# -- identities ---------------------------------------------------------------

def test_kp1_small():
    assert lab.kp1_identity(1) == (1, 1)
    assert lab.kp1_identity(3) == (10, 10)


def test_kp1_large_exact_bigint():
    k = 10 ** 4
    lhs, rhs = lab.kp1_identity(k)
    assert lhs == rhs == k * (k + 1) * (k + 2) // 6
    assert isinstance(lhs, int)


def test_partial_sum_identity_random():
    rng = np.random.default_rng(0)
    T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = lab.partial_sum_identity(T, 50)
    assert out["relative"] <= 1e-10


def test_partial_sum_identity_trivial():
    assert lab.partial_sum_identity(np.eye(2), 17)["residual"] == 0.0
    # T = 0, N >= 2: only k = 1 survives on the left: 2I; right is 2I too
    assert lab.partial_sum_identity(np.zeros((2, 2)), 2)["residual"] == 0.0


def test_partial_sum_identity_growing_powers():
    rng = np.random.default_rng(1)
    T = 2.0 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    out = lab.partial_sum_identity(T, 200)
    assert out["relative"] <= 1e-10  # algebraic, not analytic


def test_decomp_convergence_scalar():
    # closed form: sum k(k+1) t^(k-1) (1-t)^3 = 2 for |t| < 1
    out = lab.decomp_convergence(np.array([[0.5 + 0j]]), [1.0], [40, 80])
    assert out[40] <= 1e-9 and out[80] <= 1e-15


def test_decomp_convergence_T0():
    x = np.array([0.3, -0.7])
    out = lab.decomp_convergence(np.zeros((2, 2)), x, [1])
    assert out[1] <= 1e-15


def test_decomp_convergence_diag_example():
    T = np.diag([0.5, 0.9])
    x = (np.eye(2) - T) @ np.array([1.0, 1.0])
    out = lab.decomp_convergence(T, x, [50, 200])
    assert out[200] <= 1e-7
    assert out[200] < out[50]


def test_decomp_convergence_rejects_kernel_component():
    T = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="Ker"):
        lab.decomp_convergence(T, np.array([1.0, 1.0]), [10])


# -- similarity ---------------------------------------------------------------

def test_similarity_diagonal():
    rep = lab.similarity_builder(np.diag([0.9, 0.5]))
    assert rep.contraction_norm <= 1.0 + 1e-8


def test_similarity_noncontractive_instance():
    T = 0.5 * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]])
    assert np.linalg.norm(T, 2) > 10
    rep = lab.similarity_builder(T)
    assert rep.contraction_norm <= 1.0 + 1e-8
    assert rep.equivalence_constants[0] > 0


def test_similarity_with_eigenvalue_one():
    rep = lab.similarity_builder(np.diag([1.0, 0.5]))
    assert rep.contraction_norm <= 1.0 + 1e-8
    # V acts as the identity on Ker(I-T)
    assert abs(rep.V[0, 0] - 1.0) <= 1e-10


def test_similarity_equivalence_constants_bracket():
    T = ritt_instance(2)
    rep = lab.similarity_builder(T)
    P = ritt.mean_ergodic_projection(T)
    lo, hi = rep.equivalence_constants
    rng = np.random.default_rng(3)
    cfg = sqfun.SFConfig(tail_tol=1e-12)
    for _ in range(100):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        tri = math.sqrt(np.linalg.norm(P @ x) ** 2 +
                        sqfun.square_function(T, x, Hilbert(4), cfg).value ** 2)
        nx = np.linalg.norm(x)
        assert lo * nx - 1e-10 * (1 + tri) <= tri <= hi * nx + 1e-10 * (1 + tri)


def test_similarity_tuple_equivalence():
    # Rademacher tuples on Ran(I-T) inherit the same two-sided constants
    T = ritt_instance(4)
    rep = lab.similarity_builder(T)
    lo, hi = rep.equivalence_constants
    rng = np.random.default_rng(5)
    cfg = sqfun.SFConfig(tail_tol=1e-12)
    xs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
    rad = sqfun.rad_norm(xs, Hilbert(4)).value
    sq = math.sqrt(sum(sqfun.square_function(T, x, Hilbert(4), cfg).value ** 2
                       for x in xs))
    assert lo * rad * (1 - 1e-9) - 1e-9 <= sq <= hi * rad * (1 + 1e-9) + 1e-9


# -- pairing bound ------------------------------------------------------------

def test_pairing_bound_matches_power_list(monkeypatch):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 9 * 16 * 3 * 3)  # partial blocks
    T = ritt_instance(12, dim=3)
    phi = funcalc.poly([1, -2, 1])
    x, y = np.array([1.0, 0.5, -1.0]), np.array([0.2, 1.0, 1.0j])
    out = lab.pairing_bound_check(T, phi, x, y, N=50)
    phiT = funcalc.eval_poly(T, phi)
    powers = numlin.mat_power_seq(T, 50)
    A = np.eye(3) - T
    ref = max((k + 1) * np.linalg.norm(phiT @ powers[k - 1] @ A, 2) for k in range(1, 51))
    assert abs(out["rhs_factors"][0] - ref) <= 1e-12 * ref
    assert out["holds"]


def test_pairing_bound_zero_phi():
    out = lab.pairing_bound_check(np.diag([0.5]), funcalc.poly([0.0]),
                                  [1.0], [1.0])
    assert out["lhs"] == 0.0 and out["holds"]


def test_pairing_bound_scalar_series():
    out = lab.pairing_bound_check(np.array([[0.5 + 0j]]), funcalc.poly([1, -1]),
                                  [1.0], [1.0])
    assert out["lhs"] == pytest.approx(0.5)
    # factor oracle: sup_k (k+1) 0.5^(k+1) = 0.5 at k = 1, ||x||_{T,1} = 2/3
    f1, f2, f3 = out["rhs_factors"]
    assert f1 == pytest.approx(0.5, abs=1e-12)
    assert f2 == pytest.approx(2.0 / 3.0, abs=1e-10)
    psi_half = (1 + 0.5 + 0.25) ** 3 / 2.0
    assert f3 == pytest.approx(psi_half * 2.0 / 3.0, abs=1e-9)
    assert out["holds"]


def test_pairing_bound_random():
    rng = np.random.default_rng(6)
    T = ritt_instance(7)
    out = lab.pairing_bound_check(T, funcalc.poly([0, 1, -1]),
                                  rng.normal(size=4), rng.normal(size=4))
    assert out["holds"] and out["margin"] >= 0
    with pytest.raises(ValueError, match="vanish"):
        lab.pairing_bound_check(T, funcalc.poly([1.0]), np.ones(4), np.ones(4))


# -- galleries ----------------------------------------------------------------

def test_gallery_schur_all_ones_is_identity():
    inst = lab.gallery_schur(np.ones((3, 3)), p=3.0)
    assert np.allclose(inst.operator, np.eye(9))
    assert inst.params["delta"] == pytest.approx(2.0)


def test_gallery_schur_diagonal_pattern():
    inst = lab.gallery_schur(np.eye(3), p=3.0)
    r = numlin.op_norm(inst.operator, inst.space)
    assert r.value >= 1.0 - 1e-9  # the projection attains 1 on diagonal matrices


def test_gallery_schur_ritt_spectrum():
    rng = np.random.default_rng(8)
    t = np.cos(rng.uniform(0, math.pi, size=(4, 4)))
    t = np.clip(t, -0.9, 1.0)
    inst = lab.gallery_schur(t, p=2.0)
    alpha = ritt.spectral_type(inst.operator)
    assert alpha < math.pi / 2


def test_gallery_schur_validates():
    with pytest.raises(ValueError):
        lab.gallery_schur(np.full((2, 2), 1.5), p=2.0)


def test_gallery_markov_certificates():
    inst = lab.gallery_markov(3, seed=11)
    c = inst.certificates
    assert c["unital_residual"] <= 1e-12
    assert c["trace_residual"] <= 1e-12
    assert c["selfadjoint_residual"] <= 1e-10
    assert c["choi_min_eigenvalue"] >= -1e-10
    lo, hi = c["spectrum_real_interval"]
    assert -1.0 - 1e-9 <= lo <= hi <= 1.0 + 1e-9


def test_gallery_markov_single_unitary(monkeypatch):
    monkeypatch.setattr(lab, "MARKOV_UNITARIES", 1)
    inst = lab.gallery_markov(2, seed=0)
    L = inst.operator
    assert L.shape == (4, 4)
    assert inst.certificates["unital_residual"] <= 1e-12
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    PhiX = (L @ X.reshape(-1)).reshape(2, 2)
    assert np.trace(PhiX) == pytest.approx(np.trace(X))
    # symmetrized conjugation by a single unitary has operator norm 1 on
    # the trace space
    assert np.linalg.norm(L, 2) == pytest.approx(1.0, abs=1e-12)


def test_gallery_markov_flip_flagged():
    inst = lab.gallery_markov_flip()
    assert any("minus-one" in f for f in inst.flags)
    rep = ritt.ritt_verdict(inst.operator, inst.space, ritt.RittConfig(N=64))
    assert rep.verdict == "not-ritt"


# -- growth witness -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 4, 9])
def test_c0_growth_witness_lower_bound(n):
    out = lab.c0_growth_witness(n)
    assert out["ratio"] >= out["lower_bound"]
    assert out["achieved_covering_constant"] <= 2.0


def test_c0_growth_witness_growth():
    r1 = lab.c0_growth_witness(1)["ratio"]
    r4 = lab.c0_growth_witness(4)["ratio"]
    r9 = lab.c0_growth_witness(9)["ratio"]
    assert r4 >= 1.9 * r1 and r9 >= 1.5 * r1
    # sqrt(n) growth on the test grid
    assert r9 == pytest.approx(3.0 * r1, rel=1e-12)


def test_c0_growth_witness_caps():
    with pytest.raises(ValueError):
        lab.c0_growth_witness(13)


# -- conditional basis analog -------------------------------------------------

def test_conditional_basis_orthonormal_case():
    out = lab.conditional_basis_demo(8, 1.0)
    assert out["contraction_norm"] <= 1.0 + 1e-8
    assert out["sf_constant"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert out["equivalence_ratio"] < 2.0


def test_conditional_basis_blowup():
    out = lab.conditional_basis_demo(8, 1e3)
    assert out["kappa_achieved"] == pytest.approx(1e3, rel=1e-6)
    assert out["equivalence_ratio"] >= 1e2
    assert out["contraction_norm"] <= 1.0 + 1e-8
    # the reverse constant never crosses the finite-size floor
    assert out["lambda_min_M"] >= out["lambda_min_floor"] - 1e-12


@pytest.mark.parametrize("kappa", [1.0, 10.0, 1e3, 1e6])
def test_conditional_basis_takes_one_spectrum(monkeypatch, kappa):
    # the similarity renorming's Gram series also gives sf_constant, bit for bit
    seen = []
    spectrum = ritt._spectrum
    monkeypatch.setattr(ritt, "_spectrum", lambda T: seen.append(T) or spectrum(T))
    out = lab.conditional_basis_demo(8, kappa)
    assert len(seen) == 1
    monkeypatch.undo()
    assert out["sf_constant"] == sqfun.sf_constant(seen[0], 1, Hilbert(8))


@pytest.mark.parametrize("kappa", [0.5, math.nan, math.inf])
def test_conditional_basis_rejects_a_kappa_below_one_or_not_finite(kappa):
    # NaN and inf used to reach an SVD that did not converge
    with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
        lab.conditional_basis_demo(8, kappa)


def test_conditional_basis_trend_monotone():
    ratios = [lab.conditional_basis_demo(8, k)["equivalence_ratio"]
              for k in (1.0, 10.0, 100.0, 1000.0)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_conditional_basis_floor_is_genuine():
    # the forward constant carries the blowup at fixed size: sf grows with
    # kappa while lambda_min stays above the floor (see module docstring)
    out1 = lab.conditional_basis_demo(8, 1.0)
    out2 = lab.conditional_basis_demo(8, 1e3)
    assert out2["sf_constant"] > 10 * out1["sf_constant"]
    assert out2["lambda_min_M"] >= out2["lambda_min_floor"]
