import mpmath
import numpy as np
import pytest

from rittcalc import numlin, ritt
from rittcalc.numlin import (Hilbert, LpWeighted, SchattenP, SupSeq, dual,
                             eig, mat_power_seq, op_norm, solve, svd, vec_norm)


def test_eig_diagonal():
    s = eig(np.diag([0.5, 0.2]))
    assert np.allclose(s.eigenvalues, [0.5, 0.2])


def test_eig_nilpotent():
    s = eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(s.eigenvalues, [0.0, 0.0])


def test_eig_residuals_random():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    s = eig(M, vectors=True)
    for lam, v in zip(s.eigenvalues, s.eigenvectors.T):
        assert np.linalg.norm(M @ v - lam * v) <= 1e-10 * np.linalg.norm(v)


def test_eig_ordering_deterministic():
    M = np.diag([0.1, 0.9, 0.5 + 0.2j, 0.5 - 0.2j])
    w = eig(M).eigenvalues
    assert np.allclose(w, [0.9, 0.5 + 0.2j, 0.5 - 0.2j, 0.1])


def test_eig_rejects_nonsquare():
    with pytest.raises(numlin.ShapeError):
        eig(np.ones((2, 3)))


def test_solve_identity_and_diag():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(solve(np.eye(2), B), B)
    assert np.allclose(solve(np.diag([2.0]), np.array([[1.0]])), [[0.5]])


def test_solve_residual_well_conditioned():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 4 * np.eye(8)
    B = rng.normal(size=(8, 3))
    X = solve(M, B)
    assert np.linalg.norm(M @ X - B) <= 1e-12 * np.linalg.norm(B)


def test_solve_singular_raises_with_cond():
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(numlin.SingularMatrixError) as exc:
        solve(M, np.eye(2))
    assert exc.value.cond_estimate > 1e13


def test_svd_examples():
    assert np.allclose(svd(np.ones((2, 2))), [2.0, 0.0])
    assert np.allclose(svd(np.eye(4)), np.ones(4))


def test_svd_reconstruction():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    s, U, Vh = svd(M, factors=True)
    assert np.linalg.norm(M - (U[:, :3] * s) @ Vh) <= 1e-10


def test_vec_norm_examples():
    assert vec_norm([3.0, 4.0], Hilbert(2)) == pytest.approx(5.0)
    assert vec_norm([1.0, 1.0], LpWeighted(2.0, (1.0, 1.0))) == pytest.approx(np.sqrt(2))
    assert vec_norm(np.ones((2, 2)), SchattenP(3.0, 2)) == pytest.approx(2.0)
    assert vec_norm([1.0, -2.0, 0.5], SupSeq(3)) == pytest.approx(2.0)


def test_vec_norm_frobenius_consistency():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = vec_norm(x, SchattenP(2.0, 3))
    b = vec_norm(x.reshape(-1), Hilbert(9))
    assert abs(a - b) <= 1e-12 * (1 + b)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
def test_op_norm_diagonal_on_lp(p):
    r = op_norm(np.diag([2.0, 1.0]), LpWeighted(p, (1.0, 1.0)))
    assert r.value == pytest.approx(2.0, abs=1e-9)
    assert r.value <= r.upper + 1e-12


@pytest.mark.parametrize("space", [Hilbert(3), LpWeighted(3.0, (1.0, 2.0, 0.5)),
                                   SupSeq(3)])
def test_op_norm_identity(space):
    assert op_norm(np.eye(3), space).value == pytest.approx(1.0, abs=1e-10)


def test_op_norm_identity_schatten():
    assert op_norm(np.eye(4), SchattenP(3.0, 2)).value == pytest.approx(1.0, abs=1e-9)


def test_op_norm_hilbert_matches_svd():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r = op_norm(M, Hilbert(4))
    assert r.exact
    assert abs(r.value - svd(M)[0]) <= 1e-12


def test_op_norm_bracket_and_witness():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(3, 3))
    space = LpWeighted(3.0, (1.0, 1.0, 1.0))
    r = op_norm(M, space)
    assert r.value <= r.upper + 1e-12
    # lower bound is attained by the reported witness
    attained = vec_norm(M @ r.witness, space) / vec_norm(r.witness, space)
    assert attained >= r.value * (1 - 1e-9)


def test_mat_power_seq_examples():
    Z = mat_power_seq(np.zeros((2, 2)), 3)
    assert np.allclose(Z[0], np.eye(2)) and all(np.allclose(P, 0) for P in Z[1:])
    assert all(np.allclose(P, np.eye(2)) for P in mat_power_seq(np.eye(2), 4))
    P = mat_power_seq(np.diag([0.5]), 10)
    assert P[10][0, 0] == pytest.approx(2.0 ** -10)


def test_mat_power_seq_overflow_reported():
    with pytest.raises(numlin.PowerOverflow) as exc:
        mat_power_seq(np.diag([1e300]), 3)
    assert exc.value.n == 2


@pytest.mark.parametrize("block_len", [1, 7, 40])
def test_power_blocks_bit_identical_to_mat_power_seq(monkeypatch, block_len):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", block_len * 16 * 3 * 3)
    rng = np.random.default_rng(4)
    T = 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    ref = mat_power_seq(T, 30)
    starts, got = zip(*numlin.power_blocks(T, 30))
    assert list(starts) == list(range(0, 31, block_len))
    assert max(len(P) for P in got) == min(block_len, 31)
    assert np.array_equal(np.concatenate(got), np.array(ref))
    inc = [(n, D) for ns, Ds in numlin.increment_blocks(T, 30) for n, D in zip(ns, Ds)]
    assert [n for n, _ in inc] == list(range(1, 31))
    assert all(np.array_equal(D, ref[n] - ref[n - 1]) for n, D in inc)


def test_is_exact_model():
    exact = [Hilbert(2), SupSeq(2), SchattenP(2.0, 2)]
    approx = [LpWeighted(3.0, (1.0, 1.0)), SchattenP(3.0, 2), SchattenP(1.0, 2)]
    assert all(numlin.is_exact_model(s) for s in exact)
    assert not any(numlin.is_exact_model(s) for s in approx)
    M = np.array([[0.5, 0.2], [0.1, 0.3]])
    for s in exact + approx:
        dim = numlin.space_dim(s)
        A = np.kron(M, np.eye(dim // 2)) if dim != 2 else M
        assert op_norm(A, s).exact == numlin.is_exact_model(s)


def test_dual_models():
    assert dual(Hilbert(3)) == Hilbert(3)
    d = dual(LpWeighted(3.0, (1.0, 2.0)))
    assert d.p == pytest.approx(1.5) and d.weights == (1.0, 2.0)
    assert dual(SchattenP(4.0, 2)).p == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        dual(SupSeq(2))
    with pytest.raises(ValueError):
        dual(SchattenP(1.0, 2))


def test_space_validation():
    with pytest.raises(ValueError):
        LpWeighted(1.0, (1.0,))
    with pytest.raises(ValueError):
        LpWeighted(2.0, (1.0, -1.0))
    with pytest.raises(numlin.ShapeError):
        vec_norm(np.ones(3), Hilbert(2))


def test_op_norm_weighted_diagonal_multiplier():
    # multiplication operators on weighted-p spaces have norm max |a_i|,
    # independent of the weights
    rng = np.random.default_rng(6)
    w = tuple(rng.uniform(0.2, 5.0, size=4))
    a = np.array([0.3, -2.0, 1.1, 0.7])
    r = op_norm(np.diag(a), LpWeighted(2.7, w))
    assert r.value == pytest.approx(2.0, abs=1e-8)
    assert r.upper >= 2.0 - 1e-12


def test_op_norm_schatten_p_between_bounds():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for p in (1.0, 1.5, 3.0, 6.0):
        r = op_norm(M, SchattenP(p, 2))
        assert 0 < r.value <= r.upper + 1e-12
        # sandwiched by the Schatten-2 (= spectral) norm equivalence
        s2 = svd(M)[0]
        assert r.value <= 2 ** abs(0.5 - 1 / p) * s2 + 1e-9


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------

def _similar(seed, lams):
    rng = np.random.default_rng(seed)
    n = len(lams)
    V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return V @ np.diag(np.asarray(lams, dtype=complex)) @ np.linalg.inv(V)


#: operators with eigenvalue 1 (semisimple, non-normal, defective)
EIGENVALUE_ONE = {
    "diag-one": np.diag([1.0, 0.5]),
    "one-upper": np.array([[1.0, 1.0], [0.0, 0.5]]),
    "defective-one": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "similar-one": _similar(7, [1.0, 0.5, 0.3, -0.2]),
}
#: non-normal operators with spectrum off 1
NON_NORMAL = {
    "upper-tri": np.array([[0.5, 0.3], [0.0, 0.2]]),
    "shifted-nilpotent": 0.5 * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]]),
    "jordan3": 0.5 * np.eye(3) + np.diag([1.0, 1.0], 1),
    "similar-complex": _similar(3, [0.3, 0.5 + 0.1j, 0.8]),
}
GALLERY = {**EIGENVALUE_ONE, **NON_NORMAL}
#: ritt_verdict at N=64 on the gallery, as computed by the per-node solve loop
GALLERY_VERDICTS = {
    "diag-one": "ritt", "one-upper": "ritt", "defective-one": "inconclusive",
    "similar-one": "ritt", "upper-tri": "ritt", "shifted-nilpotent": "ritt",
    "jordan3": "ritt", "similar-complex": "ritt",
}


def _kernel_nodes(T):
    beta = 0.5 * (ritt.spectral_type(T) + np.pi / 2)
    return ritt.resolvent_sample_points(T, beta, per_piece=12)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_resolvents_match_per_node_solve(name):
    T = GALLERY[name]
    nodes = _kernel_nodes(T)
    I = np.eye(T.shape[0], dtype=complex)
    R = numlin.resolvents(T, nodes)
    assert R.shape == (len(nodes),) + T.shape
    for z, Rz in zip(nodes, R):
        ref = solve(z * I - T, I)
        assert np.linalg.norm(Rz - ref) <= 1e-12 * np.linalg.norm(ref)


def test_resolvents_match_mpmath_on_jordan_block():
    T = NON_NORMAL["jordan3"]
    nodes = np.array([0.9 + 0.4j, -0.6 + 0.1j, 1.0 + 1e-3j, 0.5 - 0.45j, 3.0])
    R = numlin.resolvents(T, nodes)
    with mpmath.workdps(40):
        for z, Rz in zip(nodes, R):
            M = mpmath.matrix([[(z if i == j else 0) - complex(T[i, j]) for j in range(3)]
                               for i in range(3)])
            ref = np.array((M ** -1).tolist(), dtype=complex)
            assert np.linalg.norm(Rz - ref) <= 1e-12 * np.linalg.norm(ref)


def test_resolvents_partial_last_block(monkeypatch):
    T = NON_NORMAL["similar-complex"]
    nodes = _kernel_nodes(T)[:10]
    whole = numlin.resolvents(T, nodes)
    # 3 x 3 complex matrices are 144 bytes: blocks of 3 nodes, the last holds 1
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 3 * 144)
    assert numlin.resolvent_block_len(3) == 3
    blocked = numlin.resolvents(T, nodes)
    assert np.array_equal(blocked, whole)
    assert numlin.resolvents(T, []).shape == (0, 3, 3)


def test_resolvents_raise_on_singular_node(monkeypatch):
    T = np.diag([0.5, 0.2])
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 2 * 64)  # 2 nodes per block
    with pytest.raises(numlin.SingularMatrixError) as exc:
        numlin.resolvents(T, [0.9, 0.1j, 0.3, 0.5])
    assert exc.value.node == 0.5
    assert exc.value.cond_estimate > 1e300
    assert "rcond" in str(exc.value)
    # near-singular: the pseudospectrum of a large Jordan block reaches the node
    J = np.array([[0.5, 1e9], [0.0, 0.5]])
    with pytest.raises(numlin.SingularMatrixError) as exc:
        numlin.resolvents(J, [0.5 + 0.3j])
    assert exc.value.node == 0.5 + 0.3j
    assert 1.0 / exc.value.cond_estimate < numlin.RCOND_MIN


def test_resolvents_refuse_residual_above_roundoff_floor(monkeypatch):
    # a solver that is off by 1e-3 everywhere: refinement cannot repair it
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, B: exact(M, B) + 1e-3)
    with pytest.raises(numlin.SingularMatrixError, match="residual") as exc:
        numlin.resolvents(np.diag([0.5, 0.2]), [0.9, 2.0])
    assert exc.value.node == 0.9


@pytest.mark.parametrize("space", [Hilbert(4), LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5)),
                                   SchattenP(2.0, 2), SchattenP(3.0, 2), SupSeq(4)])
def test_op_norms_match_op_norm(space):
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    got = numlin.op_norms(stack, space)
    ref = np.array([op_norm(A, space).value for A in stack])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
    assert numlin.op_norms(stack[:0], space).shape == (0,)
    with pytest.raises(numlin.ShapeError):
        numlin.op_norms(stack[:, :3, :3], space)


def test_ritt_verdicts_unchanged_on_gallery():
    cfg = ritt.RittConfig(N=64)
    for name, T in GALLERY.items():
        rep = ritt.ritt_verdict(T, config=cfg)
        assert rep.verdict == GALLERY_VERDICTS[name], name
        # every sampled supremum against a dense-inverse oracle
        for beta, val in rep.resolvent_sup.items():
            pts = ritt.resolvent_sample_points(T, beta, cfg.resolvent_per_piece)
            I = np.eye(T.shape[0])
            oracle = max(np.linalg.norm((z - 1) * np.linalg.inv(z * I - T), 2) for z in pts)
            assert abs(val - oracle) <= 1e-9 * oracle, name
