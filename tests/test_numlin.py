import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import numlin, ritt
from rittcalc.numlin import (Hilbert, LpWeighted, SchattenP, SpaceModel, SupSeq,
                             check_vector, eig, mat_power_seq, op_norm, solve, svd,
                             vec_norm)


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
    # the S1 row is n ||T^n - T^(n-1)|| of the power list's differences
    space = Hilbert(3)
    s1 = ritt.decay_profiles(T, space, 30, orders=(1,))[0]
    n = np.arange(1, 31)
    assert np.array_equal(s1, n * numlin.op_norms(np.diff(np.array(ref), axis=0), space))


def test_is_exact_model():
    exact = [Hilbert(2), SupSeq(2), SchattenP(2.0, 2)]
    approx = [LpWeighted(3.0, (1.0, 1.0)), SchattenP(3.0, 2), SchattenP(1.0, 2)]
    assert all(s.exact for s in exact)
    assert not any(s.exact for s in approx)
    M = np.array([[0.5, 0.2], [0.1, 0.3]])
    for s in exact + approx:
        dim = s.dim
        A = np.kron(M, np.eye(dim // 2)) if dim != 2 else M
        assert op_norm(A, s).exact == s.exact


def test_dual_models():
    assert Hilbert(3).dual() == Hilbert(3)
    d = LpWeighted(3.0, (1.0, 2.0)).dual()
    assert d.p == pytest.approx(1.5) and d.weights == (1.0, 2.0)
    assert SchattenP(4.0, 2).dual().p == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        SupSeq(2).dual()
    with pytest.raises(ValueError):
        SchattenP(1.0, 2).dual()


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


def test_singular_value_route_raises_on_singular_node(monkeypatch):
    # the Hilbert and Schatten-2 route of resolvent_sup keeps the kernel's refusals
    T = np.diag([0.5, 0.2])
    with pytest.raises(numlin.SingularMatrixError) as exc:
        Hilbert(2).scaled_resolvent_norms(T, np.array([0.9, 0.1j, 0.3, 0.5]))
    assert exc.value.node == 0.5
    assert exc.value.cond_estimate > 1e300
    assert "rcond" in str(exc.value)
    J = np.array([[0.5, 1e9], [0.0, 0.5]])
    with pytest.raises(numlin.SingularMatrixError) as exc:
        Hilbert(2).scaled_resolvent_norms(J, np.array([0.5 + 0.3j]))
    assert exc.value.node == 0.5 + 0.3j
    assert 1.0 / exc.value.cond_estimate < numlin.RCOND_MIN
    # an SVD that does not converge is never silent
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(numlin.EigNonConvergence, match="did not converge"):
        Hilbert(2).scaled_resolvent_norms(T, np.array([0.9]))
    with pytest.raises(numlin.EigNonConvergence):
        ritt.resolvent_sup(np.kron(np.eye(2), T), np.pi / 4, SchattenP(2.0, 2), per_piece=4)


def _mp_scaled_resolvent_norm(T, z):
    # ||(z - 1)(z I - T)^-1||_2 in 40-digit arithmetic
    n = T.shape[0]
    with mpmath.workdps(40):
        zm = mpmath.mpc(complex(z))
        M = mpmath.matrix([[(zm if i == j else 0) - mpmath.mpc(complex(T[i, j]))
                            for j in range(n)] for i in range(n)])
        return float(abs(zm - 1) * max(mpmath.svd(M ** -1, compute_uv=False)))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_scaled_resolvent_norms_match_mpmath_at_the_worst_nodes(name):
    # the five worst conditioned sample nodes of every verdict beta, on the
    # singular-value route and on the kernel route
    T = GALLERY[name]
    cfg = ritt.RittConfig()
    alpha = ritt.spectral_type(T)
    I = np.eye(T.shape[0])
    for f in cfg.beta_fracs:
        beta = alpha + (np.pi / 2 - alpha) * f
        pts = ritt.resolvent_sample_points(T, beta, cfg.resolvent_per_piece)
        s = np.linalg.svd(pts[:, None, None] * I - T, compute_uv=False)
        z = pts[np.argsort(s[:, -1] / s[:, 0])[:5]]
        oracle = np.array([_mp_scaled_resolvent_norm(T, zj) for zj in z])
        for got in (Hilbert(T.shape[0]).scaled_resolvent_norms(T, z),
                    numlin._kernel_resolvent_norms(T, z, Hilbert(T.shape[0]))):
            assert np.max(np.abs(got - oracle) / oracle) <= 1e-11, (name, f)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), schatten=st.booleans())
def test_resolvent_sup_matches_the_dense_inverse_oracle(seed, schatten):
    rng = np.random.default_rng(seed)
    n = 4 if schatten else int(rng.integers(1, 6))
    space = SchattenP(2.0, 2) if schatten else Hilbert(n)
    # a unitary rotation of a triangular matrix with spectrum in the disc of radius 0.9
    lams = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    U = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    T = Q @ (np.diag(lams) + rng.uniform(0.0, 2.0) * U) @ Q.conj().T
    beta = 0.5 * (ritt.spectral_type(T) + np.pi / 2)
    val = ritt.resolvent_sup(T, beta, space, per_piece=6)
    I = np.eye(n)
    oracle = max(np.linalg.norm((z - 1) * np.linalg.inv(z * I - T), 2)
                 for z in ritt.resolvent_sample_points(T, beta, 6))
    assert abs(val - oracle) <= 1e-9 * oracle


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


# ---------------------------------------------------------------------------
# stacked Boyd ascent against the per-start reference
# ---------------------------------------------------------------------------

def _dual_exponent_map(y: np.ndarray, p: float) -> np.ndarray:
    # duality map of the p-norm: |y|^(p-1) * phase(y), zero-safe
    a = np.abs(y)
    out = np.zeros_like(y)
    nz = a > 0
    out[nz] = (a[nz] ** (p - 1.0)) * (y[nz] / a[nz])
    return out


def _schatten_dual_map(Y: np.ndarray, p: float) -> np.ndarray:
    U, s, Vh = scipy.linalg.svd(Y)
    if p == 1.0:
        return U @ Vh  # polar factor: a norming subgradient of the trace norm
    if p == np.inf:
        return np.outer(U[:, 0], Vh[0])  # top singular dyad
    return (U * (s ** (p - 1.0))) @ Vh


def _boyd_lower(A: np.ndarray, space: SpaceModel, restarts: int, seed: int):
    """Norm-ascent lower bound with witness (Boyd fixed-point iteration)."""
    p = space.p
    q = np.inf if p == 1.0 else p / (p - 1.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = A.shape[0]
    schatten = isinstance(space, SchattenP)

    if schatten:
        n = space.n
        norm_of = lambda v: float(np.sum(svd(v.reshape(n, n)) ** p) ** (1.0 / p))
        dual_map = lambda v: _schatten_dual_map(v.reshape(n, n), p).reshape(-1)
        dual_map_q = lambda v: _schatten_dual_map(v.reshape(n, n), q).reshape(-1)
    else:
        norm_of = lambda v: float(np.sum(np.abs(v) ** p) ** (1.0 / p))
        dual_map = lambda v: _dual_exponent_map(v, p)
        dual_map_q = lambda v: _dual_exponent_map(v, q)

    starts = [np.ones(d, dtype=complex)]
    try:
        _, _, Vh = scipy.linalg.svd(A)
        starts.append(Vh[0].conj())
    except np.linalg.LinAlgError:
        pass
    for _ in range(restarts):
        starts.append(rng.normal(size=d) + 1j * rng.normal(size=d))

    best = 0.0
    best_x = starts[0]
    for x in starts:
        nx = norm_of(x)
        if nx == 0:
            continue
        x = x / nx
        prev = -np.inf
        for _ in range(200):
            y = A @ x
            val = norm_of(y)
            if val > best:
                best, best_x = val, x.copy()
            if val <= prev * (1.0 + 1e-13) or val == 0.0:
                break
            prev = val
            z = A.conj().T @ dual_map(y)
            x = dual_map_q(z)
            nx = norm_of(x)
            if nx == 0:
                break
            x = x / nx
    return best, best_x


def _reference(M, space):
    """(value, witness) of the per-start ascent, realized as op_norm does."""
    if isinstance(space, LpWeighted):
        D = np.asarray(space.weights) ** (1.0 / space.p)
        A = (D[:, None] * M) / D[None, :]
        val, x = _boyd_lower(A, LpWeighted(space.p, (1.0,) * len(D)), 8, 0)
        return val, x / D
    val, x = _boyd_lower(M, space, 8, 0)
    return val, x.reshape(space.n, space.n)


def _attained(M, x, space):
    x = check_vector(x, space)
    return vec_norm((M @ x.reshape(-1)).reshape(x.shape), space) / vec_norm(x, space)


def _check_against_reference(stack, space):
    got = numlin.op_norms(stack, space)
    for j, M in enumerate(stack):
        ref, ref_witness = _reference(M, space)
        r = op_norm(M, space)
        assert got[j] == r.value  # one kernel: a stack of one is the same
        assert abs(r.value - ref) <= 1e-12 * ref
        if r.value == 0.0:  # the unnormalized ones start, mapped back to the space
            assert np.array_equal(r.witness, ref_witness)
        else:
            assert abs(_attained(M, r.witness, space) - r.value) <= 1e-12 * r.value
    return got


ASCENT_SPACES = [LpWeighted(1.5, (1.0, 2.0, 0.5, 1.5)), LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2)),
                 SchattenP(1.0, 2), SchattenP(1.5, 2), SchattenP(3.0, 2)]


@pytest.mark.parametrize("space", ASCENT_SPACES, ids=repr)
def test_stacked_ascent_matches_per_start_reference(space):
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    stack[1] *= 1e-3
    stack[2] = np.triu(stack[2])  # non-normal
    stack[3] = 0.0
    stack[4, 1, :] = 0.0  # a zero row
    stack[5, :, 2] = 0.0  # a zero column
    got = _check_against_reference(stack, space)
    assert got[3] == 0.0
    assert np.array_equal(numlin._boyd_ascent(stack[3:4], space)[1][0], np.ones(4))


def test_stacked_ascent_far_field_resolvent_runs_to_the_cap(monkeypatch):
    # (lam - 1) R(lam) at |lam| = 10 is close to a multiple of I: the ascent
    # creeps up by more than 1e-13 per step for all 200 products
    rng = np.random.default_rng(3)
    rng.normal(size=(2, 4, 4))
    T = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    lam = 10.0 * np.exp(2.5j)
    M = (lam - 1.0) * np.linalg.inv(lam * np.eye(4) - T)
    space = LpWeighted(3.0, (1.0,) * 4)
    calls = []
    norms = numlin._lp_norms
    monkeypatch.setattr(numlin, "_lp_norms", lambda V, p: calls.append(1) or norms(V, p))
    _check_against_reference(M[None], space)
    calls.clear()
    numlin.op_norms(M[None], space)
    assert len(calls) == 1 + 2 * 200  # the starts, then two norms per product


@pytest.mark.parametrize("space", [LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5)), SchattenP(3.0, 2)],
                         ids=repr)
def test_stacked_ascent_is_batch_invariant(space):
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
    stack[::7] *= np.geomspace(1e-6, 1e3, 8)[:, None, None]
    whole = numlin.op_norms(stack, space)
    assert np.array_equal(whole, [op_norm(M, space).value for M in stack])
    for j in (0, 17, 49):
        assert numlin.op_norms(stack[j:j + 1], space)[0] == whole[j]
    assert np.array_equal(numlin.op_norms(stack[::-1], space), whole[::-1])
    assert np.array_equal(numlin.op_norms(stack[10:13], space), whole[10:13])


def test_stacked_ascent_failed_svd_loses_only_its_own_start(monkeypatch):
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    space = LpWeighted(3.0, (1.0, 1.0, 1.0))  # unit weights: the kernel sees stack[0]
    clean = numlin.op_norms(stack, space)
    poisoned = stack[0].copy()

    def failing(svd_fn):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            if any(np.array_equal(B, poisoned) for B in a.reshape((-1,) + a.shape[-2:])):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd_fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", failing(np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "svd", failing(scipy.linalg.svd))
    got = numlin.op_norms(stack, space)
    ref0, _ = _boyd_lower(stack[0], space, 8, 0)  # without its SVD start
    assert abs(got[0] - ref0) <= 1e-12 * ref0
    assert np.array_equal(got[1:], clean[1:])


def _bracket(M, space):
    """Upper bound independent of the ascent: Riesz-Thorin and norm
    equivalence on lp, norm equivalence on Schatten-p."""
    p = space.p
    if isinstance(space, LpWeighted):
        D = np.asarray(space.weights) ** (1.0 / p)
        A = (D[:, None] * M) / D[None, :]
        rt = np.abs(A).sum(axis=0).max() ** (1 / p) * np.abs(A).sum(axis=1).max() ** (1 - 1 / p)
        return min(rt, len(D) ** abs(0.5 - 1 / p) * np.linalg.norm(A, 2))
    return space.n ** abs(0.5 - 1 / p) * np.linalg.norm(M, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), d=st.integers(1, 5),
       schatten=st.booleans(), scale=st.floats(1e-3, 1e3))
def test_stacked_ascent_lies_in_the_bracket(seed, m, d, schatten, scale):
    rng = np.random.default_rng(seed)
    if schatten:
        space = SchattenP(3.0, 1 + d % 2)
        d = space.n ** 2
    else:
        space = LpWeighted(3.0, tuple(rng.uniform(0.2, 5.0, size=d)))
    stack = scale * (rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d)))
    got = numlin.op_norms(stack, space)
    ones = np.ones(d)
    for M, v in zip(stack, got):
        first = _attained(M, ones, space)  # the first start's ratio
        assert first * (1 - 1e-12) <= v <= _bracket(M, space) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the space-model protocol
# ---------------------------------------------------------------------------

PROTOCOL_SPACES = [Hilbert(4), LpWeighted(3.0, (0.3, 1.0, 4.0, 1.2)), SchattenP(3.0, 2),
                   SchattenP(2.0, 2), SupSeq(4)]


@pytest.mark.parametrize("space", PROTOCOL_SPACES, ids=repr)
def test_vec_norm_is_the_model_norm_of_the_flat_element(space):
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        x = check_vector(x, space)  # n x n for Schatten
        assert vec_norm(x, space) == float(space.norms(x.reshape(-1)))
    assert space.norms(np.zeros((3, space.dim), dtype=complex)).tolist() == [0.0] * 3


def test_space_model_reprs_and_fields_unchanged():
    reprs = {Hilbert(3): "Hilbert(dim=3)",
             LpWeighted(3.0, (1.0, 2.0)): "LpWeighted(p=3.0, weights=(1.0, 2.0))",
             SchattenP(3.0, 2): "SchattenP(p=3.0, n=2)",
             SupSeq(2): "SupSeq(dim=2)"}
    fields = {Hilbert: ["dim"], LpWeighted: ["p", "weights"], SchattenP: ["p", "n"],
              SupSeq: ["dim"]}
    for s, r in reprs.items():
        assert repr(s) == r
        assert [f.name for f in dataclasses.fields(s)] == fields[type(s)]
        assert s == type(s)(*(getattr(s, f) for f in fields[type(s)]))
        assert hash(s) == hash(type(s)(*(getattr(s, f) for f in fields[type(s)])))
    assert (Hilbert(3).dim, LpWeighted(3.0, (1.0, 2.0)).dim, SchattenP(3.0, 2).dim,
            SupSeq(2).dim) == (3, 2, 4, 2)


def _holder_dual_pair(space, x):
    """(pairing, y) with y the element of the dual model that norms x:
    |<x, y>| = ||x|| ||y||_dual."""
    p = space.p
    if isinstance(space, SchattenP):
        U, s, Vh = scipy.linalg.svd(x.reshape(space.n, space.n))
        y = np.conj((U * s ** (p - 1.0)) @ Vh).reshape(-1)
        return lambda a, b: abs(np.sum(a * b)), y  # tr(a b^T)
    w = np.asarray(space.weights)
    y = np.conj(x) * np.abs(x) ** (p - 2.0)
    return lambda a, b: abs(np.sum(w * a * b)), y


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1.05, 8.0), d=st.integers(1, 4),
       schatten=st.booleans())
def test_dual_models_satisfy_holder(seed, p, d, schatten):
    rng = np.random.default_rng(seed)
    if schatten:
        space = SchattenP(p, d)
    else:
        space = LpWeighted(p, tuple(rng.uniform(0.2, 5.0, size=d)))
    dual = space.dual()
    assert type(dual) is type(space) and dual.dim == space.dim
    x, y = rng.normal(size=(2, space.dim)) + 1j * rng.normal(size=(2, space.dim))
    pairing, y_star = _holder_dual_pair(space, x)
    nx = vec_norm(x, space)
    assert pairing(x, y) <= nx * vec_norm(y, dual) * (1 + 1e-12)
    assert pairing(x, y_star) == pytest.approx(nx * vec_norm(y_star, dual), rel=1e-9)
    # dual() records the exponent it came from, so p -> q -> p is exact
    back = dual.dual()
    assert back == dataclasses.replace(space, p=back.p)
    assert back.p == space.p and back == space
    for q in (1.5, 2.0, 3.0):
        assert dataclasses.replace(space, p=q).dual().dual() == dataclasses.replace(space, p=q)


def test_dual_is_an_exact_involution():
    ps = np.random.default_rng(11).uniform(1.0001, 50.0, size=2000)
    for p in ps:
        for space in (LpWeighted(float(p), (0.5, 2.0)), SchattenP(float(p), 2)):
            dual = space.dual()
            assert dual.dual() == space and dual.dual().p == space.p
            assert dual.dual().dual() == dual
    # the recorded exponent is invisible to ==, hash, repr and fields
    space = LpWeighted(2.7, (1.0, 3.0))
    back = space.dual().dual()
    assert repr(back) == repr(space) and hash(back) == hash(space)
    assert [f.name for f in dataclasses.fields(back)] == ["p", "weights"]
    # a replaced copy forgets it and takes p / (p - 1) afresh
    q = dataclasses.replace(space.dual(), weights=(2.0, 2.0))
    assert q.dual().p == q.p / (q.p - 1.0)
