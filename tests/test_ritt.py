import math

import mpmath
import numpy as np
import pytest

from rittcalc import numlin, ritt, stolz
from rittcalc.numlin import Hilbert, SchattenP, SupSeq
from rittcalc.ritt import (decay_sequences, increment_bound,
                           mean_ergodic_projection, power_bound,
                           resolvent_sample_points, resolvent_sup,
                           ritt_verdict, spectral_type)

N2 = np.array([[0.0, 10.0], [0.0, 0.0]])


def test_power_bound_examples():
    assert power_bound(np.eye(2), Hilbert(2), 8) == pytest.approx(1.0)
    assert power_bound(np.diag([0.5]), Hilbert(1), 8) == pytest.approx(1.0)


def test_power_bound_matches_enumeration():
    T = 0.5 * np.eye(2) + N2
    val = power_bound(T, Hilbert(2), 64)
    brute = max(np.linalg.norm(np.linalg.matrix_power(T, n), 2) for n in range(65))
    assert abs(val - brute) <= 1e-10


def test_increment_bound_examples():
    assert increment_bound(np.eye(2), Hilbert(2), 16) == pytest.approx(0.0)
    assert increment_bound(np.zeros((2, 2)), Hilbert(2), 16) == pytest.approx(1.0)
    # scalar enumeration: sup_n n * 0.5^(n-1) * 0.5 = 0.5 (n = 1 and 2)
    assert increment_bound(np.diag([0.5]), Hilbert(1), 50) == pytest.approx(0.5)


def test_spectral_type_examples():
    assert spectral_type(np.diag([0.5, 0.9])) == 0.0
    assert abs(spectral_type(np.diag([0.5j])) - math.pi / 6) <= 1e-10
    assert spectral_type(np.diag([-1.0])) == stolz.NOT_STOLZ


def test_resolvent_sup_scalar_zero():
    # dense-grid oracle over the same sample family
    beta = math.pi / 6
    pts = resolvent_sample_points(np.zeros((1, 1)), beta)
    oracle = max(abs((lam - 1) / lam) for lam in pts)
    val = resolvent_sup(np.zeros((1, 1)), beta, Hilbert(1))
    assert abs(val - oracle) <= 1e-10
    # analytic supremum (1 + sin b)/sin b = 3 is approached by the dilations
    assert abs(val - 3.0) <= 5e-3


def test_resolvent_sup_normal_closed_form():
    T = np.diag([0.5, 0.2 + 0.1j])
    beta = math.pi / 4
    eigs = np.diag(T)
    pts = resolvent_sample_points(T, beta)
    oracle = max(np.max(np.abs((lam - 1) / (lam - eigs))) for lam in pts)
    val = resolvent_sup(T, beta, Hilbert(2))
    assert abs(val - oracle) <= 1e-10


def test_resolvent_sup_identity():
    assert resolvent_sup(np.eye(3), math.pi / 4, Hilbert(3)) == pytest.approx(1.0)


def test_decay_sequences_examples():
    assert decay_sequences(np.zeros((2, 2)), Hilbert(2), 10) == (1.0, 1.0, 1.0, 1.0)
    assert decay_sequences(np.eye(2), Hilbert(2), 10) == (1.0, 0.0, 0.0, 0.0)


def test_decay_sequences_stabilize():
    T = np.diag([0.5, 0.9])
    a = decay_sequences(T, Hilbert(2), 100)
    b = decay_sequences(T, Hilbert(2), 200)
    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12


def test_mean_ergodic_examples():
    assert np.allclose(mean_ergodic_projection(np.diag([1.0, 0.5])), np.diag([1.0, 0.0]))
    P = mean_ergodic_projection(np.array([[1.0, 1.0], [0.0, 0.5]]))
    # eigenprojection oracle from right/left eigenvectors (1,0) and (2,-1)
    assert np.allclose(P, [[1.0, 2.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(mean_ergodic_projection(np.diag([0.5, 0.2])), 0.0)


def test_mean_ergodic_projection_properties():
    rng = np.random.default_rng(7)
    V = rng.normal(size=(4, 4)) + 0.2 * np.eye(4)
    T = V @ np.diag([1.0, 0.5, 0.3, -0.2]) @ np.linalg.inv(V)
    P = mean_ergodic_projection(T)
    assert np.linalg.norm(P @ P - P, 2) <= 1e-10
    assert np.linalg.norm(P @ T - P, 2) <= 1e-10
    assert np.linalg.norm(T @ P - P, 2) <= 1e-10


def test_mean_ergodic_defective_raises():
    with pytest.raises(numlin.SingularMatrixError, match="not power bounded"):
        mean_ergodic_projection(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_verdict_examples():
    rep = ritt_verdict(np.diag([0.5, 0.9]))
    assert rep.verdict == "ritt" and rep.type_alpha == 0.0
    rep = ritt_verdict(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert rep.verdict == "not-ritt"
    rep = ritt_verdict(0.5 * np.eye(2) + N2)
    assert rep.verdict == "ritt"


def test_verdict_transpose_invariance():
    rng = np.random.default_rng(3)
    V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    T = V @ np.diag([0.3, 0.5 + 0.1j, 0.8]) @ np.linalg.inv(V)
    cfg = ritt.RittConfig(N=128)
    a = ritt_verdict(T, config=cfg)
    b = ritt_verdict(T.T, config=cfg)
    assert a.verdict == b.verdict == "ritt"
    assert abs(a.type_alpha - b.type_alpha) <= 1e-9
    assert max(abs(x - y) for x, y in zip(a.decay, b.decay)) <= 1e-8 * (1 + max(a.decay))


def test_increment_bound_uniform_under_scaling():
    # scaled operators r T stay uniformly bounded for Ritt-certified T
    T = np.diag([0.5, 0.9])
    base = increment_bound(T, Hilbert(2), 256)
    c = max(base, 1.0)
    for r in (0.9, 0.99, 0.999):
        assert increment_bound(r * T, Hilbert(2), 256) <= 2.0 * c + 1e-12


def test_verdict_inconclusive_for_defective_one():
    rep = ritt_verdict(np.array([[1.0, 1.0], [0.0, 1.0]]), config=ritt.RittConfig(N=64))
    assert rep.verdict == "inconclusive"
    assert rep.reasons


def test_report_serializes():
    rep = ritt_verdict(np.diag([0.5]), config=ritt.RittConfig(N=32))
    d = rep.to_json_dict()
    assert d["verdict"] == "ritt"
    assert isinstance(d["resolvent_sup"], list)
    rep2 = ritt_verdict(np.diag([-1.0]), config=ritt.RittConfig(N=32))
    assert rep2.to_json_dict()["type_alpha"] == "not-Stolz"


def test_not_ritt_reports_decay_n_used():
    # the not-ritt branch computes its decay sequences at min(N, 64)
    rep = ritt_verdict(np.array([[0.0, -1.0], [1.0, 0.0]]), config=ritt.RittConfig(N=512))
    assert rep.verdict == "not-ritt"
    assert rep.N_used == 64
    assert rep.to_json_dict()["N_used"] == 64


def test_resolvent_sample_points_single_boundary_sample(monkeypatch):
    calls = []
    orig = stolz.boundary_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(stolz, "boundary_samples", counted)
    pts = resolvent_sample_points(np.diag([0.5]), math.pi / 4, per_piece=8)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(pts, resolvent_sample_points(np.diag([0.5]), math.pi / 4, per_piece=8))


# ---------------------------------------------------------------------------
# streamed decay profiles against the per-matrix power list
# ---------------------------------------------------------------------------

def _ritt_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 0.9, size=dim) * np.exp(1j * rng.uniform(-0.4, 0.4, size=dim))
    V = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _reference_profiles(T, space, N):
    # the stored power list with one op_norm per matrix
    powers = numlin.mat_power_seq(T, N)
    A = np.eye(T.shape[0]) - T
    norm = lambda M: numlin.op_norm(M, space).value
    s0 = np.array([norm(P) for P in powers])
    s = [np.array([n**j * norm(powers[n - 1] @ np.linalg.matrix_power(A, j))
                   for n in range(1, N + 1)]) for j in (1, 2, 3)]
    inc = np.array([n * norm(powers[n] - powers[n - 1]) for n in range(1, N + 1)])
    return (s0, *s), inc


N_STREAM = 12


@pytest.mark.parametrize("space", [Hilbert(4), numlin.SupSeq(4), numlin.SchattenP(2.0, 2),
                                   numlin.LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5))],
                         ids=["hilbert", "sup", "schatten2", "lp3"])
@pytest.mark.parametrize("block_len", [1, 5, N_STREAM + 4],
                         ids=["len1", "partial-last", "one-block"])
def test_streamed_profiles_match_power_list(monkeypatch, space, block_len):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", block_len * 16 * 4 * 4)
    assert numlin.resolvent_block_len(4) == block_len
    T = _ritt_matrix(4, 11)
    ref, inc = _reference_profiles(T, space, N_STREAM)
    got = ritt.decay_profiles(T, space, N_STREAM)
    for r, g in zip(ref, got):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(r)
    assert abs(power_bound(T, space, N_STREAM) - ref[0].max()) <= 1e-12 * ref[0].max()
    prof = ritt.increment_profile(T, space, N_STREAM)
    assert np.max(np.abs(prof - inc)) <= 1e-12 * np.max(inc)
    assert abs(increment_bound(T, space, N_STREAM) - inc.max()) <= 1e-12 * inc.max()


def test_power_overflow_mid_block_matches_power_list(monkeypatch):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 4 * 16 * 4)  # 4 powers per block
    T = np.diag([1e60, 0.5])  # T^5 is finite, T^6 overflows: inside the second block
    with pytest.raises(numlin.PowerOverflow) as ref:
        numlin.mat_power_seq(T, 20)
    assert ref.value.n == 6
    for call in (lambda: decay_sequences(T, Hilbert(2), 20),
                 lambda: power_bound(T, Hilbert(2), 20),
                 lambda: increment_bound(T, Hilbert(2), 20)):
        with pytest.raises(numlin.PowerOverflow) as exc:
            call()
        assert exc.value.n == ref.value.n


def test_decay_sequences_hold_one_block_of_powers():
    import tracemalloc

    T = _ritt_matrix(48, 5)
    tracemalloc.start()
    try:
        decay_sequences(T, numlin.SupSeq(48), 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 1025 stored powers alone took 37.8 MB
    assert peak < 10e6


def test_increment_profile_prefix_is_increment_bound():
    T = _ritt_matrix(3, 2)
    for space in (Hilbert(3), numlin.LpWeighted(3.0, (1.0, 0.5, 2.0))):
        prof = ritt.increment_profile(T, space, 64)
        assert prof.shape == (64,)
        for N in (1, 17, 32, 64):
            assert float(prof[:N].max()) == increment_bound(T, space, N)


@pytest.mark.parametrize("space", [Hilbert(2), SupSeq(2), SchattenP(2.0, 2)])
@pytest.mark.parametrize("N", [8, 64])
def test_verdict_inconclusive_when_resolvent_node_refused(N, space):
    # spectrum {0.5} passes, but the pseudospectrum of this Jordan-like block
    # swallows the resolvent nodes: the singular-value route (Hilbert,
    # Schatten-2) and the kernel (sup) refuse them (rcond ~ 1e-61)
    T = np.array([[0.5, 1e30], [0.0, 0.5]])
    if space.dim == 4:
        T = np.kron(np.eye(2), T)
    rep = ritt_verdict(T, space, config=ritt.RittConfig(N=N))
    assert rep.verdict == "inconclusive"
    refused = [r for r in rep.reasons if "refused" in r]
    assert refused
    assert all("beta=" in r and "z=" in r and "rcond=" in r for r in refused)
    assert rep.N_used == N
    assert len(refused) + len(rep.resolvent_sup) == len(ritt.RittConfig().beta_fracs)


def test_ritt_config_rejects_N_below_one():
    with pytest.raises(ValueError, match="N must be >= 1"):
        ritt.RittConfig(N=0)


# ---------------------------------------------------------------------------
# decay_profiles against an mpmath oracle
# ---------------------------------------------------------------------------

ORACLE_T = np.array([[0.5, 2.0, 0.0], [0.0, 0.3 + 0.2j, 1.5], [0.25, 0.0, -0.2]])
ORACLE_LEFT = np.array([[1.0, 0.0, 0.5j], [0.0, -2.0, 1.0], [0.3, 0.0, 0.7]])


def _oracle_rows(T, left, N, norm):
    # the four rows in 40-digit arithmetic, each power the previous one times T
    with mpmath.workdps(40):
        T = mpmath.matrix(T.tolist())
        L = mpmath.matrix(left.tolist())
        I = mpmath.eye(T.rows)
        A = {j: (I - T) ** j for j in (2, 3)}
        P = [I]
        for _ in range(N):
            P.append(P[-1] * T)
        rows = ([norm(L * P[n]) for n in range(N + 1)],
                [n * norm(L * (P[n] - P[n - 1])) for n in range(1, N + 1)],
                *([n**j * norm(L * P[n - 1] * A[j]) for n in range(1, N + 1)]
                  for j in (2, 3)))
        return [np.array([float(v) for v in row]) for row in rows]


def _mp_spectral(M):
    return max(mpmath.svd(M, compute_uv=False))


def _mp_row_sums(M):
    return max(mpmath.fsum(abs(M[i, j]) for j in range(M.cols)) for i in range(M.rows))


@pytest.mark.parametrize("space, norm", [(Hilbert(3), _mp_spectral),
                                         (numlin.SupSeq(3), _mp_row_sums)],
                         ids=["hilbert", "sup"])
@pytest.mark.parametrize("left", [None, ORACLE_LEFT], ids=["identity", "left"])
def test_decay_profiles_match_mpmath_oracle(space, norm, left):
    N = 40
    ref = _oracle_rows(ORACLE_T, np.eye(3) if left is None else left, N, norm)
    got = ritt.decay_profiles(ORACLE_T, space, N, left=left)
    for j, (r, g) in enumerate(zip(ref, got)):
        assert g.shape == r.shape, j
        assert np.all(np.abs(g - r) <= 1e-12 * np.abs(r)), j
    # a subset of the orders gives the same rows, in the order asked for
    sub = ritt.decay_profiles(ORACLE_T, space, N, orders=(3, 1), left=left)
    assert all(np.array_equal(a, b) for a, b in zip(sub, (got[3], got[1])))


@pytest.mark.parametrize("space", [Hilbert(4), numlin.SupSeq(4), numlin.SchattenP(2.0, 2),
                                   numlin.LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5))],
                         ids=["hilbert", "sup", "schatten2", "lp3"])
def test_verdict_bounds_are_the_bounds_at_2N(space):
    # one walk over the powers: the verdict's S0 and S1 are power_bound and
    # increment_bound at 2N, bit for bit (S1 as n ||T^(n-1)(I-T)|| differed
    # in the last bits for this T on all four models)
    N = 16
    T = _ritt_matrix(4, 14)
    rep = ritt_verdict(T, space, ritt.RittConfig(N=N, beta_fracs=()))
    assert rep.verdict != "not-ritt"
    assert rep.power_bound == power_bound(T, space, 2 * N)
    assert rep.increment_bound == increment_bound(T, space, 2 * N)
