import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import numlin, ritt, stolz
from rittcalc.numlin import Hilbert, SchattenP, SupSeq
from rittcalc.ritt import (decay_suprema, increment_bound,
                           mean_ergodic_projection, power_bound,
                           resolvent_sample_points, resolvent_sup,
                           ritt_verdict, spectral_type)
from test_funcalc import _random_operator

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


def test_a_large_norm_counts_no_far_eigenvalue_as_one():
    # 1e-10 (1 + ||T||) is 10 here: uncapped, both eigenvalues +-0.5i
    # counted as 1, the type read 0 and the Gram route refused a
    # "defective" eigenvalue 1 that T does not have
    from rittcalc import funcalc, sqfun

    T = np.array([[0.5j, 1e11], [0.0, -0.5j]])
    assert ritt.eigenvalue_one_tolerance(T) == funcalc.VERTEX_CLUSTER
    assert spectral_type(T) == stolz.min_angle(0.5j)
    assert sqfun.sf_constant(T, 1, Hilbert(2)) == pytest.approx(1.8667e11, rel=1e-4)
    T[0, 1] = 1e3  # the tolerance is 1e-7 and was right before
    assert spectral_type(T) == stolz.min_angle(0.5j)


def _ref_spectral_type(T):
    """The scalar loop: stolz.min_angle of every eigenvalue, in eigenvalue order."""
    tol1 = ritt.eigenvalue_one_tolerance(T)
    worst = 0.0
    for lam in numlin.eig(T).eigenvalues:
        lam = complex(lam)
        if abs(lam - 1.0) <= tol1:
            continue
        if abs(lam) >= 1.0 - 1e-11:
            return stolz.NOT_STOLZ
        worst = max(worst, stolz.min_angle(lam))
        if worst == stolz.NOT_STOLZ:
            break
    return worst


def test_spectral_type_is_the_scalar_loop_bit_for_bit():
    # one vectorized maximum over the eigenvalues is the scalar loop's
    # value, on spectra in the disc, on the segment, at 1, near the
    # circle, at 0 and outside the disc
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(2, 50))
        lams = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        kind = trial % 5
        if kind == 1:  # the segment [0, 1], 1 itself and a cluster of equal moduli
            lams[: n // 2] = rng.uniform(0.0, 1.0, size=n // 2)
            lams[0], lams[-1] = 1.0, 0.5 * np.exp(0.3j)
            lams[-2] = 0.5 * np.exp(-0.3j)
        elif kind == 2:  # near the circle
            lams[0] = (1.0 - 2e-11) * np.exp(1j * rng.uniform(0.1, 6.0))
        elif kind == 3:  # outside the disc
            lams[-1] = 1.01 * np.exp(1j * rng.uniform(0.1, 6.0))
        elif kind == 4:  # tiny and zero
            lams[:3] = 0.0, 1e-14j, 5e-13
        U = np.diag(lams) + 0.1 * np.triu(rng.normal(size=(n, n)), 1)
        assert spectral_type(U) == _ref_spectral_type(U), trial


def test_resolvent_sup_scalar_zero():
    # dense-grid oracle over the same sample family
    beta = math.pi / 6
    pts = resolvent_sample_points(np.zeros((1, 1)), beta)
    oracle = max(abs((lam - 1) / lam) for lam in pts)
    val = resolvent_sup(np.zeros((1, 1)), beta, Hilbert(1))
    assert abs(val - oracle) <= 1e-10
    # analytic supremum (1 + sin b)/sin b = 3 is approached by the layer
    # next to the boundary
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


def test_resolvent_sup_refuses_an_angle_past_the_disc():
    # every angle >= pi/2 used to be read as the unit disc (this gave 1.67)
    with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
        resolvent_sup(np.diag([0.5, 0.2]), 2.0, Hilbert(2))


def test_decay_sequences_examples():
    assert decay_suprema(np.zeros((2, 2)), Hilbert(2), 10) == (1.0, 1.0, 1.0, 1.0)
    assert decay_suprema(np.eye(2), Hilbert(2), 10) == (1.0, 0.0, 0.0, 0.0)


def test_decay_sequences_stabilize():
    T = np.diag([0.5, 0.9])
    a = decay_suprema(T, Hilbert(2), 100)
    b = decay_suprema(T, Hilbert(2), 200)
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
    # only the angle reads "not-Stolz": any other infinity reads "inf"
    rep2.power_bound = math.inf
    assert rep2.to_json_dict()["power_bound"] == "inf"


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
    prof = ritt.decay_profiles(T, space, N_STREAM, orders=(1,))[0]
    assert np.max(np.abs(prof - inc)) <= 1e-12 * np.max(inc)
    assert abs(increment_bound(T, space, N_STREAM) - inc.max()) <= 1e-12 * inc.max()


def test_power_overflow_mid_block_matches_power_list(monkeypatch):
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", 4 * 16 * 4)  # 4 powers per block
    T = np.diag([1e60, 0.5])  # T^5 is finite, T^6 overflows: inside the second block
    with pytest.raises(numlin.PowerOverflow) as ref:
        numlin.mat_power_seq(T, 20)
    assert ref.value.n == 6
    for call in (lambda: decay_suprema(T, Hilbert(2), 20),
                 lambda: power_bound(T, Hilbert(2), 20),
                 lambda: increment_bound(T, Hilbert(2), 20)):
        with pytest.raises(numlin.PowerOverflow) as exc:
            call()
        assert exc.value.n == ref.value.n


def _decay_sequences_peak():
    import tracemalloc

    T = _ritt_matrix(48, 5)
    tracemalloc.start()  # sees the allocations of every thread
    try:
        decay_suprema(T, numlin.SupSeq(48), 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_decay_sequences_hold_one_block_of_powers():
    # the 1025 stored powers alone took 37.8 MB
    assert _decay_sequences_peak() < 10e6


@pytest.mark.parametrize("workers", [2, 8])
def test_pooled_decay_sequences_hold_about_two_blocks_of_powers(monkeypatch, workers):
    # the walk waits while the 4 slices of 14 of one block of 56 powers
    # (2 MB) are normed, whatever the workers
    monkeypatch.setattr(numlin, "_worker_count", lambda: workers)
    assert _decay_sequences_peak() < 10e6


def test_increment_profile_prefix_is_increment_bound():
    T = _ritt_matrix(3, 2)
    for space in (Hilbert(3), numlin.LpWeighted(3.0, (1.0, 0.5, 2.0))):
        prof = ritt.decay_profiles(T, space, 64, orders=(1,))[0]
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


def test_decay_profiles_check_the_space_before_the_walk(monkeypatch):
    # a 2x2 operator on a 3-dimensional model: the ShapeError comes before
    # any power, not after the walk (finite powers) or hidden behind a
    # later PowerOverflow (T^6 overflows)
    yields = []

    def counted(T, N):
        for item in numlin.power_blocks(T, N):
            yields.append(item[0])
            yield item

    monkeypatch.setattr(ritt, "power_blocks", counted)
    with pytest.raises(numlin.ShapeError, match="size 2 on space of dimension 3"):
        ritt_verdict(np.diag([1e60, 0.5]), Hilbert(3), ritt.RittConfig(N=8))
    with pytest.raises(numlin.ShapeError, match="size 2 on space of dimension 3"):
        ritt.decay_profiles(np.diag([0.5, 0.2]), Hilbert(3), 64)
    assert yields == []


# ---------------------------------------------------------------------------
# the decay norms on the node-block pool while the caller walks the powers
# ---------------------------------------------------------------------------

POOL_MODELS = [Hilbert(4), numlin.LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5)),
               SchattenP(2.0, 2), SchattenP(3.0, 2), SupSeq(4)]
POOL_ORDERS = [(0,), (1,), (3, 1), (0, 1, 2, 3)]
#: block bytes for 4 x 4 operators: blocks of 22 powers, cut into slices of
#: 5 once a walk holds more than 22 powers
SMALL_BLOCK_BYTES = 22 * 256


def _at_worker_counts(monkeypatch, fn, block_bytes=SMALL_BLOCK_BYTES):
    """fn() with small blocks at 1, 2 and 3 workers."""
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", block_bytes)
    out = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(numlin, "_worker_count", lambda w=workers: w)
        out.append(fn())
    return out


def _hex_rows(rows):
    return [[float(v).hex() for v in row] for row in rows]


@pytest.mark.parametrize("space", POOL_MODELS, ids=repr)
def test_pooled_decay_profiles_are_bit_identical_to_the_serial_walk(monkeypatch, space):
    # N = 40: 41 powers in blocks of 22 and 19, slices of 5 with a partial
    # last slice in each block; the default block holds the whole walk
    N = 40
    T = _ritt_matrix(4, 21)
    left = _ritt_matrix(4, 22)
    ref = {(orders, lt): _hex_rows(ritt.decay_profiles(T, space, N, orders, left=L))
           for orders in POOL_ORDERS for lt, L in (("I", None), ("L", left))}
    workers = set()
    op_norms = ritt.op_norms

    def recorded(*args):
        workers.add(threading.get_ident())
        return op_norms(*args)

    monkeypatch.setattr(ritt, "op_norms", recorded)
    for (orders, lt), rows in ref.items():
        L = None if lt == "I" else left
        for got in _at_worker_counts(
                monkeypatch, lambda: ritt.decay_profiles(T, space, N, orders, left=L)):
            assert _hex_rows(got) == rows, (orders, lt)
    assert workers - {threading.get_ident()}  # the pool ran the norms


def test_pooled_walk_stress_more_workers_than_cores(monkeypatch):
    # eight workers write their slices of the shared rows with the
    # interpreter switching threads every microsecond: a lost or misplaced
    # slice shows
    T = _ritt_matrix(4, 23)
    ref = _hex_rows(ritt.decay_profiles(T, Hilbert(4), 60))
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    monkeypatch.setattr(numlin, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _hex_rows(ritt.decay_profiles(T, Hilbert(4), 60)) == ref
    finally:
        sys.setswitchinterval(interval)


def test_pooled_walk_raises_the_serial_power_overflow(monkeypatch):
    # 2 x 2, blocks of 8 powers cut into slices of 2.  T^15 = 1e300 is
    # finite and T^16 overflows, in the third block; the products with
    # (I-T)^3 ~ -1e60 overflow from n = 14 on, in a slice of the second
    T = np.diag([1e20, 0.5])
    with pytest.raises(numlin.PowerOverflow) as ref:
        numlin.mat_power_seq(T, 40)
    assert ref.value.n == 16

    def overflow(call):
        def run():
            with pytest.raises(numlin.PowerOverflow) as exc:
                call()
            return exc.value.n
        return run

    for call in (lambda: power_bound(T, Hilbert(2), 40),
                 lambda: increment_bound(T, Hilbert(2), 40),
                 lambda: decay_suprema(T, Hilbert(2), 40),
                 lambda: decay_suprema(T, SupSeq(2), 40)):
        assert _at_worker_counts(monkeypatch, overflow(call), 8 * 64) == [16] * 3
    # without a power overflow the product's own error is raised
    def product_error():
        with pytest.raises(ValueError, match="non-finite") as exc:
            decay_suprema(T, Hilbert(2), 15)
        return type(exc.value)

    assert _at_worker_counts(monkeypatch, product_error, 8 * 64) == [ValueError] * 3


def test_ascent_constant_walks_stay_in_the_callers_thread(monkeypatch):
    # the lp:3 verdicts (dims 4-6, N = 32), the Schur n = 2 increment
    # bounds and the 65 powers of a not-ritt verdict fit in one block
    from rittcalc import lab

    def no_pool(workers):
        raise AssertionError("a pool task was submitted")

    monkeypatch.setattr(numlin, "_worker_count", lambda: 2)
    monkeypatch.setattr(numlin, "_pool", no_pool)
    cfg = ritt.RittConfig(N=32, beta_fracs=())
    for dim in (4, 5, 6):
        T = _ritt_matrix(dim, dim)
        rep = ritt_verdict(T, numlin.LpWeighted(3.0, tuple(np.linspace(0.5, 2.0, dim))), cfg)
        assert rep.N_used == 32
    t = np.array([[-0.9, 0.3], [0.5, 0.8]])
    inst = lab.gallery_schur(t, 3.0)
    for N in (16, 32):
        assert increment_bound(inst.operator, inst.space, N) > 0
    rep = ritt_verdict(np.diag(np.linspace(-0.5, 1.05, 16)), Hilbert(16),
                       ritt.RittConfig(N=128))
    assert rep.verdict == "not-ritt" and rep.N_used == 64


# ---------------------------------------------------------------------------
# decay_suprema: the maxima of the rows from few norms
# ---------------------------------------------------------------------------

SUPREMA_N = 40
SUPREMA_CUT = 17
SUPREMA_T = {
    "ritt": _ritt_matrix(4, 31),
    "identity": np.eye(4),
    "zero": np.zeros((4, 4)),
    "nilpotent": np.diag([0.5, 2.0, -1.0], 1),  # T^3 != 0, T^4 = 0
    # eigenvalues 0.98 and 0.95: rows of orders 1-3 peak after the cut
    "slow": np.array([[0.98, 1.0, 0, 0], [0, 0.95, 0, 0], [0, 0, 0.9, 0], [0, 0, 0, -0.5]]),
}


def _row_maxima(rows, cut):
    # the parent's reading of the rows: n <= cut is rows[0][:cut+1] and
    # rows[j][:cut] for j >= 1
    if cut is None:
        return [float(r.max()).hex() for r in rows]
    return [(float(r[:cut + (len(r) > SUPREMA_N)].max()).hex(), float(r.max()).hex())
            for r in rows]


def _hex_suprema(sup):
    return [tuple(float(v).hex() for v in s) if isinstance(s, tuple) else float(s).hex()
            for s in sup]


@pytest.mark.parametrize("kind", list(SUPREMA_T))
@pytest.mark.parametrize("space", POOL_MODELS, ids=repr)
def test_decay_suprema_are_the_row_maxima_bit_for_bit(monkeypatch, space, kind):
    # blocks of 22 powers cut into slices of 5; the cut at n = 17 splits a
    # slice; T = I and T = 0 give tied and constant rows
    T = SUPREMA_T[kind]
    monkeypatch.setattr(numlin, "RESOLVENT_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    rows = ritt.decay_profiles(T, space, SUPREMA_N)
    for cut in (None, SUPREMA_CUT):
        ref = _row_maxima(rows, cut)
        for workers in (1, 2, 8):
            monkeypatch.setattr(numlin, "_worker_count", lambda w=workers: w)
            got = ritt.decay_suprema(T, space, SUPREMA_N, cut=cut)
            assert _hex_suprema(got) == ref, (cut, workers)


def test_decay_suprema_orders_and_cut_checks():
    T = _ritt_matrix(4, 33)
    rows = ritt.decay_profiles(T, Hilbert(4), 30, orders=(3, 1))
    assert ritt.decay_suprema(T, Hilbert(4), 30, orders=(3, 1)) == tuple(
        float(r.max()) for r in rows)
    full = ritt.decay_suprema(T, Hilbert(4), 30, orders=(1,), cut=30)
    assert full[0][0] == full[0][1] == increment_bound(T, Hilbert(4), 30)
    for cut in (0, 31):
        with pytest.raises(ValueError, match="cut must lie in 1..N"):
            ritt.decay_suprema(T, Hilbert(4), 30, cut=cut)
    with pytest.raises(numlin.ShapeError, match="size 4 on space of dimension 3"):
        ritt.decay_suprema(T, Hilbert(3), 30)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_suprema_never_skip_a_non_finite_ceiling(monkeypatch, bad):
    # every ceiling 0 (which would rule a term out as soon as any norm is
    # known) except the one of the largest power, which is NaN or inf:
    # only that term gives the maximum, so it must be normed
    T = np.array([[0.5, 3.0], [0.0, 0.6]])
    row = ritt.decay_profiles(T, Hilbert(2), 30, orders=(0,))[0]
    n_max = int(np.argmax(row))
    assert n_max > 1
    peak = np.linalg.matrix_power(T.astype(complex), n_max)

    def rigged(self, A):
        c = np.zeros(len(A))
        c[np.all(np.abs(A - peak) <= 1e-14, axis=(1, 2))] = bad
        return c

    monkeypatch.setattr(numlin.Hilbert, "op_norm_ceilings", rigged)
    assert ritt.decay_suprema(T, Hilbert(2), 30, orders=(0,)) == (float(row.max()),)


def test_decay_suprema_raise_the_serial_power_overflow(monkeypatch):
    # T^16 overflows; the products with (I-T)^3 overflow from n = 14 on
    T = np.diag([1e20, 0.5])

    def raised(N, cut):
        def run():
            with pytest.raises((ValueError, numlin.PowerOverflow)) as exc:
                ritt.decay_suprema(T, Hilbert(2), N, cut=cut)
            return type(exc.value), getattr(exc.value, "n", None)
        return run

    for cut in (None, 8):
        assert _at_worker_counts(monkeypatch, raised(40, cut), 8 * 64) == [
            (numlin.PowerOverflow, 16)] * 3
        assert _at_worker_counts(monkeypatch, raised(15, cut), 8 * 64) == [(ValueError, None)] * 3


@pytest.mark.parametrize("space", POOL_MODELS, ids=repr)
def test_op_norm_ceilings_bound_op_norms(space):
    # random stacks at scales from 1e-40 to 1e40, a zero matrix among them
    rng = np.random.default_rng(34)
    d = space.dim
    A = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
    A[::3] = np.triu(A[::3])
    A *= 10.0 ** rng.uniform(-40, 40, size=(60, 1, 1))
    A[7] = 0.0
    values = numlin.op_norms(A, space)
    ceilings = space.op_norm_ceilings(A)
    assert np.all(values <= ceilings * (1.0 + 1e-12))
    assert ceilings[7] == 0.0


def test_verdict_norms_few_decay_matrices(monkeypatch):
    # a decaying dim-32 Hilbert operator at N = 256: the walk of 2N holds
    # 8N + 1 = 2049 decay terms
    T = _ritt_matrix(32, 35)
    N = 256
    normed = []
    op_norms = numlin.Hilbert.op_norms

    def counted(self, A):
        normed.append(len(A))
        return op_norms(self, A)

    monkeypatch.setattr(numlin.Hilbert, "op_norms", counted)
    rep = ritt_verdict(T, Hilbert(32), ritt.RittConfig(N=N, beta_fracs=()))
    assert rep.verdict == "ritt"
    assert 0 < sum(normed) <= 0.1 * (8 * N + 1)
    monkeypatch.undo()
    rows = ritt.decay_profiles(T, Hilbert(32), 2 * N)
    assert list(rep.decay) == [float(r.max()) for r in rows]


# ---------------------------------------------------------------------------
# the verdict's resolvent stage: every beta's nodes in one pooled pass
# ---------------------------------------------------------------------------

#: a Jordan-like pair whose pseudospectrum swallows the nodes of the first
#: verdict beta only, on every pool model
REFUSING_FIRST_BETA = np.kron(np.eye(2), np.array([[0.5, 2.5e6], [0.0, 0.5]]))


def _one_beta_calls(T, space, cfg):
    """The verdict's betas, each through the public one-beta call: a value,
    or the SingularMatrixError it raised."""
    alpha = spectral_type(T)
    out = []
    for f in cfg.beta_fracs:
        beta = alpha + (math.pi / 2 - alpha) * f
        try:
            out.append((beta, resolvent_sup(T, beta, space, ritt.RESOLVENT_PER_PIECE)))
        except numlin.SingularMatrixError as exc:
            out.append((beta, exc))
    return out


@pytest.mark.parametrize("space", POOL_MODELS, ids=repr)
def test_verdict_resolvent_stage_is_the_one_beta_calls_bit_for_bit(monkeypatch, space):
    # 28 nodes per beta, 84 in all: blocks of 5 on the small block bytes,
    # each beta's last block partial; the default block holds one beta
    cfg = ritt.RittConfig(N=8)
    monkeypatch.setattr(ritt, "RESOLVENT_PER_PIECE", 6)
    for T, refused in ((_ritt_matrix(4, 31), 0), (REFUSING_FIRST_BETA, 1)):
        calls = _one_beta_calls(T, space, cfg)
        want_res = {round(b, 12): v.hex() for b, v in calls if isinstance(v, float)}
        want_reasons = [f"resolvent_sup at beta={b:.6g} refused: {v}"
                        for b, v in calls if not isinstance(v, float)]
        assert len(want_reasons) == refused and want_res
        for rep in _at_worker_counts(monkeypatch, lambda: ritt_verdict(T, space, cfg)):
            assert {b: v.hex() for b, v in rep.resolvent_sup.items()} == want_res
            assert [r for r in rep.reasons if "refused" in r] == want_reasons
        monkeypatch.undo()


def test_verdict_takes_the_spectrum_once_and_no_stage_without_betas(monkeypatch, spectra):
    pools = []
    pool = numlin._pool

    def counted_pool(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(numlin, "_pool", counted_pool)
    monkeypatch.setattr(numlin, "_worker_count", lambda: 2)
    # with 118 nodes per beta on 32 x 32 operators the three betas take 12
    # blocks on the pool, and the walk of 33 powers fits in one block
    T = _ritt_matrix(32, 36)
    rep = ritt_verdict(T, Hilbert(32), ritt.RittConfig(N=16, beta_fracs=()))
    assert rep.resolvent_sup == {}
    assert spectra == {"eig": 0, "schur": 1} and pools == []
    rep = ritt_verdict(T, Hilbert(32), ritt.RittConfig(N=16))
    assert len(rep.resolvent_sup) == 3
    # the stage reads the verdict's angle
    assert spectra == {"eig": 0, "schur": 2} and pools


def _route_operator(one):
    """V diag(lams) V^-1, non-normal, with a semisimple eigenvalue 1 when ``one``."""
    lams = [1.0, 0.6j, -0.4] if one else [0.5, 0.3j, -0.2]
    rng = np.random.default_rng(6)
    V = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return V @ np.diag(lams) @ np.linalg.inv(V)


def _one_spectrum_routes():
    from rittcalc import lab, sqfun

    return {
        "spectral_type": spectral_type,
        "mean_ergodic_projection": mean_ergodic_projection,
        "resolvent_sup": lambda T: resolvent_sup(T, math.pi / 3, Hilbert(3), per_piece=4),
        "square_function": lambda T: sqfun.square_function(T, [1.0, 0.5, -1.0], Hilbert(3)),
        "gram_operator": sqfun.gram_operator,
        "similarity_builder": lab.similarity_builder,
    }


@pytest.mark.parametrize("one", [False, True], ids=["plain", "one"])
@pytest.mark.parametrize("route", sorted(_one_spectrum_routes()))
def test_each_route_takes_the_spectrum_once(spectra, route, one):
    # the verdict, the calculus, the transfer check and sf_constant have
    # their own counts; no route asks the eigensolver
    _one_spectrum_routes()[route](_route_operator(one))
    assert spectra == {"eig": 0, "schur": 1}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), one=st.booleans())
def test_one_spectrum_property(seed, dim, one):
    # the verdict, the angle and the calculus read one spectrum, its
    # cluster at 1 spans the fixed space, and resolvent_sup refuses the
    # spectral type itself and takes an angle just above it
    from rittcalc import funcalc

    T = _random_operator(seed, dim, one)[0]
    alpha = spectral_type(T)
    rep = ritt_verdict(T, config=ritt.RittConfig(N=8, beta_fracs=()))
    assert rep.type_alpha == alpha == funcalc.ContourCalculus(T).alpha
    k = ritt._spectrum(T)[1]
    assert k == one and np.linalg.matrix_rank(mean_ergodic_projection(T)) == k
    space = Hilbert(T.shape[0])
    with pytest.raises(ValueError, match="must exceed the spectral type"):
        resolvent_sup(T, alpha, space, per_piece=4)
    assert math.isfinite(resolvent_sup(T, alpha + 1e-6 * (math.pi / 2 - alpha), space, per_piece=4))


# ---------------------------------------------------------------------------
# the split at eigenvalue 1
# ---------------------------------------------------------------------------

#: V diag(1 + d, 0.5, 0.3 + 0.2i, -0.2) V^-1 with d = 2.467e-7 just inside
#: eigenvalue_one_tolerance (2.47e-7), draw 13314 of a 4 x 4 family from
#: np.random.default_rng(0), V = Q1 diag(geomspace(1, 10^u, 4)) Q2.  The
#: ordered Schur form reads 1 + d outside the tolerance, so no eigenvalue
#: is at 1 and the spectrum leaves the closed disc: every route says so.
AMBIGUOUS_ONE = np.array([
    [complex(-293.76729915216146, -26.535145648662848),
     complex(188.45580481182176, 681.35751948435905),
     complex(-119.54436417912221, -365.59940289472013),
     complex(-467.82797145657247, -137.70846244573113)],
    [complex(50.260831581085952, 3.0007052491256161),
     complex(-34.251737168899538, -115.26119484334731),
     complex(22.40910981384857, 61.703095902249565),
     complex(80.748265392182006, 21.090932320463523)],
    [complex(24.687859945459877, -583.05373344564816),
     complex(-1326.8251463396327, 431.29583446679175),
     complex(710.93623537933047, -270.98082073594333),
     complex(228.27458506695643, -937.6736343827082)],
    [complex(-177.47442547736875, 289.84929449518523),
     complex(796.67751030774821, 156.51789335483318),
     complex(-438.51458889117021, -62.925443966746769),
     complex(-381.31719881152378, 412.97716122795362)],
])


def test_the_ambiguous_operator_has_no_eigenvalue_one():
    # the premise of the tests below
    eigs, k, tol, S, Q = ritt._spectrum(AMBIGUOUS_ONE)
    off = np.abs(eigs - 1.0)
    assert k == 0 and 0.0 < off.min() <= 1.01 * tol and np.abs(eigs).max() > 1.0
    assert spectral_type(AMBIGUOUS_ONE) == stolz.NOT_STOLZ
    assert not mean_ergodic_projection(AMBIGUOUS_ONE).any()


@pytest.mark.parametrize("n", range(2, 41))
def test_split_one_without_eigenvalue_one_is_the_plain_schur_form(n):
    # with an empty cluster the ordered Schur form is the plain one bit for
    # bit, so no contour on an operator without eigenvalue 1 moves
    import scipy.linalg

    rng = np.random.default_rng(n)
    T = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    spectrum = ritt._spectrum(T)
    (P, U), (S, Q) = ritt._split_one(spectrum), spectrum[3:]
    S0, Q0 = scipy.linalg.schur(T, output="complex")
    assert P is None and U is S and spectrum[1] == 0
    assert np.array_equal(S, S0) and np.array_equal(Q, Q0)
    assert np.array_equal(spectrum[0], np.diag(S0))


def test_split_one_gives_the_projection_and_the_form_of_t_minus_p():
    lams = np.array([1.0, 1.0, 0.6j, -0.4])
    rng = np.random.default_rng(3)
    V = np.eye(4) + 0.4 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    T = V @ np.diag(lams) @ np.linalg.inv(V)
    spectrum = ritt._spectrum(T)
    (P, U), (S, Q) = ritt._split_one(spectrum), spectrum[3:]
    assert spectrum[1] == 2 and np.abs(spectrum[0][:2] - 1.0).max() <= spectrum[2]
    want = V @ np.diag([1.0, 1.0, 0.0, 0.0]) @ np.linalg.inv(V)
    assert np.linalg.norm(P - want, 2) <= 1e-12 * np.linalg.norm(want, 2)
    assert not np.tril(U, -1).any() and not np.tril(S, -1).any()
    assert np.linalg.norm(Q @ U @ Q.conj().T - (T - P), 2) <= 1e-12 * np.linalg.norm(T, 2)
    assert np.linalg.norm(Q @ S @ Q.conj().T - T, 2) <= 1e-12 * np.linalg.norm(T, 2)


def _refusal(call):
    """The exception ``call()`` raises, and the RuntimeWarnings it emits."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as exc:
            call()
    return exc.value, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_verdict_rules_the_ambiguous_operator_out():
    rep = ritt_verdict(AMBIGUOUS_ONE)
    assert rep.verdict == "not-ritt" and rep.N_used == 64
    assert rep.reasons == ["spectrum leaves the closed unit disc or touches its boundary off 1"]


def test_contour_routes_refuse_the_ambiguous_operator():
    from rittcalc import funcalc

    exc, warned = _refusal(lambda: funcalc.ContourCalculus(AMBIGUOUS_ONE, beta=math.pi / 4))
    assert type(exc) is funcalc.ContourSpectrumError and not warned
    assert str(exc) == "spectrum lies in no Stolz closure"
    exc, _ = _refusal(lambda: resolvent_sup(AMBIGUOUS_ONE, math.pi / 4, Hilbert(4)))
    assert type(exc) is ValueError and str(exc) == "spectrum lies in no Stolz closure"


@pytest.mark.parametrize("route", ["sf_constant", "gram_operator", "similarity_builder"])
def test_square_function_routes_refuse_the_ambiguous_operator(route):
    # not numpy's LinAlgError from an overflowing series, and no overflow warning
    from rittcalc import lab, sqfun

    call = {"sf_constant": lambda: sqfun.sf_constant(AMBIGUOUS_ONE, 1, Hilbert(4)),
            "gram_operator": lambda: sqfun.gram_operator(AMBIGUOUS_ONE),
            "similarity_builder": lambda: lab.similarity_builder(AMBIGUOUS_ONE)}[route]
    exc, warned = _refusal(call)
    assert type(exc) is sqfun.DivergenceError and "rho=1.0000002" in str(exc)
    assert not warned


def _cli_on_the_ambiguous_operator(tmp_path, capsys, args):
    """The exit code and the (stdout, stderr) lines of the CLI on AMBIGUOUS_ONE."""
    import json

    from rittcalc import cli
    from rittcalc.jsonutil import matrix_to_json

    path = tmp_path / "T.json"
    path.write_text(json.dumps(matrix_to_json(AMBIGUOUS_ONE)))
    code = cli.main([args[0], str(path), *args[1:]])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


@pytest.mark.parametrize("args", [["funcalc", "--phi", "z-one-minus", "--beta", "0.785398"],
                                  ["sqfun", "--constant"]], ids=["funcalc", "sqfun-constant"])
def test_cli_refuses_the_ambiguous_operator_in_one_line(tmp_path, capsys, args):
    code, out, err = _cli_on_the_ambiguous_operator(tmp_path, capsys, args)
    assert code == 1 and out == []
    assert len(err) == 1 and err[0].startswith("rittcalc: refused: ")


def test_cli_analyze_rules_the_ambiguous_operator_out(tmp_path, capsys):
    import json

    out_path = tmp_path / "report.json"
    code, _, err = _cli_on_the_ambiguous_operator(
        tmp_path, capsys, ["analyze", "--no-timestamp", "--out", str(out_path)])
    report = json.loads(out_path.read_text())["result"]
    assert code == 0 and err == []
    assert report["verdict"] == "not-ritt" and report["type_alpha"] == "not-Stolz"
