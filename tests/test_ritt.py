import math

import numpy as np
import pytest

from rittcalc import numlin, ritt, stolz
from rittcalc.numlin import Hilbert
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
