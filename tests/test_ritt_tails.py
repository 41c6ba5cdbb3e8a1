"""The verdict's two sweeps end early without changing a bit.

``ritt.decay_suprema`` stops walking the powers once a ceiling built from
one power's norm rules out every term it has not reached, and
``ritt.resolvent_sup`` skips the nodes whose Neumann-series ceiling
cannot reach the maximum.  Both must give the maxima, refusals and
warnings of the full sweeps.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import numlin, ritt
from rittcalc.numlin import Hilbert, LpWeighted, SchattenP, SupSeq

#: every model on 4-vectors (Schatten on 2 x 2 matrices)
MODELS = {
    "hilbert": Hilbert(4),
    "lp3": LpWeighted(3.0, (1.0, 2.0, 0.5, 1.5)),
    "schatten2": SchattenP(2.0, 2),
    "schatten3": SchattenP(3.0, 2),
    "sup": SupSeq(4),
}
#: powers per block of 4 x 4 operators in these tests
BLOCK_LEN = 16


def _small_blocks(mp, dim=4, block_len=BLOCK_LEN):
    mp.setattr(numlin, "RESOLVENT_BLOCK_BYTES", block_len * 16 * dim * dim)


def _operator(seed, radius, vcond, grow=0.0, dim=4):
    """V diag(lam) V^-1 with |lam| <= radius and cond(V) = vcond; with grow
    > 0 one eigenvalue is 1 + grow."""
    rng = np.random.default_rng(seed)
    lam = radius * np.sqrt(rng.uniform(size=dim)) * np.exp(1j * rng.uniform(-1.2, 1.2, size=dim))
    lam[0] = radius
    if grow:
        lam[1] = 1.0 + grow
    Q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    Q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    V = Q1 @ np.diag(np.geomspace(1.0, vcond, dim)) @ Q2
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _row_maxima(rows, N, cut):
    # n <= cut is rows[0][:cut + 1] and rows[j][:cut] for j >= 1
    if cut is None:
        return [float(r.max()).hex() for r in rows]
    return [(float(r[:cut + (len(r) > N)].max()).hex(), float(r.max()).hex()) for r in rows]


def _hex(sup):
    return [tuple(float(v).hex() for v in s) if isinstance(s, tuple) else float(s).hex()
            for s in sup]


def _walked(mp):
    """The last power of every block that the walks take from now on."""
    ends = []

    def counted(T, N, _fn=numlin.power_blocks):
        for s, P in _fn(T, N):
            ends.append(s + len(P) - 1)
            yield s, P

    mp.setattr(ritt, "power_blocks", counted)
    return ends


# ---------------------------------------------------------------------------
# the walk over the powers
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(sorted(MODELS)),
       radius=st.floats(0.1, 0.97), vcond=st.floats(1.0, 30.0),
       grow=st.sampled_from([0.0, 0.0, 0.02]), with_left=st.booleans(),
       cut=st.sampled_from([None, 1, 17, 40]))
def test_decay_suprema_are_the_row_maxima_on_random_operators(seed, model, radius, vcond,
                                                              grow, with_left, cut):
    # Ritt operators, whose walks may stop early, and growing ones, whose
    # power ceilings never fall below 1
    N = 80
    space = MODELS[model]
    T = _operator(seed, radius, vcond, grow)
    left = _operator(seed + 1, 0.9, 3.0) if with_left else None
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp)
        ref = _row_maxima(ritt.decay_profiles(T, space, N, left=left), N, cut)
        ends = _walked(mp)
        got = ritt.decay_suprema(T, space, N, left=left, cut=cut)
    assert _hex(got) == ref
    if grow:
        assert ends[-1] == N  # a growing walk never stops


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("with_left", [False, True], ids=["I", "left"])
@pytest.mark.parametrize("cut", [None, 100])
def test_decaying_walks_stop_early(monkeypatch, model, with_left, cut):
    # spectral radius 0.5: after the first block of 16 powers the ceiling
    # of T^8 rules out every later term of 2N = 200
    N = 200
    space = MODELS[model]
    T = _operator(7, 0.5, 2.0)
    left = _operator(8, 0.9, 3.0) if with_left else None
    _small_blocks(monkeypatch)
    ref = _row_maxima(ritt.decay_profiles(T, space, N, left=left), N, cut)
    ends = _walked(monkeypatch)
    got = ritt.decay_suprema(T, space, N, left=left, cut=cut)
    assert _hex(got) == ref
    assert ends[-1] < N // 4, ends


def test_tail_peak_is_the_maximum_over_k():
    # the closed form against every k, for peaks at k = 1, inside and at kmax
    for j, c, L, q, kmax in [(0, 5, 5, 0.5, 40), (3, 10, 4, 0.9, 200), (3, 10, 4, 0.99, 30),
                             (2, 1, 1, 0.7, 1), (1, 64, 32, 1e-300, 9), (3, 4, 2, 0.0, 50)]:
        brute = max((c + k * L) ** j * q**k * 2.5 for k in range(1, kmax + 1))
        assert ritt._tail_peak(j, c, L, q, 2.5, kmax) == brute
    assert math.isnan(ritt._tail_peak(3, 4, 2, 0.5, math.inf, 9))
    assert math.isnan(ritt._tail_peak(3, 4, 2, 0.5, math.nan, 9))


@pytest.mark.parametrize("T", [np.diag([1.0 - 1e-9, 0.5, -0.3 + 0.2j]),
                               np.diag([1.0, 1.0 - 1e-9, 0.3])],
                         ids=["radius-1-minus-1e-9", "eigenvalue-1"])
def test_slow_decay_walks_end_within_budget(monkeypatch, T):
    # a ceiling of T^L just below 1 puts the peak over k near 1e6 (taken in
    # closed form, never summed term by term); an eigenvalue 1 keeps every
    # ceiling at 1 or more, so the walk runs to the end.  Each walk of 4097
    # powers in 65 blocks takes well under a second.
    N = 4096
    space = Hilbert(3)
    _small_blocks(monkeypatch, dim=3, block_len=64)
    rows = ritt.decay_profiles(T, space, N)
    for cut in (None, N // 2):
        start = time.perf_counter()
        got = ritt.decay_suprema(T, space, N, cut=cut)
        assert time.perf_counter() - start < 30.0
        assert _hex(got) == _row_maxima(rows, N, cut)


def test_the_walk_stops_only_on_finite_ceilings_below_one(monkeypatch):
    # NaN, inf and 1 as the ceiling of the power T^L never end the walk;
    # 96 powers in blocks of 16 and slices of 4 hold no one-term slice
    N = 95
    T = _operator(9, 0.3, 1.0)
    _small_blocks(monkeypatch)
    ref = _hex(ritt.decay_suprema(T, Hilbert(4), N))
    ceilings = Hilbert.op_norm_ceilings
    for bad in (np.nan, np.inf, 1.0):
        def rigged(self, A, bad=bad):
            c = ceilings(self, A)
            return np.full(1, bad) if len(A) == 1 else c

        monkeypatch.setattr(Hilbert, "op_norm_ceilings", rigged)
        ends = _walked(monkeypatch)
        assert _hex(ritt.decay_suprema(T, Hilbert(4), N)) == ref
        assert ends[-1] == N


# ---------------------------------------------------------------------------
# the resolvent nodes
# ---------------------------------------------------------------------------

def _reference_sup(T, beta, space, per_piece):
    """resolvent_sup over every non-near node, in the node blocks of all of
    them: ``(value, warnings)`` or the first refusal ``(type, message)``."""
    lam = ritt.resolvent_sample_points(T, beta, per_piece)
    eigs = numlin.eig(T).eigenvalues
    near = np.abs(lam[:, None] - eigs[None, :]).min(axis=1) <= 1e-12 * (1.0 + np.abs(lam))
    z = lam[~near]
    step = numlin.node_block_len(z.size, T.shape[0])
    best = 0.0
    try:
        for s in range(0, z.size, step):
            best = max(best, float(space.scaled_resolvent_norms(T, z[s:s + step]).max()))
    except numlin.SingularMatrixError as exc:
        return type(exc), str(exc)
    skipped = int(np.count_nonzero(near))
    msgs = [f"resolvent_sup skipped {skipped} sample points inside the spectrum tolerance"]
    return float(best).hex(), msgs if skipped else []


def _sup(T, beta, space, per_piece):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = ritt.resolvent_sup(T, beta, space, per_piece)
    except numlin.SingularMatrixError as exc:
        return type(exc), str(exc)
    return float(value).hex(), [str(w.message) for w in caught]


def _near_two(seed, offset, coupling):
    """A Ritt 2 x 2 block beside mu I + coupling E_12, with mu at distance
    ``offset`` outside a node of the circle |lam| = 2: the spectral
    radius 2 + offset is at least the radius of every node of |lam| <= 2,
    so the series certifies none of them."""
    rng = np.random.default_rng(seed)
    mu = (2.0 + offset) * np.exp(2j * math.pi * int(rng.integers(64)) / 64)
    T = np.zeros((4, 4), dtype=complex)
    T[:2, :2] = _operator(seed, 0.6, 3.0, dim=2)
    T[2:, 2:] = [[mu, coupling], [0.0, mu]]
    return T


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(sorted(MODELS)),
       kind=st.sampled_from(["ritt", "growing", "near-two"]),
       radius=st.floats(0.1, 0.95), vcond=st.floats(1.0, 30.0),
       offset=st.sampled_from([0.0, 1e-7, 1e-3]), coupling=st.sampled_from([0.0, 1.0, 1e3]),
       frac=st.floats(0.05, 0.95), per_piece=st.integers(1, 3))
def test_resolvent_sup_is_the_maximum_over_every_node(seed, model, kind, radius, vcond,
                                                      offset, coupling, frac, per_piece):
    space = MODELS[model]
    if kind == "near-two":
        T = _near_two(seed, offset, coupling)
    else:
        T = _operator(seed, radius, vcond, 0.05 if kind == "growing" else 0.0)
    beta = 0.3 + (math.pi / 2 - 0.3) * frac
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp, block_len=40)  # several node blocks, quarter-length
        assert _sup(T, beta, space, per_piece) == _reference_sup(T, beta, space, per_piece)
    lam = ritt.resolvent_sample_points(T, beta, per_piece)
    ceiling = ritt._series_ceilings(numlin.as_matrix(T), space, lam)
    if kind == "near-two":
        assert not np.isfinite(ceiling[np.abs(lam) < 2.5]).any()
    sure = np.isfinite(ceiling)
    if sure.any():  # the ceilings bound what they rule out
        values = space.scaled_resolvent_norms(numlin.as_matrix(T), lam[sure])
        assert np.all(values <= ceiling[sure] * (1.0 + ritt._CEILING_MARGIN))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_resolvent_sup_skips_the_far_nodes(monkeypatch, model):
    # a decaying operator: the 128 nodes on |lam| = 2 and 10 are certified,
    # and only those whose ceiling reaches the maximum are evaluated: none
    # but on Schatten-3, whose n^|1/2-1/p| Frobenius ceilings are looser
    space = MODELS[model]
    T = _operator(11, 0.7, 3.0)
    beta = math.pi / 3
    ref = _reference_sup(T, beta, space, 6)
    seen = []
    norms = type(space).scaled_resolvent_norms

    def counted(self, T, z):
        seen.append(np.abs(z))
        return norms(self, T, z)

    monkeypatch.setattr(type(space), "scaled_resolvent_norms", counted)
    assert _sup(T, beta, space, 6) == ref
    lam = ritt.resolvent_sample_points(T, beta, 6)
    far = np.abs(lam) > 1.5
    assert far.sum() == 128
    ceiling = ritt._series_ceilings(T, space, lam)[far]
    assert np.isfinite(ceiling).all()
    reach = ceiling * (1.0 + ritt._CEILING_MARGIN) >= float.fromhex(ref[0])
    assert np.count_nonzero(np.concatenate(seen) > 1.5) == np.count_nonzero(reach)
    assert not reach.any() or model == "schatten3"


def test_series_ceilings_certify_no_node_when_the_powers_overflow():
    # T^2 is finite, T^3 overflows: every node keeps its evaluation
    T = np.diag([1e120, 0.5])
    lam = np.array([2.0, 10.0, 1e3j])
    assert np.all(ritt._series_ceilings(T, Hilbert(2), lam) == np.inf)


def test_series_ceilings_take_no_power_when_the_one_norm_rules_out_every_node(monkeypatch):
    # ||T||_1 = 2000 > 99 * 10: the 1-norm bound exceeds 1e4 at every node
    def no_powers(T, N):
        raise AssertionError("a power was taken")

    monkeypatch.setattr(ritt, "power_blocks", no_powers)
    T = np.array([[0.5, 2000.0], [0.0, 0.3]])
    lam = ritt.resolvent_sample_points(T, math.pi / 4, 4)
    assert np.all(ritt._series_ceilings(T, Hilbert(2), lam) == np.inf)
