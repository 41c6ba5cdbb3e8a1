"""The verdict's two sweeps evaluate few terms and nodes, bit for bit.

``ritt.decay_suprema`` stops walking the powers once a ceiling built from
one power's norm rules out every term it has not reached, and must give
the maxima and the errors of the full walk.  ``ritt.resolvent_sup``
samples one layer next to the Stolz boundary: by the maximum principle
that layer holds the maximum over the outer dilation layers and far
circles too, and it refuses an angle at or below the spectral type,
where the supremum is infinite.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittcalc import numlin, ritt, stolz
from rittcalc.numlin import Hilbert, LpWeighted, SchattenP, SupSeq
from test_numlin import GALLERY

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
       grow=st.sampled_from([0.0, 0.0, 0.02]), cut=st.sampled_from([None, 1, 17, 40]))
def test_decay_suprema_are_the_row_maxima_on_random_operators(seed, model, radius, vcond,
                                                              grow, cut):
    # Ritt operators, whose walks may stop early, and growing ones, whose
    # power ceilings never fall below 1
    N = 80
    space = MODELS[model]
    T = _operator(seed, radius, vcond, grow)
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp)
        ref = _row_maxima(ritt.decay_profiles(T, space, N), N, cut)
        ends = _walked(mp)
        got = ritt.decay_suprema(T, space, N, cut=cut)
    assert _hex(got) == ref
    if grow:
        assert ends[-1] == N  # a growing walk never stops


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("cut", [None, 100])
def test_decaying_walks_stop_early(monkeypatch, model, cut):
    # spectral radius 0.5: after the first block of 16 powers the ceiling
    # of T^8 rules out every later term of 2N = 200
    N = 200
    space = MODELS[model]
    T = _operator(7, 0.5, 2.0)
    _small_blocks(monkeypatch)
    ref = _row_maxima(ritt.decay_profiles(T, space, N), N, cut)
    ends = _walked(monkeypatch)
    got = ritt.decay_suprema(T, space, N, cut=cut)
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

def _outer_family(beta, per_piece):
    """The sample family of resolvent_sup before it kept one layer: the
    boundary dilated by 1 + 10^-k, k = 1..4, and 64 points on each of the
    circles |lam| = 2 and 10, minus the vertex disc."""
    base = stolz.boundary_samples(beta, per_piece)
    circle = np.exp(1j * np.linspace(0.0, 2 * math.pi, 64, endpoint=False))
    layers = [(1.0 + 10.0 ** (-k)) * base for k in range(1, 5)]
    lam = np.concatenate(layers + [2.0 * circle, 10.0 * circle])
    return lam[np.abs(lam - 1.0) > ritt.VERTEX_EXCLUSION]


#: fixed operators on every model, and the gallery on Hilbert
VERDICT_CASES = {
    **{f"{model}-{seed}": (_operator(seed, 0.9, vcond), MODELS[model])
       for model in sorted(MODELS) for seed, vcond in [(5, 10.0), (8, 1e3)]},
    **{name: (T, Hilbert(T.shape[0])) for name, T in sorted(GALLERY.items())},
}


@pytest.mark.parametrize("name", VERDICT_CASES)
def test_resolvent_sup_is_the_maximum_over_the_outer_family(name):
    # the maximum principle on the verdict's inputs: the layer next to the
    # boundary alone gives the maximum over every outer node, bit for bit
    T, space = VERDICT_CASES[name]
    per_piece = ritt.RESOLVENT_PER_PIECE
    alpha = ritt.spectral_type(T)
    for f in ritt.RittConfig().beta_fracs:
        beta = alpha + (math.pi / 2 - alpha) * f
        lam = _outer_family(beta, per_piece)
        ref = float(space.scaled_resolvent_norms(numlin.as_matrix(T), lam).max())
        assert ritt.resolvent_sup(T, beta, space, per_piece).hex() == ref.hex(), f


@pytest.mark.parametrize("model", sorted(MODELS))
def test_resolvent_sup_refuses_an_angle_at_or_below_the_spectral_type(model):
    # the supremum is infinite there, so no value is given: diag(0.6i, 0.3)
    # of type 0.644 at the angles 0.2, 0.5 and the type itself, an
    # eigenvalue planted on a node of the pi/4 layer, and a spectrum in no
    # Stolz closure
    space, per_piece = MODELS[model], 6
    lam = ritt.resolvent_sample_points(np.zeros((4, 4)), math.pi / 4, per_piece)
    low = np.diag([0.6j, 0.3, 0.0, 0.0])
    alpha = ritt.spectral_type(low)
    assert abs(alpha - math.asin(0.6)) <= 1e-12
    planted = np.diag([lam[len(lam) // 2], 0.3, 0.2j, -0.1])
    for T, beta in ((low, 0.2), (low, 0.5), (low, alpha), (planted, math.pi / 4)):
        with pytest.raises(ValueError, match=r"^beta=.* must exceed the spectral type "):
            ritt.resolvent_sup(T, beta, space, per_piece)
    with pytest.raises(ValueError, match="^spectrum lies in no Stolz closure$"):
        ritt.resolvent_sup(np.diag([0.5, -1.0, 0.0, 0.0]), 1.0, space, per_piece)
    assert math.isfinite(ritt.resolvent_sup(low, alpha + 1e-3, space, per_piece))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_verdict_refuses_one_beta_and_keeps_the_others_in_beta_order(monkeypatch, model):
    # a Jordan pair of type below every verdict beta whose pseudospectrum
    # swallows nodes of the first beta only: the verdict refuses that beta,
    # as its one-beta call does, and gives the others' one-beta values bit
    # for bit, on two workers
    space, per_piece, cfg = MODELS[model], 6, ritt.RittConfig(N=8)
    monkeypatch.setattr(ritt, "RESOLVENT_PER_PIECE", per_piece)
    T = np.diag([0.5, 0.5, 0.3, 0.1]).astype(complex)
    T[0, 1] = 2.5e6
    alpha = ritt.spectral_type(T)
    betas = [alpha + (math.pi / 2 - alpha) * f for f in cfg.beta_fracs]
    # 84 nodes in blocks of 5 on two workers
    _small_blocks(monkeypatch, block_len=22)
    monkeypatch.setattr(numlin, "_worker_count", lambda: 2)
    with pytest.raises(numlin.SingularMatrixError) as exc:
        ritt.resolvent_sup(T, betas[0], space, per_piece)
    rep = ritt.ritt_verdict(T, space, cfg)
    assert [r for r in rep.reasons if "refused" in r] == [
        f"resolvent_sup at beta={betas[0]:.6g} refused: {exc.value}"]
    want = {round(b, 12): ritt.resolvent_sup(T, b, space, per_piece).hex() for b in betas[1:]}
    assert {b: v.hex() for b, v in rep.resolvent_sup.items()} == want
