import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from rittcalc import stolz
from rittcalc.stolz import (MeshSpec, NOT_STOLZ, _check_angle, boundary_contour,
                            contour_moment, min_angle, sector_contour,
                            tangent_points)


# -- reference geometry: membership, arclength and winding ---------------------

def boundary_length(beta: float) -> float:
    """Arclength of the Stolz boundary: 2 cos(beta) + sin(beta) (pi + 2 beta)."""
    _check_angle(beta)
    return 2.0 * math.cos(beta) + math.sin(beta) * (math.pi + 2.0 * beta)


def _half_plane_margins(z: complex, gamma: float):
    """Signed inward distances of z to the three edges of the hull triangle."""
    tp, tm = tangent_points(gamma)
    margins = []
    for a, b in ((1.0 + 0j, tp), (tp, tm), (tm, 1.0 + 0j)):
        d = b - a
        # inward normal: interior of the (counterclockwise 1 -> tp -> tm) triangle
        # lies to the left of each directed edge
        cross = (d.real * (z.imag - a.imag) - d.imag * (z.real - a.real)) / abs(d)
        margins.append(cross)
    return margins


def contains(gamma: float, z: complex) -> bool:
    """Open membership z in B(gamma): inside the disc or the open tangent triangle."""
    _check_angle(gamma)
    if abs(z) < math.sin(gamma):
        return True
    return all(m > 0.0 for m in _half_plane_margins(z, gamma))


def contains_closure(gamma: float, z: complex, tol: float = 1e-12) -> bool:
    """Closed membership, with a tol-dilation of the domain."""
    _check_angle(gamma)
    if abs(z) <= math.sin(gamma) + tol:
        return True
    return all(m >= -tol for m in _half_plane_margins(z, gamma))


def integrate_dz(contour, values: np.ndarray) -> complex:
    """Contour integral of node values against dz."""
    return complex(np.sum(values * contour.weights * contour.tangents))


def winding_number(contour, z0: complex = 0.0) -> float:
    """Quadrature winding number of the contour about z0."""
    vals = 1.0 / (contour.nodes - z0)
    return (integrate_dz(contour, vals) / (2j * math.pi)).real


# -- tests ---------------------------------------------------------------------


def test_contains_examples():
    assert contains(math.pi / 4, 0.0)
    assert not contains(math.pi / 4, 1.0)  # the vertex is not interior
    # tangency: 0.5i sits exactly on the circle |z| = sin(pi/6)
    assert not contains(math.pi / 6, 0.5j)
    assert contains(math.pi / 6 + 1e-6, 0.5j * (1 - 1e-6))


def test_contains_monotone_in_gamma():
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1, 1, size=200) + 1j * rng.uniform(-1, 1, size=200)
    for z in zs:
        for g1, g2 in [(0.3, 0.6), (0.5, 1.2), (0.9, 1.4)]:
            if contains(g1, z):
                assert contains(g2, z)


def test_contains_conjugation_symmetry():
    rng = np.random.default_rng(1)
    zs = rng.uniform(-1, 1, size=200) + 1j * rng.uniform(-1, 1, size=200)
    for z in zs:
        assert contains(0.7, z) == contains(0.7, z.conjugate())


def test_min_angle_examples(monkeypatch):
    assert min_angle(1.0) == 0.0
    assert min_angle(0.5) == 0.0  # the segment [0, 1] lies in every hull
    # tangency oracle: on the arc portion the critical angle is arcsin|z|
    assert abs(min_angle(0.5j) - math.asin(0.5)) <= 1e-10
    assert abs(min_angle(-0.3) - math.asin(0.3)) <= 1e-10
    assert min_angle(-1.0) == NOT_STOLZ
    assert min_angle(1.0j) == NOT_STOLZ
    # MIN_ANGLE_TOL only snaps z to 0 next to the vertex and the segment [0, 1]
    assert min_angle(1.0 + 5e-13j) == min_angle(0.3 - 1e-12j) == min_angle(-1e-12) == 0.0
    assert min_angle(0.3 - 2e-12j) > 0.0
    for z in (1.0 + 2e-12, 0.6 + 0.8j, complex(math.nan, 0.0), complex(math.inf, 0.0)):
        assert min_angle(z) == NOT_STOLZ, z
    monkeypatch.setattr(stolz, "MIN_ANGLE_TOL", 1e-11)
    assert min_angle(0.3 - 2e-12j) == 0.0


def test_min_angle_is_the_membership_crossing():
    z = 0.3 + 0.25j
    g = min_angle(z)
    assert not contains_closure(g - 1e-8, z)
    assert contains_closure(g + 1e-8, z)


def _bisected_min_angle(z, tol=1e-12):
    """The 64-step bisection on tol-dilated membership that the closed form replaced."""
    z = complex(z)
    if abs(z - 1.0) <= tol:
        return 0.0
    if abs(z) >= 1.0:
        return NOT_STOLZ
    if abs(z.imag) <= tol and -tol <= z.real <= 1.0 + tol:
        return 0.0
    hi = math.pi / 2 - 1e-13
    if not contains_closure(hi, z, tol):
        return NOT_STOLZ
    lo = 1e-13
    if contains_closure(lo, z, tol):
        return lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if contains_closure(mid, z, tol):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _exact_min_angle(z):
    """40-digit bisection of exact closed membership: the disc |z| <= sin(gamma)
    or the triangle 1, tp, tm, with no dilation."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z.real, z.imag)

        def inside(g):
            r = mpmath.sin(g)
            if abs(z) <= r:
                return True
            tp = r * mpmath.expj(mpmath.pi / 2 - g)
            # counterclockwise 1 -> tp -> tm: z on or left of every edge
            for a, b in ((1, tp), (tp, mpmath.conj(tp)), (mpmath.conj(tp), 1)):
                d, e = b - a, z - a
                if d.real * e.imag - d.imag * e.real < 0:
                    return False
            return True

        lo, hi = mpmath.mpf(0), mpmath.pi / 2
        for _ in range(110):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if inside(mid) else (mid, hi)
        return float(hi)


def _closed_form_cases():
    """Disc-limited, cone-limited and near-vertex points, negative reals and
    moduli near 1, each with its conjugate."""
    rng = np.random.default_rng(25)
    disc = rng.uniform(0.01, 0.95, 30) * np.exp(1j * rng.uniform(math.pi / 2, math.pi, 30))
    theta = rng.uniform(0.05, 1.2, 30)
    cone = 1.0 - rng.uniform(0.05, 0.95, 30) * np.cos(theta) * np.exp(1j * theta)
    theta = rng.uniform(0.01, 1.5, 30)  # |1 - z| <= cos(theta): the cone branch
    rho = np.minimum(10.0 ** rng.uniform(-9, -1, 30), 0.99 * np.cos(theta))
    vertex = 1.0 - rho * np.exp(1j * theta)
    negative = -rng.uniform(0.01, 0.99, 10) + 0j
    near_one = (1.0 - 10.0 ** -rng.integers(2, 6, 20)) * np.exp(1j * rng.uniform(0.3, math.pi, 20))
    zs = np.concatenate([disc, cone, vertex, negative, near_one])
    return np.concatenate([zs, zs.conj()])


def test_min_angle_is_the_exact_infimum():
    zs = _closed_form_cases()
    got = stolz.min_angle(zs)
    assert _same_bits(got, [min_angle(z) for z in zs])  # an array is its scalars
    half = len(zs) // 2
    assert _same_bits(got[:half], got[half:])  # conjugation symmetry
    err = [abs(g - _exact_min_angle(z)) for g, z in zip(got, zs)]
    assert max(err) <= 1e-13


def test_min_angle_is_never_below_the_dilated_bisection():
    # the 1e-12 dilation let the bisection stop short of the infimum,
    # most near the vertex; the closed form never lies below it
    rng = np.random.default_rng(26)
    zs = np.concatenate([
        _closed_form_cases(),
        rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400),
        1.0 - 10.0 ** rng.uniform(-11, -1, 200) * np.exp(1j * rng.uniform(-1.6, 1.6, 200)),
    ])
    for z in zs:
        old, new = _bisected_min_angle(z), min_angle(z)
        assert new == old == NOT_STOLZ or new >= old - 1e-15, z


def test_tangent_points_match_symbolic_form():
    beta = math.pi / 4
    tp, tm = tangent_points(beta)
    assert abs(tp - (1 - math.cos(beta) * cmath.exp(-1j * beta))) <= 1e-15
    assert abs(tp - math.sin(beta) * cmath.exp(1j * (math.pi / 2 - beta))) <= 1e-15
    assert abs(tm - tp.conjugate()) <= 1e-15


def _on_boundary(z, beta, tol=1e-12):
    r = math.sin(beta)
    if abs(abs(z) - r) <= tol:
        return True
    tp, tm = tangent_points(beta)
    for a, b in ((1.0 + 0j, tp), (tm, 1.0 + 0j)):
        d = b - a
        t = ((z - a) / d).real
        if -tol <= t <= 1 + tol and abs((z - a) - t * d) <= tol:
            return True
    return False


def test_boundary_contour_nodes_weights_orientation():
    beta = math.pi / 4
    c = boundary_contour(beta)
    assert all(_on_boundary(z, beta) for z in c.nodes)
    assert np.all(c.weights > 0)
    assert abs(np.sum(c.weights) - boundary_length(beta)) <= 1e-8
    assert abs(winding_number(c) - 1.0) <= 1e-10


def test_boundary_length_vs_refined_mesh_oracle():
    beta = 0.9
    coarse = np.sum(boundary_contour(beta).weights)
    fine = np.sum(boundary_contour(beta, MeshSpec().refined().refined()).weights)
    assert abs(coarse - fine) <= 1e-8


def test_boundary_contour_rejects_bad_input():
    with pytest.raises(ValueError):
        boundary_contour(0.0)
    with pytest.raises(ValueError):
        boundary_contour(math.pi / 2)
    with pytest.raises(ValueError):
        MeshSpec(segment_panels=0)


def test_sector_contour_geometry():
    mesh = MeshSpec(segment_panels=10, points_per_panel=6)
    sc = sector_contour(math.pi / 2, 10.0, mesh)
    # rays on the imaginary axis
    assert np.max(np.abs(sc.nodes.real)) <= 1e-12
    assert len(sc.nodes) == 2 * 10 * 6
    assert abs(np.sum(sc.weights) - 2 * 10.0) <= 1e-10


def test_sector_contour_tail_factor():
    sc = sector_contour(1.0, 50.0)
    assert sc.tail_factor(1.0) == pytest.approx(1.0 / (50.0 * math.pi))
    assert sc.tail_factor(2.0) < sc.tail_factor(1.0)


def test_contour_moment_k1_is_length():
    for beta in (math.pi / 6, math.pi / 4):
        assert abs(contour_moment(beta, 1) - boundary_length(beta)) <= 1e-10


@pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_contour_moment_bounded_in_k(beta):
    vals = [contour_moment(beta, k) for k in (1, 2, 5, 10, 50, 100, 250, 500)]
    assert all(np.isfinite(vals))
    # bounded: the tail of the sequence does not grow
    assert max(vals[4:]) <= max(vals) + 1e-12


def test_contour_moment_mesh_stability_k100():
    a = contour_moment(math.pi / 4, 100)
    b = contour_moment(math.pi / 4, 100, MeshSpec().refined())
    assert abs(a - b) <= 1e-8


def test_one_contour_type():
    c, sc = boundary_contour(math.pi / 4), sector_contour(1.0, 50.0)
    assert type(c) is type(sc) is stolz.Contour
    assert [f.name for f in dataclasses.fields(stolz.Contour)] == [
        "nodes", "tangents", "weights", "r_max"]
    assert c.r_max == math.inf and c.tail_factor(1.0) == 0.0
    assert sc.r_max == 50.0


def _same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _mirrored(up, low, nodes, tangents, weights):
    # the lower piece is the reversed conjugate of the upper one, run backward
    return (_same_bits(nodes[low][::-1], nodes[up].conj())
            and _same_bits(tangents[low][::-1], -tangents[up].conj())
            and _same_bits(weights[low][::-1], weights[up]))


@pytest.mark.parametrize("beta", [0.3, math.pi / 4, math.pi / 3, 1.2, 1.5])
def test_boundary_contour_is_conjugate_symmetric_bit_for_bit(beta):
    mesh = MeshSpec()
    for _ in range(5):
        c = boundary_contour(beta, mesh)
        m = len(c.nodes)
        k = (m - mesh.arc_panels * mesh.points_per_panel) // 2  # nodes on a segment
        assert _mirrored(slice(0, k), slice(m - k, m), c.nodes, c.tangents, c.weights)
        mesh = mesh.refined()


@pytest.mark.parametrize("nu, r_max", [(0.5, 10.0), (1.0, 1e7), (1.4, 50.0)])
def test_sector_contour_rays_are_conjugate_symmetric_bit_for_bit(nu, r_max):
    mesh = MeshSpec(segment_panels=90, arc_panels=1, points_per_panel=10,
                    grading_ratio=0.5, min_panel=1e-14)
    for _ in range(3):
        sc = sector_contour(nu, r_max, mesh)
        k = len(sc.nodes) // 2
        assert _mirrored(slice(0, k), slice(k, 2 * k), sc.nodes, sc.tangents, sc.weights)
        mesh = mesh.refined()


@pytest.mark.parametrize("beta, counts", [
    (math.pi / 4, [560, 1260, 2240, 3600, 6240]),
    (math.pi / 3, [560, 1260, 2200, 3550, 6180]),
])
def test_boundary_contour_node_counts_per_level(beta, counts):
    mesh, got = MeshSpec(), []
    for _ in counts:
        got.append(len(boundary_contour(beta, mesh).nodes))
        mesh = mesh.refined()
    assert got == counts


@pytest.mark.parametrize("gamma", [0.4, 1.0, math.pi / 2])
def test_boundary_param_points_are_the_piece_formulas_bit_for_bit(gamma):
    pieces = stolz.boundary_param(gamma, 64)
    if gamma == math.pi / 2:
        ((th, circle, _),) = pieces
        assert _same_bits(circle(th), np.exp(1j * th))
        return
    (s, upper, _), (s_low, lower, _), (th, arc, _) = pieces
    tp, tm = tangent_points(gamma)
    assert _same_bits(s, s_low)
    assert _same_bits(upper(s), 1.0 + s * (tp - 1.0))
    assert _same_bits(lower(s), 1.0 + s * (tm - 1.0))
    assert _same_bits(arc(th), math.sin(gamma) * np.exp(1j * th))
    assert th[0] == math.pi / 2 - gamma and th[-1] == 3 * math.pi / 2 + gamma


@pytest.mark.parametrize("gamma", [0.0, -0.1, math.pi / 2 + 1e-12, 2.0, 3.0,
                                   math.inf, math.nan])
def test_boundary_param_rejects_an_angle_outside_the_range(gamma):
    with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
        stolz.boundary_param(gamma)
    with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
        stolz.boundary_samples(gamma)


@pytest.mark.parametrize("per_piece", [0, -3])
def test_boundary_param_rejects_an_empty_sample(per_piece):
    # per_piece 0 used to give empty grids, so resolvent_sup read 0.0
    with pytest.raises(ValueError, match="per_piece >= 1"):
        stolz.boundary_param(0.5, per_piece)


@pytest.mark.parametrize("r_max", [math.inf, math.nan, 0.0, -1.0])
def test_sector_contour_rejects_a_bad_radius(r_max):
    with pytest.raises(ValueError, match="r_max must be positive and finite"):
        sector_contour(1.0, r_max)
