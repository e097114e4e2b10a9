"""Dual 3-vector algebra and dual angles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualcurves import (DualScalar, DualVec3, apply_analytic, cross, det3,
                        dot, dual_angle, norm, normalize)
from dualcurves.errors import DegenerateAngle, NotUnit, PureDualVector
from dualcurves.linalg import is_pure_dual_vec

coord = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)
vec3 = st.builds(lambda a, b, c, d, e, f: DualVec3.from_arrays([a, b, c],
                                                               [d, e, f]),
                 coord, coord, coord, coord, coord, coord)

E1 = DualVec3.from_arrays([1, 0, 0])
E2 = DualVec3.from_arrays([0, 1, 0])
E3 = DualVec3.from_arrays([0, 0, 1])


def test_dot_worked():
    u = DualVec3.from_arrays([1, 0, 0], [0, 1, 0])
    v = DualVec3.from_arrays([0, 1, 0], [1, 0, 0])
    d = dot(u, v)
    assert d.re == 0.0 and d.du == 2.0


def test_dot_self_orthogonal_dual_part():
    u = DualVec3.from_arrays([1, 0, 0], [0, 1, 0])
    d = dot(u, u)
    assert d.re == 1.0 and d.du == 0.0


def test_cross_basis():
    c = cross(E1, E2)
    assert np.allclose(c.re, [0, 0, 1]) and np.allclose(c.du, 0)


def test_cross_self_vanishes():
    u = DualVec3.from_arrays([1, 2, 3], [4, 5, 6])
    c = cross(u, u)
    assert np.allclose(c.re, 0) and np.allclose(c.du, 0)


def test_cross_dual_parts_worked():
    # ((1,0,0)+eps(0,0,-1)) x ((1,0,0)+eps 0): real parts parallel, so the
    # cross lives entirely in the dual part
    u = DualVec3.from_arrays([1, 0, 0], [0, 0, -1])
    v = DualVec3.from_arrays([1, 0, 0])
    c = cross(u, v)
    assert np.allclose(c.re, 0)
    assert np.allclose(c.du, [0, -1, 0])


def test_norm_worked():
    u = DualVec3.from_arrays([3, 4, 0], [1, 0, 0])
    n = norm(u)
    assert n.re == 5.0
    assert abs(n.du - 3.0 / 5.0) < 1e-15


def test_norm_unit_with_orthogonal_dual():
    u = DualVec3.from_arrays([1, 0, 0], [0, 2, 0])
    n = norm(u)
    assert abs(n.re - 1.0) < 1e-15 and abs(n.du) < 1e-15


def test_norm_pure_dual_errors():
    with pytest.raises(PureDualVector):
        norm(DualVec3.from_arrays([0, 0, 0], [1, 0, 0]))


def test_normalize_worked():
    u = normalize(DualVec3.from_arrays([2, 0, 0]))
    assert np.allclose(u.re, [1, 0, 0]) and np.allclose(u.du, 0)
    v = normalize(DualVec3.from_arrays([0, 3, 0], [0, 0, 6]))
    assert np.allclose(v.re, [0, 1, 0])
    assert np.allclose(v.du, [0, 0, 2])
    n = norm(v)
    assert abs(n.re - 1.0) < 1e-15 and abs(n.du) < 1e-15


def test_normalize_idempotent():
    u = normalize(DualVec3.from_arrays([1, 2, 2], [0.3, -0.1, 0.4]))
    again = normalize(u)
    assert np.max(np.abs(again.re - u.re)) <= 1e-15
    assert np.max(np.abs(again.du - u.du)) <= 1e-15


def test_det3_identity_and_alternating():
    d = det3(E1, E2, E3)
    assert d.re == 1.0 and d.du == 0.0
    u = DualVec3.from_arrays([1, 2, 3], [4, 5, 6])
    v = DualVec3.from_arrays([7, 1, 0], [2, 2, 2])
    rep = det3(u, u, v)
    assert abs(rep.re) < 1e-15 and abs(rep.du) < 1e-15


@given(vec3, vec3, vec3)
def test_det3_matches_triple_product(u, v, w):
    d = det3(u, v, w)
    tp = dot(u, cross(v, w))
    assert abs(d.re - tp.re) <= 1e-12 * max(1.0, abs(tp.re))
    assert abs(d.du - tp.du) <= 1e-12 * max(1.0, abs(tp.du))


@given(vec3, vec3)
def test_cross_orthogonal_to_factors(u, v):
    c = cross(u, v)
    d = dot(c, u)
    scale = max(1.0, float(np.max(np.abs(u.re))) * float(np.max(np.abs(v.re))))
    assert abs(d.re) <= 1e-12 * scale * 10
    assert abs(d.du) <= 1e-11 * scale * 10


@given(vec3, vec3)
def test_norm_cross_dot_identity(u, v):
    # ||u x v||^2 + <u,v>^2 = ||u||^2 ||v||^2 in dual arithmetic
    try:
        nu, nv = norm(u), norm(v)
    except PureDualVector:
        return
    lhs = dot(cross(u, v), cross(u, v)) + dot(u, v) * dot(u, v)
    rhs = nu * nu * nv * nv
    scale = max(1.0, abs(rhs.re), abs(rhs.du))
    assert abs(lhs.re - rhs.re) <= 1e-9 * scale
    assert abs(lhs.du - rhs.du) <= 1e-9 * scale


def test_dual_angle_worked():
    u = DualVec3.from_arrays([1, 0, 0])
    v = DualVec3.from_arrays([0, 1, 0], [-1, 0, 0])
    ang = dual_angle(u, v)
    assert abs(ang.phi - math.pi / 2) < 1e-15
    assert abs(ang.phi_star - 1.0) < 1e-15


def test_dual_angle_real_perpendicular():
    ang = dual_angle(E1, E2)
    assert abs(ang.phi - math.pi / 2) < 1e-15 and ang.phi_star == 0.0


def test_dual_angle_same_vector_degenerate():
    with pytest.raises(DegenerateAngle):
        dual_angle(E1, E1)


def test_dual_angle_rounded_parallel_pair_degenerate():
    # Parallel to round-off: the real dot rounds to 1 - 2**-53, which acos
    # turns into a noise angle of 2**-26 ~ 1.5e-8, well above 1e-9.
    v = DualVec3(DualScalar(1.0 - 2.0**-53), DualScalar(0.0), DualScalar(0.0))
    assert dot(E1, v).re == 1.0 - 2.0**-53
    assert math.sin(math.acos(dot(E1, v).re)) > 1e-9
    with pytest.raises(DegenerateAngle):
        dual_angle(E1, v)
    with pytest.raises(DegenerateAngle):
        dual_angle(v, -E1)


def test_is_pure_dual_vec_is_euclidean():
    tiny = 0.8e-9  # each component below 1e-9, the length 1.13e-9 above it
    assert not is_pure_dual_vec(DualVec3.from_arrays([tiny, tiny, 0.0]))
    assert is_pure_dual_vec(DualVec3.from_arrays([tiny, 0.0, 0.0], [5.0, 0.0, 0.0]))
    assert is_pure_dual_vec([DualScalar(0.0, 1.0)] * 3)
    with pytest.raises(PureDualVector):
        norm(DualVec3.from_arrays([tiny, 0.0, 0.0], [1.0, 0.0, 0.0]))


def test_dual_angle_requires_unit():
    with pytest.raises(NotUnit):
        dual_angle(DualVec3.from_arrays([2, 0, 0]), E2)
    with pytest.raises(NotUnit):
        dual_angle(E1, DualVec3.from_arrays([0, 1, 0], [0, 1, 0]))


def test_dual_cosine_roundtrip():
    # applying the dual cosine to the angle recovers dot(u, v)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b -= (b @ a) * a
        nb = np.linalg.norm(b)
        if nb < 1e-3:
            continue
        b /= nb
        mix = math.cos(0.9) * a + math.sin(0.9) * b
        astar = np.cross(rng.normal(size=3), a)
        mstar = np.cross(rng.normal(size=3), mix)
        u = DualVec3.from_arrays(a, astar)
        v = DualVec3.from_arrays(mix, mstar)
        ang = dual_angle(u, v)
        back = apply_analytic("cos", DualScalar(ang.phi, ang.phi_star))
        d = dot(u, v)
        assert abs(back.re - d.re) <= 1e-9
        assert abs(back.du - d.du) <= 1e-9
