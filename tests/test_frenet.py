"""Frenet frame, curvature, torsion: closed-form oracles and residuals."""

import math

import numpy as np
import pytest

from dualcurves import (DualVec3, compile_curve, cross, det3, dot, frenet_at,
                        frenet_ode_residual, norm, normalize)
from dualcurves.errors import PureDualCurvature
from tests.conftest import TWO_PI


def vecs_close(u: DualVec3, v: DualVec3, tol: float) -> None:
    assert np.max(np.abs(u.re - v.re)) <= tol
    assert np.max(np.abs(u.du - v.du)) <= tol


def test_real_helix_closed_form(unit_helix):
    # r/(r^2+h^2) and h/(r^2+h^2) with r = h = 1
    fd = frenet_at(unit_helix, 1.3)
    assert abs(fd.kappa.re - 0.5) <= 1e-14
    assert abs(fd.kappa.du) <= 1e-14
    assert abs(fd.tau.re - 0.5) <= 1e-14
    assert abs(fd.tau.du) <= 1e-14


def test_dual_helix_closed_form(dual_helix):
    # substitute r = 1+eps into the helix formulas with dual division:
    # kappa = (1+eps)/(2+2eps) = 1/2 + eps*0, tau = 1/(2+2eps) = 1/2 - eps/2
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, TWO_PI, size=100):
        fd = frenet_at(dual_helix, float(t))
        assert abs(fd.kappa.re - 0.5) <= 1e-10
        assert abs(fd.kappa.du) <= 1e-10
        assert abs(fd.tau.re - 0.5) <= 1e-10
        assert abs(fd.tau.du + 0.5) <= 1e-10


def test_straight_line_has_no_frame():
    line = compile_curve("[t, 0, 0]", (0.0, 1.0))
    with pytest.raises(PureDualCurvature):
        frenet_at(line, 0.5)


def test_frame_orthonormal_and_right_handed(dual_helix, twisted_cubic,
                                            const_curvature_dual):
    curves = [(dual_helix, 0.0, TWO_PI), (twisted_cubic, -0.9, 0.9),
              (const_curvature_dual, 0.16, 1.19)]
    rng = np.random.default_rng(5)
    for curve, a, b in curves:
        for t in rng.uniform(a, b, size=100):
            fd = frenet_at(curve, float(t))
            for u in (fd.T, fd.N, fd.B):
                n = norm(u)
                assert abs(n.re - 1.0) <= 1e-9 and abs(n.du) <= 1e-9
            for u, v in ((fd.T, fd.N), (fd.T, fd.B), (fd.N, fd.B)):
                d = dot(u, v)
                assert abs(d.re) <= 1e-9 and abs(d.du) <= 1e-9
            vecs_close(fd.B, cross(fd.T, fd.N), 1e-9)
            dt = det3(fd.T, fd.N, fd.B)
            assert abs(dt.re - 1.0) <= 1e-9 and abs(dt.du) <= 1e-9
            assert abs(fd.kappa.re) > 1e-9


def test_ode_residuals_small_at_h_1e4(dual_helix, unit_circle, twisted_cubic):
    cases = [(dual_helix, 2.0), (unit_circle, 1.0), (twisted_cubic, 0.4)]
    for curve, t in cases:
        rT, rN, rB = frenet_ode_residual(curve, t, 1e-4)
        assert rT <= 1e-6 and rN <= 1e-6 and rB <= 1e-6


def test_ode_residuals_second_order(dual_helix):
    # central differences: halving h divides the residual by about 4
    coarse = frenet_ode_residual(dual_helix, 2.0, 1e-3)
    fine = frenet_ode_residual(dual_helix, 2.0, 5e-4)
    for c, f in zip(coarse, fine):
        if c < 1e-12:
            continue
        assert 3.0 <= c / f <= 5.0


def test_plane_curve_torsion_vanishes(dual_circle):
    for t in np.linspace(0.1, TWO_PI - 0.1, 25):
        fd = frenet_at(dual_circle, float(t))
        assert abs(fd.tau.re) <= 1e-10
        assert abs(fd.tau.du) <= 1e-10


def test_torsion_consistent_with_normal_derivative(dual_helix,
                                                   const_curvature_dual):
    # tau must match <N'(s), B> with a centered difference in arc length
    from dualcurves import DualScalar, arc_length, div

    for curve, t in ((dual_helix, 2.5), (const_curvature_dual, 0.6)):
        h = 1e-4
        lo = frenet_at(curve, t - h)
        hi = frenet_at(curve, t + h)
        mid = frenet_at(curve, t)
        ds = arc_length(curve, t - h, t + h)
        dN = (hi.N - lo.N) * div(DualScalar(1.0), ds)
        got = dot(dN, mid.B)
        assert abs(got.re - mid.tau.re) <= 1e-6
        assert abs(got.du - mid.tau.du) <= 1e-6


def test_const_curvature_closed_form(const_curvature):
    # curvature is exactly 1, torsion tan(3t/5), for the curve in conftest
    for t in (0.2, 0.55, 1.1):
        fd = frenet_at(const_curvature, t)
        assert abs(fd.kappa.re - 1.0) <= 1e-12
        assert abs(fd.tau.re - math.tan(0.6 * t)) <= 1e-11
        assert abs(fd.kappa.du) <= 1e-12
        assert abs(fd.tau.du) <= 1e-11


def test_const_curvature_dual_scaling(const_curvature_dual):
    # scaling a curve by 1+eps divides curvature and torsion by 1+eps
    for t in (0.3, 0.8):
        fd = frenet_at(const_curvature_dual, t)
        assert abs(fd.kappa.re - 1.0) <= 1e-12
        assert abs(fd.kappa.du + 1.0) <= 1e-11
        want = math.tan(0.6 * t)
        assert abs(fd.tau.re - want) <= 1e-11
        assert abs(fd.tau.du + want) <= 1e-10


def test_tangent_is_normalized_velocity(dual_helix, twisted_cubic):
    # T divides by the speed frenet_at already holds; the bits match normalize.
    for curve in (dual_helix, twisted_cubic):
        for t in (0.2, 0.5, 0.9):
            assert frenet_at(curve, t).T == normalize(curve.eval(t).d1)


def test_to_dict_schema(dual_helix):
    d = frenet_at(dual_helix, 1.0).to_dict()
    assert set(d) == {"t", "T", "N", "B", "kappa", "tau"}
    assert set(d["T"]) == {"re", "du"}
    assert set(d["kappa"]) == {"re", "du"}
