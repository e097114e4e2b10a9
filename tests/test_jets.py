"""Jet arithmetic: Leibniz products, quotients, analytic chain rule, compose."""

import math

import pytest

from dualcurves import DualScalar, DualVec3, Jet, compose, cross, dot, shift_dual
from dualcurves.errors import PureDualDivisor
from dualcurves.jets import jderiv, jnorm, jnormalize


def poly_jet(t0: float, order: int = 3) -> Jet:
    # p(t) = t^3 - 2t + 1 and its derivatives, from the variable jet
    t = Jet.variable(t0, order)
    return t * t * t - Jet.constant(DualScalar(2.0), order) * t \
        + Jet.constant(DualScalar(1.0), order)


def test_polynomial_derivatives_exact():
    j = poly_jet(2.0)
    assert j.d0.re == 5.0    # 8 - 4 + 1
    assert j.d1.re == 10.0   # 3t^2 - 2
    assert j.d2.re == 12.0   # 6t
    assert j.d3.re == 6.0


def test_variable_jet_order_zero():
    j = Jet.variable(1.5, 0)
    assert j.order == 0 and j.d0.re == 1.5


def test_product_leibniz_against_expansion():
    f = poly_jet(0.7)
    g = Jet.variable(0.7, 3).apply("sin")
    prod = f * g
    t = 0.7
    p = t**3 - 2 * t + 1
    dp = 3 * t**2 - 2
    d2p = 6 * t
    d3p = 6.0
    s, c = math.sin(t), math.cos(t)
    assert abs(prod.d0.re - p * s) < 1e-14
    assert abs(prod.d1.re - (dp * s + p * c)) < 1e-14
    assert abs(prod.d2.re - (d2p * s + 2 * dp * c - p * s)) < 1e-13
    assert abs(prod.d3.re - (d3p * s + 3 * d2p * c - 3 * dp * s - p * c)) < 1e-13


def test_quotient_times_divisor_roundtrips():
    f = poly_jet(0.3)
    g = Jet.variable(0.3, 3).apply("exp")
    q = f / g
    back = q * g
    for k in range(4):
        assert abs(back.coeffs[k].re - f.coeffs[k].re) < 1e-12
        assert abs(back.coeffs[k].du - f.coeffs[k].du) < 1e-12


def test_quotient_pure_dual_divisor():
    zero = Jet.constant(DualScalar(0.0, 2.0), 3)
    with pytest.raises(PureDualDivisor):
        poly_jet(0.3) / zero


def finite_difference(values, h):
    f0, f1, f2, f3, f4 = values
    d1 = (f3 - f1) / (2 * h)
    d2 = (f3 - 2 * f2 + f1) / (h * h)
    d3 = (f4 - 2 * f3 + 2 * f1 - f0) / (2 * h**3)
    return d1, d2, d3


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "atan"])
def test_analytic_apply_matches_finite_differences(name):
    t0 = 0.6
    h = 1e-3
    jet = Jet.variable(t0, 3).apply(name)
    fn = getattr(math, name)
    samples = [fn(t0 + k * h) for k in (-2, -1, 0, 1, 2)]
    d1, d2, d3 = finite_difference(samples, h)
    assert abs(jet.d1.re - d1) <= 1e-5 * max(1, abs(d1))
    assert abs(jet.d2.re - d2) <= 1e-5 * max(1, abs(d2))
    assert abs(jet.d3.re - d3) <= 1e-3 * max(1, abs(d3))


def test_dual_coefficients_propagate():
    # f(t) = (1+eps) * sin(t): every derivative scales by 1+eps
    c = Jet.constant(DualScalar(1.0, 1.0), 3)
    j = c * Jet.variable(0.8, 3).apply("sin")
    assert abs(j.d1.du - math.cos(0.8)) < 1e-15
    assert abs(j.d2.du + math.sin(0.8)) < 1e-15


def test_compose_chain_rule():
    # outer sin evaluated on inner jet t^2 at t0: d/dt sin(t^2) = 2t cos(t^2)
    t0 = 0.9
    inner = Jet.variable(t0, 3) * Jet.variable(t0, 3)
    outer = Jet.variable(inner.d0.re, 3).apply("sin")
    j = compose(outer, inner)
    assert abs(j.d0.re - math.sin(t0**2)) < 1e-15
    assert abs(j.d1.re - 2 * t0 * math.cos(t0**2)) < 1e-14
    d2 = 2 * math.cos(t0**2) - 4 * t0**2 * math.sin(t0**2)
    assert abs(j.d2.re - d2) < 1e-13


def test_shift_dual_moves_base_point():
    # shifting by eps*a equals first-order Taylor transport of each jet
    a = 0.37
    jets = tuple(poly_jet(1.1, 3) for _ in range(3))
    shifted = shift_dual(jets, a)
    for orig, sh in zip(jets, shifted):
        assert sh.order == orig.order - 1
        for k in range(sh.order + 1):
            want_re = orig.coeffs[k].re
            want_du = orig.coeffs[k].du + a * orig.coeffs[k + 1].re
            assert abs(sh.coeffs[k].re - want_re) < 1e-14
            assert abs(sh.coeffs[k].du - want_du) < 1e-14


def test_vector_jet_helpers():
    t0 = 0.5
    x = Jet.variable(t0, 2).apply("cos")
    y = Jet.variable(t0, 2).apply("sin")
    z = Jet.constant(DualScalar(0.0), 2)
    v = (x, y, z)
    speed = jnorm(jderiv(v))
    assert abs(speed.d0.re - 1.0) < 1e-15
    unit = jnormalize(jderiv(v))
    assert isinstance(unit, DualVec3)
    n2 = dot(unit, unit)
    assert abs(n2.d0.re - 1.0) < 1e-15
    w = DualVec3(x, y, z)
    assert list(w) == [x, y, z]
    c = cross(w, jderiv(w))
    assert abs(c.z.d0.re - 1.0) < 1e-15
    lhs = (w - unit * dot(w, unit)) + unit * dot(w, unit)
    for a, b in zip(lhs, w):
        assert all(abs(p.re - q.re) < 1e-15 for p, q in zip(a.coeffs, b.coeffs))
