"""Dual scalar arithmetic: worked values, ring axioms, analytic lifts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcurves import (ANALYTIC_FUNCTIONS, DualScalar, apply_analytic, compile_curve,
                        derivative_table, div, dual_abs, frenet_at, is_pure_dual)
from dualcurves.errors import DomainError, NonFiniteError, PureDualDivisor

EPS = DualScalar(0.0, 1.0)

parts = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                  allow_infinity=False)
duals = st.builds(DualScalar, parts, parts)


def close(x: DualScalar, re, du, tol=0.0):
    assert abs(x.re - re) <= tol, x
    assert abs(x.du - du) <= tol, x


def test_add_worked():
    close(DualScalar(1, 2) + DualScalar(3, 4), 4.0, 6.0)


def test_mul_worked():
    close(DualScalar(2, 3) * DualScalar(4, 5), 8.0, 22.0)


def test_eps_squared_is_exactly_zero():
    sq = EPS * EPS
    assert sq.re == 0.0 and sq.du == 0.0


def test_div_worked():
    close(div(DualScalar(6, 4), DualScalar(2, 2)), 3.0, -1.0)


def test_div_by_self():
    x = DualScalar(0.7, -3.2)
    close(div(x, x), 1.0, 0.0)


def test_div_by_huge_keeps_dual_part():
    # b**2 overflows for |b| > 1.3e154; the dual part must not collapse to 0
    got = div(DualScalar(0.0, 1.0), DualScalar(1e168, 2e160))
    close(got, 0.0, 1e-168)
    got = div(DualScalar(3e168, 1.0), DualScalar(1e168, 2e160))
    close(got, 3.0, 1e-168 - 6e-8, tol=1e-22)


def test_div_numerator_overflow_keeps_finite_quotient():
    # a' b or a b' overflows although the quotient is finite
    got = div(DualScalar(1.0, 1e200), DualScalar(1e150, 0.0))
    assert got.re == 1.0 / 1e150 and math.isclose(got.du, 1e50, rel_tol=1e-15)
    got = div(DualScalar(1e200, 1.0), DualScalar(1e100, 1e150))
    assert got.re == 1e100 and math.isclose(got.du, -1e150, rel_tol=1e-15)


def test_pure_dual_divisor():
    with pytest.raises(PureDualDivisor):
        div(DualScalar(1, 1), DualScalar(0, 5))


def test_sqrt_worked():
    close(apply_analytic("sqrt", DualScalar(4, 4)), 2.0, 1.0)


def test_cos_at_zero():
    close(apply_analytic("cos", DualScalar(0, 1)), 1.0, 0.0)


def test_cos_at_half_pi():
    got = apply_analytic("cos", DualScalar(math.pi / 2, 1))
    close(got, math.cos(math.pi / 2), -1.0, tol=1e-16)


def test_analytic_domain_errors():
    with pytest.raises(DomainError):
        apply_analytic("sqrt", DualScalar(-1.0, 0.0))
    with pytest.raises(DomainError):
        apply_analytic("log", DualScalar(0.0, 1.0))


def test_is_pure_dual_threshold():
    assert is_pure_dual(DualScalar(0, 3))
    assert not is_pure_dual(DualScalar(1, 3))
    assert is_pure_dual(DualScalar(1e-12, 3))
    assert not is_pure_dual(DualScalar(2e-9, 3))


def test_dual_abs_sign():
    close(dual_abs(DualScalar(-2, 5)), 2.0, -5.0)
    close(dual_abs(DualScalar(2, 5)), 2.0, 5.0)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        DualScalar(float("nan"), 0.0)
    with pytest.raises(NonFiniteError):
        DualScalar(0.0, float("inf"))


@given(duals, duals)
def test_add_commutes(x, y):
    assert x + y == y + x


@given(duals, duals)
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(duals, duals, duals)
def test_add_associates(x, y, z):
    left = (x + y) + z
    right = x + (y + z)
    scale = max(1.0, abs(left.re), abs(left.du))
    assert abs(left.re - right.re) <= 1e-12 * scale
    assert abs(left.du - right.du) <= 1e-12 * scale


@given(duals, duals, duals)
def test_mul_associates(x, y, z):
    left = (x * y) * z
    right = x * (y * z)
    scale = max(1.0, abs(left.re), abs(left.du))
    assert abs(left.re - right.re) <= 1e-12 * scale
    assert abs(left.du - right.du) <= 1e-12 * scale


@given(duals, duals, duals)
def test_distributivity(x, y, z):
    left = x * (y + z)
    right = x * y + x * z
    scale = max(1.0, abs(left.re), abs(left.du))
    assert abs(left.re - right.re) <= 1e-12 * scale
    assert abs(left.du - right.du) <= 1e-12 * scale


@given(duals, duals)
def test_div_inverts_mul(x, y):
    if abs(y.re) < 1e-3:
        return
    back = div(x * y, y)
    scale = max(1.0, abs(x.re), abs(x.du))
    assert abs(back.re - x.re) <= 1e-9 * scale
    assert abs(back.du - x.du) <= 1e-9 * scale


@settings(max_examples=30)
@given(st.sampled_from(ANALYTIC_FUNCTIONS),
       st.floats(min_value=0.05, max_value=1.2),
       st.floats(min_value=-3, max_value=3))
def test_analytic_dual_part_matches_finite_difference(name, a, astar):
    # dual part must equal astar * f'(a); compare against a central stencil
    fn = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
          "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
          "atan": math.atan}[name]
    h = 1e-6
    got = apply_analytic(name, DualScalar(a, astar))
    fd = astar * (fn(a + h) - fn(a - h)) / (2 * h)
    assert abs(got.du - fd) <= 1e-6 * max(1.0, abs(fd))


def test_derivative_table_matches_per_order():
    # table order n holds f, f', ..., f^(n) at the point
    table = derivative_table("exp", 0.3, 3)
    assert len(table) == 4
    for v in table:
        assert abs(v - math.exp(0.3)) < 1e-15
    sin_t = derivative_table("sin", 0.4, 4)
    assert abs(sin_t[1] - math.cos(0.4)) < 1e-15
    assert abs(sin_t[2] + math.sin(0.4)) < 1e-15
    assert abs(sin_t[3] + math.cos(0.4)) < 1e-15
    assert abs(sin_t[4] - math.sin(0.4)) < 1e-15


@pytest.mark.parametrize("src,t,domain", [
    ("[exp(t), t, 0]", 800.0, (799.0, 801.0)),
    ("[log(exp(t)), t, 0]", 400.0, (399.0, 401.0)),
    ("[log(t), t, 0]", 1e-170, (0.0, 1.0)),
    ("[atan(t), t, 0]", 1e120, (0.0, 2e120)),
], ids=["exp_overflow", "log_power_overflow", "log_zero_division", "atan_overflow"])
def test_derivative_table_arithmetic_errors_are_non_finite(src, t, domain):
    with pytest.raises(NonFiniteError, match=r"derivatives are not finite at a = "):
        frenet_at(compile_curve(src, domain), t)


def test_str_roundtrip_form():
    assert str(DualScalar(1.5, -2.0)) == "1.5-eps*2"
    assert str(DualScalar(3.0, 0.0)) == "3+eps*0"
