"""Expression DSL: golden round-trips, jet correctness, located errors."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualcurves import (ANALYTIC_FUNCTIONS, DualScalar, compile_curve, evaluate_scalar,
                        format_expr, parse, parse_scalar, render_caret)
from dualcurves.dsl import BinOp, Call, CurveExpr, ExprCurve, Neg, Num, Pow, Sym
from dualcurves.errors import DualCurvesError, EvalDomainError, ParseError
from tests.conftest import CONST_CURVATURE, CONST_CURVATURE_DUAL

GOLDEN = [
    "[t, t^2, t^3]",
    "[cos(t), sin(t), 0]",
    "[(1 + eps)*cos(t), (1 + eps)*sin(t), t]",
    "[2*cos(t), 2*sin(t), t]",
    "[t, 0, 0]",
    "[-t^2, t*-3, --t]",
    "[(-t)^3, t^-2, sqrt(t)]",
    "[exp(-t), log(t + 2), atan(t)]",
    "[t/(1 + t^2), 1/(2 - t), t*t*t]",
    "[sin(2*t)*cos(3*t), tan(t/4), eps*t]",
    "[1.5e-3*t, 2.25, 0.5 + t]",
    "[t - 1, 1 - t, -(t + 1)]",
    "[t^2*(1 + eps), (t + eps)^3, eps]",
    "[cos(t)^2, sin(t)^2, cos(t)^2 + sin(t)^2]",
    "[sqrt(t + 2), exp(t)*exp(-t), log(exp(t))]",
    "[t/5, 11*t/5, 6*t/5]",
    "[-(t*t), -(t + eps), -cos(t)]",
    "[(t + 1)*(t - 1), t^4 - 1, (t^2 + 1)^2]",
    "[atan(t/(1 + sqrt(2))), tan(t)/(1 + tan(t)^2), sin(t/2)]",
    "[eps, eps*eps, 1 + eps*2]",
    "[3.25*t, 1e2*t, 0.125]",
    CONST_CURVATURE,
    CONST_CURVATURE_DUAL,
]

NEGATIVE = [
    "[cos(t), sin(t)",
    "[x, 0, 0]",
    "[1 + , 2, 3]",
    "[t, t]",
    "[t, t, t, t]",
    "t, t, t",
    "[t^1.5, 0, 0]",
    "[t**2, 0, 0]",
    "[sin t, 0, 0]",
    "[(t, 0, 0]",
    "[cos(), 0, 0]",
    "[1 2, 0, 0]",
    "[t$, 0, 0]",
    "",
    "[0.5.2, 0, 0]",
]


@pytest.mark.parametrize("src", GOLDEN, ids=range(len(GOLDEN)))
def test_golden_roundtrip(src):
    expr = parse(src)
    text = format_expr(expr)
    again = parse(text)
    assert again == expr
    # formatting is a fixed point
    assert format_expr(again) == text


@pytest.mark.parametrize("src", NEGATIVE, ids=range(len(NEGATIVE)))
def test_negative_sources_locate_errors(src):
    with pytest.raises(ParseError) as info:
        parse(src)
    err = info.value
    assert err.line >= 1 and err.column >= 1
    assert 0 <= err.offset <= len(src)
    assert err.expected  # the parser always knows what it wanted


def test_overflowing_literal_is_located():
    with pytest.raises(ParseError) as info:
        parse("[t, 2*1e999*t, t]")
    assert "overflows" in info.value.message
    assert info.value.column == len("[t, 2*") + 1


def test_missing_bracket_message():
    with pytest.raises(ParseError) as info:
        parse("[cos(t), sin(t)")
    assert "expected ',' or ']'" in info.value.message
    assert info.value.column == len("[cos(t), sin(t)") + 1


def test_unknown_identifier_lists_alternatives():
    with pytest.raises(ParseError) as info:
        parse("[x, 0, 0]")
    err = info.value
    assert "x" in str(err)
    assert "'t'" in err.expected and "'eps'" in err.expected
    assert "'cos'" in err.expected


def test_wrong_component_count_is_located_at_close():
    with pytest.raises(ParseError) as info:
        parse("[t, t]")
    assert "3 components" in info.value.message


def test_formatting_conventions():
    assert format_expr(parse_scalar("-t^2")) == "-t^2"
    assert format_expr(parse_scalar("-(t*t)")) == "-(t*t)"
    assert format_expr(parse_scalar("1+eps*2")) == "1 + eps*2"
    assert format_expr(parse_scalar("t^-2")) == "t^-2"
    assert format_expr(parse_scalar("(t+1)/(t-1)")) == "(t + 1)/(t - 1)"
    assert format_expr(parse_scalar("1.5e-3")) == "0.0015"


def test_caret_rendering_points_at_column():
    try:
        parse("[cos(t), sin(t)")
    except ParseError as err:
        block = render_caret("[cos(t), sin(t)", err)
        lines = block.splitlines()
        assert lines[0] == "[cos(t), sin(t)"
        assert lines[1] == " " * 15 + "^"


def test_evaluate_scalar_worked():
    v = evaluate_scalar("1+eps*2")
    assert v == DualScalar(1.0, 2.0)
    assert evaluate_scalar("3") == DualScalar(3.0)
    assert evaluate_scalar("-(1 + eps)") == DualScalar(-1.0, -1.0)
    assert evaluate_scalar("cos(0)") == DualScalar(1.0)


def test_evaluate_scalar_rejects_parameter():
    with pytest.raises(ParseError):
        evaluate_scalar("1 + t")


def test_eval_domain_error_carries_offset():
    curve = compile_curve("[t, 1/t, 0]", (-1.0, 1.0))
    with pytest.raises(EvalDomainError) as info:
        curve.eval(0.0)
    # the offset points at the division that failed
    src = "[t, 1/t, 0]"
    assert src[info.value.offset] == "/"

    root = compile_curve("[sqrt(t), 0, 0]", (-1.0, 1.0))
    with pytest.raises(EvalDomainError):
        root.eval(-0.5)


def central(fn, t, k, h):
    if k == 1:
        return (fn(t + h) - fn(t - h)) / (2 * h)
    if k == 2:
        return (fn(t + h) - 2 * fn(t) + fn(t - h)) / (h * h)
    return (fn(t + 2 * h) - 2 * fn(t + h) + 2 * fn(t - h)
            - fn(t - 2 * h)) / (2 * h**3)


def richardson(fn, t, k, h):
    coarse = central(fn, t, k, h)
    fine = central(fn, t, k, h / 2)
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("src,t0", [
    ("[cos(t), sin(t), t]", 0.8),
    ("[t/(1 + t^2), exp(-t), log(t + 2)]", 0.4),
    ("[atan(t), sqrt(t + 2), tan(t/4)]", 0.9),
    (CONST_CURVATURE, 0.6),
])
def test_jets_match_finite_differences(src, t0):
    curve = compile_curve(src, (-1.0, 2.0) if t0 < 1 else (0.0, 2.0))
    pt = curve.eval(t0)
    got = [pt.d1.re, pt.d2.re, pt.d3.re]
    steps = {1: 1e-5, 2: 1e-4, 3: 1e-2}
    for axis in range(3):
        def coord(t, axis=axis):
            return curve.position(t).re[axis]
        for k in (1, 2, 3):
            want = richardson(coord, t0, k, steps[k])
            scale = max(1.0, abs(want))
            assert abs(got[k - 1][axis] - want) <= 1e-5 * scale


def test_compile_accepts_parsed_expression():
    expr = parse("[t, t^2, 0]")
    curve = compile_curve(expr, (0.0, 1.0))
    assert curve.position(0.5).re[1] == 0.25


# --- generated expressions ---------------------------------------------------
#
# ASTs shaped like the parser's output: numbers are finite and >= 0 (the
# parser reads "-1" as Neg(Num(1))), exponents are small integers, and the
# depth is bounded.

def _exprs(depth):
    leaves = st.one_of(
        st.builds(Num, st.one_of(st.integers(0, 9).map(float),
                                 st.floats(0.0, 10.0),
                                 st.floats(0.0, allow_infinity=False))),
        st.sampled_from([Sym("t"), Sym("eps")]))
    if depth == 0:
        return leaves
    sub = _exprs(depth - 1)
    return st.one_of(leaves, st.builds(Neg, sub),
                     st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
                     st.builds(Pow, sub, st.integers(-3, 3)),
                     st.builds(Call, st.sampled_from(ANALYTIC_FUNCTIONS), sub))


CURVE_EXPRS = st.tuples(*[_exprs(4)] * 3).map(CurveExpr)
EXP3 = CurveExpr((Call("exp", Call("exp", Call("exp", Sym("t")))), Sym("t"), Num(0.0)))


@settings(max_examples=150, deadline=None)
@given(CURVE_EXPRS)
def test_generated_expressions_round_trip(expr):
    assert parse(format_expr(expr)) == expr


# The reference evaluates F(t, e) in complex arithmetic (cmath) and takes
# derivatives by a complex step (Martins, Sturdza & Alonso, ACM TOMS 29(3),
# 2003): Im F(t + iH, 0) / H is dF/dt and Im F(t, iH) / H is dF/de, the dual
# part of the jet's value; F itself comes from F(t, 0), since the step moves
# the real part by H^2 F'' / 2.  The step subtracts nothing, so H only has to
# hide the derivative's truncation error.  Where an operation is singular at
# distance R from its operand a (R = |a| for a divisor, a negative power's
# base, sqrt and log; R <= |cos a| for tan; R = 1 bounds the Taylor
# coefficients of atan, exp, sin and cos), that error is about
# (H |a'| / R)^2 relative, so the step is used only where H |a'| <= 1e-9 R,
# which puts it below 1e-18.  Sums are exact under the step.  A product's
# or a positive power's real part moves by the product of its operands'
# imaginary parts, so each of these must be at most 1e-9 of its real part
# (or of 1e-100 where that vanishes), keeping the move under 1e-18 of the
# product.  What H*F' loses to gradual underflow, at most 2^-1074 / H per
# operation, the bound below carries as FLOOR.
#
# The tolerance is a first-order running error bound (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sec. 3.3), evaluated alongside
# the reference: mu bounds |computed - exact| / U from each operation's
# sensitivity to its operands' errors plus its own rounding, once for the
# value and once for the derivative along the step.  Each local term is an
# operation's result, weighted where the reference rounds it more than once
# (a power, the derivative of a product or a quotient).  K = 8 covers what
# one operation costs beyond that on either side: the most is cmath.tan's
# imaginary part (tanh, tan, a square, a sum, a product and a quotient), and
# for the jets the dual quotient (two products, a difference, a square and a
# quotient).  The jets and the reference each err by at most K*U*mu, so
# they agree to 2*K*U*mu.  A first-order bound
# holds only while every operand of a non-linear operation is known to a
# small relative error: where K*U*mu of an operand exceeds 1e-3 of what the
# operation can absorb (a divisor, a factor, a function's curvature), the
# case is skipped as too ill-conditioned to compare, as it is where the step
# is not small against R.
U, H, K = 2.0**-53, 1e-150, 8
FLOOR = 2.0**-1074 / U / H
_D12 = {  # f' and f'' of each analytic function, for the sensitivities
    "sin": (math.cos, lambda x: -math.sin(x)),
    "cos": (lambda x: -math.sin(x), lambda x: -math.cos(x)),
    "tan": (lambda x: 1 + math.tan(x)**2, lambda x: 2 * math.tan(x) * (1 + math.tan(x)**2)),
    "sqrt": (lambda x: 0.5 / math.sqrt(x), lambda x: -0.25 / x**1.5),
    "exp": (math.exp, math.exp),
    "log": (lambda x: 1 / x, lambda x: -1 / x**2),
    "atan": (lambda x: 1 / (1 + x * x), lambda x: -2 * x / (1 + x * x)**2),
}
_RADIUS = {"sqrt": abs, "log": abs, "tan": lambda x: abs(math.cos(x))}


class _Unreliable(Exception):
    pass


def _require(small, scale, ratio):
    if small > ratio * scale:
        raise _Unreliable


def _reference(node, t, e):
    """(F, mu, mu_d): F at the complex point (t, e), and running error bounds
    in units of U of its real part and of its imaginary part / H."""
    if isinstance(node, Num):
        return complex(node.value), 0.0, 0.0
    if isinstance(node, Sym):
        return (t if node.name == "t" else e), 0.0, 0.0
    if isinstance(node, Neg):
        z, m, md = _reference(node.operand, t, e)
        return -z, m, md
    if isinstance(node, Call):
        a, ma, mda = _reference(node.arg, t, e)
        f1, f2 = (f(a.real) for f in _D12[node.fn])
        _require(K * U * abs(f2) * ma, abs(f1), 1e-3)
        _require(abs(a.imag), _RADIUS.get(node.fn, lambda x: 1.0)(a.real), 1e-9)
        z = getattr(cmath, node.fn)(a)
        c1 = z.imag / H
        return (z, abs(f1) * ma + abs(z.real) + FLOOR * H,
                abs(f1) * mda + abs(f2 * a.imag / H) * ma + abs(c1) + FLOOR)
    if isinstance(node, Pow):
        a, ma, mda = _reference(node.base, t, e)
        n = node.exponent
        if n == 0:
            return complex(1.0), 0.0, 0.0
        _require(K * U * abs(n) * ma, abs(a.real), 1e-3)
        _require(abs(a.imag), abs(a.real) if n < 0 else max(abs(a.real), 1e-100), 1e-9)
        z = a**n
        p1 = n * a.real**(n - 1)
        p2 = n * (n - 1) * a.real**(n - 2) if n != 1 else 0.0
        return (z, abs(p1) * ma + (abs(n) + 1) * abs(z.real) + FLOOR * H,
                abs(p1) * mda + abs(p2 * a.imag / H) * ma + (abs(n) + 2) * abs(z.imag / H)
                + FLOOR)
    a, ma, mda = _reference(node.left, t, e)
    b, mb, mdb = _reference(node.right, t, e)
    a0, a1, b0, b1 = a.real, a.imag / H, b.real, b.imag / H
    if node.op in "+-":
        z = a + b if node.op == "+" else a - b
        return z, ma + mb + abs(z.real) + FLOOR * H, mda + mdb + abs(z.imag / H) + FLOOR
    if node.op == "*":
        for w, mw in ((a, ma), (b, mb)):
            _require(K * U * mw, abs(w.real), 1e-3)
            _require(abs(w.imag), max(abs(w.real), 1e-100), 1e-9)
        z = a * b
        return (z, abs(b0) * ma + abs(a0) * mb + abs(z.real) + FLOOR * H,
                abs(b0) * mda + abs(b1) * ma + abs(a0) * mdb + abs(a1) * mb
                + 2 * (abs(a1 * b0) + abs(a0 * b1)) + FLOOR)
    _require(K * U * mb, abs(b0), 1e-3)
    _require(abs(b.imag), abs(b0), 1e-9)
    z = a / b
    c0, c1 = z.real, z.imag / H
    mc = (ma + abs(c0) * mb) / abs(b0) + abs(c0) + FLOOR * H
    return (z, mc, (mda + abs(b1) * mc + abs(c0) * mdb + abs(c1) * mb
                    + 3 * (abs(a1) + abs(c0 * b1))) / abs(b0) + FLOOR)


@settings(max_examples=300, deadline=None)
@given(CURVE_EXPRS, st.floats(-2.0, 2.0))
@example(EXP3, 2.0)
def test_generated_jets_are_finite_and_match_complex_step(expr, t):
    try:
        jets = ExprCurve(expr, (-2.0, 2.0)).coord_jets(t, 1)
    except DualCurvesError:
        return
    for node, jet in zip(expr.components, jets):
        d0, d1 = jet.coeffs
        assert all(math.isfinite(v) for v in (d0.re, d0.du, d1.re, d1.du))
        try:
            z, m, _ = _reference(node, complex(t), 0j)
            zt, _, mdt = _reference(node, complex(t, H), 0j)
            ze, _, mde = _reference(node, complex(t), complex(0.0, H))
        except (_Unreliable, ArithmeticError, ValueError):
            continue
        for got, want, mu in ((d0.re, z.real, m), (d1.re, zt.imag / H, mdt),
                              (d0.du, ze.imag / H, mde)):
            if math.isfinite(want) and math.isfinite(mu):
                assert abs(got - want) <= 2 * K * U * mu, (format_expr(node), t)
