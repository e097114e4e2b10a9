"""Curve evaluation, dual arc length, and arc-length reparametrization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcurves import (ArcLengthTable, DualCurve, DualScalar, arc_length,
                        compile_curve, reparam_by_arclength)
from dualcurves.errors import IrregularCurve, OutOfDomain
from tests.conftest import DUAL_CIRCLE, TWO_PI

SQRT2 = math.sqrt(2.0)


def test_eval_twisted_cubic_worked(twisted_cubic):
    pt = twisted_cubic.eval(1.0)
    assert np.allclose(pt.position.re, [1, 1, 1])
    assert np.allclose(pt.d1.re, [1, 2, 3])
    assert np.allclose(pt.d2.re, [0, 2, 6])
    assert np.allclose(pt.d3.re, [0, 0, 6])
    for v in (pt.position, pt.d1, pt.d2, pt.d3):
        assert np.allclose(v.du, 0)


def test_eval_line_worked():
    line = compile_curve("[t, 0, 0]", (-5.0, 5.0))
    pt = line.eval(2.0)
    assert np.allclose(pt.position.re, [2, 0, 0])
    assert np.allclose(pt.d1.re, [1, 0, 0])
    assert np.allclose(pt.d2.re, 0)
    assert np.allclose(pt.d3.re, 0)


def test_eval_circle_derivatives(unit_circle):
    pt = unit_circle.eval(0.0)
    assert np.allclose(pt.d1.re, [0, 1, 0])
    assert np.allclose(pt.d2.re, [-1, 0, 0])
    assert np.allclose(pt.d3.re, [0, -1, 0])


def test_eval_dual_helix_derivative(dual_helix):
    pt = dual_helix.eval(math.pi / 2)
    assert np.allclose(pt.d1.re, [-1, 0, 1], atol=1e-15)
    assert np.allclose(pt.d1.du, [-1, 0, 0], atol=1e-15)


def test_eval_out_of_domain(unit_circle):
    with pytest.raises(OutOfDomain):
        unit_circle.eval(TWO_PI + 1.0)
    with pytest.raises(OutOfDomain):
        unit_circle.eval(-0.5)


def test_arc_length_unit_circle(unit_circle):
    s = arc_length(unit_circle, 0.0, TWO_PI)
    assert abs(s.re - TWO_PI) <= 1e-10
    assert abs(s.du) <= 1e-10


def test_arc_length_dual_helix(dual_helix):
    # dual speed sqrt(2 + 2 eps) = sqrt(2) + eps/sqrt(2), constant
    s = arc_length(dual_helix, 0.0, 1.0)
    assert abs(s.re - SQRT2) <= 1e-12
    assert abs(s.du - SQRT2 / 2.0) <= 1e-12


def test_arc_length_line_segment():
    line = compile_curve("[t, 0, 0]", (0.0, 5.0))
    s = arc_length(line, 0.0, 5.0)
    assert abs(s.re - 5.0) <= 1e-12 and s.du == 0.0


def test_arc_length_additive(dual_helix):
    whole = arc_length(dual_helix, 0.2, 2.9)
    split = arc_length(dual_helix, 0.2, 1.3) + arc_length(dual_helix, 1.3, 2.9)
    assert abs(whole.re - split.re) <= 1e-10
    assert abs(whole.du - split.du) <= 1e-10


def test_arc_length_reversed_bounds(unit_circle):
    with pytest.raises(OutOfDomain):
        arc_length(unit_circle, 1.0, 0.5)


def test_arc_length_parametrization_independent():
    # same circle traced as t and as 2t; real length over matching windows
    slow = compile_curve("[cos(t), sin(t), 0]", (0.0, TWO_PI))
    fast = compile_curve("[cos(2*t), sin(2*t), 0]", (0.0, math.pi))
    a = arc_length(slow, 0.0, TWO_PI)
    b = arc_length(fast, 0.0, math.pi)
    assert abs(a.re - b.re) <= 1e-10


@pytest.mark.parametrize("w", [40, 80])
def test_arc_length_controls_dual_part(w):
    # Unit real speed, so a real-part test alone accepts the first panel;
    # the dual speed -w*sin(t)*cos(w*t) oscillates underneath it.
    curve = compile_curve(f"[cos(t) + eps*sin({w}*t), sin(t), 0]", (0.0, 3.0))
    x, wts = np.polynomial.legendre.leggauss(400)
    t = 1.5 * (x + 1.0)
    expected_du = 1.5 * float(np.sum(wts * (-w * np.sin(t) * np.cos(w * t))))
    for got in (arc_length(curve, 0.0, 3.0),
                ArcLengthTable(curve, samples=4).length):
        assert abs(got.re - 3.0) <= 1e-10
        assert abs(got.du - expected_du) <= 1e-10


def test_velocity_norm_flags_irregular_point():
    # speed vanishes at t=0 for the cusp-like parametrization
    cusp = compile_curve("[t^2, t^3, 0]", (-1.0, 1.0))
    with pytest.raises(IrregularCurve):
        cusp.velocity_norm(0.0)
    v = cusp.velocity_norm(0.5)
    assert v.re > 0


def test_arc_length_table_rejects_degenerate_curve():
    point = compile_curve("[1, 2, 3]", (0.0, 1.0))
    with pytest.raises(IrregularCurve):
        ArcLengthTable(point)


def test_table_matches_direct_quadrature(dual_helix):
    table = ArcLengthTable(dual_helix)
    for t in (0.3, 1.7, 5.9):
        direct = arc_length(dual_helix, 0.0, t)
        via = table.s_at(t)
        assert abs(via.re - direct.re) <= 1e-9
        assert abs(via.du - direct.du) <= 1e-9


def test_table_invert_real(dual_helix):
    table = ArcLengthTable(dual_helix)
    for t in (0.4, 2.2, 6.0):
        s = table.s_at(t)
        back = table.invert_real(s.re)
        assert abs(back - t) <= 1e-10


# varying real and dual speed, so kept panels and remainders all matter
CUBIC_DOMAIN = (-1.0, 1.5)
cubic = compile_curve("[(1 + eps/2)*t, (1 + eps/2)*t^2, t^3/3]", CUBIC_DOMAIN)
cubic_table = ArcLengthTable(cubic, samples=16)
CUBIC_MARKS = sorted(set(cubic_table.knots + cubic_table.edges))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(*CUBIC_DOMAIN), st.sampled_from(CUBIC_MARKS)))
def test_table_s_at_matches_arc_length_and_inverts(t):
    via = cubic_table.s_at(t)
    direct = arc_length(cubic, CUBIC_DOMAIN[0], t)
    assert abs(via.re - direct.re) <= 1e-12
    assert abs(via.du - direct.du) <= 1e-12
    assert abs(cubic_table.invert_real(via.re) - t) <= 1e-10


def test_table_cumulative_is_running_sum_of_arc_lengths():
    running = [DualScalar(0.0)]
    knots = cubic_table.knots
    for lo, hi in zip(knots, knots[1:]):
        running.append(running[-1] + arc_length(cubic, lo, hi))
    bits = [(c.re.hex(), c.du.hex()) for c in running]
    assert [(c.re.hex(), c.du.hex()) for c in cubic_table.cumulative] == bits
    assert cubic_table.length == running[-1]


@pytest.fixture
def speed_calls(monkeypatch):
    calls = []
    speed = DualCurve.velocity_norm

    def counted(self, t, *args, **kwargs):
        calls.append(t)
        return speed(self, t, *args, **kwargs)

    monkeypatch.setattr(DualCurve, "velocity_norm", counted)
    return calls


def test_table_s_at_is_one_fixed_rule(speed_calls):
    # lookups and inversion read the kept series, never the curve
    edges = cubic_table.edges
    cubic_table.s_at(0.3 * edges[4] + 0.7 * edges[5])
    cubic_table.s_at(edges[5])
    assert speed_calls == []
    cubic_table.invert_real(0.4 * cubic_table.length.re)
    assert speed_calls == []


# the seed-101 families of the benchmark's arclength_build workload at its
# 16 knots, and the dual circle at the reparametrization's 64
SMOOTH_TABLES = [
    ("[(1 + eps*0.1779)*1.2649*cos(t), (1 + eps*0.1779)*1.2649*sin(t), 0]",
     (0.0, 5.0), 16),
    ("[(1 + eps*0.2869)*1.1861*exp(0.1924*t)*cos(t), "
     "(1 + eps*0.2869)*1.1861*exp(0.1924*t)*sin(t), 0]", (0.0, 5.0), 16),
    ("[(1 + eps*0.1858)*0.8654*(t - sin(t)), (1 + eps*0.1858)*0.8654*(1 - cos(t)), 0]",
     (0.5, 5.5), 16),
    ("[(1 + eps*0.2154)*t, (1 + eps*0.2154)*0.4887*t^2, 0]", (-1.5, 1.5), 16),
    ("[(1 + eps*0.4884)*0.9699*cos(t), (1 + eps*0.4884)*0.9699*sin(t), "
     "(1 + eps*0.4884)*0.7155*t]", (0.0, 5.0), 16),
    (DUAL_CIRCLE, (0.0, TWO_PI), 64),
]


@pytest.mark.parametrize("source, domain, samples", SMOOTH_TABLES, ids=[
    "circle", "logspiral", "cycloid", "parabola", "helix", "dual_circle_64"])
def test_smooth_table_costs_16_speeds_per_knot_interval(source, domain, samples,
                                                        speed_calls):
    # every knot, plus 16 Chebyshev points on each knot interval
    ArcLengthTable(compile_curve(source, domain), samples=samples)
    assert len(speed_calls) == samples + (samples - 1) * 16


def test_arc_length_speed_vanishing_at_an_end_only():
    # |(2t, 3t^2)| vanishes at t = 0; interior sample points never touch it
    s = arc_length(compile_curve("[t^2, t^3, 0]", (0.0, 1.0)), 0.0, 1.0)
    assert abs(s.re - (13.0 * math.sqrt(13.0) - 8.0) / 27.0) <= 1e-12
    assert s.du == 0.0


def test_reparam_unit_speed_circle_r2():
    circle2 = compile_curve("[2*cos(t), 2*sin(t), 0]", (0.0, TWO_PI))
    unit = reparam_by_arclength(circle2)
    a, b = unit.domain
    assert abs(b - 2.0 * TWO_PI) <= 1e-8
    for s in np.linspace(a + 1e-6, b - 1e-6, 9):
        v = unit.velocity_norm(float(s))
        assert abs(v.re - 1.0) <= 1e-8
        assert abs(v.du) <= 1e-8


def test_reparam_identity_when_already_unit_speed(unit_circle):
    unit = reparam_by_arclength(unit_circle)
    for s in np.linspace(0.1, TWO_PI - 0.1, 7):
        p = unit.position(float(s))
        q = unit_circle.position(float(s))
        assert np.max(np.abs(p.re - q.re)) <= 1e-8
        assert np.max(np.abs(p.du - q.du)) <= 1e-8


def test_reparam_dual_helix_50_random_speeds(dual_helix):
    unit = reparam_by_arclength(dual_helix)
    a, b = unit.domain
    rng = np.random.default_rng(11)
    for s in rng.uniform(a + 1e-9, b - 1e-9, size=50):
        v = unit.velocity_norm(float(s))
        assert abs(v.re - 1.0) <= 1e-8
        assert abs(v.du) <= 1e-8


def test_reparam_dual_coordinates_closed_form(dual_helix):
    # positions must equal the helix at t = s / (sqrt(2) + eps/sqrt(2)),
    # expanded to first order in eps
    unit = reparam_by_arclength(dual_helix)
    inv_speed_re = 1.0 / SQRT2
    inv_speed_du = -0.5 / SQRT2
    for s in (0.5, 2.0, 4.4):
        t_re = s * inv_speed_re
        t_du = s * inv_speed_du
        p = unit.position(s)
        want_re = np.array([math.cos(t_re), math.sin(t_re), t_re])
        dre = np.array([-math.sin(t_re), math.cos(t_re), 1.0])
        want_du = np.array([math.cos(t_re), math.sin(t_re), 0.0]) + t_du * dre
        assert np.max(np.abs(p.re - want_re)) <= 1e-9
        assert np.max(np.abs(p.du - want_du)) <= 1e-9


def test_domain_property_validation():
    with pytest.raises(ValueError):
        compile_curve("[t, 0, 0]", (1.0, 1.0))
    with pytest.raises(ValueError):
        compile_curve("[t, 0, 0]", (2.0, 1.0))
