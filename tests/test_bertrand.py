"""Offset mates, pair criteria, involutes, and the involute-torsion formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualcurves.bertrand as bertrand_module
import dualcurves.curves as curves_module
from dualcurves import (ArcLengthTable, DualScalar, InvoluteCurve,
                        ReparamCurve, check_angle_constant,
                        check_bertrand_pair, check_distance_constant,
                        check_involute_pair, compile_curve, dot,
                        ensure_unit_speed,
                        fit_linear_relation, frenet_at, identity_pairing,
                        involute, involute_torsion, nearest_point_pairing,
                        offset_curve, offset_tangent_residual,
                        reparam_by_arclength)
from dualcurves.dsl import ExprCurve
from dualcurves.errors import (CuspPoint, IrregularCurve, NotPlanar,
                               PureDualCurvature, PureDualVector)
from tests.conftest import (CONST_CURVATURE, CONST_CURVATURE_DOMAIN,
                            CONST_CURVATURE_DUAL, CYCLOID, DUAL_CIRCLE,
                            TWO_PI, UNIT_CIRCLE)

LAMBDA_GRID = [DualScalar(1.0), DualScalar(-1.0), DualScalar(1.0, 1.0),
               DualScalar(-1.0, -1.0), DualScalar(0.5, 2.0)]


# ---------------------------------------------------------------------------
# offsets


def test_offset_zero_is_identity(helix_r2):
    beta = offset_curve(helix_r2, DualScalar(0.0))
    for t in (0.5, 3.0, 9.0):
        p, q = helix_r2.position(t), beta.position(t)
        assert np.max(np.abs(p.re - q.re)) <= 1e-15
        assert np.max(np.abs(p.du - q.du)) <= 1e-15


@pytest.mark.parametrize("lam", LAMBDA_GRID, ids=str)
def test_offset_distance_constant_on_grid(helix_r2, lam):
    beta = offset_curve(helix_r2, lam)
    result, samples, mean = check_distance_constant(
        helix_r2, beta, pairing=identity_pairing, n=100, tol=1e-8)
    assert result.passed
    assert result.max_deviation <= 1e-8
    # the constant equals |lambda| because N is a dual unit vector
    assert abs(mean.re - abs(lam.re)) <= 1e-12
    want_du = lam.du if lam.re >= 0 else -lam.du
    assert abs(mean.du - want_du) <= 1e-12


def test_offset_through_circle_center_degenerates():
    circle2 = compile_curve("[2*cos(t), 2*sin(t), 0]", (0.0, TWO_PI))
    beta = offset_curve(circle2, DualScalar(2.0))
    with pytest.raises(PureDualCurvature):
        frenet_at(beta, 1.0)


def test_offset_tangent_combination(helix_r2, const_curvature_dual):
    # the mate tangent, rescaled by the speed ratio, must equal
    # (1 - lam*kappa) T + lam*tau B at every sample
    for curve, lam, ts in (
            (helix_r2, DualScalar(1.0, 1.0), (1.0, 5.0, 11.0)),
            (const_curvature_dual, DualScalar(1.0, 1.0), (0.3, 0.7, 1.1))):
        for t in ts:
            res_re, res_du = offset_tangent_residual(curve, lam, t)
            assert res_re <= 1e-7
            assert res_du <= 1e-7


# ---------------------------------------------------------------------------
# pair checks


def test_helix_offset_pair_passes(helix_r2):
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    report = check_bertrand_pair(helix_r2, beta, n=60, tol=1e-8)
    assert report.passed
    names = {c.name for c in report.criteria.values()}
    assert names == {"normal_alignment", "distance_constant",
                     "angle_constant", "linear_relation"}
    # helix has constant kappa, tau: the relation fit is underdetermined
    assert report.fit.underdetermined


def test_curve_is_its_own_mate(helix_r2):
    report = check_bertrand_pair(helix_r2, helix_r2, n=40, tol=1e-8,
                                 pairing=identity_pairing)
    assert report.passed
    dist = report.criteria["distance_constant"]
    assert dist.passed and dist.max_deviation <= 1e-12
    # parallel tangents: the angle check falls back to the cosine and the
    # linear relation is reported not applicable
    assert not report.criteria["linear_relation"].applicable


def test_nearest_point_pairing_recovers_identity(helix_r2):
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    pair = nearest_point_pairing(helix_r2, beta)
    for t in (1.0, 4.0, 10.0):
        assert abs(pair(t) - t) <= 1e-9


def test_degenerate_offset_geometry_pair(const_curvature_dual):
    # lam*kappa = 1 exactly: the real offset passes through the curvature
    # centers, the hardest case for the nearest-point correspondence
    beta = offset_curve(const_curvature_dual, DualScalar(1.0, 1.0))
    report = check_bertrand_pair(const_curvature_dual, beta, n=40, tol=1e-8)
    assert report.passed
    assert not report.fit.underdetermined
    assert abs(report.fit.lam.re - 1.0) <= 1e-7
    assert abs(report.fit.lam.du - 1.0) <= 1e-7
    assert abs(report.fit.mu.re) <= 1e-7
    assert abs(report.fit.mu.du) <= 1e-7


def test_unrelated_helices_fail_normal_alignment(helix_r2):
    other = compile_curve("[cos(t), sin(t), 3*t]", (0.0, 2.0 * TWO_PI))
    report = check_bertrand_pair(helix_r2, other, n=24, tol=1e-8)
    assert not report.passed
    assert not report.criteria["normal_alignment"].passed


def test_tangent_shifted_pairing_fails_distance():
    ellipse_a = compile_curve("[2*cos(t), sin(t), 0]", (0.0, TWO_PI))
    ellipse_b = compile_curve("[2*cos(t), sin(t), 0]", (0.0, TWO_PI + 0.5))
    result, _, _ = check_distance_constant(
        ellipse_a, ellipse_b, pairing=lambda t: t + 0.3, n=50, tol=1e-8)
    assert not result.passed
    assert result.max_deviation > 1e-3


@pytest.mark.parametrize("lam", LAMBDA_GRID, ids=str)
def test_pair_criteria_match_standalone_checks(helix_r2, lam):
    beta = offset_curve(helix_r2, lam)
    report = check_bertrand_pair(helix_r2, beta, n=12, tol=1e-8,
                                 pairing=identity_pairing)
    dist, _, _ = check_distance_constant(helix_r2, beta, n=12, tol=1e-8)
    angle, _, _ = check_angle_constant(helix_r2, beta, n=12, tol=1e-8)
    assert report.criteria["distance_constant"] == dist
    assert report.criteria["angle_constant"] == angle


def test_pair_check_evaluates_each_frame_once(helix_r2, monkeypatch):
    calls = []

    def counting(curve, t, *args, **kwargs):
        calls.append(t)
        return frenet_at(curve, t, *args, **kwargs)

    monkeypatch.setattr(bertrand_module, "frenet_at", counting)
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    report = check_bertrand_pair(helix_r2, beta, n=4, pairing=identity_pairing)
    assert report.passed
    assert len(calls) == 2 * 4


@pytest.fixture
def jet_calls(monkeypatch):
    """Real coord_jets computations per curve class, memo hits excluded."""
    calls = {ExprCurve: 0, bertrand_module.OffsetCurve: 0}
    for cls in calls:
        def counted(self, *args, _cls=cls, _fn=cls.coord_jets, **kwargs):
            calls[_cls] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(cls, "coord_jets", counted)
    return calls


@pytest.mark.parametrize("pairing, expr_calls", [(None, 8), (identity_pairing, 4)])
def test_pair_check_evaluates_each_curve_once_per_sample(
        helix_r2, jet_calls, pairing, expr_calls):
    # The base at orders 0 (pairing position) and 5 (offset frame), the
    # latter reused for the pairing seed and alpha's frame.
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    report = check_bertrand_pair(helix_r2, beta, n=4, pairing=pairing)
    assert report.passed
    assert jet_calls == {ExprCurve: expr_calls, bertrand_module.OffsetCurve: 4}


@pytest.mark.parametrize("check", [check_angle_constant, check_distance_constant])
@pytest.mark.parametrize("pairing, expr_calls", [(nearest_point_pairing, 8),
                                                 (identity_pairing, 4)])
def test_standalone_checks_evaluate_like_pair_check(
        helix_r2, jet_calls, check, pairing, expr_calls):
    # The counts of check_bertrand_pair in the test above.
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    chosen = pairing(helix_r2, beta) if pairing is nearest_point_pairing else pairing
    result, _, _ = check(helix_r2, beta, pairing=chosen, n=4)
    assert result.passed
    assert jet_calls == {ExprCurve: expr_calls, bertrand_module.OffsetCurve: 4}


def test_one_evaluation_scope_closes(helix_r2, jet_calls):
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    with curves_module._one_evaluation():
        memo = curves_module._memo
        with curves_module._one_evaluation():
            assert curves_module._memo is memo
            beta.eval(1.0)
            helix_r2.position(1.0)
        assert curves_module._memo is memo and len(memo) == 2
    assert curves_module._memo is None
    assert jet_calls == {ExprCurve: 1, bertrand_module.OffsetCurve: 1}
    check_bertrand_pair(helix_r2, beta, n=4)
    assert curves_module._memo is None
    circle2 = compile_curve("[2*cos(t), 2*sin(t), 0]", (0.0, TWO_PI))
    with pytest.raises(PureDualCurvature):
        check_bertrand_pair(circle2, offset_curve(circle2, DualScalar(2.0)), n=4)
    assert curves_module._memo is None


def test_angle_constant_on_offset_pair(helix_r2):
    beta = offset_curve(helix_r2, DualScalar(1.0, 1.0))
    result, angles, cosines = check_angle_constant(
        helix_r2, beta, pairing=identity_pairing, n=60, tol=1e-8)
    assert result.passed and angles is not None
    assert len(cosines) == 60


# ---------------------------------------------------------------------------
# the linear relation fit


def test_fit_constant_invariants_minimum_norm():
    kappas = [DualScalar(0.5)] * 8
    taus = [DualScalar(0.5)] * 8
    fit = fit_linear_relation(kappas, taus)
    assert fit.underdetermined
    assert abs(fit.lam.re - 1.0) <= 1e-12
    assert abs(fit.mu.re - 1.0) <= 1e-12
    assert fit.residual <= 1e-12
    assert fit.family is not None


def test_fit_varying_invariants_rank_two(const_curvature_dual):
    ts = np.linspace(0.2, 1.15, 24)
    kappas = [frenet_at(const_curvature_dual, float(t)).kappa for t in ts]
    taus = [frenet_at(const_curvature_dual, float(t)).tau for t in ts]
    fit = fit_linear_relation(kappas, taus)
    assert not fit.underdetermined
    # the dual-scaled curve satisfies (1+eps)*kappa + 0*tau = 1
    assert abs(fit.lam.re - 1.0) <= 1e-7
    assert abs(fit.lam.du - 1.0) <= 1e-7
    assert abs(fit.mu.re) <= 1e-7
    assert fit.residual <= 1e-7


def test_fit_noise_fails():
    rng = np.random.default_rng(19)
    kappas = [DualScalar(float(v)) for v in rng.uniform(0.2, 2.0, 12)]
    taus = [DualScalar(float(v)) for v in rng.uniform(-1.0, 1.0, 12)]
    fit = fit_linear_relation(kappas, taus)
    assert fit.residual > 1e-3


# ---------------------------------------------------------------------------
# involutes


@pytest.fixture(scope="module")
def dual_circle_unit(dual_circle):
    return reparam_by_arclength(dual_circle)


@pytest.mark.parametrize("kind", ["expr", "offset", "involute", "reparam"])
def test_frame_position_and_speed_match_direct_evaluation(
        kind, dual_helix, helix_r2, dual_circle_unit):
    curve = {
        "expr": lambda: dual_helix,
        "offset": lambda: offset_curve(helix_r2, DualScalar(1.0, 1.0)),
        "involute": lambda: InvoluteCurve(dual_circle_unit, DualScalar(5.0)),
        "reparam": lambda: dual_circle_unit,
    }[kind]()

    def bits(*scalars):
        return [(v.re.hex(), v.du.hex()) for v in scalars]

    for t in (0.4, 1.3, 2.9):
        frame = frenet_at(curve, t)
        assert bits(*frame.position.comps()) == bits(*curve.position(t).comps())
        assert bits(frame.speed) == bits(curve.velocity_norm(t))


PREFIX_EXPR = ("[exp((0.3 + eps*0.2)*t)*cos(t), log(2 + t)*sin(t) + eps*atan(t), "
               "tan(0.4*t) + eps*t^2]")


@pytest.fixture(scope="module")
def prefix_curves(dual_circle_unit):
    expr = compile_curve(PREFIX_EXPR, (0.0, 2.0))
    return {"expr": expr,
            "offset": offset_curve(expr, DualScalar(0.7, 0.4)),
            "involute": InvoluteCurve(dual_circle_unit, DualScalar(9.0, 0.5)),
            "reparam": dual_circle_unit}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["expr", "offset", "involute", "reparam"]),
       frac=st.floats(0.02, 0.98), du=st.sampled_from([0.0, 0.3, -1.25]),
       top=st.integers(1, 5))
def test_jets_are_prefix_consistent(prefix_curves, kind, frac, du, top):
    # What the one-evaluation memo rests on: a lower order is the
    # truncation of a higher one, bit for bit.
    curve = prefix_curves[kind]
    a, b = curve.domain
    t0 = DualScalar(a + frac * (b - a), du)

    def bits(jets):
        return [(c.re.hex(), c.du.hex()) for j in jets for c in j.coeffs]

    high = curve.coord_jets(t0, top)
    for k in range(top):
        assert bits(curve.coord_jets(t0, k)) == bits(j.truncated(k) for j in high)


def test_ensure_unit_speed_reparametrizes_probe_blind_curve():
    # g' = 1 + 20(t-.251)(t-.5)(t-.749) is 1 at the quarter points but 0.216
    # at t = 0.1, so speed probes there cannot tell this curve from unit speed
    g = "(t + 5*(t - 0.5)^4 - 10*0.249^2*(t - 0.5)^2)"
    curve = compile_curve(f"[cos({g}), sin({g}), 0]", (0.0, 1.0))
    assert abs(curve.velocity_norm(0.1).re - 0.216) <= 1e-4
    unit = ensure_unit_speed(curve)
    a, b = unit.domain
    for frac in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        v = unit.velocity_norm(a + frac * (b - a))
        assert abs(v.re - 1.0) <= 1e-9 and abs(v.du) <= 1e-9
    assert ensure_unit_speed(unit) is unit


@pytest.fixture
def table_builds(monkeypatch):
    builds = []
    init = ArcLengthTable.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArcLengthTable, "__init__", counted)
    return builds


def test_involute_calls_on_one_base_build_one_table(table_builds):
    base = compile_curve(DUAL_CIRCLE, (0.0, TWO_PI))
    c1, c2 = DualScalar(3.0), DualScalar(5.0, 0.5)
    for s in (0.5, 1.0, 2.0):
        involute_torsion(base, c1, s)
    involute(base, c2).position(1.0)
    check_involute_pair(base, c1, c2, n=4)
    involute_torsion(base, c2, 1.5)
    assert len(table_builds) == 1


def test_ensure_unit_speed_keeps_one_curve_per_samples(table_builds):
    base = compile_curve(UNIT_CIRCLE, (0.0, TWO_PI))
    unit = ensure_unit_speed(base)
    assert ensure_unit_speed(base) is unit
    assert ensure_unit_speed(unit) is unit
    assert table_builds == [unit.table]
    assert len(unit.table.knots) == 64


def test_involute_tangent_perpendicular_to_base(unit_circle):
    c = DualScalar(TWO_PI)
    inv = involute(unit_circle, c)
    base = reparam_by_arclength(unit_circle)
    for s in (0.5, 2.0, 5.0):
        ti = frenet_at(inv, s).T
        tb = frenet_at(base, s).T
        d = dot(ti, tb)
        assert abs(d.re) <= 1e-8 and abs(d.du) <= 1e-8


def test_involute_cusp_at_string_end(unit_circle):
    inv = involute(unit_circle, DualScalar(3.0))
    with pytest.raises(IrregularCurve):
        inv.eval(3.0)
    with pytest.raises(CuspPoint):
        inv.eval(3.2)


def test_involute_of_dual_circle_is_plane(dual_circle):
    inv = involute(dual_circle, DualScalar(3.0))
    for s in (0.2, 1.0, 2.5):
        p = inv.position(s)
        assert abs(p.re[2]) <= 1e-12 and abs(p.du[2]) <= 1e-12
        fd = frenet_at(inv, s)
        assert abs(fd.tau.re) <= 1e-9 and abs(fd.tau.du) <= 1e-9


def test_involute_torsion_plane_base(dual_circle):
    val = involute_torsion(dual_circle, DualScalar(3.0), 1.0)
    assert abs(val.re) <= 1e-12 and abs(val.du) <= 1e-12


def test_involute_torsion_helix_base(unit_helix):
    # constant invariants: the numerator kappa*tau' - kappa'*tau vanishes
    val = involute_torsion(unit_helix, DualScalar(5.0), 1.5)
    assert abs(val.re) <= 1e-10 and abs(val.du) <= 1e-10


def test_involute_torsion_tiny_curvature_names_s():
    # |d1 x d2| ~ 1e-9 clears the cross test, but its square divides tau
    base = compile_curve("[t, 0.4e-9*t^2, 0.4e-9*t^2]", (0.0, 1.0))
    with pytest.raises(PureDualCurvature, match="s = 0.1"):
        involute_torsion(base, DualScalar(5.0), 0.1)


def test_involute_torsion_matches_direct_frenet():
    base = compile_curve(CONST_CURVATURE, (0.1, 1.2))
    c = DualScalar(5.0, 0.5)
    inv = involute(base, c)
    # the arc-length domain of this base is about (0, 0.8)
    for s in (0.2, 0.45, 0.7):
        formula = involute_torsion(base, c, s)
        direct = frenet_at(inv, s).tau
        assert abs(formula.re - direct.re) <= 1e-6
        assert abs(formula.du - direct.du) <= 1e-6
        # the value is genuinely nonzero here, so the match is informative
        if s == 0.45:
            assert abs(formula.re) > 1e-3


def test_involute_pair_of_dual_circle(dual_circle):
    report = check_involute_pair(dual_circle, DualScalar(3.0),
                                 DualScalar(5.0), n=24, tol=1e-8)
    assert report.passed
    dist = report.criteria["distance_value"]
    assert dist.applicable and dist.passed
    for label in ("involute1", "involute2"):
        assert report.criteria[f"{label}_torsion_frenet"].passed
        assert report.criteria[f"{label}_torsion_formula"].passed


def test_involute_pair_parallel_tangents_take_cosine_fallback():
    base = compile_curve(CYCLOID, (0.5, 5.5))
    report = check_involute_pair(base, DualScalar(5.9105),
                                 DualScalar(6.4205, 0.1534), n=3)
    assert report.passed
    assert report.angle_samples is None
    assert report.criteria["angle_constant"].detail.startswith("cosine fallback")


def test_involute_pair_distance_is_string_difference(dual_circle):
    report = check_involute_pair(dual_circle, DualScalar(3.0),
                                 DualScalar(5.0), n=24, tol=1e-8)
    dist, _ = None, None
    for c in report.criteria.values():
        if c.name == "distance_constant":
            dist = c
    assert dist is not None and dist.passed
    assert "2" in report.criteria["distance_value"].detail


def test_involute_pair_evaluates_unit_base_once_per_sample(
        dual_circle, monkeypatch):
    ensure_unit_speed(dual_circle)
    calls = []
    coord_jets = ReparamCurve.coord_jets

    def counted(self, *args, **kwargs):
        calls.append(args)
        return coord_jets(self, *args, **kwargs)

    monkeypatch.setattr(ReparamCurve, "coord_jets", counted)
    report = check_involute_pair(dual_circle, 3, 5, n=4)
    assert report.passed
    # two involute frames and two involute_torsion calls at each sample
    # share one evaluation of the unit-speed base
    assert len(calls) == 4


# The four plane bases of the involute theorem, each scaled by a dual
# factor; the string constants exceed the arc length, so the cusp-free
# window is the whole unit-speed domain.
PLANE_FAMILIES = {
    "circle": ("[(1 + eps*0.3)*1.2*cos(t), (1 + eps*0.3)*1.2*sin(t), 0]",
               (0.0, 5.0)),
    "logspiral": ("[(1 + eps*0.2)*exp(0.15*t)*cos(t), "
                  "(1 + eps*0.2)*exp(0.15*t)*sin(t), 0]", (0.0, 5.0)),
    "cycloid": ("[(1 + eps*0.4)*0.8*(t - sin(t)), "
                "(1 + eps*0.4)*0.8*(1 - cos(t)), 0]", (0.5, 5.5)),
    "parabola": ("[(1 + eps*0.25)*t, (1 + eps*0.25)*0.6*t^2, 0]", (-1.5, 1.5)),
}


@pytest.fixture(scope="module")
def plane_involutes():
    """Per family: the raw base, its two string constants and the two
    involutes on the window check_involute_pair uses."""
    out = {}
    for kind, (src, domain) in PLANE_FAMILIES.items():
        base = compile_curve(src, domain)
        unit = ensure_unit_speed(base)
        c1 = DualScalar(1.2 * unit.domain[1] + 1.0)
        c2 = DualScalar(c1.re + 0.7, 0.2)
        out[kind] = (base, c1, c2, InvoluteCurve(unit, c1, domain=unit.domain),
                     InvoluteCurve(unit, c2, domain=unit.domain))
    return out


@pytest.mark.parametrize("kind", sorted(PLANE_FAMILIES))
def test_involutes_pair_at_equal_arc_length(kind, plane_involutes):
    # Why check_involute_pair may pair its involutes at equal s: the
    # nearest-point pairing returns its seed s exactly on these bases.
    _, _, _, inv1, inv2 = plane_involutes[kind]
    pair = nearest_point_pairing(inv1, inv2)
    for s in bertrand_module._params(inv1.domain, 8):
        assert pair(s) == s


def test_involute_pair_criteria_match_general_check(plane_involutes):
    base, c1, c2, inv1, inv2 = plane_involutes["logspiral"]
    report = check_involute_pair(base, c1, c2, n=8, tol=1e-8)
    general = check_bertrand_pair(inv1, inv2, n=8, tol=1e-8)
    assert report.passed and general.passed
    for name in ("normal_alignment", "distance_constant", "angle_constant",
                 "linear_relation"):
        assert report.criteria[name] == general.criteria[name]


def test_involute_pair_not_planar(unit_helix):
    with pytest.raises(NotPlanar):
        check_involute_pair(unit_helix, DualScalar(3.0), DualScalar(5.0),
                            n=12, tol=1e-8)


def test_involute_pair_pure_dual_string_difference(dual_circle, monkeypatch):
    monkeypatch.setattr(bertrand_module, "frenet_at", None)
    with pytest.raises(PureDualVector, match=r"4\+eps\*0 and c2 = 4\+eps\*0\.3"):
        check_involute_pair(dual_circle, DualScalar(4.0),
                            DualScalar(4.0, 0.3), n=8)


def test_involute_pair_equal_strings(dual_circle):
    report = check_involute_pair(dual_circle, DualScalar(3.0),
                                 DualScalar(3.0), n=16, tol=1e-8)
    assert report.passed
    dist = report.criteria["distance_constant"]
    assert dist.max_deviation <= 1e-12


def test_report_serializes(helix_r2):
    beta = offset_curve(helix_r2, DualScalar(1.0))
    report = check_bertrand_pair(helix_r2, beta, n=16, tol=1e-8)
    d = report.to_dict()
    assert d["pass"] is True
    assert {c["name"] for c in d["criteria"]} >= {"normal_alignment",
                                                  "distance_constant"}
    assert "residual" in d["fit"]
