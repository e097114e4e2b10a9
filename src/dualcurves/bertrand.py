"""Bertrand offsets, pair verdicts, involutes, and the involute torsion formula.

The constructions return derived DualCurves whose jets are propagated
from the base curve's jets, so third derivatives (hence the mate's
torsion) stay exact.  The check_* functions are numerical verifiers:
they sample, measure deviations, and aggregate pass/fail verdicts into
a report; they never assume the property they test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import (_EVAL_ORDER, DualCurve, ReparamCurve, _one_evaluation,
                     reparam_by_arclength)
from .dual import PURE_DUAL_TOL, DualScalar, as_dual, dual_abs, is_pure_dual
from .errors import (CuspPoint, DegenerateAngle, DegenerateDenominator,
                     IrregularCurve, NotPlanar, PureDualCurvature,
                     PureDualDivisor, PureDualVector, Underdetermined)
from .frenet import frenet_at
from .jets import Jet, jderiv, jnorm, jnormalize, jtruncate
from .linalg import DualAngle, DualVec3, cross, dot, dual_angle, is_pure_dual_vec, norm

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 100

# The fitted-relation check runs looser than the pointwise ones:
# the fit accumulates error from every sample.
RELATION_TOL_FACTOR = 10.0

# Below this tangent-angle sine, mu = lambda*cot(phi) is ill-defined and
# the linear-relation criterion is reported as not applicable.
MIN_RELATION_SIN = 1e-3

WINDOW_MARGIN = 0.05  # share of the shorter involute string kept clear of its cusp


def _params(domain, n):
    a, b = domain
    return [a + (b - a) * (i + 0.5) / n for i in range(n)]


def _unit_tangent(A, order: int, label: str, param: str, t0):
    """Jets of the unit tangent, to order, from base jets A of order + 1
    or more; IrregularCurve where the base velocity has no real part."""
    try:
        return jnormalize(jtruncate(jderiv(A), order))
    except PureDualVector as exc:
        raise IrregularCurve(
            f"{label} base is irregular near {param} = {as_dual(t0).re!r}") from exc


class OffsetCurve(DualCurve):
    """The normal offset beta(t) = alpha(t) + lam * N(t).

    Jets come from jet-level Gram-Schmidt of the base acceleration
    against the velocity, which needs base jets two orders higher than
    requested.
    """

    def __init__(self, base: DualCurve, lam):
        super().__init__(base.domain)
        self.base = base
        self.lam = as_dual(lam)

    def coord_jets(self, t0, order: int):
        A = self.base._jets(t0, order + 2)
        T = _unit_tangent(A, order, "offset", "t", t0)
        acc = jderiv(jderiv(A))
        try:
            N = jnormalize(acc - T * dot(acc, T))
        except PureDualVector as exc:
            raise PureDualCurvature(
                "offset undefined where the base curvature has no real part"
                f" (t = {as_dual(t0).re!r})") from exc
        lam_jet = Jet.constant(self.lam, order)
        return tuple(a.truncated(order) + n * lam_jet for a, n in zip(A, N))


def offset_curve(alpha: DualCurve, lam) -> OffsetCurve:
    """Offset along the principal normal by the dual constant lam."""
    return OffsetCurve(alpha, lam)


class InvoluteCurve(DualCurve):
    """The involute beta(s) = alpha(s) + (c - s) * T(s) of a unit-speed base.

    Evaluation raises CuspPoint where c.re - s <= PURE_DUAL_TOL (1e-9): the
    involute has a cusp where the unwound string length vanishes.
    """

    def __init__(self, base: DualCurve, c, domain=None):
        super().__init__(domain if domain is not None else base.domain)
        self.base = base
        self.c = as_dual(c)

    def coord_jets(self, t0, order: int):
        s0 = as_dual(t0)
        self._check_domain(s0.re)
        if self.c.re - s0.re <= PURE_DUAL_TOL:
            raise CuspPoint(
                f"involute cusp: c - s = {self.c.re - s0.re!r} at s = {s0.re!r}")
        A = self.base.coord_jets(s0, order + 1)
        T = _unit_tangent(A, order, "involute", "s", s0)
        string = [self.c - s0] + [DualScalar(0.0)] * order
        if order >= 1:
            string[1] = DualScalar(-1.0)
        f = Jet(tuple(string))
        return tuple(a.truncated(order) + t * f for a, t in zip(A, T))


def ensure_unit_speed(curve: DualCurve) -> DualCurve:
    """The curve itself if it is a ReparamCurve, else its arc-length
    reparametrization: no finite set of speed probes proves unit speed.

    The reparametrization is built once per curve object, kept on the
    curve, and returned again on later calls.
    """
    if isinstance(curve, ReparamCurve):
        return curve
    if "_unit_speed" not in vars(curve):
        curve._unit_speed = reparam_by_arclength(curve)
    return curve._unit_speed


def involute(alpha: DualCurve, c) -> InvoluteCurve:
    """Involute of alpha for string constant c, on the arc-length
    reparametrization of alpha (see ensure_unit_speed)."""
    return InvoluteCurve(ensure_unit_speed(alpha), as_dual(c))


def involute_torsion(alpha: DualCurve, c, s: float) -> DualScalar:
    """Torsion of the involute, from the base curve's invariants alone:

        (kappa*tau' - kappa'*tau) / (kappa * (c - s) * (kappa^2 + tau^2))

    with ' the arc-length derivative: an independent route to the number
    frenet_at gives on the involute.  Real parts <= PURE_DUAL_TOL are zero;
    a zero curvature or frame divisor raises PureDualCurvature naming s.
    """
    unit = ensure_unit_speed(alpha)
    c = as_dual(c)
    A = unit.coord_jets(as_dual(s), 4)
    d1 = jderiv(A)
    d2 = jderiv(d1)
    d3 = jtruncate(jderiv(d2), 1)
    d1, d2 = jtruncate(d1, 1), jtruncate(d2, 1)
    cv = cross(d1, d2)
    if is_pure_dual_vec(v.d0 for v in cv):
        raise PureDualCurvature(f"curvature has no real part at s = {s!r}")
    try:
        speed = jnorm(d1)
        kappa_jet = jnorm(cv) / speed**3
        tau_jet = dot(cv, d3) / dot(cv, cv)
    except (PureDualVector, PureDualDivisor) as exc:
        raise PureDualCurvature(f"degenerate frame data at s = {s!r}: {exc}") from exc
    kappa, tau = kappa_jet.d0, tau_jet.d0
    dkappa = kappa_jet.d1 / speed.d0
    dtau = tau_jet.d1 / speed.d0
    if is_pure_dual(kappa):
        raise PureDualCurvature(f"pure-dual curvature at s = {s!r}")
    string = c - as_dual(s)
    if is_pure_dual(string):
        raise CuspPoint(f"c - s is pure-dual at s = {s!r}")
    sq = kappa * kappa + tau * tau
    if is_pure_dual(sq):
        raise DegenerateDenominator(
            f"kappa^2 + tau^2 has no real part at s = {s!r}")
    return (kappa * dtau - dkappa * tau) / (kappa * string * sq)


def offset_tangent_residual(alpha: DualCurve, lam, t: float) -> tuple[float, float]:
    """Residual of the offset velocity identity at t:

        (ds_beta/ds_alpha) * T_beta  =  (1 - lam*kappa) * T + lam*tau * B

    for the mate beta = alpha + lam*N with constant lam.  Returns the
    max real and dual component magnitudes of the difference.
    """
    lam = as_dual(lam)
    beta = OffsetCurve(alpha, lam)
    with _one_evaluation():
        fb = frenet_at(beta, t)
        fa = frenet_at(alpha, t)
    ratio = fb.speed / fa.speed
    lhs = ratio * fb.T
    one = DualScalar(1.0)
    rhs = (one - lam * fa.kappa) * fa.T + (lam * fa.tau) * fa.B
    diff = lhs - rhs
    return (max(abs(c.re) for c in diff.comps()),
            max(abs(c.du) for c in diff.comps()))


def identity_pairing(t: float) -> float:
    return t


def nearest_point_pairing(alpha: DualCurve, beta: DualCurve):
    """Correspondence t -> u with beta(u) the foot of alpha(t) on beta.

    Newton iteration on g(u) = <beta'(u), beta(u) - alpha(t)>_re = 0,
    seeded by the parameter itself and clamped to beta's domain.  The
    seed is accepted outright when it already satisfies the
    orthogonality condition to round-off; steps are damped because g
    can be nearly flat (offsets through the curvature centers make the
    distance stationary to high order).  Returns the last iterate even
    when the tolerance is not met: downstream verifiers fail bad pairs
    on their own.
    """
    lo, hi = beta.domain
    span = hi - lo
    max_step = 0.05 * max(span, 1e-6)

    def pair(t: float) -> float:
        p = alpha.position(t)
        u = min(max(t, lo), hi)
        for k in range(60):
            # The seed at eval's order, so a mate's frame at u reuses it.
            jets = beta._jets(as_dual(u), _EVAL_ORDER if k == 0 else 2)
            diff = [j.d0.re - q.re for j, q in zip(jets, p.comps())]
            d1 = [j.d1.re for j in jets]
            d2 = [j.d2.re for j in jets]
            g = sum(a * b for a, b in zip(d1, diff))
            d1_mag = math.sqrt(sum(a * a for a in d1))
            diff_mag = math.sqrt(sum(b * b for b in diff))
            if abs(g) <= 1e-12 * max(1.0, d1_mag * diff_mag):
                break
            dg = sum(a * b for a, b in zip(d2, diff)) + sum(a * a for a in d1)
            d2_mag = math.sqrt(sum(a * a for a in d2))
            if abs(dg) <= 1e-12 * max(1.0, d2_mag * diff_mag + d1_mag * d1_mag):
                break
            step = min(max(g / dg, -max_step), max_step)
            u = min(max(u - step, lo), hi)
            if abs(step) <= 1e-13 * max(1.0, span):
                break
        return u

    return pair


@dataclass(frozen=True)
class CriterionResult:
    """One named pass/fail measurement inside a report."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    applicable: bool = True
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_deviation", float(self.max_deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "applicable": self.applicable,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RelationFit:
    """Least-squares solution of lam*kappa_i + mu*tau_i = 1 over duals."""

    lam: DualScalar
    mu: DualScalar
    residual: float
    underdetermined: bool
    family: tuple[float, float] | None

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam.to_dict(),
            "mu": self.mu.to_dict(),
            "residual": self.residual,
            "underdetermined": self.underdetermined,
            "family": list(self.family) if self.family else None,
        }


@dataclass(frozen=True)
class BertrandReport:
    """Aggregated evidence for or against a Bertrand pair."""

    criteria: dict[str, CriterionResult]
    distance_samples: list[DualScalar] = field(default_factory=list)
    angle_samples: list[DualAngle] | None = None
    cos_samples: list[DualScalar] = field(default_factory=list)
    normal_alignment: list[tuple[float, float]] = field(default_factory=list)
    fit: RelationFit | None = None
    speed_ratio_variation: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria.values() if c.applicable)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "criteria": [c.to_dict() for c in self.criteria.values()],
            "fit": self.fit.to_dict() if self.fit else None,
            "speed_ratio_variation": self.speed_ratio_variation,
            "distance_samples": [d.to_dict() for d in self.distance_samples],
            "angles": ([a.to_dict() for a in self.angle_samples]
                       if self.angle_samples is not None else None),
            "cos_samples": [c.to_dict() for c in self.cos_samples],
            "normal_alignment": [{"re": r, "du": d}
                                 for r, d in self.normal_alignment],
        }


def _pair_distance(p: DualVec3, q: DualVec3) -> DualScalar:
    """Dual distance between corresponding points; coincident points
    (both parts) give 0+eps*0, a pure-dual separation is an error."""
    diff = q - p
    try:
        return norm(diff)
    except PureDualVector:
        if math.sqrt(sum(c.du * c.du for c in diff)) <= PURE_DUAL_TOL:
            return DualScalar(0.0)
    raise PureDualVector(
        "corresponding points coincide in the real part but not the dual part")


def _deviation(values: list[DualScalar]) -> tuple[float, DualScalar]:
    mean = DualScalar(sum(v.re for v in values) / len(values),
                      sum(v.du for v in values) / len(values))
    dev = max(max(abs(v.re - mean.re), abs(v.du - mean.du)) for v in values)
    return dev, mean


def _distance_criterion(ps: list[DualVec3], qs: list[DualVec3], tol: float):
    """Constancy of |qs[i] - ps[i]|; returns (result, samples, mean)."""
    samples = [_pair_distance(p, q) for p, q in zip(ps, qs)]
    dev, mean = _deviation(samples)
    result = CriterionResult("distance_constant", dev <= tol, dev, tol,
                             detail=f"mean distance {mean}")
    return result, samples, mean


def _angle_criterion(tas: list[DualVec3], tbs: list[DualVec3], tol: float):
    """Constancy of the dual angle between tangents tas[i], tbs[i]; see
    check_angle_constant."""
    angles: list[DualAngle] | None = []
    cosines: list[DualScalar] = []
    for ta, tb in zip(tas, tbs):
        cosines.append(dot(ta, tb))
        if angles is not None:
            try:
                angles.append(dual_angle(ta, tb))
            except DegenerateAngle:
                angles = None
    if angles is not None:
        values = [DualScalar(a.phi, a.phi_star) for a in angles]
        detail = "dual angle"
    else:
        values = cosines
        detail = "cosine fallback (tangents (anti)parallel at some samples)"
    dev, mean = _deviation(values)
    result = CriterionResult("angle_constant", dev <= tol, dev, tol,
                             detail=f"{detail}; mean {mean}")
    return result, angles, cosines


def check_distance_constant(alpha: DualCurve, beta: DualCurve, pairing=None,
                            n: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL):
    """The dual distance between corresponding points is constant for a
    true pair.  Needs positions only, so it also runs where no frame
    exists.  Returns (CriterionResult, samples, mean)."""
    pairing = pairing or identity_pairing
    ts = _params(alpha.domain, n)
    return _distance_criterion([alpha.position(t) for t in ts],
                               [beta.position(pairing(t)) for t in ts], tol)


def check_angle_constant(alpha: DualCurve, beta: DualCurve, pairing=None,
                         n: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL):
    """The dual angle between tangents is constant for a true pair.

    Where dual_angle degenerates (tangents (anti)parallel) the check
    falls back to constancy of the dual cosine dot(T, T_mate), which is
    the form the underlying derivative argument actually establishes.
    Returns (CriterionResult, angles_or_None, cos_samples).
    """
    pairing = pairing or identity_pairing
    ts = _params(alpha.domain, n)
    return _angle_criterion([frenet_at(alpha, t).T for t in ts],
                            [frenet_at(beta, pairing(t)).T for t in ts], tol)


def fit_linear_relation(kappas, taus) -> RelationFit:
    """Solve lam*kappa_i + mu*tau_i = 1 for dual constants (lam, mu).

    Real parts by linear least squares; dual parts from the first-order
    perturbation of the same system.  Rank-deficient sample matrices
    (constant curvature/torsion ratios) yield the minimum-norm solution,
    flagged underdetermined, with the nullspace direction attached.
    """
    if len(kappas) < 2 or len(kappas) != len(taus):
        raise Underdetermined("need at least two (kappa, tau) samples")
    A = np.array([[k.re, t.re] for k, t in zip(kappas, taus)])
    b = np.ones(len(kappas))
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    underdetermined = bool(rank < 2)
    family = None
    if underdetermined:
        family = tuple(float(v) for v in np.linalg.svd(A)[2][-1])
    b_star = -np.array([x[0] * k.du + x[1] * t.du for k, t in zip(kappas, taus)])
    x_star, *_ = np.linalg.lstsq(A, b_star, rcond=None)
    lam = DualScalar(float(x[0]), float(x_star[0]))
    mu = DualScalar(float(x[1]), float(x_star[1]))
    residual = 0.0
    for k, t in zip(kappas, taus):
        r = lam * k + mu * t - 1.0
        residual = max(residual, abs(r.re), abs(r.du))
    return RelationFit(lam, mu, residual, underdetermined, family)


def check_bertrand_pair(alpha: DualCurve, beta: DualCurve,
                        n: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL,
                        pairing=None) -> BertrandReport:
    """Full Bertrand verdict on a candidate pair.

    Correspondence defaults to nearest-point Newton refinement seeded by
    the parameter itself.  Four criteria: principal normals aligned,
    constant dual distance, constant tangent angle, and the linear
    relation lam*kappa + mu*tau = 1 fitted over the samples.  The
    relation criterion is marked not applicable when the tangent angle
    is too close to 0 or pi for mu to be meaningful, and runs at
    RELATION_TOL_FACTOR times the pair tolerance.
    """
    pairing = pairing or nearest_point_pairing(alpha, beta)
    ts = _params(alpha.domain, n)
    with _one_evaluation():
        us = [pairing(t) for t in ts]
        # beta first: an offset's frame evaluates the base that alpha's reuses.
        frames_b = [frenet_at(beta, u) for u in us]
        frames_a = [frenet_at(alpha, t) for t in ts]
    return _pair_report(ts, us, frames_a, frames_b, tol)


def _pair_report(ts, us, frames_a, frames_b, tol) -> BertrandReport:
    """The four Bertrand criteria from the frames of alpha at ts and of
    beta at the paired parameters us; see check_bertrand_pair."""
    alignment = []
    for fa, fb in zip(frames_a, frames_b):
        c = cross(fa.N, fb.N)
        alignment.append((math.sqrt(sum(v.re**2 for v in c.comps())),
                          math.sqrt(sum(v.du**2 for v in c.comps()))))
    align_dev = max(max(r, d) for r, d in alignment)
    criteria = {}
    criteria["normal_alignment"] = CriterionResult(
        "normal_alignment", align_dev <= tol, align_dev, tol,
        detail="max |N x N_mate| over samples, both parts")

    dist_result, dist_samples, _ = _distance_criterion(
        [f.position for f in frames_a], [f.position for f in frames_b], tol)
    criteria["distance_constant"] = dist_result

    angle_result, angles, cosines = _angle_criterion(
        [f.T for f in frames_a], [f.T for f in frames_b], tol)
    criteria["angle_constant"] = angle_result

    sin_min = min(
        math.sqrt(sum(v.re**2 for v in cross(fa.T, fb.T).comps()))
        for fa, fb in zip(frames_a, frames_b))
    fit = fit_linear_relation([f.kappa for f in frames_a],
                              [f.tau for f in frames_a])
    rel_tol = RELATION_TOL_FACTOR * tol
    applicable = sin_min >= MIN_RELATION_SIN
    detail = f"min sin(phi) = {sin_min:.3e}"
    if fit.underdetermined:
        detail += f"; underdetermined, family direction {fit.family}"
    criteria["linear_relation"] = CriterionResult(
        "linear_relation", fit.residual <= rel_tol, fit.residual, rel_tol,
        applicable=applicable, detail=detail)

    ratios = []
    for i in range(1, len(ts) - 1):
        du_dt = (us[i + 1] - us[i - 1]) / (ts[i + 1] - ts[i - 1])
        ratios.append(frames_b[i].speed.re * du_dt / frames_a[i].speed.re)
    ratio_var = 0.0
    if ratios:
        mean_ratio = sum(ratios) / len(ratios)
        ratio_var = max(abs(r - mean_ratio) for r in ratios)

    return BertrandReport(
        criteria=criteria,
        distance_samples=dist_samples,
        angle_samples=angles,
        cos_samples=cosines,
        normal_alignment=alignment,
        fit=fit,
        speed_ratio_variation=ratio_var,
    )


def check_involute_pair(alpha: DualCurve, c1, c2, n: int = DEFAULT_SAMPLES,
                        tol: float = DEFAULT_TOL) -> BertrandReport:
    """Two involutes of a plane dual curve form a Bertrand pair.

    Verifies planarity of the base (else NotPlanar), constructs both
    involutes on an arc-length window that stops WINDOW_MARGIN (5 %) of
    the shorter string short of its cusp, confirms both torsion routes
    vanish on each involute, and applies the four Bertrand pair criteria.
    The expected constant distance |c2 - c1| is an extra criterion
    (PureDualVector if c2 - c1 is pure-dual).  All criteria use one
    n-point grid on the window; the involutes pair at equal s.
    """
    c1, c2 = as_dual(c1), as_dual(c2)
    delta = c2 - c1
    if is_pure_dual(delta) and abs(delta.du) > PURE_DUAL_TOL:
        raise PureDualVector(f"string constants c1 = {c1} and c2 = {c2} differ only"
                             " in the dual part: the involutes' separation is pure-dual")
    plan_tol = max(tol, PURE_DUAL_TOL)
    for t in _params(alpha.domain, min(n, 50)):
        tau = frenet_at(alpha, t).tau
        if abs(tau.re) > plan_tol or abs(tau.du) > plan_tol:
            raise NotPlanar(
                f"base curve has torsion {tau} at t = {t!r}; "
                "involutes form a Bertrand pair only over a plane base")

    unit = ensure_unit_speed(alpha)
    length = unit.domain[1] - unit.domain[0]
    c_min = min(c1.re, c2.re)
    margin = max(WINDOW_MARGIN * max(c_min, 0.0), 1e-6)
    hi = min(length, c_min - margin)
    if hi <= 0.0:
        raise CuspPoint(
            f"no cusp-free window: string constant {c_min!r} too small")
    window = (unit.domain[0], unit.domain[0] + hi)
    inv1 = InvoluteCurve(unit, c1, domain=window)
    inv2 = InvoluteCurve(unit, c2, domain=window)

    ss = _params(window, n)
    frames1 = [frenet_at(inv1, s) for s in ss]
    frames2 = [frenet_at(inv2, s) for s in ss]
    criteria = {}
    for label, frames, c in (("involute1", frames1, c1), ("involute2", frames2, c2)):
        worst_frenet = max(max(abs(f.tau.re), abs(f.tau.du)) for f in frames)
        formula = [involute_torsion(unit, c, s) for s in ss]
        worst_formula = max(max(abs(q.re), abs(q.du)) for q in formula)
        criteria[f"{label}_torsion_frenet"] = CriterionResult(
            f"{label}_torsion_frenet", worst_frenet <= tol, worst_frenet, tol,
            detail="direct Frenet torsion of the involute")
        criteria[f"{label}_torsion_formula"] = CriterionResult(
            f"{label}_torsion_formula", worst_formula <= tol, worst_formula, tol,
            detail="torsion from the base-invariants formula")

    report = _pair_report(ss, ss, frames1, frames2, tol)
    criteria.update(report.criteria)

    expected = DualScalar(0.0) if is_pure_dual(delta) else dual_abs(delta)
    _, mean = _deviation(report.distance_samples)
    err = max(abs(mean.re - expected.re), abs(mean.du - expected.du))
    criteria["distance_value"] = CriterionResult(
        "distance_value", err <= RELATION_TOL_FACTOR * tol, err,
        RELATION_TOL_FACTOR * tol,
        detail=f"measured {mean}, expected {expected}")

    return replace(report, criteria=criteria)
