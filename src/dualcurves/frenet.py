"""Dual Frenet apparatus: frame vectors, curvature, torsion, residual checks."""

from __future__ import annotations

from dataclasses import dataclass

from .curves import DualCurve, arc_length
from .dual import DualScalar, as_dual, div
from .errors import PureDualCurvature, PureDualDivisor, PureDualVector
from .linalg import DualVec3, cross, det3, dot, is_pure_dual_vec, norm, normalize


@dataclass(frozen=True)
class FrenetData:
    """Frame and scalar invariants of a dual curve at one parameter value,
    plus the position and dual speed from the same evaluation (not in to_dict)."""

    t: float
    T: DualVec3
    N: DualVec3
    B: DualVec3
    kappa: DualScalar
    tau: DualScalar
    position: DualVec3
    speed: DualScalar

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "T": self.T.to_dict(),
            "N": self.N.to_dict(),
            "B": self.B.to_dict(),
            "kappa": self.kappa.to_dict(),
            "tau": self.tau.to_dict(),
        }


def frenet_at(curve: DualCurve, t: float) -> FrenetData:
    """Frenet frame, curvature and torsion of the curve at t.

    T is the normalized velocity; N comes from Gram-Schmidt of the
    acceleration against T (exact jets, no differencing); B = T x N.
    Curvature and torsion use the general-parameter formulas

        kappa = |d1 x d2| / |d1|^3,   tau = det(d1, d2, d3) / |d1 x d2|^2,

    all in dual arithmetic.  The torsion denominator is the squared
    norm; with any other power the Frenet matrix residuals (see
    frenet_ode_residual) do not vanish.

    Raises PureDualCurvature when d1 x d2, or a norm or divisor of the
    frame data, has real part <= PURE_DUAL_TOL (1e-9): the frame is undefined.
    """
    point = curve.eval(t)
    d1, d2, d3 = point.d1, point.d2, point.d3
    c = cross(d1, d2)
    if is_pure_dual_vec(c):
        raise PureDualCurvature(
            f"curvature has no real part at t = {t!r}; frame undefined")
    try:
        speed = norm(d1)
        T = d1 * div(DualScalar(1.0), speed)
        kappa = norm(c) / speed**3
        tau = det3(d1, d2, d3) / dot(c, c)
        w = d2 - dot(d2, T) * T
        N = normalize(w)
    except (PureDualVector, PureDualDivisor) as exc:
        raise PureDualCurvature(
            f"degenerate frame data at t = {t!r}: {exc}") from exc
    B = cross(T, N)
    return FrenetData(t=float(as_dual(t).re), T=T, N=N, B=B, kappa=kappa,
                      tau=tau, position=point.position, speed=speed)


def _max_abs(v: DualVec3) -> float:
    return max(max(abs(c.re), abs(c.du)) for c in v.comps())


def frenet_ode_residual(curve: DualCurve, t: float, h: float) -> tuple[float, float, float]:
    """Residuals of the three Frenet equations at t, by central differences.

    Frame derivatives are taken with respect to the dual arc length:
    X' ~ (X(t+h) - X(t-h)) / s_hat where s_hat = arc_length(t-h, t+h).
    Returns the max-norm (over components, both parts) of

        T' - kappa*N,   N' + kappa*T - tau*B,   B' + tau*N.
    """
    lo, hi = frenet_at(curve, t - h), frenet_at(curve, t + h)
    mid = frenet_at(curve, t)
    ds = arc_length(curve, t - h, t + h)

    def deriv(a: DualVec3, b: DualVec3) -> DualVec3:
        d = b - a
        return DualVec3(*(c / ds for c in d.comps()))

    dT, dN, dB = deriv(lo.T, hi.T), deriv(lo.N, hi.N), deriv(lo.B, hi.B)
    r_t = _max_abs(dT - mid.kappa * mid.N)
    r_n = _max_abs(dN + mid.kappa * mid.T - mid.tau * mid.B)
    r_b = _max_abs(dB + mid.tau * mid.N)
    return (r_t, r_n, r_b)
