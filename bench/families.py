"""Curve families with closed-form answers, and the oracles built on them.

Every family is scaled by the dual factor (1 + eps*k), so its dual speed
is (1 + eps*k) times the real speed and its dual arc length over any
interval is L + eps*k*L.  The real lengths below come from integrating
the speed by hand, not from the package, so they are an independent
check on its quadrature.

Dual numbers here are plain (re, du) pairs; nothing in this module
imports dualcurves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# The constant-curvature curve of the test fixtures: curvature 1, torsion
# tan(3t/5), regular on (-5*pi/6, 5*pi/6).
CONST_CURVATURE_COMPONENTS = ("2/5*(-cos(t) + 4*cos(t/5) - 1/11*cos(11*t/5))",
                              "2/5*(-sin(t) - 4*sin(t/5) - 1/11*sin(11*t/5))",
                              "-4/15*cos(6*t/5)")
CONST_CURVATURE = "[" + ", ".join(CONST_CURVATURE_COMPONENTS) + "]"
CONST_CURVATURE_DOMAIN = (0.15, 1.2)
TWISTED_CUBIC = "[t, t^2, t^3]"
TWISTED_CUBIC_DOMAIN = (-1.0, 1.0)


def draw(rng: random.Random, lo: float, hi: float) -> float:
    """A constant in [lo, hi] rounded to 4 decimals, so the source text
    and the oracle use the same number."""
    return round(rng.uniform(lo, hi), 4)


def dual_text(re: float, du: float) -> str:
    return f"({re!r} + eps*{du!r})"


def const_curvature_scaled(k: float) -> str:
    """The constant-curvature curve scaled by (1 + eps*k): its curvature is
    1 - eps*k, so its only Bertrand offset is lam = 1/kappa = 1 + eps*k."""
    return "[" + ", ".join(f"(1 + eps*{k!r})*({c})" for c in CONST_CURVATURE_COMPONENTS) + "]"


# -- dual arithmetic on (re, du) pairs ---------------------------------------

def dmul(x, y):
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])


def ddiv(x, y):
    return (x[0] / y[0], (x[1] * y[0] - x[0] * y[1]) / (y[0] * y[0]))


def dadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def dual_helix_invariants(radius, pitch):
    """Closed-form (kappa, tau) of [R cos t, R sin t, H t] for dual R, H:
    kappa = R / (R^2 + H^2), tau = H / (R^2 + H^2)."""
    denom = dadd(dmul(radius, radius), dmul(pitch, pitch))
    return ddiv(radius, denom), ddiv(pitch, denom)


def dev(x, y) -> float:
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


# -- plane and helix families --------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One seeded member of a curve family, scaled by (1 + eps*k)."""

    kind: str
    params: tuple[float, ...]
    k: float
    domain: tuple[float, float]

    @property
    def source(self) -> str:
        s = f"(1 + eps*{self.k!r})"
        p = self.params
        if self.kind in ("helix", "circle"):
            r, h = p
            z = f"{s}*{h!r}*t" if h else "0"
            return f"[{s}*{r!r}*cos(t), {s}*{r!r}*sin(t), {z}]"
        if self.kind == "logspiral":
            a, b = p
            return (f"[{s}*{a!r}*exp({b!r}*t)*cos(t), "
                    f"{s}*{a!r}*exp({b!r}*t)*sin(t), 0]")
        if self.kind == "cycloid":
            (r,) = p
            return f"[{s}*{r!r}*(t - sin(t)), {s}*{r!r}*(1 - cos(t)), 0]"
        if self.kind == "parabola":
            (a,) = p
            return f"[{s}*t, {s}*{a!r}*t^2, 0]"
        raise ValueError(self.kind)

    def real_length(self, t0: float, t1: float) -> float:
        """Real arc length over [t0, t1], in closed form."""
        p = self.params
        if self.kind in ("helix", "circle"):
            r, h = p
            return math.hypot(r, h) * (t1 - t0)
        if self.kind == "logspiral":
            a, b = p
            return a * math.sqrt(1 + b * b) * (math.exp(b * t1) - math.exp(b * t0)) / b
        if self.kind == "cycloid":
            (r,) = p
            return 4 * r * (math.cos(t0 / 2) - math.cos(t1 / 2))
        if self.kind == "parabola":
            (a,) = p

            def antiderivative(t):
                return (t / 2 * math.sqrt(1 + 4 * a * a * t * t)
                        + math.asinh(2 * a * t) / (4 * a))
            return antiderivative(t1) - antiderivative(t0)
        raise ValueError(self.kind)

    @property
    def length(self):
        """Dual arc length over the whole domain: L + eps*k*L."""
        length = self.real_length(*self.domain)
        return (length, self.k * length)


def helix(rng, plane=False) -> Family:
    """A circular helix; with plane=True the circle (pitch 0)."""
    h = 0.0 if plane else draw(rng, 0.3, 0.9)
    return Family("circle" if plane else "helix", (draw(rng, 0.8, 1.6), h),
                  draw(rng, 0.1, 0.5), (0.0, 5.0))


def logspiral(rng) -> Family:
    return Family("logspiral", (draw(rng, 0.8, 1.2), draw(rng, 0.1, 0.2)),
                  draw(rng, 0.1, 0.5), (0.0, 5.0))


def cycloid(rng) -> Family:
    # An arc between the cusps at 0 and 2*pi.
    return Family("cycloid", (draw(rng, 0.6, 1.0),), draw(rng, 0.1, 0.5), (0.5, 5.5))


def parabola(rng) -> Family:
    return Family("parabola", (draw(rng, 0.4, 0.8),), draw(rng, 0.1, 0.5), (-1.5, 1.5))


def plane_families(rng) -> list[Family]:
    """The four plane bases: dual circle, log spiral, cycloid arc, parabola."""
    return [helix(rng, plane=True), logspiral(rng), cycloid(rng), parabola(rng)]


# -- oracles -------------------------------------------------------------------
# Each returns an error message, or None when the value passes.

def check_dual_length(family: Family, measured, tol: float = 1e-9) -> str | None:
    expected = family.length
    err = dev(measured, expected)
    if err > tol:
        return f"{family.kind} length {measured} != {expected} (dev {err:.3g})"
    return None


def check_inverse(family: Family, s: float, t: float, tol: float = 1e-9) -> str | None:
    got = family.real_length(family.domain[0], t)
    if abs(got - s) > tol:
        return f"{family.kind}: length to t = {t!r} is {got!r}, wanted {s!r}"
    return None


def _vec(d):
    return [(re, du) for re, du in zip(d["re"], d["du"])]


def _ddot(u, v):
    acc = (0.0, 0.0)
    for a, b in zip(u, v):
        acc = dadd(acc, dmul(a, b))
    return acc


def check_frame(record: dict, tol: float = 1e-9) -> str | None:
    """T, N, B orthonormal in both parts: <X, Y> = delta + eps*0."""
    frame = [_vec(record[key]) for key in ("T", "N", "B")]
    for i in range(3):
        for j in range(i, 3):
            want = (1.0 if i == j else 0.0, 0.0)
            err = dev(_ddot(frame[i], frame[j]), want)
            if err > tol:
                return f"frame not orthonormal at t = {record['t']!r} (dev {err:.3g})"
    return None


def check_helix_record(record: dict, radius, pitch, tol: float = 1e-9) -> str | None:
    kappa, tau = dual_helix_invariants(radius, pitch)
    got_k = (record["kappa"]["re"], record["kappa"]["du"])
    got_t = (record["tau"]["re"], record["tau"]["du"])
    err = max(dev(got_k, kappa), dev(got_t, tau))
    if err > tol:
        return f"helix invariants off by {err:.3g} at t = {record['t']!r}"
    return check_frame(record, tol)
