"""Dual 3-vectors: the module D^3 over the dual numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import PURE_DUAL_TOL, DualScalar, apply_analytic, div
from .errors import DegenerateAngle, NotUnit, PureDualVector


@dataclass(frozen=True)
class DualVec3:
    """A vector in D^3: three dual-number components.

    Equivalently a pair of real 3-vectors a + eps a*, exposed through the
    ``re`` and ``du`` properties.

    The components may also be Jets, making a vector of jets: ``+``, ``-``,
    scaling by a Jet or number on the right, ``dot``, ``cross`` and
    ``det3`` are plain ring expressions and serve both.  ``re``, ``du``,
    ``to_dict``, ``from_arrays``, ``norm``, ``normalize`` and
    ``dual_angle`` need DualScalar components.
    """

    x: DualScalar
    y: DualScalar
    z: DualScalar

    @classmethod
    def from_arrays(cls, re, du=None) -> "DualVec3":
        re = np.asarray(re, dtype=float)
        du = np.zeros(3) if du is None else np.asarray(du, dtype=float)
        return cls(DualScalar(re[0], du[0]), DualScalar(re[1], du[1]),
                   DualScalar(re[2], du[2]))

    @property
    def re(self) -> np.ndarray:
        return np.array([self.x.re, self.y.re, self.z.re])

    @property
    def du(self) -> np.ndarray:
        return np.array([self.x.du, self.y.du, self.z.du])

    def comps(self) -> tuple[DualScalar, DualScalar, DualScalar]:
        return (self.x, self.y, self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __add__(self, other):
        return DualVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return DualVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return DualVec3(-self.x, -self.y, -self.z)

    def __mul__(self, c):
        if isinstance(c, DualVec3):
            return NotImplemented
        return DualVec3(self.x * c, self.y * c, self.z * c)

    __rmul__ = __mul__

    def to_dict(self):
        return {"re": [float(v) for v in self.re], "du": [float(v) for v in self.du]}


def dot(u: DualVec3, v: DualVec3) -> DualScalar:
    """Dual inner product <u, v> = <a,b> + eps(<a,b*> + <a*,b>)."""
    return u.x * v.x + u.y * v.y + u.z * v.z


def cross(u: DualVec3, v: DualVec3) -> DualVec3:
    """Componentwise dual cross product."""
    return DualVec3(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


def det3(u: DualVec3, v: DualVec3, w: DualVec3) -> DualScalar:
    """Determinant of the 3x3 dual matrix with rows u, v, w.

    Cofactor expansion along the first row; agrees with dot(u, cross(v, w)).
    """
    return (u.x * (v.y * w.z - v.z * w.y)
            - u.y * (v.x * w.z - v.z * w.x)
            + u.z * (v.x * w.y - v.y * w.x))


def is_pure_dual_vec(comps) -> bool:
    """The vector twin of is_pure_dual: True when the real parts of the
    DualScalars comps have Euclidean length at most PURE_DUAL_TOL (1e-9)."""
    return math.sqrt(sum(c.re * c.re for c in comps)) <= PURE_DUAL_TOL


def norm(u: DualVec3) -> DualScalar:
    """Dual norm ||u|| = ||a|| + eps <a, a*> / ||a||.

    Undefined when the real part vanishes: raises PureDualVector if
    ||a|| <= PURE_DUAL_TOL (1e-9).
    """
    if is_pure_dual_vec(u):
        raise PureDualVector(f"norm of vector with zero real part (du={list(u.du)})")
    return apply_analytic("sqrt", dot(u, u))


def normalize(u: DualVec3) -> DualVec3:
    """u / ||u||; raises PureDualVector when ||a|| <= PURE_DUAL_TOL (1e-9)."""
    return u * div(DualScalar(1.0), norm(u))


@dataclass(frozen=True)
class DualAngle:
    """A dual angle phi + eps*phi_star between dual unit vectors.

    For unit vectors encoding oriented lines, phi is the real angle between
    the directions and phi_star the signed common-perpendicular distance.
    """

    phi: float
    phi_star: float

    def to_dual(self) -> DualScalar:
        return DualScalar(self.phi, self.phi_star)

    def to_dict(self):
        return {"phi": self.phi, "phi_star": self.phi_star}


def _require_unit(u: DualVec3, label: str) -> None:
    try:
        n = norm(u)
    except PureDualVector as exc:
        raise NotUnit(f"{label} has zero real part") from exc
    if abs(n.re - 1.0) > PURE_DUAL_TOL or abs(n.du) > PURE_DUAL_TOL:
        raise NotUnit(f"{label} has dual norm {n}, expected 1+eps*0")


def dual_angle(u: DualVec3, v: DualVec3) -> DualAngle:
    """Dual angle between dual unit vectors.

    phi = arccos of the real part of <u, v>; the dual part is
    phi_star = -<u, v>.du / sin(phi).  Raises NotUnit unless both inputs
    have dual norm 1 to within PURE_DUAL_TOL (1e-9), and DegenerateAngle
    when u x v is pure dual or sin(phi) <= 1e-9 (acos turns a rounded dot
    of 1 - 2**-53 into phi = 2**-26, so near 0 and pi the cross decides).
    """
    _require_unit(u, "first argument")
    _require_unit(v, "second argument")
    d = dot(u, v)
    c = min(1.0, max(-1.0, d.re))
    phi = math.acos(c)
    s = math.sin(phi)
    if s <= PURE_DUAL_TOL or is_pure_dual_vec(cross(u, v)):
        raise DegenerateAngle(
            f"directions are (anti)parallel (cos phi = {c:+.17g}); "
            "the dual part of the angle is undefined")
    return DualAngle(phi, -d.du / s)
