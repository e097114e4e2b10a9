"""Oriented lines of Euclidean 3-space and their dual-unit-vector form.

An oriented line is stored as (direction, moment) with moment = point x
direction for any point on the line; the pairing direction + eps*moment
is a dual unit vector, and every dual unit vector arises this way.  The
dual angle between two such vectors carries the angle between the lines
in its real part and the common-perpendicular distance in its dual part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, NotDualUnit, NotUnit, ZeroDirection
from .linalg import DualAngle, DualVec3, dual_angle

UNIT_TOL = 1e-9


def _as_vec(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite 3-vector: {arr!r}")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OrientedLine:
    """A line of E^3: unit direction, moment = point x direction (to 1e-9, UNIT_TOL)."""

    direction: np.ndarray
    moment: np.ndarray

    def __init__(self, direction, moment):
        d = _as_vec(direction)
        m = _as_vec(moment)
        if abs(np.linalg.norm(d) - 1.0) > UNIT_TOL:
            raise NotUnit(
                f"line direction must be unit, |d| = {float(np.linalg.norm(d)):.17g}")
        if abs(float(d @ m)) > UNIT_TOL:
            raise NotDualUnit(
                f"moment must be orthogonal to direction, <d,m> = {float(d @ m):.17g}")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "moment", m)

    @property
    def closest_point(self) -> np.ndarray:
        """The point of the line nearest the origin."""
        return np.cross(self.direction, self.moment)

    def to_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.direction],
            "moment": [float(v) for v in self.moment],
            "closest_point": [float(v) for v in self.closest_point],
        }


def line_from_point_dir(p, d) -> OrientedLine:
    """The oriented line through point p with direction d (not necessarily unit)."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    n = np.linalg.norm(d)
    if n <= 1e-12:
        raise ZeroDirection(f"direction vector is zero: {d!r}")
    direction = d / n
    return OrientedLine(direction, np.cross(p, direction))


def to_dual_unit(line: OrientedLine) -> DualVec3:
    """Dual unit vector of the line: direction + eps*moment."""
    return DualVec3.from_arrays(line.direction, line.moment)


def from_dual_unit(v: DualVec3) -> OrientedLine:
    """The line of a dual unit vector, to UNIT_TOL = 1e-9 (inverse of to_dual_unit)."""
    a = v.re
    m = v.du
    if abs(np.linalg.norm(a) - 1.0) > UNIT_TOL or abs(float(a @ m)) > UNIT_TOL:
        raise NotDualUnit(
            f"not a dual unit vector: |re| = {float(np.linalg.norm(a)):.17g}, "
            f"<re,du> = {float(a @ m):.17g}")
    return OrientedLine(a, m)


def line_dual_angle(l1: OrientedLine, l2: OrientedLine) -> DualAngle:
    """Dual angle between two oriented lines.

    Real part: angle between the directions.  Dual part: the common
    perpendicular distance, up to the sign convention of dual_angle.
    Raises DegenerateAngle for (anti)parallel lines.
    """
    return dual_angle(to_dual_unit(l1), to_dual_unit(l2))
