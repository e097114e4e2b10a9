"""Dual space curves: evaluation, dual arc length, reparametrization.

A DualCurve maps a real parameter to a point of D^3 and can produce
jets of any order, which is what makes derived curves (offsets,
involutes, arc-length reparametrizations) composable without finite
differencing.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .dual import DualScalar, as_dual
from .errors import IrregularCurve, OutOfDomain, PureDualVector, QuadratureFailure
from .jets import Jet, compose, jderiv, jnorm, shift_dual
from .linalg import DualVec3, norm


# The one arc-length rule; arc_length and invert_real state it.
_GAUSS_ORDER, _PANEL_TOL, _PANEL_FLOOR, _MAX_DEPTH = 16, 1e-10, 1e-16, 40
_INVERT_TOL, _INVERT_STEPS = 1e-12, 50
_EVAL_ORDER = 3
# (curve, t.re, t.du) -> highest-order jets, inside _one_evaluation only.
_memo = None


@contextlib.contextmanager
def _one_evaluation():
    """DualCurve._jets computes each (curve, t) once; nested scopes share one memo."""
    global _memo
    outer = _memo
    _memo = {} if outer is None else outer
    try:
        yield
    finally:
        _memo = outer


class CurvePoint(NamedTuple):
    """Position and first three derivative vectors at one parameter value."""

    position: DualVec3
    d1: DualVec3
    d2: DualVec3
    d3: DualVec3


class DualCurve:
    """Base class for dual space curves on a closed parameter interval."""

    def __init__(self, domain):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"invalid parameter interval ({a!r}, {b!r})")
        self._domain = (a, b)

    @property
    def domain(self) -> tuple[float, float]:
        return self._domain

    def coord_jets(self, t0, order: int) -> tuple[Jet, Jet, Jet]:
        """Jets of the three coordinates at t0 (a real or dual base point)."""
        raise NotImplementedError

    def _jets(self, t0, order: int) -> tuple[Jet, Jet, Jet]:
        """coord_jets(t0, order); in _one_evaluation, truncated kept jets."""
        if _memo is None:
            return self.coord_jets(t0, order)
        t = as_dual(t0)
        kept = _memo.get((self, t.re, t.du))
        if kept is None or kept[0].order < order:
            kept = _memo[self, t.re, t.du] = self.coord_jets(t0, order)
        return tuple(j.truncated(order) for j in kept)

    def _check_domain(self, t_re: float) -> None:
        a, b = self._domain
        slack = 1e-9 * (b - a) + 1e-12
        if not (a - slack <= t_re <= b + slack):
            raise OutOfDomain(f"parameter {t_re!r} outside [{a!r}, {b!r}]")

    def eval(self, t: float) -> CurvePoint:
        """Position and exact first three derivatives at t."""
        jets = self._jets(as_dual(t), _EVAL_ORDER)
        vecs = [DualVec3(*(j.coeffs[k] for j in jets)) for k in range(4)]
        return CurvePoint(*vecs)

    def position(self, t: float) -> DualVec3:
        jets = self._jets(as_dual(t), 0)
        return DualVec3(*(j.coeffs[0] for j in jets))

    def velocity_norm(self, t: float) -> DualScalar:
        """Dual speed ||alpha'(t)||; raises IrregularCurve if its real part
        is at most PURE_DUAL_TOL (1e-9)."""
        jets = self.coord_jets(as_dual(t), 1)
        try:
            return norm(DualVec3(*(j.d1 for j in jets)))
        except PureDualVector as exc:
            raise IrregularCurve(f"curve speed vanishes at t = {t!r}") from exc


@cache  # built on first use: computing it at import loads numpy.polynomial
def _gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    return tuple(nodes), tuple(weights)


def _panel(curve, a, b, nodes, weights) -> DualScalar:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = DualScalar(0.0)
    for x, w in zip(nodes, weights):
        total = total + w * curve.velocity_norm(mid + half * x)
    return half * total


def _quadrature(curve, t0, t1):
    """Adaptive quadrature of the dual speed over [t0, t1] (see arc_length).

    Returns the total and the accepted half-panels as (right end, value),
    in the order the subdivision accepts them, which runs right to left.
    """
    nodes, weights = _gauss_rule()
    span = t1 - t0
    min_width = span / 2.0**_MAX_DEPTH
    total = DualScalar(0.0)
    halves = []
    stack = [(t0, t1, _panel(curve, t0, t1, nodes, weights))]
    while stack:
        a, b, whole = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(curve, a, mid, nodes, weights)
        right = _panel(curve, mid, b, nodes, weights)
        refined = left + right
        share = max(_PANEL_TOL * (b - a) / span, _PANEL_FLOOR)
        if abs(refined.re - whole.re) <= share and abs(refined.du - whole.du) <= share:
            total = total + refined
            halves += [(b, right), (mid, left)]
            continue
        if (b - a) <= min_width:
            raise QuadratureFailure(
                f"arc-length quadrature stalled on [{a!r}, {b!r}]")
        stack.append((a, mid, left))
        stack.append((mid, b, right))
    return total, halves


def arc_length(curve: DualCurve, t0: float, t1: float) -> DualScalar:
    """Dual arc length of the curve over [t0, t1].

    Adaptive 16-point Gauss-Legendre quadrature of the dual speed: a panel is
    accepted when bisecting it changes the real part and the dual part each
    by at most the panel's share of 1e-10 (never below 1e-16).  Raises
    QuadratureFailure past 40 levels of subdivision and IrregularCurve if
    the speed's real part vanishes at a quadrature node.
    """
    t0, t1 = float(t0), float(t1)
    if t0 > t1:
        raise OutOfDomain(f"arc_length needs t0 <= t1, got ({t0!r}, {t1!r})")
    curve._check_domain(t0)
    curve._check_domain(t1)
    if t0 == t1:
        return DualScalar(0.0)
    return _quadrature(curve, t0, t1)[0]


class ArcLengthTable:
    """Cumulative dual arc length sampled at uniform knots.

    Between knots the table keeps the half-panels its adaptive quadrature
    accepted: `edges` are their end points in increasing order and
    `edge_lengths` the cumulative dual length at each.  The cumulative
    length at any parameter is the value at the nearest edge plus one
    16-point Gauss-Legendre rule over the remainder; the real part is
    inverted by a seed interpolated between edges, refined with Newton
    iteration.  The panels are arc_length's, accepted at 1e-10.
    """

    order = _GAUSS_ORDER

    def __init__(self, curve: DualCurve, samples: int = 64):
        if samples < 2:
            raise ValueError("need at least two knots")
        a, b = curve.domain
        self.curve = curve
        self.knots = [a + (b - a) * i / (samples - 1) for i in range(samples)]
        for knot in self.knots:
            curve.velocity_norm(knot)
        cumulative = [DualScalar(0.0)]
        edges, edge_lengths = [self.knots[0]], [cumulative[0]]
        for lo, hi in zip(self.knots, self.knots[1:]):
            total, halves = _quadrature(curve, lo, hi)
            s = cumulative[-1]
            for end, value in reversed(halves):
                s = s + value
                edges.append(end)
                edge_lengths.append(s)
            cumulative.append(cumulative[-1] + total)
            edge_lengths[-1] = cumulative[-1]
        self.cumulative = cumulative
        self.edges = edges
        self.edge_lengths = edge_lengths
        s_re = [c.re for c in cumulative]
        if any(y >= z for y, z in zip(s_re, s_re[1:])):
            raise IrregularCurve("cumulative arc length is not strictly increasing")
        self._seed_s = np.array([c.re for c in edge_lengths])

    @property
    def length(self) -> DualScalar:
        return self.cumulative[-1]

    def s_at(self, t: float) -> DualScalar:
        """Cumulative dual arc length from the domain start to t."""
        self.curve._check_domain(t)
        edges = self.edges
        i = bisect.bisect_left(edges, t)
        if i == len(edges) or (i > 0 and t - edges[i - 1] <= edges[i] - t):
            i -= 1
        if t == edges[i]:
            return self.edge_lengths[i]
        nodes, weights = _gauss_rule()
        return self.edge_lengths[i] + _panel(self.curve, edges[i], t, nodes, weights)

    def invert_real(self, s: float) -> float:
        """Parameter t with real arc length s, by interpolated seed + Newton:
        to 1e-12 of max(1, length) in at most 50 steps."""
        return self._invert(s)[0]

    def _invert(self, s: float) -> tuple[float, DualScalar]:
        """invert_real's t, with s_at(t) from its last residual check."""
        a, b = self.curve.domain
        total = self.cumulative[-1].re
        slack = 1e-9 * total + 1e-12
        if not (-slack <= s <= total + slack):
            raise OutOfDomain(f"arc length {s!r} outside [0, {total!r}]")
        s = min(max(s, 0.0), total)
        t = float(np.interp(s, self._seed_s, self.edges))
        t = min(max(t, a), b)
        goal = _INVERT_TOL * max(1.0, total)
        for _ in range(_INVERT_STEPS):
            s_hat = self.s_at(t)
            r = s_hat.re - s
            if abs(r) <= goal:
                return t, s_hat
            t = t - r / self.curve.velocity_norm(t).re
            t = min(max(t, a), b)
        raise QuadratureFailure(f"arc-length inversion did not converge at s = {s!r}")


class ReparamCurve(DualCurve):
    """A curve re-read in its own dual arc length.

    The parameter map sends s to a dual base point t + eps*t_du chosen so
    the composed curve has dual speed exactly 1 + eps*0: the real part
    inverts the real arc length (ArcLengthTable.invert_real, to 1e-12), and
    the dual correction cancels the dual part of the cumulative length.
    The table has 64 knots.
    """

    def __init__(self, base: DualCurve):
        self.base = base
        self.table = ArcLengthTable(base)
        super().__init__((0.0, self.table.length.re))

    def coord_jets(self, t0, order: int):
        u0 = as_dual(t0)
        self._check_domain(u0.re)
        extra = 1 if u0.du != 0.0 else 0
        n = order + extra

        t_re, s_hat = self.table._invert(u0.re)
        speed_re = self.base.velocity_norm(t_re).re
        that0 = DualScalar(t_re, -s_hat.du / speed_re)

        if n == 0:
            return self.base.coord_jets(that0, 0)

        A = self.base.coord_jets(that0, n)
        inv_speed = Jet.constant(1.0, n - 1) / jnorm(jderiv(A))
        coeffs = [that0, inv_speed.coeffs[0]]
        for k in range(2, n + 1):
            partial = Jet(tuple(coeffs[:k]))
            rate = compose(inv_speed.truncated(k - 1), partial)
            coeffs.append(rate.coeffs[k - 1])
        tjet = Jet(tuple(coeffs))

        out = tuple(compose(c, tjet) for c in A)
        if extra:
            out = shift_dual(out, u0.du)
        return out


def reparam_by_arclength(curve: DualCurve) -> ReparamCurve:
    """Reparametrize so the dual speed is identically 1 + eps*0 (arc_length's
    rule, on a 64-knot table)."""
    return ReparamCurve(curve)
