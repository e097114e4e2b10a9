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
import operator
from array import array
from functools import cache
from typing import NamedTuple

from .dual import DualScalar, as_dual
from .errors import IrregularCurve, OutOfDomain, PureDualVector, QuadratureFailure
from .jets import Jet, compose, jderiv, jnorm, shift_dual
from .linalg import DualVec3, norm


# The one arc-length rule; arc_length and invert_real state it.
_CHEB_POINTS, _MAX_DEPTH = (16, 48, 144), 40
_TAIL, _TAIL_REL, _TAIL_ABS = 4, 1e-14, 1e-16
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


@cache  # rows for 144 points are built only if some piece needs them
def _dct_rows(n):
    """cos(pi*k*(2j+1)/(2n)) as row k, column j; row 1 holds the n
    first-kind Chebyshev points, from near +1 down to near -1."""
    cos = [math.cos(math.pi * m / (2 * n)) for m in range(4 * n)]
    return tuple(array("d", [cos[k * (2 * j + 1) % (4 * n)] for j in range(n)])
                 for k in range(n))


def _clenshaw(coeffs, x: float) -> float:
    """sum_k coeffs[k] * T_k(x)."""
    x2, b1, b2 = 2.0 * x, 0.0, 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = x2 * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _chebint(c, half: float) -> array:
    """half times the antiderivative of c[0]/2 + sum_k c[k] T_k that
    vanishes at -1: a piece's arc length from its left end."""
    c = list(c) + [0.0, 0.0]
    b = [0.0] + [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(1, len(c) - 1)]
    b[0] = sum(b[1::2]) - sum(b[2::2])
    return array("d", b)


class _Piece(NamedTuple):
    """[lo, hi] with Chebyshev series in x = (2t - lo - hi) / (hi - lo)."""

    lo: float
    hi: float
    speed: array  # real speed
    re: array  # real arc length from lo
    du: array  # dual arc length from lo
    length: DualScalar


def _fit(curve, a: float, b: float) -> list[_Piece]:
    """The dual speed on [a, b] as Chebyshev pieces, left to right (see arc_length)."""
    pieces = []
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = []
        for n in _CHEB_POINTS:
            rows = _dct_rows(n)
            # point i of the n/3 grid is point 3i + 1 of this one
            values = [values[j // 3] if j % 3 == 1 and values else
                      curve.velocity_norm(mid + half * rows[1][j]) for j in range(n)]
            parts = ([v.re for v in values], [v.du for v in values])
            c_re, c_du = ([2.0 / n * sum(map(operator.mul, row, part)) for row in rows]
                          for part in parts)
            scale = max(max(abs(x) for x in part) for part in parts)
            tail = max(abs(x) for x in c_re[-_TAIL:] + c_du[-_TAIL:])
            if tail <= max(_TAIL_REL * scale, _TAIL_ABS / half):
                re, du = _chebint(c_re, half), _chebint(c_du, half)
                c_re[0] *= 0.5
                pieces.append(_Piece(lo, hi, array("d", c_re), re, du,
                                     DualScalar(sum(re), sum(du))))
                break
        else:
            if depth == _MAX_DEPTH:
                raise QuadratureFailure(
                    f"arc-length quadrature stalled on [{lo!r}, {hi!r}]")
            stack += [(mid, hi, depth + 1), (lo, mid, depth + 1)]
    return pieces


def arc_length(curve: DualCurve, t0: float, t1: float) -> DualScalar:
    """Dual arc length of the curve over [t0, t1].

    The dual speed is sampled at 16 first-kind Chebyshev points (never the
    ends), then 48 and 144 (tripling reuses every value), and read as a
    Chebyshev series.  A piece is accepted when the last 4 coefficients of
    the real and the dual part are at most 1e-14 times the largest sample
    of either part, or at most 1e-16 once multiplied by the half-width;
    otherwise it is bisected.  The length is the sum of the pieces'
    integrated series.  Raises QuadratureFailure past 40 levels of
    bisection and IrregularCurve if the speed's real part vanishes at a
    sample point.
    """
    t0, t1 = float(t0), float(t1)
    if t0 > t1:
        raise OutOfDomain(f"arc_length needs t0 <= t1, got ({t0!r}, {t1!r})")
    curve._check_domain(t0)
    curve._check_domain(t1)
    if t0 == t1:
        return DualScalar(0.0)
    return sum((piece.length for piece in _fit(curve, t0, t1)), DualScalar(0.0))


class ArcLengthTable:
    """Cumulative dual arc length sampled at uniform knots.

    Each knot interval is fitted by arc_length's rule, so `cumulative` is
    the running sum of arc_length over the knot intervals.  The table keeps
    the pieces: `edges` are their ends in increasing order (the knots among
    them) and `edge_lengths` the cumulative dual length at each.  s_at(t)
    is the length at the edge before t plus one evaluation of that piece's
    integrated series; invert_real seeds linearly between edges and takes
    Newton steps with the real speed series as derivative.  Neither
    evaluates the curve.
    """

    def __init__(self, curve: DualCurve, samples: int = 64):
        if samples < 2:
            raise ValueError("need at least two knots")
        a, b = curve.domain
        self.curve = curve
        self.knots = [a + (b - a) * i / (samples - 1) for i in range(samples)]
        for knot in self.knots:
            curve.velocity_norm(knot)
        cumulative = [DualScalar(0.0)]
        pieces, edge_lengths = [], [cumulative[0]]
        for lo, hi in zip(self.knots, self.knots[1:]):
            fit = _fit(curve, lo, hi)
            s = cumulative[-1]
            for piece in fit[:-1]:
                s = s + piece.length
                edge_lengths.append(s)
            total = sum((piece.length for piece in fit), DualScalar(0.0))
            cumulative.append(cumulative[-1] + total)
            edge_lengths.append(cumulative[-1])
            pieces += fit
        self.cumulative = cumulative
        self.edges = [self.knots[0]] + [piece.hi for piece in pieces]
        self.edge_lengths = edge_lengths
        s_re = [c.re for c in cumulative]
        if any(y >= z for y, z in zip(s_re, s_re[1:])):
            raise IrregularCurve("cumulative arc length is not strictly increasing")
        self._pieces = pieces
        self._edge_s = array("d", [c.re for c in edge_lengths])

    @property
    def length(self) -> DualScalar:
        return self.cumulative[-1]

    def _locate(self, t: float) -> tuple[int, float]:
        """Index of the piece holding t, and t in that piece's variable."""
        i = min(max(bisect.bisect_right(self.edges, t) - 1, 0), len(self._pieces) - 1)
        piece = self._pieces[i]
        return i, (2.0 * t - piece.lo - piece.hi) / (piece.hi - piece.lo)

    def s_at(self, t: float) -> DualScalar:
        """Cumulative dual arc length from the domain start to t."""
        self.curve._check_domain(t)
        i, x = self._locate(t)
        if t == self.edges[i]:
            return self.edge_lengths[i]
        if t == self.edges[i + 1]:
            return self.edge_lengths[i + 1]
        piece = self._pieces[i]
        return self.edge_lengths[i] + DualScalar(_clenshaw(piece.re, x),
                                                 _clenshaw(piece.du, x))

    def invert_real(self, s: float) -> float:
        """Parameter t with real arc length s, by a seed linear between
        edges + Newton: to 1e-12 of max(1, length) in at most 50 steps."""
        return self._invert(s)[0]

    def _invert(self, s: float) -> tuple[float, DualScalar]:
        """invert_real's t, with s_at(t) from its last residual check."""
        a, b = self.curve.domain
        total = self.cumulative[-1].re
        slack = 1e-9 * total + 1e-12
        if not (-slack <= s <= total + slack):
            raise OutOfDomain(f"arc length {s!r} outside [0, {total!r}]")
        s = min(max(s, 0.0), total)
        edges, edge_s = self.edges, self._edge_s
        i = min(bisect.bisect_right(edge_s, s), len(edges) - 1)
        lo, hi, s_lo, s_hi = edges[i - 1], edges[i], edge_s[i - 1], edge_s[i]
        t = lo + (hi - lo) * (s - s_lo) / (s_hi - s_lo) if s_hi > s_lo else lo
        t = min(max(t, a), b)
        goal = _INVERT_TOL * max(1.0, total)
        for _ in range(_INVERT_STEPS):
            s_hat = self.s_at(t)
            r = s_hat.re - s
            if abs(r) <= goal:
                return t, s_hat
            i, x = self._locate(t)
            t = t - r / _clenshaw(self._pieces[i].speed, x)
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
    Chebyshev rule on each interval of a 64-knot table, whose kept series
    answer every lookup and inversion)."""
    return ReparamCurve(curve)
