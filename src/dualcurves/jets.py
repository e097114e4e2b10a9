"""Truncated Taylor jets over dual-number coefficients.

A Jet stores the value and the first n derivatives of a dual-valued
function of one real parameter.  Arithmetic propagates derivatives
exactly (Leibniz rule, quotient recurrence, composition by Taylor
expansion), so curve derivatives come out of expression evaluation with
no finite differencing and no symbolic algebra.
"""

from __future__ import annotations

import math

from .dual import DualScalar, as_dual, derivative_table, div
from .errors import PureDualVector
from .linalg import DualVec3, dot, is_pure_dual_vec

_ZERO = DualScalar(0.0)
_ONE = DualScalar(1.0)


class Jet:
    """Value plus derivatives d0..dn of a dual-valued function at a point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(as_dual(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least a value")

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls((as_dual(value),) + (_ZERO,) * order)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        if order == 0:
            return cls((as_dual(value),))
        return cls((as_dual(value), _ONE) + (_ZERO,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def d0(self) -> DualScalar:
        return self.coeffs[0]

    @property
    def d1(self) -> DualScalar:
        return self.coeffs[1]

    @property
    def d2(self) -> DualScalar:
        return self.coeffs[2]

    @property
    def d3(self) -> DualScalar:
        return self.coeffs[3]

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.coeffs[: order + 1])

    def derivative(self) -> "Jet":
        """The jet of the derivative; drops one order."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.coeffs[1:])

    def _align(self, other):
        other = _as_jet(other, self.order)
        n = min(self.order, other.order)
        return self.truncated(n), other.truncated(n)

    def __add__(self, other):
        a, b = self._align(other)
        return Jet(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        return Jet(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        a, b = self._align(other)
        return Jet(tuple(y - x for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self._align(other)
        n = a.order
        out = []
        for k in range(n + 1):
            acc = _ZERO
            for j in range(k + 1):
                acc = acc + math.comb(k, j) * (a.coeffs[j] * b.coeffs[k - j])
            out.append(acc)
        return Jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._align(other)
        n = a.order
        out = [div(a.coeffs[0], b.coeffs[0])]
        for k in range(1, n + 1):
            acc = a.coeffs[k]
            for j in range(k):
                acc = acc - math.comb(k, j) * (out[j] * b.coeffs[k - j])
            out.append(div(acc, b.coeffs[0]))
        return Jet(tuple(out))

    def __rtruediv__(self, other):
        return _as_jet(other, self.order) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Jet.constant(1.0, self.order)
        if n < 0:
            return Jet.constant(1.0, self.order) / self ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def apply(self, name: str) -> "Jet":
        """Compose with a named analytic function: jet of f(g(t))."""
        n = self.order
        g0 = self.coeffs[0]
        table = derivative_table(name, g0.re, n + 1)
        derivs = [DualScalar(table[m], g0.du * table[m + 1]) for m in range(n + 1)]
        return _taylor_compose(derivs, self)

    def __repr__(self):
        return "Jet(" + ", ".join(str(c) for c in self.coeffs) + ")"


def _as_jet(value, order: int) -> Jet:
    if isinstance(value, Jet):
        return value
    return Jet.constant(as_dual(value), order)


def _taylor_compose(derivs, g: Jet) -> Jet:
    """Sum derivs[m]/m! * (g - g0)^m by Horner; exact for truncated jets."""
    n = g.order
    delta = Jet((_ZERO,) + g.coeffs[1:])
    out = Jet.constant(derivs[n] * (1.0 / math.factorial(n)), n)
    for m in range(n - 1, -1, -1):
        out = out * delta + Jet.constant(derivs[m] * (1.0 / math.factorial(m)), n)
    return out


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(g(u)) from the jet of f in its own variable at g(u0).

    ``outer`` holds derivatives of f with respect to f's variable at the
    point inner.d0; ``inner`` holds the jet of g with respect to u.
    """
    derivs = outer.truncated(inner.order).coeffs
    return _taylor_compose(list(derivs), inner)


def shift_dual(jets, amount: float):
    """Evaluate jets at (base point + eps*amount); drops one order.

    Re-centers each coefficient: d_k picks up eps * amount * re(d_{k+1}).
    """
    out = []
    for j in jets:
        coeffs = [
            DualScalar(c.re, c.du + amount * j.coeffs[k + 1].re)
            for k, c in enumerate(j.coeffs[:-1])
        ]
        out.append(Jet(tuple(coeffs)))
    return tuple(out)


# --- jets of dual 3-vectors ------------------------------------------------
#
# A vector of jets is a DualVec3 with Jet components, so +, -, scaling,
# dot, cross and is_pure_dual_vec (on the values d0) are linalg's.  jnorm
# and jnormalize stay separate from norm and normalize: they take a jet's
# square root and divide by the norm jet, where normalize multiplies by a
# reciprocal, so sharing one function would change results in the last bit.


def jderiv(u) -> DualVec3:
    return DualVec3(*(a.derivative() for a in u))


def jtruncate(u, order: int) -> DualVec3:
    return DualVec3(*(a.truncated(order) for a in u))


def jnorm(u) -> Jet:
    if is_pure_dual_vec(c.d0 for c in u):
        raise PureDualVector("norm of a jet vector with zero real part")
    return dot(u, u).apply("sqrt")


def jnormalize(u) -> DualVec3:
    n = jnorm(u)
    return DualVec3(*(c / n for c in u))
