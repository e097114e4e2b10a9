"""Dual numbers a + eps*b with eps**2 = 0."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonFiniteError, PureDualDivisor

#: Real parts with magnitude at or below this count as zero for division
#: and degeneracy checks.
PURE_DUAL_TOL = 1e-9

#: Function names accepted by apply_analytic and the curve expression language.
ANALYTIC_FUNCTIONS = ("sin", "cos", "tan", "sqrt", "exp", "log", "atan")


@dataclass(frozen=True)
class DualScalar:
    """A dual number re + eps*du.

    The nilpotent unit eps satisfies eps**2 = 0, so the dual part carries a
    first derivative through every operation:

        (a + eps a') + (b + eps b') = (a + b) + eps (a' + b')
        (a + eps a') * (b + eps b') = a b + eps (a b' + a' b)
        (a + eps a') / (b + eps b') = a/b + eps (a' b - a b') / b**2
        f(a + eps a')               = f(a) + eps a' f'(a)

    Both parts must be finite floats; any NaN or infinity raises
    NonFiniteError at construction, so no non-finite value escapes an
    operation silently.
    """

    re: float
    du: float = 0.0

    def __post_init__(self):
        re, du = float(self.re), float(self.du)
        if not (math.isfinite(re) and math.isfinite(du)):
            raise NonFiniteError(f"non-finite dual number ({self.re!r}, {self.du!r})")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(self.re - other.re, self.du - other.du)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(other.re - self.re, other.du - self.du)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualScalar(self.re * other.re, self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return div(other, self)

    def __neg__(self):
        return DualScalar(-self.re, -self.du)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return DualScalar(1.0)
        if n < 0:
            return div(DualScalar(1.0), self ** (-n))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def to_dict(self):
        return {"re": self.re, "du": self.du}

    def __str__(self):
        re, du = self.re + 0.0, self.du + 0.0
        if du < 0:
            return f"{re:g}-eps*{-du:g}"
        return f"{re:g}+eps*{du:g}"


def _coerce(value):
    if isinstance(value, DualScalar):
        return value
    if isinstance(value, (int, float)):
        return DualScalar(float(value))
    return None


def as_dual(value) -> DualScalar:
    """Coerce a number or DualScalar to DualScalar."""
    out = _coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a dual number")
    return out


def div(x: DualScalar, y: DualScalar) -> DualScalar:
    """Dual division x / y; y must not be pure dual (|y.re| > 1e-9)."""
    if is_pure_dual(y):
        raise PureDualDivisor(f"divisor {y} has (numerically) zero real part")
    re = x.re / y.re
    num = x.du * y.re - x.re * y.du
    yy = y.re * y.re
    # The quotient rule's numerator or b**2 overflows (|y.re| > 1.3e154 for
    # b**2): divide by b once instead.
    if yy == math.inf or not math.isfinite(num):
        return DualScalar(re, (x.du - re * y.du) / y.re)
    return DualScalar(re, num / yy)


def is_pure_dual(x: DualScalar) -> bool:
    """True when the real part is zero up to PURE_DUAL_TOL (1e-9)."""
    return abs(x.re) <= PURE_DUAL_TOL


def dual_abs(x: DualScalar) -> DualScalar:
    """|a + eps b| = |a| + eps sign(a) b; undefined for pure-dual input
    (|a| <= 1e-9)."""
    if is_pure_dual(x):
        raise DomainError(f"absolute value of pure-dual {x} is undefined")
    return x if x.re > 0 else -x


def apply_analytic(name: str, x: DualScalar) -> DualScalar:
    """Lift the named real-analytic function: f(a + eps b) = f(a) + eps b f'(a)."""
    d = derivative_table(name, x.re, 1)
    return DualScalar(d[0], x.du * d[1])


def sin(x):
    return apply_analytic("sin", as_dual(x))


def cos(x):
    return apply_analytic("cos", as_dual(x))


def tan(x):
    return apply_analytic("tan", as_dual(x))


def sqrt(x):
    return apply_analytic("sqrt", as_dual(x))


def exp(x):
    return apply_analytic("exp", as_dual(x))


def log(x):
    return apply_analytic("log", as_dual(x))


def atan(x):
    return apply_analytic("atan", as_dual(x))


# --- real derivative tables ---------------------------------------------
#
# derivative_table(name, a, n) returns [f(a), f'(a), ..., f^(n)(a)] for the
# supported analytic functions.  Jet arithmetic consumes these at arbitrary
# order, so each table is generated by a closed form or a small recurrence
# rather than a fixed list.


def _polyval(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _polymul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _polyderiv(p):
    return [i * p[i] for i in range(1, len(p))]


def _tan_derivs(a, n):
    c = math.cos(a)
    if abs(c) <= 1e-12:
        raise DomainError(f"tan undefined near a = {a!r} (cos a ~ 0)")
    t = math.tan(a)
    out = [t]
    # k-th derivative of tan is a polynomial in tan(a); each step applies
    # d/da = (1 + tan(a)**2) d/dtan.
    poly = [0.0, 1.0]
    for _ in range(n):
        poly = _polymul(_polyderiv(poly), [1.0, 0.0, 1.0])
        out.append(_polyval(poly, t))
    return out


def _atan_derivs(a, n):
    out = [math.atan(a)]
    # f^(k)(a) = Q_k(a) / (1 + a^2)^k with Q_1 = 1 and
    # Q_{k+1} = Q_k' (1 + a^2) - 2 k a Q_k.
    q = [1.0]
    denom = 1.0 + a * a
    for k in range(1, n + 1):
        out.append(_polyval(q, a) / denom**k)
        q = [x + y for x, y in _zip_pad(_polymul(_polyderiv(q) or [0.0], [1.0, 0.0, 1.0]),
                                        _polymul(q, [0.0, -2.0 * k]))]
    return out


def _zip_pad(p, q):
    width = max(len(p), len(q))
    p = p + [0.0] * (width - len(p))
    q = q + [0.0] * (width - len(q))
    return zip(p, q)


def derivative_table(name: str, a: float, n: int) -> list[float]:
    """Values of f and its first n derivatives at the real point a; raises
    NonFiniteError where the arithmetic overflows or divides by zero."""
    try:
        if name == "sin":
            cycle = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))
            return [cycle[k % 4] for k in range(n + 1)]
        if name == "cos":
            cycle = (math.cos(a), -math.sin(a), -math.cos(a), math.sin(a))
            return [cycle[k % 4] for k in range(n + 1)]
        if name == "exp":
            e = math.exp(a)
            return [e] * (n + 1)
        if name == "sqrt":
            if a <= 0.0:
                raise DomainError(f"sqrt requires a positive real part, got {a!r}")
            out = [math.sqrt(a)]
            for k in range(n):
                out.append(out[-1] * (0.5 - k) / a)
            return out
        if name == "log":
            if a <= 0.0:
                raise DomainError(f"log requires a positive real part, got {a!r}")
            out = [math.log(a)]
            for k in range(1, n + 1):
                out.append((-1.0) ** (k - 1) * math.factorial(k - 1) / a**k)
            return out
        if name == "tan":
            return _tan_derivs(a, n)
        if name == "atan":
            return _atan_derivs(a, n)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteError(
            f"{name} derivatives are not finite at a = {a!r}: {exc}") from exc
    raise DomainError(f"unknown analytic function {name!r}")
