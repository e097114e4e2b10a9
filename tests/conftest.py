"""Shared curve sources and compiled fixtures."""

import math

import pytest

from dualcurves import compile_curve

TWO_PI = 2.0 * math.pi

UNIT_CIRCLE = "[cos(t), sin(t), 0]"
CIRCLE_R2 = "[2*cos(t), 2*sin(t), 0]"
DUAL_CIRCLE = "[(1 + eps)*cos(t), (1 + eps)*sin(t), 0]"
UNIT_HELIX = "[cos(t), sin(t), t]"
DUAL_HELIX = "[(1 + eps)*cos(t), (1 + eps)*sin(t), t]"
HELIX_R2 = "[2*cos(t), 2*sin(t), t]"
TWISTED_CUBIC = "[t, t^2, t^3]"
LINE_X = "[t, 0, 0]"

# Constant curvature 1, torsion tan(3*t/5), speed (4/5)*cos(3*t/5).
# Closed form checked in test_frenet; regular for t in (-5*pi/6, 5*pi/6).
CONST_CURVATURE = ("[2/5*(-cos(t) + 4*cos(t/5) - 1/11*cos(11*t/5)), "
                   "2/5*(-sin(t) - 4*sin(t/5) - 1/11*sin(11*t/5)), "
                   "-4/15*cos(6*t/5)]")

# The same curve scaled by 1+eps: curvature 1-eps, torsion (1-eps)*tan(3*t/5).
CONST_CURVATURE_DUAL = ("[2/5*(-cos(t) + 4*cos(t/5) - 1/11*cos(11*t/5))*(1 + eps), "
                        "2/5*(-sin(t) - 4*sin(t/5) - 1/11*sin(11*t/5))*(1 + eps), "
                        "-4/15*cos(6*t/5)*(1 + eps)]")

CONST_CURVATURE_DOMAIN = (0.15, 1.2)

# A dual cycloid whose involutes for c = 5.9105 and 6.4205+eps*0.1534 on
# (0.5, 5.5) have tangents parallel to round-off at every sample: an angle
# read from acos alone there hangs on one rounding of the dot product.
CYCLOID = ("[(1 + eps*0.4997)*0.699*(t - sin(t)), "
           "(1 + eps*0.4997)*0.699*(1 - cos(t)), 0]")


@pytest.fixture(scope="session")
def unit_circle():
    return compile_curve(UNIT_CIRCLE, (0.0, TWO_PI))


@pytest.fixture(scope="session")
def dual_circle():
    return compile_curve(DUAL_CIRCLE, (0.0, TWO_PI))


@pytest.fixture(scope="session")
def unit_helix():
    return compile_curve(UNIT_HELIX, (0.0, TWO_PI))


@pytest.fixture(scope="session")
def dual_helix():
    return compile_curve(DUAL_HELIX, (0.0, TWO_PI))


@pytest.fixture(scope="session")
def helix_r2():
    return compile_curve(HELIX_R2, (0.0, 2.0 * TWO_PI))


@pytest.fixture(scope="session")
def twisted_cubic():
    return compile_curve(TWISTED_CUBIC, (-1.0, 1.0))


@pytest.fixture(scope="session")
def const_curvature():
    return compile_curve(CONST_CURVATURE, CONST_CURVATURE_DOMAIN)


@pytest.fixture(scope="session")
def const_curvature_dual():
    return compile_curve(CONST_CURVATURE_DUAL, CONST_CURVATURE_DOMAIN)
