"""The seeded workloads.

A workload turns a seed into an endless sequence of rounds; a round is a
fixed mix of operations, so every run covers the same mix whatever the
seed.  The seed only draws constants (radii, pitches, dual scale
factors, offsets, string constants, sample points); the package sees
only the generated curve sources and constants.

Each operation carries its own oracle.  ``run`` is the timed call into
the public API; ``check`` validates its output against a closed form or
an independent route and returns an error message or None; ``verdict``
reduces the output to a value that must be identical between a traced
and an untraced run.

Every call goes through a module attribute looked up at call time
(``dc.check_bertrand_pair``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import dualcurves as dc
import dualcurves.cli as dc_cli

import families as fam
from families import draw, dual_text


@dataclass
class Op:
    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    verdict: Callable[[object], object]
    sources: list  # (curve source, domain) pairs the op compiles


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and
    bench/BASELINE.md."""

    name: str
    unit: str
    rounds: Callable[[int], object]
    trace_rounds: int


# -- frenet_sweep --------------------------------------------------------------

FRENET_N = 16


def _torus_knot(rng):
    big = (draw(rng, 1.8, 2.4), draw(rng, 0.1, 0.4))
    small = (draw(rng, 0.4, 0.6), draw(rng, 0.05, 0.2))
    ring = f"({dual_text(*big)} + {dual_text(*small)}*cos(3*t))"
    return (f"[{ring}*cos(2*t), {ring}*sin(2*t), {dual_text(*small)}*sin(3*t)]",
            (0.0, fam.TWO_PI))


def _dual_helix(rng):
    radius = (draw(rng, 0.8, 1.6), draw(rng, 0.05, 0.4))
    pitch = (draw(rng, 0.3, 0.9), draw(rng, 0.05, 0.3))
    src = (f"[{dual_text(*radius)}*cos(t), {dual_text(*radius)}*sin(t), "
           f"{dual_text(*pitch)}*t]")
    return src, (0.0, fam.TWO_PI), radius, pitch


def _frenet_round(rng):
    """Two dual helices (closed-form oracle), the twisted cubic, the
    constant-curvature curve and a torus knot: four expression sizes.
    The median lands inside the helix pair whatever the cost order."""
    curves = []
    for _ in range(2):
        src, dom, radius, pitch = _dual_helix(rng)
        curves.append(("helix", src, dom, (radius, pitch)))
    curves.insert(1, ("cubic", fam.TWISTED_CUBIC, fam.TWISTED_CUBIC_DOMAIN, None))
    curves.append(("const_curvature", fam.CONST_CURVATURE, fam.CONST_CURVATURE_DOMAIN, None))
    src, dom = _torus_knot(rng)
    curves.append(("torus_knot", src, dom, None))
    return curves


def _frenet_op(kind, src, dom, helix):
    argv = ["frenet", "--curve", src, "--from", repr(dom[0]), "--to", repr(dom[1]),
            "--n", str(FRENET_N)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dc_cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"dualcurve frenet exited {code}"
        records = json.loads(text)
        if len(records) != FRENET_N:
            return f"{len(records)} records, wanted {FRENET_N}"
        for record in records:
            err = (fam.check_helix_record(record, *helix) if helix
                   else fam.check_frame(record))
            if err:
                return err
        return None

    return Op(kind, FRENET_N, run, check, lambda result: result, [(src, dom)])


def frenet_rounds(seed):
    rng = random.Random(seed)
    while True:
        yield [_frenet_op(*curve) for curve in _frenet_round(rng)]


# -- bertrand_check ------------------------------------------------------------

BERTRAND_N = 8
BERTRAND_HELIX_DOMAIN = (0.0, 2.0 * fam.TWO_PI)


def _report_verdict(report):
    return (report.passed,
            tuple((c.name, c.passed, c.max_deviation) for c in report.criteria.values()))


def _mean_distance(report):
    samples = report.distance_samples
    return (sum(d.re for d in samples) / len(samples),
            sum(d.du for d in samples) / len(samples))


def _bertrand_op(kind, alpha_src, beta, domain, expected, distance):
    """beta is a source text or a dual offset (re, du); distance is the
    expected mean dual distance, or None for a non-mate."""
    alpha = dc.compile_curve(alpha_src, domain)
    if isinstance(beta, str):
        mate = dc.compile_curve(beta, domain)
    else:
        mate = dc.offset_curve(alpha, dc.DualScalar(*beta))

    def run():
        return dc.check_bertrand_pair(alpha, mate, n=BERTRAND_N)

    def check(report):
        if report.passed != expected:
            return f"{kind}: verdict {report.passed}, wanted {expected}"
        if distance is not None:
            err = fam.dev(_mean_distance(report), distance)
            if err > 1e-8:
                return f"{kind}: mean distance off by {err:.3g}"
        return None

    sources = [(alpha_src, domain)] + ([(beta, domain)] if isinstance(beta, str) else [])
    return Op(kind, BERTRAND_N, run, check, _report_verdict, sources)


def _bertrand_round(rng):
    """Three helix offsets, one constant-curvature offset, one coaxial mate
    and one non-mate: the median falls in the middle of the helix offsets."""
    specs = []
    for _ in range(3):
        r, h = draw(rng, 1.5, 2.5), draw(rng, 0.8, 1.2)
        lam = (draw(rng, 0.3, 0.8), draw(rng, 0.5, 2.0))
        specs.append(("offset_helix", f"[{r!r}*cos(t), {r!r}*sin(t), {h!r}*t]", lam,
                      BERTRAND_HELIX_DOMAIN, True, lam))
    k = draw(rng, 0.2, 1.0)
    lam = (1.0, k)
    specs.append(("offset_const_curvature", fam.const_curvature_scaled(k), lam,
                  fam.CONST_CURVATURE_DOMAIN, True, lam))
    # Coaxial dual helices with one pitch are mates at distance R - R'.
    outer = (draw(rng, 1.8, 2.5), draw(rng, 0.1, 0.5))
    inner = (draw(rng, 0.8, 1.4), draw(rng, 0.1, 0.5))
    h = draw(rng, 0.8, 1.2)
    coax = [f"[{dual_text(*R)}*cos(t), {dual_text(*R)}*sin(t), {h!r}*t]"
            for R in (outer, inner)]
    specs.append(("coaxial_mate", coax[0], coax[1], BERTRAND_HELIX_DOMAIN, True,
                  (outer[0] - inner[0], outer[1] - inner[1])))
    # A coaxial helix with another pitch is not a mate.
    r, h = draw(rng, 1.5, 2.5), draw(rng, 0.8, 1.2)
    r2, h2 = draw(rng, 0.8, 1.4), round(h * draw(rng, 1.3, 1.6), 4)
    specs.append(("non_mate", f"[{r!r}*cos(t), {r!r}*sin(t), {h!r}*t]",
                  f"[{r2!r}*cos(t), {r2!r}*sin(t), {h2!r}*t]",
                  BERTRAND_HELIX_DOMAIN, False, None))
    return specs


def bertrand_rounds(seed):
    rng = random.Random(seed)
    while True:
        yield [_bertrand_op(*spec) for spec in _bertrand_round(rng)]


# -- involute_pair -------------------------------------------------------------

INVOLUTE_N = 3
# Five torsion ops keep a round well above the run length, so a run is
# always exactly one round and the median falls among the torsion ops.
TORSION_OPS = 5


def _involute_check_op(family, c1, c2):
    base = dc.compile_curve(family.source, family.domain)

    def run():
        return dc.check_involute_pair(base, dc.DualScalar(*c1), dc.DualScalar(*c2),
                                      n=INVOLUTE_N)

    def check(report):
        if not report.passed:
            failed = [n for n, c in report.criteria.items() if not c.passed]
            return f"involute pair on {family.kind} failed: {failed}"
        for label in ("involute1", "involute2"):
            for route in ("frenet", "formula"):
                crit = report.criteria[f"{label}_torsion_{route}"]
                if crit.max_deviation > 1e-9:
                    return f"{family.kind}: plane-base torsion {crit.max_deviation:.3g} != 0"
        return None

    return Op(f"pair_{family.kind}", INVOLUTE_N, run, check, _report_verdict,
              [(family.source, family.domain)])


class _DirectTorsion:
    """The other torsion route: frenet_at on the involute of the unit-speed
    reparametrization, built once per run outside the timed calls."""

    def __init__(self):
        self.unit = None

    def __call__(self, c, s):
        if self.unit is None:
            base = dc.compile_curve(fam.CONST_CURVATURE, fam.CONST_CURVATURE_DOMAIN)
            self.unit = dc.ensure_unit_speed(base)
        tau = dc.frenet_at(dc.InvoluteCurve(self.unit, dc.DualScalar(*c)), s).tau
        return (tau.re, tau.du)


def _torsion_op(base, direct, c, s):
    def run():
        return dc.involute_torsion(base, dc.DualScalar(*c), s)

    def check(tau):
        err = fam.dev((tau.re, tau.du), direct(c, s))
        if err > 1e-6:
            return f"torsion routes disagree by {err:.3g} at s = {s!r}"
        return None

    return Op("torsion_const_curvature", 1, run, check, lambda tau: (tau.re, tau.du),
              [(fam.CONST_CURVATURE, fam.CONST_CURVATURE_DOMAIN)])


def _involute_round(rng):
    pairs = []
    for family in fam.plane_families(rng):
        c1 = family.length[0] + draw(rng, 0.5, 1.0)
        c2 = (round(c1 + draw(rng, 0.5, 1.0), 4), draw(rng, 0.1, 0.3))
        pairs.append((family, (round(c1, 4), 0.0), c2))
    torsions = [((5.0, draw(rng, 0.2, 0.8)), draw(rng, 0.15, 0.7))
                for _ in range(TORSION_OPS)]
    return pairs, torsions


def involute_rounds(seed):
    rng = random.Random(seed)
    # One raw base object for the whole run, as a caller asking for many
    # torsion values of one curve would hold it.
    base = dc.compile_curve(fam.CONST_CURVATURE, fam.CONST_CURVATURE_DOMAIN)
    direct = _DirectTorsion()
    while True:
        pairs, torsions = _involute_round(rng)
        yield ([_involute_check_op(*p) for p in pairs]
               + [_torsion_op(base, direct, c, s) for c, s in torsions])


# -- arclength_build -----------------------------------------------------------

TABLE_KNOTS = 16
INVERT_FRACTIONS = 3


def _arclength_op(family, fractions):
    def run():
        curve = dc.compile_curve(family.source, family.domain)
        table = dc.ArcLengthTable(curve, samples=TABLE_KNOTS)
        length = table.length
        targets = [f * length.re for f in fractions]
        return (length.re, length.du), [(s, table.invert_real(s)) for s in targets]

    def check(result):
        length, inverses = result
        err = fam.check_dual_length(family, length)
        for s, t in inverses:
            err = err or fam.check_inverse(family, s, t)
        return err

    return Op(f"table_{family.kind}", 1, run, check, lambda result: result,
              [(family.source, family.domain)])


def _arclength_round(rng):
    families = fam.plane_families(rng) + [fam.helix(rng)]
    return [(f, [draw(rng, 0.05, 0.95) for _ in range(INVERT_FRACTIONS)])
            for f in families]


def arclength_rounds(seed):
    rng = random.Random(seed)
    while True:
        yield [_arclength_op(*spec) for spec in _arclength_round(rng)]


WORKLOADS = {
    w.name: w for w in (
        Workload("frenet_sweep", "Frenet records", frenet_rounds, 15),
        Workload("bertrand_check", "verdict samples", bertrand_rounds, 4),
        Workload("involute_pair", "verdict samples", involute_rounds, 1),
        Workload("arclength_build", "arc-length tables", arclength_rounds, 3),
    )
}
