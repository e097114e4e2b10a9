"""Self-tests for the benchmark: generator, oracles, tracer, report.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import dualcurves as dc  # noqa: E402

import families as fam  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPECS = {
    "frenet_sweep": wl._frenet_round,
    "bertrand_check": wl._bertrand_round,
    "involute_pair": wl._involute_round,
    "arclength_build": wl._arclength_round,
}
PERTURB = 1e-6


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_is_deterministic(name):
    def specs(seed, rounds=3):
        rng = random.Random(seed)
        return [SPECS[name](rng) for _ in range(rounds)]

    assert specs(7) == specs(7)
    assert specs(7) != specs(8)


def test_every_workload_has_a_spec_and_sources():
    assert set(SPECS) == set(wl.WORKLOADS)
    for workload in wl.WORKLOADS.values():
        ops = next(workload.rounds(3))
        assert ops and all(op.sources for op in ops)


# -- oracles reject a value perturbed by 1e-6 --------------------------------------

@pytest.mark.parametrize("make", [fam.helix, fam.logspiral, fam.cycloid, fam.parabola])
def test_length_oracles(make):
    family = make(random.Random(5))
    curve = dc.compile_curve(family.source, family.domain)
    table = dc.ArcLengthTable(curve, samples=wl.TABLE_KNOTS)
    length = (table.length.re, table.length.du)
    assert fam.check_dual_length(family, length) is None
    assert fam.check_dual_length(family, (length[0] + PERTURB, length[1]))
    assert fam.check_dual_length(family, (length[0], length[1] + PERTURB))
    s = 0.4 * length[0]
    t = table.invert_real(s)
    assert fam.check_inverse(family, s, t) is None
    assert fam.check_inverse(family, s, t + PERTURB)


def _frenet_records(kind):
    curves = wl._frenet_round(random.Random(11))
    _, src, dom, helix = next(c for c in curves if c[0] == kind)
    op = wl._frenet_op(kind, src, dom, helix)
    out = op.run()
    assert op.check(out) is None
    return json.loads(out[1]), helix


def test_frame_oracle():
    records, _ = _frenet_records("torus_knot")
    bad = json.loads(json.dumps(records[3]))
    bad["N"]["du"][1] += PERTURB
    assert fam.check_frame(records[3]) is None
    assert fam.check_frame(bad)


def test_helix_oracle():
    records, helix = _frenet_records("helix")
    for part in ("re", "du"):
        bad = json.loads(json.dumps(records[5]))
        bad["tau"][part] += PERTURB
        assert fam.check_helix_record(records[5], *helix) is None
        assert fam.check_helix_record(bad, *helix)


def test_bertrand_oracle():
    spec = wl._bertrand_round(random.Random(2))[0]
    kind, alpha, beta, domain, expected, distance = spec
    report = wl._bertrand_op(*spec).run()
    assert wl._bertrand_op(*spec).check(report) is None
    for bumped in ((distance[0] + PERTURB, distance[1]), (distance[0], distance[1] + PERTURB)):
        assert wl._bertrand_op(kind, alpha, beta, domain, expected, bumped).check(report)
    assert wl._bertrand_op(kind, alpha, beta, domain, not expected, distance).check(report)


def test_involute_torsion_oracle():
    direct = wl._DirectTorsion()
    base = dc.compile_curve(fam.CONST_CURVATURE, fam.CONST_CURVATURE_DOMAIN)
    op = wl._torsion_op(base, direct, (5.0, 0.5), 0.45)
    tau = op.run()
    assert op.check(tau) is None
    want = direct((5.0, 0.5), 0.45)
    for bump in ((PERTURB, 0.0), (0.0, PERTURB)):
        # Push the value 1e-6 further from the other route than it already is.
        sign = [1.0 if got >= ref else -1.0 for got, ref in zip((tau.re, tau.du), want)]
        bad = dc.DualScalar(tau.re + sign[0] * bump[0], tau.du + sign[1] * bump[1])
        assert op.check(bad)


def test_involute_pair_oracle():
    family = fam.helix(random.Random(4), plane=True)
    c1 = (round(family.length[0] + 0.7, 4), 0.0)
    op = wl._involute_check_op(family, c1, (c1[0] + 0.8, 0.2))
    # A report whose plane-base torsion is 1e-6 instead of 0.
    crit = dc.CriterionResult("involute1_torsion_formula", True, PERTURB, 1e-8)
    criteria = {f"{label}_torsion_{route}": dc.CriterionResult(
        f"{label}_torsion_{route}", True, 0.0, 1e-8)
        for label in ("involute1", "involute2") for route in ("frenet", "formula")}
    assert op.check(dc.BertrandReport(criteria=criteria)) is None
    criteria[crit.name] = crit
    assert op.check(dc.BertrandReport(criteria=criteria))


# -- tracer ------------------------------------------------------------------------

def test_hand_counted_frenet_calls():
    """check_bertrand_pair with identity pairing evaluates frames twice per
    curve per sample: 2 curves x 2 passes x n = 4."""
    alpha = dc.compile_curve("[2*cos(t), 2*sin(t), t]", (0.0, 12.5))
    beta = dc.offset_curve(alpha, dc.DualScalar(1.0, 2.0))
    tracer = Tracer()
    with tracer:
        report = dc.check_bertrand_pair(alpha, beta, n=4, pairing=dc.identity_pairing)
    assert report.passed
    assert tracer.counts["frenet.frenet_at"] == 16
    assert tracer.counts["bertrand.pairing"] == 0


def test_tracer_restores_every_original():
    def snapshot():
        return {(mod, key): value
                for mod, module in sys.modules.items()
                if mod == "dualcurves" or mod.startswith("dualcurves.")
                for key, value in vars(module).items()} | {
            (cls.__name__, key): value
            for cls in (dc.DualScalar, dc.Jet, dc.DualCurve, dc.ExprCurve,
                        dc.ArcLengthTable, dc.ReparamCurve, dc.OffsetCurve,
                        dc.InvoluteCurve)
            for key, value in vars(cls).items()}

    before = snapshot()
    tracer = Tracer()
    with tracer:
        assert dc.frenet_at is not before[("dualcurves", "frenet_at")]
        assert dc.DualScalar.__post_init__ is not before[("DualScalar", "__post_init__")]
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.leave()
    tracer.enter("inner")
    tracer.leave()
    tracer.leave()
    start, end = tracer.span_start, tracer.span_end
    inner = (end[1] - start[1]) + (end[2] - start[2])
    assert tracer.self_s["outer"] == pytest.approx(end[0] - start[0] - inner)
    assert tracer.self_s["inner"] == pytest.approx(inner)
    assert list(tracer.span_parent) == [-1, 0, 0]


@pytest.mark.parametrize("name", ["frenet_sweep", "bertrand_check"])
def test_traced_run_matches_untraced_and_repeats(name):
    workload = dataclasses.replace(wl.WORKLOADS[name], trace_rounds=1)
    setup = {"import_s": 1.0, "compile_s": 1.0}
    first, metrics = run.per_layer(workload, 9, setup, 0.5)
    again, metrics_again = run.per_layer(workload, 9, setup, 0.5)
    assert all(first.ok) and all(again.ok)
    counts = [key for key, unit in run.PER_LAYER.items() if unit.startswith("count")]
    assert {k: metrics[k] for k in counts} == {k: metrics_again[k] for k in counts}
    assert metrics["frenet.calls_per_sample"] == (1 if name == "frenet_sweep" else 4)


# -- report ------------------------------------------------------------------------

def test_tail_has_ten_beyond():
    latencies = list(range(1, 101))
    value, pct, beyond = run.tail(latencies)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_scipy_import_time_counts_outermost_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   scipy.interpolate",
        "import time:        10 |        760 | dualcurves.curves",
    ])
    assert run.scipy_import_s(log) == pytest.approx(750e-6)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
