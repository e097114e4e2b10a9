"""dualcurves benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one client, closed loop:
each operation starts when the previous one has returned and been checked
against its oracle.

``--trace 0`` measures the end-to-end metrics with no tracing: set-up in
fresh interpreters, then whole rounds of the workload until ``--seconds``
have passed.  ``--trace 1`` runs a fixed number of rounds twice, untraced
and then under the outside-in tracer, and reports per-layer counts and
times; it fails the run if a traced verdict differs from the untraced one.
The spans go to ``.bench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it (prefixed ``#``) say which percentile the
tail is and how each operation kind fared.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import dualcurves  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Times are seconds of the traced pass.
PER_LAYER = {
    "dual.scalars": "count",
    "jets.mul": "count",
    "jets.div": "count",
    "jets.apply": "count",
    "jets.compose": "count",
    "linalg.calls": "count",
    "dsl.parse_calls": "count",
    "dsl.parse_s": "s",
    "dsl.eval_calls": "count",
    "dsl.eval_s": "s",
    "dsl.eval_order_mean": "order",
    "curves.speed_evals": "count",
    "curves.arc_length_calls": "count",
    "curves.arc_length_s": "s",
    "curves.quad_nodes_per_call": "count/call",
    "curves.table_builds": "count",
    "curves.table_build_s": "s",
    "curves.invert_calls": "count",
    "curves.newton_steps": "count",
    "curves.newton_per_invert": "count/call",
    "curves.reparam_evals": "count",
    "curves.reparam_eval_s": "s",
    "frenet.calls": "count",
    "frenet.self_s": "s",
    "frenet.calls_per_sample": "count/unit",
    "bertrand.offset_evals": "count",
    "bertrand.offset_eval_s": "s",
    "bertrand.involute_evals": "count",
    "bertrand.criteria_self_s": "s",
    "bertrand.pairing_calls": "count",
    "bertrand.pairing_iters": "count",
    "bertrand.pairing_iters_per_call": "count/call",
    "bertrand.unit_speed_builds": "count",
    "bertrand.involute_torsion_calls": "count",
    "bertrand.involute_torsion_s": "s",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "cli.stdout_bytes": "bytes",
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "setup.compile_s": "s",
    "trace.overhead_ratio": "ratio",
}


def note(text: str) -> None:
    print(f"# {text}", flush=True)


# -- set-up ----------------------------------------------------------------------

def _probe(sources, importtime: bool = False):
    """Run the set-up probe in a fresh interpreter; returns (wall seconds,
    probe report, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd.append(str(BENCH / "setup_probe.py"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(sources), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120, check=True)
    wall = time.perf_counter() - start
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules, from
    ``python -X importtime`` output.

    That output lists a module after the modules it imported, indented
    one step deeper, so read backwards each line's parent comes first.
    """
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy module)
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative, name = parts[1].strip(), parts[2]
        if not cumulative.isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip(" "))
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not inside:
            total_us += int(cumulative)
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def measure_setup(sources):
    runs = [_probe(sources) for _ in range(SETUP_RUNS)]
    return {
        "setup_s": statistics.median(wall for wall, _, _ in runs),
        "import_s": statistics.median(r["import_s"] for _, r, _ in runs),
        "compile_s": statistics.median(r["compile_s"] for _, r, _ in runs),
    }


# -- running operations ----------------------------------------------------------

class Tally:
    """Latencies, completed units and failures of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.units = 0
        self.errors: list[str] = []
        self.outputs: list = []
        self.ok: list[bool] = []

    def run(self, op, check: bool = True):
        start = time.perf_counter()
        try:
            out = op.run()
        except dualcurves.DualCurvesError as exc:
            out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        else:
            err = None
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.by_kind.setdefault(op.kind, []).append(elapsed)
        self.outputs.append(out)
        if err is None and check:
            err = op.check(out)
        self.ok.append(err is None)
        if err is None:
            self.units += op.units
        else:
            self.errors.append(err)


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND operations beyond
    it: the (TAIL_BEYOND+1)-th largest latency.  With too few operations
    it is the maximum.  Returns (value, percentile, operations beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def timed_pass(workload, seed: int, seconds: float) -> Tally:
    """Whole rounds until ``seconds`` have passed, so every run covers the
    same operation mix."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for ops in workload.rounds(seed):
        for op in ops:
            tally.run(op)
        if time.perf_counter() >= deadline:
            break
    return tally


def end_to_end(workload, seed: int, seconds: float, setup):
    tally = timed_pass(workload, seed, seconds)
    value, pct, beyond = tail(tally.latencies)
    note(f"op_tail_ms is p{pct:.2f} of {len(tally.latencies)} ops ({beyond} beyond it); "
         f"units_per_s counts {workload.unit}")
    for kind, lat in tally.by_kind.items():
        note(f"{kind}: {len(lat)} ops, median {1e3 * statistics.median(lat):.3f} ms")
    metrics = {
        "setup_s": setup["setup_s"],
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_tail_ms": 1e3 * value,
        "units_per_s": tally.units / sum(tally.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, seed: int, setup, scipy_s: float):
    ops_plain = [op for ops in itertools.islice(workload.rounds(seed), workload.trace_rounds)
                 for op in ops]
    ops_traced = [op for ops in itertools.islice(workload.rounds(seed), workload.trace_rounds)
                  for op in ops]
    plain = Tally()
    for op in ops_plain:
        plain.run(op)

    tracer = Tracer()
    traced = Tally()
    with tracer:
        for op in ops_traced:
            with tracer.op(f"op.{workload.name}"):
                traced.run(op, check=False)
    tracer.write(ROOT / ".bench_out" / f"{workload.name}-seed{seed}-spans.npz")

    for i, (op, a, b) in enumerate(zip(ops_plain, plain.outputs, traced.outputs)):
        if plain.ok[i] and (b is None or op.verdict(a) != op.verdict(b)):
            plain.ok[i] = False
            plain.errors.append(f"{op.kind}: traced verdict differs from the untraced one")
    note(f"traced {len(ops_traced)} ops in {workload.trace_rounds} rounds")

    c, self_s, outer_s = tracer.counts, tracer.self_s, tracer.outer_s
    units = sum(op.units for op in ops_plain)
    metrics = {
        "dual.scalars": c["dual.scalars"],
        "jets.mul": c["jets.mul"],
        "jets.div": c["jets.div"],
        "jets.apply": c["jets.apply"],
        "jets.compose": c["jets.compose"],
        "linalg.calls": c["linalg.calls"],
        "dsl.parse_calls": c["dsl.parse"],
        "dsl.parse_s": outer_s["dsl.parse"],
        "dsl.eval_calls": c["dsl.eval"],
        "dsl.eval_s": self_s["dsl.eval"],
        "dsl.eval_order_mean": _ratio(tracer.eval_order_sum, c["dsl.eval"]),
        "curves.speed_evals": c["curves.speed_evals"],
        "curves.arc_length_calls": c["curves.arc_length"],
        "curves.arc_length_s": outer_s["curves.arc_length"],
        "curves.quad_nodes_per_call": _ratio(c["curves.quad_nodes"], c["curves.arc_length"]),
        "curves.table_builds": c["curves.table_build"],
        "curves.table_build_s": outer_s["curves.table_build"],
        "curves.invert_calls": c["curves.invert_real"],
        "curves.newton_steps": c["curves.newton_steps"],
        "curves.newton_per_invert": _ratio(c["curves.newton_steps"], c["curves.invert_real"]),
        "curves.reparam_evals": c["curves.reparam_eval"],
        "curves.reparam_eval_s": outer_s["curves.reparam_eval"],
        "frenet.calls": c["frenet.frenet_at"],
        "frenet.self_s": self_s["frenet.frenet_at"],
        "frenet.calls_per_sample": _ratio(c["frenet.frenet_at"], units),
        "bertrand.offset_evals": c["bertrand.offset_eval"],
        "bertrand.offset_eval_s": outer_s["bertrand.offset_eval"],
        "bertrand.involute_evals": c["bertrand.involute_eval"],
        "bertrand.criteria_self_s": self_s["bertrand.criteria"],
        "bertrand.pairing_calls": c["bertrand.pairing"],
        "bertrand.pairing_iters": c["bertrand.pairing_iters"],
        "bertrand.pairing_iters_per_call": _ratio(c["bertrand.pairing_iters"],
                                                  c["bertrand.pairing"]),
        "bertrand.unit_speed_builds": c["bertrand.unit_speed_builds"],
        "bertrand.involute_torsion_calls": c["bertrand.involute_torsion"],
        "bertrand.involute_torsion_s": outer_s["bertrand.involute_torsion"],
        "cli.main_s": outer_s["cli.main"],
        "cli.emit_s": outer_s["cli.emit"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "setup.import_s": setup["import_s"],
        "setup.import_scipy_s": scipy_s,
        "setup.compile_s": setup["compile_s"],
        "trace.overhead_ratio": sum(traced.latencies) / sum(plain.latencies),
    }
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src_dir = Path(dualcurves.__file__).resolve().parent.parent
    if src_dir != SRC:
        print(f"bench: dualcurves imported from {src_dir}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    sources = [s for op in next(workload.rounds(args.seed)) for s in op.sources]
    setup = measure_setup(sources)
    if args.trace:
        _, _, log = _probe(sources, importtime=True)
        tally, metrics = per_layer(workload, args.seed, setup, scipy_import_s(log))
        units = PER_LAYER
    else:
        tally, metrics = end_to_end(workload, args.seed, args.seconds, setup)
        units = END_TO_END
    for err in tally.errors[:20]:
        note(f"FAILED {err}")
    print(json.dumps({
        "correct": all(tally.ok),
        "attempted": len(tally.ok),
        "failed": tally.ok.count(False),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
