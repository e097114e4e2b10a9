"""Command-line front end.

Subcommands: frenet, bertrand (check|offset), involute, study
(to-dual|to-line), sample.  Reports go to stdout (or --out), diagnostics
to stderr.  Exit codes: 0 success/pass, 1 usage or parse error, 2
numeric/degeneracy error, 3 a well-posed check ran and failed.

Given identical inputs and flags, output bytes are identical: every float
is printed with 17 significant digits and the round-trip RNG is seeded.
"""

from __future__ import annotations

import argparse
import json as _json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .bertrand import (DEFAULT_SAMPLES, DEFAULT_TOL, check_bertrand_pair,
                       check_involute_pair, identity_pairing, involute,
                       offset_curve)
from .curves import DualCurve
from .dsl import compile_curve, evaluate_scalar, render_caret
from .errors import DualCurvesError, NotPlanar, ParseError
from .frenet import frenet_at
from .linalg import DualVec3
from .lines import from_dual_unit, line_from_point_dir, to_dual_unit

ROUNDTRIP_TOL = 1e-12


class _Exit(Exception):
    """Internal: unwind to main() with a specific exit code."""

    def __init__(self, code: int):
        self.code = code


def _fail_usage(message: str) -> None:
    print(f"dualcurve: error: {message}", file=sys.stderr)
    raise _Exit(1)


# ---------------------------------------------------------------------------
# deterministic output


def format_float(x) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(obj)
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(isinstance(v, (int, float, bool, str, np.bool_, np.floating,
                              np.integer)) or v is None for v in items):
            return "[" + ", ".join(_emit(v, indent) for v in items) + "]"
        inner = ",\n".join(pad + "  " + _emit(v, indent + 1) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_json.dumps(str(k))}: {_emit(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj) -> str:
    return _emit(obj, 0) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for numerics."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let "--du -1,0,0" pass as a value, not an unknown option
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_curve_source(inline: str | None, path: str | None) -> str:
    if inline is not None and path is not None:
        _fail_usage("give either --curve or --file, not both")
    if inline is not None:
        return inline
    if path is not None:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError as exc:
            _fail_usage(f"cannot read curve file: {exc}")
    _fail_usage("a curve is required (--curve EXPR or --file PATH)")
    raise AssertionError  # unreachable


def _parse_failure(source: str, err: ParseError) -> None:
    print(f"parse error: {err}", file=sys.stderr)
    print(render_caret(source, err), file=sys.stderr)
    raise _Exit(1)


def _compile(source: str, domain: tuple[float, float]) -> DualCurve:
    try:
        return compile_curve(source, domain, source=source)
    except ParseError as err:
        _parse_failure(source, err)
        raise AssertionError


def _dual_value(text: str, flag: str):
    try:
        return evaluate_scalar(text)
    except ParseError as err:
        print(f"{flag}: ", file=sys.stderr, end="")
        _parse_failure(text, err)
        raise AssertionError


def _finite(value: float, flag: str) -> float:
    """float() accepts inf and nan; no flag does."""
    if not math.isfinite(value):
        _fail_usage(f"{flag} must be a finite number, got {value!r}")
    return value


def _vector(text: str, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        _fail_usage(f"{flag} expects three comma-separated numbers, got {text!r}")
    try:
        return [_finite(float(p), flag) for p in parts]
    except ValueError:
        _fail_usage(f"{flag} expects numbers, got {text!r}")
    raise AssertionError


def _get_range(args) -> tuple[float, float]:
    t0, t1 = _finite(args.t_from, "--from"), _finite(args.t_to, "--to")
    if not (t0 < t1):
        _fail_usage(f"--from must be below --to, got {t0!r} and {t1!r}")
    return t0, t1


def _get_n(args, minimum: int = 2) -> int:
    if args.n < minimum:
        _fail_usage(f"--n must be at least {minimum}, got {args.n}")
    return args.n


def _get_tol(args) -> float:
    tol, source = getattr(args, "tol", None), "--tol"
    if tol is None:
        env, source = os.environ.get("DUALCURVE_TOL"), "DUALCURVE_TOL"
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                _fail_usage(f"DUALCURVE_TOL is not a number: {env!r}")
        else:
            tol = DEFAULT_TOL
    if not tol > 0:
        _fail_usage(f"tolerance must be positive, got {tol!r}")
    return _finite(tol, source)


def _grid(t0: float, t1: float, n: int) -> list[float]:
    step = (t1 - t0) / (n - 1)
    return [t0 + i * step for i in range(n)]


# ---------------------------------------------------------------------------
# sample emission (shared by sample, bertrand offset, involute)


def _positions(curve: DualCurve, ts: list[float]) -> list[tuple[float, DualVec3]]:
    rows = []
    for t in ts:
        try:
            rows.append((t, curve.position(t)))
        except DualCurvesError as exc:
            print(f"error at t = {format_float(t)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            raise _Exit(2) from exc
    return rows


def _samples_csv(rows) -> str:
    lines = ["t,re_x,re_y,re_z,du_x,du_y,du_z"]
    for t, p in rows:
        lines.append(",".join(format_float(v) for v in (t, *p.re, *p.du)))
    return "\n".join(lines) + "\n"


def _samples_json(rows) -> str:
    return emit_json([{"t": t, "pos": p.to_dict()} for t, p in rows])


def _emit_samples(rows, fmt: str, out: str | None) -> None:
    text = _samples_csv(rows) if fmt == "csv" else _samples_json(rows)
    _write_output(text, out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_frenet(args) -> int:
    source = _load_curve_source(args.curve, args.file)
    t0, t1 = _get_range(args)
    n = _get_n(args)
    curve = _compile(source, (t0, t1))
    records = []
    for t in _grid(t0, t1, n):
        try:
            records.append(frenet_at(curve, t).to_dict())
        except DualCurvesError as exc:
            print(f"error at t = {format_float(t)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    _write_output(emit_json(records), args.out)
    return 0


def cmd_sample(args) -> int:
    source = _load_curve_source(args.curve, args.file)
    t0, t1 = _get_range(args)
    n = _get_n(args)
    curve = _compile(source, (t0, t1))
    rows = _positions(curve, _grid(t0, t1, n))
    _emit_samples(rows, args.format, args.out)
    return 0


def _report_exit(report, out: str | None) -> int:
    _write_output(emit_json(report.to_dict()), out)
    if report.passed:
        return 0
    failed = [name for name, crit in report.criteria.items()
              if crit.applicable and not crit.passed]
    print("check failed: " + (", ".join(failed) if failed else "see report"),
          file=sys.stderr)
    return 3


def cmd_bertrand(args) -> int:
    source = _load_curve_source(args.curve, args.file)
    t0, t1 = _get_range(args)
    n = _get_n(args)
    alpha = _compile(source, (t0, t1))

    if args.mode == "offset":
        lam = _dual_value(args.lam, "--lambda")
        beta = offset_curve(alpha, lam)
        rows = _positions(beta, _grid(t0, t1, n))
        _emit_samples(rows, args.format, args.out)
        return 0

    if (args.curve2 is None) == (args.lam is None):
        _fail_usage("bertrand check needs exactly one of --curve2 or --lambda")
    if args.lam is not None:
        beta = offset_curve(alpha, _dual_value(args.lam, "--lambda"))
        pairing = identity_pairing
    else:
        beta = _compile(args.curve2, (t0, t1))
        pairing = None
    report = check_bertrand_pair(alpha, beta, n=n, tol=_get_tol(args),
                                 pairing=pairing)
    return _report_exit(report, args.out)


def cmd_involute(args) -> int:
    source = _load_curve_source(args.curve, args.file)
    t0, t1 = _get_range(args)
    n = _get_n(args)
    alpha = _compile(source, (t0, t1))
    c1 = _dual_value(args.c, "--c")

    if args.c2 is None:
        beta = involute(alpha, c1)
        a, b = beta.domain
        rows = _positions(beta, _grid(a, b, n))
        _emit_samples(rows, args.format, args.out)
        return 0

    c2 = _dual_value(args.c2, "--c2")
    report = check_involute_pair(alpha, c1, c2, n=n, tol=_get_tol(args))
    return _report_exit(report, args.out)


def _study_roundtrip(args) -> int:
    n = _get_n(args, minimum=1)
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    while count < n:
        p = rng.normal(size=3)
        d = rng.normal(size=3)
        if np.linalg.norm(d) < 1e-6:
            continue
        line = line_from_point_dir(p, d)
        back = from_dual_unit(to_dual_unit(line))
        worst = max(worst,
                    float(np.max(np.abs(back.direction - line.direction))),
                    float(np.max(np.abs(back.moment - line.moment))))
        count += 1
    passed = worst <= ROUNDTRIP_TOL
    record = {"mode": "roundtrip", "samples": n, "max_error": worst,
              "tolerance": ROUNDTRIP_TOL, "pass": passed}
    _write_output(emit_json(record), args.out)
    if not passed:
        print(f"check failed: round-trip error {format_float(worst)} "
              f"exceeds {format_float(ROUNDTRIP_TOL)}", file=sys.stderr)
    return 0 if passed else 3


def cmd_study(args) -> int:
    if args.roundtrip:
        return _study_roundtrip(args)
    if args.study_mode == "to-dual":
        point = _vector(args.point, "--point")
        direction = _vector(args.dir, "--dir")
        line = line_from_point_dir(point, direction)
        _write_output(emit_json(to_dual_unit(line).to_dict()), args.out)
        return 0
    if args.study_mode == "to-line":
        re = _vector(args.re, "--re")
        du = _vector(args.du, "--du")
        line = from_dual_unit(DualVec3.from_arrays(re, du))
        _write_output(emit_json(line.to_dict()), args.out)
        return 0
    _fail_usage("study needs a mode (to-dual|to-line) or --roundtrip")
    raise AssertionError


# ---------------------------------------------------------------------------
# parser construction


def _add_curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", metavar="EXPR",
                   help="curve expression, e.g. \"[cos(t), sin(t), t]\"")
    p.add_argument("--file", metavar="PATH",
                   help="UTF-8 text file holding one curve expression")


def _add_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="t_from", type=float, required=True,
                   metavar="T0", help="start of the parameter range")
    p.add_argument("--to", dest="t_to", type=float, required=True,
                   metavar="T1", help="end of the parameter range")


def _add_common_flags(p: argparse.ArgumentParser, fmt: bool = False) -> None:
    p.add_argument("--n", type=int, default=DEFAULT_SAMPLES, metavar="N",
                   help=f"sample count (default {DEFAULT_SAMPLES})")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="sample output format (default json)")


def _add_tol_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, metavar="TOL",
                   help="pass/fail tolerance (default 1e-8; env DUALCURVE_TOL)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualcurve",
        description="Dual-number curve geometry: Frenet data, Bertrand offset "
                    "and involute checks, and the line <-> dual-unit-vector map.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    f = sub.add_parser("frenet", help="Frenet frame, curvature and torsion")
    _add_curve_flags(f)
    _add_range_flags(f)
    _add_common_flags(f)
    f.set_defaults(func=cmd_frenet)

    s = sub.add_parser("sample", help="sample curve positions to JSON or CSV")
    _add_curve_flags(s)
    _add_range_flags(s)
    _add_common_flags(s, fmt=True)
    s.set_defaults(func=cmd_sample)

    b = sub.add_parser("bertrand", help="Bertrand offset construction and checks")
    bsub = b.add_subparsers(dest="mode", required=True, metavar="mode")
    bc = bsub.add_parser("check", help="run the Bertrand pair criteria")
    _add_curve_flags(bc)
    bc.add_argument("--curve2", metavar="EXPR", help="candidate mate curve")
    bc.add_argument("--lambda", dest="lam", metavar="DUAL",
                    help="construct the mate as an offset, e.g. \"1+eps*2\"")
    _add_range_flags(bc)
    _add_common_flags(bc)
    _add_tol_flag(bc)
    bc.set_defaults(func=cmd_bertrand)
    bo = bsub.add_parser("offset", help="sample the offset mate")
    _add_curve_flags(bo)
    bo.add_argument("--lambda", dest="lam", metavar="DUAL", required=True,
                    help="offset amount along the principal normal")
    _add_range_flags(bo)
    _add_common_flags(bo, fmt=True)
    bo.set_defaults(func=cmd_bertrand)

    i = sub.add_parser("involute", help="involute samples and the pair check")
    _add_curve_flags(i)
    i.add_argument("--c", required=True, metavar="DUAL",
                   help="string constant, a dual scalar like \"3\" or \"3+eps\"")
    i.add_argument("--c2", metavar="DUAL",
                   help="second string constant: run the involute pair check")
    _add_range_flags(i)
    _add_common_flags(i, fmt=True)
    _add_tol_flag(i)
    i.set_defaults(func=cmd_involute)

    st = sub.add_parser("study", help="oriented line <-> dual unit vector")
    st.add_argument("--roundtrip", action="store_true",
                    help="round-trip --n random lines and report the max error")
    st.add_argument("--n", type=int, default=100, metavar="N",
                    help="random line count for --roundtrip (default 100)")
    st.add_argument("--out", metavar="PATH",
                    help="write the report to PATH instead of stdout")
    stsub = st.add_subparsers(dest="study_mode", metavar="mode")
    std = stsub.add_parser("to-dual", help="line through a point to dual unit vector")
    std.add_argument("--point", required=True, metavar="X,Y,Z")
    std.add_argument("--dir", required=True, metavar="X,Y,Z")
    stl = stsub.add_parser("to-line", help="dual unit vector to oriented line")
    stl.add_argument("--re", required=True, metavar="X,Y,Z")
    stl.add_argument("--du", required=True, metavar="X,Y,Z")
    for q in (std, stl):
        q.add_argument("--roundtrip", action="store_true", help=argparse.SUPPRESS)
        q.add_argument("--n", type=int, default=100, help=argparse.SUPPRESS)
        q.add_argument("--out", metavar="PATH",
                       help="write the report to PATH instead of stdout")
    st.set_defaults(func=cmd_study, study_mode=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except NotPlanar as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DualCurvesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
