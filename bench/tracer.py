"""Outside-in tracer for the dualcurves layers.

The tracer patches the package's public entry points from outside (no
code under ``src/`` knows about it).  Coarse entry points become spans
(name, start, end, parent) held in flat arrays; hot ones (dual-number
constructions, jet arithmetic, linalg calls, speed evaluations) only
bump counters.  Counts that need context are taken where the work
happens, from the span on top of the stack:

* a speed evaluation whose innermost span is ``arc_length`` is one
  quadrature node (``_panel`` is private, so it is not wrapped);
* an ``s_at`` call directly under ``invert_real`` is one Newton step;
* an order-2 ``coord_jets`` call directly under a pairing span is one
  pairing iteration (the pairing closure is wrapped where
  ``nearest_point_pairing`` returns it).

A function is patched in every ``dualcurves`` module that holds it, so
by-name imports such as ``bertrand.frenet_at`` or ``frenet.arc_length``
are counted too.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Span name -> (module, qualified attribute).  Methods are patched on the
# class that defines them.
SPANS = {
    "dsl.parse": [("dualcurves.dsl", "parse"), ("dualcurves.dsl", "parse_scalar")],
    "dsl.eval": [("dualcurves.dsl", "ExprCurve.coord_jets")],
    "curves.arc_length": [("dualcurves.curves", "arc_length")],
    "curves.table_build": [("dualcurves.curves", "ArcLengthTable.__init__")],
    "curves.invert_real": [("dualcurves.curves", "ArcLengthTable.invert_real")],
    "curves.reparam_eval": [("dualcurves.curves", "ReparamCurve.coord_jets")],
    "frenet.frenet_at": [("dualcurves.frenet", "frenet_at")],
    "bertrand.offset_eval": [("dualcurves.bertrand", "OffsetCurve.coord_jets")],
    "bertrand.involute_eval": [("dualcurves.bertrand", "InvoluteCurve.coord_jets")],
    "bertrand.involute_torsion": [("dualcurves.bertrand", "involute_torsion")],
    "bertrand.criteria": [
        ("dualcurves.bertrand", "check_bertrand_pair"),
        ("dualcurves.bertrand", "check_involute_pair"),
        ("dualcurves.bertrand", "check_distance_constant"),
        ("dualcurves.bertrand", "check_angle_constant"),
        ("dualcurves.bertrand", "fit_linear_relation"),
    ],
    "cli.main": [("dualcurves.cli", "main")],
    "cli.emit": [("dualcurves.cli", "emit_json")],
}

# Counter name -> (module, qualified attribute); counted, never spanned.
COUNTS = {
    "dual.scalars": [("dualcurves.dual", "DualScalar.__post_init__")],
    "jets.mul": [("dualcurves.jets", "Jet.__mul__"), ("dualcurves.jets", "Jet.__rmul__")],
    "jets.div": [("dualcurves.jets", "Jet.__truediv__")],
    "jets.apply": [("dualcurves.jets", "Jet.apply")],
    "jets.compose": [("dualcurves.jets", "compose")],
    "linalg.calls": [("dualcurves.linalg", name) for name in
                     ("dot", "cross", "det3", "norm", "normalize", "dual_angle")],
    "curves.speed_evals": [("dualcurves.curves", "DualCurve.velocity_norm")],
    "curves.s_at": [("dualcurves.curves", "ArcLengthTable.s_at")],
    "bertrand.unit_speed_builds": [("dualcurves.curves", "reparam_by_arclength")],
}

PAIRING_FACTORY = ("dualcurves.bertrand", "nearest_point_pairing")
PAIRING_SPAN = "bertrand.pairing"


def _resolve(module_name: str, qualname: str):
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced pass; ``install``/``uninstall``
    bracket it, and nothing is recorded outside that bracket."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.outer_s: Counter = Counter()
        self.eval_order_sum = 0
        # Each frame: [span index, name, start, child seconds].
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def top(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def enter(self, name: str) -> None:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self.counts[name] += 1
        self._active[name] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, name, start, 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        self._active[name] -= 1
        if not self._active[name]:
            self.outer_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave()
        return wrapper

    def _emit_wrapper(self, name: str, fn):
        """Span for the CLI's JSON emitter; also counts the bytes it emits,
        which the frenet command writes to stdout."""
        span = self._span_wrapper(name, fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = span(*args, **kwargs)
            counts["cli.stdout_bytes"] += len(text.encode())
            return text
        return wrapper

    def _eval_wrapper(self, name: str, fn):
        """Span for a coord_jets method; also counts pairing iterations
        and, for the DSL, the requested jet order."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(curve, t0, order, *args, **kwargs):
            if order == 2 and tracer.top() == PAIRING_SPAN:
                tracer.counts["bertrand.pairing_iters"] += 1
            if name == "dsl.eval":
                tracer.eval_order_sum += order
            tracer.enter(name)
            try:
                return fn(curve, t0, order, *args, **kwargs)
            finally:
                tracer.leave()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        tracer = self
        if name == "curves.speed_evals":
            @functools.wraps(fn)
            def speed(*args, **kwargs):
                counts[name] += 1
                if tracer.top() == "curves.arc_length":
                    counts["curves.quad_nodes"] += 1
                return fn(*args, **kwargs)
            return speed
        if name == "curves.s_at":
            @functools.wraps(fn)
            def s_at(*args, **kwargs):
                counts[name] += 1
                if tracer.top() == "curves.invert_real":
                    counts["curves.newton_steps"] += 1
                return fn(*args, **kwargs)
            return s_at

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _pairing_factory(self, fn):
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return tracer._span_wrapper(PAIRING_SPAN, fn(*args, **kwargs))
        return factory

    # -- patching --------------------------------------------------------

    def _patch(self, module_name: str, qualname: str, make) -> None:
        owner, attr = _resolve(module_name, qualname)
        original = owner.__dict__[attr]
        wrapped = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # A module-level function: patch every dualcurves module holding it,
        # which covers by-name imports and the package namespace.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dualcurves" and not mod_name.startswith("dualcurves."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, targets in SPANS.items():
            for module_name, qualname in targets:
                if qualname.endswith(".coord_jets"):
                    make = functools.partial(self._eval_wrapper, name)
                elif name == "cli.emit":
                    make = functools.partial(self._emit_wrapper, name)
                else:
                    make = functools.partial(self._span_wrapper, name)
                self._patch(module_name, qualname, make)
        for name, targets in COUNTS.items():
            for module_name, qualname in targets:
                self._patch(module_name, qualname,
                            functools.partial(self._count_wrapper, name))
        self._patch(*PAIRING_FACTORY, self._pairing_factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def op(self, name: str):
        """One top-level operation span; its index identifies the request
        every nested span belongs to."""
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as arrays: name index, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

