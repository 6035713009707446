"""Layer spans and call counts for hjgen, taken from outside the package.

:class:`Tracer` replaces each public function in :data:`TARGETS` with a
wrapper, in every ``hjgen`` module namespace that holds it (``cli`` imports
``load_config`` by name, ``hj`` imports ``locate_roots``, and so on), and
puts the originals back on :meth:`Tracer.uninstall`.  A wrapper records one
span per call -- name, start, end, parent span and grid-point id -- and
counts calls to the callables the function receives: the integrand of
``integrate_adaptive``, the constraint ``g`` of ``locate_roots`` and
``solve_bracketed``, and every closure ``compile_function`` returns.

Spans stay in memory; :func:`layer_metrics` reduces one pass's spans to the
per-layer numbers and :func:`write_spans` writes them out.  A layer's self
time is its spans' duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time

# module, function, counted argument (index of a callable whose calls are
# counted, or None), point-id arguments (indices of the grid coordinates)
TARGETS = (
    ("cli", "main", None, None),
    ("config", "load_config", None, None),
    ("expr", "compile_function", None, None),
    ("expr", "evaluate", None, None),
    ("numerics", "integrate_adaptive", 0, None),
    ("numerics", "locate_roots", 0, None),
    ("numerics", "solve_bracketed", 0, None),
    ("hj", "solve_point", None, (1, 2)),
    ("hj", "action_value", None, (1, 2)),
    ("hj", "separation_action", None, (2, 3)),
    ("pq", "solve_point", None, (1, 2)),
    ("fields", "sweep", None, None),
    ("fields", "write_field_csv", None, None),
    ("fields", "read_field_csv", None, None),
    ("verify", "residual_report", None, None),
    ("verify", "compare_oracle", None, None),
)
# functions that call themselves by name: only the outermost call is a span
_REENTRANT = {"expr.evaluate", "numerics.integrate_adaptive"}
_CSV_PATH_ARG = {"fields.write_field_csv": 1, "fields.read_field_csv": 0}


class Span:
    __slots__ = ("name", "parent", "point", "start", "end", "calls")

    def __init__(self, name, parent, point):
        self.name = name
        self.parent = parent
        self.point = point
        self.start = self.end = 0.0
        self.calls = 0  # calls to the counted callable argument


class _ThreadState:
    __slots__ = ("stack", "closure_calls", "csv_bytes")

    def __init__(self):
        self.stack: list[Span] = []
        self.closure_calls = 0
        self.csv_bytes = 0


class Tracer:
    """Wraps the hjgen layer functions while installed; one pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.compiles = 0  # compile_function calls; compiling is not a span
        self.missing: set[str] = set()  # targets the package no longer has
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._points: dict[tuple[float, float], int] = {}
        self._sweep: Span | None = None  # parent for spans on sweep pool threads

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _point_id(self, a, b) -> int:
        with self._lock:
            return self._points.setdefault((a, b), len(self._points))

    def _wrap(self, name, fn, counted_arg, point_args):
        tracer = self
        clock = time.perf_counter
        reentrant = name in _REENTRANT
        csv_arg = _CSV_PATH_ARG.get(name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else tracer._sweep
            if reentrant and stack and parent.name == name:
                return fn(*args, **kwargs)
            if point_args is not None:
                point = tracer._point_id(args[point_args[0]], args[point_args[1]])
            else:
                point = parent.point if parent is not None else None
            span = Span(name, parent, point)
            if counted_arg is not None:
                inner = args[counted_arg]

                def counted(*a):
                    span.calls += 1
                    return inner(*a)

                args = args[:counted_arg] + (counted,) + args[counted_arg + 1 :]
            tracer.spans.append(span)
            stack.append(span)
            if name == "fields.sweep":
                tracer._sweep = span
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if name == "fields.sweep":
                    tracer._sweep = None
            if csv_arg is not None:
                st.csv_bytes += os.path.getsize(args[csv_arg])
            return result

        return wrapper

    def _wrap_compile(self, compile_function):
        """Count compilations and the calls of every closure they return."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.compiles += 1
            closure = compile_function(*args, **kwargs)

            def counted_closure(*values):
                tracer._state().closure_calls += 1
                return closure(*values)

            return counted_closure

        return wrapper

    def install(self) -> None:
        """Start a pass: clear the spans and counts and wrap every target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self.compiles = 0
        self._states = []
        self._local = threading.local()
        self._points = {}
        modules = [m for n, m in list(sys.modules.items()) if n == "hjgen" or n.startswith("hjgen.")]
        for mod_name, fn_name, counted_arg, point_args in TARGETS:
            original = getattr(sys.modules[f"hjgen.{mod_name}"], fn_name, None)
            if original is None:  # renamed or removed since: its metrics read 0
                self.missing.add(f"{mod_name}.{fn_name}")
                continue
            if fn_name == "compile_function":
                wrapper = self._wrap_compile(original)
            else:
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counted_arg, point_args)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> bool:
        """Put every original back; True when each name holds its original."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is original for mod, attr, original in self._patches)
        self._patches = []
        return restored

    def totals(self) -> tuple[int, int]:
        """(closure calls, CSV bytes) over every thread of the pass."""
        return (
            sum(s.closure_calls for s in self._states),
            sum(s.csv_bytes for s in self._states),
        )


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        kids = children.get(id(s))
        dur = s.end - s.start
        if kids:
            dur -= _covered(s.start, s.end, kids)
        out[s.name] = out.get(s.name, 0.0) + dur
    return out


def is_count(metric: str) -> bool:
    """Whether a :func:`layer_metrics` entry is a call count, not a time."""
    return not (metric.endswith("_s") or "_us_" in metric)


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def quad_cap_evals(max_panels: int) -> int:
    """Integrand calls of a quadrature that stopped at the panel cap.

    ``integrate_adaptive`` samples 5 points for its first panel and 4 per
    split, and each split adds 2 panels to a count that starts at 1; it
    stops splitting once that count reaches ``max_panels``.
    """
    splits = math.ceil((max_panels - 1) / 2)
    return 5 + 4 * splits


def layer_metrics(tracer: Tracer, ops: int, max_panels: int | None) -> dict[str, float]:
    """Per-layer numbers for one traced pass of ``ops`` operations."""
    spans = tracer.spans
    self_s = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_op(n):
        return n / ops if ops else 0.0

    quads = named("numerics.integrate_adaptive")
    quad_evals = [s.calls for s in quads]
    cap = math.inf if max_panels is None else quad_cap_evals(max_panels)
    constraint_evals = sum(s.calls for s in named("numerics.locate_roots"))
    closure_calls, csv_bytes = tracer.totals()
    out = {
        "numerics.constraint_evals_per_point": per_op(constraint_evals),
        "numerics.bracket_solves": len(named("numerics.solve_bracketed")),
        "numerics.refine_evals": sum(s.calls for s in named("numerics.solve_bracketed")),
        "numerics.roots_s": self_s.get("numerics.locate_roots", 0.0)
        + self_s.get("numerics.solve_bracketed", 0.0),
        "numerics.quad_calls": len(quads),
        "numerics.quad_per_point": per_op(len(quads)),
        "numerics.evals_per_quad": sum(quad_evals) / len(quads) if quads else 0.0,
        "numerics.evals_per_quad_max": max(quad_evals, default=0),
        "numerics.quad_s": self_s.get("numerics.integrate_adaptive", 0.0),
        "numerics.quad_at_cap": sum(1 for n in quad_evals if n >= cap),
        "expr.compile_calls": tracer.compiles,
        "expr.closure_calls_per_point": per_op(closure_calls),
        "expr.evaluate_calls": len(named("expr.evaluate")),
        "expr.evaluate_s": self_s.get("expr.evaluate", 0.0),
        "config.load_s": self_s.get("config.load_config", 0.0),
        "hj.action_quads": sum(1 for s in quads if s.parent and s.parent.name == "hj.action_value"),
        "fields.csv_bytes": csv_bytes,
    }
    for layer in ("hj", "pq"):
        points_us = [(s.end - s.start) * 1e6 for s in named(f"{layer}.solve_point")]
        out[f"{layer}.solve_point_s"] = self_s.get(f"{layer}.solve_point", 0.0)
        out[f"{layer}.point_us_p50"] = _percentile(points_us, 50)
        out[f"{layer}.point_us_p99"] = _percentile(points_us, 99)
    for metric, name in (
        ("hj.action_value_s", "hj.action_value"),
        ("hj.separation_s", "hj.separation_action"),
        ("fields.sweep_s", "fields.sweep"),
        ("fields.write_csv_s", "fields.write_field_csv"),
        ("fields.read_csv_s", "fields.read_field_csv"),
        ("verify.residual_s", "verify.residual_report"),
        ("verify.oracle_s", "verify.compare_oracle"),
        ("cli.main_s", "cli.main"),
    ):
        out[metric] = self_s.get(name, 0.0)
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span; parents refer to span ids."""
    ids = {id(s): k for k, s in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tpoint\tstart_s\tend_s\tcalls\n")
        t0 = spans[0].start if spans else 0.0
        for k, s in enumerate(spans):
            parent = ids.get(id(s.parent), "") if s.parent is not None else ""
            point = "" if s.point is None else s.point
            fh.write(
                f"{k}\t{parent}\t{s.name}\t{point}\t{s.start - t0:.9f}\t{s.end - t0:.9f}\t{s.calls}\n"
            )
