"""Sectioned-text run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments
(whole-line or trailing), expressions in double quotes.  Unknown sections
or keys are errors; every diagnostic carries the 1-based line number.

Sections::

    [problem]   type = hj | pq, then the problem fields
    [grid]      axis specs: x and t (hj) or x and y (pq); either
                min:max:count or an explicit comma-separated point list
    [solver]    SolverConfig fields plus the root-scan range q_min / q_max
    [output]    field and report paths, pass/fail thresholds
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .errors import ConfigError, ParseError
from .expr import Expression, parse as parse_expr, variables
from .fields import check_axis
from .hj import HJProblem
from .numerics import SolverConfig, scan_abscissae
from .pq import PQProblem

__all__ = ["RunConfig", "parse_config", "load_config"]


class RunConfig:
    def __init__(
        self,
        problem: Union[PQProblem, HJProblem],
        axis1: tuple[float, ...],  # x grid
        axis2: tuple[float, ...],  # y or t grid
        solver: SolverConfig,
        q_range: tuple[float, float],
        field_path: Optional[str],
        report_path: Optional[str],
        min_resolved: float,
        max_residual: float,
    ):
        self.problem = problem
        self.axis1 = axis1
        self.axis2 = axis2
        self.solver = solver
        self.q_range = q_range
        self.field_path = field_path
        self.report_path = report_path
        self.min_resolved = min_resolved
        self.max_residual = max_residual

    @property
    def is_hj(self) -> bool:
        return isinstance(self.problem, HJProblem)


class _Entry:
    __slots__ = ("raw", "quoted", "line")

    def __init__(self, raw: str, quoted: bool, line: int):
        self.raw = raw
        self.quoted = quoted
        self.line = line


def _split_value(value: str, line: int) -> tuple[str, bool]:
    value = value.strip()
    if value.startswith('"'):
        end = value.find('"', 1)
        if end < 0:
            raise ConfigError("unterminated quoted expression", line)
        rest = value[end + 1 :].split("#", 1)[0].strip()
        if rest:
            raise ConfigError(f"unexpected text after quoted value: {rest!r}", line)
        return value[1:end], True
    cut = value.find("#")
    if cut >= 0:
        value = value[:cut].strip()
    if not value:
        raise ConfigError("missing value", line)
    return value, False


def _scan_sections(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            cut = line.find("#")
            if cut >= 0:
                line = line[:cut].rstrip()
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in ("problem", "grid", "solver", "output"):
                raise ConfigError(f"unknown section {name!r}", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section {name!r}", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key before '='", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        val, quoted = _split_value(value, lineno)
        sections[current][key] = _Entry(val, quoted, lineno)
    return sections


class _Section:
    def __init__(self, name: str, entries: dict[str, _Entry]):
        self.name = name
        self.entries = dict(entries)

    def take(self, key: str) -> Optional[_Entry]:
        return self.entries.pop(key, None)

    def require(self, key: str) -> _Entry:
        entry = self.entries.pop(key, None)
        if entry is None:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return entry

    def finish(self):
        for key, entry in self.entries.items():
            raise ConfigError(f"unknown key {key!r} in [{self.name}]", entry.line)


def _expr_of(entry: _Entry, key: str, var: str) -> Expression:
    """The expression of ``key``, a function of ``var`` alone."""
    if not entry.quoted:
        raise ConfigError(f"expression for {key!r} must be double-quoted", entry.line)
    try:
        e = parse_expr(entry.raw)
    except ParseError as exc:
        raise ConfigError(f"in expression for {key!r}: {exc}", entry.line) from None
    unbound = variables(e) - {var}
    if unbound:
        message = f"expression for {key!r} takes only {var}, not {min(unbound)!r}"
        raise ConfigError(message, entry.line)
    return e


def _float_of(entry: _Entry, key: str) -> float:
    if entry.quoted:
        raise ConfigError(f"{key!r} must be an unquoted number", entry.line)
    try:
        return float(entry.raw)
    except ValueError:
        raise ConfigError(f"bad number for {key!r}: {entry.raw!r}", entry.line) from None


def _finite_of(entry: _Entry, key: str) -> float:
    value = _float_of(entry, key)
    if not math.isfinite(value):
        raise ConfigError(f"{key!r} must be finite", entry.line)
    return value


def _positive_of(entry: _Entry, key: str) -> float:
    value = _finite_of(entry, key)
    if not value > 0.0:
        raise ConfigError(f"{key!r} must be positive", entry.line)
    return value


def _int_of(entry: _Entry, key: str, least: int) -> int:
    if entry.quoted:
        raise ConfigError(f"{key!r} must be an unquoted integer", entry.line)
    try:
        value = int(entry.raw)
    except ValueError:
        raise ConfigError(f"bad integer for {key!r}: {entry.raw!r}", entry.line) from None
    if value < least:
        raise ConfigError(f"{key!r} must be at least {least}", entry.line)
    return value


def _axis_of(entry: _Entry, key: str) -> tuple[float, ...]:
    raw = entry.raw
    if entry.quoted:
        raise ConfigError(f"axis {key!r} must be unquoted", entry.line)
    try:
        if "," in raw:
            points = [float(tok) for tok in raw.split(",")]
        else:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ValueError
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 2 or not lo < hi:
                raise ValueError
            points = scan_abscissae(lo, hi, count - 1)
    except ValueError:
        raise ConfigError(
            f"axis {key!r} must be min:max:count or a comma-separated list", entry.line
        ) from None
    if not all(map(math.isfinite, points)):
        raise ConfigError(f"axis {key!r} values must be finite", entry.line)
    try:
        return check_axis(points)
    except ValueError:
        raise ConfigError(f"axis {key!r} must be strictly increasing", entry.line) from None


def _build_problem(section: _Section):
    type_entry = section.require("type")
    kind = type_entry.raw
    if kind == "hj":
        a = _expr_of(section.require("a"), "a", "x")
        v = _expr_of(section.require("V"), "V", "x")
        g = _expr_of(section.require("G"), "G", "q")
        sigma_entry = section.take("sigma")
        sigma = 1
        if sigma_entry is not None:
            if sigma_entry.raw not in ("1", "+1", "-1"):
                raise ConfigError("sigma must be +1 or -1", sigma_entry.line)
            sigma = 1 if sigma_entry.raw in ("1", "+1") else -1
        x0_entry = section.take("x0")
        x0 = _finite_of(x0_entry, "x0") if x0_entry is not None else 0.0
        eps_entry = section.take("eps_adm")
        eps = _positive_of(eps_entry, "eps_adm") if eps_entry is not None else None
        return HJProblem(a, v, g, sigma=sigma, x0=x0, eps_adm=eps)
    if kind == "pq":
        pq_kind = section.require("kind").raw
        if pq_kind == "explicit":
            return PQProblem.explicit(
                _expr_of(section.require("f"), "f", "q"),
                _expr_of(section.require("phi"), "phi", "q"),
            )
        if pq_kind in ("scaled_x", "scaled_y"):
            # a scaled_y problem's lines are y columns and its root is p
            line, root = ("x", "q") if pq_kind == "scaled_x" else ("y", "p")
            ctor = PQProblem.scaled_x if pq_kind == "scaled_x" else PQProblem.scaled_y
            return ctor(
                _expr_of(section.require("scale"), "scale", line),
                _expr_of(section.require("G"), "G", root),
                _expr_of(section.require("phi"), "phi", root),
            )
        raise ConfigError(f"unknown pq kind {pq_kind!r}", type_entry.line)
    raise ConfigError(f"unknown problem type {kind!r}", type_entry.line)


def parse_config(text: str) -> RunConfig:
    raw_sections = _scan_sections(text)
    for name in ("problem", "grid", "solver"):
        if name not in raw_sections:
            raise ConfigError(f"missing [{name}] section")

    problem_sec = _Section("problem", raw_sections["problem"])
    problem = _build_problem(problem_sec)
    problem_sec.finish()

    grid_sec = _Section("grid", raw_sections["grid"])
    axis1 = _axis_of(grid_sec.require("x"), "x")
    second = "t" if isinstance(problem, HJProblem) else "y"
    axis2 = _axis_of(grid_sec.require(second), second)
    grid_sec.finish()

    solver_sec = _Section("solver", raw_sections["solver"])
    q_min_entry = solver_sec.require("q_min")
    q_min = _finite_of(q_min_entry, "q_min")
    q_max = _finite_of(solver_sec.require("q_max"), "q_max")
    if not q_min < q_max:
        raise ConfigError("'q_min' must be below 'q_max'", q_min_entry.line)
    kwargs = {}  # the keys left out take SolverConfig's defaults
    for key in ("root_tol", "resid_tol", "quad_tol"):
        entry = solver_sec.take(key)
        if entry is not None:
            kwargs[key] = _positive_of(entry, key)
    for key, least in (("max_iter", 1), ("scan_points", 2)):
        entry = solver_sec.take(key)
        if entry is not None:
            kwargs[key] = _int_of(entry, key, least)
    solver_sec.finish()
    solver = SolverConfig(**kwargs)

    field_path = report_path = None
    min_resolved = 0.99
    max_residual = 1e-6
    if "output" in raw_sections:
        out_sec = _Section("output", raw_sections["output"])
        entry = out_sec.take("field")
        field_path = entry.raw if entry is not None else None
        entry = out_sec.take("report")
        report_path = entry.raw if entry is not None else None
        entry = out_sec.take("min_resolved")
        if entry is not None:
            min_resolved = _finite_of(entry, "min_resolved")
        entry = out_sec.take("max_residual")
        if entry is not None:
            max_residual = _finite_of(entry, "max_residual")
        out_sec.finish()

    return RunConfig(
        problem=problem,
        axis1=axis1,
        axis2=axis2,
        solver=solver,
        q_range=(q_min, q_max),
        field_path=field_path,
        report_path=report_path,
        min_resolved=min_resolved,
        max_residual=max_residual,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    return parse_config(text)
