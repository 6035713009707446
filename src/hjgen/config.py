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
import os
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
    __slots__ = ("key", "raw", "quoted", "line")

    def __init__(self, key: str, raw: str, quoted: bool, line: int):
        self.key = key
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


class _Section:
    """One section's entries by key, in file order; :meth:`finish` names the
    first key that no reader took."""

    def __init__(self, name: str):
        self.name = name
        self.entries: dict[str, _Entry] = {}
        self.taken: set[str] = set()

    def take(self, key: str, read, *args, default=None):
        """``read(entry, *args)`` of the entry of ``key``, or ``default``
        when the section has none."""
        entry = self.entries.get(key)
        if entry is None:
            return default
        self.taken.add(key)
        return read(entry, *args)

    def require(self, key: str, read, *args):
        if key not in self.entries:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return self.take(key, read, *args)

    def finish(self):
        for key, entry in self.entries.items():
            if key not in self.taken:
                raise ConfigError(f"unknown key {key!r} in [{self.name}]", entry.line)


def _scan_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: Optional[_Section] = None
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
            current = sections[name] = _Section(name)
            continue
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key before '='", lineno)
        if key in current.entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        current.entries[key] = _Entry(key, *_split_value(value, lineno), lineno)
    return sections


# Readers: each turns an entry into its value or raises a ConfigError that
# names the entry's key and line.


def _raw_of(entry: _Entry) -> str:
    """A path, quoted or not: quoting is how a path holds ``#``."""
    return entry.raw


def _word_of(entry: _Entry) -> str:
    """A keyword, unquoted like a number."""
    if entry.quoted:
        raise ConfigError(f"{entry.key!r} must be unquoted", entry.line)
    return entry.raw


def _expr_of(entry: _Entry, var: str) -> Expression:
    """The entry's expression, a function of ``var`` alone."""
    if not entry.quoted:
        raise ConfigError(f"expression for {entry.key!r} must be double-quoted", entry.line)
    try:
        e = parse_expr(entry.raw)
    except ParseError as exc:
        raise ConfigError(f"in expression for {entry.key!r}: {exc}", entry.line) from None
    unbound = variables(e) - {var}
    if unbound:
        message = f"expression for {entry.key!r} takes only {var}, not {min(unbound)!r}"
        raise ConfigError(message, entry.line)
    return e


def _finite_of(entry: _Entry) -> float:
    if entry.quoted:
        raise ConfigError(f"{entry.key!r} must be an unquoted number", entry.line)
    try:
        value = float(entry.raw)
    except ValueError:
        raise ConfigError(f"bad number for {entry.key!r}: {entry.raw!r}", entry.line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{entry.key!r} must be finite", entry.line)
    return value


def _positive_of(entry: _Entry) -> float:
    value = _finite_of(entry)
    if not value > 0.0:
        raise ConfigError(f"{entry.key!r} must be positive", entry.line)
    return value


def _int_of(entry: _Entry, least: int) -> int:
    if entry.quoted:
        raise ConfigError(f"{entry.key!r} must be an unquoted integer", entry.line)
    try:
        value = int(entry.raw)
    except ValueError:
        raise ConfigError(f"bad integer for {entry.key!r}: {entry.raw!r}", entry.line) from None
    if value < least:
        raise ConfigError(f"{entry.key!r} must be at least {least}", entry.line)
    return value


def _sigma_of(entry: _Entry) -> int:
    sign = _word_of(entry)
    if sign not in ("1", "+1", "-1"):
        raise ConfigError("sigma must be +1 or -1", entry.line)
    return -1 if sign == "-1" else 1


def _report_of(entry: _Entry, field_path: Optional[str]) -> str:
    """The report path, which must not be the field CSV's: the report would
    overwrite the field."""
    if field_path is not None and os.path.realpath(entry.raw) == os.path.realpath(field_path):
        raise ConfigError("'report' names the same file as 'field'", entry.line)
    return entry.raw


def _axis_of(entry: _Entry) -> tuple[float, ...]:
    key, raw = entry.key, entry.raw
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
            if count < 2:
                raise ConfigError(f"axis {key!r} needs at least 2 points", entry.line)
            if lo >= hi:
                raise ConfigError(f"axis {key!r} needs min < max", entry.line)
            if not lo < hi:  # a NaN end
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


# pq kind -> (constructor, its expression keys in argument order, each with
# the one variable it takes); a scaled_y problem's lines are y columns and
# its root is p
_PQ_KINDS = {
    "explicit": (PQProblem.explicit, (("f", "q"), ("phi", "q"))),
    "scaled_x": (PQProblem.scaled_x, (("scale", "x"), ("G", "q"), ("phi", "q"))),
    "scaled_y": (PQProblem.scaled_y, (("scale", "y"), ("G", "p"), ("phi", "p"))),
}
# the [solver] keys besides the scan range, in the order they are read:
# (key, reader, the reader's arguments)
_SOLVER_KEYS = (
    ("root_tol", _positive_of), ("resid_tol", _positive_of), ("quad_tol", _positive_of),
    ("max_iter", _int_of, 1), ("scan_points", _int_of, 2),
)


def _build_problem(section: _Section):
    kind = section.require("type", _word_of)
    if kind == "hj":
        return HJProblem(
            section.require("a", _expr_of, "x"),
            section.require("V", _expr_of, "x"),
            section.require("G", _expr_of, "q"),
            sigma=section.take("sigma", _sigma_of, default=1),
            x0=section.take("x0", _finite_of, default=0.0),
            eps_adm=section.take("eps_adm", _positive_of),
        )
    if kind != "pq":
        raise ConfigError(f"unknown problem type {kind!r}", section.entries["type"].line)
    pq_kind = section.require("kind", _word_of)
    if pq_kind not in _PQ_KINDS:
        raise ConfigError(f"unknown pq kind {pq_kind!r}", section.entries["kind"].line)
    ctor, keys = _PQ_KINDS[pq_kind]
    return ctor(*[section.require(key, _expr_of, var) for key, var in keys])


def parse_config(text: str) -> RunConfig:
    sections = _scan_sections(text)
    for name in ("problem", "grid", "solver"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")

    problem_sec = sections["problem"]
    problem = _build_problem(problem_sec)
    problem_sec.finish()

    grid = sections["grid"]
    axis1 = grid.require("x", _axis_of)
    axis2 = grid.require("t" if isinstance(problem, HJProblem) else "y", _axis_of)
    grid.finish()

    solver = sections["solver"]
    q_min = solver.require("q_min", _finite_of)
    q_max = solver.require("q_max", _finite_of)
    if not q_min < q_max:
        raise ConfigError("'q_min' must be below 'q_max'", solver.entries["q_min"].line)
    read = {key: solver.take(key, *reader) for key, *reader in _SOLVER_KEYS}
    solver.finish()
    # the keys left out take SolverConfig's defaults
    solver_cfg = SolverConfig(**{key: value for key, value in read.items() if value is not None})

    out = sections.get("output", _Section("output"))
    field_path = out.take("field", _raw_of)
    report_path = out.take("report", _report_of, field_path)
    min_resolved = out.take("min_resolved", _finite_of, default=0.99)
    max_residual = out.take("max_residual", _finite_of, default=1e-6)
    out.finish()

    return RunConfig(
        problem, axis1, axis2, solver_cfg, (q_min, q_max),
        field_path, report_path, min_resolved, max_residual,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    return parse_config(text)
