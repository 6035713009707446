"""Grid solution containers, the warm-started sweep with its root choice,
and CSV serialization."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import ConfigError, ConvergenceError, DomainError
from .numerics import SolverConfig, locate_roots

__all__ = [
    "Status",
    "SolutionField",
    "ActionField",
    "check_axis",
    "sweep",
    "pick_root",
    "write_field_csv",
    "read_field_csv",
]


class Status(str, Enum):
    RESOLVED = "resolved"
    NO_ROOT = "no_root"
    MULTI_ROOT = "multi_root"
    DOMAIN_FAIL = "domain_fail"


def check_axis(values) -> tuple[float, ...]:
    axis = tuple(float(v) for v in values)
    if not axis:
        raise ValueError("axis must not be empty")
    for a, b in zip(axis, axis[1:]):
        if not a < b:
            raise ValueError("axis values must be strictly increasing")
    return axis


@dataclass
class _Field2D:
    """Per-point roots, solution values and statuses over a rectangular grid.

    ``q`` and ``value`` hold a float exactly where the status is
    ``resolved`` or ``multi_root`` and ``None`` elsewhere.
    """

    axis1: tuple[float, ...]
    axis2: tuple[float, ...]
    q: list[list[Optional[float]]]
    value: list[list[Optional[float]]]
    status: list[list[Status]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.axis1), len(self.axis2)

    def has_value(self, i: int, j: int) -> bool:
        return self.value[i][j] is not None

    def resolved_fraction(self) -> float:
        n1, n2 = self.shape
        hits = sum(
            1 for i in range(n1) for j in range(n2) if self.status[i][j] is Status.RESOLVED
        )
        return hits / (n1 * n2)


@dataclass
class SolutionField(_Field2D):
    """Field for the first-order PDE solvers: axes (x, y), value u."""


@dataclass
class ActionField(_Field2D):
    """Field for the Hamilton-Jacobi solver: axes (x, t), value S, momentum p."""

    p: list[list[Optional[float]]]


PointSolver = Callable[[int, int, Optional[float]], tuple[Optional[float], Status]]


def sweep(point_solver: PointSolver, n1: int, n2: int, threads: int = 0):
    """Row-major warm-started sweep over an n1 x n2 grid.

    Each point is warm-started from its left neighbour; first-column points
    from the point in the previous row; the origin runs cold.  Column 0 is
    computed serially, after which rows are mutually independent, so with
    ``threads > 1`` rows run in a thread pool without changing any
    warm-start input -- the output is identical to the serial sweep.
    """
    q: list[list[Optional[float]]] = [[None] * n2 for _ in range(n1)]
    status = [[Status.NO_ROOT] * n2 for _ in range(n1)]
    for i in range(n1):
        warm = q[i - 1][0] if i > 0 else None
        q[i][0], status[i][0] = point_solver(i, 0, warm)

    def run_row(i: int):
        for j in range(1, n2):
            q[i][j], status[i][j] = point_solver(i, j, q[i][j - 1])

    if threads and threads > 1 and n1 > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_row, range(n1)))
    else:
        for i in range(n1):
            run_row(i)
    return q, status


def pick_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: SolverConfig,
    warm: Optional[float],
) -> tuple[Optional[float], Status]:
    """Scan ``g`` over [lo, hi] and choose one grid point's root and status.

    Several roots resolve to the one nearest ``warm`` (continuation) with
    status ``multi_root``; a ``g`` that vanishes at every scan sample keeps
    the warm value (or the range midpoint when cold).  Domain and
    convergence failures never raise, they mark the point ``domain_fail``.
    """
    try:
        scan = locate_roots(g, lo, hi, cfg)
    except (DomainError, ConvergenceError):
        return None, Status.DOMAIN_FAIL
    if scan.n_valid == 0:
        return None, Status.DOMAIN_FAIL
    ref = warm if warm is not None else 0.5 * (lo + hi)
    if scan.degenerate:
        return ref, Status.MULTI_ROOT
    if not scan.roots:
        return None, Status.NO_ROOT
    if len(scan.roots) == 1:
        return scan.roots[0], Status.RESOLVED
    return min(scan.roots, key=lambda r: (abs(r - ref), r)), Status.MULTI_ROOT


def _fmt(v: Optional[float]) -> str:
    return "" if v is None else format(v, ".17g")


def write_field_csv(field: _Field2D, path: str) -> None:
    """Write a field in the fixed CSV schema, floats at 17 significant digits."""
    n1, n2 = field.shape
    lines = []
    if isinstance(field, ActionField):
        lines.append("x,t,q,S,p,status")
        for i in range(n1):
            for j in range(n2):
                lines.append(
                    f"{_fmt(field.axis1[i])},{_fmt(field.axis2[j])},"
                    f"{_fmt(field.q[i][j])},{_fmt(field.value[i][j])},"
                    f"{_fmt(field.p[i][j])},{field.status[i][j].value}"
                )
    else:
        lines.append("x,y,q,u,status")
        for i in range(n1):
            for j in range(n2):
                lines.append(
                    f"{_fmt(field.axis1[i])},{_fmt(field.axis2[j])},"
                    f"{_fmt(field.q[i][j])},{_fmt(field.value[i][j])},"
                    f"{field.status[i][j].value}"
                )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_float(token: str, line: int, what: str) -> Optional[float]:
    if token == "":
        return None
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"bad {what} value {token!r}", line) from None


def read_field_csv(path: str):
    """Load a field CSV produced by :func:`write_field_csv`.

    Validates the schema, the row-major grid layout and the presence rule
    (numeric cells filled exactly for resolved / multi_root rows).
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError("empty field file", 1)
    header = lines[0].strip()
    if header == "x,t,q,S,p,status":
        is_action = True
    elif header == "x,y,q,u,status":
        is_action = False
    else:
        raise ConfigError(f"unrecognized field header {header!r}", 1)
    ncols = 6 if is_action else 5
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != ncols:
            raise ConfigError(
                f"expected {ncols} columns, found {len(parts)}", lineno
            )
        a1 = _parse_float(parts[0], lineno, "axis")
        a2 = _parse_float(parts[1], lineno, "axis")
        if a1 is None or a2 is None:
            raise ConfigError("axis cells must not be empty", lineno)
        qv = _parse_float(parts[2], lineno, "root")
        val = _parse_float(parts[3], lineno, "value")
        pv = _parse_float(parts[4], lineno, "momentum") if is_action else None
        try:
            st = Status(parts[-1])
        except ValueError:
            raise ConfigError(f"unknown status {parts[-1]!r}", lineno) from None
        present = st in (Status.RESOLVED, Status.MULTI_ROOT)
        if present != (qv is not None and val is not None):
            raise ConfigError(f"cell presence inconsistent with status {st.value!r}", lineno)
        rows.append((a1, a2, qv, val, pv, st))
    if not rows:
        raise ConfigError("field file has no data rows", 2)
    axis1: list[float] = []
    for a1, *_ in rows:
        if not axis1 or axis1[-1] != a1:
            axis1.append(a1)
    n1 = len(axis1)
    if len(rows) % n1 != 0:
        raise ConfigError("row count does not form a complete grid", len(lines))
    n2 = len(rows) // n1
    axis2 = [r[1] for r in rows[:n2]]
    try:
        ax1 = check_axis(axis1)
        ax2 = check_axis(axis2)
    except ValueError as exc:
        raise ConfigError(str(exc), 2) from None
    q = [[None] * n2 for _ in range(n1)]
    value = [[None] * n2 for _ in range(n1)]
    p = [[None] * n2 for _ in range(n1)]
    status = [[Status.NO_ROOT] * n2 for _ in range(n1)]
    for k, (a1, a2, qv, val, pv, st) in enumerate(rows):
        i, j = divmod(k, n2)
        if a1 != ax1[i] or a2 != ax2[j]:
            raise ConfigError("rows are not in row-major grid order", k + 2)
        q[i][j] = qv
        value[i][j] = val
        p[i][j] = pv
        status[i][j] = st
    if is_action:
        return ActionField(ax1, ax2, q, value, status, p)
    return SolutionField(ax1, ax2, q, value, status)
