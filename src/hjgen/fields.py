"""Grid solution containers, the grid solve, the continuation sweep, the
line root solver, and CSV serialization.

On every grid line each family's root condition says that the target (t,
y or x) equals a function of the root alone, the line's level, so a grid
line is one function inverted at many targets, and both families solve
through one function, :func:`solve_grid`.  A problem (an
:class:`~hjgen.hj.HJProblem` or a :class:`~hjgen.pq.PQProblem`) gives it
three things:

- ``lines_are_columns``: whether its lines are the grid's rows or its
  columns;
- ``lines(line axis, q_lo, q_hi, cfg)``: each line's (:class:`RootLine`,
  value kernel) pair, or ``None`` for a line that fails at every point,
  and a function that adds the family's own counts to a
  :class:`~hjgen.numerics.SolveStats`;
- ``field(axis1, axis2, q, values, status)``: the family's field from the
  roots, the kernels' values and the statuses.

:func:`solve_grid` checks its inputs, sweeps the grid whose rows the lines
are, takes each root's value with its line's kernel (a kernel that raises
marks its point ``domain_fail``), counts, and transposes column lines back
to the (axis1, axis2) grid.

:class:`RootLine` takes the level's values at its scan samples from its
caller, who computes them once per line (:func:`level_samples`, as the
Hamilton-Jacobi rows do) or once per solve from parts every line shares
(the pq solver's table of G' and phi'), and splits the samples into
monotone runs, so every target's brackets come from a bisection of each
run, with g = target - level(q) taken only at the two samples of each
crossing.  A line's level returns its exact slope beside its value from
the same evaluation, (level(q), level'(q)); the samples keep only the
level.  :func:`sweep` takes one such line per grid row and makes one call
per line, :meth:`RootLine.solve_row`, with the line's targets, its first
point's warm start and guess, and the axis's Hermite weights, each (point,
history length) entry built when a line first reads it
(:class:`_Weights`); the sweep keeps only column 0's continuation, a
Lagrange extrapolation of its roots, since a line's slope says nothing
about the next line.  The line walks its targets in one loop with its
state in locals, warm starting each point from the root before it and
feeding it a root predicted by Hermite extrapolation (degree 7) through
the line's last four roots and their exact derivatives d root / d target
= 1 / level'.  A bracket is a (lo, hi, g_lo, g_hi) tuple, and each goes
with the line's level to the float kernel :func:`hjgen.numerics._refine`,
which probes the predicted root and the Newton step from it, each with
the slope the probe itself returned, before Brent's method (Brent 1973)
finishes the bracket, if it must.  The root found, a probe's or Brent's,
is polished by one Newton step g / level' with its own evaluation's slope
and clamped into its enclosure, so the history the next prediction reads
is accurate to rounding, at no extra evaluation.  A target with one
bracket, as every point of the shipped configs has, returns the kernel's
root as is, and one with several goes to :func:`_nearest`.

The CSV kernels work on whole columns: :func:`write_field_csv` formats one
grid row at a time, and :func:`read_field_csv` checks bounded blocks of
rows column by column with :func:`_columns`, which holds every line rule;
the rows of a block that fails are checked one at a time to name its first
bad line.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import groupby
from typing import Optional

from .errors import ConfigError, ConvergenceError, DomainError
from .numerics import SolverConfig, _refine, scan_abscissae

__all__ = [
    "Status",
    "SolutionField",
    "ActionField",
    "check_axis",
    "sweep",
    "solve_grid",
    "RootLine",
    "level_samples",
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
    if not all(map(math.isfinite, axis)):
        raise ValueError("axis values must be finite")
    for a, b in zip(axis, axis[1:]):
        if not a < b:
            raise ValueError("axis values must be strictly increasing")
    return axis


class _Field2D:
    """Per-point roots, solution values and statuses over a rectangular grid.

    ``q`` and ``value`` hold a float exactly where the status is
    ``resolved`` or ``multi_root`` and ``None`` elsewhere.  Two fields of
    the same class are equal when all their attributes are.
    """

    def __init__(
        self,
        axis1: tuple[float, ...],
        axis2: tuple[float, ...],
        q: list[list[Optional[float]]],
        value: list[list[Optional[float]]],
        status: list[list[Status]],
    ):
        self.axis1 = axis1
        self.axis2 = axis2
        self.q = q
        self.value = value
        self.status = status

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.axis1), len(self.axis2)

    def has_value(self, i: int, j: int) -> bool:
        return self.value[i][j] is not None

    def resolved_fraction(self) -> float:
        n1, n2 = self.shape
        return sum(row.count(Status.RESOLVED) for row in self.status) / (n1 * n2)


class SolutionField(_Field2D):
    """Field for the first-order PDE solvers: axes (x, y), value u."""


class ActionField(_Field2D):
    """Field for the Hamilton-Jacobi solver: axes (x, t), value S, momentum p."""

    def __init__(self, axis1, axis2, q, value, status, p: list[list[Optional[float]]]):
        super().__init__(axis1, axis2, q, value, status)
        self.p = p


_HISTORY = 4  # roots a line's predictor extrapolates through


class _Weights(dict):
    """``weights[j, n]``: the weights at ``axis[j]`` through the n points
    ``axis[j - n : j]``, one (a, b) pair per point, built at first use.

    The polynomial through values y_k and derivatives y'_k at those points
    takes the value sum of a_k y_k + b_k y'_k at ``axis[j]``.  With
    ``hermite`` the weights are Hermite's, degree 2n - 1, with L_k the
    Lagrange basis polynomial of point c_k and x = ``axis[j]``:

        a_k = (1 - 2 L_k'(c_k) (x - c_k)) L_k(x)^2,   b_k = (x - c_k) L_k(x)^2;

    without it they are Lagrange's, a_k = L_k(x), degree n - 1, with b = 0.
    A sweep line's history is always its last n <= ``_HISTORY`` consecutive
    points, since a point without a root clears it, so the weights depend
    only on (j, n); a sweep reads almost only n = min(j, ``_HISTORY``), so
    each entry is built when a line first asks for it.
    """

    __slots__ = ("axis", "hermite")

    def __init__(self, axis, hermite: bool):
        super().__init__()
        self.axis = axis
        self.hermite = hermite

    def __missing__(self, key: tuple[int, int]) -> tuple[tuple[float, float], ...]:
        j, n = key
        coord, nodes = self.axis[j], self.axis[j - n : j]
        weights = []
        for k, ck in enumerate(nodes):
            basis = 1.0  # L_k(x)
            rate = 0.0  # L_k'(c_k)
            for m, cm in enumerate(nodes):
                if m != k:
                    basis *= (coord - cm) / (ck - cm)
                    rate += 1.0 / (ck - cm)
            if self.hermite:
                square = basis * basis
                weights.append(((1.0 - 2.0 * rate * (coord - ck)) * square, (coord - ck) * square))
            else:
                weights.append((basis, 0.0))
        self[key] = entry = tuple(weights)
        return entry


def _predict(history, weights) -> Optional[float]:
    """Extrapolate the earlier roots of a sweep line to the next point.

    ``history`` holds up to ``_HISTORY`` (root, d root / d target) pairs,
    oldest first, and ``weights`` their points' weights at the next one
    (:class:`_Weights`); the prediction is the Hermite polynomial through
    the roots and their derivatives, or the Lagrange one through the roots
    alone.  ``None`` without history.
    """
    if not history:
        return None
    guess = 0.0
    for (a, b), (root, rate) in zip(weights, history):
        guess += a * root + b * rate
    return guess


def _extend(history, root: Optional[float], slope: Optional[float]) -> None:
    """Append a root and d root / d target = 1 / ``slope``, the level's
    slope there, to a line's history, which keeps the last ``_HISTORY``."""
    # a point without a root and a usable slope breaks the line's continuation
    if root is None or slope is None or not 0.0 < abs(slope) < math.inf:
        history.clear()
        return
    history.append((root, 1.0 / slope))
    del history[:-_HISTORY]


def sweep(lines, axis1, axis2):
    """Row-major continuation sweep over the axis1 x axis2 grid, one call of
    :meth:`RootLine.solve_row` per grid row.

    ``lines[i]`` is row i's :class:`RootLine`, solved at every ``axis2``
    coordinate, or ``None``, which marks the row ``domain_fail``.  Each
    point is warm-started from the previous point of its line, first-column
    points from the point in the previous row, and the origin runs cold.
    Each line predicts its own roots by Hermite extrapolation along axis2;
    a first-column point's guess is the Lagrange extrapolation of column
    0's earlier roots, which has no slope along axis1, or ``None``.
    """
    n2 = len(axis2)
    weights1, weights2 = _Weights(axis1, False), _Weights(axis2, True)
    q, status = [], []  # the rows' roots and statuses
    column: list = []  # column 0's last points, as a line keeps them; b = 0 ignores the rates
    for i, line in enumerate(lines):
        if line is None:
            roots, statuses, slopes = [None] * n2, [Status.DOMAIN_FAIL] * n2, [None] * n2
        else:
            guess = _predict(column, weights1[i, len(column)])
            roots, statuses, slopes = line.solve_row(axis2, weights2, q[i - 1][0] if i else None, guess)
        q.append(roots)
        status.append(statuses)
        _extend(column, roots[0], slopes[0])
    return q, status


def solve_grid(problem, axis1, axis2, q_range: tuple[float, float], cfg: SolverConfig, stats=None):
    """The field of ``problem`` over the axis1 x axis2 grid, its roots in
    ``q_range``: one continuation sweep over the problem's grid lines.

    The lines are the axis1 rows, or the axis2 columns when
    ``problem.lines_are_columns``; ``problem.lines(line axis, q_lo, q_hi,
    cfg)`` gives each line as a (:class:`RootLine`, value kernel) pair, or
    ``None`` for a line that fails at every point, and a function that adds
    the family's own counts to a :class:`~hjgen.numerics.SolveStats`.  The
    sweep runs on the grid whose rows the lines are, so every root continues
    along its own line, and the kernel then takes each root's value as
    ``kernel(target, root)``; a kernel that raises :class:`DomainError` or
    :class:`ConvergenceError` makes its point ``domain_fail``.  Roots,
    values and statuses come back on the axis1 x axis2 grid, through
    ``problem.field(axis1, axis2, q, values, status)``.  Both axes must be
    finite and increasing, and the range finite with q_lo < q_hi.  Given a
    ``stats`` record, the solve adds its points, its lines' work, the
    family's counts and its points per status to it.
    """
    axis1, axis2 = check_axis(axis1), check_axis(axis2)
    q_lo, q_hi = q_range
    if not -math.inf < q_lo < q_hi < math.inf:
        raise ValueError("solve_grid requires q_lo < q_hi, both finite")
    columns = problem.lines_are_columns
    line_axis, targets = (axis2, axis1) if columns else (axis1, axis2)
    lines, count = problem.lines(line_axis, q_lo, q_hi, cfg)
    q, status = sweep([line and line[0] for line in lines], line_axis, targets)
    values: list[list] = [[None] * len(targets) for _ in lines]
    for line, q_row, value_row, status_row in zip(lines, q, values, status):
        if line is None:
            continue  # a domain failure at every point
        kernel = line[1]
        for j, target in enumerate(targets):
            if q_row[j] is None:
                continue
            try:
                value_row[j] = kernel(target, q_row[j])
            except (DomainError, ConvergenceError):
                q_row[j] = None
                status_row[j] = Status.DOMAIN_FAIL
    if stats is not None:
        n = len(targets)
        stats.points += len(lines) * n
        for line in filter(None, lines):
            stats.targets += n
            stats.probes += line[0].probes
            stats.landed += line[0].landed
            stats.brent += line[0].brent
            stats.refined += line[0].refined
        count(stats)
        for s in Status:
            stats.statuses[s.value] = stats.statuses.get(s.value, 0) + sum(row.count(s) for row in status)
    if columns:
        q, values, status = ([list(r) for r in zip(*grid)] for grid in (q, values, status))
    return problem.field(axis1, axis2, q, values, status)


def level_samples(level, lo: float, hi: float, cfg: SolverConfig) -> list[tuple[float, float]]:
    """(q, level(q)) at the ``cfg.scan_points + 1`` scan samples of [lo, hi],
    in order, a :class:`RootLine`'s samples; ``level`` returns the pair
    (level, level'), of which only the level is kept.  A sample whose level
    raises :class:`DomainError` or :class:`ConvergenceError`, or is NaN, is
    left out."""
    samples = []
    for q in scan_abscissae(lo, hi, cfg.scan_points):
        try:
            h = level(q)[0]
        except (DomainError, ConvergenceError):
            continue
        if h == h:
            samples.append((q, h))
    return samples


class RootLine:
    """One grid line's root condition, level(q) = target, inverted at many targets.

    ``level`` is the line's function of the root alone, returning the pair
    (level(q), level'(q)) from one evaluation, and a target's condition is
    g(q) = target - level(q), one subtraction.  ``samples``
    holds (q, level(q)) at the scan samples over ``scan_points`` equal
    intervals of [lo, hi], in order and without NaN levels, as
    :func:`level_samples` takes them; the caller computes them, so lines
    that share the level's parts can share their evaluation too.
    :meth:`solve_row` then solves the line's targets in one call, finding
    each target's brackets from the stored levels alone, so ``level`` runs
    only in the refinement; :meth:`solve` is that call on one target.
    Solving changes only the line's counts of its work: the level
    evaluations at predicted roots (``probes``) and in Brent's method
    (``brent``), the brackets refined (``refined``), and the points whose
    first probe landed on the root (``landed``).

    The levels are split into monotone runs (adjacent runs share their
    turning sample, and a flat step stays in the run it extends), and
    :meth:`brackets` finds a target's crossing of each run by bisection,
    so a target costs O(runs * log n) comparisons and two subtractions per
    bracket, not a subtraction per sample.
    """

    __slots__ = (
        "level", "lo", "hi", "cfg", "samples", "_runs", "_bounds",
        "probes", "landed", "brent", "refined",
    )

    def __init__(self, level, samples: list[tuple[float, float]], lo: float, hi: float, cfg: SolverConfig):
        if not lo < hi:
            raise ValueError("a root line requires lo < hi")
        self.level = level
        self.lo, self.hi, self.cfg = lo, hi, cfg
        self.probes = self.landed = self.brent = self.refined = 0
        self.samples = samples
        levels = [h for _, h in samples]
        self._runs = _monotone_runs(levels)
        self._bounds = (min(levels), max(levels)) if levels else None

    def brackets(self, target: float) -> list[tuple[float, float, float, float]]:
        """The (lo, hi, g_lo, g_hi) of each bracket of the finite ``target``,
        in order, by bisection over the monotone runs.

        A bracket is a pair of adjacent samples across which g changes
        sign.  A zero at a sample closes the pair on its left, or opens the
        line's first pair, so a root on the scan grid is reported once.

        The signs are exact.  With gradual underflow the computed t - h is
        zero only when t == h (D. Goldberg, "What every computer scientist
        should know about floating-point arithmetic", ACM Computing Surveys
        23, 1991), rounding keeps its sign, and it never increases as h
        grows, infinite h included.  So the target's insertion point splits
        each run into samples of one sign, then zeros, if the target equals
        some of its levels, then samples of the other sign, and the run's
        one bracket, if any, is the pair that ends at the insertion point.
        A run that starts on the target's level pairs its first zero only at
        the line's first sample, so a zero at a turning sample is paired
        once, by the run on its left.
        """
        samples = self.samples
        out = []
        for start, sign, keys in self._runs:
            key = sign * target
            i = bisect_left(keys, key)
            if i == 0 == start and bisect_right(keys, key) == 1:
                i = 1  # a zero at the line's first sample, and the next level differs
            if 0 < i < len(keys):
                (q1, h1), (q2, h2) = samples[start + i - 1], samples[start + i]
                out.append((q1, q2, target - h1, target - h2))
        return out

    def solve(self, target: float, warm: Optional[float] = None, guess=None):
        """Root and status at one target, and the level's slope at the root:
        :meth:`solve_row` on that one target, which reads no weights."""
        # the row's one (root, status, slope)
        return next(zip(*self.solve_row((target,), None, warm, guess)))

    def solve_row(self, targets, weights, warm: Optional[float] = None, guess=None):
        """Roots, statuses and the level's slopes at the roots at
        ``targets``, in order, as three lists.

        Each point is warm-started from the root before it, the first from
        ``warm``.  Several roots resolve to the one nearest the warm start
        (continuation) with status ``multi_root``; a g within ``resid_tol``
        of zero at every scan sample keeps the warm start (or the range
        midpoint when cold).  A line without samples, a non-finite target,
        and domain and convergence failures never raise, they mark the
        point ``domain_fail``.  A guess, a predicted root, only aims the
        probes that narrow the bracket holding the prediction, or land on
        its root, before Brent's method (:func:`hjgen.numerics._refine`).
        The first point takes ``guess``; each later one extrapolates the
        line's last n <= ``_HISTORY`` roots, and their derivatives
        d root / d target = 1 / level', with ``weights[j, n]``, the Hermite
        weights at target j (:class:`_Weights`), and a point without a root
        and a usable slope clears that history.  A slope is ``None`` when no
        bracket was refined, or when the root is a scan sample.
        """
        n = len(targets)
        roots, statuses, slopes = [None] * n, [Status.DOMAIN_FAIL] * n, [None] * n
        if self._bounds is None:
            return roots, statuses, slopes
        # the per-point names are locals, and the one-bracket call below
        # passes its bracket unpacked: a starred call took about 5% of a
        # linear_pq sweep
        cfg, level, brackets = self.cfg, self.level, self.brackets
        resid_tol, isfinite, resolved = cfg.resid_tol, math.isfinite, Status.RESOLVED
        h_min, h_max = self._bounds
        mid = 0.5 * (self.lo + self.hi)
        history: list = []  # (root, d root / d target) of the line's last points
        for j, target in enumerate(targets):
            if j:
                warm, guess = root, _predict(history, weights[j, len(history)])
            root = slope = None
            # a non-finite target meets neither test below, and fails
            if target - h_min <= resid_tol and target - h_max >= -resid_tol:
                root, statuses[j] = mid if warm is None else warm, Status.MULTI_ROOT
            elif isfinite(target):
                found = brackets(target)
                try:
                    if len(found) == 1:
                        lo, hi, g_lo, g_hi = found[0]
                        root, slope = _refine(level, target, lo, hi, g_lo, g_hi, guess, cfg, self)
                        statuses[j] = resolved
                    elif not found:
                        statuses[j] = Status.NO_ROOT
                    else:
                        found = [_refine(level, target, *br, guess, cfg, self) for br in found]
                        root, slope, statuses[j] = _nearest(found, mid if warm is None else warm, cfg)
                except (DomainError, ConvergenceError):
                    pass
            roots[j], slopes[j] = root, slope
            _extend(history, root, slope)
        return roots, statuses, slopes


def _nearest(found, ref: float, cfg: SolverConfig):
    """(root, slope, status) of a target with several refined brackets:
    ``found`` holds each bracket's (root, slope).  Roots within 10
    ``root_tol`` (1 + |root|) of the one before are one root; of several,
    the one nearest ``ref`` is ``multi_root``."""
    found.sort(key=lambda r: r[0])
    unique = [found[0]]
    for r in found[1:]:
        if abs(r[0] - unique[-1][0]) > 10.0 * cfg.root_tol * (1.0 + abs(unique[-1][0])):
            unique.append(r)
    root, slope = min(unique, key=lambda r: (abs(r[0] - ref), r[0]))
    return root, slope, Status.RESOLVED if len(unique) == 1 else Status.MULTI_ROOT


def _monotone_runs(levels) -> list[tuple[int, int, list[float]]]:
    """(first sample, sign, sign * level per sample) of each monotone run of ``levels``.

    The sign is -1 on a falling run and +1 otherwise, so each run's keys
    are sorted.  Adjacent runs share their turning sample, and a flat step
    stays in the run it extends.
    """
    bounds = []
    start, step = 0, 0
    for k in range(1, len(levels)):
        d = (levels[k] > levels[k - 1]) - (levels[k] < levels[k - 1])
        if d and step and d != step:
            bounds.append((start, k, step))
            start = k - 1
        step = d or step
    bounds.append((start, len(levels), step))
    return [
        (a, -1, [-h for h in levels[a:b]]) if d < 0 else (a, 1, levels[a:b])
        for a, b, d in bounds
    ]


_ACTION_HEADER = "x,t,q,S,p,status"
_SOLUTION_HEADER = "x,y,q,u,status"
_STATUS = {s.value: s for s in Status}
_PRESENT = frozenset((Status.RESOLVED.value, Status.MULTI_ROOT.value))
_BLOCK = 512  # rows parsed per block, which bounds the split strings held at once


def write_field_csv(field: _Field2D, path: str) -> None:
    """Write a field in the fixed CSV schema, floats at 17 significant digits.

    One grid row is formatted at a time, column by column, and joined into
    its lines.
    """
    is_action = isinstance(field, ActionField)
    n2 = len(field.axis2)
    axis2 = [format(v, ".17g") for v in field.axis2]
    grids = (field.q, field.value, field.p) if is_action else (field.q, field.value)
    chunks = [_ACTION_HEADER if is_action else _SOLUTION_HEADER]
    for i, x in enumerate(field.axis1):
        cols = [[format(x, ".17g")] * n2, axis2]
        cols += [["" if v is None else format(v, ".17g") for v in grid[i]] for grid in grids]
        cols.append(field.status[i])  # a Status is a str whose text is its value
        chunks.append("\n".join(map(",".join, zip(*cols))))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(chunks))
        fh.write("\n")


def read_field_csv(path: str):
    """Load a field CSV produced by :func:`write_field_csv`.

    Checks the schema, the presence rule (numeric cells filled exactly for
    resolved / multi_root rows), finite axis values, roots and momenta, and
    the row-major grid, in blocks of ``_BLOCK`` rows (:func:`_columns`).
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError("empty field file", 1)
    ncols = {_SOLUTION_HEADER: 5, _ACTION_HEADER: 6}.get(lines[0].strip())
    if ncols is None:
        raise ConfigError(f"unrecognized field header {lines[0].strip()!r}", 1)
    data = [raw for raw in lines[1:] if raw.strip()]
    if not data:
        raise ConfigError("field file has no data rows", 2)
    columns: list[list] = [[] for _ in range(ncols)]  # axis 1, axis 2, cells, status
    for start in range(0, len(data), _BLOCK):
        rows = [raw.split(",") for raw in data[start : start + _BLOCK]]
        try:
            block = _columns(rows, ncols)
        except ValueError:
            k, message = _first_bad_row(rows, ncols)
            raise ConfigError(message, _line_of(lines, start + k)) from None
        for column, part in zip(columns, block):
            column += part
    ax1, ax2 = _grid_axes(columns[0], columns[1], lines)
    n2 = len(ax2)
    q, value, *p, status = [[c[k : k + n2] for k in range(0, len(c), n2)] for c in columns[2:]]
    if p:
        return ActionField(ax1, ax2, q, value, status, *p)
    return SolutionField(ax1, ax2, q, value, status)


def _columns(rows, ncols: int) -> list[list]:
    """A block of split data lines as columns of floats (``None`` when
    empty) and statuses, or :class:`ValueError` at the first broken line rule
    in the order a line is read: column count, axis 1, axis 2, axis cells
    not empty, root, value, momentum, status, presence.
    """
    if set(map(len, rows)) != {ncols}:
        raise ValueError(f"expected {ncols} columns, found {len(rows[-1])}")
    cols = list(zip(*rows))
    axes = [_axis_floats(cols[0]), _axis_floats(cols[1])]
    try:
        out = [list(map(floats.__getitem__, col)) for floats, col in zip(axes, cols)]
    except KeyError:
        raise ValueError("axis cells must not be empty") from None
    out += [_cell_floats(col, what) for col, what in zip(cols[2:-1], ("root", "value", "momentum"))]
    try:
        out.append(list(map(_STATUS.__getitem__, cols[-1])))
    except KeyError:
        raise ValueError(f"unknown status {cols[-1][-1]!r}") from None
    # the usual case, every row present with both cells filled, is checked in C first
    full = _PRESENT.issuperset(cols[-1]) and "" not in cols[2] and "" not in cols[3]
    if not (full or list(map(_PRESENT.__contains__, cols[-1])) == list(map(all, zip(*cols[2:4])))):
        raise ValueError(f"cell presence inconsistent with status {cols[-1][-1]!r}")
    return out


def _axis_floats(col) -> dict[str, float]:
    # an axis column repeats a few distinct strings, so each nonempty one is parsed once
    texts = list(set(col).difference(("",)))
    return dict(zip(texts, _cell_floats(texts, "axis")))


def _cell_floats(col, what: str) -> list[Optional[float]]:
    try:
        floats = [float(c) if c else None for c in col]
    except ValueError:
        raise ValueError(f"bad {what} value {col[-1]!r}") from None
    # a filled cell other than a value is finite (filter drops None and zeros)
    if what != "value" and not all(map(math.isfinite, filter(None, floats))):
        raise ValueError(f"bad {what} value {col[-1]!r}")
    return floats


def _first_bad_row(rows, ncols: int) -> tuple[int, str]:
    """The index and message of the first of ``rows`` that breaks a line
    rule; every rule holds row by row, so each row is checked alone."""
    for k, row in enumerate(rows):
        try:
            _columns([row], ncols)
        except ValueError as err:
            return k, str(err)


def _line_of(lines, k: int) -> int:
    # the file line of data row k (from 0): the (k + 1)-th non-blank line after the header
    return [n for n, raw in enumerate(lines[1:], start=2) if raw.strip()][k]


def _grid_axes(a1, a2, lines) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The axes of the row-major grid the rows' axis values form, or
    :class:`ConfigError`: axis 1 holds ``a1``'s runs of equal values, axis 2
    the first len(a1) / len(axis 1) values of ``a2``, and both increase.
    """
    ax1 = [v for v, _ in groupby(a1)]
    n2, rest = divmod(len(a1), len(ax1))
    if rest:
        raise ConfigError("row count does not form a complete grid", len(lines))
    ax2 = a2[:n2]
    if not (all(map(operator.lt, ax1, ax1[1:])) and all(map(operator.lt, ax2, ax2[1:]))):
        # adjacent runs differ, so axis 1 fails to increase where a1 falls
        k = next(k for k in range(1, len(a1)) if a1[k] < a1[k - 1] or k < n2 and a2[k] <= a2[k - 1])
        raise ConfigError("axis values must be strictly increasing", _line_of(lines, k))
    want1, want2 = [v for v in ax1 for _ in range(n2)], ax2 * len(ax1)
    if a1 != want1 or a2 != want2:
        k = next(k for k, row in enumerate(zip(a1, a2, want1, want2)) if row[:2] != row[2:])
        raise ConfigError("rows are not in row-major grid order", _line_of(lines, k))
    return tuple(ax1), tuple(ax2)
