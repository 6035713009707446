"""Finite-difference residual verification and oracle comparison.

Residuals difference the stored value field only, with centred stencils of
``2k + 1`` nodes per axis, ``k = min(3, (n - 1) // 2)``: sixth order on any
axis of at least 7 points, with weights from Fornberg's recursion (Math.
Comp. 51, 1988) so uneven axes work.  The band of ``k`` points along each
edge and points whose stencil meets a missing value are excluded.  A NaN
residual counts as infinite, so a field holding a NaN fails every gate.
On five of the six shipped configs ``max_abs`` is the stencil's truncation
error, not the solver's: it scales about as h**6 and does not move when the
solver tolerances tighten 100-fold (ROADMAP.md, open item 2).

The differences are taken a grid row at a time (:func:`_row_partials`),
summing each derivative node by node in the order a point-by-point sum
would, so every value is the same to the bit.  The residual itself comes
from the problem, one grid line at a time: its ``residual_line(v)``
evaluates the line's coefficients (a(x) and V(x) for Hamilton-Jacobi
fields, H'(v) for the first-order family) once and returns the per-point
residual, and its ``lines_are_columns`` says whether v is a column's y (a
scaled_y field) or a row's x.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, EmptyReportError

__all__ = ["ResidualReport", "finite_diff_partials", "residual_report", "compare_oracle"]


class ResidualReport(NamedTuple):
    max_abs: float
    mean_abs: float
    worst_point: tuple[int, int]
    resolved_fraction: float
    h_used: float


def _first_derivative_weights(z: float, nodes) -> tuple[float, ...]:
    """Weights w with sum(w[m] * f(nodes[m])) ~ f'(z), exact for polynomials
    of degree < len(nodes); Fornberg's recursion for arbitrary spacing."""
    n = len(nodes)
    c0 = [1.0] + [0.0] * (n - 1)  # interpolation weights at z
    c1 = [0.0] * n  # first-derivative weights at z
    prod = 1.0
    dz = nodes[0] - z
    for i in range(1, n):
        prod_prev, dz_prev = prod, dz
        dz = nodes[i] - z
        prod = 1.0
        for m in range(i):
            gap = nodes[i] - nodes[m]
            prod *= gap
            if m == i - 1:
                c1[i] = prod_prev * (c0[i - 1] - dz_prev * c1[i - 1]) / prod
                c0[i] = -prod_prev * dz_prev * c0[i - 1] / prod
            c1[m] = (dz * c1[m] - c0[m]) / gap
            c0[m] = dz * c0[m] / gap
    return tuple(c1)


def _axis_weights(axis, k: int) -> list:
    """Per index of ``axis``: centred (2k+1)-node weights, ``None`` in the edge band."""
    n = len(axis)
    return [
        _first_derivative_weights(axis[i], axis[i - k : i + k + 1]) if k <= i < n - k else None
        for i in range(n)
    ]


def _row_partials(value, i: int, w1, w2, lo: int, hi: int):
    """Centred differences (d1, d2) at columns lo..hi-1 of row i, as two lists.

    ``w1`` holds the axis-1 weights of row i (2k1 + 1 nodes), ``w2`` the
    axis-2 weights transposed: ``w2[m]`` lists node m's weight at every
    column.  Each derivative is summed node by node from 0.0, so every
    value equals the per-point sum in node order.  ``d1`` is ``None`` at a
    column whose stencil meets a missing value.
    """
    k1 = len(w1) // 2
    k2 = len(w2) // 2
    n = hi - lo
    cols = [r[lo:hi] for r in value[i - k1 : i + k1 + 1]]
    row = value[i][lo - k2 : hi + k2]
    holes = None in row or any(None in c for c in cols)
    if holes:
        dead = [None in c or None in row[j : j + 2 * k2 + 1] for j, c in enumerate(zip(*cols))]
        cols = [[0.0 if f is None else f for f in c] for c in cols]
        row = [0.0 if f is None else f for f in row]
    d1 = [0.0] * n
    for w, c in zip(w1, cols):
        d1 = [a + w * f for a, f in zip(d1, c)]
    d2 = [0.0] * n
    for m, ws in enumerate(w2):
        d2 = [a + w * f for a, w, f in zip(d2, ws, row[m : m + n])]
    if holes:
        d1 = [None if bad else d for d, bad in zip(d1, dead)]
    return d1, d2


def finite_diff_partials(field, i: int, j: int) -> Optional[tuple[float, float]]:
    """Three-point central-difference estimates of (d value/d axis1, d value/d axis2).

    Exact for quadratics on uneven axes.  Returns ``None`` (skip signal) at
    boundary points or when the point or any of its four axis neighbours
    carries no value.
    """
    n1, n2 = field.shape
    if not (0 < i < n1 - 1 and 0 < j < n2 - 1):
        return None
    w1 = _first_derivative_weights(field.axis1[i], field.axis1[i - 1 : i + 2])
    w2 = _first_derivative_weights(field.axis2[j], field.axis2[j - 1 : j + 2])
    d1, d2 = _row_partials(field.value, i, w1, [(w,) for w in w2], j, j + 1)
    return None if d1[0] is None else (d1[0], d2[0])


def residual_report(problem, field) -> ResidualReport:
    """PDE residual statistics over the interior value-bearing points.

    The residual is the problem's ``residual_line``: a(x) d1^2 + V(x) - d2
    for Hamilton-Jacobi fields and u_l - H'(l) G(u_s) for the first-order
    family (d1 - f(d2) when explicit); an object without it or without
    ``lines_are_columns`` is a :class:`TypeError`.  Each interior line's
    residual is built once.  d1 and d2 are the module's centred
    differences.  Besides the points the module excludes, a point where the
    residual raises a domain error is left out, and so is every point of a
    line whose coefficient raises.  ``worst_point`` is the first point of
    largest residual.  A field with no usable interior point, among them
    one with fewer than 3 points on an axis, raises
    :class:`~hjgen.errors.EmptyReportError`.
    """
    n1, n2 = field.shape
    if n1 < 3 or n2 < 3:
        raise EmptyReportError("residual_report needs at least 3 points per axis")
    try:
        line_fn, by_column = problem.residual_line, problem.lines_are_columns
    except AttributeError:
        raise TypeError(f"unsupported problem type {type(problem)!r}") from None

    def residual(v):
        try:
            return line_fn(v)
        except DomainError:
            return None

    k1 = min(3, (n1 - 1) // 2)
    k2 = min(3, (n2 - 1) // 2)
    weights1 = _axis_weights(field.axis1, k1)
    w2 = list(zip(*_axis_weights(field.axis2, k2)[k2 : n2 - k2]))
    if by_column:
        point_fns = [residual(y) for y in field.axis2[k2 : n2 - k2]]
    worst = (0, 0)
    max_abs = -1.0
    total = 0.0
    count = 0
    for i in range(k1, n1 - k1):
        if not by_column:
            point_fns = [residual(field.axis1[i])] * (n2 - 2 * k2)
        d1s, d2s = _row_partials(field.value, i, weights1[i], w2, k2, n2 - k2)
        for j, point_fn, d1, d2 in zip(range(k2, n2 - k2), point_fns, d1s, d2s):
            if d1 is None or point_fn is None:
                continue
            try:
                r = abs(point_fn(d1, d2))
            except DomainError:
                continue
            if r != r:
                r = math.inf
            count += 1
            total += r
            if r > max_abs:
                max_abs = r
                worst = (i, j)
    if count == 0:
        raise EmptyReportError("no usable interior point for a residual report")
    h_used = max(
        max(b - a for a, b in zip(field.axis1, field.axis1[1:])),
        max(b - a for a, b in zip(field.axis2, field.axis2[1:])),
    )
    return ResidualReport(
        max_abs=max_abs,
        mean_abs=total / count,
        worst_point=worst,
        resolved_fraction=field.resolved_fraction(),
        h_used=h_used,
    )


def compare_oracle(field, oracle: Callable[[float, float], float]) -> tuple[float, float]:
    """(max, mean) absolute deviation of the stored values from ``oracle``,
    a NaN deviation counting as infinite."""
    max_err = -1.0
    total = 0.0
    count = 0
    n1, n2 = field.shape
    for i in range(n1):
        for j in range(n2):
            if not field.has_value(i, j):
                continue
            err = abs(field.value[i][j] - oracle(field.axis1[i], field.axis2[j]))
            if err != err:
                err = math.inf
            count += 1
            total += err
            if err > max_err:
                max_err = err
    if count == 0:
        raise EmptyReportError("no value-bearing point to compare against the oracle")
    return max_err, total / count
