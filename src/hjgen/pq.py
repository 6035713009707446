"""General solutions of first-order PDEs via a Legendre-type transformation.

Writing p = u_x and q = u_y, every supported problem is one family.  On a
grid line with coordinate l, with s the other coordinate and r the root
variable, the solution is

    u = H(l) G(r) + s r - phi(r),   with the condition   H(l) G'(r) + s = phi'(r),

for an arbitrary user-chosen function phi; the condition picks r(x, y) for
each choice of phi.  The three kinds name l, H and G:

``explicit``
    p = f(q).  l = x, r = q and G = f: the ``scaled_x`` family with scale
    1, so H(x) = x/1 = x.
``scaled_x``
    f(x) p = G(q), i.e. p = G(q)/f(x).  l = x, r = q and H(x) = x/f(x).
``scaled_y``
    h(y) q = G(p).  l = y, r = p and H(y) = y/h(y): the mirror family
    u = x p + G(p) H(y) - phi(p), solved for p.

Differentiating u gives u_l = H'(l) G(r) and u_s = r, which is the PDE.
One global sign convention is used throughout: the constraint returned by
:func:`constraint` is exactly the partial derivative of
:func:`solution_value` with respect to the root variable, so solving it is
a stationarity condition and the PDE identities u_x, u_y follow wherever a
root is found.

The condition says s = phi'(r) - H(l) G'(r), a function of the root alone
on each grid line, so :func:`solve_grid` solves each grid line (each x row,
or each y column for scaled_y) as one :class:`~hjgen.fields.RootLine`
inverting that level, with H(l) evaluated once per line and the level
tabulated once per line at the scan samples; a point finds its brackets by
bisection over those levels and evaluates the level only to refine them.
The sweep walks each line in turn, so a root's warm start and prediction
come from the earlier roots of its own line, and the residual is built
once per line (:meth:`PQProblem.residual_line`);
:attr:`PQProblem.lines_are_columns` says which lines those are.  A root at
one point is a 1 x 1 :func:`solve_grid`.
"""

from __future__ import annotations

from typing import Optional

from . import expr
from .errors import DomainError
from .fields import RootLine, SolutionField, Status, _count_lines, _solve_inputs, sweep
from .numerics import SolverConfig, SolveStats

__all__ = ["KINDS", "PQProblem", "constraint", "solution_value", "solve_grid"]

KINDS = ("explicit", "scaled_x", "scaled_y")
_ONE = expr.Num(1.0)  # an explicit problem's scale: x/1 is x and H' folds to 1


class PQProblem:
    """One first-order PDE problem of the family u = H(l) G(r) + s r - phi(r);
    immutable once constructed.

    Use the :meth:`explicit`, :meth:`scaled_x` and :meth:`scaled_y`
    constructors.  H is the line coordinate over ``scale``; an explicit
    problem is the scaled_x one whose scale is the literal 1 and whose G is
    its f.  The root variable is ``q`` for explicit/scaled_x problems and
    ``p`` for scaled_y, whose lines are y columns.
    """

    def __init__(
        self,
        kind: str,
        scale: Optional[expr.Expression] = None,  # f(x) or h(y); 1 for explicit problems
        gfun: Optional[expr.Expression] = None,  # G(q) or G(p); f(q) for explicit problems
        phi: Optional[expr.Expression] = None,  # arbitrary function
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        if scale is None or gfun is None or phi is None:
            raise ValueError("problems require scale, gfun and phi")
        if kind == "explicit" and scale != _ONE:
            raise ValueError("explicit problems have scale 1")
        self.kind = kind
        self.scale = scale
        self.gfun = gfun
        self.phi = phi
        line, root = ("y", "p") if self.lines_are_columns else ("x", "q")
        ratio = expr.BinOp("/", expr.Var(line), self.scale)
        self._ratio_fn = expr.compile_function(ratio, (line,))
        self._ratiop_fn = expr.compile_function(expr.differentiate(ratio, line), (line,))
        self._g_fn = expr.compile_function(self.gfun, (root,))
        self._gp_fn = expr.compile_function(expr.differentiate(self.gfun, root), (root,))
        self._phi_fn = expr.compile_function(self.phi, (root,))
        self._phip_fn = expr.compile_function(expr.differentiate(self.phi, root), (root,))

    @property
    def lines_are_columns(self) -> bool:
        """Whether the grid lines are y columns (scaled_y), not x rows."""
        return self.kind == "scaled_y"

    @classmethod
    def explicit(cls, f, phi) -> "PQProblem":
        return cls("explicit", _ONE, expr.as_expr(f), expr.as_expr(phi))

    @classmethod
    def scaled_x(cls, scale, gfun, phi) -> "PQProblem":
        return cls("scaled_x", expr.as_expr(scale), expr.as_expr(gfun), expr.as_expr(phi))

    @classmethod
    def scaled_y(cls, scale, gfun, phi) -> "PQProblem":
        return cls("scaled_y", expr.as_expr(scale), expr.as_expr(gfun), expr.as_expr(phi))

    def residual_line(self, v: float):
        """The PDE residual u_l - H'(l) G(u_s) on the grid line at ``v`` (the
        x row, or the y column when :attr:`lines_are_columns`), as
        ``(d1, d2) -> r`` for partials d1 ~ u_x and d2 ~ u_y.

        H'(v) is evaluated here, once per line; a DomainError from it
        excludes the line.
        """
        g = self._g_fn
        h_slope = self._ratiop_fn(v)
        if self.lines_are_columns:
            return lambda d1, d2: d2 - h_slope * g(d1)
        return lambda d1, d2: d1 - h_slope * g(d2)


def _line_level(prob: PQProblem, h: float):
    """The level phi'(q) - h G'(q) of the line where H = ``h``, the target s
    at which q is a root, as a function of q; G' runs first."""
    g_slope, phi_slope = prob._gp_fn, prob._phip_fn

    def level(q):
        slope_term = h * g_slope(q)
        return phi_slope(q) - slope_term

    return level


def _value(prob: PQProblem, h: float, s: float, q: float) -> float:
    """u = H G(q) + s q - phi(q) on a line where H = ``h``."""
    return h * prob._g_fn(q) + s * q - prob._phi_fn(q)


def _line(prob: PQProblem, x: float, y: float):
    """(line coordinate, target) of the point (x, y)."""
    return (y, x) if prob.lines_are_columns else (x, y)


def constraint(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Root condition at (x, y); equals d(solution_value)/dq analytically.

    For scaled_y problems ``q`` is the momentum-like root variable p.
    """
    v, target = _line(prob, x, y)
    return target - _line_level(prob, prob._ratio_fn(v))(q)


def solution_value(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Solution value u at (x, y) for the root ``q`` (p for scaled_y)."""
    v, s = _line(prob, x, y)
    return _value(prob, prob._ratio_fn(v), s, q)


def _root_line(prob: PQProblem, v: float, q_lo: float, q_hi: float, cfg: SolverConfig):
    """(H(v), the :class:`~hjgen.fields.RootLine` of the line at ``v``), or
    ``None`` (a domain failure of every point of the line) when H raises."""
    try:
        h = prob._ratio_fn(v)
    except DomainError:
        return None
    return h, RootLine(_line_level(prob, h), q_lo, q_hi, cfg)


def solve_grid(
    prob: PQProblem,
    x_grid,
    y_grid,
    q_range: tuple[float, float],
    cfg: SolverConfig,
    stats: Optional[SolveStats] = None,
) -> SolutionField:
    """Continuation sweep over the grid, one :class:`~hjgen.fields.RootLine` per line.

    The lines are the x rows, or the y columns for scaled_y problems, and
    the sweep runs on the grid whose rows they are, (y, x) for scaled_y,
    so every root continues along its own line; q, u and the statuses come
    back on the (x, y) grid.  Each line's H and scan samples are computed
    once, before the sweep, and H serves both the condition and u.  A line
    where H raises is ``domain_fail`` at every point.  Given a
    :class:`~hjgen.numerics.SolveStats`, the solve adds its points and its
    lines' work to it.
    """
    xs, ys, q_lo, q_hi = _solve_inputs(x_grid, y_grid, q_range)
    axis1, axis2 = (ys, xs) if prob.lines_are_columns else (xs, ys)
    lines = [_root_line(prob, v, q_lo, q_hi, cfg) for v in axis1]
    root_lines = [line and line[1] for line in lines]
    q, status = sweep(root_lines, axis1, axis2)
    if stats is not None:
        _count_lines(stats, root_lines, len(axis2))
    value: list[list[Optional[float]]] = [[None] * len(axis2) for _ in axis1]
    for i, line in enumerate(lines):
        for j, s in enumerate(axis2):
            if q[i][j] is None:
                continue
            try:
                value[i][j] = _value(prob, line[0], s, q[i][j])
            except DomainError:
                q[i][j] = None
                status[i][j] = Status.DOMAIN_FAIL
    if prob.lines_are_columns:
        q, value, status = ([list(r) for r in zip(*grid)] for grid in (q, value, status))
    return SolutionField(xs, ys, q, value, status)
