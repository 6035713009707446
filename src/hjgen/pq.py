"""General solutions of first-order PDEs via a Legendre-type transformation.

Writing p = u_x and q = u_y, three problem kinds are supported, each with
an explicit derivative branch and an arbitrary user-chosen function phi:

``explicit``
    p = f(q).  Solution family u = x f(q) + y q - phi(q); the root
    condition x f'(q) + y = phi'(q) picks q(x, y) for each choice of phi.
``scaled_x``
    f(x) p = G(q), i.e. p = G(q)/f(x).  Family u = H(x) G(q) + y q - phi(q)
    with H(x) = x/f(x) and condition H(x) G'(q) + y = phi'(q).
``scaled_y``
    h(y) q = G(p).  Mirror family u = x p + G(p) H(y) - phi(p) with
    H(y) = y/h(y) and condition G'(p) H(y) + x = phi'(p), solved for p.

One global sign convention is used throughout: the constraint returned by
:func:`constraint` is exactly the partial derivative of
:func:`solution_value` with respect to the root variable, so solving it is
a stationarity condition and the PDE identities u_x, u_y follow wherever a
root is found.

Each condition is additive in one axis: explicit and scaled_x conditions
are h_x(q) + y, scaled_y conditions h_y(p) + x.  :func:`solve_grid`
therefore solves each x row (each y column for scaled_y) as one
:class:`~hjgen.fields.RootLine`, whose scan samples are computed once per
line; a point finds its brackets by bisection over the samples' t-free
levels and evaluates the condition only to refine them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import expr
from .errors import DomainError
from .fields import RootLine, SolutionField, Status, check_axis, sweep
from .numerics import SolverConfig

__all__ = ["KINDS", "PQProblem", "constraint", "solve_point", "solution_value", "solve_grid"]

KINDS = ("explicit", "scaled_x", "scaled_y")


@dataclass
class PQProblem:
    """One first-order PDE problem; immutable once constructed.

    Use the :meth:`explicit`, :meth:`scaled_x` and :meth:`scaled_y`
    constructors; fields irrelevant to a kind stay ``None``.  The root
    variable is ``q`` for explicit/scaled_x problems and ``p`` for scaled_y.
    """

    kind: str
    f_of_q: Optional[expr.Expression] = None  # explicit branch f(q)
    scale: Optional[expr.Expression] = None  # f(x) or h(y)
    gfun: Optional[expr.Expression] = None  # G(q) or G(p)
    phi: Optional[expr.Expression] = None  # arbitrary function
    _f_prime: expr.Expression = field(init=False, repr=False)
    _g_prime: expr.Expression = field(init=False, repr=False)
    _phi_prime: expr.Expression = field(init=False, repr=False)
    _ratio: expr.Expression = field(init=False, repr=False)  # H = axis/scale
    _ratio_prime: expr.Expression = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.phi is None:
            raise ValueError("phi is required")
        root = self.root_var
        if self.kind == "explicit":
            if self.f_of_q is None:
                raise ValueError("explicit problems require f_of_q")
            if self.scale is not None or self.gfun is not None:
                raise ValueError("explicit problems carry only f_of_q and phi")
            self._f_prime = expr.differentiate(self.f_of_q, "q")
            self._f_fn = expr.compile_function(self.f_of_q, ("q",))
            self._fp_fn = expr.compile_function(self._f_prime, ("q",))
        else:
            if self.scale is None or self.gfun is None:
                raise ValueError(f"{self.kind} problems require scale and gfun")
            if self.f_of_q is not None:
                raise ValueError(f"{self.kind} problems must not carry f_of_q")
            axis = "x" if self.kind == "scaled_x" else "y"
            self._ratio = expr.BinOp("/", expr.Var(axis), self.scale)
            self._ratio_prime = expr.differentiate(self._ratio, axis)
            self._g_prime = expr.differentiate(self.gfun, root)
            self._ratio_fn = expr.compile_function(self._ratio, (axis,))
            self._ratiop_fn = expr.compile_function(self._ratio_prime, (axis,))
            self._g_fn = expr.compile_function(self.gfun, (root,))
            self._gp_fn = expr.compile_function(self._g_prime, (root,))
        self._phi_prime = expr.differentiate(self.phi, root)
        self._phi_fn = expr.compile_function(self.phi, (root,))
        self._phip_fn = expr.compile_function(self._phi_prime, (root,))

    @property
    def root_var(self) -> str:
        return "p" if self.kind == "scaled_y" else "q"

    @classmethod
    def explicit(cls, f_of_q, phi) -> "PQProblem":
        return cls("explicit", f_of_q=expr.as_expr(f_of_q), phi=expr.as_expr(phi))

    @classmethod
    def scaled_x(cls, scale, gfun, phi) -> "PQProblem":
        return cls(
            "scaled_x", scale=expr.as_expr(scale), gfun=expr.as_expr(gfun), phi=expr.as_expr(phi)
        )

    @classmethod
    def scaled_y(cls, scale, gfun, phi) -> "PQProblem":
        return cls(
            "scaled_y", scale=expr.as_expr(scale), gfun=expr.as_expr(gfun), phi=expr.as_expr(phi)
        )

    def ratio_at(self, v: float) -> float:
        """H = x/f(x) (scaled_x) or y/h(y) (scaled_y); DomainError on zero scale."""
        return self._ratio_fn(v)

    def ratio_slope_at(self, v: float) -> float:
        return self._ratiop_fn(v)


def _line_terms(prob: PQProblem, v: float):
    """The t-free terms of the root condition on one grid line, as a function of q.

    The line is x = v (y = v for scaled_y problems); the other coordinate
    is the target that :func:`_combine` adds.
    """
    if prob.kind == "explicit":
        return lambda q: (v * prob._fp_fn(q), prob._phip_fn(q))
    if prob.kind == "scaled_x":
        return lambda q: (prob._ratio_fn(v) * prob._gp_fn(q), prob._phip_fn(q))
    return lambda q: (prob._gp_fn(q) * prob._ratio_fn(v), prob._phip_fn(q))


def _combine(terms, target: float) -> float:
    # the shipped operand order: slope term + target - phi'(q)
    slope_term, phi_slope = terms
    return slope_term + target - phi_slope


_SENSE = 1  # the target enters _combine added


def _line(prob: PQProblem, x: float, y: float):
    """(line coordinate, target) of the point (x, y)."""
    return (y, x) if prob.kind == "scaled_y" else (x, y)


def constraint(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Root condition at (x, y); equals d(solution_value)/dq analytically.

    For scaled_y problems ``q`` is the momentum-like root variable p.
    """
    v, target = _line(prob, x, y)
    return _combine(_line_terms(prob, v)(q), target)


def solution_value(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Solution value u at (x, y) for the root ``q`` (p for scaled_y)."""
    if prob.kind == "explicit":
        return x * prob._f_fn(q) + y * q - prob._phi_fn(q)
    if prob.kind == "scaled_x":
        return prob._ratio_fn(x) * prob._g_fn(q) + y * q - prob._phi_fn(q)
    return x * q + prob._g_fn(q) * prob._ratio_fn(y) - prob._phi_fn(q)


def solve_point(
    prob: PQProblem,
    x: float,
    y: float,
    q_lo: float,
    q_hi: float,
    cfg: SolverConfig,
    warm: Optional[float] = None,
):
    """Locate the constraint root at one grid point.

    Returns ``(root, status)`` from a one-target
    :class:`~hjgen.fields.RootLine`, without a continuation predictor.
    Several roots resolve to the one nearest ``warm`` (continuation) with
    status ``multi_root``; a constraint that vanishes identically over the
    scan keeps the warm value (or the range midpoint when cold).  Domain
    failures never raise, they mark the point.
    """
    if not q_lo < q_hi:
        raise ValueError("solve_point requires q_lo < q_hi")
    v, target = _line(prob, x, y)
    return RootLine(_line_terms(prob, v), _combine, _SENSE, q_lo, q_hi, cfg).solve(target, warm)[:2]


def solve_grid(
    prob: PQProblem,
    x_grid,
    y_grid,
    q_range: tuple[float, float],
    cfg: SolverConfig,
) -> SolutionField:
    """Continuation sweep over the grid, one :class:`~hjgen.fields.RootLine` per line.

    The lines are the x rows, or the y columns for scaled_y problems; each
    line's scan samples are computed once, before the sweep.
    """
    xs = check_axis(x_grid)
    ys = check_axis(y_grid)
    q_lo, q_hi = q_range
    by_column = prob.kind == "scaled_y"
    lines = [
        RootLine(_line_terms(prob, v), _combine, _SENSE, q_lo, q_hi, cfg)
        for v in (ys if by_column else xs)
    ]

    def point(i, j, warm, guess):
        if by_column:
            return lines[j].solve(xs[i], warm, guess)
        return lines[i].solve(ys[j], warm, guess)

    q, status = sweep(point, xs, ys)
    value: list[list[Optional[float]]] = [[None] * len(ys) for _ in xs]
    for i in range(len(xs)):
        for j in range(len(ys)):
            if q[i][j] is None:
                continue
            try:
                value[i][j] = solution_value(prob, xs[i], ys[j], q[i][j])
            except DomainError:
                q[i][j] = None
                status[i][j] = Status.DOMAIN_FAIL
    return SolutionField(xs, ys, q, value, status)
