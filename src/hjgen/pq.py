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
on each grid line, and every line's level is the same two functions of r,
G' and phi', combined affinely in H.  So the lines a grid solve
(:func:`hjgen.fields.solve_grid`) gets from :meth:`PQProblem.lines` share
one table of (G', phi') at the scan samples, and each grid line (each x
row, or each y column for scaled_y, as
:attr:`PQProblem.lines_are_columns` says) is one
:class:`~hjgen.fields.RootLine` whose samples are phi' - H G' of that
table, with H(l) evaluated once per line; a point finds its brackets by
bisection over those levels and evaluates the level only to refine them.
Each evaluation is one frame of a kernel compiled from the fused
expression trees (:class:`PQProblem`): the table's (G', phi') pair, and
per point the level with its exact slope phi'' - H G'' (the root
finder's Newton steps, polish and Hermite prediction use it), the value u
and the residual, each bound once per line to H (the residual to H',
:meth:`PQProblem.residual_line`).  A root at one point is a 1 x 1 grid
solve.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from . import expr
from .errors import DomainError
from .fields import RootLine, SolutionField, solve_grid
from .numerics import SolverConfig, SolveStats, scan_abscissae

__all__ = ["KINDS", "PQProblem", "constraint", "solution_value", "solve_grid"]

KINDS = ("explicit", "scaled_x", "scaled_y")
_ONE = expr.Num(1.0)  # an explicit problem's scale: x/1 is x and H' is 1


def _unit(v: float) -> float:
    """H' of an explicit problem, whose H is x/1."""
    return 1.0

# The kernels' own variables: H (H' in the residual), the coordinate s and
# the partial u_l.  Each starts with a digit, as no parsed name does, so a G
# or phi that names a variable besides its root stays unbound.
_H, _S, _D = "0h", "0s", "0d"


class PQProblem:
    """One first-order PDE problem of the family u = H(l) G(r) + s r - phi(r);
    immutable once constructed.

    Use the :meth:`explicit`, :meth:`scaled_x` and :meth:`scaled_y`
    constructors.  H is the line coordinate over ``scale``; an explicit
    problem is the scaled_x one whose scale is the literal 1 and whose G is
    its f.  The root variable is ``q`` for explicit/scaled_x problems and
    ``p`` for scaled_y, whose lines are y columns.

    Construction compiles six functions with
    :func:`hjgen.expr.compile_function`: H and H' of the line coordinate,
    which an explicit problem binds instead to the identity and the
    constant 1 (x/1 is x exactly), and four kernels, each fused from the
    expression trees into one function, that take H (or H') first, so a
    line binds it once:

    ``_level_fn(h, r)``
        the line's level and its slope, the pair (phi'(r) - h G'(r),
        phi''(r) - h G''(r)), each built as -(h G) + phi, which rounds to
        the same bits and evaluates G first;
    ``_slopes_fn(r)``
        the pair (G'(r), phi'(r));
    ``_value_fn(h, s, r)``
        u = h G(r) + s r - phi(r);
    ``_residual_fn(h', d1, d2)``
        d1 - h' G(d2), or d2 - h' G(d1) for scaled_y.

    Each returns the bits, and raises the :class:`DomainError`, of its
    parts compiled one by one and called in turn, the first part's error
    first.
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
        compile_function, differentiate, BinOp, Var = (
            expr.compile_function, expr.differentiate, expr.BinOp, expr.Var
        )
        if kind == "explicit":
            self._ratio_fn, self._ratiop_fn = float, _unit
        else:
            ratio = BinOp("/", Var(line), self.scale)
            self._ratio_fn = compile_function(ratio, (line,))
            self._ratiop_fn = compile_function(differentiate(ratio, line), (line,))
        g_slope = differentiate(self.gfun, root)
        phi_slope = differentiate(self.phi, root)

        def level(g, phi):  # phi - h g, evaluating g first
            return BinOp("+", expr.Neg(BinOp("*", Var(_H), g)), phi)

        level_slope = level(differentiate(g_slope, root), differentiate(phi_slope, root))
        # a BinOp's operator is written between its operands, and Python
        # reads "a , b" as the tuple of the two
        self._level_fn = compile_function(BinOp(",", level(g_slope, phi_slope), level_slope), (_H, root))
        self._slopes_fn = compile_function(BinOp(",", g_slope, phi_slope), (root,))
        scaled_g = BinOp("*", Var(_H), self.gfun)
        value = BinOp("-", BinOp("+", scaled_g, BinOp("*", Var(_S), Var(root))), self.phi)
        self._value_fn = compile_function(value, (_H, _S, root))
        # d1 ~ u_x and d2 ~ u_y: u_l is d2 on a y column
        partials = (root, _D) if self.lines_are_columns else (_D, root)
        self._residual_fn = compile_function(BinOp("-", Var(_D), scaled_g), (_H, *partials))

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

        H'(v) is evaluated here, once per line, and bound into the residual
        kernel; a DomainError from it excludes the line.
        """
        return partial(self._residual_fn, self._ratiop_fn(v))

    def lines(self, axis, q_lo: float, q_hi: float, cfg: SolverConfig):
        """(lines, count) of a grid solve (:func:`hjgen.fields.solve_grid`):
        per coordinate v of the line axis ``axis``, the line's
        :class:`~hjgen.fields.RootLine` and value kernel (s, r) -> u, both
        bound to H(v), or ``None`` (a domain failure of every point of the
        line) where H raises.  The lines' samples come from one scan table
        of G' and phi', built at the first line whose H evaluates, and
        ``count(stats)`` adds its ``scan_points + 1`` evaluations as the
        scan."""
        level, table, lines = self._level_fn, None, []
        for v in axis:
            try:
                h = self._ratio_fn(v)
            except DomainError:
                lines.append(None)
                continue
            if table is None:
                table = _scan_table(self, q_lo, q_hi, cfg)
            line = RootLine(partial(level, h), _line_samples(table, h), q_lo, q_hi, cfg)
            lines.append((line, partial(self._value_fn, h)))
        scan = 0 if table is None else cfg.scan_points + 1

        def count(stats: SolveStats) -> None:
            stats.scan += scan

        return lines, count

    field = SolutionField  # a grid solve's values are the u at its roots


def _line(prob: PQProblem, x: float, y: float):
    """(line coordinate, target) of the point (x, y)."""
    return (y, x) if prob.lines_are_columns else (x, y)


def constraint(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Root condition at (x, y); equals d(solution_value)/dq analytically.

    For scaled_y problems ``q`` is the momentum-like root variable p.
    """
    v, target = _line(prob, x, y)
    return target - prob._level_fn(prob._ratio_fn(v), q)[0]


def solution_value(prob: PQProblem, x: float, y: float, q: float) -> float:
    """Solution value u at (x, y) for the root ``q`` (p for scaled_y)."""
    v, s = _line(prob, x, y)
    return prob._value_fn(prob._ratio_fn(v), s, q)


def _scan_table(prob: PQProblem, q_lo: float, q_hi: float, cfg: SolverConfig):
    """(q, G'(q), phi'(q)) at the scan samples of [q_lo, q_hi], in order; a
    sample where G' or phi' raises is left out."""
    slopes, table = prob._slopes_fn, []
    for q in scan_abscissae(q_lo, q_hi, cfg.scan_points):
        try:
            table.append((q, *slopes(q)))
        except DomainError:
            continue
    return table


def _line_samples(table, h: float) -> list[tuple[float, float]]:
    """The samples (q, phi'(q) - h G'(q)) of the line where H = ``h``, from
    the problem's scan table, without NaN levels (a 0 * inf slope term)."""
    samples = [(q, phi_slope - h * g_slope) for q, g_slope, phi_slope in table]
    return [sample for sample in samples if sample[1] == sample[1]]
