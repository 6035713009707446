"""General solutions S(x, t) of the 1-D Hamilton-Jacobi equation.

The equation is a(x) p^2 + V(x) - q = 0 with p = S_x and q = S_t.  Solving
for the momentum branch p(x, q) = sigma sqrt((q - V(x))/a(x)) and applying
a Legendre-type transformation yields the family

    S = x p(x, q) + q t - F(x, q),
    F(x, q) = integral of x' dp/dx(x', q) from x0 to x  +  G(q),

with an arbitrary generating function G.  Requiring dF/dq to match the
transform (equivalently, dS/dq = 0) produces an algebraic condition that
fixes q(x, t) for each choice of G; :func:`constraint` evaluates it in an
integration-by-parts form that only ever integrates dp/dq:

    g(q; x, t) = G'(q) - t - integral of dp/dq(x', q) dx' - x0 dp/dq(x0, q).

Points are admissible when q - V(x') stays above a configurable margin
along the whole quadrature segment; the branch sign sigma is global and
never switched at turning points.  Setting dq = 0 instead gives the
separation-of-variables solution :func:`separation_action`,
S = integral of sqrt((E - V)/a) from x0 to x plus E t, in which t enters
only through E t.

Time enters g only additively, and the clipped scan range depends on x
alone, so on each x row g = 0 says t = t_at(q), a function of q alone
(:meth:`_RowTable.t_at`), and the row is one
:class:`~hjgen.fields.RootLine` inverting it at every t of the row
(:meth:`HJProblem.lines` gives the rows to the grid solve,
:func:`hjgen.fields.solve_grid`): the line tabulates t_at at the row's
scan samples once, each point finds its brackets by bisection over those
levels, and t_at runs again only to refine a bracket.  t_at returns its
exact slope in q beside t from the same pass: G''(q), plus half the
quadrature of c / (r z), z = q - V and r = sqrt(z), summed beside c / r
on the same nodes, plus the x0 term's derivative.  The refinement probes
a root extrapolated from the row's earlier roots along t, by Hermite
extrapolation through those roots and their slopes 1 / t_at'; the
Newton step from that probe, with the slope the probe returned, usually
lands on the root if the probe did not, and Brent's method finishes only
when it does not.  The shipped configs take 2.39 (``free_particle``) and
1.57 (``harmonic``) quadratures per point, the scan's included; the rows
and lines count them (:class:`~hjgen.numerics.SolveStats`).

The action at a root is taken by parts: integrating x' dp/dx' in F gives
the complete-integral form (Courant & Hilbert, *Methods of Mathematical
Physics*, vol. II, ch. II)

    S = x0 p(x0, q) + integral of p(x', q) dx' + q t - G(q).

Both integrals over [x0, x], of dp/dq and of p, have the integrands
c / sqrt(q - V) and 2 c sqrt(q - V) with c = sigma w / (2 sqrt(a)) at a
node of weight w, so each x row keeps node tables of c and V
(:class:`_RowTable`), the one kernel of the solve.  A quadrature at any q
first sums the row's nested Clenshaw-Curtis table (Clenshaw & Curtis,
*Numer. Math.* 2, 1960) of orders 8 and 16 in one plain loop, and of
order 32 when those do not agree; where q is clear of the row's turning
point the integrands are analytic on the segment, and these orders
converge (Trefethen, *SIAM Rev.* 50, 2008, compares the two rules).  Any
other outcome falls back to nested tanh-sinh (Takahasi & Mori, 1974; see
:mod:`hjgen.numerics`), whose nodes crowd toward the segment's ends, where
dp/dq has its inverse-square-root layer near a turning point: the loop of
:func:`hjgen.numerics.integrate_adaptive` walks the whole segment's
levels, one weighted sum of the row's level table each, and only a
segment not converged by level 6 goes on to halved panels.  On
``harmonic`` 0.7% of the dp/dq quadratures fall back, and
``free_particle``'s flat V merges each order to one term.  Each row's
value kernel (:func:`_action`) takes a root's S and p in one pass: one
admissibility margin serves x0 p(x0, q), the integral of p (one
quadrature of the row's table) and p(x, q), from a and V at x, taken
once per row.  The separated integral is sigma times the integral of p
at q = E; that integral is t-free, so the table keeps it per q for
:func:`separation_action`, whose calls repeat q.  The calls at one point
(:func:`constraint`, :func:`action_value` and :func:`separation_action`)
keep the problem's last table (:func:`_row_table`) for the next call on
the same x and tolerance; a root at one point is a 1 x 1 grid solve.  A
quadrature that does not converge marks its point ``domain_fail``, like
a domain error.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Optional

from . import expr
from .errors import ConvergenceError, DomainError
from .fields import ActionField, RootLine, level_samples, solve_grid
from .numerics import (
    _CC16,
    _CC32,
    _FAILED,
    SolverConfig,
    SolveStats,
    _nested,
    clenshaw_curtis_nodes,
    integrate_adaptive,
    scan_abscissae,
    tanh_sinh_nodes,
)

__all__ = [
    "HJProblem",
    "momentum",
    "momentum_partials",
    "correction_integrand",
    "correction_term",
    "constraint",
    "action_value",
    "solve_grid",
    "separation_action",
]


class HJProblem:
    """One Hamilton-Jacobi problem.  Its fields do not change after
    construction; it caches a and V at x0 (``_x0_coefficients``) and its
    last row table (``_last_row``).

    kinetic   -- a(x), must be positive wherever evaluated
    potential -- V(x)
    generator -- the arbitrary function G(q)
    sigma     -- momentum branch sign, +1 or -1
    x0        -- base point of the running quadrature
    eps_adm   -- admissibility margin on q - V; when ``None`` a relative
                 default 1e-9 * (1 + |q|) applies
    """

    def __init__(
        self,
        kinetic: expr.Expression,
        potential: expr.Expression,
        generator: expr.Expression,
        sigma: int = 1,
        x0: float = 0.0,
        eps_adm: Optional[float] = None,
    ):
        self.kinetic = expr.as_expr(kinetic)
        self.potential = expr.as_expr(potential)
        self.generator = expr.as_expr(generator)
        if sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if not math.isfinite(x0):
            raise ValueError("x0 must be finite")
        if eps_adm is not None and not 0 < eps_adm < math.inf:
            raise ValueError("eps_adm must be positive and finite")
        self.sigma = sigma
        self.x0 = x0
        self.eps_adm = eps_adm
        # compiled closures for the quadrature / root-scan hot loops
        self._a_fn = expr.compile_function(self.kinetic, ("x",))
        self._v_fn = expr.compile_function(self.potential, ("x",))
        self._ap_fn = expr.compile_function(expr.differentiate(self.kinetic, "x"), ("x",))
        self._vp_fn = expr.compile_function(expr.differentiate(self.potential, "x"), ("x",))
        self._g_fn = expr.compile_function(self.generator, ("q",))
        # (G', G'') in one frame, as the level and its slope need them
        g_slope = expr.differentiate(self.generator, "q")
        g_slopes = expr.BinOp(",", g_slope, expr.differentiate(g_slope, "q"))
        self._g_slopes_fn = expr.compile_function(g_slopes, ("q",))
        self._x0_coefficients: Optional[tuple[float, float]] = None
        self._last_row: Optional[_RowTable] = None  # see _row_table

    def margin(self, q: float) -> float:
        if self.eps_adm is not None:
            return self.eps_adm
        return 1e-9 * (1.0 + abs(q))

    lines_are_columns = False  # the grid lines are x rows

    def residual_line(self, x: float):
        """The PDE residual a(x) d1^2 + V(x) - d2 on the x row, as
        ``(d1, d2) -> r`` for partials d1 ~ S_x and d2 ~ S_t; a(x) and
        V(x) are evaluated here, once."""
        a = self._a_fn(x)
        v = self._v_fn(x)
        return lambda d1, d2: a * d1 * d1 + v - d2

    def lines(self, xs, q_lo: float, q_hi: float, cfg: SolverConfig):
        """(lines, count) of a grid solve (:func:`hjgen.fields.solve_grid`)
        over the x rows ``xs``.

        Each row gets a :class:`_RowTable`, and its line is the row's
        :func:`_root_line` with the value kernel (t, q) -> (S, p) of
        :func:`_action`, or ``None`` where the row has no root line.
        ``count(stats)`` adds the ``scan_points + 1`` scan samples of each
        row with a line and every row table's quadratures.
        """
        rows = [_RowTable(self, x, cfg.quad_tol) for x in xs]
        lines = []
        for row in rows:
            line = _root_line(row, q_lo, q_hi, cfg)
            lines.append(None if line is None else (line, partial(_action, row, True)))

        def count(stats: SolveStats) -> None:
            stats.scan += (len(lines) - lines.count(None)) * (cfg.scan_points + 1)
            for row in rows:
                row.add_counts(stats)

        return lines, count

    def field(self, xs, ts, q, values, status) -> ActionField:
        """The :class:`~hjgen.fields.ActionField` of a grid solve whose
        values are (S, p) pairs, or ``None`` where no value was taken."""
        value = [[v and v[0] for v in row] for row in values]
        p = [[v and v[1] for v in row] for row in values]
        return ActionField(xs, ts, q, value, status, p)


def _coefficients(prob: HJProblem, x: float):
    """a and V at one abscissa; a must be positive and both finite."""
    a = prob._a_fn(x)
    if not 0.0 < a < math.inf:
        raise DomainError(f"kinetic coefficient {a!r} is not positive and finite", where=x)
    v = prob._v_fn(x)
    if not math.isfinite(v):
        raise DomainError(f"potential {v!r} is not finite", where=x)
    return a, v


def _gap(v: float, x: float, q: float, margin: float) -> float:
    """q - V for V = V(x), once it clears the admissibility ``margin``."""
    gap = q - v
    if gap < margin:
        raise DomainError("momentum argument below admissibility margin", where=x)
    return gap


def momentum(prob: HJProblem, x: float, q: float) -> float:
    """p(x, q) = sigma * sqrt((q - V(x)) / a(x))."""
    a, v = _coefficients(prob, x)
    return prob.sigma * math.sqrt(_gap(v, x, q, prob.margin(q)) / a)


def momentum_partials(prob: HJProblem, x: float, q: float) -> tuple[float, float]:
    """Partial derivatives (dp/dx, dp/dq) of the momentum branch at fixed q.

    dp/dq = sigma / (2 sqrt(a (q - V)))
    dp/dx = sigma (a'V - aV' - q a') / (2 a sqrt(a (q - V)))

    with a' and V' taken symbolically, so accuracy is limited only by the
    caller's quadrature / root tolerances.
    """
    a, v = _coefficients(prob, x)
    gap = _gap(v, x, q, prob.margin(q))
    a_p = prob._ap_fn(x)
    v_p = prob._vp_fn(x)
    root = math.sqrt(a * gap)
    dp_dq = prob.sigma / (2.0 * root)
    dp_dx = prob.sigma * (a_p * v - a * v_p - q * a_p) / (2.0 * a * root)
    return dp_dx, dp_dq


def _base_coefficients(prob: HJProblem) -> tuple[float, float]:
    """a and V at x0, computed on first use and kept for the problem.

    A failure is not kept: its :class:`DomainError` is raised again at
    every use, when a constraint is evaluated, never at construction.  The
    per-root callers read the kept pair first and call this on a miss.
    """
    coefficients = prob._x0_coefficients
    if coefficients is None:
        coefficients = prob._x0_coefficients = _coefficients(prob, prob.x0)
    return coefficients


def correction_integrand(prob: HJProblem, x: float, q: float) -> float:
    """x-weighted momentum slope x * dp/dx; the running integrand of F."""
    return x * momentum_partials(prob, x, q)[0]


# Clenshaw-Curtis is tried only where q - max V is at least this share of
# V's range over the row: nearer a turning point the nested estimates
# converge slowly and can agree by chance (an oscillator row's integral of
# p stopped at n = 16 with error 1.3e-10 at tol 1e-10 and a share of 0.007)
_TURNING_CLEARANCE = 0.3
# the table of a row where a node raised: no q clears its max V
_NO_TABLE = (math.inf, math.inf, (), ())


class _RowTable:
    """Quadrature node data of one x row's segment [x0, x], for quadratures
    to the absolute tolerance ``tol``.

    A quadrature tries the row's Clenshaw-Curtis table first.  Built on
    the row's first quadrature, it holds a and V at the 33 Chebyshev points
    of order n = 32, the segment's ends among them.  One pass over the 17
    points of n = 16 sums the estimates I_8 and I_16; I_16 is returned when
    |I_16 - I_8| <= tol, else I_32 when |I_32 - I_16| <= tol.  Every other
    outcome falls back to nested tanh-sinh, whose nodes crowd toward the
    segment's ends and never reach them: a node where a or V raises; q
    below the table's max V plus the admissibility margin, or plus
    ``_TURNING_CLEARANCE`` times V's range over the table (a turning point
    near the segment); a non-finite sum; or no convergence by n = 32.  So
    every error a quadrature raises is the tanh-sinh path's, and a
    :class:`DomainError` of the margin names the max-V node of that path's
    first level below it.

    The tanh-sinh panels are the whole segment and the halves of a panel
    not converged by level 6 that a fallback reached.  A panel gets its
    list of levels on its first visit, each level appended on first use
    and then serving every q of the row, so a row no fallback reached has
    no panel; :func:`hjgen.numerics._nested` runs the levels and the
    halving.

    Every table holds terms (V, c) with c = sigma w / (2 sqrt(a)) at a node
    of weight w: the dp/dq integral sums c / sqrt(q - V) and the integral
    of p sums 2 c sqrt(q - V).  Nodes with equal V are merged by summing
    their coefficients, which is exact; a flat potential leaves one term
    per table.  Admissibility is checked once per table against its
    largest V.  The action is taken by parts, so no table holds F's
    integrand, and only a and V are evaluated.  Each quadrature adds one to
    ``quads``, in the slot of how it ended.  A fallback that returns adds
    the merged tanh-sinh terms it summed, counted as it sums them; the
    Clenshaw-Curtis terms of the quadratures that stopped on the table are
    the slot counts times the table's sizes.  :meth:`add_counts` reports
    all of them to a :class:`~hjgen.numerics.SolveStats`.
    """

    __slots__ = ("prob", "x", "tol", "lo", "hi", "sign", "_chebyshev", "_panels", "_momentum",
                 "quads", "_fallback_terms", "_tanh_sinh_terms", "_x_coefficients")

    def __init__(self, prob: HJProblem, x: float, tol: float):
        self.prob = prob
        self.x = x
        self.tol = tol
        self.lo, self.hi = min(prob.x0, x), max(prob.x0, x)
        self.sign = 1.0 if x >= prob.x0 else -1.0
        self._chebyshev = None  # see _clenshaw_curtis
        # each visited panel's tanh-sinh levels by (lo, hi), as
        # [(max V, its abscissa, merged terms) per level]
        self._panels: dict = {}
        self._momentum: dict = {}  # q -> momentum integral
        # quadratures of p and of dp/dq, indexed by the slope flag, in the
        # slots of SolveStats.dpdq_quads
        self.quads = ([0] * (_CC32 + 1), [0] * (_CC32 + 1))
        self._fallback_terms = [0, 0]  # Clenshaw-Curtis terms the fallbacks summed
        self._tanh_sinh_terms = [0, 0]  # merged terms the returned fallbacks summed
        self._x_coefficients: Optional[tuple[float, float]] = None  # a and V at x, see _action

    def t_at(self, q: float) -> tuple[float, float]:
        """The t at which q is a root, G'(q) - integral of dp/dq - x0 dp/dq(x0, q),
        and its slope in q from the same pass: G''(q), plus half the
        integral from x0 to x of sigma (q - V)^(-3/2) / (2 sqrt(a)), plus
        x0 dp/dq(x0, q) / (2 (q - V(x0))), the x0 term's derivative."""
        prob = self.prob
        g_slope, g_curve = prob._g_slopes_fn(q)
        margin = prob.margin(q)
        integral, derivative = self._integral(q, margin, True)
        a, v = prob._x0_coefficients or _base_coefficients(prob)
        gap = q - v
        if gap < margin:
            raise DomainError("momentum argument below admissibility margin", where=prob.x0)
        base = prob.x0 * (prob.sigma / (2.0 * math.sqrt(a * gap)))
        return g_slope - integral - base, g_curve + 0.5 * derivative + base / (2.0 * gap)

    def momentum_integral(self, q: float) -> float:
        """Integral of p(s, q) over s from x0 to x.

        It does not depend on t, so the value is kept per q and every later
        call for it returns it without a quadrature.
        """
        value = self._momentum.get(q)
        if value is None:
            value = self._momentum[q] = self._integral(q, self.prob.margin(q), False)
        return value

    def _integral(self, q: float, margin: float, slope: bool):
        """The integral of p, or with ``slope`` the pair of the integral of
        dp/dq and the sum its q-derivative takes, with z = q - V and
        r = sqrt(z), the quadrature of c / (r z) beside that of c / r on the
        same nodes, which the stop rule does not see."""
        # Clenshaw-Curtis on the row's table, each order's terms added left
        # to right from 0.0; then, on any failure, the tanh-sinh path
        if self.lo == self.hi:
            return (0.0, 0.0) if slope else 0.0
        table = self._chebyshev
        if table is None:
            table = self._chebyshev = self._clenshaw_curtis()
        summed = 0  # the Clenshaw-Curtis terms summed before a fallback
        vmax, clearance, coarse, fine = table
        gap = q - vmax
        if gap >= margin and gap >= clearance:
            sqrt, sign = math.sqrt, self.sign
            i8 = i16 = d = 0.0
            if slope:
                for v, c8, c16 in coarse:
                    z = q - v
                    r = sqrt(z)
                    i8 += c8 / r
                    u = c16 / r
                    i16 += u
                    d += u / z
            else:
                for v, c8, c16 in coarse:
                    r = sqrt(q - v)
                    i8 += c8 * r
                    i16 += c16 * r
                i8 *= 2.0
                i16 *= 2.0
            # a non-finite sum never meets either stop test
            if abs(i16 - i8) <= self.tol:
                self.quads[slope][_CC16] += 1
                return (sign * i16, sign * d) if slope else sign * i16
            i32 = d = 0.0
            if slope:
                for v, c in fine:
                    z = q - v
                    u = c / sqrt(z)
                    i32 += u
                    d += u / z
            else:
                for v, c in fine:
                    i32 += c * sqrt(q - v)
                i32 *= 2.0
            if abs(i32 - i16) <= self.tol:
                self.quads[slope][_CC32] += 1
                return (sign * i32, sign * d) if slope else sign * i32
            summed = len(coarse) + len(fine)
        value = self._tanh_sinh(q, margin, slope)
        self._fallback_terms[slope] += summed
        return value

    def _tanh_sinh(self, q: float, margin: float, slope: bool):
        # nested tanh-sinh (numerics._nested) over the panels' level lists,
        # each panel's list made on its first visit; a level's terms are
        # added left to right from 0.0, and with ``slope`` the sum of
        # c / (r z) is carried beside that of c / r, as in _integral
        sqrt, panels, build = math.sqrt, self._panels, self._level
        summed = 0  # merged terms of every level summed

        def level_sum(a, b, level):
            nonlocal summed
            levels = panels.setdefault((a, b), [])
            if level == len(levels):
                levels.append(build(a, b, level))
            vmax, where, terms = levels[level]
            if q - vmax < margin:
                raise DomainError("momentum argument below admissibility margin", where=where)
            part = d = 0.0
            if slope:
                for v, c in terms:
                    z = q - v
                    u = c / sqrt(z)
                    part += u
                    d += u / z
            else:
                for v, c in terms:
                    part += c * sqrt(q - v)
                part *= 2.0
                if not math.isfinite(part):
                    raise DomainError("non-finite integrand value", where=where)
            summed += len(terms)
            return part, d

        try:
            value, d, stop = _nested(level_sum, self.lo, self.hi, self.tol)
        except (DomainError, ConvergenceError):
            self.quads[slope][_FAILED] += 1
            raise
        self.quads[slope][stop] += 1
        self._tanh_sinh_terms[slope] += summed
        return (self.sign * value, self.sign * d) if slope else self.sign * value

    def add_counts(self, stats: SolveStats) -> None:
        """Add the table's quadratures, and the merged terms of each rule
        those that returned summed, to ``stats``."""
        # one that stopped at n = 16 or n = 32 summed the Clenshaw-Curtis
        # terms of n = 16, or of both orders
        _, _, coarse, fine = self._chebyshev or _NO_TABLE
        coarse = len(coarse)
        fine = coarse + len(fine)
        p_cc, dpdq_cc = (
            fallback + quads[_CC16] * coarse + quads[_CC32] * fine
            for quads, fallback in zip(self.quads, self._fallback_terms)
        )
        stats.p_terms += self._tanh_sinh_terms[0]
        stats.dpdq_terms += self._tanh_sinh_terms[1]
        stats.p_cc_terms += p_cc
        stats.dpdq_cc_terms += dpdq_cc
        for into, quads in zip((stats.p_quads, stats.dpdq_quads), self.quads):
            into[:] = map(operator.add, into, quads)

    def _clenshaw_curtis(self):
        """The row's Clenshaw-Curtis table, or ``_NO_TABLE`` when a or V
        raises at one of its 33 points.

        The table is (max V, clearance, terms of n = 16, terms of n = 32),
        the extremes of V taken over all 33 points.  The first terms are
        (V, c8, c16) of the 17 points of n = 16, with c8 = 0 at those that
        n = 8 lacks, and the second (V, c32); equal V are merged in each, in
        node order from x0's side.
        """
        prob = self.prob
        sqrt = math.sqrt
        nodes = clenshaw_curtis_nodes(self.lo, self.hi, 32)
        try:
            coefficients = [_coefficients(prob, s) for s, _ in nodes]
        except DomainError:
            return _NO_TABLE
        w16 = [w for _, w in clenshaw_curtis_nodes(self.lo, self.hi, 16)]
        w8 = [w for _, w in clenshaw_curtis_nodes(self.lo, self.hi, 8)]
        coarse: dict[float, tuple[float, float]] = {}
        for k, (av, v) in enumerate(coefficients[::2]):
            c8 = 0.0 if k % 2 else 0.5 * prob.sigma * w8[k // 2] / sqrt(av)
            m8, m16 = coarse.get(v, (0.0, 0.0))
            coarse[v] = (m8 + c8, m16 + 0.5 * prob.sigma * w16[k] / sqrt(av))
        fine: dict[float, float] = {}
        for (av, v), (_, w) in zip(coefficients, nodes):
            fine[v] = fine.get(v, 0.0) + 0.5 * prob.sigma * w / sqrt(av)
        vmax = max(fine)
        return (
            vmax, _TURNING_CLEARANCE * (vmax - min(fine)),
            tuple((v, c8, c16) for v, (c8, c16) in coarse.items()), tuple(fine.items()),
        )

    def _level(self, lo: float, hi: float, level: int):
        prob = self.prob
        merged: dict[float, float] = {}
        vmax, where = -math.inf, lo
        for s, w in tanh_sinh_nodes(lo, hi, level):
            av, v = _coefficients(prob, s)
            if v > vmax:
                vmax, where = v, s
            merged[v] = merged.get(v, 0.0) + 0.5 * prob.sigma * w / math.sqrt(av)
        return vmax, where, tuple(merged.items())


def correction_term(prob: HJProblem, x: float, q: float, cfg: SolverConfig) -> float:
    """F(x, q): quadrature of the correction integrand from x0, plus G(q)."""
    integral = integrate_adaptive(lambda s: correction_integrand(prob, s, q), prob.x0, x, cfg.quad_tol)
    return integral + prob._g_fn(q)


def constraint(
    prob: HJProblem,
    x: float,
    t: float,
    q: float,
    cfg: SolverConfig,
    direct: bool = False,
) -> float:
    """Residual of the root condition fixing q(x, t); equals -dS/dq.

    The default integration-by-parts form integrates dp/dq only.  With
    ``direct=True`` the unsimplified route is evaluated instead (quadrature
    of a central q-difference of the correction integrand); the two agree
    analytically and the direct path exists for that equivalence check.
    """
    if direct:
        g_slope = prob._g_slopes_fn(q)[0]
        h = 1e-6 * (1.0 + abs(q))

        def dq_integrand(s):
            return (
                correction_integrand(prob, s, q + h)
                - correction_integrand(prob, s, q - h)
            ) / (2.0 * h)

        integral = integrate_adaptive(dq_integrand, prob.x0, x, cfg.quad_tol)
        return integral + g_slope - t - x * momentum_partials(prob, x, q)[1]
    return _row_table(prob, x, cfg.quad_tol).t_at(q)[0] - t


def _potential_ceiling(prob: HJProblem, x: float) -> float:
    """Max of V over the quadrature segment, sampled on a fixed fine grid."""
    vmax = -math.inf
    for s in scan_abscissae(min(prob.x0, x), max(prob.x0, x), 32):
        vmax = max(vmax, prob._v_fn(s))
    return vmax


def _scan_floor(prob: HJProblem, ceiling: float, q_lo: float) -> float:
    """Lower end of the scan range: q_lo clipped above the potential ceiling."""
    margin = prob.margin(ceiling)
    # doubled margin plus an ulp-scale pad keeps every scan sample strictly
    # admissible at the potential's maximum despite rounding
    return max(q_lo, ceiling + 2.0 * margin + 4e-15 * (1.0 + abs(ceiling)))


def _root_line(row: _RowTable, q_lo: float, q_hi: float, cfg: SolverConfig) -> Optional[RootLine]:
    """The root condition of ``row``'s x over its clipped scan range.

    The range [q_lo, q_hi] is clipped above the potential ceiling plus the
    admissibility margin; ``None`` (a domain failure of every point of the
    row) when the clipped range is empty or the ceiling raises.  The line's
    level is :meth:`_RowTable.t_at` of ``row``.
    """
    try:
        ceiling = _potential_ceiling(row.prob, row.x)
    except DomainError:
        return None
    lo = _scan_floor(row.prob, ceiling, q_lo)
    if not lo < q_hi:
        return None
    return RootLine(row.t_at, level_samples(row.t_at, lo, q_hi, cfg), lo, q_hi, cfg)


def action_value(prob: HJProblem, x: float, t: float, q: float, cfg: SolverConfig) -> float:
    """S = x p(x, q) + q t - F(x, q) at the resolved root q, taken by parts
    as x0 p(x0, q) + integral of p from x0 to x + q t - G(q)."""
    return _action(_row_table(prob, x, cfg.quad_tol), False, t, q)


def _action(row: _RowTable, momentum: bool, t: float, q: float):
    """S at the root q of ``row``'s x and time t, or with ``momentum`` the
    pair (S, p): one admissibility margin serves x0 p(x0, q), the integral
    of p (one quadrature of the row's table) and p(x, q), whose a and V at
    x the row keeps from the first call that takes them."""
    prob = row.prob
    margin = prob.margin(q)
    a, v = prob._x0_coefficients or _base_coefficients(prob)
    base = prob.x0 * (prob.sigma * math.sqrt(_gap(v, prob.x0, q, margin) / a))
    action = base + row._integral(q, margin, False) + q * t - prob._g_fn(q)
    if not momentum:
        return action
    a, v = row._x_coefficients = row._x_coefficients or _coefficients(prob, row.x)
    return action, prob.sigma * math.sqrt(_gap(v, row.x, q, margin) / a)


def _row_table(prob: HJProblem, x: float, tol: float) -> _RowTable:
    """The problem's last row table when it is for ``x`` and ``tol``, else a
    new one kept in its place.

    One slot, not a table per x, for :func:`constraint`,
    :func:`action_value` and :func:`separation_action`, which take one
    point each: callers that loop t inside x share one table per row, and a
    finished row is freed when the next one starts.  A grid solve builds
    its own rows (:meth:`HJProblem.lines`) and leaves the slot alone.
    """
    row = prob._last_row
    if row is None or row.x != x or row.tol != tol:
        row = prob._last_row = _RowTable(prob, x, tol)
    return row


def separation_action(
    prob: HJProblem, energy: float, x: float, t: float, cfg: SolverConfig
) -> float:
    """Separated solution: integral of sqrt((E - V)/a) from x0 to x, plus E t.

    This is the dq = 0 member of the family, with the constant ``energy``
    in place of the root q; the same admissibility margin applies along the
    quadrature segment.  A q that does not clear it at every node of the
    row's Clenshaw-Curtis table falls back to tanh-sinh, which checks it
    per level against the level's largest V, so a :class:`DomainError`
    names that level's max-V node.  The integral
    is sigma times the x row's :meth:`_RowTable.momentum_integral` at q = E,
    one quadrature per (x, energy) however many t the row holds, when the
    calls for one x come together.
    """
    return prob.sigma * _row_table(prob, x, cfg.quad_tol).momentum_integral(energy) + energy * t
