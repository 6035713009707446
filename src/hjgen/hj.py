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
separation-of-variables solution :func:`separation_action`.

Time enters g only additively, and the clipped scan range depends on x
alone, so :func:`solve_grid` computes the scan samples once per x row and
every point of the row reuses them; only the root refinement runs per
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import expr
from .errors import DomainError
from .fields import ActionField, Status, check_axis, pick_root, sweep
from .numerics import SolverConfig, integrate_adaptive, scan_abscissae

__all__ = [
    "HJProblem",
    "momentum",
    "momentum_partials",
    "correction_integrand",
    "correction_term",
    "constraint",
    "solve_point",
    "action_value",
    "solve_grid",
    "separation_action",
]


@dataclass
class HJProblem:
    """One Hamilton-Jacobi problem; immutable once constructed.

    kinetic   -- a(x), must be positive wherever evaluated
    potential -- V(x)
    generator -- the arbitrary function G(q)
    sigma     -- momentum branch sign, +1 or -1
    x0        -- base point of the running quadrature
    eps_adm   -- admissibility margin on q - V; when ``None`` a relative
                 default 1e-9 * (1 + |q|) applies
    """

    kinetic: expr.Expression
    potential: expr.Expression
    generator: expr.Expression
    sigma: int = 1
    x0: float = 0.0
    eps_adm: Optional[float] = None
    _a_prime: expr.Expression = field(init=False, repr=False)
    _v_prime: expr.Expression = field(init=False, repr=False)
    _g_prime: expr.Expression = field(init=False, repr=False)

    def __post_init__(self):
        self.kinetic = expr.as_expr(self.kinetic)
        self.potential = expr.as_expr(self.potential)
        self.generator = expr.as_expr(self.generator)
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.eps_adm is not None and not self.eps_adm > 0:
            raise ValueError("eps_adm must be positive")
        self._a_prime = expr.differentiate(self.kinetic, "x")
        self._v_prime = expr.differentiate(self.potential, "x")
        self._g_prime = expr.differentiate(self.generator, "q")
        # compiled closures for the quadrature / root-scan hot loops
        self._a_fn = expr.compile_function(self.kinetic, ("x",))
        self._v_fn = expr.compile_function(self.potential, ("x",))
        self._ap_fn = expr.compile_function(self._a_prime, ("x",))
        self._vp_fn = expr.compile_function(self._v_prime, ("x",))
        self._g_fn = expr.compile_function(self.generator, ("q",))
        self._gp_fn = expr.compile_function(self._g_prime, ("q",))

    def margin(self, q: float) -> float:
        if self.eps_adm is not None:
            return self.eps_adm
        return 1e-9 * (1.0 + abs(q))

    def generator_at(self, q: float) -> float:
        return self._g_fn(q)

    def generator_slope_at(self, q: float) -> float:
        return self._gp_fn(q)


def _coefficients(prob: HJProblem, x: float):
    """a, V and the admissible gap pieces at one abscissa."""
    a = prob._a_fn(x)
    if a <= 0.0:
        raise DomainError(f"kinetic coefficient {a!r} is not positive", where=x)
    v = prob._v_fn(x)
    return a, v


def _gap(prob: HJProblem, x: float, q: float, v: float) -> float:
    gap = q - v
    if gap < prob.margin(q):
        raise DomainError("momentum argument below admissibility margin", where=x)
    return gap


def momentum(prob: HJProblem, x: float, q: float) -> float:
    """p(x, q) = sigma * sqrt((q - V(x)) / a(x))."""
    a, v = _coefficients(prob, x)
    gap = _gap(prob, x, q, v)
    return prob.sigma * math.sqrt(gap / a)


def momentum_partials(prob: HJProblem, x: float, q: float) -> tuple[float, float]:
    """Partial derivatives (dp/dx, dp/dq) of the momentum branch at fixed q.

    dp/dq = sigma / (2 sqrt(a (q - V)))
    dp/dx = sigma (a'V - aV' - q a') / (2 a sqrt(a (q - V)))

    with a' and V' taken symbolically, so accuracy is limited only by the
    caller's quadrature / root tolerances.
    """
    a, v = _coefficients(prob, x)
    gap = _gap(prob, x, q, v)
    a_p = prob._ap_fn(x)
    v_p = prob._vp_fn(x)
    root = math.sqrt(a * gap)
    dp_dq = prob.sigma / (2.0 * root)
    dp_dx = prob.sigma * (a_p * v - a * v_p - q * a_p) / (2.0 * a * root)
    return dp_dx, dp_dq


def _dp_dq(prob: HJProblem, x: float, q: float) -> float:
    # momentum q-slope only; the constraint quadrature samples this a lot
    a, v = _coefficients(prob, x)
    gap = _gap(prob, x, q, v)
    return prob.sigma / (2.0 * math.sqrt(a * gap))


def correction_integrand(prob: HJProblem, x: float, q: float) -> float:
    """x-weighted momentum slope x * dp/dx; the running integrand of F."""
    return x * momentum_partials(prob, x, q)[0]


def correction_term(prob: HJProblem, x: float, q: float, cfg: SolverConfig) -> float:
    """F(x, q): quadrature of the correction integrand from x0, plus G(q)."""
    integral = integrate_adaptive(
        lambda s: correction_integrand(prob, s, q), prob.x0, x, cfg.quad_tol
    )
    return integral + prob.generator_at(q)


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
        g_slope = prob.generator_slope_at(q)
        h = 1e-6 * (1.0 + abs(q))

        def dq_integrand(s):
            return (
                correction_integrand(prob, s, q + h)
                - correction_integrand(prob, s, q - h)
            ) / (2.0 * h)

        integral = integrate_adaptive(dq_integrand, prob.x0, x, cfg.quad_tol)
        return integral + g_slope - t - x * momentum_partials(prob, x, q)[1]
    return _combine(_constraint_terms(prob, x, q, cfg), t)


def _constraint_terms(prob: HJProblem, x: float, q: float, cfg: SolverConfig):
    """The t-free pieces (G'(q), integral of dp/dq, x0 dp/dq(x0, q)) of g."""
    g_slope = prob.generator_slope_at(q)
    integral = integrate_adaptive(
        lambda s: _dp_dq(prob, s, q), prob.x0, x, cfg.quad_tol
    )
    base = prob.x0 * _dp_dq(prob, prob.x0, q)
    return g_slope, integral, base


def _combine(terms, t: float) -> float:
    # left to right with t second: the rounding, so every root, depends on it
    g_slope, integral, base = terms
    return g_slope - t - integral - base


def _potential_ceiling(prob: HJProblem, x: float) -> float:
    """Max of V over the quadrature segment, sampled on a fixed fine grid."""
    vmax = -math.inf
    for s in scan_abscissae(min(prob.x0, x), max(prob.x0, x), 32):
        vmax = max(vmax, prob._v_fn(s))
    return vmax


def _scan_floor(prob: HJProblem, ceiling: float, q_lo: float) -> float:
    """Lower end of the scan range: q_lo clipped above the potential ceiling."""
    margin = prob.eps_adm if prob.eps_adm is not None else 1e-9 * (1.0 + abs(ceiling))
    # doubled margin plus an ulp-scale pad keeps every scan sample strictly
    # admissible at the potential's maximum despite rounding
    return max(q_lo, ceiling + 2.0 * margin + 4e-15 * (1.0 + abs(ceiling)))


def _scan_table(
    prob: HJProblem, x: float, ceiling: float, q_lo: float, q_hi: float, cfg: SolverConfig
) -> Optional[dict]:
    """:func:`_constraint_terms` at each scan abscissa of one x row.

    The abscissae are those :func:`solve_point` scans for this ``ceiling``;
    ``None`` when the clipped range is empty.  A sample that raises
    :class:`DomainError` is stored as ``None``, so every point reading the
    table skips it as the scan would.
    """
    lo = _scan_floor(prob, ceiling, q_lo)
    if not lo < q_hi:
        return None
    table: dict[float, Optional[tuple[float, float, float]]] = {}
    for q in scan_abscissae(lo, q_hi, cfg.scan_points):
        try:
            table[q] = _constraint_terms(prob, x, q, cfg)
        except DomainError:
            table[q] = None
    return table


def solve_point(
    prob: HJProblem,
    x: float,
    t: float,
    q_lo: float,
    q_hi: float,
    cfg: SolverConfig,
    warm: Optional[float] = None,
    _ceiling: Optional[float] = None,
    _table: Optional[dict] = None,
):
    """Locate the constraint root at one (x, t) point.

    The scan range is first clipped above the potential ceiling plus the
    admissibility margin; an empty clipped range is a domain failure.
    Continuation semantics match the first-order PDE solver.  ``_table``
    holds this x row's :func:`_scan_table` over the same clipped range;
    g reads its scan samples from there instead of recomputing them.
    """
    if not q_lo < q_hi:
        raise ValueError("solve_point requires q_lo < q_hi")
    try:
        ceiling = _potential_ceiling(prob, x) if _ceiling is None else _ceiling
    except DomainError:
        return None, Status.DOMAIN_FAIL
    lo = _scan_floor(prob, ceiling, q_lo)
    if not lo < q_hi:
        return None, Status.DOMAIN_FAIL
    table = _table or {}

    def g(q):
        if q not in table:
            return constraint(prob, x, t, q, cfg)
        terms = table[q]
        if terms is None:
            raise DomainError("scan sample outside the domain", where=q)
        return _combine(terms, t)

    return pick_root(g, lo, q_hi, cfg, warm)


def action_value(prob: HJProblem, x: float, t: float, q: float, cfg: SolverConfig) -> float:
    """S = x p(x, q) + q t - F(x, q) at the resolved root q."""
    return x * momentum(prob, x, q) + q * t - correction_term(prob, x, q, cfg)


def solve_grid(
    prob: HJProblem,
    x_grid,
    t_grid,
    q_range: tuple[float, float],
    cfg: SolverConfig,
    threads: int = 0,
) -> ActionField:
    """Warm-started sweep producing the action field S, roots q and momenta p."""
    xs = check_axis(x_grid)
    ts = check_axis(t_grid)
    q_lo, q_hi = q_range
    ceilings: list[Optional[float]] = []
    for x in xs:
        try:
            ceilings.append(_potential_ceiling(prob, x))
        except DomainError:
            ceilings.append(None)
    # built before the sweep starts, so sweep threads only read the tables
    tables = [
        None if c is None else _scan_table(prob, x, c, q_lo, q_hi, cfg)
        for x, c in zip(xs, ceilings)
    ]

    def point(i, j, warm):
        if ceilings[i] is None:
            return None, Status.DOMAIN_FAIL
        return solve_point(
            prob, xs[i], ts[j], q_lo, q_hi, cfg, warm, _ceiling=ceilings[i], _table=tables[i]
        )

    q, status = sweep(point, len(xs), len(ts), threads)
    value: list[list[Optional[float]]] = [[None] * len(ts) for _ in xs]
    p: list[list[Optional[float]]] = [[None] * len(ts) for _ in xs]
    for i in range(len(xs)):
        for j in range(len(ts)):
            if q[i][j] is None:
                continue
            try:
                value[i][j] = action_value(prob, xs[i], ts[j], q[i][j], cfg)
                p[i][j] = momentum(prob, xs[i], q[i][j])
            except DomainError:
                q[i][j] = None
                value[i][j] = None
                p[i][j] = None
                status[i][j] = Status.DOMAIN_FAIL
    return ActionField(xs, ts, q, value, status, p)


def separation_action(
    prob: HJProblem, energy: float, x: float, t: float, cfg: SolverConfig
) -> float:
    """Separated solution: integral of sqrt((E - V)/a) from x0 to x, plus E t.

    This is the dq = 0 member of the family, with the constant ``energy``
    in place of the root q; the same admissibility margin applies along the
    quadrature segment.
    """

    def integrand(s):
        a, v = _coefficients(prob, s)
        gap = _gap(prob, s, energy, v)
        return math.sqrt(gap / a)

    return integrate_adaptive(integrand, prob.x0, x, cfg.quad_tol) + energy * t
