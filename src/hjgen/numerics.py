"""Bracketed scalar root finding and error-controlled quadrature.

All operations are pure.  Functions passed in may raise
:class:`~hjgen.errors.DomainError` at points outside their domain; the
quadrature propagates it.  The bracket scan itself lives in
:class:`hjgen.fields.RootLine`, which samples at :func:`scan_abscissae`
and finds every target's brackets by bisection over the samples'
monotone runs.

Every grid point's root is refined by one kernel on plain floats,
:func:`_refine`: the grid line's level returns its value and its exact
slope from one evaluation, the condition is ``target - level(q)``, a
probe at a predicted root and one at the Newton step from it usually land
on the root and otherwise narrow the (lo, hi, g_lo, g_hi) bracket, and
Brent's method (:func:`_brent`) finishes it, with no closure, bracket
object or frame beyond ``level`` between the loop and an evaluation.  The
root found is polished by one Newton step with the slope its evaluation
returned, at no further cost.

Quadrature is nested tanh-sinh (H. Takahasi and M. Mori, "Double
exponential formulas for numerical integration", Publ. RIMS 9, 1974):
the substitution s = tanh((pi/2) sinh t) crowds the nodes double-
exponentially toward both ends of a panel, so integrands with a steep but
bounded layer at an end, like the momentum slope near a turning point,
converge in a few levels.  Level l halves the step to 2**-l and adds only
the new nodes.  One loop, :func:`_nested`, runs the levels, the stop rule
and the halving over a callback that sums one level on one panel:
:func:`integrate_adaptive` passes it a sum over a callable integrand, and
a caller that tabulates the nodes of :func:`tanh_sinh_nodes` passes it
weighted sums over its tables, so it can evaluate many integrands over one
segment.  The node tables are built on first use, not at import.
:func:`clenshaw_curtis_nodes` gives the nested Clenshaw-Curtis rule
(Clenshaw & Curtis, Numer. Math. 2, 1960), whose weights are also built
on first use.  Every integral the
Hamilton-Jacobi solve and the separated solution take is a sum over a
row's tables of these nodes: Clenshaw-Curtis of orders 8, 16 and 32
first, and on any failure tanh-sinh, whose level sums read the table's
levels (:class:`hjgen.hj._RowTable`);
:func:`integrate_adaptive` serves :func:`hjgen.hj.correction_term`, the
direct form of :func:`hjgen.hj.constraint` (``direct=True``, an
equivalence check) and the public API.

The grid lines and the row tables count their own work in integers, and
a solve given a :class:`SolveStats` record adds those counts to it: level
evaluations by stage, brackets, and the row tables' quadratures by the
rule, order or level at which they stopped.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

from .errors import ConvergenceError, DomainError

__all__ = [
    "SolverConfig",
    "SolveStats",
    "integrate_adaptive",
    "tanh_sinh_nodes",
    "clenshaw_curtis_nodes",
    "scan_abscissae",
    "central_difference",
]

# weights past t = 3.5 are below 3e-21 of the half-width, negligible for the
# bounded integrands solved here (dp/dq reaches ~1e4 at the scan floor)
_T_MAX = 3.5
_SPLIT_LEVEL = 6  # a panel not converged at this level is halved
_MAX_SPLITS = 64  # halvings allowed in one quadrature, 449 wasted nodes each
# the slots of a quadrature count after the stop levels 0.._SPLIT_LEVEL
_SPLIT = _SPLIT_LEVEL + 1  # halved at least once, then returned
_FAILED = _SPLIT_LEVEL + 2  # raised
# then the row tables' Clenshaw-Curtis stops at n = 16 and n = 32
_CC16 = _SPLIT_LEVEL + 3
_CC32 = _SPLIT_LEVEL + 4


class SolverConfig:
    """Tolerances shared by the root finder and the quadrature; immutable,
    compared and hashed by value.

    root_tol  -- absolute tolerance on the root abscissa
    resid_tol -- tolerance on |g| at the returned root
    max_iter  -- iteration budget per bracketed solve
    quad_tol  -- absolute quadrature tolerance
    scan_points -- number of intervals used by the bracket scan
    """

    def __init__(
        self,
        root_tol: float = 1e-12,
        resid_tol: float = 1e-12,
        max_iter: int = 100,
        quad_tol: float = 1e-10,
        scan_points: int = 64,
    ):
        for key, value in (("max_iter", max_iter), ("scan_points", scan_points)):
            if not isinstance(value, int):
                raise ValueError(f"{key} must be an integer")
        if not all(0 < tol < math.inf for tol in (root_tol, resid_tol, quad_tol)):
            raise ValueError("tolerances must be positive and finite")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if scan_points < 2:
            raise ValueError("scan_points must be at least 2")
        vars(self).update(
            root_tol=root_tol,
            resid_tol=resid_tol,
            max_iter=max_iter,
            quad_tol=quad_tol,
            scan_points=scan_points,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SolverConfig")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable SolverConfig")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"SolverConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class SolveStats:
    """Work counts of the grid solves given it as ``stats``
    (:func:`hjgen.fields.solve_grid`), summed.

    Every grid line (:class:`hjgen.fields.RootLine`) and every
    Hamilton-Jacobi row table counts its own work in integers as it goes,
    and a solve given a record adds its lines' and tables' counts to it at
    the end.  A level evaluation is one call of a line's level: a dp/dq
    quadrature in the Hamilton-Jacobi solver, one call of the level
    kernel, or of the (G', phi') kernel at a scan sample, in the others.

    points    -- grid points
    targets   -- points on a line with a root condition; the others lie on
                 a line without one and are ``domain_fail`` with no work
    scan      -- level evaluations at the scan samples: ``scan_points + 1``
                 per Hamilton-Jacobi row with a root condition, and per pq
                 solve with one, whose lines share one table of G' and phi'
    probes    -- level evaluations at predicted roots, before Brent's method
    landed    -- points whose first probe landed within ``resid_tol``
    brent     -- level evaluations in Brent's method
    refined   -- brackets refined
    dpdq_quads, p_quads -- quadratures of dp/dq and of p (the action at a
                 root) by how they ended.  Slots 9 and 10 stopped on the
                 row's Clenshaw-Curtis table at n = 16 and n = 32; the
                 others fell back to tanh-sinh, where slot l <= 6 stopped
                 at level l, slot 7 was halved and returned, and slot 8
                 raised.  A Hamilton-Jacobi level evaluation runs at most
                 one dp/dq quadrature: none on a row at x = x0, whose
                 integral is 0, and none when G' or the admissibility
                 margin raises first
    dpdq_cc_terms, p_cc_terms -- merged Clenshaw-Curtis table terms summed
                 by the quadratures that returned, fallbacks included
    dpdq_terms, p_terms -- merged tanh-sinh table terms summed by the
                 quadratures that returned
    statuses  -- grid points per status, keyed by the
                 :class:`~hjgen.fields.Status` value
    """

    __slots__ = (
        "points", "targets", "scan", "probes", "landed", "brent", "refined",
        "dpdq_quads", "p_quads", "dpdq_cc_terms", "p_cc_terms", "dpdq_terms", "p_terms", "statuses",
    )

    def __init__(self):
        self.points = self.targets = self.scan = self.probes = self.landed = self.brent = 0
        self.refined = self.dpdq_cc_terms = self.p_cc_terms = self.dpdq_terms = self.p_terms = 0
        self.dpdq_quads = [0] * (_CC32 + 1)
        self.p_quads = [0] * (_CC32 + 1)
        self.statuses: dict[str, int] = {}


def _sample(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise DomainError("non-finite integrand value", where=x)
    return v


@functools.cache
def _level_offsets(level: int) -> tuple[tuple[float, float], ...]:
    """The nodes tanh-sinh level ``level`` adds with t >= 0, as (d, w) pairs.

    Level 0 has step h = 1 and t = 0, 1, 2, 3; level l > 0 adds the odd
    multiples of h = 2**-l up to t = 3.5.  With u = (pi/2) sinh t a node
    lies d = 2/(1 + e^{2u}) half-widths from its end of the panel, so nodes
    crowded against an end keep full relative precision, and w is h times
    the weight (pi/2) cosh t / cosh^2 u.  d == 1 only at t = 0, the centre.
    """
    h = 2.0**-level
    ks = range(4) if level == 0 else range(1, int(_T_MAX / h) + 1, 2)
    out = []
    for k in ks:
        t = k * h
        e = math.exp(-math.pi * math.sinh(t))  # e^{-2u}
        out.append((2.0 * e / (1.0 + e), h * 2.0 * math.pi * math.cosh(t) * e / (1.0 + e) ** 2))
    return tuple(out)


def tanh_sinh_nodes(lo: float, hi: float, level: int) -> list[tuple[float, float]]:
    """(abscissa, weight) of the nodes tanh-sinh level ``level`` adds on [lo, hi].

    The weights carry the step and the half-width, so the level's share of
    the estimate is the weighted sum of the integrand over these nodes.
    """
    hw = 0.5 * (hi - lo)
    nodes = []
    for d, w in _level_offsets(level):
        nodes.append((lo + hw * d, hw * w))
        if d != 1.0:
            nodes.append((hi - hw * d, hw * w))
    return nodes


@functools.cache
def _clenshaw_curtis_offsets(n: int) -> tuple[tuple[float, float], ...]:
    """The nodes k = 0..n/2 of the Clenshaw-Curtis rule of even order n
    on [-1, 1], as (d, w): node k lies d = 1 - cos(k pi / n) half-widths
    from its end, and w = (c / n) (1 - sum over j = 1..n/2 of
    b cos(2 j k pi / n) / (4 j^2 - 1)), with c = 1 at k = 0 and 2
    elsewhere, and b = 1 at j = n/2 and 2 elsewhere."""
    out = []
    for k in range(n // 2 + 1):
        total = 0.0
        for j in range(1, n // 2 + 1):
            total += (1.0 if 2 * j == n else 2.0) * math.cos(2 * j * k * math.pi / n) / (4 * j * j - 1)
        d = 1.0 if 2 * k == n else 2.0 * math.sin(k * math.pi / (2 * n)) ** 2
        out.append((d, (1.0 if k == 0 else 2.0) / n * (1.0 - total)))
    return tuple(out)


def clenshaw_curtis_nodes(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """(abscissa, weight) of the n + 1 nodes of the Clenshaw-Curtis rule of
    even order n on [lo, hi], from lo to hi; the ends are nodes.

    The nodes of order n/2 are every second one of these, so a caller can
    nest the orders on one tabulation.  The weights carry the half-width,
    so the rule's estimate is the weighted sum of the integrand.
    """
    hw = 0.5 * (hi - lo)
    offsets = _clenshaw_curtis_offsets(n)
    nodes = [(lo + hw * d, hw * w) for d, w in offsets]
    nodes += [(hi - hw * d, hw * w) for d, w in reversed(offsets[:-1])]
    return nodes


def integrate_adaptive(
    f: Callable[[float], float], x0: float, x1: float, tol: float
) -> float:
    """Estimate of the integral of ``f`` from x0 to x1 to absolute ``tol``.

    Nested tanh-sinh quadrature (Takahasi & Mori, 1974), whose nodes crowd
    double-exponentially toward both ends, so bounded endpoint layers such
    as an inverse square root just inside the segment cost few levels.  The
    estimate at level l is half the one at level l - 1 plus the weighted
    sum of ``f`` over :func:`tanh_sinh_nodes` ``(a, b, l)``.  A panel stops
    at the first level l >= 1 with |S_l - S_{l-1}| <= tol.  A panel that has
    not converged by level 6 is halved and each half integrated to tol / 2,
    which keeps interior kinks working.  Antisymmetric in the bounds; 0.0
    on an empty segment.  A non-finite sample raises :class:`DomainError`
    carrying the offending abscissa; past ``_MAX_SPLITS`` halvings the
    quadrature raises :class:`ConvergenceError` rather than return a best
    effort.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if x1 == x0:
        return 0.0
    if x1 < x0:
        return -integrate_adaptive(f, x1, x0, tol)

    def level_sum(a, b, level):
        return sum(w * _sample(f, s) for s, w in tanh_sinh_nodes(a, b, level)), 0.0

    return _nested(level_sum, x0, x1, tol)[0]


def _nested(level_sum, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """(integral, second integral, stop) of nested tanh-sinh on [lo, hi] to
    absolute ``tol``, with ``level_sum(a, b, l)`` the pair of weighted sums
    of two integrands over the nodes level l adds on the panel [a, b];
    ``stop`` is the level at which the whole segment converged, or
    ``_SPLIT`` once it was halved.

    The stop rule, halving and ``_MAX_SPLITS`` cap of
    :func:`integrate_adaptive`, which the first integral alone decides; the
    second, such as the first's derivative in a parameter, is summed with
    the same weights and levels.  The panels' integrals are added left to
    right from 0.0, and errors of ``level_sum`` propagate.
    """
    total = second = 0.0
    splits = 0
    panels = [(lo, hi, tol)]  # a stack; the leftmost panel is on top
    while panels:
        a, b, panel_tol = panels.pop()
        estimate, other = level_sum(a, b, 0)
        for level in range(1, _SPLIT_LEVEL + 1):
            prev = estimate
            part, other_part = level_sum(a, b, level)
            estimate = 0.5 * prev + part
            other = 0.5 * other + other_part
            if abs(estimate - prev) <= panel_tol:
                total += estimate
                second += other
                break
        else:
            splits += 1
            if splits > _MAX_SPLITS:
                raise ConvergenceError(f"quadrature not converged after {_MAX_SPLITS} halvings")
            m = 0.5 * (a + b)
            panels.append((m, b, 0.5 * panel_tol))
            panels.append((a, m, 0.5 * panel_tol))
    return total, second, _SPLIT if splits else level


def scan_abscissae(lo: float, hi: float, n: int) -> list[float]:
    """The n+1 equispaced points of [lo, hi] the bracket scan samples.

    The last point is ``hi`` exactly, so callers that tabulate a function
    on the scan grid get the very floats the scan passes in.
    """
    span = hi - lo
    points = [lo + span * i / n for i in range(n)]
    points.append(hi)
    return points


def _refine(level, target, lo, hi, g_lo, g_hi, guess, cfg, tally):
    """Root of g(q) = target - level(q) in the bracket [lo, hi] with
    g(lo) = g_lo and g(hi) = g_hi, and the level's slope there.

    The kernel of every grid point's root, on plain floats.  ``level``
    returns the pair (level(q), level'(q)) from one evaluation.  With a
    predicted root ``guess`` strictly inside the bracket, g is probed
    there, then at the Newton step from that probe with the slope it
    returned; each probe replaces the end of the enclosure whose sign it
    shares.  A probe within ``resid_tol`` of zero is the root, and
    otherwise :func:`_brent` runs on the tightest enclosure, so the probes
    change how fast the root is found, never which root.  A probe that
    raises :class:`DomainError` or :class:`ConvergenceError`, or is NaN,
    ends the probing, and so does a slope that is zero, infinite, NaN or
    ``None``; an error in Brent's method propagates.

    The root found is polished by one Newton step, g / level', with the
    slope its own evaluation returned and no new evaluation, and clamped
    into the enclosure it was found in: the probe's, or the bracket Brent's
    method started from.  A root without a usable slope, such as a scan
    sample, is returned as found.  The slope returned is that level', or
    ``None``.

    ``tally`` is the calling :class:`~hjgen.fields.RootLine`, or any
    object with integer ``probes``, ``landed``, ``brent`` and ``refined``
    counters: it gets one more ``refined`` bracket, one more ``landed``
    when the first probe is the root, and its ``probes`` and ``brent`` grow
    by the evaluations each stage tried, those that raised included.
    """
    resid_tol = cfg.resid_tol
    tally.refined += 1
    d_lo = d_hi = None  # the level's slopes at the ends: none at a scan sample
    root = None
    if guess is not None and abs(g_lo) > resid_tol and abs(g_hi) > resid_tol:
        p = guess
        for probe in range(2):
            if not lo < p < hi:
                break
            tally.probes += 1
            try:
                h, slope = level(p)
            except (DomainError, ConvergenceError):
                break
            v = target - h
            if v != v:
                break
            if abs(v) <= resid_tol:
                if not probe:
                    tally.landed += 1
                root = p
                break
            if (v < 0.0) == (g_lo < 0.0):
                lo, g_lo, d_lo = p, v, slope
            else:
                hi, g_hi, d_hi = p, v, slope
            if slope is None or not 0.0 < abs(slope) < math.inf:
                break
            p += v / slope
    if root is None:
        root, v, slope = _brent(level, target, lo, g_lo, d_lo, hi, g_hi, d_hi, cfg, tally)
    # the polish: one Newton step with the root's own slope, kept in [lo, hi]
    if slope is not None and 0.0 < abs(slope) < math.inf:
        root = min(max(root + v / slope, lo), hi)
    return root, slope


def _brent(level, target, a, fa, da, b, fb, db, cfg, tally):
    """(root, g, level') of g(q) = target - level(q) in [a, b], with
    fa = g(a), fb = g(b) and da, db the level's slopes there (or ``None``),
    by Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), which never leaves the bracket.  ``level``
    returns (level(q), level'(q)), and each point carries its slope along.

    Returns at once when |g| <= resid_tol, at an end or an iterate, or when
    the enclosure [b, c] around the estimate b is within root_tol + 4 eps |b|.
    After ``cfg.max_iter`` evaluations it raises :class:`ConvergenceError`
    carrying [b, c] as (lo, hi, g_lo, g_hi).  Adds one to ``tally.brent``
    per evaluation, one that raises included.
    """
    resid_tol = cfg.resid_tol
    if abs(fa) <= resid_tol:
        return a, fa, da
    if abs(fb) <= resid_tol:
        return b, fb, db
    eps = sys.float_info.epsilon
    half_tol = 0.5 * cfg.root_tol
    # b: best estimate; c: the opposite-signed end of the enclosure [b, c];
    # a: the previous b.  d is the last step and e the one before it.
    c, fc, dc = a, fa, da
    d = e = b - a
    for _ in range(cfg.max_iter):
        if abs(fc) < abs(fb):
            a, fa, da = b, fb, db
            b, fb, db = c, fc, dc
            c, fc, dc = a, fa, da
        tol = 2.0 * eps * abs(b) + half_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, fb, db
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa, da = b, fb, db
        b += d if abs(d) > tol else math.copysign(tol, m)
        tally.brent += 1
        h, db = level(b)
        fb = target - h
        if abs(fb) <= resid_tol:
            return b, fb, db
        if (fb > 0.0) == (fc > 0.0):
            c, fc, dc = a, fa, da
            d = e = b - a
    raise ConvergenceError(
        f"root not isolated after {cfg.max_iter} iterations",
        bracket=(b, c, fb, fc) if b < c else (c, b, fc, fb),
    )


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)
