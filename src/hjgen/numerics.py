"""Bracketed scalar root finding and error-controlled quadrature.

All operations are pure.  Functions passed in may raise
:class:`~hjgen.errors.DomainError` at points outside their domain; the
bracket scan skips such samples, the quadrature propagates them.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError

__all__ = [
    "Bracket",
    "SolverConfig",
    "RootScan",
    "integrate_adaptive",
    "scan_brackets",
    "solve_bracketed",
    "locate_roots",
    "scan_abscissae",
    "central_difference",
]

_MAX_PANELS = 4096
_MIN_WIDTH = 2.0**-45  # splitting floor, relative to the full span


@dataclass(frozen=True)
class Bracket:
    """A sign-change enclosure: ``lo < hi`` and ``g_lo * g_hi <= 0``."""

    lo: float
    hi: float
    g_lo: float
    g_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")
        if self.g_lo * self.g_hi > 0.0:
            raise ValueError("bracket endpoints must not share a sign")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances shared by the root finder and the quadrature.

    root_tol  -- absolute tolerance on the root abscissa
    resid_tol -- tolerance on |g| at the returned root
    max_iter  -- iteration budget per bracketed solve
    quad_tol  -- absolute quadrature tolerance
    scan_points -- number of intervals used by the bracket scan
    """

    root_tol: float = 1e-12
    resid_tol: float = 1e-12
    max_iter: int = 100
    quad_tol: float = 1e-10
    scan_points: int = 64

    def __post_init__(self):
        if self.root_tol <= 0 or self.resid_tol <= 0 or self.quad_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")


def _sample(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise DomainError("non-finite integrand value", where=x)
    return v


class _Panel:
    """One Simpson panel with its halved refinement and error estimate."""

    __slots__ = ("a", "b", "fa", "flm", "fm", "frm", "fb", "value", "err")

    def __init__(self, f, a, b, fa, fm, fb):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = _sample(f, lm)
        frm = _sample(f, rm)
        coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        fine = (m - a) / 6.0 * (fa + 4.0 * flm + fm) + (b - m) / 6.0 * (
            fm + 4.0 * frm + fb
        )
        delta = fine - coarse
        self.a, self.b = a, b
        self.fa, self.flm, self.fm, self.frm, self.fb = fa, flm, fm, frm, fb
        self.value = fine + delta / 15.0
        self.err = abs(delta) / 15.0

    def split(self, f):
        m = 0.5 * (self.a + self.b)
        return (
            _Panel(f, self.a, m, self.fa, self.flm, self.fm),
            _Panel(f, m, self.b, self.fm, self.frm, self.fb),
        )


def integrate_adaptive(
    f: Callable[[float], float], x0: float, x1: float, tol: float
) -> float:
    """Adaptive Simpson estimate of the integral of ``f`` from x0 to x1.

    Worst-panel-first refinement until the summed panel error estimate
    drops below ``tol`` (best effort near integrable endpoint layers, where
    a width floor stops further splitting).  Antisymmetric in the bounds.
    A non-finite sample raises :class:`DomainError` carrying the offending
    abscissa.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if x1 == x0:
        return 0.0
    if x1 < x0:
        return -integrate_adaptive(f, x1, x0, tol)
    span = x1 - x0
    min_width = span * _MIN_WIDTH
    fa = _sample(f, x0)
    fb = _sample(f, x1)
    fm = _sample(f, 0.5 * (x0 + x1))
    root = _Panel(f, x0, x1, fa, fm, fb)
    total_err = root.err
    heap = [(-root.err, 0, root)]
    done: list[_Panel] = []  # panels too narrow to split further
    seq = 1
    while heap and total_err > tol and seq < _MAX_PANELS:
        _, _, panel = heapq.heappop(heap)
        if panel.b - panel.a <= min_width:
            done.append(panel)
            continue
        total_err -= panel.err
        for child in panel.split(f):
            total_err += child.err
            heapq.heappush(heap, (-child.err, seq, child))
            seq += 1
    return sum(p.value for p in done) + sum(p.value for _, _, p in heap)


def scan_abscissae(lo: float, hi: float, n: int) -> list[float]:
    """The n+1 equispaced points of [lo, hi] the bracket scan samples.

    The last point is ``hi`` exactly, so callers that tabulate a function
    on the scan grid get the very floats the scan passes in.
    """
    span = hi - lo
    points = [lo + span * i / n for i in range(n)]
    points.append(hi)
    return points


def _scan_samples(g, lo, hi, n):
    """Sample g at n+1 equispaced points, dropping domain failures and NaNs."""
    samples = []
    for x in scan_abscissae(lo, hi, n):
        try:
            v = g(x)
        except DomainError:
            continue
        if math.isnan(v):
            continue
        samples.append((x, v))
    return samples


def _bracket_pairs(samples) -> list[Bracket]:
    """Adjacent sample pairs enclosing a sign change.

    A zero exactly at a sample closes the pair on its left (or opens the
    very first pair), so a root hit by the scan grid is reported once.
    """
    out = []
    for k, ((x1, v1), (x2, v2)) in enumerate(zip(samples, samples[1:])):
        if (v1 < 0.0 < v2) or (v2 < 0.0 < v1):
            out.append(Bracket(x1, x2, v1, v2))
        elif v2 == 0.0 and v1 != 0.0:
            out.append(Bracket(x1, x2, v1, v2))
        elif v1 == 0.0 and v2 != 0.0 and k == 0:
            out.append(Bracket(x1, x2, v1, v2))
    return out


def scan_brackets(
    g: Callable[[float], float], lo: float, hi: float, n: int
) -> list[Bracket]:
    """Every adjacent surviving sample pair with a sign change, in order."""
    if not lo < hi:
        raise ValueError("scan requires lo < hi")
    if n < 2:
        raise ValueError("scan requires n >= 2")
    return _bracket_pairs(_scan_samples(g, lo, hi, n))


def solve_bracketed(
    g: Callable[[float], float], br: Bracket, cfg: SolverConfig
) -> float:
    """Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4, "zeroin"); never leaves the bracket.

    Each step tries inverse quadratic interpolation through the last three
    iterates, or a secant step when only two are distinct, and bisects
    instead whenever that step would leave the enclosure or would not be
    shorter than half the step before last.  Returns at once when
    |g| <= resid_tol, at an end of ``br`` or at an iterate, or when the
    sign-change enclosure [b, c] around the estimate b has narrowed to
    ``root_tol + 4 eps |b|``.  Raises :class:`ConvergenceError` carrying
    that enclosure when ``cfg.max_iter`` evaluations of ``g`` have not
    isolated the root.
    """
    if abs(br.g_lo) <= cfg.resid_tol:
        return br.lo
    if abs(br.g_hi) <= cfg.resid_tol:
        return br.hi
    eps = sys.float_info.epsilon
    # b: best estimate; c: the opposite-signed end of the enclosure [b, c];
    # a: the previous b.  d is the last step and e the one before it.
    a, fa = br.lo, br.g_lo
    b, fb = br.hi, br.g_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(cfg.max_iter):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 2.0 * eps * abs(b) + 0.5 * cfg.root_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
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
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
        if abs(fb) <= cfg.resid_tol:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(
        f"root not isolated after {cfg.max_iter} iterations",
        bracket=Bracket(b, c, fb, fc) if b < c else Bracket(c, b, fc, fb),
    )


@dataclass(frozen=True)
class RootScan:
    """Outcome of a scan-and-refine pass over one axis interval."""

    roots: tuple[float, ...]
    degenerate: bool  # constraint vanished (within resid_tol) at every sample
    n_valid: int  # samples that evaluated successfully


def locate_roots(
    g: Callable[[float], float], lo: float, hi: float, cfg: SolverConfig
) -> RootScan:
    """Scan [lo, hi], refine every sign change, and deduplicate the roots."""
    samples = _scan_samples(g, lo, hi, cfg.scan_points)
    if not samples:
        return RootScan((), False, 0)
    if all(abs(v) <= cfg.resid_tol for _, v in samples):
        return RootScan((), True, len(samples))
    roots: list[float] = []
    for br in _bracket_pairs(samples):
        roots.append(solve_bracketed(g, br, cfg))
    if not roots:
        return RootScan((), False, len(samples))
    roots.sort()
    unique = [roots[0]]
    for r in roots[1:]:
        if abs(r - unique[-1]) > 10.0 * cfg.root_tol * (1.0 + abs(unique[-1])):
            unique.append(r)
    return RootScan(tuple(unique), False, len(samples))


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)
