"""The full bracket scan, the reference that ``RootLine.brackets`` is checked
against: the condition at every scan sample, paired where it changes sign."""

from hjgen.errors import ConvergenceError, DomainError
from hjgen.fields import RootLine, level_samples
from hjgen.numerics import scan_abscissae


def scanned_line(level, lo, hi, cfg):
    """The :class:`RootLine` of ``level`` over [lo, hi] whose samples are
    its own level's scan, as a line that shares no table takes them."""
    return RootLine(level, level_samples(level, lo, hi, cfg), lo, hi, cfg)


def full_scan(g, lo, hi, n):
    """(q, g(q)) at the n + 1 scan samples of [lo, hi], in order; a sample
    where g raises :class:`DomainError` or :class:`ConvergenceError`, or is
    NaN, is left out."""
    samples = []
    for q in scan_abscissae(lo, hi, n):
        try:
            v = g(q)
        except (DomainError, ConvergenceError):
            continue
        if v == v:
            samples.append((q, v))
    return samples


def crossings(samples):
    """Adjacent (abscissa, value) sample pairs enclosing a sign change, each
    as a (lo, hi, g_lo, g_hi) bracket.

    A zero exactly at a sample closes the pair on its left, or opens the
    very first pair, so a root hit by the scan grid is reported once.
    """
    out = []
    for k, ((x1, v1), (x2, v2)) in enumerate(zip(samples, samples[1:])):
        if (
            (v1 < 0.0 < v2)
            or (v2 < 0.0 < v1)
            or (v2 == 0.0 and v1 != 0.0)
            or (v1 == 0.0 and v2 != 0.0 and k == 0)
        ):
            out.append((x1, x2, v1, v2))
    return out


def sloped(level, slope=None):
    """``level`` as a line's level: the pair (level(q), slope(q)), or
    (level(q), None) without ``slope``, which leaves every root to Brent's
    method."""
    return lambda q: (level(q), None if slope is None else slope(q))
