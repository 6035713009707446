"""Exception types shared across the package."""


class HjgenError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HjgenError):
    """Malformed expression source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.message = message
        self.position = position


class EvalError(HjgenError):
    """Evaluation failed for a non-domain reason (e.g. unbound variable)."""


class DomainError(HjgenError):
    """A real-valued operation left its domain.

    Covers sqrt/ln/asin/acos of out-of-range arguments, division by zero,
    momentum arguments below the admissibility margin and non-finite
    integrand samples.  ``where`` carries the offending abscissa when the
    failure happened at a known point of the integration axis.
    """

    def __init__(self, message: str, where: float | None = None):
        super().__init__(message if where is None else f"{message} (at {where!r})")
        self.where = where


class ConvergenceError(HjgenError):
    """A budget ran out; ``bracket`` is a root solve's last (lo, hi, g_lo, g_hi), or None."""

    def __init__(self, message: str, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConfigError(HjgenError):
    """Bad run configuration or field file; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyReportError(HjgenError):
    """A report was requested but no usable interior point exists."""
