"""General (arbitrary-function) solutions of first-order PDEs F(u_x, u_y) = 0
with an explicit derivative branch, their x- and y-scaled variants, and the
one-dimensional Hamilton-Jacobi equation a(x) p^2 + V(x) - q = 0, built via a
Legendre-type transformation and verified by finite-difference residuals."""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyReportError,
    EvalError,
    HjgenError,
    ParseError,
)
from .expr import differentiate, evaluate, parse, to_string
from .fields import ActionField, SolutionField, Status, read_field_csv, write_field_csv
from .hj import HJProblem
from .numerics import SolverConfig, integrate_adaptive
from .pq import PQProblem
from .verify import ResidualReport, compare_oracle, finite_diff_partials, residual_report

__all__ = [
    "HjgenError",
    "ParseError",
    "EvalError",
    "DomainError",
    "ConvergenceError",
    "ConfigError",
    "EmptyReportError",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
    "SolverConfig",
    "integrate_adaptive",
    "Status",
    "SolutionField",
    "ActionField",
    "read_field_csv",
    "write_field_csv",
    "PQProblem",
    "HJProblem",
    "ResidualReport",
    "finite_diff_partials",
    "residual_report",
    "compare_oracle",
]

__version__ = "0.1.0"
