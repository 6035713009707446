"""Command-line front-end.

Subcommands::

    hjgen solve <cfg>                          solve, write field CSV + report
    hjgen verify <cfg> <csv>                   recheck a stored field's residual
    hjgen oracle <name> <csv> [--param k=v]    compare a field to a closed form
    hjgen diffcheck <expr> <var> [--n --seed]  symbolic vs finite-difference

Exit codes: 0 success, 1 numeric-quality failure, 2 input/config failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys

from . import expr, hj
from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, EmptyReportError, EvalError, HjgenError
from .fields import ActionField, read_field_csv, solve_grid, write_field_csv
from .numerics import SolverConfig, central_difference
from .verify import ResidualReport, compare_oracle, residual_report

__all__ = ["main", "entrypoint"]

ORACLES = ("free_particle", "harmonic", "separation")


def _solve_field(cfg: RunConfig, stats=None):
    return solve_grid(cfg.problem, cfg.axis1, cfg.axis2, cfg.q_range, cfg.solver, stats)


def _report_text(cfg: RunConfig, field, report: ResidualReport | None) -> tuple[str, bool]:
    n1, n2 = field.shape
    resolved = field.resolved_fraction()
    lines = [
        f"kind: {'hj' if cfg.is_hj else 'pq/' + cfg.problem.kind}",
        f"grid: {n1} x {n2}",
        f"resolved_fraction: {resolved:.6f}",
    ]
    if report is None:
        lines.append("residual: no usable interior point")
        ok = False
    else:
        i, j = report.worst_point
        lines.extend(
            [
                f"residual_max_abs: {report.max_abs:.6e}",
                f"residual_mean_abs: {report.mean_abs:.6e}",
                f"worst_point: index ({i}, {j}) at "
                f"({field.axis1[i]:.6g}, {field.axis2[j]:.6g})",
                f"h_used: {report.h_used:.6g}",
            ]
        )
        ok = report.max_abs <= cfg.max_residual
    ok = ok and resolved >= cfg.min_resolved
    lines.append(
        f"thresholds: min_resolved={cfg.min_resolved:.6g} "
        f"max_residual={cfg.max_residual:.6g}"
    )
    lines.append(f"status: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", ok


def _emit_report(cfg: RunConfig, field, write_file: bool) -> int:
    try:
        report = residual_report(cfg.problem, field)
    except EmptyReportError:
        report = None
    text, ok = _report_text(cfg, field, report)
    sys.stdout.write(text)
    if write_file and cfg.report_path:
        with open(cfg.report_path, "w") as fh:
            fh.write(text)
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.field_path is None:
        raise ConfigError("[output] must name a field CSV path for solve")
    field = _solve_field(cfg)
    write_field_csv(field, cfg.field_path)
    return _emit_report(cfg, field, write_file=True)


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    field = read_field_csv(args.csv)
    if cfg.is_hj != isinstance(field, ActionField):
        raise ConfigError("field CSV kind does not match the configured problem")
    # print-only: rechecking a stored field must not clobber the solve report
    return _emit_report(cfg, field, write_file=False)


def _param_map(pairs) -> dict[str, str]:
    out = {}
    for item in pairs or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects k=v, got {item!r}")
        out[key] = value
    return out


def _param_float(params, key, default) -> float:
    raw = params.pop(key, None)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"oracle parameter {key!r} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"oracle parameter {key!r} must be finite, got {raw!r}")
    return value


def _oracle_fn(name: str, params: dict[str, str], field):
    if name == "free_particle":
        a = _param_float(params, "a", 1.0)
        c = _param_float(params, "C", 1.0)

        def free(x, t):
            return x * x / (4.0 * a * (c - t))

        return free
    if name == "harmonic":
        g_fn = expr.compile_function(expr.parse(params.pop("G", "0")), ("q",))
        lookup = {}
        for i, x in enumerate(field.axis1):
            for j, t in enumerate(field.axis2):
                lookup[(x, t)] = (i, j)

        def harmonic(x, t):
            i, j = lookup[(x, t)]
            q = field.q[i][j]
            return (
                q * t
                + 0.5 * x * math.sqrt(q - x * x)
                + 0.5 * q * math.asin(x / math.sqrt(q))
                - g_fn(q)
            )

        return harmonic
    a = expr.parse(params.pop("a", "1"))
    v = expr.parse(params.pop("V", "0"))
    c = _param_float(params, "C", 1.0)
    x0 = _param_float(params, "x0", 0.0)
    prob = hj.HJProblem(a, v, "0", sigma=1, x0=x0)
    quad = SolverConfig()

    def separation(x, t):
        return hj.separation_action(prob, c, x, t, quad)

    return separation


def _cmd_oracle(args) -> int:
    if args.name not in ORACLES:
        raise ConfigError(f"unknown oracle {args.name!r}; expected one of {', '.join(ORACLES)}")
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold!r}")
    field = read_field_csv(args.csv)
    params = _param_map(args.param)
    oracle = _oracle_fn(args.name, params, field)
    if params:
        raise ConfigError(f"unknown oracle parameter {sorted(params)[0]!r}")
    max_err, mean_err = compare_oracle(field, oracle)
    print(f"oracle: {args.name}")
    print(f"max_abs_err: {max_err:.6e}")
    print(f"mean_abs_err: {mean_err:.6e}")
    print(f"threshold: {args.threshold:.6g}")
    ok = max_err <= args.threshold
    print(f"status: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_diffcheck(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    e = expr.parse(args.expr)
    names = sorted(expr.variables(e) | {args.var})
    f = expr.compile_function(e, tuple(names))
    df = expr.compile_function(expr.differentiate(e, args.var), tuple(names))
    k = names.index(args.var)
    rng = random.Random(args.seed)
    checked = failures = attempts = 0
    while checked < args.n and attempts < 200 * args.n:
        attempts += 1
        values = [rng.uniform(-4.0, 4.0) for _ in names]
        h = 1e-6 * (1.0 + abs(values[k]))
        try:
            value = f(*values)
            sym = df(*values)
            fd = central_difference(lambda v: f(*values[:k], v, *values[k + 1 :]), values[k], h)
        except (DomainError, EvalError):
            continue
        if not (math.isfinite(value) and math.isfinite(sym) and math.isfinite(fd)):
            continue
        if abs(value) > 1e6:  # FD oracle loses validity on badly scaled samples
            continue
        checked += 1
        if abs(sym - fd) > 1e-6 * (1.0 + abs(sym)):
            failures += 1
            print(
                f"mismatch at {dict(zip(names, values))}: symbolic {sym!r} vs finite-difference {fd!r}",
                file=sys.stderr,
            )
    if checked < args.n:
        print(
            f"error: only {checked} of {args.n} requested in-domain points found",
            file=sys.stderr,
        )
        return 2
    print(f"diffcheck: {checked} points, {failures} mismatches")
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    Parsing leaves it unchanged, so every call of :func:`main` shares it.
    """
    parser = argparse.ArgumentParser(
        prog="hjgen",
        description="General-solution solver for first-order PDEs and the 1-D Hamilton-Jacobi equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="recheck a stored field CSV")
    p_verify.add_argument("config")
    p_verify.add_argument("csv")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="compare a field CSV to a closed form")
    p_oracle.add_argument("name")
    p_oracle.add_argument("csv")
    p_oracle.add_argument("--param", action="append", metavar="K=V")
    p_oracle.add_argument("--threshold", type=float, default=1e-8)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_diff = sub.add_parser("diffcheck", help="symbolic vs finite-difference derivative")
    p_diff.add_argument("expr")
    p_diff.add_argument("var")
    p_diff.add_argument("--n", type=int, default=100)
    p_diff.add_argument("--seed", type=int, default=20240817)
    p_diff.set_defaults(func=_cmd_diffcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (HjgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit codes stop at 2: surprises are input failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
