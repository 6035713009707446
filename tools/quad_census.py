"""Count root-condition evaluations per grid point, and tanh-sinh levels
and nodes per quadrature, on the shipped configs.

Usage::

    python3 tools/quad_census.py [SRC]

SRC is a directory holding an ``hjgen`` package (default: the ``src`` of
this checkout).  The script solves every config in ``configs/`` in-process,
serially, in a fresh temporary directory, and then evaluates the
criterion-06 separated field (``hj.separation_action`` for a = 1, V = x^2,
E = 1 on 81 x 41 points of [0.1, 0.8] x [0, 0.4], t looping inside x).

For each solve it first prints the mean number of root-condition
evaluations per grid point (for the Hamilton-Jacobi configs, dp/dq
quadratures) split by stage:

- ``scan``: the bracket scan's samples;
- ``probes``: evaluations at a predicted root before Brent's method
  (``fields._refine``; 0 in a tree without it);
- ``brent``: evaluations inside ``numerics.solve_bracketed``;

and the brackets refined per point (``_refine`` calls, or
``solve_bracketed`` calls without it).  An evaluation is one call of
``hj._RowTable.dp_dq_integral`` inside ``hj.solve_grid``, or of the problem's
compiled phi' inside ``pq.solve_grid``; scan is the total less the
refinement.  Then, for each run, it prints, per quadrature path, how many
quadratures ran and how they ended, the level at which they stopped, and
the tanh-sinh nodes each visited:

- ``constraint``: the dp/dq integral of the HJ root condition, summed over
  an x row's node table (``hj._RowTable.dp_dq_integral``);
- ``action``: the correction integral of the action, over the same table
  (``hj._RowTable.correction_integral``);
- ``separation``: the separated integral of sqrt((E - V)/a), over the same
  table (``hj._RowTable.separation_integral``);
- ``generic``: ``numerics.integrate_adaptive`` on a callable integrand.

A node of the table paths is one tanh-sinh abscissa whatever the number of
merged terms it ended up in; those paths also print the mean number of
merged terms a quadrature summed, which is what it costs per q.  The
``separation`` path also prints how many calls it served in all, since a
row keeps its t-free value and answers every later call of the row without
a quadrature.  A quadrature whose panel did not converge by level 6 is
halved and reported as ``split``.  On a tree whose row table has no
``separation_integral`` the separated field counts under ``generic``.  Only
the standard library is used; the package is wrapped from outside while
the script runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("constraint", "action", "separation", "generic")


class Census:
    """Per-path outcome, stop-level and node counts of every quadrature."""

    def __init__(self, numerics):
        self.level_nodes = [len(numerics.tanh_sinh_nodes(0.0, 1.0, k)) for k in range(7)]
        self.outcomes = {p: Counter() for p in PATHS}
        self.levels = {p: Counter() for p in PATHS}
        self.nodes = {p: Counter() for p in PATHS}
        self.terms = Counter()  # merged terms summed, per table path
        self.calls = Counter()  # calls of each table path's integral

    def record(self, path, visited, outcome, terms):
        self.outcomes[path][outcome] += 1
        self.terms[path] += terms
        panels = visited.count(0)
        self.levels[path]["split" if panels > 1 else max(visited)] += 1
        self.nodes[path][sum(self.level_nodes[k] for k in visited)] += 1

    def report(self, title):
        lines = [title]
        for path in PATHS:
            total = sum(self.outcomes[path].values())
            served = ""
            if path == "separation" and self.calls[path]:
                served = f"; {self.calls[path] - total:,} of {self.calls[path]:,} calls ran no quadrature"
            if not total:
                lines.append(f"  {path}: 0 quadratures{served}")
                continue
            ends = ", ".join(f"{k} {n:,}" for k, n in sorted(self.outcomes[path].items()))
            nodes = self.nodes[path]
            mean = sum(k * n for k, n in nodes.items()) / total
            lines.append(f"  {path}: {total:,} quadratures ({ends}){served}")
            lines.append("    stop level: " + _histogram(self.levels[path], total))
            lines.append(
                f"    nodes/quad: mean {mean:.2f}, max {max(nodes)}; "
                + _histogram(nodes, total)
            )
            if path != "generic":
                lines.append(f"    merged terms/quad: mean {self.terms[path] / total:.2f}")
        return "\n".join(lines)


def _histogram(counter, total):
    keys = sorted(counter, key=lambda k: (isinstance(k, str), k))
    return ", ".join(f"{k}: {counter[k]:,} ({100.0 * counter[k] / total:.1f}%)" for k in keys)


@contextlib.contextmanager
def installed(census, hj, numerics):
    """Wrap the level loop in both namespaces that call it, and the table's paths."""
    state = {"path": None, "cache": None}
    patches = []

    def level_loop(real, fixed_path):
        def traced(level_sum, lo, hi, tol):
            visited = []
            terms = [0]
            cache = None if fixed_path else state["cache"]

            def counted(a, b, level):
                visited.append(level)
                value = level_sum(a, b, level)
                if cache is not None:
                    terms[0] += len(cache[(a, b, level)][2])
                return value

            outcome = "ok"
            try:
                return real(counted, lo, hi, tol)
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                census.record(fixed_path or state["path"], visited, outcome, terms[0])

        return traced

    def table_path(real, path, cache_name):
        def traced(row, q, tol):
            census.calls[path] += 1
            state["path"], state["cache"] = path, getattr(row, cache_name)
            return real(row, q, tol)

        return traced

    patches.append((numerics, "tanh_sinh", level_loop(numerics.tanh_sinh, "generic")))
    patches.append((hj, "tanh_sinh", level_loop(hj.tanh_sinh, None)))
    for name, path, cache in (
        ("dp_dq_integral", "constraint", "_dq"),
        ("correction_integral", "action", "_dx"),
        ("separation_integral", "separation", "_dq"),
    ):
        real = getattr(hj._RowTable, name, None)  # no separation_integral in older trees
        if real is not None:
            patches.append((hj._RowTable, name, table_path(real, path, cache)))
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, fn in patches:
        setattr(obj, name, fn)
    try:
        yield
    finally:
        for obj, name, fn in saved:
            setattr(obj, name, fn)


class RootCensus:
    """Root-condition evaluations by stage, and brackets, over one solve."""

    def __init__(self):
        self.points = self.total = self.refine = self.brent = 0
        self.brackets = self.refined = 0  # solve_bracketed and _refine calls

    def report(self):
        if not self.points:
            return "  roots: no grid solved"
        n = self.points
        probes = self.refine - self.brent if self.refine else 0
        scan = self.total - (self.refine or self.brent)
        return (
            f"  roots: {n:,} points; evaluations/point {self.total / n:.3f} "
            f"(scan {scan / n:.3f}, probes {probes / n:.3f}, brent {self.brent / n:.3f}); "
            f"brackets/point {(self.refined or self.brackets) / n:.3f}"
        )


@contextlib.contextmanager
def counting_roots(census, modules):
    """Wrap the solvers' grid entry points, their root condition and refiners."""
    hj, pq, fields = modules["hj"], modules["pq"], modules["fields"]
    active = [False]
    patches = []

    def counted(g, attr):
        def inner(*args):
            setattr(census, attr, getattr(census, attr) + 1)
            return g(*args)

        return inner

    def solve_grid(real):
        def traced(prob, *args, **kwargs):
            real_phip = getattr(prob, "_phip_fn", None)  # pq problems only
            if real_phip is not None:
                prob._phip_fn = counted(real_phip, "total")
            active[0] = True
            try:
                field = real(prob, *args, **kwargs)
            finally:
                active[0] = False
                if real_phip is not None:
                    prob._phip_fn = real_phip
            n1, n2 = field.shape
            census.points += n1 * n2
            return field

        return traced

    real_integral = hj._RowTable.dp_dq_integral

    def dp_dq_integral(row, q, tol):
        if active[0]:
            census.total += 1
        return real_integral(row, q, tol)

    real_brent = modules["numerics"].solve_bracketed

    def solve_bracketed(g, br, cfg):
        census.brackets += 1
        return real_brent(counted(g, "brent"), br, cfg)

    patches.append((hj, "solve_grid", solve_grid(hj.solve_grid)))
    patches.append((pq, "solve_grid", solve_grid(pq.solve_grid)))
    patches.append((hj._RowTable, "dp_dq_integral", dp_dq_integral))
    for mod in modules.values():
        if getattr(mod, "solve_bracketed", None) is real_brent:
            patches.append((mod, "solve_bracketed", solve_bracketed))
    real_refine = getattr(fields, "_refine", None)
    if real_refine is not None:
        def refine(g, br, guess, cfg):
            census.refined += 1
            return real_refine(counted(g, "refine"), br, guess, cfg)

        patches.append((fields, "_refine", refine))
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, fn in patches:
        setattr(obj, name, fn)
    try:
        yield
    finally:
        for obj, name, fn in reversed(saved):
            setattr(obj, name, fn)


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    sys.path.insert(0, str(src))
    from hjgen import cli, fields, hj, numerics, pq

    modules = {"hj": hj, "pq": pq, "fields": fields, "numerics": numerics}
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for cfg in configs:
                census = Census(numerics)
                roots = RootCensus()
                with installed(census, hj, numerics), counting_roots(roots, modules), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["solve", str(cfg)])
                print(census.report(f"{cfg.name} (solve exit {code})"))
                print(roots.report())
        finally:
            os.chdir(cwd)
    census = Census(numerics)
    osc = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
    solver = numerics.SolverConfig(quad_tol=1e-10)
    with installed(census, hj, numerics):
        for i in range(81):
            for j in range(41):
                hj.separation_action(osc, 1.0, 0.1 + 0.7 * i / 80, 0.4 * j / 40, solver)
    print(census.report("criterion-06 separated field (81 x 41)"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
