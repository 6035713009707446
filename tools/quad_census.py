"""Count root-condition evaluations per grid point, and tanh-sinh levels
and nodes per quadrature, on the shipped configs.

Usage::

    python3 tools/quad_census.py [SRC]

SRC is a directory holding an ``hjgen`` package whose row table has the
inline kernel (``hj._RowTable.t_at``) and whose roots are refined by
``numerics._refine`` and ``numerics._brent`` (default: the ``src`` of this
checkout).  The script solves every config in ``configs/`` in-process,
serially, in a fresh temporary directory, and then evaluates the
criterion-06 separated field (``hj.separation_action`` for a = 1, V = x^2,
E = 1 on 81 x 41 points of [0.1, 0.8] x [0, 0.4], t looping inside x).

For each solve it first prints the mean number of root-condition
evaluations per grid point (for the Hamilton-Jacobi configs, dp/dq
quadratures) split by stage:

- ``scan``: the bracket scan's samples;
- ``probes``: evaluations at a predicted root before Brent's method, in
  the root kernel ``numerics._refine`` but not in its Brent loop;
- ``brent``: evaluations inside the Brent loop ``numerics._brent``;

and the brackets refined per point (``_refine`` calls).  An evaluation
is one call of ``hj._RowTable.t_at`` inside ``hj.solve_grid``, or of
the problem's compiled phi' inside ``pq.solve_grid``; scan is the total
less the refinement.  It also prints how many of the solve's targets
found no brackets by bisection and fell back to the full scan
(``fields.RootLine.brackets`` returning ``None``).  Then, for each run, it prints, per quadrature path,
how many quadratures ran and how they ended, the level at which they
stopped, and the tanh-sinh nodes each visited:

- ``constraint``: the dp/dq integral of the HJ root condition, summed over
  an x row's node table (``hj._RowTable.t_at``);
- ``action``: the integral of p in the action taken by parts, over the same
  table (``hj._RowTable.momentum_integral`` under ``hj._action``);
- ``separation``: the separated integral of sqrt((E - V)/a), the same
  integral of p (``hj._RowTable.momentum_integral`` called by
  ``hj.separation_action``);
- ``generic``: ``numerics.integrate_adaptive`` on a callable integrand.

The row table runs its levels inline, so the script counts calls by
wrapping the table's methods and ``integrate_adaptive``, and gets each
quadrature's levels and nodes by replaying the call through the reference
loop of ``tests/test_hj.py`` (``tanh_sinh`` over a level-sum closure, which
the tests pin bitwise to the table's loop) on the same table.  A node of
the table paths is one tanh-sinh abscissa whatever the number of merged
terms it ended up in; those paths also print the mean number of merged
terms a quadrature summed, which is what it costs per q.  The
``separation`` path also prints how many calls it served in all, since a
row keeps its t-free integral of p per q and answers every later call for
that q without a quadrature.  A quadrature whose panel did not converge by
level 6 is halved and reported as ``split``.  Beside the package and its
tests (which import pytest and Hypothesis), only the standard library is
used; the package is wrapped from outside while the script runs.
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
def installed(census, hj, numerics, reference):
    """Wrap the row table's integrals and ``integrate_adaptive``; replay each
    quadrature through ``reference`` (the module ``tests/test_hj.py``)."""
    state = {"path": None}
    patches = []

    def replay(path, lo, hi, tol, level_sum, table=None):
        visited = []
        terms = [0]

        def counted(a, b, level):
            visited.append(level)
            if table is not None:
                terms[0] += len(table[a, b][level][2])
            return level_sum(a, b, level)

        outcome = "ok"
        try:
            reference.tanh_sinh(counted, lo, hi, tol)
        except Exception as exc:
            outcome = type(exc).__name__
        census.record(path, visited, outcome, terms[0])

    def row_integral(row, q, slope, path):
        # the quadrature as the kernel ran it, on the levels it built
        if row.lo != row.hi:
            level_sum = reference.reference_level_sum(row, q, slope)
            replay(path, row.lo, row.hi, row.tol, level_sum, row._panels)

    real_t_at = hj._RowTable.t_at

    def t_at(row, q):
        census.calls["constraint"] += 1
        try:
            return real_t_at(row, q)
        finally:
            try:
                row.prob._gp_fn(q)  # G'(q) comes before the integral
            except Exception:
                pass
            else:
                row_integral(row, q, True, "constraint")

    real_momentum = hj._RowTable.momentum_integral

    def momentum_integral(row, q):
        path = state["path"] or "separation"
        census.calls[path] += 1
        kept = q in row._momentum
        try:
            return real_momentum(row, q)
        finally:
            if not kept:
                row_integral(row, q, False, path)

    def under(real, path):
        def traced(*args):
            saved, state["path"] = state["path"], path
            try:
                return real(*args)
            finally:
                state["path"] = saved

        return traced

    real_adaptive = numerics.integrate_adaptive

    def integrate_adaptive(f, x0, x1, tol):
        try:
            return real_adaptive(f, x0, x1, tol)
        finally:
            if x0 < x1:  # a reversed call recurses into this wrapper

                def level_sum(a, b, level):
                    nodes = numerics.tanh_sinh_nodes(a, b, level)
                    return sum(w * numerics._sample(f, s) for s, w in nodes)

                replay("generic", x0, x1, tol, level_sum)

    patches.append((hj._RowTable, "t_at", t_at))
    patches.append((hj._RowTable, "momentum_integral", momentum_integral))
    patches.append((hj, "_action", under(hj._action, "action")))
    patches.append((numerics, "integrate_adaptive", integrate_adaptive))
    patches.append((hj, "integrate_adaptive", integrate_adaptive))
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, fn in patches:
        setattr(obj, name, fn)
    try:
        yield
    finally:
        for obj, name, fn in saved:
            setattr(obj, name, fn)


class RootCensus:
    """Root-condition evaluations by stage, brackets and full-scan
    fallbacks, over one solve."""

    def __init__(self):
        self.points = self.total = self.refine = self.brent = 0
        self.brackets = 0  # _refine calls
        self.targets = self.fallbacks = 0  # RootLine.brackets calls, and those returning None

    def report(self):
        if not self.points:
            return "  roots: no grid solved"
        n = self.points
        probes = self.refine - self.brent
        scan = self.total - self.refine
        return (
            f"  roots: {n:,} points; evaluations/point {self.total / n:.3f} "
            f"(scan {scan / n:.3f}, probes {probes / n:.3f}, brent {self.brent / n:.3f}); "
            f"brackets/point {self.brackets / n:.3f}\n"
            f"  fallbacks: {self.fallbacks:,} of {self.targets:,} targets"
        )


@contextlib.contextmanager
def counting_roots(census, modules):
    """Wrap the solvers' grid entry points, their root condition, the line
    bisection, and the root kernel and its Brent loop, counting the line
    level each is passed."""
    hj, pq, numerics = modules["hj"], modules["pq"], modules["numerics"]
    fields = modules["fields"]
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

    real_t_at = hj._RowTable.t_at

    def t_at(row, q):
        if active[0]:
            census.total += 1
        return real_t_at(row, q)

    real_brackets = fields.RootLine.brackets

    def brackets(line, target):
        found = real_brackets(line, target)
        if active[0]:
            census.targets += 1
            census.fallbacks += found is None
        return found

    real_refine, real_brent = numerics._refine, numerics._brent

    def refine(level, *args):
        census.brackets += 1
        return real_refine(counted(level, "refine"), *args)

    def brent(level, *args):
        return real_brent(counted(level, "brent"), *args)

    patches.append((hj, "solve_grid", solve_grid(hj.solve_grid)))
    patches.append((pq, "solve_grid", solve_grid(pq.solve_grid)))
    patches.append((hj._RowTable, "t_at", t_at))
    patches.append((fields.RootLine, "brackets", brackets))
    patches.append((numerics, "_brent", brent))  # _refine finds it in its module
    for mod in modules.values():
        if getattr(mod, "_refine", None) is real_refine:
            patches.append((mod, "_refine", refine))
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
    sys.path.insert(1, str(ROOT / "tests"))
    from hjgen import cli, fields, hj, numerics, pq

    import test_hj as reference

    modules = {"hj": hj, "pq": pq, "fields": fields, "numerics": numerics}
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for cfg in configs:
                census = Census(numerics)
                roots = RootCensus()
                with installed(census, hj, numerics, reference), counting_roots(roots, modules), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["solve", str(cfg)])
                print(census.report(f"{cfg.name} (solve exit {code})"))
                print(roots.report())
        finally:
            os.chdir(cwd)
    census = Census(numerics)
    osc = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
    solver = numerics.SolverConfig(quad_tol=1e-10)
    with installed(census, hj, numerics, reference):
        for i in range(81):
            for j in range(41):
                hj.separation_action(osc, 1.0, 0.1 + 0.7 * i / 80, 0.4 * j / 40, solver)
    print(census.report("criterion-06 separated field (81 x 41)"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
