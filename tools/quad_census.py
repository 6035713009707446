"""Count root-condition evaluations per grid point, and the quadrature
rules, levels and nodes per quadrature, on the shipped configs.

Usage::

    python3 tools/quad_census.py [SRC]

SRC is a directory holding an ``hjgen`` package with
``numerics.SolveStats`` (default: the ``src`` of this checkout); without
one the script exits 2.  It solves every config in ``configs/``
in-process, serially, through the solve of ``hjgen solve`` with a
``SolveStats`` record, and prints the record; each header gives the exit
code ``hjgen solve`` would return, and no file is written.  Then it
evaluates the criterion-06 separated field (``hj.separation_action`` for
a = 1, V = x^2, E = 1 on 81 x 41 points of [0.1, 0.8] x [0, 0.4], t
looping inside x), reading after each x the counts of the row table its
calls shared (``hj._row_table``).

For each run it prints, per quadrature path, how many quadratures ran and
how they ended (``ok``, or ``failed`` when one raised), and which rule
took them: a row table tries Clenshaw-Curtis first and stops at n = 16 or
n = 32, or falls back to tanh-sinh.  For the fallbacks that returned it
prints the tanh-sinh level at which they stopped and the tanh-sinh nodes
they visited.  The paths are:

- ``constraint``: the dp/dq integral of the Hamilton-Jacobi root
  condition, one per level evaluation;
- ``action``: the integral of p in the action taken by parts, once per
  root;
- ``separation``: the same integral of p in the separated solution.  It
  also prints how many calls it served in all, since a row keeps its
  t-free integral of p per q and answers every later call for that q
  without a quadrature.

A node is one tanh-sinh abscissa whatever the number of merged terms it
ended up in, and each path also prints the mean number of merged terms a
quadrature summed, of both rules and of each, which is what it costs per
q.  A fallback whose panel did not converge by level 6 is halved and
reported as ``split``; its nodes are not counted.  A package from before
the Clenshaw-Curtis rule reports every quadrature as a fallback.  For each
solve it then prints the mean number of root-condition evaluations per
grid point (for the Hamilton-Jacobi configs, dp/dq quadratures) split by
stage:

- ``scan``: the bracket scan's samples;
- ``probes``: evaluations at a predicted root before Brent's method;
- ``brent``: evaluations in Brent's method;

then the points whose first probe landed within ``resid_tol`` (``first
probe landed``; a package that does not count them prints none), the
brackets refined per point, and its grid points per status.
The package counts all of this itself; the script only reads the counts.
"""

from __future__ import annotations

import contextlib
import io
import sys
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _histogram(counter, total):
    keys = sorted(counter, key=lambda k: (isinstance(k, str), k))
    return ", ".join(f"{k}: {counter[k]:,} ({100.0 * counter[k] / total:.1f}%)" for k in keys)


def _path(stats, name):
    """(slots, Clenshaw-Curtis terms, tanh-sinh terms) of the ``dpdq`` or
    ``p`` path; an older record has no Clenshaw-Curtis terms."""
    return getattr(stats, f"{name}_quads"), getattr(stats, f"{name}_cc_terms", 0), getattr(stats, f"{name}_terms")


def quadratures(path, quads, cc_terms, terms, nodes, served=""):
    """The report lines of one path's quadrature slots (tanh-sinh stop
    levels 0-6, split, failed, then Clenshaw-Curtis n = 16 and n = 32) and
    merged terms of each rule; ``nodes[l]``: tanh-sinh nodes through level l."""
    fallback, (cc16, cc32) = quads[:9], (list(quads[9:]) + [0, 0])[:2]
    *returned, failed = fallback
    total = sum(fallback) + cc16 + cc32
    if not total:
        return [f"  {path}: 0 quadratures{served}"]
    ok = total - failed
    ends = ", ".join(f"{k} {n:,}" for k, n in (("ok", ok), ("failed", failed)) if n)
    lines = [f"  {path}: {total:,} quadratures ({ends}){served}"]
    rules = (("Clenshaw-Curtis n=16", cc16), ("n=32", cc32), ("tanh-sinh fallbacks", sum(fallback)))
    lines.append("    rule: " + ", ".join(f"{k} {n:,} ({100.0 * n / total:.1f}%)" for k, n in rules))
    if not ok:
        return lines
    *stops, split = returned
    levels = {level: n for level, n in enumerate(stops) if n}
    sized = {nodes[level]: n for level, n in levels.items()}
    halved = {"split": split} if split else {}
    if levels or halved:
        lines.append("    fallback stop level: " + _histogram({**levels, **halved}, sum(returned)))
        summary = ""
        if sized:
            mean = sum(k * n for k, n in sized.items()) / sum(sized.values())
            summary = f"mean {mean:.2f}, max {max(sized)}; "
        lines.append(f"    fallback nodes/quad: {summary}" + _histogram({**sized, **halved}, sum(returned)))
    lines.append(
        f"    merged terms/quad: mean {(cc_terms + terms) / ok:.2f}"
        f" (Clenshaw-Curtis {cc_terms / ok:.2f}, tanh-sinh {terms / ok:.2f})"
    )
    return lines


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from hjgen.numerics import SolveStats
    except ImportError:
        print(f"error: {src} holds no hjgen package with numerics.SolveStats", file=sys.stderr)
        return 2
    from hjgen import cli, config, hj, numerics

    nodes = list(accumulate(len(numerics.tanh_sinh_nodes(0.0, 1.0, k)) for k in range(7)))
    none = ([0] * 11, 0, 0)

    def report(title, constraint=none, action=none, separation=none, served=""):
        lines = [title, *quadratures("constraint", *constraint, nodes)]
        lines += quadratures("action", *action, nodes)
        lines += quadratures("separation", *separation, nodes, served)
        print("\n".join(lines))

    for path in sorted((ROOT / "configs").glob("*.cfg")):
        run = config.load_config(str(path))
        stats = SolveStats()
        field = cli._solve_field(run, stats)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli._emit_report(run, field, write_file=False)
        report(f"{path.name} (solve exit {code})", _path(stats, "dpdq"), _path(stats, "p"))
        n = stats.points
        landed = getattr(stats, "landed", None)  # an older record does not count them
        print(
            f"  roots: {n:,} points; evaluations/point {(stats.scan + stats.probes + stats.brent) / n:.3f} "
            f"(scan {stats.scan / n:.3f}, probes {stats.probes / n:.3f}, brent {stats.brent / n:.3f}); "
            + ("" if landed is None else f"first probe landed {landed:,} ({100.0 * landed / n:.1f}%); ")
            + f"brackets/point {stats.refined / n:.3f}"
        )
        statuses = getattr(stats, "statuses", None)  # an older record has none
        if statuses:
            print("  statuses: " + ", ".join(f"{k} {v:,}" for k, v in statuses.items()))
    stats = SolveStats()
    osc = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
    solver = numerics.SolverConfig(quad_tol=1e-10)
    for i in range(81):
        x = 0.1 + 0.7 * i / 80
        for j in range(41):
            hj.separation_action(osc, 1.0, x, 0.4 * j / 40, solver)
        hj._row_table(osc, x, solver.quad_tol).add_counts(stats)
    calls, ran = 81 * 41, sum(stats.p_quads)
    report("criterion-06 separated field (81 x 41)", separation=_path(stats, "p"),
           served=f"; {calls - ran:,} of {calls:,} calls ran no quadrature")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
