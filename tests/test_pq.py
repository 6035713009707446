import collections
import functools
import math
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjgen import expr, fields, pq
from hjgen.config import load_config
from hjgen.errors import DomainError
from hjgen.fields import RootLine, Status, sweep
from hjgen.numerics import SolverConfig, SolveStats, central_difference
from hjgen.verify import finite_diff_partials, residual_report
from scan_reference import scanned_line

CFG = SolverConfig(scan_points=24)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def axis(lo, hi, n):
    return [hi if i == n - 1 else lo + (hi - lo) * i / (n - 1) for i in range(n)]


def solve_one(prob, x, y, q_range, cfg):
    """(root, status) of the point (x, y), solved cold as a 1 x 1 grid."""
    field = pq.solve_grid(prob, [x], [y], q_range, cfg)
    return field.q[0][0], field.status[0][0]


def line_solve(prob, x, y, q_range, cfg, warm=None):
    """(root, status) at (x, y) from the RootLine of its grid line (the y
    column for scaled_y), warm-started at ``warm``, without a predictor."""
    v, target = (y, x) if prob.lines_are_columns else (x, y)
    (line,), _ = prob.lines([v], *q_range, cfg)
    if line is None:
        return None, Status.DOMAIN_FAIL
    return line[0].solve(target, warm)[:2]


def test_problem_field_validation():
    with pytest.raises(ValueError):
        pq.PQProblem("weird", expr.as_expr("1"), expr.as_expr("q"), expr.as_expr("q"))
    with pytest.raises(ValueError):
        pq.PQProblem("explicit", phi=expr.as_expr("q"))  # missing scale and gfun
    with pytest.raises(ValueError, match="explicit problems have scale 1"):
        pq.PQProblem(
            "explicit",
            scale=expr.as_expr("x"),
            phi=expr.as_expr("q"),
            gfun=expr.as_expr("q"),
        )
    with pytest.raises(ValueError):
        pq.PQProblem("scaled_x", scale=expr.as_expr("x"), phi=expr.as_expr("q"))
    with pytest.raises(ValueError):
        pq.PQProblem("scaled_y", scale=expr.as_expr("y"), gfun=expr.as_expr("p"))  # no phi


def test_solve_grid_rejects_a_non_finite_axis():
    # an infinite y would reach the CSV as 'inf', which read_field_csv rejects
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    for xs, ys in (([0.2], [0.0, math.inf]), ([math.nan], [0.5])):
        with pytest.raises(ValueError, match="axis values must be finite"):
            pq.solve_grid(prob, xs, ys, (0.0, 10.0), CFG)


def test_constraint_linear_case():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    assert pq.constraint(prob, 1.0, 1.0, 3.0) == pytest.approx(0.0, abs=1e-15)


def test_constraint_sqrt_branch():
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    # x f'(q) + y - phi'(q) = 2 * 1/(2 sqrt(1)) + 0 - 1
    assert pq.constraint(prob, 2.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_constraint_degenerate_scaled_x():
    # f(x) = x gives the ratio H = 1, and G' = phi' makes the condition vanish
    prob = pq.PQProblem.scaled_x("x", "q^2", "q^2")
    for q in (0.1, 1.0, 7.5):
        assert pq.constraint(prob, 5.0, 0.0, q) == pytest.approx(0.0, abs=1e-12)


def test_one_point_grid_linear_root():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    q, status = solve_one(prob, 1.0, 1.0, (0.0, 10.0), CFG)
    assert status is Status.RESOLVED
    assert q == pytest.approx(3.0, abs=1e-10)


def test_one_point_grid_sqrt_closed_form():
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    q, status = solve_one(prob, 2.0, 0.5, (1e-6, 10.0), CFG)
    assert status is Status.RESOLVED
    assert q == pytest.approx(4.0, abs=1e-9)  # x^2 / (4 (1-y)^2)


def test_one_point_grid_validates_range():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    with pytest.raises(ValueError):
        solve_one(prob, 1.0, 1.0, (3.0, 3.0), CFG)


@pytest.mark.parametrize(
    "prob",
    [pq.PQProblem.explicit("2*q - 1", "q^2/2"), pq.PQProblem.scaled_x("0", "q^2", "q^2")],
    ids=["explicit", "scale_raises_on_every_line"],
)
def test_solve_grid_validates_range(prob):
    # the range is checked before any line: a reversed one never reaches
    # RootLine, and a problem whose H raises everywhere still reports it
    for q_range in ((5.0, 1.0), (3.0, 3.0)):
        with pytest.raises(ValueError, match="solve_grid requires q_lo < q_hi"):
            pq.solve_grid(prob, [0.5, 1.0], [0.0, 1.0], q_range, CFG)


@pytest.mark.parametrize("q_range", [(0.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0), (0.0, math.nan)])
def test_solvers_reject_a_non_finite_q_range(q_range):
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    with pytest.raises(ValueError, match="solve_grid requires q_lo < q_hi, both finite"):
        pq.solve_grid(prob, [0.5, 1.0], [0.0, 1.0], q_range, CFG)


def test_one_point_grid_out_of_range():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    q, status = solve_one(prob, 1.0, 1.0, (10.0, 20.0), CFG)
    assert q is None and status is Status.NO_ROOT


def test_solution_value_linear():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    u = pq.solution_value(prob, 1.0, 1.0, 3.0)
    assert u == pytest.approx(3.5, abs=1e-14)  # (2x+y)^2/2 - x


def test_solution_value_sqrt():
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    assert pq.solution_value(prob, 2.0, 0.5, 4.0) == pytest.approx(2.0, abs=1e-14)


def test_solution_value_at_origin_is_minus_phi():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    for q in (0.3, 1.0, 2.5):
        assert pq.solution_value(prob, 0.0, 0.0, q) == pytest.approx(
            -q * q / 2.0, abs=1e-14
        )


def test_solve_grid_linear_two_by_two():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    field = pq.solve_grid(prob, [0.0, 1.0], [0.0, 1.0], (0.0, 10.0), CFG)
    got = [[field.q[i][j] for j in range(2)] for i in range(2)]
    assert got[0][0] == pytest.approx(0.0, abs=1e-10)
    assert got[0][1] == pytest.approx(1.0, abs=1e-10)
    assert got[1][0] == pytest.approx(2.0, abs=1e-10)
    assert got[1][1] == pytest.approx(3.0, abs=1e-10)
    assert field.resolved_fraction() == 1.0


def test_solve_grid_power_law_closed_form():
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    field = pq.solve_grid(prob, axis(0.5, 1.5, 5), axis(0.0, 0.5, 5), (1e-3, 10.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i, x in enumerate(field.axis1):
        for j, y in enumerate(field.axis2):
            assert field.q[i][j] == pytest.approx(
                x * x / (4.0 * (1.0 - y) ** 2), abs=1e-9
            )


def test_solve_grid_all_no_root():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    field = pq.solve_grid(prob, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], (10.0, 20.0), CFG)
    assert all(s is Status.NO_ROOT for row in field.status for s in row)
    assert field.resolved_fraction() == 0.0


def test_degenerate_constraint_keeps_warm_value():
    prob = pq.PQProblem.scaled_x("x", "q^2", "q^2")
    # y = 0 row: the condition vanishes identically
    q, status = solve_one(prob, 5.0, 0.0, (0.0, 10.0), CFG)
    assert status is Status.MULTI_ROOT
    assert q == pytest.approx(5.0)  # cold start takes the range midpoint
    q, status = line_solve(prob, 5.0, 0.0, (0.0, 10.0), CFG, warm=2.25)
    assert status is Status.MULTI_ROOT and q == 2.25
    # y != 0: the condition is the non-zero constant y, no root anywhere
    q, status = solve_one(prob, 5.0, 0.7, (0.0, 10.0), CFG)
    assert q is None and status is Status.NO_ROOT


def test_multi_root_continuation_picks_nearest():
    # f = sin(q), phi = 0: condition x cos(q) + y = 0 has many roots
    prob = pq.PQProblem.explicit("sin(q)", "0")
    cfg = SolverConfig(scan_points=64)
    expected = [math.acos(-0.3), 2 * math.pi - math.acos(-0.3)]
    expected += [r + 2 * math.pi for r in expected]
    q, status = line_solve(prob, 1.0, 0.3, (0.0, 12.0), cfg, warm=4.0)
    assert status is Status.MULTI_ROOT
    assert q == pytest.approx(expected[1], abs=1e-9)
    q, status = line_solve(prob, 1.0, 0.3, (0.0, 12.0), cfg, warm=8.5)
    assert q == pytest.approx(expected[2], abs=1e-9)


def test_domain_failure_marks_point():
    # sqrt branch: f'(q) fails for q < 0, whole range below zero
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    q, status = solve_one(prob, 1.0, 0.0, (-10.0, -1.0), CFG)
    assert q is None and status is Status.DOMAIN_FAIL


def test_constraint_is_q_derivative_of_solution():
    rng = random.Random(42)
    problems = [
        pq.PQProblem.explicit("sqrt(q)", "q^2/2"),
        pq.PQProblem.scaled_x("1 + x^2", "q^2", "q^3/6"),
        pq.PQProblem.scaled_y("2 + sin(y)", "p^2", "p^2/2"),
    ]
    for prob in problems:
        for _ in range(50):
            x = rng.uniform(0.2, 2.0)
            y = rng.uniform(0.1, 1.5)
            q = rng.uniform(0.5, 3.0)
            g = pq.constraint(prob, x, y, q)
            h = 1e-6 * (1.0 + abs(q))
            fd = central_difference(
                lambda v: pq.solution_value(prob, x, y, v), q, h
            )
            assert abs(g - fd) <= 1e-6 * (1.0 + abs(g))


def test_scaled_x_field_identities():
    # non-constant scale: u_x = H'(x) G(q), u_y = q with H = x / (1 + x^2);
    # second-order truncation on this window stays well under 2e-3
    prob = pq.PQProblem.scaled_x("1 + x^2", "q^2", "q^3/3")
    field = pq.solve_grid(prob, axis(0.5, 1.5, 41), axis(0.1, 0.6, 41), (0.1, 5.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i in range(1, 40):
        for j in range(1, 40):
            ds = finite_diff_partials(field, i, j)
            q = field.q[i][j]
            hp = prob._ratiop_fn(field.axis1[i])
            assert abs(ds[0] - hp * q * q) < 2e-3
            assert abs(ds[1] - q) < 2e-3


def test_scaled_y_field_identities():
    # h(y) = 1 so the ratio is y itself: u_x = p, u_y = G(p); the exact field
    # is u = x^2/(2(1-2y)), whose y-curvature bounds the tolerance below
    prob = pq.PQProblem.scaled_y("1", "p^2", "p^2/2")
    field = pq.solve_grid(prob, axis(0.5, 1.0, 41), axis(0.0, 0.2, 41), (0.0, 25.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i, x in enumerate(field.axis1):
        for j, y in enumerate(field.axis2):
            assert field.q[i][j] == pytest.approx(x / (1.0 - 2.0 * y), abs=1e-8)
    for i in range(1, 40):
        for j in range(1, 40):
            ds = finite_diff_partials(field, i, j)
            p = field.q[i][j]
            assert abs(ds[0] - p) < 1e-6
            assert abs(ds[1] - p * p) < 3e-3


def test_phi_shift_gauge():
    base = pq.PQProblem.explicit("sqrt(q)", "q")
    shifted = pq.PQProblem.explicit("sqrt(q)", "q + 5")
    f1 = pq.solve_grid(base, axis(0.5, 1.5, 9), axis(0.0, 0.5, 9), (1e-3, 10.0), CFG)
    f2 = pq.solve_grid(shifted, axis(0.5, 1.5, 9), axis(0.0, 0.5, 9), (1e-3, 10.0), CFG)
    for i in range(9):
        for j in range(9):
            assert f2.q[i][j] == f1.q[i][j]  # bit-identical roots
            assert f2.value[i][j] == pytest.approx(f1.value[i][j] - 5.0, abs=1e-12)


def test_solve_grid_independent_of_earlier_solves():
    # a problem that has solved other grids gives a fresh problem's field bitwise
    for args, xs, ys, q_range in (
        (("explicit", "sqrt(q)", "q"), axis(0.5, 1.5, 9), axis(0.0, 0.5, 9), (1e-3, 10.0)),
        (("scaled_y", "1 + y^2", "p^2", "p^2/2"), axis(0.5, 1.0, 9), axis(0.0, 0.2, 7), (0.0, 25.0)),
    ):
        kind, *exprs = args
        fresh = pq.solve_grid(getattr(pq.PQProblem, kind)(*exprs), xs, ys, q_range, CFG)
        used = getattr(pq.PQProblem, kind)(*exprs)
        pq.solve_grid(used, xs[::2], ys[1::2], q_range, CFG)
        pq.solve_grid(used, ys, xs, q_range, CFG)
        field = pq.solve_grid(used, xs, ys, q_range, CFG)
        assert field.resolved_fraction() == 1.0
        assert field.q == fresh.q
        assert field.value == fresh.value
        assert field.status == fresh.status


def test_scaled_y_column_lines_match_point_solves():
    # scaled_y lines are y columns, each swept along x; the field matches
    # each point's own solve (scan plus Brent's method from the coarse
    # bracket) to 1e-10
    prob = pq.PQProblem.scaled_y("1 + y^2", "p^2", "p^2/2")
    xs, ys = axis(0.5, 1.0, 13), axis(0.0, 0.2, 11)
    field = pq.solve_grid(prob, xs, ys, (0.0, 25.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            warm = field.q[i - 1][j] if i else (field.q[0][j - 1] if j else None)
            q, status = line_solve(prob, x, y, (0.0, 25.0), CFG, warm)
            assert status is field.status[i][j]
            assert abs(q - field.q[i][j]) <= 1e-10


def test_scaled_y_continues_along_its_lines():
    # a y column's points after its first are warm-started from the previous
    # root on the same column, q[i-1][j]; a column's first point from the
    # first point of the column before.  Each bracket is handed out twice,
    # so every point's warm start (its line's midpoint when cold) reaches
    # fields._nearest, whose calls are recorded with the point's line and
    # target; the two copies refine to one root, which _nearest keeps
    prob = pq.PQProblem.scaled_y("1 + y^2", "p^2", "p^2/2")
    xs, ys = axis(0.5, 1.0, 7), axis(0.0, 0.2, 5)
    calls = []
    point = []  # the (line, target) whose brackets were taken last
    brackets, nearest = RootLine.brackets, fields._nearest

    def doubled(line, target):
        point[:] = [line, target]
        return [br for br in brackets(line, target) for _ in range(2)]

    def recorded(found, ref, cfg):
        calls.append((*point, ref))
        return nearest(found, ref, cfg)

    with mock.patch.object(RootLine, "brackets", doubled), mock.patch.object(fields, "_nearest", recorded):
        field = pq.solve_grid(prob, xs, ys, (0.0, 25.0), CFG)
    assert field.resolved_fraction() == 1.0
    column = {}  # each line object's column, in order of first use
    for line, _, _ in calls:
        column.setdefault(line, len(column))
    assert len(calls) == len(xs) * len(ys)
    for line, target, warm in calls:
        i, j = xs.index(target), column[line]
        want = field.q[i - 1][j] if i else (field.q[0][j - 1] if j else None)
        assert warm == (0.5 * (line.lo + line.hi) if want is None else want)


# --- the one family against the three per-kind formulas ---------------------


class Reference:
    """A problem's per-kind condition, value and residual, each kind with
    its own formula and operand order, compiled from the public trees."""

    def __init__(self, prob):
        fn = expr.compile_function
        self.kind = prob.kind
        root = "p" if prob.kind == "scaled_y" else "q"
        d = expr.differentiate
        if prob.kind == "explicit":
            self.f = fn(prob.gfun, ("q",))
            self.fp = fn(d(prob.gfun, "q"), ("q",))
            self.fpp = fn(d(d(prob.gfun, "q"), "q"), ("q",))
        else:
            axis = "x" if prob.kind == "scaled_x" else "y"
            ratio = expr.BinOp("/", expr.Var(axis), prob.scale)
            self.ratio = fn(ratio, (axis,))
            self.ratiop = fn(d(ratio, axis), (axis,))
            self.g = fn(prob.gfun, (root,))
            self.gp = fn(d(prob.gfun, root), (root,))
            self.gpp = fn(d(d(prob.gfun, root), root), (root,))
        self.phi = fn(prob.phi, (root,))
        self.phip = fn(d(prob.phi, root), (root,))
        self.phipp = fn(d(d(prob.phi, root), root), (root,))

    def line_level(self, v):
        """The target at which q is a root, phi'(q) less the slope term,
        and its slope in q, phi''(q) less the curvature term."""
        if self.kind == "explicit":
            slope_term = lambda q: v * self.fp(q)
            curve_term = lambda q: v * self.fpp(q)
        elif self.kind == "scaled_x":
            slope_term = lambda q: self.ratio(v) * self.gp(q)
            curve_term = lambda q: self.ratio(v) * self.gpp(q)
        else:
            slope_term = lambda q: self.gp(q) * self.ratio(v)
            curve_term = lambda q: self.gpp(q) * self.ratio(v)

        def level(q):
            term = slope_term(q)
            value = self.phip(q) - term
            term = curve_term(q)
            return value, self.phipp(q) - term

        return level

    def constraint(self, x, y, q):
        v, target = (y, x) if self.kind == "scaled_y" else (x, y)
        return target - self.line_level(v)(q)[0]

    def solution_value(self, x, y, q):
        if self.kind == "explicit":
            return x * self.f(q) + y * q - self.phi(q)
        if self.kind == "scaled_x":
            return self.ratio(x) * self.g(q) + y * q - self.phi(q)
        return x * q + self.g(q) * self.ratio(y) - self.phi(q)

    def residual(self, x, y, d1, d2):
        if self.kind == "explicit":
            return d1 - self.f(d2)
        if self.kind == "scaled_x":
            return d1 - self.ratiop(x) * self.g(d2)
        return d2 - self.g(d1) * self.ratiop(y)

    def solve_grid(self, xs, ys, q_range, cfg):
        """The sweep with per-kind line levels, each sample evaluating H,
        over the grid whose rows are the lines: (y, x) for scaled_y."""
        by_column = self.kind == "scaled_y"
        axis1, axis2 = (ys, xs) if by_column else (xs, ys)
        lines = [scanned_line(self.line_level(v), *q_range, cfg) for v in axis1]
        q, status = sweep(lines, axis1, axis2)
        if by_column:
            q, status = [list(r) for r in zip(*q)], [list(r) for r in zip(*status)]
        value = [[None] * len(ys) for _ in xs]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if q[i][j] is None:
                    continue
                try:
                    value[i][j] = self.solution_value(x, y, q[i][j])
                except DomainError:
                    q[i][j] = None
                    status[i][j] = Status.DOMAIN_FAIL
        return q, value, status


def _outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or ``DomainError`` when it raises one."""
    try:
        return repr(fn(*args))
    except DomainError:
        return "DomainError"


# {l} is the line coordinate (x, or y for scaled_y) and {r} the root variable;
# "{l} - 0.5" vanishes on the grid line l = 0.5, and G' or phi' of the sqrt
# and ln entries raise at r <= 0
_SCALES = ("1 + {l}^2", "{l} - 0.5", "2 + sin({l})", "1")
_GS = ("{r}^2", "sqrt({r})", "ln({r})", "sin({r})", "2*{r} - 1")
_PHIS = ("{r}^2/2", "{r}^3/3", "sqrt({r})", "{r}")
_COORDS = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(-2.0, 2.0))


@st.composite
def _problems(draw):
    kind = draw(st.sampled_from(pq.KINDS))
    names = {"l": "y", "r": "p"} if kind == "scaled_y" else {"l": "x", "r": "q"}
    g = draw(st.sampled_from(_GS)).format(**names)
    phi = draw(st.sampled_from(_PHIS)).format(**names)
    if kind == "explicit":
        return pq.PQProblem.explicit(g, phi)
    scale = draw(st.sampled_from(_SCALES)).format(**names)
    return getattr(pq.PQProblem, kind)(scale, g, phi)


@settings(deadline=None, database=None, max_examples=300)
@given(
    prob=_problems(),
    x=_COORDS,
    y=_COORDS,
    q=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    d1=st.floats(-3.0, 3.0),
    d2=st.floats(-3.0, 3.0),
)
def test_family_matches_the_per_kind_formulas(prob, x, y, q, d1, d2):
    ref = Reference(prob)
    assert _outcome(pq.constraint, prob, x, y, q) == _outcome(ref.constraint, x, y, q)
    assert _outcome(pq.solution_value, prob, x, y, q) == _outcome(ref.solution_value, x, y, q)
    got = _outcome(lambda: prob.residual_line(y if prob.lines_are_columns else x)(d1, d2))
    assert got == _outcome(ref.residual, x, y, d1, d2)


@pytest.mark.parametrize(
    "args, xs, ys, q_range",
    [
        (("explicit", "sqrt(q)", "q"), axis(0.5, 1.5, 9), axis(0.0, 0.5, 9), (1e-3, 10.0)),
        (("explicit", "sin(q)", "0"), axis(0.2, 1.0, 7), axis(-0.5, 0.5, 7), (0.0, 12.0)),
        (("scaled_x", "x - 0.5", "q^2", "q^3/3"), axis(0.0, 1.0, 9), axis(0.1, 0.6, 9), (0.1, 5.0)),
        (("scaled_x", "1 + x^2", "sqrt(q)", "q^2/2"), axis(0.5, 1.5, 9), axis(0.1, 0.6, 9), (-1.0, 5.0)),
        (("scaled_y", "y - 0.5", "p^2", "p^2/2"), axis(0.5, 1.0, 9), axis(0.0, 1.0, 9), (0.0, 25.0)),
        (("scaled_y", "1 + y^2", "ln(p)", "p^3/3"), axis(0.5, 1.0, 9), axis(0.0, 0.2, 7), (-1.0, 5.0)),
    ],
)
def test_solve_grid_matches_the_per_kind_sweep(args, xs, ys, q_range):
    kind, *exprs = args
    prob = getattr(pq.PQProblem, kind)(*exprs)
    field = pq.solve_grid(prob, xs, ys, q_range, CFG)
    q, value, status = Reference(prob).solve_grid(xs, ys, q_range, CFG)
    assert repr(field.q) == repr(q)
    assert repr(field.value) == repr(value)
    assert field.status == status


def test_explicit_ratio_slope_is_one():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    assert prob.scale == expr.Num(1.0)
    assert expr.differentiate(expr.BinOp("/", expr.Var("x"), prob.scale), "x") == expr.Num(1.0)
    for x in (0.0, -1.5, 0.5, 3.0):
        assert prob._ratiop_fn(x) == 1.0
        assert prob._ratio_fn(x) == x


@pytest.mark.parametrize(
    "f, phi, xs, ys, q_range",
    [
        ("2*q - 1", "q^2/2", axis(0.0, 1.0, 9), axis(0.0, 1.0, 9), (0.0, 10.0)),
        ("sqrt(q)", "q", axis(0.5, 1.5, 9), axis(0.0, 0.5, 9), (1e-3, 10.0)),
        ("sin(q)", "0", axis(0.2, 1.0, 7), axis(-0.5, 0.5, 7), (0.0, 12.0)),
    ],
    ids=["linear", "sqrt", "multi_root"],
)
def test_explicit_is_scaled_x_with_scale_one(f, phi, xs, ys, q_range):
    # the explicit kind is the scaled_x problem whose scale is the literal 1:
    # same roots, values, statuses and residual report, to the bit
    explicit = pq.PQProblem.explicit(f, phi)
    scaled = pq.PQProblem.scaled_x("1", f, phi)
    assert (explicit.scale, explicit.gfun, explicit.phi) == (scaled.scale, scaled.gfun, scaled.phi)
    got = pq.solve_grid(explicit, xs, ys, q_range, CFG)
    want = pq.solve_grid(scaled, xs, ys, q_range, CFG)
    assert repr(got.q) == repr(want.q)
    assert repr(got.value) == repr(want.value)
    assert got.status == want.status
    assert repr(residual_report(explicit, got)) == repr(residual_report(scaled, want))


_ALL = set(Status)


@pytest.mark.parametrize(
    "prob, q_range, seen",
    [
        (pq.PQProblem.explicit("sqrt(q)", "q^2/2"), (-1.0, 10.0), {Status.RESOLVED, Status.NO_ROOT}),
        (pq.PQProblem.explicit("sin(q)", "0"), (0.0, 12.0), {Status.MULTI_ROOT, Status.NO_ROOT}),
        # H raises on the line x = 0.5; ln(p) raises at a root p <= 0
        (pq.PQProblem.scaled_x("x - 0.5", "q^2", "q^3/3"), (0.1, 5.0), _ALL),
        (pq.PQProblem.scaled_y("1 + y^2", "ln(p)", "p^3/3"), (-1.0, 5.0), _ALL),
    ],
    ids=["explicit", "explicit_multi_root", "scaled_x", "scaled_y"],
)
def test_one_point_grid_is_the_cold_line_solve(prob, q_range, seen):
    # a 1 x 1 solve_grid solves its point as its line's RootLine does cold,
    # and a root whose value u raises is a domain failure
    rng = random.Random(5)
    statuses = set()
    for _ in range(100):
        x = rng.choice((0.5, rng.uniform(-1.0, 2.0)))
        y = rng.choice((0.5, rng.uniform(-1.0, 2.0)))
        want = line_solve(prob, x, y, q_range, CFG)
        if want[0] is not None:
            try:
                pq.solution_value(prob, x, y, want[0])
            except DomainError:
                want = None, Status.DOMAIN_FAIL
        got = solve_one(prob, x, y, q_range, CFG)
        assert repr(got) == repr(want)
        statuses.add(got[1])
    assert statuses == seen


@pytest.mark.parametrize("kind", ["scaled_x", "scaled_y"])
def test_line_where_ratio_raises_is_domain_fail_without_a_condition(kind):
    # the scale vanishes on the line 0.5, so H = 0.5/0 raises there, and no
    # kernel of the condition or the value runs: not even the scan table's
    line = "y" if kind == "scaled_y" else "x"
    prob = getattr(pq.PQProblem, kind)(f"{line} - 0.5", "p^2" if line == "y" else "q^2", "0")
    calls = []

    def counted(fn):
        return lambda *args: calls.append(args) or fn(*args)

    for name in ("_level_fn", "_slopes_fn", "_value_fn"):
        setattr(prob, name, counted(getattr(prob, name)))
    coords = axis(0.0, 1.0, 5)
    xs, ys = (coords, [0.5]) if kind == "scaled_y" else ([0.5], coords)
    field = pq.solve_grid(prob, xs, ys, (0.1, 5.0), CFG)
    assert all(s is Status.DOMAIN_FAIL for row in field.status for s in row)
    assert all(v is None for row in field.q + field.value for v in row)
    assert calls == []
    assert solve_one(prob, 0.5, 0.5, (0.1, 5.0), CFG) == (None, Status.DOMAIN_FAIL)
    assert calls == []


@pytest.mark.parametrize("name", ["power_pq", "linear_pq"])
def test_solve_stats_count_every_level_evaluation(monkeypatch, name):
    # the scan table calls the (G', phi') kernel once per sample, for the
    # whole solve, and the refinement calls the level kernel; counting the
    # calls changes no output bit
    run = load_config(str(CONFIGS / f"{name}.cfg"))
    args = (run.problem, run.axis1, run.axis2, run.q_range, run.solver)
    plain = pq.solve_grid(*args)
    calls = collections.Counter()

    def counting(kernel):
        real = getattr(run.problem, kernel)

        def counted(*args):
            calls[kernel] += 1
            return real(*args)

        monkeypatch.setattr(run.problem, kernel, counted)

    counting("_slopes_fn")
    counting("_level_fn")
    stats = SolveStats()
    field = pq.solve_grid(*args, stats=stats)
    assert stats.scan + stats.probes + stats.brent == calls["_slopes_fn"] + calls["_level_fn"]
    assert stats.scan == calls["_slopes_fn"] == run.solver.scan_points + 1
    assert stats.points == stats.targets == stats.refined == len(run.axis1) * len(run.axis2)
    assert sum(stats.dpdq_quads) == sum(stats.p_quads) == 0
    for name in ("q", "value", "status"):
        assert repr(getattr(field, name)) == repr(getattr(plain, name))


def test_solve_stats_count_both_brackets_of_a_two_root_point():
    # level q^2 - x: the target y = 0.5 at x = 0.5 has the roots -1 and 1
    stats = SolveStats()
    field = pq.solve_grid(pq.PQProblem.explicit("q", "q^3/3"), [0.5], [0.5], (-2.0, 2.0), CFG, stats=stats)
    assert field.status[0][0] is Status.MULTI_ROOT
    assert stats.refined == 2 and stats.points == stats.targets == 1


def test_solve_stats_leave_out_a_line_without_a_condition():
    # H = y/h(y) raises at y = 0: that column's points are counted, not its work
    prob = pq.PQProblem.scaled_y("y", "p", "p^2/2")
    stats = SolveStats()
    field = pq.solve_grid(prob, [0.1, 0.2], [0.0, 0.5], (-2.0, 2.0), CFG, stats=stats)
    assert field.status[0][0] is Status.DOMAIN_FAIL
    assert stats.points == 4 and stats.targets == 2
    assert stats.scan == CFG.scan_points + 1


# --- the fused kernels, against the compositions they replaced ------------


def composed_kernels(prob):
    """The four kernels as compositions of G, G', G'', phi, phi' and phi''
    compiled one by one, each called in its own frame, the way the problem
    evaluated them before its kernels were fused: the level kernel's first
    element is phi' - h G', as the level was before it returned its slope,
    and its second phi'' - h G''."""
    fn = expr.compile_function
    root = "p" if prob.lines_are_columns else "q"
    g, phi = fn(prob.gfun, (root,)), fn(prob.phi, (root,))
    g_slope = fn(expr.differentiate(prob.gfun, root), (root,))
    phi_slope = fn(expr.differentiate(prob.phi, root), (root,))
    g_curve = fn(expr.differentiate(expr.differentiate(prob.gfun, root), root), (root,))
    phi_curve = fn(expr.differentiate(expr.differentiate(prob.phi, root), root), (root,))

    def level(h, r):
        slope_term = h * g_slope(r)
        value = phi_slope(r) - slope_term
        curve_term = h * g_curve(r)
        return value, phi_curve(r) - curve_term

    def residual(h_slope, d1, d2):
        if prob.lines_are_columns:
            return d2 - h_slope * g(d1)
        return d1 - h_slope * g(d2)

    return {
        "_level_fn": level,
        "_slopes_fn": lambda r: (g_slope(r), phi_slope(r)),
        "_value_fn": lambda h, s, r: h * g(r) + s * r - phi(r),
        "_residual_fn": residual,
    }


def _kernel_outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as err:
        return type(err).__name__, str(err)


def _kernel_problems():
    """The shipped pq configs' problems, then sqrt, ln and 1/q branches, and
    problems whose G' raises, whose phi' raises, and whose G' and phi'
    both raise, each below q = 1 or below 0."""
    shipped = [load_config(str(CONFIGS / f"{name}.cfg")).problem for name in
               ("linear_pq", "power_pq", "scaled_x", "scaled_y")]
    return shipped + [
        pq.PQProblem.explicit("sqrt(q)", "q^2/2"),
        pq.PQProblem.scaled_x("1 + x^2", "ln(q)", "q^3/3"),
        pq.PQProblem.scaled_y("2 + sin(y)", "1/p", "ln(p)"),
        pq.PQProblem.explicit("sqrt(q - 1)", "q^2/2"),
        pq.PQProblem.explicit("q^2", "(q - 1)^1.5"),
        pq.PQProblem.explicit("sqrt(q)", "(q - 1)^1.5"),
    ]


def test_fused_kernels_equal_the_composed_functions_bitwise():
    rng = random.Random(29)
    coords = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0] + [rng.uniform(-3.0, 3.0) for _ in range(60)]
    coefficients = [0.0, 1.0, -0.5, math.inf] + [rng.uniform(-3.0, 3.0) for _ in range(8)]
    raised = set()
    for prob in _kernel_problems():
        composed = composed_kernels(prob)
        for r in coords:
            for h in coefficients:
                s, d = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
                for name, args in (
                    ("_level_fn", (h, r)), ("_slopes_fn", (r,)), ("_value_fn", (h, s, r)),
                    ("_residual_fn", (h, d, r)), ("_residual_fn", (h, r, d)),
                ):
                    want = _kernel_outcome(composed[name], *args)
                    assert _kernel_outcome(getattr(prob, name), *args) == want
                    if isinstance(want, tuple):
                        raised.add(want)
    # each failing part raised, and with both raising G' (a sqrt) wins
    assert ("DomainError", "sqrt argument -0.5 is negative") in raised  # G' of sqrt(q - 1) at 0.5
    assert ("DomainError", "negative base -0.5 with non-integer exponent 0.5") in raised  # phi'
    both = pq.PQProblem.explicit("sqrt(q)", "(q - 1)^1.5")
    with pytest.raises(DomainError, match="sqrt argument -1.0 is negative"):
        both._level_fn(1.0, -1.0)
    with pytest.raises(DomainError, match="sqrt argument -1.0 is negative"):
        both._slopes_fn(-1.0)


def test_fused_kernel_names_the_call_math_rejected():
    # math takes asin(NaN) in G, so phi's sqrt is the call that fails
    prob = pq.PQProblem.explicit("asin(q*1e308*10 - q*1e308*10)", "sqrt(-q)")
    with pytest.raises(DomainError) as err:
        prob._value_fn(1.0, 1.0, 1.0)
    assert str(err.value) == "sqrt argument -1.0 is negative"


@pytest.mark.parametrize("kind", pq.KINDS)
def test_a_problem_compiles_six_functions(kind):
    # H, H' and the four kernels, so loading a config compiles no more
    # than it did with G, G', phi and phi' compiled one by one
    args = {"explicit": ("sqrt(q)", "q"), "scaled_x": ("1 + x^2", "q^2", "q^3/3"),
            "scaled_y": ("1", "p^2", "p^2/2")}[kind]
    with mock.patch.object(expr, "_function", wraps=expr._function) as compiled:
        getattr(pq.PQProblem, kind)(*args)
    assert compiled.call_count <= 6
    # an explicit problem's H = x/1 and H' = 1 are bound, not compiled
    assert compiled.call_count == (4 if kind == "explicit" else 6)


def test_explicit_binds_the_ratio_bits_of_x_over_one():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    ratio = expr.BinOp("/", expr.Var("x"), prob.scale)
    compiled = expr.compile_function(ratio, ("x",))
    compiled_slope = expr.compile_function(expr.differentiate(ratio, "x"), ("x",))
    for x in (0.0, -0.0, 0.5, -1.5, 1e-310, 1e308, math.inf, math.nan, 3):
        assert repr(prob._ratio_fn(x)) == repr(compiled(x))
        assert repr(prob._ratiop_fn(x)) == repr(compiled_slope(x))


# --- the scan table every line of a solve shares --------------------------


@pytest.mark.parametrize(
    "prob, xs, q_range, counts",
    [
        # G' raises on the 5 samples below q = 0
        (pq.PQProblem.explicit("sqrt(q)", "q"), axis(0.5, 1.5, 3), (-1.0, 4.0), [20] * 3),
        # G' overflows to inf from q = 1 on: 0 * inf is a NaN level on the
        # line x = 0, and the other lines keep their infinite levels
        (pq.PQProblem.explicit("1e308*q^2", "q^2/2"), axis(0.0, 1.0, 3), (0.0, 2.0), [11, 25, 25]),
        # G' = 1/p raises at the sample p = 0 alone
        (pq.PQProblem.scaled_y("1 + y^2", "ln(p)", "p^3/3"), axis(0.0, 0.2, 3), (-1.0, 5.0), [24] * 3),
        (load_config(str(CONFIGS / "scaled_x.cfg")).problem, axis(0.5, 1.5, 3), (0.1, 5.0), [25] * 3),
    ],
    ids=["g_slope_raises", "nan_level", "scaled_y_ln", "scaled_x"],
)
def test_every_line_samples_its_own_level(prob, xs, q_range, counts):
    lines, count = prob.lines(xs, *q_range, CFG)
    stats = SolveStats()
    count(stats)
    assert stats.scan == CFG.scan_points + 1  # the one table, built once
    for line, value in lines:
        # the level and the value kernel are bound to the same H
        h = line.level.args[0]
        assert value.args == (h,)
        assert repr(line.samples) == repr(fields.level_samples(line.level, *q_range, CFG))
        # and the level the samples come from is the composed one
        old = functools.partial(composed_kernels(prob)["_level_fn"], h)
        assert repr(line.samples) == repr(fields.level_samples(old, *q_range, CFG))
    assert [len(line.samples) for line, _ in lines] == counts
    if counts[0] == 11:
        assert -math.inf in [level for _, level in lines[1][0].samples]
