import math
import pathlib
import random

import pytest

from hjgen import expr, hj, pq, verify
from hjgen.config import load_config
from hjgen.errors import DomainError, EmptyReportError
from hjgen.fields import ActionField, SolutionField, Status


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def axis(lo, hi, n):
    return tuple(hi if i == n - 1 else lo + (hi - lo) * i / (n - 1) for i in range(n))


def _field_from(xs, ys, fn, qfn=None):
    q = [[(qfn(x, y) if qfn else 1.0) for y in ys] for x in xs]
    u = [[fn(x, y) for y in ys] for x in xs]
    st = [[Status.RESOLVED] * len(ys) for _ in xs]
    return SolutionField(tuple(xs), tuple(ys), q, u, st)


def test_partials_exact_for_linear_data():
    field = _field_from(axis(0, 1, 5), axis(0, 1, 5), lambda x, y: x)
    d1, d2 = verify.finite_diff_partials(field, 2, 2)
    assert d1 == 1.0
    assert d2 == 0.0


def test_partials_exact_for_quadratics_even_nonuniform():
    xs = (0.0, 0.4, 1.0, 1.3, 2.0)  # deliberately uneven
    ys = (0.0, 0.5, 1.5)
    field = _field_from(xs, ys, lambda x, y: x * x)
    d1, _ = verify.finite_diff_partials(field, 2, 1)
    assert d1 == pytest.approx(2.0, abs=1e-12)


def test_partials_skip_signals():
    field = _field_from(axis(0, 1, 5), axis(0, 1, 5), lambda x, y: x)
    assert verify.finite_diff_partials(field, 0, 2) is None  # boundary
    field.value[1][2] = None
    field.status[1][2] = Status.NO_ROOT
    assert verify.finite_diff_partials(field, 2, 2) is None  # missing neighbour


def test_partials_free_particle_closed_form():
    xs, ts = axis(0.5, 2.0, 31), axis(0.0, 0.4, 31)
    q = [[x * x / (4 * (1 - t) ** 2) for t in ts] for x in xs]
    s = [[x * x / (4 * (1 - t)) for t in ts] for x in xs]
    p = [[math.sqrt(qv) for qv in row] for row in q]
    st = [[Status.RESOLVED] * 31 for _ in range(31)]
    field = ActionField(xs, ts, q, s, st, p)
    d1, d2 = verify.finite_diff_partials(field, 15, 15)
    x, t = xs[15], ts[15]
    assert d1 == pytest.approx(x / (2 * (1 - t)), abs=1e-12)  # quadratic in x
    assert d2 == pytest.approx(x * x / (4 * (1 - t) ** 2), rel=1e-3)


def test_residual_report_is_an_immutable_value():
    report = verify.ResidualReport(1e-9, 2e-10, (2, 3), 0.5, 1e-3)
    assert repr(report) == (
        "ResidualReport(max_abs=1e-09, mean_abs=2e-10, worst_point=(2, 3),"
        " resolved_fraction=0.5, h_used=0.001)"
    )
    with pytest.raises(AttributeError):
        report.max_abs = 0.0
    twin = verify.ResidualReport(1e-9, 2e-10, (2, 3), 0.5, 1e-3)
    assert twin == report and hash(twin) == hash(report)


def test_residual_report_exact_linear_solution():
    # u = (2x + y)^2/2 - x solves the linear problem exactly; quadratic data
    # keeps the differencing exact, so only roundoff remains
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    field = _field_from(
        axis(0, 1, 21),
        axis(0, 1, 21),
        lambda x, y: (2 * x + y) ** 2 / 2 - x,
        qfn=lambda x, y: 2 * x + y,
    )
    rep = verify.residual_report(prob, field)
    assert rep.max_abs <= 1e-10
    assert rep.resolved_fraction == 1.0
    assert rep.mean_abs <= rep.max_abs
    assert rep.h_used == pytest.approx(0.05)


def test_residual_report_worst_point_and_determinism():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    field = _field_from(
        axis(0, 1, 11),
        axis(0, 1, 11),
        lambda x, y: (2 * x + y) ** 2 / 2 - x,
        qfn=lambda x, y: 2 * x + y,
    )
    field.value[5][5] += 1.0  # corrupt one cell
    rep1 = verify.residual_report(prob, field)
    rep2 = verify.residual_report(prob, field)
    assert rep1 == rep2
    assert abs(rep1.worst_point[0] - 5) <= 1 and abs(rep1.worst_point[1] - 5) <= 1


def test_residual_report_empty_and_too_small():
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    xs, ys = axis(0, 1, 5), axis(0, 1, 5)
    q = [[None] * 5 for _ in range(5)]
    u = [[None] * 5 for _ in range(5)]
    st = [[Status.NO_ROOT] * 5 for _ in range(5)]
    with pytest.raises(EmptyReportError):
        verify.residual_report(prob, SolutionField(xs, ys, q, u, st))
    small = _field_from(axis(0, 1, 2), axis(0, 1, 5), lambda x, y: x)
    with pytest.raises(EmptyReportError, match="at least 3 points"):
        verify.residual_report(prob, small)


UNEVEN = (0.0, 0.07, 0.2, 0.26, 0.41, 0.5, 0.63, 0.71, 0.88, 1.0)


def test_residual_report_exact_on_degree_six_uneven():
    # u = (x + y)^6 solves p = q; seven-node stencils differentiate sextics
    # exactly on any spacing, so only roundoff remains (three nodes would
    # leave an O(h^2) error of order 10 here)
    prob = pq.PQProblem.explicit("q", "q")
    field = _field_from(UNEVEN, UNEVEN, lambda x, y: (x + y) ** 6)
    rep = verify.residual_report(prob, field)
    assert rep.max_abs <= 1e-9
    assert rep.worst_point[0] in range(3, 7) and rep.worst_point[1] in range(3, 7)
    assert rep.h_used == pytest.approx(0.17)


def test_residual_report_five_point_axis_uses_five_nodes():
    # on a 5-point axis k falls back to 2: only index 2 is usable, and the
    # five-node stencil is exact for quartics in y on uneven spacing
    prob = pq.PQProblem.explicit("q", "q")
    ys = (0.0, 0.3, 0.45, 0.8, 1.0)
    field = _field_from(UNEVEN, ys, lambda x, y: (x + y) ** 4)
    rep = verify.residual_report(prob, field)
    assert rep.max_abs <= 1e-10
    assert rep.worst_point[1] == 2
    quintic = _field_from(UNEVEN, ys, lambda x, y: (x + y) ** 5)
    assert verify.residual_report(prob, quintic).max_abs > 1e-3


def test_residual_report_two_point_axis_raises():
    prob = pq.PQProblem.explicit("q", "q")
    with pytest.raises(EmptyReportError, match="at least 3 points"):
        verify.residual_report(prob, _field_from(UNEVEN, (0.0, 1.0), lambda x, y: x + y))


def test_hj_residual_second_order_convergence():
    # sampling the exact free-particle action: halving both spacings must cut
    # the residual by at least 3x
    prob = hj.HJProblem("1", "0", "q", sigma=1, x0=0.0)

    def build(n1, n2):
        xs, ts = axis(0.5, 2.0, n1), axis(0.0, 0.5, n2)
        q = [[x * x / (4 * (1 - t) ** 2) for t in ts] for x in xs]
        s = [[x * x / (4 * (1 - t)) for t in ts] for x in xs]
        p = [[math.sqrt(qv) for qv in row] for row in q]
        st = [[Status.RESOLVED] * n2 for _ in range(n1)]
        return ActionField(xs, ts, q, s, st, p)

    coarse = verify.residual_report(prob, build(61, 51))
    fine = verify.residual_report(prob, build(121, 101))
    assert coarse.max_abs / fine.max_abs >= 3.0


def test_compare_oracle_identities():
    field = _field_from(axis(0, 1, 5), axis(0, 1, 5), lambda x, y: x + y)
    assert verify.compare_oracle(field, lambda x, y: x + y) == (0.0, 0.0)
    mx, mn = verify.compare_oracle(field, lambda x, y: x + y - 1.0)
    assert mx == 1.0 and mn == 1.0


def test_compare_oracle_needs_values():
    xs, ys = axis(0, 1, 3), axis(0, 1, 3)
    q = [[None] * 3 for _ in range(3)]
    u = [[None] * 3 for _ in range(3)]
    st = [[Status.DOMAIN_FAIL] * 3 for _ in range(3)]
    with pytest.raises(EmptyReportError):
        verify.compare_oracle(SolutionField(xs, ys, q, u, st), lambda x, y: 0.0)


def test_residual_report_skips_out_of_branch_points():
    # f(d2) = sqrt(d2) fails where the differenced slope dips negative; such
    # points are excluded rather than aborting the report
    prob = pq.PQProblem.explicit("sqrt(q)", "q")
    field = _field_from(
        axis(0.5, 1.5, 7),
        axis(0.0, 0.5, 7),
        lambda x, y: x * x / (4 * (1 - y)),
        qfn=lambda x, y: x * x / (4 * (1 - y) ** 2),
    )
    for j in range(7):
        field.value[3][j] = -10.0  # poison one row; neighbours now difference badly
    rep = verify.residual_report(prob, field)
    assert rep.max_abs >= 0.0


def _reference_partials(field, i, j, w1, w2):
    # one point's centred differences, summed node by node; None at a hole
    k1, k2 = len(w1) // 2, len(w2) // 2
    d1 = 0.0
    for m, w in enumerate(w1):
        f = field.value[i - k1 + m][j]
        if f is None:
            return None
        d1 += w * f
    d2 = 0.0
    for m, w in enumerate(w2):
        f = field.value[i][j - k2 + m]
        if f is None:
            return None
        d2 += w * f
    return d1, d2


def _reference_residual(problem):
    """The residual at (x, y, d1, d2), compiled from the problem's public trees."""
    fn = expr.compile_function
    if isinstance(problem, hj.HJProblem):
        a, v = fn(problem.kinetic, ("x",)), fn(problem.potential, ("x",))
        return lambda x, y, d1, d2: a(x) * d1 * d1 + v(x) - d2
    if problem.kind == "explicit":
        f = fn(problem.gfun, ("q",))
        return lambda x, y, d1, d2: d1 - f(d2)
    axis, root = ("x", "q") if problem.kind == "scaled_x" else ("y", "p")
    ratio = expr.BinOp("/", expr.Var(axis), problem.scale)
    slope, g = fn(expr.differentiate(ratio, axis), (axis,)), fn(problem.gfun, (root,))
    if problem.kind == "scaled_x":
        return lambda x, y, d1, d2: d1 - slope(x) * g(d2)
    return lambda x, y, d1, d2: d2 - g(d1) * slope(y)


def residual_reference(problem, field):
    """The residual report computed one point at a time."""
    n1, n2 = field.shape
    k1, k2 = min(3, (n1 - 1) // 2), min(3, (n2 - 1) // 2)
    weights1 = verify._axis_weights(field.axis1, k1)
    weights2 = verify._axis_weights(field.axis2, k2)
    residual = _reference_residual(problem)
    worst, max_abs, total, count = (0, 0), -1.0, 0.0, 0
    for i in range(k1, n1 - k1):
        for j in range(k2, n2 - k2):
            ds = _reference_partials(field, i, j, weights1[i], weights2[j])
            if ds is None:
                continue
            try:
                r = abs(residual(field.axis1[i], field.axis2[j], *ds))
            except DomainError:
                continue
            count += 1
            total += r
            if r > max_abs:
                max_abs, worst = r, (i, j)
    if count == 0:
        raise EmptyReportError("no usable interior point for a residual report")
    h_used = max(
        max(b - a for a, b in zip(field.axis1, field.axis1[1:])),
        max(b - a for a, b in zip(field.axis2, field.axis2[1:])),
    )
    return verify.ResidualReport(max_abs, total / count, worst, field.resolved_fraction(), h_used)


def _random_field(seed, xs, ys, holes):
    # smooth values plus noise, with a share ``holes`` of the points missing
    rng = random.Random(seed)
    u = [[math.sin(x + 2 * y) + 0.3 * x * y + 1e-3 * rng.random() for y in ys] for x in xs]
    st = [[Status.RESOLVED] * len(ys) for _ in xs]
    for i in range(len(xs)):
        for j in range(len(ys)):
            if rng.random() < holes:
                u[i][j] = None
                st[i][j] = rng.choice([Status.NO_ROOT, Status.DOMAIN_FAIL])
    q = [[None if v is None else 1.0 for v in row] for row in u]
    return SolutionField(tuple(xs), tuple(ys), q, u, st)


RESIDUAL_PROBLEMS = {
    "hj": hj.HJProblem("1", "x^2", "q", sigma=1, x0=0.0),
    "hj, a(x) raises at x = 0.5": hj.HJProblem("1/(x - 0.5)", "0", "q", sigma=1, x0=0.0),
    "hj, V(x) raises below x = 0.3": hj.HJProblem("1", "sqrt(x - 0.3)", "q", sigma=1, x0=0.0),
    "explicit": pq.PQProblem.explicit("2*q - 1", "q^2/2"),
    "explicit, f raises at negative d2": pq.PQProblem.explicit("sqrt(q)", "q"),
    "scaled_x, slope raises at x = 0.5": pq.PQProblem.scaled_x("x - 0.5", "q^2", "q"),
    "scaled_y, slope raises at y = 0.5": pq.PQProblem.scaled_y("y - 0.5", "ln(p)", "p"),
}
RESIDUAL_GRIDS = {
    "even 11 x 9": (axis(0, 1, 11), axis(0, 1, 9)),
    "uneven": (UNEVEN, tuple(v * 0.9 + 0.05 for v in UNEVEN)),
    "short axes": (axis(0, 1, 5), (0.0, 0.5, 0.6, 1.0)),
    "three points": ((0.0, 0.5, 1.0), axis(0, 1, 7)),
}


@pytest.mark.parametrize("grid", sorted(RESIDUAL_GRIDS))
@pytest.mark.parametrize("problem", sorted(RESIDUAL_PROBLEMS))
def test_residual_report_equals_point_by_point_reference(problem, grid):
    prob = RESIDUAL_PROBLEMS[problem]
    xs, ys = RESIDUAL_GRIDS[grid]
    for seed, holes in enumerate((0.0, 0.02, 0.1, 0.3)):
        field = _random_field(seed, xs, ys, holes)
        try:
            want = residual_reference(prob, field)
        except EmptyReportError:
            with pytest.raises(EmptyReportError):
                verify.residual_report(prob, field)
            continue
        assert verify.residual_report(prob, field) == want


def test_residual_report_builds_each_line_residual_once():
    # scaled_y lines are y columns: H'(y) is evaluated once per interior
    # column, not at every point, and the report is the point-by-point one
    cfg = load_config(str(CONFIG_DIR / "scaled_y.cfg"))
    prob = cfg.problem
    field = pq.solve_grid(prob, cfg.axis1, cfg.axis2, cfg.q_range, cfg.solver)
    calls = []
    slope = prob._ratiop_fn
    prob._ratiop_fn = lambda v: calls.append(v) or slope(v)
    report = verify.residual_report(prob, field)
    assert calls == list(field.axis2[3:-3])  # 35 interior columns of 41
    assert report == residual_reference(prob, field)


def test_residual_report_rejects_what_is_not_a_problem():
    field = _random_field(0, axis(0, 1, 5), axis(0, 1, 5), 0.0)
    with pytest.raises(TypeError):
        verify.residual_report(object(), field)


def test_finite_diff_partials_equal_point_by_point_reference():
    xs, ys = UNEVEN, axis(0, 1, 6)
    field = _random_field(7, xs, ys, 0.15)
    for i in range(len(xs)):
        for j in range(len(ys)):
            want = None
            if 0 < i < len(xs) - 1 and 0 < j < len(ys) - 1:
                w1 = verify._first_derivative_weights(xs[i], xs[i - 1 : i + 2])
                w2 = verify._first_derivative_weights(ys[j], ys[j - 1 : j + 2])
                want = _reference_partials(field, i, j, w1, w2)
            assert verify.finite_diff_partials(field, i, j) == want


def test_residual_report_counts_a_nan_residual_as_infinite():
    # u = (2x + y)^2/2 - x solves the linear problem exactly
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    xs, ys = axis(0.0, 1.0, 11), axis(0.0, 1.0, 11)
    field = _field_from(xs, ys, lambda x, y: (2 * x + y) ** 2 / 2 - x)
    assert verify.residual_report(prob, field).max_abs <= 1e-10
    field.value[5][6] = math.nan
    report = verify.residual_report(prob, field)
    assert report.max_abs == math.inf and report.mean_abs == math.inf
    assert report.worst_point == (3, 6)  # the first point whose stencil meets (5, 6)


def test_compare_oracle_counts_a_nan_deviation_as_infinite():
    xs, ys = axis(0.0, 1.0, 5), axis(0.0, 1.0, 5)
    field = _field_from(xs, ys, lambda x, y: x + y)
    assert verify.compare_oracle(field, lambda x, y: x + y) == (0.0, 0.0)
    assert verify.compare_oracle(field, lambda x, y: math.nan) == (math.inf, math.inf)
    field.value[2][3] = math.nan
    assert verify.compare_oracle(field, lambda x, y: x + y) == (math.inf, math.inf)
