import collections
import functools
import math
import operator
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjgen import hj, numerics
from hjgen.config import load_config
from hjgen.errors import ConvergenceError, DomainError
from hjgen.fields import Status
from hjgen.numerics import (
    _CC16,
    _CC32,
    _MAX_SPLITS,
    _SPLIT_LEVEL,
    SolverConfig,
    SolveStats,
    central_difference,
    integrate_adaptive,
    scan_abscissae,
    tanh_sinh_nodes,
)
from hjgen.verify import finite_diff_partials

CFG = SolverConfig(root_tol=1e-12, resid_tol=1e-12, quad_tol=1e-10, scan_points=16)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

FREE = hj.HJProblem("1", "0", "q", sigma=1, x0=0.0)
OSC = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.0, eps_adm=1e-3)
OSC_G0 = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
# a bump of width 0.02 that the 33-point ceiling scan undersamples on some
# rows, so scan samples just above the sampled ceiling raise DomainError
BUMP = hj.HJProblem("1", "exp(-((x - 0.61)/0.02)^2)", "q^2/2", sigma=1, x0=0.0, eps_adm=1e-3)
# a kink of V inside [x0, x] for x > 1/3: a panel holding it is halved
KINKED = hj.HJProblem("1", "abs(x - 1/3)", "q^2/2", sigma=1, x0=0.0, eps_adm=1e-3)


def axis(lo, hi, n):
    return [hi if i == n - 1 else lo + (hi - lo) * i / (n - 1) for i in range(n)]


def solve_one(prob, x, t, q_range, cfg):
    """(root, status) of the point (x, t), solved cold as a 1 x 1 grid."""
    field = hj.solve_grid(prob, [x], [t], q_range, cfg)
    return field.q[0][0], field.status[0][0]


def line_solve(prob, x, t, q_range, cfg, warm=None):
    """(root, status) at (x, t) from the RootLine of x's row, warm-started
    at ``warm``, without a predictor; an empty clipped range is a domain
    failure.  The row table is the problem's slot, as the one-point calls
    use it."""
    line = hj._root_line(hj._row_table(prob, x, cfg.quad_tol), *q_range, cfg)
    if line is None:
        return None, Status.DOMAIN_FAIL
    return line.solve(t, warm)[:2]


def test_problem_validation():
    with pytest.raises(ValueError):
        hj.HJProblem("1", "0", "q", sigma=2)
    with pytest.raises(ValueError):
        hj.HJProblem("1", "0", "q", eps_adm=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_x0_and_eps_adm(value):
    with pytest.raises(ValueError, match="x0 must be finite"):
        hj.HJProblem("1", "x^2", "q^2/2", x0=value)
    with pytest.raises(ValueError, match="eps_adm must be positive and finite"):
        hj.HJProblem("1", "x^2", "q^2/2", eps_adm=value)


@pytest.mark.parametrize("q_range", [(0.05, math.inf), (-math.inf, 6.0), (math.nan, 6.0), (0.05, math.nan)])
def test_solvers_reject_a_non_finite_q_range(q_range):
    with pytest.raises(ValueError, match="solve_grid requires q_lo < q_hi, both finite"):
        hj.solve_grid(OSC, [0.1, 0.2], [0.2, 0.3], q_range, CFG)


@pytest.mark.parametrize("x_grid, t_grid", [([math.nan], [0.1]), ([0.1], [0.2, math.inf]), ([-math.inf, 0.1], [0.2])])
def test_solvers_reject_a_non_finite_axis(x_grid, t_grid):
    # a one-point NaN axis or an infinite end passes the increasing check
    with pytest.raises(ValueError, match="axis values must be finite"):
        hj.solve_grid(OSC, x_grid, t_grid, (0.05, 6.0), CFG)


def test_momentum_values():
    assert hj.momentum(FREE, 0.3, 4.0) == pytest.approx(2.0, abs=1e-15)
    osc = hj.HJProblem("1", "x^2", "0", sigma=1)
    assert hj.momentum(osc, 1.0, 4.0) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    neg = hj.HJProblem("1", "0", "q", sigma=-1)
    assert hj.momentum(neg, 0.3, 4.0) == pytest.approx(-2.0, abs=1e-15)


def test_momentum_admissibility():
    with pytest.raises(DomainError):
        hj.momentum(OSC_G0, 1.0, 1.0 - 1e-12)  # q - V below the margin
    bad_a = hj.HJProblem("x", "0", "q", sigma=1)  # kinetic coefficient 0 at x=0
    with pytest.raises(DomainError):
        hj.momentum(bad_a, 0.0, 4.0)


def test_non_finite_potential_is_a_domain_error():
    # V = 1e300 * 1e300 * x overflows to inf at every x > 0
    prob = hj.HJProblem("1", "1e300*1e300*x", "q")
    with pytest.raises(DomainError, match="potential inf is not finite"):
        hj.momentum(prob, 0.5, 1.0)


def test_momentum_partials_flat_potential():
    dp_dx, dp_dq = hj.momentum_partials(FREE, 17.3, 4.0)
    assert dp_dx == 0.0
    assert dp_dq == pytest.approx(0.25, abs=1e-15)


def test_momentum_partials_oscillator_against_finite_differences():
    dp_dx, dp_dq = hj.momentum_partials(OSC_G0, 1.0, 4.0)
    assert dp_dx == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
    assert dp_dq == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)
    fd_x = central_difference(lambda s: hj.momentum(OSC_G0, s, 4.0), 1.0, 1e-6)
    fd_q = central_difference(lambda v: hj.momentum(OSC_G0, 1.0, v), 4.0, 1e-6)
    assert dp_dx == pytest.approx(fd_x, abs=1e-8)
    assert dp_dq == pytest.approx(fd_q, abs=1e-8)


def test_momentum_partials_odd_in_branch_sign():
    pos = hj.HJProblem("1", "x^2", "0", sigma=1)
    neg = hj.HJProblem("1", "x^2", "0", sigma=-1)
    pp = hj.momentum_partials(pos, 1.0, 4.0)
    pn = hj.momentum_partials(neg, 1.0, 4.0)
    assert pn[0] == -pp[0] and pn[1] == -pp[1]
    assert hj.momentum(neg, 1.0, 4.0) == -hj.momentum(pos, 1.0, 4.0)


def test_correction_integrand():
    assert hj.correction_integrand(FREE, 1.7, 4.0) == 0.0  # flat potential
    assert hj.correction_integrand(OSC_G0, 1.0, 4.0) == pytest.approx(
        -1.0 / math.sqrt(3.0), abs=1e-12
    )
    assert hj.correction_integrand(OSC_G0, 0.0, 4.0) == 0.0  # x factor


def test_correction_term_free_particle_is_generator_exactly():
    # flat potential: the integrand is identically zero, so no quadrature
    # error at all is tolerated
    for x, q in ((0.5, 1.0), (2.0, 3.7), (1.3, 9.0)):
        assert hj.correction_term(FREE, x, q, CFG) == q


def test_correction_term_oscillator_closed_form():
    # antiderivative (x/2) sqrt(q - x^2) - (q/2) asin(x / sqrt(q))
    got = hj.correction_term(OSC_G0, 1.0, 4.0, CFG)
    exact = 0.5 * math.sqrt(3.0) - 2.0 * math.asin(0.5)
    assert got == pytest.approx(exact, abs=1e-9)
    assert exact == pytest.approx(-0.18117214741215896, abs=1e-15)


def test_correction_term_at_base_point():
    assert hj.correction_term(OSC, 0.0, 4.0, CFG) == 8.0  # empty integral leaves G


def test_constraint_free_particle_closed_root():
    # G = C q with C = 1: the root law is q = x^2 / (4 a (C - t)^2)
    assert hj.constraint(FREE, 2.0, 0.0, 1.0, CFG) == pytest.approx(0.0, abs=1e-12)


def test_constraint_oscillator_root_relation():
    # with G = q^2/2 the root obeys q = t + asin(x / sqrt(q)) / 2
    q, status = solve_one(OSC, 1.0, 0.5, (0.05, 6.0), CFG)
    assert status is Status.RESOLVED
    # scalar iteration oracle for the same fixed point
    ref = 1.2
    for _ in range(500):
        ref = 0.5 + 0.5 * math.asin(1.0 / math.sqrt(ref))
    assert q == pytest.approx(ref, abs=1e-9)


def test_base_point_coefficients_once_per_problem(monkeypatch):
    prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.2)
    calls = collections.Counter()
    real = hj._coefficients

    def counting(p, x):
        calls[x] += 1
        return real(p, x)

    monkeypatch.setattr(hj, "_coefficients", counting)
    row = hj._RowTable(prob, 0.7, CFG.quad_tol)
    first = row.t_at(2.0)  # fills the row's levels
    calls.clear()
    for _ in range(3):  # the same q reuses those levels: no node is evaluated
        assert row.t_at(2.0) == first
    assert calls[0.2] == 0  # nor a and V at x0 for the base-point term
    # a(x0) = 0: construction succeeds, every evaluation raises
    bad = hj.HJProblem("x", "0", "q", sigma=1, x0=0.0)
    for _ in range(2):
        with pytest.raises(DomainError):
            hj.constraint(bad, 1.0, 0.0, 2.0, CFG)


def test_constraint_at_base_point_is_time_independent_of_x():
    g1 = hj.constraint(FREE, 0.0, 0.3, 2.0, CFG)
    assert g1 == pytest.approx(1.0 - 0.3, abs=1e-15)  # G'(q) - t


def test_one_point_grid_free_particle_values():
    q, status = solve_one(FREE, 2.0, 0.0, (0.01, 20.0), CFG)
    assert status is Status.RESOLVED and q == pytest.approx(1.0, abs=1e-10)
    q, status = solve_one(FREE, 1.0, 0.5, (0.01, 20.0), CFG)
    assert status is Status.RESOLVED and q == pytest.approx(1.0, abs=1e-10)


def test_one_point_grid_validates_range():
    with pytest.raises(ValueError):
        solve_one(FREE, 1.0, 0.0, (5.0, 5.0), CFG)


def test_one_point_degenerate_at_origin():
    # at x = x0 = 0 the free-particle condition loses its q dependence
    q, status = solve_one(FREE, 0.0, 0.3, (0.01, 20.0), CFG)
    assert q is None and status is Status.NO_ROOT
    q, status = line_solve(FREE, 0.0, 1.0, (0.01, 20.0), CFG, warm=7.0)
    assert status is Status.MULTI_ROOT and q == 7.0


@pytest.mark.parametrize(
    "prob, xs, ts, q_range, seen",
    [
        # roots below q_min near x = 0
        (FREE, (0.0, 2.5), (0.0, 0.6), (0.01, 20.0), {Status.RESOLVED, Status.NO_ROOT}),
        (OSC, (0.1, 0.6), (0.1, 0.6), (0.05, 6.0), {Status.RESOLVED}),
        # rows with x^2 above q_max clip to an empty scan range
        (OSC_G0, (0.3, 0.9), (0.0, 0.4), (0.01, 0.5), {Status.NO_ROOT, Status.DOMAIN_FAIL}),
    ],
    ids=["free_particle", "harmonic", "clipped_rows"],
)
def test_one_point_grid_is_the_cold_line_solve(prob, xs, ts, q_range, seen):
    # a 1 x 1 solve_grid solves its point as its row's RootLine does cold
    rng = random.Random(7)
    statuses = set()
    for _ in range(60):
        x, t = rng.uniform(*xs), rng.uniform(*ts)
        line = hj._root_line(hj._RowTable(prob, x, CFG.quad_tol), *q_range, CFG)
        want = (None, Status.DOMAIN_FAIL) if line is None else line.solve(t)[:2]
        got = solve_one(prob, x, t, q_range, CFG)
        assert repr(got) == repr(want)
        statuses.add(got[1])
    assert statuses == seen


def test_action_value_free_particle():
    assert hj.action_value(FREE, 2.0, 0.0, 1.0, CFG) == pytest.approx(1.0, abs=1e-12)
    assert hj.action_value(FREE, 1.0, 0.5, 1.0, CFG) == pytest.approx(0.5, abs=1e-12)


def test_action_value_oscillator_closed_form():
    # (x/2) sqrt(q-x^2) + (q/2) asin(x/sqrt(q)) + q t at q=4, x=1
    base = 0.5 * math.sqrt(3.0) + 2.0 * math.asin(0.5)
    assert base == pytest.approx(1.9132229549810362, abs=1e-14)
    for t in (0.0, 0.3):
        got = hj.action_value(OSC_G0, 1.0, t, 4.0, CFG)
        assert got == pytest.approx(base + 4.0 * t, abs=1e-9)


def test_action_value_at_x0_fails_like_momentum():
    # the action reads a and V at x0 once per problem; below the margin
    # there it raises momentum's own error, naming x0
    prob = hj.HJProblem("1", "x^2", "q^2/2", x0=0.5)
    with pytest.raises(DomainError) as want:
        hj.momentum(prob, 0.5, 0.25)
    for _ in range(2):
        with pytest.raises(DomainError) as got:
            hj.action_value(prob, 1.0, 0.3, 0.25, CFG)
        assert (str(got.value), got.value.where) == (str(want.value), 0.5)
    q = 2.0
    base = 0.5 * hj.momentum(prob, 0.5, q)
    want = base + hj._RowTable(prob, 1.0, CFG.quad_tol).momentum_integral(q) + q * 0.3 - 2.0
    assert hj.action_value(prob, 1.0, 0.3, q, CFG) == want


def test_separation_action_values():
    assert hj.separation_action(FREE, 1.0, 2.0, 3.0, CFG) == pytest.approx(5.0, abs=1e-12)
    got = hj.separation_action(OSC_G0, 1.0, 0.5, 0.0, CFG)
    exact = 0.25 * math.sqrt(0.75) + 0.5 * math.asin(0.5)
    assert exact == pytest.approx(0.47830573874525905, abs=1e-15)
    assert got == pytest.approx(exact, abs=1e-9)
    assert hj.separation_action(OSC_G0, 1.0, 0.0, 0.0, CFG) == 0.0


def test_separation_action_admissibility():
    with pytest.raises(DomainError) as info:
        hj.separation_action(OSC_G0, 0.5, 0.9, 0.0, CFG)  # E - V < 0 on the path
    # the failing level's largest-V node, as on the dp/dq path
    where = info.value.where
    assert 0.0 <= where <= 0.9
    assert 0.5 - OSC_G0._v_fn(where) < OSC_G0.margin(0.5)
    for energy in (math.nan, math.inf):  # a non-finite integrand is a domain error
        with pytest.raises(DomainError):
            hj.separation_action(OSC_G0, energy, 0.5, 0.0, CFG)


def separated_reference(prob, energy, x, t, tol):
    """The separated action from a callable quadrature of sqrt((E - V)/a)."""

    def integrand(s):
        return prob.sigma * hj.momentum(prob, s, energy)

    return integrate_adaptive(integrand, prob.x0, x, tol) + energy * t


@pytest.mark.parametrize(
    "prob, energy, x",
    [
        (OSC_G0, 1.0, 0.8),
        (hj.HJProblem("1", "x^2", "0", sigma=-1), 1.0, 0.8),
        (OSC_G0, 1.0, -0.7),
        (hj.HJProblem("1 + x^2", "sin(x)", "0", x0=0.2), 2.0, 1.5),
        (hj.HJProblem("1 + x^2", "sin(x)", "0", x0=0.2), 2.0, -1.0),
        (hj.HJProblem("2", "0.3", "0", x0=-0.4), 1.0, 1.1),
    ],
    ids=["oscillator", "negative_branch", "x_below_x0", "varying_a", "varying_a_below_x0", "flat"],
)
def test_separation_action_matches_callable_quadrature(prob, energy, x):
    for t in (0.0, 0.3, -0.45):
        want = separated_reference(prob, energy, x, t, CFG.quad_tol)
        assert abs(hj.separation_action(prob, energy, x, t, CFG) - want) <= 1e-13
        assert hj.separation_action(prob, energy, prob.x0, t, CFG) == energy * t


def test_separation_action_one_quadrature_per_row(monkeypatch):
    prob = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
    tables = collections.Counter()  # row x of each Clenshaw-Curtis table built
    quads = [0]
    real_table, real_integral = hj._RowTable._clenshaw_curtis, hj._RowTable._integral

    def counting_table(row):
        tables[row.x] += 1
        return real_table(row)

    def counting_integral(*args):
        quads[0] += 1
        return real_integral(*args)

    monkeypatch.setattr(hj._RowTable, "_clenshaw_curtis", counting_table)
    monkeypatch.setattr(hj._RowTable, "_integral", counting_integral)
    ts = axis(0.0, 0.4, 41)
    values = [hj.separation_action(prob, 1.0, 0.7, t, CFG) for t in ts]
    assert quads[0] == 1
    assert tables == {0.7: 1}
    row = prob._last_row  # the one quadrature stopped on the row's table
    assert row._chebyshev and sum(row.quads[0][_CC16:]) == sum(row.quads[0]) == 1
    assert row._panels == {}  # no tanh-sinh panel was visited
    assert values == [values[0] + 1.0 * t for t in ts]
    # a table is per tolerance and keeps its value per energy: another of
    # either is a new quadrature
    coarse = SolverConfig(quad_tol=1e-4)
    assert hj.separation_action(prob, 1.0, 0.7, 0.0, coarse) != values[0]
    assert hj.separation_action(prob, 2.0, 0.7, 0.0, CFG) != values[0]
    assert quads[0] == 3


def test_calls_without_a_row_share_the_problem_row_table(monkeypatch):
    # constraint and action_value at many t of one x build the row's
    # Clenshaw-Curtis table once, and agree bitwise with a fresh table per call;
    # the action agrees with x p + q t - F, F from the correction integral
    prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.0)
    x, q = 0.7, 2.0
    ts = axis(0.0, 0.4, 41)
    want_g = [hj._RowTable(prob, x, CFG.quad_tol).t_at(q)[0] - t for t in ts]
    want_s = [hj._action(hj._RowTable(prob, x, CFG.quad_tol), False, t, q) for t in ts]
    correction = reference_correction_integral(prob, x, q, CFG.quad_tol) + prob._g_fn(q)
    for t, s in zip(ts, want_s):
        assert abs(s - (x * hj.momentum(prob, x, q) + q * t - correction)) <= 1e-13
    builds = collections.Counter()  # tables built: Clenshaw-Curtis, tanh-sinh levels
    real_table, real_level = hj._RowTable._clenshaw_curtis, hj._RowTable._level

    def counting_table(row):
        builds["clenshaw_curtis"] += 1
        return real_table(row)

    def counting_level(row, lo, hi, level):
        builds["tanh_sinh"] += 1
        return real_level(row, lo, hi, level)

    monkeypatch.setattr(hj._RowTable, "_clenshaw_curtis", counting_table)
    monkeypatch.setattr(hj._RowTable, "_level", counting_level)
    assert [hj.constraint(prob, x, t, q, CFG) for t in ts] == want_g
    assert [hj.action_value(prob, x, t, q, CFG) for t in ts] == want_s
    # a fresh table per call builds one Clenshaw-Curtis table per call
    assert builds == {"clenshaw_curtis": 1}


def test_calls_alternating_tolerances_match_fresh_tables():
    # the problem's one row-table slot is keyed by (x, tol): two tolerances
    # taking turns on one x each get their own table's values to the bit
    prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.0)
    x, t, q = 0.7, 0.3, 2.0
    cfgs = [CFG, SolverConfig(root_tol=1e-12, resid_tol=1e-12, quad_tol=1e-4, scan_points=16)]
    want = {}
    for cfg in cfgs:
        row = hj._RowTable(prob, x, cfg.quad_tol)
        want[cfg.quad_tol] = (
            row.t_at(q)[0] - t,
            hj._action(row, False, t, q),
            prob.sigma * hj._RowTable(prob, x, cfg.quad_tol).momentum_integral(1.0) + 1.0 * t,
        )
    assert want[cfgs[0].quad_tol] != want[cfgs[1].quad_tol]
    for _ in range(2):
        for cfg in cfgs:
            got = (
                hj.constraint(prob, x, t, q, cfg),
                hj.action_value(prob, x, t, q, cfg),
                hj.separation_action(prob, 1.0, x, t, cfg),
            )
            assert got == want[cfg.quad_tol]
            assert prob._last_row.tol == cfg.quad_tol


def test_solve_grid_leaves_the_row_table_slot_alone():
    # solve_grid builds its own rows; the slot serves the one-point calls
    prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.0, eps_adm=1e-3)
    field = hj.solve_grid(prob, axis(0.15, 0.45, 5), axis(0.2, 0.5, 5), (0.05, 6.0), CFG)
    assert field.resolved_fraction() == 1.0
    assert prob._last_row is None


def separated_rows(prob, xs, ts):
    return {(x, t): hj.separation_action(prob, 1.0, x, t, CFG) for x in xs for t in ts}


def test_separation_action_independent_of_call_order():
    xs, ts = axis(0.1, 0.8, 5), axis(0.0, 0.4, 7)
    by_row = separated_rows(hj.HJProblem("1", "x^2", "0"), xs, ts)
    prob = hj.HJProblem("1", "x^2", "0")
    # x1, x2, x1, ...: every call replaces the problem's kept row table
    interleaved = {(x, t): hj.separation_action(prob, 1.0, x, t, CFG) for t in ts for x in xs}
    assert interleaved == by_row


def test_solve_grid_free_particle_matches_closed_form():
    field = hj.solve_grid(FREE, axis(0.5, 2.0, 13), axis(0.0, 0.5, 11), (0.01, 20.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i, x in enumerate(field.axis1):
        for j, t in enumerate(field.axis2):
            assert field.value[i][j] == pytest.approx(
                x * x / (4.0 * (1.0 - t)), abs=1e-10
            )
            assert field.q[i][j] == pytest.approx(
                x * x / (4.0 * (1.0 - t) ** 2), abs=1e-10
            )
            assert field.p[i][j] == hj.momentum(FREE, x, field.q[i][j])


@pytest.mark.parametrize(
    "prob, xs, ts",
    [
        (OSC, axis(0.15, 0.45, 7), axis(0.2, 0.5, 9)),
        (BUMP, axis(0.5, 0.9, 9), axis(0.5, 1.5, 7)),
        (KINKED, axis(0.4, 0.8, 5), axis(0.2, 0.4, 3)),
    ],
    ids=["harmonic", "failing_margin", "split_panels"],
)
def test_solve_grid_stores_the_one_point_action_and_momentum(prob, xs, ts):
    # the grid takes S and p at each root in one pass over its row's table;
    # action_value and momentum take them one point at a time, and every
    # stored pair is theirs to the bit (repr tells -0.0 from 0.0)
    stats = SolveStats()
    field = hj.solve_grid(prob, xs, ts, (0.05, 6.0), CFG, stats=stats)
    stored = 0
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            q = field.q[i][j]
            if field.value[i][j] is None:
                continue
            stored += 1
            assert repr(field.value[i][j]) == repr(hj.action_value(prob, x, t, q, CFG))
            assert repr(field.p[i][j]) == repr(hj.momentum(prob, x, q))
    assert stored >= len(ts)
    # the cases reach what they are named for: scan samples whose dp/dq
    # quadrature fails the margin, and p quadratures on halved panels
    assert (stats.dpdq_quads[8] > 0) == (prob is BUMP)
    assert (stats.p_quads[7] > 0) == (prob is not OSC)


def test_a_row_whose_ceiling_raises_has_no_line():
    # V = sqrt(x - 0.3) raises on the ceiling samples between x = 0.1 and
    # x0 = 0.5, so that row has no root line: its points are domain_fail
    # and the stats count them as points but not as targets
    prob = hj.HJProblem("1", "sqrt(x - 0.3)", "q^2/2", x0=0.5)
    assert hj._root_line(hj._RowTable(prob, 0.1, CFG.quad_tol), 0.0, 5.0, CFG) is None
    stats = SolveStats()
    field = hj.solve_grid(prob, [0.1, 0.4, 0.9], [0.5, 1.0], (0.0, 5.0), CFG, stats)
    assert field.status == [[Status.DOMAIN_FAIL] * 2] + [[Status.RESOLVED] * 2] * 2
    assert (stats.points, stats.targets) == (6, 4)


def test_solve_grid_momentum_consistency():
    field = hj.solve_grid(OSC, axis(0.15, 0.45, 21), axis(0.2, 0.5, 21), (0.05, 6.0), CFG)
    assert field.resolved_fraction() == 1.0
    for i in range(1, 20):
        for j in range(1, 20):
            ds = finite_diff_partials(field, i, j)
            assert abs(ds[0] - field.p[i][j]) < 2e-4
            assert abs(ds[1] - field.q[i][j]) < 2e-4


def test_solve_grid_all_domain_fail_below_potential():
    field = hj.solve_grid(OSC_G0, axis(0.5, 0.9, 5), axis(0.0, 0.4, 5), (0.01, 0.2), CFG)
    assert all(s is Status.DOMAIN_FAIL for row in field.status for s in row)


def test_constraint_direct_form_matches_simplified():
    rng = random.Random(3)
    for _ in range(25):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.0, 0.4)
        q = rng.uniform(1.5, 6.0)
        g1 = hj.constraint(OSC_G0, x, t, q, CFG)
        g2 = hj.constraint(OSC_G0, x, t, q, CFG, direct=True)
        assert abs(g1 - g2) <= 10.0 * CFG.quad_tol


def test_constraint_is_negative_q_derivative_of_action():
    rng = random.Random(11)
    tight = SolverConfig(root_tol=1e-12, resid_tol=1e-12, quad_tol=1e-13, scan_points=16)
    for _ in range(40):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.0, 0.4)
        q = rng.uniform(1.5, 6.0)
        g = hj.constraint(OSC_G0, x, t, q, tight)
        h = 1e-6 * (1.0 + abs(q))
        fd = central_difference(
            lambda v: hj.action_value(OSC_G0, x, t, v, tight), q, h
        )
        assert abs(g - (-fd)) <= 1e-6 * (1.0 + abs(g))


def test_generator_shift_gauge():
    shifted = hj.HJProblem("1", "x^2", "q^2/2 + 5", sigma=1, x0=0.0, eps_adm=1e-3)
    grid = (axis(0.15, 0.45, 9), axis(0.2, 0.5, 9))
    f1 = hj.solve_grid(OSC, grid[0], grid[1], (0.05, 6.0), CFG)
    f2 = hj.solve_grid(shifted, grid[0], grid[1], (0.05, 6.0), CFG)
    for i in range(9):
        for j in range(9):
            assert f2.q[i][j] == f1.q[i][j]
            assert f2.value[i][j] == pytest.approx(f1.value[i][j] - 5.0, abs=1e-12)


def test_base_point_choice_changes_member_not_validity():
    # different x0 values give different family members; both satisfy the
    # equation, checked through the momentum consistency identity
    for x0 in (0.0, 0.3):
        prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=x0, eps_adm=1e-3)
        field = hj.solve_grid(prob, axis(0.15, 0.45, 15), axis(0.2, 0.5, 15), (0.05, 6.0), CFG)
        assert field.resolved_fraction() == 1.0
        for i in range(1, 14):
            for j in range(1, 14):
                ds = finite_diff_partials(field, i, j)
                assert abs(ds[0] - field.p[i][j]) < 1e-3
                assert abs(ds[1] - field.q[i][j]) < 1e-3
    f0 = hj.solve_grid(
        hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.0, eps_adm=1e-3),
        axis(0.15, 0.45, 5), axis(0.2, 0.5, 5), (0.05, 6.0), CFG,
    )
    f3 = hj.solve_grid(
        hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=0.3, eps_adm=1e-3),
        axis(0.15, 0.45, 5), axis(0.2, 0.5, 5), (0.05, 6.0), CFG,
    )
    assert any(
        f0.value[i][j] != pytest.approx(f3.value[i][j], abs=1e-6)
        for i in range(5)
        for j in range(5)
    )


def test_solve_grid_independent_of_the_row_table_slot():
    # the problem's kept row table may hold another x, or the grid's own x
    # with levels filled at other q; the field is the same to the bit
    for args, xs, ts, q_range in (
        (("1", "0", "q"), axis(0.5, 2.0, 9), axis(0.0, 0.5, 9), (0.01, 20.0)),
        (("1", "x^2", "q^2/2"), axis(0.15, 0.45, 9), axis(0.2, 0.5, 9), (0.05, 6.0)),
    ):
        fresh = hj.solve_grid(hj.HJProblem(*args, eps_adm=1e-3), xs, ts, q_range, CFG)
        used = hj.HJProblem(*args, eps_adm=1e-3)
        hj.solve_grid(used, xs[1::2], ts[::3], q_range, CFG)
        for q in (0.5, 1.5, 3.0):
            hj.action_value(used, xs[0], 0.3, q, CFG)
        line_solve(used, xs[0], ts[4], q_range, CFG)
        field = hj.solve_grid(used, xs, ts, q_range, CFG)
        assert field.q == fresh.q
        assert field.value == fresh.value
        assert field.p == fresh.p
        assert field.status == fresh.status


def point_loop(prob, xs, ts, q_range, cfg):
    """Each point from its own line solve with the sweep's warm starts: a
    scan and Brent's method from the coarse bracket, no predictor."""
    q = [[None] * len(ts) for _ in xs]
    status = [[None] * len(ts) for _ in xs]
    for i, x in enumerate(xs):
        warm = q[i - 1][0] if i > 0 else None
        q[i][0], status[i][0] = line_solve(prob, x, ts[0], q_range, cfg, warm)
    for i, x in enumerate(xs):
        for j in range(1, len(ts)):
            q[i][j], status[i][j] = line_solve(prob, x, ts[j], q_range, cfg, q[i][j - 1])
    return q, status


def root_lines(prob, xs, q_range, cfg):
    return [hj._root_line(hj._RowTable(prob, x, cfg.quad_tol), *q_range, cfg) for x in xs]


@pytest.mark.parametrize(
    "prob, xs, ts, q_range",
    [
        (FREE, axis(0.5, 2.0, 7), axis(0.0, 0.5, 9), (0.01, 20.0)),
        (OSC, axis(0.15, 0.45, 7), axis(0.2, 0.5, 9), (0.05, 6.0)),
        # rows with x^2 above q_max clip to an empty scan range
        (OSC_G0, axis(0.3, 0.9, 7), axis(0.0, 0.4, 5), (0.01, 0.5)),
        (BUMP, axis(0.7, 1.1, 9), axis(0.2, 0.45, 6), (0.05, 6.0)),
    ],
    ids=["free_particle", "harmonic", "clipped_rows", "failing_scan_samples"],
)
def test_solve_grid_matches_point_loop_bitwise(prob, xs, ts, q_range):
    # the grid's continuation predictor moves where Brent's method stops
    # inside the same tolerance, so roots agree to the 1e-10 drift gate, not
    # bitwise; the statuses must agree exactly
    field = hj.solve_grid(prob, xs, ts, q_range, CFG)
    q, status = point_loop(prob, xs, ts, q_range, CFG)
    assert field.status == status
    for got_row, want_row in zip(field.q, q):
        for got, want in zip(got_row, want_row):
            assert (got is None) == (want is None)
            assert got is None or abs(got - want) <= 1e-10
    assert any(s is not Status.DOMAIN_FAIL for row in status for s in row)


def test_grid_cases_reach_clipped_rows_and_failing_samples():
    # the two edge cases of the loop comparison above really occur
    clipped = root_lines(OSC_G0, axis(0.3, 0.9, 7), (0.01, 0.5), CFG)
    assert None in clipped and any(line is not None for line in clipped)
    bumpy = root_lines(BUMP, axis(0.7, 1.1, 9), (0.05, 6.0), CFG)
    assert any(len(line.samples) < CFG.scan_points + 1 for line in bumpy)
    assert all(line.samples for line in bumpy)


@pytest.mark.parametrize("n_t", [1, 2, 9])
def test_scan_samples_evaluated_once_per_row(monkeypatch, n_t):
    xs, q_range = axis(0.15, 0.45, 5), (0.05, 6.0)
    quads = collections.Counter()  # (row x, q) of every root-condition evaluation
    real_t_at = hj._RowTable.t_at

    def counting_t_at(row, q):
        quads[(row.x, q)] += 1
        return real_t_at(row, q)

    monkeypatch.setattr(hj._RowTable, "t_at", counting_t_at)
    field = hj.solve_grid(OSC, xs, axis(0.2, 0.5, n_t) if n_t > 1 else [0.3], q_range, CFG)
    assert field.resolved_fraction() == 1.0
    scanned = 0
    for x in xs:
        lo = hj._scan_floor(OSC, hj._potential_ceiling(OSC, x), q_range[0])
        for q in scan_abscissae(lo, q_range[1], CFG.scan_points):
            assert quads[(x, q)] == 1
            scanned += 1
    assert scanned == len(xs) * (CFG.scan_points + 1)
    assert sum(quads.values()) > scanned  # the refinement still runs per point


def test_bump_roots_below_its_peak_are_not_resolved():
    # q below the bump's peak V = 1 makes q - V negative on part of the
    # segment; quadrature nodes that miss the peak must not resolve such a root
    field = hj.solve_grid(BUMP, [0.95, 1.0], axis(0.2, 0.5, 9), (0.05, 6.0), CFG)
    for row_q, row_status in zip(field.q, field.status):
        for q, status in zip(row_q, row_status):
            assert status is not Status.RESOLVED or q >= 1.0 + BUMP.eps_adm


@pytest.mark.parametrize(
    "prob, x, q, falls_back",
    [
        (OSC_G0, 0.9, 0.81 + 2e-9, True),
        (OSC, 0.45, 1.3, False),
        (FREE, 1.7, 0.4, False),
        (OSC, -0.6, 2.0, False),
    ],
    ids=["oscillator_layer", "oscillator", "free_particle", "x_below_x0"],
)
def test_row_table_matches_integrate_adaptive(prob, x, q, falls_back):
    row = hj._RowTable(prob, x, CFG.quad_tol)
    want = integrate_adaptive(lambda s: hj.momentum_partials(prob, s, q)[1], prob.x0, x, CFG.quad_tol)
    assert abs(row._integral(q, prob.margin(q), True)[0] - want) <= 1e-13
    want = integrate_adaptive(lambda s: hj.momentum(prob, s, q), prob.x0, x, CFG.quad_tol)
    assert abs(row.momentum_integral(q) - want) <= 1e-13
    # the turning-point layer falls back to tanh-sinh, which converges on
    # the whole segment; the others stop on the Clenshaw-Curtis table
    assert list(row._panels) == ([(row.lo, row.hi)] if falls_back else [])


@pytest.mark.parametrize(
    "prob, x, distinct",
    [(FREE, 1.3, lambda n: 1), (hj.HJProblem("1", "x^2", "q", x0=-0.5), 0.5, lambda n: (n + 1) // 2)],
    ids=["flat", "even"],
)
def test_row_table_merges_equal_potential_nodes_exactly(prob, x, distinct):
    # V is constant (flat) or even on a segment symmetric about 0 (even)
    row = hj._RowTable(prob, x, CFG.quad_tol)
    q = 2.0
    integrands = (
        (lambda s: hj.momentum_partials(prob, s, q)[1], lambda terms: sum(c / math.sqrt(q - v) for v, c in terms)),
        (lambda s: hj.momentum(prob, s, q), lambda terms: 2.0 * sum(c * math.sqrt(q - v) for v, c in terms)),
    )
    row.t_at(q)
    row.momentum_integral(q)
    # the Clenshaw-Curtis table: orders 8 and 16 on its 17 points, 32 on 33
    vmax, clearance, coarse, fine = row._chebyshev
    tables = []
    for n, terms, column in ((8, coarse, 1), (16, coarse, 2), (32, fine, 1)):
        nodes = chebyshev_rule(row.lo, row.hi, n)
        points = nodes if n > 8 else chebyshev_rule(row.lo, row.hi, 16)
        assert len(terms) == distinct(len(points))
        assert [v for v, *_ in terms] == list(dict.fromkeys(prob._v_fn(s) for s, _ in points))
        tables.append((nodes, [(term[0], term[column]) for term in terms]))
    values = [prob._v_fn(s) for s, _ in chebyshev_rule(row.lo, row.hi, 32)]
    assert vmax == max(values)
    assert clearance == hj._TURNING_CLEARANCE * (max(values) - min(values))
    # the tanh-sinh levels, built by the fallback path run on its own
    row._tanh_sinh(q, prob.margin(q), True)
    levels = [
        (lo, hi, level, data)
        for (lo, hi), built in row._panels.items()
        for level, data in enumerate(built)
    ]
    assert len(levels) >= 2
    for lo, hi, level, (vmax, _, terms) in levels:
        nodes = tanh_sinh_nodes(lo, hi, level)
        assert len(terms) == distinct(len(nodes))
        assert vmax == max(prob._v_fn(s) for s, _ in nodes)
        tables.append((nodes, terms))
    for nodes, terms in tables:
        for integrand, merged in integrands:
            unmerged = math.fsum(w * integrand(s) for s, w in nodes)
            assert merged(terms) == pytest.approx(unmerged, rel=1e-15, abs=1e-300)


# --- the row kernel against the closure path it replaced ------------------


def tanh_sinh(level_sum, lo, hi, tol):
    """Nested tanh-sinh over a level-sum callback: the loop the row table
    ran through before it ran its own, kept as its bitwise reference.

    ``level_sum(a, b, l)`` is the weighted integrand sum over the nodes
    level l adds on [a, b]; the stop rule and halving are the table's.
    """
    total = 0.0
    splits = 0
    panels = [(lo, hi, tol)]  # a stack; the leftmost panel is on top
    while panels:
        a, b, panel_tol = panels.pop()
        estimate = level_sum(a, b, 0)
        for level in range(1, _SPLIT_LEVEL + 1):
            prev = estimate
            estimate = 0.5 * prev + level_sum(a, b, level)
            if abs(estimate - prev) <= panel_tol:
                total += estimate
                break
        else:
            splits += 1
            if splits > _MAX_SPLITS:
                raise ConvergenceError(f"quadrature not converged after {_MAX_SPLITS} halvings")
            m = 0.5 * (a + b)
            panels.append((m, b, 0.5 * panel_tol))
            panels.append((a, m, 0.5 * panel_tol))
    return total


def _fold(values):
    # left to right from 0.0, which is what sum() computes on CPython
    # before 3.12 (later versions compensate the rounding)
    return functools.reduce(operator.add, values, 0.0)


def reference_level_sum(row, q, slope):
    """One level's sum of ``row`` at q from a closure over (lo, hi, level)
    keyed levels, built by the row's own ``_level``: dp/dq terms when
    ``slope``, else the momentum's."""
    margin = row.prob.margin(q)
    cache = {}

    def level_sum(lo, hi, level):
        key = (lo, hi, level)
        data = cache.get(key)
        if data is None:
            data = cache[key] = row._level(lo, hi, level)
        vmax, where, terms = data
        if q - vmax < margin:
            raise DomainError("momentum argument below admissibility margin", where=where)
        if slope:
            return _fold([c / math.sqrt(q - v) for v, c in terms])
        total = 2.0 * _fold([c * math.sqrt(q - v) for v, c in terms])
        if not math.isfinite(total):
            raise DomainError("non-finite integrand value", where=where)
        return total

    return level_sum


def chebyshev_rule(lo, hi, n):
    """(abscissa, weight) of the Clenshaw-Curtis rule of even order n on
    [lo, hi], from lo to hi, written out from the cosine formula apart from
    the package's: node k at cos(k pi / n), placed as 2 sin^2(k pi / 2n)
    half-widths from its nearer end (1 at the centre), with weight
    (c / n) (1 - sum_j b cos(2 j k pi / n) / (4 j^2 - 1)) times the
    half-width, c = 1 at the ends and 2 elsewhere, b = 1 at j = n/2 and 2
    elsewhere."""
    hw = 0.5 * (hi - lo)
    half = []
    for k in range(n // 2 + 1):
        cosines = 0.0
        for j in range(1, n // 2 + 1):
            cosines += (1.0 if 2 * j == n else 2.0) * math.cos(2 * j * k * math.pi / n) / (4 * j * j - 1)
        d = 1.0 if 2 * k == n else 2.0 * math.sin(k * math.pi / (2 * n)) ** 2
        half.append((d, hw * ((1.0 if k == 0 else 2.0) / n * (1.0 - cosines))))
    return [(lo + hw * d, w) for d, w in half] + [(hi - hw * d, w) for d, w in half[-2::-1]]


def reference_clenshaw_curtis(row, q, slope):
    """The Clenshaw-Curtis stage of ``row``'s quadrature at q, rebuilt from
    :func:`chebyshev_rule`: (value, stats slot, terms summed), value
    ``None`` when the stage gives way to tanh-sinh.  Orders 8 and 16 share
    the 17 points of n = 16, merged by V into (c8, c16); n = 32 merges its
    33 points into c32.  A point where a or V raises, q below the largest
    V of the 33 points plus the margin or plus ``_TURNING_CLEARANCE`` times
    their range of V, or no stop by n = 32 give way."""
    prob = row.prob
    margin = prob.margin(q)
    points = chebyshev_rule(row.lo, row.hi, 32)
    try:
        coefficients = [hj._coefficients(prob, s) for s, _ in points]
    except DomainError:
        return None, None, 0
    w8 = [w for _, w in chebyshev_rule(row.lo, row.hi, 8)]
    w16 = [w for _, w in chebyshev_rule(row.lo, row.hi, 16)]
    coarse = {}
    for k, (av, v) in enumerate(coefficients[::2]):
        c8 = 0.0 if k % 2 else 0.5 * prob.sigma * w8[k // 2] / math.sqrt(av)
        m8, m16 = coarse.get(v, (0.0, 0.0))
        coarse[v] = (m8 + c8, m16 + 0.5 * prob.sigma * w16[k] / math.sqrt(av))
    fine = {}
    for (av, v), (_, w) in zip(coefficients, points):
        fine[v] = fine.get(v, 0.0) + 0.5 * prob.sigma * w / math.sqrt(av)

    def estimate(terms):
        if slope:
            return _fold([c / math.sqrt(q - v) for v, c in terms])
        return 2.0 * _fold([c * math.sqrt(q - v) for v, c in terms])

    vmax = max(v for _, v in coefficients)
    vmin = min(v for _, v in coefficients)
    if q - vmax < margin or q - vmax < hj._TURNING_CLEARANCE * (vmax - vmin):
        return None, None, 0
    i8 = estimate((v, c8) for v, (c8, _) in coarse.items())
    i16 = estimate((v, c16) for v, (_, c16) in coarse.items())
    if abs(i16 - i8) <= row.tol:
        return i16, _CC16, len(coarse)
    i32 = estimate(fine.items())
    if abs(i32 - i16) <= row.tol:
        return i32, _CC32, len(coarse) + len(fine)
    return None, None, len(coarse) + len(fine)


def tanh_sinh_integral(row, q, slope):
    """The row integral by nested tanh-sinh alone: the row table's path
    before it tried Clenshaw-Curtis first, and its fallback since."""
    if row.lo == row.hi:
        return 0.0
    return row.sign * tanh_sinh(reference_level_sum(row, q, slope), row.lo, row.hi, row.tol)


def reference_integral(row, q, slope):
    if row.lo == row.hi:
        return 0.0
    value = reference_clenshaw_curtis(row, q, slope)[0]
    if value is not None:
        return row.sign * value
    return tanh_sinh_integral(row, q, slope)


def level_of(row, q):
    """The t of ``row``'s level at q, without the slope beside it."""
    return row.t_at(q)[0]


def row_integral(row, q, slope):
    """``row``'s integral at q, of dp/dq without the q-derivative the
    kernel sums beside it, or of p, as the references give it."""
    value = row._integral(q, row.prob.margin(q), slope)
    return value[0] if slope else value


def reference_t_at(row, q):
    prob = row.prob
    g_slope = prob._g_slopes_fn(q)[0]
    integral = reference_integral(row, q, True)
    return g_slope - integral - prob.x0 * hj.momentum_partials(prob, prob.x0, q)[1]


def reference_correction_integral(prob, x, q, tol):
    """Integral of s dp/dx(s, q) from x0 to x as the row table took it for
    the action before the action was taken by parts: the terms
    (alpha - q beta) / sqrt(q - V), with
    alpha = sigma w s (a'V - aV') / (2 a sqrt(a)) and
    beta = sigma w s a' / (2 a sqrt(a)), merged by V."""
    lo, hi = min(prob.x0, x), max(prob.x0, x)
    if lo == hi:
        return 0.0
    margin = prob.margin(q)

    def level_sum(a, b, level):
        merged = {}
        vmax = -math.inf
        for s, w in tanh_sinh_nodes(a, b, level):
            av, v = hj._coefficients(prob, s)
            a_p, v_p = prob._ap_fn(s), prob._vp_fn(s)
            vmax = max(vmax, v)
            k = 0.5 * prob.sigma * w * s / (av * math.sqrt(av))
            al, be = merged.get(v, (0.0, 0.0))
            merged[v] = (al + k * (a_p * v - av * v_p), be + k * a_p)
        assert q - vmax >= margin
        return _fold([(al - q * be) / math.sqrt(q - v) for v, (al, be) in merged.items()])

    return (1.0 if x >= prob.x0 else -1.0) * tanh_sinh(level_sum, lo, hi, tol)


def outcome(fn, *args):
    """repr of the value, or the exception's type, message and abscissa."""
    try:
        return repr(fn(*args))
    except (DomainError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "where", None)


# (kinetic, potential, x0): flat, even about 0 on [-0.5, 0.5], oscillator,
# and a varying kinetic term under a potential that is neither
ROW_PROBLEMS = {
    "flat": ("2", "0.3", -0.4),
    "even": ("1", "x^2", -0.5),
    "oscillator": ("1", "x^2", 0.0),
    "varying": ("1 + x^2", "sin(x)", 0.2),
}


@settings(deadline=None, database=None, max_examples=300)
@given(
    name=st.sampled_from(sorted(ROW_PROBLEMS)),
    sigma=st.sampled_from([1, -1]),
    x=st.floats(-1.2, 1.2),
    gap=st.one_of(st.floats(1e-7, 4.0), st.floats(-0.5, 1e-7)),
    tol=st.sampled_from([1e-10, 1e-13, 1e-6]),
)
def test_row_kernel_matches_the_closure_path_bitwise(name, sigma, x, gap, tol):
    kinetic, potential, x0 = ROW_PROBLEMS[name]
    prob = hj.HJProblem(kinetic, potential, "q^2/2", sigma=sigma, x0=x0)
    # q a gap above V's largest value on the segment; a negative gap
    # makes q inadmissible somewhere, and both paths must fail alike
    segment = scan_abscissae(min(x0, x), max(x0, x), 64)
    q = max(prob._v_fn(s) for s in segment) + gap
    want_t = outcome(reference_t_at, hj._RowTable(prob, x, tol), q)
    want_p = outcome(reference_integral, hj._RowTable(prob, x, tol), q, False)
    row = hj._RowTable(prob, x, tol)
    for _ in range(2):  # built on the first call, read back on the second
        assert outcome(level_of, row, q) == want_t
        assert outcome(row.momentum_integral, q) == want_p
    assert outcome(hj._RowTable(prob, x, tol).momentum_integral, q) == want_p


def test_row_kernel_halves_panels_like_the_closure_path():
    # interior kinks of V at -0.4 and 0.3: a panel holding one has not
    # converged by level 6, so the kernel halves it, and the halves match
    # the reference
    prob = hj.HJProblem("1", "abs(x - 0.3) + abs(x + 0.4)", "q^2/2", x0=0.0)
    for x, q in ((1.0, 2.2), (-0.9, 1.8), (0.7, 1.5 + 1e-6)):
        row = hj._RowTable(prob, x, CFG.quad_tol)
        got = (row.t_at(q)[0], row.momentum_integral(q))
        assert len(row._panels) > 1
        fresh = hj._RowTable(prob, x, CFG.quad_tol)
        want = (reference_t_at(fresh, q), reference_integral(fresh, q, False))
        assert repr(got) == repr(want)


@pytest.mark.parametrize("x0", [0.0, 0.2])
@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.9, -0.7])
@pytest.mark.parametrize("share", [1.05, 1.5, 5.0, 20.0])
def test_row_level_slope_is_the_closed_form_derivative(x0, x, share):
    # the harmonic level with a = 1, V = x^2, G = q^2/2 in closed form:
    # t(q) = q - (asin(x/sqrt q) - asin(x0/sqrt q))/2 - x0/(2 sqrt(q - x0^2)),
    # so t'(q) = 1 + x/(4 q r(x)) - x0/(4 q r(x0)) + x0/(4 r(x0)^3), with
    # r(s) = sqrt(q - s^2).  q is ``share`` times V's largest value on the
    # segment, plus 0.01: with x0 = 0, 1.05 falls back to tanh-sinh, 1.5
    # stops at n = 32, 5 and 20 at n = 16
    prob = hj.HJProblem("1", "x^2", "q^2/2", sigma=1, x0=x0)
    q = share * max(x * x, x0 * x0) + 0.01
    r, r0 = math.sqrt(q - x * x), math.sqrt(q - x0 * x0)
    slope = 1.0 + x / (4.0 * q * r) - x0 / (4.0 * q * r0) + x0 / (4.0 * r0**3)
    row = hj._RowTable(prob, x, CFG.quad_tol)
    t, got = row.t_at(q)
    level = q - 0.5 * (math.asin(x / math.sqrt(q)) - math.asin(x0 / math.sqrt(q))) - 0.5 * x0 / r0
    assert t == pytest.approx(level, abs=1e-10)
    assert got == pytest.approx(slope, rel=1e-9)


def test_row_level_slope_after_the_last_halving_is_summed_like_the_level():
    # V's kinks at -0.4 and 0.3 make the tanh-sinh fallback halve panels;
    # the slope it carries with the same weights is the level's derivative
    prob = hj.HJProblem("1", "abs(x - 0.3) + abs(x + 0.4)", "q^2/2", x0=0.0)
    for x, q in ((1.0, 2.2), (-0.9, 1.8)):
        row = hj._RowTable(prob, x, CFG.quad_tol)
        _, got = row.t_at(q)
        assert len(row._panels) > 1
        h = 1e-5
        fine = hj._RowTable(prob, x, 1e-13)
        want = (level_of(fine, q + h) - level_of(fine, q - h)) / (2.0 * h)
        assert got == pytest.approx(want, rel=1e-6)


def test_row_kernel_gives_up_after_the_last_halving():
    # a = x^2 makes dp/dq ~ 1/|s| near x0 = 0: no panel touching x0 ever
    # converges, so both paths raise after _MAX_SPLITS halvings
    prob = hj.HJProblem("x^2", "0", "q", x0=0.0)
    row = hj._RowTable(prob, 0.5, CFG.quad_tol)
    for kernel, slope in ((row.t_at, True), (row.momentum_integral, False)):
        with pytest.raises(ConvergenceError):
            kernel(2.0)
        with pytest.raises(ConvergenceError):
            reference_integral(hj._RowTable(prob, 0.5, CFG.quad_tol), 2.0, slope)
    # the whole segment, then each halving's left half, the panel at x0,
    # which is visited and fails again; the right halves are never reached
    assert len(row._panels) == 1 + _MAX_SPLITS


@settings(deadline=None, database=None, max_examples=200)
@given(
    name=st.sampled_from(sorted(ROW_PROBLEMS)),
    sigma=st.sampled_from([1, -1]),
    x=st.floats(-1.2, 1.2),
    gap=st.floats(1e-7, 4.0),
)
def test_row_integrals_match_integrate_adaptive(name, sigma, x, gap):
    # whichever rule stops, both row integrals agree with tanh-sinh on the
    # callable integrands, to 1e-13 or, past 1, 1e-13 of the integral (a
    # small gap under a flat V makes dp/dq's integral 1.6e3, where 1e-13
    # is below an ulp); every V here peaks at an end of the segment, a
    # scan sample, so q clears the margin at every node of either rule
    kinetic, potential, x0 = ROW_PROBLEMS[name]
    prob = hj.HJProblem(kinetic, potential, "q^2/2", sigma=sigma, x0=x0)
    q = max(prob._v_fn(s) for s in scan_abscissae(min(x0, x), max(x0, x), 64)) + gap
    row = hj._RowTable(prob, x, CFG.quad_tol)
    want = integrate_adaptive(lambda s: hj.momentum_partials(prob, s, q)[1], x0, x, CFG.quad_tol)
    assert abs(row._integral(q, prob.margin(q), True)[0] - want) <= 1e-13 * max(1.0, abs(want))
    want = integrate_adaptive(lambda s: hj.momentum(prob, s, q), x0, x, CFG.quad_tol)
    assert abs(row.momentum_integral(q) - want) <= 1e-13 * max(1.0, abs(want))


def fell_back(row, slope):
    """Whether every quadrature of ``row`` in the ``slope`` slots ended on
    the tanh-sinh path (slots 0-8), and at least one ran."""
    quads = row.quads[slope]
    return sum(quads[:_CC16]) > 0 and sum(quads[_CC16:]) == 0


def test_a_node_that_raises_falls_back():
    # a = x^2 vanishes at x0 = 0, an end of the segment and so a
    # Clenshaw-Curtis node: the table is abandoned, and tanh-sinh, which
    # never samples an end, gives up after its last halving as before
    prob = hj.HJProblem("x^2", "0", "q", x0=0.0)
    for slope in (True, False):
        row = hj._RowTable(prob, 0.5, CFG.quad_tol)
        want = outcome(tanh_sinh_integral, hj._RowTable(prob, 0.5, CFG.quad_tol), 2.0, slope)
        assert want[0] == "ConvergenceError"
        assert outcome(row_integral, row, 2.0, slope) == want
        assert row._chebyshev is hj._NO_TABLE and row.quads[slope][8] == 1


def test_nodes_below_the_margin_fall_back():
    # on BUMP's row at x = 0.95 the 17 points of n = 16 miss the bump and
    # the 33 of n = 32 do not: q between their largest V clears the margin
    # at every point of n = 16 but not at all of n = 32, and each
    # quadrature is the tanh-sinh path's, as is one below both
    row = hj._RowTable(BUMP, 0.95, CFG.quad_tol)
    row.t_at(2.0)
    vmax, _, coarse, _ = row._chebyshev
    vmax16 = max(v for v, _, _ in coarse)
    assert vmax16 < 0.05 and vmax > 0.95
    for q in axis(vmax16 + 0.1, vmax - 0.01, 9) + [vmax16 - 0.01]:
        for slope in (True, False):
            row = hj._RowTable(BUMP, 0.95, CFG.quad_tol)
            want = outcome(tanh_sinh_integral, hj._RowTable(BUMP, 0.95, CFG.quad_tol), q, slope)
            assert outcome(row_integral, row, q, slope) == want
            assert sum(row.quads[slope][_CC16:]) == 0


def test_bump_statuses_are_the_tanh_sinh_paths(monkeypatch):
    # BUMP's grid meets nodes below the margin on several rows; with the
    # Clenshaw-Curtis table abandoned on every row the solve is the
    # tanh-sinh path alone, and every status is the same
    args = (BUMP, axis(0.5, 1.1, 13), axis(0.2, 1.5, 9), (0.05, 6.0), CFG)
    stats = SolveStats()
    field = hj.solve_grid(*args, stats=stats)
    # some quadratures stop on the table, and some fall back and raise
    assert sum(stats.dpdq_quads[_CC16:]) and stats.dpdq_quads[8]
    monkeypatch.setattr(hj._RowTable, "_clenshaw_curtis", lambda row: hj._NO_TABLE)
    want = hj.solve_grid(*args)
    assert field.status == want.status
    assert {s for row in want.status for s in row} == {Status.RESOLVED, Status.NO_ROOT}


def test_an_endpoint_layer_falls_back():
    # q - V(x) = 2e-9 at the row's own x: dp/dq has an inverse-square-root
    # layer there that n = 32 does not resolve, so tanh-sinh takes it, to the bit
    x, q = 0.9, 0.81 + 2e-9
    for slope in (True, False):
        row = hj._RowTable(OSC_G0, x, CFG.quad_tol)
        want = tanh_sinh_integral(hj._RowTable(OSC_G0, x, CFG.quad_tol), q, slope)
        assert repr(row_integral(row, q, slope)) == repr(want)
        assert fell_back(row, slope)


@pytest.mark.parametrize("q, slope", [(1e308, False), (1e-300, True)], ids=["momentum", "slope"])
def test_a_non_finite_sum_falls_back(q, slope):
    # a = 1e-320 makes c about 1e160: p at q = 1e308 and dp/dq at
    # q = 1e-300 overflow, so no order stops, and the tanh-sinh path gives
    # what it gave before: a DomainError for p, an infinite dp/dq integral
    prob = hj.HJProblem("1e-320", "0", "q", x0=0.0, eps_adm=1e-310)
    row = hj._RowTable(prob, 1.0, CFG.quad_tol)
    want = outcome(tanh_sinh_integral, hj._RowTable(prob, 1.0, CFG.quad_tol), q, slope)
    assert want == (("DomainError", "non-finite integrand value (at 0.5)", 0.5) if not slope else "inf")
    assert outcome(row_integral, row, q, slope) == want
    assert row._chebyshev is not hj._NO_TABLE and fell_back(row, slope)


def test_action_by_parts_matches_the_correction_form():
    # a' != 0: the by-parts action never evaluates a', the correction
    # integrand s dp/dx does, through integrate_adaptive
    prob = hj.HJProblem("1 + x^2", "x^2", "q^2/2", x0=0.2)
    for x, t, q in ((0.9, 0.1, 2.0), (-0.6, 0.3, 1.1), (0.2, 0.0, 3.0), (1.4, -0.2, 2.5)):
        want = x * hj.momentum(prob, x, q) + q * t - hj.correction_term(prob, x, q, CFG)
        assert abs(hj.action_value(prob, x, t, q, CFG) - want) <= 1e-13


def test_quadrature_convergence_failure_is_a_domain_failure(monkeypatch):
    real_integral = hj._RowTable._integral

    def give_up_on(failing):  # the dp/dq quadrature when True, else the momentum one
        def integral(row, q, margin, slope):
            if slope is failing:
                raise ConvergenceError("quadrature not converged")
            return real_integral(row, q, margin, slope)

        return integral

    xs, ts = axis(0.15, 0.45, 3), axis(0.2, 0.5, 3)
    monkeypatch.setattr(hj._RowTable, "_integral", give_up_on(False))
    field = hj.solve_grid(OSC, xs, ts, (0.05, 6.0), CFG)
    assert all(s is Status.DOMAIN_FAIL for row in field.status for s in row)
    assert field.q == field.value == field.p == [[None] * 3] * 3
    monkeypatch.setattr(hj._RowTable, "_integral", give_up_on(True))
    line = hj._root_line(hj._RowTable(OSC, 0.3, CFG.quad_tol), 0.05, 6.0, CFG)
    assert line.samples == []
    assert line.solve(0.3)[:2] == (None, Status.DOMAIN_FAIL)


@pytest.mark.parametrize("name, bound", [("free_particle", 4.5), ("harmonic", 3.7)])
def test_shipped_config_quadratures_per_point(monkeypatch, name, bound):
    # dp/dq quadratures per grid point, the row's scan samples included;
    # solving each point from its coarse brackets takes 7.04 and 4.49
    run = load_config(str(CONFIGS / f"{name}.cfg"))
    quads = [0]
    real_t_at = hj._RowTable.t_at

    def counting_t_at(row, q):
        quads[0] += 1
        return real_t_at(row, q)

    monkeypatch.setattr(hj._RowTable, "t_at", counting_t_at)
    field = hj.solve_grid(run.problem, run.axis1, run.axis2, run.q_range, run.solver)
    assert field.resolved_fraction() == 1.0
    assert quads[0] / (len(run.axis1) * len(run.axis2)) <= bound


# --- the solve's own work counts against independent ones -----------------


def recording_integrals(monkeypatch):
    """Wrap the row tables' quadrature; each call appends (row, q, slope,
    the type of the error it raised or None)."""
    calls = []
    real = hj._RowTable._integral

    def recording(row, q, margin, slope):
        try:
            value = real(row, q, margin, slope)
        except (DomainError, ConvergenceError) as exc:
            calls.append((row, q, slope, type(exc)))
            raise
        calls.append((row, q, slope, None))
        return value

    monkeypatch.setattr(hj._RowTable, "_integral", recording)
    return calls


def replayed_counts(calls):
    """The stats slots (p, dp/dq) and merged terms of ``calls``, each
    quadrature replayed on a fresh table through the reference loops:
    Clenshaw-Curtis first, then tanh-sinh.  Terms are (Clenshaw-Curtis,
    tanh-sinh) pairs of (p, dp/dq) counts."""
    quads = ([0] * 11, [0] * 11)
    cc_terms, terms = [0, 0], [0, 0]
    for row, q, slope, _ in calls:
        fresh = hj._RowTable(row.prob, row.x, row.tol)
        value, slot, summed = reference_clenshaw_curtis(fresh, q, slope)
        if value is not None:
            quads[slope][slot] += 1
            cc_terms[slope] += summed
            continue
        level_sum = reference_level_sum(fresh, q, slope)
        visited = []

        def counted(a, b, level):
            visited.append((level, len(fresh._level(a, b, level)[2])))
            return level_sum(a, b, level)

        try:
            tanh_sinh(counted, fresh.lo, fresh.hi, fresh.tol)
        except (DomainError, ConvergenceError):
            quads[slope][8] += 1
            continue
        levels = [level for level, _ in visited]
        quads[slope][7 if levels.count(0) > 1 else max(levels)] += 1
        terms[slope] += sum(n for _, n in visited)
        cc_terms[slope] += summed
    return quads, (cc_terms, terms)


def test_solve_stats_count_every_evaluation_and_quadrature(monkeypatch):
    # harmonic: each level evaluation is one t_at call and one dp/dq
    # quadrature, counted by the lines and the rows on their own
    run = load_config(str(CONFIGS / "harmonic.cfg"))
    args = (run.problem, run.axis1, run.axis2, run.q_range, run.solver)
    plain = hj.solve_grid(*args)
    t_at_calls = [0]
    real_t_at = hj._RowTable.t_at

    def counting_t_at(row, q):
        t_at_calls[0] += 1
        return real_t_at(row, q)

    monkeypatch.setattr(hj._RowTable, "t_at", counting_t_at)
    stats = SolveStats()
    field = hj.solve_grid(*args, stats=stats)
    points = len(run.axis1) * len(run.axis2)
    assert stats.points == stats.targets == stats.refined == points
    assert stats.scan == len(run.axis1) * (run.solver.scan_points + 1)
    assert sum(stats.dpdq_quads) == t_at_calls[0] == stats.scan + stats.probes + stats.brent
    assert sum(stats.p_quads) == points
    assert stats.dpdq_quads[8] == stats.p_quads[8] == 0
    # counting changes no output bit
    for name in ("q", "value", "status", "p"):
        assert repr(getattr(field, name)) == repr(getattr(plain, name))


@pytest.mark.parametrize(
    "prob, xs, ts, failing",
    [
        (KINKED, axis(0.4, 0.8, 5), axis(0.2, 0.4, 3), False),
        (BUMP, [0.95, 1.0], axis(0.2, 0.5, 9), True),
        (OSC, axis(0.15, 0.45, 5), axis(0.2, 0.5, 5), False),
        (OSC, axis(0.1, 0.9, 9), axis(0.0, 0.4, 9), False),
    ],
    ids=["split", "admissibility_failures", "harmonic", "near_turning"],
)
def test_solve_stats_quadrature_slots_match_a_replay(monkeypatch, prob, xs, ts, failing):
    calls = recording_integrals(monkeypatch)
    stats = SolveStats()
    hj.solve_grid(prob, xs, ts, (0.05, 6.0), CFG, stats=stats)
    (p_quads, dpdq_quads), ((p_cc, dpdq_cc), (p_terms, dpdq_terms)) = replayed_counts(calls)
    assert (stats.p_quads, stats.dpdq_quads) == (p_quads, dpdq_quads)
    assert (stats.p_cc_terms, stats.dpdq_cc_terms) == (p_cc, dpdq_cc)
    assert (stats.p_terms, stats.dpdq_terms) == (p_terms, dpdq_terms)
    raised = sum(error is not None for *_, error in calls)
    assert stats.dpdq_quads[8] + stats.p_quads[8] == raised
    assert (raised > 0) == failing
    if prob is KINKED:
        assert stats.dpdq_quads[7] > sum(stats.dpdq_quads) // 2
    if prob is OSC:  # both orders stop, and some quadratures fall back
        assert stats.dpdq_quads[_CC16] and stats.dpdq_quads[_CC32]
        assert sum(stats.dpdq_quads[:_CC16]) > 0
    near_turning = prob is OSC and xs[-1] == 0.9
    if prob is OSC and not near_turning:  # harmonic: under 10% of them
        assert sum(stats.dpdq_quads[:_CC16]) < sum(stats.dpdq_quads) // 10
    if near_turning:  # p quadratures that stop at a tanh-sinh level, unhalved
        assert sum(stats.p_quads[:7]) > 0 and stats.p_quads[7] == stats.p_quads[8] == 0


def test_solve_stats_count_a_forced_convergence_failure(monkeypatch):
    # no halving allowed: every quadrature the kink would split raises
    monkeypatch.setattr(numerics, "_MAX_SPLITS", 0)
    calls = recording_integrals(monkeypatch)
    stats = SolveStats()
    field = hj.solve_grid(KINKED, axis(0.4, 0.8, 5), axis(0.2, 0.4, 3), (0.05, 6.0), CFG, stats=stats)
    raised = [error for *_, error in calls if error is not None]
    assert raised and set(raised) == {ConvergenceError}
    assert stats.dpdq_quads[8] + stats.p_quads[8] == len(raised)
    assert stats.dpdq_quads[7] == stats.p_quads[7] == 0
    assert all(s is Status.DOMAIN_FAIL for row in field.status for s in row)


def test_solve_stats_add_up_over_solves():
    stats = SolveStats()
    for _ in range(2):
        hj.solve_grid(OSC, axis(0.15, 0.45, 3), axis(0.2, 0.5, 4), (0.05, 6.0), CFG, stats=stats)
    once = SolveStats()
    hj.solve_grid(OSC, axis(0.15, 0.45, 3), axis(0.2, 0.5, 4), (0.05, 6.0), CFG, stats=once)
    assert stats.points == 2 * once.points == 24
    assert stats.dpdq_quads == [2 * n for n in once.dpdq_quads]
    assert stats.p_cc_terms == 2 * once.p_cc_terms > 0
    assert stats.p_terms == 2 * once.p_terms
