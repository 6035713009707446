import math
import pathlib
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjgen.config import load_config
from hjgen.errors import ConvergenceError, DomainError
from hjgen.fields import Status
from hjgen.numerics import (
    SolverConfig,
    _brent,
    central_difference,
    clenshaw_curtis_nodes,
    integrate_adaptive,
    scan_abscissae,
)
from scan_reference import crossings, full_scan, scanned_line, sloped


def root_line(g, lo, hi, n):
    """A line whose root condition at target 0 is g itself: its level is -g,
    returned without a slope, so its roots come from Brent's method alone."""
    return scanned_line(sloped(lambda q: -g(q)), lo, hi, SolverConfig(scan_points=n))


def scan_brackets(g, lo, hi, n):
    """The (lo, hi, g_lo, g_hi) sign-change brackets a line of g over
    [lo, hi] finds at target 0, which the full scan of g gives too."""
    found = root_line(g, lo, hi, n).brackets(0.0)
    assert found == crossings(full_scan(g, lo, hi, n))
    return found


def brent(g, br, cfg):
    """Brent's method on g over the bracket br = (lo, hi, g_lo, g_hi): the
    kernel's loop at target 0 with the level -g and no slopes, so each value
    is g's; its root."""
    lo, hi, g_lo, g_hi = br
    tally = SimpleNamespace(brent=0)
    return _brent(lambda q: (-g(q), None), 0.0, lo, g_lo, None, hi, g_hi, None, cfg, tally)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(root_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(scan_points=1)


@pytest.mark.parametrize("key, value", [("scan_points", 24.0), ("max_iter", 50.5), ("max_iter", "100")])
def test_config_rejects_non_integer_counts(key, value):
    # rejected at construction, not in the first solve that reaches them
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        SolverConfig(**{key: value})


@pytest.mark.parametrize("key", ["root_tol", "resid_tol", "quad_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_tolerances(key, value):
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        SolverConfig(**{key: value})


def test_config_defaults_and_keywords():
    cfg = SolverConfig()
    assert (cfg.root_tol, cfg.resid_tol, cfg.max_iter, cfg.quad_tol, cfg.scan_points) == (
        1e-12, 1e-12, 100, 1e-10, 64,
    )
    tight = SolverConfig(quad_tol=1e-13, scan_points=16)
    assert (tight.root_tol, tight.max_iter, tight.quad_tol, tight.scan_points) == (1e-12, 100, 1e-13, 16)
    assert repr(tight) == (
        "SolverConfig(root_tol=1e-12, resid_tol=1e-12, max_iter=100, quad_tol=1e-13, scan_points=16)"
    )


def test_config_is_an_immutable_value():
    cfg = SolverConfig(scan_points=16)
    for name in ("root_tol", "scan_points"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 1)
        with pytest.raises(AttributeError):
            delattr(cfg, name)
    assert cfg.scan_points == 16
    twin = SolverConfig(1e-12, 1e-12, 100, 1e-10, 16)
    assert twin is not cfg and twin == cfg
    assert hash(twin) == hash(cfg)
    assert cfg != SolverConfig() and cfg != (1e-12, 1e-12, 100, 1e-10, 16)


def test_integrate_polynomial():
    assert integrate_adaptive(lambda x: x * x, 0.0, 1.0, 1e-10) == pytest.approx(
        1.0 / 3.0, abs=1e-9
    )


def test_integrate_inverse_trig_kernel():
    got = integrate_adaptive(lambda x: 1.0 / math.sqrt(1.0 - x * x), 0.0, 0.5, 1e-10)
    assert got == pytest.approx(math.pi / 6.0, abs=1e-9)


def test_integrate_momentum_kernel():
    # antiderivative (x/2) sqrt(q - x^2) - (q/2) asin(x/sqrt(q)) at q = 4
    got = integrate_adaptive(lambda x: -x * x / math.sqrt(4.0 - x * x), 0.0, 1.0, 1e-10)
    exact = 0.5 * math.sqrt(3.0) - 2.0 * math.asin(0.5)
    assert exact == pytest.approx(-0.18117214741215896, abs=1e-15)
    assert got == pytest.approx(exact, abs=1e-9)


def test_integrate_antisymmetric_in_bounds():
    fwd = integrate_adaptive(math.sin, 0.25, 1.5, 1e-10)
    assert integrate_adaptive(math.sin, 1.5, 0.25, 1e-10) == -fwd
    assert integrate_adaptive(math.sin, 0.7, 0.7, 1e-10) == 0.0


def test_integrate_additive_within_tolerance():
    tol = 1e-10
    whole = integrate_adaptive(math.sin, 0.0, 2.0, tol)
    parts = integrate_adaptive(math.sin, 0.0, 0.7, tol) + integrate_adaptive(
        math.sin, 0.7, 2.0, tol
    )
    assert abs(whole - parts) <= 3.0 * tol


def test_integrate_non_finite_sample_carries_abscissa():
    def f(x):
        return float("nan") if x == 0.5 else 1.0

    with pytest.raises(DomainError) as err:
        integrate_adaptive(f, 0.0, 1.0, 1e-10)
    assert err.value.where == 0.5


def test_integrate_endpoint_layer():
    # inverse square-root layer at the right endpoint, 2e-9 above the floor
    q = 0.81 + 2e-9
    got = integrate_adaptive(lambda s: 1.0 / (2.0 * math.sqrt(q - s * s)), 0.0, 0.9, 1e-10)
    exact = 0.5 * math.asin(0.9 / math.sqrt(q))
    assert got == pytest.approx(exact, abs=1e-8)


def test_integrate_interior_kink():
    # tanh-sinh alone converges only algebraically across the kink and stops
    # at its level cap 2.4e-8 off; halving the unconverged panel isolates it
    got = integrate_adaptive(lambda s: abs(s - 1.0 / 3.0), 0.0, 1.0, 1e-10)
    assert got == pytest.approx(5.0 / 18.0, abs=1e-9)


def test_integrate_non_integrable_raises_convergence_error():
    with pytest.raises(ConvergenceError):
        integrate_adaptive(lambda s: 1.0 / abs(s - 1.0 / 3.0), 0.0, 1.0, 1e-10)


def test_scan_single_bracket():
    brs = scan_brackets(lambda q: q * q - 4.0, 0.0, 3.0, 30)
    assert len(brs) == 1
    assert brs[0][0] <= 2.0 <= brs[0][1]


def test_scan_cosine_crossing():
    brs = scan_brackets(lambda q: math.cos(q) - q, 0.0, 1.0, 10)
    assert len(brs) == 1
    assert brs[0][0] <= 0.739 <= brs[0][1]


def test_scan_two_roots():
    brs = scan_brackets(lambda q: (q - 1.0) * (q - 2.0), 0.0, 3.0, 30)
    assert len(brs) == 2
    assert brs[0][0] <= 1.0 <= brs[0][1]
    assert brs[1][0] <= 2.0 <= brs[1][1]


def test_scan_skips_domain_failures():
    def g(q):
        if q < 1.0:
            raise DomainError("below floor")
        return q - 1.5

    brs = scan_brackets(g, 0.0, 2.0, 20)
    assert len(brs) == 1
    assert brs[0][0] <= 1.5 <= brs[0][1]
    assert brs[0][0] >= 1.0


def test_scan_empty_result_is_fine():
    assert scan_brackets(lambda q: q * q + 1.0, -1.0, 1.0, 10) == []


def _bracket_for(g, lo, hi):
    return lo, hi, g(lo), g(hi)


def test_scan_abscissae_match_the_inline_formula_bitwise():
    # the formula the scan used inline; row tables rely on the same floats
    rng = random.Random(5)
    for _ in range(2000):
        lo = rng.uniform(-50.0, 50.0)
        hi = lo + rng.choice((1e-9, 1e-3, 1.0, 37.0)) * rng.random() + 1e-12
        n = rng.randint(2, 80)
        ref = [hi if i == n else lo + (hi - lo) * i / n for i in range(n + 1)]
        assert scan_abscissae(lo, hi, n) == ref


def test_solve_quadratic():
    cfg = SolverConfig()
    g = lambda q: q * q - 4.0
    assert brent(g, _bracket_for(g, 0.0, 3.0), cfg) == pytest.approx(
        2.0, abs=cfg.root_tol * 10
    )


def test_solve_cosine_fixed_point_oracle():
    # fixed-point iteration q <- cos(q) converges to the same root
    ref = 0.5
    for _ in range(200):
        ref = math.cos(ref)
    assert ref == pytest.approx(0.7390851332151607, abs=1e-12)
    cfg = SolverConfig()
    g = lambda q: math.cos(q) - q
    got = brent(g, _bracket_for(g, 0.0, 1.0), cfg)
    assert got == pytest.approx(ref, abs=1e-10)


def test_solve_linear():
    cfg = SolverConfig()
    g = lambda q: 2.0 * q - 1.0
    assert brent(g, _bracket_for(g, 0.0, 1.0), cfg) == pytest.approx(
        0.5, abs=cfg.root_tol * 10
    )


def test_solve_stays_inside_bracket():
    rng = random.Random(7)
    cfg = SolverConfig()
    for _ in range(50):
        root = rng.uniform(-5.0, 5.0)
        scale = rng.uniform(0.2, 3.0)
        g = lambda q, r=root, s=scale: s * math.tanh(q - r) + 0.01 * (q - r)
        lo = root - rng.uniform(0.1, 4.0)
        hi = root + rng.uniform(0.1, 4.0)
        got = brent(g, _bracket_for(g, lo, hi), cfg)
        assert lo <= got <= hi
        assert got == pytest.approx(root, abs=1e-9)


def test_solve_budget_exhaustion_carries_bracket():
    cfg = SolverConfig(root_tol=1e-15, resid_tol=1e-15, max_iter=1)
    g = lambda q: q * q - 2.0
    with pytest.raises(ConvergenceError) as err:
        brent(g, _bracket_for(g, 0.0, 2.0), cfg)
    lo, hi, g_lo, g_hi = err.value.bracket
    assert 0.0 <= lo < hi <= 2.0
    assert (g_lo, g_hi) == (g(lo), g(hi)) and g_lo * g_hi <= 0.0


def test_solve_free_particle_evaluations_per_bracket():
    # g(q) = G'(q) - t - x/(2 sqrt q) in closed form, over every scan bracket
    # of free_particle.cfg's grid and q range; a regula-falsi refiner, whose
    # stale end forces a bisection every other step, averages 15.7 (max 31)
    run = load_config(
        str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "free_particle.cfg")
    )
    cfg = run.solver
    q_lo, q_hi = run.q_range
    counts = []
    for x in run.axis1:
        for t in run.axis2:
            g = lambda q, x=x, t=t: 1.0 - t - x / (2.0 * math.sqrt(q))
            for br in scan_brackets(g, q_lo, q_hi, cfg.scan_points):
                calls = [0]

                def counted(q, g=g):
                    calls[0] += 1
                    return g(q)

                got = brent(counted, br, cfg)
                exact = x * x / (4.0 * (1.0 - t) ** 2)
                assert got == pytest.approx(exact, abs=1e-9)
                counts.append(calls[0])
    assert len(counts) == len(run.axis1) * len(run.axis2)
    assert sum(counts) / len(counts) <= 8.0
    assert max(counts) <= 12


@st.composite
def _bracketed_functions(draw):
    """(kind, g, sign, lo, hi): sign * g increases through one sign change in [lo, hi]."""
    kind = draw(st.sampled_from(("monotone", "flat_tailed", "step")))
    lo = draw(st.floats(-100.0, 100.0))
    hi = lo + draw(st.floats(1e-6, 10.0))
    root = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    if kind == "monotone":
        slope = draw(st.floats(1e-3, 1e3))
        cubic = draw(st.floats(0.0, 10.0))
        base = lambda q: slope * (q - root) + cubic * (q - root) ** 3
    elif kind == "flat_tailed":
        height = draw(st.floats(1e-3, 1e3))
        steep = draw(st.floats(1e-2, 1e4))
        base = lambda q: height * math.tanh(steep * (q - root))
    else:
        below = draw(st.floats(1e-6, 1e6))
        above = draw(st.floats(1e-6, 1e6))
        base = lambda q: -below if q < root else above
    sign = draw(st.sampled_from((1.0, -1.0)))
    return kind, (lambda q: sign * base(q)), sign, lo, hi


@settings(deadline=None, database=None)
@given(_bracketed_functions())
def test_solve_property_inside_bracket_at_a_sign_change(case):
    kind, g, sign, lo, hi = case
    g_lo, g_hi = g(lo), g(hi)
    assume(g_lo * g_hi <= 0.0)  # false when the drawn root rounds onto an end
    cfg = SolverConfig()  # default max_iter: a step must still finish
    got = brent(g, (lo, hi, g_lo, g_hi), cfg)
    assert lo <= got <= hi
    if abs(g(got)) <= cfg.resid_tol:
        assert kind != "step"  # every step value is far above resid_tol
        return
    # the stop rule: a sign change within root_tol + 4 eps |got|, plus rounding
    reach = cfg.root_tol + 5.0 * sys.float_info.epsilon * abs(got)
    left = sign * g(max(lo, got - reach))
    right = sign * g(min(hi, got + reach))
    assert left <= 0.0 <= right


def test_root_line_dedupes_sample_hits():
    # root exactly on a scan sample shows up in two adjacent brackets
    q, status, _ = root_line(lambda q: q - 0.5, 0.0, 1.0, 10).solve(0.0)
    assert status is Status.RESOLVED
    assert q == pytest.approx(0.5, abs=1e-12)
    # a touching root: the sample at 0.5 sits within resid_tol above zero
    # between two negative ones, so both brackets return it
    q, status, _ = root_line(lambda q: 1e-13 - (q - 0.5) ** 2, 0.0, 1.0, 10).solve(0.0)
    assert status is Status.RESOLVED and q == 0.5


def test_root_line_degenerate_and_empty():
    q, status, _ = root_line(lambda q: 0.0, 0.0, 1.0, 8).solve(0.0, warm=0.25)
    assert status is Status.MULTI_ROOT and q == 0.25

    def nowhere(q):
        raise DomainError("nope")

    line = root_line(nowhere, 0.0, 1.0, 8)
    assert line.samples == [] and line.solve(0.0)[:2] == (None, Status.DOMAIN_FAIL)


def test_central_difference():
    assert central_difference(lambda x: x * x, 3.0, 1e-6) == pytest.approx(6.0, abs=1e-9)


def test_scan_matches_grid_sign_changes_for_random_polynomials():
    # bracket count equals the sign-change count of the sampled values
    rng = random.Random(1234)
    for _ in range(60):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(2, 6))]

        def g(x, c=coeffs):
            out = 0.0
            for a in c:
                out = out * x + a
            return out

        n = rng.randrange(4, 40)
        lo, hi = -2.0, 2.0
        samples = [g(lo + (hi - lo) * i / n) for i in range(n + 1)]
        changes = sum(
            1
            for v1, v2 in zip(samples, samples[1:])
            if (v1 < 0 < v2) or (v2 < 0 < v1)
        )
        zeros = sum(1 for v in samples if v == 0.0)
        found = len(scan_brackets(g, lo, hi, n))
        assert found >= changes
        assert found <= changes + zeros + 1


@pytest.mark.parametrize("n", [2, 8, 16, 32])
def test_clenshaw_curtis_nodes_integrate_polynomials_and_nest(n):
    # order n is exact for polynomials of degree n + 1 (n even), its ends
    # are nodes, and every second node is one of order n/2
    lo, hi = -0.3, 1.7
    nodes = clenshaw_curtis_nodes(lo, hi, n)
    assert len(nodes) == n + 1 and nodes[0][0] == lo and nodes[-1][0] == hi
    assert [s for s, _ in nodes] == sorted(s for s, _ in nodes)
    for k in range(n + 2):
        want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert math.fsum(w * s**k for s, w in nodes) == pytest.approx(want, rel=1e-13)
    if n > 2:
        assert [s for s, _ in nodes[::2]] == [s for s, _ in clenshaw_curtis_nodes(lo, hi, n // 2)]
