import math
import random

import pytest

from hjgen.errors import ConvergenceError, DomainError
from hjgen.numerics import (
    Bracket,
    SolverConfig,
    central_difference,
    integrate_adaptive,
    locate_roots,
    scan_abscissae,
    scan_brackets,
    solve_bracketed,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(root_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(scan_points=1)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.0, 1.0, 1.0, 2.0)


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


def test_scan_single_bracket():
    brs = scan_brackets(lambda q: q * q - 4.0, 0.0, 3.0, 30)
    assert len(brs) == 1
    assert brs[0].lo <= 2.0 <= brs[0].hi


def test_scan_cosine_crossing():
    brs = scan_brackets(lambda q: math.cos(q) - q, 0.0, 1.0, 10)
    assert len(brs) == 1
    assert brs[0].lo <= 0.739 <= brs[0].hi


def test_scan_two_roots():
    brs = scan_brackets(lambda q: (q - 1.0) * (q - 2.0), 0.0, 3.0, 30)
    assert len(brs) == 2
    assert brs[0].lo <= 1.0 <= brs[0].hi
    assert brs[1].lo <= 2.0 <= brs[1].hi


def test_scan_skips_domain_failures():
    def g(q):
        if q < 1.0:
            raise DomainError("below floor")
        return q - 1.5

    brs = scan_brackets(g, 0.0, 2.0, 20)
    assert len(brs) == 1
    assert brs[0].lo <= 1.5 <= brs[0].hi
    assert brs[0].lo >= 1.0


def test_scan_empty_result_is_fine():
    assert scan_brackets(lambda q: q * q + 1.0, -1.0, 1.0, 10) == []


def _bracket_for(g, lo, hi):
    return Bracket(lo, hi, g(lo), g(hi))


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
    assert solve_bracketed(g, _bracket_for(g, 0.0, 3.0), cfg) == pytest.approx(
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
    got = solve_bracketed(g, _bracket_for(g, 0.0, 1.0), cfg)
    assert got == pytest.approx(ref, abs=1e-10)


def test_solve_linear():
    cfg = SolverConfig()
    g = lambda q: 2.0 * q - 1.0
    assert solve_bracketed(g, _bracket_for(g, 0.0, 1.0), cfg) == pytest.approx(
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
        got = solve_bracketed(g, _bracket_for(g, lo, hi), cfg)
        assert lo <= got <= hi
        assert got == pytest.approx(root, abs=1e-9)


def test_solve_budget_exhaustion_carries_bracket():
    cfg = SolverConfig(root_tol=1e-15, resid_tol=1e-15, max_iter=1)
    g = lambda q: q * q - 2.0
    with pytest.raises(ConvergenceError) as err:
        solve_bracketed(g, _bracket_for(g, 0.0, 2.0), cfg)
    assert err.value.bracket is not None
    assert 0.0 <= err.value.bracket.lo < err.value.bracket.hi <= 2.0


def test_locate_roots_dedupes_sample_hits():
    # root exactly on a scan sample shows up in two adjacent brackets
    cfg = SolverConfig(scan_points=10)
    scan = locate_roots(lambda q: q - 0.5, 0.0, 1.0, cfg)
    assert not scan.degenerate
    assert len(scan.roots) == 1
    assert scan.roots[0] == pytest.approx(0.5, abs=1e-12)


def test_locate_roots_degenerate_and_empty():
    cfg = SolverConfig(scan_points=8)
    scan = locate_roots(lambda q: 0.0, 0.0, 1.0, cfg)
    assert scan.degenerate and scan.roots == ()

    def nowhere(q):
        raise DomainError("nope")

    scan = locate_roots(nowhere, 0.0, 1.0, cfg)
    assert scan.n_valid == 0


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
