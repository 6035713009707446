import math
import random

import pytest

from hjgen import expr
from hjgen.errors import DomainError, EvalError, ParseError
from hjgen.expr import BinOp, Call, Num, Var
from hjgen.numerics import central_difference


def test_parse_quotient_of_power():
    assert expr.parse("q^2/2") == BinOp("/", BinOp("^", Var("q"), Num(2.0)), Num(2.0))


def test_parse_function_call_tree():
    assert expr.parse("asin(x/sqrt(q))") == Call(
        "asin", BinOp("/", Var("x"), Call("sqrt", Var("q")))
    )


def test_parse_truncated_input_position():
    with pytest.raises(ParseError) as err:
        expr.parse("x + ")
    assert err.value.position == 4


def test_parse_unknown_function_is_error():
    with pytest.raises(ParseError):
        expr.parse("foo(x)")


def test_parse_unknown_identifier_is_a_variable():
    e = expr.parse("foo * 2")
    assert expr.evaluate(e, {"foo": 3.0}) == 6.0
    with pytest.raises(EvalError):
        expr.evaluate(e, {})


def test_parse_empty_and_garbage():
    with pytest.raises(ParseError):
        expr.parse("   ")
    with pytest.raises(ParseError):
        expr.parse("1 + $")
    with pytest.raises(ParseError):
        expr.parse("(1 + 2")


@pytest.mark.parametrize(
    "src,where,expected",
    [
        ("q^2/2", {"q": 3.0}, 4.5),
        ("sqrt(q - x^2)", {"q": 4.0, "x": 0.0}, 2.0),
        ("asin(1)", {}, 1.5707963267948966),
        ("1.5e2 + .5", {}, 150.5),
        ("2^3^2", {}, 512.0),  # right-associative
        ("-x^2", {"x": 3.0}, -9.0),  # unary minus binds looser than ^
        ("2^-2", {}, 0.25),
        ("2*-3", {}, -6.0),
        ("(-2)^2", {}, 4.0),
        ("10 - 4 - 3", {}, 3.0),  # left-associative
    ],
)
def test_evaluate_values(src, where, expected):
    assert expr.evaluate(expr.parse(src), where) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "src,where",
    [
        ("sqrt(x)", {"x": -1.0}),
        ("ln(x)", {"x": 0.0}),
        ("ln(x)", {"x": -2.0}),
        ("asin(x)", {"x": 2.0}),
        ("acos(x)", {"x": -1.5}),
        ("1/x", {"x": 0.0}),
        ("x^0.5", {"x": -2.0}),
        ("0^x", {"x": -1.0}),
    ],
)
def test_evaluate_domain_errors(src, where):
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse(src), where)


def test_negative_base_integer_exponent_is_fine():
    assert expr.evaluate(expr.parse("x^3"), {"x": -2.0}) == -8.0


def test_differentiate_power_rule():
    d = expr.differentiate(expr.parse("q^2/2"), "q")
    for q in (-2.0, 0.0, 0.5, 3.0):
        assert expr.evaluate(d, {"q": q}) == pytest.approx(q, abs=1e-15)
    d2 = expr.differentiate(expr.parse("x^2"), "x")
    assert expr.evaluate(d2, {"x": 7.0}) == pytest.approx(14.0, abs=1e-12)


def test_differentiate_asin_composite():
    e = expr.parse("asin(x/sqrt(q))")
    d = expr.differentiate(e, "q")
    got = expr.evaluate(d, {"x": 1.0, "q": 4.0})
    # closed form -x / (2 q sqrt(q - x^2)) = -1/(8 sqrt(3))
    assert got == pytest.approx(-0.07216878364870322, abs=1e-12)
    # and against the finite-difference oracle with h = 1e-6
    fd = central_difference(
        lambda q: expr.evaluate(e, {"x": 1.0, "q": q}), 4.0, 1e-6
    )
    assert got == pytest.approx(fd, abs=1e-6)


def test_differentiate_variable_free_is_zero():
    for src in ("1", "sin(2)*exp(3)", "ln(7)^2"):
        d = expr.differentiate(expr.parse(src), "q")
        assert expr.evaluate(d, {"q": 123.0}) == 0.0


def test_constant_shift_folds_away():
    # adding a constant must leave the derivative tree identical, so solves
    # driven by the derivative are bit-for-bit unchanged
    base = expr.differentiate(expr.parse("q^2/2"), "q")
    shifted = expr.differentiate(expr.parse("q^2/2 + 5"), "q")
    assert base == shifted


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Num(round(rng.uniform(-3.0, 3.0), 3))
        return Var(rng.choice(("x", "q")))
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice("+-*/")
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick < 0.7:
        return BinOp("^", _random_expr(rng, depth - 1), Num(rng.choice((2.0, 3.0))))
    if pick < 0.8:
        return expr.Neg(_random_expr(rng, depth - 1))
    fn = rng.choice(("sin", "cos", "tan", "asin", "acos", "atan", "exp", "ln", "sqrt", "abs"))
    return Call(fn, _random_expr(rng, depth - 1))


def _in_domain(e, point, h):
    try:
        vals = [
            expr.evaluate(e, point),
            expr.evaluate(e, {**point, "x": point["x"] + h}),
            expr.evaluate(e, {**point, "x": point["x"] - h}),
            expr.evaluate(e, {**point, "q": point["q"] + h}),
            expr.evaluate(e, {**point, "q": point["q"] - h}),
        ]
    except DomainError:
        return None
    if any(not math.isfinite(v) or abs(v) > 1e3 for v in vals):
        return None
    return vals[0]


def test_symbolic_derivative_matches_finite_difference():
    rng = random.Random(20240817)
    checked = 0
    while checked < 120:
        e = _random_expr(rng, 3)
        var = rng.choice(("x", "q"))
        try:
            d = expr.differentiate(e, var)
        except TypeError:
            raise
        hits = 0
        for _ in range(40):
            point = {"x": rng.uniform(-3.0, 3.0), "q": rng.uniform(-3.0, 3.0)}
            h = 1e-6 * (1.0 + abs(point[var]))
            if _in_domain(e, point, h) is None:
                continue
            try:
                sym = expr.evaluate(d, point)
                sample = lambda v: expr.evaluate(e, {**point, var: v})
                fd = central_difference(sample, point[var], h)
                fd_half = central_difference(sample, point[var], 0.5 * h)
            except DomainError:
                continue
            if not (math.isfinite(sym) and math.isfinite(fd) and math.isfinite(fd_half)):
                continue
            if abs(fd - fd_half) > 1e-7 * (1.0 + abs(fd_half)):
                continue  # stencil not converged here; the oracle itself is invalid
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), (
                f"{expr.to_string(e)} d/d{var} at {point}: {sym} vs {fd}"
            )
            hits += 1
        if hits:
            checked += 1


def test_to_string_round_trip_value_identical():
    rng = random.Random(513)
    done = 0
    while done < 100:
        e = _random_expr(rng, 3)
        back = expr.parse(expr.to_string(e))
        agreed = 0
        for _ in range(30):
            point = {"x": rng.uniform(-3.0, 3.0), "q": rng.uniform(-3.0, 3.0)}
            try:
                v1 = expr.evaluate(e, point)
            except DomainError:
                continue
            v2 = expr.evaluate(back, point)
            if math.isnan(v1):
                assert math.isnan(v2)
            else:
                assert v1 == v2, expr.to_string(e)
            agreed += 1
        if agreed:
            done += 1


def test_compiled_function_matches_evaluate():
    rng = random.Random(99)
    for _ in range(60):
        e = _random_expr(rng, 3)
        fn = expr.compile_function(e, ("x", "q"))
        for _ in range(10):
            point = {"x": rng.uniform(-3.0, 3.0), "q": rng.uniform(-3.0, 3.0)}
            try:
                want = expr.evaluate(e, point)
            except DomainError:
                with pytest.raises(DomainError):
                    fn(point["x"], point["q"])
                continue
            got = fn(point["x"], point["q"])
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want


def test_compiled_domain_error_names_the_operation():
    fn = expr.compile_function(expr.parse("ln(q - 0.5)"), ("q",))
    with pytest.raises(DomainError) as err:
        fn(0.25)
    assert str(err.value) == "ln argument -0.25 must be positive"
    with pytest.raises(DomainError) as err:
        expr.compile_function(expr.parse("1/(x - 2)"), ("x",))(2.0)
    assert str(err.value) == "division by zero"
    # the tree walker raises no DomainError for sin(inf): the math message stays
    with pytest.raises(DomainError) as err:
        expr.compile_function(expr.parse("sin(x)"), ("x",))(math.inf)
    assert str(err.value) == "math domain error"


def test_compiled_function_rejects_unbound():
    with pytest.raises(EvalError):
        expr.compile_function(expr.parse("x + z"), ("x",))


def test_concurrent_evaluation_is_safe():
    # trees are immutable and evaluation is pure: hammering one tree from
    # several threads must give identical values
    from concurrent.futures import ThreadPoolExecutor

    e = expr.parse("sin(x) * exp(q/4) + sqrt(x*x + 1)")
    d = expr.differentiate(e, "x")
    points = [{"x": 0.1 * k, "q": 0.05 * k} for k in range(200)]
    expected = [(expr.evaluate(e, b), expr.evaluate(d, b)) for b in points]

    def worker(_):
        return [(expr.evaluate(e, b), expr.evaluate(d, b)) for b in points]

    with ThreadPoolExecutor(max_workers=8) as pool:
        for result in pool.map(worker, range(8)):
            assert result == expected
