import math
import pathlib
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjgen import expr
from hjgen.errors import DomainError, EvalError, ParseError
from hjgen.expr import BinOp, Call, Neg, Num, Var
from hjgen.numerics import central_difference


def _reference_power(base, expo):
    try:
        return math.pow(base, expo)
    except OverflowError:
        raise DomainError("overflow in power") from None
    except ValueError:
        if base < 0.0:
            raise DomainError(f"negative base {base!r} with non-integer exponent {expo!r}") from None
        raise DomainError("zero base with negative exponent") from None


_WORDS = {
    "asin": "asin argument {!r} outside [-1, 1]",
    "acos": "acos argument {!r} outside [-1, 1]",
    "exp": "overflow in exp",
    "ln": "ln argument {!r} must be positive",
    "sqrt": "sqrt argument {!r} is negative",
}


def _reference_call(func, a):
    try:
        return _PLAIN[func](a)
    except (ValueError, OverflowError):
        if func not in _WORDS:
            raise
        raise DomainError(_WORDS[func].format(a)) from None


_PLAIN = {f: getattr(math, f) for f in ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "sqrt")}
_PLAIN.update(ln=math.log, abs=abs)


def _reference(e, bindings, checked=True):
    """Tree-walking evaluation, the reference for compiled closures.

    Both ways it applies the plain operators, ``math.pow`` and ``math``
    functions, as a compiled closure does.  With ``checked`` (the default)
    it words the error of a call math rejects as the :class:`DomainError`
    compiled closures give, and a division by zero too.
    """
    match e:
        case Num(value=v):
            return v
        case Var(name=name):
            try:
                return bindings[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case Neg(arg=a):
            return -_reference(a, bindings, checked)
        case BinOp(op=op, left=left, right=right):
            lv = _reference(left, bindings, checked)
            rv = _reference(right, bindings, checked)
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                if checked and rv == 0.0:
                    raise DomainError("division by zero")
                return lv / rv
            return _reference_power(lv, rv) if checked else math.pow(lv, rv)
        case Call(func=func, arg=arg):
            a = _reference(arg, bindings, checked)
            return _reference_call(func, a) if checked else _PLAIN[func](a)
    raise TypeError(f"not an expression node: {e!r}")


def _outcome(f):
    """What calling ``f`` gives: its value's bits (any NaN alike) or its error."""
    try:
        v = f()
    except DomainError as err:
        return ("DomainError", str(err))
    except (ValueError, ArithmeticError) as err:
        return ("math error", str(err))
    return ("value", "nan" if math.isnan(v) else struct.pack("<d", v))


def _compiled_outcome(e, bindings):
    """What a compiled closure gives, by the reference walker: the plain
    walk's value, or on its math error a DomainError with the checked
    walk's message, or math's own when that walk raises no DomainError."""
    plain = _outcome(lambda: _reference(e, bindings, checked=False))
    if plain[0] == "value":
        return plain
    checked = _outcome(lambda: _reference(e, bindings))
    return checked if checked[0] == "DomainError" else ("DomainError", plain[1])


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


@pytest.mark.parametrize(
    "node, field",
    [
        (Num(1.0), "value"),
        (Var("x"), "name"),
        (Neg(Var("x")), "arg"),
        (BinOp("+", Num(1.0), Var("x")), "left"),
        (Call("sin", Var("x")), "func"),
    ],
)
def test_nodes_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Num(2.0))


def test_equal_trees_hash_equal():
    # trees serve as dictionary keys: equal ones must find the same entry
    a, b = expr.parse("sin(x) + 2*q^-x"), expr.parse("sin(x) + 2*q^-x")
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b, expr.parse("sin(x) + 2*q^x")}) == 2


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


@pytest.mark.parametrize(
    "src, var", [("x^x", "x"), ("2^q", "q"), ("(1 + x^2)^q", "q"), ("q^(x/2)", "x")]
)
def test_variable_exponent_derivative_matches_finite_difference(src, var):
    # an exponent that depends on var takes the rule b^e (e' ln b + e b'/b),
    # not the power rule, which the random trees above never reach
    e = expr.parse(src)
    d = expr.differentiate(e, var)
    assert "ln(" in expr.to_string(d)
    rng = random.Random(11)
    for _ in range(25):
        point = {"x": rng.uniform(0.2, 2.5), "q": rng.uniform(0.2, 2.5)}
        sample = lambda v: expr.evaluate(e, {**point, var: v})
        sym = expr.evaluate(d, point)
        fd = central_difference(sample, point[var], 1e-5 * (1.0 + point[var]))
        assert abs(sym - fd) <= 1e-8 * (1.0 + abs(sym)), (src, point, sym, fd)


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
                want = _reference(e, point)
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
    with pytest.raises(DomainError) as err:
        expr.compile_function(expr.parse("sin(x)"), ("x",))(math.inf)
    assert str(err.value) == "math domain error"


def test_evaluate_gives_the_compiled_semantics():
    # math's own error is a DomainError, not a ValueError escaping
    with pytest.raises(DomainError) as err:
        expr.evaluate(expr.parse("sin(x)"), {"x": math.inf})
    assert str(err.value) == "math domain error"
    # what math accepts keeps its value
    for src in ("asin(x)", "acos(x)"):
        assert math.isnan(expr.evaluate(expr.parse(src), {"x": math.nan}))
    assert expr.evaluate(expr.parse("0^x"), {"x": -math.inf}) == math.inf


def test_parse_rejects_overflowing_literal():
    with pytest.raises(ParseError) as err:
        expr.parse("x*1e999")
    assert err.value.position == 2
    assert "1e999" in str(err.value)
    assert expr.parse("1e308 + 1e-999") == BinOp("+", Num(1e308), Num(0.0))


_LEAVES = st.one_of(
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([Var("x"), Var("q")]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(expr.FUNCTIONS), sub),
    ),
    max_leaves=12,
)


@settings(deadline=None, database=None, max_examples=400)
@given(e=_TREES, x=st.floats(), q=st.floats())
def test_compiled_and_evaluate_match_the_reference(e, x, q):
    point = {"x": x, "q": q}
    want = _compiled_outcome(e, point)
    assert _outcome(lambda: expr.compile_function(e, ("x", "q"))(x, q)) == want
    got = _outcome(lambda: expr.evaluate(e, point))
    assert got == want
    walker = _outcome(lambda: _reference(e, point))
    if walker[0] != "math error":  # math's own error escapes the walker, not evaluate
        assert got == walker


@settings(deadline=None, database=None, max_examples=400)
@given(e=_TREES, x=st.floats(), q=st.floats())
def test_to_string_reparses_to_the_same_string_and_values(e, x, q):
    text = expr.to_string(e)
    back = expr.parse(text)
    assert expr.to_string(back) == text
    point = {"x": x, "q": q}
    assert _outcome(lambda: expr.evaluate(back, point)) == _outcome(lambda: expr.evaluate(e, point))


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


# --- the emitter: minimal parentheses, non-finite literals, depth ---------


def _emit_fully_parenthesised(e):
    """The emitter before it dropped redundant parentheses: every operator node in its own."""
    match e:
        case Num(value=v):
            return repr(v)
        case Var(name=name):
            return f"v_{name}"
        case Neg(arg=a):
            return f"(-{_emit_fully_parenthesised(a)})"
        case BinOp(op="^", left=left, right=right):
            return f"_pow({_emit_fully_parenthesised(left)}, {_emit_fully_parenthesised(right)})"
        case BinOp(op=op, left=left, right=right):
            return f"({_emit_fully_parenthesised(left)} {op} {_emit_fully_parenthesised(right)})"
        case Call(func=func, arg=arg):
            return f"_{func}({_emit_fully_parenthesised(arg)})"


def _bytecode(source):
    code = compile(f"lambda v_x, v_q: {source}", "<expr>", "eval").co_consts[0]
    # CPython folds constant subtrees, and one may fold to nan, which is
    # unequal to itself: compare float constants by their bit patterns
    consts = tuple(
        ("float", struct.pack(">d", c)) if type(c) is float else c for c in code.co_consts
    )
    return code.co_code, consts, code.co_names


@settings(deadline=None, database=None, max_examples=400)
@given(e=_TREES)
@example(e=BinOp("*", Num(0.0), BinOp("*", Num(5.154796035054565e16), Num(3.487418556694236e291))))
def test_emitted_source_compiles_like_the_fully_parenthesised_form(e):
    assert _bytecode(expr._emit(e)) == _bytecode(_emit_fully_parenthesised(e))


def test_shipped_expressions_keep_their_bytecode():
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    quoted = re.compile(r'"([^"]*)"')
    sources = {m[1] for cfg in configs.glob("*.cfg") for m in quoted.finditer(cfg.read_text())}
    assert sources
    for src in sorted(sources):
        e = expr.parse(src)
        # a variable other than x and q compiles as a global, alike in both forms
        for tree in (e, *(expr.differentiate(e, v) for v in sorted(expr.variables(e)))):
            assert _bytecode(expr._emit(tree)) == _bytecode(_emit_fully_parenthesised(tree))


_ANY_LEAVES = st.one_of(st.builds(Num, st.floats()), st.sampled_from([Var("x"), Var("q")]))
_ANY_TREES = st.recursive(
    _ANY_LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(expr.FUNCTIONS), sub),
    ),
    max_leaves=8,
)


@st.composite
def _deep_chains(draw):
    """A left-deep chain of 150 to 300 operators on small trees, past the
    200 parentheses the fully parenthesised form could nest; at most 100
    links are calls or powers, which do nest."""
    e = draw(_ANY_TREES)
    links = draw(
        st.lists(st.sampled_from("+-*/n^c"), min_size=150, max_size=300).filter(
            lambda ops: sum(op in "^c" for op in ops) <= 100
        )
    )
    for op in links:
        if op == "n":
            e = Neg(e)
        elif op == "c":
            e = Call(draw(st.sampled_from(expr.FUNCTIONS)), e)
        else:
            e = BinOp(op, e, draw(_ANY_LEAVES))
    return e


@settings(deadline=None, database=None, max_examples=80)
@given(e=st.one_of(_ANY_TREES, _deep_chains()), x=st.floats(), q=st.floats())
def test_deep_and_non_finite_trees_match_the_reference(e, x, q):
    point = {"x": x, "q": q}
    want = _compiled_outcome(e, point)
    assert _outcome(lambda: expr.compile_function(e, ("x", "q"))(x, q)) == want
    assert _outcome(lambda: expr.evaluate(e, point)) == want


def test_non_finite_literals_compile():
    f = expr.compile_function(BinOp("+", Num(math.inf), Neg(Num(-math.inf))), ("x",))
    assert f(0.0) == math.inf
    assert expr.evaluate(BinOp("*", Var("x"), Num(-math.inf)), {"x": 2.0}) == -math.inf
    assert math.isnan(expr.evaluate(Num(math.nan), {}))
    assert math.copysign(1.0, expr.evaluate(Num(-math.nan), {})) == -1.0


def test_nesting_past_the_compiler_limit_is_a_parse_error():
    e = Var("x")
    for _ in range(250):
        e = Call("sin", e)
    with pytest.raises(ParseError) as err:
        expr.compile_function(e, ("x",))
    assert "250 deep" in str(err.value)
    with pytest.raises(ParseError):
        expr.evaluate(e, {"x": 0.5})


# --- the compiled function's own error path, and trees too deep to walk ---


@pytest.mark.parametrize(
    "source, params, values, message",
    [
        ("1/0", (), (), "division by zero"),
        ("ln(x - 1)", ("x",), (0.5,), "ln argument -0.5 must be positive"),
        ("sqrt(x - q)", ("x", "q"), (1.0, 2.0), "sqrt argument -1.0 is negative"),
        ("sin(x*q)", ("x", "q"), (math.inf, 1.0), "math domain error"),
        # math accepts the first call, so the error names the later one
        ("asin(q*1e308*10 - q*1e308*10) + sqrt(-q)", ("q",), (1.0,), "sqrt argument -1.0 is negative"),
        ("acos(q*1e308*10 - q*1e308*10) + ln(-q)", ("q",), (1.0,), "ln argument -1.0 must be positive"),
        ("(-q*1e308*10)^0.5 + sqrt(-q)", ("q",), (1.0,), "sqrt argument -1.0 is negative"),
        ("0^(-q*1e308*10) + ln(-q)", ("q",), (1.0,), "ln argument -1.0 must be positive"),
    ],
)
def test_compiled_error_path_with_any_parameter_count(source, params, values, message):
    fn = expr.compile_function(expr.parse(source), params)
    assert fn.__code__.co_argcount == len(params)  # the compiled function itself
    with pytest.raises(DomainError) as err:
        fn(*values)
    assert str(err.value) == message
    assert err.value.__cause__ is None and err.value.__context__ is None


def test_constant_derivative_compiles_without_parameters():
    fn = expr.compile_function(expr.differentiate(expr.parse("3"), "x"), ())
    assert fn() == 0.0
    assert expr.evaluate(expr.differentiate(expr.parse("ln(x)"), "q"), {}) == 0.0


def test_too_deep_source_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        expr.parse("sin(" * 1000 + "x" + ")" * 1000)
    assert re.search(r"nests at least \d+ deep", str(err.value))
    assert err.value.position > 0


@pytest.mark.parametrize(
    "walk",
    [
        expr.variables,
        expr.to_string,
        lambda e: expr.differentiate(e, "x"),
        expr._emit,
        lambda e: expr.compile_function(e, ("x",)),
        lambda e: expr.evaluate(e, {"x": 1.0}),
    ],
)
def test_too_deep_tree_is_a_parse_error(walk):
    # a long sum parses without recursion, but its tree is 1,000 levels deep
    e = expr.parse("x" + "+1" * 999)
    with pytest.raises(ParseError) as err:
        walk(e)
    assert "nests 1000 deep" in str(err.value)


@pytest.mark.parametrize("walk", [expr.to_string, expr.variables])
def test_deep_negation_chain_is_a_parse_error(walk):
    e = Var("x")
    for _ in range(3000):
        e = Neg(e)
    with pytest.raises(ParseError) as err:
        walk(e)
    assert "nests 3001 deep" in str(err.value)
