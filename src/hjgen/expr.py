"""Parsing, evaluation and symbolic differentiation of scalar expressions.

Grammar (whitespace insignificant)::

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := number | ident | ident "(" expr ")" | "(" expr ")"

so precedence is, lowest first: ``+ -``, then ``* /``, then unary minus,
then ``^`` (right-associative).  An identifier followed by ``(`` must name
one of the supported single-argument functions; any other identifier is a
variable, bound only at evaluation time.

Trees are immutable after parsing; :func:`evaluate` and
:func:`differentiate` are pure, so expressions can be shared freely, also
by concurrent callers.  :func:`evaluate` runs :func:`compile_function`'s code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import FunctionType
from typing import Mapping, Union

from .errors import DomainError, EvalError, ParseError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expression",
    "FUNCTIONS",
    "parse",
    "as_expr",
    "evaluate",
    "differentiate",
    "depends_on",
    "variables",
    "to_string",
    "compile_function",
]


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "ln", "sqrt", "abs")

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


_BINARY_LEVELS = ("+-", "*/")  # the binary operators, loosest first, bar "^"


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0  # nesting levels entered and not yet left

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.src) and self.src[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def parse_expr(self, level: int = 0) -> Expression:
        # a left-associative chain of level 0's "+-" over level 1's "*/" over
        # unary operands; one frame per level, since the frames per nesting
        # level set how deep a source the recursion limit admits
        ops = _BINARY_LEVELS[level]
        e = self.parse_expr(1) if level == 0 else self.parse_unary()
        while True:
            self.skip_ws()
            op = self.src[self.pos : self.pos + 1]
            if not op or op not in ops:
                return e
            self.pos += 1
            e = BinOp(op, e, self.parse_expr(1) if level == 0 else self.parse_unary())

    def parse_unary(self) -> Expression:
        # every nesting of the grammar (parentheses, calls, "-", "^") passes
        # here; an exception leaves the count at the depth it was raised at
        self.depth += 1
        e = Neg(self.parse_unary()) if self.accept("-") else self.parse_power()
        self.depth -= 1
        return e

    def parse_power(self) -> Expression:
        e = self.parse_atom()
        if self.accept("^"):
            return BinOp("^", e, self.parse_unary())
        return e

    def parse_atom(self) -> Expression:
        self.skip_ws()
        if self.pos >= len(self.src):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.src[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        m = _NUMBER.match(self.src, self.pos)
        if m:
            value = float(m.group(0))
            if value == math.inf:
                raise ParseError(f"number {m.group(0)!r} overflows to infinity", self.pos)
            self.pos = m.end()
            return Num(value)
        m = _IDENT.match(self.src, self.pos)
        if m:
            name = m.group(0)
            start = self.pos
            self.pos = m.end()
            if self.accept("("):
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", start)
                arg = self.parse_expr()
                self.expect(")")
                return Call(name, arg)
            return Var(name)
        raise ParseError(f"unexpected character {ch!r}", self.pos)


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Raises :class:`ParseError` carrying the 0-based offset of the problem,
    also for source nested too deep for the recursive-descent parser.
    """
    if not source or source.isspace():
        raise ParseError("empty expression", 0)
    p = _Parser(source)
    try:
        e = p.parse_expr()
    except RecursionError:
        raise ParseError(
            f"expression nests at least {p.depth} deep, past the recursion limit", p.pos
        ) from None
    p.skip_ws()
    if p.pos != len(p.src):
        raise ParseError(f"unexpected character {p.src[p.pos]!r}", p.pos)
    return e


def as_expr(e: Union[str, Expression]) -> Expression:
    """Parse ``e`` when it is source text; return an expression tree as is."""
    return parse(e) if isinstance(e, str) else e


def _power_value(base: float, expo: float) -> float:
    if base < 0.0 and expo != math.floor(expo):
        raise DomainError(f"negative base {base!r} with non-integer exponent {expo!r}")
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero base with negative exponent")
    try:
        return math.pow(base, expo)
    except OverflowError:
        raise DomainError("overflow in power") from None


def evaluate(e: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate ``e`` with every variable bound in ``bindings``.

    Compiles ``e`` as :func:`compile_function` does, each call, and runs
    it, so it returns and raises what compiled functions do.  Out-of-domain
    arguments (negative sqrt/ln, |asin| > 1, division by zero, negative
    base with fractional exponent, overflow) and other math errors, such
    as ``sin(inf)``, raise :class:`DomainError` rather than producing a
    silent NaN.  What ``math`` accepts keeps its value: ``asin``/``acos``
    of NaN are NaN, and ``^`` with an infinite or NaN operand is
    ``math.pow``'s (``0^(-inf)`` is inf).
    """
    params = tuple(sorted(variables(e)))
    try:
        values = [bindings[p] for p in params]
    except KeyError as exc:
        raise EvalError(f"unbound variable {exc.args[0]!r}") from None
    return _function(_emit(e), params)(*values)


def depends_on(e: Expression, var: str) -> bool:
    return var in variables(e)


def variables(e: Expression) -> frozenset[str]:
    return frozenset(_walk(_collect, e, set()))


def _collect(e: Expression, out: set) -> set:
    """``out`` with the variable names of ``e`` added."""
    match e:
        case Var(name=name):
            out.add(name)
        case Neg(arg=a) | Call(arg=a):
            _collect(a, out)
        case BinOp(left=left, right=right):
            _collect(left, out)
            _collect(right, out)
    return out


def _walk(fn, e: Expression, *args):
    """``fn(e, *args)`` for a recursive walk ``fn`` of the tree ``e``; a tree
    too deep for Python's recursion limit is a :class:`ParseError` naming
    its depth."""
    try:
        return fn(e, *args)
    except RecursionError:
        message = f"expression nests {_depth(e)} deep, past the recursion limit"
        raise ParseError(message, 0) from None


def _depth(e: Expression) -> int:
    """The number of levels of ``e``'s tree, counted without recursion."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, (Neg, Call)):
            stack.append((node.arg, level + 1))
        elif isinstance(node, BinOp):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return deepest


# Folding constructors.  Only literal subtrees and exact identities are
# folded; folds that could produce a non-finite literal fall back to the
# unfolded node.


def _lit(v: float, fallback: Expression) -> Expression:
    return Num(v) if math.isfinite(v) else fallback


def _is(e: Expression, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return _lit(a.value + b.value, BinOp("+", a, b))
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return _lit(a.value - b.value, BinOp("-", a, b))
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return _lit(a.value * b.value, BinOp("*", a, b))
    if _is(a, 0.0) or _is(b, 0.0):
        return Num(0.0)
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return _lit(a.value / b.value, BinOp("/", a, b))
    if _is(a, 0.0):
        return Num(0.0)
    if _is(b, 1.0):
        return a
    return BinOp("/", a, b)


def _powc(a: Expression, b: Expression) -> Expression:
    if _is(b, 1.0):
        return a
    if _is(b, 0.0):
        return Num(1.0)
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            return _lit(_power_value(a.value, b.value), BinOp("^", a, b))
        except DomainError:
            pass
    return BinOp("^", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def differentiate(e: Expression, var: str) -> Expression:
    """Symbolic partial derivative of ``e`` with respect to ``var``.

    The result evaluates to the analytic derivative wherever ``e`` is
    differentiable.  Literal subtrees are folded, so derivatives of
    constants collapse to a plain ``0``.  A tree too deep to walk raises
    :class:`ParseError` naming its depth.
    """
    return _walk(_derivative, e, var)


def _derivative(e: Expression, var: str) -> Expression:
    match e:
        case Num():
            return Num(0.0)
        case Var(name=name):
            return Num(1.0 if name == var else 0.0)
        case Neg(arg=a):
            return _neg(_derivative(a, var))
        case BinOp(op="+", left=left, right=right):
            return _add(_derivative(left, var), _derivative(right, var))
        case BinOp(op="-", left=left, right=right):
            return _sub(_derivative(left, var), _derivative(right, var))
        case BinOp(op="*", left=left, right=right):
            dl = _derivative(left, var)
            dr = _derivative(right, var)
            return _add(_mul(dl, right), _mul(left, dr))
        case BinOp(op="/", left=left, right=right):
            dl = _derivative(left, var)
            dr = _derivative(right, var)
            return _div(_sub(_mul(dl, right), _mul(left, dr)), _mul(right, right))
        case BinOp(op="^", left=base, right=expo):
            db = _derivative(base, var)
            # _collect, not depends_on: a RecursionError in it must reach
            # differentiate's _walk, which names the whole tree's depth
            if var not in _collect(expo, set()):
                # plain power rule; also valid for negative bases with
                # integer exponents, unlike the logarithmic form
                return _mul(_mul(expo, _powc(base, _sub(expo, Num(1.0)))), db)
            de = _derivative(expo, var)
            return _mul(
                _powc(base, expo),
                _add(_mul(de, Call("ln", base)), _div(_mul(expo, db), base)),
            )
        case Call(func=func, arg=arg):
            da = _derivative(arg, var)
            if func == "sin":
                return _mul(Call("cos", arg), da)
            if func == "cos":
                return _neg(_mul(Call("sin", arg), da))
            if func == "tan":
                return _div(da, _mul(Call("cos", arg), Call("cos", arg)))
            if func == "asin":
                return _div(da, Call("sqrt", _sub(Num(1.0), _mul(arg, arg))))
            if func == "acos":
                return _neg(_div(da, Call("sqrt", _sub(Num(1.0), _mul(arg, arg)))))
            if func == "atan":
                return _div(da, _add(Num(1.0), _mul(arg, arg)))
            if func == "exp":
                return _mul(Call("exp", arg), da)
            if func == "ln":
                return _div(da, arg)
            if func == "sqrt":
                return _div(da, _mul(Num(2.0), Call("sqrt", arg)))
            if func == "abs":
                # undefined at arg = 0, where evaluation raises
                return _mul(da, _div(arg, Call("abs", arg)))
    raise TypeError(f"not an expression node: {e!r}")


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        raise DomainError("overflow in exp") from None


def _checked(fn, admits, message: str):
    """``fn`` behind an argument check; ``message % a`` names a rejected ``a``."""
    def checked(a: float) -> float:
        if not admits(a):
            raise DomainError(message % (a,))
        return fn(a)

    return checked


def _domain_error(exc: Exception, checked, *values: float) -> DomainError:
    """The :class:`DomainError` for the math error ``exc`` a fast build
    raised at ``values``, worded by its ``checked`` build.

    The checked build fails wherever the fast one does, at or before the
    same operation; math's message stands when it has none.
    """
    message = str(exc)
    try:
        checked(*values)
    except DomainError as err:
        message = str(err)
    except ZeroDivisionError:
        message = "division by zero"
    except (ValueError, ArithmeticError):
        pass
    return DomainError(message)


# What the emitted names call.  The fast build runs math directly and
# catches _errors; the checked build, run only to word a fast build's math
# error, checks each argument first (NaN fails only asin's and acos's
# checks) and catches nothing.
_FAST = {f"_{f}": getattr(math, f) for f in FUNCTIONS if f not in ("ln", "abs")}
_FAST.update(_ln=math.log, _abs=abs, _pow=math.pow, _inf=math.inf, _nan=math.nan)
_FAST.update(_errors=(ValueError, ZeroDivisionError, OverflowError), _domain_error=_domain_error)
_CHECKED = {
    **_FAST,
    "_asin": _checked(math.asin, lambda a: -1.0 <= a <= 1.0, "asin argument %r outside [-1, 1]"),
    "_acos": _checked(math.acos, lambda a: -1.0 <= a <= 1.0, "acos argument %r outside [-1, 1]"),
    "_ln": _checked(math.log, lambda a: not a <= 0.0, "ln argument %r must be positive"),
    "_sqrt": _checked(math.sqrt, lambda a: not a < 0.0, "sqrt argument %r is negative"),
    "_exp": _exp,
    "_pow": _power_value,
    "_errors": (),
}


def _emit(e: Expression) -> str:
    """Python source for ``e``, with only the parentheses Python needs.

    Python ranks ``+ -``, ``* /`` and unary minus as the grammar does
    (:func:`_prec`), ``^`` and the functions are emitted as calls, and an
    operand is parenthesised exactly where :func:`to_string` parenthesises
    it, so the source parses back to ``e``'s own tree and compiles to the
    bytecode of the fully parenthesised form.  A non-finite literal is the
    namespace name ``_inf`` or ``_nan``, negated when its sign bit is set.
    A tree too deep to walk raises :class:`ParseError` naming its depth.
    """
    return _walk(_source, e)


def _source(e: Expression) -> str:
    match e:
        case Num(value=v):
            if math.isfinite(v):
                return repr(v)
            name = "_inf" if v == v else "_nan"
            return f"-{name}" if math.copysign(1.0, v) < 0 else name
        case Var(name=name):
            return f"v_{name}"
        case Neg(arg=a):
            return f"-{_operand(a, _prec(a) < _PREC_NEG)}"
        case BinOp(op="^", left=left, right=right):
            # math.pow keeps the principal real branch and raises
            # ValueError outside it
            return f"_pow({_source(left)}, {_source(right)})"
        case BinOp(op=op, left=left, right=right):
            p = _prec(e)
            return f"{_operand(left, _prec(left) < p)} {op} {_operand(right, _prec(right) <= p)}"
        case Call(func=func, arg=arg):
            return f"_{func}({_source(arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _operand(e: Expression, wrap: bool) -> str:
    return f"({_source(e)})" if wrap else _source(e)


def _nesting(source: str) -> int:
    """The deepest parenthesis nesting in ``source``."""
    depth = deepest = 0
    for ch in source:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def compile_function(e: Expression, params: tuple[str, ...]):
    """Compile ``e`` into a plain Python function of ``params``.

    Every variable of ``e`` must appear in ``params``.  A math error
    (ValueError, OverflowError, ZeroDivisionError) is raised as
    :class:`DomainError` naming the operation and its argument, e.g.
    ``ln argument -0.25 must be positive`` or ``division by zero``; math's
    own message when no argument check applies, as for ``sin(inf)``.  An
    expression whose calls and parentheses nest deeper than Python's
    compiler accepts, or whose tree is too deep to walk, raises
    :class:`ParseError` naming the depth.  The function returned is the
    compiled code itself, with no wrapper around its calls.
    """
    missing = variables(e) - set(params)
    if missing:
        raise EvalError(f"unbound variable {sorted(missing)[0]!r}")
    return _function(_emit(e), params)


def _function(body: str, params: tuple[str, ...]):
    # the returned function is the fast build itself: its try costs nothing
    # until math raises, and it raises the DomainError after its handler,
    # so the error chains no context; the checked build is the same code on
    # _CHECKED, where _errors is ()
    args = ", ".join(f"v_{p}" for p in params)
    ns = dict(_FAST)
    try:
        exec(
            f"def _compiled({args}):\n"
            "    try:\n"
            f"        return {body}\n"
            "    except _errors as exc:\n"
            f"        error = _domain_error(exc, _checked_build, {args})\n"
            "    raise error",
            ns,
        )
    except SyntaxError:
        # the emitted source is always valid, so only its nesting can fail
        raise ParseError(
            f"expression nests calls and parentheses {_nesting(body)} deep, "
            "past the Python compiler's limit",
            0,
        ) from None
    fn = ns["_compiled"]
    ns["_checked_build"] = FunctionType(fn.__code__, _CHECKED)
    return fn


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    match e:
        case BinOp(op=op):
            if op in "+-":
                return _PREC_ADD
            if op in "*/":
                return _PREC_MUL
            return _PREC_POW
        case Neg():
            return _PREC_NEG
        case Num(value=v) if math.copysign(1.0, v) < 0:
            # prints with a leading minus, which reparses as unary negation
            return _PREC_NEG
    return _PREC_ATOM


def to_string(e: Expression) -> str:
    """Deterministic serialization; reparsing yields a value-identical tree.

    A tree too deep to walk raises :class:`ParseError` naming its depth.
    """
    return _walk(_text, e)


def _text(e: Expression) -> str:
    match e:
        case Num(value=v):
            return repr(v)
        case Var(name=name):
            return name
        case Neg(arg=a):
            inner = _text(a)
            if _prec(a) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op=op, left=left, right=right):
            p = _prec(e)
            ls = _text(left)
            rs = _text(right)
            if op == "^":
                # right-associative: parenthesize an equal-precedence left child
                if _prec(left) <= p:
                    ls = f"({ls})"
                if _prec(right) < p:
                    rs = f"({rs})"
                return f"{ls}^{rs}"
            if _prec(left) < p:
                ls = f"({ls})"
            # equal-precedence right children keep their parentheses so the
            # reparse rebuilds the same tree; float + and * do not reassociate
            if _prec(right) <= p:
                rs = f"({rs})"
            if op in "+-":
                return f"{ls} {op} {rs}"
            return f"{ls}{op}{rs}"
        case Call(func=func, arg=arg):
            return f"{func}({_text(arg)})"
    raise TypeError(f"not an expression node: {e!r}")
