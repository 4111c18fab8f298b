"""A small expression language for scalar functions on R^n.

Grammar (standard precedence, ``^`` binds tightest, integer exponents only)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)*
    atom   := number | 'x<k>' | name '(' expr (',' expr)* ')' | '(' expr ')'

Known call names: abs, max, min, exp, sqrt, floor, dot.  ``dot`` takes
constant arguments and pairs them against the variables.  ``floor`` exists
solely for non-convex counterexample fixtures.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # abs, exp, sqrt, floor, max, min
    args: Tuple["Node", ...]


@dataclass(frozen=True)
class Dot:
    coeffs: Tuple[float, ...]


Node = object

_UNARY_CALLS = {"abs", "exp", "sqrt", "floor"}
_VARIADIC_CALLS = {"max", "min"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)|,))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            while pos < len(src) and src[pos].isspace():
                pos += 1
            if pos == len(src):
                break
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, arity: int):
        self.src = src
        self.arity = arity
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek()[1] == "^":
            self.next()
            kind, text, pos = self.next()
            neg = False
            if text == "-":
                neg = True
                kind, text, pos = self.next()
            if kind != "num" or "." in text or "e" in text.lower():
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            exponent = int(text)
            node = Pow(node, -exponent if neg else exponent)
        return node

    def atom(self) -> Node:
        kind, text, pos = self.next()
        if kind == "num":
            return Const(float(text))
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            var = re.fullmatch(r"x(\d+)", text)
            if var:
                idx = int(var.group(1))
                if not 1 <= idx <= self.arity:
                    raise ExprSyntaxError(
                        f"variable {text} exceeds arity {self.arity}", pos)
                return Var(idx - 1)
            if text in _UNARY_CALLS or text in _VARIADIC_CALLS or text == "dot":
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if text in _UNARY_CALLS and len(args) != 1:
                    raise ExprSyntaxError(f"{text} takes exactly one argument", pos)
                if text == "dot":
                    coeffs = []
                    for a in args:
                        c = _const_value(a)
                        if c is None:
                            raise ExprSyntaxError("dot arguments must be constants", pos)
                        coeffs.append(c)
                    if len(coeffs) != self.arity:
                        raise ExprSyntaxError(
                            f"dot needs {self.arity} coefficients, got {len(coeffs)}", pos)
                    return Dot(tuple(coeffs))
                return Call(text, tuple(args))
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)


def _const_value(node: Node):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        inner = _const_value(node.operand)
        return None if inner is None else -inner
    return None


def parse(src: str, arity: int) -> Node:
    """Parse ``src`` into an AST over variables x1..x<arity>."""
    return _Parser(src, arity).parse()


class _Violation(Exception):
    """A row of a batch breaks a domain rule; the scalar closure, rerun on
    the rows in order, raises the tagged error of the first such row."""


def _exact_map(op, values: np.ndarray) -> np.ndarray:
    """``op`` (a Python float function) at each entry; numpy's vectorized
    ``exp`` and ``**`` differ from ``math.exp`` and ``float.__pow__`` in
    the last bit on some inputs."""
    try:
        return np.array([op(v) for v in values.tolist()], dtype=float)
    except OverflowError:
        raise _Violation from None


def _compile(node: Node, path: str):
    """The scalar and batch closures of ``node``.

    The scalar closure takes a point as a list of floats; its domain errors
    carry ``path``-based subexpression paths fixed here.  The batch closure
    takes a matrix of point rows and returns one value per row, the same
    floats the scalar closure gives on each row; it raises :class:`_Violation`
    where any row breaks a domain rule.
    """
    at = path or "<root>"
    if isinstance(node, Const):
        value = node.value
        return (lambda x: value), (lambda xs: np.full(xs.shape[0], value, dtype=float))
    if isinstance(node, Var):
        i = node.index
        return (lambda x: x[i]), (lambda xs: xs[:, i].copy())
    if isinstance(node, Neg):
        a, a_many = _compile(node.operand, path + ".neg")
        return (lambda x: -a(x)), (lambda xs: -a_many(xs))
    if isinstance(node, BinOp):
        a, a_many = _compile(node.left, path + ".l")
        b, b_many = _compile(node.right, path + ".r")
        if node.op == "+":
            return (lambda x: a(x) + b(x)), (lambda xs: a_many(xs) + b_many(xs))
        if node.op == "-":
            return (lambda x: a(x) - b(x)), (lambda xs: a_many(xs) - b_many(xs))
        if node.op == "*":
            return (lambda x: a(x) * b(x)), (lambda xs: a_many(xs) * b_many(xs))

        def divide(x):
            num, den = a(x), b(x)
            if den == 0.0:
                raise ExprDomainError("division by zero", at)
            return num / den

        def divide_many(xs):
            num, den = a_many(xs), b_many(xs)
            if np.any(den == 0.0):
                raise _Violation
            return num / den

        return divide, divide_many
    if isinstance(node, Pow):
        base, base_many = _compile(node.base, path + ".pow")
        e = node.exponent

        def power(x):
            v = base(x)
            if e < 0 and v == 0.0:
                raise ExprDomainError("zero raised to a negative power", at)
            try:
                return float(v ** e)
            except OverflowError:
                raise ExprDomainError("power overflows", at) from None

        def power_many(xs):
            v = base_many(xs)
            if e < 0 and np.any(v == 0.0):
                raise _Violation
            return _exact_map(lambda u: u ** e, v)

        return power, power_many
    if isinstance(node, Dot):
        c = np.array(node.coeffs, dtype=float)
        k = c.size
        return (lambda x: float(np.dot(c, x[:k]))), \
            (lambda xs: np.array([np.dot(c, row) for row in xs[:, :k]], dtype=float))
    if isinstance(node, Call):
        name = node.name
        where = f"{path}.{name}"
        parts = [_compile(a, f"{path}.{name}[{i}]") for i, a in enumerate(node.args)]
        a, a_many = parts[0]
        if name == "abs":
            return (lambda x: abs(a(x))), (lambda xs: np.abs(a_many(xs)))
        if name == "exp":
            def exp(x):
                v = a(x)
                try:
                    return math.exp(v)
                except OverflowError:
                    raise ExprDomainError("exp overflows", where) from None

            return exp, (lambda xs: _exact_map(math.exp, a_many(xs)))
        if name == "sqrt":
            def sqrt(x):
                v = a(x)
                if v < 0.0:
                    raise ExprDomainError("sqrt of a negative value", where)
                return math.sqrt(v)

            def sqrt_many(xs):
                v = a_many(xs)
                if np.any(v < 0.0):
                    raise _Violation
                return np.sqrt(v)

            return sqrt, sqrt_many
        if name == "floor":
            def floor(x):
                v = a(x)
                if not math.isfinite(v):
                    raise ExprDomainError("floor of a non-finite value", where)
                return float(math.floor(v))

            def floor_many(xs):
                v = a_many(xs)
                if not np.all(np.isfinite(v)):
                    raise _Violation
                # + 0.0 turns -0.0 into the 0.0 that float(math.floor(-0.0)) gives
                return np.floor(v) + 0.0

            return floor, floor_many
        scalars = [s for s, _ in parts]
        batches = [m for _, m in parts]
        pick, better = (max, np.greater) if name == "max" else (min, np.less)

        def extremum_many(xs):
            # Python's max and min keep the first of equal values and do not
            # replace a value by one that compares unordered (NaN)
            vals = [m(xs) for m in batches]
            best = vals[0]
            for v in vals[1:]:
                best = np.where(better(v, best), v, best)
            return best

        return (lambda x: pick([s(x) for s in scalars])), extremum_many
    raise TypeError(f"unknown node type {type(node)!r}")


def _point(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def evaluate(node: Node, x) -> float:
    """The value of ``node`` at the point ``x``; domain violations raise
    :class:`ExprDomainError` tagged with the subexpression's path."""
    return _compile(node, "")[0](_point(x))


def to_source(node: Node) -> str:
    """Print an AST back to parseable source (round-trips to an equal AST)."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Neg):
        return f"-({to_source(node.operand)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Pow):
        return f"({to_source(node.base)})^{node.exponent}" if node.exponent >= 0 \
            else f"({to_source(node.base)})^-{-node.exponent}"
    if isinstance(node, Dot):
        return "dot(" + ", ".join(repr(c) for c in node.coeffs) + ")"
    if isinstance(node, Call):
        return f"{node.name}(" + ", ".join(to_source(a) for a in node.args) + ")"
    raise TypeError(f"unknown node type {type(node)!r}")


def make_callable(node: Node):
    """Compile an AST once into a point evaluator that keeps its source.

    The evaluator's ``many`` attribute is its batch evaluator: point rows
    in, one value per row out, the same floats as one call per row.  When
    any row breaks a domain rule, the rows are rerun one at a time, so the
    batch raises the :class:`ExprDomainError` of the first such row.
    """
    scalar, batch = _compile(node, "")

    def fn(x):
        return scalar(_point(x))

    def many(xs):
        xs = np.ascontiguousarray(xs, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return batch(xs)
        except _Violation:
            return np.array([fn(x) for x in xs], dtype=float)

    fn.many = many
    fn.ast = node
    fn.source = to_source(node)
    return fn
