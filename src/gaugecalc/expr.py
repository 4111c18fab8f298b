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
from itertools import repeat
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


def _exact_map(op, values: np.ndarray, message: str, path: str, *args) -> np.ndarray:
    """``op(v, *args)`` (a Python float function) at each entry ``v``;
    numpy's vectorized ``exp`` and ``**`` differ from ``math.exp`` and
    ``float.__pow__`` in the last bit on some inputs.  An overflow raises
    :class:`ExprDomainError` with ``message`` at ``path``."""
    try:
        return np.array(list(map(op, values.tolist(), *(repeat(a) for a in args))), dtype=float)
    except OverflowError:
        raise ExprDomainError(message, path) from None


def _compile(node: Node, path: str):
    """The evaluator of ``node``: a matrix of point rows in, one value per
    row out.

    Each row's value depends on that row alone.  Where a row breaks a
    domain rule, the evaluator raises :class:`ExprDomainError` with the
    subexpression path (``path``-based, fixed here) of the first node that
    finds a breaking row, nodes in left-to-right evaluation order; on a
    one-row batch that is the row's first violation.  Callers run it under
    ``np.errstate(all="ignore")``: as in Python float arithmetic, an
    overflow or a NaN is a value here, not a warning.
    """
    at = path or "<root>"
    if isinstance(node, Const):
        value = node.value
        return lambda xs: np.full(xs.shape[0], value, dtype=float)
    if isinstance(node, Var):
        i = node.index
        return lambda xs: xs[:, i].copy()
    if isinstance(node, Neg):
        a = _compile(node.operand, path + ".neg")
        return lambda xs: -a(xs)
    if isinstance(node, BinOp):
        a = _compile(node.left, path + ".l")
        b = _compile(node.right, path + ".r")
        if node.op == "+":
            return lambda xs: a(xs) + b(xs)
        if node.op == "-":
            return lambda xs: a(xs) - b(xs)
        if node.op == "*":
            return lambda xs: a(xs) * b(xs)

        def divide(xs):
            num, den = a(xs), b(xs)
            if np.any(den == 0.0):
                raise ExprDomainError("division by zero", at)
            return num / den

        return divide
    if isinstance(node, Pow):
        base = _compile(node.base, path + ".pow")
        e = node.exponent

        def power(xs):
            v = base(xs)
            if e < 0 and np.any(v == 0.0):
                raise ExprDomainError("zero raised to a negative power", at)
            return _exact_map(pow, v, "power overflows", at, e)

        return power
    if isinstance(node, Dot):
        c = np.array(node.coeffs, dtype=float)
        k = c.size
        return lambda xs: np.array([np.dot(c, row) for row in xs[:, :k]], dtype=float)
    if isinstance(node, Call):
        name = node.name
        where = f"{path}.{name}"
        parts = [_compile(a, f"{path}.{name}[{i}]") for i, a in enumerate(node.args)]
        a = parts[0]
        if name == "abs":
            return lambda xs: np.abs(a(xs))
        if name == "exp":
            return lambda xs: _exact_map(math.exp, a(xs), "exp overflows", where)
        if name == "sqrt":
            def sqrt(xs):
                v = a(xs)
                if np.any(v < 0.0):
                    raise ExprDomainError("sqrt of a negative value", where)
                return np.sqrt(v)

            return sqrt
        if name == "floor":
            def floor(xs):
                v = a(xs)
                if not np.all(np.isfinite(v)):
                    raise ExprDomainError("floor of a non-finite value", where)
                # + 0.0 turns -0.0 into the 0.0 that float(math.floor(-0.0)) gives
                return np.floor(v) + 0.0

            return floor
        better = np.greater if name == "max" else np.less

        def extremum(xs):
            # Python's max and min keep the first of equal values and do not
            # replace a value by one that compares unordered (NaN)
            vals = [p(xs) for p in parts]
            best = vals[0]
            for v in vals[1:]:
                best = np.where(better(v, best), v, best)
            return best

        return extremum
    raise TypeError(f"unknown node type {type(node)!r}")


def _at_point(evaluator, x) -> float:
    """``evaluator``'s value at the point ``x``, as a one-row batch."""
    with np.errstate(all="ignore"):
        return float(evaluator(np.asarray(x, dtype=float).reshape(1, -1))[0])


def evaluate(node: Node, x) -> float:
    """The value of ``node`` at the point ``x``: its compiled evaluator run
    on one row.  Domain violations raise :class:`ExprDomainError` tagged
    with the subexpression's path."""
    return _at_point(_compile(node, ""), x)


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

    The AST compiles to one evaluator (see :func:`_compile`), and a point
    call runs it on a one-row batch.  The point evaluator's ``many``
    attribute runs it on a matrix of point rows, one value per row, the
    same floats as one point call per row.  When any row breaks a domain
    rule, the rows are rerun one at a time as one-row batches, so ``many``
    raises the :class:`ExprDomainError` of the first such row.
    """
    evaluator = _compile(node, "")

    def fn(x):
        return _at_point(evaluator, x)

    def many(xs):
        xs = np.ascontiguousarray(xs, dtype=float)
        try:
            with np.errstate(all="ignore"):
                return evaluator(xs)
        except ExprDomainError:
            return np.array([fn(x) for x in xs], dtype=float)

    fn.many = many
    fn.ast = node
    fn.source = to_source(node)
    return fn
