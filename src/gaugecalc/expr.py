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


def evaluate(node: Node, x, path: str = "") -> float:
    """Exact recursive evaluation; domain violations raise tagged errors."""
    x = np.asarray(x, dtype=float)
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Neg):
        return -evaluate(node.operand, x, path + ".neg")
    if isinstance(node, BinOp):
        a = evaluate(node.left, x, path + ".l")
        b = evaluate(node.right, x, path + ".r")
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise ExprDomainError("division by zero", path or "<root>")
        return a / b
    if isinstance(node, Pow):
        base = evaluate(node.base, x, path + ".pow")
        if node.exponent < 0 and base == 0.0:
            raise ExprDomainError("zero raised to a negative power", path or "<root>")
        try:
            return float(base ** node.exponent)
        except OverflowError:
            raise ExprDomainError("power overflows", path or "<root>") from None
    if isinstance(node, Dot):
        return float(np.dot(node.coeffs, x[: len(node.coeffs)]))
    if isinstance(node, Call):
        vals = [evaluate(a, x, f"{path}.{node.name}[{i}]")
                for i, a in enumerate(node.args)]
        if node.name == "abs":
            return abs(vals[0])
        if node.name == "exp":
            try:
                return math.exp(vals[0])
            except OverflowError:
                raise ExprDomainError("exp overflows", f"{path}.exp") from None
        if node.name == "sqrt":
            if vals[0] < 0.0:
                raise ExprDomainError("sqrt of a negative value", f"{path}.sqrt")
            return math.sqrt(vals[0])
        if node.name == "floor":
            return float(math.floor(vals[0]))
        if node.name == "max":
            return max(vals)
        return min(vals)
    raise TypeError(f"unknown node type {type(node)!r}")


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
    """Wrap an AST as a plain point-evaluator; keeps the source attached."""

    def fn(x):
        return evaluate(node, x)

    fn.ast = node
    fn.source = to_source(node)
    return fn
