"""Parsing and evaluation of scalar-field expressions on a chart.

Fields on an n-dimensional chart are written in a small infix language:

* variables ``x1 .. xn`` (aliases ``x``, ``y`` for n = 2 and ``t`` for n = 1),
* functions ``exp``, ``ln``, ``sin``, ``cos``, ``sqrt``,
* binary ``+ - * /`` (left associative) and ``^`` with integer exponents,
* unary negation, with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``.

Parsed trees are immutable, so a :class:`ScalarField` may be evaluated
concurrently from several threads.  A tree is evaluated either at one point,
by a walk in plain floats (:func:`evaluate`), or at every row of an
``(n, dim)`` array at once with numpy ufuncs (:func:`evaluate_many`); both
raise the same :class:`~bundleflow.errors.EvalDomainError` on the same
inputs.  There is deliberately no symbolic differentiation here; derivatives
of fields are taken by finite differences downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError

__all__ = [
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ScalarField",
    "parse",
    "evaluate",
    "evaluate_many",
    "pretty",
    "FUNCTIONS",
]

FUNCTIONS = ("cos", "exp", "ln", "sin", "sqrt")

# Accepted short names per chart dimension, mapped to 0-based indices.
_ALIASES = {1: {"t": 0}, 2: {"x": 0, "y": 1}}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate index


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Pow, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k >= n or not source[k].isdigit():
                    raise ExprSyntaxError("malformed number exponent", j)
                while k < n and source[k].isdigit():
                    k += 1
                j = k
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _variable_index(name: str, dim: int, pos: int) -> int:
    if len(name) > 1 and name[0] == "x" and name[1:].isdigit():
        index = int(name[1:]) - 1
        if not 0 <= index < dim:
            raise ExprSyntaxError(
                f"variable {name!r} out of range for dimension {dim}", pos
            )
        return index
    alias = _ALIASES.get(dim, {}).get(name)
    if alias is None:
        raise ExprSyntaxError(f"unknown identifier {name!r}", pos)
    return alias


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.dim = dim
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expression(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.integer_exponent())
        return node

    def integer_exponent(self) -> int:
        # the grammar deliberately restricts ^ to literal integer exponents
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.integer_exponent()
            self.expect_op(")")
            return value
        sign = 1
        while tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -sign
            tok = self.peek()
        if tok.kind != "num":
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        value = float(tok.text)
        if not value.is_integer():
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        self.advance()
        return sign * int(value)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expression()
                self.expect_op(")")
                return Call(tok.text, arg)
            return Var(_variable_index(tok.text, self.dim, tok.pos))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )


def parse(source: str, dim: int) -> Node:
    """Parse ``source`` into an immutable expression tree for a dim-chart."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    if dim < 1:
        raise ValueError(f"chart dimension must be >= 1, got {dim}")
    return _Parser(_tokenize(source), dim).parse()


def evaluate(node: Node, point) -> float:
    """Evaluate an expression tree at a coordinate point.

    Domain violations (log of a non-positive value, square root of a
    negative value, division by zero, overflow, sine or cosine of an
    infinite value) raise :class:`~bundleflow.errors.EvalDomainError`
    instead of yielding NaN/inf.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index])
    if isinstance(node, Neg):
        return -evaluate(node.child, point)
    if isinstance(node, BinOp):
        left = evaluate(node.left, point)
        right = evaluate(node.right, point)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise EvalDomainError("division by zero")
        return left / right
    if isinstance(node, Pow):
        base = evaluate(node.base, point)
        if base == 0.0 and node.exponent < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return float(base**node.exponent)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in power: {exc}") from None
    if isinstance(node, Call):
        arg = evaluate(node.arg, point)
        try:
            if node.func == "exp":
                return math.exp(arg)
            if node.func == "ln":
                if arg <= 0.0:
                    raise EvalDomainError(f"ln of non-positive value {arg}")
                return math.log(arg)
            if node.func == "sqrt":
                if arg < 0.0:
                    raise EvalDomainError(f"sqrt of negative value {arg}")
                return math.sqrt(arg)
            if math.isinf(arg):  # math.sin/cos raise a bare ValueError there
                raise EvalDomainError(f"{node.func} of infinite value {arg}")
            if node.func == "sin":
                return math.sin(arg)
            if node.func == "cos":
                return math.cos(arg)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {node.func}: {exc}") from None
    raise TypeError(f"not an expression node: {node!r}")


# evaluate's messages for the OverflowError of math.exp and of float ** int
_EXP_OVERFLOW = "overflow in exp: math range error"
_POW_OVERFLOW = "overflow in power: (34, 'Numerical result out of range')"


def evaluate_many(node: Node, points) -> np.ndarray:
    """Evaluate an expression tree at each row of an ``(n, dim)`` array.

    Row by row this follows :func:`evaluate`: the call raises the
    :class:`~bundleflow.errors.EvalDomainError` that :func:`evaluate` raises
    at some row, with the same text followed by that row.  The
    values agree with :func:`evaluate` up to the last-digit differences
    between numpy's ufuncs and :mod:`math`.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points))
    with np.errstate(all="ignore"):
        out[:] = _evaluate_rows(node, points)
    return out


def _check_rows(bad, values, points, message) -> None:
    """Raise ``message`` (formatted with the operand) at the first bad row."""
    if bad.any():
        i = int(np.argmax(np.broadcast_to(bad, len(points))))
        value = float(np.broadcast_to(values, len(points))[i])
        raise EvalDomainError(f"{message.format(value)} at {points[i]}")


def _no_overflow(out, arg, points, message):
    """``out``, unless a finite operand gave an infinite result in some row."""
    overflow = np.isinf(out)
    if overflow.any():
        _check_rows(overflow & np.isfinite(arg), arg, points, message)
    return out


def _evaluate_rows(node: Node, points: np.ndarray):
    """:func:`evaluate_many`'s walk; a variable-free subtree stays a scalar."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return points[:, node.index]
    if isinstance(node, Neg):
        return -_evaluate_rows(node.child, points)
    if isinstance(node, BinOp):
        left = _evaluate_rows(node.left, points)
        right = _evaluate_rows(node.right, points)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        _check_rows(np.equal(right, 0.0), right, points, "division by zero")
        return np.divide(left, right)
    if isinstance(node, Pow):
        base = _evaluate_rows(node.base, points)
        if node.exponent < 0:
            _check_rows(np.equal(base, 0.0), base, points, "zero raised to a negative power")
        # float_power calls libm's pow, as float ** int does; power does not
        return _no_overflow(np.float_power(base, node.exponent), base, points, _POW_OVERFLOW)
    if isinstance(node, Call):
        arg = _evaluate_rows(node.arg, points)
        if node.func == "exp":
            return _no_overflow(np.exp(arg), arg, points, _EXP_OVERFLOW)
        if node.func == "ln":
            _check_rows(np.less_equal(arg, 0.0), arg, points, "ln of non-positive value {}")
            return np.log(arg)
        if node.func == "sqrt":
            _check_rows(np.less(arg, 0.0), arg, points, "sqrt of negative value {}")
            return np.sqrt(arg)
        _check_rows(np.isinf(arg), arg, points, node.func + " of infinite value {}")
        return np.sin(arg) if node.func == "sin" else np.cos(arg)
    raise TypeError(f"not an expression node: {node!r}")


# Precedence levels used by the printer; mirrors the parser.
_ADD, _MUL, _UNARY, _POW, _ATOM = 0, 1, 2, 3, 4


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        text = f"{node.value:.17g}"
        return text, (_UNARY if text.startswith("-") else _ATOM)
    if isinstance(node, Var):
        return f"x{node.index + 1}", _ATOM
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)[0]})", _ATOM
    if isinstance(node, Pow):
        base, lvl = _render(node.base)
        if lvl < _ATOM:
            base = f"({base})"
        exp = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        return f"{base}^{exp}", _POW
    if isinstance(node, Neg):
        child, lvl = _render(node.child)
        if lvl < _POW:
            child = f"({child})"
        return f"-{child}", _UNARY
    if isinstance(node, BinOp):
        own = _ADD if node.op in "+-" else _MUL
        left, llvl = _render(node.left)
        right, rlvl = _render(node.right)
        if llvl < own:
            left = f"({left})"
        if rlvl <= own:
            right = f"({right})"
        sep = f" {node.op} " if node.op in "+-" else node.op
        return f"{left}{sep}{right}", own
    raise TypeError(f"not an expression node: {node!r}")


def pretty(node: Node) -> str:
    """Render a tree to canonical text; a fixed point of parse-then-print."""
    return _render(node)[0]


def _has_variable(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _has_variable(node.child)
    if isinstance(node, BinOp):
        return _has_variable(node.left) or _has_variable(node.right)
    if isinstance(node, Pow):
        return _has_variable(node.base)
    if isinstance(node, Call):
        return _has_variable(node.arg)
    return False


class ScalarField:
    """A point-evaluable real function on a chart, backed by a parsed tree.

    Constant expressions are folded once so that repeated evaluation of
    catalog structures with constant components stays cheap.
    """

    __slots__ = ("ast", "dim", "source", "_const")

    def __init__(self, ast: Node, dim: int, source: str | None = None):
        self.ast = ast
        self.dim = dim
        self.source = source if source is not None else pretty(ast)
        self._const: float | None = None
        if not _has_variable(ast):
            try:
                self._const = evaluate(ast, ())
            except EvalDomainError:
                self._const = None  # surface the domain error at use time

    @classmethod
    def parse(cls, source: str, dim: int) -> "ScalarField":
        return cls(parse(source, dim), dim, source)

    @classmethod
    def constant(cls, value: float, dim: int) -> "ScalarField":
        return cls(Const(float(value)), dim)

    @property
    def const_value(self) -> float | None:
        return self._const

    def __call__(self, point):
        """The value at one point, a sequence of ``dim`` coordinates.

        Given an ``(n, dim)`` array instead, returns the ``n`` values at its
        rows from one pass of :func:`evaluate_many`.
        """
        if getattr(point, "ndim", 1) == 2:
            if self._const is not None:
                return np.full(len(point), self._const)
            return evaluate_many(self.ast, point)
        if self._const is not None:
            return self._const
        return evaluate(self.ast, point)

    def __repr__(self) -> str:
        return f"ScalarField({self.source!r}, dim={self.dim})"
