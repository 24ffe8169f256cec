"""Parsing and evaluation of scalar-field expressions on a chart.

Fields on an n-dimensional chart are written in a small infix language:

* variables ``x1 .. xn`` (aliases ``x``, ``y`` for n = 2 and ``t`` for n = 1),
* functions ``exp``, ``ln``, ``sin``, ``cos``, ``sqrt``,
* binary ``+ - * /`` (left associative) and ``^`` with integer exponents,
* unary negation, with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``.

Two walkers are the reference.  :func:`evaluate` walks a tree at one point
in plain floats; :func:`evaluate_many` walks it once over every row of an
``(n, dim)`` array with numpy ufuncs.  Both raise the same
:class:`~bundleflow.errors.EvalDomainError` on the same inputs.  The batch
walk also carries exact first and second derivatives (:func:`jet_many`):
forward-mode propagation of each node's value, gradient and Hessian, which
is how the geometry differentiates g and analytic Christoffel symbols.
There is deliberately no symbolic differentiation: no derivative tree is
ever built.

At one point, the walk is replaced by straight-line code.
:func:`compile_point` emits one Python function of a point for a list of
trees: their values, bit for bit :func:`evaluate`'s, or their jets, bit for
bit :func:`jet_many`'s on that one row (a zero derivative may differ in its
sign).  Forward mode thus becomes a source transformation (Griewank &
Walther, *Evaluating Derivatives*, ch. 13), done once per tree instead of on
every call.  The generated code has no error text of its own: at a domain
condition, a float exception or a derivative that is not finite, it hands
the point back to the walker, which returns the result or raises its own
error.  :class:`ScalarField` at one point and ``FieldTensor.at``/``jet`` at
one point or one row compile on first use and keep the function; stacks
always take the batch walk.

Parsed trees are immutable, and a compiled function is a pure function of
its point, so a :class:`ScalarField` may be evaluated concurrently from
several threads.  Two threads that use a field first at the same time may
both compile it; each gets the same function.
"""

from __future__ import annotations

import math
import operator
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
    "jet_many",
    "compile_point",
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
        out[:] = _evaluate_rows(node, points)[0]
    return out


def jet_many(nodes, points, order: int) -> np.ndarray:
    """Values and exact derivatives of trees at each row of an ``(n, dim)`` array.

    Returns one array ``[n, c, f]`` of Taylor coefficients, with the trees
    along the last axis (an entry None stands for the zero function):
    ``c = 0`` is the value, ``c = 1 + l`` the first derivative d_l
    (order >= 1) and ``c = 1 + dim + m dim + l`` the second derivative
    d_m d_l (order 2).  Every node carries its value, gradient
    and Hessian and combines them by the chain and product rules
    (forward-mode Taylor arithmetic; Griewank & Walther, *Evaluating
    Derivatives*, ch. 13), so the derivatives are those of the evaluation
    itself, with no step size.  The values are :func:`evaluate_many`'s bit
    for bit, and the call raises its errors, with its messages, on the same
    inputs.  Beyond those, an :class:`~bundleflow.errors.EvalDomainError`
    names a row where a tree's value is finite but its derivatives are not
    (``sqrt`` at 0 has none): the first such row of the first such tree.

    Near a removable singularity of an expression the derivatives lose
    accuracy, and nothing raises: at x = 2.220446049250313e-16,
    ``1/(1.5 + 1/x)`` gets d²f/dx² = -4 against the exact -3, because the
    walk adds two terms of size 2/x ≈ 9e15.  The compiled jets of
    :func:`compile_point` do the same arithmetic and inherit this.  Written
    in its cancelled form, ``x/(1.5 x + 1)``, the field gets -3.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    size = len(nodes)
    jet = np.zeros((n, (1, 1 + dim, 1 + dim + dim * dim)[order], size))
    # a part beyond the order is never written: the walk gives None there
    hessians = jet[:, 1 + dim :].reshape(n, dim, dim, size) if order > 1 else None
    parts = (jet[:, 0], jet[:, 1 : 1 + dim], hessians)
    with np.errstate(all="ignore"):
        for f, node in enumerate(nodes):
            if node is None:
                continue
            for part, value in zip(parts, _evaluate_rows(node, points, order)):
                if value is not None:
                    part[..., f] = value
    if order and not np.isfinite(jet[:, 1:]).all():
        for f in range(size):
            bad = np.isfinite(jet[:, 0, f]) & ~np.isfinite(jet[:, 1:, f]).all(axis=1)
            _check_rows(bad, jet[:, 0, f], points, "no finite derivative where the value is {}")
    return jet


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


# Derivatives in the walk below are None where they are zero (the subtree
# has no variable) or not carried (beyond the order); otherwise a gradient
# is (n, dim) and a Hessian (n, dim, dim), whatever the shape of the value.


def _add(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _neg(a):
    return None if a is None else -a


def _times(a, factor):
    """A derivative times a scalar or an (n,) array of row factors."""
    if a is None:
        return None
    if isinstance(factor, np.ndarray):
        factor = factor.reshape(factor.shape + (1,) * (a.ndim - 1))
    return a * factor


def _sym_outer(a, b):
    """a b^T + b a^T per row, for two gradients."""
    if a is None or b is None:
        return None
    ab = a[:, :, None] * b[:, None, :]
    return ab + ab.swapaxes(1, 2)


def _chain(order, d1, d2, f1, f2):
    """The derivatives of f(u) from u's (d1, d2) and the (n,) arrays f', f''
    at u."""
    grad = d1 * f1[:, None]
    if order < 2:
        return grad, None
    hess = (d1 * f2[:, None])[:, :, None] * d1[:, None, :]
    return grad, hess if d2 is None else hess + d2 * f1[:, None, None]


def _binop_jet(op, order, left, l1, l2, right, r1, r2, value) -> tuple:
    """The derivatives of ``value = left op right`` from its operands'."""
    if op == "+":
        return _add(l1, r1), _add(l2, r2)
    if op == "-":
        return _add(l1, _neg(r1)), _add(l2, _neg(r2))
    if op == "*":
        d1 = _add(_times(l1, right), _times(r1, left))
        if order < 2:
            return d1, None
        return d1, _add(_add(_times(l2, right), _times(r2, left)), _sym_outer(l1, r1))
    # q = l / r: q' = (l' - q r') / r and q'' = (l'' - q r'' - q' r'^T - r' q'^T) / r
    d1 = _add(_times(l1, 1.0 / right), _times(r1, -value / right))
    if order < 2:
        return d1, None
    d2 = _add(_add(l2, _neg(_times(r2, value))), _neg(_sym_outer(d1, r1)))
    return d1, _times(d2, 1.0 / right)


def _slopes(func: str, arg, value) -> tuple:
    """f'(arg) and f''(arg) of the function ``func``, given value = f(arg)."""
    if func == "exp":
        return value, value
    if func == "ln":
        f1 = 1.0 / arg
        return f1, -f1 * f1
    if func == "sqrt":
        f1 = 0.5 / value  # infinite at 0, where there is no derivative
        return f1, -0.5 * f1 / arg
    if func == "sin":
        return np.cos(arg), -value
    return -np.sin(arg), -value


def _evaluate_rows(node: Node, points: np.ndarray, order: int = 0) -> tuple:
    """(value, gradient, Hessian) of a node at every row, the derivatives up
    to ``order``: the walk of :func:`evaluate_many` and :func:`jet_many`.
    A variable-free subtree's value stays a scalar."""
    if isinstance(node, Const):
        return node.value, None, None
    if isinstance(node, Var):
        value = points[:, node.index]
        if order == 0:
            return value, None, None
        grad = np.zeros(points.shape)
        grad[:, node.index] = 1.0
        return value, grad, None
    if isinstance(node, Neg):
        value, d1, d2 = _evaluate_rows(node.child, points, order)
        if d1 is None:
            return -value, None, None
        return -value, -d1, _neg(d2)
    if isinstance(node, BinOp):
        left, l1, l2 = _evaluate_rows(node.left, points, order)
        right, r1, r2 = _evaluate_rows(node.right, points, order)
        if node.op == "+":
            value = left + right
        elif node.op == "-":
            value = left - right
        elif node.op == "*":
            value = left * right
        else:
            _check_rows(np.equal(right, 0.0), right, points, "division by zero")
            value = np.divide(left, right)
        if l1 is None and r1 is None:
            return value, None, None
        return (value,) + _binop_jet(node.op, order, left, l1, l2, right, r1, r2, value)
    if isinstance(node, Pow):
        base, d1, d2 = _evaluate_rows(node.base, points, order)
        k = node.exponent
        if k < 0:
            _check_rows(np.equal(base, 0.0), base, points, "zero raised to a negative power")
        # float_power calls libm's pow, as float ** int does; power does not
        value = _no_overflow(np.float_power(base, k), base, points, _POW_OVERFLOW)
        if d1 is None or k == 0:
            return value, None, None
        if k == 1:  # b's own jet; the rule below would take 1/b, infinite at 0
            return value, d1, d2
        f2 = k * (k - 1) * np.float_power(base, k - 2) if order > 1 else None
        return (value,) + _chain(order, d1, d2, k * np.float_power(base, k - 1), f2)
    if isinstance(node, Call):
        arg, d1, d2 = _evaluate_rows(node.arg, points, order)
        if node.func == "exp":
            value = _no_overflow(np.exp(arg), arg, points, _EXP_OVERFLOW)
        elif node.func == "ln":
            _check_rows(np.less_equal(arg, 0.0), arg, points, "ln of non-positive value {}")
            value = np.log(arg)
        elif node.func == "sqrt":
            _check_rows(np.less(arg, 0.0), arg, points, "sqrt of negative value {}")
            value = np.sqrt(arg)
        else:
            _check_rows(np.isinf(arg), arg, points, node.func + " of infinite value {}")
            value = np.sin(arg) if node.func == "sin" else np.cos(arg)
        if d1 is None:
            return value, None, None
        return (value,) + _chain(order, d1, d2, *_slopes(node.func, arg, value))
    raise TypeError(f"not an expression node: {node!r}")


# -- straight-line code for one point -------------------------------------------

# what the generated code calls: math at order 0 (evaluate's functions), numpy
# ufuncs on floats at orders 1 and 2 (the walk's)
_CALLS = (
    {"_exp": math.exp, "_ln": math.log, "_sqrt": math.sqrt, "_sin": math.sin, "_cos": math.cos},
    {"_exp": np.exp, "_ln": np.log, "_sqrt": np.sqrt, "_sin": np.sin, "_cos": np.cos,
     "_pow": np.float_power},
)
# the arguments a ufunc takes without a floating-point warning; the walk takes
# the others.  Powers get a bound on |base| from their exponents (below).
_GUARDS = {"exp": "{} < 709.0", "ln": "{} > 0.0", "sqrt": "{} >= 0.0",
           "sin": "-_inf < {} < _inf", "cos": "-_inf < {} < _inf"}


def _sum(a, b):
    return a if b is None else b if a is None else f"({a} + {b})"


def _product(a, b):
    if a is None or b is None:
        return None
    return b if a == "1.0" else a if b == "1.0" else f"({a} * {b})"


class _PointSource:
    """The body of one function ``_point(p)`` for trees at one point.

    It mirrors :func:`evaluate` at order 0 and :func:`_evaluate_rows` at
    orders 1 and 2, operation for operation.  Derivatives are dicts of
    expressions, ``{l: d_l}`` and ``{(m, l): d_m d_l}``, None where the walk
    has None; an entry the walk would compute from structural zeros alone is
    left out.  At order 0 a node's "gradient" only marks that it has a
    variable.
    """

    def __init__(self, order: int):
        self.order = order
        self.lines: list[str] = []
        self.names = {"_f": float, "_inf": math.inf, **_CALLS[min(order, 1)]}
        self.loaded: dict[int, str] = {}

    def let(self, expr: str) -> str:
        """A name for ``expr``: a new temporary unless it is a name or 1.0."""
        if expr.isidentifier() or expr == "1.0":
            return expr
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def lets(self, d):
        return None if d is None else {k: self.let(e) for k, e in d.items()}

    def guard(self, condition: str) -> None:
        self.lines.append(f"if not {condition}: return None")

    @staticmethod
    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        return {k: _sum(a.get(k), b.get(k)) for k in sorted(a.keys() | b.keys())}

    @staticmethod
    def neg(a):
        return None if a is None else {k: f"(-{e})" for k, e in a.items()}

    @staticmethod
    def times(a, factor):
        return None if a is None else {k: _product(e, factor) for k, e in a.items()}

    @staticmethod
    def sym_outer(a, b):
        if a is None or b is None:
            return None
        keys = sorted({(i, j) for i in a for j in b} | {(j, i) for i in a for j in b})
        return {(i, j): _sum(_product(a.get(i), b.get(j)), _product(a.get(j), b.get(i)))
                for i, j in keys}

    def chain(self, d1, d2, f1, f2) -> tuple:
        grad = self.lets(self.times(d1, f1))
        if f2 is None:
            return grad, None
        scaled = self.lets(self.times(d1, f2))
        hess = {(m, l): _product(scaled[m], d1[l]) for m in scaled for l in d1}
        return grad, self.lets(self.add(hess, self.times(d2, f1)))

    def binop_jet(self, op, left, l1, l2, right, r1, r2, value) -> tuple:
        if op in "+-":
            if op == "-":
                r1, r2 = self.neg(r1), self.neg(r2)
            return self.lets(self.add(l1, r1)), self.lets(self.add(l2, r2))
        if op == "*":
            d1 = self.lets(self.add(self.times(l1, right), self.times(r1, left)))
            if self.order < 2:
                return d1, None
            d2 = self.add(self.add(self.times(l2, right), self.times(r2, left)),
                          self.sym_outer(l1, r1))
            return d1, self.lets(d2)
        inverse = self.let(f"1.0 / {right}")
        slope = self.let(f"-{value} / {right}") if r1 is not None else None
        d1 = self.lets(self.add(self.times(l1, inverse), self.times(r1, slope)))
        if self.order < 2:
            return d1, None
        d2 = self.add(self.add(l2, self.neg(self.times(r2, value))),
                      self.neg(self.sym_outer(d1, r1)))
        return d1, self.lets(self.times(d2, inverse))

    def walk(self, node) -> tuple:
        """(value, gradient, Hessian) of ``node``, as names."""
        order = self.order
        if isinstance(node, Const):
            name = f"c{len(self.names)}"
            self.names[name] = node.value
            return name, None, None
        if isinstance(node, Var):
            i = operator.index(node.index)  # nothing but an integer enters the source
            if i not in self.loaded:
                self.loaded[i] = self.let(f"_f(p[{i}])")
            return self.loaded[i], {i: "1.0"}, None
        if isinstance(node, Neg):
            v, d1, d2 = self.walk(node.child)
            value = self.let(f"-{v}")
            if d1 is None or not order:
                return value, d1, None
            return value, self.lets(self.neg(d1)), self.lets(self.neg(d2))
        if isinstance(node, BinOp):
            left, l1, l2 = self.walk(node.left)
            right, r1, r2 = self.walk(node.right)
            op = node.op if node.op in ("+", "-", "*") else "/"  # as the walkers read it
            value = self.let(f"{left} {op} {right}")
            if not order or (l1 is None and r1 is None):
                return value, l1 or r1, None
            return (value,) + self.binop_jet(op, left, l1, l2, right, r1, r2, value)
        if isinstance(node, Pow):
            base, d1, d2 = self.walk(node.base)
            k = operator.index(node.exponent)
            if not order:
                power = f"{base} ** ({k})"
                return self.let(power if d1 else f"_f({power})"), d1, None
            if k >= 2:  # |base|^k and its derivatives' powers stay below 2^1000
                bound = 2.0 ** (1000.0 / k)
                self.guard(f"{-bound!r} < {base} < {bound!r}")
            elif k < 0:  # and so do 1/|base|^-k, 1/|base|^(1-k) and 1/|base|^(2-k)
                bound = 2.0 ** (-1000.0 / (2 - k))
                self.guard(f"not {-bound!r} < {base} < {bound!r}")
            value = self.let(f"_f(_pow({base}, {k}))")
            if d1 is None or k == 0:
                return value, None, None
            if k == 1:
                return value, d1, d2
            f1 = self.let(f"{k} * _f(_pow({base}, {k - 1}))")
            f2 = self.let(f"{k * (k - 1)} * _f(_pow({base}, {k - 2}))") if order > 1 else None
            return (value,) + self.chain(d1, d2, f1, f2)
        if isinstance(node, Call) and node.func in FUNCTIONS:
            arg, d1, d2 = self.walk(node.arg)
            func = node.func
            if not order:
                return self.let(f"_{func}({arg})"), d1, None
            self.guard(_GUARDS[func].format(arg))
            value = self.let(f"_f(_{func}({arg}))")
            if d1 is None:
                return value, None, None
            if func == "exp":
                f1 = f2 = value
            elif func == "ln":
                f1 = self.let(f"1.0 / {arg}")
                f2 = self.let(f"-{f1} * {f1}")
            elif func == "sqrt":
                f1 = self.let(f"0.5 / {value}")  # 0.5 / 0 raises: no derivative at 0
                f2 = self.let(f"-0.5 * {f1} / {arg}")
            else:
                f1 = self.let(f"_f(_cos({arg}))" if func == "sin" else f"-_f(_sin({arg}))")
                f2 = self.let(f"-{value}")
            return (value,) + self.chain(d1, d2, f1, f2 if order > 1 else None)
        raise TypeError(f"not an expression node: {node!r}")


def compile_point(nodes, dim: int, order: int = 0):
    """One straight-line Python function of a point for the trees ``nodes``
    (an entry None stands for the zero function).

    At order 0 the function returns the trees' values, :func:`evaluate`'s bit
    for bit: the same :mod:`math` calls and float operations in the same
    order.  At orders 1 and 2 it returns the ``[1, c, f]`` array that
    :func:`jet_many` gives for the point as its one row: the walk's numpy
    ufuncs, called on floats, and its arithmetic in its order, leaving out
    the terms of variables a subtree does not contain, so a derivative the
    walk sums to a zero may differ in the sign of that zero.  The code checks
    nothing itself: at a domain condition, a float exception or a value or
    derivative that is not finite it hands the point to :func:`evaluate` or
    :func:`jet_many`, which return the result or raise their own error.
    Only parsed trees are compiled; constants are bound as names, and every
    node is one temporary, so deep trees do not nest.
    """
    source = _PointSource(order)
    roots = [None if n is None else source.walk(n) for n in nodes]
    if order:
        size = len(nodes)
        entries = {}  # the flat index in the [c, f] jet of each name
        for f, root in enumerate(roots):
            if root is not None:
                value, grad, hess = root
                entries[f] = value
                for l, e in (grad or {}).items():
                    entries[(1 + l) * size + f] = e
                for (m, l), e in (hess or {}).items():
                    entries[(1 + dim + m * dim + l) * size + f] = e
        index = np.array(list(entries), dtype=np.intp)
        shape = (1, (1, 1 + dim, 1 + dim + dim * dim)[order], size)
        source.names.update(_sum=sum, _isfinite=math.isfinite)
        source.lines += ["o = (" + "".join(f"{e}, " for e in entries.values()) + ")",
                         "if not _isfinite(_sum(o)): return None", "return o"]
    else:
        source.lines.append(f"return [{', '.join('0.0' if r is None else r[0] for r in roots)}]")
    text = "def _point(p):\n" + "".join(f"    {line}\n" for line in source.lines)
    names = {"__builtins__": {}, **source.names}
    exec(compile(text, "<bundleflow point program>", "exec"), names)  # noqa: S102 - generated
    point_fn = names["_point"]

    if not order:

        def values(point) -> list:
            try:
                return point_fn(point)
            except (ArithmeticError, ValueError):
                return [0.0 if n is None else evaluate(n, point) for n in nodes]

        return values

    def jet(point) -> np.ndarray:
        try:
            found = point_fn(point)
        except ArithmeticError:
            found = None
        if found is None:
            return jet_many(nodes, np.asarray(point, dtype=float)[None], order)
        out = np.zeros(shape)
        out.reshape(-1)[index] = found
        return out

    return jet


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

    __slots__ = ("ast", "dim", "source", "_const", "_point")

    def __init__(self, ast: Node, dim: int, source: str | None = None):
        self.ast = ast
        self.dim = dim
        self.source = source if source is not None else pretty(ast)
        self._const: float | None = None
        self._point = None  # compile_point's function, built on first use
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

        The tree is compiled on first use (:func:`compile_point`), and the
        value is :func:`evaluate`'s bit for bit.  Given an ``(n, dim)`` array
        instead, returns the ``n`` values at its rows from one pass of
        :func:`evaluate_many`.
        """
        if getattr(point, "ndim", 1) == 2:
            if self._const is not None:
                return np.full(len(point), self._const)
            return evaluate_many(self.ast, point)
        if self._const is not None:
            return self._const
        if self._point is None:
            self._point = compile_point([self.ast], self.dim)
        return self._point(point)[0]

    def __repr__(self) -> str:
        return f"ScalarField({self.source!r}, dim={self.dim})"
