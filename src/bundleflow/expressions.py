"""Parsing and evaluation of scalar-field expressions on a chart.

Fields on an n-dimensional chart are written in a small infix language:

* variables ``x1 .. xn`` (aliases ``x``, ``y`` for n = 2 and ``t`` for n = 1),
* functions ``exp``, ``ln``, ``sin``, ``cos``, ``sqrt``,
* binary ``+ - * /`` (left associative) and ``^`` with integer exponents,
* unary negation, with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``.

A field's tree is at most 600 levels deep (a sum of 600 terms is about
that deep), and its text nests parentheses, calls, unary signs and exponent
parentheses at most 50 levels deep; a deeper one is an
:class:`~bundleflow.errors.ExprSyntaxError`.  :func:`parse` is one loop over
a text's tokens with two stacks, and every walk of a tree one post-order
fold with its own, so nothing here recurses: a field parses, evaluates,
prints and compiles alike whoever calls it.

:func:`evaluate` walks a tree at one point in plain floats: a field, or a
tensor but for g on a chart without analytic Christoffel symbols (a one-row
stack there).  It is the reference of every other evaluation, which raises
its :class:`~bundleflow.errors.EvalDomainError` on the same inputs.  Stacks
of points, a single row included, run generated code: :func:`compile_rows`
turns a list of trees into one straight-line Python function of the
``(n,)`` columns of an ``(n, dim)`` stack, one temporary per node.  Up to
order 2 it also writes exact derivatives by forward mode, each node's
value, gradient and Hessian from its children's by the chain, product and
quotient rules: a source transformation (Griewank & Walther, *Evaluating
Derivatives*, ch. 13), done once per tree, and no derivative tree is ever
built.  This is how the geometry differentiates g and analytic Christoffel
symbols.  The stack program checks every row as :func:`evaluate` does and
raises its error with the first bad row.

The emitter has a second target, one point in plain floats, with no error
text: at a domain condition it raises ``ArithmeticError``.  The integrator's
compiled right-hand side (:mod:`bundleflow.rhs`) is the one program written
for it, and its one ``except`` tail turns that error into a call of the
reference right-hand side.

Each call of :func:`parse` builds a tree of its own, and each generated
program is compiled afresh into a function with its own globals.  Nothing
here is memoized: the definitions that hold fields and programs (catalog
entries, inline manifolds, coefficient pairs, family jets) are built once
per process, keyed by their text, so a repeated command parses and
compiles nothing but what a scenario's own system-level F builds.

Parsed trees are immutable: a node's constructor sets its fields, and
assigning to one raises ``AttributeError``.  Nodes compare and hash by
identity, so a tree of any depth can be a key.  A compiled function is a
pure function of its points, so a :class:`ScalarField` may be evaluated
concurrently from several threads.  Two threads that use a field's stack
program first at the same time may both compile it; each gets a function of
the same text.
"""

from __future__ import annotations

import math
import operator
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
    "compile_rows",
    "pretty",
    "FUNCTIONS",
]

FUNCTIONS = ("cos", "exp", "ln", "sin", "sqrt")

# Accepted short names per chart dimension, mapped to 0-based indices.
_ALIASES = {1: {"t": 0}, 2: {"x": 0, "y": 1}}

# The deepest tree a field may have, a bound on scenario input checked when a
# field is built: a sum of 600 terms is about that deep.
_MAX_DEPTH = 600

# The deepest nesting a field's text may have, a bound on scenario input
# checked at the byte that opens each level: open parentheses, calls, unary
# signs and exponent parentheses, counted together.
_MAX_NESTING = 50


_set = object.__setattr__


class _Frozen:
    """A record whose ``__init__`` sets each field once, with ``_set``:
    assigning to a field, or deleting one, raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # a tree's by a fold, so that one of any depth prints
        return _fold(self, _text) if type(self) in _CHILDREN else _text(self)


class Const(_Frozen):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(_Frozen):
    __slots__ = ("index",)  # 0-based coordinate index

    def __init__(self, index: int):
        _set(self, "index", index)


class Neg(_Frozen):
    __slots__ = ("child",)

    def __init__(self, child: Node):
        _set(self, "child", child)


class BinOp(_Frozen):
    __slots__ = ("op", "left", "right")  # op: one of + - * /

    def __init__(self, op: str, left: Node, right: Node):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(_Frozen):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(_Frozen):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Node):
        _set(self, "func", func)
        _set(self, "arg", arg)


Node = Union[Const, Var, Neg, BinOp, Pow, Call]
# The fields of each kind of node that hold its children, in the order a fold visits them.
_CHILDREN = {Const: (), Var: (), Neg: ("child",), BinOp: ("left", "right"), Pow: ("base",), Call: ("arg",)}


def _fold(tree: Node, visit):
    """``visit(node, *results)`` at each node of ``tree``, ``results`` those of
    its children, visited first, left to right: the root's result.  The nodes
    to visit wait on a stack, each under its children and a mark of how many
    results it takes, so the fold takes no frame per level; it hashes no node."""
    todo, results, one, two = [tree], [], object(), object()
    while todo:
        node = todo.pop()
        if node is two:
            right = results.pop()
            results[-1] = visit(todo.pop(), results[-1], right)
        elif node is one:
            results[-1] = visit(todo.pop(), results[-1])
        elif (children := _CHILDREN.get(type(node))) is None:
            raise TypeError(f"not an expression node: a {type(node).__name__}")
        elif not children:
            results.append(visit(node))
        elif len(children) == 1:
            todo += (node, one, getattr(node, children[0]))
        else:
            todo += (node, two, getattr(node, children[1]), getattr(node, children[0]))
    return results[0]


def _text(record, *children) -> str:
    """A record's repr, ``Kind(field=value, ...)``; a node's child fields show ``children``."""
    shown = dict(zip(_CHILDREN.get(type(record), ()), children))
    fields = (f"{k}={shown[k] if k in shown else repr(getattr(record, k))}" for k in record.__slots__)
    return f"{type(record).__name__}({', '.join(fields)})"


class _Token:
    __slots__ = ("kind", "text", "pos")  # kind: num | ident | op | end

    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


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


# How tightly each waiting operator binds; "neg" is a unary sign.  A
# parenthesis, "(", or a call, its function's name, waits for its ")".
_BINDS = {"+": 0, "-": 0, "*": 1, "/": 1, "neg": 2}


def _deeper(levels: int, pos: int) -> int:
    """One level more than ``levels``, a level opened at byte ``pos``."""
    if levels == _MAX_NESTING:
        raise ExprSyntaxError(
            f"expression nests too deeply: more than {_MAX_NESTING} levels of"
            " parentheses, calls or signs", pos)
    return levels + 1


def parse(source: str, dim: int) -> Node:
    """Parse ``source`` into an immutable expression tree for a dim-chart.

    One loop over the tokens, with the operands and the waiting operators
    on two stacks (Dijkstra's shunting yard): a binary operator first
    applies every waiting one that binds at least as tightly, and ``^``
    takes its integer literal at once, so it binds tightest.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    if dim < 1:
        raise ValueError(f"chart dimension must be >= 1, got {dim}")
    tokens = _tokenize(source)
    values: list[Node] = []
    ops: list[str] = []
    levels, i, operand = 0, 0, True  # operand: the next token starts one
    while True:
        tok = tokens[i]
        kind, text = tok.kind, tok.text
        i += 1
        if operand:
            if kind == "num":
                values.append(Const(float(text)))
                operand = False
                continue
            if kind == "ident" and tokens[i].text != "(":
                values.append(Var(_variable_index(text, dim, tok.pos)))
                operand = False
                continue
            if kind == "ident":  # a call
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", tok.pos)
                i += 1
            elif text == "-":
                text = "neg"
            elif text != "(":
                raise ExprSyntaxError(
                    f"expected a value, got {text!r}" if text else "unexpected end of input",
                    tok.pos,
                )
            levels = _deeper(levels, tok.pos)
            ops.append(text)
        elif text == "^":  # the grammar deliberately restricts ^ to literal integer exponents
            opened = 0
            while tokens[i].text == "(":
                levels = _deeper(levels, tokens[i].pos)
                opened, i = opened + 1, i + 1
            sign = 1
            while tokens[i].text == "-":
                sign, i = -sign, i + 1
            tok = tokens[i]
            if tok.kind != "num" or not (value := float(tok.text)).is_integer():
                raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
            i += 1
            for _ in range(opened):
                if tokens[i].text != ")":
                    raise ExprSyntaxError("expected ')'", tokens[i].pos)
                i += 1
            levels -= opened
            values[-1] = Pow(values[-1], sign * int(value))
        else:
            # apply the waiting operators that bind at least as tightly as
            # this one, or all that wait inside the innermost level
            binds = _BINDS.get(text, -1) if kind == "op" else -1
            while ops and _BINDS.get(ops[-1], -1) >= max(binds, 0):
                op = ops.pop()
                if op == "neg":
                    values[-1] = Neg(values[-1])
                    levels -= 1
                else:
                    right = values.pop()
                    values[-1] = BinOp(op, values[-1], right)
            if binds >= 0:
                ops.append(text)
                operand = True
            elif ops:  # a parenthesis or a call is open
                if text != ")":
                    raise ExprSyntaxError("expected ')'", tok.pos)
                opener = ops.pop()
                levels -= 1
                if opener != "(":
                    values[-1] = Call(opener, values[-1])
            elif kind == "end":
                return values[0]
            else:
                raise ExprSyntaxError(f"unexpected trailing input {text!r}", tok.pos)


def _depth(node: Node) -> int:
    """The number of levels of a tree."""
    return _fold(node, lambda node, a=0, b=0: 1 + max(a, b))


def evaluate(node: Node, point) -> float:
    """Evaluate an expression tree at a coordinate point.

    Domain violations (log of a non-positive value, square root of a
    negative value, division by zero, overflow, sine or cosine of an
    infinite value) raise :class:`~bundleflow.errors.EvalDomainError`
    instead of yielding NaN/inf.
    """
    def value(node, x=None, y=None):
        kind = type(node)
        if kind is Const:
            return node.value
        if kind is Var:
            return float(point[node.index])
        if kind is Neg:
            return -x
        if kind is not BinOp:
            return _unary(node.exponent if kind is Pow else node.func, x)
        if node.op == "+":
            return x + y
        if node.op == "-":
            return x - y
        if node.op == "*":
            return x * y
        if y == 0.0:
            raise EvalDomainError("division by zero")
        return x / y

    return _fold(node, value)


def _unary(op, arg: float) -> float:
    """A power (``op`` its integer exponent) or a call."""
    if type(op) is int:
        if arg == 0.0 and op < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return float(arg**op)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in power: {exc}") from None
    try:
        if op == "exp":
            return math.exp(arg)
        if op == "ln":
            if arg <= 0.0:
                raise EvalDomainError(f"ln of non-positive value {arg}")
            return math.log(arg)
        if op == "sqrt":
            if arg < 0.0:
                raise EvalDomainError(f"sqrt of negative value {arg}")
            return math.sqrt(arg)
        if math.isinf(arg):  # math.sin/cos raise a bare ValueError there
            raise EvalDomainError(f"{op} of infinite value {arg}")
        if op == "sin":
            return math.sin(arg)
        if op == "cos":
            return math.cos(arg)
    except OverflowError as exc:
        raise EvalDomainError(f"overflow in {op}: {exc}") from None
    raise TypeError(f"not an expression operation: {op!r}")


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


# -- straight-line programs: one emitter, two targets ---------------------------

# what the generated code calls: math for values at one point (evaluate's
# functions), numpy for jets at one point (ufuncs on floats) and on stacks;
# the names differ, so that one function may hold values and jets
_MATH = {"_m_exp": math.exp, "_m_ln": math.log, "_m_sqrt": math.sqrt, "_m_sin": math.sin,
         "_m_cos": math.cos}
_UFUNCS = {"_exp": np.exp, "_ln": np.log, "_sqrt": np.sqrt, "_sin": np.sin, "_cos": np.cos,
           "_pow": np.float_power, "_check_rows": _check_rows, "_no_overflow": _no_overflow,
           "_equal": np.equal, "_less": np.less, "_less_equal": np.less_equal, "_isinf": np.isinf}
# at one point, the arguments a ufunc takes without a floating-point warning;
# the stack program takes the others.  Powers get a bound on |base| from their
# exponents (below).
_GUARDS = {"exp": "{} < 709.0", "ln": "{} > 0.0", "sqrt": "{} >= 0.0",
           "sin": "-_inf < {} < _inf", "cos": "-_inf < {} < _inf"}
# on a stack, the operands evaluate rejects and its messages (a negative
# power rejects a zero base); then exp and powers reject an infinite result
# from a finite operand with the message of their OverflowError
_CHECKS = {"/": ("_equal({}, 0.0)", "division by zero"),
           "pow": ("_equal({}, 0.0)", "zero raised to a negative power"),
           "ln": ("_less_equal({}, 0.0)", "ln of non-positive value {}"),
           "sqrt": ("_less({}, 0.0)", "sqrt of negative value {}"),
           "sin": ("_isinf({})", "sin of infinite value {}"),
           "cos": ("_isinf({})", "cos of infinite value {}")}
_OVERFLOW = {"exp": "overflow in exp: math range error",
             "pow": "overflow in power: (34, 'Numerical result out of range')"}


def _sum(a, b):
    return a if b is None else b if a is None else f"({a} + {b})"


def _product(a, b):
    if a is None or b is None:
        return None
    return b if a == "1.0" else a if b == "1.0" else f"({a} * {b})"


class _Source:
    """The body of one generated function of ``p`` for trees: at one point
    ``p``, or with ``rows`` on the ``(n,)`` columns of an ``(n, dim)`` stack.

    At one point and order 0 it follows :func:`evaluate` operation for
    operation; otherwise both targets do forward mode with numpy's ufuncs,
    the same arithmetic in the same order.  Derivatives are dicts of
    expressions, ``{l: d_l}`` and ``{(m, l): d_m d_l}``, None where the
    subtree has no variable or beyond the order; a term of a variable the
    subtree does not contain is left out.  At one point and order 0 a
    node's "gradient" only marks that it has a variable.  A failed guard of
    the point target raises ArithmeticError, for the caller of the program
    to catch.
    """

    def __init__(self, order: int, rows: bool):
        self.order, self.rows = order, rows
        self.lines: list[str] = []
        self.names = {"_f": float, "_inf": math.inf, **_MATH, **_UFUNCS}
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
        self.lines.append(f"if not {condition}: raise ArithmeticError")

    def check(self, op: str, operand: str) -> None:
        rejects, message = _CHECKS[op]
        self.lines.append(f"_check_rows({rejects.format(operand)}, {operand}, p, {message!r})")

    def ufunc(self, expr: str) -> str:
        """A ufunc's result: a float at one point, a column on a stack."""
        return expr if self.rows else f"_f({expr})"

    def apply(self, func: str, arg: str, k: int = 0) -> str:
        """The name of ``func(arg)``, or ``arg^k`` for "pow", after the
        target's handling of the domain: at one point a guard, on a stack
        the checks of :func:`evaluate` on every row."""
        call = f"_pow({arg}, {k})" if func == "pow" else f"_{func}({arg})"
        if not self.rows:
            if func != "pow":
                self.guard(_GUARDS[func].format(arg))
            elif k >= 2:  # |base|^k and its derivatives' powers stay below 2^1000
                bound = 2.0 ** (1000.0 / k)
                self.guard(f"{-bound!r} < {arg} < {bound!r}")
            elif k < 0:  # and so do 1/|base|^-k, 1/|base|^(1-k) and 1/|base|^(2-k)
                bound = 2.0 ** (-1000.0 / (2 - k))
                self.guard(f"not {-bound!r} < {arg} < {bound!r}")
            return self.let(f"_f({call})")
        if func in _CHECKS and (func != "pow" or k < 0):
            self.check(func, arg)
        if func in _OVERFLOW:
            call = f"_no_overflow({call}, {arg}, p, {_OVERFLOW[func]!r})"
        return self.let(call)

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
        """a b^T + b a^T, for two gradients."""
        if a is None or b is None:
            return None
        keys = sorted({(i, j) for i in a for j in b} | {(j, i) for i in a for j in b})
        return {(i, j): _sum(_product(a.get(i), b.get(j)), _product(a.get(j), b.get(i)))
                for i, j in keys}

    def chain(self, d1, d2, f1, f2) -> tuple:
        """The derivatives of f(u) from u's (d1, d2) and f', f'' at u."""
        grad = self.lets(self.times(d1, f1))
        if f2 is None:
            return grad, None
        scaled = grad if f2 == f1 else self.lets(self.times(d1, f2))  # f'' = f' for exp
        hess = {(m, l): _product(scaled[m], d1[l]) for m in scaled for l in d1}
        return grad, self.lets(self.add(hess, self.times(d2, f1)))

    def binop_jet(self, op, left, l1, l2, right, r1, r2, value) -> tuple:
        """The derivatives of ``value = left op right`` from its operands'."""
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
        # q = l / r: q' = (l' - q r') / r and q'' = (l'' - q r'' - q' r'^T - r' q'^T) / r
        inverse = self.let(f"1.0 / {right}")
        slope = self.let(f"-{value} / {right}") if r1 is not None else None
        d1 = self.lets(self.add(self.times(l1, inverse), self.times(r1, slope)))
        if self.order < 2:
            return d1, None
        d2 = self.add(self.add(l2, self.neg(self.times(r2, value))),
                      self.neg(self.sym_outer(d1, r1)))
        return d1, self.lets(self.times(d2, inverse))

    def visit(self, node, *operands) -> tuple:
        """(value, gradient, Hessian) of ``node`` as names, from its operands'."""
        order, rows = self.order, self.rows
        if isinstance(node, Const):
            name = f"c{len(self.names)}"
            self.names[name] = node.value
            return name, None, None
        if isinstance(node, Var):
            i = operator.index(node.index)  # nothing but an integer enters the source
            if i not in self.loaded:
                self.loaded[i] = self.let(f"p[:, {i}]" if rows else f"_f(p[{i}])")
            return self.loaded[i], {i: "1.0"}, None
        if isinstance(node, Neg):
            (v, d1, d2), = operands
            value = self.let(f"-{v}")
            if d1 is None or not order:
                return value, d1, None
            return value, self.lets(self.neg(d1)), self.lets(self.neg(d2))
        if isinstance(node, BinOp):
            (left, l1, l2), (right, r1, r2) = operands
            op = node.op if node.op in ("+", "-", "*") else "/"  # as evaluate reads it
            if op == "/" and rows:
                self.check(op, right)
            value = self.let(f"{left} {op} {right}")
            if not order or (l1 is None and r1 is None):
                return value, l1 or r1, None
            return (value,) + self.binop_jet(op, left, l1, l2, right, r1, r2, value)
        if isinstance(node, Pow):
            (base, d1, d2), = operands
            k = operator.index(node.exponent)
            if not (order or rows):
                power = f"{base} ** ({k})"
                return self.let(power if d1 else f"_f({power})"), d1, None
            # float_power calls libm's pow, as float ** int does; power does not
            value = self.apply("pow", base, k)
            if not order or d1 is None or k == 0:
                return value, None, None
            if k == 1:  # the base's own jet; the rule below would take 1/base, infinite at 0
                return value, d1, d2
            f1 = self.let(f"{k} * {self.ufunc(f'_pow({base}, {k - 1})')}")
            f2 = None
            if order > 1:
                f2 = self.let(f"{k * (k - 1)} * {self.ufunc(f'_pow({base}, {k - 2})')}")
            return (value,) + self.chain(d1, d2, f1, f2)
        if isinstance(node, Call) and node.func in FUNCTIONS:
            (arg, d1, d2), = operands
            func = node.func
            if not (order or rows):
                return self.let(f"_m_{func}({arg})"), d1, None
            value = self.apply(func, arg)
            if not order or d1 is None:
                return value, None, None
            if func == "exp":
                f1 = f2 = value
            elif func == "ln":
                f1 = self.let(f"1.0 / {arg}")
                f2 = self.let(f"-{f1} * {f1}")
            elif func == "sqrt":
                f1 = self.let(f"0.5 / {value}")  # infinite at 0: no derivative there
                f2 = self.let(f"-0.5 * {f1} / {arg}")
            else:
                f1 = self.let(self.ufunc(f"_cos({arg})") if func == "sin"
                              else "-" + self.ufunc(f"_sin({arg})"))
                f2 = self.let(f"-{value}")
            return (value,) + self.chain(d1, d2, f1, f2 if order > 1 else None)
        raise TypeError(f"not an expression node: {node!r}")

    def walk_in(self, node, order: int, variables) -> tuple:
        """The walk of ``node`` at ``order``, its variables bound to the names
        ``variables``: one function may hold trees at several orders and on
        several charts, such as fields in x and coefficients in t."""
        saved = self.order, self.loaded
        self.order, self.loaded = order, dict(enumerate(variables))
        try:
            return _fold(node, self.visit)
        finally:
            self.order, self.loaded = saved

    def entries(self, nodes, dim: int) -> dict:
        """Walk ``nodes``: the name of each nonzero entry of their jet, by
        its ``(c, f)`` position in the ``[c, f]`` layout of :func:`compile_rows`."""
        entries = {}
        for f, node in enumerate(nodes):
            if node is None:
                continue
            value, grad, hess = _fold(node, self.visit)
            entries[0, f] = value
            if self.order:
                for l, e in (grad or {}).items():
                    entries[1 + l, f] = e
                for (m, l), e in (hess or {}).items():
                    entries[1 + dim + m * dim + l, f] = e
        return entries

    def define(self, name: str, params: str, body) -> object:
        """The generated function ``name(params)`` with the lines ``body``."""
        text = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
        names = {"__builtins__": {"ArithmeticError": ArithmeticError}, **self.names}
        code = compile(text, f"<bundleflow {name} program>", "exec")
        exec(code, names)  # noqa: S102 - generated
        return names[name]


def _tuple(entries: dict) -> str:
    """The source of a tuple of the entries' names, in their order; the
    callers scatter it into the jet by the entries' positions."""
    return "(" + "".join(f"{e}, " for e in entries.values()) + ")"


def _width(dim: int, order: int) -> int:
    """The number of Taylor coefficients up to ``order`` on a dim-chart."""
    return (1, 1 + dim, 1 + dim + dim * dim)[order]


def compile_rows(nodes, dim: int, order: int = 0):
    """One straight-line Python function of an ``(n, dim)`` stack for the
    trees ``nodes`` (an entry None stands for the zero function): their
    Taylor coefficients at each row, one array ``[n, c, f]`` with ``c = 0``
    the value, ``c = 1 + l`` the derivative d_l (order >= 1) and
    ``c = 1 + dim + m dim + l`` the derivative d_m d_l (order 2).  The
    derivatives are those of the evaluation itself, with no step size.  A
    term of a variable that a subtree does not contain is never computed,
    so beside a value that is not finite a derivative may be 0 where
    forward mode on dense gradients has 0 * inf.

    The values follow :func:`evaluate` up to the last-digit differences
    between numpy's ufuncs and :mod:`math`.  In place of the point target's
    guards the program checks every row as :func:`evaluate` does: the first
    operation that rejects a row raises evaluate's
    :class:`~bundleflow.errors.EvalDomainError`, its text followed by the
    first such row.  At orders 1 and 2 a last check names the first row
    where a tree's value is finite but a derivative is not (``sqrt`` at 0).

    Near a removable singularity of an expression the derivatives lose
    accuracy, and nothing raises: at x = 2.220446049250313e-16,
    ``1/(1.5 + 1/x)`` gets d²f/dx² = -4 against the exact -3, because the
    jet adds two terms of size 2/x ≈ 9e15.  Written in its cancelled form,
    ``x/(1.5 x + 1)``, the field gets -3.
    """
    source = _Source(order, rows=True)
    entries = source.entries(nodes, dim)
    # most stack programs run once or twice, so compiling is their main
    # cost: the program returns its entries, the shortest source, and an
    # all-zero jet compiles nothing
    source.lines.append(f"return {_tuple(entries)}")
    program = source.define("_rows", "p", source.lines) if entries else lambda p: ()
    index = [c * len(nodes) + f for c, f in entries]
    shape = (_width(dim, order), len(nodes))

    def jet(points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            found = program(points)
        out = np.zeros((len(points),) + shape)
        flat = out.reshape(len(points), shape[0] * shape[1])
        for k, column in zip(index, found):
            flat[:, k] = column
        if order and not np.isfinite(out[:, 1:]).all():
            for f in range(len(nodes)):
                bad = np.isfinite(out[:, 0, f]) & ~np.isfinite(out[:, 1:, f]).all(axis=1)
                _check_rows(bad, out[:, 0, f], points, "no finite derivative where the value is {}")
        return out

    return jet


# Precedence levels used by the printer; mirrors the parser.
_ADD, _MUL, _UNARY, _POW, _ATOM = 0, 1, 2, 3, 4


def _render(node: Node, *operands) -> tuple[str, int]:
    if isinstance(node, Const):
        text = f"{node.value:.17g}"
        return text, (_UNARY if text.startswith("-") else _ATOM)
    if isinstance(node, Var):
        return f"x{node.index + 1}", _ATOM
    if isinstance(node, Call):
        return f"{node.func}({operands[0][0]})", _ATOM
    if isinstance(node, Pow):
        base, lvl = operands[0]
        if lvl < _ATOM:
            base = f"({base})"
        exp = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        return f"{base}^{exp}", _POW
    if isinstance(node, Neg):
        child, lvl = operands[0]
        if lvl < _POW:
            child = f"({child})"
        return f"-{child}", _UNARY
    own = _ADD if node.op in "+-" else _MUL
    (left, llvl), (right, rlvl) = operands
    if llvl < own:
        left = f"({left})"
    if rlvl <= own:
        right = f"({right})"
    sep = f" {node.op} " if node.op in "+-" else node.op
    return f"{left}{sep}{right}", own


def pretty(node: Node) -> str:
    """Render a tree to canonical text; a fixed point of parse-then-print."""
    return _fold(node, _render)[0]


class ScalarField:
    """A point-evaluable real function on a chart, backed by a parsed tree.

    Constant expressions are folded once so that repeated evaluation of
    catalog structures with constant components stays cheap.
    """

    __slots__ = ("ast", "dim", "source", "_const", "_rows")

    def __init__(self, ast: Node, dim: int, source: str | None = None):
        # each level of a parsed tree takes at least one character of its source
        if source is None or len(source) > _MAX_DEPTH:
            levels = _depth(ast)
            if levels > _MAX_DEPTH:
                raise ExprSyntaxError(
                    f"expression nests {levels} levels deep, more than the {_MAX_DEPTH} supported", 0)
        self.ast = ast
        self.dim = dim
        self.source = source if source is not None else pretty(ast)
        self._const: float | None = None
        self._rows = None  # the stack program, compiled on first use
        try:  # a variable indexes the empty point; a domain error surfaces at use
            self._const = evaluate(ast, ())
        except (EvalDomainError, IndexError):
            pass

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
        """The value at one point, a sequence of ``dim`` coordinates, by
        :func:`evaluate`.  Given an ``(n, dim)`` array instead, the ``n``
        values at its rows, from the stack program (:func:`compile_rows`),
        compiled on first use.
        """
        if getattr(point, "ndim", 1) == 2:
            if self._const is not None:
                return np.full(len(point), self._const)
            if self._rows is None:
                self._rows = compile_rows([self.ast], self.dim)
            return self._rows(point)[:, 0, 0]
        if self._const is not None:
            return self._const
        return evaluate(self.ast, point)

    def __repr__(self) -> str:
        return f"ScalarField({self.source!r}, dim={self.dim})"
