"""The batch walker: an independent reference for the compiled programs.

This is forward mode written once more, as a recursive walk over numpy
arrays: every node of a tree gets its value, its dense ``(n, dim)``
gradient and ``(n, dim, dim)`` Hessian at every row at once, and combines
them by the chain, product and quotient rules.  It shares no code with
:mod:`bundleflow.expressions` beyond the tree classes and the error type,
so the tests compare the generated stack and point programs against it.

Its dense derivatives carry structural zeros (the columns of variables a
subtree does not contain); the programs leave those terms out.  The two
agree wherever a tree's value is finite; where it is not, an entry the
walker computes as 0 * inf reads NaN here and 0 in the programs.
"""

import numpy as np

from bundleflow.errors import EvalDomainError
from bundleflow.expressions import BinOp, Call, Const, Neg, Node, Pow, Var

# evaluate's messages for the OverflowError of math.exp and of float ** int
_EXP_OVERFLOW = "overflow in exp: math range error"
_POW_OVERFLOW = "overflow in power: (34, 'Numerical result out of range')"


def walk_values(node: Node, points) -> np.ndarray:
    """The values of a tree at each row of an ``(n, dim)`` array."""
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points))
    with np.errstate(all="ignore"):
        out[:] = _evaluate_rows(node, points)[0]
    return out


def walk_jet(nodes, points, order: int) -> np.ndarray:
    """The ``[n, c, f]`` jet of trees at each row, in the layout of
    :func:`bundleflow.expressions.compile_rows`, raising its errors."""
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
    to ``order``: the walk of :func:`walk_values` and :func:`walk_jet`.
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
