import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow.errors import EvalDomainError, ExprSyntaxError
from bundleflow.expressions import (
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    ScalarField,
    Var,
    evaluate,
    evaluate_many,
    jet_many,
    parse,
    pretty,
)


def test_parse_catalog_components():
    assert ScalarField.parse("exp(2*x1)", 2)((0.0, 0.0)) == pytest.approx(1.0)
    assert ScalarField.parse("1", 2)((3.0, 4.0)) == 1.0
    assert ScalarField.parse("x2/x1", 2)((2.0, 6.0)) == pytest.approx(3.0)


def test_eval_examples():
    assert evaluate(parse("exp(2*x1)", 2), (0.0, 0.0)) == pytest.approx(1.0)
    assert evaluate(parse("exp(x2 - x1)", 2), (1.0, 1.0)) == pytest.approx(1.0)
    assert evaluate(parse("x2/x1", 2), (2.0, 6.0)) == pytest.approx(3.0)


def test_aliases():
    assert evaluate(parse("x + 2*y", 2), (1.0, 3.0)) == pytest.approx(7.0)
    assert evaluate(parse("1/(t + 1)", 1), (1.0,)) == pytest.approx(0.5)


def test_precedence_and_associativity():
    assert evaluate(parse("2 + 3*4", 1), (0.0,)) == 14.0
    assert evaluate(parse("2*3^2", 1), (0.0,)) == 18.0  # ^ binds tighter than *
    assert evaluate(parse("-2^2", 1), (0.0,)) == -4.0  # ^ binds tighter than unary -
    assert evaluate(parse("8 - 4 - 2", 1), (0.0,)) == 2.0  # left associative
    assert evaluate(parse("8/4/2", 1), (0.0,)) == 1.0


def test_integer_exponent_forms():
    assert evaluate(parse("x1^2", 1), (3.0,)) == 9.0
    assert evaluate(parse("x1^(-2)", 1), (2.0,)) == 0.25
    assert evaluate(parse("x1^-2", 1), (2.0,)) == 0.25
    with pytest.raises(ExprSyntaxError):
        parse("x1^0.5", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^x1", 1)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + @", 2)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", 2)
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + 1", 2)
    with pytest.raises(ExprSyntaxError):
        parse("", 2)
    with pytest.raises(ExprSyntaxError):
        parse("   ", 2)


def test_unknown_identifiers():
    with pytest.raises(ExprSyntaxError):
        parse("z1", 2)
    with pytest.raises(ExprSyntaxError):
        parse("x3", 2)  # out of range for dim 2
    with pytest.raises(ExprSyntaxError):
        parse("tan(x1)", 2)
    # fine in a larger chart
    assert evaluate(parse("x3", 4), (0.0, 0.0, 5.0, 0.0)) == 5.0


def test_domain_errors_are_reported():
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x1)", 1), (-1.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x1)", 1), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x1)", 1), (-4.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x1", 1), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("x1^(-1)", 1), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x1)", 1), (1e5,))


@pytest.mark.parametrize("func", ["sin", "cos"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_sin_cos_of_infinity_raise_domain_error(func, x):
    field = ScalarField.parse(f"{func}(x1)", 1)
    with pytest.raises(EvalDomainError, match=f"{func} of infinite value"):
        field((x,))
    with pytest.raises(EvalDomainError, match=f"{func} of infinite value"):
        field(np.array([[0.0], [x]]))


def test_batched_call_returns_one_value_per_row():
    pts = np.array([[0.5, 2.0], [1.0, -1.0], [2.0, 0.25]])
    for source in ("x2/x1 + sin(x1)^2", "x2", "3"):
        field = ScalarField.parse(source, 2)
        values = field(pts)
        assert values.shape == (3,)
        np.testing.assert_allclose(values, [field(p) for p in pts], rtol=1e-12)
    ScalarField.parse("x2", 2)(pts)[0] = 99.0
    assert pts[0, 1] == 2.0  # the result does not alias the points


def test_batched_domain_error_keeps_the_message_and_names_the_point():
    pts = np.array([[1.0], [-0.5], [-2.0]])
    with pytest.raises(EvalDomainError) as scalar:
        evaluate(parse("ln(x1)", 1), pts[1])
    with pytest.raises(EvalDomainError) as batch:
        ScalarField.parse("ln(x1)", 1)(pts)
    assert str(batch.value) == f"{scalar.value} at {pts[1]}"


def test_constant_folding():
    f = ScalarField.parse("exp(1) + 2^3", 2)
    assert f.const_value == pytest.approx(math.e + 8.0)
    assert ScalarField.parse("x1", 2).const_value is None


# -- round trip and reference-evaluator properties ----------------------------

_DIM = 3


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Const, st.floats(-3.0, 3.0, allow_nan=False).map(float)),
        st.builds(Var, st.integers(0, _DIM - 1)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.builds(Call, st.sampled_from(("exp", "ln", "sin", "cos", "sqrt")), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_ast_strategy())
def test_pretty_parse_pretty_is_fixed_point(ast):
    text = pretty(ast)
    reparsed = parse(text, _DIM)
    assert pretty(reparsed) == text


def _reference_eval(text: str, point) -> float:
    # independent evaluator: Python's own parser and math library
    source = text.replace("^", "**").replace("ln(", "log(")
    namespace = {
        "log": math.log,
        "exp": math.exp,
        "sin": math.sin,
        "cos": math.cos,
        "sqrt": math.sqrt,
        "__builtins__": {},
    }
    namespace.update({f"x{i + 1}": float(point[i]) for i in range(len(point))})
    return float(eval(source, namespace))  # noqa: S307 - test oracle


@settings(max_examples=200, deadline=None)
@given(_ast_strategy(), st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=_DIM, max_size=_DIM))
def test_eval_matches_reference(ast, point):
    text = pretty(ast)
    try:
        ours = evaluate(parse(text, _DIM), point)
    except EvalDomainError:
        with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
            _reference_eval(text, point)
        return
    theirs = _reference_eval(text, point)
    if math.isinf(ours) or math.isinf(theirs):
        assert ours == theirs
        return
    assert abs(ours - theirs) <= 1e-15 * max(1.0, abs(ours), abs(theirs))


def test_scalar_field_is_reusable_and_immutable():
    f = ScalarField.parse("sin(x1)*cos(x2)", 2)
    pts = np.array([[0.1, 0.2], [1.0, -1.0]])
    vals = [f(p) for p in pts]
    assert vals == [f(p) for p in pts]


# numpy's exp and log differ from math's in the last bit on some inputs, so
# the batched values may differ from the scalar ones by a few roundings in
# each operation, carried through the tree by its first-order sensitivities
_ULPS = 4.0


def _value_and_error_scale(node, point) -> tuple[float, float]:
    """The scalar value at ``point`` and a bound on its change, in units of
    eps, when every operation's result is rounded once more."""
    if isinstance(node, (Const, Var)):
        return evaluate(node, point), 0.0
    if isinstance(node, Neg):
        v, e = _value_and_error_scale(node.child, point)
        return -v, e
    if isinstance(node, BinOp):
        (l, el), (r, er) = (_value_and_error_scale(n, point) for n in (node.left, node.right))
        v = evaluate(node, point)
        if node.op in "+-":
            e = el + er
        elif node.op == "*":
            e = abs(r) * el + abs(l) * er
        else:
            e = (el + abs(v) * er) / abs(r)
        return v, e + abs(v)
    if isinstance(node, Pow):
        b, eb = _value_and_error_scale(node.base, point)
        v = evaluate(node, point)
        slope = abs(node.exponent * v / b) if b else float(node.exponent == 1)
        return v, slope * eb + abs(v)
    a, ea = _value_and_error_scale(node.arg, point)
    v = evaluate(node, point)
    if node.func == "exp":
        slope = abs(v)
    elif node.func == "ln":
        slope = 1.0 / a
    elif node.func == "sqrt":
        slope = 0.5 / v if v else math.inf
    else:
        slope = 1.0
    return v, slope * ea + abs(v)


# mostly moderate coordinates, with some that make exp and powers overflow
# and infinite ones, which sin and cos reject
_COORD = st.one_of(
    st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 800.0, -800.0, math.inf, -math.inf])
)


@settings(max_examples=300, deadline=None)
@given(
    _ast_strategy(),
    st.lists(st.lists(_COORD, min_size=_DIM, max_size=_DIM), min_size=1, max_size=6),
)
def test_batched_evaluation_matches_scalar_rows(ast, rows):
    points = np.array(rows)
    scalar, raised = [], False
    for row in points:
        try:
            scalar.append(_value_and_error_scale(ast, row))
        except EvalDomainError:
            raised = True
    if raised:
        with pytest.raises(EvalDomainError):
            evaluate_many(ast, points)
        return
    eps = np.finfo(float).eps
    for got, (want, scale) in zip(evaluate_many(ast, points), scalar):
        assert got == want or (math.isnan(got) and math.isnan(want)) or (
            abs(got - want) <= _ULPS * eps * scale
        )


# -- exact derivatives: the batch walk carrying gradients and Hessians ----------


def _walk(fn):
    """fn() and the text of the EvalDomainError it raises, if any."""
    try:
        return fn(), None
    except EvalDomainError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    _ast_strategy(),
    st.lists(st.lists(_COORD, min_size=_DIM, max_size=_DIM), min_size=1, max_size=6),
)
def test_jet_values_and_errors_are_evaluate_many_s(ast, rows):
    points = np.array(rows)
    values, error = _walk(lambda: evaluate_many(ast, points))
    for order in (0, 1, 2):
        jet, jet_error = _walk(lambda: jet_many([ast], points, order))
        if error is not None:
            assert jet_error == error
        elif jet_error is not None:
            # only a derivative that is not finite where the value is
            assert order > 0 and jet_error.startswith("no finite derivative where the value is")
        else:
            assert jet.shape == (len(points), (1, 1 + _DIM, 1 + _DIM + _DIM**2)[order], 1)
            assert jet[:, 0, 0].tobytes() == values.tobytes()


def _central(f, x, h, dim=_DIM):
    """Central-difference gradient and Hessian of f at x, from f on the
    points x + h (s_i e_i + s_j e_j)."""
    eye = h * np.eye(dim)
    grad = np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in eye])
    hess = np.array(
        [[(f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b)) / (4.0 * h * h) for b in eye]
         for a in eye]
    )
    return grad, hess


_MODERATE = st.lists(st.floats(-2.0, 2.0), min_size=_DIM, max_size=_DIM)


@settings(max_examples=300, deadline=None)
@given(_ast_strategy(), _MODERATE)
def test_jet_derivatives_agree_with_central_differences(ast, point):
    x = np.array(point)
    jet, error = _walk(lambda: jet_many([ast], x[None], 2)[0, :, 0])
    if error is not None:
        return
    value, grad, hess = jet[0], jet[1 : 1 + _DIM], jet[1 + _DIM :].reshape(_DIM, _DIM)

    def f(p):
        return float(evaluate_many(ast, p[None])[0])

    # central differences at h and 2h: their gap, three times the O(h^2)
    # error at h, estimates that error; near a singularity the stencil
    # leaves the domain or the estimate is useless, and the point is skipped
    references = []
    for h in (1e-3, 2e-3):
        reference, error = _walk(lambda: _central(f, x, h))
        if error is not None:
            return
        references.append(reference)
    (g1, h1), (g2, h2) = references
    scale = max(1.0, abs(value), float(np.max(np.abs(grad))), float(np.max(np.abs(hess))))
    if not np.isfinite(scale) or scale > 1e6:
        return
    # a kink inside the stencil (sqrt(x3^2) at x3 = 1e-55) makes the second
    # differences at h and 2h disagree, and the differences mean nothing
    if np.any(np.abs(h1 - h2) > 1e-2 * np.maximum(1.0, np.abs(h1))):
        return
    eps = np.finfo(float).eps
    # roundoff of the differences is eps |f| / h and eps |f| / h^2; that of
    # the jet is eps times its largest intermediate term (1/(1.5 + 1/x) near
    # x = 0 sums terms of size 1/x into a second derivative of -3)
    subtrees = [jet_many([t], x[None], 2) for t in _subtrees(ast)]
    walk = 10.0 * eps * max(float(np.max(np.abs(j))) for j in subtrees)
    assert np.all(np.abs(grad - g1) <= np.abs(g1 - g2) + 1e-9 * scale + 1e3 * eps * scale + walk)
    assert np.all(np.abs(hess - h1) <= np.abs(h1 - h2) + 1e-6 * scale + 1e6 * eps * scale + walk)


def _subtrees(node):
    yield node
    for name in ("child", "left", "right", "base", "arg"):
        if hasattr(node, name):
            yield from _subtrees(getattr(node, name))


@pytest.mark.parametrize("source", ["sqrt(x1)", "sqrt(x1^2)", "2 + sqrt(x1*x2)"])
def test_a_derivative_that_does_not_exist_raises(source):
    # the value is fine at the origin; forward mode has no derivative there
    # (a central difference would step to -h and raise as well)
    points = np.array([[1.0, 1.0], [0.0, 0.0]])
    tree = parse(source, 2)
    jet_many([tree], points, 0)
    for order in (1, 2):
        with pytest.raises(EvalDomainError, match=r"no finite derivative where the value is \S+ at \[0\. 0\.\]"):
            jet_many([tree], points, order)


def test_jet_of_a_product_and_a_quotient():
    # f = x1^2 x2 / (1 + x2): every rule of the walk at once
    x1, x2 = 0.7, -0.3
    jet = jet_many([parse("x1^2*x2/(1 + x2)", 2)], np.array([[x1, x2]]), 2)[0, :, 0]
    q = x2 / (1 + x2)
    dq, ddq = 1 / (1 + x2) ** 2, -2 / (1 + x2) ** 3
    want = [x1**2 * q, 2 * x1 * q, x1**2 * dq, 2 * q, 2 * x1 * dq, 2 * x1 * dq, x1**2 * ddq]
    np.testing.assert_allclose(jet, want, rtol=1e-14)
