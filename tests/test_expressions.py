import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleflow import bundle, expressions
from bundleflow.bundle import BundleSystem, make_rhs
from bundleflow.errors import EvalDomainError, ExprSyntaxError
from bundleflow.expressions import (
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    ScalarField,
    Var,
    compile_rows,
    evaluate,
    parse,
    pretty,
)
from bundleflow.geometry import FieldTensor, MetricStructure
from charts import deep_g11
from reference_walk import walk_jet, walk_values


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


def test_a_field_that_nests_too_deeply_is_a_syntax_error():
    # a sum of 1200 terms is 1201 levels deep, past the limit on a field's depth
    with pytest.raises(ExprSyntaxError, match="nests 1201 levels deep") as err:
        ScalarField.parse(" + ".join(f"x1*{k}" for k in range(1200)), 2)
    assert err.value.offset == 0
    # nesting the parser cannot follow: the offset is where it stopped
    for source in ("(" * 400 + "x1" + ")" * 400, "-" * 3000 + "x1", "exp(" * 400 + "x1" + ")" * 400):
        with pytest.raises(ExprSyntaxError, match="nests too deeply") as err:
            parse(source, 2)
        assert 0 < err.value.offset < len(source)


def _at_depth(frames: int, call):
    """``call()`` made ``frames`` frames deeper than the caller."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


def _stack_depth() -> int:
    """The number of Python frames on the stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("frames", [0, 600], ids=["shallow", "600_frames_deeper"])
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(frames):
    # each kind of level at the limit parses, and one level more fails at
    # the byte that opens it, whoever calls the parser
    limit = expressions._MAX_NESTING

    def texts(k):  # (text nesting k levels, byte that opens level k)
        return {
            "parentheses": ("(" * k + "x1" + ")" * k, k - 1),
            "calls": ("exp(" * k + "x1" + ")" * k, 4 * (k - 1)),
            "unary signs": ("-" * k + "x1", k - 1),
            "exponent parentheses": ("x1^" + "(" * k + "2" + ")" * k, 3 + k - 1),
        }

    for text, _ in texts(limit).values():
        _at_depth(frames, lambda: parse(text, 2))
    for kind, (text, byte) in texts(limit + 1).items():
        with pytest.raises(ExprSyntaxError, match="nests too deeply") as err:
            _at_depth(frames, lambda: parse(text, 2))
        assert err.value.offset == byte, kind


def test_a_field_at_the_depth_limit_builds_evaluates_and_compiles():
    levels = expressions._MAX_DEPTH
    field = ScalarField.parse(" + ".join(f"x{k % 2 + 1}*{k}" for k in range(levels - 1)), 2)
    assert expressions._depth(field.ast) == levels
    point = (0.5, -2.0)
    want = sum((point[k % 2] * k for k in range(levels - 1)), 0.0)
    assert field(point) == pytest.approx(want, rel=1e-12)
    jet = compile_rows([field.ast], 2, 2)(np.array([point]))
    assert jet[0, 0, 0] == field(point) and jet[0, 3:, 0].tolist() == [0.0] * 4
    assert ScalarField.parse(pretty(field.ast), 2)(point) == field(point)


def test_a_tree_at_the_depth_limit_hashes_and_compares_by_identity():
    text = " + ".join(f"x{k % 2 + 1}*{k}" for k in range(expressions._MAX_DEPTH - 1))
    tree = parse(text, 2)
    twin = parse(text + " ", 2)  # the same tree, parsed apart
    assert expressions._depth(tree) == expressions._MAX_DEPTH
    assert len({tree, twin, tree}) == 2 and hash(tree) == hash(tree)
    assert tree == tree and tree != twin and pretty(tree) == pretty(twin)


def test_a_node_cannot_be_changed_and_reads_back_as_its_constructor():
    tree = parse("x1 + 2", 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        tree.left = Const(1.0)
    with pytest.raises(AttributeError):
        del tree.op
    assert repr(tree) == "BinOp(op='+', left=Var(index=0), right=Const(value=2.0))"
    with pytest.raises(TypeError, match=r"^not an expression node: a ScalarField$"):
        expressions._fold(ScalarField.parse("x1", 1), lambda node, *results: node)


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


def _ast_strategy(special_constants=False):
    constants = st.floats(-3.0, 3.0, allow_nan=False).map(float)
    if special_constants:
        constants = st.one_of(constants, st.sampled_from([math.inf, -math.inf, math.nan]))
    leaves = st.one_of(st.builds(Const, constants), st.builds(Var, st.integers(0, _DIM - 1)))

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
    if math.isnan(ours) or math.isnan(theirs):  # inf - inf, say
        assert math.isnan(ours) and math.isnan(theirs)
        return
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
            compile_rows([ast], _DIM)(points)
        return
    eps = np.finfo(float).eps
    for got, (want, scale) in zip(compile_rows([ast], _DIM)(points)[:, 0, 0], scalar):
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
def test_jet_values_and_errors_are_the_order_0_programs(ast, rows):
    points = np.array(rows)
    values, error = _walk(lambda: compile_rows([ast], _DIM)(points)[:, 0, 0])
    for order in (0, 1, 2):
        jet, jet_error = _walk(lambda: compile_rows([ast], _DIM, order)(points))
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
# 1/c overflows to inf, so the value is inf - inf = NaN and the jet holds NaN
@example(
    BinOp("-", BinOp("/", Const(1.0), Const(2.2250738585e-313)),
          BinOp("/", Var(0), Const(2.2250738585e-313))),
    [1.0, 0.0, 0.0],
)
# a removable singularity: the quotient rule's terms of size 1/x and 1/x^2
# cancel to derivatives of 0, up to their roundoff
@example(BinOp("/", Var(0), Pow(BinOp("*", Const(1.5), Var(0)), 1)), [1.4366502597272176e-06, 0.0, 0.0])
@example(BinOp("/", Pow(Var(2), 3), Const(2.680118310480628e-272)), [0.0, 0.0, 2.680118310480628e-272])
@example(Pow(Call("sqrt", BinOp("-", Var(0), Var(0))), 0), [0.0, 0.0, 0.0])
@example(Call("sin", Pow(Var(0), -1)), [0.04466309843493077, 0.0, 0.0])
def test_jet_derivatives_agree_with_central_differences(ast, point):
    x = np.array(point)
    jet, error = _walk(lambda: compile_rows([ast], _DIM, 2)(x[None])[0, :, 0])
    if error is not None:
        return
    value, grad, hess = jet[0], jet[1 : 1 + _DIM], jet[1 + _DIM :].reshape(_DIM, _DIM)

    stencil, values = [], compile_rows([ast], _DIM)  # every value that the differences take

    def f(p):
        stencil.append(float(values(p[None])[0, 0, 0]))
        return stencil[-1]

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
    # numpy's max, unlike Python's, gives NaN if any entry is NaN
    scale = float(np.max(np.abs(np.concatenate(([1.0, value], grad, hess.ravel())))))
    # the differences' roundoff grows with |f| on the stencil too (x^3/c at
    # x = c takes 4e262 there, and its second differences are 0, not 6)
    if not np.isfinite(scale) or not np.max(np.abs(stencil), initial=scale) <= 1e6:
        return
    # a kink inside the stencil (sqrt(x3^2) at x3 = 1e-55) makes the second
    # differences at h and 2h disagree, and a variation on the scale of h
    # (sin(1/x1) at x1 = 0.045) the first: the differences then mean nothing
    if np.any(np.abs(h1 - h2) > 1e-2 * np.maximum(1.0, np.abs(h1))):
        return
    if np.any(np.abs(g1 - g2) > 1e-2 * np.maximum(1.0, np.abs(g1))):
        return
    eps = np.finfo(float).eps
    # roundoff of the differences is eps |f| / h and eps |f| / h^2; that of
    # the jet is eps times its largest intermediate term
    first, second = (10.0 * eps * t for t in _largest_terms(ast, x))
    assert np.all(np.abs(grad - g1) <= np.abs(g1 - g2) + 1e-9 * scale + 1e3 * eps * scale + first)
    assert np.all(np.abs(hess - h1) <= np.abs(h1 - h2) + 1e-6 * scale + 1e6 * eps * scale + second)


def _largest_terms(ast, x) -> tuple[float, float]:
    """The largest terms that the jet of ``ast`` at x sums, for its first and
    its second derivatives: every subtree's jet entries, and the quotient
    rule's inner terms (1/(1.5 + 1/x) near x = 0 sums terms of size 1/x into
    a second derivative of -3; x/(1.5 x) terms of size 1/x into a first
    derivative of 0, and 1/x^2 into a second)."""
    def jet(t):
        return walk_jet([t], x[None], 2)[0, :, 0]

    first = second = 0.0
    with np.errstate(all="ignore"):
        for t in _subtrees(ast):
            # sqrt(x1 - x1)^0 at 0: the power drops a subtree without derivatives
            subtree, error = _walk(lambda: jet(t))
            if error is not None:
                continue
            size = float(np.max(np.abs(subtree)))
            first, second = max(first, size), max(second, size)
            if isinstance(t, BinOp) and t.op == "/":
                (l, *dl), (r, *dr) = jet(t.left), jet(t.right)
                q = l / r
                l1, l2 = (np.max(np.abs(dl[a:b])) / abs(r) for a, b in ((0, _DIM), (_DIM, None)))
                r1, r2 = (np.max(np.abs(dr[a:b])) / abs(r) for a, b in ((0, _DIM), (_DIM, None)))
                # q' = (l' - q r') / r; q'' = (l'' - q r'' - q' r'^T - r' q'^T) / r
                first = max(first, l1, abs(q) * r1)
                second = max(second, first, l2, abs(q) * r2, (l1 + abs(q) * r1) * r1)
    return first, second


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
    compile_rows([tree], 2)(points)
    for order in (1, 2):
        with pytest.raises(EvalDomainError, match=r"no finite derivative where the value is \S+ at \[0\. 0\.\]"):
            compile_rows([tree], 2, order)(points)


def test_jet_of_a_product_and_a_quotient():
    # f = x1^2 x2 / (1 + x2): every rule of the walk at once
    x1, x2 = 0.7, -0.3
    jet = compile_rows([parse("x1^2*x2/(1 + x2)", 2)], 2, 2)(np.array([[x1, x2]]))[0, :, 0]
    q = x2 / (1 + x2)
    dq, ddq = 1 / (1 + x2) ** 2, -2 / (1 + x2) ** 3
    want = [x1**2 * q, 2 * x1 * q, x1**2 * dq, 2 * q, 2 * x1 * dq, 2 * x1 * dq, x1**2 * ddq]
    np.testing.assert_allclose(jet, want, rtol=1e-14)


# -- the emitter's one-point target, on which the compiled RHS is built ----------


def _point_function(trees, order: int = 0):
    """The emitter's one-point program of ``trees``, wrapped as
    ``rhs.compile_rhs`` wraps the right-hand side: where a guard fails, the
    arithmetic raises ArithmeticError or ValueError, or a jet is not
    finite, the point goes to the reference, evaluate (order 0) or the
    stack program (orders 1 and 2).  ``run(point)`` returns the values
    (order 0) or the ``[1, c, f]`` jet, and whether the program vouched for
    them itself."""
    source = expressions._Source(order, rows=False)
    entries = source.entries(trees, _DIM)
    if order:
        source.names["_isfinite"] = math.isfinite
        source.guard(f"_isfinite({' + '.join(entries.values()) or '0.0'})")
    source.lines.append(f"return {expressions._tuple(entries)}")
    program = source.define("_point", "p", source.lines)

    def run(point):
        try:
            found = program(point)
        except (ArithmeticError, ValueError):
            if not order:
                return [0.0 if t is None else evaluate(t, point) for t in trees], False
            return compile_rows(trees, _DIM, order)(np.asarray(point)[None]), False
        out = np.zeros((1, (1, 1 + _DIM, 1 + _DIM + _DIM**2)[order], len(trees)))
        for (c, f), value in zip(entries, found):
            out[0, c, f] = value
        return (list(out[0, 0]) if not order else out), True

    return run


def _outcome(fn):
    """fn() and the type and text of the error it raises, if any."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return None, (type(exc), str(exc))


def _assert_compiled_matches_the_walkers(ast, row):
    """The point program's values are evaluate's and its jets those of the
    stack program, bit for bit (a zero may differ in sign), or both raise
    the same error: where the program returns, it returns the reference's
    result, and elsewhere it hands the point over.  Any NaN
    equals any NaN: the sign of nan * nan depends on which of CPython's
    float multiplications runs, which its bytecode specialisation picks."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want, want_error = _outcome(lambda: evaluate(ast, row))
        got, got_error = _outcome(lambda: _point_function([ast])(row)[0][0])
        assert got_error == want_error
        if want_error is None:
            assert np.float64(got).tobytes() == np.float64(want).tobytes() or (
                math.isnan(got) and math.isnan(want)
            )
        for order in (1, 2):
            want, want_error = _outcome(lambda: compile_rows([ast, None], _DIM, order)(row[None]))
            got, got_error = _outcome(lambda: _point_function([ast, None], order)(row)[0])
            assert got_error == want_error
            if want_error is None:
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=400, deadline=None)
@given(_ast_strategy(special_constants=True), st.lists(_COORD, min_size=_DIM, max_size=_DIM))
def test_compiled_point_functions_are_the_walkers_bit_for_bit(ast, row):
    _assert_compiled_matches_the_walkers(ast, np.array(row))


@pytest.mark.parametrize(
    "source",
    [
        "(x1*x2 + sin(x3))*(exp(x1)*x3 - x2^2)",  # both Hessians and the cross term
        "(x1*x2 + x3)/(x1^2 + exp(x2*x3))",
        "sin(x1*x2*x3) + cos(x1 - x2*x3)",
        "ln(2 + x1^2*x2^2)*sqrt(1 + x1^2*x3^2)",
        "(2 + x1 + x2*x3)^(-3) - x1^3*x2",
    ],
)
def test_compiled_jets_are_the_walk_on_many_points(source):
    # a regrouped sum or product moves the last bit at some of these points;
    # the point program vouches for every one of them itself
    ast = parse(source, _DIM)
    points = np.random.default_rng(7).uniform(-1.5, 1.5, size=(300, _DIM))
    for order in (0, 1, 2):
        run = _point_function([ast], order)
        results = [run(p) for p in points]
        assert all(vouched for _, vouched in results)
        if not order:
            assert [got[0] for got, _ in results] == [evaluate(ast, p) for p in points]
            continue
        want = compile_rows([ast], _DIM, order)(points)
        assert np.array_equal(want, walk_jet([ast], points, order))
        assert all(np.array_equal(got[0], w) for (got, _), w in zip(results, want))


@pytest.mark.parametrize("row", [[0.3, -1.2, 2.0], [0.0, -0.0, 1.0], [800.0, 2.0, -3.0]])
def test_a_long_sum_compiles_flat(row):
    # 500 terms: one temporary per node, no nesting in the generated code
    text = " + ".join(f"{k % 7 - 3}*x{k % 3 + 1}^2*exp(x{(k + 1) % 3 + 1}/{k + 1})" for k in range(500))
    _assert_compiled_matches_the_walkers(parse(text, _DIM), np.array(row))


@pytest.mark.parametrize("rows", [False, True])
def test_an_order_2_program_writes_each_product_once(rows):
    # exp has f'' = f': the chain rule's d1 f' and d1 f'' are one product
    source = expressions._Source(2, rows)
    source.entries([parse("exp(x1*x2)", _DIM)], _DIM)
    products = [line.split(" = ", 1)[1] for line in source.lines if " = " in line]
    assert len(products) == len(set(products))


@pytest.mark.parametrize(
    "source, row",
    [
        ("ln(x1)", [0.0, 1.0, 1.0]),  # domain errors: the walkers' own messages
        ("1/(x1 - x2)", [1.0, 1.0, 1.0]),
        ("x1^(-2)", [-0.0, 1.0, 1.0]),
        ("exp(x1)*x2", [800.0, 1.0, 1.0]),
        ("x1^3", [1e200, 1.0, 1.0]),
        ("sin(x1 + x2)", [math.inf, 1.0, 1.0]),
        ("sqrt(x1*x2)", [0.0, 1.0, 1.0]),  # no derivative at 0
        ("x1*x2*x3", [1e300, 1e300, 1e-300]),  # an infinite value, no error
        ("x1 + 0*x2", [1.0, math.nan, 1.0]),
    ],
)
def test_compiled_functions_fall_back_to_the_walkers(source, row):
    _assert_compiled_matches_the_walkers(parse(source, _DIM), np.array(row))


# -- the generated stack programs against the reference walker ---------------------


def _assert_stack_program_matches_the_walker(trees, points):
    """The generated stack program raises the error
    text of the reference walker, or gives its jet: its values everywhere,
    and every derivative in each row where a tree's value is finite (a zero
    may differ in sign)."""
    for order in (0, 1, 2):
        want, want_error = _walk(lambda: walk_jet(trees, points, order))
        got, got_error = _walk(lambda: compile_rows(trees, _DIM, order)(points))
        assert got_error == want_error
        if want_error is None:
            assert got.shape == want.shape
            assert np.array_equal(got[:, 0], want[:, 0], equal_nan=True)
            finite = np.isfinite(want[:, 0])  # [row, tree]
            assert np.array_equal(got.transpose(0, 2, 1)[finite], want.transpose(0, 2, 1)[finite])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.none(), _ast_strategy(special_constants=True)), min_size=1, max_size=3),
    st.lists(st.lists(_COORD, min_size=_DIM, max_size=_DIM), min_size=1, max_size=6),
)
def test_stack_programs_are_the_reference_walk(trees, rows):
    _assert_stack_program_matches_the_walker(trees, np.array(rows))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.none(), _ast_strategy()), min_size=1, max_size=3),
    st.lists(_MODERATE, min_size=1, max_size=6),
)
def test_stack_programs_are_the_reference_walk_on_moderate_inputs(trees, rows):
    # mostly finite values, where every derivative rule is compared
    _assert_stack_program_matches_the_walker(trees, np.array(rows))


def test_beside_an_infinite_value_a_structural_zero_stays_zero():
    # u = x1 x2 = inf here, and so is u x3.  The walker's d/dx1 of u x3 is
    # x2 x3 + 0 * u, whose dense term 0 * inf is NaN; the program never
    # computes that term and gets x2 x3.  The value is not finite: no error.
    tree, points = parse("x1*x2*x3", _DIM), np.array([[1e300, 1e300, 1e-300]])
    _assert_stack_program_matches_the_walker([tree], points)
    want, got = walk_jet([tree], points, 1)[0, :, 0], compile_rows([tree], _DIM, 1)(points)[0, :, 0]
    assert np.isnan(want[1:3]).all() and want[3] == got[3] == got[0] == math.inf
    assert got[1] == got[2] == 1e300 * 1e-300


def test_the_stack_program_checks_every_row_as_evaluate_does():
    # the first row that an operation rejects raises, with evaluate's text
    points = np.array([[1.0, 2.0, 0.5], [2.0, 2.0, -1.0], [0.5, 2.0, -3.0]])
    tree = parse("x1/(x1 - x2) + ln(x3)", _DIM)
    with pytest.raises(EvalDomainError) as scalar:
        evaluate(tree, points[1])
    with pytest.raises(EvalDomainError) as stack:
        compile_rows([tree], _DIM, 2)(points)
    assert str(stack.value) == f"{scalar.value} at {points[1]}"
    assert walk_values(tree, points[[0]]).tobytes() == compile_rows([tree], _DIM)(points[[0]])[:, 0, 0].tobytes()


def test_a_field_at_the_depth_limit_builds_twice_unhashed(monkeypatch):
    # no walker hashes a node: two parses of a 599-term text build, and
    # their order-2 stack jets are the same bytes
    def unhashable(node):
        raise AssertionError(f"a {type(node).__name__} was hashed")

    for cls in (Const, Var, Neg, BinOp, Pow, Call):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    text = " + ".join(f"x{k % 2 + 1}*{k}" for k in range(expressions._MAX_DEPTH - 1))
    point = np.array([[0.5, -2.0]])
    fields = [ScalarField.parse(text, 2) for _ in range(2)]
    jets = [compile_rows([field.ast], 2, 2)(point) for field in fields]
    assert jets[0].tobytes() == jets[1].tobytes()


@pytest.mark.parametrize("frames", [0, 600, None],
                         ids=["shallow", "600_frames_deeper", "100_frames_below_the_limit"])
def test_a_field_at_the_depth_limit_evaluates_at_one_point_from_any_stack(frames):
    # every walk of a tree is a fold with its own stacks: a field at the
    # depth limit works alike whoever calls it, also from a stack 100 frames
    # short of the recursion limit, counted from the bottom of the stack
    # (the cases here pass down to 15 frames short of the limit)
    if frames is None:
        frames = sys.getrecursionlimit() - 100 - _stack_depth()
    terms = [f"x1*{k}" for k in range(expressions._MAX_DEPTH - 1)]
    field = ScalarField.parse(" + ".join(terms), 2)
    assert expressions._depth(field.ast) == expressions._MAX_DEPTH
    assert _at_depth(frames, lambda: field((0.5, 0.0))) == 89550.5
    ln = ScalarField.parse(" + ".join(terms[:-1] + ["ln(x2)"]), 2)
    assert expressions._depth(ln.ast) == expressions._MAX_DEPTH
    with pytest.raises(EvalDomainError, match=r"^ln of non-positive value 0\.0$"):
        _at_depth(frames, lambda: ln((0.5, 0.0)))
    # built from its tree alone, a field checks its depth and prints its text
    assert _at_depth(frames, lambda: ScalarField(field.ast, 2)).source == field.source
    text = _at_depth(frames, lambda: repr(field.ast))
    assert text.count("BinOp(") == 2 * len(terms) - 1
    assert text.endswith("right=BinOp(op='*', left=Var(index=0), right=Const(value=598.0)))")
    # the stack programs and a tensor's jet: x1 times 0 + 1 + ... + 598 at x1 = 0.5
    point = np.array([[0.5, 0.0]])
    want = [89550.5, 179101.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for order in range(3):
        jet = _at_depth(frames, lambda: compile_rows([field.ast], 2, order)(point))
        assert jet[0, :, 0].tolist() == want[: expressions._width(2, order)]
    tensor = FieldTensor.from_spec([[field, 0], [0, 1]], 2)
    assert _at_depth(frames, lambda: tensor.jet(point, 2))[0, :, 0, 0].tolist() == want
    # a 590-term g11 compiles into the right-hand side, which runs
    M = MetricStructure(2, [[deep_g11(590), 0], [0, 1]], [[1, 0], [0, -1]])
    system, y = BundleSystem("geodesic_tm"), (0.3, -0.2, 0.5, 0.4, -0.1, 0.7, 0.2, 0.6)
    got = np.array(_at_depth(frames, lambda: make_rhs(M, system)(0.0, y)))
    expected = bundle._reference_rhs(M, system, 0.0, np.array(y))
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(np.max(np.abs(expected)))
