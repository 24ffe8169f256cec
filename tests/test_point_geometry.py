import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import bundle, catalog, cli, expressions, geometry, rhs as rhs_module, scenario
from bundleflow.bundle import (
    SYSTEM_KINDS,
    BundleState,
    BundleSystem,
    FPlanarCoefficients,
    FTensor,
    lorentz_force,
    make_rhs,
    normalized_unit_state,
)
from bundleflow.errors import EvalDomainError, SingularMetricError
from bundleflow.rhs import compile_rhs
from bundleflow.expressions import ScalarField
from bundleflow.geometry import FieldTensor, MetricStructure
from bundleflow.integrate import (
    IntegratorConfig,
    _rk4_step,
    _step_kernel,
    integrate,
)
import reference_step
from charts import curved, deep_g11, derived_twin, h2xh2
from test_expressions import _ast_strategy

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EXP2D = catalog.entry("exp2d").structure
POLY = catalog.entry("poly2d").structure
FD_EXP2D = derived_twin(EXP2D)
FD_DIAG4 = MetricStructure(
    4,
    [["exp(x1)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
)


_unit = st.floats(0.0, 1.0)
_component = st.floats(-2.0, 2.0)


def _point(M, fractions):
    lo, hi = M.chart_box[:, 0], M.chart_box[:, 1]
    return lo + (hi - lo) * np.asarray(fractions)


def _vectors(dim, n):
    return st.lists(
        st.lists(_component, min_size=dim, max_size=dim), min_size=n, max_size=n
    ).map(lambda rows: [np.array(r) for r in rows])


def _assert_close(a, b, *magnitudes):
    scale = max(float(np.max(np.abs(m))) for m in (a, b, *magnitudes))
    assert float(np.max(np.abs(a - b))) <= 1e-12 * max(scale, 1e-300)


# -- one geometry evaluation per RHS call ----------------------------------------


def _lorentz(M):
    # Omega_ij = 1 + x_i x_j above the diagonal, antisymmetric
    d = M.dim
    spec = [["0" if i == j else f"{'-' if i > j else ''}(1 + x{min(i, j) + 1}*x{max(i, j) + 1})"
             for j in range(d)] for i in range(d)]
    return lorentz_force(M, FieldTensor.from_spec(spec, d), strength=0.7)


def _system(kind, force="phi", M=None):
    f_tensor = _lorentz(M) if force == "lorentz" else FTensor(is_phi=True)
    if kind.startswith("f_planar"):
        coefficients = FPlanarCoefficients.parse("0.5 + t", "1 - t^2 + sin(3*t)")
        return BundleSystem(kind, f_tensor=f_tensor, coefficients=coefficients)
    if kind.startswith("f_"):
        return BundleSystem(kind, f_tensor=f_tensor)
    return BundleSystem(kind)


def _fresh(M):
    """A new structure with M's fields: nothing compiled for it yet."""
    return MetricStructure(M.dim, M.g, M.phi, christoffel=M.christoffel, riemann=M.riemann,
                           chart_box=M.chart_box)


@pytest.mark.parametrize(
    "M, expected",
    [(FD_EXP2D, 2), (FD_DIAG4, 2), (EXP2D, 0)],
    ids=["fd_exp2d", "fd_diag4", "analytic_exp2d"],
)
@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_rhs_evaluates_christoffel_once_per_stencil_point(monkeypatch, M, expected, kind):
    # the right-hand side is one program per structure and system, built by
    # the first make_rhs: without analytic Christoffel symbols it writes one
    # 2-jet of each varying g tree (g, Gamma and dGamma all come from it),
    # with constant analytic Gamma only g's values; a call evaluates no
    # field tensor and writes nothing
    M = _fresh(M)
    walks, calls, builds = [], [], []
    walk_in = expressions._Source.walk_in

    def counted_walk(self, node, order, variables):
        walks.append((node, order))
        return walk_in(self, node, order, variables)

    def counted(name):
        original = getattr(FieldTensor, name)

        def call(self, *args):
            calls.append(name)
            return original(self, *args)

        return call

    def counted_build(*args, **kwargs):
        builds.append(1)
        return compile_rhs(*args, **kwargs)

    monkeypatch.setattr(expressions._Source, "walk_in", counted_walk)
    for name in ("at", "jet"):
        monkeypatch.setattr(FieldTensor, name, counted(name))
    monkeypatch.setattr(bundle, "compile_rhs", counted_build)
    system = _system(kind)
    rhs = make_rhs(M, system)
    assert make_rhs(M, system) is rhs and builds == [1]
    g_trees = [f.ast for f in M.g.fields if f.const_value is None]
    g_walks = [(node, order) for node, order in walks if node in g_trees]
    assert sorted(g_walks, key=str) == sorted({(t, expected) for t in g_trees}, key=str)
    built, calls[:] = len(walks), []
    y = np.linspace(0.1, 0.4, 4 * M.dim)
    for t in (0.0, 0.1, 0.2):
        assert np.all(np.isfinite(rhs(t, y)))
    assert calls == [] and len(walks) == built and builds == [1]


# -- the integrator's right-hand side ---------------------------------------------


def _neutral():
    # a neutral metric with a zero diagonal: no pivot-free elimination inverts it
    return MetricStructure(2, [["0", "exp(x1)"], ["exp(x1)", "0"]], [[0, 1], [1, 0]])


def _dim6():
    # blocks {1, 2}, {3, 4, 5} (dense, varying) and {6} of g
    return MetricStructure(
        6,
        [["1", 0, 0, 0, 0, 0], [0, "exp(2*x1)", 0, 0, 0, 0],
         [0, 0, "2 + x3^2", "x4/2", 0, 0], [0, 0, "x4/2", "2", "x5/3", 0],
         [0, 0, 0, "x5/3", "3 - sin(x3)", 0], [0, 0, 0, 0, 0, "exp(x6)"]],
        [[1 if i == j else 0 for j in range(6)] for i in range(6)],
    )


def _dense4():
    # every entry of g varies: the emitter contracts dGamma and R in stages
    d = 4
    return MetricStructure(
        d,
        [[f"{2 + i} + 0.1*sin(x{i + 1}*x{i + 1})" if i == j else f"0.05*cos(x{i + 1} + x{j + 1})"
          for j in range(d)] for i in range(d)],
        [[1 if i == j else 0 for j in range(d)] for i in range(d)],
    )


_RHS_CHARTS = {
    # each built outside the entry memo: a new structure per call
    "exp2d": lambda: catalog.entry.__wrapped__("exp2d").structure,  # analytic, constant Gamma
    "poly2d": lambda: catalog.entry.__wrapped__("poly2d").structure,  # analytic, varying Gamma
    "fd_exp2d": lambda: derived_twin(EXP2D),
    "const_curv": lambda: catalog.entry.__wrapped__("const_curv(1.5)").structure,  # given R
    "curved": curved,  # Gamma from jets of g, R varies
    "h2xh2": lambda: derived_twin(h2xh2()),  # Gamma and R vary, from jets of g
    "neutral": _neutral,
    "dim6": _dim6,
    "dense4": _dense4,
}
_RHS_STRUCTURES = {name: make() for name, make in _RHS_CHARTS.items()}


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(sorted(_RHS_CHARTS)),
    st.sampled_from(SYSTEM_KINDS),
    st.sampled_from(["phi", "lorentz"]),
    st.floats(0.0, 0.9),
    st.lists(_unit, min_size=6, max_size=6),
    _vectors(6, 3),
)
def test_rhs_equals_the_stacked_reference(chart, kind, force, t, fractions, vecs):
    M = _RHS_STRUCTURES[chart]
    d = M.dim
    y = np.concatenate([_point(M, fractions[:d])] + [v[:d] for v in vecs])
    system = _system(kind, force, M)
    got = make_rhs(M, system)(t, y)
    expected = bundle._reference_rhs(M, system, t, y)
    # relative to the largest term: the reference sums the same products
    # in another order
    scale = max(float(np.max(np.abs(expected))), float(np.max(np.abs(y))))
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * scale


@pytest.mark.parametrize("force", ["phi", "lorentz"])
@pytest.mark.parametrize("kind", SYSTEM_KINDS)
@pytest.mark.parametrize("chart", sorted(_RHS_CHARTS))
def test_rhs_needs_no_reference_inside_the_chart(monkeypatch, chart, kind, force):
    # the compiled program vouches for its own result at a regular point
    M = _RHS_CHARTS[chart]()
    rhs = make_rhs(M, _system(kind, force, M))

    def no_reference(*args):
        raise AssertionError("the right-hand side fell back to its reference")

    monkeypatch.setattr(bundle, "_reference_rhs", no_reference)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = _point(M, rng.uniform(0.1, 0.9, M.dim))
        assert np.all(np.isfinite(rhs(0.3, np.concatenate([x, rng.normal(size=3 * M.dim)]))))


def test_rhs_emission_follows_the_nonzeros(monkeypatch):
    # the emitter's work, counted rather than timed.  Bounds: fd_diag4's
    # geodesic_unit program is written with at most 80 sums (395 when a sum
    # was formed for every index tuple), and the dense dim-4 geodesic_tm
    # program, contracted in stages, has at most a quarter of the 12,518
    # products of its merged monomials
    sums, programs = [], []
    total, define = rhs_module._Program.sum, expressions._Source.define

    def counted_sum(self, terms):
        sums.append(1)
        return total(self, terms)

    def kept(self, name, params, body):
        if name == "_rhs":
            programs.append("\n".join(body))
        return define(self, name, params, body)

    monkeypatch.setattr(rhs_module._Program, "sum", counted_sum)
    monkeypatch.setattr(expressions._Source, "define", kept)
    make_rhs(_fresh(FD_DIAG4), BundleSystem("geodesic_unit"))
    assert len(sums) <= 80
    make_rhs(_dense4(), BundleSystem("geodesic_tm"))
    assert programs[-1].count("*") <= 12518 // 4


def _failing(case):
    """A structure, system, time and state where the right-hand side fails,
    with the exception the stacked formulas raise there."""
    y = np.array([800.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    if case == "guard_jet":  # exp(x1) past its point guard, on a jet of g
        M = MetricStructure(2, [["exp(x1)", 0], [0, 1]], [[1, 0], [0, -1]])
        return M, BundleSystem("geodesic_unit"), 0.0, y, EvalDomainError, \
            "overflow in exp: math range error at [800.   0.]"
    if case == "guard_value":  # the same g, as values beside analytic Gamma
        M = MetricStructure(2, [["exp(x1)", 0], [0, 1]], [[1, 0], [0, -1]],
                            christoffel=[[["1/2", 0], [0, 0]], [[0, 0], [0, 0]]])
        return M, BundleSystem("geodesic_tm"), 0.0, y, EvalDomainError, \
            "overflow in exp: math range error"
    if case == "rho2":  # rho2 = 1/(t - 1) at t = 1
        scen = scenario.load_scenario(SCENARIOS / "flat_diag_hphi_planar.json")
        return scen.structure, scen.system, 1.0, scen.initial.flat(), EvalDomainError, \
            "division by zero"
    # the pole of poly2d at x1 = 0: g is singular before Gamma = 1/x1 is evaluated
    entry = catalog.entry("poly2d")
    system = BundleSystem("f_geodesic_unit", f_tensor=entry.f_tensor)
    y = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    return entry.structure, system, 0.0, y, SingularMetricError, \
        "metric singular at [0. 1.]: |det g| = 0 <= 1e-12 max|g_ij|^2 = 1e-12"


@pytest.mark.parametrize("case", ["guard_jet", "guard_value", "rho2", "poly2d_pole"])
def test_rhs_falls_back_to_the_reference_with_its_error(monkeypatch, case):
    # the messages are the ones the numpy right-hand side raised at these points
    M, system, t, y, error, message = _failing(case)
    calls = []
    reference = bundle._reference_rhs

    def counted(*args):
        calls.append(1)
        return reference(*args)

    monkeypatch.setattr(bundle, "_reference_rhs", counted)
    with pytest.raises(error) as info:
        make_rhs(M, system)(t, y)
    assert str(info.value) == message and calls == [1]


def _program_runs(monkeypatch) -> list:
    """The list that each later run of a :class:`FieldTensor` program
    appends its ``(tensor, order)`` to."""
    runs = []
    program = FieldTensor._program

    def counted(tensor, order):
        run = program(tensor, order)

        def counting(points):
            runs.append((tensor, order))
            return run(points)

        return counting

    monkeypatch.setattr(FieldTensor, "_program", counted)
    return runs


@pytest.mark.parametrize("derived", [False, True], ids=["analytic_gamma", "jet_of_g"])
def test_the_reference_rhs_runs_one_jet_for_gamma_and_dgamma(monkeypatch, derived):
    # g first, for its check, then the one jet that gives Gamma and dGamma:
    # a 1-jet of analytic Gamma, or a 2-jet of g after g's values
    M = derived_twin(h2xh2()) if derived else h2xh2()
    runs = _program_runs(monkeypatch)
    y = np.array([0.3, -0.2, 0.5, 0.4, -0.1, 0.7, 0.2, 0.6, 0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8])
    bundle._reference_rhs(M, BundleSystem("geodesic_tm"), 0.0, y)
    assert runs == ([(M.g, 0), (M.g, 2)] if derived else [(M.christoffel, 1)])


@pytest.mark.parametrize("derived", [False, True], ids=["analytic_gamma", "jet_of_g"])
def test_normalizing_the_initial_state_runs_one_program_of_g_or_gamma(monkeypatch, derived):
    # g's check first, then Gamma: the values of analytic Gamma, or a 1-jet
    # of g, which gives g and Gamma alike
    M = derived_twin(h2xh2()) if derived else h2xh2()
    runs = _program_runs(monkeypatch)
    state = BundleState(np.zeros(4), np.array([0.3, -0.2, 0.5, 0.4]), np.array([1.0, 0.0, 0.0, 0.0]),
                        np.array([0.0, 0.7, 0.2, 0.6]))
    normalized_unit_state(M, state)
    assert runs == ([(M.g, 1)] if derived else [(M.christoffel, 0)])


@pytest.mark.parametrize("analytic", [False, True], ids=["jet_of_g", "analytic_gamma"])
@pytest.mark.parametrize("terms", [500, 597])
def test_a_field_near_the_depth_limit_compiles_into_the_rhs(terms, analytic):
    # each field is written once, keyed by its source text, and walked by a
    # fold that takes no frame per level
    gamma = {"christoffel": [[[0, 0], [0, 0]]] * 2} if analytic else {}
    M = MetricStructure(2, [[deep_g11(terms), 0], [0, 1]], [[1, 0], [0, -1]], **gamma)
    assert expressions._depth(M.g.fields[0].ast) >= terms
    system = BundleSystem("geodesic_tm")
    y = np.array([0.3, -0.2, 0.5, 0.4, -0.1, 0.7, 0.2, 0.6])
    got = np.array(make_rhs(M, system)(0.0, tuple(y.tolist())))
    expected = bundle._reference_rhs(M, system, 0.0, y)
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(np.max(np.abs(expected)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the other side's
        return exc


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_RHS_CHARTS)),
    st.sampled_from(SYSTEM_KINDS),
    st.sampled_from(["phi", "lorentz"]),
    st.floats(1e-4, 4.0),
    st.floats(0.0, 0.9),
    st.lists(_unit, min_size=6, max_size=6),
    _vectors(6, 3),
)
def test_float_steps_are_the_array_steps(chart, kind, force, h, t, fractions, vecs):
    # the generated step does numpy's arithmetic on the arrays in its order:
    # equal results, NaN for NaN, and the same error where a stage fails
    # (long steps leave the chart)
    M = _RHS_STRUCTURES[chart]
    d = M.dim
    y = np.concatenate([_point(M, fractions[:d])] + [v[:d] for v in vecs])
    rhs = make_rhs(M, _system(kind, force, M))
    with np.errstate(over="ignore", invalid="ignore"):  # as integrate runs them
        want = _outcome(reference_step.rk4_step, reference_step.array_rhs(rhs), t, y, h)
        got = _outcome(_rk4_step, rhs, t, tuple(y.tolist()), h, _step_kernel(4 * d))
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert np.array_equal(np.array(got), want, equal_nan=True)


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
@pytest.mark.parametrize("chart", sorted(_RHS_CHARTS))
def test_rk4_step_makes_no_einsum_call(monkeypatch, chart, kind):
    # nor any other numpy call at a regular point: the profiler reports each
    # call of a numpy function, C or Python, and of an array's method.  (A
    # ufunc applied to a float, as the jets' exp, is not reported; the
    # program converts its result to a float.)
    M = _RHS_CHARTS[chart]()  # fresh: pieces built on first use are built here
    rhs = make_rhs(M, _system(kind))
    kernel = _step_kernel(4 * M.dim)
    y = np.concatenate([M.chart_box.mean(axis=1), np.linspace(0.1, 0.4, 3 * M.dim)])
    y = tuple(y.tolist())

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called during an RK4 step")

    monkeypatch.setattr(np, "einsum", no_einsum)
    numpy_calls = []

    def watch(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__module__", None) or type(arg.__self__).__module__
        elif event == "call":
            owner = frame.f_globals.get("__name__", "")
        else:
            return
        if owner.partition(".")[0] == "numpy":
            numpy_calls.append(arg if event == "c_call" else frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        out = _rk4_step(rhs, 0.0, y, 0.01, kernel)
    finally:
        sys.setprofile(None)
    assert numpy_calls == []
    assert type(out) is tuple and len(out) == 4 * M.dim
    assert all(type(v) is float and math.isfinite(v) for v in out)


def test_unit_fiber_acceleration_drives_the_unit_bundle_integrator():
    # the unit-bundle right-hand side is the tangent-bundle one plus the unit
    # term, as the residuals compute it, in the fiber acceleration
    scen = scenario.load_scenario(SCENARIOS / "euclid_oblique.json", t_span=[0.0, 0.1])
    assert scen.system.kind == "geodesic_unit"
    M = scen.structure
    traj = integrate(M, scen.system, scen.initial, scen.integrator)
    for i in (0, traj.n - 1):
        y = traj.state(i).flat()
        x, xdot, xi, xidot = np.split(y, 4)
        geo = M.at(x)
        term = bundle.unit_fiber_acceleration(geo.g, geo.phi, xi, geo.to_covariant(xi, xidot, xdot))
        assert float(np.max(np.abs(term))) > 1e-3
        y = tuple(y.tolist())
        gap = np.subtract(make_rhs(M, scen.system)(0.0, y),
                          make_rhs(M, BundleSystem("geodesic_tm"))(0.0, y))
        np.testing.assert_allclose(gap, np.concatenate([np.zeros(3 * M.dim), term]), rtol=0, atol=1e-14)


# -- covariant <-> coordinate conversions ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([EXP2D, POLY]),
    st.lists(_unit, min_size=2, max_size=2),
    _vectors(2, 5),
)
def test_first_and_second_order_conversions_round_trip(M, fractions, vecs):
    v, vdot, vddot, xdot, xddot = vecs
    geo = M.at(_point(M, fractions))
    v_prime = geo.to_covariant(v, vdot, xdot)
    _assert_close(geo.to_coordinate(v, v_prime, xdot), vdot, v_prime)
    rate = geo.covariant_rate(v, vdot, vddot, xdot, xddot)
    back = geo.coordinate_rate(v, vdot, rate, xdot, xddot)
    zero = np.zeros(2)
    _assert_close(
        back,
        vddot,
        rate,
        geo.covariant_rate(v, zero, zero, xdot, zero),  # the dGamma term alone
        geo.connection(v, xddot),
        geo.connection(vdot, xdot),
    )


def _textbook_riemann(M, p, X, Y, Z):
    # R(X, Y)Z^l = X^i Y^j Z^k (d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik)
    gam, dgam = M.christoffel_at(p), M.christoffel_grad_at(p)
    d = M.dim
    out = np.zeros(d)
    for l in range(d):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    r = dgam[i, l, j, k] - dgam[j, l, i, k]
                    r += sum(gam[l, i, m] * gam[m, j, k] - gam[l, j, m] * gam[m, i, k] for m in range(d))
                    out[l] += r * X[i] * Y[j] * Z[k]
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([EXP2D, POLY, FD_EXP2D]),
    st.lists(_unit, min_size=2, max_size=2),
    _vectors(2, 3),
)
def test_point_curvature_matches_textbook_formula(M, fractions, vecs):
    p = _point(M, fractions)
    expected = _textbook_riemann(M, p, *vecs)
    geo = M.at(p)
    got = geo.riemann(*vecs)
    X, Y, Z = (np.abs(v) for v in vecs)
    _assert_close(got, expected, np.einsum("lkij,i,j,k->l", np.abs(geo.riemann_tensor), X, Y, Z))
    np.testing.assert_array_equal(M.at(p).riemann(*vecs), got)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.lists(_unit, min_size=4, max_size=4), _vectors(4, 3))
def test_point_curvature_uses_override(c, fractions, vecs):
    M = catalog.entry(f"const_curv({c!r})").structure
    p = _point(M, fractions)
    X, Y, Z = vecs
    g = M.metric_at(p)
    expected = c * ((Y @ g @ Z) * X - (X @ g @ Z) * Y)
    got = M.at(p).riemann(X, Y, Z)
    _assert_close(got, expected, c * abs(Y @ g @ Z) * X, c * abs(X @ g @ Z) * Y)
    np.testing.assert_array_equal(M.at(p).riemann(X, Y, Z), got)


def test_point_geometry_evaluates_each_piece_once(monkeypatch):
    calls = []
    original = MetricStructure.metric_at

    def counted(self, point):
        calls.append(1)
        return original(self, point)

    monkeypatch.setattr(MetricStructure, "metric_at", counted)
    geo = POLY.at(np.array([1.0, 2.0]))
    assert calls == []
    assert geo.g is geo.g
    np.testing.assert_allclose(geo.ginv @ geo.g, np.eye(2), atol=1e-15)
    assert len(calls) == 1


# -- point-independent pieces and a warm structure -------------------------------


# built outside the entry memo, so that each call makes a new structure
_MAKE = {name: lambda name=name: catalog.entry.__wrapped__(name).structure
         for name in catalog.entry_names()}
_MAKE["fd_exp2d"] = lambda: derived_twin(EXP2D)
_MAKE["fd_curved"] = curved


def _pieces(geo, X, Y, Z):
    return [geo.g, geo.ginv, geo.phi, geo.gamma, geo.dgamma, geo.riemann_tensor, geo.riemann(X, Y, Z)]


def _warm(M):
    e = np.ones(M.dim)
    _pieces(M.at(M.chart_box.mean(axis=1)), e, e, e)
    return M


_WARM = {name: _warm(make()) for name, make in _MAKE.items()}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_MAKE)), st.lists(_unit, min_size=4, max_size=4), _vectors(4, 3))
def test_warm_structure_matches_a_fresh_one_bit_for_bit(name, fractions, vecs):
    warm = _WARM[name]
    d = warm.dim
    p = _point(warm, fractions[:d])
    X, Y, Z = (v[:d] for v in vecs)
    fresh = _pieces(_MAKE[name]().at(p), X, Y, Z)
    for got, expected in zip(_pieces(warm.at(p), X, Y, Z), fresh):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_given_curvature_is_one_read_only_array_at_every_point():
    M = catalog.entry("const_curv(1.5)").structure
    assert M.riemann is not None and catalog.entry("exp2d").structure.riemann is None
    with pytest.raises(ValueError):
        M.riemann[0, 0, 0, 0] = 1.0
    for x in (np.zeros(4), np.full(4, 0.5), np.full((3, 4), -0.25)):
        assert M.at(x).riemann_tensor is M.riemann


def test_singular_constant_metric_raises_on_every_call():
    M = MetricStructure(2, [[1, 1], [1, 1]], [[1, 0], [0, -1]])
    for _ in range(2):
        with pytest.raises(SingularMetricError):
            M.metric_at(np.zeros(2))
        with pytest.raises(SingularMetricError):
            M.at(np.zeros(2)).ginv


@pytest.mark.parametrize("n", [None, 1, 257])  # 257 rows leave a one-row block
def test_constant_metric_without_christoffel_has_zero_connection(n):
    M = MetricStructure(2, [[1, 0], [0, 1]], [[1, 0], [0, -1]])
    x = np.full(2, 0.3) if n is None else np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
    lead = () if n is None else (n,)
    assert np.array_equal(M.christoffel_at(x), np.zeros(lead + (2,) * 3))
    assert np.array_equal(M.christoffel_grad_at(x), np.zeros(lead + (2,) * 4))
    if n is None:
        assert np.array_equal(M.riemann_tensor_at(x), np.zeros((2,) * 4))


def test_christoffel_grad_runs_at_most_once_per_structure(monkeypatch):
    calls = []
    original = MetricStructure.christoffel_grad_at

    def counted(self, point):
        calls.append(1)
        return original(self, point)

    monkeypatch.setattr(MetricStructure, "christoffel_grad_at", counted)
    init = BundleState([0.1, 0.2], [0.3, -0.2], [0.5, 0.1], [0.0, 0.2])
    cfg = IntegratorConfig(step=0.01, t_span=(0.0, 0.1))
    traj = integrate(catalog.entry("exp2d").structure, BundleSystem("geodesic_tm"), init, cfg)
    assert traj.n == 11
    assert len(calls) <= 1


# -- field tensors -------------------------------------------------------------------


def test_field_tensor_rank_follows_nesting():
    mat = FieldTensor.from_spec([["x1", 0], [0, "x2"]], 2)
    assert mat.rank == 2 and not mat.is_constant
    np.testing.assert_allclose(mat.at((2.0, 3.0)), np.diag([2.0, 3.0]))
    arr = FieldTensor.from_spec([[[1, 0], [0, 0]], [[0, 0], [0, "x1"]]], 2)
    assert arr.rank == 3
    assert arr.at((5.0, 0.0))[1, 1, 1] == 5.0
    zeros = FieldTensor.zeros(4, 3)
    assert zeros.is_constant and zeros.at(np.zeros(4)).shape == (4, 4, 4)


def test_field_tensor_evaluates_only_its_varying_fields(monkeypatch):
    compiled, calls = [], []
    original_compile, original_call = geometry.compile_rows, ScalarField.__call__

    def counted_compile(trees, dim, order=0):
        compiled.append((list(trees), order))
        return original_compile(trees, dim, order)

    def counted_call(self, point):
        calls.append(self.const_value)
        return original_call(self, point)

    monkeypatch.setattr(geometry, "compile_rows", counted_compile)
    monkeypatch.setattr(ScalarField, "__call__", counted_call)
    g = FieldTensor(EXP2D.g.fields, 2, 2)  # fresh: nothing compiled yet
    for _ in range(2):  # one point walks evaluate: nothing is compiled
        np.testing.assert_array_equal(g.at((0.1, 0.2)), np.diag(np.exp([0.2, 0.4])))
    assert compiled == []
    # a stack: one program per order, values of the varying fields, jets of all;
    # a single row runs the same program
    stack = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.0]])
    for _ in range(2):
        np.testing.assert_array_equal(g.at(stack), [np.diag(np.exp(2 * p)) for p in stack])
        for order in (1, 2):
            np.testing.assert_array_equal(g.jet(stack, order)[:, 0], g.at(stack))
            np.testing.assert_array_equal(g.jet(stack[:1], order), g.jet(stack, order)[:1])
    varying = [f.ast for f in EXP2D.g.fields if f.const_value is None]
    trees = [None if f.const_value is not None else f.ast for f in EXP2D.g.fields]
    assert len(varying) == 2
    assert compiled == [(varying, 0), (trees, 1), (trees, 2)]
    assert calls == []


@pytest.mark.parametrize("M", [POLY, h2xh2(), derived_twin(h2xh2())], ids=["poly2d", "h2xh2", "h2xh2_fd"])
def test_an_empty_stack_gives_arrays_of_no_rows(M):
    empty = np.empty((0, M.dim))
    d = M.dim
    assert M.g.at(empty).shape == (0, d, d)
    assert M.g.jet(empty, 1).shape == (0, 1 + d, d, d)
    assert M.g.jet(empty, 2).shape == (0, 1 + d + d * d, d, d)
    assert M.metric_at(empty).shape == (0, d, d)
    assert M.at(empty).gamma.shape == (0, d, d, d)


def _pieces_by_order(M, x, order):
    """g alone (order 0), Gamma, g and g^-1 from a 1-jet (order 1), or the
    same after dGamma has filled them from a 2-jet (order 2), on a fresh
    geometry, or the error raised."""
    def read():
        geo = M.at(x)
        if order == 0:
            return (geo.g,)
        if order == 2:
            geo.dgamma  # noqa: B018 - fills every piece
        return geo.g, geo.ginv, geo.gamma
    return _outcome(read)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ast_strategy(), min_size=3, max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_each_order_gives_g_gamma_and_ginv_with_the_same_bits(trees, rows):
    # g from its values, a 1-jet or a 2-jet, and Gamma and g^-1 from a 1-jet
    # or a 2-jet: byte for byte (-0.0 included), on one row and on a stack
    # longer than a block; an order raises where a lower order does, the
    # same error where the values do
    a, b, c = (expressions.pretty(t) for t in trees)
    g = [[f"2 + ({a})", f"{c}", 0, 0], [f"{c}", f"3 + ({b})", 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    M = MetricStructure(4, g, np.diag([1, 1, -1, -1]))
    base = np.array(rows)
    stack = np.vstack([base + 0.01 * k for k in range(geometry._BLOCK // len(base) + 2)])
    for x in (base[:1], stack):
        with np.errstate(all="ignore"):
            g0, g1, g2 = (_pieces_by_order(M, x, order) for order in (0, 1, 2))
        for low, high in ((g0, g1), (g1, g2)):
            if isinstance(high, Exception):
                continue
            assert not isinstance(low, Exception)
            assert all(p.tobytes() == q.tobytes() for p, q in zip(low, high))
        if isinstance(g1, Exception):
            assert isinstance(g2, Exception)
        if isinstance(g0, EvalDomainError):
            assert str(g1) == str(g2) == str(g0)


def test_a_unit_run_compiles_the_jet_of_g_once(monkeypatch):
    # Gamma from jets of g: g and Gamma at the unit-bundle start and on the
    # whole trajectory (the final-sample check and the monitors) run one
    # order-1 program of g; nothing runs g's values program or reads dGamma
    built, original = [], expressions._Source.entries

    def counted(self, nodes, dim):
        built.append((self.order, list(nodes)))
        return original(self, nodes, dim)

    monkeypatch.setattr(expressions._Source, "entries", counted)
    g = FieldTensor(EXP2D.g.fields, 2, 2)  # fresh: nothing compiled yet
    M = MetricStructure(2, g, EXP2D.phi, chart_box=EXP2D.chart_box)
    lift = scenario.load_scenario(SCENARIOS / "exp2d_natural_lift.json")  # a unit run on exp2d
    traj = integrate(M, lift.system, lift.initial, IntegratorConfig(0.01, (0.0, 0.05)))
    traj.monitors  # noqa: B018 - read from the geometry the final-sample check filled
    assert lift.system.kind == "geodesic_unit" and traj.n == 6
    trees = [None if f.const_value is not None else f.ast for f in g.fields]
    values = [t for t in trees if t is not None]
    of_g = sorted(order for order, nodes in built if nodes in (trees, values))
    assert of_g == [1]
    assert built.count((1, trees)) == 1 and (2, trees) not in built


def test_gamma_is_read_where_only_the_2_jet_of_g_is_not_finite():
    # g11 = 1 + x1^(3/2) at x1 = 1e-300: its 1-jet is finite, and the second
    # derivative of the sqrt term overflows in its 2-jet.  Gamma and g^-1 come
    # from the 1-jet, so they are read there; dGamma and R raise
    M = MetricStructure(2, [["1 + x1*sqrt(x1)", 0], [0, 1]], [[1, 0], [0, -1]])
    x = np.array([1e-300, 0.0])
    assert M.christoffel_at(x)[0, 0, 0] == pytest.approx(0.75e-150, rel=1e-15)
    assert M.christoffel_at(x[None]).tobytes() == M.christoffel_at(x).tobytes()
    message = "no finite derivative where the value is 1.0 at [1.e-300 0.e+000]"
    for read in (M.christoffel_grad_at, M.riemann_tensor_at):
        with pytest.raises(EvalDomainError) as info:
            read(x)
        assert str(info.value) == message


def _geometry_calls(monkeypatch, tmp_path, command):
    """Run ``command`` on h2xh2_geodesic.json (1001 samples, Gamma from jets
    of g), and return its structure and the calls of g's values program
    (order 0), of every field tensor's jet and of _connection, as
    (what, order, rows, inside check_curvature_purity)."""
    calls, inside = [], []
    at, jet, connection = FieldTensor.at, FieldTensor.jet, MetricStructure._connection
    purity = cli.check_curvature_purity

    def counted_at(self, point):
        if getattr(point, "ndim", 1) == 2 and not self.is_constant:
            calls.append((self, 0, len(point), bool(inside)))
        return at(self, point)

    def counted_jet(self, points, order):
        calls.append((self, order, len(points), bool(inside)))
        return jet(self, points, order)

    def counted_connection(self, points, order=2):
        calls.append(("connection", order, len(points), bool(inside)))
        return connection(self, points, order)

    def counted_purity(*args, **kwargs):
        inside.append(1)
        try:
            return purity(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(FieldTensor, "at", counted_at)
    monkeypatch.setattr(FieldTensor, "jet", counted_jet)
    monkeypatch.setattr(MetricStructure, "_connection", counted_connection)
    monkeypatch.setattr(cli, "check_curvature_purity", counted_purity)
    path = SCENARIOS / "h2xh2_geodesic.json"
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == 0
    return scenario.load_scenario(path).structure, calls


def _rows_by_order(calls, what):
    """{order: rows} of the calls of ``what``, each order's rows summed."""
    rows: dict = {}
    for who, order, n, _ in calls:
        if who is what:
            rows[order] = rows.get(order, 0) + n
    return rows


@pytest.mark.parametrize("command", ["integrate", "frenet"])
def test_a_run_evaluates_the_geometry_of_its_samples_once(monkeypatch, tmp_path, command):
    # integrate's final-sample check fills the trajectory's geometry, which the
    # monitors (integrate) or the arc length, the jets and the Frenet frame
    # (frenet, order 3) read: one order-1 jet of g over the 1001 samples, in
    # blocks, and neither a 2-jet nor g's values program over them
    M, calls = _geometry_calls(monkeypatch, tmp_path, command)
    assert M.christoffel is None
    assert _rows_by_order(calls, M.g) == {1: 1001}
    assert _rows_by_order(calls, "connection") == {1: 1001}
    assert all(order < 2 for _, order, _, _ in calls)


def test_check_takes_the_2_jet_only_for_curvature_purity(monkeypatch, tmp_path):
    # parallel_phi reads Gamma from a 1-jet of g at 100 points; curvature
    # purity, at 20, is the one reader of dGamma, and its 2-jet fills Gamma
    M, calls = _geometry_calls(monkeypatch, tmp_path, "check")
    outside = [c for c in calls if not c[3]]
    within = [c for c in calls if c[3]]
    assert _rows_by_order(outside, M.g) == {0: 100, 1: 100}
    assert _rows_by_order(outside, "connection") == {1: 100}
    assert _rows_by_order(within, M.g) == {0: 20, 2: 20}
    assert _rows_by_order(within, "connection") == {2: 20}


def test_concurrent_first_use_gives_the_single_thread_results():
    spec = [["exp(x1)*x2", "sin(x1*x2)"], ["sin(x1*x2)", "ln(2 + x2^2)/(1 + x1^2)"]]
    point = np.array([0.3, -0.7])
    want = FieldTensor.from_spec(spec, 2)
    want = (want.at(point), want.jet(point[None], 2))
    tensor = FieldTensor.from_spec(spec, 2)  # fresh: each thread may compile it first
    barrier = threading.Barrier(4)
    results, errors = [None] * 4, []

    def work(i):
        try:
            barrier.wait(timeout=10)
            results[i] = (tensor.at(point), tensor.jet(point[None], 2))
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    for at, jet in results:
        assert at.tobytes() == want[0].tobytes() and jet.tobytes() == want[1].tobytes()


@pytest.mark.parametrize(
    "spec", [[["1", "0"], ["0"]], [["1", "0"]], [], [["1", "0"], "x"], [["1", ["0", "1"]], ["0", "1"]]]
)
def test_field_tensor_rejects_ragged_specs(spec):
    with pytest.raises(ValueError):
        FieldTensor.from_spec(spec, 2)


def test_structure_rejects_wrong_ranks():
    with pytest.raises(ValueError):
        MetricStructure(2, ["1", "1"], [["1", "0"], ["0", "-1"]])
    with pytest.raises(ValueError):
        MetricStructure(2, EXP2D.g, EXP2D.phi, christoffel=[["1", "0"], ["0", "1"]])
