from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import bundle, catalog, scenario
from bundleflow.bundle import (
    SYSTEM_KINDS,
    BundleState,
    BundleSystem,
    FPlanarCoefficients,
    FTensor,
    covariant_targets,
    make_rhs,
)
from bundleflow.errors import SingularMetricError
from bundleflow.expressions import ScalarField
from bundleflow.geometry import FieldTensor, MetricStructure
from bundleflow.integrate import IntegratorConfig, _rk4_step, integrate

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EXP2D = catalog.entry("exp2d").structure
POLY = catalog.entry("poly2d").structure
FD_EXP2D = MetricStructure(2, EXP2D.g, EXP2D.phi, chart_box=EXP2D.chart_box)
FD_DIAG4 = MetricStructure(
    4,
    [["exp(x1)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
)


def _curved():
    # the curved conformal chart CURVED of test_geometry.py: the catalog's
    # non-constant-Gamma charts are flat with R = 0 exactly
    return MetricStructure(
        2,
        [["exp(2*x1^2)", "0"], ["0", "exp(2*x1^2)"]],
        [["1", "0"], ["0", "-1"]],
        chart_box=[(-0.8, 0.8), (-0.8, 0.8)],
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


def _system(kind):
    if kind.startswith("f_planar"):
        coefficients = FPlanarCoefficients.parse("0.5 + t", "1 - t^2")
        return BundleSystem(kind, f_tensor=FTensor(is_phi=True), coefficients=coefficients)
    if kind.startswith("f_"):
        return BundleSystem(kind, f_tensor=FTensor(is_phi=True))
    return BundleSystem(kind)


@pytest.mark.parametrize(
    "M, expected",
    [(FD_EXP2D, [("g", 2)]), (FD_DIAG4, [("g", 2)]), (EXP2D, [])],
    ids=["fd_exp2d", "fd_diag4", "analytic_exp2d"],
)
@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_rhs_evaluates_christoffel_once_per_stencil_point(monkeypatch, M, expected, kind):
    # without analytic Christoffel symbols, one 2-jet of g gives g, Gamma and
    # dGamma; constant analytic Gamma needs no jet at all
    jets = []
    original = FieldTensor.jet

    def counted(self, points, order):
        jets.append(("g" if self is M.g else "other", order))
        return original(self, points, order)

    monkeypatch.setattr(FieldTensor, "jet", counted)
    rhs = make_rhs(M, _system(kind))
    y = np.linspace(0.1, 0.4, 4 * M.dim)
    out = rhs(0.0, y)
    assert np.all(np.isfinite(out))
    assert jets == expected


# -- the integrator's right-hand side ---------------------------------------------

_RHS_CHARTS = {
    "exp2d": lambda: catalog.entry("exp2d").structure,  # analytic, constant Gamma
    "poly2d": lambda: catalog.entry("poly2d").structure,  # analytic, varying Gamma
    "fd_exp2d": lambda: MetricStructure(2, EXP2D.g, EXP2D.phi, chart_box=EXP2D.chart_box),
    "const_curv": lambda: catalog.entry("const_curv(1.5)").structure,  # given R
    "curved": _curved,  # Gamma from jets of g, R varies
}
_RHS_STRUCTURES = {name: make() for name, make in _RHS_CHARTS.items()}


def _reference_rhs(M, system, t, y):
    """The right-hand side from the stacked-sample formulas: covariant_targets
    and the PointGeometry conversions."""
    x, xdot, xi, xidot = np.split(y, 4)
    geo = M.at(x)
    xi_prime = geo.to_covariant(xi, xidot, xdot)
    accel, fiber = covariant_targets(geo, system, t, xdot, xi, xi_prime)
    xddot = geo.to_coordinate(xdot, accel, xdot)
    dxi_prime = geo.to_coordinate(xi_prime, fiber, xdot)
    xiddot = geo.coordinate_rate(xi, xidot, dxi_prime, xdot, xddot)
    return np.concatenate([xdot, xddot, xidot, xiddot])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_RHS_CHARTS)),
    st.sampled_from(SYSTEM_KINDS),
    st.floats(0.0, 0.9),
    st.lists(_unit, min_size=4, max_size=4),
    _vectors(4, 3),
)
def test_rhs_equals_the_stacked_reference(chart, kind, t, fractions, vecs):
    M = _RHS_STRUCTURES[chart]
    d = M.dim
    y = np.concatenate([_point(M, fractions[:d])] + [v[:d] for v in vecs])
    system = _system(kind)
    got = make_rhs(M, system)(t, y)
    expected = _reference_rhs(M, system, t, y)
    # relative to the largest term: the reference sums the same products
    # in another order
    scale = max(float(np.max(np.abs(expected))), float(np.max(np.abs(y))))
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * scale


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
@pytest.mark.parametrize("chart", sorted(_RHS_CHARTS))
def test_rk4_step_makes_no_einsum_call(monkeypatch, chart, kind):
    M = _RHS_CHARTS[chart]()  # fresh: pieces built on first use are built here
    rhs = make_rhs(M, _system(kind))
    y = np.concatenate([M.chart_box.mean(axis=1), np.linspace(0.1, 0.4, 3 * M.dim)])

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called during an RK4 step")

    monkeypatch.setattr(np, "einsum", no_einsum)
    assert np.all(np.isfinite(_rk4_step(rhs, 0.0, y, 0.01)))


def test_unit_fiber_acceleration_drives_the_unit_bundle_integrator(monkeypatch):
    scen = scenario.load_scenario(SCENARIOS / "euclid_oblique.json", t_span=[0.0, 0.1])
    assert scen.system.kind == "geodesic_unit"

    def final():
        return integrate(scen.structure, scen.system, scen.initial, scen.integrator).state(-1).flat()

    unchanged = final()
    original = bundle.unit_fiber_acceleration
    monkeypatch.setattr(bundle, "unit_fiber_acceleration", lambda *args: -original(*args))
    assert float(np.max(np.abs(final() - unchanged))) > 1e-4


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
    np.testing.assert_array_equal(M.riemann_at(p, *vecs), got)


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
    np.testing.assert_array_equal(M.riemann_at(p, X, Y, Z), got)


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


# -- point-independent pieces, computed once per structure ---------------------------


_MAKE = {name: lambda name=name: catalog.entry(name).structure for name in catalog.entry_names()}
_MAKE["fd_exp2d"] = lambda: MetricStructure(2, EXP2D.g, EXP2D.phi, chart_box=EXP2D.chart_box)
_MAKE["fd_curved"] = _curved


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


@pytest.mark.parametrize("piece", ["g", "ginv", "dgamma", "riemann_tensor"])
def test_point_independent_pieces_are_shared_and_read_only(piece):
    M = catalog.entry("euclid_oblique").structure
    shared = getattr(M.at(np.zeros(4)), piece)
    assert getattr(M.at(np.full(4, 0.5)), piece) is shared
    with pytest.raises(ValueError):
        shared[(0,) * shared.ndim] = 1.0


def test_singular_constant_metric_raises_on_every_call():
    M = MetricStructure(2, [[1, 1], [1, 1]], [[1, 0], [0, -1]])
    for _ in range(2):
        with pytest.raises(SingularMetricError):
            M.metric_at(np.zeros(2))
        with pytest.raises(SingularMetricError):
            M.at(np.zeros(2)).ginv


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
    calls = []
    original = ScalarField.__call__

    def counted(self, point):
        calls.append(self.const_value)
        return original(self, point)

    monkeypatch.setattr(ScalarField, "__call__", counted)
    g = EXP2D.g.at((0.1, 0.2))
    assert calls == [None, None]
    np.testing.assert_array_equal(g, np.diag(np.exp([0.2, 0.4])))


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
