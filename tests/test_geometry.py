import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import catalog, geometry
from bundleflow.bundle import (
    BundleState, BundleSystem, covariant_targets, geodesic_residual, phi_mirror
)
from bundleflow.errors import EvalDomainError, SingularMetricError
from bundleflow.geometry import (
    CurvatureOperator,
    MetricStructure,
    check_curvature_purity,
    check_norden,
    check_parallel_phi,
    curvature_power,
    curvature_power_closed,
    sample_chart_points,
)
from bundleflow.integrate import IntegratorConfig, compute_monitors, integrate
from charts import curved, derived_twin, h2xh2

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EXP2D = catalog.entry("exp2d").structure
FLAT = catalog.entry("flat_diag").structure
POLY = catalog.entry("poly2d").structure


# -- metric and twin metric ----------------------------------------------------


def test_metric_values():
    np.testing.assert_allclose(EXP2D.metric_at((0.0, 0.0)), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(FLAT.metric_at((0.7, -0.3)), np.eye(2))
    np.testing.assert_allclose(
        POLY.metric_at((2.0, 3.0)), np.diag([4.0, 9.0]), atol=1e-15
    )


def test_singular_metric_raises():
    M = MetricStructure(2, [["x1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    with pytest.raises(SingularMetricError):
        M.metric_at((0.0, 0.5))


_EXP2D_G = [["exp(2*x1)", "0"], ["0", "exp(2*x2)"]]
_EXP2D_PHI = [["0", "exp(x2 - x1)"], ["exp(x1 - x2)", "0"]]
_UNITS = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)  # c log-uniform in [1e-8, 1e8]


def _scaled(c: float, g_spec, phi_spec=_EXP2D_PHI) -> MetricStructure:
    g = [[f"{c!r}*({entry})" for entry in row] for row in g_spec]
    return MetricStructure(2, g, phi_spec, chart_box=EXP2D.chart_box)


def _raises_singular(M: MetricStructure, point) -> bool:
    try:
        M.metric_at(point)
    except SingularMetricError:
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(
    c=_UNITS,
    case=st.sampled_from(
        [
            (_EXP2D_G, False),
            ([["x1^2", "0"], ["0", "x2^2"]], True),  # poly2d at its pole x1 = 0
            ([["1", "1"], ["1", "1"]], True),
            ([["0", "0"], ["0", "0"]], True),
        ]
    ),
    x2=st.floats(-1.5, 1.5),
)
def test_singularity_test_ignores_metric_units(c, case, x2):
    g_spec, singular = case
    point = (0.0, x2)
    assert _raises_singular(_scaled(1.0, g_spec), point) is singular
    assert _raises_singular(_scaled(c, g_spec), point) is singular


@settings(max_examples=25, deadline=None)
@given(c=_UNITS, x1=st.floats(-1.5, 1.5), x2=st.floats(-1.5, 1.5))
def test_fd_christoffel_ignores_metric_units(c, x1, x2):
    ref = _scaled(1.0, _EXP2D_G).christoffel_at((x1, x2))
    gam = _scaled(c, _EXP2D_G).christoffel_at((x1, x2))
    assert float(np.max(np.abs(gam - ref))) <= 1e-9 * float(np.max(np.abs(ref)))


_RANDOM_PHI = json.loads((SCENARIOS / "inline_random_phi.json").read_text())["manifold"]
_OWN_SCALE_G = [["exp(20*x2)", "0"], ["0", "exp(20*x2)"]]
_OWN_SCALE_PHI = [["1", "0"], ["1e-6*exp(-20*x2)", "-1"]]


@settings(max_examples=30, deadline=None)
@given(
    c=_UNITS,
    case=st.sampled_from(
        [
            (_EXP2D_G, _EXP2D_PHI, True),
            (_RANDOM_PHI["g"], _RANDOM_PHI["phi"], False),  # negative control
            # twin = exp(20 x2) [[1, 0], [1e-6 exp(-20 x2), -1]]: its asymmetry is
            # 1e-6 everywhere, impure on the scale of each point where x2 < 0.23,
            # though tiny on the scale of the largest twin in the sample
            (_OWN_SCALE_G, _OWN_SCALE_PHI, False),
        ]
    ),
)
def test_norden_check_ignores_metric_units(c, case):
    g_spec, phi_spec, norden = case
    assert check_norden(_scaled(1.0, g_spec, phi_spec), n_points=20).passed is norden
    assert check_norden(_scaled(c, g_spec, phi_spec), n_points=20).passed is norden


def test_singular_constant_metric_is_named_at_the_first_sampled_point():
    M = MetricStructure(2, [[1, 1], [1, 1]], [[1, 0], [0, -1]])
    first = sample_chart_points(M, 1, np.random.default_rng(12345))[0]  # check_norden's seed
    with pytest.raises(SingularMetricError) as err:
        check_norden(M)
    assert str(err.value) == f"metric singular at {first}: |det g| = 0 <= 1e-12 max|g_ij|^2 = 1e-12"


def test_singular_metric_message_states_the_relative_test():
    # det g = 0.1 is small only next to the entries: 1e-12 * (1e6)^2 = 1
    M = MetricStructure(2, [[1e6, 0], [0, 1e-7]], [[1, 0], [0, -1]])
    with pytest.raises(SingularMetricError) as err:
        M.metric_at(np.array([0.5, 0.25]))
    assert str(err.value) == "metric singular at [0.5  0.25]: |det g| = 0.1 <= 1e-12 max|g_ij|^2 = 1"
    with pytest.raises(SingularMetricError) as err:
        M.at(np.array([[0.5, 0.25], [0.0, 1.0]])).g
    assert str(err.value) == "metric singular at [0.5  0.25]: |det g| = 0.1 <= 1e-12 max|g_ij|^2 = 1"


def test_twin_metric_purity_violation():
    # g phi = [[0, 1], [2, 0]]: asymmetry 1 against max|g phi| = 2
    bad = MetricStructure(2, [["1", "0"], ["0", "1"]], [["0", "1"], ["2", "0"]])
    rep = check_norden(bad, n_points=5)
    assert not rep.passed
    assert rep.details["purity"] == 0.5


# -- christoffel symbols -------------------------------------------------------


def test_christoffel_analytic_values():
    gam = EXP2D.christoffel_at((0.37, -0.6))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[1, 1, 1] = 1.0
    np.testing.assert_allclose(gam, expected)

    np.testing.assert_allclose(FLAT.christoffel_at((0.5, 0.5)), np.zeros((2, 2, 2)))

    gam = POLY.christoffel_at((2.0, 0.8))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 0.5
    expected[1, 1, 1] = 1.25
    np.testing.assert_allclose(gam, expected)


@pytest.mark.parametrize("M", [EXP2D, POLY], ids=["exp2d", "poly2d"])
def test_finite_difference_matches_analytic(M):
    # the central-difference reference and the jet-derived Gamma both match
    # the analytic symbols
    twin = derived_twin(M)
    rng = np.random.default_rng(3)
    for p in sample_chart_points(M, 10, rng):
        np.testing.assert_allclose(_fd_christoffel(twin, p), M.christoffel_at(p), atol=1e-6)
        np.testing.assert_allclose(twin.christoffel_at(p), M.christoffel_at(p), atol=1e-6)


def test_christoffel_symmetry_and_compatibility():
    twin = derived_twin(POLY)
    rng = np.random.default_rng(11)
    h = 1e-5
    for p in sample_chart_points(twin, 10, rng):
        gam = twin.christoffel_at(p)
        np.testing.assert_allclose(gam, gam.transpose(0, 2, 1), atol=1e-12)
        # nabla g = 0: d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
        dg = np.empty((2, 2, 2))
        for k in range(2):
            shift = np.zeros(2)
            shift[k] = h
            dg[k] = (twin.g.at(p + shift) - twin.g.at(p - shift)) / (2 * h)
        g = twin.metric_at(p)
        compat = (
            dg
            - np.einsum("lki,lj->kij", gam, g)
            - np.einsum("lkj,il->kij", gam, g)
        )
        assert np.max(np.abs(compat)) < 1e-9


# -- exact jets against central-difference references ------------------------------

FD_DIAG4 = MetricStructure(
    4,
    [["exp(x1)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
)
FD_STEP = 1e-5
# differencing the central-difference Gamma is noisier, so a coarser step
# balances truncation against the inherited roundoff
FD_GRAD_STEP = 1e-4


def _fd_christoffel(M, point):
    """Gamma from central differences of g, point by point, as a reference."""
    d, h = M.dim, FD_STEP
    point = np.asarray(point, dtype=float)
    dg = np.empty((d, d, d))
    for l in range(d):
        shift = np.zeros(d)
        shift[l] = h
        dg[l] = (M.g.at(point + shift) - M.g.at(point - shift)) / (2.0 * h)
    ginv = np.linalg.inv(M.metric_at(point))
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def _fd_christoffel_grad(M, point):
    """dGamma from central differences of Gamma (analytic, or the reference
    above), centre by centre."""
    d = M.dim
    if M.christoffel is not None:
        gamma, h = M.christoffel.at, FD_STEP
    else:
        gamma, h = (lambda p: _fd_christoffel(M, p)), FD_GRAD_STEP
    point = np.asarray(point, dtype=float)
    out = np.empty((d, d, d, d))
    for m in range(d):
        shift = np.zeros(d)
        shift[m] = h
        out[m] = (gamma(point + shift) - gamma(point - shift)) / (2.0 * h)
    return out, h


@pytest.mark.parametrize(
    "M", [derived_twin(EXP2D), FD_DIAG4, POLY], ids=["fd_exp2d", "fd_diag4", "poly2d"]
)
def test_batched_stencils_match_point_by_point_loops(M):
    # 1e-9 relative to Gamma; dGamma is compared through its central
    # differences 2h dGamma, since the reference's dGamma is zero up to
    # roundoff here except on poly2d
    for p in sample_chart_points(M, 10, np.random.default_rng(11)):
        gam = M.christoffel_at(p)
        scale = 1e-9 * np.max(np.abs(gam))
        if M.christoffel is None:
            assert np.max(np.abs(gam - _fd_christoffel(M, p))) <= scale
        reference, h = _fd_christoffel_grad(M, p)
        assert 2.0 * h * np.max(np.abs(M.christoffel_grad_at(p) - reference)) <= scale


def _temporaries_peak(evaluate) -> int:
    """Traced peak during ``evaluate()`` above what its kept result holds."""
    tracemalloc.start()
    try:
        kept = evaluate()
        current, peak = tracemalloc.get_traced_memory()
        del kept
        return peak - current
    finally:
        tracemalloc.stop()


def _filled(points):
    geo = FD_DIAG4.at(points)
    geo.dgamma  # fills g, g^-1, Gamma and dGamma, which geo keeps
    return geo


def test_fd_christoffel_grad_memory_is_bounded_on_long_stacks(monkeypatch):
    # unblocked, the jets and temporaries of dGamma on this chart hold about
    # 7 KB per sample on top of the results kept; in blocks, 4000 samples
    # need less of them than 1000 samples did in one batch
    pts = sample_chart_points(FD_DIAG4, 4000, np.random.default_rng(5))
    blocked = _temporaries_peak(lambda: _filled(pts))
    monkeypatch.setattr(geometry, "_BLOCK", len(pts))
    assert blocked < _temporaries_peak(lambda: _filled(pts[:1000]))


@pytest.mark.parametrize("method", ["christoffel_at", "christoffel_grad_at"])
@pytest.mark.parametrize("chart", ["fd_diag4", "poly2d", "curved"])
def test_blocked_stack_equals_one_batch_bit_for_bit(monkeypatch, method, chart):
    M = {"fd_diag4": FD_DIAG4, "poly2d": POLY, "curved": CURVED}[chart]
    pts = sample_chart_points(M, 2 * geometry._BLOCK + 37, np.random.default_rng(6))
    blocked = getattr(M, method)(pts)
    monkeypatch.setattr(geometry, "_BLOCK", len(pts))
    one_batch = getattr(M, method)(pts)
    assert blocked.shape == one_batch.shape and blocked.tobytes() == one_batch.tobytes()


def test_stencil_point_outside_the_domain_raises():
    # exact derivatives need no stencil: x1 = h/2 works, as long as the
    # centre itself is in the domain
    M, h = MetricStructure(2, [["ln(x1)", 0], [0, 1]], [[1, 0], [0, -1]]), 1e-5
    np.testing.assert_allclose(
        M.christoffel_at((0.5 * h, 0.0))[0, 0, 0], 0.5 / (0.5 * h * np.log(0.5 * h))
    )
    with pytest.raises(EvalDomainError, match="ln of non-positive value"):
        M.christoffel_at((-0.5 * h, 0.0))
    with pytest.raises(EvalDomainError, match="ln of non-positive value"):
        M.christoffel_grad_at((0.0, 0.0))


def test_singular_stencil_centre_raises():
    M = MetricStructure(2, [["x1^2", 0], [0, 1]], [[1, 0], [0, -1]])
    for method in (M.christoffel_at, M.christoffel_grad_at):
        with pytest.raises(SingularMetricError, match=r"at \[0\. +0\.3\]"):
            method((0.0, 0.3))
    # with no stencil, a point next to the singular one is regular
    np.testing.assert_allclose(M.christoffel_grad_at((1e-4, 0.3))[0, 0, 0, 0], -1e8)


# -- exact Gamma, dGamma and R on charts with an analytic twin ----------------------

H2XH2_ANALYTIC = h2xh2()
H2XH2 = derived_twin(H2XH2_ANALYTIC)
_TWINS = {"h2xh2": H2XH2_ANALYTIC, "exp2d": EXP2D, "poly2d": POLY}


def _product_of_hyperbolic_planes(g):
    """R^l_kij of two K = -1 planes, R(X, Y)Z = -(g(Y, Z) X - g(X, Z) Y) on
    each factor, for g at one point."""
    tensor = np.zeros((4,) * 4)
    for block in (slice(0, 2), slice(2, 4)):
        tensor[block, block, block, block] = CurvatureOperator(-1.0).tensor(g[block, block])
    return tensor


@pytest.mark.parametrize("name", sorted(_TWINS))
def test_derived_connection_and_curvature_equal_the_analytic_ones(name):
    analytic = _TWINS[name]
    derived = derived_twin(analytic)
    pts = sample_chart_points(analytic, 7, np.random.default_rng(23))
    for x in (pts, pts[3]):
        want, got = analytic.at(x), derived.at(x)
        gam = np.max(np.abs(want.gamma))
        # derived dGamma = g^-1 (dS / 2 - dg Gamma) cancels terms of size
        # Gamma^2 (exactly, where analytic dGamma is 0), and R sums dGamma
        # and Gamma Gamma terms: both are judged on that scale
        second = np.max(np.abs(want.dgamma)) + gam**2
        scales = (gam, second, second)
        for piece, scale in zip(("gamma", "dgamma", "riemann_tensor"), scales):
            # a point-independent piece is one unstacked array
            diff = np.subtract(*np.broadcast_arrays(getattr(got, piece), getattr(want, piece)))
            assert diff.shape[-3:] == (analytic.dim,) * 3
            assert np.max(np.abs(diff)) <= 1e-12 * scale, piece


def test_h2xh2_curvature_is_two_hyperbolic_planes():
    for M in (H2XH2, H2XH2_ANALYTIC):
        for p in sample_chart_points(M, 5, np.random.default_rng(29)):
            want = _product_of_hyperbolic_planes(M.metric_at(p))
            got = M.riemann_tensor_at(p)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(H2XH2.riemann_tensor_at(np.array([0.1, 0.2, 0.3, 0.4])))) > 1.0


def test_h2xh2_passes_the_structure_checks_at_their_one_tolerance():
    for M in (H2XH2, H2XH2_ANALYTIC):
        assert check_norden(M, n_points=50).passed
        par, pur = check_parallel_phi(M, n_points=50), check_curvature_purity(M, n_points=5)
        assert (par.tol, pur.tol) == (1e-8, 1e-6)
        assert par.passed and pur.passed


# -- curvature ------------------------------------------------------------------

CURVED = curved()


def test_riemann_flat_is_zero():
    rng = np.random.default_rng(5)
    for p in sample_chart_points(FLAT, 5, rng):
        X, Y, Z = rng.normal(size=(3, 2))
        np.testing.assert_allclose(FLAT.at(p).riemann(X, Y, Z), 0.0, atol=1e-14)
    # exp2d is flat as well: a product of one-dimensional metrics
    for p in sample_chart_points(EXP2D, 5, rng):
        X, Y, Z = rng.normal(size=(3, 2))
        np.testing.assert_allclose(EXP2D.at(p).riemann(X, Y, Z), 0.0, atol=1e-12)


def test_constant_curvature_operator_example():
    op = CurvatureOperator(1.0)
    e1, e2 = np.eye(2)
    np.testing.assert_allclose(op.apply(e1, e2, e2, g_mat=np.eye(2)), e1)


def test_riemann_antisymmetry_and_bianchi_on_curved_metric():
    rng = np.random.default_rng(17)
    for p in sample_chart_points(CURVED, 4, rng):
        X, Y, Z = rng.normal(size=(3, 2))
        r_xy = CURVED.at(p).riemann(X, Y, Z)
        r_yx = CURVED.at(p).riemann(Y, X, Z)
        np.testing.assert_allclose(r_xy, -r_yx, atol=1e-8)
        bianchi = (
            CURVED.at(p).riemann(X, Y, Z)
            + CURVED.at(p).riemann(Y, Z, X)
            + CURVED.at(p).riemann(Z, X, Y)
        )
        np.testing.assert_allclose(bianchi, 0.0, atol=1e-6)
    # sanity: the metric is actually curved
    p = np.array([0.5, 0.1])
    assert np.max(np.abs(CURVED.riemann_tensor_at(p))) > 1e-2


# -- structure checks ------------------------------------------------------------


@pytest.mark.parametrize("M", [EXP2D, FLAT, POLY], ids=["exp2d", "flat_diag", "poly2d"])
def test_catalog_structures_pass_axioms(M):
    assert check_norden(M, n_points=50).passed
    assert check_parallel_phi(M, n_points=50).passed
    assert check_curvature_purity(M, n_points=5).passed


def test_flat_constant_phi_parallel_residual_is_exactly_zero():
    rep = check_parallel_phi(FLAT, n_points=30)
    assert rep.max_residual == 0.0


def test_random_phi_fails_norden():
    rng = np.random.default_rng(0)
    bad = MetricStructure(2, [["1", "0"], ["0", "1"]], rng.uniform(-1, 1, (2, 2)).tolist())
    rep = check_norden(bad, n_points=30)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_nonparallel_phi_fails_parallel_check_but_passes_norden():
    # symmetric involutive phi depending on position: pure, but not parallel
    M = MetricStructure(
        2,
        [["1", "0"], ["0", "1"]],
        [["cos(x1)", "sin(x1)"], ["sin(x1)", "-cos(x1)"]],
    )
    assert check_norden(M, n_points=30).passed
    rep = check_parallel_phi(M, n_points=30)
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_synthetic_override_fails_curvature_purity():
    ent = catalog.entry("const_curv(1.0)")
    rep = check_curvature_purity(ent.structure, n_points=3)
    assert not rep.passed


def test_given_curvature_tensor_is_shape_checked_and_read_only():
    with pytest.raises(ValueError, match="riemann"):
        MetricStructure(2, [[1, 0], [0, 1]], [[1, 0], [0, -1]], riemann=np.zeros((2, 2, 2)))
    tensor = catalog.entry("const_curv(1.0)").structure.riemann_tensor_at(np.zeros(4))
    with pytest.raises(ValueError):
        tensor[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("check", [check_norden, check_parallel_phi, check_curvature_purity])
@pytest.mark.parametrize("n_points", [0, -3])
def test_structure_checks_reject_an_empty_sample(check, n_points):
    with pytest.raises(ValueError, match="n_points"):
        check(FLAT, n_points=n_points)


@pytest.mark.parametrize("name", [*catalog.entry_names(), "const_curv(-2.5)"])
def test_curvature_tensor_contracts_to_the_curvature_operator(name):
    # one curvature path: R(X, Y)Z is the contraction of the tensor that the
    # structure checks and the jet recursion read, synthetic curvature included
    ent = catalog.entry(name)
    M = ent.structure
    rng = np.random.default_rng(11)
    for p in sample_chart_points(M, 4, rng):
        X, Y, Z = rng.normal(size=(3, M.dim))
        got = M.at(p).riemann(X, Y, Z)
        contracted = np.einsum("lkij,i,j,k->l", M.riemann_tensor_at(p), X, Y, Z)
        scale = np.einsum("lkij,i,j,k->l", np.abs(M.riemann_tensor_at(p)), *np.abs([X, Y, Z]))
        assert np.all(np.abs(got - contracted) <= 1e-13 * np.max(scale, initial=1e-300))
        if ent.curvature_op is not None:
            expected = ent.curvature_op.apply(X, Y, Z, g_mat=M.metric_at(p))
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.max(scale))
            assert np.max(np.abs(got)) > 0.1


# -- matrix-vector contractions: a row's bits do not depend on its stack --------------

_CONTRACTIONS = {
    "matvec": lambda t, u, v, rank: geometry.matvec(t, v),
    "contract": lambda t, u, v, rank: geometry._contract(t, v, rank),
    "bilinear": lambda t, u, v, rank: geometry.bilinear(u, t, v),
}


def _per_sample_matmul(form, t, u, v):
    """The contraction of one sample by ``@``."""
    return u @ t @ v if form == "bilinear" else t @ v


@settings(max_examples=80, deadline=None)
@given(
    form=st.sampled_from(sorted(_CONTRACTIONS)),
    d=st.sampled_from([2, 4, 6, 8]),
    n=st.integers(1, 300),
    rank=st.integers(2, 4),
    shared=st.booleans(),
    transposed=st.booleans(),
    plants=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_contractions_give_each_row_its_bits_alone(
    form, d, n, rank, shared, transposed, plants, seed
):
    rng = np.random.default_rng(seed)
    rank = rank if form == "contract" else 2
    shape = (d,) * rank if shared else (n,) + (d,) * rank
    if transposed:  # a non-contiguous view with the last two axes swapped
        t = rng.normal(size=shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
    else:
        t = rng.normal(size=shape)
    u, v = rng.normal(size=(2, n, d))
    for value in plants:  # NaN and inf entries in any operand
        target = (t, u, v)[rng.integers(3)]
        target[tuple(rng.integers(s) for s in target.shape)] = value
    call = _CONTRACTIONS[form]
    stacked = call(t, u, v, rank)
    assert stacked.shape == (n,) + (d,) * (rank - 1 if form != "bilinear" else 0)
    eps = np.finfo(float).eps
    for i in range(n):
        t_i = t if shared else t[i]
        # one row alone gives that row's bits in the stack
        assert np.array_equal(call(t_i, u[i], v[i], rank), stacked[i], equal_nan=True), i
        # and the per-sample @ result to rounding, NaN in the same places
        with np.errstate(invalid="ignore"):
            want = _per_sample_matmul(form, t_i, u[i], v[i])
            scale = _per_sample_matmul(form, abs(t_i), abs(u[i]), abs(v[i]))  # sum of |terms|
            got = stacked[i]
            assert np.array_equal(np.isnan(got), np.isnan(want)), i
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite], equal_nan=True), i
            assert np.all(abs(got - want)[finite] <= 8 * eps * scale[finite]), i


# -- one geometry for a point or a stack of points ----------------------------------

_STACK_CHARTS = {
    "exp2d": EXP2D,
    "poly2d": POLY,
    "fd_exp2d": derived_twin(EXP2D),
    "const_curv": catalog.entry("const_curv(1.5)").structure,
    "curved": CURVED,
}


def _geometry_pieces(geo, v, vdot, vddot, xdot, xddot):
    v_prime = geo.to_covariant(v, vdot, xdot)
    rate = geo.covariant_rate(v, vdot, vddot, xdot, xddot)
    return [
        geo.g, geo.ginv, geo.phi, geo.gamma, geo.dgamma, geo.riemann_tensor,
        v_prime, geo.to_coordinate(v, v_prime, xdot),
        rate, geo.coordinate_rate(v, vdot, rate, xdot, xddot),
    ]


def _assert_relative(got, want, rel):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_STACK_CHARTS)), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_stacked_geometry_equals_the_geometry_at_each_point(name, n, seed):
    M = _STACK_CHARTS[name]
    rng = np.random.default_rng(seed)
    pts = sample_chart_points(M, n, rng)
    vectors = rng.normal(size=(5, n, M.dim))
    stacked = _geometry_pieces(M.at(pts), *vectors)
    per_point = [_geometry_pieces(M.at(p), *vectors[:, i]) for i, p in enumerate(pts)]
    for k, got in enumerate(stacked):
        want = np.stack([pieces[k] for pieces in per_point])
        # a piece that does not depend on the point is one unstacked array
        _assert_relative(np.broadcast_to(got, want.shape), want, 1e-13)


def _closed_form(name, family, **params):
    ent = catalog.entry(name)
    fam = ent.family(family, **params)
    return ent.structure, fam.system, fam.trajectory(ent.structure, np.linspace(0.0, 0.5, 21))


def _integrated(M, kind):
    state = BundleState([0.1, 0.2], [0.3, -0.2], [0.5, 0.1], [0.0, 0.2])
    traj = integrate(M, BundleSystem(kind), state, IntegratorConfig(step=0.05, t_span=(0.0, 1.0)))
    return M, BundleSystem(kind), traj


_TRAJECTORIES = {
    "exp2d_natural": lambda: _closed_form("exp2d", "natural_lift"),
    "poly2d_f_geodesic": lambda: _closed_form("poly2d", "f_geodesic_lift"),
    "poly2d_f_planar": lambda: _closed_form("poly2d", "f_planar_lift"),
    "flat_diag_planar": lambda: _closed_form("flat_diag", "hphi_planar"),  # rho varies in t
    "fd_exp2d_integrated": lambda: _integrated(derived_twin(EXP2D), "geodesic_tm"),
    "curved_integrated": lambda: _integrated(CURVED, "geodesic_tm"),
}


def _per_sample_monitors(M, traj):
    rows = []
    for i in range(traj.n):
        geo = M.at(traj.x[i])
        xi, xdot = traj.xi[i], traj.xdot[i]
        xi_prime = geo.to_covariant(xi, traj.xidot[i], xdot)
        gphi = geo.g @ geo.phi
        rows.append([xi @ gphi @ xi, xi_prime @ gphi @ xi, xi_prime @ gphi @ xi_prime,
                     xdot @ geo.g @ xdot])
    return dict(zip(("unit_norm", "fiber_ortho", "rho_sq", "speed_sq"), np.array(rows).T))


def _per_sample_residual(M, system, traj):
    geos = [M.at(x) for x in traj.x]
    xi_prime = np.array(
        [geo.to_covariant(traj.xi[i], traj.xidot[i], traj.xdot[i]) for i, geo in enumerate(geos)]
    )
    differenced = traj.xddot is None
    dxdot = np.gradient(traj.xdot, traj.times, axis=0)
    dxi_prime = np.gradient(xi_prime, traj.times, axis=0)
    res = []
    for i, geo in enumerate(geos):
        xdot, xi = traj.xdot[i], traj.xi[i]
        if differenced:
            gamma_dd = dxdot[i] + geo.connection(xdot, xdot)
            xi_dd = dxi_prime[i] + geo.connection(xi_prime[i], xdot)
        else:
            gamma_dd = geo.to_covariant(xdot, traj.xddot[i], xdot)
            rate = geo.covariant_rate(xi, traj.xidot[i], traj.xiddot[i], xdot, traj.xddot[i])
            xi_dd = geo.to_covariant(xi_prime[i], rate, xdot)
        accel, fiber = covariant_targets(geo, system, float(traj.times[i]), xdot, xi, xi_prime[i])
        res.append(np.hypot(np.linalg.norm(gamma_dd - accel), np.linalg.norm(xi_dd - fiber)))
    return np.array(res)


def _per_sample_mirror(M, traj):
    xi, xidot, xiddot = [], [], []
    for i in range(traj.n):
        geo = M.at(traj.x[i])
        xdot = traj.xdot[i]
        mu = geo.phi @ traj.xi[i]
        xi_prime = geo.to_covariant(traj.xi[i], traj.xidot[i], xdot)
        mu_prime = geo.phi @ xi_prime
        xi.append(mu)
        xidot.append(geo.to_coordinate(mu, mu_prime, xdot))
        if traj.xiddot is not None:
            xddot = traj.xddot[i]
            rate = geo.covariant_rate(traj.xi[i], traj.xidot[i], traj.xiddot[i], xdot, xddot)
            mu_dd = geo.phi @ geo.to_covariant(xi_prime, rate, xdot)
            dmu_prime = geo.to_coordinate(mu_prime, mu_dd, xdot)
            xiddot.append(geo.coordinate_rate(mu, xidot[-1], dmu_prime, xdot, xddot))
    return xi, xidot, xiddot


@pytest.mark.parametrize("case", sorted(_TRAJECTORIES))
def test_trajectory_post_processing_equals_a_per_sample_reference(case):
    M, system, traj = _TRAJECTORIES[case]()
    compute_monitors(M, traj)
    for name, want in _per_sample_monitors(M, traj).items():
        _assert_relative(traj.monitors[name], want, 1e-13)

    # the residual is a difference of nearly equal terms: judge it on their scale
    got = geodesic_residual(M, system, traj).residuals
    scale = max(float(np.max(np.abs(a))) for a in (traj.xdot, traj.xi, traj.xidot))
    assert float(np.max(np.abs(got - _per_sample_residual(M, system, traj)))) <= 1e-12 * scale**2

    mirrored = phi_mirror(M, traj, check_parallel=False)
    mirror_blocks = (mirrored.xi, mirrored.xidot, mirrored.xiddot)
    for got, want in zip(mirror_blocks, _per_sample_mirror(M, traj)):
        if want:
            _assert_relative(got, np.array(want), 1e-13)


# -- curvature powers -------------------------------------------------------------


def test_constant_operator_tensor_contracts_to_apply():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    g = a @ a.T + 4.0 * np.eye(4)
    X, Y, Z = rng.normal(size=(3, 4))
    op = CurvatureOperator(-1.5)
    tensor = op.tensor(g)
    np.testing.assert_allclose(
        np.einsum("lkij,i,j,k->l", tensor, X, Y, Z), op.apply(X, Y, Z, g_mat=g), rtol=1e-13
    )
    with pytest.raises(TypeError):
        op.apply(X, Y, Z)  # needs g at the point


def test_curvature_power_base_case():
    op = CurvatureOperator(2.0)
    g = np.eye(4)
    X = np.array([1.0, 0.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0, 0.0])
    Z = np.array([0.3, 0.7, -0.2, 0.1])
    np.testing.assert_allclose(
        curvature_power(op, 1, X, Y, Z, g_mat=g), op.apply(X, Y, Z, g_mat=g)
    )
    with pytest.raises(ValueError):
        curvature_power(op, 0, X, Y, Z, g_mat=g)


def test_curvature_power_odd_closed_form():
    # orthonormal pair, c = 1: R^3 = -R
    op = CurvatureOperator(1.0)
    g = np.eye(4)
    e = np.eye(4)
    Z = np.array([0.2, -0.4, 1.0, 0.5])
    r1 = curvature_power(op, 1, e[0], e[1], Z, g_mat=g)
    r3 = curvature_power(op, 3, e[0], e[1], Z, g_mat=g)
    np.testing.assert_allclose(r3, -r1, atol=1e-15)


def test_curvature_power_even_closed_form():
    # orthonormal pair, c = 2: R^4 = -4 R^2
    op = CurvatureOperator(2.0)
    g = np.eye(4)
    e = np.eye(4)
    Z = np.array([0.2, -0.4, 1.0, 0.5])
    r2 = curvature_power(op, 2, e[0], e[1], Z, g_mat=g)
    r4 = curvature_power(op, 4, e[0], e[1], Z, g_mat=g)
    np.testing.assert_allclose(r4, -4.0 * r2, atol=1e-12)
    np.testing.assert_allclose(
        curvature_power_closed(op, 4, e[0], e[1], Z, g_mat=g), r4, atol=1e-12
    )


def test_curvature_power_closed_matches_iteration_generic():
    g = np.eye(4)
    rng = np.random.default_rng(2)
    X = 0.6 * rng.normal(size=4)
    Y = 0.6 * rng.normal(size=4)
    Z = rng.normal(size=4)
    for c in (-2.0, 1.0, 3.0):
        op = CurvatureOperator(c)
        for p in range(1, 9):
            naive = curvature_power(op, p, X, Y, Z, g_mat=g)
            closed = curvature_power_closed(op, p, X, Y, Z, g_mat=g)
            scale = max(1.0, float(np.max(np.abs(naive))))
            np.testing.assert_allclose(closed, naive, atol=1e-12 * scale)
