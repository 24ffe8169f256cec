import math

import numpy as np
import pytest

from bundleflow import catalog
from bundleflow.bundle import (
    BundleState,
    BundleSystem,
    FPlanarCoefficients,
    FTensor,
    geodesic_residual,
    lorentz_force,
    make_rhs,
    normalized_unit_state,
    phi_mirror,
    sasaki_metric,
)
from bundleflow.errors import ConstraintError
from bundleflow.geometry import FieldTensor as FieldMatrix, MetricStructure
from bundleflow.integrate import IntegratorConfig, Trajectory, integrate

EXP2D = catalog.entry("exp2d")
FLAT = catalog.entry("flat_diag")
POLY = catalog.entry("poly2d")

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO2 = np.zeros(2)


# -- bundle metric -------------------------------------------------------------


def _sasaki_pair(M, x, u, a, b):
    """g^phiS at (x, u) on two vectors given as (horizontal, vertical) parts:
    (X, V) stands for the horizontal lift of X plus the vertical V."""
    lift = M.at(np.asarray(x, dtype=float)).along(np.asarray(u, dtype=float))  # A = Gamma u
    a, b = (np.concatenate([h, v - lift @ h]) for h, v in (a, b))
    return float(a @ sasaki_metric(M).at(np.concatenate([x, u])) @ b)


def test_sasaki_metric_horizontal_block():
    u = np.array([1.0, 0.5])
    assert _sasaki_pair(EXP2D.structure, ZERO2, u, (E1, ZERO2), (E1, ZERO2)) == pytest.approx(1.0)


def test_sasaki_metric_cross_block_vanishes():
    x, u = np.array([0.3, -0.2]), np.array([1.0, 0.5])
    assert _sasaki_pair(EXP2D.structure, x, u, (E1, ZERO2), (ZERO2, E1)) == 0.0


def test_sasaki_metric_vertical_block_is_twin():
    u = np.array([math.sqrt(2.0), 1.0])
    assert _sasaki_pair(FLAT.structure, ZERO2, u, (ZERO2, E1), (ZERO2, E1)) == pytest.approx(1.0)
    assert _sasaki_pair(FLAT.structure, ZERO2, u, (ZERO2, E2), (ZERO2, E2)) == pytest.approx(-1.0)


def test_sasaki_metric_needs_analytic_christoffel_symbols():
    M = MetricStructure(2, [["exp(x1)", 0], [0, 1]], [[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="Christoffel"):
        sasaki_metric(M)


# -- covariant derivatives along curves ------------------------------------------


def test_covariant_deriv_flat_is_coordinate_derivative():
    state = BundleState(np.zeros(2), np.array([0.3, 0.4]), E1, np.array([0.7, -0.2]))
    geo = FLAT.structure.at(state.x)
    xi_prime = geo.to_covariant(state.xi, state.xidot, state.xdot)
    gamma_dd = geo.to_covariant(state.xdot, np.array([1.0, 2.0]), state.xdot)
    np.testing.assert_allclose(xi_prime, state.xidot)
    np.testing.assert_allclose(gamma_dd, [1.0, 2.0])


def test_covariant_deriv_exp2d_horizontal_lift():
    lam = eta = math.sqrt(0.5)
    fam = EXP2D.family("horizontal_lift", lam=lam, eta=eta, h1=1.0, h2=0.5)
    traj = fam.trajectory(EXP2D.structure, np.linspace(0.0, 1.0, 11))
    for i in range(traj.n):
        state = traj.state(i)
        xi_prime = EXP2D.structure.at(state.x).to_covariant(state.xi, state.xidot, state.xdot)
        np.testing.assert_allclose(xi_prime, np.zeros(2), atol=1e-14)


def test_covariant_deriv_poly2d_reciprocal_fiber():
    # fiber u = k1/x along any base curve has vanishing first component of xi'
    k1 = 0.7
    x = np.array([1.3, 0.9])
    xdot = np.array([0.4, -0.2])
    xi = np.array([k1 / x[0], 0.5])
    xidot = np.array([-k1 * xdot[0] / x[0] ** 2, 0.1])
    xi_prime = POLY.structure.at(x).to_covariant(xi, xidot, xdot)
    assert abs(xi_prime[0]) < 1e-15


# -- right-hand sides ------------------------------------------------------------


def test_flat_geodesic_tm_is_straight_lines():
    M = FLAT.structure
    init = BundleState(np.zeros(2), np.array([0.3, -0.1]), E1, np.array([0.2, 0.5]))
    traj = integrate(M, BundleSystem("geodesic_tm"), init, IntegratorConfig(step=0.01, t_span=(0.0, 1.0)))
    np.testing.assert_allclose(traj.x[-1], init.xdot * 1.0, atol=1e-13)
    np.testing.assert_allclose(traj.xi[-1], init.xi + init.xidot, atol=1e-13)


def test_exp2d_horizontal_data_stays_horizontal_on_tm():
    lam = eta = math.sqrt(0.5)
    fam = EXP2D.family("horizontal_lift", lam=lam, eta=eta, h1=1.0, h2=0.5)
    traj = integrate(
        EXP2D.structure,
        BundleSystem("geodesic_tm"),
        fam.initial_state(),
        IntegratorConfig(step=1e-3, t_span=(0.0, 1.0)),
    )
    ref = fam.trajectory(EXP2D.structure, traj.times)
    np.testing.assert_allclose(traj.x, ref.x, atol=1e-9)
    np.testing.assert_allclose(traj.xi, ref.xi, atol=1e-9)
    res = geodesic_residual(EXP2D.structure, BundleSystem("geodesic_tm"), traj)
    assert res.max_residual < 1e-6


def test_geodesic_tm_constants_of_motion():
    M = EXP2D.structure
    init = BundleState(
        np.array([0.1, -0.2]), np.array([0.5, 0.3]), np.array([0.4, 0.8]), np.array([0.1, -0.3])
    )
    traj = integrate(M, BundleSystem("geodesic_tm"), init, IntegratorConfig(step=1e-3, t_span=(0.0, 1.0)))
    for name in ("speed_sq", "rho_sq"):
        series = traj.monitors[name]
        assert np.max(np.abs(series - series[0])) < 1e-10


def test_f_planar_with_zero_force_reduces_to_geodesic():
    M = FLAT.structure
    zero_f = FTensor.from_spec([[0.0, 0.0], [0.0, 0.0]], 2)
    sys_a = BundleSystem("geodesic_tm")
    sys_b = BundleSystem(
        "f_planar_tm", f_tensor=zero_f, coefficients=FPlanarCoefficients.constant(0.0, 0.0)
    )
    rhs_a, rhs_b = make_rhs(M, sys_a), make_rhs(M, sys_b)
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(size=8)
        np.testing.assert_allclose(rhs_a(0.3, y), rhs_b(0.3, y))
    sys_c = BundleSystem("geodesic_unit")
    sys_d = BundleSystem(
        "f_planar_unit", f_tensor=zero_f, coefficients=FPlanarCoefficients.constant(0.0, 0.0)
    )
    rhs_c, rhs_d = make_rhs(M, sys_c), make_rhs(M, sys_d)
    for _ in range(5):
        y = rng.normal(size=8)
        np.testing.assert_allclose(rhs_c(0.0, y), rhs_d(0.0, y))


def test_system_validation():
    with pytest.raises(ValueError):
        BundleSystem("f_geodesic_tm")  # missing F
    with pytest.raises(ValueError):
        BundleSystem("f_planar_tm", f_tensor=FTensor(is_phi=True))  # missing coefficients
    with pytest.raises(ValueError):
        BundleSystem("spiral")


@pytest.mark.parametrize("kind", ["geodesic_tm", "geodesic_unit"])
def test_a_system_takes_no_f_tensor_its_kind_does_not_use(kind):
    with pytest.raises(ValueError, match=f"system '{kind}' takes no F tensor"):
        BundleSystem(kind, f_tensor=FTensor(is_phi=True))


@pytest.mark.parametrize("kind", ["geodesic_tm", "f_geodesic_tm", "f_geodesic_unit"])
def test_a_system_takes_no_coefficients_its_kind_does_not_use(kind):
    f_tensor = FTensor(is_phi=True) if kind.startswith("f_") else None
    with pytest.raises(ValueError, match=f"system '{kind}' takes no coefficient functions"):
        BundleSystem(kind, f_tensor=f_tensor, coefficients=FPlanarCoefficients.constant(0.0, 1.0))


# -- unit-state normalization -----------------------------------------------------


def test_normalized_unit_state_is_exact():
    M = FLAT.structure
    xi = np.array([math.sqrt(2.0), 1.0]) * (1.0 + 3e-7)  # slightly off the bundle
    xidot = 0.3 * np.array([1.0, math.sqrt(2.0)]) + 1e-8 * xi  # nearly tangential
    state = normalized_unit_state(M, BundleState(np.zeros(2), np.array([0.5, 0.0]), xi, xidot))
    g = M.metric_at(state.x)
    phi = M.phi_at(state.x)
    assert state.xi @ g @ (phi @ state.xi) == pytest.approx(1.0, abs=1e-14)
    assert state.xidot @ g @ (phi @ state.xi) == pytest.approx(0.0, abs=1e-14)


def test_normalized_unit_state_rejects_bad_fiber():
    M = FLAT.structure
    with pytest.raises(ConstraintError):
        normalized_unit_state(
            M, BundleState(np.zeros(2), np.zeros(2), np.array([2.0, 0.0]), np.zeros(2))
        )
    # negative phi-norm fibers cannot be rescaled
    with pytest.raises(ConstraintError, match=r"g\(xi, phi xi\) = -1, expected 1"):
        normalized_unit_state(
            M, BundleState(np.zeros(2), np.zeros(2), np.array([0.0, 1.0]), np.zeros(2))
        )


# -- Lorentz force -----------------------------------------------------------------


def test_lorentz_force_flat_example():
    M = FLAT.structure
    omega = FieldMatrix.from_spec([[0.0, 1.0], [-1.0, 0.0]], 2)
    force = lorentz_force(M, omega, strength=1.0)
    np.testing.assert_allclose(
        force.on(M.at(np.array([0.2, 0.4]))), np.array([[0.0, 1.0], [-1.0, 0.0]])
    )


def test_lorentz_force_is_g_antisymmetric():
    M = POLY.structure
    omega = FieldMatrix.from_spec([["0", "x1*x2"], ["-x1*x2", "0"]], 2)
    force = lorentz_force(M, omega, strength=0.7)
    rng = np.random.default_rng(4)
    from bundleflow.geometry import sample_chart_points

    for p in sample_chart_points(M, 10, rng):
        g = M.metric_at(p)
        f = force.on(M.at(p))
        X, Y = rng.normal(size=(2, 2))
        assert abs((f @ X) @ g @ Y + X @ g @ (f @ Y)) < 1e-12
        assert abs((f @ X) @ g @ X) < 1e-12


def test_lorentz_force_zero_form_gives_geodesics():
    M = FLAT.structure
    omega = FieldMatrix.from_spec([[0.0, 0.0], [0.0, 0.0]], 2)
    force = lorentz_force(M, omega)
    init = BundleState(np.zeros(2), np.array([0.4, 0.1]), E1, np.zeros(2))
    traj = integrate(
        M,
        BundleSystem("f_geodesic_tm", f_tensor=force),
        init,
        IntegratorConfig(step=0.01, t_span=(0.0, 1.0)),
    )
    np.testing.assert_allclose(traj.x[-1], init.xdot, atol=1e-13)


def test_lorentz_force_rejects_symmetric_form():
    M = FLAT.structure
    omega = FieldMatrix.from_spec([[0.0, 1.0], [1.0, 0.0]], 2)
    with pytest.raises(ValueError):
        lorentz_force(M, omega)


def test_magnetic_curve_has_constant_speed_and_curvature():
    # gamma'' = q Phi gamma' in the flat plane is a circle of curvature q/|v|
    M = FLAT.structure
    omega = FieldMatrix.from_spec([[0.0, 1.0], [-1.0, 0.0]], 2)
    force = lorentz_force(M, omega, strength=0.8)
    init = BundleState(np.zeros(2), np.array([0.5, 0.0]), E1, np.zeros(2))
    traj = integrate(
        M,
        BundleSystem("f_geodesic_tm", f_tensor=force),
        init,
        IntegratorConfig(step=1e-3, t_span=(0.0, 4.0)),
    )
    speeds = np.linalg.norm(traj.xdot, axis=1)
    np.testing.assert_allclose(speeds, 0.5, atol=1e-10)
    from bundleflow.frenet import covariant_jets, frenet_curvatures

    result = frenet_curvatures(M, covariant_jets(M, traj, 2))
    np.testing.assert_allclose(result.means[0], 0.8 / 0.5, atol=1e-5)


# -- residuals ----------------------------------------------------------------------


def test_residual_negative_control():
    ent, fam = __import__("bundleflow.verify", fromlist=["euclid_oblique_family"]).euclid_oblique_family(0.5)
    times = np.linspace(0.0, 1.0, 201)
    traj = fam.trajectory(ent.structure, times)
    good = geodesic_residual(ent.structure, fam.system, traj)
    assert good.max_residual < 1e-8
    bent = catalog.perturbed_base(
        catalog.random_f_planar_solution(np.random.default_rng(9)), amplitude=0.002
    )
    res = geodesic_residual(
        FLAT.structure, bent.system, bent.trajectory(FLAT.structure, times)
    )
    assert res.max_residual > 1e-3


def test_integrated_unit_f_planar_run_satisfies_its_equations():
    M = FLAT.structure
    sol = catalog.random_f_planar_solution(np.random.default_rng(21), on_unit=True)
    traj = integrate(
        M, sol.system, sol.initial_state(), IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    )
    res = geodesic_residual(M, sol.system, traj)
    assert res.max_residual < 1e-6
    ref = sol.trajectory(M, traj.times)
    np.testing.assert_allclose(traj.x, ref.x, atol=1e-9)


def test_integrated_const_curv_geodesic_residual():
    from bundleflow.verify import const_curv_run

    ent, init, traj = const_curv_run(1.0)
    res = geodesic_residual(ent.structure, BundleSystem("geodesic_unit"), traj)
    assert res.max_residual < 1e-6


def test_a_samples_residual_does_not_depend_on_the_run_length():
    fam = EXP2D.family("natural_lift")
    times = np.linspace(0.0, 1.0, 201)
    whole, first = (
        geodesic_residual(EXP2D.structure, fam.system, fam.trajectory(EXP2D.structure, ts))
        for ts in (times, times[:101])
    )
    assert np.array_equal(whole.residuals[:101], first.residuals)


def test_residual_needs_enough_samples():
    M = FLAT.structure
    times = np.linspace(0.0, 1.0, 3)
    traj = Trajectory(
        times=times,
        x=np.zeros((3, 2)),
        xdot=np.zeros((3, 2)),
        xi=np.tile(E1, (3, 1)),
        xidot=np.zeros((3, 2)),
    )
    with pytest.raises(ValueError):
        geodesic_residual(M, BundleSystem("geodesic_tm"), traj)


# -- phi mirror ---------------------------------------------------------------------


def test_phi_mirror_worked_example():
    M = FLAT.structure
    times = np.linspace(0.0, 1.0, 11)
    n = times.size
    xi0 = np.array([math.sqrt(2.0), 1.0])
    traj = Trajectory(
        times=times,
        x=np.zeros((n, 2)),
        xdot=np.zeros((n, 2)),
        xi=np.tile(xi0, (n, 1)),
        xidot=np.zeros((n, 2)),
    )
    mirrored = phi_mirror(M, traj)
    np.testing.assert_allclose(mirrored.xi[0], [math.sqrt(2.0), -1.0])
    assert mirrored.monitors["unit_norm"][0] == pytest.approx(1.0)


def test_phi_mirror_requires_parallel_phi():
    M = MetricStructure(
        2,
        [["1", "0"], ["0", "1"]],
        [["cos(x1)", "sin(x1)"], ["sin(x1)", "-cos(x1)"]],
    )
    times = np.linspace(0.0, 1.0, 6)
    traj = Trajectory(
        times=times,
        x=np.zeros((6, 2)),
        xdot=np.zeros((6, 2)),
        xi=np.tile(E1, (6, 1)),
        xidot=np.zeros((6, 2)),
    )
    with pytest.raises(ConstraintError):
        phi_mirror(M, traj)


def test_phi_mirror_involution_is_bitwise_for_constant_phi():
    ent, fam = __import__("bundleflow.verify", fromlist=["euclid_oblique_family"]).euclid_oblique_family(0.4)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 51))
    double = phi_mirror(ent.structure, phi_mirror(ent.structure, traj))
    assert np.array_equal(double.xi, traj.xi)
    assert np.array_equal(double.xidot, traj.xidot)


def test_phi_mirror_projection_is_identical():
    # the mirror only touches the fiber; projected curves coincide exactly
    ent, fam = __import__("bundleflow.verify", fromlist=["euclid_oblique_family"]).euclid_oblique_family(0.5)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 51))
    mirrored = phi_mirror(ent.structure, traj)
    assert np.array_equal(mirrored.x, traj.x)
    assert np.array_equal(mirrored.xdot, traj.xdot)
