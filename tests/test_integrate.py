import math
from pathlib import Path

import numpy as np
import pytest

from bundleflow import catalog
from bundleflow.bundle import BundleState, BundleSystem, FTensor
from bundleflow.errors import EvalDomainError, IntegrationBlowUp, SingularMetricError
from bundleflow.geometry import MetricStructure
from bundleflow.integrate import IntegratorConfig, convergence_order, integrate
from bundleflow.scenario import load_scenario
from bundleflow.verify import euclid_oblique_family

FLAT = catalog.entry("flat_diag")
EUCLID = catalog.entry("euclid_oblique")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_span=(1.0, 0.0))
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_span=(0.0, 1.0), method="leapfrog")
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_span=(0.0, 1.0), monitor_every=0)


@pytest.mark.parametrize(
    "step, t_span",
    [(0.1, (0.0, math.inf)), (0.1, (-math.inf, 0.0)), (math.inf, (0.0, 1.0)), (math.nan, (0.0, 1.0))],
)
def test_config_rejects_non_finite_values(step, t_span):
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(step=step, t_span=t_span)


def test_grid_lands_exactly_on_t1():
    ent, fam = euclid_oblique_family(0.5)
    traj = integrate(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=0.3, t_span=(0.0, 1.0))
    )
    assert traj.times[-1] == 1.0
    np.testing.assert_allclose(np.diff(traj.times), [0.3, 0.3, 0.3, 0.1])


def test_oblique_geodesic_matches_closed_form():
    ent, fam = euclid_oblique_family(0.5)
    traj = integrate(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    )
    ref = fam.trajectory(ent.structure, traj.times)
    assert np.max(np.abs(traj.x - ref.x)) < 1e-8
    assert np.max(np.abs(traj.xi - ref.xi)) < 1e-8


def test_vertical_class_oscillates_with_negative_sign():
    # gamma frozen, xi'' = -xi: bounded trigonometric fiber motion; a flipped
    # sign would grow like cosh t and miss this by orders of magnitude
    c3 = np.array([1.0, 0.0, 0.0, 0.0])
    c4 = np.array([0.0, 1.0, 0.0, 0.0])
    fam = EUCLID.family("vertical_oscillation", c3=c3, c4=c4)
    traj = integrate(
        EUCLID.structure, fam.system, fam.initial_state(), IntegratorConfig(step=1e-3, t_span=(0.0, 2.0))
    )
    ref = fam.trajectory(EUCLID.structure, traj.times)
    np.testing.assert_allclose(traj.xi, ref.xi, atol=1e-9)
    np.testing.assert_allclose(traj.x, ref.x, atol=1e-12)
    assert np.max(np.abs(traj.xi)) < 1.01  # cosh(2) would exceed 3.7


def test_zero_velocity_init_is_fixed_point():
    init = BundleState(
        np.array([0.2, -0.1]), np.zeros(2), np.array([0.5, 0.3]), np.zeros(2)
    )
    traj = integrate(
        FLAT.structure,
        BundleSystem("geodesic_tm"),
        init,
        IntegratorConfig(step=0.05, t_span=(0.0, 1.0)),
    )
    np.testing.assert_allclose(traj.x, np.tile(init.x, (traj.n, 1)))
    np.testing.assert_allclose(traj.xi, np.tile(init.xi, (traj.n, 1)))


def test_monitor_stride():
    ent, fam = euclid_oblique_family(0.5)
    traj = integrate(
        ent.structure,
        fam.system,
        fam.initial_state(),
        IntegratorConfig(step=0.01, t_span=(0.0, 1.0), monitor_every=10),
    )
    assert traj.monitor_times.size == 11
    assert traj.monitor_times[-1] == traj.times[-1]


def test_convergence_order_rk4():
    ent, fam = euclid_oblique_family(0.5)
    order = convergence_order(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=0.05, t_span=(0.0, 1.0))
    )
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_euler():
    ent, fam = euclid_oblique_family(0.5)
    order = convergence_order(
        ent.structure,
        fam.system,
        fam.initial_state(),
        IntegratorConfig(step=0.05, t_span=(0.0, 1.0), method="euler"),
    )
    assert order == pytest.approx(1.0, abs=0.3)


def test_convergence_order_skipped_for_exact_solutions():
    # straight lines are resolved exactly; the estimate has no signal
    init = BundleState(np.zeros(2), np.array([0.3, 0.4]), np.array([1.0, 0.0]), np.zeros(2))
    order = convergence_order(
        FLAT.structure, BundleSystem("geodesic_tm"), init, IntegratorConfig(step=0.1, t_span=(0.0, 1.0))
    )
    assert order is None


def test_time_reversal_returns_to_start():
    lam = eta = math.sqrt(0.5)
    fam = catalog.entry("exp2d").family("natural_lift", lam=lam, eta=eta)
    M = catalog.entry("exp2d").structure
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    fwd = integrate(M, fam.system, fam.initial_state(), cfg)
    flipped = BundleState(fwd.x[-1], -fwd.xdot[-1], fwd.xi[-1], -fwd.xidot[-1])
    back = integrate(M, fam.system, flipped, cfg)
    start = fam.initial_state()
    assert np.max(np.abs(back.x[-1] - start.x)) < 1e-7
    assert np.max(np.abs(back.xi[-1] - start.xi)) < 1e-7
    assert np.max(np.abs(-back.xdot[-1] - start.xdot)) < 1e-7


def test_blow_up_aborts_with_partial_trajectory():
    # strong linear forcing doubles the velocity every ~0.014 time units;
    # the state overflows long before t1
    force = FTensor.from_spec([[50.0, 0.0], [0.0, 50.0]], 2)
    init = BundleState(np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(
            FLAT.structure,
            BundleSystem("f_geodesic_tm", f_tensor=force),
            init,
            IntegratorConfig(step=0.01, t_span=(0.0, 50.0)),
        )
    partial = err.value.trajectory
    assert partial.n >= 2
    assert np.all(np.isfinite(partial.x))
    assert err.value.time < 50.0


def test_monitor_drift_shrinks_by_sixteen_when_halving():
    ent, fam = euclid_oblique_family(0.5)

    def drift(h):
        traj = integrate(
            ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=h, t_span=(0.0, 1.0))
        )
        return max(np.max(np.abs(s - s[0])) for s in traj.monitors.values())

    d1, d2 = drift(0.02), drift(0.01)
    assert d1 / d2 > 8.0


def test_singular_metric_in_a_step_ends_as_blow_up():
    # the steps jump over the pole of poly2d at x1 = 0 and run on until g is singular
    init = BundleState(np.array([0.3, 1.0]), np.array([-1.0, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(
            catalog.entry("poly2d").structure,
            BundleSystem("geodesic_tm"),
            init,
            IntegratorConfig(step=0.01, t_span=(0.0, 5.0)),
        )
    assert isinstance(err.value.__cause__, SingularMetricError)
    partial = err.value.trajectory
    assert partial.n >= 2 and np.all(np.isfinite(partial.x))
    assert partial.times[-1] == err.value.time


def test_domain_error_in_a_step_ends_as_blow_up():
    # rho2 = 1/(t - 1) cannot be evaluated at t = 1
    scenario = load_scenario(SCENARIOS / "flat_diag_hphi_planar.json", t_span=(0.0, 1.2))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(scenario.structure, scenario.system, scenario.initial, scenario.integrator)
    assert isinstance(err.value.__cause__, EvalDomainError)
    partial = err.value.trajectory
    assert partial.times[-1] == err.value.time < 1.0
    assert partial.monitor_times.size == partial.n


def test_step_failing_at_its_start_point_ends_one_sample_earlier():
    # Euler evaluates nothing between samples, so x1 = 0, where ln(x1) fails,
    # is first evaluated by the step that starts there
    M = MetricStructure(
        2,
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["0", "-1"]],
        christoffel=[[["0*ln(x1)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    )
    init = BundleState(np.array([0.75, 0.0]), np.array([-1.0, 0.0]), np.zeros(2), np.zeros(2))
    cfg = IntegratorConfig(step=0.25, t_span=(0.0, 2.0), method="euler")
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(M, BundleSystem("geodesic_tm"), init, cfg)
    assert isinstance(err.value.__cause__, EvalDomainError)
    partial = err.value.trajectory
    np.testing.assert_array_equal(partial.x[:, 0], [0.75, 0.5, 0.25])
    assert err.value.time == partial.times[-1] == 0.5
