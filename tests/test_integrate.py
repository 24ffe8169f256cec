import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import reference_step

from bundleflow import catalog
from bundleflow.bundle import BundleState, BundleSystem, FTensor, make_rhs, normalized_unit_state
from bundleflow.errors import EvalDomainError, IntegrationBlowUp, SingularMetricError
from bundleflow.geometry import MetricStructure
from bundleflow.integrate import IntegratorConfig, _time_grid, convergence_order, integrate
from bundleflow.scenario import load_scenario
from bundleflow.verify import euclid_oblique_family

FLAT = catalog.entry("flat_diag")
EUCLID = catalog.entry("euclid_oblique")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# the module: the package exports its function integrate under the same name
integrate_mod = importlib.import_module("bundleflow.integrate")


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
    system = BundleSystem("f_geodesic_tm", f_tensor=force)
    cfg = IntegratorConfig(step=0.01, t_span=(0.0, 50.0))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(FLAT.structure, system, init, cfg)
    partial = err.value.trajectory
    assert partial.n >= 2
    assert np.all(np.isfinite(partial.x))
    assert err.value.time < 50.0
    # after several flushes of the row buffer, the rows are the array steps' rows
    assert partial.n > 1024
    _assert_run_is_the_array_run(partial, FLAT.structure, system, init, cfg)


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


@pytest.mark.parametrize("method, stages", [("rk4", 4), ("euler", 1)])
def test_run_record_counts_steps_and_rhs_calls(method, stages):
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=0.03, t_span=(0.0, 1.0), method=method)
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    meta = traj.meta
    assert meta["steps"] == traj.n - 1 == 34  # the last step is shortened
    assert meta["rhs_calls"] == stages * meta["steps"]
    for phase in ("rhs_build_s", "step_s", "monitor_s"):
        assert 0.0 <= meta[phase] < 60.0


def test_run_record_of_a_blow_up_counts_the_steps_taken():
    # rho2 = 1/(t - 1): the step from t = 0.999 fails in its last stage
    scenario = load_scenario(SCENARIOS / "flat_diag_hphi_planar.json", t_span=(0.0, 1.2))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(scenario.structure, scenario.system, scenario.initial, scenario.integrator)
    meta = err.value.trajectory.meta
    assert meta["steps"] == err.value.trajectory.n - 1
    assert meta["rhs_calls"] == 4 * meta["steps"] + 4


def _array_run(M, system, init, cfg):
    """The run by the numpy array steps of ``tests/reference_step.py``: its
    times and states, up to the last sample before the first failing step."""
    if system.on_unit_bundle:
        init = normalized_unit_state(M, init)
    rhs = reference_step.array_rhs(make_rhs(M, system))
    step = reference_step.rk4_step if cfg.method == "rk4" else reference_step.euler_step
    times = _time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step).tolist()
    ys = [init.flat()]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t_next in zip(times[:-1], times[1:]):
            try:
                y = step(rhs, t, ys[-1], t_next - t)
            except (SingularMetricError, EvalDomainError):
                break
            if not np.all(np.isfinite(y)):
                break
            ys.append(y)
    return np.array(times[: len(ys)]), np.array(ys)


def _assert_run_is_the_array_run(traj, M, system, init, cfg):
    times, ys = _array_run(M, system, init, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(np.hstack([traj.x, traj.xdot, traj.xi, traj.xidot]), ys)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("steps", [512, 257])
def test_buffered_states_are_the_array_steps_states(method, steps):
    # the stepped states are copied into the samples 256 at a time: a run
    # that fills the buffer exactly, and one that leaves one state in it
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=1 / 256, t_span=(0.0, steps / 256), method=method)
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    assert traj.n == steps + 1
    _assert_run_is_the_array_run(traj, ent.structure, fam.system, fam.initial_state(), cfg)


def test_blow_up_after_several_buffer_flushes_keeps_every_good_row():
    # rho2 = 1/(t - 1): the step from t = 0.999 fails, after 999 good steps
    scenario = load_scenario(SCENARIOS / "flat_diag_hphi_planar.json", t_span=(0.0, 1.2))
    args = scenario.structure, scenario.system, scenario.initial, scenario.integrator
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(*args)
    partial = err.value.trajectory
    assert partial.n == 1000 and partial.times[-1] == 0.999
    _assert_run_is_the_array_run(partial, *args)


def test_a_state_whose_sum_overflows_is_finite():
    # each fiber entry is finite, their sum is not: the run goes on
    init = BundleState(np.zeros(2), np.array([1.0, 0.5]), np.array([1.5e308, 1.5e308]), np.zeros(2))
    system = BundleSystem("geodesic_tm")
    cfg = IntegratorConfig(step=1 / 256, t_span=(0.0, 300 / 256))
    traj = integrate(FLAT.structure, system, init, cfg)
    states = np.hstack([traj.x, traj.xdot, traj.xi, traj.xidot])
    assert traj.n == 301 and np.all(np.isfinite(states))
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(states.sum(axis=1)))
    _assert_run_is_the_array_run(traj, FLAT.structure, system, init, cfg)


@pytest.mark.parametrize("method, stages", [("rk4", 4), ("euler", 1)])
def test_each_step_is_one_step_call_and_its_stages_rhs_calls(monkeypatch, method, stages):
    # the benchmark tracer counts steps and RHS calls by wrapping these names
    # where integrate looks them up
    calls = {"step": 0, "rhs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = integrate_mod.make_rhs
    monkeypatch.setattr(integrate_mod, "make_rhs", lambda *a, **k: counted("rhs", original(*a, **k)))
    for name in ("_rk4_step", "_euler_step"):
        monkeypatch.setattr(integrate_mod, name, counted("step", getattr(integrate_mod, name)))
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=0.1, t_span=(0.0, 1.0), method=method)
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    assert calls == {"step": 10, "rhs": stages * 10}
    assert traj.meta["steps"] == 10 and traj.meta["rhs_calls"] == stages * 10
