import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import reference_step

from bundleflow import catalog, cli
from bundleflow.bundle import (
    SYSTEM_KINDS,
    BundleState,
    BundleSystem,
    FPlanarCoefficients,
    FTensor,
    make_rhs,
    normalized_unit_state,
    phi_mirror,
)
from bundleflow.errors import EvalDomainError, IntegrationBlowUp, SingularMetricError
from bundleflow.geometry import MetricStructure
from bundleflow.integrate import (
    MONITOR_NAMES,
    IntegratorConfig,
    Trajectory,
    _time_grid,
    compute_monitors,
    convergence_order,
    integrate,
)
from bundleflow.scenario import load_scenario
from bundleflow.verify import euclid_oblique_family
from charts import derived_twin

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
    with pytest.raises(TypeError):  # RK4 is the one method: there is none to choose
        IntegratorConfig(step=0.1, t_span=(0.0, 1.0), method="rk4")


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


def test_convergence_order_rk4():
    ent, fam = euclid_oblique_family(0.5)
    order = convergence_order(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=0.05, t_span=(0.0, 1.0))
    )
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_euler(monkeypatch):
    # the negative control: forward Euler (the array step of
    # tests/reference_step.py) in place of the RK4 step measures order 1
    def euler_step(rhs, t, y, h, kernel):
        return tuple(reference_step.euler_step(reference_step.array_rhs(rhs), t, np.array(y), h).tolist())

    monkeypatch.setattr(integrate_mod, "_rk4_step", euler_step)
    ent, fam = euclid_oblique_family(0.5)
    order = convergence_order(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=0.05, t_span=(0.0, 1.0))
    )
    assert order == pytest.approx(1.0, abs=0.3)


def test_convergence_order_skipped_for_exact_solutions():
    # straight lines are resolved exactly; the estimate has no signal
    init = BundleState(np.zeros(2), np.array([0.3, 0.4]), np.array([1.0, 0.0]), np.zeros(2))
    order = convergence_order(
        FLAT.structure, BundleSystem("geodesic_tm"), init, IntegratorConfig(step=0.1, t_span=(0.0, 1.0))
    )
    assert order is None


def test_a_samples_state_and_monitors_do_not_depend_on_the_run_length():
    runs = []
    for t1 in (1.0, 0.5):
        scenario = load_scenario(SCENARIOS / "h2xh2_geodesic.json", t_span=(0.0, t1))
        runs.append(
            integrate(scenario.structure, scenario.system, scenario.initial, scenario.integrator)
        )
    long, short = runs
    shared = short.n - 1  # a run's last step may be cut short to land on t1
    assert shared == 500 and long.n == 1001
    for block in ("times", "x", "xdot", "xi", "xidot"):
        assert np.array_equal(getattr(long, block)[:shared], getattr(short, block)[:shared]), block
    for name, series in short.monitors.items():
        assert np.array_equal(long.monitors[name][:shared], series[:shared]), name


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
    assert err.value.trajectory.times[-1] < 50.0
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


def test_domain_error_in_a_step_ends_as_blow_up():
    # rho2 = 1/(t - 1) cannot be evaluated at t = 1
    scenario = load_scenario(SCENARIOS / "flat_diag_hphi_planar.json", t_span=(0.0, 1.2))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(scenario.structure, scenario.system, scenario.initial, scenario.integrator)
    assert isinstance(err.value.__cause__, EvalDomainError)
    partial = err.value.trajectory
    assert partial.times[-1] < 1.0
    assert all(series.shape == partial.times.shape for series in partial.monitors.values())


def _ln_chart() -> MetricStructure:
    """A chart whose Gamma^1_11 = 0 ln(x1) cannot be evaluated at x1 <= 0,
    and whose Gamma^1_22 = -x2 bends a curve towards x1 = 0 ever faster."""
    return MetricStructure(
        2,
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["0", "-1"]],
        christoffel=[[["0*ln(x1)", "0"], ["0", "-x2"]], [["0", "0"], ["0", "0"]]],
    )


# RK4 with step 0.25 from here first lands on x1 <= 0 at the sample t = 0.75;
# no stage before it evaluates x1 <= 0
_TO_THE_LN_POLE = BundleState(np.array([0.4912109375, 0.0]), np.array([-0.75, 1.0]), np.zeros(2),
                              np.zeros(2))
# the x1 of the samples before it, and their monitors
_LN_ROWS = [0.4912109375, 0.3063151041666667, 0.13704427083333337]
_LN_MONITORS = {"unit_norm": [0.0] * 3, "rho_sq": [0.0] * 3,
                "speed_sq": [1.5625, 1.5166015625, 1.390625], "fiber_ortho": [0.0] * 3}
_LN_ERROR = r"^ln of non-positive value -0\.0009765624999999445 at \[-0\.00097656  0\.75      \] "


def _assert_the_ln_partial(partial, rhs_calls):
    assert partial.times.tolist() == [0.0, 0.25, 0.5]
    assert partial.x[:, 0].tolist() == _LN_ROWS
    assert partial.meta["steps"] == 3 and partial.meta["rhs_calls"] == rhs_calls
    assert {name: series.tolist() for name, series in partial.monitors.items()} == _LN_MONITORS


def test_step_failing_at_its_start_point_ends_one_sample_earlier():
    # x1 <= 0, where ln(x1) fails, is first evaluated by the step that starts
    # there: its first RHS call fails, and the sample it starts from is dropped
    cfg = IntegratorConfig(step=0.25, t_span=(0.0, 1.0))
    with pytest.raises(IntegrationBlowUp, match=_LN_ERROR + r"in the step from t = 0\.75$") as err:
        integrate(_ln_chart(), BundleSystem("geodesic_tm"), _TO_THE_LN_POLE, cfg)
    assert isinstance(err.value.__cause__, EvalDomainError)
    _assert_the_ln_partial(err.value.trajectory, rhs_calls=13)


def test_geometry_failing_at_the_final_sample_ends_as_blow_up(monkeypatch):
    # no step starts from the final sample x1 = 0: it is checked without a
    # right-hand-side call, and ends like the step from it in a longer span
    rhs_calls = []
    original = integrate_mod.make_rhs

    def counted_make_rhs(*args, **kwargs):
        rhs = original(*args, **kwargs)
        return lambda t, y: rhs_calls.append(t) or rhs(t, y)

    monkeypatch.setattr(integrate_mod, "make_rhs", counted_make_rhs)
    cfg = IntegratorConfig(step=0.25, t_span=(0.0, 0.75))
    with pytest.raises(IntegrationBlowUp, match=_LN_ERROR + r"at the final sample, t = 0\.75$") as err:
        integrate(_ln_chart(), BundleSystem("geodesic_tm"), _TO_THE_LN_POLE, cfg)
    assert isinstance(err.value.__cause__, EvalDomainError)
    assert len(rhs_calls) == 12
    _assert_the_ln_partial(err.value.trajectory, rhs_calls=12)


def test_a_geometry_error_the_steps_vouched_for_is_raised_by_the_monitors(monkeypatch):
    # the final-sample check reads the geometry of all the samples, which the
    # monitors then read; an error there that the final sample alone does not
    # raise leaves the run whole, and the monitors raise it when read
    ent, fam = euclid_oblique_family(0.5)
    phi_at = MetricStructure.phi_at

    def failing_on_stacks(self, point):
        if np.ndim(point) == 2 and len(point) > 1:
            raise EvalDomainError("phi fails on the stack")
        return phi_at(self, point)

    monkeypatch.setattr(MetricStructure, "phi_at", failing_on_stacks)
    cfg = IntegratorConfig(step=0.25, t_span=(0.0, 1.0))
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    assert traj.n == 5 and traj.meta["steps"] == 4
    with pytest.raises(EvalDomainError, match="^phi fails on the stack$"):
        traj.monitors  # noqa: B018


def test_run_record_counts_steps_and_rhs_calls():
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=0.03, t_span=(0.0, 1.0))
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    meta = traj.meta
    assert meta["steps"] == traj.n - 1 == 34  # the last step is shortened
    assert meta["rhs_calls"] == 4 * meta["steps"]
    for phase in ("rhs_build_s", "step_s"):
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
    times = _time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step).tolist()
    ys = [init.flat()]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t_next in zip(times[:-1], times[1:]):
            try:
                y = reference_step.rk4_step(rhs, t, ys[-1], t_next - t)
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


@pytest.mark.parametrize("steps", [512, 257])
def test_buffered_states_are_the_array_steps_states(steps):
    # the stepped states are copied into the samples 256 at a time: a run
    # that fills the buffer exactly, and one that leaves one state in it
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=1 / 256, t_span=(0.0, steps / 256))
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


def test_each_step_is_one_step_call_and_its_stages_rhs_calls(monkeypatch):
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
    monkeypatch.setattr(integrate_mod, "_rk4_step", counted("step", integrate_mod._rk4_step))
    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=0.1, t_span=(0.0, 1.0))
    traj = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    assert calls == {"step": 10, "rhs": 40}
    assert traj.meta["steps"] == 10 and traj.meta["rhs_calls"] == 40


# -- monitors on first read ------------------------------------------------------


def _assert_monitors_are_the_eager_ones(M, traj):
    """traj's monitors equal, bit for bit, those compute_monitors fills in
    on a trajectory of the same samples."""
    eager = Trajectory(traj.times, traj.x, traj.xdot, traj.xi, traj.xidot)
    compute_monitors(M, eager)
    assert tuple(traj.monitors) == tuple(eager.monitors) == MONITOR_NAMES
    for name in MONITOR_NAMES:
        assert traj.monitors[name].tobytes() == eager.monitors[name].tobytes(), name


def _phi_unit_starts():
    """A structure and a state on its phi-unit bundle, for each chart path:
    varying analytic Gamma, Gamma from jets of g, constant Gamma in dim 4."""
    exp2d = catalog.entry("exp2d").structure
    lift = catalog.entry("exp2d").family("natural_lift", lam=math.sqrt(0.5), eta=math.sqrt(0.5))
    ent, oblique = euclid_oblique_family(0.5)
    return {
        "exp2d": (exp2d, lift.initial_state()),
        "fd_exp2d": (derived_twin(exp2d), lift.initial_state()),
        "euclid_oblique": (ent.structure, oblique.initial_state()),
    }


@pytest.mark.parametrize("chart", ["exp2d", "fd_exp2d", "euclid_oblique"])
@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_monitors_of_an_integrated_run_are_the_eager_ones(chart, kind):
    M, init = _phi_unit_starts()[chart]
    system = BundleSystem(
        kind,
        f_tensor=FTensor(is_phi=True) if kind.startswith("f_") else None,
        coefficients=FPlanarCoefficients.parse("0.5 + t", "1 - t^2")
        if kind.startswith("f_planar") else None,
    )
    traj = integrate(M, system, init, IntegratorConfig(step=0.05, t_span=(0.0, 0.5)))
    _assert_monitors_are_the_eager_ones(M, traj)


@pytest.mark.parametrize(
    "entry_name, family, params",
    [
        ("exp2d", "natural_lift", dict(lam=math.sqrt(0.5), eta=math.sqrt(0.5))),
        ("exp2d", "horizontal_lift", dict(lam=math.sqrt(0.5), eta=math.sqrt(0.5), h1=1.0, h2=0.5)),
        ("flat_diag", "hphi_geodesic", {}),
        ("flat_diag", "hphi_planar", {}),
        ("poly2d", "f_geodesic_lift", {}),
        ("poly2d", "f_planar_lift", {}),
    ],
)
def test_monitors_of_a_closed_form_and_its_mirror_are_the_eager_ones(entry_name, family, params):
    ent = catalog.entry(entry_name)
    M = ent.structure
    traj = ent.family(family, **params).trajectory(M, np.linspace(0.0, 0.9, 31))
    _assert_monitors_are_the_eager_ones(M, traj)
    if entry_name == "exp2d":  # the chart here whose phi is parallel
        mirrored = phi_mirror(M, traj)
        _assert_monitors_are_the_eager_ones(M, mirrored)
        _assert_monitors_are_the_eager_ones(M, phi_mirror(M, mirrored))


def test_monitors_are_computed_once_and_only_when_read(monkeypatch, tmp_path):
    calls = []
    original = integrate_mod.compute_monitors
    monkeypatch.setattr(
        integrate_mod, "compute_monitors", lambda M, traj: calls.append(traj) or original(M, traj)
    )
    # the Frenet analysis reads no monitor
    assert cli.main(["frenet", "--scenario", str(SCENARIOS / "euclid_oblique.json"),
                     "--out", str(tmp_path)]) == 0
    assert calls == []
    ent, fam = euclid_oblique_family(0.5)
    M = ent.structure
    closed = fam.trajectory(M, np.linspace(0.0, 1.0, 11))
    mirrored = phi_mirror(M, closed)
    run = integrate(M, fam.system, fam.initial_state(), IntegratorConfig(step=0.1, t_span=(0.0, 1.0)))
    assert calls == []
    for traj in (closed, mirrored, run):
        first = traj.monitors
        assert traj.monitors is first
    assert calls == [closed, mirrored, run]
    # the partial trajectory of a blow-up carries its monitors
    calls.clear()
    cfg = IntegratorConfig(step=0.25, t_span=(0.0, 0.75))
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(_ln_chart(), BundleSystem("geodesic_tm"), _TO_THE_LN_POLE, cfg)
    partial = err.value.trajectory
    assert calls == [partial]
    assert all(series.shape == partial.times.shape for series in partial.monitors.values())
    assert calls == [partial]
