import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleflow import catalog
from bundleflow.errors import SignatureError, VerticalCurveError
from bundleflow.frenet import (
    CovariantJets,
    arc_length_reparam,
    covariant_jets,
    frenet_curvatures,
    samples_needed,
)
from bundleflow.geometry import MetricStructure
from bundleflow.integrate import IntegratorConfig, Trajectory, integrate
from bundleflow.scenario import load_scenario
from bundleflow.verify import const_curv_run, euclid_oblique_family
from reference_frenet import frenet_curvatures as loop_frenet_curvatures

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

FLAT2 = catalog.entry("flat_diag").structure
FLAT4 = catalog.entry("euclid_oblique").structure


def _circle(radius=0.75, n=2001, span=2.0 * math.pi):
    t = np.linspace(0.0, span, n)
    cos, sin = np.cos(t), np.sin(t)
    return Trajectory.from_base_curve(
        t,
        np.stack([radius * cos, radius * sin], axis=1),
        np.stack([-radius * sin, radius * cos], axis=1),
        np.stack([-radius * cos, -radius * sin], axis=1),
    )


def _helix(a=1.0, b=0.5, n=4001, span=2.0 * math.pi):
    t = np.linspace(0.0, span, n)
    cos, sin = np.cos(t), np.sin(t)
    zeros = np.zeros_like(t)
    return Trajectory.from_base_curve(
        t,
        np.stack([a * cos, a * sin, b * t, zeros], axis=1),
        np.stack([-a * sin, a * cos, np.full_like(t, b), zeros], axis=1),
        np.stack([-a * cos, -a * sin, zeros, zeros], axis=1),
    )


# -- arc length -----------------------------------------------------------------


def test_arc_length_of_oblique_geodesic_is_uniform():
    ent, fam = euclid_oblique_family(0.5)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 101))
    arc = arc_length_reparam(ent.structure, traj)
    np.testing.assert_allclose(arc.speed, math.sqrt(0.75), atol=1e-12)
    assert np.ptp(arc.speed) < 1e-12
    np.testing.assert_allclose(arc.s[-1], math.sqrt(0.75), atol=1e-10)


def test_arc_length_unit_speed_for_horizontal_geodesics():
    ent = catalog.entry("exp2d")
    lam = math.sqrt(0.5)
    fam = ent.family("natural_lift", lam=lam, eta=lam)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 101))
    arc = arc_length_reparam(ent.structure, traj)
    np.testing.assert_allclose(arc.speed, 1.0, atol=1e-12)


def test_arc_length_parabola():
    t = np.linspace(0.0, 1.0, 201)
    traj = Trajectory.from_base_curve(
        t,
        np.stack([t, t**2], axis=1),
        np.stack([np.ones_like(t), 2.0 * t], axis=1),
    )
    arc = arc_length_reparam(FLAT2, traj)
    np.testing.assert_allclose(arc.speed, np.sqrt(1.0 + 4.0 * t**2), atol=1e-12)


def test_arc_length_rejects_vertical_curves():
    c3 = np.array([1.0, 0.0, 0.0, 0.0])
    c4 = np.array([0.0, 1.0, 0.0, 0.0])
    fam = catalog.entry("euclid_oblique").family("vertical_oscillation", c3=c3, c4=c4)
    traj = fam.trajectory(FLAT4, np.linspace(0.0, 1.0, 51))
    with pytest.raises(VerticalCurveError):
        arc_length_reparam(FLAT4, traj)


# -- covariant jets ---------------------------------------------------------------


def test_jets_of_straight_line_vanish():
    t = np.linspace(0.0, 1.0, 101)
    traj = Trajectory.from_base_curve(
        t,
        np.stack([0.3 * t, -0.2 * t], axis=1),
        np.stack([np.full_like(t, 0.3), np.full_like(t, -0.2)], axis=1),
    )
    jets = covariant_jets(FLAT2, traj, 2)
    np.testing.assert_allclose(jets.jets[1], 0.0, atol=1e-12)


def test_jets_of_base_geodesic_vanish_at_order_two():
    ent = catalog.entry("exp2d")
    lam = math.sqrt(0.5)
    fam = ent.family("horizontal_lift", lam=lam, eta=lam, h1=1.0, h2=0.5)
    traj = fam.trajectory(ent.structure, np.linspace(0.0, 1.0, 101))
    jets = covariant_jets(ent.structure, traj, 2)
    np.testing.assert_allclose(jets.jets[1], 0.0, atol=1e-12)


def test_jet_recursion_matches_finite_differences():
    ent, init, traj = const_curv_run(1.0)
    by_fd = covariant_jets(ent.structure, traj, 3, method="fd")
    by_rec = covariant_jets(ent.structure, traj, 3, method="recursion")
    idx = np.searchsorted(by_rec.times, by_fd.times)
    np.testing.assert_allclose(by_fd.jets[2], by_rec.jets[2][idx], atol=1e-5)


def test_jet_recursion_reproduces_curvature_power_identity():
    # for the synthetic operator, jets satisfy gamma'''' = -b^2 c^2 gamma''
    ent, init, traj = const_curv_run(1.0)
    jets = covariant_jets(ent.structure, traj, 4, method="recursion")
    g = np.eye(4)
    xi_p = init.xidot
    phixi = ent.structure.phi_at(init.x) @ init.xi
    b_sq = (xi_p @ g @ xi_p) * (phixi @ g @ phixi) - (xi_p @ g @ phixi) ** 2
    np.testing.assert_allclose(jets.jets[3], -b_sq * jets.jets[1], atol=1e-6)


def test_jet_order_validation():
    t = np.linspace(0.0, 1.0, 21)
    traj = Trajectory.from_base_curve(
        t, np.stack([t, t], axis=1), np.stack([np.ones_like(t)] * 2, axis=1)
    )
    with pytest.raises(ValueError):
        covariant_jets(FLAT2, traj, 3)  # order > dim
    with pytest.raises(ValueError):
        covariant_jets(FLAT2, traj, 0)
    with pytest.raises(ValueError):
        covariant_jets(FLAT2, traj, 2, method="recursion")  # not a unit geodesic
    short = Trajectory.from_base_curve(
        t[:4], np.stack([t[:4], t[:4]], axis=1), np.ones((4, 2))
    )
    with pytest.raises(ValueError):
        covariant_jets(FLAT2, short, 2)  # too few samples


def _fd_run(n):  # geodesic_tm on H^2 x H^2: every jet order from 2 on is differenced
    sc = load_scenario(SCENARIOS / "h2xh2_geodesic.json")
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, (n - 1) * 1e-3))
    return sc.structure, integrate(sc.structure, sc.system, sc.initial, cfg)


def _recursion_run(n):  # geodesic_unit: the curvature recursion from order 4 on
    ent, _, traj = const_curv_run(1.0, t_span=(0.0, (n - 1) * 1e-3))
    return ent.structure, traj


def _closed_form(n):  # exact second derivatives: order 2 needs no differencing
    ent, fam = euclid_oblique_family(0.5)
    return ent.structure, fam.trajectory(ent.structure, np.linspace(0.0, 0.1, n))


@pytest.mark.parametrize(
    "path, exact_second, needed",
    [(_fd_run, False, {2: 5, 3: 6, 4: 8}), (_recursion_run, False, {2: 5, 3: 6, 4: 6}),
     (_closed_form, True, {2: 5, 3: 5, 4: 5})],
    ids=["fd", "recursion", "closed_form"],
)
@pytest.mark.parametrize("order", [2, 3, 4])
def test_jets_need_exactly_the_samples_of_the_rule(path, exact_second, needed, order):
    M, traj = path(needed[order])
    assert traj.n == needed[order]
    assert samples_needed(order, traj.meta["system"], exact_second) == needed[order]
    assert (traj.xddot is not None) is exact_second
    jets = covariant_jets(M, traj, order)
    assert jets.order == order and jets.times.size >= 2  # constancy is judged on two samples
    M, short = path(needed[order] - 1)
    assert short.n == needed[order] - 1
    with pytest.raises(ValueError, match=f"need {needed[order]} samples, got {short.n}"):
        covariant_jets(M, short, order)


def test_high_order_fd_jets_warn():
    flat6 = MetricStructure(
        6,
        np.eye(6).tolist(),
        np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]).tolist(),
        chart_box=[(-2.0, 2.0)] * 6,
    )
    t = np.linspace(0.0, 2.0 * math.pi, 801)
    cos, sin = np.cos(t), np.sin(t)
    zeros = np.zeros_like(t)
    curve = Trajectory.from_base_curve(
        t,
        np.stack([cos, sin, 0.5 * t, np.cos(2 * t), np.sin(2 * t), zeros], axis=1),
        np.stack([-sin, cos, np.full_like(t, 0.5), -2 * np.sin(2 * t), 2 * np.cos(2 * t), zeros], axis=1),
    )
    with pytest.warns(UserWarning, match="noise floor"):
        covariant_jets(flat6, curve, 5, method="fd")


# -- curvatures -------------------------------------------------------------------


def test_circle_curvature():
    circle = _circle(radius=0.75)
    result = frenet_curvatures(FLAT2, covariant_jets(FLAT2, circle, 2))
    np.testing.assert_allclose(result.means[0], 1.0 / 0.75, atol=1e-8)
    assert np.all(result.constancy < 1e-6)


def test_helix_curvatures_and_frame():
    helix = _helix(a=1.0, b=0.5)
    result = frenet_curvatures(FLAT4, covariant_jets(FLAT4, helix, 3))
    w_sq = 1.25
    np.testing.assert_allclose(result.means[0], 1.0 / w_sq, atol=1e-6)
    np.testing.assert_allclose(result.means[1], 0.5 / w_sq, atol=1e-6)
    # frame orthonormality in g at every sample
    for i in range(0, result.times.size, 500):
        frame = result.frames[i]
        gram = frame @ np.eye(4) @ frame.T
        np.testing.assert_allclose(gram, np.eye(frame.shape[0]), atol=1e-8)


def test_helix_frenet_ode_residual():
    # d nu_i / ds = -k_{i-1} nu_{i-1} + k_i nu_{i+1} holds along the helix
    helix = _helix(a=1.0, b=0.5)
    result = frenet_curvatures(FLAT4, covariant_jets(FLAT4, helix, 3))
    speed = result.speed[:, None]
    nu1, nu2 = result.frames[:, 0, :], result.frames[:, 1, :]
    k1 = result.curvatures[:, 0:1]
    k2 = result.curvatures[:, 1:2]
    dnu1 = np.gradient(nu1, result.times, axis=0) / speed
    err1 = np.max(np.abs(dnu1 - k1 * nu2)[5:-5])
    assert err1 < 1e-5
    # nu3 completes the rank-3 frame
    nu3 = result.frames[:, 2, :]
    dnu2 = np.gradient(nu2, result.times, axis=0) / speed
    err2 = np.max(np.abs(dnu2 - (-k1 * nu1 + k2 * nu3))[5:-5])
    assert err2 < 1e-5


def test_projected_oblique_geodesic_is_straight():
    ent, fam = euclid_oblique_family(0.5)
    traj = integrate(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    )
    result = frenet_curvatures(ent.structure, covariant_jets(ent.structure, traj, 2))
    assert result.frame_rank == 1
    assert np.max(np.abs(result.curvatures)) < 1e-7


def test_constancy_negative_control():
    # an accelerating planar curve has genuinely varying curvature
    t = np.linspace(0.0, 1.0, 401)
    x = np.stack([t, t**3], axis=1)
    xdot = np.stack([np.ones_like(t), 3.0 * t**2], axis=1)
    xddot = np.stack([np.zeros_like(t), 6.0 * t], axis=1)
    traj = Trajectory.from_base_curve(t, x, xdot, xddot)
    result = frenet_curvatures(FLAT2, covariant_jets(FLAT2, traj, 2))
    assert not np.all(result.constancy < 1e-4)


def test_indefinite_metric_raises_signature_error():
    # phi is pure for this g, but g restricted to the jet span is indefinite
    M = MetricStructure(2, [["1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]])
    t = np.linspace(0.0, 0.4, 101)
    x = np.stack([t, t**2], axis=1)
    xdot = np.stack([np.ones_like(t), 2.0 * t], axis=1)
    xddot = np.stack([np.zeros_like(t), np.full_like(t, 2.0)], axis=1)
    traj = Trajectory.from_base_curve(t, x, xdot, xddot)
    with pytest.raises(SignatureError):
        frenet_curvatures(M, covariant_jets(M, traj, 2))


def test_const_curv_run_constancy():
    ent, init, traj = const_curv_run(1.0)
    jets = covariant_jets(ent.structure, traj, 4)
    result = frenet_curvatures(ent.structure, jets)
    assert np.all(result.constancy < 1e-4)
    assert result.frame_rank == 3
    assert np.max(np.abs(result.curvatures[:, 2])) < 1e-6


# -- the array code against the per-sample loop ------------------------------------

_IDENTITY4 = np.eye(4).tolist()
CHARTS = {
    "definite": MetricStructure(
        4,
        [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.3], [0.1, 0.2, 1.5, 0.0], [0.0, 0.3, 0.0, 1.0]],
        _IDENTITY4,
    ),
    # positive definite on the first three coordinates, timelike along the fourth
    "indefinite": MetricStructure(
        4,
        [[1.0, 0.3, 0.0, 0.0], [0.3, 1.0, 0.2, 0.0], [0.0, 0.2, 1.0, 0.1], [0.0, 0.0, 0.1, -1.0]],
        _IDENTITY4,
    ),
    "varying": MetricStructure(
        4,
        [
            ["exp(x1)", "0.2*x2", "0", "0"],
            ["0.2*x2", "1 + x1^2", "0", "0"],
            ["0", "0", "2", "0.3*sin(x4)"],
            ["0", "0", "0.3*sin(x4)", "1"],
        ],
        _IDENTITY4,
    ),
    "exp2d": catalog.entry("exp2d").structure,
}


@st.composite
def _frenet_cases(draw):
    """A chart, sample points and jets, with planted zero velocities, dependent
    jets and NaN entries; on the indefinite chart the timelike coordinate of
    every jet is scaled down so that some cases pass."""
    name = draw(st.sampled_from(sorted(CHARTS)))
    dim = CHARTS[name].dim
    n = draw(st.integers(1, 40))
    order = draw(st.integers(2, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-0.5, 0.5, (n, dim))
    jets = rng.normal(size=(order, n, dim))
    if name == "indefinite":
        jets[..., 3] *= draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    plants = st.sampled_from(["zero", "dependent", "nan"])
    for kind in draw(st.lists(plants, max_size=4)):
        i = draw(st.integers(0, n - 1))
        if kind == "zero":
            jets[0, i] = 0.0
        elif kind == "dependent":
            k = draw(st.integers(1, order - 1))
            jets[k, i] = rng.normal(size=k) @ jets[:k, i]
        else:
            jets[draw(st.integers(0, order - 1)), i, draw(st.integers(0, dim - 1))] = np.nan
    return name, x, jets


def _outcome(frenet, M, jets):
    try:
        return frenet(M, jets)
    except (SignatureError, VerticalCurveError) as exc:
        return exc


_E = np.eye(4)
# a NaN entry at sample 1 gives NaN curvatures there, not an error
NAN_CASE = ("definite", np.zeros((3, 4)), np.array([_E[:3], [_E[1], [0.5, np.nan, 0, 0], _E[3]]]))
# sample 0 meets the timelike direction at jet 1; samples 1 and 2 fail at jet 0
SIGNATURE_CASE = ("indefinite", np.zeros((3, 4)), np.array([[_E[0], 0 * _E[0], _E[3]], [_E[3], _E[1], _E[1]]]))


@settings(max_examples=300, deadline=None)
@given(_frenet_cases())
@example(NAN_CASE)
@example(SIGNATURE_CASE)
def test_frenet_curvatures_equal_the_per_sample_loop(case):
    name, x, arrays = case
    M = CHARTS[name]
    jets = CovariantJets(np.arange(len(x), dtype=float), x, list(arrays))
    got = _outcome(frenet_curvatures, M, jets)
    want = _outcome(loop_frenet_curvatures, M, jets)
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert got.frame_rank == want.frame_rank
    for field in ("curvatures", "frames", "speed"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field


def _calls_in_one_run(M, jets) -> int:
    frenet_curvatures(M, jets)  # warm-up
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        frenet_curvatures(M, jets)
    finally:
        sys.setprofile(None)
    return events


def test_frenet_curvatures_make_as_many_calls_at_1000_samples_as_at_10():
    counts = [
        _calls_in_one_run(FLAT4, covariant_jets(FLAT4, _helix(n=n), 3)) for n in (10, 1000)
    ]
    assert counts[0] == counts[1]
