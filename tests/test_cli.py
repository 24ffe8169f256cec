import dataclasses
import importlib
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bundleflow
from bundleflow import bundle, catalog, cli, expressions, scenario
from bundleflow.bundle import BundleSystem, FPlanarCoefficients, FTensor, make_rhs
from bundleflow.errors import ScenarioError
from bundleflow.scenario import load_scenario, scenario_from_dict
from bundleflow.verify import euclid_oblique_family
from charts import deep_g11

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def oblique_scenario_doc() -> dict:
    ent, fam = euclid_oblique_family(0.5)
    st = fam.initial_state()
    return {
        "name": "oblique",
        "manifold": "euclid_oblique",
        "system": "geodesic_unit",
        "initial": {
            "x": st.x.tolist(),
            "xdot": st.xdot.tolist(),
            "xi": st.xi.tolist(),
            "xidot": st.xidot.tolist(),
        },
        "integrator": {"step": 1e-3, "t_span": [0.0, 1.0]},
        "seed": 7,
    }


@pytest.fixture
def oblique_scenario(tmp_path):
    path = tmp_path / "oblique.json"
    path.write_text(json.dumps(oblique_scenario_doc()))
    return path


def test_no_bundleflow_class_is_a_dataclass():
    # every command imports the whole package first, and generating the code
    # of a dataclass costs about 100 times as much as a class with __slots__
    names = [m.name for m in pkgutil.iter_modules(bundleflow.__path__)]
    modules = [bundleflow] + [importlib.import_module(f"bundleflow.{name}") for name in names]
    assert cli in modules and expressions in modules
    found = [f"{m.__name__}.{name}" for m in modules for name, obj in vars(m).items()
             if dataclasses.is_dataclass(obj) and obj.__module__.startswith("bundleflow")]
    assert found == []


# -- check ----------------------------------------------------------------------


def test_check_passes_on_catalog_entry(tmp_path, capsys):
    rc = run("check", "--scenario", SCENARIOS / "euclid_oblique.json", "--out", tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {
        "norden",
        "parallel_phi",
        "curvature_purity",
    }
    assert "PASS" in capsys.readouterr().out


def test_check_fails_on_random_phi(tmp_path):
    rc = run("check", "--scenario", SCENARIOS / "inline_random_phi.json", "--out", tmp_path)
    assert rc == 1
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "norden"
    assert not report["checks"][0]["passed"]


def test_check_of_a_constant_chart_at_one_point(tmp_path):
    doc = json.loads((SCENARIOS / "inline_random_phi.json").read_text())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**doc, "check_points": 1}))  # a one-row jet of a constant g
    assert run("check", "--scenario", path, "--out", tmp_path) == 1
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["norden", "parallel_phi"]
    assert report["checks"][1]["max_residual"] == 0.0  # constant phi, zero Γ


def test_check_of_a_singular_constant_metric_names_one_point(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": {"dim": 2, "g": [["1", "1"], ["1", "1"]],
                                             "phi": [["1", "0"], ["0", "-1"]]}}))
    assert run("check", "--scenario", path, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: metric singular at [") and err.endswith("]: |det g| = 0 <= 1e-12 max|g_ij|^2 = 1e-12\n")
    _assert_failed_without_residuals(tmp_path / "check_report.json")


def test_check_of_a_chart_outside_a_field_domain_writes_a_failed_report(tmp_path, capsys):
    # ln(x1) on the default box [-1, 1]^2: the sampled points with x1 <= 0
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": {"dim": 2, "g": [["ln(x1)", "0"], ["0", "1"]],
                                             "phi": [["1", "0"], ["0", "-1"]]}}))
    assert run("check", "--scenario", path, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ln of non-positive value ")
    _assert_failed_without_residuals(tmp_path / "check_report.json")


def _assert_failed_without_residuals(path):
    """Every check of the report failed with a null residual, at its own
    tolerance and sample size."""
    report = _strict_json(path.read_text())
    assert report["passed"] is False
    assert [(c["name"], c["passed"], c["max_residual"], c["tol"], c["n_points"])
            for c in report["checks"]] == [("norden", False, None, 1e-8, 100),
                                           ("parallel_phi", False, None, 1e-8, 100),
                                           ("curvature_purity", False, None, 1e-6, 20)]


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# 1/1e-320 overflows to inf and 0 * inf is NaN: g22 is NaN everywhere
NAN_CHART = {"dim": 2, "g": [["1", "0"], ["0", "1 + 0*(1/1e-320)"]], "phi": [["1", "0"], ["0", "-1"]]}


def test_check_of_a_nan_chart_writes_strict_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": NAN_CHART}))
    with np.errstate(invalid="ignore"):  # numpy's det of a NaN matrix
        assert run("check", "--scenario", path, "--out", tmp_path) == 1
    report = _strict_json((tmp_path / "check_report.json").read_text())
    assert report["passed"] is False
    assert [c["max_residual"] for c in report["checks"]] == [None, None, None]
    assert report["checks"][0]["details"] == {"purity": None, "phi_square": 0.0}


def test_integrate_on_a_nan_chart_stops_at_the_first_step(tmp_path, capsys):
    doc = {
        "manifold": NAN_CHART,
        "system": "geodesic_tm",
        "initial": {"x": [0, 0], "xdot": [1, 0], "xi": [1, 0], "xidot": [0, 0]},
        "integrator": {"step": 0.01, "t_span": [0, 1]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("integrate", "--scenario", path, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "integration blew up: non-finite state at t = 0.01; partial output written" in err
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines == ["t,x1,x2,xdot1,xdot2,xi1,xi2,xidot1,xidot2", "0,0,0,1,0,1,0,0,0"]


def test_check_flat_diag_parallel_residual_exactly_zero(tmp_path):
    doc = {"manifold": "flat_diag", "checks": ["norden", "parallel_phi"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("check", "--scenario", path, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    residuals = {c["name"]: c["max_residual"] for c in report["checks"]}
    assert residuals["parallel_phi"] == 0.0


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert run("check", "--scenario", missing, "--out", tmp_path) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("check", "--scenario", bad, "--out", tmp_path) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"manifold": "nonexistent_entry"}))
    assert run("check", "--scenario", unknown, "--out", tmp_path) == 2
    badexpr = tmp_path / "badexpr.json"
    badexpr.write_text(
        json.dumps({"manifold": {"dim": 2, "g": [["1", "0"], ["0", "oops("]], "phi": [["1", "0"], ["0", "-1"]]}})
    )
    assert run("check", "--scenario", badexpr, "--out", tmp_path) == 2


@pytest.mark.parametrize("system, message", [
    ({"system": "spiral"}, "unknown system kind 'spiral'"),
    ({"system": "f_geodesic_tm"}, "system 'f_geodesic_tm' needs an F tensor"),
    ({"system": "geodesic_tm", "F": [[0, 1], [1, 0]]}, "system 'geodesic_tm' takes no F tensor"),
    ({"system": "f_planar_tm", "F": [[0, 1], [1, 0]]}, "'f_planar_tm' needs coefficient functions"),
    ({"system": "f_planar_tm", "rho1": "t"}, "need both rho1 and rho2"),
    ({"system": "geodesic_unit", "rho1": "0", "rho2": "1"}, "takes no coefficient functions"),
])
def test_a_system_without_what_its_kind_needs_or_with_more_is_refused(system, message):
    # an inline manifold has no default F
    doc = {"manifold": {"dim": 2, "g": [["1", "0"], ["0", "1"]], "phi": [["1", "0"], ["0", "-1"]]}}
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict({**doc, **system})


def test_check_of_a_field_that_nests_too_deeply_exits_2(tmp_path, capsys):
    # a g11 of 1200 terms: one configuration-error line, not a RecursionError traceback
    g11 = " + ".join(f"x1*{k}" for k in range(1200))
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": {"dim": 2, "g": [[g11, "0"], ["0", "1"]],
                                             "phi": [["1", "0"], ["0", "-1"]]}}))
    assert run("check", "--scenario", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: bad inline manifold: expression nests 1201 levels"
                   " deep, more than the 600 supported (at byte 0)\n")
    assert not (tmp_path / "out").exists()


# -- integrate -------------------------------------------------------------------


def test_integrate_of_a_field_near_the_depth_limit_exits_0(tmp_path):
    # a g11 of 590 terms compiles into the right-hand side and runs
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "manifold": {"dim": 2, "g": [[deep_g11(590), "0"], ["0", "1"]], "phi": [["1", "0"], ["0", "-1"]]},
        "system": "geodesic_tm",
        "initial": {"x": [0, 0], "xdot": [1, 0], "xi": [1, 0], "xidot": [0, 0]},
        "integrator": {"step": 0.01, "t_span": [0, 1]},
    }))
    assert run("integrate", "--scenario", path, "--out", tmp_path / "out") == 0
    assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 102


def test_integrate_matches_closed_form(tmp_path, oblique_scenario):
    rc = run("integrate", "--scenario", oblique_scenario, "--out", tmp_path)
    assert rc == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == (
        ["t"]
        + [f"x{i}" for i in range(1, 5)]
        + [f"xdot{i}" for i in range(1, 5)]
        + [f"xi{i}" for i in range(1, 5)]
        + [f"xidot{i}" for i in range(1, 5)]
    )
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (1001, 17)
    ent, fam = euclid_oblique_family(0.5)
    ref = fam.trajectory(ent.structure, data[:, 0])
    np.testing.assert_allclose(data[:, 1:5], ref.x, atol=1e-8)
    np.testing.assert_allclose(data[:, 9:13], ref.xi, atol=1e-8)
    mon = np.loadtxt(tmp_path / "monitors.csv", delimiter=",", skiprows=1)
    head = (tmp_path / "monitors.csv").read_text().splitlines()[0]
    assert head == "t,unit_norm,rho_sq,speed_sq,fiber_ortho"
    np.testing.assert_allclose(mon[:, 1], 1.0, atol=1e-9)
    np.testing.assert_allclose(mon[:, 2], 0.25, atol=1e-9)
    np.testing.assert_allclose(mon[:, 3], 0.75, atol=1e-9)
    np.testing.assert_allclose(mon[:, 4], 0.0, atol=1e-9)


def test_integrate_is_deterministic(tmp_path, oblique_scenario):
    run("integrate", "--scenario", oblique_scenario, "--out", tmp_path / "a")
    run("integrate", "--scenario", oblique_scenario, "--out", tmp_path / "b")
    for name in ("trajectory.csv", "monitors.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_integrate_zero_span_writes_headers_only(tmp_path, oblique_scenario):
    rc = run(
        "integrate", "--scenario", oblique_scenario, "--out", tmp_path, "--tspan", "0,0"
    )
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("t,x1")
    assert (tmp_path / "monitors.csv").read_text().splitlines() == [
        "t,unit_norm,rho_sq,speed_sq,fiber_ortho"
    ]


def test_integrate_overrides(tmp_path, oblique_scenario):
    rc = run(
        "integrate",
        "--scenario",
        oblique_scenario,
        "--out",
        tmp_path,
        "--step",
        "0.05",
        "--tspan",
        "0,0.5",
    )
    assert rc == 0
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 11
    assert data[-1, 0] == 0.5


def test_integrate_blow_up_writes_partial_and_exits_1(tmp_path):
    doc = {
        "manifold": "flat_diag",
        "system": "f_geodesic_tm",
        "F": [["50", "0"], ["0", "50"]],
        "initial": {
            "x": [0.0, 0.0],
            "xdot": [1.0, 0.0],
            "xi": [1.0, 0.0],
            "xidot": [0.0, 0.0],
        },
        "integrator": {"step": 0.01, "t_span": [0.0, 50.0]},
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    rc = run("integrate", "--scenario", path, "--out", tmp_path)
    assert rc == 1
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] >= 2
    assert np.all(np.isfinite(data))


def pole_scenario_doc() -> dict:
    # from x1 = 0.3 toward the pole of poly2d at x1 = 0, which a step of 0.01 jumps over
    return {
        "manifold": "poly2d",
        "system": "geodesic_tm",
        "initial": {"x": [0.3, 1.0], "xdot": [-1.0, 0.0], "xi": [0.0, 0.0], "xidot": [0.0, 0.0]},
        "integrator": {"step": 0.01, "t_span": [0.0, 5.0]},
    }


@pytest.mark.parametrize(
    "case, t_limit",
    [("domain_error", 1.0), ("singular_metric", 5.0)],
)
def test_failure_inside_a_run_writes_partial_and_exits_1(tmp_path, capsys, case, t_limit):
    if case == "domain_error":
        # rho2 = 1/(t - 1) cannot be evaluated at t = 1
        path, extra = SCENARIOS / "flat_diag_hphi_planar.json", ["--tspan", "0,1.2"]
    else:
        path, extra = tmp_path / "pole.json", []
        path.write_text(json.dumps(pole_scenario_doc()))
    rc = run("integrate", "--scenario", path, "--out", tmp_path, *extra)
    assert rc == 1
    assert "partial output written" in capsys.readouterr().err
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    mon = np.loadtxt(tmp_path / "monitors.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == mon.shape[0] >= 2
    assert np.all(np.isfinite(data)) and np.all(np.isfinite(mon))
    assert data[-1, 0] < t_limit


@pytest.mark.parametrize(
    "t1, reason",
    [("0.75", "at the final sample, t = 0.75"), ("1", "in the step from t = 0.75")],
)
def test_geometry_failing_at_the_last_sample_writes_partial_and_exits_1(tmp_path, capsys, t1, reason):
    # RK4 first lands on x1 <= 0, where Gamma^1_11 = 0 ln(x1) fails, at t = 0.75
    # (Gamma^1_22 = -x2 bends the curve towards it), and no stage before it
    # evaluates x1 <= 0: as the final sample or as the start of one more
    # step, the run ends the same way
    doc = {
        "manifold": {"dim": 2, "g": [["1", "0"], ["0", "1"]], "phi": [["1", "0"], ["0", "-1"]],
                     "christoffel": [[["0*ln(x1)", "0"], ["0", "-x2"]], [["0", "0"], ["0", "0"]]]},
        "system": "geodesic_tm",
        "initial": {"x": [0.4912109375, 0], "xdot": [-0.75, 1], "xi": [0, 0], "xidot": [0, 0]},
        "integrator": {"step": 0.25, "t_span": [0, float(t1)]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("integrate", "--scenario", path, "--out", out) == 1
    assert capsys.readouterr().err == (
        "integration blew up: ln of non-positive value -0.0009765624999999445 at "
        f"[-0.00097656  0.75      ] {reason}; partial output written\n"
    )
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert traj[:, :2].tolist() == [[0.0, 0.4912109375], [0.25, 0.3063151041666667],
                                    [0.5, 0.13704427083333337]]
    assert (out / "monitors.csv").read_text() == (
        "t,unit_norm,rho_sq,speed_sq,fiber_ortho\n"
        "0,0,0,1.5625,0\n"
        "0.25,0,0,1.5166015625,0\n"
        "0.5,0,0,1.390625,0\n"
    )


def test_failure_at_the_first_step_exits_1_with_the_error(tmp_path, capsys):
    doc = pole_scenario_doc()
    doc["initial"]["x"] = [0.0, 1.0]  # g and Gamma cannot be evaluated at the start
    path = tmp_path / "at_pole.json"
    path.write_text(json.dumps(doc))
    assert run("integrate", "--scenario", path, "--out", tmp_path) == 1
    assert "error: division by zero" in capsys.readouterr().err


def test_step_override_keeps_span_and_method(tmp_path):
    # the override changes the step alone: the run is the span's RK4 run at step 0.05
    doc = oblique_scenario_doc()
    doc["integrator"] = {"step": 0.1, "t_span": [0.0, 0.5]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("integrate", "--scenario", path, "--out", tmp_path, "--step", "0.05") == 0
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    mon = np.loadtxt(tmp_path / "monitors.csv", delimiter=",", skiprows=1)
    from bundleflow.integrate import IntegratorConfig, integrate

    ent, fam = euclid_oblique_family(0.5)
    cfg = IntegratorConfig(step=0.05, t_span=(0.0, 0.5))
    ref = integrate(ent.structure, fam.system, fam.initial_state(), cfg)
    assert np.array_equal(data[:, 0], ref.times)
    assert np.array_equal(data[:, 1:5], ref.x)
    assert np.array_equal(mon[:, 0], ref.times)


@pytest.mark.parametrize("tspan", ["0", "0,1,2", "a,b", "0;1"])
def test_malformed_tspan_exits_2(tmp_path, oblique_scenario, tspan):
    rc = run("integrate", "--scenario", oblique_scenario, "--out", tmp_path, "--tspan", tspan)
    assert rc == 2
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("tspan", ["0,inf", "inf,inf"])
def test_infinite_tspan_exits_2(tmp_path, capsys, oblique_scenario, tspan):
    rc = run("integrate", "--scenario", oblique_scenario, "--out", tmp_path, "--tspan", tspan)
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


_INLINE = {"dim": 2, "g": [["exp(2*x1)", "0"], ["0", "exp(2*x2)"]], "phi": [["1", "0"], ["0", "-1"]]}


@pytest.mark.parametrize(
    "change",
    [
        {"g": None},
        {"g": [["exp(2*x1)", "0"]]},  # one row for dim 2
        {"g": [["exp(2*x1)", "0"], ["0", "exp(2*x2"]]},
        {"phi": [["1", "0"], ["0", "y7"]]},  # no coordinate y7
        {"christoffel": [[["0"]]]},
        {"chart_box": [[math.nan, 1.0], [-1.0, 1.0]]},
        {"chart_box": [[-1.0, 1.0], [-1.0, math.inf]]},
        {"chart_box": [[1.0, 1.0], [-1.0, 1.0]]},  # lo = hi
        {"chart_box": [[-1.0, 1.0], [1.0, -1.0]]},  # lo > hi
        {"chart_box": [[-1.0, 1.0]]},
        {"chart_box": {}},
    ],
)
def test_bad_inline_manifold_values_exit_2(tmp_path, capsys, change):
    # each one used to end in a traceback with exit 1, or pass unnoticed
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"manifold": {**_INLINE, **change}}))  # NaN/Infinity literals
    assert run("check", "--scenario", path, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "configuration error: bad inline manifold" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize(
    "command, change, extra",
    [
        ("check", {"check_points": 0}, []),
        ("check", {"check_points": -5}, []),
        ("check", {"seed": -1}, []),
        ("check", {}, ["--seed", "-1"]),
        ("integrate", {}, ["--seed", "-1"]),
        ("verify", None, ["--seed", "-1"]),
        ("frenet", {"frenet": {"order": 1}}, []),
        ("frenet", {"frenet": {"order": 5}}, []),  # the chart has dimension 4
        ("frenet", {"frenet": {"constancy_tol": math.nan}}, []),
        ("frenet", {"frenet": {"constancy_tol": math.inf}}, []),
        ("frenet", {"frenet": {"constancy_tol": 0.0}}, []),
        ("frenet", {"frenet": {"constancy_tol": -1e-4}}, []),
        # a key the parser does not read, at each level of the document: the
        # row gives the change and the error line
        ("integrate", ({"output": {"trajectory": "t.csv"}}, "unknown scenario key 'output'"), []),
        ("integrate", ({"monitor_every": 1}, "unknown scenario key 'monitor_every'"), []),
        # integer fields take integral numbers only: no bools, fractions or strings
        ("check", {"check_points": 2.9}, []),
        ("check", {"check_points": "100"}, []),
        ("check", {"seed": True}, []),
        ("check", {"seed": 7.5}, []),
        ("frenet", {"frenet": {"order": 2.5}}, []),
        ("frenet", {"frenet": {"order": False}}, []),
        ("integrate", ({"integrator": {"step": 1e-3, "t_span": [0.0, 1.0], "monitor_every": 10}},
                       "unknown integrator key 'monitor_every'"), []),
        ("integrate", ({"integrator": {"step": 1e-3, "t_span": [0.0, 0.0], "h": 1e-3}},  # a zero span too
                       "unknown integrator key 'h'"), []),
        ("check", {"manifold": {"dim": 2.5, "g": [[1, 0], [0, 1]], "phi": [[1, 0], [0, -1]]}}, []),
        ("check", {"manifold": {"dim": True, "g": [[1, 0], [0, 1]], "phi": [[1, 0], [0, -1]]}}, []),
        ("integrate", ({"manifold": {**_INLINE, "christofel": [[["0"]]]}},
                       "unknown inline manifold key 'christofel'"), []),
        ("integrate", ({"initial": {**oblique_scenario_doc()["initial"], "xi_dot": [0, 0, 0, 0]}},
                       "unknown initial key 'xi_dot'"), []),
        ("integrate", ({"frenet": {"ordr": 4}}, "unknown frenet key 'ordr'"), []),
        ("integrate", ({"frenet": {"order": 2, "tol": 1e-6}}, "unknown frenet key 'tol'"), []),
        # frenet is an object or null, and its tolerance a number
        ("frenet", {"frenet": []}, []),
        ("frenet", {"frenet": 0}, []),
        ("frenet", {"frenet": False}, []),
        ("frenet", {"frenet": {"constancy_tol": True}}, []),
        ("frenet", {"frenet": {"constancy_tol": "1e-4"}}, []),
        # RK4 is the one method: there is none to choose
        ("integrate", ({"integrator": {"step": 1e-3, "t_span": [0.0, 1.0], "method": "rk4"}},
                       "unknown integrator key 'method'"), []),
    ],
)
def test_bad_sample_counts_and_scenario_values_exit_2(tmp_path, capsys, command, change, extra):
    message = None
    if isinstance(change, tuple):
        change, message = change
    if change is None:
        rc = run(command, "curvature_power", "--out", tmp_path, *extra)
    else:
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**oblique_scenario_doc(), **change}))  # NaN/Infinity literals
        rc = run(command, "--scenario", path, "--out", tmp_path, *extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if message is not None:
        assert err == f"configuration error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["s.json"] if change is not None else [])


def test_integral_numbers_read_as_integers():
    doc = {**oblique_scenario_doc(), "check_points": 20.0, "seed": np.int64(7), "frenet": {"order": 2.0}}
    scen = scenario_from_dict(doc)
    values = (scen.check_points, scen.seed, scen.frenet_order)
    assert values == (20, 7, 2) and all(type(v) is int for v in values)


def test_null_frenet_options_mean_the_defaults():
    scen = scenario_from_dict({**oblique_scenario_doc(), "frenet": None})
    assert (scen.frenet_order, scen.constancy_tol) == (3, 1e-4)


def test_partial_override_without_integrator_exits_2(tmp_path, capsys):
    doc = oblique_scenario_doc()
    del doc["integrator"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("integrate", "--scenario", path, "--out", tmp_path, "--tspan", "0,1") == 2
    assert "configuration error" in capsys.readouterr().err
    assert run("integrate", "--scenario", path, "--out", tmp_path, "--step", "0.1") == 2
    assert run(
        "integrate", "--scenario", path, "--out", tmp_path, "--step", "0.1", "--tspan", "0,1"
    ) == 0


def test_csv_round_trips_doubles_exactly(tmp_path, oblique_scenario):
    run("integrate", "--scenario", oblique_scenario, "--out", tmp_path)
    ent, fam = euclid_oblique_family(0.5)
    from bundleflow.integrate import IntegratorConfig, integrate

    traj = integrate(
        ent.structure, fam.system, fam.initial_state(), IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    )
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1:5], traj.x)  # 17 sig digits: bit-exact round trip


def test_csv_rows_are_written_as_the_format_spec_writes_each_value(tmp_path):
    values = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1e16, 0.1]
    rows = np.array([values, values[::-1]])
    path = tmp_path / "t.csv"
    cli._write_rows(path, [f"c{i}" for i in range(len(values))], rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [",".join(f"{v:.17g}" for v in row) for row in (values, values[::-1])]


def test_integrate_shipped_log_geodesic_scenario(tmp_path):
    rc = run("integrate", "--scenario", SCENARIOS / "exp2d_natural_lift.json", "--out", tmp_path)
    assert rc == 0
    data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    lam = math.sqrt(0.5)
    np.testing.assert_allclose(data[:, 1], np.log(1.0 + lam * data[:, 0]), atol=1e-6)
    np.testing.assert_allclose(data[:, 5], lam / (1.0 + lam * data[:, 0]), atol=1e-6)


def test_h2xh2_scenario_conserves_its_monitors(tmp_path):
    # a curved chart whose Gamma varies, with no analytic Christoffel symbols:
    # rho_sq and speed_sq stay at the roundoff floor (finite-difference Gamma
    # drifted by 1.2e-10 and 2.2e-10 here)
    path = SCENARIOS / "h2xh2_geodesic.json"
    assert json.loads(path.read_text())["manifold"].get("christoffel") is None
    assert run("check", "--scenario", path, "--out", tmp_path / "check") == 0
    assert run("integrate", "--scenario", path, "--out", tmp_path) == 0
    header = (tmp_path / "monitors.csv").read_text().splitlines()[0].split(",")
    monitors = np.loadtxt(tmp_path / "monitors.csv", delimiter=",", skiprows=1)
    assert monitors.shape[0] == 1001
    for name in ("rho_sq", "speed_sq"):
        series = monitors[:, header.index(name)]
        assert np.max(np.abs(series - series[0])) <= 1e-12


# -- frenet ----------------------------------------------------------------------


def test_frenet_writes_curvature_table(tmp_path):
    rc = run("frenet", "--scenario", SCENARIOS / "euclid_oblique.json", "--out", tmp_path)
    assert rc == 0
    lines = (tmp_path / "frenet.csv").read_text().splitlines()
    assert lines[0] == "s,k1"
    data = np.loadtxt(tmp_path / "frenet.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1])) < 1e-7
    report = json.loads((tmp_path / "frenet_report.json").read_text())
    assert report["frame_rank"] == 1
    # uniform-speed projection: ds/dt = sqrt(1 - rho^2)
    assert report["speed"]["max"] == pytest.approx(math.sqrt(0.75), abs=1e-9)


def test_frenet_on_a_span_of_too_few_samples_exits_2(tmp_path, capsys):
    # step 1e-3: [0, 0.002] gives 3 samples, too few for the jets; [0, 0.004] gives 5
    scenario = SCENARIOS / "euclid_oblique.json"
    assert run("frenet", "--scenario", scenario, "--tspan", "0,0.002", "--out", tmp_path / "short") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "configuration error: frenet analysis needs 5 samples, t_span and step give 3\n"
    assert not (tmp_path / "short").exists()
    assert run("frenet", "--scenario", scenario, "--tspan", "0,0.004", "--out", tmp_path / "five") == 0
    lines = (tmp_path / "five" / "frenet.csv").read_text().splitlines()
    assert lines[0] == "s,k1" and len(lines) == 4  # differencing keeps the 3 interior samples


def test_frenet_window_follows_the_jet_path(tmp_path, capsys):
    # order 4 on geodesic_tm differences orders 2, 3 and 4, trimming 3 samples
    # at each end, and constancy is judged on two samples or more: [0, 0.006]
    # gives 7 samples, [0, 0.007] gives 8
    doc = json.loads((SCENARIOS / "h2xh2_geodesic.json").read_text())
    doc["frenet"] = {"order": 4}
    scenario = tmp_path / "h2xh2_order4.json"
    scenario.write_text(json.dumps(doc))
    assert run("frenet", "--scenario", scenario, "--tspan", "0,0.006", "--out", tmp_path / "short") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "configuration error: frenet analysis needs 8 samples, t_span and step give 7\n"
    assert not (tmp_path / "short").exists()
    assert run("frenet", "--scenario", scenario, "--tspan", "0,0.007", "--out", tmp_path / "eight") == 0
    assert len((tmp_path / "eight" / "frenet.csv").read_text().splitlines()) == 3  # two samples left


def test_frenet_prints_a_jet_warning_as_one_line(tmp_path, capsys):
    # order 5 on geodesic_tm differences orders 2 to 5: 11 samples leave 3
    dim = 6
    g = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    g[1][1], g[4][4] = "exp(2*x1)", "exp(2*x4)"
    phi = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        phi[i][i] = "1" if i < 3 else "-1"
    doc = {
        "manifold": {"dim": dim, "g": g, "phi": phi},
        "system": "geodesic_tm",
        "initial": {"x": [0.1, 0.2, 0.3, 0.4, 0.1, 0.2], "xdot": [0.3, -0.2, 0.25, 0.1, 0.2, 0.1],
                    "xi": [0.5, -0.3, 0.2, 0.4, 0.1, 0.1], "xidot": [0.1, 0.2, -0.1, 0.3, 0.1, 0.1]},
        "integrator": {"step": 0.01, "t_span": [0, 0.1]},
        "frenet": {"order": 5},
    }
    path = tmp_path / "dim6.json"
    path.write_text(json.dumps(doc))
    assert run("frenet", "--scenario", path, "--out", tmp_path / "out") == 0
    out = capsys.readouterr()
    assert out.err == "warning: jet order 5 by finite differences is past the noise floor\n"
    assert len((tmp_path / "out" / "frenet.csv").read_text().splitlines()) == 4


def test_frenet_vertical_geodesic_exits_1(tmp_path, capsys):
    doc = {
        "manifold": "euclid_oblique",
        "system": "geodesic_unit",
        "initial": {
            "x": [0.0, 0.0, 0.0, 0.0],
            "xdot": [0.0, 0.0, 0.0, 0.0],
            "xi": [1.0, 0.0, 0.0, 0.0],
            "xidot": [0.0, 1.0, 0.0, 0.0],
        },
        "integrator": {"step": 0.01, "t_span": [0.0, 1.0]},
    }
    path = tmp_path / "vertical.json"
    path.write_text(json.dumps(doc))
    rc = run("frenet", "--scenario", path, "--out", tmp_path)
    assert rc == 1
    assert "vertical" in capsys.readouterr().err


def test_frenet_on_an_indefinite_jet_span_exits_1(tmp_path, capsys):
    # the structure is sound, but F turns the curve into the timelike direction
    doc = {
        "manifold": {"dim": 2, "g": [["1", "0"], ["0", "-1"]], "phi": [["1", "0"], ["0", "-1"]]},
        "F": [[0, 1], [1, 0]],
        "system": "f_geodesic_tm",
        "initial": {"x": [0, 0], "xdot": [1, 0], "xi": [1, 0], "xidot": [0, 0]},
        "integrator": {"step": 0.01, "t_span": [0, 0.5]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("check", "--scenario", path, "--out", tmp_path / "check") == 0
    capsys.readouterr()
    assert run("frenet", "--scenario", path, "--out", tmp_path / "frenet") == 1
    assert capsys.readouterr().err == (
        "error: metric is not positive definite on the jet span (g(w, w) = -1.00003 at sample 0)\n"
    )
    assert not (tmp_path / "frenet" / "frenet.csv").exists()


# -- verify ----------------------------------------------------------------------


def test_verify_single_group(tmp_path, capsys):
    rc = run("verify", "curvature_power", "--out", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True


def test_verify_unknown_target_exits_2():
    assert run("verify", "warp_drive") == 2


def test_frenet_keeps_the_partial_run_when_integration_blows_up(tmp_path, capsys):
    # rho2 = 1/(t - 1) cannot be evaluated at t = 1
    out = tmp_path / "frenet"
    rc = run("frenet", "--scenario", SCENARIOS / "flat_diag_hphi_planar.json", "--tspan", "0,1.2",
             "--out", out)
    assert rc == 1
    assert "partial output written" in capsys.readouterr().err
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    mon = np.loadtxt(out / "monitors.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == mon.shape[0] >= 2 and data[-1, 0] < 1.0
    assert not (out / "frenet.csv").exists() and not (out / "frenet_report.json").exists()


def test_frenet_on_an_indefinite_jet_span_keeps_the_trajectory(tmp_path, capsys):
    doc = {
        "manifold": {"dim": 2, "g": [["1", "0"], ["0", "-1"]], "phi": [["1", "0"], ["0", "-1"]]},
        "F": [[0, 1], [1, 0]],
        "system": "f_geodesic_tm",
        "initial": {"x": [0, 0], "xdot": [1, 0], "xi": [1, 0], "xidot": [0, 0]},
        "integrator": {"step": 0.01, "t_span": [0, 0.5]},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run("frenet", "--scenario", path, "--out", tmp_path / "frenet") == 1
    assert "at sample 0" in capsys.readouterr().err
    assert run("integrate", "--scenario", path, "--out", tmp_path / "integrate") == 0
    for name in ("trajectory.csv", "monitors.csv"):
        written = (tmp_path / "frenet" / name).read_text()
        assert written == (tmp_path / "integrate" / name).read_text() and written.count("\n") == 52
    assert not (tmp_path / "frenet" / "frenet.csv").exists()


# -- the per-process memos --------------------------------------------------------


def _clear_memos():
    """Empty every per-process memo, so that the next command starts cold."""
    for memo in (expressions.parse, expressions._code, catalog.entry, catalog._family_jet,
                 scenario._inline_structure, FPlanarCoefficients.parse):
        memo.cache_clear()


def _inline(**changes) -> dict:
    manifold = {"dim": 2, "g": [["exp(2*x1)", "0"], ["0", "1"]], "phi": [["1", "0"], ["0", "-1"]],
                "F": [["0", "1"], ["1", "0"]], "chart_box": [[-1, 1], [-1, 1]], "name": "chart"}
    return {"manifold": {**manifold, **changes}}


def test_loading_a_scenario_twice_shares_its_structure():
    for path in sorted(SCENARIOS.glob("*.json")):
        first, second = load_scenario(path), load_scenario(path, seed=3)
        assert first is not second and first.structure is second.structure, path.stem
        assert first.system == second.system, path.stem
    planar = load_scenario(SCENARIOS / "flat_diag_hphi_planar.json").system
    assert planar.coefficients is FPlanarCoefficients.parse("1/(t + 1)", "1/(t - 1)")
    assert planar.f_tensor is catalog.entry("flat_diag").f_tensor


def test_inline_manifolds_of_different_text_get_distinct_structures():
    base = scenario_from_dict(_inline()).structure
    # the same text, keys in another order and arrays for lists
    again = {"manifold": dict(reversed(_inline()["manifold"].items()))}
    again["manifold"]["chart_box"] = np.array([[-1, 1], [-1, 1]])
    assert scenario_from_dict(again).structure is base
    variants = [
        _inline(chart_box=[[-1, 1], [-1, 2]]),
        _inline(name="other"),
        _inline(g=[["exp(2*x1)", "0"], ["0", "2"]]),
        _inline(F=[["0", "1"], ["1", "1"]]),
    ]
    structures = [scenario_from_dict(doc).structure for doc in variants]
    assert len({id(M) for M in [base] + structures}) == 5
    assert structures[1].name == "other" and structures[0].chart_box[1, 1] == 2.0
    one, two = (scenario_from_dict({"manifold": f"const_curv({c})"}).structure for c in (1, 2))
    assert one is not two and (one.name, two.name) == ("const_curv(1)", "const_curv(2)")
    assert catalog.entry("const_curv(1)") is catalog.entry("const_curv(1)")


def test_a_repeated_command_compiles_nothing(tmp_path, monkeypatch):
    # integrate and frenet share one structure and one system, so one
    # right-hand side; a repeat of both finds every program built
    built, defined = [], []
    compile_rhs, define = bundle.compile_rhs, expressions._Source.define

    def counted_compile(*args):
        built.append(1)
        return compile_rhs(*args)

    def counted_define(*args):
        defined.append(1)
        return define(*args)

    _clear_memos()
    monkeypatch.setattr(bundle, "compile_rhs", counted_compile)
    monkeypatch.setattr(expressions._Source, "define", counted_define)
    path = SCENARIOS / "flat_diag_hphi_planar.json"
    for repeat in range(2):
        for command in ("integrate", "frenet"):
            assert run(command, "--scenario", path, "--out", tmp_path / f"{command}{repeat}") == 0
        if repeat == 0:
            assert len(built) == 1
            defined.clear()
    assert len(built) == 1 and defined == []


def test_a_structure_keeps_at_most_its_bound_of_right_hand_sides():
    M = catalog.entry.__wrapped__("flat_diag").structure
    systems = [BundleSystem("f_geodesic_tm", f_tensor=FTensor(is_phi=True))
               for _ in range(bundle._MEMO_RHS + 1)]
    rhs = [make_rhs(M, system) for system in systems]
    assert list(M._rhs) == systems[-1:]
    assert make_rhs(M, systems[-1]) is rhs[-1]



def test_a_cold_and_a_warm_memo_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    # the second pass parses and compiles nothing new: every tree and
    # program comes from the memos, and must give the same outputs
    systems = [p for p in sorted(SCENARIOS.glob("*.json")) if "system" in json.loads(p.read_text())]
    commands = [(c, "--scenario", p, "--out", f"{c}-{p.stem}")
                for p in systems for c in ("integrate", "frenet")]
    commands.append(("verify", "all", "--out", "verify"))
    _clear_memos()
    passes = {}
    for side in ("A", "B"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        codes = [run(*argv) for argv in commands]
        passes[side] = codes, capsys.readouterr()
    assert len(systems) == 4 and passes["A"] == passes["B"]
    assert passes["A"][0] == [0] * len(commands)
    files = sorted(p.relative_to(tmp_path / "A") for p in (tmp_path / "A").rglob("*") if p.is_file())
    assert len(files) == 4 * 2 + 4 * 2 + 1  # two CSVs per integrate, CSV and report per frenet
    assert files == sorted(p.relative_to(tmp_path / "B") for p in (tmp_path / "B").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "A" / name).read_bytes() == (tmp_path / "B" / name).read_bytes(), name
