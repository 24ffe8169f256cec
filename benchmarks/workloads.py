"""The benchmark's workloads: their inputs, operations and correctness gates.

A workload is built in two stages.  ``setup`` is timed (it is the
``setup_s`` metric): it loads the scenario files, builds catalog entries and
writes generated charts.  ``operations`` is not timed: it computes the
references the correctness gate compares against and returns the list of
CLI invocations that make up one pass.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Largest difference allowed between a final state and its reference, and
# between Frenet speeds and their reference.  The shipped scenarios and the
# FD charts match to <= 6e-11 at this commit.
STATE_TOL = 1e-8
# Frenet curvatures come from centered differences of stored samples
# (O(h^2) with h = 1e-3); the worst case here is 4.5e-6 on flat_diag.
CURVATURE_TOL = 1e-4

SHIPPED_FAMILIES = {
    # scenario file stem -> (catalog entry, family, parameters)
    "euclid_oblique": (
        "euclid_oblique",
        "oblique_geodesic",
        dict(
            rho=0.5,
            c1=math.sqrt(0.75) * np.array([0.6, 0.8, 0.0, 0.0]),
            c2=np.array([0.1, -0.3, 0.2, 0.05]),
            c3=np.array([math.cosh(0.3), 0.0, math.sinh(0.3), 0.0]),
            c4=np.array([0.0, math.cosh(0.2), 0.0, -math.sinh(0.2)]),
        ),
    ),
    "exp2d_natural_lift": (
        "exp2d",
        "natural_lift",
        dict(lam=math.sqrt(0.5), eta=math.sqrt(0.5)),
    ),
    "flat_diag_hphi_planar": ("flat_diag", "hphi_planar", {}),
}
NEGATIVE_CONTROL = "inline_random_phi"

FD_SPAN = (0.0, 0.05)
FD_STEP = 1e-3


class SetupError(Exception):
    """The workload's inputs do not match their references."""


@dataclass
class Op:
    """One CLI invocation of a pass and the gate that checks its output."""

    name: str
    argv: list
    out_dir: Path
    steps: int  # RK4 steps the command integrates (0 for check/verify)
    gate: Callable[[int, Path], tuple[int, int]]  # (exit code, out dir) -> (attempted, failed)


# -- helpers ------------------------------------------------------------------


def time_grid(t0: float, t1: float, h: float) -> np.ndarray:
    """The fixed-step grid of a config: steps of h, the last one shortened."""
    span = t1 - t0
    n_full = int(np.floor(span / h + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    if abs(times[-1] - t1) <= 1e-12 * max(1.0, abs(span)):
        times[-1] = t1
    else:
        times = np.append(times, t1)
    return times


def _read_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _read_json(path: Path):
    return json.loads(path.read_text())


def _curvature_and_speed(M, x, xdot, xddot):
    """Exact k1 and speed of a base curve from its exact derivatives."""
    k1 = np.empty(len(x))
    speed = np.empty(len(x))
    for i in range(len(x)):
        g = M.metric_at(x[i])
        gam = M.christoffel_at(x[i])
        v = xdot[i]
        a = xddot[i] + np.einsum("lij,i,j->l", gam, v, v)
        vv, aa, av = v @ g @ v, a @ g @ a, a @ g @ v
        k1[i] = math.sqrt(max(aa * vv - av * av, 0.0)) / vv**1.5
        speed[i] = math.sqrt(vv)
    return k1, speed


@dataclass
class Reference:
    """What an integrate/frenet command must reproduce."""

    n_samples: int
    final_state: np.ndarray
    k1: np.ndarray  # per sample; Frenet rows are a centered window of it
    speed_range: tuple[float, float]


def _closed_form_reference(M, fam, times) -> Reference:
    traj = fam.trajectory(M, times)
    final = np.concatenate([traj.x[-1], traj.xdot[-1], traj.xi[-1], traj.xidot[-1]])
    k1, speed = _curvature_and_speed(M, traj.x, traj.xdot, traj.xddot)
    return Reference(len(times), final, k1, (float(speed.min()), float(speed.max())))


def _check_gate(expect_pass: bool):
    def gate(rc: int, out: Path) -> tuple[int, int]:
        report = out / "check_report.json"
        if not report.exists():
            return 1, 1
        passed = bool(_read_json(report)["passed"])
        ok = passed == expect_pass and rc == (0 if expect_pass else 1)
        return 1, 0 if ok else 1

    return gate


def _integrate_gate(ref: Reference):
    def gate(rc: int, out: Path) -> tuple[int, int]:
        path = out / "trajectory.csv"
        if rc != 0 or not path.exists():
            return 1, 1
        rows = _read_csv(path)
        monitors = _read_csv(out / "monitors.csv")
        ok = (
            rows.shape[0] == ref.n_samples
            and monitors.shape[0] == ref.n_samples
            and float(np.max(np.abs(rows[-1, 1:] - ref.final_state))) <= STATE_TOL
        )
        return 1, 0 if ok else 1

    return gate


def _frenet_gate(ref: Reference):
    def gate(rc: int, out: Path) -> tuple[int, int]:
        csv, report = out / "frenet.csv", out / "frenet_report.json"
        if rc != 0 or not csv.exists() or not report.exists():
            return 1, 1
        rows = _read_csv(csv)
        speed = _read_json(report)["speed"]
        trim, odd = divmod(ref.k1.size - rows.shape[0], 2)
        if trim < 0 or odd:
            return 1, 1
        want = ref.k1[trim : trim + rows.shape[0]]
        ok = (
            float(np.max(np.abs(rows[:, 1] - want) / np.maximum(1.0, np.abs(want))))
            <= CURVATURE_TOL
            and abs(speed["min"] - ref.speed_range[0]) <= STATE_TOL
            and abs(speed["max"] - ref.speed_range[1]) <= STATE_TOL
        )
        return 1, 0 if ok else 1

    return gate


def _verify_gate(rc: int, out: Path) -> tuple[int, int]:
    report = out / "verify_report.json"
    if not report.exists():
        return 1, 1
    claims = _read_json(report)["claims"]
    failed = sum(not c["passed"] for c in claims)
    if rc != 0 and failed == 0:
        failed = 1
    return max(len(claims), 1), failed


def _scenario_ops(label: str, path: Path, scenario, ref: Reference | None, seed: int, work: Path):
    ops = []
    kinds = ("check",) if ref is None else ("check", "integrate", "frenet")
    for kind in kinds:
        out = work / "out" / f"{label}.{kind}"
        argv = [kind, "--scenario", str(path), "--out", str(out), "--seed", str(seed)]
        if kind == "check":
            gate, steps = _check_gate(expect_pass=ref is not None), 0
        else:
            gate = _integrate_gate(ref) if kind == "integrate" else _frenet_gate(ref)
            steps = ref.n_samples - 1
        ops.append(Op(f"{label}.{kind}", argv, out, steps, gate))
    return ops


def _same_state(a, b) -> bool:
    return float(np.max(np.abs(a.flat() - b.flat()))) <= 1e-12


# -- catalog_scenarios ----------------------------------------------------------


def catalog_setup(bf, root: Path, seed: int, work: Path) -> dict:
    inputs = {}
    for name in list(SHIPPED_FAMILIES) + [NEGATIVE_CONTROL]:
        path = root / "scenarios" / f"{name}.json"
        inputs[name] = (path, bf.scenario.load_scenario(path))
    return inputs


def catalog_operations(bf, inputs: dict, seed: int, work: Path) -> list[Op]:
    ops = []
    for label, (path, scenario) in inputs.items():
        ref = None
        if label in SHIPPED_FAMILIES:
            entry_name, family, params = SHIPPED_FAMILIES[label]
            entry = bf.catalog.entry(entry_name)
            fam = entry.family(family, **params)
            cfg = scenario.integrator
            if not _same_state(fam.initial_state(cfg.t_span[0]), scenario.initial):
                raise SetupError(f"{label}: initial state is not on {entry_name}/{family}")
            times = time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step)
            ref = _closed_form_reference(entry.structure, fam, times)
        ops.extend(_scenario_ops(label, path, scenario, ref, seed, work))
    return ops


# -- fd_charts --------------------------------------------------------------------


def _exp2d_chart(init) -> dict:
    return {
        "name": "fd_exp2d",
        "manifold": {
            "dim": 2,
            "g": [["exp(2*x1)", "0"], ["0", "exp(2*x2)"]],
            "phi": [["0", "exp(x2 - x1)"], ["exp(x1 - x2)", "0"]],
            "chart_box": [[-1.5, 1.5], [-1.5, 1.5]],
        },
        "system": "geodesic_unit",
        "initial": {
            "x": init.x.tolist(),
            "xdot": init.xdot.tolist(),
            "xi": init.xi.tolist(),
            "xidot": init.xidot.tolist(),
        },
        "integrator": {"step": FD_STEP, "t_span": list(FD_SPAN)},
    }


def _diag4_chart(analytic: bool) -> dict:
    """g = diag(e^{x1}, 1, 1, 1), phi = diag(1, 1, -1, -1), unit initial fiber."""
    x = np.array([0.1, -0.2, 0.3, 0.05])
    twin = np.diag([math.exp(x[0]), 1.0, -1.0, -1.0])  # g phi at x
    xi = np.array([0.0, 0.4, 0.3, -0.2])
    xi[0] = math.sqrt((1.0 - xi[1] ** 2 + xi[2] ** 2 + xi[3] ** 2) * math.exp(-x[0]))
    w = np.array([0.1, -0.3, 0.2, 0.4])
    xi_prime = w - (w @ twin @ xi) * xi  # g(xi', phi xi) = 0
    manifold = {
        "dim": 4,
        "g": [["exp(x1)", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "phi": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
    }
    if analytic:
        zero = [["0"] * 4 for _ in range(4)]
        first = copy.deepcopy(zero)
        first[0][0] = "1/2"  # Gamma^1_11
        manifold["christoffel"] = [first, zero, zero, zero]
    return {
        "name": "analytic_diag4" if analytic else "fd_diag4",
        "manifold": manifold,
        "system": "geodesic_unit",
        "initial": {
            "x": x.tolist(),
            "xdot": [0.6, 0.3, -0.4, 0.2],
            "xi": xi.tolist(),
            "xi_prime": xi_prime.tolist(),
        },
        "integrator": {"step": FD_STEP, "t_span": list(FD_SPAN)},
    }


def fd_setup(bf, root: Path, seed: int, work: Path) -> dict:
    entry = bf.catalog.entry("exp2d")
    fam = entry.family("natural_lift", lam=math.sqrt(0.5), eta=math.sqrt(0.5))
    docs = {
        "fd_exp2d": _exp2d_chart(fam.initial_state(FD_SPAN[0])),
        "fd_diag4": _diag4_chart(analytic=False),
        "analytic_diag4": _diag4_chart(analytic=True),
    }
    inputs = {"exp2d": (entry, fam)}
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    for label, doc in docs.items():
        path = work / "inputs" / f"{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        inputs[label] = (path, bf.scenario.load_scenario(path))
    return inputs


def _twin_reference(bf, scenario) -> Reference:
    """Reference from the same chart with analytic Christoffel symbols.

    Computed through the library, not the CLI, so that the CLI's output
    path is checked too.
    """
    M, cfg = scenario.structure, scenario.integrator
    traj = bf.integrate.integrate(M, scenario.system, scenario.initial, cfg)
    arc = bf.frenet.arc_length_reparam(M, traj)
    jets = bf.frenet.covariant_jets(M, traj, scenario.frenet_order)
    k1 = bf.frenet.frenet_curvatures(M, jets).curvatures[:, 0]
    final = np.concatenate([traj.x[-1], traj.xdot[-1], traj.xi[-1], traj.xidot[-1]])
    return Reference(traj.n, final, k1, (float(arc.speed.min()), float(arc.speed.max())))


def fd_operations(bf, inputs: dict, seed: int, work: Path) -> list[Op]:
    entry, fam = inputs["exp2d"]
    path2, scen2 = inputs["fd_exp2d"]
    if scen2.structure.christoffel is not None:
        raise SetupError("fd_exp2d must use finite-difference Christoffel symbols")
    cfg = scen2.integrator
    ref2 = _closed_form_reference(entry.structure, fam, time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step))
    path4, scen4 = inputs["fd_diag4"]
    ref4 = _twin_reference(bf, inputs["analytic_diag4"][1])
    return (_scenario_ops("fd_exp2d", path2, scen2, ref2, seed, work)
            + _scenario_ops("fd_diag4", path4, scen4, ref4, seed, work))


# -- verify_battery ---------------------------------------------------------------


def verify_setup(bf, root: Path, seed: int, work: Path) -> dict:
    catalog = bf.catalog
    return {name: catalog.entry(name) for name in catalog.entry_names()}


def verify_operations(bf, inputs: dict, seed: int, work: Path) -> list[Op]:
    # `verify all` runs the groups one after another with nothing shared
    # between them; running it as one command per group lets each interval
    # be bracketed by calibration (see run.Calibration), which a single
    # 7-second command could not be.
    ops = []
    for group in bf.verify.group_names():
        out = work / "out" / f"verify_{group}"
        argv = ["verify", group, "--seed", str(seed), "--out", str(out)]
        ops.append(Op(f"verify.{group}", argv, out, 0, _verify_gate))
    return ops
