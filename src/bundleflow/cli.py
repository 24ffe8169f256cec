"""Command-line front end.

Subcommands: ``check`` (structure axioms), ``integrate`` (trajectory + monitor
CSV), ``frenet`` (curvature CSV + constancy report), ``verify`` (closed-form
verification battery).  JSON in, CSV/JSON out; numbers are written with 17
significant digits so doubles round-trip exactly.

Exit codes: 0 success; 1 failed checks, failed claims or any other error
during a run; 2 configuration errors.  Any failure inside an integration (a
non-finite state, a singular metric, an expression domain error) writes the
partial trajectory and monitor CSVs before exiting 1, in ``integrate`` and
``frenet`` alike; a Frenet analysis that fails on a whole trajectory writes
that trajectory's CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .errors import (
    BundleFlowError,
    EvalDomainError,
    IntegrationBlowUp,
    ParameterError,
    ScenarioError,
    SingularMetricError,
    UnknownEntryError,
)
from .frenet import arc_length_reparam, constancy_check, covariant_jets, frenet_curvatures
from .geometry import (
    CHECK_TOL,
    CheckReport,
    check_curvature_purity,
    check_norden,
    check_parallel_phi,
    json_number,
)
from .integrate import integrate
from .scenario import Scenario, load_scenario

_CONFIG_ERRORS = (ScenarioError, UnknownEntryError, ParameterError)


def _write_json(path: Path, doc: dict) -> None:
    """Write a report as strict JSON: a NaN or an infinity raises, so every
    figure that may not be finite is written as None (null)."""
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _out_path(scenario: Scenario, out_dir: Path, key: str, default: str) -> Path:
    name = scenario.outputs.get(key, default)
    path = Path(name)
    if not path.is_absolute():
        path = out_dir / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_rows(path: Path, header: list[str], rows) -> None:
    """A CSV table: the header, then each value as %.17g (round-trip exact)."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _write_trajectory_csv(path: Path, dim: int, traj=None) -> None:
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, dim + 1)]
        + [f"xdot{i}" for i in range(1, dim + 1)]
        + [f"xi{i}" for i in range(1, dim + 1)]
        + [f"xidot{i}" for i in range(1, dim + 1)]
    )
    rows = []
    if traj is not None:
        blocks = np.hstack([traj.times[:, None], traj.x, traj.xdot, traj.xi, traj.xidot])
        rows = blocks.tolist()
    _write_rows(path, header, rows)


def _write_monitors_csv(path: Path, traj=None) -> None:
    # fiber_ortho comes last so that the older columns keep their positions
    names = ["unit_norm", "rho_sq", "speed_sq", "fiber_ortho"]
    rows = []
    if traj is not None:
        rows = np.stack(
            [traj.monitor_times] + [traj.monitors[name] for name in names], axis=1
        ).tolist()
    _write_rows(path, ["t"] + names, rows)


def _load(args) -> Scenario:
    t_span = None if args.tspan is None else args.tspan.split(",")
    return load_scenario(args.scenario, seed=args.seed, step=args.step, t_span=t_span)


def cmd_check(args) -> int:
    """Run the scenario's checks and write their report.  A check whose
    sampled geometry raises (a singular metric, a domain error of a field)
    fails with no residual, and the first such error is printed."""
    scenario = _load(args)
    M = scenario.structure
    checks = {
        "norden": (check_norden, scenario.check_points),
        "parallel_phi": (check_parallel_phi, scenario.check_points),
        "curvature_purity": (check_curvature_purity, min(scenario.check_points, 20)),
    }
    errors = []

    def run(name) -> CheckReport:
        check, n_points = checks[name]
        try:
            return check(M, n_points=n_points, seed=scenario.seed)
        except (SingularMetricError, EvalDomainError) as exc:
            errors.append(exc)
            return CheckReport(name, False, np.nan, CHECK_TOL[name], n_points)

    reports = [run(name) for name in scenario.checks]
    for rep in reports:
        mark = "PASS" if rep.passed else "FAIL"
        print(
            f"{mark}  {rep.name:<18s} max_residual={rep.max_residual:.3e}"
            f"  tol={rep.tol:.1e}  points={rep.n_points}"
        )
    passed = all(r.passed for r in reports)
    out_dir = Path(args.out)
    report_path = _out_path(scenario, out_dir, "report", "check_report.json")
    _write_json(
        report_path,
        {
            "scenario": scenario.name,
            "manifold": M.name or "inline",
            "seed": scenario.seed,
            "checks": [r.as_dict() for r in reports],
            "passed": passed,
        },
    )
    print(("all checks passed" if passed else "checks FAILED") + f" -> {report_path}")
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
    return 0 if passed else 1


def _integrate_scenario(scenario: Scenario):
    if scenario.system is None:
        raise ScenarioError("scenario has no 'system'")
    if scenario.initial is None:
        raise ScenarioError("scenario has no 'initial' state")
    if scenario.integrator is None:
        raise ScenarioError("scenario has no 'integrator' config")
    return integrate(
        scenario.structure, scenario.system, scenario.initial, scenario.integrator
    )


def _write_run(scenario: Scenario, out_dir: Path, traj) -> tuple[Path, Path]:
    """Write the trajectory and monitor CSVs (headers alone for None)."""
    traj_path = _out_path(scenario, out_dir, "trajectory", "trajectory.csv")
    mon_path = _out_path(scenario, out_dir, "monitors", "monitors.csv")
    _write_trajectory_csv(traj_path, scenario.structure.dim, traj)
    _write_monitors_csv(mon_path, traj)
    return traj_path, mon_path


def _run(scenario: Scenario, out_dir: Path):
    """The scenario's trajectory, or None after a failure inside the run,
    whose partial trajectory and monitor CSVs are then written."""
    try:
        return _integrate_scenario(scenario)
    except IntegrationBlowUp as exc:
        _write_run(scenario, out_dir, exc.trajectory)
        print(f"integration blew up: {exc}; partial output written", file=sys.stderr)
        return None


def cmd_integrate(args) -> int:
    scenario = _load(args)
    out_dir = Path(args.out)
    if scenario.zero_span:
        traj_path, mon_path = _write_run(scenario, out_dir, None)
        print(f"zero-length span: wrote headers -> {traj_path}, {mon_path}")
        return 0
    traj = _run(scenario, out_dir)
    if traj is None:
        return 1
    traj_path, _ = _write_run(scenario, out_dir, traj)
    print(f"wrote {traj.n} samples -> {traj_path}")
    return 0


def cmd_frenet(args) -> int:
    """Frenet analysis of the projected curve.  Where the run fails, or the
    analysis does, the trajectory and monitor CSVs are written (the partial
    ones after a failure inside the run) and no curvature table."""
    scenario = _load(args)
    if scenario.zero_span:
        raise ScenarioError("frenet analysis needs a non-degenerate t_span")
    M = scenario.structure
    out_dir = Path(args.out)
    traj = _run(scenario, out_dir)
    if traj is None:
        return 1
    try:
        arc = arc_length_reparam(M, traj)
        jets = covariant_jets(M, traj, scenario.frenet_order)
        result = frenet_curvatures(M, jets)
    except BundleFlowError:
        _write_run(scenario, out_dir, traj)
        raise
    report = constancy_check(result, scenario.constancy_tol)
    csv_path = _out_path(scenario, out_dir, "frenet", "frenet.csv")
    # map arc length onto the jets' (possibly trimmed) sample window
    idx = np.searchsorted(traj.times, jets.times)
    header = ["s"] + [f"k{i}" for i in range(1, result.frame_rank + 1)]
    _write_rows(csv_path, header, np.hstack([arc.s[idx][:, None], result.curvatures]))
    for i, dev in zip(report.index, report.max_deviation):
        mark = "PASS" if dev < report.tol else "FAIL"
        print(
            f"{mark}  k{i}: mean={result.means[i - 1]:.8g}"
            f"  max_deviation={dev:.3e}  tol={report.tol:.1e}"
        )
    report_path = _out_path(scenario, out_dir, "report", "frenet_report.json")
    _write_json(
        report_path,
        {
            "scenario": scenario.name,
            "frame_rank": result.frame_rank,
            "curvature_means": [json_number(v) for v in result.means],
            "speed": {"min": json_number(np.min(arc.speed)), "max": json_number(np.max(arc.speed))},
            "constancy": report.as_dict(),
        },
    )
    print(f"wrote curvature table -> {csv_path}")
    return 0  # constancy is reported, not enforced


def cmd_verify(args) -> int:
    target = args.target
    seed = int(args.seed) if args.seed is not None else verify_mod.DEFAULT_SEED
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    if target == "all":
        claims = verify_mod.run_all(seed)
    else:
        claims = verify_mod.run_group(target, seed)
    print(verify_mod.format_claims(claims))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            out_dir / "verify_report.json",
            {
                "target": target,
                "seed": seed,
                "claims": [c.as_dict() for c in claims],
                "passed": all(c.passed for c in claims),
            },
        )
    return 0 if all(c.passed for c in claims) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleflow",
        description="Geodesic and F-geodesic flows on tangent bundles "
        "over para-Kahler-Norden manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--step", type=float, default=None, help="step override")
        p.add_argument("--tspan", default=None, help="time span override 't0,t1'")

    p_check = sub.add_parser("check", help="run the structure axiom checks")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_int = sub.add_parser("integrate", help="integrate a scenario to CSV")
    common(p_int)
    p_int.set_defaults(func=cmd_integrate)

    p_fre = sub.add_parser("frenet", help="curvature analysis of the projected curve")
    common(p_fre)
    p_fre.set_defaults(func=cmd_frenet)

    p_ver = sub.add_parser("verify", help="run the closed-form verification battery")
    p_ver.add_argument(
        "target",
        nargs="?",
        default="all",
        help=f"'all' or one of {', '.join(verify_mod.group_names())}",
    )
    p_ver.add_argument("--out", default=None, help="directory for the JSON report")
    p_ver.add_argument("--seed", type=int, default=None, help="seed override")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BundleFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
