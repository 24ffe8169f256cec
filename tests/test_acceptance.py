"""Acceptance battery: every contract criterion at its stated tolerance.

Each test prints one pass/fail line; the same measurements back the CLI's
``verify`` subcommand, so a green suite here and ``bundleflow verify all``
exiting 0 are the same statement.
"""

import json

import pytest

from bundleflow import bundle, cli, verify


@pytest.fixture(scope="module")
def claims():
    cache = {}

    def get(group: str):
        if group not in cache:
            cache[group] = {c.name: c for c in verify.run_group(group)}
        return cache[group]

    return get


def _report(criterion: str, items) -> None:
    items = list(items)
    ok = all(c.passed for c in items)
    worst = max(items, key=lambda c: (not c.passed, c.measured / max(c.tol, 1e-300)))
    print(
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"({len(items)} claims; tightest {worst.name}: "
        f"measured={worst.measured:.3e} tol={worst.tol:.1e})"
    )
    assert ok, f"failed claims: {[c.name for c in items if not c.passed]}"


def test_criterion_01_structure_axioms(claims):
    group = claims("structure")
    _report("1 structure axioms", group.values())
    jet_names = [n for n in group if n.endswith("_jet")]
    assert jet_names, "the path without analytic Christoffel symbols must be exercised"
    assert group["structure/negative_control_random_phi"].passed


def test_criterion_02_oblique_geodesic_oracle(claims):
    group = claims("euclid_oblique")
    _report(
        "2 trigonometric oblique-geodesic oracle",
        [group["euclid_oblique/closed_form_residual"], group["euclid_oblique/integration_error"]],
    )


def test_criterion_03_log_geodesic_oracle(claims):
    group = claims("exp2d")
    _report(
        "3 logarithmic geodesic oracle (natural + horizontal lifts)",
        [
            group["exp2d/natural_closed_form_residual"],
            group["exp2d/natural_integration_error"],
            group["exp2d/natural_fiber_error"],
            group["exp2d/horizontal_integration_error"],
            group["exp2d/horizontal_fiber_error"],
        ],
    )


def test_criterion_04_conserved_monitors(claims):
    items = [
        claims("euclid_oblique")["euclid_oblique/monitor_drift"],
        claims("euclid_oblique")["euclid_oblique/drift_halving_ratio"],
        claims("exp2d")["exp2d/natural_monitor_drift"],
        claims("exp2d")["exp2d/horizontal_monitor_drift"],
        claims("exp2d")["exp2d/drift_halving_ratio"],
    ]
    _report("4 conserved monitors (drift < 1e-9, halving ratio >= 8)", items)


def test_criterion_05_flat_plane_oracles(claims):
    _report("5 flat-plane phi-geodesic and phi-planar oracles", claims("flat_diag").values())


def test_criterion_06_square_root_f_geodesic_oracle(claims):
    group = claims("poly2d")
    _report(
        "6 square-root F-geodesic oracle",
        [group["poly2d/f_geodesic_residual"], group["poly2d/f_geodesic_integration"]],
    )


def test_criterion_07_curvature_power_closed_form(claims):
    _report("7 curvature powers: closed form vs iteration", claims("curvature_power").values())


def test_criterion_08_frenet(claims):
    group = claims("frenet")
    _report(
        "8 Frenet-curvature suite (a-d)",
        [
            group["frenet/projected_line_curvature"],
            group["frenet/circle_k1"],
            group["frenet/helix_k1"],
            group["frenet/helix_k2"],
            group["frenet/const_curv_k1_k2_constancy"],
            group["frenet/const_curv_k3"],
            group["frenet/const_curv_curvature_relation"],
        ],
    )


def test_criterion_09_phi_mirror(claims):
    _report("9 phi-mirror involution and geodesic preservation", claims("mirror").values())


def test_criterion_10_horizontal_lift_equivalence(claims):
    _report("10 horizontal-lift equivalence (20 seeded runs)", claims("lift_equivalence").values())


def test_criterion_11_integrator_order(claims):
    _report(
        "11 integrator convergence order 4.0 +/- 0.3",
        [claims("euclid_oblique")["euclid_oblique/convergence_order"]],
    )


def test_criterion_12_cli_verify_contract(tmp_path, monkeypatch, capsys):
    rc_good = cli.main(["verify", "all", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True

    # plant a single sign flip in the unit-bundle fiber acceleration and the
    # battery must notice (the oblique-geodesic oracle fails, exit code 1)
    original = bundle.unit_fiber_acceleration

    def flipped(g_mat, phi_mat, xi, xi_prime):
        return -original(g_mat, phi_mat, xi, xi_prime)

    monkeypatch.setattr(bundle, "unit_fiber_acceleration", flipped)
    rc_mutated = cli.main(["verify", "euclid_oblique"])
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert "FAIL" in out

    rc_unknown = cli.main(["verify", "no_such_suite"])
    ok = rc_good == 0 and rc_mutated == 1 and rc_unknown == 2
    print(
        "ACCEPTANCE 12 CLI verify contract: "
        f"{'PASS' if ok else 'FAIL'} (clean={rc_good}, sign-mutated={rc_mutated}, "
        f"unknown-name={rc_unknown})"
    )
    assert ok


def test_full_battery_summary(claims):
    all_claims = verify.run_all()
    n_pass = sum(c.passed for c in all_claims)
    print(f"ACCEPTANCE SUMMARY: {n_pass}/{len(all_claims)} verification claims pass")
    assert n_pass == len(all_claims)
