"""Verification battery: re-proves the catalog's closed forms numerically.

Each claim pins a measured quantity against a fixed tolerance.  The groups
are callable one at a time (``bundleflow verify <group>``) or all together;
every claim prints one pass/fail line.  The same functions back the
acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .bundle import BundleState, BundleSystem, geodesic_residual, phi_mirror
from .errors import UnknownEntryError
from .frenet import covariant_jets, frenet_curvatures
from .geometry import (
    CurvatureOperator,
    MetricStructure,
    check_curvature_purity,
    check_norden,
    check_parallel_phi,
    curvature_power,
    curvature_power_closed,
    json_number,
)
from .integrate import IntegratorConfig, Trajectory, convergence_order, integrate

__all__ = ["Claim", "run_group", "run_all", "group_names", "format_claims"]

DEFAULT_SEED = 12345

# step used for the drift-order ratio; the production step of 1e-3 conserves
# the monitors to the roundoff floor, where halving ratios are meaningless
ORDER_STEP = 0.02


@dataclass(frozen=True)
class Claim:
    name: str
    passed: bool
    measured: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name:<46s} measured={self.measured:10.3e}  tol={self.tol:.1e}"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": json_number(self.measured),
            "tol": float(self.tol),
            "detail": self.detail,
        }


def _claim(name, measured, tol, *, detail="") -> Claim:
    return Claim(name, bool(measured < tol), float(measured), float(tol), detail)


def _claim_at_least(name, measured, bound, *, detail="") -> Claim:
    return Claim(name, bool(measured >= bound), float(measured), float(bound), detail)


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _monitor_drift(traj) -> float:
    return max(
        float(np.max(np.abs(series - series[0]))) for series in traj.monitors.values()
    )


def _trajectory_error(traj, reference: Trajectory) -> float:
    err = 0.0
    for got, want in (
        (traj.x, reference.x),
        (traj.xdot, reference.xdot),
        (traj.xi, reference.xi),
        (traj.xidot, reference.xidot),
    ):
        err = max(err, _max_err(got, want))
    return err


def _drift_order_ratio(M, system, init, t_span, h) -> float:
    drifts = []
    for step in (h, h / 2.0):
        traj = integrate(M, system, init, IntegratorConfig(step=step, t_span=t_span))
        drifts.append(_monitor_drift(traj))
    if drifts[1] == 0.0:
        return math.inf
    return drifts[0] / drifts[1]


# -- canonical runs -----------------------------------------------------------


def euclid_oblique_family(rho: float = 0.5):
    ent = catalog.entry("euclid_oblique")
    c3 = np.array([math.cosh(0.3), 0.0, math.sinh(0.3), 0.0])
    c4 = np.array([0.0, math.cosh(0.2), 0.0, -math.sinh(0.2)])
    c1 = math.sqrt(1.0 - rho**2) * np.array([0.6, 0.8, 0.0, 0.0])
    c2 = np.array([0.1, -0.3, 0.2, 0.05])
    fam = ent.family("oblique_geodesic", rho=rho, c1=c1, c2=c2, c3=c3, c4=c4)
    return ent, fam


def const_curv_run(c: float = 1.0, *, step: float = 1e-3, t_span=(0.0, 1.0)):
    # Fiber data sits in the +1 eigenbundle of phi, so R(xi, phi xi) and
    # R(xi', phi xi') vanish along the whole run; the synthetic operator is
    # not pure, and only then does the jet recursion behind the constancy
    # results apply to it.  Generic fiber data measurably breaks constancy.
    ent = catalog.entry(f"const_curv({c})")
    init = BundleState(
        x=np.zeros(4),
        xdot=np.array([0.2, 0.3, 0.4, math.sqrt(0.35)]),
        xi=np.array([1.0, 0.0, 0.0, 0.0]),
        xidot=np.array([0.0, 0.6, 0.0, 0.0]),
    )
    traj = integrate(
        ent.structure,
        BundleSystem("geodesic_unit"),
        init,
        IntegratorConfig(step=step, t_span=t_span),
    )
    return ent, init, traj


# -- groups -------------------------------------------------------------------


def verify_structure(seed: int = DEFAULT_SEED) -> list[Claim]:
    claims = []
    for name in ("exp2d", "flat_diag", "poly2d"):
        ent = catalog.entry(name)
        M = ent.structure
        # "fd" labels the twin without analytic Christoffel symbols; its
        # Gamma comes from exact jets of g
        derived = MetricStructure(M.dim, M.g, M.phi, chart_box=M.chart_box, name=M.name)
        for label, structure in (("analytic", M), ("fd", derived)):
            nor = check_norden(structure, n_points=100, seed=seed)
            par = check_parallel_phi(structure, n_points=100, seed=seed)
            claims.append(
                _claim(f"structure/{name}/norden_{label}", nor.max_residual, nor.tol)
            )
            claims.append(
                _claim(
                    f"structure/{name}/parallel_phi_{label}",
                    par.max_residual,
                    par.tol,
                )
            )
        pur = check_curvature_purity(M, n_points=10, seed=seed)
        claims.append(
            _claim(f"structure/{name}/curvature_purity", pur.max_residual, pur.tol)
        )
    # negative control: a generic phi must fail the structure axioms
    rng = np.random.default_rng(seed)
    bad_phi = rng.uniform(-1.0, 1.0, size=(2, 2))
    bad = MetricStructure(2, [["1", "0"], ["0", "1"]], bad_phi.tolist(), name="random_phi")
    nor = check_norden(bad, n_points=20, seed=seed)
    claims.append(
        _claim_at_least(
            "structure/negative_control_random_phi",
            nor.max_residual,
            1e-3,
            detail="generic phi must violate the axioms",
        )
    )
    return claims


def verify_euclid_oblique(seed: int = DEFAULT_SEED) -> list[Claim]:
    ent, fam = euclid_oblique_family(rho=0.5)
    M = ent.structure
    claims = []
    times = np.linspace(0.0, 1.0, 201)
    sampled = fam.trajectory(M, times)
    res = geodesic_residual(M, fam.system, sampled)
    claims.append(_claim("euclid_oblique/closed_form_residual", res.max_residual, 1e-8))

    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    traj = integrate(M, fam.system, fam.initial_state(), cfg)
    reference = fam.trajectory(M, traj.times)
    claims.append(
        _claim(
            "euclid_oblique/integration_error",
            _trajectory_error(traj, reference),
            1e-8,
            detail="rk4 h=1e-3 vs trigonometric closed form",
        )
    )
    claims.append(
        _claim("euclid_oblique/monitor_drift", _monitor_drift(traj), 1e-9)
    )
    ratio = _drift_order_ratio(M, fam.system, fam.initial_state(), (0.0, 1.0), ORDER_STEP)
    claims.append(
        _claim_at_least(
            "euclid_oblique/drift_halving_ratio",
            ratio,
            8.0,
            detail=f"measured at h={ORDER_STEP:g} above the roundoff floor",
        )
    )
    order = convergence_order(
        M, fam.system, fam.initial_state(), IntegratorConfig(step=0.05, t_span=(0.0, 1.0))
    )
    measured = math.nan if order is None else order
    claims.append(
        Claim(
            "euclid_oblique/convergence_order",
            order is not None and abs(order - 4.0) < 0.3,
            float(measured),
            0.3,
            "|order - 4| bound",
        )
    )
    return claims


def verify_exp2d(seed: int = DEFAULT_SEED) -> list[Claim]:
    ent = catalog.entry("exp2d")
    M = ent.structure
    claims = []
    lam = math.sqrt(0.5)
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    for label, params in (
        ("natural", dict(a=0.0, b=0.0, lam=lam, eta=lam)),
        ("horizontal", dict(a=0.0, b=0.0, lam=lam, eta=lam, h1=1.0, h2=0.5)),
    ):
        fam = ent.family(f"{label}_lift", **params)
        times = np.linspace(0.0, 1.0, 201)
        res = geodesic_residual(M, fam.system, fam.trajectory(M, times))
        claims.append(
            _claim(f"exp2d/{label}_closed_form_residual", res.max_residual, 1e-8)
        )
        traj = integrate(M, fam.system, fam.initial_state(), cfg)
        reference = fam.trajectory(M, traj.times)
        claims.append(
            _claim(
                f"exp2d/{label}_integration_error",
                _max_err(traj.x, reference.x),
                1e-6,
                detail="logarithmic geodesic",
            )
        )
        claims.append(
            _claim(
                f"exp2d/{label}_fiber_error",
                _max_err(traj.xi, reference.xi),
                1e-6,
            )
        )
        claims.append(_claim(f"exp2d/{label}_monitor_drift", _monitor_drift(traj), 1e-9))
    fam = ent.family("natural_lift", a=0.0, b=0.0, lam=lam, eta=lam)
    ratio = _drift_order_ratio(M, fam.system, fam.initial_state(), (0.0, 1.0), ORDER_STEP)
    claims.append(
        _claim_at_least(
            "exp2d/drift_halving_ratio",
            ratio,
            8.0,
            detail=f"measured at h={ORDER_STEP:g} above the roundoff floor",
        )
    )
    return claims


def verify_flat_diag(seed: int = DEFAULT_SEED) -> list[Claim]:
    ent = catalog.entry("flat_diag")
    M = ent.structure
    claims = []

    fam = ent.family("hphi_geodesic")
    times = np.linspace(0.0, 1.0, 201)
    res = geodesic_residual(M, fam.system, fam.trajectory(M, times))
    claims.append(_claim("flat_diag/hphi_geodesic_residual", res.max_residual, 1e-8))
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    traj = integrate(M, fam.system, fam.initial_state(), cfg)
    reference = fam.trajectory(M, traj.times)
    claims.append(
        _claim(
            "flat_diag/hphi_geodesic_integration",
            _trajectory_error(traj, reference),
            1e-8,
            detail="exponential family",
        )
    )

    fam = ent.family("hphi_planar")
    times = np.linspace(0.0, 0.9, 201)
    res = geodesic_residual(M, fam.system, fam.trajectory(M, times))
    claims.append(_claim("flat_diag/hphi_planar_residual", res.max_residual, 1e-8))
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 0.9))
    traj = integrate(M, fam.system, fam.initial_state(), cfg)
    reference = fam.trajectory(M, traj.times)
    claims.append(
        _claim(
            "flat_diag/hphi_planar_integration",
            _trajectory_error(traj, reference),
            1e-6,
            detail="cubic/logarithmic family on [0, 0.9]",
        )
    )
    return claims


def verify_poly2d(seed: int = DEFAULT_SEED) -> list[Claim]:
    ent = catalog.entry("poly2d")
    M = ent.structure
    claims = []
    fam = ent.family("f_geodesic_lift")
    times = np.linspace(0.0, 1.0, 201)
    res = geodesic_residual(M, fam.system, fam.trajectory(M, times))
    claims.append(_claim("poly2d/f_geodesic_residual", res.max_residual, 1e-8))
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 1.0))
    traj = integrate(M, fam.system, fam.initial_state(), cfg)
    reference = fam.trajectory(M, traj.times)
    claims.append(
        _claim(
            "poly2d/f_geodesic_integration",
            _trajectory_error(traj, reference),
            1e-6,
            detail="square-root family under horizontal lift",
        )
    )
    fam = ent.family("f_planar_lift")
    res = geodesic_residual(M, fam.system, fam.trajectory(M, times))
    claims.append(
        _claim(
            "poly2d/f_planar_residual",
            res.max_residual,
            1e-8,
            detail="constant coefficients; residual-only validation",
        )
    )
    return claims


def verify_curvature_power(seed: int = DEFAULT_SEED) -> list[Claim]:
    g = np.eye(4)
    eye = np.eye(4)
    # dyadic data keeps both evaluation orders exact; the extra non-dyadic
    # pair stays below unit magnitude so roundoff cannot reach the tolerance
    pairs = [
        ("orthonormal", eye[0], eye[1], eye[1]),
        ("dyadic", np.array([1.0, 0.5, 0.0, 0.0]), np.array([0.25, 1.0, 0.125, 0.0]),
         np.array([0.5, 1.0, 0.25, 0.0])),
        ("generic", np.array([0.15, 0.55, 0.0, 0.1]), np.array([0.35, -0.2, 0.25, 0.0]),
         np.array([0.3, -0.15, 0.2, 0.1])),
    ]
    claims = []
    for c in (-2.0, 1.0, 3.0):
        op = CurvatureOperator(c)
        worst = 0.0
        for _, X, Y, Z in pairs:
            for power in range(1, 9):
                naive = curvature_power(op, power, X, Y, Z, g_mat=g)
                closed = curvature_power_closed(op, power, X, Y, Z, g_mat=g)
                worst = max(worst, _max_err(naive, closed))
        claims.append(
            _claim(
                f"curvature_power/c={c:g}",
                worst,
                1e-12,
                detail="closed form vs naive iteration, p <= 8",
            )
        )
    return claims


def verify_frenet(seed: int = DEFAULT_SEED) -> list[Claim]:
    claims = []

    # (a) projected oblique geodesics in flat space are straight lines
    ent, fam = euclid_oblique_family(rho=0.5)
    traj = integrate(
        ent.structure,
        fam.system,
        fam.initial_state(),
        IntegratorConfig(step=1e-3, t_span=(0.0, 1.0)),
    )
    jets = covariant_jets(ent.structure, traj, 2)
    result = frenet_curvatures(ent.structure, jets)
    claims.append(
        _claim(
            "frenet/projected_line_curvature",
            float(np.max(np.abs(result.curvatures))),
            1e-7,
        )
    )

    # (b) classical circle and helix oracles in flat charts
    flat2 = catalog.entry("flat_diag").structure
    radius = 0.75
    times = np.linspace(0.0, 2.0 * math.pi, 2001)
    cos, sin = np.cos(times), np.sin(times)
    circle = Trajectory.from_base_curve(
        times,
        np.stack([radius * cos, radius * sin], axis=1),
        np.stack([-radius * sin, radius * cos], axis=1),
        np.stack([-radius * cos, -radius * sin], axis=1),
    )
    result = frenet_curvatures(flat2, covariant_jets(flat2, circle, 2))
    claims.append(
        _claim(
            "frenet/circle_k1",
            abs(float(result.means[0]) - 1.0 / radius),
            1e-5,
            detail=f"radius {radius}",
        )
    )

    flat4 = catalog.entry("euclid_oblique").structure
    a_h, b_h = 1.0, 0.5
    times = np.linspace(0.0, 2.0 * math.pi, 4001)
    cos, sin = np.cos(times), np.sin(times)
    zeros = np.zeros_like(times)
    helix = Trajectory.from_base_curve(
        times,
        np.stack([a_h * cos, a_h * sin, b_h * times, zeros], axis=1),
        np.stack([-a_h * sin, a_h * cos, np.full_like(times, b_h), zeros], axis=1),
        np.stack([-a_h * cos, -a_h * sin, zeros, zeros], axis=1),
    )
    result = frenet_curvatures(flat4, covariant_jets(flat4, helix, 3))
    w_sq = a_h**2 + b_h**2
    claims.append(
        _claim(
            "frenet/helix_k1",
            abs(float(result.means[0]) - a_h / w_sq),
            1e-5,
        )
    )
    claims.append(
        _claim(
            "frenet/helix_k2",
            abs(float(result.means[1]) - b_h / w_sq),
            1e-5,
        )
    )
    claims.append(
        _claim(
            "frenet/helix_constancy",
            float(np.max(result.constancy)),
            1e-5,
        )
    )

    # (c)+(d) synthetic constant-curvature unit geodesic
    ent, init, traj = const_curv_run(c=1.0)
    M = ent.structure
    jets = covariant_jets(M, traj, 4)
    result = frenet_curvatures(M, jets)
    k1, k2, k3 = (float(v) for v in result.means[:3])
    claims.append(
        _claim(
            "frenet/const_curv_k1_k2_constancy",
            float(np.max(result.constancy[:2])),
            1e-4,
            detail=f"k1 = {k1:.6f}, k2 = {k2:.6f}",
        )
    )
    claims.append(
        _claim(
            "frenet/const_curv_k3",
            float(np.max(np.abs(result.curvatures[:, 2]))),
            1e-6,
            detail="higher curvatures vanish",
        )
    )
    g0 = M.metric_at(init.x)
    phi0 = M.phi_at(init.x)
    xi_prime0 = init.xidot  # flat chart: coordinate and covariant agree
    phixi0 = phi0 @ init.xi
    b_sq = float(xi_prime0 @ g0 @ xi_prime0) * float(phixi0 @ g0 @ phixi0) - float(
        xi_prime0 @ g0 @ phixi0
    ) ** 2
    rho_sq = float(traj.monitors["rho_sq"][0])
    relation = abs(b_sq * 1.0 - (1.0 - rho_sq) * (k1**2 + k2**2))
    claims.append(
        _claim(
            "frenet/const_curv_curvature_relation",
            relation,
            1e-4,
            detail="b^2 c^2 = (1 - rho^2)(k1^2 + k2^2)",
        )
    )
    return claims


def verify_mirror(seed: int = DEFAULT_SEED) -> list[Claim]:
    claims = []
    ent, fam = euclid_oblique_family(rho=0.5)
    M = ent.structure
    times = np.linspace(0.0, 1.0, 201)
    traj = fam.trajectory(M, times)
    mirrored = phi_mirror(M, traj)
    res = geodesic_residual(M, fam.system, mirrored)
    claims.append(_claim("mirror/euclid_residual", res.max_residual, 1e-8))
    double = phi_mirror(M, mirrored)
    exact = float(
        max(
            np.max(np.abs(double.xi - traj.xi)),
            np.max(np.abs(double.xidot - traj.xidot)),
        )
    )
    claims.append(
        Claim("mirror/euclid_double_exact", exact == 0.0, exact, 0.0, "bitwise identity")
    )
    claims.append(
        _claim(
            "mirror/euclid_unit_norm",
            float(np.max(np.abs(mirrored.monitors["unit_norm"] - 1.0))),
            1e-12,
        )
    )

    exp2d = catalog.entry("exp2d")
    lam = math.sqrt(0.5)
    fam = exp2d.family("horizontal_lift", lam=lam, eta=lam, h1=1.0, h2=0.5)
    traj = fam.trajectory(exp2d.structure, times)
    mirrored = phi_mirror(exp2d.structure, traj)
    res = geodesic_residual(exp2d.structure, fam.system, mirrored)
    claims.append(_claim("mirror/exp2d_residual", res.max_residual, 1e-8))
    double = phi_mirror(exp2d.structure, mirrored)
    err = max(_max_err(double.xi, traj.xi), _max_err(double.xidot, traj.xidot))
    claims.append(_claim("mirror/exp2d_double_identity", err, 1e-13))
    return claims


def verify_lift_equivalence(seed: int = DEFAULT_SEED) -> list[Claim]:
    ent = catalog.entry("flat_diag")
    M = ent.structure
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, 201)
    worst = 0.0
    for i in range(20):
        sol = catalog.random_f_planar_solution(rng, on_unit=bool(i % 2))
        res = geodesic_residual(M, sol.system, sol.trajectory(M, times))
        worst = max(worst, res.max_residual)
    claims = [
        _claim(
            "lift_equivalence/random_horizontal_lifts",
            worst,
            1e-7,
            detail="20 seeded F-planar base solutions, TM and unit bundle",
        )
    ]
    sol = catalog.random_f_planar_solution(np.random.default_rng(seed + 1))
    bad = catalog.perturbed_base(sol)
    res = geodesic_residual(M, bad.system, bad.trajectory(M, times))
    claims.append(
        _claim_at_least(
            "lift_equivalence/negative_control",
            res.max_residual,
            1e-3,
            detail="perturbed base must violate the lifted equations",
        )
    )
    return claims


_GROUPS = {
    "structure": verify_structure,
    "euclid_oblique": verify_euclid_oblique,
    "exp2d": verify_exp2d,
    "flat_diag": verify_flat_diag,
    "poly2d": verify_poly2d,
    "curvature_power": verify_curvature_power,
    "frenet": verify_frenet,
    "mirror": verify_mirror,
    "lift_equivalence": verify_lift_equivalence,
}


def group_names() -> tuple[str, ...]:
    return tuple(_GROUPS)


def run_group(name: str, seed: int = DEFAULT_SEED) -> list[Claim]:
    if name not in _GROUPS:
        raise UnknownEntryError(
            f"unknown verification group {name!r}; known: {sorted(_GROUPS)} or 'all'"
        )
    return _GROUPS[name](seed)


def run_all(seed: int = DEFAULT_SEED) -> list[Claim]:
    claims = []
    for fn in _GROUPS.values():
        claims.extend(fn(seed))
    return claims


def format_claims(claims) -> str:
    lines = [c.line() for c in claims]
    n_pass = sum(c.passed for c in claims)
    lines.append(f"{n_pass}/{len(claims)} claims passed")
    return "\n".join(lines)
