"""Built-in manifolds with analytic Christoffel data and closed-form solutions.

Each entry carries a :class:`MetricStructure` (with analytic Christoffel
symbols), an optional default F tensor, and a set of closed-form solution
families.  The families evaluate positions together with exact first and
second coordinate derivatives, so a sampled family can be pushed through the
residual evaluators without differentiation noise; they also enforce their
parameter constraints (raising :class:`ParameterError`) and their validity
intervals.

Entries:

* ``exp2d``         plane with g = e^{2x} dx^2 + e^{2y} dy^2 and an
                    off-diagonal exponential para-structure; geodesics are
                    logarithmic, with natural and horizontal unit lifts.
* ``flat_diag``     Euclidean plane with phi = diag(1, -1); exponential
                    phi-geodesic family and a cubic/logarithmic phi-planar
                    family with coefficients 1/(t+1) and 1/(t-1).
* ``poly2d``        plane with g = x^2 dx^2 + y^2 dy^2, hyperbolic-looking
                    para-structure, diagonal F; square-root F-geodesic
                    family under horizontal lifts with fibers k/x.
* ``euclid_oblique`` flat R^4 with constant para-structure; trigonometric
                    oblique unit-bundle geodesics.
* ``const_curv(c)`` flat R^4 chart given the constant curvature tensor of
                    the synthetic constant-curvature operator (no metric
                    derives it); used for curvature-power identities and
                    Frenet behaviour of unit-bundle geodesics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bundle import BundleState, BundleSystem, FPlanarCoefficients, FTensor
from .errors import ParameterError, UnknownEntryError
from .geometry import CurvatureOperator, FieldTensor, MetricStructure
from .integrate import Trajectory, compute_monitors

__all__ = [
    "CatalogEntry",
    "ClosedForm",
    "entry",
    "entry_names",
    "random_f_planar_solution",
    "perturbed_base",
]

_NAMES = ("exp2d", "flat_diag", "poly2d", "euclid_oblique", "const_curv")


@dataclass(frozen=True)
class ClosedForm:
    """A parameterized exact solution of one of the bundle systems."""

    name: str
    manifold: str
    system: BundleSystem
    base: Callable  # times -> (x, xdot, xddot), each (n, dim)
    fiber: Callable  # times -> (xi, xidot, xiddot)
    validity: Callable  # (t0, t1) -> None, raises ParameterError
    unit_geodesic: bool = False

    def trajectory(self, M: MetricStructure, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        self.validity(float(times[0]), float(times[-1]))
        x, xdot, xddot = self.base(times)
        xi, xidot, xiddot = self.fiber(times)
        traj = Trajectory(
            times=times.copy(),
            x=x,
            xdot=xdot,
            xi=xi,
            xidot=xidot,
            xddot=xddot,
            xiddot=xiddot,
            meta={
                "system": self.system.kind,
                "closed_form": self.name,
                "manifold": self.manifold,
                "unit_geodesic": self.unit_geodesic,
            },
        )
        compute_monitors(M, traj)
        return traj

    def initial_state(self, t0: float = 0.0) -> BundleState:
        t = np.array([float(t0)])
        x, xdot, _ = self.base(t)
        xi, xidot, _ = self.fiber(t)
        return BundleState(x[0], xdot[0], xi[0], xidot[0])


@dataclass
class CatalogEntry:
    name: str
    structure: MetricStructure
    f_tensor: FTensor | None = None
    curvature_op: CurvatureOperator | None = None
    families: dict = field(default_factory=dict)

    def family(self, name: str, **params) -> ClosedForm:
        if name not in self.families:
            raise UnknownEntryError(
                f"entry {self.name!r} has no family {name!r}; "
                f"known: {sorted(self.families)}"
            )
        return self.families[name](**params)


def entry_names() -> tuple[str, ...]:
    return _NAMES


def entry(name: str, **kwargs) -> CatalogEntry:
    """Look up a catalog entry; ``const_curv(c)`` encodes its parameter."""
    match = re.fullmatch(r"const_curv\(([-+0-9.eE]+)\)", name.strip())
    if match:
        return _const_curv(c=float(match.group(1)), **kwargs)
    key = name.strip()
    builders = {
        "exp2d": _exp2d,
        "flat_diag": _flat_diag,
        "poly2d": _poly2d,
        "euclid_oblique": _euclid_oblique,
        "const_curv": _const_curv,
    }
    if key not in builders:
        raise UnknownEntryError(f"unknown catalog entry {name!r}; known: {_NAMES}")
    return builders[key](**kwargs)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _span_inside(t0, t1, lo, hi, what):
    _require(lo < t0 <= t1 < hi, f"{what}: need t in ({lo:g}, {hi:g})")


# -- exp2d --------------------------------------------------------------------


def _exp2d() -> CatalogEntry:
    structure = MetricStructure(
        2,
        [["exp(2*x1)", "0"], ["0", "exp(2*x2)"]],
        [["0", "exp(x2 - x1)"], ["exp(x1 - x2)", "0"]],
        christoffel=[
            [["1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1"]],
        ],
        chart_box=[(-1.5, 1.5), (-1.5, 1.5)],
        name="exp2d",
    )

    def log_base(a, b, lam, eta):
        def base(t):
            p = 1.0 + lam * t
            q = 1.0 + eta * t
            x = np.stack([a + np.log(p), b + np.log(q)], axis=1)
            xdot = np.stack([lam / p, eta / q], axis=1)
            xddot = np.stack([-(lam**2) / p**2, -(eta**2) / q**2], axis=1)
            return x, xdot, xddot

        return base

    def log_validity(lam, eta):
        def validity(t0, t1):
            for t in (t0, t1):
                _require(1.0 + lam * t > 0.0, f"need 1 + {lam:g} t > 0 at t = {t:g}")
                _require(1.0 + eta * t > 0.0, f"need 1 + {eta:g} t > 0 at t = {t:g}")

        return validity

    def natural_lift(a=0.0, b=0.0, lam=math.sqrt(0.5), eta=math.sqrt(0.5)) -> ClosedForm:
        norm = 2.0 * lam * eta * math.exp(a + b)
        _require(
            abs(norm - 1.0) <= 1e-12,
            f"natural lift leaves the phi-unit bundle: 2 lam eta e^(a+b) = {norm:.17g}",
        )

        def fiber(t):
            p = 1.0 + lam * t
            q = 1.0 + eta * t
            xi = np.stack([lam / p, eta / q], axis=1)
            xidot = np.stack([-(lam**2) / p**2, -(eta**2) / q**2], axis=1)
            xiddot = np.stack([2.0 * lam**3 / p**3, 2.0 * eta**3 / q**3], axis=1)
            return xi, xidot, xiddot

        return ClosedForm(
            "natural_lift",
            "exp2d",
            BundleSystem("geodesic_unit"),
            log_base(a, b, lam, eta),
            fiber,
            log_validity(lam, eta),
            unit_geodesic=True,
        )

    def horizontal_lift(
        a=0.0, b=0.0, lam=math.sqrt(0.5), eta=math.sqrt(0.5), h1=1.0, h2=0.5
    ) -> ClosedForm:
        norm = 2.0 * h1 * h2 * math.exp(a + b)
        _require(
            abs(norm - 1.0) <= 1e-12,
            f"horizontal lift leaves the phi-unit bundle: 2 h1 h2 e^(a+b) = {norm:.17g}",
        )

        def fiber(t):
            p = 1.0 + lam * t
            q = 1.0 + eta * t
            xi = np.stack([h1 / p, h2 / q], axis=1)
            xidot = np.stack([-h1 * lam / p**2, -h2 * eta / q**2], axis=1)
            xiddot = np.stack([2.0 * h1 * lam**2 / p**3, 2.0 * h2 * eta**2 / q**3], axis=1)
            return xi, xidot, xiddot

        return ClosedForm(
            "horizontal_lift",
            "exp2d",
            BundleSystem("geodesic_unit"),
            log_base(a, b, lam, eta),
            fiber,
            log_validity(lam, eta),
            unit_geodesic=True,
        )

    return CatalogEntry(
        "exp2d",
        structure,
        families={"natural_lift": natural_lift, "horizontal_lift": horizontal_lift},
    )


# -- flat_diag ----------------------------------------------------------------


def _flat_diag() -> CatalogEntry:
    structure = MetricStructure(
        2,
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["0", "-1"]],
        christoffel=FieldTensor.zeros(2, 3),
        chart_box=[(-2.0, 2.0), (-2.0, 2.0)],
        name="flat_diag",
    )
    f_phi = FTensor(is_phi=True)

    def exp_pair(kp, ko, sign):
        # one component of the exponential family: kp e^{sign t} + ko
        def values(t):
            e = np.exp(sign * t)
            return kp * e + ko, sign * kp * e, kp * e

        return values

    def hphi_geodesic(
        k1=0.5, k2=0.1, k3=0.3, k4=-0.2, k5=0.4, k6=0.0, k7=0.25, k8=0.05
    ) -> ClosedForm:
        cx = exp_pair(k1, k2, 1.0)
        cy = exp_pair(k3, k4, -1.0)
        cu = exp_pair(k5, k6, 1.0)
        cv = exp_pair(k7, k8, -1.0)

        def base(t):
            x0, xd0, xdd0 = cx(t)
            x1, xd1, xdd1 = cy(t)
            return (
                np.stack([x0, x1], axis=1),
                np.stack([xd0, xd1], axis=1),
                np.stack([xdd0, xdd1], axis=1),
            )

        def fiber(t):
            u0, ud0, udd0 = cu(t)
            u1, ud1, udd1 = cv(t)
            return (
                np.stack([u0, u1], axis=1),
                np.stack([ud0, ud1], axis=1),
                np.stack([udd0, udd1], axis=1),
            )

        return ClosedForm(
            "hphi_geodesic",
            "flat_diag",
            BundleSystem("f_geodesic_tm", f_tensor=f_phi),
            base,
            fiber,
            lambda t0, t1: None,
        )

    def hphi_planar(
        a1=0.2, a2=0.4, a3=0.3, a4=-0.1, b1=0.15, b2=0.0, b3=-0.2, b4=0.5
    ) -> ClosedForm:
        # coefficient functions 1/(t+1) and 1/(t-1); components solve
        #   w'' = (rho1 +/- rho2) w'
        # with the cubic branch for +, the logarithmic branch for -
        coeffs = FPlanarCoefficients.parse("1/(t + 1)", "1/(t - 1)")

        def cubic(p, o, t):
            return p * t**3 - 3.0 * p * t + o, 3.0 * p * (t**2 - 1.0), 6.0 * p * t

        def logbr(p, o, t):
            tm = t - 1.0
            return (
                p * np.log(tm**2) + p * t + o,
                2.0 * p / tm + p,
                -2.0 * p / tm**2,
            )

        def base(t):
            x0, xd0, xdd0 = cubic(a1, a2, t)
            x1, xd1, xdd1 = logbr(a3, a4, t)
            return (
                np.stack([x0, x1], axis=1),
                np.stack([xd0, xd1], axis=1),
                np.stack([xdd0, xdd1], axis=1),
            )

        def fiber(t):
            u0, ud0, udd0 = cubic(b1, b2, t)
            u1, ud1, udd1 = logbr(b3, b4, t)
            return (
                np.stack([u0, u1], axis=1),
                np.stack([ud0, ud1], axis=1),
                np.stack([udd0, udd1], axis=1),
            )

        return ClosedForm(
            "hphi_planar",
            "flat_diag",
            BundleSystem("f_planar_tm", f_tensor=f_phi, coefficients=coeffs),
            base,
            fiber,
            lambda t0, t1: _span_inside(t0, t1, -1.0, 1.0, "hphi_planar coefficients"),
        )

    return CatalogEntry(
        "flat_diag",
        structure,
        f_tensor=f_phi,
        families={"hphi_geodesic": hphi_geodesic, "hphi_planar": hphi_planar},
    )


# -- poly2d -------------------------------------------------------------------


def _poly2d(a: float = 1.0, b: float = -0.5) -> CatalogEntry:
    structure = MetricStructure(
        2,
        [["x1^2", "0"], ["0", "x2^2"]],
        [["0", "x2/x1"], ["x1/x2", "0"]],
        christoffel=[
            [["1/x1", "0"], ["0", "0"]],
            [["0", "0"], ["0", "1/x2"]],
        ],
        chart_box=[(0.4, 2.5), (0.4, 2.5)],
        name="poly2d",
    )
    f_tensor = FTensor.from_spec([[a, 0.0], [0.0, b]], 2)

    def sqrt_component(eps, c_grow, c_off, rate):
        # x = eps sqrt(c_grow e^{rate t} + c_off)
        def values(t):
            w = c_grow * np.exp(rate * t) + c_off
            wp = rate * c_grow * np.exp(rate * t)
            wpp = rate * wp
            root = np.sqrt(w)
            x = eps * root
            xd = eps * wp / (2.0 * root)
            xdd = eps * (wpp / (2.0 * root) - wp**2 / (4.0 * w * root))
            return x, xd, xdd

        def positive_on(t0, t1):
            for t in (t0, t1):
                _require(
                    c_grow * math.exp(rate * t) + c_off > 0.0,
                    f"sqrt argument not positive at t = {t:g}",
                )

        return values, positive_on

    def _lift(name, system, rate1, rate2, c1, c2, c3, c4, eps1, eps2, k1, k2):
        cx, vx = sqrt_component(eps1, c1, c2, rate1)
        cy, vy = sqrt_component(eps2, c3, c4, rate2)

        def base(t):
            x0, xd0, xdd0 = cx(t)
            x1, xd1, xdd1 = cy(t)
            return (
                np.stack([x0, x1], axis=1),
                np.stack([xd0, xd1], axis=1),
                np.stack([xdd0, xdd1], axis=1),
            )

        def fiber(t):
            x0, xd0, xdd0 = cx(t)
            x1, xd1, xdd1 = cy(t)
            u = k1 / x0
            v = k2 / x1
            ud = -k1 * xd0 / x0**2
            vd = -k2 * xd1 / x1**2
            udd = -k1 * (xdd0 * x0 - 2.0 * xd0**2) / x0**3
            vdd = -k2 * (xdd1 * x1 - 2.0 * xd1**2) / x1**3
            return (
                np.stack([u, v], axis=1),
                np.stack([ud, vd], axis=1),
                np.stack([udd, vdd], axis=1),
            )

        def validity(t0, t1):
            vx(t0, t1)
            vy(t0, t1)

        return ClosedForm(name, "poly2d", system, base, fiber, validity)

    def f_geodesic_lift(
        c1=1.0, c2=0.5, c3=1.0, c4=0.5, eps1=1.0, eps2=1.0, k1=0.3, k2=0.4
    ) -> ClosedForm:
        return _lift(
            "f_geodesic_lift",
            BundleSystem("f_geodesic_tm", f_tensor=f_tensor),
            a,
            b,
            c1,
            c2,
            c3,
            c4,
            eps1,
            eps2,
            k1,
            k2,
        )

    def f_planar_lift(
        rho1=0.4,
        rho2=0.7,
        c1=1.0,
        c2=0.5,
        c3=1.0,
        c4=0.5,
        eps1=1.0,
        eps2=1.0,
        k1=0.3,
        k2=0.4,
    ) -> ClosedForm:
        # coefficient functions taken constant so the family stays exact;
        # validated by residual only
        return _lift(
            "f_planar_lift",
            BundleSystem(
                "f_planar_tm",
                f_tensor=f_tensor,
                coefficients=FPlanarCoefficients.constant(rho1, rho2),
            ),
            rho1 + a * rho2,
            rho1 + b * rho2,
            c1,
            c2,
            c3,
            c4,
            eps1,
            eps2,
            k1,
            k2,
        )

    return CatalogEntry(
        "poly2d",
        structure,
        f_tensor=f_tensor,
        families={"f_geodesic_lift": f_geodesic_lift, "f_planar_lift": f_planar_lift},
    )


# -- euclid_oblique -----------------------------------------------------------

_EYE4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
_PHI4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]


def _flat4_structure(name: str, riemann=None) -> MetricStructure:
    return MetricStructure(
        4,
        _EYE4,
        _PHI4,
        christoffel=FieldTensor.zeros(4, 3),
        riemann=riemann,
        chart_box=[(-2.0, 2.0)] * 4,
        name=name,
    )


_PHI4_DIAG = np.array([1.0, 1.0, -1.0, -1.0])


def _twin4(u, v) -> float:
    return float(np.sum(np.asarray(u) * _PHI4_DIAG * np.asarray(v)))


def _check_fiber_constants(c3, c4):
    _require(abs(_twin4(c3, c3) - 1.0) <= 1e-12, "need g(c3, phi c3) = 1")
    _require(abs(_twin4(c4, c4) - 1.0) <= 1e-12, "need g(c4, phi c4) = 1")
    _require(abs(_twin4(c3, c4)) <= 1e-12, "need g(c3, phi c4) = 0")


def _euclid_oblique() -> CatalogEntry:
    structure = _flat4_structure("euclid_oblique")

    def oblique_geodesic(rho, c1, c2, c3, c4) -> ClosedForm:
        c1 = np.asarray(c1, dtype=float)
        c2 = np.asarray(c2, dtype=float)
        c3 = np.asarray(c3, dtype=float)
        c4 = np.asarray(c4, dtype=float)
        _require(0.0 < rho < 1.0, "oblique geodesics need 0 < rho < 1")
        _check_fiber_constants(c3, c4)
        speed_sq = float(c1 @ c1)
        _require(
            abs(speed_sq - (1.0 - rho**2)) <= 1e-12,
            f"natural parametrization needs |c1|^2 = 1 - rho^2, got {speed_sq:.17g}",
        )

        def base(t):
            n = t.size
            x = c2[None, :] + t[:, None] * c1[None, :]
            xdot = np.broadcast_to(c1, (n, 4)).copy()
            return x, xdot, np.zeros((n, 4))

        def fiber(t):
            cos = np.cos(rho * t)[:, None]
            sin = np.sin(rho * t)[:, None]
            xi = c3[None, :] * cos + c4[None, :] * sin
            xidot = rho * (-c3[None, :] * sin + c4[None, :] * cos)
            return xi, xidot, -(rho**2) * xi

        return ClosedForm(
            "oblique_geodesic",
            "euclid_oblique",
            BundleSystem("geodesic_unit"),
            base,
            fiber,
            lambda t0, t1: None,
            unit_geodesic=True,
        )

    def vertical_oscillation(c3, c4, x0=(0.0, 0.0, 0.0, 0.0)) -> ClosedForm:
        c3 = np.asarray(c3, dtype=float)
        c4 = np.asarray(c4, dtype=float)
        x0 = np.asarray(x0, dtype=float)
        _check_fiber_constants(c3, c4)

        def base(t):
            n = t.size
            return (
                np.broadcast_to(x0, (n, 4)).copy(),
                np.zeros((n, 4)),
                np.zeros((n, 4)),
            )

        def fiber(t):
            cos = np.cos(t)[:, None]
            sin = np.sin(t)[:, None]
            xi = c3[None, :] * cos + c4[None, :] * sin
            return xi, -c3[None, :] * sin + c4[None, :] * cos, -xi

        return ClosedForm(
            "vertical_oscillation",
            "euclid_oblique",
            BundleSystem("geodesic_unit"),
            base,
            fiber,
            lambda t0, t1: None,
            unit_geodesic=True,
        )

    return CatalogEntry(
        "euclid_oblique",
        structure,
        families={
            "oblique_geodesic": oblique_geodesic,
            "vertical_oscillation": vertical_oscillation,
        },
    )


# -- const_curv ---------------------------------------------------------------


def _const_curv(c: float = 1.0) -> CatalogEntry:
    op = CurvatureOperator(c)
    structure = _flat4_structure(f"const_curv({c:g})", riemann=op.tensor(np.eye(4)))
    return CatalogEntry(structure.name, structure, curvature_op=op)


# -- random families for the lift-equivalence suite ---------------------------


def random_f_planar_solution(rng, *, on_unit: bool = False) -> ClosedForm:
    """A random horizontally lifted F-planar solution on ``flat_diag``.

    Coefficient functions are random constants; the base components are
    exact exponential-ramp solutions of w'' = (rho1 +/- rho2) w' and the
    fiber is a constant vector (so the lift is horizontal).  For the unit
    bundle, the fiber is drawn on the hyperbola u^2 - v^2 = 1.
    """
    while True:
        rho1, rho2 = rng.uniform(-1.0, 1.0, size=2)
        if abs(rho1 + rho2) >= 0.05 and abs(rho1 - rho2) >= 0.05:
            break
    rates = (rho1 + rho2, rho1 - rho2)
    speeds = rng.uniform(0.2, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)
    offsets = rng.uniform(-1.0, 1.0, size=2)
    if on_unit:
        theta = rng.uniform(-1.0, 1.0)
        fiber_const = np.array([math.cosh(theta), math.sinh(theta)])
        kind = "f_planar_unit"
    else:
        fiber_const = rng.uniform(-1.0, 1.0, size=2)
        kind = "f_planar_tm"

    def base(t):
        cols = []
        for rate, speed, offset in zip(rates, speeds, offsets):
            e = np.exp(rate * t)
            cols.append((offset + speed * np.expm1(rate * t) / rate, speed * e, rate * speed * e))
        x = np.stack([c[0] for c in cols], axis=1)
        xdot = np.stack([c[1] for c in cols], axis=1)
        xddot = np.stack([c[2] for c in cols], axis=1)
        return x, xdot, xddot

    def fiber(t):
        n = t.size
        return (
            np.broadcast_to(fiber_const, (n, 2)).copy(),
            np.zeros((n, 2)),
            np.zeros((n, 2)),
        )

    system = BundleSystem(
        kind,
        f_tensor=FTensor(is_phi=True),
        coefficients=FPlanarCoefficients.constant(rho1, rho2),
    )
    return ClosedForm(
        "random_f_planar", "flat_diag", system, base, fiber, lambda t0, t1: None
    )


def perturbed_base(solution: ClosedForm, *, amplitude: float = 0.01, freq: float = 5.0) -> ClosedForm:
    """Negative control: add a smooth non-solution wiggle to the base curve."""

    def base(t):
        x, xdot, xddot = solution.base(t)
        x = x.copy()
        xdot = xdot.copy()
        xddot = xddot.copy()
        x[:, 0] += amplitude * np.sin(freq * t)
        xdot[:, 0] += amplitude * freq * np.cos(freq * t)
        xddot[:, 0] -= amplitude * freq**2 * np.sin(freq * t)
        return x, xdot, xddot

    return ClosedForm(
        solution.name + "_perturbed",
        solution.manifold,
        solution.system,
        base,
        solution.fiber,
        solution.validity,
        unit_geodesic=False,
    )
