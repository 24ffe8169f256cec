"""Built-in manifolds with analytic Christoffel data and closed-form solutions.

Each entry carries a :class:`MetricStructure` (with analytic Christoffel
symbols), an optional default F tensor, and a set of closed-form solution
families.  A family is its base curve x(t) and its fiber xi(t), written as
expressions in ``t`` in the language of the scenario fields, together with
its parameter constraints (raising :class:`ParameterError`) and its validity
interval.  Its first and second derivatives are the exact jets of those
expressions, from the engine that differentiates the manifold's fields, so a
sampled family can be pushed through the residual evaluators without
differentiation noise.

A process builds each entry once, by its name, and compiles each family's
jet program once, by the family's text: the entries, their structures and
F tensors, and the programs are shared by every caller, in bounded
least-recently-used memos, and must not be mutated.

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

import functools
import math
import re
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .bundle import BundleState, BundleSystem, FPlanarCoefficients, FTensor
from .errors import ParameterError, UnknownEntryError
from .expressions import compile_rows, parse
from .geometry import CurvatureOperator, FieldTensor, MetricStructure
from .integrate import Trajectory

__all__ = [
    "CatalogEntry",
    "ClosedForm",
    "entry",
    "entry_names",
    "random_f_planar_solution",
    "perturbed_base",
]

# How many entries and family jet programs a process keeps, the least
# recently used dropped first.
_MEMO_ENTRIES = 64
_MEMO_FAMILIES = 256


class ClosedForm:
    """A parameterized exact solution of one of the bundle systems.

    ``base`` and ``fiber`` hold the components of x(t) and xi(t) as
    expressions in ``t``, each parameter written as the ``repr`` of its
    float so that the text parses back to the same double.  They are
    compiled into one program that returns their values and their first and
    second derivatives at a stack of times, once per process for their text:
    families of the same text share it.
    """

    __slots__ = ("name", "manifold", "system", "base", "fiber", "validity", "_jet")

    def __init__(
        self,
        name: str,
        manifold: str,
        system: BundleSystem,
        base: tuple[str, ...],  # x^i(t)
        fiber: tuple[str, ...],  # xi^i(t)
        validity: Callable,  # (t0, t1) -> None, raises ParameterError
    ):
        self.name, self.manifold, self.system = name, manifold, system
        self.base, self.fiber, self.validity = base, fiber, validity
        self._jet = _family_jet(tuple(base) + tuple(fiber))

    def _blocks(self, times: np.ndarray) -> np.ndarray:
        """``[[x, xdot, xddot], [xi, xidot, xiddot]]`` at ``times``, each (n, dim)."""
        jet = self._jet(times[:, None])  # [n, 3, 2 dim]: value, d/dt, d^2/dt^2
        n, dim = len(times), len(self.base)
        return np.ascontiguousarray(jet.reshape(n, 3, 2, dim).transpose(2, 1, 0, 3))

    def trajectory(self, M: MetricStructure, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        self.validity(float(times[0]), float(times[-1]))
        (x, xdot, xddot), (xi, xidot, xiddot) = self._blocks(times)
        return Trajectory(
            times=times.copy(),
            x=x,
            xdot=xdot,
            xi=xi,
            xidot=xidot,
            xddot=xddot,
            xiddot=xiddot,
            structure=M,
            meta={
                "system": self.system.kind,
                "closed_form": self.name,
                "manifold": self.manifold,
            },
        )

    def initial_state(self, t0: float = 0.0) -> BundleState:
        t0 = float(t0)
        self.validity(t0, t0)
        (x, xdot, _), (xi, xidot, _) = self._blocks(np.array([t0]))
        return BundleState(x[0], xdot[0], xi[0], xidot[0])


@functools.lru_cache(maxsize=_MEMO_FAMILIES)
def _family_jet(texts: tuple[str, ...]):
    """The jet program of a family's components, keyed by their texts."""
    return compile_rows([parse(text, 1) for text in texts], 1, 2)


class CatalogEntry:
    __slots__ = ("name", "structure", "f_tensor", "curvature_op", "families")

    def __init__(
        self,
        name: str,
        structure: MetricStructure,
        f_tensor: FTensor | None = None,
        curvature_op: CurvatureOperator | None = None,
        families: dict | None = None,
    ):
        self.name, self.structure = name, structure
        self.f_tensor, self.curvature_op = f_tensor, curvature_op
        self.families = {} if families is None else families

    def family(self, name: str, **params) -> ClosedForm:
        if name not in self.families:
            raise UnknownEntryError(
                f"entry {self.name!r} has no family {name!r}; "
                f"known: {sorted(self.families)}"
            )
        return self.families[name](**params)


def entry_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def entry(name: str) -> CatalogEntry:
    """Look up a catalog entry; ``const_curv(c)`` encodes its parameter.

    Each name is built once per process: the entry, with its structure and
    F tensor, is shared by every caller and must not be mutated.  An unknown
    name raises on every call."""
    match = re.fullmatch(r"const_curv\(([-+0-9.eE]+)\)", name.strip())
    if match:
        return _const_curv(c=float(match.group(1)))
    key = name.strip()
    if key not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog entry {name!r}; known: {entry_names()}")
    return _BUILDERS[key]()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _span_inside(t0, t1, lo, hi, what):
    _require(lo < t0 <= t1 < hi, f"{what}: need t in ({lo:g}, {hi:g})")


def _everywhere(t0, t1) -> None:
    """The validity of a family defined for every t."""


def _literals(**params) -> SimpleNamespace:
    """Each parameter as expression text that parses back to its double, a
    vector parameter as a list of them; a parameter that is not finite has
    no such text and raises :class:`ParameterError`."""

    def literal(name, value) -> str:
        value = float(value)
        _require(math.isfinite(value), f"parameter {name} must be finite, got {value}")
        text = repr(value)
        return f"({text})" if text.startswith("-") else text

    return SimpleNamespace(**{
        name: [literal(f"{name}[{i}]", v) for i, v in enumerate(value)] if np.ndim(value)
        else literal(name, value)
        for name, value in params.items()
    })


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

    def log_lift(name, p, fiber, lam, eta) -> ClosedForm:
        def validity(t0, t1):
            for t in (t0, t1):
                _require(1.0 + lam * t > 0.0, f"need 1 + {lam:g} t > 0 at t = {t:g}")
                _require(1.0 + eta * t > 0.0, f"need 1 + {eta:g} t > 0 at t = {t:g}")

        base = (f"{p.a} + ln(1 + {p.lam}*t)", f"{p.b} + ln(1 + {p.eta}*t)")
        return ClosedForm(name, "exp2d", BundleSystem("geodesic_unit"), base, fiber, validity)

    def natural_lift(a=0.0, b=0.0, lam=math.sqrt(0.5), eta=math.sqrt(0.5)) -> ClosedForm:
        p = _literals(a=a, b=b, lam=lam, eta=eta)
        norm = 2.0 * lam * eta * math.exp(a + b)
        _require(
            abs(norm - 1.0) <= 1e-12,
            f"natural lift leaves the phi-unit bundle: 2 lam eta e^(a+b) = {norm:.17g}",
        )
        fiber = (f"{p.lam}/(1 + {p.lam}*t)", f"{p.eta}/(1 + {p.eta}*t)")
        return log_lift("natural_lift", p, fiber, lam, eta)

    def horizontal_lift(
        a=0.0, b=0.0, lam=math.sqrt(0.5), eta=math.sqrt(0.5), h1=1.0, h2=0.5
    ) -> ClosedForm:
        p = _literals(a=a, b=b, lam=lam, eta=eta, h1=h1, h2=h2)
        norm = 2.0 * h1 * h2 * math.exp(a + b)
        _require(
            abs(norm - 1.0) <= 1e-12,
            f"horizontal lift leaves the phi-unit bundle: 2 h1 h2 e^(a+b) = {norm:.17g}",
        )
        fiber = (f"{p.h1}/(1 + {p.lam}*t)", f"{p.h2}/(1 + {p.eta}*t)")
        return log_lift("horizontal_lift", p, fiber, lam, eta)

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

    def hphi_geodesic(
        k1=0.5, k2=0.1, k3=0.3, k4=-0.2, k5=0.4, k6=0.0, k7=0.25, k8=0.05
    ) -> ClosedForm:
        # every component is k e^{+-t} + k'
        p = _literals(k1=k1, k2=k2, k3=k3, k4=k4, k5=k5, k6=k6, k7=k7, k8=k8)
        return ClosedForm(
            "hphi_geodesic",
            "flat_diag",
            BundleSystem("f_geodesic_tm", f_tensor=f_phi),
            (f"{p.k1}*exp(t) + {p.k2}", f"{p.k3}*exp(-t) + {p.k4}"),
            (f"{p.k5}*exp(t) + {p.k6}", f"{p.k7}*exp(-t) + {p.k8}"),
            _everywhere,
        )

    def hphi_planar(
        a1=0.2, a2=0.4, a3=0.3, a4=-0.1, b1=0.15, b2=0.0, b3=-0.2, b4=0.5
    ) -> ClosedForm:
        # coefficient functions 1/(t+1) and 1/(t-1); components solve
        #   w'' = (rho1 +/- rho2) w'
        # with the cubic branch for +, the logarithmic branch for -
        p = _literals(a1=a1, a2=a2, a3=a3, a4=a4, b1=b1, b2=b2, b3=b3, b4=b4)
        coeffs = FPlanarCoefficients.parse("1/(t + 1)", "1/(t - 1)")

        def cubic(k, o):
            return f"{k}*t^3 - 3*{k}*t + {o}"

        def logarithmic(k, o):
            return f"{k}*ln((t - 1)^2) + {k}*t + {o}"

        return ClosedForm(
            "hphi_planar",
            "flat_diag",
            BundleSystem("f_planar_tm", f_tensor=f_phi, coefficients=coeffs),
            (cubic(p.a1, p.a2), logarithmic(p.a3, p.a4)),
            (cubic(p.b1, p.b2), logarithmic(p.b3, p.b4)),
            lambda t0, t1: _span_inside(t0, t1, -1.0, 1.0, "hphi_planar coefficients"),
        )

    return CatalogEntry(
        "flat_diag",
        structure,
        f_tensor=f_phi,
        families={"hphi_geodesic": hphi_geodesic, "hphi_planar": hphi_planar},
    )


# -- poly2d -------------------------------------------------------------------


def _poly2d() -> CatalogEntry:
    a, b = 1.0, -0.5  # F = diag(a, b)
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

    def _lift(name, system, rates, c1, c2, c3, c4, eps1, eps2, k1, k2) -> ClosedForm:
        # x^i = eps_i sqrt(c_grow e^{rate_i t} + c_off) with (c_grow, c_off)
        # = (c1, c2) and (c3, c4); the horizontal lift has fibers k_i / x^i
        p = _literals(c1=c1, c2=c2, c3=c3, c4=c4, eps1=eps1, eps2=eps2, k1=k1, k2=k2,
                      rate=rates)
        roots = ((p.eps1, p.c1, p.c2, p.rate[0]), (p.eps2, p.c3, p.c4, p.rate[1]))
        base = tuple(f"{eps}*sqrt({grow}*exp({rate}*t) + {off})" for eps, grow, off, rate in roots)

        def validity(t0, t1):
            for t in (t0, t1):
                for grow, off, rate in ((c1, c2, rates[0]), (c3, c4, rates[1])):
                    _require(
                        grow * math.exp(rate * t) + off > 0.0,
                        f"sqrt argument not positive at t = {t:g}",
                    )

        fiber = (f"{p.k1}/({base[0]})", f"{p.k2}/({base[1]})")
        return ClosedForm(name, "poly2d", system, base, fiber, validity)

    def f_geodesic_lift(
        c1=1.0, c2=0.5, c3=1.0, c4=0.5, eps1=1.0, eps2=1.0, k1=0.3, k2=0.4
    ) -> ClosedForm:
        system = BundleSystem("f_geodesic_tm", f_tensor=f_tensor)
        return _lift("f_geodesic_lift", system, (a, b), c1, c2, c3, c4, eps1, eps2, k1, k2)

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
        _literals(rho1=rho1, rho2=rho2)  # names a coefficient that is not finite
        system = BundleSystem(
            "f_planar_tm",
            f_tensor=f_tensor,
            coefficients=FPlanarCoefficients.constant(rho1, rho2),
        )
        rates = (rho1 + a * rho2, rho1 + b * rho2)
        return _lift("f_planar_lift", system, rates, c1, c2, c3, c4, eps1, eps2, k1, k2)

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
        p = _literals(rho=rho, c1=c1, c2=c2, c3=c3, c4=c4)
        c1 = np.asarray(c1, dtype=float)
        _require(0.0 < rho < 1.0, "oblique geodesics need 0 < rho < 1")
        _check_fiber_constants(c3, c4)
        speed_sq = float(c1 @ c1)
        _require(
            abs(speed_sq - (1.0 - rho**2)) <= 1e-12,
            f"natural parametrization needs |c1|^2 = 1 - rho^2, got {speed_sq:.17g}",
        )
        return ClosedForm(
            "oblique_geodesic",
            "euclid_oblique",
            BundleSystem("geodesic_unit"),
            tuple(f"{o} + {v}*t" for o, v in zip(p.c2, p.c1)),
            tuple(f"{u}*cos({p.rho}*t) + {w}*sin({p.rho}*t)" for u, w in zip(p.c3, p.c4)),
            _everywhere,
        )

    def vertical_oscillation(c3, c4, x0=(0.0, 0.0, 0.0, 0.0)) -> ClosedForm:
        p = _literals(c3=c3, c4=c4, x0=x0)
        _check_fiber_constants(c3, c4)
        return ClosedForm(
            "vertical_oscillation",
            "euclid_oblique",
            BundleSystem("geodesic_unit"),
            tuple(p.x0),
            tuple(f"{u}*cos(t) + {w}*sin(t)" for u, w in zip(p.c3, p.c4)),
            _everywhere,
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


_BUILDERS = {
    "exp2d": _exp2d,
    "flat_diag": _flat_diag,
    "poly2d": _poly2d,
    "euclid_oblique": _euclid_oblique,
    "const_curv": _const_curv,
}


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
    p = _literals(rate=rates, speed=speeds, offset=offsets, fiber=fiber_const)
    ramps = zip(p.offset, p.speed, p.rate)
    system = BundleSystem(
        kind,
        f_tensor=FTensor(is_phi=True),
        coefficients=FPlanarCoefficients.constant(rho1, rho2),
    )
    return ClosedForm(
        "random_f_planar",
        "flat_diag",
        system,
        tuple(f"{o} + {s}*(exp({r}*t) - 1)/{r}" for o, s, r in ramps),
        tuple(p.fiber),
        _everywhere,
    )


def perturbed_base(solution: ClosedForm, *, amplitude: float = 0.01) -> ClosedForm:
    """Negative control: add a smooth non-solution wiggle, of angular
    frequency 5, to the base curve."""
    p = _literals(amplitude=amplitude)
    wiggle = f"({solution.base[0]}) + {p.amplitude}*sin(5.0*t)"
    return ClosedForm(
        solution.name + "_perturbed",
        solution.manifold,
        solution.system,
        (wiggle,) + solution.base[1:],
        solution.fiber,
        solution.validity,
    )
