"""Tangent-bundle layer: the phi-Sasaki metric and geodesic-type ODE systems.

A curve on the bundle is a pair (gamma(t), xi(t)) of a base curve and a
fiber vector along it.  The ODE state keeps the coordinate derivative
``xidot = d xi / dt``; the covariant fiber velocity

    xi'^l = xidot^l + Gamma^l_{ij} xdot^j xi^i

is a derived view.  :class:`~bundleflow.geometry.PointGeometry` is the one
place where xi' <-> xidot and gamma'' <-> xddot are converted, every
Christoffel contraction going through ``PointGeometry.along`` (A = Gamma
xdot); the functions here build one for all stored samples of a trajectory
at once.  The integrator's right-hand side (:func:`make_rhs`) is the one
single-point path: one straight-line function of plain floats per structure
and system (:func:`bundleflow.rhs.compile_rhs`), the same formulas with
everything that does not depend on the point folded in as constants.  At a
point it cannot vouch for (a failed guard, a singular metric, a float
exception) its one exit returns the stacked formulas' result at that point,
which raise the library's errors.

Every system supported here prescribes covariant targets

    gamma'' = R(xi', phi xi) gamma' + rho1 gamma' + rho2 F gamma'
    xi''    = rho1 xi' + rho2 F xi'            (tangent bundle)
    xi''    = ... - g(xi', phi xi') xi         (phi-unit bundle)

with (rho1, rho2) = (0, 0) for plain geodesics, (0, 1) for F-geodesics and
rho(t) for F-planar curves, and expands them to coordinate second
derivatives for the integrator.

On the phi-unit bundle {g(xi, phi xi) = 1} the constraints are monitored,
never projected during integration; initial states are normalized once so
the constraints hold exactly at t0.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConstraintError
from .expressions import ScalarField, _Frozen, _set
from .geometry import (
    FieldTensor, MetricStructure, PointGeometry, bilinear, matvec, sample_chart_points,
)
from .rhs import compile_rhs

__all__ = [
    "BundleState",
    "FTensor",
    "FPlanarCoefficients",
    "BundleSystem",
    "SYSTEM_KINDS",
    "sasaki_metric",
    "unit_fiber_acceleration",
    "covariant_targets",
    "make_rhs",
    "normalized_unit_state",
    "lorentz_force",
    "geodesic_residual",
    "ResidualReport",
    "phi_mirror",
]

SYSTEM_KINDS = (
    "geodesic_tm",
    "geodesic_unit",
    "f_geodesic_tm",
    "f_geodesic_unit",
    "f_planar_tm",
    "f_planar_unit",
)
_UNIT_KINDS = frozenset(k for k in SYSTEM_KINDS if k.endswith("_unit"))
_F_KINDS = frozenset(k for k in SYSTEM_KINDS if k.startswith("f_"))
_PLANAR_KINDS = frozenset(k for k in SYSTEM_KINDS if k.startswith("f_planar"))
_UNIT_TOL = 1e-6  # how far a given state may sit off the phi-unit constraints
# How many coefficient pairs a process keeps by their text, the least
# recently used dropped first, and compiled right-hand sides a structure keeps.
_MEMO_COEFFICIENTS = 64
_MEMO_RHS = 32


class BundleState:
    """ODE state (x, xdot, xi, xidot); xidot is the coordinate derivative."""

    __slots__ = ("x", "xdot", "xi", "xidot")

    def __init__(self, x, xdot, xi, xidot):
        self.x = np.asarray(x, dtype=float)
        self.xdot = np.asarray(xdot, dtype=float)
        self.xi = np.asarray(xi, dtype=float)
        self.xidot = np.asarray(xidot, dtype=float)
        sizes = {a.shape for a in (self.x, self.xdot, self.xi, self.xidot)}
        if len(sizes) != 1:
            raise ValueError("state blocks must share one shape")

    @property
    def dim(self) -> int:
        return self.x.size

    def flat(self) -> np.ndarray:
        return np.concatenate([self.x, self.xdot, self.xi, self.xidot])


class FTensor:
    """A (1,1)-tensor field F^i_j: explicit components, phi reused, or
    ``strength`` g^-1 Omega for a 2-form Omega_ij (see :func:`lorentz_force`)."""

    __slots__ = ("matrix", "is_phi", "form", "strength")

    def __init__(
        self,
        matrix: FieldTensor | None = None,
        *,
        is_phi: bool = False,
        form: FieldTensor | None = None,
        strength: float = 1.0,
    ):
        if sum(x is not None for x in (matrix, form)) + int(is_phi) != 1:
            raise ValueError("provide exactly one of matrix, form or is_phi")
        self.matrix = matrix
        self.is_phi = is_phi
        self.form = form
        self.strength = float(strength)

    @classmethod
    def from_spec(cls, rows, dim: int) -> "FTensor":
        matrix = FieldTensor.from_spec(rows, dim)
        if matrix.rank != 2:
            raise ValueError("F must be a matrix")
        return cls(matrix)

    def on(self, geo: PointGeometry) -> np.ndarray:
        """F at the point of an already built geometry."""
        if self.is_phi:
            return geo.phi
        if self.form is not None:
            return self.strength * (geo.ginv @ self.form.at(geo.x))
        return self.matrix.at(geo.x)


class _Value(_Frozen):
    """An immutable record that compares and hashes by its fields, so that
    it can key a structure's compiled right-hand sides."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())


class FPlanarCoefficients(_Value):
    """Coefficient functions rho1(t), rho2(t) of an F-planar system."""

    __slots__ = ("rho1", "rho2")

    def __init__(self, rho1: ScalarField, rho2: ScalarField):
        _set(self, "rho1", rho1)
        _set(self, "rho2", rho2)

    @classmethod
    @functools.lru_cache(maxsize=_MEMO_COEFFICIENTS)
    def parse(cls, rho1: str, rho2: str) -> "FPlanarCoefficients":
        """The pair of ``rho1``, ``rho2``, parsed once per process: a pair of
        the same texts is the same shared object, so that systems built from
        it compare equal; it must not be mutated.  A text that does not
        parse raises on every call."""
        return cls(ScalarField.parse(rho1, 1), ScalarField.parse(rho2, 1))

    @classmethod
    def constant(cls, rho1: float, rho2: float) -> "FPlanarCoefficients":
        return cls(ScalarField.constant(rho1, 1), ScalarField.constant(rho2, 1))

    def at(self, t):
        """(rho1, rho2) at one time, or as (n, 1) columns at each of n times,
        so that they scale stacked vectors."""
        if getattr(t, "ndim", 0) == 0:
            return self.rho1((t,)), self.rho2((t,))
        points = np.asarray(t, dtype=float)[:, None]
        return self.rho1(points)[:, None], self.rho2(points)[:, None]


class BundleSystem(_Value):
    """One of the supported covariant second-order systems on TM or T1^phi M:
    an F tensor exactly for the ``f_*`` kinds, coefficient functions exactly
    for the ``f_planar_*`` kinds."""

    __slots__ = ("kind", "f_tensor", "coefficients")

    def __init__(
        self,
        kind: str,
        f_tensor: FTensor | None = None,
        coefficients: FPlanarCoefficients | None = None,
    ):
        if kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {kind!r}")
        if (f_tensor is None) == (kind in _F_KINDS):
            needs = "needs an" if f_tensor is None else "takes no"
            raise ValueError(f"system {kind!r} {needs} F tensor")
        if (coefficients is None) == (kind in _PLANAR_KINDS):
            needs = "needs" if coefficients is None else "takes no"
            raise ValueError(f"system {kind!r} {needs} coefficient functions rho1, rho2")
        _set(self, "kind", kind)
        _set(self, "f_tensor", f_tensor)
        _set(self, "coefficients", coefficients)

    @property
    def on_unit_bundle(self) -> bool:
        return self.kind in _UNIT_KINDS

    def rho_at(self, t) -> tuple:
        if self.coefficients is not None:
            return self.coefficients.at(t)
        if self.f_tensor is not None:
            return 0.0, 1.0
        return 0.0, 0.0


# -- the phi-Sasaki metric ----------------------------------------------------


def sasaki_metric(M: MetricStructure) -> FieldTensor:
    """The phi-Sasaki metric of TM as the metric of a 2n-dim chart.

    In induced coordinates (x, u) = (x1..xn, x(n+1)..x2n), with
    A^k_i = Gamma^k_ij u^j and the twin metric G = g phi,

        g^phiS = [[g + A^T G A, A^T G], [G A, G]]:

    a horizontal lift (X, -A X) pairs with g, a vertical vector (0, V) with
    G, and the two are orthogonal.  The entries are expressions in x and u
    written from the sources of g, phi and Gamma, so ``M`` needs analytic
    Christoffel symbols: the expression language has no derivative operator.
    """
    if M.christoffel is None:
        raise ValueError("the phi-Sasaki metric needs analytic Christoffel symbols")
    n = M.dim
    r = range(n)

    def entry(tensor, flat):  # None for a zero field
        f = tensor.fields[flat]
        return None if f.const_value == 0.0 else f"({f.source})"

    def total(terms):  # a sum of sources, None for the empty sum
        terms = [t for t in terms if t is not None]
        return f"({' + '.join(terms)})" if terms else None

    def product(*factors):
        return None if None in factors else "*".join(factors)

    g = [[entry(M.g, i * n + j) for j in r] for i in r]
    phi = [[entry(M.phi, i * n + j) for j in r] for i in r]
    u = [f"x{n + j + 1}" for j in r]
    a = [[total(product(entry(M.christoffel, (k * n + i) * n + j), u[j]) for j in r)
          for i in r] for k in r]
    twin = [[total(product(g[i][m], phi[m][j]) for m in r) for j in r] for i in r]
    ga = [[total(product(twin[k][m], a[m][j]) for m in r) for j in r] for k in r]  # G A
    top = [[total([g[i][j]] + [product(a[k][i], ga[k][j]) for k in r]) for j in r] for i in r]
    # A^T G = (G A)^T, G being symmetric on a pure structure
    rows = [top[i] + [ga[j][i] for j in r] for i in r] + [ga[i] + twin[i] for i in r]
    return FieldTensor.from_spec([[e or "0" for e in row] for row in rows], 2 * n)


def unit_fiber_acceleration(g_mat, phi_mat, xi, xi_prime) -> np.ndarray:
    """Fiber acceleration -g(xi', phi xi') xi forced by the unit constraint,
    at one sample or at each of a stack of samples."""
    return -bilinear(xi_prime, g_mat @ phi_mat, xi_prime)[..., None] * xi


def covariant_targets(geo: PointGeometry, system: BundleSystem, t, xdot, xi, xi_prime):
    """Covariant right-hand sides (gamma'' target, xi'' target) of a system,
    at one sample, or at a stack of samples with ``t`` their times."""
    g_mat = geo.g  # evaluated for every kind: it checks that g is regular here
    phi_mat = geo.phi
    accel = geo.riemann(xi_prime, matvec(phi_mat, xi), xdot)
    fiber = np.zeros(xi.shape)
    rho1, rho2 = system.rho_at(t)
    if system.f_tensor is not None:
        f_mat = system.f_tensor.on(geo)
        accel = accel + rho1 * xdot + rho2 * matvec(f_mat, xdot)
        fiber = rho1 * xi_prime + rho2 * matvec(f_mat, xi_prime)
    if system.on_unit_bundle:
        fiber = fiber + unit_fiber_acceleration(g_mat, phi_mat, xi, xi_prime)
    return accel, fiber


def make_rhs(M: MetricStructure, system: BundleSystem):
    """First-order right-hand side ``rhs(t, y)`` for the flattened state
    y = (x, xdot, xi, xidot), a tuple of 4 dim floats; it returns the
    derivative as a tuple of as many floats.

    The function is compiled on first use for the structure and the system
    (:func:`bundleflow.rhs.compile_rhs`) and kept on the structure, for up
    to 32 systems: a structure that holds 32 drops them all before it
    compiles the next.  Where it
    cannot vouch for its result at a point it returns :func:`_reference_rhs`
    there, as a tuple, which raises the library's errors where the point is
    bad.
    """
    rhs = M._rhs.get(system)
    if rhs is None:
        def reference(t, y):
            return tuple(_reference_rhs(M, system, t, y).tolist())

        if len(M._rhs) >= _MEMO_RHS:
            M._rhs.clear()
        rhs = M._rhs[system] = compile_rhs(M, system, reference)
    return rhs


def _reference_rhs(M: MetricStructure, system: BundleSystem, t, y) -> np.ndarray:
    """The right-hand side at one point from the stacked-sample formulas:
    :func:`covariant_targets` and the :class:`PointGeometry` conversions."""
    x, xdot, xi, xidot = np.split(np.asarray(y, dtype=float), 4)
    geo = M.at(x)
    geo.g  # noqa: B018 - evaluated first, for every kind: it checks that g is regular here
    geo.dgamma  # noqa: B018 - then the one jet that gives Gamma and dGamma alike
    xi_prime = geo.to_covariant(xi, xidot, xdot)
    accel, fiber = covariant_targets(geo, system, t, xdot, xi, xi_prime)
    xddot = geo.to_coordinate(xdot, accel, xdot)
    dxi_prime = geo.to_coordinate(xi_prime, fiber, xdot)  # d(xi')/dt in coordinates
    xiddot = geo.coordinate_rate(xi, xidot, dxi_prime, xdot, xddot)
    return np.concatenate([xdot, xddot, xidot, xiddot])


def normalized_unit_state(M: MetricStructure, state: BundleState) -> BundleState:
    """Rescale and project an initial state onto the phi-unit constraints.

    xi is rescaled so g(xi, phi xi) = 1 exactly and the g(xi', phi xi)
    component is removed from the fiber velocity.  Violations beyond 1e-6
    raise :class:`ConstraintError` instead of being silently repaired.
    """
    geo = M.at(state.x)
    geo.ginv  # noqa: B018 - first, for g's check: where Gamma comes from g, its 1-jet gives g too
    g, phi = geo.g, geo.phi
    norm = float(state.xi @ g @ (phi @ state.xi))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ConstraintError(
            f"initial fiber has g(xi, phi xi) = {norm:.6g}, expected 1"
        )
    xi_prime = geo.to_covariant(state.xi, state.xidot, state.xdot)
    scale = float(np.sqrt(norm))
    xi = state.xi / scale
    xi_prime = xi_prime / scale
    ortho = float(xi_prime @ g @ (phi @ xi))
    if abs(ortho) > _UNIT_TOL:
        raise ConstraintError(
            f"initial fiber velocity has g(xi', phi xi) = {ortho:.6g}, expected 0"
        )
    xi_prime = xi_prime - ortho * xi
    xidot = geo.to_coordinate(xi, xi_prime, state.xdot)
    return BundleState(state.x.copy(), state.xdot.copy(), xi, xidot)


def lorentz_force(M: MetricStructure, omega: FieldTensor, strength: float = 1.0) -> FTensor:
    """Force tensor Phi^i_j = g^{ik} Omega_{kj} of an antisymmetric 2-form.

    Scaled by ``strength`` so that feeding the result to an F-geodesic system
    integrates the magnetic-curve equation gamma'' = q Phi gamma'.  The form's
    antisymmetry is checked at 8 chart points drawn with seed 0.  The result
    holds Omega and the strength, so that the right-hand side compiles it
    like any other F.
    """
    pts = sample_chart_points(M, 8, np.random.default_rng(0))
    w = omega.at(pts)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=(-2, -1)))
    bad = np.max(np.abs(w + w.swapaxes(-1, -2)), axis=(-2, -1)) > 1e-10 * scale
    if np.any(bad):
        raise ValueError(f"2-form is not antisymmetric at {pts[np.argmax(bad)]}")
    return FTensor(form=omega, strength=strength)


# -- residuals and the phi-mirror --------------------------------------------


class ResidualReport:
    """Max norm of the defining covariant equations over trajectory samples."""

    __slots__ = ("max_residual", "residuals")

    def __init__(self, max_residual: float, residuals: np.ndarray):
        self.max_residual, self.residuals = max_residual, residuals


def geodesic_residual(M: MetricStructure, system: BundleSystem, traj) -> ResidualReport:
    """Plug a trajectory back into its covariant equations and report the gap.

    Analytically sampled trajectories carry coordinate second derivatives and
    are evaluated exactly; integrator output is differenced with centered
    second-order stencils and judged on interior samples only.
    """
    n = traj.times.size
    if n == 0:
        raise ValueError("empty trajectory")
    used_fd = traj.xddot is None or traj.xiddot is None
    if used_fd and n < 5:
        raise ValueError("too few samples for residual differencing")
    # gamma_dd, xi_dd: covariant (gamma'', xi'')
    geo = M.at(traj.x)
    xdot, xi, xidot = traj.xdot, traj.xi, traj.xidot
    xi_prime = geo.to_covariant(xi, xidot, xdot)
    if used_fd:
        gamma_dd = np.gradient(xdot, traj.times, axis=0) + geo.connection(xdot, xdot)
        xi_dd = np.gradient(xi_prime, traj.times, axis=0) + geo.connection(xi_prime, xdot)
    else:
        gamma_dd = geo.to_covariant(xdot, traj.xddot, xdot)
        rate = geo.covariant_rate(xi, xidot, traj.xiddot, xdot, traj.xddot)
        xi_dd = geo.to_covariant(xi_prime, rate, xdot)
    accel, fiber = covariant_targets(geo, system, traj.times, xdot, xi, xi_prime)
    res = np.sqrt(np.sum((gamma_dd - accel) ** 2, axis=1) + np.sum((xi_dd - fiber) ** 2, axis=1))
    window = slice(1, -1) if used_fd and n > 2 else slice(None)
    return ResidualReport(float(np.max(res[window])), res)


def phi_mirror(M: MetricStructure, traj):
    """Map a phi-unit trajectory (gamma, xi) to its mirror (gamma, phi xi).

    Uses the parallelism of phi: the mirrored covariant fiber velocity is
    phi xi', which fixes the mirrored coordinate derivative without
    differentiating phi.  Applying the map twice returns the original
    trajectory up to floating point.
    """
    from .geometry import check_parallel_phi
    from .integrate import Trajectory

    report = check_parallel_phi(M, n_points=4, seed=7)
    if not report.passed:
        raise ConstraintError(
            f"phi is not parallel (residual {report.max_residual:g}); "
            "the mirror map needs nabla phi = 0"
        )
    geo = M.at(traj.x)
    phi, xdot, xddot = geo.phi, traj.xdot, traj.xddot
    mu = matvec(phi, traj.xi)
    xi_prime = geo.to_covariant(traj.xi, traj.xidot, xdot)
    mu_prime = matvec(phi, xi_prime)
    xidot = geo.to_coordinate(mu, mu_prime, xdot)
    xiddot = None
    if traj.xiddot is not None:
        rate = geo.covariant_rate(traj.xi, traj.xidot, traj.xiddot, xdot, xddot)
        mu_dd = matvec(phi, geo.to_covariant(xi_prime, rate, xdot))
        dmu_prime = geo.to_coordinate(mu_prime, mu_dd, xdot)
        xiddot = geo.coordinate_rate(mu, xidot, dmu_prime, xdot, xddot)
    return Trajectory(
        times=traj.times.copy(),
        x=traj.x.copy(),
        xdot=traj.xdot.copy(),
        xi=mu,
        xidot=xidot,
        xddot=None if traj.xddot is None else traj.xddot.copy(),
        xiddot=xiddot,
        structure=M,
        meta=dict(traj.meta, mirrored=not traj.meta.get("mirrored", False)),
    )
