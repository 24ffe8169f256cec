"""Frenet analysis of projected base curves.

The projected curve of a bundle trajectory is analyzed at every sample:
covariant jets gamma', gamma'', ... (from one geometry evaluation on all
samples), a Gram-Schmidt frame in the metric along the curve, and the Frenet
curvatures k_1, k_2, ....  The frame is truncated at
the first curvature below tolerance; all of this presumes the metric is
positive definite on the span of the jets, otherwise a SignatureError is
raised (the Frenet construction has no meaning for indefinite restrictions).

Curvatures are extracted from the triangular Gram-Schmidt coefficients: with
r_i the orthogonal remainder norm of the i-th jet, k_i = r_{i+1} / (r_i |gamma'|),
which agrees with the arc-length Frenet equations for any regular
parametrization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SignatureError, VerticalCurveError
from .geometry import MetricStructure, bilinear, json_number, matvec
from .integrate import Trajectory

__all__ = [
    "ArcLength",
    "arc_length_reparam",
    "CovariantJets",
    "covariant_jets",
    "FrenetResult",
    "frenet_curvatures",
    "ConstancyReport",
    "constancy_check",
]


@dataclass(frozen=True)
class ArcLength:
    """Arc length s(t) along the projected curve, by trapezoidal quadrature."""

    times: np.ndarray
    s: np.ndarray
    speed: np.ndarray

    @property
    def speed_variation(self) -> float:
        return float(np.max(self.speed) - np.min(self.speed))


def arc_length_reparam(
    M: MetricStructure, traj: Trajectory, *, min_speed: float = 1e-6
) -> ArcLength:
    """Arc length of the projected curve; rejects (near-)vertical curves."""
    sq = bilinear(traj.xdot, M.metric_at(traj.x), traj.xdot)
    if np.any(sq < 0.0):
        raise SignatureError("negative squared speed along the projected curve")
    speed = np.sqrt(sq)
    if float(np.min(speed)) < min_speed:
        raise VerticalCurveError(
            f"projected curve is vertical: min |gamma'| = {np.min(speed):g}"
        )
    dt = np.diff(traj.times)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)])
    return ArcLength(traj.times.copy(), s, speed)


@dataclass(frozen=True)
class CovariantJets:
    """Covariant derivatives gamma', gamma'', ..., gamma^(p) at samples."""

    times: np.ndarray
    x: np.ndarray
    jets: list  # jets[k] holds order k+1, shape (n, dim)
    source: str  # "analytic+fd" | "fd" | "recursion"

    @property
    def order(self) -> int:
        return len(self.jets)


def covariant_jets(
    M: MetricStructure,
    traj: Trajectory,
    order: int,
    *,
    method: str = "auto",
) -> CovariantJets:
    """Covariant jets of the projected curve up to the given order.

    Orders one and two come from stored data (exact coordinate second
    derivatives when present, centered differences otherwise).  Higher
    orders difference the previous jet; for unit-bundle geodesics the
    curvature recursion gamma^(p+1) = R(xi', phi xi) gamma^(p) replaces
    differencing beyond order three, where finite-difference noise grows
    quickly.  ``method`` may force ``"fd"`` or ``"recursion"``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > M.dim:
        raise ValueError(f"jet order {order} exceeds dimension {M.dim}")
    if method not in ("auto", "fd", "recursion"):
        raise ValueError(f"unknown jet method {method!r}")
    n = traj.n
    if n < 5:
        raise ValueError("too few samples for jet computation")
    is_unit_geo = bool(traj.meta.get("unit_geodesic"))
    if method == "recursion" and not is_unit_geo:
        raise ValueError("the curvature recursion only applies to unit-bundle geodesics")
    recursion_from = {"recursion": 3, "auto": 4 if is_unit_geo else None}.get(method)

    geo = M.at(traj.x)
    jets: list[np.ndarray] = [traj.xdot.copy()]
    trim = 0
    if recursion_from is not None and order >= recursion_from:
        xi_prime = geo.to_covariant(traj.xi, traj.xidot, traj.xdot)
        phi_xi = matvec(geo.phi, traj.xi)
    for p in range(2, order + 1):
        if recursion_from is not None and p >= recursion_from:
            jets.append(geo.riemann(xi_prime, phi_xi, jets[-1]))
            continue
        if p == 2 and traj.xddot is not None:
            rate = traj.xddot
        else:  # the coordinate rate of the previous jet by centered differencing
            if p > 4:
                warnings.warn(
                    f"jet order {p} by finite differences is past the noise floor",
                    stacklevel=2,
                )
            rate = np.gradient(jets[-1], traj.times, axis=0)
            trim += 1
        jets.append(geo.to_covariant(jets[-1], rate, traj.xdot))

    window = slice(trim, n - trim) if trim else slice(None)
    source = "recursion" if recursion_from else ("analytic+fd" if traj.xddot is not None else "fd")
    return CovariantJets(
        times=traj.times[window].copy(),
        x=traj.x[window].copy(),
        jets=[j[window] for j in jets],
        source=source,
    )


@dataclass(frozen=True)
class FrenetResult:
    """Per-sample Frenet curvatures of a projected curve.

    ``curvatures[:, i]`` is k_{i+1}; the last column is the first curvature
    that fell below the truncation tolerance (the frame stops there).
    """

    times: np.ndarray
    curvatures: np.ndarray  # (n, r)
    frame_rank: int
    frames: np.ndarray  # (n, m, dim), orthonormal in g; m = r or r + 1
    speed: np.ndarray
    truncation_tol: float
    details: dict = field(default_factory=dict)

    @property
    def means(self) -> np.ndarray:
        return self.curvatures.mean(axis=0)

    @property
    def constancy(self) -> np.ndarray:
        return np.max(np.abs(self.curvatures - self.means), axis=0)


def frenet_curvatures(
    M: MetricStructure,
    jets: CovariantJets,
    *,
    truncation_tol: float = 1e-7,
) -> FrenetResult:
    """Gram-Schmidt frame and curvatures from covariant jets.

    A second orthogonalization pass controls cancellation for nearly
    dependent jets.  Indefinite directions in the jet span raise
    :class:`SignatureError`.
    """
    if jets.order < 2:
        raise ValueError("need jets to order >= 2 for curvatures")
    n = jets.times.size
    n_jets = jets.order
    dim = jets.jets[0].shape[1]
    radii = np.full((n, n_jets), np.nan)
    frames = np.zeros((n, n_jets, dim))
    ranks = np.empty(n, dtype=int)
    basis_lens = np.empty(n, dtype=int)
    speed = np.empty(n)
    g_all = np.broadcast_to(M.metric_at(jets.x), (n, dim, dim))
    for i in range(n):
        g = g_all[i]
        basis: list[np.ndarray] = []
        rdiag: list[float] = []
        for v in (jet[i] for jet in jets.jets):
            w = v.astype(float).copy()
            for _ in range(2):  # reorthogonalization pass
                for e in basis:
                    w = w - float(w @ g @ e) * e
            sq = float(w @ g @ w)
            if sq < -(truncation_tol**2):
                raise SignatureError(
                    "metric is not positive definite on the jet span "
                    f"(g(w, w) = {sq:g} at sample {i})"
                )
            r = float(np.sqrt(max(sq, 0.0)))
            rdiag.append(r)
            if r < truncation_tol:
                break
            basis.append(w / r)
        if len(rdiag) == 1:
            raise VerticalCurveError("projected curve has vanishing velocity jet")
        ranks[i] = len(rdiag) - 1  # number of curvatures available
        basis_lens[i] = len(basis)
        speed[i] = rdiag[0]
        radii[i, : len(rdiag)] = rdiag
        for j, e in enumerate(basis):
            frames[i, j] = e
    r = int(np.min(ranks))
    curv = radii[:, 1 : r + 1] / (radii[:, :r] * speed[:, None])
    return FrenetResult(
        times=jets.times.copy(),
        curvatures=curv,
        frame_rank=r,
        frames=frames[:, : int(np.min(basis_lens)), :],
        speed=speed,
        truncation_tol=truncation_tol,
        details={"jet_source": jets.source},
    )


@dataclass(frozen=True)
class ConstancyReport:
    index: np.ndarray  # 1-based curvature indices
    max_deviation: np.ndarray
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "curvatures": [
                {"index": int(i), "max_deviation": json_number(d)}
                for i, d in zip(self.index, self.max_deviation)
            ],
        }


def constancy_check(result: FrenetResult, tol: float) -> ConstancyReport:
    """Pass iff every retained curvature deviates from its mean by < tol."""
    dev = result.constancy
    return ConstancyReport(
        index=np.arange(1, dev.size + 1),
        max_deviation=dev,
        tol=tol,
        passed=bool(np.all(dev < tol)),
    )
