"""Frenet analysis of projected base curves.

The projected curve of a bundle trajectory is analyzed at all samples at
once: covariant jets gamma', gamma'', ... (from one geometry evaluation on
all samples), a Gram-Schmidt frame in the metric along the curve, and the
Frenet curvatures k_1, k_2, ....  Each jet order is one array step over the
samples; boolean masks truncate each sample's frame at its own first
curvature below tolerance.  All of this presumes the metric is positive
definite on the span of the jets, otherwise a SignatureError is raised (the
Frenet construction has no meaning for indefinite restrictions).

Curvatures are extracted from the triangular Gram-Schmidt coefficients: with
r_i the orthogonal remainder norm of the i-th jet, k_i = r_{i+1} / (r_i |gamma'|),
which agrees with the arc-length Frenet equations for any regular
parametrization.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import SignatureError, VerticalCurveError
from .geometry import MetricStructure, bilinear, matvec
from .integrate import Trajectory

__all__ = [
    "ArcLength",
    "arc_length_reparam",
    "CovariantJets",
    "covariant_jets",
    "samples_needed",
    "FrenetResult",
    "frenet_curvatures",
]

TRUNCATION_TOL = 1e-7  # a frame stops at its first remainder norm below this
MIN_SPEED = 1e-6  # a projected curve slower than this somewhere is vertical
MIN_SAMPLES = 5  # the fewest samples covariant_jets accepts on any path


class ArcLength:
    """Arc length s(t) along the projected curve, by trapezoidal quadrature."""

    __slots__ = ("s", "speed")

    def __init__(self, s: np.ndarray, speed: np.ndarray):
        self.s, self.speed = s, speed


def arc_length_reparam(M: MetricStructure, traj: Trajectory) -> ArcLength:
    """Arc length of the projected curve; rejects (near-)vertical curves."""
    sq = bilinear(traj.xdot, M.metric_at(traj.x), traj.xdot)
    if np.any(sq < 0.0):
        raise SignatureError("negative squared speed along the projected curve")
    speed = np.sqrt(sq)
    if float(np.min(speed)) < MIN_SPEED:
        raise VerticalCurveError(
            f"projected curve is vertical: min |gamma'| = {np.min(speed):g}"
        )
    dt = np.diff(traj.times)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)])
    return ArcLength(s, speed)


class CovariantJets:
    """Covariant derivatives gamma', gamma'', ..., gamma^(p) at samples."""

    __slots__ = ("times", "x", "jets")

    def __init__(self, times: np.ndarray, x: np.ndarray, jets: list):
        self.times, self.x = times, x
        self.jets = jets  # jets[k] holds order k+1, shape (n, dim)

    @property
    def order(self) -> int:
        return len(self.jets)


def _jet_path(order: int, system: str | None, exact_second: bool) -> tuple[int, int]:
    """The first jet order taken by the curvature recursion (4 for a
    unit-bundle geodesic, ``order + 1`` where none is) and the number of
    orders taken by centered differences."""
    first = 4 if system == "geodesic_unit" else order + 1
    return first, len(range(3 if exact_second else 2, min(order, first - 1) + 1))


def samples_needed(order: int, system: str | None, exact_second: bool = False) -> int:
    """The fewest samples :func:`covariant_jets` accepts for jets to ``order``
    of a curve of the system kind ``system`` (None for a plain base curve).

    Each order taken by centered differences trims one sample at each end of
    the window, which must keep two, so that constancy along the curve is
    judged on more than one sample.  A unit-bundle geodesic
    (``"geodesic_unit"``) takes the orders from 4 on by the curvature
    recursion, which trims none, and an exact coordinate second derivative
    (``exact_second``) gives order 2 without differencing.  No path accepts
    fewer than ``MIN_SAMPLES``.
    """
    return max(MIN_SAMPLES, 2 * _jet_path(order, system, exact_second)[1] + 2)


def covariant_jets(M: MetricStructure, traj: Trajectory, order: int) -> CovariantJets:
    """Covariant jets of the projected curve up to the given order.

    Orders one and two come from stored data (exact coordinate second
    derivatives when present, centered differences otherwise).  Higher
    orders difference the previous jet; for unit-bundle geodesics (a
    ``meta["system"]`` of ``"geodesic_unit"``) the curvature recursion
    gamma^(p+1) = R(xi', phi xi) gamma^(p) replaces differencing beyond order
    three, where finite-difference noise grows quickly.  The jets cover the
    samples that no difference reached from an end; a run shorter than
    :func:`samples_needed` raises ``ValueError``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > M.dim:
        raise ValueError(f"jet order {order} exceeds dimension {M.dim}")
    system = traj.meta.get("system")
    exact_second = traj.xddot is not None
    n, needed = traj.n, samples_needed(order, system, exact_second)
    if n < needed:
        raise ValueError(f"jets to order {order} need {needed} samples, got {n}")
    recursion_from, trim = _jet_path(order, system, exact_second)

    geo = M.at(traj.x)
    jets: list[np.ndarray] = [traj.xdot.copy()]
    if order >= recursion_from:
        xi_prime = geo.to_covariant(traj.xi, traj.xidot, traj.xdot)
        phi_xi = matvec(geo.phi, traj.xi)
    for p in range(2, order + 1):
        if p >= recursion_from:
            jets.append(geo.riemann(xi_prime, phi_xi, jets[-1]))
            continue
        if p == 2 and exact_second:
            rate = traj.xddot
        else:  # the coordinate rate of the previous jet by centered differencing
            if p > 4:
                warnings.warn(
                    f"jet order {p} by finite differences is past the noise floor",
                    stacklevel=2,
                )
            rate = np.gradient(jets[-1], traj.times, axis=0)
        jets.append(geo.to_covariant(jets[-1], rate, traj.xdot))

    window = slice(trim, n - trim)
    return CovariantJets(traj.times[window].copy(), traj.x[window].copy(), [j[window] for j in jets])


class FrenetResult:
    """Per-sample Frenet curvatures of a projected curve.

    ``curvatures[:, i]`` is k_{i+1}; the last column is the first curvature
    that fell below the truncation tolerance (the frame stops there).
    """

    __slots__ = ("times", "curvatures", "frame_rank", "frames", "speed")

    def __init__(
        self,
        times: np.ndarray,
        curvatures: np.ndarray,  # (n, r)
        frame_rank: int,
        frames: np.ndarray,  # (n, m, dim), orthonormal in g; m = r or r + 1
        speed: np.ndarray,
    ):
        self.times, self.curvatures, self.frame_rank = times, curvatures, frame_rank
        self.frames, self.speed = frames, speed

    @property
    def means(self) -> np.ndarray:
        return self.curvatures.mean(axis=0)

    @property
    def constancy(self) -> np.ndarray:
        return np.max(np.abs(self.curvatures - self.means), axis=0)


def frenet_curvatures(M: MetricStructure, jets: CovariantJets) -> FrenetResult:
    """Gram-Schmidt frame and curvatures from covariant jets, at all samples at once.

    Each jet order is one array step over every sample.  A mask holds the
    samples whose frame is still growing, so each sample's frame stops on its
    own, at its first remainder norm below ``TRUNCATION_TOL``.  A second
    orthogonalization pass controls cancellation for nearly dependent jets.
    Indefinite directions in the jet span raise :class:`SignatureError` and a
    vanishing velocity raises :class:`VerticalCurveError`; where several
    samples fail, the one with the lowest index decides.
    """
    if jets.order < 2:
        raise ValueError("need jets to order >= 2 for curvatures")
    n = jets.times.size
    g = M.metric_at(jets.x)
    radii = np.full((n, jets.order), np.nan)
    basis = np.zeros((jets.order, n, jets.jets[0].shape[1]))  # rows past a frame stay 0
    n_radii = np.zeros(n, dtype=int)
    n_basis = np.zeros(n, dtype=int)
    growing = np.ones(n, dtype=bool)
    negative = np.full(n, np.nan)  # g(w, w) where a growing frame met an indefinite direction
    for j, v in enumerate(jets.jets):
        w = v.astype(float)
        for _ in range(2):  # reorthogonalization pass
            for e in basis[:j]:
                w = w - bilinear(w, g, e)[:, None] * e
        sq = bilinear(w, g, w)
        bad = growing & (sq < -(TRUNCATION_TOL**2))
        negative[bad] = sq[bad]
        r = np.sqrt(np.maximum(sq, 0.0))
        radii[growing, j] = r[growing]
        n_radii += growing
        growing &= ~(r < TRUNCATION_TOL)  # a NaN radius keeps its frame growing
        basis[j, growing] = w[growing] / r[growing, None]
        n_basis += growing
    failed = ~np.isnan(negative) | (n_radii == 1)
    if failed.any():
        i = int(np.argmax(failed))
        if not np.isnan(negative[i]):
            raise SignatureError(
                "metric is not positive definite on the jet span "
                f"(g(w, w) = {float(negative[i]):g} at sample {i})"
            )
        raise VerticalCurveError("projected curve has vanishing velocity jet")
    rank = int(np.min(n_radii)) - 1  # curvatures available at every sample
    speed = radii[:, 0]
    return FrenetResult(
        times=jets.times.copy(),
        curvatures=radii[:, 1 : rank + 1] / (radii[:, :rank] * speed[:, None]),
        frame_rank=rank,
        frames=basis[: int(np.min(n_basis))].swapaxes(0, 1),
        speed=speed,
    )
