"""Fixed-step classic RK4 integration with invariant monitoring.

The step grid lands exactly on the final time by shortening the last step.
Conserved-quantity monitors are evaluated from stored states, never
interpolated, on the first read of a trajectory's ``monitors``.  Each step
checks the geometry at the sample it starts from; the final sample, which
no step starts from, has g, phi and Gamma checked once the steps are done,
in the trajectory's geometry of all its samples, which the monitors and the
Frenet analysis then read.

A step runs on plain floats.  The state is a tuple of 4 dim floats, the
right-hand side (:func:`bundleflow.bundle.make_rhs`) takes and returns
tuples, and the step is one straight-line function written once per state
length: it calls the right-hand side 4 times and does the stage arithmetic
between the calls, y + (h/2) k or y + h k, and the sum
y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).  Each entry is the arithmetic numpy
does on the arrays, in its order, so a run is the array formulas' run bit
for bit.  The stepped states are kept as tuples and copied into a
preallocated array 256 at a time.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cache
from itertools import chain
from math import isfinite
from time import perf_counter

import numpy as np

from .bundle import BundleState, BundleSystem, make_rhs, normalized_unit_state
from .errors import EvalDomainError, IntegrationBlowUp, SingularMetricError
from .expressions import _Source
from .geometry import MetricStructure, PointGeometry, bilinear

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "compute_monitors",
    "convergence_order",
]

# the monitored series, in the column order of monitors.csv
MONITOR_NAMES = ("unit_norm", "rho_sq", "speed_sq", "fiber_ortho")

# stepped states are kept as tuples and copied into the array of samples this many at a time
_BUFFER_ROWS = 256


class IntegratorConfig:
    __slots__ = ("step", "t_span")

    def __init__(self, step: float, t_span: tuple[float, float]):
        t0, t1 = t_span
        if not np.all(np.isfinite([t0, t1, step])):
            raise ValueError(f"step {step} and span {t_span} must be finite")
        if not t1 > t0:
            raise ValueError(f"need t1 > t0, got span {t_span}")
        if not 0.0 < step <= (t1 - t0) + 1e-15:
            raise ValueError(f"step {step} incompatible with span {t_span}")
        self.step, self.t_span = step, t_span


class Trajectory:
    """Time-stamped bundle states plus monitored invariant series.

    ``xddot``/``xiddot`` are only populated for analytically sampled curves,
    where they hold exact coordinate second derivatives.  Each series of
    ``monitors`` holds one value per sample of ``times``.  A trajectory
    given its ``structure`` computes the monitors on their first read, with
    one call of :func:`compute_monitors`, and keeps them; without one they
    are empty until :func:`compute_monitors` fills them.
    """

    __slots__ = ("times", "x", "xdot", "xi", "xidot", "xddot", "xiddot", "structure", "_monitors",
                 "_geometry", "meta")

    def __init__(
        self,
        times: np.ndarray,
        x: np.ndarray,
        xdot: np.ndarray,
        xi: np.ndarray,
        xidot: np.ndarray,
        xddot: np.ndarray | None = None,
        xiddot: np.ndarray | None = None,
        structure: MetricStructure | None = None,
        meta: dict | None = None,
    ):
        if times.size != x.shape[0]:
            raise ValueError("times and states must have equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times, self.x, self.xdot, self.xi, self.xidot = times, x, xdot, xi, xidot
        self.xddot, self.xiddot = xddot, xiddot
        self.structure, self._monitors, self._geometry = structure, None, None
        self.meta = {} if meta is None else meta

    @property
    def monitors(self) -> dict:
        if self._monitors is None:
            if self.structure is None:
                self._monitors = {}
            else:
                compute_monitors(self.structure, self)
        return self._monitors

    def geometry(self, M: MetricStructure) -> PointGeometry:
        """``M``'s geometry at the samples: for the trajectory's own structure
        one :class:`~bundleflow.geometry.PointGeometry`, built on first use and
        kept, so that each piece is evaluated once over the samples."""
        if M is not self.structure:
            return M.at(self.x)
        if self._geometry is None:
            self._geometry = M.at(self.x)
        return self._geometry

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])

    def state(self, i: int) -> BundleState:
        return BundleState(self.x[i], self.xdot[i], self.xi[i], self.xidot[i])

    @classmethod
    def from_base_curve(cls, times, x, xdot, xddot=None):
        """Wrap a plain base curve (zero fiber) for Frenet-style analysis."""
        times = np.asarray(times, dtype=float)
        x = np.asarray(x, dtype=float)
        zeros = np.zeros(x.shape)
        return cls(
            times=times,
            x=x,
            xdot=np.asarray(xdot, dtype=float),
            xi=zeros.copy(),
            xidot=zeros.copy(),
            xddot=None if xddot is None else np.asarray(xddot, dtype=float),
            xiddot=None if xddot is None else zeros.copy(),
        )


@cache
def _step_kernel(n: int):
    """The RK4 step on states of ``n`` floats, as a generated straight-line
    function ``step(rhs, t, y, h)`` of tuples, written once per ``n`` and
    kept.  It takes its stages at y + (h/2) k1, y + (h/2) k2 and y + h k3,
    and returns y + (h/6) (((k1 + 2 k2) + 2 k3) + k4)."""
    r = range(n)

    def names(k):
        return "".join(f"{k}{i}, " for i in r)

    def entries(entry):
        return "(" + "".join(f"{entry(i)}, " for i in r) + ")"

    def stage(k, at, prev, a):
        return f"{names(k)}= rhs({at}, {entries(lambda i: f'y{i} + {a} * {prev}{i}')})"

    rk4 = [f"{names('y')}= y", "half = 0.5 * h", f"{names('k1_')}= rhs(t, y)",
           stage("k2_", "t + half", "k1_", "half"), stage("k3_", "t + half", "k2_", "half"),
           stage("k4_", "t + h", "k3_", "h"), "c = h / 6.0",
           "return " + entries(lambda i: f"y{i} + c * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})")]
    return _Source(0, rows=False).define("_rk4", "rhs, t, y, h", rk4)


# one call per step, looked up by integrate at each run: the benchmark tracer
# (benchmarks/spans.py) counts steps by wrapping this name
def _rk4_step(rhs, t, y, h, kernel):
    return kernel(rhs, t, y, h)


def _flush(ys, rows, end) -> None:
    """Copy the buffered states ``rows`` into ``ys[end - len(rows) : end]``
    and empty the buffer."""
    if rows:
        n = len(rows)
        ys[end - n : end] = np.fromiter(chain.from_iterable(rows), float, n * ys.shape[1]).reshape(n, -1)
        rows.clear()


def _time_grid(t0: float, t1: float, h: float) -> np.ndarray:
    span = t1 - t0
    n_full = int(np.floor(span / h + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    if times.size and abs(times[-1] - t1) <= 1e-12 * max(1.0, abs(span)):
        times[-1] = t1
    else:
        times = np.append(times, t1)
    return times


def compute_monitors(M: MetricStructure, traj: Trajectory) -> None:
    """Populate the invariant series from the stored states, one value at
    every sample (in place).  A trajectory given its structure calls this
    on the first read of its ``monitors``.

    Monitored quantities, by ``MONITOR_NAMES``: g(xi, phi xi),
    g(xi', phi xi'), g(gamma', gamma') and g(xi', phi xi).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        geo = traj.geometry(M)
        xi, xdot = traj.xi, traj.xdot
        xi_prime = geo.to_covariant(xi, traj.xidot, xdot)
        gphi = geo.g @ geo.phi
        values = (
            bilinear(xi, gphi, xi),
            bilinear(xi_prime, gphi, xi_prime),
            bilinear(xdot, geo.g, xdot),
            bilinear(xi_prime, gphi, xi),
        )
    traj._monitors = dict(zip(MONITOR_NAMES, values))


def integrate(
    M: MetricStructure,
    system: BundleSystem,
    init: BundleState,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate a bundle system from a (normalized) initial state.

    Unit-bundle systems normalize the initial state so the constraints hold
    exactly at t0; constraint drift along the run is left visible in the
    monitors, which the returned trajectory computes on their first read.
    Every failure inside the run (a non-finite state, or a
    :class:`SingularMetricError` or :class:`EvalDomainError` raised by a step
    or by g, phi or Gamma at the final sample, which no step starts from and
    which is checked once the steps are done, without a right-hand-side
    call) raises :class:`IntegrationBlowUp` carrying the trajectory up to the
    last good sample, with its monitors computed; a raised error is chained
    as its ``__cause__``.

    The steps run on plain floats (see the module docstring): the state is
    a tuple, the right-hand side of :func:`~bundleflow.bundle.make_rhs`
    maps tuples to tuples, and a step is the generated straight-line RK4
    step of the state's length.  A state is finite when the sum of its
    entries is, or else when each entry is; the stepped states are buffered
    and copied into the preallocated array of samples.

    The trajectory's ``meta`` records the run: ``steps`` taken,
    ``rhs_calls`` (4 per step, and the calls a failing step made, counted
    on a rerun of that step), and the seconds spent building the
    right-hand side and the step function (``rhs_build_s``) and stepping
    (``step_s``).
    """
    if system.on_unit_bundle:
        init = normalized_unit_state(M, init)
    step = _rk4_step
    times = _time_grid(cfg.t_span[0], cfg.t_span[1], cfg.step)
    dim = M.dim
    ys = np.empty((times.size, 4 * dim))
    ys[0] = init.flat()

    # blow-ups are detected on the state, so let arithmetic reach inf quietly
    # (a constant g that is not finite is met when the right-hand side is built)
    with np.errstate(over="ignore", invalid="ignore"):
        start = perf_counter()
        rhs = make_rhs(M, system)
        kernel = _step_kernel(4 * dim)
        record = {"rhs_build_s": perf_counter() - start}
        start = perf_counter()
        ts = times.tolist()
        y = tuple(ys[0].tolist())
        rows = []  # the stepped states not yet copied into ys
        for k in range(len(ts) - 1):
            t = ts[k]
            try:
                y = step(rhs, t, y, ts[k + 1] - t, kernel)
            except (SingularMetricError, EvalDomainError) as exc:
                cause, reason = exc, f"{exc} in the step from t = {t:g}"
                calls = []  # the calls the failing step makes, counted on a rerun
                with suppress(SingularMetricError, EvalDomainError):
                    step(lambda t, y: calls.append(t) or rhs(t, y), t, y, ts[k + 1] - t, kernel)
                reached = len(calls)
            else:
                # a finite sum has finite terms; an overflowing one is looked at term by term
                if isfinite(sum(y)) or all(map(isfinite, y)):
                    rows.append(y)
                    if len(rows) == _BUFFER_ROWS:
                        _flush(ys, rows, k + 2)
                    continue
                cause, reason = None, f"non-finite state at t = {ts[k + 1]:g}"
                reached = 4
            _flush(ys, rows, k + 1)
            record.update(steps=k, rhs_calls=4 * k + reached,
                          step_s=perf_counter() - start)
            partial = _partial_trajectory(M, system, times[: k + 1], ys[: k + 1], cfg, record)
            raise IntegrationBlowUp(reason, partial) from cause
        _flush(ys, rows, times.size)
    steps = times.size - 1
    record.update(steps=steps, rhs_calls=4 * steps, step_s=perf_counter() - start)
    traj = _build_trajectory(M, system, times, ys, cfg, record)
    try:
        _check_geometry(traj.geometry(M))
    except (SingularMetricError, EvalDomainError):
        # the steps vouched for the other samples: the final one alone decides
        # whether the run blew up, or the monitors raise this when read
        try:
            _check_geometry(M.at(ys[-1:, :dim]))
        except (SingularMetricError, EvalDomainError) as exc:
            partial = _partial_trajectory(M, system, times[:-1], ys[:-1], cfg, record)
            raise IntegrationBlowUp(f"{exc} at the final sample, t = {ts[-1]:g}", partial) from exc
    return traj


def _check_geometry(geo: PointGeometry) -> None:
    """Evaluate Gamma, g and phi, the pieces the monitors read, in ``geo``;
    raises where :func:`compute_monitors` would."""
    with np.errstate(over="ignore", invalid="ignore"):
        for piece in ("gamma", "g", "phi"):
            getattr(geo, piece)


def _partial_trajectory(M, system, times, ys, cfg, record) -> Trajectory:
    """The run up to its last sample, or to the one before when the geometry
    fails at the last (a step that failed at its own start point), with its
    monitors computed.  A failure at the initial sample is raised as it is."""
    traj = _build_trajectory(M, system, times, ys, cfg, record)
    try:
        compute_monitors(M, traj)
    except (SingularMetricError, EvalDomainError):
        if times.size == 1:
            raise
        traj = _build_trajectory(M, system, times[:-1], ys[:-1], cfg, record)
        compute_monitors(M, traj)
    return traj


def _build_trajectory(M, system, times, ys, cfg, record) -> Trajectory:
    """The trajectory of the samples, whose monitors are computed on first
    read, and in its meta the run record: steps taken, RHS calls, and the
    seconds spent building the right-hand side and stepping."""
    dim = M.dim
    return Trajectory(
        times=np.asarray(times, dtype=float),
        x=ys[:, :dim].copy(),
        xdot=ys[:, dim : 2 * dim].copy(),
        xi=ys[:, 2 * dim : 3 * dim].copy(),
        xidot=ys[:, 3 * dim :].copy(),
        structure=M,
        meta={
            "system": system.kind,
            "step": cfg.step,
            "manifold": M.name,
            **record,
        },
    )


def convergence_order(
    M: MetricStructure,
    system: BundleSystem,
    init: BundleState,
    cfg: IntegratorConfig,
) -> float | None:
    """Richardson order estimate from runs at h, h/2 and h/4.

    Returns None when successive differences sit at the roundoff floor
    (e.g. for systems RK4 resolves exactly), in which case an order
    measurement is meaningless.
    """
    finals = []
    for divisor in (1, 2, 4):
        sub = IntegratorConfig(step=cfg.step / divisor, t_span=cfg.t_span)
        finals.append(integrate(M, system, init, sub).state(-1).flat())
    scale = max(1.0, float(np.max(np.abs(finals[0]))))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    floor = 1e-12 * scale
    if e1 < floor or e2 < floor:
        return None
    return float(np.log2(e1 / e2))
