"""Base-manifold tensor calculus.

A :class:`MetricStructure` bundles a metric ``g``, an almost para-complex
structure ``phi`` (phi^2 = id with balanced eigenbundles) and, optionally,
analytic Christoffel symbols or a constant curvature tensor.  Geometry is
evaluated at one chart point or at every row of an ``(n, dim)`` stack of
points at once; derivatives of the component fields are exact, from
forward-mode jets of their expression trees, so Gamma and dGamma of a chart
without analytic Christoffel symbols come from one 2-jet of g.

Conventions:

* Christoffel arrays are indexed ``gamma[k, i, j] = Gamma^k_{ij}``.
* The curvature sign follows ``R(X, Y)Z = [nabla_X, nabla_Y]Z - nabla_[X,Y] Z``.
* The twin metric is ``G(X, Y) = g(phi X, Y)``, symmetric whenever g is pure;
  it may be indefinite, so "norms" computed against G are signed quadratic
  form values and square roots are only taken where the geodesic theory
  requires them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMetricError
from .expressions import ScalarField, compile_rows, evaluate

__all__ = [
    "FieldTensor",
    "MetricStructure",
    "PointGeometry",
    "CurvatureOperator",
    "CheckReport",
    "CHECK_TOL",
    "sample_chart_points",
    "check_norden",
    "check_parallel_phi",
    "check_curvature_purity",
    "curvature_power",
    "curvature_power_closed",
    "matvec",
    "bilinear",
    "json_number",
]


def matvec(a, v) -> np.ndarray:
    """a v for a matrix or an (n, d, d) stack, and a vector or an (n, d) stack."""
    return (a @ v[..., None])[..., 0]


def bilinear(u, a, v):
    """u^T a v for vectors and a matrix, or (n, ...) stacks of any of them."""
    return (u[..., None, :] @ a @ v[..., None])[..., 0, 0]


def _as_field(entry, dim: int) -> ScalarField:
    if isinstance(entry, ScalarField):
        return entry
    if isinstance(entry, str):
        return ScalarField.parse(entry, dim)
    return ScalarField.constant(float(entry), dim)


class FieldTensor:
    """A dim x ... x dim array of scalar fields with a constant fast path.

    Rank 2 holds ``g``, ``phi`` and F tensors; rank 3 holds analytic
    Christoffel symbols.  Fields are stored flat, in row-major order.
    """

    __slots__ = (
        "dim", "rank", "fields", "_const", "_variable", "_trees", "_template", "_programs"
    )

    def __init__(self, fields, dim: int, rank: int):
        if len(fields) != dim**rank:
            raise ValueError(f"expected {dim**rank} fields, got {len(fields)}")
        self.dim = dim
        self.rank = rank
        self.fields = list(fields)
        # the constant components, with 0 where a field varies
        self._template = np.array(
            [0.0 if f.const_value is None else f.const_value for f in self.fields],
            dtype=float,
        )
        self._variable = np.array(
            [k for k, f in enumerate(self.fields) if f.const_value is None], dtype=np.intp
        )
        # the trees of the varying fields, None for the constant ones
        self._trees = [None if f.const_value is not None else f.ast for f in self.fields]
        # the stack programs by order, compiled on first use
        self._programs: dict = {}
        self._const: np.ndarray | None = None
        if not self._variable.size:
            self._const = self._template.reshape((dim,) * rank)
            self._const.setflags(write=False)

    @classmethod
    def from_spec(cls, spec, dim: int) -> "FieldTensor":
        """Build from nested lists of entries; the nesting depth is the rank."""
        nested = (list, tuple, np.ndarray)
        nodes, rank = [spec], 0
        while isinstance(nodes[0], nested):
            if any(not isinstance(n, nested) or len(n) != dim for n in nodes):
                raise ValueError(f"expected {dim} entries at nesting depth {rank + 1}")
            nodes = [child for n in nodes for child in n]
            rank += 1
        if any(isinstance(n, nested) for n in nodes):
            raise ValueError("entries are nested to unequal depths")
        return cls([_as_field(n, dim) for n in nodes], dim, rank)

    @classmethod
    def zeros(cls, dim: int, rank: int) -> "FieldTensor":
        return cls([ScalarField.constant(0.0, dim)] * dim**rank, dim, rank)

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    def at(self, point) -> np.ndarray:
        """The components at one point, or stacked along a first axis at each
        row of an ``(n, dim)`` array of points.

        Only the non-constant fields are evaluated: at one point each tree
        is walked by :func:`~bundleflow.expressions.evaluate`, and a stack
        runs their stack program (:func:`~bundleflow.expressions.compile_rows`).
        A constant tensor returns its one shared read-only array for a point
        and a stack alike; it broadcasts against stacked values.
        """
        if self._const is not None:
            return self._const
        if getattr(point, "ndim", 1) == 2:
            out = self._template[None].repeat(len(point), axis=0)
            out[:, self._variable] = self._program(0)(point)[:, 0]
            return out.reshape((len(point),) + (self.dim,) * self.rank)
        out = self._template.copy()
        out[self._variable] = [evaluate(t, point) for t in self._trees if t is not None]
        return out.reshape((self.dim,) * self.rank)

    def jet(self, points: np.ndarray, order: int) -> np.ndarray:
        """Taylor coefficients ``[n, c, ...]`` of order 1 or 2 of the
        components at each row of an ``(n, dim)`` array, in the layout of
        :func:`~bundleflow.expressions.compile_rows`: ``c = 0`` the
        components (:meth:`at` gives them alone), ``c = 1 + l`` their d_l
        and, for order 2, ``c = 1 + dim + m dim + l`` their d_m d_l.  A
        single row runs the tensor's one stack program of the order, as any
        stack does.
        """
        jet = self._program(order)(points)
        jet[:, 0] += self._template
        return jet.reshape(jet.shape[:2] + (self.dim,) * self.rank)

    def _program(self, order: int):
        """The stack program of the varying fields' values (order 0) or of
        all fields' jet."""
        run = self._programs.get(order)
        if run is None:
            trees = [t for t in self._trees if t is not None] if order == 0 else self._trees
            run = self._programs[order] = compile_rows(trees, self.dim, order)
        return run


class MetricStructure:
    """Metric + para-structure on a single chart, with optional analytic data.

    Parameters
    ----------
    dim:
        Chart dimension; must be even and >= 2 (the para-structure needs
        eigenbundles of equal rank).
    g, phi:
        Component matrices ``g_ij`` and ``phi^i_j`` as expression strings,
        numbers or :class:`ScalarField` objects.
    christoffel:
        Optional analytic ``Gamma^k_{ij}``; when absent, Gamma and its
        derivatives come from exact forward-mode derivatives (jets) of g's
        fields, Gamma = 1/2 g^-1 S(dg).
    riemann:
        Optional constant curvature tensor ``R^l_{kij}`` of shape
        ``(dim,) * 4``, used in place of the metric-derived one; for
        synthetic constant-curvature structures.  Kept as the read-only
        array :attr:`riemann`, None when none was given.
    chart_box:
        Per-coordinate sampling box for the structure checks.
    """

    def __init__(
        self,
        dim: int,
        g,
        phi,
        *,
        christoffel=None,
        riemann=None,
        chart_box=None,
        name: str = "",
    ):
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"dimension must be even and >= 2, got {dim}")
        self.dim = dim
        self.g, self.phi = (
            t if isinstance(t, FieldTensor) else FieldTensor.from_spec(t, dim)
            for t in (g, phi)
        )
        if christoffel is None or isinstance(christoffel, FieldTensor):
            self.christoffel = christoffel
        else:
            self.christoffel = FieldTensor.from_spec(christoffel, dim)
        if (self.g.rank, self.phi.rank) != (2, 2) or (
            self.christoffel is not None and self.christoffel.rank != 3
        ):
            raise ValueError("g and phi must be matrices, christoffel a rank-3 array")
        if chart_box is None:
            chart_box = [(-1.0, 1.0)] * dim
        try:
            self.chart_box = np.asarray(chart_box, dtype=float).reshape(dim, 2)
        except (TypeError, ValueError):
            raise ValueError(f"chart_box must be {dim} pairs [lo, hi], got {chart_box!r}") from None
        lo, hi = self.chart_box.T
        if not (np.all(np.isfinite(self.chart_box)) and np.all(lo < hi)):
            raise ValueError(f"chart_box needs finite lo < hi in each pair, got {self.chart_box.tolist()}")
        self.name = name
        # the integrator's compiled right-hand sides, by system (bundle.make_rhs)
        self._rhs: dict = {}
        if riemann is not None:
            riemann = np.array(riemann, dtype=float)
            if riemann.shape != (dim,) * 4:
                raise ValueError(f"riemann must have shape {(dim,) * 4}, got {riemann.shape}")
            riemann.setflags(write=False)
        self.riemann: np.ndarray | None = riemann

    @property
    def has_constant_christoffel(self) -> bool:
        """Analytic Gamma with constant components: dGamma = 0 and R is constant."""
        return self.christoffel is not None and self.christoffel.is_constant

    @property
    def _jet_of_g(self) -> bool:
        """g and g^-1 at a point come with Gamma from one jet of varying g."""
        return self.christoffel is None and not self.g.is_constant

    # -- evaluation at a point or a stack of points ---------------------------

    def metric_at(self, point) -> np.ndarray:
        return self._checked_metric(self.g.at(point), point)

    def _checked_metric(self, mat, point) -> np.ndarray:
        """Symmetrize g given at one point, or at each of n points (n, d, d).

        Raises :class:`SingularMetricError` at the first singular one; a
        constant g, one matrix for a whole stack, is named at its first row.
        """
        mat = 0.5 * (mat + mat.swapaxes(-1, -2))
        det = np.linalg.det(mat)
        # relative to the entries, so that g and c*g are judged alike
        bound = 1e-12 * abs(mat).max(axis=(-2, -1)) ** self.dim
        singular = abs(det) <= bound
        if not singular.any():
            return mat
        if mat.ndim == 2:
            where = point[0] if np.ndim(point) == 2 else point
        else:
            i = int(np.argmax(singular))
            where, det, bound = point[i], det[i], bound[i]
        raise SingularMetricError(f"metric singular at {where}: |det g| = {abs(det):g}"
                                  f" <= 1e-12 max|g_ij|^{self.dim} = {bound:g}")

    def phi_at(self, point) -> np.ndarray:
        return self.phi.at(point)

    def christoffel_at(self, point) -> np.ndarray:
        """Gamma^k_{ij}, indexed [..., k, i, j]."""
        return self.at(point).gamma

    def christoffel_grad_at(self, point) -> np.ndarray:
        """d_m Gamma^k_{ij}, indexed [..., m, k, i, j]."""
        return self.at(point).dgamma

    def _connection(self, points: np.ndarray) -> tuple:
        """(g, g^-1, Gamma [n, k, i, j], dGamma [n, m, k, i, j]) at each of n
        points (n, d) from one jet: a 1-jet of analytic Christoffel symbols,
        with g and g^-1 None, or else a 2-jet of g, with the checked g and
        g^-1 that Gamma comes from.
        """
        if self.christoffel is not None:
            jet = self.christoffel.jet(points, 1)
            return None, None, jet[:, 0], jet[:, 1:]
        n, d = points.shape
        jet = self.g.jet(points, 2)
        g = self._checked_metric(jet[:, 0], points)
        ginv = np.linalg.inv(g)
        # [n, a, l, i, j]: d_l g_ij for a = 0, and d_m d_l g_ij for a = 1 + m
        dg = jet[:, 1:].reshape(n, 1 + d, d, d, d)
        # S_pij = d_i g_pj + d_j g_pi - d_p g_ij, and d_m S_pij, as [n, a, p, i, j]
        s = dg.transpose(0, 1, 3, 2, 4) + dg.transpose(0, 1, 3, 4, 2) - dg
        s = s.reshape(n, 1 + d, d, d * d)
        # Gamma^k_ij = 1/2 g^kp S_pij
        gamma = 0.5 * (ginv @ s[:, 0])
        # d_m Gamma^k_ij = g^kp (1/2 d_m S_pij - d_m g_pq Gamma^q_ij)
        rate = 0.5 * s[:, 1:] - (dg[:, 0].reshape(n, d * d, d) @ gamma).reshape(n, d, d, d * d)
        dgamma = ginv[:, None] @ rate
        return g, ginv, gamma.reshape(n, d, d, d), dgamma.reshape(n, d, d, d, d)

    def riemann_tensor_at(self, point) -> np.ndarray:
        """Full curvature R^l_{kij} such that (R(X,Y)Z)^l = R^l_{kij} X^i Y^j Z^k."""
        return self.at(point).riemann_tensor

    def at(self, point) -> "PointGeometry":
        """The geometry at one chart point or at each row of an ``(n, dim)``
        stack, each piece evaluated on first use."""
        return PointGeometry(self, point)


# samples per block when the connection of a stack is evaluated: the jets and
# temporaries of one block (a few KB per sample for dGamma of a chart of
# dimension 4) are freed before the next block starts
_BLOCK = 256


def _in_blocks(evaluate, points: np.ndarray) -> tuple:
    """``evaluate``, returning a tuple of stacks or None, on an (n, d) stack
    at most ``_BLOCK`` samples at a time.

    Each sample's results are the ones an unblocked call gives, bit for bit.
    """
    block = evaluate(points[:_BLOCK])
    if len(points) <= _BLOCK:
        return block
    out = tuple(
        None if part is None else np.empty((len(points),) + part.shape[1:]) for part in block
    )
    for start in range(0, len(points), _BLOCK):
        if start:
            del block  # freed before the next block is evaluated
            block = evaluate(points[start : start + _BLOCK])
        for whole, part in zip(out, block):
            if whole is not None:
                whole[start : start + _BLOCK] = part
    return out


def _contract(t, v, rank: int) -> np.ndarray:
    """t[..., j] v^j for a tensor t of rank ``rank`` (d x ... x d).

    At one point, v is a vector and this is ``t @ v``.  For an (n, d) stack
    of vectors, t is stacked along a leading sample axis too, or is one
    tensor shared by all samples; the result has the sample axis.
    """
    if v.ndim == 1:
        return t @ v
    return (t @ v.reshape((len(v),) + (1,) * (rank - 2) + (v.shape[1], 1)))[..., 0]


class PointGeometry:
    """The geometry at one chart point, or at each row of an ``(n, dim)``
    stack (every piece, vector and conversion then has a leading sample
    axis), each piece computed on first use.

    Gamma and dGamma come from one exact jet per point or stack (see
    :meth:`MetricStructure._connection`).  On a chart without analytic
    Christoffel symbols that is a 2-jet of g, which also fills g and g^-1:
    the first of the four pieces asked for fills all of them, once.  Where
    analytic Gamma varies, Gamma and dGamma come from a 1-jet of its fields,
    and g from ``metric_at``.  phi comes from ``phi_at``, and R is derived
    from Gamma and dGamma, or is the structure's :attr:`MetricStructure.riemann`
    where one was given.  A piece that does not depend on the point (a
    constant g, phi or Gamma; the zero dGamma and the R of constant analytic
    Gamma; a given R) has no sample axis and broadcasts against the stack.

    This is the one place where derivatives along a curve x(t) are converted
    between covariant and coordinate form: for v(t) along the curve,
    v' = vdot + Gamma(v, xdot) (xi' <-> xidot, and with v = xdot,
    gamma'' <-> xddot), and d(v')/dt = vddot + dGamma(xdot; v, xdot)
    + Gamma(v, xddot) + Gamma(vdot, xdot) is the second-order pair, whose
    dGamma term is skipped where analytic Gamma is constant.  Every Gamma
    contraction goes through :meth:`along`, A = Gamma xdot with
    Gamma(v, xdot) = A v.  The integrator's right-hand side
    (:func:`bundleflow.bundle.make_rhs`) applies these same formulas at its
    single point in compiled straight-line code, with A formed once per call
    and the pieces that do not depend on the point folded in as constants;
    at a point where that code cannot vouch for its result it returns these
    stacked formulas' result.
    """

    __slots__ = ("M", "x", "_g", "_ginv", "_phi", "_gamma", "_dgamma", "_riemann")

    def __init__(self, M: MetricStructure, x):
        self.M = M
        self.x = x
        self._g = self._ginv = self._phi = None
        self._gamma = self._dgamma = self._riemann = None

    def _fill(self) -> None:
        """Gamma and dGamma, with g and g^-1 where a jet of g gives them."""
        M, x = self.M, np.asarray(self.x, dtype=float)
        pieces = _in_blocks(M._connection, x.reshape(-1, M.dim))
        lead = x.shape[:-1]
        g, ginv, self._gamma, self._dgamma = (
            p if p is None else p.reshape(lead + p.shape[1:]) for p in pieces
        )
        if M._jet_of_g:  # otherwise g comes from metric_at
            self._g, self._ginv = g, ginv

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            if self.M._jet_of_g:
                self._fill()
            else:
                self._g = self.M.metric_at(self.x)
        return self._g

    @property
    def ginv(self) -> np.ndarray:
        if self._ginv is None:
            if self.M._jet_of_g:
                self._fill()
            else:
                self._ginv = np.linalg.inv(self.g)
        return self._ginv

    @property
    def phi(self) -> np.ndarray:
        if self._phi is None:
            self._phi = self.M.phi_at(self.x)
        return self._phi

    @property
    def gamma(self) -> np.ndarray:
        if self._gamma is None:
            if self.M.has_constant_christoffel:
                self._gamma = self.M.christoffel.at(self.x)
            else:
                self._fill()
        return self._gamma

    @property
    def dgamma(self) -> np.ndarray:
        if self._dgamma is None:
            if self.M.has_constant_christoffel:
                self._dgamma = np.zeros((self.M.dim,) * 4)
            else:
                self._fill()
        return self._dgamma

    @property
    def riemann_tensor(self) -> np.ndarray:
        """R^l_{kij}: the structure's constant tensor where one was given,
        otherwise derived from Gamma and dGamma."""
        if self._riemann is None:
            given = self.M.riemann
            self._riemann = self._curvature() if given is None else given
        return self._riemann

    def _curvature(self) -> np.ndarray:
        gam, dgam = self.gamma, self.dgamma
        d, lead = self.M.dim, gam.shape[:-3]
        # dgam[..., m, k, i, j] = d_m Gamma^k_ij; the transposes are
        # d_i Gamma^l_jk and d_j Gamma^l_ik, indexed [..., l, k, i, j]
        n = len(lead)
        axes = tuple(range(n))
        # gg[..., l, i, j, k] = Gamma^l_im Gamma^m_jk; its transposes are
        # that product and Gamma^l_jm Gamma^m_ik, indexed [..., l, k, i, j]
        gg = gam.reshape(lead + (d * d, d)) @ gam.reshape(lead + (d, d * d))
        gg = gg.reshape(lead + (d,) * 4)
        return (
            dgam.transpose(*axes, n + 1, n + 3, n, n + 2)
            - dgam.transpose(*axes, n + 1, n + 3, n + 2, n)
            + gg.transpose(*axes, n, n + 3, n + 1, n + 2)
            - gg.transpose(*axes, n, n + 3, n + 2, n + 1)
        )

    def riemann(self, X, Y, Z) -> np.ndarray:
        """R(X, Y)Z."""
        return _contract(_contract(_contract(self.riemann_tensor, Y, 4), X, 3), Z, 2)

    def along(self, xdot) -> np.ndarray:
        """A^l_i = Gamma^l_{ij} xdot^j, indexed [..., l, i].

        The one contraction of Gamma with a velocity: Gamma(v, xdot) = A v
        for every v along the curve.
        """
        return _contract(self.gamma, xdot, 3)

    def connection(self, u, v) -> np.ndarray:
        """Gamma(u, v)^l = Gamma^l_{ij} u^i v^j."""
        return _contract(self.along(v), u, 2)

    def _dconnection(self, v, xdot) -> np.ndarray:
        """dGamma(xdot; v, xdot)^l = d_m Gamma^l_ij xdot^m v^i xdot^j."""
        d, dgam = self.M.dim, self.dgamma
        lead = dgam.shape[:-4]
        # rate[..., l, i, j] = xdot^m d_m Gamma^l_ij, a Christoffel-shaped array
        rate = _contract(dgam.reshape(lead + (d, d**3)).swapaxes(-1, -2), xdot, 2)
        return _contract(_contract(rate.reshape(lead + (d,) * 3), xdot, 3), v, 2)

    def to_covariant(self, v, vdot, xdot) -> np.ndarray:
        """Covariant derivative v' of v along a curve with velocity xdot."""
        return vdot + self.connection(v, xdot)

    def to_coordinate(self, v, v_prime, xdot) -> np.ndarray:
        """Coordinate derivative vdot whose covariant derivative is v'."""
        return v_prime - self.connection(v, xdot)

    def covariant_rate(self, v, vdot, vddot, xdot, xddot) -> np.ndarray:
        """d(v')/dt, the time derivative of ``to_covariant(v, vdot, xdot)``."""
        if not self.M.has_constant_christoffel:
            vddot = vddot + self._dconnection(v, xdot)
        return vddot + self.connection(v, xddot) + self.connection(vdot, xdot)

    def coordinate_rate(self, v, vdot, rate, xdot, xddot) -> np.ndarray:
        """Coordinate second derivative vddot whose d(v')/dt is ``rate``."""
        if not self.M.has_constant_christoffel:
            rate = rate - self._dconnection(v, xdot)
        return rate - self.connection(v, xddot) - self.connection(vdot, xdot)


@dataclass(frozen=True)
class CurvatureOperator:
    """The synthetic constant-curvature rule R(X, Y)Z = c (g(Y, Z) X - g(X, Z) Y).

    It is not derived from any metric; it exercises curvature-power
    identities and, as a constant tensor, gives the ``const_curv``
    structures their curvature.
    """

    c: float = 0.0

    def apply(self, X, Y, Z, *, g_mat) -> np.ndarray:
        gY = g_mat @ np.asarray(Y, dtype=float)
        gX = g_mat @ np.asarray(X, dtype=float)
        return self.c * (float(gY @ Z) * np.asarray(X) - float(gX @ Z) * np.asarray(Y))

    def tensor(self, g_mat) -> np.ndarray:
        """R^l_{kij} = c (delta^l_i g_jk - delta^l_j g_ik), whose contraction
        with X^i Y^j Z^k is ``apply(X, Y, Z, g_mat=g_mat)``."""
        eye, g = np.eye(len(g_mat)), g_mat
        return self.c * (np.einsum("li,jk->lkij", eye, g) - np.einsum("lj,ik->lkij", eye, g))


def curvature_power(op: CurvatureOperator, power: int, X, Y, Z, *, g_mat):
    """Iterated curvature operator R^p(X, Y)Z = R^{p-1}(X, Y)(R(X, Y)Z)."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    out = np.asarray(Z, dtype=float)
    for _ in range(power):
        out = op.apply(X, Y, out, g_mat=g_mat)
    return out


def curvature_power_closed(op: CurvatureOperator, power: int, X, Y, Z, *, g_mat):
    """Closed form of R^p for a constant-curvature operator.

    With b^2 = |X|^2 |Y|^2 - g(X, Y)^2 the iterates collapse to
    (-b^2 c^2)^(k-1) R for p = 2k - 1 and (-b^2 c^2)^(k-1) R^2 for p = 2k.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    b_sq = float(X @ g_mat @ X) * float(Y @ g_mat @ Y) - float(X @ g_mat @ Y) ** 2
    scale = -(b_sq * op.c**2)
    base = op.apply(X, Y, Z, g_mat=g_mat)
    if power % 2 == 1:  # p = 2k - 1
        k = (power + 1) // 2
    else:  # p = 2k, one more application
        k = power // 2
        base = op.apply(X, Y, base, g_mat=g_mat)
    return scale ** (k - 1) * base


# -- sampled structure checks ----------------------------------------------


def json_number(value) -> float | None:
    """``value`` as a float for a JSON report, None (null) where it is not
    finite: strict JSON has no NaN or Infinity."""
    value = float(value)
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    max_residual: float
    tol: float
    n_points: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": json_number(self.max_residual),
            "tol": float(self.tol),
            "n_points": int(self.n_points),
            "details": {k: json_number(v) for k, v in self.details.items()},
        }


# each check is exact, so one tolerance per check serves every chart
CHECK_TOL = {"norden": 1e-8, "parallel_phi": 1e-8, "curvature_purity": 1e-6}


def sample_chart_points(M: MetricStructure, n: int, rng) -> np.ndarray:
    lo = M.chart_box[:, 0]
    hi = M.chart_box[:, 1]
    return lo + (hi - lo) * rng.random((n, M.dim))


def _check_points(M: MetricStructure, n_points: int, seed: int) -> np.ndarray:
    if n_points < 1:
        raise ValueError(f"a structure check needs n_points >= 1, got {n_points}")
    return sample_chart_points(M, n_points, np.random.default_rng(seed))


def check_norden(
    M: MetricStructure, *, n_points: int = 100, seed: int = 12345, tol: float = CHECK_TOL["norden"]
) -> CheckReport:
    """Check phi^2 = id and purity g(phi X, Y) = g(X, phi Y) at sampled points.

    The purity residual is max|g phi - (g phi)^T| relative to max|g phi|, so
    that g and c*g are judged alike.
    """
    pts = _check_points(M, n_points, seed)
    phi = M.phi_at(pts)
    twin = M.metric_at(pts) @ phi
    asym = np.max(np.abs(twin - twin.swapaxes(-1, -2)), axis=(-2, -1))
    purity = float(np.max(asym / np.max(np.abs(twin), axis=(-2, -1))))
    phi_sq = float(np.max(np.abs(phi @ phi - np.eye(M.dim))))
    residual = max(purity, phi_sq)
    return CheckReport(
        "norden",
        residual < tol,
        residual,
        tol,
        n_points,
        {"purity": purity, "phi_square": phi_sq},
    )


def check_parallel_phi(
    M: MetricStructure,
    *,
    n_points: int = 100,
    seed: int = 12345,
    tol: float = CHECK_TOL["parallel_phi"],
) -> CheckReport:
    """Check nabla phi = 0 for the Levi-Civita connection at sampled points.

    d phi and Gamma are exact: d phi from one 1-jet of phi's fields.
    """
    pts = _check_points(M, n_points, seed)
    jet = M.phi.jet(pts, 1)
    phi, dphi = jet[:, 0], jet[:, 1:]  # dphi[n, i, k, j] = d_i phi^k_j
    gam = M.christoffel_at(pts)
    # (nabla_i phi)^k_j = d_i phi^k_j + Gamma^k_il phi^l_j - Gamma^l_ij phi^k_l
    nabla = (
        dphi
        + np.einsum("...kil,...lj->...ikj", gam, phi)
        - np.einsum("...lij,...kl->...ikj", gam, phi)
    )
    worst = float(np.max(np.abs(nabla)))
    return CheckReport("parallel_phi", worst < tol, worst, tol, n_points)


def check_curvature_purity(
    M: MetricStructure,
    *,
    n_points: int = 20,
    seed: int = 12345,
    tol: float = CHECK_TOL["curvature_purity"],
) -> CheckReport:
    """Check g(R(phi X, Y)Z, W) = g(R(X, phi Y)Z, W) on basis tuples."""
    pts = _check_points(M, n_points, seed)
    phi = M.phi_at(pts)
    tensor = M.riemann_tensor_at(pts)
    left = np.einsum("...lkmj,...mi->...lkij", tensor, phi)
    right = np.einsum("...lkim,...mj->...lkij", tensor, phi)
    lowered = np.einsum("...hl,...lkij->...hkij", M.metric_at(pts), left - right)
    worst = float(np.max(np.abs(lowered)))
    return CheckReport("curvature_purity", worst < tol, worst, tol, n_points)
