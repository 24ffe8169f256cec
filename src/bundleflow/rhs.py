"""The integrator's right-hand side as one straight-line function of (t, y).

:func:`compile_rhs` writes, for one structure and one system, a Python
function of plain floats, from the state as a tuple to its derivative as a
tuple, with the emitter of :mod:`bundleflow.expressions` (one point).  It
reads the system as it stands: its F tensor, its coefficients rho(t) and
whether it lives on the phi-unit bundle.  The varying fields of g, phi, F
and rho(t) are inline, as values, with the 2-jet of g where Gamma comes
from g and the 1-jet of analytic Gamma (a constant field's 1-jet is its
value alone).
Everything that does not depend on the point (g, phi, Gamma, R, F) is
folded in as constants when the function is written, and a product with a
structurally zero factor is never written.

Without analytic Christoffel symbols, g is inverted block by block over the
connected blocks of its structural pattern, by cofactors: a diagonal g
entry by entry, and no elimination that would need a pivot (a neutral g
may have a zero diagonal).  Gamma and dGamma follow from the jet of g, each
entry summed over the nonzero entries of g^-1, of dg, of the Hessian of g
and of dg Gamma only, scattered from those entries rather than gathered
over every index tuple.  The curvature term R(xi', phi xi) xdot and the
term dGamma(xdot; xi, xdot) are sums of monomials in the entries of Gamma
and dGamma and the vectors' components, so the curvature tensor is not
built where Gamma varies.  Every sum is written with its like terms
merged, so terms that cancel as entries of R cancel when the program is
written, as they do exactly in the reference.  The one exception is a
component k whose dGamma^k sums would take more than ``_STAGE_TERMS``
terms (a dense varying g, where the monomials grow like dim^5): there
dGamma is taken only along xdot, xi' and phi xi, from the Hessian of g
contracted with the vectors, and R(X, Y)Z = (d_X Gamma)(Y, Z) -
(d_Y Gamma)(X, Z) + Gamma(X, Gamma(Y, Z)) - Gamma(Y, Gamma(X, Z)); its
terms of R then cancel only to rounding.

The function checks nothing itself.  Where a point guard of the emitter
fails, where the metric is singular or close to it, or where a jet is not
finite, a guard raises; that and any error the arithmetic raises end in the
function's one ``except``, which returns what its reference gives at that
point.  The reference is the stacked-sample formulas, which raise the
library's errors with their messages.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import SingularMetricError
from .expressions import _Source

__all__ = ["compile_rhs"]

# the singular-metric test of MetricStructure._checked_metric is
# |det g| <= 1e-12 max|g_ij|^dim; the program hands the point to the reference
# below twice that bound, since its determinant is summed in another order
_SINGULAR_MARGIN = 2e-12
# terms per emitted sum: longer sums are split, so that no expression nests deeply
_CHUNK = 32
# a component k of dGamma whose sums would take more terms than this is
# contracted in stages instead of written as merged monomials: those grow like
# dim^5 on a dense g, while below it merging keeps R's cancellation exact
_STAGE_TERMS = 256


def _value(name: str):
    """An emitter name as a value of the program: the literal 1.0 folded."""
    return 1.0 if name == "1.0" else name


class _Program:
    """The body of the right-hand side: sums of products of values, each a
    float folded when the program is written or the name of a temporary."""

    def __init__(self, dim: int):
        self.dim = dim
        self.src = _Source(2, rows=False)
        self.walked: dict = {}
        self.sums: dict = {}  # each sum is written once
        self.minors: dict = {}

    # -- emission ---------------------------------------------------------------

    def lit(self, c: float) -> str:
        if math.isfinite(c):
            return repr(c)
        name = f"k{len(self.src.names)}"
        self.src.names[name] = c
        return name

    def sum(self, terms):
        """The sum of products, each a tuple of values.  Constant factors
        are folded, like terms are merged (a product's factors in a fixed
        order), and a term whose constant factor is zero is left out."""
        const, merged = 0.0, {}
        for factors in terms:
            coef, names = 1.0, []
            for f in factors:
                if isinstance(f, str):
                    names.append(f)
                else:
                    coef *= f
            if coef == 0.0:
                continue
            if names:
                key = tuple(sorted(names))
                merged[key] = merged.get(key, 0.0) + coef
            else:
                const += coef
        parts = [(coef, list(key)) for key, coef in sorted(merged.items()) if coef != 0.0]
        if not parts:
            return const
        if const != 0.0:
            parts.append((const, []))
        while len(parts) > _CHUNK:
            parts = [(1.0, [self._let(parts[i : i + _CHUNK])])
                     for i in range(0, len(parts), _CHUNK)]
        return self._let(parts)

    def _let(self, parts) -> str:
        expr = self._render(parts)
        if expr not in self.sums:
            self.sums[expr] = self.src.let(expr)
        return self.sums[expr]

    def _render(self, parts) -> str:
        out = []
        for coef, names in parts:
            factors = ([] if abs(coef) == 1.0 and names else [self.lit(abs(coef))]) + names
            product = " * ".join(factors)
            if coef < 0.0:
                out.append(f"- {product}" if out else f"-{product}")
            else:
                out.append(f"+ {product}" if out else product)
        return " ".join(out)

    def finite(self, names) -> None:
        """Guard that every name is finite."""
        total = self.sum((n,) for n in names)
        if isinstance(total, str):
            self.src.guard(f"_isfinite({total})")

    # -- fields -----------------------------------------------------------------

    def walk(self, field, order: int, variables) -> tuple:
        """(value, gradient, Hessian) of a field, each written once: keyed by
        its source text, since each parse builds its own tree, and fields of
        equal text (such as g's symmetric off-diagonal entries) share one walk."""
        key = (field.source, order, variables)
        if key not in self.walked:
            self.walked[key] = self.src.walk_in(field.ast, order, variables)
        return self.walked[key]

    def values(self, fields, variables) -> list:
        return [f.const_value if f.const_value is not None
                else _value(self.walk(f, 0, variables)[0]) for f in fields]

    def jets(self, fields, order: int, variables) -> tuple:
        """Values, gradients {l: value} and Hessians {(m, l): value} of the
        fields, after a check that the varying ones are finite."""
        vals, grads, hessians, names = [], [], [], []
        for f in fields:
            if f.const_value is not None:
                vals.append(f.const_value)
                grads.append({})
                hessians.append({})
                continue
            value, grad, hess = self.walk(f, order, variables)
            grad, hess = grad or {}, hess or {}
            names += [value, *grad.values(), *hess.values()]
            vals.append(_value(value))
            grads.append({k: _value(e) for k, e in grad.items()})
            hessians.append({k: _value(e) for k, e in hess.items()})
        self.finite([n for n in names if n != "1.0"])
        return vals, grads, hessians

    def matrix(self, flat) -> list:
        d = self.dim
        return [flat[i * d : (i + 1) * d] for i in range(d)]

    # -- linear algebra ---------------------------------------------------------

    def matvec(self, m, v) -> list:
        return [self.sum((m[i][j], v[j]) for j in range(self.dim)) for i in range(self.dim)]

    def matmul(self, a, b) -> list:
        r = range(self.dim)
        return [[self.sum((a[i][k], b[k][j]) for k in r) for j in r] for i in r]

    def connection(self, gamma, u, w) -> list:
        """Gamma(u, w)^l = Gamma^l_ij u^i w^j."""
        r = range(self.dim)
        return [self.sum((gamma[l][i][j], u[i], w[j]) for i in r for j in r) for l in r]

    def inverse(self, g, blocks) -> list:
        """g^-1 by cofactors over each of the ``blocks`` of g's structural
        pattern, whose determinants :meth:`blocks` formed."""
        inv = [[0.0] * self.dim for _ in range(self.dim)]
        for block, det in blocks:
            scale = 1.0 / det if not isinstance(det, str) else self.src.let(f"1.0 / {det}")
            for r, row in enumerate(block):
                for c in range(r, len(block)):
                    rows = block[:c] + block[c + 1 :]
                    cols = block[:r] + block[r + 1 :]
                    sign = -1.0 if (r + c) % 2 else 1.0
                    inv[row][block[c]] = inv[block[c]][row] = self.sum(
                        [(sign, self.minor(g, rows, cols), scale)]
                    )
        return inv

    def blocks(self, g) -> list:
        """The connected blocks of g's structural pattern, each with its
        determinant."""
        d, seen, out = self.dim, set(), []
        for start in range(d):
            if start in seen:
                continue
            seen.add(start)
            stack, block = [start], []
            while stack:
                a = stack.pop()
                block.append(a)
                for b in range(d):
                    if b not in seen and g[a][b] != 0.0:
                        seen.add(b)
                        stack.append(b)
            block = tuple(sorted(block))
            out.append((block, self.minor(g, block, block)))
        return out

    def minor(self, g, rows: tuple, cols: tuple):
        """det g[rows, cols], expanded along its first row, memoized."""
        if not rows:
            return 1.0
        key = (rows, cols)
        if key not in self.minors:
            self.minors[key] = self.sum(
                (-1.0 if n % 2 else 1.0, g[rows[0]][c],
                 self.minor(g, rows[1:], cols[:n] + cols[n + 1 :]))
                for n, c in enumerate(cols)
                if g[rows[0]][c] != 0.0
            )
        return self.minors[key]


def _scatter(p: _Program, jets, places) -> list:
    """Terms by q and index, from the nonzero entries e = ``jets[a][b][key]``:
    the n-th (q, index, coefficient) of ``places(a, b, key)`` puts the term
    (n, coefficient, e) at out[q][index], n being its rank in a dense sum."""
    out = [{} for _ in range(p.dim)]
    for a, b in itertools.product(range(p.dim), repeat=2):
        for key, e in jets[a][b].items():
            for rank, (q, index, c) in enumerate(places(a, b, key)):
                out[q].setdefault(index, []).append((rank, c, e))
    return out


def _raise(p: _Program, ginv, rows, lowered, ks) -> dict:
    """{k: {index: g^kq T_q[index]}} for the k in ``ks``, from the terms
    ``lowered[q][index]`` of T_q: each sum over the q of ``rows[k]``
    (g^kq != 0) and only at an index where a term is, in the order of the
    dense sum over q and the terms' ranks; zero sums left out."""
    out = {}
    for k in ks:
        sums = ((index, p.sum((c, ginv[k][q], *rest) for q in rows[k]
                              for _, c, *rest in sorted(lowered[q].get(index, ()))))
                for index in sorted({index for q in rows[k] for index in lowered[q]}))
        out[k] = {index: e for index, e in sums if e != 0.0}
    return out


def _along(p: _Program, ginv, rows, grad, h, components, a, xdot, u, y) -> dict:
    """(d_u Gamma)(y, xdot)^k = g^kq (1/2 d_u S_qij y^i xdot^j - d_u g_qc Gamma(y, xdot)^c)
    for the ``components`` k, contracted in stages: the Hessian terms ``h``
    of g along u, y and xdot, then dg along u with Gamma(y, xdot) = A y,
    then g^-1."""
    r = range(p.dim)
    gy = p.matvec(a, y)
    w = {}
    for q in sorted({q for k in components for q in rows[k]}):
        du = [p.sum((e, u[m]) for m, e in grad[q][c].items()) for c in r]  # d_u g_qc
        w[q] = p.sum([(c, e, u[m], y[i], xdot[j]) for (i, j, m), terms in h[q].items()
                      for _, c, e in terms] + [(-1.0, du[c], gy[c]) for c in r])
    return {k: p.sum((ginv[k][q], w[q]) for q in rows[k]) for k in components}


def _curvature(p: _Program, gamma, dgamma, X, Y, Z, components) -> list:
    """R(X, Y)Z from Gamma and dGamma, one sum of monomials per component,

        (R(X, Y)Z)^l = X^i Y^j Z^k (d_i Gamma^l_jk - d_j Gamma^l_ik
                                    + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik),

    so that terms that cancel as entries of R cancel here, when written."""
    r = range(p.dim)
    nonzero = [[(i, m, gamma[l][i][m]) for i in r for m in r if gamma[l][i][m] != 0.0] for l in r]
    out = []
    for l in components:
        terms = []
        for a, b in itertools.product(r, r):
            terms += [(e, X[m], Y[a], Z[b]) for m, e in dgamma[l][a][b].items()]
            terms += [(-1.0, e, X[a], Y[m], Z[b]) for m, e in dgamma[l][a][b].items()]
        for i, m, e in nonzero[l]:
            terms += [(e, f, X[i], Y[j], Z[k]) for j, k, f in nonzero[m]]
            terms += [(-1.0, e, f, X[j], Y[i], Z[k]) for j, k, f in nonzero[m]]
        out.append(p.sum(terms))
    return out


def compile_rhs(M, system, reference):
    """The right-hand side ``rhs(t, y)`` of ``system`` (a
    :class:`~bundleflow.bundle.BundleSystem`) for the flattened state
    (x, xdot, xi, xidot) on ``M``, as one generated function: ``y`` is a
    tuple of 4 dim floats and the result a tuple of as many.

    The system's F tensor, its coefficients rho1(t), rho2(t) (none for
    (0, 1)) and whether it lives on the phi-unit bundle are read off it.
    ``reference(t, y)`` gives the same right-hand side, also as a tuple,
    from the stacked formulas; the function returns it wherever it cannot
    vouch for its own result (see the module docstring).  Where g is
    constant and fails its check, or its determinant folds to zero, the
    reference itself is the right-hand side.
    """
    d = M.dim
    r = range(d)
    x, v, s, w = ([f"{c}{i}" for i in r] for c in "xvsw")
    xs = tuple(x)
    p = _Program(d)
    emit = p.src.lines.append
    emit(f"{', '.join(x + v + s + w)}, = y")

    # g, symmetrized as MetricStructure._checked_metric does, and checked
    jet_of_g = M.christoffel is None and not M.g.is_constant
    if M.g.is_constant:
        try:
            g = M.metric_at(M.chart_box.mean(axis=1)).tolist()
        except SingularMetricError:
            return reference
    else:
        if jet_of_g:
            g_raw, g_grad, g_hess = p.jets(M.g.fields, 2, xs)
        else:
            g_raw = p.values(M.g.fields, xs)
        raw = p.matrix(g_raw)
        g = [[raw[i][j] if i == j or raw[i][j] == raw[j][i]
              else p.sum([(0.5, raw[i][j]), (0.5, raw[j][i])]) for j in r] for i in r]
    blocks = p.blocks(g)
    det = p.sum([tuple(b for _, b in blocks)])
    if not isinstance(det, str) and not (det != 0.0 and math.isfinite(det)):
        return reference
    if not M.g.is_constant:
        sizes = [f"_abs({e})" if isinstance(e, str) else p.lit(abs(e))
                 for e in dict.fromkeys(e for row in g for e in row if e != 0.0)]
        largest = sizes[0] if len(sizes) == 1 else f"_max({', '.join(sizes)})"
        size = f"_abs({det})" if isinstance(det, str) else p.lit(abs(det))
        p.src.guard(f"{size} > {p.lit(_SINGULAR_MARGIN)} * {largest} ** {d}")

    phi = p.matrix(p.values(M.phi.fields, xs))
    force = system.f_tensor
    ginv = None
    if jet_of_g or (force is not None and force.form is not None):
        ginv = p.inverse(g, blocks)

    # Gamma, and dGamma as {m: d_m Gamma^k_ij} (empty where Gamma is
    # constant), for the components k that are not staged
    dgamma, merged, staged, along = None, list(r), [], None
    if M.christoffel is not None:
        vals, grads, _ = p.jets(M.christoffel.fields, 1, xs)
        gamma = [p.matrix(vals[k * d * d : (k + 1) * d * d]) for k in r]
        dgamma = [p.matrix(grads[k * d * d : (k + 1) * d * d]) for k in r]
    elif not jet_of_g:
        gamma = [[[0.0] * d for _ in r] for _ in r]
    else:
        grad, hess = p.matrix(g_grad), p.matrix(g_hess)
        rows = [[q for q in r if ginv[k][q] != 0.0] for k in r]
        # Gamma^k_ij = 1/2 g^kq S_qij with S_qij = d_i g_qj + d_j g_qi - d_q g_ij
        lowered = _scatter(p, grad, lambda a, b, l: (
            (a, (l, b), 0.5), (a, (b, l), 0.5), (l, (a, b), -0.5)))
        sums = _raise(p, ginv, rows, lowered, r)
        gamma = [[[sums[k].get((i, j), 0.0) for j in r] for i in r] for k in r]
        # d_m Gamma^k_ij = g^kq (1/2 d_m S_qij - d_m g_qc Gamma^c_ij): merged
        # monomials for a component k whose sums take at most _STAGE_TERMS
        # terms, in stages along three vectors for the others
        hessian = _scatter(p, hess, lambda a, b, ml: (
            (a, (ml[1], b, ml[0]), 0.5), (a, (b, ml[1], ml[0]), 0.5), (ml[1], (a, b, ml[0]), -0.5)))
        nonzero = [[(i, j, f) for i in r for j in r if (f := gamma[c][i][j]) != 0.0] for c in r]
        size = [sum(map(len, hessian[q].values())) + sum(len(grad[q][c]) * len(nonzero[c])
                                                          for c in r) for q in r]
        staged = [k for k in r if sum(size[q] for q in rows[k]) > _STAGE_TERMS]
        merged = [k for k in r if k not in staged]
        lowered = [{index: list(terms) for index, terms in hessian[q].items()} for q in r]
        for q in {q for k in merged for q in rows[k]}:
            for c in r:
                for (m, e), (i, j, f) in itertools.product(grad[q][c].items(), nonzero[c]):
                    lowered[q].setdefault((i, j, m), []).append((3 + c, -1.0, e, f))
        sums = _raise(p, ginv, rows, lowered, merged)
        along = functools.partial(_along, p, ginv, rows, grad, hessian, staged)
        dgamma = [None] * d
        for k in merged:
            dgamma[k] = [[{} for _ in r] for _ in r]
            for (i, j, m), e in sums[k].items():
                dgamma[k][i][j][m] = e

    # F and the coefficients
    f_mat, rho_vals = None, (0.0, 1.0)
    if force is not None:
        if force.is_phi:
            f_mat = phi
        elif force.form is not None:
            omega = p.matrix(p.values(force.form.fields, xs))
            f_mat = [[p.sum((force.strength, ginv[i][k], omega[k][j]) for k in r) for j in r]
                     for i in r]
        else:
            f_mat = p.matrix(p.values(force.matrix.fields, xs))
    if system.coefficients is not None:
        rho = (system.coefficients.rho1, system.coefficients.rho2)
        if any(f.const_value is None for f in rho):
            emit("t = _f(t)")
        rho_vals = tuple(p.values(rho, ("t",)))

    # A = Gamma xdot and xi' = xidot + A xi
    a = [[p.sum((gamma[l][i][j], v[j]) for j in r) for i in r] for l in r]
    xi_prime = [p.sum([(w[l],)] + [(a[l][i], s[i]) for i in r]) for l in r]

    # R(xi', phi xi) xdot
    riemann = M.riemann
    if riemann is None and M.has_constant_christoffel:
        riemann = M.at(np.zeros(d)).riemann_tensor
    if riemann is not None and not np.any(riemann):
        accel = [0.0] * d
    elif riemann is not None:
        eta = p.matvec(phi, s)
        paired = [[p.sum((float(riemann[l, k, i, j]), xi_prime[i], eta[j]) for i in r for j in r)
                   for k in r] for l in r]
        accel = [p.sum((paired[l][k], v[k]) for k in r) for l in r]
    elif dgamma is None:
        accel = [0.0] * d
    else:
        eta = p.matvec(phi, s)
        accel = _curvature(p, gamma, dgamma, xi_prime, eta, v, merged)
        if staged:
            # R(X, Y)Z = (d_X Gamma)(Y, Z) - (d_Y Gamma)(X, Z)
            #            + Gamma(X, Gamma(Y, Z)) - Gamma(Y, Gamma(X, Z))
            gy, gx = p.matvec(a, eta), p.matvec(a, xi_prime)  # Gamma(., xdot) = A .
            dx, dy = along(a, v, xi_prime, eta), along(a, v, eta, xi_prime)
            for l in staged:
                accel.insert(l, p.sum(
                    [(dx[l],), (-1.0, dy[l])]
                    + [(gamma[l][i][j], xi_prime[i], gy[j]) for i in r for j in r]
                    + [(-1.0, gamma[l][i][j], eta[i], gx[j]) for i in r for j in r]))

    # the system's covariant targets
    fiber = [0.0] * d
    if f_mat is not None:
        rho1, rho2 = rho_vals
        fv, fx = p.matvec(f_mat, v), p.matvec(f_mat, xi_prime)
        accel = [p.sum([(accel[l],), (rho1, v[l]), (rho2, fv[l])]) for l in r]
        fiber = [p.sum([(rho1, xi_prime[l]), (rho2, fx[l])]) for l in r]
    if system.on_unit_bundle:
        gphi = p.matmul(g, phi)
        q = p.sum((xi_prime[i], gphi[i][j], xi_prime[j]) for i in r for j in r)
        fiber = [p.sum([(fiber[l],), (-1.0, q, s[l])]) for l in r]

    # to coordinates: xddot, then d(xi')/dt and xiddot
    xddot = [p.sum([(accel[l],)] + [(-1.0, a[l][i], v[i]) for i in r]) for l in r]
    rate = [[(fiber[l],)] + [(-1.0, a[l][i], xi_prime[i]) for i in r] for l in r]
    if dgamma is not None:  # dGamma(xdot; xi, xdot)
        for l in merged:
            rate[l] += [(-1.0, e, v[m], s[i], v[j]) for i in r for j in r
                        for m, e in dgamma[l][i][j].items()]
        if staged:
            turn = along(a, v, v, s)
            for l in staged:
                rate[l].append((-1.0, turn[l]))
    rate = [p.sum(terms) for terms in rate]
    turn = p.connection(gamma, s, xddot)
    xiddot = [p.sum([(rate[l],), (-1.0, turn[l])] + [(-1.0, a[l][i], w[i]) for i in r])
              for l in r]

    out = [e if isinstance(e, str) else p.lit(e) for e in v + xddot + w + xiddot]
    emit(f"return ({', '.join(out)},)")
    body = ["try:", *("    " + line for line in p.src.lines),
            "except _errors:", "    pass", "return _reference(t, y)"]
    p.src.names.update(_abs=abs, _max=max, _isfinite=math.isfinite,
                       _errors=(ArithmeticError, ValueError), _reference=reference)
    return p.src.define("_rhs", "t, y", body)
