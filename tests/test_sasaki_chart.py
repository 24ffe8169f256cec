"""An independent oracle for the geodesics of the phi-Sasaki metric.

In induced coordinates (x, u) on TM, with A^k_i = Gamma^k_ij u^j and the
twin metric G = g phi, the phi-Sasaki metric is

    g^phiS = [[g + A^T G A, A^T G], [G A, G]].

Where Gamma is given as expressions, its entries are expressions in x and u,
so it is a 2n-dim chart of its own, whose Christoffel symbols numpy forms
here from the exact 1-jet of its metric.  A curve (x(t), xi(t)) is a
geodesic of g^phiS exactly when it solves ``geodesic_tm`` on the base: the
compiled right-hand side's (xddot, xiddot) must satisfy the 2n-dim chart's
geodesic equation.  Nothing here goes through the covariant formulas of the
right-hand side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import catalog
from bundleflow.bundle import BundleSystem, make_rhs
from bundleflow.geometry import MetricStructure


def _h2xh2():
    # H^2 x H^2 with its analytic Gamma: Gamma^1_22 = -e^{2 x1},
    # Gamma^2_12 = Gamma^2_21 = 1, the same on (x3, x4); curved, K = -1 on each factor
    gamma = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    for a, b in ((0, 1), (2, 3)):
        gamma[a][b][b] = f"-exp(2*x{a + 1})"
        gamma[b][a][b] = gamma[b][b][a] = "1"
    return MetricStructure(
        4,
        [["1", 0, 0, 0], [0, "exp(2*x1)", 0, 0], [0, 0, "1", 0], [0, 0, 0, "exp(2*x3)"]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        christoffel=gamma,
        chart_box=[(-1.0, 1.0)] * 4,
    )


def _total(terms):
    """The source of a sum of sources, None for the empty sum."""
    terms = [t for t in terms if t is not None]
    return f"({' + '.join(terms)})" if terms else None


def _product(*factors):
    return None if any(f is None for f in factors) else "*".join(factors)


def sasaki_chart(M: MetricStructure) -> MetricStructure:
    """g^phiS of the tangent bundle of ``M`` (analytic Gamma) as a chart in
    (x1..xn, u1..un) = (x1..x2n)."""
    n = M.dim
    r = range(n)

    def source(tensor, flat):
        f = tensor.fields[flat]
        return None if f.const_value == 0.0 else f"({f.source})"

    g = [[source(M.g, i * n + j) for j in r] for i in r]
    phi = [[source(M.phi, i * n + j) for j in r] for i in r]
    u = [f"x{n + j + 1}" for j in r]
    a = [[_total(_product(source(M.christoffel, (k * n + i) * n + j), u[j]) for j in r)
          for i in r] for k in r]
    twin = [[_total(_product(g[i][m], phi[m][j]) for m in r) for j in r] for i in r]
    ga = [[_total(_product(twin[k][m], a[m][j]) for m in r) for j in r] for k in r]  # G A
    top = [[_total([g[i][j]] + [_product(a[k][i], ga[k][j]) for k in r]) for j in r] for i in r]
    rows = ([top[i] + [ga[j][i] for j in r] for i in r]  # A^T G = (G A)^T
            + [ga[i] + twin[i] for i in r])
    spec = [[e or "0" for e in row] for row in rows]
    identity = [[1 if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    return MetricStructure(2 * n, spec, identity)


def _christoffel(S: MetricStructure, z) -> np.ndarray:
    """Gamma~^a_bc = 1/2 g~^ad (d_b g~_dc + d_c g~_db - d_d g~_bc) at z, from
    the exact 1-jet of g~ (its entries grow like |u|^2 while det g~ = det g
    det(g phi) does not, so the structure's relative singular-metric test is
    left out)."""
    jet = S.g.jet(np.asarray(z, dtype=float)[None], 1)[0]
    g, dg = jet[0], jet[1:]  # dg[l] = d_l g~
    lowered = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg  # [d, b, c]
    return 0.5 * np.linalg.solve(g, lowered.reshape(len(g), -1)).reshape(lowered.shape)


_CHARTS = {
    "exp2d": catalog.entry("exp2d").structure,
    "poly2d": catalog.entry("poly2d").structure,
    "h2xh2": _h2xh2(),
}
_LIFTED = {name: sasaki_chart(M) for name, M in _CHARTS.items()}
_unit = st.floats(0.05, 0.95)
_component = st.floats(-2.0, 2.0)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(_CHARTS)),
    st.lists(_unit, min_size=4, max_size=4),
    st.lists(_component, min_size=12, max_size=12),
)
def test_geodesic_tm_is_a_geodesic_of_the_sasaki_chart(name, fractions, components):
    # z = (x, xi) solves zddot^a + Gamma~^a_bc zdot^b zdot^c = 0 on the 2n-dim
    # chart, to 1e-13 of the largest term
    M, S = _CHARTS[name], _LIFTED[name]
    n = M.dim
    lo, hi = M.chart_box.T
    x = lo + (hi - lo) * np.array(fractions[:n])
    xdot, xi, xidot = (np.array(components[k * n : (k + 1) * n]) for k in range(3))
    y = np.concatenate([x, xdot, xi, xidot])
    out = np.array(make_rhs(M, BundleSystem("geodesic_tm"))(0.0, tuple(y.tolist())))
    zdot = np.concatenate([xdot, xidot])
    zddot = np.concatenate([out[n : 2 * n], out[3 * n :]])
    gamma = _christoffel(S, np.concatenate([x, xi]))
    residual = zddot + (gamma * np.multiply.outer(zdot, zdot)).sum(axis=(1, 2))
    # each term is at most max|Gamma~| |zdot|^2: a Gamma~ entry that is 0 in
    # exact arithmetic may come out of the jets as a rounding error
    scale = max(float(np.max(np.abs(zddot))), float(np.max(np.abs(gamma))) * float(zdot @ zdot))
    assert float(np.max(np.abs(residual))) <= 1e-13 * scale
