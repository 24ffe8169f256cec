"""An independent oracle for the geodesics of the phi-Sasaki metric.

In induced coordinates (x, u) on TM, with A^k_i = Gamma^k_ij u^j and the
twin metric G = g phi, the phi-Sasaki metric is

    g^phiS = [[g + A^T G A, A^T G], [G A, G]].

Where Gamma is given as expressions, its entries are expressions in x and u,
so it is a 2n-dim chart of its own (``bundle.sasaki_metric``), whose
Christoffel symbols numpy forms here from the exact 1-jet of its metric.  A
curve (x(t), xi(t)) is a geodesic of g^phiS exactly when it solves
``geodesic_tm`` on the base: the compiled right-hand side's (xddot, xiddot)
must satisfy the 2n-dim chart's geodesic equation.  Nothing here goes
through the covariant formulas of the right-hand side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import catalog
from bundleflow.bundle import BundleSystem, make_rhs, sasaki_metric
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


def _christoffel(lifted, z) -> np.ndarray:
    """Gamma~^a_bc = 1/2 g~^ad (d_b g~_dc + d_c g~_db - d_d g~_bc) at z, from
    the exact 1-jet of g~ = ``lifted`` (its entries grow like |u|^2 while
    det g~ = det g det(g phi) does not, so the structure's relative
    singular-metric test is left out)."""
    jet = lifted.jet(np.asarray(z, dtype=float)[None], 1)[0]
    g, dg = jet[0], jet[1:]  # dg[l] = d_l g~
    lowered = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg  # [d, b, c]
    return 0.5 * np.linalg.solve(g, lowered.reshape(len(g), -1)).reshape(lowered.shape)


_CHARTS = {
    "exp2d": catalog.entry("exp2d").structure,
    "poly2d": catalog.entry("poly2d").structure,
    "h2xh2": _h2xh2(),
}
_LIFTED = {name: sasaki_metric(M) for name, M in _CHARTS.items()}
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


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(_CHARTS)),
    st.lists(_unit, min_size=4, max_size=4),
    st.lists(_component, min_size=20, max_size=20),
)
def test_sasaki_metric_pairs_lifts_with_g_and_verticals_with_the_twin(name, fractions, components):
    # with A = Gamma u: g~((X, -AX), (Y, -AY)) = g(X, Y), g~((X, -AX), (0, W)) = 0
    # and g~((0, V), (0, W)) = g(V, phi W), each to 1e-13 of the sum of the
    # bilinear form's terms in absolute value
    M, n = _CHARTS[name], _CHARTS[name].dim
    lo, hi = M.chart_box.T
    x = lo + (hi - lo) * np.array(fractions[:n])
    u, X, Y, V, W = (np.array(components[k * n : (k + 1) * n]) for k in range(5))
    lifted = _LIFTED[name].at(np.concatenate([x, u]))
    geo = M.at(x)
    a = geo.along(u)  # A^k_i = Gamma^k_ij u^j
    zero = np.zeros(n)
    cases = [
        ((X, -a @ X), (Y, -a @ Y), X @ geo.g @ Y),
        ((X, -a @ X), (zero, W), 0.0),
        ((zero, V), (zero, W), V @ geo.g @ geo.phi @ W),
    ]
    for left, right, want in cases:
        left, right = np.concatenate(left), np.concatenate(right)
        scale = np.abs(left) @ np.abs(lifted) @ np.abs(right)
        assert abs(left @ lifted @ right - want) <= 1e-13 * max(scale, 1e-300)
