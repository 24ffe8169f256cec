"""Test charts that several test modules use, each written once.

Each function that returns a structure builds a new one, so that nothing
compiled for one test (the right-hand sides kept on a structure) is shared
with another that builds its own.
"""

from bundleflow.geometry import MetricStructure


def derived_twin(M: MetricStructure) -> MetricStructure:
    """M without its analytic Christoffel symbols: Gamma and dGamma then
    come from jets of g."""
    return MetricStructure(M.dim, M.g, M.phi, chart_box=M.chart_box)


def h2xh2() -> MetricStructure:
    """H^2 x H^2 in horocyclic coordinates, with its analytic Gamma:
    Gamma^1_22 = -e^{2 x1}, Gamma^2_12 = Gamma^2_21 = 1, the same on
    (x3, x4).  A Riemannian product, so phi is parallel, and curved, with
    K = -1 on each factor.  Unlike the catalog's charts, g_22 depends on x1,
    not on x2, so the -d_l g_ij term of Gamma is not zero: a transposed
    index there shows."""
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


def curved() -> MetricStructure:
    """A non-flat conformal chart whose Gamma comes from jets of g (phi
    plays no role): the catalog's charts with a varying Gamma are flat,
    with R = 0 exactly."""
    return MetricStructure(
        2,
        [["exp(2*x1^2)", "0"], ["0", "exp(2*x1^2)"]],
        [["1", "0"], ["0", "-1"]],
        chart_box=[(-0.8, 0.8), (-0.8, 0.8)],
    )


def deep_g11(terms: int) -> str:
    """g11 = 1 + 1e-4 x1 (k mod 7) summed over k: a sum of ``terms`` terms,
    as many levels deep, and positive on the default chart."""
    return " + ".join(["1"] + [f"0.0001*x1*{k % 7}" for k in range(terms - 1)])
