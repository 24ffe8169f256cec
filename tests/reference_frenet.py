"""Frenet curvatures one sample at a time: the reference for the array code.

This is the modified Gram-Schmidt of :func:`bundleflow.frenet.frenet_curvatures`
written as a plain loop over samples, with one reorthogonalization pass and
the frame truncated at the first remainder norm below the tolerance.  The
arithmetic of each sample is the same as in the array code: each pairing is
the library's one-sample ``bilinear``, which gives a sample the bits of its
row in a stack.  So the tests require equal results, NaN for NaN, and the
same error with the same text.
"""

import numpy as np

from bundleflow.errors import SignatureError, VerticalCurveError
from bundleflow.frenet import TRUNCATION_TOL, CovariantJets, FrenetResult
from bundleflow.geometry import MetricStructure, bilinear


def frenet_curvatures(M: MetricStructure, jets: CovariantJets) -> FrenetResult:
    """Gram-Schmidt frame and curvatures from covariant jets, sample by sample."""
    if jets.order < 2:
        raise ValueError("need jets to order >= 2 for curvatures")
    tol = TRUNCATION_TOL
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
                    w = w - float(bilinear(w, g, e)) * e
            sq = float(bilinear(w, g, w))
            if sq < -(tol**2):
                raise SignatureError(
                    "metric is not positive definite on the jet span "
                    f"(g(w, w) = {sq:g} at sample {i})"
                )
            r = float(np.sqrt(max(sq, 0.0)))
            rdiag.append(r)
            if r < tol:
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
    )
