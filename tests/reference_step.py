"""The RK4 step as numpy array arithmetic: the reference for the float step
of :mod:`bundleflow.integrate`.

This is the step on the state as an array, with the right-hand side
returning an array.  The integrator's generated step function, one per
state length, calls the right-hand side as often and does the same float
operations in the same order on tuples, so the tests require equal results,
NaN for NaN, and the same error with the same text, for one step and for
whole runs.

Forward Euler is kept here only as the order-1 negative control of
:func:`bundleflow.integrate.convergence_order`; the library has no Euler
step.
"""

import numpy as np


def array_rhs(rhs):
    """The tuple right-hand side of :func:`bundleflow.bundle.make_rhs` as a
    function of an array state, returning an array."""
    return lambda t, y: np.array(rhs(t, tuple(y.tolist())))


def rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def euler_step(rhs, t, y, h):
    return y + h * rhs(t, y)
