"""Exception types shared across the package."""

from __future__ import annotations


class BundleFlowError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(BundleFlowError):
    """Raised when an expression string cannot be parsed.

    The byte offset of the offending token is kept in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvalDomainError(BundleFlowError):
    """Raised when an expression is evaluated outside its domain."""


class SingularMetricError(BundleFlowError):
    """Raised when the metric matrix is (numerically) singular at a point."""


class ConstraintError(BundleFlowError):
    """Raised for states that violate the phi-unit bundle constraints."""


class ParameterError(BundleFlowError):
    """Raised when closed-form family parameters violate their constraints."""


class SignatureError(BundleFlowError):
    """Raised when Frenet analysis meets an indefinite restriction of the metric."""


class VerticalCurveError(BundleFlowError):
    """Raised when a projected curve is (numerically) stationary."""


class IntegrationBlowUp(BundleFlowError):
    """Raised for any failure inside an integration run.

    The failure is a non-finite state, or a :class:`SingularMetricError` or
    :class:`EvalDomainError` raised by a step or by the geometry at the final
    sample, which is then chained as ``__cause__``.  Carries the partial
    trajectory up to the last good sample, whose time is
    ``trajectory.times[-1]``.
    """

    def __init__(self, message: str, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class UnknownEntryError(BundleFlowError):
    """Raised for unknown catalog or verification-suite names."""


class ScenarioError(BundleFlowError):
    """Raised for malformed scenario configuration."""
