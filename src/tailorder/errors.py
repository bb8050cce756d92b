"""Exception hierarchy for tailorder."""


class TailOrderError(Exception):
    """Base class for all tailorder errors."""


class DomainError(TailOrderError):
    """Evaluation requested outside a handle's domain."""


class ParamError(TailOrderError):
    """Invalid construction or call parameters."""


class UnknownName(ParamError):
    """Requested catalog function does not exist."""


class FormatError(TailOrderError):
    """Malformed tabulated data or CSV input."""


class PositivityViolation(FormatError):
    """A linear-kind table value is not strictly positive."""


class QuadratureFailure(TailOrderError):
    """Adaptive quadrature did not reach tolerance within budget."""


class ExtrapolationFailure(TailOrderError):
    """A window-limit extrapolation fit could not be solved."""


class ClassMismatch(TailOrderError):
    """Operation preconditions require a different growth class."""


class DivergentTail(TailOrderError):
    """A tail integral required to be finite diverges."""


class UndecidedConvergence(TailOrderError):
    """Convergence probe undecided at a bracket boundary."""


class SingularDenominator(TailOrderError):
    """Representation denominator vanishes on the whole requested range."""


class PreconditionError(TailOrderError):
    """A documented numeric precondition does not hold."""


class NonDifferentiable(TailOrderError):
    """Derivative-based probe applied to a non-differentiable tail."""


class QuantileError(TailOrderError):
    """Quantile evaluation failed or was called with bad arguments."""
