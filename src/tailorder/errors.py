"""Exception hierarchy for tailorder, and the checks of the numbers it takes."""

import contextlib
import math
import numbers


class TailOrderError(Exception):
    """Base class for all tailorder errors."""


class DomainError(TailOrderError):
    """Evaluation requested outside a handle's domain."""


class UnresolvedValue(TailOrderError):
    """A rule returned NaN at an admissible x: log U cannot be resolved there."""


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


def _whole(value, what: str, lo: int, hi: float = math.inf) -> int:
    """A count as a Python int: an integer, not a bool, with lo <= value <= hi.

    Anything else, a float with a whole value included, is a ParamError that
    names ``what`` and the value.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    bounds = f"{what} >= {lo}" if hi == math.inf else f"{lo} <= {what} <= {hi}"
    raise ParamError(f"{what} {value!r} is out of range: counts are whole numbers, here {bounds}")


def _real(value, what: str, lo: float = -math.inf, hi: float = math.inf, *,
          closed: bool = False) -> float:
    """A real parameter as a Python float: a finite number, not a bool, with
    lo < value < hi (lo <= value <= hi when ``closed``). Anything else, NaN and
    a string included, is a ParamError that names ``what`` and the value.
    """
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            x = float(value)
    if math.isfinite(x) and (lo <= x <= hi if closed else lo < x < hi):
        return x
    op = "<=" if closed else "<"
    bounds = (f"a finite {what}" if lo == -math.inf and hi == math.inf
              else f"{lo:g} {op} {what} {op if hi < math.inf else '<'} {hi:g}")
    raise ParamError(f"{what} {value!r} is out of range: real parameters are numbers, "
                     f"here {bounds}")
