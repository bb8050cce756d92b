"""Closure operations on handles with predicted order arithmetic.

Each operation returns a new handle evaluating the combined function in log
space, carrying the label predicted by the closure rules. A closure reads
its operands in the coordinate it is read in: at x through their x rules,
at u = log x through their u rules, never at x = exp(log x). A rule reads each
operand's limit: the order its two orders (mu, nu) agree on, +-inf for the
rapid classes, NaN when they disagree (Oscillating, Undecided). It does
arithmetic on these, and ``ClassLabel.from_orders`` labels the result, so a
limit beyond +-ORDER_BOUND is a rapid class and a NaN is Undecided:

* scale/add:  the limit of aU + V (a > 0) is the larger limit, NaN if either is;
* reciprocal: (mu, nu) -> (-nu, -mu), for any label;
* product:    limits add (inf - inf is NaN);
* convolution: with limits lo <= hi, hi = +inf gives +inf; the heavier
  limit hi when the lighter factor is integrable (hi < -1, or lo < -1 <=
  0 <= hi); lo + hi + 1 when both exceed -1; the -1 boundaries stay NaN;
* composition: limits multiply when the inner limit is > 0 (0 * inf is NaN).

The constructors are the one entry to these rules: the predicted class of
an operation is ``.truth.label`` of the handle it builds, which reads only
its operands' labels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _real
from .handles import FunctionHandle, KnownTruth
from .labels import ClassLabel
from .quadrature import adaptive_log_quad, dyadic_edges


# ---------------------------------------------------------------------------
# label arithmetic
# ---------------------------------------------------------------------------


def _label_of(h: FunctionHandle) -> ClassLabel:
    return h.truth.label if h.truth is not None else ClassLabel.undecided()


def _limits(*operands: FunctionHandle) -> list[float]:
    """Each operand's limit: the order both its orders agree on, NaN without one."""
    orders = [_label_of(h).orders for h in operands]
    return [mu if mu == nu else math.nan for mu, nu in orders]


def _of_limit(v: float) -> ClassLabel:
    return ClassLabel.from_orders(v, v)


def _convolve_limit(p: float, q: float) -> float:
    lo, hi = sorted((p, q))
    if math.isnan(lo) or math.isnan(hi):
        return math.nan
    if hi == math.inf or hi < -1.0 or (lo < -1.0 and hi >= 0.0):
        return hi
    # lo == -1 exactly, or lo < -1 with -1 <= hi < 0: no closure rule
    return lo + hi + 1.0 if lo > -1.0 else math.nan


def _derived(name: str, combine, label: ClassLabel, *operands: FunctionHandle) -> FunctionHandle:
    """combine(*operand log values), whose x rule reads the operands' raw x rules
    at x and whose u rule reads their u rules at u: never x = exp(log x)."""

    def rule(read):  # inf - inf or a NaN operand gives NaN: the composite refuses it
        return np.errstate(invalid="ignore")(lambda v: combine(*(read(h)(v) for h in operands)))

    return FunctionHandle(name=name, log_at_logx=rule(lambda h: h.log_at_logx),
                          log_at_x=rule(lambda h: h._x_rule), truth=KnownTruth(label),
                          differentiable=all(h.differentiable for h in operands))


# ---------------------------------------------------------------------------
# handle constructors
# ---------------------------------------------------------------------------


def scale_add(a: float, U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for a*U + V via log-sum-exp; a = 0 degenerates to V."""
    a = _real(a, "a", 0.0, closed=True)
    if a == 0.0:
        return _derived(f"0*{U.name}+{V.name}", np.positive, _label_of(V), V)
    log_a = math.log(a)
    return _derived(f"{a:g}*{U.name}+{V.name}", lambda p, q: np.logaddexp(log_a + p, q),
                    _of_limit(float(np.maximum(*_limits(U, V)))), U, V)


def reciprocal(U: FunctionHandle) -> FunctionHandle:
    mu, nu = _label_of(U).orders
    return _derived(f"1/({U.name})", np.negative, ClassLabel.from_orders(-nu, -mu), U)


def product(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    p, q = _limits(U, V)
    return _derived(f"({U.name})*({V.name})", np.add, _of_limit(p + q), U, V)


def compose(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for U(V(x)), U's u rule at log V; prediction requires V to diverge."""
    p, q = _limits(U, V)

    def outer(inner):  # inner read checked: a step outer rule maps NaN to a level
        if np.any(inner == -math.inf):
            raise DomainError(f"compose: inner value 0 lies outside the domain of {U.name}")
        # U's rule reads these log values raw, past the float range of exp too,
        # refuses those beyond its domain (a table's rows) and gives NaN where
        # it cannot resolve them, which the entry points refuse
        with np.errstate(all="ignore"):
            return U.log_at_logx(inner)

    return FunctionHandle(name=f"({U.name})o({V.name})",
                          log_at_logx=lambda u: outer(V.log_at_u(u)),
                          log_at_x=lambda x: outer(V.log_at(x)),
                          truth=KnownTruth(_of_limit(p * q if q > 0.0 else math.nan)),
                          differentiable=U.differentiable and V.differentiable)


def convolve(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for the convolution integral_0^x U(t) V(x-t) dt.

    Folded at x/2 it is integral_0^(x/2) [U(s) V(x-s) + U(x-s) V(s)] ds, so
    every node has s > 0 and x - s >= x/2. One call of
    ``quadrature.adaptive_log_quad``, the one Gauss-Kronrod entry point,
    integrates all x together, each from ``dyadic_edges(x/2)``, as power-law
    mass piles up at every scale near s = 0. The operands are read
    checked, so a NaN names them. A subnormal x is refused: it loses digits.
    """
    label = _of_limit(_convolve_limit(*_limits(U, V)))
    name = f"({U.name})conv({V.name})"

    def log_at_x(x):
        xs = x.ravel()
        if xs.size and xs.min() < np.finfo(float).tiny:
            raise DomainError(f"{name}: x = {xs.min():g} is below the normal floats")

        def log_f(s, ids):
            r = xs[ids][:, None] - s
            return np.logaddexp(U.log_at(s) + V.log_at(r), U.log_at(r) + V.log_at(s))

        edges = dyadic_edges(xs / 2.0)
        return adaptive_log_quad(log_f, edges[:, :-1], edges[:, 1:]).reshape(x.shape)

    return FunctionHandle(name=name, log_at_x=log_at_x, truth=KnownTruth(label))
