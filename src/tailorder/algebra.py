"""Closure operations on handles with predicted order arithmetic.

Each operation returns a new handle evaluating the combined function in log
space, carrying the label predicted by the closure rules. A rule reads each
operand's limit: the order its two orders (mu, nu) agree on, +-inf for the
rapid classes, NaN when they disagree (Oscillating, Undecided). It does
arithmetic on these, and ``ClassLabel.from_orders`` labels the result, so a
limit beyond +-ORDER_BOUND is a rapid class and a NaN is Undecided:

* scale/add:  the limit of aU + V is the larger limit, when both are
  finite or both equal (a finite limit beside a rapid one stays Undecided);
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
from .quadrature import batched_log_quad, dyadic_edges


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


def _derived(name: str, log_at_logx, label: ClassLabel, *operands: FunctionHandle,
             log_at_x=None) -> FunctionHandle:
    differentiable = all(h.differentiable for h in operands)
    return FunctionHandle(name=name, log_at_logx=log_at_logx, truth=KnownTruth(label),
                          log_at_x=log_at_x, differentiable=differentiable)


# ---------------------------------------------------------------------------
# handle constructors
# ---------------------------------------------------------------------------


def scale_add(a: float, U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for a*U + V via log-sum-exp; a = 0 degenerates to V."""
    a = _real(a, "a", 0.0, closed=True)
    if a == 0.0:
        return _derived(f"0*{U.name}+{V.name}", V.log_at_logx, _label_of(V), V)
    p, q = _limits(U, V)
    # both limits finite, or both the same rapid class
    label = _of_limit(max(p, q) if p == q or (math.isfinite(p) and math.isfinite(q)) else math.nan)
    log_a = math.log(a)

    def log_at_logx(u):
        with np.errstate(invalid="ignore"):  # a NaN operand gives NaN: the composite refuses it
            return np.logaddexp(log_a + U.log_at_logx(u), V.log_at_logx(u))

    return _derived(f"{a:g}*{U.name}+{V.name}", log_at_logx, label, U, V)


def reciprocal(U: FunctionHandle) -> FunctionHandle:
    mu, nu = _label_of(U).orders
    label = ClassLabel.from_orders(-nu, -mu)
    return _derived(f"1/({U.name})", lambda u: -U.log_at_logx(u), label, U)


def product(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    p, q = _limits(U, V)
    label = _of_limit(p + q)

    def log_at_logx(u):
        with np.errstate(invalid="ignore"):  # inf * 0 gives NaN: the composite refuses it
            return U.log_at_logx(u) + V.log_at_logx(u)

    return _derived(f"({U.name})*({V.name})", log_at_logx, label, U, V)


def compose(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for U(V(x)); prediction requires the inner function to diverge."""
    p, q = _limits(U, V)
    label = _of_limit(p * q if q > 0.0 else math.nan)

    def log_at_logx(u):
        inner = V.log_at_u(u)  # checked: a step outer rule maps NaN to a level
        if np.any(inner == -math.inf):
            raise DomainError(f"compose: inner value 0 lies outside the domain of {U.name}")
        # U's rule reads these log values raw, past the float range of exp too,
        # refuses those beyond its domain (a table's rows) and gives NaN where
        # it cannot resolve them, which the entry points refuse
        with np.errstate(all="ignore"):
            return U.log_at_logx(inner)

    return _derived(f"({U.name})o({V.name})", log_at_logx, label, U, V)


def convolve(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for the convolution integral_0^x U(t) V(x-t) dt.

    Folded at x/2 it is integral_0^(x/2) [U(s) V(x-s) + U(x-s) V(s)] ds, so
    every node has s > 0 and x - s >= x/2. One batched adaptive log-space
    quadrature integrates all x together, each from ``dyadic_edges(x/2)``, as
    power-law mass piles up at every scale near s = 0. The operands are read
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
        return batched_log_quad(log_f, edges[:, :-1], edges[:, 1:]).reshape(x.shape)

    return _derived(name, None, label, log_at_x=log_at_x)
