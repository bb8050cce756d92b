"""Closure operations on handles with predicted order arithmetic.

Each operation returns a new handle evaluating the combined function in log
space, carrying the label predicted by the closure rules:

* scale/add:  order of aU + V is max(rho_U, rho_V); rapid-decay and
  rapid-growth classes are closed under addition;
* product:    orders add; an infinite class absorbs a finite partner;
* convolution: order rho_V when the lighter factor is integrable
  (rho_U <= rho_V < -1, or rho_U < -1 <= 0 <= rho_V), order
  rho_U + rho_V + 1 when both exceed -1; the -1 boundaries stay undecided;
* composition: orders multiply when the inner function diverges.

Whenever the hypotheses of a rule fail, the prediction is Undecided rather
than a guess. The constructors are the one entry to these rules: the
predicted class of an operation is ``.truth.label`` of the handle it builds,
which reads only its operands' labels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _real
from .handles import FunctionHandle, KnownTruth
from .labels import (
    TAG_M,
    TAG_M_INF,
    TAG_M_NEG_INF,
    TAG_OSC,
    ClassLabel,
)
from .quadrature import batched_log_quad, dyadic_edges


# ---------------------------------------------------------------------------
# label arithmetic
# ---------------------------------------------------------------------------


def _scale_add_label(a: float, lu: ClassLabel, lv: ClassLabel) -> ClassLabel:
    if a == 0.0:
        return lv
    if lu.is_m and lv.is_m:
        return ClassLabel.m(max(lu.rho, lv.rho))
    if lu.tag == lv.tag and lu.tag in (TAG_M_INF, TAG_M_NEG_INF):
        return ClassLabel(lu.tag)
    return ClassLabel.undecided()


def _reciprocal_label(l: ClassLabel) -> ClassLabel:
    if l.is_m:
        return ClassLabel.m(-l.rho)
    if l.tag == TAG_M_INF:
        return ClassLabel.m_neg_inf()
    if l.tag == TAG_M_NEG_INF:
        return ClassLabel.m_inf()
    if l.tag == TAG_OSC:
        return ClassLabel.oscillating(-l.nu, -l.mu)
    return ClassLabel.undecided()


def _product_label(lu: ClassLabel, lv: ClassLabel) -> ClassLabel:
    tags = {lu.tag, lv.tag}
    if lu.is_m and lv.is_m:
        return ClassLabel.m(lu.rho + lv.rho)
    if tags == {TAG_M_INF}:
        return ClassLabel.m_inf()
    if tags == {TAG_M_NEG_INF}:
        return ClassLabel.m_neg_inf()
    if tags == {TAG_M_INF, TAG_M}:
        return ClassLabel.m_inf()
    if tags == {TAG_M_NEG_INF, TAG_M}:
        return ClassLabel.m_neg_inf()
    return ClassLabel.undecided()


def _convolve_label(lu: ClassLabel, lv: ClassLabel) -> ClassLabel:
    if lu.is_m and lv.is_m:
        lo, hi = sorted((lu.rho, lv.rho))
        if hi < -1.0:
            return ClassLabel.m(hi)
        if lo < -1.0 and hi >= 0.0:
            return ClassLabel.m(hi)
        if lo > -1.0:
            return ClassLabel.m(lo + hi + 1.0)
        # lo == -1 exactly, or lo < -1 with -1 <= hi < 0: no closure rule
        return ClassLabel.undecided()
    pair = {lu.tag, lv.tag}
    if pair == {TAG_M_INF}:
        return ClassLabel.m_inf()
    if TAG_M_NEG_INF in pair and pair <= {TAG_M_NEG_INF, TAG_M, TAG_M_INF}:
        return ClassLabel.m_neg_inf()
    if pair == {TAG_M_INF, TAG_M}:
        rho = lu.rho if lu.is_m else lv.rho
        if rho >= 0.0 or rho < -1.0:
            return ClassLabel.m(rho)
    return ClassLabel.undecided()


def _inner_diverges(lv: ClassLabel) -> bool:
    return (lv.is_m and lv.rho > 0.0) or lv.tag == TAG_M_NEG_INF


def _compose_label(lu: ClassLabel, lv: ClassLabel) -> ClassLabel:
    if lu.is_m and lv.is_m and lv.rho > 0.0:
        return ClassLabel.m(lu.rho * lv.rho)
    if lu.tag in (TAG_M_INF, TAG_M_NEG_INF) and _inner_diverges(lv):
        return ClassLabel(lu.tag)
    return ClassLabel.undecided()


def _label_of(h: FunctionHandle) -> ClassLabel:
    if h.truth is not None:
        return h.truth.label
    return ClassLabel.undecided()


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
    label = _scale_add_label(a, _label_of(U), _label_of(V))
    if a == 0.0:
        return _derived(f"0*{U.name}+{V.name}", V.log_at_logx, label, V)
    log_a = math.log(a)

    def log_at_logx(u):
        with np.errstate(invalid="ignore"):  # a NaN operand gives NaN: the composite refuses it
            return np.logaddexp(log_a + U.log_at_logx(u), V.log_at_logx(u))

    return _derived(f"{a:g}*{U.name}+{V.name}", log_at_logx, label, U, V)


def reciprocal(U: FunctionHandle) -> FunctionHandle:
    label = _reciprocal_label(_label_of(U))
    return _derived(f"1/({U.name})", lambda u: -U.log_at_logx(u), label, U)


def product(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    label = _product_label(_label_of(U), _label_of(V))

    def log_at_logx(u):
        with np.errstate(invalid="ignore"):  # inf * 0 gives NaN: the composite refuses it
            return U.log_at_logx(u) + V.log_at_logx(u)

    return _derived(f"({U.name})*({V.name})", log_at_logx, label, U, V)


def compose(U: FunctionHandle, V: FunctionHandle) -> FunctionHandle:
    """Handle for U(V(x)); prediction requires the inner function to diverge."""
    label = _compose_label(_label_of(U), _label_of(V))

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
    label = _convolve_label(_label_of(U), _label_of(V))
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
