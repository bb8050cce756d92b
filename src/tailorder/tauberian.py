"""Laplace transform of a growing function and order preservation.

For continuous U vanishing at the origin the transform is evaluated in its
integrated form s * integral_0^inf exp(-x s) U(x) dx (no differentiation of
U needed). Composing with the inversion s -> 1/s maps the small-s regime to
the large-x regime, where the transform of an order-alpha function is again
of order alpha; the check classifies the composed transform numerically.

The converse direction needs a concavity hypothesis on x**(-eta) U(x) that
point samples cannot certify; it is probed and reported as a diagnostic
only, never asserted.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ParamError, PreconditionError, QuadratureFailure, _real
from .handles import FunctionHandle
from .labels import ClassLabel
from .order import DEFAULT_CLASS_TOL, ConditionReport, GridSpec, _class_gate, classify
from .quadrature import adaptive_log_quad, dyadic_edges


ORIGIN_PROBE_X = 1e-300
ORIGIN_TOL_LOG = math.log(1e-9)


def _check_vanishes_at_origin(U: FunctionHandle) -> None:
    try:
        v = float(U.log_at(ORIGIN_PROBE_X))
    except Exception as exc:
        raise PreconditionError(f"{U.name}: cannot probe the origin: {exc}") from exc
    if not v <= ORIGIN_TOL_LOG:
        raise PreconditionError(
            f"{U.name}: U(0+) = exp({v:.3g}) does not vanish at the origin"
        )


def regularize_origin(U: FunctionHandle, rho: float) -> FunctionHandle:
    """Replace U below x = 1 by U(1) * x**rho so U(0+) = 0 (0 < rho < inf).

    Leaves the asymptotics untouched; makes bounded-near-origin members
    eligible for the transform hypotheses.
    """
    rho = _real(rho, "rho", 0.0)
    log_u1 = float(U.log_at(1.0))

    def log_at_logx(u):
        return np.where(u >= 0.0, U.log_at_logx(np.maximum(u, 0.0)), log_u1 + rho * u)

    return FunctionHandle(
        name=f"origin_reg({U.name})", log_at_logx=log_at_logx, truth=U.truth,
        differentiable=U.differentiable,
    )


# peak scan of the transform integrand: the powers of two 2**-20 ... 2**11
_PEAK_SCAN_Y = np.ldexp(1.0, np.arange(-20, 12))
# the integrand is cut this many nats below its peak
_CUTOFF_NATS = 40.0
# starting edges graded toward y = 0, where a power y**alpha has its cusp
_GRADED_Y = (8.0 ** -1, 8.0 ** -2, 8.0 ** -3, 8.0 ** -4)


def _log_integrand(U: FunctionHandle, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """-y + log U(y/s) at the y of each row, one row per s."""
    return -y + U.log_at(y / s[:, None])


def _check_x_finite(y: float, s: np.ndarray, why: str) -> None:
    """QuadratureFailure naming the smallest s when y/s leaves the float range."""
    s_min = s.min()
    with np.errstate(over="ignore"):
        if y / s_min < math.inf:
            return
    raise QuadratureFailure(
        f"transform integrand at s = {s_min:g} {why} where y/s leaves the float range")


def _upper_limits(U: FunctionHandle, s: np.ndarray) -> np.ndarray:
    """Per s, the first scan point beyond the peak where the integrand has
    fallen _CUTOFF_NATS below it.

    The scan stops at the last power of two whose y/s is finite for every s.
    A row still within the cutoff there keeps doubling y until it falls that
    far below its running maximum. QuadratureFailure, naming s, when y/s
    leaves the float range before that fall.
    """
    ys = _PEAK_SCAN_Y
    _check_x_finite(ys[0], s, f"is scanned for its peak from y = {ys[0]:g},")
    with np.errstate(over="ignore"):
        ys = ys[ys / s.min() < math.inf]
    lg = _log_integrand(U, ys, s)
    peak = lg.max(axis=1)
    if not np.isfinite(peak).all():
        raise QuadratureFailure("transform integrand has no finite peak")
    within = lg >= peak[:, None] - _CUTOFF_NATS
    last = ys.size - 1 - np.argmax(within[:, ::-1], axis=1)
    y_hi = ys[np.minimum(last + 1, ys.size - 1)]
    rows, y = np.nonzero(within[:, -1])[0], ys[-1]
    while rows.size:
        y *= 2.0
        _check_x_finite(y, s[rows], f"is still within {_CUTOFF_NATS:g} nats of its peak")
        g = _log_integrand(U, np.array([y]), s[rows])[:, 0]
        peak[rows] = np.maximum(peak[rows], g)
        y_hi[rows] = y
        rows = rows[g >= peak[rows] - _CUTOFF_NATS]
    return y_hi


def _log_transform(U: FunctionHandle, s: np.ndarray) -> np.ndarray:
    """log of s * integral_0^inf exp(-x s) U(x) dx for every s > 0 at once.

    Computed as integral_0^inf exp(-y) U(y/s) dy in one call of
    ``quadrature.adaptive_log_quad``, the one Gauss-Kronrod entry point.
    The peak of each integrand is found on a scan at the powers of two
    2**-20 ... 2**11 (32 points; the peak of an order-alpha U sits near
    y = alpha), and its upper limit y_hi is the first scan point beyond the
    peak where the integrand has fallen _CUTOFF_NATS below it, found by
    doubling past 2**11 where needed (``_upper_limits``). The initial panels
    are the dyadic ones of ``quadrature.dyadic_edges`` on [0, y_hi] with an
    edge at y = s (x = 1, where a regularized U changes rule) and edges
    graded toward y = 0 at 1/8, 1/64, 1/512 and 1/4096.

    In y the cusp of U(y/s) = (y/s)**alpha sits at y = 0 for every s.
    Halving a panel [0, b] reaches it one panel per round (14 rounds at
    alpha = 0.3 from [s, 1]); one Kronrod rule resolves it on a panel
    [a, 8a], and below 8**-4 lies at most about 2e-5 of the mass when
    alpha >= 0.3. Ratio 8 is the balance at that depth: a 128-point batch
    of ramp_power(2.6) starts from 1,536 panels and converges in one round;
    ratio 4 takes 1,792 panels and ratio 2 2,560, while ratio 16 (1,408
    panels) leaves an alpha < 1 transform a third round.
    """
    s = s.ravel()
    edges = dyadic_edges(_upper_limits(U, s), s, *_GRADED_Y)

    def log_f(y, ids):
        return _log_integrand(U, y, s[ids])

    out = adaptive_log_quad(log_f, edges[:, :-1], edges[:, 1:])
    if np.any(out == -np.inf):
        raise QuadratureFailure("transform quadrature returned a non-positive value")
    return out


def laplace_stieltjes(U: FunctionHandle, s: float) -> float:
    """s * integral_0^inf exp(-x s) U(x) dx for 0 < s < inf.

    A ParamError when the transform is not a positive finite float.
    """
    s = _real(s, "s", 0.0)
    _check_vanishes_at_origin(U)
    log_value = float(_log_transform(U, np.array([s]))[0])
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.exp(log_value))
    if not 0.0 < value < math.inf:
        raise ParamError(f"transform at s = {s:g} is exp({log_value:.6g}), "
                         "beyond the float range")
    return value


def transform_handle(U: FunctionHandle) -> FunctionHandle:
    """Handle for s -> transform(1/s), large s probing small s; U(0+) = 0 is checked once."""
    _check_vanishes_at_origin(U)

    def log_at_x(x):
        return _log_transform(U, 1.0 / x).reshape(x.shape)

    return FunctionHandle(
        name=f"transform_inv({U.name})",
        log_at_x=log_at_x,
    )


def _concavity_probe(U: FunctionHandle, alpha: float) -> dict:
    """Sign of the second difference of x**(-eta) U(x) for eta below alpha."""
    etas = (0.0, 0.25 * alpha, 0.5 * alpha, 0.75 * alpha)
    xs = np.logspace(0.5, 4.0, 200)
    dx = np.diff(xs)
    # one row per eta, each rescaled by its maximum so it cannot overflow; a
    # positive factor leaves the sign test against 1e-9 * max|g| as it was
    log_g = U.log_at(xs) - np.array(etas)[:, None] * np.log(xs)
    g = np.exp(log_g - log_g.max(axis=1, keepdims=True))
    second = np.diff(np.diff(g) / dx) / dx[:-1]
    concave = np.all(second <= 1e-9 * np.abs(g).max(axis=1, keepdims=True), axis=1)
    return {f"eta={eta:g}": "concave" if c else "not-concave" for eta, c in zip(etas, concave)}


# classification grid for the composed transform; smooth, so fewer points do
_TRANSFORM_POINTS = 600


def tauberian_check(U: FunctionHandle, grid: GridSpec = GridSpec(),
                    tol: float = DEFAULT_CLASS_TOL, *,
                    label: ClassLabel | None = None) -> ConditionReport:
    """Order preservation through the transform, for positive orders.

    Classifies s -> transform(1/s) on the s-as-x grid and passes when the
    label matches the input order within tol. The converse's concavity
    hypothesis is reported as a diagnostic, not asserted. ``label``
    (``classify(U, grid, tol)``) skips the input's classification when given.
    """
    label, tol = _class_gate(U, grid, tol, label)
    if label.rho <= tol:
        raise PreconditionError(
            f"{U.name}: transform check requires a positive order, got {label.rho:.3g}"
        )
    work = U
    try:
        H = transform_handle(work)
    except PreconditionError:
        work = regularize_origin(U, label.rho)
        H = transform_handle(work)
    sub = dataclasses.replace(grid, points=min(grid.points, _TRANSFORM_POINTS))
    h_label = classify(H, sub, tol)
    ok = h_label.is_m and abs(h_label.rho - label.rho) <= tol
    return ConditionReport(
        condition="TAUBERIAN",
        passed=bool(ok),
        measured={
            "input_order": label.rho,
            "transform_label": h_label.to_dict(),
            "residual": abs(h_label.rho - label.rho) if h_label.is_m else math.inf,
            "regularized": work is not U,
            "concavity": _concavity_probe(work, label.rho),
        },
        tolerance=tol,
    )
