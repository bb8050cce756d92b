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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassMismatch, ParamError, PreconditionError, QuadratureFailure
from .handles import FunctionHandle
from .labels import ClassLabel
from .order import DEFAULT_CLASS_TOL, ConditionReport, GridSpec, classify
from .quadrature import batched_log_quad


@dataclass(frozen=True)
class TransformConfig:
    """s-grid and quadrature policy for the transform."""

    log10_s_hi: float = -1.0
    log10_s_lo: float = -8.0
    s_points: int = 200
    quad_rel_tol: float = 1e-8
    cutoff_nats: float = 40.0

    def __post_init__(self) -> None:
        if not self.log10_s_lo < self.log10_s_hi:
            raise ParamError("transform grid requires s_lo < s_hi")
        if self.s_points < 2 or self.quad_rel_tol <= 0 or self.cutoff_nats <= 0:
            raise ParamError("bad transform configuration")

    def s_grid(self) -> np.ndarray:
        # strictly decreasing toward 0+
        return np.logspace(self.log10_s_hi, self.log10_s_lo, self.s_points)


ORIGIN_PROBE_X = 1e-300
ORIGIN_TOL_LOG = math.log(1e-9)


def _check_vanishes_at_origin(U: FunctionHandle) -> None:
    if U.support_floor > 0.0:
        raise PreconditionError(f"{U.name}: not defined near the origin")
    try:
        v = float(U.log_at(ORIGIN_PROBE_X))
    except Exception as exc:
        raise PreconditionError(f"{U.name}: cannot probe the origin: {exc}") from exc
    if not v <= ORIGIN_TOL_LOG:
        raise PreconditionError(
            f"{U.name}: U(0+) = exp({v:.3g}) does not vanish at the origin"
        )


def regularize_origin(U: FunctionHandle, rho: float) -> FunctionHandle:
    """Replace U below x = 1 by U(1) * x**rho so U(0+) = 0 (rho > 0).

    Leaves the asymptotics untouched; makes bounded-near-origin members
    eligible for the transform hypotheses.
    """
    if rho <= 0:
        raise ParamError("origin regularization requires a positive order")
    log_u1 = float(U.log_at(1.0))

    def log_at_logx(u):
        ua = np.asarray(u, dtype=float)
        return np.where(ua >= 0.0, U.log_at_logx(np.maximum(ua, 0.0)),
                        log_u1 + rho * ua)

    truth = U.truth if U.truth is not None else None
    return FunctionHandle(
        name=f"origin_reg({U.name})", log_at_logx=log_at_logx, truth=truth,
        differentiable=U.differentiable,
    )


# coarse y-scan that locates the peak of the transform integrand
_PEAK_SCAN_Y = np.logspace(-6, 3.2, 120)


def _log_transform(U: FunctionHandle, s: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """log of s * integral_0^inf exp(-x s) U(x) dx for every s > 0 at once.

    Computed as integral_0^inf exp(-y) U(y/s) dy in one batched quadrature.
    Each upper limit is cut where the integrand has fallen cutoff_nats below
    its peak on a coarse scan; the initial panels are [0, s, 1, y_hi].
    """
    s = np.asarray(s, dtype=float).ravel()
    ys = _PEAK_SCAN_Y
    x = ys / s[:, None]
    with np.errstate(all="ignore"):
        lg = -ys + np.asarray(U.log_at(x.ravel()), dtype=float).reshape(x.shape)
    lg = np.where(np.isnan(lg), -np.inf, lg)
    peak = lg.max(axis=1)
    if not np.isfinite(peak).all():
        raise QuadratureFailure("transform integrand has no finite peak")
    y_hi = np.where(lg >= peak[:, None] - cfg.cutoff_nats, ys, -np.inf).max(axis=1)
    # extend linearly: beyond the peak the decay is at least e^{-y}
    y_hi = np.maximum(y_hi + cfg.cutoff_nats, 2.0 * cfg.cutoff_nats)
    edges = np.column_stack([np.zeros_like(s), np.minimum(s, 1.0), np.maximum(s, 1.0), y_hi])
    edges = np.minimum(edges, y_hi[:, None])
    a, b = edges[:, :-1], edges[:, 1:]
    owner = np.broadcast_to(np.arange(s.size)[:, None], a.shape)
    keep = b > a

    def log_f(y, ids):
        x = y / s[ids][:, None]
        return -y + np.asarray(U.log_at(x.ravel()), dtype=float).reshape(y.shape)

    out = batched_log_quad(log_f, a[keep], b[keep], owner[keep], s.size, cfg.quad_rel_tol)
    if np.any(out == -np.inf):
        raise QuadratureFailure("transform quadrature returned a non-positive value")
    return out


def laplace_stieltjes(U: FunctionHandle, s: float,
                      cfg: TransformConfig | None = None) -> float:
    """s * integral_0^inf exp(-x s) U(x) dx for s > 0."""
    cfg = cfg or TransformConfig()
    if s <= 0:
        raise ParamError("transform requires s > 0")
    _check_vanishes_at_origin(U)
    return float(np.exp(_log_transform(U, np.array([s]), cfg)[0]))


def transform_handle(U: FunctionHandle, cfg: TransformConfig | None = None) -> FunctionHandle:
    """Handle for s -> transform(1/s): large s probes the small-s regime."""
    cfg = cfg or TransformConfig()

    def log_at_x(x):
        _check_vanishes_at_origin(U)
        xa = np.asarray(x, dtype=float)
        out = _log_transform(U, 1.0 / xa, cfg).reshape(xa.shape)
        return out if out.ndim else np.float64(out)

    return FunctionHandle(
        name=f"transform_inv({U.name})",
        log_at_logx=lambda u: log_at_x(np.exp(np.asarray(u, dtype=float))),
        log_at_x=log_at_x,
    )


def _concavity_probe(U: FunctionHandle, alpha: float) -> dict:
    """Sign of the second difference of x**(-eta) U(x) for eta below alpha."""
    out = {}
    xs = np.logspace(0.5, 4.0, 200)
    for eta in (0.0, 0.25 * alpha, 0.5 * alpha, 0.75 * alpha):
        g = np.exp(np.asarray(U.log_at(xs), dtype=float) - eta * np.log(xs))
        second = np.diff(np.diff(g) / np.diff(xs)) / np.diff(xs[:-1])
        out[f"eta={eta:g}"] = "concave" if np.all(second <= 1e-9 * np.abs(g).max()) else "not-concave"
    return out


# classification grid for the composed transform; smooth, so fewer points do
_TRANSFORM_POINTS = 600


def tauberian_check(U: FunctionHandle, cfg: TransformConfig | None = None,
                    grid: GridSpec | None = None,
                    tol: float = DEFAULT_CLASS_TOL, *,
                    label: ClassLabel | None = None) -> ConditionReport:
    """Order preservation through the transform, for positive orders.

    Classifies s -> transform(1/s) on the s-as-x grid and passes when the
    label matches the input order within tol. The converse's concavity
    hypothesis is reported as a diagnostic, not asserted. ``label``
    (``classify(U, grid, tol)``) skips the input's classification when given.
    """
    cfg = cfg or TransformConfig()
    grid = grid or GridSpec()
    label = label or classify(U, grid, tol)
    if not label.is_m:
        raise ClassMismatch(f"{U.name}: classified {label}, finite order required")
    if label.rho <= tol:
        raise PreconditionError(
            f"{U.name}: transform check requires a positive order, got {label.rho:.3g}"
        )
    work = U
    try:
        _check_vanishes_at_origin(work)
    except PreconditionError:
        work = regularize_origin(U, label.rho)
        _check_vanishes_at_origin(work)
    H = transform_handle(work, cfg)
    sub = GridSpec(log10_x_min=grid.log10_x_min, log10_x_max=grid.log10_x_max,
                   points=min(grid.points, _TRANSFORM_POINTS), windows=grid.windows)
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
