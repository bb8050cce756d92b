"""Representation extraction and integral-ratio theorem checks.

A finite-order function admits the representation
``U(x) = exp(alpha(x) + eps(x) * integral_b^x beta(t)/t dt)`` with
``alpha/log x -> 0``, ``eps -> 1`` and ``beta -> rho``; the module extracts
the triple constructively (``beta = log U / log x``, ``eps`` the matching
quotient, ``alpha = 0``), switching to the ``V(x) = x U(x)`` construction
when the order vanishes. Rapid-decay and rapid-growth members instead get a
single exponent function ``alpha`` with ``alpha/log x -> inf``.

The cumulative integrals ``V_r(x) = integral_b^x t^r U dt`` and
``W_r(x) = integral_x^inf t^r U dt`` drive the generalized integral-ratio
checks (branches selected by the sign of rho + r) and the named balance
conditions C1r/C2r. Both sum one grid's cells from b to x_max: the cells
lie on the edges k log 2 / 512 in u = log x, whatever b is, after a partial
first cell from b, so the dyadic steps of an integrand fall on edges. W_r
adds the tail mass beyond, the same cells an octave at a time until one adds
under 1e-13 of it, the first ``_SUSTAIN + 1`` deciding convergence
(``order.decay_verdict``). The ratio checks and the representation's limits
read one sub-grid, from max(4 b, 10): ``_clipped_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (DivergentTail, ParamError, QuadratureFailure, SingularDenominator,
                     _real, _whole)
from .handles import LOG2, FunctionHandle
from .labels import ORDER_BOUND, TAG_M_INF, ClassLabel
from .order import (
    DEFAULT_CLASS_TOL,
    ConditionReport,
    GridSpec,
    IndexEstimate,
    _SUSTAIN,
    _class_gate,
    decay_verdict,
    rv_ratio_test,
    windowed_limit,
)
from .quadrature import cell_log_masses, logsumexp, moment_log_f

# |rho| below this uses the vanishing-order representation construction
KAPPA_ZERO_EPS = 0.02

_DENOM_FLOOR = 1e-6

_CELLS_PER_OCTAVE = 512


# ---------------------------------------------------------------------------
# cumulative integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulativeIntegral:
    """Log-space cumulative integral of t**r * U(t), forward or tail kind."""

    kind: str  # "V" (from b) or "W" (to infinity)
    r: float
    b: float
    edges_u: np.ndarray
    log_values: np.ndarray  # at edges b..x_max, W's with the tail mass; monotone
    source: FunctionHandle

    def log_value(self, x) -> np.ndarray:
        """log integral at arbitrary x inside the grid, exact cell splits.

        The partial cells of all x (edge to x for V, x to edge for W) take
        one call of the cell rule, as (n, 2) rows of edges.
        """
        u = np.atleast_1d(np.log(np.asarray(x, dtype=float)))
        edges = self.edges_u
        if not np.all((u >= edges[0] - 1e-12) & (u <= edges[-1] + 1e-12)):
            raise ParamError(f"{self.kind}_r query outside integration range")
        u = np.clip(u, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, edges.size - 2)
        if self.kind == "V":
            base, lo, hi = self.log_values[idx], edges[idx], u
        else:
            base, lo, hi = self.log_values[idx + 1], u, edges[idx + 1]
        part = np.full(u.shape, -math.inf)
        nonempty = hi > lo
        rows = np.array([lo[nonempty], hi[nonempty]]).T
        part[nonempty] = cell_log_masses(moment_log_f(self.source, self.r + 1.0), rows)[:, 0]
        out = np.logaddexp(base, part)
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def cumulative_integral(U: FunctionHandle, kind: str, r: float, b: float,
                        grid: GridSpec = GridSpec()) -> CumulativeIntegral:
    """Build V_r (kind="V") or W_r (kind="W") on an octave-aligned log grid.

    W_r is the grid's cells plus the tail mass beyond x_max (module docstring):
    DivergentTail unless its first octaves decay, QuadratureFailure if an
    octave still adds 1e-13 of it where x leaves the float range.
    """
    if kind not in ("V", "W"):
        raise ParamError("kind must be 'V' or 'W'")
    r, b = _real(r, "r"), _real(b, "b", 0.0)
    u_b = math.log(b)
    u_max = grid.log10_x_max * math.log(10.0)
    if u_max <= u_b:
        raise ParamError("integration range is empty")
    h = LOG2 / _CELLS_PER_OCTAVE
    log_f = moment_log_f(U, r + 1.0)
    # b, then the edges k h above it up to the first at or past u_max
    k_last = math.ceil(u_max / h)
    grid_u = np.arange(math.floor(u_b / h), k_last + 1) * h
    edges = np.append(u_b, grid_u[grid_u > u_b])
    cells = cell_log_masses(log_f, edges)
    if kind == "V":
        return CumulativeIntegral("V", r, b, edges,
                                  np.logaddexp.accumulate(np.append(-math.inf, cells)), U)
    # tail kind: the mass beyond x_max, summed one octave of cells at a time;
    # octave k has the edges (k_last + k cells + 0..cells) h
    n_octaves = int((math.log(np.finfo(float).max) - edges[-1]) // LOG2)
    steps = k_last + np.arange(_CELLS_PER_OCTAVE + 1.0)
    masses, tail = [], -math.inf
    for k in range(n_octaves):
        masses.append(logsumexp(cell_log_masses(log_f, (steps + k * _CELLS_PER_OCTAVE) * h)))
        tail = np.logaddexp(tail, masses[-1])
        if k == _SUSTAIN and not (verdict := decay_verdict(masses)).is_convergent:
            raise DivergentTail(f"tail integral of t**{r:g} * {U.name} does not converge "
                                f"({verdict.tag})")
        if k >= _SUSTAIN and masses[-1] <= tail + math.log(1e-13):
            break
    else:
        raise QuadratureFailure(f"tail integral of t**{r:g} * {U.name}: an octave still "
                                "adds 1e-13 of it where x leaves the float range, at x = "
                                f"{math.exp(edges[-1] + n_octaves * LOG2):.4g}")
    vals = np.logaddexp.accumulate(np.append(cells, tail)[::-1])[::-1]
    return CumulativeIntegral("W", r, b, edges, vals, U)


# ---------------------------------------------------------------------------
# generalized integral-ratio checks
# ---------------------------------------------------------------------------


def _clipped_grid(grid: GridSpec, b: float) -> GridSpec:
    lo = max(grid.log10_x_min, math.log10(max(4.0 * b, 10.0)))
    if lo >= grid.log10_x_max - 0.5:
        raise ParamError("grid too short beyond the base point b")
    return replace(grid, log10_x_min=lo)


def _ratio_checks(U: FunctionHandle, ci: CumulativeIntegral, r: float, grid: GridSpec,
                  tol: float) -> tuple[IndexEstimate, ConditionReport]:
    """Windowed limit of log(ci)/log x, and the balance condition
    log(ci)/log x - log U/log x -> r, from one reading of ci and of U.

    ``ci`` is V_{r-1} (condition C1r) or W_{r-1} (condition C2r) from its
    base point. Both are read less r, as orders within +-ORDER_BOUND whatever
    r is (their limits are rho and 0), and r is added back.
    """
    sub = _clipped_grid(grid, ci.b)
    xs = sub.xs()
    log_x = np.log(xs)
    log_ci = np.asarray(ci.log_value(xs), dtype=float)
    limit = windowed_limit(xs, log_ci / log_x - r, sub)
    est = windowed_limit(xs, (log_ci - U.log_at(xs)) / log_x - r, sub)
    limit, est = replace(limit, value=limit.value + r), replace(est, value=est.value + r)
    resid = abs(est.value - r) if math.isfinite(est.value) else math.inf
    cond = ConditionReport(
        condition="C1r" if ci.kind == "V" else "C2r",
        passed=bool(resid <= tol),
        measured={"limit": est.value, "target": r, "residual": resid,
                  "spread": est.spread, "trend": est.trend.value},
        tolerance=tol,
    )
    return limit, cond


def karamata_theorem_report(U: FunctionHandle, r: float, b: float,
                            grid: GridSpec = GridSpec(),
                            tol: float = DEFAULT_CLASS_TOL, *,
                            label: ClassLabel | None = None,
                            rv: ConditionReport | None = None) -> ConditionReport:
    """Run the integral-ratio branch matching the sign of rho + r.

    Branch K1* (rho + r > 0) and K3* (rho + r = 0) check the growth of the
    integral from b plus condition C1r; K2* (rho + r < 0) checks the tail
    integral plus C2r. Both checks read one cumulative integral. On the
    boundary branch the scaling-ratio test result is attached: the limit
    holding does not make U ratio-regular. ``label`` (``classify(U, grid,
    tol)``) and ``rv`` (``rv_ratio_test(U, grid=grid, tol=tol)``) skip their
    computation when given.
    """
    r, b = _real(r, "r"), _real(b, "b", 0.0)
    label, tol = _class_gate(U, grid, tol, label)
    s = label.rho + r
    measured: dict = {"rho": label.rho, "r": r, "target": s}
    if s < -tol:
        branch, kind = "K2*", "W"
    else:
        branch, kind = ("K1*" if s > tol else "K3*"), "V"
    limit, cond = _ratio_checks(U, cumulative_integral(U, kind, r - 1.0, b, grid),
                                r, grid, tol)
    if branch == "K3*":
        s = 0.0
        measured["target"] = 0.0
        rv = rv or rv_ratio_test(U, grid=grid, tol=tol)
        measured["ratio_regular"] = rv.passed
    limit_ok = math.isfinite(limit.value) and abs(limit.value - s) <= tol
    measured.update({
        "branch": branch,
        "limit": limit.value,
        "limit_residual": abs(limit.value - s) if math.isfinite(limit.value) else math.inf,
        "condition": cond.measured,
        "condition_passed": cond.passed,
    })
    return ConditionReport(
        condition=branch,
        passed=bool(limit_ok and cond.passed),
        measured=measured,
        tolerance=tol,
    )


def peter_paul_partial_integral(x: float, a: int) -> float:
    """Closed form of the dyadic step tail's integral from 2**a to x.

    For 2**a < 2**n <= x < 2**(n+1) the integral equals
    n - a + x * 2**(-n) - 1; serves as the quadrature oracle.
    """
    x = _real(x, "x", 4.0, closed=True)
    a = _whole(a, "a", 0)
    n = math.frexp(x)[1] - 1
    if a >= n:
        raise ParamError(f"requires 2**a < 2**n <= x (a={a}, n={n})")
    return (n - a) + x * math.ldexp(1.0, -n) - 1.0


# ---------------------------------------------------------------------------
# representation extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationTriple:
    """Constructive exponent decomposition of a finite-order function from b."""

    b: float
    kappa_zero_mode: bool
    alpha_fn: Callable
    beta_fn: Callable
    eps_fn: Callable
    beta_integral: Callable  # x -> integral_b^x beta(t)/t dt
    rho: float


def _trapezoid_cumulative(f_of_u, u_lo: float, u_hi: float,
                          n: int) -> tuple[np.ndarray, np.ndarray]:
    """(us, cum): n nodes on [u_lo, u_hi] and the trapezoid cumulative of
    f(e^u) du at them, for a bounded signed integrand."""
    us = np.linspace(u_lo, u_hi, n)
    vals = np.asarray(f_of_u(us), dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(us))])
    return us, cum


def extract_representation(U: FunctionHandle, b: float = 2.0,
                           grid: GridSpec = GridSpec(),
                           tol: float = DEFAULT_CLASS_TOL, *,
                           label: ClassLabel | None = None) -> RepresentationTriple:
    """Extract (alpha, beta, eps) with beta = log U / log x by construction.

    The construction runs on W(x) = x**s U(x): eps(x) = log W(x) /
    integral_b^x beta_W(t)/t dt, from b itself, as the representation holds
    from any base point. For orders away from zero s = 0 and alpha = 0; an
    integral that stays within 1e-6 of zero is a SingularDenominator. For
    vanishing order s = 1 (W has order 1) and alpha folds the factor x back
    out. ``label`` (``classify(U, grid, tol)``) skips the classification
    when given.
    """
    b = _real(b, "b", 1.0)
    label, tol = _class_gate(U, grid, tol, label)
    rho = label.rho
    kappa_zero = abs(rho) <= KAPPA_ZERO_EPS
    s = 1.0 if kappa_zero else 0.0
    log_b = math.log(b)
    u_max = grid.log10_x_max * math.log(10.0)
    if u_max <= log_b:
        raise ParamError("integration range is empty")

    def beta_w_u(u):
        return (s * u + U.log_at_u(u)) / u

    us, cum = _trapezoid_cumulative(beta_w_u, log_b, u_max, max(grid.points, 2000) * 4)
    if not kappa_zero and not np.any(np.abs(cum) > _DENOM_FLOOR):
        raise SingularDenominator(
            f"{U.name}: exponent integral below {_DENOM_FLOOR} on the whole range"
        )

    def denom(x):
        return np.interp(np.log(np.asarray(x, dtype=float)), us, cum)

    def eps_fn(x):
        xa = np.asarray(x, dtype=float)
        return (U.log_at(xa) + s * np.log(xa)) / denom(xa)

    def alpha_fn(x):
        xa = np.asarray(x, dtype=float)
        if not kappa_zero:
            return np.zeros_like(xa)
        e = eps_fn(xa)
        return (e - 1.0) * np.log(xa) - e * log_b

    def beta_fn(x):
        xa = np.asarray(x, dtype=float)
        return U.log_at(xa) / np.log(xa)

    def beta_integral(x):
        xa = np.asarray(x, dtype=float)
        return denom(xa) - s * (np.log(xa) - log_b)

    return RepresentationTriple(
        b=b, kappa_zero_mode=kappa_zero,
        alpha_fn=alpha_fn, beta_fn=beta_fn, eps_fn=eps_fn,
        beta_integral=beta_integral, rho=rho,
    )


RECONSTRUCTION_RTOL = 1e-7


def verify_representation(U: FunctionHandle, rep: RepresentationTriple,
                          grid: GridSpec = GridSpec(),
                          tol: float = DEFAULT_CLASS_TOL) -> ConditionReport:
    """Check pointwise reconstruction and the three exponent limits on
    ``_clipped_grid(grid, rep.b)``, the integral ratios' sub-grid. alpha and
    eps are read against log(x / b), the length of the integral in log x (for
    an exact power eps - 1 is log b / log(x / b)); beta is log U / log x.
    """
    tol = _real(tol, "tol", 0.0)
    sub = _clipped_grid(grid, rep.b)
    xs = sub.xs()
    log_u = U.log_at(xs)
    alpha, eps = rep.alpha_fn(xs), rep.eps_fn(xs)
    recon = alpha + eps * rep.beta_integral(xs)
    resid = np.max(np.abs(log_u - recon) / np.maximum(1.0, np.abs(log_u)))
    alpha_est = windowed_limit(xs / rep.b, alpha / np.log(xs / rep.b), sub)
    eps_est = windowed_limit(xs / rep.b, eps, sub)
    beta_est = windowed_limit(xs, rep.beta_fn(xs), sub)
    ok = (
        resid <= RECONSTRUCTION_RTOL
        and abs(alpha_est.value) <= tol
        and abs(eps_est.value - 1.0) <= tol
        and abs(beta_est.value - rep.rho) <= tol
    )
    return ConditionReport(
        condition="REP-LIMITS",
        passed=bool(ok),
        measured={
            "reconstruction_residual": float(resid),
            "alpha_over_logx": alpha_est.value,
            "eps": eps_est.value,
            "beta": beta_est.value,
            "rho": rep.rho,
            "kappa_zero_mode": rep.kappa_zero_mode,
        },
        tolerance=tol,
    )


@dataclass(frozen=True)
class InfRepresentation:
    """Single-exponent form U = exp(-alpha) (decay) or exp(alpha) (growth)."""

    sign: int  # +1 rapid decay, -1 rapid growth
    alpha_fn: Callable
    report: ConditionReport


def extract_representation_inf(U: FunctionHandle, grid: GridSpec = GridSpec(),
                               tol: float = DEFAULT_CLASS_TOL, *,
                               label: ClassLabel | None = None) -> InfRepresentation:
    """Exponent function for rapid-decay/growth members; alpha/log x -> inf.

    ``label`` (``classify(U, grid, tol)``) skips the classification when given.
    """
    label, tol = _class_gate(U, grid, tol, label, rapid=True)
    sign = +1 if label.tag == TAG_M_INF else -1

    def alpha_fn(x):
        return -sign * U.log_at(x)

    xs = grid.xs()
    ratio = alpha_fn(xs) / np.log(xs)
    est = windowed_limit(xs, ratio, grid)
    last_mean = float(np.mean(ratio[grid.window_bounds[-2]:]))
    report = ConditionReport(
        condition="REP-INF",
        passed=bool(est.value == math.inf),
        measured={"alpha_over_logx_limit": est.value,
                  "alpha_over_logx_last_window": last_mean,
                  "class": label.tag},
        tolerance=ORDER_BOUND,
    )
    return InfRepresentation(sign=sign, alpha_fn=alpha_fn, report=report)
