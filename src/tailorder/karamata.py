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
conditions C1r/C2r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ClassMismatch, DivergentTail, ParamError, SingularDenominator
from .handles import LOG2, FunctionHandle
from .labels import TAG_M_INF, TAG_M_NEG_INF, ClassLabel
from .order import (
    DEFAULT_CLASS_TOL,
    INF_THRESHOLD,
    ConditionReport,
    GridSpec,
    IndexEstimate,
    classify,
    probe_integral_convergence,
    rv_ratio_test,
    windowed_limit,
)
from .quadrature import cell_log_masses, cell_pair_log_masses, logsumexp

# |rho| below this uses the vanishing-order representation construction
KAPPA_ZERO_EPS = 0.02

_DENOM_FLOOR = 1e-6

_CELLS_PER_OCTAVE = 512


# ---------------------------------------------------------------------------
# cumulative integrals
# ---------------------------------------------------------------------------


def _moment_log_f(U: FunctionHandle, r: float):
    """x -> log(x**(r+1) U(x)), the integrand of t**r U dt in u = log t."""
    return lambda xx: (r + 1.0) * np.log(xx) + np.asarray(U.log_at(xx), dtype=float)


@dataclass(frozen=True)
class CumulativeIntegral:
    """Log-space cumulative integral of t**r * U(t), forward or tail kind."""

    kind: str  # "V" (from b) or "W" (to infinity)
    r: float
    b: float
    edges_u: np.ndarray
    log_values: np.ndarray  # at edges; monotone by construction
    source: FunctionHandle

    def log_value(self, x) -> np.ndarray:
        """log integral at arbitrary x inside the grid, exact cell splits.

        The partial cells of all x (edge to x for V, x to edge for W) take
        one call of the cell rule.
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
        part[nonempty] = cell_pair_log_masses(_moment_log_f(self.source, self.r),
                                              lo[nonempty], hi[nonempty])
        out = np.logaddexp(base, part)
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    def as_handle(self) -> FunctionHandle:
        """The cumulative integral as an evaluable handle (for classification)."""
        lo = self.edges_u[0] + 0.05 if self.kind == "V" else self.edges_u[0]

        def log_at_logx(u):
            return self.log_value(np.exp(np.asarray(u, dtype=float)))

        return FunctionHandle(
            name=f"{self.kind}_{self.r:g}[{self.source.name}]",
            log_at_logx=log_at_logx,
            log_domain=(float(lo), float(self.edges_u[-1])),
            differentiable=False,
        )


def cumulative_integral(U: FunctionHandle, kind: str, r: float, b: float,
                        grid: GridSpec | None = None) -> CumulativeIntegral:
    """Build V_r (kind="V") or W_r (kind="W") on an octave-aligned log grid."""
    grid = grid or GridSpec()
    if kind not in ("V", "W"):
        raise ParamError("kind must be 'V' or 'W'")
    if not math.isfinite(r):
        raise ParamError(f"cumulative integral requires a finite r, got {r}")
    if not 0.0 < b < math.inf:
        raise ParamError("cumulative integral requires 0 < b < inf")
    u_b = math.log(b)
    u_max = grid.log10_x_max * math.log(10.0)
    if u_max <= u_b:
        raise ParamError("integration range is empty")
    m = _CELLS_PER_OCTAVE
    log_f = _moment_log_f(U, r)
    n_cells = int(math.ceil((u_max - u_b) / (LOG2 / m)))
    edges = u_b + np.arange(n_cells + 1) * (LOG2 / m)
    cells = cell_log_masses(log_f, edges)
    if kind == "V":
        vals = np.empty(edges.size)
        vals[0] = -math.inf
        np.logaddexp.accumulate(cells, out=vals[1:])
        return CumulativeIntegral("V", r, b, edges, vals, U)
    # tail kind: precondition, then extend until increments are negligible
    verdict = probe_integral_convergence(U, r + 1.0, grid)
    if not verdict.is_convergent:
        raise DivergentTail(
            f"tail integral of t**{r:g} * {U.name} does not converge ({verdict.tag})"
        )
    ext_edges = [edges]
    ext_cells = [cells]
    total = logsumexp(cells)
    u_cur = edges[-1]
    for _ in range(1500):
        nxt = u_cur + np.arange(m + 1) * (LOG2 / m)
        cc = cell_log_masses(log_f, nxt)
        inc = logsumexp(cc)
        ext_edges.append(nxt[1:])
        ext_cells.append(cc)
        total = np.logaddexp(total, inc)
        u_cur = nxt[-1]
        if inc < total + math.log(1e-13):
            break
    else:
        raise DivergentTail(f"tail integral of t**{r:g} * {U.name}: no decay reached")
    all_edges = np.concatenate(ext_edges)
    all_cells = np.concatenate(ext_cells)
    rev = np.empty(all_cells.size)
    np.logaddexp.accumulate(all_cells[::-1], out=rev)
    vals = np.empty(all_edges.size)
    vals[:-1] = rev[::-1]
    vals[-1] = -math.inf
    return CumulativeIntegral("W", r, b, all_edges, vals, U)


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
    base point. The runaway bound of both ratios lies above their limits
    rho + r and r, because a finite-order label has |rho| <= INF_THRESHOLD.
    """
    sub = _clipped_grid(grid, ci.b)
    xs = sub.xs()
    log_x = np.log(xs)
    log_ci = np.asarray(ci.log_value(xs), dtype=float)
    threshold = 2.0 * INF_THRESHOLD + abs(r)
    limit = windowed_limit(xs, log_ci / log_x, sub, threshold)
    est = windowed_limit(xs, (log_ci - np.asarray(U.log_at(xs), dtype=float)) / log_x,
                         sub, threshold)
    resid = abs(est.value - r) if math.isfinite(est.value) else math.inf
    cond = ConditionReport(
        condition="C1r" if ci.kind == "V" else "C2r",
        passed=bool(resid <= tol),
        measured={"limit": est.value, "target": r, "residual": resid,
                  "spread": est.spread, "trend": est.trend.value},
        tolerance=tol,
    )
    return limit, cond


def karamata_limit(U: FunctionHandle, r: float, b: float, side: str,
                   grid: GridSpec | None = None) -> IndexEstimate:
    """Windowed limit of log(cumulative)/log x.

    side "lower" uses V_{r-1} (integral from b), side "upper" uses W_{r-1}
    (tail integral, requires convergence).
    """
    grid = grid or GridSpec()
    if side not in ("lower", "upper"):
        raise ParamError("side must be 'lower' or 'upper'")
    ci = cumulative_integral(U, "V" if side == "lower" else "W", r - 1.0, b, grid)
    return _ratio_checks(U, ci, r, grid, DEFAULT_CLASS_TOL)[0]


def check_condition(U: FunctionHandle, which: str, r: float, b: float,
                    grid: GridSpec | None = None,
                    tol: float = DEFAULT_CLASS_TOL) -> ConditionReport:
    """Balance condition: log(cumulative)/log x - log U/log x -> r.

    C1r uses V_{r-1}, C2r uses W_{r-1}.
    """
    grid = grid or GridSpec()
    if which not in ("C1r", "C2r"):
        raise ParamError("which must be 'C1r' or 'C2r'")
    ci = cumulative_integral(U, "V" if which == "C1r" else "W", r - 1.0, b, grid)
    return _ratio_checks(U, ci, r, grid, tol)[1]


def karamata_theorem_report(U: FunctionHandle, r: float, b: float,
                            grid: GridSpec | None = None,
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
    if not math.isfinite(r):
        raise ParamError(f"integral-ratio check requires a finite r, got {r}")
    grid = grid or GridSpec()
    label = label or classify(U, grid, tol)
    if not label.is_m:
        raise ClassMismatch(f"{U.name}: classified {label}, finite order required")
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
    if x < 4.0:
        raise ParamError("closed form requires x >= 4")
    if a < 0 or int(a) != a:
        raise ParamError("a must be a natural number")
    n = math.frexp(x)[1] - 1
    if a >= n:
        raise ParamError(f"requires 2**a < 2**n <= x (a={a}, n={n})")
    return (n - a) + x * math.ldexp(1.0, -n) - 1.0


# ---------------------------------------------------------------------------
# representation extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationTriple:
    """Constructive exponent decomposition of a finite-order function."""

    b: float
    b_effective: float
    kappa_zero_mode: bool
    alpha_fn: Callable
    beta_fn: Callable
    eps_fn: Callable
    beta_integral: Callable  # x -> integral_{b_eff}^x beta(t)/t dt
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
                           grid: GridSpec | None = None,
                           tol: float = DEFAULT_CLASS_TOL, *,
                           label: ClassLabel | None = None) -> RepresentationTriple:
    """Extract (alpha, beta, eps) with beta = log U / log x by construction.

    The construction runs on W(x) = x**s U(x): eps(x) = log W(x) /
    integral_{b_eff}^x beta_W(t)/t dt. For orders away from zero s = 0,
    alpha = 0 and b_eff is the first node past b where that integral leaves
    zero. For vanishing order s = 1 (W has order 1), b_eff = b, and alpha
    folds the factor x back out. ``label`` (``classify(U, grid, tol)``)
    skips the classification when given.
    """
    grid = grid or GridSpec()
    if not 1.0 < b < math.inf:
        raise ParamError("representation base point requires 1 < b < inf")
    label = label or classify(U, grid, tol)
    if not label.is_m:
        raise ClassMismatch(f"{U.name}: classified {label}, finite order required")
    rho = label.rho
    kappa_zero = abs(rho) <= KAPPA_ZERO_EPS
    s = 1.0 if kappa_zero else 0.0
    u_max = grid.log10_x_max * math.log(10.0)
    n = max(grid.points, 2000) * 4

    def beta_w_u(u):
        return (s * u + np.asarray(U.log_at_u(u), dtype=float)) / u

    b_eff = b
    if not kappa_zero:
        us, cum = _trapezoid_cumulative(beta_w_u, math.log(b), u_max, n)
        ok = np.abs(cum) > _DENOM_FLOOR
        if not ok.any():
            raise SingularDenominator(
                f"{U.name}: exponent integral below {_DENOM_FLOOR} on the whole range"
            )
        # cum[0] is 0, so the first usable node lies past b
        b_eff = float(math.exp(us[np.argmax(ok)]))
    log_b_eff = math.log(b_eff)
    us, cum = _trapezoid_cumulative(beta_w_u, log_b_eff, u_max, n)

    def denom(x):
        return np.interp(np.log(np.asarray(x, dtype=float)), us, cum)

    def eps_fn(x):
        xa = np.asarray(x, dtype=float)
        return (np.asarray(U.log_at(xa), dtype=float) + s * np.log(xa)) / denom(xa)

    def alpha_fn(x):
        xa = np.asarray(x, dtype=float)
        if not kappa_zero:
            return np.zeros_like(xa)
        e = eps_fn(xa)
        return (e - 1.0) * np.log(xa) - e * log_b_eff

    def beta_fn(x):
        xa = np.asarray(x, dtype=float)
        return np.asarray(U.log_at(xa), dtype=float) / np.log(xa)

    def beta_integral(x):
        xa = np.asarray(x, dtype=float)
        return denom(xa) - s * (np.log(xa) - log_b_eff)

    return RepresentationTriple(
        b=b, b_effective=b_eff, kappa_zero_mode=kappa_zero,
        alpha_fn=alpha_fn, beta_fn=beta_fn, eps_fn=eps_fn,
        beta_integral=beta_integral, rho=rho,
    )


RECONSTRUCTION_RTOL = 1e-7


def verify_representation(U: FunctionHandle, rep: RepresentationTriple,
                          grid: GridSpec | None = None,
                          tol: float = DEFAULT_CLASS_TOL) -> ConditionReport:
    """Check pointwise reconstruction and the three exponent limits."""
    grid = grid or GridSpec()
    lo = max(grid.log10_x_min, math.log10(rep.b_effective) + 0.3)
    sub = replace(grid, log10_x_min=lo)
    xs = sub.xs()
    log_u = np.asarray(U.log_at(xs), dtype=float)
    alpha, eps = rep.alpha_fn(xs), rep.eps_fn(xs)
    recon = alpha + eps * rep.beta_integral(xs)
    resid = np.max(np.abs(log_u - recon) / np.maximum(1.0, np.abs(log_u)))
    alpha_est = windowed_limit(xs, alpha / np.log(xs), sub)
    eps_est = windowed_limit(xs, eps, sub)
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
            "b_effective": rep.b_effective,
        },
        tolerance=tol,
    )


@dataclass(frozen=True)
class InfRepresentation:
    """Single-exponent form U = exp(-alpha) (decay) or exp(alpha) (growth)."""

    b: float
    sign: int  # +1 rapid decay, -1 rapid growth
    alpha_fn: Callable
    report: ConditionReport


def extract_representation_inf(U: FunctionHandle, b: float = 2.0,
                               grid: GridSpec | None = None,
                               tol: float = DEFAULT_CLASS_TOL, *,
                               label: ClassLabel | None = None) -> InfRepresentation:
    """Exponent function for rapid-decay/growth members; alpha/log x -> inf.

    ``label`` (``classify(U, grid, tol)``) skips the classification when given.
    """
    grid = grid or GridSpec()
    label = label or classify(U, grid, tol)
    if label.tag == TAG_M_INF:
        sign = +1
    elif label.tag == TAG_M_NEG_INF:
        sign = -1
    else:
        raise ClassMismatch(f"{U.name}: classified {label}, rapid class required")

    def alpha_fn(x):
        return -sign * np.asarray(U.log_at(np.asarray(x, dtype=float)), dtype=float)

    xs = grid.xs()
    ratio = alpha_fn(xs) / np.log(xs)
    est = windowed_limit(xs, ratio, grid)
    last_mean = float(np.mean(ratio[grid.window_slices()[-1]]))
    report = ConditionReport(
        condition="REP-INF",
        passed=bool(est.value == math.inf or last_mean > INF_ALPHA_FLOOR),
        measured={"alpha_over_logx_limit": est.value,
                  "alpha_over_logx_last_window": last_mean,
                  "class": label.tag},
        tolerance=INF_ALPHA_FLOOR,
    )
    return InfRepresentation(b=b, sign=sign, alpha_fn=alpha_fn, report=report)


INF_ALPHA_FLOOR = 100.0
