"""Growth-order estimation and classification.

The primitive observable is the order ratio r(x) = log U(x) / log x sampled
on a geometric grid. Its liminf/limsup (the lower and upper orders) are
estimated from per-window envelopes over trailing equal-log-width windows;
window statistics that still drift are extrapolated against 1/log x, and
runaway magnitudes are clamped to +-inf.

The moment index kappa (sup of r with integral_1^inf x**(r-1) U(x) dx finite)
is bracketed by probing integral convergence at doubling truncations and
bisecting between the convergent and divergent regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    ClassMismatch,
    DomainError,
    ExtrapolationFailure,
    ParamError,
    UndecidedConvergence,
)
from .handles import FunctionHandle
from .labels import ClassLabel
from .quadrature import LOG2_, octave_integral

INF_THRESHOLD = 100.0

# tolerated countertrend wobble, as a fraction of the summary span
_MONOTONE_WOBBLE = 1e-3
_MEAN_WOBBLE = 8e-2


class Trend(str, Enum):
    STABLE = "Stable"
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    OSCILLATING = "Oscillating"


@dataclass(frozen=True)
class GridSpec:
    """Geometric probing grid with trailing analysis windows."""

    log10_x_min: float = 1.0
    log10_x_max: float = 8.0
    points: int = 2000
    windows: int = 8

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):
            x_min = np.power(10.0, self.log10_x_min)
            x_max = np.power(10.0, self.log10_x_max)
        # the first sample divides by log x_min, which must not round to 0
        if not x_min > 1.0:
            raise ParamError("grid requires x_min > 1")
        if not self.log10_x_min < self.log10_x_max:
            raise ParamError("grid requires x_min < x_max")
        if not x_max < math.inf:
            raise ParamError(f"grid requires a finite x_max = 10**{self.log10_x_max:g}")
        if self.windows < 2:
            raise ParamError("grid requires at least 2 windows")
        if self.points < 16 * self.windows:
            raise ParamError("grid requires points >= 16 * windows")

    def xs(self) -> np.ndarray:
        return np.logspace(self.log10_x_min, self.log10_x_max, self.points)

    def window_slices(self) -> list[slice]:
        bounds = np.linspace(0, self.points, self.windows + 1).astype(int)
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class IndexEstimate:
    """An extended-real limit estimate with window diagnostics."""

    value: float
    spread: float
    trend: Trend
    grid: GridSpec


@dataclass(frozen=True)
class ConvergenceVerdict:
    tag: str  # Convergent | Divergent | Undecided
    trace: tuple = ()  # (log10 truncation, log partial integral)

    @property
    def is_convergent(self) -> bool:
        return self.tag == "Convergent"

    @property
    def is_divergent(self) -> bool:
        return self.tag == "Divergent"


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------


def _extrapolate_intercept(L: np.ndarray, s: np.ndarray) -> float:
    """Limit of a drifting window series, modelled as a + b/L + c*logL/L.

    Weighted toward large L, where the correction model is accurate and the
    limit lives.
    """
    with np.errstate(all="ignore"):
        A = np.column_stack([np.ones_like(L), 1.0 / L, np.log(L) / L])
        w = L * L
        A, rhs = A * w[:, None], s * w
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ExtrapolationFailure("window-limit extrapolation: non-finite fit data")
    try:
        coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ExtrapolationFailure(f"window-limit extrapolation failed: {exc}") from None
    v = float(coef[0])
    lo, hi = float(s.min()), float(s.max())
    pad = hi - lo
    return min(max(v, lo - pad), hi + pad)


def _combine(summaries: Sequence[float], L: Sequence[float], side: int,
             inf_threshold: float = INF_THRESHOLD) -> tuple[float, Trend]:
    """Reduce per-window summaries to one limit estimate.

    side > 0 treats the series as an upper envelope, side < 0 as a lower one,
    side == 0 as plain means. Window means of sawtooth-like samples wobble
    with the fractional period coverage, so the mean mode tolerates more
    countertrend wobble than the envelope modes (which must never mistake
    genuine oscillation for drift).
    """
    s = np.asarray(summaries, dtype=float)
    Ls = np.asarray(L, dtype=float)
    finite = np.isfinite(s)
    if not finite.all():
        # runaway samples: infinite already
        v = s[-1] if math.isfinite(s[-1]) else (math.inf if np.any(s == math.inf) else -math.inf)
        if not math.isfinite(v):
            return v, Trend.INCREASING if v > 0 else Trend.DECREASING
        s = np.where(finite, s, np.sign(s) * 1e300)
    span = float(s.max() - s.min())
    scale = max(1.0, float(np.abs(s).max()))
    if span <= 1e-9 * scale:
        return float(s[-1]), Trend.STABLE
    wob_frac = _MEAN_WOBBLE if side == 0 else _MONOTONE_WOBBLE

    def _monotone(seg: np.ndarray) -> tuple[bool, bool]:
        d = np.diff(seg)
        w = wob_frac * max(float(seg.max() - seg.min()), 1e-300)
        return bool(np.all(d >= -w)), bool(np.all(d <= w))

    inc, dec = _monotone(s)
    drop = 0
    if side == 0:
        # leading windows may carry pre-asymptotic transients; trailing
        # windows own the limit
        while not (inc or dec) and drop < s.size // 2 and s.size - drop > 4:
            drop += 1
            inc, dec = _monotone(s[drop:])
    if inc or dec:
        trend = Trend.INCREASING if inc else Trend.DECREASING
        if abs(s[-1]) > inf_threshold:
            return math.copysign(math.inf, s[-1]), trend
        return _extrapolate_intercept(Ls[drop:], s[drop:]), trend
    # oscillating summaries: envelope over the trailing half, so decaying
    # transients in early windows do not pin the estimate
    tail = s[s.size // 2:]
    if side > 0:
        v = float(tail.max())
    elif side < 0:
        v = float(tail.min())
    else:
        v = float(s[-1])
    if abs(v) > inf_threshold:
        return math.copysign(math.inf, v), Trend.OSCILLATING
    return v, Trend.OSCILLATING


def _window_stats(xs: np.ndarray, ys: np.ndarray, grid: GridSpec):
    mins, maxs, means = [], [], []
    L_min, L_max, L_mid = [], [], []
    for sl in grid.window_slices():
        yy = ys[sl]
        xx = xs[sl]
        i0 = int(np.argmin(yy))
        i1 = int(np.argmax(yy))
        mins.append(float(yy[i0]))
        maxs.append(float(yy[i1]))
        means.append(float(yy.mean()))
        L_min.append(math.log(xx[i0]))
        L_max.append(math.log(xx[i1]))
        L_mid.append(math.log(xx[len(xx) // 2]))
    return (np.array(mins), np.array(L_min), np.array(maxs), np.array(L_max),
            np.array(means), np.array(L_mid))


def windowed_limit(xs: np.ndarray, ys: np.ndarray, grid: GridSpec,
                   inf_threshold: float = INF_THRESHOLD) -> IndexEstimate:
    """Limit estimate for samples ys over xs via window means."""
    ys = np.asarray(ys, dtype=float)
    _, _, _, _, means, L_mid = _window_stats(xs, ys, grid)
    value, trend = _combine(means, L_mid, side=0, inf_threshold=inf_threshold)
    last = ys[grid.window_slices()[-1]]
    last = last[np.isfinite(last)]
    spread = float(last.max() - last.min()) if last.size else math.inf
    if spread == 0.0:
        trend = Trend.STABLE
    return IndexEstimate(value=value, spread=spread, trend=trend, grid=grid)


def order_samples(U: FunctionHandle, xs) -> np.ndarray:
    """The order ratio log U(x) / log x at arbitrary probe points.

    Useful for targeted probes at points a geometric grid would miss, e.g.
    the vanishing exceptional intervals of ``remark7_mix``.
    """
    xa = np.asarray(xs, dtype=float)
    if np.any(xa <= 1.0):
        raise DomainError("order ratio requires x > 1")
    return np.asarray(U.log_at(xa), dtype=float) / np.log(xa)


def estimate_orders(U: FunctionHandle, grid: GridSpec | None = None
                    ) -> tuple[IndexEstimate, IndexEstimate]:
    """(lower order, upper order) of U: liminf / limsup of log U / log x."""
    grid = grid or GridSpec()
    xs = grid.xs()
    rs = np.asarray(U.log_at(xs), dtype=float) / np.log(xs)
    mins, L_min, maxs, L_max, _, _ = _window_stats(xs, rs, grid)
    mu_val, mu_trend = _combine(mins, L_min, side=-1)
    nu_val, nu_trend = _combine(maxs, L_max, side=+1)
    last = rs[grid.window_slices()[-1]]
    spread = float(last.max() - last.min())
    if spread == 0.0:
        mu_trend = nu_trend = Trend.STABLE
    mu = IndexEstimate(value=mu_val, spread=spread, trend=mu_trend, grid=grid)
    nu = IndexEstimate(value=nu_val, spread=spread, trend=nu_trend, grid=grid)
    return mu, nu


DEFAULT_CLASS_TOL = 0.05


def classify(U: FunctionHandle, grid: GridSpec | None = None,
             tol: float = DEFAULT_CLASS_TOL, *,
             orders: tuple[IndexEstimate, IndexEstimate] | None = None) -> ClassLabel:
    """Classify U by the limiting behaviour of log U(x) / log x.

    ``orders`` is ``estimate_orders(U, grid)`` when the caller has it already.
    """
    if not tol > 0:
        raise ParamError("classification tolerance must be positive")
    mu, nu = orders or estimate_orders(U, grid)
    if nu.value == -math.inf:
        return ClassLabel.m_inf()
    if mu.value == math.inf:
        return ClassLabel.m_neg_inf()
    if mu.value == -math.inf or nu.value == math.inf:
        # one-sided runaway: oscillation with an infinite edge
        if mu.value < nu.value:
            return ClassLabel.oscillating(mu.value, nu.value)
        return ClassLabel.undecided()
    gap = nu.value - mu.value
    if gap <= tol:
        return ClassLabel.m(0.5 * (mu.value + nu.value))
    drifting = mu.trend is Trend.INCREASING or nu.trend is Trend.DECREASING
    if drifting:
        return ClassLabel.undecided()
    return ClassLabel.oscillating(mu.value, nu.value)


# ---------------------------------------------------------------------------
# moment index via integral convergence probing
# ---------------------------------------------------------------------------

_RATIO_MARGIN = 5e-4
_SUSTAIN = 4
# bisection bracket and width of the moment-index search
_KAPPA_R_LO = -64.0
_KAPPA_R_HI = 64.0
_KAPPA_TOL = 0.01


def probe_integral_convergence(U: FunctionHandle, r: float,
                               grid: GridSpec | None = None) -> ConvergenceVerdict:
    """Does integral_1^inf x**(r-1) U(x) dx converge?

    Partial integrals at doubling truncations; convergent when octave
    increments decay geometrically (sustained ratio below 1), divergent when
    they fail to decay, undecided in the razor-thin band between.
    """
    grid = grid or GridSpec()
    n_oct = max(_SUSTAIN + 2, int(math.floor(grid.log10_x_max * math.log(10) / LOG2_)))
    inc = octave_integral(U, r, n_oct)
    partials = np.logaddexp.accumulate(inc)
    trace = tuple(
        (float((k + 1) * math.log10(2.0)), float(p)) for k, p in enumerate(partials)
    )
    # log increment ratios over the last sustained stretch
    tail = inc[-(_SUSTAIN + 1):]
    if np.all(~np.isfinite(tail)):
        return ConvergenceVerdict("Convergent", trace)
    dlog = np.diff(tail)
    dlog = dlog[np.isfinite(dlog)]
    if dlog.size == 0:
        return ConvergenceVerdict("Convergent", trace)
    mean_dlog = float(dlog.mean())
    if mean_dlog < math.log(1.0 - _RATIO_MARGIN):
        return ConvergenceVerdict("Convergent", trace)
    if mean_dlog > math.log1p(_RATIO_MARGIN):
        return ConvergenceVerdict("Divergent", trace)
    return ConvergenceVerdict("Undecided", trace)


def estimate_kappa(U: FunctionHandle, grid: GridSpec | None = None) -> IndexEstimate:
    """Moment index: bisection between convergent and divergent exponents."""
    grid = grid or GridSpec()
    lo, hi = _KAPPA_R_LO, _KAPPA_R_HI
    v_lo = probe_integral_convergence(U, lo, grid)
    v_hi = probe_integral_convergence(U, hi, grid)
    if not (v_lo.is_convergent or v_lo.is_divergent):
        raise UndecidedConvergence(f"probe undecided at r_lo={lo}")
    if not (v_hi.is_convergent or v_hi.is_divergent):
        raise UndecidedConvergence(f"probe undecided at r_hi={hi}")
    if v_lo.is_divergent:
        return IndexEstimate(-math.inf, 0.0, Trend.STABLE, grid)
    if v_hi.is_convergent:
        return IndexEstimate(math.inf, 0.0, Trend.STABLE, grid)
    while hi - lo > _KAPPA_TOL:
        mid = 0.5 * (lo + hi)
        v = probe_integral_convergence(U, mid, grid)
        if v.is_convergent:
            lo = mid
        elif v.is_divergent:
            hi = mid
        else:
            # undecided sits inside the narrow ratio-margin band around the
            # boundary: the midpoint IS the answer, to within that band
            band = 2.0 * _RATIO_MARGIN / LOG2_
            return IndexEstimate(mid, band, Trend.STABLE, grid)
    return IndexEstimate(0.5 * (lo + hi), hi - lo, Trend.STABLE, grid)


# ---------------------------------------------------------------------------
# consistency and ratio tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a named numeric condition check."""

    condition: str
    passed: bool
    measured: dict
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
        }


def check_second_characterization(U: FunctionHandle, grid: GridSpec | None = None,
                                  tol: float = DEFAULT_CLASS_TOL, *,
                                  label: ClassLabel | None = None,
                                  kappa: IndexEstimate | None = None) -> ConditionReport:
    """Moment index must be the negative of the growth order.

    ``label`` (``classify(U, grid, tol)``) and ``kappa``
    (``estimate_kappa(U, grid)``) skip their computation when given.
    """
    grid = grid or GridSpec()
    label = label or classify(U, grid, tol)
    if not label.is_m:
        raise ClassMismatch(f"{U.name}: classified {label}, finite order required")
    kappa = kappa or estimate_kappa(U, grid)
    budget = _KAPPA_TOL + tol
    resid = abs(kappa.value + label.rho)
    return ConditionReport(
        condition="INDEX-NEGATION",
        passed=bool(resid <= budget),
        measured={"kappa": kappa.value, "rho": label.rho, "residual": resid},
        tolerance=budget,
    )


def rv_ratio_test(U: FunctionHandle, t_values: Sequence[float] | None = None,
                  grid: GridSpec | None = None,
                  tol: float = DEFAULT_CLASS_TOL) -> ConditionReport:
    """Test the scaling-ratio law U(xt)/U(x) -> t**rho for each t.

    Passes (ratio-regular with a common rho) only when every per-t log ratio
    stabilises and the implied rho values agree.
    """
    grid = grid or GridSpec()
    ts = [float(t) for t in (t_values if t_values is not None else (2.0, 5.0, 10.0))]
    if any(t <= 0 for t in ts):
        raise ParamError("ratio test requires t > 0")
    xs = grid.xs()
    x_max = float(xs[-1])
    for t in ts:
        if not math.isfinite(x_max * t):
            raise ParamError(
                f"ratio test at t={t:g} needs U at x_max * t = {x_max:g} * {t:g}, "
                "beyond the float range; lower x_max or t")
    per_t = {}
    rho_num = rho_den = 0.0
    failed_t = None
    for t in ts:
        if abs(math.log(t)) < 1e-12:
            continue
        d = np.asarray(U.log_at(xs * t), dtype=float) - np.asarray(U.log_at(xs), dtype=float)
        est = windowed_limit(xs, d, grid)
        stable = est.spread <= tol and math.isfinite(est.value)
        rho_t = est.value / math.log(t) if math.isfinite(est.value) else math.nan
        per_t[t] = {"limit": est.value, "spread": est.spread, "rho": rho_t,
                    "stable": bool(stable)}
        if not stable and failed_t is None:
            failed_t = t
        if stable:
            rho_num += est.value * math.log(t)
            rho_den += math.log(t) ** 2
    rho_hat = rho_num / rho_den if rho_den > 0 else math.nan
    consistent = failed_t is None and all(
        abs(info["limit"] - rho_hat * math.log(t)) <= tol for t, info in per_t.items()
    )
    if failed_t is None and not consistent:
        failed_t = next(
            (t for t, info in per_t.items()
             if abs(info["limit"] - rho_hat * math.log(t)) > tol), None)
    return ConditionReport(
        condition="RATIO-SCALING",
        passed=bool(consistent),
        measured={"rho": rho_hat if consistent else None,
                  "witness_t": failed_t, "per_t": per_t},
        tolerance=tol,
    )


def remark_mix_demo(U: FunctionHandle, ns: Sequence[int] = (2, 3, 4)) -> list[tuple[float, float]]:
    """Targeted probes inside the vanishing 1/x intervals of remark7_mix.

    Grid classification reports rapid decay because geometric grids miss the
    intervals; probing x = n + n**-n / 2 exhibits order ratio ~ -1 there.
    """
    out = []
    for n in ns:
        x = n + 0.5 * n ** (-float(n))
        out.append((x, float(order_samples(U, [x])[0])))
    return out
