"""Growth-order estimation and classification.

The primitive observable is the order ratio r(x) = log U(x) / log x sampled
on a geometric grid. Its liminf/limsup (the lower and upper orders) are
estimated from per-window envelopes over trailing equal-log-width windows;
window statistics that still drift are extrapolated against 1/log x, and
any limit beyond +-ORDER_BOUND, the one range of decided orders, is +-inf.

The moment index kappa (sup of r with integral_1^inf x**(r-1) U(x) dx finite)
is bracketed by probing integral convergence at doubling truncations and
bisecting between the convergent and divergent regimes. The probe policy
lives here: a probe sums the octaves [2**k, 2**(k+1)] up to the grid's x_max,
each from 256 cells of the exponential cell rule (``quadrature``), and its
verdict reads the last _SUSTAIN + 1 octave masses. The cells depend only on
the number of octaves, so every probe reads them from one cached table,
``_probe_cells``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    ClassMismatch,
    DomainError,
    ExtrapolationFailure,
    ParamError,
    UndecidedConvergence,
    _real,
    _whole,
)
from .handles import LOG2, FunctionHandle
from .labels import ORDER_BOUND, TAG_M_INF, TAG_M_NEG_INF, ClassLabel, bounded_order
from .quadrature import _cell_rule, cell_ends, logsumexp, moment_log_f

# tolerated countertrend wobble, as a fraction of the summary span
_MONOTONE_WOBBLE = 1e-3
_MEAN_WOBBLE = 8e-2


def _fields_dict(obj) -> dict:
    """The fields of a dataclass instance by name, values as they are: its
    JSON form. ``dataclasses.asdict`` would deep-copy every value, one call
    per float of a simulation."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
        object.__setattr__(self, "windows", _whole(self.windows, "grid windows", 2))
        object.__setattr__(self, "points", _whole(self.points, "grid points", 16 * self.windows))
        for name in ("log10_x_min", "log10_x_max"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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

    def xs(self) -> np.ndarray:
        return np.logspace(self.log10_x_min, self.log10_x_max, self.points)

    @functools.cached_property
    def window_bounds(self) -> np.ndarray:
        """Read-only sample indices where the windows start, then ``points``.

        Computed once per grid; fields, equality and hashing ignore it.
        """
        bounds = np.linspace(0, self.points, self.windows + 1).astype(int)
        bounds.flags.writeable = False
        return bounds


@dataclass(frozen=True)
class IndexEstimate:
    """An extended-real limit estimate with window diagnostics. Equality ignores
    ``rule``, the exit of ``_combine`` that decided it, and ``residual``."""

    value: float
    spread: float
    trend: Trend
    grid: GridSpec
    rule: str = field(default="", compare=False)
    residual: float = field(default=math.nan, compare=False)  # NaN unless extrapolated


@dataclass(frozen=True)
class ConvergenceVerdict:
    tag: str  # Convergent | Divergent | Undecided
    mean_log_ratio: float = field(default=math.nan, compare=False)  # decay_verdict's evidence
    log_integral: float = field(default=math.nan, compare=False)  # the probe's evidence

    @property
    def is_convergent(self) -> bool:
        return self.tag == "Convergent"

    @property
    def is_divergent(self) -> bool:
        return self.tag == "Divergent"


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------


def _extrapolate_intercept(L: np.ndarray, s: np.ndarray) -> tuple[float, float, bool] | None:
    """(limit, largest misfit, clamped) of a drifting window series s, modelled
    as a + b/L + c*logL/L; a is clamped to within the span of s of its range.
    None when the weighted fit data leave the float range.

    Weighted toward large L, where the correction model is accurate and the
    limit lives.
    """
    with np.errstate(all="ignore"):
        A = np.column_stack([np.ones_like(L), 1.0 / L, np.log(L) / L])
        w = L * L
        Aw, rhs = A * w[:, None], s * w
    if not (np.isfinite(Aw).all() and np.isfinite(rhs).all()):
        return None
    try:
        coef, *_ = np.linalg.lstsq(Aw, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ExtrapolationFailure(f"window-limit extrapolation failed: {exc}") from None
    v = float(coef[0])
    lo, hi = float(s.min()), float(s.max())
    pad = hi - lo
    limit = min(max(v, lo - pad), hi + pad)
    return limit, float(np.abs(A @ coef - s).max()), limit != v


def _spread(ys: np.ndarray) -> float:
    """Range of the finite samples ys; inf when there are none."""
    ys = ys[np.isfinite(ys)]
    return float(ys.max() - ys.min()) if ys.size else math.inf


def _combine(summaries: Sequence[float], L: Sequence[float], side: int, spread: float,
             grid: GridSpec) -> IndexEstimate:
    """Reduce per-window summaries to one limit estimate on grid.

    side > 0 treats the series as an upper envelope, side < 0 as a lower one,
    side == 0 as plain means. Window means of sawtooth-like samples wobble
    with the fractional period coverage, so the mean mode tolerates more
    countertrend wobble than the envelope modes (which must never mistake
    genuine oscillation for drift). spread is the caller's range of the tail
    samples (``_spread``); 0 makes a finite value Stable. Values beyond +-ORDER_BOUND are +-inf.
    """

    def estimate(value: float, trend: Trend, rule: str, residual: float = math.nan):
        value = bounded_order(value)
        stable = not spread and math.isfinite(value)
        return IndexEstimate(value, spread, Trend.STABLE if stable else trend, grid, rule, residual)

    s = np.asarray(summaries, dtype=float)
    Ls = np.asarray(L, dtype=float)
    finite = np.isfinite(s)
    if not finite.all():
        if not finite[-1]:  # runaway samples: infinite already
            v = math.inf if np.any(s == math.inf) else -math.inf
            return estimate(v, Trend.INCREASING if v > 0 else Trend.DECREASING, "runaway")
        # the finite trailing windows alone, if as many as the drop loop keeps
        first = int(np.flatnonzero(~finite)[-1]) + 1
        s, Ls = s[first:], Ls[first:]
        if s.size < 4:
            return estimate(float(s[-1]), Trend.OSCILLATING, "short finite tail")
    span = float(s.max() - s.min())
    scale = max(1.0, float(np.abs(s).max()))
    if span <= 1e-9 * scale:
        return estimate(float(s[-1]), Trend.STABLE, "stable")
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
        fit = _extrapolate_intercept(Ls[drop:], s[drop:])
        if fit is None:  # a drift beyond the float range
            return estimate(math.copysign(math.inf, s[-1]), trend, "runaway")
        v, residual, clamped = fit
        return estimate(v, trend, "clamped extrapolation" if clamped else "extrapolation",
                        residual)
    # oscillating summaries: envelope over the trailing half, so decaying
    # transients in early windows do not pin the estimate
    tail = s[s.size // 2:]
    if side > 0:
        v = float(tail.max())
    elif side < 0:
        v = float(tail.min())
    else:
        v = float(s[-1])
    return estimate(v, Trend.OSCILLATING, "envelope")


def _logs(xs: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's SIMD log differs from libm in the last
    # bit for some x, and these logs feed the extrapolated limits
    return np.array([math.log(x) for x in xs.tolist()])


def _window_extremes(ys: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first minimum and of the first maximum of every window.

    The indices np.argmin and np.argmax give per window, for all windows in
    one pass: a window holding a NaN takes its first NaN as both.
    """
    starts = grid.window_bounds[:-1]
    sizes = np.diff(grid.window_bounds)
    hit_nan = np.isnan(ys)
    pos = np.arange(ys.size)
    firsts = []
    for extreme in (np.minimum, np.maximum):
        at_extreme = (ys == np.repeat(extreme.reduceat(ys, starts), sizes)) | hit_nan
        firsts.append(np.minimum.reduceat(np.where(at_extreme, pos, ys.size), starts))
    return firsts[0], firsts[1]


def windowed_limit(xs: np.ndarray, ys: np.ndarray, grid: GridSpec) -> IndexEstimate:
    """Limit estimate for samples ys over xs via window means."""
    ys = np.asarray(ys, dtype=float)
    bounds = grid.window_bounds.tolist()
    windows = list(zip(bounds, bounds[1:]))
    # a window whose sum leaves the float range has mean +-inf, a runaway
    with np.errstate(over="ignore"):
        means = [float(ys[a:b].mean()) for a, b in windows]
    L_mid = _logs(xs[[a + (b - a) // 2 for a, b in windows]])
    return _combine(means, L_mid, 0, _spread(ys[slice(*windows[-1])]), grid)


def order_samples(U: FunctionHandle, xs) -> np.ndarray:
    """The order ratio log U(x) / log x at points x > 1.

    ``estimate_orders`` reads it on its grid; targeted probes read it at
    points a geometric grid would miss, e.g. the vanishing exceptional
    intervals of ``remark7_mix``.
    """
    xa = np.asarray(xs, dtype=float)
    if np.any(xa <= 1.0):
        raise DomainError("order ratio requires x > 1")
    return U.log_at(xa) / np.log(xa)


def estimate_orders(U: FunctionHandle, grid: GridSpec = GridSpec()
                    ) -> tuple[IndexEstimate, IndexEstimate]:
    """(lower order, upper order) of U: liminf / limsup of log U / log x."""
    xs = grid.xs()
    rs = order_samples(U, xs)
    i_min, i_max = _window_extremes(rs, grid)
    # U reaching or leaving 0 for good inside the last window: the window's
    # ends differ in finiteness and the grid switches between finite and
    # non-finite samples once, so the run after that switch is the tail the
    # last window's extremes and the spread read
    a = int(grid.window_bounds[-2])
    if math.isfinite(rs[a]) != math.isfinite(rs[-1]):
        switch = np.flatnonzero(np.diff(np.isfinite(rs)))
        if switch.size == 1:
            a = int(switch[0]) + 1
            i_min[-1], i_max[-1] = a + np.argmin(rs[a:]), a + np.argmax(rs[a:])
    spread = _spread(rs[a:])
    return (_combine(rs[i_min], _logs(xs[i_min]), -1, spread, grid),
            _combine(rs[i_max], _logs(xs[i_max]), +1, spread, grid))


DEFAULT_CLASS_TOL = 0.05
# A lower order above the upper one by more than this many tol is crossed
# envelopes, no limit: Undecided. Acceptance criterion 4's closure
# 0.5*power_tail(-0.5) + peter_paul is crossed by 0.066 and must stay M at
# the default tol; the smallest crossing on the oset_tower lattice is 0.379.
_CROSSED_TOLS = 2.0


def classify(U: FunctionHandle, grid: GridSpec = GridSpec(),
             tol: float = DEFAULT_CLASS_TOL, *,
             orders: tuple[IndexEstimate, IndexEstimate] | None = None) -> ClassLabel:
    """Classify U by the limiting behaviour of log U(x) / log x.

    ``orders`` is ``estimate_orders(U, grid)`` when the caller has it already.
    """
    tol = _real(tol, "tol", 0.0)
    mu, nu = orders or estimate_orders(U, grid)
    gap = nu.value - mu.value
    if math.isfinite(gap):  # both orders finite: the gap decides
        if gap < -_CROSSED_TOLS * tol:
            return ClassLabel.undecided()
        if gap <= tol:
            return ClassLabel.m(0.5 * (mu.value + nu.value))
        if mu.trend is Trend.INCREASING or nu.trend is Trend.DECREASING:  # drifting
            return ClassLabel.undecided()
    return ClassLabel.from_orders(mu.value, nu.value)


def _class_gate(U: FunctionHandle, grid: GridSpec, tol, label: ClassLabel | None,
                rapid: bool = False) -> tuple[ClassLabel, float]:
    """(label, tol): tol checked, then the given label or ``classify(U, grid, tol)``,
    a ClassMismatch unless of a finite order (a rapid class when ``rapid``)."""
    tol = _real(tol, "tol", 0.0)
    label = label or classify(U, grid, tol)
    if not (label.tag in (TAG_M_INF, TAG_M_NEG_INF) if rapid else label.is_m):
        required = "rapid class" if rapid else "finite order"
        raise ClassMismatch(f"{U.name}: classified {label}, {required} required")
    return label, tol


# ---------------------------------------------------------------------------
# moment index via integral convergence probing
# ---------------------------------------------------------------------------

_RATIO_MARGIN = 5e-4
_SUSTAIN = 4
_KAPPA_TOL = 0.01
_PROBE_CELLS_PER_OCTAVE = 256


@functools.lru_cache(maxsize=1)
def _probe_cells(n_octaves: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (n_octaves, 256) arrays (x_lo, x_hi, width) of the probe's
    cells (``quadrature.cell_ends``): row j is octave [2**j, 2**(j+1)], on
    the edges (256 j + arange(257)) log 2 / 256.

    One entry: every grid of a run has the same octave count, and the table
    is 160 KB at 26 octaves but 6.3 MB at 1,023 (x_max = 1e308).
    """
    cells = _PROBE_CELLS_PER_OCTAVE
    steps, h = np.arange(cells + 1.0), LOG2 / cells
    table = cell_ends((np.arange(n_octaves)[:, None] * cells + steps) * h)
    for a in table:
        a.flags.writeable = False
    return table


def probe_integral_convergence(U: FunctionHandle, r: float,
                               grid: GridSpec = GridSpec()) -> ConvergenceVerdict:
    """Does integral_1^inf x**(r-1) U(x) dx converge?

    Partial integrals at doubling truncations; convergent when octave
    increments decay geometrically (sustained ratio below 1), divergent when
    they fail to decay, undecided in the razor-thin band between. Each
    octave's mass is one cell-rule call on its row of ``_probe_cells``, with
    two ``log_f`` calls. The verdict carries the log of the integral over
    all its octaves, ``log_integral``.
    """
    n_oct = max(_SUSTAIN + 2, int(math.floor(grid.log10_x_max * math.log(10) / LOG2)))
    log_f = moment_log_f(U, _real(r, "r"))
    inc = np.array([logsumexp(_cell_rule(log_f(lo), log_f(hi), width))
                    for lo, hi, width in zip(*_probe_cells(n_oct))])
    return replace(decay_verdict(inc), log_integral=float(np.logaddexp.reduce(inc)))


def decay_verdict(inc: Sequence[float]) -> ConvergenceVerdict:
    """Convergent, Divergent or Undecided: the mean log ratio of the last _SUSTAIN + 1
    octave log masses ``inc`` below log(1 - margin), above log(1 + margin), or between.

    A last mass of zero (log -inf) is Convergent; with no finite ratio between
    the masses, one nonzero mass after zeros, the verdict is Undecided. The
    verdict carries its mean log ratio: +inf for a mass beyond the float
    range, -inf for a last mass of zero, NaN with no finite ratio.
    """
    tail = np.asarray(inc[-(_SUSTAIN + 1):], dtype=float)
    if tail.max() == math.inf:  # a partial integral beyond the float range
        return ConvergenceVerdict("Divergent", mean_log_ratio=math.inf)
    if tail[-1] == -math.inf:
        return ConvergenceVerdict("Convergent", mean_log_ratio=-math.inf)
    with np.errstate(invalid="ignore"):  # -inf - -inf between zero masses
        dlog = np.diff(tail)
    dlog = dlog[np.isfinite(dlog)]
    if dlog.size == 0:
        return ConvergenceVerdict("Undecided")
    mean_dlog = float(dlog.mean())
    tag = ("Convergent" if mean_dlog < math.log(1.0 - _RATIO_MARGIN) else
           "Divergent" if mean_dlog > math.log1p(_RATIO_MARGIN) else "Undecided")
    return ConvergenceVerdict(tag, mean_log_ratio=mean_dlog)


def estimate_kappa(U: FunctionHandle, grid: GridSpec = GridSpec()) -> IndexEstimate:
    """Moment index: bisection between convergent and divergent exponents."""
    lo, hi = -ORDER_BOUND, ORDER_BOUND
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
            band = 2.0 * _RATIO_MARGIN / LOG2
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
        return _fields_dict(self)


def check_second_characterization(U: FunctionHandle, grid: GridSpec = GridSpec(),
                                  tol: float = DEFAULT_CLASS_TOL, *,
                                  label: ClassLabel | None = None,
                                  kappa: IndexEstimate | None = None) -> ConditionReport:
    """Moment index must be the negative of the growth order.

    ``label`` (``classify(U, grid, tol)``) and ``kappa``
    (``estimate_kappa(U, grid)``) skip their computation when given.
    """
    label, tol = _class_gate(U, grid, tol, label)
    kappa = kappa or estimate_kappa(U, grid)
    budget = _KAPPA_TOL + tol
    resid = abs(kappa.value + label.rho)
    return ConditionReport(
        condition="INDEX-NEGATION",
        passed=bool(resid <= budget),
        measured={"kappa": kappa.value, "rho": label.rho, "residual": resid},
        tolerance=budget,
    )


def check_ratio_scales(t_values: Sequence[float], x_max: float) -> list[float]:
    """The ratio-test scales t as floats, each finite and positive with x_max * t finite."""
    ts = [_real(t, "t", 0.0) for t in t_values]
    for t in ts:
        if not math.isfinite(x_max * t):
            raise ParamError(
                f"ratio test at t={t:g} needs U at x_max * t = {x_max:g} * {t:g}, "
                "beyond the float range; lower x_max or t")
    return ts


def rv_ratio_test(U: FunctionHandle, t_values: Sequence[float] = (2.0, 5.0, 10.0),
                  grid: GridSpec = GridSpec(),
                  tol: float = DEFAULT_CLASS_TOL) -> ConditionReport:
    """Test the scaling-ratio law U(xt)/U(x) -> t**rho for each t.

    Passes (ratio-regular with a common rho) only when every per-t log ratio,
    read over log t as an order, stabilises and the implied rho values agree.
    Scales t = 1 test nothing and are skipped; a ParamError when no other t is left.
    """
    tol = _real(tol, "tol", 0.0)
    xs = grid.xs()
    ts = [t for t in check_ratio_scales(t_values, float(xs[-1]))
          if abs(math.log(t)) >= 1e-12]
    if not ts:
        raise ParamError("ratio test needs a scale t != 1")
    log_u = U.log_at(xs)
    per_t = {}
    rho_num = rho_den = 0.0
    failed_t = None
    for t in ts:
        log_ut = U.log_at(xs * t)
        # NaN where U(xt) = U(x) = 0; that t comes out unstable
        with np.errstate(invalid="ignore"):
            log_ratio = log_ut - log_u
        est = windowed_limit(xs, log_ratio / math.log(t), grid)
        limit, spread = est.value * math.log(t), est.spread * abs(math.log(t))
        stable = spread <= tol and math.isfinite(limit)
        rho_t = est.value if math.isfinite(est.value) else math.nan
        per_t[t] = {"limit": limit, "spread": spread, "rho": rho_t, "stable": bool(stable)}
        if not stable and failed_t is None:
            failed_t = t
        if stable:
            rho_num += limit * math.log(t)
            rho_den += math.log(t) ** 2
    rho_hat = None
    if failed_t is None:  # every t is stable, so rho_den > 0
        rho_hat = rho_num / rho_den
        failed_t = next((t for t, info in per_t.items()
                         if abs(info["limit"] - rho_hat * math.log(t)) > tol), None)
    passed = failed_t is None
    return ConditionReport(
        condition="RATIO-SCALING",
        passed=passed,
        measured={"rho": rho_hat if passed else None,
                  "witness_t": failed_t, "per_t": per_t},
        tolerance=tol,
    )


def remark_mix_demo(U: FunctionHandle) -> list[tuple[float, float]]:
    """Targeted probes inside the vanishing 1/x intervals of remark7_mix.

    Grid classification reports rapid decay because geometric grids miss the
    intervals; probing x = n + n**-n / 2 for n = 2, 3, 4 exhibits order ratio
    ~ -1 there.
    """
    out = []
    for n in (2, 3, 4):
        x = n + 0.5 * n ** (-float(n))
        out.append((x, float(order_samples(U, [x])[0])))
    return out
