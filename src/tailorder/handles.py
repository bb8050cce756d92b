"""Evaluable positive functions with known asymptotic ground truth.

Everything evaluates in log space: a handle maps x in (0, inf) to
log U(x), so members that decay or grow faster than any power remain finite
on the whole probing range (x up to 1e300).

Step functions follow the right-continuity convention: at a jump point the
handle returns the new level.

The evaluation contract: ``FunctionHandle.log_at(x)`` and ``log_at_u(u)``
take an input of any shape and return float64 values of that shape (a numpy
float or a 0-d array for a 0-d input), so callers use the result as it is.
Every handle carries a raw rule in each coordinate; one checked evaluator
serves both, refusing an x (or exp(u)) outside (0, inf) with a DomainError and
a NaN value with an UnresolvedValue, each naming the handle and the first such
x. A rule owns its domain (a table's refuses a u beyond its rows). A closure
reads its operands' raw rules in its own coordinate, x rules at x and u rules
at u, so the composite refuses an operand's NaN; ``compose`` and ``convolve``
read theirs checked.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, FormatError, ParamError, PositivityViolation, UnknownName,
                     UnresolvedValue, _real)
from .labels import ORDER_BOUND, ClassLabel

LOG2 = math.log(2.0)

# Largest log-argument we ever need: x up to ~1e300.
_U_MAX = 691.0

# Most breakpoints a step-function constructor builds below exp(_U_MAX).
_MAX_BREAKPOINTS = 10_000

# Relative nudge pushing a query on a float-rounded breakpoint to the correct
# (right-continuous) side.
_EDGE_NUDGE = 1e-15


@dataclass(frozen=True)
class KnownTruth:
    """Ground-truth metadata attached to corpus members.

    The label fixes the orders and the moment index: M(rho) has
    mu = nu = rho and kappa = -rho, MInf has mu = nu = -inf and kappa = inf,
    MNegInf has mu = nu = inf and kappa = -inf. ``rho``, ``mu``, ``nu`` and
    that ``kappa`` are read from the label (``mu``, ``nu`` from its orders,
    NaN when Undecided); ``kappa`` is given only for an Oscillating label,
    whose orders do not fix it. A given kappa that disagrees with the label
    is a ParamError.
    """

    label: ClassLabel
    kappa: float | None = None
    is_tail: bool = False
    is_rv: bool | None = None

    def __post_init__(self) -> None:
        if self.mu == self.nu:  # a limit: M or a rapid class
            implied = -self.mu
            if self.kappa not in (None, implied) and not abs(self.kappa - implied) <= 1e-12:
                raise ParamError(f"{self.label} label has kappa = {implied:g}, got {self.kappa:g}")
            object.__setattr__(self, "kappa", implied)
        if self.is_tail and self.kappa is not None and self.kappa < 0:
            raise ParamError("a survival-function tail has kappa >= 0")

    @property
    def rho(self) -> float | None:
        return self.label.rho

    @property
    def mu(self) -> float:
        return self.label.orders[0]

    @property
    def nu(self) -> float:
        return self.label.orders[1]


@dataclass(frozen=True)
class FunctionHandle:
    """Immutable positive function on (0, inf), log-space view.

    A handle is defined by one vectorized rule, ``log_at_x`` (x -> log U(x))
    or ``log_at_logx`` (u = log x -> log U(exp(u))); the other is derived
    through exp or log, so every handle carries both. Both are given only
    where each is exact in its own coordinate: step levels decided without an
    exp/log round trip, and closures, whose x rule reads the operands' x rules
    and u rule their u rules. A rule maps a float64 array to float64 values of its
    shape and refuses what it cannot evaluate; the entry points check the rest.
    """

    name: str
    log_at_logx: Callable | None = None
    truth: KnownTruth | None = None
    differentiable: bool = True
    log_at_x: Callable | None = None
    # inclusive log-x evaluation range for table-backed handles
    log_domain: tuple[float, float] | None = None
    # jump locations of step functions (float-representable ones)
    jump_xs: tuple = ()
    # closed-form inverse of a tail: level u in (0,1) -> least x with U(x) <= u
    quantile: Callable | None = None

    def __post_init__(self) -> None:
        log_at_x, log_at_logx = self.log_at_x, self.log_at_logx
        if log_at_logx is None:
            if log_at_x is None:
                raise ParamError(f"{self.name}: a handle needs log_at_x or log_at_logx")
            object.__setattr__(self, "log_at_logx", lambda u: log_at_x(np.exp(u)))
        # the x rule is no field, so that dataclasses.replace of the u rule derives it anew
        object.__setattr__(self, "_x_rule", log_at_x or (lambda x: log_at_logx(np.log(x))))

    def _evaluate(self, rule, arg, to_x):
        """rule(arg), checked: x = to_x(arg) in (0, inf) and no NaN value."""
        arg = np.asarray(arg, dtype=float)
        if arg.size:  # the extremes decide: NaN propagates through min and fails
            x_lo = to_x(np.minimum.reduce(arg, axis=None))
            x_hi = to_x(np.maximum.reduce(arg, axis=None))
            if not (0.0 < x_lo and x_hi < math.inf):
                bad = x_hi if 0.0 < x_lo else x_lo
                raise DomainError(f"{self.name}: evaluation requires x > 0 and finite, "
                                  f"got x = {bad:g}")
        values = rule(arg)
        if math.isnan(np.minimum.reduce(values, axis=None, initial=math.inf)):
            at = to_x(arg.flat[np.flatnonzero(np.isnan(values))[0]])
            raise UnresolvedValue(f"{self.name}: log U is NaN at x = {at:g}")
        return values

    def log_at(self, x):
        """log U(x) for x > 0, float64 values shaped like x."""
        return self._evaluate(self._x_rule, x, float)

    def log_at_u(self, u):
        """log U(exp(u)) for u whose exp(u) is a positive finite float, shaped like u."""
        return self._evaluate(self.log_at_logx, u, _exp)


def _exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:  # inf, which the evaluator refuses
        return math.inf


# ---------------------------------------------------------------------------
# corpus constructors
# ---------------------------------------------------------------------------


def _order(rho: float, what: str) -> float:
    """A finite order or edge of a member's truth, strictly within +-ORDER_BOUND."""
    return _real(rho, what, -ORDER_BOUND, ORDER_BOUND)


def make_power_tail(alpha: float) -> FunctionHandle:
    """U = 1 on (0,1), x**alpha on [1,inf)."""
    a = _order(_real(alpha, "alpha"), "alpha")
    truth = KnownTruth(label=ClassLabel.m(a), is_tail=(a <= 0.0), is_rv=True)
    return FunctionHandle(
        name=f"power_tail(alpha={a:g})",
        log_at_logx=lambda u: a * np.maximum(u, 0.0),
        truth=truth,
        quantile=(lambda u: u ** (1.0 / a)) if a < 0.0 else None,
    )


def make_ramp_power(alpha: float) -> FunctionHandle:
    """U = x**alpha on all of (0,inf); vanishes at the origin for alpha > 0."""
    a = _order(_real(alpha, "alpha", 0.0), "alpha")
    truth = KnownTruth(label=ClassLabel.m(a), is_rv=True)
    return FunctionHandle(
        name=f"ramp_power(alpha={a:g})",
        log_at_logx=lambda u: a * u,
        truth=truth,
    )


def make_pareto_tail(alpha: float) -> FunctionHandle:
    """Survival function x**(-alpha) on [1,inf), 1 below."""
    a = _order(_real(alpha, "alpha", 0.0), "alpha")
    h = make_power_tail(-a)
    return FunctionHandle(
        name=f"pareto_tail(alpha={a:g})",
        log_at_logx=h.log_at_logx,
        truth=h.truth,
        quantile=h.quantile,
    )


def make_peter_paul() -> FunctionHandle:
    """Dyadic step tail: 2**(-n) on [2^n, 2^(n+1)), 1 below 2."""
    truth = KnownTruth(label=ClassLabel.m(-1.0), is_tail=True, is_rv=False)

    # its own u rule: exp(k log 2) rounds below 2**k for most k, so the x
    # rule composed with exp would read level k - 1 at u = k log 2
    def log_at_logx(u):
        n = np.floor(u / LOG2 + 1e-12)
        return -np.maximum(n, 0.0) * LOG2

    def log_at_x(x):  # exact dyadic level: x in [2^n, 2^(n+1)) -> n, for any float x >= 1
        return -np.maximum(np.frexp(x)[1] - 1, 0) * LOG2

    def quantile(u):
        k = np.ceil(-np.log2(u) - 1e-12)
        return np.exp2(np.maximum(k, 0.0))

    return FunctionHandle(
        name="peter_paul",
        log_at_logx=log_at_logx,
        log_at_x=log_at_x,
        quantile=quantile,
        truth=truth,
        differentiable=False,
        jump_xs=tuple(2.0 ** k for k in range(1, 996)),
    )


def _step_handle(name, bps_u, levels_log, truth):
    """Right-continuous step function from breakpoints in log-x space."""
    bps = np.asarray(bps_u, dtype=float)
    lv = np.asarray(levels_log, dtype=float)

    def log_at_logx(u):
        i = np.searchsorted(bps, u * (1.0 + _EDGE_NUDGE) + _EDGE_NUDGE, side="right")
        return np.where(i == 0, 0.0, lv[np.maximum(i - 1, 0)])

    jumps = tuple(float(math.exp(u)) for u in bps if u < 690.0)
    return FunctionHandle(
        name=name, log_at_logx=log_at_logx, truth=truth, differentiable=False,
        jump_xs=jumps,
    )


def make_oset_geometric(alpha: float, beta: float, x_a: float) -> FunctionHandle:
    """Step function with breakpoints x_n = x_a**((1+alpha)**n).

    Levels x_n**(alpha*(1+beta)); oscillates between two growth orders.
    """
    a, b, xa = _real(alpha, "alpha", 0.0), _real(beta, "beta"), _real(x_a, "x_a", 1.0)
    if b == -1.0:
        raise ParamError("oset_geometric requires beta != -1")
    log_xa = math.log(xa)
    # breakpoints (1+alpha)**n * log(x_a) <= _U_MAX in closed form, up to rounding
    count = math.log(_U_MAX / log_xa) / math.log1p(a)
    if count > _MAX_BREAKPOINTS:
        raise ParamError(
            f"oset_geometric requires at most {_MAX_BREAKPOINTS} breakpoints below "
            f"exp({_U_MAX:g}): alpha={a:g} with x_a={xa:g} gives {count:.4g}")
    bps = [un for un in ((1.0 + a) ** n * log_xa for n in range(1, math.floor(count) + 2))
           if un <= _U_MAX]
    if not bps:
        raise ParamError(
            f"oset_geometric requires x_a**(1+alpha) <= exp({_U_MAX:g}): with x_a={xa:g} "
            "the first breakpoint lies beyond the probing range")
    top = _order(a * (1.0 + b), "alpha*(1+beta)")
    bottom = top / (1.0 + a)
    mu, nu = (bottom, top) if 1.0 + b > 0 else (top, bottom)
    truth = KnownTruth(label=ClassLabel.oscillating(mu, nu), is_tail=(1.0 + b < 0),
                       is_rv=False)
    return _step_handle(
        f"oset_geometric(alpha={a:g},beta={b:g},x_a={xa:g})", bps, [top * un for un in bps],
        truth,
    )


# x_{n+1} = 2**(x_n/c) escapes to infinity only below the tangency constant.
TOWER_C_MAX = math.e * LOG2


def make_oset_tower(c: float, alpha: float) -> FunctionHandle:
    """Step function with tower breakpoints x_1 = 1, x_{n+1} = 2**(x_n/c)."""
    cc, a = _real(c, "c", 0.0), _real(alpha, "alpha")
    if a == 0.0:
        raise ParamError("oset_tower requires alpha != 0")
    if not cc < TOWER_C_MAX:
        raise ParamError(
            f"oset_tower requires c < e*log(2) ~ {TOWER_C_MAX:.4f}: "
            "the breakpoint recursion stalls at a fixed point otherwise"
        )
    edge = _order(a * cc, "alpha*c")
    mu, nu = (edge, math.inf) if a > 0 else (-math.inf, edge)
    truth = KnownTruth(label=ClassLabel.oscillating(mu, nu), is_tail=(a < 0), is_rv=False)
    bps, u = [], 0.0
    while u <= _U_MAX:
        if len(bps) == _MAX_BREAKPOINTS:
            raise ParamError(
                f"oset_tower requires at most {_MAX_BREAKPOINTS} breakpoints below "
                f"exp({_U_MAX:g}): c={cc:g} lies too close to e*log(2)")
        bps.append(u)
        u = math.exp(u) * LOG2 / cc
    lv = [a * math.exp(un) * LOG2 for un in bps]
    return _step_handle(f"oset_tower(c={cc:g},alpha={a:g})", bps, lv, truth)


def make_two_plus_sin() -> FunctionHandle:
    """U = 2 + sin(x): bounded oscillation, order 0, not ratio-regular."""
    truth = KnownTruth(label=ClassLabel.m(0.0), is_rv=False)
    return FunctionHandle(
        name="two_plus_sin",
        log_at_x=lambda x: np.log(2.0 + np.sin(x)),
        truth=truth,
    )


def make_x_pow_sin_x() -> FunctionHandle:
    """U = x**sin(x): the order ratio equals sin(x) and never settles."""
    truth = KnownTruth(label=ClassLabel.oscillating(-1.0, 1.0), is_rv=False)
    return FunctionHandle(
        name="x_pow_sin_x",
        # u itself, not log(exp(u)), so that t**sin(t) keeps its limit 1 where
        # exp(u) underflows to 0: compose reads it at the log of a vanishing inner
        log_at_logx=lambda u: np.sin(np.exp(u)) * u,
        log_at_x=lambda x: np.sin(x) * np.log(x),
        truth=truth,
    )


def make_exp_neg() -> FunctionHandle:
    """U = exp(-x): decays faster than any power."""
    truth = KnownTruth(label=ClassLabel.m_inf(), is_tail=True, is_rv=False)
    return FunctionHandle(
        name="exp_neg",
        log_at_x=lambda x: -x,
        truth=truth,
        quantile=lambda u: -np.log(u),
    )


def make_exp_pos() -> FunctionHandle:
    """U = exp(x): grows faster than any power."""
    truth = KnownTruth(label=ClassLabel.m_neg_inf(), is_rv=False)
    return FunctionHandle(
        name="exp_pos",
        log_at_x=lambda x: x.copy(),
        truth=truth,
    )


def make_floor_log_tail() -> FunctionHandle:
    """Survival function exp(-floor(x) * log x): rapid decay, jumpy."""
    truth = KnownTruth(label=ClassLabel.m_inf(), is_tail=True, is_rv=False)

    def log_at_x(x):
        # past x ~ 1e305 the level lies below the float range: log U = -inf
        with np.errstate(over="ignore"):
            n = np.floor(x * (1.0 + 1e-13))
            return np.where(x < 1.0, 0.0, -n * np.log(np.maximum(x, 1.0)))

    return FunctionHandle(
        name="floor_log_tail",
        log_at_x=log_at_x,
        truth=truth,
        differentiable=False,
    )


# beyond this integer the exceptional intervals are narrower than any float gap
_REMARK_N_MAX = 50


def make_remark7_mix() -> FunctionHandle:
    """exp(-x) except 1/x on the vanishing intervals (n, n + n**-n).

    The intervals shrink so fast that every geometric probing grid misses
    them; a targeted probe at n + n**-n / 2 exposes the 1/x branch.
    """
    truth = KnownTruth(label=ClassLabel.oscillating(-math.inf, -1.0), kappa=math.inf,
                       is_rv=False)

    def log_at_x(x):
        n = np.floor(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            width = np.where(
                (n >= 1) & (n <= _REMARK_N_MAX), np.exp(-n * np.log(np.maximum(n, 1))), 0.0
            )
        inside = (n >= 1) & (x > n) & (x - n < width)
        return np.where(inside, -np.log(x), -x)

    return FunctionHandle(
        name="remark7_mix",
        log_at_x=log_at_x,
        truth=truth,
        differentiable=False,
    )


def make_log_perturbed_power(alpha: float = -1.0, c: float = 1.0) -> FunctionHandle:
    """U = x**alpha * (1 + c / log x) for x >= e, frozen below e."""
    a, cc = _order(_real(alpha, "alpha"), "alpha"), _real(c, "c", 0.0, closed=True)
    truth = KnownTruth(label=ClassLabel.m(a), is_tail=(a < 0), is_rv=True)

    def log_at_logx(u):
        safe = np.maximum(u, 1.0)
        return np.where(u >= 1.0, a * u + np.log1p(cc / safe), a + np.log1p(cc))

    return FunctionHandle(
        name=f"log_perturbed_power(alpha={a:g},c={cc:g})",
        log_at_logx=log_at_logx,
        truth=truth,
    )


_CATALOG: dict[str, Callable[..., FunctionHandle]] = {
    "power_tail": make_power_tail,
    "peter_paul": make_peter_paul,
    "oset_geometric": make_oset_geometric,
    "oset_tower": make_oset_tower,
    "two_plus_sin": make_two_plus_sin,
    "x_pow_sin_x": make_x_pow_sin_x,
    "exp_neg": make_exp_neg,
    "exp_pos": make_exp_pos,
    "floor_log_tail": make_floor_log_tail,
    "remark7_mix": make_remark7_mix,
    "pareto_tail": make_pareto_tail,
    "log_perturbed_power": make_log_perturbed_power,
    "ramp_power": make_ramp_power,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def make_named(name: str, params: dict | None = None) -> FunctionHandle:
    """Build a catalog member by name; UnknownName outside the catalog."""
    try:
        ctor = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown function {name!r}; known: {catalog_names()}") from None
    try:
        return ctor(**(params or {}))
    except TypeError as exc:
        raise ParamError(f"{name}: {exc}") from None


# ---------------------------------------------------------------------------
# tabulated data
# ---------------------------------------------------------------------------

MIN_TABLE_ROWS = 8


def from_table(xs, log_values) -> FunctionHandle:
    """Handle interpolating log U linearly in log x between the table's rows.

    ``xs`` must be finite, positive and strictly increasing, ``log_values``
    finite, with at least MIN_TABLE_ROWS rows of each.
    """
    xa, va = np.asarray(xs, dtype=float), np.asarray(log_values, dtype=float)
    if xa.ndim != 1 or xa.shape != va.shape:
        raise FormatError("a table needs one log value per abscissa")
    if xa.size < MIN_TABLE_ROWS:
        raise FormatError(f"need at least {MIN_TABLE_ROWS} rows, got {xa.size}")
    if not np.all(np.isfinite(xa) & (xa > 0.0)):
        raise FormatError("table abscissas must be positive finite reals")
    if not np.all(np.isfinite(va)):
        raise FormatError("table values must be finite reals")
    if np.any(np.diff(xa) <= 0.0):
        raise FormatError("table abscissas must be strictly increasing")
    us = np.array([math.log(x) for x in xa])

    def log_at_logx(u):  # a u beyond the rows, 1e-12 of rounding aside, is refused
        if u.size and not (us[0] - 1e-12 <= u.min() and u.max() <= us[-1] + 1e-12):
            raise DomainError("table: log-argument outside tabulated range")
        return np.interp(u, us, va)

    return FunctionHandle(
        name="table",
        log_at_logx=log_at_logx,
        log_domain=(float(us[0]), float(us[-1])),
        differentiable=False,
    )


def load_csv(path) -> FunctionHandle:
    """Read an `x,value` or `x,logvalue` UTF-8 CSV into an interpolating handle."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError("empty CSV file")
            header = [h.strip() for h in header]
            if header not in (["x", "value"], ["x", "logvalue"]):
                raise FormatError(f"bad CSV header {header!r}")
            linear = header[1] == "value"
            xs, vs = [], []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != 2:
                    raise FormatError(f"line {lineno}: expected 2 columns")
                try:
                    x, v = float(rec[0]), float(rec[1])
                except ValueError:
                    raise FormatError(f"line {lineno}: non-numeric field") from None
                if linear and math.isfinite(v):
                    if v <= 0.0:
                        raise PositivityViolation(f"non-positive linear value at x={x}")
                    v = math.log(v)
                xs.append(x)
                vs.append(v)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot decode {path} as UTF-8: {exc.reason} "
                          f"{exc.object[exc.start:exc.end]!r}") from None
    except csv.Error as exc:
        raise FormatError(f"cannot parse {path}, line {reader.line_num}: {exc}") from None
    return from_table(xs, vs)

