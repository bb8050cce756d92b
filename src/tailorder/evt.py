"""Extreme-value diagnostics for survival functions.

Covers the differentiable sufficient conditions (hazard-ratio limit for the
heavy-tailed class, reciprocal-hazard flatness for the light-tailed class),
domain-of-attraction classification driven by the scaling-ratio test, the
threshold-excess ratio probe against the generalized Pareto shape, and
block-maxima simulation with its exact finite-n oracle.

Membership verdicts stay conservative: a rapidly decaying tail passing the
flatness probe is only ever a *candidate* for the light-tailed limit, since
rapid decay is necessary but not sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EndpointError,
    NonDifferentiable,
    ParamError,
    QuantileError,
)
from .handles import FunctionHandle
from .labels import TAG_M_INF, ClassLabel
from .order import (
    DEFAULT_CLASS_TOL,
    ConditionReport,
    GridSpec,
    IndexEstimate,
    classify,
    rv_ratio_test,
    windowed_limit,
)

_FD_STEP = 1e-5


@dataclass(frozen=True)
class GPDSpec:
    """Generalized Pareto shape; support respects 1 + xi*x > 0."""

    xi: float

    def cdf_complement(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        if self.xi == 0.0:
            return np.exp(-xa)
        arg = 1.0 + self.xi * xa
        if np.any(arg <= 0.0):
            raise ParamError("GPD evaluated outside 1 + xi*x > 0")
        return arg ** (-1.0 / self.xi)


@dataclass(frozen=True)
class DistributionHandle:
    """A survival function with quantile access and infinite endpoint."""

    base: FunctionHandle
    quantile: Callable  # tail level u in (0,1) -> x with F-bar(x) = u
    endpoint: float = math.inf

    @property
    def differentiable(self) -> bool:
        return self.base.differentiable


def _check_u(u) -> np.ndarray:
    ua = np.asarray(u, dtype=float)
    if np.any((ua <= 0.0) | (ua >= 1.0)):
        raise QuantileError("tail level must lie in (0,1)")
    return ua


def _generic_quantile(base: FunctionHandle) -> Callable:
    """Quantile map by bracketing and bisection in x, all points at once.

    Each point's bracket grows by x4 from [floor, 4] until the tail falls to
    the level, then geometric bisection steps follow, each one ``log_at``
    call over all points, until a step changes no bracket (at most 200).
    """
    lo0 = max(base.support_floor, 1e-12)
    hi0 = max(4.0, lo0 * 4.0)

    def q(ua: np.ndarray):
        target = np.log(ua).ravel()
        lo = np.full(target.shape, lo0)
        hi = np.full(target.shape, hi0)
        grow = np.asarray(base.log_at(hi), dtype=float) > target
        while grow.any():
            hi = np.where(grow, hi * 4.0, hi)
            if np.any(hi > 1e280):
                raise QuantileError("quantile bracket ran away")
            grow = np.asarray(base.log_at(hi), dtype=float) > target
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            above = np.asarray(base.log_at(mid), dtype=float) > target
            new_lo = np.where(above, mid, lo)
            new_hi = np.where(above, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        return hi.reshape(ua.shape) if ua.ndim else float(hi[0])

    return q


def distribution_for(handle: FunctionHandle) -> DistributionHandle:
    """Wrap a survival-function handle with its closed-form or bisection quantile."""
    if handle.truth is None or not handle.truth.is_tail:
        raise ParamError(f"{handle.name} is not marked as a survival function")
    q = handle.quantile or _generic_quantile(handle)
    return DistributionHandle(base=handle, quantile=lambda u: q(_check_u(u)))


# ---------------------------------------------------------------------------
# differentiable sufficient conditions
# ---------------------------------------------------------------------------


def _log_tail_derivs(base: FunctionHandle, xs: np.ndarray, h: float):
    """First and second u-derivatives of g(u) = log F-bar(e^u), 5-point."""
    u = np.log(xs)
    g_m2 = np.asarray(base.log_at_u(u - 2 * h), dtype=float)
    g_m1 = np.asarray(base.log_at_u(u - h), dtype=float)
    g_0 = np.asarray(base.log_at_u(u), dtype=float)
    g_p1 = np.asarray(base.log_at_u(u + h), dtype=float)
    g_p2 = np.asarray(base.log_at_u(u + 2 * h), dtype=float)
    d1 = (8.0 * (g_p1 - g_m1) - (g_p2 - g_m2)) / (12.0 * h)
    d2 = (-g_p2 + 16.0 * g_p1 - 30.0 * g_0 + 16.0 * g_m1 - g_m2) / (12.0 * h * h)
    return d1, d2


def von_mises_frechet(D: DistributionHandle, grid: GridSpec | None = None) -> IndexEstimate:
    """Limit of x F'(x) / F-bar(x), the hazard-ratio index.

    Equals -d(log F-bar)/d(log x); estimated with relative-step central
    differences on the log tail.
    """
    if not D.differentiable:
        raise NonDifferentiable(f"{D.base.name}: tail is not differentiable")
    grid = grid or GridSpec()
    xs = grid.xs()
    d1, _ = _log_tail_derivs(D.base, xs, _FD_STEP)
    return windowed_limit(xs, -d1, grid)


def von_mises_gumbel(D: DistributionHandle, grid: GridSpec | None = None) -> IndexEstimate:
    """Limit of (F-bar/F')'(x), the reciprocal-hazard flatness probe.

    In log coordinates with g = log F-bar: (F-bar/F')' = -1/g' + g''/g'^2.
    """
    if not D.differentiable:
        raise NonDifferentiable(f"{D.base.name}: tail is not differentiable")
    grid = grid or GridSpec()
    xs = grid.xs()
    d1, d2 = _log_tail_derivs(D.base, xs, _FD_STEP)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = -1.0 / d1 + d2 / (d1 * d1)
    return windowed_limit(xs, vals, grid)


# ---------------------------------------------------------------------------
# domain-of-attraction classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DAReport:
    kind: str  # Frechet | GumbelInfCandidate | NotClassified
    alpha: float | None
    label: ClassLabel
    details: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha,
                "label": self.label.to_dict(), "details": self.details}


def classify_domain_attraction(D: DistributionHandle,
                               grid: GridSpec | None = None,
                               tol: float = DEFAULT_CLASS_TOL, *,
                               label: ClassLabel | None = None,
                               rv: ConditionReport | None = None) -> DAReport:
    """Conservative attraction verdict for an infinite-endpoint tail.

    Heavy-tailed attraction needs the full scaling-ratio law with a negative
    exponent. Rapid decay alone never certifies the light-tailed limit (the
    inclusion is strict); a passing flatness probe upgrades it to candidate.
    ``label`` (``classify(D.base, grid, tol)``) and ``rv``
    (``rv_ratio_test(D.base, grid=grid, tol=tol)``) skip their computation
    when given.
    """
    if math.isfinite(D.endpoint):
        raise EndpointError("classification requires an infinite endpoint")
    grid = grid or GridSpec()
    label = label or classify(D.base, grid, tol)
    rv = rv or rv_ratio_test(D.base, grid=grid, tol=tol)
    details: dict = {"ratio_regular": rv.passed, "class": label.to_dict()}
    if rv.passed and rv.measured["rho"] is not None and rv.measured["rho"] < -tol:
        alpha = -rv.measured["rho"]
        details["source"] = "scaling-ratio law"
        return DAReport(kind="Frechet", alpha=alpha, label=label, details=details)
    if label.tag == TAG_M_INF and D.differentiable:
        vm = von_mises_gumbel(D, grid)
        details["flatness_limit"] = vm.value
        if math.isfinite(vm.value) and abs(vm.value) <= tol:
            details["source"] = "rapid decay + flatness probe (necessary only)"
            return DAReport(kind="GumbelInfCandidate", alpha=None, label=label,
                            details=details)
    return DAReport(kind="NotClassified", alpha=None, label=label, details=details)


# ---------------------------------------------------------------------------
# threshold-excess ratio probe
# ---------------------------------------------------------------------------


def default_a_family() -> list[tuple[str, Callable]]:
    """Scale functions spanning the growth regimes: c*u, c*sqrt(u), c."""
    return [
        ("u", lambda u: np.asarray(u, dtype=float)),
        ("sqrt_u", lambda u: np.sqrt(np.asarray(u, dtype=float))),
        ("const", lambda u: np.ones_like(np.asarray(u, dtype=float))),
    ]


def gpd_ratio_probe(D: DistributionHandle, xi: float, a_fn: Callable,
                    x_probe: Sequence[float] | None = None,
                    tol: float = 0.01) -> ConditionReport:
    """Stability of F-bar(u + x a(u)) / F-bar(u) against the GPD target.

    Per probe x the report carries the trailing-window spread of the ratio
    and its deviation from (1 + xi x)**(-1/xi); `passed` means the excess law
    holds at this xi and a(.). Persistent spread across a whole scale family
    is the violation signature.
    """
    spec = GPDSpec(xi=xi)
    xs = np.asarray(x_probe if x_probe is not None else [0.5, 1.0, 2.0, 4.0, 8.0],
                    dtype=float)
    if np.any(1.0 + xi * xs <= 0.0):
        raise ParamError("probe points must satisfy 1 + xi*x > 0")
    us = np.logspace(2, 7, 64)
    # for step tails, place thresholds just below the jumps: the excess
    # window x*a(u) is far narrower than any geometric spacing, and the
    # jumps are exactly where the excess law breaks
    x_min = float(xs.min())
    extra = []
    for J in D.base.jump_xs:
        if not us[0] <= J <= us[-1]:
            continue
        a_j = float(np.asarray(a_fn(np.array([J])), dtype=float)[0])
        d = min(0.5 * x_min * a_j, 0.1 * J)
        if d > 0.0 and J - d > us[0]:
            extra.append(J - d)
    if extra:
        us = np.unique(np.concatenate([us, np.asarray(extra)]))
    av = np.asarray(a_fn(us), dtype=float)
    if np.any(av <= 0.0):
        raise ParamError("scale function a(u) must be positive")
    per_x = {}
    all_ok = True
    tail_half = us.size // 2
    for x in xs:
        ratios = np.exp(
            np.asarray(D.base.log_at(us + x * av), dtype=float)
            - np.asarray(D.base.log_at(us), dtype=float)
        )
        tail = ratios[tail_half:]
        spread = float(tail.max() - tail.min())
        target = float(spec.cdf_complement(x))
        dev = float(np.abs(tail - target).max())
        ok = spread <= tol and dev <= tol
        all_ok = all_ok and ok
        per_x[float(x)] = {"spread": spread, "deviation": dev, "target": target,
                           "mean": float(tail.mean())}
    return ConditionReport(
        condition="EXCESS-RATIO",
        passed=bool(all_ok),
        measured={"xi": xi, "per_x": per_x},
        tolerance=tol,
    )


def excess_family_violation(D: DistributionHandle, xi: float = 0.5,
                            x_probe: Sequence[float] | None = None,
                            threshold: float = 0.1) -> dict:
    """Max trailing spread per default scale family member.

    A tail violating the excess law keeps spread above the threshold for
    every member; returns per-member worst spreads and the overall verdict.
    """
    out = {}
    for name, fn in default_a_family():
        rep = gpd_ratio_probe(D, xi, fn, x_probe=x_probe, tol=threshold)
        worst = min(info["spread"] for info in rep.measured["per_x"].values())
        out[name] = worst
    return {"per_member_min_spread": out,
            "violated": all(v > threshold for v in out.values())}


# ---------------------------------------------------------------------------
# block maxima simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    n_values: tuple
    a_n: tuple
    b_n: tuple
    abscissas: tuple
    empirical_cdfs: tuple  # per n, tuple of probabilities
    distances: tuple  # per n, KS distance to the candidate limit (or None)
    seed: int
    reps: int
    candidate_alpha: float | None

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "a_n": list(self.a_n),
            "b_n": list(self.b_n),
            "abscissas": list(self.abscissas),
            "empirical_cdfs": [list(c) for c in self.empirical_cdfs],
            "distances": list(self.distances),
            "seed": self.seed,
            "reps": self.reps,
            "candidate_alpha": self.candidate_alpha,
        }


def frechet_cdf(x, alpha: float) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(xa > 0.0, np.exp(-np.where(xa > 0, xa, 1.0) ** (-alpha)), 0.0)
    return out


def normalized_maxima_cdf(D: DistributionHandle, n: int, x) -> np.ndarray:
    """Exact distribution of M_n / a_n at x: (1 - F-bar(a_n x))**n.

    It is the law of draws through D.quantile: 0 below D.quantile(1-), the
    least value the map returns, where F-bar(floor+) < 1 puts the rest.
    """
    a_n = float(D.quantile(1.0 / n))
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    pos = xa * a_n >= float(D.quantile(np.nextafter(1.0, 0.0)))
    tail = np.exp(np.asarray(D.base.log_at(np.where(pos, xa * a_n, 1.0)),
                             dtype=float))
    out[pos] = np.exp(n * np.log1p(-np.minimum(tail[pos], 1.0 - 1e-16)))
    return out


_DEFAULT_ABSCISSAS = tuple(np.logspace(-2, 2, 201))


def _least_levels(rng: np.random.Generator, n: int, reps: int) -> np.ndarray:
    """reps draws of the least of n iid uniform tail levels, one uniform each.

    The least level has the law of 1 - V**(1/n) with V ~ U(0,1). V lies on
    the open lattice {k 2**-53 : 0 < k < 2**53}, which keeps every level
    -expm1(log V / n) strictly inside (0,1) for all n >= 1.
    """
    v = rng.integers(1, 2 ** 53, size=reps) * 2.0 ** -53
    return -np.expm1(np.log(v) / n)


def block_maxima_simulate(D: DistributionHandle, n_values: Sequence[int],
                          reps: int, seed: int,
                          candidate_alpha: float | None = None,
                          abscissas: Sequence[float] | None = None
                          ) -> SimulationResult:
    """Replicated block maxima, normalized, with empirical distributions.

    Draws the maximum of n iid values from its exact law with one uniform
    per replication: the quantile map is nonincreasing in the tail level,
    so max_i Q(u_i) = Q(min_i u_i), and ``_least_levels`` draws min_i u_i.
    The cost does not grow with n. The counter-based generator is keyed by
    the seed, so results are bit-identical for a fixed seed. The maxima are
    normalized by b_n = 0 and a_n = tail-quantile(1/n), so block sizes start
    at 2.
    """
    if reps < 1:
        raise ParamError("simulation requires reps >= 1")
    ns = [int(n) for n in n_values]
    if not ns:
        raise ParamError("simulation requires at least one block size")
    if min(ns) < 2:
        raise ParamError(f"block size {min(ns)} is too small: block maxima need n >= 2")
    xs = np.asarray(abscissas if abscissas is not None else _DEFAULT_ABSCISSAS,
                    dtype=float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    a_list, cdfs, dists = [], [], []
    for n in ns:
        a_n = float(D.quantile(1.0 / n))
        if not a_n > 0:
            raise QuantileError("normalizing scale must be positive")
        maxima = D.quantile(_least_levels(rng, n, reps))
        z = np.sort(maxima / a_n)
        emp = np.searchsorted(z, xs, side="right") / reps
        cdfs.append(tuple(emp.tolist()))
        if candidate_alpha is not None:
            target = frechet_cdf(xs, candidate_alpha)
            dists.append(float(np.abs(emp - target).max()))
        else:
            dists.append(None)
        a_list.append(a_n)
    return SimulationResult(
        n_values=tuple(ns), a_n=tuple(a_list), b_n=(0.0,) * len(ns),
        abscissas=tuple(float(v) for v in xs),
        empirical_cdfs=tuple(cdfs), distances=tuple(dists),
        seed=int(seed), reps=int(reps), candidate_alpha=candidate_alpha,
    )


def subsequence_witness(D: DistributionHandle, k_values: Sequence[int] = (8, 10),
                        factor: int = 3, reps: int | None = None,
                        seed: int | None = None) -> dict:
    """Two-subsequence non-convergence witness for lattice-type tails.

    Compares the exact normalized-maxima laws along n = 2**k and n = 3*2**k;
    a genuine limit would make the two agree. Optionally confirms by
    simulation when reps and seed are given.
    """
    xs = np.asarray(_DEFAULT_ABSCISSAS, dtype=float)
    out: dict = {"pairs": []}
    for k in k_values:
        n1, n2 = 2 ** k, factor * 2 ** k
        c1 = normalized_maxima_cdf(D, n1, xs)
        c2 = normalized_maxima_cdf(D, n2, xs)
        ks = float(np.abs(c1 - c2).max())
        entry = {"n1": n1, "n2": n2, "ks_exact": ks}
        if reps is not None and seed is not None:
            sim = block_maxima_simulate(D, [n1, n2], reps, seed)
            e1 = np.asarray(sim.empirical_cdfs[0])
            e2 = np.asarray(sim.empirical_cdfs[1])
            entry["ks_empirical"] = float(np.abs(e1 - e2).max())
        out["pairs"].append(entry)
    out["max_ks_exact"] = max(p["ks_exact"] for p in out["pairs"])
    return out
