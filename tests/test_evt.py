import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import evt
from tailorder.errors import DomainError, NonDifferentiable, ParamError, QuantileError


def gauss_tail():
    truth = to.KnownTruth(label=to.ClassLabel.m_inf(), kappa=math.inf, is_tail=True)
    return to.FunctionHandle(
        name="exp_neg_square",
        log_at_logx=lambda u: -np.exp(2.0 * np.asarray(u, dtype=float)),
        log_at_x=lambda x: -np.asarray(x, dtype=float) ** 2,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# distribution handles
# ---------------------------------------------------------------------------


def test_distribution_requires_tail():
    with pytest.raises(ParamError):
        to.distribution_for(to.make_two_plus_sin())


def test_pareto_quantile_inverts_tail():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    for u in (0.5, 0.01, 1e-6):
        x = D.quantile(u)
        assert math.exp(D.base.log_at(x)) == pytest.approx(u, rel=1e-12)


def test_peter_paul_quantile_levels():
    D = to.distribution_for(to.make_peter_paul())
    assert D.quantile(0.5) == 2.0
    assert D.quantile(0.25) == 4.0
    assert D.quantile(0.3) == 4.0  # left endpoint of the level set


def test_quantile_beyond_float_range_is_a_quantile_error():
    # u ** (1/alpha) overflows for alpha = -0.001 and u < 0.49; the
    # normalizing scale a_n would be inf
    D = to.distribution_for(to.make_power_tail(-0.001))
    assert D.quantile(0.9) == pytest.approx(0.9 ** -1000.0, rel=1e-12)
    for u in (0.01, np.array([0.9, 0.01])):
        with pytest.raises(QuantileError, match=r"^power_tail\(alpha=-0.001\): quantile"):
            D.quantile(u)
    with pytest.raises(QuantileError, match="power_tail"):
        to.block_maxima_simulate(D, [100], reps=200, seed=1)


@pytest.mark.parametrize("call, message", [
    # U = x**0 never falls below 1: the bisection bracket runs away
    (lambda: to.distribution_for(to.make_power_tail(0.0)).quantile(0.5),
     "quantile bracket ran away"),
    # a quantile map that reads 0 leaves the maxima no normalizing scale
    (lambda: to.block_maxima_simulate(
        to.DistributionHandle(to.make_pareto_tail(1.0), lambda u: 0.0 * np.asarray(u)),
        [10], 5, 1), "normalizing scale must be positive"),
], ids=["bracket", "zero-scale"])
def test_a_quantile_without_a_usable_value_is_a_quantile_error(call, message):
    with pytest.raises(QuantileError, match=f"^{message}$"):
        call()


@given(u=st.floats(min_value=1e-12, max_value=0.7))
@settings(max_examples=100, deadline=None)
def test_generic_quantile_bisection(u):
    # exercise the generic monotone bisection on a tail without a closed
    # form; identity holds on the strictly decreasing continuous segment
    # (the tail is frozen at ~0.736 below x = e)
    D = to.distribution_for(to.make_log_perturbed_power(-1.0, 1.0))
    x = D.quantile(u)
    assert math.exp(D.base.log_at(x)) == pytest.approx(u, rel=1e-6)


def _quantile_one_point(base, u):
    # reference: the same bracket and bisection, one point at a time
    lo, hi = 1e-12, 4.0
    while base.log_at(hi) > math.log(u):
        hi *= 4.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if base.log_at(mid) > math.log(u):
            lo = mid
        else:
            hi = mid
    return hi


def test_generic_quantile_block_matches_pointwise():
    # the quantile keeps the shape of its array of levels
    base = to.make_log_perturbed_power(-2.0, 0.5)
    D = to.distribution_for(base)
    u = np.array([[1e-9, 1e-4, 0.01], [0.05, 0.15, 0.5]])
    got = D.quantile(u)
    assert got.shape == u.shape
    want = [[_quantile_one_point(base, v) for v in row] for row in u]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _counting(base):
    # the same tail, counting its log_at_logx calls
    calls = [0]

    def log_at_logx(u):
        calls[0] += 1
        return base.log_at_logx(u)

    return dataclasses.replace(base, log_at_logx=log_at_logx), calls


def _quantile_200_steps(base, u):
    # reference: the vectorized bracket and all 200 bisection steps
    target = np.log(u).ravel()
    lo = np.full(target.shape, 1e-12)
    hi = np.full(target.shape, 4.0)
    grow = base.log_at(hi) > target
    while grow.any():
        hi = np.where(grow, hi * 4.0, hi)
        grow = base.log_at(hi) > target
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        above = base.log_at(mid) > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return hi.reshape(u.shape)


def test_generic_quantile_stops_at_bisection_fixed_point():
    base = to.make_log_perturbed_power(-2.0, 0.5)
    u = np.concatenate([np.logspace(-30, -0.01, 500), [np.nextafter(1.0, 0.0)]])
    want = _quantile_200_steps(base, u)
    counted, calls = _counting(base)
    got = to.distribution_for(counted).quantile(u)
    assert got.tobytes() == want.tobytes()
    # the bracket takes at most 26 growth steps at u = 1e-30; the bisection
    # reaches its fixed point after about 60 steps instead of running 200
    assert calls[0] <= 100


def test_hand_built_tail_named_like_catalog_gets_generic_quantile():
    # no dispatch on the name: only a quantile set on the handle is used
    inner = to.make_log_perturbed_power(-2.0, 0.5)
    handle = to.FunctionHandle(name="power_tail(alpha=-2)",
                               log_at_logx=inner.log_at_logx, truth=inner.truth)
    D = to.distribution_for(handle)
    for u in (0.01, 1e-6):
        assert math.exp(handle.log_at(D.quantile(u))) == pytest.approx(u, rel=1e-9)


def test_closed_form_quantiles_are_set_by_constructors():
    assert to.make_power_tail(-2.0).quantile is not None
    assert to.make_pareto_tail(2.0).quantile is not None
    assert to.make_peter_paul().quantile is not None
    assert to.make_exp_neg().quantile is not None
    assert to.make_power_tail(0.0).quantile is None
    assert to.make_log_perturbed_power(-2.0, 0.5).quantile is None
    u = np.array([1e-9, 0.3, 0.9])
    D = to.distribution_for(to.make_pareto_tail(2.5))
    assert D.quantile(u).tobytes() == (u ** (-1.0 / 2.5)).tobytes()


# ---------------------------------------------------------------------------
# differentiable sufficient conditions
# ---------------------------------------------------------------------------


def test_hazard_ratio_pareto():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    est = to.von_mises_frechet(D)
    assert est.value == pytest.approx(2.0, abs=0.01)


def test_hazard_ratio_log_perturbed():
    D = to.distribution_for(to.make_log_perturbed_power(-1.0, 1.0))
    est = to.von_mises_frechet(D)
    assert est.value == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("probe", [to.von_mises_frechet, to.von_mises_gumbel])
def test_derivative_probes_reject_steps(probe):
    with pytest.raises(NonDifferentiable, match="^peter_paul: tail is not differentiable$"):
        probe(to.distribution_for(to.make_peter_paul()))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_hazard_ratio_consistent_with_moment_index(alpha):
    # the hazard-ratio limit equals the negated order, hence the moment
    # index of the tail
    D = to.distribution_for(to.make_pareto_tail(alpha))
    vm = to.von_mises_frechet(D)
    assert vm.value == pytest.approx(alpha, abs=0.01)
    kappa = to.estimate_kappa(D.base)
    assert kappa.value == pytest.approx(alpha, abs=0.06)


@pytest.mark.parametrize("make,want", [
    (to.make_exp_neg, 0.0),
    (gauss_tail, 0.0),
])
def test_flatness_probe_rapid_tails(make, want):
    D = to.distribution_for(make())
    est = to.von_mises_gumbel(D)
    assert est.value == pytest.approx(want, abs=1e-3)


def test_flatness_probe_fails_on_pareto():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    est = to.von_mises_gumbel(D)
    assert est.value == pytest.approx(0.5, abs=0.01)  # nonzero limit: no flatness


def test_flatness_implies_rapid_class():
    for make in (to.make_exp_neg, gauss_tail):
        D = to.distribution_for(make())
        assert abs(to.von_mises_gumbel(D).value) <= 0.05
        assert to.classify(D.base).tag == "MInf"


# ---------------------------------------------------------------------------
# domain-of-attraction verdicts
# ---------------------------------------------------------------------------


def test_da_pareto_frechet():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    rep = to.classify_domain_attraction(D)
    assert rep.kind == "Frechet"
    assert rep.alpha == pytest.approx(2.0, abs=0.05)


def test_da_peter_paul_not_classified():
    D = to.distribution_for(to.make_peter_paul())
    rep = to.classify_domain_attraction(D)
    assert rep.kind == "NotClassified"
    assert rep.label.tag == "M"
    assert rep.label.rho == pytest.approx(-1.0, abs=0.05)


def test_da_floor_log_not_classified_despite_rapid_decay():
    D = to.distribution_for(to.make_floor_log_tail())
    rep = to.classify_domain_attraction(D)
    assert rep.kind == "NotClassified"
    assert rep.label.tag == "MInf"


def test_da_exp_candidate_only():
    D = to.distribution_for(to.make_exp_neg())
    rep = to.classify_domain_attraction(D)
    assert rep.kind == "GumbelInfCandidate"  # membership is never asserted


def test_quantile_level_validation():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    with pytest.raises(to.QuantileError):
        D.quantile(0.0)
    with pytest.raises(to.QuantileError):
        D.quantile(1.5)
    for make in (lambda: to.make_pareto_tail(2.0), lambda: to.make_log_perturbed_power(-2.0)):
        with pytest.raises(to.QuantileError, match=r"tail level must lie in \(0,1\)"):
            to.distribution_for(make()).quantile(np.array([0.5, math.nan]))


# ---------------------------------------------------------------------------
# threshold-excess ratio probe
# ---------------------------------------------------------------------------


def test_excess_ratio_pareto_matches_gpd():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    rep = to.gpd_ratio_probe(D, 0.5, lambda u: np.asarray(u) / 2.0,
                             x_probe=[0.5, 1.0, 2.0, 4.0, 8.0], tol=0.01)
    assert rep.passed
    for x, info in rep.measured["per_x"].items():
        assert info["deviation"] <= 0.01
        assert info["target"] == pytest.approx((1.0 + 0.5 * x) ** -2.0)


def test_excess_ratio_support_validation():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    with pytest.raises(ParamError):
        to.gpd_ratio_probe(D, -0.5, lambda u: np.asarray(u), x_probe=[3.0])
    with pytest.raises(ParamError, match=r"^scale function a\(u\) must be positive and finite$"):
        to.gpd_ratio_probe(D, 0.5, lambda u: -np.asarray(u))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("tail", [to.make_pareto_tail(1.5), to.make_named("peter_paul", {})],
                         ids=["pareto", "peter_paul"])
def test_excess_ratio_refuses_a_scale_that_is_not_positive_and_finite(tail, value):
    # the probe's own refusal, not the tail's at u + x a(u); peter_paul's
    # jumps are read before the thresholds
    D = to.distribution_for(tail)
    with pytest.raises(ParamError, match=r"^scale function a\(u\) must be positive and finite$"):
        to.gpd_ratio_probe(D, 0.5, lambda u: np.full_like(u, value))


def test_excess_ratio_refuses_a_bad_scale_at_a_jump_alone():
    # a(u) is NaN only at peter_paul's jumps, the powers of two
    D = to.distribution_for(to.make_named("peter_paul", {}))

    def a_fn(u):
        return np.where(np.log2(u) % 1.0 == 0.0, np.nan, u / 2.0)

    with pytest.raises(ParamError, match=r"^scale function a\(u\) must be positive and finite$"):
        to.gpd_ratio_probe(D, 0.5, a_fn)


@pytest.mark.parametrize("tail", [to.make_pareto_tail(1.5), to.make_named("peter_paul", {})],
                         ids=["pareto", "peter_paul"])
@pytest.mark.parametrize("x_probe, x", [((0.5, 1.0, 2.0, 4.0, 8.0), "2"), ((8.0,), "8")])
def test_excess_ratio_refuses_a_scale_that_carries_u_beyond_the_float_range(tail, x_probe, x):
    # a finite a(u) with u + x a(u) = inf is refused by the probe, before the
    # tail is read at infinity, and no overflow warning escapes; a(u) = 1e300
    # keeps every u + x a(u) finite and runs
    D = to.distribution_for(tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=r"^scale function a\(u\) too large: u \+ x a\(u\) "
                                             f"leaves the float range at x = {x}$"):
            to.gpd_ratio_probe(D, 0.5, lambda u: np.full_like(u, 1e308), x_probe=x_probe)
        rep = to.gpd_ratio_probe(D, 0.5, lambda u: np.full_like(u, 1e300), x_probe=x_probe)
    assert rep.condition == "EXCESS-RATIO"


def test_excess_ratio_refuses_a_probe_point_that_takes_u_to_0_or_below():
    # 1 + xi x > 0 at x = -1.5 and xi = 0.5, but u + x a(u) = -u / 2 with
    # a(u) = u: the probe refuses x before the tail is read there; x = -0.5
    # keeps every excess positive and runs
    D = to.distribution_for(to.make_pareto_tail(1.5))
    with pytest.raises(ParamError, match=r"^probe point x = -1.5 takes u \+ x a\(u\) to 0 "
                                         r"or below, outside the tail's support$"):
        to.gpd_ratio_probe(D, 0.5, lambda u: u, x_probe=[0.5, -1.5])
    rep = to.gpd_ratio_probe(D, 0.5, lambda u: u, x_probe=[-0.5])
    assert list(rep.measured["per_x"]) == [-0.5]


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_excess_ratio_refuses_a_non_finite_xi(xi):
    D = to.distribution_for(to.make_pareto_tail(2.0))
    with pytest.raises(ParamError, match=f"^xi {xi!r} is out of range: .* here a finite xi$"):
        to.gpd_ratio_probe(D, xi, lambda u: np.asarray(u) / 2.0)


def test_excess_ratio_refuses_no_probe_points():
    D = to.distribution_for(to.make_pareto_tail(2.0))
    with pytest.raises(ParamError, match="at least one point in x_probe$"):
        to.gpd_ratio_probe(D, 0.5, lambda u: np.asarray(u) / 2.0, x_probe=())
    with pytest.raises(ParamError, match="at least one point in x_probe$"):
        to.excess_family_violation(D, x_probe=[])


def test_excess_violation_for_oscillating_tails():
    for make in (lambda: to.make_oset_geometric(1.0, -2.0, 2.0),
                 lambda: to.make_oset_tower(1.0, -1.0)):
        D = to.distribution_for(make())
        out = to.excess_family_violation(D, threshold=0.1)
        assert out["violated"], out
        assert all(v > 0.1 for v in out["per_member_min_spread"].values())


def test_gpd_spec_support():
    spec = to.GPDSpec(xi=0.5)
    with pytest.raises(ParamError):
        spec.cdf_complement(-3.0)
    zero = to.GPDSpec(xi=0.0)
    assert zero.cdf_complement(1.0) == pytest.approx(math.exp(-1.0))


# ---------------------------------------------------------------------------
# block maxima
# ---------------------------------------------------------------------------


def test_simulation_determinism():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    s1 = to.block_maxima_simulate(D, [1000], reps=500, seed=7, candidate_alpha=1.0)
    s2 = to.block_maxima_simulate(D, [1000], reps=500, seed=7, candidate_alpha=1.0)
    assert s1 == s2
    s3 = to.block_maxima_simulate(D, [1000], reps=500, seed=8, candidate_alpha=1.0)
    assert s1 != s3


_ABSCISSA_BYTES = ("import sys, numpy as np; from tailorder import evt; "
                   "sys.stdout.write(np.array(evt._ABSCISSAS).tobytes().hex())")


def test_simulation_abscissas_do_not_depend_on_numpy_simd(simd_envs):
    # numpy picks its SIMD kernels by CPU; the abscissas must not follow them
    plain_env, scalar_env = simd_envs

    def abscissa_bytes(env):
        return subprocess.run([sys.executable, "-c", _ABSCISSA_BYTES], env=env,
                              capture_output=True, text=True, check=True).stdout

    plain = abscissa_bytes(plain_env)
    assert len(plain) == 2 * 8 * 201
    assert abscissa_bytes(scalar_env) == plain


def test_simulation_rejects_bad_reps():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    with pytest.raises(ParamError):
        to.block_maxima_simulate(D, [100], reps=0, seed=1)


@pytest.mark.parametrize("n_values", [[1], [100, 1], [0], [-5]])
def test_simulation_rejects_block_sizes_below_two(n_values):
    # a block of one value has no maximum to normalize: refused up front,
    # naming the block size, before any quantile is asked for
    D = to.distribution_for(to.make_pareto_tail(1.0))
    bad = min(n_values)
    with pytest.raises(ParamError, match=f"block size {bad} "):
        to.block_maxima_simulate(D, n_values, reps=10, seed=1)


def test_simulation_rejects_no_block_sizes():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    with pytest.raises(ParamError):
        to.block_maxima_simulate(D, [], reps=10, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, None],
                         ids=["negative", "2**128", "float", "none"])
def test_simulation_rejects_a_seed_the_generator_cannot_take(seed):
    D = to.distribution_for(to.make_pareto_tail(1.0))
    with pytest.raises(ParamError, match=f"seed {seed} "):
        to.block_maxima_simulate(D, [10], 5, seed)
    assert to.block_maxima_simulate(D, [10], 5, 2 ** 128 - 1).seed == 2 ** 128 - 1


def test_pareto_maxima_near_frechet():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    sim = to.block_maxima_simulate(D, [10_000], reps=2000, seed=7,
                                   candidate_alpha=1.0)
    assert sim.distances[0] < 0.05
    # empirical curve within the sampling band of the exact finite-n law
    oracle = to.normalized_maxima_cdf(D, 10_000, np.asarray(sim.abscissas))
    emp = np.asarray(sim.empirical_cdfs[0])
    assert np.abs(emp - oracle).max() <= 3.0 / math.sqrt(2000)


def test_exact_law_matches_frechet_for_pareto():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    xs = np.logspace(-1, 1, 40)
    got = to.normalized_maxima_cdf(D, 10_000, xs)
    want = to.frechet_cdf(xs, 1.0)
    assert np.abs(got - want).max() <= 2e-4


def test_peter_paul_subsequences_disagree():
    D = to.distribution_for(to.make_peter_paul())
    out = to.subsequence_witness(D, k_values=(8, 10), reps=2000, seed=11)
    assert out["max_ks_exact"] >= 0.05
    for pair in out["pairs"]:
        assert pair["ks_empirical"] >= 0.05


@pytest.mark.parametrize("k_values,match", [
    ((), "at least one k in k_values$"),
    ((0,), "k 0 is out of range"),
    ((2000,), "k 2000 is out of range"),
    ((8, 1023), "k 1023 is out of range"),  # 3 * 2**1023 is past the float range
], ids=["no-k", "k=0", "k=2000", "k=1023"])
def test_subsequence_witness_refuses_a_bad_k(k_values, match):
    D = to.distribution_for(to.make_peter_paul())
    with pytest.raises(ParamError, match=match):
        to.subsequence_witness(D, k_values=k_values)


def test_subsequence_witness_at_the_float_end_is_refused_without_a_warning():
    # at k = 1022 a_n is about 4.5e307, so a_n times the abscissa 100 overflows
    D = to.distribution_for(to.make_peter_paul())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(to.TailOrderError, match=r"^block size 4\.49423e\+307: "):
            to.subsequence_witness(D, k_values=(1022,))


@pytest.mark.parametrize("n", [0, 1])
def test_exact_law_refuses_block_sizes_below_two(n):
    D = to.distribution_for(to.make_pareto_tail(1.0))
    with pytest.raises(ParamError, match=f"block size {n} is out of range"):
        to.normalized_maxima_cdf(D, n, np.array([1.0, 2.0]))


def test_exact_law_matches_draws_when_tail_starts_below_one():
    # frozen below e, this tail has F-bar(0+) of about 0.11 < 1/n: the
    # quantile map returns its least value for most levels, and the exact
    # law must put the missing mass there, not below every a_n x > 0
    D = to.distribution_for(to.make_log_perturbed_power(alpha=-2.465, c=0.333))
    reps = 20_000
    sim = to.block_maxima_simulate(D, [4], reps=reps, seed=354986116)
    oracle = to.normalized_maxima_cdf(D, 4, np.asarray(sim.abscissas))
    emp = np.asarray(sim.empirical_cdfs[0])
    assert np.abs(emp - oracle).max() <= 3.0 / math.sqrt(reps)


def _ks_to_oracle(D, n, reps, seed):
    sim = to.block_maxima_simulate(D, [n], reps=reps, seed=seed)
    oracle = to.normalized_maxima_cdf(D, n, np.asarray(sim.abscissas))
    return float(np.abs(np.asarray(sim.empirical_cdfs[0]) - oracle).max())


@pytest.mark.parametrize("make,n", [
    (to.make_peter_paul, 256),
    (to.make_peter_paul, 3072),
    (to.make_exp_neg, 1000),
])
def test_exact_sampler_matches_oracle_at_many_reps(make, n):
    reps = 200_000
    assert _ks_to_oracle(to.distribution_for(make()), n, reps, seed=5) \
        <= 3.0 / math.sqrt(reps)


def test_pareto_maxima_at_block_size_one_billion():
    reps = 20_000
    D = to.distribution_for(to.make_pareto_tail(1.5))
    assert _ks_to_oracle(D, 10 ** 9, reps, seed=3) <= 3.0 / math.sqrt(reps)


class _ExtremeDraws:
    # stands in for the generator: both ends of the drawn integer range
    def integers(self, low, high, size):
        return np.array([low, high - 1])


@pytest.mark.parametrize("n", [1, 10 ** 4, 10 ** 9])
def test_least_levels_stay_inside_unit_interval(n):
    levels = evt._least_levels(_ExtremeDraws(), n, 2)
    assert np.all((levels > 0.0) & (levels < 1.0))
    for make in (lambda: to.make_pareto_tail(1.0), to.make_peter_paul,
                 to.make_exp_neg, lambda: to.make_log_perturbed_power(-2.0, 0.5)):
        x = to.distribution_for(make()).quantile(levels)
        assert np.all(np.isfinite(x))


def test_one_quantile_call_of_reps_points_per_block_size():
    D = to.distribution_for(to.make_pareto_tail(1.0))
    sizes = []

    def quantile(u):
        sizes.append(np.size(u))
        return D.quantile(u)

    counted = dataclasses.replace(D, quantile=quantile)
    to.block_maxima_simulate(counted, [2, 1000, 10 ** 9], reps=300, seed=2)
    # per block size: the scalar a_n, then the reps maxima
    assert sizes == [1, 300, 1, 300, 1, 300]


def test_a_nan_abscissa_is_refused_by_name():
    # a NaN lies neither in the support nor below it, so no probability is due
    D = to.distribution_for(to.make_pareto_tail(1.0))
    with pytest.raises(DomainError, match="x = nan$"):
        to.normalized_maxima_cdf(D, 10, np.array([np.nan, 1.0]))
    with pytest.raises(DomainError, match="x = nan$"):
        to.frechet_cdf(np.array([1.0, np.nan]), 1.0)
