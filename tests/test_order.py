import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder.errors import ClassMismatch, ExtrapolationFailure, ParamError, TailOrderError
from tailorder.order import _extrapolate_intercept


def test_grid_validation():
    with pytest.raises(ParamError):
        to.GridSpec(log10_x_min=5.0, log10_x_max=3.0)
    with pytest.raises(ParamError):
        to.GridSpec(points=20, windows=8)
    # the first sample divides by log x_min
    with pytest.raises(ParamError):
        to.GridSpec(log10_x_min=0.0)


@pytest.mark.parametrize("field, value", [("points", 2000.5), ("windows", 8.5),
                                          ("points", 2000.0)])
def test_grid_counts_must_be_integers(field, value):
    with pytest.raises(ParamError, match="whole numbers"):
        to.GridSpec(**{field: value})
    # numpy integers count as integers
    assert to.GridSpec(points=np.int64(2000), windows=np.int64(8)).xs().size == 2000


def test_extrapolation_failure_is_typed():
    with pytest.raises(ExtrapolationFailure):
        _extrapolate_intercept(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0]))


# parameters for the catalog members that have no defaults
_MEMBER_PARAMS = {
    "oset_geometric": {"alpha": 0.8, "beta": 0.5, "x_a": 3.0},
    "oset_tower": {"c": 1.0, "alpha": 1.0},
    "pareto_tail": {"alpha": 1.5},
    "power_tail": {"alpha": -2.5},
    "ramp_power": {"alpha": 0.7},
}


@given(
    name=st.sampled_from(to.catalog_names()),
    lo=st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]), st.floats(0.0, 5.0)),
    span=st.one_of(st.sampled_from([1e-9, 1e-3, 300.0]), st.floats(1e-9, 300.0)),
    windows=st.integers(2, 40),
    extra=st.integers(0, 3000),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_classify_decided_or_typed_on_extreme_grids(name, lo, span, windows, extra):
    # every catalog member on any grid: a label without NaN, or a typed
    # error; numpy floating-point warnings count as failures
    handle = to.make_named(name, _MEMBER_PARAMS.get(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = to.GridSpec(log10_x_min=lo, log10_x_max=lo + span,
                               points=16 * windows + extra, windows=windows)
            label = to.classify(handle, grid)
        except TailOrderError:
            return
    assert not any(isinstance(v, float) and math.isnan(v) for v in label.to_dict().values())


def test_estimate_orders_power():
    mu, nu = to.estimate_orders(to.make_power_tail(-2.0))
    assert mu.value == pytest.approx(-2.0, abs=1e-9)
    assert nu.value == pytest.approx(-2.0, abs=1e-9)
    assert mu.spread == 0.0
    assert mu.trend is to.Trend.STABLE  # zero spread forces a stable verdict


def test_estimate_orders_oset_geometric():
    mu, nu = to.estimate_orders(to.make_oset_geometric(1.0, 0.0, 2.0))
    assert 0.45 <= mu.value <= 0.55
    assert 0.95 <= nu.value <= 1.05


def test_estimate_orders_two_plus_sin():
    mu, nu = to.estimate_orders(to.make_two_plus_sin())
    assert abs(mu.value) <= 0.05
    assert abs(nu.value) <= 0.05


def test_estimate_orders_step_oracle_agreement():
    # analytic envelope from the jump construction vs the estimator
    g = to.make_oset_geometric(1.0, 0.0, 2.0)
    mu, nu = to.estimate_orders(g)
    assert mu.value == pytest.approx(g.truth.mu, abs=0.05)
    assert nu.value == pytest.approx(g.truth.nu, abs=0.05)
    tw = to.make_oset_tower(1.0, -1.0)
    mu, nu = to.estimate_orders(tw)
    assert mu.value == -math.inf  # analytic minimum -4096 lies past the clamp
    assert nu.value == pytest.approx(-1.0, abs=0.05)


@pytest.mark.parametrize("make,expected_tag,rho", [
    (to.make_peter_paul, "M", -1.0),
    (to.make_exp_neg, "MInf", None),
    (to.make_exp_pos, "MNegInf", None),
    (to.make_floor_log_tail, "MInf", None),
    (to.make_two_plus_sin, "M", 0.0),
])
def test_classify_corpus(make, expected_tag, rho):
    label = to.classify(make())
    assert label.tag == expected_tag
    if rho is not None:
        assert label.rho == pytest.approx(rho, abs=0.05)


def test_classify_x_pow_sin_x():
    label = to.classify(to.make_x_pow_sin_x())
    assert label.tag == "Oscillating"
    assert label.mu == pytest.approx(-1.0, abs=0.05)
    assert label.nu == pytest.approx(1.0, abs=0.05)


def test_classify_tolerance_validation():
    with pytest.raises(ParamError):
        to.classify(to.make_power_tail(1.0), tol=0.0)


def test_classify_tolerance_must_be_finite():
    # an infinite tolerance would call every window gap a finite order
    with pytest.raises(ParamError, match="got inf"):
        to.classify(to.make_x_pow_sin_x(), tol=math.inf)


@pytest.mark.parametrize("r,tag", [
    (1.0, "Convergent"),   # exponent 1 - 2 below the integrability line
    (3.0, "Divergent"),
])
def test_probe_power(r, tag):
    v = to.probe_integral_convergence(to.make_power_tail(-2.0), r)
    assert v.tag == tag
    assert len(v.trace) >= 4
    assert all(a[0] < b[0] for a, b in zip(v.trace, v.trace[1:]))


def test_probe_peter_paul_razor():
    pp = to.make_peter_paul()
    assert to.probe_integral_convergence(pp, 0.999).tag == "Convergent"
    assert to.probe_integral_convergence(pp, 1.001).tag == "Divergent"


@pytest.mark.parametrize("alpha", [-3.0, -2.0, -1.0, 0.0, 2.0])
def test_estimate_kappa_powers(alpha):
    est = to.estimate_kappa(to.make_power_tail(alpha))
    assert est.value == pytest.approx(-alpha, abs=0.01)


def test_estimate_kappa_rapid():
    assert to.estimate_kappa(to.make_exp_neg()).value == math.inf
    assert to.estimate_kappa(to.make_exp_pos()).value == -math.inf


def test_estimate_kappa_peter_paul():
    est = to.estimate_kappa(to.make_peter_paul())
    assert est.value == pytest.approx(1.0, abs=0.06)


def test_second_characterization():
    rep = to.check_second_characterization(to.make_power_tail(3.0))
    assert rep.passed
    assert rep.measured["kappa"] == pytest.approx(-3.0, abs=0.01)
    rep = to.check_second_characterization(to.make_peter_paul())
    assert rep.passed
    with pytest.raises(ClassMismatch):
        to.check_second_characterization(to.make_exp_neg())


def test_index_negation_across_corpus():
    for h in to.corpus_m_members():
        est = to.estimate_kappa(h)
        assert est.value == pytest.approx(-h.truth.rho, abs=0.06), h.name


def test_tail_members_have_nonnegative_kappa():
    for h in to.corpus_m_members():
        if h.truth.is_tail:
            assert to.estimate_kappa(h).value >= -0.06, h.name


def test_dominance():
    # higher order dominates: the ratio collapses by the end of the grid
    pairs = [
        (to.make_power_tail(-1.0), to.make_power_tail(-2.0)),
        (to.make_peter_paul(), to.make_power_tail(-2.0)),
        (to.make_power_tail(2.0), to.make_two_plus_sin()),
    ]
    x_end = to.GridSpec().xs()[-1]
    for upper, lower in pairs:
        assert upper.truth.rho > lower.truth.rho
        ratio = math.exp(lower.log_at(x_end) - upper.log_at(x_end))
        assert ratio < 1e-3


def test_integrability_at_unity():
    for h in to.corpus_m_members():
        rho = h.truth.rho
        if abs(rho + 1.0) < 0.25:
            continue  # boundary members excluded
        v = to.probe_integral_convergence(h, 1.0)
        assert v.tag == ("Convergent" if rho < -1.0 else "Divergent"), h.name


def test_rv_ratio_power():
    rep = to.rv_ratio_test(to.make_power_tail(-2.0), [2.0, 5.0, 10.0])
    assert rep.passed
    assert rep.measured["rho"] == pytest.approx(-2.0, abs=1e-6)


def test_rv_ratio_peter_paul_fails():
    rep = to.rv_ratio_test(to.make_peter_paul(), [3.0])
    assert not rep.passed
    assert rep.measured["witness_t"] == 3.0


def test_rv_ratio_two_plus_sin_fails_but_classifies():
    h = to.make_two_plus_sin()
    assert not to.rv_ratio_test(h, [2.0]).passed
    assert to.classify(h).tag == "M"


def test_rv_ratio_needs_a_scale_other_than_one():
    # t = 1 compares U with itself: with no other t the test checked nothing
    with pytest.raises(ParamError, match="needs a scale t != 1"):
        to.rv_ratio_test(to.make_power_tail(-2.0), [1.0])
    rep = to.rv_ratio_test(to.make_power_tail(-2.0), [1.0, 2.0])
    assert rep.passed and list(rep.measured["per_t"]) == [2.0]


@pytest.mark.parametrize("t", [0.0, -2.0, math.nan, math.inf])
def test_rv_ratio_bad_scale_is_named(t):
    with pytest.raises(ParamError, match=f"finite t > 0, got t={t:g}"):
        to.rv_ratio_test(to.make_power_tail(-2.0), [2.0, t])


def test_remark_mix_grid_vs_targeted():
    h = to.make_remark7_mix()
    # the grid sees only the rapid-decay branch
    assert to.classify(h).tag == "MInf"
    assert to.estimate_kappa(h).value == math.inf
    # targeted probes inside the vanishing intervals tell the real story
    for x, r in to.remark_mix_demo(h):
        assert r == pytest.approx(-1.0, abs=1e-9)


def test_order_samples_validates():
    with pytest.raises(to.DomainError):
        to.order_samples(to.make_power_tail(1.0), [0.5])


def test_kappa_undecided_at_bracket_boundary():
    # moment index exactly at the search edge: the probe cannot take sides
    h = to.make_power_tail(-64.0)
    with pytest.raises(to.UndecidedConvergence):
        to.estimate_kappa(h)
