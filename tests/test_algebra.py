import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder import quadrature
from tailorder.errors import DomainError, ParamError, QuadratureFailure
from tailorder.labels import ORDER_BOUND

L = to.ClassLabel


# ---------------------------------------------------------------------------
# label arithmetic
# ---------------------------------------------------------------------------


def _carrying(label):
    """A handle whose truth is ``KnownTruth(label)``: the constructors read only its label."""
    return dataclasses.replace(to.make_power_tail(0.0), truth=to.KnownTruth(label))


def _closure_label(op, *labels, a=None):
    """The label that constructor ``op`` predicts from operands carrying ``labels``."""
    operands = [_carrying(label) for label in labels]
    return (op(*operands) if a is None else op(a, *operands)).truth.label


# the row ids keep the names of the operations
_OP_IDS = {to.scale_add: "ScaleAdd", to.reciprocal: "Reciprocal", to.product: "Product",
           to.convolve: "Convolve", to.compose: "Compose"}


@pytest.mark.parametrize("op,operands,a,expected", [
    (to.scale_add, [L.m(-2.0), L.m(-1.0)], 1.0, L.m(-1.0)),
    (to.scale_add, [L.m(-2.0), L.m(3.0)], 0.0, L.m(3.0)),
    (to.scale_add, [L.m_inf(), L.m_inf()], 1.0, L.m_inf()),
    (to.scale_add, [L.m_neg_inf(), L.m_neg_inf()], 2.0, L.m_neg_inf()),
    (to.scale_add, [L.m_inf(), L.m(1.0)], 1.0, L.m(1.0)),
    (to.scale_add, [L.m(-2.0), L.m_neg_inf()], 1.0, L.m_neg_inf()),
    (to.scale_add, [L.m(-2.0), L.oscillating(0.0, 1.0)], 1.0, L.undecided()),
    (to.reciprocal, [L.m(-2.0)], None, L.m(2.0)),
    (to.reciprocal, [L.m_inf()], None, L.m_neg_inf()),
    (to.reciprocal, [L.oscillating(0.5, 1.0)], None, L.oscillating(-1.0, -0.5)),
    (to.product, [L.m(-2.0), L.m(3.0)], None, L.m(1.0)),
    (to.product, [L.m(0.0), L.m(-1.5)], None, L.m(-1.5)),
    (to.product, [L.m_inf(), L.m(5.0)], None, L.m_inf()),
    (to.product, [L.m_neg_inf(), L.m(5.0)], None, L.m_neg_inf()),
    (to.product, [L.m_inf(), L.m_neg_inf()], None, L.undecided()),
    (to.convolve, [L.m(-3.0), L.m(-2.0)], None, L.m(-2.0)),
    (to.convolve, [L.m(0.0), L.m(0.0)], None, L.m(1.0)),
    (to.convolve, [L.m(-0.5), L.m(-0.5)], None, L.m(0.0)),
    (to.convolve, [L.m(-3.0), L.m(2.0)], None, L.m(2.0)),
    (to.convolve, [L.m(-1.0), L.m(-0.5)], None, L.undecided()),
    (to.convolve, [L.m(-3.0), L.m(-0.5)], None, L.undecided()),
    (to.convolve, [L.m_inf(), L.m(-0.5)], None, L.undecided()),
    (to.convolve, [L.m_inf(), L.m(5.0)], None, L.m(5.0)),
    (to.convolve, [L.m_inf(), L.m_inf()], None, L.m_inf()),
    (to.convolve, [L.m_neg_inf(), L.m(1.0)], None, L.m_neg_inf()),
    (to.compose, [L.m(-2.0), L.m(3.0)], None, L.m(-6.0)),
    (to.compose, [L.m(-2.0), L.m(-3.0)], None, L.undecided()),
    (to.compose, [L.m_inf(), L.m(2.0)], None, L.m_inf()),
    (to.compose, [L.m_inf(), L.m_neg_inf()], None, L.m_inf()),
    (to.compose, [L.oscillating(0.0, 1.0), L.m(2.0)], None, L.undecided()),
    (to.compose, [L.m(-2.0), L.m_neg_inf()], None, L.m_inf()),
    (to.compose, [L.m(0.5), L.m_neg_inf()], None, L.m_neg_inf()),
], ids=lambda v: _OP_IDS.get(v) if callable(v) else None)
def test_predicted_class_table(op, operands, a, expected):
    assert _closure_label(op, *operands, a=a) == expected


@pytest.mark.parametrize("build,name,value", [
    pytest.param(lambda a: to.scale_add(a, to.make_power_tail(1.0), to.make_power_tail(2.0)),
                 "a", v, id=f"scale_add-a={v:g}") for v in (-1.0, math.inf, math.nan)
] + [
    pytest.param(lambda rho: to.regularize_origin(to.make_power_tail(2.0), rho),
                 "rho", v, id=f"regularize_origin-rho={v:g}") for v in (0.0, -1.0, math.inf, math.nan)
])
def test_a_weight_or_order_outside_its_finite_range_is_refused_when_built(build, name, value):
    # an infinite weight would make every value +inf under a finite label and
    # an infinite order log U = -inf below 1; a NaN would fail only when evaluated
    with pytest.raises(ParamError, match=f"^{name} {value!r} is out of range"):
        build(value)


_P = to.make_power_tail


@pytest.mark.parametrize("h, expected", [
    (to.product(_P(100.0), _P(100.0)), L.m_neg_inf()),
    (to.product(_P(-100.0), _P(-100.0)), L.m_inf()),
    (to.compose(_P(20.0), _P(20.0)), L.m_neg_inf()),
    (to.reciprocal(to.product(_P(100.0), _P(100.0))), L.m_inf()),
    (to.convolve(_P(100.0), _P(100.0)), L.m_neg_inf()),
], ids=lambda v: v.name if isinstance(v, to.FunctionHandle) else str(v))
def test_a_closure_order_beyond_the_bound_is_the_infinite_class(h, expected):
    # orders 200, -200, 400, -200 and 201: classify reads each as infinite,
    # and so does the closure rule
    assert h.truth.label == expected
    assert to.classify(h) == expected


_ORDER = st.floats(min_value=-ORDER_BOUND, max_value=ORDER_BOUND)
_EDGE = st.one_of(_ORDER, st.sampled_from([-math.inf, math.inf]))


@given(label=st.one_of(
    _ORDER.map(L.m),
    st.just(L.m_inf()),
    st.just(L.m_neg_inf()),
    st.tuples(_EDGE, _EDGE).filter(lambda e: e[0] < e[1]).map(lambda e: L.oscillating(*e)),
))
@settings(max_examples=200, deadline=None)
def test_a_decided_label_is_its_pair_of_orders(label):
    assert L.from_orders(*label.orders) == label


def test_undecided_has_no_orders():
    assert all(math.isnan(v) for v in L.undecided().orders)
    assert L.from_orders(math.nan, 1.0) == L.undecided()
    assert L.from_orders(2.0, 1.0) == L.undecided()


@given(rho=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_reciprocal_label_involution(rho):
    lab = L.m(rho)
    twice = _closure_label(to.reciprocal, _closure_label(to.reciprocal, lab))
    assert twice == lab


@given(a=st.floats(min_value=-5, max_value=5), b=st.floats(min_value=-5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_product_label_commutes(a, b):
    for op in (to.product, to.convolve):
        assert _closure_label(op, L.m(a), L.m(b)) == _closure_label(op, L.m(b), L.m(a))


# ---------------------------------------------------------------------------
# constructed handles
# ---------------------------------------------------------------------------


def test_scale_add_values_and_label():
    u, v = to.make_power_tail(-2.0), to.make_power_tail(-1.0)
    h = to.scale_add(1.0, u, v)
    x = 50.0
    want = math.log(x ** -2 + x ** -1)
    assert h.log_at(x) == pytest.approx(want, abs=1e-12)
    assert h.truth.label == L.m(-1.0)
    assert to.classify(h).rho == pytest.approx(-1.0, abs=0.05)


def test_scale_add_zero_weight_is_other_operand():
    u, v = to.make_power_tail(-2.0), to.make_power_tail(3.0)
    h = to.scale_add(0.0, u, v)
    assert h.truth.label == L.m(3.0)
    assert h.log_at(7.0) == v.log_at(7.0)


def test_scale_add_rapid_decay_closed():
    h = to.scale_add(1.0, to.make_exp_neg(), to.make_exp_neg())
    assert h.truth.label == L.m_inf()
    assert to.classify(h).tag == "MInf"


@pytest.mark.parametrize("U, rho", [(to.make_power_tail(-2.0), -2.0),
                                    (to.make_pareto_tail(1.5), -1.5)])
def test_a_sum_with_remark7_reads_the_grid_at_x(U, rho):
    # the grid's first point x = 10 lies outside remark7's interval (10, 10 + 1e-10),
    # and exp(log 10) inside it: read there, the sum looked Oscillating
    for h in (to.scale_add(1.0, U, to.make_remark7_mix()),
              to.scale_add(1.0, to.make_remark7_mix(), U)):
        got = to.classify(h)
        assert got.is_m and got.rho == pytest.approx(rho, abs=0.05), h.name


def test_reciprocal_handle():
    h = to.reciprocal(to.make_power_tail(-2.0))
    assert h.truth.label == L.m(2.0)
    assert h.log_at(10.0) == pytest.approx(2.0 * math.log(10.0), abs=1e-12)
    assert to.reciprocal(to.make_exp_neg()).truth.label == L.m_neg_inf()


def test_composite_truth_is_read_from_its_label():
    h = to.product(to.make_power_tail(-2.0), to.make_power_tail(-3.0))
    t = h.truth
    assert (t.rho, t.kappa, t.mu, t.nu) == (-5.0, 5.0, -5.0, -5.0)
    t = to.product(to.make_exp_neg(), to.make_power_tail(1.0)).truth
    assert (t.rho, t.kappa, t.mu, t.nu) == (None, math.inf, -math.inf, -math.inf)


def test_product_identity_and_inverse():
    u = to.make_power_tail(-2.0)
    ident = to.product(to.make_power_tail(0.0), u)
    assert ident.truth.label == L.m(-2.0)
    inv = to.product(u, to.reciprocal(u))
    assert to.classify(inv) == L.m(0.0)


def test_product_absorbs_into_rapid_class():
    h = to.product(to.make_exp_neg(), to.make_power_tail(5.0))
    assert h.truth.label == L.m_inf()
    assert to.classify(h).tag == "MInf"


def test_compose_orders_multiply():
    h = to.compose(to.make_power_tail(-2.0), to.make_power_tail(3.0))
    assert h.truth.label == L.m(-6.0)
    assert h.log_at(10.0) == pytest.approx(-6.0 * math.log(10.0), abs=1e-12)
    assert to.classify(h).rho == pytest.approx(-6.0, abs=0.05)


def test_compose_identity_inner():
    u = to.make_power_tail(-2.0)
    h = to.compose(u, to.make_power_tail(1.0))
    assert h.truth.label == L.m(-2.0)
    assert h.log_at(40.0) == u.log_at(40.0)


def test_compose_rapid_outer():
    h = to.compose(to.make_exp_neg(), to.make_power_tail(2.0))
    assert h.truth.label == L.m_inf()
    # e^{-x^2} without overflow at large x
    assert h.log_at(1e6) == pytest.approx(-1e12, rel=1e-12)


def test_compose_with_rapidly_growing_inner():
    # inner e^x feeds log-space argument to the outer power
    h = to.compose(to.make_power_tail(-2.0), to.make_exp_pos())
    assert h.log_at(800.0) == pytest.approx(-1600.0, rel=1e-12)


@pytest.mark.parametrize("outer, inner", [("two_plus_sin", "exp_pos"),
                                          ("x_pow_sin_x", "exp_neg")])
def test_compose_nan_is_a_domain_error_not_a_label(outer, inner):
    # the inner values leave the float range of the outer rule, which turns
    # NaN; the prediction is Undecided, so a decided label would be wrong
    h = to.compose(to.make_named(outer), to.make_named(inner))
    assert h.truth.label.tag == "Undecided"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"\({outer}\)o\({inner}\)"):
            to.classify(h)


def test_compose_past_the_float_range_has_kappa_minus_inf():
    # exp(e^x): log U is +inf beyond x ~ 709, so every probe's octave masses
    # end at +inf, a divergent integral (these once read as mass 0: kappa inf)
    h = to.compose(to.make_exp_pos(), to.make_exp_pos())
    assert to.classify(h) == L.m_neg_inf()
    assert to.probe_integral_convergence(h, -64.0).is_divergent
    assert to.estimate_kappa(h).value == -math.inf


def test_convolve_closed_form():
    h = to.convolve(to.make_exp_neg(), to.make_exp_neg())
    for x in (2.0, 10.0, 50.0):
        want = math.log(x) - x
        assert h.log_at(x) == pytest.approx(want, rel=1e-8)
    assert h.truth.label == L.m_inf()


def test_convolve_symmetric():
    u, v = to.make_power_tail(-3.0), to.make_power_tail(-2.0)
    c1, c2 = to.convolve(u, v), to.convolve(v, u)
    for x in (7.0, 123.0, 4567.0):
        a, b = c1.log_at(x), c2.log_at(x)
        assert abs(math.exp(a - b) - 1.0) <= 2e-8


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (1.0, 2.0), (0.3, 2.7)])
def test_convolve_ramp_beta_closed_form(a, b):
    # integral_0^x t**a (x-t)**b dt = x**(a+b+1) * B(a+1, b+1)
    h = to.convolve(to.make_ramp_power(a), to.make_ramp_power(b))
    xs = np.array([0.5, 3.0, 100.0, 1e5])
    log_beta = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    want = (a + b + 1.0) * np.log(xs) + log_beta
    got = np.asarray(h.log_at(xs), dtype=float)
    np.testing.assert_allclose(np.exp(got - want), 1.0, rtol=1e-8, atol=0)


def test_convolve_budget_exhaustion_is_typed(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    h = to.convolve(to.make_ramp_power(0.3), to.make_ramp_power(0.3))
    with pytest.raises(QuadratureFailure):
        h.log_at(np.array([0.5, 7.0]))


@pytest.mark.parametrize("x", [1e-300, 1e-10, 1.0, 1e8, 1e14, 1e100, 1e300])
def test_convolve_ramp_pair_across_the_float_range(x):
    # the folded integrand keeps every node inside (0, x) at any normal x
    a, b = 0.5, 1.5
    h = to.convolve(to.make_ramp_power(a), to.make_ramp_power(b))
    log_beta = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    assert abs(h.log_at(x) - (log_beta + (a + b + 1.0) * math.log(x))) <= 1e-8


@pytest.mark.parametrize("x", [1e100, 1e300])
def test_convolve_power_pair_at_huge_x(x):
    # U*V ~ (integral V) U + (integral U) V = 1.5 x**-2 + 2 x**-3
    h = to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0))
    want = math.log(1.5) - 2.0 * math.log(x) + math.log1p(2.0 / (1.5 * x))
    assert abs(h.log_at(x) - want) <= 1e-8


def test_convolve_log_argument_past_700():
    h = to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0))
    assert h.log_at_u(705.0) == h.log_at(math.exp(705.0))


@pytest.mark.parametrize("x", [1e-320, 5e-324])
def test_convolve_refuses_a_subnormal_x(x):
    h = to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0))
    with pytest.raises(DomainError, match=r"conv\(power_tail\(alpha=-3\)\): .*normal"):
        h.log_at(x)


def test_tauberian_check_of_a_convolution_that_vanishes_at_the_origin():
    # B(1.5, 2.5) x**3 vanishes at the origin: no regularization
    h = to.convolve(to.make_ramp_power(0.5), to.make_ramp_power(1.5))
    rep = to.tauberian_check(h, grid=to.GridSpec(points=128))
    assert rep.passed
    assert rep.measured["regularized"] is False


@pytest.mark.parametrize("au,av,want", [
    (-3.0, -2.0, -2.0),   # lighter factor integrable, heavier order wins
    (-3.0, 2.0, 2.0),     # integrable against a growing factor
    (-0.5, -0.5, 0.0),    # both above the integrability line
])
def test_convolve_classifies_as_predicted(au, av, want):
    h = to.convolve(to.make_power_tail(au), to.make_power_tail(av))
    assert h.truth.label == L.m(want)
    grid = to.GridSpec(points=400, windows=8)
    got = to.classify(h, grid)
    assert got.tag == "M"
    assert got.rho == pytest.approx(want, abs=0.05)


def test_derived_labels_match_numerics_on_sample_pairs():
    cases = [
        to.scale_add(2.0, to.make_power_tail(-2.0), to.make_peter_paul()),
        to.product(to.make_peter_paul(), to.make_power_tail(3.0)),
        to.product(to.make_two_plus_sin(), to.make_power_tail(-1.0)),
        to.compose(to.make_power_tail(2.0), to.make_power_tail(2.0)),
    ]
    for h in cases:
        label = h.truth.label
        assert label.is_m
        got = to.classify(h)
        assert got.tag == "M" and got.rho == pytest.approx(label.rho, abs=0.05), h.name


def test_compose_refuses_an_inner_value_outside_the_outer_domain():
    # floor_log_tail is exactly 0 at 1e306, where power_tail's domain ends
    h = to.compose(to.make_power_tail(1.0), to.make_floor_log_tail())
    with pytest.raises(DomainError, match="inner value 0"):
        h.log_at(1e306)
