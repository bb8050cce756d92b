import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder.errors import (
    DomainError,
    FormatError,
    ParamError,
    PositivityViolation,
    UnknownName,
)


def test_power_tail_eval():
    h = to.make_power_tail(-2.0)
    assert h.log_at(10.0) == pytest.approx(-2.0 * math.log(10.0), abs=1e-14)
    assert h.log_at(0.5) == 0.0  # flat below 1
    assert h.truth.rho == -2.0 and h.truth.kappa == 2.0
    assert h.truth.is_tail


@pytest.mark.parametrize("alpha,rho,kappa,is_tail", [
    (-2.0, -2.0, 2.0, True),
    (0.0, 0.0, 0.0, True),
    (3.0, 3.0, -3.0, False),
])
def test_power_tail_truth(alpha, rho, kappa, is_tail):
    h = to.make_power_tail(alpha)
    assert h.truth.rho == rho
    assert h.truth.kappa == kappa
    assert h.truth.is_tail is is_tail


@pytest.mark.parametrize("x,value", [
    (1.0, 1.0),
    (2.0, 0.5),
    (6.0, 0.25),
    (1024.0, 2.0 ** -10),   # direct summation of the dyadic tail
])
def test_peter_paul_levels(x, value):
    h = to.make_peter_paul()
    n = -math.log2(value)
    assert h.log_at(x) == -n * math.log(2.0)
    assert h.log_at(x) == pytest.approx(math.log(value), abs=1e-12)


def test_peter_paul_eval_log_example():
    h = to.make_peter_paul()
    assert h.log_at(6.0) == pytest.approx(-2.0 * math.log(2.0), abs=1e-14)


def test_exp_tail_eval():
    assert to.make_exp_neg().log_at(100.0) == -100.0
    assert to.make_exp_pos().log_at(100.0) == 100.0


@given(n=st.integers(min_value=0, max_value=900),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_peter_paul_exact_on_octaves(n, frac):
    # log value is exactly -n log 2 anywhere in [2^n, 2^(n+1))
    h = to.make_peter_paul()
    x = math.ldexp(1.0 + frac, n)
    assume(x < math.ldexp(1.0, n + 1))  # 1 + frac can round up to 2
    assert h.log_at(x) == -n * math.log(2.0)


def test_peter_paul_u_rule_exact_at_octaves():
    # the u rule decides the level without an exp round trip: exactly k at
    # u = k log 2, and k - 1 just below it
    h = to.make_peter_paul()
    k = np.arange(996)
    assert np.array_equal(h.log_at_u(k * math.log(2.0)), -k * math.log(2.0))
    k = k[1:]
    assert np.array_equal(h.log_at_u((k - 1e-9) * math.log(2.0)), -(k - 1) * math.log(2.0))


def test_step_handles_right_continuous():
    pp = to.make_peter_paul()
    assert pp.log_at(8.0) == -3 * math.log(2.0)  # jump point takes the new level
    g = to.make_oset_geometric(1.0, 0.0, 2.0)
    # first breakpoint x_1 = 4, level jumps to 4
    assert math.exp(g.log_at(4.0)) == pytest.approx(4.0, rel=1e-12)
    assert g.log_at(3.999999) == 0.0


def test_oset_geometric_levels():
    g = to.make_oset_geometric(1.0, 0.0, 2.0)
    # x_1 = 4, x_2 = 16: U = x_1 on [4, 16)
    assert math.exp(g.log_at(10.0)) == pytest.approx(4.0, rel=1e-12)
    assert g.truth.mu == pytest.approx(0.5)
    assert g.truth.nu == pytest.approx(1.0)
    h = to.make_oset_geometric(1.0, -2.0, 2.0)
    assert h.truth.mu == pytest.approx(-1.0)
    assert h.truth.nu == pytest.approx(-0.5)
    assert h.truth.is_tail


def test_oset_tower_levels():
    h = to.make_oset_tower(1.0, -1.0)
    # x_2 = 2, so U(1.5) = 2**-1
    assert math.exp(h.log_at(1.5)) == pytest.approx(0.5, rel=1e-12)
    assert h.truth.mu == -math.inf and h.truth.nu == pytest.approx(-1.0)
    assert h.truth.is_tail
    h2 = to.make_oset_tower(1.5, 1.0)
    assert h2.truth.mu == pytest.approx(1.5) and h2.truth.nu == math.inf


def test_oset_tower_stalling_recursion_rejected():
    with pytest.raises(ParamError):
        to.make_oset_tower(2.0, 1.0)  # breakpoints converge to a fixed point


@pytest.mark.parametrize("bad", [
    lambda: to.make_oset_geometric(-1.0, 0.0, 2.0),
    lambda: to.make_oset_geometric(1.0, -1.0, 2.0),
    lambda: to.make_oset_geometric(1.0, 0.0, 0.5),
    lambda: to.make_oset_tower(0.0, 1.0),
    lambda: to.make_oset_tower(1.0, 0.0),
])
def test_oset_param_errors(bad):
    with pytest.raises(ParamError):
        bad()


@pytest.mark.parametrize("name, params, message", [
    ("oset_geometric", {"alpha": 1.0, "beta": 0.0, "x_a": 1e300}, "x_a=1e+300"),
    ("oset_geometric", {"alpha": 1.0, "beta": 0.0, "x_a": math.inf}, "x_a"),
    ("oset_geometric", {"alpha": 1.0, "beta": 0.0, "x_a": math.nan}, "x_a"),
    ("oset_geometric", {"alpha": math.nan, "beta": 0.0, "x_a": 2.0}, "alpha"),
    ("oset_geometric", {"alpha": 1.0, "beta": math.inf, "x_a": 2.0}, "beta"),
    ("log_perturbed_power", {"alpha": -1.0, "c": math.nan}, "c nan"),
    ("log_perturbed_power", {"alpha": -1.0, "c": math.inf}, "c inf"),
    ("log_perturbed_power", {"alpha": math.nan, "c": 1.0}, "alpha"),
    ("power_tail", {"alpha": math.nan}, "alpha"),
    ("power_tail", {"alpha": -math.inf}, "alpha"),
    ("ramp_power", {"alpha": math.inf}, "alpha"),
    ("pareto_tail", {"alpha": math.nan}, "alpha"),
    ("oset_tower", {"c": math.nan, "alpha": 1.0}, "c nan"),
    ("oset_tower", {"c": 1.0, "alpha": math.nan}, "alpha"),
    # too many breakpoints below exp(691): refused before they are built
    ("oset_geometric", {"alpha": 1e-6, "beta": 0.0, "x_a": 2.0}, "alpha=1e-06 with x_a=2"),
    ("oset_tower", {"c": to.handles.TOWER_C_MAX * (1 - 1e-12), "alpha": 1.0}, "c=1.88417"),
    # 1 + alpha rounds to 1: the cap names alpha before the label is built
    ("oset_geometric", {"alpha": 1e-17, "beta": 0.0, "x_a": 2.0}, "alpha=1e-17 with x_a=2"),
    ("oset_geometric", {"alpha": 1e-300, "beta": 0.0, "x_a": 2.0}, "alpha=1e-300 with x_a=2"),
])
def test_non_finite_or_out_of_range_parameter_is_named(name, params, message):
    with pytest.raises(ParamError) as info:
        to.make_named(name, params)
    # an interval on one parameter is refused in the one real-parameter format,
    # any other condition in the constructor's words
    assert re.match(rf"({name} requires |\w+ \S+ is out of range: )", str(info.value))
    assert message in str(info.value)


@pytest.mark.parametrize("make, what", [
    (lambda: to.make_power_tail(129), "alpha 129.0"),
    (lambda: to.make_power_tail(-129.0), "alpha -129.0"),
    (lambda: to.make_ramp_power(1e6), "alpha 1000000.0"),
    (lambda: to.make_ramp_power(1000), "alpha 1000.0"),
    (lambda: to.make_pareto_tail(200.0), "alpha 200.0"),
    (lambda: to.make_log_perturbed_power(-129.0, 1.0), "alpha -129.0"),
    (lambda: to.make_oset_geometric(1.0, 128.0, 2.0), "alpha*(1+beta) 129.0"),
    (lambda: to.make_oset_geometric(1.0, -130.0, 2.0), "alpha*(1+beta) -129.0"),
    (lambda: to.make_oset_tower(1.0, 129.0), "alpha*c 129.0"),
    (lambda: to.make_oset_tower(0.5, -300.0), "alpha*c -150.0"),
])
def test_the_catalog_refuses_an_order_beyond_the_bound(make, what):
    # the orders a grid decides end at +-ORDER_BOUND: a member's finite order
    # or edge beyond it would be read as an infinite class
    with pytest.raises(ParamError, match=re.escape(
            f"{what} is out of range: real parameters are numbers, here -128 < ")):
        make()


@pytest.mark.parametrize("make, what", [
    (lambda: to.make_power_tail(-128), "alpha -128.0"),
    (lambda: to.make_ramp_power(128), "alpha 128.0"),
    (lambda: to.make_oset_geometric(1.0, 127.0, 2.0), "alpha*(1+beta) 128.0"),
    (lambda: to.make_oset_tower(1.0, -128.0), "alpha*c -128.0"),
])
def test_the_catalog_refuses_an_order_on_the_bound(make, what):
    # a grid reads an order on the bound on either side of it: e**c x**128
    # reads MNegInf or Oscillating(128, inf) as c moves its last bits
    with pytest.raises(ParamError, match=re.escape(
            f"{what} is out of range: real parameters are numbers, here -128 < {what.split()[0]} "
            "< 128")):
        make()


def test_remark_mix_branches():
    h = to.make_remark7_mix()
    # inside the interval (3, 3 + 3**-3) the value is 1/x
    x = 3.0 + 0.5 * 3.0 ** -3
    assert h.log_at(x) == pytest.approx(-math.log(x), abs=1e-12)
    # just outside: exponential branch
    assert h.log_at(3.5) == pytest.approx(-3.5, abs=1e-12)


def test_floor_log_tail():
    h = to.make_floor_log_tail()
    assert h.log_at(10.5) == pytest.approx(-10.0 * math.log(10.5), abs=1e-10)
    assert h.truth.is_tail


def test_make_named_catalog():
    h = to.make_named("pareto_tail", {"alpha": 2.0})
    assert h.truth.rho == -2.0
    with pytest.raises(UnknownName):
        to.make_named("no_such_function")
    with pytest.raises(ParamError):
        to.make_named("pareto_tail", {"bogus": 1.0})


def test_eval_log_domain_error():
    h = to.make_power_tail(-1.0)
    with pytest.raises(DomainError):
        h.log_at(0.0)
    with pytest.raises(DomainError):
        h.log_at(-3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_domain_check_rejects_non_finite_and_floor(bad):
    h = to.make_power_tail(-1.0)
    with pytest.raises(DomainError, match="requires x > 0"):
        h.log_at(np.array([10.0, bad, 100.0]))
    with pytest.raises(DomainError, match="requires x > 0"):
        h.log_at(bad)


@pytest.mark.parametrize("bad, named", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0"), (-3.0, "-3"),
])
def test_domain_error_names_the_offending_extreme(bad, named):
    h = to.make_power_tail(-1.0)
    with pytest.raises(DomainError, match=f"requires x > 0 and finite, got x = {named}$"):
        h.log_at(np.array([10.0, bad, 100.0]))


def test_domain_check_accepts_empty_array():
    h = to.make_power_tail(-1.0)
    assert h.log_at(np.array([])).shape == (0,)
    table = to.from_table(*_power_table())
    assert table.log_at(np.empty((0, 3))).shape == (0, 3)


def test_domain_check_table_range_ends():
    h = to.from_table(*_power_table())
    lo, hi = h.log_domain
    x_lo, x_hi = math.exp(lo), math.exp(hi)
    # both ends of the tabulated range evaluate, together and alone
    vals = h.log_at(np.array([x_lo, 1e4, x_hi]))
    assert np.all(np.isfinite(vals))
    for x in (x_lo, x_hi):
        assert math.isfinite(h.log_at(x))
    # a step beyond either end is refused, wherever it sits in the array
    for bad in (x_lo * (1 - 1e-9), x_hi * (1 + 1e-9)):
        with pytest.raises(DomainError, match="outside tabulated range"):
            h.log_at(np.array([1e4, bad, 1e3]))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at(np.array([1e4, bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_at_u_rejects_non_finite(bad):
    h = to.make_power_tail(1.0)
    with pytest.raises(DomainError, match="requires x > 0"):
        h.log_at_u(bad)
    with pytest.raises(DomainError, match="requires x > 0"):
        h.log_at_u(np.array([1.0, bad, 2.0]))


def _nan_beyond_1e4():
    return to.FunctionHandle(
        name="nan_tail", log_at_x=lambda x: np.where(x > 1e4, np.nan, -2.0 * np.log(x)))


def test_entry_points_refuse_nan_naming_the_first_x():
    h = _nan_beyond_1e4()
    assert h.log_at(1e4) == pytest.approx(-2.0 * math.log(1e4), rel=1e-15)
    with pytest.raises(DomainError, match=r"nan_tail: log U is NaN at x = 20000$"):
        h.log_at(np.array([[10.0, 2e4], [3e4, 5.0]]))
    with pytest.raises(DomainError, match=r"nan_tail: log U is NaN at x = 50000$"):
        h.log_at_u(np.log([10.0, 5e4, 3e4]))


def test_nan_is_an_error_not_a_label():
    # a NaN sample once read as rapid decay: MInf with kappa = inf
    h = _nan_beyond_1e4()
    with pytest.raises(DomainError, match="nan_tail: log U is NaN"):
        to.classify(h)
    with pytest.raises(DomainError, match="nan_tail: log U is NaN"):
        to.estimate_kappa(h)


# valid parameters for the catalog members that take any
_VALID_PARAMS = {
    "log_perturbed_power": {"alpha": -2.0, "c": 0.5},
    "oset_geometric": {"alpha": 1.0, "beta": 0.0, "x_a": 2.0},
    "oset_tower": {"c": 1.0, "alpha": -1.0},
    "pareto_tail": {"alpha": 1.5},
    "power_tail": {"alpha": -2.0},
    "ramp_power": {"alpha": 1.0},
}


@pytest.mark.parametrize("name", to.catalog_names())
def test_every_member_refuses_points_outside_its_domain(name):
    h = to.make_named(name, _VALID_PARAMS.get(name))
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at(x)
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at(np.array([10.0, x]))
    for u in (math.nan, -math.inf, math.inf):
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at_u(u)
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at_u(np.array([1.0, u]))
    # exp(u) overflows or underflows: x = exp(u) is not in (0, inf)
    for u in (720.0, -800.0):
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at_u(u)
        with pytest.raises(DomainError, match="requires x > 0"):
            h.log_at_u(np.array([1.0, u]))


@pytest.mark.parametrize("make", [
    to.make_two_plus_sin, to.make_x_pow_sin_x, to.make_exp_neg, to.make_exp_pos,
    to.make_floor_log_tail, to.make_remark7_mix,
])
def test_u_rule_is_the_x_rule_at_exp_u(make):
    h = make()
    u = np.linspace(-700.0, 709.0, 301)
    assert h.log_at_u(u).tobytes() == h.log_at(np.exp(u)).tobytes()


def test_handle_needs_a_rule():
    with pytest.raises(ParamError, match="needs log_at_x or log_at_logx"):
        to.FunctionHandle(name="bare")


def test_replacing_the_u_rule_replaces_what_log_at_reads():
    # the x rule derived from a u rule follows dataclasses.replace
    h = dataclasses.replace(to.make_power_tail(-2.0), log_at_logx=lambda u: 3.0 * u)
    assert h.log_at(np.exp(2.0)) == pytest.approx(6.0, rel=1e-15)
    assert h.log_at_u(2.0) == 6.0


def test_log_at_u_empty_array_and_table_range_ends():
    assert to.make_power_tail(1.0).log_at_u(np.array([])).shape == (0,)
    h = to.from_table(*_power_table())
    lo, hi = h.log_domain
    assert np.all(np.isfinite(h.log_at_u(np.array([lo, 0.5 * (lo + hi), hi]))))
    for u in (lo, hi):
        assert math.isfinite(float(h.log_at_u(u)))
    for bad in (lo - 1e-9, hi + 1e-9):
        with pytest.raises(DomainError, match="log-argument outside tabulated range"):
            h.log_at_u(np.array([0.5 * (lo + hi), bad]))


def test_handles_pure():
    h = to.make_two_plus_sin()
    vals = {h.log_at(123.456) for _ in range(10)}
    assert len(vals) == 1


def test_truth_validation():
    # a kappa that disagrees with the label
    with pytest.raises(ParamError, match="has kappa = -2"):
        to.KnownTruth(label=to.ClassLabel.m(2.0), kappa=2.0)
    with pytest.raises(ParamError, match="has kappa = inf"):
        to.KnownTruth(label=to.ClassLabel.m_inf(), kappa=-math.inf)
    # a survival-function tail has kappa >= 0, given or implied
    with pytest.raises(ParamError, match="kappa >= 0"):
        to.KnownTruth(label=to.ClassLabel.m(1.0), kappa=-1.0, is_tail=True)
    with pytest.raises(ParamError, match="kappa >= 0"):
        to.KnownTruth(label=to.ClassLabel.m(1.0), is_tail=True)
    assert to.KnownTruth(label=to.ClassLabel.m(1.0), kappa=-1.0).kappa == -1.0


# (rho, kappa, mu, nu, is_tail, is_rv) as each constructor stated them by hand
# before the label fixed them
_STATED_TRUTH = [
    ("exp_neg", None, (None, math.inf, -math.inf, -math.inf, True, False)),
    ("exp_pos", None, (None, -math.inf, math.inf, math.inf, False, False)),
    ("floor_log_tail", None, (None, math.inf, -math.inf, -math.inf, True, False)),
    ("log_perturbed_power", {"alpha": -2.0, "c": 0.5}, (-2.0, 2.0, -2.0, -2.0, True, True)),
    ("oset_geometric", {"alpha": 1.0, "beta": 0.0, "x_a": 2.0},
     (None, None, 0.5, 1.0, False, False)),
    ("oset_geometric", {"alpha": 1.0, "beta": -3.0, "x_a": 2.0},
     (None, None, -2.0, -1.0, True, False)),
    ("oset_tower", {"c": 1.0, "alpha": -1.0}, (None, None, -math.inf, -1.0, True, False)),
    ("oset_tower", {"c": 1.0, "alpha": 1.5}, (None, None, 1.5, math.inf, False, False)),
    ("pareto_tail", {"alpha": 1.5}, (-1.5, 1.5, -1.5, -1.5, True, True)),
    ("peter_paul", None, (-1.0, 1.0, -1.0, -1.0, True, False)),
    ("power_tail", {"alpha": -2.0}, (-2.0, 2.0, -2.0, -2.0, True, True)),
    ("power_tail", {"alpha": 0.0}, (0.0, 0.0, 0.0, 0.0, True, True)),
    ("power_tail", {"alpha": 3.0}, (3.0, -3.0, 3.0, 3.0, False, True)),
    ("ramp_power", {"alpha": 1.0}, (1.0, -1.0, 1.0, 1.0, False, True)),
    ("remark7_mix", None, (None, math.inf, -math.inf, -1.0, False, False)),
    ("two_plus_sin", None, (0.0, 0.0, 0.0, 0.0, False, False)),
    ("x_pow_sin_x", None, (None, None, -1.0, 1.0, False, False)),
]


def test_stated_truth_covers_the_catalog():
    assert {name for name, _, _ in _STATED_TRUTH} == set(to.catalog_names())


@pytest.mark.parametrize("name, params, stated", _STATED_TRUTH)
def test_label_fixes_the_stated_truth(name, params, stated):
    t = to.make_named(name, params).truth
    assert (t.rho, t.kappa, t.mu, t.nu, t.is_tail, t.is_rv) == stated


# every catalog member, a table and each closure, with the largest log x to
# probe (the quadrature-backed handles get fewer and smaller points)
_CONTRACT_HANDLES = {
    **{name: (lambda name=name: to.make_named(name, _VALID_PARAMS.get(name)), 2.0)
       for name in to.catalog_names()},
    "table": (lambda: to.from_table(*_power_table()), 2.0),
    "scale_add": (lambda: to.scale_add(2.0, to.make_power_tail(-2.0), to.make_exp_neg()), 2.0),
    "reciprocal": (lambda: to.reciprocal(to.make_peter_paul()), 2.0),
    "product": (lambda: to.product(to.make_power_tail(-3.0), to.make_two_plus_sin()), 2.0),
    "compose": (lambda: to.compose(to.make_power_tail(2.0), to.make_power_tail(1.5)), 2.0),
    "convolve": (lambda: to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0)), 0.5),
    "regularize_origin": (lambda: to.regularize_origin(to.make_power_tail(1.0), 1.0), 2.0),
    "transform_handle": (lambda: to.transform_handle(to.make_ramp_power(2.5)), 0.5),
}


@pytest.mark.parametrize("name", _CONTRACT_HANDLES)
def test_log_at_returns_float64_shaped_like_its_input(name):
    # the contract every caller relies on: no re-conversion, no reshape
    make, span = _CONTRACT_HANDLES[name]
    h = make()
    u = np.linspace(0.1, span, 6).reshape(2, 3)
    for method, arg in ((h.log_at, np.exp(u)), (h.log_at_u, u)):
        for a in (arg[0, 0].reshape(()), arg[0], arg):
            out = method(a)
            assert out.dtype == np.float64 and out.shape == a.shape, (method.__name__, a.shape)
        rows = np.stack([method(row) for row in arg])
        assert method(arg).tobytes() == rows.tobytes(), method.__name__


def test_closures_keep_the_table_range():
    # the table's rule refuses a point beyond its rows instead of
    # extrapolating it flat, also where a closure reads it raw
    xs = np.geomspace(2.0, 1e4, 20)
    h = to.reciprocal(to.from_table(xs, -1.5 * np.log(xs)))
    assert h.log_at(100.0) == pytest.approx(1.5 * math.log(100.0), rel=1e-12)
    with pytest.raises(DomainError, match="table: log-argument outside tabulated range"):
        h.log_at(1e8)
    with pytest.raises(DomainError, match="outside tabulated range"):
        to.estimate_kappa(h)


def test_compose_over_a_tabulated_outer_is_known_on_its_range():
    # sqrt(V) with V = x**2: log x wherever 2 log x lies within the rows
    xs = np.geomspace(2.0, 1e8, 20)
    h = to.compose(to.from_table(xs, 0.5 * np.log(xs)), to.make_power_tail(2.0))
    inside = np.geomspace(2.0, 1e4, 16)
    np.testing.assert_allclose(h.log_at(inside), np.log(inside), rtol=1e-13, atol=0)
    for beyond in (1.2, 1e5):
        with pytest.raises(DomainError, match="^table: log-argument outside tabulated range$"):
            h.log_at(np.array([100.0, beyond]))


_P1, _PM1 = to.make_power_tail(1.0), to.make_power_tail(-1.0)

# each closure over one operand W, with a catalog power where it needs two,
# and its log value at x from W's log values w there (None for
# regularize_origin, which has a u rule only)
_CLOSURES = {
    "reciprocal": (to.reciprocal, lambda w, x: -w),
    "product": (lambda W: to.product(_P1, W), lambda w, x: _P1.log_at(x) + w),
    "scale_add(1)": (lambda W: to.scale_add(1.0, W, _PM1),
                     lambda w, x: np.logaddexp(w, _PM1.log_at(x))),
    "scale_add(0)": (lambda W: to.scale_add(0.0, _PM1, W), lambda w, x: w),
    "regularize_origin": (lambda W: to.regularize_origin(W, 2.0), None),
    "compose": (lambda W: to.compose(_P1, W), lambda w, x: _P1.log_at_logx(w)),
}
_READ_AT_X = [name for name, (_, combine) in _CLOSURES.items() if combine]


@pytest.mark.parametrize("name", _CLOSURES)
def test_closures_refuse_an_operands_nan_naming_the_composite(name):
    # the operand's raw rule gives NaN and the composite's check names it;
    # compose reads its inner operand checked, so the inner is named there
    h = _CLOSURES[name][0](_nan_beyond_1e4())
    named = "nan_tail" if name == "compose" else h.name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(h.log_at(5e3))
        for method, arg in ((h.log_at, np.array([10.0, 2e4, 3e4])),
                            (h.log_at_u, np.log([10.0, 2e4, 3e4]))):
            with pytest.raises(DomainError,
                               match=f"^{re.escape(named)}: log U is NaN at x = 20000$"):
                method(arg)


def test_a_product_of_inf_and_zero_is_refused_as_nan():
    # past x ~ 1e305 exp(e^x) is +inf and floor_log_tail is 0: no value
    h = to.product(to.compose(to.make_exp_pos(), to.make_exp_pos()), to.make_floor_log_tail())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(h.log_at(10.0))
        with pytest.raises(DomainError, match=f"^{re.escape(h.name)}: log U is NaN at x = 1e"):
            h.log_at(np.array([10.0, 1e306]))


@pytest.mark.parametrize("name", _CLOSURES)
def test_a_table_refuses_a_point_beyond_its_rows_through_each_closure(name):
    xs = np.geomspace(1.0, 1e4, 9)
    table = to.from_table(xs, -2.0 * np.log(xs))
    outside = "^table: log-argument outside tabulated range$"
    for h in (table, _CLOSURES[name][0](table)):
        assert np.all(np.isfinite(h.log_at(np.array([2.0, 1e4]))))
        with pytest.raises(DomainError, match=outside):
            h.log_at(np.array([2.0, 1e8]))
        with pytest.raises(DomainError, match=outside):
            h.log_at_u(np.log([2.0, 1e8]))


@pytest.mark.parametrize("make", [to.make_two_plus_sin, to.make_x_pow_sin_x, to.make_exp_neg,
                                  to.make_remark7_mix])
@pytest.mark.parametrize("name", _READ_AT_X)
def test_a_closure_reads_its_operands_x_rule_at_x(name, make):
    # bitwise the operand's own x rule, combined: no operand is read at
    # exp(log x), which differs from x in its last bits
    build, combine = _CLOSURES[name]
    W, xs = make(), to.GridSpec().xs()
    assert build(W).log_at(xs).tobytes() == combine(W.log_at(xs), xs).tobytes()


@pytest.mark.parametrize("name", _READ_AT_X)
def test_a_closure_of_peter_paul_reads_the_level_below_each_jump(name):
    # just below 2**k peter_paul is at level k - 1, for every k = 1 ... 59
    build, combine = _CLOSURES[name]
    xs = np.nextafter(2.0 ** np.arange(1, 60), 0.0)
    levels = -np.arange(59) * math.log(2.0)
    assert build(to.make_peter_paul()).log_at(xs).tobytes() == combine(levels, xs).tobytes()


def test_a_closure_of_remark7_reads_10_outside_its_interval():
    # exp(log 10) = 10.000000000000002 lies inside remark7's interval
    # (10, 10 + 1e-10), where it is 1/x; 10 itself lies outside, where it is e**-x
    h = to.reciprocal(to.make_remark7_mix())
    assert h.log_at(10.0) == 10.0
    assert h.log_at_u(math.log(10.0)) == pytest.approx(math.log(10.0), rel=1e-15)


def _labels_agree(got, want, tol=0.05):
    if got.tag != want.tag:
        return False
    edges = [(got.rho, want.rho)] if got.is_m else [(got.mu, want.mu), (got.nu, want.nu)]
    return all(a == b or abs(a - b) <= tol for a, b in edges if a is not None)


def test_closures_over_the_catalog_agree_with_the_prediction():
    # every member under reciprocal, and every pair under product,
    # scale_add(1, .) and compose: 520 cases. No warning escapes, a failure
    # is typed, and a decided label matches a decided prediction from the
    # operands' measured labels
    members = [to.make_named(n, _VALID_PARAMS.get(n)) for n in to.catalog_names()]
    measured = {h.name: to.classify(h) for h in members}
    cases = [(to.reciprocal, (u,)) for u in members]
    cases += [(op, (u, v)) for op in (to.product, functools.partial(to.scale_add, 1.0), to.compose)
              for u in members for v in members]
    assert len(cases) == 520
    both = 0
    for op, operands in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = to.classify(op(*operands))
            except to.TailOrderError:
                continue
        # the constructor's prediction from operands that carry the measured labels
        want = op(*(dataclasses.replace(h, truth=to.KnownTruth(measured[h.name]))
                    for h in operands)).truth.label
        if got.is_decided and want.is_decided:
            both += 1
            assert _labels_agree(got, want), (op, [h.name for h in operands], got, want)
    assert both >= 226  # 226 since closures read their operands at x, not exp(log x)


def test_last_window_mean_tracks_order():
    # on the default grid the trailing-window mean of log U / log x sits
    # within 0.05 of the true order for every finite-order corpus member
    grid = to.GridSpec()
    xs = grid.xs()
    sl = grid.window_slices()[-1]
    for h in to.corpus_m_members():
        r = h.log_at(xs) / np.log(xs)
        assert abs(float(r[sl].mean()) - h.truth.rho) <= 0.05, h.name


# ---------------------------------------------------------------------------
# tables and CSV
# ---------------------------------------------------------------------------


def _power_table(alpha=-2.0, n=9):
    xs = [10.0 ** k for k in range(n)]
    return xs, [math.log(x ** alpha) for x in xs]


def test_from_table_interpolates_loglog():
    h = to.from_table(*_power_table())
    # exact on nodes and on power-law segments between them
    assert h.log_at(1e4) == pytest.approx(-8.0 * math.log(10.0), abs=1e-9)
    assert h.log_at(3.1623e3) == pytest.approx(-2.0 * math.log(3.1623e3), rel=1e-6)


def test_from_table_range_errors():
    h = to.from_table(*_power_table())
    with pytest.raises(DomainError):
        h.log_at(1e9)
    with pytest.raises(DomainError):
        h.log_at(0.5)


def test_from_table_minimum_rows():
    with pytest.raises(FormatError, match="at least 8 rows"):
        to.from_table(*_power_table(n=2))


def test_table_positivity(tmp_path):
    p = tmp_path / "zero.csv"
    xs, _ = _power_table()
    p.write_text("x,value\n" + "\n".join(
        f"{x!r},{0.0 if i == 3 else x ** -2!r}" for i, x in enumerate(xs)) + "\n")
    with pytest.raises(PositivityViolation):
        to.load_csv(p)


def test_table_sorted():
    xs, vs = _power_table()
    xs[1], xs[2] = xs[2], xs[1]
    with pytest.raises(FormatError, match="strictly increasing"):
        to.from_table(xs, vs)


@pytest.mark.parametrize("row, xv, message", [
    (2, (0.0, 1.0), "positive finite"),
    (2, (-1.0, 1.0), "positive finite"),
    (2, (math.nan, 1.0), "positive finite"),
    (8, (math.inf, 1.0), "positive finite"),
    (4, (1e4, math.nan), "values must be finite"),
    (4, (1e4, -math.inf), "values must be finite"),
])
def test_from_table_rejects_bad_rows(row, xv, message):
    xs, vs = _power_table()
    xs[row], vs[row] = xv
    with pytest.raises(FormatError, match=message):
        to.from_table(xs, vs)


def test_from_table_needs_one_value_per_abscissa():
    xs, vs = _power_table()
    with pytest.raises(FormatError, match="one log value per abscissa"):
        to.from_table(xs, vs[:-1])


def test_load_csv(tmp_path):
    p = tmp_path / "pw.csv"
    rows = [f"{10.0 ** k!r},{(10.0 ** k) ** -2!r}" for k in range(9)]
    # a blank row is skipped
    p.write_text("x,value\n" + "\n".join(rows[:4] + [""] + rows[4:]) + "\n")
    h = to.load_csv(p)
    assert h.log_at(100.0) == pytest.approx(-4.0 * math.log(10.0), abs=1e-9)


def test_load_csv_log_kind(tmp_path):
    p = tmp_path / "pw.csv"
    p.write_text("x,logvalue\n" + "\n".join(
        f"{10.0 ** k!r},{-2.0 * k * math.log(10.0)!r}" for k in range(9)) + "\n")
    h = to.load_csv(p)
    assert h.log_at(1e3) == pytest.approx(-6.0 * math.log(10.0), abs=1e-9)


def test_load_csv_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,1\n")
    with pytest.raises(FormatError):
        to.load_csv(p)
