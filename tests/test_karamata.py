import math
import re

import numpy as np
import pytest

import tailorder as to
from tailorder.errors import (ClassMismatch, DivergentTail, ParamError, QuadratureFailure,
                              SingularDenominator)
from tailorder.quadrature import cell_log_masses


# ---------------------------------------------------------------------------
# cumulative integrals
# ---------------------------------------------------------------------------


def test_v0_of_constant_is_x_minus_b():
    ci = to.cumulative_integral(to.make_power_tail(0.0), "V", 0.0, 1.0)
    for x in (5.0, 100.0, 1e6):
        assert ci.log_value(x) == pytest.approx(math.log(x - 1.0), rel=1e-9)


def test_w0_of_inverse_square_is_one_over_x():
    ci = to.cumulative_integral(to.make_power_tail(-2.0), "W", 0.0, 1.0)
    for x in (2.0, 10.0, 1e4):
        assert ci.log_value(x) == pytest.approx(-math.log(x), rel=1e-8)


def test_w_requires_convergent_tail():
    with pytest.raises(DivergentTail):
        to.cumulative_integral(to.make_power_tail(0.0), "W", 0.0, 1.0)


# U = x**a on [1, inf) at every r where W_r = x**s / -s, s = a + r + 1, converges
_POWER_TAILS = [(name, param, a, r, b)
                for name, param, a in (("power_tail", -2.0, -2.0), ("power_tail", -3.0, -3.0),
                                       ("pareto_tail", 1.5, -1.5))
                for r in (-2.0, -1.0, 0.0, 0.5, 0.9) if a + r + 1.0 < 0.0
                for b in (1.9, 2.0)]


@pytest.mark.parametrize("name,param,a,r,b", _POWER_TAILS)
def test_w_of_powers_matches_closed_form(name, param, a, r, b):
    s = a + r + 1.0
    xs = np.geomspace(b, 1e8, 65)
    got = to.cumulative_integral(to.make_named(name, {"alpha": param}), "W", r, b).log_value(xs)
    assert np.max(np.abs(got - (s * np.log(xs) - math.log(-s)))) <= 1e-11


def test_divergent_w_is_refused_on_its_first_tail_octaves(monkeypatch):
    from tailorder import karamata, order

    def no_probe(*args):
        raise AssertionError("the tail integral ran a convergence probe")

    for module in (order, karamata):
        monkeypatch.setattr(module, "probe_integral_convergence", no_probe, raising=False)
    base = to.make_power_tail(0.0)
    calls = []

    def log_at_logx(u):
        calls.append(np.size(u))
        return base.log_at_logx(u)

    counting = to.FunctionHandle(name="counting", log_at_logx=log_at_logx)
    with pytest.raises(DivergentTail):
        to.cumulative_integral(counting, "W", 0.0, 1.0)
    # the grid's cells, then the first five tail octaves: two calls each
    assert len(calls) <= 12


def test_w_unfinished_at_the_float_end_is_a_quadrature_failure():
    # t**0.99 * t**-2 decays by 2**-0.01 an octave: no float x ends its tail
    with pytest.raises(QuadratureFailure, match="float range"):
        to.cumulative_integral(to.make_power_tail(-2.0), "W", 0.99, 2.0)


def test_w_has_the_cells_of_v_and_no_query_beyond_x_max():
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=6.0)
    U = to.make_power_tail(-3.0)
    for r, b in ((0.0, 2.0), (-0.5, 1.9), (1.5, 3.7)):
        v = to.cumulative_integral(U, "V", r, b, grid)
        w = to.cumulative_integral(U, "W", r, b, grid)
        assert np.array_equal(w.edges_u, v.edges_u)
        with pytest.raises(ParamError):
            w.log_value(1e7)


def test_cumulative_monotone():
    ci = to.cumulative_integral(to.make_peter_paul(), "V", 0.0, 2.0)
    assert np.all(np.diff(ci.log_values[1:]) >= 0.0)
    cw = to.cumulative_integral(to.make_power_tail(-2.0), "W", 0.0, 1.0)
    assert np.all(np.diff(cw.log_values[:-1]) <= 1e-15)


def _one_cell_log_value(ci, x: float) -> float:
    """log_value at one point: edge value plus one single-cell rule call."""
    u = min(max(math.log(x), ci.edges_u[0]), ci.edges_u[-1])
    i = min(max(int(np.searchsorted(ci.edges_u, u, side="right")) - 1, 0),
            ci.edges_u.size - 2)
    if ci.kind == "V":
        base, u0, u1 = ci.log_values[i], ci.edges_u[i], u
    else:
        base, u0, u1 = ci.log_values[i + 1], u, ci.edges_u[i + 1]
    part = -math.inf
    if u1 > u0:
        def log_f(xx):
            return (ci.r + 1.0) * np.log(xx) + ci.source.log_at(xx)

        part = float(cell_log_masses(log_f, np.array([u0, u1]))[0])
    return float(np.logaddexp(base, part))


@pytest.mark.parametrize("make,kind,r", [
    (to.make_peter_paul, "V", 0.0),
    (lambda: to.make_power_tail(-2.0), "W", 0.0),
    (to.make_x_pow_sin_x, "V", 0.5),
    (to.make_exp_neg, "W", 1.0),
])
def test_log_value_batched_equals_one_cell_reference(make, kind, r):
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=3.0)
    ci = to.cumulative_integral(make(), kind, r, 2.0, grid)
    edges = ci.edges_u
    inner = np.random.default_rng(5).uniform(edges[0], edges[-1], 300)
    # points on edges, on both range ends and just inside them
    us = np.concatenate([inner, edges[:20], edges[-20:], edges[::97],
                         [edges[0] + 1e-13, edges[-1] - 1e-13]])
    xs = np.exp(us)
    got = ci.log_value(xs)
    want = np.array([_one_cell_log_value(ci, float(x)) for x in xs])
    assert np.array_equal(got, want)
    assert ci.log_value(float(xs[7])) == want[7]


def test_log_value_shapes():
    ci = to.cumulative_integral(to.make_power_tail(-2.0), "W", 0.0, 1.0)
    assert type(ci.log_value(10.0)) is float
    assert type(ci.log_value(np.float64(10.0))) is float
    xs = np.logspace(0.5, 4.0, 12)
    flat = ci.log_value(xs)
    assert flat.shape == (12,)
    assert ci.log_value(xs.reshape(3, 4)).shape == (3, 4)
    assert np.array_equal(ci.log_value(xs.reshape(3, 4)).ravel(), flat)
    assert ci.log_value(np.array([])).shape == (0,)


@pytest.mark.parametrize("x", [0.5, 1e13, [10.0, 1e13], math.nan])
def test_log_value_rejects_queries_outside_range(x):
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=6.0)
    ci = to.cumulative_integral(to.make_power_tail(-2.0), "V", 0.0, 1.0, grid)
    with pytest.raises(ParamError):
        ci.log_value(x)


def test_log_value_evaluates_all_points_in_two_calls():
    base = to.make_x_pow_sin_x()
    calls = []

    def log_at_logx(u):
        calls.append(np.size(u))
        return base.log_at_logx(u)

    counting = to.FunctionHandle(name="counting", log_at_logx=log_at_logx)
    for kind, r in (("V", 0.0), ("W", -3.0)):
        ci = to.cumulative_integral(counting, kind, r, 2.0)
        calls.clear()
        xs = np.exp(np.linspace(ci.edges_u[0], ci.edges_u[-1], 2000))
        ci.log_value(xs)
        assert len(calls) <= 2
        assert sum(calls) <= 2 * 2000


@pytest.mark.parametrize("rho,r", [
    (-2.0, 3.0), (-2.0, 0.5), (-2.0, -1.0),
    (0.0, 1.0), (0.5, 1.0), (0.5, 3.0), (-1.0, 0.5), (-1.0, 3.0),
])
def test_cumulative_handles_classify_with_shifted_index(rho, r):
    # integrating t**(r-1) U shifts the order to rho + r where that is
    # positive (running integral) or negative (tail integral)
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=7.5, points=1600, windows=8)
    rep = to.karamata_theorem_report(to.make_power_tail(rho), r, 1.0, grid)
    assert rep.measured["limit"] == pytest.approx(rho + r, abs=0.05)


def test_cumulative_handle_shifted_index_step_tail():
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=7.5, points=1600, windows=8)
    rep = to.karamata_theorem_report(to.make_peter_paul(), 3.0, 2.0, grid)
    assert rep.measured["limit"] == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# integral-ratio limits and conditions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,side,want", [
    (1.0, "lower", 0.0),
    (3.0, "lower", 1.0),
    (0.5, "upper", -1.5),
])
def test_karamata_limit_power(r, side, want):
    U = to.make_power_tail(-2.0)
    if r + U.truth.rho < 0 and side == "lower":
        # no theorem branch reads V_{r-1} when rho + r < 0: read it directly
        grid = to.GridSpec()
        xs = grid.xs()
        log_v = to.cumulative_integral(U, "V", r - 1.0, 1.0).log_value(xs)
        limit = to.windowed_limit(xs, log_v / np.log(xs), grid).value
    else:
        limit = to.karamata_theorem_report(U, r, 1.0).measured["limit"]
    assert limit == pytest.approx(want, abs=0.05)


def test_karamata_limit_peter_paul():
    rep = to.karamata_theorem_report(to.make_peter_paul(), 1.0, 2.0)
    assert rep.measured["limit"] == pytest.approx(0.0, abs=0.05)


def test_condition_c1r_power():
    rep = to.karamata_theorem_report(to.make_power_tail(-2.0), 3.0, 2.0)
    assert rep.measured["branch"] == "K1*"
    assert rep.measured["condition_passed"]
    assert rep.measured["condition"]["limit"] == pytest.approx(3.0, abs=0.05)


def test_condition_c1r_peter_paul():
    rep = to.karamata_theorem_report(to.make_peter_paul(), 1.0, 2.0)
    assert rep.measured["branch"] == "K3*"
    assert rep.measured["condition_passed"]


def test_condition_c2r_power():
    rep = to.karamata_theorem_report(to.make_power_tail(-2.0), 0.5, 2.0)
    assert rep.measured["branch"] == "K2*"
    assert rep.measured["condition_passed"]
    assert rep.measured["condition"]["limit"] == pytest.approx(0.5, abs=0.05)


def test_theorem_report_branches():
    pp = to.make_peter_paul()
    rep = to.karamata_theorem_report(pp, 1.0, 2.0)
    assert rep.condition == "K3*"
    assert rep.passed
    # the boundary branch carries the ratio-test diagnostic: limit holds yet
    # the function is not ratio-regular
    assert rep.measured["ratio_regular"] is False

    rep = to.karamata_theorem_report(to.make_power_tail(-2.0), 3.0, 2.0)
    assert rep.condition == "K1*" and rep.passed
    rep = to.karamata_theorem_report(to.make_power_tail(-2.0), 0.5, 2.0)
    assert rep.condition == "K2*" and rep.passed


def test_theorem_report_class_mismatch():
    with pytest.raises(ClassMismatch):
        to.karamata_theorem_report(to.make_exp_neg(), 1.0, 2.0)


@pytest.mark.parametrize("r, branch", [(3.0, "K1*"), (2.0, "K3*"), (0.5, "K2*")])
def test_theorem_report_reads_one_integral_once(monkeypatch, r, branch):
    from tailorder import karamata

    U = to.make_power_tail(-2.0)
    label = to.classify(U)
    rv = to.rv_ratio_test(U)
    built, read = [], []
    original_build = karamata.cumulative_integral
    original_read = karamata.CumulativeIntegral.log_value

    def build(*args, **kwargs):
        built.append(args)
        return original_build(*args, **kwargs)

    def read_value(self, x):
        read.append(np.size(x))
        return original_read(self, x)

    monkeypatch.setattr(karamata, "cumulative_integral", build)
    monkeypatch.setattr(karamata.CumulativeIntegral, "log_value", read_value)
    rep = to.karamata_theorem_report(U, r, 2.0, label=label, rv=rv)
    assert rep.condition == branch and rep.passed
    assert len(built) == 1
    assert len(read) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_or_base_point_is_refused(bad):
    U = to.make_power_tail(1.0)
    with pytest.raises(ParamError, match="finite r"):
        to.cumulative_integral(U, "V", bad, 2.0)
    with pytest.raises(ParamError, match="finite r"):
        to.karamata_theorem_report(U, bad, 2.0)
    with pytest.raises(ParamError, match="0 < b < inf"):
        to.cumulative_integral(U, "V", 0.5, bad)
    with pytest.raises(ParamError, match="1 < b < inf"):
        to.extract_representation(U, bad)


@pytest.mark.parametrize("call, message", [
    (lambda U: to.cumulative_integral(U, "X", 0.0, 2.0), "kind must be 'V' or 'W'"),
    # the default grid ends at x_max = 1e8
    (lambda U: to.cumulative_integral(U, "V", 0.0, 1e9), "integration range is empty"),
    (lambda U: to.karamata_theorem_report(U, 1.0, 1e7),
     "grid too short beyond the base point b"),
    # the representation integrates from b, so a b at or past x_max leaves
    # it nothing to integrate; below x_max, its limits need the grid above 4 b
    (lambda U: to.extract_representation(U, 1e8), "integration range is empty"),
    (lambda U: to.extract_representation(U, 2e8), "integration range is empty"),
    (lambda U: to.verify_representation(U, to.extract_representation(U, 3e7)),
     "grid too short beyond the base point b"),
], ids=["kind", "b-beyond-x_max", "b-near-x_max", "rep-b-at-x_max", "rep-b-beyond-x_max",
        "rep-b-near-x_max"])
def test_a_bad_kind_or_base_point_is_refused(call, message):
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        call(to.make_power_tail(-2.0))


def test_branch_consistency_sweep():
    for h in to.corpus_m_members():
        for s in (-1.5, 0.0, 1.5):
            rep = to.karamata_theorem_report(h, s - h.truth.rho, 2.0)
            assert rep.passed, (h.name, s, rep.measured)


# ---------------------------------------------------------------------------
# closed-form oracle for the dyadic step tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,a,want", [
    (8.0, 1, 2.0),
    (6.0, 1, 1.5),
    (4.0, 1, 1.0),
])
def test_peter_paul_partial_integral_values(x, a, want):
    assert to.peter_paul_partial_integral(x, a) == pytest.approx(want, abs=1e-12)


def test_peter_paul_partial_integral_piecewise_crosscheck():
    # independent evaluation: sum the exact rectangle areas level by level
    def brute(x, a):
        total, lo = 0.0, 2.0 ** a
        k = a
        while 2.0 ** (k + 1) <= x:
            total += 2.0 ** -k * (2.0 ** (k + 1) - 2.0 ** k)
            k += 1
        total += 2.0 ** -k * (x - 2.0 ** k)
        return total

    for x in (4.0, 6.0, 8.0, 100.0, 12345.0):
        assert to.peter_paul_partial_integral(x, 1) == pytest.approx(
            brute(x, 1), rel=1e-12)


def test_peter_paul_partial_integral_param_errors():
    with pytest.raises(ParamError):
        to.peter_paul_partial_integral(8.0, 3)
    with pytest.raises(ParamError):
        to.peter_paul_partial_integral(2.0, 0)


def test_quadrature_matches_closed_form():
    grid = to.GridSpec(log10_x_min=1.0, log10_x_max=math.log10(2.0 ** 21))
    ci = to.cumulative_integral(to.make_peter_paul(), "V", 0.0, 2.0, grid)
    xs = np.logspace(math.log10(4.0), math.log10(2.0 ** 20), 200)
    for x in xs:
        want = to.peter_paul_partial_integral(float(x), 1)
        got = math.exp(ci.log_value(float(x)))
        assert abs(got / want - 1.0) <= 1e-6


def _step_integral(lo: float, hi: float, r: float) -> float:
    """integral_lo^hi t**r U(t) dt of the dyadic step tail, a level at a time."""
    total = 0.0
    while lo < hi and lo < 2.0 ** 1000:
        n = max(math.frexp(lo)[1] - 1, 0)  # U = 2**-n up to 2**(n+1)
        top = min(hi, 2.0 ** (n + 1))
        total += 2.0 ** -n * (top ** (r + 1.0) - lo ** (r + 1.0)) / (r + 1.0)
        lo = top
    return total


@pytest.mark.parametrize("b", [1.9, 1.93, 2.0, 2.07, 2.2, 3.0, 0.7])
def test_v_and_w_of_the_step_tail_are_exact_from_any_base_point(b):
    # the cells lie on k log 2 / 512, where the steps are, whatever b is
    U = to.make_peter_paul()
    xs = np.concatenate([[b], np.geomspace(b * 1.01, 1e8, 40), 2.0 ** np.arange(2, 26)])
    v = to.cumulative_integral(U, "V", 0.0, b)
    want = np.log([_step_integral(b, x, 0.0) for x in xs[1:]])
    np.testing.assert_allclose(v.log_value(xs[1:]), want, rtol=0, atol=1e-13)
    # the tail stops where an octave adds 1e-13 of it; at 2**-0.5 an octave
    # the octaves left hold about 3.4 times that
    w = to.cumulative_integral(U, "W", -0.5, b)
    want = np.log([_step_integral(x, math.inf, -0.5) for x in xs])
    np.testing.assert_allclose(w.log_value(xs), want, rtol=0, atol=5e-13)


# ---------------------------------------------------------------------------
# representation extraction
# ---------------------------------------------------------------------------


def test_representation_power():
    h = to.make_power_tail(-2.0)
    rep = to.extract_representation(h, 2.0)
    assert not rep.kappa_zero_mode
    xs = np.array([10.0, 1e3, 1e6])
    assert np.allclose(rep.beta_fn(xs), -2.0)
    assert np.allclose(rep.alpha_fn(xs), 0.0)
    # eps has the closed form log x / (log x - log b)
    for x in (1e3, 1e6, 1e8):
        want = math.log(x) / (math.log(x) - math.log(2.0))
        assert rep.eps_fn(np.array([x]))[0] == pytest.approx(want, rel=1e-12)
    ver = to.verify_representation(h, rep)
    assert ver.passed
    assert ver.measured["reconstruction_residual"] <= 1e-8
    # read from max(4 b, 10) against log(x / b), eps stays near 1 at a large b
    ver = to.verify_representation(h, to.extract_representation(h, 1e3))
    assert ver.passed
    assert ver.measured["eps"] <= 1.03


# finite-order members, away from and at the vanishing order
_REP_MEMBERS = [("power_tail", {"alpha": -2.0}), ("power_tail", {"alpha": 0.0}),
                ("power_tail", {"alpha": 0.8}), ("pareto_tail", {"alpha": 1.5}),
                ("peter_paul", {}), ("two_plus_sin", {}),
                ("log_perturbed_power", {"alpha": -2.0, "c": 0.5}),
                ("log_perturbed_power", {"alpha": 0.0, "c": 1.0}),
                ("log_perturbed_power", {"alpha": -1.2, "c": 1.0}),
                ("ramp_power", {"alpha": 2.5}), ("ramp_power", {"alpha": 0.01})]


_REP_XFAILS = {  # REP-LIMITS on the default grid
    ("peter_paul", 1e3): "eps reads 1.0573, beyond 1 + tol",
    ("peter_paul", 1e4): "eps reads 1.0590, beyond 1 + tol",
}


@pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 5.0, 10.0, 50.0, 100.0, 200.0, 500.0, 1e3, 1e4])
@pytest.mark.parametrize("name, params", _REP_MEMBERS,
                         ids=[f"{n}{list(p.values())}" for n, p in _REP_MEMBERS])
def test_representation_limits_hold_from_any_base_point(name, params, b, request):
    # alpha and eps are read against log(x / b), the length of their integral
    # in log x, on the sub-grid from max(4 b, 10), so the verdict does not
    # depend on b; peter_paul's eps drifts above 1 + tol from b = 1e3
    if (name, b) in _REP_XFAILS:
        request.applymarker(pytest.mark.xfail(reason=_REP_XFAILS[name, b], strict=True,
                                                  raises=AssertionError))
    h = to.make_named(name, params)
    ver = to.verify_representation(h, to.extract_representation(h, b))
    assert ver.passed, ver.measured


def test_representation_peter_paul():
    h = to.make_peter_paul()
    rep = to.extract_representation(h, 2.0)
    ver = to.verify_representation(h, rep)
    assert ver.passed
    assert ver.measured["beta"] == pytest.approx(-1.0, abs=0.05)
    # the exponent ratio lives in [-1, -n/(n+1)) on each dyadic block
    xs = np.logspace(1, 6, 200)
    beta = rep.beta_fn(xs)
    assert np.all(beta >= -1.0 - 1e-12) and np.all(beta < -0.7)


def test_representation_vanishing_order_path():
    h = to.make_two_plus_sin()
    rep = to.extract_representation(h, 2.0)
    assert rep.kappa_zero_mode
    ver = to.verify_representation(h, rep)
    assert ver.passed, ver.measured
    h0 = to.make_power_tail(0.0)
    rep0 = to.extract_representation(h0, 2.0)
    assert rep0.kappa_zero_mode
    assert to.verify_representation(h0, rep0).passed


def test_representation_class_mismatch():
    with pytest.raises(ClassMismatch):
        to.extract_representation(to.make_exp_neg(), 2.0)


def test_reconstruction_across_corpus():
    for h in to.corpus_m_members():
        rep = to.extract_representation(h, 2.0)
        ver = to.verify_representation(h, rep)
        assert ver.passed, (h.name, ver.measured)
        assert ver.measured["reconstruction_residual"] <= 1e-7, h.name


def test_inf_representation():
    ir = to.extract_representation_inf(to.make_exp_neg())
    assert ir.sign == 1
    assert ir.report.passed
    xs = np.array([10.0, 100.0])
    assert np.allclose(ir.alpha_fn(xs), xs)  # exponent recovers x itself
    ir2 = to.extract_representation_inf(to.make_exp_pos())
    assert ir2.sign == -1 and ir2.report.passed
    ir3 = to.extract_representation_inf(to.make_floor_log_tail())
    assert ir3.report.passed
    # alpha / log x reproduces the floor factor
    assert ir3.alpha_fn(np.array([50.5]))[0] / math.log(50.5) == pytest.approx(50.0)
    with pytest.raises(ClassMismatch):
        to.extract_representation_inf(to.make_power_tail(-2.0))


def test_representation_of_a_constant_under_a_nonzero_order_is_singular():
    # U = 1 given the label M(1): the exponent integral vanishes everywhere
    with pytest.raises(SingularDenominator):
        to.extract_representation(to.make_power_tail(0.0), label=to.ClassLabel.m(1.0))
