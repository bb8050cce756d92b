import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailorder as to
from tailorder.errors import ClassMismatch, ExtrapolationFailure, ParamError, TailOrderError
from tailorder.order import (_combine, _extrapolate_intercept, _logs, _window_extremes,
                             decay_verdict)


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


_PARETO = to.distribution_for(to.make_pareto_tail(1.0))
# each count the library takes, by the name its refusal gives it
_COUNTS = [
    ("grid points", lambda v: to.GridSpec(points=v)),
    ("grid windows", lambda v: to.GridSpec(windows=v)),
    ("block size", lambda v: to.normalized_maxima_cdf(_PARETO, v, np.array([1.0]))),
    ("block size", lambda v: to.block_maxima_simulate(_PARETO, [10, v], 5, 1)),
    ("reps", lambda v: to.block_maxima_simulate(_PARETO, [10], v, 1)),
    ("seed", lambda v: to.block_maxima_simulate(_PARETO, [10], 5, v)),
    ("k", lambda v: to.subsequence_witness(_PARETO, k_values=(8, v))),
    ("a", lambda v: to.peter_paul_partial_integral(100.0, v)),
]


@pytest.mark.parametrize("value", [True, 2.5, 10.0, -1, math.nan, "3"], ids=repr)
@pytest.mark.parametrize("what, call", _COUNTS,
                         ids=["points", "windows", "n", "n_values", "reps", "seed", "k_values",
                              "a"])
def test_every_count_is_a_whole_number_in_range(what, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=f"^{what} {re.escape(repr(value))} is out of range"):
            call(value)


def test_a_numpy_integer_count_becomes_a_python_int():
    grid = to.GridSpec(points=np.int64(2000), windows=np.uint8(8))
    assert (type(grid.points), type(grid.windows)) == (int, int)
    sim = to.block_maxima_simulate(_PARETO, np.array([10, 20]), np.int32(5), np.uint64(3))
    assert {type(v) for v in (*sim.n_values, sim.reps, sim.seed)} == {int}
    assert to.peter_paul_partial_integral(100.0, np.int64(2)) == \
        to.peter_paul_partial_integral(100.0, 2)
    D = to.distribution_for(to.make_peter_paul())
    [pair] = to.subsequence_witness(D, k_values=np.array([64]))["pairs"]
    assert pair["n1"] == 2 ** 64 and type(pair["n1"]) is int
    [pair] = to.subsequence_witness(D, k_values=np.array([8]))["pairs"]
    assert (pair["n1"], type(pair["n1"]), type(pair["n2"])) == (256, int, int)


def test_window_bounds_leave_grid_identity_alone():
    a, b = to.GridSpec(points=2001), to.GridSpec(points=2001)
    assert a.window_bounds.tolist() == [0, 250, 500, 750, 1000, 1250, 1500, 1750, 2001]
    assert not a.window_bounds.flags.writeable
    # the bounds are cached on a only
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    c = dataclasses.replace(a, points=1003, windows=4)
    assert c.window_bounds.tolist() == [0, 250, 501, 752, 1003]
    assert dataclasses.replace(c, points=2001, windows=8) == a
    assert a.window_slices()[-1] == slice(1750, 2001)


def _envelope_loop(xs, ys, grid):
    """Per-window argmin/argmax reference: positions, values and log x."""
    i_min, i_max, out = [], [], []
    for sl in grid.window_slices():
        i_min.append(sl.start + int(np.argmin(ys[sl])))
        i_max.append(sl.start + int(np.argmax(ys[sl])))
    for idx in (i_min, i_max):
        out += [np.array([ys[i] for i in idx]), np.array([math.log(xs[i]) for i in idx])]
    return np.array(i_min), np.array(i_max), out


def _assert_envelopes_match_loop(ys, grid):
    xs = grid.xs()
    i_min, i_max, want = _envelope_loop(xs, ys, grid)
    got_min, got_max = _window_extremes(ys, grid)
    assert got_min.tolist() == i_min.tolist() and got_max.tolist() == i_max.tolist()
    got = [ys[got_min], _logs(xs[got_min]), ys[got_max], _logs(xs[got_max])]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(pool=st.lists(_SAMPLES, min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1),
       windows=st.integers(2, 12), extra=st.integers(0, 47))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_window_envelopes_match_a_per_window_loop(pool, seed, windows, extra):
    # samples drawn from a few values, so windows hold ties, signed zeros,
    # infinities and NaN; points not divisible by windows give windows of
    # unequal length
    grid = to.GridSpec(points=16 * windows + extra, windows=windows)
    ys = np.array(pool)[np.random.default_rng(seed).integers(0, len(pool), grid.points)]
    _assert_envelopes_match_loop(ys, grid)


@pytest.mark.parametrize("points, windows", [(2001, 8), (2000, 8), (1003, 7), (128, 8)])
def test_window_envelopes_match_the_loop_on_long_grids(points, windows):
    rng = np.random.default_rng(points)
    ys = np.round(rng.normal(size=points), 1)  # many ties
    ys[rng.integers(0, points, 12)] = [math.nan, -math.inf, math.inf] * 4
    grid = to.GridSpec(points=points, windows=windows)
    _assert_envelopes_match_loop(ys, grid)
    _assert_envelopes_match_loop(np.where(np.isnan(ys), 0.0, ys), grid)


@given(seed=st.integers(0, 2**32 - 1), drift=st.floats(-10.0, 10.0),
       windows=st.integers(2, 12), extra=st.integers(0, 47))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_windowed_limit_reads_the_slice_means(seed, drift, windows, extra):
    grid = to.GridSpec(points=16 * windows + extra, windows=windows)
    xs = grid.xs()
    noise = np.random.default_rng(seed).normal(size=grid.points)
    ys = np.linspace(0.0, drift, grid.points) + noise * (seed % 3) / 10.0
    slices = grid.window_slices()
    means = [float(ys[sl].mean()) for sl in slices]
    L_mid = [math.log(xs[sl][len(xs[sl]) // 2]) for sl in slices]
    last = ys[slices[-1]]
    spread = float(last.max() - last.min())
    try:
        want = _combine(means, L_mid, 0, spread, grid)
    except ExtrapolationFailure:
        with pytest.raises(ExtrapolationFailure):
            to.windowed_limit(xs, ys, grid)
        return
    got = to.windowed_limit(xs, ys, grid)
    assert (got.value, got.spread, got.trend, got.rule) == \
        (want.value, spread, want.trend, want.rule)


def _one_on_octaves(residues):
    """U = 1 on the octaves [2**n, 2**(n+1)) with n % 4 in residues, 0 elsewhere."""
    return to.FunctionHandle(f"one_on_octaves_{residues}", log_at_logx=lambda u: np.where(
        np.isin(np.floor(u / to.handles.LOG2) % 4, residues), 0.0, -np.inf))


def test_order_spread_reads_finite_samples_only():
    # past x ~ 1e305 floor_log_tail's log U is -inf: the last window of the
    # first grid holds only -inf samples, and -inf - -inf would be a NaN spread
    U = to.make_floor_log_tail()
    mu, nu = to.estimate_orders(U, to.GridSpec(log10_x_min=305.5, log10_x_max=308.0))
    assert mu.spread == nu.spread == math.inf
    assert (mu.value, nu.value) == (-math.inf, -math.inf)
    # here the last 4 of 2000 samples are -inf, the grid's one switch: the
    # last window's extremes and spread read those 4 alone
    mu, nu = to.estimate_orders(U, to.GridSpec(log10_x_max=306.0))
    assert mu.spread == nu.spread == math.inf
    # here the last window switches many times: the range of its finite samples
    mu, nu = to.estimate_orders(_one_on_octaves((0, 3)))
    assert mu.spread == nu.spread == 0.0


def test_a_drift_beyond_the_float_range_is_a_runaway():
    # fit data that leave the float range give no fit
    assert _extrapolate_intercept(np.array([0.0, 1.0, 2.0, 3.0]),
                                  np.array([1.0, 2.0, 3.0, 4.0])) is None
    # exp_neg's window minima to x = 1e306 times L**2 overflow
    mu, _ = to.estimate_orders(to.make_exp_neg(), to.GridSpec(log10_x_max=306.0))
    assert (mu.value, mu.trend, mu.rule) == (-math.inf, to.Trend.DECREASING, "runaway")


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


@pytest.mark.parametrize("alpha", [-2.0, -1.0, 1.0, 2.0])
@pytest.mark.parametrize("c", [0.2, 0.3, 0.6, 0.9, 1.3, 1.5])
def test_crossed_envelopes_are_undecided_or_right(c, alpha):
    # the extrapolated lower order of these towers lies above the upper one;
    # classify read the crossed pair as the finite order M((mu + nu)/2)
    U = to.make_oset_tower(c, alpha)
    mu, nu = to.estimate_orders(U)
    assert mu.value - nu.value > 0.3
    label = to.classify(U)
    if label.is_decided:
        truth = U.truth.label
        assert label.tag == truth.tag, label
        for got, want in ((label.mu, truth.mu), (label.nu, truth.nu)):
            assert got == want or abs(got - want) <= 0.05, label


@pytest.mark.parametrize("args, message", [
    (("Q",), "unknown class tag 'Q'"),
    (("MInf", 1.0), "MInf label carries no rho"),
    (("Oscillating", None, 1.0, 0.0), "Oscillating label requires mu < nu"),
    (("Oscillating", None, math.inf, math.inf), "Oscillating label requires mu < nu"),
    (("M", 1.0, None, 0.0), "M label carries no mu/nu"),
])
def test_a_label_refuses_fields_its_tag_does_not_allow(args, message):
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        to.ClassLabel(*args)


def test_classify_tolerance_validation():
    with pytest.raises(ParamError):
        to.classify(to.make_power_tail(1.0), tol=0.0)


def test_classify_tolerance_must_be_finite():
    # an infinite tolerance would call every window gap a finite order
    with pytest.raises(ParamError, match="^tol inf is out of range"):
        to.classify(to.make_x_pow_sin_x(), tol=math.inf)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_every_check_refuses_the_tolerances_that_classify_refuses(tol):
    # each reads tol as a budget, so such a tol would give a verdict that means nothing
    h = to.make_power_tail(-2.0)
    rep = to.extract_representation(h)
    checks = (lambda: to.rv_ratio_test(h, tol=tol),
              lambda: to.verify_representation(h, rep, tol=tol),
              lambda: to.check_second_characterization(h, tol=tol, label=to.ClassLabel.m(-2.0)))
    for check in checks:
        with pytest.raises(ParamError, match=f"^tol {tol!r} is out of range: .* here 0 < tol < inf$"):
            check()


@pytest.mark.parametrize("check, required", [
    (lambda U, label: to.check_second_characterization(U, label=label), "finite order"),
    (lambda U, label: to.karamata_theorem_report(U, 1.0, 2.0, label=label), "finite order"),
    (lambda U, label: to.extract_representation(U, label=label), "finite order"),
    (lambda U, label: to.tauberian_check(U, label=label), "finite order"),
    (lambda U, label: to.extract_representation_inf(U, label=label), "rapid class"),
], ids=["second_characterization", "karamata", "representation", "tauberian",
        "representation_inf"])
def test_each_class_gated_check_names_the_class_it_needs(check, required):
    label = to.ClassLabel.oscillating(-1.0, 1.0) if required == "finite order" \
        else to.ClassLabel.m(0.0)
    with pytest.raises(ClassMismatch,
                       match=rf"^x_pow_sin_x: classified {re.escape(str(label))}, {required} required$"):
        check(to.make_x_pow_sin_x(), label)


_EDGE = 25 * to.handles.LOG2
# U = 1 from 2**25 on and 0 below, and U = x**2 from 1 to 2**25 and 0 beyond:
# on the default grid each kappa probe of the first has one nonzero octave
# mass, its last, and each of the second ends in zero masses
_ONE_FROM_EDGE = to.FunctionHandle(
    "one_from_2^25", log_at_logx=lambda u: np.where(u >= _EDGE, 0.0, -np.inf))
_SQUARE_BELOW_EDGE = to.FunctionHandle(
    "square_below_2^25", log_at_logx=lambda u: np.where(u < _EDGE, 2.0 * np.maximum(u, 0.0),
                                                          -np.inf))


def test_zero_octave_masses_decide_no_false_moment_index():
    assert decay_verdict(np.array([3.0, 2.0, 4.0, 5.0, -np.inf])).tag == "Convergent"
    assert decay_verdict(np.array([-np.inf] * 4 + [0.0])).tag == "Undecided"
    # the truth is kappa = 0; before, kappa = +inf
    with pytest.raises(to.UndecidedConvergence, match="r_lo=-128"):
        to.estimate_kappa(_ONE_FROM_EDGE)
    # U vanishes eventually, so every moment converges; before, kappa = -2
    assert to.estimate_kappa(_SQUARE_BELOW_EDGE).value == math.inf


def test_non_finite_leading_windows_leave_no_placeholder_in_the_estimate():
    # U reaches or leaves 0 for good inside the last window: its extremes and
    # the spread are read from the samples after the switch
    mu, nu = to.estimate_orders(_ONE_FROM_EDGE)
    assert (mu.value, nu.value, nu.spread, nu.trend) == (0.0, 0.0, 0.0, to.Trend.STABLE)
    assert to.classify(_ONE_FROM_EDGE) == to.ClassLabel.m(0.0)
    _, nu = to.estimate_orders(_SQUARE_BELOW_EDGE)
    assert (nu.value, nu.spread, nu.trend, nu.rule) == \
        (-math.inf, math.inf, to.Trend.DECREASING, "runaway")
    assert to.classify(_SQUARE_BELOW_EDGE) == to.ClassLabel.m_inf()
    # U = 1 on an unbounded set with recurring zero gaps: the last window
    # switches once, at 2**25, but the grid many times
    for residues in ((0, 3), (1, 2)):
        assert to.classify(_one_on_octaves(residues)) == \
            to.ClassLabel.oscillating(-math.inf, 0.0), residues
    L = np.log(np.geomspace(10.0, 1e8, 8))
    grid = to.GridSpec()
    for side in (-1, 0, 1):
        # four or more finite trailing windows are combined alone
        est = _combine([-np.inf, -np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], L, side, 1.0, grid)
        assert (est.value, est.trend, est.rule) == (1.0, to.Trend.STABLE, "stable")
        # fewer are too few to read a trend from
        est = _combine([np.inf] * 5 + [3.0, 2.0, 1.0], L, side, 1.0, grid)
        assert (est.value, est.trend, est.rule) == \
            (1.0, to.Trend.OSCILLATING, "short finite tail")


# the probe integrates x**(r - 3) over its 26 octaves, from 1 to 2**26
@pytest.mark.parametrize("r,tag,log_integral", [
    (1.0, "Convergent", math.log1p(-2.0 ** -26)),  # exponent 1 - 2 below the integrability line
    (3.0, "Divergent", math.log(2.0 ** 26 - 1.0)),
])
def test_probe_power(r, tag, log_integral):
    v = to.probe_integral_convergence(to.make_power_tail(-2.0), r)
    assert v.tag == tag
    assert v.log_integral == pytest.approx(log_integral, rel=0, abs=1e-15)


def test_probe_peter_paul_razor():
    pp = to.make_peter_paul()
    assert to.probe_integral_convergence(pp, 0.999).tag == "Convergent"
    assert to.probe_integral_convergence(pp, 1.001).tag == "Divergent"


@pytest.mark.parametrize("U, side, rule", [
    (to.compose(to.make_exp_neg(), to.make_exp_pos()), 0, "runaway"),
    (_ONE_FROM_EDGE, 0, "short finite tail"),
    (to.make_power_tail(-3.0), 0, "stable"),
    (to.make_exp_neg(), 0, "clamped extrapolation"),
    (to.make_peter_paul(), 1, "extrapolation"),
    (to.scale_add(0.5, to.make_power_tail(-1.0), to.make_pareto_tail(1.5)), 0,
     "clamped extrapolation"),
    (to.make_oset_tower(0.1, -2.0), 0, "envelope"),
    (to.make_peter_paul(), 0, "envelope"),
], ids=lambda v: v.name if isinstance(v, to.FunctionHandle) else str(v))
def test_each_exit_of_the_window_reduction_names_its_rule(U, side, rule):
    est = to.estimate_orders(U)[side]
    assert est.rule == rule
    assert math.isnan(est.residual) is not rule.endswith("extrapolation")


def test_an_extrapolated_estimate_carries_its_fit_residual():
    mu, nu = to.estimate_orders(to.make_log_perturbed_power(-2.0, 0.5))
    assert (mu.rule, nu.rule) == ("extrapolation", "extrapolation")
    assert (mu.residual, nu.residual) == (pytest.approx(8.757e-4, rel=1e-3),
                                          pytest.approx(7.286e-3, rel=1e-3))
    # the crossed tower's lower order: the window minima fit the model exactly
    mu, nu = to.estimate_orders(to.make_oset_tower(0.9, -1.0))
    assert mu.rule == "extrapolation" and mu.residual < 1e-13
    assert nu.rule == "envelope" and math.isnan(nu.residual)


def _times_constant(U, c):
    """e**c * U, evaluated at the points U is."""
    return to.FunctionHandle(f"e**{c:g}*{U.name}", log_at_x=lambda x: c + U.log_at(x))


@pytest.mark.parametrize("c", [-5000.0, -1000.0, 300.0, 500.0, 1000.0, 5000.0])
@pytest.mark.parametrize("alpha", [-80.0, 0.0, 80.0])
def test_a_constant_factor_keeps_the_order_of_a_power(alpha, c):
    # the window statistics carry log c / log x, up to 2,171 at x = 10; their
    # limit does not
    label = to.classify(to.FunctionHandle("e**c*x**alpha", log_at_logx=lambda u: c + alpha * u))
    assert label.is_m and label.rho == pytest.approx(alpha, abs=1e-9)


_POWERS = st.one_of(st.floats(-127.0, 127.0).map(to.make_power_tail),
                    st.floats(0.0, 127.0, exclude_min=True).map(to.make_ramp_power),
                    st.floats(0.0, 127.0, exclude_min=True).map(to.make_pareto_tail))


@given(U=_POWERS, c=st.floats(-5000.0, 5000.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_classify_is_closed_under_constant_factors(U, c):
    # M(rho) is closed under positive constant factors. The orders stay a unit
    # inside +-ORDER_BOUND, where an estimate's last bits cannot cross it.
    label, scaled = to.classify(U), to.classify(_times_constant(U, c))
    assert scaled.tag == label.tag == "M"
    assert scaled.rho == pytest.approx(label.rho, rel=1e-9, abs=1e-9)


def test_a_limit_beyond_the_order_bound_is_infinite_on_every_exit():
    for alpha, rule in ((150.0, "stable"), (-150.0, "stable"), (129.0, "extrapolation")):
        c = 0.0 if rule == "stable" else 1000.0
        U = to.FunctionHandle("e**c*x**alpha", log_at_logx=lambda u: c + alpha * u)
        for est in to.estimate_orders(U):
            assert (est.value, est.rule) == (math.copysign(math.inf, alpha), rule)
    mu, nu = to.estimate_orders(to.make_oset_tower(0.1, -2.0))
    assert (mu.value, mu.rule, nu.rule) == (-math.inf, "envelope", "envelope")
    assert math.isfinite(nu.value)
    # an order of 70 is inside the moment index's bracket too
    for alpha in (70.0, -70.0):
        U = to.make_power_tail(alpha)
        kappa = to.estimate_kappa(U)
        assert kappa.value == pytest.approx(-alpha, abs=0.01)
        assert to.check_second_characterization(U, kappa=kappa).passed


def test_an_infinite_estimate_keeps_its_runaway_trend():
    # U = 1 on the octaves n % 4 in {0, 3}: the last window's finite samples
    # agree (spread 0), but its minima are -inf, a runaway, not a Stable order
    mu, _ = to.estimate_orders(_one_on_octaves((0, 3)))
    assert (mu.value, mu.spread, mu.trend, mu.rule) == \
        (-math.inf, 0.0, to.Trend.DECREASING, "runaway")


def test_a_convergence_verdict_carries_its_mean_log_ratio():
    v = to.probe_integral_convergence(to.make_two_plus_sin(), 0.0)
    assert v.tag == "Divergent"
    assert v.mean_log_ratio == pytest.approx(6.393e-3, rel=1e-3)
    assert decay_verdict(np.array([0.0, 1.0, 2.0, 3.0, np.inf])).mean_log_ratio == math.inf
    assert decay_verdict(np.array([3.0, 2.0, 4.0, 5.0, -np.inf])).mean_log_ratio == -math.inf
    assert math.isnan(decay_verdict(np.array([-np.inf] * 4 + [0.0])).mean_log_ratio)


def test_equality_and_reports_ignore_the_evidence():
    mu, _ = to.estimate_orders(to.make_log_perturbed_power(-2.0, 0.5))
    other = dataclasses.replace(mu, rule="stable", residual=math.nan)
    assert mu == other and hash(mu) == hash(other)
    assert set(to.report.estimate_dict(mu)) == {"value", "spread", "trend", "grid"}
    v = to.probe_integral_convergence(to.make_two_plus_sin(), 0.0)
    assert v == dataclasses.replace(v, mean_log_ratio=math.nan, log_integral=math.nan)


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
    # the log ratio at t = 10, 276, lies beyond +-ORDER_BOUND, its order does not
    for alpha in (120.0, -120.0):
        rep = to.rv_ratio_test(to.make_power_tail(alpha), [0.1, 2.0, 10.0])
        assert rep.passed
        assert rep.measured["rho"] == pytest.approx(alpha, abs=1e-6)


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
    with pytest.raises(ParamError, match=f"^t {t!r} is out of range: .* here 0 < t < inf$"):
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
    # moment index exactly at the search edge: the probe cannot take sides;
    # power_tail's rule, as the catalog refuses an order on the bound
    h = to.FunctionHandle("x**-128", log_at_logx=lambda u: -128.0 * np.maximum(u, 0.0))
    with pytest.raises(to.UndecidedConvergence):
        to.estimate_kappa(h)


def _label_agrees(U, truth, tol=0.05):
    """classify(U) is Undecided, or has truth's tag and orders within tol."""
    got = to.classify(U, tol=tol)
    return not got.is_decided or (got.tag == truth.tag and all(
        a == b or abs(a - b) <= tol for a, b in zip(got.orders, truth.orders))), got


def _kappa_agrees(U, truth, tol=0.05):
    """kappa of U, unless refused, lies in [-nu - tol, -mu + tol] of truth's
    orders, as the comparison test gives -nu <= kappa <= -mu."""
    try:
        kappa = to.estimate_kappa(U).value
    except TailOrderError as exc:
        return True, exc
    mu, nu = truth.orders
    return -nu - tol <= kappa <= -mu + tol, kappa


_PETER_PAUL, _OSET = to.make_peter_paul(), to.make_oset_geometric(0.5, 1.5, 2.0)
# decisions known to be silently wrong, each id naming the ROADMAP item whose
# fix must turn its case from xfail to pass
_WRONG_DECISIONS = [
    pytest.param(_kappa_agrees, _OSET, _OSET.truth.label,
                 id="item19-kappa-oset_geometric(0.5,1.5,2)"),
    pytest.param(_label_agrees, to.FunctionHandle("exp(-x**0.1)",
                                                  log_at_logx=lambda u: -np.exp(0.1 * u)),
                 to.ClassLabel.m_inf(), id="item9-exp(-x**0.1)"),
    pytest.param(_label_agrees, to.FunctionHandle(
        "exp(-(log x)**1.5)", log_at_logx=lambda u: -np.maximum(u, 0.0) ** 1.5),
                 to.ClassLabel.m_inf(), id="item9-exp(-(log x)**1.5)"),
    pytest.param(_label_agrees, _times_constant(_PETER_PAUL, -1000.0),
                 _PETER_PAUL.truth.label, id="item9-e**-1000*peter_paul"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="decided but wrong; the id names the ROADMAP item that mends it")
@pytest.mark.parametrize("agrees, U, truth", _WRONG_DECISIONS)
def test_a_decided_value_agrees_with_its_truth(agrees, U, truth):
    ok, got = agrees(U, truth)
    assert ok, got
