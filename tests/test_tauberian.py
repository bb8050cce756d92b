import math
import re

import numpy as np
import pytest

import tailorder as to
from tailorder import quadrature, tauberian
from tailorder.errors import ParamError, PreconditionError, QuadratureFailure


def test_ramp_closed_form():
    r1 = to.make_ramp_power(1.0)
    for s in np.logspace(-1.0, -8.0, 200)[::10]:
        got = to.laplace_stieltjes(r1, float(s))
        assert abs(got * s - 1.0) <= 1e-6
    # large s probes the fast-decay side of the kernel
    assert to.laplace_stieltjes(r1, 10.0) == pytest.approx(0.1, rel=1e-8)


def test_quadratic_closed_form():
    r2 = to.make_ramp_power(2.0)
    for s in np.logspace(-1.0, -8.0, 200)[::10]:
        got = to.laplace_stieltjes(r2, float(s))
        assert abs(got * s * s / 2.0 - 1.0) <= 1e-6


def test_transform_requires_vanishing_origin():
    with pytest.raises(PreconditionError):
        to.laplace_stieltjes(to.make_power_tail(-2.0), 0.1)
    with pytest.raises(PreconditionError):
        to.laplace_stieltjes(to.make_power_tail(1.0), 0.1)


def _on_powers_of_two_from_one(x):
    mantissa, _ = np.frexp(x)
    return np.where((mantissa == 0.5) & (x >= 1.0), 0.0, -np.inf)


def _on_powers_of_two(x):
    return np.where(np.frexp(x)[0] == 0.5, 0.0, -np.inf)


@pytest.mark.parametrize("U, error, message", [
    # a table's rows do not reach the origin probe x = 1e-300
    (to.from_table(np.geomspace(2.0, 1e4, 20), -1.5 * np.log(np.geomspace(2.0, 1e4, 20))),
     PreconditionError,
     "table: cannot probe the origin: table: log-argument outside tabulated range"),
    (to.FunctionHandle(name="zero", log_at_x=lambda x: np.full(np.shape(x), -np.inf)),
     QuadratureFailure, "transform integrand has no finite peak"),
    # positive on a null set, which the peak scan hits and no Kronrod node
    # does: the transform is 0
    (to.FunctionHandle(name="spikes", log_at_x=_on_powers_of_two_from_one),
     QuadratureFailure, "transform quadrature returned a non-positive value"),
    # the centre of every panel [0, 2**-k] is a power of two, so the panels
    # are halved toward 0 until one is too narrow for its nodes
    (to.FunctionHandle(name="spikes", log_at_x=_on_powers_of_two),
     QuadratureFailure, "adaptive quadrature: panel [0, 3.16e-322] is too narrow for its nodes"),
], ids=["table", "zero", "null-set", "null-set-down-to-0"])
def test_transform_of_a_u_without_a_positive_transform_is_refused(U, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        to.laplace_stieltjes(U, 1.0)


def test_transform_handle_probes_the_origin_when_it_is_built():
    with pytest.raises(PreconditionError, match="does not vanish at the origin"):
        to.transform_handle(to.make_power_tail(2.0))


def test_transform_requires_positive_s():
    with pytest.raises(ParamError):
        to.laplace_stieltjes(to.make_ramp_power(1.0), 0.0)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_transform_requires_finite_s(s):
    with pytest.raises(ParamError, match=f"^s {s!r} is out of range: .* here 0 < s < inf$"):
        to.laplace_stieltjes(to.make_ramp_power(1.0), s)


@pytest.mark.parametrize("s, log_value", [(1e-300, "1036.45"), (1e-306, "1057.17"),
                                          (1e250, "-863.185")])
def test_transform_beyond_the_float_range_is_named(s, log_value):
    # the log transform is finite, its exp overflows to inf or underflows to 0
    with pytest.raises(ParamError, match=re.escape(f"s = {s:g} is exp({log_value})")):
        to.laplace_stieltjes(to.make_ramp_power(1.5), s)


def test_transform_monotone_for_nondecreasing_input():
    h = to.make_ramp_power(1.5)
    H = to.transform_handle(h)
    ss = np.logspace(1, 6, 40)
    vals = np.asarray(H.log_at(ss), dtype=float)
    assert np.all(np.diff(vals) > 0.0)


def test_transform_handle_batch_matches_scalar_transform():
    U = to.make_ramp_power(2.6)
    xs = np.logspace(1, 8, 25)
    batch = np.asarray(to.transform_handle(U).log_at(xs), dtype=float)
    single = np.log([to.laplace_stieltjes(U, 1.0 / x) for x in xs])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 2.6, 3.0])
def test_transform_closed_form_on_a_wide_s_grid(alpha):
    # Gamma(alpha + 1) * s**-alpha over nine decades of s, in one batch and
    # one s at a time; a non-integer alpha puts a y**alpha cusp at y = 0
    s = np.logspace(-8, 1, 200)
    U = to.make_ramp_power(alpha)
    got = np.asarray(to.transform_handle(U).log_at(1.0 / s))
    want = math.lgamma(alpha + 1.0) - alpha * np.log(s)
    assert np.abs(got - want).max() <= 1e-8
    for sv, w in zip(s[::10], want[::10]):
        assert to.laplace_stieltjes(U, float(sv)) == pytest.approx(math.exp(w), rel=1e-8)


def test_transform_batch_converges_in_two_rounds(monkeypatch):
    # dyadic starting panels leave at most one round of halving
    rounds = []
    gk_panels = quadrature._gk_panels

    def spy(log_f, a, b, ids):
        rounds.append(a.size)
        return gk_panels(log_f, a, b, ids)

    monkeypatch.setattr(quadrature, "_gk_panels", spy)
    s = 1.0 / to.GridSpec(points=128, windows=8).xs()
    tauberian._log_transform(to.make_ramp_power(2.6), s)
    assert len(rounds) <= 2
    rounds.clear()
    to.laplace_stieltjes(to.make_ramp_power(2.6), 0.01)
    assert len(rounds) <= 2


@pytest.fixture
def gk_rounds(monkeypatch):
    """The panel counts of every Gauss-Kronrod round, one entry per round."""
    rounds = []
    gk_panels = quadrature._gk_panels

    def spy(log_f, a, b, ids):
        rounds.append(a.size)
        return gk_panels(log_f, a, b, ids)

    monkeypatch.setattr(quadrature, "_gk_panels", spy)
    return rounds


@pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("s", [1e-8, 1e-4, 0.1])
def test_transform_converges_in_two_rounds_at_small_alpha(gk_rounds, alpha, s):
    # panels graded toward y = 0 hold the y**alpha cusp, which halving
    # reaches only one panel per round
    got = to.laplace_stieltjes(to.make_ramp_power(alpha), s)
    assert got == pytest.approx(math.gamma(alpha + 1.0) * s ** -alpha, rel=1e-8)
    assert len(gk_rounds) <= 2


@pytest.mark.parametrize("U", [
    to.make_ramp_power(2.6),
    tauberian.regularize_origin(to.make_power_tail(2.6), 2.6),
], ids=["ramp_power", "regularized_power_tail"])
def test_tauberian_batch_converges_in_one_round(gk_rounds, U):
    s = 1.0 / to.GridSpec(points=128, windows=8).xs()
    tauberian._log_transform(U, s)
    assert len(gk_rounds) == 1


@pytest.mark.parametrize("alpha", [10.0, 40.0, 80.0])
def test_transform_closed_form_at_large_alpha(alpha):
    # the peak y = alpha moves up the scan; log values, as exp overflows
    s = np.logspace(-8, 1, 200)
    got = np.asarray(to.transform_handle(to.make_ramp_power(alpha)).log_at(1.0 / s))
    want = math.lgamma(alpha + 1.0) - alpha * np.log(s)
    assert np.abs(got - want).max() <= 1e-8


def _power(alpha):
    """x**alpha on (0, inf): ramp_power's rule at orders the catalog refuses."""
    return to.FunctionHandle(f"x**{alpha:g}", log_at_logx=lambda u: alpha * u)


@pytest.mark.parametrize("alpha", [1100.0, 2000.0])
def test_transform_peak_beyond_the_scan(alpha):
    # the peak y = alpha lies near or past the last scan point 2**11, and
    # the upper limit follows it by doubling
    s = math.exp(math.lgamma(alpha + 1.0) / alpha)  # closed form 1
    assert abs(to.laplace_stieltjes(_power(alpha), s) - 1.0) <= 1e-8


def test_transform_integrand_that_never_decays_is_named():
    # x e^x at s = 0.5: exp(-y) U(y/s) grows until y/s overflows
    U = to.FunctionHandle(name="x_exp_x", log_at_logx=lambda u: u + np.exp(u))
    assert to.laplace_stieltjes(U, 2.0) == pytest.approx(2.0, rel=1e-8)
    with pytest.raises(QuadratureFailure, match=r"s = 0\.5 .* float range"):
        to.laplace_stieltjes(U, 0.5)


def test_transform_scan_beyond_the_float_range_names_s():
    # y/s overflows before the integrand falls from its peak near y = 300:
    # no x was at or below 0
    with pytest.raises(QuadratureFailure, match=r"s = 1e-306 .* float range"):
        to.laplace_stieltjes(_power(300.0), 1e-306)
    with pytest.raises(QuadratureFailure, match=r"s = 1e-306 .* float range"):
        to.transform_handle(_power(300.0)).log_at(np.array([10.0, 1e306]))
    # below s = 2**-20 / 1.8e308 not even the first scan point is in range
    with pytest.raises(QuadratureFailure, match=r"peak from y = 9\.53674e-07, .* float range"):
        to.laplace_stieltjes(to.make_ramp_power(0.3), 1e-320)


def test_transform_at_tiny_s_scans_up_to_the_float_range():
    # y/s overflows past y = 2**7, long after the integrand has fallen 40
    # nats below its peak near y = 0.3
    s = 1e-306
    got = to.laplace_stieltjes(to.make_ramp_power(0.3), s)
    assert abs(math.log(got) - (math.lgamma(1.3) - 0.3 * math.log(s))) <= 1e-8
    got = to.transform_handle(to.make_ramp_power(0.3)).log_at(np.array([10.0, 1.0 / s]))
    np.testing.assert_allclose(got, math.lgamma(1.3) + 0.3 * np.log([10.0, 1.0 / s]),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_order_preserved_through_transform(alpha):
    rep = to.tauberian_check(to.make_ramp_power(alpha))
    assert rep.passed
    assert rep.measured["transform_label"]["tag"] == "M"
    assert rep.measured["transform_label"]["rho"] == pytest.approx(alpha, abs=0.05)


def test_origin_regularization_path():
    # flat-below-one power input needs the origin fix to satisfy the
    # hypotheses; asymptotics are unchanged
    rep = to.tauberian_check(to.make_power_tail(1.0))
    assert rep.passed and rep.measured["regularized"]


def test_positive_order_required():
    with pytest.raises(PreconditionError):
        to.tauberian_check(to.make_two_plus_sin())


def test_perturbed_ramp_preserves_order():
    def llx(u):
        ua = np.asarray(u, dtype=float)
        return np.where(ua >= 0.0, 1.5 * ua + np.log1p(0.1 * np.sin(ua)), 1.5 * ua)

    h = to.FunctionHandle(name="wobbling_ramp", log_at_logx=llx)
    rep = to.tauberian_check(h)
    assert rep.passed
    assert rep.measured["transform_label"]["rho"] == pytest.approx(1.5, abs=0.05)


def test_concavity_diagnostic_present():
    rep = to.tauberian_check(to.make_ramp_power(2.0))
    conc = rep.measured["concavity"]
    assert conc  # reported, never asserted
    assert set(v for v in conc.values()) <= {"concave", "not-concave"}
