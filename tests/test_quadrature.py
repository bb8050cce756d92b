import math

import numpy as np
import pytest

import tailorder as to
from tailorder import quadrature
from tailorder.errors import QuadratureFailure
from tailorder.quadrature import GK_WG, GK_WK, GK_X, adaptive_log_quad, batched_log_quad


def test_kronrod_and_gauss_degrees():
    # K15 integrates polynomials up to degree 22 exactly, the embedded G7 up
    # to degree 13
    for k in range(24):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert (GK_WK * GK_X ** k).sum() == pytest.approx(exact, abs=1e-15)
        if k <= 13:
            assert (GK_WG * GK_X ** k).sum() == pytest.approx(exact, abs=1e-15)


def test_batched_integrals_match_one_at_a_time():
    # integral_0^1 x**p dx = 1/(p+1), four exponents in one call, each to
    # the default relative tolerance 1e-8
    p = np.array([0.3, 1.0, 2.5, 7.0])

    def log_f(x, ids):
        return p[ids][:, None] * np.log(x)

    got = batched_log_quad(log_f, np.zeros((4, 1)), np.ones((4, 1)))
    np.testing.assert_allclose(np.exp(got + np.log1p(p)), 1.0, rtol=1e-8, atol=0)
    for i, pi in enumerate(p):
        one = adaptive_log_quad(lambda x, pi=pi: pi * np.log(x), 0.0, 1.0)
        assert one == pytest.approx(got[i], abs=1e-12)


def test_log_space_range():
    # exp(-x) on [0, 1500]: the integrand spans 650 orders of magnitude
    got = adaptive_log_quad(lambda x: -x, 0.0, 1500.0, split_points=(1.0, 10.0, 100.0))
    assert got == pytest.approx(math.log(-math.expm1(-1500.0)), abs=1e-12)


def test_empty_and_zero_integrals():
    got = batched_log_quad(lambda x, ids: np.full(x.shape, -np.inf),
                           [[0.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]])
    assert np.all(got == -np.inf)
    assert adaptive_log_quad(lambda x: x, 2.0, 2.0) == -math.inf


def test_budget_exhaustion_raises_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        adaptive_log_quad(lambda x: 0.3 * np.log(x), 0.0, 1.0, max_evals=50)


def test_nan_integrand_raises_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        adaptive_log_quad(lambda x: np.full(x.shape, np.nan), 0.0, 1.0)


def _power_panels(n_panels: int):
    """n_panels panels of x**p on [1, 2], spread over three integrals."""
    edges = np.linspace(1.0, 2.0, n_panels + 1)
    a, b = edges[:-1], edges[1:]
    ids = np.arange(n_panels) % 3
    p = np.array([-1.5, 0.5, 2.5])

    def log_f(x, ids):
        return p[ids][:, None] * np.log(x)

    return log_f, a, b, ids


@pytest.mark.parametrize("n_panels", [1, 65, 127, 128, 129, 130])
def test_blocked_panels_equal_one_block_bit_for_bit(monkeypatch, n_panels):
    # every panel is computed on its own: blocks of 64 panels give the bits
    # of one block, one below, at and one above a block multiple; a lone
    # last panel (65, 129) would round differently in a block of its own
    log_f, a, b, ids = _power_panels(n_panels)
    monkeypatch.setattr(quadrature, "_GK_BLOCK", 10 ** 9)
    whole = quadrature._gk_panels(log_f, a, b, ids)
    monkeypatch.setattr(quadrature, "_GK_BLOCK", 64)
    blocked = quadrature._gk_panels(log_f, a, b, ids)
    for got, want in zip(blocked, whole):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", ["convolve", "transform"])
def test_blocked_batches_equal_one_block_bit_for_bit(monkeypatch, batch):
    # the 128-point convolution (1,977 starting panels) and transform batch
    # (1,536) span several blocks
    xs = np.geomspace(10.0, 1e8, 128)
    if batch == "convolve":
        h = to.convolve(to.make_power_tail(-3.0), to.make_power_tail(-1.8))
    else:
        h = to.transform_handle(to.make_ramp_power(2.6))
    blocked = h.log_at(xs)
    monkeypatch.setattr(quadrature, "_GK_BLOCK", 10 ** 9)
    assert blocked.tobytes() == h.log_at(xs).tobytes()


def test_log_f_sees_at_most_one_block():
    # a batch of 2.5 blocks reaches log_f as two full blocks and a half
    sizes = []
    log_f, a, b, ids = _power_panels(5 * quadrature._GK_BLOCK // 2)

    def spy(x, ids):
        sizes.append(x.shape[0])
        return log_f(x, ids)

    quadrature._gk_panels(spy, a, b, ids)
    assert sizes == [quadrature._GK_BLOCK] * 2 + [quadrature._GK_BLOCK // 2]


def test_convolution_log_f_sees_at_most_one_block():
    rows = []

    def log_at_x(x):
        rows.append(x.shape[0])
        return -2.0 * np.log1p(x)

    U = to.FunctionHandle(name="spy", log_at_x=log_at_x)
    to.convolve(U, to.make_power_tail(-1.8)).log_at(np.geomspace(10.0, 1e8, 128))
    assert sum(rows) >= 3954
    assert max(rows) <= quadrature._GK_BLOCK


def test_cell_rule_limits_at_infinite_ends():
    # cell k spans u in [2k, 2k + 1]; every end has its own log-integrand
    # value, read back from the integer nearest log x
    ends = [-math.inf, 0.5, math.inf]
    pairs = [(lo, hi) for lo in ends for hi in ends] + [(-3.0, 2.0), (7.0, 7.0)]
    g = {}
    for k, (lo, hi) in enumerate(pairs):
        g[2 * k], g[2 * k + 1] = lo, hi

    def log_f(x):
        return np.array([g[round(math.log(v))] for v in x])

    u_lo = 2.0 * np.arange(len(pairs))
    got = quadrature.cell_pair_log_masses(log_f, u_lo, u_lo + 1.0)
    g_lo, g_hi = np.array(pairs).T
    with np.errstate(invalid="ignore"):
        rule = g_lo + np.log(1.0) + quadrature.log_phi(g_hi - g_lo)
    for (lo, hi), mass, want in zip(pairs, got, rule):
        if math.inf in (lo, hi):
            assert mass == math.inf, (lo, hi)
        elif -math.inf in (lo, hi):
            assert mass == -math.inf, (lo, hi)
        else:
            # a finite cell keeps the bits of the rule itself
            assert mass == want, (lo, hi)
    assert quadrature.logsumexp(got) == math.inf
    assert quadrature.logsumexp(got[[0, 1, 3]]) == -math.inf


def test_cell_rule_on_a_2d_batch_equals_its_rows():
    # one cell of a (3, 4) batch ends where the log-integrand is +inf
    def log_f(x):
        return np.where(x > 500.0, math.inf, -1.5 * np.log(x))

    u_lo = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    u_hi = u_lo + 0.5
    got = quadrature.cell_pair_log_masses(log_f, u_lo, u_hi)
    assert np.isinf(got).sum() == 1
    rows = np.stack([quadrature.cell_pair_log_masses(log_f, lo, hi)
                     for lo, hi in zip(u_lo, u_hi)])
    assert got.shape == (3, 4) and got.tobytes() == rows.tobytes()
