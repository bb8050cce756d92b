import math

import numpy as np
import pytest

import tailorder as to
from tailorder import quadrature
from tailorder.errors import QuadratureFailure
from tailorder.handles import LOG2
from tailorder.quadrature import GK_WG, GK_WK, GK_X, adaptive_log_quad


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

    got = adaptive_log_quad(log_f, np.zeros((4, 1)), np.ones((4, 1)))
    np.testing.assert_allclose(np.exp(got + np.log1p(p)), 1.0, rtol=1e-8, atol=0)
    for i, pi in enumerate(p):
        one = adaptive_log_quad(lambda x, _ids, pi=pi: pi * np.log(x), [[0.0]], [[1.0]])
        assert one[0] == pytest.approx(got[i], abs=1e-12)


def test_log_space_range():
    # exp(-x) on [0, 1500]: the integrand spans 650 orders of magnitude
    got = adaptive_log_quad(lambda x, _ids: -x, [[0.0]], [[1500.0]])
    assert got[0] == pytest.approx(math.log(-math.expm1(-1500.0)), abs=1e-12)


def test_empty_and_zero_integrals():
    got = adaptive_log_quad(lambda x, ids: np.full(x.shape, -np.inf),
                            [[0.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]])
    assert np.all(got == -np.inf)
    assert adaptive_log_quad(lambda x, _ids: x, [[2.0]], [[2.0]])[0] == -math.inf


def test_budget_exhaustion_raises_quadrature_failure(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 50)
    with pytest.raises(QuadratureFailure):
        adaptive_log_quad(lambda x, _ids: 0.3 * np.log(x), [[0.0]], [[1.0]])


def test_nan_integrand_raises_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        adaptive_log_quad(lambda x, _ids: np.full(x.shape, np.nan), [[0.0]], [[1.0]])


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
        return np.array([g[round(math.log(v))] for v in x.ravel()]).reshape(x.shape)

    u_lo = 2.0 * np.arange(len(pairs))
    got = quadrature.cell_log_masses(log_f, np.stack([u_lo, u_lo + 1.0], axis=-1))[:, 0]
    g_lo, g_hi = np.array(pairs).T
    with np.errstate(invalid="ignore"):
        rule = g_lo + np.log(1.0) + _reference_log_phi(g_hi - g_lo)
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
    # one cell of a (3, 4, 2) batch of edge rows ends where the log-integrand
    # is +inf
    def log_f(x):
        return np.where(x > 500.0, math.inf, -1.5 * np.log(x))

    u_lo = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    edges = np.stack([u_lo, u_lo + 0.5], axis=-1)
    got = quadrature.cell_log_masses(log_f, edges)
    assert np.isinf(got).sum() == 1
    rows = np.stack([quadrature.cell_log_masses(log_f, row) for row in edges])
    assert got.shape == (3, 4, 1) and got.tobytes() == rows.tobytes()


# The cell rule as first written, formula by formula: the reference that the
# evaluated rule must equal bit for bit.
def _reference_log_phi(d):
    d = np.asarray(d, dtype=float)
    small = np.abs(d) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(small, 1.0 + d / 2.0, np.expm1(d) / np.where(small, 1.0, d))
        big = d > 700.0
        return np.where(big, d - np.log(np.maximum(d, 1.0)), np.log(ratio))


def _reference_cells(log_f, u_lo, u_hi):
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.asarray(u_hi, dtype=float)
    g_lo = log_f(np.exp(u_lo) * (1.0 + 1e-12))
    g_hi = log_f(np.exp(u_hi) * (1.0 - 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(g_lo + np.log(u_hi - u_lo) + _reference_log_phi(g_hi - g_lo))
    nan = np.isnan(out)
    out[nan] = np.where(np.asarray(np.maximum(g_lo, g_hi))[nan] == math.inf,
                        math.inf, -math.inf)
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# d at 0, on both sides of +-1e-8 and of 700, where expm1 overflows, at the
# float ends, +-inf and NaN
_BRANCH_D = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-20, 3e-9, -3e-9,
    np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0),
    np.nextafter(-1e-8, 0.0), -1e-8, np.nextafter(-1e-8, -1.0),
    0.5, -0.5, 37.0, -37.0, 699.0, np.nextafter(700.0, 0.0), 700.0,
    np.nextafter(700.0, 800.0), 705.0, 709.78, 710.0, 1e300, -700.0, -710.0, -1e300,
    math.inf, -math.inf, math.nan,
])


def _log_phi(d):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return quadrature._log_phi(np.asarray(d, dtype=float))


def test_log_phi_equals_the_reference_formulas():
    rng = np.random.default_rng(5)
    batches = [_BRANCH_D, rng.normal(size=2000) * 10.0, rng.normal(size=2000) * 1e-8,
               rng.uniform(690.0, 720.0, 500), rng.normal(size=40).reshape(5, 8),
               np.concatenate([rng.normal(size=33), _BRANCH_D]).reshape(8, 8),
               np.array([]), np.array(0.0), np.array(800.0), np.array(math.nan)]
    for d in batches:
        assert _same_bits(_log_phi(d), _reference_log_phi(d)), d
    for d in _BRANCH_D:  # each value alone, 0-d, where only its own branch runs
        assert _same_bits(_log_phi(np.array(d)), _reference_log_phi(d)), d
        assert _same_bits(_log_phi(np.array([d])), _reference_log_phi([d])), d


def _scripted(rule, g_lo, g_hi, *u):
    """rule(log_f, *u), where log_f returns g_lo, then g_hi: (result, points asked for)."""
    values, points = (g_lo, g_hi), []

    def log_f(x):
        points.append(np.array(x, copy=True))
        return np.asarray(values[len(points) - 1], dtype=float)

    return rule(log_f, *u), points


def test_cell_rule_equals_the_reference_formulas_on_every_branch():
    # g_hi - g_lo runs through every branch of log phi, and the ends through
    # +-inf and NaN, on cells of unequal width
    rng = np.random.default_rng(9)
    n = _BRANCH_D.size
    ends = np.array([0.0, -3.0, 12.0, math.inf, -math.inf, math.nan])
    # 31 branch cells, 36 pairs of ends and 5 plain cells: 72 = 12 x 6
    g_lo = np.concatenate([rng.normal(size=n) * 5.0, np.repeat(ends, ends.size),
                           [1.0, 2.0, 3.0, 4.0, 5.0]])
    g_hi = np.concatenate([g_lo[:n] + _BRANCH_D, np.tile(ends, ends.size),
                           [1.5, 1.0, -2.0, 4.25, 60.0]])
    u_edges = np.cumsum(rng.uniform(0.001, 0.3, g_lo.size + 1)) - 5.0
    want, want_points = _scripted(_reference_cells, g_lo, g_hi, u_edges[:-1], u_edges[1:])
    assert np.isnan(want).sum() == 0 and np.isinf(want).sum() > 0
    got, points = _scripted(quadrature.cell_log_masses, g_lo, g_hi, u_edges)
    assert _same_bits(got, want) and len(points) == 2
    assert all(map(_same_bits, points, want_points))
    # every cell alone, as (..., 2) rows of its two edges
    for shape in [(-1,), (-1, 6)]:
        cells = [a.reshape(shape) for a in (g_lo, g_hi, u_edges[:-1], u_edges[1:])]
        rows = np.stack(cells[2:], axis=-1)
        got, points = _scripted(quadrature.cell_log_masses, *(g[..., None] for g in cells[:2]),
                                rows)
        ref, ref_points = _scripted(_reference_cells, *cells)
        assert _same_bits(got[..., 0], ref)
        assert all(_same_bits(p[..., 0], q) for p, q in zip(points, ref_points))
    # one cell, a (2,) row, on each branch
    for k in [0, 8, 20, 24, n + 3, n + 4 * ends.size + 5]:
        got, _ = _scripted(quadrature.cell_log_masses, g_lo[k:k + 1], g_hi[k:k + 1],
                           u_edges[k:k + 2])
        assert _same_bits(got, want[k:k + 1]), k
    # the cells as a (12, 7) batch of grids that share their end edges: every
    # row has the bits of its own 1-D call, which patches only its own
    # |d| < 1e-8 and d > 700 cells
    grids = np.stack([u_edges[6 * i:6 * i + 7] for i in range(12)])
    got, points = _scripted(quadrature.cell_log_masses, g_lo.reshape(12, 6),
                            g_hi.reshape(12, 6), grids)
    assert _same_bits(got, want.reshape(12, 6)) and len(points) == 2
    for i in range(12):
        row, row_points = _scripted(quadrature.cell_log_masses, g_lo[6 * i:6 * i + 6],
                                    g_hi[6 * i:6 * i + 6], grids[i])
        assert _same_bits(got[i], row), i
        assert all(_same_bits(p[i], q) for p, q in zip(points, row_points)), i


def test_cell_rule_on_integrands_equals_the_reference_formulas():
    # the step tail from log 1.93, off its octaves, flat within them; an
    # integrand that rises by more than 700 across a cell; a power; a
    # sin-modulated tail; each log_f call counted
    step = quadrature.moment_log_f(to.make_peter_paul(), 0.0)
    grids = [
        (step, math.log(1.93) + np.arange(1025) * (LOG2 / 512)),
        (lambda x: np.minimum(x, 1e3), np.array([0.0, 1.0, 7.5, 8.0, 9.0])),
        (quadrature.moment_log_f(to.make_power_tail(-2.0), 0.5), np.linspace(0.1, 40.0, 700)),
        (quadrature.moment_log_f(to.make_two_plus_sin(), 1.0), np.linspace(0.0, 12.0, 3001)),
    ]
    for log_f, edges in grids:
        calls = []

        def counted(x, log_f=log_f):
            calls.append(x.size)
            return log_f(x)

        got = quadrature.cell_log_masses(counted, edges)
        assert calls == [edges.size - 1] * 2
        assert _same_bits(got, _reference_cells(log_f, edges[:-1], edges[1:]))
        rows = quadrature.cell_log_masses(log_f, np.stack([edges[:-1], edges[1:]], axis=-1))
        assert _same_bits(rows[:, 0], got)
