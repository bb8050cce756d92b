import math

import numpy as np
import pytest

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
