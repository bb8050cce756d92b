"""Every real parameter the library takes goes through one check.

A real parameter is an int, a float or a numpy scalar, not a bool or a
string, inside its interval; anything else is a ParamError that names the
parameter and the value. A numpy scalar in range gives the result of the
Python float.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

import tailorder as to
from tailorder.errors import ParamError

_XS = np.geomspace(2.0, 1e6, 7)
_GRID = to.GridSpec(points=128)
_POW = to.make_power_tail(-2.0)
_RAMP = to.make_ramp_power(2.5)
_PARETO = to.distribution_for(to.make_pareto_tail(2.0))
_M2 = to.ClassLabel.m(-2.0)
_REP = to.extract_representation(_POW, label=_M2)
_RV = to.rv_ratio_test(_POW, grid=_GRID)
_KAPPA = to.estimate_kappa(_POW, _GRID)

# (id, parameter name, call, a finite value out of range or None, an integer in range)
_REALS = [
    ("power_tail-alpha", "alpha", to.make_power_tail, None, 2),
    ("ramp_power-alpha", "alpha", to.make_ramp_power, -1.0, 2),
    ("pareto_tail-alpha", "alpha", to.make_pareto_tail, -1.0, 2),
    ("log_perturbed_power-alpha", "alpha", lambda v: to.make_log_perturbed_power(v, 1.0),
     None, -2),
    ("log_perturbed_power-c", "c", lambda v: to.make_log_perturbed_power(-2.0, v), -1.0, 1),
    ("oset_geometric-alpha", "alpha", lambda v: to.make_oset_geometric(v, 0.0, 2.0), -1.0, 1),
    ("oset_geometric-beta", "beta", lambda v: to.make_oset_geometric(1.0, v, 2.0), None, 0),
    ("oset_geometric-x_a", "x_a", lambda v: to.make_oset_geometric(1.0, 0.0, v), 1.0, 2),
    ("oset_tower-c", "c", lambda v: to.make_oset_tower(v, 1.0), -1.0, 1),
    ("oset_tower-alpha", "alpha", lambda v: to.make_oset_tower(1.0, v), None, -1),
    ("scale_add-a", "a", lambda v: to.scale_add(v, _POW, _RAMP), -1.0, 2),
    ("regularize_origin-rho", "rho", lambda v: to.regularize_origin(_POW, v), 0.0, 2),
    ("label-rho", "rho", to.ClassLabel.m, None, 2),
    ("label-mu", "mu", lambda v: to.ClassLabel.oscillating(v, math.inf), None, 2),
    ("label-nu", "nu", lambda v: to.ClassLabel.oscillating(-math.inf, v), None, 2),
    ("grid-log10_x_min", "log10_x_min", lambda v: to.GridSpec(log10_x_min=v), None, 2),
    ("grid-log10_x_max", "log10_x_max", lambda v: to.GridSpec(log10_x_max=v), None, 6),
    ("classify-tol", "tol", lambda v: to.classify(_POW, _GRID, v), 0.0, 1),
    ("rv_ratio_test-tol", "tol", lambda v: to.rv_ratio_test(_POW, grid=_GRID, tol=v), 0.0, 1),
    ("second_characterization-tol", "tol",
     lambda v: to.check_second_characterization(_POW, _GRID, v, label=_M2, kappa=_KAPPA),
     0.0, 1),
    ("karamata-tol", "tol",
     lambda v: to.karamata_theorem_report(_POW, 1.0, 2.0, _GRID, v, label=_M2, rv=_RV),
     -1.0, 1),
    ("verify_representation-tol", "tol",
     lambda v: to.verify_representation(_POW, _REP, _GRID, v), 0.0, 1),
    ("tauberian-tol", "tol",
     lambda v: to.tauberian_check(_RAMP, _GRID, v, label=to.ClassLabel.m(2.5)), 0.0, 1),
    ("domain_attraction-tol", "tol",
     lambda v: to.classify_domain_attraction(_PARETO, _GRID, v, label=to.ClassLabel.m(-2.0),
                                             rv=_RV), 0.0, 1),
    ("gpd_ratio_probe-xi", "xi", lambda v: to.gpd_ratio_probe(_PARETO, v, np.sqrt), None, 1),
    ("GPDSpec-xi", "xi", to.GPDSpec, None, 1),
    ("gpd_ratio_probe-tol", "tol", lambda v: to.gpd_ratio_probe(_PARETO, 0.5, np.sqrt, tol=v),
     0.0, 1),
    ("excess_family_violation-threshold", "threshold",
     lambda v: to.excess_family_violation(_PARETO, threshold=v), 0.0, 1),
    ("cumulative_integral-r", "r", lambda v: to.cumulative_integral(_POW, "V", v, 2.0, _GRID),
     None, 1),
    ("cumulative_integral-b", "b", lambda v: to.cumulative_integral(_POW, "V", 1.0, v, _GRID),
     0.0, 2),
    ("probe_integral_convergence-r", "r",
     lambda v: to.probe_integral_convergence(_POW, v, _GRID), None, 1),
    ("karamata-r", "r",
     lambda v: to.karamata_theorem_report(_POW, v, 2.0, _GRID, label=_M2, rv=_RV), None, 1),
    ("karamata-b", "b",
     lambda v: to.karamata_theorem_report(_POW, 1.0, v, _GRID, label=_M2, rv=_RV), 0.0, 2),
    ("extract_representation-b", "b",
     lambda v: to.extract_representation(_POW, v, _GRID, label=_M2), 1.0, 2),
    ("peter_paul_partial_integral-x", "x", lambda v: to.peter_paul_partial_integral(v, 1),
     3.5, 100),
    ("laplace_stieltjes-s", "s", lambda v: to.laplace_stieltjes(to.make_ramp_power(1.0), v),
     0.0, 1),
    ("rv_ratio_test-t", "t", lambda v: to.rv_ratio_test(_POW, [2.0, v], _GRID), -2.0, 3),
    ("frechet_cdf-alpha", "alpha", lambda v: to.frechet_cdf(_XS, v), 0.0, 1),
    ("block_maxima_simulate-candidate_alpha", "candidate_alpha",
     lambda v: to.block_maxima_simulate(_PARETO, [10], 50, 1, candidate_alpha=v), -1.0, 2),
]
_BAD = (None, "2", True, math.nan, math.inf, -math.inf)


# values a parameter takes that others refuse: None is the "no candidate"
# default of block_maxima_simulate; the edges of an Oscillating label are
# extended reals
_TAKEN = {"candidate_alpha": (None,), "mu": (math.inf, -math.inf), "nu": (math.inf, -math.inf)}


def _bad_cases():
    for case_id, what, call, out_of_range, _ in _REALS:
        bad = tuple(v for v in _BAD if v not in _TAKEN.get(what, ()))
        for value in bad + (() if out_of_range is None else (out_of_range,)):
            yield pytest.param(what, call, value, id=f"{case_id}-{value!r}")


@pytest.mark.parametrize("what, call, value", _bad_cases())
def test_every_real_parameter_refuses_a_bad_value_by_name(what, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=f"^{what} {re.escape(repr(value))} is out of range: "
                                             "real parameters are numbers, here "):
            call(value)


def _fingerprint(out) -> str:
    """The bytes a result shows, for comparing results of equal parameters."""
    if isinstance(out, to.FunctionHandle):
        return out.name + out.log_at(_XS).tobytes().hex()
    if isinstance(out, to.RepresentationTriple):
        return repr(out.b) + out.eps_fn(_XS[1:]).tobytes().hex()
    if isinstance(out, to.CumulativeIntegral):
        return repr((out.r, out.b)) + out.log_values.tobytes().hex()
    if hasattr(out, "to_dict"):
        out = out.to_dict()
    if isinstance(out, dict):
        return json.dumps(out, sort_keys=True)
    if isinstance(out, np.ndarray):
        return out.tobytes().hex()
    return repr(out)


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=case_id)
                                         for case_id, _, call, _, value in _REALS])
def test_a_numpy_real_gives_the_result_of_the_python_float(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _fingerprint(call(float(value)))
        assert _fingerprint(call(np.float64(value))) == expected
        assert _fingerprint(call(np.int64(value))) == expected


def test_a_real_parameter_becomes_a_python_float():
    assert type(to.GridSpec(log10_x_max=np.int64(6)).log10_x_max) is float
    assert type(to.ClassLabel.m(np.float32(0.5)).rho) is float
    label = to.ClassLabel.oscillating(np.float32(0.5), np.float32(np.inf))
    assert type(label.mu) is float and type(label.nu) is float
    sim = to.block_maxima_simulate(_PARETO, [10], 5, 1, candidate_alpha=np.int64(2))
    assert type(sim.candidate_alpha) is float
    assert type(to.cumulative_integral(_POW, "V", np.int64(1), 2, _GRID).b) is float


def test_an_int_beyond_the_float_range_is_refused_by_name():
    with pytest.raises(ParamError, match=r"^alpha 1000+ is out of range"):
        to.make_power_tail(10 ** 400)
