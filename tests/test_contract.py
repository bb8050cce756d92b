"""The CLI contract as a property over argv, run in-process through ``cli.main``.

Every drawn call exits with a code in 0-4, prints no NaN in its JSON, and a
simulation prints a finite positive a_n. pytest turns a RuntimeWarning into
an error, so none may escape either. The draws are derandomized, so the
suite runs the same calls every time.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailorder import cli

# parameter names of each of the 13 catalog members
_PARAMS = {
    "exp_neg": (),
    "exp_pos": (),
    "floor_log_tail": (),
    "log_perturbed_power": ("alpha", "c"),
    "oset_geometric": ("alpha", "beta", "x_a"),
    "oset_tower": ("c", "alpha"),
    "pareto_tail": ("alpha",),
    "peter_paul": (),
    "power_tail": ("alpha",),
    "ramp_power": ("alpha",),
    "remark7_mix": (),
    "two_plus_sin": (),
    "x_pow_sin_x": (),
}
# the members that are survival functions for some parameters: simulate refuses others
_TAILS = ("exp_neg", "floor_log_tail", "log_perturbed_power", "oset_geometric", "oset_tower",
          "pareto_tail", "peter_paul", "power_tail")
_VALUES = (-3.0, -2.465, -1.5, -1.0, -0.5, 0.0, 0.333, 0.5, 1.0, 1.5, 2.0, 2.6, 10.0,
           1e3, 1e6)
_GRID = (("--xmin", (0.5, 1.0, 2.0, 5.0)), ("--xmax", (3.0, 6.0, 8.0, 12.0, 30.0)),
         ("--points", (128, 200, 401, 1001)), ("--tol", (0.01, 0.05, 0.2)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("classify", "report", "simulate")))
    fn = draw(st.sampled_from(_TAILS if command == "simulate" else sorted(_PARAMS)))
    argv = [command, "--fn", fn]
    for name in _PARAMS[fn]:
        argv += ["--param", f"{name}={draw(st.sampled_from(_VALUES))!r}"]
    for flag, values in _GRID:
        if draw(st.booleans()):
            argv += [flag, repr(draw(st.sampled_from(values)))]
    if command == "report":
        for r in draw(st.lists(st.sampled_from((-3.0, -1.0, 0.0, 0.5, 1.0, 3.0)),
                               max_size=2)):
            argv += ["--r", repr(r)]
        if draw(st.booleans()):
            argv += ["--b", repr(draw(st.sampled_from((1.01, 1.5, 2.0, 10.0))))]
        if draw(st.booleans()):
            argv.append("--tauberian")
    elif command == "simulate":
        for n in draw(st.lists(st.sampled_from((1, 4, 100, 10000)), min_size=1, max_size=2)):
            argv += ["--n", str(n)]
        argv += ["--reps", str(draw(st.sampled_from((1, 25, 200, 2000)))),
                 "--seed", str(draw(st.sampled_from((0, 7, 354986116))))]
        if draw(st.booleans()):
            argv.append("--subsequences")
    return argv


def _refuse_nan(constant):
    assert constant != "NaN", "NaN in the JSON"
    return float(constant)


@given(argv=argvs())
# a tail integral whose octaves still add 1e-13 of its mass where x leaves the float range
@example(argv=["report", "--fn", "power_tail", "--param", "alpha=-2", "--r", "1.97",
               "--tol", "0.01"])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_every_call_keeps_the_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert 0 <= code <= 4, (code, err.getvalue())
    if not out.getvalue():
        return
    doc = json.loads(out.getvalue(), parse_constant=_refuse_nan)
    if argv[0] == "simulate":
        for a_n in doc["evt"]["simulation"]["a_n"]:
            assert 0.0 < a_n < math.inf, a_n
