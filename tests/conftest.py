import os
from pathlib import Path

import pytest

import tailorder as to


@pytest.fixture
def m_members():
    """Members with a finite growth order, for the invariant sweeps."""
    powers = [to.make_power_tail(a) for a in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 2.0, 3.0)]
    return powers + [to.make_peter_paul(), to.make_two_plus_sin(), to.make_pareto_tail(2.0),
                     to.make_log_perturbed_power(-1.0, 1.0)]


@pytest.fixture
def simd_envs():
    """Two child environments that import this package: numpy's own SIMD
    dispatch, and the same with every enabled dispatched feature switched
    off. Skips on a CPU where numpy dispatches none."""
    from numpy._core import _multiarray_umath as umath
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not enabled:
        pytest.skip("numpy dispatches no SIMD extension on this CPU")
    src = str(Path(to.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    return env, dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
