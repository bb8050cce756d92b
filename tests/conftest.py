import os
from pathlib import Path

import pytest

import tailorder as to


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
