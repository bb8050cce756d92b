"""The benchmark's span tracer (perfbench/tracing.py) wraps tailorder names
by module attribute and class attribute. A traced name that is deleted or
renamed must fail here, not only in a traced benchmark run."""

import functools
import importlib
from pathlib import Path

import tailorder as to

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_one_classify_and_restores_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    plans = importlib.import_module("plans")
    log_at, classify = to.FunctionHandle.log_at, to.order.classify
    op = plans.Op(kind="classify/power_tail",
                  argv=("classify", "--fn", "power_tail", "--param", "alpha=-2.0"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, code = tracer.run_op(0, functools.partial(plans.execute, op))
    finally:
        tracer.uninstall()
    assert code == 0
    counts, _ = tracer.summary(1)
    assert counts["order.classify.calls"] == 1
    assert counts["handles.log_at.calls"] > 0
    assert to.FunctionHandle.log_at is log_at
    assert to.order.classify is classify
