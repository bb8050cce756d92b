"""The benchmark's span tracer (perfbench/tracing.py) wraps tailorder names
by module attribute and class attribute. A traced name that is deleted or
renamed must fail here, not only in a traced benchmark run."""

import functools
import importlib
from pathlib import Path

import tailorder as to

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trace_one_op(monkeypatch, **op_fields):
    """(exit code, exact counts) of one benchmark op run under the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    plans = importlib.import_module("plans")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, code = tracer.run_op(0, functools.partial(plans.execute, plans.Op(**op_fields)))
    finally:
        tracer.uninstall()
    counts, _ = tracer.summary(1)
    return code, counts


def test_tracer_counts_one_classify_and_restores_bindings(monkeypatch):
    log_at, classify = to.FunctionHandle.log_at, to.order.classify
    code, counts = _trace_one_op(
        monkeypatch, kind="classify/power_tail",
        argv=("classify", "--fn", "power_tail", "--param", "alpha=-2.0"))
    assert code == 0
    assert counts["order.classify.calls"] == 1
    assert counts["handles.log_at.calls"] > 0
    assert to.FunctionHandle.log_at is log_at
    assert to.order.classify is classify


def test_tracer_counts_the_quadrature_a_laplace_op_runs(monkeypatch):
    # the quadrature layer wraps the Gauss-Kronrod engine that the transform
    # calls, so it reads more than 0 on a transforms op
    bound = {m: dict(vars(m)) for m in (to.quadrature, to.tauberian, to.algebra)}
    code, counts = _trace_one_op(monkeypatch, kind="transforms/laplace", lib="laplace",
                                 args={"alpha": 1.5, "s": [0.01]})
    assert code == 0
    assert counts["quadrature.adaptive_log_quad.calls"] >= 1
    assert counts["quadrature.adaptive_log_quad.errors"] == 0
    assert all(vars(m)[k] is v for m, names in bound.items() for k, v in names.items())
