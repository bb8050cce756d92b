"""Outside-in span tracer for the tailorder layers.

The program has no instrumentation of its own, so the tracer wraps the
public layer functions where every importing module binds them (a function
imported with ``from .order import classify`` is patched in each importer
too), and the methods on their classes. Each call records a span: layer,
start, end, parent span, the op it belongs to, a work size (points, cells)
and whether it raised. Spans stay in compact arrays in memory and are written
out once, at the end.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array

import numpy as np

import tailorder
from tailorder import evt, handles, karamata, order, quadrature, report, tauberian


def _points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs.get("x")))


def _u_points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs.get("u")))


def _cells(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["u_edges"])) - 1


def _quantile_points(args, kwargs):
    return int(np.size(args[0] if args else kwargs["u"]))


# (layer, owner, attribute, work size): owner is a class for methods and the
# defining module for functions. Handle evaluation has two entry points,
# log_at (x) and log_at_u (u = log x), counted as one layer; the log_at_logx
# primitive that composed handles call on their operands is a per-handle
# field, not wrapped, so its points are not counted.
LAYERS = (
    ("handles.log_at", handles.FunctionHandle, "log_at", _points),
    ("handles.log_at", handles.FunctionHandle, "log_at_u", _u_points),
    ("quadrature.cell_log_masses", quadrature, "cell_log_masses", _cells),
    ("quadrature.adaptive_log_quad", quadrature, "adaptive_log_quad", None),
    ("order.classify", order, "classify", None),
    ("order.estimate_kappa", order, "estimate_kappa", None),
    ("order.probe_integral_convergence", order, "probe_integral_convergence", None),
    ("karamata.cumulative_integral", karamata, "cumulative_integral", None),
    ("karamata.log_value", karamata.CumulativeIntegral, "log_value", _points),
    ("tauberian.laplace_stieltjes", tauberian, "laplace_stieltjes", None),
    ("evt.block_maxima_simulate", evt, "block_maxima_simulate", None),
    ("report.to_json", report.ReportDocument, "to_json", None),
)
# quantile maps are per-distribution callables, wrapped as distribution_for
# hands them out
QUANTILE = "evt.quantile"
OP = "op"
LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS)) + (QUANTILE,)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names = [OP, *LAYER_NAMES]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op_index = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, layer: str, fn, size_of):
        name_id = self._name_id[layer]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_index)
            self.size.append(size_of(args, kwargs) if size_of else 1)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def run_op(self, op_index: int, fn):
        """Run ``fn`` as the root span of op ``op_index``."""
        self._op_index = op_index
        return self._wrap(OP, fn, None)()

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tailorder" or name.startswith("tailorder."))]
        for layer, owner, attr, size_of in LAYERS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer, original, size_of)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        original = evt.distribution_for
        quantile = self._wrap_quantiles

        def distribution_for(handle):
            return quantile(original(handle))

        for module in (evt, tailorder):
            self._patch(module, "distribution_for", distribution_for)

    def _wrap_quantiles(self, dist):
        return dataclasses.replace(
            dist, quantile=self._wrap(QUANTILE, dist.quantile, _quantile_points))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reduction ------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, count_ops: int) -> tuple[dict, dict]:
        """(exact counts over ops < count_ops, self seconds per layer over all ops)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        counted = (a["op"] >= 0) & (a["op"] < count_ops)
        counts: dict = {}
        self_time: dict = {}
        for name_id, layer in enumerate(self.names):
            sel = a["name"] == name_id
            cnt = sel & counted
            counts[f"{layer}.calls"] = int(cnt.sum())
            counts[f"{layer}.work"] = int(a["size"][cnt].sum())
            counts[f"{layer}.errors"] = int(a["error"][cnt].sum())
            self_time[layer] = float(self_s[sel].sum())
        # uniforms drawn: quantile points evaluated inside the simulation
        sim_id = self._name_id["evt.block_maxima_simulate"]
        q = (a["name"] == self._name_id[QUANTILE]) & counted & has_parent
        under_sim = a["name"][np.where(q, a["parent"], 0)] == sim_id
        counts["evt.block_maxima_simulate.uniforms"] = int(a["size"][q & under_sim].sum())
        return counts, self_time

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())
