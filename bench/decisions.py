"""Decision and digest differential between two checkouts.

    python3 bench/decisions.py [--checkout DIR]

Runs one fresh interpreter on the package in ``DIR/src`` (default: the
checkout holding this script) and one on this checkout's, side by side, each
in a temporary directory holding the sample tables. Each prints one JSON
record per case; a call that raises records its exception type in place of
its result, and a run that stops is named with its last stderr line. Cases:

* COMMANDS, run in-process through ``tailorder.cli.main(argv)`` with stdout
  captured: exit code, sha256 of stdout and, for a report, its class, kappa
  and each condition's ``passed``; then the sha256 of each ``plots`` CSV.
  They are the README's CLI commands, then paths it does not reach: the von
  Mises derivatives, a heavy tail's attraction verdict, the generic
  quantile, parameter checks, a ramp transform, grids the windows do not
  divide evenly or that end at the top of the float range (``floor_log_tail``),
  exit code 2 for tables the reader refuses (not UTF-8; a field beyond
  the csv module's 131,072 characters) and for a NaN b or r, and seven
  reports: K2* at r = -1 at tol 0.01, an r = 1.97 tail integral still
  unfinished where x leaves the float range (exit 4), and REP-LIMITS at
  b = 10, 50 and 5 (a power, the dyadic step tail, 2 + sin x) and at
  b = 1000 and 100 (a power, the dyadic step tail).
  ``classify --data`` reads 3 x**-1.5 at 400 points as ``x,value`` and
  ``x,logvalue``. That is 29 commands, 3 plot files and 31 expressions.
* LIBRARY, each expression on its own: the sha256 of its result (shape and
  bytes of an array, sorted JSON of a dict). They pin paths no command
  reaches: convolutions, compositions and transforms on unusual arguments,
  tail integrals W_r of slow tails, the cell rule on off-octave edges and
  steep cells, closure labels, the refusal message of every count and real
  parameter, and the rule behind each order.
* The corpus: the 13 catalog members at the parameters of the closure sweep
  in ``tests/test_handles.py``, their reciprocals, and ``product``,
  ``scale_add(1, ., .)``, ``scale_add(0, ., .)`` and ``compose`` of each
  ordered pair (702 handles). Each records the ``classify`` label at tol
  0.01 and 0.05 and ``estimate_kappa(h).value``, warnings being errors, and
  the truth label (for a closure, the constructors' prediction).

Printed: numpy's version and SIMD extensions (float bits may differ on
another build or CPU, so bytes compare only on one machine); the count of
byte-identical commands, plot files and expressions, then each whose exit
code or sha256 moved; for commands that print a report on both sides, the
class, kappa and per-condition ``passed`` that moved; label changes, order
changes (with the largest difference), truth changes and kappa changes.
Then, per checkout, the right / Undecided / wrong / no-truth counts against
the truth (right: equal tags and each finite order within 0.05 of the
truth's), and how many labels decided at tol 0.05 have kappa inside
[-nu - 0.05, -mu + 0.05], outside it, or a kappa that raised. The
comparison test gives -nu <= kappa <= -mu for any U, so that needs no truth.

Deterministic and offline; about 9 s per checkout, most of it kappa.
Against its own checkout it prints no changes. It is not part of the test
suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = (
    "classify --fn power_tail --param alpha=-2",
    "classify --data samples.csv",
    "report --fn peter_paul --r 1 --b 2",
    "report --fn power_tail --param alpha=1.0 --tauberian",
    "simulate --fn pareto_tail --param alpha=1 --n 10000 --reps 2000 --seed 7",
    "simulate --fn peter_paul --reps 2000 --seed 11 --subsequences",
    "plots --fn peter_paul --plots out/",
    "report --fn exp_neg",
    "report --fn pareto_tail --param alpha=1.5",
    "simulate --fn log_perturbed_power --param alpha=-2 --param c=0.5 --n 4 --reps 25 --seed 1",
    "classify --fn oset_geometric --param alpha=1 --param beta=0 --param x_a=2",
    "classify --fn log_perturbed_power --param alpha=-1 --param c=1",
    "classify --data samples_log.csv",
    "report --fn ramp_power --param alpha=2.5 --tauberian",
    "classify --fn peter_paul --points 2001",
    "report --fn pareto_tail --param alpha=1.5 --points 1001",
    "report --fn peter_paul --r 1 --b 2 --points 1003",
    "classify --fn floor_log_tail --xmin 305.5 --xmax 308",
    "classify --data not_utf8.csv",
    "classify --data long_field.csv",
    "report --fn exp_neg --b nan",
    "report --fn exp_neg --r nan",
    "report --fn pareto_tail --param alpha=1.5 --tol 0.01",
    "report --fn power_tail --param alpha=-2 --r 1.97 --tol 0.01",
    "report --fn power_tail --param alpha=-2 --b 10",
    "report --fn peter_paul --b 50",
    "report --fn two_plus_sin --b 5",
    "report --fn power_tail --param alpha=-2 --b 1000",
    "report --fn peter_paul --b 100",
)
PLOT_FILES = ("orders.csv", "kappa_trace.csv", "ratio.csv")
LIBRARY = (
    "to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0))"
    ".log_at(np.geomspace(2.0, 1e6, 6).reshape(2, 3))",
    "to.compose(to.make_power_tail(2.0), to.make_power_tail(1.5))"
    ".log_at_u(np.linspace(-5.0, 700.0, 64))",
    "to.transform_handle(to.make_ramp_power(2.5)).log_at(np.geomspace(1.0, 1e8, 16))",
    "to.laplace_stieltjes(to.make_ramp_power(0.3), 1e-8)",
    "to.transform_handle(to.regularize_origin(to.make_power_tail(2.6), 2.6))"
    ".log_at(np.geomspace(1.0, 1e8, 16))",
    "to.gpd_ratio_probe(to.distribution_for(to.make_pareto_tail(2.0)), 0.5,"
    " lambda u: 0.5 * u).to_dict()",
    "refusal(lambda a: to.gpd_ratio_probe(to.distribution_for(to.make_pareto_tail(1.5)), 0.5,"
    " lambda u: np.full_like(u, a)), 1e308)",
    "refusal(lambda x: to.gpd_ratio_probe(to.distribution_for(to.make_pareto_tail(1.5)), 0.5,"
    " lambda u: u, x_probe=[x]), -1.5)",
    "refusal(lambda b: to.extract_representation(to.make_power_tail(-2.0), b), 2e8)",
    "to.convolve(to.make_power_tail(-3.0), to.make_power_tail(-1.8))"
    ".log_at(np.geomspace(10.0, 1e8, 128))",
    "to.transform_handle(to.make_ramp_power(2.6)).log_at(np.geomspace(10.0, 1e8, 128))",
    "to.product(to.from_table(np.geomspace(2.0, 1e4, 20),"
    " -1.5 * np.log(np.geomspace(2.0, 1e4, 20))), to.make_power_tail(1.0))"
    ".log_at(np.geomspace(2.0, 1e4, 16))",
    "to.laplace_stieltjes(to.make_ramp_power(0.3), 1e-306)",
    "to.estimate_kappa(to.reciprocal(to.make_power_tail(1.5))).value",
    "to.compose(to.from_table(np.geomspace(2.0, 1e8, 20),"
    " 0.5 * np.log(np.geomspace(2.0, 1e8, 20))), to.make_power_tail(2.0))"
    ".log_at(np.geomspace(2.0, 1e4, 16))",
    "to.convolve(to.make_ramp_power(0.5), to.make_ramp_power(1.5))"
    ".log_at(np.array([1e-300, 1.0, 1e14, 1e100, 1e300]))",
    "to.convolve(to.make_power_tail(-2.0), to.make_power_tail(-3.0))"
    ".log_at_u(np.array([650.0, 705.0]))",
    "to.tauberian_check(to.convolve(to.make_ramp_power(0.5), to.make_ramp_power(1.5)),"
    " grid=to.GridSpec(points=128)).to_dict()",
    "to.cumulative_integral(to.make_power_tail(-2.0), \"W\", 0.9, 2.0)"
    ".log_value(np.geomspace(2.0, 1e8, 16))",
    "to.cumulative_integral(to.make_log_perturbed_power(-2.0, 0.5), \"W\", -0.5, 1.9)"
    ".log_value(np.geomspace(1.9, 1e8, 16))",
    "np.concatenate([to.quadrature.cell_log_masses(to.quadrature.moment_log_f("
    "to.make_peter_paul(), 0.0), np.log(1.93) + np.arange(1025) * (np.log(2.0) / 512)),"
    " to.quadrature.cell_log_masses(lambda x: np.minimum(x, 1e3),"
    " np.array([0.0, 1.0, 7.5, 8.0, 9.0]))])",
    "to.quadrature.cell_log_masses(to.quadrature.moment_log_f(to.make_peter_paul(), 0.5),"
    " np.log(1.93) + (np.arange(3)[:, None] * 256 + np.arange(257)) * (np.log(2.0) / 256))",
    "{h.name: h.truth.label.to_dict() for h in ("
    "to.scale_add(2.0, to.make_power_tail(-2.0), to.make_peter_paul()),"
    " to.scale_add(1.0, to.make_exp_pos(), to.make_exp_pos()),"
    " to.reciprocal(to.make_x_pow_sin_x()),"
    " to.product(to.make_exp_neg(), to.make_power_tail(5.0)),"
    " to.product(to.make_x_pow_sin_x(), to.make_power_tail(1.0)),"
    " to.convolve(to.make_power_tail(-3.0), to.make_power_tail(2.0)),"
    " to.convolve(to.make_power_tail(-1.0), to.make_power_tail(-0.5)),"
    " to.compose(to.make_power_tail(-2.0), to.make_power_tail(3.0)),"
    " to.compose(to.make_exp_neg(), to.make_power_tail(2.0)))}",
    "{f'{name} {v!r}': refusal(call, v) for name, call in ("
    "('points', lambda v: to.GridSpec(points=v)),"
    " ('windows', lambda v: to.GridSpec(windows=v)),"
    " ('n', lambda v: to.normalized_maxima_cdf(PARETO, v, np.array([1.0]))),"
    " ('n_values', lambda v: to.block_maxima_simulate(PARETO, [10, v], 5, 1)),"
    " ('reps', lambda v: to.block_maxima_simulate(PARETO, [10], v, 1)),"
    " ('seed', lambda v: to.block_maxima_simulate(PARETO, [10], 5, v)),"
    " ('k_values', lambda v: to.subsequence_witness(PARETO, k_values=(8, v))),"
    " ('a', lambda v: to.peter_paul_partial_integral(100.0, v)))"
    " for v in (True, 2.5, 10.0, -1, float('nan'), '3')}",
    "{f'{name} {v!r}': refusal(call, v) for name, call, out_of_range in ("
    "('power_tail alpha', to.make_power_tail, ()),"
    " ('ramp_power alpha', to.make_ramp_power, (-1.0,)),"
    " ('pareto_tail alpha', to.make_pareto_tail, (-1.0,)),"
    " ('log_perturbed_power alpha', lambda v: to.make_log_perturbed_power(v, 1.0), ()),"
    " ('log_perturbed_power c', lambda v: to.make_log_perturbed_power(-2.0, v), (-1.0,)),"
    " ('oset_geometric alpha', lambda v: to.make_oset_geometric(v, 0.0, 2.0), (-1.0,)),"
    " ('oset_geometric beta', lambda v: to.make_oset_geometric(1.0, v, 2.0), ()),"
    " ('oset_geometric x_a', lambda v: to.make_oset_geometric(1.0, 0.0, v), (1.0,)),"
    " ('oset_tower c', lambda v: to.make_oset_tower(v, 1.0), (-1.0,)),"
    " ('oset_tower alpha', lambda v: to.make_oset_tower(1.0, v), ()),"
    " ('scale_add a', lambda v: to.scale_add(v, PARETO.base, PARETO.base), (-1.0,)),"
    " ('regularize_origin rho', lambda v: to.regularize_origin(PARETO.base, v), (0.0,)),"
    " ('ClassLabel.m rho', to.ClassLabel.m, ()),"
    " ('GridSpec log10_x_min', lambda v: to.GridSpec(log10_x_min=v), ()),"
    " ('GridSpec log10_x_max', lambda v: to.GridSpec(log10_x_max=v), ()),"
    " ('classify tol', lambda v: to.classify(PARETO.base, tol=v), (0.0,)),"
    " ('rv_ratio_test tol', lambda v: to.rv_ratio_test(PARETO.base, tol=v), (0.0,)),"
    " ('check_second_characterization tol', lambda v: to.check_second_characterization("
    "PARETO.base, tol=v, label=to.ClassLabel.m(-1.0)), (0.0,)),"
    " ('karamata_theorem_report tol', lambda v: to.karamata_theorem_report("
    "PARETO.base, 1.0, 2.0, tol=v, label=to.ClassLabel.m(-1.0)), (-1.0,)),"
    " ('verify_representation tol', lambda v: to.verify_representation(PARETO.base,"
    " to.extract_representation(PARETO.base, label=to.ClassLabel.m(-1.0)), tol=v), (0.0,)),"
    " ('tauberian_check tol', lambda v: to.tauberian_check(to.make_ramp_power(2.5), tol=v,"
    " label=to.ClassLabel.m(2.5)), (0.0,)),"
    " ('classify_domain_attraction tol', lambda v: to.classify_domain_attraction(PARETO,"
    " tol=v, label=to.ClassLabel.m(-1.0)), (0.0,)),"
    " ('gpd_ratio_probe xi', lambda v: to.gpd_ratio_probe(PARETO, v, np.sqrt), ()),"
    " ('gpd_ratio_probe tol', lambda v: to.gpd_ratio_probe(PARETO, 0.5, np.sqrt, tol=v),"
    " (0.0,)),"
    " ('excess_family_violation threshold', lambda v: to.excess_family_violation(PARETO,"
    " threshold=v), (0.0,)),"
    " ('cumulative_integral r', lambda v: to.cumulative_integral(PARETO.base, 'V', v, 2.0),"
    " ()),"
    " ('cumulative_integral b', lambda v: to.cumulative_integral(PARETO.base, 'V', 1.0, v),"
    " (0.0,)),"
    " ('karamata_theorem_report r', lambda v: to.karamata_theorem_report(PARETO.base, v, 2.0,"
    " label=to.ClassLabel.m(-1.0)), ()),"
    " ('karamata_theorem_report b', lambda v: to.karamata_theorem_report(PARETO.base, 1.0, v,"
    " label=to.ClassLabel.m(-1.0)), (0.0,)),"
    " ('extract_representation b', lambda v: to.extract_representation(PARETO.base, v,"
    " label=to.ClassLabel.m(-1.0)), (1.0,)),"
    " ('peter_paul_partial_integral x', lambda v: to.peter_paul_partial_integral(v, 1),"
    " (3.5,)),"
    " ('laplace_stieltjes s', lambda v: to.laplace_stieltjes(to.make_ramp_power(1.0), v),"
    " (0.0,)),"
    " ('rv_ratio_test t', lambda v: to.rv_ratio_test(PARETO.base, [2.0, v]), (-2.0,)),"
    " ('frechet_cdf alpha', lambda v: to.frechet_cdf(np.array([1.0]), v), (0.0,)),"
    " ('block_maxima_simulate candidate_alpha', lambda v: to.block_maxima_simulate("
    "PARETO, [10], 5, 1, candidate_alpha=v), (-1.0,)))"
    " for v in (None, '2', True, float('nan'), float('inf'), -float('inf')) + out_of_range}",
    "to.classify(to.make_oset_tower(0.9, -1.0)).to_dict()",
    "{h.name: to.classify(h).to_dict() for h in ("
    "to.FunctionHandle('one_from_2^25', log_at_logx=lambda u:"
    " np.where(u >= 25 * np.log(2.0), 0.0, -np.inf)),"
    " to.FunctionHandle('square_below_2^25', log_at_logx=lambda u:"
    " np.where(u < 25 * np.log(2.0), 2.0 * np.maximum(u, 0.0), -np.inf)))}",
    "{h.name: [[e.rule, e.trend.value] for e in to.estimate_orders(h)] for h in ("
    "to.compose(to.make_exp_neg(), to.make_exp_pos()), to.make_power_tail(-3.0),"
    " to.make_exp_neg(), to.make_peter_paul(),"
    " to.scale_add(0.5, to.make_power_tail(-1.0), to.make_pareto_tail(1.5)),"
    " to.make_oset_tower(0.1, -2.0), to.make_log_perturbed_power(-2.0, 0.5),"
    " to.make_oset_tower(0.9, -1.0))}",
    "{f'e**{c:g} x**{a:g}': to.classify(to.FunctionHandle('e**c x**a', log_at_logx=lambda u,"
    " a=a, c=c: c + a * u)).to_dict() for a in (-80.0, 0.0, 80.0)"
    " for c in (-5000.0, -1000.0, 300.0, 500.0, 1000.0, 5000.0)}"
    " | {f'kappa power_tail({a:g})': to.estimate_kappa(to.make_power_tail(a)).value"
    " for a in (70.0, -70.0)}",
    "{h.name: h.truth.label.to_dict() for h in ("
    "to.product(to.make_power_tail(100.0), to.make_power_tail(100.0)),"
    " to.product(to.make_power_tail(-100.0), to.make_power_tail(-100.0)),"
    " to.compose(to.make_power_tail(20.0), to.make_power_tail(20.0)),"
    " to.reciprocal(to.product(to.make_power_tail(100.0), to.make_power_tail(100.0))),"
    " to.convolve(to.make_power_tail(100.0), to.make_power_tail(100.0)))"
    " + tuple(to.compose(h, to.make_exp_pos()) for h in (to.make_power_tail(-2.0),"
    " to.make_pareto_tail(1.5), to.make_peter_paul(), to.make_ramp_power(1.0),"
    " to.make_log_perturbed_power(-2.0, 0.5)))}",
    "{h.name: h.truth.label.to_dict() for h in ("
    "to.scale_add(1.0, to.make_exp_neg(), to.make_power_tail(-2.0)),"
    " to.scale_add(1.0, to.make_exp_pos(), to.make_power_tail(-2.0)))}"
    " | {'classify': to.classify(to.scale_add(1.0, to.make_power_tail(-2.0),"
    " to.make_remark7_mix())).to_dict(),"
    " 'reciprocal at 10': float(to.reciprocal(to.make_remark7_mix()).log_at(10.0))}",
)
# the parameters of the closure sweep in tests/test_handles.py
POINTS = {
    "log_perturbed_power": {"alpha": -2.0, "c": 0.5},
    "oset_geometric": {"alpha": 1.0, "beta": 0.0, "x_a": 2.0},
    "oset_tower": {"c": 1.0, "alpha": -1.0},
    "pareto_tail": {"alpha": 1.5},
    "power_tail": {"alpha": -2.0},
    "ramp_power": {"alpha": 1.0},
}
TOLS = (0.01, 0.05)
_INF = float("inf")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failed(exc: Exception) -> str:
    return "error: " + type(exc).__name__


def refusal(call, value):
    """The type and message of the exception call(value) raises, or "accepted"."""
    try:
        call(value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def summary(text: str) -> dict | None:
    """Class, kappa and per-condition (name, passed) of a report; None if
    ``text`` is not one."""
    try:
        doc = json.loads(text)
        kappa = doc["estimates"]["kappa"]
        return {"class": doc["class"], "kappa": kappa and kappa["value"],
                "passed": [[c["condition"], c["passed"]] for c in doc["conditions"]]}
    except (ValueError, KeyError, TypeError):
        return None


def child() -> None:
    """Print one JSON record per case, with ``tailorder`` from the checkout's
    src/ and the sample tables in the working directory."""
    import numpy as np

    import tailorder as to
    from tailorder import cli

    def emit(kind: str, case: str, **fields) -> None:
        print(json.dumps({"kind": kind, "case": case, **fields}), flush=True)

    def digest(value) -> str:
        if isinstance(value, dict):
            return sha256(json.dumps(value, sort_keys=True).encode())
        value = np.asarray(value)
        return sha256(repr(value.shape).encode() + value.tobytes())

    def strict(call):
        """call(), or the type of what it raised; warnings are errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return call()
            except Exception as exc:
                return failed(exc)

    for command in COMMANDS:
        out, fields = io.StringIO(), {}
        try:
            with contextlib.redirect_stdout(out):
                fields["exit"] = cli.main(command.split())
        except Exception as exc:
            fields["error"] = failed(exc)
        emit("command", command, sha256=sha256(out.getvalue().encode()),
             report=summary(out.getvalue()), **fields)
    for name in PLOT_FILES:
        path = Path("out", name)
        emit("plot", f"out/{name}", sha256=sha256(path.read_bytes()) if path.exists()
             else "missing")
    scope = {"np": np, "to": to, "refusal": refusal,
             "PARETO": to.distribution_for(to.make_pareto_tail(1.0))}
    for expr in LIBRARY:
        try:
            emit("lib", expr, sha256=digest(eval(expr, scope)))
        except Exception as exc:
            emit("lib", expr, error=failed(exc))

    members = [to.make_named(n, POINTS.get(n)) for n in to.catalog_names()]
    handles = members + [to.reciprocal(u) for u in members]
    for op in (to.product, lambda u, v: to.scale_add(1.0, u, v),
               lambda u, v: to.scale_add(0.0, u, v), to.compose):
        handles += [op(u, v) for u in members for v in members]
    for h in handles:
        labels = [strict(lambda: to.classify(h, tol=tol).to_dict()) for tol in TOLS]
        emit("handle", h.name,
             labels=[{"tag": x} if isinstance(x, str) else x for x in labels],
             truth=h.truth.label.to_dict() if h.truth is not None else {"tag": "Undecided"},
             kappa=strict(lambda: to.estimate_kappa(h).value))


def collect(checkout: Path) -> dict:
    """{(kind, case): record} from one fresh interpreter on ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout.resolve() / "src"), str(Path(__file__).resolve().parent)]))
    with tempfile.TemporaryDirectory() as tmp:
        write_samples(Path(tmp))
        proc = subprocess.run([sys.executable, "-c", "import decisions; decisions.child()"],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{checkout}: the run stopped with exit code {proc.returncode}: "
              + "".join(proc.stderr.strip().splitlines()[-1:]), file=sys.stderr)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {(r["kind"], r["case"]): r for r in records}


def write_samples(work: Path) -> None:
    """Write 3 x**-1.5 at 400 points as samples.csv and samples_log.csv, and
    two tables the reader refuses: not_utf8.csv and long_field.csv."""
    linear, log = ["x,value"], ["x,logvalue"]
    for i in range(400):
        x = 10.0 ** (0.5 + 5.5 * i / 399)
        linear.append(f"{x!r},{3.0 * x ** -1.5!r}")
        log.append(f"{x!r},{math.log(3.0 * x ** -1.5)!r}")
    for name, rows in (("samples.csv", linear), ("samples_log.csv", log)):
        (work / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    (work / "not_utf8.csv").write_bytes(b"x,value\n10,1\n\xff,2\n")
    (work / "long_field.csv").write_bytes(b"x,value\n10,1\n20," + b"1" * 131_073 + b"\n")


def numpy_header() -> str:
    """numpy's version and the SIMD extensions it found and enabled."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return f"numpy {np.__version__} simd {' '.join(found) or 'none'}"


def orders(label: dict) -> tuple[float, float] | None:
    """The (mu, nu) of a label dict; None for Undecided and errors."""
    tag = label["tag"]
    if tag == "M":
        return label["rho"], label["rho"]
    if tag == "Oscillating":
        return label["mu"], label["nu"]
    return {"MInf": (-_INF, -_INF), "MNegInf": (_INF, _INF)}.get(tag)


def show(label: dict) -> str:
    tag = label["tag"]
    if tag == "M":
        return f"M({label['rho']:g})"
    if tag == "Oscillating":
        return f"Oscillating({label['mu']:g}, {label['nu']:g})"
    return tag


def verdict(label: dict, truth: dict, tol: float = 0.05) -> str:
    if truth["tag"] == "Undecided":
        return "no-truth"
    if label["tag"] == "Undecided":
        return "undecided"
    got, want = orders(label), orders(truth)
    if label["tag"] != truth["tag"] or got is None:
        return "wrong"
    return "right" if all(a == b or abs(a - b) <= tol for a, b in zip(got, want)) else "wrong"


def bracket(record: dict, tol: float = 0.05) -> str | None:
    """Where kappa lies against [-nu - tol, -mu + tol] of the label at tol 0.05:
    "raises" if kappa raised, None when that label is not decided."""
    kappa, got = record["kappa"], orders(record["labels"][TOLS.index(0.05)])
    if isinstance(kappa, str):
        return "raises"
    if got is None:
        return None
    return "inside" if -got[1] - tol <= kappa <= -got[0] + tol else "outside"


def show_digest(record: dict) -> str:
    shown = [f"exit {record['exit']}"] if "exit" in record else []
    return " ".join(shown + [record.get("error") or record["sha256"][:12]])


def report_moves(base: dict, change: dict) -> list[str]:
    """The class, kappa and condition verdicts that moved between two report summaries."""
    moves = []
    if base["class"] != change["class"]:
        moves.append(f"class {show(base['class'])} -> {show(change['class'])}")
    if base["kappa"] != change["kappa"]:
        moves.append(f"kappa {base['kappa']} -> {change['kappa']}")
    if len(base["passed"]) != len(change["passed"]):
        moves.append(f"{len(base['passed'])} -> {len(change['passed'])} conditions")
    for i, (b, c) in enumerate(zip(base["passed"], change["passed"])):
        if b != c:
            moves.append(f"condition {i} {b[0]} passed {b[1]} -> {c[0]} passed {c[1]}")
    return moves


def differential(base: dict, change: dict) -> list[str]:
    lines = []
    if base.keys() != change.keys():
        lines.append(f"cases differ: {len(base.keys() - change.keys())} only in the base, "
                     f"{len(change.keys() - base.keys())} only in this checkout")
    keys = [k for k in change if k in base]
    digests = [k for k in keys if k[0] != "handle"]
    # exit code, sha256 or error; report summaries are compared below
    moved = [k for k in digests if dict(base[k], report=None) != dict(change[k], report=None)]
    lines.append(f"byte-identical: {len(digests) - len(moved)} of {len(digests)} commands, "
                 "plot files and expressions")
    lines += [f"  {k[0]} {k[1][:100]}: {show_digest(base[k])} -> {show_digest(change[k])}"
              for k in moved]
    reports = [(k[1], report_moves(base[k]["report"], change[k]["report"])) for k in digests
               if k[0] == "command" and base[k]["report"] and change[k]["report"]]
    reports = [(command, moves) for command, moves in reports if moves]
    lines.append(f"report changes: {len(reports)}")
    lines += [f"  {command}: {'; '.join(moves)}" for command, moves in reports]

    handles = [k for k in keys if k[0] == "handle"]
    pairs = [(k[1], tol, base[k]["labels"][i], change[k]["labels"][i])
             for k in handles for i, tol in enumerate(TOLS)]
    tags = [p for p in pairs if p[2]["tag"] != p[3]["tag"]]
    lines.append(f"label changes: {len(tags)}")
    lines += [f"  tol {tol:g} {name}: {show(b)} -> {show(c)}" for name, tol, b, c in tags]
    shifts = [p for p in pairs if p[2]["tag"] == p[3]["tag"] and p[2] != p[3]]
    lines.append(f"order changes: {len(shifts)}")
    for name, tol, b, c in shifts:
        delta = max(abs(x - y) if x != y else 0.0  # an infinite edge that stays
                    for x, y in zip(orders(b), orders(c)))
        lines.append(f"  tol {tol:g} {name}: {show(b)} -> {show(c)} (by {delta:.3g})")
    truths = [k for k in handles if base[k]["truth"] != change[k]["truth"]]
    lines.append(f"truth changes: {len(truths)}")
    for k in truths:
        read = ", ".join(show(label) for label in change[k]["labels"])
        lines.append(f"  {k[1]}: {show(base[k]['truth'])} -> {show(change[k]['truth'])} "
                     f"(classify at tol 0.01, 0.05: {read})")
    kappas = [k for k in handles if base[k]["kappa"] != change[k]["kappa"]]
    lines.append(f"kappa changes: {len(kappas)}")
    lines += [f"  {k[1]}: {base[k]['kappa']} -> {change[k]['kappa']}" for k in kappas]

    truth_lines = ["against the truth: right undecided wrong no-truth"]
    kappa_lines = ["kappa against [-nu - 0.05, -mu + 0.05] at tol 0.05: inside outside raises"]
    for side, records in (("base", base), ("this", change)):
        truth = dict.fromkeys(("right", "undecided", "wrong", "no-truth"), 0)
        kappa = dict.fromkeys(("inside", "outside", "raises"), 0)
        for r in (r for k, r in records.items() if k[0] == "handle"):
            for label in r["labels"]:
                truth[verdict(label, r["truth"])] += 1
            if (where := bracket(r)) is not None:
                kappa[where] += 1
        truth_lines.append(f"  {side} " + " ".join(map(str, truth.values())))
        kappa_lines.append(f"  {side} " + " ".join(map(str, kappa.values())))
    return lines + truth_lines + kappa_lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    this = Path(__file__).resolve().parents[1]
    ap.add_argument("--checkout", type=Path, default=this,
                    help="base checkout whose src/ is compared (default: this one)")
    args = ap.parse_args()
    with ThreadPoolExecutor(2) as pool:
        base, change = pool.map(collect, (args.checkout, this))
    print(numpy_header())
    print(f"cases: {len(COMMANDS)} commands, {len(PLOT_FILES)} plot files, "
          f"{len(LIBRARY)} expressions, {sum(k[0] == 'handle' for k in change)} handles "
          f"at tol {' and '.join(map(str, TOLS))}")
    print("\n".join(differential(base, change)))


if __name__ == "__main__":
    main()
