"""Exit code and sha256 of the output of every README CLI command and a few more.

    python3 bench/digests.py [--checkout DIR]

Runs each command as ``python -m tailorder.cli`` on the package in
``DIR/src`` (default: the checkout holding this script), inside a fresh
temporary directory. The commands are those of the README's CLI section,
then six that reach paths the README does not: the von Mises derivatives
(``report --fn exp_neg``), the attraction verdict of a heavy tail, the
generic bisection quantile, the parameter checks of ``oset_geometric``
and ``log_perturbed_power``, and the Laplace transform of a power that
vanishes at the origin, so needs no regularization (``ramp_power``).
Three more run on grids whose points the windows do not divide evenly,
then one on a grid at the top of the float range, where the last
window holds only -inf samples (``floor_log_tail``), and two tables the
reader refuses (below). The last two pin the exit code 2 of a rapid-class
report given a NaN base point b or exponent r.
Prints one line per command: its exit code, the sha256 of its stdout and
the command. ``plots`` adds one line per CSV file it writes. Then come the
library paths no command reaches: the convolution on a 2-d x, a composition
in log-argument coordinates, the transform handle, the Laplace transform at
a small order and s (the y**alpha cusp at y = 0), the transform handle of a
regularized power tail, the excess-ratio probe of a Pareto tail, a
convolution and a transform handle on 128 points, whose quadrature rounds
span several blocks of panels, a product over a table, evaluated inside the
table's range, the Laplace transform at s = 1e-306, whose peak scan stops
where y/s leaves the float range (a checkout that refuses that s prints
``lib failed`` in its place), the moment index of a reciprocal, a closure
that reads its operand's raw rule at every probe point, and a
composition over a tabulated outer function, evaluated where the inner
values lie within the table's rows (a checkout that refuses a tabulated
outer function prints ``lib failed`` in its place). Three convolutions
follow: a ramp pair from x = 1e-300 to 1e300, a power pair in
log-argument coordinates at u = 650 and 705, and the Tauberian report of
that ramp pair, which vanishes at the origin (a checkout whose convolution
fails outside x in (1e-300, 1e14) prints ``lib failed`` in their place).
Two tail integrals W_r come next: of x**-2 at r = 0.9, whose mass beyond
x = 1e8 takes about 390 octaves to sum out, and of a log-perturbed power
from b = 1.9, off the octaves, where the octave ratio of the tail drifts.
Two lines pin the cell rule itself: the cells of the dyadic step tail
over two octaves of edges from log 1.93, off the octaves, then four cells
of min(x, 1000) whose log-integrand rises by more than 700 across one cell
and is flat (a difference under 1e-8) across two others; then the
cells of x**0.5 times the step tail on three rows of edges, one octave of
256 cells each from log 1.93, in one call. The next line pins the closure
labels: the class that each of nine constructed handles carries, by name,
over every operation, both rapid classes, an Oscillating operand and two
Undecided results. The next line pins the refusal of every count the
library takes (grid points and windows, a block size, reps, a seed, k and
the a of the closed-form integral) for six bad values each: the exception
type and message of each call, or ``accepted``. The line after pins the
same for every real parameter (a constructor's shape or weight, a grid
end, each check's tol, the exponents, base points and scales of the
integrals and transforms, the EVT shapes) at None, "2", True, NaN, inf,
-inf and, where the parameter has one, a finite value out of its range.
The next line pins the crossed-envelope guard of ``classify``: the label of
``oset_tower(0.9, -1)``, whose lower order lies above its upper order, is
Undecided. The next pins the labels of two U that reach or leave 0 inside
the last window: 1 from 2**25 on and 0 below is M(0), x**2 below 2**25 and
0 beyond is MInf. The next line pins, for eight members, the rule that
decided each of the lower and upper order (``IndexEstimate.rule``) and
its trend: every exit of the window reduction but the short finite tail.
It pins rules, not fit residuals, whose last bits may depend on the SIMD
tier (a checkout whose estimates name no rule prints ``lib failed`` in its
place). The line after pins a constant factor: the labels of e**c x**alpha
for alpha in {-80, 0, 80} and c in {-5000, -1000, 300, 500, 1000, 5000},
each M(alpha), and the moment index of ``power_tail(+-70)``, -+70, both
orders within the one range +-128 that bounds every decided order. The
next line pins the closure labels at that bound: products, a composition,
a reciprocal and a convolution of powers whose orders lie beyond +-128,
each a rapid class, then five members of finite nonzero order composed
with ``exp_pos``, each a rapid class by the sign of its order. The last
line pins the sum rule, the larger limit, and closures that read their
operands at x: the truths of x**-2 plus ``exp_neg`` and plus ``exp_pos``
(M(-2) and MNegInf), the label of x**-2 plus ``remark7_mix``, and
1/``remark7_mix`` at x = 10, which lies outside its interval (10, 10 + 1e-10)
where exp(log 10) lies inside it. Each
prints ``lib``, the
sha256 of its result (the shape and bytes of an array, the sorted JSON of a
report) and the expression.
The first line names the numpy version and the SIMD extensions numpy
enabled, as float results may differ in their last bits on another build
or CPU: only printouts with equal first lines compare.
``classify --data`` reads ``samples.csv``, a fixed table of 3 x**-1.5 that
the script writes first, and then ``samples_log.csv``, the same table as
``x,logvalue`` rows, so both CSV kinds are pinned. Two commands read
tables the reader refuses, whose exit code 2 they pin: ``not_utf8.csv``
holds a byte that is not UTF-8, ``long_field.csv`` a field longer than the
csv module's limit of 131,072 characters. Two checkouts whose printouts are
equal run these commands to the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
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
    " ('extract_representation_inf b', lambda v: to.extract_representation_inf("
    "to.make_exp_neg(), v, label=to.ClassLabel.m_inf()), (1.0,)),"
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
# evaluates each expression of argv in one interpreter and prints its digest line
LIBRARY_RUNNER = """
import hashlib, json, sys
import numpy as np
import tailorder as to
PARETO = to.distribution_for(to.make_pareto_tail(1.0))
def refusal(call, value):
    try:
        call(value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"
for expr in sys.argv[1:]:
    value = eval(expr)
    if isinstance(value, dict):
        data = json.dumps(value, sort_keys=True).encode()
    else:
        value = np.asarray(value)
        data = repr(value.shape).encode() + value.tobytes()
    print("lib", hashlib.sha256(data).hexdigest(), expr)
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def digests(checkout: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    lines = [numpy_header()]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_samples(work)
        for command in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "tailorder.cli", *command.split()],
                                  cwd=work, env=env, capture_output=True)
            lines.append(f"{proc.returncode} {sha256(proc.stdout)} {command}")
        for name in PLOT_FILES:
            path = work / "out" / name
            digest = sha256(path.read_bytes()) if path.exists() else "missing"
            lines.append(f"- {digest} out/{name}")
        proc = subprocess.run([sys.executable, "-c", LIBRARY_RUNNER, *LIBRARY],
                              cwd=work, env=env, capture_output=True, text=True)
        lines.extend(proc.stdout.splitlines())
        if proc.returncode:
            lines.append(f"lib failed with exit code {proc.returncode}: "
                         + "".join(proc.stderr.strip().splitlines()[-1:]))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ is run (default: this one)")
    args = ap.parse_args()
    print("\n".join(digests(args.checkout)))


if __name__ == "__main__":
    main()
