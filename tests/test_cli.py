import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailorder as to
from tailorder.cli import main
from tailorder.report import ReportDocument


def _child_env():
    """Environment in which a child process imports this same package."""
    src = str(Path(to.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "tailorder.cli", *args],
        capture_output=True, text=True, env=_child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def drift_csv(tmp_path_factory):
    # order ratio drifts downward across the whole grid: honest Undecided
    path = tmp_path_factory.mktemp("data") / "drift.csv"
    lines = ["x,logvalue"]
    u0, u1 = math.log(10.0), math.log(1e6)
    for i in range(300):
        u = u0 + (u1 - u0) * i / 299.0
        r = 2.0 * (1.0 - 0.75 * u / u1)
        lines.append(f"{math.exp(u)!r},{r * u!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def unsorted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bad.csv"
    path.write_text("x,value\n10,1\n5,2\n30,3\n40,1\n50,2\n60,3\n70,1\n80,2\n")
    return str(path)


def test_classify_decided_exit_zero():
    code, out, _ = run_cli("classify", "--fn", "power_tail", "--param", "alpha=-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == {"tag": "M", "rho": -2.0}
    assert doc["estimates"]["kappa"]["value"] == pytest.approx(2.0, abs=0.01)


def test_classify_oscillating_decided():
    code, out, _ = run_cli("classify", "--fn", "x_pow_sin_x")
    assert code == 0
    assert json.loads(out)["class"]["tag"] == "Oscillating"


def test_usage_exit_one():
    code, _, _ = run_cli("classify")
    assert code == 1


def test_unknown_function_exit_two():
    code, _, _ = run_cli("classify", "--fn", "no_such_fn")
    assert code == 2


def test_unsorted_csv_exit_two(unsorted_csv):
    code, _, _ = run_cli("classify", "--data", unsorted_csv)
    assert code == 2


def test_undecided_exit_three(drift_csv):
    code, out, _ = run_cli("classify", "--data", drift_csv)
    assert code == 3
    assert json.loads(out)["class"]["tag"] == "Undecided"


def test_numeric_failure_exit_four():
    code, _, _ = run_cli("report", "--fn", "two_plus_sin", "--tauberian")
    assert code == 4


def test_simulate_requires_seed_for_big_runs():
    code, _, _ = run_cli("simulate", "--fn", "pareto_tail", "--param", "alpha=1",
                         "--reps", "2000")
    assert code == 1


def test_simulate_rejects_non_tail():
    code, _, _ = run_cli("simulate", "--fn", "two_plus_sin", "--reps", "10",
                         "--seed", "1")
    assert code == 2


def test_simulate_generic_quantile_tail(capsys):
    # log_perturbed_power has no hand-written quantile: the maxima go
    # through the generic bracket-and-bisect map
    code = main(["simulate", "--fn", "log_perturbed_power", "--param", "alpha=-2",
                 "--param", "c=0.5", "--n", "4", "--reps", "25", "--seed", "3"])
    assert code == 0
    sim = json.loads(capsys.readouterr().out)["evt"]["simulation"]
    D = to.distribution_for(to.make_log_perturbed_power(-2.0, 0.5))
    exact = to.normalized_maxima_cdf(D, 4, np.asarray(sim["abscissas"]))
    ks = np.abs(np.asarray(sim["empirical_cdfs"][0]) - exact).max()
    assert ks <= 3.0 / math.sqrt(25)


@pytest.mark.parametrize("fn", ["two_plus_sin", "peter_paul"])
def test_grid_starting_at_one_is_an_input_error(fn):
    # log 1 = 0 would divide the first sample by zero
    assert main(["classify", "--fn", fn, "--xmin", "0"]) == 2


def test_table_from_x_one_starts_grid_above_it(tmp_path, capsys):
    path = tmp_path / "from_one.csv"
    us = [math.log(1e6) * i / 199 for i in range(200)]
    path.write_text("x,logvalue\n" + "".join(f"{math.exp(u)!r},{0.7 - 1.5 * u!r}\n"
                                              for u in us))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", "--data", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["grid"]["log10_x_min"] > 0.0
    assert doc["class"]["rho"] == pytest.approx(-1.5, abs=0.05)


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tailorder; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_report_peter_paul_k3_and_ratio_witness():
    code, out, _ = run_cli("report", "--fn", "peter_paul", "--r", "1", "--b", "2")
    assert code == 0
    doc = json.loads(out)
    conds = {c["condition"]: c for c in doc["conditions"]}
    assert conds["K3*"]["passed"]
    assert conds["K3*"]["measured"]["ratio_regular"] is False
    assert not conds["RATIO-SCALING"]["passed"]


def test_report_exp_neg_inf_representation():
    code, out, _ = run_cli("report", "--fn", "exp_neg")
    assert code == 0
    doc = json.loads(out)
    conds = {c["condition"]: c for c in doc["conditions"]}
    assert conds["REP-INF"]["passed"]
    assert doc["evt"]["domain_attraction"]["kind"] == "GumbelInfCandidate"


def test_report_tauberian_flag():
    code, out, _ = run_cli("report", "--fn", "power_tail", "--param", "alpha=1.0",
                           "--tauberian")
    assert code == 0
    conds = {c["condition"]: c for c in json.loads(out)["conditions"]}
    assert conds["TAUBERIAN"]["passed"]


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--fn", "pareto_tail", "--param", "alpha=1",
            "--n", "2000", "--reps", "1000", "--seed", "7"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_report_document_round_trip(tmp_path):
    p = tmp_path / "doc.json"
    assert main(["classify", "--fn", "peter_paul", "--out", str(p)]) == 0
    doc = ReportDocument.from_json(p.read_text())
    assert ReportDocument.from_json(doc.to_json()) == doc


def test_report_document_rejects_unknown_fields():
    doc = ReportDocument(input={}, class_label={"tag": "Undecided"}, estimates={})
    payload = json.loads(doc.to_json())
    payload["surprise"] = 1
    with pytest.raises(to.FormatError):
        ReportDocument.from_dict(payload)


def test_plots_emission(tmp_path):
    out = tmp_path / "plots"
    assert main(["plots", "--fn", "power_tail", "--param", "alpha=-2",
                 "--plots", str(out)]) == 0
    orders = (out / "orders.csv").read_text().splitlines()
    assert orders[0] == "x,log_u_over_log_x"
    ratios = [float(line.split(",")[1]) for line in orders[1:]]
    assert all(abs(v + 2.0) < 1e-9 for v in ratios)
    ktrace = (out / "kappa_trace.csv").read_text().splitlines()
    assert ktrace[0] == "r,verdict,log_partial_integral"
    verdicts = {line.split(",")[0]: line.split(",")[1] for line in ktrace[1:]}
    assert verdicts["1.0"] == "Convergent" and verdicts["3.0"] == "Divergent"
    assert (out / "ratio.csv").read_text().startswith("t,x,ratio")


def test_plots_sawtooth_for_step_tail(tmp_path):
    out = tmp_path / "plots"
    assert main(["plots", "--fn", "peter_paul", "--plots", str(out)]) == 0
    rows = (out / "orders.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert min(vals) >= -1.0 - 1e-12
    assert max(vals) < -0.75  # n/(n+1) ceiling over the plotted range


# ---------------------------------------------------------------------------
# non-finite and out-of-range arguments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flag, value, message", [
    ("--r", "nan", "finite r"),
    ("--r", "inf", "finite r"),
    ("--r", "-inf", "finite r"),
    ("--b", "nan", "1 < b < inf"),
    ("--b", "inf", "1 < b < inf"),
])
def test_report_non_finite_r_or_b_is_an_input_error(flag, value, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["report", "--fn", "power_tail", "--param", "alpha=1", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("xmax", ["309", "inf"])
def test_overflowing_x_max_is_an_input_error(xmax):
    code, out, err = run_cli("classify", "--fn", "power_tail", "--param", "alpha=-2",
                             "--xmax", xmax)
    assert code == 2
    assert out == ""
    assert "x_max" in err
    assert "RuntimeWarning" not in err


def test_ratio_test_beyond_the_float_range_is_an_input_error():
    # x_max = 1e308 is a legal grid end, but U(x_max * 2) is not representable
    code, out, err = run_cli("report", "--fn", "power_tail", "--param", "alpha=-2",
                             "--xmax", "308")
    assert code == 2
    assert out == ""
    assert "t=2" in err and "x_max" in err
    assert "RuntimeWarning" not in err


@pytest.fixture(scope="module")
def power_csv(tmp_path_factory):
    # U(x) = 3 x**-1.5 tabulated on [10, 1e6]
    path = tmp_path_factory.mktemp("data") / "power.csv"
    us = [math.log(10.0) + (math.log(1e6) - math.log(10.0)) * i / 299 for i in range(300)]
    path.write_text("x,logvalue\n" + "".join(f"{math.exp(u)!r},{math.log(3.0) - 1.5 * u!r}\n"
                                              for u in us))
    return str(path)


def test_report_refuses_a_finite_order_table(power_csv, capsys):
    code = main(["report", "--data", power_csv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "x in [10, 1e+06]" in captured.err


def test_plots_ratio_rows_stay_inside_the_table(power_csv, tmp_path):
    out = tmp_path / "plots"
    assert main(["plots", "--data", power_csv, "--plots", str(out)]) == 0
    rows = [line.split(",") for line in (out / "ratio.csv").read_text().splitlines()[1:]]
    assert {float(t) for t, _, _ in rows} == {2.0, 5.0, 10.0}
    for t, x, ratio in rows:
        assert float(x) * float(t) <= 1e6 * (1.0 + 1e-12)
        assert float(ratio) == pytest.approx(float(t) ** -1.5, rel=1e-9)


@pytest.mark.parametrize("r, branch, target", [(100.0, "K1*", 101.0), (-150.0, "K2*", -149.0)])
def test_report_integral_ratio_far_from_zero_order(r, branch, target, capsys):
    # |rho + r| far beyond the runaway threshold of the order estimates
    assert main(["report", "--fn", "power_tail", "--param", "alpha=1", "--r", f"{r:g}"]) == 0
    cond = json.loads(capsys.readouterr().out)["conditions"][-1]
    assert cond["condition"] == branch
    assert cond["passed"]
    assert cond["measured"]["limit"] == pytest.approx(target, abs=0.05)
    assert cond["measured"]["condition_passed"]


def test_simulate_block_size_one_is_an_input_error(capsys):
    code = main(["simulate", "--fn", "pareto_tail", "--param", "alpha=1", "--n", "1",
                 "--reps", "10", "--seed", "1"])
    assert code == 2
    assert "block size 1" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from tailorder.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["report", "--fn", "power_tail", "--param", "alpha=-2",
                 "--r", "3", "--r", "2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["report", "--fn", "pareto_tail", "--param", "alpha=1.5",
                 "--r", "0.5"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["input"]["params"] == {"alpha": -2.0}
    assert first["provenance"]["r"] == [3.0, 2.0]
    assert second["input"]["params"] == {"alpha": 1.5}
    assert second["provenance"]["r"] == [0.5]
    assert [c["measured"]["r"] for c in second["conditions"][3:]] == [0.5]
    assert main(["classify", "--fn", "peter_paul"]) == 0
    third = json.loads(capsys.readouterr().out)
    assert third["input"]["params"] == {}
    assert "r" not in third["provenance"]


# ---------------------------------------------------------------------------
# report computes each quantity once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name) -> list:
    """Count calls of module.name through every tailorder binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tailorder":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_report_computes_orders_kappa_label_once(monkeypatch, capsys):
    from tailorder import karamata, order

    counts = {name: _count_calls(monkeypatch, mod, name) for mod, name in [
        (order, "estimate_orders"), (order, "estimate_kappa"), (order, "classify"),
        (order, "rv_ratio_test"), (karamata, "cumulative_integral"),
        (order, "probe_integral_convergence")]}
    # r = 3: K1* (V); r = 2: K3* (V, ratio test); r = 1: K2* (W, one probe)
    assert main(["report", "--fn", "power_tail", "--param", "alpha=-2",
                 "--r", "3", "--r", "2", "--r", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["condition"] for c in doc["conditions"][3:]] == ["K1*", "K3*", "K2*"]
    assert doc["evt"]["domain_attraction"]["kind"] == "Frechet"
    assert len(counts["estimate_orders"]) == 1
    assert len(counts["estimate_kappa"]) == 1
    assert len(counts["classify"]) == 1
    assert len(counts["rv_ratio_test"]) == 1
    assert len(counts["cumulative_integral"]) == 3
    # the probes of one kappa bisection plus the W integral's one probe
    report_probes = len(counts["probe_integral_convergence"])
    counts["probe_integral_convergence"].clear()
    order.estimate_kappa(to.make_power_tail(-2.0), to.GridSpec())
    assert report_probes == len(counts["probe_integral_convergence"]) + 1


def _library_report(handle, rs, b=2.0, tol=0.05):
    """conditions and evt of a report, from the library checks on their own."""
    grid = to.GridSpec()  # the CLI's default grid
    conditions = []
    label = to.classify(handle, grid, tol)
    if label.tag == "M":
        rep = to.extract_representation(handle, b, grid, tol)
        conditions += [
            to.verify_representation(handle, rep, grid, tol).to_dict(),
            to.check_second_characterization(handle, grid, tol).to_dict(),
            to.rv_ratio_test(handle, grid=grid, tol=tol).to_dict(),
        ]
        conditions += [to.karamata_theorem_report(handle, r, b, grid, tol).to_dict()
                       for r in rs]
    else:
        conditions.append(to.extract_representation_inf(handle, b, grid, tol).report.to_dict())
    evt = None
    if handle.truth.is_tail:
        D = to.distribution_for(handle)
        evt = {"domain_attraction": to.classify_domain_attraction(D, grid, tol).to_dict()}
    # the CLI's JSON encoding: float keys become strings, tuples lists
    return json.loads(json.dumps({"conditions": conditions, "evt": evt}))


@pytest.mark.parametrize("fn, params, rs", [
    ("power_tail", {"alpha": 1.0}, [0.5, -2.0, -1.0]),   # K1*, K2*, K3*
    ("power_tail", {"alpha": -2.0}, [3.0, 1.0]),          # K1*, K2*; Frechet
    ("peter_paul", {}, [1.0]),                            # K3*, not ratio-regular
    ("exp_neg", {}, []),                                  # rapid decay, Gumbel candidate
])
def test_report_equals_standalone_library_checks(fn, params, rs, capsys):
    argv = ["report", "--fn", fn]
    for k, v in params.items():
        argv += ["--param", f"{k}={v!r}"]
    for r in rs:
        argv += ["--r", repr(r)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    want = _library_report(to.make_named(fn, params), rs)
    assert doc["conditions"] == want["conditions"]
    assert doc["evt"] == want["evt"]
