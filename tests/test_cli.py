import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailorder as to
from tailorder import cli, errors
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


@pytest.mark.parametrize("argv, message", [
    (["classify"], "one of the arguments --fn --data is required"),
    (["classify", "--fn", "power_tail", "--param", "alpha"],
     "--param expects key=value, got 'alpha'"),
    (["classify", "--fn", "power_tail", "--param", "alpha=two"],
     "--param alpha: non-numeric value 'two'"),
], ids=["no-input", "param-without-value", "param-not-a-number"])
def test_usage_exit_one(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


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


def test_report_of_an_undecided_table_prints_only_the_base_document(drift_csv, capsys):
    code = main(["report", "--data", drift_csv])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["class"]["tag"] == "Undecided"
    assert (doc["conditions"], doc["evt"]) == ([], None)


@pytest.mark.parametrize("content, message", [
    (b"", "empty CSV file"),
    (b"x;value\n10,1\n", "bad CSV header ['x;value']"),
    (b"x,value\n10,1\n20,1,2\n", "line 3: expected 2 columns"),
    (b"x,value\n10,one\n", "line 2: non-numeric field"),
    (None, "cannot read {path}: "),
    (b"x,value\n10,1\n\xff,2\n", "cannot decode {path} as UTF-8: invalid start byte"),
    (b"x,value\n10,1\n20," + b"1" * 131_073 + b"\n",
     "cannot parse {path}, line 3: field larger than field limit"),
], ids=["empty", "semicolon-header", "three-columns", "non-numeric", "directory",
        "not-utf8", "field-too-long"])
def test_unreadable_csv_is_an_input_error(content, message, tmp_path, capsys):
    path = tmp_path / "data.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(["classify", "--data", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert message.format(path=path) in captured.err


def test_numeric_failure_exit_four():
    code, _, _ = run_cli("report", "--fn", "two_plus_sin", "--tauberian")
    assert code == 4


def _error_classes(base=errors.TailOrderError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_classes(sub)


_INPUT_ERRORS = (errors.FormatError, errors.ParamError, errors.DomainError)


@pytest.mark.parametrize("cls", [errors.TailOrderError, *_error_classes()],
                         ids=lambda cls: cls.__name__)
def test_every_error_class_has_one_exit_code_and_prefix(cls, monkeypatch, capsys):
    # data errors exit 2 as input errors, every other TailOrderError exits 4
    # as a numeric failure
    def raise_it(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_load_handle", raise_it)
    code = main(["classify", "--fn", "power_tail", "--param", "alpha=-2"])
    out, err = capsys.readouterr()
    data = issubclass(cls, _INPUT_ERRORS)
    assert code == (2 if data else 4)
    assert out == ""
    assert err == ("input error: boom\n" if data else "numeric failure: boom\n")


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


def test_simulate_overflowing_scale_exit_four(capsys):
    # a_n = 100 ** 1000 lies beyond the float range: no JSON with a_n = inf
    code = main(["simulate", "--fn", "power_tail", "--param", "alpha=-0.001",
                 "--n", "100", "--reps", "200", "--seed", "1"])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "power_tail(alpha=-0.001): quantile beyond the float range" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--fn", "power_tail", "--param", "alpha=-2", "--points", "1000000000000"],
    ["simulate", "--fn", "pareto_tail", "--param", "alpha=2", "--reps", "1000000000000",
     "--seed", "1"],
])
def test_request_too_large_for_memory_is_an_input_error(argv, capsys):
    # 10**12 floats are 7.3 TiB, which numpy refuses before it allocates
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"input error: request too large for memory: {' '.join(argv)} (")


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


def test_report_tauberian_concavity_probe_of_a_steep_power(capsys):
    # x**80 overflows exp on the probe's range unless it is rescaled; NaN
    # second differences would read every verdict as not-concave
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["report", "--fn", "ramp_power", "--param", "alpha=80", "--tauberian"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    conds = {c["condition"]: c for c in json.loads(captured.out)["conditions"]}
    # x**(80 - eta) is convex for every probed eta below 79
    assert conds["TAUBERIAN"]["measured"]["concavity"] == {
        f"eta={eta:g}": "not-concave" for eta in (0, 20, 40, 60)}


def _refuse_nan(token):
    if token == "NaN":
        raise AssertionError("NaN in the JSON output")
    return float(token)


@pytest.mark.parametrize("argv", [
    "classify --fn floor_log_tail --xmin 305.5 --xmax 308",
    "classify --fn floor_log_tail --xmax 306",
    "report --fn exp_neg --xmax 306",
    "report --fn floor_log_tail --xmax 306",
])
def test_top_of_the_float_range_without_warning_or_nan(argv, capsys):
    # log U = -inf past x ~ 1e305 and derivatives beyond the float range
    # gave NaN spreads and RuntimeWarnings with exit code 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv.split())
    assert 0 <= code <= 4
    out = capsys.readouterr().out
    if out:
        json.loads(out, parse_constant=_refuse_nan)


def test_floor_log_tail_kappa_is_infinite_up_to_the_float_range(capsys):
    # cells with log U = -inf at both ends carry mass 0
    assert main(["classify", "--fn", "floor_log_tail", "--xmax", "306"]) == 0
    assert json.loads(capsys.readouterr().out)["estimates"]["kappa"]["value"] == math.inf


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


_DOC = json.loads(ReportDocument(input={}, class_label={"tag": "Undecided"},
                                 estimates={}).to_json())


@pytest.mark.parametrize("text, message", [
    (json.dumps({**_DOC, "surprise": 1}), "unknown report fields ['surprise']"),
    (json.dumps({k: v for k, v in _DOC.items() if k != "evt"}), "missing report fields ['evt']"),
    (json.dumps({**_DOC, "schema_version": "2"}), "unsupported schema version '2'"),
    ("{", "bad report JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("[]", "report JSON must be an object"),
], ids=["unknown-field", "missing-field", "schema-version", "not-json", "not-an-object"])
def test_report_document_rejects_a_malformed_document(text, message):
    with pytest.raises(to.FormatError, match=f"^{re.escape(message)}$"):
        ReportDocument.from_json(text)


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


@pytest.mark.parametrize("flag, value", [("--b", "nan"), ("--b", "inf"), ("--r", "nan")])
def test_a_rapid_class_report_refuses_a_bad_r_or_b_too(flag, value, capsys):
    # the rapid-class branch reads no r, yet a bad r is refused as on a finite order
    code = main(["report", "--fn", "exp_neg", flag, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{flag[2:]} {value} is out of range" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--b", "-inf"), ("--b", "1.0"), ("--b", "0.5"), ("--b", "0.0"),
    ("--r", "inf"), ("--r", "-inf"),
])
def test_a_rapid_class_report_refuses_every_bad_r_or_b_before_classifying(flag, value, capsys):
    # the rapid-class representation reads neither r nor b; the refusal is the cli's own
    code = main(["report", "--fn", "exp_neg", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{flag[2:]} {value} is out of range" in captured.err


def test_a_finite_order_report_refuses_a_b_beyond_x_max(capsys):
    # the representation integrates from b up to the grid's x_max = 1e8
    code = main(["report", "--fn", "power_tail", "--param", "alpha=-2", "--b", "2e8"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "integration range is empty" in captured.err


@pytest.mark.parametrize("fn", ["exp_neg", "exp_pos"])
def test_a_rapid_class_report_does_not_depend_on_b(fn, capsys):
    # b reaches the report only as provenance, the input it was called with
    docs = []
    for b in (1.5, 10.0):
        assert main(["report", "--fn", fn, "--b", str(b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"].pop("b") == b
        docs.append(doc)
    assert docs[0]["conditions"]
    assert docs[0] == docs[1]


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


@pytest.mark.parametrize("fn, alpha", [("pareto_tail", "1.5"), ("power_tail", "-2")])
def test_report_integral_ratio_checks_pass_at_a_tight_tol(fn, alpha, capsys):
    # W_{-2} of U = x**-1.5 or x**-2 decays fast: its tail beyond x_max is summed out
    assert main(["report", "--fn", fn, "--param", f"alpha={alpha}", "--tol", "0.01"]) == 0
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    ratio = [c for c in conditions if c["condition"] in ("K1*", "K2*", "K3*")]
    assert [c["condition"] for c in ratio] == ["K2*", "K2*", "K2*", "K1*"]
    assert all(c["passed"] for c in ratio), [c["measured"]["limit"] for c in ratio]
    # so do the representation's limits: eps of a power, 1 + log b / log(x / b),
    # is read against log(x / b)
    assert conditions[0]["condition"] == "REP-LIMITS"
    assert conditions[0]["passed"], conditions[0]["measured"]


def test_report_tail_unfinished_at_the_float_end_is_numeric(capsys):
    # W_{0.97} of x**-2 decays by 2**-0.03 an octave, too slowly to end below 1.8e308
    assert main(["report", "--fn", "power_tail", "--param", "alpha=-2", "--r", "1.97",
                 "--tol", "0.01"]) == 4
    assert "tail integral of t**0.97" in capsys.readouterr().err


def _decisions(argv, env):
    """Exit code, class tag, (condition, passed) pairs and attraction kind of a call."""
    proc = subprocess.run([sys.executable, "-m", "tailorder.cli", *argv],
                          capture_output=True, text=True, env=env)
    doc = json.loads(proc.stdout)
    attraction = (doc["evt"] or {}).get("domain_attraction") or {}
    return (proc.returncode, doc["class"]["tag"],
            [(c["condition"], c["passed"]) for c in doc["conditions"]], attraction.get("kind"))


@pytest.mark.parametrize("argv", [
    "report --fn pareto_tail --param alpha=1.5",
    "report --fn exp_neg",
    "report --fn ramp_power --param alpha=2.5 --tauberian",
    "classify --fn log_perturbed_power --param alpha=-1 --param c=1",
])
def test_decisions_do_not_depend_on_numpy_simd(argv, simd_envs):
    # the bytes of some of these differ across SIMD tiers; no decision may
    plain_env, scalar_env = simd_envs
    assert _decisions(argv.split(), scalar_env) == _decisions(argv.split(), plain_env)


@pytest.mark.parametrize("flag, value", [("--t", "0"), ("--t", "-2"), ("--t", "nan"),
                                         ("--t", "inf"), ("--t", "1e308"), ("--r", "nan")])
def test_plots_bad_ratio_scale_or_exponent_is_refused_before_any_file(flag, value, tmp_path,
                                                                      capsys):
    out = tmp_path / "plots"
    code = main(["plots", "--fn", "power_tail", "--param", "alpha=-2",
                 "--plots", str(out), "--t", "2", flag, value])
    assert code == 2
    # 1e308 is a scale in range whose x_max * t is not
    named = ("at t=1e+308 needs U" if value == "1e308"
             else f"{flag[2:]} {float(value)!r} is out of range")
    assert named in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_simulate_block_size_one_is_an_input_error(capsys):
    code = main(["simulate", "--fn", "pareto_tail", "--param", "alpha=1", "--n", "1",
                 "--reps", "10", "--seed", "1"])
    assert code == 2
    assert "block size 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--fn", "pareto_tail", "--param", "alpha=1", "--reps", "10", "--seed", "-1"],
     "seed -1 "),
    (["simulate", "--fn", "pareto_tail", "--param", "alpha=1", "--reps", "10",
      "--seed", str(2 ** 128)], f"seed {2 ** 128} "),
    (["classify", "--fn", "power_tail", "--param", "alpha=-2", "--points", "0"], "points"),
    (["classify", "--fn", "x_pow_sin_x", "--tol", "inf"], "tol inf is out of range"),
    (["classify", "--fn", "oset_geometric", "--param", "alpha=1", "--param", "beta=0",
      "--param", "x_a=1e300"], "oset_geometric requires x_a**(1+alpha) <= exp(691): "
     "with x_a=1e+300"),
    (["classify", "--fn", "oset_geometric", "--param", "alpha=1", "--param", "beta=0",
      "--param", "x_a=inf"], "x_a inf is out of range: real parameters are numbers, here "
     "1 < x_a < inf"),
    (["classify", "--fn", "oset_geometric", "--param", "alpha=1", "--param", "beta=0",
      "--param", "x_a=nan"], "x_a nan is out of range: real parameters are numbers, here "
     "1 < x_a < inf"),
    (["classify", "--fn", "log_perturbed_power", "--param", "alpha=-1", "--param", "c=nan"],
     "c nan is out of range: real parameters are numbers, here 0 <= c < inf"),
    (["classify", "--fn", "log_perturbed_power", "--param", "alpha=-1", "--param", "c=inf"],
     "c inf is out of range: real parameters are numbers, here 0 <= c < inf"),
    (["report", "--fn", "ramp_power", "--param", "alpha=1e6"],
     "alpha 1000000.0 is out of range: real parameters are numbers, here "
     "-128 < alpha < 128"),
    # a plot directory inside a file
    (["plots", "--fn", "peter_paul", "--plots", f"{__file__}/plots"],
     f"cannot write plot data: [Errno 20] Not a directory: '{__file__}/plots'"),
], ids=["seed-negative", "seed-2**128", "points-0", "tol-inf", "x_a-1e300", "x_a-inf",
        "x_a-nan", "c-nan", "c-inf", "alpha-1e6", "plots-in-a-file"])
def test_out_of_range_option_is_an_input_error(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


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
    # r = 3: K1* (V); r = 2: K3* (V, ratio test); r = 1: K2* (W, no probe)
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
    # the probes of one kappa bisection; the W integral decides on its own tail
    report_probes = len(counts["probe_integral_convergence"])
    counts["probe_integral_convergence"].clear()
    order.estimate_kappa(to.make_power_tail(-2.0), to.GridSpec())
    assert report_probes == len(counts["probe_integral_convergence"])


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
        conditions.append(to.extract_representation_inf(handle, grid, tol).report.to_dict())
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
