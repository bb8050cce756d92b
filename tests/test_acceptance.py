"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here, not configurable. Runtime guards are generous
wall-clock bounds on the whole criterion body.
"""

import contextlib
import math
import random
import time

import numpy as np
import pytest

import tailorder as to
from tailorder.cli import main


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"criterion {num} ({name}): PASS in {elapsed:.1f}s")


def test_criterion_1_index_recovery():
    with criterion(1, "index recovery", 5.0):
        for alpha in (-3.0, -1.0, 0.0, 2.0):
            h = to.make_power_tail(alpha)
            label = to.classify(h)
            assert label.tag == "M"
            assert abs(label.rho - alpha) <= 0.05
            kappa = to.estimate_kappa(h)
            assert abs(kappa.value - (-alpha)) <= 0.06


def test_criterion_2_peter_paul_suite():
    with criterion(2, "dyadic step tail suite", 10.0):
        pp = to.make_peter_paul()
        label = to.classify(pp)  # default grid reaches 1e8
        assert label.tag == "M" and abs(label.rho + 1.0) <= 0.05
        assert not to.rv_ratio_test(pp, [2.0, 3.0]).passed
        kappa = to.estimate_kappa(pp)
        assert abs(kappa.value - 1.0) <= 0.06
        rep = to.karamata_theorem_report(pp, 1.0, 2.0)
        assert rep.condition == "K3*" and rep.passed
        grid = to.GridSpec(log10_x_min=1.0, log10_x_max=math.log10(2.0 ** 21))
        ci = to.cumulative_integral(pp, "V", 0.0, 2.0, grid)
        for x in np.logspace(math.log10(4.0), math.log10(2.0 ** 20), 120):
            want = to.peter_paul_partial_integral(float(x), 1)
            got = math.exp(ci.log_value(float(x)))
            assert abs(got / want - 1.0) <= 1e-6


def test_criterion_3_oscillating_detection():
    with criterion(3, "oscillating-set detection", 10.0):
        mu, nu = to.estimate_orders(to.make_oset_geometric(1.0, 0.0, 2.0))
        assert 0.45 <= mu.value <= 0.55
        assert 0.95 <= nu.value <= 1.05
        mu, nu = to.estimate_orders(to.make_oset_tower(1.0, -1.0))
        assert mu.value == -math.inf
        assert abs(nu.value + 1.0) <= 0.05


def _algebra_pool():
    return [
        to.make_power_tail(-3.0), to.make_power_tail(-2.0),
        to.make_power_tail(-1.0), to.make_power_tail(-0.5),
        to.make_power_tail(0.0), to.make_power_tail(0.5),
        to.make_power_tail(2.0), to.make_power_tail(3.0),
        to.make_peter_paul(), to.make_two_plus_sin(),
        to.make_log_perturbed_power(-1.0, 1.0),
        to.make_exp_neg(), to.make_exp_pos(),
    ]


def _assert_label_agrees(handle, grid):
    predicted = handle.truth.label
    got = to.classify(handle, grid)
    if predicted.is_m:
        assert got.tag == "M", (handle.name, got)
        assert abs(got.rho - predicted.rho) <= 0.05, (handle.name, got)
    else:
        assert got.tag == predicted.tag, (handle.name, got)


def test_criterion_4_algebra_closure():
    with criterion(4, "algebra closure", 60.0):
        rng = random.Random(20260809)
        pool = _algebra_pool()
        ops = [
            lambda u, v: to.scale_add(rng.choice([0.5, 1.0, 2.0]), u, v),
            to.product,
            to.compose,
        ]
        grid = to.GridSpec()
        checked = 0
        while checked < 17:
            u, v = rng.choice(pool), rng.choice(pool)
            h = rng.choice(ops)(u, v)
            if not h.truth.label.is_decided:
                continue
            _assert_label_agrees(h, grid)
            checked += 1
        # convolution cases spanning all three order regimes
        conv_grid = to.GridSpec(points=400, windows=8)
        for au, av in ((-3.0, -2.0), (-3.0, 2.0), (-0.5, -0.5)):
            h = to.convolve(to.make_power_tail(au), to.make_power_tail(av))
            assert h.truth.label.is_decided
            _assert_label_agrees(h, conv_grid)
            checked += 1
        assert checked == 20


def test_criterion_5_representation(m_members):
    with criterion(5, "representation", 10.0):
        for h in m_members:
            rep = to.extract_representation(h, 2.0)
            ver = to.verify_representation(h, rep)
            m = ver.measured
            assert m["reconstruction_residual"] <= 1e-7, h.name
            assert abs(m["alpha_over_logx"]) <= 0.05, h.name
            assert abs(m["eps"] - 1.0) <= 0.05, h.name
            assert abs(m["beta"] - rep.rho) <= 0.05, h.name
        for make in (to.make_exp_neg, to.make_exp_pos, to.make_floor_log_tail):
            ir = to.extract_representation_inf(make())
            assert ir.report.measured["alpha_over_logx_last_window"] > 100.0


def test_criterion_6_transform_order_preservation():
    with criterion(6, "transform order preservation", 30.0):
        r1, r2 = to.make_ramp_power(1.0), to.make_ramp_power(2.0)
        for s in np.logspace(-1.0, -8.0, 200)[::20]:
            s = float(s)
            assert abs(to.laplace_stieltjes(r1, s) * s - 1.0) <= 1e-6
            assert abs(to.laplace_stieltjes(r2, s) * s * s / 2.0 - 1.0) <= 1e-6
        for alpha in (0.5, 1.0, 2.0, 3.0):
            rep = to.tauberian_check(to.make_ramp_power(alpha))
            assert rep.passed
            assert abs(rep.measured["transform_label"]["rho"] - alpha) <= 0.05


def test_criterion_7_extreme_value_checks():
    with criterion(7, "extreme value checks", 30.0):
        par = to.distribution_for(to.make_pareto_tail(2.0))
        vm = to.von_mises_frechet(par)
        assert abs(vm.value - 2.0) <= 0.01
        # the moment index of the order minus-two tail equals the
        # hazard-ratio limit and the negated order
        kappa = to.estimate_kappa(par.base)
        assert abs(kappa.value - 2.0) <= 0.06

        rep = to.classify_domain_attraction(par)
        assert rep.kind == "Frechet" and abs(rep.alpha - 2.0) <= 0.05
        rep = to.classify_domain_attraction(to.distribution_for(to.make_peter_paul()))
        assert rep.kind == "NotClassified" and rep.label.tag == "M"
        assert abs(rep.label.rho + 1.0) <= 0.05
        rep = to.classify_domain_attraction(to.distribution_for(to.make_floor_log_tail()))
        assert rep.kind == "NotClassified" and rep.label.tag == "MInf"

        probe = to.gpd_ratio_probe(par, 0.5, lambda u: np.asarray(u) / 2.0,
                                   x_probe=[0.5, 1.0, 2.0, 4.0, 8.0], tol=0.01)
        assert probe.passed and len(probe.measured["per_x"]) == 5
        for make in (lambda: to.make_oset_geometric(1.0, -2.0, 2.0),
                     lambda: to.make_oset_tower(1.0, -1.0)):
            out = to.excess_family_violation(to.distribution_for(make()), threshold=0.1)
            assert out["violated"]
            assert all(v > 0.1 for v in out["per_member_min_spread"].values())


@pytest.mark.xfail(strict=True,
                   reason="a tail of order minus two has moment index two; "
                          "the reciprocal value cannot hold at the same time "
                          "as the index-negation identity")
def test_criterion_7_literal_reciprocal_index():
    kappa = to.estimate_kappa(to.make_pareto_tail(2.0))
    assert abs(kappa.value - 0.5) <= 0.06


def test_criterion_8_block_maxima():
    with criterion(8, "block maxima simulation", 60.0):
        D = to.distribution_for(to.make_pareto_tail(1.0))
        sim = to.block_maxima_simulate(D, [10_000], reps=2000, seed=7,
                                       candidate_alpha=1.0)
        assert sim.distances[0] < 0.05
        oracle = to.normalized_maxima_cdf(D, 10_000, np.asarray(sim.abscissas))
        emp = np.asarray(sim.empirical_cdfs[0])
        assert np.abs(emp - oracle).max() <= 3.0 / math.sqrt(2000)
        pp = to.distribution_for(to.make_peter_paul())
        out = to.subsequence_witness(pp, k_values=(10,), reps=2000, seed=11)
        assert out["pairs"][0]["ks_exact"] >= 0.05
        assert out["pairs"][0]["ks_empirical"] >= 0.05


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "CLI contract", 60.0):
        # exit 0: decided classification
        out0 = tmp_path / "c0.json"
        assert main(["classify", "--fn", "power_tail", "--param", "alpha=-2",
                     "--out", str(out0)]) == 0
        # exit 1: usage (seed required for acceptance-scale runs)
        assert main(["simulate", "--fn", "pareto_tail", "--param", "alpha=1",
                     "--reps", "2000"]) == 1
        # exit 2: malformed data
        bad = tmp_path / "bad.csv"
        bad.write_text("x,value\n10,1\n5,2\n30,3\n40,1\n50,2\n60,3\n70,1\n80,2\n")
        assert main(["classify", "--data", str(bad)]) == 2
        # exit 3: undecided classification (drifting order)
        drift = tmp_path / "drift.csv"
        lines = ["x,logvalue"]
        u0, u1 = math.log(10.0), math.log(1e6)
        for i in range(300):
            u = u0 + (u1 - u0) * i / 299.0
            r = 2.0 * (1.0 - 0.75 * u / u1)
            lines.append(f"{math.exp(u)!r},{r * u!r}")
        drift.write_text("\n".join(lines) + "\n")
        out3 = tmp_path / "c3.json"
        assert main(["classify", "--data", str(drift), "--out", str(out3)]) == 3
        # exit 4: numeric precondition failure
        assert main(["report", "--fn", "two_plus_sin", "--tauberian"]) == 4
        # JSON round-trip identity
        doc = to.ReportDocument.from_json(out0.read_text())
        assert to.ReportDocument.from_json(doc.to_json()) == doc
        # byte-identical reports for fixed seed and args
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ["simulate", "--fn", "pareto_tail", "--param", "alpha=1",
                "--n", "2000", "--reps", "1000", "--seed", "7"]
        assert main(args + ["--out", str(s1)]) == 0
        assert main(args + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
