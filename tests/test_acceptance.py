"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `python -m pytest tests/test_acceptance.py -v -s`.  The desk-scale
end-to-end criterion trains two models (with and without the penalty term)
through the CLI and is the long pole (a few minutes on one core).
"""

import time

import numpy as np
import pytest

from deepsolve import (
    IndependentVars,
    WarmStart,
    build_admittance,
    check_feasibility,
    decode,
    encode,
    load_case,
    recover,
    solve_opf,
    solve_pf,
    zo_grad,
)
from deepsolve.cli import main as cli
from deepsolve.dataio import ScalingSpec
from deepsolve.evaluator import read_report_csv
from deepsolve.mlp import backward, forward, init_model
from deepsolve.trainer import _direction_table, penalty_loss

from conftest import reference_indep, solution_equalities_residual
from test_powerflow import direct_mismatch


def _verdict(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: power-flow correctness -------------------------------------


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_criterion_1_power_flow_correctness(name):
    case = load_case(name)
    adm = build_admittance(case)
    opf = solve_opf(case, adm=adm)
    assert opf.converged
    indep = reference_indep(case, opf)

    sol = solve_pf(case, adm, indep, *np.split(case.default_loads, 2))
    # independent residual check by direct branch-sum substitution
    s = direct_mismatch(case, sol.v_mag * np.exp(1j * sol.v_ang))
    p_spec = -case.default_loads[: case.n_bus]
    q_spec = -case.default_loads[case.n_bus :]
    p_spec[case.pv_indices] += indep.pv_p_gen
    nonslack = np.concatenate([case.pv_indices, case.pq_indices])
    residual = max(
        np.max(np.abs(s.real[nonslack] - p_spec[nonslack])),
        np.max(np.abs(s.imag[case.pq_indices] - q_spec[case.pq_indices])),
    )

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_pf(case, adm, indep, *np.split(case.default_loads, 2))
        times.append(time.perf_counter() - t0)
    ms = 1e3 * np.median(times)

    ok = sol.converged and residual < 1e-8 and ms < 50.0
    _verdict(
        f"1 ({name})",
        ok,
        f"flat-start power flow converged={sol.converged} residual={residual:.2e} "
        f"(<1e-8), {ms:.1f} ms/solve (<50)",
    )


# -- criterion 2: reference-solver plausibility -------------------------------


@pytest.mark.parametrize(
    "name,target", [("case30", 789.8), ("case118", 81382.9)]
)
def test_criterion_2_reference_solver_plausibility(name, target):
    case = load_case(name)
    adm = build_admittance(case)
    opf = solve_opf(case, adm=adm)
    rel = abs(opf.objective - target) / target
    eq_res = solution_equalities_residual(case, adm, opf)
    indep = reference_indep(case, opf)
    pf = solve_pf(
        case, adm, indep, *np.split(case.default_loads, 2), tol=1e-10
    )
    feas = pf.converged and check_feasibility(case, pf, 1e-6).feasible
    ok = opf.converged and rel < 0.05 and feas and eq_res < 1e-6
    _verdict(
        f"2 ({name})",
        ok,
        f"objective {opf.objective:.1f} vs {target} ({100 * rel:.2f}% off, <5%), "
        f"balance residual {eq_res:.1e} (<1e-6), feasibility checker: {feas}",
    )


# -- criterion 3: codec exactness ---------------------------------------------


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_criterion_3_codec_exactness(name):
    case = load_case(name)
    spec = ScalingSpec.from_case(case)
    rng = np.random.default_rng(ord(name[-1]))
    worst = 0.0
    for _ in range(1000):
        x = spec.x_min + rng.random(spec.dimension) * (spec.x_max - spec.x_min)
        worst = max(worst, float(np.max(np.abs(decode(spec, encode(spec, x)) - x))))
    ok = worst < 1e-12
    _verdict(f"3 ({name})", ok, f"decode(encode(x)) max error {worst:.2e} over 1000 vectors (<1e-12)")


# -- criterion 4: gradient correctness ----------------------------------------


def test_criterion_4_backprop_matches_finite_differences():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        sizes = [int(rng.integers(2, 7)), int(rng.integers(3, 9)), int(rng.integers(1, 6))]
        model = init_model(sizes, seed=1000 + trial)
        x = rng.normal(size=(3, sizes[0])) + 0.013  # jitter off rectifier kinks
        target = rng.uniform(0.2, 0.8, size=(3, sizes[-1]))

        def loss_grads(m):
            out, trace = forward(m, x)
            return 0.5 * np.sum((out - target) ** 2), backward(m, trace, out - target)

        _, grads = loss_grads(model)
        h = 1e-6
        for layer, (dw, _) in enumerate(grads):
            w = model.weights[layer]
            for idx in [(0, 0), (w.shape[0] // 2, w.shape[1] // 2)]:
                orig = w[idx]
                w[idx] = orig + h
                lp, _ = loss_grads(model)
                w[idx] = orig - h
                lm, _ = loss_grads(model)
                w[idx] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-10:
                    worst = max(worst, abs(dw[idx] - fd) / abs(fd))
    ok = worst < 1e-5
    _verdict("4", ok, f"max relative backprop-vs-FD error {worst:.2e} over 20 networks (<1e-5)")


# -- criterion 5: estimator unbiasedness --------------------------------------


def test_criterion_5_zero_order_unbiasedness():
    """The estimator that training runs, on sum(s^2) at an interior point,
    with one direction per sample and with two orthonormal ones."""
    d = 11
    rng_point = np.random.default_rng(55)
    s0 = rng_point.uniform(0.35, 0.9, size=d)  # random interior point
    analytic = 2 * s0
    pen_eval = lambda points: np.sum(points**2, axis=1)

    def mc_error(n, seed, draws):
        v = _direction_table(np.random.default_rng(seed), n, draws, d)
        g, _ = zo_grad(pen_eval, np.broadcast_to(s0, (n, d)), v, 1e-4)
        mean = g.sum(axis=0) / (n * draws)
        return mean, float(np.max(np.abs(mean - analytic)))

    for draws in (1, 2):
        mean, _ = mc_error(100_000, 23, draws)
        per_coord = np.max(np.abs(mean - analytic) / np.abs(analytic))

        # 1/sqrt(n) scaling: error * sqrt(n) stays flat within a factor of 2
        _, e_small = mc_error(10_000, 11, draws)
        _, e_big = mc_error(160_000, 11, draws)
        scale_ratio = (e_small * np.sqrt(10_000)) / (e_big * np.sqrt(160_000))
        scaling_ok = 0.5 <= scale_ratio <= 2.0

        ok = per_coord < 0.02 and scaling_ok
        sample = "1e5 draws" if draws == 1 else f"1e5 samples of {draws} orthonormal draws"
        _verdict(
            "5",
            ok,
            f"per-coordinate error {100 * per_coord:.2f}% over {sample} (<2%), "
            f"sqrt-n scaling ratio {scale_ratio:.2f} (within [0.5, 2])",
        )


# -- criterion 6: penalty semantics -------------------------------------------


def test_criterion_6_penalty_semantics(case30, adm30):
    from deepsolve import sample_loads

    loads = sample_loads(case30, (0.9, 1.1), 50, seed=66)
    n = case30.n_bus
    nonzero = 0
    agree = True
    for row in loads:
        ref = solve_opf(case30, loads=row, adm=adm30)
        assert ref.converged
        indep = reference_indep(case30, ref)
        pf = solve_pf(case30, adm30, indep, row[:n], row[n:], tol=1e-12)
        assert pf.converged
        pen = penalty_loss(case30, pf)
        feas0 = check_feasibility(case30, pf, 0.0).feasible
        if pen != 0.0:
            nonzero += 1
        if (pen == 0.0) != feas0:
            agree = False
    # strict positivity whenever the tolerance-zero checker objects
    from deepsolve.dataio import independent_values

    spec = ScalingSpec.from_case(case30)
    rng = np.random.default_rng(3)
    checked = 0
    for row in loads[:10]:
        ref = solve_opf(case30, loads=row, adm=adm30)
        x_ref = np.clip(
            independent_values(case30, ref.v_mag, ref.p_gen), spec.x_min, spec.x_max
        )
        x = np.clip(
            x_ref + rng.normal(0, 0.08, spec.dimension) * (spec.x_max - spec.x_min),
            spec.x_min, spec.x_max)
        npv = len(case30.pv_indices)
        indep = IndependentVars(
            v_slack=x[0], pv_p_gen=x[1 : 1 + 2 * npv : 2], pv_v_mag=x[2 : 2 + 2 * npv : 2]
        )
        pf = solve_pf(case30, adm30, indep, row[:n], row[n:], tol=1e-12)
        if not pf.converged:
            continue
        checked += 1
        pen = penalty_loss(case30, pf)
        feas0 = check_feasibility(case30, pf, 0.0).feasible
        if (pen == 0.0) != feas0:
            agree = False
    ok = nonzero == 0 and agree and checked > 0
    _verdict(
        "6",
        ok,
        f"reference reconstructions: {50 - nonzero}/50 exactly zero penalty; "
        f"zero-iff-feasible agreement held on {checked} perturbed solutions: {agree}",
    )


# -- criterion 7: desk-scale end-to-end ---------------------------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """gen-data -> train (w2=0.1 and w2=0) -> eval, all through the CLI."""
    root = tmp_path_factory.mktemp("desk")
    data = root / "data"
    rc = cli(["gen-data", "--case", "case30", "--train-count", "1000",
              "--test-count", "200", "--range", "0.9:1.1", "--seed", "7",
              "--out-dir", str(data), "--workers", "1"])
    assert rc == 0
    t0 = time.perf_counter()
    reports = {}
    for tag, w2 in (("pen", "0.1"), ("base", "0.0")):
        model = root / f"model_{tag}.ckpt"
        rc = cli(["train", "--case", "case30", "--data-dir", str(data),
                  "--epochs", "100", "--batch", "32", "--w1", "1", "--w2", w2,
                  "--delta", "0.15", "--zo-draws", "2",
                  "--seed", "5", "--out", str(model)])
        assert rc == 0
        report = root / f"report_{tag}.csv"
        rc = cli(["eval", "--model", str(model), "--case", "case30",
                  "--data-dir", str(data), "--report", str(report)]
                 + ([] if tag == "pen" else ["--no-timing"]))
        assert rc == 0
        reports[tag] = report
    reports["wall"] = time.perf_counter() - t0
    reports["root"] = root
    return reports


def test_criterion_7_desk_scale_end_to_end(desk_run):
    pen = read_report_csv(desk_run["pen"])
    base = read_report_csv(desk_run["base"])
    feas_pen = pen.feasibility_rate
    feas_base = base.feasibility_rate
    cost_diff = pen.cost_diff_pct
    speedup = pen.speedup
    # the median-based ratio moves less with host load than the mean-based gate
    instances = pen.instances
    p50_ratio = np.median([i.time_ref for i in instances]) / np.median(
        [i.time_model for i in instances]
    )
    ok = (
        feas_pen >= 95.0
        and feas_pen > feas_base
        and abs(cost_diff) < 1.0
        and speedup > 5.0
    )
    _verdict(
        "7",
        ok,
        f"penalty feasibility {feas_pen:.1f}% (>=95, baseline {feas_base:.1f}%), "
        f"cost diff {cost_diff:+.3f}% (<1%), speedup x{speedup:.1f} (>5, mean; "
        f"p50 ratio x{p50_ratio:.1f}), "
        f"trained+evaluated in {desk_run['wall'] / 60:.1f} min",
    )


# -- criterion 8: warm-start recovery -----------------------------------------


def test_criterion_8_warm_start_recovery(case30, adm30):
    from deepsolve import sample_loads

    loads = sample_loads(case30, (0.9, 1.1), 20, seed=88)
    n = case30.n_bus
    spec = ScalingSpec.from_case(case30)
    rng = np.random.default_rng(8)
    recovered = 0
    not_worse = 0
    for row in loads:
        ref = solve_opf(case30, loads=row, adm=adm30)
        assert ref.converged
        # deliberately degraded prediction: true factors + noise, re-decoded
        from deepsolve.dataio import independent_values

        s_true = encode(
            spec,
            np.clip(independent_values(case30, ref.v_mag, ref.p_gen),
                    spec.x_min, spec.x_max),
        )
        s_noisy = np.clip(s_true + rng.normal(0, 0.05, spec.dimension), 1e-6, 1 - 1e-6)
        x = decode(spec, s_noisy)
        npv = len(case30.pv_indices)
        indep = IndependentVars(
            v_slack=x[0], pv_p_gen=x[1 : 1 + 2 * npv : 2], pv_v_mag=x[2 : 2 + 2 * npv : 2]
        )
        pf = solve_pf(case30, adm30, indep, row[:n], row[n:])
        pg = np.empty(len(case30.generators))
        qg = np.empty(len(case30.generators))
        for k, g in enumerate(case30.generators):
            b = case30.bus_index(g.bus)
            if b == case30.slack_index:
                pg[k], qg[k] = pf.slack_p_gen, pf.slack_q_gen
            else:
                j = int(np.where(case30.pv_indices == b)[0][0])
                pg[k], qg[k] = indep.pv_p_gen[j], pf.pv_q_gen[j]
        warm = recover(
            case30, row, WarmStart(v_mag=pf.v_mag, v_ang=pf.v_ang, p_gen=pg, q_gen=qg),
            adm=adm30,
        )
        if warm.converged:
            recovered += 1
            if warm.iterations <= ref.iterations:
                not_worse += 1
    ok = recovered == 20 and not_worse >= 16
    _verdict(
        "8",
        ok,
        f"recovery converged {recovered}/20 (need 20), warm <= cold iterations in "
        f"{not_worse}/20 (need >=16)",
    )


# -- criterion 9: reproducibility ---------------------------------------------


def _strip_timing(text, timing_cols):
    out = []
    for line in text.splitlines():
        cells = line.split(",")
        out.append(",".join(c for i, c in enumerate(cells) if i not in timing_cols))
    return "\n".join(out)


def test_criterion_9_reproducibility(tmp_path):
    artifacts = {}
    for run in ("a", "b"):
        root = tmp_path / run
        data = root / "data"
        assert cli(["gen-data", "--case", "case30", "--train-count", "40",
                    "--test-count", "10", "--seed", "13", "--out-dir", str(data),
                    "--workers", "1"]) == 0
        model = root / "model.ckpt"
        assert cli(["train", "--case", "case30", "--data-dir", str(data),
                    "--hidden", "24/12", "--epochs", "3", "--w2", "0.1",
                    "--seed", "3", "--out", str(model)]) == 0
        report = root / "report.csv"
        assert cli(["eval", "--model", str(model), "--case", "case30",
                    "--data-dir", str(data), "--report", str(report),
                    "--no-timing"]) == 0
        metrics = model.with_suffix(model.suffix + ".metrics.csv")
        artifacts[run] = {
            "train.ds": (root / "data/train.ds").read_bytes(),
            "test.ds": (root / "data/test.ds").read_bytes(),
            "model": model.read_bytes(),
            # wall_time is metrics column 4 (pf_diverged follows); timings are
            # nan-stripped in report
            "metrics": _strip_timing(metrics.read_text(), {4}),
            "report": report.read_text(),
        }
    same = {k: artifacts["a"][k] == artifacts["b"][k] for k in artifacts["a"]}
    ok = all(same.values())
    _verdict("9", ok, f"bitwise-identical artifacts across two runs: {same}")
