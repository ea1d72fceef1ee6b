"""Evaluation protocol: feasibility rate, cost gap, timing, and recovery.

Every function takes a fitted ``OpfPredictor`` and a dataset split; the
case, admittance matrix and Newton start come from the predictor, and the
model path is its ``solve`` (normalize, forward, decode, power-flow
reconstruction).  One code path decides feasibility
(``powerflow.check_feasibility`` at 1e-6, a threshold on the single limit
test ``powerflow.limit_excess``), for both the learned pipeline and the
reference solver.  Timing runs are strictly sequential with one discarded
warm-up solve per phase; the model path is timed against a cold
interior-point solve, and the timed model-path solves are the scored ones.
A prediction whose reconstruction hits a singular Jacobian counts as one
non-converged instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataio
from .estimator import OpfPredictor
from .netmodel import read_text
from .opfref import WarmStart, generation_cost, recover, solve_opf
from .powerflow import IndependentVars, check_feasibility, solve_pf

FEAS_TOL = 1e-6


class EvalError(Exception):
    pass


@dataclass
class InstanceResult:
    index: int
    pf_converged: bool
    feasible: bool
    n_violations: int
    cost_model: float
    cost_ref: float
    time_model: float = np.nan
    time_ref: float = np.nan
    ref_iterations: int = 0
    recovered: bool | None = None
    recovery_time: float = 0.0
    recovery_iterations: int = 0


@dataclass
class EvalReport:
    case_id: str
    n_instances: int
    feasibility_rate: float  # percent
    avg_cost_model: float
    avg_cost_ref: float
    cost_diff_pct: float
    avg_time_model: float
    std_time_model: float
    avg_time_ref: float
    std_time_ref: float
    speedup: float
    n_recovered: int = 0
    n_recovery_failed: int = 0
    avg_recovery_time: float = 0.0
    avg_warm_iterations: float = 0.0
    avg_cold_iterations: float = 0.0
    instances: list[InstanceResult] = field(default_factory=list)


def _gen_vectors(case, indep, sol):
    """Per-generator dispatch implied by a reconstruction."""
    ng = len(case.generators)
    pg = np.empty(ng)
    qg = np.empty(ng)
    pg[case.slack_gen], qg[case.slack_gen] = sol.slack_p_gen, sol.slack_q_gen
    pg[case.pv_gen], qg[case.pv_gen] = indep.pv_p_gen, sol.pv_q_gen
    return pg, qg


def evaluate(
    predictor: OpfPredictor, dataset: dataio.Dataset, timed: bool = True
) -> EvalReport:
    """Run the full test protocol over a dataset split."""
    case, adm = predictor.case, predictor.adm_
    if dataset.case_id != case.name:
        raise EvalError(f"dataset built for {dataset.case_id!r}, model for {case.name!r}")

    if timed and dataset.samples:
        # warm-up solves are discarded so cache effects hit both paths alike
        predictor.solve(dataset.samples[0].loads)
    solved, t_model = [], []
    for sample in dataset.samples:
        t0 = time.perf_counter()
        solved.append(predictor.solve(sample.loads))
        t_model.append(time.perf_counter() - t0)

    instances: list[InstanceResult] = []
    for idx, (sample, (indep, sol), t) in enumerate(zip(dataset.samples, solved, t_model)):
        converged = sol is not None and sol.converged
        feasible = False
        n_viol = 0
        cost_model = np.nan
        if converged:
            report = check_feasibility(case, sol, FEAS_TOL)
            feasible = report.feasible
            n_viol = len(report.violations)
            pg, _ = _gen_vectors(case, indep, sol)
            cost_model = generation_cost(case, pg)
        instances.append(
            InstanceResult(
                index=idx,
                pf_converged=converged,
                feasible=feasible,
                n_violations=n_viol,
                cost_model=cost_model,
                cost_ref=sample.objective_true,
                time_model=t if timed else np.nan,
            )
        )

    if timed and dataset.samples:
        solve_opf(case, loads=dataset.samples[0].loads, adm=adm)
        for inst, sample in zip(instances, dataset.samples):
            t0 = time.perf_counter()
            ref = solve_opf(case, loads=sample.loads, adm=adm)
            inst.time_ref = time.perf_counter() - t0
            inst.ref_iterations = ref.iterations

    return _summarize(case.name, instances)


def _summarize(case_id, instances) -> EvalReport:
    n = len(instances)
    feas = np.array([i.feasible for i in instances], dtype=bool)
    both = np.array(
        [i.feasible and np.isfinite(i.cost_ref) for i in instances], dtype=bool
    )
    cost_model = np.array([i.cost_model for i in instances])
    cost_ref = np.array([i.cost_ref for i in instances])
    t_model = np.array([i.time_model for i in instances], dtype=float)
    t_ref = np.array([i.time_ref for i in instances], dtype=float)
    timed = np.isfinite(t_model).all() and np.isfinite(t_ref).all() and n > 0

    avg_cost_model = float(np.mean(cost_model[both])) if both.any() else np.nan
    avg_cost_ref = float(np.mean(cost_ref[both])) if both.any() else np.nan
    cost_diff = (
        (avg_cost_model - avg_cost_ref) / avg_cost_ref * 100.0 if both.any() else np.nan
    )
    rec = [i for i in instances if i.recovered is not None]
    warm = [i.recovery_iterations for i in rec if i.recovered]
    cold = [i.ref_iterations for i in rec if i.recovered]
    return EvalReport(
        case_id=case_id,
        n_instances=n,
        feasibility_rate=float(100.0 * feas.mean()) if n else 0.0,
        avg_cost_model=avg_cost_model,
        avg_cost_ref=avg_cost_ref,
        cost_diff_pct=float(cost_diff) if both.any() else np.nan,
        avg_time_model=float(np.mean(t_model)) if timed else np.nan,
        std_time_model=float(np.std(t_model)) if timed else np.nan,
        avg_time_ref=float(np.mean(t_ref)) if timed else np.nan,
        std_time_ref=float(np.std(t_ref)) if timed else np.nan,
        speedup=float(np.mean(t_ref) / np.mean(t_model)) if timed else np.nan,
        n_recovered=sum(bool(i.recovered) for i in rec),
        n_recovery_failed=sum(not i.recovered for i in rec),
        avg_recovery_time=float(np.mean([i.recovery_time for i in rec])) if rec else 0.0,
        avg_warm_iterations=float(np.mean(warm)) if warm else 0.0,
        avg_cold_iterations=float(np.mean(cold)) if cold else 0.0,
        instances=instances,
    )


def recover_infeasible(
    report: EvalReport, predictor: OpfPredictor, dataset: dataio.Dataset
) -> EvalReport:
    """Re-solve every infeasible instance from its prediction as warm start.

    Recovery time is added to the instance's model-path time; warm/cold
    iteration counts are kept for comparison.  Instances whose reference
    iteration count is unknown (untimed evaluate) get a cold solve here.
    """
    case, adm = predictor.case, predictor.adm_
    for inst in report.instances:
        if inst.feasible:
            continue
        sample = dataset.samples[inst.index]
        indep, sol = predictor.solve(sample.loads)
        t0 = time.perf_counter()
        if sol is None:  # no reconstruction to start from
            fixed = solve_opf(case, loads=sample.loads, adm=adm)
        else:
            pg, qg = _gen_vectors(case, indep, sol)
            ws = WarmStart(v_mag=sol.v_mag, v_ang=sol.v_ang, p_gen=pg, q_gen=qg)
            fixed = recover(case, sample.loads, ws, adm=adm)
        inst.recovery_time = time.perf_counter() - t0
        inst.recovered = bool(fixed.converged)
        inst.recovery_iterations = fixed.iterations
        if inst.recovered:
            inst.feasible = True
            inst.cost_model = fixed.objective
            if np.isfinite(inst.time_model):
                inst.time_model += inst.recovery_time
        if inst.ref_iterations == 0:
            cold = solve_opf(case, loads=sample.loads, adm=adm)
            inst.ref_iterations = cold.iterations
    return _summarize(report.case_id, report.instances)


def dump_comparison(predictor: OpfPredictor, dataset: dataio.Dataset, instance: int = 0) -> str:
    """Predicted-vs-reference comparison rows for one test instance.

    Comma-separated: variable id, predicted, reference — the independent
    variables in scaling-spec order (slack |V|, then P and |V| per PV bus),
    then the slack active power of both reconstructions.
    """
    case, spec = predictor.case, predictor.spec_
    sample = dataset.samples[instance]
    indep, sol_pred = predictor.solve(sample.loads)
    ref = dataio.decode(spec, sample.s_true)
    lines = ["variable,predicted,reference"]
    for entry, p, r in zip(spec.entries, indep.to_vector(), ref):
        lines.append(f"{entry.var_id},{p:.10g},{r:.10g}")
    # slack active power comes from the reconstruction on both sides
    n = case.n_bus
    sol_ref = solve_pf(
        case, predictor.adm_, IndependentVars.from_vector(ref),
        sample.loads[:n], sample.loads[n:], init=predictor.pf_init_,
    )
    slack_id = case.buses[case.slack_index].id
    pred_slack = np.nan if sol_pred is None else sol_pred.slack_p_gen
    lines.append(f"pg:{slack_id},{pred_slack:.10g},{sol_ref.slack_p_gen:.10g}")
    return "\n".join(lines) + "\n"


def report_text(report: EvalReport) -> str:
    """Human-readable summary table."""
    def money(v):
        return f"{v:.1f} $/hr" if np.isfinite(v) else "n/a"

    rows = [
        ("instances", f"{report.n_instances}"),
        ("feasibility rate", f"{report.feasibility_rate:.1f} %"),
        ("avg cost (model)", money(report.avg_cost_model)),
        ("avg cost (reference)", money(report.avg_cost_ref)),
        ("cost difference",
         f"{report.cost_diff_pct:+.3f} %" if np.isfinite(report.cost_diff_pct) else "n/a"),
        ("avg time (model)", _ms(report.avg_time_model, report.std_time_model)),
        ("avg time (reference)", _ms(report.avg_time_ref, report.std_time_ref)),
        ("speedup", f"x{report.speedup:.1f}" if np.isfinite(report.speedup) else "n/a"),
    ]
    if report.n_recovered or report.n_recovery_failed:
        rows += [
            ("recovered instances", f"{report.n_recovered}"),
            ("failed recoveries", f"{report.n_recovery_failed}"),
            ("avg recovery time", _ms(report.avg_recovery_time, None)),
            ("warm vs cold iterations",
             f"{report.avg_warm_iterations:.1f} vs {report.avg_cold_iterations:.1f}"),
        ]
    width = max(len(k) for k, _ in rows)
    header = f"evaluation: {report.case_id}"
    lines = [header, "-" * len(header)]
    lines += [f"{k.ljust(width)}  {v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def _ms(mean, std):
    if mean is None or not np.isfinite(mean):
        return "n/a"
    if std is None or not np.isfinite(std):
        return f"{mean * 1e3:.2f} ms"
    return f"{mean * 1e3:.2f} +- {std * 1e3:.2f} ms"


def report_csv(report: EvalReport) -> str:
    """Machine-readable report: summary record plus per-instance records.

    The recovery time is written at full precision, so :func:`read_report_csv`
    recomputes exactly the average recovery time ``eval`` printed."""
    lines = [
        "record,case_id,n_instances,feasibility_rate,avg_cost_model,avg_cost_ref,"
        "cost_diff_pct,avg_time_model,avg_time_ref,speedup,n_recovered,"
        "avg_warm_iterations,avg_cold_iterations"
    ]
    r = report
    lines.append(
        f"summary,{r.case_id},{r.n_instances},{r.feasibility_rate:.6g},"
        f"{r.avg_cost_model:.10g},{r.avg_cost_ref:.10g},{r.cost_diff_pct:.6g},"
        f"{r.avg_time_model:.6g},{r.avg_time_ref:.6g},{r.speedup:.6g},"
        f"{r.n_recovered},{r.avg_warm_iterations:.6g},{r.avg_cold_iterations:.6g}"
    )
    lines.append(
        "record,index,pf_converged,feasible,n_violations,cost_model,cost_ref,"
        "time_model,time_ref,ref_iterations,recovered,recovery_iterations,recovery_time"
    )
    for i in report.instances:
        lines.append(
            f"instance,{i.index},{int(i.pf_converged)},{int(i.feasible)},"
            f"{i.n_violations},{i.cost_model:.10g},{i.cost_ref:.10g},"
            f"{i.time_model:.6g},{i.time_ref:.6g},{i.ref_iterations},"
            f"{'' if i.recovered is None else int(i.recovered)},{i.recovery_iterations},"
            f"{i.recovery_time:.17g}"
        )
    return "\n".join(lines) + "\n"


def read_report_csv(path) -> EvalReport:
    """Parse a :func:`report_csv` file back into an :class:`EvalReport`.

    The summary record supplies the averages as written.  What it does not
    carry (the failed-recovery count, the time spreads and the average
    recovery time) is recomputed from the instance records.  A file written
    before the ``recovery_time`` column existed reads that time as unknown
    (nan).
    """
    lines = read_text(path, EvalError).splitlines()
    if len(lines) < 3 or not lines[1].startswith("summary,"):
        raise EvalError(f"{path}: not an eval report (no summary record)")
    summary = dict(zip(lines[0].split(","), lines[1].split(",")))
    head = lines[2].split(",")
    try:
        case_id = summary["case_id"]
        instances = []
        for line in lines[3:]:
            r = dict(zip(head, line.split(",")))
            instances.append(InstanceResult(
                index=int(r["index"]),
                pf_converged=r["pf_converged"] == "1",
                feasible=r["feasible"] == "1",
                n_violations=int(r["n_violations"]),
                cost_model=float(r["cost_model"]),
                cost_ref=float(r["cost_ref"]),
                time_model=float(r["time_model"]),
                time_ref=float(r["time_ref"]),
                ref_iterations=int(r["ref_iterations"]),
                recovered=None if r["recovered"] == "" else r["recovered"] == "1",
                recovery_time=float(r.get("recovery_time", np.nan)),
                recovery_iterations=int(r["recovery_iterations"]),
            ))
        written = {k: int(summary[k]) for k in ("n_instances", "n_recovered")}
        written.update(
            (k, float(summary[k]))
            for k in ("feasibility_rate", "avg_cost_model", "avg_cost_ref",
                      "cost_diff_pct", "avg_time_model", "avg_time_ref", "speedup",
                      "avg_warm_iterations", "avg_cold_iterations")
        )
    except (KeyError, ValueError) as exc:
        raise EvalError(f"{path}: malformed eval report ({exc!r})") from None
    return replace(_summarize(case_id, instances), **written)
