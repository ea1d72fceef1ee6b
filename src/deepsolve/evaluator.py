"""Evaluation protocol: feasibility rate, cost gap, timing, and recovery.

Every function takes a fitted ``OpfPredictor`` and a dataset split; the
case, admittance matrix and power-flow start come from the predictor, and the
model path is its ``solve`` (normalize, forward, decode, power-flow
reconstruction).  :func:`evaluate` runs that path once per instance, then
scores, times the reference solver and, when asked, recovers each
infeasible instance from the prediction it already has
(:func:`recover_infeasible`).  One code path decides feasibility
(``powerflow.check_feasibility`` at ``FEASIBILITY_TOL`` = 1e-6, a threshold
on the single limit test ``powerflow.limit_excess``), for both the learned
pipeline and the reference solver.  Timing runs are strictly sequential with one discarded
warm-up solve per phase; the model path is timed against a cold
interior-point solve, and the timed model-path solves are the scored ones.
A prediction that does not decode (a NaN output), or whose reconstruction
hits a singular Jacobian, counts as one non-converged instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import dataio, trainer
from .estimator import OpfPredictor
from .netmodel import DataError, DeepsolveError, read_text
from .opfref import WarmStart, generation_cost, recover, solve_opf
from .powerflow import check_feasibility

REPORT_FORMAT_VERSION = 2


class EvalError(DeepsolveError):
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
    recovery_iterations: int = 0
    recovery_path: str | None = None  # warm, fallback or cold: see recover_infeasible
    recovery_time: float = 0.0


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
    n_fallback: int = 0
    avg_recovery_time: float = 0.0
    avg_warm_iterations: float = 0.0
    avg_cold_iterations: float = 0.0
    format_version: int = REPORT_FORMAT_VERSION
    instances: list[InstanceResult] = field(default_factory=list)


# the report's record columns: every field of each record kind in order, so
# a field added to EvalReport or InstanceResult is written and read too
SUMMARY_FIELDS = tuple(f.name for f in fields(EvalReport) if f.name != "instances")
INSTANCE_FIELDS = tuple(f.name for f in fields(InstanceResult))


def _gen_vectors(case, indep, sol):
    """Per-generator dispatch implied by a reconstruction."""
    ng = len(case.generators)
    pg = np.empty(ng)
    qg = np.empty(ng)
    pg[case.slack_gen], qg[case.slack_gen] = sol.slack_p_gen, sol.slack_q_gen
    pg[case.pv_gen], qg[case.pv_gen] = indep.pv_p_gen, sol.pv_q_gen
    return pg, qg


def evaluate(
    predictor: OpfPredictor, dataset: dataio.Dataset, timed: bool = True, recover: bool = False
) -> EvalReport:
    """Run the full test protocol over a dataset split: the model path,
    scoring, the timed reference solves and, with ``recover``, the recovery
    of every infeasible instance, in that order."""
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
            report = check_feasibility(case, sol)
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

    if recover:
        for inst, sample, (indep, sol) in zip(instances, dataset.samples, solved):
            if not inst.feasible:
                recover_infeasible(predictor, inst, sample.loads, indep, sol)
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
    # the warm attempts that converged, compared with the cold solves of the same instances
    warm = [i for i in rec if i.recovery_path == "warm"]
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
        n_fallback=sum(i.recovery_path == "fallback" for i in rec),
        avg_recovery_time=float(np.mean([i.recovery_time for i in rec])) if rec else 0.0,
        avg_warm_iterations=float(np.mean([i.recovery_iterations for i in warm])) if warm else 0.0,
        avg_cold_iterations=float(np.mean([i.ref_iterations for i in warm])) if warm else 0.0,
        instances=instances,
    )


def recover_infeasible(predictor: OpfPredictor, inst: InstanceResult, loads, indep, sol):
    """Re-solve one infeasible instance, at ``loads``, from its model-path
    prediction ``(indep, sol)`` as warm start, updating ``inst`` in place.

    A warm attempt that fails (or a prediction with no reconstruction to
    start from) is followed by a cold solve inside the timed recovery, and
    ``recovery_iterations`` counts both.  ``recovery_path`` records which:
    ``warm``, ``fallback`` (the warm attempt failed) or ``cold`` (nothing to
    start from).  Recovery time is added to the instance's model-path time;
    warm/cold iteration counts are kept for comparison.  An instance whose reference iteration count is unknown
    (untimed evaluate) takes it from that cold solve, or from one run here.
    """
    case, adm = predictor.case, predictor.adm_
    t0 = time.perf_counter()
    fixed, cold, iterations, path = None, None, 0, "cold"
    if sol is not None:
        pg, qg = _gen_vectors(case, indep, sol)
        ws = WarmStart(v_mag=sol.v_mag, v_ang=sol.v_ang, p_gen=pg, q_gen=qg)
        fixed = recover(case, loads, ws, adm=adm)
        iterations, path = fixed.iterations, "warm" if fixed.converged else "fallback"
    if fixed is None or not fixed.converged:
        fixed = cold = solve_opf(case, loads=loads, adm=adm)
        iterations += cold.iterations
    inst.recovery_time = time.perf_counter() - t0
    inst.recovery_path = path
    inst.recovered = bool(fixed.converged)
    inst.recovery_iterations = iterations
    if inst.recovered:
        inst.feasible = True
        inst.cost_model = fixed.objective
        if np.isfinite(inst.time_model):
            inst.time_model += inst.recovery_time
    if inst.ref_iterations == 0:
        if cold is None:
            cold = solve_opf(case, loads=loads, adm=adm)
        inst.ref_iterations = cold.iterations


def dump_comparison(predictor: OpfPredictor, dataset: dataio.Dataset, instance: int = 0) -> str:
    """Predicted-vs-reference comparison rows for one test instance.

    Comma-separated: variable id, predicted, reference — the independent
    variables in scaling-spec order (slack |V|, then P and |V| per PV bus),
    then the slack active power of both reconstructions.  A prediction that
    does not decode, or a reconstruction that fails, reads nan.
    """
    case, spec = predictor.case, predictor.spec_
    sample = dataset.samples[instance]
    indep, sol_pred = predictor.solve(sample.loads)
    ref = dataio.decode(spec, sample.s_true)
    lines = ["variable,predicted,reference"]
    predicted = np.full(spec.dimension, np.nan) if indep is None else indep.to_vector()
    for entry, p, r in zip(spec.entries, predicted, ref):
        lines.append(f"{entry.var_id},{p:.10g},{r:.10g}")
    # slack active power comes from the reconstruction on both sides
    sol_ref = trainer.reconstruct(
        case, predictor.adm_, spec, predictor.pf_init_, sample.s_true[None], sample.loads[None]
    )
    slack_id = case.buses[case.slack_index].id
    pred_slack = np.nan if sol_pred is None else sol_pred.slack_p_gen
    ref_slack = np.nan if sol_ref.singular[0] else sol_ref.slack_p_gen[0]
    lines.append(f"pg:{slack_id},{pred_slack:.10g},{ref_slack:.10g}")
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
        ("avg time (model + recovery)" if report.n_recovered else "avg time (model)",
         _ms(report.avg_time_model, report.std_time_model)),
        ("avg time (reference)", _ms(report.avg_time_ref, report.std_time_ref)),
        ("speedup", f"x{report.speedup:.1f}" if np.isfinite(report.speedup) else "n/a"),
    ]
    if report.n_recovered or report.n_recovery_failed:
        rows += [
            ("recovered instances", f"{report.n_recovered}"),
            ("failed recoveries", f"{report.n_recovery_failed}"),
            ("fallbacks to a cold solve", f"{report.n_fallback}"),
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
    if not np.isfinite(mean):
        return "n/a"
    if std is None or not np.isfinite(std):
        return f"{mean * 1e3:.2f} ms"
    return f"{mean * 1e3:.2f} +- {std * 1e3:.2f} ms"


def report_csv(report: EvalReport) -> str:
    """Machine-readable report: the summary record, then one record per
    instance, each kind under a header line of its column names."""
    lines = []
    for kind, names, records in (("summary", SUMMARY_FIELDS, [report]),
                                 ("instance", INSTANCE_FIELDS, report.instances)):
        lines.append(",".join(["record", *names]))
        lines += [f"{kind},{dataio.format_record(r, names)}" for r in records]
    return "\n".join(lines) + "\n"


def read_report_csv(path) -> EvalReport:
    """Parse a :func:`report_csv` file back into an :class:`EvalReport`
    whose summary is recomputed from the instance records.  Only the current
    format reads: its header lines name exactly ``SUMMARY_FIELDS`` and
    ``INSTANCE_FIELDS``, and each summary cell is the recomputed value as
    :func:`dataio.format_cell` writes it."""
    lines = read_text(path).splitlines()
    heads = [",".join(["record", *names]) for names in (SUMMARY_FIELDS, INSTANCE_FIELDS)]
    kind, *summary = (lines[1] if len(lines) > 2 else "").split(",")
    if lines[:3:2] != heads or kind != "summary" or len(summary) != len(SUMMARY_FIELDS):
        raise DataError(f"{path}: not an eval report of format {REPORT_FORMAT_VERSION}")
    instances = []
    for lineno, line in enumerate(lines[3:], start=4):
        kind, *cells = line.split(",")
        try:
            if kind != "instance":
                raise ValueError(f"record kind {kind!r}")
            instances.append(dataio.parse_record(InstanceResult, cells))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed instance record ({exc})") from None
    report = _summarize(summary[0], instances)
    for name, cell in zip(SUMMARY_FIELDS, summary):
        value = dataio.format_cell(getattr(report, name))
        if cell != value:
            raise DataError(
                f"{path}: summary {name!r} is {cell!r}, the instance records give {value}"
            )
    return report
