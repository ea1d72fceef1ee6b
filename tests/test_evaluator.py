import copy
import dataclasses
import re

import numpy as np
import pytest

from deepsolve import OpfPredictor, build_dataset, evaluate, init_model
from deepsolve.dataio import DataError
from deepsolve.evaluator import (
    EvalError,
    InstanceResult,
    _summarize,
    dump_comparison,
    read_report_csv,
    report_csv,
    report_text,
)


@pytest.fixture(scope="module")
def sets(case30):
    return build_dataset(case30, 24, 8, seed=61)


@pytest.fixture(scope="module")
def trained(case30, sets):
    train_ds, _ = sets
    est = OpfPredictor(case=case30, hidden_layer_sizes=(24, 12), epochs=25, w2=0.0, seed=3)
    return est.fit(train_ds)


@pytest.fixture(scope="module")
def untrained(case30, sets):
    """A fitted pipeline with a random network, output layer included (a
    fit would start it as the label-mean predictor)."""
    train_ds, _ = sets
    est = OpfPredictor(case30, hidden_layer_sizes=(24, 12), epochs=0, seed=0).fit(train_ds)
    est.model_ = init_model(est.model_.layer_sizes, seed=0)
    return est


def test_untrained_model_report_is_well_formed(case30, sets, untrained):
    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    assert report.n_instances == len(test_ds)
    assert 0.0 <= report.feasibility_rate <= 100.0
    assert report.feasibility_rate < 100.0  # a random network cannot be perfect here
    text = report_text(report)
    assert "feasibility" in text
    csv = report_csv(report)
    assert csv.startswith("record,")
    assert csv.count("instance,") == len(test_ds)


def test_feasibility_label_agreement(case30, sets, trained):
    """The report's feasible flag must equal the shared checker's verdict."""
    from deepsolve import check_feasibility

    _, test_ds = sets
    report = evaluate(trained, test_ds, timed=False)
    for inst, sample in zip(report.instances, test_ds.samples):
        _, sol = trained.solve(sample.loads)
        expected = sol.converged and check_feasibility(case30, sol, 1e-6).feasible
        assert inst.feasible == expected


def test_timed_report_has_speedup(case30, sets, trained):
    _, test_ds = sets
    report = evaluate(trained, test_ds, timed=True)
    assert np.isfinite(report.speedup)
    assert report.speedup > 1.0
    assert report.avg_time_model < report.avg_time_ref


@pytest.mark.parametrize(
    "timed, recover", [(True, False), (False, False), (True, True)],
    ids=["True", "False", "recovered"],
)
def test_evaluate_runs_the_model_path_once_per_instance(sets, trained, untrained, timed, recover):
    """n solves, plus one discarded warm-up when timed; the timed solves are
    the scored ones, and recovery starts from them."""
    _, test_ds = sets
    model = untrained if recover else trained
    counted, calls = copy.copy(model), []
    counted.solve = lambda loads: calls.append(1) or model.solve(loads)
    report = evaluate(counted, test_ds, timed=timed, recover=recover)
    assert len(calls) == len(test_ds) + timed
    assert bool(report.n_recovered) == recover
    again = evaluate(model, test_ds, timed=False, recover=recover)
    assert report.feasibility_rate == again.feasibility_rate
    assert [i.cost_model for i in report.instances] == [i.cost_model for i in again.instances]


def test_recover_noop_when_all_feasible(case30, sets, trained):
    _, test_ds = sets
    report = evaluate(trained, test_ds, timed=False)
    first = evaluate(trained, test_ds, timed=False, recover=True)
    assert first.feasibility_rate == 100.0
    assert first.n_recovered == sum(not i.feasible for i in report.instances)
    # recovery leaves the instances that were feasible as they were
    for before, after in zip(report.instances, first.instances):
        if before.feasible:
            assert after.recovered is None and after.cost_model == before.cost_model


def test_recovery_fixes_untrained_predictions(case30, sets, untrained):
    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    assert report.feasibility_rate < 100.0
    after = evaluate(untrained, test_ds, timed=False, recover=True)
    assert after.feasibility_rate == 100.0
    assert after.n_recovery_failed == 0
    recovered = [i for i in after.instances if i.recovered]
    assert recovered
    assert all(i.recovery_iterations > 0 for i in recovered)
    assert all(np.isfinite(i.cost_model) for i in after.instances)


def test_identifier_mismatch_rejected(case30, sets, trained):
    _, test_ds = sets
    bad = copy.copy(trained)
    bad.case = dataclasses.replace(case30, name="other")
    with pytest.raises(EvalError):
        evaluate(bad, test_ds, timed=False)


def test_dump_comparison_format(case30, sets, trained):
    _, test_ds = sets
    text = dump_comparison(trained, test_ds, instance=1)
    lines = text.strip().splitlines()
    assert lines[0] == "variable,predicted,reference"
    # d rows plus the slack active power appended from the reconstruction
    assert len(lines) == 1 + test_ds.spec.dimension + 1
    assert lines[-1].startswith("pg:1,")


def test_nan_prediction_counts_as_not_converged_and_recovers_cold(sets, trained):
    """A model whose output is NaN does not abort eval: each prediction
    fails to decode, counts as a non-converged instance and is recovered by
    a cold solve, and the comparison dump reads nan for it."""
    _, test_ds = sets
    nan_model = copy.deepcopy(trained)
    nan_model.model_.biases[-1][2] = np.nan
    assert nan_model.solve(test_ds.samples[0].loads) == (None, None)
    report = evaluate(nan_model, test_ds, timed=False, recover=True)
    for inst in report.instances:
        assert not inst.pf_converged and inst.recovered
        assert inst.recovery_iterations == inst.ref_iterations > 0
    assert report.n_recovered == len(test_ds) and report.feasibility_rate == 100.0
    lines = dump_comparison(nan_model, test_ds, instance=1).strip().splitlines()
    assert len(lines) == 1 + test_ds.spec.dimension + 1
    assert all(line.split(",")[1] == "nan" for line in lines[1:])


def test_checkpoint_bundle_round_trip(tmp_path, case30, sets, trained):
    _, test_ds = sets
    path = tmp_path / "m.ckpt"
    trained.save(path)
    again = OpfPredictor.load(path, case30)
    assert again.case.name == case30.name
    assert np.array_equal(again.pf_init_.v_ang, trained.pf_init_.v_ang)
    assert np.array_equal(again.pf_init_.v_mag, trained.pf_init_.v_mag)
    a = evaluate(trained, test_ds, timed=False)
    b = evaluate(again, test_ds, timed=False)
    assert a.feasibility_rate == b.feasibility_rate
    assert [i.cost_model for i in a.instances] == [i.cost_model for i in b.instances]


def test_negative_cost_gap_not_clamped(case30):
    """A model beating the reference on cost must report a negative gap."""
    instances = [
        InstanceResult(index=0, pf_converged=True, feasible=True, n_violations=0,
                       cost_model=780.0, cost_ref=800.0),
        InstanceResult(index=1, pf_converged=True, feasible=True, n_violations=0,
                       cost_model=790.0, cost_ref=800.0),
    ]
    report = _summarize("case30", instances)
    assert report.cost_diff_pct < 0
    assert report.avg_cost_model == pytest.approx(785.0)


def _assert_same(a, b):
    """Dataclass records equal in every field, nan equal to nan."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "instances":
            assert len(x) == len(y)
            for p, q in zip(x, y):
                _assert_same(p, q)
        elif isinstance(x, float) and np.isnan(x):
            assert isinstance(y, float) and np.isnan(y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("timed", [True, False], ids=["timed_recovered", "untimed"])
def test_report_csv_round_trips(tmp_path, sets, untrained, trained, timed):
    """The instance records carry every number at full precision, so the
    summary recomputed on reading equals the written one exactly."""
    _, test_ds = sets
    if timed:
        report = evaluate(untrained, test_ds, timed=True, recover=True)
        assert report.n_recovered and np.isfinite(report.std_time_model)
        assert np.isfinite(report.avg_recovery_time)
    else:
        report = evaluate(trained, test_ds, timed=False)
        assert all(i.recovered is None and np.isnan(i.time_ref) for i in report.instances)
    path = tmp_path / "report.csv"
    path.write_text(report_csv(report))
    again = read_report_csv(path)
    _assert_same(again, report)
    assert report_text(again) == report_text(report)
    assert report_csv(again) == path.read_text()


# a report as an earlier version wrote it: costs at 10 digits, times at 6,
# and no format_version or recovery_time column
OLD_REPORT = """\
record,case_id,n_instances,feasibility_rate,avg_cost_model,avg_cost_ref,cost_diff_pct,\
avg_time_model,avg_time_ref,speedup,n_recovered,avg_warm_iterations,avg_cold_iterations
summary,case30,2,100,801.5,800.25,0.156201,0.0015,0.0075,5,1,12,9
record,index,pf_converged,feasible,n_violations,cost_model,cost_ref,time_model,time_ref,\
ref_iterations,recovered,recovery_iterations
instance,0,1,1,0,800.0000001,800.5,0.001,0.008,9,,0
instance,1,1,1,0,803,800,0.002,0.007,9,1,12
"""


def test_report_of_an_earlier_format_is_rejected(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text(OLD_REPORT)
    with pytest.raises(DataError) as err:
        read_report_csv(path)
    assert str(err.value) == f"{path}: not an eval report of format 2"


# the same two instances as report_csv writes them, the second recovered warm
REPORT = report_csv(_summarize("case30", [
    InstanceResult(0, True, True, 0, 800.0000001, 800.5, 0.001, 0.008, 9),
    InstanceResult(1, True, True, 0, 803.0, 800.0, 0.002, 0.007, 9, True, 12, "warm", 0.0005),
]))


def _with_cell(text, lineno, column, value):
    """Report ``text`` with the cell under ``column`` on line ``lineno`` set to ``value``."""
    lines = text.splitlines()
    head = lines[0 if lineno == 2 else 2].split(",")
    cells = lines[lineno - 1].split(",")
    cells[head.index(column)] = value
    lines[lineno - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: _with_cell(text, 4, "recovery_iterations", ""),
         ":4: malformed instance record (invalid literal for int()"),
        (lambda text: _with_cell(text, 5, "recovered", "2"),
         ":5: malformed instance record ('2' is not 0 or 1)"),
        (lambda text: text.rsplit(",", 1)[0] + "\n",
         ":5: malformed instance record (12 cells under 13 columns)"),
        (lambda text: text.rsplit("instance,", 1)[0],
         ": summary 'n_instances' is '2', the instance records give 1"),
        (lambda text: "summary,".join(text.rsplit("instance,", 1)),
         ":5: malformed instance record (record kind 'summary')"),
        (lambda text: text.replace(",cost_model,cost_ref,", ",cost_ref,cost_model,"),
         ": not an eval report of format 2"),
        (lambda text: _with_cell(text, 2, "format_version", "1"),
         ": summary 'format_version' is '1', the instance records give 2"),
    ],
    ids=["empty_int", "bool_not_0_or_1", "short_record", "missing_record",
         "summary_kind_instance", "swapped_instance_columns", "format_version_1"],
)
def test_malformed_report_record_rejected(tmp_path, edit, message):
    path = tmp_path / "bad.csv"
    path.write_text(REPORT)
    read_report_csv(path)
    path.write_text(edit(REPORT))
    with pytest.raises(DataError) as err:
        read_report_csv(path)
    assert str(err.value).startswith(f"{path}{message}")


def test_failed_warm_recovery_falls_back_to_a_cold_solve(monkeypatch, sets, untrained):
    """A warm attempt that fails is followed by a cold solve in the same
    recovery, which also gives the untimed report its reference count."""
    from deepsolve import evaluator

    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    infeasible = [i.index for i in report.instances if not i.feasible]
    assert infeasible
    real_recover, real_solve_opf, cold_calls = evaluator.recover, evaluator.solve_opf, []

    def failing_recover(*args, **kwargs):
        return dataclasses.replace(real_recover(*args, **kwargs), converged=False, iterations=150)

    def counted_solve_opf(*args, **kwargs):
        cold_calls.append(1)
        return real_solve_opf(*args, **kwargs)

    monkeypatch.setattr(evaluator, "recover", failing_recover)
    monkeypatch.setattr(evaluator, "solve_opf", counted_solve_opf)
    after = evaluate(untrained, test_ds, timed=False, recover=True)
    assert len(cold_calls) == len(infeasible)  # one cold solve serves both uses
    assert after.n_recovered == len(infeasible) and after.n_recovery_failed == 0
    for i in (after.instances[k] for k in infeasible):
        assert i.feasible and i.recovered
        assert i.recovery_iterations == 150 + i.ref_iterations
        assert i.cost_model == pytest.approx(i.cost_ref, rel=1e-9)


def test_fallback_instance_is_left_out_of_the_warm_average(tmp_path, monkeypatch, sets, untrained):
    """Each recovery records its path, and the warm iteration average counts
    only warm attempts that converged: a failed attempt plus its cold solve
    is a fallback, shown as its own row."""
    from deepsolve import evaluator

    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    infeasible = [i.index for i in report.instances if not i.feasible]
    assert len(infeasible) >= 2
    real_recover, calls = evaluator.recover, []

    def first_attempt_fails(*args, **kwargs):
        calls.append(1)
        result = real_recover(*args, **kwargs)
        if len(calls) > 1:
            return result
        return dataclasses.replace(result, converged=False, iterations=150)

    monkeypatch.setattr(evaluator, "recover", first_attempt_fails)
    after = evaluate(untrained, test_ds, timed=False, recover=True)
    fallback = after.instances[infeasible[0]]
    assert fallback.recovery_path == "fallback" and fallback.recovered
    assert fallback.recovery_iterations == 150 + fallback.ref_iterations
    warm = [i for i in after.instances if i.recovery_path == "warm"]
    assert warm and all(i.recovered for i in warm)
    assert all(i.recovery_path is None for i in after.instances if i.recovered is None)
    assert after.n_fallback == sum(i.recovery_path == "fallback" for i in after.instances)
    assert after.avg_warm_iterations == np.mean([i.recovery_iterations for i in warm])
    assert after.avg_cold_iterations == np.mean([i.ref_iterations for i in warm])
    assert re.search(rf"^fallbacks to a cold solve\s+{after.n_fallback}$", report_text(after), re.M)
    path = tmp_path / "fallback.csv"
    path.write_text(report_csv(after))
    again = read_report_csv(path)
    assert [i.recovery_path for i in again.instances] == [i.recovery_path for i in after.instances]
    assert (again.n_fallback, again.avg_warm_iterations, again.avg_cold_iterations) == (
        after.n_fallback, after.avg_warm_iterations, after.avg_cold_iterations
    )
    assert "n_fallback" in path.read_text().splitlines()[0].split(",")


def test_recovery_with_no_prediction_takes_the_cold_path(sets, untrained):
    from deepsolve.evaluator import recover_infeasible

    _, test_ds = sets
    sample = test_ds.samples[0]
    inst = InstanceResult(0, False, False, 0, np.nan, sample.objective_true)
    recover_infeasible(untrained, inst, sample.loads, None, None)
    assert inst.recovery_path == "cold" and inst.recovered
    assert inst.recovery_iterations == inst.ref_iterations > 0
