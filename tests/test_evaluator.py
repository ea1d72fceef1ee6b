import copy
import dataclasses

import numpy as np
import pytest

from deepsolve import OpfPredictor, build_dataset, evaluate
from deepsolve.evaluator import (
    EvalError,
    dump_comparison,
    recover_infeasible,
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
    train_ds, _ = sets
    return OpfPredictor(case30, hidden_layer_sizes=(24, 12), epochs=0, seed=0).fit(train_ds)


def test_untrained_model_report_is_well_formed(case30, sets, untrained):
    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    assert report.n_instances == len(test_ds)
    assert 0.0 <= report.feasibility_rate <= 100.0
    assert report.feasibility_rate < 100.0  # random init cannot be perfect here
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


@pytest.mark.parametrize("timed", [True, False])
def test_evaluate_runs_the_model_path_once_per_instance(sets, trained, timed):
    """n solves, plus one discarded warm-up when timed; the timed solves are
    the scored ones."""
    _, test_ds = sets
    counted, calls = copy.copy(trained), []
    counted.solve = lambda loads: calls.append(1) or trained.solve(loads)
    report = evaluate(counted, test_ds, timed=timed)
    assert len(calls) == len(test_ds) + timed
    assert report.feasibility_rate == evaluate(trained, test_ds, timed=False).feasibility_rate


def test_recover_noop_when_all_feasible(case30, sets, trained):
    _, test_ds = sets
    report = evaluate(trained, test_ds, timed=False)
    first = recover_infeasible(report, trained, test_ds)
    assert first.feasibility_rate == 100.0
    fixed_count = first.n_recovered
    # a second pass finds nothing infeasible and leaves the report unchanged
    again = recover_infeasible(first, trained, test_ds)
    assert again.n_recovered == fixed_count
    assert [i.feasible for i in again.instances] == [i.feasible for i in first.instances]


def test_recovery_fixes_untrained_predictions(case30, sets, untrained):
    _, test_ds = sets
    report = evaluate(untrained, test_ds, timed=False)
    assert report.feasibility_rate < 100.0
    after = recover_infeasible(report, untrained, test_ds)
    assert after.feasibility_rate == 100.0
    assert after.n_recovery_failed == 0
    recovered = [i for i in after.instances if i.recovered]
    assert recovered
    assert all(i.recovery_iterations > 0 for i in recovered)
    assert all(np.isfinite(i.cost_model) for i in after.instances)


def test_identifier_mismatch_rejected(case30, sets, trained):
    _, test_ds = sets
    bad = copy.copy(trained).set_params(case=dataclasses.replace(case30, name="other"))
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


def test_checkpoint_bundle_round_trip(tmp_path, case30, sets, trained):
    _, test_ds = sets
    path = tmp_path / "m.ckpt"
    trained.save(path)
    again = OpfPredictor.load(path, case30)
    assert again.case.name == case30.name
    a = evaluate(trained, test_ds, timed=False)
    b = evaluate(again, test_ds, timed=False)
    assert a.feasibility_rate == b.feasibility_rate
    assert [i.cost_model for i in a.instances] == [i.cost_model for i in b.instances]


def test_negative_cost_gap_not_clamped(case30):
    """A model beating the reference on cost must report a negative gap."""
    from deepsolve.evaluator import InstanceResult, _summarize

    instances = [
        InstanceResult(index=0, pf_converged=True, feasible=True, n_violations=0,
                       cost_model=780.0, cost_ref=800.0),
        InstanceResult(index=1, pf_converged=True, feasible=True, n_violations=0,
                       cost_model=790.0, cost_ref=800.0),
    ]
    report = _summarize("case30", instances)
    assert report.cost_diff_pct < 0
    assert report.avg_cost_model == pytest.approx(785.0)
