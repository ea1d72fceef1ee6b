import json
import re

import numpy as np
import pytest

from deepsolve import OpfPredictor, cli, dataio, evaluator, load_case
from deepsolve.cli import build_parser, main
from deepsolve.dataio import DataError
from deepsolve.trainer import TrainConfig

from conftest import TWO_BUS_MP, kind_swap_misses


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_dir(workdir):
    out = workdir / "data"
    rc = main(
        [
            "gen-data",
            "--case",
            "case30",
            "--train-count",
            "12",
            "--test-count",
            "4",
            "--seed",
            "7",
            "--out-dir",
            str(out),
            "--workers",
            "1",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_path(workdir, data_dir):
    out = workdir / "model.ckpt"
    rc = main(
        [
            "train",
            "--case",
            "case30",
            "--data-dir",
            str(data_dir),
            "--hidden",
            "16/8",
            "--epochs",
            "3",
            "--w2",
            "0.1",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_gen_data_outputs(data_dir):
    assert (data_dir / "train.ds").exists()
    assert (data_dir / "test.ds").exists()
    manifest = json.loads((data_dir / "manifest-gen_data.json").read_text())
    assert manifest["subcommand"] == "gen-data"
    assert manifest["options"]["seed"] == 7
    assert manifest["version"]


def test_gen_data_deterministic(workdir, data_dir):
    other = workdir / "data2"
    rc = main(
        ["gen-data", "--case", "case30", "--train-count", "12", "--test-count", "4",
         "--seed", "7", "--out-dir", str(other), "--workers", "1"]
    )
    assert rc == 0
    assert (other / "train.ds").read_bytes() == (data_dir / "train.ds").read_bytes()
    assert (other / "test.ds").read_bytes() == (data_dir / "test.ds").read_bytes()


def test_train_outputs(model_path):
    assert model_path.exists()
    metrics = model_path.with_suffix(model_path.suffix + ".metrics.csv")
    lines = metrics.read_text().strip().splitlines()
    assert lines[0] == "epoch,pred,pen,total,wall_time,pf_diverged"
    assert len(lines) == 4  # header + 3 epochs


def test_train_without_penalty_ignores_the_zero_order_draws(workdir, data_dir):
    """--w2 0 draws no direction table, so the number of draws cannot touch
    the shuffle: the checkpoints are byte-identical."""
    ckpts = []
    for draws in ("1", "3"):
        out = workdir / f"nopen-{draws}.ckpt"
        assert main(["train", "--case", "case30", "--data-dir", str(data_dir), "--hidden",
                     "16/8", "--epochs", "3", "--batch", "5", "--w2", "0", "--zo-draws", draws,
                     "--seed", "2", "--out", str(out)]) == 0
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]


def test_metrics_csv_records_pf_diverged(model_path):
    metrics = model_path.with_suffix(model_path.suffix + ".metrics.csv")
    header, *rows = metrics.read_text().strip().splitlines()
    assert header.split(",")[-1] == "pf_diverged"
    for epoch, row in enumerate(rows):
        cells = row.split(",")
        assert len(cells) == 6 and cells[0] == str(epoch)
        assert re.fullmatch(r"\d+", cells[-1])  # a non-negative integer count


def test_eval_and_report(workdir, data_dir, model_path, capsys):
    report = workdir / "report.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
         str(data_dir), "--report", str(report), "--no-timing",
         "--dump-comparison", str(workdir / "cmp.csv"), "--recover"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasibility rate" in out
    assert report.exists()
    assert (workdir / "cmp.csv").read_text().startswith("variable,predicted,reference")

    rc = main(["report", "--input", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasibility rate" in out

    # the same report with the case_id column cut from its summary record
    lines = report.read_text().splitlines()
    col = lines[0].split(",").index("case_id")
    summary = [ln.split(",") for ln in lines[:2]]
    no_id = workdir / "report-no-case-id.csv"
    no_id.write_text("\n".join([*(",".join(f[:col] + f[col + 1 :]) for f in summary),
                                *lines[2:]]) + "\n")
    assert main(["report", "--input", str(no_id)]) == 1
    assert capsys.readouterr().err == f"error: {no_id}: not an eval report of format 2\n"


@pytest.mark.parametrize("edit", ["x", "nan", "changed"])
def test_report_with_an_edited_summary_cell_exits_1(workdir, data_dir, model_path, capsys, edit):
    """Every summary cell is checked against the summary the instance
    records give, so an edited one cannot render."""
    report = workdir / f"report-summary-{edit}.csv"
    rc = main(["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
               str(data_dir), "--report", str(report), "--no-timing", "--recover"])
    assert rc == 0
    capsys.readouterr()
    head, summary, *rest = report.read_text().splitlines()
    cells = summary.split(",")
    col = head.split(",").index("avg_cost_ref")
    cell = cells[col]
    assert np.isfinite(float(cell))
    cells[col] = repr(float(cell) * (1 + 1e-12)) if edit == "changed" else edit
    report.write_text("\n".join([head, ",".join(cells), *rest]) + "\n")
    assert main(["report", "--input", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {report}: summary 'avg_cost_ref' is {cells[col]!r}, "
        f"the instance records give {cell}\n"
    )


def _eval_then_report(workdir, data_dir, model_path, capsys, name, flags):
    """What ``eval`` with ``flags`` printed, then what ``report`` printed of
    the report file it wrote, which is returned as well."""
    report = workdir / name
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
         str(data_dir), "--report", str(report), *flags]
    )
    assert rc == 0
    eval_out = capsys.readouterr().out
    assert main(["report", "--input", str(report)]) == 0
    return eval_out, capsys.readouterr().out, report


@pytest.mark.parametrize("timing", [["--no-timing"], []], ids=["no_timing", "timed"])
def test_report_renders_the_eval_table_with_recovery_rows(
    workdir, data_dir, model_path, capsys, timing
):
    eval_out, out, report = _eval_then_report(
        workdir, data_dir, model_path, capsys, f"report-recover{len(timing)}.csv",
        [*timing, "--recover"],
    )
    assert "recovered instances" in out
    assert "warm vs cold iterations" in out
    assert re.search(r"^avg time \(model \+ recovery\)\s", out, re.M)
    # the same table eval printed, recovery time and time spreads included
    assert out == eval_out[eval_out.index("evaluation: case30"):]
    assert re.search(r"^avg recovery time\s+\d+\.\d\d ms$", out, re.M)
    # a report written without the recovery_time column is of an earlier format
    lines = report.read_text().splitlines()
    assert lines[2].endswith(",recovery_time")
    old = workdir / f"report-no-recovery-time{len(timing)}.csv"
    old.write_text("\n".join([*lines[:2], *(ln.rsplit(",", 1)[0] for ln in lines[2:])]) + "\n")
    assert main(["report", "--input", str(old)]) == 1
    assert capsys.readouterr().err == f"error: {old}: not an eval report of format 2\n"


@pytest.mark.parametrize("timing", [["--no-timing"], []], ids=["no_timing", "timed"])
def test_report_prints_the_table_eval_printed(workdir, data_dir, model_path, capsys, timing):
    eval_out, out, _ = _eval_then_report(
        workdir, data_dir, model_path, capsys, f"report-plain{len(timing)}.csv", timing
    )
    assert out == eval_out[eval_out.index("evaluation: case30"):]
    assert (" +- " in out) == (not timing)  # time spreads only from a timed run


def test_report_rejects_a_file_that_is_not_a_report(workdir, data_dir, capsys):
    assert main(["report", "--input", str(data_dir / "manifest.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_singular_instance_counts_as_not_converged(
    workdir, data_dir, model_path, monkeypatch, capsys
):
    import numpy as np

    from deepsolve import estimator
    from deepsolve.dataio import decode, load_dataset
    from deepsolve.powerflow import SingularJacobianError

    test_ds = load_dataset(data_dir / "test.ds")
    target = test_ds.samples[2]
    reference_x = decode(test_ds.spec, target.s_true)
    real_solve_pf = estimator.solve_pf

    def singular_on_target(case, adm, indep, p_load, q_load, **kw):
        # only the model's prediction for instance 2 fails, not its reference
        predicted = not np.array_equal(indep.to_vector(), reference_x)
        if predicted and np.array_equal(p_load, target.loads[: case.n_bus]):
            raise SingularJacobianError("singular Jacobian at iteration 1")
        return real_solve_pf(case, adm, indep, p_load, q_load, **kw)

    monkeypatch.setattr(estimator, "solve_pf", singular_on_target)
    report = workdir / "report_singular.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
         str(data_dir), "--report", str(report), "--recover",
         "--dump-comparison", str(workdir / "cmp_singular.csv"), "--instance", "2"]
    )
    assert rc == 0
    capsys.readouterr()
    rows = [r.split(",") for r in report.read_text().splitlines() if r.startswith("instance,")]
    assert len(rows) == 4
    assert [r[1] for r in rows if r[2] == "0"] == ["2"]
    assert rows[2][10] == "1"  # recovered by a cold solve
    slack_row = (workdir / "cmp_singular.csv").read_text().splitlines()[-1]
    assert slack_row.split(",")[1] == "nan"


@pytest.mark.parametrize("instance", ["99", "-1"])
def test_out_of_range_instance_rejected_before_eval(workdir, data_dir, model_path, capsys, instance):
    report = workdir / f"report_instance{instance}.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
         str(data_dir), "--report", str(report), "--no-timing",
         "--dump-comparison", str(workdir / "cmp_bad.csv"), "--instance", instance]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--instance {instance}" in err
    assert not report.exists()


def test_dump_comparison_on_an_empty_test_split_exits_1(workdir, data_dir, model_path, capsys):
    empty = workdir / "empty-test"
    empty.mkdir()
    header = json.loads((data_dir / "test.ds").read_text().splitlines()[0])
    (empty / "test.ds").write_text(json.dumps({**header, "count": 0}) + "\n")
    report = workdir / "report-empty.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir", str(empty),
         "--report", str(report), "--no-timing", "--dump-comparison", str(workdir / "cmp0.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --dump-comparison: the test split has no instances\n"
    assert not report.exists()


def test_solve_pf_subcommand(workdir, capsys):
    out = workdir / "pf.json"
    rc = main(["solve-pf", "--case", "case30", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert len(doc["v_mag"]) == 30


def test_solve_pf_with_loads_file(workdir, case30, capsys):
    loads_file = workdir / "loads.csv"
    rows = ["bus,p_pu,q_pu"]
    for b in case30.buses:
        rows.append(f"{b.id},{b.p_load * 1.05},{b.q_load * 1.05}")
    loads_file.write_text("\n".join(rows) + "\n")
    rc = main(["solve-pf", "--case", "case30", "--loads", str(loads_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True


def _default_indep_rows(case):
    """`variable,value` rows of the independent values `solve-pf` defaults to."""
    from deepsolve.cli import _default_indep
    from deepsolve.dataio import ScalingSpec

    values = _default_indep(case).to_vector()
    return [f"{e.var_id},{float(v)!r}" for e, v in zip(ScalingSpec.from_case(case).entries, values)]


def test_solve_pf_with_indep_file_matches_the_default(workdir, case30, capsys):
    path = workdir / "indep_default.csv"
    lines = ["variable,value", "# the set-points solve-pf defaults to", "",
             *_default_indep_rows(case30)]
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve-pf", "--case", "case30", "--indep", str(path)]) == 0
    with_file = json.loads(capsys.readouterr().out)
    assert main(["solve-pf", "--case", "case30"]) == 0
    assert with_file == json.loads(capsys.readouterr().out)


def test_solve_pf_indep_file_missing_a_variable_exits_1(workdir, case30, capsys):
    *lines, last = _default_indep_rows(case30)
    path = workdir / "indep_missing.csv"
    path.write_text("\n".join(["variable,value", *lines]) + "\n")
    assert main(["solve-pf", "--case", "case30", "--indep", str(path)]) == 1
    missing = last.split(",")[0]
    assert capsys.readouterr().err == f"error: {path}: missing values for [{missing!r}]\n"


def test_loads_file_rejects_repeated_bus(workdir, case30):
    from deepsolve.cli import read_loads_file
    from deepsolve.dataio import DataError

    loads_file = workdir / "loads_dup.csv"
    loads_file.write_text("bus,p_pu,q_pu\n2,0.1,0.0\n5,0.2,0.1\n2,0.3,0.0\n")
    with pytest.raises(DataError, match=re.escape(f"{loads_file}:4: bus 2 listed twice")):
        read_loads_file(case30, loads_file)


@pytest.mark.parametrize(
    "argv, name, text, message",
    [
        (["solve-pf", "--loads"], "loads_abc.csv", "bus,p_pu,q_pu\nabc,0.1,0.0\n",
         ":2: 'abc,0.1,0.0' is not 'bus_id,p_pu,q_pu'"),
        (["solve-pf", "--indep"], "indep_x.csv", "variable,value\nvm:1,x1.0\n",
         ":2: vm:1='x1.0' is not a number"),
        (["gen-data", "--train-count", "1", "--test-count", "0", "--out-dir", "unused",
          "--range"], None, "0.9-1.1", "--range '0.9-1.1': expected the form lo:hi"),
        (["solve-pf", "--loads"], "loads_nan.csv", "bus,p_pu,q_pu\n2,nan,0.0\n",
         ":2: non-finite value"),
        (["solve-opf", "--loads"], "loads_inf.csv", "bus,p_pu,q_pu\n2,0.1,0.0\n5,0.2,inf\n",
         ":3: non-finite value"),
        (["solve-pf", "--indep"], "indep_nan.csv", "variable,value\nvm:2,nan\n",
         ":2: non-finite value"),
        (["solve-pf", "--loads"], "loads_bus_99.csv", "bus,p_pu,q_pu\n2,0.1,0.0\n99,0.1,0.0\n",
         ":3: unknown bus id 99"),
        (["solve-pf", "--indep"], "indep_dup.csv", "variable,value\nvm:1,1.05\nvm:1,0.95\n",
         ":3: vm:1 listed twice"),
        (["solve-pf", "--indep"], "indep_unknown.csv", "variable,value\nvm:1,1.05\nvm:99,1.0\n",
         ":3: unknown variable 'vm:99'"),
    ],
    ids=["loads_bus_abc", "indep_not_a_number", "range_with_dash", "loads_nan", "loads_inf",
         "indep_nan", "loads_unknown_bus", "indep_duplicate", "indep_unknown_variable"],
)
def test_malformed_input_exits_1_with_location(workdir, capsys, argv, name, text, message):
    value = text
    if name is not None:
        value = workdir / name
        value.write_text(text)
        message = f"{value}{message}"
    assert main([*argv, str(value), "--case", "case30"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-pf", "--case", "case30", "--loads"],
        ["solve-pf", "--case", "case30", "--indep"],
        ["solve-opf", "--case", "case30", "--warm-start"],
        ["solve-pf", "--case", "case30", "--config"],
        ["predict", "--model"],
        ["report", "--input"],
        ["solve-pf", "--case"],
    ],
    ids=["loads", "indep", "warm_start", "config", "checkpoint", "report", "case"],
)
def test_input_that_is_not_utf8_exits_1_naming_the_file(workdir, capsys, argv):
    path = workdir / "binary.bin"
    path.write_bytes(b"\xff\xfe")
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


@pytest.mark.parametrize(
    "argv, after",
    [
        (["solve-pf", "--case", "case30", "--loads"], []),
        (["solve-pf", "--case"], []),
        (["--config"], ["solve-pf", "--case", "case30"]),
        (["predict", "--model"], ["--case", "case30"]),
    ],
    ids=["loads", "case", "config", "model"],
)
def test_directory_as_input_file_exits_1_naming_it(workdir, capsys, argv, after):
    path = workdir / "a_directory"
    path.mkdir(exist_ok=True)
    assert main([*argv, str(path), *after]) == 1
    assert capsys.readouterr().err == f"error: {path}: is a directory\n"


def test_solve_opf_and_warm_start(workdir, capsys):
    out = workdir / "opf.json"
    rc = main(["solve-opf", "--case", "case30", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["objective"] == pytest.approx(802.2, abs=2.0)

    capsys.readouterr()
    rc = main(["solve-opf", "--case", "case30", "--warm-start", str(out)])
    assert rc == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["converged"] is True
    assert warm["iterations"] <= doc["iterations"]


def test_train_on_a_dataset_with_string_numbers_exits_1(workdir, data_dir, capsys):
    """A dataset whose load range is written as strings fails ``train``
    with the file and key, not a parse of the strings."""
    bad = workdir / "string_numbers"
    bad.mkdir()
    for name in ("train.ds", "test.ds"):
        lines = (data_dir / name).read_text().splitlines()
        header = json.loads(lines[0])
        header["load_range"] = [str(v) for v in header["load_range"]]
        (bad / name).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    capsys.readouterr()
    rc = main(["train", "--case", "case30", "--data-dir", str(bad), "--epochs", "1",
               "--out", str(workdir / "never.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad / 'train.ds'}: 'load_range' entry 0 is '0.9', not a number" in err


def test_predict_subcommand(workdir, model_path, capsys):
    rc = main(["predict", "--model", str(model_path), "--case", "case30"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "variable,scaling_factor,physical"
    assert len(lines) == 12  # 11 outputs + header


def test_predict_rejects_other_case(workdir, model_path, capsys):
    rc = main(["predict", "--model", str(model_path), "--case", "case118"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'case30'" in err and "'case118'" in err


def test_every_warm_start_key_of_another_kind_raises(workdir, case30):
    """The warm start reads the four arrays of a solve-opf output; its
    other fields are results, which the warm start does not read."""
    from deepsolve.cli import _read_warm_start

    out = workdir / "opf_for_kinds.json"
    assert main(["solve-opf", "--case", "case30", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    arrays = {key: doc[key] for key in ("v_mag", "v_ang", "p_gen", "q_gen")}

    def load(path, doc):
        path.write_text(json.dumps(doc))
        _read_warm_start(case30, path)

    assert kind_swap_misses(arrays, workdir / "swapped_warm.json", load) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("v_ang"), "warm start has no 'v_ang'"),
        (lambda doc: doc.update(v_mag=[1.0, 1.0], v_ang=[0.0, 0.0]), "'v_mag' has shape (2,)"),
        (lambda doc: doc["v_mag"].__setitem__(3, float("nan")), "'v_mag': non-finite value"),
        (lambda doc: doc.update(v_mag="1" * 30),
         "warm start 'v_mag' is '111111111111...1111111111111', not a list"),
        *(
            (lambda doc, key=key: doc[key].__setitem__(0, "1.0"),
             f"{key!r} entry 0 is '1.0', not a number")
            for key in ("v_mag", "v_ang", "p_gen", "q_gen")
        ),
        (lambda doc: doc["p_gen"].__setitem__(2, False), "'p_gen' entry 2 is False, not a number"),
        (lambda doc: doc["v_ang"].__setitem__(1, 10**400), "'v_ang': malformed number"),
    ],
    ids=["missing_key", "short_arrays", "nan_v_mag", "digit_string_v_mag", "string_v_mag_entry",
         "string_v_ang_entry", "string_p_gen_entry", "string_q_gen_entry", "bool_p_gen_entry",
         "overflowing_int_v_ang_entry"],
)
def test_bad_warm_start_file_raises_data_error(workdir, case30, capsys, edit, message):
    from deepsolve.cli import _read_warm_start
    from deepsolve.dataio import DataError

    good = workdir / "opf_for_warm.json"
    assert main(["solve-opf", "--case", "case30", "--output", str(good)]) == 0
    doc = json.loads(good.read_text())
    edit(doc)
    bad = workdir / "bad_warm.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"{bad}: {message}")):
        _read_warm_start(case30, bad)
    capsys.readouterr()
    assert main(["solve-opf", "--case", "case30", "--warm-start", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "before, after, text, where",
    [
        (["--config"], ["solve-pf", "--case", "case30"], '{"epochs": 2,\n "hidden": "12/6"',
         ":2: config is not valid JSON"),
        (["solve-opf", "--case", "case30", "--warm-start"], [], '{\n "v_mag": [1.0,\n  1.0,',
         ":3: warm start is not valid JSON"),
    ],
    ids=["config", "warm_start"],
)
def test_json_input_cut_mid_document_exits_1_at_file_line(
    workdir, capsys, before, after, text, where
):
    cut = workdir / "cut.json"
    cut.write_text(text)
    assert main([*before, str(cut), *after]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cut}{where} (")


@pytest.mark.parametrize(
    "value", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["long_integer", "deep_nesting"]
)
def test_config_json_loads_cannot_read_exits_1_naming_the_file(workdir, capsys, value):
    """json.loads raises a plain ValueError, not a JSONDecodeError, for an
    integer literal past Python's 4,300-digit conversion limit, and a
    RecursionError for too deep a nesting."""
    big = workdir / "big.json"
    big.write_text('{"epochs": ' + value + "}")
    assert main(["--config", str(big), "report", "--input", "x.csv"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {big}: config is not valid JSON (")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_gen_data_without_a_worker_exits_1(workdir, capsys, workers):
    out = workdir / "data-no-workers"
    rc = main(["gen-data", "--case", "case30", "--train-count", "2", "--test-count", "1",
               "--out-dir", str(out), "--workers", workers])
    assert rc == 1
    assert capsys.readouterr().err == f"error: need at least one worker process, got {workers}\n"
    assert not out.exists()


def test_matpower_case_path_accepted(workdir, tmp_path_factory):
    p = tmp_path_factory.mktemp("cases") / "two.m"
    p.write_text(TWO_BUS_MP)
    rc = main(["solve-opf", "--case", str(p)])
    assert rc == 0


def test_canonical_case_without_base_mva_exits_1(workdir, capsys):
    from importlib import resources

    doc = json.loads((resources.files("deepsolve") / "cases" / "case30.json").read_text())
    del doc["base_mva"]
    path = workdir / "nobase.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-pf", "--case", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "base_mva" in err


def test_matpower_case_with_short_gencost_row_exits_1(workdir, capsys):
    path = workdir / "short_gencost.m"
    path.write_text(TWO_BUS_MP.replace("2 0 0 3 0.01 20 0;", "2 0 0;"))
    assert main(["solve-pf", "--case", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: mpc.gencost row 1: needs 4 columns, got 3\n"
    )


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--nope"])
    assert exc.value.code == 2


def test_domain_error_exits_1(workdir, capsys):
    rc = main(["solve-pf", "--case", str(workdir / "missing.m")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_every_domain_error_class_derives_from_the_root():
    from deepsolve import DeepsolveError
    from deepsolve.dataio import DataError
    from deepsolve.estimator import NotFittedError
    from deepsolve.evaluator import EvalError
    from deepsolve.mlp import MlpError
    from deepsolve.netmodel import CaseError
    from deepsolve.opfref import OpfError
    from deepsolve.powerflow import PowerFlowError
    from deepsolve.trainer import TrainingError

    for cls in (CaseError, PowerFlowError, OpfError, DataError, TrainingError, EvalError,
                MlpError):
        assert issubclass(cls, DeepsolveError), cls
    assert not issubclass(NotFittedError, DeepsolveError)


def test_programming_error_in_a_subcommand_propagates(workdir, monkeypatch):
    """Only domain errors become an ``error:`` line; a bug keeps its traceback."""
    from deepsolve import evaluator

    def broken(path):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(evaluator, "read_report_csv", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["report", "--input", str(workdir / "report.csv")])


def test_truncated_checkpoint_exits_1(workdir, model_path, capsys):
    broken = workdir / "truncated.ckpt"
    broken.write_text("\n".join(model_path.read_text().splitlines()[:-1]) + "\n")
    rc = main(["predict", "--model", str(broken), "--case", "case30"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(broken) in err


def test_checkpoint_with_an_extra_record_exits_1(workdir, data_dir, model_path, capsys):
    """A duplicated parameter record is one record too many, not ignored."""
    lines = model_path.read_text().splitlines()
    broken = workdir / "overlong.ckpt"
    broken.write_text("\n".join([*lines, lines[-1]]) + "\n")
    report = workdir / "report-overlong.csv"
    rc = main(["eval", "--model", str(broken), "--case", "case30", "--data-dir",
               str(data_dir), "--report", str(report), "--no-timing"])
    assert rc == 1 and not report.exists()
    assert capsys.readouterr().err == (
        f"error: {broken}: overlong checkpoint, 6 parameter records expected, found 7\n"
    )


def _with_header(src, dst, edit):
    """``src`` with its JSON header changed by ``edit``, or cut mid-JSON
    when ``edit`` is None, written to ``dst``."""
    lines = src.read_text().splitlines()
    if edit is None:
        head = lines[0][: len(lines[0]) // 2]
    else:
        header = json.loads(lines[0])
        edit(header)
        head = json.dumps(header)
    dst.write_text("\n".join([head, *lines[1:]]) + "\n")
    return dst


def test_predict_without_case_on_an_int_case_id_exits_1(workdir, model_path, capsys):
    broken = _with_header(model_path, workdir / "int-case.ckpt",
                          lambda h: h["meta"].update(case_id=5))
    assert main(["predict", "--model", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {broken}: checkpoint header 'case_id' is 5, not a string\n"


def test_checkpoint_header_missing_key_exits_1(workdir, model_path, capsys):
    broken = _with_header(model_path, workdir / "no_sizes.ckpt", lambda h: h.pop("layer_sizes"))
    rc = main(["predict", "--model", str(broken), "--case", "case30"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(broken) in err and "layer_sizes" in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda h: h["meta"]["normalizer"].pop("std"), "'std'"),
        (lambda h: h["meta"]["scaling_spec"][0].pop("max"), "'max'"),
        (lambda h: h.update(hidden_activation="tanh"), "'tanh'"),
        (None, ":1: checkpoint header is not valid JSON"),
        (lambda h: h["meta"]["normalizer"]["mean"].__setitem__(0, float("nan")),
         "'normalizer' 'mean': non-finite value"),
        (lambda h: h["meta"]["scaling_spec"][1].update(min=float("-inf")),
         "'scaling_spec' entry 1: non-finite value"),
        (lambda h: h["meta"]["pf_init"]["v_ang"].__setitem__(2, float("nan")),
         "'pf_init' 'v_ang': non-finite value"),
        (lambda h: h["meta"]["pf_init"]["v_mag"].__delitem__(slice(3, None)),
         "'pf_init' 'v_mag' has 3 values, expected 30 (one per bus)"),
        (lambda h: h["meta"]["normalizer"]["mean"].__delitem__(slice(5, None)),
         "'normalizer' 'mean' has 5 values, expected 60 (two per bus)"),
        (lambda h: h["meta"]["scaling_spec"].__delitem__(slice(5, None)),
         "'scaling_spec' has size 5, case case30 needs 11"),
        (lambda h: h["meta"]["normalizer"]["std"].__setitem__(3, 0.0),
         "'normalizer' 'std' entry 3 is 0.0, not positive"),
        (lambda h: h.update(layer_sizes="abc"), "'layer_sizes' is 'abc', not a list"),
        (lambda h: h.update(layer_sizes=[60]), "'layer_sizes' is [60], need at least two"),
        (lambda h: h.update(layer_sizes=[60, -8, 11]), "'layer_sizes' is [60, -8, 11], need"),
        (lambda h: h.update(layer_sizes=[60, 8.5, 11]), "'layer_sizes' is [60, 8.5, 11], need"),
        (lambda h: h["meta"].update(case_id=5), "checkpoint header 'case_id' is 5, not a string"),
        (lambda h: h["meta"].update(seed="x"), "checkpoint header 'seed' is 'x', not an integer"),
        (lambda h: h.update(version="x"), "checkpoint header 'version' is 'x', not an integer"),
        (lambda h: h["meta"]["scaling_spec"][0].update(id=5),
         "'scaling_spec' entry 0 'id' is 5, not a string"),
    ],
    ids=["normalizer_without_std", "scaling_entry_without_max", "tanh_hidden_activation",
         "cut_mid_json", "nan_normalizer_mean", "infinite_scaling_min", "nan_pf_init_mean",
         "short_pf_init_mean", "short_normalizer_mean", "short_scaling_spec",
         "zero_normalizer_std", "string_layer_sizes", "one_layer_size",
         "negative_layer_size", "fractional_layer_size", "int_case_id", "string_seed",
         "string_version", "int_scaling_id"],
)
def test_corrupt_checkpoint_header_exits_1(workdir, model_path, capsys, edit, key):
    broken = _with_header(model_path, workdir / "bad-header.ckpt", edit)
    rc = main(["predict", "--model", str(broken), "--case", "case30"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(broken) in err and key in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda h: h.pop("normalizer"), "'normalizer'"),
        (lambda h: h["scaling_spec"][0].pop("max"), "'max'"),
        (None, ":1: dataset header is not valid JSON"),
        (lambda h: h["normalizer"]["std"].__setitem__(4, float("nan")),
         "'normalizer' 'std': non-finite value"),
        (lambda h: h["scaling_spec"][0].update(max=float("inf")),
         "'scaling_spec' entry 0: non-finite value"),
        (lambda h: h["pf_init"]["v_mag"].__setitem__(0, float("nan")),
         "'pf_init' 'v_mag': non-finite value"),
        (lambda h: h["pf_init"]["v_ang"].append(0.0),
         "'pf_init' 'v_ang' has 31 values, expected 30 (one per bus)"),
        (lambda h: h.update(load_range=5), "dataset header 'load_range' is 5, not a list"),
        (lambda h: h["load_range"].__setitem__(1, float("inf")), "'load_range': non-finite value"),
        (lambda h: h["normalizer"]["mean"].__delitem__(slice(5, None)),
         "'normalizer' 'mean' has 5 values, expected 60 (two per bus)"),
        (lambda h: h["normalizer"]["std"].__delitem__(slice(5, None)),
         "'normalizer' 'std' has 5 values, expected 60 (two per bus)"),
        (lambda h: h["normalizer"]["std"].__setitem__(3, -1.0),
         "'normalizer' 'std' entry 3 is -1.0, not positive"),
        (lambda h: h.update(count=str(h["count"])),
         "dataset header 'count' is '12', not an integer"),
        (lambda h: h.update(count=-1), "'count' is -1, not a nonnegative integer"),
        (lambda h: h.update(seed="x"), "dataset header 'seed' is 'x', not an integer"),
        (lambda h: h.update(split=[1]), "dataset header 'split' is [1], not a string"),
        (lambda h: h["normalizer"].update(mean="1" * 60),
         "'normalizer' 'mean' is '111111111111...1111111111111', not a list"),
    ],
    ids=["no_normalizer", "scaling_entry_without_max", "cut_mid_json", "nan_normalizer_std",
         "infinite_scaling_max", "nan_pf_init", "long_pf_init", "scalar_load_range",
         "infinite_load_range", "short_normalizer_mean", "short_normalizer_std",
         "negative_normalizer_std", "string_count", "negative_count", "string_seed",
         "list_split", "digit_string_normalizer_mean"],
)
def test_corrupt_dataset_header_exits_1(workdir, data_dir, capsys, edit, key):
    broken = workdir / "bad-data"
    broken.mkdir(exist_ok=True)
    path = _with_header(data_dir / "train.ds", broken / "train.ds", edit)
    rc = main(["train", "--case", "case30", "--data-dir", str(broken), "--epochs", "1",
               "--out", str(workdir / "unused.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and key in err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--lr", "-1"], "learning rate must be finite and positive, got -1.0"),
        (["--lr", "0"], "learning rate must be finite and positive, got 0.0"),
        (["--lr", "nan"], "learning rate must be finite and positive, got nan"),
        (["--w1", "inf"], "loss weights must be finite and nonnegative, got inf and"),
        (["--delta", "nan"], "smoothing radius must be finite and positive, got nan"),
        (["--hidden", "8/x"], "--hidden '8/x': expected positive layer sizes like 64/32"),
        (["--hidden", "8/0"], "--hidden '8/0': expected positive layer sizes like 64/32"),
    ],
    ids=["negative_lr", "zero_lr", "nan_lr", "infinite_w1", "nan_delta", "hidden_not_int",
         "hidden_zero"],
)
def test_bad_training_option_exits_1(workdir, data_dir, capsys, option, message):
    out = workdir / "unused_option.ckpt"
    rc = main(["train", "--case", "case30", "--data-dir", str(data_dir), "--epochs", "1",
               *option, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("counts", [["-1", "2"], ["2", "-2"]], ids=["train", "test"])
def test_gen_data_negative_count_exits_1(workdir, capsys, counts):
    out = workdir / "data-negative"
    rc = main(["gen-data", "--case", "case30", "--train-count", counts[0],
               "--test-count", counts[1], "--out-dir", str(out), "--workers", "1"])
    assert rc == 1
    assert "sample counts must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_gen_data_non_finite_range_exits_1(workdir, capsys, bound):
    out = workdir / "data-inf-range"
    rc = main(["gen-data", "--case", "case30", "--train-count", "2", "--test-count", "1",
               "--range", f"0.9:{bound}", "--out-dir", str(out), "--workers", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --range '0.9:{bound}': bad load range [0.9, {bound}]; "
        "need finite 0 < lo <= hi\n"
    )
    assert not out.exists()


def test_case_file_with_non_finite_number_exits_1(workdir, capsys):
    from importlib import resources

    doc = json.loads((resources.files("deepsolve") / "cases" / "case30.json").read_text())
    doc["buses"][3]["p_load"] = float("nan")
    path = workdir / "nan_load.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-pf", "--case", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: bus 4: p_load is nan, not a finite number\n"
    )


def test_config_file_precedence(workdir, data_dir):
    cfg = workdir / "defaults.json"
    cfg.write_text(json.dumps({"epochs": 2, "hidden": "12/6", "w2": 0.0}))
    out = workdir / "model_cfg.ckpt"
    rc = main(
        ["--config", str(cfg), "train", "--case", "case30", "--data-dir",
         str(data_dir), "--seed", "1", "--out", str(out), "--epochs", "1"]
    )
    assert rc == 0
    metrics = out.with_suffix(out.suffix + ".metrics.csv")
    lines = metrics.read_text().strip().splitlines()
    assert len(lines) == 2  # explicit --epochs 1 beat the config file's 2
    manifest = json.loads((workdir / "manifest-train.json").read_text())
    assert manifest["options"]["hidden"] == "12/6"  # config default applied


# every TrainConfig field: its train flag, the flag's dest (the --config and
# manifest key) and its type
_TRAIN_FLAGS = {
    "w1": ("--w1", "w1", float),
    "w2": ("--w2", "w2", float),
    "delta": ("--delta", "delta", float),
    "epochs": ("--epochs", "epochs", int),
    "batch_size": ("--batch", "batch", int),
    "learning_rate": ("--lr", "lr", float),
    "seed": ("--seed", "seed", int),
    "zo_draws": ("--zo-draws", "zo_draws", int),
}


def test_train_flags_are_the_train_config_fields():
    (subparsers,) = build_parser()._subparsers._group_actions
    actions = {a.option_strings[0]: a for a in subparsers.choices["train"]._actions}
    defaults = TrainConfig()
    assert set(_TRAIN_FLAGS) == set(TrainConfig.__dataclass_fields__)
    for name, (flag, dest, kind) in _TRAIN_FLAGS.items():
        action = actions[flag]
        assert (action.dest, action.type) == (dest, kind)
        assert action.default == getattr(defaults, name) and type(action.default) is kind
    assert actions["--zo-draws"].help == "two-point estimates averaged per sample"


def test_config_file_train_keys_reach_the_train_config(workdir, data_dir, monkeypatch):
    seen = []

    class Recording(cli.OpfPredictor):
        def fit(self, dataset):
            seen.append(self.config)
            return super().fit(dataset)

    monkeypatch.setattr(cli, "OpfPredictor", Recording)
    cfg = workdir / "train_keys.json"
    cfg.write_text(json.dumps({"batch": 16, "lr": 0.002, "zo_draws": 2}))
    rc = main(["--config", str(cfg), "train", "--case", "case30", "--data-dir", str(data_dir),
               "--hidden", "8", "--epochs", "1", "--w2", "0.1", "--seed", "1",
               "--out", str(workdir / "model_keys.ckpt")])
    assert rc == 0
    assert seen == [TrainConfig(w2=0.1, epochs=1, batch_size=16, learning_rate=0.002, seed=1,
                                zo_draws=2)]
    options = json.loads((workdir / "manifest-train.json").read_text())["options"]
    assert (options["batch"], options["lr"], options["zo_draws"]) == (16, 0.002, 2)


def test_config_file_values_take_their_options_types(workdir, data_dir):
    cfg = workdir / "typed.json"
    cfg.write_text(json.dumps({"epochs": 2, "hidden": 16, "w2": 0, "no_timing": True}))
    out = workdir / "model_typed.ckpt"
    rc = main(["--config", str(cfg), "train", "--case", "case30", "--data-dir",
               str(data_dir), "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.with_suffix(out.suffix + ".metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # the config file's 2 epochs
    options = json.loads((workdir / "manifest-train.json").read_text())["options"]
    assert (options["epochs"], options["hidden"], options["w2"]) == (2, "16", 0.0)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"epochs": 2.5}, "'epochs': 2.5 is not a valid int value"),
        ({"w1": "heavy"}, "'w1': \"heavy\" is not a valid float value"),
        ({"zo-draws": True}, "'zo-draws': expected a string or number, got true"),
        ({"hidden": [16, 8]}, "'hidden': expected a string or number, got [16, 8]"),
        ({"recover": "yes"}, "'recover': expected true or false, got \"yes\""),
        ({"no_timing": 1}, "'no_timing': expected true or false, got 1"),
    ],
    ids=["float_epochs", "string_w1", "bool_zo_draws", "list_hidden", "string_recover",
         "int_no_timing"],
)
def test_config_file_value_of_wrong_type_exits_1(workdir, data_dir, capsys, doc, message):
    cfg = workdir / "badtype.json"
    cfg.write_text(json.dumps(doc))
    out = workdir / "unused_badtype.ckpt"
    rc = main(["--config", str(cfg), "train", "--case", "case30", "--data-dir",
               str(data_dir), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


def test_config_file_key_that_sets_nothing_exits_1(workdir, data_dir, capsys):
    cfg = workdir / "typo.json"
    cfg.write_text(json.dumps({"epochs": 1, "epoch": 1, "hiden": "4/4"}))
    rc = main(["--config", str(cfg), "train", "--case", "case30", "--data-dir",
               str(data_dir), "--out", str(workdir / "unused_cfg.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: 'epoch' is not an option of any subcommand\n"
    )
    assert not (workdir / "unused_cfg.ckpt").exists()


def _truncated_checkpoint(path, data_dir, model_path):
    path.write_text("\n".join(model_path.read_text().splitlines()[:-1]) + "\n")


def _report_with_an_edited_summary_cell(path, data_dir, model_path):
    assert main(["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
                 str(data_dir), "--report", str(path), "--no-timing"]) == 0
    head, summary, *rest = path.read_text().splitlines()
    cells = summary.split(",")
    cells[head.split(",").index("feasibility_rate")] = "101"
    path.write_text("\n".join([head, ",".join(cells), *rest]) + "\n")


def _read_config(path):
    cli._apply_config_file(build_parser(), ["--config", str(path)])


@pytest.mark.parametrize(
    "write, read, message",
    [
        (lambda p, data, model: _with_header(data / "test.ds", p, lambda h: h.pop("count")),
         dataio.load_dataset, "dataset header has no 'count'"),
        (lambda p, data, model: _with_header(model, p, lambda h: h["meta"].pop("normalizer")),
         OpfPredictor.load, "checkpoint header has no 'normalizer'"),
        (lambda p, data, model: _with_header(model, p, lambda h: h["meta"]["normalizer"].pop("std")),
         OpfPredictor.load, "'normalizer' has no 'std'"),
        (_truncated_checkpoint, OpfPredictor.load, "truncated checkpoint"),
        (_report_with_an_edited_summary_cell, evaluator.read_report_csv,
         "summary 'feasibility_rate' is '101'"),
        (lambda p, data, model: p.write_text("{epochs: 3}\n"), _read_config,
         "config is not valid JSON"),
        (lambda p, data, model: p.write_text('{"v_ang": [0], "p_gen": [0], "q_gen": [0]}\n'),
         lambda p: cli._read_warm_start(load_case("case30"), p), "warm start has no 'v_mag'"),
        (lambda p, data, model: p.write_text("bus,p_pu,q_pu\n2,nan,0.1\n"),
         lambda p: cli.read_loads_file(load_case("case30"), p), "non-finite value"),
        (lambda p, data, model: p.mkdir(), load_case, "is a directory"),
    ],
    ids=["dataset_without_count", "checkpoint_without_normalizer", "normalizer_without_std",
         "truncated_checkpoint", "report_with_an_edited_summary_cell", "config_not_json",
         "warm_start_without_v_mag", "loads_csv_holding_nan", "case_path_a_directory"],
)
def test_every_kind_of_input_fault_is_a_data_error_naming_its_file(
    tmp_path, data_dir, model_path, write, read, message
):
    path = tmp_path / "input"
    write(path, data_dir, model_path)
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value).startswith(str(path)) and message in str(err.value)
