import json
import re

import pytest

from deepsolve.cli import main

from conftest import TWO_BUS_MP


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
    assert capsys.readouterr().err == (
        f"error: {no_id}: malformed eval report (KeyError('case_id'))\n"
    )


def test_report_renders_the_eval_table_with_recovery_rows(
    workdir, data_dir, model_path, capsys
):
    report = workdir / "report-recover.csv"
    rc = main(
        ["eval", "--model", str(model_path), "--case", "case30", "--data-dir",
         str(data_dir), "--report", str(report), "--no-timing", "--recover"]
    )
    assert rc == 0
    eval_out = capsys.readouterr().out
    assert main(["report", "--input", str(report)]) == 0
    out = capsys.readouterr().out
    assert "recovered instances" in out
    assert "warm vs cold iterations" in out
    # the same table eval printed, recovery time included
    assert out == eval_out[eval_out.index("evaluation: case30"):]
    assert re.search(r"^avg recovery time\s+\d+\.\d\d ms$", out, re.M)
    # a report written without the recovery_time column shows the time as n/a
    lines = report.read_text().splitlines()
    assert lines[2].endswith(",recovery_time")
    old = workdir / "report-no-recovery-time.csv"
    old.write_text("\n".join([*lines[:2], *(ln.rsplit(",", 1)[0] for ln in lines[2:])]) + "\n")
    assert main(["report", "--input", str(old)]) == 0
    shown = capsys.readouterr().out.splitlines()
    assert [ln for ln in shown if not ln.startswith("avg recovery time")] == [
        ln for ln in out.splitlines() if not ln.startswith("avg recovery time")
    ]
    assert any(re.fullmatch(r"avg recovery time\s+n/a", ln) for ln in shown)


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
    ],
    ids=["loads_bus_abc", "indep_not_a_number", "range_with_dash", "loads_nan", "loads_inf",
         "indep_nan", "loads_unknown_bus"],
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("v_ang"), "warm start has no 'v_ang'"),
        (lambda doc: doc.update(v_mag=[1.0, 1.0], v_ang=[0.0, 0.0]), "'v_mag' has shape (2,)"),
        (lambda doc: doc["v_mag"].__setitem__(3, float("nan")), "'v_mag': non-finite value"),
    ],
    ids=["missing_key", "short_arrays", "nan_v_mag"],
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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--nope"])
    assert exc.value.code == 2


def test_domain_error_exits_1(workdir, capsys):
    rc = main(["solve-pf", "--case", str(workdir / "missing.m")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_truncated_checkpoint_exits_1(workdir, model_path, capsys):
    broken = workdir / "truncated.ckpt"
    broken.write_text("\n".join(model_path.read_text().splitlines()[:-1]) + "\n")
    rc = main(["predict", "--model", str(broken), "--case", "case30"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(broken) in err


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
        (lambda h: h["meta"]["pf_init_dependent_mean"].__setitem__(2, float("nan")),
         "'pf_init_dependent_mean': non-finite value"),
    ],
    ids=["normalizer_without_std", "scaling_entry_without_max", "tanh_hidden_activation",
         "cut_mid_json", "nan_normalizer_mean", "infinite_scaling_min", "nan_pf_init_mean"],
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
        (lambda h: h["dependent_mean"].__setitem__(0, float("nan")),
         "'dependent_mean': non-finite value"),
    ],
    ids=["no_normalizer", "scaling_entry_without_max", "cut_mid_json", "nan_normalizer_std",
         "infinite_scaling_max", "nan_dependent_mean"],
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


def test_env_workers_fallback(monkeypatch):
    from deepsolve.cli import default_workers

    monkeypatch.setenv("DEEPSOLVE_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("DEEPSOLVE_WORKERS", "junk")
    assert default_workers() >= 1


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
