"""Tiny-size smoke test of every benchmark workload path and of the tracer.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from tracing import Recorder, Span, covered_length, self_times, summarize  # noqa: E402
from workloads import Eval30, Label118, Train30, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "label-118": lambda: Label118(samples_per_call=1),
    "train-30": lambda: Train30(samples=8, epochs=1),
    "eval-30": lambda: Eval30(train=60, test=12, fit_epochs=60),
}


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("a", "p", 0.0, 10.0),
        Span("b", "p", 1.0, 3.0, parent=0),
        Span("c", "p", 2.0, 5.0, parent=0),  # overlaps b: union 1..5
        Span("d", "p", 1.5, 2.5, parent=1),  # grandchild of a
        Span("e", "p", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0, 1.0])
    table = summarize(spans)
    assert table["a"]["calls"] == 1
    assert table["a"]["self_ms"] == pytest.approx(6000.0)
    assert table["a"]["total_ms"] == pytest.approx(10000.0)


def test_recorder_wraps_every_holder_and_restores():
    from deepsolve import opfref, powerflow, trainer
    from deepsolve.netmodel import build_admittance, load_case

    originals = (powerflow.solve_pf, trainer.solve_pf, opfref.dsbus_dv)
    case = load_case("case30")
    adm = build_admittance(case)
    rec = Recorder()
    with rec.recording("t"):
        assert trainer.solve_pf is powerflow.solve_pf is not originals[0]
        opfref.solve_opf(case, adm=adm)
    assert (powerflow.solve_pf, trainer.solve_pf, opfref.dsbus_dv) == originals
    assert rec.missing == []
    table = summarize(rec.spans)
    assert table["opfref.solve_opf"]["calls"] == 1
    assert table["opfref.dsbus_dv"]["calls"] > 0
    assert "powerflow.dsbus_dv" not in table  # the OPF's use is counted apart


def test_missing_layer_is_reported_not_raised():
    rec = Recorder(layers=(("powerflow.gone", "powerflow", "gone", None, None),
                           ("nomodule.f", "nomodule", "f", None, None)))
    with rec.recording("t"):
        pass
    assert rec.missing == ["powerflow.gone", "nomodule.f"]


def test_tail_has_ten_samples_beyond():
    assert tail(range(10)) is None
    value, pct, n = tail(range(100))
    assert (value, n) == (89, 100)
    assert sum(x > value for x in range(100)) == 10
    assert pct == pytest.approx(90.0)


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    sizes = {k: 1 for k in ("opfref.kkt_dim", "opfref.kkt_lu_mflop",
                            "powerflow.jac_dim", "powerflow.jac_lu_mflop")}
    emitted = bench.per_layer_metrics([], sizes, 0.0)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (k, v["unit"]) for k, v in emitted.items()
    ]


@pytest.mark.parametrize("name", list(TINY))
def test_workload_paths(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    run, metrics, info = bench.measure(TINY[name](), seed=3, seconds=0, work=tmp_path / "m")
    assert run.problems == [] and run.failed == 0 and run.attempted > 0
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (k, v["unit"]) for k, v in metrics.items()
    ]
    assert all(v["value"] > 0 for v in metrics.values())

    run, metrics, info = bench.measure_traced(TINY[name](), seed=3, work=tmp_path / "t")
    assert run.problems == [] and info["missing_layers"] == []
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for layer in bench.TIMED_LAYERS:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}.self_ms"]["value"] > 0, layer


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
