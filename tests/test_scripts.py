import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weight_sweep_runs_on_tiny_sizes(capsys):
    weight_sweep = _load_script("weight_sweep")
    weight_sweep.main(["--train", "20", "--test", "4", "--epochs", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["w2", "feasibility", "%", "cost", "diff", "%", "speedup"]
    assert [line.split()[0] for line in lines[1:]] == ["0.1", "1.0"]


def test_compare_outputs_finds_a_tree_equal_to_itself(capsys):
    compare_outputs = _load_script("compare_outputs")
    tree = str(SCRIPTS.parent)
    argv = [tree, tree, "--train", "8", "--test", "2", "--epochs", "1", "--opf-case", "case30"]
    assert compare_outputs.main(argv) == 0
    assert capsys.readouterr().out == "12 of 12 artifacts identical\n"
