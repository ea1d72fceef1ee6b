import importlib.util
import shlex
from pathlib import Path

import pytest

from deepsolve.cli import build_parser

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


def test_readme_full_scale_recipe_parses():
    """Every command of the README's full-scale case118 block parses with
    today's options, without running it."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    section = readme.split("## Full-scale case118 run", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["deepsolve", "gen-data"], ["deepsolve", "train"], ["deepsolve", "eval"]
    ]
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.case == "case118"
        # argparse takes a prefix of an option too, so check each name as written
        given = {token[2:].replace("-", "_") for token in argv if token.startswith("--")}
        assert given <= set(vars(args))


def test_readme_library_use_runs(tmp_path, monkeypatch):
    """The README's "Library use" block runs as written, at tiny sizes; each
    size it replaces must be there, so an edit cannot skip the run."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for size, tiny in (("1000, 200", "16, 4"), ("epochs=100", "epochs=2")):
        assert block.count(size) == 1
        block = block.replace(size, tiny)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    assert scope["report"].n_instances == 4
    assert (tmp_path / "model30.ckpt").is_file()
    assert scope["solution"] is not None


def test_compare_outputs_finds_a_tree_equal_to_itself(capsys):
    compare_outputs = _load_script("compare_outputs")
    tree = str(SCRIPTS.parent)
    argv = [tree, tree, "--train", "8", "--test", "2", "--epochs", "1", "--opf-case", "case30"]
    assert compare_outputs.main(argv) == 0
    assert capsys.readouterr().out == "19 of 19 artifacts identical\n"


def test_compare_outputs_quantifies_numeric_differences():
    diff = _load_script("compare_outputs").numeric_difference
    a = '{"converged": true, "objective": 100.0, "v_ang": [0.0, -0.1, 1e-20, 0.2]}'
    b = '{"converged": true, "objective": 100.0001, "v_ang": [0.0, -0.1, -1e-20, 0.1999]}'
    (obj, ang) = diff(a, b)
    assert obj[:3] == ("objective", 1, 1) and obj[4] == "objective"
    assert obj[3] == pytest.approx(1e-4 / 100.0001)
    # relative to the field's largest magnitude, not to the rounding zero
    assert ang[:3] == ("v_ang", 2, 4) and ang[4] == "v_ang[3]"
    assert ang[3] == pytest.approx(1e-4 / 0.2)
    assert diff(a, a) == []
    assert diff(a, a.replace("true", "false")) is None
    assert diff(a, a.replace('"v_ang": [0.0, ', '"v_ang": [')) is None

    csv = "record,id,value\nrow,3,2.5e-3\nrow,4,7\n"
    assert diff(csv, csv.replace("2.5e-3", "2.4e-3")) == [
        ("numbers", 1, 4, pytest.approx(1e-4 / 7), "line 2 number 2")
    ]
    assert diff(csv, csv.replace("row,4", "sum,4")) is None
