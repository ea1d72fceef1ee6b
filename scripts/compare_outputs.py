#!/usr/bin/env python3
"""Check that two deepsolve source trees produce the same outputs.

Runs one CLI sequence on each tree, each in a fresh directory: gen-data on
case30, train (penalty term and two zero-order draws on, --batch and --lr
given), eval --no-timing, eval --no-timing --recover, predict to stdout and
to --output, solve-pf on case30 with a loads file, solve-pf on case30 at
2.5 times every bus's default loads (the one step whose power flow takes
Newton steps: three, after three chord steps), solve-pf at the default
loads, solve-opf, solve-opf warm-started from that solution, and gen-data
labelling 4 samples; the last four run on the --opf-case case (case118 by
default), so its lone power flow and its labels are compared too.  Then
four commands read corrupt copies of the sequence's files (a truncated
checkpoint, a checkpoint header without its normalizer, a report with an
edited summary cell, a dataset header without its count); each must exit 1
with an ``error:`` line (else the step fails), and its stderr is compared.  The
wall-clock fields are dropped (the metrics CSV's wall_time, the --recover
report's recovery_time and avg_recovery_time, and the solve-opf JSONs'
wall_time); every other artifact is compared byte for byte.  Prints the artifacts that
differ, each with how many of its numbers differ and the largest relative
difference among them (or that it differs in more than its numbers), and
exits 1 if any do, 2 if a step fails in either tree.

A tree is a checkout holding src/deepsolve, or that src directory.

Usage: python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC
       [--train 40] [--test 10] [--epochs 3] [--opf-case case118]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# case30 loads for the solve-pf step: three buses about 5 % above their defaults
LOADS = "bus,p_pu,q_pu\n2,0.228,0.133\n7,0.239,0.114\n30,0.111,0.020\n"
# case30 loads at 2.5 times the default of every bus that has one
HEAVY_LOADS = (
    "bus,p_pu,q_pu\n2,0.5425,0.3175\n3,0.06,0.03\n4,0.19,0.04\n5,2.355,0.475\n"
    "7,0.57,0.2725\n8,0.75,0.75\n10,0.145,0.05\n12,0.28,0.1875\n14,0.155,0.04\n"
    "15,0.205,0.0625\n16,0.0875,0.045\n17,0.225,0.145\n18,0.08,0.0225\n19,0.2375,0.085\n"
    "20,0.055,0.0175\n21,0.4375,0.28\n23,0.08,0.04\n24,0.2175,0.1675\n26,0.0875,0.0575\n"
    "29,0.06,0.0225\n30,0.265,0.0475\n"
)

def _src_dir(tree):
    tree = Path(tree).resolve()
    src = tree / "src" if (tree / "src" / "deepsolve").is_dir() else tree
    if not (src / "deepsolve").is_dir():
        raise SystemExit(f"{tree}: no deepsolve package here or under src/")
    return src


def _steps(args):
    """The sequence as (name, CLI arguments), paths relative to the run directory."""
    model = ["--model", "model.ckpt", "--case", "case30", "--data-dir", "data"]
    return [
        ("gen-data", ["gen-data", "--case", "case30", "--train-count", args.train,
                      "--test-count", args.test, "--seed", 13, "--out-dir", "data",
                      "--workers", 1]),
        ("train", ["train", "--case", "case30", "--data-dir", "data", "--hidden", "24/12",
                   "--epochs", args.epochs, "--w2", 0.1, "--delta", 0.15, "--zo-draws", 2,
                   "--batch", 16, "--lr", 0.002, "--seed", 3, "--out", "model.ckpt",
                   "--workers", 1]),
        ("eval", ["eval", *model, "--no-timing", "--report", "report.csv", "--workers", 1]),
        ("eval --recover", ["eval", *model, "--no-timing", "--recover",
                            "--report", "recover.csv", "--workers", 1]),
        ("predict", ["predict", "--model", "model.ckpt"]),
        ("predict --output", ["predict", "--model", "model.ckpt", "--output", "predict.csv"]),
        ("solve-pf", ["solve-pf", "--case", "case30", "--loads", "loads.csv",
                      "--output", "pf.json"]),
        ("solve-pf heavy loads", ["solve-pf", "--case", "case30", "--loads", "heavy-loads.csv",
                                  "--output", "pf-heavy.json"]),
        ("solve-pf --opf-case", ["solve-pf", "--case", args.opf_case,
                                 "--output", "pf-opf.json"]),
        ("solve-opf", ["solve-opf", "--case", args.opf_case, "--output", "opf.json"]),
        ("solve-opf --warm-start", ["solve-opf", "--case", args.opf_case,
                                    "--warm-start", "opf.json", "--output", "warm.json"]),
        ("gen-data --opf-case", ["gen-data", "--case", args.opf_case, "--train-count", 4,
                                 "--test-count", 0, "--seed", 13, "--out-dir", "opf-data",
                                 "--workers", 1]),
    ]


# commands that read the corrupt inputs _write_corrupt_inputs makes
_CORRUPT_STEPS = [
    ("eval truncated checkpoint", ["eval", "--model", "truncated.ckpt", "--case", "case30",
                                   "--data-dir", "data", "--no-timing", "--report", "bad.csv"]),
    ("eval checkpoint without normalizer", ["eval", "--model", "no-normalizer.ckpt", "--case",
                                            "case30", "--data-dir", "data", "--no-timing",
                                            "--report", "bad.csv"]),
    ("report with an edited summary cell", ["report", "--input", "edited.csv"]),
    ("train dataset without count", ["train", "--case", "case30", "--data-dir", "no-count",
                                     "--out", "bad.ckpt"]),
]


def _with_header(src, dst, edit):
    """Record file ``src`` with its JSON header line changed by ``edit``, written to ``dst``."""
    first, *rest = src.read_text().splitlines()
    header = json.loads(first)
    edit(header)
    dst.write_text("\n".join([json.dumps(header), *rest]) + "\n")


def _write_corrupt_inputs(run):
    lines = (run / "model.ckpt").read_text().splitlines()
    (run / "truncated.ckpt").write_text("\n".join(lines[:-1]) + "\n")
    _with_header(run / "model.ckpt", run / "no-normalizer.ckpt",
                 lambda h: h["meta"].pop("normalizer"))
    head, summary, *rest = (run / "report.csv").read_text().splitlines()
    cells = summary.split(",")
    cells[head.split(",").index("feasibility_rate")] = "101"
    (run / "edited.csv").write_text("\n".join([head, ",".join(cells), *rest]) + "\n")
    (run / "no-count").mkdir()
    _with_header(run / "data" / "train.ds", run / "no-count" / "train.ds", lambda h: h.pop("count"))


def _without_column(text, column):
    """CSV text with ``column`` removed.  A line naming the column, or any
    line whose first field is ``record`` (report.csv has one header per
    record kind), decides which field the lines after it lose."""
    out, drop = [], None
    for line in text.splitlines():
        fields = line.split(",")
        if column in fields or fields[0] == "record":
            drop = fields.index(column) if column in fields else None
        if drop is not None:
            del fields[drop]
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def _without_key(text, key):
    doc = json.loads(text)
    doc.pop(key, None)
    return json.dumps(doc, indent=1)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _fields(text):
    """An artifact's numbers as {where: (field, number)}, and the text with
    every number blanked out.  A JSON object is walked by key path, and its
    fields are its keys (an array is one field); other text is read line by
    line, and all its numbers are one field."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        numbers = {k: (re.sub(r"\[\d+\]", "", k), v) for k, v in _leaves(doc)
                   if isinstance(v, (int, float)) and not isinstance(v, bool)}
    else:
        numbers = {
            f"line {i} number {j}": ("numbers", token)
            for i, line in enumerate(text.splitlines(), 1)
            for j, token in enumerate(_NUMBER.findall(line), 1)
        }
    return numbers, _NUMBER.sub("#", text)


def numeric_difference(a, b):
    """How two artifacts differ in their numbers: a list of (field, numbers
    that differ, numbers, largest relative difference, where it is) over the
    fields that differ, or None if the artifacts differ in more than their
    numbers.  A difference is relative to the largest magnitude in its
    field, so a value that is zero up to rounding does not blow it up."""
    nums_a, rest_a = _fields(a)
    nums_b, rest_b = _fields(b)
    if rest_a != rest_b or nums_a.keys() != nums_b.keys():
        return None
    fields = {}
    for where, (field, x) in nums_a.items():
        fields.setdefault(field, []).append((where, x, nums_b[where][1]))
    out = []
    for field, rows in fields.items():
        differ = [(where, float(x), float(y)) for where, x, y in rows if x != y]
        if differ:
            scale = max(abs(float(v)) for _, x, y in rows for v in (x, y))
            rel, where = max((abs(x - y) / scale if scale else 0.0, where)
                             for where, x, y in differ)
            out.append((field, len(differ), len(rows), rel, where))
    return out


def run_tree(tree, args):
    """Artifacts of the sequence on one tree as {name: text}, or the name
    and message of the first step that failed."""
    env = {**os.environ, "PYTHONPATH": str(_src_dir(tree)), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        run = Path(tmp)
        (run / "loads.csv").write_text(LOADS)
        (run / "heavy-loads.csv").write_text(HEAVY_LOADS)

        def cli(argv):
            return subprocess.run([sys.executable, "-m", "deepsolve.cli", *map(str, argv)],
                                  cwd=run, env=env, capture_output=True, text=True)

        stdout = {}
        for name, argv in _steps(args):
            proc = cli(argv)
            if proc.returncode != 0:
                return None, f"{name} exited {proc.returncode}: {proc.stderr.strip()}"
            stdout[name] = proc.stdout
        _write_corrupt_inputs(run)
        failures = {}
        for name, argv in _CORRUPT_STEPS:
            proc = cli(argv)
            if proc.returncode != 1 or not proc.stderr.startswith("error: "):
                return None, (f"{name} exited {proc.returncode}, not 1 with an error line: "
                              f"{proc.stderr.strip()}")
            failures[f"{name} stderr"] = proc.stderr

        def read(name):
            return (run / name).read_text()

        return {
            "data/train.ds": read("data/train.ds"),
            "data/test.ds": read("data/test.ds"),
            "model.ckpt": read("model.ckpt"),
            "model.ckpt.metrics.csv without wall_time":
                _without_column(read("model.ckpt.metrics.csv"), "wall_time"),
            "eval report.csv": read("report.csv"),
            "eval stdout": stdout["eval"],
            "eval --recover report.csv without recovery times": _without_column(
                _without_column(read("recover.csv"), "recovery_time"), "avg_recovery_time"),
            "predict stdout": stdout["predict"],
            "predict --output csv": read("predict.csv"),
            "solve-pf --loads JSON": read("pf.json"),
            "solve-pf heavy loads JSON": read("pf-heavy.json"),
            "solve-pf --opf-case JSON": read("pf-opf.json"),
            "solve-opf JSON without wall_time": _without_key(read("opf.json"), "wall_time"),
            "solve-opf --warm-start JSON without wall_time":
                _without_key(read("warm.json"), "wall_time"),
            "gen-data --opf-case train.ds": read("opf-data/train.ds"),
            **failures,
        }, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--train", type=int, default=40)
    ap.add_argument("--test", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--opf-case", default="case118")
    args = ap.parse_args(argv)

    outputs = {}
    for side in ("parent", "change"):
        outputs[side], problem = run_tree(getattr(args, side), args)
        if problem:
            print(f"{side}: {problem}")
            return 2
    differ = [k for k in outputs["parent"] if outputs["parent"][k] != outputs["change"][k]]
    for name in differ:
        fields = numeric_difference(outputs["parent"][name], outputs["change"][name])
        if fields is None:
            print(f"differs: {name}: not only in its numbers")
            continue
        print(f"differs: {name}")
        for field, count, total, largest, where in fields:
            print(f"  {field}: {count} of {total} differ, "
                  f"largest relative difference {largest:.3g} at {where}")
    print(f"{len(outputs['parent']) - len(differ)} of {len(outputs['parent'])} artifacts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
