"""Command-line entry point.

Subcommands: gen-data, train, eval, solve-pf, solve-opf, predict, report.
Every run writes a manifest (resolved options, seeds, input digests, tool
version) next to its outputs; all randomness flows from explicit --seed
flags so reruns reproduce outputs bit-exactly.

Exit status: 0 success, 1 domain error (a
:class:`~deepsolve.netmodel.DeepsolveError` or a missing file), 2 usage
error.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, dataio, evaluator, trainer
from .estimator import OpfPredictor
from .netmodel import CaseValidationError, DeepsolveError, build_admittance, load_case, read_text
from .opfref import WarmStart, solve_opf
from .powerflow import IndependentVars, check_feasibility, solve_pf


def _digest(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(args, out_dir, inputs, extra=None):
    """Record the resolved run configuration next to its outputs."""
    manifest = {
        "tool": "deepsolve",
        "version": __version__,
        "subcommand": args.command,
        "options": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")
        },
        "input_digests": {str(p): _digest(p) for p in inputs if p and Path(p).exists()},
    }
    if extra:
        manifest.update(extra)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"manifest-{args.command.replace('-', '_')}.json"
    path.write_text(json.dumps(manifest, indent=1, default=str) + "\n")
    return path


def _csv_lines(path, header):
    """``(file:line, stripped line)`` for each line of CSV file ``path`` that is
    not blank, a ``#`` comment or a header starting with ``header``, in any case."""
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#") and not line.lower().startswith(header):
            yield f"{path}:{lineno}", line


def read_loads_file(case, path) -> np.ndarray:
    """Per-bus loads file: 'bus_id,p_pu,q_pu' rows (header and blanks ok).

    Buses not listed keep the case loads; a bus listed twice is an error.
    """
    n = case.n_bus
    loads = case.default_loads.copy()
    seen = set()
    for where, line in _csv_lines(path, "bus"):
        try:
            bus_id, p, q = line.split(",")
            bus_id, p, q = int(bus_id), float(p), float(q)
        except ValueError:
            raise dataio.DataError(f"{where}: {line!r} is not 'bus_id,p_pu,q_pu'") from None
        dataio.finite_values((p, q), where)
        if bus_id in seen:
            raise dataio.DataError(f"{where}: bus {bus_id} listed twice")
        seen.add(bus_id)
        try:
            idx = case.bus_index(bus_id)
        except CaseValidationError as exc:
            raise dataio.DataError(f"{where}: {exc}") from None
        loads[idx], loads[n + idx] = p, q
    return loads


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    case = load_case(args.case)
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        raise dataio.DataError(f"--range {args.range!r}: expected the form lo:hi") from None
    try:
        dataio.check_load_range(lo, hi)
    except dataio.DataError as exc:
        raise dataio.DataError(f"--range {args.range!r}: {exc}") from None
    train_ds, test_ds = dataio.build_dataset(
        case,
        args.train_count,
        args.test_count,
        seed=args.seed,
        load_range=(lo, hi),
        workers=args.workers,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_dataset(train_ds, out / "train.ds")
    dataio.save_dataset(test_ds, out / "test.ds")
    write_manifest(args, out, [args.case], {"seeds": [args.seed]})
    print(
        f"wrote {len(train_ds)} training and {len(test_ds)} test samples to {out}"
    )
    return 0


def cmd_train(args):
    case = load_case(args.case)
    data_path = Path(args.data_dir) / "train.ds"
    dataset = dataio.load_dataset(data_path)
    if args.hidden:
        try:
            hidden = tuple(int(v) for v in args.hidden.split("/"))
            if min(hidden) < 1:
                raise ValueError
        except ValueError:
            raise dataio.DataError(
                f"--hidden {args.hidden!r}: expected positive layer sizes like 64/32"
            ) from None
    else:
        hidden = {30: (64, 32), 118: (256, 128), 300: (1024, 512)}.get(case.n_bus, (64, 32))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    options = {f.name: getattr(args, _TRAIN_FLAGS.get(f.name, f.name))
               for f in fields(trainer.TrainConfig)}
    predictor = OpfPredictor(case=case, hidden_layer_sizes=hidden, **options).fit(dataset).save(out)

    metrics_path = out.with_suffix(out.suffix + ".metrics.csv")
    names = [f.name for f in fields(trainer.EpochStats)]
    lines = [",".join(names), *(dataio.format_record(st, names) for st in predictor.history_)]
    metrics_path.write_text("\n".join(lines) + "\n")
    write_manifest(args, out.parent, [args.case, data_path], {"seeds": [args.seed]})
    print(f"model written to {out}; metrics to {metrics_path}")
    return 0


def cmd_eval(args):
    case = load_case(args.case)
    dataset = dataio.load_dataset(Path(args.data_dir) / "test.ds")
    if args.dump_comparison and not dataset.samples:
        raise evaluator.EvalError("--dump-comparison: the test split has no instances")
    if args.dump_comparison and not 0 <= args.instance < len(dataset):
        raise evaluator.EvalError(
            f"--instance {args.instance} is outside the test split's "
            f"{len(dataset)} instances (0 to {len(dataset) - 1})"
        )
    predictor = OpfPredictor.load(args.model, case)
    report = evaluator.evaluate(predictor, dataset, timed=not args.no_timing, recover=args.recover)
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(evaluator.report_csv(report))
    if args.dump_comparison:
        Path(args.dump_comparison).write_text(
            evaluator.dump_comparison(predictor, dataset, instance=args.instance)
        )
    write_manifest(args, out.parent, [args.case, args.model, Path(args.data_dir) / "test.ds"])
    print(evaluator.report_text(report), end="")
    return 0


def _default_indep(case):
    """Generator voltage set-points with PV dispatch at mid-range."""
    setpoint = np.array([g.v_setpoint for g in case.generators])
    pv_gen = case.pv_gen
    return IndependentVars(
        v_slack=setpoint[case.slack_gen],
        pv_p_gen=0.5 * (case.p_min[pv_gen] + case.p_max[pv_gen]),
        pv_v_mag=setpoint[pv_gen],
    )


def _read_indep(case, path):
    spec = dataio.ScalingSpec.from_case(case)
    values = dict.fromkeys(e.var_id for e in spec.entries)
    for where, line in _csv_lines(path, "variable"):
        key, _, val = line.partition(",")
        if key not in values:
            raise dataio.DataError(f"{where}: unknown variable {key!r}")
        if values[key] is not None:
            raise dataio.DataError(f"{where}: {key} listed twice")
        try:
            values[key] = float(val)
        except ValueError:
            raise dataio.DataError(f"{where}: {key}={val!r} is not a number") from None
        dataio.finite_values([values[key]], where)
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise dataio.DataError(f"{path}: missing values for {missing}")
    return IndependentVars.from_vector([values[e.var_id] for e in spec.entries])


def cmd_solve_pf(args):
    case = load_case(args.case)
    adm = build_admittance(case)
    loads = read_loads_file(case, args.loads) if args.loads else case.default_loads
    indep = _read_indep(case, args.indep) if args.indep else _default_indep(case)
    n = case.n_bus
    sol = solve_pf(case, adm, indep, loads[:n], loads[n:])
    doc = _solution_doc(case, sol, ("converged", "iterations", "max_residual", "v_mag", "v_ang",
                                    "slack_p_gen", "slack_q_gen", "pv_q_gen", "branch_s"))
    if sol.converged:
        doc["feasible"] = check_feasibility(case, sol).feasible
    _write_or_print(args, json.dumps(doc, indent=1) + "\n", "solution",
                    [args.case, args.loads, args.indep])
    return 0 if sol.converged else 1


def _solution_doc(case, sol, names) -> dict:
    """The case name and the fields ``names`` of solution ``sol``, NumPy
    arrays and scalars as lists and Python numbers."""
    return {"case_id": case.name,
            **{name: np.asarray(getattr(sol, name)).tolist() for name in names}}


def _write_or_print(args, text, what, inputs):
    """Write ``text`` to ``--output`` with a manifest beside it, else print it."""
    if args.output:
        Path(args.output).write_text(text)
        write_manifest(args, Path(args.output).parent, inputs)
        print(f"{what} written to {args.output}")
    else:
        print(text, end="")


def _read_warm_start(case, path) -> WarmStart:
    """Bus voltages and generator dispatch from a solve-opf output file."""
    doc = dataio.parse_json(path, read_text(path), "warm start")
    n_gen = len(case.generators)
    sizes = {"v_mag": case.n_bus, "v_ang": case.n_bus, "p_gen": n_gen, "q_gen": n_gen}
    arrays = {}
    values = dataio.header_fields(doc, dict.fromkeys(sizes, list), path, "warm start")
    for (key, size), value in zip(sizes.items(), values):
        arrays[key] = dataio.json_numbers(value, f"{path}: {key!r}")
        if arrays[key].shape != (size,):
            raise dataio.DataError(
                f"{path}: {key!r} has shape {arrays[key].shape}, case {case.name} needs ({size},)"
            )
    return WarmStart(**arrays)


def cmd_solve_opf(args):
    case = load_case(args.case)
    loads = read_loads_file(case, args.loads) if args.loads else case.default_loads
    start = _read_warm_start(case, args.warm_start) if args.warm_start else None
    sol = solve_opf(case, loads=loads, start=start)
    doc = _solution_doc(case, sol, ("converged", "iterations", "objective", "kkt_residual",
                                    "wall_time", "p_gen", "q_gen", "v_mag", "v_ang"))
    _write_or_print(args, json.dumps(doc, indent=1) + "\n", "solution",
                    [args.case, args.loads, args.warm_start])
    return 0 if sol.converged else 1


def cmd_predict(args):
    case = load_case(args.case) if args.case else None
    predictor = OpfPredictor.load(args.model, case)
    case = predictor.case
    loads = read_loads_file(case, args.loads) if args.loads else case.default_loads
    s = predictor.predict(loads)[0]
    lines = ["variable,scaling_factor,physical"]
    for entry, sv, xv in zip(predictor.spec_.entries, s, dataio.decode(predictor.spec_, s)):
        lines.append(f"{entry.var_id},{sv:.10g},{xv:.10g}")
    _write_or_print(args, "\n".join(lines) + "\n", "prediction", [args.case, args.model, args.loads])
    return 0


def cmd_report(args):
    print(evaluator.report_text(evaluator.read_report_csv(args.input)), end="")
    return 0


# ---------------------------------------------------------------------------


# the train flags named otherwise than their TrainConfig field; each name is
# also the flag's dest, its --config and manifest key
_TRAIN_FLAGS = {"batch_size": "batch", "learning_rate": "lr"}
_IGNORED_WORKERS = "ignored: this command runs in one process"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deepsolve",
        description="Learned predict-and-reconstruct AC optimal power flow toolkit",
    )
    parser.add_argument("--version", action="version", version=f"deepsolve {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of option defaults; explicit flags still win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample loads and label them with the reference solver")
    p.add_argument("--case", required=True, help="case file path or bundled name (case30)")
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--test-count", type=int, required=True)
    p.add_argument("--range", default="0.9:1.1", help="load scaling range lo:hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the scaling-factor predictor")
    p.add_argument("--case", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--hidden", default=None, help="hidden layer sizes, e.g. 64/32")
    kinds = typing.get_type_hints(trainer.TrainConfig)
    for f in fields(trainer.TrainConfig):
        flag = "--" + _TRAIN_FLAGS.get(f.name, f.name).replace("_", "-")
        p.add_argument(flag, type=kinds[f.name], default=f.default, help=f.metadata.get("help"))
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=_IGNORED_WORKERS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--recover", action="store_true", help="warm-start re-solve of infeasible instances")
    p.add_argument("--no-timing", action="store_true", help="skip the timing phase")
    p.add_argument("--report", required=True, help="report output path (csv)")
    p.add_argument("--dump-comparison", default=None, help="prediction-vs-reference csv path")
    p.add_argument("--instance", type=int, default=0, help="instance for --dump-comparison")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=_IGNORED_WORKERS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve-pf", help="solve one power flow (debugging)")
    p.add_argument("--case", required=True)
    p.add_argument("--loads", default=None, help="per-bus loads csv (bus_id,p_pu,q_pu)")
    p.add_argument("--indep", default=None, help="independent variables csv (variable,value)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_solve_pf)

    p = sub.add_parser("solve-opf", help="solve one AC-OPF with the reference solver")
    p.add_argument("--case", required=True)
    p.add_argument("--loads", default=None)
    p.add_argument("--warm-start", default=None, help="warm-start file (solve-opf output)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_solve_opf)

    p = sub.add_parser("predict", help="run the trained predictor on a load vector")
    p.add_argument("--model", required=True)
    p.add_argument("--case", default=None, help="defaults to the model's case")
    p.add_argument("--loads", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="render an eval report csv as a table")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _apply_config_file(parser, argv):
    """Config precedence: flags > config file > built-in defaults; unknown keys are errors."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    doc = dataio.parse_json(known.config, read_text(known.config), "config")
    keys = {k.replace("-", "_"): k for k in doc}
    (subparsers,) = parser._subparsers._group_actions
    actions = [a for sub in subparsers.choices.values() for a in sub._actions]
    unknown = [k for dest, k in keys.items() if dest not in {a.dest for a in actions}]
    if unknown:
        raise dataio.DataError(f"{known.config}: {unknown[0]!r} is not an option of any subcommand")
    for action in actions:
        if action.dest in keys:
            key = keys[action.dest]
            action.default = _config_default(action, doc[key], f"{known.config}: {key!r}")
            action.required = False


def _config_default(action, value, where):
    """A config-file value as ``action``'s default: a flag takes JSON true
    or false, any other option a string or number, which goes through the
    option's own type on its string form as a command-line value would."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise dataio.DataError(f"{where}: expected true or false, got {json.dumps(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise dataio.DataError(f"{where}: expected a string or number, got {json.dumps(value)}")
    if action.type is None:
        return str(value)
    try:
        return action.type(str(value))
    except ValueError:
        raise dataio.DataError(
            f"{where}: {json.dumps(value)} is not a valid {action.type.__name__} value"
        ) from None


def main(argv=None):
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except (DeepsolveError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
