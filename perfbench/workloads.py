"""The three benchmark workloads, each driven through ``deepsolve.cli.main``.

Every workload has an untimed ``setup``, a timed ``unit`` (one CLI call
with a fixed amount of work, repeated by the runner) and ``check``, which
verifies the outputs of every unit after timing ends.  Inputs come from the
workload seed only; training always uses the fixed ``TRAIN_SEED``.

Why these three (see README.md for the layer mapping):

* ``label-118`` -- ``gen-data`` on case118: nearly all time is cold
  interior-point solves on a dense 581x581 KKT system (LAPACK-bound).
* ``train-30`` -- ``train`` on case30 with the penalty term on: four
  Newton power flows per sample per step, Python-overhead-bound; the
  reference solver is idle in the timed part.
* ``eval-30`` -- ``eval --recover`` on case30: the paper's per-instance
  protocol, model path against a cold reference solve, plus warm-started
  recovery of infeasible predictions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import math
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deepsolve import cli
from deepsolve.dataio import decode, load_dataset
from deepsolve.mlp import load_model
from deepsolve.netmodel import build_admittance, load_case
from deepsolve.opfref import generation_cost
from deepsolve.powerflow import IndependentVars, check_feasibility, solve_pf

TRAIN_SEED = 5
FEAS_TOL = 1e-6
COST_RTOL = 1e-6
DIVERGED = re.compile(r"\((\d+) diverged")


class BenchError(Exception):
    """Set-up could not produce the inputs the timed part needs."""


class _EpochLog(logging.Handler):
    """Collects the trainer's per-epoch records (the metrics CSV has no
    diverged count)."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.diverged: list[int] = []

    def emit(self, record):
        m = DIVERGED.search(record.getMessage())
        if m:
            self.diverged.append(int(m.group(1)))


@dataclass
class Run:
    """State of one benchmark run: work directory, seed and bookkeeping."""

    work: Path
    seed: int
    argv_log: list[list[str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    _calls: int = 0

    def call(self, argv):
        """One in-process CLI invocation; returns (exit code, wall seconds)."""
        argv = [str(a) for a in argv]
        self.argv_log.append(argv)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crashing call is a failed op
            traceback.print_exc(file=sys.stderr)
            rc = 1
        wall = time.perf_counter() - t0
        if rc != 0:
            self.problems.append(f"exit {rc}: deepsolve {' '.join(argv)}")
        return rc, wall

    def fresh_dir(self, stem):
        self._calls += 1
        path = self.work / f"{stem}{self._calls:03d}"
        path.mkdir(parents=True)
        return path

    def fail(self, message):
        self.problems.append(message)


def tail(values):
    """(value, percentile, n): the highest percentile with >= 10 samples above."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


def _gen_dispatch(case, indep, sol):
    """Per-generator active power of a reconstruction, in case order."""
    pv = [int(i) for i in case.pv_indices]
    pg = np.empty(len(case.generators))
    for k, g in enumerate(case.generators):
        b = case.bus_index(g.bus)
        pg[k] = sol.slack_p_gen if b == case.slack_index else indep.pv_p_gen[pv.index(b)]
    return pg


def _indep_from_physical(case, x):
    npv = len(case.pv_indices)
    return IndependentVars(
        v_slack=x[0], pv_p_gen=x[1 : 1 + 2 * npv : 2], pv_v_mag=x[2 : 2 + 2 * npv : 2]
    )


def _loads(ckpt):
    try:
        load_model(ckpt)
    except Exception:  # noqa: BLE001 - any load failure fails the check
        return False
    return True


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _gen_data_argv(case, n_train, n_test, seed, out_dir):
    return [
        "gen-data", "--case", case, "--train-count", n_train, "--test-count", n_test,
        "--range", "0.9:1.1", "--seed", seed, "--out-dir", out_dir, "--workers", 1,
    ]


class Label118:
    """Reference labelling of case118 samples (``gen-data``).

    Each timed call labels new samples (seed ``1000 * seed + key``): the
    interior-point iteration count varies from 40 to 65 between load
    samples, so a run needs many distinct samples to be representative.
    """

    name = "label-118"
    case = "case118"
    item = "samples labelled"

    def __init__(self, samples_per_call=2):
        self.samples_per_call = samples_per_call
        self._worst_gap = 0.0

    def setup(self, run):
        # warm the CLI and LAPACK with one cold solve at the case's own loads
        out = run.fresh_dir("setup") / "opf.json"
        rc, _ = run.call(["solve-opf", "--case", self.case, "--output", out])
        if rc != 0:
            raise BenchError("case118 reference solve at default loads failed")
        run.info.setdefault("datasets", {})

    def unit(self, run, key):
        out = run.fresh_dir("label")
        k = self.samples_per_call
        seed = 1000 * run.seed + key
        rc, wall = run.call(_gen_data_argv(self.case, k, 0, seed, out))
        written = len(load_dataset(out / "train.ds")) if rc == 0 else 0
        run.attempted += k
        run.failed += k - written
        if rc == 0:
            run.info["datasets"].setdefault(seed, []).append(out / "train.ds")
        return written, wall

    def check(self, run):
        case = load_case(self.case)
        adm = build_admittance(case)
        for seed, paths in run.info["datasets"].items():
            if len({_digest(p) for p in paths}) > 1:
                run.fail(f"gen-data calls with seed {seed} wrote different datasets")
            ds = load_dataset(paths[0])
            for idx, sample in enumerate(ds.samples):
                problem = self._check_sample(case, adm, ds.spec, sample)
                if problem:
                    run.fail(f"seed {seed} sample {idx}: {problem}")
                    run.failed += len(paths)
        run.info["worst_cost_gap"] = self._worst_gap

    def _check_sample(self, case, adm, spec, sample):
        n = case.n_bus
        indep = _indep_from_physical(case, decode(spec, sample.s_true))
        sol = solve_pf(case, adm, indep, sample.loads[:n], sample.loads[n:])
        if not sol.converged:
            return "power flow from the label did not converge"
        if not check_feasibility(case, sol, FEAS_TOL).feasible:
            return f"labelled point violates limits at {FEAS_TOL}"
        gap = _rel(generation_cost(case, _gen_dispatch(case, indep, sol)), sample.objective_true)
        self._worst_gap = max(self._worst_gap, gap)
        if gap > COST_RTOL:
            return f"cost gap {gap:.3g} above {COST_RTOL}"
        return None

    def report(self, run, throughput):
        return {
            "label_per_s": (throughput, "samples/s"),
            "worst_label_cost_gap": (self._worst_gap, "relative"),
        }


class Train30:
    """Penalty training on case30 at the criterion-7 configuration."""

    name = "train-30"
    case = "case30"
    item = "training samples (epochs x samples)"

    def __init__(self, samples=64, epochs=2):
        self.samples = samples
        self.epochs = epochs
        self.draws = 2

    def setup(self, run):
        data = run.fresh_dir("data")
        rc, _ = run.call(_gen_data_argv(self.case, self.samples, 0, run.seed, data))
        if rc != 0:
            raise BenchError("labelling the case30 training split failed")
        run.info.update(data=data, digests=[], losses=[], log=_EpochLog())

    def unit(self, run, key):
        out = run.fresh_dir("train") / "model.ckpt"
        argv = [
            "train", "--case", self.case, "--data-dir", run.info["data"],
            "--epochs", self.epochs, "--batch", 32, "--w1", 1, "--w2", 0.1,
            "--delta", 0.15, "--zo-draws", self.draws, "--seed", TRAIN_SEED,
            "--out", out, "--workers", 1,
        ]
        log = run.info["log"]
        logger = logging.getLogger("deepsolve.trainer")
        logger.addHandler(log)
        logger.setLevel(logging.INFO)
        mark = len(log.diverged)
        try:
            rc, wall = run.call(argv)
        finally:
            logger.removeHandler(log)
        evals = 2 * self.draws * self.samples * self.epochs
        run.attempted += evals
        if rc != 0:
            run.failed += evals
            return 0, wall
        problem = self._check_unit(run, out)
        if problem:
            run.fail(problem)
            run.failed += evals
        else:
            run.failed += sum(log.diverged[mark:])
        return self.samples * self.epochs, wall

    def _check_unit(self, run, ckpt):
        rows = Path(f"{ckpt}.metrics.csv").read_text().splitlines()[1:]
        totals = [float(r.split(",")[3]) for r in rows]
        run.info["losses"].append(totals[-1] if totals else math.nan)
        run.info["digests"].append(_digest(ckpt))
        # keep one checkpoint for the digest comparison, drop the rest
        if len(run.info["digests"]) > 1:
            shutil.rmtree(ckpt.parent)
        elif not _loads(ckpt):
            return f"{ckpt}: checkpoint does not load with mlp.load_model"
        if len(totals) != self.epochs or not all(math.isfinite(t) for t in totals):
            return f"{ckpt}: expected {self.epochs} finite epoch losses, got {totals}"
        return None

    def check(self, run):
        digests = run.info["digests"]
        if len(set(digests)) > 1:
            run.fail(f"same-seed training gave {len(set(digests))} different checkpoints")
        losses = run.info["losses"]
        if len(set(losses)) > 1:
            run.fail(f"same-seed training gave different final losses: {sorted(set(losses))}")

    def report(self, run, throughput):
        losses = run.info["losses"]
        return {
            "train_samples_per_s": (throughput, "samples/s"),
            "train_final_loss": (losses[0] if losses else math.nan, "1"),
        }


class Eval30:
    """The paper's evaluation protocol on case30 (``eval --recover``)."""

    name = "eval-30"
    case = "case30"
    item = "test instances evaluated"

    def __init__(self, train=300, test=100, fit_epochs=100):
        self.train = train
        self.test = test
        self.fit_epochs = fit_epochs

    def setup(self, run):
        data = run.fresh_dir("data")
        rc, _ = run.call(_gen_data_argv(self.case, self.train, self.test, run.seed, data))
        if rc != 0:
            raise BenchError("labelling the case30 splits failed")
        model = data / "base.ckpt"
        argv = [
            "train", "--case", self.case, "--data-dir", data, "--epochs", self.fit_epochs,
            "--batch", 32, "--w2", 0, "--seed", TRAIN_SEED, "--out", model, "--workers", 1,
        ]
        rc, _ = run.call(argv)
        if rc != 0:
            raise BenchError("fitting the --w2 0 model failed")
        run.info.update(data=data, model=model, reports=[])

    def unit(self, run, key):
        report = run.fresh_dir("eval") / "report.csv"
        rc, wall = run.call([
            "eval", "--model", run.info["model"], "--case", self.case,
            "--data-dir", run.info["data"], "--recover", "--report", report,
            "--workers", 1,
        ])
        if rc != 0:
            run.attempted += self.test
            run.failed += self.test
            return 0, wall
        lines = report.read_text().splitlines()
        summary = dict(zip(lines[0].split(","), lines[1].split(",")))
        head = lines[2].split(",")
        rows = [dict(zip(head, line.split(","))) for line in lines[3:]]
        recoveries = sum(r["recovered"] != "" for r in rows)
        run.attempted += len(rows) + recoveries
        problem = self._check_report(summary, rows, wall)
        if problem:
            run.fail(f"{report}: {problem}")
            run.failed += len(rows) + recoveries
        else:
            run.failed += sum(r["pf_converged"] == "0" for r in rows)
            run.failed += sum(r["recovered"] == "0" for r in rows)
        self._record(run, summary, rows, wall)
        return len(rows), wall

    def _check_report(self, summary, rows, wall):
        if int(summary["n_instances"]) != self.test or len(rows) != self.test:
            return f"{summary['n_instances']} instances, test split has {self.test}"
        feasible = 100.0 * sum(r["feasible"] == "1" for r in rows) / len(rows)
        if _rel(feasible, float(summary["feasibility_rate"])) > 1e-5:
            return f"feasibility {summary['feasibility_rate']} != {feasible} from the rows"
        inside = sum(float(r["time_model"]) + float(r["time_ref"]) for r in rows)
        if not inside <= wall:
            return f"per-instance times {inside:.3f}s exceed the eval wall time {wall:.3f}s"
        return None

    def _record(self, run, summary, rows, wall):
        t_model = [float(r["time_model"]) for r in rows]
        t_ref = [float(r["time_ref"]) for r in rows]
        run.info["reports"].append(
            {
                "t_model": t_model,
                "t_ref": t_ref,
                "predicted_feasible": sum(r["recovered"] == "" for r in rows),
                "recovered": sum(r["recovered"] == "1" for r in rows),
                "cost_diff_pct": float(summary["cost_diff_pct"]),
                "wall": wall,
            }
        )

    def check(self, run):
        quality = {(r["predicted_feasible"], r["cost_diff_pct"]) for r in run.info["reports"]}
        if len(quality) > 1:
            run.fail(f"repeated eval of one model gave different results: {sorted(quality)}")

    def report(self, run, throughput):
        reps = run.info["reports"]
        if not reps:
            return {}
        t_model = [t * 1e3 for r in reps for t in r["t_model"]]
        t_ref = [t * 1e3 for r in reps for t in r["t_ref"]]
        out = {
            "eval_s": (float(np.median([r["wall"] for r in reps])), "s"),
            "model_path_p50_ms": (float(np.median(t_model)), "ms"),
            "ref_solve_p50_ms": (float(np.median(t_ref)), "ms"),
        }
        for label, xs in (("model_path_tail_ms", t_model), ("ref_solve_tail_ms", t_ref)):
            tl = tail(xs)
            if tl:
                out[label] = (tl[0], f"ms (p{tl[1]:.1f} of {tl[2]})")
        out["speedup"] = (
            float(np.mean(t_ref) / np.mean(t_model)),
            "x (mean ref / mean model; informational, falls when the reference solver gets faster)",
        )
        out["predicted_feasible_pct"] = (100.0 * reps[0]["predicted_feasible"] / self.test, "%")
        out["recovered_instances"] = (reps[0]["recovered"], "count")
        out["cost_gap_pct"] = (abs(reps[0]["cost_diff_pct"]), "%")
        return out


WORKLOADS = {w.name: w for w in (Label118, Train30, Eval30)}
