"""Span recorder for the traced benchmark run.

The recorder wraps public deepsolve functions from outside the package.
Each wrapped object is replaced in every ``deepsolve`` module that holds a
reference to it, so a call made through ``module.func`` and one made
through a ``from module import func`` name both land here.  Spans (name,
phase, start, end, parent) stay in memory until the run ends; nothing is
written while the program runs.

A layer whose function no longer exists (after a rename or a merge) is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "deepsolve"


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    parent: int | None = None
    iters: int = 0
    failed: bool = False
    nbytes: int = 0


def _solver_outcome(span, args, kwargs, result):
    span.iters = int(getattr(result, "iterations", 0))
    span.failed = not bool(getattr(result, "converged", True))


def _saved_bytes(span, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    span.nbytes = Path(path).stat().st_size


def _loaded_bytes(span, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    span.nbytes = Path(path).stat().st_size


# (layer name, module that defines the object, attribute path,
#  modules to patch -- None means every deepsolve module holding it,
#  outcome hook)
# dsbus_dv appears twice on purpose: the power-flow Jacobian and the OPF
# constraint Jacobians are separate uses of one kernel.
LAYERS = (
    ("netmodel.load_case", "netmodel", "load_case", None, None),
    ("netmodel.build_admittance", "netmodel", "build_admittance", None, None),
    ("powerflow.solve_pf", "powerflow", "solve_pf", None, _solver_outcome),
    ("powerflow.dsbus_dv", "powerflow", "dsbus_dv", ("powerflow",), None),
    ("powerflow.branch_flows", "powerflow", "branch_flows", None, None),
    ("powerflow.check_feasibility", "powerflow", "check_feasibility", None, None),
    ("opfref.solve_opf", "opfref", "solve_opf", None, _solver_outcome),
    ("opfref.recover", "opfref", "recover", None, _solver_outcome),
    ("opfref.dsbus_dv", "powerflow", "dsbus_dv", ("opfref",), None),
    ("dataio.encode", "dataio", "encode", None, None),
    ("dataio.decode", "dataio", "decode", None, None),
    ("dataio.build_dataset", "dataio", "build_dataset", None, None),
    ("dataio.save_dataset", "dataio", "save_dataset", None, _saved_bytes),
    ("dataio.load_dataset", "dataio", "load_dataset", None, _loaded_bytes),
    ("mlp.forward", "mlp", "forward", None, None),
    ("mlp.backward", "mlp", "backward", None, None),
    ("mlp.adam_step", "mlp", "adam_step", None, None),
    ("mlp.save_model", "mlp", "save_model", None, None),
    ("mlp.load_model", "mlp", "load_model", None, None),
    ("trainer.train", "trainer", "train", None, None),
    ("trainer.zo_grad", "trainer", "zo_grad", None, None),
    ("trainer.penalty_loss", "trainer", "penalty_loss", None, None),
    ("estimator.OpfPredictor.fit", "estimator", "OpfPredictor.fit", None, None),
    ("evaluator.evaluate", "evaluator", "evaluate", None, None),
    ("evaluator.recover_infeasible", "evaluator", "recover_infeasible", None, None),
    ("evaluator.report_csv", "evaluator", "report_csv", None, None),
    ("cli.write_manifest", "cli", "write_manifest", None, None),
    ("cli.cmd_gen_data", "cli", "cmd_gen_data", None, None),
    ("cli.cmd_train", "cli", "cmd_train", None, None),
    ("cli.cmd_eval", "cli", "cmd_eval", None, None),
    ("cli.cmd_solve_opf", "cli", "cmd_solve_opf", None, None),
)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Recorder:
    """Installs wrappers on the layers above and collects their spans."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._phase = None

    # -- patching ---------------------------------------------------------
    def _wrap(self, name, fn, outcome):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._phase, time.perf_counter())
            span.parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if outcome is not None:
                outcome(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def recording(self, phase):
        """Wrap every layer while the block runs; spans carry ``phase``."""
        self._phase = phase
        self.missing = []
        importlib.import_module(PACKAGE)
        # resolve every target before patching any: two layers may share one
        # function object (dsbus_dv) and must both see the original
        plan = [p for layer in self.layers for p in self._resolve(*layer)]
        undo = [(holder, key, getattr(holder, key)) for holder, key, _ in plan]
        try:
            for holder, key, wrapper in plan:
                setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def _resolve(self, name, module, attr, only_in, outcome):
        """(holder, attribute, wrapper) triples for one layer."""
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            target = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return []
        wrapper = self._wrap(name, target, outcome)
        if path:  # a method: patch the class attribute
            return [(owner, leaf, wrapper)]
        allowed = None if only_in is None else {f"{PACKAGE}.{m}" for m in only_in}
        holders = [
            (m, key, wrapper)
            for m in _package_modules()
            if allowed is None or m.__name__ in allowed
            for key, value in list(vars(m).items())
            if value is target
        ]
        if not holders:
            self.missing.append(name)
        return holders


# -- arithmetic ----------------------------------------------------------------


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(idx, ())
            if e > span.start and s < span.end
        ]
        out.append((span.end - span.start) - covered_length(clipped))
    return out


def summarize(spans, phases=None):
    """Per-layer calls, self/total ms, iterations, failures and bytes."""
    selfs = self_times(spans)
    table = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "iters": 0, "failed": 0, "bytes": 0}
    )
    for span, own in zip(spans, selfs):
        if phases is not None and span.phase not in phases:
            continue
        row = table[span.name]
        row["calls"] += 1
        row["self_ms"] += own * 1e3
        row["total_ms"] += (span.end - span.start) * 1e3
        row["iters"] += span.iters
        row["failed"] += int(span.failed)
        row["bytes"] += span.nbytes
    return dict(table)


def warm_cold_iterations(spans, phases=None):
    """Mean IPM iterations of recover() calls and of cold solve_opf() calls."""
    warm, cold = [], []
    for span in spans:
        if phases is not None and span.phase not in phases:
            continue
        if span.name == "opfref.recover":
            warm.append(span.iters)
        elif span.name == "opfref.solve_opf" and (
            span.parent is None or spans[span.parent].name != "opfref.recover"
        ):
            cold.append(span.iters)
    mean = lambda xs: sum(xs) / len(xs) if xs else None  # noqa: E731
    return mean(warm), mean(cold)
