"""deepsolve benchmark: one workload per run, driven through the public CLI.

    python3 perfbench/run.py --workload {label-118,train-30,eval-30} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are per-layer figures from a separate traced
run.  Everything printed before that line (environment, CLI argv,
workload-specific figures, the per-layer table) is informational.

One process, one caller, closed loop: each timed CLI call starts when the
previous one has returned, so there is no queue and no wait time to report.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYERS, Recorder, summarize, warm_cold_iterations  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACE_PAIRS = 3
# Wall time of one ReferenceKernel.run() on the build host (Intel Xeon at
# 2.0 GHz, single-threaded OpenBLAS 0.3.31) when no other tenant slowed it.
REFERENCE_KERNEL_S = 0.11


class ReferenceKernel:
    """Fixed work timed next to the program to measure the host's speed.

    The build host is shared: other tenants slow every process on it by up
    to 50% for minutes at a time, in CPU time as much as in wall time.  The
    kernel mixes the program's kinds of work (small complex numpy
    operations driven from Python, fancy indexing, Python objects and a
    dense LAPACK solve), so it slows down with the program and the ratio of
    the two cancels the host's state.
    """

    def __init__(self):
        rng = np.random.default_rng(20200702)
        self.y = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
        self.a = rng.normal(size=(240, 240)) + 240.0 * np.eye(240)
        self.rows = [{"id": i, "value": float(i)} for i in range(2000)]

    def run(self):
        """Seconds taken by the fixed work."""
        t0 = time.perf_counter()
        v = np.ones(60, dtype=complex)
        for i in range(4000):
            s = v * np.conj(self.y @ v)
            v = v / np.abs(v) * (1.0 + 1e-3 * np.tanh(s.real))
            idx = np.arange(i % 5, 60, 3)
            v[idx] += 1e-6 * self.y[np.ix_(idx, idx)].real.sum()
        total = 0.0
        for _ in range(20):
            for row in self.rows:
                total += row["value"] * (1 if row["id"] % 2 else -1)
        for _ in range(24):
            np.linalg.solve(self.a, np.full(240, total + 1.0))
        return time.perf_counter() - t0


# Per-layer figures printed in the JSON result of a traced run.  Call counts
# cover every layer; times only the layers every workload exercises (a layer
# a workload never calls would read a constant zero).
TIMED_LAYERS = (
    "netmodel.load_case",
    "netmodel.build_admittance",
    "opfref.solve_opf",
    "opfref.dsbus_dv",
    "dataio.build_dataset",
    "dataio.encode",
    "dataio.save_dataset",
    "cli.write_manifest",
    "cli.cmd_gen_data",
)
SOLVER_LAYERS = ("opfref.solve_opf", "opfref.recover", "powerflow.solve_pf")


def per_layer_metrics(spans, sizes, overhead_ms):
    """The JSON figures of a traced run; also defines the per-layer names."""
    whole = summarize(spans)

    def q(layer, key):
        return whole.get(layer, {}).get(key, 0)

    m = {f"{layer[0]}.calls": (q(layer[0], "calls"), "count") for layer in LAYERS}
    m.update({f"{name}.self_ms": (float(q(name, "self_ms")), "ms") for name in TIMED_LAYERS})
    for name in SOLVER_LAYERS:
        m[f"{name}.iters"] = (q(name, "iters"), "count")
        m[f"{name}.failed"] = (q(name, "failed"), "count")
    iters = q("opfref.solve_opf", "iters")
    m["opfref.solve_opf.ms_per_iter"] = (
        q("opfref.solve_opf", "total_ms") / iters if iters else 0.0, "ms"
    )
    m["dataio.save_dataset.bytes"] = (q("dataio.save_dataset", "bytes"), "bytes")
    m["dataio.load_dataset.bytes"] = (q("dataio.load_dataset", "bytes"), "bytes")
    m.update({k: (v, "Mflop" if k.endswith("mflop") else "count") for k, v in sizes.items()})
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return {name: _metric(v, u) for name, (v, u) in m.items()}


def kernel_sizes(case):
    """Computed (not measured) dense system sizes and LU flop counts."""
    n, ng = case.n_bus, len(case.generators)
    kkt = (2 * n + 2 * ng) + (2 * n + 1)  # x = [va, vm, pg, qg]; balance + slack angle
    jac = (n - 1) + len(case.pq_indices)
    lu = lambda m: 2.0 * m**3 / 3.0 / 1e6  # noqa: E731
    return {
        "opfref.kkt_dim": kkt,
        "opfref.kkt_lu_mflop": lu(kkt),
        "powerflow.jac_dim": jac,
        "powerflow.jac_lu_mflop": lu(jac),
    }


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, work):
    """Untraced run: set-up repeats, then timed units for ``seconds``."""
    from workloads import Run

    run = Run(work=work, seed=seed)
    kernel = ReferenceKernel()
    kernel_s = [kernel.run()]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(run)
        setup.append(time.perf_counter() - t0)
        kernel_s.append(kernel.run())
    items, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        n, wall = workload.unit(run, len(walls))
        items.append(n)
        walls.append(wall)
        kernel_s.append(kernel.run())
    workload.check(run)
    # host speed over the run: 1 when uncontended, lower when other tenants
    # slow the machine down; times are reported at the uncontended speed
    speed = REFERENCE_KERNEL_S / statistics.mean(kernel_s)
    throughput = sum(items) / sum(walls)
    metrics = {
        "setup_s": _metric(statistics.median(setup) * speed, "s"),
        "items_per_s": _metric(throughput / speed, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {name: {"value": v, "unit": u} for name, (v, u) in workload.report(run, throughput).items()}
    info["host_speed"] = {"value": speed, "unit": f"x uncontended ({len(kernel_s)} kernel runs)"}
    info["items_per_s_raw"] = {"value": throughput, "unit": "1/s, wall clock"}
    info["setup_s_raw"] = {"value": statistics.median(setup), "unit": "s, wall clock"}
    info["timed_calls_s"] = {"value": walls, "unit": f"s per CLI call of {items[0]} {workload.item}"}
    info["setup_runs_s"] = {"value": setup, "unit": "s"}
    return run, metrics, info


def measure_traced(workload, seed, work):
    """Traced run: traced set-up, then the first timed unit alternately untraced
    and traced; the overhead compares the fastest of each."""
    from deepsolve.netmodel import load_case
    from workloads import Run

    run = Run(work=work, seed=seed)
    rec = Recorder()
    with rec.recording("setup"):
        workload.setup(run)
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(workload.unit(run, 0)[1])
        with rec.recording("timed"):
            traced.append(workload.unit(run, 0)[1])
    workload.check(run)

    sizes = kernel_sizes(load_case(workload.case))
    metrics = per_layer_metrics(rec.spans, sizes, (min(traced) - min(plain)) * 1e3)

    warm, cold = warm_cold_iterations(rec.spans, {"timed"})
    pf = summarize(rec.spans, {"timed"}).get("powerflow.solve_pf")
    info = {
        "untraced_unit_s": plain,
        "traced_unit_s": traced,
        "missing_layers": rec.missing,
        "warm_over_cold_iterations": warm / cold if warm is not None and cold else None,
        "pf_converged_over_attempted": (
            (pf["calls"] - pf["failed"]) / pf["calls"] if pf and pf["calls"] else None
        ),
        "computed_kernel_sizes": sizes,
        "layers": {phase: summarize(rec.spans, {phase}) for phase in ("setup", "timed")},
    }
    return run, metrics, info


def print_layers(info):
    print(f"# per-layer (self_ms excludes child spans); missing layers: {info['missing_layers'] or 'none'}")
    print(f"# {'layer':34s} {'phase':6s} {'calls':>7s} {'self_ms':>10s} {'total_ms':>10s} {'iters':>7s} {'failed':>6s}")
    for phase, table in info["layers"].items():
        for name, row in sorted(table.items()):
            print(f"# {name:34s} {phase:6s} {row['calls']:7d} {row['self_ms']:10.2f} "
                  f"{row['total_ms']:10.2f} {row['iters']:7d} {row['failed']:6d}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "deepsolve" / "cli.py").is_file():
        print(f"error: no deepsolve sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, BenchError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    # warnings from the program stay visible; INFO records go only to the
    # benchmark's own handlers
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    for handler in logging.getLogger().handlers:
        handler.setLevel(logging.WARNING)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            run, metrics, info = measure_traced(workload, args.seed, work)
        else:
            run, metrics, info = measure(workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("# environment: " + json.dumps(environment(args.seed)))
    for argv_ in run.argv_log:
        print("# argv: deepsolve " + " ".join(argv_))
    print("# wait time: 0 by construction (one process, one caller, no queue)")
    if args.trace:
        print_layers(info)
        extra = {k: v for k, v in info.items() if k != "layers"}
        print("# trace: " + json.dumps(extra, default=str))
    else:
        for name, m in info.items():
            print(f"# {args.workload} {name} = {m['value']} {m['unit']}")
    print(f"# ops: attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
