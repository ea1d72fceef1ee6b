"""Load-scenario sampling, scaling-factor codec, datasets, and the file formats.

The learned model works in scaling-factor space: every independent variable
x with box bounds maps to s in [0,1] via x = s*(x_max - x_min) + x_min.
Datasets pair sampled load vectors with the reference solver's encoded
independent variables.

Datasets and ``mlp`` checkpoints share one record codec (:func:`write_records`,
:func:`read_records`): a JSON header line, then one record of finite numbers
per line at 17 significant digits (lossless for 64-bit floats).
:func:`parse_json` reads every JSON input; :func:`header_fields` and
:func:`finite_values` check one.  Their errors take the caller's error class
and name the file.  ``ScalingSpec`` and ``Normalizer`` own their JSON form.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .netmodel import NetworkCase, build_admittance, frozen_array, read_text
from .opfref import solve_opf
from .powerflow import IndependentVars, PfInit

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1
MAX_DROP_FRACTION = 0.05


class DataError(Exception):
    pass


class CodecError(DataError):
    def __init__(self, var_id, message):
        self.var_id = var_id
        super().__init__(f"{var_id}: {message}")


def parse_json(path, text, what, error=DataError) -> dict:
    """``text``, from the start of file ``path``, as the JSON object ``what``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {what} is not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} is not a JSON object")
    return doc


def header_fields(doc, keys, path, what, error=DataError) -> list:
    """``doc[key]`` for each of ``keys``, or ``error`` naming ``path``, the
    part of the header (``what``) and the first missing key."""
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} is not a JSON object")
    for key in keys:
        if key not in doc:
            raise error(f"{path}: {what} has no {key!r}")
    return [doc[key] for key in keys]


def finite_values(values, where, error=DataError) -> np.ndarray:
    """``values`` as a float array, or ``error`` at ``where`` (``file:line``
    or ``file: field``) if one is malformed or not finite."""
    try:
        out = np.array([float(v) for v in values])
    except (TypeError, ValueError):
        raise error(f"{where}: malformed number") from None
    if not np.all(np.isfinite(out)):
        raise error(f"{where}: non-finite value")
    return out


def write_records(path, header, rows):
    """``header`` as one JSON line, then each row of numbers as one line."""
    lines = [json.dumps(header)]
    lines.extend(",".join("%.17g" % v for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_records(path, what, version, error=DataError):
    """Header and ``(line number, values)`` records of a :func:`write_records`
    file; blank lines are skipped."""
    lines = read_text(path, error).splitlines()
    if not lines:
        raise error(f"{path}: empty {what} file")
    header = parse_json(path, lines[0], f"{what} header", error)
    if header.get("format_version") != version:
        raise error(f"{path}: unsupported {what} format")
    records = [
        (lineno, finite_values(line.split(","), f"{path}:{lineno}", error))
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    return header, records


def record_values(path, record, shape, error=DataError) -> np.ndarray:
    """A record's values as an array of ``shape``, or ``error`` at its line."""
    lineno, values = record
    size = int(np.prod(shape))
    if values.size != size:
        raise error(f"{path}:{lineno}: expected {size} values, found {values.size}")
    return values.reshape(shape)


@dataclass(frozen=True)
class ScalingEntry:
    var_id: str
    x_min: float
    x_max: float


@dataclass(frozen=True)
class ScalingSpec:
    """Ordered bounds for the model output: slack |V| then (P, |V|) per PV bus."""

    entries: tuple[ScalingEntry, ...]

    @property
    def dimension(self):
        return len(self.entries)

    @cached_property
    def x_min(self):
        return frozen_array([e.x_min for e in self.entries])

    @cached_property
    def x_max(self):
        return frozen_array([e.x_max for e in self.entries])

    @classmethod
    def from_case(cls, case: NetworkCase) -> "ScalingSpec":
        slack_bus = case.buses[case.slack_index]
        entries = [ScalingEntry(f"vm:{slack_bus.id}", slack_bus.v_min, slack_bus.v_max)]
        for i, k in zip(case.pv_indices, case.pv_gen):
            bus = case.buses[i]
            gen = case.generators[k]
            entries.append(ScalingEntry(f"pg:{bus.id}", gen.p_min, gen.p_max))
            entries.append(ScalingEntry(f"vm:{bus.id}", bus.v_min, bus.v_max))
        for e in entries:
            if e.x_min > e.x_max:
                raise DataError(f"{e.var_id}: inverted bounds")
        return cls(entries=tuple(entries))

    def to_json(self) -> list:
        return [{"id": e.var_id, "min": e.x_min, "max": e.x_max} for e in self.entries]

    @classmethod
    def from_json(cls, doc, path) -> "ScalingSpec":
        """Inverse of :meth:`to_json`; ``path`` names the file in errors."""
        if not isinstance(doc, list):
            raise DataError(f"{path}: 'scaling_spec' is not a list")
        entries = []
        for k, e in enumerate(doc):
            what = f"'scaling_spec' entry {k}"
            var_id, *bounds = header_fields(e, ("id", "min", "max"), path, what)
            x_min, x_max = finite_values(bounds, f"{path}: {what}")
            entries.append(ScalingEntry(var_id, float(x_min), float(x_max)))
        return cls(entries=tuple(entries))


def encode(spec: ScalingSpec, x: np.ndarray) -> np.ndarray:
    """Physical values -> scaling factors in [0, 1]^d."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise DataError(f"expected {spec.dimension} values, got {x.shape}")
    s = np.empty_like(x)
    for k, e in enumerate(spec.entries):
        width = e.x_max - e.x_min
        if width == 0.0:
            if x[k] != e.x_min:
                raise CodecError(e.var_id, f"{x[k]!r} outside fixed value {e.x_min!r}")
            s[k] = 0.5
            continue
        if not (e.x_min <= x[k] <= e.x_max):
            raise CodecError(e.var_id, f"{x[k]!r} outside [{e.x_min!r}, {e.x_max!r}]")
        s[k] = (x[k] - e.x_min) / width
    return s


def decode(spec: ScalingSpec, s: np.ndarray) -> np.ndarray:
    """Scaling factors -> physical values, x = s*(x_max - x_min) + x_min.

    ``s`` is one vector (d,) or a stack (..., d) of them."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != (spec.dimension,):
        raise DataError(f"expected {spec.dimension} values, got {s.shape}")
    bad = np.flatnonzero((s < 0.0) | (s > 1.0))
    if bad.size:
        k = int(bad[0])
        raise CodecError(
            spec.entries[k % spec.dimension].var_id, f"scaling factor {s.flat[k]!r} outside [0, 1]"
        )
    return s * (spec.x_max - spec.x_min) + spec.x_min


@dataclass
class Normalizer:
    """Per-dimension standardization; zero-variance dimensions pass through."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, loads: np.ndarray) -> "Normalizer":
        loads = np.asarray(loads, dtype=float)
        mean = loads.mean(axis=0)
        std = loads.std(axis=0)
        passthrough = std == 0.0
        mean = np.where(passthrough, 0.0, mean)
        std = np.where(passthrough, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, loads):
        return (np.asarray(loads, dtype=float) - self.mean) / self.std

    def to_json(self) -> dict:
        return {"mean": np.asarray(self.mean).tolist(), "std": np.asarray(self.std).tolist()}

    @classmethod
    def from_json(cls, doc, path) -> "Normalizer":
        """Inverse of :meth:`to_json`; ``path`` names the file in errors."""
        mean, std = header_fields(doc, ("mean", "std"), path, "'normalizer'")
        return cls(
            mean=finite_values(mean, f"{path}: 'normalizer' 'mean'"),
            std=finite_values(std, f"{path}: 'normalizer' 'std'"),
        )


@dataclass
class TrainSample:
    loads: np.ndarray  # length 2N, P then Q, p.u.
    s_true: np.ndarray  # length d, in [0, 1]
    objective_true: float  # $/hr
    dependent_true: np.ndarray  # angles at non-slack buses ++ |V| at PQ buses


@dataclass
class Dataset:
    case_id: str
    spec: ScalingSpec
    normalizer: Normalizer
    samples: list[TrainSample]
    split: str
    seed: int
    load_range: tuple[float, float]
    dependent_mean: np.ndarray

    def __len__(self):
        return len(self.samples)

    @property
    def loads_matrix(self):
        return np.array([s.loads for s in self.samples])

    @property
    def s_matrix(self):
        return np.array([s.s_true for s in self.samples])


def sample_loads(case: NetworkCase, load_range, count, seed) -> np.ndarray:
    """Multiplicative uniform load scenarios, (count, 2N).

    Every bus's P and Q are scaled by independent uniform draws from
    [lo, hi]; zero default loads stay zero.
    """
    lo, hi = load_range
    if not (0 < lo <= hi):
        raise DataError(f"bad load range [{lo}, {hi}]")
    base = case.default_loads
    rng = np.random.default_rng(seed)
    factors = rng.uniform(lo, hi, size=(count, base.size))
    return factors * base[None, :]


def dependent_vector(case: NetworkCase, v_mag, v_ang) -> np.ndarray:
    """Dependent-state vector driving the Newton initial point: angles at
    non-slack buses followed by |V| at PQ buses, in bus order."""
    return np.concatenate(
        [np.asarray(v_ang)[case.nonslack_indices], np.asarray(v_mag)[case.pq_indices]]
    )


def pf_init_from_dependent(case: NetworkCase, dep: np.ndarray) -> PfInit:
    """Turn a (mean) dependent-state vector back into a full initial guess."""
    nonslack = case.nonslack_indices
    v_ang = np.zeros(case.n_bus)
    v_ang[nonslack] = dep[: nonslack.size]
    v_mag = np.ones(case.n_bus)
    v_mag[case.pq_indices] = dep[nonslack.size :]
    return PfInit(v_ang=v_ang, v_mag=v_mag)


def independent_values(case: NetworkCase, v_mag, p_gen) -> np.ndarray:
    """Physical independent variables in ScalingSpec order from a solution
    (bus voltage magnitudes plus the per-generator dispatch)."""
    v_mag = np.asarray(v_mag)
    return IndependentVars(
        v_slack=v_mag[case.slack_index],
        pv_p_gen=np.asarray(p_gen)[case.pv_gen],
        pv_v_mag=v_mag[case.pv_indices],
    ).to_vector()


_WORKER: dict = {}


def _init_worker(case):
    _WORKER["case"] = case
    _WORKER["adm"] = build_admittance(case)


def _label_worker(loads):
    sol = solve_opf(_WORKER["case"], loads=loads, adm=_WORKER["adm"])
    return (
        sol.converged,
        sol.objective,
        sol.v_mag,
        sol.v_ang,
        sol.p_gen,
        sol.q_gen,
    )


def build_dataset(
    case: NetworkCase,
    count_train: int,
    count_test: int,
    seed: int,
    load_range=(0.9, 1.1),
    workers: int = 1,
) -> tuple[Dataset, Dataset]:
    """Sample loads, label them with the reference solver, split and package.

    Non-converged reference solves are dropped (and logged); a drop rate
    above MAX_DROP_FRACTION aborts.  The normalizer and the Newton-init
    dependent-variable means are fitted on the training split only.
    """
    spec = ScalingSpec.from_case(case)
    total = count_train + count_test
    all_loads = sample_loads(case, load_range, total, seed)

    if workers > 1 and total > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(case,)
        ) as pool:
            labels = list(pool.map(_label_worker, all_loads, chunksize=8))
    else:
        _init_worker(case)
        labels = [_label_worker(ld) for ld in all_loads]

    def collect(indices, split):
        samples = []
        dropped = 0
        for idx in indices:
            converged, objective, v_mag, v_ang, p_gen, q_gen = labels[idx]
            if not converged:
                dropped += 1
                log.warning("dropping sample %d: reference solve did not converge", idx)
                continue
            x = independent_values(case, v_mag, p_gen)
            # interior-point outputs are strictly inside the box; the clip
            # only absorbs duplicate-representation rounding
            x = np.clip(x, spec.x_min, spec.x_max)
            samples.append(
                TrainSample(
                    loads=all_loads[idx],
                    s_true=encode(spec, x),
                    objective_true=float(objective),
                    dependent_true=dependent_vector(case, v_mag, v_ang),
                )
            )
        if indices.size and dropped > MAX_DROP_FRACTION * indices.size:
            raise DataError(
                f"{split}: {dropped}/{indices.size} reference solves failed, "
                "check the case data or load range"
            )
        return samples

    train_samples = collect(np.arange(count_train), "train")
    test_samples = collect(np.arange(count_train, total), "test")

    if train_samples:
        normalizer = Normalizer.fit(np.array([s.loads for s in train_samples]))
        dep_mean = np.mean([s.dependent_true for s in train_samples], axis=0)
    else:
        n = case.n_bus
        normalizer = Normalizer(mean=np.zeros(2 * n), std=np.ones(2 * n))
        dep_mean = np.zeros(case.n_bus - 1 + len(case.pq_indices))

    def make(samples, split):
        return Dataset(
            case_id=case.name,
            spec=spec,
            normalizer=normalizer,
            samples=samples,
            split=split,
            seed=seed,
            load_range=(float(load_range[0]), float(load_range[1])),
            dependent_mean=dep_mean,
        )

    return make(train_samples, "train"), make(test_samples, "test")


# ---------------------------------------------------------------------------
# persistence


def save_dataset(ds: Dataset, path):
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "case_id": ds.case_id,
        "split": ds.split,
        "seed": ds.seed,
        "load_range": list(ds.load_range),
        "count": len(ds.samples),
        "independent_draws_per_entry": True,
        "scaling_spec": ds.spec.to_json(),
        "normalizer": ds.normalizer.to_json(),
        "dependent_mean": ds.dependent_mean.tolist(),
    }
    rows = (
        np.concatenate([s.loads, s.s_true, [s.objective_true], s.dependent_true])
        for s in ds.samples
    )
    write_records(path, header, rows)


def load_dataset(path) -> Dataset:
    header, records = read_records(path, "dataset", DATASET_FORMAT_VERSION)
    case_id, split, seed, load_range, count, spec, normalizer, dep_mean = header_fields(
        header,
        ("case_id", "split", "seed", "load_range", "count", "scaling_spec", "normalizer",
         "dependent_mean"),
        path, "dataset header",
    )
    spec = ScalingSpec.from_json(spec, path)
    normalizer = Normalizer.from_json(normalizer, path)
    dep_mean = finite_values(dep_mean, f"{path}: 'dependent_mean'")
    d = spec.dimension
    n2 = len(normalizer.mean)
    width = n2 + d + 1 + len(dep_mean)
    rows = [record_values(path, record, (width,)) for record in records]
    if len(rows) != count:
        raise DataError(f"{path}: expected {count} records, found {len(rows)}")
    samples = [
        TrainSample(
            loads=row[:n2],
            s_true=row[n2 : n2 + d],
            objective_true=float(row[n2 + d]),
            dependent_true=row[n2 + d + 1 :],
        )
        for row in rows
    ]
    return Dataset(
        case_id=case_id,
        spec=spec,
        normalizer=normalizer,
        samples=samples,
        split=split,
        seed=seed,
        load_range=tuple(load_range),
        dependent_mean=dep_mean,
    )
