"""Load-scenario sampling, scaling-factor codec, datasets, and the file formats.

The learned model works in scaling-factor space: every independent variable
x with box bounds maps to s in [0,1] via x = s*(x_max - x_min) + x_min.
Datasets pair sampled load vectors with the reference solver's encoded
independent variables and objective; their header carries the power-flow start
(:class:`~deepsolve.powerflow.PfInit`), the mean voltages of the training
labels.

Datasets and ``mlp`` checkpoints share one record codec (:func:`write_records`,
:func:`read_records`): a JSON header line, then one record of finite numbers
per line at 17 significant digits (lossless for 64-bit floats).  Run
outputs (eval reports, training metrics) are CSV records of dataclass
fields, written by :func:`format_record` and read back by field type with
:func:`parse_record`, at the same 17 digits.  :func:`parse_json` reads
every JSON input, :func:`header_fields` its keys, each with the JSON kind
declared where it is read (a bool is not an integer), and :func:`json_numbers`
its number lists, whose entries must be JSON numbers too.  Every fault in an
input file is a ``DataError`` naming the file and, in a header, the part
and the key (a case file's ``CaseError`` derives from it).
``ScalingSpec`` and ``Normalizer`` own their JSON form; both headers carry
them and the power-flow start through :func:`pipeline_to_json`/:func:`pipeline_from_json`.
"""

from __future__ import annotations

import functools
import json
import logging
import reprlib
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .netmodel import (KIND_NAMES, DataError, NetworkCase, build_admittance, frozen_array, is_kind,
                       read_text)
from .opfref import BATCH_ROWS, solve_opf
from .powerflow import IndependentVars, PfInit

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 2
MAX_DROP_FRACTION = 0.05
FLOAT_FORMAT = "%.17g"  # lossless for 64-bit floats


class CodecError(DataError):
    def __init__(self, var_id, message):
        self.var_id = var_id
        super().__init__(f"{var_id}: {message}")


def parse_json(path, text, what) -> dict:
    """``text``, from the start of file ``path``, as the JSON object ``what``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        where = f"{path}:{exc.lineno}" if isinstance(exc, json.JSONDecodeError) else path
        raise DataError(f"{where}: {what} is not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    return doc


def header_fields(doc, keys, path, what) -> list:
    """``doc[key]`` for each key of ``keys``, a mapping from key to its kind
    (a type of ``netmodel.KIND_NAMES``), or ``DataError`` naming ``path``, the part of
    the header (``what``) and the first key that is missing or of another kind."""
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    values = []
    for key, kind in keys.items():
        if key not in doc:
            raise DataError(f"{path}: {what} has no {key!r}")
        value = doc[key]
        if not is_kind(value, kind):
            raise DataError(f"{path}: {what} {key!r} is {reprlib.repr(value)}, not {KIND_NAMES[kind]}")
        values.append(value)
    return values


def finite_values(values, where) -> np.ndarray:
    """``values`` as a float array, or ``DataError`` at ``where`` (``file:line``
    or ``file: field``) if one is malformed or not finite."""
    try:
        out = np.array([float(v) for v in values])
    except (TypeError, ValueError, OverflowError):  # OverflowError: float(10**400)
        raise DataError(f"{where}: malformed number") from None
    if not np.all(np.isfinite(out)):
        raise DataError(f"{where}: non-finite value")
    return out


def json_numbers(values, where) -> np.ndarray:
    """A header's JSON number list as :func:`finite_values`, after checking
    that every entry is a JSON number: a string such as ``"0.5"``, a bool or
    null is ``DataError`` at ``where`` (``file: key``) rather than parsed."""
    for k, v in enumerate(values):
        if not is_kind(v, float):
            raise DataError(f"{where} entry {k} is {reprlib.repr(v)}, not {KIND_NAMES[float]}")
    return finite_values(values, where)


def write_records(path, header, rows):
    """``header`` as one JSON line, then each row of numbers as one line."""
    lines = [json.dumps(header)]
    lines.extend(",".join(FLOAT_FORMAT % v for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def format_cell(value) -> str:
    """One CSV cell: '' for None, 0/1 for a bool, a float at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % value
    return str(value)


def format_record(obj, names) -> str:
    """The attributes ``names`` of ``obj`` as one CSV line of :func:`format_cell` cells."""
    return ",".join(format_cell(getattr(obj, name)) for name in names)


def parse_cell(text: str, kind):
    """Inverse of :func:`format_cell` for a value of type ``kind`` (``bool``,
    ``int``, ``float`` or ``str``, or one of them ``| None``).  An empty
    cell is None for an optional type; a malformed cell raises ``ValueError``."""
    options = typing.get_args(kind) or (kind,)
    if text == "" and type(None) in options:
        return None
    kind = options[0]
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"{text!r} is not 0 or 1")
        return text == "1"
    return kind(text)


def parse_record(cls, cells):
    """A ``cls`` dataclass from one record's ``cells``, one per field in field
    order, each parsed by its field's type (the inverse of
    :func:`format_record` over every field).  A malformed record raises
    ``ValueError``."""
    columns = fields(cls)
    if len(cells) != len(columns):
        raise ValueError(f"{len(cells)} cells under {len(columns)} columns")
    kinds = typing.get_type_hints(cls)
    return cls(**{f.name: parse_cell(c, kinds[f.name]) for f, c in zip(columns, cells)})


def read_records(path, what, version):
    """Header and ``(line number, values)`` records of a :func:`write_records`
    file; blank lines are skipped."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty {what} file")
    header = parse_json(path, lines[0], f"{what} header")
    if header.get("format_version") != version:
        raise DataError(f"{path}: unsupported {what} format")
    records = [
        (lineno, finite_values(line.split(","), f"{path}:{lineno}"))
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    return header, records


def record_values(path, record, shape) -> np.ndarray:
    """A record's values as an array of ``shape``, or ``DataError`` at its line."""
    lineno, values = record
    size = int(np.prod(shape))
    if values.size != size:
        raise DataError(f"{path}:{lineno}: expected {size} values, found {values.size}")
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
        entries = []
        for k, e in enumerate(doc):
            what = f"'scaling_spec' entry {k}"
            var_id, *bounds = header_fields(e, {"id": str, "min": float, "max": float}, path, what)
            x_min, x_max = finite_values(bounds, f"{path}: {what}")
            entries.append(ScalingEntry(var_id, float(x_min), float(x_max)))
        return cls(entries=tuple(entries))


def encode(spec: ScalingSpec, x: np.ndarray) -> np.ndarray:
    """Physical values -> scaling factors in [0, 1]^d; a fixed entry
    (x_min == x_max) must hold its value and encodes as 0.5.

    ``x`` is one vector (d,) or a stack (..., d) of them.  An entry outside
    its box, or NaN, raises CodecError naming its variable."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (spec.dimension,):
        raise DataError(f"expected {spec.dimension} values, got {x.shape}")
    lo, hi = spec.x_min, spec.x_max
    # written as a negated test so that NaN, which fails every comparison, is out
    bad = np.flatnonzero(~((lo <= x) & (x <= hi)))
    if bad.size:
        k = int(bad[0])
        e = spec.entries[k % spec.dimension]
        box = f"fixed value {e.x_min!r}" if e.x_min == e.x_max else f"[{e.x_min!r}, {e.x_max!r}]"
        raise CodecError(e.var_id, f"{float(x.flat[k])!r} outside {box}")
    fixed = lo == hi
    return np.where(fixed, 0.5, (x - lo) / np.where(fixed, 1.0, hi - lo))


def decode(spec: ScalingSpec, s: np.ndarray) -> np.ndarray:
    """Scaling factors -> physical values, x = s*(x_max - x_min) + x_min.

    ``s`` is one vector (d,) or a stack (..., d) of them.  A factor outside
    [0, 1], or NaN, raises CodecError naming its variable."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != (spec.dimension,):
        raise DataError(f"expected {spec.dimension} values, got {s.shape}")
    bad = np.flatnonzero(~((0.0 <= s) & (s <= 1.0)))  # negated, so NaN is out
    if bad.size:
        k = int(bad[0])
        e = spec.entries[k % spec.dimension]
        raise CodecError(e.var_id, f"scaling factor {float(s.flat[k])!r} outside [0, 1]")
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
        mean, std = header_fields(doc, {"mean": list, "std": list}, path, "'normalizer'")
        mean = json_numbers(mean, f"{path}: 'normalizer' 'mean'")
        std = json_numbers(std, f"{path}: 'normalizer' 'std'")
        if np.any(std <= 0.0):
            k = int(np.argmax(std <= 0.0))
            raise DataError(f"{path}: 'normalizer' 'std' entry {k} is {std[k]}, not positive")
        return cls(mean=mean, std=std)


def pipeline_to_json(spec: ScalingSpec, normalizer: Normalizer, pf_init: PfInit) -> dict:
    """The fitted pipeline as the keys of a dataset or checkpoint header."""
    return {
        "scaling_spec": spec.to_json(),
        "normalizer": normalizer.to_json(),
        "pf_init": {"v_ang": np.asarray(pf_init.v_ang).tolist(),
                    "v_mag": np.asarray(pf_init.v_mag).tolist()},
    }


def pipeline_from_json(header, path, what, n_bus=None):
    """``(spec, normalizer, pf_init)`` from the header ``what`` of file
    ``path``; a missing or bad part raises ``DataError``.
    The normalizer holds two values per bus, the power-flow start one; without
    ``n_bus``, most of those four vectors must agree on the bus count."""
    keys = {"scaling_spec": list, "normalizer": dict, "pf_init": dict}
    spec, normalizer, pf_init = header_fields(header, keys, path, what)
    spec = ScalingSpec.from_json(spec, path)
    normalizer = Normalizer.from_json(normalizer, path)
    v_ang, v_mag = header_fields(pf_init, {"v_ang": list, "v_mag": list}, path, "'pf_init'")
    pf_init = PfInit(json_numbers(v_ang, f"{path}: 'pf_init' 'v_ang'"),
                     json_numbers(v_mag, f"{path}: 'pf_init' 'v_mag'"))
    vectors = {
        "'normalizer' 'mean'": (normalizer.mean, 2),
        "'normalizer' 'std'": (normalizer.std, 2),
        "'pf_init' 'v_ang'": (pf_init.v_ang, 1),
        "'pf_init' 'v_mag'": (pf_init.v_mag, 1),
    }
    if n_bus is None:
        votes = [v.size // k for v, k in vectors.values() if v.size % k == 0]
        n_bus = max(votes, key=votes.count)
    for key, (values, per_bus) in vectors.items():
        if values.size != per_bus * n_bus:
            raise DataError(
                f"{path}: {key} has {values.size} values, expected {per_bus * n_bus} "
                f"({'one' if per_bus == 1 else 'two'} per bus)"
            )
    return spec, normalizer, pf_init


@dataclass
class TrainSample:
    loads: np.ndarray  # length 2N, P then Q, p.u.
    s_true: np.ndarray  # length d, in [0, 1]
    objective_true: float  # $/hr


@dataclass
class Dataset:
    case_id: str
    spec: ScalingSpec
    normalizer: Normalizer
    samples: list[TrainSample]
    split: str
    seed: int
    load_range: tuple[float, float]
    pf_init: PfInit  # power-flow start: mean v_ang and v_mag of the training labels

    def __len__(self):
        return len(self.samples)

    @property
    def loads_matrix(self):
        return np.array([s.loads for s in self.samples])

    @property
    def s_matrix(self):
        return np.array([s.s_true for s in self.samples])


def check_load_range(lo, hi):
    """Reject a load scaling range [lo, hi] that is not finite with 0 < lo <= hi."""
    if not (0 < lo <= hi < np.inf):
        raise DataError(f"bad load range [{lo}, {hi}]; need finite 0 < lo <= hi")


def sample_loads(case: NetworkCase, load_range, count, seed) -> np.ndarray:
    """Multiplicative uniform load scenarios, (count, 2N).

    Every bus's P and Q are scaled by independent uniform draws from
    [lo, hi] (see :func:`check_load_range`); zero default loads stay zero.
    """
    lo, hi = load_range
    check_load_range(lo, hi)
    base = case.default_loads
    rng = np.random.default_rng(seed)
    factors = rng.uniform(lo, hi, size=(count, base.size))
    return factors * base[None, :]


def independent_values(case: NetworkCase, v_mag, p_gen) -> np.ndarray:
    """Physical independent variables in ScalingSpec order from a solution
    (bus voltage magnitudes plus the per-generator dispatch)."""
    v_mag = np.asarray(v_mag)
    return IndependentVars(
        v_slack=v_mag[case.slack_index],
        pv_p_gen=np.asarray(p_gen)[case.pv_gen],
        pv_v_mag=v_mag[case.pv_indices],
    ).to_vector()


def build_dataset(
    case: NetworkCase,
    count_train: int,
    count_test: int,
    seed: int,
    load_range=(0.9, 1.1),
    workers: int = 1,
) -> tuple[Dataset, Dataset]:
    """Sample loads, label them with the reference solver, split and package.

    The samples are labelled in consecutive chunks of ``opfref.BATCH_ROWS``,
    each chunk one lockstep ``solve_opf`` call on its (rows, 2N) loads;
    ``workers`` processes, or one per chunk if there are fewer chunks, share
    them; the chunk boundaries do not depend on it, so the labels do not
    either.  Non-converged reference solves are dropped (and logged); a drop
    rate above MAX_DROP_FRACTION of a split aborts.  The converged labels'
    independent values are encoded as one stack.  The normalizer (on the
    loads) and the power-flow start (the mean ``v_ang`` and ``v_mag``) are
    fitted on the converged training rows only; an empty training split
    gives the flat start.
    """
    if count_train < 0 or count_test < 0:
        raise DataError(f"sample counts must be nonnegative, got {count_train} and {count_test}")
    if workers < 1:
        raise DataError(f"need at least one worker process, got {workers}")
    spec = ScalingSpec.from_case(case)
    total = count_train + count_test
    all_loads = sample_loads(case, load_range, total, seed)
    chunks = [all_loads[k : k + BATCH_ROWS] for k in range(0, total, BATCH_ROWS)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            solved = list(pool.map(functools.partial(solve_opf, case), chunks))
    else:
        adm = build_admittance(case)
        solved = [solve_opf(case, chunk, adm=adm) for chunk in chunks]
    labels = [sol for chunk in solved for sol in chunk]

    converged = np.array([sol.converged for sol in labels], dtype=bool)
    for split, start, stop in (("train", 0, count_train), ("test", count_train, total)):
        failed = start + np.flatnonzero(~converged[start:stop])
        for idx in failed:
            log.warning("dropping sample %d: reference solve did not converge", idx)
        if failed.size > MAX_DROP_FRACTION * (stop - start):
            raise DataError(
                f"{split}: {failed.size}/{stop - start} reference solves failed, "
                "check the case data or load range"
            )
    kept, loads = [sol for sol in labels if sol.converged], all_loads[converged]
    x = np.array([independent_values(case, sol.v_mag, sol.p_gen) for sol in kept])
    # interior-point outputs are strictly inside the box; the clip only
    # absorbs duplicate-representation rounding
    s_true = encode(spec, np.clip(x.reshape(len(kept), spec.dimension), spec.x_min, spec.x_max))
    samples = [
        TrainSample(loads=row, s_true=s, objective_true=sol.objective)
        for row, s, sol in zip(loads, s_true, kept)
    ]
    n_train = int(converged[:count_train].sum())

    n = case.n_bus
    if n_train:
        normalizer = Normalizer.fit(loads[:n_train])
        pf_init = PfInit(
            v_ang=np.mean([sol.v_ang for sol in kept[:n_train]], axis=0),
            v_mag=np.mean([sol.v_mag for sol in kept[:n_train]], axis=0),
        )
    else:
        normalizer = Normalizer(mean=np.zeros(2 * n), std=np.ones(2 * n))
        pf_init = PfInit(v_ang=np.zeros(n), v_mag=np.ones(n))

    train = Dataset(
        case_id=case.name,
        spec=spec,
        normalizer=normalizer,
        samples=samples[:n_train],
        split="train",
        seed=seed,
        load_range=(float(load_range[0]), float(load_range[1])),
        pf_init=pf_init,
    )
    return train, replace(train, samples=samples[n_train:], split="test")


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
        **pipeline_to_json(ds.spec, ds.normalizer, ds.pf_init),
    }
    rows = (np.concatenate([s.loads, s.s_true, [s.objective_true]]) for s in ds.samples)
    write_records(path, header, rows)


def load_dataset(path) -> Dataset:
    header, records = read_records(path, "dataset", DATASET_FORMAT_VERSION)
    keys = {"case_id": str, "split": str, "seed": int, "load_range": list, "count": int}
    case_id, split, seed, load_range, count = header_fields(header, keys, path, "dataset header")
    spec, normalizer, pf_init = pipeline_from_json(header, path, "dataset header")
    n2 = normalizer.mean.size
    if count < 0:
        raise DataError(f"{path}: 'count' is {count}, not a nonnegative integer")
    load_range = json_numbers(load_range, f"{path}: 'load_range'")
    if load_range.shape != (2,):
        raise DataError(f"{path}: 'load_range' has {load_range.size} values, expected lo and hi")
    d = spec.dimension
    width = n2 + d + 1
    rows = [record_values(path, record, (width,)) for record in records]
    if len(rows) != count:
        raise DataError(f"{path}: expected {count} records, found {len(rows)}")
    samples = [TrainSample(row[:n2], row[n2 : n2 + d], float(row[n2 + d])) for row in rows]
    return Dataset(
        case_id=case_id,
        spec=spec,
        normalizer=normalizer,
        samples=samples,
        split=split,
        seed=seed,
        load_range=tuple(load_range.tolist()),
        pf_init=pf_init,
    )
