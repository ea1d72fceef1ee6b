"""Grid case parsing, validation and admittance-matrix assembly.

Two on-disk formats are supported:

* a pragmatic subset of the MATPOWER matrix text format (``mpc.baseMVA``,
  ``mpc.bus``, ``mpc.gen``, ``mpc.branch``, ``mpc.gencost``), columns in
  MATPOWER manual order, quantities in MW/MVAr/MVA;
* the repo's canonical JSON format (``format_version`` 1), already in
  per-unit, which is the source of truth for the shipped cases.

Each MATPOWER row is first turned into its element's canonical object, so
both formats build and check their elements in one place.  Everything
downstream works on the validated per-unit :class:`NetworkCase`.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

CANONICAL_FORMAT_VERSION = 1


class DeepsolveError(Exception):
    """Base class of every domain error: bad input or a failed solve, not a bug."""


class DataError(DeepsolveError):
    """A malformed input file or option value; the message names the file and the part."""


class CaseError(DataError):
    """Base class for case-file problems."""


class CaseSyntaxError(CaseError):
    """Malformed case text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CaseValidationError(CaseError):
    """Structurally parsed but semantically invalid case."""


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    p_load: float
    q_load: float
    v_min: float
    v_max: float
    shunt_g: float = 0.0
    shunt_b: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    series_r: float
    series_x: float
    charging_b: float = 0.0
    tap_ratio: float = 1.0
    phase_shift: float = 0.0  # radians
    s_max: float = 0.0  # p.u. apparent power; 0 means unlimited


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    v_setpoint: float = 1.0


@dataclass(frozen=True)
class CostCurve:
    """Quadratic generation cost c2*P^2 + c1*P + c0 with P in p.u."""

    c2: float
    c1: float
    c0: float


def frozen_array(values, dtype=float):
    """A fresh read-only array, so a shared cached fact cannot be edited."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def _field_array(elements, name):
    """Cached read-only array of field ``name`` over the case's ``elements``."""
    return cached_property(
        lambda case: frozen_array([getattr(e, name) for e in getattr(case, elements)])
    )


@dataclass(frozen=True)
class NetworkCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    cost_curves: tuple[CostCurve, ...]

    @property
    def n_bus(self):
        return len(self.buses)

    def bus_index(self, bus_id):
        """Positional index of an external bus id."""
        try:
            return self._bus_index[bus_id]
        except KeyError:
            raise CaseValidationError(f"unknown bus id {bus_id}") from None

    # Derived facts below are computed on first use, after validate_case has
    # had its say, and shared by every caller; the arrays are read-only.

    @cached_property
    def _bus_index(self):
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def slack_index(self):
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SLACK)

    @cached_property
    def pv_indices(self):
        return frozen_array([i for i, b in enumerate(self.buses) if b.kind is BusKind.PV], int)

    @cached_property
    def pq_indices(self):
        return frozen_array([i for i, b in enumerate(self.buses) if b.kind is BusKind.PQ], int)

    @cached_property
    def gen_bus(self):
        """Bus position of each generator."""
        return frozen_array([self.bus_index(g.bus) for g in self.generators], int)

    @cached_property
    def pv_gen(self):
        """Generator position of each PV bus, in bus order."""
        gen_at = self._gen_lookup()
        return frozen_array([gen_at[i] for i in self.pv_indices], int)

    @cached_property
    def slack_gen(self):
        """Generator position of the slack bus."""
        return self._gen_lookup()[self.slack_index]

    def _gen_lookup(self):
        """Map bus positional index -> generator positional index."""
        return {int(b): k for k, b in enumerate(self.gen_bus)}

    # per-element fields as arrays, in element order
    v_min = _field_array("buses", "v_min")
    v_max = _field_array("buses", "v_max")
    p_min = _field_array("generators", "p_min")
    p_max = _field_array("generators", "p_max")
    q_min = _field_array("generators", "q_min")
    q_max = _field_array("generators", "q_max")
    c2 = _field_array("cost_curves", "c2")
    c1 = _field_array("cost_curves", "c1")
    c0 = _field_array("cost_curves", "c0")
    s_max = _field_array("branches", "s_max")  # p.u.; <= 0 means unlimited

    @cached_property
    def s_limited(self):
        """Branches with a flow limit; ``s_max <= 0`` means unlimited."""
        return frozen_array(self.s_max > 0, bool)

    @cached_property
    def default_loads(self):
        """Case loads as one vector, P at every bus then Q."""
        return frozen_array([b.p_load for b in self.buses] + [b.q_load for b in self.buses])


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense complex bus admittance matrix, branch primitives and the sparse
    pattern both solvers work on: its entries (i, k), row-major, are Y's
    nonzeros, the diagonal and both ends of every branch, made symmetric.

    ``yff V_f + yft V_t`` / ``ytf V_f + ytt V_t`` are the currents into each
    branch at its from/to end, MATPOWER branch-model conventions (taps on
    the from side, charging split half/half).
    """

    dimension: int
    y: np.ndarray  # (N, N) complex
    f: np.ndarray  # (E,) from-bus positional indices
    t: np.ndarray  # (E,) to-bus positional indices
    yff: np.ndarray  # (E,) complex, as are yft, ytf and ytt
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    i: np.ndarray  # (nnz,) row bus of each pattern entry
    k: np.ndarray  # (nnz,) its column bus
    y_conj: np.ndarray  # (nnz,) conj(Y) at each entry
    entry: np.ndarray  # (N, N) the entry at (i, k), -1 off the pattern
    bus_entry: np.ndarray  # (N,) each bus's diagonal entry
    tpos: np.ndarray  # (nnz,) where entry (k, i) sits
    # what a solver derives from these once, filled on first use (the Newton
    # layout per bus split, the KKT structure per set of limited branches)
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def derive(self, key, build):
        """``build()``, run on the first call with ``key`` and kept in ``derived``."""
        if key not in self.derived:
            self.derived[key] = build()
        return self.derived[key]


# ---------------------------------------------------------------------------
# validation


def validate_case(case: NetworkCase) -> NetworkCase:
    """Check all NetworkCase invariants; returns the case for chaining."""
    _check_base_mva(case.base_mva)
    if not case.buses:
        raise CaseValidationError("case has no buses")
    _check_finite(case)
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        raise CaseValidationError("duplicate bus ids")
    n_slack = sum(b.kind is BusKind.SLACK for b in case.buses)
    if n_slack != 1:
        raise CaseValidationError(f"exactly one slack bus required, found {n_slack}")
    for b in case.buses:
        if not (0 < b.v_min <= b.v_max):
            raise CaseValidationError(f"bus {b.id}: need 0 < v_min <= v_max")
    known = set(ids)
    for br in case.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                raise CaseValidationError(f"branch references unknown bus {end}")
        if br.series_r**2 + br.series_x**2 == 0.0:
            raise CaseValidationError(
                f"branch {br.from_bus}-{br.to_bus}: zero series impedance"
            )
        if br.tap_ratio <= 0:
            raise CaseValidationError(
                f"branch {br.from_bus}-{br.to_bus}: tap ratio must be positive"
            )
    if len(case.cost_curves) != len(case.generators):
        raise CaseValidationError(
            f"{len(case.generators)} generators but {len(case.cost_curves)} cost curves"
        )
    gen_buses = []
    for g in case.generators:
        if g.bus not in known:
            raise CaseValidationError(f"generator references unknown bus {g.bus}")
        if g.p_min > g.p_max or g.q_min > g.q_max:
            raise CaseValidationError(f"generator at bus {g.bus}: inverted limits")
        gen_buses.append(g.bus)
    if len(set(gen_buses)) != len(gen_buses):
        raise CaseValidationError("multiple generators on one bus are not supported")
    for c in case.cost_curves:
        if c.c2 < 0:
            raise CaseValidationError("cost curves must be convex (c2 >= 0)")
    # the predict-and-reconstruct pipeline needs the bus-kind / generator
    # correspondence to be exact: one unit on the slack, one per PV bus
    by_kind = {b.id: b.kind for b in case.buses}
    for g in case.generators:
        if by_kind[g.bus] is BusKind.PQ:
            raise CaseValidationError(f"generator on PQ bus {g.bus}")
    gen_set = set(gen_buses)
    for b in case.buses:
        if b.kind in (BusKind.SLACK, BusKind.PV) and b.id not in gen_set:
            raise CaseValidationError(f"{b.kind.value} bus {b.id} has no generator")
    _check_connected(case)
    return case


def _check_base_mva(base_mva):
    """``base_mva``, if it is finite and positive."""
    if not 0 < base_mva < np.inf:
        raise CaseValidationError(f"base_mva must be finite and > 0, got {base_mva}")
    return base_mva


def _check_finite(case):
    """Reject a non-finite number in any bus, branch, generator or cost curve."""
    groups = (
        ("bus {0.id}", case.buses, case.buses),
        ("branch {0.from_bus}-{0.to_bus}", case.branches, case.branches),
        ("generator at bus {0.bus}", case.generators, case.generators),
        ("cost of generator at bus {0.bus}", case.cost_curves, case.generators),
    )
    for label, elements, owners in groups:
        for element, owner in zip(elements, owners):
            for name, value in vars(element).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise CaseValidationError(
                        f"{label.format(owner)}: {name} is {value}, not a finite number"
                    )


def _check_connected(case):
    n = case.n_bus
    adj = [[] for _ in range(n)]
    for br in case.branches:
        i, k = case.bus_index(br.from_bus), case.bus_index(br.to_bus)
        adj[i].append(k)
        adj[k].append(i)
    seen = np.zeros(n, dtype=bool)
    stack = [case.slack_index]
    seen[case.slack_index] = True
    while stack:
        for k in adj[stack.pop()]:
            if not seen[k]:
                seen[k] = True
                stack.append(k)
    if not seen.all():
        orphans = [case.buses[i].id for i in np.flatnonzero(~seen)]
        raise CaseValidationError(f"network is not connected; isolated buses {orphans}")


# ---------------------------------------------------------------------------
# MATPOWER-subset text format

_BUS_KIND_FROM_MP = {1: "pq", 2: "pv", 3: "slack"}

# per table, the columns a row needs: the ones the parser reads
_MP_COLUMNS = {"bus": 13, "gen": 10, "branch": 11, "gencost": 4}


def _parse_matrices(text):
    """Extract `mpc.<name> = [...];` tables and scalar assignments in one pass:
    outside a table, an `mpc.<name> = ...` line sets a scalar or opens a
    table; inside one, each line adds its rows until the closing `]`."""
    scalars, tables = {}, {}
    name = None  # the open table
    for i, raw in enumerate(text.splitlines()):
        body = raw.split("%", 1)[0].strip()  # without its comment
        if name is None:
            m = re.match(r"mpc\.(\w+)\s*=\s*(.*)", body)
            if not m:
                continue
            if not m.group(2).startswith("["):
                scalars[m.group(1)] = m.group(2).rstrip(";").strip().strip("'\"")
                continue
            name, start, body = m.group(1), i, m.group(2)[1:].strip()
            rows = tables[name] = []
        closing = body.endswith(("]", "];"))
        if closing:
            body = body[: body.rindex("]")]
        for chunk in body.replace(",", " ").split(";"):
            vals = chunk.split()
            if not vals:
                continue
            try:
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise CaseSyntaxError(f"bad number in mpc.{name}: {exc}", line=i + 1) from None
        if closing:
            name = None
    if name is not None:
        raise CaseSyntaxError(f"unterminated matrix mpc.{name}", line=start + 1)
    return scalars, tables


def _rows(tables, name):
    """``(where, row)`` for each row of table ``mpc.<name>``; ``where`` is the
    row's 1-based place, and every row has the table's ``_MP_COLUMNS``."""
    if name not in tables:
        raise CaseSyntaxError(f"missing mpc.{name} table")
    need = _MP_COLUMNS[name]
    pairs = [(f"mpc.{name} row {pos}", row) for pos, row in enumerate(tables[name], 1)]
    for where, row in pairs:
        if len(row) < need:
            raise CaseSyntaxError(f"{where}: needs {need} columns, got {len(row)}")
    return pairs


def _polynomial_cost(where, row, base):
    """The canonical cost object of a ``mpc.gencost`` row, in $/p.u."""
    if row[0] != 2:
        raise CaseSyntaxError(f"{where}: only polynomial gencost (model 2) is supported")
    ncost = row[3]
    if ncost not in (1, 2, 3) or len(row) < 4 + ncost:
        raise CaseSyntaxError(f"{where}: need 1..3 coefficients")
    c2, c1, c0 = [0.0] * (3 - int(ncost)) + row[4 : 4 + int(ncost)]
    return {"c2": c2 * base**2, "c1": c1 * base, "c0": c0}  # $/MWh-basis -> $/p.u.-basis


def parse_matpower(text, name="case"):
    """Parse the MATPOWER-subset text format into a per-unit NetworkCase:
    each in-service row becomes its element's canonical object, in p.u."""
    scalars, tables = _parse_matrices(text)
    if "baseMVA" not in scalars:
        raise CaseSyntaxError("missing mpc.baseMVA")
    base = _check_base_mva(_number("mpc.baseMVA", scalars["baseMVA"], float))  # MATPOWER text
    rows = {table: _rows(tables, table) for table in _MP_COLUMNS}
    buses = [
        (where, {"id": r[0], "kind": _BUS_KIND_FROM_MP.get(r[1], r[1]),
                 "p_load": r[2] / base, "q_load": r[3] / base, "shunt_g": r[4] / base,
                 "shunt_b": r[5] / base, "v_max": r[11], "v_min": r[12]})
        for where, r in rows["bus"]
    ]
    branches = [
        (where, {"from_bus": r[0], "to_bus": r[1], "series_r": r[2], "series_x": r[3],
                 "charging_b": r[4], "s_max": r[5] / base, "tap_ratio": r[8] or 1.0,
                 "phase_shift": np.deg2rad(r[9])})
        for where, r in rows["branch"]
        if r[10] != 0  # in service
    ]
    n_gen, n_cost = len(rows["gen"]), len(rows["gencost"])
    if n_cost != n_gen:
        raise CaseSyntaxError(f"{n_gen} gen rows but {n_cost} gencost rows")
    generators, costs = [], []
    for (where, r), (cost_where, cost) in zip(rows["gen"], rows["gencost"]):
        if r[7] <= 0:  # out of service
            continue
        generators.append((where, {"bus": r[0], "q_max": r[3] / base, "q_min": r[4] / base,
                                   "v_setpoint": r[5], "p_max": r[8] / base,
                                   "p_min": r[9] / base}))
        costs.append((cost_where, _polynomial_cost(cost_where, cost, base)))
    return _build_case(name, base, buses, branches, generators, costs)


# ---------------------------------------------------------------------------
# canonical JSON format and the elements both formats build


# the JSON kinds a value can hold, as errors name them, and the Python and
# NumPy types of the two numeric kinds
KIND_NAMES = {str: "a string", int: "an integer", float: "a number", list: "a list",
              dict: "a JSON object"}
_NUMERIC_TYPES = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def is_kind(value, kind) -> bool:
    """Whether ``value`` is of JSON kind ``kind``, a type of ``KIND_NAMES``:
    a float may be written as an integer, and a bool is neither."""
    return isinstance(value, _NUMERIC_TYPES.get(kind, kind)) and not isinstance(value, bool)


def _real(value):
    """``value`` as a float if it is a number; a bool or a numeric string is not."""
    if not is_kind(value, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integral(value):
    """``value`` as an int if it is an integral number; a fraction is not truncated."""
    if not is_kind(value, float) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integral number")
    return int(value)


# per element class, its fields as (name, type name, required), in order
_CANONICAL_FIELDS = {
    cls: tuple((f.name, f.type, f.default is MISSING) for f in fields(cls))
    for cls in (Bus, Branch, Generator, CostCurve)
}
_CONVERTERS = {"int": _integral, "float": _real, "BusKind": BusKind}


def _canonical_element(cls, item, where):
    """One ``cls`` element from its canonical JSON object: every field from
    the same-named key, converted by the field's type; a field with a
    default may be left out."""
    if not isinstance(item, dict):
        raise CaseSyntaxError(f"{where}: expected an object, got {json.dumps(item)}")
    values = {}
    for name, kind, required in _CANONICAL_FIELDS[cls]:
        if name not in item:
            if required:
                raise CaseSyntaxError(f"{where}: missing {name!r}")
            continue
        try:
            values[name] = _CONVERTERS[kind](item[name])
        except (TypeError, ValueError, OverflowError):  # OverflowError: float(10**400)
            raise CaseSyntaxError(
                f"{where}: {name!r} = {json.dumps(item[name])} is not a valid {kind}"
            ) from None
    return cls(**values)


def _number(where, value, convert=_real):
    """``value`` as a float by ``convert``, or an error naming ``where``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise CaseSyntaxError(f"{where!r} = {json.dumps(value)} is not a number") from None


def _build_case(name, base_mva, buses, branches, generators, costs):
    """The validated case from its elements' canonical objects, each given
    as a ``(where, object)`` pair, ``where`` naming the object in errors;
    the four groups are read in this order."""
    def build(cls, pairs):
        return tuple(_canonical_element(cls, item, where) for where, item in pairs)

    case = NetworkCase(
        name=name,
        base_mva=base_mva,
        buses=build(Bus, buses),
        branches=build(Branch, branches),
        generators=build(Generator, generators),
        cost_curves=build(CostCurve, costs),
    )
    return validate_case(case)


def parse_canonical(text, name="case"):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise CaseSyntaxError(str(exc), line=getattr(exc, "lineno", None)) from None
    version = doc.get("format_version")
    if version != CANONICAL_FORMAT_VERSION:
        raise CaseSyntaxError(f"unsupported format_version {version!r}")
    for key in ("base_mva", "buses", "branches", "generators"):
        if key not in doc:
            raise CaseSyntaxError(f"missing {key!r}")
    base_mva = _number("base_mva", doc["base_mva"])

    def elements(key):
        if not isinstance(doc[key], list):
            raise CaseSyntaxError(f"{key!r} must be a list, got {json.dumps(doc[key])}")
        return [(f"{key}[{pos}]", item) for pos, item in enumerate(doc[key])]

    buses, branches, generators = map(elements, ("buses", "branches", "generators"))
    # read after the generators are built, so each generator is an object
    costs = ((f"{where} 'cost'", g.get("cost")) for where, g in generators)
    return _build_case(name, base_mva, buses, branches, generators, costs)


def parse_case(text, name="case"):
    """Parse case text in either supported format (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_canonical(text, name=name)
    return parse_matpower(text, name=name)


def read_text(path) -> str:
    """The text of file ``path``; ``DataError`` naming the file if it is not
    UTF-8 or cannot be read (a missing file raises ``FileNotFoundError``)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, a file without read permission, ...
        raise DataError(f"{path}: {(exc.strerror or str(exc)).lower()}") from None


def load_case(path) -> NetworkCase:
    """Load a case from a file path or a bundled case name (e.g. 'case30')."""
    p = Path(path)
    if not p.exists():
        bundled = resources.files("deepsolve") / "cases" / f"{path}.json"
        if bundled.is_file():
            return parse_case(bundled.read_text(), name=str(path))
        raise FileNotFoundError(f"no such case file or bundled case: {path}")
    text = read_text(p)
    try:
        return parse_case(text, name=p.stem)
    except CaseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# admittance matrix


def build_admittance(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the bus admittance matrix, branch primitives and pattern."""
    n = case.n_bus
    f = np.array([case.bus_index(br.from_bus) for br in case.branches], dtype=int)
    t = np.array([case.bus_index(br.to_bus) for br in case.branches], dtype=int)

    ys = np.array([1.0 / complex(br.series_r, br.series_x) for br in case.branches])
    bc = np.array([br.charging_b for br in case.branches])
    tap = np.array(
        [br.tap_ratio * np.exp(1j * br.phase_shift) for br in case.branches]
    )

    ytt = ys + 0.5j * bc
    yff = ytt / (tap * np.conj(tap))
    yft = -ys / np.conj(tap)
    ytf = -ys / tap

    ysh = np.array([complex(b.shunt_g, b.shunt_b) for b in case.buses])
    y = np.zeros((n, n), dtype=complex)
    np.add.at(y, (f, f), yff)
    np.add.at(y, (f, t), yft)
    np.add.at(y, (t, f), ytf)
    np.add.at(y, (t, t), ytt)
    y[np.arange(n), np.arange(n)] += ysh

    mask = (y != 0) | np.eye(n, dtype=bool)
    mask[f, t] = True  # a branch couples its ends even where Y entries cancel
    i, k = np.nonzero(mask | mask.T)  # every entry has its transpose, though Y may not
    entry = np.full((n, n), -1)
    entry[i, k] = np.arange(len(i))
    return AdmittanceMatrix(
        dimension=n, y=y, f=f, t=t, yff=yff, yft=yft, ytf=ytf, ytt=ytt, i=i, k=k,
        y_conj=np.conj(y[i, k]), entry=entry, bus_entry=np.diagonal(entry), tpos=entry[k, i],
    )
