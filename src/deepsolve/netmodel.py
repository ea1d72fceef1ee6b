"""Grid case parsing, validation and admittance-matrix assembly.

Two on-disk formats are supported:

* a pragmatic subset of the MATPOWER matrix text format (``mpc.baseMVA``,
  ``mpc.bus``, ``mpc.gen``, ``mpc.branch``, ``mpc.gencost``), columns in
  MATPOWER manual order, quantities in MW/MVAr/MVA;
* the repo's canonical JSON format (``format_version`` 1), already in
  per-unit, which is the source of truth for the shipped cases.

Everything downstream works on the validated per-unit :class:`NetworkCase`.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

CANONICAL_FORMAT_VERSION = 1


class CaseError(Exception):
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
    def nonslack_indices(self):
        """PV and PQ bus positions together, in bus order."""
        return frozen_array(np.sort(np.concatenate([self.pv_indices, self.pq_indices])), int)

    @cached_property
    def gen_bus(self):
        """Bus position of each generator."""
        return frozen_array([self.bus_index(g.bus) for g in self.generators], int)

    @cached_property
    def pv_gen(self):
        """Generator position of each PV bus, in bus order."""
        gen_at = self.gen_lookup()
        return frozen_array([gen_at[i] for i in self.pv_indices], int)

    @cached_property
    def slack_gen(self):
        """Generator position of the slack bus."""
        return self.gen_lookup()[self.slack_index]

    def gen_lookup(self):
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

    @property
    def default_p_load(self):
        return self.default_loads[: self.n_bus]

    @property
    def default_q_load(self):
        return self.default_loads[self.n_bus :]


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense complex bus admittance matrix plus branch admittance rows.

    ``yf @ V`` / ``yt @ V`` give the complex currents injected into each
    branch at its from/to end, MATPOWER branch-model conventions (taps on
    the from side, charging split half/half).
    """

    dimension: int
    y: np.ndarray  # (N, N) complex
    yf: np.ndarray  # (E, N) complex
    yt: np.ndarray  # (E, N) complex
    f: np.ndarray  # (E,) from-bus positional indices
    t: np.ndarray  # (E,) to-bus positional indices
    # what a solver derives from these matrices once, filled on first use
    # (the Newton layout of powerflow.solve_pf_batch, per bus split)
    derived: dict = field(default_factory=dict, repr=False, compare=False)


# ---------------------------------------------------------------------------
# validation


def validate_case(case: NetworkCase) -> NetworkCase:
    """Check all NetworkCase invariants; returns the case for chaining."""
    if case.base_mva <= 0:
        raise CaseValidationError("base_mva must be > 0")
    if not case.buses:
        raise CaseValidationError("case has no buses")
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

_BUS_KIND_FROM_MP = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}


def _strip_comment(line):
    pos = line.find("%")
    return line[:pos] if pos >= 0 else line


def _parse_matrices(text):
    """Extract `mpc.<name> = [...];` tables and scalar assignments."""
    scalars = {}
    tables = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = _strip_comment(raw).strip()
        m = re.match(r"mpc\.(\w+)\s*=\s*(.*)", line)
        if not m:
            i += 1
            continue
        name, rest = m.group(1), m.group(2)
        if not rest.startswith("["):
            value = rest.rstrip(";").strip().strip("'\"")
            scalars[name] = value
            i += 1
            continue
        rows = []
        body = rest[1:]
        start_line = i
        while True:
            body = body.strip()
            if body.endswith("];"):
                body = body[:-2]
                closing = True
            elif body.endswith("]"):
                body = body[:-1]
                closing = True
            else:
                closing = False
            if body:
                for chunk in body.replace(",", " ").split(";"):
                    vals = chunk.split()
                    if not vals:
                        continue
                    try:
                        rows.append([float(v) for v in vals])
                    except ValueError as exc:
                        raise CaseSyntaxError(
                            f"bad number in mpc.{name}: {exc}", line=i + 1
                        ) from None
            if closing:
                break
            i += 1
            if i >= len(lines):
                raise CaseSyntaxError(
                    f"unterminated matrix mpc.{name}", line=start_line + 1
                )
            body = _strip_comment(lines[i]).strip()
        tables[name] = rows
        i += 1
    return scalars, tables


def parse_matpower(text, name="case"):
    """Parse the MATPOWER-subset text format into a per-unit NetworkCase."""
    scalars, tables = _parse_matrices(text)
    try:
        base = float(scalars["baseMVA"])
    except KeyError:
        raise CaseSyntaxError("missing mpc.baseMVA") from None
    for required in ("bus", "gen", "branch", "gencost"):
        if required not in tables:
            raise CaseSyntaxError(f"missing mpc.{required} table")

    buses = []
    for row in tables["bus"]:
        if len(row) < 13:
            raise CaseSyntaxError(f"bus row needs 13 columns, got {len(row)}")
        code = int(row[1])
        if code not in _BUS_KIND_FROM_MP:
            raise CaseSyntaxError(f"bus {int(row[0])}: unknown bus type {code}")
        buses.append(
            Bus(
                id=int(row[0]),
                kind=_BUS_KIND_FROM_MP[code],
                p_load=row[2] / base,
                q_load=row[3] / base,
                shunt_g=row[4] / base,
                shunt_b=row[5] / base,
                v_max=row[11],
                v_min=row[12],
            )
        )

    branches = []
    for row in tables["branch"]:
        if len(row) < 11:
            raise CaseSyntaxError(f"branch row needs 11 columns, got {len(row)}")
        if row[10] == 0:  # out of service
            continue
        branches.append(
            Branch(
                from_bus=int(row[0]),
                to_bus=int(row[1]),
                series_r=row[2],
                series_x=row[3],
                charging_b=row[4],
                s_max=row[5] / base,
                tap_ratio=row[8] if row[8] != 0 else 1.0,
                phase_shift=np.deg2rad(row[9]),
            )
        )

    generators = []
    costs = []
    gencost = tables["gencost"]
    if len(gencost) != len(tables["gen"]):
        raise CaseSyntaxError(
            f"{len(tables['gen'])} gen rows but {len(gencost)} gencost rows"
        )
    for row, crow in zip(tables["gen"], gencost):
        if len(row) < 10:
            raise CaseSyntaxError(f"gen row needs 10 columns, got {len(row)}")
        if row[7] <= 0:  # out of service
            continue
        generators.append(
            Generator(
                bus=int(row[0]),
                q_max=row[3] / base,
                q_min=row[4] / base,
                v_setpoint=row[5],
                p_max=row[8] / base,
                p_min=row[9] / base,
            )
        )
        if int(crow[0]) != 2:
            raise CaseSyntaxError("only polynomial gencost (model 2) is supported")
        ncost = int(crow[3])
        coeffs = crow[4 : 4 + ncost]
        if len(coeffs) != ncost or ncost > 3 or ncost < 1:
            raise CaseSyntaxError(f"gencost for bus {int(row[0])}: need 1..3 coefficients")
        padded = [0.0] * (3 - ncost) + list(coeffs)
        # $/MWh-basis -> $/p.u.-basis
        costs.append(CostCurve(c2=padded[0] * base**2, c1=padded[1] * base, c0=padded[2]))

    case = NetworkCase(
        name=name,
        base_mva=base,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        cost_curves=tuple(costs),
    )
    return validate_case(case)


# ---------------------------------------------------------------------------
# canonical JSON format


def parse_canonical(text, name=None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(str(exc), line=exc.lineno) from None
    version = doc.get("format_version")
    if version != CANONICAL_FORMAT_VERSION:
        raise CaseSyntaxError(f"unsupported format_version {version!r}")
    try:
        base_mva = float(doc["base_mva"])
        buses = tuple(
            Bus(
                id=int(b["id"]),
                kind=BusKind(b["kind"]),
                p_load=float(b["p_load"]),
                q_load=float(b["q_load"]),
                v_min=float(b["v_min"]),
                v_max=float(b["v_max"]),
                shunt_g=float(b.get("shunt_g", 0.0)),
                shunt_b=float(b.get("shunt_b", 0.0)),
            )
            for b in doc["buses"]
        )
        branches = tuple(
            Branch(
                from_bus=int(r["from_bus"]),
                to_bus=int(r["to_bus"]),
                series_r=float(r["series_r"]),
                series_x=float(r["series_x"]),
                charging_b=float(r.get("charging_b", 0.0)),
                tap_ratio=float(r.get("tap_ratio", 1.0)),
                phase_shift=float(r.get("phase_shift", 0.0)),
                s_max=float(r.get("s_max", 0.0)),
            )
            for r in doc["branches"]
        )
        generators = []
        costs = []
        for g in doc["generators"]:
            generators.append(
                Generator(
                    bus=int(g["bus"]),
                    p_min=float(g["p_min"]),
                    p_max=float(g["p_max"]),
                    q_min=float(g["q_min"]),
                    q_max=float(g["q_max"]),
                    v_setpoint=float(g.get("v_setpoint", 1.0)),
                )
            )
            c = g["cost"]
            costs.append(CostCurve(c2=float(c["c2"]), c1=float(c["c1"]), c0=float(c["c0"])))
    except (KeyError, ValueError) as exc:
        raise CaseSyntaxError(f"bad canonical case: {exc!r}") from None
    case = NetworkCase(
        name=name or doc.get("case_id", "case"),
        base_mva=base_mva,
        buses=buses,
        branches=branches,
        generators=tuple(generators),
        cost_curves=tuple(costs),
    )
    return validate_case(case)


def parse_case(text, name="case"):
    """Parse case text in either supported format (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_canonical(text, name=name)
    return parse_matpower(text, name=name)


def read_text(path, error) -> str:
    """The text of file ``path``; ``error`` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def load_case(path) -> NetworkCase:
    """Load a case from a file path or a bundled case name (e.g. 'case30')."""
    p = Path(path)
    if not p.exists():
        bundled = resources.files("deepsolve") / "cases" / f"{path}.json"
        if bundled.is_file():
            return parse_case(bundled.read_text(), name=str(path))
        raise FileNotFoundError(f"no such case file or bundled case: {path}")
    text = read_text(p, CaseError)
    try:
        return parse_case(text, name=p.stem)
    except CaseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# admittance matrix


def build_admittance(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the complex bus admittance matrix and branch current rows."""
    n = case.n_bus
    e = len(case.branches)
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

    yf = np.zeros((e, n), dtype=complex)
    yt = np.zeros((e, n), dtype=complex)
    rows = np.arange(e)
    yf[rows, f] += yff
    yf[rows, t] += yft
    yt[rows, f] += ytf
    yt[rows, t] += ytt

    ysh = np.array([complex(b.shunt_g, b.shunt_b) for b in case.buses])
    y = np.zeros((n, n), dtype=complex)
    np.add.at(y, (f, f), yff)
    np.add.at(y, (f, t), yft)
    np.add.at(y, (t, f), ytf)
    np.add.at(y, (t, t), ytt)
    y[np.arange(n), np.arange(n)] += ysh

    return AdmittanceMatrix(dimension=n, y=y, yf=yf, yt=yt, f=f, t=t)
