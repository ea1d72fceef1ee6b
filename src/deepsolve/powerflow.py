"""Newton-Raphson AC power flow, branch flows and operating limits.

The solver takes the independent operating variables (slack voltage
magnitude, PV-bus active injections and voltage magnitudes) plus the bus
loads, and solves the nonlinear balance equations for the remaining
voltage angles and PQ-bus magnitudes.

There is one Newton loop, :func:`solve_pf_batch`, which advances B
independent operating points together: the mismatch of the stacked
states is ``V * conj(V @ Y.T)``; the Jacobians are assembled directly on
the reduced (PV+PQ angle, PQ magnitude) index sets from
:func:`dsbus_dv`, the one first-derivative kernel of the injections,
which the interior-point solver shares.  A few rows are solved as one
dense ``np.linalg.solve`` stack, which is fastest for a lone solve.
More rows go through a sparse LU without pivoting, in a minimum-degree
order found once per network, with the batch as the fast axis of every
operation; a row it cannot solve to finite numbers is handed to LAPACK.
Every row keeps its own convergence test, so it stops after exactly as
many iterations as a lone solve, and a row with a singular Jacobian
fails alone.  :func:`solve_pf` is the one-row view of that loop.

:func:`limit_excess` is the single operating-limit test: feasibility
checking reports its entries above a tolerance, and the training penalty
(``trainer.penalty_terms``) averages them per family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .netmodel import AdmittanceMatrix, NetworkCase

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 30
# A batch of B Newton systems of dimension m is solved as one LAPACK stack
# while B * m stays within this bound (23 rows on case30, 6 on case118); a
# larger batch goes through the sparse LU, which never forms the Jacobians.
JACOBIAN_STACK_ROWS_X_DIM = 1240


class PowerFlowError(Exception):
    pass


class SingularJacobianError(PowerFlowError):
    """Jacobian factorization failed; distinct from plain non-convergence."""


@dataclass(frozen=True)
class IndependentVars:
    """Operating variables the pipeline predicts (slack angle fixed at 0)."""

    v_slack: float
    pv_p_gen: np.ndarray  # p.u., one entry per PV bus, bus order
    pv_v_mag: np.ndarray

    @classmethod
    def from_vector(cls, x) -> "IndependentVars":
        """Split a flat vector in ScalingSpec order: slack |V|, then
        (P, |V|) per PV bus.  A stack ``(..., d)`` splits along its last
        axis into fields with the same leading axes."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] % 2 != 1:
            raise PowerFlowError(f"independent vector of shape {x.shape}; need odd length")
        v_slack = x[..., 0] if x.ndim > 1 else x[0]
        return cls(v_slack=v_slack, pv_p_gen=x[..., 1::2], pv_v_mag=x[..., 2::2])

    def to_vector(self) -> np.ndarray:
        """Inverse of :meth:`from_vector`."""
        x = np.empty(1 + 2 * len(self.pv_p_gen))
        x[0] = self.v_slack
        x[1::2] = self.pv_p_gen
        x[2::2] = self.pv_v_mag
        return x

    def validate(self, case: NetworkCase):
        n_pv = len(case.pv_indices)
        shapes = (np.shape(self.pv_p_gen), np.shape(self.pv_v_mag))
        if any(shape[-1:] != (n_pv,) for shape in shapes):
            raise PowerFlowError(
                f"PV-bus variables of shapes {shapes[0]} and {shapes[1]}, "
                f"case has {n_pv} PV buses"
            )


@dataclass(frozen=True)
class PfInit:
    """Initial guess: angles for all buses, magnitudes used at PQ buses."""

    v_ang: np.ndarray
    v_mag: np.ndarray


@dataclass
class PowerFlowSolution:
    v_mag: np.ndarray
    v_ang: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    slack_p_gen: float
    slack_q_gen: float
    pv_q_gen: np.ndarray
    branch_s: np.ndarray
    iterations: int
    converged: bool
    max_residual: float
    residual_history: list[float] = field(default_factory=list)

    @property
    def v_complex(self):
        return self.v_mag * np.exp(1j * self.v_ang)


@dataclass
class PowerFlowBatch:
    """Results of :func:`solve_pf_batch`, one row per operating point.

    Every field means what the same-named :class:`PowerFlowSolution` field
    means, with a leading batch axis of length B.  ``singular`` marks rows
    stopped by a singular Jacobian or a non-finite Newton step; they hold
    their last iterate and are not converged.  ``residual_history`` is
    (B, DEFAULT_MAX_ITER + 1), NaN after the iteration at which a row stopped.
    """

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    slack_p_gen: np.ndarray
    slack_q_gen: np.ndarray
    pv_q_gen: np.ndarray
    branch_s: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    singular: np.ndarray
    max_residual: np.ndarray
    residual_history: np.ndarray

    def take(self, rows) -> "PowerFlowBatch":
        """The batch restricted to ``rows`` (indices or a boolean mask)."""
        return PowerFlowBatch(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def row(self, i: int) -> PowerFlowSolution:
        """Row ``i`` as a lone solve reports it; a singular row raises
        :class:`SingularJacobianError`."""
        k = int(self.iterations[i])
        if self.singular[i]:
            raise SingularJacobianError(
                f"singular Jacobian or non-finite Newton step at iteration {k}"
            )
        return PowerFlowSolution(
            v_mag=self.v_mag[i],
            v_ang=self.v_ang[i],
            p_inj=self.p_inj[i],
            q_inj=self.q_inj[i],
            slack_p_gen=float(self.slack_p_gen[i]),
            slack_q_gen=float(self.slack_q_gen[i]),
            pv_q_gen=self.pv_q_gen[i],
            branch_s=self.branch_s[i],
            iterations=k,
            converged=bool(self.converged[i]),
            max_residual=float(self.max_residual[i]),
            residual_history=self.residual_history[i, : k + 1].tolist(),
        )


@dataclass(frozen=True)
class Violation:
    kind: str  # SlackP | SlackQ | PvQ | PqVmag | BranchFlow
    element: int  # bus id, generator bus id or branch position
    magnitude: float  # p.u. amount outside the limit


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]


def dsbus_dv(i, k, y_conj, bus_entry, v, s):
    """dS/dVa and |V| dS/d|V| of the injections S = V conj(Y V) at the
    entries (i, k) of an admittance pattern holding every diagonal entry.

    ``y_conj`` is conj(Y) there and ``bus_entry`` each bus's diagonal entry;
    ``v`` and ``s`` are voltages and injections, (n,) or (B, n).  With M =
    conj(Y) * (V outer conj(V)) they are j (diag(S) - M) and M + diag(S)."""
    mm = y_conj * v[..., i] * np.conj(v[..., k])
    d = mm[..., bus_entry]
    ds_dva = -1j * mm
    ds_dva[..., bus_entry] = 1j * (s - d)
    mm[..., bus_entry] = d + s
    return ds_dva, mm


def solve_pf(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    indep: IndependentVars,
    p_load: np.ndarray,
    q_load: np.ndarray,
    init: PfInit | None = None,
    tol: float = DEFAULT_TOL,
) -> PowerFlowSolution:
    """Newton-Raphson solve of the balance equations in polar coordinates.

    Mismatch ordering is P at PV+PQ buses then Q at PQ buses.  On
    non-convergence the last iterate is returned with ``converged=False``;
    a singular Jacobian raises :class:`SingularJacobianError` instead.
    This is the one-row case of :func:`solve_pf_batch`.
    """
    p_load = np.asarray(p_load, dtype=float)
    q_load = np.asarray(q_load, dtype=float)
    return solve_pf_batch(case, adm, indep, p_load[None], q_load[None], init=init, tol=tol).row(0)


def solve_pf_batch(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    indep: IndependentVars,
    p_load: np.ndarray,
    q_load: np.ndarray,
    init: PfInit | None = None,
    tol: float = DEFAULT_TOL,
) -> PowerFlowBatch:
    """Newton-Raphson solve of B independent operating points at once.

    ``p_load`` and ``q_load`` are (B, n_bus).  The fields of ``indep`` are
    (B,) and (B, n_pv), and those of ``init`` (n_bus,) or (B, n_bus);
    shorter shapes are shared by every row.  Each row runs the iteration of
    a lone solve: it stops updating once its mismatch is below ``tol``, or
    after ``DEFAULT_MAX_ITER`` steps.  A row whose Jacobian is singular, or whose
    Newton step is non-finite, stops with ``singular`` set; the other rows
    carry on.
    """
    indep.validate(case)
    p_load = np.asarray(p_load, dtype=float)
    q_load = np.asarray(q_load, dtype=float)
    n = case.n_bus
    if p_load.ndim != 2 or p_load.shape[1] != n or q_load.shape != p_load.shape:
        raise PowerFlowError(
            f"loads of shapes {p_load.shape} and {q_load.shape}; need (B, {n}) each"
        )
    b = p_load.shape[0]
    slack = case.slack_index
    pv = case.pv_indices
    pq = case.pq_indices
    npv = len(pv)
    m1 = npv + len(pq)
    order, y, bus_order, jacobian = _newton_layout(case, adm)

    vm = np.ones((b, n))
    va = np.zeros((b, n))
    if init is not None:
        vm[:] = np.asarray(init.v_mag, dtype=float)[..., order]
        va[:] = np.asarray(init.v_ang, dtype=float)[..., order]
    vm[:, :npv] = indep.pv_v_mag
    vm[:, m1] = indep.v_slack
    va[:, m1] = 0.0  # the slack angle is the reference, whatever init says
    spec = -np.concatenate([p_load[:, order[:m1]], q_load[:, pq]], axis=1)
    spec[:, :npv] += indep.pv_p_gen  # net scheduled injections

    history = np.full((b, DEFAULT_MAX_ITER + 1), np.nan)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    singular = np.zeros(b, dtype=bool)
    rows = np.arange(b)  # rows still iterating
    for it in range(DEFAULT_MAX_ITER + 1):
        v = vm[rows] * np.exp(1j * va[rows])
        s = v * np.conj(v @ y.T)
        f = np.concatenate([s.real[:, :m1], s.imag[:, npv:m1]], axis=1) - spec[rows]
        norm_f = np.abs(f).max(axis=1, initial=0.0)
        history[rows, it] = norm_f
        iterations[rows] = it
        done = norm_f < tol
        converged[rows[done]] = True
        if it == DEFAULT_MAX_ITER:
            break
        if done.any():
            rows, v, s, f = rows[~done], v[~done], s[~done], f[~done]
        if not rows.size:
            break
        # the magnitude unknowns come out relative: d|V| / |V|
        dx = jacobian.steps(v[:, :m1], s[:, :m1], -f)
        ok = np.isfinite(dx).all(axis=1)
        if not ok.all():
            singular[rows[~ok]] = True
            rows, dx = rows[ok], dx[ok]
        va[rows, :m1] += dx[:, :m1]
        vm[rows, npv:m1] *= 1.0 + dx[:, m1:]

    vm, va = vm[:, bus_order], va[:, bus_order]
    v = vm * np.exp(1j * va)
    s = v * np.conj(v @ adm.y.T)
    return PowerFlowBatch(
        v_mag=vm,
        v_ang=va,
        p_inj=s.real,
        q_inj=s.imag,
        slack_p_gen=s.real[:, slack] + p_load[:, slack],
        slack_q_gen=s.imag[:, slack] + q_load[:, slack],
        pv_q_gen=s.imag[:, pv] + q_load[:, pv],
        branch_s=branch_flows(case, adm, v),
        iterations=iterations,
        converged=converged,
        singular=singular,
        max_residual=history[np.arange(b), iterations],
        residual_history=history,
    )


def _newton_layout(case: NetworkCase, adm: AdmittanceMatrix):
    """The buses in PV, PQ, slack order, the admittance in that order, the
    inverse order and the reduced Jacobian assembly; built once per
    admittance matrix and bus split and kept in ``adm.derived``.

    In this order the unknowns (PV+PQ angles, PQ magnitudes) and the
    mismatch rows (P at PV+PQ, Q at PQ) are contiguous slices.
    """
    npv = len(case.pv_indices)
    order = np.concatenate([case.pv_indices, case.pq_indices, [case.slack_index]])
    key = ("newton", npv, order.tobytes())
    if key not in adm.derived:
        y = adm.y[order][:, order]
        adm.derived[key] = (order, y, np.argsort(order), _ReducedJacobian(y[:-1, :-1], npv))
    return adm.derived[key]


class _ReducedJacobian:
    """Newton Jacobians of the P (PV+PQ buses) and Q (PQ buses) mismatches
    with respect to the PV+PQ angles and the relative PQ magnitudes.

    ``y_red`` is the admittance among the PV and PQ buses, PV buses first.
    The four blocks are the real and imaginary parts of :func:`dsbus_dv`
    at the nonzeros of ``y_red`` and its diagonal, scattered into place:
    into dense (B, m, m) matrices, or into the slots of :attr:`lu`.
    """

    def __init__(self, y_red: np.ndarray, npv: int):
        m1 = len(y_red)
        shift = m1 - npv  # from a PQ bus's angle column (P row) to its magnitude (Q row)
        self.m = m = m1 + shift
        self.npv = npv
        i, k = np.nonzero((y_red != 0) | np.eye(m1, dtype=bool))
        self.i, self.k, self.y_conj = i, k, np.conj(y_red[i, k])
        self.bus_entry = np.flatnonzero(i == k)
        self.pq_col, self.pq_row = np.flatnonzero(k >= npv), np.flatnonzero(i >= npv)
        self.pq_both = np.flatnonzero((k >= npv) & (i >= npv))
        # flat (m, m) positions of Re dS/dVa, Re |V| dS/d|V|, Im dS/dVa and
        # Im |V| dS/d|V| in the four blocks
        self.pos = np.concatenate([
            i * m + k,
            i[self.pq_col] * m + k[self.pq_col] + shift,
            (i[self.pq_row] + shift) * m + k[self.pq_row],
            (i[self.pq_both] + shift) * m + k[self.pq_both] + shift,
        ])

    def _entries(self, v, s):
        """The (B, len(pos)) values at ``pos``."""
        dva, dvm = dsbus_dv(self.i, self.k, self.y_conj, self.bus_entry, v, s)
        return np.concatenate([dva.real, dvm.real[:, self.pq_col], dva.imag[:, self.pq_row],
                               dvm.imag[:, self.pq_both]], axis=1)

    def __call__(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Jacobians (B, m, m) at the (B, PV+PQ) voltages and injections."""
        jac = np.zeros((len(v), self.m * self.m))
        jac[:, self.pos] = self._entries(v, s)
        return jac.reshape(len(v), self.m, self.m)

    @cached_property
    def lu(self) -> "_StaticLU":
        """Symbolic analysis of the Jacobian pattern, built on first use."""
        return _StaticLU(self.pos, self.m)

    def steps(self, v: np.ndarray, s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Newton steps dx (B, m) solving J dx = rhs at the (B, PV+PQ)
        voltages and injections.  A batch within JACOBIAN_STACK_ROWS_X_DIM
        is solved as one dense LAPACK stack; a larger batch goes through
        :attr:`lu` and never forms the Jacobians, except for a row whose
        sparse step is not finite: LAPACK solves that one again and decides
        whether it is singular."""
        if len(v) * self.m <= JACOBIAN_STACK_ROWS_X_DIM:
            return _newton_steps(self(v, s), rhs)
        dx = self.lu.solve(self.slot_values(v, s), rhs)
        bad = ~np.isfinite(dx).all(axis=1)
        if bad.any():
            dx[bad] = _newton_steps(self(v[bad], s[bad]), rhs[bad])
        return dx

    def slot_values(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The Jacobians as (slots, B) values in the slots of :attr:`lu`."""
        lu = self.lu
        a = np.zeros((lu.n_slots, len(v)))
        a[lu.slot[self.pos]] = self._entries(v, s).T
        return a


class _StaticLU:
    """LU factorization without pivoting of B matrices sharing one (m, m)
    sparsity pattern, given by the flat positions of its entries.

    The symbolic analysis runs once (Tinney & Walker, Proc. IEEE 1967): a
    minimum-degree order of the pattern's graph (the pattern made
    symmetric), the filled pattern that eliminating in that order
    produces, and per pivot the slots of its L column, its U row and the
    Schur-complement entries their product updates.  The right-hand side
    is one more column, so the elimination carries out the forward
    substitution too.  The values of the batch sit in a (slots, B) array,
    the pivots' first, so each numeric step is a few numpy operations with
    the batch as the fast axis.
    """

    def __init__(self, flat: np.ndarray, m: int):
        self.m = m
        adj = [set() for _ in range(m)]
        for i, k in (divmod(f, m) for f in flat.tolist()):
            if i != k:
                adj[i].add(k)
                adj[k].add(i)
        order, later = [], []
        left = set(range(m))
        while left:  # minimum degree, ties to the lowest index
            p = min(left, key=lambda u: (len(adj[u]), u))
            left.remove(p)
            for u in adj[p]:  # eliminating p joins its neighbours
                adj[u] |= adj[p]
                adj[u] -= {u, p}
            order.append(p)
            later.append(adj[p])
        self.order = np.array(order)
        self.rank = np.argsort(self.order)
        # below, rows and columns are counted in pivot order
        later = [np.sort(self.rank[list(nb)]) for nb in later]
        # the slots of the filled pattern of [A | rhs]: the pivots, then per
        # pivot its L column, its U row and its right-hand side entry
        slot = np.full((m, m + 1), -1)
        slot[np.arange(m), np.arange(m)] = np.arange(m)
        bounds = np.cumsum([m, *(2 * len(nb) + 1 for nb in later)])
        for k, nb in enumerate(later):
            slot[nb, k] = bounds[k] + np.arange(len(nb))
            slot[k, nb] = bounds[k] + len(nb) + np.arange(len(nb))
        slot[:, m] = bounds[1:] - 1
        self.n_slots = bounds[-1]
        self.rhs = slot[:, m]
        # per pivot: the right-hand side slots of the rows below it, where
        # its L column and its U row (with its right-hand side) start and
        # end, and the slots their outer product updates
        self.pivots = [
            (self.rhs[nb], lo, lo + len(nb), hi, slot[np.ix_(nb, [*nb, m])].ravel())
            for nb, lo, hi in zip(later, bounds[:-1], bounds[1:])
        ]
        # the slot of each flat (m, m) position in the original order
        r, c = np.nonzero(slot[:, :m] >= 0)
        self.slot = np.full(m * m, -1)
        self.slot[self.order[r] * m + self.order[c]] = slot[r, c]

    def solve(self, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x (B, m) with A[r] @ x[r] = rhs[r], the matrices given by their
        slot values ``a`` (slots, B), which become their factors.  A row
        meeting a zero pivot comes out non-finite."""
        b = a.shape[1]
        a[self.rhs] = rhs.T[self.order]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, (_, lo, mid, hi, schur) in enumerate(self.pivots):
                col = a[lo:mid]
                col /= a[k]
                a[schur] -= (col[:, None] * a[mid:hi]).reshape(-1, b)
            for k in range(self.m - 1, -1, -1):
                below, _, mid, hi, _ = self.pivots[k]
                x = a[hi - 1]  # pivot k's right-hand side entry, a view
                x -= (a[mid : hi - 1] * a.take(below, axis=0)).sum(axis=0)
                x /= a[k]
        return a[self.rhs][self.rank].T


def _newton_steps(jac, rhs):
    """Solve jac[k] @ dx[k] = rhs[k] for every row; a row whose matrix is
    singular gets a NaN step instead of failing the stack."""
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dx = np.full_like(rhs, np.nan)
        for k in range(len(rhs)):
            try:
                dx[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return dx


def branch_flows(case: NetworkCase, adm: AdmittanceMatrix, v: np.ndarray) -> np.ndarray:
    """Apparent power per branch, the larger of the two ends (p.u.); ``v``
    may be a (..., n_bus) stack of voltage vectors."""
    s_from = v[..., adm.f] * np.conj(v @ adm.yf.T)
    s_to = v[..., adm.t] * np.conj(v @ adm.yt.T)
    return np.maximum(np.abs(s_from), np.abs(s_to))


def box_penalty(x, x_min, x_max):
    """max(x - x_max, 0) + max(x_min - x, 0); zero inside the box."""
    return np.maximum(x - x_max, 0.0) + np.maximum(x_min - x, 0.0)


def limit_excess(
    case: NetworkCase, solution: PowerFlowSolution | PowerFlowBatch
) -> dict[str, np.ndarray]:
    """Amount by which each reconstructed quantity leaves its operating limit.

    Returns one :func:`box_penalty` vector per violation family, keyed
    SlackP, SlackQ (length 1), PvQ (PV buses), PqVmag (PQ buses) and
    BranchFlow (all branches, zero where unlimited); for a
    :class:`PowerFlowBatch` each vector gains the leading batch axis.  For
    nonempty boxes an entry is positive exactly when the quantity is
    outside its box, and then equals its distance to the nearer bound.  A
    diverged reconstruction has no limits to test and raises.
    """
    if not np.all(solution.converged):
        raise PowerFlowError("operating limits need a converged power flow")
    g = case.slack_gen
    pv_gen = case.pv_gen
    pq = case.pq_indices
    slack_p = np.asarray(solution.slack_p_gen)[..., None]
    slack_q = np.asarray(solution.slack_q_gen)[..., None]
    over = np.maximum(solution.branch_s - case.s_max, 0.0)
    return {
        "SlackP": box_penalty(slack_p, case.p_min[g], case.p_max[g]),
        "SlackQ": box_penalty(slack_q, case.q_min[g], case.q_max[g]),
        "PvQ": box_penalty(solution.pv_q_gen, case.q_min[pv_gen], case.q_max[pv_gen]),
        "PqVmag": box_penalty(solution.v_mag[..., pq], case.v_min[pq], case.v_max[pq]),
        "BranchFlow": np.where(case.s_limited, over, 0.0),
    }


def check_feasibility(
    case: NetworkCase,
    solution: PowerFlowSolution,
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Report every :func:`limit_excess` entry above ``tolerance``.

    Covers slack P/Q, PV-bus reactive output, PQ-bus voltage magnitudes and
    branch apparent-power limits.  Elements are named by bus id (slack, PV,
    PQ families) or branch position.  Calling this on a non-converged
    solution is an error: a diverged reconstruction is never feasible.
    """
    slack = [case.slack_index]
    buses = {"SlackP": slack, "SlackQ": slack, "PvQ": case.pv_indices, "PqVmag": case.pq_indices}
    violations = []
    for kind, excess in limit_excess(case, solution).items():
        for j in np.flatnonzero(excess > tolerance):
            element = case.buses[buses[kind][j]].id if kind in buses else int(j)
            violations.append(Violation(kind, element, float(excess[j])))
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))
