"""AC power flow (chord and Newton-Raphson steps), branch flows and operating limits.

The solver takes the independent operating variables (slack voltage
magnitude, PV-bus active injections and voltage magnitudes) plus the bus
loads, and solves the nonlinear balance equations for the remaining
voltage angles and PQ-bus magnitudes.

There is one loop, :func:`solve_pf_batch`, which advances B independent
operating points together from one shared start (the pipeline's
training-mean :class:`PfInit`, or the flat start): the mismatch of the
stacked states is ``V * conj(V @ Y.T)``.  Every row takes chord steps
(Kelley, *Iterative Methods for Linear and Nonlinear Equations*, SIAM
1995, ch. 5), as fast-decoupled load flow does: the reduced Jacobian J0 at
the start is inverted once per admittance matrix, bus split and start, and
the step of the whole batch is one product ``f @ -inv(J0).T``.  A row
whose mismatch norm does not fall below ``CHORD_CONTRACTION`` times its
previous one takes Newton steps for the rest of its solve, and every row
does when J0 is singular or its inverse is not finite.  The product is a
BLAS call, gemv for one row and gemm for more, so a row may differ from
its lone solve in the last bits (3.6e-15 at most on a (128, 53) case30
product), within the 1e-10 to which batch rows are tested against lone
solves.  ``np.einsum`` would be bit-identical per row, but on a 2-core
Xeon with single-threaded OpenBLAS it took 121 µs against 12 µs for that
product and made a 2-epoch case30 training call 22% slower.

The Newton Jacobians are assembled directly on the reduced (PV+PQ angle,
PQ magnitude) index sets from :func:`dsbus_dv`, the one first-derivative
kernel of the injections, which the interior-point solver shares, at the
non-slack entries of the admittance's sparse pattern.  The rows taking
Newton steps are solved as one dense LAPACK stack (:func:`_newton_steps`).
Every row keeps its own convergence test and its own switch to Newton, so
it stops after as many iterations as a lone solve, and a row with a
singular Jacobian fails alone.  The loop works on the live rows only:
their arrays (states, scheduled injections, last mismatch norms, Newton
flags) shrink when rows stop, and a row's final iterate, iteration count
and flags are written to the result once, when it converges, turns
singular or reaches ``DEFAULT_MAX_ITER``.  So no iteration gathers or
scatters the whole batch, and each product sees the same live rows as in a
loop that keeps all B rows.  Voltages come from one kernel,
:func:`_polar`, which the interior-point solver shares: ``vm * cos(va)``
and ``vm * sin(va)`` written into one complex array, the numbers of
``vm * exp(1j * va)`` in about two thirds of its time.  :class:`PowerFlowBatch`
is the one result type: a lone solve (:func:`solve_pf`) is one of its
rows, without the batch axis.

:func:`limit_excess` is the single operating-limit test: feasibility
checking reports its entries above a tolerance, and the training penalty
(``trainer.penalty_terms``) averages them per family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import AdmittanceMatrix, DeepsolveError, NetworkCase

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 30
FEASIBILITY_TOL = 1e-6  # largest limit excess a feasible operating point may have
# A chord step must cut a row's mismatch norm below this share of the previous
# one; a row whose step does not takes Newton steps for the rest of its solve.
# At 0.5 a row still on chord steps gains a factor 2^30 within DEFAULT_MAX_ITER.
# 0.7 lost rows that Newton solves (case30 loads at 2.5x); 0.3 sent perturbed
# case118 rows to Newton that 0.5 solves by chord steps alone.
CHORD_CONTRACTION = 0.5


class PowerFlowError(DeepsolveError):
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

    def validate(self, case: NetworkCase, loads_shape: tuple):
        """Check that the fields fit ``case`` and loads of ``loads_shape``,
        (B, n_bus): the slack field (B,), (1,) or (), the PV fields (B, n_pv),
        (1, n_pv) or (n_pv,), a shorter shape shared by every row."""
        n_pv = len(case.pv_indices)
        shapes = (np.shape(self.pv_p_gen), np.shape(self.pv_v_mag))
        if any(shape[-1:] != (n_pv,) for shape in shapes):
            raise PowerFlowError(
                f"PV-bus variables of shapes {shapes[0]} and {shapes[1]}, "
                f"case has {n_pv} PV buses"
            )
        rows = ((), (1,), loads_shape[:1])
        if np.shape(self.v_slack) not in rows or any(shape[:-1] not in rows for shape in shapes):
            raise PowerFlowError(
                f"independent variables of shapes {np.shape(self.v_slack)}, {shapes[0]} "
                f"and {shapes[1]} do not fit loads of shape {loads_shape}"
            )


@dataclass(frozen=True)
class PfInit:
    """The start every row of a solve shares: (n_bus,) angles and
    magnitudes, the slack angle taken as 0.  The rows start from its
    angles and PQ-bus magnitudes; the chord matrix is the reduced Jacobian
    at this state, its own PV-bus and slack magnitudes included."""

    v_ang: np.ndarray
    v_mag: np.ndarray


@dataclass
class PowerFlowBatch:
    """Results of :func:`solve_pf_batch`, one row per operating point; a
    lone solve (:meth:`row`, :func:`solve_pf`) has no batch axis.

    ``singular`` marks rows stopped by a non-finite step: a chord step from
    a non-finite mismatch, or a Newton step at a singular Jacobian (after
    the row's switch to Newton, or from the start when the chord matrix is
    singular).  They hold their last iterate and are not converged.
    ``residual_history`` is (B, DEFAULT_MAX_ITER + 1), NaN after the iteration
    at which a row stopped; a lone solve's is a list of ``iterations + 1`` floats.
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
        return PowerFlowBatch(**{name: value[rows] for name, value in vars(self).items()})

    def row(self, i: int) -> "PowerFlowBatch":
        """Row ``i`` without the batch axis, as a lone solve reports it; a
        singular row raises :class:`SingularJacobianError`."""
        k = int(self.iterations[i])
        if self.singular[i]:
            raise SingularJacobianError(
                f"singular Jacobian or non-finite Newton step at iteration {k}"
            )
        values = {name: value[i] for name, value in vars(self).items()}
        values["residual_history"] = self.residual_history[i, : k + 1].tolist()
        return PowerFlowBatch(**values)


@dataclass(frozen=True)
class Violation:
    kind: str  # SlackP | SlackQ | PvQ | PqVmag | BranchFlow
    element: int  # bus id, generator bus id or branch position
    magnitude: float  # p.u. amount outside the limit


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]


def dsbus_dv(mm, bus_entry, s):
    """dS/dVa and |V| dS/d|V| of the injections S = V conj(Y V) at the
    entries (i, k) of an admittance pattern holding every diagonal entry.

    ``mm`` is M = conj(Y_ik) V_i conj(V_k) there, whose row sums are S, and
    ``bus_entry`` each bus's diagonal entry; ``mm`` and ``s`` may have a
    leading batch axis.  The derivatives are j (diag(S) - M) and M + diag(S),
    the second written over ``mm``."""
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
) -> PowerFlowBatch:
    """Solve of the balance equations in polar coordinates, by chord and
    Newton steps (:func:`solve_pf_batch`).

    Mismatch ordering is P at PV+PQ buses then Q at PQ buses.  This is
    row 0 of a one-row :func:`solve_pf_batch`, a :class:`PowerFlowBatch`
    without the batch axis whose scalar fields are NumPy scalars.  On
    non-convergence the last iterate is returned with ``converged`` False;
    a singular Jacobian raises :class:`SingularJacobianError` instead.
    """
    p_load, q_load = np.asarray(p_load)[None], np.asarray(q_load)[None]
    return solve_pf_batch(case, adm, indep, p_load, q_load, init=init, tol=tol).row(0)


def solve_pf_batch(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    indep: IndependentVars,
    p_load: np.ndarray,
    q_load: np.ndarray,
    init: PfInit | None = None,
    tol: float = DEFAULT_TOL,
) -> PowerFlowBatch:
    """Chord and Newton solve of B independent operating points at once.

    ``p_load`` and ``q_load`` are (B, n_bus).  The fields of ``indep`` are
    (B,) and (B, n_pv), or shorter shapes shared by every row; ``init`` is
    the one start of every row, and a start that is not (n_bus,) raises
    :class:`PowerFlowError`.  Each row runs the iteration of a lone solve:
    chord steps until its mismatch norm stops falling below
    ``CHORD_CONTRACTION`` times the previous one, Newton steps from then
    on.  It stops updating once its mismatch is below ``tol``, or after
    ``DEFAULT_MAX_ITER`` steps.  A row whose step is non-finite (a Newton
    step at a singular Jacobian) stops with ``singular`` set; the other
    rows carry on.
    """
    p_load = np.asarray(p_load, dtype=float)
    q_load = np.asarray(q_load, dtype=float)
    n = case.n_bus
    if p_load.ndim != 2 or p_load.shape[1] != n or q_load.shape != p_load.shape:
        raise PowerFlowError(
            f"loads of shapes {p_load.shape} and {q_load.shape}; need (B, {n}) each"
        )
    b = p_load.shape[0]
    indep.validate(case, p_load.shape)
    slack = case.slack_index
    pv = case.pv_indices
    pq = case.pq_indices
    npv = len(pv)
    m1 = npv + len(pq)
    order, y, bus_order, jacobian = _newton_layout(case, adm)

    vm, va, chord = _start(case, adm, init)
    vm, va = np.tile(vm, (b, 1)), np.tile(va, (b, 1))
    vm[:, :npv] = indep.pv_v_mag
    vm[:, m1] = indep.v_slack
    spec = -np.concatenate([p_load[:, order[:m1]], q_load[:, pq]], axis=1)
    spec[:, :npv] += indep.pv_p_gen  # net scheduled injections

    # the live rows' arrays shrink as rows stop; a row's final iterate,
    # count and flags are written to these outputs once, when it stops
    vm_out, va_out = vm, va
    history = np.full((b, DEFAULT_MAX_ITER + 1), np.nan)
    iterations = np.empty(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    singular = np.zeros(b, dtype=bool)
    live = np.arange(b)  # the live rows' positions in the batch
    newton = np.full(b, chord is None)  # live rows taking Newton steps
    for it in range(DEFAULT_MAX_ITER + 1):
        v = _polar(vm, va)
        s = v * np.conj(v @ y.T)
        f = np.concatenate([s.real[:, :m1], s.imag[:, npv:m1]], axis=1) - spec
        norm_f = np.abs(f).max(axis=1, initial=0.0)
        if len(live) == b:
            history[:, it] = norm_f
        else:
            history[live, it] = norm_f
        done = norm_f < tol
        stop = done if it < DEFAULT_MAX_ITER else np.ones_like(done)
        stopped = np.count_nonzero(stop)
        if stopped:
            rows = live[stop]
            iterations[rows], converged[rows] = it, done[stop]
            vm_out[rows], va_out[rows] = vm[stop], va[stop]
            if stopped == len(live):
                break
            go = ~stop
            live, vm, va, spec, newton, v, s, f, norm_f = (
                a[go] for a in (live, vm, va, spec, newton, v, s, f, norm_f))
            if it:
                prev = prev[go]
        if it:  # a row whose chord iteration stops contracting switches for good
            newton |= ~(norm_f < CHORD_CONTRACTION * prev)
        prev = norm_f
        # the magnitude unknowns come out relative: d|V| / |V|
        dx = np.empty_like(f) if chord is None else f @ chord
        if np.count_nonzero(newton):
            dx[newton] = _newton_steps(jacobian(v[newton, :m1], s[newton, :m1]), -f[newton])
        ok = np.isfinite(dx).all(axis=1)
        if np.count_nonzero(ok) < len(live):
            rows = live[~ok]
            iterations[rows], singular[rows] = it, True
            vm_out[rows], va_out[rows] = vm[~ok], va[~ok]
            live, vm, va, spec, newton, prev, dx = (
                a[ok] for a in (live, vm, va, spec, newton, prev, dx))
            if not len(live):
                break
        va[:, :m1] += dx[:, :m1]
        vm[:, npv:m1] *= 1.0 + dx[:, m1:]

    vm, va = vm_out[:, bus_order], va_out[:, bus_order]
    v = _polar(vm, va)
    s = v * np.conj(v @ adm.y.T)
    return PowerFlowBatch(
        v_mag=vm,
        v_ang=va,
        p_inj=s.real,
        q_inj=s.imag,
        slack_p_gen=s.real[:, slack] + p_load[:, slack],
        slack_q_gen=s.imag[:, slack] + q_load[:, slack],
        # gathered by np.take, C-ordered as take() copies them (a fancy index
        # on the last axis gives F order), so the training penalty's row sums
        # of these two fields have the same bits on the batch as on its rows
        pv_q_gen=np.take(s.imag, pv, axis=1) + np.take(q_load, pv, axis=1),
        branch_s=branch_flows(case, adm, v),
        iterations=iterations,
        converged=converged,
        singular=singular,
        max_residual=history[np.arange(b), iterations],
        residual_history=history,
    )


def _polar(vm: np.ndarray, va: np.ndarray) -> np.ndarray:
    """The complex voltages ``vm * exp(1j * va)``, written as ``vm * cos(va)``
    and ``vm * sin(va)`` into the real and imaginary parts of one array.

    The numbers are the same bit for bit, except that a zero part may take
    the other sign (at an angle of -0.0, or where ``vm`` is zero), which no
    sum with a nonzero term shows.  On a (128, 29) stack it takes 48 µs
    against 75 µs for the complex exponential (2-core Xeon, numpy 2.4)."""
    v = np.empty(vm.shape, dtype=complex)
    np.multiply(vm, np.cos(va), out=v.real)
    np.multiply(vm, np.sin(va), out=v.imag)
    return v


def _newton_layout(case: NetworkCase, adm: AdmittanceMatrix):
    """The buses in PV, PQ, slack order, the admittance in that order, the
    inverse order and the reduced Jacobian assembly; built once per
    admittance matrix and bus split (``adm.derive``).

    In this order the unknowns (PV+PQ angles, PQ magnitudes) and the
    mismatch rows (P at PV+PQ, Q at PQ) are contiguous slices.
    """
    def build():
        order = np.concatenate([case.pv_indices, case.pq_indices, [case.slack_index]])
        jacobian = _ReducedJacobian(adm, order, len(case.pv_indices))
        return order, adm.y[order][:, order], np.argsort(order), jacobian

    return adm.derive(("newton", case.pv_indices.tobytes(), case.pq_indices.tobytes()), build)


def _start(case: NetworkCase, adm: AdmittanceMatrix, init: PfInit | None):
    """The shared start (|V|, angle) in Newton order, ``init`` or the flat
    start when it is None, and the chord matrix there: -inv(J0).T for the
    reduced Jacobian J0 at the start, so that a chord step is ``f @ chord``,
    or None when J0 is singular or its inverse is not finite.  Built once
    per admittance matrix, bus split and start (``adm.derive``)."""
    n = case.n_bus
    key = ("start", case.pv_indices.tobytes(), case.pq_indices.tobytes())
    if init is not None:
        vm, va = np.asarray(init.v_mag, dtype=float), np.asarray(init.v_ang, dtype=float)
        if vm.shape != (n,) or va.shape != (n,):
            raise PowerFlowError(f"start of shapes {vm.shape} and {va.shape}; need ({n},) each")
        key += (vm.tobytes(), va.tobytes())

    def build():
        order, y, _, jacobian = _newton_layout(case, adm)
        if init is None:
            vm0, va0 = np.ones(n), np.zeros(n)
        else:
            vm0, va0 = vm[order], va[order]
            va0[-1] = 0.0  # the slack angle is the reference, whatever init says
        v = _polar(vm0, va0)
        s = v * np.conj(y @ v)
        try:
            inv = np.linalg.inv(jacobian(v[None, :-1], s[None, :-1])[0])
        except np.linalg.LinAlgError:
            return vm0, va0, None
        return vm0, va0, np.ascontiguousarray(-inv.T) if np.isfinite(inv).all() else None

    return adm.derive(key, build)


class _ReducedJacobian:
    """Newton Jacobians of the P (PV+PQ buses) and Q (PQ buses) mismatches
    with respect to the PV+PQ angles and the relative PQ magnitudes.

    ``order`` lists the buses PV first, then PQ, then the slack.  The four
    blocks are the real and imaginary parts of :func:`dsbus_dv` at the
    admittance pattern's entries between non-slack buses, in that order,
    scattered into dense (B, m, m) matrices.
    """

    def __init__(self, adm: AdmittanceMatrix, order: np.ndarray, npv: int):
        m1 = len(order) - 1
        shift = m1 - npv  # from a PQ bus's angle column (P row) to its magnitude (Q row)
        self.m = m = m1 + shift
        self.npv = npv
        rank = np.argsort(order)
        keep = np.flatnonzero((rank[adm.i] < m1) & (rank[adm.k] < m1))  # no slack end
        i, k = rank[adm.i[keep]], rank[adm.k[keep]]
        self.i, self.k, self.y_conj = i, k, adm.y_conj[keep]
        self.bus_entry = np.searchsorted(keep, adm.bus_entry[order[:m1]])  # in `order`
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

    def __call__(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Jacobians (B, m, m) at the (B, PV+PQ) voltages and injections."""
        mm = self.y_conj * v[:, self.i] * np.conj(v[:, self.k])
        dva, dvm = dsbus_dv(mm, self.bus_entry, s)
        jac = np.zeros((len(v), self.m * self.m))
        jac[:, self.pos] = np.concatenate([
            dva.real, dvm.real[:, self.pq_col], dva.imag[:, self.pq_row], dvm.imag[:, self.pq_both],
        ], axis=1)
        return jac.reshape(len(v), self.m, self.m)


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
    vf, vt = np.take(v, adm.f, axis=-1), np.take(v, adm.t, axis=-1)  # C order for a stack
    s_from = vf * np.conj(adm.yff * vf + adm.yft * vt)
    s_to = vt * np.conj(adm.ytf * vf + adm.ytt * vt)
    return np.maximum(np.abs(s_from), np.abs(s_to))


def box_penalty(x, x_min, x_max):
    """max(x - x_max, 0) + max(x_min - x, 0); zero inside the box."""
    return np.maximum(x - x_max, 0.0) + np.maximum(x_min - x, 0.0)


def limit_excess(case: NetworkCase, solution: PowerFlowBatch) -> dict[str, np.ndarray]:
    """Amount by which each reconstructed quantity leaves its operating limit.

    Returns one :func:`box_penalty` vector per violation family, keyed
    SlackP, SlackQ (length 1), PvQ (PV buses), PqVmag (PQ buses) and
    BranchFlow (all branches, zero where unlimited); for a batch each
    vector gains its leading axis.  For nonempty boxes an entry is positive
    exactly when the quantity is outside its box, and then equals its
    distance to the nearer bound.  A diverged reconstruction has no limits
    to test and raises.
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
    solution: PowerFlowBatch,
    tolerance: float = FEASIBILITY_TOL,
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
