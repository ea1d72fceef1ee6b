"""Reference AC optimal power flow solver.

Primal-dual interior point method: slacks on every inequality, logarithmic
barrier, Newton steps on the perturbed KKT system, fraction-to-the-boundary
step control (0.99995) and adaptive barrier reduction (sigma = 0.1).  The
variable vector is x = [va, vm, pg, qg] in polar per-unit coordinates.

Each Newton step is assembled from the network structure rather than from
dense derivative matrices (the scheme of MATPOWER's MIPS): the
power-balance Jacobian is ``powerflow.dsbus_dv``, which the Newton power
flow runs too, and the Hessian one bilinear kernel with the combined
multiplier lam_p - j lam_q, both at the admittance nonzeros; every
branch-flow row contributes a 4x4 block over (va_f, va_t, vm_f, vm_t) to
both the Hessian and the barrier term jh' diag(mu/z) jh; the box rows of
jh, signed identities, go straight onto the diagonal.  The generator
block of the KKT matrix is diagonal and positive, so it is eliminated
exactly, and what LAPACK factorizes is a dense (4N+1)-square system in
(va, vm, lam) followed by a back-substitution for the dispatch step.
The index arrays behind this are built once per admittance matrix.

The iteration works on the cost times f_scale = min(1, G / max|grad f|),
with the gradient taken at the midpoint dispatch and G =
OBJECTIVE_GRAD_MAX (Ipopt's gradient-based scaling; MATPOWER's MIPS
scales its cost by 1e-4).  Unscaled, case118's cost gradient of 28,000 $/h
per p.u. dwarfs the unit multipliers of the cold barrier state, and the
dispatch creeps along its lower bounds for dozens of tiny steps.  The
factor depends on the case alone; it is 1 on case30.  The multipliers are
in scaled units inside the loop, and the stopping rule divides them back,
so EQ_TOL, INEQ_TOL, COMP_TOL, GRAD_TOL, ``history`` and ``kkt_residual``
are in the cost's own units, as is the objective.

Cold starts are fixed (flat voltages, midpoint generation) so the
load-to-solution mapping the learned pipeline regresses on is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .netmodel import AdmittanceMatrix, NetworkCase, build_admittance
from .powerflow import dsbus_dv

EQ_TOL = 1e-8  # infinity norm of the balance equations
INEQ_TOL = 1e-6  # max inequality violation
COMP_TOL = 1e-6  # mean complementarity gap
GRAD_TOL = 1e-6  # scaled stationarity
DEFAULT_MAX_ITER = 150
# bound on the scaled cost's gradient at the midpoint dispatch (_objective_scale)
OBJECTIVE_GRAD_MAX = 1e3

_XI = 0.99995  # fraction-to-the-boundary
_SIGMA = 0.1  # barrier reduction factor


class OpfError(Exception):
    pass


@dataclass(frozen=True)
class WarmStart:
    """Full primal point assembled from a prediction or a prior solution."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_gen: np.ndarray
    q_gen: np.ndarray


@dataclass
class OpfSolution:
    p_gen: np.ndarray
    q_gen: np.ndarray
    v_mag: np.ndarray
    v_ang: np.ndarray
    objective: float
    kkt_residual: float
    converged: bool
    iterations: int
    wall_time: float
    history: list[tuple] = field(default_factory=list, repr=False)


def generation_cost(case: NetworkCase, p_gen: np.ndarray) -> float:
    """Total quadratic generation cost in $/hr for per-unit dispatch."""
    return float(np.sum(case.c2 * p_gen**2 + case.c1 * p_gen + case.c0))


def _sum_at(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """Complex ``bincount``: entry j is the sum of ``w`` where ``idx == j``."""
    return np.bincount(idx, w.real, size) + 1j * np.bincount(idx, w.imag, size)


def _bilinear_terms(b, bt, rs, cs, vm_i, vm_k, vm_d, diag):
    """Derivatives of F = sum_ik m_ik V_i conj(V_k) wrt (angles, magnitudes).

    The form is given at its entries b_ik = V_i m_ik conj(V_k); ``bt`` holds
    b_ki at the same entries, ``vm_i``/``vm_k`` broadcast the row and column
    magnitude to each entry and ``diag`` indexes the diagonal entries.
    ``rs``/``cs`` are the row and column sums of b and ``vm_d`` the
    magnitudes, one per variable.  Returns the complex gradient (dF/dva,
    dF/dvm) and the Hessian blocks (haa, hav, hvv) at every entry, with
    hav[i, k] = d2F / dva_i dvm_k; the real parts belong to Re F.
    """
    grad_a = 1j * (rs - cs)
    grad_v = (rs + cs) / vm_d
    s = b + bt
    haa = s.copy()
    haa[diag] -= vm_d * grad_v
    hav = 1j * (b - bt) / vm_k
    hav[diag] += grad_a / vm_d
    return grad_a, grad_v, haa, hav, s / (vm_i * vm_k)


class _KktStructure:
    """Index and coefficient arrays of the structured Newton step, built
    once per admittance matrix and set of flow-limited branches and kept in
    ``adm.derived``.

    Second derivatives couple only a bus with itself or two buses joined by
    a branch, so the voltage block of the Hessian lives on the entries
    (i, k) of that pattern, four values per entry: the (va, va), (va, vm),
    (vm, va) and (vm, vm) blocks, in that order.  Each limited branch has
    two flow rows (from side, then to side); a row is the two-bus form
    S = V_side conj(y1 V_f + y2 V_t) over its local variables
    (va_f, va_t, vm_f, vm_t).
    """

    def __init__(self, adm: AdmittanceMatrix, lim: np.ndarray):
        n = adm.dimension
        f, t = adm.f[lim], adm.t[lim]
        mask = adm.y != 0
        mask[f, t] = mask[t, f] = True  # flow terms even where Y entries cancel
        mask[np.arange(n), np.arange(n)] = True
        i, k = np.nonzero(mask | mask.T)
        self.nnz = nnz = len(i)
        slot = np.full((n, n), -1)
        slot[i, k] = np.arange(nnz)
        self.i, self.k = i, k
        self.y_conj = np.conj(adm.y[i, k])
        self.tpos = slot[k, i]  # where entry (k, i) sits
        self.diag = slot[np.arange(n), np.arange(n)]
        self.vm_diag = 3 * nnz + self.diag
        # positions of the four blocks in any matrix whose first 2n rows and
        # columns are (va, vm)
        self.rows = np.concatenate([i, i, n + i, n + i])
        self.cols = np.concatenate([k, n + k, k, n + k])

        nlim = len(lim)
        self.ends = np.tile(np.stack([f, t], axis=1), (2, 1))  # (2L, 2) buses
        other = f != t  # a self-loop keeps its one combined coefficient
        m_loc = np.zeros((2 * nlim, 2, 2), dtype=complex)
        m_loc[:nlim, 0, 0] = np.conj(adm.yf[lim, f])
        m_loc[:nlim, 0, 1] = np.where(other, np.conj(adm.yf[lim, t]), 0)
        m_loc[nlim:, 1, 0] = np.where(other, np.conj(adm.yt[lim, f]), 0)
        m_loc[nlim:, 1, 1] = np.conj(adm.yt[lim, t])
        self.m_loc = m_loc
        # the local variables as columns of x, and every entry of a local
        # 4x4 block as a position among the four Hessian blocks
        kind = np.array([0, 0, 1, 1])  # angle, angle, magnitude, magnitude
        bus = np.concatenate([self.ends, self.ends], axis=1)
        self.x_cols = bus + n * kind
        block = 2 * kind[:, None] + kind[None, :]
        self.block_pos = (block * nnz + slot[bus[:, :, None], bus[:, None, :]]).ravel()


def _kkt_structure(adm: AdmittanceMatrix, lim: np.ndarray) -> _KktStructure:
    key = ("opf", lim.tobytes())
    if key not in adm.derived:
        adm.derived[key] = _KktStructure(adm, lim)
    return adm.derived[key]


@dataclass(frozen=True)
class _BranchFlows:
    """Flow rows at one voltage state: complex flows ``s`` (2L,), their
    gradients ``ds`` (2L, 4) and Hessians ``hs`` (2L, 4, 4) over the local
    variables, and the gradients ``dh`` (2L, 4) of the rows |S|^2 - smax^2."""

    s: np.ndarray
    ds: np.ndarray
    hs: np.ndarray
    dh: np.ndarray


def _branch_flows(st: _KktStructure, v: np.ndarray, vm: np.ndarray) -> _BranchFlows:
    vl = v[st.ends]
    vml = vm[st.ends]
    b = vl[:, :, None] * st.m_loc * np.conj(vl)[:, None, :]
    grad_a, grad_v, haa, hav, hvv = _bilinear_terms(
        b, b.transpose(0, 2, 1), b.sum(axis=2), b.sum(axis=1),
        vml[:, :, None], vml[:, None, :], vml, (slice(None), [0, 1], [0, 1]),
    )
    s = b.sum(axis=(1, 2))
    ds = np.concatenate([grad_a, grad_v], axis=1)
    hs = np.empty((len(b), 4, 4), dtype=complex)
    hs[:, :2, :2] = haa
    hs[:, :2, 2:] = hav
    hs[:, 2:, :2] = hav.transpose(0, 2, 1)
    hs[:, 2:, 2:] = hvv
    return _BranchFlows(s, ds, hs, 2 * (np.conj(s)[:, None] * ds).real)


def _objective_scale(case: NetworkCase) -> float:
    """The module docstring's f_scale; 1 where the cost has no gradient."""
    pg_mid = 0.5 * (case.p_min + case.p_max)
    grad = float(np.max(np.abs(2 * case.c2 * pg_mid + case.c1), initial=0.0))
    return min(1.0, OBJECTIVE_GRAD_MAX / grad) if grad > 0 else 1.0


class _OpfProblem:
    """Problem data and the structured derivative kernels.

    The constraint rows are the balance equations (P, Q, slack angle) and
    the inequalities (|V| box, P box, Q box, then the from-side and to-side
    branch flow rows).  The solver uses the structured kernels
    (:meth:`voltage_jacobian`, :meth:`eq_t_dot`, :meth:`ineq_dot`,
    :meth:`ineq_t_dot`, :meth:`newton_step`).  The one dense view is
    :meth:`eq_jacobian`, which the warm start's multiplier fit uses; it is
    built from the same kernel.
    """

    def __init__(self, case: NetworkCase, adm: AdmittanceMatrix, p_load, q_load):
        self.case = case
        self.adm = adm
        self.n = case.n_bus
        self.ng = len(case.generators)
        self.p_load = np.asarray(p_load, dtype=float)
        self.q_load = np.asarray(q_load, dtype=float)
        self.slack = case.slack_index
        self.gen_bus = case.gen_bus
        self.pmin, self.pmax = case.p_min, case.p_max
        self.qmin, self.qmax = case.q_min, case.q_max
        self.vmin, self.vmax = case.v_min, case.v_max
        self.f_scale = _objective_scale(case)
        self.c2, self.c1 = self.f_scale * case.c2, self.f_scale * case.c1
        lim = np.flatnonzero(case.s_limited)
        self.smax2 = np.tile(case.s_max[lim] ** 2, 2)
        self.st = _kkt_structure(adm, lim)
        self.nx = 2 * self.n + 2 * self.ng
        self.neq = 2 * self.n + 1
        self.niq = 2 * self.n + 4 * self.ng + 2 * len(lim)
        # the reduced KKT matrix in (va, vm, lam), allocated once per problem:
        # every iteration rewrites the same entries, the rest stays zero
        self.kkt = np.zeros((4 * self.n + 1, 4 * self.n + 1))
        self.kkt[4 * self.n, self.slack] = 1.0  # slack-angle row

    def split(self, x):
        n, ng = self.n, self.ng
        return x[:n], x[n : 2 * n], x[2 * n : 2 * n + ng], x[2 * n + ng :]

    def objective(self, x):
        return generation_cost(self.case, self.split(x)[2])

    def d_objective(self, x):
        _, _, pg, _ = self.split(x)
        df = np.zeros(self.nx)
        df[2 * self.n : 2 * self.n + self.ng] = 2 * self.c2 * pg + self.c1
        return df

    def equalities(self, x, s):
        _, _, pg, qg = self.split(x)
        g = np.empty(self.neq)
        g[: self.n] = s.real + self.p_load - np.bincount(self.gen_bus, pg, self.n)
        g[self.n : 2 * self.n] = s.imag + self.q_load - np.bincount(self.gen_bus, qg, self.n)
        g[2 * self.n] = x[self.slack]
        return g

    def voltage_jacobian(self, v, vm, s):
        """The (va, vm) columns of the balance-equation Jacobian, (neq, 2N).

        :func:`dsbus_dv` at the structure's entries is written into the KKT
        matrix (the block below the Hessian, zero elsewhere) and returned as
        a view of it, so it stays in place for the next :meth:`newton_step`
        and :meth:`eq_t_dot`.  The generator columns, a constant negative
        incidence, are never formed."""
        n, st = self.n, self.st
        dsa, dsv = dsbus_dv(st.i, st.k, st.y_conj, st.diag, v, s)
        dsv /= vm[st.k]
        jv = self.kkt[2 * n :, : 2 * n]
        jv[st.rows, st.cols] = np.concatenate([dsa.real, dsv.real, dsa.imag, dsv.imag])
        return jv

    def eq_t_dot(self, lam):
        """jg.T @ lam at the state of the last :meth:`voltage_jacobian` call."""
        n, gb = self.n, self.gen_bus
        volt = self.kkt[2 * n :, : 2 * n].T @ lam
        return np.concatenate([volt, -lam[gb], -lam[n + gb]])

    def eq_jacobian(self, v, vm, s):
        """Dense jg: :meth:`voltage_jacobian` beside the generator columns."""
        n, ng, gb = self.n, self.ng, self.gen_bus
        jg = np.zeros((self.neq, self.nx))
        jg[:, : 2 * n] = self.voltage_jacobian(v, vm, s)
        jg[gb, 2 * n + np.arange(ng)] = -1.0
        jg[n + gb, 2 * n + ng + np.arange(ng)] = -1.0
        return jg

    def inequalities(self, x, v):
        """Inequality values; also keeps the branch-flow derivatives at this
        state for the Jacobian and Hessian kernels."""
        _, vm, pg, qg = self.split(x)
        parts = [
            vm - self.vmax,
            self.vmin - vm,
            pg - self.pmax,
            self.pmin - pg,
            qg - self.qmax,
            self.qmin - qg,
        ]
        self._flows = _branch_flows(self.st, v, vm)
        parts.append(np.abs(self._flows.s) ** 2 - self.smax2)
        return np.concatenate(parts)

    def ineq_dot(self, dx):
        """jh @ dx: signed box rows, then the branch rows' local gradients."""
        _, dvm, dpg, dqg = self.split(dx)
        flow = np.sum(self._flows.dh * dx[self.st.x_cols], axis=1)
        return np.concatenate([dvm, -dvm, dpg, -dpg, dqg, -dqg, flow])

    def ineq_t_dot(self, w):
        """jh.T @ w from the same structure as :meth:`ineq_dot`."""
        n, ng = self.n, self.ng
        gen = w[2 * n : 2 * n + 4 * ng].reshape(4, ng)  # pg up/low, qg up/low
        wb = w[2 * n + 4 * ng :]
        volt = np.bincount(
            self.st.x_cols.ravel(), (self._flows.dh * wb[:, None]).ravel(), 2 * n
        )
        volt[n:] += w[:n] - w[n : 2 * n]
        return np.concatenate([volt, gen[0] - gen[1], gen[2] - gen[3]])

    def _voltage_hessian(self, v, vm, lam, mu, mdivz=None):
        """The (va, vm) block of the Lagrangian Hessian at the structure's
        entries, plus sum_e mdivz_e dh_e dh_e' over the flow rows if given."""
        n, st = self.n, self.st
        c = lam[:n] - 1j * lam[n : 2 * n]
        b = v[st.i] * c[st.i] * st.y_conj * np.conj(v[st.k])
        _, _, haa, hav, hvv = _bilinear_terms(
            b, b[st.tpos], _sum_at(st.i, b, n), _sum_at(st.k, b, n),
            vm[st.i], vm[st.k], vm, st.diag,
        )
        hav = hav.real
        vals = np.concatenate([haa.real, hav, hav[st.tpos], hvv.real])

        fl = self._flows
        mu_b = mu[2 * n + 4 * self.ng :]
        # d2(mu |S|^2) = 2 mu Re(conj(dS) dS' + conj(S) d2S)
        blocks = 2 * (
            mu_b[:, None, None]
            * (np.conj(fl.ds)[:, :, None] * fl.ds[:, None, :]
               + np.conj(fl.s)[:, None, None] * fl.hs)
        ).real
        if mdivz is not None:
            blocks += mdivz[:, None, None] * fl.dh[:, :, None] * fl.dh[:, None, :]
        return vals + np.bincount(st.block_pos, blocks.ravel(), 4 * st.nnz)

    def newton_step(self, v, vm, lam, mu, mdivz, r_x, r_g):
        """Solve [[lxx + jh' diag(mdivz) jh, jg'], [jg, 0]] [dx; dlam] = [r_x; r_g].

        The (pg, qg) block is diagonal: 2 c2 plus mdivz of each unit's two
        P box rows, and mdivz of its two Q box rows.  It is eliminated, which
        puts -sum 1/d over each bus's units on the lam_P / lam_Q diagonal,
        and the dense (4N+1)-square system in (va, vm, lam) is solved.
        jg is the one of the last :meth:`voltage_jacobian` call.  Raises
        ``np.linalg.LinAlgError`` when the reduced system is singular.
        """
        n, ng, gb, st = self.n, self.ng, self.gen_bus, self.st
        box = mdivz[: 2 * n + 4 * ng]
        gen = box[2 * n :].reshape(4, ng)  # pg up/low, qg up/low
        d_pg = 2 * self.c2 + gen[0] + gen[1]
        d_qg = gen[2] + gen[3]
        r_pg, r_qg = r_x[2 * n : 2 * n + ng], r_x[2 * n + ng :]

        vals = self._voltage_hessian(v, vm, lam, mu, mdivz[2 * n + 4 * ng :])
        vals[st.vm_diag] += box[:n] + box[n : 2 * n]
        kkt = self.kkt
        kkt[st.rows, st.cols] = vals
        kkt[: 2 * n, 2 * n :] = kkt[2 * n :, : 2 * n].T
        lam_pq = np.arange(2 * n, 4 * n)
        kkt[lam_pq, lam_pq] = -np.concatenate(
            [np.bincount(gb, 1.0 / d_pg, n), np.bincount(gb, 1.0 / d_qg, n)]
        )
        rhs = np.concatenate([r_x[: 2 * n], r_g])
        rhs[lam_pq] += np.concatenate(
            [np.bincount(gb, r_pg / d_pg, n), np.bincount(gb, r_qg / d_qg, n)]
        )
        step = np.linalg.solve(kkt, rhs)
        dlam = step[2 * n :]
        dpg = (r_pg + dlam[gb]) / d_pg
        dqg = (r_qg + dlam[n + gb]) / d_qg
        return np.concatenate([step[: 2 * n], dpg, dqg]), dlam


def _cold_start(prob: _OpfProblem) -> np.ndarray:
    x = np.zeros(prob.nx)
    x[prob.n : 2 * prob.n] = np.clip(1.0, prob.vmin, prob.vmax)
    x[2 * prob.n : 2 * prob.n + prob.ng] = 0.5 * (prob.pmin + prob.pmax)
    x[2 * prob.n + prob.ng :] = 0.5 * (prob.qmin + prob.qmax)
    return x


def _warm_x(prob: _OpfProblem, start: WarmStart) -> np.ndarray:
    """Safeguarded warm start: magnitudes and dispatch clipped into bounds."""
    x = np.empty(prob.nx)
    x[: prob.n] = np.asarray(start.v_ang, dtype=float) - start.v_ang[prob.slack]
    x[prob.n : 2 * prob.n] = np.clip(start.v_mag, prob.vmin, prob.vmax)
    x[2 * prob.n : 2 * prob.n + prob.ng] = np.clip(start.p_gen, prob.pmin, prob.pmax)
    x[2 * prob.n + prob.ng :] = np.clip(start.q_gen, prob.qmin, prob.qmax)
    return x


def solve_opf(
    case: NetworkCase,
    loads: np.ndarray | None = None,
    start: WarmStart | None = None,
    adm: AdmittanceMatrix | None = None,
) -> OpfSolution:
    """Solve the AC-OPF by the primal-dual interior point method.

    ``loads`` is the concatenated (P then Q) per-unit load vector of length
    2N; None uses the case defaults.  Convergence requires the balance
    equations to EQ_TOL, inequalities to INEQ_TOL, complementarity to
    COMP_TOL and scaled stationarity to GRAD_TOL, within DEFAULT_MAX_ITER
    iterations.
    """
    t0 = time.perf_counter()
    if adm is None:
        adm = build_admittance(case)
    n = case.n_bus
    if loads is None:
        loads = case.default_loads
    else:
        loads = np.asarray(loads, dtype=float)
        if loads.shape != (2 * n,):
            raise OpfError(f"loads must have shape ({2 * n},), got {loads.shape}")
    p_load, q_load = loads[:n], loads[n:]

    prob = _OpfProblem(case, adm, p_load, q_load)
    fs = prob.f_scale
    x = _cold_start(prob) if start is None else _warm_x(prob, start)

    lam = np.zeros(prob.neq)
    va, vm, _, _ = prob.split(x)
    v = vm * np.exp(1j * va)
    h = prob.inequalities(x, v)
    if start is None or (h.size and np.max(h) > 0.1):
        # cold barrier state; also used for badly infeasible warm points,
        # which still keep their primal head start
        z = np.maximum(1.0, -h)
        gamma = 1.0
        mu = np.maximum(1.0, gamma / z)
    else:
        # near-feasible warm start: seed slacks from the point's own
        # constraint margins, open with a small barrier parameter and fit
        # the equality multipliers by least squares for stationarity
        z = np.maximum(5e-3, -h)
        gamma = 1e-3
        mu = gamma / z
        jg0 = prob.eq_jacobian(v, vm, v * np.conj(adm.y @ v))
        rhs0 = -(prob.d_objective(x) + prob.ineq_t_dot(mu))
        lam = np.linalg.lstsq(jg0.T, rhs0, rcond=None)[0]

    history: list[tuple] = []
    converged = False
    kkt = np.inf
    iterations = 0
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        va, vm, _, _ = prob.split(x)
        v = vm * np.exp(1j * va)
        s = v * np.conj(adm.y @ v)
        g = prob.equalities(x, s)
        h = prob.inequalities(x, v)
        prob.voltage_jacobian(v, vm, s)
        df = prob.d_objective(x)
        lx = df + prob.eq_t_dot(lam) + prob.ineq_t_dot(mu)

        f_val = prob.objective(x)
        eq_res = float(np.max(np.abs(g)))
        ineq_res = float(np.max(h)) if h.size else 0.0
        # tested in the cost's own units: lam, mu, lx and z mu carry f_scale
        comp = float(z @ mu / max(len(z), 1)) / fs
        grad = float(
            np.max(np.abs(lx)) / fs
            / (1.0 + max(np.max(np.abs(lam)), np.max(np.abs(mu)) if mu.size else 0.0) / fs)
        )
        history.append((f_val, eq_res, ineq_res, comp, grad))
        kkt = max(eq_res, ineq_res, comp, grad)
        if eq_res < EQ_TOL and ineq_res < INEQ_TOL and comp < COMP_TOL and grad < GRAD_TOL:
            converged = True
            break
        if not np.isfinite(f_val) or not np.all(np.isfinite(x)):
            break

        zinv = 1.0 / z
        mdivz = mu * zinv
        n_vec = lx + prob.ineq_t_dot(zinv * (gamma + mu * h))
        try:
            dx, dlam = prob.newton_step(v, vm, lam, mu, mdivz, -n_vec, -g)
        except np.linalg.LinAlgError:
            break
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dlam))):
            break
        dz = -h - z - prob.ineq_dot(dx)
        dmu = -mu + zinv * (gamma - mu * dz)

        neg = dz < 0
        alpha_p = min(1.0, _XI * np.min(-z[neg] / dz[neg])) if np.any(neg) else 1.0
        neg = dmu < 0
        alpha_d = min(1.0, _XI * np.min(-mu[neg] / dmu[neg])) if np.any(neg) else 1.0

        x = x + alpha_p * dx
        z = z + alpha_p * dz
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu
        gamma = _SIGMA * (z @ mu) / max(len(z), 1)

    va, vm, pg, qg = prob.split(x)
    return OpfSolution(
        p_gen=pg.copy(),
        q_gen=qg.copy(),
        v_mag=vm.copy(),
        v_ang=va.copy(),
        objective=prob.objective(x),
        kkt_residual=kkt,
        converged=converged,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        history=history,
    )


def recover(
    case: NetworkCase,
    loads: np.ndarray | None,
    predicted: WarmStart,
    adm: AdmittanceMatrix | None = None,
) -> OpfSolution:
    """Re-solve from a (possibly infeasible) predicted operating point.

    The predicted primal point is safeguarded (voltages and dispatch clipped
    into their boxes) and used as the interior-point start. Identical
    contract to :func:`solve_opf`; the iteration count lets callers compare
    warm against cold starts.
    """
    return solve_opf(case, loads=loads, start=predicted, adm=adm)
