"""Reference AC optimal power flow solver.

Primal-dual interior point method: slacks on every inequality, logarithmic
barrier, Newton steps on the perturbed KKT system, fraction-to-the-boundary
step control (0.99995) and adaptive barrier reduction (sigma = 0.1).  The
variable vector is x = [va, vm, pg, qg] in polar per-unit coordinates.

Each Newton step is assembled from the network structure rather than from
dense derivative matrices (the scheme of MATPOWER's MIPS): the
power-balance Jacobian is ``powerflow.dsbus_dv``, which the Newton power
flow runs too, and the voltage block of the Lagrangian Hessian is one
bilinear kernel at the admittance pattern.  Its coefficient at entry
(i, k) is c_i conj(Y_ik), with the combined multiplier c = lam_p - j lam_q,
and the branch-flow rows' curvature is folded into the same form: a flow
row |S_e|^2 - smax^2, with S_e = sum_ab V_a m_e[a, b] conj(V_b) over the
branch's two buses, has second derivative 2 Re(conj(dS) dS' + conj(S_e)
d2S_e), and its second term is the form with coefficients
2 mu_e conj(S_e) m_e, added at the (f, t) entries.  What is left of a flow
row is real and rank one: 2 mu (Re dS Re dS' + Im dS Im dS') plus the
barrier term (mu/z) dh dh', a 4x4 block over (va_f, va_t, vm_f, vm_t).  The
box rows of jh, signed identities, go straight onto the diagonal.  The
generator block of the KKT matrix is diagonal and positive, so it is
eliminated exactly, and what LAPACK factorizes is a dense (4N+1)-square
system in (va, vm, lam) followed by a back-substitution for the dispatch
step.  The entries are the admittance's sparse pattern, and the index
arrays built on them are kept once per admittance matrix.  The product
M = conj(Y_ik) V_i conj(V_k) there is formed once per iteration: its row
sums are the injections, and ``dsbus_dv`` takes it.

There is one iteration, :func:`solve_opf_batch`, which advances B load rows
in lockstep.  Every row keeps its own step lengths, barrier parameter,
stopping test and history; a row leaves the live arrays when it converges,
stops on a non-finite iterate or meets a singular or non-finite step, and
the other rows carry on.  The live rows' reduced systems are solved as one
LAPACK stack (``powerflow._newton_steps``, which gives a singular matrix a
NaN step for its own row), and a stacked solve is bit-identical per matrix
to a lone one.  The other kernels are row-wise too: elementwise arithmetic,
reductions along a row and row-wise ``bincount`` scatters, with no matrix
product across the batch (the injections are row sums of M, not a dense
Y V).  So a row goes through the arithmetic of its
lone solve, and on the hosts checked its iterates are bit-identical to it:
a label does not depend on the batch it was solved in.
:func:`solve_opf` and :func:`recover` are the one-row view; given a
stack of load rows, :func:`solve_opf` hands it to the batch whole, which is
how ``gen-data`` labels.

Batching amortizes the Python overhead of about twenty small numpy kernels
per iteration, which is most of a lone case30 iteration; the dense solves
stay one per row.  The stack is what grows with B: (4N+1)^2 doubles per
row, 117 KB on case30 and 1.8 MB on case118.  :func:`batch_rows` fills
KKT_STACK_BYTES = 1 MiB with them.  That is 8 rows on case30, where a
cold solve then takes a third to a half of its lone time per row and more
rows gained no more than the run-to-run noise (single-threaded OpenBLAS,
2-core Xeon).
It is 1 row on case118, whose 473-square LAPACK solve is most of an
iteration: there a second stacked row made each row slower, and four made
each about 40% slower, as the stack outgrew the cache.

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

from .netmodel import AdmittanceMatrix, DeepsolveError, NetworkCase, build_admittance
from .powerflow import _newton_steps, dsbus_dv

EQ_TOL = 1e-8  # infinity norm of the balance equations
INEQ_TOL = 1e-6  # max inequality violation
COMP_TOL = 1e-6  # mean complementarity gap
GRAD_TOL = 1e-6  # scaled stationarity
DEFAULT_MAX_ITER = 150
# bound on the scaled cost's gradient at the midpoint dispatch (_objective_scale)
OBJECTIVE_GRAD_MAX = 1e3
# bytes of reduced KKT matrices one lockstep batch should stack (batch_rows)
KKT_STACK_BYTES = 1 << 20

_XI = 0.99995  # fraction-to-the-boundary
_TOLS = np.array([EQ_TOL, INEQ_TOL, COMP_TOL, GRAD_TOL])
_SIGMA = 0.1  # barrier reduction factor


class OpfError(DeepsolveError):
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


class OpfBatch(list):
    """The solutions of one lockstep batch, one per load row.  Read as one
    outcome, like a lone solve's: ``iterations`` is the rows' iterations
    summed and ``converged`` holds when every row converged."""

    @property
    def iterations(self) -> int:
        return sum(sol.iterations for sol in self)

    @property
    def converged(self) -> bool:
        return all(sol.converged for sol in self)


def generation_cost(case: NetworkCase, p_gen: np.ndarray) -> float | np.ndarray:
    """Total quadratic generation cost in $/hr for per-unit dispatch: a
    float for one dispatch (G,), one cost per row for a stack (..., G)."""
    cost = np.sum(case.c2 * p_gen**2 + case.c1 * p_gen + case.c0, axis=-1)
    return float(cost) if cost.ndim == 0 else cost


def batch_rows(case: NetworkCase) -> int:
    """Rows of one lockstep batch: as many reduced KKT matrices as fit
    KKT_STACK_BYTES, and at least one."""
    m = 4 * case.n_bus + 1
    return max(1, KKT_STACK_BYTES // (8 * m * m))


class _RowSum:
    """Row-wise ``bincount`` into ``size`` bins: entry [r, j] of the sum of
    (B, len(idx)) weights w is the sum of w[r, m] over the m with
    idx[m] == j.  Complex weights are summed as interleaved real and
    imaginary parts.  The flat bin indices of b rows are the first entries
    of those of any larger batch, so one array per kind of weight, for the
    largest batch yet, serves every batch size."""

    def __init__(self, idx: np.ndarray, size: int):
        self.idx = np.ravel(idx)
        self.size = size
        self._flat = {False: self.idx[:0], True: self.idx[:0]}

    def __call__(self, w: np.ndarray) -> np.ndarray:
        b, size = len(w), self.size
        cplx = w.dtype.kind == "c"
        used = b * len(self.idx) * (2 if cplx else 1)
        flat = self._flat[cplx]
        if len(flat) < used:
            flat = (self.idx + size * np.arange(b)[:, None]).ravel()
            if cplx:
                flat = np.stack([2 * flat, 2 * flat + 1], axis=1).ravel()
            self._flat[cplx] = flat
        flat = flat[:used]
        if cplx:
            w = np.ascontiguousarray(w).view(np.float64)
            return np.bincount(flat, w.ravel(), 2 * b * size).view(complex).reshape(b, size)
        return np.bincount(flat, w.ravel(), b * size).reshape(b, size)


def _bilinear_terms(adm, b, rs, cs, vm):
    """Second derivatives of Re F, F = sum_ik m_ik V_i conj(V_k), with
    respect to (angles, magnitudes), for a (B, ...) stack of forms.

    A form is given at its entries b_ik = V_i m_ik conj(V_k) on the pattern
    of ``adm``; ``rs``/``cs`` are the row and column sums of b and ``vm``
    the magnitudes.  Returns the (va, va), (va, vm), (vm, va) and (vm, vm)
    blocks at every entry, (B, 4, entries).
    """
    bt, vm_k = b[:, adm.tpos], vm[:, adm.k]
    h = np.empty((len(b), 4, b.shape[1]))
    np.add(b.real, bt.real, out=h[:, 0])
    np.divide(h[:, 0], vm[:, adm.i] * vm_k, out=h[:, 3])
    h[:, 0, adm.bus_entry] -= (rs + cs).real
    np.subtract(bt.imag, b.imag, out=h[:, 1])
    h[:, 1] /= vm_k
    h[:, 1, adm.bus_entry] += (cs - rs).imag / vm
    h[:, 2] = h[:, 1, adm.tpos]
    return h


class _KktStructure:
    """Index and coefficient arrays of the structured Newton step, built
    once per admittance matrix and set of flow-limited branches
    (``adm.derive``).

    Second derivatives couple only a bus with itself or two buses joined by
    a branch, so the voltage block of the Hessian lives on the entries
    (i, k) of the admittance pattern, four values per entry: the (va, va),
    (va, vm), (vm, va) and (vm, vm) blocks, in that order.  The balance
    Jacobian's voltage columns have the same four values per entry.  Each
    limited branch has two flow rows (from side, then to side); a row is
    the two-bus form S = V_side (m_f conj(V_f) + m_t conj(V_t)) over its
    local variables (va_f, va_t, vm_f, vm_t), m = ``m_side`` (conj(yff),
    conj(yft) on the from side).
    """

    def __init__(self, adm: AdmittanceMatrix, lim: np.ndarray):
        n = adm.dimension
        i, k, entry, nnz = adm.i, adm.k, adm.entry, len(adm.i)
        self.vm_diag = 3 * nnz + adm.bus_entry
        # the four blocks' rows and columns among (va, vm), and their flat
        # positions in the reduced KKT matrix: Hessian, balance Jacobian
        # below it and its transpose beside it, and the lam_P/lam_Q diagonal
        self.rows = np.concatenate([i, i, n + i, n + i])
        self.cols = np.concatenate([k, n + k, k, n + k])
        m = 4 * n + 1
        self.hess_pos = self.rows * m + self.cols
        self.jac_pos = (2 * n + self.rows) * m + self.cols
        self.jac_t_pos = self.cols * m + 2 * n + self.rows
        self.lam_diag_pos = np.arange(2 * n, 4 * n) * (m + 1)
        self.sum_cols = _RowSum(self.cols, 2 * n)
        self.sum_rows = _RowSum(i, n)
        # the row sums, then the column sums, of a form given at the entries
        # (its values twice over)
        self.sum_lines = _RowSum(np.concatenate([i, n + k]), 2 * n)

        # per-row arrays of the flow rows are laid out (..., 2, 2L) or
        # (..., 4, 2L): the local bus or variable, then the row
        f, t = adm.f[lim], adm.t[lim]
        self.ends = np.tile(np.stack([f, t]), 2)  # (2, 2L) buses
        self.side = np.concatenate([f, t])  # the end whose flow a row measures
        self.on_side = np.repeat(np.eye(2), len(lim), axis=1)
        self.m_side = np.conj([
            np.concatenate([adm.yff[lim], adm.ytf[lim]]),
            np.concatenate([adm.yft[lim], adm.ytt[lim]]),
        ])
        # the entries (side, end) of the coefficients, where a row's curvature folds in
        self.sum_flow = _RowSum(entry[self.side, self.ends], nnz)
        # the local variables as columns of x, and every entry of a local
        # 4x4 block as a position among the four Hessian blocks
        kind = np.array([0, 0, 1, 1])[:, None]  # angle, angle, magnitude, magnitude
        bus = np.concatenate([self.ends, self.ends])
        self.x_cols = bus + n * kind
        block = 2 * kind[:, None] + kind[None, :]
        self.sum_x_cols = _RowSum(self.x_cols, 2 * n)
        self.sum_blocks = _RowSum(block * nnz + entry[bus[:, None], bus[None, :]], 4 * nnz)


@dataclass(frozen=True)
class _BranchFlows:
    """Flow rows at B voltage states: complex flows ``s`` (B, 2L), their
    gradients ``ds`` (B, 4, 2L) over the local variables, and the gradients
    ``dh`` (B, 4, 2L) of the rows |S|^2 - smax^2."""

    s: np.ndarray
    ds: np.ndarray
    dh: np.ndarray

    def take(self, rows) -> "_BranchFlows":
        return _BranchFlows(self.s[rows], self.ds[rows], self.dh[rows])


def _branch_flows(st: _KktStructure, v: np.ndarray, vm: np.ndarray) -> _BranchFlows:
    # the form's terms V_side m_b conj(V_b) are its column sums; its one
    # nonzero row sum, at the side, is S
    cs = v[:, None, st.side] * st.m_side * np.conj(v[:, st.ends])
    s = cs[:, 0] + cs[:, 1]
    rs = s[:, None] * st.on_side
    ds = np.concatenate([1j * (rs - cs), (rs + cs) / vm[:, st.ends]], axis=1)
    return _BranchFlows(s, ds, 2 * (np.conj(s)[:, None] * ds).real)


def _objective_scale(case: NetworkCase) -> float:
    """The module docstring's f_scale; 1 where the cost has no gradient."""
    pg_mid = 0.5 * (case.p_min + case.p_max)
    grad = float(np.max(np.abs(2 * case.c2 * pg_mid + case.c1), initial=0.0))
    return min(1.0, OBJECTIVE_GRAD_MAX / grad) if grad > 0 else 1.0


class _OpfProblem:
    """Problem data and the structured derivative kernels.

    The constraint rows are the balance equations (P, Q, slack angle) and
    the inequalities (|V| box, P box, Q box, then the from-side and to-side
    branch flow rows).  Every kernel works on a (B, ...) stack of states.
    The solver uses the structured kernels (:meth:`voltage_jacobian`,
    :meth:`eq_t_dot`, :meth:`ineq_dot`, :meth:`ineq_t_dot`,
    :meth:`newton_step`); the balance Jacobian travels as its voltage
    entries ``jv`` and the flow rows as the :class:`_BranchFlows` of
    :meth:`inequalities`.  The one dense view is :meth:`eq_jacobian`, which
    the warm start's multiplier fit uses; it is built from the same entries.
    """

    def __init__(self, case: NetworkCase, adm: AdmittanceMatrix):
        self.case = case
        self.adm = adm
        self.n = n = case.n_bus
        self.ng = len(case.generators)
        self.slack = case.slack_index
        # the balance row of each dispatch variable, pg then qg
        self.gen_rows = np.concatenate([case.gen_bus, n + case.gen_bus])
        self.sum_gen = _RowSum(self.gen_rows, 2 * n)
        self.f_scale = _objective_scale(case)
        self.c2, self.c1 = self.f_scale * case.c2, self.f_scale * case.c1
        lim = np.flatnonzero(case.s_limited)
        self.smax2 = np.tile(case.s_max[lim] ** 2, 2)
        self.st = adm.derive(("opf", lim.tobytes()), lambda: _KktStructure(adm, lim))
        self.nx = 2 * n + 2 * self.ng
        self.neq = 2 * n + 1
        self.niq = 2 * n + 4 * self.ng + 2 * len(lim)
        # the stack of reduced KKT matrices in (va, vm, lam), grown on
        # demand: every step rewrites the same entries, the rest stays zero
        self.kkt = np.zeros((0, 4 * n + 1, 4 * n + 1))

    def split(self, x):
        n, ng = self.n, self.ng
        return x[..., :n], x[..., n : 2 * n], x[..., 2 * n : 2 * n + ng], x[..., 2 * n + ng :]

    def d_objective(self, x):
        pg = slice(2 * self.n, 2 * self.n + self.ng)
        df = np.zeros_like(x)
        df[:, pg] = 2 * self.c2 * x[:, pg] + self.c1
        return df

    def injections(self, v):
        """M = conj(Y_ik) V_i conj(V_k) at the admittance pattern's entries
        and its row sums, the bus injections S = V conj(Y V)."""
        mm = self.adm.y_conj * v[:, self.adm.i] * np.conj(v[:, self.adm.k])
        return mm, self.st.sum_rows(mm)

    def equalities(self, x, s, loads):
        """Balance equations at the injections ``s`` and ``loads`` (P then Q)."""
        n = self.n
        g = np.empty((len(x), self.neq))
        g[:, : 2 * n] = (
            np.concatenate([s.real, s.imag], axis=1)
            + loads
            - self.sum_gen(x[:, 2 * n :])
        )
        g[:, 2 * n] = x[:, self.slack]
        return g

    def voltage_jacobian(self, mm, vm, s):
        """The (va, vm) columns of the balance-equation Jacobian as their
        values at the structure's rows and columns, (B, 4 nnz):
        :func:`dsbus_dv` of the products and injections of
        :meth:`injections`.  The generator columns, a constant negative
        incidence, and the slack-angle row are never formed."""
        dsa, dsv = dsbus_dv(mm, self.adm.bus_entry, s)
        dsv /= vm[:, self.adm.k]
        return np.concatenate([dsa.real, dsv.real, dsa.imag, dsv.imag], axis=1)

    def eq_t_dot(self, jv, lam):
        """jg.T @ lam, jg given by its voltage entries ``jv``."""
        st = self.st
        volt = st.sum_cols(jv * lam[:, st.rows])
        volt[:, self.slack] += lam[:, 2 * self.n]
        return np.concatenate([volt, -lam[:, self.gen_rows]], axis=1)

    def eq_jacobian(self, jv):
        """Dense jg (B, neq, nx) from its voltage entries ``jv``."""
        n, st = self.n, self.st
        jg = np.zeros((len(jv), self.neq, self.nx))
        jg[:, st.rows, st.cols] = jv
        jg[:, 2 * n, self.slack] = 1.0
        jg[:, self.gen_rows, 2 * n + np.arange(2 * self.ng)] = -1.0
        return jg

    def inequalities(self, x, v):
        """Inequality values, and the branch flows at this state for the
        Jacobian and Hessian kernels."""
        _, vm, pg, qg = self.split(x)
        flows = _branch_flows(self.st, v, vm)
        h = np.concatenate(
            [
                vm - self.case.v_max,
                self.case.v_min - vm,
                pg - self.case.p_max,
                self.case.p_min - pg,
                qg - self.case.q_max,
                self.case.q_min - qg,
                np.abs(flows.s) ** 2 - self.smax2,
            ],
            axis=1,
        )
        return h, flows

    def ineq_dot(self, flows, dx):
        """jh @ dx: signed box rows, then the branch rows' local gradients."""
        _, dvm, dpg, dqg = self.split(dx)
        flow = np.sum(flows.dh * dx[:, self.st.x_cols], axis=1)
        return np.concatenate([dvm, -dvm, dpg, -dpg, dqg, -dqg, flow], axis=1)

    def ineq_t_dot(self, flows, w):
        """jh.T @ w from the same structure as :meth:`ineq_dot`."""
        n, ng = self.n, self.ng
        gen = w[:, 2 * n : 2 * n + 4 * ng].reshape(len(w), 4, ng)  # pg up/low, qg up/low
        wb = w[:, 2 * n + 4 * ng :]
        volt = self.st.sum_x_cols((flows.dh * wb[:, None]).reshape(len(w), -1))
        volt[:, n:] += w[:, :n] - w[:, n : 2 * n]
        return np.concatenate([volt, gen[:, 0] - gen[:, 1], gen[:, 2] - gen[:, 3]], axis=1)

    def _voltage_hessian(self, v, vm, lam, mu, flows, mdivz=None):
        """The (va, vm) block of the Lagrangian Hessian at the structure's
        entries, plus sum_e mdivz_e dh_e dh_e' over the flow rows if given:
        one bilinear form carries the balance rows and the flow rows'
        curvature (the module docstring's fold), and each flow row adds its
        rank-one terms as a 4x4 block."""
        n, st, adm = self.n, self.st, self.adm
        mu_b = mu[:, 2 * n + 4 * self.ng :]
        # balance rows c_i conj(Y_ik), then the flow rows' 2 mu conj(S) m
        coef = (lam[:, :n] - 1j * lam[:, n : 2 * n])[:, adm.i] * adm.y_conj
        fold = (2 * mu_b * np.conj(flows.s))[:, None] * st.m_side
        coef += st.sum_flow(fold.reshape(len(v), -1))
        b = v[:, adm.i] * coef * np.conj(v[:, adm.k])
        lines = st.sum_lines(np.concatenate([b, b], axis=1))
        vals = _bilinear_terms(adm, b, lines[:, :n], lines[:, n:], vm).reshape(len(v), -1)

        # the flow rows' first-order part 2 mu Re(conj(dS) dS'), as
        # 2 mu (Re dS Re dS' + Im dS Im dS')
        dr, di = flows.ds.real, flows.ds.imag
        w = 2 * mu_b[:, None]
        blocks = (w * dr)[:, :, None] * dr[:, None]
        blocks += (w * di)[:, :, None] * di[:, None]
        if mdivz is not None:
            dh = flows.dh
            blocks += (mdivz[:, None] * dh)[:, :, None] * dh[:, None]
        return vals + st.sum_blocks(blocks.reshape(len(v), -1))

    def newton_step(self, v, vm, lam, mu, mdivz, jv, flows, r_x, r_g):
        """Solve [[lxx + jh' diag(mdivz) jh, jg'], [jg, 0]] [dx; dlam] = [r_x; r_g]
        for every row of the stack.

        The (pg, qg) block is diagonal: 2 c2 plus mdivz of each unit's two
        P box rows, and mdivz of its two Q box rows.  It is eliminated, which
        puts -sum 1/d over each bus's units on the lam_P / lam_Q diagonal,
        and the dense (4N+1)-square systems in (va, vm, lam) are solved as
        one stack.  A row whose reduced system is singular gets a NaN step.
        """
        n, ng, st = self.n, self.ng, self.st
        rows = len(v)
        box = mdivz[:, : 2 * n + 4 * ng]
        gen = box[:, 2 * n :].reshape(rows, 4, ng)  # pg up/low, qg up/low
        d_gen = np.concatenate([2 * self.c2 + gen[:, 0] + gen[:, 1], gen[:, 2] + gen[:, 3]], axis=1)
        r_gen = r_x[:, 2 * n :]

        vals = self._voltage_hessian(v, vm, lam, mu, flows, mdivz[:, 2 * n + 4 * ng :])
        vals[:, st.vm_diag] += box[:, :n] + box[:, n : 2 * n]
        if len(self.kkt) < rows:
            self.kkt = np.zeros((rows, 4 * n + 1, 4 * n + 1))
            self.kkt[:, 4 * n, self.slack] = self.kkt[:, self.slack, 4 * n] = 1.0
        kkt = self.kkt[:rows]
        flat = kkt.reshape(rows, -1)
        flat[:, st.hess_pos] = vals
        flat[:, st.jac_pos] = jv
        flat[:, st.jac_t_pos] = jv
        flat[:, st.lam_diag_pos] = -self.sum_gen(1.0 / d_gen)
        rhs = np.concatenate([r_x[:, : 2 * n], r_g], axis=1)
        rhs[:, 2 * n : 4 * n] += self.sum_gen(r_gen / d_gen)
        step = _newton_steps(kkt, rhs)
        dlam = step[:, 2 * n :]
        dgen = (r_gen + dlam[:, self.gen_rows]) / d_gen
        return np.concatenate([step[:, : 2 * n], dgen], axis=1), dlam


def _cold_start(prob: _OpfProblem, rows: int) -> np.ndarray:
    n, ng, case = prob.n, prob.ng, prob.case
    x = np.zeros((rows, prob.nx))
    x[:, n : 2 * n] = np.clip(1.0, case.v_min, case.v_max)
    x[:, 2 * n : 2 * n + ng] = 0.5 * (case.p_min + case.p_max)
    x[:, 2 * n + ng :] = 0.5 * (case.q_min + case.q_max)
    return x


def _warm_x(prob: _OpfProblem, start: WarmStart, rows: int) -> np.ndarray:
    """Safeguarded warm start: magnitudes and dispatch clipped into bounds."""
    n, ng, case = prob.n, prob.ng, prob.case
    x = np.empty((rows, prob.nx))
    x[:, :n] = np.asarray(start.v_ang, dtype=float) - start.v_ang[prob.slack]
    x[:, n : 2 * n] = np.clip(start.v_mag, case.v_min, case.v_max)
    x[:, 2 * n : 2 * n + ng] = np.clip(start.p_gen, case.p_min, case.p_max)
    x[:, 2 * n + ng :] = np.clip(start.q_gen, case.q_min, case.q_max)
    return x


def _step_length(u, du):
    """Per row, the largest step up to 1 that keeps u + step du at least
    (1 - _XI) u for the positive ``u`` (fraction to the boundary): _XI over
    the largest -du/u, where that exceeds _XI."""
    shrink = (-du / u).max(axis=1)
    return _XI / np.maximum(shrink, _XI)


def solve_opf_batch(
    case: NetworkCase,
    loads: np.ndarray,
    adm: AdmittanceMatrix,
    start: WarmStart | None = None,
) -> OpfBatch:
    """Solve the AC-OPF for each row of ``loads`` (B, 2N), P then Q per unit,
    by the primal-dual interior point method, all rows in lockstep.

    ``start`` is one warm start shared by every row; None starts every row
    cold.  Convergence requires the balance equations to EQ_TOL,
    inequalities to INEQ_TOL, complementarity to COMP_TOL and scaled
    stationarity to GRAD_TOL, within DEFAULT_MAX_ITER iterations.  Returns
    one solution per row; its ``wall_time`` runs from the call to the row's
    last iteration.
    """
    t0 = time.perf_counter()
    n = case.n_bus
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != 2 * n:
        raise OpfError(f"loads must have shape (B, {2 * n}), got {loads.shape}")
    if not len(loads):
        return OpfBatch()
    prob = _OpfProblem(case, adm)
    fs, niq = prob.f_scale, prob.niq
    count = len(loads)
    x = _cold_start(prob, count) if start is None else _warm_x(prob, start, count)

    lam = np.zeros((count, prob.neq))
    va, vm, _, _ = prob.split(x)
    v = vm * np.exp(1j * va)
    h, flows = prob.inequalities(x, v)
    # cold barrier state; also used for badly infeasible warm points,
    # which still keep their primal head start
    z = np.maximum(1.0, -h)
    gamma = np.ones(count)
    mu = np.maximum(1.0, 1.0 / z)
    warm = np.zeros(count, dtype=bool) if start is None else ~(h.max(axis=1) > 0.1)
    if warm.any():
        # near-feasible warm start: seed slacks from the point's own
        # constraint margins, open with a small barrier parameter and fit
        # the equality multipliers by least squares for stationarity
        z[warm] = np.maximum(5e-3, -h[warm])
        gamma[warm] = 1e-3
        mu[warm] = 1e-3 / z[warm]
        mm, s = prob.injections(v[warm])
        jg0 = prob.eq_jacobian(prob.voltage_jacobian(mm, vm[warm], s))
        rhs0 = -(prob.d_objective(x[warm]) + prob.ineq_t_dot(flows.take(warm), mu[warm]))
        lam[warm] = [np.linalg.lstsq(a.T, r, rcond=None)[0] for a, r in zip(jg0, rhs0)]

    final_x = x.copy()
    histories: list[list[tuple]] = [[] for _ in range(count)]
    iterations = np.zeros(count, dtype=int)
    kkt_res = np.full(count, np.inf)
    converged = np.zeros(count, dtype=bool)
    wall = np.zeros(count)
    live = np.arange(count)  # the rows still iterating
    for it in range(1, DEFAULT_MAX_ITER + 1):
        va, vm, pg, _ = prob.split(x)
        v = vm * np.exp(1j * va)
        mm, s = prob.injections(v)
        g = prob.equalities(x, s, loads)
        h, flows = prob.inequalities(x, v)
        jv = prob.voltage_jacobian(mm, vm, s)
        lx = prob.d_objective(x) + prob.eq_t_dot(jv, lam) + prob.ineq_t_dot(flows, mu)

        # history: the objective, then the residuals the stopping rule tests,
        # in the cost's own units: lam, mu, lx and z mu carry f_scale
        stats = np.empty((len(x), 5))
        stats[:, 0] = generation_cost(case, pg)
        stats[:, 1] = np.abs(g).max(axis=1)
        stats[:, 2] = h.max(axis=1)
        stats[:, 3] = (z * mu).sum(axis=1) / niq / fs
        dual = np.maximum(np.abs(lam).max(axis=1), np.abs(mu).max(axis=1))
        stats[:, 4] = np.abs(lx).max(axis=1) / fs / (1.0 + dual / fs)
        for row, stat in zip(live, stats.tolist()):
            histories[row].append(tuple(stat))
        final_x[live] = x
        iterations[live] = it
        kkt_res[live] = stats[:, 1:].max(axis=1)
        wall[live] = time.perf_counter() - t0
        done = (stats[:, 1:] < _TOLS).all(axis=1)
        converged[live] = done
        go = ~done & np.isfinite(stats[:, 0]) & np.isfinite(x).all(axis=1)
        if not go.all():
            live, x, z, mu, lam, gamma, loads, v, vm, g, h, jv, lx = (
                a[go] for a in (live, x, z, mu, lam, gamma, loads, v, vm, g, h, jv, lx)
            )
            flows = flows.take(go)
            if not live.size:
                break

        zinv = 1.0 / z
        mdivz = mu * zinv
        n_vec = lx + prob.ineq_t_dot(flows, zinv * (gamma[:, None] + mu * h))
        dx, dlam = prob.newton_step(v, vm, lam, mu, mdivz, jv, flows, -n_vec, -g)
        ok = np.isfinite(dx).all(axis=1) & np.isfinite(dlam).all(axis=1)
        if not ok.all():  # singular or non-finite step: the row stops here
            live, x, z, mu, lam, loads, h, zinv, dx, dlam = (
                a[ok] for a in (live, x, z, mu, lam, loads, h, zinv, dx, dlam)
            )
            gamma, flows = gamma[ok], flows.take(ok)
            if not live.size:
                break
        dz = -h - z - prob.ineq_dot(flows, dx)
        dmu = -mu + zinv * (gamma[:, None] - mu * dz)
        alpha_p = _step_length(z, dz)[:, None]
        alpha_d = _step_length(mu, dmu)[:, None]

        x = x + alpha_p * dx
        z = z + alpha_p * dz
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu
        gamma = _SIGMA * (z * mu).sum(axis=1) / niq
    else:  # rows that ran out of iterations keep their last update
        final_x[live] = x
        wall[live] = time.perf_counter() - t0

    solutions = OpfBatch()
    for row in range(count):
        va, vm, pg, qg = prob.split(final_x[row])
        solutions.append(
            OpfSolution(
                p_gen=pg.copy(),
                q_gen=qg.copy(),
                v_mag=vm.copy(),
                v_ang=va.copy(),
                objective=generation_cost(case, pg),
                kkt_residual=float(kkt_res[row]),
                converged=bool(converged[row]),
                iterations=int(iterations[row]),
                wall_time=float(wall[row]),
                history=histories[row],
            )
        )
    return solutions


def solve_opf(
    case: NetworkCase,
    loads: np.ndarray | None = None,
    start: WarmStart | None = None,
    adm: AdmittanceMatrix | None = None,
) -> OpfSolution | OpfBatch:
    """Solve the AC-OPF for one load vector: the one-row view of
    :func:`solve_opf_batch`.

    ``loads`` is the concatenated (P then Q) per-unit load vector of length
    2N; None uses the case defaults.  A (B, 2N) stack of them is passed to
    :func:`solve_opf_batch` whole and its :class:`OpfBatch` returned, so
    labelling runs through this entry point too and a profile or trace of
    ``solve_opf`` sees every reference solve.
    """
    if adm is None:
        adm = build_admittance(case)
    loads = case.default_loads if loads is None else np.asarray(loads, dtype=float)
    if loads.ndim == 2:
        return solve_opf_batch(case, loads, adm, start)
    if loads.shape != (2 * case.n_bus,):
        raise OpfError(f"loads must have shape ({2 * case.n_bus},), got {loads.shape}")
    return solve_opf_batch(case, loads[None], adm, start)[0]


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
