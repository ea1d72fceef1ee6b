"""Reference AC optimal power flow solver.

Primal-dual interior point method: slacks on every inequality, logarithmic
barrier, Newton steps on the perturbed KKT system, fraction-to-the-boundary
step control (0.99995) and adaptive barrier reduction (sigma = 0.1).  The
variable vector is x = [va, vm, pg, qg] in polar per-unit coordinates; all
linear algebra is dense, sized for networks of a few hundred buses.

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
    eq_residual: float = np.inf
    history: list[tuple] = field(default_factory=list, repr=False)


def generation_cost(case: NetworkCase, p_gen: np.ndarray) -> float:
    """Total quadratic generation cost in $/hr for per-unit dispatch."""
    return float(np.sum(case.c2 * p_gen**2 + case.c1 * p_gen + case.c0))


def _bilinear_hessian(m: np.ndarray, v: np.ndarray, vm: np.ndarray):
    """Hessian blocks of sum_ik m[i,k] V_i conj(V_k) wrt (angles, magnitudes).

    Returns complex (haa, hav, hvv); the real part is the Hessian of the
    real part of the form, the imaginary part that of the imaginary part.
    """
    b = v[:, None] * m * np.conj(v)[None, :]
    rs = b.sum(axis=1)
    cs = b.sum(axis=0)
    btb = b + b.T
    haa = btb - np.diag(rs + cs)
    hav = (1j * (b - b.T + np.diag(rs - cs))) / vm[None, :]
    hvv = btb / np.outer(vm, vm)
    return haa, hav, hvv


def _dsbr_dv(yb: np.ndarray, v: np.ndarray, side: np.ndarray):
    """Derivatives of branch complex flows S_e = V_side(e) * conj(yb[e] @ V)."""
    e = yb.shape[0]
    ib = yb @ v
    vnorm = v / np.abs(v)
    vs = v[side]
    dva = -1j * vs[:, None] * np.conj(yb * v[None, :])
    dva[np.arange(e), side] += 1j * np.conj(ib) * vs
    dvm = vs[:, None] * np.conj(yb * vnorm[None, :])
    dvm[np.arange(e), side] += np.conj(ib) * vnorm[side]
    return dva, dvm


class _OpfProblem:
    """Precomputed structure: indexing, bounds, admittances, constraint rows."""

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
        self.c2, self.c1, self.c0 = case.c2, case.c1, case.c0
        self.lim = np.flatnonzero(case.s_limited)
        self.smax2 = case.s_max[self.lim] ** 2
        self.yf = adm.yf[self.lim] if len(self.lim) else np.zeros((0, self.n), complex)
        self.yt = adm.yt[self.lim] if len(self.lim) else np.zeros((0, self.n), complex)
        self.fside = adm.f[self.lim] if len(self.lim) else np.zeros(0, int)
        self.tside = adm.t[self.lim] if len(self.lim) else np.zeros(0, int)
        self.nx = 2 * self.n + 2 * self.ng
        self.neq = 2 * self.n + 1
        self.nlim = len(self.lim)
        self.niq = 2 * self.n + 4 * self.ng + 2 * self.nlim
        # gen incidence (n x ng)
        self.cg = np.zeros((self.n, self.ng))
        self.cg[self.gen_bus, np.arange(self.ng)] = 1.0

    def split(self, x):
        n, ng = self.n, self.ng
        return x[:n], x[n : 2 * n], x[2 * n : 2 * n + ng], x[2 * n + ng :]

    def objective(self, x):
        _, _, pg, _ = self.split(x)
        return float(np.sum(self.c2 * pg**2 + self.c1 * pg + self.c0))

    def d_objective(self, x):
        _, _, pg, _ = self.split(x)
        df = np.zeros(self.nx)
        df[2 * self.n : 2 * self.n + self.ng] = 2 * self.c2 * pg + self.c1
        return df

    def equalities(self, x, v):
        _, _, pg, qg = self.split(x)
        s = v * np.conj(self.adm.y @ v)
        g = np.empty(self.neq)
        g[: self.n] = s.real + self.p_load - self.cg @ pg
        g[self.n : 2 * self.n] = s.imag + self.q_load - self.cg @ qg
        g[2 * self.n] = x[self.slack]
        return g

    def eq_jacobian(self, v):
        n, ng = self.n, self.ng
        dsa, dsv = dsbus_dv(self.adm.y, v)
        jg = np.zeros((self.neq, self.nx))
        jg[:n, :n] = dsa.real
        jg[:n, n : 2 * n] = dsv.real
        jg[:n, 2 * n : 2 * n + ng] = -self.cg
        jg[n : 2 * n, :n] = dsa.imag
        jg[n : 2 * n, n : 2 * n] = dsv.imag
        jg[n : 2 * n, 2 * n + ng :] = -self.cg
        jg[2 * n, self.slack] = 1.0
        return jg

    def inequalities(self, x, v):
        va, vm, pg, qg = self.split(x)
        parts = [
            vm - self.vmax,
            self.vmin - vm,
            pg - self.pmax,
            self.pmin - pg,
            qg - self.qmax,
            self.qmin - qg,
        ]
        if self.nlim:
            sf = v[self.fside] * np.conj(self.yf @ v)
            st = v[self.tside] * np.conj(self.yt @ v)
            parts.append(np.abs(sf) ** 2 - self.smax2)
            parts.append(np.abs(st) ** 2 - self.smax2)
            self._sf, self._st = sf, st  # reused by jacobian/hessian
        return np.concatenate(parts)

    def ineq_jacobian(self, v):
        n, ng = self.n, self.ng
        jh = np.zeros((self.niq, self.nx))
        rows = np.arange(n)
        jh[rows, n + rows] = 1.0  # vm upper
        jh[n + rows, n + rows] = -1.0  # vm lower
        gr = np.arange(ng)
        jh[2 * n + gr, 2 * n + gr] = 1.0
        jh[2 * n + ng + gr, 2 * n + gr] = -1.0
        jh[2 * n + 2 * ng + gr, 2 * n + ng + gr] = 1.0
        jh[2 * n + 3 * ng + gr, 2 * n + ng + gr] = -1.0
        if self.nlim:
            base = 2 * n + 4 * ng
            for sf, yb, side, off in (
                (self._sf, self.yf, self.fside, base),
                (self._st, self.yt, self.tside, base + self.nlim),
            ):
                dva, dvm = _dsbr_dv(yb, v, side)
                w = np.conj(sf)[:, None]
                jh[off : off + self.nlim, :n] = 2 * (w * dva).real
                jh[off : off + self.nlim, n : 2 * n] = 2 * (w * dvm).real
        return jh

    def lagrangian_hessian(self, x, v, vm, lam, mu):
        """Hessian of f + lam' g + mu' h with respect to x."""
        n, ng = self.n, self.ng
        lam_p = lam[:n]
        lam_q = lam[n : 2 * n]
        m_p = lam_p[:, None] * np.conj(self.adm.y)
        m_q = lam_q[:, None] * np.conj(self.adm.y)
        haa_p, hav_p, hvv_p = _bilinear_hessian(m_p, v, vm)
        haa_q, hav_q, hvv_q = _bilinear_hessian(m_q, v, vm)
        haa = haa_p.real + haa_q.imag
        hav = hav_p.real + hav_q.imag
        hvv = hvv_p.real + hvv_q.imag

        if self.nlim:
            base = 2 * n + 4 * ng
            for sf, yb, side, off in (
                (self._sf, self.yf, self.fside, base),
                (self._st, self.yt, self.tside, base + self.nlim),
            ):
                mu_s = mu[off : off + self.nlim]
                w = mu_s * np.conj(sf)
                m_br = np.zeros((n, n), dtype=complex)
                np.add.at(m_br, side, w[:, None] * np.conj(yb))
                haa_b, hav_b, hvv_b = _bilinear_hessian(m_br, v, vm)
                dva, dvm = _dsbr_dv(yb, v, side)
                j = np.hstack([dva, dvm])
                outer = (np.conj(j).T @ (mu_s[:, None] * j)).real
                haa += 2 * (haa_b.real + outer[:n, :n])
                hav += 2 * (hav_b.real + outer[:n, n:])
                hvv += 2 * (hvv_b.real + outer[n:, n:])

        lxx = np.zeros((self.nx, self.nx))
        lxx[:n, :n] = haa
        lxx[:n, n : 2 * n] = hav
        lxx[n : 2 * n, :n] = hav.T
        lxx[n : 2 * n, n : 2 * n] = hvv
        pg_idx = np.arange(2 * n, 2 * n + ng)
        lxx[pg_idx, pg_idx] = 2 * self.c2
        return lxx


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
    max_iter: int = DEFAULT_MAX_ITER,
) -> OpfSolution:
    """Solve the AC-OPF by the primal-dual interior point method.

    ``loads`` is the concatenated (P then Q) per-unit load vector of length
    2N; None uses the case defaults.  Convergence requires the balance
    equations to EQ_TOL, inequalities to INEQ_TOL, complementarity to
    COMP_TOL and scaled stationarity to GRAD_TOL.
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
        jg0 = prob.eq_jacobian(v)
        jh0 = prob.ineq_jacobian(v)
        rhs0 = -(prob.d_objective(x) + jh0.T @ mu)
        lam = np.linalg.lstsq(jg0.T, rhs0, rcond=None)[0]

    f_old = prob.objective(x)
    history: list[tuple] = []
    converged = False
    kkt = np.inf
    eq_res = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        va, vm, _, _ = prob.split(x)
        v = vm * np.exp(1j * va)
        g = prob.equalities(x, v)
        h = prob.inequalities(x, v)
        jg = prob.eq_jacobian(v)
        jh = prob.ineq_jacobian(v)
        df = prob.d_objective(x)
        lx = df + jg.T @ lam + jh.T @ mu

        f_val = prob.objective(x)
        eq_res = float(np.max(np.abs(g)))
        ineq_res = float(np.max(h)) if h.size else 0.0
        comp = float(z @ mu / max(len(z), 1))
        grad = float(
            np.max(np.abs(lx))
            / (1.0 + max(np.max(np.abs(lam)), np.max(np.abs(mu)) if mu.size else 0.0))
        )
        cost_change = abs(f_val - f_old) / (1.0 + abs(f_old))
        history.append((f_val, eq_res, ineq_res, comp, grad))
        kkt = max(eq_res, ineq_res, comp, grad)
        if eq_res < EQ_TOL and ineq_res < INEQ_TOL and comp < COMP_TOL and grad < GRAD_TOL:
            converged = True
            break
        if not np.isfinite(f_val) or not np.all(np.isfinite(x)):
            break
        f_old = f_val

        lxx = prob.lagrangian_hessian(x, v, vm, lam, mu)
        zinv = 1.0 / z
        mdivz = mu * zinv
        m_mat = lxx + jh.T @ (mdivz[:, None] * jh)
        n_vec = lx + jh.T @ (zinv * (gamma + mu * h))
        kkt_mat = np.zeros((prob.nx + prob.neq, prob.nx + prob.neq))
        kkt_mat[: prob.nx, : prob.nx] = m_mat
        kkt_mat[: prob.nx, prob.nx :] = jg.T
        kkt_mat[prob.nx :, : prob.nx] = jg
        rhs = np.concatenate([-n_vec, -g])
        try:
            step = np.linalg.solve(kkt_mat, rhs)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        dx = step[: prob.nx]
        dlam = step[prob.nx :]
        dz = -h - z - jh @ dx
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
        eq_residual=eq_res,
        history=history,
    )


def recover(
    case: NetworkCase,
    loads: np.ndarray | None,
    predicted: WarmStart,
    adm: AdmittanceMatrix | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OpfSolution:
    """Re-solve from a (possibly infeasible) predicted operating point.

    The predicted primal point is safeguarded (voltages and dispatch clipped
    into their boxes) and used as the interior-point start. Identical
    contract to :func:`solve_opf`; the iteration count lets callers compare
    warm against cold starts.
    """
    return solve_opf(case, loads=loads, start=predicted, adm=adm, max_iter=max_iter)


def solution_equalities_residual(
    case: NetworkCase, adm: AdmittanceMatrix, sol: OpfSolution, loads=None
) -> float:
    """Infinity norm of the balance equations at an OPF solution."""
    n = case.n_bus
    if loads is None:
        loads = case.default_loads
    prob = _OpfProblem(case, adm, loads[:n], loads[n:])
    x = np.concatenate([sol.v_ang, sol.v_mag, sol.p_gen, sol.q_gen])
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    return float(np.max(np.abs(prob.equalities(x, v))))
