"""Newton-Raphson AC power flow, branch flows and operating limits.

The solver takes the independent operating variables (slack voltage
magnitude, PV-bus active injections and voltage magnitudes) plus the bus
loads, and solves the nonlinear balance equations for the remaining
voltage angles and PQ-bus magnitudes.  Everything is dense: the shipped
networks top out at a few hundred buses, where a dense factorization beats
sparse bookkeeping.

:func:`limit_excess` is the single operating-limit test: feasibility
checking reports its entries above a tolerance, and the training penalty
(``trainer.penalty_terms``) averages them per family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import AdmittanceMatrix, NetworkCase

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 30


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
    theta_slack: float = 0.0

    @classmethod
    def from_vector(cls, x) -> "IndependentVars":
        """Split a flat vector in ScalingSpec order: slack |V|, then
        (P, |V|) per PV bus."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2 != 1:
            raise PowerFlowError(f"independent vector of shape {x.shape}; need odd length")
        return cls(v_slack=x[0], pv_p_gen=x[1::2], pv_v_mag=x[2::2])

    def to_vector(self) -> np.ndarray:
        """Inverse of :meth:`from_vector`."""
        x = np.empty(1 + 2 * len(self.pv_p_gen))
        x[0] = self.v_slack
        x[1::2] = self.pv_p_gen
        x[2::2] = self.pv_v_mag
        return x

    def validate(self, case: NetworkCase):
        n_pv = len(case.pv_indices)
        if len(self.pv_p_gen) != n_pv or len(self.pv_v_mag) != n_pv:
            raise PowerFlowError(
                f"independent variables sized for {len(self.pv_p_gen)} PV buses, "
                f"case has {n_pv}"
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


@dataclass(frozen=True)
class Violation:
    kind: str  # SlackP | SlackQ | PvQ | PqVmag | BranchFlow
    element: int  # bus id, generator bus id or branch position
    magnitude: float  # p.u. amount outside the limit


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]


def dsbus_dv(y: np.ndarray, v: np.ndarray):
    """Partial derivatives of the complex bus injections S = V (Y V)*.

    Returns (dS/dVa, dS/dVm) as dense complex matrices.
    """
    i_bus = y @ v
    v_norm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(i_bus) - y * v[None, :])
    ds_dvm = v[:, None] * np.conj(y * v_norm[None, :]) + np.diag(
        np.conj(i_bus) * v_norm
    )
    return ds_dva, ds_dvm


def solve_pf(
    case: NetworkCase,
    adm: AdmittanceMatrix,
    indep: IndependentVars,
    p_load: np.ndarray,
    q_load: np.ndarray,
    init: PfInit | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PowerFlowSolution:
    """Newton-Raphson solve of the balance equations in polar coordinates.

    Mismatch ordering is P at PV+PQ buses then Q at PQ buses.  On
    non-convergence the last iterate is returned with ``converged=False``;
    a singular Jacobian raises :class:`SingularJacobianError` instead.
    """
    indep.validate(case)
    n = case.n_bus
    slack = case.slack_index
    pv = case.pv_indices
    pq = case.pq_indices
    pvpq = np.concatenate([pv, pq])
    npv, npq = len(pv), len(pq)

    vm = np.ones(n)
    va = np.zeros(n)
    if init is not None:
        va = np.asarray(init.v_ang, dtype=float).copy()
        vm = np.asarray(init.v_mag, dtype=float).copy()
    vm[slack] = indep.v_slack
    vm[pv] = indep.pv_v_mag
    va[slack] = indep.theta_slack

    # net scheduled complex injection at non-slack buses
    p_spec = -np.asarray(p_load, dtype=float).copy()
    q_spec = -np.asarray(q_load, dtype=float).copy()
    p_spec[pv] += indep.pv_p_gen

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        s = v * np.conj(adm.y @ v)
        mis_p = s.real - p_spec
        mis_q = s.imag - q_spec
        f = np.concatenate([mis_p[pvpq], mis_q[pq]])
        norm_f = float(np.max(np.abs(f))) if f.size else 0.0
        history.append(norm_f)
        if norm_f < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        ds_dva, ds_dvm = dsbus_dv(adm.y, v)
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations}"
            ) from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError(
                f"non-finite Newton step at iteration {iterations}"
            )
        va[pvpq] += dx[: npv + npq]
        vm[pq] += dx[npv + npq :]

    v = vm * np.exp(1j * va)
    s = v * np.conj(adm.y @ v)
    return PowerFlowSolution(
        v_mag=vm,
        v_ang=va,
        p_inj=s.real,
        q_inj=s.imag,
        slack_p_gen=float(s.real[slack] + p_load[slack]),
        slack_q_gen=float(s.imag[slack] + q_load[slack]),
        pv_q_gen=s.imag[pv] + np.asarray(q_load)[pv],
        branch_s=branch_flows(case, adm, v),
        iterations=iterations,
        converged=converged,
        max_residual=history[-1],
        residual_history=history,
    )


def branch_flows(case: NetworkCase, adm: AdmittanceMatrix, v: np.ndarray) -> np.ndarray:
    """Apparent power per branch, the larger of the two ends (p.u.)."""
    s_from = v[adm.f] * np.conj(adm.yf @ v)
    s_to = v[adm.t] * np.conj(adm.yt @ v)
    return np.maximum(np.abs(s_from), np.abs(s_to))


def box_penalty(x, x_min, x_max):
    """max(x - x_max, 0) + max(x_min - x, 0); zero inside the box."""
    return np.maximum(x - x_max, 0.0) + np.maximum(x_min - x, 0.0)


def limit_excess(case: NetworkCase, solution: PowerFlowSolution) -> dict[str, np.ndarray]:
    """Amount by which each reconstructed quantity leaves its operating limit.

    Returns one :func:`box_penalty` vector per violation family, keyed
    SlackP, SlackQ (length 1), PvQ (PV buses), PqVmag (PQ buses) and
    BranchFlow (all branches, zero where unlimited).  For nonempty boxes
    an entry is positive exactly when the quantity is outside its box, and
    then equals its distance to the nearer bound.  A diverged
    reconstruction has no limits to test and raises.
    """
    if not solution.converged:
        raise PowerFlowError("operating limits need a converged power flow")
    g = case.slack_gen
    pv_gen = case.pv_gen
    pq = case.pq_indices
    over = np.maximum(solution.branch_s - case.s_max, 0.0)
    return {
        "SlackP": box_penalty(np.array([solution.slack_p_gen]), case.p_min[g], case.p_max[g]),
        "SlackQ": box_penalty(np.array([solution.slack_q_gen]), case.q_min[g], case.q_max[g]),
        "PvQ": box_penalty(solution.pv_q_gen, case.q_min[pv_gen], case.q_max[pv_gen]),
        "PqVmag": box_penalty(solution.v_mag[pq], case.v_min[pq], case.v_max[pq]),
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
