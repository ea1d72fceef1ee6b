import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import deepsolve
from deepsolve import WarmStart, check_feasibility, opfref, solve_opf, solve_pf
from deepsolve.dataio import sample_loads
from deepsolve.netmodel import CostCurve
from deepsolve.opfref import _OpfProblem, recover

from conftest import reference_indep, solution_equalities_residual


def test_case30_objective_near_published_mean(opf30):
    assert opf30.objective == pytest.approx(789.8, rel=0.05)


def test_case118_objective_near_published_mean(opf118):
    assert opf118.objective == pytest.approx(81382.9, rel=0.05)


@pytest.mark.parametrize("which", ["case30", "case118"])
def test_converged_solution_is_feasible_and_balanced(which, request):
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    sol = request.getfixturevalue("opf" + which.removeprefix("case"))
    assert solution_equalities_residual(case, adm, sol) < 1e-6
    indep = reference_indep(case, sol)
    pf = solve_pf(case, adm, indep, case.default_p_load, case.default_q_load, tol=1e-10)
    assert pf.converged
    assert check_feasibility(case, pf, 1e-6).feasible


@pytest.mark.parametrize("which", ["case30", "case118"])
def test_warm_start_at_optimum_beats_cold(which, request):
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    cold = request.getfixturevalue("opf" + which.removeprefix("case"))
    ws = WarmStart(v_mag=cold.v_mag, v_ang=cold.v_ang, p_gen=cold.p_gen, q_gen=cold.q_gen)
    warm = recover(case, None, ws, adm=adm)
    assert warm.converged
    assert warm.iterations < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-5)


def test_degenerate_warm_start_is_safeguarded(case30, adm30):
    ng = len(case30.generators)
    n = case30.n_bus
    ws = WarmStart(
        v_mag=np.zeros(n), v_ang=np.zeros(n), p_gen=np.zeros(ng), q_gen=np.zeros(ng)
    )
    sol = recover(case30, None, ws, adm=adm30)
    assert sol.converged  # voltages clipped into [v_min, v_max] before use


def test_deterministic_iterate_sequence(case30, adm30):
    a = solve_opf(case30, adm=adm30)
    b = solve_opf(case30, adm=adm30)
    assert a.history == b.history
    assert np.array_equal(a.p_gen, b.p_gen)


def test_bad_loads_shape_rejected(case30):
    from deepsolve import OpfError

    with pytest.raises(OpfError, match="shape"):
        solve_opf(case30, loads=np.ones(7))


def test_load_scaling_monotonicity_logged(case30, adm30, opf30):
    """Scaling all loads down by 5% should not increase the objective.

    Local-solver caveat: violations indicate convergence to a worse local
    point and are reported as warnings, not failures.
    """
    rng = np.random.default_rng(7)
    base = np.concatenate([case30.default_p_load, case30.default_q_load])
    bumps = 0
    for _ in range(20):
        f = rng.uniform(0.95, 1.05, size=base.size)
        hi = solve_opf(case30, loads=base * f, adm=adm30)
        lo = solve_opf(case30, loads=base * f * 0.95, adm=adm30)
        if not (hi.converged and lo.converged):
            bumps += 1
            continue
        if lo.objective > hi.objective + 1e-6:
            warnings.warn(
                f"objective rose when shedding load: {hi.objective:.2f} -> {lo.objective:.2f}"
            )
            bumps += 1
    assert bumps <= 20  # never fatal


# -- derivative oracles ------------------------------------------------------

CASES = ["case30", "case118"]


@pytest.fixture(params=CASES)
def case_and_adm(request):
    which = request.param
    case = request.getfixturevalue(which)
    return case, request.getfixturevalue("adm" + which.removeprefix("case"))


def _problem_point(case, adm, seed=3):
    prob = _OpfProblem(case, adm, case.default_p_load, case.default_q_load)
    rng = np.random.default_rng(seed)
    n, ng = prob.n, prob.ng
    x = np.concatenate(
        [
            rng.uniform(-0.2, 0.2, n),
            rng.uniform(0.96, 1.05, n),
            prob.pmin + rng.uniform(0.2, 0.8, ng) * (prob.pmax - prob.pmin),
            prob.qmin + rng.uniform(0.2, 0.8, ng) * (prob.qmax - prob.qmin),
        ]
    )
    x[prob.slack] = 0.0
    return prob, x


def _state(prob, xv):
    """Voltages, their magnitudes and the bus injections at the point ``xv``."""
    va, vm = xv[: prob.n], xv[prob.n : 2 * prob.n]
    v = vm * np.exp(1j * va)
    return v, vm, v * np.conj(prob.adm.y @ v)


def _lagrangian_hessian(prob, v, vm, lam, mu):
    """Dense Hessian of f + lam' g + mu' h with respect to x, from the
    kernel the Newton step runs, at the state of the last ``inequalities``
    call."""
    lxx = np.zeros((prob.nx, prob.nx))
    lxx[prob.st.rows, prob.st.cols] = prob._voltage_hessian(v, vm, lam, mu)
    pg = np.arange(2 * prob.n, 2 * prob.n + prob.ng)
    lxx[pg, pg] = 2 * prob.c2
    return lxx


def _fd_jacobian(fun, x, h=1e-4):
    """Fourth-order central differences: truncation O(h^4) and rounding
    O(eps |f| / h) both stay far below the tolerances, also on case118,
    whose flow rows reach |dh/dx| ~ 7e3 at these test points."""
    def at(j, k):
        xs = x.copy()
        xs[j] += k * h
        return fun(xs)

    jac = np.zeros((fun(x).size, x.size))
    for j in range(x.size):
        jac[:, j] = (at(j, -2) - 8 * at(j, -1) + 8 * at(j, 1) - at(j, 2)) / (12 * h)
    return jac


def test_equality_jacobian_matches_finite_differences(case_and_adm):
    prob, x = _problem_point(*case_and_adm)

    def g_of(xv):
        return prob.equalities(xv, _state(prob, xv)[2])

    jg = prob.eq_jacobian(*_state(prob, x))
    fd = _fd_jacobian(g_of, x)
    assert np.max(np.abs(jg - fd)) < 1e-6


def _ineq_jacobian(prob):
    """Dense jh at the state of the last ``inequalities`` call, one
    ``ineq_dot`` column per unit vector: the kernel the iteration runs."""
    return np.column_stack([prob.ineq_dot(e) for e in np.eye(prob.nx)])


def test_inequality_jacobian_matches_finite_differences(case_and_adm):
    prob, x = _problem_point(*case_and_adm)

    def h_of(xv):
        va, vm = xv[: prob.n], xv[prob.n : 2 * prob.n]
        return prob.inequalities(xv, vm * np.exp(1j * va))

    h_of(x)  # populate cached branch flows
    jh = _ineq_jacobian(prob)
    fd = _fd_jacobian(h_of, x)
    assert np.max(np.abs(jh - fd)) < 1e-6


def test_lagrangian_hessian_matches_finite_differences(case_and_adm):
    prob, x = _problem_point(*case_and_adm)
    rng = np.random.default_rng(5)
    lam = rng.normal(size=prob.neq)
    mu = rng.uniform(0.1, 1.0, size=prob.niq)

    def lagrangian_grad(xv):
        v, vm, s = _state(prob, xv)
        prob.inequalities(xv, v)
        return (
            prob.d_objective(xv)
            + prob.eq_jacobian(v, vm, s).T @ lam
            + prob.ineq_t_dot(mu)
        )

    v, vm, _ = _state(prob, x)
    prob.inequalities(x, v)
    lxx = _lagrangian_hessian(prob, v, vm, lam, mu)
    fd = _fd_jacobian(lagrangian_grad, x)
    scale = 1.0 + np.max(np.abs(fd))
    assert np.max(np.abs(lxx - fd)) / scale < 1e-5


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_reduced_newton_step_matches_full_kkt_solve(case_and_adm, seed):
    """The structured step (generator block eliminated, (4N+1)-square solve)
    solves the full KKT system built from the dense views, and the structured
    jg.T and jh.T products equal the dense ones.

    The random duals make the KKT matrix ill-conditioned (up to 1e13 on
    case118), so two float64 solves need not agree to 1e-9 in the forward
    sense.  The check is Oettli-Prager's componentwise backward error: each
    row's residual against the magnitude of that row's terms, which a wrong
    entry anywhere in the structured assembly drives to O(1).
    """
    prob, x = _problem_point(*case_and_adm, seed=seed)
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=prob.neq)
    mu = rng.uniform(0.01, 10.0, size=prob.niq)
    z = rng.uniform(0.01, 10.0, size=prob.niq)
    r_x = rng.normal(size=prob.nx)
    r_g = rng.normal(size=prob.neq)
    w = rng.normal(size=prob.niq)
    v, vm, s = _state(prob, x)
    prob.inequalities(x, v)
    jg = prob.eq_jacobian(v, vm, s)
    jh = _ineq_jacobian(prob)
    lxx = _lagrangian_hessian(prob, v, vm, lam, mu)
    full = np.block(
        [[lxx + jh.T @ ((mu / z)[:, None] * jh), jg.T],
         [jg, np.zeros((prob.neq, prob.neq))]]
    )
    rhs = np.concatenate([r_x, r_g])

    prob.voltage_jacobian(v, vm, s)
    dx, dlam = prob.newton_step(v, vm, lam, mu, mu / z, r_x, r_g)
    got = np.concatenate([dx, dlam])
    scale = np.abs(full) @ np.abs(got) + np.abs(rhs)
    assert np.max(np.abs(full @ got - rhs) / scale) <= 1e-12
    for fast, dense in (
        (prob.eq_t_dot(lam), jg.T @ lam),
        (prob.ineq_t_dot(w), jh.T @ w),
    ):
        assert np.max(np.abs(fast - dense)) <= 1e-12 * (1 + np.max(np.abs(dense)))


# Cold solves at the default loads and at sample_loads(case, (0.9, 1.1), 5,
# seed=2024): the objective of the dense-KKT solver the structured step
# replaced, and the iteration count with the cost scaled by its start
# gradient (case30's scale is 1, so its counts are that solver's too).
PINNED = {
    "case30": [
        (802.1234350372912, 9),
        (814.3751967656183, 10),
        (772.6997799417024, 9),
        (767.4884931585149, 9),
        (765.4658392320563, 9),
        (782.9456000524688, 9),
    ],
    "case118": [
        (81367.96447173126, 17),
        (79272.00557478411, 17),
        (82174.82182936414, 18),
        (83050.82211486498, 17),
        (81413.14992634719, 17),
        (82075.76084789363, 17),
    ],
}


def test_cold_solves_match_pinned_objectives_and_iterations(case_and_adm):
    case, adm = case_and_adm
    rows = [None, *sample_loads(case, (0.9, 1.1), 5, seed=2024)]
    for loads, (objective, iterations) in zip(rows, PINNED[case.name], strict=True):
        sol = solve_opf(case, loads=loads, adm=adm)
        assert sol.converged
        assert sol.objective == pytest.approx(objective, rel=1e-6)
        assert sol.iterations <= iterations


def test_objective_scaling_keeps_the_case118_optimum(case118, adm118, opf118, monkeypatch):
    """case118's cost gradient reaches 28,000 at the midpoint dispatch, so
    the iteration runs on the cost times 1e3 / 28,000.  With the bound
    lifted the solve is unscaled: it stops at the same optimum, by the same
    unscaled stopping rule, in more than twice as many iterations."""
    assert _OpfProblem(case118, adm118, *np.split(case118.default_loads, 2)).f_scale < 1.0
    monkeypatch.setattr(opfref, "OBJECTIVE_GRAD_MAX", np.inf)
    unscaled = solve_opf(case118, adm=adm118)
    assert unscaled.converged
    assert opf118.objective == pytest.approx(unscaled.objective, rel=1e-8)
    assert np.max(np.abs(opf118.v_mag - unscaled.v_mag)) <= 1e-5
    assert np.max(np.abs(opf118.p_gen - unscaled.p_gen)) <= 1e-5
    assert 2 * opf118.iterations <= unscaled.iterations


def test_stopping_rule_is_in_cost_units(case118, adm118, opf118):
    """Doubling every cost coefficient halves f_scale exactly, so the
    iteration runs on the same scaled problem and takes the same steps.  The
    recorded and tested figures are in $/h: at every iterate the objective
    and the complementarity double and the residuals stay."""
    double = replace(case118, cost_curves=tuple(
        CostCurve(2 * c.c2, 2 * c.c1, 2 * c.c0) for c in case118.cost_curves))
    sol = solve_opf(double, adm=adm118)
    assert sol.converged and sol.iterations >= opf118.iterations
    for (f1, eq1, iq1, comp1, _), (f2, eq2, iq2, comp2, _) in zip(opf118.history, sol.history):
        assert (f2, eq2, iq2, comp2) == (2 * f1, eq1, iq1, 2 * comp1)


def test_case30_cost_is_not_scaled(case30, adm30):
    prob = _OpfProblem(case30, adm30, case30.default_p_load, case30.default_q_load)
    assert prob.f_scale == 1.0


def test_zero_cost_case_solves_unscaled(case30, adm30):
    free = replace(case30, cost_curves=tuple(CostCurve(0.0, 0.0, 0.0) for _ in case30.cost_curves))
    assert _OpfProblem(free, adm30, free.default_p_load, free.default_q_load).f_scale == 1.0
    sol = solve_opf(free, adm=adm30)
    assert sol.converged
    assert sol.objective == 0.0


def test_solver_runs_without_scipy():
    """numpy is the only runtime dependency: with scipy unimportable the
    package imports, a case30 cold solve converges, and so does a 64-row
    batched power flow, which takes the sparse Newton path."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import deepsolve\n"
        "case = deepsolve.load_case('case30')\n"
        "sol = deepsolve.solve_opf(case)\n"
        "if not sol.converged:\n"
        "    sys.exit('case30 cold solve did not converge')\n"
        "loads = deepsolve.sample_loads(case, (0.9, 1.1), 64, seed=1)\n"
        "x = deepsolve.dataio.independent_values(case, sol.v_mag, sol.p_gen)\n"
        "indep = deepsolve.IndependentVars.from_vector(np.tile(x, (64, 1)))\n"
        "adm = deepsolve.build_admittance(case)\n"
        "n = case.n_bus\n"
        "batch = deepsolve.solve_pf_batch(case, adm, indep, loads[:, :n], loads[:, n:])\n"
        "sys.exit(0 if batch.converged.all() else '64-row batched power flow did not converge')\n"
    )
    src = str(Path(deepsolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
