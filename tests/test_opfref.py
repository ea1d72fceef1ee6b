import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import deepsolve
from deepsolve import WarmStart, build_admittance, check_feasibility, opfref, solve_opf, solve_pf
from deepsolve.dataio import sample_loads
from deepsolve.netmodel import Branch, CostCurve
from deepsolve.opfref import OpfBatch, _OpfProblem, _RowSum, _cold_start, recover

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
    pf = solve_pf(case, adm, indep, *np.split(case.default_loads, 2), tol=1e-10)
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

    for loads in (np.ones(7), np.ones((2, 7))):
        with pytest.raises(OpfError, match="shape"):
            solve_opf(case30, loads=loads)


def test_empty_load_stack_gives_empty_batch(case30, adm30):
    batch = solve_opf(case30, np.zeros((0, 2 * case30.n_bus)), adm=adm30)
    assert isinstance(batch, OpfBatch) and len(batch) == 0
    assert batch.iterations == 0 and batch.converged


def test_load_scaling_monotonicity_logged(case30, adm30, opf30):
    """Scaling all loads down by 5% should not increase the objective.

    Local-solver caveat: violations indicate convergence to a worse local
    point and are reported as warnings, not failures.
    """
    rng = np.random.default_rng(7)
    base = case30.default_loads
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


@pytest.fixture(scope="module")
def case30_selfloop(case30):
    """case30 with one more branch, from bus 10 to itself: tapped, charged
    and flow-limited, so both its flow rows meet at one pattern entry."""
    loop = Branch(10, 10, 0.02, 0.08, charging_b=0.02, tap_ratio=0.95, s_max=1.0)
    return replace(case30, name="case30_selfloop", branches=(*case30.branches, loop))


@pytest.fixture(scope="module")
def adm30_selfloop(case30_selfloop):
    return build_admittance(case30_selfloop)


@pytest.fixture(params=[*CASES, "case30_selfloop"])
def problem(request):
    which = request.param
    case = request.getfixturevalue(which)
    return case, request.getfixturevalue("adm" + which.removeprefix("case"))


def _problem_point(case, adm, seed=3):
    prob = _OpfProblem(case, adm)
    rng = np.random.default_rng(seed)
    n, ng = prob.n, prob.ng
    x = np.concatenate(
        [
            rng.uniform(-0.2, 0.2, n),
            rng.uniform(0.96, 1.05, n),
            case.p_min + rng.uniform(0.2, 0.8, ng) * (case.p_max - case.p_min),
            case.q_min + rng.uniform(0.2, 0.8, ng) * (case.q_max - case.q_min),
        ]
    )
    x[prob.slack] = 0.0
    return prob, x


def _state(prob, xv):
    """Voltages, their magnitudes and the bus injections at the point
    ``xv``, each as a stack of one row, the shape the kernels take."""
    va, vm = xv[None, : prob.n], xv[None, prob.n : 2 * prob.n]
    v = vm * np.exp(1j * va)
    return v, vm, v * np.conj(v @ prob.adm.y.T)


def _voltage_jacobian(prob, xv):
    """The balance Jacobian's voltage entries at the point ``xv``."""
    v, vm, s = _state(prob, xv)
    return prob.voltage_jacobian(prob.injections(v)[0], vm, s)


def _flows(prob, xv):
    """The branch flows of ``inequalities`` at the point ``xv``."""
    return prob.inequalities(xv[None], _state(prob, xv)[0])[1]


def _lagrangian_hessian(prob, xv, lam, mu):
    """Dense Hessian of f + lam' g + mu' h with respect to x at the point
    ``xv``, from the kernel the Newton step runs."""
    v, vm, _ = _state(prob, xv)
    lxx = np.zeros((prob.nx, prob.nx))
    vals = prob._voltage_hessian(v, vm, lam[None], mu[None], _flows(prob, xv))
    lxx[prob.st.rows, prob.st.cols] = vals[0]
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


def test_equality_jacobian_matches_finite_differences(problem):
    prob, x = _problem_point(*problem)

    loads = prob.case.default_loads[None]

    def g_of(xv):
        return prob.equalities(xv[None], _state(prob, xv)[2], loads)[0]

    jg = prob.eq_jacobian(_voltage_jacobian(prob, x))[0]
    fd = _fd_jacobian(g_of, x)
    assert np.max(np.abs(jg - fd)) < 1e-6


def _ineq_jacobian(prob, xv):
    """Dense jh at the point ``xv``, one ``ineq_dot`` column per unit
    vector: the kernel the iteration runs."""
    flows = _flows(prob, xv)
    return np.column_stack([prob.ineq_dot(flows, e[None])[0] for e in np.eye(prob.nx)])


def test_inequality_jacobian_matches_finite_differences(problem):
    prob, x = _problem_point(*problem)

    def h_of(xv):
        return prob.inequalities(xv[None], _state(prob, xv)[0])[0][0]

    jh = _ineq_jacobian(prob, x)
    fd = _fd_jacobian(h_of, x)
    assert np.max(np.abs(jh - fd)) < 1e-6


def test_lagrangian_hessian_matches_finite_differences(problem):
    prob, x = _problem_point(*problem)
    rng = np.random.default_rng(5)
    lam = rng.normal(size=prob.neq)
    mu = rng.uniform(0.1, 1.0, size=prob.niq)

    def lagrangian_grad(xv):
        jg = prob.eq_jacobian(_voltage_jacobian(prob, xv))[0]
        return (
            prob.d_objective(xv[None])[0]
            + jg.T @ lam
            + prob.ineq_t_dot(_flows(prob, xv), mu[None])[0]
        )

    lxx = _lagrangian_hessian(prob, x, lam, mu)
    fd = _fd_jacobian(lagrangian_grad, x)
    scale = 1.0 + np.max(np.abs(fd))
    assert np.max(np.abs(lxx - fd)) / scale < 1e-5


def _random_duals(prob, seed):
    """Multipliers, slacks and right-hand sides drawn for the step checks:
    lam, mu, z, r_x and r_g."""
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=prob.neq)
    mu = rng.uniform(0.01, 10.0, size=prob.niq)
    z = rng.uniform(0.01, 10.0, size=prob.niq)
    return lam, mu, z, rng.normal(size=prob.nx), rng.normal(size=prob.neq), rng


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_reduced_newton_step_matches_full_kkt_solve(problem, seed):
    """The structured step (generator block eliminated, (4N+1)-square solve)
    solves the full KKT system built from the dense views, and the structured
    jg.T and jh.T products equal the dense ones.

    The random duals make the KKT matrix ill-conditioned (up to 1e13 on
    case118), so two float64 solves need not agree to 1e-9 in the forward
    sense.  The check is Oettli-Prager's componentwise backward error: each
    row's residual against the magnitude of that row's terms, which a wrong
    entry anywhere in the structured assembly drives to O(1).
    """
    prob, x = _problem_point(*problem, seed=seed)
    lam, mu, z, r_x, r_g, rng = _random_duals(prob, seed)
    w = rng.normal(size=prob.niq)
    v, vm, _ = _state(prob, x)
    jv = _voltage_jacobian(prob, x)
    flows = _flows(prob, x)
    jg = prob.eq_jacobian(jv)[0]
    jh = _ineq_jacobian(prob, x)
    lxx = _lagrangian_hessian(prob, x, lam, mu)
    full = np.block(
        [[lxx + jh.T @ ((mu / z)[:, None] * jh), jg.T],
         [jg, np.zeros((prob.neq, prob.neq))]]
    )
    rhs = np.concatenate([r_x, r_g])

    system = prob.newton_factor(v, vm, lam[None], mu[None], (mu / z)[None], jv, flows)
    dx, dlam = prob.newton_apply(system, r_x[None], r_g[None])
    got = np.concatenate([dx[0], dlam[0]])
    scale = np.abs(full) @ np.abs(got) + np.abs(rhs)
    assert np.max(np.abs(full @ got - rhs) / scale) <= 1e-12
    for fast, dense in (
        (prob.eq_t_dot(jv, lam[None])[0], jg.T @ lam),
        (prob.ineq_t_dot(flows, w[None])[0], jh.T @ w),
    ):
        assert np.max(np.abs(fast - dense)) <= 1e-12 * (1 + np.max(np.abs(dense)))


def _recorded_systems(monkeypatch, case, adm, run=None):
    """The reduced KKT systems of one cold solve (or of ``run()``), as the
    elimination takes them, and the steps it took: (values, rhs, step) per
    solve, so twice per iteration where the predictor-corrector runs."""
    seen, factored = [], []
    factor, apply = opfref._BusElimination.factor, opfref._BusElimination.apply

    def record_factor(self, values):
        factored.append(values.copy())
        return factor(self, values)

    def record_apply(self, fac, rhs, refine=True):
        step = apply(self, fac, rhs, refine)
        seen.append((factored[-1], rhs.copy(), step.copy()))
        return step

    monkeypatch.setattr(opfref._BusElimination, "factor", record_factor)
    monkeypatch.setattr(opfref._BusElimination, "apply", record_apply)
    if run is None:
        assert solve_opf(case, adm=adm).converged
    else:
        run()
    monkeypatch.undo()
    return seen


def _solve(elim, values, rhs, refine=True):
    return elim.apply(elim.factor(values), rhs, refine)


def _dense_kkt(case, adm, values):
    """The reduced KKT matrix in (va, vm, lam_P, lam_Q, slack angle) from
    the flat values of its 4x4 bus blocks, which are zero past the
    admittance pattern."""
    n, nnz = case.n_bus, len(adm.i)
    blocks = values.reshape(-1, 4, 4)
    assert not blocks[nnz:].any()
    kkt = np.zeros((4 * n + 1, 4 * n + 1))
    kind = n * np.arange(4)
    for block, i, k in zip(blocks, adm.i, adm.k):
        kkt[np.ix_(kind + i, kind + k)] = block
    kkt[4 * n, case.slack_index] = kkt[case.slack_index, 4 * n] = 1.0
    return kkt


def test_case30_step_is_the_dense_lapack_solve(case30, adm30, monkeypatch):
    """case30's 121 unknowns fit KKT_DENSE_DIM: no bus is eliminated, the
    Newton step writes its values straight into the dense reduced matrix,
    at the positions of the dense solver, and every step of a cold solve
    is LAPACK's on that matrix, to the bit."""
    st = _OpfProblem(case30, adm30).st
    assert st.elim.rounds == []
    n = case30.n_bus
    m = 4 * n + 1
    assert m <= opfref.KKT_DENSE_DIM
    assert np.array_equal(st.hess_pos, st.rows * m + st.cols)
    assert np.array_equal(st.jac_pos, (2 * n + st.rows) * m + st.cols)
    assert np.array_equal(st.jac_t_pos, st.cols * m + 2 * n + st.rows)
    assert np.array_equal(st.lam_diag_pos, np.arange(2 * n, 4 * n) * (m + 1))
    for values, rhs, step in _recorded_systems(monkeypatch, case30, adm30):
        kkt = values[0].reshape(m, m)
        assert kkt[4 * n, case30.slack_index] == kkt[case30.slack_index, 4 * n] == 1.0
        assert np.array_equal(step[0], np.linalg.solve(kkt, rhs[0]))


def test_case118_block_elimination_passes_the_backward_error_check(case118, adm118, monkeypatch):
    """case118 eliminates three rounds of buses and solves 22 densely.  On
    the KKT matrix of every iterate of a cold solve, with a random
    right-hand side as in the dense comparison above, the step's
    componentwise backward error is within that comparison's 1e-12.  (The
    solve's own right-hand side is zero in the slack-angle row, and a step
    that is zero there only to rounding, as a dense LAPACK solve's is too,
    has a componentwise error of O(1) in that row.)"""
    elim = _OpfProblem(case118, adm118).st.elim
    assert [len(rd.pivots) for rd in elim.rounds] == [56, 27, 13]
    assert elim.tail.m == 89
    systems = _recorded_systems(monkeypatch, case118, adm118)
    assert len(systems) >= 10
    rng = np.random.default_rng(29)
    for values, _, _ in systems:
        kkt = _dense_kkt(case118, adm118, values[0])
        rhs = rng.normal(size=len(kkt))
        step = _solve(elim, values, rhs[None])[0]
        scale = np.abs(kkt) @ np.abs(step) + np.abs(rhs)
        assert np.max(np.abs(kkt @ step - rhs) / scale) <= 1e-12


def _backward_errors(case, adm, values, rhs, step):
    """Per row but the slack-angle row, the componentwise backward error of
    a step of the reduced system, in the whole system's layout."""
    kkt = _dense_kkt(case, adm, values)
    err = np.abs(kkt @ step - rhs) / (np.abs(kkt) @ np.abs(step) + np.abs(rhs))
    return err[:-1]


def test_refinement_runs_only_where_the_backward_error_needs_it(case118, adm118, monkeypatch):
    """Two rows in one stack: a corrector system of a cold solve, whose
    unrefined step already meets REFINE_TOL, keeps the step of one
    substitution to the bit; the seed-11 system of the full-KKT comparison
    above, whose unrefined step misses it (about 2e-12), is refined and
    meets it."""
    elim = _OpfProblem(case118, adm118).st.elim
    own = _recorded_systems(monkeypatch, case118, adm118)[1]
    prob, x = _problem_point(case118, adm118, seed=11)
    lam, mu, z, r_x, r_g, _ = _random_duals(prob, 11)
    v, vm, _ = _state(prob, x)

    def seed_11_step():
        system = prob.newton_factor(
            v, vm, lam[None], mu[None], (mu / z)[None], _voltage_jacobian(prob, x), _flows(prob, x)
        )
        prob.newton_apply(system, r_x[None], r_g[None])

    far = _recorded_systems(monkeypatch, case118, adm118, seed_11_step)[0]
    values = np.concatenate([own[0], far[0]])
    rhs = np.concatenate([own[1], far[1]])
    plain = _solve(elim, values, rhs, refine=False)
    step = _solve(elim, values, rhs)
    assert np.array_equal(step[0], plain[0])
    errors = [
        [_backward_errors(case118, adm118, values[r], rhs[r], s[r]).max() for s in (plain, step)]
        for r in (0, 1)
    ]
    assert errors[0][0] <= opfref.REFINE_TOL
    assert errors[1][0] > opfref.REFINE_TOL >= errors[1][1]


def test_singular_pivot_block_gives_its_row_a_nan_step(case118, adm118, monkeypatch):
    """In a 3-row stack, row 1's first pivot bus has an all-zero block row:
    its pivot block and its whole system are singular.  That row gets a NaN
    step; the other two get the steps of their lone solves."""
    elim = _OpfProblem(case118, adm118).st.elim
    systems = _recorded_systems(monkeypatch, case118, adm118)[:3]
    values = np.concatenate([v for v, _, _ in systems])
    rhs = np.concatenate([r for _, r, _ in systems])
    blocks = values.reshape(3, -1, 4, 4)
    blocks[1, np.flatnonzero(adm118.i == elim.rounds[0].pivots[0])] = 0.0
    step = _solve(elim, values, rhs)
    assert np.isnan(step[1]).all()
    for row in (0, 2):
        assert np.array_equal(step[row], _solve(elim, values[[row]], rhs[[row]])[0])


@pytest.mark.parametrize("which", CASES)
def test_elimination_rounds_are_independent_sets_of_the_filled_graph(which, request):
    """Replayed on the bus graph: no round takes the slack bus or two
    buses joined by a branch or by fill, eliminating a round joins each
    pivot's neighbours, and the rounds stop once the buses left have at
    most KKT_DENSE_DIM unknowns.  The dense tail holds every block among
    them."""
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    elim = _OpfProblem(case, adm).st.elim
    adj = adm.entry >= 0
    left = set(range(case.n_bus))
    for rd in elim.rounds:
        assert 4 * len(left) + 1 > opfref.KKT_DENSE_DIM
        pivots = rd.pivots.tolist()
        assert case.slack_index not in pivots and set(pivots) <= left
        assert not adj[np.ix_(pivots, pivots)][~np.eye(len(pivots), dtype=bool)].any()
        left -= set(pivots)
        for p in pivots:
            nbrs = [b for b in left if adj[p, b]]
            adj[np.ix_(nbrs, nbrs)] = True
    assert 4 * len(left) + 1 <= opfref.KKT_DENSE_DIM
    tail = sorted(left)
    assert elim.tail.m == 4 * len(tail) + 1
    assert len(elim.tail.pos) == 16 * adj[np.ix_(tail, tail)].sum()


# Cold solves at the default loads and at sample_loads(case, (0.9, 1.1), 5,
# seed=2024): the objective of the dense-KKT solver the structured step
# replaced, and the iteration count with the cost scaled by its start
# gradient (case30's scale is 1, so its counts are that solver's too) and,
# on case118, the predictor-corrector.
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
        (81367.96447173126, 11),
        (79272.00557478411, 11),
        (82174.82182936414, 12),
        (83050.82211486498, 11),
        (81413.14992634719, 11),
        (82075.76084789363, 11),
    ],
}


@pytest.mark.parametrize("which", CASES)
def test_cold_solves_match_pinned_objectives_and_iterations(which, request):
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    rows = [None, *sample_loads(case, (0.9, 1.1), 5, seed=2024)]
    for loads, (objective, iterations) in zip(rows, PINNED[case.name], strict=True):
        sol = solve_opf(case, loads=loads, adm=adm)
        assert sol.converged
        assert sol.objective == pytest.approx(objective, rel=1e-6)
        assert sol.iterations <= iterations


def test_cold_case118_solves_average_at_most_11_5_iterations(case118, adm118):
    """Cold case118 solves open with slacks floored at _Z0 = 0.3: 24 loads
    all converge in 11.0 iterations on average (12.25 with the floor of 1)."""
    batch = solve_opf(case118, sample_loads(case118, (0.9, 1.1), 24, seed=99), adm=adm118)
    assert batch.converged
    assert np.mean([sol.iterations for sol in batch]) <= 11.5


@pytest.mark.parametrize("which, floor", [("case30", 1.0), ("case118", opfref._Z0)])
def test_cold_start_slack_floor(which, floor, request):
    """The first iterate is the cold barrier state: slacks max(floor, -h)
    and multipliers max(1, 1/z), with the floor _Z0 on the corrector's path
    (case118) and 1 on case30's.  z mu is max(1, z) whatever the floor, so
    the complementarity column alone cannot tell the floors apart; the
    stationarity column carries mu and can."""
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    prob = _OpfProblem(case, adm)
    fs = prob.f_scale
    x = _cold_start(prob, 1)
    va, vm, _, _ = prob.split(x)
    h, flows = prob.inequalities(x, vm * np.exp(1j * va))
    z = np.maximum(floor, -h)
    mu = np.maximum(1.0, 1.0 / z)
    comp = (z * mu).sum(axis=1)[0] / prob.niq / fs
    lx = prob.d_objective(x) + prob.ineq_t_dot(flows, mu)
    stationarity = np.abs(lx).max() / fs / (1.0 + mu.max() / fs)
    first = solve_opf(case, adm=adm).history[0]
    assert first[3] == pytest.approx(comp, rel=1e-12)
    assert first[4] == pytest.approx(stationarity, rel=1e-12)


def test_self_loop_cold_solve_matches_pinned(case30_selfloop, adm30_selfloop):
    """A self-loop's two ends are one bus; its cold solve is pinned at the
    iteration count and objective of the solver that still gave each
    self-loop flow row one combined coefficient."""
    sol = solve_opf(case30_selfloop, adm=adm30_selfloop)
    assert sol.converged and sol.iterations == 10
    assert sol.objective == pytest.approx(805.3557845756719, rel=1e-9)


@pytest.mark.parametrize("which, rows", [("case30", 12), ("case118", 3)])
def test_batched_rows_match_lone_solves(which, rows, request):
    """Every row of one lockstep batch reproduces the lone solve of its
    loads: the same outcome, iteration count and history length, and the
    same optimum to rounding.  Row 1, at three times its loads, has no
    solution and runs out of iterations; the rows beside it are unchanged.
    The stack goes into ``solve_opf`` whole."""
    case = request.getfixturevalue(which)
    adm = request.getfixturevalue("adm" + which.removeprefix("case"))
    loads = sample_loads(case, (0.9, 1.1), rows, seed=17)
    loads[1] *= 3
    batch = solve_opf(case, loads, adm=adm)
    assert isinstance(batch, OpfBatch)
    assert [sol.converged for sol in batch] == [True, False] + [True] * (rows - 2)
    assert not batch.converged
    lones = [solve_opf(case, loads=row, adm=adm) for row in loads]
    assert batch.iterations == sum(lone.iterations for lone in lones)
    for sol, lone in zip(batch, lones, strict=True):
        assert (sol.converged, sol.iterations) == (lone.converged, lone.iterations)
        assert len(sol.history) == len(lone.history) == sol.iterations
        if not sol.converged:  # a diverging iterate has no digits to agree on
            continue
        assert sol.objective == pytest.approx(lone.objective, rel=1e-12)
        for field in ("v_ang", "v_mag", "p_gen", "q_gen"):
            assert np.max(np.abs(getattr(sol, field) - getattr(lone, field))) <= 1e-9


def test_singular_step_stops_its_row_alone(case30, adm30, monkeypatch):
    """A row that meets a non-finite Newton step leaves the lockstep batch
    at that iteration, not converged, with the history its lone solve had
    so far; the rows beside it are bit-identical to their lone solves."""
    loads = sample_loads(case30, (0.9, 1.1), 3, seed=23)
    lones = [solve_opf(case30, loads=row, adm=adm30) for row in loads]
    real_step, live_rows = _OpfProblem.newton_apply, []

    def nan_step_at_iteration_3(self, *args):
        dx, dlam = real_step(self, *args)
        live_rows.append(len(dx))
        if len(live_rows) == 3:
            dx[1] = np.nan
        return dx, dlam

    monkeypatch.setattr(_OpfProblem, "newton_apply", nan_step_at_iteration_3)
    batch = solve_opf(case30, loads, adm=adm30)
    assert live_rows[:3] == [3, 3, 3]
    stopped = batch[1]
    assert not stopped.converged and stopped.iterations == 3
    assert stopped.history == lones[1].history[:3]
    for sol, lone in ((batch[0], lones[0]), (batch[2], lones[2])):
        assert lone.converged and sol.converged and sol.iterations == lone.iterations
        assert sol.history == lone.history and sol.objective == lone.objective
        for field in ("v_ang", "v_mag", "p_gen", "q_gen"):
            assert np.array_equal(getattr(sol, field), getattr(lone, field))


def test_row_sum_serves_every_batch_size_from_one_index_array():
    """Row-wise bincount, as np.add.at per row; a shrinking batch reuses the
    prefix of the largest batch's flat indices instead of caching more."""
    idx = np.array([2, 0, 2, 1])
    rs = _RowSum(idx, 3)
    rng = np.random.default_rng(0)
    for b in (5, 3, 1, 4):
        for w in (rng.normal(size=(b, 4)), rng.normal(size=(b, 4)) + 1j * rng.normal(size=(b, 4))):
            want = np.zeros((b, 3), dtype=w.dtype)
            for r in range(b):
                np.add.at(want[r], idx, w[r])
            assert np.allclose(rs(w), want, rtol=0, atol=1e-15)
    assert [len(rs._flat[c]) for c in (False, True)] == [5 * 4, 2 * 5 * 4]


def test_objective_scaling_keeps_the_case118_optimum(case118, adm118, opf118, monkeypatch):
    """case118's cost gradient reaches 28,000 at the midpoint dispatch, so
    the iteration runs on the cost times 1e3 / 28,000.  With the bound
    lifted the solve is unscaled: it stops at the same optimum, by the same
    unscaled stopping rule.  A warm restart from that optimum at other
    loads, whose opening is scaled too, takes more than twice as many
    iterations unscaled.  (A cold solve takes 12 either way: the
    predictor-corrector's sigma adapts to the multipliers' scale.)"""
    assert _OpfProblem(case118, adm118).f_scale < 1.0
    loads = sample_loads(case118, (0.9, 1.1), 1, seed=99)[0]
    ws = WarmStart(v_mag=opf118.v_mag, v_ang=opf118.v_ang, p_gen=opf118.p_gen, q_gen=opf118.q_gen)
    scaled = recover(case118, loads, ws, adm=adm118)
    monkeypatch.setattr(opfref, "OBJECTIVE_GRAD_MAX", np.inf)
    unscaled = solve_opf(case118, adm=adm118)
    assert unscaled.converged
    assert opf118.objective == pytest.approx(unscaled.objective, rel=1e-8)
    assert np.max(np.abs(opf118.v_mag - unscaled.v_mag)) <= 1e-5
    assert np.max(np.abs(opf118.p_gen - unscaled.p_gen)) <= 1e-5
    unscaled_warm = recover(case118, loads, ws, adm=adm118)
    assert scaled.converged and unscaled_warm.converged
    assert scaled.objective == pytest.approx(unscaled_warm.objective, rel=1e-8)
    assert 2 * scaled.iterations <= unscaled_warm.iterations


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
    assert _OpfProblem(case30, adm30).f_scale == 1.0


def test_zero_cost_case_solves_unscaled(case30, adm30):
    free = replace(case30, cost_curves=tuple(CostCurve(0.0, 0.0, 0.0) for _ in case30.cost_curves))
    assert _OpfProblem(free, adm30).f_scale == 1.0
    sol = solve_opf(free, adm=adm30)
    assert sol.converged
    assert sol.objective == 0.0


def test_solver_runs_without_scipy():
    """numpy is the only runtime dependency: with scipy unimportable the
    package imports, a case30 cold solve converges, and so do a case118
    cold solve, which takes the bus-block elimination, and a 64-row batched
    power flow, which takes the sparse Newton path."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import deepsolve\n"
        "case = deepsolve.load_case('case30')\n"
        "sol = deepsolve.solve_opf(case)\n"
        "if not sol.converged:\n"
        "    sys.exit('case30 cold solve did not converge')\n"
        "if not deepsolve.solve_opf(deepsolve.load_case('case118')).converged:\n"
        "    sys.exit('case118 cold solve did not converge')\n"
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
