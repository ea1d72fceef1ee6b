import numpy as np
import pytest

from deepsolve import (
    IndependentVars,
    PfInit,
    PowerFlowError,
    ScalingSpec,
    SingularJacobianError,
    branch_flows,
    build_admittance,
    check_feasibility,
    limit_excess,
    parse_case,
    penalty_loss,
    sample_loads,
    solve_pf,
    solve_pf_batch,
)
from deepsolve.dataio import independent_values
from deepsolve.powerflow import DEFAULT_MAX_ITER, _newton_layout, _ReducedJacobian, dsbus_dv
from deepsolve.trainer import penalty_loss_batch

from conftest import TWO_BUS_MP, reference_indep


def direct_mismatch(case, v):
    """Per-bus complex power mismatch by explicit branch-sum substitution.

    Independent of the admittance-matrix code path: walks the branch list
    with scalar arithmetic and returns S_injected(V) per bus.
    """
    n = case.n_bus
    s = [0j] * n
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        k = case.bus_index(br.to_bus)
        ys = 1.0 / complex(br.series_r, br.series_x)
        t = br.tap_ratio * complex(np.cos(br.phase_shift), np.sin(br.phase_shift))
        i_from = (ys + 0.5j * br.charging_b) / (abs(t) ** 2) * v[i] - ys / t.conjugate() * v[k]
        i_to = (ys + 0.5j * br.charging_b) * v[k] - ys / t * v[i]
        s[i] += v[i] * i_from.conjugate()
        s[k] += v[k] * i_to.conjugate()
    for idx, bus in enumerate(case.buses):
        s[idx] += v[idx] * (complex(bus.shunt_g, bus.shunt_b) * v[idx]).conjugate()
    return np.array(s)


def dense_dsbus_dv(y, v):
    """dS/dVa and dS/d|V| of S = V conj(Y V) as dense N x N matrices, the
    textbook formula (MATPOWER's dSbus_dV in polar form)."""
    i_bus = y @ v
    v_norm = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(i_bus) - y * v[None, :])
    ds_dvm = v[:, None] * np.conj(y * v_norm[None, :]) + np.diag(np.conj(i_bus) * v_norm)
    return ds_dva, ds_dvm


def test_flat_no_load_converges_immediately(case30):
    # no shunts or charging: the flat profile is an exact no-load solution
    from dataclasses import replace

    flat_case = type(case30)(
        name=case30.name,
        base_mva=case30.base_mva,
        buses=tuple(replace(b, shunt_g=0.0, shunt_b=0.0) for b in case30.buses),
        branches=tuple(
            replace(br, charging_b=0.0, tap_ratio=1.0, phase_shift=0.0)
            for br in case30.branches
        ),
        generators=case30.generators,
        cost_curves=case30.cost_curves,
    )
    adm = build_admittance(flat_case)
    npv = len(flat_case.pv_indices)
    indep = IndependentVars(v_slack=1.0, pv_p_gen=np.zeros(npv), pv_v_mag=np.ones(npv))
    zeros = np.zeros(flat_case.n_bus)
    sol = solve_pf(flat_case, adm, indep, zeros, zeros)
    assert sol.converged
    assert sol.iterations <= 2
    assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
    assert np.allclose(sol.v_ang, 0.0, atol=1e-12)
    assert np.max(np.abs(sol.p_inj)) < 1e-10
    assert np.max(np.abs(sol.q_inj)) < 1e-10


def test_case30_residual_verified_by_direct_substitution(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, case30.default_p_load, case30.default_q_load
    )
    assert sol.converged
    s = direct_mismatch(case30, sol.v_complex)
    p_spec = -case30.default_p_load.copy()
    q_spec = -case30.default_q_load.copy()
    p_spec[case30.pv_indices] += indep.pv_p_gen
    nonslack = np.concatenate([case30.pv_indices, case30.pq_indices])
    res = max(
        np.max(np.abs(s.real[nonslack] - p_spec[nonslack])),
        np.max(np.abs(s.imag[case30.pq_indices] - q_spec[case30.pq_indices])),
    )
    assert res < 1e-8


def test_overloaded_network_reports_failure(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, case30.default_p_load * 50, case30.default_q_load * 50
    )
    assert not sol.converged
    assert sol.max_residual > 1e-8


def test_newton_quadratic_tail(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, case30.default_p_load, case30.default_q_load
    )
    hist = sol.residual_history
    assert sol.converged and len(hist) >= 2
    assert hist[-1] < hist[-2] ** 2 * 1e3


def test_determinism_bitwise(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    a = solve_pf(case30, adm30, indep, case30.default_p_load, case30.default_q_load)
    b = solve_pf(case30, adm30, indep, case30.default_p_load, case30.default_q_load)
    assert a.residual_history == b.residual_history
    assert np.array_equal(a.v_mag, b.v_mag)
    assert np.array_equal(a.v_ang, b.v_ang)


def test_zero_flow_on_equal_voltages():
    case = parse_case(TWO_BUS_MP)
    adm = build_admittance(case)
    v = np.array([1.0 + 0j, 1.0 + 0j])
    flows = branch_flows(case, adm, v)
    assert flows[0] == pytest.approx(0.0, abs=1e-15)


def test_two_bus_flow_matches_hand_formula():
    case = parse_case(TWO_BUS_MP)
    adm = build_admittance(case)
    v1 = 1.0 * np.exp(0j)
    v2 = 0.98 * np.exp(-0.05j)
    v = np.array([v1, v2])
    y = 1.0 / complex(0.02, 0.08)
    s_from = v1 * ((v1 - v2) * y).conjugate()
    s_to = v2 * ((v2 - v1) * y).conjugate()
    expected = max(abs(s_from), abs(s_to))
    flows = branch_flows(case, adm, v)
    assert flows[0] == pytest.approx(expected, abs=1e-12)


def test_reference_solution_within_branch_limits(case30, adm30, opf30):
    v = opf30.v_mag * np.exp(1j * opf30.v_ang)
    flows = branch_flows(case30, adm30, v)
    for e, br in enumerate(case30.branches):
        if br.s_max > 0:
            assert flows[e] <= br.s_max + 1e-6


def _reference_pf(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    return solve_pf(
        case30, adm30, indep, case30.default_p_load, case30.default_q_load, tol=1e-10
    )


def test_feasibility_of_reference_solution(case30, adm30, opf30):
    sol = _reference_pf(case30, adm30, opf30)
    report = check_feasibility(case30, sol, 1e-6)
    assert report.feasible
    assert report.violations == ()


def test_forced_single_branch_violation(case30, adm30, opf30):
    from dataclasses import replace

    sol = _reference_pf(case30, adm30, opf30)
    loaded = int(np.argmax(sol.branch_s / np.array([
        br.s_max if br.s_max > 0 else np.inf for br in case30.branches
    ])))
    branches = list(case30.branches)
    branches[loaded] = replace(branches[loaded], s_max=sol.branch_s[loaded] / 2)
    tight = type(case30)(
        name=case30.name,
        base_mva=case30.base_mva,
        buses=case30.buses,
        branches=tuple(branches),
        generators=case30.generators,
        cost_curves=case30.cost_curves,
    )
    report = check_feasibility(tight, sol, 1e-6)
    assert not report.feasible
    branch_hits = [v for v in report.violations if v.kind == "BranchFlow"]
    assert [v.element for v in branch_hits] == [loaded]


def test_feasibility_requires_convergence(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, case30.default_p_load * 50, case30.default_q_load * 50
    )
    assert not sol.converged
    with pytest.raises(PowerFlowError):
        check_feasibility(case30, sol, 1e-6)


def test_independent_vars_vector_round_trip(case30, opf30):
    indep = reference_indep(case30, opf30)
    x = indep.to_vector()
    assert x.shape == (1 + 2 * len(case30.pv_indices),)
    back = IndependentVars.from_vector(x)
    assert back.v_slack == indep.v_slack
    assert np.array_equal(back.pv_p_gen, indep.pv_p_gen)
    assert np.array_equal(back.pv_v_mag, indep.pv_v_mag)
    with pytest.raises(PowerFlowError):
        IndependentVars.from_vector(x[:-1])


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_limit_excess_decides_feasibility_and_penalty(name, request):
    """Both limit checks are reductions of one kernel, on perturbed points."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    ref = request.getfixturevalue(f"opf{name[4:]}")
    spec = ScalingSpec.from_case(case)
    x_ref = np.clip(independent_values(case, ref.v_mag, ref.p_gen), spec.x_min, spec.x_max)
    width = spec.x_max - spec.x_min
    rng = np.random.default_rng(8)
    n = case.n_bus
    family_buses = {
        "SlackP": [case.slack_index],
        "SlackQ": [case.slack_index],
        "PvQ": case.pv_indices,
        "PqVmag": case.pq_indices,
    }
    outcomes = set()
    for k, row in enumerate(sample_loads(case, (0.9, 1.1), 12, seed=21)):
        scale = 0.03 * (k % 3)
        x = np.clip(x_ref + rng.normal(0, scale, spec.dimension) * width, spec.x_min, spec.x_max)
        sol = solve_pf(case, adm, IndependentVars.from_vector(x), row[:n], row[n:])
        if not sol.converged:
            continue
        excess = limit_excess(case, sol)
        assert not excess["BranchFlow"][~case.s_limited].any()
        report = check_feasibility(case, sol, 0.0)
        assert (penalty_loss(case, sol) == 0.0) == report.feasible
        assert len(report.violations) == sum(int(np.count_nonzero(e)) for e in excess.values())
        for v in report.violations:
            if v.kind == "BranchFlow":
                j = v.element
            else:
                j = [case.buses[i].id for i in family_buses[v.kind]].index(v.element)
            assert v.magnitude == excess[v.kind][j]
        outcomes.add(report.feasible)
    assert False in outcomes


# -- batched Newton core -------------------------------------------------------


def _perturbed_operating_points(case, opf, count, seed):
    """Loads scaled by 0.8-1.1 and independent variables perturbed by
    0/2/8/20 % of their range around the reference optimum."""
    spec = ScalingSpec.from_case(case)
    x_ref = np.clip(independent_values(case, opf.v_mag, opf.p_gen), spec.x_min, spec.x_max)
    width = spec.x_max - spec.x_min
    rng = np.random.default_rng(seed)
    x = np.array([
        np.clip(x_ref + rng.normal(0, (0.0, 0.02, 0.08, 0.2)[k % 4], spec.dimension) * width,
                spec.x_min, spec.x_max)
        for k in range(count)
    ])
    return x, sample_loads(case, (0.8, 1.1), count, seed=seed)


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_reduced_jacobian_matches_full_derivatives(name, request):
    """The sparse reduced assembly against dS/dV sliced to the (PV+PQ, PQ)
    sets, its magnitude columns scaled by |V|."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    pv, pq = case.pv_indices, case.pq_indices
    pvpq = np.concatenate([pv, pq])
    rng = np.random.default_rng(5)
    shape = (4, case.n_bus)
    v = rng.uniform(0.9, 1.1, shape) * np.exp(1j * rng.uniform(-0.3, 0.3, shape))
    s = v * np.conj(v @ adm.y.T)
    jac = _ReducedJacobian(adm.y[pvpq][:, pvpq], len(pv))(v[:, pvpq], s[:, pvpq])
    for k in range(len(v)):
        ds_dva, ds_dvm = dense_dsbus_dv(adm.y, v[k])
        full = np.block([
            [ds_dva[np.ix_(pvpq, pvpq)].real, ds_dvm[np.ix_(pvpq, pq)].real],
            [ds_dva[np.ix_(pq, pvpq)].imag, ds_dvm[np.ix_(pq, pq)].imag],
        ])
        full[:, len(pvpq) :] *= np.abs(v[k, pq])
        assert np.max(np.abs(jac[k] - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_dsbus_dv_matches_branch_walk_differences(name, request):
    """The kernel at the admittance pattern against central differences of
    :func:`direct_mismatch`, which never forms Y; its batched rows equal
    its one-row calls exactly."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    n = case.n_bus
    i, k = np.nonzero((adm.y != 0) | np.eye(n, dtype=bool))
    pattern = (i, k, np.conj(adm.y[i, k]), np.flatnonzero(i == k))
    rng = np.random.default_rng(7)
    vm = rng.uniform(0.9, 1.1, (3, n))
    va = rng.uniform(-0.3, 0.3, (3, n))
    v = vm * np.exp(1j * va)
    s = v * np.conj(v @ adm.y.T)
    dva, dvm = dsbus_dv(*pattern, v, s)
    for r in range(len(v)):
        one = dsbus_dv(*pattern, v[r], s[r])
        np.testing.assert_array_equal(one[0], dva[r])
        np.testing.assert_array_equal(one[1], dvm[r])

    h = 1e-6
    fd_va, fd_vm = np.zeros((n, n), complex), np.zeros((n, n), complex)
    for b in range(n):
        e = np.zeros(n)
        e[b] = h
        fd_va[:, b] = (direct_mismatch(case, vm[0] * np.exp(1j * (va[0] + e)))
                       - direct_mismatch(case, vm[0] * np.exp(1j * (va[0] - e)))) / (2 * h)
        fd_vm[:, b] = vm[0, b] * (direct_mismatch(case, (vm[0] + e) * np.exp(1j * va[0]))
                                  - direct_mismatch(case, (vm[0] - e) * np.exp(1j * va[0]))) / (2 * h)
    for got, fd in ((dva[0], fd_va), (dvm[0], fd_vm)):
        dense = np.zeros((n, n), complex)
        dense[i, k] = got
        assert np.max(np.abs(dense - fd)) <= 1e-8 * np.max(np.abs(fd))


def test_newton_layout_kept_per_bus_split(case30):
    from types import SimpleNamespace

    adm = build_admittance(case30)
    layout = _newton_layout(case30, adm)
    assert _newton_layout(case30, adm) is layout
    pv, pq = case30.pv_indices, case30.pq_indices
    # the same bus order with the last PV bus counted as PQ
    shifted = SimpleNamespace(
        pv_indices=pv[:-1], pq_indices=np.concatenate([pv[-1:], pq]), slack_index=case30.slack_index
    )
    other = _newton_layout(shifted, adm)
    assert other is not layout and other[3].npv == len(pv) - 1


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_batched_rows_match_serial_solves(name, request):
    """Every row of one batched solve reproduces the lone solve of its point,
    including a row that runs out of iterations and two singular rows."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    n = case.n_bus
    x, loads = _perturbed_operating_points(case, opf, 54, seed=31)
    init = PfInit(v_ang=np.zeros((54, n)), v_mag=np.ones((54, n)))
    loads[-3] *= 50  # no solution: stops at DEFAULT_MAX_ITER
    x[-2, 2] = 0.0  # zero magnitude at a PV bus: an all-zero Jacobian row
    init.v_mag[-1, case.pq_indices[0]] = 0.0  # zero start at a PQ bus
    batch = solve_pf_batch(
        case, adm, IndependentVars.from_vector(x), loads[:, :n], loads[:, n:], init=init
    )
    pen = penalty_loss_batch(case, batch)

    assert batch.iterations[-3] == DEFAULT_MAX_ITER and not batch.converged[-3]
    assert list(batch.singular) == [False] * 52 + [True, True]
    for k in range(54):
        lone = (case, adm, IndependentVars.from_vector(x[k]), loads[k, :n], loads[k, n:])
        row_init = PfInit(v_ang=init.v_ang[k], v_mag=init.v_mag[k])
        if batch.singular[k]:
            assert not batch.converged[k] and pen[k] == 10.0
            with pytest.raises(SingularJacobianError):
                solve_pf(*lone, init=row_init)
            continue
        sol = solve_pf(*lone, init=row_init)
        assert bool(batch.converged[k]) == sol.converged
        assert batch.iterations[k] == sol.iterations
        assert abs(pen[k] - penalty_loss(case, sol)) <= 1e-12
        if sol.converged:  # a diverging iterate has no digits to agree on
            assert np.max(np.abs(batch.v_mag[k] - sol.v_mag)) <= 1e-10
            assert np.max(np.abs(batch.v_ang[k] - sol.v_ang)) <= 1e-10
    assert batch.converged.sum() >= 45 and np.count_nonzero(pen[batch.converged]) > 0


def _newton_states(case, adm, opf, count, seed):
    """Voltages and injections in the Newton layout at the flat start and at
    the final iterates of the perturbed operating points."""
    n = case.n_bus
    x, loads = _perturbed_operating_points(case, opf, count, seed)
    batch = solve_pf_batch(case, adm, IndependentVars.from_vector(x), loads[:, :n], loads[:, n:])
    order, y, _, jac = _newton_layout(case, adm)
    start = np.ones((count, n))
    start[:, : len(case.pv_indices)] = x[:, 2::2]
    start[:, -1] = x[:, 0]
    v = np.concatenate([start, (batch.v_mag * np.exp(1j * batch.v_ang))[:, order]])
    s = v * np.conj(v @ y.T)
    return jac, v[:, : n - 1], s[:, : n - 1]


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_sparse_step_backward_error(name, request):
    """The static-pivot sparse LU solves the Newton systems of the perturbed
    operating points, at their flat start and their final iterates, with a
    componentwise backward error of at most 1e-12 in the dense Jacobian."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    jac, v, s = _newton_states(case, adm, opf, 54, seed=31)
    rhs = np.random.default_rng(3).normal(size=(len(v), jac.m))
    dense = jac(v, s).reshape(len(v), -1)
    a = jac.slot_values(v, s)
    pattern = np.flatnonzero(jac.lu.slot >= 0)
    assert np.array_equal(a[jac.lu.slot[pattern]].T, dense[:, pattern])
    assert not np.delete(dense, pattern, axis=1).any()
    dx = jac.lu.solve(a, rhs)
    assert np.isfinite(dx).all()
    dense = dense.reshape(len(v), jac.m, jac.m)
    residual = rhs - np.einsum("bij,bj->bi", dense, dx)
    scale = np.einsum("bij,bj->bi", np.abs(dense), np.abs(dx)) + np.abs(rhs)
    assert np.max(np.abs(residual) / scale) <= 1e-12


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_zero_static_pivot_falls_back_to_lapack(name, request):
    """A nonsingular Jacobian whose first static pivot is zero gets
    np.linalg.solve's answer; the rows beside it keep the sparse one."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    jac, v, s = _newton_states(case, adm, opf, 24, seed=5)
    m1 = v.shape[1]
    p = jac.lu.order[0]
    # the diagonal entry at p is Im M - Im S at an angle, Im M + Im S at a magnitude
    bus, sign = (p, -1.0) if p < m1 else (p - (jac.m - m1), 1.0)
    s[1, bus] = s[1, bus].real
    s[1, bus] -= 1j * sign * jac(v[1:2], s[1:2])[0, p, p]
    dense = jac(v, s)
    assert dense[1, p, p] == 0.0 and np.linalg.cond(dense[1]) < 1e8
    rhs = np.random.default_rng(4).normal(size=(len(v), jac.m))
    sparse = jac.lu.solve(jac.slot_values(v, s), rhs)
    assert not np.isfinite(sparse[1]).any() and np.isfinite(np.delete(sparse, 1, axis=0)).all()
    dx = jac.steps(v, s, rhs)
    np.testing.assert_array_equal(dx[1], np.linalg.solve(dense[1], rhs[1]))
    np.testing.assert_array_equal(np.delete(dx, 1, axis=0), np.delete(sparse, 1, axis=0))


def test_symbolic_analysis_built_once_and_not_for_lone_solves(case30, opf30):
    adm = build_admittance(case30)
    jac = _newton_layout(case30, adm)[3]
    indep = reference_indep(case30, opf30)
    solve_pf(case30, adm, indep, case30.default_p_load, case30.default_q_load)
    assert "lu" not in vars(jac)
    n = case30.n_bus
    x, loads = _perturbed_operating_points(case30, opf30, 64, seed=9)
    rows = IndependentVars.from_vector(x)
    solve_pf_batch(case30, adm, rows, loads[:, :n], loads[:, n:])
    lu = vars(jac)["lu"]
    solve_pf_batch(case30, adm, rows, loads[:, :n], loads[:, n:])
    assert jac.lu is lu and _newton_layout(case30, adm)[3] is jac
    assert np.count_nonzero(lu.slot >= 0) == 479  # the filled pattern
