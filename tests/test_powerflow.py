import numpy as np
import pytest

from deepsolve import (
    IndependentVars,
    PowerFlowError,
    ScalingSpec,
    branch_flows,
    build_admittance,
    check_feasibility,
    limit_excess,
    parse_case,
    penalty_loss,
    sample_loads,
    solve_pf,
)
from deepsolve.dataio import independent_values

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
