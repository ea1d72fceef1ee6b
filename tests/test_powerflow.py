import numpy as np
import pytest

from deepsolve import (
    IndependentVars,
    PfInit,
    PowerFlowBatch,
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
from deepsolve import powerflow
from deepsolve.dataio import independent_values
from deepsolve.powerflow import (
    CHORD_CONTRACTION,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _newton_layout,
    _ReducedJacobian,
    _start,
    dsbus_dv,
)
from deepsolve.trainer import DIVERGED_PF_PENALTY

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


def dense_branch_flows(adm, v):
    """The larger end's apparent power per branch from dense (E, N) branch
    admittance rows: the row of a branch end holds its two primitives at
    its two buses, so ``yf @ V`` and ``yt @ V`` are the end currents."""
    e, n = len(adm.f), adm.dimension
    yf, yt = np.zeros((e, n), complex), np.zeros((e, n), complex)
    rows = np.arange(e)
    yf[rows, adm.f] += adm.yff
    yf[rows, adm.t] += adm.yft
    yt[rows, adm.f] += adm.ytf
    yt[rows, adm.t] += adm.ytt
    s_from = v[..., adm.f] * np.conj(v @ yf.T)
    s_to = v[..., adm.t] * np.conj(v @ yt.T)
    return np.maximum(np.abs(s_from), np.abs(s_to))


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
        case30, adm30, indep, *np.split(case30.default_loads, 2)
    )
    assert sol.converged
    s = direct_mismatch(case30, sol.v_mag * np.exp(1j * sol.v_ang))
    p_spec = -case30.default_loads[: case30.n_bus]
    q_spec = -case30.default_loads[case30.n_bus :]
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
        case30, adm30, indep, *np.split(case30.default_loads * 50, 2)
    )
    assert not sol.converged
    assert sol.max_residual > 1e-8


def _record_newton_steps(monkeypatch):
    """The number of rows of every Newton step call, appended as they run."""
    rows = []
    steps = powerflow._newton_steps

    def recording(jac, rhs):
        rows.append(len(rhs))
        return steps(jac, rhs)

    monkeypatch.setattr(powerflow, "_newton_steps", recording)
    return rows


def test_newton_quadratic_tail(case30, adm30, opf30, monkeypatch):
    """At 2.5x the default loads a chord step stops halving the mismatch, so
    the row switches to Newton steps for good, and their tail is quadratic."""
    newton_steps = _record_newton_steps(monkeypatch)
    indep = reference_indep(case30, opf30)
    sol = solve_pf(
        case30, adm30, indep, *np.split(case30.default_loads * 2.5, 2)
    )
    hist = np.array(sol.residual_history)
    assert sol.converged
    switch = 1 + int(np.flatnonzero(hist[1:] >= CHORD_CONTRACTION * hist[:-1])[0])
    assert switch >= 2 and newton_steps == [1] * (sol.iterations - switch) and len(newton_steps) >= 2
    assert hist[-1] < hist[-2] ** 2 * 1e3


def test_determinism_bitwise(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    a = solve_pf(case30, adm30, indep, *np.split(case30.default_loads, 2))
    b = solve_pf(case30, adm30, indep, *np.split(case30.default_loads, 2))
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


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_branch_flows_match_dense_branch_rows(name, request):
    """The per-end gathers against the dense branch-row products, at random
    (B, N) voltage states."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    rng = np.random.default_rng(9)
    shape = (6, case.n_bus)
    v = rng.uniform(0.9, 1.1, shape) * np.exp(1j * rng.uniform(-0.3, 0.3, shape))
    want = dense_branch_flows(adm, v)
    got = branch_flows(case, adm, v)
    assert got.shape == want.shape == (6, len(case.branches))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_reference_solution_within_branch_limits(case30, adm30, opf30):
    v = opf30.v_mag * np.exp(1j * opf30.v_ang)
    flows = branch_flows(case30, adm30, v)
    for e, br in enumerate(case30.branches):
        if br.s_max > 0:
            assert flows[e] <= br.s_max + 1e-6


def _reference_pf(case30, adm30, opf30):
    indep = reference_indep(case30, opf30)
    return solve_pf(
        case30, adm30, indep, *np.split(case30.default_loads, 2), tol=1e-10
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
        case30, adm30, indep, *np.split(case30.default_loads * 50, 2)
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
    order = np.concatenate([pvpq, [case.slack_index]])
    jac = _ReducedJacobian(adm, order, len(pv))(v[:, pvpq], s[:, pvpq])
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
    i, k = adm.i, adm.k
    rng = np.random.default_rng(7)
    vm = rng.uniform(0.9, 1.1, (3, n))
    va = rng.uniform(-0.3, 0.3, (3, n))
    v = vm * np.exp(1j * va)
    s = v * np.conj(v @ adm.y.T)
    mm = adm.y_conj * v[:, i] * np.conj(v[:, k])
    dva, dvm = dsbus_dv(mm.copy(), adm.bus_entry, s)
    for r in range(len(v)):
        one = dsbus_dv(mm[r].copy(), adm.bus_entry, s[r])
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
    """Every row of one batched solve from the shared flat start reproduces
    the lone solve of its point, including a row that runs out of
    iterations and a singular row, and the batch penalty of each row is the
    penalty of that row alone.  A zero start at a PQ bus makes a lone solve
    singular."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    n = case.n_bus
    x, loads = _perturbed_operating_points(case, opf, 54, seed=31)
    init = PfInit(v_ang=np.zeros(n), v_mag=np.ones(n))
    loads[-3] *= 50  # no solution: stops at DEFAULT_MAX_ITER
    x[-2, 2] = 0.0  # zero magnitude at a PV bus: an all-zero Jacobian row
    zero_start = PfInit(v_ang=init.v_ang, v_mag=init.v_mag.copy())
    zero_start.v_mag[case.pq_indices[0]] = 0.0
    with pytest.raises(SingularJacobianError):
        solve_pf(case, adm, IndependentVars.from_vector(x[-1]), loads[-1, :n], loads[-1, n:],
                 init=zero_start)
    x, loads = x[:-1], loads[:-1]
    batch = solve_pf_batch(
        case, adm, IndependentVars.from_vector(x), loads[:, :n], loads[:, n:], init=init
    )
    pen = penalty_loss(case, batch)

    assert batch.iterations[-2] == DEFAULT_MAX_ITER and not batch.converged[-2]
    assert list(batch.singular) == [False] * 52 + [True]
    for k in range(53):
        lone = (case, adm, IndependentVars.from_vector(x[k]), loads[k, :n], loads[k, n:])
        if batch.singular[k]:
            assert not batch.converged[k] and pen[k] == DIVERGED_PF_PENALTY
            with pytest.raises(SingularJacobianError):
                solve_pf(*lone, init=init)
            with pytest.raises(SingularJacobianError):
                batch.row(k)
            continue
        sol = solve_pf(*lone, init=init)
        assert bool(batch.converged[k]) == sol.converged
        assert batch.iterations[k] == sol.iterations
        assert penalty_loss(case, batch.row(k)) == pen[k]  # bit for bit
        assert abs(pen[k] - penalty_loss(case, sol)) <= 1e-12
        if sol.converged:  # a diverging iterate has no digits to agree on
            assert np.max(np.abs(batch.v_mag[k] - sol.v_mag)) <= 1e-10
            assert np.max(np.abs(batch.v_ang[k] - sol.v_ang)) <= 1e-10
    assert batch.converged.sum() >= 45 and np.count_nonzero(pen[batch.converged]) > 0


def _uncompacted(case, adm, x, loads, init):
    """(v_mag, v_ang, iterations, converged, singular, history) of the
    power-flow loop with arrays that keep all B rows: each iteration
    gathers the live rows through an index array and scatters them back.
    The same arithmetic on the same live rows as ``solve_pf_batch``."""
    n, npv = case.n_bus, len(case.pv_indices)
    m1 = n - 1
    order, y, back, jacobian = _newton_layout(case, adm)
    vm0, va0, chord = _start(case, adm, init)
    vm, va = np.tile(vm0, (len(x), 1)), np.tile(va0, (len(x), 1))
    vm[:, :npv], vm[:, m1] = x[:, 2::2], x[:, 0]
    spec = -np.concatenate([loads[:, order[:m1]], loads[:, n + case.pq_indices]], axis=1)
    spec[:, :npv] += x[:, 1::2]
    history = np.full((len(x), DEFAULT_MAX_ITER + 1), np.nan)
    iterations = np.zeros(len(x), dtype=int)
    converged, singular = np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    newton = np.full(len(x), chord is None)
    rows = np.arange(len(x))
    for it in range(DEFAULT_MAX_ITER + 1):
        v = vm[rows] * np.exp(1j * va[rows])
        s = v * np.conj(v @ y.T)
        f = np.concatenate([s.real[:, :m1], s.imag[:, npv:m1]], axis=1) - spec[rows]
        norm_f = np.abs(f).max(axis=1, initial=0.0)
        history[rows, it], iterations[rows] = norm_f, it
        done = norm_f < DEFAULT_TOL
        converged[rows[done]] = True
        if it == DEFAULT_MAX_ITER:
            break
        rows, v, s, f, norm_f = rows[~done], v[~done], s[~done], f[~done], norm_f[~done]
        if not rows.size:
            break
        if it:
            newton[rows] |= ~(norm_f < CHORD_CONTRACTION * history[rows, it - 1])
        step = newton[rows]
        dx = np.empty_like(f) if chord is None else f @ chord
        if step.any():
            dx[step] = powerflow._newton_steps(jacobian(v[step, :m1], s[step, :m1]), -f[step])
        ok = np.isfinite(dx).all(axis=1)
        singular[rows[~ok]] = True
        rows, dx = rows[ok], dx[ok]
        va[rows, :m1] += dx[:, :m1]
        vm[rows, npv:m1] *= 1.0 + dx[:, m1:]
    return vm[:, back], va[:, back], iterations, converged, singular, history


def test_compacted_rows_match_their_lone_solves(case30, adm30, opf30, monkeypatch):
    """One shuffled case30 batch from the reference optimum's state mixes
    rows that stay on chord steps, rows that switch to Newton (loads at
    2.4-2.55 times the defaults), a row that runs to DEFAULT_MAX_ITER, and
    a row that turns singular at iteration 2, after rows that stopped at
    iterations 0 and 2.  The live arrays shrink as rows stop; every row
    equals its lone (one-row) solve, and the batch equals the loop that
    keeps all B rows bit for bit, its Newton row-steps included."""
    n = case30.n_bus
    x, loads = _perturbed_operating_points(case30, opf30, 12, seed=11)
    factors = np.array([1.0, 1.001, 1.01, 2.4, 2.5, 2.55, 50.0])
    x = np.vstack([x, np.tile(x[0], (7, 1)), x[1]])  # x[0] is the reference optimum's
    loads = np.vstack([loads, case30.default_loads * factors[:, None], loads[1]])
    x[-1, 2] = 0.0  # zero magnitude at a PV bus: singular once the row takes Newton steps
    shuffle = np.random.default_rng(4).permutation(len(x))
    x, loads = x[shuffle], loads[shuffle]
    init = PfInit(v_ang=opf30.v_ang, v_mag=opf30.v_mag)
    newton_steps = _record_newton_steps(monkeypatch)
    batch = solve_pf_batch(case30, adm30, IndependentVars.from_vector(x), loads[:, :n],
                           loads[:, n:], init=init)
    batch_steps = sum(newton_steps)

    stops = batch.iterations
    assert stops[batch.singular].tolist() == [2] and {0, 2} <= set(stops[batch.converged])
    assert stops[~batch.converged & ~batch.singular].tolist() == [DEFAULT_MAX_ITER]
    newton_steps.clear()
    for k in range(len(x)):
        lone = solve_pf_batch(case30, adm30, IndependentVars.from_vector(x[k : k + 1]),
                              loads[k : k + 1, :n], loads[k : k + 1, n:], init=init)
        assert lone.iterations[0] == stops[k]
        assert lone.converged[0] == batch.converged[k] and lone.singular[0] == batch.singular[k]
        history, lone_history = batch.residual_history[k], lone.residual_history[0]
        assert np.isnan(history[stops[k] + 1 :]).all() and not np.isnan(history[: stops[k] + 1]).any()
        if stops[k] == DEFAULT_MAX_ITER:  # a diverging iterate has no digits to agree on
            continue
        np.testing.assert_allclose(history, lone_history, rtol=1e-3, atol=1e-12)
        assert np.max(np.abs(batch.v_mag[k] - lone.v_mag[0])) <= 1e-10
        assert np.max(np.abs(batch.v_ang[k] - lone.v_ang[0])) <= 1e-10
    assert batch_steps == sum(newton_steps) == 38

    newton_steps.clear()
    vm, va, iterations, converged, singular, history = _uncompacted(case30, adm30, x, loads, init)
    assert sum(newton_steps) == batch_steps
    for got, want in ((batch.v_mag, vm), (batch.v_ang, va), (batch.iterations, iterations),
                      (batch.converged, converged), (batch.singular, singular),
                      (batch.residual_history, history)):
        np.testing.assert_array_equal(got, want, strict=True)


def _newton_only(case, adm, x, loads, tol=1e-12):
    """(v_mag, v_ang, converged) of plain Newton iterations from the flat
    start, one row at a time, each step a dense solve with the
    :class:`_ReducedJacobian` matrix."""
    n, npv = case.n_bus, len(case.pv_indices)
    order = np.concatenate([case.pv_indices, case.pq_indices, [case.slack_index]])
    jac, y, m1 = _ReducedJacobian(adm, order, npv), adm.y[order][:, order], n - 1
    vm, va = np.ones((len(x), n)), np.zeros((len(x), n))
    vm[:, :npv], vm[:, m1] = x[:, 2::2], x[:, 0]
    spec = -np.concatenate([loads[:, order[:m1]], loads[:, n + case.pq_indices]], axis=1)
    spec[:, :npv] += x[:, 1::2]
    converged = np.zeros(len(x), dtype=bool)
    for r in range(len(x)):
        for _ in range(DEFAULT_MAX_ITER + 1):
            v = vm[r] * np.exp(1j * va[r])
            s = v * np.conj(y @ v)
            f = np.concatenate([s.real[:m1], s.imag[npv:m1]]) - spec[r]
            if np.abs(f).max() < tol:
                converged[r] = True
                break
            dx = np.linalg.solve(jac(v[None, :m1], s[None, :m1])[0], -f)
            va[r, :m1] += dx[:m1]
            vm[r, npv:m1] *= 1.0 + dx[m1:]
    back = np.argsort(order)
    return vm[:, back], va[:, back], converged


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_chord_solves_match_newton(name, request, monkeypatch):
    """On the perturbed operating points the chord iteration takes no Newton
    step; its states meet the balance equations by direct substitution and
    agree with a Newton-only iteration."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    n = case.n_bus
    x, loads = _perturbed_operating_points(case, opf, 54, seed=31)
    newton_steps = _record_newton_steps(monkeypatch)
    indep = IndependentVars.from_vector(x)
    batch = solve_pf_batch(case, adm, indep, loads[:, :n], loads[:, n:])
    assert batch.converged.all() and newton_steps == []
    nonslack = np.concatenate([case.pv_indices, case.pq_indices])
    for k in range(len(x)):
        s = direct_mismatch(case, batch.v_mag[k] * np.exp(1j * batch.v_ang[k]))
        p_spec, q_spec = -loads[k, :n], -loads[k, n:]
        p_spec[case.pv_indices] += x[k, 1::2]
        assert np.max(np.abs(s.real[nonslack] - p_spec[nonslack])) < 1e-8
        assert np.max(np.abs(s.imag[case.pq_indices] - q_spec[case.pq_indices])) < 1e-8
    vm, va, newton_converged = _newton_only(case, adm, x, loads)
    assert newton_converged.all()
    tight = solve_pf_batch(case, adm, indep, loads[:, :n], loads[:, n:], tol=1e-10)
    assert tight.converged.all() and newton_steps == []
    assert np.max(np.abs(tight.v_mag - vm)) <= 1e-9
    assert np.max(np.abs(tight.v_ang - va)) <= 1e-9


def test_chord_matrix_kept_per_bus_split_and_start(case30):
    from types import SimpleNamespace

    adm = build_admittance(case30)
    n = case30.n_bus
    flat = PfInit(v_ang=np.zeros(n), v_mag=np.ones(n))
    start = _start(case30, adm, flat)
    chord = start[2]
    assert _start(case30, adm, PfInit(flat.v_ang.copy(), flat.v_mag.copy())) is start
    assert chord.shape == (_newton_layout(case30, adm)[3].m,) * 2
    assert _start(case30, adm, None) is not start
    np.testing.assert_array_equal(_start(case30, adm, None)[2], chord)
    assert _start(case30, build_admittance(case30), flat)[2] is not chord
    raised = flat.v_mag.copy()
    raised[3] = 1.01
    assert _start(case30, adm, PfInit(flat.v_ang, raised))[2] is not chord
    pv, pq = case30.pv_indices, case30.pq_indices
    shifted = SimpleNamespace(  # the same bus order, the last PV bus counted as PQ
        pv_indices=pv[:-1], pq_indices=np.concatenate([pv[-1:], pq]),
        slack_index=case30.slack_index, n_bus=n,
    )
    assert _start(shifted, adm, flat)[2] is not chord


def test_singular_start_sends_every_row_to_newton(request, monkeypatch):
    """A start with a zero magnitude at a PV bus has a singular chord matrix
    but gives the rows their own PV magnitudes: every row takes Newton
    steps from the first and converges as a Newton-only iteration does.  A
    row whose own PV magnitude is zero comes out singular in the same
    stack and leaves the steps of the rows beside it alone.  At a PQ bus
    the zero stays in every row, and every row comes out singular.  Both
    bundled cases run; on case118 the first stack holds 8 systems of 181
    unknowns."""
    newton_steps = _record_newton_steps(monkeypatch)
    for name in ("case30", "case118"):
        case = request.getfixturevalue(name)
        adm = request.getfixturevalue(f"adm{name[4:]}")
        opf = request.getfixturevalue(f"opf{name[4:]}")
        n = case.n_bus
        x, loads = _perturbed_operating_points(case, opf, 8, seed=3)
        for bus in (case.pv_indices[0], case.pq_indices[0]):
            v_mag = np.ones(n)
            v_mag[bus] = 0.0
            init = PfInit(v_ang=np.zeros(n), v_mag=v_mag)
            assert _start(case, adm, init)[2] is None
            rows = x.copy()
            if bus in case.pv_indices:
                rows[-1, 2] = 0.0  # zero magnitude at a PV bus: an all-zero Jacobian row
            newton_steps.clear()
            batch = solve_pf_batch(case, adm, IndependentVars.from_vector(rows), loads[:, :n],
                                   loads[:, n:], init=init)
            assert newton_steps[0] == 8
            assert sum(newton_steps) == batch.iterations.sum() + batch.singular.sum()
            if bus in case.pq_indices:
                assert batch.singular.all() and not batch.converged.any()
                assert (batch.iterations == 0).all()
                continue
            assert list(batch.singular) == [False] * 7 + [True] and not batch.converged[-1]
            assert batch.converged[:-1].all() and batch.iterations.max() <= 5
            vm, va, _ = _newton_only(case, adm, x[:-1], loads[:-1])
            assert np.max(np.abs(batch.v_mag[:-1] - vm)) <= 1e-9, name
            assert np.max(np.abs(batch.v_ang[:-1] - va)) <= 1e-9, name


def test_two_dimensional_start_raises(case30, adm30, opf30):
    n = case30.n_bus
    x, loads = _perturbed_operating_points(case30, opf30, 2, seed=3)
    init = PfInit(v_ang=np.zeros((2, n)), v_mag=np.ones((2, n)))
    with pytest.raises(PowerFlowError, match=r"start of shapes \(2, 30\)"):
        solve_pf_batch(case30, adm30, IndependentVars.from_vector(x), loads[:, :n], loads[:, n:],
                       init=init)


def test_independent_rows_must_fit_the_loads(case30, adm30, opf30):
    """Independent variables whose leading axis is not the loads' B raise
    PowerFlowError naming both shapes; shapes every row shares broadcast."""
    n = case30.n_bus
    x, loads = _perturbed_operating_points(case30, opf30, 4, seed=3)
    p_load, q_load = loads[:, :n], loads[:, n:]
    indep = IndependentVars.from_vector(x)
    for bad, shapes in (
        (IndependentVars(indep.v_slack[:3], indep.pv_p_gen, indep.pv_v_mag), r"\(3,\), \(4, 5\)"),
        (IndependentVars(indep.v_slack, indep.pv_p_gen, indep.pv_v_mag[:3]), r"\(4,\), \(4, 5\)"),
        (IndependentVars.from_vector(x[:3]), r"\(3,\), \(3, 5\)"),
    ):
        with pytest.raises(PowerFlowError, match=shapes + r".* do not fit loads of shape \(4, 30\)"):
            solve_pf_batch(case30, adm30, bad, p_load, q_load)
    shared = IndependentVars.from_vector(x[0])
    batch = solve_pf_batch(case30, adm30, shared, p_load, q_load)
    stacked = solve_pf_batch(case30, adm30, IndependentVars.from_vector(np.tile(x[0], (4, 1))),
                             p_load, q_load)
    np.testing.assert_array_equal(batch.v_mag, stacked.v_mag)
    assert batch.converged.all()


@pytest.mark.parametrize("name", ["case30", "case118"])
def test_lone_solve_is_row_zero_of_a_one_row_batch(name, request):
    """solve_pf returns row 0 of the one-row batch, field for field: a
    PowerFlowBatch without the batch axis and with the lone residual list."""
    case = request.getfixturevalue(name)
    adm = request.getfixturevalue(f"adm{name[4:]}")
    opf = request.getfixturevalue(f"opf{name[4:]}")
    n = case.n_bus
    x, loads = _perturbed_operating_points(case, opf, 2, seed=7)
    sol = solve_pf(case, adm, IndependentVars.from_vector(x[1]), loads[1, :n], loads[1, n:])
    row = solve_pf_batch(
        case, adm, IndependentVars.from_vector(x[1:]), loads[1:, :n], loads[1:, n:]
    ).row(0)
    assert type(sol) is PowerFlowBatch and list(vars(sol)) == list(vars(row))
    for key, value in vars(sol).items():
        assert type(value) is type(getattr(row, key)), key
        np.testing.assert_array_equal(value, getattr(row, key), err_msg=key, strict=True)
    assert sol.converged and not sol.singular and sol.v_mag.shape == (n,)
    assert np.ndim(sol.slack_p_gen) == np.ndim(sol.iterations) == 0
    assert [type(r) for r in sol.residual_history] == [float] * (sol.iterations + 1)
    assert sol.residual_history[-1] == sol.max_residual < DEFAULT_TOL
