import numpy as np
import pytest

from deepsolve import build_admittance, load_case, solve_opf
from deepsolve.opfref import _OpfProblem

TWO_BUS_MP = """function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
1 3 0 0 0 0 1 1 0 132 1 1.06 0.94;
2 1 20 10 0 0 1 1 0 132 1 1.06 0.94;
];
mpc.gen = [
1 0 0 100 -100 1.0 100 1 100 0;
];
mpc.branch = [
1 2 0.02 0.08 0 50 0 0 0 0 1;
];
mpc.gencost = [
2 0 0 3 0.01 20 0;
];
"""


@pytest.fixture(scope="session")
def case30():
    return load_case("case30")


@pytest.fixture(scope="session")
def adm30(case30):
    return build_admittance(case30)


@pytest.fixture(scope="session")
def case118():
    return load_case("case118")


@pytest.fixture(scope="session")
def adm118(case118):
    return build_admittance(case118)


@pytest.fixture(scope="session")
def opf30(case30, adm30):
    sol = solve_opf(case30, adm=adm30)
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def opf118(case118, adm118):
    sol = solve_opf(case118, adm=adm118)
    assert sol.converged
    return sol


def solution_equalities_residual(case, adm, sol, loads=None) -> float:
    """Infinity norm of the balance equations at an OPF solution."""
    n = case.n_bus
    if loads is None:
        loads = case.default_loads
    prob = _OpfProblem(case, adm, loads[:n], loads[n:])
    x = np.concatenate([sol.v_ang, sol.v_mag, sol.p_gen, sol.q_gen])
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    return float(np.max(np.abs(prob.equalities(x, v * np.conj(adm.y @ v)))))


def reference_indep(case, opf_sol):
    """Independent variables (slack |V|, PV P/|V|) from an OPF solution."""
    from deepsolve import IndependentVars

    gen_at = case.gen_lookup()
    pv = case.pv_indices
    pv_p = np.array([opf_sol.p_gen[gen_at[i]] for i in pv])
    return IndependentVars(
        v_slack=float(opf_sol.v_mag[case.slack_index]),
        pv_p_gen=pv_p,
        pv_v_mag=opf_sol.v_mag[pv].copy(),
    )
